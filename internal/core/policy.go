package core

import (
	"fmt"

	"repro/internal/sim"
)

// Replacement selects the fast-level victim of a promotion (Section 5.3).
type Replacement uint8

const (
	// ReplLRU evicts the least-recently-used fast slot of the group.
	ReplLRU Replacement = iota
	// ReplRandom evicts a uniformly random fast slot.
	ReplRandom
	// ReplSequential cycles through the fast slots in order.
	ReplSequential
	// ReplGlobalCounter uses a single incrementing counter shared by all
	// groups (the paper's pseudo-random policy).
	ReplGlobalCounter
)

// String names the policy.
func (r Replacement) String() string {
	switch r {
	case ReplLRU:
		return "lru"
	case ReplRandom:
		return "random"
	case ReplSequential:
		return "sequential"
	case ReplGlobalCounter:
		return "counter"
	default:
		return "unknown"
	}
}

// ParseReplacement parses a policy name.
func ParseReplacement(s string) (Replacement, error) {
	switch s {
	case "lru":
		return ReplLRU, nil
	case "random":
		return ReplRandom, nil
	case "sequential":
		return ReplSequential, nil
	case "counter":
		return ReplGlobalCounter, nil
	}
	return 0, fmt.Errorf("core: unknown replacement policy %q", s)
}

// victimPicker chooses victims according to a Replacement policy.
type victimPicker struct {
	policy  Replacement
	rng     *sim.RNG
	counter uint64
}

// pick returns the fast physical slot to evict from g. usable, when
// non-nil, excludes slots that must not receive a promotion (weak
// rows); the caller guarantees at least one usable slot exists. A nil
// usable keeps the exact decision (and RNG consumption) of the
// fault-free path.
func (v *victimPicker) pick(g *group, fastSlots int, usable func(int) bool) int {
	ok := func(i int) bool { return usable == nil || usable(i) }
	switch v.policy {
	case ReplLRU:
		victim := -1
		for i := 0; i < fastSlots; i++ {
			if !ok(i) {
				continue
			}
			if victim < 0 || g.lastUse[i] < g.lastUse[victim] {
				victim = i
			}
		}
		return victim
	case ReplRandom:
		if usable == nil {
			return v.rng.Intn(fastSlots)
		}
		// Draw uniformly over the usable subset with a single roll so
		// the stream stays deterministic per decision.
		n := 0
		for i := 0; i < fastSlots; i++ {
			if usable(i) {
				n++
			}
		}
		k := v.rng.Intn(n)
		for i := 0; i < fastSlots; i++ {
			if usable(i) {
				if k == 0 {
					return i
				}
				k--
			}
		}
		return -1 // unreachable: caller guarantees a usable slot
	case ReplSequential:
		for {
			s := g.seq
			g.seq = (g.seq + 1) % fastSlots
			if ok(s) {
				return s
			}
		}
	default: // ReplGlobalCounter
		for {
			v.counter++
			s := int(v.counter % uint64(fastSlots))
			if ok(s) {
				return s
			}
		}
	}
}

// Filter implements the row-promotion filtering policy of Section 5.3: a
// fixed-capacity table of per-row access counters over the most recently
// used rows; a row is promoted once its count reaches the threshold.
// Threshold 1 (the paper's final choice) promotes on the first slow-level
// hit and bypasses the counters entirely.
type Filter struct {
	threshold int
	capacity  int
	counts    map[uint64]int
	order     []uint64 // FIFO over tracked rows approximating MRU table
	head      int

	// Rejects counts suppressed promotions.
	Rejects uint64
}

// NewFilter builds a filter; capacity is the number of hardware counters
// (the paper evaluates 1024).
func NewFilter(threshold, capacity int) (*Filter, error) {
	if threshold < 1 {
		return nil, fmt.Errorf("core: filter threshold must be >= 1, got %d", threshold)
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("core: filter capacity must be positive, got %d", capacity)
	}
	f := &Filter{threshold: threshold, capacity: capacity}
	if threshold > 1 {
		f.counts = make(map[uint64]int, capacity)
		f.order = make([]uint64, 0, capacity)
	}
	return f, nil
}

// Reset clears all counters and the tracked-row table, leaving the
// filter indistinguishable from a fresh NewFilter with the same
// parameters. Map buckets and the order ring's backing are retained.
func (f *Filter) Reset() {
	if f.counts != nil {
		clear(f.counts)
		f.order = f.order[:0]
		f.head = 0
	}
	f.Rejects = 0
}

// Allow records a slow-level hit on row and reports whether the row
// should be promoted now.
func (f *Filter) Allow(row uint64) bool {
	if f.threshold <= 1 {
		return true
	}
	if _, tracked := f.counts[row]; !tracked {
		if len(f.counts) >= f.capacity {
			// Recycle the oldest counter (hardware would recycle the
			// least-recently-used one).
			victim := f.order[f.head]
			f.order[f.head] = row
			f.head = (f.head + 1) % f.capacity
			delete(f.counts, victim)
		} else {
			f.order = append(f.order, row)
		}
		f.counts[row] = 0
	}
	n := f.counts[row] + 1
	if n >= f.threshold {
		f.counts[row] = 0 // promoted: counter resets
		return true
	}
	f.counts[row] = n
	f.Rejects++
	return false
}
