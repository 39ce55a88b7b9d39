package cache

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

// refCache is a trivially-correct fully-synchronous model of an
// LRU set-associative write-back cache used as the oracle.
type refCache struct {
	sets      map[uint64][]refLine // set -> lines in LRU order (front = LRU)
	assoc     int
	setMask   uint64
	blockBits uint
}

type refLine struct {
	block uint64
	dirty bool
}

func newRefCache(sets, assoc, blockSize int) *refCache {
	r := &refCache{
		sets: make(map[uint64][]refLine), assoc: assoc,
		setMask: uint64(sets - 1),
	}
	for b := blockSize; b > 1; b >>= 1 {
		r.blockBits++
	}
	return r
}

// access applies one demand access and reports whether it hit, plus the
// address of the dirty victim it wrote back (ok false: none).
func (r *refCache) access(addr uint64, write bool) (hit bool, wb uint64, ok bool) {
	block := addr >> r.blockBits << r.blockBits
	set := (block >> r.blockBits) & r.setMask
	lst := r.sets[set]
	for i, ln := range lst {
		if ln.block == block {
			// refresh to MRU
			ln.dirty = ln.dirty || write
			r.sets[set] = append(append(append([]refLine{}, lst[:i]...), lst[i+1:]...), ln)
			return true, 0, false
		}
	}
	if len(lst) == r.assoc {
		wb, ok = lst[0].block, lst[0].dirty
		lst = lst[1:]
	}
	r.sets[set] = append(lst, refLine{block: block, dirty: write})
	return false, wb, ok
}

// TestCacheMatchesReferenceModel drives random synchronous read/write
// sequences through the simulated cache and the oracle. Per access it
// compares the hit/miss verdict, the fill read a miss sends down, and
// the writeback addresses that reach the backend. Shapes cover
// associativity 1, 2 and 8 with 64-byte and 1-byte blocks (where every
// tag bit is a real address bit), and every sequence starts with a
// store to block 0. Each shape also runs with its addresses in the top
// blocks of the level's 32-bit tag range, where a writeback address is
// rebuilt from the highest tag bits, and with the LRU clock moved a
// few ticks below the stamp limit every 8 accesses, so any sequence of
// five or more accesses crosses a renormalization. (Accesses are fully
// serialized so MSHR effects do not apply.)
func TestCacheMatchesReferenceModel(t *testing.T) {
	shapes := []struct{ sets, assoc, blockSize int }{
		{4, 1, 64}, {4, 2, 64}, {2, 8, 64},
		{4, 1, 1}, {4, 2, 1}, {2, 8, 1},
	}
	variants := []struct {
		name     string
		top      bool // addresses just below the level's AddressLimit
		nearWrap bool // clock moved near the stamp limit every 8 accesses
	}{
		{"low", false, false}, {"tag-top", true, false},
		{"clock-wrap", false, true}, {"tag-top clock-wrap", true, true},
	}
	for _, sh := range shapes {
		for _, vr := range variants {
			check := func(seq []uint16) bool {
				eng := sim.NewEngine()
				be := &backend{eng: eng, delay: 5}
				cfg := Config{
					Name: "prop", SizeBytes: sh.sets * sh.assoc * sh.blockSize, Assoc: sh.assoc,
					BlockSize: sh.blockSize, Latency: 1, MSHRs: 8,
				}
				c, err := New(cfg, eng, be, 0)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefCache(sh.sets, sh.assoc, sh.blockSize)
				// Three times as many blocks as lines, so sets conflict; the
				// high bits pick a write and an offset within the block.
				blocks := uint64(3 * sh.sets * sh.assoc)
				bs := uint64(sh.blockSize)
				var base uint64
				if vr.top {
					base = cfg.AddressLimit() - blocks*bs
				}
				wraps := 0
				for i, v := range append([]uint16{0x8000}, seq...) {
					if vr.nearWrap && i%8 == 0 {
						nearStampLimit(c)
					}
					addr := base + uint64(v&0xff)%blocks*bs + uint64(v>>8&0x3f)%bs
					write := v&0x8000 != 0
					reads, writes := len(be.reads), len(be.writes)
					hitsBefore := c.Stats.Hits
					tickBefore := c.lruTick
					done := false
					c.Access(&mem.Request{Addr: addr, Write: write, Core: 0, Done: func() { done = true }})
					eng.Run()
					if c.lruTick < tickBefore {
						wraps++
					}
					if !done {
						t.Logf("%+v %s access %d (addr %#x) never completed", sh, vr.name, i, addr)
						return false
					}
					hit, wb, wbOK := ref.access(addr, write)
					if gotHit := c.Stats.Hits > hitsBefore; gotHit != hit {
						t.Logf("%+v %s access %d (addr %#x write %v): hit %v, oracle %v", sh, vr.name, i, addr, write, gotHit, hit)
						return false
					}
					wantReads := []uint64{}
					if !hit {
						wantReads = append(wantReads, addr/bs*bs)
					}
					if fmt.Sprint(be.reads[reads:]) != fmt.Sprint(wantReads) {
						t.Logf("%+v %s access %d (addr %#x): fill reads %#x, oracle %#x", sh, vr.name, i, addr, be.reads[reads:], wantReads)
						return false
					}
					wantWrites := []uint64{}
					if wbOK {
						wantWrites = append(wantWrites, wb)
					}
					if fmt.Sprint(be.writes[writes:]) != fmt.Sprint(wantWrites) {
						t.Logf("%+v %s access %d (addr %#x): writebacks %#x, oracle %#x", sh, vr.name, i, addr, be.writes[writes:], wantWrites)
						return false
					}
				}
				// Each access ticks at least once, so from 4 ticks below
				// the limit a fifth access finds the clock wrapped.
				if vr.nearWrap && len(seq) >= 4 && wraps == 0 {
					t.Logf("%+v %s: the clock never renormalized", sh, vr.name)
					return false
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatalf("%+v %s: %v", sh, vr.name, err)
			}
		}
	}
}

// nearStampLimit is the test hook that moves c's LRU clock to 4 ticks
// below the stamp limit. It only ever moves the clock forward: a clock
// set below a resident stamp would reorder that line's set.
func nearStampLimit(c *Cache) { c.lruTick = max(c.lruTick, maxTick-4) }

// TestCacheNeverLosesRequests floods the cache with random concurrent
// accesses and checks that every Done fires exactly once.
func TestCacheNeverLosesRequests(t *testing.T) {
	check := func(seq []uint16, writes []bool) bool {
		eng := sim.NewEngine()
		be := &backend{eng: eng, delay: 50}
		c, err := New(Config{
			Name: "flood", SizeBytes: 1 << 10, Assoc: 2,
			BlockSize: 64, Latency: 2, MSHRs: 3,
		}, eng, be, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := len(seq)
		done := 0
		for i, v := range seq {
			w := i < len(writes) && writes[i]
			c.Access(&mem.Request{Addr: uint64(v) << 4, Write: w, Core: 0, Done: func() { done++ }})
		}
		eng.Run()
		return done == want && c.OutstandingMisses() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPendingHitCrossesStampLimit covers the one tick the serialized
// reference test cannot reach: a queued miss whose block was filled
// while it waited for an MSHR hits in drainPending. With one MSHR,
// block A's two requests queue behind C's fill; A's fill installs it
// on the last tick a stamp holds, and the second request's hit must
// renormalize before it ticks, leaving A the set's newest, dirty line.
func TestPendingHitCrossesStampLimit(t *testing.T) {
	c, _, eng := newTestCache(t, 4, 2, 1)
	c.lruTick = maxTick - 2
	const blockC, blockA = 0x0, 0x1000 // set 0 of 32
	for _, r := range []*mem.Request{
		{Addr: blockC, Done: func() {}},
		{Addr: blockA, Done: func() {}},
		{Addr: blockA, Write: true, Done: func() {}},
	} {
		c.Access(r)
	}
	eng.Run()
	if c.lruTick >= maxTick-2 {
		t.Fatalf("clock at %d: the pending hit did not renormalize", c.lruTick)
	}
	a := c.find(blockA)
	if a == nil || a.stamp&dirty == 0 {
		t.Fatalf("block A: line %+v, want it resident and dirty", a)
	}
	for _, ln := range c.set(blockA) {
		if ln.stamp > a.stamp {
			t.Fatalf("block A's stamp %d is not its set's newest (%+v)", a.stamp, c.set(blockA))
		}
	}
}
