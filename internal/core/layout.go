// Package core implements the paper's primary contribution: the DAS-DRAM
// management mechanism. It sits between the last-level cache and the
// memory controller and provides
//
//   - the fast/slow level layout (migration groups, fast-slot ratio),
//   - exclusive-cache address translation backed by an in-DRAM
//     translation table, an on-controller tag cache, and the LLC,
//   - promotion triggering with optional filtering thresholds,
//   - replacement policies for fast-level victims, and
//   - migration scheduling against the controller's bank-occupying
//     migration operation.
//
// The same type also drives the comparison designs of Section 7
// (Standard, SAS-DRAM, CHARM, DAS-DRAM FM, FS-DRAM) so every experiment
// runs through one code path.
package core

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/sim"
)

// TableReserveBytes returns the memory reserved at the top of the
// physical address space for the in-DRAM translation table: one byte per
// logical row (Section 5.2's one-byte entries), rounded up to whole rows.
func TableReserveBytes(geom dram.Geometry) uint64 {
	totalRows := geom.TotalRows()
	rowBytes := geom.RowBytes()
	return (totalRows + rowBytes - 1) / rowBytes * rowBytes
}

// Layout describes how each bank's rows are partitioned into migration
// groups and fast/slow physical slots.
type Layout struct {
	geom      dram.Geometry
	groupSize int // logical rows per migration group
	fastSlots int // fast physical slots per group
}

// NewLayout validates and builds a layout. fastDenom is the fast-level
// capacity ratio denominator (8 means 1/8 of rows are fast).
func NewLayout(geom dram.Geometry, groupSize, fastDenom int) (*Layout, error) {
	if groupSize <= 0 || groupSize > 256 {
		return nil, fmt.Errorf("core: group size must be in 1..256 (one-byte table entries), got %d", groupSize)
	}
	if fastDenom <= 1 {
		return nil, fmt.Errorf("core: fast denominator must exceed 1, got %d", fastDenom)
	}
	if groupSize%fastDenom != 0 {
		return nil, fmt.Errorf("core: group size %d not divisible by fast denominator %d", groupSize, fastDenom)
	}
	if geom.Rows%groupSize != 0 {
		return nil, fmt.Errorf("core: rows per bank %d not divisible by group size %d", geom.Rows, groupSize)
	}
	return &Layout{geom: geom, groupSize: groupSize, fastSlots: groupSize / fastDenom}, nil
}

// GroupSize returns logical rows per group.
func (l *Layout) GroupSize() int { return l.groupSize }

// FastSlots returns fast slots per group.
func (l *Layout) FastSlots() int { return l.fastSlots }

// GroupsPerBank returns migration groups per bank.
func (l *Layout) GroupsPerBank() int { return l.geom.Rows / l.groupSize }

// TotalGroups returns migration groups across the system.
func (l *Layout) TotalGroups() uint64 {
	return uint64(l.geom.TotalBanks()) * uint64(l.GroupsPerBank())
}

// GroupOf returns the global group id and the slot index of a global
// logical row.
func (l *Layout) GroupOf(rowID uint64) (group uint64, slot int) {
	return rowID / uint64(l.groupSize), int(rowID % uint64(l.groupSize))
}

// RowOf reconstructs the global row id of (group, slot).
func (l *Layout) RowOf(group uint64, slot int) uint64 {
	return group*uint64(l.groupSize) + uint64(slot)
}

// SlotIsFast reports whether a physical slot index is a fast-subarray
// slot.
func (l *Layout) SlotIsFast(slot int) bool { return slot < l.fastSlots }

// group is the dynamic translation state of one migration group: a
// permutation between logical slots and physical slots.
type group struct {
	perm []uint8 // logical slot -> physical slot
	inv  []uint8 // physical slot -> logical slot
	// lastUse holds the recency stamp of each fast physical slot for LRU
	// replacement.
	lastUse []sim.Time
	// seq is the sequential-replacement cursor.
	seq int
	// migrating blocks concurrent promotions within the group.
	migrating bool

	// Degradation state (fault handling; all zero on a healthy device).
	//
	// fenced marks a group whose fast slots are all weak: it degrades to
	// slow-only service and never receives a promotion. fencedKnown
	// makes the (injector-queried) decision lazy but computed once.
	fenced, fencedKnown bool
	// pinned marks logical slots whose migrations exhausted their
	// retries; a pinned row stays in the slow level permanently.
	// Allocated on first pin.
	pinned []bool
	// retries counts failed attempts of the in-flight migration.
	retries int
}

// pin marks logical slot l as permanently slow.
func (g *group) pin(l int) {
	if g.pinned == nil {
		g.pinned = make([]bool, len(g.perm))
	}
	g.pinned[l] = true
}

// isPinned reports whether logical slot l is pinned slow.
func (g *group) isPinned(l int) bool { return g.pinned != nil && g.pinned[l] }

func newGroup(size, fastSlots int) *group {
	g := &group{
		perm:    make([]uint8, size),
		inv:     make([]uint8, size),
		lastUse: make([]sim.Time, fastSlots),
	}
	g.reset()
	return g
}

// reset restores the identity permutation and clears all replacement
// and degradation state. newGroup ends in it, and the Manager's reset
// freelist reuses groups through it.
func (g *group) reset() {
	for i := range g.perm {
		g.perm[i] = uint8(i)
		g.inv[i] = uint8(i)
	}
	for i := range g.lastUse {
		g.lastUse[i] = 0
	}
	g.seq = 0
	g.migrating = false
	g.fenced, g.fencedKnown = false, false
	g.pinned = nil
	g.retries = 0
}

// swap exchanges the physical slots of logical rows a and b.
func (g *group) swap(a, b int) {
	pa, pb := g.perm[a], g.perm[b]
	g.perm[a], g.perm[b] = pb, pa
	g.inv[pa], g.inv[pb] = uint8(b), uint8(a)
}
