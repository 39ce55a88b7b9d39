package core

import (
	"fmt"
)

// tagEntryBytes is the modeled SRAM cost of one cached translation
// entry: the one-byte in-group mapping (Section 5.2's migration-group
// entries) plus roughly one byte of amortized tag/valid overhead.
const tagEntryBytes = 2

// TagCache is the on-controller translation cache of Section 5.2: a
// small set-associative SRAM holding per-row translation entries,
// primarily those of fast-level rows (entries are inserted on lookup
// fetches and refreshed on every promotion commit). A hit costs no extra
// latency because the lookup proceeds in parallel with the (already
// failed) LLC data lookup; a miss fetches the entry's table block
// through the LLC and, if absent there, from DRAM.
type TagCache struct {
	lines   []tagLine // sets × assoc, way w of set s at s*assoc + w
	assoc   int
	setMask uint64
	tick    uint64

	Lookups uint64
	Hits    uint64
}

// tagLine is one cached entry in 16 bytes. The recency clock is bumped
// before every use, so a valid entry's stamp is at least 1 and stamp 0
// marks an invalid way.
type tagLine struct {
	row uint64 // global logical row id
	lru uint64 // recency stamp; 0 = invalid
}

// tagSets returns the entry count of a tag cache of capacityBytes and
// its associativity (assoc, capped at the entry count), or an error if
// the entries cannot form such sets.
func tagSets(capacityBytes, assoc int) (entries, ways int, err error) {
	if capacityBytes <= 0 || assoc <= 0 {
		return 0, 0, fmt.Errorf("core: tag cache capacity and associativity must be positive")
	}
	entries = capacityBytes / tagEntryBytes
	ways = min(assoc, entries)
	if entries == 0 || entries%ways != 0 {
		return 0, 0, fmt.Errorf("core: tag cache of %d B cannot form %d-way sets", capacityBytes, ways)
	}
	return entries, ways, nil
}

// NewTagCache builds a cache of capacityBytes with the given
// associativity over per-row entries.
func NewTagCache(capacityBytes, assoc int) (*TagCache, error) {
	entries, assoc, err := tagSets(capacityBytes, assoc)
	if err != nil {
		return nil, err
	}
	nsets := entries / assoc
	// Round the set count down to a power of two so the index is a mask
	// (hardware does the same; a little capacity is lost to rounding).
	for nsets&(nsets-1) != 0 {
		nsets &= nsets - 1
	}
	return &TagCache{
		lines:   make([]tagLine, nsets*assoc),
		assoc:   assoc,
		setMask: uint64(nsets - 1),
	}, nil
}

// Entries returns the modeled entry capacity.
func (tc *TagCache) Entries() int { return len(tc.lines) }

// set returns the ways of row's set.
func (tc *TagCache) set(row uint64) []tagLine {
	i := int(tc.index(row)) * tc.assoc
	return tc.lines[i : i+tc.assoc]
}

// Lookup probes for row's entry and reports a hit, refreshing recency.
func (tc *TagCache) Lookup(row uint64) bool {
	tc.Lookups++
	set := tc.set(row)
	for i := range set {
		if set[i].lru != 0 && set[i].row == row {
			tc.tick++
			set[i].lru = tc.tick
			tc.Hits++
			return true
		}
	}
	return false
}

// index spreads row ids across sets (rows are scattered, so low bits
// suffice after mixing).
func (tc *TagCache) index(row uint64) uint64 {
	row ^= row >> 17
	row *= 0x9E3779B97F4A7C15
	return (row >> 16) & tc.setMask
}

// Insert installs row's entry: in the way that already holds row if
// one does, else in the first invalid way, else over the first
// least-recently-used way. An invalid way's stamp is 0, below every
// valid one, so the least-stamp scan finds it. A set therefore never
// holds two copies of a row. (Evicted entries need no writeback: the
// in-DRAM table is updated in place on every migration commit.)
func (tc *TagCache) Insert(row uint64) {
	set := tc.set(row)
	victim := 0
	for i := range set {
		if set[i].lru != 0 && set[i].row == row {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	tc.tick++
	set[victim] = tagLine{row: row, lru: tc.tick}
}

// Invalidate drops row's entry if present (e.g. on a detected parity
// corruption) and reports whether one existed.
func (tc *TagCache) Invalidate(row uint64) bool {
	set := tc.set(row)
	for i := range set {
		if set[i].lru != 0 && set[i].row == row {
			set[i] = tagLine{}
			return true
		}
	}
	return false
}

// Contains probes for row without touching recency or the hit/lookup
// counters (diagnostics and invariant checks).
func (tc *TagCache) Contains(row uint64) bool {
	for _, ln := range tc.set(row) {
		if ln.lru != 0 && ln.row == row {
			return true
		}
	}
	return false
}

// VisitValid calls fn for every valid entry's row id (invariant
// checks). Iteration order is deterministic: set-major, way-minor.
func (tc *TagCache) VisitValid(fn func(row uint64)) {
	for _, ln := range tc.lines {
		if ln.lru != 0 {
			fn(ln.row)
		}
	}
}

// Reset invalidates every entry and rewinds the recency clock and
// counters, leaving the cache indistinguishable from a fresh
// NewTagCache of the same shape. The entry array is retained.
func (tc *TagCache) Reset() {
	clear(tc.lines)
	tc.tick = 0
	tc.Lookups, tc.Hits = 0, 0
}
