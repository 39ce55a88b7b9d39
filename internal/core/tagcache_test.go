package core

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func TestTagCacheHitAfterInsert(t *testing.T) {
	tc, err := NewTagCache(4<<10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tc.Lookup(42) {
		t.Fatal("hit on empty cache")
	}
	tc.Insert(42)
	if !tc.Lookup(42) {
		t.Fatal("miss after insert")
	}
	if tc.Lookups != 2 || tc.Hits != 1 {
		t.Fatalf("counters: %d lookups %d hits", tc.Lookups, tc.Hits)
	}
}

func TestTagCacheInsertIdempotent(t *testing.T) {
	tc, _ := NewTagCache(1<<10, 4)
	tc.Insert(7)
	tc.Insert(7)
	// Re-inserting must not consume a second way: fill the rest of the
	// set and make sure 7 still hits.
	if !tc.Lookup(7) {
		t.Fatal("row lost after double insert")
	}
}

func TestTagCacheCapacityEviction(t *testing.T) {
	tc, _ := NewTagCache(256, 2) // 128 entries
	n := tc.Entries()
	for row := uint64(0); row < uint64(4*n); row++ {
		tc.Insert(row)
	}
	hits := 0
	for row := uint64(0); row < uint64(4*n); row++ {
		if tc.Lookup(row) {
			hits++
		}
	}
	if hits > n {
		t.Fatalf("%d hits exceed capacity %d", hits, n)
	}
	if hits == 0 {
		t.Fatal("everything evicted; expected the most recent entries to survive")
	}
}

func TestTagCacheLRUWithinSet(t *testing.T) {
	tc, _ := NewTagCache(4<<10, 8)
	// Find rows mapping to one set by brute force.
	set0 := tc.index(0)
	var rows []uint64
	for r := uint64(0); len(rows) < 9; r++ {
		if tc.index(r) == set0 {
			rows = append(rows, r)
		}
	}
	for _, r := range rows[:8] {
		tc.Insert(r)
	}
	tc.Lookup(rows[0]) // refresh the oldest
	tc.Insert(rows[8]) // evicts rows[1], not rows[0]
	if !tc.Lookup(rows[0]) {
		t.Fatal("recently-used entry evicted")
	}
	if tc.Lookup(rows[1]) {
		t.Fatal("LRU entry survived")
	}
}

func TestTagCacheValidation(t *testing.T) {
	if _, err := NewTagCache(0, 8); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewTagCache(1024, 0); err == nil {
		t.Fatal("zero associativity accepted")
	}
	// Tiny caches clamp associativity rather than failing.
	tc, err := NewTagCache(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tc.Entries() == 0 {
		t.Fatal("tiny cache has no entries")
	}
}

func TestTagCacheNeverFalseHits(t *testing.T) {
	// Property: a row never inserted never hits.
	check := func(ins []uint16, probe uint16) bool {
		tc, _ := NewTagCache(1<<10, 4)
		inserted := make(map[uint64]bool)
		for _, r := range ins {
			tc.Insert(uint64(r))
			inserted[uint64(r)] = true
		}
		if !inserted[uint64(probe)] && tc.Lookup(uint64(probe)) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refTagCache is the nested tag cache the flat one replaced, kept as
// the oracle: one slice of ways per set and a valid flag per line.
type refTagCache struct {
	sets          [][]refTagLine
	setMask       uint64
	tick          uint64
	lookups, hits uint64
}

type refTagLine struct {
	row   uint64
	valid bool
	lru   uint64
}

func newRefTagCache(nsets, assoc int) *refTagCache {
	r := &refTagCache{sets: make([][]refTagLine, nsets), setMask: uint64(nsets - 1)}
	for i := range r.sets {
		r.sets[i] = make([]refTagLine, assoc)
	}
	return r
}

func (r *refTagCache) set(row uint64) []refTagLine {
	row ^= row >> 17
	row *= 0x9E3779B97F4A7C15
	return r.sets[(row>>16)&r.setMask]
}

func (r *refTagCache) lookup(row uint64) bool {
	r.lookups++
	set := r.set(row)
	for i := range set {
		if set[i].valid && set[i].row == row {
			r.tick++
			set[i].lru = r.tick
			r.hits++
			return true
		}
	}
	return false
}

func (r *refTagCache) insert(row uint64) {
	set := r.set(row)
	// The way holding row, else the first invalid way, else the first
	// least-recently-used way.
	victim := slices.IndexFunc(set, func(ln refTagLine) bool { return ln.valid && ln.row == row })
	if victim < 0 {
		victim = slices.IndexFunc(set, func(ln refTagLine) bool { return !ln.valid })
	}
	if victim < 0 {
		victim = 0
		for i := range set {
			if set[i].lru < set[victim].lru {
				victim = i
			}
		}
	}
	r.tick++
	set[victim] = refTagLine{row: row, valid: true, lru: r.tick}
}

func (r *refTagCache) invalidate(row uint64) bool {
	set := r.set(row)
	for i := range set {
		if set[i].valid && set[i].row == row {
			set[i] = refTagLine{}
			return true
		}
	}
	return false
}

// valid lists the valid rows set-major, way-minor, as VisitValid does.
func (r *refTagCache) valid() []uint64 {
	var rows []uint64
	for _, set := range r.sets {
		for _, ln := range set {
			if ln.valid {
				rows = append(rows, ln.row)
			}
		}
	}
	return rows
}

// tagCacheState lists tc's valid rows in VisitValid order.
func tagCacheState(tc *TagCache) []uint64 {
	var rows []uint64
	tc.VisitValid(func(row uint64) { rows = append(rows, row) })
	return rows
}

// duplicates counts the valid entries that repeat a row already valid
// earlier in the same set.
func duplicates(tc *TagCache) int {
	n := 0
	for s := 0; s < len(tc.lines); s += tc.assoc {
		seen := map[uint64]bool{}
		for _, ln := range tc.lines[s : s+tc.assoc] {
			if ln.lru != 0 {
				if seen[ln.row] {
					n++
				}
				seen[ln.row] = true
			}
		}
	}
	return n
}

// TestTagCacheMatchesReferenceModel runs random Lookup, Insert and
// Invalidate sequences through the flat tag cache and the nested
// oracle. After every operation it compares the result, the valid rows
// in set-major order, and the lookup and hit counters, and it checks
// that no set holds two copies of a row. The fixed case first builds
// the shape that once produced such a copy: an Invalidate hole ahead of
// a valid copy of the same row, which Insert must refresh in place
// rather than copy into the hole.
func TestTagCacheMatchesReferenceModel(t *testing.T) {
	const capacity, assoc = 64, 4 // 32 entries, 8 sets of 4 ways
	newPair := func() (*TagCache, *refTagCache) {
		tc, err := NewTagCache(capacity, assoc)
		if err != nil {
			t.Fatal(err)
		}
		return tc, newRefTagCache(tc.Entries()/assoc, assoc)
	}
	// apply runs op (kind in the top two bits, row below) on both and
	// reports the first difference.
	apply := func(tc *TagCache, ref *refTagCache, op uint16) string {
		row := uint64(op & 0x3fff)
		var got, want bool
		switch op >> 14 {
		case 0, 1:
			tc.Insert(row)
			ref.insert(row)
		case 2:
			got, want = tc.Lookup(row), ref.lookup(row)
		case 3:
			got, want = tc.Invalidate(row), ref.invalidate(row)
		}
		if got != want {
			return fmt.Sprintf("op %#x: result %v, oracle %v", op, got, want)
		}
		if g, w := tagCacheState(tc), ref.valid(); !slices.Equal(g, w) {
			return fmt.Sprintf("op %#x: valid rows %v, oracle %v", op, g, w)
		}
		if tc.Lookups != ref.lookups || tc.Hits != ref.hits {
			return fmt.Sprintf("op %#x: %d lookups %d hits, oracle %d and %d", op, tc.Lookups, tc.Hits, ref.lookups, ref.hits)
		}
		return ""
	}

	// Four rows of one set fill its ways in order; invalidating the
	// first leaves a hole ahead of the fourth, and re-inserting the
	// fourth must refresh its own way, so that invalidating it leaves
	// the next lookup a miss.
	tc, ref := newPair()
	var rows []uint16
	for r := uint16(0); len(rows) < assoc; r++ {
		if tc.index(uint64(r)) == tc.index(0) {
			rows = append(rows, r)
		}
	}
	ops := append(slices.Clone(rows), 3<<14|rows[0], rows[3], 2<<14|rows[3], 3<<14|rows[3], 2<<14|rows[3])
	for i, op := range ops {
		if diff := apply(tc, ref, op); diff != "" {
			t.Fatalf("hole case: %s", diff)
		}
		if n := duplicates(tc); n != 0 {
			t.Fatalf("hole case: op %d (%#x) left %d duplicate entries", i, op, n)
		}
	}
	if tc.Hits != 1 {
		t.Fatalf("hole case: %d lookup hits, want 1 (the lookup after the invalidate must miss)", tc.Hits)
	}

	check := func(seq []uint16) bool {
		tc, ref := newPair()
		for _, op := range seq {
			// Rows from a space twice the capacity, so sets conflict
			// and evict, yet a row is often still resident when it is
			// inserted again.
			op = op&0xc000 | op&0x3fff%(2*capacity/tagEntryBytes)
			if diff := apply(tc, ref, op); diff != "" {
				t.Log(diff)
				return false
			}
			if n := duplicates(tc); n != 0 {
				t.Logf("op %#x left %d duplicate entries", op, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
