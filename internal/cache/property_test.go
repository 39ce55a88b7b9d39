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
// store to block 0. (Accesses are fully serialized so MSHR effects do
// not apply.)
func TestCacheMatchesReferenceModel(t *testing.T) {
	shapes := []struct{ sets, assoc, blockSize int }{
		{4, 1, 64}, {4, 2, 64}, {2, 8, 64},
		{4, 1, 1}, {4, 2, 1}, {2, 8, 1},
	}
	for _, sh := range shapes {
		check := func(seq []uint16) bool {
			eng := sim.NewEngine()
			be := &backend{eng: eng, delay: 5}
			c, err := New(Config{
				Name: "prop", SizeBytes: sh.sets * sh.assoc * sh.blockSize, Assoc: sh.assoc,
				BlockSize: sh.blockSize, Latency: 1, MSHRs: 8,
			}, eng, be, 0)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefCache(sh.sets, sh.assoc, sh.blockSize)
			// Three times as many blocks as lines, so sets conflict; the
			// high bits pick a write and an offset within the block.
			blocks := uint64(3 * sh.sets * sh.assoc)
			for i, v := range append([]uint16{0x8000}, seq...) {
				bs := uint64(sh.blockSize)
				addr := uint64(v&0xff)%blocks*bs + uint64(v>>8&0x3f)%bs
				write := v&0x8000 != 0
				reads, writes := len(be.reads), len(be.writes)
				hitsBefore := c.Stats.Hits
				done := false
				c.Access(&mem.Request{Addr: addr, Write: write, Core: 0, Done: func() { done = true }})
				eng.Run()
				if !done {
					t.Logf("%+v access %d (addr %#x) never completed", sh, i, addr)
					return false
				}
				hit, wb, wbOK := ref.access(addr, write)
				if gotHit := c.Stats.Hits > hitsBefore; gotHit != hit {
					t.Logf("%+v access %d (addr %#x write %v): hit %v, oracle %v", sh, i, addr, write, gotHit, hit)
					return false
				}
				wantReads := []uint64{}
				if !hit {
					wantReads = append(wantReads, addr/bs*bs)
				}
				if fmt.Sprint(be.reads[reads:]) != fmt.Sprint(wantReads) {
					t.Logf("%+v access %d (addr %#x): fill reads %#x, oracle %#x", sh, i, addr, be.reads[reads:], wantReads)
					return false
				}
				wantWrites := []uint64{}
				if wbOK {
					wantWrites = append(wantWrites, wb)
				}
				if fmt.Sprint(be.writes[writes:]) != fmt.Sprint(wantWrites) {
					t.Logf("%+v access %d (addr %#x): writebacks %#x, oracle %#x", sh, i, addr, be.writes[writes:], wantWrites)
					return false
				}
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("%+v: %v", sh, err)
		}
	}
}

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
