package core

import (
	"cmp"
	"slices"

	"repro/internal/dram"
)

// RowProfile records per-row demand access counts, collected during a
// baseline (Standard) run. The static designs (SAS-DRAM, CHARM) consume
// it to pre-assign the hottest rows to the fast level, mirroring the
// paper's offline profiling of each workload.
//
// Global row ids are dense (Geometry.RowID), so the counts live in a
// flat slice grown on demand: the profiling pass records tens of
// millions of touches, and a map's hash-and-probe per touch dominated
// its cost.
type RowProfile struct {
	counts   []uint64 // indexed by global row id
	distinct int
}

// NewRowProfile returns an empty profile.
func NewRowProfile() *RowProfile {
	return &RowProfile{}
}

// RowProfileFromCounts returns the profile whose count for global row
// id r is counts[r]. The profile takes ownership of counts.
func RowProfileFromCounts(counts []uint64) *RowProfile {
	p := &RowProfile{counts: counts}
	for _, n := range counts {
		if n != 0 {
			p.distinct++
		}
	}
	return p
}

// Record adds one access to a global row id.
func (p *RowProfile) Record(rowID uint64) {
	if rowID >= uint64(len(p.counts)) {
		grown := make([]uint64, rowID+rowID/2+1)
		copy(grown, p.counts)
		p.counts = grown
	}
	if p.counts[rowID] == 0 {
		p.distinct++
	}
	p.counts[rowID]++
}

// Rows returns the number of distinct rows touched.
func (p *RowProfile) Rows() int { return p.distinct }

// Bytes returns the bytes the profile's counts retain.
func (p *RowProfile) Bytes() int64 { return int64(cap(p.counts)) * 8 }

// Count returns the recorded accesses of a row.
func (p *RowProfile) Count(rowID uint64) uint64 {
	if rowID >= uint64(len(p.counts)) {
		return 0
	}
	return p.counts[rowID]
}

// StaticAssignment marks which rows a static design pre-assigned to the
// fast level: one bit per global row id, so IsFast, which SAS and CHARM
// ask on every LLC miss, is a bit test.
type StaticAssignment struct {
	fast []uint64
	rows int
}

// IsFast reports whether a global row id was assigned to the fast level.
func (a *StaticAssignment) IsFast(rowID uint64) bool {
	if a == nil {
		return false
	}
	w := rowID >> 6
	return w < uint64(len(a.fast)) && a.fast[w]&(1<<(rowID&63)) != 0
}

// FastRows returns the number of assigned rows.
func (a *StaticAssignment) FastRows() int {
	if a == nil {
		return 0
	}
	return a.rows
}

// BuildStaticAssignment selects, within every bank, the hottest
// rows-per-bank/fastDenom rows of the profile, breaking count ties
// toward the lower row id. The per-bank constraint reflects that fast
// subarrays are distributed across banks: a bank's fast capacity cannot
// host another bank's rows. A bank's rows are one contiguous range of
// global row ids, so each bank is picked from its own slice of the
// profile.
func BuildStaticAssignment(p *RowProfile, geom dram.Geometry, fastDenom int) *StaticAssignment {
	perBankQuota := geom.Rows / fastDenom
	type rowCount struct {
		row   uint64
		count uint64
	}
	a := &StaticAssignment{fast: make([]uint64, (len(p.counts)+63)/64)}
	var touched []rowCount
	for lo := 0; lo < len(p.counts); lo += geom.Rows {
		touched = touched[:0]
		for row, count := range p.counts[lo:min(lo+geom.Rows, len(p.counts))] {
			if count != 0 {
				touched = append(touched, rowCount{uint64(lo + row), count})
			}
		}
		if len(touched) > perBankQuota {
			slices.SortFunc(touched, func(x, y rowCount) int {
				if c := cmp.Compare(y.count, x.count); c != 0 {
					return c
				}
				return cmp.Compare(x.row, y.row)
			})
			touched = touched[:perBankQuota]
		}
		for _, rc := range touched {
			a.fast[rc.row>>6] |= 1 << (rc.row & 63)
		}
		a.rows += len(touched)
	}
	return a
}
