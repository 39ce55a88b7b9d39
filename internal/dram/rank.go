package dram

import (
	"repro/internal/sim"
)

// Rank models the rank-level timing state shared by its banks: the tFAW
// four-activate window, tRRD activate spacing, write-to-read turnaround
// (tWTR), and refresh.
type Rank struct {
	banks []*Bank

	// actWindow holds the times of the last four ACTs for tFAW.
	actWindow [4]sim.Time
	actHead   int

	nextAct          sim.Time // tRRD: earliest next ACT to any bank
	nextReadAfterWr  sim.Time // tWTR: earliest RD after a write burst
	refreshBusyUntil sim.Time // tRFC window
	nextRefreshDue   sim.Time // when the next REF should be issued
}

// newRank allocates a rank and its banks; Device.Reset sets their state.
func newRank(banks int) *Rank {
	r := &Rank{banks: make([]*Bank, banks)}
	for i := range r.banks {
		r.banks[i] = &Bank{}
	}
	return r
}

// Bank returns bank i.
func (r *Rank) Bank(i int) *Bank { return r.banks[i] }

// Banks returns the number of banks.
func (r *Rank) Banks() int { return len(r.banks) }

// recordAct pushes an ACT time into the tFAW window and applies tRRD.
func (r *Rank) recordAct(t, tRRD sim.Time) {
	r.actWindow[r.actHead] = t
	r.actHead = (r.actHead + 1) % len(r.actWindow)
	if next := t + tRRD; next > r.nextAct {
		r.nextAct = next
	}
}

// noteWriteBurst applies tWTR after a write burst ending at end.
func (r *Rank) noteWriteBurst(end, tWTR sim.Time) {
	if next := end + tWTR; next > r.nextReadAfterWr {
		r.nextReadAfterWr = next
	}
}

// NextRefreshDue returns the next refresh deadline.
func (r *Rank) NextRefreshDue() sim.Time { return r.nextRefreshDue }

// refresh issues a REF at t, blocking the rank for tRFC and scheduling the
// next due time one tREFI later.
func (r *Rank) refresh(t, tRFC, tREFI sim.Time) {
	r.refreshBusyUntil = t + tRFC
	for _, b := range r.banks {
		b.blockUntil(r.refreshBusyUntil)
	}
	r.nextRefreshDue += tREFI
	if r.nextRefreshDue <= t {
		// We fell behind (e.g. long migration bursts); never schedule due
		// times in the past or refreshes pile up unboundedly.
		r.nextRefreshDue = t + tREFI
	}
}
