package dram

import (
	"repro/internal/sim"
)

// Rank models rank-level constraints shared by its banks: the tFAW
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

// fawOK reports whether a fifth ACT at time t satisfies tFAW.
func (r *Rank) fawOK(t, tFAW sim.Time) bool {
	oldest := r.actWindow[r.actHead]
	return t >= oldest+tFAW
}

// recordAct pushes an ACT time into the tFAW window and applies tRRD.
func (r *Rank) recordAct(t, tRRD sim.Time) {
	r.actWindow[r.actHead] = t
	r.actHead = (r.actHead + 1) % len(r.actWindow)
	if next := t + tRRD; next > r.nextAct {
		r.nextAct = next
	}
}

// canActivate checks rank-level ACT constraints.
func (r *Rank) canActivate(t, tFAW sim.Time) bool {
	return t >= r.nextAct && t >= r.refreshBusyUntil && r.fawOK(t, tFAW)
}

// canRead checks rank-level RD constraints (tWTR, refresh).
func (r *Rank) canRead(t sim.Time) bool {
	return t >= r.nextReadAfterWr && t >= r.refreshBusyUntil
}

// canWrite checks rank-level WR constraints (refresh only).
func (r *Rank) canWrite(t sim.Time) bool {
	return t >= r.refreshBusyUntil
}

// noteWriteBurst applies tWTR after a write burst ending at end.
func (r *Rank) noteWriteBurst(end, tWTR sim.Time) {
	if next := end + tWTR; next > r.nextReadAfterWr {
		r.nextReadAfterWr = next
	}
}

// RefreshDue reports whether a refresh should be issued at or before t.
func (r *Rank) RefreshDue(t sim.Time) bool { return t >= r.nextRefreshDue }

// NextRefreshDue returns the next refresh deadline.
func (r *Rank) NextRefreshDue() sim.Time { return r.nextRefreshDue }

// canRefresh reports whether all banks are precharged and quiet at t.
func (r *Rank) canRefresh(t sim.Time) bool {
	if t < r.refreshBusyUntil {
		return false
	}
	for _, b := range r.banks {
		b.lazyExpire(t)
		if b.state != bankIdle || t < b.busyUntil {
			return false
		}
	}
	return true
}

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
