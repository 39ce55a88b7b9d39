package dram

import (
	"repro/internal/sim"
)

// Never is the horizon value meaning "not until some other command
// changes the bank state first" (e.g. a RD on a precharged bank needs an
// ACT before any column timing matters). It is far beyond any simulated
// time, so callers can min-fold horizons without special cases.
const Never sim.Time = 1 << 62

// This file states once which timing constraints gate each command, as
// a horizon: for a bank state frozen at query time t, earliestX (and the
// Channel's EarliestX, which folds the bank, rank and data-bus terms) is
// the smallest t' at which command X may issue, or Never if none exists
// without an intervening state-changing command. The command mutators
// (bank.go, rank.go, channel.go) only record when each constraint ends.
// The controller's next-event scheduler sleeps until the min over these
// horizons instead of polling every cycle, and its dispatch asks
// Channel.CanX(t), which is a lazy-expiry probe followed by
// EarliestX(t) <= t (channel.go).
//
// The earliest* methods are PURE: they account for the lazy migration
// expiry (effState) but never resolve it; only the Can* probes do
// (lazyExpire). This is load-bearing for byte-identity with the polling
// scheduler: whether a bank's expired migration row has been observed
// closed is visible controller state (a request on a stale-open bank
// takes the conflict path instead of activating), and it advances only
// when a Can* probe touches the bank. The horizon fold queries banks the
// dispatch scan does not probe on the same tick (windowed writes while
// reads are pending, windows narrowed by starvation, migration-blocked
// banks), so a mutating horizon would resolve expiries earlier than the
// per-cycle poller and the command streams would drift apart.

// effState returns the bank's row-buffer state and migration-open flag
// as the lazy-expiry threshold defines them at time t, without resolving
// the transition: an active-start migration's open row closes once the
// swap has completed (the restore leaves the bank precharged).
func (b *Bank) effState(t sim.Time) (bankState, bool) {
	if b.migOpen && t >= b.busyUntil {
		return bankIdle, false
	}
	return b.state, b.migOpen
}

// lazyExpire resolves the transition effState describes. Banks are
// passive, so it happens on the next Can* probe that reaches the bank
// (see Channel.probe).
func (b *Bank) lazyExpire(t sim.Time) { b.state, b.migOpen = b.effState(t) }

// MigOpenEnd returns the instant an active-start migration on (rank,
// bank) completes and its open row lazily closes, or -1 if no such
// window is pending. Like the earliest* family it is a pure observation;
// the controller uses it to find the instants at which a per-cycle
// poller would first observe (and thereby resolve) the transition.
func (ch *Channel) MigOpenEnd(rank, bank int) sim.Time {
	b := ch.ranks[rank].banks[bank]
	if b.migOpen {
		return b.busyUntil
	}
	return -1
}

// earliestActivate returns the first time the bank accepts an ACT.
func (b *Bank) earliestActivate(t sim.Time) sim.Time {
	if st, mig := b.effState(t); st == bankActive && !mig {
		return Never // a PRE must close the row first
	}
	// Idle now, or migOpen expiring into idle at busyUntil; migrate()
	// already lifted nextActivate to at least busyUntil.
	return max(b.nextActivate, b.busyUntil)
}

// earliestPrecharge returns the first time the bank accepts a PRE. A
// migOpen bank is never precharged by the controller: the swap itself
// leaves it idle at busyUntil.
func (b *Bank) earliestPrecharge(t sim.Time) sim.Time {
	if st, mig := b.effState(t); st != bankActive || mig {
		return Never
	}
	return max(b.nextPrecharge, b.busyUntil)
}

// earliestMigrate returns the first time a swap of srcRow can start:
// straight out of the row buffer once srcRow's restore is complete (when
// it could be precharged), or from a precharged bank, which performs its
// own activations, once it could be activated.
func (b *Bank) earliestMigrate(t sim.Time, srcRow int) sim.Time {
	if st, mig := b.effState(t); st == bankActive && !mig {
		if b.openRow != srcRow {
			return Never // a PRE must evict the conflicting row first
		}
		return b.earliestPrecharge(t)
	}
	return b.earliestActivate(t)
}

// earliestRefresh returns the first time the bank stops blocking a REF:
// the end of its occupancy window once it is idle (or expiring into
// idle), or Never while it holds a plain open row (a PRE must close it).
func (b *Bank) earliestRefresh(t sim.Time) sim.Time {
	if st, mig := b.effState(t); st == bankActive && !mig {
		return Never
	}
	return b.busyUntil
}

// earliestActivate returns the first time the rank accepts an ACT (tRRD
// spacing, refresh window, tFAW over the last four ACTs).
func (r *Rank) earliestActivate(tFAW sim.Time) sim.Time {
	return max(r.nextAct, r.refreshBusyUntil, r.actWindow[r.actHead]+tFAW)
}

// earliestRead returns the first time the rank accepts a RD (tWTR,
// refresh window).
func (r *Rank) earliestRead() sim.Time { return max(r.nextReadAfterWr, r.refreshBusyUntil) }

// earliestBurst returns the first issue time whose data burst, starting
// lat after issue, clears the shared data bus for rank and direction dir:
// the previous burst's end plus the rank-switch (tRTR) and read/write
// turnaround penalties.
func (ch *Channel) earliestBurst(rank int, dir busDir, lat sim.Time) sim.Time {
	p := &ch.dev.slow
	h := ch.busBusyUntil - lat
	if ch.busRank >= 0 && ch.busRank != rank {
		h += p.Duration(p.TRTR)
	}
	if ch.busDirection != busNone && ch.busDirection != dir {
		h += p.Duration(2) // bus turnaround bubble
	}
	return h
}

// EarliestActivate returns the first time ACT(rank, bank) of class cls
// may issue given the state frozen at t, or Never if an intervening
// command (a PRE on the bank) is required first.
func (ch *Channel) EarliestActivate(t sim.Time, rank, bank int, cls RowClass) sim.Time {
	r := ch.ranks[rank]
	p := ch.params(cls)
	return max(r.banks[bank].earliestActivate(t), r.earliestActivate(p.Duration(p.TFAW)))
}

// EarliestRead returns the first time RD(rank, bank) may issue given the
// state frozen at t, or Never if the bank has no open row. Reads need no
// occupancy check: a migrating bank stays readable while its source row
// sits in the row buffer, the case the paper's migration circuit keeps
// servable, but that row closes at busyUntil, so a later horizon is
// Never too.
func (ch *Channel) EarliestRead(t sim.Time, rank, bank int) sim.Time {
	b := ch.ranks[rank].banks[bank]
	st, mig := b.effState(t)
	if st != bankActive {
		return Never // an ACT must open a row first
	}
	p := b.rowPar
	h := max(b.nextRead, ch.ranks[rank].earliestRead(), ch.earliestBurst(rank, busRead, p.Duration(p.CL)))
	if mig && h >= b.busyUntil {
		return Never
	}
	return h
}

// EarliestWrite returns the first time WR(rank, bank) may issue given
// the state frozen at t, or Never if the bank has no writable open row.
// Migrating row buffers never accept writes (the restore is in flight
// and a column write would be lost), and the swap leaves the bank
// precharged.
func (ch *Channel) EarliestWrite(t sim.Time, rank, bank int) sim.Time {
	b := ch.ranks[rank].banks[bank]
	if st, mig := b.effState(t); st != bankActive || mig {
		return Never
	}
	p := b.rowPar
	return max(b.nextWrite, ch.ranks[rank].refreshBusyUntil, ch.earliestBurst(rank, busWrite, p.Duration(p.CWL)))
}

// EarliestPrecharge returns the first time PRE(rank, bank) may issue
// given the state frozen at t, or Never if no row is open.
func (ch *Channel) EarliestPrecharge(t sim.Time, rank, bank int) sim.Time {
	return ch.ranks[rank].banks[bank].earliestPrecharge(t)
}

// EarliestMigrate returns the first time a migration of srcRow may start
// on (rank, bank) given the state frozen at t, or Never if a different
// open row must be precharged first.
func (ch *Channel) EarliestMigrate(t sim.Time, rank, bank, srcRow int) sim.Time {
	r := ch.ranks[rank]
	return max(r.banks[bank].earliestMigrate(t, srcRow), r.refreshBusyUntil)
}

// EarliestRefresh returns the first time REF(rank) may issue given the
// state frozen at t: the rank's tRFC window over and no bank blocking,
// or Never while any bank holds a plain open row.
func (ch *Channel) EarliestRefresh(t sim.Time, rank int) sim.Time {
	r := ch.ranks[rank]
	h := r.refreshBusyUntil
	for _, b := range r.banks {
		h = max(h, b.earliestRefresh(t))
	}
	return h
}
