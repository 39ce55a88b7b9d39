package dram

import (
	"testing"

	"repro/internal/sim"
)

// The Earliest* accessors promise, for state frozen at query time t:
// Can*(Earliest*(t)) holds, and Can*(Earliest*(t)-1) does not (Earliest
// is the exact threshold, not merely a lower bound). TestEarliestWalk
// drives a channel through randomized command sequences and asserts
// both directions of that contract at every step for every accessor,
// including across refresh windows and both migration forms
// (idle-start, and active-start with its lazily-expiring open row).

// checkEdge asserts the threshold property for one accessor/predicate
// pair: can(e) must hold and can(e-1) must not.
func checkEdge(t *testing.T, name string, step int, e sim.Time, can func(sim.Time) bool) {
	t.Helper()
	if e == Never {
		return
	}
	if !can(e) {
		t.Fatalf("step %d: %s: Can at Earliest=%d is false", step, name, e)
	}
	if e > 0 && can(e-1) {
		t.Fatalf("step %d: %s: Can at Earliest-1=%d is true", step, name, e-1)
	}
}

func TestEarliestWalk(t *testing.T) {
	for _, migLat := range []sim.Time{0, ns(146.25)} {
		for seed := uint64(1); seed <= 4; seed++ {
			earliestWalk(t, seed, migLat)
		}
	}
}

func earliestWalk(t *testing.T, seed uint64, migLat sim.Time) {
	d := testDevice(t, migLat)
	ch := d.Channel(0)
	rng := sim.NewRNG(seed)
	now := sim.Time(0)
	const banks = 4

	// candidate is one issuable command at its earliest legal instant.
	type candidate struct {
		at    sim.Time
		can   func(at sim.Time) bool
		issue func(at sim.Time)
	}

	for step := 0; step < 400; step++ {
		var cands []candidate
		for bk := 0; bk < banks; bk++ {
			bk := bk
			b := ch.Rank(0).Bank(bk)
			cls := RowClass(rng.Intn(2))
			row := rng.Intn(64)
			// srcRow must name the open row for an active-start migration
			// to ever become legal; from idle any row migrates.
			srcRow := row
			if b.HasOpenRow() {
				srcRow = b.OpenRow()
			}

			eA := ch.EarliestActivate(now, 0, bk, cls)
			eR := ch.EarliestRead(now, 0, bk)
			eW := ch.EarliestWrite(now, 0, bk)
			eP := ch.EarliestPrecharge(now, 0, bk)
			eM := ch.EarliestMigrate(now, 0, bk, srcRow)

			// Probe order matters: the Can* predicates resolve lazy
			// migration expiry as a side effect, and ACT/PRE/MIG horizons
			// sit at or beyond busyUntil — probing them on a migOpen bank
			// closes the row that the RD horizon (which ends at busyUntil)
			// was computed against. Column probes first, row probes after.
			checkEdge(t, "RD", step, eR, func(at sim.Time) bool { return ch.CanRead(at, 0, bk) })
			checkEdge(t, "WR", step, eW, func(at sim.Time) bool { return ch.CanWrite(at, 0, bk) })
			checkEdge(t, "ACT", step, eA, func(at sim.Time) bool { return ch.CanActivate(at, 0, bk, cls) })
			checkEdge(t, "PRE", step, eP, func(at sim.Time) bool { return ch.CanPrecharge(at, 0, bk) })
			checkEdge(t, "MIG", step, eM, func(at sim.Time) bool { return ch.CanMigrate(at, 0, bk, srcRow) })

			if eA != Never {
				cands = append(cands, candidate{eA,
					func(at sim.Time) bool { return ch.CanActivate(at, 0, bk, cls) },
					func(at sim.Time) { ch.Activate(at, 0, bk, row, cls) }})
			}
			if eR != Never {
				cands = append(cands, candidate{eR,
					func(at sim.Time) bool { return ch.CanRead(at, 0, bk) },
					func(at sim.Time) { ch.Read(at, 0, bk) }})
			}
			if eW != Never {
				cands = append(cands, candidate{eW,
					func(at sim.Time) bool { return ch.CanWrite(at, 0, bk) },
					func(at sim.Time) { ch.Write(at, 0, bk) }})
			}
			if eP != Never {
				cands = append(cands, candidate{eP,
					func(at sim.Time) bool { return ch.CanPrecharge(at, 0, bk) },
					func(at sim.Time) { ch.Precharge(at, 0, bk) }})
			}
			if eM != Never && migLat > 0 && rng.Intn(4) == 0 {
				cands = append(cands, candidate{eM,
					func(at sim.Time) bool { return ch.CanMigrate(at, 0, bk, srcRow) },
					func(at sim.Time) { ch.Migrate(at, 0, bk, srcRow) }})
			}
		}
		eF := ch.EarliestRefresh(now, 0)
		checkEdge(t, "REF", step, eF, func(at sim.Time) bool { return ch.CanRefresh(at, 0) })
		if eF != Never && rng.Intn(8) == 0 {
			cands = append(cands, candidate{eF,
				func(at sim.Time) bool { return ch.CanRefresh(at, 0) },
				func(at sim.Time) { ch.Refresh(at, 0) }})
		}

		if len(cands) == 0 {
			// Every horizon is Never from the frozen state (e.g. mid-swap
			// everywhere): advance past the busy windows and continue.
			now += ns(200)
			continue
		}
		c := cands[rng.Intn(len(cands))]
		at := c.at
		if at < now {
			at = now
		}
		// Occasionally issue a little after the threshold instead of
		// exactly on it, like a controller that had other work first —
		// but only if the command is still legal there (a migration-held
		// row expires out from under late reads).
		if j := at + sim.Time(rng.Intn(5000)); rng.Intn(3) == 0 && c.can(j) {
			at = j
		}
		if !c.can(at) {
			// The earliest instant predates now and the state has since
			// moved on (e.g. the open row lazily expired); skip the step.
			now += ns(5)
			continue
		}
		c.issue(at)
		now = at
	}
}
