package dram

import (
	"testing"

	"repro/internal/sim"
)

// The Earliest* accessors promise, for state frozen at query time t:
// Can*(Earliest*(t)) holds, and Can*(Earliest*(t)-1) does not (Earliest
// is the exact threshold, not merely a lower bound). FuzzEarliestWalk
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

// FuzzEarliestWalk runs one walk per input: the fuzzer picks the walk's
// seed, the migration latency in picoseconds (0 leaves migrations out)
// and the number of steps (capped at 2000 to keep each input fast). The
// seed corpus is seeds 1-4, each without migrations and with Table 1's
// 146.25 ns swap, over 400 steps.
func FuzzEarliestWalk(f *testing.F) {
	for _, migLat := range []sim.Time{0, ns(146.25)} {
		for seed := uint64(1); seed <= 4; seed++ {
			f.Add(seed, uint32(migLat), uint16(400))
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, migLat uint32, steps uint16) {
		earliestWalk(t, seed, sim.Time(migLat), min(int(steps), 2000))
	})
}

func earliestWalk(t *testing.T, seed uint64, migLat sim.Time, steps int) {
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

	for step := 0; step < steps; step++ {
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

// TestProbesKeepLazyExpiryParity pins which queries resolve the open row
// of an active-start migration whose swap has ended. No Earliest* query
// does; a Can* probe does once the command's rank-level check passes,
// and not before, and CanRefresh resolves banks in order only up to the
// first bank that blocks (DESIGN.md §5.2, "Lazy-expiry parity").
// Without it only the golden command digests would notice a probe
// closing the row early.
func TestProbesKeepLazyExpiryParity(t *testing.T) {
	d := testDevice(t, ns(146.25))
	ch := d.Channel(0)
	r := ch.Rank(0)
	p := d.SlowParams()
	// Bank 3 swaps its open row 7 out; bank 1 holds a plain open row.
	ch.Activate(0, 0, 3, 7, RowSlow)
	ch.Activate(p.Duration(p.TRRD), 0, 1, 3, RowSlow)
	end := ch.Migrate(p.Duration(p.TRAS), 0, 3, 7)
	// A write on bank 1 just before the swap ends holds the rank's tWTR
	// window past end, and an ACT on bank 2 just before end holds tRRD
	// past it.
	wr, act := end-ns(10), end-ns(2.5)
	if !ch.CanWrite(wr, 0, 1) || !ch.CanActivate(act, 0, 2, RowSlow) {
		t.Fatal("setup command refused")
	}
	ch.Write(wr, 0, 1)
	ch.Activate(act, 0, 2, 5, RowSlow)
	b := r.Bank(3)
	open := func(what string) {
		t.Helper()
		if !b.HasOpenRow() {
			t.Fatalf("%s closed the ended migration's row", what)
		}
	}
	open("the setup")

	for _, at := range []sim.Time{end, end + ns(100)} {
		ch.EarliestActivate(at, 0, 3, RowSlow)
		ch.EarliestRead(at, 0, 3)
		ch.EarliestWrite(at, 0, 3)
		ch.EarliestPrecharge(at, 0, 3)
		ch.EarliestMigrate(at, 0, 3, 7)
		ch.EarliestRefresh(at, 0)
	}
	open("an Earliest* query")

	if r.earliestRead() <= end || ch.CanRead(end, 0, 3) {
		t.Fatal("tWTR does not refuse the RD at the swap's end")
	}
	open("a CanRead refused by tWTR")
	if r.earliestActivate(p.Duration(p.TFAW)) <= end || ch.CanActivate(end, 0, 3, RowSlow) {
		t.Fatal("tRRD does not refuse the ACT at the swap's end")
	}
	open("a CanActivate refused by tRRD")
	if ch.CanRefresh(end, 0) {
		t.Fatal("REF allowed with bank 1's row open")
	}
	open("a CanRefresh stopped by bank 1")

	if ch.CanPrecharge(end, 0, 3) {
		t.Fatal("PRE allowed on a bank the swap left precharged")
	}
	if b.HasOpenRow() {
		t.Fatal("an unrefused CanPrecharge left the ended migration's row open")
	}
}
