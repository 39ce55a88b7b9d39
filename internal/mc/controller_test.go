package mc

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/timing"
)

func newMC(t *testing.T, migLatNS float64) (*Controller, *sim.Engine, *dram.Device) {
	t.Helper()
	eng := sim.NewEngine()
	dev, err := dram.New(dram.Config{
		Geometry:         dram.Geometry{Channels: 1, Ranks: 1, Banks: 4, Rows: 128, Columns: 16, BlockSize: 64},
		Slow:             timing.DDR31600Slow(),
		Fast:             timing.DDR31600Fast(),
		MigrationLatency: sim.FromNS(migLatNS),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(DefaultConfig(), eng, dev, 2)
	if err != nil {
		t.Fatal(err)
	}
	return ctl, eng, dev
}

// readSync issues a read and steps until done, returning the service
// kind and the latency.
func readSync(t *testing.T, ctl *Controller, eng *sim.Engine, coord dram.Coord, cls dram.RowClass) (ServiceKind, sim.Time) {
	t.Helper()
	start := eng.Now()
	var kind ServiceKind
	done := false
	ctl.Enqueue(&Request{Coord: coord, Class: cls, Core: 0, Done: func(k ServiceKind) { kind = k; done = true }})
	for !done {
		if !eng.Step() {
			t.Fatal("engine drained before read completed")
		}
	}
	return kind, eng.Now() - start
}

func TestReadCompletesWithSaneLatency(t *testing.T) {
	ctl, eng, _ := newMC(t, 0)
	kind, lat := readSync(t, ctl, eng, dram.Coord{Row: 5}, dram.RowSlow)
	if kind != ServiceSlow {
		t.Fatalf("first read served %v, want slow", kind)
	}
	// ACT(13.75) + CL(13.75) + burst(5) = 32.5 ns plus scheduling grain.
	if lat < sim.FromNS(30) || lat > sim.FromNS(45) {
		t.Fatalf("cold read latency %v ns", lat.NS())
	}
}

func TestRowBufferHitFasterAndCounted(t *testing.T) {
	ctl, eng, _ := newMC(t, 0)
	_, cold := readSync(t, ctl, eng, dram.Coord{Row: 5}, dram.RowSlow)
	kind, hit := readSync(t, ctl, eng, dram.Coord{Row: 5, Column: 3}, dram.RowSlow)
	if kind != ServiceRowBuffer {
		t.Fatalf("row hit served %v", kind)
	}
	if hit >= cold {
		t.Fatalf("row hit (%v ns) not faster than cold (%v ns)", hit.NS(), cold.NS())
	}
	if ctl.Stats.ServedRowBuffer != 1 || ctl.Stats.ServedSlow != 1 {
		t.Fatalf("service counters: %+v", ctl.Stats)
	}
}

func TestFastClassUsesFastTiming(t *testing.T) {
	ctl, eng, _ := newMC(t, 0)
	_, slow := readSync(t, ctl, eng, dram.Coord{Bank: 0, Row: 5}, dram.RowSlow)
	kind, fast := readSync(t, ctl, eng, dram.Coord{Bank: 1, Row: 5}, dram.RowFast)
	if kind != ServiceFast {
		t.Fatalf("fast read served %v", kind)
	}
	if fast >= slow {
		t.Fatalf("fast open (%v) not faster than slow open (%v)", fast.NS(), slow.NS())
	}
}

func TestConflictPrechargesAndReopens(t *testing.T) {
	ctl, eng, _ := newMC(t, 0)
	readSync(t, ctl, eng, dram.Coord{Row: 5}, dram.RowSlow)
	kind, lat := readSync(t, ctl, eng, dram.Coord{Row: 9}, dram.RowSlow)
	if kind != ServiceSlow {
		t.Fatalf("conflict read served %v", kind)
	}
	// Must pay (residual tRAS +) tRP + tRCD + CL: well above a hit.
	if lat < sim.FromNS(40) {
		t.Fatalf("row conflict suspiciously fast: %v ns", lat.NS())
	}
}

func TestPostedWritesCompleteImmediately(t *testing.T) {
	ctl, eng, _ := newMC(t, 0)
	done := false
	ctl.Enqueue(&Request{Coord: dram.Coord{Row: 3}, Class: dram.RowSlow, Write: true, Core: 0,
		Done: func(ServiceKind) { done = true }})
	if !done {
		t.Fatal("write not posted")
	}
	// The write must still reach the device eventually.
	eng.RunUntil(eng.Now() + sim.FromNS(5000))
	if dev := ctl.Device().CollectStats(); dev.Writes != 1 {
		t.Fatalf("device writes = %d, want 1", dev.Writes)
	}
	if ctl.Stats.Writes != 1 {
		t.Fatalf("controller writes = %d", ctl.Stats.Writes)
	}
}

func TestWritesDrainOpportunistically(t *testing.T) {
	ctl, eng, dev := newMC(t, 0)
	for i := 0; i < 5; i++ {
		ctl.Enqueue(&Request{Coord: dram.Coord{Bank: i % 4, Row: i}, Class: dram.RowSlow, Write: true, Core: 0})
	}
	eng.RunUntil(eng.Now() + sim.FromNS(5000))
	if s := dev.CollectStats(); s.Writes != 5 {
		t.Fatalf("drained %d of 5 writes", s.Writes)
	}
}

func TestMigrationReservesDrainsAndCompletes(t *testing.T) {
	ctl, eng, dev := newMC(t, 146.25)
	// Open a row on bank 2, then request a migration there.
	readSync(t, ctl, eng, dram.Coord{Bank: 2, Row: 7}, dram.RowSlow)
	migDone := false
	ctl.Migrate(0, 0, 2, 9, func() { migDone = true })
	for !migDone {
		if !eng.Step() {
			t.Fatal("migration never completed")
		}
	}
	if s := dev.CollectStats(); s.Migrations != 1 {
		t.Fatal("device migration not issued")
	}
	// Bank usable again afterwards.
	readSync(t, ctl, eng, dram.Coord{Bank: 2, Row: 1}, dram.RowSlow)
}

func TestMigrationFromOpenSourceRowSkipsPrecharge(t *testing.T) {
	ctl, eng, dev := newMC(t, 146.25)
	readSync(t, ctl, eng, dram.Coord{Bank: 1, Row: 7}, dram.RowSlow)
	preBefore := dev.CollectStats().Precharges
	migDone := false
	// Source row 7 is the open row: active-start, no precharge needed.
	ctl.Migrate(0, 0, 1, 7, func() { migDone = true })
	for !migDone {
		if !eng.Step() {
			t.Fatal("migration never completed")
		}
	}
	if dev.CollectStats().Precharges != preBefore {
		t.Fatal("active-start migration issued a precharge")
	}
}

func TestReadsOnOtherBanksProceedDuringMigration(t *testing.T) {
	ctl, eng, _ := newMC(t, 5000) // long migration on bank 0
	readSync(t, ctl, eng, dram.Coord{Bank: 0, Row: 7}, dram.RowSlow)
	ctl.Migrate(0, 0, 0, 7, nil)
	// A read on bank 3 must complete long before the migration ends.
	_, lat := readSync(t, ctl, eng, dram.Coord{Bank: 3, Row: 1}, dram.RowSlow)
	if lat > sim.FromNS(500) {
		t.Fatalf("unrelated bank starved during migration: %v ns", lat.NS())
	}
}

func TestRefreshEventuallyIssued(t *testing.T) {
	ctl, eng, dev := newMC(t, 0)
	// Give the controller something to start its ticker, then run past
	// several tREFI periods.
	readSync(t, ctl, eng, dram.Coord{Row: 1}, dram.RowSlow)
	eng.RunUntil(eng.Now() + 3*sim.Time(7800)*sim.Nanosecond)
	if s := dev.CollectStats(); s.Refreshes < 2 {
		t.Fatalf("only %d refreshes after 3 tREFI", s.Refreshes)
	}
}

func TestPerCoreServiceAccounting(t *testing.T) {
	ctl, eng, _ := newMC(t, 0)
	readSync(t, ctl, eng, dram.Coord{Row: 1}, dram.RowSlow)
	if ctl.Stats.ServedSlow != 1 || ctl.Stats.ServedRowBuffer != 0 {
		t.Fatalf("core 0's row miss: %+v", ctl.Stats)
	}
	done := false
	ctl.Enqueue(&Request{Coord: dram.Coord{Row: 1, Column: 2}, Class: dram.RowSlow, Core: 1,
		Done: func(ServiceKind) { done = true }})
	for !done && eng.Step() {
	}
	if ctl.Stats.ServedSlow != 1 || ctl.Stats.ServedRowBuffer != 1 {
		t.Fatalf("core 1's row hit: %+v", ctl.Stats)
	}
}

// TestMetaTrafficSeparated: a translation (Meta) read reaches the
// device, whose tally counts it, but not the controller's demand Stats.
func TestMetaTrafficSeparated(t *testing.T) {
	ctl, eng, dev := newMC(t, 0)
	done := false
	ctl.Enqueue(&Request{Coord: dram.Coord{Row: 1}, Class: dram.RowSlow, Meta: true, Core: -1,
		Done: func(ServiceKind) { done = true }})
	for !done && eng.Step() {
	}
	if d := dev.CollectStats(); d.Reads != 1 || ctl.Stats.Reads != 0 || ctl.Stats.ServedSlow != 0 {
		t.Fatalf("meta accounting wrong: device %+v, controller %+v", d, ctl.Stats)
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	ctl, eng, _ := newMC(t, 0)
	// Open row 5.
	readSync(t, ctl, eng, dram.Coord{Row: 5}, dram.RowSlow)
	// Enqueue an older conflicting request and a younger row hit
	// back-to-back; the row hit should be served first (FR-FCFS).
	var order []int
	ctl.Enqueue(&Request{Coord: dram.Coord{Row: 9}, Class: dram.RowSlow, Core: 0,
		Done: func(ServiceKind) { order = append(order, 9) }})
	ctl.Enqueue(&Request{Coord: dram.Coord{Row: 5, Column: 7}, Class: dram.RowSlow, Core: 0,
		Done: func(ServiceKind) { order = append(order, 5) }})
	for len(order) < 2 {
		if !eng.Step() {
			t.Fatal("drained")
		}
	}
	if order[0] != 5 {
		t.Fatalf("service order %v, want row hit (5) first", order)
	}
}

func TestStarvationLimitBoundsReordering(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StarvationLimit = sim.FromNS(200)
	eng := sim.NewEngine()
	dev, _ := dram.New(dram.Config{
		Geometry: dram.Geometry{Channels: 1, Ranks: 1, Banks: 4, Rows: 128, Columns: 16, BlockSize: 64},
		Slow:     timing.DDR31600Slow(),
		Fast:     timing.DDR31600Fast(),
	})
	ctl, _ := New(cfg, eng, dev, 1)
	readSync(t, ctl, eng, dram.Coord{Row: 5}, dram.RowSlow)
	// One conflicting victim plus a stream of row hits that would starve
	// it forever without the limit.
	victimDone := false
	var victimAt sim.Time
	ctl.Enqueue(&Request{Coord: dram.Coord{Row: 9}, Class: dram.RowSlow, Core: 0,
		Done: func(ServiceKind) { victimDone = true; victimAt = eng.Now() }})
	hits := 0
	var feed func()
	feed = func() {
		if victimDone || hits > 200 {
			return
		}
		hits++
		ctl.Enqueue(&Request{Coord: dram.Coord{Row: 5, Column: hits % 16}, Class: dram.RowSlow, Core: 0,
			Done: func(ServiceKind) { feed() }})
	}
	feed()
	start := eng.Now()
	for !victimDone {
		if !eng.Step() {
			t.Fatal("drained")
		}
	}
	if victimAt-start > sim.FromNS(2000) {
		t.Fatalf("victim starved for %v ns despite limit", (victimAt - start).NS())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{WindowSize: 0, WriteHigh: 32, WriteLow: 8, StarvationLimit: 1},
		{WindowSize: 32, WriteHigh: 8, WriteLow: 8, StarvationLimit: 1},
		{WindowSize: 32, WriteHigh: 32, WriteLow: 8, StarvationLimit: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestClosedPagePolicyClosesRows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ClosedPage = true
	eng := sim.NewEngine()
	dev, _ := dram.New(dram.Config{
		Geometry: dram.Geometry{Channels: 1, Ranks: 1, Banks: 4, Rows: 128, Columns: 16, BlockSize: 64},
		Slow:     timing.DDR31600Slow(),
		Fast:     timing.DDR31600Fast(),
	})
	ctl, _ := New(cfg, eng, dev, 1)
	readSync(t, ctl, eng, dram.Coord{Row: 5}, dram.RowSlow)
	// With nothing queued, the policy precharges the row shortly after.
	eng.RunUntil(eng.Now() + sim.FromNS(200))
	if dev.Channel(0).Rank(0).Bank(0).HasOpenRow() {
		t.Fatal("closed-page policy left the row open")
	}
	// A repeat access must re-activate (no row-buffer hit).
	kind, _ := readSync(t, ctl, eng, dram.Coord{Row: 5, Column: 2}, dram.RowSlow)
	if kind != ServiceSlow {
		t.Fatalf("closed-page repeat served %v, want a fresh slow open", kind)
	}
}

func TestOpenPageKeepsRows(t *testing.T) {
	ctl, eng, dev := newMC(t, 0)
	readSync(t, ctl, eng, dram.Coord{Row: 5}, dram.RowSlow)
	eng.RunUntil(eng.Now() + sim.FromNS(500))
	if !dev.Channel(0).Rank(0).Bank(0).HasOpenRow() {
		t.Fatal("open-page policy closed an idle row")
	}
}
