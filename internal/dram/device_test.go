package dram

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/timing"
)

// testDevice builds a small asymmetric device for timing tests.
func testDevice(t *testing.T, migLat sim.Time) *Device {
	t.Helper()
	g := Geometry{Channels: 1, Ranks: 1, Banks: 4, Rows: 64, Columns: 16, BlockSize: 64}
	d, err := New(Config{
		Geometry:         g,
		Slow:             timing.DDR31600Slow(),
		Fast:             timing.DDR31600Fast(),
		MigrationLatency: migLat,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func ns(f float64) sim.Time { return sim.FromNS(f) }

func TestActivateReadRespectsTRCD(t *testing.T) {
	d := testDevice(t, 0)
	ch := d.Channel(0)
	if !ch.CanActivate(0, 0, 0, RowSlow) {
		t.Fatal("fresh bank refused ACT")
	}
	ch.Activate(0, 0, 0, 5, RowSlow)
	if ch.CanRead(ns(13.74), 0, 0) {
		t.Fatal("read allowed before tRCD")
	}
	if !ch.CanRead(ns(13.75), 0, 0) {
		t.Fatal("read refused at tRCD")
	}
	end := ch.Read(ns(13.75), 0, 0)
	p := d.SlowParams()
	want := ns(13.75) + p.Duration(p.ReadLatency())
	if end != want {
		t.Fatalf("burst end %d, want %d", end, want)
	}
}

func TestFastRowUsesFastTiming(t *testing.T) {
	d := testDevice(t, 0)
	ch := d.Channel(0)
	ch.Activate(0, 0, 0, 5, RowFast)
	if ch.CanRead(ns(8.74), 0, 0) {
		t.Fatal("fast read allowed before fast tRCD")
	}
	if !ch.CanRead(ns(8.75), 0, 0) {
		t.Fatal("fast read refused at fast tRCD")
	}
	b := ch.Rank(0).Bank(0)
	if b.OpenClass() != RowFast {
		t.Fatal("open class not fast")
	}
	if s := d.CollectStats(); s.ActivatesFast != 1 || s.Activates != 1 {
		t.Fatalf("fast activate counts wrong: %+v", s)
	}
}

func TestPrechargeRespectsTRAS(t *testing.T) {
	d := testDevice(t, 0)
	ch := d.Channel(0)
	ch.Activate(0, 0, 0, 1, RowSlow)
	if ch.CanPrecharge(ns(34.9), 0, 0) {
		t.Fatal("precharge allowed before tRAS (35 ns)")
	}
	if !ch.CanPrecharge(ns(35), 0, 0) {
		t.Fatal("precharge refused at tRAS")
	}
	ch.Precharge(ns(35), 0, 0)
	// tRP = 13.75 ns before the next ACT.
	if ch.CanActivate(ns(48.74), 0, 0, RowSlow) {
		t.Fatal("ACT allowed before tRP elapsed")
	}
	if !ch.CanActivate(ns(48.75), 0, 0, RowSlow) {
		t.Fatal("ACT refused after tRP")
	}
}

func TestSameBankActToActRespectsTRC(t *testing.T) {
	d := testDevice(t, 0)
	ch := d.Channel(0)
	ch.Activate(0, 0, 0, 1, RowSlow)
	ch.Precharge(ns(35), 0, 0)
	// Even though tRP ends at 48.75, tRC (48.75) also ends there; check
	// a tighter case with an early precharge attempt impossible, so use
	// a fast row: tRC 25 ns but tRAS 16.25.
	ch.Activate(ns(48.75), 0, 1, 2, RowFast)
	ch.Precharge(ns(48.75+16.25), 0, 1)
	if ch.CanActivate(ns(48.75+24.9), 0, 1, RowFast) {
		t.Fatal("ACT allowed before fast tRC")
	}
	if !ch.CanActivate(ns(48.75+25), 0, 1, RowFast) {
		t.Fatal("ACT refused after fast tRC")
	}
}

func TestWriteRecoveryBeforePrecharge(t *testing.T) {
	d := testDevice(t, 0)
	ch := d.Channel(0)
	p := d.SlowParams()
	ch.Activate(0, 0, 0, 1, RowSlow)
	wrAt := p.Duration(p.TRCD)
	end := ch.Write(wrAt, 0, 0)
	wantEnd := wrAt + p.Duration(p.WriteLatency())
	if end != wantEnd {
		t.Fatalf("write burst end %d, want %d", end, wantEnd)
	}
	// Precharge must wait tWR after the burst.
	preOK := end + p.Duration(p.TWR)
	if ch.CanPrecharge(preOK-1, 0, 0) {
		t.Fatal("precharge allowed during write recovery")
	}
	if !ch.CanPrecharge(preOK, 0, 0) {
		t.Fatal("precharge refused after write recovery")
	}
}

func TestTFAWLimitsActivates(t *testing.T) {
	d := testDevice(t, 0)
	ch := d.Channel(0)
	p := d.SlowParams()
	trrd := p.Duration(p.TRRD)
	// Four ACTs at tRRD spacing; bank 0 opens a fast row so it can close
	// (fast tRAS) and reopen (fast tRC) by the fifth slot at 4*tRRD.
	for i := 0; i < 4; i++ {
		at := sim.Time(i) * trrd
		cls := RowSlow
		if i == 0 {
			cls = RowFast
		}
		if !ch.CanActivate(at, 0, i, cls) {
			t.Fatalf("ACT %d refused at %d", i, at)
		}
		ch.Activate(at, 0, i, 1, cls)
	}
	f := d.FastParams()
	ch.Precharge(f.Duration(f.TRAS), 0, 0)
	// By 4*tRRD bank 0 has met fast tRP and tRC and tRRD has passed, but
	// the four-ACT window (tFAW from the first ACT) has not.
	fawEnd := p.Duration(p.TFAW)
	if fawEnd <= 4*trrd || f.Duration(f.TRAS+f.TRP) > 4*trrd || f.Duration(f.TRC) > 4*trrd {
		t.Fatal("timing sets no longer isolate tFAW at 4*tRRD")
	}
	if ch.CanActivate(4*trrd, 0, 0, RowSlow) || ch.CanActivate(fawEnd-1, 0, 0, RowSlow) {
		t.Fatal("fifth ACT allowed inside tFAW window")
	}
	if !ch.CanActivate(fawEnd, 0, 0, RowSlow) {
		t.Fatal("fifth ACT refused after tFAW")
	}
}

func TestDataBusConflict(t *testing.T) {
	d := testDevice(t, 0)
	ch := d.Channel(0)
	p := d.SlowParams()
	ch.Activate(0, 0, 0, 1, RowSlow)
	ch.Activate(p.Duration(p.TRRD), 0, 1, 1, RowSlow)
	rd1 := p.Duration(p.TRCD)
	ch.Read(rd1, 0, 0)
	// A read on another bank one cycle later would overlap the data
	// burst; it must be refused until the bus frees.
	if ch.CanRead(rd1+p.TCK, 0, 1) {
		t.Fatal("overlapping data burst allowed")
	}
	free := rd1 + p.Duration(p.ReadLatency()) // burst end
	earliest := free - p.Duration(p.CL)
	if bankReady := p.Duration(p.TRRD + p.TRCD); bankReady > earliest {
		earliest = bankReady // bank 1's own tRCD may dominate
	}
	if !ch.CanRead(earliest, 0, 1) {
		t.Fatal("read refused although burst would start after bus frees")
	}
}

func TestRefreshBlocksAndRecovers(t *testing.T) {
	d := testDevice(t, 0)
	ch := d.Channel(0)
	p := d.SlowParams()
	due := ch.Rank(0).NextRefreshDue()
	if due <= 0 {
		t.Fatal("no refresh scheduled")
	}
	if !ch.CanRefresh(due, 0) {
		t.Fatal("idle rank refused refresh")
	}
	ch.Refresh(due, 0)
	if ch.CanActivate(due+p.Duration(p.TRFC)-1, 0, 0, RowSlow) {
		t.Fatal("ACT allowed during tRFC")
	}
	if !ch.CanActivate(due+p.Duration(p.TRFC), 0, 0, RowSlow) {
		t.Fatal("ACT refused after tRFC")
	}
	if ch.Rank(0).NextRefreshDue() <= due {
		t.Fatal("next refresh not rescheduled")
	}
}

func TestRefreshRequiresIdleBanks(t *testing.T) {
	d := testDevice(t, 0)
	ch := d.Channel(0)
	ch.Activate(0, 0, 2, 1, RowSlow)
	due := ch.Rank(0).NextRefreshDue()
	if ch.CanRefresh(due, 0) {
		t.Fatal("refresh allowed with an open row")
	}
}

func TestMigrationIdleStart(t *testing.T) {
	d := testDevice(t, ns(146.25))
	ch := d.Channel(0)
	if !ch.CanMigrate(0, 0, 0, 7) {
		t.Fatal("idle bank refused migration")
	}
	end := ch.Migrate(0, 0, 0, 7)
	if end != ns(146.25) {
		t.Fatalf("migration end %d, want %d", end, ns(146.25))
	}
	if ch.CanActivate(end-1, 0, 0, RowSlow) {
		t.Fatal("ACT allowed during migration")
	}
	if !ch.CanActivate(end, 0, 0, RowSlow) {
		t.Fatal("ACT refused after migration")
	}
	if d.CollectStats().Migrations != 1 {
		t.Fatal("migration not counted")
	}
}

func TestMigrationActiveStartServesOpenRow(t *testing.T) {
	d := testDevice(t, ns(146.25))
	ch := d.Channel(0)
	p := d.SlowParams()
	ch.Activate(0, 0, 0, 7, RowSlow)
	// Cannot migrate before restore (tRAS equivalent via nextPrecharge).
	if ch.CanMigrate(p.Duration(p.TRCD), 0, 0, 7) {
		t.Fatal("migration allowed before restore completed")
	}
	at := p.Duration(p.TRAS)
	if !ch.CanMigrate(at, 0, 0, 7) {
		t.Fatal("migration refused on open source row")
	}
	// A different source row must not allow active-start.
	if ch.CanMigrate(at, 0, 0, 8) {
		t.Fatal("migration of a different row allowed while row 7 open")
	}
	end := ch.Migrate(at, 0, 0, 7)
	// Reads to the open source row keep flowing during the swap.
	if !ch.CanRead(at+p.Duration(p.TCCD), 0, 0) {
		t.Fatal("read to migrating row refused")
	}
	// Writes must not hit the busy row buffer.
	if ch.CanWrite(at+p.Duration(p.TCCD), 0, 0) {
		t.Fatal("write allowed into migrating row buffer")
	}
	// After completion the bank auto-precharged.
	if ch.Rank(0).Bank(0).HasOpenRow() {
		// lazy expiry happens on the next query with a later time
		if ch.CanRead(end, 0, 0) {
			t.Fatal("row still readable after migration end")
		}
	}
	if !ch.CanActivate(end, 0, 0, RowSlow) {
		t.Fatal("bank not activatable after migration")
	}
}

func TestDeviceConfigValidation(t *testing.T) {
	g := Default8GB()
	slow := timing.DDR31600Slow()
	fast := timing.DDR31600Fast()
	if _, err := New(Config{Geometry: g, Slow: slow, Fast: fast, MigrationLatency: -1}); err == nil {
		t.Fatal("negative migration latency accepted")
	}
	badFast := fast
	badFast.TCK = 1000
	if _, err := New(Config{Geometry: g, Slow: slow, Fast: badFast}); err == nil {
		t.Fatal("mismatched clocks accepted")
	}
	badGeom := g
	badGeom.Rows = 3
	if _, err := New(Config{Geometry: badGeom, Slow: slow, Fast: fast}); err == nil {
		t.Fatal("bad geometry accepted")
	}
}
