package dram

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestTraceRecordsCommandSlices drives one command of every kind through
// a traced device and checks each slice's track, duration and row
// argument against the timing sets, and each cumulative-energy sample
// against the energy model's prices.
func TestTraceRecordsCommandSlices(t *testing.T) {
	d := testDevice(t, ns(146.25))
	tr := telemetry.NewTraceRecorder("dev")
	d.AttachTelemetry(nil, tr)
	ch := d.Channel(0)
	slow, fast, em := d.SlowParams(), d.FastParams(), d.EnergyModel()

	// Each command issues at its earliest legal time, in program order.
	var now sim.Time
	next := func(earliest sim.Time) sim.Time {
		t.Helper()
		if earliest == Never {
			t.Fatal("command never becomes legal")
		}
		now = max(now, earliest)
		return now
	}
	ch.Activate(next(ch.EarliestActivate(now, 0, 0, RowFast)), 0, 0, 3, RowFast)
	ch.Activate(next(ch.EarliestActivate(now, 0, 1, RowSlow)), 0, 1, 40, RowSlow)
	ch.Read(next(ch.EarliestRead(now, 0, 0)), 0, 0)
	ch.Write(next(ch.EarliestWrite(now, 0, 1)), 0, 1)
	ch.Precharge(next(ch.EarliestPrecharge(now, 0, 0)), 0, 0)
	ch.Precharge(next(ch.EarliestPrecharge(now, 0, 1)), 0, 1)
	ch.Refresh(next(ch.EarliestRefresh(now, 0)), 0)
	ch.Migrate(next(ch.EarliestMigrate(now, 0, 2, 9)), 0, 2, 9)

	want := []struct {
		name, track string
		dur         sim.Time
		row         int64 // -1: no row argument
		pj          int64
	}{
		{"ACT fast", "ch0/rk0/bk0", fast.Duration(fast.TRCD), 3, em.ActPJ[RowFast]},
		{"ACT", "ch0/rk0/bk1", slow.Duration(slow.TRCD), 40, em.ActPJ[RowSlow]},
		{"RD", "ch0/rk0/bk0", fast.Duration(fast.ReadLatency()), 3, em.RdPJ[RowFast]},
		{"WR", "ch0/rk0/bk1", slow.Duration(slow.WriteLatency()), 40, em.WrPJ[RowSlow]},
		{"PRE", "ch0/rk0/bk0", fast.Duration(fast.TRP), -1, em.PrePJ[RowFast]},
		{"PRE", "ch0/rk0/bk1", slow.Duration(slow.TRP), -1, em.PrePJ[RowSlow]},
		{"REF", "ch0/rk0 refresh", slow.Duration(slow.TRFC), -1, em.RefPJ},
		{"MIG", "ch0/rk0/bk2", ns(146.25), 9, em.MigPJ},
	}

	var buf bytes.Buffer
	if err := telemetry.EncodeTrace(&buf, []*telemetry.TraceRecorder{tr}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
			Args struct {
				Name  string `json:"name"`
				Row   *int64 `json:"row"`
				Value int64  `json:"value"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	tracks := map[int]string{}
	var slices, samples int
	var cumPJ int64
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				tracks[e.Tid] = e.Args.Name
			}
		case "X":
			if slices >= len(want) {
				t.Fatalf("extra slice %s", e.Name)
			}
			w := want[slices]
			slices++
			if e.Name != w.name || tracks[e.Tid] != w.track {
				t.Errorf("slice %d = %s on %q, want %s on %q", slices, e.Name, tracks[e.Tid], w.name, w.track)
			}
			if dur := sim.Time(math.Round(e.Dur * 1e6)); dur != w.dur {
				t.Errorf("%s dur = %d ps, want %d", w.name, dur, w.dur)
			}
			row := int64(-1)
			if e.Args.Row != nil {
				row = *e.Args.Row
			}
			if row != w.row {
				t.Errorf("%s row = %d, want %d", w.name, row, w.row)
			}
			cumPJ += w.pj
		case "C":
			// Each command's energy sample follows its slice.
			samples++
			if tracks[e.Tid] != "DRAM energy (cumulative pJ)" || e.Name != "energy_pj" {
				t.Errorf("counter %s on %q", e.Name, tracks[e.Tid])
			}
			if samples != slices || e.Args.Value != cumPJ {
				t.Errorf("energy sample %d = %d pJ after %d slices, want %d", samples, e.Args.Value, slices, cumPJ)
			}
		default:
			t.Errorf("unexpected %s event %s", e.Ph, e.Name)
		}
	}
	if slices != len(want) || samples != len(want) {
		t.Fatalf("%d slices and %d energy samples, want %d of each", slices, samples, len(want))
	}
	if got := d.BankTrack(0, 0, 2); tracks[got] != "ch0/rk0/bk2" {
		t.Errorf("BankTrack(0, 0, 2) = %d (%q)", got, tracks[got])
	}
}
