package dram

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// issuedCmd is one command the tests below drive, with what each
// observer must record for it.
type issuedCmd struct {
	kind        CommandKind
	cls         RowClass // class of the row touched (REF and MIG: unused)
	name, track string
	dur         sim.Time
	row         int64 // -1: no row argument
	pj          int64
}

// issueEveryCommand drives one command of every kind (ACT and PRE of
// both classes) through d's channel 0, each at its earliest legal time
// in program order, calling before(i), when non-nil, ahead of the i-th.
// It returns what each command must record, from the timing sets and
// the energy model's prices.
func issueEveryCommand(t *testing.T, d *Device, before func(i int)) []issuedCmd {
	t.Helper()
	ch := d.Channel(0)
	slow, fast, em := d.SlowParams(), d.FastParams(), d.EnergyModel()

	var now sim.Time
	next := func(earliest sim.Time) sim.Time {
		t.Helper()
		if earliest == Never {
			t.Fatal("command never becomes legal")
		}
		now = max(now, earliest)
		return now
	}
	issue := []func(){
		func() { ch.Activate(next(ch.EarliestActivate(now, 0, 1, RowSlow)), 0, 1, 40, RowSlow) },
		func() { ch.Activate(next(ch.EarliestActivate(now, 0, 0, RowFast)), 0, 0, 3, RowFast) },
		func() { ch.Read(next(ch.EarliestRead(now, 0, 0)), 0, 0) },
		func() { ch.Write(next(ch.EarliestWrite(now, 0, 1)), 0, 1) },
		func() { ch.Precharge(next(ch.EarliestPrecharge(now, 0, 0)), 0, 0) },
		func() { ch.Precharge(next(ch.EarliestPrecharge(now, 0, 1)), 0, 1) },
		func() { ch.Refresh(next(ch.EarliestRefresh(now, 0)), 0) },
		func() { ch.Migrate(next(ch.EarliestMigrate(now, 0, 2, 9)), 0, 2, 9) },
	}
	for i, fn := range issue {
		if before != nil {
			before(i)
		}
		fn()
	}
	return []issuedCmd{
		{CmdActivate, RowSlow, "ACT", "ch0/rk0/bk1", slow.Duration(slow.TRCD), 40, em.ActPJ[RowSlow]},
		{CmdActivate, RowFast, "ACT fast", "ch0/rk0/bk0", fast.Duration(fast.TRCD), 3, em.ActPJ[RowFast]},
		{CmdRead, RowFast, "RD", "ch0/rk0/bk0", fast.Duration(fast.ReadLatency()), 3, em.RdPJ[RowFast]},
		{CmdWrite, RowSlow, "WR", "ch0/rk0/bk1", slow.Duration(slow.WriteLatency()), 40, em.WrPJ[RowSlow]},
		{CmdPrecharge, RowFast, "PRE", "ch0/rk0/bk0", fast.Duration(fast.TRP), -1, em.PrePJ[RowFast]},
		{CmdPrecharge, RowSlow, "PRE", "ch0/rk0/bk1", slow.Duration(slow.TRP), -1, em.PrePJ[RowSlow]},
		{CmdRefresh, RowSlow, "REF", "ch0/rk0 refresh", slow.Duration(slow.TRFC), -1, em.RefPJ},
		{CmdMigrate, RowSlow, "MIG", "ch0/rk0/bk2", ns(146.25), 9, em.MigPJ},
	}
}

// TestTraceRecordsCommandSlices drives one command of every kind through
// a traced device and checks each slice's track, duration and row
// argument against the timing sets, and each cumulative-energy sample
// against the energy model's prices.
func TestTraceRecordsCommandSlices(t *testing.T) {
	d := testDevice(t, ns(146.25))
	tr := telemetry.NewTraceRecorder("dev")
	d.AttachTelemetry(nil, tr)
	want := issueEveryCommand(t, d, nil)

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

// TestMetricsMatchIssuedCommands checks every dram.* metric against an
// independent tally of the issued commands: each dram.cmd.* value is a
// count, each dram.occupancy_ps.* value the sum of the commands'
// durations, and each dram.energy_pj.* value the sum of their prices,
// split by the class of the row touched. A CollectStats snapshot taken
// between commands (a warm-up boundary) and subtracted from the final
// CollectStats leaves only the later commands, while the metrics keep
// their running totals.
func TestMetricsMatchIssuedCommands(t *testing.T) {
	d := testDevice(t, ns(146.25))
	reg := telemetry.New()
	d.AttachTelemetry(reg, nil)
	const warm = 1 // the snapshot falls between the slow and the fast ACT
	var base Stats
	cmds := issueEveryCommand(t, d, func(i int) {
		if i == warm {
			base = d.CollectStats()
		}
	})

	want := map[string]int64{}
	var later Stats
	for i, c := range cmds {
		k := strings.ToLower(c.kind.String())
		want["dram.cmd."+k]++
		want["dram.occupancy_ps."+k] += int64(c.dur)
		energy := "dram.energy_pj." + k
		if c.kind != CmdRefresh && c.kind != CmdMigrate {
			energy += "_" + c.cls.String()
		}
		want[energy] += c.pj
		if c.kind == CmdActivate && c.cls == RowFast {
			want["dram.cmd.act_fast"]++
		}
		if i < warm {
			continue
		}
		fast := uint64(0)
		if c.cls == RowFast {
			fast = 1
		}
		switch c.kind {
		case CmdActivate:
			later.Activates, later.ActivatesFast = later.Activates+1, later.ActivatesFast+fast
		case CmdRead:
			later.Reads, later.ReadsFast = later.Reads+1, later.ReadsFast+fast
		case CmdWrite:
			later.Writes, later.WritesFast = later.Writes+1, later.WritesFast+fast
		case CmdPrecharge:
			later.Precharges, later.PrechargesFast = later.Precharges+1, later.PrechargesFast+fast
		case CmdRefresh:
			later.Refreshes++
		case CmdMigrate:
			later.Migrations++
		}
	}

	got := map[string]int64{}
	for _, m := range reg.Snapshot(nil) {
		got[m.Name] = int64(m.Value)
	}
	// 7 command counts, 6 occupancy sums and 10 energy sums, including
	// the classes no command touched (WR fast, RD slow).
	if len(got) != 23 {
		t.Errorf("%d dram metrics registered, want 23: %v", len(got), got)
	}
	for name, v := range got {
		if v != want[name] {
			t.Errorf("%s = %d, want %d", name, v, want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s not registered", name)
		}
	}
	if s := d.CollectStats().Sub(base); s != later {
		t.Errorf("CollectStats minus the warm-up snapshot = %+v, want only the later commands %+v", s, later)
	}
}
