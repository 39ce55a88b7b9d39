package exp

import (
	"testing"

	"repro/internal/core"
)

// TestLiveProgressTracksRun pins the streaming-progress counters: they
// advance during a run (not only at its end), land exactly on the
// end-of-run totals, and never run ahead of them. The figure bytes of a
// run with live counters attached must match an unattached run — live
// progress reads engine state at observation points and writes nothing
// back, so this is the perturbation-free gate at unit scale.
func TestLiveProgressTracksRun(t *testing.T) {
	cfg := tinyConfig()
	s := NewSession(cfg)
	res, err := s.Baseline([]string{"mcf"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.LiveEvents(), s.EventsExecuted(); got != want {
		t.Fatalf("LiveEvents = %d after run end, want %d (end-of-run total)", got, want)
	}
	// Live instrs count every retirement including warm-up; the
	// end-of-run counter holds the measured window only, so live must
	// land exactly on the full per-core quota and above the counter.
	if got, want := s.LiveInstrs(), cfg.InstrPerCore; got != want {
		t.Fatalf("LiveInstrs = %d after run end, want the full quota %d", got, want)
	}
	if s.LiveInstrs() < s.InstrsRetired() {
		t.Fatalf("LiveInstrs %d < measured-window total %d", s.LiveInstrs(), s.InstrsRetired())
	}
	if s.LiveSimNS() <= 0 {
		t.Fatal("LiveSimNS did not advance")
	}
	if res.Events == 0 {
		t.Fatal("run executed no events")
	}
}

// TestInstrHorizonEstimates sanity-checks the ETA denominators: known
// figures scale with the session's workload lists and quota; static
// tables are free; design runs count baseline + design.
func TestInstrHorizonEstimates(t *testing.T) {
	cfg := tinyConfig()
	s := NewSession(cfg)
	s.Benchmarks = []string{"mcf", "lbm"}
	s.Mixes = []string{"M1"}
	q := cfg.InstrPerCore
	cases := map[string]uint64{
		"table2": 0,
		"7a":     2 * 6 * q,
		"7b":     2 * 1 * q,
		"7d":     1 * 6 * 4 * q,
		"power":  2 * 5 * q,
	}
	for name, want := range cases {
		if got := s.InstrHorizon(name); got != want {
			t.Errorf("InstrHorizon(%q) = %d, want %d", name, got, want)
		}
	}
	if got, want := s.DesignInstrHorizon(core.Standard, []string{"mcf"}), q; got != want {
		t.Errorf("DesignInstrHorizon(standard) = %d, want %d", got, want)
	}
	if got, want := s.DesignInstrHorizon(core.DAS, []string{"mcf", "lbm"}), 2*2*q; got != want {
		t.Errorf("DesignInstrHorizon(das) = %d, want %d", got, want)
	}
}

// TestInstrHorizonMatchesRuns renders every figure in a fresh session
// over one benchmark and one mix and compares the instructions the
// session retired, as LiveInstrs counts them, with the figure's horizon.
// Every figure, the 4-core ones included, retires its horizon to within
// 0.1%. The static tables retire nothing and estimate 0.
func TestInstrHorizonMatchesRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every figure")
	}
	for _, name := range FigureNames() {
		cfg := tinyConfig()
		cfg.InstrPerCore = 20_000
		s := NewSession(cfg)
		s.Benchmarks = []string{"mcf"}
		s.Mixes = []string{"M1"}
		horizon := s.InstrHorizon(name)
		if _, err := s.Figure(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := s.LiveInstrs()
		switch {
		case horizon == 0:
			if got != 0 {
				t.Errorf("%s: retired %d instructions against a horizon of 0", name, got)
			}
		default:
			if diff := max(got, horizon) - min(got, horizon); diff*1000 > horizon {
				t.Errorf("%s: retired %d instructions, horizon %d (off by more than 0.1%%)", name, got, horizon)
			}
		}
		t.Logf("%-6s horizon %8d retired %8d", name, horizon, got)
	}
}
