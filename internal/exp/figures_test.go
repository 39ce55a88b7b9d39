package exp

import (
	"strconv"
	"strings"
	"testing"
)

// figSession returns a session restricted to two benchmarks and one mix
// at tiny scale so figure drivers run in test time.
func figSession() *Session {
	cfg := tinyConfig()
	cfg.InstrPerCore = 80_000
	s := NewSession(cfg)
	s.Benchmarks = []string{"libquantum", "soplex"}
	s.Mixes = []string{"M5"}
	return s
}

func TestFig7aDriver(t *testing.T) {
	s := figSession()
	fig, err := s.Fig7a()
	if err != nil {
		t.Fatal(err)
	}
	out := fig.Render()
	for _, want := range []string{"libquantum", "soplex", "gmean", "DAS-DRAM", "FS-DRAM"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig7a missing %q:\n%s", want, out)
		}
	}
	// 2 workloads + gmean rows.
	if got := len(fig.Tables[0].Rows); got != 3 {
		t.Fatalf("Fig7a has %d rows", got)
	}
}

func TestFig7bcDriversShareRuns(t *testing.T) {
	s := figSession()
	if _, err := s.Fig7a(); err != nil {
		t.Fatal(err)
	}
	before := len(s.results)
	if _, err := s.Fig7b(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fig7c(); err != nil {
		t.Fatal(err)
	}
	if len(s.results) != before {
		t.Fatalf("7b/7c ran %d extra simulations; they must reuse 7a's", len(s.results)-before)
	}
}

func TestFig7dDriver(t *testing.T) {
	s := figSession()
	s.Cfg.InstrPerCore = 50_000
	fig, err := s.Fig7d()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig.Render(), "M5") {
		t.Fatal("Fig7d missing mix row")
	}
}

// TestUnknownMixFails pins that a mix name the catalog does not know
// fails every multi-programmed figure before anything runs, instead of
// dropping out of the table, and that those figures then estimate no
// progress horizon.
func TestUnknownMixFails(t *testing.T) {
	for _, mixes := range [][]string{{"M9"}, {"M1", "M9"}, {"m1"}} {
		s := figSession()
		s.Mixes = mixes
		bad := strconv.Quote(mixes[len(mixes)-1])
		for _, name := range []string{"7d", "7e", "7f"} {
			if _, err := s.Figure(name); err == nil || !strings.Contains(err.Error(), bad) {
				t.Errorf("mixes %v: %s returned %v, want an error naming %s", mixes, name, err, bad)
			}
			if h := s.InstrHorizon(name); h != 0 {
				t.Errorf("mixes %v: InstrHorizon(%s) = %d, want 0", mixes, name, h)
			}
		}
		if len(s.results) != 0 {
			t.Errorf("mixes %v: %d runs simulated before the error", mixes, len(s.results))
		}
	}
}

func TestFig8Driver(t *testing.T) {
	s := figSession()
	s.Benchmarks = []string{"soplex"}
	fig, err := s.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Tables) != 3 {
		t.Fatalf("Fig8 must have three panels, got %d", len(fig.Tables))
	}
	out := fig.Render()
	for _, want := range []string{"thr=1", "thr=8", "miss ratio", "promotions"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig8 missing %q", want)
		}
	}
}

func TestFig9Drivers(t *testing.T) {
	s := figSession()
	s.Benchmarks = []string{"libquantum"}
	for name, f := range map[string]func() (*Figure, error){
		"9a": s.Fig9a, "9b": s.Fig9b, "9c": s.Fig9c, "9d": s.Fig9d,
	} {
		fig, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(fig.Tables[0].Header) != 5 { // workload + 4 sweep points
			t.Fatalf("%s has %d columns", name, len(fig.Tables[0].Header))
		}
	}
}

func TestPowerFigureDriver(t *testing.T) {
	s := figSession()
	s.Benchmarks = []string{"libquantum"}
	fig, err := s.PowerFigure()
	if err != nil {
		t.Fatal(err)
	}
	out := fig.Render()
	if !strings.Contains(out, "energy") && !strings.Contains(out, "Energy") {
		t.Fatalf("power figure missing energy caption:\n%s", out)
	}
	// Every cell must be a parseable ratio around 1.
	row := fig.Tables[0].Rows[0]
	if len(row) != 5 {
		t.Fatalf("power row has %d cells", len(row))
	}
}
