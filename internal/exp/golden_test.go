package exp

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden tests pin the figure text of small fixed-seed runs. A
// figure's rendered output is the determinism contract made visible:
// any engine, controller or workload change that alters event order —
// even without changing averages — shows up here as a byte diff.
// Regenerate deliberately with:
//
//	go test ./internal/exp -run TestGolden -update
//
// and justify the diff in the commit. The full-length counterpart
// (results_single.txt) is asserted by TestGoldenResultsSingleFull in
// golden_full_test.go (build tag golden_full; ~10-25 min).

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenCompare diffs got against testdata/<name>, rewriting it under
// -update.
func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with `go test -run TestGolden -update ./internal/exp`): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: first divergence at line %d:\n got: %q\nwant: %q", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: length differs: got %d lines, want %d", path, len(gl), len(wl))
}

// TestGoldenFig7a pins a two-benchmark Figure 7a at the default seed:
// every design (SAS, CHARM, DAS, DAS-FM, FS) against the Standard
// baseline on the tiny configuration.
func TestGoldenFig7a(t *testing.T) {
	s := NewSession(tinyConfig())
	s.Benchmarks = []string{"mcf", "soplex"}
	fig, err := s.Figure("7a")
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden_fig7a.txt", fig.Render())
}

// TestGoldenFigures pins every figure of the catalog, rendered in
// FigureNames order from one session over one benchmark and one mix, so
// later figures draw partly on runs earlier ones memoized.
func TestGoldenFigures(t *testing.T) {
	cfg := tinyConfig()
	cfg.InstrPerCore = 20_000
	s := NewSession(cfg)
	s.Benchmarks = []string{"mcf"}
	s.Mixes = []string{"M1"}
	var out strings.Builder
	for _, name := range FigureNames() {
		fig, err := s.Figure(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out.WriteString(fig.Render())
	}
	goldenCompare(t, "golden_figures.txt", out.String())
}

// TestGoldenFaultSweep pins the fault-injection sweep (migration
// failures, weak rows, translation corruption), whose output also
// encodes the deterministic fault streams.
func TestGoldenFaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep golden skipped in -short")
	}
	cfg := tinyConfig()
	cfg.InstrPerCore = 100_000
	s := NewSession(cfg)
	s.Benchmarks = []string{"mcf"}
	fig, err := s.Figure("faults")
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden_faults.txt", fig.Render())
}

// TestFaultSweepIgnoresSessionFaults: each fault sweep varies its own
// class with the other rates at zero, so a session's fault rates change
// no byte of the sweep.
func TestFaultSweepIgnoresSessionFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep skipped in -short")
	}
	render := func(weak float64) string {
		cfg := tinyConfig()
		cfg.InstrPerCore = 50_000
		cfg.WeakRowRate = weak
		s := NewSession(cfg)
		s.Benchmarks = []string{"mcf"}
		fig, err := s.Figure("faults")
		if err != nil {
			t.Fatal(err)
		}
		return fig.Render()
	}
	if faulty, clean := render(0.5), render(0); faulty != clean {
		t.Errorf("a weak-row rate of 0.5 in the session changes the fault sweep:\n%s\nwant:\n%s", faulty, clean)
	}
}
