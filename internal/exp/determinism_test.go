package exp

import (
	"runtime"
	"testing"
)

// The engine's determinism contract (see internal/sim): figure output
// depends only on the configuration and seeds, not on host scheduling,
// session parallelism, or the event-queue layout. The queue half of the
// contract is checked by FuzzScheduleOrder, which diffs the engine
// against a linear-scan model of the (at, seq) order, and by the
// goldens, which pin end-to-end output.

// renderFig7a computes a two-benchmark Fig7a with the given session
// parallelism, prewarming baselines so the concurrent path actually
// runs runs in parallel rather than serializing on the memo locks.
func renderFig7a(t *testing.T, par int) string {
	t.Helper()
	s := NewSession(tinyConfig())
	s.Parallelism = par
	s.Benchmarks = []string{"mcf", "libquantum"}
	if err := s.Prewarm(s.singleSets()); err != nil {
		t.Fatal(err)
	}
	fig, err := s.Fig7a()
	if err != nil {
		t.Fatal(err)
	}
	return fig.Render()
}

// TestDeterminismAcrossParallelism renders the same figure with a
// serial session and a GOMAXPROCS-wide one; concurrent sessions run
// independent engines, so the rendered text must be byte-identical.
func TestDeterminismAcrossParallelism(t *testing.T) {
	serial := renderFig7a(t, 1)
	wide := renderFig7a(t, max(2, runtime.GOMAXPROCS(0)))
	if serial != wide {
		t.Fatalf("figure output depends on session parallelism:\nserial:\n%s\nparallel:\n%s", serial, wide)
	}
}

// TestDeterminismRepeatedSessions renders the same figure from two
// fresh sessions; pooled queue backings and recycled requests must not
// leak state across runs.
func TestDeterminismRepeatedSessions(t *testing.T) {
	a := renderFig7a(t, 1)
	b := renderFig7a(t, 1)
	if a != b {
		t.Fatalf("figure output differs between identical sessions:\n%s\nvs:\n%s", a, b)
	}
}
