package exp

import (
	"runtime"
	"testing"

	"repro/internal/core"
)

// The engine's determinism contract (see internal/sim): figure output
// depends only on the configuration and seeds, not on host scheduling,
// session parallelism, or the event-queue layout. The queue half of the
// contract is checked by FuzzScheduleOrder, which diffs the engine
// against a linear-scan model of the (at, seq) order, and by the
// goldens, which pin end-to-end output.

// renderFig7a computes a two-benchmark Fig7a.
func renderFig7a(t *testing.T) string {
	t.Helper()
	s := NewSession(tinyConfig())
	s.Benchmarks = []string{"mcf", "libquantum"}
	fig, err := s.Figure("7a")
	if err != nil {
		t.Fatal(err)
	}
	return fig.Render()
}

// explainThen7a renders Explain(Standard, DAS) over two benchmarks,
// which runs its four runs up to par at a time, then Fig 7a, which
// reuses those and runs the other four designs' eight up to par at a
// time. The session must trace requests (Observe.ReqTraceN > 0).
func explainThen7a(t *testing.T, s *Session, par int) string {
	t.Helper()
	s.Parallelism = par
	s.Benchmarks = []string{"mcf", "libquantum"}
	explain, err := s.Explain(core.Standard, core.DAS)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := s.Figure("7a")
	if err != nil {
		t.Fatal(err)
	}
	return explain.Render() + fig.Render()
}

// TestDeterminismAcrossParallelism renders the same figures with a
// serial session and a concurrent one; concurrent runs use independent
// engines, so the rendered text must be byte-identical.
func TestDeterminismAcrossParallelism(t *testing.T) {
	render := func(par int) string {
		s := NewSession(tinyConfig())
		s.Observe = &ObserveOptions{ReqTraceN: 3}
		return explainThen7a(t, s, par)
	}
	serial, wide := render(1), render(max(2, runtime.GOMAXPROCS(0)))
	if serial != wide {
		t.Fatalf("figure output depends on session parallelism:\nserial:\n%s\nparallel:\n%s", serial, wide)
	}
}

// TestDeterminismRepeatedSessions renders the same figure from two
// fresh sessions; pooled queue backings and recycled requests must not
// leak state across runs.
func TestDeterminismRepeatedSessions(t *testing.T) {
	a := renderFig7a(t)
	b := renderFig7a(t)
	if a != b {
		t.Fatalf("figure output differs between identical sessions:\n%s\nvs:\n%s", a, b)
	}
}
