package exp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

// explainSession builds a fresh tiny session with every demand load
// traced and renders the Standard-vs-DAS explain report.
func explainSession(t *testing.T) (*Session, string) {
	t.Helper()
	s := NewSession(tinyConfig())
	s.Benchmarks = []string{"mcf", "libquantum"}
	s.Observe = &ObserveOptions{ReqTraceN: 1}
	fig, err := s.Explain(core.Standard, core.DAS)
	if err != nil {
		t.Fatal(err)
	}
	return s, fig.Render()
}

// TestExplainInvariantHoldsOnRealRuns is the end-to-end attribution
// gate: trace every measured demand load through real Standard and DAS
// runs and require that every sampled request decomposed exactly —
// Explain fails on any recorder with a components-sum-to-total
// violation, and the recorders must actually have seen traffic.
func TestExplainInvariantHoldsOnRealRuns(t *testing.T) {
	s, report := explainSession(t)

	recorders := 0
	for _, o := range s.Observers() {
		if o.Req == nil {
			continue
		}
		recorders++
		if o.Req.Latency().Count() == 0 {
			t.Errorf("%s: recorder saw no requests", o.Label)
		}
		if v := o.Req.Latency().Violations(); v != 0 {
			t.Errorf("%s: %d invariant violation(s); first: %s", o.Label, v, o.Req.Latency().FirstViolation())
		}
		if v := o.Req.Energy().Violations(); v != 0 {
			t.Errorf("%s: %d energy violation(s); first: %s", o.Label, v, o.Req.Energy().FirstViolation())
		}
		if o.Req.Energy().Sum() <= 0 {
			t.Errorf("%s: no energy attributed to traced requests", o.Label)
		}
	}
	// Two designs x two workloads.
	if recorders != 4 {
		t.Fatalf("recorders = %d, want 4", recorders)
	}

	for _, want := range []string{
		"Why Standard ≠ DAS-DRAM",
		"largest driver:",
		"workload", "migration", "conflict",
		"components sum exactly to total",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("explain report missing %q:\n%s", want, report)
		}
	}
}

// TestExplainDeterministic renders the report from two independent
// sessions: same config and seed, so the bytes must match exactly
// (results_explain.txt is committed and diffed).
func TestExplainDeterministic(t *testing.T) {
	_, first := explainSession(t)
	_, second := explainSession(t)
	if first != second {
		t.Fatalf("explain report not deterministic:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}

// TestExplainRequiresTracing: without ReqTraceN the report cannot be
// built and the error must say so rather than producing empty tables.
func TestExplainRequiresTracing(t *testing.T) {
	s := NewSession(tinyConfig())
	s.Benchmarks = []string{"mcf"}
	if _, err := s.Explain(core.Standard, core.DAS); err == nil || !strings.Contains(err.Error(), "ReqTraceN") {
		t.Fatalf("Explain without tracing: err = %v", err)
	}
	s.Observe = &ObserveOptions{Metrics: true}
	if _, err := s.Explain(core.Standard, core.DAS); err == nil {
		t.Fatal("Explain with tracing off accepted")
	}
}

// TestReqTraceExportFromSession checks the session-level sink plumbing
// dasbench's -reqtrace-out uses: deterministic CSV with one block per
// run label.
func TestReqTraceExportFromSession(t *testing.T) {
	s, _ := explainSession(t)
	var csv1, csv2 bytes.Buffer
	if err := s.WriteReqTraceCSV(&csv1); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteReqTraceCSV(&csv2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1.Bytes(), csv2.Bytes()) {
		t.Fatal("request-trace CSV not deterministic across writes")
	}
	if !strings.Contains(csv1.String(), "run,requests,violations,energy_violations,component,sum_ns,mean_ns,share_pct,p50_ns,p95_ns,p99_ns,energy_pj,energy_mean_pj") {
		t.Fatalf("CSV header missing:\n%.300s", csv1.String())
	}
	for _, comp := range []string{"total", "cache", "queue", "service", "fill"} {
		if !strings.Contains(csv1.String(), ","+comp+",") {
			t.Errorf("CSV missing component %q", comp)
		}
	}
}

// TestSamplingStrideReducesRequests: a sparser sampling stride must
// trace strictly fewer requests than tracing everything, while leaving
// the attribution machinery (and the invariant) intact.
func TestSamplingStrideReducesRequests(t *testing.T) {
	run := func(n int) uint64 {
		s := NewSession(tinyConfig())
		s.Benchmarks = []string{"mcf"}
		s.Observe = &ObserveOptions{ReqTraceN: n}
		if _, err := s.Baseline([]string{"mcf"}); err != nil {
			t.Fatal(err)
		}
		var total uint64
		for _, o := range s.Observers() {
			if o.Req == nil {
				t.Fatalf("run with ReqTraceN=%d has no recorder", n)
			}
			if v := o.Req.Latency().Violations(); v != 0 {
				t.Fatalf("ReqTraceN=%d: %d violation(s): %s", n, v, o.Req.Latency().FirstViolation())
			}
			total += o.Req.Latency().Count()
		}
		return total
	}
	every, sparse := run(1), run(16)
	if every == 0 || sparse == 0 {
		t.Fatalf("no requests traced: every=%d sparse=%d", every, sparse)
	}
	if sparse >= every {
		t.Fatalf("1-in-16 sampling traced %d requests, full tracing %d", sparse, every)
	}
}
