package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func scrape(t *testing.T, ts *httptest.Server) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestMetricsEndpointValidAndDeterministic pins the exposition
// contract end to end: the live endpoint passes the self-contained
// validator, repeated scrapes of an idle server are byte-identical, and
// the serve instruments appear under their sanitized names.
func TestMetricsEndpointValidAndDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Runner: func(ctx context.Context, spec *Job) ([]byte, error) {
			return []byte("ok"), nil
		},
	})
	postRun(t, ts, `{"figure": "table2"}`)
	postRun(t, ts, `{"figure": "table2"}`) // hit

	first := scrape(t, ts)
	if err := telemetry.ValidateExposition(first); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, first)
	}
	second := scrape(t, ts)
	if string(first) != string(second) {
		t.Fatalf("idle scrapes differ:\n--- first\n%s\n--- second\n%s", first, second)
	}
	for _, want := range []string{
		"# TYPE serve_jobs_done counter",
		"# TYPE serve_jobs_running gauge",
		"# TYPE serve_queue_wait_us histogram",
		`serve_queue_wait_us_bucket{le="+Inf"} 1`,
		"serve_cache_hits 1",
		"serve_jobtrace_violations 0",
	} {
		if !strings.Contains(string(first), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestJobsQuantiles pins the /jobs satellite: the document carries
// deterministic latency quantiles for both service histograms.
func TestJobsQuantiles(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Runner: func(ctx context.Context, spec *Job) ([]byte, error) {
			return []byte("ok"), nil
		},
	})
	postRun(t, ts, `{"figure": "table2"}`)
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Quantiles map[string]map[string]float64 `json:"quantiles"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"serve.queue.wait_us", "serve.job.run_us"} {
		q, ok := out.Quantiles[name]
		if !ok {
			t.Fatalf("/jobs missing quantiles for %s", name)
		}
		for _, p := range []string{"p50", "p90", "p95", "p99"} {
			if _, ok := q[p]; !ok {
				t.Fatalf("%s missing %s", name, p)
			}
		}
		if q["p50"] > q["p99"] {
			t.Fatalf("%s: p50 %v > p99 %v", name, q["p50"], q["p99"])
		}
	}
}

// TestJobsTraceEndpoint pins the Perfetto export: one
// {"traceEvents":[...]} document holding one enclosing slice per
// completed job, on that job's own track, plus its non-zero phases.
func TestJobsTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Runner: func(ctx context.Context, spec *Job) ([]byte, error) {
			return []byte("ok"), nil
		},
	})
	postRun(t, ts, `{"figure": "table2"}`)
	resp, err := http.Get(ts.URL + "/jobs/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var jobs []map[string]any
	for _, e := range doc.TraceEvents {
		if e["ph"] == "X" && e["name"] == "table2 (done)" {
			jobs = append(jobs, e)
		}
	}
	if len(jobs) != 1 || jobs[0]["ts"] != 0.0 {
		t.Fatalf("want one job slice at ts 0, got %v in %v", jobs, doc.TraceEvents)
	}
	for _, e := range doc.TraceEvents {
		if e["ph"] == "X" && e["tid"] != jobs[0]["tid"] {
			t.Errorf("slice %v is off its job's track", e)
		}
	}
}
