package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func sampleTimelines() []*Timeline {
	mk := func(label string) *Timeline {
		tl := &Timeline{Label: label, IntervalPS: 1_000_000}
		r := New()
		c := r.Counter("cmds")
		c.Add(3)
		tl.Snap(1_000_000, r)
		c.Add(4)
		tl.Snap(2_500_000, r) // 2.5 µs: exercises fractional ns formatting? (ps->ns = 2500)
		return tl
	}
	// Deliberately out of label order to prove the encoder sorts.
	return []*Timeline{mk("run-b"), mk("run-a")}
}

func TestTimelineCSVDeterministicAndSorted(t *testing.T) {
	var a, b bytes.Buffer
	if err := EncodeTimelinesCSV(&a, sampleTimelines()); err != nil {
		t.Fatal(err)
	}
	if err := EncodeTimelinesCSV(&b, sampleTimelines()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("CSV output not deterministic across encodes")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if lines[0] != "run,epoch_ns,metric,value" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "run-a,") {
		t.Fatalf("runs not sorted by label: first data row %q", lines[1])
	}
	if !strings.Contains(a.String(), "run-a,1000,cmds,3") {
		t.Fatalf("missing expected row in:\n%s", a.String())
	}
}

// TestCSVFieldQuoting checks that timeline CSV quotes run labels and
// metric names the RFC-4180 way (through stats.CSVField).
func TestCSVFieldQuoting(t *testing.T) {
	cases := map[string]string{
		"plain":      "plain",
		"a,b":        `"a,b"`,
		`say "hi"`:   `"say ""hi"""`,
		"line\nfeed": "\"line\nfeed\"",
	}
	for in, want := range cases {
		tl := &Timeline{Label: in, IntervalPS: 1_000_000}
		r := New()
		r.Counter(in).Inc()
		tl.Snap(1_000_000, r)
		var buf bytes.Buffer
		if err := EncodeTimelinesCSV(&buf, []*Timeline{tl}); err != nil {
			t.Fatal(err)
		}
		row := want + ",1000," + want + ",1\n"
		if got := strings.TrimPrefix(buf.String(), "run,epoch_ns,metric,value\n"); got != row {
			t.Errorf("label and metric %q: row %q, want %q", in, got, row)
		}
	}
}

func TestFormatPSExact(t *testing.T) {
	if got := formatPSinNS(1500); got != "1.5" {
		t.Errorf("formatPSinNS(1500) = %q, want 1.5", got)
	}
	if got := formatPSinNS(2_000_000); got != "2000" {
		t.Errorf("formatPSinNS(2000000) = %q, want 2000", got)
	}
	if got := formatMicros(1_234_567); got != "1.234567" {
		t.Errorf("formatMicros = %q, want 1.234567", got)
	}
	if got := formatMicros(3_000_000); got != "3" {
		t.Errorf("formatMicros = %q, want 3", got)
	}
}

// TestTraceEncodeSchema validates a synthetic recorder against the
// Chrome trace-event shape and pins pid assignment (sorted labels),
// track metadata, instant scope, and the drop-count annotation.
func TestTraceEncodeSchema(t *testing.T) {
	r1 := NewTraceRecorder("zz-late")
	if tid := r1.Track("bank0"); tid != 0 {
		t.Fatalf("first track id = %d, want 0", tid)
	}
	if tid := r1.Track("bank1"); tid != 1 {
		t.Fatalf("second track id = %d, want 1", tid)
	}
	r1.Duration("RD", 1_000_000, 500_000, 0, 17)
	r2 := NewTraceRecorder("aa-early")
	r2.MaxEvents = 1
	r2.Duration("ACT", 0, 2_000_000, 3, -1)
	r2.Instant("fault", 5, 3, -1) // over cap: dropped
	if r2.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", r2.Dropped())
	}

	var buf bytes.Buffer
	if err := EncodeTrace(&buf, []*TraceRecorder{r1, nil, r2}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var procs []string
	for _, e := range doc.TraceEvents {
		if e["ph"] == "M" && e["name"] == "process_name" {
			procs = append(procs, e["args"].(map[string]any)["name"].(string))
		}
	}
	if len(procs) != 2 || !strings.HasPrefix(procs[0], "aa-early") || procs[1] != "zz-late" {
		t.Fatalf("process metadata wrong: %v", procs)
	}
	if !strings.Contains(procs[0], "[1 events dropped]") {
		t.Fatalf("drop count not surfaced in process name: %q", procs[0])
	}
	for _, e := range doc.TraceEvents {
		if e["name"] == "RD" {
			if e["ts"].(float64) != 1 || e["dur"].(float64) != 0.5 {
				t.Fatalf("RD ts/dur wrong: %v", e)
			}
			if e["args"].(map[string]any)["row"].(float64) != 17 {
				t.Fatalf("RD row arg wrong: %v", e)
			}
		}
	}
	// Deterministic bytes across encodes.
	var again bytes.Buffer
	if err := EncodeTrace(&again, []*TraceRecorder{r1, nil, r2}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("trace encoding not deterministic")
	}
}

// TestPublisherEndpoint: the debug endpoint serves expvar, pprof and
// its index, and nothing else; in particular it keeps no /metrics.
func TestPublisherEndpoint(t *testing.T) {
	var p Publisher
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	for path, want := range map[string]int{
		"/debug/vars":   http.StatusOK,
		"/debug/pprof/": http.StatusOK,
		"/":             http.StatusOK,
		"/metrics":      http.StatusNotFound,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s -> %d, want %d", path, resp.StatusCode, want)
		}
	}
}
