package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as its own worker child, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if p, ok := childFromEnv(); ok {
		os.Exit(childMain(p))
	}
	os.Exit(m.Run())
}

// TestMetricListsMatchSpec holds the metric lists the benchmark measures
// to BENCHMARK.json, names and units in order.
func TestMetricListsMatchSpec(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) {
		t.Errorf("end-to-end metrics differ:\nBENCHMARK.json %v\nbench          %v", e2e, endToEnd)
	}
	if fmt.Sprint(layer) != fmt.Sprint(perLayer) {
		t.Errorf("per-layer metrics differ:\nBENCHMARK.json %v\nbench          %v", layer, perLayer)
	}
}

// TestSmoke runs every workload at smoke scale, untraced and traced, on
// the default seed, and checks that every metric is printed with its
// unit, that no op failed and the smoke goldens match, that the host
// profile's layer counts sum exactly to prof.samples, and that the trace
// JSON parses with at least one span per replay-driver layer.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	dasserve := filepath.Join(dir, "dasserve")
	if out, err := exec.Command("go", "build", "-o", dasserve, "repro/cmd/dasserve").CombinedOutput(); err != nil {
		t.Fatalf("build dasserve: %v\n%s", err, out)
	}
	start := time.Now()
	for _, w := range workloadNames() {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace=%d", w, trace), func(t *testing.T) {
				var out bytes.Buffer
				code := run([]string{"-workload", w, "-scale", "smoke", "-seconds", "1",
					"-trace", strconv.Itoa(trace), "-dasserve", dasserve, "-workdir", dir}, &out)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				defs := endToEnd
				if trace == 1 {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.name, m, ok, d.unit)
					}
				}
				if trace == 1 {
					checkProfileSum(t, lines, res)
					checkTraceFile(t, filepath.Join(dir, "trace-"+w+".json"))
				}
			})
		}
	}
	t.Logf("smoke suite took %v", time.Since(start))
}

// checkProfileSum requires the integer per-layer sample counts to sum
// exactly to prof.samples.
func checkProfileSum(t *testing.T, lines []string, res result) {
	t.Helper()
	var sum, total int64 = 0, -1
	for _, l := range lines {
		f := strings.Fields(l)
		switch {
		case len(f) == 3 && f[0] == "prof":
			n, err := strconv.ParseInt(f[2], 10, 64)
			if err != nil {
				t.Fatalf("bad profile line %q", l)
			}
			sum += n
		case len(f) == 2 && f[0] == "prof.samples":
			total, _ = strconv.ParseInt(f[1], 10, 64)
		}
	}
	if total <= 0 || sum != total || float64(total) != res.Metrics["prof.samples"].Value {
		t.Errorf("layer counts sum to %d, prof.samples line %d, metric %v", sum, total, res.Metrics["prof.samples"].Value)
	}
}

// checkTraceFile parses the Chrome trace and requires a span for every
// replay-driver layer.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat string  `json:"cat"`
			Ph  string  `json:"ph"`
			Dur float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	per := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("bad trace event %+v", e)
		}
		per[e.Cat]++
	}
	for _, l := range []string{"workload", "cpu", "cache", "mc", "core"} {
		if per[l] == 0 {
			t.Errorf("no %s span in the trace (spans per layer: %v)", l, per)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).Step":               "sim",
		"repro/internal/mc.clearPtrs[go.shape.struct {}]": "mc",
		"repro/internal/telemetry/reqtrace.(*Span).Stamp": "other",
		"runtime.mallocgc":                                "runtime",
		"internal/runtime/maps.(*Map).getWithKeyFast":     "runtime",
		"net/http.(*conn).serve":                          "other",
		"main.issueOne":                                   "other",
		"":                                                "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Layer: "exp", Start: 0, End: 100, Parent: -1},
		{Layer: "serve", Start: 10, End: 50, Parent: 0},
		{Layer: "serve", Start: 40, End: 70, Parent: 0}, // overlaps its sibling
		{Layer: "cache", Start: 20, End: 30, Parent: 1},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"exp": 40, "serve": 60, "cache": 10}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ips, setup []float64) string {
		path := filepath.Join(dir, name)
		for i := range ips {
			r := record{Workload: "light-1core", Seed: uint64(i), Result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metric{"instr_per_s": {ips[i], "1/s"}, "setup_s": {setup[i], "s"}}}}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a", []float64{100, 101, 99, 100}, []float64{1, 1.01, 0.99, 1})
	b := write("b", []float64{70, 71, 69, 70}, []float64{0.5, 2, 1, 1.5})
	var out bytes.Buffer
	if code := runCompare("../BENCHMARK.json", a, b, &out); code != 1 {
		t.Errorf("exit %d, want 1 for a worse-than-bound pairing\n%s", code, out.String())
	}
	for metric, verdict := range map[string]string{"instr_per_s": "worse-than-bound", "setup_s": "unresolved"} {
		found := false
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, " "+metric+" ") && strings.HasSuffix(l, verdict) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no %s verdict in\n%s", metric, verdict, out.String())
		}
	}
}
