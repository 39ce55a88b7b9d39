package exp

import (
	"bytes"
	"encoding/json"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// observedFig7a renders a two-benchmark Fig7a with telemetry fully
// enabled and returns the figure text plus the merged sink bytes.
func observedFig7a(t *testing.T) (fig, timelineCSV, trace string) {
	t.Helper()
	s := NewSession(tinyConfig())
	s.Benchmarks = []string{"mcf", "libquantum"}
	s.Observe = &ObserveOptions{Metrics: true, Trace: true, ReqTraceN: 3}
	f, err := s.Figure("7a")
	if err != nil {
		t.Fatal(err)
	}
	csv, trace := sinkBytes(t, s)
	return f.Render(), csv, trace
}

// sinkBytes returns a session's merged timeline CSV and trace bytes.
func sinkBytes(t *testing.T, s *Session) (timelineCSV, trace string) {
	t.Helper()
	var csvBuf, traceBuf bytes.Buffer
	if err := s.WriteTimelineCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteTrace(&traceBuf); err != nil {
		t.Fatal(err)
	}
	return csvBuf.String(), traceBuf.String()
}

// TestTelemetryDoesNotPerturbFigures is the core guarantee: a fully
// observed session renders byte-identical figure output to an
// uninstrumented one. Telemetry records from the host run loop and
// nil-guarded issue sites, never through engine events, so enabling it
// must not move a single simulated command.
func TestTelemetryDoesNotPerturbFigures(t *testing.T) {
	plain := renderFig7a(t)
	observed, _, _ := observedFig7a(t)
	if plain != observed {
		t.Fatalf("telemetry perturbed figure output:\nplain:\n%s\nobserved:\n%s", plain, observed)
	}
}

// TestTelemetrySinksDeterministic renders Explain(Standard, DAS) and
// Fig 7a with telemetry fully enabled, serially and with concurrent
// runs: merged sink output sorts by run label, so neither the figure
// bytes nor the sink bytes may depend on host scheduling or completion
// order. Observers is polled while the runs are in flight and must list
// completed runs in label order.
func TestTelemetrySinksDeterministic(t *testing.T) {
	observed := func(par int) (fig, csv, trace string) {
		s := NewSession(tinyConfig())
		s.Observe = &ObserveOptions{Metrics: true, Trace: true, ReqTraceN: 3}
		stop, polled := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(polled)
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				obs := s.Observers()
				for i := 1; i < len(obs); i++ {
					if obs[i-1].Label >= obs[i].Label {
						t.Errorf("Observers out of label order: %q before %q", obs[i-1].Label, obs[i].Label)
						return
					}
				}
			}
		}()
		fig = explainThen7a(t, s, par)
		close(stop)
		<-polled
		csv, trace = sinkBytes(t, s)
		return fig, csv, trace
	}
	figSerial, csvSerial, traceSerial := observed(1)
	figWide, csvWide, traceWide := observed(max(2, runtime.GOMAXPROCS(0)))
	if figSerial != figWide {
		t.Errorf("figure output depends on session parallelism")
	}
	if csvSerial != csvWide {
		t.Errorf("timeline CSV depends on session parallelism")
	}
	if traceSerial != traceWide {
		t.Errorf("trace JSON depends on session parallelism")
	}
	if !strings.Contains(csvSerial, "dram.cmd.act") {
		t.Errorf("timeline CSV missing dram command counters:\n%.400s", csvSerial)
	}
}

// TestTraceExportIsValidTraceEventJSON validates the exporter against
// the Chrome trace-event schema: top-level traceEvents array, every
// event carrying name/ph/pid/tid, complete events a non-negative
// ts+dur, instant events a scope, flow events an id, counter events an
// args.value, and metadata naming each process.
func TestTraceExportIsValidTraceEventJSON(t *testing.T) {
	_, _, trace := observedFig7a(t)
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  *string  `json:"name"`
			Ph    *string  `json:"ph"`
			Ts    *float64 `json:"ts"`
			Dur   *float64 `json:"dur"`
			Pid   *int     `json:"pid"`
			Tid   *int     `json:"tid"`
			Scope string   `json:"s"`
			ID    string   `json:"id"`
			Args  map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(trace), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events emitted")
	}
	var processes, complete, instant, flows, counters int
	for i, e := range doc.TraceEvents {
		if e.Name == nil || e.Ph == nil || e.Pid == nil || e.Tid == nil {
			t.Fatalf("event %d missing required field: %+v", i, e)
		}
		switch *e.Ph {
		case "M":
			if *e.Name == "process_name" {
				processes++
			}
		case "X":
			complete++
			if e.Ts == nil || e.Dur == nil || *e.Ts < 0 || *e.Dur < 0 {
				t.Fatalf("complete event %d lacks non-negative ts/dur: %+v", i, e)
			}
		case "i":
			instant++
			if e.Ts == nil || e.Scope == "" {
				t.Fatalf("instant event %d lacks ts/scope: %+v", i, e)
			}
		case "s", "f":
			flows++
			if e.Ts == nil || e.ID == "" {
				t.Fatalf("flow event %d lacks ts/id: %+v", i, e)
			}
		case "C":
			counters++
			if e.Ts == nil || *e.Ts < 0 {
				t.Fatalf("counter event %d lacks non-negative ts: %+v", i, e)
			}
			if _, ok := e.Args["value"]; !ok {
				t.Fatalf("counter event %d lacks args.value: %+v", i, e)
			}
		default:
			t.Fatalf("event %d has unexpected phase %q", i, *e.Ph)
		}
	}
	if processes == 0 {
		t.Error("no process_name metadata emitted")
	}
	if complete == 0 {
		t.Error("no complete (DRAM command) events emitted")
	}
	if flows == 0 || flows%2 != 0 {
		t.Errorf("request flow events = %d, want a positive even count (start/end pairs)", flows)
	}
	if counters == 0 {
		t.Error("no cumulative-energy counter events emitted")
	}
	_ = instant // fault events only appear on faulty-device runs
}

// TestTraceTracksHaveOneOwner runs a faulty, fully observed session and
// checks that every trace track has one name and every event sits on a
// track of its own kind. The device's energy counter, the manager's
// fault instants, reqtrace's REQ slices and the flow ends on the bank
// tracks come from different emitters, so two emitters claiming one
// track id show up here as a twice-named track or a misplaced event.
func TestTraceTracksHaveOneOwner(t *testing.T) {
	cfg := tinyConfig()
	cfg.WeakRowRate = 0.2
	cfg.MigFailRate = 0.1
	render := func(obs *ObserveOptions) (*Session, string) {
		s := NewSession(cfg)
		s.Benchmarks = []string{"mcf"}
		s.Observe = obs
		f, err := s.Figure("7a")
		if err != nil {
			t.Fatal(err)
		}
		return s, f.Render()
	}
	_, plain := render(nil)
	s, observed := render(&ObserveOptions{Metrics: true, Trace: true, ReqTraceN: 3})
	if observed != plain {
		t.Fatalf("telemetry perturbed the faulty figure:\nplain:\n%s\nobserved:\n%s", plain, observed)
	}

	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	type track struct{ pid, tid int }
	names := map[track]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" || e.Name != "thread_name" {
			continue
		}
		k := track{e.Pid, e.Tid}
		if prev, dup := names[k]; dup {
			t.Errorf("pid %d tid %d named twice: %q and %q", e.Pid, e.Tid, prev, e.Args.Name)
		}
		names[k] = e.Args.Name
	}

	bankTrack := regexp.MustCompile(`^ch\d+/rk\d+/bk\d+$`)
	coreTrack := regexp.MustCompile(`^core\d+ req$`)
	counts := map[string]int{}
	misplaced := 0
	for _, e := range doc.TraceEvents {
		on := names[track{e.Pid, e.Tid}]
		var kind string
		var ok bool
		switch {
		case e.Ph == "i":
			kind, ok = "fault instant", on == "faults"
		case e.Ph == "C" && e.Name == "energy_pj":
			kind, ok = "energy sample", on == "DRAM energy (cumulative pJ)"
		case e.Ph == "X" && e.Name == "REQ":
			kind, ok = "REQ slice", coreTrack.MatchString(on)
		case e.Ph == "f":
			kind, ok = "flow end", bankTrack.MatchString(on)
		default:
			continue
		}
		counts[kind]++
		if !ok {
			if misplaced++; misplaced <= 5 {
				t.Errorf("%s %q (pid %d tid %d) on track %q", kind, e.Name, e.Pid, e.Tid, on)
			}
		}
	}
	if misplaced > 5 {
		t.Errorf("... %d misplaced events in all", misplaced)
	}
	for _, kind := range []string{"fault instant", "energy sample", "REQ slice", "flow end"} {
		if counts[kind] == 0 {
			t.Errorf("no %s recorded; the run must exercise every emitter", kind)
		}
	}
}

// TestTimelineCountersNeverDecrease: every counter in a metrics
// timeline counts from its component's Reset and never restarts (the
// measurement window is exp.System's snapshot, not a reset), so no
// series falls from one epoch to the next. The 10 µs epochs straddle
// the warm-up boundary, and weak rows and migration failures move the
// fault counters too. Gauges (queue depths, live and pending MSHRs)
// and the histograms' mean and quantiles may fall, and are skipped.
func TestTimelineCountersNeverDecrease(t *testing.T) {
	cfg := tinyConfig()
	cfg.InstrPerCore = 100_000
	cfg.WeakRowRate = 0.2
	cfg.MigFailRate = 0.1
	s := NewSession(cfg)
	s.Benchmarks = []string{"mcf"}
	s.Observe = &ObserveOptions{Metrics: true, IntervalPS: 10_000_000}
	if _, err := s.Figure("7a"); err != nil {
		t.Fatal(err)
	}
	gauge := regexp.MustCompile(`^mc\.queue\.|\.mshr_(live|pending)$|\.(mean|p50|p99)$`)
	obs := s.Observers()
	if len(obs) == 0 {
		t.Fatal("no observed runs")
	}
	for _, o := range obs {
		last := make(map[string]float64)
		for _, e := range o.Timeline.Epochs() {
			for _, m := range e.Metrics {
				if gauge.MatchString(m.Name) {
					continue
				}
				if prev, ok := last[m.Name]; ok && m.Value < prev {
					t.Errorf("%s: %s fell from %v to %v at %d ps", o.Label, m.Name, prev, m.Value, e.AtPS)
				}
				last[m.Name] = m.Value
			}
		}
	}
}
