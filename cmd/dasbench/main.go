// Command dasbench regenerates the tables and figures of the paper's
// evaluation (Section 7). Without flags it prints the configuration
// tables; select experiments with -fig.
//
// Examples:
//
//	dasbench -fig 7a              # single-programming improvements
//	dasbench -fig all -out results.txt
//	dasbench -fig 7d -instr 2000000
//	dasbench -fig 7a -cpuprofile cpu.pprof -memprofile mem.pprof
//	dasbench -explain standard,das -out results_explain.txt
//	dasbench -fig energy -out results_energy.txt
//
// Figure text goes to stdout (and -out) and is byte-stable: it is the
// golden artifact asserted by internal/exp's regression tests. All
// diagnostics — per-figure wall-clock, events/sec and allocation
// footers — go to stderr only.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"slices"
	"strings"
	"syscall"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dasbench: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// notInAll are the catalog entries -fig all leaves out: all renders the
// paper's own tables and figures, while the energy model and the fault
// sweep go beyond the paper and are asked for by name.
var notInAll = []string{"energy", "faults"}

// figureList expands -fig: the aliases all and tables from the exp
// catalog, and otherwise a comma-separated list of names.
func figureList(figs string) []string {
	switch figs {
	case "all":
		return slices.DeleteFunc(exp.FigureNames(), func(n string) bool { return slices.Contains(notInAll, n) })
	case "tables":
		return exp.TableNames()
	}
	return strings.Split(figs, ",")
}

// run parses args and renders the selected figures to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dasbench", flag.ExitOnError)
	var (
		figs     = fs.String("fig", "tables", "comma-separated figures, or all or tables: "+strings.Join(exp.FigureNames(), ","))
		instr    = fs.Uint64("instr", 0, "instructions per core (0 = config default)")
		cfgPath  = fs.String("config", "", "JSON config file (default: episode-scaled Table 1)")
		fullScal = fs.Bool("full-scale", false, "use the full 8 GB Table 1 memory instead of the episode-scaled 1 GB")
		outPath  = fs.String("out", "", "write output to file instead of stdout")
		seed     = fs.Uint64("seed", 0, "override workload seed")
		csvDir   = fs.String("csv-dir", "", "also write each figure's tables as CSV files (plus perf.csv) into this directory")
		benchSel = fs.String("benchmarks", "", "comma-separated benchmark subset for single-programmed figures")
		mixSel   = fs.String("mixes", "", "comma-separated mix subset (M1..M8) for multi-programmed figures")

		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile (pprof) covering all selected figures to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile (pprof) taken after all figures to this file")
		traceFile = fs.String("trace", "", "write a runtime execution trace covering all selected figures to this file")

		// Telemetry (off by default; enabling it never changes figure
		// output — golden and determinism tests run with it on).
		metricsOut  = fs.String("metrics-out", "", "write per-run epoch metric timelines to this file (.json = JSON, anything else = CSV)")
		timelineOut = fs.String("timeline", "", "write simulated DRAM/migration/fault events as Chrome trace-event JSON (load in Perfetto or chrome://tracing) to this file")
		epochMS     = fs.Float64("timeline-interval", 0.1, "metric snapshot epoch in simulated milliseconds")
		httpAddr    = fs.String("http", "", "serve a debug endpoint (completed-run /metrics, /debug/vars, /debug/pprof) on this address, e.g. :8080")
		reqTraceN   = fs.Int("reqtrace", 0, "trace one in N measured demand loads per core through the hierarchy (0 = off; never changes figure output)")
		reqTraceOut = fs.String("reqtrace-out", "", "write per-run latency-attribution waterfalls to this file (.json = JSON, anything else = CSV)")
		explainSel  = fs.String("explain", "", "two designs 'A,B' (e.g. standard,das): run both with request tracing and print a ranked why-A≠B attribution report")

		// Fault injection (DAS management path; all rates zero = perfect
		// device). The -fig faults sweep sets these itself, one class at
		// a time with the others at zero.
		faultWeak    = fs.Float64("fault-weak", 0, "fraction of fast-subarray rows that are weak (served at slow timing, never promoted into)")
		faultMigFail = fs.Float64("fault-migfail", 0, "probability an in-flight migration fails and is retried")
		faultTag     = fs.Float64("fault-tag", 0, "probability a tag-cache hit is parity-corrupt and re-fetched")
		faultTable   = fs.Float64("fault-table", 0, "probability a fetched table block fails ECC and is re-fetched")
		faultRetries = fs.Int("fault-retries", -1, "failed-migration retries before pinning the row slow (-1 = config default)")
		faultSeed    = fs.Uint64("fault-seed", 0, "fault-stream seed (0 = derive from workload seed)")
		invariants   = fs.Bool("invariants", true, "verify management invariants after every committed swap")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Check the -benchmarks and -mixes names now, so a bad one fails
	// before any figure renders.
	split := func(list string) []string {
		if list == "" {
			return nil
		}
		return strings.Split(list, ",")
	}
	benchmarks, err := workload.NormalizeBenchmarks(split(*benchSel))
	if err != nil {
		return err
	}
	mixes, err := workload.NormalizeMixes(split(*mixSel))
	if err != nil {
		return err
	}
	// set holds the flags given on the command line: fault and invariant
	// flags override a -config file only when given, so the file's own
	// settings survive otherwise.
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	// Expand the -fig aliases and check every name against the figure
	// catalog now, so a bad one also fails before any output.
	wanted := figureList(*figs)
	if *explainSel != "" && !set["fig"] {
		wanted = nil // -explain alone skips the default tables
	}
	for i, name := range wanted {
		wanted[i] = strings.TrimSpace(strings.ToLower(name))
		if !slices.Contains(exp.FigureNames(), wanted[i]) {
			return fmt.Errorf("-fig: unknown figure %q", wanted[i])
		}
	}

	cfg := config.Scaled()
	if *fullScal {
		cfg = config.Default()
	}
	if *cfgPath != "" {
		c, err := config.Load(*cfgPath)
		if err != nil {
			return err
		}
		cfg = c
	}
	if *instr > 0 {
		cfg.InstrPerCore = *instr
	}
	if *seed > 0 {
		cfg.Seed = *seed
	}
	if set["fault-weak"] {
		cfg.WeakRowRate = *faultWeak
	}
	if set["fault-migfail"] {
		cfg.MigFailRate = *faultMigFail
	}
	if set["fault-tag"] {
		cfg.TagCorruptRate = *faultTag
	}
	if set["fault-table"] {
		cfg.TableCorruptRate = *faultTable
	}
	if *faultRetries >= 0 {
		cfg.MigRetries = *faultRetries
	}
	if *faultSeed > 0 {
		cfg.FaultSeed = *faultSeed
	}
	if set["invariants"] {
		cfg.CheckInvariants = *invariants
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = io.MultiWriter(stdout, f)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer trace.Stop()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Print(err)
				return
			}
			defer f.Close()
			runtime.GC() // profile live objects, not transients
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
	}

	s := exp.NewSession(cfg)
	s.Benchmarks, s.Mixes = benchmarks, mixes
	var explainA, explainB core.Design
	if *explainSel != "" {
		// Parse up front so a bad design pair fails before any figure runs.
		var err error
		if explainA, explainB, err = parseExplain(*explainSel); err != nil {
			return err
		}
	}
	traceEvery := *reqTraceN
	if *explainSel != "" && traceEvery <= 0 {
		traceEvery = 1 // -explain needs the flight recorder; default to every load
	}
	if *metricsOut != "" || *timelineOut != "" || *httpAddr != "" || traceEvery > 0 {
		s.Observe = &exp.ObserveOptions{
			Metrics:    *metricsOut != "" || *httpAddr != "",
			Trace:      *timelineOut != "",
			IntervalPS: int64(*epochMS * 1e9),
			ReqTraceN:  traceEvery,
		}
	}
	var pub *telemetry.Publisher
	if *httpAddr != "" {
		pub = telemetry.NewPublisher()
		addr, err := pub.Serve(*httpAddr)
		if err != nil {
			return err
		}
		log.Printf("debug endpoint: http://%s/", addr)
		defer pub.Shutdown(context.Background())
	}

	// Ctrl-C / SIGTERM cancels the in-flight figure promptly: the session
	// context is polled inside every run at the observation stride, so a
	// signal aborts mid-simulation instead of waiting for the figure to
	// finish, and the sink writers further down still run, flushing
	// whatever completed instead of dropping it. A second signal kills
	// the process via the default handler (stop() reinstalls it).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	s.Ctx = ctx

	// The figures render in order, then the -explain report; each goes
	// through the same render, CSV, perf and publish steps.
	type report struct {
		name   string
		render func() (*exp.Figure, error)
	}
	var reports []report
	for _, name := range wanted {
		reports = append(reports, report{name, func() (*exp.Figure, error) { return s.Figure(name) }})
	}
	if *explainSel != "" {
		reports = append(reports, report{"explain", func() (*exp.Figure, error) { return s.Explain(explainA, explainB) }})
	}

	perfCSV := "figure,wall_seconds,events,events_per_sec,alloc_bytes,alloc_objects\n"
	for _, r := range reports {
		if ctx.Err() != nil {
			log.Print("interrupted; flushing sinks")
			break
		}
		fig, err := s.Measured(r.render)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				log.Printf("%s: interrupted mid-figure; flushing sinks", r.name)
				break
			}
			return fmt.Errorf("%s: %w", r.name, err)
		}
		fmt.Fprint(out, fig.Render())
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, fig); err != nil {
				return err
			}
		}
		log.Printf("%s: %s", fig.ID, fig.Perf)
		perfCSV += fmt.Sprintf("%s,%.3f,%d,%.0f,%d,%d\n",
			fig.ID, fig.Perf.Wall.Seconds(), fig.Perf.Events,
			fig.Perf.EventsPerSec(), fig.Perf.AllocBytes, fig.Perf.AllocObjects)
		if pub != nil {
			s.PublishTo(pub)
		}
	}
	if *csvDir != "" {
		if err := os.WriteFile(filepath.Join(*csvDir, "perf.csv"), []byte(perfCSV), 0o644); err != nil {
			return err
		}
	}
	if *reqTraceOut != "" {
		if err := writeSink(*reqTraceOut, func(w io.Writer) error {
			if strings.HasSuffix(*reqTraceOut, ".json") {
				return s.WriteReqTraceJSON(w)
			}
			return s.WriteReqTraceCSV(w)
		}); err != nil {
			return fmt.Errorf("reqtrace-out: %w", err)
		}
	}
	if *metricsOut != "" {
		if err := writeSink(*metricsOut, func(w io.Writer) error {
			if strings.HasSuffix(*metricsOut, ".json") {
				return s.WriteTimelineJSON(w)
			}
			return s.WriteTimelineCSV(w)
		}); err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
	}
	if *timelineOut != "" {
		if err := writeSink(*timelineOut, s.WriteTrace); err != nil {
			return fmt.Errorf("timeline: %w", err)
		}
	}
	return nil
}

// parseExplain parses the -explain "A,B" design pair.
func parseExplain(sel string) (core.Design, core.Design, error) {
	parts := strings.Split(sel, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("explain: want two designs 'A,B', got %q", sel)
	}
	da, err := core.ParseDesign(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, 0, fmt.Errorf("explain: %w", err)
	}
	db, err := core.ParseDesign(strings.TrimSpace(parts[1]))
	if err != nil {
		return 0, 0, fmt.Errorf("explain: %w", err)
	}
	return da, db, nil
}

// writeSink creates path and streams one telemetry sink into it.
func writeSink(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCSVs dumps each of a figure's tables as <dir>/<figID>[-i].csv.
func writeCSVs(dir string, fig *exp.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, tbl := range fig.Tables {
		name := fig.ID
		if len(fig.Tables) > 1 {
			name = fmt.Sprintf("%s-%d", fig.ID, i+1)
		}
		path := filepath.Join(dir, name+".csv")
		if err := os.WriteFile(path, []byte(tbl.CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
