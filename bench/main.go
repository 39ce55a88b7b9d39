// Command bench is the repository benchmark. It measures how fast the
// DAS-DRAM simulator regenerates a paper sweep and serves runs through
// dasserve, end to end, and which layer owns the host time.
//
// One invocation runs one named workload (or all four when -workload is
// empty) and prints, as the last line of standard output, one JSON object
// with the keys correct, attempted, failed and metrics. With -trace 0 the
// metrics are the end-to-end metrics; with -trace 1 they are the
// per-layer ledger. Outputs are checked against goldens on the default
// seed and against the run's own first pass on any other seed. See
// README.md for the workloads, the metrics and how to compare two sets
// of runs.
//
// Each simulation workload runs in child processes (re-executions of
// this binary with GOMAXPROCS=2 and Session.Parallelism=1), so set-up
// time and peak memory are per workload. The service workload drives a
// dasserve child process over two closed-loop connections.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed the goldens in testdata were recorded with. It
// equals config.Default().Seed, so the default benchmark inputs are the
// repository's default inputs.
const defaultSeed = 42

// metricDef describes one reported metric. The lists below mirror
// BENCHMARK.json (bench_test.go holds them to it).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees, printed for every
// workload with -trace 0.
var endToEnd = []metricDef{
	{"instr_per_s", "1/s"},
	{"req_per_s", "1/s"},
	{"req_ms_p50", "ms"},
	{"miss_ms_p90", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// hostLayers are the buckets host CPU samples fold into: the simulator's
// modules by import path, the Go runtime, and everything else.
var hostLayers = []string{"sim", "workload", "cpu", "cache", "core", "mc", "dram", "energy", "exp", "serve", "runtime", "other"}

// perLayer are the single-layer metrics, printed for every workload with
// -trace 1.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events_per_kinstr", "1/kinstr"},
		{"cache.llc_mpki", "1/kinstr"},
		{"core.tag_hit_ratio", "frac"},
		{"core.promotions_per_kmiss", "1/kmiss"},
		{"core.table_fetches_per_kinstr", "1/kinstr"},
		{"mc.row_hit_frac", "frac"},
		{"mc.read_lat_ns", "ns"},
		{"dram.acts_per_kinstr", "1/kinstr"},
		{"dram.writes_per_kinstr", "1/kinstr"},
		{"dram.migrations_per_kinstr", "1/kinstr"},
		{"cpu.ipc", "instr/cycle"},
		{"energy.pj_per_instr", "pJ/instr"},
		{"exp.das_improvement_pct", "%"},
	}
	for _, l := range hostLayers {
		defs = append(defs, metricDef{l + ".host_share", "frac"})
	}
	return append(defs,
		metricDef{"prof.samples", "count"},
		metricDef{"workload.ns_per_instr", "ns"},
		metricDef{"cpu.ns_per_instr", "ns"},
		metricDef{"cache.ns_per_access", "ns"},
		metricDef{"mc.ns_per_request", "ns"},
		metricDef{"core.ns_per_access", "ns"},
		metricDef{"sim.host_ns_per_event", "ns"},
		metricDef{"exp.run_ms_p50", "ms"},
		metricDef{"runtime.gc_cpu_frac", "frac"},
		metricDef{"runtime.alloc_mb_per_minstr", "MB/Minstr"},
		metricDef{"exp.pool_hit_rate", "frac"},
		metricDef{"trace_overhead_frac", "frac"},
	)
}()

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    string // "full" or "smoke"
	dasserve string
	workdir  string
	out      string
	update   bool
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	failures          []string           // why ops failed, for the log
	metrics           map[string]float64 // by metric name
	notes             []string           // human-readable report lines
	digests           map[string]string  // output digests (for -update)
	spans             []span
}

// metric is one entry of the result's metrics object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if p, ok := childFromEnv(); ok {
		os.Exit(childMain(p))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run parses args, runs the selected workloads and writes the report to
// stdout. It returns the process exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	var trace int
	compare := fs.Bool("compare", false, "compare two -out files given as arguments: bench -compare A.jsonl B.jsonl")
	fs.StringVar(&o.workload, "workload", "", "workload to run (empty = all: "+strings.Join(workloadNames(), ", ")+")")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "input seed; goldens are checked on the default seed")
	fs.Float64Var(&o.seconds, "seconds", 25, "measured window per workload, seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer ledger; 0 = end-to-end metrics")
	fs.StringVar(&o.scale, "scale", "full", "full, or smoke for tiny inputs (tests)")
	fs.StringVar(&o.dasserve, "dasserve", ".bench_build/dasserve", "dasserve binary for the serve workload")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for run files: server address files, trace-<workload>.json")
	fs.StringVar(&o.out, "out", "", "append one JSON record per workload run to this file (input of -compare)")
	fs.BoolVar(&o.update, "update", false, "rewrite the goldens for -scale from this run (default seed only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two files")
			return 2
		}
		return runCompare("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout)
	}
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	if o.scale != "full" && o.scale != "smoke" {
		fmt.Fprintf(os.Stderr, "bench: -scale must be full or smoke, got %q\n", o.scale)
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	if o.update && o.seed != defaultSeed {
		fmt.Fprintf(os.Stderr, "bench: -update records goldens for the default seed %d only\n", defaultSeed)
		return 2
	}
	names := workloadNames()
	if o.workload != "" {
		if lookupWorkload(o.workload) == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(names, ", "))
			return 2
		}
		names = []string{o.workload}
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}

	// One workload prints its own result; several print one result with
	// metrics keyed <workload>/<metric>.
	all := &result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		res, err := runOne(o, name, stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		if len(names) == 1 {
			all = res
			break
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[name+"/"+k] = m
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runOne runs one workload, prints its report lines and returns its
// result.
func runOne(o options, name string, stdout io.Writer) (*result, error) {
	w := lookupWorkload(name)
	o.workload = name
	start := time.Now()
	oc, err := w.run(o)
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := &result{
		Correct:   oc.failed == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	mode := "end-to-end"
	if o.trace {
		mode = "traced"
	}
	fmt.Fprintf(stdout, "== %s (%s, seed %d, scale %s, %.1fs wall)\n", name, mode, o.seed, o.scale, time.Since(start).Seconds())
	for _, n := range oc.notes {
		fmt.Fprintln(stdout, "  "+n)
	}
	for _, f := range oc.failures {
		fmt.Fprintln(stdout, "  FAILED: "+f)
	}
	for _, d := range defs {
		v, ok := oc.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(stdout, "  ops: %d attempted, %d failed\n", oc.attempted, oc.failed)

	if o.trace {
		path := filepath.Join(o.workdir, "trace-"+name+".json")
		if err := writeChromeTrace(path, oc.spans); err != nil {
			return nil, err
		}
		self := selfTimes(oc.spans)
		layers := make([]string, 0, len(self))
		for l := range self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		fmt.Fprintf(stdout, "  span self time by layer (%d spans, written to %s):\n", len(oc.spans), path)
		for _, l := range layers {
			fmt.Fprintf(stdout, "    %-10s %10.3f ms\n", l, float64(self[l])/1e6)
		}
	}
	if o.update {
		if err := writeGolden(o.scale, name, oc.digests); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "  goldens for %s/%s updated\n", o.scale, name)
	}
	if o.out != "" {
		if err := appendRecord(o.out, record{Workload: name, Seed: o.seed, Trace: o.trace, Result: *res}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// workloadDef is one named workload.
type workloadDef struct {
	name string
	run  func(o options) (*outcome, error)
}

// workloads lists the benchmark's workloads in presentation order.
var workloads = []workloadDef{
	{"fig7a-sweep", runSimWorkload},
	{"light-1core", runSimWorkload},
	{"mix4-writes", runSimWorkload},
	{"serve-closedloop", runServe},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
