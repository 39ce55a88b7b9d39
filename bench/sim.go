package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/stats"
)

// simSpec is one simulation workload: the benchmark sets and designs one
// pass runs through exp.Session, and the instruction budget per core.
// Budgets are sized so a full-scale pass takes about two seconds on a
// 2-core x86 VM, giving the median several passes per measured window.
type simSpec struct {
	name    string
	sets    [][]string
	designs []core.Design // Standard first: every other design is normalized to it
	instr   map[string]uint64
	fig7a   bool // render Session.Figure("7a"); otherwise DesignFigure(DAS) per set
}

var simSpecs = []simSpec{
	{
		// The headline user action: every Figure 7a design against one
		// Standard baseline on the two highest-MPKI benchmarks, with the
		// profiled static designs and pooled machines across sweep points.
		name:    "fig7a-sweep",
		sets:    [][]string{{"mcf"}, {"soplex"}},
		designs: []core.Design{core.Standard, core.SAS, core.CHARM, core.DAS, core.DASFM, core.FS},
		instr:   map[string]uint64{"full": 1_000_000, "smoke": 60_000},
		fig7a:   true,
	},
	{
		// Low MPKI (2.5 / 4.3): cpu, workload and L1/L2 do most of the
		// work, so a controller, device or DAS-manager change must not move
		// this workload.
		name:    "light-1core",
		sets:    [][]string{{"astar"}, {"cactusADM"}},
		designs: []core.Design{core.Standard, core.DAS},
		instr:   map[string]uint64{"full": 4_000_000, "smoke": 150_000},
	},
	{
		// Table 2 mix M8 on four cores: contention for one controller,
		// about a quarter of DRAM traffic is writes (the write-drain path),
		// the deepest queues and the most events per instruction.
		name:    "mix4-writes",
		sets:    [][]string{{"lbm", "libquantum", "mcf", "soplex"}},
		designs: []core.Design{core.Standard, core.DAS},
		instr:   map[string]uint64{"full": 600_000, "smoke": 40_000},
	},
}

func lookupSim(name string) *simSpec {
	for i := range simSpecs {
		if simSpecs[i].name == name {
			return &simSpecs[i]
		}
	}
	return nil
}

func (w *simSpec) config(seed uint64, scale string) config.Config {
	cfg := config.Scaled()
	cfg.Seed = seed
	cfg.InstrPerCore = w.instr[scale]
	return cfg
}

func runKey(d core.Design, set []string) string {
	return d.String() + "|" + strings.Join(set, "+")
}

// setup builds every machine a pass uses into pool and computes the row
// profiles the static designs need: the work a fresh process does before
// its first simulated instruction.
func (w *simSpec) setup(cfg config.Config, pool *exp.SystemPool) error {
	s := exp.NewSession(cfg)
	s.Parallelism = 1
	for _, set := range w.sets {
		c := cfg
		c.Cores = len(set)
		for _, d := range w.designs {
			var static *core.StaticAssignment
			if d.Static() {
				a, err := s.StaticAssignment(set, c.FastDenom)
				if err != nil {
					return err
				}
				static = a
			}
			sys, _, err := exp.Build(c, d, set, static, false)
			if err != nil {
				return err
			}
			pool.Put(sys)
		}
	}
	return nil
}

// runResult is one simulation run of a pass.
type runResult struct {
	design core.Design
	set    []string
	res    *exp.Result
}

// passReport is what one pass measured and produced.
type passReport struct {
	WallNS  int64             `json:"wall_ns"`
	Speed   float64           `json:"speed"` // control-kernel speed around the pass (control.go)
	Instrs  uint64            `json:"instrs"`
	Events  uint64            `json:"events"`
	Traced  bool              `json:"traced"`
	RunsNS  []int64           `json:"runs_ns"`
	Digests map[string]string `json:"digests"`
	Errors  []string          `json:"errors"`
}

// pass runs every design over every set on a fresh Session sharing pool,
// then renders the workload's figure from the session's memoized runs.
func (w *simSpec) pass(cfg config.Config, pool *exp.SystemPool, tr *tracer, i int) (passReport, []runResult) {
	id := fmt.Sprintf("pass%d", i)
	start := time.Now()
	ps := tr.begin(id, "exp", -1, id, 0)
	s := exp.NewSession(cfg)
	s.Parallelism = 1
	s.Pool = pool
	if w.fig7a {
		for _, set := range w.sets {
			s.Benchmarks = append(s.Benchmarks, set...)
		}
	}
	pr := passReport{Traced: tr != nil, Digests: map[string]string{}}
	var results []runResult
	for _, set := range w.sets {
		for _, d := range w.designs {
			key := runKey(d, set)
			t0 := time.Now()
			sp := tr.begin("Session.Cached "+key, "exp", ps, key, 0)
			res, err := s.Cached(cfg, d, set)
			tr.end(sp)
			pr.RunsNS = append(pr.RunsNS, time.Since(t0).Nanoseconds())
			if err != nil {
				pr.Errors = append(pr.Errors, fmt.Sprintf("%s: %v", key, err))
				continue
			}
			pr.Digests[key] = digest(fmt.Sprintf("%+v", *res))
			results = append(results, runResult{d, set, res})
		}
	}
	sp := tr.begin("render", "exp", ps, id, 0)
	text, err := w.render(s)
	tr.end(sp)
	if err != nil {
		pr.Errors = append(pr.Errors, fmt.Sprintf("render: %v", err))
	} else {
		pr.Digests["figure"] = digest(text)
	}
	tr.end(ps)
	pr.WallNS = time.Since(start).Nanoseconds()
	pr.Instrs, pr.Events = s.InstrsRetired(), s.EventsExecuted()
	return pr, results
}

func (w *simSpec) render(s *exp.Session) (string, error) {
	if w.fig7a {
		f, err := s.Figure("7a")
		if err != nil {
			return "", err
		}
		return f.Render(), nil
	}
	var b strings.Builder
	for _, set := range w.sets {
		f, err := s.DesignFigure(core.DAS, set)
		if err != nil {
			return "", err
		}
		b.WriteString(f.Render())
	}
	return b.String(), nil
}

// childEnv carries a worker child's parameters (JSON); its presence
// selects child mode in main and TestMain.
const childEnv = "DASBENCH_CHILD"

type childParams struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	Scale     string  `json:"scale"`
	SetupOnly bool    `json:"setup_only"`
}

// childReport is a worker child's output, the JSON after its ready line.
type childReport struct {
	Passes []passReport       `json:"passes"`
	Layer  map[string]float64 `json:"layer"` // traced runs: per-layer metrics
	Prof   map[string]int64   `json:"prof"`  // traced runs: CPU samples by layer
	Spans  []span             `json:"spans"`
	Notes  []string           `json:"notes"`
}

func childFromEnv() (childParams, bool) {
	v := os.Getenv(childEnv)
	if v == "" {
		return childParams{}, false
	}
	var p childParams
	if err := json.Unmarshal([]byte(v), &p); err != nil {
		fmt.Fprintf(os.Stderr, "bench child: bad %s: %v\n", childEnv, err)
		os.Exit(2)
	}
	return p, true
}

// childMain is a worker child's entry point: set up, print "ready", run
// the measured window, print the report.
func childMain(p childParams) int {
	if err := runChild(p, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "bench child %s: %v\n", p.Workload, err)
		return 1
	}
	return 0
}

func runChild(p childParams, out io.Writer) error {
	w := lookupSim(p.Workload)
	if w == nil {
		return fmt.Errorf("unknown simulation workload %q", p.Workload)
	}
	cfg := w.config(p.Seed, p.Scale)
	pool := exp.NewSystemPool(0)
	if err := w.setup(cfg, pool); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	fmt.Fprintln(out, "ready")
	if p.SetupOnly {
		return nil
	}

	var tr *tracer
	if p.Trace {
		tr = newTracer(2)
	}
	rep := childReport{}
	pool0 := pool.Stats()
	prof := map[string]int64{}
	var first []runResult
	var tracedAlloc, tracedInstrs uint64
	window := time.Duration(p.Seconds * float64(time.Second))
	ctl := newControl()
	speed := ctl.speed()
	start := time.Now()
	var last time.Duration
	// At least two passes, so every run compares a later pass with the
	// first; then as many as fit the window. Traced runs alternate
	// untraced and traced (profiled, spanned) passes.
	for i := 0; i < 2 || time.Since(start)+last <= window; i++ {
		traced := p.Trace && i%2 == 1
		var buf bytes.Buffer
		var ms0 runtime.MemStats
		passTr := (*tracer)(nil)
		if traced {
			passTr = tr
			runtime.ReadMemStats(&ms0)
			if err := pprof.StartCPUProfile(&buf); err != nil {
				return err
			}
		}
		pr, results := w.pass(cfg, pool, passTr, i)
		if traced {
			pprof.StopCPUProfile()
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			tracedAlloc += ms1.TotalAlloc - ms0.TotalAlloc
			tracedInstrs += pr.Instrs
			if err := foldProfile(buf.Bytes(), prof); err != nil {
				return err
			}
		}
		next := ctl.speed()
		pr.Speed, speed = (speed+next)/2, next
		if i == 0 {
			first = results
		}
		last = time.Duration(pr.WallNS)
		rep.Passes = append(rep.Passes, pr)
	}

	if p.Trace {
		layer := exactCounts(first)
		set := w.sets[0]
		dcfg := cfg
		dcfg.Cores = len(set)
		drv, err := runDrivers(dcfg, set[0], p.Scale, tr)
		if err != nil {
			return fmt.Errorf("replay drivers: %w", err)
		}
		for k, v := range drv {
			layer[k] = v
		}
		var untracedIPS, tracedIPS, nsPerEvent, runMS []float64
		for _, ps := range rep.Passes {
			ips := float64(ps.Instrs) / (float64(ps.WallNS) / 1e9)
			if ps.Traced {
				tracedIPS = append(tracedIPS, ips)
				for _, r := range ps.RunsNS {
					runMS = append(runMS, float64(r)/1e6)
				}
			} else {
				untracedIPS = append(untracedIPS, ips)
				nsPerEvent = append(nsPerEvent, float64(ps.WallNS)/float64(ps.Events))
			}
		}
		layer["sim.host_ns_per_event"] = median(nsPerEvent)
		layer["exp.run_ms_p50"] = median(runMS)
		layer["trace_overhead_frac"] = 1 - median(tracedIPS)/median(untracedIPS)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		layer["runtime.gc_cpu_frac"] = ms.GCCPUFraction
		layer["runtime.alloc_mb_per_minstr"] = float64(tracedAlloc) / (1 << 20) / (float64(tracedInstrs) / 1e6)
		ps := pool.Stats()
		hits, misses := ps.Hits-pool0.Hits, ps.Misses-pool0.Misses
		layer["exp.pool_hit_rate"] = float64(hits) / float64(hits+misses)
		rep.Layer, rep.Prof, rep.Spans = layer, prof, tr.all()
		rep.Notes = captureNote(w, first)
	}
	return json.NewEncoder(out).Encode(rep)
}

// exactCounts derives the simulated per-layer counts of a pass's runs.
// They are pure functions of the inputs and repeat bit for bit. The core.*
// ratios come from the DAS runs, the designs that use the tag cache.
func exactCounts(results []runResult) map[string]float64 {
	var events, kinstr, misses, rb, served, reads, latSum, acts, writes, migs, pj float64
	var ipc, tagHit, imps []float64
	var dasProm, dasMiss, dasFetch, dasKinstr float64
	base := map[string]*exp.Result{}
	for _, r := range results {
		res := r.res
		ki := float64(res.InstrsTotal) / 1000
		events += float64(res.Events)
		kinstr += ki
		var m float64
		for _, c := range res.PerCore {
			m += float64(c.LLCMisses)
			ipc = append(ipc, c.IPC)
		}
		misses += m
		rb += float64(res.Access.RowBuffer)
		served += float64(res.Access.Total())
		var n float64
		for _, h := range res.ReadLatHist {
			n += float64(h)
		}
		reads += n
		latSum += res.AvgReadLatencyNS * n
		acts += float64(res.DevStats.Activates)
		writes += float64(res.DevStats.Writes)
		migs += float64(res.DevStats.Migrations)
		pj += float64(res.Energy.TotalPJ())
		key := strings.Join(r.set, "+")
		switch r.design {
		case core.Standard:
			base[key] = res
		case core.DAS:
			tagHit = append(tagHit, res.TagHitRatio)
			dasProm += float64(res.Promotions)
			dasMiss += m
			dasFetch += float64(res.TableFetches)
			dasKinstr += ki
			if b := base[key]; b != nil {
				imps = append(imps, res.Improvement(b))
			}
		}
	}
	return map[string]float64{
		"sim.events_per_kinstr":         events / kinstr,
		"cache.llc_mpki":                misses / kinstr,
		"core.tag_hit_ratio":            stats.Mean(tagHit),
		"core.promotions_per_kmiss":     dasProm / (dasMiss / 1000),
		"core.table_fetches_per_kinstr": dasFetch / dasKinstr,
		"mc.row_hit_frac":               rb / served,
		"mc.read_lat_ns":                latSum / reads,
		"dram.acts_per_kinstr":          acts / kinstr,
		"dram.writes_per_kinstr":        writes / kinstr,
		"dram.migrations_per_kinstr":    migs / kinstr,
		"cpu.ipc":                       stats.Mean(ipc),
		"energy.pj_per_instr":           pj / (kinstr * 1000),
		"exp.das_improvement_pct":       stats.Mean(imps),
	}
}

// captureNote reports, for the Figure 7a sweep, how much of the FS-DRAM
// upper bound DAS-DRAM captures, beside the paper's 83%: the only
// reference result the repository holds. The model is otherwise
// unvalidated.
func captureNote(w *simSpec, results []runResult) []string {
	if !w.fig7a {
		return nil
	}
	base := map[string]*exp.Result{}
	ratios := map[core.Design][]float64{}
	for _, r := range results {
		key := strings.Join(r.set, "+")
		if r.design == core.Standard {
			base[key] = r.res
		} else if b := base[key]; b != nil {
			ratios[r.design] = append(ratios[r.design], r.res.Speedup(b))
		}
	}
	das, err1 := stats.GmeanImprovementErr(ratios[core.DAS])
	fs, err2 := stats.GmeanImprovementErr(ratios[core.FS])
	if err1 != nil || err2 != nil || fs == 0 {
		return []string{"exp.das_fs_capture_pct: n/a"}
	}
	return []string{fmt.Sprintf("exp.das_fs_capture_pct %.1f%% (DAS %+.2f%% / FS %+.2f%% gmean; paper: 83%%; the model is otherwise unvalidated)",
		das/fs*100, das, fs)}
}

// moreSetups says whether a workload should time another fresh process
// from spawn to ready, having timed n since start: at least three, then
// as many as fit in two seconds, at most fifteen. setup_s is their
// median, each scaled by a control-kernel sample taken just before; the
// last process goes on to run the measured window.
func moreSetups(n int, start time.Time) bool {
	return n < 3 || (n < 15 && time.Since(start) < 2*time.Second)
}

// runSimWorkload is the parent side of a simulation workload.
func runSimWorkload(o options) (*outcome, error) {
	want, err := referenceDigests(o)
	if err != nil {
		return nil, err
	}
	p := childParams{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Scale: o.scale}
	var tr *tracer
	if o.trace {
		tr = newTracer(1)
	}
	var setups []float64
	var rep *childReport
	var rssKB int64
	ctl := newControl()
	for start := time.Now(); rep == nil; {
		p.SetupOnly = moreSetups(len(setups)+1, start)
		speed := ctl.speed()
		c, err := spawnChild(p, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, c.ready.Seconds()*speed)
		rep, rssKB = c.report, c.rssKB
	}
	if len(rep.Passes) == 0 {
		return nil, fmt.Errorf("child measured no passes")
	}

	oc := &outcome{metrics: map[string]float64{}, digests: rep.Passes[0].Digests}
	ref := want
	if ref == nil {
		ref = rep.Passes[0].Digests
	}
	var ips, rps, runMS, speeds []float64
	for i, ps := range rep.Passes {
		oc.attempted += len(ps.RunsNS) + 1 // the runs plus the render
		bad := append(append([]string(nil), ps.Errors...), checkDigests(ps.Digests, ref, fmt.Sprintf("pass %d", i))...)
		oc.failed += min(len(bad), len(ps.RunsNS)+1)
		oc.failures = append(oc.failures, bad...)
		wall := float64(ps.WallNS) / 1e9 * ps.Speed // at the nominal machine speed
		ips = append(ips, float64(ps.Instrs)/wall)
		rps = append(rps, float64(len(ps.RunsNS))/wall)
		for _, r := range ps.RunsNS {
			runMS = append(runMS, float64(r)/1e6*ps.Speed)
		}
		speeds = append(speeds, ps.Speed)
	}
	check := "first pass"
	if want != nil {
		check = "golden"
	}
	q := quartiles(ips)
	oc.notes = append(oc.notes,
		fmt.Sprintf("%d passes of %d runs; instr_per_s quartiles %.4g / %.4g / %.4g; outputs checked against the %s",
			len(rep.Passes), len(rep.Passes[0].RunsNS), q[0], q[1], q[2], check),
		fmt.Sprintf("control speed per pass %s", fmtFloats(speeds)),
		fmt.Sprintf("setup_s samples %s", fmtFloats(setups)))
	oc.notes = append(oc.notes, rep.Notes...)
	oc.metrics["instr_per_s"] = median(ips)
	oc.metrics["req_per_s"] = median(rps)
	oc.metrics["req_ms_p50"] = quantile(runMS, 0.5)
	oc.metrics["miss_ms_p90"] = quantile(runMS, 0.9)
	oc.metrics["setup_s"] = median(setups)
	oc.metrics["peak_rss_mb"] = float64(rssKB) / 1024
	if o.trace {
		for k, v := range rep.Layer {
			oc.metrics[k] = v
		}
		addProfile(oc, rep.Prof)
		oc.spans = tr.all()
	}
	return oc, nil
}

// addProfile reports host CPU samples by layer: shares as metrics and the
// integer counts, which sum exactly to prof.samples, as report lines.
func addProfile(oc *outcome, prof map[string]int64) {
	var total int64
	for _, l := range hostLayers {
		total += prof[l]
	}
	oc.metrics["prof.samples"] = float64(total)
	for _, l := range hostLayers {
		share := 0.0
		if total > 0 {
			share = float64(prof[l]) / float64(total)
		}
		oc.metrics[l+".host_share"] = share
		oc.notes = append(oc.notes, fmt.Sprintf("prof %s %d", l, prof[l]))
	}
	oc.notes = append(oc.notes, fmt.Sprintf("prof.samples %d", total))
}

func fmtFloats(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(s, " ")
}

// child is one finished worker process.
type child struct {
	ready  time.Duration // spawn to the ready line
	report *childReport  // nil for setup-only children
	rssKB  int64         // peak resident set (VmHWM)
}

// spawnChild re-executes this binary as a worker with GOMAXPROCS=2, times
// it to its ready line, reads its report and waits for it to exit. The
// child's spans join tr.
func spawnChild(p childParams, tr *tracer) (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), childEnv+"="+string(arg), "GOMAXPROCS=2")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{}
	br := bufio.NewReader(stdout)
	line, rerr := br.ReadString('\n')
	c.ready = time.Since(start)
	if rerr == nil && line != "ready\n" {
		rerr = fmt.Errorf("unexpected first line %q", line)
	}
	if rerr == nil && !p.SetupOnly {
		c.report = &childReport{}
		rerr = json.NewDecoder(br).Decode(c.report)
	}
	io.Copy(io.Discard, br) // let the child finish writing before Wait closes the pipe
	werr := cmd.Wait()
	if werr != nil {
		return nil, fmt.Errorf("worker child: %w", werr)
	}
	if rerr != nil {
		return nil, fmt.Errorf("worker child output: %w", rerr)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.rssKB = ru.Maxrss
	}
	if c.report != nil {
		tr.adopt(c.report.Spans, start)
	}
	return c, nil
}
