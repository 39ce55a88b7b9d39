package exp

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workload"
)

func TestMakeGeneratorScalesFootprint(t *testing.T) {
	cfg := tinyConfig() // 64 MB memory: scale = 1/128
	gen, err := MakeGenerator(cfg, "mcf", 0)
	if err != nil {
		t.Fatal(err)
	}
	span := CoreSpan(cfg)
	var in workload.Instr
	for i := 0; i < 100000; i++ {
		gen.Next(&in)
		if in.Mem && in.Addr >= span {
			t.Fatalf("address %#x outside core span %#x", in.Addr, span)
		}
	}
}

func TestMakeGeneratorDesignIndependent(t *testing.T) {
	// The stream must not depend on anything but (cfg.Seed, core index),
	// so every design sees identical instructions.
	cfg := tinyConfig()
	a, _ := MakeGenerator(cfg, "soplex", 0)
	b, _ := MakeGenerator(cfg, "soplex", 0)
	var ia, ib workload.Instr
	for i := 0; i < 50000; i++ {
		a.Next(&ia)
		b.Next(&ib)
		if ia != ib {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestCoreSpanRowAlignedAndDisjoint(t *testing.T) {
	cfg := tinyConfig()
	cfg.Cores = 4
	span := CoreSpan(cfg)
	geom := cfg.Geometry()
	if span%geom.RowBytes() != 0 {
		t.Fatal("span not row-aligned")
	}
	if span*4 > geom.Capacity()-core.TableReserveBytes(geom) {
		t.Fatal("core spans overlap the table reserve")
	}
}

func TestProfilePassCoversFootprint(t *testing.T) {
	cfg := tinyConfig()
	prof, err := ProfilePass(cfg, []string{"mcf"})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Rows() == 0 {
		t.Fatal("profile empty")
	}
	// All profiled rows must fall inside the usable region.
	geom := cfg.Geometry()
	usableRows := (geom.Capacity() - core.TableReserveBytes(geom)) / geom.RowBytes()
	_ = usableRows
	if uint64(prof.Rows()) > geom.TotalRows() {
		t.Fatal("profiled more rows than exist")
	}
}

func TestSessionBaselineCached(t *testing.T) {
	cfg := tinyConfig()
	s := NewSession(cfg)
	a, err := s.Baseline([]string{"libquantum"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Baseline([]string{"libquantum"})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("baseline not cached (distinct results)")
	}
}

func TestSessionCachedMemoizes(t *testing.T) {
	cfg := tinyConfig()
	s := NewSession(cfg)
	a, err := s.Cached(cfg, core.FS, []string{"libquantum"})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Cached(cfg, core.FS, []string{"libquantum"})
	if a != b {
		t.Fatal("identical runs not memoized")
	}
	// A different knob must produce a fresh run.
	cfg2 := cfg
	cfg2.GroupSize = 16
	c, err := s.Cached(cfg2, core.DAS, []string{"libquantum"})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := s.Cached(cfg, core.DAS, []string{"libquantum"})
	if c == d {
		t.Fatal("different group sizes shared a cache entry")
	}
}

// TestRunIdentityIsWholeConfig: a session whose memo already holds mcf
// is asked for Standard, DAS and SAS with one knob changed that no
// catalog sweep varies. Each answer must be the run at that config, as
// a fresh build makes it outside every memo (SAS with a profile taken at
// that config), never the session-config run. With observation on,
// every memo entry gets its own label, and Observers lists them in
// strict label order.
func TestRunIdentityIsWholeConfig(t *testing.T) {
	cfg := tinyConfig()
	set := []string{"mcf"}
	designs := []core.Design{core.Standard, core.DAS, core.SAS}
	s := NewSession(cfg)
	s.Observe = &ObserveOptions{Metrics: true}
	for _, d := range designs {
		if _, err := s.Cached(cfg, d, set); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []struct {
		name string
		set  func(*config.Config)
	}{
		{"rob 96", func(c *config.Config) { c.ROB = 96 }},
		{"seed 7", func(c *config.Config) { c.Seed = 7 }},
		{"window 8", func(c *config.Config) { c.WindowSize = 8 }},
		{"llc 1024 KB", func(c *config.Config) { c.LLCKB = 1024 }},
	} {
		vc := cfg
		v.set(&vc)
		for _, d := range designs {
			got, err := s.Cached(vc, d, set)
			if err != nil {
				t.Fatalf("%s %v: %v", v.name, d, err)
			}
			sys, _, err := Build(vc, d, set, caseStatic(t, vc, streamCase{design: d, benchmarks: set}), false)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sys.Run()
			if err != nil {
				t.Fatalf("%s %v: fresh build: %v", v.name, d, err)
			}
			if g, w := fmt.Sprintf("%+v", *got), fmt.Sprintf("%+v", *want); g != w {
				t.Errorf("%s %v: the session answered another run:\n got %s\nwant %s", v.name, d, g, w)
			}
		}
	}
	obs := s.Observers()
	labels := make(map[string]bool)
	for i, o := range obs {
		labels[o.Label] = true
		if i > 0 && obs[i-1].Label >= o.Label {
			t.Errorf("Observers out of strict label order: %q before %q", obs[i-1].Label, o.Label)
		}
	}
	if len(labels) != 15 || len(obs) != 15 {
		t.Errorf("%d observers with %d distinct labels, want 15 of each (12 variants and 3 session-config runs)", len(obs), len(labels))
	}
}

// TestSweepKnobsLeaveStandardUnchanged: a Standard run at any config a
// catalog column asks for (the filter threshold, tag-cache capacity,
// group size, fast-level ratio and replacement, and fault-rate sweeps)
// must equal the session-config baseline, since Standard DRAM ignores
// those knobs. That is why every sweep point of a figure may be
// normalized to the one session-config baseline its grid asks for. The
// test also pins the knobs the sweeps vary, so a sweep over a new knob
// is checked here before it shares that baseline.
func TestSweepKnobsLeaveStandardUnchanged(t *testing.T) {
	cfg := tinyConfig()
	set := []string{"mcf"}
	s := NewSession(cfg)
	base, err := s.Baseline(set)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%+v", *base)
	seen := map[config.Config]bool{cfg: true}
	var varied []string // the fields the columns change
	ref := reflect.ValueOf(cfg)
	for _, e := range catalog {
		if e.cols == nil {
			continue
		}
		for _, c := range e.cols(s) {
			if seen[c.cfg] {
				continue
			}
			seen[c.cfg] = true
			v := reflect.ValueOf(c.cfg)
			for i := range v.NumField() {
				if name := v.Type().Field(i).Name; !v.Field(i).Equal(ref.Field(i)) && !slices.Contains(varied, name) {
					varied = append(varied, name)
				}
			}
			res, err := s.Cached(c.cfg, core.Standard, set)
			if err != nil {
				t.Fatalf("%s %s: %v", e.name, c.label, err)
			}
			if got := fmt.Sprintf("%+v", *res); got != want {
				t.Errorf("%s %s: Standard differs from the session-config baseline:\n got %s\nwant %s", e.name, c.label, got, want)
			}
		}
	}
	slices.Sort(varied)
	if knobs := []string{"FastDenom", "FilterThreshold", "GroupSize", "MigFailRate", "Replacement",
		"TableCorruptRate", "TagCacheKB", "TagCorruptRate", "WeakRowRate"}; !slices.Equal(varied, knobs) {
		t.Errorf("the catalog's sweeps vary %v, want %v", varied, knobs)
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	cfg := tinyConfig()
	r1, err := NewSession(cfg).Cached(cfg, core.DAS, []string{"omnetpp"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewSession(cfg).Cached(cfg, core.DAS, []string{"omnetpp"})
	if err != nil {
		t.Fatal(err)
	}
	if r1.PerCore[0].IPC != r2.PerCore[0].IPC ||
		r1.Promotions != r2.Promotions ||
		r1.Access != r2.Access ||
		r1.Events != r2.Events {
		t.Fatalf("nondeterministic runs:\n%+v\n%+v", r1, r2)
	}
}

// panicCtx is a context whose Err panics. A run polls its context at
// the observation stride, so the panic is raised inside the simulation,
// on the goroutine fetch runs the grid cell on.
type panicCtx struct{ context.Context }

func (panicCtx) Err() error { panic("fault inside a run") }

// recovered calls f and returns what it panicked with (nil if nothing).
func recovered(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// TestCellPanicReachesCaller: a simulation that panics in a grid cell
// panics again in the goroutine that asked for the figure, carrying the
// cell's own stack, at every parallelism, so a caller's recover (the
// server's panic isolation) sees it. The memo entry records the panic:
// a later caller of the same run panics too rather than reading a nil
// result.
func TestCellPanicReachesCaller(t *testing.T) {
	for _, par := range []int{1, 2} {
		s := NewSession(tinyConfig())
		s.Ctx = panicCtx{context.Background()}
		s.Parallelism = par
		s.Benchmarks = []string{"mcf", "libquantum"}
		p := recovered(func() { s.Figure("7a") })
		rp, ok := p.(*runPanic)
		if !ok {
			t.Fatalf("parallelism %d: Figure raised %v (%T), want the cell's *runPanic", par, p, p)
		}
		if rp.value != "fault inside a run" || !strings.Contains(string(rp.stack), "RunContext") {
			t.Fatalf("parallelism %d: panic lost its cause or the cell's stack: %v", par, rp)
		}
		if p := recovered(func() { s.Baseline([]string{"mcf"}) }); p != rp {
			t.Fatalf("parallelism %d: the panicked run's memo entry raised %v, want its recorded panic", par, p)
		}
	}
}

func TestStaticDesignRequiresAssignment(t *testing.T) {
	cfg := tinyConfig()
	if _, _, err := Build(cfg, core.SAS, []string{"mcf"}, nil, false); err == nil {
		t.Fatal("SAS accepted without a static assignment")
	}
}

func TestBenchmarkCountMustMatchCores(t *testing.T) {
	cfg := tinyConfig()
	if _, _, err := Build(cfg, core.Standard, []string{"mcf", "lbm"}, nil, false); err == nil {
		t.Fatal("2 benchmarks on 1 core accepted")
	}
}

func TestMultiCoreRun(t *testing.T) {
	cfg := tinyConfig()
	cfg.Cores = 2
	cfg.InstrPerCore = 100_000
	s := NewSession(cfg)
	res, err := s.Baseline([]string{"libquantum", "leslie3d"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCore) != 2 {
		t.Fatalf("%d per-core results", len(res.PerCore))
	}
	for i, c := range res.PerCore {
		if c.IPC <= 0 {
			t.Fatalf("core %d (%s) IPC %v", i, c.Benchmark, c.IPC)
		}
		if c.Retired != 80_000 { // quota - warmup
			t.Fatalf("core %d measured %d instructions", i, c.Retired)
		}
	}
}

func TestSpeedupMath(t *testing.T) {
	base := &Result{PerCore: []CoreResult{{IPC: 1.0}, {IPC: 2.0}}}
	fast := &Result{PerCore: []CoreResult{{IPC: 1.1}, {IPC: 2.4}}}
	// mean of 1.10 and 1.20 = 1.15
	if s := fast.Speedup(base); s < 1.1499 || s > 1.1501 {
		t.Fatalf("speedup %v, want 1.15", s)
	}
	if imp := fast.Improvement(base); imp < 14.99 || imp > 15.01 {
		t.Fatalf("improvement %v, want 15", imp)
	}
}

func TestTableFiguresRender(t *testing.T) {
	cfg := tinyConfig()
	f1 := Table1(cfg)
	if !strings.Contains(f1.Render(), "FR-FCFS") {
		t.Fatal("Table 1 missing controller row")
	}
	f2 := Table2()
	out := f2.Render()
	for _, name := range workload.AllSingleNames() {
		if !strings.Contains(out, name) {
			t.Fatalf("Table 2 missing %s", name)
		}
	}
	if !strings.Contains(out, "M8") {
		t.Fatal("Table 2 missing mixes")
	}
	fa := AreaFigure()
	if !strings.Contains(fa.Render(), "6.6%") {
		t.Fatal("area figure missing paper reference value")
	}
}

func TestConfigDesignsProduceDifferentTiming(t *testing.T) {
	// End-to-end sanity at tiny scale: FS must beat Standard.
	cfg := tinyConfig()
	s := NewSession(cfg)
	base, err := s.Baseline([]string{"soplex"})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := s.Cached(cfg, core.FS, []string{"soplex"})
	if err != nil {
		t.Fatal(err)
	}
	if imp := fs.Improvement(base); imp <= 0 {
		t.Fatalf("FS-DRAM improvement %.2f%%, must be positive", imp)
	}
}

func TestWatchdogMessage(t *testing.T) {
	// The watchdog path is not reachable with healthy configurations;
	// this just pins the deadlock error path of Run on a drained engine.
	cfg := tinyConfig()
	sys, _, err := Build(cfg, core.Standard, []string{"mcf"}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	// Steal the cores' tickers by draining the engine before Run.
	sys.Eng.Drain()
	// Run starts cores (scheduling ticks), so it will still work; this
	// only checks Run returns cleanly on a normal tiny run.
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func tinyMixConfig() config.Config {
	c := tinyConfig()
	c.Cores = 4
	c.InstrPerCore = 60_000
	return c
}

func TestMixRunAllDesigns(t *testing.T) {
	cfg := tinyMixConfig()
	s := NewSession(cfg)
	mix, err := workload.LookupMix("M5")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range core.AllDesigns() {
		res, err := s.Cached(cfg, d, mix.Benchmarks)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if len(res.PerCore) != 4 {
			t.Fatalf("%v: %d cores", d, len(res.PerCore))
		}
	}
}

// TestParsedConfigsBuildEveryDesign: every config Parse accepts builds
// all six designs. The inputs sit on both sides of the controller,
// core, DAS-manager, tag-cache, layout and device limits; Parse refuses
// the unbuildable ones, and the rest, with Default and Scaled, must
// build.
func TestParsedConfigsBuildEveryDesign(t *testing.T) {
	cfgs := map[string]config.Config{"Default()": config.Default(), "Scaled()": config.Scaled()}
	for _, in := range []string{
		`{"window_size":0}`, `{"window_size":1}`,
		`{"write_low":40}`, `{"write_low":0}`, `{"write_low":31}`,
		`{"starvation_limit_ns":0}`, `{"starvation_limit_ns":0.001}`,
		`{"rob":2}`, `{"rob":4}`,
		`{"store_buffer":0}`, `{"store_buffer":1}`,
		`{"group_size":512}`, `{"group_size":7}`, `{"group_size":256}`, `{"group_size":8}`,
		`{"fast_denom":1}`, `{"fast_denom":3}`, `{"fast_denom":2}`, `{"fast_denom":32}`,
		`{"tag_cache_assoc":0}`, `{"tag_cache_assoc":3}`, `{"tag_cache_assoc":1}`, `{"tag_cache_assoc":4}`,
		`{"filter_threshold":0}`, `{"filter_threshold":2}`,
		`{"filter_counters":0}`, `{"filter_counters":1}`,
		`{"migration_latency_ns":-5}`, `{"migration_latency_ns":0}`,
	} {
		if c, err := config.Parse([]byte(in)); err == nil {
			cfgs[in] = c
		}
	}
	for in, cfg := range cfgs {
		static := core.BuildStaticAssignment(core.NewRowProfile(), cfg.Geometry(), cfg.FastDenom)
		for _, d := range core.AllDesigns() {
			sys, _, err := Build(cfg, d, []string{"mcf"}, static, false)
			if err != nil {
				t.Errorf("%s: Parse accepts it, but %v does not build: %v", in, d, err)
				continue
			}
			sys.free()
		}
	}
}
