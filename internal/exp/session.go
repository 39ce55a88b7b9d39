package exp

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/core"
)

// Session memoizes runs, so that every figure drawing on a run shares
// it, and every design and sweep point of a figure is normalized to the
// same Standard-DRAM run of its workload set, as in the paper. A run is
// known by its whole config, design and benchmark set (runKey). The
// static designs' assignments live in the process-wide statics memo.
type Session struct {
	Cfg config.Config
	// Parallelism bounds the runs a figure's grid has in flight at once
	// (defaults to GOMAXPROCS; below 1 means 1). Rendered bytes do not
	// depend on it.
	Parallelism int
	// Benchmarks restricts the single-programmed figures to a subset of
	// the Table 2 catalog (empty = all ten).
	Benchmarks []string
	// Mixes restricts the multi-programmed figures to a subset of M1-M8
	// (empty = all eight).
	Mixes []string

	// Observe, when non-nil, makes every fresh run record telemetry
	// (metrics timeline and/or Chrome trace) into a per-run Observer,
	// which the run's memo entry keeps for the session sinks (see
	// WriteTimelineCSV, WriteTrace). Nil (the default) builds fully
	// uninstrumented systems. Set before the first run.
	Observe *ObserveOptions

	// Pool overrides the machine pool fresh runs check out of (nil = the
	// package-level DefaultPool). A run reuses a previously built
	// machine of the same shape via System.Reset — byte-identical to a
	// fresh Build — and returns it afterwards; a pool too small to keep
	// a machine (NewSystemPool(1)) makes every run build fresh. Set
	// before the first run.
	Pool *SystemPool

	// Ctx, when non-nil, is polled cooperatively by every run this
	// session performs (at the run loop's observation stride), so
	// cancelling it stops in-flight work promptly, and a grid starts no
	// further run once one has failed.
	// Set before the first run; nil means context.Background(). Note
	// that memoized entries record a cancellation error like any other
	// failure — a cancelled session is finished, not resumable, which is
	// exactly the service-core contract (one Session per job).
	Ctx context.Context

	mu      sync.Mutex
	results map[runKey]*run

	// events totals engine events executed by this session's fresh runs
	// (cache hits add nothing), feeding the per-figure events/sec
	// reporting and the benchmark suite.
	events atomic.Uint64

	// instrs totals instructions retired by this session's fresh runs.
	// Unlike events it is invariant under scheduler changes (next-event
	// versus per-cycle polling executes the same retirement stream with
	// far fewer events), so instr/s is the benchmark throughput metric
	// that stays comparable across engine rewrites.
	instrs atomic.Uint64

	// energyPJ totals modeled DRAM energy (dynamic plus background,
	// exact integer picojoules) across this session's fresh runs, feeding
	// the benchmark suite's pJ/instr metric.
	energyPJ atomic.Int64

	// live is the streaming-progress view of the same totals, advanced
	// while runs are in flight (see progress.go). events/instrs above
	// keep their end-of-run semantics; live serves watchdogs and SSE.
	live liveProgress
}

// run is one memoized simulation and the session's one record of it:
// its result, its error and the observer that recorded it (nil when the
// session observes nothing). A run that panicked records the panic as
// its error (see runPanic).
type run struct {
	once sync.Once
	res  *Result
	err  error
	obs  *Observer
}

// result returns the run's result and error, raising a panic the run
// recorded again in the calling goroutine.
func (r *run) result() (*Result, error) {
	if p, ok := r.err.(*runPanic); ok {
		panic(p)
	}
	return r.res, r.err
}

// runPanic is a panic raised inside a run, kept with the stack it was
// raised on. A grid runs its cells in goroutines of its own, so the
// panic is carried back and raised again in the goroutine that asked
// for the run, where its caller's recover (dasserve's panic isolation)
// can see it.
type runPanic struct {
	value any
	stack []byte
}

func (p *runPanic) Error() string { return fmt.Sprintf("run panicked: %v\n%s", p.value, p.stack) }

// runKey is a run's identity in the session memo: its whole config
// (Cores set to one per benchmark), design and benchmark set.
type runKey struct {
	cfg    config.Config
	design core.Design
	set    string
}

// keyOf returns the memo key of design over benchmarks with cfg.
func keyOf(cfg config.Config, design core.Design, benchmarks []string) runKey {
	cfg.Cores = len(benchmarks)
	return runKey{cfg, design, wkey(benchmarks)}
}

// NewSession creates a session over cfg.
func NewSession(cfg config.Config) *Session {
	return &Session{
		Cfg:         cfg,
		Parallelism: runtime.GOMAXPROCS(0),
		results:     make(map[runKey]*run),
	}
}

// context returns the session's cancellation context (Background when
// none was set).
func (s *Session) context() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

func wkey(benchmarks []string) string { return strings.Join(benchmarks, "+") }

// EventsExecuted reports the total engine events executed by runs this
// session performed (memoized results count once, when they ran).
func (s *Session) EventsExecuted() uint64 { return s.events.Load() }

// InstrsRetired reports the total instructions retired by runs this
// session performed (memoized results count once, when they ran).
func (s *Session) InstrsRetired() uint64 { return s.instrs.Load() }

// EnergyPJ reports the total modeled DRAM energy (dynamic plus
// background, exact integer picojoules) of runs this session performed.
func (s *Session) EnergyPJ() int64 { return s.energyPJ.Load() }

// countRun folds one fresh run's totals into the session counters.
func (s *Session) countRun(res *Result) {
	if res == nil {
		return
	}
	s.events.Add(res.Events)
	var n uint64
	for _, c := range res.PerCore {
		n += c.Retired
	}
	s.instrs.Add(n)
	s.energyPJ.Add(res.Energy.TotalPJ())
}

// build checks a machine out of the session's pool for one run: a
// pooled machine of matching shape rewound in place when available, a
// fresh Build otherwise. Pass it to finishRun once the run completes.
func (s *Session) build(cfg config.Config, design core.Design, benchmarks []string, static *core.StaticAssignment) (*System, error) {
	p := s.Pool
	if p == nil {
		p = DefaultPool
	}
	if sys := p.Get(&cfg, design); sys != nil {
		if err := sys.Reset(cfg, design, benchmarks, static); err == nil {
			return sys, nil
		}
		// A rejected cfg or benchmark list must not re-pool a
		// half-reset machine; recycle its storage and let the fresh
		// path report the error.
		sys.free()
	}
	sys, _, err := Build(cfg, design, benchmarks, static, false)
	if err != nil {
		return nil, err
	}
	sys.pool = p
	return sys, nil
}

// finishRun returns a machine to its pool after its run: checked back
// in on success, storage-recycled on failure (a failed run may have died
// mid-event with arbitrary in-flight state; rebuilding is cheaper than
// proving such a machine rewindable).
func finishRun(sys *System, err error) {
	if err != nil {
		sys.free()
		return
	}
	sys.pool.Put(sys)
}

// Baseline returns the Standard run of the benchmark set, the run every
// figure normalizes to: one more memoized run (see Cached).
func (s *Session) Baseline(benchmarks []string) (*Result, error) {
	return s.Cached(s.Cfg, core.Standard, benchmarks)
}

// StaticAssignment returns the profiled fast-row set of the benchmark
// set at fastDenom under the session config, the statics entry a static
// run of the set at that config reads.
func (s *Session) StaticAssignment(benchmarks []string, fastDenom int) (*core.StaticAssignment, error) {
	cfg := s.Cfg
	cfg.Cores, cfg.FastDenom = len(benchmarks), fastDenom
	return statics.assignment(cfg, benchmarks)
}

// simulate executes run k on a pooled machine, a static design with the
// assignment of the run's own config. It does not memoize; cached does.
func (s *Session) simulate(k runKey, benchmarks []string) (*Result, *Observer, error) {
	var static *core.StaticAssignment
	if k.design.Static() {
		a, err := statics.assignment(k.cfg, benchmarks)
		if err != nil {
			return nil, nil, err
		}
		static = a
	}
	sys, err := s.build(k.cfg, k.design, benchmarks, static)
	if err != nil {
		return nil, nil, err
	}
	obs := newObserver(s.label(k), k.cfg.Seed, s.Observe)
	sys.AttachObserver(obs)
	sys.attachLive(&s.live)
	res, err := sys.RunContext(s.context())
	finishRun(sys, err)
	s.countRun(res)
	return res, obs, err
}

// labelled are the config fields every run label prints, with the
// prefix that names each.
var labelled = []struct{ field, prefix string }{
	{"MigrationLatencyNS", "mig"}, {"FastDenom", "fd"}, {"GroupSize", "gs"},
	{"TagCacheKB", "tc"}, {"FilterThreshold", "ft"}, {"Replacement", "rp"},
	{"InstrPerCore", "n"}, {"ClosedPage", "cp"}, {"WeakRowRate", "fw"},
	{"MigFailRate", "fm"}, {"MigRetries", "fr"}, {"TagCorruptRate", "ftg"},
	{"TableCorruptRate", "ftb"}, {"FaultSeed", "fs"},
}

// label names run k for its observer and the sinks, which sort by it:
// the design, the set and the labelled knobs, then |<json tag>=<value>
// for each other field where the run's config differs from the session
// config (Cores set to the set size), so distinct runs get distinct
// labels. Labels are display only; the memo never reads one.
func (s *Session) label(k runKey) string {
	base := s.Cfg
	base.Cores = k.cfg.Cores
	cfg, ref := reflect.ValueOf(k.cfg), reflect.ValueOf(&base).Elem()
	label := fmt.Sprintf("%v|%s", k.design, k.set)
	for _, f := range labelled {
		label += fmt.Sprintf("|%s%v", f.prefix, cfg.FieldByName(f.field))
		ref.FieldByName(f.field).Set(cfg.FieldByName(f.field)) // printed: no suffix
	}
	for i := range cfg.NumField() {
		if !cfg.Field(i).Equal(ref.Field(i)) {
			label += fmt.Sprintf("|%s=%v", cfg.Type().Field(i).Tag.Get("json"), cfg.Field(i))
		}
	}
	return label
}

// Cached runs (once) a design over benchmarks with cfg and memoizes the
// result, so figures sharing runs (e.g. 7a/7b/7c) reuse them. It is the
// session's one run memo, keyed by runKey: any cfg gets its own run.
func (s *Session) Cached(cfg config.Config, design core.Design, benchmarks []string) (*Result, error) {
	return s.cached(cfg, design, benchmarks).result()
}

// cached returns the memo entry of design over benchmarks with cfg,
// running it first unless another caller already has. A panic in the
// run is recovered into the entry's error, so every caller of the entry
// sees it (see run.result).
func (s *Session) cached(cfg config.Config, design core.Design, benchmarks []string) *run {
	k := keyOf(cfg, design, benchmarks)
	s.mu.Lock()
	r, ok := s.results[k]
	if !ok {
		r = &run{}
		s.results[k] = r
	}
	s.mu.Unlock()
	r.once.Do(func() {
		defer func() {
			if p := recover(); p != nil {
				s.mu.Lock()
				r.err = &runPanic{p, debug.Stack()}
				s.mu.Unlock()
			}
		}()
		res, obs, err := s.simulate(k, benchmarks)
		s.mu.Lock()
		r.res, r.obs, r.err = res, obs, err
		s.mu.Unlock()
	})
	return r
}
