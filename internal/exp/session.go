package exp

import (
	"context"
	"fmt"
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
// same Standard-DRAM run of its workload set, as in the paper. It also
// memoizes the row profiles and static assignments the static designs
// need.
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

	mu       sync.Mutex
	profiles map[string]*profileEntry
	results  map[string]*run

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

// profileEntry is a benchmark set's row profile and the static
// assignments built from it.
type profileEntry struct {
	once    sync.Once
	profile *core.RowProfile
	err     error

	statics map[int]*core.StaticAssignment // keyed by fast denominator
	staticM sync.Mutex
}

// NewSession creates a session over cfg.
func NewSession(cfg config.Config) *Session {
	return &Session{
		Cfg:         cfg,
		Parallelism: runtime.GOMAXPROCS(0),
		profiles:    make(map[string]*profileEntry),
		results:     make(map[string]*run),
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

// entry returns (creating once) the profile slot for a benchmark set.
func (s *Session) entry(benchmarks []string) *profileEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.profiles[wkey(benchmarks)]
	if !ok {
		e = &profileEntry{statics: make(map[int]*core.StaticAssignment)}
		s.profiles[wkey(benchmarks)] = e
	}
	return e
}

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

// Profile returns (computing once) the offline long-window row profile
// for the benchmark set.
func (s *Session) Profile(benchmarks []string) (*core.RowProfile, error) {
	e := s.entry(benchmarks)
	e.once.Do(func() {
		cfg := s.Cfg
		cfg.Cores = len(benchmarks) // one core per benchmark
		e.profile, e.err = ProfilePass(cfg, benchmarks)
	})
	return e.profile, e.err
}

// StaticAssignment returns (building once) the profiled fast-row set for
// the benchmark set at the given fast-level denominator.
func (s *Session) StaticAssignment(benchmarks []string, fastDenom int) (*core.StaticAssignment, error) {
	prof, err := s.Profile(benchmarks)
	if err != nil {
		return nil, err
	}
	e := s.entry(benchmarks)
	e.staticM.Lock()
	defer e.staticM.Unlock()
	if a, ok := e.statics[fastDenom]; ok {
		return a, nil
	}
	a := core.BuildStaticAssignment(prof, s.Cfg.Geometry(), fastDenom)
	e.statics[fastDenom] = a
	return a, nil
}

// simulate executes one design over a benchmark set using cfg, which
// may be a sweep variant of the session config, on a pooled machine. Its
// observer is labelled with the run's memo key. It does not memoize;
// cached does.
func (s *Session) simulate(cfg config.Config, design core.Design, benchmarks []string, key string) (*Result, *Observer, error) {
	cfg.Cores = len(benchmarks)
	var static *core.StaticAssignment
	if design.Static() {
		a, err := s.StaticAssignment(benchmarks, cfg.FastDenom)
		if err != nil {
			return nil, nil, err
		}
		static = a
	}
	sys, err := s.build(cfg, design, benchmarks, static)
	if err != nil {
		return nil, nil, err
	}
	obs := newObserver(key, cfg.Seed, s.Observe)
	sys.AttachObserver(obs)
	sys.attachLive(&s.live)
	res, err := sys.RunContext(s.context())
	finishRun(sys, err)
	s.countRun(res)
	return res, obs, err
}

// resultKey identifies a run by its design, benchmarks, and every
// configuration knob a sweep can vary (including the fault knobs the
// robustness sweeps iterate).
func resultKey(cfg config.Config, design core.Design, benchmarks []string) string {
	return fmt.Sprintf("%v|%s|mig%v|fd%d|gs%d|tc%d|ft%d|rp%s|n%d|cp%v|fw%v|fm%v|fr%d|ftg%v|ftb%v|fs%d",
		design, wkey(benchmarks), cfg.MigrationLatencyNS, cfg.FastDenom,
		cfg.GroupSize, cfg.TagCacheKB, cfg.FilterThreshold, cfg.Replacement,
		cfg.InstrPerCore, cfg.ClosedPage,
		cfg.WeakRowRate, cfg.MigFailRate, cfg.MigRetries,
		cfg.TagCorruptRate, cfg.TableCorruptRate, cfg.FaultSeed)
}

// memoKey returns the config a run of design over benchmarks uses and
// its key in the run memo. Standard DRAM ignores every sweep knob, so a
// Standard run always takes the session config: each benchmark set has
// one baseline, whatever sweep point asks for it.
func (s *Session) memoKey(cfg config.Config, design core.Design, benchmarks []string) (config.Config, string) {
	if design == core.Standard {
		cfg = s.Cfg
	}
	return cfg, resultKey(cfg, design, benchmarks)
}

// Cached runs (once) a design over benchmarks with cfg and memoizes the
// result, so figures sharing runs (e.g. 7a/7b/7c) reuse them. It is the
// session's one run memo; see memoKey for the Standard baseline.
func (s *Session) Cached(cfg config.Config, design core.Design, benchmarks []string) (*Result, error) {
	return s.cached(cfg, design, benchmarks).result()
}

// cached returns the memo entry of design over benchmarks with cfg,
// running it first unless another caller already has. A panic in the
// run is recovered into the entry's error, so every caller of the entry
// sees it (see run.result).
func (s *Session) cached(cfg config.Config, design core.Design, benchmarks []string) *run {
	cfg, key := s.memoKey(cfg, design, benchmarks)
	s.mu.Lock()
	r, ok := s.results[key]
	if !ok {
		r = &run{}
		s.results[key] = r
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
		res, obs, err := s.simulate(cfg, design, benchmarks, key)
		s.mu.Lock()
		r.res, r.obs, r.err = res, obs, err
		s.mu.Unlock()
	})
	return r
}
