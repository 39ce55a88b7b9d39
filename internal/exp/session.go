package exp

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/core"
)

// Session caches Standard-DRAM baseline runs (and the row profiles they
// produce) so that every design and sweep point of a figure reuses the
// same baseline, exactly as the paper normalizes every bar to the same
// standard-DRAM run.
type Session struct {
	Cfg config.Config
	// Parallelism bounds concurrent runs (defaults to GOMAXPROCS).
	Parallelism int
	// Benchmarks restricts the single-programmed figures to a subset of
	// the Table 2 catalog (empty = all ten).
	Benchmarks []string
	// Mixes restricts the multi-programmed figures to a subset of M1-M8
	// (empty = all eight).
	Mixes []string

	// Observe, when non-nil, makes every fresh run record telemetry
	// (metrics timeline and/or Chrome trace) into a per-run Observer;
	// completed observers are collected for the session sinks (see
	// WriteTimelineCSV, WriteTrace). Nil (the default) builds fully
	// uninstrumented systems. Set before the first run.
	Observe *ObserveOptions

	// Pool overrides the machine pool fresh runs check out of (nil = the
	// package-level DefaultPool). A pooled run reuses a previously built
	// machine of the same shape via System.Reset — byte-identical to a
	// fresh Build — and returns it afterwards. Set before the first run.
	Pool *SystemPool

	// DisablePool forces every run to build a fresh machine and release
	// its storage afterwards (the pre-pool lifecycle). The byte-identity
	// suite and the benchmark harness's fresh-build reference use it.
	DisablePool bool

	// Ctx, when non-nil, is polled cooperatively by every run this
	// session performs (at the run loop's observation stride and between
	// parallel jobs), so cancelling it stops in-flight work promptly.
	// Set before the first run; nil means context.Background(). Note
	// that memoized entries record a cancellation error like any other
	// failure — a cancelled session is finished, not resumable, which is
	// exactly the service-core contract (one Session per job).
	Ctx context.Context

	mu        sync.Mutex
	baselines map[string]*baselineEntry
	results   map[string]*resultEntry
	observers observerSet

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

type resultEntry struct {
	once sync.Once
	res  *Result
	err  error
}

type baselineEntry struct {
	once sync.Once
	res  *Result
	err  error

	profOnce sync.Once
	profile  *core.RowProfile
	profErr  error

	statics map[int]*core.StaticAssignment // keyed by fast denominator
	staticM sync.Mutex
}

// NewSession creates a session over cfg.
func NewSession(cfg config.Config) *Session {
	return &Session{
		Cfg:         cfg,
		Parallelism: runtime.GOMAXPROCS(0),
		baselines:   make(map[string]*baselineEntry),
		results:     make(map[string]*resultEntry),
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

// cfgFor adapts the session config to a benchmark set: one core per
// benchmark (a set of four is a Table 2 mix on a 4-core system).
func (s *Session) cfgFor(benchmarks []string) config.Config {
	c := s.Cfg
	c.Cores = len(benchmarks)
	return c
}

// entry returns (creating once) the cache slot for a benchmark set.
func (s *Session) entry(benchmarks []string) *baselineEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.baselines[wkey(benchmarks)]
	if !ok {
		e = &baselineEntry{statics: make(map[int]*core.StaticAssignment)}
		s.baselines[wkey(benchmarks)] = e
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

// machinePool returns the pool fresh runs check out of (nil = off).
func (s *Session) machinePool() *SystemPool {
	if s.DisablePool {
		return nil
	}
	if s.Pool != nil {
		return s.Pool
	}
	return DefaultPool
}

// build acquires a machine for one run: a pooled machine of matching
// shape rewound in place when available, a fresh Build otherwise. The
// returned system is marked for checkin — pass it to finishRun once the
// run completes.
func (s *Session) build(cfg config.Config, design core.Design, benchmarks []string, static *core.StaticAssignment) (*System, error) {
	p := s.machinePool()
	if p != nil {
		if sys := p.Get(&cfg, design); sys != nil {
			if _, err := sys.Reset(cfg, design, benchmarks, static, false); err == nil {
				return sys, nil
			}
			// A rejected cfg or benchmark list must not re-pool a
			// half-reset machine; recycle its storage and let the fresh
			// path report the error.
			sys.free()
		}
	}
	sys, _, err := Build(cfg, design, benchmarks, static, false)
	if err != nil {
		return nil, err
	}
	if p != nil {
		sys.pool = p
	}
	return sys, nil
}

// finishRun returns a pooled machine after its run: checked back in on
// success, storage-recycled on failure (a failed run may have died
// mid-event with arbitrary in-flight state; rebuilding is cheaper than
// proving such a machine rewindable).
func (s *Session) finishRun(sys *System, err error) {
	if p := sys.pool; p != nil {
		if err != nil {
			sys.free()
			return
		}
		p.Put(sys)
	}
}

// Baseline runs (once) the Standard design for the benchmark set.
func (s *Session) Baseline(benchmarks []string) (*Result, error) {
	e := s.entry(benchmarks)
	e.once.Do(func() {
		cfg := s.cfgFor(benchmarks)
		sys, err := s.build(cfg, core.Standard, benchmarks, nil)
		if err != nil {
			e.err = err
			return
		}
		obs := newObserver(resultKey(cfg, core.Standard, benchmarks), cfg.Seed, s.Observe)
		sys.AttachObserver(obs)
		sys.attachLive(&s.live)
		e.res, e.err = sys.RunContext(s.context())
		if e.err == nil {
			s.observers.add(obs)
		}
		s.finishRun(sys, e.err)
		s.countRun(e.res)
	})
	return e.res, e.err
}

// Profile returns (computing once) the offline long-window row profile
// for the benchmark set.
func (s *Session) Profile(benchmarks []string) (*core.RowProfile, error) {
	e := s.entry(benchmarks)
	e.profOnce.Do(func() {
		e.profile, e.profErr = ProfilePass(s.cfgFor(benchmarks), benchmarks)
	})
	return e.profile, e.profErr
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

// Run executes one design over a benchmark set using cfg (which may be a
// sweep variant of the session config differing only in management
// parameters; the cached baseline remains valid because Standard DRAM
// ignores them).
func (s *Session) Run(cfg config.Config, design core.Design, benchmarks []string) (*Result, error) {
	cfg.Cores = len(benchmarks)
	var static *core.StaticAssignment
	if design.Static() {
		a, err := s.StaticAssignment(benchmarks, cfg.FastDenom)
		if err != nil {
			return nil, err
		}
		static = a
	}
	sys, err := s.build(cfg, design, benchmarks, static)
	if err != nil {
		return nil, err
	}
	obs := newObserver(resultKey(cfg, design, benchmarks), cfg.Seed, s.Observe)
	sys.AttachObserver(obs)
	sys.attachLive(&s.live)
	res, err := sys.RunContext(s.context())
	if err == nil {
		s.observers.add(obs)
	}
	s.finishRun(sys, err)
	s.countRun(res)
	return res, err
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

// Cached runs (once) a design over benchmarks with cfg and memoizes the
// result, so figures sharing runs (e.g. 7a/7b/7c) reuse them.
func (s *Session) Cached(cfg config.Config, design core.Design, benchmarks []string) (*Result, error) {
	if design == core.Standard {
		return s.Baseline(benchmarks)
	}
	key := resultKey(cfg, design, benchmarks)
	s.mu.Lock()
	e, ok := s.results[key]
	if !ok {
		e = &resultEntry{}
		s.results[key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.res, e.err = s.Run(cfg, design, benchmarks) })
	return e.res, e.err
}

// CachedVs is Cached plus the improvement over the Standard baseline.
func (s *Session) CachedVs(cfg config.Config, design core.Design, benchmarks []string) (*Result, float64, error) {
	base, err := s.Baseline(benchmarks)
	if err != nil {
		return nil, 0, err
	}
	res, err := s.Cached(cfg, design, benchmarks)
	if err != nil {
		return nil, 0, err
	}
	if design == core.Standard {
		return base, 0, nil
	}
	return res, res.Improvement(base), nil
}

// RunVs runs design and returns (result, improvement-vs-baseline%).
func (s *Session) RunVs(cfg config.Config, design core.Design, benchmarks []string) (*Result, float64, error) {
	base, err := s.Baseline(benchmarks)
	if err != nil {
		return nil, 0, err
	}
	if design == core.Standard {
		return base, 0, nil
	}
	res, err := s.Run(cfg, design, benchmarks)
	if err != nil {
		return nil, 0, err
	}
	return res, res.Improvement(base), nil
}

// job is one unit of parallel work.
type job func() error

// runAll executes jobs with bounded parallelism, returning the first
// error.
func (s *Session) runAll(jobs []job) error {
	par := s.Parallelism
	if par < 1 {
		par = 1
	}
	sem := make(chan struct{}, par)
	errc := make(chan error, len(jobs))
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// Cancellation check at the job boundary: once the session
			// context dies, queued jobs fail fast instead of starting
			// fresh runs (in-flight runs notice via RunContext).
			if err := s.context().Err(); err != nil {
				errc <- err
				return
			}
			if err := j(); err != nil {
				errc <- err
			}
		}(j)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			return fmt.Errorf("exp: %w", err)
		}
	}
	return nil
}

// Prewarm computes the baselines for all benchmark sets in parallel so
// subsequent figure runs parallelize fully.
func (s *Session) Prewarm(sets [][]string) error {
	jobs := make([]job, 0, len(sets))
	for _, set := range sets {
		set := set
		jobs = append(jobs, func() error {
			_, err := s.Baseline(set)
			return err
		})
	}
	return s.runAll(jobs)
}
