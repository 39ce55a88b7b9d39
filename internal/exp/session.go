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

// Session memoizes runs, so that every figure drawing on a run shares
// it, and every design and sweep point of a figure is normalized to the
// same Standard-DRAM run of its workload set, as in the paper. It also
// memoizes the row profiles and static assignments the static designs
// need.
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
	profiles  map[string]*profileEntry
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
			if err := sys.Reset(cfg, design, benchmarks, static); err == nil {
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

// Run executes one design over a benchmark set using cfg, which may be
// a sweep variant of the session config. It does not memoize; Cached
// does.
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
	cfg, key := s.memoKey(cfg, design, benchmarks)
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
