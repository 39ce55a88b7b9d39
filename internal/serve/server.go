package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/telemetry"
	"repro/internal/telemetry/jobtrace"
)

// Runner executes one canonicalized job and returns the response body.
// The default runner simulates via internal/exp (see simRunner); tests
// substitute their own to model slow, failing or panicking jobs without
// paying for real simulations. Runners must honor ctx cancellation
// promptly — the drain path and the per-job deadline both rely on it.
type Runner func(ctx context.Context, job *Job) ([]byte, error)

// Options configures a Server. The zero value of every field selects a
// sensible default (see New); a zero JobTimeout sets no deadline.
type Options struct {
	// Workers bounds concurrent simulations; each job runs its
	// simulations one after another.
	Workers int
	// QueueDepth bounds the admission queue; a full queue sheds with
	// 429 + Retry-After instead of growing memory without bound.
	QueueDepth int
	// JobTimeout is the per-job deadline (<= 0 = none).
	JobTimeout time.Duration
	// RetryAfter is the advisory client backoff attached to shed
	// responses (0 = DefaultRetryAfter).
	RetryAfter time.Duration
	// Base is the configuration requests layer over (zero Cores selects
	// config.Scaled(), matching dasbench's default).
	Base config.Config
	// Runner overrides the simulation runner (tests only; nil = real
	// simulations).
	Runner Runner
	// Log, when non-nil, receives one LogEvent per job transition. The
	// admitted event is delivered with admission locked, so Log must not
	// call back into the Server.
	Log func(LogEvent)
	// ProgressInterval is the SSE frame period of /jobs/<key>/events
	// (0 = DefaultProgressInterval).
	ProgressInterval time.Duration
	// PoolBytes budgets the server's machine pool: simulation jobs check
	// built systems out of it and back in, so sweeps over one machine
	// shape stop paying per-point allocation (<= 0 = exp.DefaultPoolBytes;
	// a budget below one machine's footprint makes every run build
	// fresh). The pool drains on Shutdown.
	PoolBytes int64
}

// Defaults for the zero Options values, and dasserve's -job-timeout.
const (
	DefaultWorkers    = 2
	DefaultQueueDepth = 16
	DefaultJobTimeout = 10 * time.Minute
	DefaultRetryAfter = 1 * time.Second
)

// Server runs simulation jobs on a bounded worker pool with
// singleflight deduplication and an exact result cache. See the package
// comment for the exactness argument.
type Server struct {
	opt    Options
	runner Runner

	// Telemetry instruments are created once here; the registry is
	// single-threaded by design (see internal/telemetry), so every
	// update and snapshot goes through tmu.
	tmu        sync.Mutex
	reg        *telemetry.Registry
	cAdmitted  *telemetry.Counter // jobs accepted into the queue
	cDone      *telemetry.Counter // jobs finished successfully
	cFailed    *telemetry.Counter // jobs finished with any error
	cShed      *telemetry.Counter // requests rejected 429 (queue full)
	cCancelled *telemetry.Counter // jobs killed by deadline/drain
	cPanicked  *telemetry.Counter // jobs that panicked (server survived)
	cHits      *telemetry.Counter // responses served from the cache
	cCoalesced *telemetry.Counter // requests joined to an in-flight twin
	cMisses    *telemetry.Counter // requests that started a fresh job
	gQueued    *telemetry.Gauge   // jobs waiting in the queue
	gRunning   *telemetry.Gauge   // jobs executing on workers
	gSSE       *telemetry.Gauge   // open progress streams
	cFrames    *telemetry.Counter // SSE frames written
	hQueueWait *telemetry.Histogram
	hRun       *telemetry.Histogram

	// jt records per-job lifecycle spans (internally locked, so it lives
	// outside both mutex domains).
	jt *jobtrace.Recorder

	// mu guards admission state: the cache map, the queue send, and the
	// draining flag. Holding it across the queue send is what makes
	// "check draining, then enqueue" atomic with Shutdown's "set
	// draining, then close the queue".
	mu       sync.Mutex
	draining bool
	cache    map[string]*entry
	byHash   map[uint64]*entry // cache mirror for /jobs/<key>/events URLs
	queue    chan *job

	// jobCtx parents every job context; jobCancel fires at the drain
	// deadline with a structured cause.
	jobCtx    context.Context
	jobCancel context.CancelCauseFunc
	wg        sync.WaitGroup

	// pool recycles simulation machines across this server's jobs.
	// Internally locked; drained by Shutdown.
	pool *exp.SystemPool
}

// entry is one cache slot doubling as the singleflight rendezvous:
// waiters block on done; body/err are immutable once done is closed.
// Failed entries are removed from the cache map in the same critical
// section that closes done, so a mapped entry with closed done is
// always a success — errors are never cached and always re-runnable.
type entry struct {
	done chan struct{}
	body []byte
	err  *Error
	hash uint64
	// span is the job's one record: its state, its clock and what
	// /jobs/<key> reports.
	span *jobtrace.Span
	prog Progress // live counters for SSE subscribers
}

type job struct {
	spec *Job
	e    *entry
}

// New builds a server and starts its worker pool. Callers must
// eventually call Shutdown.
func New(opt Options) *Server {
	if opt.Workers <= 0 {
		opt.Workers = DefaultWorkers
	}
	if opt.QueueDepth <= 0 {
		opt.QueueDepth = DefaultQueueDepth
	}
	if opt.RetryAfter <= 0 {
		opt.RetryAfter = DefaultRetryAfter
	}
	if opt.Base.Cores == 0 {
		opt.Base = config.Scaled()
	}
	if opt.PoolBytes <= 0 {
		opt.PoolBytes = exp.DefaultPoolBytes
	}
	s := &Server{
		opt:    opt,
		runner: opt.Runner,
		reg:    telemetry.New(),
		jt:     jobtrace.NewRecorder(jobtrace.DefaultDepth),
		cache:  make(map[string]*entry),
		byHash: make(map[uint64]*entry),
		queue:  make(chan *job, opt.QueueDepth),
		pool:   exp.NewSystemPool(opt.PoolBytes),
	}
	if s.runner == nil {
		s.runner = simRunner(s.pool)
	}
	s.cAdmitted = s.reg.Counter("serve.jobs.admitted")
	s.cDone = s.reg.Counter("serve.jobs.done")
	s.cFailed = s.reg.Counter("serve.jobs.failed")
	s.cShed = s.reg.Counter("serve.jobs.shed")
	s.cCancelled = s.reg.Counter("serve.jobs.cancelled")
	s.cPanicked = s.reg.Counter("serve.jobs.panicked")
	s.cHits = s.reg.Counter("serve.cache.hits")
	s.cCoalesced = s.reg.Counter("serve.cache.coalesced")
	s.cMisses = s.reg.Counter("serve.cache.misses")
	s.gQueued = s.reg.Gauge("serve.jobs.queued")
	s.gRunning = s.reg.Gauge("serve.jobs.running")
	s.gSSE = s.reg.Gauge("serve.sse.subscribers")
	s.cFrames = s.reg.Counter("serve.sse.frames")
	s.hQueueWait = s.reg.Histogram("serve.queue.wait_us")
	s.hRun = s.reg.Histogram("serve.job.run_us")
	// The recorder is internally locked, so sampling it from under tmu
	// during snapshots/scrapes is safe.
	s.reg.Sample("serve.jobtrace.violations", func() int64 { return int64(s.jt.Violations()) })
	s.jobCtx, s.jobCancel = context.WithCancelCause(context.Background())
	for i := 0; i < opt.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// submit is the admission decision for a canonicalized job: cache hit,
// coalesce onto an in-flight twin, enqueue a fresh run, or shed. The
// returned disposition is one of "hit", "coalesced", "miss".
func (s *Server) submit(spec *Job) (*entry, string, *Error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, "", &Error{Status: http.StatusServiceUnavailable, Kind: KindDraining,
			Msg: "server is draining, not admitting new work"}
	}
	if e, ok := s.cache[spec.Key]; ok {
		s.mu.Unlock()
		select {
		case <-e.done:
			s.count(s.cHits)
			return e, "hit", nil
		default:
			s.count(s.cCoalesced)
			return e, "coalesced", nil
		}
	}
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		s.count(s.cShed)
		s.emit(LogEvent{Event: "shed", Key: spec.KeyHex(), Kind: spec.KindString()})
		retry := int((s.opt.RetryAfter + time.Second - 1) / time.Second)
		return nil, "", &Error{Status: http.StatusTooManyRequests, Kind: KindShed,
			Msg:           fmt.Sprintf("admission queue full (%d jobs); retry later", s.opt.QueueDepth),
			RetryAfterSec: retry}
	}
	// The admission is recorded before the send, so a worker that
	// dequeues the job at once finds its span admitted, the queued gauge
	// counting it and its admitted event logged. Every send happens
	// under s.mu and the queue has room, so the send cannot block.
	e := &entry{done: make(chan struct{}), hash: spec.Hash, span: spec.Trace}
	spec.Prog = &e.prog
	spec.Trace.StampAdmit()
	s.cache[spec.Key] = e
	s.byHash[spec.Hash] = e
	s.tmu.Lock()
	s.cMisses.Inc()
	s.cAdmitted.Inc()
	s.gQueued.Add(1)
	s.tmu.Unlock()
	s.emit(LogEvent{Event: "admitted", Key: spec.KeyHex(), Kind: spec.KindString()})
	s.queue <- &job{spec: spec, e: e}
	s.mu.Unlock()
	return e, "miss", nil
}

// count bumps one counter under the telemetry lock.
func (s *Server) count(c *telemetry.Counter) {
	s.tmu.Lock()
	c.Inc()
	s.tmu.Unlock()
}

func (s *Server) worker() {
	defer s.wg.Done()
	for jb := range s.queue {
		s.execute(jb)
	}
}

// execute runs one dequeued job with deadline, panic isolation and
// structured failure mapping, then resolves its entry.
func (s *Server) execute(jb *job) {
	sp := jb.e.span
	sp.StampStart()
	waitUS := sp.Snapshot().QueueUS
	s.tmu.Lock()
	s.gQueued.Add(-1)
	s.gRunning.Add(1)
	s.hQueueWait.Observe(uint64(waitUS))
	s.tmu.Unlock()
	s.emit(LogEvent{Event: "start", Key: jb.spec.KeyHex(), Kind: jb.spec.KindString(), QueueMS: waitUS / 1e3})

	ctx := s.jobCtx
	var cancel context.CancelFunc
	if s.opt.JobTimeout > 0 {
		ctx, cancel = context.WithTimeoutCause(ctx, s.opt.JobTimeout,
			&Error{Status: http.StatusGatewayTimeout, Kind: KindTimeout,
				Msg: fmt.Sprintf("job exceeded the %v deadline", s.opt.JobTimeout)})
	}
	body, err := s.runIsolated(ctx, jb.spec)
	if cancel != nil {
		cancel()
	}

	var se *Error
	if err != nil {
		se = asError(err)
	}
	// The span and job counters resolve before done closes: a
	// subscriber woken by the close observes the terminal state, and a
	// client holding its response finds its own job in /jobs and
	// /metrics (channel close is the happens-before edge).
	outcome := "done"
	if se != nil {
		outcome = "failed"
	}
	sp.Finish(outcome, len(body))
	ph := sp.Snapshot()
	runUS := ph.RunUS + ph.RenderUS
	s.tmu.Lock()
	s.gRunning.Add(-1)
	s.hRun.Observe(uint64(runUS))
	if se == nil {
		s.cDone.Inc()
	} else {
		s.cFailed.Inc()
		switch se.Kind {
		case KindPanic:
			s.cPanicked.Inc()
		case KindTimeout, KindDraining:
			s.cCancelled.Inc()
		}
	}
	s.tmu.Unlock()
	s.mu.Lock()
	jb.e.body, jb.e.err = body, se
	if se != nil {
		// Never cache failures: the next identical request retries.
		delete(s.cache, jb.spec.Key)
		delete(s.byHash, jb.spec.Hash)
	}
	close(jb.e.done)
	s.mu.Unlock()
	ev := LogEvent{Event: outcome, Key: jb.spec.KeyHex(), Kind: jb.spec.KindString(),
		QueueMS: ph.QueueUS / 1e3, RunMS: runUS / 1e3, Bytes: len(jb.e.body)}
	if se != nil {
		ev.Error = se.Error()
	}
	s.emit(ev)
}

// runIsolated invokes the runner behind a recover barrier: a panicking
// job becomes a structured 500 for its waiters and the worker — and
// every sibling job — survives.
func (s *Server) runIsolated(ctx context.Context, spec *Job) (body []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &Error{Status: http.StatusInternalServerError, Kind: KindPanic,
				Msg: fmt.Sprintf("job panicked: %v\n%s", r, debug.Stack())}
		}
	}()
	return s.runner(ctx, spec)
}

// Shutdown drains the server: admission stops immediately (readyz flips
// to 503, new submissions get draining errors), queued and running jobs
// are given until ctx expires to finish, then are cancelled
// cooperatively and awaited. It returns nil on a clean drain and
// ctx.Err() when the deadline forced cancellation. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue) // workers exit once the queue is drained
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	// Once the workers exit, no job can touch the machine pool again;
	// release its standing memory (lifetime stats survive for /jobs).
	defer s.pool.Drain()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.jobCancel(&Error{Status: http.StatusServiceUnavailable, Kind: KindDraining,
			Msg: "job cancelled at the drain deadline"})
		<-done // cancellation is cooperative and prompt (observation-stride polls)
		return ctx.Err()
	}
}

// PoolStats snapshots the machine pool's lifetime activity.
func (s *Server) PoolStats() exp.PoolStats { return s.pool.Stats() }

// Handler returns the service mux: POST /run, POST /key, GET /healthz,
// /readyz, /jobs, /jobs/<key>[/events], /jobs/trace and /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n") // the process is alive; readiness is /readyz
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.Draining() {
			writeError(w, &Error{Status: http.StatusServiceUnavailable, Kind: KindDraining, Msg: "draining"})
			return
		}
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJobsPath)
	mux.HandleFunc("/key", s.handleKey)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "dasserve\n  POST /run                 {figure|design, benchmarks, mixes, config}\n  POST /key                 canonicalize only; returns {key, kind}\n  GET  /healthz\n  GET  /readyz\n  GET  /jobs                pool state, metrics, latency quantiles\n  GET  /jobs/<key>          lifecycle span (canonicalize/probe/queue/run/render)\n  GET  /jobs/<key>/events   SSE progress stream\n  GET  /jobs/trace          completed spans as Perfetto trace JSON\n  GET  /metrics             Prometheus text exposition\n")
	})
	return mux
}

// maxRequestBytes bounds request bodies; configs are a few KB.
const maxRequestBytes = 1 << 20

// readJob decodes and canonicalizes the JSON request POSTed to /run or
// /key.
func (s *Server) readJob(r *http.Request) (*Job, *Error) {
	if r.Method != http.MethodPost {
		return nil, &Error{Status: http.StatusMethodNotAllowed, Kind: KindBadRequest, Msg: "POST a JSON request to " + r.URL.Path}
	}
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes))
	if err != nil {
		return nil, &Error{Status: http.StatusBadRequest, Kind: KindBadRequest, Msg: err.Error()}
	}
	var req Request
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, &Error{Status: http.StatusBadRequest, Kind: KindBadRequest, Msg: fmt.Sprintf("request: %v", err)}
	}
	spec, err := Canonicalize(req, s.opt.Base)
	if err != nil {
		return nil, &Error{Status: http.StatusBadRequest, Kind: KindBadRequest, Msg: err.Error()}
	}
	return spec, nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	// A request that does not decode leaves its span unfinished; nothing
	// indexes a live span, so it is simply dropped.
	sp := s.jt.Begin()
	spec, serr := s.readJob(r)
	if serr != nil {
		writeError(w, serr)
		return
	}
	sp.StampCanon(spec.KeyHex(), spec.KindString())
	spec.Trace = sp
	e, disp, serr := s.submit(spec)
	if serr != nil {
		sp.Finish(serr.Kind, 0)
		writeError(w, serr)
		return
	}
	if disp == "miss" {
		// The span now belongs to the job: the worker stamps dequeue and
		// completion, the runner stamps run-end. This handler must not
		// touch it again.
		sp = nil
	} else {
		// Hit/coalesced: this request never queues; its span measures the
		// wait on the owning flight instead.
		sp.StampAdmit()
		sp.StampStart()
	}
	select {
	case <-e.done:
	case <-r.Context().Done():
		// The client gave up; the job keeps running for its other
		// waiters and the cache (results are deterministic — the work is
		// never wasted).
		return
	}
	sp.StampRun()
	if e.err != nil {
		sp.Finish("failed", 0)
		writeError(w, e.err)
		return
	}
	sp.Finish(disp, len(e.body))
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Cache", disp)
	w.Header().Set("X-Key", fmt.Sprintf("%016x", e.hash))
	w.Header().Set("ETag", fmt.Sprintf("%q", fmt.Sprintf("%016x", e.hash)))
	w.Write(e.body)
}

// snapshot returns the server's telemetry snapshot (race-safe).
func (s *Server) snapshot() []telemetry.Metric {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	return s.reg.Snapshot(nil)
}

// jobsJSON is the /jobs response shape.
type jobsJSON struct {
	Draining bool `json:"draining"`
	Workers  int  `json:"workers"`
	QueueCap int  `json:"queue_cap"`
	// CacheHitRatio is (hits + coalesced) / (hits + coalesced + misses):
	// the fraction of admitted /run requests that did not start a fresh
	// simulation. Zero until the first request.
	CacheHitRatio float64            `json:"cache_hit_ratio"`
	Metrics       map[string]float64 `json:"metrics"`
	// Quantiles holds p50/p90/p95/p99 per latency histogram (µs, bucket
	// upper bounds). Map keys render sorted, so the document is
	// deterministic for a given state.
	Quantiles map[string]map[string]float64 `json:"quantiles"`
	// Pool reports the machine pool's lifetime activity.
	Pool poolJSON `json:"pool"`
}

// poolJSON is the /jobs machine-pool section.
type poolJSON struct {
	// HitRate is checkouts served by a recycled machine over all
	// checkouts (zero until the first simulation).
	HitRate float64 `json:"hit_rate"`
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	// Drops counts checkins discarded because the byte budget was full.
	Drops uint64 `json:"drops"`
	// Machines currently parked, their estimated standing bytes, and the
	// lifetime maximum of that estimate.
	Machines       int   `json:"machines"`
	CurrentBytes   int64 `json:"current_bytes"`
	HighWaterBytes int64 `json:"high_water_bytes"`
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	snap := s.snapshot()
	out := jobsJSON{
		Draining:  s.Draining(),
		Workers:   s.opt.Workers,
		QueueCap:  s.opt.QueueDepth,
		Metrics:   make(map[string]float64, len(snap)),
		Quantiles: make(map[string]map[string]float64, 2),
	}
	for _, m := range snap {
		out.Metrics[m.Name] = m.Value
	}
	s.tmu.Lock()
	for _, h := range []struct {
		name string
		h    *telemetry.Histogram
	}{{"serve.queue.wait_us", s.hQueueWait}, {"serve.job.run_us", s.hRun}} {
		out.Quantiles[h.name] = map[string]float64{
			"p50": float64(h.h.Quantile(0.50)),
			"p90": float64(h.h.Quantile(0.90)),
			"p95": float64(h.h.Quantile(0.95)),
			"p99": float64(h.h.Quantile(0.99)),
		}
	}
	s.tmu.Unlock()
	hits := out.Metrics["serve.cache.hits"] + out.Metrics["serve.cache.coalesced"]
	if total := hits + out.Metrics["serve.cache.misses"]; total > 0 {
		out.CacheHitRatio = hits / total
	}
	st := s.pool.Stats()
	out.Pool = poolJSON{
		HitRate: st.HitRate(), Hits: st.Hits, Misses: st.Misses, Drops: st.Drops,
		Machines: st.Machines, CurrentBytes: st.CurrentBytes, HighWaterBytes: st.HighWaterBytes,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		writeError(w, &Error{Status: http.StatusInternalServerError, Kind: KindInternal, Msg: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}
