// Package jobtrace records service-level lifecycle spans: one span per
// dasserve job, decomposed into canonicalize → cache probe → queue wait
// → worker run → render with telescoping timestamps. It is the service
// twin of internal/telemetry/reqtrace — the same invariant discipline
// (phase components sum exactly to the span total, checked at Finish by
// the same telemetry.Ledger) applied to wall-clock job time instead of
// simulated request time.
//
// Unlike the simulation-side telemetry (single-threaded by contract),
// the recorder is shared across HTTP handler and worker goroutines, so
// every stamp takes a mutex. That cost is per job transition — a
// handful of lock acquisitions per simulation lasting milliseconds to
// minutes — not per simulated event, so "off the hot path" holds by
// construction.
package jobtrace

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// DefaultDepth is the completed-span ring capacity used by NewRecorder
// when given a non-positive depth.
const DefaultDepth = 256

// Recorder stamps spans and keeps the recently completed ones; a live
// span belongs to whoever holds it. All methods are safe for concurrent
// use and safe on a nil receiver (the disabled state: Begin returns a
// nil *Span whose stamps are no-ops).
type Recorder struct {
	mu    sync.Mutex
	clock func() time.Time
	depth int
	seq   uint64

	done []*Span // completed ring, oldest first, len <= depth

	ledger telemetry.Ledger // completed spans' phases in ns; only Violations is read
}

// NewRecorder returns an enabled recorder keeping the last depth
// completed spans (DefaultDepth when depth <= 0).
func NewRecorder(depth int) *Recorder {
	if depth <= 0 {
		depth = DefaultDepth
	}
	return &Recorder{clock: time.Now, depth: depth}
}

// SetClock replaces the wall clock (tests inject a fake to make phase
// durations exact). Must be called before any Begin.
func (r *Recorder) SetClock(fn func() time.Time) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.clock = fn
	r.mu.Unlock()
}

// Violations returns how many completed spans failed the telescoping
// invariant (components must sum exactly to the span total). Always 0
// unless the host clock steps backwards mid-span.
func (r *Recorder) Violations() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ledger.Violations()
}

// Begin starts a span at the moment the request was received. Lookup
// finds it once it is finished.
func (r *Recorder) Begin() *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	return &Span{r: r, seq: r.seq, recv: r.clock()}
}

// Span is one job's lifecycle. The six stamps telescope: an unset
// intermediate stamp collapses onto its predecessor, making that phase
// zero-width, so the five phase durations always sum exactly to
// done-recv. Stamp methods are nil-receiver-safe and must be called in
// lifecycle order.
type Span struct {
	r    *Recorder
	seq  uint64
	key  string // key hash hex, set by StampCanon
	kind string

	recv  time.Time // request received
	canon time.Time // canonicalization done (key known)
	admit time.Time // cache probe + admission decision done
	start time.Time // dequeued by a worker (or wait on another job's flight began)
	run   time.Time // simulation finished, render begins
	done  time.Time // response bytes final

	outcome string
	bytes   int
}

// StampCanon marks canonicalization complete and names the span with
// its key (typically the %016x key hash).
func (s *Span) StampCanon(key, kind string) {
	if s == nil {
		return
	}
	s.r.mu.Lock()
	s.canon = s.r.clock()
	s.key, s.kind = key, kind
	s.r.mu.Unlock()
}

// StampAdmit marks the cache probe and admission decision complete.
func (s *Span) StampAdmit() {
	if s != nil {
		s.stamp(&s.admit)
	}
}

// StampStart marks the queue wait over: a worker dequeued the job (or,
// for a coalesced request, the wait on the owning flight began).
func (s *Span) StampStart() {
	if s != nil {
		s.stamp(&s.start)
	}
}

// StampRun marks the simulation complete and rendering begun.
func (s *Span) StampRun() {
	if s != nil {
		s.stamp(&s.run)
	}
}

func (s *Span) stamp(t *time.Time) {
	s.r.mu.Lock()
	*t = s.r.clock()
	s.r.mu.Unlock()
}

// Finish closes the span with its outcome ("done", "failed", "hit",
// "coalesced", "shed", ...) and response size, verifies the telescoping
// invariant, and retires it into the completed ring.
func (s *Span) Finish(outcome string, bytes int) {
	if s == nil {
		return
	}
	r := s.r
	r.mu.Lock()
	defer r.mu.Unlock()
	s.done = r.clock()
	s.outcome, s.bytes = outcome, bytes
	var ns [len(PhaseNames)]int64
	for i, d := range s.phases() {
		ns[i] = int64(d)
	}
	r.ledger.Add(int(s.seq), ns[:], int64(s.done.Sub(s.recv)))
	r.done = append(r.done, s)
	if len(r.done) > r.depth {
		r.done = r.done[len(r.done)-r.depth:]
	}
}

// phases returns the five phase durations in order: canonicalize,
// probe, queue, run, render. Callers hold r.mu.
func (s *Span) phases() [5]time.Duration {
	t0 := s.recv
	t1 := orElse(s.canon, t0)
	t2 := orElse(s.admit, t1)
	t3 := orElse(s.start, t2)
	t4 := orElse(s.run, t3)
	end := orElse(s.done, t4)
	return [5]time.Duration{
		t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), end.Sub(t4),
	}
}

func orElse(t, fallback time.Time) time.Time {
	if t.IsZero() {
		return fallback
	}
	return t
}

// PhaseNames names the five phases of a span in order, matching the
// Snapshot fields and the Perfetto child slices.
var PhaseNames = [5]string{"canonicalize", "probe", "queue", "run", "render"}

// Snapshot is the JSON view of one span for /jobs/<key>.
type Snapshot struct {
	Key     string `json:"key"`
	Kind    string `json:"kind"`
	State   string `json:"state"`
	Outcome string `json:"outcome,omitempty"`
	Bytes   int    `json:"bytes,omitempty"`
	Recv    string `json:"recv"` // RFC3339Nano wall time of arrival

	CanonicalizeUS float64 `json:"canonicalize_us"`
	ProbeUS        float64 `json:"probe_us"`
	QueueUS        float64 `json:"queue_us"`
	RunUS          float64 `json:"run_us"`
	RenderUS       float64 `json:"render_us"`
	TotalUS        float64 `json:"total_us"`
}

// snapshotLocked builds a Snapshot; callers hold r.mu.
func (s *Span) snapshotLocked(now time.Time) Snapshot {
	ph := s.phases()
	state := "canonicalizing"
	switch {
	case !s.done.IsZero():
		state = s.outcome
	case !s.run.IsZero():
		state = "rendering"
	case !s.start.IsZero():
		state = "running"
	case !s.admit.IsZero():
		state = "queued"
	}
	end := orElse(s.done, now)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return Snapshot{
		Key:            s.key,
		Kind:           s.kind,
		State:          state,
		Outcome:        s.outcome,
		Bytes:          s.bytes,
		Recv:           s.recv.Format(time.RFC3339Nano),
		CanonicalizeUS: us(ph[0]),
		ProbeUS:        us(ph[1]),
		QueueUS:        us(ph[2]),
		RunUS:          us(ph[3]),
		RenderUS:       us(ph[4]),
		TotalUS:        us(end.Sub(s.recv)),
	}
}

// Snapshot returns the span's current view. A live span's state is its
// latest stamp, and its total runs to now.
func (s *Span) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	return s.snapshotLocked(s.r.clock())
}

// Lookup returns the snapshot of the newest completed span with key
// still in the ring.
func (r *Recorder) Lookup(key string) (Snapshot, bool) {
	if r == nil {
		return Snapshot{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.done) - 1; i >= 0; i-- {
		if s := r.done[i]; s.key == key {
			return s.snapshotLocked(r.clock()), true
		}
	}
	return Snapshot{}, false
}

// Completed returns snapshots of the completed ring, oldest first.
func (r *Recorder) Completed() []Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.clock()
	out := make([]Snapshot, 0, len(r.done))
	for _, s := range r.done {
		out = append(out, s.snapshotLocked(now))
	}
	return out
}

// EncodeTrace writes the completed spans as one Perfetto trace-event
// document through telemetry.EncodeTrace: one track per span, an
// enclosing slice for the whole job and a child slice per non-zero
// phase. Timestamps count from the oldest arrival in the ring, so
// concurrent jobs line up on one shared timeline and the picosecond
// clock cannot overflow however long the process has been up.
func (r *Recorder) EncodeTrace(w io.Writer) error {
	tr := telemetry.NewTraceRecorder("dasserve jobs")
	if r != nil {
		r.mu.Lock()
		var base time.Time
		for _, s := range r.done {
			if base.IsZero() || s.recv.Before(base) {
				base = s.recv
			}
		}
		ps := func(d time.Duration) int64 { return d.Nanoseconds() * 1000 }
		for _, s := range r.done {
			tid := tr.Track(fmt.Sprintf("job %s %s", s.key, s.kind))
			at := ps(s.recv.Sub(base))
			tr.Duration(fmt.Sprintf("%s (%s)", s.kind, s.outcome), at, ps(s.done.Sub(s.recv)), tid, -1)
			for i, d := range s.phases() {
				if d > 0 {
					tr.Duration(PhaseNames[i], at, ps(d), tid, -1)
				}
				at += ps(d)
			}
		}
		r.mu.Unlock()
	}
	return telemetry.EncodeTrace(w, []*telemetry.TraceRecorder{tr})
}
