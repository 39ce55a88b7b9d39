package serve

import (
	"sync/atomic"

	"repro/internal/telemetry/jobtrace"
)

// ProgressSource is what a running job exposes for streaming progress:
// monotonic counters advanced at the simulation's host observation
// points (the run loop's observation stride — never engine events, so a
// subscribed stream cannot perturb results). exp.Session implements it.
type ProgressSource interface {
	LiveEvents() uint64
	LiveInstrs() uint64
	LiveSimNS() float64
}

// Progress carries a job's live counters to SSE subscribers: the
// counter source and ETA horizon the runner binds once its session
// exists. Both are atomics — the producer is the simulation's host
// loop, the consumers are SSE handler goroutines. The job's state and
// clock are its span's.
type Progress struct {
	horizon atomic.Uint64
	src     atomic.Value // ProgressSource
}

// Bind attaches the job's counter source and ETA horizon (0 = unknown).
// Called by the runner after it builds the session; nil-safe so runners
// invoked outside the server (tests, direct calls) need no guard.
func (p *Progress) Bind(src ProgressSource, horizonInstrs uint64) {
	if p == nil {
		return
	}
	p.horizon.Store(horizonInstrs)
	p.src.Store(&src)
}

// ProgressFrame is one SSE data payload. Every numeric field is
// monotonic over a stream's lifetime except eta_ms, which is a
// re-estimate. sim_ns is simulated time; elapsed_ms is wall time since
// the server received the job's request.
type ProgressFrame struct {
	Seq       int     `json:"seq"`
	State     string  `json:"state"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Events    uint64  `json:"events"`
	Instrs    uint64  `json:"instrs"`
	SimNS     float64 `json:"sim_ns"`
	Horizon   uint64  `json:"horizon_instrs,omitempty"`
	ETAMS     float64 `json:"eta_ms,omitempty"`
}

// frame samples the current progress of the job whose span reads sp.
// seq is the subscriber's frame counter (each subscriber numbers its own
// stream).
func (p *Progress) frame(seq int, sp jobtrace.Snapshot) ProgressFrame {
	f := ProgressFrame{Seq: seq, State: frameState(sp.State), ElapsedMS: sp.TotalUS / 1e3}
	if v := p.src.Load(); v != nil {
		src := *v.(*ProgressSource)
		f.Events = src.LiveEvents()
		f.Instrs = src.LiveInstrs()
		f.SimNS = src.LiveSimNS()
	}
	f.Horizon = p.horizon.Load()
	if f.State == "running" && f.Horizon > 0 && f.Instrs > 0 {
		// A live span's total runs to now, so what its finished phases
		// leave over is the time since a worker took the job.
		runUS := sp.TotalUS - sp.CanonicalizeUS - sp.ProbeUS - sp.QueueUS
		if runUS > 0 && f.Instrs < f.Horizon {
			rate := float64(f.Instrs) / runUS // instrs per wall µs
			f.ETAMS = float64(f.Horizon-f.Instrs) / rate / 1e3
		}
	}
	return f
}

// frameState maps a span state to the stream's four states: the phases
// before a worker takes the job read queued, and rendering reads
// running.
func frameState(span string) string {
	switch span {
	case "running", "rendering":
		return "running"
	case "done", "failed":
		return span
	default:
		return "queued"
	}
}
