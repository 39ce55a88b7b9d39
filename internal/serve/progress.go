package serve

import (
	"sync/atomic"
	"time"
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

// Job states, in lifecycle order.
const (
	stateQueued int32 = iota
	stateRunning
	stateDone
	stateFailed
)

func stateName(st int32) string {
	switch st {
	case stateQueued:
		return "queued"
	case stateRunning:
		return "running"
	case stateDone:
		return "done"
	default:
		return "failed"
	}
}

// Progress is one job's live progress: a state machine driven by the
// server (queued → running → done/failed) plus a counter source bound
// by the runner once its session exists. All fields are atomics — the
// producer is the simulation's host loop, the consumers are SSE
// handler goroutines.
type Progress struct {
	created time.Time
	state   atomic.Int32
	started atomic.Int64 // unix ns when the job began running
	horizon atomic.Uint64
	src     atomic.Value // ProgressSource
}

func newProgress() *Progress { return &Progress{created: time.Now()} }

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

func (p *Progress) setState(st int32) {
	if p == nil {
		return
	}
	if st == stateRunning {
		p.started.Store(time.Now().UnixNano())
	}
	p.state.Store(st)
}

// ProgressFrame is one SSE data payload. Every numeric field is
// monotonic over a stream's lifetime except eta_ms, which is a
// re-estimate. sim_ns is simulated time; elapsed_ms is wall time since
// the job entered the server.
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

// frame samples the current progress. seq is the subscriber's frame
// counter (each subscriber numbers its own stream).
func (p *Progress) frame(seq int) ProgressFrame {
	f := ProgressFrame{Seq: seq, State: "queued"}
	if p == nil {
		return f
	}
	st := p.state.Load()
	f.State = stateName(st)
	f.ElapsedMS = float64(time.Since(p.created).Nanoseconds()) / 1e6
	if v := p.src.Load(); v != nil {
		src := *v.(*ProgressSource)
		f.Events = src.LiveEvents()
		f.Instrs = src.LiveInstrs()
		f.SimNS = src.LiveSimNS()
	}
	f.Horizon = p.horizon.Load()
	if st == stateRunning && f.Horizon > 0 && f.Instrs > 0 {
		runNS := time.Now().UnixNano() - p.started.Load()
		if runNS > 0 && f.Instrs < f.Horizon {
			rate := float64(f.Instrs) / float64(runNS) // instrs per wall ns
			f.ETAMS = float64(f.Horizon-f.Instrs) / rate / 1e6
		}
	}
	return f
}
