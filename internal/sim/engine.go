// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is a global int64 measured in picoseconds. Components schedule
// callbacks at absolute or relative times; events at the same timestamp
// fire in FIFO order of scheduling, which makes every simulation run
// bit-reproducible for a given seed.
//
// Determinism contract: the firing order is the strict total order
// (at, seq), where seq is a per-engine counter incremented at every
// schedule.
// It is independent of the queue's internal layout (a timing wheel with
// a 4-ary overflow heap), so any conforming queue produces
// byte-identical simulations. FuzzScheduleOrder checks the queue against
// a linear-scan model of the order, and the exp goldens pin end-to-end
// output.
package sim

import (
	"fmt"
	"sync"
)

// Time is a simulation timestamp in picoseconds.
type Time int64

// Common time units, in picoseconds.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * 1000
	Millisecond Time = 1000 * 1000 * 1000
	Second      Time = 1000 * 1000 * 1000 * 1000
)

// FromNS converts a duration in (possibly fractional) nanoseconds to Time,
// rounding to the nearest picosecond.
func FromNS(ns float64) Time {
	if ns < 0 {
		return Time(ns*1000 - 0.5)
	}
	return Time(ns*1000 + 0.5)
}

// NS reports t in nanoseconds as a float.
func (t Time) NS() float64 { return float64(t) / 1000 }

// entry is a single scheduled callback, stored by value inside the
// event queue: scheduling allocates no per-event heap node. Exactly one
// of fn (closure form) and cfn (bound-call form) is set.
type entry struct {
	at  Time
	seq uint64 // FIFO tie-break for equal timestamps
	fn  func()
	cfn func(a, b any)
	a   any
	b   any
}

// before reports whether e fires before o under the (at, seq) order.
func (e *entry) before(o *entry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// fire invokes the callback.
func (e *entry) fire() {
	if e.fn != nil {
		e.fn()
		return
	}
	e.cfn(e.a, e.b)
}

// Engine is a discrete-event simulator. The zero value is ready to use;
// NewEngine additionally recycles queue storage from earlier engines.
type Engine struct {
	now Time
	seq uint64 // last sequence number handed out
	q   eventQueue
	// Executed counts events that have fired; useful for diagnostics.
	executed uint64
}

// enginePool recycles Engine structs across Release/NewEngine so the
// build-run-release cycle of an experiment session allocates nothing at
// steady state: Release zeroes the struct (its queue storage goes back
// to its own pools first), and NewEngine re-attaches pooled storage to
// a recycled struct.
var enginePool = sync.Pool{New: func() any { return new(Engine) }}

// NewEngine returns an empty engine at time zero, reusing pooled queue
// storage — and the Engine struct itself — released by previous engines
// (see Release).
func NewEngine() *Engine {
	e := enginePool.Get().(*Engine)
	e.q.attachPooled()
	return e
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are waiting to fire.
func (e *Engine) Pending() int { return e.q.len() }

// Schedule runs fn after delay.
//
// Invariant: delay must be non-negative. A violation panics rather than
// returning an error because scheduling into the past can only come
// from a component bug, and continuing would silently corrupt causality
// for the rest of the run; there is no caller-side recovery that leaves
// the simulation meaningful.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: schedule with negative delay %d at t=%d", delay, e.now))
	}
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at absolute time at.
//
// Invariant: at must not precede Now and fn must be non-nil. Both
// violations panic by design (see Schedule): they indicate engine
// misuse by a component, not a recoverable runtime condition, so they
// are treated as assertion failures instead of returned errors.
func (e *Engine) ScheduleAt(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at past time %d (now %d)", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule nil event")
	}
	e.seq++
	e.q.push(entry{at: at, seq: e.seq, fn: fn})
}

// ScheduleCall runs fn(a, b) after delay. This is the allocation-free
// scheduling path for hot sites: fn is typically a package-level
// trampoline and a/b pointers to long-lived component state, so —
// unlike a fresh closure — nothing escapes per call. Ordering and
// invariants are identical to Schedule.
func (e *Engine) ScheduleCall(delay Time, fn func(a, b any), a, b any) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: schedule with negative delay %d at t=%d", delay, e.now))
	}
	e.ScheduleCallAt(e.now+delay, fn, a, b)
}

// ScheduleCallAt runs fn(a, b) at absolute time at (see ScheduleCall).
func (e *Engine) ScheduleCallAt(at Time, fn func(a, b any), a, b any) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at past time %d (now %d)", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule nil event")
	}
	e.seq++
	e.q.push(entry{at: at, seq: e.seq, cfn: fn, a: a, b: b})
}

// Step fires the single earliest pending event and reports whether one
// existed.
func (e *Engine) Step() bool {
	if e.q.len() == 0 {
		return false
	}
	ev := e.q.pop()
	e.now = ev.at
	e.executed++
	ev.fire()
	return true
}

// RunUntil fires events in timestamp order until the queue is empty or the
// next event is strictly after deadline. The clock is left at the later of
// its current value and the last fired event (it is NOT advanced to the
// deadline so that callers can continue running afterwards).
func (e *Engine) RunUntil(deadline Time) {
	for e.q.len() > 0 && e.q.minAt() <= deadline {
		e.Step()
	}
}

// Run fires events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Drain discards all pending events without running them. Useful for
// tearing down a simulation early. The queue's backing storage is kept
// for reuse by later scheduling phases.
func (e *Engine) Drain() { e.q.reset() }

// Reset rewinds a retained engine to time zero for in-place reuse:
// pending events are discarded, the clock, sequence counter and the
// executed count return to their initial state, and the queue keeps its
// backing storage attached. After Reset the engine is indistinguishable
// from a fresh NewEngine, which is what lets a pooled system (exp
// package) replay a byte-identical simulation without rebuilding.
func (e *Engine) Reset() {
	e.q.reset()
	e.q.attachPooled()
	e.now, e.seq, e.executed = 0, 0, 0
}

// Release discards any pending events, returns the queue's backing
// storage to a package-level free list, and recycles the Engine struct
// itself, where the next NewEngine picks both up. An experiment session
// builds one short-lived engine per run, and the queue arrays plus the
// struct are the engine's only steady-state allocations; releasing them
// makes the whole build/schedule/fire cycle allocation-free across
// runs. Release transfers ownership: the engine must not be used again
// afterwards (callers that want to rewind and reuse an engine in place
// call Reset instead).
func (e *Engine) Release() {
	e.q.release()
	*e = Engine{}
	enginePool.Put(e)
}
