package sim

// Clock converts between a component's cycle domain and engine time.
// A Clock is immutable after creation and safe to copy.
type Clock struct {
	period Time // picoseconds per cycle
}

// NewClock returns a clock with the given period in picoseconds.
func NewClock(period Time) Clock {
	if period <= 0 {
		panic("sim: clock period must be positive")
	}
	return Clock{period: period}
}

// NewClockHz returns a clock for the given frequency in hertz, rounding the
// period to the nearest picosecond.
func NewClockHz(hz float64) Clock {
	return NewClock(Time(1e12/hz + 0.5))
}

// Period returns the clock period.
func (c Clock) Period() Time { return c.period }

// Cycles converts a duration to a cycle count, rounding up (a constraint of
// n picoseconds needs ceil(n/period) whole cycles to be satisfied).
func (c Clock) Cycles(d Time) int64 {
	if d <= 0 {
		return 0
	}
	return int64((d + c.period - 1) / c.period)
}

// Duration converts a cycle count to engine time.
func (c Clock) Duration(cycles int64) Time {
	return Time(cycles) * c.period
}

// NextEdge returns the earliest cycle boundary at or after t.
func (c Clock) NextEdge(t Time) Time {
	r := t % c.period
	if r == 0 {
		return t
	}
	return t + c.period - r
}

// Ticker drives a callback on a fixed cycle boundary. Components that do
// work every cycle (e.g. the memory controller's scheduler) use a Ticker
// but may Stop it while idle to keep the event queue small.
type Ticker struct {
	eng     *Engine
	clock   Clock
	fn      func()
	running bool
	stopped bool
}

// NewTicker creates a stopped ticker; call Start to begin ticking.
func NewTicker(eng *Engine, clock Clock, fn func()) *Ticker {
	return &Ticker{eng: eng, clock: clock, fn: fn, stopped: true}
}

// tickerFire is the shared trampoline all tickers schedule through:
// every simulated cycle of every clocked component passes here, and the
// bound (trampoline, *Ticker) pair keeps that steady-state rescheduling
// allocation-free where a t.tick method value would allocate per cycle.
func tickerFire(a, _ any) { a.(*Ticker).tick() }

// Start begins ticking at the next clock edge if not already running.
func (t *Ticker) Start() {
	t.stopped = false
	if t.running {
		return
	}
	t.running = true
	t.eng.ScheduleCallAt(t.clock.NextEdge(t.eng.Now()), tickerFire, t, nil)
}

// Stop requests that ticking cease after the current cycle.
func (t *Ticker) Stop() { t.stopped = true }

// Reset returns the ticker to its initial stopped state for in-place
// reuse. Only valid once the engine's queue has been emptied (Engine
// Reset/Drain): a still-scheduled tick would otherwise fire against the
// rewound state.
func (t *Ticker) Reset() { t.running, t.stopped = false, true }

// Running reports whether a tick is scheduled.
func (t *Ticker) Running() bool { return t.running }

func (t *Ticker) tick() {
	if t.stopped {
		t.running = false
		return
	}
	t.fn()
	if t.stopped {
		t.running = false
		return
	}
	t.eng.ScheduleCall(t.clock.Period(), tickerFire, t, nil)
}
