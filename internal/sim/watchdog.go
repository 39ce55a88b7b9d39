package sim

import "fmt"

// StallError reports a detected no-progress condition: work was
// outstanding but the progress counter did not move for at least Window
// of simulated time. Report carries the stuck request chain as
// described by the components that were wired into the watchdog.
type StallError struct {
	// Since is the simulation time of the last observed progress.
	Since Time
	// Now is the simulation time at detection.
	Now Time
	// Outstanding is the number of in-flight operations at detection.
	Outstanding int
	// Report describes the stuck state (queue heads, pending
	// migrations, pending translation fetches).
	Report string
}

// Error formats the stall for logs.
func (e *StallError) Error() string {
	msg := fmt.Sprintf("sim: watchdog: no progress for %.0f ns with %d operations outstanding (stalled since t=%.0f ns)",
		(e.Now - e.Since).NS(), e.Outstanding, e.Since.NS())
	if e.Report != "" {
		msg += "\nstuck request chain:\n" + e.Report
	}
	return msg
}

// DefaultWatchdogWindow is the default no-progress window. Every
// legitimate quiet period in the modeled system is orders of magnitude
// shorter: migrations occupy a bank for ~146 ns, the FR-FCFS
// starvation limit is 1 us, and refreshes recur every 7.8 us.
const DefaultWatchdogWindow = Millisecond

// Watchdog detects livelock: requests outstanding while no forward
// progress happens for a configured window of simulated time. It is
// observation-only — it schedules no events of its own, so enabling it
// never perturbs event counts or ordering. The driver loop calls
// Observe periodically (e.g. every few thousand engine steps).
type Watchdog struct {
	window      Time
	outstanding func() int
	progress    func() uint64
	report      func() string

	last       uint64
	lastChange Time
	primed     bool
}

// NewWatchdog builds a watchdog. outstanding reports in-flight
// operations; progress is any counter that moves whenever the system
// does useful work (only change matters); report, which may be nil,
// renders the stuck state for the error. A non-positive window selects
// DefaultWatchdogWindow.
func NewWatchdog(window Time, outstanding func() int, progress func() uint64, report func() string) *Watchdog {
	if window <= 0 {
		window = DefaultWatchdogWindow
	}
	if outstanding == nil || progress == nil {
		panic("sim: watchdog requires outstanding and progress functions")
	}
	return &Watchdog{window: window, outstanding: outstanding, progress: progress, report: report}
}

// Observe samples the system at simulation time now and returns a
// *StallError once no progress has been made for the window while work
// is outstanding. Calling it more often than the window only sharpens
// detection latency; correctness needs no particular cadence.
func (w *Watchdog) Observe(now Time) error {
	p := w.progress()
	if !w.primed || p != w.last {
		w.primed = true
		w.last = p
		w.lastChange = now
		return nil
	}
	n := w.outstanding()
	if n == 0 {
		// Idle (e.g. between refresh bursts with empty queues) is not a
		// stall.
		w.lastChange = now
		return nil
	}
	if now-w.lastChange < w.window {
		return nil
	}
	var rep string
	if w.report != nil {
		rep = w.report()
	}
	return &StallError{Since: w.lastChange, Now: now, Outstanding: n, Report: rep}
}
