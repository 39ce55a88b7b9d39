//go:build mc_polltick

package mc

import (
	"repro/internal/sim"
)

// This file is the pre-next-event tick scheduler, kept compilable behind
// -tags mc_polltick as the cross-check reference: a per-cycle Ticker
// polls dispatch whenever work is queued, and the only sleep is the
// all-queues-empty case with a refresh-deadline wake-up.
// scripts/check.sh byte-compares figures rendered under this scheduler
// against the default next-event build; the command streams must be
// identical.

// ctlSched has no controller-level state in the polling build.
type ctlSched struct{}

// initCtlSched is a no-op: each channel's Ticker is self-contained.
func (c *Controller) initCtlSched(eng *sim.Engine, clock sim.Clock) {}

// chanSched is the polling scheduler's state: one per-cycle ticker.
type chanSched struct {
	ticker *sim.Ticker
}

// initSched attaches the per-cycle ticker.
func (cc *chanCtl) initSched(eng *sim.Engine, clock sim.Clock) {
	cc.sched.ticker = sim.NewTicker(eng, clock, cc.tick)
}

// wake ensures the scheduler is ticking.
func (cc *chanCtl) wake() { cc.sched.ticker.Start() }

// tick issues at most one command on this channel per DRAM cycle.
func (cc *chanCtl) tick() {
	t := cc.ctl.eng.Now()
	if !cc.dispatch(t) {
		cc.maybeSleep(t)
	}
}

// maybeSleep stops the ticker when there is no work, arranging a wake-up
// for the next refresh deadline.
func (cc *chanCtl) maybeSleep(t sim.Time) {
	if !cc.idleQuiet(t) {
		return
	}
	cc.sched.ticker.Stop()
	// Earliest future refresh deadline restarts the scheduler.
	if earliest := cc.earliestRefreshDue(); earliest >= 0 {
		delay := earliest - t
		if delay < 0 {
			delay = 0
		}
		cc.ctl.eng.ScheduleCall(delay, chanWake, cc, nil)
	}
}

// chanWake is the trampoline for refresh-deadline wake-ups (a cc.wake
// method value would allocate at every sleep/wake transition).
func chanWake(a, _ any) { a.(*chanCtl).wake() }
