package exp

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/sim"
)

// Live progress: the session's in-flight counters. The existing
// events/instrs totals (EventsExecuted, InstrsRetired) are fed by
// countRun at run *end* — the benchmark suite depends on that
// end-of-run semantic — so streaming consumers get their own counters,
// advanced from the host observation points only: the run loop's
// observeEvery stride and the end of the run. No engine event ever
// touches them, so a subscribed progress stream cannot perturb
// simulation ordering (the same argument as the telemetry registry,
// enforced end to end by the byte-identity gates in check.sh).
type liveProgress struct {
	events atomic.Uint64
	instrs atomic.Uint64
	simPS  atomic.Int64 // high-water simulated time across in-flight runs
}

// LiveEvents reports engine events executed by this session including
// runs still in flight, updated at the observation stride. Monotonic.
func (s *Session) LiveEvents() uint64 { return s.live.events.Load() }

// LiveInstrs reports instructions retired by this session including
// runs still in flight, updated at the observation stride. Each core
// counts up to its quota only: a 4-core run's early finishers keep
// retiring until the last core reaches its quota. Monotonic.
func (s *Session) LiveInstrs() uint64 { return s.live.instrs.Load() }

// LiveSimNS reports the furthest simulated time (ns) any of the
// session's runs has reached. Monotonic.
func (s *Session) LiveSimNS() float64 { return float64(s.live.simPS.Load()) / 1e3 }

// attachLive binds the session's live counters to one system; the
// system folds deltas in at every observation point.
func (s *System) attachLive(lp *liveProgress) { s.live = lp }

// syncLive folds this system's progress since the last observation into
// the session-wide live counters. Called from the host observation
// points only (never from engine events), so cores and the engine are
// read between events.
func (s *System) syncLive(now sim.Time) {
	if s.live == nil {
		return
	}
	ev := s.Eng.Executed()
	var in uint64
	for _, c := range s.Cores {
		in += min(c.RetiredTotal(), s.Cfg.InstrPerCore)
	}
	s.live.events.Add(ev - s.lastLiveEv)
	s.live.instrs.Add(in - s.lastLiveIn)
	s.lastLiveEv, s.lastLiveIn = ev, in
	// High-water mark: concurrent runs race to publish their frontier,
	// and the stream must never observe simulated time moving backwards.
	for {
		cur := s.live.simPS.Load()
		if int64(now) <= cur || s.live.simPS.CompareAndSwap(cur, int64(now)) {
			return
		}
	}
}

// InstrHorizon is the total instructions a fresh session's figure will
// retire: the per-core quota times the cores of every distinct run in
// the figure's catalog grid. Runs the grid repeats count once, as the
// run memo serves them; profiling prepasses retire nothing the live
// counters see. It is an ETA denominator: a session that already ran a
// shared run skips it, so consumers treat progress/horizon as advisory.
// 0 means unknown (an unknown name or mix) or free (the static tables).
func (s *Session) InstrHorizon(name string) uint64 {
	e := lookup(name)
	if e == nil {
		return 0
	}
	return s.horizon(e)
}

// DesignInstrHorizon estimates the instructions a single-design run
// (serve's design requests, dasbench -design) will retire.
func (s *Session) DesignInstrHorizon(design core.Design, benchmarks []string) uint64 {
	return s.horizon(designEntry(design, benchmarks))
}

// horizon counts the instructions of the distinct runs in the entry's
// grid, keyed as Cached keys them.
func (s *Session) horizon(e *figureEntry) uint64 {
	g, err := s.grid(e)
	if err != nil {
		return 0
	}
	seen := make(map[runKey]bool)
	var cores uint64
	for _, set := range g.sets {
		for _, c := range g.cols {
			if k := keyOf(c.cfg, c.design, set); !seen[k] {
				seen[k] = true
				cores += uint64(len(set))
			}
		}
	}
	return cores * s.Cfg.InstrPerCore
}
