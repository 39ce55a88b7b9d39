package exp

import (
	"io"
	"sort"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/reqtrace"
)

// ObserveOptions selects what a session's runs record. The zero value
// records nothing; a Session with a nil Observe field (the default)
// builds completely uninstrumented systems, so the simulation hot path
// keeps its nil-telemetry fast path.
type ObserveOptions struct {
	// Metrics enables the per-run registry and its epoch timeline.
	Metrics bool
	// Trace enables Chrome trace-event recording (DRAM commands,
	// migrations, fault events on per-bank tracks).
	Trace bool
	// IntervalPS is the timeline epoch length in picoseconds of
	// simulated time (default DefaultIntervalPS). Snapshots are taken
	// from the host run loop at its existing observation stride, so the
	// effective boundary quantizes to that stride; recorded epoch times
	// are the actual simulated instants and stay deterministic.
	IntervalPS int64
	// ReqTraceN enables per-request flight recording: each core traces
	// one in ReqTraceN measured demand loads (1 = every load, 0 = off).
	// Which loads are sampled is derived from the workload seed and the
	// core id, so sampling is deterministic and never perturbs figures.
	ReqTraceN int
}

// DefaultIntervalPS is the default timeline epoch: 100 µs of simulated
// time, a few dozen epochs for the default instruction quotas.
const DefaultIntervalPS = 100_000_000

// Observer is one run's telemetry bundle. Runs execute in parallel
// goroutines, so each owns a private registry/recorder/timeline; sinks
// merge completed observers sorted by run label, which is unique per
// memo entry (see Session.label) and keeps merged output independent
// of host scheduling.
type Observer struct {
	Label    string
	Reg      *telemetry.Registry
	Trace    *telemetry.TraceRecorder
	Timeline *telemetry.Timeline
	Req      *reqtrace.Recorder

	nextSnapPS int64
}

// newObserver builds the per-run bundle for the session's options. seed
// is the run's workload seed, from which reqtrace sampling offsets are
// derived.
func newObserver(label string, seed uint64, opt *ObserveOptions) *Observer {
	if opt == nil || (!opt.Metrics && !opt.Trace && opt.ReqTraceN <= 0) {
		return nil
	}
	o := &Observer{Label: label}
	interval := opt.IntervalPS
	if interval <= 0 {
		interval = DefaultIntervalPS
	}
	if opt.Metrics {
		o.Reg = telemetry.New()
		o.Timeline = &telemetry.Timeline{Label: label, IntervalPS: interval}
		o.nextSnapPS = interval
	}
	if opt.Trace {
		o.Trace = telemetry.NewTraceRecorder(label)
	}
	if opt.ReqTraceN > 0 {
		o.Req = reqtrace.NewRecorder(label, opt.ReqTraceN, seed)
	}
	return o
}

// maybeSnap takes an epoch snapshot when simulated time has crossed the
// next boundary. Called from the host run loop only — never from engine
// events — so observation cannot perturb simulation ordering.
func (o *Observer) maybeSnap(nowPS int64) {
	if o == nil || o.Timeline == nil || nowPS < o.nextSnapPS {
		return
	}
	o.Timeline.Snap(nowPS, o.Reg)
	interval := o.Timeline.IntervalPS
	o.nextSnapPS = (nowPS/interval + 1) * interval
}

// finish takes the end-of-run snapshot.
func (o *Observer) finish(nowPS int64) {
	if o == nil || o.Timeline == nil {
		return
	}
	o.Timeline.Snap(nowPS, o.Reg)
}

// AttachObserver instruments every component of the system with obs
// (nil = leave the system uninstrumented). Call between Build and Run.
func (s *System) AttachObserver(obs *Observer) {
	if obs == nil {
		return
	}
	s.obs = obs
	reg := obs.Reg
	s.Dev.AttachTelemetry(reg, obs.Trace)
	s.Ctl.AttachTelemetry(reg)
	if reg.Enabled() {
		// Background/standby energy is a rate (mW x elapsed ns = pJ), not
		// an event count, so it is derived from the simulated time at the
		// snapshot rather than accumulated per command.
		g := s.Dev.Geometry()
		ranks := g.Channels * g.Ranks
		em := s.Dev.EnergyModel()
		reg.Sample("dram.energy_pj.background", func() int64 {
			return em.BackgroundPJ(ranks, int64(s.Eng.Now()/sim.Nanosecond))
		})
	}
	s.Mgr.AttachTelemetry(reg, obs.Trace)
	if inj := s.Mgr.Faults(); inj != nil {
		inj.AttachTelemetry(reg)
	}
	s.LLC.AttachTelemetry(reg)
	for _, c := range s.L2s {
		c.AttachTelemetry(reg)
	}
	for _, c := range s.L1s {
		c.AttachTelemetry(reg)
	}
	if reg.Enabled() {
		reg.Sample("sim.events_executed", func() int64 { return int64(s.Eng.Executed()) })
	}
	if obs.Req != nil {
		obs.Req.AttachTrace(obs.Trace, len(s.Cores))
		for _, c := range s.Cores {
			c.AttachReqTrace(obs.Req)
		}
	}
}

// Observers returns the observers of this session's successfully
// completed runs, in label order; runs still in flight are left out.
func (s *Session) Observers() []*Observer {
	var obs []*Observer
	s.mu.Lock()
	for _, r := range s.results {
		if r.err == nil && r.obs != nil { // both set as the run completes
			obs = append(obs, r.obs)
		}
	}
	s.mu.Unlock()
	sort.Slice(obs, func(i, j int) bool { return obs[i].Label < obs[j].Label })
	return obs
}

// timelines extracts the non-nil timelines.
func (s *Session) timelines() []*telemetry.Timeline {
	var ts []*telemetry.Timeline
	for _, o := range s.Observers() {
		if o.Timeline != nil {
			ts = append(ts, o.Timeline)
		}
	}
	return ts
}

// WriteTimelineCSV writes the merged epoch timeline of every observed
// run as long-form CSV (run,epoch_ns,metric,value).
func (s *Session) WriteTimelineCSV(w io.Writer) error {
	return telemetry.EncodeTimelinesCSV(w, s.timelines())
}

// WriteTimelineJSON writes the merged epoch timeline as JSON.
func (s *Session) WriteTimelineJSON(w io.Writer) error {
	return telemetry.EncodeTimelinesJSON(w, s.timelines())
}

// WriteTrace writes every observed run's events as one Chrome
// trace-event JSON document (loadable in Perfetto / chrome://tracing).
func (s *Session) WriteTrace(w io.Writer) error {
	var recs []*telemetry.TraceRecorder
	for _, o := range s.Observers() {
		if o.Trace != nil {
			recs = append(recs, o.Trace)
		}
	}
	return telemetry.EncodeTrace(w, recs)
}

// reqRecorders extracts the non-nil request-trace recorders.
func (s *Session) reqRecorders() []*reqtrace.Recorder {
	var recs []*reqtrace.Recorder
	for _, o := range s.Observers() {
		if o.Req != nil {
			recs = append(recs, o.Req)
		}
	}
	return recs
}

// WriteReqTraceCSV writes every observed run's latency-attribution
// waterfall as long-form CSV (run,component rows with sums, means,
// shares and quantiles).
func (s *Session) WriteReqTraceCSV(w io.Writer) error {
	return reqtrace.EncodeCSV(w, s.reqRecorders())
}

// WriteReqTraceJSON writes the attribution waterfalls as JSON.
func (s *Session) WriteReqTraceJSON(w io.Writer) error {
	return reqtrace.EncodeJSON(w, s.reqRecorders())
}

// PublishTo pushes every observed run's final snapshot into p (the
// debug HTTP endpoint's store). The snapshot is the timeline's last
// epoch, recorded when the run finished: re-polling the registry here
// would read sampled values from a machine the pool may since have
// rewound for another run.
func (s *Session) PublishTo(p *telemetry.Publisher) {
	for _, o := range s.Observers() {
		if eps := o.Timeline.Epochs(); len(eps) > 0 {
			p.Publish(o.Label, eps[len(eps)-1].Metrics)
		}
	}
}
