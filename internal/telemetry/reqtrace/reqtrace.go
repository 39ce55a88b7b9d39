// Package reqtrace is the per-request flight recorder: a sampled,
// zero-alloc-at-steady-state span that follows one demand load end to
// end — ROB issue, cache walk, MSHR merge, controller queue admission,
// bank-state waits (row conflict, refresh blocking, migration stall),
// the data burst, and the fill back up the hierarchy — and decomposes
// its total latency exactly into named components.
//
// Design constraints match the telemetry package it extends:
//
//  1. Free when off. Components hold a *Span pointer per request; the
//     nil pointer is the untraced state, so every instrumentation site
//     is one predictable branch. Spans are pooled by the Recorder and
//     recycled at Finish, so steady-state tracing allocates nothing.
//  2. Never perturbs simulation. Stamping writes host-side fields at
//     times the simulation already computed; nothing here schedules
//     events or draws randomness. Sampling uses a deterministic
//     seed-derived stride, so the traced-request set — and therefore
//     figure output — is identical with tracing on or off.
//  3. Exact attribution. The component vector of a finished span sums
//     to its end-to-end latency by construction (the decomposition
//     telescopes over the stamped transitions); Finish verifies the sum
//     and counts violations instead of silently misattributing.
//
// Alongside latency, every stamp that corresponds to a DRAM command
// carries that command's energy in integer picojoules (priced by
// internal/energy through the device). The span accumulates the energy
// twice — once into its component and once into an independent running
// total — and Finish checks the two agree exactly through the same
// telemetry.Ledger primitive as the latency: a new stamp site that
// updates one side but not the other is caught as a counted violation
// rather than a silent attribution hole. Blocking commands (refresh,
// migration) attribute their full command energy to each sampled
// request they blocked: sampled spans are a sparse causal view of the
// machine, not a partition of its energy.
package reqtrace

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Component indexes one slice of a request's end-to-end latency.
type Component int

const (
	// CompCache is time above DRAM before any DAS translation wait:
	// cache lookup latencies, MSHR admission queueing, and — for
	// requests that hit a cache level — the entire round trip.
	CompCache Component = iota
	// CompXlat is time a DAS-design request waited on a translation
	// table-block fetch before it could be steered to the controller.
	CompXlat
	// CompQueue is controller queue residency before the request's first
	// DRAM command, minus the refresh and migration windows below.
	CompQueue
	// CompRefresh is queue wait attributable to tRFC refresh windows
	// issued on the request's rank while it waited.
	CompRefresh
	// CompMigration is queue wait attributable to migration swaps
	// occupying the request's bank while it waited (the DAS
	// migration-shadow cost).
	CompMigration
	// CompConflict is the row-conflict penalty: first PRE issued for the
	// request until its row is opened (or read, for a hit under a
	// sibling's activation).
	CompConflict
	// CompService is the tRCD+CL service slice: the request's row
	// activation (or its column command, on a row-buffer hit) to the end
	// of its data burst.
	CompService
	// CompFill is time from data availability back to completion: for
	// MSHR-coalesced requests, the wait on the leader's in-flight fill;
	// for leaders, the (synchronous) fill path itself.
	CompFill

	// NumComponents sizes component-indexed arrays.
	NumComponents
)

var componentNames = [NumComponents]string{
	"cache", "xlat", "queue", "refresh", "migration", "conflict", "service", "fill",
}

// String names the component as it appears in reports and sinks.
func (c Component) String() string {
	if c < 0 || c >= NumComponents {
		return fmt.Sprintf("component(%d)", int(c))
	}
	return componentNames[c]
}

// unset marks a stage transition that never happened.
const unset = sim.Time(-1)

// Span is one traced request's stamp record. Components keep a *Span on
// the request they carry (nil = untraced) and stamp stage transitions
// as the simulation reaches them; every stamp method is nil-receiver
// safe so call sites stay a single branch.
type Span struct {
	core   int
	issued sim.Time

	mergedAt  sim.Time // coalesced into an in-flight MSHR fill
	xlatAt    sim.Time // began waiting on a translation-table fetch
	enqAt     sim.Time // admitted to a controller read queue
	preAt     sim.Time // first PRE issued for this request (row conflict)
	actAt     sim.Time // last ACT issued for this request
	rdAt      sim.Time // column read issued
	burstEnd  sim.Time // data burst end
	refCredit sim.Time // refresh windows overlapping the queue wait
	migCredit sim.Time // migration windows overlapping the queue wait
	bankTID   int      // serving bank's trace track (-1 until the burst)

	// Energy ledger (integer picojoules) over the latency component
	// axis. Only DRAM-command components carry energy: conflict is the
	// closing precharges, service the activations plus the burst,
	// refresh/migration the blocking commands credited to the wait. Each
	// stamp adds its command's energy to its component AND to eTotalPJ;
	// Finish verifies the component sum equals eTotalPJ exactly.
	ePJ      [NumComponents]int64
	eTotalPJ int64
}

// reset re-arms a pooled span for a new request.
func (sp *Span) reset(core int, at sim.Time) {
	*sp = Span{
		core: core, issued: at,
		mergedAt: unset, xlatAt: unset, enqAt: unset,
		preAt: unset, actAt: unset, rdAt: unset, burstEnd: unset,
		bankTID: -1,
	}
}

// StampMerge records coalescing into an in-flight fill (first one wins:
// a request merges at most once on its way down).
func (sp *Span) StampMerge(t sim.Time) {
	if sp != nil && sp.mergedAt == unset {
		sp.mergedAt = t
	}
}

// StampXlat records the start of a translation-table fetch wait.
func (sp *Span) StampXlat(t sim.Time) {
	if sp != nil && sp.xlatAt == unset {
		sp.xlatAt = t
	}
}

// StampEnqueue records admission to a controller read queue.
func (sp *Span) StampEnqueue(t sim.Time) {
	if sp != nil && sp.enqAt == unset {
		sp.enqAt = t
	}
}

// StampPre records a row-conflict precharge issued for this request,
// costing pj picojoules. The first PRE's time wins — later re-closes (a
// sibling stealing the bank) extend the conflict window rather than
// restarting it — but every PRE's energy accumulates.
func (sp *Span) StampPre(t sim.Time, pj int64) {
	if sp == nil {
		return
	}
	if sp.preAt == unset {
		sp.preAt = t
	}
	sp.ePJ[CompConflict] += pj
	sp.eTotalPJ += pj
}

// StampAct records an activation issued for this request, costing pj
// picojoules. The last ACT's time wins: if the opened row is closed by
// an intervening conflict, service is measured from the activation that
// actually fed the burst. Every ACT's energy accumulates.
func (sp *Span) StampAct(t sim.Time, pj int64) {
	if sp != nil {
		sp.actAt = t
		sp.ePJ[CompService] += pj
		sp.eTotalPJ += pj
	}
}

// StampRead records the column read and its data burst end, costing pj
// picojoules.
func (sp *Span) StampRead(t, end sim.Time, pj int64) {
	if sp != nil && sp.rdAt == unset {
		sp.rdAt = t
		sp.burstEnd = end
		sp.ePJ[CompService] += pj
		sp.eTotalPJ += pj
	}
}

// CreditRefresh attributes a refresh occupancy window to this span's
// queue wait, along with the blocking REF command's energy.
func (sp *Span) CreditRefresh(d sim.Time, pj int64) {
	if sp != nil {
		sp.refCredit += d
		sp.ePJ[CompRefresh] += pj
		sp.eTotalPJ += pj
	}
}

// CreditMigration attributes a migration occupancy window to this
// span's queue wait, along with the blocking swap's energy.
func (sp *Span) CreditMigration(d sim.Time, pj int64) {
	if sp != nil {
		sp.migCredit += d
		sp.ePJ[CompMigration] += pj
		sp.eTotalPJ += pj
	}
}

// Waiting reports whether the span is queued at the controller with no
// DRAM command issued for it yet — the state in which refresh and
// migration windows on its rank/bank are what it is waiting for.
func (sp *Span) Waiting() bool {
	return sp != nil && sp.enqAt != unset &&
		sp.preAt == unset && sp.actAt == unset && sp.rdAt == unset
}

// SetBankTID records the serving bank's trace track id for Perfetto
// flow linking.
func (sp *Span) SetBankTID(tid int) {
	if sp != nil && sp.bankTID < 0 {
		sp.bankTID = tid
	}
}

// breakdown decomposes the span's end-to-end latency in picoseconds.
// The decomposition telescopes over the stamped transitions, so the
// components sum to done-issued exactly:
//
//	hit/merged:  cache = merged-issued, fill = done-merged
//	serviced:    cache|xlat up to enqueue, queue/refresh/migration up to
//	             the first command, conflict to the activation, service
//	             to the burst end, fill to done
//
// Refresh and migration credits are occupancy windows issued while the
// request waited; they are disjoint and end before the first command by
// the device's own timing rules, so they partition the queue wait. The
// clamp is defensive: if an attribution bug ever over-credits, the
// credits are reduced deterministically rather than driving the queue
// component negative.
func (sp *Span) breakdown(done sim.Time) (comps [NumComponents]int64, total int64) {
	total = int64(done - sp.issued)
	switch {
	case sp.mergedAt != unset:
		comps[CompCache] = int64(sp.mergedAt - sp.issued)
		comps[CompFill] = int64(done - sp.mergedAt)
	case sp.enqAt == unset:
		comps[CompCache] = total
	default:
		if sp.xlatAt != unset {
			comps[CompCache] = int64(sp.xlatAt - sp.issued)
			comps[CompXlat] = int64(sp.enqAt - sp.xlatAt)
		} else {
			comps[CompCache] = int64(sp.enqAt - sp.issued)
		}
		first, open := sp.rdAt, sp.rdAt
		if sp.actAt != unset {
			first, open = sp.actAt, sp.actAt
		}
		if sp.preAt != unset {
			first = sp.preAt
			comps[CompConflict] = int64(open - sp.preAt)
		}
		wait := first - sp.enqAt
		ref, mig := sp.refCredit, sp.migCredit
		if ref > wait {
			ref = wait
		}
		if mig > wait-ref {
			mig = wait - ref
		}
		comps[CompRefresh] = int64(ref)
		comps[CompMigration] = int64(mig)
		comps[CompQueue] = int64(wait - ref - mig)
		comps[CompService] = int64(sp.burstEnd - open)
		comps[CompFill] = int64(done - sp.burstEnd)
	}
	return comps, total
}

// Recorder owns one run's spans: the pool, the sampling parameters, and
// the two ledgers the waterfall reports render. Like a Registry it
// belongs to one single-threaded simulated system and needs no locking.
type Recorder struct {
	label   string
	sampleN uint64
	seed    uint64

	trace   *telemetry.TraceRecorder
	coreTID []int // per-core "coreN req" track
	flowSeq int64

	pool []*Span

	lat    telemetry.Ledger // end-to-end latency over the components (ps, reported in ns)
	energy telemetry.Ledger // attributed DRAM energy over the same axis (pJ)
}

// NewRecorder builds a recorder tracing one in sampleN demand loads per
// core (clamped up to 1). seed derives each core's deterministic stride
// offset, so different seeds sample different request populations while
// any single configuration samples identically on every host.
func NewRecorder(label string, sampleN int, seed uint64) *Recorder {
	if sampleN < 1 {
		sampleN = 1
	}
	return &Recorder{
		label: label, sampleN: uint64(sampleN), seed: seed,
		lat:    telemetry.Ledger{Src: "core", Unit: "ps", Div: psPerNS},
		energy: telemetry.Ledger{Src: "core", Unit: "pJ"},
	}
}

// SampleN returns the sampling stride (trace one load in N).
func (r *Recorder) SampleN() uint64 { return r.sampleN }

// OffsetFor returns core's stride offset in [0, SampleN), derived from
// the seed by a splitmix64 finalizer so cores do not sample in lockstep.
func (r *Recorder) OffsetFor(core int) uint64 {
	return mix64(r.seed, uint64(core)) % r.sampleN
}

// mix64 is the splitmix64 finalizer over seed and a stream index.
func mix64(seed, stream uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// AttachTrace links finished spans into a Chrome trace: it allocates a
// "coreN req" track on tr for each of cores cores, and each request then
// renders as a REQ slice on its core's track with a flow arrow to the RD
// burst on the serving bank's track. A nil tr leaves tracing off.
func (r *Recorder) AttachTrace(tr *telemetry.TraceRecorder, cores int) {
	if tr == nil {
		return
	}
	r.trace = tr
	for i := 0; i < cores; i++ {
		r.coreTID = append(r.coreTID, tr.Track(fmt.Sprintf("core%d req", i)))
	}
}

// Begin starts a span for a sampled load issued by core at time at,
// recycling a pooled record when one is free.
func (r *Recorder) Begin(core int, at sim.Time) *Span {
	var sp *Span
	if n := len(r.pool); n > 0 {
		sp = r.pool[n-1]
		r.pool = r.pool[:n-1]
	} else {
		sp = new(Span)
	}
	sp.reset(core, at)
	return sp
}

// Finish completes a span at time done: its latency and energy
// decompositions are checked and aggregated by the two ledgers, the
// request is emitted to the trace, and the record returns to the pool.
// The caller must drop its span pointer afterwards.
func (r *Recorder) Finish(sp *Span, done sim.Time) {
	comps, total := sp.breakdown(done)
	r.lat.Add(sp.core, comps[:], total)
	r.energy.Add(sp.core, sp.ePJ[:], sp.eTotalPJ)
	if r.trace != nil {
		tid := r.coreTID[sp.core]
		r.trace.Duration("REQ", int64(sp.issued), total, tid, -1)
		if sp.rdAt != unset && sp.bankTID >= 0 {
			r.flowSeq++
			r.trace.FlowStart("req", int64(sp.rdAt), tid, r.flowSeq)
			r.trace.FlowEnd("req", int64(sp.rdAt), sp.bankTID, r.flowSeq)
		}
	}
	r.pool = append(r.pool, sp)
}

// Latency returns the per-request latency ledger: components recorded
// in picoseconds, means and quantiles reported in nanoseconds. It is nil
// on a nil recorder, and every Ledger accessor is nil-safe.
func (r *Recorder) Latency() *telemetry.Ledger {
	if r == nil {
		return nil
	}
	return &r.lat
}

// Energy returns the per-request attributed-energy ledger in integer
// picojoules (nil on a nil recorder).
func (r *Recorder) Energy() *telemetry.Ledger {
	if r == nil {
		return nil
	}
	return &r.energy
}

const psPerNS = 1000
