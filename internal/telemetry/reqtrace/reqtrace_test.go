package reqtrace

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// componentNS returns component c's latency sum across r's requests in
// nanoseconds.
func componentNS(r *Recorder, c Component) float64 {
	return float64(r.Latency().PartSum(int(c))) / psPerNS
}

// finishAndCheck finishes sp and asserts the sum invariant held.
func finishAndCheck(t *testing.T, r *Recorder, sp *Span, done sim.Time) {
	t.Helper()
	before := r.Latency().Violations()
	r.Finish(sp, done)
	if r.Latency().Violations() != before {
		t.Fatalf("invariant violation: %s", r.Latency().FirstViolation())
	}
}

func TestBreakdownCacheHit(t *testing.T) {
	r := NewRecorder("run", 1, 42)
	sp := r.Begin(0, sim.FromNS(100))
	// No stamps at all: the request hit a cache level.
	finishAndCheck(t, r, sp, sim.FromNS(104))
	if got := componentNS(r, CompCache); got != 4 {
		t.Fatalf("cache hit: cache component = %v ns, want 4", got)
	}
	if got := r.Latency().Mean(); got != 4 {
		t.Fatalf("total mean = %v ns, want 4", got)
	}
}

func TestBreakdownCoalesced(t *testing.T) {
	r := NewRecorder("run", 1, 42)
	sp := r.Begin(0, sim.FromNS(0))
	sp.StampMerge(sim.FromNS(10))
	sp.StampMerge(sim.FromNS(25)) // second merge must not win
	finishAndCheck(t, r, sp, sim.FromNS(80))
	if c, f := componentNS(r, CompCache), componentNS(r, CompFill); c != 10 || f != 70 {
		t.Fatalf("coalesced: cache=%v fill=%v, want 10/70", c, f)
	}
}

func TestBreakdownFullServicePath(t *testing.T) {
	r := NewRecorder("run", 1, 42)
	sp := r.Begin(1, sim.FromNS(0))
	sp.StampXlat(sim.FromNS(20))
	sp.StampEnqueue(sim.FromNS(50))
	sp.CreditRefresh(sim.FromNS(30), 800)
	sp.CreditMigration(sim.FromNS(10), 300)
	sp.StampPre(sim.FromNS(150), 75)
	sp.StampAct(sim.FromNS(165), 150)
	sp.StampRead(sim.FromNS(180), sim.FromNS(195), 110)
	finishAndCheck(t, r, sp, sim.FromNS(200))
	want := map[Component]float64{
		CompCache:     20, // issue -> xlat
		CompXlat:      30, // xlat -> enqueue
		CompQueue:     60, // enqueue -> PRE (100) minus credits (40)
		CompRefresh:   30, //
		CompMigration: 10, //
		CompConflict:  15, // PRE -> ACT
		CompService:   30, // ACT -> burst end
		CompFill:      5,  // burst end -> done
	}
	var sum float64
	for c, w := range want {
		if got := componentNS(r, c); got != w {
			t.Fatalf("%v = %v ns, want %v", c, got, w)
		}
		sum += w
	}
	if sum != 200 {
		t.Fatalf("test vector inconsistent: components sum to %v, want 200", sum)
	}
	// The energy ledger must telescope too: per-component sums reproduce
	// the independently accumulated total, with zero violations.
	if r.Energy().Violations() != 0 {
		t.Fatalf("energy violation: %s", r.Energy().FirstViolation())
	}
	wantE := map[Component]int64{
		CompConflict:  75,
		CompService:   260, // ACT 150 + RD 110
		CompRefresh:   800,
		CompMigration: 300,
	}
	var esum int64
	for c := Component(0); c < NumComponents; c++ {
		if got := r.Energy().PartSum(int(c)); got != wantE[c] {
			t.Fatalf("%v energy = %d pJ, want %d", c, got, wantE[c])
		}
		esum += r.Energy().PartSum(int(c))
	}
	if esum != r.Energy().Sum() || r.Energy().Sum() != 1435 {
		t.Fatalf("energy sum = %d pJ, total = %d pJ, want both 1435", esum, r.Energy().Sum())
	}
	if got := r.Energy().Mean(); got != 1435 {
		t.Fatalf("energy mean = %v pJ, want 1435", got)
	}
}

func TestBreakdownRowHit(t *testing.T) {
	r := NewRecorder("run", 1, 42)
	sp := r.Begin(0, sim.FromNS(0))
	sp.StampEnqueue(sim.FromNS(10))
	// Row already open: straight to the column read, no PRE/ACT.
	sp.StampRead(sim.FromNS(40), sim.FromNS(55), 110)
	finishAndCheck(t, r, sp, sim.FromNS(60))
	if q, s := componentNS(r, CompQueue), componentNS(r, CompService); q != 30 || s != 15 {
		t.Fatalf("row hit: queue=%v service=%v, want 30/15", q, s)
	}
	if c := componentNS(r, CompConflict); c != 0 {
		t.Fatalf("row hit: conflict=%v, want 0", c)
	}
}

func TestBreakdownLastActWins(t *testing.T) {
	r := NewRecorder("run", 1, 42)
	sp := r.Begin(0, sim.FromNS(0))
	sp.StampEnqueue(sim.FromNS(0))
	sp.StampPre(sim.FromNS(10), 75)
	sp.StampAct(sim.FromNS(20), 150)
	// A sibling stole the bank; re-open for this request later.
	sp.StampAct(sim.FromNS(80), 150)
	sp.StampRead(sim.FromNS(90), sim.FromNS(100), 110)
	finishAndCheck(t, r, sp, sim.FromNS(100))
	// Conflict extends from the first PRE to the final ACT.
	if c := componentNS(r, CompConflict); c != 70 {
		t.Fatalf("conflict = %v ns, want 70", c)
	}
	if s := componentNS(r, CompService); s != 20 {
		t.Fatalf("service = %v ns, want 20", s)
	}
	// Both activations' energy accumulates even though only the last ACT
	// time wins.
	if got := r.Energy().PartSum(int(CompService)); got != 410 {
		t.Fatalf("service energy = %d pJ, want 410 (two ACTs + RD)", got)
	}
	if r.Energy().Violations() != 0 {
		t.Fatalf("energy violation: %s", r.Energy().FirstViolation())
	}
}

func TestCreditClampKeepsQueueNonNegative(t *testing.T) {
	r := NewRecorder("run", 1, 42)
	sp := r.Begin(0, sim.FromNS(0))
	sp.StampEnqueue(sim.FromNS(10))
	// Over-credit far beyond the actual wait window.
	sp.CreditRefresh(sim.FromNS(500), 800)
	sp.CreditMigration(sim.FromNS(500), 300)
	sp.StampRead(sim.FromNS(50), sim.FromNS(60), 110)
	finishAndCheck(t, r, sp, sim.FromNS(60))
	if q := componentNS(r, CompQueue); q != 0 {
		t.Fatalf("queue = %v ns, want 0 after clamp", q)
	}
	if ref := componentNS(r, CompRefresh); ref != 40 {
		t.Fatalf("refresh clamped to %v ns, want 40 (the whole wait)", ref)
	}
	if mig := componentNS(r, CompMigration); mig != 0 {
		t.Fatalf("migration = %v ns, want 0 (refresh consumed the wait)", mig)
	}
	// Time credits clamp; energy does not (the blocking commands really
	// did spend those joules), so the ledger still telescopes.
	if ref, mig := r.Energy().PartSum(int(CompRefresh)), r.Energy().PartSum(int(CompMigration)); ref != 800 || mig != 300 {
		t.Fatalf("credit energy = %d/%d pJ, want 800/300 (unclamped)", ref, mig)
	}
	if r.Energy().Violations() != 0 {
		t.Fatalf("energy violation: %s", r.Energy().FirstViolation())
	}
}

func TestViolationCountedNotPanicked(t *testing.T) {
	r := NewRecorder("run", 1, 42)
	sp := r.Begin(0, sim.FromNS(100))
	// done before issue: impossible, must be flagged.
	r.Finish(sp, sim.FromNS(50))
	if r.Latency().Violations() != 1 {
		t.Fatalf("violations = %d, want 1", r.Latency().Violations())
	}
	if r.Latency().FirstViolation() == "" || !strings.Contains(r.Latency().FirstViolation(), "core 0") {
		t.Fatalf("first violation = %q", r.Latency().FirstViolation())
	}
}

func TestSamplingDeterministicAndSpread(t *testing.T) {
	a := NewRecorder("a", 64, 12345)
	b := NewRecorder("b", 64, 12345)
	offsets := make(map[uint64]int)
	for core := 0; core < 16; core++ {
		oa, ob := a.OffsetFor(core), b.OffsetFor(core)
		if oa != ob {
			t.Fatalf("core %d: offsets differ for equal seeds (%d vs %d)", core, oa, ob)
		}
		if oa >= 64 {
			t.Fatalf("core %d: offset %d out of range", core, oa)
		}
		offsets[oa]++
	}
	if len(offsets) < 2 {
		t.Fatalf("all 16 cores sample in lockstep: offsets %v", offsets)
	}
	if c := NewRecorder("c", 64, 999); c.OffsetFor(0) == a.OffsetFor(0) && c.OffsetFor(1) == a.OffsetFor(1) && c.OffsetFor(2) == a.OffsetFor(2) {
		t.Fatal("different seeds produced identical offset streams")
	}
	if n := NewRecorder("n", 0, 1).SampleN(); n != 1 {
		t.Fatalf("sampleN clamp: %d, want 1", n)
	}
}

func TestSpanPoolRecycles(t *testing.T) {
	r := NewRecorder("run", 1, 42)
	sp := r.Begin(0, sim.FromNS(0))
	r.Finish(sp, sim.FromNS(10))
	sp2 := r.Begin(1, sim.FromNS(20))
	if sp2 != sp {
		t.Fatal("pooled span not recycled")
	}
	// The recycled span must be fully re-armed.
	if sp2.Waiting() {
		t.Fatal("recycled span still looks enqueued")
	}
	finishAndCheck(t, r, sp2, sim.FromNS(30))
	if r.Latency().Count() != 2 {
		t.Fatalf("requests = %d, want 2", r.Latency().Count())
	}
}

// TestTracedRequestAllocatesNothing holds DESIGN.md §8's promise that
// steady-state tracing allocates nothing: with the span pool warm and no
// trace attached, a request stamped at every site and finished costs
// zero allocations. The ledgers must not make Finish's component array
// escape.
func TestTracedRequestAllocatesNothing(t *testing.T) {
	r := NewRecorder("run", 1, 42)
	request := func() {
		sp := r.Begin(0, sim.FromNS(0))
		sp.StampMerge(sim.FromNS(5))
		sp.StampXlat(sim.FromNS(20))
		sp.StampEnqueue(sim.FromNS(50))
		sp.CreditRefresh(sim.FromNS(30), 800)
		sp.CreditMigration(sim.FromNS(10), 300)
		sp.StampPre(sim.FromNS(150), 75)
		sp.StampAct(sim.FromNS(165), 150)
		sp.StampRead(sim.FromNS(180), sim.FromNS(195), 110)
		sp.SetBankTID(7)
		r.Finish(sp, sim.FromNS(200))
	}
	request() // warm the span pool and size the ledgers
	if allocs := testing.AllocsPerRun(100, request); allocs != 0 {
		t.Fatalf("traced request allocates %v objects, want 0", allocs)
	}
	if v := r.Latency().Violations() + r.Energy().Violations(); v != 0 {
		t.Fatalf("%d violation(s): %s %s", v, r.Latency().FirstViolation(), r.Energy().FirstViolation())
	}
}

func TestNilSpanStampsAreNoOps(t *testing.T) {
	var sp *Span
	sp.StampMerge(1)
	sp.StampXlat(1)
	sp.StampEnqueue(1)
	sp.StampPre(1, 10)
	sp.StampAct(1, 10)
	sp.StampRead(1, 2, 10)
	sp.CreditRefresh(1, 10)
	sp.CreditMigration(1, 10)
	sp.SetBankTID(3)
	if sp.Waiting() {
		t.Fatal("nil span reports waiting")
	}
}

func TestFinishEmitsTraceFlow(t *testing.T) {
	r := NewRecorder("run", 1, 42)
	tr := telemetry.NewTraceRecorder("run")
	bank := tr.Track("bank")
	r.AttachTrace(tr, 3)
	sp := r.Begin(2, sim.FromNS(0))
	sp.StampEnqueue(sim.FromNS(5))
	sp.StampRead(sim.FromNS(20), sim.FromNS(30), 110)
	sp.SetBankTID(bank)
	finishAndCheck(t, r, sp, sim.FromNS(35))
	// REQ duration + flow start + flow end.
	if tr.Len() != 3 {
		t.Fatalf("trace events = %d, want 3", tr.Len())
	}
	var out strings.Builder
	if err := telemetry.EncodeTrace(&out, []*telemetry.TraceRecorder{tr}); err != nil {
		t.Fatal(err)
	}
	enc := out.String()
	// Tracks 1-3 are core0-core2's, allocated after the bank's track 0:
	// the REQ slice and flow start sit on core 2's, the flow end on the bank's.
	for _, want := range []string{
		`"tid":3,"args":{"name":"core2 req"}`,
		`"ph":"X","ts":0,"dur":0.035,"pid":1,"tid":3`,
		`"ph":"s","ts":0.02,"cat":"flow","id":"1","pid":1,"tid":3`,
		`"ph":"f","ts":0.02,"cat":"flow","id":"1","bp":"e","pid":1,"tid":0`,
		`"name":"REQ"`,
	} {
		if !strings.Contains(enc, want) {
			t.Fatalf("encoded trace missing %s:\n%s", want, enc)
		}
	}
}

func TestEncodersDeterministicAndSorted(t *testing.T) {
	build := func() []*Recorder {
		// Construct in reverse label order; encoders must sort.
		rb := NewRecorder("b-run", 1, 1)
		sp := rb.Begin(0, 0)
		sp.StampEnqueue(sim.FromNS(2))
		sp.StampRead(sim.FromNS(10), sim.FromNS(12), 110)
		rb.Finish(sp, sim.FromNS(14))
		ra := NewRecorder("a-run", 1, 1)
		sp = ra.Begin(0, 0)
		ra.Finish(sp, sim.FromNS(3))
		return []*Recorder{rb, nil, ra}
	}
	var csv1, csv2 strings.Builder
	if err := EncodeCSV(&csv1, build()); err != nil {
		t.Fatal(err)
	}
	if err := EncodeCSV(&csv2, build()); err != nil {
		t.Fatal(err)
	}
	if csv1.String() != csv2.String() {
		t.Fatal("CSV encoding not deterministic")
	}
	aIdx := strings.Index(csv1.String(), "a-run")
	bIdx := strings.Index(csv1.String(), "b-run")
	if aIdx < 0 || bIdx < 0 || aIdx > bIdx {
		t.Fatalf("CSV runs not sorted by label:\n%s", csv1.String())
	}
	if !strings.Contains(csv1.String(), "run,requests,violations,energy_violations,component,sum_ns,mean_ns,share_pct,p50_ns,p95_ns,p99_ns,energy_pj,energy_mean_pj") {
		t.Fatalf("CSV header missing:\n%s", csv1.String())
	}
	if !strings.Contains(csv1.String(), "\na-run,1,0,0,total,3.000,3.000,100.00,") {
		t.Fatalf("CSV missing a-run's total row:\n%s", csv1.String())
	}
}

func TestAggregateMerges(t *testing.T) {
	r1 := NewRecorder("x", 1, 1)
	sp := r1.Begin(0, 0)
	r1.Finish(sp, sim.FromNS(10))
	r2 := NewRecorder("y", 1, 1)
	sp = r2.Begin(0, 0)
	sp.StampEnqueue(sim.FromNS(5))
	sp.StampRead(sim.FromNS(10), sim.FromNS(20), 110)
	r2.Finish(sp, sim.FromNS(30))
	var agg Aggregate
	r1.AddTo(&agg)
	r2.AddTo(&agg)
	if agg.Latency.Count() != 2 {
		t.Fatalf("requests = %d, want 2", agg.Latency.Count())
	}
	if got := agg.Latency.Mean(); got != 20 {
		t.Fatalf("merged mean = %v ns, want 20", got)
	}
	if got := agg.Energy.Sum(); got != 110 {
		t.Fatalf("merged energy = %d pJ, want 110", got)
	}
	if got := agg.Energy.PartSum(int(CompService)); got != 110 {
		t.Fatalf("merged service energy = %d pJ, want 110", got)
	}
	if got := agg.Energy.Mean(); got != 55 {
		t.Fatalf("merged energy mean = %v pJ, want 55", got)
	}
	if got := agg.Energy.PartMean(int(CompService)); got != 55 {
		t.Fatalf("merged service energy mean = %v pJ, want 55", got)
	}
}

func TestEnergyViolationCounted(t *testing.T) {
	r := NewRecorder("run", 1, 42)
	sp := r.Begin(0, sim.FromNS(0))
	sp.StampEnqueue(sim.FromNS(5))
	sp.StampRead(sim.FromNS(10), sim.FromNS(20), 110)
	// Simulate a buggy stamp site that bumps the running total without
	// attributing the energy to any component: the ledger must catch it.
	sp.eTotalPJ += 7
	r.Finish(sp, sim.FromNS(25))
	if r.Energy().Violations() != 1 {
		t.Fatalf("energy violations = %d, want 1", r.Energy().Violations())
	}
	if msg := r.Energy().FirstViolation(); !strings.Contains(msg, "total=117pJ") || !strings.Contains(msg, "sum=110pJ") {
		t.Fatalf("first energy violation = %q", msg)
	}
	// The latency decomposition is independent and must still hold.
	if r.Latency().Violations() != 0 {
		t.Fatalf("latency violations = %d, want 0", r.Latency().Violations())
	}
}

func TestSpanPoolResetsEnergyLedger(t *testing.T) {
	r := NewRecorder("run", 1, 42)
	sp := r.Begin(0, sim.FromNS(0))
	sp.StampEnqueue(sim.FromNS(1))
	sp.StampPre(sim.FromNS(2), 75)
	sp.StampAct(sim.FromNS(3), 150)
	sp.StampRead(sim.FromNS(4), sim.FromNS(5), 110)
	r.Finish(sp, sim.FromNS(6))
	sp2 := r.Begin(0, sim.FromNS(10))
	if sp2 != sp {
		t.Fatal("pooled span not recycled")
	}
	finishAndCheck(t, r, sp2, sim.FromNS(12))
	// The recycled span was a pure cache hit: no stale energy may leak.
	if got := r.Energy().Sum(); got != 335 {
		t.Fatalf("energy after recycle = %d pJ, want 335 (first span only)", got)
	}
	if r.Energy().Violations() != 0 {
		t.Fatalf("energy violation: %s", r.Energy().FirstViolation())
	}
}

func TestEnergyQuantile(t *testing.T) {
	r := NewRecorder("run", 1, 42)
	for i := 0; i < 4; i++ {
		sp := r.Begin(0, sim.FromNS(0))
		sp.StampEnqueue(sim.FromNS(1))
		sp.StampRead(sim.FromNS(2), sim.FromNS(3), 100)
		r.Finish(sp, sim.FromNS(4))
	}
	if q := r.Energy().Quantile(0.5); q < 100 || q > 256 {
		t.Fatalf("p50 energy = %d pJ, want within [100,256] (log2 bucket bound)", q)
	}
	var nilRec *Recorder
	if nilRec.Energy().Quantile(0.5) != 0 || nilRec.Energy().Sum() != 0 || nilRec.Energy().Violations() != 0 {
		t.Fatal("nil recorder energy accessors must be zero")
	}
}
