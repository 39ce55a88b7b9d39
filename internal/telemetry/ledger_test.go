package telemetry

import "testing"

func TestLedgerMergeIntoZeroValue(t *testing.T) {
	good := Ledger{Src: "core", Unit: "ps", Div: 1000}
	if !good.Add(0, []int64{1000, 3000}, 4000) {
		t.Fatal("a decomposition that sums to its total was rejected")
	}
	bad := Ledger{Src: "core", Unit: "ps", Div: 1000}
	parts := []int64{-1000, 1000}
	if bad.Add(2, parts, 1) {
		t.Fatal("a negative part that also misses the total was accepted")
	}
	parts[0] = 7 // the description must not alias the caller's slice

	var empty, agg Ledger
	agg.Merge(&empty) // a source with no records leaves agg shapeless
	agg.Merge(&good)
	agg.Merge(&bad)
	if agg.Count() != 2 || agg.Violations() != 1 {
		t.Fatalf("count=%d violations=%d, want 2 and 1 (one per failing record)", agg.Count(), agg.Violations())
	}
	if want := "core 2 total=1ps sum=0ps parts=[-1000 1000]"; agg.FirstViolation() != want {
		t.Fatalf("first violation = %q, want %q", agg.FirstViolation(), want)
	}
	if agg.Sum() != 4001 || agg.PartSum(0) != 0 || agg.PartSum(1) != 4000 {
		t.Fatalf("sums = %d [%d %d], want 4001 [0 4000]", agg.Sum(), agg.PartSum(0), agg.PartSum(1))
	}
	// Means and quantiles are in the reported unit (ps / 1000 = ns);
	// the negative part is observed as 0.
	if agg.Mean() != 2.0005 || agg.PartMean(1) != 2 {
		t.Fatalf("means = %v, %v ns, want 2.0005 and 2", agg.Mean(), agg.PartMean(1))
	}
	if q := agg.PartQuantile(0, 0.5); q != 0 {
		t.Fatalf("part 0 p50 = %d ns, want 0", q)
	}
	if q := agg.Quantile(1); q != 7 {
		t.Fatalf("total p100 = %d ns, want 7 (log2 bucket holding 4)", q)
	}
	var nilLedger *Ledger
	if nilLedger.Count() != 0 || nilLedger.PartMean(3) != 0 || nilLedger.PartQuantile(3, 0.5) != 0 || nilLedger.FirstViolation() != "" {
		t.Fatal("nil ledger accessors must be zero")
	}
}
