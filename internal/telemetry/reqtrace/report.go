package reqtrace

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Aggregate accumulates attribution across recorders (one explain run
// merges every workload of a design into one vector). The zero value is
// ready to use.
type Aggregate struct {
	Latency, Energy telemetry.Ledger
}

// AddTo merges this recorder's ledgers into a.
func (r *Recorder) AddTo(a *Aggregate) {
	if r == nil || a == nil {
		return
	}
	a.Latency.Merge(&r.lat)
	a.Energy.Merge(&r.energy)
}

// EncodeCSV writes every recorder's waterfall as long-form CSV:
// one "total" row per run followed by one row per component, runs
// sorted by label so merged output is independent of completion order.
// The energy_pj column is an exact integer picojoule sum: the component
// rows of a run sum to its total row with ==, which is the
// conservation property check.sh gates on.
func EncodeCSV(w io.Writer, recs []*Recorder) error {
	bw := bufio.NewWriterSize(w, 1<<14)
	if _, err := bw.WriteString(
		"run,requests,violations,energy_violations,component,sum_ns,mean_ns,share_pct,p50_ns,p95_ns,p99_ns,energy_pj,energy_mean_pj\n"); err != nil {
		return err
	}
	for _, r := range sortedLive(recs) {
		lat, en := &r.lat, &r.energy
		run := fmt.Sprintf("%s,%d,%d,%d", stats.CSVField(r.label), lat.Count(), lat.Violations(), en.Violations())
		totalSum := float64(lat.Sum()) / psPerNS
		fmt.Fprintf(bw, "%s,total,%.3f,%.3f,%.2f,%d,%d,%d,%d,%.1f\n",
			run, totalSum, lat.Mean(), 100.0,
			lat.Quantile(0.50), lat.Quantile(0.95), lat.Quantile(0.99), en.Sum(), en.Mean())
		for c := Component(0); c < NumComponents; c++ {
			i := int(c)
			sum := float64(lat.PartSum(i)) / psPerNS
			share := 0.0
			if totalSum > 0 {
				share = 100 * sum / totalSum
			}
			fmt.Fprintf(bw, "%s,%s,%.3f,%.3f,%.2f,%d,%d,%d,%d,%.1f\n",
				run, c, sum, lat.PartMean(i), share,
				lat.PartQuantile(i, 0.50), lat.PartQuantile(i, 0.95), lat.PartQuantile(i, 0.99),
				en.PartSum(i), en.PartMean(i))
		}
	}
	return bw.Flush()
}

// sortedLive returns the non-nil recorders sorted by label.
func sortedLive(recs []*Recorder) []*Recorder {
	live := make([]*Recorder, 0, len(recs))
	for _, r := range recs {
		if r != nil {
			live = append(live, r)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].label < live[j].label })
	return live
}
