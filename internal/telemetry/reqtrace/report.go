package reqtrace

import (
	"bufio"
	"encoding/json"
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
		label := stats.CSVField(r.label)
		for _, c := range waterfall(r) {
			fmt.Fprintf(bw, "%s,%d,%d,%d,%s,%.3f,%.3f,%.2f,%d,%d,%d,%d,%.1f\n",
				label, r.lat.Count(), r.lat.Violations(), r.energy.Violations(), c.Name,
				c.SumNS, c.MeanNS, c.SharePct, c.P50NS, c.P95NS, c.P99NS,
				c.EnergyPJ, c.EnergyMeanPJ)
		}
	}
	return bw.Flush()
}

// componentJSON is one component's aggregated attribution.
type componentJSON struct {
	Name         string  `json:"name"`
	SumNS        float64 `json:"sum_ns"`
	MeanNS       float64 `json:"mean_ns"`
	SharePct     float64 `json:"share_pct"`
	P50NS        uint64  `json:"p50_ns"`
	P95NS        uint64  `json:"p95_ns"`
	P99NS        uint64  `json:"p99_ns"`
	EnergyPJ     int64   `json:"energy_pj"`
	EnergyMeanPJ float64 `json:"energy_mean_pj"`
}

// runJSON is one run's waterfall document.
type runJSON struct {
	Run              string          `json:"run"`
	Requests         uint64          `json:"requests"`
	Violations       uint64          `json:"violations"`
	EnergyViolations uint64          `json:"energy_violations"`
	Total            componentJSON   `json:"total"`
	Components       []componentJSON `json:"components"`
}

// EncodeJSON writes every recorder's waterfall as one JSON array, runs
// sorted by label.
func EncodeJSON(w io.Writer, recs []*Recorder) error {
	out := make([]runJSON, 0, len(recs))
	for _, r := range sortedLive(recs) {
		rows := waterfall(r)
		out = append(out, runJSON{
			Run: r.label, Requests: r.lat.Count(), Violations: r.lat.Violations(),
			EnergyViolations: r.energy.Violations(),
			Total:            rows[0], Components: rows[1:],
		})
	}
	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}

// waterfall returns r's attribution rows: the total, then one row per
// component.
func waterfall(r *Recorder) []componentJSON {
	lat, en := &r.lat, &r.energy
	totalSum := float64(lat.Sum()) / psPerNS
	rows := []componentJSON{{
		Name: "total", SumNS: totalSum, MeanNS: lat.Mean(), SharePct: 100,
		P50NS: lat.Quantile(0.50), P95NS: lat.Quantile(0.95), P99NS: lat.Quantile(0.99),
		EnergyPJ: en.Sum(), EnergyMeanPJ: en.Mean(),
	}}
	for c := Component(0); c < NumComponents; c++ {
		i := int(c)
		sum := float64(lat.PartSum(i)) / psPerNS
		share := 0.0
		if totalSum > 0 {
			share = 100 * sum / totalSum
		}
		rows = append(rows, componentJSON{
			Name: c.String(), SumNS: sum, MeanNS: lat.PartMean(i), SharePct: share,
			P50NS: lat.PartQuantile(i, 0.50), P95NS: lat.PartQuantile(i, 0.95), P99NS: lat.PartQuantile(i, 0.99),
			EnergyPJ: en.PartSum(i), EnergyMeanPJ: en.PartMean(i),
		})
	}
	return rows
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
