package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Timeline records per-epoch snapshots of one run's registry. The host
// run loop calls Snap whenever simulated time crosses an epoch boundary
// (and once more at run end), so recording adds no simulation events
// and cannot perturb ordering. One Timeline belongs to one run.
type Timeline struct {
	// Label identifies the run in merged output (design, benchmarks and
	// sweep parameters; unique per run within a session).
	Label string
	// IntervalPS is the epoch length in picoseconds of simulated time.
	IntervalPS int64

	epochs []Epoch
}

// Epoch is one snapshot: every registry metric at a simulated instant.
type Epoch struct {
	// AtPS is the simulated time of the snapshot in picoseconds.
	AtPS int64
	// Metrics is sorted by name (see Registry.Snapshot).
	Metrics []Metric
}

// Snap appends a snapshot of reg at simulated time atPS.
func (t *Timeline) Snap(atPS int64, reg *Registry) {
	if t == nil {
		return
	}
	t.epochs = append(t.epochs, Epoch{AtPS: atPS, Metrics: reg.Snapshot(nil)})
}

// Epochs returns the recorded snapshots in simulated-time order.
func (t *Timeline) Epochs() []Epoch {
	if t == nil {
		return nil
	}
	return t.epochs
}

// sortTimelines orders runs by label so merged output is independent of
// host scheduling (runs execute in parallel; labels are unique).
func sortTimelines(ts []*Timeline) []*Timeline {
	sorted := make([]*Timeline, 0, len(ts))
	for _, t := range ts {
		if t != nil {
			sorted = append(sorted, t)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Label < sorted[j].Label })
	return sorted
}

// EncodeTimelinesCSV writes merged timelines as long-form CSV
// (run,epoch_ns,metric,value), runs sorted by label, epochs by time,
// metrics by name: byte-deterministic for a deterministic simulation.
func EncodeTimelinesCSV(w io.Writer, ts []*Timeline) error {
	if _, err := io.WriteString(w, "run,epoch_ns,metric,value\n"); err != nil {
		return err
	}
	var b strings.Builder
	for _, t := range sortTimelines(ts) {
		label := csvField(t.Label)
		for _, e := range t.epochs {
			ns := formatPSinNS(e.AtPS)
			for _, m := range e.Metrics {
				b.Reset()
				b.WriteString(label)
				b.WriteByte(',')
				b.WriteString(ns)
				b.WriteByte(',')
				b.WriteString(csvField(m.Name))
				b.WriteByte(',')
				b.WriteString(formatValue(m.Value))
				b.WriteByte('\n')
				if _, err := io.WriteString(w, b.String()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// timelineJSON is the JSON shape of one run's timeline.
type timelineJSON struct {
	Run         string      `json:"run"`
	IntervalNS  float64     `json:"interval_ns"`
	EpochsCount int         `json:"epochs"`
	Series      []epochJSON `json:"series"`
}

type epochJSON struct {
	EpochNS float64            `json:"epoch_ns"`
	Metrics map[string]float64 `json:"metrics"`
}

// EncodeTimelinesJSON writes merged timelines as indented JSON, runs
// sorted by label. Metric maps marshal with sorted keys (encoding/json
// guarantees it), so output is byte-deterministic.
func EncodeTimelinesJSON(w io.Writer, ts []*Timeline) error {
	out := make([]timelineJSON, 0, len(ts))
	for _, t := range sortTimelines(ts) {
		tj := timelineJSON{
			Run:         t.Label,
			IntervalNS:  float64(t.IntervalPS) / 1000,
			EpochsCount: len(t.epochs),
		}
		for _, e := range t.epochs {
			m := make(map[string]float64, len(e.Metrics))
			for _, mt := range e.Metrics {
				m[mt.Name] = mt.Value
			}
			tj.Series = append(tj.Series, epochJSON{EpochNS: float64(e.AtPS) / 1000, Metrics: m})
		}
		out = append(out, tj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// formatPSinNS renders picoseconds as a nanosecond decimal without
// float formatting artifacts (e.g. 1500 ps -> "1.5").
func formatPSinNS(ps int64) string {
	whole, frac := ps/1000, ps%1000
	if frac == 0 {
		return strconv.FormatInt(whole, 10)
	}
	s := strconv.FormatInt(whole, 10) + "." + fmt.Sprintf("%03d", frac)
	return strings.TrimRight(s, "0")
}

// formatValue renders a metric value compactly (integers without a
// decimal point; histogram means with up to 6 significant decimals).
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 10, 64)
}

// csvField quotes a CSV field when needed (RFC-4180-ish, matching
// stats.Table.CSV).
func csvField(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
}
