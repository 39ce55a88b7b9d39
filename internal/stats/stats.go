// Package stats provides the derived metrics and text-table rendering the
// experiment harness uses to regenerate the paper's figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// GmeanErr returns the geometric mean of xs, or an error naming the
// first non-positive input (a geometric mean is only defined over
// positive values; the paper's gmean columns are over positive
// speedups). An empty slice yields 0 with no error.
func GmeanErr(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	sum := 0.0
	for i, x := range xs {
		if x <= 0 || math.IsNaN(x) {
			return 0, fmt.Errorf("gmean over non-positive value %v at index %d", x, i)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// GmeanImprovementErr converts per-workload speedup ratios (design IPC
// / baseline IPC) into the paper's "performance improvement"
// percentage. A run that produced a zero or negative IPC ratio (a
// crashed or degenerate measurement) becomes GmeanErr's diagnosable
// error instead of a number in the middle of figure rendering.
func GmeanImprovementErr(ratios []float64) (float64, error) {
	g, err := GmeanErr(ratios)
	if err != nil {
		return 0, err
	}
	return (g - 1) * 100, nil
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percent formats a fraction as a percentage string.
func Percent(f float64) string { return fmt.Sprintf("%.2f%%", f*100) }

// PercentileErr returns the q-quantile (0 <= q <= 1) of xs by the
// nearest-rank method on a sorted copy: the smallest element such that
// at least q of the sample is <= it. Nearest rank returns an actual
// observation (no interpolation), so p99 of a latency sample is a
// latency that really occurred; q is clamped. An empty sample is an
// error: a percentile of nothing is undefined, and reporting paths that
// print quantiles of measured samples should surface that instead of a
// silent 0.
func PercentileErr(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: percentile of empty sample")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1], nil
}

// Dist is a three-way access-location distribution (Figures 7c/7f/8b).
type Dist struct {
	RowBuffer, Fast, Slow uint64
}

// Total returns the access count.
func (d Dist) Total() uint64 { return d.RowBuffer + d.Fast + d.Slow }

// Fractions returns the normalized distribution; all zeros when empty.
func (d Dist) Fractions() (rb, fast, slow float64) {
	t := d.Total()
	if t == 0 {
		return 0, 0, 0
	}
	return float64(d.RowBuffer) / float64(t), float64(d.Fast) / float64(t), float64(d.Slow) / float64(t)
}

// FastLevelMissRatio is the fraction of row-opening accesses that landed
// on the slow level (Figure 8b's "miss ratio of the fast level").
func (d Dist) FastLevelMissRatio() float64 {
	opens := d.Fast + d.Slow
	if opens == 0 {
		return 0
	}
	return float64(d.Slow) / float64(opens)
}

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Caption string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render returns the aligned text form.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Caption != "" {
		fmt.Fprintf(&b, "%s\n", t.Caption)
	}
	return b.String()
}

// CSV returns the table in RFC-4180-ish CSV form (each field through
// CSVField).
func (t *Table) CSV() string {
	var b strings.Builder
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(CSVField(c))
		}
		b.WriteByte('\n')
	}
	row(t.Header)
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}

// CSVField quotes one CSV field the RFC-4180 way when it contains a
// comma, a double quote or a newline (doubling inner quotes), and
// returns it unchanged otherwise.
func CSVField(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// SortedKeys returns map keys in sorted order (deterministic output).
func SortedKeys[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
