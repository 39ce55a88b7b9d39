package telemetry

import "fmt"

// Ledger checks and aggregates an exact telescoping decomposition: each
// record splits an integer total into parts that must be non-negative
// and sum to the total with integer equality. A failing record counts
// as one violation however many of its parts are wrong, and the first
// one is described; it is still aggregated, so the sums stay a faithful
// ledger of what was recorded.
//
// Values are recorded in an integer unit (ps, pJ, ns) and summed
// exactly. Means and the log2 histograms behind the quantiles are in the
// reported unit, recorded value / Div (ps recorded, ns reported: Div
// 1000). Every accessor is nil-receiver-safe, and Add allocates nothing
// unless a record fails. The zero value is ready to use and is a valid
// Merge target. A Ledger is not safe for concurrent use.
type Ledger struct {
	// Src names what Add's src index counts ("core", "span") and Unit
	// suffixes recorded values in the first-violation description.
	Src, Unit string
	// Div scales recorded values into the reported unit (0 means 1).
	Div int64

	n, violations uint64
	first         string
	sum           int64
	hist          Histogram
	partSum       []int64
	partHist      []Histogram
}

// Add records one decomposition of total into parts and reports whether
// it held. The first record fixes the number of parts. parts is only
// read: it is copied, on the violation path alone, to describe it.
func (l *Ledger) Add(src int, parts []int64, total int64) bool {
	if len(l.partSum) == 0 {
		l.partSum = make([]int64, len(parts))
		l.partHist = make([]Histogram, len(parts))
	}
	var sum int64
	ok := true
	for i, p := range parts {
		if p < 0 {
			ok = false
		}
		sum += p
		l.partSum[i] += p
		l.partHist[i].Observe(l.scaled(p))
	}
	if sum != total {
		ok = false
	}
	if !ok {
		l.violations++
		if l.first == "" {
			l.first = fmt.Sprintf("%s %d total=%d%s sum=%d%s parts=%v",
				l.Src, src, total, l.Unit, sum, l.Unit, append([]int64(nil), parts...))
		}
	}
	l.n++
	l.sum += total
	l.hist.Observe(l.scaled(total))
	return ok
}

// Merge folds o's records into l. A ledger that has no parts yet, such
// as the zero value, takes o's Src, Unit, Div and part count.
func (l *Ledger) Merge(o *Ledger) {
	if l == nil || o == nil {
		return
	}
	if len(l.partSum) == 0 {
		l.Src, l.Unit, l.Div = o.Src, o.Unit, o.Div
		l.partSum = make([]int64, len(o.partSum))
		l.partHist = make([]Histogram, len(o.partSum))
	}
	l.n += o.n
	l.violations += o.violations
	if l.first == "" {
		l.first = o.first
	}
	l.sum += o.sum
	l.hist.Merge(&o.hist)
	for i := range o.partSum {
		l.partSum[i] += o.partSum[i]
		l.partHist[i].Merge(&o.partHist[i])
	}
}

// Count returns the number of records.
func (l *Ledger) Count() uint64 {
	if l == nil {
		return 0
	}
	return l.n
}

// Violations returns the number of records whose parts were negative or
// did not sum to their total.
func (l *Ledger) Violations() uint64 {
	if l == nil {
		return 0
	}
	return l.violations
}

// FirstViolation describes the first failing record ("" when none).
func (l *Ledger) FirstViolation() string {
	if l == nil {
		return ""
	}
	return l.first
}

// Sum returns the exact sum of recorded totals, in the recorded unit.
func (l *Ledger) Sum() int64 {
	if l == nil {
		return 0
	}
	return l.sum
}

// PartSum returns the exact sum of part i, in the recorded unit.
func (l *Ledger) PartSum(i int) int64 {
	s, _ := l.part(i)
	return s
}

// Mean returns the mean total per record, in the reported unit.
func (l *Ledger) Mean() float64 { return l.mean(l.Sum()) }

// PartMean returns part i's mean per record, in the reported unit.
func (l *Ledger) PartMean(i int) float64 { return l.mean(l.PartSum(i)) }

// Quantile returns the q-quantile of record totals in the reported unit
// (log2-bucket upper bound; see Histogram.Quantile).
func (l *Ledger) Quantile(q float64) uint64 {
	if l == nil {
		return 0
	}
	return l.hist.Quantile(q)
}

// PartQuantile returns the q-quantile of part i in the reported unit.
func (l *Ledger) PartQuantile(i int, q float64) uint64 {
	_, h := l.part(i)
	return h.Quantile(q)
}

// part returns part i's sum and histogram (0 and nil before any record).
func (l *Ledger) part(i int) (int64, *Histogram) {
	if l == nil || i >= len(l.partSum) {
		return 0, nil
	}
	return l.partSum[i], &l.partHist[i]
}

func (l *Ledger) mean(sum int64) float64 {
	if l == nil || l.n == 0 {
		return 0
	}
	return float64(sum) / float64(l.n) / float64(l.div())
}

// scaled converts a recorded value to the reported unit for the
// histograms, clamping the (violation-counted) negative case to 0.
func (l *Ledger) scaled(v int64) uint64 {
	return uint64(max(v, 0) / l.div())
}

func (l *Ledger) div() int64 {
	if l.Div <= 0 {
		return 1
	}
	return l.Div
}
