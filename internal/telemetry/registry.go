// Package telemetry is the simulator's observability layer: a
// deterministic, zero-alloc-at-steady-state metrics registry plus two
// sinks (an interval timeline and a Chrome trace-event exporter).
//
// Design constraints, in priority order:
//
//  1. Provably free when off. A nil *Registry hands out nil
//     instruments, and every instrument method is nil-receiver-safe, so
//     instrumented hot paths pay one predictable branch and zero
//     allocations when telemetry is disabled (held to that by
//     TestDisabledInstrumentsAllocateNothing).
//  2. Never perturbs simulation ordering. Instruments only mutate
//     host-side counters; nothing here schedules engine events, draws
//     from an RNG, or touches component state. Snapshots are driven by
//     the host run loop at deterministic simulated times.
//  3. Deterministic output. Snapshot order is sorted by metric name and
//     sampled functions read single-threaded simulator state, so two
//     runs of the same configuration emit byte-identical telemetry
//     regardless of host parallelism.
//
// One Registry belongs to one simulated system, mirroring the
// single-threaded discrete-event engine: registration and instrument
// updates need no locking.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Kind discriminates instrument types in a registry listing.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
	KindSampled
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	case KindSampled:
		return "sampled"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// Registry owns a simulated system's instruments. The zero value is not
// useful: use New for an enabled registry or keep a nil pointer for a
// disabled one (a nil Registry is the documented "off" state and every
// method on it is safe).
type Registry struct {
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
	sampled  []*Sampled

	kinds map[string]Kind
}

// New returns an enabled, empty registry.
func New() *Registry {
	return &Registry{kinds: make(map[string]Kind)}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// register claims name for kind. Re-registering a name with a different
// kind is a programmer error on the assembly path (never data-driven),
// so it panics like the engine's scheduling invariants do.
func (r *Registry) register(name string, kind Kind) bool {
	if prev, ok := r.kinds[name]; ok {
		if prev != kind {
			panic(fmt.Sprintf("telemetry: %q re-registered as %v (was %v)", name, kind, prev))
		}
		return false
	}
	r.kinds[name] = kind
	return true
}

// Counter returns the named monotonic counter, creating it on first use.
// On a nil registry it returns nil, which is a valid no-op instrument.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if !r.register(name, KindCounter) {
		for _, c := range r.counters {
			if c.name == name {
				return c
			}
		}
	}
	c := &Counter{name: name}
	r.counters = append(r.counters, c)
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-registry
// calls return a nil no-op instrument.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if !r.register(name, KindGauge) {
		for _, g := range r.gauges {
			if g.name == name {
				return g
			}
		}
	}
	g := &Gauge{name: name}
	r.gauges = append(r.gauges, g)
	return g
}

// Histogram returns the named fixed-log2-bucket histogram, creating it
// on first use. Nil-registry calls return a nil no-op instrument.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if !r.register(name, KindHistogram) {
		for _, h := range r.hists {
			if h.name == name {
				return h
			}
		}
	}
	h := &Histogram{name: name}
	r.hists = append(r.hists, h)
	return h
}

// Sample registers a function polled at snapshot time. Use it to expose
// state that already has a counter elsewhere (component Stats structs,
// queue lengths) without adding hot-path work: the cost moves to the
// epoch boundary. fn runs on the simulator goroutine only.
func (r *Registry) Sample(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	if !r.register(name, KindSampled) {
		return
	}
	r.sampled = append(r.sampled, &Sampled{name: name, fn: fn})
}

// Metric is one flattened snapshot value.
type Metric struct {
	Name  string
	Value float64
}

// Snapshot appends the current value of every instrument to dst and
// returns it, sorted by name. Histograms flatten into .count, .sum,
// .mean, .p50 and .p99 entries. The result is deterministic: same
// instruments, same updates, same bytes.
func (r *Registry) Snapshot(dst []Metric) []Metric {
	if r == nil {
		return dst
	}
	start := len(dst)
	for _, c := range r.counters {
		dst = append(dst, Metric{c.name, float64(c.v)})
	}
	for _, g := range r.gauges {
		dst = append(dst, Metric{g.name, float64(g.v)})
	}
	for _, s := range r.sampled {
		dst = append(dst, Metric{s.name, float64(s.fn())})
	}
	for _, h := range r.hists {
		dst = append(dst,
			Metric{h.name + ".count", float64(h.count)},
			Metric{h.name + ".sum", float64(h.sum)},
			Metric{h.name + ".mean", h.Mean()},
			Metric{h.name + ".p50", float64(h.Quantile(0.50))},
			Metric{h.name + ".p99", float64(h.Quantile(0.99))},
		)
	}
	s := dst[start:]
	sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
	return dst
}

// Counter is a monotonic event counter. All methods are safe on a nil
// receiver (the disabled instrument) and allocate nothing.
type Counter struct {
	name string
	v    uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 on the nil instrument).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Name returns the registered name ("" on the nil instrument).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge is a last-value instrument. All methods are nil-receiver-safe
// and allocate nothing.
type Gauge struct {
	name string
	v    int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// Add adjusts the gauge by delta (negative deltas decrease it).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v += delta
	}
}

// Value returns the current value (0 on the nil instrument).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// HistogramBuckets is the fixed bucket count of every histogram: bucket
// i holds the values whose binary length is i, i.e. bucket 0 holds 0,
// bucket i>0 holds [2^(i-1), 2^i). 64-bit values therefore always land
// in a bucket and Observe never branches on the value's magnitude.
const HistogramBuckets = 65

// Histogram counts observations in fixed log2 buckets. Observe is O(1),
// allocation-free and nil-receiver-safe; the trade-off is coarse (power
// of two) quantiles, which is exactly enough to tell a 100 ns read tail
// from a 10 us one without per-run configuration.
type Histogram struct {
	name    string
	count   uint64
	sum     uint64
	buckets [HistogramBuckets]uint64
}

// Observe records v.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count++
	h.sum += v
	h.buckets[bits.Len64(v)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the arithmetic mean of observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Bucket returns the count of bucket i (test and sink access).
func (h *Histogram) Bucket(i int) uint64 {
	if h == nil {
		return 0
	}
	return h.buckets[i]
}

// BucketUpperBound returns the inclusive upper bound of bucket i: 0 for
// bucket 0, 2^i-1 for i>0 (saturating at the top bucket).
func BucketUpperBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Quantile returns the upper bound of the bucket where the cumulative
// count first reaches q of the total (q clamped to [0,1]; 0 when empty).
// The answer over-reports by at most 2x — the price of log2 buckets.
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	need := uint64(math.Ceil(q * float64(h.count)))
	if need == 0 {
		need = 1
	}
	var cum uint64
	for i := 0; i < HistogramBuckets; i++ {
		cum += h.buckets[i]
		if cum >= need {
			return BucketUpperBound(i)
		}
	}
	return BucketUpperBound(HistogramBuckets - 1)
}

// Merge adds o's observations into h (both may be nil; merging
// different-named histograms is allowed and keeps h's name).
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	h.count += o.count
	h.sum += o.sum
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// Sampled is a snapshot-time polled metric.
type Sampled struct {
	name string
	fn   func() int64
}
