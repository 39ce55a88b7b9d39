package telemetry

import (
	"math"
	"testing"
)

// TestHistogramBucketBoundaries pins the log2 bucketing at its edges:
// bucket 0 holds only value 0, bucket i (1..63) holds [2^(i-1), 2^i),
// and bucket 64 holds everything from 2^63 up.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1023, 10},
		{1024, 11},
		{1 << 62, 63},
		{1<<63 - 1, 63},
		{1 << 63, 64},
		{math.MaxUint64, 64},
	}
	for _, tc := range cases {
		h := &Histogram{}
		h.Observe(tc.v)
		for i := 0; i < HistogramBuckets; i++ {
			want := uint64(0)
			if i == tc.bucket {
				want = 1
			}
			if got := h.Bucket(i); got != want {
				t.Errorf("Observe(%d): bucket %d = %d, want %d", tc.v, i, got, want)
			}
		}
		if ub := BucketUpperBound(tc.bucket); tc.v > ub {
			t.Errorf("Observe(%d): landed in bucket %d with upper bound %d", tc.v, tc.bucket, ub)
		}
		if tc.bucket > 0 {
			if lb := BucketUpperBound(tc.bucket - 1); tc.v <= lb {
				t.Errorf("Observe(%d): previous bucket's bound %d already covers it", tc.v, lb)
			}
		}
	}
}

func TestHistogramStats(t *testing.T) {
	h := &Histogram{}
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if h.Count() != 100 || h.Sum() != 5050 {
		t.Fatalf("count/sum = %d/%d, want 100/5050", h.Count(), h.Sum())
	}
	if m := h.Mean(); m != 50.5 {
		t.Fatalf("mean = %v, want 50.5", m)
	}
	// Quantiles report the bucket upper bound covering the rank: the
	// median of 1..100 ranks into bucket 6 ([32,64)), p99 into [64,128).
	if q := h.Quantile(0.5); q != 63 {
		t.Fatalf("p50 = %d, want 63", q)
	}
	if q := h.Quantile(0.99); q != 127 {
		t.Fatalf("p99 = %d, want 127", q)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := &Histogram{}, &Histogram{}
	for v := uint64(0); v < 50; v++ {
		a.Observe(v)
		b.Observe(v * 1000)
	}
	a.Merge(b)
	if a.Count() != 100 {
		t.Fatalf("merged count = %d, want 100", a.Count())
	}
	want := uint64(0)
	for v := uint64(0); v < 50; v++ {
		want += v + v*1000
	}
	if a.Sum() != want {
		t.Fatalf("merged sum = %d, want %d", a.Sum(), want)
	}
}

// TestDisabledRegistryIsNil pins the disabled fast path: a nil registry
// hands out nil instruments and every operation on them is a no-op.
func TestDisabledRegistryIsNil(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out live instruments")
	}
	c.Inc()
	c.Add(7)
	g.Set(3)
	g.Add(-1)
	h.Observe(42)
	r.Sample("s", func() int64 { return 1 })
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments accumulated state")
	}
	if snap := r.Snapshot(nil); snap != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", snap)
	}
}

// TestDisabledInstrumentsAllocateNothing is the zero-alloc property the
// package doc promises: recording into disabled (nil) instruments must
// not allocate, ever — it is a single branch.
func TestDisabledInstrumentsAllocateNothing(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	var tr *TraceRecorder
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(9)
		g.Add(1)
		h.Observe(123456)
		tr.Duration("RD", 0, 10, 3, 42)
		tr.Instant("fault", 5, 3, -1)
	})
	if allocs != 0 {
		t.Fatalf("disabled instruments allocated %v bytes/op, want 0", allocs)
	}
}

// TestEnabledInstrumentsAllocateNothing: steady-state recording into
// live counters/gauges/histograms is allocation-free too (registration
// allocates; observation must not).
func TestEnabledInstrumentsAllocateNothing(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(-4)
		h.Observe(77)
	})
	if allocs != 0 {
		t.Fatalf("live instruments allocated %v bytes/op in steady state, want 0", allocs)
	}
}

func TestRegistryReregistrationReturnsSameInstrument(t *testing.T) {
	r := New()
	a := r.Counter("dup")
	b := r.Counter("dup")
	if a != b {
		t.Fatal("same-kind re-registration returned a different instrument")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cross-kind re-registration did not panic")
		}
	}()
	r.Histogram("dup")
}

// TestSnapshotDeterministic: snapshots of identically used registries
// are identical, sorted by name, and stable across repeated sessions.
func TestSnapshotDeterministic(t *testing.T) {
	build := func() *Registry {
		r := New()
		r.Counter("b.count").Add(5)
		r.Gauge("a.gauge").Set(-2)
		h := r.Histogram("c.lat")
		h.Observe(10)
		h.Observe(1000)
		r.Sample("d.sampled", func() int64 { return 99 })
		return r
	}
	s1 := build().Snapshot(nil)
	s2 := build().Snapshot(nil)
	if len(s1) == 0 || len(s1) != len(s2) {
		t.Fatalf("snapshot sizes differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("snapshots diverge at %d: %+v vs %+v", i, s1[i], s2[i])
		}
		if i > 0 && s1[i-1].Name >= s1[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", s1[i-1].Name, s1[i].Name)
		}
	}
	// Spot-check the flattened histogram series.
	want := map[string]float64{
		"a.gauge": -2, "b.count": 5, "d.sampled": 99,
		"c.lat.count": 2, "c.lat.sum": 1010, "c.lat.mean": 505,
	}
	got := make(map[string]float64, len(s1))
	for _, m := range s1 {
		got[m.Name] = m.Value
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}
}
