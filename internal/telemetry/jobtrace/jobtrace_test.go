package jobtrace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic wall clock advancing by step per read.
type fakeClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func newFakeClock(step time.Duration) *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0), step: step}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

func TestSpanTelescopes(t *testing.T) {
	r := NewRecorder(8)
	r.SetClock(newFakeClock(time.Millisecond).Now)
	sp := r.Begin()
	sp.StampCanon("00000000deadbeef", "figure:7a")
	sp.StampAdmit()
	sp.StampStart()
	sp.StampRun()
	sp.Finish("done", 42)
	if v := r.Violations(); v != 0 {
		t.Fatalf("telescoping invariant violated %d times", v)
	}
	snap, ok := r.Lookup("00000000deadbeef")
	if !ok {
		t.Fatal("completed span not found by Lookup")
	}
	if snap.State != "done" || snap.Bytes != 42 || snap.Kind != "figure:7a" {
		t.Fatalf("bad snapshot: %+v", snap)
	}
	sum := snap.CanonicalizeUS + snap.ProbeUS + snap.QueueUS + snap.RunUS + snap.RenderUS
	if sum != snap.TotalUS {
		t.Fatalf("phases sum %v != total %v", sum, snap.TotalUS)
	}
	// Each of the five stamped phases is exactly one fake-clock step.
	for name, us := range map[string]float64{
		"canonicalize": snap.CanonicalizeUS, "probe": snap.ProbeUS,
		"queue": snap.QueueUS, "run": snap.RunUS, "render": snap.RenderUS,
	} {
		if us != 1000 {
			t.Errorf("phase %s = %vus, want 1000us", name, us)
		}
	}
}

func TestUnsetStampsCollapse(t *testing.T) {
	r := NewRecorder(8)
	r.SetClock(newFakeClock(time.Millisecond).Now)
	// A cache hit: only canon and admit are ever stamped.
	sp := r.Begin()
	sp.StampCanon("k1", "figure:table2")
	sp.StampAdmit()
	sp.Finish("hit", 10)
	if v := r.Violations(); v != 0 {
		t.Fatalf("violations: %d", v)
	}
	snap, _ := r.Lookup("k1")
	if snap.QueueUS != 0 || snap.RunUS != 0 {
		t.Fatalf("unstamped phases should be zero-width: %+v", snap)
	}
	sum := snap.CanonicalizeUS + snap.ProbeUS + snap.QueueUS + snap.RunUS + snap.RenderUS
	if sum != snap.TotalUS {
		t.Fatalf("phases sum %v != total %v", sum, snap.TotalUS)
	}
}

func TestLiveLookupAndStates(t *testing.T) {
	r := NewRecorder(8)
	r.SetClock(newFakeClock(time.Millisecond).Now)
	sp := r.Begin()
	sp.StampCanon("k2", "design:das")
	if snap := sp.Snapshot(); snap.State != "canonicalizing" || snap.Key != "k2" {
		t.Fatalf("want a live canonicalizing span k2, got %+v", snap)
	}
	if _, ok := r.Lookup("k2"); ok {
		t.Fatal("Lookup found a live span; only its holder can read it")
	}
	for _, c := range []struct {
		stamp func()
		want  string
	}{
		{sp.StampAdmit, "queued"},
		{sp.StampStart, "running"},
		{sp.StampRun, "rendering"},
		{func() { sp.Finish("done", 1) }, "done"},
	} {
		c.stamp()
		if snap := sp.Snapshot(); snap.State != c.want {
			t.Fatalf("want %s, got %q", c.want, snap.State)
		}
	}
	if snap, ok := r.Lookup("k2"); !ok || snap.State != "done" {
		t.Fatalf("want the finished span by key, got %+v ok=%v", snap, ok)
	}
}

func TestRingBoundedAndOrdered(t *testing.T) {
	r := NewRecorder(4)
	r.SetClock(newFakeClock(time.Microsecond).Now)
	for i := 0; i < 10; i++ {
		sp := r.Begin()
		sp.StampCanon("key", "figure:7a")
		sp.Finish("done", i)
	}
	got := r.Completed()
	if len(got) != 4 {
		t.Fatalf("ring length %d, want 4", len(got))
	}
	for i, snap := range got {
		if snap.Bytes != 6+i {
			t.Fatalf("ring out of order: got bytes %d at %d", snap.Bytes, i)
		}
	}
}

// TestLookupForgetsEvictedKeys: Lookup indexes only the ring, so after
// twice the ring depth of other keys the oldest key is gone rather than
// kept forever.
func TestLookupForgetsEvictedKeys(t *testing.T) {
	const depth = 4
	r := NewRecorder(depth)
	r.SetClock(newFakeClock(time.Microsecond).Now)
	for i := 0; i < 2*depth; i++ {
		sp := r.Begin()
		sp.StampCanon(fmt.Sprintf("k%d", i), "figure:7a")
		sp.Finish("done", i)
	}
	if _, ok := r.Lookup("k0"); ok {
		t.Fatal("the oldest key is still found after leaving the ring")
	}
	if snap, ok := r.Lookup(fmt.Sprintf("k%d", 2*depth-1)); !ok || snap.Bytes != 2*depth-1 {
		t.Fatalf("newest key: %+v ok=%v", snap, ok)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	sp := r.Begin()
	sp.StampCanon("k", "x")
	sp.StampAdmit()
	sp.StampStart()
	sp.StampRun()
	sp.Finish("done", 0)
	if snap := sp.Snapshot(); snap != (Snapshot{}) {
		t.Fatalf("nil span snapshot = %+v", snap)
	}
	if _, ok := r.Lookup("k"); ok {
		t.Fatal("nil recorder should find nothing")
	}
	if r.Completed() != nil || r.Violations() != 0 {
		t.Fatal("nil recorder should be empty")
	}
	if evs := decodeTrace(t, r); len(evs) != 1 || evs[0]["name"] != "process_name" {
		t.Fatalf("nil trace = %v, want the process metadata alone", evs)
	}
}

// decodeTrace encodes r and decodes the {"traceEvents":[...]} document.
func decodeTrace(t *testing.T, r *Recorder) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := r.EncodeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	return doc.TraceEvents
}

func TestEncodeTraceValidJSON(t *testing.T) {
	r := NewRecorder(8)
	r.SetClock(newFakeClock(time.Millisecond).Now)
	for i := 0; i < 3; i++ {
		sp := r.Begin()
		sp.StampCanon("k", "figure:7a")
		sp.StampAdmit()
		sp.StampStart()
		sp.StampRun()
		sp.Finish("done", 100)
	}
	var slices, jobs, meta int
	first := -1.0
	for _, e := range decodeTrace(t, r) {
		switch e["ph"] {
		case "X":
			slices++
			if e["name"] == "figure:7a (done)" {
				jobs++
				if first < 0 {
					first = e["ts"].(float64)
				}
			}
		case "M":
			meta++
		}
	}
	// 3 jobs x (1 enclosing + 5 phase slices), 1 process + 3 thread metas.
	if slices != 18 || jobs != 3 || meta != 4 {
		t.Fatalf("got %d slices (%d jobs), %d metadata events; want 18 (3), 4", slices, jobs, meta)
	}
	// Timestamps count from the oldest arrival in the ring.
	if first != 0 {
		t.Fatalf("oldest job starts at %v us, want 0", first)
	}
}

func TestConcurrentSpans(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := r.Begin()
			sp.StampCanon("shared", "figure:7a")
			sp.StampAdmit()
			sp.StampStart()
			sp.StampRun()
			sp.Finish("done", 1)
		}()
	}
	wg.Wait()
	if v := r.Violations(); v != 0 {
		t.Fatalf("violations under concurrency: %d", v)
	}
	if got := len(r.Completed()); got != 16 {
		t.Fatalf("completed %d spans, want 16", got)
	}
}

// TestViolationsCountSpans: Violations counts spans, not phases. The
// clock steps back twice inside one span, making two phases negative
// while they still sum to the total; that is one violating span.
func TestViolationsCountSpans(t *testing.T) {
	// Clock reads in ms: SetClock's epoch, then recv, canon, admit,
	// start, run and done.
	reads := []int{0, 0, 10, 5, 2, 20, 30}
	r := NewRecorder(8)
	r.SetClock(func() time.Time {
		ms := reads[0]
		reads = reads[1:]
		return time.Unix(1_000_000, 0).Add(time.Duration(ms) * time.Millisecond)
	})
	sp := r.Begin()
	sp.StampCanon("k", "figure:7a")
	sp.StampAdmit()
	sp.StampStart()
	sp.StampRun()
	sp.Finish("done", 1)
	if v := r.Violations(); v != 1 {
		t.Fatalf("violations = %d, want 1 (one span with two negative phases)", v)
	}
}
