package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry/jobtrace"
)

// fakeSrc is an injected ProgressSource: behavior tests drive the
// counters by hand instead of paying for real simulations.
type fakeSrc struct{ ev, in atomic.Uint64 }

func (f *fakeSrc) LiveEvents() uint64 { return f.ev.Load() }
func (f *fakeSrc) LiveInstrs() uint64 { return f.in.Load() }
func (f *fakeSrc) LiveSimNS() float64 { return float64(f.ev.Load()) }

// keyFor asks the /key endpoint for a request's canonical key, the way
// dasload -follow does.
func keyFor(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/key", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Key  string `json:"key"`
		Kind string `json:"kind"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(out.Key) != 16 {
		t.Fatalf("/key: HTTP %d, key %q", resp.StatusCode, out.Key)
	}
	return out.Key
}

// subscribe connects to the job's event stream, retrying while the job
// is not yet admitted (404). It returns the open response.
func subscribe(t *testing.T, ts *httptest.Server, key string) *http.Response {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + key + "/events")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			return resp
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || time.Now().After(deadline) {
			t.Fatalf("subscribe: HTTP %d", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// readStream consumes an SSE response until the "event: done" marker
// (or EOF), returning the decoded frames and whether the done marker
// arrived. onFrame, when non-nil, runs after each decoded frame.
func readStream(t *testing.T, resp *http.Response, onFrame func(n int)) ([]ProgressFrame, bool) {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	var frames []ProgressFrame
	clean := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			clean = true
			break
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var f ProgressFrame
			if err := json.Unmarshal([]byte(data), &f); err != nil {
				t.Fatalf("frame %q: %v", data, err)
			}
			frames = append(frames, f)
			if onFrame != nil {
				onFrame(len(frames))
			}
		}
	}
	return frames, clean
}

// assertMonotonic pins the frame contract: seq counts from 0 without
// gaps and every counter is non-decreasing.
func assertMonotonic(t *testing.T, frames []ProgressFrame) {
	t.Helper()
	for i, f := range frames {
		if f.Seq != i {
			t.Fatalf("frame %d has seq %d", i, f.Seq)
		}
		if i == 0 {
			continue
		}
		p := frames[i-1]
		if f.Events < p.Events || f.Instrs < p.Instrs || f.SimNS < p.SimNS || f.ElapsedMS < p.ElapsedMS {
			t.Fatalf("counters regressed between frames %d and %d: %+v -> %+v", i-1, i, p, f)
		}
	}
}

// TestSSEMonotonicFramesAndCompletion is the streaming contract: a
// subscriber sees an immediate first frame, monotonic progress frames
// while the job runs, and a terminal "done" frame plus the done event
// when it completes.
func TestSSEMonotonicFramesAndCompletion(t *testing.T) {
	src := &fakeSrc{}
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{
		Workers:          1,
		ProgressInterval: 5 * time.Millisecond,
		Runner: func(ctx context.Context, spec *Job) ([]byte, error) {
			spec.Prog.Bind(src, 1000)
			for i := 0; i < 20; i++ {
				src.ev.Add(7)
				src.in.Add(13)
				time.Sleep(2 * time.Millisecond)
			}
			<-release
			spec.Trace.StampRun() // as simRunner does before rendering
			return []byte("rendered"), nil
		},
	})
	body := `{"figure": "table2"}`
	key := keyFor(t, ts, body)

	ran := make(chan struct{})
	go func() {
		defer close(ran)
		postRunE(ts, body)
	}()
	resp := subscribe(t, ts, key)
	released := false
	frames, clean := readStream(t, resp, func(n int) {
		if n >= 4 && !released {
			released = true
			close(release)
		}
	})
	<-ran
	if !released {
		close(release)
	}
	if len(frames) < 4 {
		t.Fatalf("got %d frames, want at least 4", len(frames))
	}
	if !clean {
		t.Fatal("stream ended without the done event")
	}
	assertMonotonic(t, frames)
	last := frames[len(frames)-1]
	if last.State != "done" {
		t.Fatalf("terminal frame state = %q, want done", last.State)
	}
	if last.Events == 0 || last.Instrs == 0 {
		t.Fatalf("terminal frame lost the counters: %+v", last)
	}
	if last.Horizon != 1000 {
		t.Fatalf("terminal frame horizon = %d, want 1000", last.Horizon)
	}

	// The lifecycle span is queryable after completion and shows the
	// terminal outcome.
	spanResp, err := http.Get(ts.URL + "/jobs/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer spanResp.Body.Close()
	var snap struct {
		State   string  `json:"state"`
		Outcome string  `json:"outcome"`
		RunUS   float64 `json:"run_us"`
	}
	if err := json.NewDecoder(spanResp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.State != "done" || snap.Outcome != "done" {
		t.Fatalf("span state/outcome = %q/%q, want done/done", snap.State, snap.Outcome)
	}
	if snap.RunUS <= 0 {
		t.Fatalf("span run phase = %v us, want > 0", snap.RunUS)
	}
}

// TestSSEClosesOnFailure pins the cancellation/failure path: the stream
// terminates with a "failed" frame and the done event, not a hang.
func TestSSEClosesOnFailure(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{
		Workers:          1,
		ProgressInterval: 5 * time.Millisecond,
		Runner: func(ctx context.Context, spec *Job) ([]byte, error) {
			<-release
			return nil, fmt.Errorf("synthetic failure")
		},
	})
	body := `{"figure": "table2"}`
	key := keyFor(t, ts, body)
	go postRunE(ts, body)
	resp := subscribe(t, ts, key)
	released := false
	frames, clean := readStream(t, resp, func(n int) {
		if !released {
			released = true
			close(release)
		}
	})
	if !clean {
		t.Fatal("stream did not close cleanly on job failure")
	}
	if len(frames) == 0 {
		t.Fatal("no frames before failure close")
	}
	if got := frames[len(frames)-1].State; got != "failed" {
		t.Fatalf("terminal frame state = %q, want failed", got)
	}
}

// TestSSEClientDisconnect pins resource release: a subscriber that
// walks away mid-stream frees its slot (the subscriber gauge returns to
// zero) while the job keeps running.
func TestSSEClientDisconnect(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{
		Workers:          1,
		ProgressInterval: 5 * time.Millisecond,
		Runner: func(ctx context.Context, spec *Job) ([]byte, error) {
			<-release
			return []byte("ok"), nil
		},
	})
	defer close(release)
	body := `{"figure": "table2"}`
	key := keyFor(t, ts, body)
	go postRunE(ts, body)
	resp := subscribe(t, ts, key)
	if n := metric(t, s, "serve.sse.subscribers"); n != 1 {
		t.Fatalf("subscribers = %v with one open stream", n)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no first frame")
	}
	resp.Body.Close() // walk away mid-stream
	deadline := time.Now().Add(5 * time.Second)
	for metric(t, s, "serve.sse.subscribers") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber gauge did not return to zero after disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSSECompletedJobStreams pins late subscription: a stream opened
// after the job resolved still yields one terminal frame and a clean
// close instead of a hang or 404.
func TestSSECompletedJobStreams(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Runner: func(ctx context.Context, spec *Job) ([]byte, error) {
			return []byte("ok"), nil
		},
	})
	body := `{"figure": "table2"}`
	resp, _ := postRun(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: HTTP %d", resp.StatusCode)
	}
	key := resp.Header.Get("X-Key")
	frames, clean := readStream(t, subscribe(t, ts, key), nil)
	if !clean || len(frames) == 0 {
		t.Fatalf("late subscription: %d frames, clean=%v", len(frames), clean)
	}
	if frames[0].State != "done" {
		t.Fatalf("late frame state = %q, want done", frames[0].State)
	}
}

// TestSSEUnknownKey404 pins the lookup contract.
func TestSSEUnknownKey404(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/jobs/deadbeefdeadbeef/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestStructuredLogEvents pins the transition log: a fresh job emits
// admitted -> start -> done with the canonical key and durations, and a
// cache hit emits nothing.
func TestStructuredLogEvents(t *testing.T) {
	var mu sync.Mutex
	var evs []LogEvent
	_, ts := newTestServer(t, Options{
		Log: func(ev LogEvent) {
			mu.Lock()
			evs = append(evs, ev)
			mu.Unlock()
		},
		Runner: func(ctx context.Context, spec *Job) ([]byte, error) {
			return []byte("ok"), nil
		},
	})
	body := `{"figure": "table2"}`
	resp, _ := postRun(t, ts, body)
	key := resp.Header.Get("X-Key")
	// The done event fires after the entry resolves; give it a beat.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(evs)
		mu.Unlock()
		if n >= 3 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	postRun(t, ts, body) // hit: no transitions

	mu.Lock()
	defer mu.Unlock()
	if len(evs) != 3 {
		t.Fatalf("got %d events %+v, want 3", len(evs), evs)
	}
	for i, want := range []string{"admitted", "start", "done"} {
		if evs[i].Event != want {
			t.Fatalf("event %d = %q, want %q", i, evs[i].Event, want)
		}
		if evs[i].Key != key || evs[i].Kind != "table2" {
			t.Fatalf("event %d key/kind = %q/%q, want %s/table2", i, evs[i].Key, evs[i].Kind, key)
		}
	}
	if evs[2].Bytes != 2 || evs[2].RunMS < 0 {
		t.Fatalf("done event payload: %+v", evs[2])
	}
}

// getSpan reads GET /jobs/<key>.
func getSpan(t *testing.T, ts *httptest.Server, key string) jobtrace.Snapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/jobs/%s: HTTP %d", key, resp.StatusCode)
	}
	var snap jobtrace.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestJobTimesAreSpanPhases: a served miss's queue wait and run time —
// in its log events and in both histograms — are its span's phases. A
// fake clock that steps 1 ms per read makes every phase exact and
// distinguishes the span's clock from any other.
func TestJobTimesAreSpanPhases(t *testing.T) {
	var mu sync.Mutex
	var evs []LogEvent
	s, ts := newTestServer(t, Options{
		Workers: 1,
		Log: func(ev LogEvent) {
			mu.Lock()
			evs = append(evs, ev)
			mu.Unlock()
		},
		Runner: func(ctx context.Context, spec *Job) ([]byte, error) {
			spec.Trace.StampRun()
			return []byte("ok"), nil
		},
	})
	var cmu sync.Mutex
	now := time.Unix(1_000_000, 0)
	s.jt.SetClock(func() time.Time {
		cmu.Lock()
		defer cmu.Unlock()
		now = now.Add(time.Millisecond)
		return now
	})
	resp, _ := postRun(t, ts, `{"figure": "table2"}`)
	key := resp.Header.Get("X-Key")
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(evs)
		mu.Unlock()
		if n >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("got %d log events, want admitted, start and done", n)
		}
		time.Sleep(2 * time.Millisecond)
	}

	snap := getSpan(t, ts, key)
	queueMS, runMS := snap.QueueUS/1e3, (snap.RunUS+snap.RenderUS)/1e3
	if snap.State != "done" || queueMS <= 0 || runMS <= 0 {
		t.Fatalf("span %+v: want a done job with queue and run phases", snap)
	}
	mu.Lock()
	start, done := evs[1], evs[2]
	mu.Unlock()
	if start.Event != "start" || start.QueueMS != queueMS {
		t.Errorf("start event %+v, want queue_ms %v", start, queueMS)
	}
	if done.Event != "done" || done.QueueMS != queueMS || done.RunMS != runMS {
		t.Errorf("done event %+v, want queue_ms %v and run_ms %v", done, queueMS, runMS)
	}
	s.tmu.Lock()
	wait, run := s.hQueueWait.Sum(), s.hRun.Sum()
	n := s.hQueueWait.Count() + s.hRun.Count()
	s.tmu.Unlock()
	if n != 2 || wait != uint64(snap.QueueUS) || run != uint64(snap.RunUS+snap.RenderUS) {
		t.Errorf("histograms hold %d samples, wait %d us and run %d us; want 2, %v and %v",
			n, wait, run, snap.QueueUS, snap.RunUS+snap.RenderUS)
	}
}

// TestJobSpanOutlivesHits: GET /jobs/<key> reports the job, not the
// latest request for its key, so a cache hit leaves the job's done span
// in place (the hit's own span is in /jobs/trace).
func TestJobSpanOutlivesHits(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Runner: func(ctx context.Context, spec *Job) ([]byte, error) {
			spec.Trace.StampRun()
			return []byte("ok"), nil
		},
	})
	body := `{"figure": "table2"}`
	resp, _ := postRun(t, ts, body)
	key := resp.Header.Get("X-Key")
	job := getSpan(t, ts, key)
	if resp, _ := postRun(t, ts, body); resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
	}
	after := getSpan(t, ts, key)
	if after.State != "done" || after.Recv != job.Recv || after.RunUS != job.RunUS {
		t.Fatalf("after a hit /jobs/%s = %+v, want the job's span %+v", key, after, job)
	}
}

// TestStreamedRunBytesExact is the perturbation-free gate at service
// scale: a real simulation with a live SSE subscriber produces bytes
// identical to an independent unwatched run of the same canonical job.
func TestStreamedRunBytesExact(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	_, ts := newTestServer(t, Options{Workers: 1, ProgressInterval: 10 * time.Millisecond, Base: tinyConfig()})
	body := `{"design": "das", "benchmarks": ["mcf"]}`
	key := keyFor(t, ts, body)

	type streamResult struct {
		frames []ProgressFrame
		clean  bool
	}
	got := make(chan streamResult, 1)
	go func() {
		frames, clean := readStream(t, subscribe(t, ts, key), nil)
		got <- streamResult{frames, clean}
	}()
	resp, served := postRun(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: HTTP %d (%s)", resp.StatusCode, served)
	}
	if resp.Header.Get("X-Key") != key {
		t.Fatalf("/key predicted %q but run returned %q", key, resp.Header.Get("X-Key"))
	}
	sr := <-got
	if !sr.clean || len(sr.frames) == 0 {
		t.Fatalf("stream: %d frames, clean=%v", len(sr.frames), sr.clean)
	}
	assertMonotonic(t, sr.frames)

	spec, err := Canonicalize(Request{Design: "das", Benchmarks: []string{"mcf"}}, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := simRunner(nil)(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if string(fresh) != string(served) {
		t.Fatalf("watched run differs from unwatched run (%d vs %d bytes)", len(served), len(fresh))
	}
}
