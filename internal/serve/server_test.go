package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestServer builds a server around an injected runner so behavior
// tests never pay for real simulations.
func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	if opt.Base.Cores == 0 {
		opt.Base = tinyConfig()
	}
	s := New(opt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// postRunE is the goroutine-safe request helper (no t.Fatal).
func postRunE(ts *httptest.Server, body string) (*http.Response, []byte, error) {
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data, err
}

func postRun(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, data, err := postRunE(ts, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func metric(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	for _, m := range s.snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %s not in snapshot", name)
	return 0
}

// TestSingleflight is the dedup contract: N concurrent identical
// requests run exactly one simulation and all see the same bytes.
func TestSingleflight(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{
		Workers:    4,
		QueueDepth: 16,
		Runner: func(ctx context.Context, spec *Job) ([]byte, error) {
			n := runs.Add(1)
			<-release // hold every arrival in the in-flight window
			return []byte(fmt.Sprintf("run %d of %s", n, spec.Figure)), nil
		},
	})

	const N = 12
	req := `{"figure": "7a", "config": {"seed": 9}}`
	var wg sync.WaitGroup
	bodies := make([]string, N)
	caches := make([]string, N)
	errs := make([]error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data, err := postRunE(ts, req)
			if err != nil {
				errs[i] = err
				return
			}
			bodies[i], caches[i] = string(data), resp.Header.Get("X-Cache")
		}(i)
	}
	// Wait until the one real run is in flight, then make sure the
	// stragglers coalesce rather than queue.
	for runs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests ran %d simulations, want 1", N, got)
	}
	misses := 0
	for i := range bodies {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("response %d differs: %q vs %q", i, bodies[i], bodies[0])
		}
		if caches[i] == "miss" {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d misses, want exactly 1 (rest coalesced/hit)", misses)
	}
	// And once resolved, the next request is a pure cache hit.
	resp, data := postRun(t, ts, req)
	if resp.Header.Get("X-Cache") != "hit" || string(data) != bodies[0] {
		t.Fatalf("follow-up was %q with %q", resp.Header.Get("X-Cache"), data)
	}
	if hits := metric(t, s, "serve.cache.hits"); hits < 1 {
		t.Fatalf("serve.cache.hits = %v, want >= 1", hits)
	}
}

// TestOverloadSheds pins the admission contract: a full queue answers
// 429 with Retry-After and a structured JSON body instead of queueing
// without bound.
func TestOverloadSheds(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 1,
		RetryAfter: 3 * time.Second,
		Runner: func(ctx context.Context, spec *Job) ([]byte, error) {
			select {
			case <-release:
				return []byte("ok " + spec.Figure), nil
			case <-ctx.Done():
				return nil, context.Cause(ctx)
			}
		},
	})

	// Occupy the one worker, then the one queue slot (distinct keys so
	// nothing coalesces), waiting for each to be admitted.
	go postRunE(ts, `{"figure": "7a"}`)
	for metric(t, s, "serve.jobs.admitted") < 1 {
		time.Sleep(time.Millisecond)
	}
	go postRunE(ts, `{"figure": "7b"}`)
	for metric(t, s, "serve.jobs.admitted") < 2 {
		time.Sleep(time.Millisecond)
	}

	resp, data := postRun(t, ts, `{"figure": "7c"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request got HTTP %d, want 429 (body %s)", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	var e Error
	if err := json.Unmarshal(data, &e); err != nil || e.Kind != KindShed || e.RetryAfterSec != 3 {
		t.Fatalf("shed body = %s (err %v), want kind %q", data, err, KindShed)
	}
	if shed := metric(t, s, "serve.jobs.shed"); shed != 1 {
		t.Fatalf("serve.jobs.shed = %v, want 1", shed)
	}
	close(release)
	// Once the backlog drains, the same request is admitted again.
	for metric(t, s, "serve.jobs.done") < 2 {
		time.Sleep(time.Millisecond)
	}
	if resp, _ := postRun(t, ts, `{"figure": "7c"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain request got HTTP %d, want 200", resp.StatusCode)
	}
}

// TestPanicIsolation: a panicking job becomes a structured 500 for its
// waiter while sibling jobs and the server itself keep working.
func TestPanicIsolation(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{
		Workers:    2,
		QueueDepth: 8,
		Runner: func(ctx context.Context, spec *Job) ([]byte, error) {
			if spec.Figure == "7b" {
				panic("tag directory corrupted")
			}
			<-release
			return []byte("sibling ok"), nil
		},
	})

	var wg sync.WaitGroup
	wg.Add(1)
	var sibStatus int
	var sibBody []byte
	var sibErr error
	go func() {
		defer wg.Done()
		resp, data, err := postRunE(ts, `{"figure": "7a"}`)
		if err != nil {
			sibErr = err
			return
		}
		sibStatus, sibBody = resp.StatusCode, data
	}()

	resp, data := postRun(t, ts, `{"figure": "7b"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking job got HTTP %d, want 500", resp.StatusCode)
	}
	var e Error
	if err := json.Unmarshal(data, &e); err != nil || e.Kind != KindPanic {
		t.Fatalf("panic body = %s (err %v), want kind %q", data, err, KindPanic)
	}
	if !strings.Contains(e.Msg, "tag directory corrupted") {
		t.Fatalf("panic message lost the cause: %q", e.Msg)
	}

	close(release) // the sibling, running beside the panic, must finish
	wg.Wait()
	if sibErr != nil {
		t.Fatal(sibErr)
	}
	if sibStatus != http.StatusOK || string(sibBody) != "sibling ok" {
		t.Fatalf("sibling of panicking job got HTTP %d %q", sibStatus, sibBody)
	}
	// Panics are failures, so they are not cached: a retry re-runs and
	// panics again rather than serving a poisoned entry.
	if resp, _ := postRun(t, ts, `{"figure": "7b"}`); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("retry of panicking job got HTTP %d, want a fresh 500", resp.StatusCode)
	}
}

// panicCtx is a context whose Err panics. A simulation polls its
// context at the observation stride, so the panic is raised inside a
// real run, on the goroutine the session runs the grid cell on.
type panicCtx struct{ context.Context }

func (panicCtx) Err() error { panic("fault inside a simulation") }

// TestSimulationPanicIsolation: a real simulation that panics inside a
// grid cell reaches the worker's recover as a panic, so its job becomes
// a structured 500 of kind panic and the server keeps serving.
func TestSimulationPanicIsolation(t *testing.T) {
	run := simRunner(nil)
	s, ts := newTestServer(t, Options{
		Workers: 1,
		Runner: func(ctx context.Context, spec *Job) ([]byte, error) {
			if spec.HasDesign {
				ctx = panicCtx{ctx}
			}
			return run(ctx, spec)
		},
	})
	resp, data := postRun(t, ts, `{"design": "das", "benchmarks": ["mcf"]}`)
	var e Error
	if err := json.Unmarshal(data, &e); err != nil || resp.StatusCode != http.StatusInternalServerError || e.Kind != KindPanic {
		t.Fatalf("panicking simulation got HTTP %d %s (err %v), want 500 of kind %q", resp.StatusCode, data, err, KindPanic)
	}
	if !strings.Contains(e.Msg, "fault inside a simulation") || !strings.Contains(e.Msg, "RunContext") {
		t.Fatalf("panic message lost the cause or the simulation's stack: %q", e.Msg)
	}
	if got := metric(t, s, "serve.jobs.panicked"); got != 1 {
		t.Fatalf("serve.jobs.panicked = %v, want 1", got)
	}
	if resp, data := postRun(t, ts, `{"figure": "table2"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("job after the panic got HTTP %d %s", resp.StatusCode, data)
	}
}

// TestErrorsNotCached: a transient failure must not poison the cache.
func TestErrorsNotCached(t *testing.T) {
	var calls atomic.Int64
	_, ts := newTestServer(t, Options{
		Workers: 1,
		Runner: func(ctx context.Context, spec *Job) ([]byte, error) {
			if calls.Add(1) == 1 {
				return nil, fmt.Errorf("transient workload hiccup")
			}
			return []byte("recovered"), nil
		},
	})
	if resp, _ := postRun(t, ts, `{"figure": "7a"}`); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("first attempt got HTTP %d, want 500", resp.StatusCode)
	}
	resp, data := postRun(t, ts, `{"figure": "7a"}`)
	if resp.StatusCode != http.StatusOK || string(data) != "recovered" {
		t.Fatalf("retry got HTTP %d %q, want the re-run result", resp.StatusCode, data)
	}
	if calls.Load() != 2 {
		t.Fatalf("runner ran %d times, want 2 (error evicted)", calls.Load())
	}
}

// TestDrain covers both graceful-shutdown outcomes: jobs that finish
// inside the deadline drain cleanly; jobs that do not are cancelled
// cooperatively with a structured draining error. Admission stops and
// /readyz flips the moment the drain begins.
func TestDrain(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		s, _ := newTestServer(t, Options{
			Workers: 1,
			Runner: func(ctx context.Context, spec *Job) ([]byte, error) {
				time.Sleep(10 * time.Millisecond)
				return []byte("done"), nil
			},
		})
		e, disp, serr := s.submit(mustJob(t, Request{Figure: "7a"}))
		if serr != nil || disp != "miss" {
			t.Fatalf("submit: %v / %q", serr, disp)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("clean drain returned %v", err)
		}
		<-e.done
		if e.err != nil || string(e.body) != "done" {
			t.Fatalf("drained job: %v %q", e.err, e.body)
		}
	})

	t.Run("deadline", func(t *testing.T) {
		started := make(chan struct{})
		s, ts := newTestServer(t, Options{
			Workers: 1,
			Runner: func(ctx context.Context, spec *Job) ([]byte, error) {
				close(started)
				<-ctx.Done() // a job that never finishes on its own
				return nil, context.Cause(ctx)
			},
		})
		e, _, serr := s.submit(mustJob(t, Request{Figure: "7a"}))
		if serr != nil {
			t.Fatal(serr)
		}
		<-started

		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if err := s.Shutdown(ctx); err == nil {
			t.Fatal("deadline drain reported clean")
		}
		<-e.done
		if e.err == nil || e.err.Kind != KindDraining {
			t.Fatalf("stuck job resolved as %+v, want kind %q", e.err, KindDraining)
		}

		// Draining servers refuse new work and report not-ready.
		if _, _, serr := s.submit(mustJob(t, Request{Figure: "7b"})); serr == nil || serr.Kind != KindDraining {
			t.Fatalf("submit during drain: %+v, want kind %q", serr, KindDraining)
		}
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("/readyz during drain = HTTP %d, want 503", resp.StatusCode)
		}
		// Shutdown is idempotent.
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatalf("second Shutdown: %v", err)
		}
	})
}

// TestJobTimeout: the per-job deadline cancels a stuck job with a
// structured timeout error.
func TestJobTimeout(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Workers:    1,
		JobTimeout: 30 * time.Millisecond,
		Runner: func(ctx context.Context, spec *Job) ([]byte, error) {
			<-ctx.Done()
			return nil, context.Cause(ctx)
		},
	})
	resp, data := postRun(t, ts, `{"figure": "7a"}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stuck job got HTTP %d (%s), want 504", resp.StatusCode, data)
	}
	var e Error
	if err := json.Unmarshal(data, &e); err != nil || e.Kind != KindTimeout {
		t.Fatalf("timeout body = %s, want kind %q", data, KindTimeout)
	}
}

// TestBadRequests: every malformed request is a structured 400.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Workers: 1,
		Runner:  func(ctx context.Context, spec *Job) ([]byte, error) { return []byte("ok"), nil },
	})
	bodies := []string{
		`{]`,
		`{}`,
		`{"figure": "nope"}`,
		`{"figure": "7a", "design": "das"}`,
		`{"design": "das"}`,
		`{"figure": "7a", "config": {"rows_per_bank": -4}}`,
	}
	// Configs some design cannot build are refused up front, not run
	// into a 500.
	for _, cfg := range []string{
		`{"window_size":0}`, `{"write_low":40}`, `{"starvation_limit_ns":0}`, `{"rob":2}`,
		`{"store_buffer":0}`, `{"group_size":512}`, `{"group_size":7}`, `{"fast_denom":1}`,
		`{"fast_denom":3}`, `{"tag_cache_assoc":0}`, `{"filter_threshold":0}`,
		`{"filter_counters":0}`, `{"migration_latency_ns":-5}`,
	} {
		bodies = append(bodies, `{"design": "das", "benchmarks": ["mcf"], "config": `+cfg+`}`)
	}
	for _, body := range bodies {
		for _, path := range []string{"/run", "/key"} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s %s: HTTP %d, want 400", path, body, resp.StatusCode)
			}
			var e Error
			if err := json.Unmarshal(data, &e); err != nil || e.Kind != KindBadRequest {
				t.Fatalf("%s %s: body %s, want kind %q", path, body, data, KindBadRequest)
			}
		}
	}
	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /run = HTTP %d, want 405", resp.StatusCode)
	}
}

// TestJobsEndpoint: /jobs exposes the telemetry counters and the cache
// hit ratio the operator dashboards key off.
func TestJobsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Workers: 2,
		Runner:  func(ctx context.Context, spec *Job) ([]byte, error) { return []byte("ok"), nil },
	})
	postRun(t, ts, `{"figure": "7a"}`) // miss
	postRun(t, ts, `{"figure": "7a"}`) // hit
	postRun(t, ts, `{"figure": "7b"}`) // miss

	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jobs struct {
		Draining      bool               `json:"draining"`
		Workers       int                `json:"workers"`
		CacheHitRatio float64            `json:"cache_hit_ratio"`
		Metrics       map[string]float64 `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	if jobs.Draining || jobs.Workers != 2 {
		t.Fatalf("jobs header wrong: %+v", jobs)
	}
	if jobs.Metrics["serve.cache.hits"] != 1 || jobs.Metrics["serve.cache.misses"] != 2 {
		t.Fatalf("cache counters wrong: %v", jobs.Metrics)
	}
	if want := 1.0 / 3.0; jobs.CacheHitRatio < want-1e-9 || jobs.CacheHitRatio > want+1e-9 {
		t.Fatalf("cache_hit_ratio = %v, want %v", jobs.CacheHitRatio, want)
	}
	if jobs.Metrics["serve.jobs.done"] != 2 {
		t.Fatalf("serve.jobs.done = %v, want 2", jobs.Metrics["serve.jobs.done"])
	}
	if _, ok := jobs.Metrics["serve.queue.wait_us.p99"]; !ok {
		t.Fatalf("queue-wait histogram missing from /jobs: %v", jobs.Metrics)
	}
}

// TestJobCountedBeforeDone pins execute's order: a finished job's
// counters update before its done channel closes, so a client holding
// its response finds its own job in /jobs and /metrics. The test holds
// the telemetry lock while the job finishes; done must stay open until
// the lock is released and the counters have moved.
func TestJobCountedBeforeDone(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	s, _ := newTestServer(t, Options{
		Workers: 1,
		Runner: func(ctx context.Context, spec *Job) ([]byte, error) {
			close(started)
			<-release
			return []byte("ok"), nil
		},
	})
	e, _, serr := s.submit(mustJob(t, Request{Figure: "7a"}))
	if serr != nil {
		t.Fatal(serr)
	}
	<-started
	s.tmu.Lock()
	close(release)
	select {
	case <-e.done:
		s.tmu.Unlock()
		t.Fatal("done closed before the job's counters updated")
	case <-time.After(200 * time.Millisecond):
	}
	s.tmu.Unlock()
	<-e.done
	s.tmu.Lock()
	done, running := s.cDone.Value(), s.gRunning.Value()
	s.tmu.Unlock()
	if done != 1 || running != 0 {
		t.Fatalf("at done: serve.jobs.done = %d, serve.jobs.running = %d; want 1 and 0", done, running)
	}
}

// TestAdmissionPrecedesStart pins submit's order: a job's admission is
// recorded (the queued gauge, the admitted event) before the job is
// sent to the queue, so however fast a worker picks it up, every key
// logs admitted before start and the queued gauge never reads below
// zero.
func TestAdmissionPrecedesStart(t *testing.T) {
	const jobs = 2000
	var (
		mu       sync.Mutex
		admitted = make(map[string]bool)
		early    int
		negative int64
	)
	var s *Server
	s, _ = newTestServer(t, Options{
		Workers:    2,
		QueueDepth: jobs,
		Runner: func(ctx context.Context, spec *Job) ([]byte, error) {
			return []byte("ok"), nil
		},
		Log: func(ev LogEvent) {
			switch ev.Event {
			case "admitted":
				mu.Lock()
				admitted[ev.Key] = true
				mu.Unlock()
			case "start":
				s.tmu.Lock()
				queued := s.gQueued.Value()
				s.tmu.Unlock()
				mu.Lock()
				if !admitted[ev.Key] {
					early++
				}
				negative = min(negative, queued)
				mu.Unlock()
			}
		},
	})
	entries := make([]*entry, jobs)
	for i := range entries {
		spec := mustJob(t, Request{Figure: "table2", Config: json.RawMessage(fmt.Sprintf(`{"seed": %d}`, i+1))})
		e, disp, serr := s.submit(spec)
		if serr != nil || disp != "miss" {
			t.Fatalf("job %d: disposition %q, error %v", i, disp, serr)
		}
		entries[i] = e
	}
	for _, e := range entries {
		<-e.done
	}
	mu.Lock()
	defer mu.Unlock()
	if early != 0 {
		t.Errorf("%d of %d jobs logged start before admitted", early, jobs)
	}
	if negative < 0 {
		t.Errorf("serve.jobs.queued read %d at a job's start", negative)
	}
}
