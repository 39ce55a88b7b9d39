package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// The pooled-machine byte-identity suite: a machine checked out of a
// SystemPool and rewound with System.Reset must be observationally
// indistinguishable from a fresh Build — same DRAM command stream (the
// strongest observable), same figure bytes, across all six designs,
// open and closed page, and multicore mixes.

// TestPooledRunsByteIdentical is the tentpole's non-negotiable: for
// every stream case (all six designs, closed-page, a multicore mix), a
// machine that already ran a *different* sweep point — different seed,
// flipped page policy, perturbed migration latency — then went through
// Put/Get/Reset must replay the target point with the exact command
// count and FNV-1a stream digest a fresh Build produces.
func TestPooledRunsByteIdentical(t *testing.T) {
	for _, sc := range streamCases() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			freshN, freshSum := streamDigest(t, sc)

			// Dirty the machine with a same-shape sweep variant so Reset
			// must scrub real state, not a pristine build.
			dirty := caseConfig(sc)
			dirty.Seed = sc.seed + 1
			dirty.ClosedPage = !sc.closedPage
			dirty.MigrationLatencyNS += 20
			pool := NewSystemPool(0)
			sys, _, err := Build(dirty, sc.design, sc.benchmarks, caseStatic(t, dirty, sc), false)
			if err != nil {
				t.Fatal(err)
			}
			sys.pool = pool // keep the engine attached across the run
			if _, err := sys.Run(); err != nil {
				t.Fatalf("dirty run: %v", err)
			}
			pool.Put(sys)

			cfg := caseConfig(sc)
			got := pool.Get(&cfg, sc.design)
			if got == nil {
				t.Fatal("pool miss for same-shape config")
			}
			if got != sys {
				t.Fatal("pool returned a different machine")
			}
			if err := got.Reset(cfg, sc.design, sc.benchmarks, caseStatic(t, cfg, sc)); err != nil {
				t.Fatalf("Reset: %v", err)
			}
			n, sum := digestRun(t, got, sc.name)
			if n != freshN || sum != freshSum {
				t.Errorf("pooled run diverged: commands=%d fnv64a=%016x, fresh commands=%d fnv64a=%016x",
					n, sum, freshN, freshSum)
			}
			pool.Drain()
		})
	}
}

// TestResetRejectsShapeChange pins that System.Reset enforces the pool
// key: a cfg that changes any part of the machine shape is rejected, so
// a rewound machine never runs its old arrays or pipeline under a new
// config's name. Rejected calls leave the machine reusable.
func TestResetRejectsShapeChange(t *testing.T) {
	base := tinyConfig()
	base.InstrPerCore = 20_000
	sys, _, err := Build(base, core.DAS, []string{"mcf"}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		design core.Design
		edit   func(*config.Config)
	}{
		{"design", core.Standard, func(*config.Config) {}},
		{"cores", core.DAS, func(c *config.Config) { c.Cores = 2 }},
		{"rows_per_bank", core.DAS, func(c *config.Config) { c.RowsPerBank *= 2 }},
		{"width", core.DAS, func(c *config.Config) { c.Width /= 2 }},
		{"rob", core.DAS, func(c *config.Config) { c.ROB /= 2 }},
		{"l1_kb", core.DAS, func(c *config.Config) { c.L1KB /= 2 }},
		{"l1_assoc", core.DAS, func(c *config.Config) { c.L1Assoc /= 2 }},
		{"l1_latency", core.DAS, func(c *config.Config) { c.L1Latency++ }},
		{"l1_mshrs", core.DAS, func(c *config.Config) { c.L1MSHRs /= 2 }},
		{"l2_kb", core.DAS, func(c *config.Config) { c.L2KB /= 2 }},
		{"l2_assoc", core.DAS, func(c *config.Config) { c.L2Assoc /= 2 }},
		{"l2_latency", core.DAS, func(c *config.Config) { c.L2Latency++ }},
		{"l2_mshrs", core.DAS, func(c *config.Config) { c.L2MSHRs /= 2 }},
		{"llc_kb", core.DAS, func(c *config.Config) { c.LLCKB /= 2 }},
		{"llc_assoc", core.DAS, func(c *config.Config) { c.LLCAssoc /= 2 }},
		{"llc_latency", core.DAS, func(c *config.Config) { c.LLCLatency++ }},
		{"llc_mshrs", core.DAS, func(c *config.Config) { c.LLCMSHRs /= 2 }},
	} {
		cfg := base
		tc.edit(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: the changed config must be valid: %v", tc.name, err)
		}
		benchmarks := make([]string, cfg.Cores)
		for i := range benchmarks {
			benchmarks[i] = "mcf"
		}
		if err := sys.Reset(cfg, tc.design, benchmarks, nil); err == nil {
			t.Errorf("Reset accepted a changed %s", tc.name)
		}
	}
	if err := sys.Reset(base, core.DAS, []string{"mcf"}, nil); err != nil {
		t.Fatalf("same-shape Reset after the rejections: %v", err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPooledFigureBytesMatchFresh pins the user-facing observable:
// Figure 7a rendered on fresh machines (a pool too small to keep one)
// and by two sessions sharing one pool (the second running entirely on
// recycled machines) must produce identical bytes.
func TestPooledFigureBytesMatchFresh(t *testing.T) {
	// Two benchmarks keep the three renders affordable under -race; the
	// full-matrix stream digests above cover the remaining designs.
	render := func(s *Session) string {
		s.Benchmarks = []string{"mcf", "soplex"}
		fig, err := s.Figure("7a")
		if err != nil {
			t.Fatal(err)
		}
		return fig.Render()
	}
	fresh := NewSession(tinyConfig())
	fresh.Pool = NewSystemPool(1)
	want := render(fresh)

	pool := NewSystemPool(0)
	for i := 0; i < 2; i++ {
		s := NewSession(tinyConfig())
		s.Pool = pool
		if got := render(s); got != want {
			t.Errorf("session %d: pooled figure bytes differ from fresh:\n--- fresh ---\n%s\n--- pooled ---\n%s", i, want, got)
		}
	}
	if st := pool.Stats(); st.Hits == 0 {
		t.Errorf("second pooled session never hit the pool: %+v", st)
	}
	pool.Drain()
}

// TestPooledTelemetryTimelineMatchesFresh closes the third identity
// surface: the merged metrics timeline and trace export of a run on a
// recycled machine must be byte-identical to a fresh build's. Every run
// attaches a fresh observer and System.Reset detaches the last one, so
// nothing carries over.
func TestPooledTelemetryTimelineMatchesFresh(t *testing.T) {
	run := func(s *Session) (csv, trace string) {
		s.Benchmarks = []string{"mcf"}
		s.Observe = &ObserveOptions{Metrics: true, Trace: true, ReqTraceN: 3}
		if _, err := s.Figure("7a"); err != nil {
			t.Fatal(err)
		}
		var csvBuf, traceBuf bytes.Buffer
		if err := s.WriteTimelineCSV(&csvBuf); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteTrace(&traceBuf); err != nil {
			t.Fatal(err)
		}
		return csvBuf.String(), traceBuf.String()
	}
	fresh := NewSession(tinyConfig())
	fresh.Pool = NewSystemPool(1)
	wantCSV, wantTrace := run(fresh)

	pool := NewSystemPool(0)
	warm := NewSession(tinyConfig())
	warm.Pool = pool
	run(warm) // fill the pool
	pooled := NewSession(tinyConfig())
	pooled.Pool = pool
	gotCSV, gotTrace := run(pooled)
	if st := pool.Stats(); st.Hits == 0 {
		t.Fatalf("second session never hit the pool: %+v", st)
	}
	if gotCSV != wantCSV {
		t.Errorf("pooled timeline CSV differs from fresh (%d vs %d bytes)", len(gotCSV), len(wantCSV))
	}
	if gotTrace != wantTrace {
		t.Errorf("pooled trace JSON differs from fresh (%d vs %d bytes)", len(gotTrace), len(wantTrace))
	}
	pool.Drain()
}

// TestPooledPublishMatchesFinalEpoch pins what the debug endpoint
// (dasbench -http) serves for runs on recycled machines: every run's
// published snapshot is its own final timeline epoch, even after the
// pool rewound its machine for a later run. Sampled metrics read live
// machine state, so re-polling them at publish time would report the
// later run's numbers.
func TestPooledPublishMatchesFinalEpoch(t *testing.T) {
	s := NewSession(tinyConfig())
	s.Parallelism = 1
	s.Pool = NewSystemPool(0)
	s.Observe = &ObserveOptions{Metrics: true}
	for _, b := range []string{"mcf", "libquantum"} {
		if _, err := s.Baseline([]string{b}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Pool.Stats(); st.Hits == 0 {
		t.Fatalf("second run never reused the first run's machine: %+v", st)
	}

	pub := telemetry.NewPublisher()
	s.PublishTo(pub)
	rec := httptest.NewRecorder()
	pub.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var runs []struct {
		Run     string             `json:"run"`
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &runs); err != nil {
		t.Fatalf("/metrics: %v\n%s", err, rec.Body.String())
	}
	published := make(map[string]map[string]float64)
	for _, r := range runs {
		published[r.Run] = r.Metrics
	}
	obs := s.Observers()
	if len(obs) != 2 || len(published) != 2 {
		t.Fatalf("%d observers, %d published runs; want 2 each", len(obs), len(published))
	}
	for _, o := range obs {
		eps := o.Timeline.Epochs()
		final := eps[len(eps)-1].Metrics
		got := published[o.Label]
		if len(got) != len(final) {
			t.Errorf("%s: published %d metrics, final epoch holds %d", o.Label, len(got), len(final))
		}
		for _, m := range final {
			if v, ok := got[m.Name]; !ok || v != m.Value {
				t.Errorf("%s: published %s = %v, final epoch holds %v", o.Label, m.Name, v, m.Value)
			}
		}
	}
	s.Pool.Drain()
}

// TestPoolCapFallback pins the bounded-pool degradation path: with a
// budget too small for any machine, every checkin drops, every checkout
// misses, and runs still succeed by building fresh.
func TestPoolCapFallback(t *testing.T) {
	pool := NewSystemPool(1) // smaller than any machine's footprint
	var results [2]string
	for i := range results {
		s := NewSession(tinyConfig())
		s.Pool = pool
		res, err := s.Cached(s.Cfg, core.DAS, []string{"mcf"})
		if err != nil {
			t.Fatal(err)
		}
		results[i] = fmt.Sprintf("%+v", res)
	}
	if results[0] != results[1] {
		t.Errorf("fresh-fallback runs diverged:\n%s\n%s", results[0], results[1])
	}
	st := pool.Stats()
	if st.Hits != 0 || st.Misses != 2 || st.Drops != 2 {
		t.Errorf("stats = %+v, want Hits=0 Misses=2 Drops=2", st)
	}
	if st.Machines != 0 || st.CurrentBytes != 0 {
		t.Errorf("over-budget pool retained machines: %+v", st)
	}
	if st.HitRate() != 0 {
		t.Errorf("HitRate = %v, want 0", st.HitRate())
	}
}

// TestPoolConcurrentCheckout is the -race stress: goroutines hammer one
// shared pool with the full checkout/reset/run/checkin cycle and the
// lifetime accounting must stay consistent.
func TestPoolConcurrentCheckout(t *testing.T) {
	const workers, iters = 4, 3
	pool := NewSystemPool(0)
	cfg := tinyConfig()
	cfg.InstrPerCore = 20_000
	benchmarks := []string{"mcf"}

	var wg sync.WaitGroup
	errc := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				run := cfg
				run.Seed = uint64(w*iters + i + 1) // distinct sweep points, one shape
				sys := pool.Get(&run, core.DAS)
				if sys == nil {
					var err error
					sys, _, err = Build(run, core.DAS, benchmarks, nil, false)
					if err != nil {
						errc <- err
						return
					}
					sys.pool = pool
				} else if err := sys.Reset(run, core.DAS, benchmarks, nil); err != nil {
					errc <- err
					return
				}
				if _, err := sys.Run(); err != nil {
					errc <- err
					return
				}
				pool.Put(sys)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.Hits+st.Misses != workers*iters {
		t.Errorf("checkouts = %d hits + %d misses, want %d total", st.Hits, st.Misses, workers*iters)
	}
	if st.Machines > workers {
		t.Errorf("%d machines pooled, but only %d were ever concurrent", st.Machines, workers)
	}
	if st.CurrentBytes > st.HighWaterBytes {
		t.Errorf("CurrentBytes %d exceeds HighWaterBytes %d", st.CurrentBytes, st.HighWaterBytes)
	}
	pool.Drain()
	if st = pool.Stats(); st.Machines != 0 || st.CurrentBytes != 0 {
		t.Errorf("Drain left machines behind: %+v", st)
	}
}

// footprintMachines are the DAS machine shapes the footprint test and
// BenchmarkBuildMachine measure at config.Scaled().
var footprintMachines = [][]string{
	{"mcf"},
	{"cactusADM", "mcf", "milc", "omnetpp"},
}

// TestFootprintEstimateMatchesRetainedHeap pins the pool's byte budget
// to what a pooled machine really keeps alive. Four 1-core and four
// 4-core DAS machines at config.Scaled() are built, run and checked
// into a pool; the per-machine growth of the live heap (HeapAlloc after
// a full collection) must be within 25% of footprintBytes' estimate.
func TestFootprintEstimateMatchesRetainedHeap(t *testing.T) {
	for _, benchmarks := range footprintMachines {
		cfg := config.Scaled()
		cfg.Cores = len(benchmarks)
		cfg.InstrPerCore = 200_000
		pool := NewSystemPool(0)
		run := func() {
			sys, _, err := Build(cfg, core.DAS, benchmarks, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			sys.pool = pool // keep the engine attached, as a pooled run does
			if _, err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			pool.Put(sys)
		}
		run() // first-use package state (catalogs, pools) is not per machine
		const machines = 4
		before := liveHeap()
		for i := 0; i < machines; i++ {
			run()
		}
		perMachine := float64(liveHeap()-before) / machines
		est := float64(footprintBytes(&cfg, core.DAS))
		t.Logf("%d-core: estimate %.2f MB, measured %.2f MB per machine (%+.0f%%)",
			cfg.Cores, est/1e6, perMachine/1e6, 100*(est/perMachine-1))
		if est < perMachine*0.75 || est > perMachine*1.25 {
			t.Errorf("%d-core: footprint estimate %.2f MB is not within 25%% of the measured %.2f MB per machine",
				cfg.Cores, est/1e6, perMachine/1e6)
		}
		pool.Drain()
	}
}

// BenchmarkBuildMachine builds and frees one 1-core and one 4-core DAS
// machine at config.Scaled() per op: the allocation a pool miss pays.
// Its B/op tracks the standing memory of a pooled machine; check.sh
// gates it against BENCH_footprint.json.
func BenchmarkBuildMachine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, benchmarks := range footprintMachines {
			cfg := config.Scaled()
			cfg.Cores = len(benchmarks)
			sys, _, err := Build(cfg, core.DAS, benchmarks, nil, false)
			if err != nil {
				b.Fatal(err)
			}
			sys.free()
		}
	}
}

// liveHeap reports the live heap after two full collections (the second
// empties the sync.Pool victim caches the first one leaves behind).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
