// Package repro's top-level benchmarks regenerate, one per table/figure,
// miniature versions of every experiment in the paper's evaluation
// (Section 7). Each benchmark reports paper-shape metrics (improvement
// percentages, promotion rates, hit distributions) alongside Go's timing
// so `go test -bench` doubles as a quick-look harness; `cmd/dasbench`
// runs the full-length versions.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/area"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/workload"
)

// benchConfig is small enough to keep one benchmark iteration around a
// second on a laptop core while exercising every mechanism.
func benchConfig() config.Config {
	c := config.Scaled()
	c.RowsPerBank = 512 // 128 MB
	c.InstrPerCore = 300_000
	c.TagCacheKB = 4
	return c
}

// metricName maps a design to a whitespace-free metric label.
func metricName(d core.Design) string {
	switch d {
	case core.SAS:
		return "SAS"
	case core.CHARM:
		return "CHARM"
	case core.DAS:
		return "DAS"
	case core.DASFM:
		return "DAS-FM"
	case core.FS:
		return "FS"
	default:
		return "Std"
	}
}

// runImprovement measures one design over one benchmark and returns the
// improvement percentage.
func runImprovement(b *testing.B, s *exp.Session, cfg config.Config, d core.Design, set []string) float64 {
	b.Helper()
	base, err := s.Baseline(set)
	if err != nil {
		b.Fatal(err)
	}
	res, err := s.Cached(cfg, d, set)
	if err != nil {
		b.Fatal(err)
	}
	return res.Improvement(base)
}

// BenchmarkTable1Baseline measures the Standard-DRAM configuration of
// Table 1 (episode-scaled): the baseline every figure normalizes to.
func BenchmarkTable1Baseline(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(cfg)
		res, err := s.Baseline([]string{"mcf"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PerCore[0].IPC, "IPC")
		b.ReportMetric(res.PerCore[0].MPKI, "MPKI")
	}
}

// BenchmarkTable2Workloads drives every Table 2 generator through a
// functional pass (the workload substrate alone).
func BenchmarkTable2Workloads(b *testing.B) {
	cfg := benchConfig()
	var in workload.Instr
	for i := 0; i < b.N; i++ {
		n := 0
		for idx, name := range workload.AllSingleNames() {
			gen, err := exp.MakeGenerator(cfg, name, idx%cfg.Cores)
			if err != nil {
				b.Fatal(err)
			}
			for k := 0; k < 100_000; k++ {
				gen.Next(&in)
				if in.Mem {
					n++
				}
			}
		}
		b.ReportMetric(float64(n), "memops")
	}
}

// BenchmarkFig7a regenerates Figure 7a in miniature: single-programmed
// improvements of every design. This is the acceptance benchmark for
// engine-hot-path work: alongside the paper-shape %imp metrics (which
// must not move) it reports simulated instructions/sec, events/sec and
// allocations (compare against BENCH_baseline.json). instr/s is the
// gated throughput metric: the retirement stream is invariant under
// scheduler changes, whereas next-event scheduling deliberately
// executes fewer engine events per run, which makes events/s
// incomparable across scheduling rewrites (informational only).
func BenchmarkFig7a(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	var events, instrs uint64
	var energyPJ int64
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(cfg)
		for _, d := range []core.Design{core.SAS, core.CHARM, core.DAS, core.DASFM, core.FS} {
			imp := runImprovement(b, s, cfg, d, []string{"mcf"})
			b.ReportMetric(imp, fmt.Sprintf("%%imp-%s", metricName(d)))
		}
		events += s.EventsExecuted()
		instrs += s.InstrsRetired()
		energyPJ += s.EnergyPJ()
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/s")
		b.ReportMetric(float64(instrs)/secs, "instr/s")
	}
	// Modeled DRAM energy per simulated instruction: informational like
	// events/s (tracks the energy model, not the host), but a free canary
	// for accidental energy-accounting drift across engine changes.
	if instrs > 0 {
		b.ReportMetric(float64(energyPJ)/float64(instrs), "pJ/instr")
	}
}

// BenchmarkFig7aPooledSweep is BenchmarkFig7a at guaranteed steady
// state of the machine pool: a warm-up sweep outside the timer fills a
// private pool, so every timed iteration checks machines out and
// rewinds them in place (System.Reset) instead of building. The gap
// between this benchmark's allocs/op and runs on a pool too small to
// keep a machine is the pool's win; pool-hit-rate ~1.0 confirms the
// iterations really ran pooled. Paper-shape metrics are reported by
// BenchmarkFig7a and must be bit-identical here (the byte-identity
// suite gates that).
func BenchmarkFig7aPooledSweep(b *testing.B) {
	cfg := benchConfig()
	pool := exp.NewSystemPool(0)
	sweep := func() {
		s := exp.NewSession(cfg)
		s.Pool = pool
		for _, d := range []core.Design{core.SAS, core.CHARM, core.DAS, core.DASFM, core.FS} {
			runImprovement(b, s, cfg, d, []string{"mcf"})
		}
	}
	sweep() // warm the pool: every timed sweep runs fully pooled
	warm := pool.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	b.StopTimer()
	// Hit rate over the timed window only: the warm-up sweep's misses
	// (it built the machines) are its cost, not the steady state's.
	st := pool.Stats()
	hits, misses := st.Hits-warm.Hits, st.Misses-warm.Misses
	if n := hits + misses; n > 0 {
		b.ReportMetric(float64(hits)/float64(n), "pool-hit-rate")
	}
	pool.Drain()
}

// BenchmarkFig7b regenerates Figure 7b's metrics (MPKI/PPKM/footprint)
// under DAS-DRAM.
func BenchmarkFig7b(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(cfg)
		res, err := s.Cached(cfg, core.DAS, []string{"mcf"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PerCore[0].MPKI, "MPKI")
		b.ReportMetric(res.PerCore[0].PPKM, "PPKM")
		b.ReportMetric(res.PerCore[0].FootprintMB, "footprintMB")
	}
}

// BenchmarkFig7c regenerates Figure 7c: access-location split, static
// versus dynamic.
func BenchmarkFig7c(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(cfg)
		sas, err := s.Cached(cfg, core.SAS, []string{"mcf"})
		if err != nil {
			b.Fatal(err)
		}
		das, err := s.Cached(cfg, core.DAS, []string{"mcf"})
		if err != nil {
			b.Fatal(err)
		}
		_, sasFast, _ := sas.Access.Fractions()
		_, dasFast, _ := das.Access.Fractions()
		b.ReportMetric(sasFast*100, "%fast-static")
		b.ReportMetric(dasFast*100, "%fast-dynamic")
	}
}

// BenchmarkFig7d regenerates Figure 7d in miniature: a multi-programmed
// mix on every design.
func BenchmarkFig7d(b *testing.B) {
	cfg := benchConfig()
	cfg.Cores = 4
	cfg.InstrPerCore = 120_000
	mix, err := workload.LookupMix("M5")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(cfg)
		for _, d := range []core.Design{core.SAS, core.DAS, core.FS} {
			imp := runImprovement(b, s, cfg, d, mix.Benchmarks)
			b.ReportMetric(imp, fmt.Sprintf("%%imp-%s", metricName(d)))
		}
	}
}

// BenchmarkFig7e regenerates Figure 7e's mix behaviour metrics.
func BenchmarkFig7e(b *testing.B) {
	cfg := benchConfig()
	cfg.Cores = 4
	cfg.InstrPerCore = 120_000
	mix, _ := workload.LookupMix("M1")
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(cfg)
		res, err := s.Cached(cfg, core.DAS, mix.Benchmarks)
		if err != nil {
			b.Fatal(err)
		}
		var mpki float64
		for _, c := range res.PerCore {
			mpki += c.MPKI
		}
		b.ReportMetric(mpki/4, "MPKI")
		b.ReportMetric(res.PromPerAccess*100, "%prom/access")
	}
}

// BenchmarkFig7f regenerates Figure 7f: mix access locations.
func BenchmarkFig7f(b *testing.B) {
	cfg := benchConfig()
	cfg.Cores = 4
	cfg.InstrPerCore = 120_000
	mix, _ := workload.LookupMix("M8")
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(cfg)
		das, err := s.Cached(cfg, core.DAS, mix.Benchmarks)
		if err != nil {
			b.Fatal(err)
		}
		_, fast, slow := das.Access.Fractions()
		b.ReportMetric(fast*100, "%fast")
		b.ReportMetric(slow*100, "%slow")
	}
}

// BenchmarkFig8 regenerates Figure 8 in miniature: the filter-threshold
// sweep.
func BenchmarkFig8(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(cfg)
		for _, th := range exp.FilterThresholds {
			v := cfg
			v.FilterThreshold = th
			imp := runImprovement(b, s, v, core.DAS, []string{"soplex"})
			b.ReportMetric(imp, fmt.Sprintf("%%imp-thr%d", th))
		}
	}
}

// BenchmarkFig9a regenerates Figure 9a in miniature: tag-cache capacity.
func BenchmarkFig9a(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(cfg)
		for _, kb := range []int{1, 2, 4, 8} {
			v := cfg
			v.TagCacheKB = kb
			imp := runImprovement(b, s, v, core.DAS, []string{"mcf"})
			b.ReportMetric(imp, fmt.Sprintf("%%imp-%dKB", kb))
		}
	}
}

// BenchmarkFig9b regenerates Figure 9b in miniature: migration group
// sizes.
func BenchmarkFig9b(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(cfg)
		for _, g := range exp.GroupSizes {
			v := cfg
			v.GroupSize = g
			imp := runImprovement(b, s, v, core.DAS, []string{"soplex"})
			b.ReportMetric(imp, fmt.Sprintf("%%imp-g%d", g))
		}
	}
}

// BenchmarkFig9c regenerates Figure 9c in miniature: fast-level ratios
// with random replacement.
func BenchmarkFig9c(b *testing.B) {
	benchFig9Ratio(b, "random")
}

// BenchmarkFig9d regenerates Figure 9d in miniature: fast-level ratios
// with LRU replacement.
func BenchmarkFig9d(b *testing.B) {
	benchFig9Ratio(b, "lru")
}

func benchFig9Ratio(b *testing.B, repl string) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(cfg)
		for _, d := range exp.FastRatios {
			v := cfg
			v.FastDenom = d
			v.Replacement = repl
			imp := runImprovement(b, s, v, core.DAS, []string{"mcf"})
			b.ReportMetric(imp, fmt.Sprintf("%%imp-1/%d", d))
		}
	}
}

// BenchmarkPowerProxy regenerates the Section 7.7 energy comparison.
func BenchmarkPowerProxy(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(cfg)
		base, err := s.Baseline([]string{"soplex"})
		if err != nil {
			b.Fatal(err)
		}
		das, err := s.Cached(cfg, core.DAS, []string{"soplex"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(das.EnergyProxy/base.EnergyProxy, "rel-energy")
	}
}

// BenchmarkAreaModel regenerates the Section 4.3/7.6 area numbers (it is
// analytical, so this mostly guards against regressions).
func BenchmarkAreaModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := area.Default()
		o8 := p.Overhead()
		o4, err := p.OverheadForCapacityRatio(4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(o8*100, "%area-1:2")
		b.ReportMetric(o4*100, "%area-1/4")
	}
}

// BenchmarkPagePolicyAblation compares the Table 1 open-page policy to a
// closed-page controller (an ablation of the row-buffer-locality
// assumption behind Figure 7c's row-buffer share).
func BenchmarkPagePolicyAblation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(cfg)
		open := runImprovement(b, s, cfg, core.FS, []string{"libquantum"})
		closed := cfg
		closed.ClosedPage = true
		cl := runImprovement(b, s, closed, core.FS, []string{"libquantum"})
		b.ReportMetric(open, "%imp-open")
		b.ReportMetric(cl, "%imp-closed")
	}
}

// BenchmarkMigrationLatencySweep is an ablation bench: how the headline
// DAS result depends on the migration-cell design's latency (DESIGN.md's
// "lightweight migration is the enabling mechanism" claim).
func BenchmarkMigrationLatencySweep(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(cfg)
		for _, lat := range []float64{0, 73.125, 146.25, 292.5, 585} {
			v := cfg
			v.MigrationLatencyNS = lat
			imp := runImprovement(b, s, v, core.DAS, []string{"soplex"})
			b.ReportMetric(imp, fmt.Sprintf("%%imp-%.0fns", lat))
		}
	}
}
