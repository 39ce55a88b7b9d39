package exp

import (
	"fmt"
	"slices"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/stats"
)

// Fault-sweep rates. Each sweep varies one fault class while the others
// stay zero, so every row isolates one degradation mechanism.
var (
	// MigFailSweepRates sweeps the probability that a migration fails
	// at completion (rate 1 forces every promotion to be abandoned
	// after its retries — the full-degradation endpoint).
	MigFailSweepRates = []float64{0, 0.01, 0.1, 0.5, 1}
	// WeakRowSweepRates sweeps the fraction of fast-subarray rows that
	// are weak (rate 1 fences every migration group).
	WeakRowSweepRates = []float64{0, 0.02, 0.1, 0.5, 1}
	// CorruptSweepRates sweeps tag-cache and translation-table
	// corruption together (both classes cost a re-fetch).
	CorruptSweepRates = []float64{0, 0.001, 0.01, 0.1}
)

// faultColumns are the fault sweep's grid columns: the Standard
// baseline, then DAS at every point of the MigFailSweepRates,
// WeakRowSweepRates and CorruptSweepRates sweeps, in that order. Every
// point zeroes the session's fault rates before it sets its own class,
// so the sweeps share their rate-0 point, which therefore runs once.
// The baseline keeps the session's rates, which Standard DRAM ignores.
func faultColumns(s *Session) []column {
	rate := func(class string) func(config.Config, float64) string {
		return func(_ config.Config, r float64) string { return fmt.Sprintf("%s %v", class, r) }
	}
	only := func(set func(*config.Config, float64)) func(*config.Config, float64) {
		return func(c *config.Config, r float64) {
			c.MigFailRate, c.WeakRowRate, c.TagCorruptRate, c.TableCorruptRate = 0, 0, 0, 0
			set(c, r)
		}
	}
	return slices.Concat(
		sweep(MigFailSweepRates, only(func(c *config.Config, r float64) { c.MigFailRate = r }), rate("mig-fail"))(s),
		sweep(WeakRowSweepRates, only(func(c *config.Config, r float64) { c.WeakRowRate = r }), rate("weak-row"))(s)[1:],
		sweep(CorruptSweepRates, only(func(c *config.Config, r float64) { c.TagCorruptRate, c.TableCorruptRate = r, r }),
			rate("corruption"))(s)[1:])
}

// drawFaults draws the fault sweep: how DAS-DRAM's improvement over
// Standard DRAM degrades as device faults are injected into the
// management path, one table per fault class. Every run executes with
// the invariant checker and watchdog armed, so a rendered figure doubles
// as evidence that degradation was graceful (no violation, no hang) at
// every point.
func drawFaults(_ *Session, g *grid) (*Figure, error) {
	mig := &stats.Table{
		Title:   "Migration-failure sweep",
		Header:  []string{"fail rate", "DAS vs Std", "failures", "retries", "pinned rows", "breaker trips", "promotions"},
		Caption: "Failed migrations retried then pinned slow; persistent failure trips the breaker and DAS degrades to ~Standard.",
	}
	weak := &stats.Table{
		Title:   "Weak-fast-row sweep",
		Header:  []string{"weak rate", "DAS vs Std", "weak services", "fenced groups", "promotions"},
		Caption: "Weak fast rows are sensed at slow timing and never receive promotions.",
	}
	corr := &stats.Table{
		Title:   "Translation-corruption sweep",
		Header:  []string{"corrupt rate", "DAS vs Std", "tag drops", "table refetches", "promotions"},
		Caption: "Corrupt translation entries are re-fetched through the LLC, never followed.",
	}
	col := 0
	for k, rates := range [][]float64{MigFailSweepRates, WeakRowSweepRates, CorruptSweepRates} {
		for _, rate := range rates {
			col++
			imp, err := g.gmean(col)
			if err != nil {
				return nil, fmt.Errorf("faults: %w", err)
			}
			// Sum the point's fault activity over the workload sets.
			var f core.FaultStats
			var proms uint64
			for _, row := range g.runs {
				r := row[col].res
				proms += r.Promotions
				f.MigFailures += r.Faults.MigFailures
				f.MigRetries += r.Faults.MigRetries
				f.PinnedRows += r.Faults.PinnedRows
				f.FencedGroups += r.Faults.FencedGroups
				f.WeakServices += r.Faults.WeakServices
				f.TagCorruptions += r.Faults.TagCorruptions
				f.TableRefetches += r.Faults.TableRefetches
				f.MigBreakerTrips += r.Faults.MigBreakerTrips
			}
			vs := fmt.Sprintf("%+.2f%%", imp)
			switch k {
			case 0:
				mig.AddRow(fmt.Sprintf("%.2f", rate), vs, fmt.Sprint(f.MigFailures), fmt.Sprint(f.MigRetries),
					fmt.Sprint(f.PinnedRows), fmt.Sprint(f.MigBreakerTrips), fmt.Sprint(proms))
			case 1:
				weak.AddRow(fmt.Sprintf("%.2f", rate), vs, fmt.Sprint(f.WeakServices), fmt.Sprint(f.FencedGroups),
					fmt.Sprint(proms))
			case 2:
				corr.AddRow(fmt.Sprintf("%.3f", rate), vs, fmt.Sprint(f.TagCorruptions), fmt.Sprint(f.TableRefetches),
					fmt.Sprint(proms))
			}
		}
	}
	return &Figure{
		ID:     "Faults",
		Title:  "Graceful degradation under injected device faults",
		Tables: []*stats.Table{mig, weak, corr},
	}, nil
}
