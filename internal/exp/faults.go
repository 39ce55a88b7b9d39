package exp

import (
	"fmt"

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

// faultVariants returns the DAS configurations of the three fault
// sweeps, in MigFailSweepRates, WeakRowSweepRates and CorruptSweepRates
// order. The sweeps share their rate-0 point, the session config.
func (s *Session) faultVariants() [3][]config.Config {
	return [3][]config.Config{
		vary(s.Cfg, MigFailSweepRates, func(c *config.Config, r float64) { c.MigFailRate = r }),
		vary(s.Cfg, WeakRowSweepRates, func(c *config.Config, r float64) { c.WeakRowRate = r }),
		vary(s.Cfg, CorruptSweepRates, func(c *config.Config, r float64) { c.TagCorruptRate, c.TableCorruptRate = r, r }),
	}
}

// faultRow is one sweep point aggregated over the workload set.
type faultRow struct {
	improvement float64
	faults      core.FaultStats
	promotions  uint64
}

// faultPoint runs DAS-DRAM at one fault configuration over every
// single-programmed workload and aggregates the outcome.
func (s *Session) faultPoint(cfg config.Config) (*faultRow, error) {
	row := &faultRow{}
	var ratios []float64
	for _, set := range s.singleSets() {
		base, err := s.Baseline(set)
		if err != nil {
			return nil, err
		}
		res, err := s.Cached(cfg, core.DAS, set)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", set[0], err)
		}
		ratios = append(ratios, res.Speedup(base))
		row.promotions += res.Promotions
		f := &row.faults
		f.MigFailures += res.Faults.MigFailures
		f.MigRetries += res.Faults.MigRetries
		f.PinnedRows += res.Faults.PinnedRows
		f.FencedGroups += res.Faults.FencedGroups
		f.WeakServices += res.Faults.WeakServices
		f.TagCorruptions += res.Faults.TagCorruptions
		f.TableRefetches += res.Faults.TableRefetches
		f.MigBreakerTrips += res.Faults.MigBreakerTrips
	}
	imp, err := stats.GmeanImprovementErr(ratios)
	if err != nil {
		return nil, fmt.Errorf("fault-sweep gmean: %w", err)
	}
	row.improvement = imp
	return row, nil
}

// FaultSweep measures how DAS-DRAM's improvement over Standard DRAM
// degrades as device faults are injected into the management path: one
// sweep per fault class. Every run executes with the invariant checker
// and watchdog armed, so a rendered figure doubles as evidence that
// degradation was graceful (no violation, no hang) at every point.
func (s *Session) FaultSweep() (*Figure, error) {
	mig := &stats.Table{
		Title:  "Migration-failure sweep",
		Header: []string{"fail rate", "DAS vs Std", "failures", "retries", "pinned rows", "breaker trips", "promotions"},
	}
	sweeps := s.faultVariants()
	for i, rate := range MigFailSweepRates {
		row, err := s.faultPoint(sweeps[0][i])
		if err != nil {
			return nil, fmt.Errorf("mig-fail %v: %w", rate, err)
		}
		mig.AddRow(fmt.Sprintf("%.2f", rate), fmt.Sprintf("%+.2f%%", row.improvement),
			fmt.Sprint(row.faults.MigFailures), fmt.Sprint(row.faults.MigRetries),
			fmt.Sprint(row.faults.PinnedRows), fmt.Sprint(row.faults.MigBreakerTrips),
			fmt.Sprint(row.promotions))
	}
	mig.Caption = "Failed migrations retried then pinned slow; persistent failure trips the breaker and DAS degrades to ~Standard."

	weak := &stats.Table{
		Title:  "Weak-fast-row sweep",
		Header: []string{"weak rate", "DAS vs Std", "weak services", "fenced groups", "promotions"},
	}
	for i, rate := range WeakRowSweepRates {
		row, err := s.faultPoint(sweeps[1][i])
		if err != nil {
			return nil, fmt.Errorf("weak-row %v: %w", rate, err)
		}
		weak.AddRow(fmt.Sprintf("%.2f", rate), fmt.Sprintf("%+.2f%%", row.improvement),
			fmt.Sprint(row.faults.WeakServices), fmt.Sprint(row.faults.FencedGroups),
			fmt.Sprint(row.promotions))
	}
	weak.Caption = "Weak fast rows are sensed at slow timing and never receive promotions."

	corr := &stats.Table{
		Title:  "Translation-corruption sweep",
		Header: []string{"corrupt rate", "DAS vs Std", "tag drops", "table refetches", "promotions"},
	}
	for i, rate := range CorruptSweepRates {
		row, err := s.faultPoint(sweeps[2][i])
		if err != nil {
			return nil, fmt.Errorf("corruption %v: %w", rate, err)
		}
		corr.AddRow(fmt.Sprintf("%.3f", rate), fmt.Sprintf("%+.2f%%", row.improvement),
			fmt.Sprint(row.faults.TagCorruptions), fmt.Sprint(row.faults.TableRefetches),
			fmt.Sprint(row.promotions))
	}
	corr.Caption = "Corrupt translation entries are re-fetched through the LLC, never followed."

	return &Figure{
		ID:     "Faults",
		Title:  "Graceful degradation under injected device faults",
		Tables: []*stats.Table{mig, weak, corr},
	}, nil
}
