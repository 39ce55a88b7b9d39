package exp

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/telemetry/reqtrace"
)

// Explain runs designs a and b over the session's single-programmed
// workload set with per-request tracing and renders the cross-design
// attribution report: where each design's nanoseconds go, per workload
// and aggregated, and a ranked list of the components driving the
// difference. The session must have Observe.ReqTraceN > 0 before the
// first run; Explain fails if any traced request violated the
// components-sum-to-total invariant, so a clean report doubles as an
// end-to-end check of the attribution engine.
func (s *Session) Explain(a, b core.Design) (*Figure, error) {
	if s.Observe == nil || s.Observe.ReqTraceN <= 0 {
		return nil, fmt.Errorf("exp: Explain requires Observe.ReqTraceN > 0 (request tracing off)")
	}
	sets := s.singleSets()
	names := s.singles()

	// Run both designs over every workload in parallel (memoized, so
	// figures already computed this session are reused).
	var jobs []job
	for _, set := range sets {
		for _, d := range []core.Design{a, b} {
			set, d := set, d
			jobs = append(jobs, func() error {
				_, err := s.Cached(s.Cfg, d, set)
				return err
			})
		}
	}
	if err := s.runAll(jobs); err != nil {
		return nil, err
	}

	// Look each run's recorder up by its result key.
	recorder := func(d core.Design, set []string) (*reqtrace.Recorder, error) {
		key := resultKey(s.cfgFor(set), d, set)
		for _, o := range s.Observers() {
			if o.Label == key && o.Req != nil {
				if l := o.Req.Latency(); l.Violations() > 0 {
					return nil, fmt.Errorf("exp: %s: %d attribution invariant violation(s); first: %s",
						key, l.Violations(), l.FirstViolation())
				}
				if l := o.Req.Energy(); l.Violations() > 0 {
					return nil, fmt.Errorf("exp: %s: %d energy attribution violation(s); first: %s",
						key, l.Violations(), l.FirstViolation())
				}
				return o.Req, nil
			}
		}
		return nil, fmt.Errorf("exp: no request-trace recorder for %s (run predates tracing?)", key)
	}

	waterfall := &stats.Table{
		Title:  fmt.Sprintf("Mean per-request latency attribution (ns): %v vs %v", a, b),
		Header: []string{"workload", "design", "requests", "total", "cache", "xlat", "queue", "refresh", "migration", "conflict", "service", "fill"},
	}
	quantiles := &stats.Table{
		Title:  "End-to-end request latency quantiles (ns)",
		Header: []string{"workload", "design", "p50", "p95", "p99"},
	}
	// Energy carries only on DRAM-command components; the attribution is
	// causal (blocking REF/MIG commands charge each sampled request they
	// blocked in full), verified per request by the ledger invariant.
	ewaterfall := &stats.Table{
		Title:  fmt.Sprintf("Mean per-request energy attribution (pJ): %v vs %v", a, b),
		Header: []string{"workload", "design", "total", "conflict", "service", "refresh", "migration"},
	}
	latencyComps := make([]reqtrace.Component, reqtrace.NumComponents)
	for i := range latencyComps {
		latencyComps[i] = reqtrace.Component(i)
	}
	energyComps := []reqtrace.Component{
		reqtrace.CompConflict, reqtrace.CompService, reqtrace.CompRefresh, reqtrace.CompMigration,
	}
	var aggA, aggB reqtrace.Aggregate
	da, db := fmt.Sprintf("%v", a), fmt.Sprintf("%v", b)
	for i, set := range sets {
		ra, err := recorder(a, set)
		if err != nil {
			return nil, err
		}
		rb, err := recorder(b, set)
		if err != nil {
			return nil, err
		}
		la, lb, ea, eb := ra.Latency(), rb.Latency(), ra.Energy(), rb.Energy()
		waterfall.AddRow(meanRow("%.1f", la, nil, latencyComps, names[i], da, fmt.Sprintf("%d", la.Count()))...)
		waterfall.AddRow(meanRow("%.1f", lb, nil, latencyComps, names[i], db, fmt.Sprintf("%d", lb.Count()))...)
		waterfall.AddRow(meanRow("%+.1f", lb, la, latencyComps, names[i], "Δ", "")...)
		ewaterfall.AddRow(meanRow("%.1f", ea, nil, energyComps, names[i], da)...)
		ewaterfall.AddRow(meanRow("%.1f", eb, nil, energyComps, names[i], db)...)
		ewaterfall.AddRow(meanRow("%+.1f", eb, ea, energyComps, names[i], "Δ")...)
		ra.AddTo(&aggA)
		rb.AddTo(&aggB)
		quantiles.AddRow(names[i], da,
			fmt.Sprintf("%d", la.Quantile(0.50)), fmt.Sprintf("%d", la.Quantile(0.95)), fmt.Sprintf("%d", la.Quantile(0.99)))
		quantiles.AddRow(names[i], db,
			fmt.Sprintf("%d", lb.Quantile(0.50)), fmt.Sprintf("%d", lb.Quantile(0.95)), fmt.Sprintf("%d", lb.Quantile(0.99)))
	}
	waterfall.Caption = fmt.Sprintf(
		"Sampled 1-in-%d demand loads per core; components sum exactly to total (verified per request).",
		s.Observe.ReqTraceN)
	ewaterfall.Caption = "Integer-picojoule ledger per sampled request; component energies sum exactly to the request total (verified per request)."

	drivers, headline := rankDrivers(a, b, &aggA.Latency, &aggB.Latency, latencyComps)
	edrivers := rankEnergyDrivers(a, b, &aggA.Energy, &aggB.Energy, energyComps)
	fig := &Figure{
		ID:    "Explain",
		Title: fmt.Sprintf("Why %v ≠ %v: per-request latency attribution", a, b),
		Tables: []*stats.Table{
			waterfall, quantiles, ewaterfall, drivers, edrivers,
		},
	}
	fig.Title += " — " + headline
	return fig, nil
}

// meanRow returns the lead cells followed by l's mean total per record
// and its mean for each of comps, formatted with verb. Given a base
// ledger, each mean is instead l's minus base's (the Δ rows).
func meanRow(verb string, l, base *telemetry.Ledger, comps []reqtrace.Component, lead ...string) []string {
	row := append(lead, fmt.Sprintf(verb, l.Mean()-base.Mean()))
	for _, c := range comps {
		row = append(row, fmt.Sprintf(verb, l.PartMean(int(c))-base.PartMean(int(c))))
	}
	return row
}

// driver is one component's mean per request under designs a and b.
type driver struct {
	comp         reqtrace.Component
	meanA, meanB float64
}

// rank orders comps by how far their per-request means differ between
// the aggregated ledgers la and lb, largest first, ties in component
// order.
func rank(la, lb *telemetry.Ledger, comps []reqtrace.Component) []driver {
	ds := make([]driver, 0, len(comps))
	for _, c := range comps {
		ds = append(ds, driver{comp: c, meanA: la.PartMean(int(c)), meanB: lb.PartMean(int(c))})
	}
	sort.SliceStable(ds, func(i, j int) bool {
		di, dj := math.Abs(ds[i].meanB-ds[i].meanA), math.Abs(ds[j].meanB-ds[j].meanA)
		if di != dj {
			return di > dj
		}
		return ds[i].comp < ds[j].comp
	})
	return ds
}

// rankDrivers builds the ranked component-diff table over the aggregated
// latency ledgers and a one-line headline for the figure title.
func rankDrivers(a, b core.Design, la, lb *telemetry.Ledger, comps []reqtrace.Component) (*stats.Table, string) {
	ds := rank(la, lb, comps)
	totalA, totalB := la.Mean(), lb.Mean()
	tbl := &stats.Table{
		Title:  fmt.Sprintf("Ranked drivers of the %v−%v difference (all workloads)", b, a),
		Header: []string{"rank", "component", fmt.Sprintf("%v ns/req", a), fmt.Sprintf("%v ns/req", b), "Δ ns/req", "Δ% of total", fmt.Sprintf("%v share", a), fmt.Sprintf("%v share", b)},
	}
	share := func(mean, total float64) string {
		if total <= 0 {
			return "0.0%"
		}
		return fmt.Sprintf("%.1f%%", 100*mean/total)
	}
	for i, d := range ds {
		delta := d.meanB - d.meanA
		pct := 0.0
		if totalA > 0 {
			pct = 100 * delta / totalA
		}
		tbl.AddRow(fmt.Sprintf("%d", i+1), d.comp.String(),
			fmt.Sprintf("%.1f", d.meanA), fmt.Sprintf("%.1f", d.meanB),
			fmt.Sprintf("%+.1f", delta), fmt.Sprintf("%+.2f%%", pct),
			share(d.meanA, totalA), share(d.meanB, totalB))
	}
	relTotal := 0.0
	if totalA > 0 {
		relTotal = 100 * (totalB - totalA) / totalA
	}
	top := ds[0]
	headline := fmt.Sprintf("%v mean request latency %.1f ns vs %v %.1f ns (%+.1f%%); largest driver: %s (%+.1f ns/req)",
		b, totalB, a, totalA, relTotal, top.comp, top.meanB-top.meanA)
	tbl.Caption = headline + "."
	return tbl, headline
}

// rankEnergyDrivers mirrors rankDrivers over the attributed-energy
// ledgers: which DRAM-command components drive the per-request energy
// difference between the two designs.
func rankEnergyDrivers(a, b core.Design, ea, eb *telemetry.Ledger, comps []reqtrace.Component) *stats.Table {
	ds := rank(ea, eb, comps)
	totalA, totalB := ea.Mean(), eb.Mean()
	tbl := &stats.Table{
		Title:  fmt.Sprintf("Ranked energy drivers of the %v−%v difference (all workloads)", b, a),
		Header: []string{"rank", "component", fmt.Sprintf("%v pJ/req", a), fmt.Sprintf("%v pJ/req", b), "Δ pJ/req", "Δ% of total"},
	}
	for i, d := range ds {
		delta := d.meanB - d.meanA
		pct := 0.0
		if totalA > 0 {
			pct = 100 * delta / totalA
		}
		tbl.AddRow(fmt.Sprintf("%d", i+1), d.comp.String(),
			fmt.Sprintf("%.1f", d.meanA), fmt.Sprintf("%.1f", d.meanB),
			fmt.Sprintf("%+.1f", delta), fmt.Sprintf("%+.2f%%", pct))
	}
	relTotal := 0.0
	if totalA > 0 {
		relTotal = 100 * (totalB - totalA) / totalA
	}
	tbl.Caption = fmt.Sprintf("%v mean attributed energy %.1f pJ/req vs %v %.1f pJ/req (%+.1f%%).",
		b, totalB, a, totalA, relTotal)
	return tbl
}
