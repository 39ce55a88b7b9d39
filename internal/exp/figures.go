package exp

import (
	"fmt"
	"slices"

	"repro/internal/area"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Figure is one regenerated table or figure of the paper.
type Figure struct {
	ID     string
	Title  string
	Tables []*stats.Table

	// Perf is attached by Session.Measured. It is intentionally NOT part
	// of Render: figure text is golden output.
	Perf *Perf
}

// Render returns the figure as text.
func (f *Figure) Render() string {
	out := fmt.Sprintf("### %s — %s\n\n", f.ID, f.Title)
	for _, t := range f.Tables {
		out += t.Render() + "\n"
	}
	return out
}

// singles returns the benchmark list a session's figures iterate: the
// session's Benchmarks override if set, else the full Table 2 catalog.
func (s *Session) singles() []string {
	if len(s.Benchmarks) > 0 {
		return s.Benchmarks
	}
	return workload.AllSingleNames()
}

// singleSets returns each single-programmed benchmark as its own set.
func (s *Session) singleSets() [][]string {
	var sets [][]string
	for _, n := range s.singles() {
		sets = append(sets, []string{n})
	}
	return sets
}

// mixSets returns the M1-M8 benchmark lists (or the session's Mixes
// override) and their names. An override naming a mix the catalog does
// not know is an error, and then no set is returned.
func (s *Session) mixSets() ([][]string, []string, error) {
	mixes := workload.Mixes()
	if len(s.Mixes) > 0 {
		mixes = make([]workload.Mix, len(s.Mixes))
		for i, name := range s.Mixes {
			m, err := workload.LookupMix(name)
			if err != nil {
				return nil, nil, err
			}
			mixes[i] = m
		}
	}
	var sets [][]string
	var names []string
	for _, m := range mixes {
		sets = append(sets, m.Benchmarks)
		names = append(names, m.Name)
	}
	return sets, names, nil
}

// multiConfig adapts the session config for 4-core runs.
func multiConfig(cfg config.Config) config.Config {
	cfg.Cores = 4
	return cfg
}

// comparisonDesigns are the five non-baseline designs of Figure 7.
var comparisonDesigns = []core.Design{core.SAS, core.CHARM, core.DAS, core.DASFM, core.FS}

// improvementFigure builds a Fig 7a/7d-style table: one row per
// workload set, one column per design, gmean last.
func (s *Session) improvementFigure(id, title string, cfg config.Config, sets [][]string, rowNames []string) (*Figure, error) {
	tbl := &stats.Table{
		Title:  title,
		Header: []string{"workload", "SAS-DRAM", "CHARM", "DAS-DRAM", "DAS-DRAM(FM)", "FS-DRAM"},
	}
	ratios := make(map[core.Design][]float64)
	for i, set := range sets {
		row := []string{rowNames[i]}
		base, err := s.Baseline(set)
		if err != nil {
			return nil, err
		}
		for _, d := range comparisonDesigns {
			res, err := s.Cached(cfg, d, set)
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", rowNames[i], d, err)
			}
			ratio := res.Speedup(base)
			ratios[d] = append(ratios[d], ratio)
			row = append(row, fmt.Sprintf("%+.2f%%", (ratio-1)*100))
		}
		tbl.AddRow(row...)
	}
	gm := []string{"gmean"}
	for _, d := range comparisonDesigns {
		imp, err := stats.GmeanImprovementErr(ratios[d])
		if err != nil {
			return nil, fmt.Errorf("%s: %v gmean: %w", id, d, err)
		}
		gm = append(gm, fmt.Sprintf("%+.2f%%", imp))
	}
	tbl.AddRow(gm...)
	tbl.Caption = "Performance improvement over Standard (homogeneous) DRAM."
	return &Figure{ID: id, Title: title, Tables: []*stats.Table{tbl}}, nil
}

// FigureNames lists every name Figure dispatches, in presentation
// order. "tables" and "all" are the dasbench aliases expanded by the
// CLI, not dispatchable names, so they are absent here.
func FigureNames() []string {
	return []string{"table1", "table2", "area",
		"7a", "7b", "7c", "7d", "7e", "7f", "8", "9a", "9b", "9c", "9d",
		"power", "energy", "faults"}
}

// Figure dispatches a figure name to its driver. It is the single entry
// point shared by the CLI (dasbench -fig) and the serving layer
// (dasserve requests), so both expose exactly the same catalog.
func (s *Session) Figure(name string) (*Figure, error) {
	switch name {
	case "table1":
		return Table1(s.Cfg), nil
	case "table2":
		return Table2(), nil
	case "area":
		return AreaFigure(), nil
	case "7a":
		return s.Fig7a()
	case "7b":
		return s.Fig7b()
	case "7c":
		return s.Fig7c()
	case "7d":
		return s.Fig7d()
	case "7e":
		return s.Fig7e()
	case "7f":
		return s.Fig7f()
	case "8":
		return s.Fig8()
	case "9a":
		return s.Fig9a()
	case "9b":
		return s.Fig9b()
	case "9c":
		return s.Fig9c()
	case "9d":
		return s.Fig9d()
	case "power":
		return s.PowerFigure()
	case "energy":
		return s.EnergyFigure()
	case "faults":
		return s.FaultSweep()
	default:
		return nil, fmt.Errorf("unknown figure %q", name)
	}
}

// DesignFigure runs one design over one benchmark set (one core per
// benchmark) and renders it against the Standard baseline: the smallest
// servable unit of work, and the request shape dasserve caches most
// often.
func (s *Session) DesignFigure(design core.Design, benchmarks []string) (*Figure, error) {
	if len(benchmarks) == 0 {
		return nil, fmt.Errorf("exp: design run needs at least one benchmark")
	}
	base, err := s.Baseline(benchmarks)
	if err != nil {
		return nil, err
	}
	res, err := s.Cached(s.Cfg, design, benchmarks)
	if err != nil {
		return nil, err
	}
	tbl := &stats.Table{
		Title:  fmt.Sprintf("%v over %s", design, wkey(benchmarks)),
		Header: []string{"core", "benchmark", "IPC", "improvement", "rb", "fast", "slow"},
	}
	rb, fast, slow := res.Access.Fractions()
	for i, c := range res.PerCore {
		imp := (c.IPC/base.PerCore[i].IPC - 1) * 100
		loc := []string{"", "", ""}
		if i == 0 { // access locations are system-wide, print once
			loc = []string{stats.Percent(rb), stats.Percent(fast), stats.Percent(slow)}
		}
		tbl.AddRow(fmt.Sprintf("%d", i), c.Benchmark,
			fmt.Sprintf("%.3f", c.IPC), fmt.Sprintf("%+.2f%%", imp),
			loc[0], loc[1], loc[2])
	}
	if design != core.Standard {
		tbl.AddRow("", "mean", "", fmt.Sprintf("%+.2f%%", res.Improvement(base)), "", "", "")
	}
	tbl.Caption = "Improvement is per-core IPC versus the Standard baseline of the same benchmarks."
	return &Figure{ID: "Run", Title: tbl.Title, Tables: []*stats.Table{tbl}}, nil
}

// Fig7a regenerates Figure 7a: single-programmed performance
// improvements.
func (s *Session) Fig7a() (*Figure, error) {
	return s.improvementFigure("Fig7a", "Single-programming performance improvements",
		s.Cfg, s.singleSets(), s.singles())
}

// Fig7d regenerates Figure 7d: multi-programmed performance
// improvements over the M1-M8 mixes.
func (s *Session) Fig7d() (*Figure, error) {
	sets, names, err := s.mixSets()
	if err != nil {
		return nil, err
	}
	return s.improvementFigure("Fig7d", "Multi-programming performance improvements",
		multiConfig(s.Cfg), sets, names)
}

// behaviourFigure builds a Fig 7b/7e-style table: MPKI, PPKM and
// footprint per workload under DAS-DRAM.
func (s *Session) behaviourFigure(id, title string, cfg config.Config, sets [][]string, rowNames []string) (*Figure, error) {
	tbl := &stats.Table{
		Title:  title,
		Header: []string{"workload", "MPKI", "PPKM", "footprint(MB)"},
	}
	for i, set := range sets {
		res, err := s.Cached(cfg, core.DAS, set)
		if err != nil {
			return nil, err
		}
		var mpki, ppkm, fp float64
		for _, c := range res.PerCore {
			mpki += c.MPKI
			ppkm += c.PPKM
			fp += c.FootprintMB
		}
		n := float64(len(res.PerCore))
		tbl.AddRow(rowNames[i], fmt.Sprintf("%.1f", mpki/n), fmt.Sprintf("%.1f", ppkm/n),
			fmt.Sprintf("%.0f", fp))
	}
	tbl.Caption = "Measured under DAS-DRAM; MPKI/PPKM are per-core means, footprint is the set total."
	return &Figure{ID: id, Title: title, Tables: []*stats.Table{tbl}}, nil
}

// Fig7b regenerates Figure 7b: single-programmed MPKI / PPKM /
// footprints.
func (s *Session) Fig7b() (*Figure, error) {
	return s.behaviourFigure("Fig7b", "Single-programming MPKI, PPKM and footprints",
		s.Cfg, s.singleSets(), s.singles())
}

// Fig7e regenerates Figure 7e: multi-programmed MPKI / PPKM /
// footprints.
func (s *Session) Fig7e() (*Figure, error) {
	sets, names, err := s.mixSets()
	if err != nil {
		return nil, err
	}
	return s.behaviourFigure("Fig7e", "Multi-programming MPKI, PPKM and footprints",
		multiConfig(s.Cfg), sets, names)
}

// locationFigure builds a Fig 7c/7f-style table: access-location
// distribution for a static design (SAS) and the dynamic design (DAS).
func (s *Session) locationFigure(id, title string, cfg config.Config, sets [][]string, rowNames []string) (*Figure, error) {
	tbl := &stats.Table{
		Title: title,
		Header: []string{"workload",
			"static rb", "static fast", "static slow",
			"dynamic rb", "dynamic fast", "dynamic slow"},
	}
	for i, set := range sets {
		sas, err := s.Cached(cfg, core.SAS, set)
		if err != nil {
			return nil, err
		}
		das, err := s.Cached(cfg, core.DAS, set)
		if err != nil {
			return nil, err
		}
		srb, sf, ss := sas.Access.Fractions()
		drb, df, ds := das.Access.Fractions()
		tbl.AddRow(rowNames[i],
			stats.Percent(srb), stats.Percent(sf), stats.Percent(ss),
			stats.Percent(drb), stats.Percent(df), stats.Percent(ds))
	}
	tbl.Caption = "Share of demand DRAM accesses served by the row buffer, fast level and slow level."
	return &Figure{ID: id, Title: title, Tables: []*stats.Table{tbl}}, nil
}

// Fig7c regenerates Figure 7c: single-programmed access locations.
func (s *Session) Fig7c() (*Figure, error) {
	return s.locationFigure("Fig7c", "Single-programming access locations (static vs dynamic)",
		s.Cfg, s.singleSets(), s.singles())
}

// Fig7f regenerates Figure 7f: multi-programmed access locations.
func (s *Session) Fig7f() (*Figure, error) {
	sets, names, err := s.mixSets()
	if err != nil {
		return nil, err
	}
	return s.locationFigure("Fig7f", "Multi-programming access locations (static vs dynamic)",
		multiConfig(s.Cfg), sets, names)
}

// FilterThresholds is the Figure 8 sweep.
var FilterThresholds = []int{1, 2, 4, 8}

// Fig8 regenerates Figure 8: filtering-policy sweep — performance
// improvement (8a), fast-level miss ratio (8b) and promotions per
// access (8c) per threshold.
func (s *Session) Fig8() (*Figure, error) {
	names := s.singles()
	perf := &stats.Table{Title: "Fig 8a: performance improvement", Header: []string{"workload"}}
	miss := &stats.Table{Title: "Fig 8b: fast-level miss ratio", Header: []string{"workload"}}
	prom := &stats.Table{Title: "Fig 8c: row promotions / memory access", Header: []string{"workload"}}
	for _, th := range FilterThresholds {
		col := fmt.Sprintf("thr=%d", th)
		perf.Header = append(perf.Header, col)
		miss.Header = append(miss.Header, col)
		prom.Header = append(prom.Header, col)
	}
	variants := s.dasVariants("8")
	ratios := make(map[int][]float64)
	for _, name := range names {
		set := []string{name}
		base, err := s.Baseline(set)
		if err != nil {
			return nil, err
		}
		pRow, mRow, cRow := []string{name}, []string{name}, []string{name}
		for i, th := range FilterThresholds {
			res, err := s.Cached(variants[i], core.DAS, set)
			if err != nil {
				return nil, err
			}
			ratio := res.Speedup(base)
			ratios[th] = append(ratios[th], ratio)
			pRow = append(pRow, fmt.Sprintf("%+.2f%%", (ratio-1)*100))
			mRow = append(mRow, stats.Percent(res.Access.FastLevelMissRatio()))
			cRow = append(cRow, stats.Percent(res.PromPerAccess))
		}
		perf.AddRow(pRow...)
		miss.AddRow(mRow...)
		prom.AddRow(cRow...)
	}
	gm := []string{"gmean"}
	for _, th := range FilterThresholds {
		imp, err := stats.GmeanImprovementErr(ratios[th])
		if err != nil {
			return nil, fmt.Errorf("Fig8: threshold %d gmean: %w", th, err)
		}
		gm = append(gm, fmt.Sprintf("%+.2f%%", imp))
	}
	perf.AddRow(gm...)
	return &Figure{
		ID:     "Fig8",
		Title:  "Filtering policies for row promotion",
		Tables: []*stats.Table{perf, miss, prom},
	}, nil
}

// vary returns one copy of base per value, with set applied to it.
func vary[T any](base config.Config, values []T, set func(*config.Config, T)) []config.Config {
	out := make([]config.Config, len(values))
	for i, v := range values {
		out[i] = base
		set(&out[i], v)
	}
	return out
}

// dasVariants returns the DAS configurations a sweep figure runs
// against each benchmark's baseline, one per value of its sweep slice
// (nil for a figure that is not such a sweep). Figure 9a scales the
// paper's TagCachePaperKB capacities to the simulated memory, at least
// 1 KB each, so a small memory maps several of them to one run.
func (s *Session) dasVariants(name string) []config.Config {
	switch name {
	case "8":
		return vary(s.Cfg, FilterThresholds, func(c *config.Config, th int) { c.FilterThreshold = th })
	case "9a":
		scale := s.Cfg.MemoryScale()
		return vary(s.Cfg, TagCachePaperKB, func(c *config.Config, kb int) { c.TagCacheKB = max(1, int(float64(kb)*scale)) })
	case "9b":
		return vary(s.Cfg, GroupSizes, func(c *config.Config, g int) { c.GroupSize = g })
	case "9c":
		return s.ratioVariants("random")
	case "9d":
		return s.ratioVariants("lru")
	case "faults":
		f := s.faultVariants()
		return slices.Concat(f[0], f[1], f[2])
	}
	return nil
}

// sweepFigure runs DAS over single benchmarks for each variant config.
func (s *Session) sweepFigure(id, title string, variants []config.Config, colNames []string) (*Figure, error) {
	names := s.singles()
	tbl := &stats.Table{Title: title, Header: append([]string{"workload"}, colNames...)}
	ratios := make([][]float64, len(variants))
	for _, name := range names {
		set := []string{name}
		base, err := s.Baseline(set)
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for vi, cfg := range variants {
			res, err := s.Cached(cfg, core.DAS, set)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, colNames[vi], err)
			}
			ratio := res.Speedup(base)
			ratios[vi] = append(ratios[vi], ratio)
			row = append(row, fmt.Sprintf("%+.2f%%", (ratio-1)*100))
		}
		tbl.AddRow(row...)
	}
	gm := []string{"gmean"}
	for vi := range variants {
		imp, err := stats.GmeanImprovementErr(ratios[vi])
		if err != nil {
			return nil, fmt.Errorf("%s: variant %d gmean: %w", id, vi, err)
		}
		gm = append(gm, fmt.Sprintf("%+.2f%%", imp))
	}
	tbl.AddRow(gm...)
	return &Figure{ID: id, Title: title, Tables: []*stats.Table{tbl}}, nil
}

// TagCachePaperKB is the Figure 9a sweep in the paper's full-scale
// capacities; the harness scales them with simulated memory.
var TagCachePaperKB = []int{32, 64, 128, 256}

// Fig9a regenerates Figure 9a: translation cache capacity sensitivity.
func (s *Session) Fig9a() (*Figure, error) {
	variants := s.dasVariants("9a")
	var cols []string
	for i, kb := range TagCachePaperKB {
		cols = append(cols, fmt.Sprintf("%dKB(=%dKB@8GB)", variants[i].TagCacheKB, kb))
	}
	return s.sweepFigure("Fig9a", "Translation cache capacities", variants, cols)
}

// GroupSizes is the Figure 9b sweep.
var GroupSizes = []int{8, 16, 32, 64}

// Fig9b regenerates Figure 9b: migration group size sensitivity.
func (s *Session) Fig9b() (*Figure, error) {
	var cols []string
	for _, g := range GroupSizes {
		cols = append(cols, fmt.Sprintf("%d-row", g))
	}
	return s.sweepFigure("Fig9b", "Migration group sizes", s.dasVariants("9b"), cols)
}

// FastRatios is the Figure 9c/9d sweep (denominators of the fast-level
// capacity ratio).
var FastRatios = []int{32, 16, 8, 4}

// ratioVariants returns the Figure 9c/9d configurations: one per
// FastRatios denominator, with replacement policy repl.
func (s *Session) ratioVariants(repl string) []config.Config {
	return vary(s.Cfg, FastRatios, func(c *config.Config, d int) { c.FastDenom, c.Replacement = d, repl })
}

// fig9ratio builds Figure 9c (random) or 9d (LRU).
func (s *Session) fig9ratio(id, repl string) (*Figure, error) {
	var cols []string
	for _, d := range FastRatios {
		cols = append(cols, fmt.Sprintf("1/%d", d))
	}
	title := fmt.Sprintf("Fast-level capacity ratios, %s replacement", repl)
	return s.sweepFigure(id, title, s.ratioVariants(repl), cols)
}

// Fig9c regenerates Figure 9c: fast-level ratios with random
// replacement.
func (s *Session) Fig9c() (*Figure, error) { return s.fig9ratio("Fig9c", "random") }

// Fig9d regenerates Figure 9d: fast-level ratios with LRU replacement.
func (s *Session) Fig9d() (*Figure, error) { return s.fig9ratio("Fig9d", "lru") }

// powerDesigns are the designs the power figure prices against the
// Standard baseline.
var powerDesigns = []core.Design{core.SAS, core.CHARM, core.DAS, core.FS}

// PowerFigure regenerates the Section 7.7 discussion as a table: the
// relative DRAM array-energy proxy of each design.
func (s *Session) PowerFigure() (*Figure, error) {
	names := s.singles()
	tbl := &stats.Table{
		Title:  "Relative DRAM access-energy proxy (Standard = 1.00)",
		Header: []string{"workload", "SAS-DRAM", "CHARM", "DAS-DRAM", "FS-DRAM"},
	}
	for _, name := range names {
		set := []string{name}
		base, err := s.Baseline(set)
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for _, d := range powerDesigns {
			res, err := s.Cached(s.Cfg, d, set)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.3f", res.EnergyProxy/base.EnergyProxy))
		}
		tbl.AddRow(row...)
	}
	tbl.Caption = "Energy proxy: slow activate-restore cycle = 1, fast cycle = 0.45, column burst = 0.25, migration = 4 (Section 7.7)."
	return &Figure{ID: "Power", Title: "Power implications (Section 7.7)", Tables: []*stats.Table{tbl}}, nil
}

// energyDesigns is every design the energy figure compares, baseline
// first.
var energyDesigns = []core.Design{
	core.Standard, core.SAS, core.CHARM, core.DAS, core.DASFM, core.FS,
}

// energyDesignCols are the column headers matching energyDesigns.
var energyDesignCols = []string{
	"Standard", "SAS-DRAM", "CHARM", "DAS-DRAM", "DAS-DRAM(FM)", "FS-DRAM",
}

// EnergyFigure renders the perf-per-watt comparison of all six designs
// under the analytical energy model (internal/energy): instructions per
// microjoule of DRAM energy, energy-delay product relative to Standard,
// and a per-command pJ/instruction decomposition. Pure accounting over
// runs the other figures already share — rendering it never changes any
// command stream or figure byte.
func (s *Session) EnergyFigure() (*Figure, error) {
	names := s.singles()
	perWatt := &stats.Table{
		Title:  "Perf/watt: instructions per microjoule of DRAM energy",
		Header: append([]string{"workload"}, energyDesignCols...),
	}
	edp := &stats.Table{
		Title:  "Energy-delay product relative to Standard (lower is better)",
		Header: append([]string{"workload"}, energyDesignCols...),
	}
	ipuj := make(map[core.Design][]float64)
	edps := make(map[core.Design][]float64)
	// Per-design component accumulation (exact integer pJ) for the
	// decomposition table.
	sumE := make(map[core.Design]*energy.Breakdown)
	sumInstr := make(map[core.Design]uint64)
	for _, d := range energyDesigns {
		sumE[d] = &energy.Breakdown{}
	}
	for _, name := range names {
		set := []string{name}
		base, err := s.Baseline(set)
		if err != nil {
			return nil, err
		}
		baseEDP := float64(base.Energy.TotalPJ()) * base.SimulatedNS
		pRow, eRow := []string{name}, []string{name}
		for _, d := range energyDesigns {
			res, err := s.Cached(s.Cfg, d, set)
			if err != nil {
				return nil, fmt.Errorf("energy: %s/%v: %w", name, d, err)
			}
			uj := float64(res.Energy.TotalPJ()) / 1e6
			perUJ := 0.0
			if uj > 0 {
				perUJ = float64(res.InstrsTotal) / uj
			}
			rel := 0.0
			if baseEDP > 0 {
				rel = float64(res.Energy.TotalPJ()) * res.SimulatedNS / baseEDP
			}
			ipuj[d] = append(ipuj[d], perUJ)
			edps[d] = append(edps[d], rel)
			pRow = append(pRow, fmt.Sprintf("%.0f", perUJ))
			eRow = append(eRow, fmt.Sprintf("%.3f", rel))
			accumulateBreakdown(sumE[d], res.Energy)
			sumInstr[d] += res.InstrsTotal
		}
		perWatt.AddRow(pRow...)
		edp.AddRow(eRow...)
	}
	pGm, eGm := []string{"gmean"}, []string{"gmean"}
	for _, d := range energyDesigns {
		g, err := stats.GmeanErr(ipuj[d])
		if err != nil {
			return nil, fmt.Errorf("energy: %v instr/uJ gmean: %w", d, err)
		}
		pGm = append(pGm, fmt.Sprintf("%.0f", g))
		g, err = stats.GmeanErr(edps[d])
		if err != nil {
			return nil, fmt.Errorf("energy: %v EDP gmean: %w", d, err)
		}
		eGm = append(eGm, fmt.Sprintf("%.3f", g))
	}
	perWatt.AddRow(pGm...)
	edp.AddRow(eGm...)
	perWatt.Caption = "DRAM energy = per-command dynamic energy (bitline-length scaled) + background power over the simulated interval."
	edp.Caption = "EDP = total DRAM energy x simulated time, normalized to the Standard run of the same workload."

	decomp := &stats.Table{
		Title: "DRAM energy decomposition (pJ per instruction, summed over workloads)",
		Header: []string{"design", "act", "pre", "rd", "wr",
			"ref", "mig", "background", "total"},
	}
	for i, d := range energyDesigns {
		b := sumE[d]
		per := func(pj int64) string {
			if sumInstr[d] == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f", float64(pj)/float64(sumInstr[d]))
		}
		decomp.AddRow(energyDesignCols[i],
			per(b.ActSlowPJ+b.ActFastPJ), per(b.PreSlowPJ+b.PreFastPJ),
			per(b.RdSlowPJ+b.RdFastPJ), per(b.WrSlowPJ+b.WrFastPJ),
			per(b.RefPJ), per(b.MigPJ), per(b.BackgroundPJ), per(b.TotalPJ()))
	}
	decomp.Caption = "Fast-subarray commands are cheaper per event (shorter bitlines); migrations and translation traffic add energy the latency figures do not show."
	return &Figure{
		ID:     "Energy",
		Title:  "Performance per watt (analytical energy model)",
		Tables: []*stats.Table{perWatt, edp, decomp},
	}, nil
}

// accumulateBreakdown adds b into dst field by field (exact integer pJ).
func accumulateBreakdown(dst *energy.Breakdown, b energy.Breakdown) {
	dst.ActSlowPJ += b.ActSlowPJ
	dst.ActFastPJ += b.ActFastPJ
	dst.PreSlowPJ += b.PreSlowPJ
	dst.PreFastPJ += b.PreFastPJ
	dst.RdSlowPJ += b.RdSlowPJ
	dst.RdFastPJ += b.RdFastPJ
	dst.WrSlowPJ += b.WrSlowPJ
	dst.WrFastPJ += b.WrFastPJ
	dst.RefPJ += b.RefPJ
	dst.MigPJ += b.MigPJ
	dst.BackgroundPJ += b.BackgroundPJ
}

// Table1 renders the system configuration (Table 1).
func Table1(cfg config.Config) *Figure {
	tbl := &stats.Table{Title: "System configuration", Header: []string{"component", "setting"}}
	tbl.AddRow("Processor", fmt.Sprintf("%d core(s), %.0f GHz, %d-wide, %d-entry ROB", cfg.Cores, cfg.CPUGHz, cfg.Width, cfg.ROB))
	tbl.AddRow("L1", fmt.Sprintf("%d KB, %d-way, %d cycles", cfg.L1KB, cfg.L1Assoc, cfg.L1Latency))
	tbl.AddRow("L2", fmt.Sprintf("%d KB, %d-way, +%d cycles", cfg.L2KB, cfg.L2Assoc, cfg.L2Latency))
	tbl.AddRow("LLC", fmt.Sprintf("%d KB shared, %d-way, +%d cycles", cfg.LLCKB, cfg.LLCAssoc, cfg.LLCLatency))
	tbl.AddRow("Controller", fmt.Sprintf("%d-entry window, open-page FR-FCFS", cfg.WindowSize))
	geom := cfg.Geometry()
	tbl.AddRow("DRAM", fmt.Sprintf("%d MB: %d channels x %d ranks x %d banks x %d rows x %d B rows",
		geom.Capacity()>>20, cfg.Channels, cfg.Ranks, cfg.Banks, cfg.RowsPerBank, geom.RowBytes()))
	tbl.AddRow("Timing (slow)", "tRCD 13.75 ns, tRC 48.75 ns (DDR3-1600)")
	tbl.AddRow("Timing (fast)", "tRCD 8.75 ns, tRC 25 ns")
	tbl.AddRow("Asym. DRAM", fmt.Sprintf("fast level 1/%d, %d-row groups, migration %.2f ns, tag cache %d KB, filter threshold %d, %s replacement",
		cfg.FastDenom, cfg.GroupSize, cfg.MigrationLatencyNS, cfg.TagCacheKB, cfg.FilterThreshold, cfg.Replacement))
	tbl.AddRow("Protocol", fmt.Sprintf("%d instructions/core, first %.0f%% warm-up", cfg.InstrPerCore, cfg.WarmupFrac*100))
	return &Figure{ID: "Table1", Title: "System configuration (Table 1)", Tables: []*stats.Table{tbl}}
}

// Table2 renders the workload list (Table 2).
func Table2() *Figure {
	single := &stats.Table{Title: "Single-programming workloads", Header: []string{"benchmark", "MPKI target", "footprint", "mixture"}}
	for _, p := range workload.Catalog() {
		mix := ""
		for _, c := range []struct {
			n string
			w float64
		}{{"local", p.LocalWeight}, {"stream", p.StreamWeight}, {"stride", p.StrideWeight}, {"hot", p.HotWeight}, {"chase", p.ChaseWeight}} {
			if c.w > 0 {
				mix += fmt.Sprintf("%s %.3f ", c.n, c.w)
			}
		}
		single.AddRow(p.Name, fmt.Sprintf("mem %.0f%%", p.MemFraction*100),
			fmt.Sprintf("%d MB", p.FootprintBytes>>20), mix)
	}
	multi := &stats.Table{Title: "Multi-programming workloads", Header: []string{"set", "benchmarks"}}
	for _, m := range workload.Mixes() {
		multi.AddRow(m.Name, fmt.Sprintf("%v", m.Benchmarks))
	}
	return &Figure{ID: "Table2", Title: "Target workloads (Table 2)", Tables: []*stats.Table{single, multi}}
}

// AreaFigure renders the Section 4.3 / 7.6 area numbers.
func AreaFigure() *Figure {
	tbl := &stats.Table{Title: "Die-area overheads", Header: []string{"design", "model", "paper"}}
	p := area.Default()
	tbl.AddRow("DAS-DRAM 1:2 reduced interleaving (fast ~1/8)", stats.Percent(p.Overhead()), "6.6%")
	if o, err := p.OverheadForCapacityRatio(4); err == nil {
		tbl.AddRow("DAS-DRAM fast = 1/4 capacity", stats.Percent(o), "11.3%")
	}
	if o, err := p.OverheadForCapacityRatio(16); err == nil {
		tbl.AddRow("DAS-DRAM fast = 1/16 capacity", stats.Percent(o), "-")
	}
	tbl.AddRow("TL-DRAM (128-row near segment)", stats.Percent(area.DefaultTLDRAM().Overhead()), "~24%")
	tbl.Caption = "Analytical model; the paper's 1/4 number grows sublinearly versus this linear-in-subarrays model."
	return &Figure{ID: "Area", Title: "Area overheads (Sections 4.3, 7.6)", Tables: []*stats.Table{tbl}}
}
