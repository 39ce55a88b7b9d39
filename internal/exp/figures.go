package exp

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

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

// singleSets returns each single-programmed benchmark as its own set,
// labelled by its name: the session's Benchmarks override if set, else
// the full Table 2 catalog.
func (s *Session) singleSets() ([][]string, []string, error) {
	names := s.Benchmarks
	if len(names) == 0 {
		names = workload.AllSingleNames()
	}
	sets := make([][]string, len(names))
	for i, n := range names {
		sets[i] = []string{n}
	}
	return sets, names, nil
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

// column is one column of a figure's run grid: a design under the
// session config or under one sweep point of it.
type column struct {
	label  string // the column's table header
	cfg    config.Config
	design core.Design
}

// grid is the runs one figure draws on: every column over every row's
// workload set. A figure normalized to Standard puts the baseline in
// column 0.
type grid struct {
	sets  [][]string
	names []string // row labels
	cols  []column
	runs  [][]*run // runs[row][col], filled by fetch
}

// figureEntry states one figure once: the rows and columns of its run
// grid, and how it is drawn from the fetched grid. The tables that run
// nothing have no rows.
type figureEntry struct {
	name string
	rows func(*Session) (sets [][]string, names []string, err error)
	cols func(*Session) []column
	draw func(*Session, *grid) (*Figure, error)
}

// catalog is every figure Figure renders, in presentation order. It is
// also what InstrHorizon counts, so a figure's runs are stated here and
// nowhere else.
var catalog = []figureEntry{
	{name: "table1", draw: func(s *Session, _ *grid) (*Figure, error) { return Table1(s.Cfg), nil }},
	{name: "table2", draw: func(*Session, *grid) (*Figure, error) { return Table2(), nil }},
	{name: "area", draw: func(*Session, *grid) (*Figure, error) { return AreaFigure(), nil }},
	{"7a", (*Session).singleSets, designs(core.AllDesigns()...),
		drawSpeedups("Fig7a", "Single-programming performance improvements", improvementCaption)},
	{"7b", (*Session).singleSets, designs(core.DAS),
		drawBehaviour("Fig7b", "Single-programming MPKI, PPKM and footprints")},
	{"7c", (*Session).singleSets, designs(core.SAS, core.DAS),
		drawLocations("Fig7c", "Single-programming access locations (static vs dynamic)")},
	{"7d", (*Session).mixSets, designs(core.AllDesigns()...),
		drawSpeedups("Fig7d", "Multi-programming performance improvements", improvementCaption)},
	{"7e", (*Session).mixSets, designs(core.DAS),
		drawBehaviour("Fig7e", "Multi-programming MPKI, PPKM and footprints")},
	{"7f", (*Session).mixSets, designs(core.SAS, core.DAS),
		drawLocations("Fig7f", "Multi-programming access locations (static vs dynamic)")},
	{"8", (*Session).singleSets,
		sweep(FilterThresholds, func(c *config.Config, th int) { c.FilterThreshold = th },
			func(_ config.Config, th int) string { return fmt.Sprintf("thr=%d", th) }),
		drawFig8},
	// Figure 9a scales the paper's capacities to the simulated memory,
	// at least 1 KB each, so a small memory maps several to one run.
	{"9a", (*Session).singleSets,
		sweep(TagCachePaperKB, func(c *config.Config, kb int) { c.TagCacheKB = max(1, int(float64(kb)*c.MemoryScale())) },
			func(c config.Config, kb int) string { return fmt.Sprintf("%dKB(=%dKB@8GB)", c.TagCacheKB, kb) }),
		drawSpeedups("Fig9a", "Translation cache capacities", "")},
	{"9b", (*Session).singleSets,
		sweep(GroupSizes, func(c *config.Config, g int) { c.GroupSize = g },
			func(_ config.Config, g int) string { return fmt.Sprintf("%d-row", g) }),
		drawSpeedups("Fig9b", "Migration group sizes", "")},
	{"9c", (*Session).singleSets, ratioSweep("random"),
		drawSpeedups("Fig9c", "Fast-level capacity ratios, random replacement", "")},
	{"9d", (*Session).singleSets, ratioSweep("lru"),
		drawSpeedups("Fig9d", "Fast-level capacity ratios, lru replacement", "")},
	{"power", (*Session).singleSets, designs(core.Standard, core.SAS, core.CHARM, core.DAS, core.FS), drawPower},
	{"energy", (*Session).singleSets, designs(core.AllDesigns()...), drawEnergy},
	{"faults", (*Session).singleSets, faultColumns, drawFaults},
}

// FigureNames lists every name Figure dispatches, in presentation
// order. "tables" and "all" are the dasbench aliases expanded by the
// CLI, not dispatchable names, so they are absent here.
func FigureNames() []string {
	names := make([]string, len(catalog))
	for i, e := range catalog {
		names[i] = e.name
	}
	return names
}

// TableNames lists the catalog entries that run nothing (the static
// tables), in presentation order.
func TableNames() []string {
	var names []string
	for _, e := range catalog {
		if e.rows == nil {
			names = append(names, e.name)
		}
	}
	return names
}

// lookup returns the catalog entry of a figure name, nil if none.
func lookup(name string) *figureEntry {
	for i := range catalog {
		if catalog[i].name == name {
			return &catalog[i]
		}
	}
	return nil
}

// Figure renders a figure of the catalog by name. It is the single entry
// point shared by the CLI (dasbench -fig) and the serving layer
// (dasserve requests), so both expose exactly the same catalog.
func (s *Session) Figure(name string) (*Figure, error) {
	e := lookup(name)
	if e == nil {
		return nil, fmt.Errorf("unknown figure %q", name)
	}
	return s.render(e)
}

// DesignFigure runs one design over one benchmark set (one core per
// benchmark) and renders it against the Standard baseline: the smallest
// servable unit of work, and the request shape dasserve caches most
// often.
func (s *Session) DesignFigure(design core.Design, benchmarks []string) (*Figure, error) {
	if len(benchmarks) == 0 {
		return nil, fmt.Errorf("exp: design run needs at least one benchmark")
	}
	return s.render(designEntry(design, benchmarks))
}

// designEntry is DesignFigure's entry: the Standard baseline and the
// design over the one benchmark set.
func designEntry(design core.Design, benchmarks []string) *figureEntry {
	return &figureEntry{
		rows: func(*Session) ([][]string, []string, error) {
			return [][]string{benchmarks}, []string{wkey(benchmarks)}, nil
		},
		cols: designs(core.Standard, design),
		draw: drawDesign,
	}
}

// grid lays out the entry's run grid for this session, without running
// it.
func (s *Session) grid(e *figureEntry) (*grid, error) {
	g := &grid{}
	if e.rows == nil {
		return g, nil
	}
	var err error
	if g.sets, g.names, err = e.rows(s); err != nil {
		return nil, err
	}
	g.cols = e.cols(s)
	return g, nil
}

// render fetches the entry's grid and draws the figure from it.
func (s *Session) render(e *figureEntry) (*Figure, error) {
	g, err := s.grid(e)
	if err != nil {
		return nil, err
	}
	if err := s.fetch(g); err != nil {
		return nil, err
	}
	return e.draw(s, g)
}

// fetch runs the grid's cells through the run memo, so a run the grid
// repeats, or an earlier figure made, runs once. Cells start in grid
// order with at most Parallelism in flight. Once a cell fails no further
// cell starts, and the error names the first failing cell in grid
// order: every cell before it has started, so which one that is does
// not depend on host scheduling. A cell that panicked fails too, and
// if it is the first, its panic is raised again here, in the caller's
// goroutine.
func (s *Session) fetch(g *grid) error {
	n := len(g.cols)
	runs := make([]*run, len(g.sets)*n)
	sem := make(chan struct{}, max(1, s.Parallelism))
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i := range runs {
		sem <- struct{}{}
		if failed.Load() {
			break
		}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			c := g.cols[i%n]
			runs[i] = s.cached(c.cfg, c.design, g.sets[i/n])
			if runs[i].err != nil {
				failed.Store(true)
			}
		}()
	}
	wg.Wait()
	for i, r := range runs {
		if r == nil {
			break // not started: an earlier cell failed
		}
		if _, err := r.result(); err != nil {
			return fmt.Errorf("%s/%s: %w", g.names[i/n], g.cols[i%n].label, err)
		}
	}
	g.runs = make([][]*run, len(g.sets))
	for i := range g.runs {
		g.runs[i] = runs[i*n : (i+1)*n]
	}
	return nil
}

// designs returns one column per design under the session config,
// headed by the design's name without spaces.
func designs(ds ...core.Design) func(*Session) []column {
	return func(s *Session) []column {
		cols := make([]column, len(ds))
		for i, d := range ds {
			cols[i] = column{strings.ReplaceAll(d.String(), " ", ""), s.Cfg, d}
		}
		return cols
	}
}

// sweep returns a sweep figure's columns: the Standard baseline, then
// DAS for each value, under the session config with set applied and
// headed by label.
func sweep[T any](values []T, set func(*config.Config, T), label func(config.Config, T) string) func(*Session) []column {
	return func(s *Session) []column {
		cols := designs(core.Standard)(s)
		for _, v := range values {
			cfg := s.Cfg
			set(&cfg, v)
			cols = append(cols, column{label(cfg, v), cfg, core.DAS})
		}
		return cols
	}
}

// FilterThresholds is the Figure 8 sweep.
var FilterThresholds = []int{1, 2, 4, 8}

// TagCachePaperKB is the Figure 9a sweep in the paper's full-scale
// capacities; the harness scales them with simulated memory.
var TagCachePaperKB = []int{32, 64, 128, 256}

// GroupSizes is the Figure 9b sweep.
var GroupSizes = []int{8, 16, 32, 64}

// FastRatios is the Figure 9c/9d sweep (denominators of the fast-level
// capacity ratio).
var FastRatios = []int{32, 16, 8, 4}

// ratioSweep returns the Figure 9c/9d columns: one per FastRatios
// denominator, with replacement policy repl.
func ratioSweep(repl string) func(*Session) []column {
	return sweep(FastRatios, func(c *config.Config, d int) { c.FastDenom, c.Replacement = d, repl },
		func(_ config.Config, d int) string { return fmt.Sprintf("1/%d", d) })
}

// table tabulates cell(result, baseline) for every column after the
// Standard baseline in column 0, one row per workload set.
func (g *grid) table(title string, cell func(r, base *Result) string) *stats.Table {
	tbl := &stats.Table{Title: title, Header: []string{"workload"}}
	for _, c := range g.cols[1:] {
		tbl.Header = append(tbl.Header, c.label)
	}
	for i, row := range g.runs {
		cells := []string{g.names[i]}
		for _, r := range row[1:] {
			cells = append(cells, cell(r.res, row[0].res))
		}
		tbl.AddRow(cells...)
	}
	return tbl
}

// gmean returns column col's gmean improvement (%) over the baseline
// across the workload sets.
func (g *grid) gmean(col int) (float64, error) {
	ratios := make([]float64, len(g.runs))
	for i, row := range g.runs {
		ratios[i] = row[col].res.Speedup(row[0].res)
	}
	imp, err := stats.GmeanImprovementErr(ratios)
	if err != nil {
		return 0, fmt.Errorf("%s gmean: %w", g.cols[col].label, err)
	}
	return imp, nil
}

// speedupTable tabulates each column's improvement over the baseline,
// with each column's gmean over the workload sets last.
func (g *grid) speedupTable(id, title string) (*stats.Table, error) {
	tbl := g.table(title, func(r, base *Result) string { return fmt.Sprintf("%+.2f%%", r.Improvement(base)) })
	gm := []string{"gmean"}
	for col := 1; col < len(g.cols); col++ {
		imp, err := g.gmean(col)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		gm = append(gm, fmt.Sprintf("%+.2f%%", imp))
	}
	tbl.AddRow(gm...)
	return tbl, nil
}

const improvementCaption = "Performance improvement over Standard (homogeneous) DRAM."

// drawSpeedups draws a one-table speedup figure: Fig 7a/7d over designs,
// Fig 9a-9d over sweep points.
func drawSpeedups(id, title, caption string) func(*Session, *grid) (*Figure, error) {
	return func(_ *Session, g *grid) (*Figure, error) {
		tbl, err := g.speedupTable(id, title)
		if err != nil {
			return nil, err
		}
		tbl.Caption = caption
		return &Figure{ID: id, Title: title, Tables: []*stats.Table{tbl}}, nil
	}
}

// drawBehaviour draws a Fig 7b/7e-style table: MPKI, PPKM and footprint
// per workload under DAS-DRAM, the grid's one column.
func drawBehaviour(id, title string) func(*Session, *grid) (*Figure, error) {
	return func(_ *Session, g *grid) (*Figure, error) {
		tbl := &stats.Table{
			Title:  title,
			Header: []string{"workload", "MPKI", "PPKM", "footprint(MB)"},
		}
		for i, row := range g.runs {
			var mpki, ppkm, fp float64
			for _, c := range row[0].res.PerCore {
				mpki += c.MPKI
				ppkm += c.PPKM
				fp += c.FootprintMB
			}
			n := float64(len(row[0].res.PerCore))
			tbl.AddRow(g.names[i], fmt.Sprintf("%.1f", mpki/n), fmt.Sprintf("%.1f", ppkm/n),
				fmt.Sprintf("%.0f", fp))
		}
		tbl.Caption = "Measured under DAS-DRAM; MPKI/PPKM are per-core means, footprint is the set total."
		return &Figure{ID: id, Title: title, Tables: []*stats.Table{tbl}}, nil
	}
}

// drawLocations draws a Fig 7c/7f-style table: the access-location
// distribution of a static design (SAS, column 0) and the dynamic design
// (DAS, column 1).
func drawLocations(id, title string) func(*Session, *grid) (*Figure, error) {
	return func(_ *Session, g *grid) (*Figure, error) {
		tbl := &stats.Table{
			Title: title,
			Header: []string{"workload",
				"static rb", "static fast", "static slow",
				"dynamic rb", "dynamic fast", "dynamic slow"},
		}
		for i, row := range g.runs {
			srb, sf, ss := row[0].res.Access.Fractions()
			drb, df, ds := row[1].res.Access.Fractions()
			tbl.AddRow(g.names[i],
				stats.Percent(srb), stats.Percent(sf), stats.Percent(ss),
				stats.Percent(drb), stats.Percent(df), stats.Percent(ds))
		}
		tbl.Caption = "Share of demand DRAM accesses served by the row buffer, fast level and slow level."
		return &Figure{ID: id, Title: title, Tables: []*stats.Table{tbl}}, nil
	}
}

// drawFig8 draws Figure 8, the filtering-policy sweep: performance
// improvement (8a), fast-level miss ratio (8b) and promotions per access
// (8c) per threshold.
func drawFig8(_ *Session, g *grid) (*Figure, error) {
	perf, err := g.speedupTable("Fig8", "Fig 8a: performance improvement")
	if err != nil {
		return nil, err
	}
	miss := g.table("Fig 8b: fast-level miss ratio", func(r, _ *Result) string {
		return stats.Percent(r.Access.FastLevelMissRatio())
	})
	prom := g.table("Fig 8c: row promotions / memory access", func(r, _ *Result) string {
		return stats.Percent(r.PromPerAccess)
	})
	return &Figure{
		ID:     "Fig8",
		Title:  "Filtering policies for row promotion",
		Tables: []*stats.Table{perf, miss, prom},
	}, nil
}

// drawPower draws the Section 7.7 discussion as a table: the relative
// DRAM array-energy proxy of each design.
func drawPower(_ *Session, g *grid) (*Figure, error) {
	tbl := g.table("Relative DRAM access-energy proxy (Standard = 1.00)", func(r, base *Result) string {
		return fmt.Sprintf("%.3f", r.EnergyProxy/base.EnergyProxy)
	})
	tbl.Caption = "Energy proxy: slow activate-restore cycle = 1, fast cycle = 0.45, column burst = 0.25, migration = 4 (Section 7.7)."
	return &Figure{ID: "Power", Title: "Power implications (Section 7.7)", Tables: []*stats.Table{tbl}}, nil
}

// drawEnergy draws the perf-per-watt comparison of all six designs
// under the analytical energy model (internal/energy): instructions per
// microjoule of DRAM energy, energy-delay product relative to Standard,
// and a per-command pJ/instruction decomposition. Pure accounting over
// runs the other figures already share — drawing it never changes any
// command stream or figure byte.
func drawEnergy(_ *Session, g *grid) (*Figure, error) {
	header := []string{"workload"}
	for _, c := range g.cols {
		header = append(header, c.label)
	}
	perWatt := &stats.Table{Title: "Perf/watt: instructions per microjoule of DRAM energy", Header: header}
	edp := &stats.Table{Title: "Energy-delay product relative to Standard (lower is better)", Header: header}
	ipuj := make([][]float64, len(g.cols))
	edps := make([][]float64, len(g.cols))
	// Per-design component accumulation (exact integer pJ) for the
	// decomposition table.
	sumE := make([]energy.Breakdown, len(g.cols))
	sumInstr := make([]uint64, len(g.cols))
	for i, row := range g.runs {
		base := row[0].res
		baseEDP := float64(base.Energy.TotalPJ()) * base.SimulatedNS
		pRow, eRow := []string{g.names[i]}, []string{g.names[i]}
		for d, r := range row {
			res := r.res
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
			accumulateBreakdown(&sumE[d], res.Energy)
			sumInstr[d] += res.InstrsTotal
		}
		perWatt.AddRow(pRow...)
		edp.AddRow(eRow...)
	}
	pGm, eGm := []string{"gmean"}, []string{"gmean"}
	for d, c := range g.cols {
		gm, err := stats.GmeanErr(ipuj[d])
		if err != nil {
			return nil, fmt.Errorf("energy: %s instr/uJ gmean: %w", c.label, err)
		}
		pGm = append(pGm, fmt.Sprintf("%.0f", gm))
		gm, err = stats.GmeanErr(edps[d])
		if err != nil {
			return nil, fmt.Errorf("energy: %s EDP gmean: %w", c.label, err)
		}
		eGm = append(eGm, fmt.Sprintf("%.3f", gm))
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
	for d, c := range g.cols {
		b := sumE[d]
		per := func(pj int64) string {
			if sumInstr[d] == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f", float64(pj)/float64(sumInstr[d]))
		}
		decomp.AddRow(c.label,
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

// drawDesign draws DesignFigure: per-core IPC of the design (column 1)
// against the Standard baseline (column 0) over one benchmark set.
func drawDesign(_ *Session, g *grid) (*Figure, error) {
	base, res, design := g.runs[0][0].res, g.runs[0][1].res, g.cols[1].design
	tbl := &stats.Table{
		Title:  fmt.Sprintf("%v over %s", design, g.names[0]),
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
