// Command benchjson converts `go test -bench` text output, read from
// stdin, into a stable JSON document. `make bench` pipes through it to
// produce BENCH_latest.json; the checked-in BENCH_baseline.json holds
// documents captured the same way before and after the event-engine
// rewrite.
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -out BENCH_latest.json
//
// Each benchmark line becomes {name, iterations, metrics}, where
// metrics maps unit → value for every value/unit pair on the line
// (ns/op, B/op, allocs/op, and any b.ReportMetric custom units). The
// goos/goarch/cpu header lines are collected into "context".
//
// With -compare BASELINE.json the parsed run is instead checked against
// a baseline document (either the flat {context, benchmarks} shape or
// BENCH_baseline.json's nested {pre, post} shape, in which case "post"
// is the reference). The command exits nonzero if any benchmark present
// in both documents regresses: wall ns/op rising more than -tolerance
// (default 10%), instr/s dropping more than that, or allocs/op or B/op
// rising more than that. Wall-clock metrics (ns/op, instr/s) are only
// gated when the baseline was captured on the same CPU; allocation
// counts and bytes are machine-independent and always gated. events/s is reported but never
// gated: next-event scheduling deliberately executes fewer engine
// events for the same simulation, so the metric does not compare across
// scheduler generations.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type document struct {
	Context    map[string]string `json:"context"`
	Benchmarks []benchmark       `json:"benchmarks"`
}

// gomaxprocsSuffix is the "-8" style suffix go test appends to
// benchmark names; stripped so documents compare across machines.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	outPath := flag.String("out", "", "write JSON to this file instead of stdout")
	comparePath := flag.String("compare", "", "compare stdin's benchmarks against this baseline JSON and exit nonzero on regression")
	tolerance := flag.Float64("tolerance", 0.10, "regression tolerance for -compare as a fraction (0.10 = events/s may drop 10%, allocs/op may rise 10%)")
	flag.Parse()

	doc := document{Context: map[string]string{}, Benchmarks: []benchmark{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBenchLine(line); ok {
				doc.Benchmarks = append(doc.Benchmarks, b)
			}
		case strings.HasPrefix(line, "goos:"),
			strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "pkg:"),
			strings.HasPrefix(line, "cpu:"):
			k, v, _ := strings.Cut(line, ":")
			// pkg repeats per package; keep the first of each key.
			if _, seen := doc.Context[k]; !seen {
				doc.Context[k] = strings.TrimSpace(v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	sort.Slice(doc.Benchmarks, func(i, j int) bool {
		return doc.Benchmarks[i].Name < doc.Benchmarks[j].Name
	})

	if *comparePath != "" {
		minEPS, maxAllocs, err := thresholds(*tolerance)
		if err != nil {
			log.Fatal(err)
		}
		base, err := readBaseline(*comparePath)
		if err != nil {
			log.Fatal(err)
		}
		report, regressions := compare(doc, base, minEPS, maxAllocs)
		for _, line := range report {
			fmt.Fprintln(os.Stderr, "benchjson: "+line)
		}
		if regressions > 0 {
			log.Fatalf("%d benchmark regression(s) vs %s", regressions, *comparePath)
		}
		fmt.Fprintf(os.Stderr, "benchjson: no regressions vs %s\n", *comparePath)
		return
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *outPath != "" {
		if err := os.WriteFile(*outPath, enc, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(doc.Benchmarks), *outPath)
		return
	}
	os.Stdout.Write(enc)
}

// readBaseline loads the -compare baseline, turning the two ways it can
// be unusable — file missing/unreadable and content malformed — into
// actionable messages instead of raw I/O or JSON errors, so a broken CI
// gate says what to do, not just what failed.
func readBaseline(path string) (document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return document{}, fmt.Errorf(
				"baseline %s does not exist: capture one with 'make bench' (writes BENCH_latest.json) and check it in as the baseline", path)
		}
		return document{}, fmt.Errorf("baseline %s unreadable: %w", path, err)
	}
	doc, err := loadBaseline(raw)
	if err != nil {
		return document{}, fmt.Errorf(
			"baseline %s malformed: %v (want the {context, benchmarks} or {context, pre, post} JSON shape benchjson emits)", path, err)
	}
	return doc, nil
}

// loadBaseline parses a baseline document. It accepts both the flat
// {context, benchmarks} shape benchjson emits and BENCH_baseline.json's
// nested {context, pre, post} shape; for the latter, "post" (the
// current engine's acceptance numbers) is the reference set.
func loadBaseline(raw []byte) (document, error) {
	var file struct {
		Context    map[string]string `json:"context"`
		Benchmarks []benchmark       `json:"benchmarks"`
		Post       *struct {
			Benchmarks []benchmark `json:"benchmarks"`
		} `json:"post"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		return document{}, err
	}
	doc := document{Context: file.Context, Benchmarks: file.Benchmarks}
	if file.Post != nil {
		doc.Benchmarks = file.Post.Benchmarks
	}
	if len(doc.Benchmarks) == 0 {
		return document{}, fmt.Errorf("no benchmarks in baseline")
	}
	return doc, nil
}

// thresholds derives the regression gates from a tolerance fraction:
// throughput may fall to (1-tol) of the baseline, allocations may rise
// to (1+tol). A tolerance that is not a finite value in [0, 1) cannot
// express a gate (1.0 would allow throughput to reach zero) and is
// rejected.
func thresholds(tol float64) (minThroughputRatio, maxAllocRatio float64, err error) {
	// NaN fails every comparison, so test for the valid range directly.
	if !(tol >= 0 && tol < 1) {
		return 0, 0, fmt.Errorf("tolerance must be in [0, 1), got %v", tol)
	}
	return 1 - tol, 1 + tol, nil
}

// compare checks cur against base benchmark-by-benchmark and returns a
// human-readable report plus the number of gated regressions. Only
// benchmarks present in both documents are gated. Gated metrics: wall
// ns/op (may not rise past the ceiling), instr/s (may not drop below
// the floor), allocs/op (ceiling). The wall-clock gates are skipped
// (with a note) when the two documents were captured on different CPUs,
// since neither latency nor throughput transfers across machines;
// allocation counts always gate. events/s is informational only.
// minThroughputRatio/maxAllocRatio come from thresholds.
func compare(cur, base document, minThroughputRatio, maxAllocRatio float64) (report []string, regressions int) {
	sameCPU := cur.Context["cpu"] != "" && cur.Context["cpu"] == base.Context["cpu"]
	baseByName := make(map[string]benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseByName[b.Name] = b
	}
	// gauge describes one gated metric: lowerIsBetter picks which side of
	// the tolerance band regresses, wallClock marks it same-CPU-only.
	type gauge struct {
		unit          string
		lowerIsBetter bool
		wallClock     bool
	}
	gauges := []gauge{
		{"ns/op", true, true},
		{"instr/s", false, true},
		{"allocs/op", true, false},
		// Bytes allocated per op gates like allocs/op: the count is a
		// property of the code, not the host, so it always compares. It
		// keeps the machine pool honest — a Reset path that silently
		// rebuilds would pass the wall-clock gates on a fast machine but
		// not this one.
		{"B/op", true, false},
	}
	matched := 0
	for _, b := range cur.Benchmarks {
		ref, ok := baseByName[b.Name]
		if !ok {
			continue
		}
		matched++
		for _, g := range gauges {
			refV, ok := ref.Metrics[g.unit]
			if !ok || refV <= 0 {
				continue
			}
			v, ok := b.Metrics[g.unit]
			if !ok {
				continue
			}
			if g.wallClock && !sameCPU {
				report = append(report, fmt.Sprintf("%s: skipping %s gate (baseline cpu %q != current %q)",
					b.Name, g.unit, base.Context["cpu"], cur.Context["cpu"]))
				continue
			}
			if g.lowerIsBetter {
				if v > refV*maxAllocRatio {
					regressions++
					report = append(report, fmt.Sprintf("%s: REGRESSION %s %.0f > %.0f (%.1f%% of baseline %.0f, ceiling %.0f%%)",
						b.Name, g.unit, v, refV*maxAllocRatio, 100*v/refV, refV, 100*maxAllocRatio))
				} else {
					report = append(report, fmt.Sprintf("%s: %s %.0f vs baseline %.0f (%.1f%%) ok",
						b.Name, g.unit, v, refV, 100*v/refV))
				}
				continue
			}
			if v < refV*minThroughputRatio {
				regressions++
				report = append(report, fmt.Sprintf("%s: REGRESSION %s %.0f < %.0f (%.1f%% of baseline %.0f, floor %.0f%%)",
					b.Name, g.unit, v, refV*minThroughputRatio, 100*v/refV, refV, 100*minThroughputRatio))
			} else {
				report = append(report, fmt.Sprintf("%s: %s %.0f vs baseline %.0f (%.1f%%) ok",
					b.Name, g.unit, v, refV, 100*v/refV))
			}
		}
		if refEPS, ok := ref.Metrics["events/s"]; ok && refEPS > 0 {
			if eps, ok := b.Metrics["events/s"]; ok {
				report = append(report, fmt.Sprintf("%s: events/s %.0f vs baseline %.0f (%.1f%%) informational",
					b.Name, eps, refEPS, 100*eps/refEPS))
			}
		}
		// pJ/instr is the modeled DRAM energy per simulated instruction —
		// a property of the energy model, not the host, so it is never
		// gated; baselines captured before the energy model simply lack it.
		if refE, ok := ref.Metrics["pJ/instr"]; ok && refE > 0 {
			if e, ok := b.Metrics["pJ/instr"]; ok {
				report = append(report, fmt.Sprintf("%s: pJ/instr %.1f vs baseline %.1f informational",
					b.Name, e, refE))
			}
		}
	}
	if matched == 0 {
		regressions++
		report = append(report, "no benchmarks matched the baseline (did the bench run fail?)")
	}
	return report, regressions
}

// parseBenchLine parses "BenchmarkName-8  3  123 ns/op  4 B/op ..." into
// a benchmark record; reports false for lines that don't parse (e.g.
// "BenchmarkX ... FAIL").
func parseBenchLine(line string) (benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return benchmark{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return benchmark{}, false
	}
	b := benchmark{
		Name:       gomaxprocsSuffix.ReplaceAllString(f[0], ""),
		Iterations: iters,
		Metrics:    map[string]float64{},
	}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return benchmark{}, false
		}
		b.Metrics[f[i+1]] = v
	}
	return b, len(b.Metrics) > 0
}
