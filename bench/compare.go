package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json the comparison reads: each
// end-to-end metric's direction and the share of the baseline median by
// which it may worsen.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runCompare prints, for every workload and end-to-end metric, each
// side's median and quartiles over its untraced runs, and a verdict:
//
//   - unresolved: either side's quartile spread (as a share of its median)
//     is wider than the bound, unless every run of B reads better than
//     every run of A;
//   - worse-than-bound: B's median is worse than A's by more than the
//     bound;
//   - within: otherwise.
//
// It returns 1 when any pairing is worse-than-bound.
func runCompare(specPath, pathA, pathB string, stdout io.Writer) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	a, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "%-17s %-12s %-36s %-36s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "bound", "verdict")
	for _, w := range workloadNames() {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, w, m.Name), values(b, w, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			higher := m.Better == "higher"
			qa, qb := quartiles(va), quartiles(vb)
			change := (qb[1] - qa[1]) / qa[1]
			worse := change
			if higher {
				worse = -change
			}
			verdict := "within"
			spread := max((qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1])
			switch {
			case spread > m.Bound && !allBetter(va, vb, higher):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse-than-bound"
				code = 1
			}
			fmt.Fprintf(stdout, "%-17s %-12s %-36s %-36s %+7.1f%% %5.0f%%  %s\n", w, m.Name,
				side(qa, len(va)), side(qb, len(vb)), change*100, m.Bound*100, verdict)
		}
	}
	return code
}

func side(q [3]float64, n int) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q[1], q[0], q[2], n)
}

// values collects one metric of one workload over the untraced runs.
func values(recs []record, workload, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// allBetter reports whether every value of b reads better than every
// value of a.
func allBetter(a, b []float64, higherBetter bool) bool {
	for _, x := range a {
		for _, y := range b {
			if (higherBetter && y <= x) || (!higherBetter && y >= x) {
				return false
			}
		}
	}
	return true
}
