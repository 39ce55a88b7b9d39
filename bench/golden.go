package main

import (
	"bufio"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// goldenFS holds the output digests recorded on the default seed, one
// file per scale: workload -> output key -> FNV-1a digest.
//
//go:embed testdata/golden-*.json
var goldenFS embed.FS

type goldens map[string]map[string]string

func loadGoldens(scale string) (goldens, error) {
	data, err := goldenFS.ReadFile("testdata/golden-" + scale + ".json")
	if err != nil {
		return nil, err
	}
	var g goldens
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden-%s.json: %w", scale, err)
	}
	return g, nil
}

// checkDigests compares one pass's (or one burst's) output digests to a
// reference set and returns a description of every difference.
func checkDigests(got, want map[string]string, what string) []string {
	var diffs []string
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			diffs = append(diffs, fmt.Sprintf("%s: %s digest %q, want %q", what, k, got[k], want[k]))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: output %s has no reference digest", what, k))
		}
	}
	return diffs
}

// referenceDigests returns what a run's outputs must match: the golden on
// the default seed, otherwise nil (the run then checks every pass against
// its own first pass).
func referenceDigests(o options) (map[string]string, error) {
	if o.seed != defaultSeed || o.update {
		return nil, nil
	}
	g, err := loadGoldens(o.scale)
	if err != nil {
		return nil, err
	}
	want, ok := g[o.workload]
	if !ok {
		return nil, fmt.Errorf("no %s golden for %s (record one with -update)", o.scale, o.workload)
	}
	return want, nil
}

// goldenDir is where -update writes the goldens, relative to the
// repository root the benchmark runs from.
const goldenDir = "bench/testdata"

// writeGolden rewrites one workload's entry of goldenDir/golden-<scale>.json.
func writeGolden(scale, workload string, digests map[string]string) error {
	g, err := loadGoldens(scale)
	if err != nil {
		g = goldens{}
	}
	g[workload] = digests
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(goldenDir, "golden-"+scale+".json"), append(data, '\n'), 0o644)
}

// record is one line of an -out file.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
