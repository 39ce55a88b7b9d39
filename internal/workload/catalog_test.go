package workload

import (
	"slices"
	"strings"
	"testing"
)

func TestCatalogProfilesValid(t *testing.T) {
	names := make(map[string]bool)
	for _, p := range Catalog() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if names[p.Name] {
			t.Errorf("duplicate benchmark %s", p.Name)
		}
		names[p.Name] = true
	}
	if len(names) != 10 {
		t.Fatalf("catalog has %d benchmarks, Table 2 lists 10", len(names))
	}
}

func TestCatalogMatchesTable2(t *testing.T) {
	want := []string{"astar", "cactusADM", "GemsFDTD", "lbm", "leslie3d",
		"libquantum", "mcf", "milc", "omnetpp", "soplex"}
	got := AllSingleNames()
	if len(got) != len(want) {
		t.Fatalf("got %d names", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("benchmark %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestMixesMatchTable2(t *testing.T) {
	mixes := Mixes()
	if len(mixes) != 8 {
		t.Fatalf("%d mixes, Table 2 lists 8", len(mixes))
	}
	// Spot-check Table 2 contents.
	m1, err := LookupMix("M1")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"cactusADM", "mcf", "milc", "omnetpp"}
	for i, b := range want {
		if m1.Benchmarks[i] != b {
			t.Fatalf("M1 = %v, want %v", m1.Benchmarks, want)
		}
	}
	// Every mix references catalog benchmarks and has 4 entries.
	for _, m := range mixes {
		if len(m.Benchmarks) != 4 {
			t.Errorf("%s has %d benchmarks, want 4", m.Name, len(m.Benchmarks))
		}
		for _, b := range m.Benchmarks {
			if _, err := Lookup(b); err != nil {
				t.Errorf("%s references unknown benchmark %s", m.Name, b)
			}
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nonexistent"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := LookupMix("M99"); err == nil {
		t.Fatal("unknown mix accepted")
	}
}

// TestNormalizeNames: benchmark and mix lists are trimmed, keep their
// order (the core assignment) and fail on the first unknown name.
func TestNormalizeNames(t *testing.T) {
	if got, err := NormalizeBenchmarks([]string{" soplex", "mcf "}); err != nil || !slices.Equal(got, []string{"soplex", "mcf"}) {
		t.Errorf("NormalizeBenchmarks = %q, %v", got, err)
	}
	if got, err := NormalizeMixes([]string{"M8", " M1"}); err != nil || !slices.Equal(got, []string{"M8", "M1"}) {
		t.Errorf("NormalizeMixes = %q, %v", got, err)
	}
	if got, err := NormalizeBenchmarks(nil); got != nil || err != nil {
		t.Errorf("NormalizeBenchmarks(nil) = %q, %v", got, err)
	}
	if _, err := NormalizeBenchmarks([]string{"mcf", " foo"}); err == nil || !strings.Contains(err.Error(), `"foo"`) {
		t.Errorf("unknown benchmark: err = %v, want one naming \"foo\"", err)
	}
	if _, err := NormalizeMixes([]string{"M1", "m8"}); err == nil || !strings.Contains(err.Error(), `"m8"`) {
		t.Errorf("unknown mix: err = %v, want one naming \"m8\"", err)
	}
}

func TestCatalogGeneratorsRun(t *testing.T) {
	// Every catalog profile must generate cleanly over a region the size
	// the scaled experiments use.
	region := Region{Base: 0, Bytes: 1 << 30}
	for _, p := range Catalog() {
		p.FootprintBytes /= 8 // episode scaling
		gen, err := NewSynthetic(p, region, 42)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		var in Instr
		memOps := 0
		for i := 0; i < 50000; i++ {
			gen.Next(&in)
			if in.Mem {
				memOps++
				if !region.Contains(in.Addr) {
					t.Fatalf("%s: address out of region", p.Name)
				}
			}
		}
		if memOps == 0 {
			t.Fatalf("%s produced no memory accesses", p.Name)
		}
	}
}
