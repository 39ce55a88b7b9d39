package workload

import (
	"fmt"
	"strings"
)

// Catalog returns the ten single-programmed workload profiles of Table 2.
//
// Footprints are nominal full-scale (8 GB system) values; the experiment
// harness scales them with simulated memory capacity so short episodes
// exercise the same footprint-to-fast-level pressure as the paper's
// 100M-instruction samples (see DESIGN.md). PhaseInstr is expressed per
// 100M instructions and scaled with the episode length the same way.
//
// Calibration targets, per benchmark, are (a) the published MPKI of the
// SPEC CPU2006 original on a 4 MB LLC, (b) a DRAM-visible access mix
// whose hot set exceeds the LLC but fits the fast level within a phase,
// and (c) phase drift whose union over a run exceeds the fast level, the
// program behaviour Section 7.1 credits for dynamic beating static.
func Catalog() []Profile {
	return []Profile{
		{
			Name: "astar", MemFraction: 0.25, WriteFraction: 0.20,
			FootprintBytes: 1280 << 20,
			LocalWeight:    0.984, HotWeight: 0.0095, ChaseWeight: 0.0005,
			HotFraction: 0.125, HotSkew: 1,
			PhaseInstr: 240_000_000, PhaseShiftFraction: 0.125, PhaseOffsetInstr: 230_000_000,
		},
		{
			Name: "cactusADM", MemFraction: 0.30, WriteFraction: 0.25,
			FootprintBytes: 1600 << 20,
			LocalWeight:    0.980, HotWeight: 0.010, StrideWeight: 0.0045,
			StrideBytes: 192, HotFraction: 0.125, HotSkew: 1,
			PhaseInstr: 240_000_000, PhaseShiftFraction: 0.125, PhaseOffsetInstr: 230_000_000,
		},
		{
			Name: "GemsFDTD", MemFraction: 0.35, WriteFraction: 0.30,
			FootprintBytes: 2000 << 20,
			LocalWeight:    0.925, HotWeight: 0.020, StrideWeight: 0.0165, StreamWeight: 0.0295,
			StreamStep: 16, StrideBytes: 128, HotFraction: 0.125, HotSkew: 1,
			PhaseInstr: 240_000_000, PhaseShiftFraction: 0.125, PhaseOffsetInstr: 230_000_000,
		},
		{
			Name: "lbm", MemFraction: 0.40, WriteFraction: 0.45,
			FootprintBytes: 1280 << 20,
			LocalWeight:    0.638, StreamWeight: 0.323, HotWeight: 0.027,
			StreamStep: 8, HotFraction: 0.125, HotSkew: 1,
			PhaseInstr: 240_000_000, PhaseShiftFraction: 0.125, PhaseOffsetInstr: 230_000_000,
		},
		{
			Name: "leslie3d", MemFraction: 0.33, WriteFraction: 0.30,
			FootprintBytes: 1200 << 20,
			LocalWeight:    0.948, HotWeight: 0.028, StrideWeight: 0.012,
			StrideBytes: 256, HotFraction: 0.125, HotSkew: 1,
			PhaseInstr: 240_000_000, PhaseShiftFraction: 0.125, PhaseOffsetInstr: 230_000_000,
		},
		{
			Name: "libquantum", MemFraction: 0.30, WriteFraction: 0.25,
			FootprintBytes: 96 << 20,
			LocalWeight:    0.330, StreamWeight: 0.655, StrideWeight: 0.015,
			StreamStep: 8, StrideBytes: 16*1024 + 192,
			PhaseInstr: 0,
		},
		{
			Name: "mcf", MemFraction: 0.35, WriteFraction: 0.15,
			FootprintBytes: 2400 << 20,
			LocalWeight:    0.897, HotWeight: 0.082, ChaseWeight: 0.0005,
			HotFraction: 0.125, HotSkew: 1,
			PhaseInstr: 240_000_000, PhaseShiftFraction: 0.125, PhaseOffsetInstr: 230_000_000,
		},
		{
			Name: "milc", MemFraction: 0.32, WriteFraction: 0.30,
			FootprintBytes: 2000 << 20,
			LocalWeight:    0.910, HotWeight: 0.062, ChaseWeight: 0.0010,
			HotFraction: 0.125, HotSkew: 1,
			PhaseInstr: 240_000_000, PhaseShiftFraction: 0.125, PhaseOffsetInstr: 230_000_000,
		},
		{
			Name: "omnetpp", MemFraction: 0.30, WriteFraction: 0.30,
			FootprintBytes: 1280 << 20,
			LocalWeight:    0.914, HotWeight: 0.057, ChaseWeight: 0.0010,
			HotFraction: 0.125, HotSkew: 1,
			PhaseInstr: 240_000_000, PhaseShiftFraction: 0.125, PhaseOffsetInstr: 230_000_000,
		},
		{
			Name: "soplex", MemFraction: 0.33, WriteFraction: 0.20,
			FootprintBytes: 1600 << 20,
			LocalWeight:    0.904, HotWeight: 0.055, StrideWeight: 0.016,
			StrideBytes: 640, HotFraction: 0.125, HotSkew: 1,
			PhaseInstr: 240_000_000, PhaseShiftFraction: 0.125, PhaseOffsetInstr: 230_000_000,
		},
	}
}

// Lookup returns the catalog profile with the given name.
func Lookup(name string) (Profile, error) {
	for _, p := range Catalog() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Mix is a named multi-programmed workload set (Table 2, M1-M8).
type Mix struct {
	Name       string
	Benchmarks []string
}

// Mixes returns the eight multi-programmed sets of Table 2.
func Mixes() []Mix {
	return []Mix{
		{"M1", []string{"cactusADM", "mcf", "milc", "omnetpp"}},
		{"M2", []string{"cactusADM", "GemsFDTD", "lbm", "mcf"}},
		{"M3", []string{"cactusADM", "lbm", "leslie3d", "omnetpp"}},
		{"M4", []string{"astar", "cactusADM", "lbm", "milc"}},
		{"M5", []string{"astar", "libquantum", "omnetpp", "soplex"}},
		{"M6", []string{"GemsFDTD", "leslie3d", "libquantum", "soplex"}},
		{"M7", []string{"leslie3d", "libquantum", "milc", "soplex"}},
		{"M8", []string{"lbm", "libquantum", "mcf", "soplex"}},
	}
}

// LookupMix returns the mix with the given name.
func LookupMix(name string) (Mix, error) {
	for _, m := range Mixes() {
		if m.Name == name {
			return m, nil
		}
	}
	return Mix{}, fmt.Errorf("workload: unknown mix %q", name)
}

// NormalizeBenchmarks trims each benchmark name and checks it against
// the catalog. Order is preserved: it is the core assignment, so
// ["mcf","lbm"] and ["lbm","mcf"] are different simulations. An empty
// list yields nil.
func NormalizeBenchmarks(names []string) ([]string, error) {
	return normalize(names, func(n string) error { _, err := Lookup(n); return err })
}

// NormalizeMixes trims each mix name and checks it against Table 2's
// M1-M8. An empty list yields nil.
func NormalizeMixes(names []string) ([]string, error) {
	return normalize(names, func(n string) error { _, err := LookupMix(n); return err })
}

// normalize trims each name and returns the first lookup error.
func normalize(names []string, lookup func(string) error) ([]string, error) {
	if len(names) == 0 {
		return nil, nil
	}
	out := make([]string, 0, len(names))
	for _, n := range names {
		n = strings.TrimSpace(n)
		if err := lookup(n); err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// AllSingleNames returns the benchmark names in catalog order.
func AllSingleNames() []string {
	ps := Catalog()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}
