package exp

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
)

// tinyConfig returns a configuration small enough for unit tests: 64 MB
// of memory, short episodes.
func tinyConfig() config.Config {
	c := config.Scaled()
	c.RowsPerBank = 256 // 64 MB
	c.InstrPerCore = 200_000
	c.TagCacheKB = 4
	return c
}

func TestSmokeStandard(t *testing.T) {
	cfg := tinyConfig()
	sys, prof, err := Build(cfg, core.Standard, []string{"mcf"}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PerCore[0].IPC <= 0 {
		t.Fatalf("IPC not positive: %+v", res.PerCore[0])
	}
	if res.PerCore[0].MPKI <= 0 {
		t.Fatalf("expected LLC misses for mcf, got MPKI %v", res.PerCore[0].MPKI)
	}
	if prof.Rows() == 0 {
		t.Fatal("profile recorded no rows")
	}
	if res.Access.Slow == 0 {
		t.Fatal("standard DRAM should serve slow-level opens")
	}
	if res.Access.Fast != 0 {
		t.Fatal("standard DRAM must not touch fast subarrays")
	}
	t.Logf("standard: IPC=%.3f MPKI=%.1f footprint=%.1fMB events=%d simNS=%.0f",
		res.PerCore[0].IPC, res.PerCore[0].MPKI, res.PerCore[0].FootprintMB, res.Events, res.SimulatedNS)
}

func TestSmokeAllDesigns(t *testing.T) {
	cfg := tinyConfig()
	s := NewSession(cfg)
	base, err := s.Baseline([]string{"mcf"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range core.AllDesigns()[1:] {
		res, err := s.Cached(cfg, d, []string{"mcf"})
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		t.Logf("%-14s IPC=%.3f improvement=%+.2f%% promotions=%d tagHit=%.2f",
			d, res.PerCore[0].IPC, res.Improvement(base), res.Promotions, res.TagHitRatio)
		if res.PerCore[0].IPC <= 0 {
			t.Fatalf("%v: non-positive IPC", d)
		}
	}
}
