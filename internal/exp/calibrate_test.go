package exp

import (
	"os"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
)

// TestCalibration prints per-benchmark behaviour at experiment scale.
// It is a tuning tool, skipped unless CALIBRATE=1.
func TestCalibration(t *testing.T) {
	if os.Getenv("CALIBRATE") != "1" {
		t.Skip("set CALIBRATE=1 to run the calibration sweep")
	}
	cfg := config.Scaled()
	cfg.InstrPerCore = 2_000_000
	s := NewSession(cfg)
	names := []string{"astar", "cactusADM", "GemsFDTD", "lbm", "leslie3d",
		"libquantum", "mcf", "milc", "omnetpp", "soplex"}
	for _, name := range names {
		run := func(d core.Design) *Result {
			res, err := s.Cached(cfg, d, []string{name})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		base, das := run(core.Standard), run(core.DAS)
		imp, impFS, impSAS := das.Improvement(base), run(core.FS).Improvement(base), run(core.SAS).Improvement(base)
		rb, fast, slow := das.Access.Fractions()
		t.Logf("%-11s IPC=%.2f MPKI=%5.1f fp=%5.0fMB | DAS %+6.2f%% SAS %+6.2f%% FS %+6.2f%% | PPKM=%5.1f rb/f/s=%.2f/%.2f/%.2f tag=%.2f",
			name, base.PerCore[0].IPC, base.PerCore[0].MPKI, base.PerCore[0].FootprintMB,
			imp, impSAS, impFS, das.PerCore[0].PPKM, rb, fast, slow, das.TagHitRatio)
	}
}
