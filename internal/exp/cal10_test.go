package exp

import (
	"os"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
)

func TestCalibration10M(t *testing.T) {
	if os.Getenv("CALIBRATE") != "1" {
		t.Skip("set CALIBRATE=1 to run")
	}
	cfg := config.Scaled()
	cfg.InstrPerCore = 10_000_000
	s := NewSession(cfg)
	for _, name := range []string{"astar", "cactusADM", "GemsFDTD", "lbm", "leslie3d", "libquantum", "mcf", "milc", "omnetpp", "soplex"} {
		start := time.Now()
		run := func(d core.Design) *Result {
			res, err := s.Cached(cfg, d, []string{name})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		base, das := run(core.Standard), run(core.DAS)
		imp, impSAS := das.Improvement(base), run(core.SAS).Improvement(base)
		impFS, impFM := run(core.FS).Improvement(base), run(core.DASFM).Improvement(base)
		rb, fast, slow := das.Access.Fractions()
		t.Logf("%-11s wall=%v IPC=%.2f MPKI=%4.1f | DAS %+6.2f%% FM %+6.2f%% SAS %+6.2f%% FS %+6.2f%% | PPKM=%5.1f rb/f/s=%.2f/%.2f/%.2f tag=%.2f",
			name, time.Since(start).Round(time.Second), base.PerCore[0].IPC, base.PerCore[0].MPKI,
			imp, impFM, impSAS, impFS, das.PerCore[0].PPKM, rb, fast, slow, das.TagHitRatio)
	}
}
