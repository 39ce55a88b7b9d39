// Multiprogram: run a four-core multi-programmed mix (Table 2's M5) on
// every memory design and print per-core and system-level results, the
// workflow behind Figures 7d-7f. (M5's summed hot sets fit the scaled
// fast level; heavy mixes like M1 exercise the capacity-contention
// regime discussed in EXPERIMENTS.md.)
package main

import (
	"fmt"
	"log"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)

	mix, err := workload.LookupMix("M5")
	if err != nil {
		log.Fatal(err)
	}
	cfg := config.Scaled()
	cfg.Cores = 4
	cfg.InstrPerCore = 2_000_000

	session := exp.NewSession(cfg)
	baseline, err := session.Baseline(mix.Benchmarks)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("mix %s: %v\n\n", mix.Name, mix.Benchmarks)
	fmt.Println("baseline (standard DRAM) per-core:")
	for _, c := range baseline.PerCore {
		fmt.Printf("  core %-11s IPC %.3f  MPKI %5.1f  footprint %4.0f MB\n",
			c.Benchmark, c.IPC, c.MPKI, c.FootprintMB)
	}

	fmt.Println("\ndesign comparison:")
	for _, design := range []core.Design{core.SAS, core.CHARM, core.DAS, core.DASFM, core.FS} {
		res, err := session.Cached(cfg, design, mix.Benchmarks)
		if err != nil {
			log.Fatal(err)
		}
		rb, fast, slow := res.Access.Fractions()
		fmt.Printf("  %-14s %+6.2f%%  (rb %.0f%% / fast %.0f%% / slow %.0f%%, %d promotions)\n",
			design, res.Improvement(baseline), rb*100, fast*100, slow*100, res.Promotions)
	}
}
