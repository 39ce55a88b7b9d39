// Quickstart: simulate one benchmark on standard homogeneous DRAM and on
// DAS-DRAM, and print the performance improvement — the minimal use of
// the experiment API.
package main

import (
	"fmt"
	"log"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
)

func main() {
	log.SetFlags(0)

	// Episode-scaled Table 1 system (1 GB DRAM, 4 MB LLC, 1/8 fast
	// level); shorten the run so the example finishes in seconds.
	cfg := config.Scaled()
	cfg.InstrPerCore = 2_000_000

	session := exp.NewSession(cfg)
	benchmark := []string{"mcf"}

	baseline, err := session.Baseline(benchmark)
	if err != nil {
		log.Fatal(err)
	}
	das, err := session.Cached(cfg, core.DAS, benchmark)
	if err != nil {
		log.Fatal(err)
	}
	improvement := das.Improvement(baseline)

	fmt.Printf("benchmark:            %s\n", benchmark[0])
	fmt.Printf("standard DRAM IPC:    %.3f (MPKI %.1f)\n",
		baseline.PerCore[0].IPC, baseline.PerCore[0].MPKI)
	fmt.Printf("DAS-DRAM IPC:         %.3f\n", das.PerCore[0].IPC)
	fmt.Printf("improvement:          %+.2f%%\n", improvement)
	fmt.Printf("row promotions:       %d (%.1f per kilo-miss)\n",
		das.Promotions, das.PerCore[0].PPKM)
	rb, fast, slow := das.Access.Fractions()
	fmt.Printf("access locations:     %.1f%% row buffer, %.1f%% fast, %.1f%% slow\n",
		rb*100, fast*100, slow*100)
	fmt.Printf("tag cache hit ratio:  %.1f%%\n", das.TagHitRatio*100)
}
