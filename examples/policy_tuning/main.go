// Policy tuning: sweep the DAS-DRAM management knobs — promotion filter
// threshold and fast-level replacement policy — on one benchmark,
// reproducing in miniature the trade-off studies of Sections 7.3/7.6.
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

	cfg := config.Scaled()
	cfg.InstrPerCore = 2_000_000
	benchmark := []string{"GemsFDTD"}
	session := exp.NewSession(cfg)
	baseline, err := session.Baseline(benchmark)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== promotion filter thresholds (Section 7.3) ==")
	for _, threshold := range []int{1, 2, 4, 8} {
		variant := cfg
		variant.FilterThreshold = threshold
		res, err := session.Cached(variant, core.DAS, benchmark)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("threshold %d: %+6.2f%%  promotions/access %.3f%%  fast-level miss ratio %.1f%%  filtered %d\n",
			threshold, res.Improvement(baseline), res.PromPerAccess*100,
			res.Access.FastLevelMissRatio()*100, res.FilterRejects)
	}

	fmt.Println("\n== replacement policies (Section 7.6) ==")
	for _, policy := range []string{"lru", "random", "sequential", "counter"} {
		variant := cfg
		variant.Replacement = policy
		res, err := session.Cached(variant, core.DAS, benchmark)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s: %+6.2f%%\n", policy, res.Improvement(baseline))
	}
}
