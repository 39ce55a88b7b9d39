# Tier-1 gate (what the roadmap requires to stay green):
#   make test
# Tier-1+ gate (pre-merge: adds vet, the race detector, determinism
# cross-checks, fuzz/bench smokes, and a fault-injection run of the
# management path):
#   make check
# Benchmark suite (engine micro-benchmarks + per-figure miniatures);
# writes BENCH_latest.json for comparison against BENCH_baseline.json:
#   make bench
# Regression gate alone (also part of make check): BenchmarkFig7a vs
# the checked-in baseline, failing on >10% wall ns/op rise, >10%
# instr/s drop, or >10% allocs/op rise:
#   make bench-compare
# Cross-design attribution report (where each request's nanoseconds go
# and why standard != das); regenerates the committed results_explain.txt:
#   make explain
# Perf-per-watt report (instructions/uJ, EDP and the pJ/instr energy
# decomposition across all six designs); regenerates the committed
# results_energy.txt:
#   make energy
# Sweep figures (Figs 8 and 9a-9d) and multi-programmed figures (Figs
# 7d-7f) at their committed lengths; regenerate the committed
# results_sweeps.txt and results_multi.txt:
#   make sweeps
#   make multi

GO ?= go

.PHONY: build test check vet bench bench-compare explain energy sweeps multi clean

build:
	$(GO) build ./...

test:
	$(GO) build ./... && $(GO) test ./...

vet:
	$(GO) vet ./...

check:
	sh scripts/check.sh

bench:
	{ $(GO) test -run '^$$' -bench '^BenchmarkEngine' -benchmem -benchtime 200000x ./internal/sim ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkFig' -benchmem -benchtime 3x . ; } \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -out BENCH_latest.json

bench-compare:
	$(GO) test -run '^$$' -bench '^BenchmarkFig7a$$' -benchmem -benchtime 3x . \
		| $(GO) run ./cmd/benchjson -compare BENCH_baseline.json

explain:
	$(GO) run ./cmd/dasbench -explain standard,das -benchmarks mcf,soplex \
		-instr 200000 -out results_explain.txt

energy:
	$(GO) run ./cmd/dasbench -fig energy -benchmarks mcf,soplex \
		-instr 200000 -out results_energy.txt

sweeps:
	$(GO) run ./cmd/dasbench -fig 8,9a,9c,9b,9d -benchmarks GemsFDTD,mcf,soplex \
		-instr 3000000 -out results_sweeps.txt

multi:
	$(GO) run ./cmd/dasbench -fig 7d,7e,7f -mixes M1,M8 \
		-instr 4000000 -out results_multi.txt

clean:
	$(GO) clean ./...
