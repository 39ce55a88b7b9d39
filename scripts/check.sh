#!/bin/sh
# check.sh is the tier-1+ gate: everything the repo's own tests require
# (build + tests) plus the race detector, the engine determinism
# cross-checks, fuzz and benchmark smokes, and a short fault-injection
# run proving the DAS management path degrades gracefully end to end.
# CI and pre-merge runs should pass this, not just `go test ./...`.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet"
go vet ./...
# The full-length golden hides behind a build tag; vet it so it keeps
# compiling against the figure API.
go vet -tags golden_full ./internal/exp

echo "== gofmt"
# Every tracked Go file (the nested bench/ module's too) must already be
# gofmt-clean: gofmt -l lists the files it would rewrite.
unformatted=$(gofmt -l $(git ls-files '*.go') </dev/null)
if [ -n "$unformatted" ]; then
    echo "gofmt would rewrite:"
    echo "$unformatted"
    exit 1
fi

echo "== go build"
go build ./...

echo "== go test -race"
# Full suite under the race detector; this is also the concurrency gate
# for the exp observer attach/flush paths, the machine pool's concurrent
# checkout cycle, and the dasserve core (internal/serve: singleflight,
# shedding, drain, panic isolation). The explicit timeout is headroom
# over go test's 10m default: the exp byte-identity suites near it
# under the race detector on a slow box, and a timeout there would
# read as a test failure.
go test -race -timeout 30m ./...

echo "== controller cross-check: per-cycle polling scheduler (-tags mc_polltick)"
# The pre-rewrite polling scheduler is kept behind a build tag as the
# next-event scheduler's reference; the controller and experiment
# suites (including TestGoldenCommandStreams, whose committed digests
# were generated under the default next-event build) must pass against
# it unchanged — that is the identical-command-stream proof.
go test -tags mc_polltick ./internal/mc ./internal/exp

echo "== figure determinism: next-event vs polling controller"
# Same figure, byte-compared across both controller schedulers: the
# command stream — not the tick schedule — must decide simulation
# results.
tmp_quad=$(mktemp) tmp_ref=$(mktemp) tmp_obs=$(mktemp) tmp_sink=$(mktemp)
trap 'rm -f "$tmp_quad" "$tmp_ref" "$tmp_obs" "$tmp_sink"' EXIT
go run ./cmd/dasbench -fig 7a -benchmarks mcf,soplex -instr 200000 >"$tmp_quad" 2>/dev/null
go run -tags mc_polltick ./cmd/dasbench -fig 7a -benchmarks mcf,soplex -instr 200000 >"$tmp_ref" 2>/dev/null
cmp "$tmp_quad" "$tmp_ref"

echo "== figure determinism: serial vs parallel session"
# A session runs up to GOMAXPROCS of a figure's runs at once (the
# Session.Parallelism default), each on its own engine and pooled
# machine, and draws the figure in grid order: the same figures rendered
# one run at a time and four at a time must be byte-equal. That pooled
# machines match fresh builds is gated in process by
# TestPooledRunsByteIdentical and TestPooledFigureBytesMatchFresh.
GOMAXPROCS=1 go run ./cmd/dasbench -fig 7a,7d -benchmarks mcf,soplex -mixes M1 -instr 200000 >"$tmp_ref" 2>/dev/null
GOMAXPROCS=4 go run ./cmd/dasbench -fig 7a,7d -benchmarks mcf,soplex -mixes M1 -instr 200000 >"$tmp_obs" 2>/dev/null
cmp "$tmp_ref" "$tmp_obs"

echo "== telemetry determinism: observed run renders identical figures"
# Same figure with the full telemetry stack enabled (metrics timeline +
# trace export + the -http debug endpoint): the rendered figure must be
# byte-identical to the uninstrumented run, proving observation never
# perturbs simulation. The 0.01 ms epochs put several snapshots on each
# side of warm-up.
go run ./cmd/dasbench -fig 7a -benchmarks mcf,soplex -instr 200000 -http 127.0.0.1:0 \
    -timeline-interval 0.01 -metrics-out "$tmp_sink" -timeline "$tmp_sink.trace" >"$tmp_obs" 2>/dev/null
cmp "$tmp_quad" "$tmp_obs"
test -s "$tmp_sink" && test -s "$tmp_sink.trace"
rm -f "$tmp_sink.trace"

echo "== monotone counters: no timeline counter falls between epochs"
# Every counter counts from its component's Reset and the measurement
# window is a snapshot, not a reset, so in each run no series of the
# timeline CSV above (run,epoch_ns,metric,value) may fall from one epoch
# to the next. Gauges (mc.queue.*, *.mshr_live, *.mshr_pending) and the
# histograms' .mean/.p50/.p99 may fall and are skipped. The run label
# is everything before the last three fields, since labels may be
# quoted and contain commas.
awk -F',' 'NR == 1 { next }
    { m = $(NF-1) }
    m ~ /^mc\.queue\./ || m ~ /\.mshr_(live|pending)$/ || m ~ /\.(mean|p50|p99)$/ { next }
    { run = $0; sub(/,[^,]*,[^,]*,[^,]*$/, "", run); k = run SUBSEP m; v = $NF + 0
      if ((k in last) && v < last[k]) { print run ": " m " fell from " last[k] " to " v; bad = 1 }
      last[k] = v; seen++ }
    END { if (seen == 0) bad = 1; exit bad }' "$tmp_sink" ||
    { echo "metrics timeline: a counter series decreased (or the timeline is empty)"; exit 1; }

echo "== request-trace determinism: sampled tracing renders identical figures"
# Same figure again with the per-request flight recorder sampling 1-in-7
# demand loads: sampling derives from seed+core only (no engine events,
# no RNG draws), so the rendered figure must stay byte-identical and the
# attribution sink must be non-empty.
go run ./cmd/dasbench -fig 7a -benchmarks mcf,soplex -instr 200000 \
    -reqtrace 7 -reqtrace-out "$tmp_sink.req" >"$tmp_obs" 2>/dev/null
cmp "$tmp_quad" "$tmp_obs"
test -s "$tmp_sink.req"

echo "== attribution conservation: latency and energy telescope per run"
# The attribution CSV carries two exact ledgers per traced run. In each,
# the component rows must sum to the total row with integer ==: sum_ns
# compared in picoseconds (it is printed in ns with three decimals, so
# int(x*1000+0.5) recovers the recorded ps) and energy_pj in picojoules.
# The per-request violations and energy_violations counters must both
# be zero. Trailing-field offsets are used because run labels may be
# quoted and contain commas.
awk -F',' 'NR == 1 { next }
    { ps = int($(NF-7) * 1000 + 0.5) }
    $(NF-8) == "total" {
        if (seen && (sum != total || pssum != pstotal)) bad = 1
        if ($(NF-10) + 0 != 0 || $(NF-9) + 0 != 0) bad = 1
        total = $(NF-1) + 0; sum = 0; pstotal = ps; pssum = 0; seen++
        next
    }
    { sum += $(NF-1); pssum += ps }
    END { if (seen == 0 || sum != total || pssum != pstotal) bad = 1; exit bad }' "$tmp_sink.req" ||
    { echo "reqtrace: component sum_ns or energy_pj rows do not sum to total (or violations > 0)"; exit 1; }
rm -f "$tmp_sink.req"

echo "== energy report (dasbench -fig energy): perf-per-watt across all designs"
# The perf-per-watt report must regenerate the committed
# results_energy.txt byte for byte (the `make energy` command), and
# rendering it after a figure must leave that figure's bytes
# untouched — energy metering is pure accounting, never a timing input.
go run ./cmd/dasbench -fig energy -benchmarks mcf,soplex -instr 200000 -out "$tmp_ref" >/dev/null 2>&1
grep -q "Perf/watt: instructions per microjoule" "$tmp_ref"
cmp "$tmp_ref" results_energy.txt
go run ./cmd/dasbench -fig 7a,energy -benchmarks mcf,soplex -instr 200000 >"$tmp_obs" 2>/dev/null
head -n "$(wc -l <"$tmp_quad")" "$tmp_obs" | cmp - "$tmp_quad"
grep -q "Perf/watt: instructions per microjoule" "$tmp_obs"

echo "== explain report (dasbench -explain standard,das)"
# Full attribution pipeline end to end: Explain fails if any traced
# request violates the components-sum-to-total invariant, so a clean
# exit is the invariant check over real Standard and DAS runs. The
# report must regenerate the committed results_explain.txt byte for
# byte (the `make explain` command).
go run ./cmd/dasbench -explain standard,das -benchmarks mcf,soplex -instr 200000 -out "$tmp_ref" >/dev/null 2>&1
cmp "$tmp_ref" results_explain.txt

echo "== sweep and multi-programmed results (make sweeps, make multi)"
# The committed results_sweeps.txt and results_multi.txt must regenerate
# byte for byte from their make targets' commands. They hold the runs
# the run memo keys by config (the DAS sweep points) and the 4-core SAS
# and CHARM runs that read the static-assignment memo.
go run ./cmd/dasbench -fig 8,9a,9c,9b,9d -benchmarks GemsFDTD,mcf,soplex -instr 3000000 -out "$tmp_ref" >/dev/null 2>&1
cmp "$tmp_ref" results_sweeps.txt
go run ./cmd/dasbench -fig 7d,7e,7f -mixes M1,M8 -instr 4000000 -out "$tmp_ref" >/dev/null 2>&1
cmp "$tmp_ref" results_multi.txt

echo "== fuzz smoke (10s per target)"
go test -run '^$' -fuzz FuzzScheduleOrder -fuzztime 10s ./internal/sim
go test -run '^$' -fuzz FuzzConfigJSON -fuzztime 10s ./internal/config
go test -run '^$' -fuzz FuzzCanonicalize -fuzztime 10s ./internal/serve
go test -run '^$' -fuzz FuzzEarliestWalk -fuzztime 10s ./internal/dram

echo "== benchmark smoke (1 iteration per benchmark)"
go test -run '^$' -bench . -benchtime 1x ./... >/dev/null

echo "== repository benchmark smoke (bench module tests)"
# bench/ is a nested module (repro/bench), so the root go test ./...
# never builds it. Its smoke suite runs every workload briefly against
# the library API it depends on (exp.Build, exp.NewSession,
# exp.NewSystemPool, exp.Result, the component constructors), so a
# signature change there fails here instead of only when the benchmark
# runs.
(cd bench && go test ./...)

echo "== bench regression gate (benchjson -compare vs BENCH_baseline.json)"
# BenchmarkFig7a and its pooled-sweep variant at the baseline's
# iteration count, gated against the checked-in acceptance numbers:
# wall ns/op may not rise more than 10% and instr/s may not drop more
# than 10% (both skipped automatically on a different CPU); allocs/op
# and B/op may not rise more than 10% (gated everywhere — these pin the
# machine pool and the request-slot recycling: a Reset path that
# silently rebuilt, or a recycler that stopped recycling, fails here on
# any machine). events/s is reported but informational — next-event
# scheduling changes the event count per simulated instruction.
go test -run '^$' -bench '^BenchmarkFig7a' -benchmem -benchtime 3x . |
    go run ./cmd/benchjson -compare BENCH_baseline.json

echo "== profile-pass gate (benchjson -compare vs BENCH_profile.json)"
# BenchmarkProfilePass is the static designs' row-profile pass alone
# (mcf, 19M generated instructions on the Scaled config), gated against
# the post numbers in BENCH_profile.json: ns/op may not rise more than
# 10% on the CPU that file was captured on, and allocs/op and B/op may
# not rise more than 10% on any CPU.
go test -run '^$' -bench '^BenchmarkProfilePass$' -benchmem -benchtime 5x ./internal/exp |
    go run ./cmd/benchjson -compare BENCH_profile.json

echo "== machine-footprint gate (benchjson -compare vs BENCH_footprint.json)"
# BenchmarkBuildMachine builds and frees one 1-core and one 4-core DAS
# machine on the Scaled config per op, the allocation a pool miss pays;
# its B/op tracks what a pooled machine keeps (8-byte cache lines, the
# flat tag cache). BENCH_footprint.json records B/op and allocs/op
# only, so both may not rise more than 10% on any CPU; its note gives
# ns/op, which the collector and page faults spread by about ±20%
# between rounds on a shared host.
go test -run '^$' -bench '^BenchmarkBuildMachine$' -benchmem -benchtime 20x ./internal/exp |
    go run ./cmd/benchjson -compare BENCH_footprint.json

echo "== fault-sweep smoke (dasbench -fig faults)"
# Tiny instruction budget: exercises every sweep point — including the
# rate-1.0 full-degradation endpoints — with invariants and the watchdog
# armed, in well under a minute.
go run ./cmd/dasbench -fig faults -benchmarks mcf -instr 200000 >/dev/null

echo "== server smoke (dasserve + dasload: dedup, exactness, streaming, drain)"
# Start dasserve on an ephemeral port, fire a duplicate-heavy dasload
# burst, then assert the robustness contract end to end: at least one
# request was served from the exact-result cache (-assert-hits against
# /jobs), repeated requests return byte-identical bodies (-verify), a
# concurrent SSE subscription to a real job yields at least one
# monotonic progress frame and closes cleanly (-follow), the live
# /metrics endpoint passes the self-contained exposition validator
# (-check-metrics), and SIGTERM drains cleanly (dasserve exits 0). The
# server binary is built with the race detector so the smoke also
# covers the worker pool and the SSE subscriber paths under real HTTP
# traffic.
go build -race -o "$tmp_sink.serve" ./cmd/dasserve
go build -o "$tmp_sink.load" ./cmd/dasload
rm -f "$tmp_sink.addr"
"$tmp_sink.serve" -addr 127.0.0.1:0 -addr-file "$tmp_sink.addr" \
    -instr 200000 -workers 2 2>/dev/null &
serve_pid=$!
for _ in $(seq 100); do test -s "$tmp_sink.addr" && break; sleep 0.1; done
test -s "$tmp_sink.addr"
"$tmp_sink.load" -addr @"$tmp_sink.addr" -n 12 -rate 50 -ramp 0 \
    -verify -assert-hits 1 -follow -follow-min 1 -check-metrics \
    '{"design":"das","benchmarks":["mcf"]}' '{"figure":"table2"}'
kill -TERM "$serve_pid"
wait "$serve_pid"
rm -f "$tmp_sink.serve" "$tmp_sink.load" "$tmp_sink.addr" "$tmp_sink.cfg"

echo "check.sh: all gates passed"
