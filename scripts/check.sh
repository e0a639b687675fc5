#!/usr/bin/env sh
# check.sh — the full local CI gate. Run from the repository root.
#
#   gofmt      formatting drift fails the gate
#   vet        static analysis
#   build      every package compiles
#   race tests the whole suite under the race detector
#   scrape     the /metrics + /v1/stats consistency tests under -race:
#              concurrent scrapes while predicts relay to the CI
#   swap       the hot-swap/adaptation gates under -race: predicts hammer
#              the server while bundles swap, plus the induced-shift
#              coverage-restoration scenario run twice for byte determinism
#   fuzz seeds the checked-in fuzz corpora (testdata/fuzz/) executed as
#              ordinary tests, no fuzzing engine; use
#              `go test ./internal/serve/ -fuzz FuzzFrames` or
#              `go test ./internal/scenario/ -fuzz FuzzScenarioParse` to
#              explore
#   fleet      the scheduler's concurrent-admission + starvation tests under
#              -race, then regenerate BENCH_fleet.json at two parallelism
#              levels and require all three byte-identical: the committed
#              report is provably reproducible on this machine
#   shuffle    the whole suite once more with randomized test order: no
#              test may depend on a sibling having run first (this pass
#              includes the scenario corpus goldens: every committed
#              regime re-runs at parallelism 1 and 4 and must match its
#              pinned report byte-for-byte)
#   scenario   the corpus golden gate through the shipped binary: the
#              embedded corpus re-runs and byte-compares against the
#              embedded goldens, failing with a regeneration hint
#              (eventhitscenario -corpus -regen) on drift
#   cache      regenerate BENCH_cache.json (the cache epsilon x TTL sweep)
#              at two parallelism levels, byte-identical to the committed
#              artifact
#   cluster    the cluster tier under -race (ring, lease coordinator,
#              remote cache, front proxy, cross-worker shared swap), the
#              BENCH_cluster.json schema + acceptance tests, then
#              regenerate the sweep at two env-construction parallelism
#              levels and byte-compare to the committed artifact — the
#              sweep itself byte-compares the simulated cluster report at
#              1/2/4 workers against single-process fleet.Run
#              (report_identical rows)
#   resilience regenerate BENCH_resilience.json (recall/cost vs CI fault
#              rate through the resilient client's retry, backoff and
#              breaker clock) at two parallelism levels, byte-identical to
#              the committed artifact
#   speed      the predict fast-path gates: the BENCH_speed.json schema and
#              acceptance tests, the deterministic parity block regenerated
#              at two parallelism levels and byte-compared, and a
#              benchstat-style perf gate that times the float vs combined
#              fast hot path and fails if the speedup drops below a
#              machine-independent 1.5x floor
#   cascade    the early-inference ladder under -race, the
#              BENCH_cascade.json schema + acceptance tests (selected point:
#              |REC delta| <= 0.02 at >= 30% compute cut, exit rates summing
#              to 1), then regenerate the sweep at harness parallelism 1 and
#              4 and require both byte-identical to the committed artifact
#
# Every committed artifact is checked by one call to regen (below): the
# regenerating command runs at parallelism 1 and 4, both outputs must be
# byte-identical, and equal to the committed file.
set -eu

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# regen ARTIFACT OUTFLAG CMD...: run CMD with -parallelism 1 and then 4,
# writing its report through OUTFLAG (">" for stdout). Both runs must be
# byte-identical and, unless ARTIFACT is "-", equal to the committed file.
regen() {
    artifact=$1 outflag=$2
    shift 2
    for p in 1 4; do
        if [ "$outflag" = ">" ]; then
            "$@" -parallelism "$p" > "$tmpdir/regen_p$p"
        else
            "$@" -parallelism "$p" "$outflag" "$tmpdir/regen_p$p" >/dev/null
        fi
    done
    cmp "$tmpdir/regen_p1" "$tmpdir/regen_p4"
    if [ "$artifact" != "-" ]; then
        cmp "$tmpdir/regen_p1" "$artifact"
    fi
}

echo "== gofmt =="
fmt_out=$(gofmt -l .)
if [ -n "$fmt_out" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt_out" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== go test -shuffle=on =="
go test -shuffle=on ./...

echo "== metrics scrape under load (race) =="
go test -race ./internal/serve/ -run 'TestStatsConsistentUnderLoad|TestMetricsEndpoint' -count=1
go test -race ./internal/obs/ -run 'TestConcurrentUpdatesAndScrapes' -count=1

echo "== hot swap + online adaptation (race swap-under-load, coverage restoration, determinism) =="
go test -race ./internal/serve/ -run 'TestSwapUnderConcurrentPredictLoad|TestAdaptationRestoresCoverage|TestAdaptationDeterministic' -count=1

echo "== fuzz seed corpus (run mode) =="
go test ./internal/serve/ -run 'Fuzz' -count=1
go test ./internal/scenario/ -run 'Fuzz|TestFuzzSeedCorpus' -count=1

echo "== fleet scheduler (race + golden schema) =="
go test -race ./internal/fleet/ -count=1
go test ./internal/harness/ -run 'TestFleetGoldenJSONShape|TestFleetExperimentDeterministicAcrossParallelism' -count=1

echo "== BENCH_fleet.json regeneration (byte-identical at parallelism 1 and 4) =="
regen BENCH_fleet.json -out go run ./cmd/eventhitfleet -quick -streams 3 -frames 20000 \
    -seed 5 -budget 0.5 -streamrate 600 -streamburst 3000

echo "== BENCH_cache.json regeneration (byte-identical at parallelism 1 and 4) =="
go test ./internal/harness/ -run 'TestCacheGoldenJSONShape' -count=1
regen BENCH_cache.json -cacheout go run ./cmd/eventhitfleet -cachesweep -quick \
    -streams 4 -frames 12000 -seed 5

echo "== cluster tier (race: ring, leases, remote cache, front, shared swap) =="
go test -race ./internal/cluster/ -count=1
go test ./internal/harness/ -run 'TestClusterGoldenJSONShape|TestClusterArtifact|TestClusterSweepQuick' -count=1

echo "== BENCH_cluster.json regeneration (sim report byte-identical at 1/2/4 workers) =="
regen BENCH_cluster.json -out go run ./cmd/eventhitcluster -sim -streams 8 -frames 12000 \
    -seed 5 -budget 0.5

echo "== BENCH_resilience.json regeneration (byte-identical at parallelism 1 and 4) =="
regen BENCH_resilience.json -resout go run ./cmd/eventhitbench -exp resilience -quick \
    -task TA10 -seed 5

echo "== scenario corpus golden gate (via the shipped binary) =="
go run ./cmd/eventhitscenario -corpus

echo "== predict fast path (schema + artifact + parity byte-identity) =="
go test ./internal/harness/ -run 'TestSpeedGoldenJSONShape|TestSpeedArtifact|TestSpeedParityQuick' -count=1
regen - ">" go run ./cmd/eventhitbench -exp speedparity -quick -seed 1

echo "== early-inference cascade (race + schema + artifact) =="
go test -race ./internal/cascade/ -count=1
go test ./internal/harness/ -run 'TestCascadeGoldenJSONShape|TestCascadeArtifact|TestCascadeSweepQuick' -count=1

echo "== BENCH_cascade.json regeneration (byte-identical at parallelism 1 and 4) =="
regen BENCH_cascade.json -cascadeout go run ./cmd/eventhitbench -exp cascade -quick -seed 1

echo "== predict fast path perf gate (fast >= 1.5x float) =="
go test -run '^$' -bench 'BenchmarkPredictHot(Float|Fast)$' -benchtime 1s -count 2 . \
    | tee "$tmpdir/bench_speed.txt"
awk '
    /^BenchmarkPredictHotFloat/ { v = $3 + 0; if (f == 0 || v < f) f = v }
    /^BenchmarkPredictHotFast/  { v = $3 + 0; if (q == 0 || v < q) q = v }
    END {
        if (f == 0 || q == 0) { print "perf gate: benchmark output missing" > "/dev/stderr"; exit 1 }
        r = f / q
        printf "perf gate: float %.0f ns/op vs fast %.0f ns/op -> %.2fx (floor 1.5x)\n", f, q, r
        if (r < 1.5) { print "perf gate: predict fast path below 1.5x over float" > "/dev/stderr"; exit 1 }
    }' "$tmpdir/bench_speed.txt"

echo "OK"
