#!/bin/sh
# Pre-merge verification gate. EXPERIMENTS.md cites this as the gate every
# change must clear. Stages:
#
#   fmt         gofmt -l finds nothing to rewrite
#   vet         go vet over the whole module
#   build       everything compiles
#   entrypoints every package has test files except internal/locktest and
#               internal/noalloctest (test helpers): a command or library
#               package no test runs gets a test or goes
#   test        full test suite, caching disabled (-count=1) so the noalloc
#               AllocsPerRun gates re-measure on every run
#   bench       the repository benchmark's own vet and tests (bench/ is its
#               own module, so vet/test above never reach it)
#   benchmem    core query benchmarks (one of them converting fresh string
#               keys to ...any on every query, which the lookup must not
#               make escape), the per-snapshot and per-pass
#               vis/render kernels (surface topology into warm scratch, the
#               gather over it, an isosurface, a slice and a cut appended
#               into a reused aggregate, cell-to-point and vector magnitudes into
#               a reused array, a draw into a warm renderer, a recolor of
#               what it drew), shdf's 1 MiB WriteSDS, which streams the
#               caller's array to the file, and BenchmarkWriterReuse, a
#               multi-object file through a Writer reset for each file (its
#               buffer, directory and names kept), under -benchmem; any benchmark
#               reporting nonzero allocs/op is an allocation regression on
#               a zero-alloc path and fails the gate. Then the seven
#               allocation-bound tests (fetch, ingest, snapshot open,
#               FileWriter, unit cycle, session view, WriteSDS) run with -v
#               and their figure lines are printed: the columns of
#               EXPERIMENTS.md "Allocation ledger"
#   race-core   race-detector pass over the concurrent core (its schedule
#               explorer auditing every invariant after every step and at
#               every park), the mesh/vis kernels, whose pooled scratch I/O
#               workers and the main thread share, the read path under them
#               (shdf's mapped File and genx's table of open files, which
#               I/O workers and godivad's handlers share), the
#               discrete-event machine model the core runs on in the
#               experiments, the push registry, and rocketeer, whose local
#               read functions donate real mapped buffers through
#               BorrowFieldBuffer while its pipeline's I/O workers and main
#               thread share them. The race-only TestLockWindows of core,
#               shdf, genx, platform and push (and remote's, in race-remote)
#               hold each mutex in long turns under locktest.Probe, so a
#               field its `// guarded by` comment names that a method
#               touches outside the lock, or a *Locked function called
#               without it, is a reported race however narrow the window.
#               Then core's buffer-reuse tests run under -race 20 times
#               each, since what goes wrong with reused memory depends on
#               the schedule: a reused buffer comes back zeroed, a borrowed
#               donor is never reused, SetMemSpace trims the free list, and
#               Close mid-read reuses nothing
#   race-remote race-detector pass over the remote unit service, including
#               TestPayloadCacheChurn: concurrent fetchers and ingest
#               overwrites against one server's table of mapped files; and
#               the fault tests run through the test-side frame relay
#               (relay_test.go): TestEndToEndWithFaults, TestDropMidPayload,
#               TestDeadlineExceeded, TestStressTwoDBs (two 4-worker DBs
#               under seeded faults), TestConnPoolRecyclesAcrossRestart,
#               TestClientCloseWakesPoolWaiter, TestClientCloseWakesBackoff,
#               and the scripted TestFrameFullItemRefetched,
#               TestFrameFullEveryItemFails and
#               TestChunkFailureRecyclesEarlierChunks
#   push        subscription stress under the race detector: producers,
#               mixed-policy subscribers and subscribe/unsubscribe churn
#               against one registry (duration from VERIFY_PUSHTIME,
#               default 10s); then the two ordering tests under -race,
#               50 runs each, since queue order rests on publishes running
#               one at a time and its failures depend on the schedule:
#               concurrent producers keep every queue sequence-ordered, and
#               a publisher parked on a full Block queue has already
#               delivered its event to every other subscriber
#   fuzz        fuzz smoke over the checked-in seed corpora: zerocopy's
#               FuzzCodec (the array codec against an element-wise
#               encoding/binary oracle, every element type and offset, with
#               the little-endian fast path on and forced off), shdf's
#               FuzzReader and FuzzWriter (the streaming writer against the
#               element-wise oracle, byte for byte, on the native and the
#               chunked path, plus a read-back), then remote's
#               FuzzFilePayload, FuzzFetchFrame
#               (the OpFetch response frame a client accepts from the
#               network), FuzzSpec, FuzzSubSpec and FuzzEventFrame, each
#               for VERIFY_FUZZTIME (default 10s)
#
# Each stage prints a one-line summary; the script stops at the first
# failing stage and exits non-zero. Run a single stage with
# `./verify.sh -stage <name>` (e.g. `./verify.sh -stage race-core`).
set -u

cd "$(dirname "$0")"

only_stage=""
if [ "${1:-}" = "-stage" ]; then
    if [ -z "${2:-}" ]; then
        echo "verify.sh: -stage requires a stage name" >&2
        exit 2
    fi
    only_stage="$2"
fi

stage_seen=0

run_stage() {
    name="$1"
    shift
    if [ -n "$only_stage" ] && [ "$name" != "$only_stage" ]; then
        return 0
    fi
    stage_seen=1
    echo "== $name: $*"
    start=$(date +%s)
    if "$@"; then
        echo "-- $name: ok ($(($(date +%s) - start))s)"
    else
        rc=$?
        echo "-- $name: FAILED (exit $rc)"
        exit "$rc"
    fi
}

check_gofmt() {
    out=$(gofmt -l .)
    if [ -n "$out" ]; then
        echo "gofmt: the following files need formatting:" >&2
        echo "$out" >&2
        return 1
    fi
}

check_benchmem() {
    out=$(go test -run '^$' \
        -bench '^(BenchmarkConcurrentQuery|BenchmarkKeyLookup|BenchmarkKeyLookupFreshKeys|BenchmarkStatsSnapshot|BenchmarkBoundaryFaces|BenchmarkAppendSurface|BenchmarkIsoSurface|BenchmarkSlicePlane|BenchmarkAppendCutPlane|BenchmarkCellToPoint|BenchmarkVectorMagnitude|BenchmarkDrawSurface|BenchmarkRecolor|BenchmarkWriteSDS|BenchmarkWriterReuse)$' \
        -benchmem -benchtime 1000x -count=1 \
        ./internal/core ./internal/mesh ./internal/vis ./internal/render ./internal/shdf) || {
        echo "$out"
        return 1
    }
    echo "$out"
    bad=$(echo "$out" | awk '$NF == "allocs/op" && $(NF-1) != "0"')
    if [ -n "$bad" ]; then
        echo "benchmem: these benchmarks must stay allocation-free, but:" >&2
        echo "$bad" >&2
        return 1
    fi
    out=$(go test -count=1 -v \
        -run '^(TestFetchAllocBound|TestIngestAllocBound|TestOpenAllocBound|TestFileWriterAllocBound|TestUnitCycleReusesBufferMemory|TestSessionViewAllocBound|TestWriteSDSAllocBound)$' \
        ./internal/remote ./internal/genx ./internal/core ./internal/rocketeer ./internal/shdf) || {
        echo "$out"
        return 1
    }
    echo "$out" | grep -E '^=== RUN|^ +[a-z_]+_test\.go:[0-9]+: '
}

check_entrypoints() {
    untested=$(go list -f '{{if and (not .TestGoFiles) (not .XTestGoFiles)}}{{.ImportPath}}{{end}}' ./... |
        grep -v -x -e '' -e godiva/internal/locktest -e godiva/internal/noalloctest)
    if [ -n "$untested" ]; then
        echo "entrypoints: these packages have no test files; give each a test or delete it:" >&2
        echo "$untested" >&2
        return 1
    fi
}

check_push() {
    PUSH_STRESS_TIME="${VERIFY_PUSHTIME:-10s}" go test -race -count=1 -run '^TestSubscriptionStress$' ./internal/push || return 1
    go test -race -count=50 -run '^(TestConcurrentProducersKeepQueuesSequenceOrdered|TestBlockedPublishHasDeliveredToOthers)$' ./internal/push
}

check_race_core() {
    go test -race -count=1 ./internal/core/... ./internal/mesh/... ./internal/vis/... ./internal/shdf/... ./internal/genx/... ./internal/platform/... ./internal/push/... ./internal/rocketeer/... || return 1
    go test -race -count=20 -run '^(TestReusedBufferComesBackZeroed|TestBorrowedBufferNeverReused|TestSetMemSpaceTrimsFreeList|TestCloseMidReadReusesNothing)$' ./internal/core
}

check_bench() {
    (cd bench && go vet . && go test -count=1 .)
}

# go test -fuzz accepts one target per run.
fuzz_one() {
    go test -fuzz="^$2\$" -fuzztime="${VERIFY_FUZZTIME:-10s}" -run "^$2\$" "./internal/$1"
}

check_fuzz() {
    fuzz_one zerocopy FuzzCodec || return 1
    fuzz_one shdf FuzzReader || return 1
    fuzz_one shdf FuzzWriter || return 1
    for fn in FuzzFilePayload FuzzFetchFrame FuzzSpec FuzzSubSpec FuzzEventFrame; do
        fuzz_one remote "$fn" || return 1
    done
}

run_stage fmt check_gofmt
run_stage vet go vet ./...
run_stage build go build ./...
run_stage entrypoints check_entrypoints
run_stage test go test -count=1 ./...
run_stage bench check_bench
run_stage benchmem check_benchmem
run_stage race-core check_race_core
run_stage race-remote go test -race -count=1 ./internal/remote/...
run_stage push check_push
run_stage fuzz check_fuzz

if [ -n "$only_stage" ]; then
    if [ "$stage_seen" -eq 0 ]; then
        echo "verify.sh: unknown stage \"$only_stage\"" >&2
        echo "stages: fmt vet build entrypoints test bench benchmem race-core race-remote push fuzz" >&2
        exit 2
    fi
    echo "verify.sh: stage $only_stage passed"
else
    echo "verify.sh: all checks passed"
fi
