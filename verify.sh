#!/bin/sh
# Pre-merge verification gate. EXPERIMENTS.md cites this as the gate every
# change must clear. Stages:
#
#   fmt         gofmt -l finds nothing to rewrite
#   vet         go vet over the whole module
#   build       everything compiles
#   lint        godiva-lint (lockcheck/errcheck/atomiccheck plus the
#               interprocedural deadlockcheck/leakcheck/alloccheck, the
#               flow-sensitive releasecheck/borrowcheck/wirecheck, and the
#               lockset race analysis racecheck) reports zero findings;
#               non-zero findings fail the gate, as does the suite running
#               longer than the 30s wall-clock budget (it takes ~3s;
#               analyzer cost regressions must surface here, not in every
#               later CI run). The run writes lint.sarif — every analyzer's
#               findings, suppressed ones included — which CI uploads.
#   test        full test suite, caching disabled (-count=1) so the noalloc
#               AllocsPerRun gates re-measure on every run
#   bench       the repository benchmark's own vet and tests (bench/ is its
#               own module, so vet/test above never reach it)
#   benchmem    core query benchmarks and the per-snapshot and per-pass
#               vis/render kernels (surface topology into warm scratch, the
#               gather over it, a draw into a warm renderer, a recolor of
#               what it drew) under -benchmem; any benchmark
#               reporting nonzero allocs/op is an allocation regression on
#               a zero-alloc path and fails the gate
#   race-core   race-detector pass over the concurrent core, the mesh/vis
#               kernels, whose pooled scratch I/O workers and the main
#               thread share, the read path under them (shdf's mapped File
#               and genx's table of open files, which I/O workers and
#               godivad's handlers share), and the discrete-event machine
#               model the core runs on in the experiments
#   race-remote race-detector pass over the remote unit service, including
#               TestPayloadCacheChurn: concurrent fetchers and ingest
#               overwrites against one server's table of mapped files
#   invariants  core suite with the godivainvariants runtime checker
#               compiled in, under the race detector, and rocketeer's under
#               the same build: its local read functions are the first
#               real callers of BorrowFieldBuffer, so the borrowed-buffer
#               invariants (never on resident records; memory equals the
#               sum of live records) run against real donations
#   push        subscription stress under the race detector: producers,
#               mixed-policy subscribers and subscribe/unsubscribe churn
#               against one registry (duration from VERIFY_PUSHTIME,
#               default 10s)
#   fuzz        fuzz smoke over the checked-in seed corpora: shdf's
#               FuzzReader, then remote's FuzzFilePayload, FuzzFetchFrame
#               (the OpFetch response frame a client accepts from the
#               network), FuzzSpec, FuzzSubSpec and FuzzEventFrame, each
#               for VERIFY_FUZZTIME (default 10s)
#
# Each stage prints a one-line summary; the script stops at the first
# failing stage and exits non-zero. Run a single stage with
# `./verify.sh -stage <name>` (e.g. `./verify.sh -stage lint`).
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
        -bench '^(BenchmarkConcurrentQuery|BenchmarkKeyLookup|BenchmarkStatsSnapshot|BenchmarkBoundaryFaces|BenchmarkAppendSurface|BenchmarkDrawSurface|BenchmarkRecolor)$' \
        -benchmem -benchtime 1000x -count=1 \
        ./internal/core ./internal/mesh ./internal/vis ./internal/render) || {
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
}

check_lint() {
    # The full suite must stay clean AND fast: a wall-clock budget catches
    # analyzer cost regressions (a fixpoint that stops converging shows up
    # as minutes, not findings). The same run emits the SARIF log CI
    # uploads for code scanning.
    budget="${VERIFY_LINTBUDGET:-30}"
    lint_start=$(date +%s)
    go run ./cmd/godiva-lint -sarif -tags godivainvariants ./... >lint.sarif
    rc=$?
    elapsed=$(($(date +%s) - lint_start))
    echo "lint: suite took ${elapsed}s (budget ${budget}s), SARIF in lint.sarif"
    if [ "$rc" -ne 0 ]; then
        # Re-run in plain mode so the findings land in the log.
        go run ./cmd/godiva-lint -tags godivainvariants ./...
        return "$rc"
    fi
    if [ "$elapsed" -gt "$budget" ]; then
        echo "lint: suite exceeded the ${budget}s wall-clock budget" >&2
        return 1
    fi
}

check_bench() {
    (cd bench && go vet . && go test -count=1 .)
}

# go test -fuzz accepts one target per run.
fuzz_one() {
    go test -fuzz="^$2\$" -fuzztime="${VERIFY_FUZZTIME:-10s}" -run "^$2\$" "./internal/$1"
}

check_fuzz() {
    fuzz_one shdf FuzzReader || return 1
    for fn in FuzzFilePayload FuzzFetchFrame FuzzSpec FuzzSubSpec FuzzEventFrame; do
        fuzz_one remote "$fn" || return 1
    done
}

run_stage fmt check_gofmt
run_stage vet go vet ./...
run_stage build go build ./...
run_stage lint check_lint
run_stage test go test -count=1 ./...
run_stage bench check_bench
run_stage benchmem check_benchmem
run_stage race-core go test -race -count=1 ./internal/core/... ./internal/mesh/... ./internal/vis/... ./internal/shdf/... ./internal/genx/... ./internal/platform/...
run_stage race-remote go test -race -count=1 ./internal/remote/...
run_stage invariants go test -tags godivainvariants -race -count=1 ./internal/core/... ./internal/rocketeer/...
run_stage push env PUSH_STRESS_TIME="${VERIFY_PUSHTIME:-10s}" go test -race -count=1 -run '^TestSubscriptionStress$' ./internal/push
run_stage fuzz check_fuzz

if [ -n "$only_stage" ]; then
    if [ "$stage_seen" -eq 0 ]; then
        echo "verify.sh: unknown stage \"$only_stage\"" >&2
        echo "stages: fmt vet build lint test bench benchmem race-core race-remote invariants push fuzz" >&2
        exit 2
    fi
    echo "verify.sh: stage $only_stage passed"
else
    echo "verify.sh: all checks passed"
fi
