#!/usr/bin/env bash
# Builds the benchmark once and runs every workload, each in its own
# process, first untraced (end-to-end metrics) and then traced (per-layer
# metrics), printing one table of every metric by name with its unit.
#
#   bench/run.sh [-seed N] [-seconds N] [-repeat N]
#
# -repeat N runs the repeatability self-check instead (N full sets).
set -euo pipefail
cd "$(dirname "$0")"

seed=1 seconds=20 repeat=0
while [ $# -gt 0 ]; do
    case "$1" in
        -seed) seed=$2; shift 2 ;;
        -seconds) seconds=$2; shift 2 ;;
        -repeat) repeat=$2; shift 2 ;;
        *) echo "usage: $0 [-seed N] [-seconds N] [-repeat N]" >&2; exit 2 ;;
    esac
done

cpus=$(getconf _NPROCESSORS_ONLN)
export GOMAXPROCS=$(( cpus < 2 ? cpus : 2 ))
bin=./godiva-bench-bin
go build -o "$bin" .
trap 'rm -f "$bin"' EXIT

if [ "$repeat" -gt 0 ]; then
    "$bin" -repeat "$repeat" -seed "$seed" -seconds "$seconds"
    exit
fi

printf '%-16s %-42s %16s %s\n' workload metric value unit
for workload in movie-local session-revisit scan-remote follow-live; do
    for trace in 0 1; do
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" |
            awk -v w="$workload" 'NF == 3 && $2 ~ /^-?[0-9.]+$/ { printf "%-16s %-42s %16s %s\n", w, $1, $2, $3 }'
    done
done
