#!/usr/bin/env bash
# The benchmark's one command: build the release binary, then run it.
#
#   perf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload; the last line of standard output is the result.
#   perf/run.sh [--seed <n>] [--seconds <s>] [--quick]
#       every workload, untraced then traced.
#   perf/run.sh --agree [--runs <n>]
#       two sets of runs of every workload, compared against the bounds
#       in BENCHMARK.json; exits non-zero on a miss.
#
# Run from anywhere; outputs land in perf/out/ of this repository.
set -euo pipefail

cd "$(dirname "$0")/.."

case " $* " in
*" --agree "*)
    args=()
    for a in "$@"; do [ "$a" = --agree ] || args+=("$a"); done
    exec python3 perf/agree.py ${args[@]+"${args[@]}"}
    ;;
esac

cargo build --release --offline --quiet --manifest-path perf/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-perf/target}/release/perfbench"

# serve_fleet runs on one CPU, the first this process may use, when
# `taskset` is there to confine it. Its clients and its server hand each
# wave back and forth, and between two CPUs of a shared VM each hand-over
# is an inter-processor wake-up whose latency follows the host's other
# tenants: unconfined, the fastest repetition of a run moved between
# 395 and 563 ms for minutes at a time (9-22% spread over ten runs);
# confined, between 416 and 451 ms (2%), and no slower, because the fleet
# has no use for a second CPU. The program takes its thread counts from
# the CPUs it may use, so a confined fleet has one client.
run() {
    local workload=$1 pin=()
    shift
    if [ "$workload" = serve_fleet ] && command -v taskset >/dev/null; then
        local cpu
        cpu=$(taskset -cp $$ 2>/dev/null | sed -n 's/.*: *\([0-9][0-9]*\).*/\1/p') || cpu=
        [ -z "$cpu" ] || pin=(taskset -c "$cpu")
    fi
    ${pin[@]+"${pin[@]}"} "$bin" --workload "$workload" "$@"
}

args=()
workload=
while [ $# -gt 0 ]; do
    if [ "$1" = --workload ] && [ $# -ge 2 ]; then
        workload=$2
        shift 2
    else
        args+=("$1")
        shift
    fi
done

if [ -n "$workload" ]; then
    run "$workload" ${args[@]+"${args[@]}"}
    exit
fi
for workload in metro_heuristic metro_drl serve_fleet train_drl grid_sweep; do
    for trace in 0 1; do
        echo "== $workload --trace $trace"
        run "$workload" --trace "$trace" ${args[@]+"${args[@]}"}
    done
done
