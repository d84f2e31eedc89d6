#!/usr/bin/env bash
# Builds the benchmark and runs it. The driver's form:
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# and two shorthands:
#
#   run.sh --trace <workload>       traced run, default seed and length
#   run.sh --check-repeat [N=5]     two sets of N runs of every workload,
#                                   compared against BENCHMARK.json's bounds
#
# The last line of standard output is the result as one JSON object;
# the build's output goes to standard error. Exit code 1: an output was
# wrong or an operation failed. Exit code 2: the benchmark cannot run
# here (no sources, no toolchain, too few file descriptors).
set -eu

cd "$(dirname "$0")/../.."

# The widest workload holds 256 resident sockets on each side, three
# times over while set-up repeats.
if [ "$(ulimit -n)" != unlimited ] && [ "$(ulimit -n)" -lt 2048 ]; then
    ulimit -n 2048 2>/dev/null || {
        echo "error: ulimit -n is $(ulimit -n); the benchmark needs 2048" >&2
        exit 2
    }
fi

cargo build --release --offline -p corona-e2e-bench >&2 || {
    echo "error: cargo build of corona-e2e-bench failed" >&2
    exit 2
}

exec "${CARGO_TARGET_DIR:-target}/release/corona-e2e-bench" "$@"
