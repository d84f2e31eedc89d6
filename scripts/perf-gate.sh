#!/usr/bin/env bash
# Compares the working tree with a base commit on the repo benchmark,
# in alternating pairs (this box's run-to-run spread is host-driven, so
# two sets taken at different times do not compare):
#
#   scripts/perf-gate.sh <workload|all> [pairs=10] [base=HEAD~1] [first-seed=1]
#
# The base is exported into target/perf-gate/base and built into its own
# target directory; pair i runs `crates/e2e-bench/run.sh --workload W
# --seed <first-seed + i - 1> --seconds <run_seconds> --trace 0` on both
# sides, the base first on odd pairs and the change first on even ones.
# Per end-to-end metric it prints both sides' q1 / median / q3, the
# change of the median and the pairs won (ties count for neither).
# Each workload ends with one traced run per side (`--trace 1`, first
# seed), from which it prints the counts a change to the threading or
# the reactor is judged by: process.threads,
# transport.reactor_wakeups_per_delivery and
# transport.reactor_events_per_poll; and beside them the per-layer
# times such a change moves: trace.hop.server_ingress_p50_us (reactor
# read to sequencing), trace.hop.client_deliver_p50_us and
# core.hop_residual_us. One run each: read the counts as counts and
# the times as a hint, not a measurement.
#
# Exit 1: a run was not `correct` or had failed operations, or a median
# is worse than the base's by more than its BENCHMARK.json bound.
# Takes about a minute per pair and workload; not part of ci.sh.
set -euo pipefail

cd "$(dirname "$0")/.."
root=$PWD
what=${1:?usage: perf-gate.sh <workload|all> [pairs=10] [base=HEAD~1] [first-seed=1]}
pairs=${2:-10}
base=${3:-HEAD~1}
first_seed=${4:-1}

bench() { python3 -c "import json,sys; b=json.load(open('BENCHMARK.json')); print($1)"; }
seconds=$(bench "b['run_seconds']")
if [ "$what" = all ]; then
    workloads=$(bench "' '.join(w['name'] for w in b['workloads'])")
else
    workloads=$what
fi

out=$root/target/perf-gate
base_sha=$(git rev-parse --short "$base")
rm -rf "$out/base" "$out/runs"
mkdir -p "$out/base" "$out/runs"
git archive "$base" | tar -x -C "$out/base"

echo "perf-gate: base $base_sha vs working tree, $pairs pairs of ${seconds}s, workloads: $workloads" >&2
# run.sh builds before it runs; the first call on each side pays for it.
run_side() { # side workload seed [trace=0]
    local dir=$root target=$root/target trace=${4:-0} results=$out/runs/$2.$1.jsonl
    if [ "$1" = base ]; then
        dir=$out/base
        target=$out/base-target
    fi
    [ "$trace" -eq 0 ] || results=$out/runs/$2.$1.traced.json
    local status=0
    CARGO_TARGET_DIR=$target "$dir/crates/e2e-bench/run.sh" \
        --workload "$2" --seed "$3" --seconds "$seconds" --trace "$trace" \
        2>>"$out/runs/$2.$1.log" | tail -n 1 >>"$results" || status=$?
    [ "$status" -eq 0 ] || echo "perf-gate: $1 run of $2 (seed $3, trace $trace) exited $status" >&2
}

for workload in $workloads; do
    for i in $(seq 1 "$pairs"); do
        seed=$((first_seed + i - 1))
        if [ $((i % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
        for side in $order; do
            run_side "$side" "$workload" "$seed"
        done
        echo "perf-gate: $workload pair $i/$pairs done" >&2
    done
    for side in base change; do
        run_side "$side" "$workload" "$first_seed" 1
    done
    echo "perf-gate: $workload traced runs done" >&2
done

python3 - "$out/runs" "$pairs" $workloads <<'EOF'
import json, statistics, sys

runs_dir, pairs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
counts = ["process.threads", "transport.reactor_wakeups_per_delivery",
          "transport.reactor_events_per_poll", "trace.hop.server_ingress_p50_us",
          "trace.hop.client_deliver_p50_us", "core.hop_residual_us"]
failed = False

def load(workload, side):
    with open(f"{runs_dir}/{workload}.{side}.jsonl") as f:
        return [json.loads(line) for line in f if line.strip()]

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

for workload in workloads:
    base, change = load(workload, "base"), load(workload, "change")
    print(f"\n## {workload}: {len(base)} base / {len(change)} change runs")
    for side, runs in (("base", base), ("change", change)):
        bad = [r for r in runs if not r["correct"] or r["failed"]]
        attempted = sum(r["attempted"] for r in runs)
        print(f"{side}: {sum(r['failed'] for r in runs)} of {attempted} operations failed, "
              f"{len(runs) - len(bad)}/{len(runs)} runs correct")
        if bad or len(runs) != pairs:
            failed = True
    print("| metric | base q1 / median / q3 | change q1 / median / q3 | Δ median | pairs won | verdict |")
    print("|---|---|---|---|---|---|")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        b = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
        c = [r["metrics"][name]["value"] for r in change if name in r["metrics"]]
        if not b or not c:
            continue
        (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles(b), quartiles(c)
        delta = (cmed - bmed) / bmed if bmed else 0.0
        worse = delta if lower else -delta
        won = sum(1 for x, y in zip(b, c) if (y < x if lower else y > x))
        lost = sum(1 for x, y in zip(b, c) if (y > x if lower else y < x))
        if worse > m["bound"]:
            verdict, failed = f"REGRESSION (bound {m['bound']:.0%})", True
        elif won * 10 >= 9 * min(len(b), len(c)) and -worse * bmed > bq3 - bq1:
            verdict = "gain"
        else:
            verdict = "within bound"
        fmt = lambda x: f"{x:.4g}"
        print(f"| {name} ({m['unit']}) | {fmt(bq1)} / {fmt(bmed)} / {fmt(bq3)} "
              f"| {fmt(cq1)} / {fmt(cmed)} / {fmt(cq3)} | {delta:+.1%} "
              f"| {won}-{lost} | {verdict} |")
    traced = {}
    for side in ("base", "change"):
        try:
            with open(f"{runs_dir}/{workload}.{side}.traced.json") as f:
                traced[side] = json.loads(f.readline())["metrics"]
        except (OSError, ValueError, KeyError):
            traced[side] = {}
    print("\n| traced (one run) | base | change |")
    print("|---|---|---|")
    for name in counts:
        cells = [f"{traced[side][name]['value']:.4g}" if name in traced[side] else "-"
                 for side in ("base", "change")]
        print(f"| {name} | {cells[0]} | {cells[1]} |")

sys.exit(1 if failed else 0)
EOF
