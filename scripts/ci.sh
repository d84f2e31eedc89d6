#!/usr/bin/env sh
# The full local CI gate: release build, test suite, formatting,
# lints, docs. Run from anywhere; operates on the workspace root.
# --offline throughout — the workspace vendors its external deps as
# shims and must keep building without network access.
set -eu

cd "$(dirname "$0")/.."

echo "==> CHANGES.md: one entry per PR"
dups=$(sed -n 's/^- \(PR [0-9][0-9]*\).*/\1/p' CHANGES.md | sort | uniq -d)
if [ -n "$dups" ]; then
    echo "CHANGES.md has more than one entry for:" $dups >&2
    exit 1
fi

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> paper: EXPERIMENTS.md's result blocks are what it prints; BENCH_*.json checked"
# `paper` reruns the paper's evaluation on the stepped servers (FIG3,
# FIG3-10K, TAB1, TAB2; deterministic, ~2 s) and prints the page's four
# fenced blocks: any byte of difference fails. --json adds the real-TCP
# conn sweep and partition-heal cycles (~15 s), checks what
# BENCH_fig3.json / BENCH_table2.json carry (monotone histogram
# percentiles, capacity estimates, encode-once counter, a conn-sweep
# population that ran, partition-heal percentiles) and writes them.
# (stderr is the replicas' corona-ops chatter: a failure shows the rest.)
cargo build --release --offline -q -p corona-sim
if ! ./target/release/paper --json >target/paper.out 2>target/paper.stderr; then
    grep -v '^corona-ops ' target/paper.stderr >&2
    exit 1
fi
sed -n '/^```/,/^```/p' EXPERIMENTS.md | diff -u - target/paper.out || {
    echo "EXPERIMENTS.md's fenced blocks differ from paper's output (+): regenerate them" >&2
    exit 1
}

echo "==> cargo test -q --offline --workspace"
# Every crate's tests, not only the facade's: the transport conformance
# battery, the protocol cores' proptests, and corona-e2e-bench's
# 1/20-scale workloads + BENCHMARK.json name-sync check.
cargo test -q --offline --workspace

echo "==> fault matrix: supervised-client failover under fixed fault seeds"
# 1 = kill coordinator mid-stream, 2 = kill the attached follower,
# 3 = sever the client link then kill the coordinator mid-catch-up.
for seed in 1 2 3; do
    echo "    -- CORONA_FAULT_SEED=$seed"
    CORONA_FAULT_SEED=$seed cargo test -q --offline --test failure_injection \
        supervised_clients_survive_server_kill -- --exact
done

echo "==> sweep: the replication kernel itself under the DES clock, 1000 seeds a scenario"
# The real ReplicatedServers, stepped, over a virtual-time network
# wrapped by the real Nemesis (crates/sim/src/cluster.rs): every
# scenario of corona_sim::SCENARIOS (partitions and heals, a flapping
# coordinator, duplicate/reorder storms, crashes, client failover) under
# seeds 1..=1000, every
# invariant checked after every event. Prints the seeds per second and
# the first failing schedule; the hunt_* scenarios report what they
# find of the known, unfixed losses (ROADMAP) without failing. The
# debug test suite above ran seeds 1..=100 of each. (stderr is the
# servers' corona-ops chatter — and a panic's message: kept, and its
# end shown if the step fails.)
cargo build --release --offline -q -p corona-sim
if ! timeout 60 ./target/release/sweep all 1 1000 2>target/sweep.stderr; then
    tail -n 40 target/sweep.stderr >&2
    exit 1
fi

echo "==> cargo build --offline --examples"
cargo build --offline --examples

echo "==> health smoke: admin Health snapshot over the wire"
# The probe asserts the wire schema matches the library; here we check
# the snapshot parses (expected top-level keys present, version 1) and
# the SLO percentiles are monotone.
health_out=$(cargo run --offline -q --example health_probe 2>/dev/null)
printf '%s\n' "$health_out" | sed -n 's/^HEALTH-PROBE //p' | awk '
{
    if ($0 !~ /^\{"schema":1,/) { print "health: wrong/missing schema version"; exit 1 }
    if ($0 !~ /"groups":\{/ || $0 !~ /"fanout":\{/ || $0 !~ /"slo":\{/) {
        print "health: snapshot missing expected sections"; exit 1
    }
    if (!match($0, /"p50_us":[0-9]+,"p90_us":[0-9]+,"p99_us":[0-9]+,"max_us":[0-9]+/)) {
        print "health: SLO percentiles missing"; exit 1
    }
    split(substr($0, RSTART, RLENGTH), parts, /[:,]/)
    p50 = parts[2] + 0; p90 = parts[4] + 0; p99 = parts[6] + 0; max = parts[8] + 0
    if (p50 > p90 || p90 > p99 || p99 > max) {
        printf "health: non-monotone SLO percentiles p50=%d p90=%d p99=%d max=%d\n", p50, p90, p99, max
        exit 1
    }
    n++
}
END {
    if (n != 1) { print "health: no HEALTH-PROBE line"; exit 1 }
    printf "health snapshot ok: schema 1, SLO percentiles monotone (p50=%d p99=%d)\n", p50, p99
}'

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --offline -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc --offline --workspace --no-deps (rustdoc warnings denied)"
# Broken or ambiguous intra-doc links fail the gate. corona-e2e-bench is
# left out: its sources are frozen with the benchmark definition and
# carry public docs that link to private constants.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps \
    --exclude corona-e2e-bench

echo "==> declared dependencies are used ones (scripts/unused-deps.sh)"
./scripts/unused-deps.sh

echo "==> Rust line count (scripts/loc.sh)"
./scripts/loc.sh

echo "==> ci.sh: all green"
