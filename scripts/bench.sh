#!/usr/bin/env sh
# Regenerates the paper's headline numbers and spools the
# machine-readable output into JSON files for regression tracking:
#
#   BENCH_fig3.json   - Figure 3 sweep: the stepped servers' merged
#                       metrics, capacity estimate, real-TCP conn sweep
#   BENCH_table2.json - Table 2: single vs replicated merged metrics,
#                       capacity estimate, partition-heal recovery
#
# Each file is a single JSON object: {"bench":..,"metrics":..,
# "health":..,..} where every element is lifted verbatim from the
# harness's METRICS / HEALTH / CONNSWEEP / PARTITION_HEAL lines. The
# health section carries the capacity estimate (max sustainable
# clients at p99 inside the SLO budget). Human-readable tables still
# go to stdout. --offline throughout; the workspace builds without
# network.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline -p corona-bench"
cargo build --release --offline -p corona-bench

# stdin: one JSON object per line -> comma-joined JSON array body
join_lines() {
    awk 'NR > 1 { printf "," } { printf "%s", $0 }'
}

echo "==> fig3_roundtrip"
out=$(./target/release/fig3_roundtrip "$@")
printf '%s\n' "$out"
metrics=$(printf '%s\n' "$out" | sed -n 's/^METRICS //p')
health=$(printf '%s\n' "$out" | sed -n 's/^HEALTH //p')

echo "==> fig3_roundtrip --conn-sweep"
sweep_out=$(./target/release/fig3_roundtrip --conn-sweep)
printf '%s\n' "$sweep_out"
conn_sweep=$(printf '%s\n' "$sweep_out" | sed -n 's/^CONNSWEEP //p' | join_lines)
# The sweep must produce entries, and at least one population must
# actually have run (an all-skipped sweep means the fd limit is too
# low to validate anything).
test -n "$conn_sweep" || {
    echo "==> FAIL: conn-sweep produced no CONNSWEEP lines" >&2
    exit 1
}
case "$conn_sweep" in
*'"skipped":false'*) ;;
*)
    echo "==> FAIL: every conn-sweep population was skipped (raise ulimit -n)" >&2
    exit 1
    ;;
esac
sweep_p99=$(printf '%s' "$conn_sweep" | sed -n 's/.*"rtt_p99_us":\([0-9]*\).*/\1/p')
test -n "$sweep_p99" || {
    echo "==> FAIL: conn-sweep entries carry no rtt_p99_us" >&2
    exit 1
}
echo "==> conn-sweep ok (rtt_p99_us: $sweep_p99)"

printf '{"bench":"fig3","metrics":%s,"health":%s,"conn_sweep":[%s]}\n' \
    "$metrics" "$health" "$conn_sweep" >BENCH_fig3.json
echo "==> wrote BENCH_fig3.json"
# The health plane's capacity estimate must be present and carry a
# max-sustainable-clients figure.
case "$health" in
*'"max_sustainable_clients":'*) ;;
*)
    echo "==> FAIL: BENCH_fig3.json health section missing capacity estimate" >&2
    exit 1
    ;;
esac
echo "==> health capacity: $(printf '%s' "$health" | sed -n 's/.*\("max_sustainable_clients":[0-9]*\).*/\1/p')"
# Record the kernel's encode-once counter: one frame encode per
# multicast, flat in the number of recipients.
encodes=$(printf '%s' "$metrics" | sed -n 's/.*"server\.fanout\.encodes":\([0-9]*\).*/\1/p')
echo "==> encode-once: server.fanout.encodes=${encodes:-MISSING}"
test -n "$encodes"

echo "==> table2_replicated"
out=$(./target/release/table2_replicated)
printf '%s\n' "$out"
single=$(printf '%s\n' "$out" | sed -n 's/^METRICS single //p')
replicated=$(printf '%s\n' "$out" | sed -n 's/^METRICS replicated //p')
health=$(printf '%s\n' "$out" | sed -n 's/^HEALTH //p')
partition_heal=$(printf '%s\n' "$out" | sed -n 's/^PARTITION_HEAL //p')
# Partition-heal recovery (heal -> reconciled -> client streams
# resumed) is the regression baseline for later partition work.
case "$partition_heal" in
*'"p50_ms":'*'"p99_ms":'*) ;;
*)
    echo "==> FAIL: table2_replicated emitted no partition-heal recovery percentiles" >&2
    exit 1
    ;;
esac
printf '{"bench":"table2","metrics":{"single":%s,"replicated":%s},"health":%s,"partition_heal":%s}\n' \
    "$single" "$replicated" "$health" "$partition_heal" >BENCH_table2.json
echo "==> wrote BENCH_table2.json"
echo "==> partition-heal recovery: $(printf '%s' "$partition_heal" | sed -n 's/.*\("p50_ms":[0-9]*,"p99_ms":[0-9]*\).*/\1/p')"
case "$health" in
*'"max_sustainable_clients":'*) ;;
*)
    echo "==> FAIL: BENCH_table2.json health section missing capacity estimate" >&2
    exit 1
    ;;
esac
echo "==> health capacity: $(printf '%s' "$health" | sed -n 's/.*\("max_sustainable_clients":[0-9]*\).*/\1/p')"
