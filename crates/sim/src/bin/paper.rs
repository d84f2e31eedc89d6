//! `paper [--json]`: the paper's evaluation (§5.2), run on the shipping
//! servers stepped under the DES clock at the 1999 testbed's costs
//! ([`corona_sim::paper`]).
//!
//! With no argument it prints EXPERIMENTS.md's four fenced result
//! blocks in page order — FIG3 (Figure 3), FIG3-10K (its §5.2.1
//! 10 000-byte variant), TAB1 and TAB2 — and nothing else. The output
//! is deterministic: `scripts/ci.sh` fails on any byte of difference
//! from the page.
//!
//! `--json` then runs two real-TCP measurements — one reactor server
//! holding 1k / 5k / 10k idle members, and partition → fence → heal
//! cycles of a 3-server cluster — checks everything the two files
//! carry, and writes `BENCH_fig3.json` and `BENCH_table2.json`. A
//! failed check is printed to stderr, writes nothing and exits 1.

use corona_core::{CoronaClient, CoronaServer, ServerConfig};
use corona_health::{CapacityModel, CapacityPoint};
use corona_metrics::MetricsSnapshot;
use corona_replication::ReplicatedConfig;
use corona_sim::loopback::Cluster;
use corona_sim::{
    p99_us, roundtrip_with_metrics, throughput, ExperimentConfig, HostProfile, PENTIUM_II_200,
    ULTRASPARC_1,
};
use corona_transport::{Dialer, TcpDialer};
use corona_types::id::{GroupId, ObjectId, ServerId};
use corona_types::message::ServerEvent;
use corona_types::policy::{DeliveryScope, MemberRole, Persistence, StateTransferPolicy};
use corona_types::state::SharedState;
use std::time::{Duration, Instant};

/// Figure 3's SLO budget: the capacity estimate is the largest
/// population whose p99 round trip stays under it.
const FIG3_BUDGET_US: u64 = 25_000;
/// Table 2's, per replica.
const TABLE2_BUDGET_US: u64 = 50_000;
/// Partition-heal cycles measured.
const HEAL_RUNS: usize = 12;
/// Table 1's virtual observation window: 60 s.
const TABLE1_WINDOW_US: u64 = 60_000_000;
/// The real-TCP runs' group and object.
const G: GroupId = GroupId(1);
const O: ObjectId = ObjectId(1);

fn main() {
    let json = match std::env::args().skip(1).collect::<Vec<_>>().as_slice() {
        [] => false,
        [flag] if flag == "--json" => true,
        _ => {
            eprintln!("usage: paper [--json]");
            std::process::exit(2);
        }
    };
    let (fig3_block, fig3_metrics, fig3_capacity) = fig3(1000);
    let (fig3_10k_block, ..) = fig3(10_000);
    let (table2_block, single, replicated, table2_capacity) = table2();
    print!("{fig3_block}{fig3_10k_block}{}{table2_block}", table1());
    if !json {
        return;
    }
    let conn_sweep = [(1000, 200), (5000, 60), (10_000, 60)];
    let mut heal_ms: Vec<u64> = (0..HEAL_RUNS).map(|_| partition_heal_ms()).collect();
    heal_ms.sort_unstable();
    let bench = Bench {
        fig3: fig3_metrics,
        fig3_capacity,
        conn_sweep: conn_sweep.map(|(n, broadcasts)| (n, conn_sweep_point(n, broadcasts))),
        single,
        replicated,
        table2_capacity,
        heal_ms,
    };
    let faults = bench.faults();
    if !faults.is_empty() {
        faults.iter().for_each(|f| eprintln!("paper --json: {f}"));
        std::process::exit(1);
    }
    for (path, body) in bench.files() {
        std::fs::write(path, body + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("paper --json: wrote {path}");
    }
}

/// Right-aligned fixed-width columns: the `|`-separated header, a rule,
/// the rows.
fn table(head: &str, widths: &[usize], rows: &[Vec<String>]) -> String {
    let line = |cells: Vec<String>| {
        let cells = cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}"));
        cells.collect::<Vec<_>>().join("  ").trim_end().to_string() + "\n"
    };
    let head = head.split('|').map(str::to_string).collect();
    let rule = widths.iter().map(|w| "-".repeat(*w)).collect();
    let lines = [head, rule].into_iter().chain(rows.to_vec());
    lines.map(line).collect()
}

/// One fenced block of the page: its tables, a blank line apart.
fn block(tables: &[String]) -> String {
    format!("```\n{}```\n", tables.join("\n"))
}

/// FIG3 at `payload` bytes, 5 to 60 clients: all but one are pure
/// receivers; the extra client is sender+receiver and the *last* each
/// broadcast is sent to (the paper's worst case); a point averages 600
/// messages. Returns the block, the servers' registries merged over the
/// sweep (both curves) and the stateful curve's capacity estimate.
fn fig3(payload: usize) -> (String, MetricsSnapshot, CapacityModel) {
    // At 10 000 bytes one message per 100 ms is more than 10 Mbps
    // Ethernet can fan out to 15+ clients (the paper's own arithmetic
    // for large messages is per second), so that sweep paces at 1 msg/s
    // to measure steady-state delay rather than queue divergence.
    let interval_us = if payload > 4000 { 1_000_000 } else { 100_000 };
    let mut metrics = MetricsSnapshot::default();
    let mut capacity = CapacityModel::new(FIG3_BUDGET_US);
    let (mut means, mut rows): (_, Vec<Vec<String>>) = (Vec::new(), Vec::new());
    for n in (5..=60).step_by(5) {
        let mut mean_ms = |stateful| {
            let (results, run_metrics) = roundtrip_with_metrics(ExperimentConfig {
                n_clients: n,
                payload,
                stateful,
                interval_us,
                ..ExperimentConfig::default()
            });
            metrics.merge(&run_metrics);
            if stateful {
                let (clients, p99_us) = (n as u64, p99_us(&results.rtts_us));
                capacity.push(CapacityPoint { clients, p99_us });
            }
            results.mean_ms
        };
        let (stateful, stateless) = (mean_ms(true), mean_ms(false));
        let ms = [stateful, stateless].map(|ms| format!("{ms:.1}"));
        let overhead = format!("{:+.1}%", (stateful - stateless) / stateless * 100.0);
        rows.push(
            [n.to_string()]
                .into_iter()
                .chain(ms)
                .chain([overhead])
                .collect(),
        );
        means.push([stateful, stateless]);
    }
    // Milliseconds per added client, first point to last.
    let slope = [0, 1].map(|i| format!("{:.2}/client", (means[11][i] - means[0][i]) / 55.0));
    rows.push(["slope".to_string()].into_iter().chain(slope).collect());
    let head = "clients|stateful (ms)|stateless (ms)|overhead";
    let block = block(&[table(head, &[8, 16, 16, 12], &rows)]);
    (block, metrics, capacity)
}

/// TAB1: aggregate delivered kB/s of 6 closed-loop senders on 10 Mbps
/// shared Ethernet through one server, at each server host — the
/// paper's 1000 / 10 000 B, then 500 / 200 B, where the server's CPU
/// rather than the wire is the bottleneck.
fn table1() -> String {
    let rows = |payloads: [usize; 2]| -> Vec<Vec<String>> {
        let row = |server_profile: HostProfile| {
            let runs = payloads.map(|payload| {
                let cfg = ExperimentConfig {
                    n_clients: 6,
                    payload,
                    server_profile,
                    ..ExperimentConfig::default()
                };
                throughput(cfg, TABLE1_WINDOW_US)
            });
            let kbs = runs.map(|t| format!("{:.0}", t.kbytes_per_sec));
            let utils = runs.map(|t| format!("{:.0}%", t.server_utilization * 100.0));
            let name = [server_profile.name.to_string()];
            name.into_iter().chain(kbs).chain(utils).collect()
        };
        vec![row(ULTRASPARC_1), row(PENTIUM_II_200)]
    };
    let widths = [24, 14, 14, 12, 12];
    let head = "server host|1000 B|10000 B|srv util@1k|srv util@10k";
    let wire_bound = table(head, &widths, &rows([1000, 10_000]));
    let head = "server host|500 B|200 B|srv util@500|srv util@200";
    block(&[wire_bound, table(head, &widths, &rows([500, 200]))])
}

/// TAB2: round trip at 100 / 200 / 300 clients, one server vs six
/// replicated ones (`s1` coordinates, clients round-robin, each server
/// on its own LAN segment, the measuring client a forward away from the
/// sequencer); then 4 / 12 / 24 clients, where the extra coordinator
/// hop still outweighs the fan-out it spreads. Returns the block, each
/// topology's registries merged over the paper's populations, and the
/// per-replica capacity estimate.
fn table2() -> (String, MetricsSnapshot, MetricsSnapshot, CapacityModel) {
    let mut metrics = [MetricsSnapshot::default(), MetricsSnapshot::default()];
    let mut capacity = CapacityModel::new(TABLE2_BUDGET_US);
    let mut rows = |populations: [usize; 3], decimals: usize| -> Vec<Vec<String>> {
        let row = |n: usize| {
            let [single, replicated] = [1, 6].map(|n_servers| {
                roundtrip_with_metrics(ExperimentConfig {
                    n_clients: n,
                    n_servers,
                    messages: 100,
                    closed_loop: true,
                    ..ExperimentConfig::default()
                })
            });
            // The paper's populations (printed whole) feed the files;
            // a replica carries N/6 of the N clients.
            if decimals == 0 {
                metrics[0].merge(&single.1);
                metrics[1].merge(&replicated.1);
                let (clients, p99_us) = ((n / 6) as u64, p99_us(&replicated.0.rtts_us));
                capacity.push(CapacityPoint { clients, p99_us });
            }
            let (single, replicated) = (single.0.mean_ms, replicated.0.mean_ms);
            let ms = [single, replicated].map(|ms| format!("{ms:.decimals$}"));
            let speedup = format!("{:.1}x", single / replicated);
            [n.to_string()]
                .into_iter()
                .chain(ms)
                .chain([speedup])
                .collect()
        };
        populations.map(row).to_vec()
    };
    let (paper, small) = (rows([100, 200, 300], 0), rows([4, 12, 24], 1));
    let (head, widths) = (
        "clients|single (ms)|replicated (ms)|speedup",
        [10, 16, 20, 10],
    );
    let block = block(&[table(head, &widths, &paper), table(head, &widths, &small)]);
    let [single, replicated] = metrics;
    (block, single, replicated, capacity)
}

/// One population of the real-TCP connection sweep.
struct ConnRun {
    /// The server's threads and the one dial loop its members ride.
    threads: u64,
    broadcasts: usize,
    rtt_p50_us: u64,
    rtt_p99_us: u64,
}

/// `population` idle members held by one reactor server over real TCP;
/// the round trip is a sender-inclusive broadcast echoing back to the
/// last-joined member. The members are plain clients, which cost no
/// thread, and nobody else reads: their copies wait in their queues.
/// `None` when the fd limit is too low to hold them.
fn conn_sweep_point(population: usize, broadcasts: usize) -> Option<ConnRun> {
    let need = population as u64 * 2 + 600;
    proc_self("limits", "Max open files").filter(|&limit| limit >= need)?;
    let baseline = proc_self("status", "Threads:").unwrap_or(0);
    let server = CoronaServer::bind(
        "127.0.0.1:0",
        ServerConfig::stateful(ServerId::new(1)).with_reactor_shards(4),
    )
    .expect("bind reactor server");
    let addr = server.local_addr();
    let mut members: Vec<CoronaClient> = Vec::with_capacity(population);
    for i in 0..population {
        let conn = TcpDialer.dial(&addr).expect("dial sweep member");
        let m = CoronaClient::connect(conn, format!("m{i}"), None).expect("connect sweep member");
        if i == 0 {
            m.create_group(G, Persistence::Transient, SharedState::new())
                .expect("create sweep group");
        }
        m.join(G, MemberRole::Principal, StateTransferPolicy::None, false)
            .expect("join sweep group");
        members.push(m);
    }
    let threads = proc_self("status", "Threads:").map_or(0, |t| t.saturating_sub(baseline));
    let sender = members.last().expect("at least one member");
    let mut rtts_us: Vec<u64> = (0..broadcasts)
        .map(|_| {
            let t0 = Instant::now();
            sender
                .bcast_update(G, O, vec![0u8; 1000], DeliveryScope::SenderInclusive)
                .expect("broadcast");
            loop {
                let event = sender.next_event_timeout(Duration::from_secs(60));
                if let ServerEvent::Multicast { .. } = event.expect("echo multicast") {
                    break;
                }
            }
            t0.elapsed().as_micros() as u64
        })
        .collect();
    rtts_us.sort_unstable();
    drop(members);
    server.shutdown();
    Some(ConnRun {
        threads,
        broadcasts,
        rtt_p50_us: rtts_us[rtts_us.len() / 2],
        rtt_p99_us: p99_us(&rtts_us),
    })
}

/// The number after `key` on its line of `/proc/self/<file>`
/// (`unlimited` reads as `u64::MAX`); `None` off Linux.
fn proc_self(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/self/{file}")).ok()?;
    let line = text.lines().find_map(|l| l.strip_prefix(key))?;
    match line.split_whitespace().next()? {
        "unlimited" => Some(u64::MAX),
        value => value.parse().ok(),
    }
}

/// One partition-heal cycle of a live 3-server cluster over loopback
/// TCP: the coordinator is stranded in a minority until it fences, the
/// majority elects a successor and sequences on. Returns the
/// milliseconds from `heal()` until the stranded server's client has
/// the entry it missed (replayed by the reconciliation).
fn partition_heal_ms() -> u64 {
    let cluster = Cluster::start(3, |c| ReplicatedConfig {
        heartbeat_ms: 10,
        base_timeout_ms: 100,
        ..c
    });
    let (alice, bob) = (cluster.client("alice", 1), cluster.client("bob", 2));
    alice
        .create_group(G, Persistence::Persistent, SharedState::new())
        .expect("create");
    for c in [&alice, &bob] {
        c.join(G, MemberRole::Principal, StateTransferPolicy::None, false)
            .expect("join");
    }
    let send = |c: &CoronaClient, payload: &str| {
        let payload = payload.as_bytes().to_vec();
        c.bcast_update(G, O, payload, DeliveryScope::SenderInclusive)
            .expect("bcast");
    };
    let wait_payload = |c: &CoronaClient, want: &str| {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match c.next_event_timeout(remaining.max(Duration::from_millis(1))) {
                Ok(ServerEvent::Multicast { logged, .. })
                    if logged.update.payload.as_ref() == want.as_bytes() =>
                {
                    return
                }
                Ok(_) => {}
                Err(e) => panic!("no {want:?} within deadline: {e}"),
            }
        }
    };

    send(&alice, "base;");
    wait_payload(&alice, "base;");
    wait_payload(&bob, "base;");

    // Strand the coordinator: cut both peer links in both directions.
    cluster.isolate(1);
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cluster.server(1).health_registry().fenced() {
        assert!(Instant::now() < deadline, "timed out: s1 fence");
        std::thread::sleep(Duration::from_millis(5));
    }
    cluster.wait_coordinator(&[2, 3], 2, Duration::from_secs(20));
    send(&bob, "mid;");
    wait_payload(&bob, "mid;");

    let t0 = Instant::now();
    cluster.nem.heal();
    wait_payload(&alice, "mid;");
    let elapsed = t0.elapsed().as_millis() as u64;

    alice.close();
    bob.close();
    cluster.shutdown();
    elapsed
}

/// What `BENCH_fig3.json` and `BENCH_table2.json` carry.
struct Bench {
    fig3: MetricsSnapshot,
    fig3_capacity: CapacityModel,
    /// Each population, and its run unless the fd limit skipped it.
    conn_sweep: [(usize, Option<ConnRun>); 3],
    single: MetricsSnapshot,
    replicated: MetricsSnapshot,
    table2_capacity: CapacityModel,
    /// Sorted.
    heal_ms: Vec<u64>,
}

impl Bench {
    /// The partition-heal percentile `q` (0–100), if any cycle ran.
    fn heal_pct(&self, q: usize) -> Option<u64> {
        let last = self.heal_ms.len().checked_sub(1)?;
        Some(self.heal_ms[last * q / 100])
    }

    /// Every check the files must pass, as the failures found.
    fn faults(&self) -> Vec<String> {
        let mut faults = Vec::new();
        let registries = [
            ("fig3", &self.fig3),
            ("single", &self.single),
            ("replicated", &self.replicated),
        ];
        for (what, metrics) in registries {
            if metrics.histograms.is_empty() {
                faults.push(format!("{what}: no histograms"));
            }
            let exported = metrics.histograms.iter().map(|(name, h)| {
                let percentiles = [h.quantile(0.5), h.quantile(0.9), h.quantile(0.99), h.max];
                (name.as_str(), percentiles)
            });
            faults.extend(histogram_faults(what, exported));
        }
        let capacities = [
            ("fig3", &self.fig3_capacity),
            ("table2", &self.table2_capacity),
        ];
        for (what, capacity) in capacities {
            let points = capacity.points();
            if points.is_empty() {
                faults.push(format!("{what}: no capacity estimate"));
            }
            if points.windows(2).any(|w| w[0].p99_us > w[1].p99_us) {
                faults.push(format!(
                    "{what}: capacity p99 falls as population grows: {points:?}"
                ));
            }
        }
        if self.fig3.counter("server.fanout.encodes") == 0 {
            faults.push("fig3: server.fanout.encodes is 0".into());
        }
        if self.conn_sweep.iter().all(|(_, run)| run.is_none()) {
            faults.push("conn sweep: every population was skipped (raise ulimit -n)".into());
        }
        if self.heal_pct(50).is_none() {
            faults.push("table2: no partition-heal percentiles".into());
        }
        faults
    }

    /// `(path, JSON object)` for each file.
    fn files(&self) -> [(&'static str, String); 2] {
        let health = |what: &str, capacity: &CapacityModel| {
            let capacity = capacity.render_json();
            format!("{{\"experiment\":\"{what}\",\"capacity\":{capacity}}}")
        };
        let conn_sweep = self.conn_sweep.iter().map(|(population, run)| match run {
            None => {
                format!("{{\"population\":{population},\"skipped\":true,\"reason\":\"fd-limit\"}}")
            }
            Some(r) => format!(
                "{{\"population\":{population},\"threads\":{},\"broadcasts\":{},\
                 \"rtt_p50_us\":{},\"rtt_p99_us\":{},\"skipped\":false}}",
                r.threads, r.broadcasts, r.rtt_p50_us, r.rtt_p99_us
            ),
        });
        let fig3 = format!(
            "{{\"bench\":\"fig3\",\"metrics\":{},\"health\":{},\"conn_sweep\":[{}]}}",
            self.fig3.render_json(),
            health("fig3", &self.fig3_capacity),
            conn_sweep.collect::<Vec<_>>().join(","),
        );
        let [p50, p99] = [50, 99].map(|q| self.heal_pct(q).unwrap_or(0));
        let table2 = format!(
            "{{\"bench\":\"table2\",\"metrics\":{{\"single\":{},\"replicated\":{}}},\"health\":{},\
             \"partition_heal\":{{\"experiment\":\"table2\",\"runs\":{},\"p50_ms\":{p50},\"p99_ms\":{p99}}}}}",
            self.single.render_json(),
            self.replicated.render_json(),
            health("table2", &self.table2_capacity),
            self.heal_ms.len(),
        );
        [("BENCH_fig3.json", fig3), ("BENCH_table2.json", table2)]
    }
}

/// Each histogram whose exported p50, p90, p99 and max are out of
/// order, named.
fn histogram_faults<'a>(
    what: &'a str,
    exported: impl Iterator<Item = (&'a str, [u64; 4])> + 'a,
) -> impl Iterator<Item = String> + 'a {
    let fault = move |(name, p): (&str, [u64; 4])| {
        let fault = format!("{what}: {name}: p50 / p90 / p99 / max not monotone: {p:?}");
        (!p.is_sorted()).then_some(fault)
    };
    exported.filter_map(fault)
}

#[cfg(test)]
mod tests {
    use super::*;
    use corona_metrics::Registry;

    fn passing() -> Bench {
        let registry = Registry::new();
        registry.counter("server.fanout.encodes").inc();
        for v in [3, 40, 900] {
            registry.histogram("h").record(v);
        }
        let mut capacity = CapacityModel::new(1000);
        for (clients, p99_us) in [(5, 400), (10, 800)] {
            capacity.push(CapacityPoint { clients, p99_us });
        }
        let (threads, broadcasts, rtt_p50_us, rtt_p99_us) = (7, 1, 9, 9);
        let run = ConnRun {
            threads,
            broadcasts,
            rtt_p50_us,
            rtt_p99_us,
        };
        Bench {
            fig3: registry.snapshot(),
            fig3_capacity: capacity.clone(),
            conn_sweep: [(1000, Some(run)), (5000, None), (10_000, None)],
            single: registry.snapshot(),
            replicated: registry.snapshot(),
            table2_capacity: capacity,
            heal_ms: vec![2, 3],
        }
    }

    #[test]
    fn a_complete_bench_passes_and_its_files_keep_their_keys() {
        let bench = passing();
        assert_eq!(bench.faults(), Vec::<String>::new());
        let [(_, fig3), (_, table2)] = bench.files();
        let heal =
            "\"partition_heal\":{\"experiment\":\"table2\",\"runs\":2,\"p50_ms\":2,\"p99_ms\":2}}";
        assert!(fig3.starts_with("{\"bench\":\"fig3\",\"metrics\":{\"counters\""));
        assert!(fig3.contains(",\"health\":{\"experiment\":\"fig3\",\"capacity\":{"));
        assert!(fig3.contains(",\"conn_sweep\":[{\"population\":1000,\"threads\":7,"));
        assert!(table2.starts_with("{\"bench\":\"table2\",\"metrics\":{\"single\":{"));
        assert!(table2.contains("},\"replicated\":{") && table2.ends_with(heal));
    }

    #[test]
    fn the_check_rejects_a_non_monotone_histogram() {
        let exported = [
            ("ok", [1, 2, 3, 3]),
            ("x_us", [5, 4, 6, 7]),
            ("y_us", [1, 2, 9, 8]),
        ];
        let faults: Vec<_> = histogram_faults("fig3", exported.into_iter()).collect();
        assert_eq!(faults.len(), 2, "{faults:?}");
        assert!(faults[0].starts_with("fig3: x_us: "), "{faults:?}");
    }

    #[test]
    fn the_check_rejects_a_missing_or_non_monotone_capacity_estimate() {
        let mut bench = passing();
        bench.table2_capacity = CapacityModel::new(1000);
        assert_eq!(bench.faults(), ["table2: no capacity estimate"]);
        let mut bench = passing();
        let (clients, p99_us) = (20, 500);
        bench.fig3_capacity.push(CapacityPoint { clients, p99_us });
        assert!(bench.faults()[0].starts_with("fig3: capacity p99 falls"));
    }

    #[test]
    fn the_check_rejects_a_bench_missing_any_other_section() {
        let mut bench = passing();
        bench.single.histograms.clear();
        bench.fig3.counters.clear();
        bench.conn_sweep[0].1 = None;
        bench.heal_ms.clear();
        assert_eq!(bench.faults().len(), 4, "{:?}", bench.faults());
    }

    #[test]
    fn tables_align_right_and_blocks_are_fenced() {
        let t = table("n|ms", &[6, 10], &[vec!["5".into(), "12.3".into()]]);
        assert_eq!(
            t,
            "     n          ms\n------  ----------\n     5        12.3\n"
        );
        assert_eq!(block(&["a\n".into(), "b\n".into()]), "```\na\n\nb\n```\n");
    }
}
