//! **FIG3** — regenerates Figure 3 of the paper: "Group multicast with
//! a single server: Round-trip delay vs #clients for messages of size
//! 1000 bytes", stateful vs stateless, plus the §5.2.1 text
//! observation at 10 000 bytes (pass `--payload 10000`).
//!
//! Configuration mirrors §5.2.1: all clients but one are pure
//! receivers; the extra client is sender+receiver and is the *last*
//! client each broadcast is sent to (worst case); a data point
//! averages 600 messages sent one per 100 ms.

use corona_bench::{arg_present, arg_value, fd_soft_limit, header, row, thread_count};
use corona_core::{client::CoronaClient, config::ServerConfig, server::CoronaServer};
use corona_health::{CapacityModel, CapacityPoint};
use corona_metrics::MetricsSnapshot;
use corona_sim::{p99_us, roundtrip_with_metrics, ExperimentConfig};
use corona_transport::{Dialer, TcpDialer};
use corona_types::id::{GroupId, ObjectId, ServerId};
use corona_types::message::ServerEvent;
use corona_types::policy::{DeliveryScope, MemberRole, Persistence, StateTransferPolicy};
use corona_types::state::SharedState;
use std::time::{Duration, Instant};

/// One point of the real-TCP connection sweep: `population` idle
/// members held by a single reactor server, round-trip measured by a
/// sender-inclusive broadcast echoing back to the last-joined member.
/// The members are plain clients, which cost no thread: `threads` is
/// the server's and the one dial loop they all ride.
fn conn_sweep_point(population: usize, broadcasts: usize) -> String {
    let need = (population as u64) * 2 + 600;
    match fd_soft_limit() {
        Some(limit) if limit >= need => {}
        _ => {
            return format!(
                "{{\"population\":{population},\"skipped\":true,\"reason\":\"fd-limit\"}}"
            );
        }
    }
    let baseline = thread_count().unwrap_or(0);
    let server = CoronaServer::bind(
        "127.0.0.1:0",
        ServerConfig::stateful(ServerId::new(1)).with_reactor_shards(4),
    )
    .expect("bind reactor server");
    let addr = server.local_addr();
    let group = GroupId::new(1);

    let mut members: Vec<CoronaClient> = Vec::with_capacity(population);
    for i in 0..population {
        let conn = TcpDialer.dial(&addr).expect("dial sweep member");
        let m = CoronaClient::connect(conn, format!("m{i}"), None).expect("connect sweep member");
        if i == 0 {
            m.create_group(group, Persistence::Transient, SharedState::new())
                .expect("create sweep group");
        }
        m.join(
            group,
            MemberRole::Principal,
            StateTransferPolicy::None,
            false,
        )
        .expect("join sweep group");
        members.push(m);
    }
    let threads = thread_count().unwrap_or(baseline).saturating_sub(baseline);

    // The sender is the *last*-joined member — the paper's worst-case
    // arrangement — and its own sender-inclusive copy closes the loop.
    // Nobody else reads: their copies wait in their event channels.
    let sender = members.last().expect("at least one member");
    let payload = vec![0u8; 1000];
    let mut rtts_us: Vec<u64> = Vec::with_capacity(broadcasts);
    for _ in 0..broadcasts {
        let t0 = Instant::now();
        sender
            .bcast_update(
                group,
                ObjectId::new(1),
                payload.clone(),
                DeliveryScope::SenderInclusive,
            )
            .expect("broadcast");
        loop {
            let event = sender.next_event_timeout(Duration::from_secs(60));
            if let ServerEvent::Multicast { .. } = event.expect("echo multicast") {
                break;
            }
        }
        rtts_us.push(t0.elapsed().as_micros() as u64);
    }
    rtts_us.sort_unstable();
    let p50 = rtts_us[rtts_us.len() / 2];
    let p99 = p99_us(&rtts_us);

    drop(members);
    server.shutdown();
    format!(
        "{{\"population\":{population},\"threads\":{threads},\"broadcasts\":{broadcasts},\
         \"rtt_p50_us\":{p50},\"rtt_p99_us\":{p99},\"skipped\":false}}"
    )
}

/// `--conn-sweep`: real-TCP scale sweep over the reactor transport —
/// 1k/5k/10k mostly-idle members on one server, thread population and
/// broadcast RTT per point, one machine-readable CONNSWEEP line each.
fn conn_sweep() {
    println!("FIG3 conn-sweep: reactor transport, idle-member populations over real TCP");
    println!(
        "(threads = the server's and the clients' dial loop; O(shards), not O(2 x clients))\n"
    );
    let widths = [12, 10, 14, 14, 10];
    let head = [
        "population",
        "threads",
        "rtt p50 (us)",
        "rtt p99 (us)",
        "status",
    ];
    println!("{}", header(&head, &widths));
    let mut lines = Vec::new();
    for &(population, broadcasts) in &[(1000usize, 200usize), (5000, 60), (10_000, 60)] {
        let line = conn_sweep_point(population, broadcasts);
        // A skipped point carries none of the fields: "-" each.
        let field = |key: &str| -> String {
            line.split(&format!("\"{key}\":"))
                .nth(1)
                .and_then(|rest| rest.split([',', '}']).next())
                .unwrap_or("-")
                .to_string()
        };
        let [threads, p50, p99] = ["threads", "rtt_p50_us", "rtt_p99_us"].map(field);
        let status = match line.contains("\"skipped\":true") {
            true => "skipped(fd)",
            false => "ok",
        };
        let cells = [population.to_string(), threads, p50, p99, status.into()];
        println!("{}", row(&cells, &widths));
        lines.push(line);
    }
    println!();
    for line in &lines {
        println!("CONNSWEEP {line}");
    }
}

fn main() {
    if arg_present("--conn-sweep") {
        conn_sweep();
        return;
    }
    let payload: usize = arg_value("--payload")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    let messages: u64 = arg_value("--messages")
        .and_then(|v| v.parse().ok())
        .unwrap_or(600);
    // SLO latency budget for the capacity estimate (HEALTH line): the
    // largest population whose p99 round trip stays under the budget.
    let budget_us: u64 = arg_value("--slo-budget-us")
        .and_then(|v| v.parse().ok())
        .unwrap_or(25_000);
    // The paper sends a 1000-byte message every 100 ms. At 10 000
    // bytes that rate exceeds what 10 Mbps Ethernet can fan out to
    // 15+ clients (the paper's own arithmetic for large messages is
    // phrased per second), so the large-payload sweep paces at 1 msg/s
    // to measure steady-state delay rather than queue divergence.
    let interval_us: u64 = if payload > 4000 { 1_000_000 } else { 100_000 };

    println!("FIG3: round-trip delay vs #clients, single server, {payload}-byte messages");
    println!(
        "(the shipping server stepped under the DES clock at calibrated 1999 host costs; \
         mean over {messages} msgs)\n"
    );
    let widths = [8, 16, 16, 12];
    let head = ["clients", "stateful (ms)", "stateless (ms)", "overhead"];
    println!("{}", header(&head, &widths));

    let mut metrics = MetricsSnapshot::default();
    let mut prev_stateful: Option<f64> = None;
    let mut first = None;
    let mut capacity = CapacityModel::new(budget_us);
    for n in (5..=60).step_by(5) {
        let base = ExperimentConfig {
            n_clients: n,
            payload,
            messages,
            interval_us,
            ..ExperimentConfig::default()
        };
        let mut run = |stateful| {
            let (results, run_metrics) =
                roundtrip_with_metrics(ExperimentConfig { stateful, ..base });
            metrics.merge(&run_metrics);
            results
        };
        let (stateful, stateless) = (run(true), run(false));
        capacity.push(CapacityPoint {
            clients: n as u64,
            p99_us: p99_us(&stateful.rtts_us),
        });
        let overhead = (stateful.mean_ms - stateless.mean_ms) / stateless.mean_ms * 100.0;
        let cells = [
            n.to_string(),
            format!("{:.1} ±{:.1}", stateful.mean_ms, stateful.stddev_ms),
            format!("{:.1} ±{:.1}", stateless.mean_ms, stateless.stddev_ms),
            format!("{overhead:+.1}%"),
        ];
        println!("{}", row(&cells, &widths));
        if first.is_none() {
            first = Some(stateful.mean_ms);
        }
        prev_stateful = Some(stateful.mean_ms);
    }

    if let (Some(first), Some(last)) = (first, prev_stateful) {
        println!(
            "\nShape check: delay grows ~linearly ({first:.1} ms @5 clients -> {last:.1} ms @60); \
             the two curves stay within a few percent (paper: 'the two curves are very close')."
        );
    }

    // Capacity estimate for the health plane: the max population this
    // (simulated) single server sustains with p99 round trip inside
    // the SLO budget, interpolated between sweep points.
    println!(
        "\nHEALTH {{\"experiment\":\"fig3\",\"capacity\":{}}}",
        capacity.render_json()
    );
    match capacity.max_sustainable() {
        0 => println!("(no population met the {budget_us} us p99 budget)"),
        max => println!("(max sustainable clients at p99 < {budget_us} us: {max})"),
    }

    // The servers' own registries, merged across the sweep (both
    // curves): the kernel's counters and histograms, as on real sockets.
    println!(
        "\nEncode-once: {} frame encodes across the sweep — {messages} per run \
         regardless of population; the per-byte serialisation cost is paid once \
         per message, not once per recipient.",
        metrics.counter("server.fanout.encodes"),
    );
    println!("\nMETRICS {}", metrics.render_json());
}
