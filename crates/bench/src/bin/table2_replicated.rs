//! **TAB2** — regenerates Table 2 of the paper: "Roundtrip delay
//! (msec) for a multicast message of size 1000 bytes, using a single
//! server vs multiple servers".
//!
//! Configuration mirrors §5.2.3: six stepped replicated servers, one
//! of them the coordinator, each with its clients on its own LAN
//! segment and every server↔server link a few routers away (the
//! backbone profile); 100, 200 and 300 clients; compared against one
//! stepped server carrying the same population.

use corona_bench::{arg_value, header, row};
use corona_core::client::CoronaClient;
use corona_core::ServerConfig;
use corona_health::{CapacityModel, CapacityPoint};
use corona_metrics::{MetricsSnapshot, Registry};
use corona_replication::{ReplicatedConfig, ReplicatedServer};
use corona_sim::{p99_us, roundtrip_with_metrics, ExperimentConfig};
use corona_transport::{Dialer, Listener, Nemesis, ReactorListener, TcpDialer};
use corona_types::id::{GroupId, ObjectId, ServerId};
use corona_types::message::ServerEvent;
use corona_types::policy::{DeliveryScope, MemberRole, Persistence, StateTransferPolicy};
use corona_types::state::SharedState;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    // SLO budget for the per-replica capacity estimate (HEALTH line).
    let budget_us: u64 = arg_value("--slo-budget-us")
        .and_then(|v| v.parse().ok())
        .unwrap_or(50_000);
    println!("TAB2: round-trip delay (ms), 1000-byte multicast, single vs 6 replicated servers");
    println!(
        "(the shipping servers stepped under the DES clock; worst-positioned measuring client)\n"
    );
    let widths = [10, 16, 20, 10];
    let head = ["clients", "single (ms)", "replicated (ms)", "speedup"];
    println!("{}", header(&head, &widths));

    let mut single_metrics = MetricsSnapshot::default();
    let mut replicated_metrics = MetricsSnapshot::default();
    let mut capacity = CapacityModel::new(budget_us);
    for n in [100, 200, 300] {
        let base = ExperimentConfig {
            n_clients: n,
            payload: 1000,
            messages: 100,
            closed_loop: true,
            ..ExperimentConfig::default()
        };
        let run = |n_servers, metrics: &mut MetricsSnapshot| {
            let (results, run_metrics) =
                roundtrip_with_metrics(ExperimentConfig { n_servers, ..base });
            metrics.merge(&run_metrics);
            results
        };
        let single = run(1, &mut single_metrics);
        let replicated = run(6, &mut replicated_metrics);
        // Per-replica load: the population is spread over the six
        // member servers, so a point at N total clients measures a
        // replica carrying N/6.
        capacity.push(CapacityPoint {
            clients: (n / 6) as u64,
            p99_us: p99_us(&replicated.rtts_us),
        });
        let cells = [
            n.to_string(),
            format!("{:.0}", single.mean_ms),
            format!("{:.0}", replicated.mean_ms),
            format!("{:.1}x", single.mean_ms / replicated.mean_ms),
        ];
        println!("{}", row(&cells, &widths));
    }

    println!(
        "\nShape check: the replicated service wins at every population and the gap\n\
         widens with scale — the member servers fan out to their local clients in\n\
         parallel over separate segments, while the single server serialises all\n\
         N sends on one CPU and one wire (paper: 'better scalability and\n\
         responsiveness to user requests are achieved')."
    );

    // Per-replica capacity estimate for the health plane: the largest
    // per-member-server client load whose p99 round trip stays inside
    // the SLO budget.
    println!(
        "\nHEALTH {{\"experiment\":\"table2\",\"capacity\":{}}}",
        capacity.render_json()
    );
    match capacity.max_sustainable() {
        0 => println!("(no per-replica load met the {budget_us} us p99 budget)"),
        max => println!("(max sustainable clients per replica at p99 < {budget_us} us: {max})"),
    }

    // Per topology, its servers' own registries merged across all
    // three populations: the kernel's and the replication layer's
    // counters and histograms.
    println!("\nMETRICS single {}", single_metrics.render_json());
    println!("METRICS replicated {}", replicated_metrics.render_json());

    // Partition-heal recovery: real 3-server clusters over loopback
    // TCP, coordinator stranded in a minority until it
    // fences, majority elects a successor and keeps sequencing; the
    // clock runs from heal() until the stranded server's client has
    // the reconciled stream (the missed entry replayed). Regression
    // baseline for later partition work.
    let heal_runs: usize = arg_value("--heal-runs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(12);
    let mut recover_ms: Vec<u64> = (0..heal_runs)
        .map(|_| partition_heal_recovery_ms())
        .collect();
    recover_ms.sort_unstable();
    let pct = |q: usize| recover_ms[(recover_ms.len() - 1) * q / 100];
    println!(
        "\npartition-heal recovery over {heal_runs} runs: p50 {} ms, p99 {} ms",
        pct(50),
        pct(99)
    );
    println!(
        "PARTITION_HEAL {{\"experiment\":\"table2\",\"runs\":{heal_runs},\"p50_ms\":{},\"p99_ms\":{}}}",
        pct(50),
        pct(99)
    );
}

/// One partition-heal cycle against a live cluster; returns the
/// heal-to-reconciled-stream latency in milliseconds.
fn partition_heal_recovery_ms() -> u64 {
    const G: GroupId = GroupId(1);
    const O: ObjectId = ObjectId(1);
    // Every fault goes through the nemesis around the peer mesh; server
    // `i` is the node `s{i}`, its addresses named before anyone dials.
    let nem = Nemesis::new(0, &Registry::new());
    let bind = |i: u64| {
        let listener = ReactorListener::bind("127.0.0.1:0", 1).expect("bind");
        nem.register_addr(&listener.local_addr(), &format!("s{i}"));
        listener
    };
    let listeners: Vec<_> = (1..=3).map(|i| (i, bind(i), bind(i))).collect();
    let addrs = |pick: fn(&(u64, ReactorListener, ReactorListener)) -> &ReactorListener| {
        let addr = |l: &(u64, _, _)| (ServerId::new(l.0), pick(l).local_addr());
        listeners.iter().map(addr).collect::<Vec<_>>()
    };
    let (client_addrs, peers) = (addrs(|l| &l.1), addrs(|l| &l.2));
    let servers: Vec<ReplicatedServer> = listeners
        .into_iter()
        .map(|(i, client, peer)| {
            let node = format!("s{i}");
            ReplicatedServer::start(
                Box::new(client),
                nem.wrap_listener(&node, Box::new(peer)),
                Arc::from(nem.wrap_dialer(&node, Box::new(TcpDialer))),
                ReplicatedConfig {
                    servers: peers.clone(),
                    client_addrs: client_addrs.clone(),
                    heartbeat_ms: 10,
                    base_timeout_ms: 100,
                    server_config: ServerConfig::stateful(ServerId::new(i)),
                },
            )
            .expect("start server")
        })
        .collect();
    let connect = |name: &str, srv: u64| -> CoronaClient {
        let conn = TcpDialer
            .dial(&client_addrs[srv as usize - 1].1)
            .expect("dial");
        let mut c = CoronaClient::connect(conn, name, None).expect("connect");
        c.set_call_timeout(Duration::from_secs(15));
        c
    };
    let alice = connect("alice", 1);
    let bob = connect("bob", 2);
    alice
        .create_group(G, Persistence::Persistent, SharedState::new())
        .expect("create");
    alice
        .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .expect("join");
    bob.join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .expect("join");
    let send = |c: &CoronaClient, payload: &str| {
        c.bcast_update(
            G,
            O,
            payload.as_bytes().to_vec(),
            DeliveryScope::SenderInclusive,
        )
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
    let wait_for = |what: &str, mut done: Box<dyn FnMut() -> bool>| {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !done() {
            assert!(Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    };

    send(&alice, "base;");
    wait_payload(&alice, "base;");
    wait_payload(&bob, "base;");

    // Strand the coordinator: cut both peer links in both directions.
    nem.partition(&[&["s1"], &["s2", "s3"]]);
    let health = servers[0].health_registry();
    wait_for("s1 fence", Box::new(move || health.fenced()));
    {
        let s2 = &servers[1];
        let s3 = &servers[2];
        wait_for(
            "majority election",
            Box::new(move || {
                [s2, s3].iter().all(|s| {
                    s.status()
                        .map(|st| st.coordinator == Some(ServerId::new(2)))
                        .unwrap_or(false)
                })
            }),
        );
    }
    send(&bob, "mid;");
    wait_payload(&bob, "mid;");

    // The measured window: heal until the stranded side's client has
    // the entry it missed (replayed by the reconciliation).
    let t0 = Instant::now();
    nem.heal();
    wait_payload(&alice, "mid;");
    let elapsed = t0.elapsed().as_millis() as u64;

    alice.close();
    bob.close();
    for s in servers {
        s.shutdown();
    }
    elapsed
}
