//! Smoke tests asserting that every experiment harness reproduces the
//! paper's qualitative result (the EXPERIMENTS.md claims, enforced in
//! CI). The full sweeps are `corona-sim`'s `paper` bin; these runs are
//! scaled down to keep the suite fast.

use corona::prelude::*;
use corona::sim::{roundtrip, throughput, ExperimentConfig, PENTIUM_II_200, ULTRASPARC_1};

#[test]
fn fig3_linear_and_stateful_close_to_stateless() {
    let mut prev = 0.0;
    for n in [10, 20, 40, 60] {
        let stateful = roundtrip(ExperimentConfig {
            n_clients: n,
            messages: 60,
            ..ExperimentConfig::default()
        });
        let stateless = roundtrip(ExperimentConfig {
            n_clients: n,
            stateful: false,
            messages: 60,
            ..ExperimentConfig::default()
        });
        assert!(stateful.mean_ms > prev, "monotone growth");
        prev = stateful.mean_ms;
        let gap = (stateful.mean_ms - stateless.mean_ms) / stateless.mean_ms;
        assert!(
            gap.abs() < 0.05,
            "curves must nearly coincide, gap {gap:.3}"
        );
    }
}

#[test]
fn fig3_10k_has_steeper_slope() {
    let slope = |payload: usize| {
        let lo = roundtrip(ExperimentConfig {
            n_clients: 10,
            payload,
            messages: 40,
            ..ExperimentConfig::default()
        })
        .mean_ms;
        let hi = roundtrip(ExperimentConfig {
            n_clients: 50,
            payload,
            messages: 40,
            ..ExperimentConfig::default()
        })
        .mean_ms;
        (hi - lo) / 40.0
    };
    assert!(slope(10_000) > 2.0 * slope(1_000));
}

#[test]
fn table1_ordering_holds() {
    let run = |payload, profile| {
        throughput(
            ExperimentConfig {
                n_clients: 6,
                payload,
                server_profile: profile,
                ..ExperimentConfig::default()
            },
            20_000_000,
        )
        .kbytes_per_sec
    };
    assert!(run(10_000, ULTRASPARC_1) > run(1_000, ULTRASPARC_1));
    // Encode-once fan-out leaves both hosts wire-bound at 1000 B (the
    // UltraSparc's CPU 90 % busy, the Pentium II's 55 %): they tie.
    assert_eq!(run(1_000, PENTIUM_II_200), run(1_000, ULTRASPARC_1));
}

#[test]
fn table2_replication_wins_and_gap_widens() {
    let mut gaps = Vec::new();
    for n in [100, 200, 300] {
        let base = ExperimentConfig {
            n_clients: n,
            messages: 20,
            closed_loop: true,
            ..ExperimentConfig::default()
        };
        let single = roundtrip(ExperimentConfig {
            n_servers: 1,
            ..base
        })
        .mean_ms;
        let multi = roundtrip(ExperimentConfig {
            n_servers: 6,
            ..base
        })
        .mean_ms;
        assert!(multi < single, "{n}: {multi} !< {single}");
        gaps.push(single - multi);
    }
    assert!(
        gaps.windows(2).all(|w| w[0] < w[1]),
        "gap must widen: {gaps:?}"
    );
}

/// Runs a fixed two-group workload (two members, five broadcasts into
/// g1, three into g2, all sender-inclusive) against a server built
/// from `config` and returns its metrics snapshot.
fn metered_workload(config: ServerConfig) -> MetricsSnapshot {
    let server = CoronaServer::bind("127.0.0.1:0", config).unwrap();
    let connect = |name: &str| {
        let conn = TcpDialer.dial(&server.local_addr()).unwrap();
        CoronaClient::connect(conn, name, None).unwrap()
    };
    let (alice, bea) = (connect("alice"), connect("bea"));

    let (g1, g2) = (GroupId::new(1), GroupId::new(2));
    for g in [g1, g2] {
        alice
            .create_group(g, Persistence::Transient, SharedState::new())
            .unwrap();
        alice
            .join(g, MemberRole::Principal, StateTransferPolicy::None, false)
            .unwrap();
        bea.join(g, MemberRole::Principal, StateTransferPolicy::None, false)
            .unwrap();
    }
    let o = ObjectId::new(1);
    for i in 0..5u8 {
        alice
            .bcast_update(g1, o, vec![i], DeliveryScope::SenderInclusive)
            .unwrap();
    }
    for i in 0..3u8 {
        bea.bcast_update(g2, o, vec![i], DeliveryScope::SenderInclusive)
            .unwrap();
    }
    // A ping per client syncs the dispatcher past each one's requests.
    alice.ping().unwrap();
    bea.ping().unwrap();

    let snap = server.metrics().unwrap();
    alice.close();
    bea.close();
    server.shutdown();
    snap
}

#[test]
fn per_group_delivery_counters_sum_to_the_total() {
    let snap = metered_workload(ServerConfig::stateful(ServerId::new(1)));
    let total = snap.counter("core.deliveries");
    // Sender-inclusive fan-out to two members: 8 broadcasts x 2.
    assert_eq!(total, 16);
    assert_eq!(
        snap.counter_sum("core.group."),
        total,
        "per-group deliveries must partition the total"
    );
    assert_eq!(snap.counter("core.group.g1.deliveries"), 10);
    assert_eq!(snap.counter("core.group.g2.deliveries"), 6);
}

#[test]
fn stateful_and_stateless_sequence_the_same_broadcast_count() {
    let stateful = metered_workload(ServerConfig::stateful(ServerId::new(1)));
    let stateless = metered_workload(ServerConfig::stateless(ServerId::new(1)));
    assert_eq!(stateful.counter("core.broadcasts"), 8);
    assert_eq!(
        stateful.counter("core.broadcasts"),
        stateless.counter("core.broadcasts"),
        "statefulness must not change how many broadcasts are sequenced"
    );
}

#[test]
fn nothing_is_shed_with_qos_disabled() {
    let snap = metered_workload(ServerConfig::stateful(ServerId::new(1)));
    assert_eq!(snap.counter("server.shed"), 0);
    assert_eq!(snap.counter_sum("server.group."), 0);
}
