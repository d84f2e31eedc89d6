//! Health-plane integration tests: the `Health` admin command over
//! the wire, the stats satellite fields, and the acceptance scenario —
//! a coordinator killed mid-broadcast trips the sequencing-stall
//! watchdog (structured ops event + automatic flight-recorder dump)
//! and the post-failover snapshot shows the gap closed.

use corona::health::WatchdogConfig;
use corona::prelude::*;
use corona::sim::loopback::Cluster;
use std::time::{Duration, Instant};

const G: GroupId = GroupId(1);
const O: ObjectId = ObjectId(1);

/// Pulls the integer value of `"key":N` out of a flat JSON rendering.
fn json_u64(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let digits: String = json[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

#[test]
fn health_snapshot_over_the_wire_and_stats_satellites() {
    let server =
        CoronaServer::bind("127.0.0.1:0", ServerConfig::stateful(ServerId::new(1))).unwrap();
    let connect = |name: &str| {
        let conn = TcpDialer.dial(&server.local_addr()).unwrap();
        CoronaClient::connect(conn, name, None).unwrap()
    };
    let (alice, bob) = (connect("alice"), connect("bob"));
    alice
        .create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    alice
        .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();
    bob.join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();
    for i in 0..5u8 {
        alice
            .bcast_update(G, O, vec![i], DeliveryScope::SenderExclusive)
            .unwrap();
    }
    // Drain bob so delivery counters advance deterministically.
    for _ in 0..5 {
        bob.next_event_timeout(Duration::from_secs(5)).unwrap();
    }

    // The snapshot arrives over the wire, versioned.
    let (schema, json) = alice.health().unwrap();
    assert_eq!(schema, corona::health::SCHEMA_VERSION);
    assert!(json.starts_with("{\"schema\":1,"), "snapshot: {json}");
    assert_eq!(json_u64(&json, "submitted"), Some(5), "snapshot: {json}");
    assert_eq!(json_u64(&json, "sequenced"), Some(5));
    assert_eq!(json_u64(&json, "members"), Some(2));
    assert!(json.contains("\"stalled\":false"));
    assert!(json.contains("\"fanout\":{\"queue_hwm\":"));
    assert!(json.contains("\"slo\":{\"budget_us\":"));
    // Unauthenticated admin probes work too (no Hello required), and
    // the snapshot sequence number is monotonic across requests.
    let (_, json2) = bob.health().unwrap();
    assert!(
        json_u64(&json2, "seq") > json_u64(&json, "seq"),
        "snapshot seq must advance: {json2}"
    );

    // Satellite: the Stats admin JSON carries uptime and a monotonic
    // snapshot sequence.
    let stats = server.stats().unwrap();
    let rendered = stats.render_json();
    assert!(json_u64(&rendered, "uptime_ms").is_some(), "{rendered}");
    let s1 = stats.snapshot_seq;
    let s2 = server.stats().unwrap().snapshot_seq;
    assert!(s2 > s1, "stats snapshot_seq must be monotonic");

    // Satellite: the fan-out queue high-watermark gauge is registered
    // and the wire snapshot mirrors it.
    let snap = server.metrics().unwrap();
    assert!(
        snap.gauge("server.fanout.queue_hwm") >= 0,
        "queue_hwm gauge missing"
    );

    alice.close();
    bob.close();
    server.shutdown();
}

/// The acceptance scenario: kill the coordinator mid-broadcast. The
/// surviving replica's sequencing-stall watchdog must trip (ops event
/// naming the group, with an automatic flight-recorder dump), and once
/// the election resolves and traffic resumes, the stall must recover
/// and the snapshot must show the gap closed.
#[test]
fn coordinator_kill_mid_broadcast_trips_stall_then_heals() {
    let dump_dir = std::env::temp_dir().join(format!("corona-health-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dump_dir);
    std::fs::create_dir_all(&dump_dir).unwrap();
    std::env::set_var("CORONA_TRACE_DIR", &dump_dir);
    corona::trace::set_enabled(true);

    let watchdog = WatchdogConfig {
        stall_after_ms: 150,
        ..WatchdogConfig::default()
    };
    // The election must resolve decisively *slower* than the 150 ms
    // stall threshold: with a fast timeout the surviving replica can
    // win and resume sequencing before the watchdog ever sees a 150 ms
    // quiet window, and the trip is a race.
    let mut cluster = Cluster::start(3, |c| ReplicatedConfig {
        base_timeout_ms: 450,
        server_config: c.server_config.with_watchdog(watchdog),
        ..c
    });

    // The writer sits on s2 — the replica that survives the fault and
    // whose health plane we watch.
    let writer = cluster.client("w", 2);
    writer
        .create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    writer
        .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();

    // Echo-confirmed send: retries until the update is sequenced (a
    // forward handed to a dead coordinator is lost for good).
    let send_confirmed = |payload: &str| {
        let payload = payload.as_bytes().to_vec();
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            writer
                .bcast_update(G, O, payload.clone(), DeliveryScope::SenderInclusive)
                .unwrap();
            let confirm = Instant::now() + Duration::from_secs(5);
            while Instant::now() < confirm {
                if let Ok(ServerEvent::Multicast { logged, .. }) =
                    writer.next_event_timeout(Duration::from_millis(200))
                {
                    if logged.update.payload.as_ref() == payload.as_slice() {
                        return;
                    }
                }
            }
            assert!(Instant::now() < deadline, "broadcast was never sequenced");
        }
    };

    // Healthy traffic under the initial coordinator (s1).
    for i in 0..3 {
        send_confirmed(&format!("pre{i};"));
    }

    // Kill the coordinator mid-broadcast: a hard crash, not a goodbye.
    cluster.kill(1);

    // Keep submitting while nothing can be sequenced: this is exactly
    // the condition the stall watchdog guards. The broadcasts are
    // fire-and-forget forwards into the void until the election
    // resolves.
    let health = cluster.server(2).health_registry();
    let deadline = Instant::now() + Duration::from_secs(15);
    let stall = loop {
        writer
            .bcast_update(G, O, &b"mid;"[..], DeliveryScope::SenderInclusive)
            .unwrap();
        if let Some(e) = health
            .ops_events()
            .into_iter()
            .find(|e| e.kind == "sequencing_stall")
        {
            break e;
        }
        assert!(
            Instant::now() < deadline,
            "sequencing stall never tripped; ops: {:?}",
            health.ops_events()
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    // The ops event names the group and carries the automatic flight
    // dump.
    assert_eq!(stall.group, Some(G), "stall event names the group");
    let dump = stall
        .flight_dump
        .as_ref()
        .expect("stall event carries a flight-recorder dump path");
    let body = std::fs::read_to_string(dump).expect("flight dump readable");
    assert!(!body.is_empty(), "flight dump is empty");

    // Traffic resumes once s2 wins the election; the echo-confirmed
    // send retries across the failover.
    send_confirmed("post;");

    // The watchdog must emit the recovery event...
    let deadline = Instant::now() + Duration::from_secs(10);
    while !health
        .ops_events()
        .iter()
        .any(|e| e.kind == "sequencing_stall_recovered")
    {
        assert!(
            Instant::now() < deadline,
            "stall never recovered; ops: {:?}",
            health.ops_events()
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // ...and the post-failover snapshot shows the gap closed: the
    // group is no longer stalled and everything sequenced has been
    // delivered (the writer is the only local member, and its echo is
    // confirmed).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let json = cluster.server(2).health_json().unwrap();
        let lag = json_u64(&json, "lag");
        if json.contains("\"stalled\":false") && lag == Some(0) {
            assert!(
                json_u64(&json, "elections") >= Some(1),
                "election not counted: {json}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "gap never closed after failover: {json}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    writer.close();
    cluster.shutdown();
    corona::trace::set_enabled(false);
    corona::trace::clear();
    let _ = std::fs::remove_dir_all(&dump_dir);
}
