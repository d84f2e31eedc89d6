//! Failure-injection integration tests: client crashes and
//! reconnection catch-up (the companion-paper territory the paper
//! cites in §4.2), network partitions between halves of a replicated
//! deployment, and the application-selectable partition merge.

use corona::prelude::*;
use corona::replication::{find_divergence, merge, MergeResolution, Side};
use corona::sim::loopback::Cluster;
use corona::statelog::{GroupLog, StableStore, SyncPolicy};
use corona::transport::Nemesis;
use std::sync::Arc;
use std::time::{Duration, Instant};

const G: GroupId = GroupId(1);
const O: ObjectId = ObjectId(1);

/// A single server, the node "server", on a loopback port, and a fault
/// plane through which [`connect`] dials it.
fn single_server() -> (Nemesis, CoronaServer) {
    let server =
        CoronaServer::bind("127.0.0.1:0", ServerConfig::stateful(ServerId::new(1))).unwrap();
    let nem = Nemesis::new(0, &Registry::new());
    nem.register_addr(&server.local_addr(), "server");
    (nem, server)
}

/// Connects `name` (also its node name) with an optional old identity.
fn connect(
    server: &CoronaServer,
    nem: &Nemesis,
    name: &str,
    resume: Option<ClientId>,
) -> CoronaClient {
    let dialer = nem.wrap_dialer(name, Box::new(TcpDialer));
    let conn = dialer.dial(&server.local_addr()).unwrap();
    CoronaClient::connect(conn, name, resume).unwrap()
}

#[test]
fn client_crash_releases_locks_and_membership() {
    let (nem, server) = single_server();
    let stable = connect(&server, &nem, "stable", None);
    let flaky = connect(&server, &nem, "flaky", None);

    stable
        .create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    stable
        .join(G, MemberRole::Principal, StateTransferPolicy::None, true)
        .unwrap();
    flaky
        .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();
    assert_eq!(
        flaky.acquire_lock(G, O, false).unwrap(),
        LockResult::Granted
    );

    // The stable client queues behind the lock, then the holder's link
    // is severed (a crash, not a goodbye).
    let flaky_id = flaky.client_id();
    let waiter = std::thread::spawn({
        let nem = nem.clone();
        move || {
            std::thread::sleep(Duration::from_millis(100));
            nem.sever("flaky", "server");
        }
    });
    // Blocking acquire resolves once the server detects the crash and
    // hands the lock over.
    assert_eq!(
        stable.acquire_lock(G, O, true).unwrap(),
        LockResult::Granted
    );
    waiter.join().unwrap();

    // Awareness: the survivor hears about the disconnect.
    let mut saw_disconnect = false;
    while let Ok(event) = stable.next_event_timeout(Duration::from_secs(2)) {
        if let ServerEvent::MembershipChanged { change, .. } = event {
            if change == MembershipChange::Disconnected(flaky_id) {
                saw_disconnect = true;
                break;
            }
        }
    }
    assert!(saw_disconnect, "no disconnect notification");
    assert_eq!(stable.membership(G).unwrap().len(), 1);
    stable.close();
    server.shutdown();
}

#[test]
fn reconnecting_client_catches_up_after_link_failure() {
    let (nem, server) = single_server();
    let writer = connect(&server, &nem, "writer", None);
    writer
        .create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    writer
        .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();

    let roaming = connect(&server, &nem, "roaming", None);
    let roaming_id = roaming.client_id();
    let (_, mut mirror) = roaming
        .join_mirrored(G, MemberRole::Observer, false)
        .unwrap();

    writer
        .bcast_update(G, O, &b"1;"[..], DeliveryScope::SenderExclusive)
        .unwrap();
    let ev = roaming.next_event_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(mirror.apply_event(&ev), ApplyOutcome::Applied);

    // Link failure while traffic continues.
    nem.sever("roaming", "server");
    for i in 2..=6 {
        writer
            .bcast_update(
                G,
                O,
                format!("{i};").into_bytes(),
                DeliveryScope::SenderExclusive,
            )
            .unwrap();
    }
    writer.ping().unwrap();

    // Reconnect with the old identity, rejoin with incremental
    // catch-up from the mirror's last seq, resync the mirror.
    let reconnected = connect(&server, &nem, "roaming", Some(roaming_id));
    assert_eq!(reconnected.client_id(), roaming_id);
    let (_, transfer) = reconnected
        .join(G, MemberRole::Observer, mirror.catch_up_policy(), false)
        .unwrap();
    assert_eq!(transfer.updates.len(), 5, "exactly the missed window");
    mirror.resync(&transfer);
    assert_eq!(
        mirror.state().object(O).unwrap().materialize().as_ref(),
        b"1;2;3;4;5;6;"
    );
    assert_eq!(mirror.last_seq(), SeqNo::new(6));

    writer.close();
    reconnected.close();
    server.shutdown();
}

/// The replicated-service failover path end to end: the coordinator
/// is partitioned away mid-stream, a replica wins the election, the
/// sequence numbers resume without a gap, and the failover shows up
/// in the replication metrics (`repl.elections.*`, `repl.failover_ms`).
#[test]
fn coordinator_partition_mid_stream_failover_is_gap_free_and_metered() {
    // Route the automatic flight-recorder dump somewhere inspectable:
    // resolving a failover must flush the recorded spans to disk.
    let dump_dir = std::env::temp_dir().join(format!("corona-flight-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dump_dir);
    std::fs::create_dir_all(&dump_dir).unwrap();
    std::env::set_var("CORONA_TRACE_DIR", &dump_dir);
    corona::trace::set_enabled(true);

    let cluster = Cluster::start(3, |c| ReplicatedConfig {
        base_timeout_ms: 150,
        ..c
    });
    let bob = cluster.client("bob", 2);
    let carol = cluster.client("carol", 3);

    bob.create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    bob.join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();
    carol
        .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();

    let mut seqs = Vec::new();
    let mut pump = |carol: &CoronaClient, want: usize| {
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut got = 0;
        while got < want {
            assert!(
                Instant::now() < deadline,
                "timed out waiting for multicasts; seqs so far {seqs:?}"
            );
            match carol.next_event_timeout(Duration::from_millis(500)) {
                Ok(ServerEvent::Multicast { logged, .. }) => {
                    seqs.push(logged.seq.0);
                    got += 1;
                }
                Ok(_) => {}
                Err(_) => {}
            }
        }
    };

    // A stream of broadcasts under the initial coordinator (s1).
    for i in 0..3 {
        bob.bcast_update(
            G,
            O,
            format!("pre{i};").into_bytes(),
            DeliveryScope::SenderExclusive,
        )
        .unwrap();
    }
    pump(&carol, 3);

    // Partition the coordinator away from everyone else, mid-stream:
    // its existing connections become black holes, so s2 and s3 see
    // heartbeats stop (a network failure, not a clean shutdown).
    cluster.isolate(1);

    // The first surviving server in the list (s2) must win.
    cluster.wait_coordinator(&[2, 3], 2, Duration::from_secs(10));

    // The stream resumes through the new coordinator.
    for i in 0..3 {
        bob.bcast_update(
            G,
            O,
            format!("post{i};").into_bytes(),
            DeliveryScope::SenderExclusive,
        )
        .unwrap();
    }
    pump(&carol, 3);

    // Connectivity restored: the healed network must not disturb the
    // surviving majority (s1's stale-epoch heartbeats are ignored).
    cluster.nem.heal();
    bob.bcast_update(G, O, &b"healed;"[..], DeliveryScope::SenderExclusive)
        .unwrap();
    pump(&carol, 1);

    // Gap-free sequencing across the failover: every multicast seq is
    // exactly the predecessor plus one.
    assert_eq!(
        seqs,
        (1..=7).collect::<Vec<u64>>(),
        "sequence gap: {seqs:?}"
    );

    // The failover left a trace in the new coordinator's metrics.
    let snap = cluster.server(2).metrics();
    assert!(
        snap.counter("repl.elections.rounds") >= 1,
        "no election round recorded"
    );
    assert!(
        snap.counter("repl.elections.won") >= 1,
        "no election win recorded"
    );
    let failover = snap
        .histogram("repl.failover_ms")
        .expect("failover histogram missing");
    assert!(failover.count >= 1, "failover duration not recorded");
    assert!(
        failover.max < 10_000,
        "implausible failover duration: {} ms",
        failover.max
    );
    // The new coordinator heartbeats the survivors (and s3 hears
    // them). The phases above can finish between two ticks, so poll.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if cluster.server(2).metrics().counter("repl.heartbeats.sent") > 0
            && cluster.server(3).metrics().counter("repl.heartbeats.recv") > 0
        {
            break;
        }
        assert!(Instant::now() < deadline, "no post-failover heartbeats");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Resolving the failover must have dumped the flight recorder:
    // a JSONL spool of the spans leading up to the election, written
    // without being asked — that's the whole point of a black box.
    let deadline = Instant::now() + Duration::from_secs(5);
    let dump = loop {
        let found = std::fs::read_dir(&dump_dir).ok().and_then(|entries| {
            entries.flatten().map(|e| e.path()).find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("corona-flight-failover-"))
                    && p.extension().is_some_and(|e| e == "jsonl")
            })
        });
        if let Some(path) = found {
            break path;
        }
        assert!(Instant::now() < deadline, "no flight-recorder dump found");
        std::thread::sleep(Duration::from_millis(25));
    };
    let body = std::fs::read_to_string(&dump).unwrap();
    assert!(
        body.lines().any(|l| l.contains("\"hop\":\"election\"")),
        "flight dump lacks the election span: {body}"
    );

    bob.close();
    carol.close();
    cluster.shutdown();
    corona::trace::set_enabled(false);
    corona::trace::clear();
    let _ = std::fs::remove_dir_all(&dump_dir);
}

/// A seed that accepts and never answers costs `connect_failover` one
/// `connect_timeout` for its `Welcome`, and the next seed is tried.
#[test]
fn a_silent_seed_costs_connect_failover_one_connect_timeout() {
    const TIMEOUT: Duration = Duration::from_millis(500);
    // The kernel completes the handshake; nobody ever reads or writes.
    let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let server =
        CoronaServer::bind("127.0.0.1:0", ServerConfig::stateful(ServerId::new(1))).unwrap();
    let seeds = vec![
        silent.local_addr().unwrap().to_string(),
        server.local_addr(),
    ];
    // On a helper thread: a client that hangs fails the test, not the
    // suite.
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let config = FailoverConfig {
            connect_timeout: TIMEOUT,
            ..FailoverConfig::default()
        };
        let started = Instant::now();
        let client = CoronaClient::connect_failover(Arc::new(TcpDialer), seeds, "patient", config);
        let _ = done.send((client.map(|c| c.server_id()), started.elapsed()));
    });
    let (connected, took) = outcome
        .recv_timeout(2 * TIMEOUT)
        .expect("connect_failover is still waiting on the silent seed");
    assert_eq!(connected.unwrap(), ServerId::new(1), "the second seed");
    assert!(took >= TIMEOUT, "gave the silent seed {took:?}");
    drop(silent);
    server.shutdown();
}

/// Polls a supervised mirror until it has applied `want` sequenced
/// updates (or panics after a generous deadline).
fn wait_mirror(mirror: &SharedMirror, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if mirror.lock().unwrap().last_seq().0 >= want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "mirror stuck at seq {}, want {want}",
            mirror.lock().unwrap().last_seq().0
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The client failover runtime end to end: a supervised client
/// (auto-reconnect with backoff, session resume, mirror gap repair)
/// rides out a server kill with a gap-free, duplicate-free mirror.
///
/// `CORONA_FAULT_SEED` selects the injected fault — the ci.sh fault
/// matrix runs all three:
///
/// 1. kill the coordinator mid-stream (default);
/// 2. kill the follower the client is attached to (no election);
/// 3. sever the client's link first, stream through the outage, then
///    kill the coordinator while the client is catching up.
#[test]
fn supervised_clients_survive_server_kill() {
    let fault: u64 = std::env::var("CORONA_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    assert!(
        (1..=3).contains(&fault),
        "unknown CORONA_FAULT_SEED {fault}"
    );

    let mut cluster = Cluster::start(3, |c| ReplicatedConfig {
        base_timeout_ms: 150,
        ..c
    });

    // A plain writer on s2, which no fault touches.
    let writer = cluster.client("w", 2);
    writer
        .create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    writer
        .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();

    // The supervised client, attached to the server the fault targets.
    let attach = if fault == 2 { 3 } else { 1 };
    let registry = Registry::new();
    let roam = CoronaClient::connect_failover(
        cluster.dialer("roam"),
        vec![cluster.client_addr(attach)],
        "roam",
        FailoverConfig {
            registry: Some(registry.clone()),
            ..Default::default()
        },
    )
    .unwrap();
    let (_members, mirror) = roam
        .join_supervised(G, MemberRole::Observer, false)
        .unwrap();

    // Broadcast forwards are fire-and-forget: one handed to a
    // coordinator that dies before sequencing it is lost for good.
    // `SenderInclusive` scope echoes every sequenced update back to
    // the writer, so each send waits for its echo and re-sends if the
    // fault swallowed it — duplicate-safe, because a forward lost at
    // a dead coordinator can never be sequenced later.
    let send = |i: u64| {
        let payload = format!("{i};").into_bytes();
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
            assert!(
                Instant::now() < deadline,
                "broadcast {i} was never sequenced"
            );
        }
    };
    // Mid-stream: the mirror is live when the fault hits.
    for i in 1..=3 {
        send(i);
    }
    wait_mirror(&mirror, 3);

    let mut next = 4;
    match fault {
        1 => cluster.kill(1),
        2 => cluster.kill(3),
        3 => {
            // Lose the client's link only, stream a window it must
            // later repair, then kill the coordinator while the
            // client is mid-reconnect.
            cluster.nem.partition(&[&["roam"], &["s1"]]);
            cluster.nem.sever("roam", "s1");
            for i in 4..=6 {
                send(i);
            }
            next = 7;
            cluster.kill(1);
            cluster.nem.heal();
        }
        _ => unreachable!(),
    }

    // Traffic during the client's outage: the resume-time
    // UpdatesSince repair must cover it.
    for i in next..next + 3 {
        send(i);
    }
    next += 3;

    // The driver must land on a surviving server.
    let deadline = Instant::now() + Duration::from_secs(20);
    while registry.snapshot().counter("client.reconnects") < 1 {
        assert!(Instant::now() < deadline, "client never reconnected");
        std::thread::sleep(Duration::from_millis(20));
    }

    // And live traffic flows again.
    for i in next..next + 3 {
        send(i);
    }
    let total = next + 2;
    wait_mirror(&mirror, total);

    // Gap-free and duplicate-free across the failover: the mirror's
    // materialised object is exactly the concatenation in order (a
    // duplicate would double-append; a gap would drop a token).
    let body = mirror
        .lock()
        .unwrap()
        .state()
        .object(O)
        .unwrap()
        .materialize();
    let want: String = (1..=total).map(|i| format!("{i};")).collect();
    assert_eq!(
        body.as_ref(),
        want.as_bytes(),
        "mirror diverged across failover (fault {fault})"
    );
    assert_eq!(mirror.lock().unwrap().last_seq().0, total);

    // The driver's work is metered.
    let snap = registry.snapshot();
    assert!(
        snap.counter("client.reconnects") >= 1,
        "no reconnect counted"
    );
    let backoff = snap
        .histogram("client.backoff_ms")
        .expect("backoff histogram missing");
    assert!(backoff.count >= 1, "no backoff round recorded");

    // The client learned the post-fault roster: after a coordinator
    // kill the roster must name the new coordinator (s2).
    if fault == 1 {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if roam.roster().map(|r| r.coordinator) == Some(ServerId::new(2)) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "roster never named the new coordinator: {:?}",
                roam.roster()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    } else {
        assert!(roam.roster().is_some(), "no roster advertised");
    }

    writer.close();
    roam.close();
    cluster.shutdown();
}

/// Builds a server on its own storage dir, runs `edits` against it,
/// shuts it down, and returns the recovered group log — one partition
/// side's history.
fn run_partition_side(dir: &std::path::Path, create: bool, edits: &[&str]) -> GroupLog {
    let server = CoronaServer::bind(
        "127.0.0.1:0",
        ServerConfig::stateful(ServerId::new(1))
            .with_storage(dir)
            .with_sync_policy(SyncPolicy::EveryRecord),
    )
    .unwrap();
    let conn = TcpDialer.dial(&server.local_addr()).unwrap();
    let c = CoronaClient::connect(conn, "c", None).unwrap();
    if create {
        c.create_group(G, Persistence::Persistent, SharedState::new())
            .unwrap();
    }
    c.join(
        G,
        MemberRole::Principal,
        StateTransferPolicy::FullState,
        false,
    )
    .unwrap();
    for e in edits {
        c.bcast_update(G, O, e.as_bytes().to_vec(), DeliveryScope::SenderExclusive)
            .unwrap();
    }
    c.ping().unwrap();
    c.close();
    server.shutdown();

    let store = StableStore::open(dir, SyncPolicy::OsDefault).unwrap();
    let (recovered, _) = store.recover_group(G).unwrap().unwrap();
    recovered.log
}

#[test]
fn partition_divergence_and_merge_end_to_end() {
    // Two replicas share a prefix, partition, evolve independently
    // (each side's server keeps sequencing its own clients), then the
    // histories are compared and merged per §4.2.
    let base = std::env::temp_dir().join(format!("corona-partition-{}", std::process::id()));
    let dir_a = base.join("a");
    let dir_b = base.join("b");
    let _ = std::fs::remove_dir_all(&base);

    // Shared prefix on side A's storage, then duplicate it to B —
    // the state both sides held when the network split.
    run_partition_side(&dir_a, true, &["shared1;", "shared2;"]);
    copy_dir(&dir_a, &dir_b);

    // The partition: each side evolves separately.
    let log_a = run_partition_side(&dir_a, false, &["a-only;"]);
    let log_b = run_partition_side(&dir_b, false, &["b1;", "b2;"]);

    // Connectivity restored: identify the last globally consistent
    // state from checkpoints and sequence numbers.
    let divergence = find_divergence(&log_a, &log_b);
    assert_eq!(divergence.common_seq, SeqNo::new(2));
    assert!(divergence.is_conflicting());

    let text = |log: &GroupLog| {
        String::from_utf8_lossy(&log.current_state().object(O).unwrap().materialize()).into_owned()
    };

    // Choice 1: roll back to the consistent state.
    let rolled = merge(&divergence, MergeResolution::RollBack);
    assert_eq!(text(&rolled.primary), "shared1;shared2;");

    // Choice 2: select one of the updated states.
    let adopted = merge(&divergence, MergeResolution::Adopt(Side::B));
    assert_eq!(text(&adopted.primary), "shared1;shared2;b1;b2;");

    // Choice 3: evolve as two different groups.
    let forked = merge(
        &divergence,
        MergeResolution::Fork {
            keep: Side::A,
            fork_group: GroupId::new(2),
        },
    );
    assert_eq!(text(&forked.primary), "shared1;shared2;a-only;");
    let fork = forked.fork.unwrap();
    assert_eq!(fork.group(), GroupId::new(2));
    assert_eq!(text(&fork), "shared1;shared2;b1;b2;");

    std::fs::remove_dir_all(&base).ok();
}

fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}
