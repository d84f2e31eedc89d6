//! Integration tests of the replicated Corona service over loopback
//! TCP: cross-server total order, transparent client protocol,
//! coordinator failover with state rebuild from hot-standby replicas.

use corona_core::client::CoronaClient;
use corona_replication::{ReplicatedConfig, ReplicatedServer};
use corona_sim::loopback::Cluster;
use corona_transport::{Dialer, ReactorListener, TcpDialer};
use corona_types::frame::{read_frame, write_frame};
use corona_types::id::{GroupId, ObjectId, SeqNo, ServerId};
use corona_types::message::ServerEvent;
use corona_types::policy::{DeliveryScope, MemberRole, Persistence, StateTransferPolicy};
use corona_types::state::SharedState;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const G: GroupId = GroupId(1);
const O: ObjectId = ObjectId(1);

/// `n` servers on loopback TCP with a 150 ms base timeout; `s1`
/// coordinates first.
fn start(n: u64) -> Cluster {
    Cluster::start(n, |c| ReplicatedConfig {
        base_timeout_ms: 150,
        ..c
    })
}

fn next_multicast(c: &CoronaClient, timeout: Duration) -> (SeqNo, Vec<u8>) {
    let deadline = Instant::now() + timeout;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        match c.next_event_timeout(remaining.max(Duration::from_millis(1))) {
            Ok(ServerEvent::Multicast { logged, .. }) => {
                return (logged.seq, logged.update.payload.to_vec())
            }
            Ok(_) => continue,
            Err(e) => panic!("no multicast within timeout: {e}"),
        }
    }
}

#[test]
fn cross_server_collaboration_with_total_order() {
    let cluster = start(3);
    // Clients on three different servers.
    let a = cluster.client("alice", 1);
    let b = cluster.client("bob", 2);
    let c = cluster.client("carol", 3);

    a.create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    a.join(
        G,
        MemberRole::Principal,
        StateTransferPolicy::FullState,
        false,
    )
    .unwrap();
    let (members, _) = b
        .join(
            G,
            MemberRole::Principal,
            StateTransferPolicy::FullState,
            false,
        )
        .unwrap();
    assert_eq!(members.len(), 2);
    c.join(
        G,
        MemberRole::Principal,
        StateTransferPolicy::FullState,
        false,
    )
    .unwrap();

    // Interleaved broadcasts from different servers.
    a.bcast_update(G, O, &b"from-a;"[..], DeliveryScope::SenderInclusive)
        .unwrap();
    b.bcast_update(G, O, &b"from-b;"[..], DeliveryScope::SenderInclusive)
        .unwrap();
    c.bcast_update(G, O, &b"from-c;"[..], DeliveryScope::SenderInclusive)
        .unwrap();

    // Every client observes the same totally ordered stream.
    let mut streams = Vec::new();
    for client in [&a, &b, &c] {
        let mut stream = Vec::new();
        for _ in 0..3 {
            stream.push(next_multicast(client, Duration::from_secs(10)));
        }
        assert!(stream.windows(2).all(|w| w[0].0 < w[1].0), "seq increasing");
        streams.push(stream);
    }
    assert_eq!(streams[0], streams[1]);
    assert_eq!(streams[1], streams[2]);
    for id in 1..=3 {
        cluster.server(id).status().unwrap();
    }
}

#[test]
fn late_joiner_on_other_server_gets_state_transfer() {
    let cluster = start(2);
    let writer = cluster.client("writer", 1);
    writer
        .create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    writer
        .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();
    for i in 0..10 {
        writer
            .bcast_update(
                G,
                O,
                format!("{i};").into_bytes(),
                DeliveryScope::SenderExclusive,
            )
            .unwrap();
    }
    // Flush the forward pipeline (membership query is FIFO behind the
    // broadcasts on the same peer connection).
    writer.membership(G).unwrap();

    let late = cluster.client("late", 2);
    let (_, transfer) = late
        .join(
            G,
            MemberRole::Principal,
            StateTransferPolicy::FullState,
            false,
        )
        .unwrap();
    let expected: String = (0..10).map(|i| format!("{i};")).collect();
    assert_eq!(
        transfer
            .reconstruct()
            .object(O)
            .unwrap()
            .materialize()
            .as_ref(),
        expected.as_bytes()
    );
    assert_eq!(transfer.through, SeqNo::new(10));
}

#[test]
fn sender_exclusive_across_servers() {
    let cluster = start(2);
    let a = cluster.client("a", 1);
    let b = cluster.client("b", 2);
    a.create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    a.join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();
    b.join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();

    a.bcast_update(G, O, &b"x"[..], DeliveryScope::SenderExclusive)
        .unwrap();
    // b receives it; a must not.
    let (seq, payload) = next_multicast(&b, Duration::from_secs(10));
    assert_eq!(seq, SeqNo::new(1));
    assert_eq!(payload, b"x");
    assert!(
        a.next_event_timeout(Duration::from_millis(300)).is_err(),
        "sender-exclusive echoed to sender"
    );
}

#[test]
fn coordinator_failover_preserves_group_state() {
    let mut cluster = start(3);
    let b = cluster.client("bob", 2);
    let c = cluster.client("carol", 3);

    b.create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    b.join(G, MemberRole::Principal, StateTransferPolicy::None, true)
        .unwrap();
    c.join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();
    for i in 0..5 {
        b.bcast_update(
            G,
            O,
            format!("pre{i};").into_bytes(),
            DeliveryScope::SenderExclusive,
        )
        .unwrap();
    }
    // Drain carol's copies to confirm pre-crash traffic flowed.
    for _ in 0..5 {
        next_multicast(&c, Duration::from_secs(10));
    }

    // Kill the coordinator (s1). s2 should win the election.
    cluster.kill(1);
    cluster.wait_coordinator(&[2, 3], 2, Duration::from_secs(10));

    // Service continues: bob (on the new coordinator) and carol (on
    // s3) keep collaborating, with state rebuilt from the replicas.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match b.bcast_update(G, O, &b"post;"[..], DeliveryScope::SenderExclusive) {
            Ok(()) => {}
            Err(e) => panic!("broadcast after failover failed: {e}"),
        }
        // The first post-failover broadcasts may race the resync; keep
        // trying until carol sees one.
        match c.next_event_timeout(Duration::from_millis(500)) {
            Ok(ServerEvent::Multicast { logged, .. }) => {
                assert_eq!(logged.update.payload.as_ref(), b"post;");
                break;
            }
            Ok(_) => continue,
            Err(_) => {
                assert!(Instant::now() < deadline, "no post-failover delivery");
            }
        }
    }

    // A brand-new client joining via s3 sees the pre-crash state: the
    // new coordinator rebuilt it from hot-standby copies.
    let d = cluster.client("dave", 3);
    let (_, transfer) = d
        .join(
            G,
            MemberRole::Principal,
            StateTransferPolicy::FullState,
            false,
        )
        .unwrap();
    let state = transfer.reconstruct();
    let materialized = state.object(O).unwrap().materialize();
    let text = String::from_utf8_lossy(&materialized);
    assert!(
        text.starts_with("pre0;pre1;pre2;pre3;pre4;"),
        "pre-crash state lost: {text:?}"
    );
}

#[test]
fn status_reports_roles() {
    let cluster = start(3);
    cluster.wait_coordinator(&[1, 2, 3], 1, Duration::from_secs(5));
    let statuses: Vec<_> = (1..=3)
        .map(|id| cluster.server(id).status().unwrap())
        .collect();
    assert!(statuses[0].is_coordinator);
    assert!(!statuses[1].is_coordinator);
    assert_eq!(statuses[1].coordinator, Some(ServerId::new(1)));
    assert_eq!(statuses[2].me, ServerId::new(3));
}

#[test]
fn hundred_clients_spread_over_servers() {
    // A miniature Table-2 configuration: clients spread over member
    // servers, one measuring client checks round-trip sanity.
    let cluster = start(3);
    let creator = cluster.client("creator", 1);
    creator
        .create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    creator
        .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();

    let receivers: Vec<CoronaClient> = (0..30)
        .map(|i| {
            let c = cluster.client(&format!("r{i}"), (i % 3) + 1);
            c.join(G, MemberRole::Observer, StateTransferPolicy::None, false)
                .unwrap();
            c
        })
        .collect();

    creator
        .bcast_update(G, O, vec![7u8; 1000], DeliveryScope::SenderInclusive)
        .unwrap();
    let (seq, payload) = next_multicast(&creator, Duration::from_secs(10));
    assert_eq!(seq, SeqNo::new(1));
    assert_eq!(payload.len(), 1000);
    for r in &receivers {
        let (_, p) = next_multicast(r, Duration::from_secs(10));
        assert_eq!(p.len(), 1000);
    }
}

#[test]
fn member_server_crash_cleans_up_its_clients() {
    let mut cluster = start(3);
    let watcher = cluster.client("watcher", 2);
    watcher
        .create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    watcher
        .join(G, MemberRole::Principal, StateTransferPolicy::None, true)
        .unwrap();
    let doomed = cluster.client("doomed", 3);
    doomed
        .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();
    let doomed_id = doomed.client_id();
    assert_eq!(watcher.membership(G).unwrap().len(), 2);

    // Crash the member server hosting `doomed`.
    cluster.kill(3);

    // The watcher eventually observes the membership shrink and hears
    // the awareness notification. Generous deadline: under a loaded
    // single-core CI box the crash-detection read can starve a while.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if watcher.membership(G).unwrap().len() == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "membership never cleaned up");
        std::thread::sleep(Duration::from_millis(50));
    }
    let mut notified = false;
    while let Ok(ev) = watcher.next_event_timeout(Duration::from_millis(300)) {
        if let ServerEvent::MembershipChanged { change, .. } = ev {
            if change.client() == doomed_id {
                notified = true;
                break;
            }
        }
    }
    assert!(
        notified,
        "no awareness notification for the crashed server's client"
    );
}

#[test]
fn cascading_coordinator_failures() {
    // s1 dies -> s2 coordinates; state survives via the hot-standby
    // copies. An election needs a majority of all configured servers,
    // so of 3 only one may die.
    let mut cluster = start(3);
    let carol = cluster.client("carol", 3);
    carol
        .create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    carol
        .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();
    carol
        .bcast_update(G, O, &b"epoch0;"[..], DeliveryScope::SenderExclusive)
        .unwrap();
    carol.membership(G).unwrap(); // flush

    // First failover: s1 dies, s2 takes over (2 of 3 alive = majority).
    cluster.kill(1);
    cluster.wait_coordinator(&[2, 3], 2, Duration::from_secs(10));

    // Carol keeps working through the new coordinator.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        carol
            .bcast_update(G, O, &b"epoch1;"[..], DeliveryScope::SenderInclusive)
            .unwrap();
        match carol.next_event_timeout(Duration::from_millis(500)) {
            Ok(ServerEvent::Multicast { logged, .. })
                if logged.update.payload.as_ref() == b"epoch1;" =>
            {
                break
            }
            _ => assert!(Instant::now() < deadline, "no delivery after failover"),
        }
    }

    // A late joiner still sees the pre-failover write.
    let dave = cluster.client("dave", 3);
    let (_, transfer) = dave
        .join(
            G,
            MemberRole::Principal,
            StateTransferPolicy::FullState,
            false,
        )
        .unwrap();
    let text = String::from_utf8_lossy(&transfer.reconstruct().object(O).unwrap().materialize())
        .into_owned();
    assert!(
        text.starts_with("epoch0;"),
        "lost pre-failover state: {text}"
    );
}

/// A client send that fails — here a capacity-1 transmit queue meeting
/// a subscriber that stopped reading — must not be swallowed: the
/// laggard is disconnected and reaped (a gap would desynchronise its
/// mirror), it is counted, and the surviving subscriber's stream stays
/// gap-free.
#[test]
fn laggard_client_is_dropped_and_survivors_keep_a_gap_free_stream() {
    use corona_types::message::{ClientRequest, PROTOCOL_VERSION};
    use corona_types::wire::{decode_traced, Encode};

    let cluster = Cluster::start(2, |c| ReplicatedConfig {
        base_timeout_ms: 150,
        server_config: c.server_config.with_send_queue_capacity(1),
        ..c
    });
    let sender = cluster.client("sender", 1);
    let live = cluster.client("live", 2);
    sender
        .create_group(G, Persistence::Transient, SharedState::new())
        .unwrap();
    for c in [&sender, &live] {
        c.join(G, MemberRole::Principal, StateTransferPolicy::None, false)
            .unwrap();
    }

    // The laggard speaks the wire protocol over a bare socket and
    // stops reading once its join completes.
    let mut raw = TcpStream::connect(cluster.client_addr(2)).unwrap();
    let mut exchange = |request: ClientRequest, want: fn(&ServerEvent) -> bool| {
        write_frame(&mut raw, &request.encode_to_bytes()).unwrap();
        loop {
            let frame = read_frame(&mut raw).unwrap().expect("server hung up");
            let event = decode_traced::<ServerEvent>(&frame).unwrap().0;
            if want(&event) {
                return event;
            }
            // Roster / membership pushes may interleave.
            assert!(
                matches!(
                    event,
                    ServerEvent::Roster { .. } | ServerEvent::MembershipChanged { .. }
                ),
                "waiting for a reply, got {event:?}"
            );
        }
    };
    let hello = ClientRequest::Hello {
        version: PROTOCOL_VERSION,
        display_name: "laggard".into(),
        resume: None,
    };
    let ServerEvent::Welcome {
        client: laggard_id, ..
    } = exchange(hello, |e| matches!(e, ServerEvent::Welcome { .. }))
    else {
        unreachable!()
    };
    let join = ClientRequest::Join {
        group: G,
        role: MemberRole::Principal,
        policy: StateTransferPolicy::None,
        notify_membership: false,
    };
    exchange(join, |e| matches!(e, ServerEvent::Joined { .. }));
    let follower = cluster.server(2);
    assert_eq!(follower.status().unwrap().local_clients, 2);

    // Broadcasts fill the laggard's socket, then its queue; the next
    // finds the queue full. The live subscriber reads each frame before
    // the next send, so only the laggard can overflow.
    let payload = vec![0x5au8; 128 * 1024];
    let broadcast = || {
        sender
            .bcast_update(G, O, payload.clone(), DeliveryScope::SenderExclusive)
            .unwrap();
        let (seq, got) = next_multicast(&live, Duration::from_secs(10));
        assert_eq!(got, payload);
        seq.raw()
    };
    let mut seqs = Vec::new();
    while follower.metrics().counter("server.fanout.dead_conn") == 0 {
        assert!(
            seqs.len() < 400,
            "laggard survived {} broadcasts",
            seqs.len()
        );
        seqs.push(broadcast());
    }

    // The kernel reaps in the same dispatcher step as the failed
    // enqueue — exactly as `tests/fanout_stack.rs` asserts for the
    // single server — so the very next command the follower answers
    // already shows the result. No polling.
    assert_eq!(follower.status().unwrap().local_clients, 1);
    assert_eq!(follower.metrics().counter("server.fanout.dead_conn"), 1);

    seqs.push(broadcast());
    assert!(
        seqs.windows(2).all(|w| w[1] == w[0] + 1),
        "survivor's stream has a gap: {seqs:?}"
    );
    assert_eq!(follower.metrics().counter("server.fanout.dead_conn"), 1);
    let members = sender.membership(G).unwrap();
    assert!(
        members.iter().all(|m| m.client != laggard_id),
        "reap must emit the session leave: {members:?}"
    );
}

/// A peer link that delivers an undecodable frame is counted and
/// closed — not silently ignored — and the cluster carries on
/// sequencing without a gap.
#[test]
fn garbage_on_a_peer_link_is_counted_and_the_link_closed() {
    let cluster = start(2);
    let sender = cluster.client("sender", 1);
    let live = cluster.client("live", 2);
    sender
        .create_group(G, Persistence::Transient, SharedState::new())
        .unwrap();
    for c in [&sender, &live] {
        c.join(G, MemberRole::Principal, StateTransferPolicy::None, false)
            .unwrap();
    }
    let broadcast = |payload: &'static [u8]| {
        sender
            .bcast_update(G, O, payload, DeliveryScope::SenderExclusive)
            .unwrap();
        let (seq, got) = next_multicast(&live, Duration::from_secs(10));
        assert_eq!(got, payload);
        seq.raw()
    };
    let mut seqs = vec![broadcast(b"before")];

    let follower = cluster.server(2);
    let mut intruder = TcpStream::connect(cluster.peer_addr(2)).unwrap();
    write_frame(&mut intruder, b"\xffnot a peer message").unwrap();
    // The follower closes the link in the step that fails to decode;
    // the intruder's blocking read observes it.
    intruder
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert!(
        matches!(read_frame(&mut intruder), Ok(None)),
        "garbage link must be closed"
    );
    assert_eq!(follower.metrics().counter("repl.peer.decode_errors"), 1);

    seqs.extend([broadcast(b"after"), broadcast(b"again")]);
    assert!(
        seqs.windows(2).all(|w| w[1] == w[0] + 1),
        "stream has a gap after the bad peer frame: {seqs:?}"
    );
    assert_eq!(follower.metrics().counter("repl.peer.decode_errors"), 1);
}

/// Regression (unbounded connect on the dispatcher): a replica dials
/// its peers from the thread that sequences every client request,
/// sends heartbeats and polls the watchdogs. Against a host that
/// answers no SYN an unbounded `connect` is the kernel's retry budget
/// — minutes — per attempt, so the dial must be bounded by the
/// failure-detection time. A lone replica whose peers are both black
/// holes keeps answering its client.
#[test]
fn unreachable_peers_cannot_stall_the_dispatcher() {
    use corona_transport::{Connection, TransportError};

    const HEARTBEAT: Duration = Duration::from_millis(30);
    /// Every address is a black hole: a bounded dial waits out the
    /// bound it was given, an unbounded one a SYN-retry budget.
    struct BlackHole;
    impl Dialer for BlackHole {
        fn dial_timeout(
            &self,
            _addr: &str,
            timeout: Duration,
        ) -> Result<Box<dyn Connection>, TransportError> {
            assert!(timeout <= HEARTBEAT, "dial bound {timeout:?} is too lax");
            std::thread::sleep(timeout);
            Err(TransportError::Timeout)
        }
        fn dial(&self, _addr: &str) -> Result<Box<dyn Connection>, TransportError> {
            std::thread::sleep(Duration::from_secs(60));
            Err(TransportError::Timeout)
        }
    }

    let listen = || Box::new(ReactorListener::bind("127.0.0.1:0", 1).unwrap());
    let peers: Vec<(ServerId, String)> = (1..=3)
        .map(|i| (ServerId::new(i), format!("s{i}-peer")))
        .collect();
    let config = ReplicatedConfig {
        heartbeat_ms: HEARTBEAT.as_millis() as u64,
        base_timeout_ms: 150,
        ..ReplicatedConfig::new(ServerId::new(1), peers)
    };
    let server = ReplicatedServer::start(listen(), listen(), Arc::new(BlackHole), config).unwrap();

    let conn = TcpDialer.dial(&server.client_addr()).unwrap();
    let alice = CoronaClient::connect(conn, "alice", None).unwrap();
    // Keep asking across several rounds of failed dials (each counted).
    let failed_dials = || server.metrics().counter("repl.peer.send_failed");
    let deadline = Instant::now() + Duration::from_secs(10);
    while failed_dials() < 6 {
        assert!(Instant::now() < deadline, "the replica never dialled");
        let asked = Instant::now();
        alice.ping().unwrap();
        // One command runs between two ticks, and a tick dials each of
        // the two dead peers once.
        assert!(
            asked.elapsed() < 20 * HEARTBEAT,
            "ping took {:?} with both peers unreachable",
            asked.elapsed()
        );
    }
    alice.close();
    server.shutdown();
}
