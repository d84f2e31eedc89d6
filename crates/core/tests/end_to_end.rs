//! End-to-end tests: real threaded server + client library over
//! loopback TCP, including persistence
//! across a server restart.

use corona_core::{client::CoronaClient, config::ServerConfig, server::CoronaServer, LockResult};
use corona_statelog::SyncPolicy;
use corona_transport::{Dialer, TcpDialer};
use corona_types::error::{CoronaError, ErrorCode};
use corona_types::id::{GroupId, ObjectId, SeqNo, ServerId};
use corona_types::message::ServerEvent;
use corona_types::policy::{
    DeliveryScope, MemberRole, MembershipChange, Persistence, StateTransferPolicy,
};
use corona_types::state::SharedState;
use std::time::Duration;

const G: GroupId = GroupId(1);
const O: ObjectId = ObjectId(1);

/// A server on a loopback port, and its address.
fn start(config: ServerConfig) -> (String, CoronaServer) {
    let server = CoronaServer::bind("127.0.0.1:0", config).unwrap();
    (server.local_addr(), server)
}

fn connect(addr: &str, name: &str) -> CoronaClient {
    CoronaClient::connect(TcpDialer.dial(addr).unwrap(), name, None).unwrap()
}

#[test]
fn basic_collaboration() {
    let (addr, server) = start(ServerConfig::stateful(ServerId::new(1)));
    let alice = connect(&addr, "alice");
    let bob = connect(&addr, "bob");

    alice
        .create_group(G, Persistence::Transient, SharedState::new())
        .unwrap();
    let (members, _) = alice
        .join(
            G,
            MemberRole::Principal,
            StateTransferPolicy::FullState,
            false,
        )
        .unwrap();
    assert_eq!(members.len(), 1);
    let (members, _) = bob
        .join(
            G,
            MemberRole::Principal,
            StateTransferPolicy::FullState,
            false,
        )
        .unwrap();
    assert_eq!(members.len(), 2);

    alice
        .bcast_update(G, O, &b"hi from alice"[..], DeliveryScope::SenderInclusive)
        .unwrap();

    for client in [&alice, &bob] {
        match client.next_event_timeout(Duration::from_secs(5)).unwrap() {
            ServerEvent::Multicast { logged, .. } => {
                assert_eq!(logged.update.payload.as_ref(), b"hi from alice");
                assert_eq!(logged.seq, SeqNo::new(1));
                assert_eq!(logged.sender, alice.client_id());
            }
            other => panic!("expected multicast, got {other:?}"),
        }
    }

    let stats = server.stats().unwrap();
    assert_eq!(stats.broadcasts, 1);
    assert_eq!(stats.deliveries, 2);
    alice.close();
    bob.close();
    server.shutdown();
}

#[test]
fn late_joiner_converges_via_mirror() {
    let (addr, server) = start(ServerConfig::stateful(ServerId::new(1)));
    let writer = connect(&addr, "writer");
    writer
        .create_group(G, Persistence::Transient, SharedState::new())
        .unwrap();
    writer
        .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();
    for i in 0..20 {
        writer
            .bcast_update(
                G,
                O,
                format!("{i};").into_bytes(),
                DeliveryScope::SenderExclusive,
            )
            .unwrap();
    }
    // Ensure all broadcasts are sequenced before the late join (ping
    // flushes the pipeline: the server handles requests in order).
    writer.ping().unwrap();

    let late = connect(&addr, "late");
    let (_, mirror) = late.join_mirrored(G, MemberRole::Observer, false).unwrap();
    let expected: String = (0..20).map(|i| format!("{i};")).collect();
    assert_eq!(
        mirror.state().object(O).unwrap().materialize().as_ref(),
        expected.as_bytes()
    );
    assert_eq!(mirror.last_seq(), SeqNo::new(20));

    // And the stream continues seamlessly.
    let mut mirror = mirror;
    writer
        .bcast_update(G, O, &b"20;"[..], DeliveryScope::SenderExclusive)
        .unwrap();
    let event = late.next_event_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(
        mirror.apply_event(&event),
        corona_core::ApplyOutcome::Applied
    );
    assert_eq!(mirror.last_seq(), SeqNo::new(21));
    server.shutdown();
}

#[test]
fn total_order_agrees_across_concurrent_senders() {
    let (addr, server) = start(ServerConfig::stateful(ServerId::new(1)));
    let a = connect(&addr, "a");
    a.create_group(G, Persistence::Transient, SharedState::new())
        .unwrap();
    let clients: Vec<CoronaClient> = (0..4)
        .map(|i| {
            let c = connect(&addr, &format!("c{i}"));
            c.join(G, MemberRole::Principal, StateTransferPolicy::None, false)
                .unwrap();
            c
        })
        .collect();

    // Fire concurrently from 4 threads.
    std::thread::scope(|s| {
        for (i, c) in clients.iter().enumerate() {
            s.spawn(move || {
                for k in 0..25 {
                    c.bcast_update(
                        G,
                        O,
                        format!("{i}:{k};").into_bytes(),
                        DeliveryScope::SenderInclusive,
                    )
                    .unwrap();
                }
            });
        }
    });

    // Every member sees the same 100 messages in the same total order,
    // and each sender's own messages appear in FIFO order.
    let mut orders = Vec::new();
    for c in &clients {
        let mut seen = Vec::new();
        while seen.len() < 100 {
            if let ServerEvent::Multicast { logged, .. } =
                c.next_event_timeout(Duration::from_secs(10)).unwrap()
            {
                seen.push((logged.seq, logged.update.payload.clone()))
            }
        }
        // Seq numbers strictly increasing.
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0));
        orders.push(seen);
    }
    for other in &orders[1..] {
        assert_eq!(&orders[0], other, "total order must agree");
    }
    // Per-sender FIFO.
    for i in 0..4 {
        let prefix = format!("{i}:");
        let ks: Vec<usize> = orders[0]
            .iter()
            .filter_map(|(_, p)| {
                let s = String::from_utf8_lossy(p);
                s.strip_prefix(&prefix)
                    .and_then(|rest| rest.trim_end_matches(';').parse().ok())
            })
            .collect();
        assert_eq!(ks, (0..25).collect::<Vec<_>>(), "sender {i} not FIFO");
    }
    server.shutdown();
}

#[test]
fn persistence_across_server_restart() {
    let dir = std::env::temp_dir().join(format!("corona-e2e-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    {
        let (addr, server) = start(
            ServerConfig::stateful(ServerId::new(1))
                .with_storage(&dir)
                .with_sync_policy(SyncPolicy::EveryRecord),
        );
        let c = connect(&addr, "creator");
        c.create_group(G, Persistence::Persistent, SharedState::new())
            .unwrap();
        c.join(G, MemberRole::Principal, StateTransferPolicy::None, false)
            .unwrap();
        for i in 0..10 {
            c.bcast_update(
                G,
                O,
                format!("{i},").into_bytes(),
                DeliveryScope::SenderExclusive,
            )
            .unwrap();
        }
        c.ping().unwrap(); // flush pipeline
        c.close();
        server.shutdown();
    }

    // Restart on the same storage directory.
    {
        let (addr, server) = start(ServerConfig::stateful(ServerId::new(1)).with_storage(&dir));
        let c = connect(&addr, "rejoiner");
        let (_, transfer) = c
            .join(
                G,
                MemberRole::Principal,
                StateTransferPolicy::FullState,
                false,
            )
            .unwrap();
        let expected: String = (0..10).map(|i| format!("{i},")).collect();
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
        c.close();
        server.shutdown();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reconnect_resume_and_catchup() {
    let (addr, server) = start(ServerConfig::stateful(ServerId::new(1)));
    let a = connect(&addr, "a");
    a.create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    a.join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();

    let b = connect(&addr, "b");
    let b_id = b.client_id();
    let (_, transfer) = b
        .join(
            G,
            MemberRole::Principal,
            StateTransferPolicy::FullState,
            false,
        )
        .unwrap();
    let seen_through = transfer.through;
    // b "crashes".
    b.close();
    drop(b);

    // Traffic continues while b is away.
    for i in 0..5 {
        a.bcast_update(
            G,
            O,
            format!("{i}").into_bytes(),
            DeliveryScope::SenderExclusive,
        )
        .unwrap();
    }
    a.ping().unwrap();

    // b reconnects with its old identity and catches up incrementally.
    let b_conn = TcpDialer.dial(&addr).unwrap();
    let b = CoronaClient::connect(b_conn, "b", Some(b_id)).unwrap();
    assert_eq!(b.client_id(), b_id, "identity resumed");
    b.join(
        G,
        MemberRole::Principal,
        StateTransferPolicy::UpdatesSince(seen_through),
        false,
    )
    .map(|(_, transfer)| {
        assert_eq!(transfer.updates.len(), 5);
        assert_eq!(transfer.basis, seen_through);
    })
    .unwrap();
    server.shutdown();
}

#[test]
fn lock_service_over_transport() {
    let (addr, server) = start(ServerConfig::stateful(ServerId::new(1)));
    let a = connect(&addr, "a");
    let b = connect(&addr, "b");
    a.create_group(G, Persistence::Transient, SharedState::new())
        .unwrap();
    a.join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();
    b.join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();

    assert_eq!(a.acquire_lock(G, O, false).unwrap(), LockResult::Granted);
    assert_eq!(
        b.acquire_lock(G, O, false).unwrap(),
        LockResult::Denied {
            holder: a.client_id()
        }
    );

    // Blocking acquire: release from a thread, b's wait resolves.
    let a_id = a.client_id();
    let handle = std::thread::spawn(move || b.acquire_lock(G, O, true));
    std::thread::sleep(Duration::from_millis(100));
    a.release_lock(G, O).unwrap();
    assert_eq!(handle.join().unwrap().unwrap(), LockResult::Granted);
    let _ = a_id;
    server.shutdown();
}

#[test]
fn protocol_errors_surface_as_typed_errors() {
    let (addr, server) = start(ServerConfig::stateful(ServerId::new(1)));
    let c = connect(&addr, "c");
    // Join a group that does not exist.
    let err = c
        .join(
            G,
            MemberRole::Principal,
            StateTransferPolicy::FullState,
            false,
        )
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::NoSuchGroup));
    // Create twice.
    c.create_group(G, Persistence::Transient, SharedState::new())
        .unwrap();
    let err = c
        .create_group(G, Persistence::Transient, SharedState::new())
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::GroupExists));
    // Leave without being a member.
    let err = c.leave(G).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::NotAMember));
    server.shutdown();
}

#[test]
fn membership_awareness_notifications() {
    let (addr, server) = start(ServerConfig::stateful(ServerId::new(1)));
    let watcher = connect(&addr, "watcher");
    watcher
        .create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    watcher
        .join(G, MemberRole::Principal, StateTransferPolicy::None, true)
        .unwrap();

    let visitor = connect(&addr, "visitor");
    visitor
        .join(G, MemberRole::Observer, StateTransferPolicy::None, false)
        .unwrap();
    let visitor_id = visitor.client_id();

    match watcher.next_event_timeout(Duration::from_secs(5)).unwrap() {
        ServerEvent::MembershipChanged { change, info, .. } => {
            assert_eq!(change, MembershipChange::Joined(visitor_id));
            assert_eq!(info.display_name, "visitor");
            assert_eq!(info.role, MemberRole::Observer);
        }
        other => panic!("expected join notification, got {other:?}"),
    }

    // Abrupt disconnect -> Disconnected notification.
    visitor.close();
    match watcher.next_event_timeout(Duration::from_secs(5)).unwrap() {
        ServerEvent::MembershipChanged { change, .. } => {
            // Goodbye path reports Left; a hard close reports
            // Disconnected. Both are acceptable leave-style changes.
            assert_eq!(change.client(), visitor_id);
            assert!(matches!(
                change,
                MembershipChange::Left(_) | MembershipChange::Disconnected(_)
            ));
        }
        other => panic!("expected leave notification, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn group_deletion_notifies_members() {
    let (addr, server) = start(ServerConfig::stateful(ServerId::new(1)));
    let owner = connect(&addr, "owner");
    let member = connect(&addr, "member");
    owner
        .create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    member
        .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();
    owner.delete_group(G).unwrap();
    match member.next_event_timeout(Duration::from_secs(5)).unwrap() {
        ServerEvent::GroupDeleted { group } => assert_eq!(group, G),
        other => panic!("expected deletion notice, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn works_over_real_tcp() {
    let server =
        CoronaServer::bind("127.0.0.1:0", ServerConfig::stateful(ServerId::new(1))).unwrap();
    let addr = server.local_addr();

    let alice = CoronaClient::connect(TcpDialer.dial(&addr).unwrap(), "alice", None).unwrap();
    let bob = CoronaClient::connect(TcpDialer.dial(&addr).unwrap(), "bob", None).unwrap();

    alice
        .create_group(G, Persistence::Transient, SharedState::new())
        .unwrap();
    alice
        .join(
            G,
            MemberRole::Principal,
            StateTransferPolicy::FullState,
            false,
        )
        .unwrap();
    bob.join(
        G,
        MemberRole::Principal,
        StateTransferPolicy::FullState,
        false,
    )
    .unwrap();

    // 1000-byte payloads as in the paper's experiments.
    let payload = vec![0x42u8; 1000];
    for _ in 0..50 {
        alice
            .bcast_update(G, O, payload.clone(), DeliveryScope::SenderInclusive)
            .unwrap();
    }
    let mut alice_got = 0;
    let mut bob_got = 0;
    while alice_got < 50 {
        if let ServerEvent::Multicast { logged, .. } =
            alice.next_event_timeout(Duration::from_secs(10)).unwrap()
        {
            assert_eq!(logged.update.payload.len(), 1000);
            alice_got += 1;
        }
    }
    while bob_got < 50 {
        if let ServerEvent::Multicast { .. } =
            bob.next_event_timeout(Duration::from_secs(10)).unwrap()
        {
            bob_got += 1;
        }
    }
    let rtt = alice.ping().unwrap();
    assert!(rtt < Duration::from_secs(1));
    alice.close();
    bob.close();
    server.shutdown();
}

#[test]
fn disconnected_client_errors_cleanly() {
    let (addr, server) = start(ServerConfig::stateful(ServerId::new(1)));
    let c = connect(&addr, "c");
    server.shutdown();
    // After server shutdown, calls fail with Disconnected (or a closed
    // transport error), never hang.
    let err = c
        .create_group(G, Persistence::Transient, SharedState::new())
        .unwrap_err();
    assert!(
        matches!(err, CoronaError::Disconnected | CoronaError::Timeout { .. }),
        "unexpected error: {err:?}"
    );
}
