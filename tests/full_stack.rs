//! Cross-crate integration tests through the `corona` facade: a full
//! collaborative session exercising state transfer policies, mirrors,
//! locks, awareness, log reduction and persistence together.

use corona::prelude::*;
use std::time::Duration;

const G: GroupId = GroupId(1);
const DOC: ObjectId = ObjectId(1);

fn tcp_server(config: ServerConfig) -> (String, CoronaServer) {
    let server = CoronaServer::bind("127.0.0.1:0", config).unwrap();
    (server.local_addr(), server)
}

fn connect(addr: &str, name: &str) -> CoronaClient {
    CoronaClient::connect(TcpDialer.dial(addr).unwrap(), name, None).unwrap()
}

#[test]
fn collaborative_editing_session() {
    let (addr, server) = tcp_server(ServerConfig::stateful(ServerId::new(1)));
    let ann = connect(&addr, "ann");
    let bob = connect(&addr, "bob");

    ann.create_group(
        G,
        Persistence::Persistent,
        SharedState::from_objects([(DOC, &b"# Title\n"[..])]),
    )
    .unwrap();
    let (_, mut ann_mirror) = ann.join_mirrored(G, MemberRole::Principal, true).unwrap();
    let (_, mut bob_mirror) = bob.join_mirrored(G, MemberRole::Principal, true).unwrap();

    // The creation-time initial state arrived via the join transfer.
    assert_eq!(
        bob_mirror
            .state()
            .object(DOC)
            .unwrap()
            .materialize()
            .as_ref(),
        b"# Title\n"
    );

    // Interleaved edits under the lock service.
    assert_eq!(ann.acquire_lock(G, DOC, true).unwrap(), LockResult::Granted);
    ann.bcast_update(
        G,
        DOC,
        &b"ann's paragraph\n"[..],
        DeliveryScope::SenderInclusive,
    )
    .unwrap();
    ann.release_lock(G, DOC).unwrap();

    assert_eq!(bob.acquire_lock(G, DOC, true).unwrap(), LockResult::Granted);
    bob.bcast_update(
        G,
        DOC,
        &b"bob's paragraph\n"[..],
        DeliveryScope::SenderInclusive,
    )
    .unwrap();
    bob.release_lock(G, DOC).unwrap();

    // Both mirrors converge via the sequenced stream.
    for mirror_and_client in [(&mut ann_mirror, &ann), (&mut bob_mirror, &bob)] {
        let (mirror, client) = mirror_and_client;
        let mut applied = 0;
        while applied < 2 {
            let event = client.next_event_timeout(Duration::from_secs(10)).unwrap();
            if mirror.apply_event(&event) == ApplyOutcome::Applied {
                applied += 1;
            }
        }
    }
    let expected = b"# Title\nann's paragraph\nbob's paragraph\n";
    assert_eq!(
        ann_mirror
            .state()
            .object(DOC)
            .unwrap()
            .materialize()
            .as_ref(),
        expected.as_slice()
    );
    assert_eq!(
        bob_mirror
            .state()
            .object(DOC)
            .unwrap()
            .materialize()
            .as_ref(),
        expected.as_slice()
    );

    ann.close();
    bob.close();
    server.shutdown();
}

#[test]
fn log_reduction_is_transparent_to_late_joiners() {
    let (addr, server) = tcp_server(
        ServerConfig::stateful(ServerId::new(1))
            .with_reduction(ReductionPolicy::MaxUpdates { max: 10, keep: 4 }),
    );
    let writer = connect(&addr, "writer");
    writer
        .create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    writer
        .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();
    for i in 0..40 {
        writer
            .bcast_update(
                G,
                DOC,
                format!("{i};").into_bytes(),
                DeliveryScope::SenderExclusive,
            )
            .unwrap();
    }
    writer.ping().unwrap();

    // Despite multiple automatic reductions, a full-state join sees
    // everything.
    let reader = connect(&addr, "reader");
    let (_, transfer) = reader
        .join(
            G,
            MemberRole::Principal,
            StateTransferPolicy::FullState,
            false,
        )
        .unwrap();
    let expected: String = (0..40).map(|i| format!("{i};")).collect();
    assert_eq!(
        transfer
            .reconstruct()
            .object(DOC)
            .unwrap()
            .materialize()
            .as_ref(),
        expected.as_bytes()
    );

    // An UpdatesSince older than the checkpoint degrades gracefully to
    // a full transfer.
    let old = reader
        .state(G, StateTransferPolicy::UpdatesSince(SeqNo::new(1)))
        .unwrap();
    assert!(
        !old.objects.is_empty(),
        "reduced-away window must fall back to full state"
    );
    assert_eq!(
        old.reconstruct()
            .object(DOC)
            .unwrap()
            .materialize()
            .as_ref(),
        expected.as_bytes()
    );

    let stats = server.stats().unwrap();
    assert!(stats.reductions >= 1, "policy should have fired");
    writer.close();
    reader.close();
    server.shutdown();
}

#[test]
fn explicit_client_reduction_via_facade() {
    let (addr, server) = tcp_server(ServerConfig::stateful(ServerId::new(1)));
    let c = connect(&addr, "c");
    c.create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    c.join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();
    for i in 0..10 {
        c.bcast_update(
            G,
            DOC,
            format!("{i}").into_bytes(),
            DeliveryScope::SenderExclusive,
        )
        .unwrap();
    }
    c.ping().unwrap();
    let through = c.reduce_log(G, Some(SeqNo::new(7))).unwrap();
    assert_eq!(through, SeqNo::new(7));
    // Asking beyond the log is a typed error.
    let err = c.reduce_log(G, Some(SeqNo::new(99))).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::BadReductionPoint));
    c.close();
    server.shutdown();
}

#[test]
fn observers_receive_but_cannot_write() {
    let (addr, server) = tcp_server(ServerConfig::stateful(ServerId::new(1)));
    let writer = connect(&addr, "writer");
    let watcher = connect(&addr, "watcher");
    writer
        .create_group(G, Persistence::Transient, SharedState::new())
        .unwrap();
    writer
        .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();
    watcher
        .join(G, MemberRole::Observer, StateTransferPolicy::None, false)
        .unwrap();

    // Observer broadcast is rejected (error arrives on the event
    // stream since broadcasts are fire-and-forget).
    watcher
        .bcast_update(G, DOC, &b"nope"[..], DeliveryScope::SenderInclusive)
        .unwrap();
    match watcher.next_event_timeout(Duration::from_secs(5)).unwrap() {
        ServerEvent::Error { code, .. } => {
            assert_eq!(ErrorCode::from_wire(code), ErrorCode::PolicyDenied)
        }
        other => panic!("expected error event, got {other:?}"),
    }

    // But it still receives the principal's traffic.
    writer
        .bcast_update(G, DOC, &b"data"[..], DeliveryScope::SenderExclusive)
        .unwrap();
    match watcher.next_event_timeout(Duration::from_secs(5)).unwrap() {
        ServerEvent::Multicast { logged, .. } => {
            assert_eq!(logged.update.payload.as_ref(), b"data")
        }
        other => panic!("expected multicast, got {other:?}"),
    }
    writer.close();
    watcher.close();
    server.shutdown();
}

#[test]
fn acl_session_policy_through_the_stack() {
    use corona::membership::{AclPolicy, Capability};
    use std::sync::Arc;

    // Client ids are assigned in connection order starting at 1.
    let acl = AclPolicy::default()
        .allow_create(ClientId::new(1))
        .grant(ClientId::new(1), G, Capability::Manage)
        .grant(ClientId::new(2), G, Capability::Observe);
    let (addr, server) =
        tcp_server(ServerConfig::stateful(ServerId::new(1)).with_session_policy(Arc::new(acl)));
    let admin = connect(&addr, "admin");
    let guest = connect(&addr, "guest");
    assert_eq!(admin.client_id(), ClientId::new(1));
    assert_eq!(guest.client_id(), ClientId::new(2));

    admin
        .create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    // Guest may not create, may not join as principal, may observe.
    let err = guest
        .create_group(GroupId::new(2), Persistence::Transient, SharedState::new())
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::PolicyDenied));
    let err = guest
        .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::PolicyDenied));
    guest
        .join(G, MemberRole::Observer, StateTransferPolicy::None, false)
        .unwrap();

    admin.close();
    guest.close();
    server.shutdown();
}

#[test]
fn stateless_baseline_through_the_stack() {
    let (addr, server) = tcp_server(ServerConfig::stateless(ServerId::new(1)));
    let a = connect(&addr, "a");
    a.create_group(G, Persistence::Transient, SharedState::new())
        .unwrap();
    a.join(
        G,
        MemberRole::Principal,
        StateTransferPolicy::FullState,
        false,
    )
    .unwrap();
    a.bcast_update(G, DOC, &b"x"[..], DeliveryScope::SenderInclusive)
        .unwrap();
    // Sequencing works...
    match a.next_event_timeout(Duration::from_secs(5)).unwrap() {
        ServerEvent::Multicast { logged, .. } => assert_eq!(logged.seq, SeqNo::new(1)),
        other => panic!("{other:?}"),
    }
    // ...but a late joiner gets no state.
    let b = connect(&addr, "b");
    let (_, transfer) = b
        .join(
            G,
            MemberRole::Principal,
            StateTransferPolicy::FullState,
            false,
        )
        .unwrap();
    assert!(transfer.objects.is_empty());
    assert_eq!(transfer.through, SeqNo::new(1));
    a.close();
    b.close();
    server.shutdown();
}
