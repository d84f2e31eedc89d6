//! Full-stack tests of the batched fan-out path: encode-once,
//! frame-once sharing across a wide group, at most one socket write
//! per delivery on the reactor, and reaping of dead or hopelessly
//! backlogged connections discovered at send time.

use corona::prelude::*;
use corona_transport::Dialer;
use std::time::Duration;

const G: GroupId = GroupId(1);
const DOC: ObjectId = ObjectId(1);

fn mem_server(net: &MemNetwork, config: ServerConfig) -> CoronaServer {
    let listener = net.listen("server").unwrap();
    CoronaServer::start(Box::new(listener), config).unwrap()
}

fn mem_connect(net: &MemNetwork, name: &str) -> CoronaClient {
    let conn = net.dial_from(name, "server").unwrap();
    CoronaClient::connect(Box::new(conn), name, None).unwrap()
}

/// A broadcast to a wide group serialises its payload exactly once;
/// every recipient's frame is a refcounted clone of the same bytes.
#[test]
fn broadcast_to_fifty_subscribers_encodes_once() {
    const RECEIVERS: usize = 50;
    let net = MemNetwork::new();
    let server = mem_server(&net, ServerConfig::stateful(ServerId::new(1)));

    let sender = mem_connect(&net, "sender");
    sender
        .create_group(G, Persistence::Transient, SharedState::new())
        .unwrap();
    sender
        .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();
    let receivers: Vec<CoronaClient> = (0..RECEIVERS)
        .map(|i| {
            let c = mem_connect(&net, &format!("r{i}"));
            c.join(G, MemberRole::Principal, StateTransferPolicy::None, false)
                .unwrap();
            c
        })
        .collect();

    // Joins are synchronous, but the dispatcher bumps its enqueue
    // counter just *after* the client can observe the frame — wait for
    // the counters to quiesce so the metric window below contains only
    // the broadcast traffic.
    let registry = server.metrics_registry();
    let before = loop {
        let a = registry.snapshot().counter("server.fanout.enqueues");
        std::thread::sleep(Duration::from_millis(50));
        let b = registry.snapshot();
        if b.counter("server.fanout.enqueues") == a {
            break b;
        }
    };

    let payload = vec![0xabu8; 512];
    sender
        .bcast_update(G, DOC, payload.clone(), DeliveryScope::SenderInclusive)
        .unwrap();

    // Every subscriber (sender included) receives the one multicast.
    for client in receivers.iter().chain(std::iter::once(&sender)) {
        match client.next_event_timeout(Duration::from_secs(10)).unwrap() {
            ServerEvent::Multicast { logged, .. } => {
                assert_eq!(logged.update.payload.as_ref(), payload.as_slice());
            }
            other => panic!("expected multicast, got {other:?}"),
        }
    }

    // All recipients saw the frame; give the dispatcher its beat to
    // bump the counter, then require exact deltas.
    let want = (RECEIVERS + 1) as u64;
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let after = loop {
        let after = registry.snapshot();
        let enqueues =
            after.counter("server.fanout.enqueues") - before.counter("server.fanout.enqueues");
        if enqueues >= want {
            assert_eq!(enqueues, want, "only the broadcast may enqueue frames");
            break after;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "enqueues stuck at {enqueues}/{want}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    let encodes = after.counter("server.fanout.encodes") - before.counter("server.fanout.encodes");
    let saved =
        after.counter("server.fanout.bytes_saved") - before.counter("server.fanout.bytes_saved");
    assert_eq!(
        encodes, 1,
        "one broadcast to {want} subscribers must encode exactly once"
    );
    // The shared frame saves (recipients - 1) re-encodes, each at
    // least as large as the payload it carries.
    assert!(
        saved >= (RECEIVERS as u64) * payload.len() as u64,
        "bytes_saved {saved}"
    );

    for c in &receivers {
        c.close();
    }
    sender.close();
    server.shutdown();
}

/// Over the reactor, a broadcast burst to a wide group is framed once
/// per broadcast, costs at most one socket write per delivered frame,
/// and — the interest set of a healthy connection never changing —
/// not a single `epoll_ctl`.
#[test]
fn reactor_broadcast_costs_at_most_one_write_per_delivery() {
    const RECEIVERS: usize = 50;
    const BURST: u64 = 10;
    let server =
        CoronaServer::bind("127.0.0.1:0", ServerConfig::stateful(ServerId::new(1))).unwrap();
    let addr = server.local_addr();
    let connect = |name: &str| {
        let conn = TcpDialer.dial(&addr).unwrap();
        CoronaClient::connect(conn, name, None).unwrap()
    };

    let sender = connect("sender");
    sender
        .create_group(G, Persistence::Transient, SharedState::new())
        .unwrap();
    sender
        .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();
    let receivers: Vec<CoronaClient> = (0..RECEIVERS)
        .map(|i| {
            let c = connect(&format!("r{i}"));
            c.join(G, MemberRole::Principal, StateTransferPolicy::None, false)
                .unwrap();
            c
        })
        .collect();

    // Steady state: every join reply has left its socket.
    let registry = server.metrics_registry();
    let before = loop {
        let a = registry.snapshot().counter("server.reactor.frames_out");
        std::thread::sleep(Duration::from_millis(50));
        let b = registry.snapshot();
        if b.counter("server.reactor.frames_out") == a {
            break b;
        }
    };

    let payload = vec![0x5au8; 1000];
    for _ in 0..BURST {
        sender
            .bcast_update(G, DOC, payload.clone(), DeliveryScope::SenderInclusive)
            .unwrap();
    }
    for client in receivers.iter().chain(std::iter::once(&sender)) {
        for _ in 0..BURST {
            match client.next_event_timeout(Duration::from_secs(10)).unwrap() {
                ServerEvent::Multicast { logged, .. } => {
                    assert_eq!(logged.update.payload.as_ref(), payload.as_slice());
                }
                other => panic!("expected multicast, got {other:?}"),
            }
        }
    }

    // Every frame was read, so every write has returned; the shard
    // bumps `frames_out` right after.
    let want = BURST * (RECEIVERS as u64 + 1);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let after = loop {
        let after = registry.snapshot();
        let delta = |name: &str| after.counter(name) - before.counter(name);
        if delta("server.reactor.frames_out") >= want {
            break after;
        }
        assert!(std::time::Instant::now() < deadline, "frames_out stuck");
        std::thread::sleep(Duration::from_millis(10));
    };
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(delta("server.reactor.frames_out"), want);
    assert_eq!(
        delta("server.fanout.encodes"),
        BURST,
        "one encode per broadcast"
    );
    assert!(
        delta("server.reactor.write_calls") <= want,
        "{} writes for {want} frames",
        delta("server.reactor.write_calls")
    );
    assert_eq!(
        delta("server.reactor.interest_changes"),
        0,
        "steady-state delivery must not touch the poller"
    );
    assert_eq!(delta("server.reactor.write_blocked"), 0);

    for c in &receivers {
        c.close();
    }
    sender.close();
    server.shutdown();
}

/// A subscriber whose transmit queue is dead or full beyond hope is
/// disconnected and reaped from the session maps: later broadcasts
/// skip it, membership drops it, and the connection table shrinks.
///
/// The laggard speaks the wire protocol over a raw connection — the
/// facade client's reader thread would drain the server-side queue —
/// and simply stops reading after its join completes.
#[test]
fn dead_subscriber_is_reaped_and_later_broadcasts_skip_it() {
    use corona::types::wire::decode_traced;
    use corona::types::{ClientRequest, Encode, PROTOCOL_VERSION};
    use std::time::Instant;

    let net = MemNetwork::new();
    // Capacity 1: a subscriber that never drains its queue overflows
    // on the second frame.
    let server = mem_server(
        &net,
        ServerConfig::stateful(ServerId::new(1)).with_send_queue_capacity(1),
    );

    let sender = mem_connect(&net, "sender");
    let live = mem_connect(&net, "live");
    sender
        .create_group(G, Persistence::Transient, SharedState::new())
        .unwrap();
    for c in [&sender, &live] {
        c.join(G, MemberRole::Principal, StateTransferPolicy::None, false)
            .unwrap();
    }

    let raw = net.dial_from("dead", "server").unwrap();
    raw.send(
        ClientRequest::Hello {
            version: PROTOCOL_VERSION,
            display_name: "dead".into(),
            resume: None,
        }
        .encode_to_bytes(),
    )
    .unwrap();
    let dead_id = match decode_traced::<ServerEvent>(&raw.recv().unwrap())
        .unwrap()
        .0
    {
        ServerEvent::Welcome { client, .. } => client,
        other => panic!("expected welcome, got {other:?}"),
    };
    raw.send(
        ClientRequest::Join {
            group: G,
            role: MemberRole::Principal,
            policy: StateTransferPolicy::None,
            notify_membership: false,
        }
        .encode_to_bytes(),
    )
    .unwrap();
    match decode_traced::<ServerEvent>(&raw.recv().unwrap())
        .unwrap()
        .0
    {
        ServerEvent::Joined { .. } => {}
        other => panic!("expected joined, got {other:?}"),
    }
    // From here on the laggard never reads another frame.
    assert_eq!(server.stats().unwrap().open_conns, 3);

    // First broadcast: fills the laggard's queue. Second broadcast:
    // its transmit queue is full; a multicast is Data class — a gap
    // would desync its mirror — so the server disconnects it instead
    // of shedding. The live subscriber reads each frame before the
    // next send, so its capacity-1 queue is empty at every enqueue:
    // only the laggard can overflow.
    for expect in [&b"one"[..], &b"two"[..]] {
        sender
            .bcast_update(G, DOC, expect, DeliveryScope::SenderExclusive)
            .unwrap();
        match live.next_event_timeout(Duration::from_secs(10)).unwrap() {
            ServerEvent::Multicast { logged, .. } => {
                assert_eq!(logged.update.payload.as_ref(), expect);
            }
            other => panic!("expected multicast, got {other:?}"),
        }
    }

    // The dispatcher reaps in the same step as the failed enqueue, so
    // the very next command it answers already shows the result.
    let stats = server.stats().unwrap();
    assert_eq!(stats.dead_conns, 1, "send failure must be counted");
    assert_eq!(stats.open_conns, 2, "dead connection must leave the map");
    assert_eq!(
        server
            .metrics_registry()
            .snapshot()
            .counter("server.fanout.dead_conn"),
        1
    );
    let members = sender.membership(G).unwrap();
    assert!(
        members.iter().all(|m| m.client != dead_id),
        "reap must emit the session leave: {members:?}"
    );

    // Later broadcasts are delivered to the remaining subscriber and
    // enqueue exactly one frame — nothing is addressed to the corpse.
    // Let the counters quiesce first; the increment for a frame trails
    // the client's read by a beat.
    let registry = server.metrics_registry();
    let before = loop {
        let a = registry.snapshot().counter("server.fanout.enqueues");
        std::thread::sleep(Duration::from_millis(50));
        let b = registry.snapshot();
        if b.counter("server.fanout.enqueues") == a {
            break b;
        }
    };
    sender
        .bcast_update(G, DOC, &b"three"[..], DeliveryScope::SenderExclusive)
        .unwrap();
    match live.next_event_timeout(Duration::from_secs(10)).unwrap() {
        ServerEvent::Multicast { logged, .. } => {
            assert_eq!(logged.update.payload.as_ref(), b"three");
        }
        other => panic!("expected multicast, got {other:?}"),
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let after = registry.snapshot();
        let enqueues =
            after.counter("server.fanout.enqueues") - before.counter("server.fanout.enqueues");
        if enqueues >= 1 {
            assert_eq!(
                enqueues, 1,
                "the reaped subscriber must no longer be fanned out to"
            );
            break;
        }
        assert!(Instant::now() < deadline, "enqueue counter never moved");
        std::thread::sleep(Duration::from_millis(10));
    }

    sender.close();
    live.close();
    server.shutdown();
}
