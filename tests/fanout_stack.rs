//! Full-stack tests of the batched fan-out path: encode-once,
//! frame-once sharing across a wide group, at most one socket write
//! per delivery on the reactor — one per connection and dispatcher
//! batch when frames come in bursts, made by the dispatcher itself
//! when the fan-out is narrow — and reaping of dead or hopelessly
//! backlogged connections discovered at send time.

use corona::prelude::*;
use corona_transport::Dialer;
use std::sync::Arc;
use std::time::{Duration, Instant};

const G: GroupId = GroupId(1);
const DOC: ObjectId = ObjectId(1);

/// A snapshot taken once `counter` has stopped moving: the dispatcher
/// bumps its counters just *after* a client can observe the frame they
/// count, so a metric window opened right after a reply would catch
/// the tail of the set-up traffic.
fn quiesced(registry: &Registry, counter: &str) -> MetricsSnapshot {
    loop {
        let before = registry.snapshot().counter(counter);
        std::thread::sleep(Duration::from_millis(50));
        let after = registry.snapshot();
        if after.counter(counter) == before {
            return after;
        }
    }
}

/// A snapshot taken once `counter` has moved `by` past `before`.
fn moved_by(
    registry: &Registry,
    before: &MetricsSnapshot,
    counter: &str,
    by: u64,
) -> MetricsSnapshot {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let after = registry.snapshot();
        let moved = after.counter(counter) - before.counter(counter);
        if moved >= by {
            return after;
        }
        assert!(Instant::now() < deadline, "{counter} stuck at {moved}/{by}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn tcp_server() -> (CoronaServer, Arc<Registry>, String) {
    tcp_server_with(ServerConfig::stateful(ServerId::new(1)))
}

fn tcp_server_with(config: ServerConfig) -> (CoronaServer, Arc<Registry>, String) {
    let server = CoronaServer::bind("127.0.0.1:0", config).unwrap();
    let (registry, addr) = (server.metrics_registry(), server.local_addr());
    (server, registry, addr)
}

fn tcp_connect(addr: &str, name: &str) -> CoronaClient {
    CoronaClient::connect(TcpDialer.dial(addr).unwrap(), name, None).unwrap()
}

/// `count` members of a fresh group [`G`], the first its creator.
fn tcp_group(addr: &str, count: usize) -> Vec<CoronaClient> {
    let members: Vec<CoronaClient> = (0..count)
        .map(|i| tcp_connect(addr, &format!("m{i}")))
        .collect();
    members[0]
        .create_group(G, Persistence::Transient, SharedState::new())
        .unwrap();
    for member in &members {
        member
            .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
            .unwrap();
    }
    members
}

fn expect_multicast(client: &CoronaClient, payload: &[u8]) {
    match client.next_event_timeout(Duration::from_secs(10)).unwrap() {
        ServerEvent::Multicast { logged, .. } => {
            assert_eq!(logged.update.payload.as_ref(), payload);
        }
        other => panic!("expected multicast, got {other:?}"),
    }
}

/// A broadcast to a wide group serialises its payload exactly once;
/// every recipient's frame is a refcounted clone of the same bytes.
#[test]
fn broadcast_to_fifty_subscribers_encodes_once() {
    const RECEIVERS: usize = 50;
    let (server, registry, addr) = tcp_server();
    let mut members = tcp_group(&addr, RECEIVERS + 1);
    let sender = members.remove(0);
    let receivers = members;

    // Only the broadcast traffic in the metric window below.
    let before = quiesced(&registry, "server.fanout.enqueues");

    let payload = vec![0xabu8; 512];
    sender
        .bcast_update(G, DOC, payload.clone(), DeliveryScope::SenderInclusive)
        .unwrap();

    // Every subscriber (sender included) receives the one multicast.
    for client in receivers.iter().chain(std::iter::once(&sender)) {
        expect_multicast(client, &payload);
    }

    // All recipients saw the frame; give the dispatcher its beat to
    // bump the counter, then require exact deltas.
    let want = (RECEIVERS + 1) as u64;
    let after = moved_by(&registry, &before, "server.fanout.enqueues", want);
    let enqueues =
        after.counter("server.fanout.enqueues") - before.counter("server.fanout.enqueues");
    assert_eq!(enqueues, want, "only the broadcast may enqueue frames");
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
    let (server, registry, addr) = tcp_server();
    let members = tcp_group(&addr, RECEIVERS + 1);

    // Steady state: every join reply has left its socket.
    let before = quiesced(&registry, "server.reactor.frames_out");

    let payload = vec![0x5au8; 1000];
    for _ in 0..BURST {
        members[0]
            .bcast_update(G, DOC, payload.clone(), DeliveryScope::SenderInclusive)
            .unwrap();
    }
    for client in &members {
        for _ in 0..BURST {
            expect_multicast(client, &payload);
        }
    }

    // Every frame was read, so every write has returned; its writer
    // bumps `frames_out` right after.
    let want = BURST * (RECEIVERS as u64 + 1);
    let after = moved_by(&registry, &before, "server.reactor.frames_out", want);
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

    for c in &members {
        c.close();
    }
    server.shutdown();
}

/// Requests that reach the dispatcher together leave together: what a
/// batch of commands queues on a connection goes out in one `writev`,
/// not one per frame.
#[test]
fn a_burst_handled_as_one_batch_costs_a_write_per_connection_not_per_frame() {
    use corona::types::frame::{read_frame, write_frame};
    use corona::types::{ClientRequest, Decode, Encode, PROTOCOL_VERSION};
    use std::io::Write;

    const RECEIVERS: usize = 4;
    const BURST: u64 = 40;
    let (server, registry, addr) = tcp_server();
    let receivers = tcp_group(&addr, RECEIVERS);

    // The sender speaks the wire protocol over a bare socket, so that
    // the whole burst is one `write` — one segment, one read by the
    // reactor, one run of commands on the dispatcher's queue.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.set_nodelay(true).unwrap();
    let mut exchange = |request: ClientRequest| {
        write_frame(&mut raw, &request.encode_to_bytes()).unwrap();
        let reply = read_frame(&mut raw).unwrap().expect("server hung up");
        ServerEvent::decode_exact(&reply).unwrap()
    };
    let welcome = exchange(ClientRequest::Hello {
        version: PROTOCOL_VERSION,
        display_name: "burster".into(),
        resume: None,
    });
    assert!(
        matches!(welcome, ServerEvent::Welcome { .. }),
        "{welcome:?}"
    );
    let joined = exchange(ClientRequest::Join {
        group: G,
        role: MemberRole::Principal,
        policy: StateTransferPolicy::None,
        notify_membership: false,
    });
    assert!(matches!(joined, ServerEvent::Joined { .. }), "{joined:?}");
    let before = quiesced(&registry, "server.reactor.frames_out");

    let payload = vec![0x3cu8; 64];
    let broadcast = ClientRequest::Broadcast {
        group: G,
        update: StateUpdate::incremental(DOC, payload.clone()),
        scope: DeliveryScope::SenderExclusive,
    };
    let mut burst = Vec::new();
    for _ in 0..BURST {
        write_frame(&mut burst, &broadcast.encode_to_bytes()).unwrap();
    }
    raw.write_all(&burst).unwrap();
    for client in &receivers {
        for _ in 0..BURST {
            expect_multicast(client, &payload);
        }
    }

    let frames = BURST * RECEIVERS as u64;
    let after = moved_by(&registry, &before, "server.reactor.frames_out", frames);
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(delta("server.reactor.frames_out"), frames);
    // However the burst was cut into batches — the dispatcher may have
    // woken to its first request alone — it was not one frame a write.
    let writes = delta("server.reactor.write_calls");
    assert!(2 * writes <= frames, "{writes} writes for {frames} frames");
    let batches = after.histogram("server.queue.batch").unwrap().max;
    assert!(batches > 1, "the burst never queued up: nothing was tested");

    for c in &receivers {
        c.close();
    }
    server.shutdown();
}

/// A paced broadcast to a small group is written by the dispatcher
/// itself, one connection after the other: no reactor shard is woken
/// to move four small frames.
#[test]
fn a_narrow_paced_broadcast_wakes_no_shard() {
    const MEMBERS: usize = 4;
    const ROUNDS: u64 = 20;
    let (server, registry, addr) = tcp_server();
    let members = tcp_group(&addr, MEMBERS);
    let before = quiesced(&registry, "server.reactor.frames_out");

    let payload = vec![0x77u8; 64];
    for _ in 0..ROUNDS {
        members[0]
            .bcast_update(G, DOC, payload.clone(), DeliveryScope::SenderInclusive)
            .unwrap();
        for client in &members {
            expect_multicast(client, &payload);
        }
    }

    let frames = ROUNDS * MEMBERS as u64;
    let after = moved_by(&registry, &before, "server.reactor.frames_out", frames);
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(delta("server.reactor.frames_out"), frames);
    assert_eq!(delta("server.reactor.wake_writes"), 0, "a shard was woken");
    assert_eq!(delta("server.fanout.flush_inline"), ROUNDS);
    let widths = after.histogram("server.fanout.flush_conns").unwrap();
    assert_eq!(widths.max, MEMBERS as u64);

    for c in &members {
        c.close();
    }
    server.shutdown();
}

/// A subscriber whose transmit queue is dead or full beyond hope is
/// disconnected and reaped from the session maps: later broadcasts
/// skip it, membership drops it, and the connection table shrinks.
///
/// The laggard speaks the wire protocol over a bare socket and simply
/// stops reading after its join completes.
#[test]
fn dead_subscriber_is_reaped_and_later_broadcasts_skip_it() {
    use corona::types::frame::{read_frame, write_frame};
    use corona::types::wire::decode_traced;
    use corona::types::{ClientRequest, Encode, PROTOCOL_VERSION};

    // Capacity 1: once the socket buffers of a subscriber that never
    // reads are full, its next frame overflows the queue.
    let config = ServerConfig::stateful(ServerId::new(1)).with_send_queue_capacity(1);
    let (server, registry, addr) = tcp_server_with(config);
    let mut members = tcp_group(&addr, 2);
    let (live, sender) = (members.pop().unwrap(), members.pop().unwrap());

    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    let mut exchange = |request: ClientRequest| {
        write_frame(&mut raw, &request.encode_to_bytes()).unwrap();
        let reply = read_frame(&mut raw).unwrap().expect("server hung up");
        decode_traced::<ServerEvent>(&reply).unwrap().0
    };
    let dead_id = match exchange(ClientRequest::Hello {
        version: PROTOCOL_VERSION,
        display_name: "dead".into(),
        resume: None,
    }) {
        ServerEvent::Welcome { client, .. } => client,
        other => panic!("expected welcome, got {other:?}"),
    };
    let joined = exchange(ClientRequest::Join {
        group: G,
        role: MemberRole::Principal,
        policy: StateTransferPolicy::None,
        notify_membership: false,
    });
    assert!(matches!(joined, ServerEvent::Joined { .. }), "{joined:?}");
    // From here on the laggard never reads another frame.
    assert_eq!(server.stats().unwrap().open_conns, 3);

    // Broadcasts fill the laggard's socket, then its transmit queue;
    // at the next one a multicast is Data class — a gap would desync
    // its mirror — so the server disconnects it instead of shedding.
    // The live subscriber reads each frame before the next send, so its
    // capacity-1 queue is empty at every enqueue: only the laggard can
    // overflow.
    let payload = vec![0x5au8; 128 * 1024];
    let mut sent = 0;
    while registry.snapshot().counter("server.fanout.dead_conn") == 0 {
        assert!(sent < 400, "laggard survived {sent} broadcasts");
        sender
            .bcast_update(G, DOC, payload.clone(), DeliveryScope::SenderExclusive)
            .unwrap();
        expect_multicast(&live, &payload);
        sent += 1;
    }

    // The dispatcher reaps in the same step as the failed enqueue, so
    // the very next command it answers already shows the result.
    let stats = server.stats().unwrap();
    assert_eq!(stats.dead_conns, 1, "send failure must be counted");
    assert_eq!(stats.open_conns, 2, "dead connection must leave the map");
    assert_eq!(registry.snapshot().counter("server.fanout.dead_conn"), 1);
    let members = sender.membership(G).unwrap();
    assert!(
        members.iter().all(|m| m.client != dead_id),
        "reap must emit the session leave: {members:?}"
    );

    // Later broadcasts are delivered to the remaining subscriber and
    // enqueue exactly one frame — nothing is addressed to the corpse.
    // Let the counters quiesce first; the increment for a frame trails
    // the client's read by a beat.
    let before = quiesced(&registry, "server.fanout.enqueues");
    sender
        .bcast_update(G, DOC, &b"three"[..], DeliveryScope::SenderExclusive)
        .unwrap();
    expect_multicast(&live, b"three");
    let after = moved_by(&registry, &before, "server.fanout.enqueues", 1);
    assert_eq!(
        after.counter("server.fanout.enqueues") - before.counter("server.fanout.enqueues"),
        1,
        "the reaped subscriber must no longer be fanned out to"
    );

    sender.close();
    live.close();
    server.shutdown();
}
