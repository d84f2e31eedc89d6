//! One battery for the one runtime kernel: the client-plane rules the
//! kernel owns — Hello-first, malformed-frame handling, pre-Hello
//! `GetHealth`, `Goodbye`, the bounded transmit queue, the frame size
//! limit on what it sends, the `transport.*` traffic counts — checked by
//! the same helper against both server types over loopback TCP. The
//! rules about raw frames are driven from bare sockets.

use corona::prelude::*;
use corona::sim::loopback::Cluster;
use corona::types::frame::{read_frame, write_frame, MAX_FRAME_LEN};
use corona::types::wire::decode_traced;
use corona::types::{ClientRequest, CoronaError, Encode, ErrorCode, PROTOCOL_VERSION};
use std::io::ErrorKind;
use std::net::TcpStream;
use std::time::Duration;

const G: GroupId = GroupId(1);
const O: ObjectId = ObjectId(1);
/// Transmit-queue bound of every server under test.
const CAPACITY: usize = 2;
const WAIT: Duration = Duration::from_secs(10);

/// A bare socket to `addr` that gives up on a read after [`WAIT`].
fn socket(addr: &str) -> TcpStream {
    let socket = TcpStream::connect(addr).unwrap();
    socket.set_read_timeout(Some(WAIT)).unwrap();
    socket
}

fn send(mut socket: &TcpStream, request: &ClientRequest) {
    write_frame(&mut socket, &request.encode_to_bytes()).unwrap();
}

fn next_event(mut socket: &TcpStream) -> ServerEvent {
    let frame = read_frame(&mut socket).unwrap().expect("server event");
    decode_traced::<ServerEvent>(&frame).unwrap().0
}

fn hello(socket: &TcpStream, name: &str) -> ClientId {
    let hello = ClientRequest::Hello {
        version: PROTOCOL_VERSION,
        display_name: name.into(),
        resume: None,
    };
    send(socket, &hello);
    match next_event(socket) {
        ServerEvent::Welcome { client, .. } => client,
        other => panic!("expected welcome, got {other:?}"),
    }
}

fn assert_closed_by_server(mut socket: &TcpStream, why: &str) {
    loop {
        match read_frame(&mut socket) {
            // A replica's roster push may precede the close.
            Ok(Some(_)) => continue,
            Ok(None) => return,
            Err(e) => {
                let waited = matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut);
                return assert!(!waited, "{why}: still open after {WAIT:?}");
            }
        }
    }
}

/// A member of `G` that never reads what the server sends it once it
/// has joined.
fn laggard(addr: &str) -> TcpStream {
    let laggard = socket(addr);
    hello(&laggard, "laggard");
    let join = ClientRequest::Join {
        group: G,
        role: MemberRole::Principal,
        policy: StateTransferPolicy::None,
        notify_membership: false,
    };
    send(&laggard, &join);
    while !matches!(next_event(&laggard), ServerEvent::Joined { .. }) {}
    laggard
}

/// The battery. `metrics` reads the registry of the server at `addr`.
fn kernel_battery(addr: &str, metrics: &dyn Fn() -> MetricsSnapshot) {
    let dial = || TcpDialer.dial(addr).unwrap();

    // First frame not `Hello`: closed.
    let conn = socket(addr);
    send(&conn, &ClientRequest::Leave { group: G });
    assert_closed_by_server(&conn, "first frame must be Hello");
    assert_eq!(metrics().counter("server.decode_errors"), 0);

    // Malformed (well-framed, undecodable) frame: closed and counted.
    let conn = socket(addr);
    write_frame(&mut &conn, b"\xff\xfe not a request").unwrap();
    assert_closed_by_server(&conn, "malformed frame must close");
    assert_eq!(metrics().counter("server.decode_errors"), 1);

    // `GetHealth` is answered before `Hello`; the session then proceeds,
    // and `Goodbye` closes it.
    let conn = socket(addr);
    send(&conn, &ClientRequest::GetHealth);
    match next_event(&conn) {
        ServerEvent::Health { schema, json } => {
            assert_eq!(schema, corona::health::SCHEMA_VERSION);
            assert!(json.starts_with("{\"schema\":"), "health json: {json}");
        }
        other => panic!("expected health, got {other:?}"),
    }
    hello(&conn, "prober");
    send(&conn, &ClientRequest::Goodbye);
    assert_closed_by_server(&conn, "Goodbye must close");
    // Inbound traffic is counted at the sink and summed over the
    // connections: one frame on each of the first two, three on this.
    assert_eq!(metrics().counter("transport.frames_in"), 5);

    // The configured bound is applied on accept: a member that stops
    // reading is disconnected once CAPACITY frames are queued behind
    // whatever the transport itself buffers — well inside a burst the
    // default bound of 4096 frames would swallow whole.
    let sender = CoronaClient::connect(dial(), "sender", None).unwrap();
    sender
        .create_group(G, Persistence::Transient, SharedState::new())
        .unwrap();
    sender
        .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();
    let _laggard = laggard(addr);
    let payload = vec![0x5au8; 128 * 1024];
    let mut sent = 0;
    while metrics().counter("server.fanout.dead_conn") == 0 {
        assert!(sent < 400, "laggard survived {sent} broadcasts");
        sender
            .bcast_update(G, O, payload.clone(), DeliveryScope::SenderExclusive)
            .unwrap();
        // A round trip per broadcast keeps the sender's own queue empty.
        sender.membership(G).unwrap();
        sent += 1;
    }
    assert_eq!(metrics().counter("server.fanout.dead_conn"), 1);
    // Outbound traffic is counted where a frame is accepted for sending:
    // the broadcast that found the laggard's queue full is not in it,
    // nor is any that found the connection closed.
    let traffic = metrics();
    let frames_out = traffic.counter("transport.frames_out");
    assert_eq!(frames_out, traffic.counter("server.fanout.enqueues"));
    let sizes = traffic.histogram("transport.frame_out_bytes").unwrap();
    assert_eq!(sizes.count, frames_out);
    let bytes_out = traffic.counter("transport.bytes_out") as usize;
    let accepted = CAPACITY * payload.len()..sent * payload.len();
    assert!(accepted.contains(&bytes_out), "{bytes_out} of {sent} sent");
    let members = sender.membership(G).unwrap();
    assert_eq!(members.len(), 1, "reap must emit the session leave");

    // A state transfer is metered where it is framed: its size, and
    // the dispatcher time its encode and checksum took.
    let joiner = CoronaClient::connect(dial(), "joiner", None).unwrap();
    let (_, transfer) = joiner
        .join(
            G,
            MemberRole::Principal,
            StateTransferPolicy::FullState,
            false,
        )
        .unwrap();
    assert_eq!(transfer.objects[0].1.len(), sent * payload.len());
    let snapshot = metrics();
    let bytes = snapshot.histogram("server.join.transfer_bytes").unwrap();
    let frame_us = snapshot.histogram("server.join.frame_us").unwrap();
    assert_eq!(frame_us.count, bytes.count);
    assert!(bytes.max as usize > sent * payload.len(), "{bytes:?}");

    // A transfer too large for one frame is refused where it would be
    // framed: the joiner's transport would have to answer such a frame
    // by hanging up, and a supervised client would redial and ask
    // again. It gets an error naming the limit instead, on a connection
    // that stays usable. The state: two objects of half the limit and
    // a bit, each small enough to be broadcast.
    const BIG: GroupId = GroupId(2);
    let limit = MAX_FRAME_LEN as usize;
    sender
        .create_group(BIG, Persistence::Transient, SharedState::new())
        .unwrap();
    sender
        .join(BIG, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();
    let half = bytes::Bytes::from(vec![0u8; limit / 2 + 1024]);
    for object in [1, 2] {
        sender
            .bcast_state(
                BIG,
                ObjectId(object),
                half.clone(),
                DeliveryScope::SenderExclusive,
            )
            .unwrap();
    }
    // A replica applies what its coordinator sequenced a moment later.
    let deadline = std::time::Instant::now() + WAIT;
    while sender
        .state(BIG, StateTransferPolicy::None)
        .unwrap()
        .through
        < SeqNo::new(2)
    {
        assert!(std::time::Instant::now() < deadline, "state never arrived");
        std::thread::sleep(Duration::from_millis(10));
    }
    match joiner.join(
        BIG,
        MemberRole::Principal,
        StateTransferPolicy::FullState,
        false,
    ) {
        Err(CoronaError::Protocol { code, detail }) => {
            assert_eq!(code, ErrorCode::TooLarge);
            assert!(
                detail.contains(&limit.to_string()),
                "names the limit: {detail}"
            );
        }
        other => panic!("expected a refusal, got {:?}", other.map(|_| ())),
    }
    assert_eq!(metrics().counter("server.send.too_large"), 1);
    // The join itself stands, and a narrower transfer fits.
    assert_eq!(sender.membership(BIG).unwrap().len(), 2);
    let narrow = StateTransferPolicy::Objects(vec![ObjectId(2)]);
    assert_eq!(joiner.state(BIG, narrow).unwrap().objects[0].1, half);
    joiner.leave(BIG).unwrap();
    joiner.close();
    sender.close();
}

#[test]
fn single_server_over_reactor() {
    let config = ServerConfig::stateful(ServerId::new(1)).with_send_queue_capacity(CAPACITY);
    let server = CoronaServer::bind("127.0.0.1:0", config).unwrap();
    let registry = server.metrics_registry();
    kernel_battery(&server.local_addr(), &|| registry.snapshot());
    server.shutdown();
}

/// Starts three replicas on loopback TCP and runs the battery
/// against the second one, a follower. The metrics are the cluster's:
/// a reply can be refused at the coordinator.
#[test]
fn replicated_server_over_reactor() {
    let cluster = Cluster::start(3, |c| ReplicatedConfig {
        server_config: c.server_config.with_send_queue_capacity(CAPACITY),
        // Patient failure detection: an unoptimised build holds a
        // dispatcher for a while over the battery's largest frames.
        base_timeout_ms: 5_000,
        ..c
    });
    kernel_battery(&cluster.client_addr(2), &|| {
        let mut metrics = MetricsSnapshot::default();
        (1..=3).for_each(|id| metrics.merge(&cluster.server(id).metrics()));
        metrics
    });
    cluster.shutdown();
}
