//! End-to-end test of the QoS-adaptive delivery extension (§5.3):
//! a client that stops draining its connection gets its awareness
//! notifications shed once its backlog crosses the configured bound,
//! while sequenced data traffic is always delivered.

use corona_core::session::EVENT_QUEUE_HWM;
use corona_core::{client::CoronaClient, config::ServerConfig, server::CoronaServer, QosPolicy};
use corona_transport::{Dialer, TcpDialer};
use corona_types::frame::{read_frame, write_frame};
use corona_types::id::{GroupId, ObjectId, ServerId};
use corona_types::message::{ClientRequest, ServerEvent, PROTOCOL_VERSION};
use corona_types::policy::{DeliveryScope, MemberRole, Persistence, StateTransferPolicy};
use corona_types::state::SharedState;
use corona_types::wire::{Decode, Encode};
use std::net::TcpStream;
use std::time::Duration;

const G: GroupId = GroupId(1);
const O: ObjectId = ObjectId(1);
const SHED_BOUND: usize = 4;

/// A protocol-speaking client on a bare socket that reads only the
/// replies to its `Hello` and `Join`: once its socket buffers are full
/// the server-side backlog grows, triggering the shedding policy.
struct SluggishClient {
    socket: TcpStream,
}

impl SluggishClient {
    fn connect(addr: &str, name: &str) -> SluggishClient {
        let mut sluggish = SluggishClient {
            socket: TcpStream::connect(addr).unwrap(),
        };
        sluggish.send(ClientRequest::Hello {
            version: PROTOCOL_VERSION,
            display_name: name.into(),
            resume: None,
        });
        assert!(matches!(sluggish.next(), Some(ServerEvent::Welcome { .. })));
        sluggish
    }

    fn join(&mut self) {
        self.send(ClientRequest::Join {
            group: G,
            role: MemberRole::Observer,
            policy: StateTransferPolicy::None,
            notify_membership: true,
        });
        assert!(matches!(self.next(), Some(ServerEvent::Joined { .. })));
    }

    fn send(&mut self, request: ClientRequest) {
        write_frame(&mut self.socket, &request.encode_to_bytes()).unwrap();
    }

    /// The next event, or `None` once nothing has come for a while.
    fn next(&mut self) -> Option<ServerEvent> {
        self.socket
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let frame = read_frame(&mut self.socket).ok()??;
        Some(ServerEvent::decode_exact(&frame).unwrap())
    }

    /// Reads everything buffered.
    fn drain(&mut self) -> Vec<ServerEvent> {
        std::iter::from_fn(|| self.next()).collect()
    }
}

fn connect(addr: &str, name: &str) -> CoronaClient {
    CoronaClient::connect(TcpDialer.dial(addr).unwrap(), name, None).unwrap()
}

/// A writer who has created and joined `G`.
fn writer(addr: &str) -> CoronaClient {
    let writer = connect(addr, "writer");
    writer
        .create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    writer
        .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();
    writer
}

/// A visitor joins `G` and leaves again: two awareness notifications.
fn visit(addr: &str, i: usize) {
    let visitor = connect(addr, &format!("v{i}"));
    visitor
        .join(G, MemberRole::Observer, StateTransferPolicy::None, false)
        .unwrap();
    visitor.leave(G).unwrap();
    visitor.close();
}

#[test]
fn awareness_is_shed_for_backlogged_clients_but_data_is_not() {
    let config = ServerConfig::stateful(ServerId::new(1)).with_qos(QosPolicy::shedding(SHED_BOUND));
    let server = CoronaServer::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    // An active writer drives both data and awareness traffic.
    let writer = writer(&addr);

    // The sluggish observer joins with awareness subscription, then
    // stops reading.
    let mut sluggish = SluggishClient::connect(&addr, "sluggish");
    sluggish.join();

    // Interleaved data (multicasts to the observer, large enough to fill
    // its socket buffers) and awareness (visitors joining and leaving),
    // until the server has shed some of the latter.
    let payload = |i: usize| {
        let mut payload = format!("{i};").into_bytes();
        payload.resize(64 * 1024, b' ');
        payload
    };
    let mut rounds = 0;
    while server.stats().unwrap().shed == 0 {
        assert!(
            rounds < 200,
            "no events were shed despite a {SHED_BOUND}-frame bound and {rounds} rounds"
        );
        writer
            .bcast_update(G, O, payload(rounds), DeliveryScope::SenderExclusive)
            .unwrap();
        visit(&addr, rounds);
        rounds += 1;
    }
    writer.ping().unwrap(); // flush the dispatcher

    let events = sluggish.drain();
    let data: Vec<Vec<u8>> = events
        .iter()
        .filter_map(|e| match e {
            ServerEvent::Multicast { logged, .. } => Some(logged.update.payload.to_vec()),
            _ => None,
        })
        .collect();
    let awareness = events
        .iter()
        .filter(|e| matches!(e, ServerEvent::MembershipChanged { .. }))
        .count();

    // EVERY data update arrived, in order, despite the backlog.
    let expected: Vec<Vec<u8>> = (0..rounds).map(payload).collect();
    assert!(data == expected, "data must never be shed");
    // Awareness was shed: fewer than the 2 * rounds join/leave
    // notifications were delivered.
    assert!(
        awareness < 2 * rounds,
        "expected shedding, but all {awareness} notifications arrived"
    );

    writer.close();
    server.shutdown();
}

#[test]
fn default_policy_sheds_nothing() {
    let server =
        CoronaServer::bind("127.0.0.1:0", ServerConfig::stateful(ServerId::new(1))).unwrap();
    let addr = server.local_addr();
    let writer = writer(&addr);

    let mut sluggish = SluggishClient::connect(&addr, "sluggish");
    sluggish.join();
    for i in 0..20 {
        visit(&addr, i);
    }
    writer.ping().unwrap();

    let stats = server.stats().unwrap();
    assert_eq!(stats.shed, 0, "base system must never shed");
    let awareness = sluggish
        .drain()
        .iter()
        .filter(|e| matches!(e, ServerEvent::MembershipChanged { .. }))
        .count();
    assert_eq!(awareness, 40, "all join+leave notifications delivered");
    writer.close();
    server.shutdown();
}

/// How many events `client` holds (its `Debug` shows it).
fn held(client: &CoronaClient) -> usize {
    let debug = format!("{client:?}");
    let field = debug.split("queued_events: ").nth(1).expect("shown");
    field.split([',', ' ']).next().unwrap().parse().unwrap()
}

/// The client-side bound: a client that never takes its events holds at
/// most `EVENT_QUEUE_HWM` of them. Then its socket is not read, the
/// server's transmit queue to it fills, and the server lets it go.
#[test]
fn an_unread_event_stream_stops_at_its_high_water_mark() {
    let config = ServerConfig::stateless(ServerId::new(1)).with_send_queue_capacity(64);
    let server = CoronaServer::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let writer = writer(&addr);
    let idle = connect(&addr, "idle");
    let none = StateTransferPolicy::None;
    idle.join(G, MemberRole::Observer, none, false).unwrap();
    let held = || held(&idle);
    let let_go = || server.stats().map(|s| s.shed + s.dead_conns).unwrap();
    let payload = bytes::Bytes::from(vec![0u8; 64 * 1024]);
    for sent in 0.. {
        assert!(held() <= EVENT_QUEUE_HWM, "{} events held", held());
        if let_go() > 0 {
            break;
        }
        assert!(sent < 10_000, "the server never let the idle client go");
        let scope = DeliveryScope::SenderExclusive;
        writer.bcast_update(G, O, payload.clone(), scope).unwrap();
    }
    assert_eq!(held(), EVENT_QUEUE_HWM);
    writer.close();
    server.shutdown();
}

/// A client that holds `EVENT_QUEUE_HWM` events and makes a call reads
/// on for the reply, dropping the multicasts past the mark.
#[test]
fn a_call_is_answered_while_the_event_queue_is_full() {
    let server =
        CoronaServer::bind("127.0.0.1:0", ServerConfig::stateless(ServerId::new(1))).unwrap();
    let addr = server.local_addr();
    let writer = writer(&addr);
    let mut idle = connect(&addr, "idle");
    let none = StateTransferPolicy::None;
    idle.join(G, MemberRole::Observer, none, false).unwrap();
    for i in 0..2 * EVENT_QUEUE_HWM {
        let scope = DeliveryScope::SenderExclusive;
        writer.bcast_update(G, O, format!("{i};"), scope).unwrap();
    }
    while held(&idle) < EVENT_QUEUE_HWM {
        std::thread::sleep(Duration::from_millis(5));
    }
    idle.set_call_timeout(Duration::from_secs(5));
    assert_eq!(idle.membership(G).unwrap().len(), 2);
    assert_eq!(held(&idle), EVENT_QUEUE_HWM);
    writer.close();
    server.shutdown();
}
