//! Who sequences a request on a threaded server: the reactor shard that
//! read it, at the end of its poll pass, and the dispatcher thread only
//! for the tick, admin calls, close, and what is left once a shard's
//! turn reaches its bound. A turn lost between the two would leave a
//! request waiting for the next watchdog tick.

use corona::prelude::*;
use corona::service::kernel::TRANSPORT_TURN_MAX;
use corona::types::frame::{read_frame, write_frame};
use corona::types::wire::decode_traced;
use corona::types::{ClientRequest, Encode, PROTOCOL_VERSION};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How often the dispatcher thread of a server whose protocol has no
/// tick wakes to poll the watchdogs.
const WATCHDOG_POLL_MS: u64 = 50;

const INLINE: &str = "server.dispatch.turns_inline";
const THREAD: &str = "server.dispatch.turns_thread";
const HANDOFFS: &str = "server.dispatch.handoffs";

fn counter(server: &CoronaServer, name: &str) -> u64 {
    server.metrics_registry().counter(name).get()
}

/// Clients on both shards of a server ping in lockstep: each round,
/// all of them at once, then nothing until every pong is in. Requests
/// that arrive on two shards together are where a turn can be lost —
/// one shard finds the dispatcher taken, and the other lets go of it
/// without looking at the queue again — and with nothing arriving
/// after them, a lost one waits for the next watchdog tick. So every
/// round must end well inside a tick period, and the dispatcher thread
/// take no more turns than its ticks and hand-offs: the shards that
/// read the requests sequenced them.
#[test]
fn requests_are_sequenced_by_the_shards_that_read_them() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 500;
    let config = ServerConfig::stateful(ServerId::new(1)).with_reactor_shards(2);
    let server = CoronaServer::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    // Connections go round the shards by id: two clients on each.
    let clients: Vec<CoronaClient> = (0..CLIENTS)
        .map(|i| {
            let conn = TcpDialer.dial(&addr).unwrap();
            CoronaClient::connect(conn, format!("c{i}"), None).unwrap()
        })
        .collect();

    let turns = || [INLINE, THREAD, HANDOFFS].map(|name| counter(&server, name));
    let before = turns();
    let lockstep = Barrier::new(CLIENTS);
    let started = Instant::now();
    let pings = |c: &CoronaClient| -> Vec<Duration> {
        let round = || {
            lockstep.wait();
            let sent = Instant::now();
            c.ping().expect("pong");
            sent.elapsed()
        };
        (0..ROUNDS).map(|_| round()).collect()
    };
    let per_client: Vec<Vec<Duration>> = std::thread::scope(|s| {
        let pingers: Vec<_> = clients.iter().map(|c| s.spawn(move || pings(c))).collect();
        let joined = pingers.into_iter().map(|p| p.join().expect("pinger"));
        joined.collect()
    });
    let elapsed = started.elapsed();
    let after = turns();
    let [inline, thread, handoffs] = [0, 1, 2].map(|i| after[i] - before[i]);

    // A round lasts as long as its slowest ping.
    let rounds: Vec<Duration> = (0..ROUNDS)
        .map(|r| per_client.iter().map(|rtts| rtts[r]).max().unwrap())
        .collect();
    let tick_bound = Duration::from_millis(WATCHDOG_POLL_MS / 2);
    let waited: Vec<&Duration> = rounds.iter().filter(|d| **d >= tick_bound).collect();
    assert!(
        waited.len() <= ROUNDS / 100,
        "{} of {ROUNDS} rounds waited for a tick: {waited:?}",
        waited.len()
    );
    let ticks = elapsed.as_millis() as u64 / WATCHDOG_POLL_MS + 1;
    assert!(
        thread <= ticks + handoffs,
        "the dispatcher thread took {thread} turns in {elapsed:?} \
         ({ticks} ticks, {handoffs} hand-offs)"
    );
    assert!(
        inline + thread >= ROUNDS as u64 && inline > thread,
        "{inline} turns on the shards, {thread} on the dispatcher thread"
    );
    clients.iter().for_each(CoronaClient::close);
    server.shutdown();
}

/// A burst one shard reads in one pass is more than one turn's worth:
/// the shard sequences [`TRANSPORT_TURN_MAX`] commands, hands the rest
/// to the dispatcher thread and goes back to its sockets, and the
/// dispatcher thread finishes the batch — every request answered, in
/// order.
#[test]
fn a_burst_past_a_shards_turn_is_finished_by_the_dispatcher_thread() {
    const BURST: u64 = 4 * TRANSPORT_TURN_MAX as u64;
    let config = ServerConfig::stateful(ServerId::new(1)).with_reactor_shards(1);
    let server = CoronaServer::bind("127.0.0.1:0", config).unwrap();
    let socket = TcpStream::connect(server.local_addr()).unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let next_event = || {
        let frame = read_frame(&mut &socket).unwrap().expect("server event");
        decode_traced::<ServerEvent>(&frame).unwrap().0
    };
    let hello = ClientRequest::Hello {
        version: PROTOCOL_VERSION,
        display_name: "burst".into(),
        resume: None,
    };
    let mut wire = Vec::new();
    write_frame(&mut wire, &hello.encode_to_bytes()).unwrap();
    (&socket).write_all(&wire).unwrap();
    assert!(matches!(next_event(), ServerEvent::Welcome { .. }));

    let (handoffs, thread) = (counter(&server, HANDOFFS), counter(&server, THREAD));
    // One write: the shard reads the whole burst in one pass.
    wire.clear();
    for nonce in 1..=BURST {
        let ping = ClientRequest::Ping { nonce };
        write_frame(&mut wire, &ping.encode_to_bytes()).unwrap();
    }
    (&socket).write_all(&wire).unwrap();
    for want in 1..=BURST {
        match next_event() {
            ServerEvent::Pong { nonce, .. } => assert_eq!(nonce, want),
            other => panic!("expected pong {want}, got {other:?}"),
        }
    }
    assert!(
        counter(&server, HANDOFFS) > handoffs,
        "no turn was handed off"
    );
    assert!(
        counter(&server, THREAD) > thread,
        "the dispatcher thread took no turn"
    );
    server.shutdown();
}
