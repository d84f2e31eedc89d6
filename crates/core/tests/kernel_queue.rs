//! The dispatcher's command queue under pressure: the tick — and the
//! frame it sends — keeps its pace while clients flood, a batch far
//! longer than a connection's transmit queue costs a reader that keeps
//! reading nothing, and a stalled dispatcher pushes back on the sockets
//! feeding it instead of queueing without bound.

use corona_core::kernel::SINK_QUEUE_HWM;
use corona_core::{Io, Kernel, Protocol, ServerConfig};
use corona_health::HealthRegistry;
use corona_metrics::Registry;
use corona_transport::{Listener, ReactorListener};
use corona_types::frame::{read_frame, write_frame};
use corona_types::id::{ClientId, GroupId, ObjectId, SeqNo, ServerId};
use corona_types::message::{ClientRequest, ServerEvent};
use corona_types::policy::DeliveryScope;
use corona_types::state::{StateUpdate, Timestamp};
use corona_types::wire::{Decode, Encode};
use corona_types::PROTOCOL_VERSION;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const TICK: Duration = Duration::from_millis(10);
/// What a request costs the dispatcher: a full queue is then many
/// ticks' worth of work.
const WORK: Duration = Duration::from_micros(20);

/// The tests load the machine; none should time another.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Admits every client and counts requests. Answers each with one
/// numbered frame if `echo`; times its ticks and, if `beat`, sends the
/// first client a frame from each.
#[derive(Default)]
struct Stub {
    echo: bool,
    beat: bool,
    clients: u64,
    requests: Arc<AtomicU64>,
    ticks: Arc<Mutex<Vec<Instant>>>,
}

/// The `n`th frame the stub sends a client: data, so never shed.
fn numbered(n: u64) -> ServerEvent {
    ServerEvent::LogReduced {
        group: GroupId::new(1),
        through: SeqNo::new(n),
    }
}

impl Protocol for Stub {
    type Effect = (ClientId, u64);

    fn client_hello(&mut self, _: String, _: Option<ClientId>) -> (ClientId, Vec<Self::Effect>) {
        self.clients += 1;
        (ClientId::new(self.clients), Vec::new())
    }
    fn handle_request(
        &mut self,
        client: ClientId,
        _: ClientRequest,
        _: Timestamp,
    ) -> Vec<Self::Effect> {
        let started = Instant::now();
        while started.elapsed() < WORK {
            std::hint::spin_loop();
        }
        let n = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        if self.echo {
            vec![(client, n)]
        } else {
            Vec::new()
        }
    }
    fn client_disconnected(&mut self, _: ClientId) -> Vec<Self::Effect> {
        Vec::new()
    }
    fn execute(&mut self, effects: Vec<Self::Effect>, io: &mut Io) {
        for (client, n) in effects {
            io.send(client, &numbered(n));
        }
    }
    fn refresh_health(&self, _: &HealthRegistry) {}
    fn tick_every(&self) -> Option<Duration> {
        Some(TICK)
    }
    fn tick(&mut self, io: &mut Io) {
        let mut ticks = self.ticks.lock().unwrap();
        ticks.push(Instant::now());
        if self.beat {
            io.send(ClientId::new(1), &numbered(ticks.len() as u64));
        }
    }
}

/// A kernel around `stub` on a one-shard reactor listener, and the
/// address to dial.
fn start(stub: Stub, registry: &Arc<Registry>, config: &ServerConfig) -> (Kernel<Stub>, String) {
    let listener = ReactorListener::bind_with_registry("127.0.0.1:0", 1, Some(registry)).unwrap();
    let addr = listener.local_addr();
    let listener = Box::new(listener);
    let kernel = Kernel::start("stub", config, Arc::clone(registry), stub, listener, None).unwrap();
    (kernel, addr)
}

fn config() -> ServerConfig {
    ServerConfig::stateful(ServerId::new(1))
}

/// A socket that has said hello.
fn connect(addr: &str) -> TcpStream {
    let mut socket = TcpStream::connect(addr).unwrap();
    socket.set_nodelay(true).unwrap();
    write_frame(&mut socket, &hello()).unwrap();
    socket
}

/// The number of the next frame the stub sent down `socket`.
fn next_numbered(socket: &mut TcpStream) -> u64 {
    let frame = read_frame(socket).unwrap().expect("the server hung up");
    match ServerEvent::decode_exact(&frame).unwrap() {
        ServerEvent::LogReduced { through, .. } => through.raw(),
        other => panic!("expected a numbered frame, got {other:?}"),
    }
}

/// Wedges the dispatcher inside a query until the returned sender is
/// used or dropped; returns once it is wedged.
fn stall<'scope>(
    s: &'scope std::thread::Scope<'scope, '_>,
    kernel: &'scope Kernel<Stub>,
) -> std::sync::mpsc::Sender<()> {
    let (stalled_tx, stalled) = std::sync::mpsc::channel();
    let (release, released) = std::sync::mpsc::channel();
    let wedge = move |_: &mut Stub, _: &mut Io| {
        stalled_tx.send(()).unwrap();
        let _ = released.recv_timeout(Duration::from_secs(5));
    };
    s.spawn(move || kernel.call(wedge).unwrap());
    stalled.recv().unwrap();
    release
}

fn hello() -> bytes::Bytes {
    let hello = ClientRequest::Hello {
        version: PROTOCOL_VERSION,
        display_name: "flooder".into(),
        resume: None,
    };
    hello.encode_to_bytes()
}

fn broadcast() -> bytes::Bytes {
    let broadcast = ClientRequest::Broadcast {
        group: GroupId::new(1),
        update: StateUpdate::incremental(ObjectId::new(1), &b"x"[..]),
        scope: DeliveryScope::SenderExclusive,
    };
    broadcast.encode_to_bytes()
}

/// The longest wait between two of `times` from `since` to `until`.
fn longest_gap(times: &Mutex<Vec<Instant>>, since: Instant, until: Instant) -> Duration {
    let times = times.lock().unwrap();
    let inside = times.iter().filter(|t| (since..=until).contains(t));
    let mut edges = vec![since];
    edges.extend(inside.chain([&until]));
    let gaps = edges.windows(2).map(|pair| pair[1] - pair[0]);
    gaps.max().unwrap()
}

/// The tick runs on the dispatcher, between commands, and what it sends
/// is flushed with it: neither the tick nor its frame may wait for the
/// end of a batch that is thousands of requests long.
#[test]
fn tick_and_its_frame_keep_their_pace_under_a_flood_and_on_an_idle_server() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let stub = Stub {
        beat: true,
        ..Stub::default()
    };
    let ticks = Arc::clone(&stub.ticks);
    let registry = Registry::new();
    let (kernel, addr) = start(stub, &registry, &config());

    // The first client: every tick sends it a frame.
    let mut watcher = connect(&addr);
    let beats = Arc::new(Mutex::new(Vec::new()));
    let arrivals = Arc::clone(&beats);
    std::thread::spawn(move || {
        while let Ok(Some(_)) = read_frame(&mut watcher) {
            arrivals.lock().unwrap().push(Instant::now());
        }
    });
    while beats.lock().unwrap().is_empty() {
        std::thread::sleep(TICK);
    }

    // Twice what the dispatcher gets through in the time watched, and
    // no more: what is sent has to be worked off before the test ends.
    let watched = Duration::from_millis(400);
    let each = 2 * watched.as_micros() / WORK.as_micros() / 4;
    let mut flood = Vec::new();
    (0..each).for_each(|_| write_frame(&mut flood, &broadcast()).unwrap());
    let flood_from = Instant::now();
    let flood_until = flood_from + watched;
    let flooders: Vec<TcpStream> = std::thread::scope(|s| {
        let flooders: Vec<_> = (0..4)
            .map(|_| {
                let mut socket = connect(&addr);
                let flood = &flood;
                s.spawn(move || socket.write_all(flood).map(|()| socket).unwrap())
            })
            .collect();
        flooders.into_iter().map(|f| f.join().unwrap()).collect()
    });
    std::thread::sleep(flood_until.saturating_duration_since(Instant::now()));
    let batches = registry.snapshot();
    let longest = batches.histogram("server.queue.batch").unwrap().max as u32;
    assert!(
        longest * WORK > 5 * TICK,
        "longest drain {longest}: no flood"
    );
    let gap = longest_gap(&ticks, flood_from, flood_until);
    assert!(gap <= 5 * TICK, "under load a tick was {gap:?} late");
    let gap = longest_gap(&beats, flood_from, flood_until);
    assert!(
        gap <= 5 * TICK,
        "under load a tick's frame was {gap:?} late"
    );

    // Let the backlog drain, then watch an idle dispatcher.
    kernel.call(|_, _| ()).unwrap();
    let idle_from = Instant::now();
    std::thread::sleep(Duration::from_millis(200));
    let idle_until = Instant::now();
    let gap = longest_gap(&ticks, idle_from, idle_until);
    assert!(gap <= 5 * TICK, "idle, a tick was {gap:?} late");
    let gap = longest_gap(&beats, idle_from, idle_until);
    assert!(gap <= 5 * TICK, "idle, a tick's frame was {gap:?} late");
    drop(flooders);
}

/// Replies are corked while the dispatcher works through a batch, but
/// never more than the transport's write budget of them: a batch many
/// times a connection's transmit queue long reaches a client that keeps
/// reading in full, with nothing shed and nobody disconnected.
#[test]
fn a_batch_longer_than_the_transmit_queue_costs_a_steady_reader_nothing() {
    const CAP: usize = 512;
    const BATCH: u64 = 8 * CAP as u64;
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let stub = Stub {
        echo: true,
        ..Stub::default()
    };
    let registry = Registry::new();
    let (kernel, addr) = start(stub, &registry, &config().with_send_queue_capacity(CAP));
    let mut socket = connect(&addr);
    let mut wire = Vec::new();
    (0..BATCH).for_each(|_| write_frame(&mut wire, &broadcast()).unwrap());

    std::thread::scope(|s| {
        // Everything is queued up before the dispatcher sees any of it.
        let release = stall(s, &kernel);
        socket.write_all(&wire).unwrap();
        let read = registry.counter("transport.frames_in");
        let deadline = Instant::now() + Duration::from_secs(10);
        while read.get() < BATCH + 1 {
            assert!(Instant::now() < deadline, "the flood was never read");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(release);
        for n in 1..=BATCH {
            assert_eq!(next_numbered(&mut socket), n);
        }
    });
    let after = registry.snapshot();
    let longest = after.histogram("server.queue.batch").unwrap().max;
    assert!(
        longest >= BATCH,
        "the longest drain was {longest}: no batch"
    );
    assert_eq!(after.counter("server.shed"), 0);
    assert_eq!(after.counter("server.fanout.dead_conn"), 0);
    assert_eq!(after.counter("server.conns.closed"), 0);
    let deepest = after.histogram("server.fanout.queue_depth").unwrap().max;
    assert!(deepest <= CAP as u64, "backlog {deepest} past the cap");
}

#[test]
fn a_stalled_dispatcher_pauses_the_reads_feeding_it_and_resumes_them() {
    const FLOOD: u64 = 3 * SINK_QUEUE_HWM as u64;
    /// The mark, and the frame that reaches it on each connection.
    const BOUND: u64 = SINK_QUEUE_HWM as u64 + 4;
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let stub = Stub::default();
    let requests = Arc::clone(&stub.requests);
    let registry = Registry::new();
    let (kernel, addr) = start(stub, &registry, &config());
    let mut socket = connect(&addr);
    let depth = registry.gauge("server.queue.depth");
    let paused = registry.counter("server.reactor.read_paused");
    let mut wire = Vec::new();
    (0..FLOOD).for_each(|_| write_frame(&mut wire, &broadcast()).unwrap());

    std::thread::scope(|s| {
        let release = stall(s, &kernel);
        s.spawn(move || socket.write_all(&wire).map(|()| socket).unwrap());

        let deadline = Instant::now() + Duration::from_secs(10);
        while paused.get() == 0 {
            assert!(Instant::now() < deadline, "reads were never paused");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(requests.load(Ordering::Relaxed), 0, "still stalled");
        drop(release);

        // Released, the dispatcher takes what queued up: the mark and a
        // frame or two, however much the client has to send. Reading
        // resumes, so all of it arrives.
        let mut deepest = 0;
        while requests.load(Ordering::Relaxed) < FLOOD {
            assert!(Instant::now() < deadline, "reads were never resumed");
            deepest = deepest.max(depth.get() as u64);
        }
        assert!(deepest <= BOUND, "queue depth reached {deepest}");
    });
    let batches = registry.snapshot();
    let longest = batches.histogram("server.queue.batch").unwrap().max;
    assert!((2..=BOUND).contains(&longest), "a drain took {longest}");
}
