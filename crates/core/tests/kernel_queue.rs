//! The dispatcher's command queue under pressure: the tick keeps its
//! pace while clients flood, and a stalled dispatcher pushes back on
//! the sockets feeding it instead of queueing without bound.

use corona_core::kernel::SINK_QUEUE_HWM;
use corona_core::{Io, Kernel, Protocol, ServerConfig};
use corona_health::HealthRegistry;
use corona_metrics::Registry;
use corona_transport::{Connection, Listener, MemNetwork, ReactorListener, TransportError};
use corona_types::frame::write_frame;
use corona_types::id::{ClientId, GroupId, ObjectId, ServerId};
use corona_types::message::ClientRequest;
use corona_types::policy::DeliveryScope;
use corona_types::state::{StateUpdate, Timestamp};
use corona_types::wire::Encode;
use corona_types::PROTOCOL_VERSION;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const TICK: Duration = Duration::from_millis(10);
/// What a request costs the dispatcher: a full queue is then many
/// ticks' worth of work.
const WORK: Duration = Duration::from_micros(20);

/// Both tests load the machine; neither should time the other.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Admits every client, answers nothing; counts requests, times ticks.
#[derive(Default)]
struct Stub {
    clients: u64,
    requests: Arc<AtomicU64>,
    ticks: Arc<Mutex<Vec<Instant>>>,
}

impl Protocol for Stub {
    type Effect = ();

    fn client_hello(&mut self, _: String, _: Option<ClientId>) -> (ClientId, Vec<()>) {
        self.clients += 1;
        (ClientId::new(self.clients), Vec::new())
    }
    fn handle_request(&mut self, _: ClientId, _: ClientRequest, _: Timestamp) -> Vec<()> {
        let started = Instant::now();
        while started.elapsed() < WORK {
            std::hint::spin_loop();
        }
        self.requests.fetch_add(1, Ordering::Relaxed);
        Vec::new()
    }
    fn client_disconnected(&mut self, _: ClientId) -> Vec<()> {
        Vec::new()
    }
    fn execute(&mut self, _: Vec<()>, _: &mut Io) {}
    fn refresh_health(&self, _: &HealthRegistry) {}
    fn tick_every(&self) -> Option<Duration> {
        Some(TICK)
    }
    fn tick(&mut self, _: &mut Io) {
        self.ticks.lock().unwrap().push(Instant::now());
    }
}

fn start(stub: Stub, registry: &Arc<Registry>, listener: Box<dyn Listener>) -> Kernel<Stub> {
    let config = ServerConfig::stateful(ServerId::new(1));
    Kernel::start("stub", &config, Arc::clone(registry), stub, listener, None)
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

/// The longest wait for a tick between `since` and `until`.
fn longest_gap(ticks: &Mutex<Vec<Instant>>, since: Instant, until: Instant) -> Duration {
    let ticks = ticks.lock().unwrap();
    let inside = ticks.iter().filter(|t| (since..=until).contains(t));
    let mut edges = vec![since];
    edges.extend(inside.chain([&until]));
    let gaps = edges.windows(2).map(|pair| pair[1] - pair[0]);
    gaps.max().unwrap()
}

#[test]
fn tick_keeps_its_pace_under_a_flood_and_on_an_idle_server() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let stub = Stub::default();
    let ticks = Arc::clone(&stub.ticks);
    let registry = Registry::new();
    let net = MemNetwork::new();
    let kernel = start(stub, &registry, Box::new(net.listen("server").unwrap()));

    let flood_from = Instant::now();
    let flood_until = flood_from + Duration::from_millis(400);
    std::thread::scope(|s| {
        for i in 0..4 {
            let conn = net.dial_from(&format!("c{i}"), "server").unwrap();
            s.spawn(move || {
                conn.send(hello()).unwrap();
                while Instant::now() < flood_until {
                    if conn.send(broadcast()) == Err(TransportError::Full) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            });
        }
    });
    let batches = registry.snapshot();
    let longest = batches.histogram("server.queue.batch").unwrap().max as u32;
    assert!(
        longest * WORK > 5 * TICK,
        "longest drain {longest}: no flood"
    );
    let gap = longest_gap(&ticks, flood_from, flood_until);
    assert!(gap <= 5 * TICK, "under load a tick was {gap:?} late");

    // Let the backlog drain, then watch an idle dispatcher.
    kernel.call(|_, _| ()).unwrap();
    let idle_from = Instant::now();
    std::thread::sleep(Duration::from_millis(200));
    let gap = longest_gap(&ticks, idle_from, Instant::now());
    assert!(gap <= 5 * TICK, "idle, a tick was {gap:?} late");
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
    let listener = ReactorListener::bind_with_registry("127.0.0.1:0", 1, Some(&registry)).unwrap();
    let mut socket = std::net::TcpStream::connect(listener.local_addr()).unwrap();
    let kernel = start(stub, &registry, Box::new(listener));
    let depth = registry.gauge("server.queue.depth");
    let paused = registry.counter("server.reactor.read_paused");
    let mut wire = Vec::new();
    write_frame(&mut wire, &hello()).unwrap();
    (0..FLOOD).for_each(|_| write_frame(&mut wire, &broadcast()).unwrap());

    std::thread::scope(|s| {
        // Wedge the dispatcher inside a query, then flood it.
        let (stalled_tx, stalled) = std::sync::mpsc::channel();
        let stall = move |_: &mut Stub, _: &mut Io| {
            stalled_tx.send(()).unwrap();
            std::thread::sleep(Duration::from_millis(600));
        };
        s.spawn(|| kernel.call(stall).unwrap());
        stalled.recv().unwrap();
        s.spawn(move || socket.write_all(&wire).map(|()| socket).unwrap());

        let deadline = Instant::now() + Duration::from_secs(10);
        while paused.get() == 0 {
            assert!(Instant::now() < deadline, "reads were never paused");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(requests.load(Ordering::Relaxed), 0, "still stalled");

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
