//! Heap allocations per broadcast on the server side.
//!
//! A counting global allocator counts the allocations (and
//! reallocations) made by the servers' dispatchers — every
//! `run_pending` turn — while a closed loop of broadcasts runs through
//! a stepped replicated star and a stepped single server over
//! `corona_sim`'s virtual-time net. Clients, the net and the test's own
//! bookkeeping run uncounted: what is measured is what the protocol,
//! the kernel and the codec cost per broadcast, the same code that
//! serves TCP.
//!
//! The shape is the repo benchmark's `replicated_star`: twelve members
//! of one group spread round-robin over three servers, 256-byte
//! payloads, sent from a member whose server is a forward away from
//! the coordinator.
//!
//! Only the counted thread's allocations are counted (the flag is
//! thread-local), so the other tests of this binary add no noise.
//!
//! The same runs pin the fan-out's accounting: a multicast accounts
//! the copies its recipients accepted in one update per metric, and
//! the totals are one per copy.

use bytes::Bytes;
use corona::health::HealthRegistry;
use corona::metrics::MetricsSnapshot;
use corona::replication::{ReplicatedConfig, ReplicatedServer};
use corona::service::{CoronaServer, ServerConfig};
use corona::sim::net::{Delivery, SimNet};
use corona::transport::{Connection, Dialer, FrameSink};
use corona::types::id::{GroupId, ObjectId, ServerId};
use corona::types::message::{ClientRequest, ServerEvent, PROTOCOL_VERSION};
use corona::types::policy::{DeliveryScope, MemberRole, Persistence, StateTransferPolicy};
use corona::types::state::{SharedState, StateUpdate};
use corona::types::wire::{decode_traced, encode_traced};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    let counting = COUNTING.try_with(Cell::get).unwrap_or(false);
    if counting {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator calls `f` makes on this thread.
fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCATIONS.with(Cell::get) - before
}

const GROUP: GroupId = GroupId(1);
const MEMBERS: usize = 12;
const PAYLOAD: usize = 256;
/// Broadcasts sent before counting starts: tables and queues reach
/// their working size, so what is counted is the steady state.
const WARMUP: u64 = 32;
const BROADCASTS: u64 = 256;

/// Allocator calls per broadcast, summed over every server's
/// dispatcher. Before exact-size encoding, the shared `Sequenced`
/// frame and byte strings decoded as slices of their frame, these runs
/// counted 54.2 (replicated star) and 8.7 (single server); the star's
/// budget is half that, and both now count well under their budget.
const REPLICATED_STAR_CEILING: f64 = 27.0;
const SINGLE_SERVER_CEILING: f64 = 6.0;

enum Server {
    Single(CoronaServer),
    Replica(ReplicatedServer),
}

impl Server {
    fn run_pending(&self, now_ms: u64) -> bool {
        match self {
            Server::Single(s) => s.run_pending(now_ms),
            Server::Replica(s) => s.run_pending(now_ms),
        }
    }

    fn metrics(&self) -> MetricsSnapshot {
        match self {
            Server::Single(s) => s.metrics_registry().snapshot(),
            Server::Replica(s) => s.metrics(),
        }
    }

    fn health(&self) -> Arc<HealthRegistry> {
        match self {
            Server::Single(s) => s.health_registry(),
            Server::Replica(s) => s.health_registry(),
        }
    }
}

/// A client's end: every frame it is sent, in arrival order.
#[derive(Default)]
struct Mailbox(Mutex<Vec<Bytes>>);

impl FrameSink for Mailbox {
    fn on_accept(&self, _conn_id: u64, _conn: Box<dyn Connection>) {}
    fn on_frame(&self, _conn_id: u64, frame: Bytes) -> bool {
        self.0.lock().unwrap().push(frame);
        true
    }
    fn ready_for_more(&self) -> bool {
        true
    }
    fn on_closed(&self, _conn_id: u64, _clean: bool) {}
}

struct Client {
    conn: Box<dyn Connection>,
    mailbox: Arc<Mailbox>,
}

impl Client {
    fn send(&self, request: &ClientRequest) {
        self.conn.send(encode_traced(request, None)).unwrap();
    }

    /// The events that arrived since the last call.
    fn events(&self) -> Vec<ServerEvent> {
        let frames = std::mem::take(&mut *self.mailbox.0.lock().unwrap());
        let decode = |frame: Bytes| decode_traced::<ServerEvent>(&frame).unwrap().0;
        frames.into_iter().map(decode).collect()
    }
}

/// Servers `s1`… and clients `c0`… on one virtual-time net, stepped
/// by hand: every delivery runs in time order, and a server's
/// dispatcher is turned until idle after each one that reaches it.
struct Lab {
    net: SimNet,
    servers: Vec<Server>,
    clients: Vec<Client>,
    due: BTreeMap<(u64, u64), Delivery>,
    scheduled: u64,
    /// Whether dispatcher turns are being counted, and their count.
    counting: bool,
    allocations: u64,
}

impl Lab {
    fn new(n_servers: usize) -> Lab {
        let net = SimNet::new(7);
        let addr = |i: usize, plane: &str| format!("s{}-{plane}", i + 1);
        let peers: Vec<(ServerId, String)> = (0..n_servers)
            .map(|i| (ServerId::new(i as u64 + 1), addr(i, "peer")))
            .collect();
        let server = |i: usize| {
            let name = format!("s{}", i + 1);
            let listen = |plane| Box::new(net.listen(&name, &addr(i, plane)));
            let config = ServerConfig::stateful(ServerId::new(i as u64 + 1));
            if n_servers == 1 {
                return Server::Single(CoronaServer::stepped(listen("client"), config).unwrap());
            }
            // No heartbeat falls inside the run: it costs its own
            // allocations, and no broadcast's.
            let config = ReplicatedConfig {
                server_config: config,
                heartbeat_ms: 60_000,
                base_timeout_ms: 600_000,
                ..ReplicatedConfig::new(ServerId::new(i as u64 + 1), peers.clone())
            };
            let dialer = Arc::new(net.dialer(&name));
            let started =
                ReplicatedServer::stepped(listen("client"), listen("peer"), dialer, config);
            Server::Replica(started.unwrap())
        };
        let servers = (0..n_servers).map(server).collect();
        let mut lab = Lab {
            net,
            servers,
            clients: Vec::new(),
            due: BTreeMap::new(),
            scheduled: 0,
            counting: false,
            allocations: 0,
        };
        lab.settle();
        for c in 0..MEMBERS {
            lab.join(c, n_servers);
        }
        lab
    }

    /// Client `c` connects to its server — round-robin, from `s2` on a
    /// star — creates the group if it is the first, and joins.
    fn join(&mut self, c: usize, n_servers: usize) {
        let home = format!("s{}-client", (c + 1) % n_servers + 1);
        let conn = self.net.dialer(&format!("c{c}")).dial(&home).unwrap();
        let mailbox = Arc::new(Mailbox::default());
        conn.attach_sink(0, Arc::clone(&mailbox) as Arc<dyn FrameSink>);
        let client = Client { conn, mailbox };
        client.send(&ClientRequest::Hello {
            version: PROTOCOL_VERSION,
            display_name: format!("c{c}"),
            resume: None,
        });
        if c == 0 {
            client.send(&ClientRequest::CreateGroup {
                group: GROUP,
                persistence: Persistence::Persistent,
                initial_state: SharedState::new(),
            });
        }
        client.send(&ClientRequest::Join {
            group: GROUP,
            role: MemberRole::Principal,
            policy: StateTransferPolicy::None,
            notify_membership: false,
        });
        self.clients.push(client);
        self.settle();
        let joined = self.clients[c].events();
        let joined = joined
            .iter()
            .any(|e| matches!(e, ServerEvent::Joined { .. }));
        assert!(joined, "c{c} joined");
    }

    /// Runs every delivery due, in time order, until nothing is left.
    fn settle(&mut self) {
        loop {
            for (at, delivery) in self.net.take_outbox() {
                self.due.insert((at, self.scheduled), delivery);
                self.scheduled += 1;
            }
            let Some(((at, _), delivery)) = self.due.pop_first() else {
                return;
            };
            self.net.set_now(at);
            let node = delivery.node().to_string();
            if delivery.run() {
                if let Some(i) = node.strip_prefix('s') {
                    self.step(i.parse::<usize>().unwrap() - 1, at);
                }
            }
        }
    }

    fn step(&mut self, i: usize, now_us: u64) {
        let server = &self.servers[i];
        let turn = || while server.run_pending(now_us / 1000) {};
        if self.counting {
            self.allocations += allocations_of(turn);
        } else {
            turn();
        }
    }

    /// Broadcasts `n` updates from client `c1`, one at a time: each is
    /// delivered everywhere before the next is sent.
    fn broadcast(&mut self, n: u64) {
        for i in 0..n {
            let broadcast = ClientRequest::Broadcast {
                group: GROUP,
                update: StateUpdate::incremental(ObjectId(1), vec![i as u8; PAYLOAD]),
                scope: DeliveryScope::SenderInclusive,
            };
            self.clients[1].send(&broadcast);
            self.settle();
        }
        for (c, client) in self.clients.iter().enumerate() {
            let delivered = client.events().into_iter().filter(|event| {
                matches!(event, ServerEvent::Multicast { logged, .. }
                    if logged.update.payload.len() == PAYLOAD)
            });
            assert_eq!(delivered.count() as u64, n, "c{c}");
        }
    }

    /// Allocator calls per broadcast, over every dispatcher, in the
    /// steady state of a closed loop.
    fn allocations_per_broadcast(mut self) -> f64 {
        self.broadcast(WARMUP);
        self.counting = true;
        self.broadcast(BROADCASTS);
        self.allocations as f64 / BROADCASTS as f64
    }

    /// Every server's metrics, merged.
    fn metrics(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        self.servers.iter().for_each(|s| merged.merge(&s.metrics()));
        merged
    }
}

#[test]
fn a_replicated_star_broadcast_stays_under_its_allocation_budget() {
    let per_broadcast = Lab::new(3).allocations_per_broadcast();
    println!("replicated star: {per_broadcast:.1} allocator calls per broadcast");
    assert!(
        per_broadcast <= REPLICATED_STAR_CEILING,
        "{per_broadcast:.1} allocator calls per broadcast, budget {REPLICATED_STAR_CEILING}"
    );
}

#[test]
fn a_single_server_broadcast_stays_under_its_allocation_budget() {
    let per_broadcast = Lab::new(1).allocations_per_broadcast();
    println!("single server: {per_broadcast:.1} allocator calls per broadcast");
    assert!(
        per_broadcast <= SINGLE_SERVER_CEILING,
        "{per_broadcast:.1} allocator calls per broadcast, budget {SINGLE_SERVER_CEILING}"
    );
}

#[test]
fn a_multicast_accounts_one_copy_per_member_that_accepted_it() {
    for n_servers in [1, 3] {
        let mut lab = Lab::new(n_servers);
        lab.broadcast(WARMUP);
        let before = lab.metrics();
        lab.broadcast(BROADCASTS);
        let traffic = lab.metrics().delta(&before);
        let copies = BROADCASTS * MEMBERS as u64;
        assert_eq!(traffic.counter("server.fanout.enqueues"), copies);
        assert_eq!(traffic.counter("transport.frames_out"), copies);
        let sizes = traffic.histogram("transport.frame_out_bytes").unwrap();
        assert_eq!(sizes.count, copies);
        assert_eq!(sizes.sum, traffic.counter("transport.bytes_out"));
        // One encode per broadcast on each server that fans it out.
        let encodes = traffic.counter("server.fanout.encodes");
        assert_eq!(encodes, BROADCASTS * n_servers as u64);
        for server in &lab.servers {
            let delivered = server.health().group(GROUP).delivered();
            assert_eq!(delivered, WARMUP + BROADCASTS, "{n_servers} servers");
        }
    }
}
