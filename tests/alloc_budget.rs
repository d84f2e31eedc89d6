//! Heap allocations per broadcast, on the servers and on the clients.
//!
//! A counting global allocator counts the allocations (and
//! reallocations) made by the servers' dispatchers — every
//! `run_pending` turn a delivery sets off — and by the clients' sessions
//! taking each delivery (decode and event queue), while a closed loop
//! of broadcasts runs through a stepped replicated star and a stepped
//! single server: `corona_sim`'s stepped harness over its virtual-time
//! net, every client a `ClientSession`. The net, the servers' ticks and
//! the test's own bookkeeping run uncounted: what is measured is what
//! the protocol, the kernel, the codec and the client protocol cost per
//! broadcast, the same code that serves TCP.
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

use corona::replication::ReplicatedConfig;
use corona::sim::net::SimNet;
use corona::sim::stepped::{self, Driver, Lab, Run, Work};
use corona::types::id::{GroupId, ObjectId};
use corona::types::message::ServerEvent;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Allocator calls `f` makes on this thread, and what it returns.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (ALLOCATIONS.with(Cell::get) - before, out)
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
/// Allocator calls per delivery on a client: its session's decode of
/// the multicast and its event queue. Both shapes count 0.0 — the
/// payload is decoded as a slice of its frame, and a queue the
/// application drains keeps its capacity — so any headroom over the
/// measured count is none.
const CLIENT_CEILING: f64 = 0.0;

/// Counts, while on, the allocator calls of every dispatcher turn a
/// delivery sets off and of every delivery to a client; and tallies
/// the multicasts each client is handed.
#[derive(Default)]
struct Count {
    on: bool,
    server: u64,
    client: u64,
    delivered: Vec<u64>,
}

impl Driver for Count {
    type Act = ();

    fn settled(&mut self, lab: &mut Lab, c: usize) -> Result<(), String> {
        let mut session = lab.session(c);
        while let Some(event) = session.next_event() {
            let ours = matches!(event, ServerEvent::Multicast { logged, .. }
                if logged.update.payload.len() == PAYLOAD);
            self.delivered[c] += u64::from(ours);
        }
        Ok(())
    }

    fn measure<T>(&mut self, work: Work, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let (n, out) = allocations_of(f);
        match work {
            Work::Turn(_) => self.server += n,
            Work::Deliver(_) => self.client += n,
        }
        out
    }
}

/// Servers `s1`… and members `c0`… of one group on the stepped
/// harness, joined one at a time.
fn start(n_servers: u64) -> Run<Count> {
    // No heartbeat falls inside the run: it costs its own allocations,
    // and no broadcast's.
    let tune = |config| ReplicatedConfig {
        heartbeat_ms: 60_000,
        base_timeout_ms: 600_000,
        ..config
    };
    let lab = Lab::start(SimNet::new(7), None, n_servers, MEMBERS, tune);
    let count = Count {
        delivered: vec![0; MEMBERS],
        ..Count::default()
    };
    let mut run = Run::new(lab, count);
    run.join_all(0..MEMBERS, GROUP);
    run
}

/// Broadcasts `n` updates from client `c1`, one at a time: each is
/// delivered everywhere before the next is sent.
fn broadcast(run: &mut Run<Count>, n: u64) {
    let before = run.driver.delivered.clone();
    for i in 0..n {
        let broadcast = stepped::broadcast(GROUP, ObjectId(1), vec![i as u8; PAYLOAD]);
        run.with_session(1, |session, _| session.broadcast(&broadcast).unwrap());
        run.settle();
    }
    for (c, delivered) in run.driver.delivered.iter().enumerate() {
        assert_eq!(delivered - before[c], n, "c{c}");
    }
}

/// Counts the steady state of a closed loop over `n_servers` and holds
/// it to `ceiling` per broadcast over every dispatcher, and to
/// [`CLIENT_CEILING`] per delivery on the clients.
fn assert_budget(shape: &str, n_servers: u64, ceiling: f64) {
    let mut run = start(n_servers);
    broadcast(&mut run, WARMUP);
    run.driver.on = true;
    broadcast(&mut run, BROADCASTS);
    let per_broadcast = run.driver.server as f64 / BROADCASTS as f64;
    let per_delivery = run.driver.client as f64 / (BROADCASTS * MEMBERS as u64) as f64;
    println!(
        "{shape}: {per_broadcast:.1} allocator calls per broadcast, \
         {per_delivery:.1} per client delivery"
    );
    assert!(
        per_broadcast <= ceiling,
        "{per_broadcast:.1} allocator calls per broadcast, budget {ceiling}"
    );
    assert!(
        per_delivery <= CLIENT_CEILING,
        "{per_delivery:.1} client allocator calls per delivery, budget {CLIENT_CEILING}"
    );
}

#[test]
fn a_replicated_star_broadcast_stays_under_its_allocation_budget() {
    assert_budget("replicated star", 3, REPLICATED_STAR_CEILING);
}

#[test]
fn a_single_server_broadcast_stays_under_its_allocation_budget() {
    assert_budget("single server", 1, SINGLE_SERVER_CEILING);
}

#[test]
fn a_multicast_accounts_one_copy_per_member_that_accepted_it() {
    for n_servers in [1, 3] {
        let mut run = start(n_servers);
        broadcast(&mut run, WARMUP);
        let before = run.lab.metrics();
        broadcast(&mut run, BROADCASTS);
        let traffic = run.lab.metrics().delta(&before);
        let copies = BROADCASTS * MEMBERS as u64;
        assert_eq!(traffic.counter("server.fanout.enqueues"), copies);
        assert_eq!(traffic.counter("transport.frames_out"), copies);
        let sizes = traffic.histogram("transport.frame_out_bytes").unwrap();
        assert_eq!(sizes.count, copies);
        assert_eq!(sizes.sum, traffic.counter("transport.bytes_out"));
        // One encode per broadcast on each server that fans it out.
        let encodes = traffic.counter("server.fanout.encodes");
        assert_eq!(encodes, BROADCASTS * n_servers);
        for server in run.lab.servers.iter().flatten() {
            let health = server.health_registry();
            let delivered = health.group(GROUP).delivered();
            assert_eq!(delivered, WARMUP + BROADCASTS, "{n_servers} servers");
        }
    }
}
