//! The virtual-time push pipe: a [`Listener`] / [`Dialer`] /
//! [`Connection`] trio with no thread and no clock of its own.
//!
//! A queued frame becomes a [`Delivery`] due one link latency
//! later; so does an accept, and so does each end's report of a close.
//! Deliveries collect in the net's outbox: whoever owns the loop moves
//! them onto its [`Scheduler`](crate::engine::Scheduler) after every
//! step and runs each when virtual time gets there. Frames of one
//! direction arrive in the order they were sent — it is a TCP
//! connection that is modelled — however the latency moves meanwhile.
//! Faults are not modelled here at all: wrap the listeners and dialers
//! in a [`Nemesis`](corona_transport::Nemesis), as over any transport.
//!
//! **Costs** are the net's too, so that the servers know nothing of
//! them. A node given a [`Host`] has a CPU: a frame queued there takes
//! it for the profile's enqueue cost, plus the encode cost the first
//! time that frame body is queued (a multicast encodes once); a frame
//! arriving there takes it for the receive cost, plus the state-apply
//! cost at a stateful server, before anything hears of the frame. A
//! link between a server (a host with a LAN) and a node without one
//! crosses the server's LAN; a link between two servers crosses the
//! one backbone of [`SimNet::costed`]. A frame takes its segment for
//! its transmission time once the sender's CPU is done with it, and
//! arrives one hop latency after that. Nodes without a host and links
//! without a segment cost nothing: [`SimNet::new`]'s every link is
//! 150 µs plus up to 100 µs of seeded jitter, and that is all.
//!
//! One thread uses a net and everything made from it — the traits ask
//! for `Sync`, hence atomics, but nothing here is ever contended.

use crate::engine::{Resource, SimTime};
use crate::hosts::{HostProfile, NetworkProfile};
use bytes::Bytes;
use corona_transport::{
    Connection, Dialer, FaultRng, FrameSink, Listener, TransportError, DEFAULT_SEND_CAPACITY,
};
use corona_types::frame::Frame;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Locks past a poisoning: the net is only ever used by one thread.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One end of a pipe.
struct End {
    /// The node this end belongs to.
    node: String,
    /// [`Connection::peer_label`]: the address dialled, or the node
    /// that dialled.
    label: String,
    /// Who hears what arrives here, and under which connection id.
    sink: OnceLock<(u64, Arc<dyn FrameSink>)>,
    closed: AtomicBool,
    /// Whether the sink has been told so.
    close_reported: AtomicBool,
    /// Frames sent from here and not yet arrived.
    in_flight: AtomicUsize,
    send_capacity: AtomicUsize,
    /// When the last thing sent from here arrives: nothing overtakes it.
    last_arrival: AtomicU64,
}

/// Something due to happen at the far side of a link.
pub struct Delivery(Due);

enum Due {
    /// A dialled connection reaches its listener.
    Accept(Arc<ListenerInner>, SimConnection),
    /// A frame reaches a node with a CPU, which has yet to receive it.
    Arrive(SimNet, Arc<End>, Arc<End>, Bytes),
    /// A frame reaches the end it was sent to.
    Frame(Arc<End>, Arc<End>, Bytes),
    /// An end hears that its connection closed.
    Closed(Arc<End>),
}

impl Delivery {
    /// The node this happens at.
    pub fn node(&self) -> &str {
        match &self.0 {
            Due::Accept(listener, _) => &listener.node,
            Due::Arrive(_, _, to, _) | Due::Frame(_, to, _) | Due::Closed(to) => &to.node,
        }
    }

    /// Makes it happen: calls the receiving sink. `false` if all it did
    /// was take the receiver's CPU — the frame lands once that is done.
    pub fn run(self) -> bool {
        match self.0 {
            Due::Accept(listener, conn) => {
                // Shut down, or never served: the connection is dropped,
                // and so closed.
                let (Some(sink), false) = (listener.sink.get(), listener.is_shut_down()) else {
                    return true;
                };
                let conn_id = listener.next_conn.fetch_add(1, Ordering::Relaxed);
                let _ = conn.local.sink.set((conn_id, Arc::clone(sink)));
                sink.on_accept(conn_id, Box::new(conn));
            }
            Due::Arrive(net, from, to, body) => {
                let now = net.inner.now.load(Ordering::Relaxed);
                let done = lock(&net.inner.costs).receive(&to.node, now, body.len());
                net.post(done, Due::Frame(from, to, body));
                return false;
            }
            Due::Frame(from, to, body) => {
                from.in_flight.fetch_sub(1, Ordering::Relaxed);
                // An end that has closed hears nothing more; one nobody
                // attached to yet cannot exist (see `SimNet::dial`).
                if let (Some((conn_id, sink)), false) = (to.sink.get(), to.is_closed()) {
                    sink.on_frame(*conn_id, body);
                }
            }
            Due::Closed(to) => {
                to.closed.store(true, Ordering::Relaxed);
                if to.close_reported.swap(true, Ordering::Relaxed) {
                    return true;
                }
                if let Some((conn_id, sink)) = to.sink.get() {
                    sink.on_closed(*conn_id, true);
                }
            }
        }
        true
    }
}

/// What an event trace records of a delivery: its kind, where it
/// happens and how much it carries.
impl std::hash::Hash for Delivery {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let (kind, len) = match &self.0 {
            Due::Accept(..) => (0u8, 0),
            Due::Frame(_, _, body) => (1, body.len()),
            Due::Closed(_) => (2, 0),
            Due::Arrive(_, _, _, body) => (3, body.len()),
        };
        (kind, self.node(), len).hash(state);
    }
}

impl End {
    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Relaxed)
    }
}

/// One-way latency of a link without a segment, in microseconds, and
/// the most a frame's seeded jitter adds to it on a [`SimNet::new`].
const LATENCY: SimTime = 150;
const JITTER: SimTime = 100;

/// What a node costs.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// Its CPU.
    pub cpu: HostProfile,
    /// Whether a frame arriving here is also applied to shared state.
    pub stateful: bool,
    /// A server's LAN: the segment of its links to nodes without one.
    pub lan: Option<NetworkProfile>,
}

/// A shared medium: frames cross it one at a time.
struct Segment {
    profile: NetworkProfile,
    wire: Resource,
}

impl Segment {
    fn new(profile: NetworkProfile) -> Segment {
        Segment {
            profile,
            wire: Resource::new(),
        }
    }
}

struct Node {
    host: Host,
    cpu: Resource,
    lan: Option<Segment>,
    /// The last frame body this node paid to encode — held, so that its
    /// address is not reused by another.
    encoded: Option<Bytes>,
}

#[derive(Default)]
struct Costs {
    nodes: BTreeMap<String, Node>,
    backbone: Option<Segment>,
}

impl Costs {
    /// The segment a frame between `a` and `b` crosses, if any.
    fn segment(&mut self, a: &str, b: &str) -> Option<&mut Segment> {
        let lan = |n: &str| self.nodes.get(n).is_some_and(|n| n.lan.is_some());
        match (lan(a), lan(b)) {
            (true, true) => self.backbone.as_mut(),
            (true, false) => self.nodes.get_mut(a)?.lan.as_mut(),
            (false, true) => self.nodes.get_mut(b)?.lan.as_mut(),
            (false, false) => None,
        }
    }

    /// When something sent `from` a node `now` has crossed to `to`'s
    /// side of the link, and the hop latency it arrives after that. An
    /// accept or a close (no `frame`) costs no CPU and no wire time.
    fn send(
        &mut self,
        from: &str,
        to: &str,
        now: SimTime,
        frame: Option<&Frame>,
    ) -> (SimTime, SimTime) {
        let mut ready = now;
        if let (Some(node), Some(frame)) = (self.nodes.get_mut(from), frame) {
            let body = frame.body();
            let same = |e: &Bytes| (e.as_ptr(), e.len()) == (body.as_ptr(), body.len());
            let fresh = !node.encoded.as_ref().is_some_and(same);
            let mut cost = node.host.cpu.enqueue_cost();
            if fresh {
                cost += node.host.cpu.encode_cost(body.len());
                node.encoded = Some(body.clone());
            }
            ready = node.cpu.acquire(now, cost);
        }
        match (self.segment(from, to), frame) {
            (Some(seg), Some(frame)) => {
                let sent = seg
                    .wire
                    .acquire(ready, seg.profile.transmission_us(frame.wire_len()));
                (sent, seg.profile.hop_latency_us)
            }
            (Some(seg), None) => (ready, seg.profile.hop_latency_us),
            (None, _) => (ready, LATENCY),
        }
    }

    /// When `node` has received a frame of `len` bytes that arrived `now`.
    fn receive(&mut self, node: &str, now: SimTime, len: usize) -> SimTime {
        let Some(node) = self.nodes.get_mut(node) else {
            return now;
        };
        let cpu = node.host.cpu;
        let apply = if node.host.stateful {
            cpu.state_apply_cost(len)
        } else {
            0
        };
        node.cpu.acquire(now, cpu.recv_cost(len) + apply)
    }
}

struct NetInner {
    now: AtomicU64,
    outbox: Mutex<Vec<(SimTime, Delivery)>>,
    listeners: Mutex<BTreeMap<String, Arc<ListenerInner>>>,
    /// Extra one-way latency per ordered node pair.
    delays: Mutex<BTreeMap<(String, String), SimTime>>,
    rng: Mutex<FaultRng>,
    jitter: SimTime,
    costs: Mutex<Costs>,
}

/// A network of named nodes under virtual time. Cheap to clone.
#[derive(Clone)]
pub struct SimNet {
    inner: Arc<NetInner>,
}

impl SimNet {
    /// A network whose links' jitter is drawn from `seed`.
    pub fn new(seed: u64) -> Self {
        SimNet::with(seed, JITTER, Costs::default())
    }

    /// A network without jitter whose server↔server links cross one
    /// shared `backbone`; its nodes' costs are [`SimNet::set_host`]'s.
    pub fn costed(backbone: NetworkProfile) -> Self {
        let costs = Costs {
            backbone: Some(Segment::new(backbone)),
            ..Costs::default()
        };
        SimNet::with(0, 0, costs)
    }

    fn with(seed: u64, jitter: SimTime, costs: Costs) -> Self {
        SimNet {
            inner: Arc::new(NetInner {
                now: AtomicU64::new(0),
                outbox: Mutex::new(Vec::new()),
                listeners: Mutex::new(BTreeMap::new()),
                delays: Mutex::new(BTreeMap::new()),
                rng: Mutex::new(FaultRng::new(seed)),
                jitter,
                costs: Mutex::new(costs),
            }),
        }
    }

    /// Charges what `node` sends and receives from now on to `host`.
    pub fn set_host(&self, node: &str, host: Host) {
        let node_costs = Node {
            host,
            cpu: Resource::new(),
            lan: host.lan.map(Segment::new),
            encoded: None,
        };
        lock(&self.inner.costs)
            .nodes
            .insert(node.to_string(), node_costs);
    }

    /// CPU time `node` has spent so far, in microseconds.
    pub fn busy_us(&self, node: &str) -> SimTime {
        let costs = lock(&self.inner.costs);
        costs.nodes.get(node).map_or(0, |n| n.cpu.busy_total())
    }

    /// Tells the net what time it is: the loop's owner, before each step.
    pub fn set_now(&self, now: SimTime) {
        self.inner.now.store(now, Ordering::Relaxed);
    }

    /// What time the loop's owner last said it was.
    pub fn now(&self) -> SimTime {
        self.inner.now.load(Ordering::Relaxed)
    }

    /// Everything that came due to be scheduled since the last call.
    /// The outbox keeps its capacity: a server queueing a frame
    /// allocates nothing here.
    pub fn take_outbox(&self) -> Vec<(SimTime, Delivery)> {
        lock(&self.inner.outbox).drain(..).collect()
    }

    /// Sets the extra latency of frames between `a` and `b`, both ways.
    pub fn set_delay(&self, a: &str, b: &str, extra: SimTime) {
        let mut delays = lock(&self.inner.delays);
        delays.insert((a.to_string(), b.to_string()), extra);
        delays.insert((b.to_string(), a.to_string()), extra);
    }

    /// Starts listening at `addr` on behalf of `node`.
    pub fn listen(&self, node: &str, addr: &str) -> SimListener {
        let inner = Arc::new(ListenerInner {
            node: node.to_string(),
            addr: addr.to_string(),
            sink: OnceLock::new(),
            next_conn: AtomicU64::new(1),
            shut_down: AtomicBool::new(false),
        });
        lock(&self.inner.listeners).insert(addr.to_string(), Arc::clone(&inner));
        SimListener {
            inner,
            net: self.clone(),
        }
    }

    /// A dialer for connections originating at `node`.
    pub fn dialer(&self, node: &str) -> SimDialer {
        SimDialer {
            net: self.clone(),
            node: node.to_string(),
        }
    }

    /// When something sent now `from` its end arrives at node `to` —
    /// a `frame` once the sender's CPU and the segment are done with it.
    fn arrival(&self, from: &End, to: &str, frame: Option<&Frame>) -> SimTime {
        let extra = {
            let delays = lock(&self.inner.delays);
            let of_pair = match delays.is_empty() {
                true => None,
                false => delays.get(&(from.node.clone(), to.to_string())),
            };
            of_pair.copied().unwrap_or(0)
        };
        let jitter = lock(&self.inner.rng).next_u64() % (self.inner.jitter + 1);
        let now = self.inner.now.load(Ordering::Relaxed);
        let (sent, latency) = lock(&self.inner.costs).send(&from.node, to, now, frame);
        let at = (sent + latency + extra + jitter).max(from.last_arrival.load(Ordering::Relaxed));
        from.last_arrival.store(at, Ordering::Relaxed);
        at
    }

    fn post(&self, at: SimTime, due: Due) {
        lock(&self.inner.outbox).push((at, Delivery(due)));
    }
}

/// One endpoint of a virtual-time connection. Closing or dropping it
/// closes the pair: this end hears of it at once, the other once
/// everything already on its way has arrived.
pub struct SimConnection {
    local: Arc<End>,
    peer: Arc<End>,
    net: SimNet,
}

impl std::fmt::Debug for SimConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SimConnection({} -> {})",
            self.local.node, self.peer.node
        )
    }
}

impl Connection for SimConnection {
    fn queue_frame(&self, frame: Frame) -> Result<(), TransportError> {
        if self.local.is_closed() {
            return Err(TransportError::Closed);
        }
        let cap = self.local.send_capacity.load(Ordering::Relaxed);
        if self.local.in_flight.load(Ordering::Relaxed) >= cap {
            return Err(TransportError::Full);
        }
        self.local.in_flight.fetch_add(1, Ordering::Relaxed);
        let (from, to) = (Arc::clone(&self.local), Arc::clone(&self.peer));
        let at = self.net.arrival(&self.local, &self.peer.node, Some(&frame));
        let body = frame.into_body();
        let costed = lock(&self.net.inner.costs).nodes.contains_key(&to.node);
        let due = match costed {
            true => Due::Arrive(self.net.clone(), from, to, body),
            false => Due::Frame(from, to, body),
        };
        self.net.post(at, due);
        Ok(())
    }

    fn set_send_capacity(&self, cap: usize) {
        self.local
            .send_capacity
            .store(cap.max(1), Ordering::Relaxed);
    }

    fn attach_sink(&self, conn_id: u64, sink: Arc<dyn FrameSink>) {
        let _ = self.local.sink.set((conn_id, sink));
    }

    fn backlog(&self) -> usize {
        self.local.in_flight.load(Ordering::Relaxed)
    }

    fn close(&self) {
        if self.local.closed.swap(true, Ordering::Relaxed) {
            return;
        }
        let now = self.net.inner.now.load(Ordering::Relaxed);
        self.net.post(now, Due::Closed(Arc::clone(&self.local)));
        if !self.peer.is_closed() {
            let at = self.net.arrival(&self.local, &self.peer.node, None);
            self.net.post(at, Due::Closed(Arc::clone(&self.peer)));
        }
    }

    fn is_closed(&self) -> bool {
        self.local.is_closed()
    }

    fn peer_label(&self) -> String {
        self.local.label.clone()
    }
}

impl Drop for SimConnection {
    fn drop(&mut self) {
        self.close();
    }
}

struct ListenerInner {
    node: String,
    addr: String,
    sink: OnceLock<Arc<dyn FrameSink>>,
    next_conn: AtomicU64,
    shut_down: AtomicBool,
}

impl ListenerInner {
    fn is_shut_down(&self) -> bool {
        self.shut_down.load(Ordering::Relaxed)
    }
}

/// Accept side of a [`SimNet::listen`] call.
pub struct SimListener {
    inner: Arc<ListenerInner>,
    net: SimNet,
}

impl Listener for SimListener {
    fn local_addr(&self) -> String {
        self.inner.addr.clone()
    }

    fn shutdown(&self) {
        self.inner.shut_down.store(true, Ordering::Relaxed);
        let mut listeners = lock(&self.net.inner.listeners);
        if listeners
            .get(&self.inner.addr)
            .is_some_and(|l| Arc::ptr_eq(l, &self.inner))
        {
            listeners.remove(&self.inner.addr);
        }
    }

    fn attach_sink(&self, sink: Arc<dyn FrameSink>) -> bool {
        self.inner.sink.set(sink).is_ok() && !self.inner.is_shut_down()
    }
}

/// [`Dialer`] bound to a source node.
pub struct SimDialer {
    net: SimNet,
    node: String,
}

impl Dialer for SimDialer {
    /// Never blocks. The caller must attach its sink before virtual
    /// time moves on: a frame that arrives at an end nobody listens on
    /// is lost.
    fn dial_timeout(
        &self,
        addr: &str,
        _timeout: Duration,
    ) -> Result<Box<dyn Connection>, TransportError> {
        let listener = lock(&self.net.inner.listeners).get(addr).cloned();
        let listener =
            listener.ok_or_else(|| TransportError::Io(format!("no listener at {addr}")))?;
        let end = |node: &str, label: &str| {
            Arc::new(End {
                node: node.to_string(),
                label: label.to_string(),
                sink: OnceLock::new(),
                closed: AtomicBool::new(false),
                close_reported: AtomicBool::new(false),
                in_flight: AtomicUsize::new(0),
                send_capacity: AtomicUsize::new(DEFAULT_SEND_CAPACITY),
                last_arrival: AtomicU64::new(0),
            })
        };
        let (ours, theirs) = (end(&self.node, addr), end(&listener.node, &self.node));
        let conn = |local: &Arc<End>, peer: &Arc<End>| SimConnection {
            local: Arc::clone(local),
            peer: Arc::clone(peer),
            net: self.net.clone(),
        };
        // The accept travels like a frame, ahead of everything the
        // dialler sends.
        let at = self.net.arrival(&ours, &listener.node, None);
        self.net
            .post(at, Due::Accept(listener, conn(&theirs, &ours)));
        Ok(Box::new(conn(&ours, &theirs)))
    }
}
