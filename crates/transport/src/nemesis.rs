//! The fault plane: a deterministic nemesis layer over any transport.
//!
//! [`Nemesis`] wraps [`Connection`]s, [`Listener`]s, and [`Dialer`]s of
//! *any* backend — real TCP and `corona-sim`'s virtual-time pipe alike
//! — and is the only place in the workspace where a fault can be
//! expressed. Every fault is a [`NemesisEvent`]: partitions and
//! one-direction blocks that heal, severed links, crashed nodes, and
//! seeded per-link mixes of dropped, delayed, duplicated, and reordered
//! frames. A whole fault run is therefore one list of timed
//! `NemesisEvent`s: `corona-sim`'s scenarios apply theirs on its
//! scheduler, at virtual times. Over real TCP a test applies events by
//! hand; no schedule is replayed on sockets yet.
//!
//! Faults are decided by a [`FaultRng`] seeded at construction, so a
//! chaos run is reproducible from its seed. Every injected fault is
//! counted under `server.nemesis.*` metrics so chaos runs are
//! observable (dropped, duplicated, reordered, delayed frames;
//! partition and heal transitions).
//!
//! ## Nodes, and what a partition does to a link
//!
//! Rules name *nodes*. A wrapped link knows its local node; its remote
//! node is known when the peer's label or dialled address maps to one
//! ([`Nemesis::register_addr`]) — always for dialled links and for the
//! simulator's links, never for an accepted TCP link, whose peer is an
//! ephemeral port. A blocked link whose remote is known becomes a
//! *black hole*: it stays up and swallows frames, as a real partition
//! appears to TCP until timeouts fire, and carries traffic again after
//! [`Nemesis::heal`] without a re-dial. Only a link whose remote is
//! unknown is *severed* instead, whenever its local node is named in
//! the partition (same-side pairs simply re-dial). Dials across a
//! block are refused until the heal.

use crate::inbox::lock;
use crate::traits::{Connection, Dialer, FlushBy, FrameSink, Listener, TransportError};
use bytes::Bytes;
use corona_metrics::{Counter, Registry};
use corona_types::frame::Frame;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

/// Per-link fault mix.
///
/// Rates are per-mille (0..=1000) so integer arithmetic stays exact
/// and seeds reproduce across platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkFaults {
    /// Probability (per mille) that a frame is silently dropped.
    pub drop_per_mille: u16,
    /// Probability (per mille) that a frame is delivered twice.
    pub dup_per_mille: u16,
    /// Probability (per mille) that a frame is held back and swapped
    /// with the next one (adjacent reorder).
    pub reorder_per_mille: u16,
    /// Fixed extra latency applied to every frame on the link.
    pub delay_ms: u64,
}

impl LinkFaults {
    /// A fault mix that does nothing.
    pub const NONE: LinkFaults = LinkFaults {
        drop_per_mille: 0,
        dup_per_mille: 0,
        reorder_per_mille: 0,
        delay_ms: 0,
    };

    /// Whether this mix injects no faults at all.
    pub fn is_none(&self) -> bool {
        *self == LinkFaults::NONE
    }
}

/// Small deterministic generator (splitmix64) used to decide fault
/// injection. Not cryptographic; chosen for reproducibility and
/// platform independence.
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Creates a generator from `seed` (any value, including 0).
    pub fn new(seed: u64) -> Self {
        FaultRng {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// True with probability `per_mille`/1000.
    pub fn chance(&mut self, per_mille: u16) -> bool {
        if per_mille == 0 {
            return false;
        }
        (self.next_u64() % 1000) < u64::from(per_mille)
    }
}

/// Counters for injected faults, resolved from a metric [`Registry`].
///
/// Metric names: `server.nemesis.dropped`, `server.nemesis.duplicated`,
/// `server.nemesis.reordered`, `server.nemesis.delayed` (frames) and
/// `server.nemesis.partitions`, `server.nemesis.heals` (events).
#[derive(Debug, Clone)]
pub struct NemesisMetrics {
    dropped: Arc<Counter>,
    duplicated: Arc<Counter>,
    reordered: Arc<Counter>,
    delayed: Arc<Counter>,
    partitions: Arc<Counter>,
    heals: Arc<Counter>,
}

impl NemesisMetrics {
    /// Resolves the nemesis metric set from `registry`.
    pub fn new(registry: &Registry) -> Self {
        NemesisMetrics {
            dropped: registry.counter("server.nemesis.dropped"),
            duplicated: registry.counter("server.nemesis.duplicated"),
            reordered: registry.counter("server.nemesis.reordered"),
            delayed: registry.counter("server.nemesis.delayed"),
            partitions: registry.counter("server.nemesis.partitions"),
            heals: registry.counter("server.nemesis.heals"),
        }
    }
}

/// One fault-plan step, applied with [`Nemesis::apply`].
#[derive(Debug, Clone)]
pub enum NemesisEvent {
    /// Partition the named nodes into groups: every link between
    /// different groups is blocked in both directions (black-holed, or
    /// severed when its remote node is unknown) and dials across are
    /// refused. Replaces all previous block rules.
    Partition(Vec<Vec<String>>),
    /// Swallow frames travelling `from -> to` only; the reverse
    /// direction keeps flowing (an asymmetric partition: `to` is still
    /// heard but hears nothing back). Adds to the current block rules.
    Block {
        /// The node whose frames are lost.
        from: String,
        /// The node that stops hearing `from`.
        to: String,
    },
    /// Clear every block rule; black-holed links carry traffic again
    /// and severed ones re-dial lazily.
    Heal,
    /// Close every live link between two nodes (a lost link: both ends
    /// observe `Closed`; a re-dial succeeds).
    Sever {
        /// One endpoint.
        a: String,
        /// The other endpoint.
        b: String,
    },
    /// Fail-stop crash of a node: close every live link touching it
    /// and refuse every later dial to or from it.
    Crash(String),
    /// Set the fault mix for one unordered node pair.
    SetLinkFaults {
        /// One endpoint.
        a: String,
        /// The other endpoint.
        b: String,
        /// The mix to apply (use [`LinkFaults::NONE`] to clear).
        faults: LinkFaults,
    },
    /// Set the fault mix applied to links with no per-pair entry.
    SetDefaultFaults(LinkFaults),
}

#[derive(Debug, Default)]
struct NemesisRules {
    /// Ordered `(from, to)` node pairs whose frames are swallowed; a
    /// partition inserts both directions of every crossing pair.
    blocked: HashSet<(String, String)>,
    /// Nodes that have crashed.
    crashed: HashSet<String>,
    /// Per-pair fault mixes (unordered keys).
    faults: HashMap<(String, String), LinkFaults>,
    /// Fallback mix for pairs without an entry.
    default_faults: LinkFaults,
}

fn pair_key(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_string(), b.to_string())
    } else {
        (b.to_string(), a.to_string())
    }
}

#[derive(Debug)]
struct NemesisInner {
    rng: Mutex<FaultRng>,
    rules: Mutex<NemesisRules>,
    /// Peer label or dialable address -> node name. Every node maps to
    /// itself, so the simulator's labels resolve directly; TCP
    /// "host:port" listening addresses are added by
    /// [`Nemesis::register_addr`].
    nodes: Mutex<HashMap<String, String>>,
    conns: Mutex<Vec<Weak<ConnShared>>>,
    metrics: NemesisMetrics,
}

impl NemesisInner {
    /// The fault mix frames sent `local -> remote` are subject to, or
    /// `None` if that direction is blocked. An unknown remote (an
    /// accepted TCP peer) is never blocked and gets the default mix.
    fn link(&self, local: &str, remote: Option<&str>) -> Option<LinkFaults> {
        let rules = lock(&self.rules);
        let Some(remote) = remote else {
            return Some(rules.default_faults);
        };
        if rules
            .blocked
            .contains(&(local.to_string(), remote.to_string()))
        {
            return None;
        }
        let faults = rules.faults.get(&pair_key(local, remote));
        Some(faults.copied().unwrap_or(rules.default_faults))
    }

    /// Maps a peer label or dialled address back to a node name.
    fn resolve(&self, label: &str) -> Option<String> {
        lock(&self.nodes).get(label).cloned()
    }

    /// Refuses a dial `from -> to` across a block (a handshake needs
    /// both directions) or touching a crashed node.
    fn check_dial(&self, from: &str, to: &str) -> Result<(), TransportError> {
        let rules = lock(&self.rules);
        let pair = (from.to_string(), to.to_string());
        let refused = rules.crashed.contains(from)
            || rules.crashed.contains(to)
            || rules.blocked.contains(&pair)
            || rules.blocked.contains(&(pair.1, pair.0));
        if refused {
            return Err(TransportError::Io(format!(
                "nemesis: route {from} -> {to} is down"
            )));
        }
        Ok(())
    }

    /// Closes every live link `cut` selects (and forgets dead ones).
    fn close_links(&self, cut: impl Fn(&ConnShared) -> bool) {
        lock(&self.conns).retain(|weak| {
            let Some(conn) = weak.upgrade() else {
                return false;
            };
            let cut = cut(&conn);
            if cut {
                conn.inner.close();
            }
            !cut && !conn.inner.is_closed()
        });
    }

    /// Releases the reorder slot of every live link that is now clean
    /// and unblocked: a frame parked there was waiting for a next send
    /// that may never come, and reorder must never become loss.
    fn flush_holds(&self) {
        for conn in lock(&self.conns).iter().filter_map(Weak::upgrade) {
            let clean = self.link(&conn.local, conn.remote.as_deref());
            if clean.is_some_and(|faults| faults.is_none()) {
                let _ = conn.release_hold();
                conn.inner.flush(FlushBy::Caller);
            }
        }
    }

    fn apply(&self, event: NemesisEvent) {
        match event {
            NemesisEvent::Partition(groups) => {
                {
                    let mut rules = lock(&self.rules);
                    rules.blocked.clear();
                    for (i, ga) in groups.iter().enumerate() {
                        for gb in groups.iter().skip(i + 1) {
                            for a in ga.iter() {
                                for b in gb.iter() {
                                    rules.blocked.insert((a.clone(), b.clone()));
                                    rules.blocked.insert((b.clone(), a.clone()));
                                }
                            }
                        }
                    }
                }
                self.metrics.partitions.inc();
                // Links with a known remote are black-holed by the
                // rules above. One whose remote is unknown cannot be
                // placed on either side, so it is severed whenever its
                // local node is named: same-side pairs re-dial at
                // once, crossing pairs are then refused.
                let named: HashSet<&String> = groups.iter().flatten().collect();
                self.close_links(|conn| conn.remote.is_none() && named.contains(&conn.local));
            }
            NemesisEvent::Block { from, to } => {
                lock(&self.rules).blocked.insert((from, to));
            }
            NemesisEvent::Heal => {
                lock(&self.rules).blocked.clear();
                self.metrics.heals.inc();
                self.flush_holds();
            }
            NemesisEvent::Sever { a, b } => self.close_links(|conn| {
                conn.remote.as_deref().is_some_and(|remote| {
                    (conn.local == a && remote == b) || (conn.local == b && remote == a)
                })
            }),
            NemesisEvent::Crash(node) => {
                lock(&self.rules).crashed.insert(node.clone());
                self.close_links(|conn| {
                    conn.local == node || conn.remote.as_deref() == Some(node.as_str())
                });
            }
            NemesisEvent::SetLinkFaults { a, b, faults } => {
                {
                    let mut rules = lock(&self.rules);
                    if faults.is_none() {
                        rules.faults.remove(&pair_key(&a, &b));
                    } else {
                        rules.faults.insert(pair_key(&a, &b), faults);
                    }
                }
                self.flush_holds();
            }
            NemesisEvent::SetDefaultFaults(faults) => {
                lock(&self.rules).default_faults = faults;
                self.flush_holds();
            }
        }
    }
}

/// A seeded fault injector wrapping any transport backend.
///
/// Cheap to clone; clones share the same rules, seed stream, and
/// metrics.
#[derive(Debug, Clone)]
pub struct Nemesis {
    inner: Arc<NemesisInner>,
}

impl Nemesis {
    /// Creates a nemesis seeded with `seed`, counting into `registry`.
    pub fn new(seed: u64, registry: &Registry) -> Self {
        Nemesis {
            inner: Arc::new(NemesisInner {
                rng: Mutex::new(FaultRng::new(seed)),
                rules: Mutex::new(NemesisRules::default()),
                nodes: Mutex::new(HashMap::new()),
                conns: Mutex::new(Vec::new()),
                metrics: NemesisMetrics::new(registry),
            }),
        }
    }

    /// Registers `addr` as belonging to node `node`, so rules can name
    /// nodes even when the backend's addresses are opaque (TCP
    /// "host:port") or one node listens at several. Links dialled to
    /// an address before it is registered keep the raw address as
    /// their remote, so register a cluster's addresses up front.
    pub fn register_addr(&self, addr: &str, node: &str) {
        let mut nodes = lock(&self.inner.nodes);
        nodes.insert(addr.to_string(), node.to_string());
        nodes.insert(node.to_string(), node.to_string());
    }

    /// Wraps a listener owned by `node`: accepted connections are
    /// fault-injected. The listener's address is registered for
    /// `node` automatically.
    pub fn wrap_listener(&self, node: &str, inner: Box<dyn Listener>) -> Box<dyn Listener> {
        self.register_addr(&inner.local_addr(), node);
        Box::new(NemesisListener {
            inner,
            node: node.to_string(),
            nem: self.clone(),
        })
    }

    /// Wraps a dialer originating from `node`: dials across a block or
    /// to a crashed node are refused, established connections are
    /// fault-injected.
    pub fn wrap_dialer(&self, node: &str, inner: Box<dyn Dialer>) -> Box<dyn Dialer> {
        self.register_addr(node, node);
        Box::new(NemesisDialer {
            inner,
            node: node.to_string(),
            nem: self.clone(),
        })
    }

    /// Wraps a single established connection (`remote` is the peer's
    /// node name when known).
    pub fn wrap_conn(
        &self,
        inner: Box<dyn Connection>,
        local: &str,
        remote: Option<String>,
    ) -> Box<dyn Connection> {
        let shared = Arc::new(ConnShared {
            inner,
            local: local.to_string(),
            remote,
            hold: Mutex::new(None),
            nem: Arc::downgrade(&self.inner),
        });
        lock(&self.inner.conns).push(Arc::downgrade(&shared));
        Box::new(NemesisConnection { shared })
    }

    /// Applies a fault-plan step immediately.
    pub fn apply(&self, event: NemesisEvent) {
        self.inner.apply(event);
    }

    /// Shorthand for [`NemesisEvent::Partition`] applied immediately.
    pub fn partition(&self, groups: &[&[&str]]) {
        self.apply(NemesisEvent::Partition(
            groups
                .iter()
                .map(|g| g.iter().map(|s| s.to_string()).collect())
                .collect(),
        ));
    }

    /// Shorthand for [`NemesisEvent::Block`] applied immediately.
    pub fn block(&self, from: &str, to: &str) {
        self.apply(NemesisEvent::Block {
            from: from.to_string(),
            to: to.to_string(),
        });
    }

    /// Shorthand for [`NemesisEvent::Heal`] applied immediately.
    pub fn heal(&self) {
        self.apply(NemesisEvent::Heal);
    }

    /// Shorthand for [`NemesisEvent::Sever`] applied immediately.
    pub fn sever(&self, a: &str, b: &str) {
        self.apply(NemesisEvent::Sever {
            a: a.to_string(),
            b: b.to_string(),
        });
    }

    /// Shorthand for [`NemesisEvent::Crash`] applied immediately.
    pub fn crash(&self, node: &str) {
        self.apply(NemesisEvent::Crash(node.to_string()));
    }

    /// Shorthand for [`NemesisEvent::SetLinkFaults`] applied
    /// immediately.
    pub fn set_link_faults(&self, a: &str, b: &str, faults: LinkFaults) {
        self.apply(NemesisEvent::SetLinkFaults {
            a: a.to_string(),
            b: b.to_string(),
            faults,
        });
    }

    /// Shorthand for [`NemesisEvent::SetDefaultFaults`] applied
    /// immediately.
    pub fn set_default_faults(&self, faults: LinkFaults) {
        self.apply(NemesisEvent::SetDefaultFaults(faults));
    }
}

#[derive(Debug)]
struct ConnShared {
    inner: Box<dyn Connection>,
    local: String,
    /// Peer node name, when known (dialled and simulated links always;
    /// accepted TCP links never).
    remote: Option<String>,
    /// One-slot reorder buffer: a held-back frame awaiting the next
    /// send (adjacent swap).
    hold: Mutex<Option<Frame>>,
    nem: Weak<NemesisInner>,
}

impl ConnShared {
    /// Queues the held-back frame, if any.
    fn release_hold(&self) -> Result<(), TransportError> {
        let held = lock(&self.hold).take();
        held.map_or(Ok(()), |frame| self.inner.queue_frame(frame))
    }
}

/// A fault-injecting [`Connection`] decorator minted by [`Nemesis`].
#[derive(Debug)]
pub struct NemesisConnection {
    shared: Arc<ConnShared>,
}

impl Connection for NemesisConnection {
    fn queue_frame(&self, frame: Frame) -> Result<(), TransportError> {
        let s = &self.shared;
        let Some(nem) = s.nem.upgrade() else {
            return s.inner.queue_frame(frame);
        };
        if s.inner.is_closed() {
            return Err(TransportError::Closed);
        }
        let Some(faults) = nem.link(&s.local, s.remote.as_deref()) else {
            // Black hole: a blocked link swallows frames (as a real
            // partition appears to the sender until timeouts fire).
            nem.metrics.dropped.inc();
            return Ok(());
        };
        if faults.is_none() {
            // A frame still held from a reorder is older: it goes
            // first.
            s.release_hold()?;
            return s.inner.queue_frame(frame);
        }
        let (drop_it, dup_it, reorder_it) = {
            let mut rng = lock(&nem.rng);
            (
                rng.chance(faults.drop_per_mille),
                rng.chance(faults.dup_per_mille),
                rng.chance(faults.reorder_per_mille),
            )
        };
        if faults.delay_ms > 0 {
            nem.metrics.delayed.inc();
            std::thread::sleep(Duration::from_millis(faults.delay_ms));
        }
        if drop_it {
            nem.metrics.dropped.inc();
            return Ok(());
        }
        let mut hold = lock(&s.hold);
        if reorder_it && hold.is_none() {
            *hold = Some(frame);
            nem.metrics.reordered.inc();
            return Ok(());
        }
        let prior = hold.take();
        drop(hold);
        // The current frame goes first; a held frame follows it
        // (completing the adjacent swap).
        s.inner.queue_frame(frame.clone())?;
        if let Some(h) = prior {
            let _ = s.inner.queue_frame(h);
        }
        if dup_it {
            nem.metrics.duplicated.inc();
            let _ = s.inner.queue_frame(frame);
        }
        Ok(())
    }

    fn flush(&self, by: FlushBy) {
        self.shared.inner.flush(by);
    }

    fn set_send_capacity(&self, cap: usize) {
        self.shared.inner.set_send_capacity(cap);
    }

    /// Faults act on the send side only: what arrives is the inner
    /// connection's to push.
    fn attach_sink(&self, conn_id: u64, sink: Arc<dyn FrameSink>) {
        self.shared.inner.attach_sink(conn_id, sink);
    }

    fn backlog(&self) -> usize {
        self.shared.inner.backlog()
    }

    fn close(&self) {
        self.shared.inner.close();
    }

    fn is_closed(&self) -> bool {
        self.shared.inner.is_closed()
    }

    fn peer_label(&self) -> String {
        self.shared.inner.peer_label()
    }
}

/// A fault-injecting [`Listener`] decorator minted by [`Nemesis`].
pub struct NemesisListener {
    inner: Box<dyn Listener>,
    node: String,
    nem: Nemesis,
}

impl Nemesis {
    /// Wraps a connection a listener of `node` accepted; its remote is
    /// the node its peer label names, if any does.
    fn wrap_accepted(&self, node: &str, conn: Box<dyn Connection>) -> Box<dyn Connection> {
        let remote = self.inner.resolve(&conn.peer_label());
        self.wrap_conn(conn, node, remote)
    }
}

/// The sink a [`NemesisListener`] hands the listener it wraps: wraps
/// each accepted connection on its way to `sink`.
struct AcceptWrapper {
    sink: Arc<dyn FrameSink>,
    node: String,
    nem: Nemesis,
}

impl FrameSink for AcceptWrapper {
    fn on_accept(&self, conn_id: u64, conn: Box<dyn Connection>) {
        let conn = self.nem.wrap_accepted(&self.node, conn);
        self.sink.on_accept(conn_id, conn);
    }
    fn on_frame(&self, conn_id: u64, frame: Bytes) -> bool {
        self.sink.on_frame(conn_id, frame)
    }
    fn ready_for_more(&self) -> bool {
        self.sink.ready_for_more()
    }
    fn on_closed(&self, conn_id: u64, clean: bool) {
        self.sink.on_closed(conn_id, clean);
    }
    fn on_drained(&self) {
        self.sink.on_drained();
    }
}

impl Listener for NemesisListener {
    /// Passed through: the wrapped listener keeps pushing under faults.
    fn attach_sink(&self, sink: Arc<dyn FrameSink>) -> bool {
        self.inner.attach_sink(Arc::new(AcceptWrapper {
            sink,
            node: self.node.clone(),
            nem: self.nem.clone(),
        }))
    }

    fn local_addr(&self) -> String {
        self.inner.local_addr()
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }
}

/// A fault-aware [`Dialer`] decorator minted by [`Nemesis`].
pub struct NemesisDialer {
    inner: Box<dyn Dialer>,
    node: String,
    nem: Nemesis,
}

impl Dialer for NemesisDialer {
    /// Dials through the inner dialer unless the route is down, and
    /// wraps the link with the node `addr` belongs to as its remote.
    fn dial_timeout(
        &self,
        addr: &str,
        timeout: Duration,
    ) -> Result<Box<dyn Connection>, TransportError> {
        let nem = &self.nem.inner;
        let remote = nem.resolve(addr).unwrap_or_else(|| addr.to_string());
        nem.check_dial(&self.node, &remote)?;
        let conn = self.inner.dial_timeout(addr, timeout)?;
        Ok(self.nem.wrap_conn(conn, &self.node, Some(remote)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::{ReactorListener, TcpDialer};
    use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};

    const WAIT: Duration = Duration::from_secs(10);

    /// What reaches one end of a link: its frames, then `None` once it
    /// closes.
    type Inbound = Receiver<Option<Bytes>>;

    /// An accepted connection, not yet wrapped, and what reaches it.
    type Accepted = (Box<dyn Connection>, Inbound);

    /// Reports what arrives on each connection to that connection's
    /// channel, and hands every accepted connection over with its own.
    #[derive(Default)]
    struct Tell {
        accepted: Mutex<Option<Sender<Accepted>>>,
        ends: Mutex<HashMap<u64, Sender<Option<Bytes>>>>,
    }

    impl Tell {
        fn open(&self, conn_id: u64) -> Inbound {
            let (tx, rx) = channel();
            lock(&self.ends).insert(conn_id, tx);
            rx
        }
    }

    impl FrameSink for Tell {
        fn on_accept(&self, conn_id: u64, conn: Box<dyn Connection>) {
            let inbound = self.open(conn_id);
            if let Some(accepted) = lock(&self.accepted).as_ref() {
                let _ = accepted.send((conn, inbound));
            }
        }
        fn on_frame(&self, conn_id: u64, frame: Bytes) -> bool {
            if let Some(end) = lock(&self.ends).get(&conn_id) {
                let _ = end.send(Some(frame));
            }
            true
        }
        fn ready_for_more(&self) -> bool {
            true
        }
        fn on_closed(&self, conn_id: u64, _clean: bool) {
            if let Some(end) = lock(&self.ends).remove(&conn_id) {
                let _ = end.send(None);
            }
        }
    }

    /// One end of a link, with what arrives at it.
    struct End {
        conn: Box<dyn Connection>,
        inbound: Inbound,
    }

    impl std::ops::Deref for End {
        type Target = dyn Connection;
        fn deref(&self) -> &Self::Target {
            self.conn.as_ref()
        }
    }

    impl End {
        fn dialled(conn: Box<dyn Connection>) -> End {
            let sink = Arc::new(Tell::default());
            let inbound = sink.open(1);
            conn.attach_sink(1, sink);
            End { conn, inbound }
        }

        /// The next frame; `None` once the link has closed.
        fn recv(&self) -> Option<Bytes> {
            self.inbound.recv_timeout(WAIT).expect("nothing arrived")
        }

        fn number(&self) -> u32 {
            let frame = self.recv().expect("link closed");
            u32::from_le_bytes(frame.as_ref().try_into().unwrap())
        }

        /// Asserts nothing arrives for a short while.
        fn assert_silent(&self, why: &str) {
            let got = self.inbound.recv_timeout(Duration::from_millis(20));
            assert_eq!(got, Err(RecvTimeoutError::Timeout), "{why}");
        }
    }

    /// A listener of `node` whose accepted connections come out of the
    /// receiver, each still to be wrapped.
    fn listen(nem: &Nemesis, node: &str) -> (ReactorListener, Receiver<Accepted>) {
        let listener = ReactorListener::bind("127.0.0.1:0", 1).unwrap();
        nem.register_addr(&listener.local_addr(), node);
        let (tx, accepted) = channel();
        let sink = Tell {
            accepted: Mutex::new(Some(tx)),
            ..Tell::default()
        };
        assert!(listener.attach_sink(Arc::new(sink)));
        (listener, accepted)
    }

    /// A link dialled from `from` to a listener of `to`, both ends
    /// wrapped; the accepted end is told its remote, as a simulated link
    /// knows it (an accepted socket's peer is an ephemeral port).
    fn pipe(nem: &Nemesis, from: &str, to: &str) -> (End, End, ReactorListener) {
        let (listener, accepted) = listen(nem, to);
        let (dialled, accepted_end) = connect(nem, from, &listener, &accepted, Some(to));
        (dialled, accepted_end, listener)
    }

    fn connect(
        nem: &Nemesis,
        from: &str,
        listener: &ReactorListener,
        accepted: &Receiver<Accepted>,
        to: Option<&str>,
    ) -> (End, End) {
        let dialer = nem.wrap_dialer(from, Box::new(TcpDialer));
        let dialled = End::dialled(dialer.dial(&listener.local_addr()).unwrap());
        let (conn, inbound) = accepted.recv_timeout(WAIT).unwrap();
        let remote = to.map(|_| from.to_string());
        let conn = nem.wrap_conn(conn, to.unwrap_or("b"), remote);
        (dialled, End { conn, inbound })
    }

    fn numbered(i: u32) -> Bytes {
        Bytes::from(i.to_le_bytes().to_vec())
    }

    #[test]
    fn clean_link_passes_frames_through() {
        let registry = Registry::new();
        let nem = Nemesis::new(7, &registry);
        let (a, b, _l) = pipe(&nem, "a", "b");
        a.send(Bytes::from_static(b"hello")).unwrap();
        assert_eq!(b.recv().unwrap().as_ref(), b"hello");
        b.send(Bytes::from_static(b"back")).unwrap();
        assert_eq!(a.recv().unwrap().as_ref(), b"back");
    }

    #[test]
    fn dropped_frames_are_counted_and_deterministic() {
        let run = |seed: u64| {
            let registry = Registry::new();
            let nem = Nemesis::new(seed, &registry);
            let (a, b, _l) = pipe(&nem, "a", "b");
            nem.set_link_faults(
                "a",
                "b",
                LinkFaults {
                    drop_per_mille: 300,
                    ..LinkFaults::NONE
                },
            );
            for i in 0..100u32 {
                a.send(numbered(i)).unwrap();
            }
            let dropped = registry.snapshot().counter("server.nemesis.dropped");
            let got: Vec<u32> = (dropped..100).map(|_| b.number()).collect();
            b.assert_silent("every survivor counted");
            (got, dropped)
        };
        let (got1, dropped1) = run(42);
        let (got2, dropped2) = run(42);
        assert_eq!(got1, got2, "same seed, same surviving frames");
        assert_eq!(dropped1, dropped2);
        assert!(dropped1 > 0, "a 30% drop rate over 100 frames fires");
        assert!(got1.is_sorted(), "drops never reorder survivors");
    }

    #[test]
    fn duplicates_and_reorders_fire_and_lose_nothing() {
        let registry = Registry::new();
        let nem = Nemesis::new(3, &registry);
        let (a, b, _l) = pipe(&nem, "a", "b");
        nem.set_link_faults(
            "a",
            "b",
            LinkFaults {
                dup_per_mille: 200,
                reorder_per_mille: 200,
                ..LinkFaults::NONE
            },
        );
        for i in 0..200u32 {
            a.send(numbered(i)).unwrap();
        }
        // Clearing the faults releases a frame still held for reorder.
        nem.set_link_faults("a", "b", LinkFaults::NONE);
        let snap = registry.snapshot();
        let duplicated = snap.counter("server.nemesis.duplicated");
        assert!(duplicated > 0);
        assert!(snap.counter("server.nemesis.reordered") > 0);
        let got: Vec<u32> = (0..200 + duplicated).map(|_| b.number()).collect();
        b.assert_silent("every arrival counted");
        let unique: HashSet<u32> = got.iter().copied().collect();
        assert_eq!(unique.len(), 200, "every frame arrives at least once");
        assert!(
            got.windows(2).any(|w| w[1] < w[0]),
            "adjacent swaps observed"
        );
    }

    #[test]
    fn delay_is_applied_and_counted() {
        let registry = Registry::new();
        let nem = Nemesis::new(1, &registry);
        let (a, b, _l) = pipe(&nem, "a", "b");
        nem.set_link_faults(
            "a",
            "b",
            LinkFaults {
                delay_ms: 10,
                ..LinkFaults::NONE
            },
        );
        let t0 = std::time::Instant::now();
        a.send(Bytes::from_static(b"slow")).unwrap();
        assert_eq!(b.recv().unwrap().as_ref(), b"slow");
        assert!(t0.elapsed() >= Duration::from_millis(10));
        assert_eq!(registry.snapshot().counter("server.nemesis.delayed"), 1);
    }

    #[test]
    fn partition_black_holes_known_links_until_heal() {
        let registry = Registry::new();
        let nem = Nemesis::new(9, &registry);
        let (a, b, listener) = pipe(&nem, "a", "b");
        let dialer = nem.wrap_dialer("a", Box::new(TcpDialer));

        nem.partition(&[&["a"], &["b"]]);
        a.send(Bytes::from_static(b"void")).unwrap();
        b.send(Bytes::from_static(b"void")).unwrap();
        b.assert_silent("a -> b is a black hole");
        a.assert_silent("b -> a is a black hole");
        assert!(!a.is_closed() && !b.is_closed(), "the link stays up");
        assert!(
            matches!(
                dialer.dial(&listener.local_addr()),
                Err(TransportError::Io(_))
            ),
            "cross-partition dial refused"
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("server.nemesis.partitions"), 1);
        assert_eq!(snap.counter("server.nemesis.dropped"), 2);

        // The same link carries traffic again: no re-dial needed.
        nem.heal();
        assert_eq!(registry.snapshot().counter("server.nemesis.heals"), 1);
        a.send(Bytes::from_static(b"through")).unwrap();
        assert_eq!(b.recv().unwrap().as_ref(), b"through");
        assert!(
            dialer.dial(&listener.local_addr()).is_ok(),
            "dials flow after the heal"
        );
    }

    #[test]
    fn partition_severs_links_whose_remote_is_unknown() {
        let registry = Registry::new();
        let nem = Nemesis::new(9, &registry);
        let (listener, accepted) = listen(&nem, "b");
        // An accepted TCP peer is an ephemeral port: no remote node.
        let (_d1, named_local) = connect(&nem, "x", &listener, &accepted, None);
        nem.partition(&[&["a"], &["b"]]);
        assert!(named_local.is_closed(), "local node named: severed");
        let (_d2, bystander) = connect(&nem, "y", &listener, &accepted, None);
        nem.partition(&[&["a"], &["c"]]);
        assert!(!bystander.is_closed(), "local node not named: untouched");
    }

    #[test]
    fn same_side_links_survive_partition() {
        let registry = Registry::new();
        let nem = Nemesis::new(5, &registry);
        let (a, c, _l) = pipe(&nem, "a", "c");
        nem.partition(&[&["a", "c"], &["b"]]);
        a.send(Bytes::from_static(b"still here")).unwrap();
        assert_eq!(c.recv().unwrap().as_ref(), b"still here");
    }

    #[test]
    fn directed_block_drops_one_direction_only() {
        let registry = Registry::new();
        let nem = Nemesis::new(4, &registry);
        let (c, s, _l) = pipe(&nem, "c", "s");

        nem.block("s", "c");
        c.send(Bytes::from_static(b"up")).unwrap();
        assert_eq!(s.recv().unwrap().as_ref(), b"up");
        s.send(Bytes::from_static(b"down")).unwrap();
        c.assert_silent("the blocked direction is a black hole");

        nem.heal();
        s.send(Bytes::from_static(b"down2")).unwrap();
        assert_eq!(c.recv().unwrap().as_ref(), b"down2");
    }

    #[test]
    fn sever_closes_exactly_the_named_pair() {
        let registry = Registry::new();
        let nem = Nemesis::new(6, &registry);
        let (listener, accepted) = listen(&nem, "s");
        let (a, s_from_a) = connect(&nem, "a", &listener, &accepted, Some("s"));
        let (b, s_from_b) = connect(&nem, "b", &listener, &accepted, Some("s"));

        nem.sever("s", "a");
        assert_eq!(a.recv(), None);
        assert_eq!(s_from_a.recv(), None);
        assert!(!b.is_closed() && !s_from_b.is_closed(), "b - s untouched");
        // A lost link, not a partition: the pair may reconnect.
        let dialer_a = nem.wrap_dialer("a", Box::new(TcpDialer));
        assert!(dialer_a.dial(&listener.local_addr()).is_ok());
    }

    #[test]
    fn crash_closes_every_link_touching_the_node_and_refuses_dials() {
        let registry = Registry::new();
        let nem = Nemesis::new(8, &registry);
        let (c_to_s, s_from_c, ls) = pipe(&nem, "c", "s");
        let (s_to_t, t_from_s, lt) = pipe(&nem, "s", "t");
        let dialer_c = nem.wrap_dialer("c", Box::new(TcpDialer));
        let c_to_t = dialer_c.dial(&lt.local_addr()).unwrap();

        nem.crash("s");
        for dead in [&c_to_s, &s_from_c, &s_to_t, &t_from_s] {
            assert_eq!(dead.recv(), None);
        }
        assert!(!c_to_t.is_closed(), "a link between other nodes survives");
        assert!(
            dialer_c.dial(&ls.local_addr()).is_err(),
            "dials to the dead node fail"
        );
        nem.heal();
        assert!(
            dialer_c.dial(&ls.local_addr()).is_err(),
            "a heal does not revive it"
        );
    }

    /// Regression: a frame parked in the one-slot reorder buffer used
    /// to wait for a next send on the same link; if the faults were
    /// lifted and nothing else was sent, reorder had become loss.
    #[test]
    fn lifting_the_faults_releases_a_held_frame_without_a_second_send() {
        let on_link = |faults| NemesisEvent::SetLinkFaults {
            a: "a".into(),
            b: "b".into(),
            faults,
        };
        let always = LinkFaults {
            reorder_per_mille: 1000,
            ..LinkFaults::NONE
        };
        let split = NemesisEvent::Partition(vec![vec!["a".into()], vec!["b".into()]]);
        let lifts = [
            (on_link(always), vec![on_link(LinkFaults::NONE)]),
            (
                NemesisEvent::SetDefaultFaults(always),
                vec![NemesisEvent::SetDefaultFaults(LinkFaults::NONE)],
            ),
            // Lifted while partitioned: the heal releases the frame.
            (
                on_link(always),
                vec![split, on_link(LinkFaults::NONE), NemesisEvent::Heal],
            ),
        ];
        for (impose, lift) in lifts {
            let registry = Registry::new();
            let nem = Nemesis::new(1, &registry);
            let (a, b, _l) = pipe(&nem, "a", "b");
            nem.apply(impose);
            a.send(Bytes::from_static(b"only")).unwrap();
            b.assert_silent("held back for an adjacent swap");
            lift.into_iter().for_each(|event| nem.apply(event));
            assert_eq!(b.recv().unwrap().as_ref(), b"only");
        }
    }
}
