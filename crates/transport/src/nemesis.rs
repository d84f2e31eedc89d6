//! Deterministic nemesis fault layer over any transport.
//!
//! [`Nemesis`] wraps [`Connection`]s, [`Listener`]s, and [`Dialer`]s of
//! *any* backend (the in-memory network and real TCP alike) and
//! injects seeded per-link faults — dropped, delayed, duplicated, and
//! reordered frames — plus scheduled partition/heal events. It is the
//! chaos-testing counterpart of the in-memory network's built-in
//! rules: `mem` can black-hole traffic it routes itself, while the
//! nemesis layer sits *above* the transport so the same fault schedule
//! drives a reactor-TCP cluster byte-for-byte like a mem cluster.
//!
//! Faults are decided by a [`FaultRng`] seeded at construction, so a
//! chaos run is reproducible from its seed. Every injected fault is
//! counted under `server.nemesis.*` metrics so chaos runs are
//! observable (dropped, duplicated, reordered, delayed frames;
//! partition and heal transitions).
//!
//! ## Partitions over real TCP
//!
//! The in-memory network can black-hole frames because it routes them.
//! A nemesis partition instead combines two mechanisms that work for
//! any backend: it *severs* live wrapped connections that cross the
//! partition (closing them, as a real partition eventually appears to
//! TCP once keepalives fire) and *blocks dials* between nodes in
//! different groups, so the runtime's lazy re-dial fails until
//! [`Nemesis::heal`] clears the rules. An accepted TCP connection's
//! peer is an ephemeral port and cannot always be mapped back to a
//! node name; such connections are severed conservatively whenever
//! their local node appears in the partition spec (same-side pairs
//! simply re-dial and reconnect immediately).

use crate::traits::{Connection, Dialer, Listener, TransportError};
use bytes::Bytes;
use corona_metrics::{Counter, Registry};
use corona_types::frame::Frame;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Per-link fault mix, shared vocabulary between the nemesis layer and
/// the in-memory network's seeded fault injection.
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

/// A scheduled or immediately applied fault-plan step.
#[derive(Debug, Clone)]
pub enum NemesisEvent {
    /// Partition the named nodes into groups: dials between different
    /// groups are refused, live crossing connections are severed.
    /// Replaces all previous partition rules.
    Partition(Vec<Vec<String>>),
    /// Clear every partition rule (links re-dial lazily).
    Heal,
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
    /// Unordered node pairs whose traffic is blocked (partition).
    blocked: HashSet<(String, String)>,
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
    /// Dialable address -> node name (for backends whose addresses are
    /// not node names, i.e. TCP "host:port").
    addr_nodes: Mutex<HashMap<String, String>>,
    /// Node names this nemesis knows about (registered via wrapping).
    nodes: Mutex<HashSet<String>>,
    conns: Mutex<Vec<Weak<ConnShared>>>,
    metrics: NemesisMetrics,
}

impl NemesisInner {
    fn is_blocked(&self, a: &str, b: &str) -> bool {
        self.rules.lock().blocked.contains(&pair_key(a, b))
    }

    /// The effective fault mix for a link; `remote == None` (an
    /// unresolvable accepted peer) gets the default mix.
    fn faults_for(&self, local: &str, remote: Option<&str>) -> LinkFaults {
        let rules = self.rules.lock();
        match remote {
            Some(r) => rules
                .faults
                .get(&pair_key(local, r))
                .copied()
                .unwrap_or(rules.default_faults),
            None => rules.default_faults,
        }
    }

    /// Maps a peer label back to a node name, when possible.
    fn resolve_peer(&self, label: &str) -> Option<String> {
        if self.nodes.lock().contains(label) {
            return Some(label.to_string());
        }
        self.addr_nodes.lock().get(label).cloned()
    }

    fn apply(self: &Arc<Self>, event: NemesisEvent) {
        match event {
            NemesisEvent::Partition(groups) => {
                {
                    let mut rules = self.rules.lock();
                    rules.blocked.clear();
                    for (i, ga) in groups.iter().enumerate() {
                        for gb in groups.iter().skip(i + 1) {
                            for a in ga.iter() {
                                for b in gb.iter() {
                                    rules.blocked.insert(pair_key(a, b));
                                }
                            }
                        }
                    }
                }
                self.metrics.partitions.inc();
                // Sever live wrapped connections that cross the
                // partition; connections whose remote node cannot be
                // resolved (accepted TCP peers) are severed whenever
                // their local node is named — same-side pairs re-dial
                // instantly, crossing pairs are then refused.
                let named: HashSet<&String> = groups.iter().flatten().collect();
                let mut conns = self.conns.lock();
                conns.retain(|weak| {
                    let Some(shared) = weak.upgrade() else {
                        return false;
                    };
                    let cut = match shared.remote.lock().as_ref() {
                        Some(remote) => self.is_blocked(&shared.local, remote),
                        None => named.contains(&shared.local),
                    };
                    if cut {
                        shared.inner.close();
                    }
                    !cut
                });
            }
            NemesisEvent::Heal => {
                self.rules.lock().blocked.clear();
                self.metrics.heals.inc();
            }
            NemesisEvent::SetLinkFaults { a, b, faults } => {
                let mut rules = self.rules.lock();
                if faults.is_none() {
                    rules.faults.remove(&pair_key(&a, &b));
                } else {
                    rules.faults.insert(pair_key(&a, &b), faults);
                }
            }
            NemesisEvent::SetDefaultFaults(faults) => {
                self.rules.lock().default_faults = faults;
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
                addr_nodes: Mutex::new(HashMap::new()),
                nodes: Mutex::new(HashSet::new()),
                conns: Mutex::new(Vec::new()),
                metrics: NemesisMetrics::new(registry),
            }),
        }
    }

    /// Registers `addr` as belonging to node `node`, so partitions and
    /// per-link faults can name nodes even when the backend's
    /// addresses are opaque (TCP "host:port").
    pub fn register_addr(&self, addr: &str, node: &str) {
        self.inner
            .addr_nodes
            .lock()
            .insert(addr.to_string(), node.to_string());
        self.inner.nodes.lock().insert(node.to_string());
    }

    /// Wraps a listener owned by `node`: accepted connections are
    /// fault-injected. The listener's address is registered for
    /// `node` automatically.
    pub fn wrap_listener(&self, node: &str, inner: Box<dyn Listener>) -> Box<dyn Listener> {
        self.register_addr(&inner.local_addr(), node);
        Box::new(NemesisListener {
            inner,
            node: node.to_string(),
            nem: Arc::clone(&self.inner),
        })
    }

    /// Wraps a dialer originating from `node`: dials across a
    /// partition are refused, established connections are
    /// fault-injected.
    pub fn wrap_dialer(&self, node: &str, inner: Box<dyn Dialer>) -> Box<dyn Dialer> {
        self.inner.nodes.lock().insert(node.to_string());
        Box::new(NemesisDialer {
            inner,
            node: node.to_string(),
            nem: Arc::clone(&self.inner),
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
            remote: Mutex::new(remote),
            hold: Mutex::new(None),
            nem: Arc::downgrade(&self.inner),
        });
        self.inner.conns.lock().push(Arc::downgrade(&shared));
        Box::new(NemesisConnection { shared })
    }

    /// Applies a fault-plan step immediately.
    pub fn apply(&self, event: NemesisEvent) {
        self.inner.apply(event);
    }

    /// Applies `event` after `after` elapses, on a detached timer
    /// thread. Scheduling is relative to the call, so a chaos script
    /// lays out its whole plan up front and lets it run.
    pub fn schedule(&self, after: Duration, event: NemesisEvent) {
        let inner = Arc::clone(&self.inner);
        std::thread::spawn(move || {
            std::thread::sleep(after);
            inner.apply(event);
        });
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

    /// Shorthand for [`NemesisEvent::Heal`] applied immediately.
    pub fn heal(&self) {
        self.apply(NemesisEvent::Heal);
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
    /// Peer node name, when resolvable (dialed links always are;
    /// accepted TCP links usually are not).
    remote: Mutex<Option<String>>,
    /// One-slot reorder buffer: a held-back frame awaiting the next
    /// send (adjacent swap).
    hold: Mutex<Option<Frame>>,
    nem: Weak<NemesisInner>,
}

/// A fault-injecting [`Connection`] decorator minted by [`Nemesis`].
#[derive(Debug)]
pub struct NemesisConnection {
    shared: Arc<ConnShared>,
}

impl Connection for NemesisConnection {
    fn send_frame(&self, frame: Frame) -> Result<(), TransportError> {
        let s = &self.shared;
        let Some(nem) = s.nem.upgrade() else {
            return s.inner.send_frame(frame);
        };
        if s.inner.is_closed() {
            return Err(TransportError::Closed);
        }
        // Partition black hole: a blocked link swallows frames (as a
        // real partition appears to the sender until timeouts fire).
        if let Some(remote) = s.remote.lock().clone() {
            if nem.is_blocked(&s.local, &remote) {
                nem.metrics.dropped.inc();
                return Ok(());
            }
        }
        let faults = {
            let remote = s.remote.lock();
            nem.faults_for(&s.local, remote.as_deref())
        };
        if faults.is_none() {
            // Flush any frame held by a now-cleared reorder rule so it
            // is not stranded; it is older, so it goes first.
            let prior = s.hold.lock().take();
            if let Some(h) = prior {
                s.inner.send_frame(h)?;
            }
            return s.inner.send_frame(frame);
        }
        let (drop_it, dup_it, reorder_it) = {
            let mut rng = nem.rng.lock();
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
        let mut hold = s.hold.lock();
        if reorder_it && hold.is_none() {
            *hold = Some(frame);
            nem.metrics.reordered.inc();
            return Ok(());
        }
        let prior = hold.take();
        drop(hold);
        // The current frame goes first; a held frame follows it
        // (completing the adjacent swap).
        s.inner.send_frame(frame.clone())?;
        if let Some(h) = prior {
            let _ = s.inner.send_frame(h);
        }
        if dup_it {
            nem.metrics.duplicated.inc();
            let _ = s.inner.send_frame(frame);
        }
        Ok(())
    }

    fn recv(&self) -> Result<Bytes, TransportError> {
        self.shared.inner.recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Bytes, TransportError> {
        self.shared.inner.recv_timeout(timeout)
    }

    fn try_recv(&self) -> Result<Option<Bytes>, TransportError> {
        self.shared.inner.try_recv()
    }

    fn set_send_capacity(&self, cap: usize) {
        self.shared.inner.set_send_capacity(cap);
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
    nem: Arc<NemesisInner>,
}

impl Listener for NemesisListener {
    fn accept(&self) -> Result<Box<dyn Connection>, TransportError> {
        let conn = self.inner.accept()?;
        let remote = self.nem.resolve_peer(&conn.peer_label());
        let nemesis = Nemesis {
            inner: Arc::clone(&self.nem),
        };
        Ok(nemesis.wrap_conn(conn, &self.node, remote))
    }

    fn local_addr(&self) -> String {
        self.inner.local_addr()
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }
}

/// A partition-aware [`Dialer`] decorator minted by [`Nemesis`].
pub struct NemesisDialer {
    inner: Box<dyn Dialer>,
    node: String,
    nem: Arc<NemesisInner>,
}

impl NemesisDialer {
    fn wrap_dialed(
        &self,
        addr: &str,
        conn: Box<dyn Connection>,
    ) -> Result<Box<dyn Connection>, TransportError> {
        let remote = self
            .nem
            .resolve_peer(addr)
            .unwrap_or_else(|| addr.to_string());
        let nemesis = Nemesis {
            inner: Arc::clone(&self.nem),
        };
        Ok(nemesis.wrap_conn(conn, &self.node, Some(remote)))
    }

    fn check_blocked(&self, addr: &str) -> Result<(), TransportError> {
        let remote = self
            .nem
            .resolve_peer(addr)
            .unwrap_or_else(|| addr.to_string());
        if self.nem.is_blocked(&self.node, &remote) {
            return Err(TransportError::Io(format!(
                "nemesis: route {} -> {remote} is partitioned",
                self.node
            )));
        }
        Ok(())
    }
}

impl Dialer for NemesisDialer {
    fn dial(&self, addr: &str) -> Result<Box<dyn Connection>, TransportError> {
        self.check_blocked(addr)?;
        let conn = self.inner.dial(addr)?;
        self.wrap_dialed(addr, conn)
    }

    fn dial_timeout(
        &self,
        addr: &str,
        timeout: Duration,
    ) -> Result<Box<dyn Connection>, TransportError> {
        self.check_blocked(addr)?;
        let conn = self.inner.dial_timeout(addr, timeout)?;
        self.wrap_dialed(addr, conn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemNetwork;

    fn pipe(
        nem: &Nemesis,
        net: &MemNetwork,
        from: &str,
        to: &str,
    ) -> (Box<dyn Connection>, Box<dyn Connection>, Box<dyn Listener>) {
        let listener = nem.wrap_listener(to, Box::new(net.listen(to).unwrap()));
        let dialer = nem.wrap_dialer(from, Box::new(net.dialer(from)));
        let dial_side = dialer.dial(to).unwrap();
        let accept_side = listener.accept().unwrap();
        (dial_side, accept_side, listener)
    }

    #[test]
    fn clean_link_passes_frames_through() {
        let registry = Registry::new();
        let nem = Nemesis::new(7, &registry);
        let net = MemNetwork::new();
        let (a, b, _l) = pipe(&nem, &net, "a", "b");
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
            let net = MemNetwork::new();
            let (a, b, _l) = pipe(&nem, &net, "a", "b");
            nem.set_link_faults(
                "a",
                "b",
                LinkFaults {
                    drop_per_mille: 300,
                    ..LinkFaults::NONE
                },
            );
            for i in 0..100u32 {
                a.send(Bytes::from(i.to_le_bytes().to_vec())).unwrap();
            }
            let mut got = Vec::new();
            while let Ok(Some(f)) = b.try_recv() {
                got.push(u32::from_le_bytes(f.as_ref().try_into().unwrap()));
            }
            let dropped = registry.snapshot().counter("server.nemesis.dropped");
            (got, dropped)
        };
        let (got1, dropped1) = run(42);
        let (got2, dropped2) = run(42);
        assert_eq!(got1, got2, "same seed, same surviving frames");
        assert_eq!(dropped1, dropped2);
        assert!(dropped1 > 0, "a 30% drop rate over 100 frames fires");
        assert_eq!(got1.len() as u64 + dropped1, 100);
        let sorted = {
            let mut s = got1.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(got1, sorted, "drops never reorder survivors");
    }

    #[test]
    fn duplicates_and_reorders_fire_and_lose_nothing() {
        let registry = Registry::new();
        let nem = Nemesis::new(3, &registry);
        let net = MemNetwork::new();
        let (a, b, _l) = pipe(&nem, &net, "a", "b");
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
            a.send(Bytes::from(i.to_le_bytes().to_vec())).unwrap();
        }
        // Clearing the faults flushes any held frame on the next send.
        nem.set_link_faults("a", "b", LinkFaults::NONE);
        a.send(Bytes::from(200u32.to_le_bytes().to_vec())).unwrap();
        let mut got = Vec::new();
        while let Ok(Some(f)) = b.try_recv() {
            got.push(u32::from_le_bytes(f.as_ref().try_into().unwrap()));
        }
        let snap = registry.snapshot();
        assert!(snap.counter("server.nemesis.duplicated") > 0);
        assert!(snap.counter("server.nemesis.reordered") > 0);
        let unique: HashSet<u32> = got.iter().copied().collect();
        assert_eq!(unique.len(), 201, "every frame arrives at least once");
        assert!(got.len() > 201, "duplicates arrived too");
    }

    #[test]
    fn delay_is_applied_and_counted() {
        let registry = Registry::new();
        let nem = Nemesis::new(1, &registry);
        let net = MemNetwork::new();
        let (a, b, _l) = pipe(&nem, &net, "a", "b");
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
    fn partition_severs_crossing_links_and_refuses_dials() {
        let registry = Registry::new();
        let nem = Nemesis::new(9, &registry);
        let net = MemNetwork::new();
        let (a, b, _l) = pipe(&nem, &net, "a", "b");
        let dialer = nem.wrap_dialer("a", Box::new(net.dialer("a")));

        nem.partition(&[&["a"], &["b"]]);
        assert!(a.is_closed(), "crossing link severed");
        assert!(b.is_closed());
        assert!(
            matches!(dialer.dial("b"), Err(TransportError::Io(_))),
            "cross-partition dial refused"
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("server.nemesis.partitions"), 1);

        nem.heal();
        assert_eq!(registry.snapshot().counter("server.nemesis.heals"), 1);
        let again = dialer.dial("b").unwrap();
        again.send(Bytes::from_static(b"post-heal")).unwrap();
    }

    #[test]
    fn same_side_links_survive_partition() {
        let registry = Registry::new();
        let nem = Nemesis::new(5, &registry);
        let net = MemNetwork::new();
        let (a, c, _l) = pipe(&nem, &net, "a", "c");
        nem.partition(&[&["a", "c"], &["b"]]);
        assert!(!a.is_closed(), "same-group link stays up");
        a.send(Bytes::from_static(b"still here")).unwrap();
        assert_eq!(c.recv().unwrap().as_ref(), b"still here");
    }

    #[test]
    fn scheduled_events_fire() {
        let registry = Registry::new();
        let nem = Nemesis::new(11, &registry);
        let net = MemNetwork::new();
        let (a, _b, _l) = pipe(&nem, &net, "a", "b");
        nem.schedule(
            Duration::from_millis(20),
            NemesisEvent::Partition(vec![vec!["a".into()], vec!["b".into()]]),
        );
        assert!(!a.is_closed(), "not yet");
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !a.is_closed() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(a.is_closed(), "scheduled partition fired");
    }

    #[test]
    fn blocked_send_black_holes_until_heal() {
        let registry = Registry::new();
        let nem = Nemesis::new(2, &registry);
        let net = MemNetwork::new();
        // Build the link first, then block without severing, by using
        // per-link rules directly (partition would close it). A block
        // discovered at send time swallows the frame.
        let (a, b, _l) = pipe(&nem, &net, "a", "b");
        nem.inner.rules.lock().blocked.insert(pair_key("a", "b"));
        a.send(Bytes::from_static(b"void")).unwrap();
        assert!(matches!(
            b.recv_timeout(Duration::from_millis(20)),
            Err(TransportError::Timeout)
        ));
        assert_eq!(registry.snapshot().counter("server.nemesis.dropped"), 1);
        nem.heal();
        a.send(Bytes::from_static(b"through")).unwrap();
        assert_eq!(b.recv().unwrap().as_ref(), b"through");
    }
}
