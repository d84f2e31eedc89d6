//! Deterministic in-memory transport with fault injection.
//!
//! Nodes are named by strings; a [`MemNetwork`] routes dials to
//! listeners and enforces the current fault rules:
//!
//! * **blocked pairs / partitions** — traffic between the nodes is
//!   silently dropped (a network black hole, as a real partition
//!   appears to TCP until timeouts fire); [`MemNetwork::block_directed`]
//!   drops one direction only (an asymmetric partition);
//! * **sever** — existing connections between two nodes are torn down
//!   (the "fail-stop crash" view of a peer);
//! * **seeded link faults** — per-link drop/delay/duplicate/reorder
//!   with the same [`LinkFaults`] vocabulary as the nemesis layer
//!   (see [`MemNetwork::set_link_faults`]), decided by one seeded
//!   [`FaultRng`] so runs reproduce from their seed.
//!
//! No timing is simulated here — delivery is immediate and ordered
//! unless a fault rule says otherwise — which keeps multi-threaded
//! integration tests deterministic. The `corona-sim` crate models
//! latency separately for the performance experiments.

use crate::nemesis::{FaultRng, LinkFaults};
use crate::traits::{Connection, Dialer, Listener, TransportError, DEFAULT_SEND_CAPACITY};
use bytes::Bytes;
use corona_types::frame::Frame;
use crossbeam::channel::{self, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Which endpoint of a connection pair this handle is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    /// The dialing endpoint.
    Dialer,
    /// The accepting endpoint.
    Acceptor,
}

#[derive(Debug)]
struct ConnShared {
    closed: AtomicBool,
    /// dialer -> acceptor direction.
    tx_da: Mutex<Option<Sender<Bytes>>>,
    /// acceptor -> dialer direction.
    tx_ad: Mutex<Option<Sender<Bytes>>>,
    dialer_node: String,
    acceptor_node: String,
    /// One-slot reorder buffers (held-back frame awaiting the next
    /// send), one per direction.
    hold_da: Mutex<Option<Bytes>>,
    hold_ad: Mutex<Option<Bytes>>,
    net: Weak<NetInner>,
}

impl ConnShared {
    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        // Dropping both senders unblocks both receivers (after drain).
        self.tx_da.lock().take();
        self.tx_ad.lock().take();
    }
}

#[derive(Debug, Default)]
struct Rules {
    /// Unordered node pairs whose traffic is dropped.
    blocked: HashSet<(String, String)>,
    /// Ordered `(from, to)` pairs whose traffic is dropped in that
    /// direction only (asymmetric partitions: one side deaf, the
    /// other still heard).
    blocked_directed: HashSet<(String, String)>,
    /// Unordered node pairs with a seeded fault mix.
    faults: HashMap<(String, String), LinkFaults>,
}

impl Rules {
    fn key(a: &str, b: &str) -> (String, String) {
        if a <= b {
            (a.to_string(), b.to_string())
        } else {
            (b.to_string(), a.to_string())
        }
    }

    fn is_blocked(&self, a: &str, b: &str) -> bool {
        self.blocked.contains(&Rules::key(a, b))
    }

    /// Whether frames travelling `from -> to` are dropped (either by a
    /// bidirectional block or a directed one).
    fn is_blocked_from(&self, from: &str, to: &str) -> bool {
        self.is_blocked(from, to)
            || self
                .blocked_directed
                .contains(&(from.to_string(), to.to_string()))
    }

    fn faults_for(&self, a: &str, b: &str) -> LinkFaults {
        self.faults
            .get(&Rules::key(a, b))
            .copied()
            .unwrap_or(LinkFaults::NONE)
    }
}

#[derive(Debug)]
struct NetInner {
    listeners: Mutex<HashMap<String, Sender<MemConnection>>>,
    rules: Mutex<Rules>,
    conns: Mutex<Vec<Weak<ConnShared>>>,
    rng: Mutex<FaultRng>,
}

impl Default for NetInner {
    fn default() -> Self {
        NetInner {
            listeners: Mutex::new(HashMap::new()),
            rules: Mutex::new(Rules::default()),
            conns: Mutex::new(Vec::new()),
            rng: Mutex::new(FaultRng::new(0)),
        }
    }
}

/// A process-local network of named nodes.
///
/// Cheap to clone; clones share the same network state.
#[derive(Debug, Clone, Default)]
pub struct MemNetwork {
    inner: Arc<NetInner>,
}

impl MemNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        MemNetwork::default()
    }

    /// Starts listening at `addr`. The address doubles as the
    /// listener's node name for fault rules.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] if the address is already taken.
    pub fn listen(&self, addr: &str) -> Result<MemListener, TransportError> {
        let mut listeners = self.inner.listeners.lock();
        if listeners.contains_key(addr) {
            return Err(TransportError::Io(format!("address {addr} already in use")));
        }
        let (tx, rx) = channel::unbounded();
        listeners.insert(addr.to_string(), tx);
        Ok(MemListener {
            addr: addr.to_string(),
            accept_rx: rx,
            net: Arc::downgrade(&self.inner),
        })
    }

    /// Dials `addr` from the named source node.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] if no listener exists at `addr`, the
    /// route is blocked, or the listener has shut down.
    pub fn dial_from(&self, from_node: &str, addr: &str) -> Result<MemConnection, TransportError> {
        if self.inner.rules.lock().is_blocked_from(from_node, addr) {
            return Err(TransportError::Io(format!(
                "route {from_node} -> {addr} is partitioned"
            )));
        }
        let accept_tx = {
            let listeners = self.inner.listeners.lock();
            listeners
                .get(addr)
                .cloned()
                .ok_or_else(|| TransportError::Io(format!("no listener at {addr}")))?
        };
        let (tx_da, rx_da) = channel::unbounded();
        let (tx_ad, rx_ad) = channel::unbounded();
        let shared = Arc::new(ConnShared {
            closed: AtomicBool::new(false),
            tx_da: Mutex::new(Some(tx_da)),
            tx_ad: Mutex::new(Some(tx_ad)),
            dialer_node: from_node.to_string(),
            acceptor_node: addr.to_string(),
            hold_da: Mutex::new(None),
            hold_ad: Mutex::new(None),
            net: Arc::downgrade(&self.inner),
        });
        self.inner.conns.lock().push(Arc::downgrade(&shared));
        let dial_side = MemConnection {
            shared: Arc::clone(&shared),
            side: Side::Dialer,
            rx: rx_ad,
            send_capacity: AtomicUsize::new(DEFAULT_SEND_CAPACITY),
        };
        let accept_side = MemConnection {
            shared,
            side: Side::Acceptor,
            rx: rx_da,
            send_capacity: AtomicUsize::new(DEFAULT_SEND_CAPACITY),
        };
        accept_tx
            .send(accept_side)
            .map_err(|_| TransportError::Io(format!("listener at {addr} shut down")))?;
        Ok(dial_side)
    }

    /// Returns a [`Dialer`] whose connections originate from
    /// `from_node`.
    pub fn dialer(&self, from_node: &str) -> MemDialer {
        MemDialer {
            net: self.clone(),
            node: from_node.to_string(),
        }
    }

    /// Drops all traffic between `a` and `b` (both directions) until
    /// unblocked. Existing connections stay up but become black holes.
    pub fn block(&self, a: &str, b: &str) {
        self.inner.rules.lock().blocked.insert(Rules::key(a, b));
    }

    /// Restores traffic between `a` and `b`.
    pub fn unblock(&self, a: &str, b: &str) {
        self.inner.rules.lock().blocked.remove(&Rules::key(a, b));
    }

    /// Drops frames travelling `from -> to` only; the reverse
    /// direction keeps flowing. This models asymmetric partitions
    /// (a router that forwards one way, a half-configured firewall):
    /// the victim's own frames are heard, but it hears nothing back.
    pub fn block_directed(&self, from: &str, to: &str) {
        self.inner
            .rules
            .lock()
            .blocked_directed
            .insert((from.to_string(), to.to_string()));
    }

    /// Restores the `from -> to` direction.
    pub fn unblock_directed(&self, from: &str, to: &str) {
        self.inner
            .rules
            .lock()
            .blocked_directed
            .remove(&(from.to_string(), to.to_string()));
    }

    /// Partitions the network into node groups: traffic between
    /// different groups is dropped, traffic within a group flows.
    /// Replaces all previous block rules.
    pub fn partition(&self, groups: &[&[&str]]) {
        let mut rules = self.inner.rules.lock();
        rules.blocked.clear();
        for (i, ga) in groups.iter().enumerate() {
            for gb in groups.iter().skip(i + 1) {
                for a in ga.iter() {
                    for b in gb.iter() {
                        rules.blocked.insert(Rules::key(a, b));
                    }
                }
            }
        }
    }

    /// Clears every block rule ("the network connectivity ... is
    /// re-established", §4.2). Seeded link faults are untouched; use
    /// [`MemNetwork::clear_link_faults`] for those.
    pub fn heal(&self) {
        let mut rules = self.inner.rules.lock();
        rules.blocked.clear();
        rules.blocked_directed.clear();
    }

    /// Re-seeds the fault generator; runs with the same seed and the
    /// same send order observe identical fault decisions.
    pub fn seed_faults(&self, seed: u64) {
        *self.inner.rng.lock() = FaultRng::new(seed);
    }

    /// Applies a seeded fault mix to the unordered link `a`–`b` (both
    /// directions). Uses the same [`LinkFaults`] vocabulary as the
    /// nemesis layer.
    pub fn set_link_faults(&self, a: &str, b: &str, faults: LinkFaults) {
        let mut rules = self.inner.rules.lock();
        if faults.is_none() {
            rules.faults.remove(&Rules::key(a, b));
        } else {
            rules.faults.insert(Rules::key(a, b), faults);
        }
    }

    /// Clears the fault mix on the link `a`–`b`.
    pub fn clear_link_faults(&self, a: &str, b: &str) {
        self.inner.rules.lock().faults.remove(&Rules::key(a, b));
    }

    /// Forcibly closes every live connection between `a` and `b`
    /// (crash/link-failure injection: peers observe `Closed`).
    pub fn sever(&self, a: &str, b: &str) {
        let mut conns = self.inner.conns.lock();
        conns.retain(|weak| match weak.upgrade() {
            Some(shared) => {
                let matches = (shared.dialer_node == a && shared.acceptor_node == b)
                    || (shared.dialer_node == b && shared.acceptor_node == a);
                if matches {
                    shared.close();
                    false
                } else {
                    true
                }
            }
            None => false,
        });
    }

    /// Forcibly closes every live connection touching node `n` (node
    /// crash injection) and removes its listener.
    pub fn crash_node(&self, n: &str) {
        self.inner.listeners.lock().remove(n);
        let mut conns = self.inner.conns.lock();
        conns.retain(|weak| match weak.upgrade() {
            Some(shared) => {
                if shared.dialer_node == n || shared.acceptor_node == n {
                    shared.close();
                    false
                } else {
                    true
                }
            }
            None => false,
        });
    }
}

/// One endpoint of an in-memory connection.
#[derive(Debug)]
pub struct MemConnection {
    shared: Arc<ConnShared>,
    side: Side,
    rx: Receiver<Bytes>,
    send_capacity: AtomicUsize,
}

impl MemConnection {
    fn local_node(&self) -> &str {
        match self.side {
            Side::Dialer => &self.shared.dialer_node,
            Side::Acceptor => &self.shared.acceptor_node,
        }
    }

    fn remote_node(&self) -> &str {
        match self.side {
            Side::Dialer => &self.shared.acceptor_node,
            Side::Acceptor => &self.shared.dialer_node,
        }
    }

    /// The reorder hold slot for this endpoint's transmit direction.
    fn hold(&self) -> &Mutex<Option<Bytes>> {
        match self.side {
            Side::Dialer => &self.shared.hold_da,
            Side::Acceptor => &self.shared.hold_ad,
        }
    }

    /// Capacity-checked enqueue into this endpoint's transmit channel.
    fn enqueue(&self, frame: Bytes) -> Result<(), TransportError> {
        let guard = match self.side {
            Side::Dialer => self.shared.tx_da.lock(),
            Side::Acceptor => self.shared.tx_ad.lock(),
        };
        match guard.as_ref() {
            Some(tx) => {
                if tx.len() >= self.send_capacity.load(Ordering::Relaxed) {
                    return Err(TransportError::Full);
                }
                tx.send(frame).map_err(|_| TransportError::Closed)
            }
            None => Err(TransportError::Closed),
        }
    }
}

impl Connection for MemConnection {
    fn send_frame(&self, frame: Frame) -> Result<(), TransportError> {
        // No wire, no header: bodies move between queues.
        let frame = frame.into_body();
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        let Some(net) = self.shared.net.upgrade() else {
            return self.enqueue(frame);
        };
        // Partition black hole: accept and drop.
        let faults = {
            let rules = net.rules.lock();
            if rules.is_blocked_from(self.local_node(), self.remote_node()) {
                return Ok(());
            }
            rules.faults_for(self.local_node(), self.remote_node())
        };
        if faults.is_none() {
            // Flush any frame held by a since-cleared reorder rule
            // (it is older, so it goes first).
            let prior = self.hold().lock().take();
            if let Some(h) = prior {
                self.enqueue(h)?;
            }
            return self.enqueue(frame);
        }
        let (drop_it, dup_it, reorder_it) = {
            let mut rng = net.rng.lock();
            (
                rng.chance(faults.drop_per_mille),
                rng.chance(faults.dup_per_mille),
                rng.chance(faults.reorder_per_mille),
            )
        };
        if faults.delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(faults.delay_ms));
        }
        if drop_it {
            return Ok(());
        }
        let mut hold = self.hold().lock();
        if reorder_it && hold.is_none() {
            *hold = Some(frame);
            return Ok(());
        }
        let prior = hold.take();
        drop(hold);
        // The current frame goes first; a held frame follows it,
        // completing the adjacent swap.
        self.enqueue(frame.clone())?;
        if let Some(h) = prior {
            let _ = self.enqueue(h);
        }
        if dup_it {
            let _ = self.enqueue(frame);
        }
        Ok(())
    }

    fn recv(&self) -> Result<Bytes, TransportError> {
        self.rx.recv().map_err(|_| TransportError::Closed)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Bytes, TransportError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            channel::RecvTimeoutError::Timeout => TransportError::Timeout,
            channel::RecvTimeoutError::Disconnected => TransportError::Closed,
        })
    }

    fn try_recv(&self) -> Result<Option<Bytes>, TransportError> {
        match self.rx.try_recv() {
            Ok(frame) => Ok(Some(frame)),
            Err(TryRecvError::Empty) => {
                if self.shared.closed.load(Ordering::Acquire) {
                    Err(TransportError::Closed)
                } else {
                    Ok(None)
                }
            }
            Err(TryRecvError::Disconnected) => Err(TransportError::Closed),
        }
    }

    fn set_send_capacity(&self, cap: usize) {
        self.send_capacity.store(cap.max(1), Ordering::Relaxed);
    }

    fn backlog(&self) -> usize {
        let guard = match self.side {
            Side::Dialer => self.shared.tx_da.lock(),
            Side::Acceptor => self.shared.tx_ad.lock(),
        };
        guard.as_ref().map(|tx| tx.len()).unwrap_or(0)
    }

    fn close(&self) {
        self.shared.close();
    }

    fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }

    fn peer_label(&self) -> String {
        self.remote_node().to_string()
    }
}

impl Drop for MemConnection {
    fn drop(&mut self) {
        // Only fully close when this endpoint drops; the peer then
        // observes Closed after draining, mirroring TCP FIN behaviour.
        self.shared.close();
    }
}

/// Accept side of a [`MemNetwork::listen`] call.
#[derive(Debug)]
pub struct MemListener {
    addr: String,
    accept_rx: Receiver<MemConnection>,
    net: Weak<NetInner>,
}

impl Listener for MemListener {
    fn accept(&self) -> Result<Box<dyn Connection>, TransportError> {
        self.accept_rx
            .recv()
            .map(|c| Box::new(c) as Box<dyn Connection>)
            .map_err(|_| TransportError::Closed)
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }

    fn shutdown(&self) {
        if let Some(net) = self.net.upgrade() {
            net.listeners.lock().remove(&self.addr);
        }
        // Senders dropped -> accept() unblocks with Closed. Drain any
        // queued-but-unaccepted connections so dialers see Closed too.
        while let Ok(conn) = self.accept_rx.try_recv() {
            conn.close();
        }
    }
}

/// [`Dialer`] implementation bound to a source node.
#[derive(Debug, Clone)]
pub struct MemDialer {
    net: MemNetwork,
    node: String,
}

impl Dialer for MemDialer {
    fn dial(&self, addr: &str) -> Result<Box<dyn Connection>, TransportError> {
        self.net
            .dial_from(&self.node, addr)
            .map(|c| Box::new(c) as Box<dyn Connection>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dial_and_echo() {
        let net = MemNetwork::new();
        let listener = net.listen("server").unwrap();
        let client = net.dial_from("client", "server").unwrap();
        let server_conn = listener.accept().unwrap();
        client.send(Bytes::from_static(b"ping")).unwrap();
        assert_eq!(server_conn.recv().unwrap().as_ref(), b"ping");
        server_conn.send(Bytes::from_static(b"pong")).unwrap();
        assert_eq!(client.recv().unwrap().as_ref(), b"pong");
        assert_eq!(client.peer_label(), "server");
        assert_eq!(server_conn.peer_label(), "client");
    }

    #[test]
    fn dial_missing_listener_fails() {
        let net = MemNetwork::new();
        assert!(matches!(
            net.dial_from("a", "nowhere"),
            Err(TransportError::Io(_))
        ));
    }

    #[test]
    fn duplicate_listen_fails() {
        let net = MemNetwork::new();
        let _l = net.listen("x").unwrap();
        assert!(matches!(net.listen("x"), Err(TransportError::Io(_))));
    }

    #[test]
    fn close_propagates_to_peer() {
        let net = MemNetwork::new();
        let listener = net.listen("s").unwrap();
        let client = net.dial_from("c", "s").unwrap();
        let server_conn = listener.accept().unwrap();
        client.send(Bytes::from_static(b"last")).unwrap();
        client.close();
        // Pending frame still readable, then Closed.
        assert_eq!(server_conn.recv().unwrap().as_ref(), b"last");
        assert_eq!(server_conn.recv().unwrap_err(), TransportError::Closed);
        assert!(client.is_closed());
        assert_eq!(
            client.send(Bytes::from_static(b"x")).unwrap_err(),
            TransportError::Closed
        );
    }

    #[test]
    fn block_creates_black_hole_and_unblock_restores() {
        let net = MemNetwork::new();
        let listener = net.listen("s").unwrap();
        let client = net.dial_from("c", "s").unwrap();
        let server_conn = listener.accept().unwrap();

        net.block("c", "s");
        client.send(Bytes::from_static(b"lost")).unwrap();
        assert_eq!(
            server_conn
                .recv_timeout(Duration::from_millis(20))
                .unwrap_err(),
            TransportError::Timeout
        );

        net.unblock("c", "s");
        client.send(Bytes::from_static(b"found")).unwrap();
        assert_eq!(server_conn.recv().unwrap().as_ref(), b"found");
    }

    #[test]
    fn directed_block_drops_one_direction_only() {
        let net = MemNetwork::new();
        let listener = net.listen("s").unwrap();
        let client = net.dial_from("c", "s").unwrap();
        let server_conn = listener.accept().unwrap();

        net.block_directed("s", "c");
        client.send(Bytes::from_static(b"up")).unwrap();
        assert_eq!(server_conn.recv().unwrap().as_ref(), b"up");
        server_conn.send(Bytes::from_static(b"down")).unwrap();
        assert_eq!(
            client.recv_timeout(Duration::from_millis(20)).unwrap_err(),
            TransportError::Timeout,
            "blocked direction must black-hole"
        );

        net.unblock_directed("s", "c");
        server_conn.send(Bytes::from_static(b"down2")).unwrap();
        assert_eq!(client.recv().unwrap().as_ref(), b"down2");

        // heal() clears directed rules too.
        net.block_directed("s", "c");
        net.heal();
        server_conn.send(Bytes::from_static(b"down3")).unwrap();
        assert_eq!(client.recv().unwrap().as_ref(), b"down3");
    }

    #[test]
    fn blocked_route_refuses_new_dials() {
        let net = MemNetwork::new();
        let _listener = net.listen("s").unwrap();
        net.block("c", "s");
        assert!(matches!(
            net.dial_from("c", "s"),
            Err(TransportError::Io(_))
        ));
    }

    #[test]
    fn partition_groups() {
        let net = MemNetwork::new();
        let _l1 = net.listen("a").unwrap();
        let _l2 = net.listen("b").unwrap();
        net.partition(&[&["a", "x"], &["b", "y"]]);
        assert!(net.dial_from("x", "b").is_err(), "cross-partition blocked");
        assert!(net.dial_from("x", "a").is_ok(), "same partition flows");
        net.heal();
        assert!(net.dial_from("x", "b").is_ok());
    }

    #[test]
    fn sever_closes_live_connections() {
        let net = MemNetwork::new();
        let listener = net.listen("s").unwrap();
        let client = net.dial_from("c", "s").unwrap();
        let server_conn = listener.accept().unwrap();
        net.sever("c", "s");
        assert_eq!(client.recv().unwrap_err(), TransportError::Closed);
        assert_eq!(server_conn.recv().unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn crash_node_closes_everything_it_touches() {
        let net = MemNetwork::new();
        let listener_s = net.listen("s").unwrap();
        let _listener_t = net.listen("t").unwrap();
        let c1 = net.dial_from("c", "s").unwrap();
        let sc1 = listener_s.accept().unwrap();
        let c2 = net.dial_from("c", "t").unwrap();
        net.crash_node("s");
        assert_eq!(c1.recv().unwrap_err(), TransportError::Closed);
        assert_eq!(sc1.recv().unwrap_err(), TransportError::Closed);
        assert!(!c2.is_closed(), "connection to other node survives");
        // Fresh dials to the crashed node fail.
        assert!(net.dial_from("c", "s").is_err());
    }

    #[test]
    fn listener_shutdown_unblocks_accept() {
        let net = MemNetwork::new();
        let listener = Arc::new(net.listen("s").unwrap());
        let l2 = Arc::clone(&listener);
        let handle = std::thread::spawn(move || l2.accept().map(|_| ()));
        std::thread::sleep(Duration::from_millis(30));
        listener.shutdown();
        assert!(matches!(
            handle.join().unwrap(),
            Err(TransportError::Closed)
        ));
        // Address is reusable after shutdown.
        assert!(net.listen("s").is_ok());
    }

    #[test]
    fn dialer_trait_object_works() {
        let net = MemNetwork::new();
        let listener = net.listen("srv").unwrap();
        let dialer: Box<dyn Dialer> = Box::new(net.dialer("cli"));
        let conn = dialer.dial("srv").unwrap();
        conn.send(Bytes::from_static(b"via-trait")).unwrap();
        assert_eq!(
            listener.accept().unwrap().recv().unwrap().as_ref(),
            b"via-trait"
        );
    }

    #[test]
    fn backlog_counts_undrained_frames() {
        let net = MemNetwork::new();
        let listener = net.listen("s").unwrap();
        let client = net.dial_from("c", "s").unwrap();
        let server_conn = listener.accept().unwrap();
        assert_eq!(server_conn.backlog(), 0);
        for _ in 0..5 {
            server_conn.send(Bytes::from_static(b"x")).unwrap();
        }
        assert_eq!(server_conn.backlog(), 5, "client has not drained");
        client.recv().unwrap();
        client.recv().unwrap();
        assert_eq!(server_conn.backlog(), 3);
        server_conn.close();
        assert_eq!(server_conn.backlog(), 0, "closed connection has no backlog");
    }

    #[test]
    fn bounded_queue_rejects_with_full() {
        let net = MemNetwork::new();
        let listener = net.listen("s").unwrap();
        let _client = net.dial_from("c", "s").unwrap();
        let server_conn = listener.accept().unwrap();
        server_conn.set_send_capacity(3);
        for _ in 0..3 {
            server_conn.send(Bytes::from_static(b"x")).unwrap();
        }
        assert_eq!(
            server_conn.send(Bytes::from_static(b"over")).unwrap_err(),
            TransportError::Full
        );
        assert_eq!(server_conn.backlog(), 3, "rejected frame not enqueued");
        // A closed connection reports Closed, not Full.
        server_conn.close();
        assert_eq!(
            server_conn.send(Bytes::from_static(b"x")).unwrap_err(),
            TransportError::Closed
        );
    }

    #[test]
    fn seeded_link_faults_drop_deterministically() {
        let run = || {
            let net = MemNetwork::new();
            net.seed_faults(99);
            let listener = net.listen("s").unwrap();
            let client = net.dial_from("c", "s").unwrap();
            let server_conn = listener.accept().unwrap();
            net.set_link_faults(
                "c",
                "s",
                LinkFaults {
                    drop_per_mille: 250,
                    ..LinkFaults::NONE
                },
            );
            for i in 0..100u32 {
                client.send(Bytes::from(i.to_le_bytes().to_vec())).unwrap();
            }
            let mut got = Vec::new();
            while let Ok(Some(f)) = server_conn.try_recv() {
                got.push(u32::from_le_bytes(f.as_ref().try_into().unwrap()));
            }
            got
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same survivors");
        assert!(a.len() < 100, "a 25% drop rate over 100 frames fires");
        let sorted = {
            let mut s = a.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(a, sorted, "drops never reorder survivors");
    }

    #[test]
    fn seeded_duplicate_and_reorder_lose_nothing() {
        let net = MemNetwork::new();
        net.seed_faults(7);
        let listener = net.listen("s").unwrap();
        let client = net.dial_from("c", "s").unwrap();
        let server_conn = listener.accept().unwrap();
        net.set_link_faults(
            "c",
            "s",
            LinkFaults {
                dup_per_mille: 200,
                reorder_per_mille: 200,
                ..LinkFaults::NONE
            },
        );
        let mut reordered = false;
        for i in 0..200u32 {
            client.send(Bytes::from(i.to_le_bytes().to_vec())).unwrap();
        }
        // Clearing the rule flushes a held frame on the next send.
        net.clear_link_faults("c", "s");
        client
            .send(Bytes::from(200u32.to_le_bytes().to_vec()))
            .unwrap();
        let mut got = Vec::new();
        while let Ok(Some(f)) = server_conn.try_recv() {
            got.push(u32::from_le_bytes(f.as_ref().try_into().unwrap()));
        }
        for w in got.windows(2) {
            if w[1] < w[0] {
                reordered = true;
            }
        }
        let unique: HashSet<u32> = got.iter().copied().collect();
        assert_eq!(unique.len(), 201, "every frame arrives at least once");
        assert!(got.len() > 201, "duplicates arrived");
        assert!(reordered, "adjacent swaps observed");
    }

    #[test]
    fn link_delay_is_applied() {
        let net = MemNetwork::new();
        let listener = net.listen("s").unwrap();
        let client = net.dial_from("c", "s").unwrap();
        let server_conn = listener.accept().unwrap();
        net.set_link_faults(
            "c",
            "s",
            LinkFaults {
                delay_ms: 10,
                ..LinkFaults::NONE
            },
        );
        let t0 = std::time::Instant::now();
        client.send(Bytes::from_static(b"slow")).unwrap();
        assert_eq!(server_conn.recv().unwrap().as_ref(), b"slow");
        assert!(t0.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn order_preserved_under_load() {
        let net = MemNetwork::new();
        let listener = net.listen("s").unwrap();
        let client = net.dial_from("c", "s").unwrap();
        let server_conn = listener.accept().unwrap();
        for i in 0..1000u32 {
            client.send(Bytes::from(i.to_le_bytes().to_vec())).unwrap();
        }
        for i in 0..1000u32 {
            let frame = server_conn.recv().unwrap();
            assert_eq!(u32::from_le_bytes(frame.as_ref().try_into().unwrap()), i);
        }
    }
}
