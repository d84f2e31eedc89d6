//! In-memory transport: a plain pipe between named nodes.
//!
//! A [`MemNetwork`] routes dials to listeners and moves frame bodies
//! between bounded queues; closing either endpoint closes the pair.
//! Delivery is immediate and ordered and no timing is simulated, which
//! keeps multi-threaded integration tests deterministic. It knows
//! nothing about faults: partitions, severed links, node crashes and
//! seeded drop/delay/duplicate/reorder mixes are all expressed by
//! wrapping its listeners and dialers in a
//! [`Nemesis`](crate::nemesis::Nemesis), exactly as for TCP. The
//! `corona-sim` crate models latency separately for the performance
//! experiments.

use crate::fifo::Fifo;
use crate::inbox::lock;
use crate::traits::{Connection, Dialer, Listener, TransportError, DEFAULT_SEND_CAPACITY};
use bytes::Bytes;
use corona_types::frame::Frame;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// A listener's queue of dialled, not yet accepted connections.
type AcceptQueue = Arc<Fifo<MemConnection>>;

/// Listening address -> the listener's accept queue.
type Listeners = Mutex<HashMap<String, AcceptQueue>>;

/// A queue bounded, if at all, by the `cap` of each push.
fn unbounded<T>() -> Arc<Fifo<T>> {
    Arc::new(Fifo::new(usize::MAX))
}

/// A process-local network of named nodes.
///
/// Cheap to clone; clones share the same listener table.
#[derive(Debug, Clone, Default)]
pub struct MemNetwork {
    listeners: Arc<Listeners>,
}

impl MemNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        MemNetwork::default()
    }

    /// Starts listening at `addr`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] if the address is already taken.
    pub fn listen(&self, addr: &str) -> Result<MemListener, TransportError> {
        let mut listeners = lock(&self.listeners);
        if listeners.contains_key(addr) {
            return Err(TransportError::Io(format!("address {addr} already in use")));
        }
        let accept_queue = unbounded();
        listeners.insert(addr.to_string(), Arc::clone(&accept_queue));
        Ok(MemListener {
            addr: addr.to_string(),
            accept_queue,
            listeners: Arc::downgrade(&self.listeners),
        })
    }

    /// Dials `addr` from the named source node (the accepted side's
    /// [`Connection::peer_label`]).
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] if no listener exists at `addr` or the
    /// listener has shut down.
    pub fn dial_from(&self, from_node: &str, addr: &str) -> Result<MemConnection, TransportError> {
        let accept_queue = {
            let listeners = lock(&self.listeners);
            listeners
                .get(addr)
                .cloned()
                .ok_or_else(|| TransportError::Io(format!("no listener at {addr}")))?
        };
        let endpoint = |tx: &Pipe, rx: &Pipe, peer: &str| MemConnection {
            tx: Arc::clone(tx),
            rx: Arc::clone(rx),
            peer: peer.to_string(),
            send_capacity: AtomicUsize::new(DEFAULT_SEND_CAPACITY),
        };
        let (to_acceptor, to_dialer) = (unbounded(), unbounded());
        accept_queue
            .push(endpoint(&to_dialer, &to_acceptor, from_node), usize::MAX)
            .map_err(|_| TransportError::Io(format!("listener at {addr} shut down")))?;
        Ok(endpoint(&to_acceptor, &to_dialer, addr))
    }

    /// Returns a [`Dialer`] whose connections originate from
    /// `from_node`.
    pub fn dialer(&self, from_node: &str) -> MemDialer {
        MemDialer {
            net: self.clone(),
            node: from_node.to_string(),
        }
    }
}

/// One direction of a connection: bodies queued for the other endpoint.
type Pipe = Arc<Fifo<Bytes>>;

/// One endpoint of an in-memory connection. Closing or dropping either
/// endpoint closes both pipes; the peer then observes `Closed` after
/// draining, mirroring TCP FIN behaviour.
#[derive(Debug)]
pub struct MemConnection {
    tx: Pipe,
    rx: Pipe,
    peer: String,
    send_capacity: AtomicUsize,
}

impl Connection for MemConnection {
    fn queue_frame(&self, frame: Frame) -> Result<(), TransportError> {
        // No wire, no header: bodies move between queues, and the
        // queue is the link — there is nothing for a flush to start.
        let cap = self.send_capacity.load(Ordering::Relaxed);
        self.tx.push(frame.into_body(), cap).map(drop)
    }

    fn recv_until(&self, deadline: Option<Instant>) -> Result<Bytes, TransportError> {
        self.rx.pop(deadline).map(|(frame, _)| frame)
    }

    fn set_send_capacity(&self, cap: usize) {
        self.send_capacity.store(cap.max(1), Ordering::Relaxed);
    }

    fn backlog(&self) -> usize {
        if self.is_closed() {
            return 0;
        }
        self.tx.len()
    }

    fn close(&self) {
        self.tx.close();
        self.rx.close();
    }

    fn is_closed(&self) -> bool {
        self.tx.is_closed()
    }

    fn peer_label(&self) -> String {
        self.peer.clone()
    }
}

impl Drop for MemConnection {
    fn drop(&mut self) {
        self.close();
    }
}

/// Accept side of a [`MemNetwork::listen`] call.
#[derive(Debug)]
pub struct MemListener {
    addr: String,
    accept_queue: AcceptQueue,
    listeners: Weak<Listeners>,
}

impl Listener for MemListener {
    fn accept(&self) -> Result<Box<dyn Connection>, TransportError> {
        let (conn, _) = self.accept_queue.pop(None)?;
        Ok(Box::new(conn))
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }

    fn shutdown(&self) {
        if let Some(listeners) = self.listeners.upgrade() {
            // The address may since have been taken by a new listener.
            let mut listeners = lock(&listeners);
            let ours = |queue: &AcceptQueue| Arc::ptr_eq(queue, &self.accept_queue);
            if listeners.get(&self.addr).is_some_and(ours) {
                listeners.remove(&self.addr);
            }
        }
        // accept() now returns Closed. Dropping the queued-but-unaccepted
        // connections closes them, so their dialers see Closed too.
        self.accept_queue.close();
        while self.accept_queue.pop(Some(Instant::now())).is_ok() {}
    }
}

impl Drop for MemListener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// [`Dialer`] implementation bound to a source node.
#[derive(Debug, Clone)]
pub struct MemDialer {
    net: MemNetwork,
    node: String,
}

impl Dialer for MemDialer {
    /// Never blocks, so the timeout is moot.
    fn dial_timeout(
        &self,
        addr: &str,
        _timeout: Duration,
    ) -> Result<Box<dyn Connection>, TransportError> {
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
    fn listener_shutdown_wakes_accept() {
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
