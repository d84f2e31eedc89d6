//! TCP transport: thread-per-connection with dedicated reader and
//! writer threads, mirroring the multi-threaded blocking-I/O design of
//! the original Java server.
//!
//! Frames use [`corona_types::frame`] (`len ∥ crc32 ∥ body`). The
//! writer thread drains its queue and batches buffered frames into a
//! single flush, so a burst of multicast fan-out messages to one
//! client costs one syscall, not N.

use crate::traits::{
    Connection, Dialer, Listener, TransportError, DEFAULT_INBOUND_CAPACITY, DEFAULT_SEND_CAPACITY,
};
use bytes::Bytes;
use corona_types::frame::{read_frame, Frame};
use crossbeam::channel::{self, Receiver, Sender, TryRecvError};
use std::io::{BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// `arg` value of a [`corona_trace::Hop::Disconnect`] span for a peer
/// that hung up cleanly between frames.
pub const DISCONNECT_CLEAN: u64 = 0;
/// `arg` value of a [`corona_trace::Hop::Disconnect`] span for an
/// abnormal teardown: mid-frame EOF, I/O error, or CRC mismatch.
pub const DISCONNECT_ERROR: u64 = 1;

/// A TCP connection with background reader/writer threads.
#[derive(Debug)]
pub struct TcpConnection {
    outbound: Sender<Frame>,
    inbound: Receiver<Bytes>,
    closed: Arc<AtomicBool>,
    send_capacity: Arc<AtomicUsize>,
    /// Frames accepted by `send` and not yet written to the socket
    /// (queued or in the writer's hands). Slots are *reserved* here
    /// before enqueueing, so the configured capacity is exact even
    /// under concurrent senders.
    outstanding: Arc<AtomicUsize>,
    stream: TcpStream,
    peer: String,
}

impl TcpConnection {
    /// Wraps an established stream, spawning its I/O threads, with the
    /// default inbound bound ([`DEFAULT_INBOUND_CAPACITY`]).
    ///
    /// # Errors
    ///
    /// I/O errors cloning the stream handle.
    pub fn from_stream(stream: TcpStream) -> Result<Self, TransportError> {
        Self::from_stream_with_inbound_capacity(stream, DEFAULT_INBOUND_CAPACITY)
    }

    /// Wraps an established stream, bounding the inbound queue at
    /// `inbound_capacity` frames. When the queue is full the reader
    /// thread blocks — it stops pulling frames off the socket, and TCP
    /// flow control pushes back on the peer — so a flooding peer
    /// cannot buffer unbounded memory on this endpoint.
    ///
    /// # Errors
    ///
    /// I/O errors cloning the stream handle.
    pub fn from_stream_with_inbound_capacity(
        stream: TcpStream,
        inbound_capacity: usize,
    ) -> Result<Self, TransportError> {
        stream.set_nodelay(true)?;
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".to_string());
        let closed = Arc::new(AtomicBool::new(false));
        let (out_tx, out_rx) = channel::unbounded::<Frame>();
        let (in_tx, in_rx) = channel::bounded::<Bytes>(inbound_capacity.max(1));
        let outstanding = Arc::new(AtomicUsize::new(0));

        // Reader thread: frames -> inbound channel. The channel is
        // bounded: when the consumer falls behind, `send` blocks and
        // the reader stops pulling frames off the socket, so inbound
        // memory is capped and TCP flow control throttles the peer. A
        // peer hanging up between frames (`Ok(None)`) is a clean
        // shutdown; mid-frame EOF, I/O failures, and CRC mismatches
        // are abnormal. Both end the connection, but they are distinct
        // trace events — and a locally initiated close tears down the
        // socket under the reader, so errors after `close()` are not
        // recorded as peer failures.
        {
            let mut read_stream = stream.try_clone()?;
            let closed = Arc::clone(&closed);
            std::thread::Builder::new()
                .name(format!("tcp-read-{peer}"))
                .spawn(move || {
                    loop {
                        match read_frame(&mut read_stream) {
                            Ok(Some(frame)) => {
                                if in_tx.send(frame).is_err() {
                                    break;
                                }
                            }
                            Ok(None) => {
                                if !closed.load(Ordering::Acquire) {
                                    corona_trace::record(
                                        corona_trace::Hop::Disconnect,
                                        corona_trace::TraceId::NONE,
                                        0,
                                        DISCONNECT_CLEAN,
                                    );
                                }
                                break;
                            }
                            Err(_) => {
                                if !closed.load(Ordering::Acquire) {
                                    corona_trace::record(
                                        corona_trace::Hop::Disconnect,
                                        corona_trace::TraceId::NONE,
                                        0,
                                        DISCONNECT_ERROR,
                                    );
                                }
                                break;
                            }
                        }
                    }
                    closed.store(true, Ordering::Release);
                    // Dropping in_tx unblocks any recv() with Closed
                    // after the queue drains.
                })
                .expect("spawn tcp reader");
        }

        // Writer thread: outbound channel -> frames, batched flushes.
        // Each frame's capacity reservation (`outstanding`) is
        // released only after its bytes reach the socket, so the
        // sender-side cap covers queued *and* in-flight frames.
        {
            let write_stream = stream.try_clone()?;
            let closed = Arc::clone(&closed);
            let outstanding = Arc::clone(&outstanding);
            std::thread::Builder::new()
                .name(format!("tcp-write-{peer}"))
                .spawn(move || {
                    let mut writer = BufWriter::new(write_stream);
                    let mut write_failed = false;
                    'outer: while let Ok(frame) = out_rx.recv() {
                        if write_framed(&mut writer, &frame).is_err() {
                            write_failed = true;
                            break;
                        }
                        outstanding.fetch_sub(1, Ordering::AcqRel);
                        // Batch whatever else is already queued.
                        loop {
                            match out_rx.try_recv() {
                                Ok(next) => {
                                    if write_framed(&mut writer, &next).is_err() {
                                        write_failed = true;
                                        break 'outer;
                                    }
                                    outstanding.fetch_sub(1, Ordering::AcqRel);
                                }
                                Err(TryRecvError::Empty) => break,
                                Err(TryRecvError::Disconnected) => {
                                    let _ = writer.flush();
                                    break 'outer;
                                }
                            }
                        }
                        if writer.flush().is_err() {
                            write_failed = true;
                            break;
                        }
                    }
                    if write_failed && !closed.load(Ordering::Acquire) {
                        corona_trace::record(
                            corona_trace::Hop::Disconnect,
                            corona_trace::TraceId::NONE,
                            0,
                            DISCONNECT_ERROR,
                        );
                    }
                    closed.store(true, Ordering::Release);
                    let _ = writer.get_ref().shutdown(Shutdown::Both);
                })
                .expect("spawn tcp writer");
        }

        Ok(TcpConnection {
            outbound: out_tx,
            inbound: in_rx,
            closed,
            send_capacity: Arc::new(AtomicUsize::new(DEFAULT_SEND_CAPACITY)),
            outstanding,
            stream,
            peer,
        })
    }
}

/// Writes a pre-framed message: the header computed when the frame was
/// built, then the body — no checksum work here.
fn write_framed<W: Write>(w: &mut W, frame: &Frame) -> std::io::Result<()> {
    w.write_all(frame.header())?;
    w.write_all(frame.body())
}

impl Connection for TcpConnection {
    fn send_frame(&self, frame: Frame) -> Result<(), TransportError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        // Reserve a queue slot atomically *before* enqueueing: the cap
        // is exact under concurrent senders, unlike a
        // len()-check-then-send which can overshoot.
        let cap = self.send_capacity.load(Ordering::Relaxed);
        if self
            .outstanding
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < cap).then_some(n + 1)
            })
            .is_err()
        {
            return Err(TransportError::Full);
        }
        self.outbound.send(frame).map_err(|_| {
            self.outstanding.fetch_sub(1, Ordering::AcqRel);
            TransportError::Closed
        })
    }

    fn recv(&self) -> Result<Bytes, TransportError> {
        self.inbound.recv().map_err(|_| TransportError::Closed)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Bytes, TransportError> {
        self.inbound.recv_timeout(timeout).map_err(|e| match e {
            channel::RecvTimeoutError::Timeout => TransportError::Timeout,
            channel::RecvTimeoutError::Disconnected => TransportError::Closed,
        })
    }

    fn try_recv(&self) -> Result<Option<Bytes>, TransportError> {
        match self.inbound.try_recv() {
            Ok(frame) => Ok(Some(frame)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(TransportError::Closed),
        }
    }

    fn set_send_capacity(&self, cap: usize) {
        self.send_capacity.store(cap.max(1), Ordering::Relaxed);
    }

    fn backlog(&self) -> usize {
        self.outstanding.load(Ordering::Acquire)
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    fn peer_label(&self) -> String {
        self.peer.clone()
    }
}

impl Drop for TcpConnection {
    fn drop(&mut self) {
        self.close();
    }
}

/// How often a pending `accept` re-checks the shutdown flag when the
/// OS accept queue is empty. Bounds both shutdown latency and the
/// worst-case accept latency for a fresh connection.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// A TCP listener.
///
/// `accept` waits on a *nonblocking* OS socket and re-checks the
/// shutdown flag between polls. Earlier revisions used a blocking
/// `accept` unblocked by `shutdown` dialing the listener's own address
/// — which never arrives when the socket is bound to a wildcard
/// address on platforms that refuse wildcard connects, or when the
/// accept backlog is already full, leaving the accept thread blocked
/// forever. Shutdown now needs no network traffic at all.
#[derive(Debug)]
pub struct TcpAcceptor {
    listener: TcpListener,
    addr: String,
    shutdown: AtomicBool,
}

impl TcpAcceptor {
    /// Binds to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn bind(addr: &str) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?.to_string();
        Ok(TcpAcceptor {
            listener,
            addr,
            shutdown: AtomicBool::new(false),
        })
    }
}

impl Listener for TcpAcceptor {
    fn accept(&self) -> Result<Box<dyn Connection>, TransportError> {
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return Err(TransportError::Closed);
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.shutdown.load(Ordering::Acquire) {
                        return Err(TransportError::Closed);
                    }
                    // The listener is nonblocking; the accepted stream
                    // must not be (its reader/writer threads block).
                    stream.set_nonblocking(false)?;
                    return Ok(Box::new(TcpConnection::from_stream(stream)?));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    if self.shutdown.load(Ordering::Acquire) {
                        return Err(TransportError::Closed);
                    }
                    return Err(e.into());
                }
            }
        }
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }

    fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }
}

/// Dials TCP endpoints.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpDialer;

impl Dialer for TcpDialer {
    fn dial(&self, addr: &str) -> Result<Box<dyn Connection>, TransportError> {
        let stream = TcpStream::connect(addr)?;
        Ok(Box::new(TcpConnection::from_stream(stream)?))
    }

    fn dial_timeout(
        &self,
        addr: &str,
        timeout: Duration,
    ) -> Result<Box<dyn Connection>, TransportError> {
        use std::net::ToSocketAddrs;
        let sockaddr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| TransportError::Io(format!("{addr}: no addresses resolved")))?;
        let stream = TcpStream::connect_timeout(&sockaddr, timeout).map_err(|e| {
            if e.kind() == std::io::ErrorKind::TimedOut {
                TransportError::Timeout
            } else {
                TransportError::Io(e.to_string())
            }
        })?;
        Ok(Box::new(TcpConnection::from_stream(stream)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corona_types::frame::write_frame;

    #[test]
    fn dial_send_recv_roundtrip() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let server = std::thread::spawn(move || {
            let conn = acceptor.accept().unwrap();
            let frame = conn.recv().unwrap();
            conn.send(Bytes::from(format!(
                "echo:{}",
                String::from_utf8_lossy(&frame)
            )))
            .unwrap();
            // Keep the connection alive until the client read the echo.
            let _ = conn.recv();
        });
        let client = TcpDialer.dial(&addr).unwrap();
        client.send(Bytes::from_static(b"hello")).unwrap();
        assert_eq!(client.recv().unwrap().as_ref(), b"echo:hello");
        client.close();
        server.join().unwrap();
    }

    #[test]
    fn many_frames_preserve_order() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let server = std::thread::spawn(move || {
            let conn = acceptor.accept().unwrap();
            let mut got = Vec::new();
            for _ in 0..500 {
                got.push(conn.recv().unwrap());
            }
            got
        });
        let client = TcpDialer.dial(&addr).unwrap();
        for i in 0..500u32 {
            client.send(Bytes::from(i.to_le_bytes().to_vec())).unwrap();
        }
        let got = server.join().unwrap();
        for (i, frame) in got.iter().enumerate() {
            assert_eq!(
                u32::from_le_bytes(frame.as_ref().try_into().unwrap()),
                i as u32
            );
        }
    }

    #[test]
    fn peer_close_surfaces_as_closed() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let server = std::thread::spawn(move || {
            let conn = acceptor.accept().unwrap();
            conn.send(Bytes::from_static(b"bye")).unwrap();
            // Give the writer thread a beat to flush before close.
            std::thread::sleep(Duration::from_millis(20));
            conn.close();
        });
        let client = TcpDialer.dial(&addr).unwrap();
        assert_eq!(client.recv().unwrap().as_ref(), b"bye");
        assert_eq!(client.recv().unwrap_err(), TransportError::Closed);
        server.join().unwrap();
    }

    #[test]
    fn recv_timeout_expires() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let _server = std::thread::spawn(move || {
            let conn = acceptor.accept().unwrap();
            std::thread::sleep(Duration::from_millis(200));
            drop(conn);
        });
        let client = TcpDialer.dial(&addr).unwrap();
        assert_eq!(
            client.recv_timeout(Duration::from_millis(30)).unwrap_err(),
            TransportError::Timeout
        );
    }

    #[test]
    fn try_recv_nonblocking() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let server = std::thread::spawn(move || {
            let conn = acceptor.accept().unwrap();
            conn.send(Bytes::from_static(b"x")).unwrap();
            std::thread::sleep(Duration::from_millis(100));
        });
        let client = TcpDialer.dial(&addr).unwrap();
        // Eventually the frame arrives; poll with try_recv.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            match client.try_recv().unwrap() {
                Some(frame) => {
                    assert_eq!(frame.as_ref(), b"x");
                    break;
                }
                None => {
                    assert!(std::time::Instant::now() < deadline, "frame never arrived");
                    std::thread::yield_now();
                }
            }
        }
        server.join().unwrap();
    }

    #[test]
    fn listener_shutdown_unblocks_accept() {
        let acceptor = Arc::new(TcpAcceptor::bind("127.0.0.1:0").unwrap());
        let acceptor2 = Arc::clone(&acceptor);
        let handle = std::thread::spawn(move || acceptor2.accept());
        std::thread::sleep(Duration::from_millis(50));
        acceptor.shutdown();
        let result = handle.join().unwrap();
        assert!(matches!(result, Err(TransportError::Closed)));
    }

    #[test]
    fn dial_unreachable_fails() {
        // Port 1 on localhost is essentially never listening.
        let err = TcpDialer.dial("127.0.0.1:1").unwrap_err();
        assert!(matches!(err, TransportError::Io(_)));
    }

    #[test]
    fn dial_timeout_connects_and_classifies_failures() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let server = std::thread::spawn(move || {
            let conn = acceptor.accept().unwrap();
            let _ = conn.recv();
        });
        let client = TcpDialer
            .dial_timeout(&addr, Duration::from_secs(5))
            .unwrap();
        client.close();
        server.join().unwrap();

        // A refused connect is terminal (try the next roster address);
        // only Timeout/Full are worth retrying in place.
        let err = TcpDialer
            .dial_timeout("127.0.0.1:1", Duration::from_secs(2))
            .unwrap_err();
        assert!(!err.is_transient(), "refused connect is terminal: {err}");
        assert!(TransportError::Timeout.is_transient());
        assert!(TransportError::Full.is_transient());
        assert!(!TransportError::Closed.is_transient());
    }

    #[test]
    fn backlog_drains_toward_zero() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let server = std::thread::spawn(move || {
            let conn = acceptor.accept().unwrap();
            let mut got = 0;
            while got < 100 {
                conn.recv().unwrap();
                got += 1;
            }
        });
        let client = TcpDialer.dial(&addr).unwrap();
        for _ in 0..100 {
            client.send(Bytes::from(vec![0u8; 1024])).unwrap();
        }
        // The writer thread drains the queue; backlog must reach zero.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while client.backlog() > 0 {
            assert!(std::time::Instant::now() < deadline, "backlog stuck");
            std::thread::yield_now();
        }
        server.join().unwrap();
    }

    /// Waits until a Disconnect span with `arg` shows up in the flight
    /// recorder (the reader thread records asynchronously).
    fn await_disconnect_span(arg: u64) {
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            let hit = corona_trace::drain()
                .iter()
                .any(|s| s.hop == corona_trace::Hop::Disconnect && s.arg == arg);
            if hit {
                return;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "no Disconnect span with arg={arg} recorded"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn disconnects_are_recorded_as_trace_events() {
        corona_trace::set_enabled(true);
        corona_trace::clear();

        // Phase 1: the peer hangs up between frames — clean shutdown.
        {
            let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
            let addr = acceptor.local_addr();
            let client = TcpDialer.dial(&addr).unwrap();
            let server_conn = acceptor.accept().unwrap();
            client.close();
            await_disconnect_span(DISCONNECT_CLEAN);
            drop(server_conn);
        }

        // Phase 2: the stream dies mid-frame — abnormal teardown.
        {
            let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
            let addr = acceptor.local_addr();
            let raw = TcpStream::connect(&addr).unwrap();
            let server_conn = acceptor.accept().unwrap();
            // Half a frame header, then hang up.
            (&raw).write_all(&[9, 0, 0][..]).unwrap();
            drop(raw);
            await_disconnect_span(DISCONNECT_ERROR);
            drop(server_conn);
        }

        corona_trace::set_enabled(false);
        corona_trace::clear();
    }

    #[test]
    fn bounded_queue_rejects_when_writer_stalls() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        // The server accepts but never reads, so the client's writer
        // thread eventually blocks on a full socket buffer and the
        // transmit queue backs up to its cap.
        let server = std::thread::spawn(move || {
            let conn = acceptor.accept().unwrap();
            std::thread::sleep(Duration::from_millis(500));
            drop(conn);
        });
        let client = TcpDialer.dial(&addr).unwrap();
        client.set_send_capacity(4);
        let frame = Bytes::from(vec![0u8; 256 * 1024]);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match client.send(frame.clone()) {
                Ok(()) => assert!(
                    std::time::Instant::now() < deadline,
                    "queue never reported Full"
                ),
                Err(TransportError::Full) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        // The rejected frame was not enqueued, and the reservation cap
        // is exact: at the moment Full was returned the queue held
        // precisely `cap` frames (queued + in the writer's hands) —
        // not `cap` give-or-take racing senders.
        assert_eq!(client.backlog(), 4, "cap must be exact at Full");
        client.close();
        server.join().unwrap();
    }

    /// Regression (check-then-act overshoot): `send` used to compare
    /// `outbound.len()` against the cap and then enqueue on an
    /// unbounded channel, so N racing senders could overshoot the cap
    /// by up to N−1 frames. Slots are now reserved atomically; with
    /// the writer stalled, hammering from four threads must never
    /// push the backlog past the cap.
    #[test]
    fn concurrent_senders_cannot_overshoot_capacity() {
        const CAP: usize = 8;
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let (stop_tx, stop_rx) = channel::bounded::<()>(1);
        let server = std::thread::spawn(move || {
            // Accept but never read, so the client's writer thread
            // stalls on a full socket buffer and the transmit queue
            // stays pinned at the cap (maximising the race window).
            let conn = acceptor.accept().unwrap();
            let _ = stop_rx.recv();
            drop(conn);
        });
        let client: Arc<Box<dyn Connection>> = Arc::new(TcpDialer.dial(&addr).unwrap());
        client.set_send_capacity(CAP);
        let frame = Bytes::from(vec![0u8; 64 * 1024]);
        let mut senders = Vec::new();
        for _ in 0..4 {
            let client = Arc::clone(&client);
            let frame = frame.clone();
            senders.push(std::thread::spawn(move || {
                for _ in 0..2000 {
                    let _ = client.send(frame.clone());
                    let backlog = client.backlog();
                    assert!(backlog <= CAP, "backlog {backlog} overshot cap {CAP}");
                }
            }));
        }
        for s in senders {
            s.join().unwrap();
        }
        let _ = stop_tx.send(());
        client.close();
        server.join().unwrap();
    }

    /// Regression (unbounded inbound buffering): the inbound channel
    /// used to be unbounded, so a peer flooding frames faster than the
    /// consumer drains buffered unlimited memory on the receiver. The
    /// channel is now bounded and the reader thread blocks when it is
    /// full — it stops pulling frames off the socket, and TCP flow
    /// control throttles the peer.
    #[test]
    fn flooding_peer_cannot_grow_inbound_queue_past_cap() {
        const CAP: usize = 64;
        const FLOOD: usize = 1000;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = TcpStream::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let server_conn = TcpConnection::from_stream_with_inbound_capacity(stream, CAP).unwrap();

        // Flood tiny frames from a raw socket; nobody calls recv() on
        // the server side, so without the bound every frame would pile
        // up in the inbound channel.
        let flooder = std::thread::spawn(move || {
            let mut w = BufWriter::new(raw);
            for i in 0..FLOOD as u32 {
                write_frame(&mut w, &i.to_le_bytes()).unwrap();
            }
            w.flush().unwrap();
            w.into_inner().unwrap()
        });
        let raw = flooder.join().unwrap();

        // Let the reader thread ingest as much as it ever will, then
        // check the server-side RSS proxy: the channel length.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while server_conn.inbound.len() < CAP {
            assert!(
                std::time::Instant::now() < deadline,
                "reader never filled the bounded queue"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(100));
        let buffered = server_conn.inbound.len();
        assert!(
            buffered <= CAP,
            "inbound queue grew to {buffered}, past the {CAP}-frame cap"
        );

        // The backpressure is released, not fatal: draining the queue
        // resumes the reader and every flooded frame arrives in order.
        for i in 0..FLOOD as u32 {
            let frame = server_conn.recv().unwrap();
            assert_eq!(u32::from_le_bytes(frame.as_ref().try_into().unwrap()), i);
        }
        drop(raw);
    }

    /// Regression (shutdown relied on dialing ourselves): `shutdown`
    /// used to unblock `accept` by connecting to the listener's own
    /// address, which is not portably possible for a wildcard bind
    /// (`0.0.0.0` / `::`) and never succeeds once the backlog is full
    /// — leaving the accept thread blocked forever. Accept now polls a
    /// nonblocking socket and needs no unblocking traffic.
    #[test]
    fn shutdown_unblocks_accept_on_wildcard_bind() {
        let acceptor = Arc::new(TcpAcceptor::bind("0.0.0.0:0").unwrap());
        let acceptor2 = Arc::clone(&acceptor);
        let (done_tx, done_rx) = channel::bounded(1);
        std::thread::spawn(move || {
            let _ = done_tx.send(acceptor2.accept().err());
        });
        std::thread::sleep(Duration::from_millis(50));
        acceptor.shutdown();
        let result = done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("accept thread still blocked after shutdown of a wildcard bind");
        assert!(matches!(result, Some(TransportError::Closed)));
    }

    #[test]
    fn wildcard_bind_still_accepts_loopback_dials() {
        let acceptor = TcpAcceptor::bind("0.0.0.0:0").unwrap();
        let port = acceptor
            .local_addr()
            .rsplit(':')
            .next()
            .unwrap()
            .to_string();
        let server = std::thread::spawn(move || {
            let conn = acceptor.accept().unwrap();
            conn.recv().unwrap()
        });
        let client = TcpDialer.dial(&format!("127.0.0.1:{port}")).unwrap();
        client.send(Bytes::from_static(b"via-wildcard")).unwrap();
        assert_eq!(server.join().unwrap().as_ref(), b"via-wildcard");
    }

    #[test]
    fn send_after_close_fails() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let _server = std::thread::spawn(move || {
            let _conn = acceptor.accept().unwrap();
            std::thread::sleep(Duration::from_millis(100));
        });
        let client = TcpDialer.dial(&addr).unwrap();
        client.close();
        assert_eq!(
            client.send(Bytes::from_static(b"x")).unwrap_err(),
            TransportError::Closed
        );
        assert!(client.is_closed());
    }
}
