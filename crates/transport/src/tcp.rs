//! Blocking TCP connections for the dial side — clients and dialled
//! peer links: a dedicated reader and writer thread per connection,
//! mirroring the multi-threaded blocking-I/O design of the original
//! Java server. The accept side is the [`reactor`](crate::reactor).
//!
//! Frames use [`corona_types::frame`] (`len ∥ crc32 ∥ body`). The
//! writer thread drains its queue and batches buffered frames into a
//! single flush, so a burst of multicast fan-out messages to one
//! client costs one syscall, not N.

use crate::traits::{
    Connection, Dialer, TransportError, DEFAULT_INBOUND_CAPACITY, DEFAULT_SEND_CAPACITY,
};
use bytes::Bytes;
use corona_types::frame::{read_frame, Frame};
use crossbeam::channel::{self, Receiver, Sender, TryRecvError};
use std::io::{BufWriter, Write};
use std::net::{Shutdown, TcpStream};
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
    //! What is specific to the blocking connection. Everything the
    //! [`Connection`] contract promises — order, timeouts, close
    //! propagation, the exact transmit cap — is checked for it against
    //! a reactor listener in `tests/conformance.rs`.

    use super::*;
    use corona_types::frame::write_frame;
    use std::net::TcpListener;

    /// A dialled connection and the raw accepted socket it talks to.
    fn dial_raw() -> (Box<dyn Connection>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let client = TcpDialer.dial(&addr).unwrap();
        (client, listener.accept().unwrap().0)
    }

    #[test]
    fn dial_unreachable_fails() {
        // Port 1 on localhost is essentially never listening.
        let err = TcpDialer.dial("127.0.0.1:1").unwrap_err();
        assert!(matches!(err, TransportError::Io(_)));
    }

    #[test]
    fn dial_timeout_connects_and_classifies_failures() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let client = TcpDialer
            .dial_timeout(&addr, Duration::from_secs(5))
            .unwrap();
        client.close();

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
            let (client, raw) = dial_raw();
            drop(raw);
            await_disconnect_span(DISCONNECT_CLEAN);
            drop(client);
        }

        // Phase 2: the stream dies mid-frame — abnormal teardown.
        {
            let (client, raw) = dial_raw();
            // Half a frame header, then hang up.
            (&raw).write_all(&[9, 0, 0][..]).unwrap();
            drop(raw);
            await_disconnect_span(DISCONNECT_ERROR);
            drop(client);
        }

        corona_trace::set_enabled(false);
        corona_trace::clear();
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
        // The accepted socket is never read, so the client's writer
        // thread stalls on a full socket buffer and the transmit queue
        // stays pinned at the cap (maximising the race window).
        let (client, _unread) = dial_raw();
        let client: Arc<Box<dyn Connection>> = Arc::new(client);
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
        client.close();
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
}
