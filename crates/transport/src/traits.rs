//! Transport abstraction: duplex, framed, message-oriented
//! connections.
//!
//! The Corona server and client are written against these traits so
//! the same code runs over real TCP (deployment, tests, loopback
//! benchmarks) and over `corona-sim`'s virtual-time pipe.
//!
//! Semantics are those of the paper's point-to-point TCP connections:
//! reliable, ordered, connection-oriented; a partition or crash
//! surfaces as a closed connection, never as silent reordering.
//!
//! There is one delivery mode: **push**. Nothing is ever read off a
//! connection by its holder. Every inbound frame, and finally the
//! close, is handed to the [`FrameSink`] the connection was attached to
//! — by the listener that accepted it, or by [`Connection::attach_sink`]
//! for one that was dialled — from the transport's own event loop.

use bytes::Bytes;
use corona_metrics::{Counter, Histogram, Registry};
use corona_types::frame::Frame;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Default transmit-queue bound (in frames) applied by the in-tree
/// transports until [`Connection::set_send_capacity`] overrides it.
/// Roomy enough for bursty multicast fan-out; small enough that one
/// stalled peer cannot buffer unbounded memory on the sender.
pub const DEFAULT_SEND_CAPACITY: usize = 4096;

/// Transport-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The connection (or listener) is closed.
    Closed,
    /// A dial did not complete in time.
    Timeout,
    /// The transmit queue is at capacity; the frame was not enqueued.
    /// Explicit backpressure: the caller decides whether to retry,
    /// shed, or treat the peer as too slow and disconnect it.
    Full,
    /// An underlying I/O failure (message carries the rendered cause;
    /// `std::io::Error` is not `Clone`, and callers only branch on the
    /// variant).
    Io(String),
}

impl TransportError {
    /// Whether a later retry of the failed operation could plausibly
    /// succeed without any intervention on this endpoint.
    ///
    /// The failover runtime uses this to pick a reconnect strategy:
    /// transient failures ([`TransportError::Timeout`],
    /// [`TransportError::Full`]) are worth retrying against the *same*
    /// address after a backoff, while terminal ones
    /// ([`TransportError::Closed`], [`TransportError::Io`] — refused,
    /// unreachable, reset) mean the endpoint is gone and the next
    /// roster address should be tried first.
    pub fn is_transient(&self) -> bool {
        matches!(self, TransportError::Timeout | TransportError::Full)
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Closed => f.write_str("connection closed"),
            TransportError::Timeout => f.write_str("timed out"),
            TransportError::Full => f.write_str("transmit queue full"),
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<TransportError> for corona_types::error::CoronaError {
    fn from(e: TransportError) -> Self {
        use corona_types::error::CoronaError;
        match e {
            TransportError::Closed => CoronaError::Disconnected,
            TransportError::Timeout => CoronaError::Timeout {
                operation: "transport",
            },
            TransportError::Full => CoronaError::Io(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "transmit queue full",
            )),
            TransportError::Io(msg) => CoronaError::Io(std::io::Error::other(msg)),
        }
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e.to_string())
    }
}

/// Who carries out a [`Connection::flush`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushBy {
    /// The calling thread writes as much as the link takes without
    /// blocking and leaves the rest to the transport: no thread is
    /// woken for a healthy link.
    Caller,
    /// The transport's own thread: the caller only wakes it. For a
    /// caller with many connections to flush and other work to do.
    Transport,
}

/// A reliable, ordered, duplex connection carrying opaque frames.
///
/// All methods take `&self`: implementations are internally
/// synchronised so a connection can be shared between the transport's
/// event loop and writer callers. What arrives is pushed to the
/// connection's [`FrameSink`]; there is no receive call.
pub trait Connection: Send + Sync + fmt::Debug {
    /// Appends an already-framed body to the transmit queue and wakes
    /// nobody: the frame leaves with the next [`Connection::flush`] (or
    /// sooner — a transport may start on a long queue by itself). The
    /// header travels with the frame, so a multicast that clones one
    /// [`Frame`] per recipient checksums the body once, not per copy.
    /// A queued frame counts towards [`Connection::backlog`] and the
    /// cap at once.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] if the connection is closed;
    /// [`TransportError::Full`] if the transmit queue is at capacity
    /// (the frame is *not* enqueued — explicit backpressure, never an
    /// unbounded buffer).
    fn queue_frame(&self, frame: Frame) -> Result<(), TransportError>;

    /// Starts transmission of everything queued, in queue order, and
    /// returns without waiting for it. The default suits a transport
    /// whose queue *is* the link (the simulator's pipe).
    fn flush(&self, by: FlushBy) {
        let _ = by;
    }

    /// [`Connection::queue_frame`], then a [`Connection::flush`] by
    /// the caller: the way to send one frame on its own.
    ///
    /// # Errors
    ///
    /// As [`Connection::queue_frame`].
    fn send_frame(&self, frame: Frame) -> Result<(), TransportError> {
        self.queue_frame(frame)?;
        self.flush(FlushBy::Caller);
        Ok(())
    }

    /// Frames the *unframed* `body`, then [`Connection::send_frame`]s
    /// it.
    ///
    /// # Errors
    ///
    /// As [`Connection::send_frame`]; [`TransportError::Io`] for a body
    /// over the frame size limit, which is not sent.
    fn send(&self, body: Bytes) -> Result<(), TransportError> {
        let frame = Frame::new(body).map_err(|e| TransportError::Io(e.to_string()))?;
        self.send_frame(frame)
    }

    /// Caps the transmit queue at `cap` frames. Sends that would
    /// exceed the cap return [`TransportError::Full`]. Implementations
    /// start with a generous default bound; a server typically lowers
    /// it per its configuration right after accepting.
    ///
    /// The cap is **exact**: enqueue slots are reserved atomically, so
    /// concurrent senders can never overshoot the configured capacity.
    fn set_send_capacity(&self, cap: usize);

    /// Starts delivery to `sink`: from now on every inbound frame, and
    /// finally the close, reaches it as `conn_id`, from the transport's
    /// event loop. There is no `on_accept`: the caller holds the
    /// connection. A dialled connection reads nothing before this —
    /// what the peer sends meanwhile waits in the socket — so attach
    /// before sending anything that is answered. Only the first attach
    /// counts; an accepted connection already has its listener's sink.
    fn attach_sink(&self, conn_id: u64, sink: Arc<dyn FrameSink>);

    /// Number of outbound frames accepted by [`Connection::send`] but
    /// not yet handed to the peer (transmit backlog). The QoS-adaptive
    /// server consults this to shed low-priority traffic to slow
    /// clients.
    fn backlog(&self) -> usize;

    /// Closes both directions. Idempotent. The sink hears of the close
    /// once, whoever closed.
    fn close(&self);

    /// Whether the connection is closed (locally or by the peer).
    fn is_closed(&self) -> bool;

    /// A human-readable peer label for diagnostics.
    fn peer_label(&self) -> String;
}

/// Receives connections and inbound frames *pushed* by the transport.
///
/// A listener serving a sink (see [`Listener::attach_sink`]) delivers
/// every accepted connection through [`FrameSink::on_accept`] and every
/// decoded frame through [`FrameSink::on_frame`] from its own event
/// loops — a server's thread count is O(reactor shards), not
/// O(connections); a dialled connection does the same for the sink
/// given to [`Connection::attach_sink`].
///
/// Calls for one connection arrive in wire order, but calls for
/// different connections may come from different reactor shard threads
/// concurrently — implementations must be internally synchronised (in
/// practice: a channel sender). They run on an event loop that other
/// connections share, so they must not block.
///
/// After a pass over its ready sockets, a transport thread calls
/// [`FrameSink::on_drained`] once on every sink it made one of the
/// other calls on in that pass, so a sink can leave its consumer
/// asleep while the calls come and hand the whole pass on at its end.
pub trait FrameSink: Send + Sync {
    /// A new connection was accepted; it is already attached to this
    /// sink, and its first [`FrameSink::on_frame`] comes after this.
    fn on_accept(&self, conn_id: u64, conn: Box<dyn Connection>);

    /// A frame arrived on `conn_id`. Returns `false` to ask the
    /// transport to pause reading this connection (inbound
    /// backpressure); reading resumes once [`FrameSink::ready_for_more`]
    /// reports `true`.
    fn on_frame(&self, conn_id: u64, frame: Bytes) -> bool;

    /// Whether connections paused by an `on_frame() == false` may
    /// resume reading. Polled by the transport; must be cheap.
    fn ready_for_more(&self) -> bool;

    /// The connection closed (peer hang-up, I/O error, or local
    /// close). `clean` distinguishes an orderly close at a frame
    /// boundary from an abnormal teardown.
    fn on_closed(&self, conn_id: u64, clean: bool);

    /// The transport thread is done, for now, with what it has handed
    /// this sink: the calls of one pass are over. A sink may do bounded
    /// work here on that thread — the kernel's runs its dispatcher, the
    /// thread that read a request sequencing it — but the connections
    /// of the same event loop wait meanwhile, so the bound is the
    /// sink's to keep: what is left over goes to a thread of its own.
    fn on_drained(&self) {}
}

/// Accepts inbound connections, each into the one [`FrameSink`] the
/// listener serves.
pub trait Listener: Send + Sync {
    /// The address clients dial to reach this listener.
    fn local_addr(&self) -> String;

    /// Stops accepting. Idempotent.
    fn shutdown(&self);

    /// Starts serving `sink`: from now on every accepted connection and
    /// everything it carries reaches it, from the transport's own
    /// threads. `false` if the listener is already serving a sink or
    /// has shut down; the sink is then not used.
    fn attach_sink(&self, sink: Arc<dyn FrameSink>) -> bool;
}

/// The bound [`Dialer::dial`] puts on a connect. Long enough for any
/// reachable endpoint; a caller with a deadline of its own — a
/// reconnecting client, a replica dialling from its dispatcher — passes
/// that to [`Dialer::dial_timeout`] instead.
pub const DEFAULT_DIAL_TIMEOUT: Duration = Duration::from_secs(10);

/// A connection factory (the dial side).
///
/// Every dial is bounded: an unresponsive endpoint (a partitioned
/// host swallowing SYNs) costs the caller at most the timeout, never
/// the kernel's minutes-long retry budget.
pub trait Dialer: Send + Sync {
    /// Connects to `addr`, giving up after `timeout`. Transports whose
    /// dial cannot block (the simulator's) may ignore it. The
    /// connection reads nothing until [`Connection::attach_sink`].
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] on expiry (a *transient* failure —
    /// see [`TransportError::is_transient`]); [`TransportError::Io`] if
    /// the endpoint is unreachable.
    fn dial_timeout(
        &self,
        addr: &str,
        timeout: Duration,
    ) -> Result<Box<dyn Connection>, TransportError>;

    /// Connects to `addr` within [`DEFAULT_DIAL_TIMEOUT`].
    ///
    /// # Errors
    ///
    /// As [`Dialer::dial_timeout`].
    fn dial(&self, addr: &str) -> Result<Box<dyn Connection>, TransportError> {
        self.dial_timeout(addr, DEFAULT_DIAL_TIMEOUT)
    }
}

/// A server's client-plane traffic aggregates: `transport.frames_in` /
/// `transport.frames_out`, `transport.bytes_in` / `transport.bytes_out`
/// (counters of frames and body bytes) and `transport.frame_in_bytes` /
/// `transport.frame_out_bytes` (size histograms). Recorded where a frame
/// is handed over — by the [`FrameSink`] on the way in, at the server's
/// enqueue site on the way out — so a refused send is never counted.
#[derive(Debug, Clone)]
pub struct TransportMetrics {
    frames_in: Arc<Counter>,
    frames_out: Arc<Counter>,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    frame_in_bytes: Arc<Histogram>,
    frame_out_bytes: Arc<Histogram>,
}

impl TransportMetrics {
    /// Resolves the transport metric set from `registry`.
    pub fn new(registry: &Registry) -> Self {
        TransportMetrics {
            frames_in: registry.counter("transport.frames_in"),
            frames_out: registry.counter("transport.frames_out"),
            bytes_in: registry.counter("transport.bytes_in"),
            bytes_out: registry.counter("transport.bytes_out"),
            frame_in_bytes: registry.histogram("transport.frame_in_bytes"),
            frame_out_bytes: registry.histogram("transport.frame_out_bytes"),
        }
    }

    /// Accounts one received frame of `bytes` body bytes.
    pub fn record_frame_in(&self, bytes: usize) {
        self.frames_in.inc();
        self.bytes_in.add(bytes as u64);
        self.frame_in_bytes.record(bytes as u64);
    }

    /// Accounts `frames` copies of one frame of `bytes` body bytes
    /// accepted for sending — a multicast's, in one update per metric.
    pub fn record_frames_out(&self, frames: u64, bytes: usize) {
        self.frames_out.add(frames);
        self.bytes_out.add(frames * bytes as u64);
        self.frame_out_bytes.record_n(bytes as u64, frames);
    }
}
