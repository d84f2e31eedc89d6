//! Sharded readiness-based reactor transport: every TCP connection in
//! the system, accepted or dialled.
//!
//! Connections speak the [`corona_types::frame`] wire format and keep
//! the full [`Connection`] contract — exact bounded transmit queues
//! with [`TransportError::Full`] backpressure, inbound backpressure,
//! [`corona_trace::Hop::Disconnect`] events — while owning no thread:
//! *all* of a reactor's connections are multiplexed onto its `N` shard
//! event loops, driven by epoll readiness (via the offline [`mio`]
//! shim), so a server's thread count is O(shards) whatever its
//! population.
//!
//! Sharding is by connection id (`conn_id % shards`): each shard owns
//! a poller plus the read/decode and write/flush state of its
//! connections, so no lock is shared between shards on the hot path.
//!
//! Every connection pushes: the shard hands each decoded frame, and
//! finally the close, to the connection's [`FrameSink`] — the one its
//! listener serves ([`Listener::attach_sink`]), or, for a dialled
//! connection, the one given to [`Connection::attach_sink`]. A
//! connection is registered with its shard only once it has a sink, so
//! a dialled one reads nothing before: what its peer sends waits in the
//! socket. A sink returning `false` from `on_frame` pauses reading —
//! TCP flow control then throttles the peer — until
//! [`FrameSink::ready_for_more`] reports `true`. Once a shard's poll
//! pass is over, every sink it handed frames or closes to in that pass
//! is told so, once, by [`FrameSink::on_drained`] — on the shard's
//! thread, which is where a server's kernel then sequences them — and
//! the accept loop does the same after each accepted connection.
//!
//! Outbound frames reserve a slot in an exact atomic counter before
//! enqueueing (concurrent senders can never overshoot the cap), and
//! the slot is released only once the frame's bytes reach the socket.
//!
//! # Who writes a socket
//!
//! [`Connection::queue_frame`] only appends; a [`Connection::flush`]
//! starts the one `write_pump`, and whoever flushes runs it. Flushed
//! [by the caller](FlushBy::Caller), the calling thread gathers
//! header ∥ body of up to [`WRITE_BUDGET_FRAMES`] queued frames into
//! one `writev` itself — a healthy socket takes them and no thread is
//! woken. Only what a caller cannot finish goes to the connection's
//! shard: a socket that pushed back (the shard then waits for
//! writability, armed only while output is pending, so an idle
//! population costs zero wakeups), a queue longer than the budget, a
//! flush [by the transport](FlushBy::Transport), or a connection on
//! which [`WRITE_BUDGET_FRAMES`] frames have been queued and not
//! flushed — so a caller that corks its output never holds back more
//! than that. Once a connection is handed to its shard, callers stay
//! off its socket until the shard has drained it. A shard's eventfd is
//! written once per batch of ops, not once per op.
//!
//! # The dial loop
//!
//! A listener owns its reactor; dialled connections have no such owner.
//! [`TcpDialer`] is a unit value — any two of them must behave as one —
//! so every connection dialled in the process attaches to one shared
//! reactor. It has a single shard: the dial side of a process is a
//! handful of peer links or a few clients' connections, and their
//! sinks only hand frames on (a kernel's command queue, a client's
//! event channel), so the loop does little more than move bytes. It is
//! started by the first dial, so a process that only listens never
//! pays for it, and it is never joined: a dialled connection may be in
//! use on any thread until the process exits, and a loop with no
//! connections sleeps in `epoll_wait`.

use crate::inbox::{lock, Inbox};
use crate::traits::{
    Connection, Dialer, FlushBy, FrameSink, Listener, TransportError, DEFAULT_SEND_CAPACITY,
};
use bytes::Bytes;
use corona_metrics::{Counter, Gauge, Histogram, Registry};
use corona_types::frame::{check_frame, declared_len, Frame, FRAME_HEADER_LEN};
use mio::{Events, Interest, Poll, Token, Waker};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// `arg` value of a [`corona_trace::Hop::Disconnect`] span for a peer
/// that hung up cleanly between frames.
pub const DISCONNECT_CLEAN: u64 = 0;
/// `arg` value of a [`corona_trace::Hop::Disconnect`] span for an
/// abnormal teardown: mid-frame EOF, I/O error, or CRC mismatch.
pub const DISCONNECT_ERROR: u64 = 1;

/// Token reserved for each shard's cross-thread waker.
const WAKER_TOKEN: Token = Token(usize::MAX);

/// `ConnInner::token` value while the connection is not registered
/// with its shard (pre-registration or already torn down).
const TOKEN_NONE: usize = usize::MAX;

/// Max bytes pulled off one socket per readiness event before the
/// shard moves on (level-triggered epoll re-reports the leftover):
/// one firehosing peer cannot monopolise its shard.
const READ_BUDGET: usize = 256 * 1024;

/// Max frames one `write_pump` run puts on a socket — and one `writev`
/// gathers; a flusher leaves the rest to the shard, whose armed write
/// interest re-fires. Also how many frames may sit queued on a
/// connection with no flush under way before the shard is given them
/// unasked: the most a corking caller adds to
/// [`Connection::backlog`]. One `writev`'s worth — a longer cork would
/// buy no fewer syscalls.
pub const WRITE_BUDGET_FRAMES: usize = 64;

/// Header + body slice per gathered frame. Linux caps one `writev` at
/// `IOV_MAX` = 1024 entries.
const WRITE_IOV: usize = 2 * WRITE_BUDGET_FRAMES;
const _: () = assert!(WRITE_IOV <= 1024);

/// Read chunk size (one `read(2)` call).
const READ_CHUNK: usize = 64 * 1024;

/// Token of the listening socket in a listener's [`AcceptGate`].
const LISTENER_TOKEN: Token = Token(0);

/// Back-off after a failed `accept(2)` (fd exhaustion): the socket
/// stays readable, so without it the accept thread would spin.
const ACCEPT_RETRY: Duration = Duration::from_millis(1);

/// How long a shard sleeps between [`FrameSink::ready_for_more`]
/// checks while at least one of its connections is sink-paused.
const SINK_RESUME_POLL: Duration = Duration::from_millis(1);

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// `server.reactor.*` instrumentation, shared by all shards of one
/// reactor.
#[derive(Debug, Clone)]
struct ReactorMetrics {
    /// `server.reactor.wakeups` — cross-thread waker fires observed.
    wakeups: Arc<Counter>,
    /// `server.reactor.polls` — poll loop iterations.
    polls: Arc<Counter>,
    /// `server.reactor.events` — readiness events dispatched.
    events: Arc<Counter>,
    /// `server.reactor.conns` — currently registered connections.
    conns: Arc<Gauge>,
    /// `server.reactor.accepted` — connections ever attached.
    accepted: Arc<Counter>,
    /// `server.reactor.read_paused` — times a connection's reading was
    /// paused for inbound backpressure (sink push-back).
    read_paused: Arc<Counter>,
    /// `server.reactor.write_blocked` — `WouldBlock` on a socket write,
    /// whoever made it (the peer's receive window is full; the shard
    /// arms write interest).
    write_blocked: Arc<Counter>,
    /// `server.reactor.shard_depth` — shard ops drained per poll
    /// iteration.
    shard_depth: Arc<Histogram>,
    /// `server.reactor.write_calls` — `writev(2)` calls issued, by
    /// shards and flushing callers alike.
    write_calls: Arc<Counter>,
    /// `server.reactor.frames_out` — frames whose last byte reached a
    /// socket. `write_calls / frames_out` is syscalls per frame.
    frames_out: Arc<Counter>,
    /// `server.reactor.interest_changes` — `epoll_ctl` calls (the
    /// registered interest set actually changed).
    interest_changes: Arc<Counter>,
    /// `server.reactor.wake_writes` — eventfd writes (shard ops that
    /// found no wake-up already pending).
    wake_writes: Arc<Counter>,
}

impl ReactorMetrics {
    fn new(registry: &Registry) -> Self {
        ReactorMetrics {
            wakeups: registry.counter("server.reactor.wakeups"),
            polls: registry.counter("server.reactor.polls"),
            events: registry.counter("server.reactor.events"),
            conns: registry.gauge("server.reactor.conns"),
            accepted: registry.counter("server.reactor.accepted"),
            read_paused: registry.counter("server.reactor.read_paused"),
            write_blocked: registry.counter("server.reactor.write_blocked"),
            shard_depth: registry.histogram("server.reactor.shard_depth"),
            write_calls: registry.counter("server.reactor.write_calls"),
            frames_out: registry.counter("server.reactor.frames_out"),
            interest_changes: registry.counter("server.reactor.interest_changes"),
            wake_writes: registry.counter("server.reactor.wake_writes"),
        }
    }
}

// ---------------------------------------------------------------------
// Connection state
// ---------------------------------------------------------------------

/// A connection's write half, behind one mutex: senders append,
/// whoever flushes runs [`write_pump`] — one thread at a time, and the
/// `writev` itself is made with the lock released.
#[derive(Default)]
struct WriteHalf {
    /// Frames accepted and not yet picked up by a writer, in send order.
    queue: VecDeque<Frame>,
    /// Frames a writer picked up (at most [`WRITE_BUDGET_FRAMES`]) and
    /// has not fully put on the socket; empty while their writer is in
    /// `writev`, which holds them.
    batch: VecDeque<Frame>,
    /// Bytes of `batch[0]` (header ∥ body) already written: a short
    /// write resumes at exactly this byte.
    wpos: usize,
    /// A thread is inside [`write_pump`]. It looks at `queue` again,
    /// under the lock, before it leaves: a frame queued meanwhile is
    /// never stranded.
    writing: bool,
    /// The rest is the shard's: a `Writable` op is on its way to it or
    /// it waits for writability. Flushers stay off the socket until the
    /// shard has drained the queue and cleared this.
    on_shard: bool,
}

/// State shared between a [`ReactorConnection`] handle, its shard, and
/// any queued shard ops.
struct ConnInner {
    stream: TcpStream,
    peer: String,
    conn_id: u64,
    /// The shard-local epoll token, or [`TOKEN_NONE`].
    token: AtomicUsize,
    closed: AtomicBool,
    /// Set by a locally initiated `close()` (or reactor teardown) so
    /// the resulting socket error is not traced as a peer disconnect.
    local_close: AtomicBool,
    /// Reading is paused because the sink pushed back; written by the
    /// shard alone.
    read_paused: AtomicBool,
    send_capacity: AtomicUsize,
    /// Frames accepted by `send` whose bytes have not yet fully
    /// reached the socket. Slots are reserved here atomically before
    /// enqueueing — the cap is exact under concurrent senders.
    outstanding: AtomicUsize,
    write: Mutex<WriteHalf>,
    /// Where inbound frames go, and the id it knows the connection by.
    /// Set at accept for a listener's sink, or by
    /// [`Connection::attach_sink`]; setting it registers the connection
    /// with its shard, which alone reads it from then on.
    sink: OnceLock<(u64, Arc<dyn FrameSink>)>,
    /// The owning shard's mailbox.
    inbox: Arc<Inbox<ShardOp>>,
    /// The reactor's, for writes made off the shard.
    metrics: Option<Arc<ReactorMetrics>>,
}

impl fmt::Debug for ConnInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConnInner")
            .field("peer", &self.peer)
            .field("conn_id", &self.conn_id)
            .field("closed", &self.closed.load(Ordering::Relaxed))
            .field("attached", &self.sink.get().is_some())
            .finish()
    }
}

impl ConnInner {
    /// Marks the write half as the shard's and, with the lock released,
    /// tells the shard.
    fn hand_to_shard(self: &Arc<Self>, mut w: MutexGuard<'_, WriteHalf>) {
        w.on_shard = true;
        drop(w);
        self.inbox.push(ShardOp::Writable(Arc::clone(self)));
    }
}

/// A connection multiplexed onto a reactor shard.
///
/// Implements the full [`Connection`] contract — exact bounded sends,
/// inbound backpressure, disconnect trace events — without owning any
/// thread.
pub struct ReactorConnection {
    inner: Arc<ConnInner>,
}

impl fmt::Debug for ReactorConnection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReactorConnection")
            .field("inner", &self.inner)
            .finish()
    }
}

impl ReactorConnection {
    /// The reactor-assigned connection id (also the sharding key).
    pub fn conn_id(&self) -> u64 {
        self.inner.conn_id
    }
}

impl Connection for ReactorConnection {
    fn queue_frame(&self, frame: Frame) -> Result<(), TransportError> {
        let inner = &self.inner;
        if inner.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        // Reserve a slot atomically before enqueueing: the cap is
        // exact even under concurrent senders, unlike check-then-act
        // on a length.
        let cap = inner.send_capacity.load(Ordering::Relaxed);
        if inner
            .outstanding
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < cap).then_some(n + 1)
            })
            .is_err()
        {
            return Err(TransportError::Full);
        }
        let mut w = lock(&inner.write);
        w.queue.push_back(frame);
        // With no flush under way, this much is one `writev`'s worth:
        // waiting for the caller's flush would only grow the backlog.
        if !w.writing && !w.on_shard && w.queue.len() >= WRITE_BUDGET_FRAMES {
            inner.hand_to_shard(w);
        }
        Ok(())
    }

    fn flush(&self, by: FlushBy) {
        let inner = &self.inner;
        match by {
            FlushBy::Caller => {
                write_pump(inner, false);
            }
            FlushBy::Transport => {
                let w = lock(&inner.write);
                if !w.writing && !w.on_shard && !w.queue.is_empty() {
                    inner.hand_to_shard(w);
                }
            }
        }
    }

    fn set_send_capacity(&self, cap: usize) {
        self.inner
            .send_capacity
            .store(cap.max(1), Ordering::Relaxed);
    }

    fn attach_sink(&self, conn_id: u64, sink: Arc<dyn FrameSink>) {
        if self.inner.sink.set((conn_id, sink)).is_ok() {
            Reactor::activate(&self.inner);
        }
    }

    fn backlog(&self) -> usize {
        self.inner.outstanding.load(Ordering::Acquire)
    }

    fn close(&self) {
        let inner = &self.inner;
        inner.local_close.store(true, Ordering::Release);
        if inner.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        let _ = inner.stream.shutdown(Shutdown::Both);
        // The shutdown surfaces as a readiness event, but a fully
        // paused connection is deregistered from the poller — the
        // explicit op guarantees teardown either way. (One not yet
        // registered is torn down by its registration.)
        inner.inbox.push(ShardOp::Close(Arc::clone(inner)));
    }

    fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }

    fn peer_label(&self) -> String {
        self.inner.peer.clone()
    }
}

impl Drop for ReactorConnection {
    fn drop(&mut self) {
        self.close();
    }
}

// ---------------------------------------------------------------------
// Shards
// ---------------------------------------------------------------------

enum ShardOp {
    /// A connection that was given its sink, to register with the
    /// poller.
    Register(Arc<ConnInner>),
    /// The connection's write half was handed to the shard.
    Writable(Arc<ConnInner>),
    /// A local `close()`; guarantees teardown even while deregistered.
    Close(Arc<ConnInner>),
}

struct ShardHandle {
    /// Connection handles push ops, one eventfd write per batch; closing
    /// it stops the shard.
    inbox: Arc<Inbox<ShardOp>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Per-connection state owned by the shard thread alone.
struct ShardConn {
    inner: Arc<ConnInner>,
    /// Frame reassembly buffer: bytes read off the socket but not yet
    /// parsed into complete frames.
    rbuf: Vec<u8>,
    /// The shard's last `write_pump` left output behind (socket pushed
    /// back, or the budget ran out): keep write interest armed.
    write_pending: bool,
    /// Interest currently registered with the poller. `None`: a
    /// connection with reading paused and nothing to write is
    /// deregistered entirely (level-triggered epoll would otherwise
    /// spin on the readable socket).
    interest: Option<Interest>,
}

enum PumpEnd {
    /// Keep the connection; interest may need re-arming.
    Keep,
    /// The peer closed; `true` = at a frame boundary.
    PeerClosed(bool),
    /// I/O or framing error.
    Error,
}

/// How a [`write_pump`] run ended.
enum Wrote {
    /// Nothing is left for this caller to do: the queue is empty, or
    /// the connection is in another writer's hands.
    Drained,
    /// The socket pushed back or the budget ran out: the rest is the
    /// shard's.
    Pending,
    /// The socket is dead.
    Failed,
}

struct ShardRt {
    poll: Poll,
    inbox: Arc<Inbox<ShardOp>>,
    conns: HashMap<usize, ShardConn>,
    /// Tokens paused by a [`FrameSink::on_frame`] push-back, polled
    /// against [`FrameSink::ready_for_more`].
    sink_paused: HashSet<usize>,
    touched: Touched,
    next_token: usize,
    metrics: Option<Arc<ReactorMetrics>>,
}

/// The sinks a shard handed frames or closes to in its current poll
/// pass, each to be told [`FrameSink::on_drained`] once the pass is
/// over.
#[derive(Default)]
struct Touched(Vec<Arc<dyn FrameSink>>);

impl Touched {
    fn note(&mut self, sink: &Arc<dyn FrameSink>) {
        // Frames come in runs per sink: looking at the last one noted
        // keeps the list about as long as the sinks are many.
        let addr = sink_addr(sink);
        if self.0.last().is_none_or(|last| sink_addr(last) != addr) {
            self.0.push(Arc::clone(sink));
        }
    }

    /// Tells each sink noted since the last call, once.
    fn hand_on(&mut self) {
        self.0.sort_unstable_by_key(sink_addr);
        self.0.dedup_by_key(|sink| sink_addr(sink));
        for sink in self.0.drain(..) {
            sink.on_drained();
        }
    }
}

/// A sink's identity: the address of what it points at.
fn sink_addr(sink: &Arc<dyn FrameSink>) -> usize {
    Arc::as_ptr(sink).cast::<()>() as usize
}

impl ShardRt {
    fn run(&mut self) {
        let mut scratch = vec![0u8; READ_CHUNK];
        let mut events = Events::with_capacity(1024);
        let mut ops = Vec::new();
        loop {
            let timeout = if self.sink_paused.is_empty() {
                None
            } else {
                Some(SINK_RESUME_POLL)
            };
            if self.poll.poll(&mut events, timeout).is_err() {
                break;
            }
            for event in events.iter() {
                let token = event.token();
                if token == WAKER_TOKEN {
                    if let Some(m) = &self.metrics {
                        m.wakeups.inc();
                    }
                    continue;
                }
                if let Some(m) = &self.metrics {
                    m.events.inc();
                }
                if event.is_writable() {
                    self.pump_write(token.0);
                }
                if event.is_readable() {
                    self.pump_read(token.0, &mut scratch);
                }
            }
            // A push after this drain writes the eventfd and the next
            // poll returns at once; so does the close that ends the loop.
            let open = self.inbox.drain_into(&mut ops);
            if let Some(m) = &self.metrics {
                m.polls.inc();
                m.shard_depth.record(ops.len() as u64);
            }
            for op in ops.drain(..) {
                match op {
                    ShardOp::Register(inner) => self.register(inner, &mut scratch),
                    ShardOp::Writable(inner) => {
                        let token = inner.token.load(Ordering::Acquire);
                        if token != TOKEN_NONE {
                            self.pump_write(token);
                        }
                    }
                    ShardOp::Close(inner) => {
                        let token = inner.token.load(Ordering::Acquire);
                        if token != TOKEN_NONE {
                            self.teardown(token, true);
                        }
                    }
                }
            }
            self.resume_sink_paused(&mut scratch);
            self.touched.hand_on();
            if !open {
                break;
            }
        }
        // Reactor teardown: close every surviving connection without
        // tracing peer disconnects (this endpoint is going away).
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(sc) = self.conns.get(&token) {
                sc.inner.local_close.store(true, Ordering::Release);
            }
            self.teardown(token, true);
        }
        self.touched.hand_on();
    }

    fn register(&mut self, inner: Arc<ConnInner>, scratch: &mut [u8]) {
        let token = self.next_token;
        self.next_token += 1;
        inner.token.store(token, Ordering::Release);
        self.conns.insert(
            token,
            ShardConn {
                inner: Arc::clone(&inner),
                rbuf: Vec::new(),
                write_pending: false,
                interest: None,
            },
        );
        if inner.closed.load(Ordering::Acquire) {
            self.teardown(token, true);
            return;
        }
        // Take up a hand-over made before activation (its `Writable` op
        // found no token and was dropped); this also arms interest.
        self.pump_write(token);
        // Bytes may already be waiting (the peer sent before we
        // registered): with level-triggered epoll the registration
        // reports them, but pumping once now saves a poll round-trip.
        self.pump_read(token, scratch);
    }

    /// Recomputes a connection's poller interest from its current
    /// read/write state and tells the poller only if it changed.
    fn rearm(&mut self, token: usize) {
        let Some(sc) = self.conns.get_mut(&token) else {
            return;
        };
        let inner = &sc.inner;
        let want_read =
            !inner.read_paused.load(Ordering::Acquire) && !inner.closed.load(Ordering::Acquire);
        let want = match (want_read, sc.write_pending) {
            (true, true) => Some(Interest::READABLE | Interest::WRITABLE),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            (false, false) => None,
        };
        if want == sc.interest {
            return;
        }
        if let Some(m) = &self.metrics {
            m.interest_changes.inc();
        }
        let fd = inner.stream.as_raw_fd();
        let registry = self.poll.registry();
        let applied = match (sc.interest, want) {
            (_, None) => {
                let _ = registry.deregister(fd);
                Ok(())
            }
            (None, Some(interest)) => registry.register(fd, Token(token), interest),
            (Some(_), Some(interest)) => registry.reregister(fd, Token(token), interest),
        };
        match applied {
            Ok(()) => sc.interest = want,
            Err(_) => self.teardown(token, false),
        }
    }

    fn pump_write(&mut self, token: usize) {
        let Some(sc) = self.conns.get_mut(&token) else {
            return;
        };
        match write_pump(&sc.inner, true) {
            Wrote::Drained => sc.write_pending = false,
            Wrote::Pending => sc.write_pending = true,
            Wrote::Failed => return self.teardown(token, false),
        }
        self.rearm(token);
    }

    fn pump_read(&mut self, token: usize, scratch: &mut [u8]) {
        let outcome = {
            let Some(sc) = self.conns.get_mut(&token) else {
                return;
            };
            if sc.inner.closed.load(Ordering::Acquire) {
                PumpEnd::PeerClosed(true)
            } else {
                let metrics = self.metrics.as_deref();
                read_pump(
                    sc,
                    scratch,
                    metrics,
                    &mut self.sink_paused,
                    &mut self.touched,
                )
            }
        };
        match outcome {
            PumpEnd::Keep => self.rearm(token),
            PumpEnd::PeerClosed(clean) => self.teardown(token, clean),
            PumpEnd::Error => self.teardown(token, false),
        }
    }

    fn resume_sink_paused(&mut self, scratch: &mut [u8]) {
        if self.sink_paused.is_empty() {
            return;
        }
        let tokens: Vec<usize> = self.sink_paused.iter().copied().collect();
        for token in tokens {
            let ready = self
                .conns
                .get(&token)
                .and_then(|sc| sc.inner.sink.get())
                .is_some_and(|(_, sink)| sink.ready_for_more());
            if ready {
                self.sink_paused.remove(&token);
                if let Some(sc) = self.conns.get(&token) {
                    sc.inner.read_paused.store(false, Ordering::Release);
                }
                self.pump_read(token, scratch);
            }
        }
    }

    fn teardown(&mut self, token: usize, clean: bool) {
        let Some(sc) = self.conns.remove(&token) else {
            return;
        };
        self.sink_paused.remove(&token);
        let inner = &sc.inner;
        if sc.interest.is_some() {
            let _ = self.poll.registry().deregister(inner.stream.as_raw_fd());
        }
        inner.token.store(TOKEN_NONE, Ordering::Release);
        let was_closed = inner.closed.swap(true, Ordering::AcqRel);
        // Sample local_close BEFORE telling the sink: whoever it tells
        // can drop (and thereby close()) the connection before a later
        // load, making a remote disconnect look locally initiated and
        // suppressing its trace event.
        let was_local = inner.local_close.load(Ordering::Acquire);
        let _ = inner.stream.shutdown(Shutdown::Both);
        if !was_closed && !was_local {
            corona_trace::record(
                corona_trace::Hop::Disconnect,
                corona_trace::TraceId::NONE,
                0,
                if clean {
                    DISCONNECT_CLEAN
                } else {
                    DISCONNECT_ERROR
                },
            );
        }
        if let Some((conn_id, sink)) = inner.sink.get() {
            sink.on_closed(*conn_id, clean);
            self.touched.note(sink);
        }
        if let Some(m) = &self.metrics {
            m.conns.dec();
        }
    }
}

/// The one socket writer, run by whoever flushes — a caller
/// (`shard == false`) or the connection's shard: puts queued frames on
/// the socket until the queue drains, the socket pushes back, or the
/// budget runs out. Each pass gathers header ∥ body of every frame in
/// hand into one `writev`, so a burst to one client is one syscall,
/// not two per frame. One thread at a time is in here per connection;
/// what a caller leaves behind it hands to the shard.
fn write_pump(inner: &Arc<ConnInner>, shard: bool) -> Wrote {
    let metrics = inner.metrics.as_deref();
    let mut w = lock(&inner.write);
    if w.writing || (w.on_shard && !shard) {
        return Wrote::Drained;
    }
    w.writing = true;
    let mut flushed = 0usize;
    let end = loop {
        while w.batch.len() < WRITE_BUDGET_FRAMES {
            match w.queue.pop_front() {
                Some(frame) => w.batch.push_back(frame),
                None => break,
            }
        }
        if w.batch.is_empty() {
            break Wrote::Drained;
        }
        if flushed >= WRITE_BUDGET_FRAMES {
            break Wrote::Pending;
        }
        // The batch leaves the lock for the `writev`: a sender queueing
        // meanwhile waits for no syscall.
        let mut batch = std::mem::take(&mut w.batch);
        let mut wpos = w.wpos;
        drop(w);
        let written = {
            let mut iov = [IoSlice::new(&[]); WRITE_IOV];
            let n = gather(&batch, wpos, &mut iov);
            (&inner.stream).write_vectored(&iov[..n])
        };
        if let Some(m) = metrics {
            m.write_calls.inc();
        }
        let stop = match written {
            Ok(0) => Some(Wrote::Failed),
            Ok(written) => {
                let done = advance(&mut batch, &mut wpos, written);
                inner.outstanding.fetch_sub(done, Ordering::AcqRel);
                flushed += done;
                if let Some(m) = metrics {
                    m.frames_out.add(done as u64);
                }
                None
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if let Some(m) = metrics {
                    m.write_blocked.inc();
                }
                Some(Wrote::Pending)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => None,
            Err(_) => Some(Wrote::Failed),
        };
        w = lock(&inner.write);
        w.batch = batch;
        w.wpos = wpos;
        if let Some(end) = stop {
            break end;
        }
    };
    w.writing = false;
    // A caller cannot tear a dead connection down: the shard finds the
    // error again.
    w.on_shard = !matches!(end, Wrote::Drained);
    if w.on_shard && !shard {
        inner.hand_to_shard(w);
    }
    end
}

/// Points `iov` at header ∥ body of every frame in `batch`, minus the
/// first `done` bytes of the front frame (already on the socket).
/// Returns how many slices were filled.
fn gather<'a>(
    batch: &'a VecDeque<Frame>,
    done: usize,
    iov: &mut [IoSlice<'a>; WRITE_IOV],
) -> usize {
    let mut n = 0;
    for (i, frame) in batch.iter().enumerate() {
        let done = if i == 0 { done } else { 0 };
        if done < FRAME_HEADER_LEN {
            iov[n] = IoSlice::new(&frame.header()[done..]);
            iov[n + 1] = IoSlice::new(frame.body());
            n += 2;
        } else {
            iov[n] = IoSlice::new(&frame.body()[done - FRAME_HEADER_LEN..]);
            n += 1;
        }
    }
    n
}

/// Accounts `written` bytes of a [`gather`]ed write: drops the frames
/// it completed (returning how many) and leaves `done` at the exact
/// byte of the new front frame where the next write resumes.
fn advance(batch: &mut VecDeque<Frame>, done: &mut usize, mut written: usize) -> usize {
    let mut completed = 0;
    while let Some(front) = batch.front() {
        let rest = front.wire_len() - *done;
        if written < rest {
            *done += written;
            break;
        }
        written -= rest;
        *done = 0;
        batch.pop_front();
        completed += 1;
    }
    completed
}

/// Parses complete frames out of `sc.rbuf`, delivering each to the
/// sink. A frame is verified where it lies in the reassembly buffer and
/// its body copied out once, into the [`Bytes`] handed on. Returns
/// `Err(())` on framing corruption, `Ok(true)` if reading should pause.
fn parse_frames(
    sc: &mut ShardConn,
    metrics: Option<&ReactorMetrics>,
    sink_paused: &mut HashSet<usize>,
    touched: &mut Touched,
) -> Result<bool, ()> {
    let inner = &sc.inner;
    // A registered connection has its sink.
    let Some((conn_id, sink)) = inner.sink.get() else {
        return Err(());
    };
    let mut pos = 0usize;
    let mut paused = false;
    while let Some(header) = sc.rbuf[pos..].first_chunk::<FRAME_HEADER_LEN>() {
        // A corrupt stream ends the connection: what is left in the
        // buffer is never looked at again.
        let Ok(len) = declared_len(header) else {
            return Err(());
        };
        let end = pos + FRAME_HEADER_LEN + len;
        if sc.rbuf.len() < end {
            break;
        }
        let Ok(body) = check_frame(&sc.rbuf[pos..end]) else {
            return Err(());
        };
        let frame = Bytes::copy_from_slice(body);
        pos = end;
        touched.note(sink);
        if !sink.on_frame(*conn_id, frame) {
            inner.read_paused.store(true, Ordering::Release);
            sink_paused.insert(inner.token.load(Ordering::Acquire));
            paused = true;
            if let Some(m) = metrics {
                m.read_paused.inc();
            }
            break;
        }
    }
    sc.rbuf.drain(..pos);
    Ok(paused)
}

/// Drains readable bytes (bounded by [`READ_BUDGET`]) and delivers the
/// frames they complete. Leftover partial frames stay in the
/// reassembly buffer for the next readiness event. A `read(2)` that
/// comes back short has emptied the socket: there is no second one just
/// to be told `WouldBlock` — level-triggered epoll re-reports whatever
/// arrives, or the end of the stream.
fn read_pump(
    sc: &mut ShardConn,
    scratch: &mut [u8],
    metrics: Option<&ReactorMetrics>,
    sink_paused: &mut HashSet<usize>,
    touched: &mut Touched,
) -> PumpEnd {
    let mut read_bytes = 0usize;
    let mut emptied = false;
    loop {
        match parse_frames(sc, metrics, sink_paused, touched) {
            Err(()) => return PumpEnd::Error,
            Ok(true) => return PumpEnd::Keep, // paused; interest re-armed by caller
            Ok(false) => {}
        }
        if emptied || read_bytes >= READ_BUDGET {
            return PumpEnd::Keep; // level-triggered epoll re-reports
        }
        match (&sc.inner.stream).read(scratch) {
            Ok(0) => return PumpEnd::PeerClosed(sc.rbuf.is_empty()),
            Ok(n) => {
                sc.rbuf.extend_from_slice(&scratch[..n]);
                read_bytes += n;
                emptied = n < scratch.len();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return PumpEnd::Keep,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return PumpEnd::Error,
        }
    }
}

// ---------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------

/// A pool of shard event loops that connections multiplex onto.
///
/// Owned by a [`ReactorListener`]; dropping the last owner stops the
/// shard threads and closes every remaining connection. (The one
/// [dial loop](self#the-dial-loop) lives for the whole process.)
pub struct Reactor {
    shards: Vec<ShardHandle>,
    next_conn: AtomicU64,
    metrics: Option<Arc<ReactorMetrics>>,
}

impl fmt::Debug for Reactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Reactor")
            .field("shards", &self.shards.len())
            .field("next_conn", &self.next_conn.load(Ordering::Relaxed))
            .finish()
    }
}

impl Reactor {
    /// Starts `shards` event-loop threads (at least one).
    ///
    /// # Errors
    ///
    /// Poller or waker creation failures (fd exhaustion).
    pub fn new(shards: usize) -> Result<Reactor, TransportError> {
        Self::with_registry(shards, None)
    }

    /// Like [`Reactor::new`], additionally exporting `server.reactor.*`
    /// metrics (wakeups, polls, events, live conns, pause/block
    /// counters, shard op-queue depth) into `registry`.
    ///
    /// # Errors
    ///
    /// Poller or waker creation failures (fd exhaustion).
    pub fn with_registry(
        shards: usize,
        registry: Option<&Registry>,
    ) -> Result<Reactor, TransportError> {
        let metrics = registry.map(|registry| Arc::new(ReactorMetrics::new(registry)));
        let mut handles = Vec::new();
        for i in 0..shards.max(1) {
            let poll = Poll::new().map_err(TransportError::from)?;
            let waker = Waker::new(poll.registry(), WAKER_TOKEN)?;
            let wake = {
                let metrics = metrics.clone();
                move || {
                    // An error means the reactor is gone; its teardown
                    // already marked every connection closed.
                    let _ = waker.wake();
                    if let Some(m) = &metrics {
                        m.wake_writes.inc();
                    }
                }
            };
            let inbox = Arc::new(Inbox::new(wake));
            let mut rt = ShardRt {
                poll,
                inbox: Arc::clone(&inbox),
                conns: HashMap::new(),
                sink_paused: HashSet::new(),
                touched: Touched::default(),
                next_token: 0,
                metrics: metrics.clone(),
            };
            let thread = std::thread::Builder::new()
                .name(format!("corona-reactor-{i}"))
                .spawn(move || rt.run())
                .map_err(|e| TransportError::Io(e.to_string()))?;
            handles.push(ShardHandle {
                inbox,
                thread: Some(thread),
            });
        }
        Ok(Reactor {
            shards: handles,
            next_conn: AtomicU64::new(0),
            metrics,
        })
    }

    /// Number of shard event loops.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Multiplexes an established stream onto its shard
    /// (`conn_id % shards`), delivering to `sink` if one is given.
    ///
    /// The connection is inert until [`Reactor::activate`] registers
    /// it with its shard — an accept delivers the connection to the
    /// sink *first*, so no `on_frame` can ever precede its
    /// `on_accept` — and a dialled one until it is given a sink.
    fn attach(
        &self,
        stream: TcpStream,
        sink: Option<Arc<dyn FrameSink>>,
    ) -> Result<ReactorConnection, TransportError> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".to_string());
        let conn_id = self.next_conn.fetch_add(1, Ordering::Relaxed) + 1;
        let shard = &self.shards[(conn_id as usize) % self.shards.len()];
        let inner = Arc::new(ConnInner {
            stream,
            peer,
            conn_id,
            token: AtomicUsize::new(TOKEN_NONE),
            closed: AtomicBool::new(false),
            local_close: AtomicBool::new(false),
            read_paused: AtomicBool::new(false),
            send_capacity: AtomicUsize::new(DEFAULT_SEND_CAPACITY),
            outstanding: AtomicUsize::new(0),
            write: Mutex::default(),
            sink: sink.map_or_else(OnceLock::new, |sink| OnceLock::from((conn_id, sink))),
            inbox: Arc::clone(&shard.inbox),
            metrics: self.metrics.clone(),
        });
        if let Some(m) = &self.metrics {
            m.accepted.inc();
            m.conns.inc();
        }
        Ok(ReactorConnection { inner })
    }

    /// Registers an attached connection with its shard, after which
    /// inbound frames start flowing. (Sends need no registration; a
    /// pre-activation hand-over or `close()` is honoured by it.)
    fn activate(inner: &Arc<ConnInner>) {
        inner.inbox.push(ShardOp::Register(Arc::clone(inner)));
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        for shard in &self.shards {
            shard.inbox.close();
        }
        for shard in &mut self.shards {
            if let Some(thread) = shard.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Listener / Dialer
// ---------------------------------------------------------------------

/// A TCP listener whose accepted connections run on a sharded reactor
/// instead of per-connection threads.
///
/// [`Listener::attach_sink`] starts its one accept thread; a server on
/// it runs with O(shards) transport threads regardless of population.
#[derive(Debug)]
pub struct ReactorListener {
    listener: TcpListener,
    addr: String,
    reactor: Arc<Reactor>,
    gate: Arc<AcceptGate>,
    accept_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// Where an accept loop sleeps between connections: a poller holding
/// the listening socket and a shutdown waker. Blocking here instead of
/// re-trying on a timer means an idle listener wakes nobody — a
/// millisecond poll per listener is a thousand timer interrupts a
/// second landing on the shard and dispatcher threads' processors.
struct AcceptGate {
    poll: Mutex<(Poll, Events)>,
    waker: Waker,
    shutdown: AtomicBool,
}

impl fmt::Debug for AcceptGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AcceptGate")
            .field("shutdown", &self.is_shut_down())
            .finish()
    }
}

impl AcceptGate {
    fn new(listener: &TcpListener) -> io::Result<AcceptGate> {
        let poll = Poll::new()?;
        poll.registry()
            .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
        let waker = Waker::new(poll.registry(), WAKER_TOKEN)?;
        Ok(AcceptGate {
            poll: Mutex::new((poll, Events::with_capacity(2))),
            waker,
            shutdown: AtomicBool::new(false),
        })
    }

    fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Blocks until a connection is pending or the listener shuts
    /// down; once either holds, every later call returns at once. The
    /// socket is level-triggered; the shutdown wake is reported to one
    /// waiter only, so each looks at the flag once it has the poller
    /// to itself.
    fn wait(&self) {
        let mut guard = lock(&self.poll);
        if self.is_shut_down() {
            return;
        }
        let (poll, events) = &mut *guard;
        if poll.poll(events, None).is_err() {
            std::thread::sleep(ACCEPT_RETRY);
        }
    }

    fn shut_down(&self) {
        self.shutdown.store(true, Ordering::Release);
        let _ = self.waker.wake();
    }
}

impl ReactorListener {
    /// Binds to `addr` with `shards` event loops and no metrics.
    ///
    /// # Errors
    ///
    /// Bind or reactor startup failures.
    pub fn bind(addr: &str, shards: usize) -> Result<Self, TransportError> {
        Self::bind_with_registry(addr, shards, None)
    }

    /// Binds to `addr`, exporting `server.reactor.*` metrics into
    /// `registry` when given.
    ///
    /// # Errors
    ///
    /// Bind or reactor startup failures.
    pub fn bind_with_registry(
        addr: &str,
        shards: usize,
        registry: Option<&Registry>,
    ) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?.to_string();
        let gate = Arc::new(AcceptGate::new(&listener)?);
        Ok(ReactorListener {
            listener,
            addr,
            reactor: Arc::new(Reactor::with_registry(shards, registry)?),
            gate,
            accept_thread: Mutex::new(None),
        })
    }

    /// The shared reactor (e.g. to inspect [`Reactor::shard_count`]).
    pub fn reactor(&self) -> &Arc<Reactor> {
        &self.reactor
    }
}

/// Accepts one pending connection from a nonblocking listener, or
/// reports why not.
fn try_accept(listener: &TcpListener) -> Result<Option<TcpStream>, TransportError> {
    match listener.accept() {
        Ok((stream, _)) => Ok(Some(stream)),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
        Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(None),
        Err(e) => Err(e.into()),
    }
}

impl Listener for ReactorListener {
    fn local_addr(&self) -> String {
        self.addr.clone()
    }

    fn shutdown(&self) {
        self.gate.shut_down();
        if let Some(thread) = lock(&self.accept_thread).take() {
            let _ = thread.join();
        }
    }

    fn attach_sink(&self, sink: Arc<dyn FrameSink>) -> bool {
        let mut slot = lock(&self.accept_thread);
        if slot.is_some() || self.gate.is_shut_down() {
            return false;
        }
        let listener = match self.listener.try_clone() {
            Ok(l) => l,
            Err(_) => return false,
        };
        let reactor = Arc::clone(&self.reactor);
        let gate = Arc::clone(&self.gate);
        let thread = std::thread::Builder::new()
            .name("corona-accept".to_string())
            .spawn(move || {
                while !gate.is_shut_down() {
                    match try_accept(&listener) {
                        Ok(Some(stream)) => {
                            if let Ok(conn) = reactor.attach(stream, Some(Arc::clone(&sink))) {
                                let conn_id = conn.conn_id();
                                let inner = Arc::clone(&conn.inner);
                                // Hand the connection over before any
                                // byte of it is read: the sink's
                                // `on_accept` is guaranteed to precede
                                // its first `on_frame`.
                                sink.on_accept(conn_id, Box::new(conn));
                                Reactor::activate(&inner);
                                sink.on_drained();
                            }
                        }
                        Ok(None) => gate.wait(),
                        Err(_) => std::thread::sleep(ACCEPT_RETRY),
                    }
                }
            });
        match thread {
            Ok(handle) => {
                *slot = Some(handle);
                true
            }
            Err(_) => false,
        }
    }
}

impl Drop for ReactorListener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Dials TCP endpoints onto the reactor — the dial-side counterpart of
/// [`ReactorListener`], and the only way a TCP connection is dialled.
///
/// A unit value: every connection dialled in this process runs on the
/// one shared [dial loop](self#the-dial-loop), so a dialled connection
/// owns no thread. It is read from once it is given a sink
/// ([`Connection::attach_sink`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpDialer;

/// The process-wide dial loop, started by the first dial.
fn dial_loop() -> Result<&'static Reactor, TransportError> {
    static DIAL_LOOP: OnceLock<Reactor> = OnceLock::new();
    if let Some(reactor) = DIAL_LOOP.get() {
        return Ok(reactor);
    }
    // Built outside the cell, so a startup failure (fd exhaustion) is
    // returned to this dial and the next one tries again. Of two first
    // dials that race, the loser's reactor is dropped unused, which
    // joins its idle thread.
    let reactor = Reactor::new(1)?;
    Ok(DIAL_LOOP.get_or_init(|| reactor))
}

impl Dialer for TcpDialer {
    /// Tries each address `addr` resolves to, in order, within one
    /// overall `timeout`. (Resolving a host *name* is the system
    /// resolver's blocking call and is not covered by the bound; the
    /// rosters here hold literal addresses.)
    fn dial_timeout(
        &self,
        addr: &str,
        timeout: Duration,
    ) -> Result<Box<dyn Connection>, TransportError> {
        let deadline = Instant::now() + timeout;
        let mut failure = TransportError::Io(format!("{addr}: no addresses resolved"));
        for sockaddr in addr.to_socket_addrs()? {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(TransportError::Timeout);
            }
            match TcpStream::connect_timeout(&sockaddr, left) {
                Ok(stream) => return Ok(Box::new(dial_loop()?.attach(stream, None)?)),
                Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                    failure = TransportError::Timeout;
                }
                Err(e) => failure = e.into(),
            }
        }
        Err(failure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corona_types::frame::read_frame;
    use std::os::fd::RawFd;

    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;

    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }

    fn set_buf(fd: RawFd, name: i32, bytes: i32) {
        // SAFETY: `value` points at a live `i32` and `len` is its size,
        // which is what SO_SNDBUF / SO_RCVBUF expect; `fd` is an open
        // socket owned by the caller for the duration of the call.
        let rc = unsafe { setsockopt(fd, SOL_SOCKET, name, &bytes, 4) };
        assert_eq!(rc, 0, "setsockopt: {}", io::Error::last_os_error());
    }

    /// Hands every frame it is told of to a channel, and holds the
    /// connections it accepts open.
    struct Frames(
        std::sync::mpsc::Sender<Bytes>,
        Mutex<Vec<Box<dyn Connection>>>,
    );

    fn frames() -> (Arc<Frames>, std::sync::mpsc::Receiver<Bytes>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (Arc::new(Frames(tx, Mutex::default())), rx)
    }

    impl FrameSink for Frames {
        fn on_accept(&self, _: u64, conn: Box<dyn Connection>) {
            lock(&self.1).push(conn);
        }
        fn on_frame(&self, _: u64, frame: Bytes) -> bool {
            let _ = self.0.send(frame);
            true
        }
        fn ready_for_more(&self) -> bool {
            true
        }
        fn on_closed(&self, _: u64, _: bool) {}
    }

    /// Counts the frames and the ends of passes it is told of.
    #[derive(Default)]
    struct Passes {
        frames: AtomicUsize,
        drained: AtomicUsize,
        conns: Mutex<Vec<Box<dyn Connection>>>,
    }

    impl FrameSink for Passes {
        fn on_accept(&self, _: u64, conn: Box<dyn Connection>) {
            lock(&self.conns).push(conn);
        }
        fn on_frame(&self, _: u64, _: Bytes) -> bool {
            self.frames.fetch_add(1, Ordering::SeqCst);
            true
        }
        fn ready_for_more(&self) -> bool {
            true
        }
        fn on_closed(&self, _: u64, _: bool) {}
        fn on_drained(&self) {
            self.drained.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A burst read in one pass is handed on once, after its last
    /// frame, not once per frame: whatever the sink does at the end of
    /// a pass — the kernel sequences — is done for the whole burst.
    #[test]
    fn a_pass_ends_once_for_all_the_frames_it_read() {
        const BURST: usize = 200;
        let listener = ReactorListener::bind("127.0.0.1:0", 1).unwrap();
        let sink = Arc::new(Passes::default());
        assert!(listener.attach_sink(Arc::clone(&sink) as Arc<dyn FrameSink>));
        let mut client = TcpStream::connect(listener.local_addr()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        // The accept loop hands the accept on by itself.
        while sink.drained.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "the accept was not handed on");
            std::thread::sleep(Duration::from_millis(1));
        }
        let accepted = sink.drained.load(Ordering::SeqCst);
        let mut wire = Vec::new();
        for i in 0..BURST {
            corona_types::frame::write_frame(&mut wire, &[i as u8; 9]).unwrap();
        }
        client.write_all(&wire).unwrap();
        let ended = || {
            let frames = sink.frames.load(Ordering::SeqCst);
            frames == BURST && sink.drained.load(Ordering::SeqCst) > accepted
        };
        while !ended() {
            assert!(Instant::now() < deadline, "the burst was not handed on");
            std::thread::sleep(Duration::from_millis(1));
        }
        let passes = sink.drained.load(Ordering::SeqCst) - accepted;
        assert!(
            (1..=BURST / 10).contains(&passes),
            "{passes} ends of passes for {BURST} frames"
        );
    }

    /// Drains the socket in small, odd-sized reads, so the sender keeps
    /// running into a full pipe.
    struct Trickle {
        stream: TcpStream,
        turn: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            const WINDOWS: [usize; 6] = [1, 3, 7, 1021, 5, 4099];
            self.turn += 1;
            let cap = WINDOWS[self.turn % WINDOWS.len()].min(buf.len());
            self.stream.read(&mut buf[..cap])
        }
    }

    /// Every way a socket can cut a gathered write short — including
    /// inside a header, which the kernel only does once in a long
    /// while — must resume at the exact byte.
    #[test]
    fn gather_and_advance_resume_at_every_split_point() {
        let bodies: [usize; 7] = [0, 1, 5, 300, 0, 17, 2];
        let frames: Vec<Frame> = bodies
            .iter()
            .enumerate()
            .map(|(i, &len)| Frame::new(Bytes::from(vec![i as u8 + 1; len])).unwrap())
            .collect();
        let wire: Vec<u8> = frames
            .iter()
            .flat_map(|f| [&f.header()[..], &f.body()[..]].concat())
            .collect();
        // A socket that takes `take` bytes per call: small values stop
        // in every header at every offset.
        for take in 1..=wire.len() {
            let mut batch: VecDeque<Frame> = frames.iter().cloned().collect();
            let (mut done, mut completed) = (0, 0);
            let mut sent = Vec::new();
            while !batch.is_empty() {
                let mut iov = [IoSlice::new(&[]); WRITE_IOV];
                let n = gather(&batch, done, &mut iov);
                let offered: Vec<u8> = iov[..n].iter().flat_map(|s| s.to_vec()).collect();
                assert_eq!(offered, wire[sent.len()..], "take {take}");
                let written = take.min(offered.len());
                sent.extend_from_slice(&offered[..written]);
                completed += advance(&mut batch, &mut done, written);
            }
            assert_eq!(sent, wire, "take {take}");
            assert_eq!((completed, done), (frames.len(), 0), "take {take}");
        }
    }

    /// Big and tiny frames interleaved through a socket that takes a
    /// few KiB at a time, read by a peer that drains it in dribbles:
    /// `writev` keeps coming back short or `WouldBlock`, to the caller
    /// that flushes first and to the shard it hands over to. Everything
    /// must still arrive intact and in order, the send cap must hold
    /// exactly while the reader is stalled, and every write must be
    /// counted whoever made it.
    #[test]
    fn short_vectored_writes_keep_order_and_the_exact_cap() {
        const CAP: usize = 16;
        const FRAMES: u32 = 400;
        fn body(i: u32) -> Vec<u8> {
            let len = if i % 50 == 7 {
                256 * 1024
            } else {
                4 + i as usize % 5
            };
            let mut body = vec![i as u8; len];
            body[..4].copy_from_slice(&i.to_le_bytes());
            body
        }

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        // Accepted sockets inherit the listener's receive buffer.
        set_buf(listener.as_raw_fd(), SO_RCVBUF, 2048);
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        set_buf(stream.as_raw_fd(), SO_SNDBUF, 2048);
        let (peer, _) = listener.accept().unwrap();

        let registry = Registry::new();
        let reactor = Reactor::with_registry(1, Some(&registry)).unwrap();
        let conn = reactor.attach(stream, None).unwrap();
        conn.attach_sink(1, frames().0);
        conn.set_send_capacity(CAP);

        // Reader stalled: the pipe fills, then the queue, then `Full`
        // — at exactly the cap. The flush that found the pipe full
        // left the connection with its shard.
        let mut next = 0u32;
        loop {
            match conn.send_frame(Frame::new(Bytes::from(body(next))).unwrap()) {
                Ok(()) => next += 1,
                Err(TransportError::Full) => break,
                Err(e) => panic!("unexpected send error: {e}"),
            }
            assert!(next < FRAMES, "queue never reported Full");
        }
        assert_eq!(conn.backlog(), CAP, "cap must be exact at Full");
        assert!(lock(&conn.inner.write).on_shard, "nobody owns the rest");
        let blocked = registry.counter("server.reactor.write_blocked");
        assert!(
            blocked.get() > 0,
            "the caller's blocked write went uncounted"
        );

        let reader = std::thread::spawn(move || {
            let mut r = Trickle {
                stream: peer,
                turn: 0,
            };
            for i in 0..FRAMES {
                let got = read_frame(&mut r).unwrap().expect("stream ended early");
                assert_eq!(got.as_ref(), body(i).as_slice(), "frame {i}");
            }
        });
        // Corked in threes from here on.
        while next < FRAMES {
            match conn.queue_frame(Frame::new(Bytes::from(body(next))).unwrap()) {
                Ok(()) => next += 1,
                Err(TransportError::Full) => {
                    assert!(conn.backlog() <= CAP);
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("unexpected send error: {e}"),
            }
            if next.is_multiple_of(3) {
                conn.flush(FlushBy::Caller);
            }
        }
        conn.flush(FlushBy::Caller);
        reader.join().unwrap();

        let snap = registry.snapshot();
        assert_eq!(snap.counter("server.reactor.frames_out"), u64::from(FRAMES));
    }

    /// Regression (shutdown relied on dialing ourselves): waking the
    /// accept thread by connecting to the listener's own address is not
    /// portably possible for a wildcard bind (`0.0.0.0` / `::`) and
    /// never succeeds once the backlog is full. Shutdown must need no
    /// network traffic at all to stop and join it.
    #[test]
    fn shutdown_joins_the_accept_thread_of_a_wildcard_bind() {
        let listener = ReactorListener::bind("0.0.0.0:0", 1).unwrap();
        assert!(listener.attach_sink(frames().0));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            listener.shutdown();
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("accept thread still blocked after shutdown of a wildcard bind");
    }

    #[test]
    fn wildcard_bind_still_accepts_loopback_dials() {
        let listener = ReactorListener::bind("0.0.0.0:0", 1).unwrap();
        let (sink, frames) = frames();
        assert!(listener.attach_sink(sink));
        assert!(!listener.attach_sink(self::frames().0), "serves one sink");
        let addr = listener.local_addr();
        let port = addr.rsplit(':').next().unwrap();
        let client = TcpStream::connect(format!("127.0.0.1:{port}")).unwrap();
        corona_types::frame::write_frame(&mut &client, b"via-wildcard").unwrap();
        let frame = frames.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(frame.as_ref(), b"via-wildcard");
    }
}
