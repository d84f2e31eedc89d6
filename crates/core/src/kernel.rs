//! The one server runtime kernel: accept → decode → dispatch → fan-out.
//!
//! Every Corona server process — the single
//! [`CoronaServer`](crate::server::CoronaServer) and each replica of the
//! replicated service — is this kernel around a [`Protocol`]. A replica
//! is, as §4.1 of the paper has it, a Corona server plus a peer
//! protocol: the same client plane, and three optional hooks (peer
//! frame, peer closed, tick) for the rest.
//!
//! Thread structure (the multi-threaded design of §5.1, modernised):
//!
//! * **transport threads** — each listener pushes into the kernel's
//!   [`FrameSink`] ([`Listener::attach_sink`]), and so does each peer
//!   link a replica dials ([`Connection::attach_sink`]): O(shards)
//!   reactor event loops, none per connection. Per-connection frame
//!   order is preserved, giving sender-FIFO;
//! * **the dispatcher** — owns the protocol and the connection table;
//!   processing commands one at a time yields the per-group total
//!   order. The transport threads hand it commands through one
//!   [`Inbox`], waking nobody: whoever turns the dispatcher swaps out
//!   whatever has queued up and works through that batch. The
//!   dispatcher is one value behind one lock, not a thread: *one
//!   dispatcher at a time*, on whichever thread holds the lock;
//! * **who turns it** — the transport thread that queued the work. At
//!   the end of its poll pass a reactor shard calls
//!   [`FrameSink::on_drained`], and the kernel's sink takes the lock if
//!   it is free and runs the batch on that thread — the sequencer is
//!   run by the thread that read the request, with no hand-off between
//!   them (flat combining). A shard that finds the lock taken leaves:
//!   the holder looks at the queue again after unlocking, so nothing
//!   pushed meanwhile waits. A shard's turn is bounded
//!   ([`TRANSPORT_TURN_MAX`] commands); what is left goes to the
//!   dispatcher thread;
//! * **the dispatcher thread** — which [`Kernel::start`] spawns — is
//!   woken only for such a hand-off, for [`Kernel::call`], for the tick
//!   and for close. Watchdogs, the protocol's tick and the metrics dump
//!   run off its park timeout — there is no timer thread.
//!
//! **Time is an argument.** The dispatcher's whole body is
//! `Dispatcher::run_pending(now_ms)`: the protocol, the watchdogs and
//! the tick cadence see no clock but that number ([`Io::now_ms`]). A
//! started kernel's turns read the time since it started;
//! [`Kernel::stepped`] keeps the same dispatcher in the same slot for a
//! caller that owns the loop — and the clock — itself, which is how
//! `corona-sim` runs whole clusters under virtual time. Its sinks never
//! turn the dispatcher, and it has no thread.
//!
//! A group broadcast is encoded *and framed* **once** into a shared
//! [`Frame`]; the dispatcher pushes a clone of the handle — not the
//! bytes, not a fresh checksum — straight onto every recipient's
//! bounded transmit queue ([`Connection::queue_frame`] never blocks
//! and wakes nobody). One enqueuing thread means per-connection FIFO by
//! construction; a full queue is shed or disconnected at the enqueue
//! site, so a slow client can never OOM the server. A frame costs one
//! buffer: its [`encoded_len`](corona_types::wire::Encode::encoded_len)
//! sizes it exactly, and a reply no frame can carry is refused from
//! that length, before anything is encoded. A replica's peer plane
//! does the same for a `Sequenced`: encoded once, queued on every
//! follower link that hosts its group.
//!
//! **A decoded byte string is a slice of its received frame.** The
//! client frames and the peer frames the kernel hands on are decoded
//! [over the frame](corona_types::wire::Reader::over_frame): a
//! broadcast's payload is never copied out, and what keeps it — a
//! state log, a standby copy — keeps its frame alive with it. That
//! costs no more than the payload: the transport hands over one
//! exact-size copy per inbound frame (the reactor copies each frame
//! out of its read buffer), so a frame holds nothing but itself.
//!
//! Output is **corked per batch**: a connection is marked dirty by the
//! first frame a batch of commands queues on it, and the dirty set is
//! flushed once the batch is done (and after a tick that fires inside
//! one) — so a connection costs one flush per batch however many
//! frames the batch gave it. Up to [`FLUSH_INLINE_MAX`] dirty
//! connections the dispatcher writes itself, on whichever thread turns
//! it, waking no thread; a wider set goes to the transport's own
//! threads, one wake-up each.

use crate::config::ServerConfig;
use crate::lock;
use crate::qos::{classify, EventClass, QosPolicy};
use bytes::Bytes;
use corona_health::{ConnPressure, HealthRegistry, Watchdogs};
use corona_metrics::{Counter, Gauge, Histogram, Registry};
use corona_trace::{record, Hop, TraceId};
use corona_transport::{
    Connection, FlushBy, FrameSink, Inbox, Listener, TransportError, TransportMetrics,
};
use corona_types::error::{CodecError, CoronaError, ErrorCode, Result};
use corona_types::frame::Frame;
use corona_types::id::{ClientId, GroupId};
use corona_types::message::{ClientRequest, ServerEvent};
use corona_types::state::Timestamp;
use corona_types::wire::{decode_traced_frame, encode_frame, TraceToken};
use std::collections::HashMap;
use std::sync::{mpsc, Arc, Mutex, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A sans-I/O protocol state machine the kernel can drive. The three
/// client-plane methods are the entry points `ServerCore` and
/// `ReplicaCore` share name for name; the effects they return come back
/// through [`Protocol::execute`] once the connection table reflects the
/// request (a `Welcome` needs its client bound to the connection).
pub trait Protocol: Send + 'static {
    /// What the state machine asks its runtime to do.
    type Effect;

    /// A client's `Hello`: the id it now goes by, and the effects.
    fn client_hello(
        &mut self,
        display_name: String,
        resume: Option<ClientId>,
    ) -> (ClientId, Vec<Self::Effect>);

    /// One decoded request from an authenticated client.
    fn handle_request(
        &mut self,
        client: ClientId,
        request: ClientRequest,
        now: Timestamp,
    ) -> Vec<Self::Effect>;

    /// The client's connection is gone (closed, or reaped).
    fn client_disconnected(&mut self, client: ClientId) -> Vec<Self::Effect>;

    /// Carries out one step's effects, in order, through `io`.
    fn execute(&mut self, effects: Vec<Self::Effect>, io: &mut Io);

    /// Publishes the facts only a snapshot needs (membership sizes,
    /// standby tails) into the health cells.
    fn refresh_health(&self, health: &HealthRegistry);

    /// How often [`Protocol::tick`] runs, right after the watchdog
    /// poll. `None`: no tick; the watchdogs are polled every 50 ms.
    fn tick_every(&self) -> Option<Duration> {
        None
    }

    /// Periodic work.
    fn tick(&mut self, _io: &mut Io) {}

    /// A frame body arrived on peer connection `conn_id` — the
    /// refcounted buffer the transport handed over, so that what is
    /// decoded from it can share it.
    fn peer_frame(&mut self, _conn_id: u64, _frame: &Bytes, _io: &mut Io) {}

    /// Peer connection `conn_id` closed and left the table.
    fn peer_closed(&mut self, _conn_id: u64, _io: &mut Io) {}
}

/// How often the watchdogs are polled when the protocol has no tick.
const WATCHDOG_POLL: Duration = Duration::from_millis(50);

/// Dispatcher-queue high-water mark: with this many commands not yet
/// handled the sink asks the transport to stop reading — TCP flow
/// control then throttles the peers — until fewer than half are left.
pub const SINK_QUEUE_HWM: usize = 8192;

/// Commands one [`Dispatcher::run_pending`] turn handles before it
/// returns for a new reading of the time, so that the tick deadline is
/// looked at inside a batch too: a batch can be [`SINK_QUEUE_HWM`] long.
const TICK_CHECK_STRIDE: usize = 64;

/// Commands a transport thread handles in one turn of the dispatcher
/// before it hands the rest to the dispatcher thread: the shard that
/// took the turn has sockets of its own to read, and a burst from one
/// connection must not keep the others on its event loop waiting.
pub const TRANSPORT_TURN_MAX: usize = 4 * TICK_CHECK_STRIDE;

/// The widest dirty set the dispatcher flushes by itself. Writing a
/// socket costs the dispatcher a few microseconds, waking a transport
/// thread to do it costs tens: up to a handful of connections (the
/// rule Redis keeps for its I/O threads: about two per event loop,
/// fixed when four shards were the default) the writes are cheaper
/// than the wake-ups they save; a wider fan-out is work worth
/// spreading, and the dispatcher has the next batch to sequence. Not
/// configurable: 4, 8 and 16 were compared on the repo benchmark.
pub const FLUSH_INLINE_MAX: usize = 8;

/// Dialled peer links are numbered from here, clear of listener ids.
const DIALLED_BASE: u64 = 1 << 48;

/// Which listener a connection came in on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plane {
    Client,
    Peer,
}

/// An admin query: any closure, run between two protocol steps.
type Query<P> = Box<dyn FnOnce(&mut P, &mut Io) + Send>;

enum Command<P> {
    Accepted(Plane, u64, Box<dyn Connection>),
    Frame(Plane, u64, Bytes),
    Closed(Plane, u64),
    Call(Query<P>),
}

/// Adapts the [`FrameSink`] calls of one listener (or of the dialled
/// peer links) onto the dispatcher command queue, waking nobody: the
/// transport thread turns the dispatcher itself once its pass is over
/// ([`FrameSink::on_drained`]). A closed queue drops what it is
/// offered: the kernel is shutting down.
struct Sink<P> {
    shared: Arc<Shared<P>>,
    plane: Plane,
    transport_metrics: TransportMetrics,
    send_queue_capacity: usize,
}

impl<P: Protocol> FrameSink for Sink<P> {
    fn on_accept(&self, conn_id: u64, conn: Box<dyn Connection>) {
        // Bounded per the configuration. Peer messages cannot be shed:
        // peer links keep the transport's own bound.
        if self.plane == Plane::Client {
            conn.set_send_capacity(self.send_queue_capacity);
        }
        let accepted = Command::Accepted(self.plane, conn_id, conn);
        self.shared.commands.push_unwoken(accepted);
    }

    fn on_frame(&self, conn_id: u64, frame: Bytes) -> bool {
        if self.plane == Plane::Client {
            self.transport_metrics.record_frame_in(frame.len());
        }
        let depth = self
            .shared
            .commands
            .push_unwoken(Command::Frame(self.plane, conn_id, frame));
        depth.is_none_or(|depth| depth < SINK_QUEUE_HWM)
    }

    fn ready_for_more(&self) -> bool {
        self.shared.commands.depth() < SINK_QUEUE_HWM / 2
    }

    fn on_closed(&self, conn_id: u64, _clean: bool) {
        let closed = Command::Closed(self.plane, conn_id);
        self.shared.commands.push_unwoken(closed);
    }

    fn on_drained(&self) {
        self.shared.turn_inline();
    }
}

struct ConnState {
    conn: Box<dyn Connection>,
    client: Option<ClientId>,
    /// Holds frames queued since the last flush: it is in `Io::dirty`.
    dirty: bool,
}

struct PeerLink {
    conn: Box<dyn Connection>,
    /// As [`ConnState::dirty`].
    dirty: bool,
}

/// The kernel's I/O half, lent to the [`Protocol`] during a step: the
/// connection table, the send path, the health plane and the peer
/// links. Stage histograms record microseconds.
pub struct Io {
    /// The metric registry shared by kernel, transports and protocol.
    pub registry: Arc<Registry>,
    /// The server's health registry.
    pub health: Arc<HealthRegistry>,
    /// Health-plane watchdogs: polled by the kernel, fed by protocols.
    pub watchdogs: Watchdogs,
    qos: QosPolicy,
    send_queue_capacity: usize,
    conns: HashMap<u64, ConnState>,
    client_conn: HashMap<ClientId, u64>,
    /// Connections closed by a failed undroppable send, awaiting their
    /// reap at the end of the current dispatcher step.
    dead: Vec<u64>,
    /// Connections holding frames queued since the last flush, each
    /// listed once (its `dirty` flag says so).
    dirty: Vec<(Plane, u64)>,
    peers: HashMap<u64, PeerLink>,
    peer_sink: Arc<dyn FrameSink>,
    dialled: u64,
    /// The time of the current dispatcher turn.
    now_ms: u64,
    /// The trace token of the client frame being handled, if any.
    trace: Option<TraceToken>,
    fanned: bool,
    fanout_traced: bool,
    conns_accepted: Arc<Counter>,
    conns_closed: Arc<Counter>,
    decode_errors: Arc<Counter>,
    /// Commands the dispatcher took off its queue in one drain: the
    /// latest (0 when it last woke to an empty queue), and all of them.
    queue_depth: Arc<Gauge>,
    queue_batch: Arc<Histogram>,
    transport_metrics: TransportMetrics,
    /// When (on the [`Io::now_ms`] clock), how often and for whom to
    /// print the next metrics dump, if configured.
    dump: Option<(u64, u64, String)>,
    stage_handle_us: Arc<Histogram>,
    stage_fanout_us: Arc<Histogram>,
    /// Multicast payload encodes — exactly one per group broadcast,
    /// however many recipients.
    fanout_encodes: Arc<Counter>,
    /// Payload bytes *not* re-encoded thanks to frame sharing:
    /// (recipients − 1) × frame length per broadcast.
    fanout_bytes_saved: Arc<Counter>,
    /// Connections reaped on send failure / queue overflow.
    dead_conn: Arc<Counter>,
    /// Events refused because they exceed the frame size limit.
    too_large: Arc<Counter>,
    /// Body size of each `Joined` frame, and the time to encode and
    /// checksum it: what a state transfer costs the dispatcher.
    join_transfer_bytes: Arc<Histogram>,
    join_frame_us: Arc<Histogram>,
    shed: Arc<Counter>,
    enqueues: Arc<Counter>,
    fanout_queue_depth: Arc<Histogram>,
    /// High-watermark of observed transmit-queue depths — unlike the
    /// instantaneous histogram, transient saturation between scrapes
    /// stays visible here.
    fanout_queue_hwm: Arc<Gauge>,
    /// Dirty connections per flush, and the flushes the dispatcher
    /// wrote itself.
    flush_conns: Arc<Histogram>,
    flush_inline: Arc<Counter>,
}

impl Io {
    /// Enqueues one event for `to`, if it is connected here.
    pub fn send(&mut self, to: ClientId, event: &ServerEvent) {
        if let Some(&conn_id) = self.client_conn.get(&to) {
            self.send_on(conn_id, event);
        }
    }

    fn send_on(&mut self, conn_id: u64, event: &ServerEvent) {
        let joined = matches!(event, ServerEvent::Joined { .. }).then(Instant::now);
        let frame = match encode_frame(event, None) {
            Ok(frame) => frame,
            Err(cause) => return self.refuse(conn_id, &cause),
        };
        if let Some(started) = joined {
            self.join_transfer_bytes.record(frame.body().len() as u64);
            self.join_frame_us.record_duration(started.elapsed());
        }
        let body_len = frame.body().len();
        let accepted = self.enqueue(conn_id, frame, classify(event), None);
        self.note_enqueued(u64::from(accepted), body_len, event);
    }

    /// Accounts the copies of one frame a send accepted, once for all
    /// of them: the `server.fanout.enqueues` and outbound transport
    /// counters, and a multicast's delivery progress in its group's
    /// health cell.
    fn note_enqueued(&mut self, accepted: u64, body_len: usize, event: &ServerEvent) {
        if accepted == 0 {
            return;
        }
        self.enqueues.add(accepted);
        self.transport_metrics.record_frames_out(accepted, body_len);
        if let ServerEvent::Multicast { group, logged } = event {
            self.health.group(*group).note_delivered(logged.seq.raw());
        }
    }

    /// Counts one message refused for exceeding the frame size limit
    /// and builds the error its requester gets in its place. Such a
    /// message is never sent: its receiver would answer the over-limit
    /// length by dropping the connection, reconnect, and ask again.
    /// Whatever the request changed stands — after a refused `Joined`
    /// the client is a member, and can ask for a narrower transfer
    /// with `GetState`, or leave.
    pub fn refusal(&mut self, cause: &CodecError) -> ServerEvent {
        self.too_large.inc();
        ServerEvent::Error {
            code: ErrorCode::TooLarge.to_wire(),
            detail: format!("reply not sent: {cause}"),
        }
    }

    fn refuse(&mut self, conn_id: u64, cause: &CodecError) {
        let event = self.refusal(cause);
        self.send_on(conn_id, &event);
    }

    /// Fans one event out to every recipient connected here, encoded
    /// and framed ONCE: each transmit queue gets a clone of the
    /// refcounted body and its computed header. The step's trace token
    /// is the same for every recipient, so the traced frame is shared
    /// too. `group` selects per-group shed accounting. What the
    /// recipients accepted is accounted once, not per recipient.
    pub fn multicast(
        &mut self,
        group: Option<GroupId>,
        recipients: &[ClientId],
        event: &ServerEvent,
    ) {
        if let (Some(t), false) = (self.trace, self.fanout_traced) {
            self.fanout_traced = true;
            // Stamped before the first frame can hit a transmit queue,
            // so a client's delivery timestamp never precedes it; the
            // arg carries the fan-out width.
            let width = recipients.len() as u64;
            record(Hop::FanoutEnqueue, TraceId(t.id), 0, width);
        }
        let frame = match encode_frame(event, self.trace) {
            Ok(frame) => frame,
            Err(cause) => {
                for to in recipients {
                    if let Some(&conn_id) = self.client_conn.get(to) {
                        self.refuse(conn_id, &cause);
                    }
                }
                return;
            }
        };
        self.fanout_encodes.inc();
        let class = classify(event);
        let body_len = frame.body().len();
        let (mut dispatched, mut accepted) = (0u64, 0u64);
        for to in recipients {
            let Some(&conn_id) = self.client_conn.get(to) else {
                continue;
            };
            dispatched += 1;
            accepted += u64::from(self.enqueue(conn_id, frame.clone(), class, group));
        }
        self.note_enqueued(accepted, body_len, event);
        if dispatched > 1 {
            self.fanout_bytes_saved
                .add((dispatched - 1) * body_len as u64);
        }
    }

    /// The enqueue site every outbound client frame passes: applies the
    /// QoS shed-vs-disconnect policy against the live backlog and keeps
    /// the per-connection accounting (queue depths, sheds, reaps).
    /// `true` if accepted: the caller accounts what was accepted
    /// ([`Io::note_enqueued`]).
    fn enqueue(
        &mut self,
        conn_id: u64,
        frame: Frame,
        class: EventClass,
        group: Option<GroupId>,
    ) -> bool {
        let Some(state) = self.conns.get_mut(&conn_id) else {
            return false;
        };
        self.fanned = true;
        // QoS-adaptive delivery (§5.3) against the *true* transmit
        // queue depth at enqueue time.
        let backlog = state.conn.backlog();
        self.fanout_queue_depth.record(backlog as u64);
        self.fanout_queue_hwm.set_max(backlog as i64);
        self.health.note_queue_depth(backlog as u64);
        let sent = if self.qos.should_deliver(class, backlog) {
            state.conn.queue_frame(frame)
        } else {
            Err(TransportError::Full)
        };
        match sent {
            Ok(()) => {
                if !std::mem::replace(&mut state.dirty, true) {
                    self.dirty.push((Plane::Client, conn_id));
                }
                return true;
            }
            // QoS said shed, or a bounded queue it did not relieve:
            // awareness traffic is dropped and counted.
            Err(TransportError::Full) if class == EventClass::Awareness => {
                self.shed.inc();
                if let Some(group) = group {
                    // Shedding is rare (only slow clients); the registry
                    // lock here is off the common path.
                    let name = format!("server.group.{group}.shed");
                    self.registry.counter(&name).inc();
                }
            }
            // The peer hung up first: an ordinary disconnect, which the
            // transport's own close report — already on its way — reaps.
            Err(TransportError::Closed) => {}
            // Data/control cannot be dropped (a gap desynchronises the
            // client's mirror), so a client too slow to accept it is
            // disconnected now, before a later frame of this step could
            // slip past the gap, and reaped once the step is done.
            Err(_) => {
                state.conn.close();
                self.dead.push(conn_id);
            }
        }
        false
    }

    /// Starts transmission on every connection that was queued on
    /// since the last flush: by this thread for a narrow set, by the
    /// transport's for a wide one.
    fn flush(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        self.flush_conns.record(self.dirty.len() as u64);
        let by = if self.dirty.len() <= FLUSH_INLINE_MAX {
            self.flush_inline.inc();
            FlushBy::Caller
        } else {
            FlushBy::Transport
        };
        for (plane, conn_id) in self.dirty.drain(..) {
            // One gone since (reaped, closed) has nothing to send.
            let found = match plane {
                Plane::Client => self
                    .conns
                    .get_mut(&conn_id)
                    .map(|s| (&mut s.dirty, &s.conn)),
                Plane::Peer => self
                    .peers
                    .get_mut(&conn_id)
                    .map(|l| (&mut l.dirty, &l.conn)),
            };
            if let Some((dirty, conn)) = found {
                *dirty = false;
                conn.flush(by);
            }
        }
    }

    /// Every client authenticated on this server, in id order.
    pub fn clients(&self) -> Vec<ClientId> {
        let mut clients: Vec<ClientId> = self.client_conn.keys().copied().collect();
        clients.sort_unstable();
        clients
    }

    /// Connections in the client table, authenticated or not.
    pub fn open_conns(&self) -> usize {
        self.conns.len()
    }

    /// The trace token of the client frame being handled, if any.
    pub fn trace(&self) -> Option<TraceToken> {
        self.trace
    }

    /// Milliseconds since the server started, as of this dispatcher
    /// turn — the one clock the watchdogs and protocol timers share. It
    /// is whatever the dispatcher's driver passed `run_pending`.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Takes a dialled connection into the peer table; its frames and
    /// close reach the peer hooks under this id, pushed by the
    /// transport's event loop.
    pub fn adopt_peer(&mut self, conn: Box<dyn Connection>) -> u64 {
        self.dialled += 1;
        let conn_id = DIALLED_BASE + self.dialled;
        conn.attach_sink(conn_id, Arc::clone(&self.peer_sink));
        let link = PeerLink { conn, dirty: false };
        self.peers.insert(conn_id, link);
        conn_id
    }

    /// Queues a frame on a peer link, to leave with the batch's flush;
    /// `false` if the link is gone or refused it.
    pub fn send_peer(&mut self, conn_id: u64, frame: Frame) -> bool {
        let Some(link) = self.peers.get_mut(&conn_id) else {
            return false;
        };
        if link.conn.queue_frame(frame).is_err() {
            return false;
        }
        if !std::mem::replace(&mut link.dirty, true) {
            self.dirty.push((Plane::Peer, conn_id));
        }
        true
    }

    /// Closes a peer link; [`Protocol::peer_closed`] follows once the
    /// transport reports it.
    pub fn close_peer(&mut self, conn_id: u64) {
        if let Some(link) = self.peers.get(&conn_id) {
            link.conn.close();
        }
    }

    fn close_conn(&self, conn_id: u64) {
        if let Some(state) = self.conns.get(&conn_id) {
            state.conn.close();
        }
    }
}

/// Builds the health snapshot: refreshes the facts the hot path does
/// not track (membership sizes, backpressure), renders the registry.
fn health_snapshot<P: Protocol>(proto: &P, io: &Io) -> String {
    proto.refresh_health(&io.health);
    let pressure: Vec<ConnPressure> = io
        .conns
        .iter()
        .map(|(id, state)| {
            let backlog = state.conn.backlog() as u64;
            ConnPressure {
                conn_id: *id,
                backlog,
                // Half the bounded queue is the pressure threshold:
                // past it, QoS shedding is already in play.
                backpressured: backlog * 2 >= io.send_queue_capacity as u64,
            }
        })
        .collect();
    io.health
        .snapshot_json(io.now_ms, &pressure, &io.watchdogs.stalled_groups())
}

/// The protocol, the I/O half and the command queue: all the
/// dispatcher is, less a thread. Whoever holds it in [`Shared::slot`]
/// and calls [`Dispatcher::run_pending`] is the dispatcher — a
/// transport thread or the dispatcher thread of a [`Kernel::start`],
/// or the owner of a [`Kernel::stepped`].
struct Dispatcher<P> {
    proto: P,
    io: Io,
    commands: Arc<Inbox<Command<P>>>,
    /// The batch in hand, next command last.
    batch: Vec<Command<P>>,
    /// Cleared by the drain that finds the queue closed.
    open: bool,
    tick_every_ms: u64,
    next_tick_ms: u64,
}

impl<P: Protocol> Dispatcher<P> {
    /// One turn at `now_ms`: the tick if it is due, then up to
    /// [`TICK_CHECK_STRIDE`] commands — of the batch in hand or, with
    /// none, of whatever has queued up since, swapped out without
    /// blocking — and, once a batch is done, the flush of what it
    /// queued. Returns how many commands it handled; with none, the
    /// next thing to happen is a push, or `next_tick_ms`.
    fn run_pending(&mut self, now_ms: u64) -> usize {
        self.io.now_ms = now_ms;
        self.tick_if_due();
        if self.batch.is_empty() {
            self.open = self.commands.drain_into(&mut self.batch);
            self.io.queue_depth.set(self.batch.len() as i64);
            if self.batch.is_empty() {
                return 0;
            }
            self.io.queue_batch.record(self.batch.len() as u64);
            self.batch.reverse();
        }
        let mut handled = 0;
        while handled < TICK_CHECK_STRIDE {
            let Some(cmd) = self.batch.pop() else { break };
            self.handle(cmd);
            handled += 1;
        }
        if self.batch.is_empty() {
            // What the batch queued leaves now, before the next one is
            // looked for — or slept for.
            self.io.flush();
        }
        handled
    }

    /// Turns until nothing is left, or until `budget` commands are
    /// handled; returns how many were.
    fn run_until_idle(&mut self, now_ms: impl Fn() -> u64, budget: usize) -> usize {
        let mut handled = 0;
        while handled < budget {
            match self.run_pending(now_ms()) {
                0 => break,
                n => handled += n,
            }
        }
        handled
    }

    /// Once `next_tick_ms` has passed: polls the watchdogs, runs the
    /// protocol's tick — flushing at once, so that a heartbeat sent
    /// from inside a long batch does not wait for the batch's end —
    /// and prints the metrics dump if one is due.
    fn tick_if_due(&mut self) {
        let now_ms = self.io.now_ms;
        if now_ms < self.next_tick_ms {
            return;
        }
        self.next_tick_ms = now_ms + self.tick_every_ms;
        for event in self.io.watchdogs.poll(&self.io.health, now_ms) {
            self.io.health.emit(event);
        }
        self.step(None, |proto, io| proto.tick(io));
        self.io.flush();
        if let Some((next_dump, every, addr)) = &mut self.io.dump {
            if now_ms >= *next_dump {
                *next_dump = now_ms + *every;
                let json = self.io.registry.snapshot().render_json();
                eprintln!("corona-metrics {addr} {json}");
            }
        }
    }

    fn handle(&mut self, cmd: Command<P>) {
        match cmd {
            Command::Accepted(Plane::Client, conn_id, conn) => {
                self.io.conns_accepted.inc();
                let state = ConnState {
                    conn,
                    client: None,
                    dirty: false,
                };
                self.io.conns.insert(conn_id, state);
            }
            Command::Accepted(Plane::Peer, conn_id, conn) => {
                let link = PeerLink { conn, dirty: false };
                self.io.peers.insert(conn_id, link);
            }
            Command::Frame(Plane::Client, conn_id, frame) => self.client_frame(conn_id, &frame),
            Command::Frame(Plane::Peer, conn_id, frame) => {
                self.step(None, |proto, io| proto.peer_frame(conn_id, &frame, io));
            }
            Command::Closed(Plane::Client, conn_id) => {
                if let Some(effects) = self.remove_conn(conn_id) {
                    self.execute(effects, None);
                }
            }
            Command::Closed(Plane::Peer, conn_id) => {
                if self.io.peers.remove(&conn_id).is_some() {
                    self.step(None, |proto, io| proto.peer_closed(conn_id, io));
                }
            }
            Command::Call(query) => self.step(None, |proto, io| query(proto, io)),
        }
    }

    /// Runs one protocol hook that sends through `io`, then reaps
    /// whatever its sends killed. `trace` is the step's trace token.
    fn step(&mut self, trace: Option<TraceToken>, hook: impl FnOnce(&mut P, &mut Io)) {
        self.io.trace = trace;
        self.io.fanned = false;
        self.io.fanout_traced = false;
        let started = Instant::now();
        hook(&mut self.proto, &mut self.io);
        if self.io.fanned {
            self.io.stage_fanout_us.record_duration(started.elapsed());
        }
        self.io.trace = None;
        self.reap_dead();
    }

    fn execute(&mut self, effects: Vec<P::Effect>, trace: Option<TraceToken>) {
        self.step(trace, |proto, io| proto.execute(effects, io));
    }

    /// Reaps every connection a failed undroppable send closed — in
    /// this same dispatcher step, not whenever its reader notices — so
    /// nothing keeps encoding and "delivering" to a corpse. The
    /// session-leave effects of a reap can themselves fail sends: their
    /// own step reaps those in turn.
    fn reap_dead(&mut self) {
        while let Some(conn_id) = self.io.dead.pop() {
            if let Some(effects) = self.remove_conn(conn_id) {
                self.io.dead_conn.inc();
                self.execute(effects, None);
            }
        }
    }

    /// Forgets a connection and returns its session-leave effects —
    /// membership notifications, lock handoffs. `None` if it was
    /// already gone: the transport's `Closed` and a send-failure reap
    /// may both name it, and the first one wins.
    fn remove_conn(&mut self, conn_id: u64) -> Option<Vec<P::Effect>> {
        let state = self.io.conns.remove(&conn_id)?;
        self.io.conns_closed.inc();
        Some(match state.client {
            Some(client) => {
                self.io.client_conn.remove(&client);
                self.proto.client_disconnected(client)
            }
            None => Vec::new(),
        })
    }

    fn client_frame(&mut self, conn_id: u64, frame: &Bytes) {
        let Ok((request, trace)) = decode_traced_frame::<ClientRequest>(frame) else {
            // Malformed frame: drop the connection (it may be
            // version-skewed or hostile).
            self.io.decode_errors.inc();
            self.io.close_conn(conn_id);
            return;
        };
        if let Some(t) = trace {
            record(Hop::ServerIngress, TraceId(t.id), 0, 0);
            self.io.health.note_trace(t.id);
        }
        if matches!(request, ClientRequest::GetHealth) {
            // Served by the kernel, not the protocol: the snapshot
            // needs the connection table and watchdog state. Answered
            // even before Hello so bare admin probes work.
            let event = ServerEvent::Health {
                schema: corona_health::SCHEMA_VERSION,
                json: health_snapshot(&self.proto, &self.io),
            };
            self.step(None, |_, io| io.send_on(conn_id, &event));
            return;
        }
        match &request {
            ClientRequest::Broadcast { group, .. } => {
                self.io.health.group(*group).note_submitted();
            }
            ClientRequest::Join { group, .. } => self.io.health.group(*group).note_join(),
            ClientRequest::Leave { group } => self.io.health.group(*group).note_leave(),
            _ => {}
        }
        let now = Timestamp::now();
        let handle_started = Instant::now();
        let effects = match self.io.conns.get(&conn_id).and_then(|s| s.client) {
            None => match request {
                ClientRequest::Hello {
                    display_name,
                    resume,
                    ..
                } => {
                    if resume.is_some() {
                        self.io.health.note_reconnect();
                        let now_ms = self.io.now_ms();
                        if let Some(event) = self.io.watchdogs.note_reconnect(now_ms) {
                            self.io.health.emit(event);
                        }
                    }
                    let (client, effects) = self.proto.client_hello(display_name, resume);
                    if let Some(state) = self.io.conns.get_mut(&conn_id) {
                        state.client = Some(client);
                    }
                    self.io.client_conn.insert(client, conn_id);
                    effects
                }
                _ => {
                    // First message must be Hello.
                    self.io.close_conn(conn_id);
                    return;
                }
            },
            Some(client) => {
                let goodbye = matches!(request, ClientRequest::Goodbye);
                let effects = self.proto.handle_request(client, request, now);
                if goodbye {
                    self.io.client_conn.remove(&client);
                    if let Some(state) = self.io.conns.get_mut(&conn_id) {
                        state.conn.close();
                        state.client = None;
                    }
                }
                effects
            }
        };
        let handled = handle_started.elapsed();
        self.io.stage_handle_us.record_duration(handled);
        let slo = self.io.health.slo();
        slo.record(handled.as_micros() as u64, self.io.now_ms());
        if let Some(t) = trace {
            record(Hop::Sequence, TraceId(t.id), handled.as_micros() as u64, 0);
        }
        self.execute(effects, trace);
    }
}

/// Closes every connection — clients, then peers, each in id order: a
/// close is an event at its peer, so the order must not depend on a
/// hash. One accepted from here on is dropped, and so closed, by the
/// queue.
impl<P> Drop for Dispatcher<P> {
    fn drop(&mut self) {
        let clients = self.io.conns.iter().map(|(id, state)| (*id, &state.conn));
        let peers = self.io.peers.iter().map(|(id, link)| (*id, &link.conn));
        for mut table in [clients.collect::<Vec<_>>(), peers.collect()] {
            table.sort_unstable_by_key(|(id, _)| *id);
            table.iter().for_each(|(_, conn)| conn.close());
        }
    }
}

/// Spawns a named runtime thread.
pub(crate) fn spawn(name: String, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .expect("spawn server thread")
}

/// The dispatcher's one home, shared by the kernel handle, its sinks
/// and its dispatcher thread. Whoever holds `slot` is the dispatcher.
struct Shared<P> {
    /// Emptied at shutdown, which closes every connection — and with
    /// them the links back to here from the sinks they hold.
    slot: Mutex<Option<Dispatcher<P>>>,
    /// The dispatcher's command queue; closing it ends the dispatcher.
    commands: Arc<Inbox<Command<P>>>,
    /// What a started kernel's clock counts from. `None` on a stepped
    /// kernel: its owner turns it, at the time it says it is.
    started: Option<Instant>,
    /// `server.dispatch.turns_inline` / `.turns_thread`: turns that
    /// handled commands, taken by transport threads and by the
    /// dispatcher thread; `.handoffs`: transport turns that reached
    /// [`TRANSPORT_TURN_MAX`] and woke the dispatcher thread for the
    /// rest.
    turns_inline: Arc<Counter>,
    turns_thread: Arc<Counter>,
    handoffs: Arc<Counter>,
}

impl<P: Protocol> Shared<P> {
    fn now_ms(started: Instant) -> u64 {
        started.elapsed().as_millis() as u64
    }

    /// A transport thread's turn, at the end of its poll pass: runs the
    /// dispatcher here if no other thread is, until nothing is queued
    /// or [`TRANSPORT_TURN_MAX`] commands are handled — then wakes the
    /// dispatcher thread for what is left. A push that finds the lock
    /// taken leaves its command to the holder, so the holder looks at
    /// the queue again once it has let go.
    fn turn_inline(&self) {
        let Some(started) = self.started else {
            return;
        };
        let mut budget = TRANSPORT_TURN_MAX;
        loop {
            let mut slot = match self.slot.try_lock() {
                Ok(slot) => slot,
                Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
                Err(TryLockError::WouldBlock) => return,
            };
            let Some(dispatcher) = slot.as_mut() else {
                return;
            };
            let handled = dispatcher.run_until_idle(|| Self::now_ms(started), budget);
            if handled > 0 {
                self.turns_inline.inc();
            }
            budget = budget.saturating_sub(handled);
            let unfinished = !dispatcher.batch.is_empty();
            drop(slot);
            if budget == 0 && (unfinished || self.commands.has_pending()) {
                self.handoffs.inc();
                self.commands.wake();
                return;
            }
            if !self.commands.has_pending() {
                return;
            }
        }
    }

    /// The dispatcher thread of a started kernel: takes a turn whenever
    /// it is woken — by a call, a hand-off or close — or the tick is
    /// due, and sleeps until one of them. Ends once the queue is closed
    /// and drained.
    fn run_thread(&self, started: Instant) {
        loop {
            let next_tick = {
                let mut slot = lock(&self.slot);
                let Some(dispatcher) = slot.as_mut() else {
                    return;
                };
                if dispatcher.run_until_idle(|| Self::now_ms(started), usize::MAX) > 0 {
                    self.turns_thread.inc();
                }
                if !dispatcher.open {
                    return;
                }
                started + Duration::from_millis(dispatcher.next_tick_ms)
            };
            self.commands.park(Some(next_tick));
        }
    }
}

/// A kernel: the handle a server type wraps. Dropping it shuts the
/// kernel down.
pub struct Kernel<P> {
    /// The metric registry shared by kernel, transports and protocol.
    /// Live handle — snapshots taken here race the dispatcher.
    pub registry: Arc<Registry>,
    /// The live health registry (watchdog trips, per-group cells).
    pub health: Arc<HealthRegistry>,
    shared: Arc<Shared<P>>,
    listeners: Vec<Box<dyn Listener>>,
    /// A started kernel's dispatcher thread.
    dispatcher_thread: Option<JoinHandle<()>>,
    /// Joined at shutdown once the protocol is dropped: whatever
    /// [`Kernel::join_after`] added.
    threads: Vec<JoinHandle<()>>,
}

impl<P: Protocol> Kernel<P> {
    /// Starts the dispatcher thread around `proto` and begins serving
    /// `client_listener` and, for a protocol with a peer plane,
    /// `peer_listener`. `name` prefixes the thread's name; `config`
    /// supplies the QoS policy, queue bound, SLO, watchdog thresholds
    /// and metrics-dump interval.
    ///
    /// # Errors
    ///
    /// [`CoronaError::InvalidState`] if a listener is already serving,
    /// or shut down.
    pub fn start(
        name: &str,
        config: &ServerConfig,
        registry: Arc<Registry>,
        proto: P,
        client_listener: Box<dyn Listener>,
        peer_listener: Option<Box<dyn Listener>>,
    ) -> Result<Kernel<P>> {
        let started = Instant::now();
        let mut kernel = Self::assemble(
            config,
            registry,
            proto,
            client_listener,
            peer_listener,
            Some(started),
        )?;
        let shared = Arc::clone(&kernel.shared);
        let dispatch = spawn(format!("{name}-dispatcher"), move || {
            shared.run_thread(started);
        });
        kernel.dispatcher_thread = Some(dispatch);
        Ok(kernel)
    }

    /// [`Kernel::start`] without a thread, and with sinks that never
    /// turn the dispatcher: the same dispatcher, turned by whoever
    /// calls [`Kernel::run_pending`] at whatever time that caller says
    /// it is.
    ///
    /// # Errors
    ///
    /// As [`Kernel::start`].
    pub fn stepped(
        config: &ServerConfig,
        registry: Arc<Registry>,
        proto: P,
        client_listener: Box<dyn Listener>,
        peer_listener: Option<Box<dyn Listener>>,
    ) -> Result<Kernel<P>> {
        Self::assemble(
            config,
            registry,
            proto,
            client_listener,
            peer_listener,
            None,
        )
    }

    /// What both constructors share: the handle, with the dispatcher in
    /// its slot and every listener pushing into the dispatcher's queue.
    /// `started`: when the clock of a started kernel began.
    fn assemble(
        config: &ServerConfig,
        registry: Arc<Registry>,
        proto: P,
        client_listener: Box<dyn Listener>,
        peer_listener: Option<Box<dyn Listener>>,
        started: Option<Instant>,
    ) -> Result<Kernel<P>> {
        let health = HealthRegistry::new(config.slo);
        health.set_queue_capacity(config.send_queue_capacity as u64);
        let commands = Arc::new(Inbox::<Command<P>>::parked());
        let shared = Arc::new(Shared {
            slot: Mutex::new(None),
            commands: Arc::clone(&commands),
            started,
            turns_inline: registry.counter("server.dispatch.turns_inline"),
            turns_thread: registry.counter("server.dispatch.turns_thread"),
            handoffs: registry.counter("server.dispatch.handoffs"),
        });
        let transport_metrics = TransportMetrics::new(&registry);
        let sink = |plane| -> Arc<dyn FrameSink> {
            Arc::new(Sink {
                shared: Arc::clone(&shared),
                plane,
                transport_metrics: transport_metrics.clone(),
                send_queue_capacity: config.send_queue_capacity,
            })
        };
        let io = Io {
            registry: Arc::clone(&registry),
            health: Arc::clone(&health),
            watchdogs: Watchdogs::new(config.watchdog),
            qos: config.qos,
            send_queue_capacity: config.send_queue_capacity,
            conns: HashMap::new(),
            client_conn: HashMap::new(),
            dead: Vec::new(),
            dirty: Vec::new(),
            peers: HashMap::new(),
            peer_sink: sink(Plane::Peer),
            dialled: 0,
            now_ms: 0,
            trace: None,
            fanned: false,
            fanout_traced: false,
            conns_accepted: registry.counter("server.conns.accepted"),
            conns_closed: registry.counter("server.conns.closed"),
            decode_errors: registry.counter("server.decode_errors"),
            queue_depth: registry.gauge("server.queue.depth"),
            queue_batch: registry.histogram("server.queue.batch"),
            transport_metrics: transport_metrics.clone(),
            dump: config.metrics_dump_interval.map(|every| {
                let every = every.as_millis() as u64;
                (every, every, client_listener.local_addr())
            }),
            stage_handle_us: registry.histogram("server.stage.handle_us"),
            stage_fanout_us: registry.histogram("server.stage.fanout_us"),
            fanout_encodes: registry.counter("server.fanout.encodes"),
            fanout_bytes_saved: registry.counter("server.fanout.bytes_saved"),
            dead_conn: registry.counter("server.fanout.dead_conn"),
            too_large: registry.counter("server.send.too_large"),
            join_transfer_bytes: registry.histogram("server.join.transfer_bytes"),
            join_frame_us: registry.histogram("server.join.frame_us"),
            shed: registry.counter("server.shed"),
            enqueues: registry.counter("server.fanout.enqueues"),
            fanout_queue_depth: registry.histogram("server.fanout.queue_depth"),
            fanout_queue_hwm: registry.gauge("server.fanout.queue_hwm"),
            flush_conns: registry.histogram("server.fanout.flush_conns"),
            flush_inline: registry.counter("server.fanout.flush_inline"),
        };
        let tick_every = proto.tick_every().unwrap_or(WATCHDOG_POLL);
        let tick_every_ms = (tick_every.as_millis() as u64).max(1);
        *lock(&shared.slot) = Some(Dispatcher {
            proto,
            io,
            commands,
            batch: Vec::new(),
            open: true,
            tick_every_ms,
            next_tick_ms: tick_every_ms,
        });
        let planes = std::iter::once((client_listener, Plane::Client))
            .chain(peer_listener.map(|listener| (listener, Plane::Peer)));
        let mut kernel = Kernel {
            registry,
            health,
            shared: Arc::clone(&shared),
            listeners: Vec::new(),
            dispatcher_thread: None,
            threads: Vec::new(),
        };
        for (listener, plane) in planes {
            if !listener.attach_sink(sink(plane)) {
                let addr = listener.local_addr();
                return Err(CoronaError::InvalidState(format!(
                    "the listener at {addr} is already serving, or shut down"
                )));
            }
            kernel.listeners.push(listener);
        }
        Ok(kernel)
    }

    /// One turn of a [`Kernel::stepped`] dispatcher at `now_ms`,
    /// milliseconds since the server started: the protocol's tick if
    /// it is due, then a bounded number of the commands the transports
    /// have queued. `true` if any were handled — call again before
    /// time moves; after `false` the next thing to happen here is an
    /// arriving frame, or [`Kernel::next_tick_ms`].
    ///
    /// # Panics
    ///
    /// Panics on a kernel that was [started](Kernel::start): its
    /// transport threads and its dispatcher thread turn it, on their
    /// own clock.
    pub fn run_pending(&self, now_ms: u64) -> bool {
        self.with_stepped(|dispatcher| dispatcher.run_pending(now_ms) > 0)
    }

    /// When a [`Kernel::stepped`] dispatcher's next tick is due.
    ///
    /// # Panics
    ///
    /// As [`Kernel::run_pending`].
    pub fn next_tick_ms(&self) -> u64 {
        self.with_stepped(|dispatcher| dispatcher.next_tick_ms)
    }

    /// Runs `f` on the dispatcher of a [`Kernel::stepped`].
    fn with_stepped<R>(&self, f: impl FnOnce(&mut Dispatcher<P>) -> R) -> R {
        assert!(self.shared.started.is_none(), "kernel is not stepped");
        f(lock(&self.shared.slot).as_mut().expect("kernel is open"))
    }

    /// Runs `query` on the dispatcher, between two protocol steps, so
    /// everything it reads is mutually consistent: as a command, which
    /// wakes the dispatcher thread (the caller's thread never turns the
    /// dispatcher), or at once on a stepped kernel.
    ///
    /// # Errors
    ///
    /// [`CoronaError::Closed`] if the kernel has shut down, or its
    /// dispatcher is wedged (no answer within five seconds).
    pub fn call<R: Send + 'static>(
        &self,
        query: impl FnOnce(&mut P, &mut Io) -> R + Send + 'static,
    ) -> Result<R> {
        if self.shared.started.is_none() {
            return Ok(
                self.with_stepped(|dispatcher| query(&mut dispatcher.proto, &mut dispatcher.io))
            );
        }
        let (tx, rx) = mpsc::channel();
        let query = move |proto: &mut P, io: &mut Io| {
            let _ = tx.send(query(proto, io));
        };
        self.shared
            .commands
            .push(Command::Call(Box::new(query)))
            .ok_or(CoronaError::Closed)?;
        rx.recv_timeout(Duration::from_secs(5))
            .map_err(|_| CoronaError::Closed)
    }

    /// Has shutdown also join `thread` — one that ends once the
    /// protocol is dropped, like a logger fed by it.
    pub fn join_after(&mut self, thread: JoinHandle<()>) {
        self.threads.push(thread);
    }

    /// The health-plane snapshot as one versioned JSON object (the
    /// payload `GetHealth` serves on the wire).
    ///
    /// # Errors
    ///
    /// [`CoronaError::Closed`] if the kernel has shut down.
    pub fn health_json(&self) -> Result<String> {
        self.call(|proto, io| health_snapshot(proto, io))
    }
}

impl<P> std::fmt::Debug for Kernel<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let addrs: Vec<String> = self.listeners.iter().map(|l| l.local_addr()).collect();
        f.debug_struct("Kernel").field("listeners", &addrs).finish()
    }
}

/// Orderly shutdown: stop accepting, let the dispatcher drain what
/// was queued, close every connection (which drops the protocol), join
/// every thread.
impl<P> Drop for Kernel<P> {
    fn drop(&mut self) {
        for listener in &self.listeners {
            listener.shutdown();
        }
        self.shared.commands.close();
        if let Some(thread) = self.dispatcher_thread.take() {
            let _ = thread.join();
        }
        let dispatcher = lock(&self.shared.slot).take();
        drop(dispatcher);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corona_types::id::ServerId;
    use std::sync::{Barrier, OnceLock};

    /// A protocol with nothing to do: the commands under test are
    /// frames that fail to decode, each counted as a decode error.
    struct Idle;

    impl Protocol for Idle {
        type Effect = ();
        fn client_hello(&mut self, _: String, _: Option<ClientId>) -> (ClientId, Vec<()>) {
            (ClientId::new(1), Vec::new())
        }
        fn handle_request(&mut self, _: ClientId, _: ClientRequest, _: Timestamp) -> Vec<()> {
            Vec::new()
        }
        fn client_disconnected(&mut self, _: ClientId) -> Vec<()> {
            Vec::new()
        }
        fn execute(&mut self, _: Vec<()>, _: &mut Io) {}
        fn refresh_health(&self, _: &HealthRegistry) {}
    }

    /// A listener that hands its sink to the test, which plays the
    /// transport.
    #[derive(Clone, Default)]
    struct Handover(Arc<OnceLock<Arc<dyn FrameSink>>>);

    impl Listener for Handover {
        fn local_addr(&self) -> String {
            "handover".into()
        }
        fn shutdown(&self) {}
        fn attach_sink(&self, sink: Arc<dyn FrameSink>) -> bool {
            self.0.set(sink).is_ok()
        }
    }

    /// Transport threads push at once and end their passes at once, with
    /// no dispatcher thread to fall back on: whichever takes the turn,
    /// everything pushed before the last pass ended is handled by the
    /// time it has — a push that found the dispatcher taken is picked up
    /// by the thread that held it.
    #[test]
    fn no_push_is_left_waiting_once_every_pass_has_ended() {
        const THREADS: usize = 4;
        const ROUNDS: u64 = 20_000;
        let config = ServerConfig::stateful(ServerId::new(1));
        let registry = Registry::new();
        let listener = Handover::default();
        let started = Some(Instant::now());
        let kernel = Kernel::assemble(
            &config,
            Arc::clone(&registry),
            Idle,
            Box::new(listener.clone()),
            None,
            started,
        )
        .unwrap();
        let sink = listener.0.get().expect("attached");
        let handled = registry.counter("server.decode_errors");
        let lockstep = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for round in 1..=ROUNDS {
                        lockstep.wait();
                        sink.on_frame(1, Bytes::new());
                        sink.on_drained();
                        lockstep.wait();
                        assert_eq!(handled.get(), round * THREADS as u64, "round {round}");
                        lockstep.wait();
                    }
                });
            }
        });
        let turns = registry.counter("server.dispatch.turns_inline").get();
        assert!(
            (ROUNDS..=ROUNDS * THREADS as u64).contains(&turns),
            "{turns} turns"
        );
        drop(kernel);
    }
}
