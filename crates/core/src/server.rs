//! The Corona server runtime.
//!
//! Thread structure (the multi-threaded design of §5.1, modernised):
//!
//! * **transport threads** — either the push-mode path (default): a
//!   listener with an attached [`FrameSink`] accepts connections and
//!   decodes frames on O(shards) reactor event loops, feeding the
//!   dispatcher directly with no per-connection threads; or the
//!   pull-mode fallback: an accept thread that spawns a reader thread
//!   per connection (the original thread-per-connection structure).
//!   Either way per-connection frame order is preserved, giving
//!   sender-FIFO;
//! * **dispatcher thread** — owns the [`ServerCore`] state machine;
//!   processing commands one at a time yields the per-group total
//!   order;
//! * **logger thread** — executes [`LogEffect`]s against stable
//!   storage, *in parallel with* the multicast fan-out ("state logging
//!   ... is not in the critical path", §6). The
//!   [`ServerConfig::log_on_critical_path`] ablation switch moves this
//!   work inline into the dispatcher instead.
//!
//! A group broadcast arrives at the dispatcher as one
//! [`Effect::Multicast`]; the payload is encoded *and framed* **once**
//! into a shared [`Frame`] and the dispatcher pushes a clone of the
//! handle — not the bytes, not a fresh checksum — straight onto every
//! recipient's transmit queue ([`Connection::send_frame`] never
//! blocks). One enqueuing thread means per-connection FIFO holds by
//! construction. Transmit queues are bounded: a send that would exceed
//! the cap fails with an explicit `Full`, which the enqueue site turns
//! into shedding (awareness traffic) or disconnection (a client too
//! slow to take data would desynchronise anyway), so a slow client can
//! never OOM the server.

use crate::config::{ServerConfig, TransportKind};
use crate::core::{Effect, LogEffect, ServerCore};
use crate::qos::{classify, EventClass, QosPolicy};
use corona_health::{ConnPressure, HealthRegistry, Watchdogs};
use corona_metrics::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use corona_statelog::{GroupStore, StableStore};
use corona_transport::{
    Connection, FrameSink, Listener, MeteredConnection, ReactorListener, TcpAcceptor,
    TransportError, TransportMetrics,
};
use corona_types::error::{CoronaError, Result};
use corona_types::frame::Frame;
use corona_types::id::{ClientId, GroupId};
use corona_types::message::{ClientRequest, ServerEvent};
use corona_types::state::Timestamp;
use corona_types::wire::{decode_traced, encode_traced, Encode, TraceToken};
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A point-in-time statistics snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Client broadcasts accepted and sequenced.
    pub broadcasts: u64,
    /// Multicast events fanned out (one per receiving member).
    pub deliveries: u64,
    /// Joins served.
    pub joins: u64,
    /// Log reductions performed.
    pub reductions: u64,
    /// Events shed by the QoS-adaptive delivery policy (§5.3).
    pub shed: u64,
    /// Transport connections accepted since start.
    pub conns_accepted: u64,
    /// Transport connections closed since start.
    pub conns_closed: u64,
    /// Inbound frames dropped because they failed to decode.
    pub decode_errors: u64,
    /// Connections reaped because an outbound send failed or the
    /// bounded transmit queue overflowed on undroppable traffic.
    pub dead_conns: u64,
    /// Connections currently tracked by the dispatcher.
    pub open_conns: usize,
    /// Live groups.
    pub groups: usize,
    /// Known clients (connected or resumable).
    pub clients: usize,
    /// Milliseconds the server has been up. Together with
    /// `snapshot_seq` this lets scrapers detect restarts.
    pub uptime_ms: u64,
    /// Monotonic snapshot sequence number (first snapshot is 1).
    /// A scraper seeing a gap knows it dropped samples; seeing it
    /// reset knows the server restarted.
    pub snapshot_seq: u64,
}

impl ServerStats {
    /// Renders the stats as one JSON object (the `Stats` admin JSON).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"uptime_ms\":{},\"snapshot_seq\":{},\"broadcasts\":{},\"deliveries\":{},\
             \"joins\":{},\"reductions\":{},\"shed\":{},\"conns_accepted\":{},\
             \"conns_closed\":{},\"decode_errors\":{},\"dead_conns\":{},\"open_conns\":{},\
             \"groups\":{},\"clients\":{}}}",
            self.uptime_ms,
            self.snapshot_seq,
            self.broadcasts,
            self.deliveries,
            self.joins,
            self.reductions,
            self.shed,
            self.conns_accepted,
            self.conns_closed,
            self.decode_errors,
            self.dead_conns,
            self.open_conns,
            self.groups,
            self.clients
        )
    }
}

enum Command {
    Accepted {
        conn_id: u64,
        conn: Arc<Box<dyn Connection>>,
    },
    Frame {
        conn_id: u64,
        frame: bytes::Bytes,
    },
    Closed {
        conn_id: u64,
    },
    Stats(Sender<ServerStats>),
    Metrics(Sender<MetricsSnapshot>),
    /// Admin request for the health-plane snapshot (also served on the
    /// wire via `ClientRequest::GetHealth`).
    Health(Sender<String>),
    Shutdown,
}

/// Runtime-level metric handles, resolved once from the server's
/// shared registry. Stage histograms record microseconds.
struct ServerMetrics {
    registry: Arc<Registry>,
    conns_accepted: Arc<Counter>,
    conns_closed: Arc<Counter>,
    decode_errors: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    stage_handle_us: Arc<Histogram>,
    stage_fanout_us: Arc<Histogram>,
    stage_log_us: Arc<Histogram>,
    /// Multicast payload encodes — exactly one per group broadcast,
    /// however many recipients (the whole point of [`Effect::Multicast`]).
    fanout_encodes: Arc<Counter>,
    /// Payload bytes *not* re-encoded thanks to frame sharing:
    /// (recipients − 1) × frame length per broadcast.
    fanout_bytes_saved: Arc<Counter>,
    /// Connections reaped on send failure / queue overflow.
    dead_conn: Arc<Counter>,
}

impl ServerMetrics {
    fn new(registry: Arc<Registry>) -> Self {
        ServerMetrics {
            conns_accepted: registry.counter("server.conns.accepted"),
            conns_closed: registry.counter("server.conns.closed"),
            decode_errors: registry.counter("server.decode_errors"),
            queue_depth: registry.gauge("server.queue.depth"),
            stage_handle_us: registry.histogram("server.stage.handle_us"),
            stage_fanout_us: registry.histogram("server.stage.fanout_us"),
            stage_log_us: registry.histogram("server.stage.log_us"),
            fanout_encodes: registry.counter("server.fanout.encodes"),
            fanout_bytes_saved: registry.counter("server.fanout.bytes_saved"),
            dead_conn: registry.counter("server.fanout.dead_conn"),
            registry,
        }
    }
}

/// The enqueue site: every outbound client frame passes through
/// [`Fanout::enqueue`], which applies the QoS shed-vs-disconnect
/// policy against the live transmit backlog and keeps the
/// `server.fanout.*` / health accounting.
struct Fanout {
    qos: QosPolicy,
    registry: Arc<Registry>,
    shed: Arc<Counter>,
    enqueues: Arc<Counter>,
    queue_depth: Arc<Histogram>,
    /// High-watermark of observed transmit-queue depths — unlike the
    /// instantaneous histogram, transient saturation between scrapes
    /// stays visible here.
    queue_hwm: Arc<Gauge>,
    health: Arc<HealthRegistry>,
    /// Connections closed by a failed undroppable send, awaiting their
    /// reap at the end of the current effects batch.
    dead: Vec<u64>,
}

impl Fanout {
    fn new(qos: QosPolicy, registry: &Arc<Registry>, health: &Arc<HealthRegistry>) -> Self {
        Fanout {
            qos,
            shed: registry.counter("server.shed"),
            enqueues: registry.counter("server.fanout.enqueues"),
            queue_depth: registry.histogram("server.fanout.queue_depth"),
            queue_hwm: registry.gauge("server.fanout.queue_hwm"),
            registry: Arc::clone(registry),
            health: Arc::clone(health),
            dead: Vec::new(),
        }
    }

    fn note_shed(&self, group: Option<GroupId>) {
        self.shed.inc();
        if let Some(group) = group {
            // Shedding is rare (only slow clients); the registry lock
            // here is off the common path.
            self.registry
                .counter(&format!("server.group.{group}.shed"))
                .inc();
        }
    }

    /// Pushes `frame` onto `conn`'s transmit queue; `true` if it was
    /// accepted. `group` is `Some` for multicast fan-out (per-group
    /// shed accounting).
    fn enqueue(
        &mut self,
        conn_id: u64,
        conn: &dyn Connection,
        frame: Frame,
        class: EventClass,
        group: Option<GroupId>,
    ) -> bool {
        // QoS-adaptive delivery (§5.3) against the *true* transmit
        // queue depth at enqueue time.
        let backlog = conn.backlog();
        self.queue_depth.record(backlog as u64);
        self.queue_hwm.set_max(backlog as i64);
        self.health.note_queue_depth(backlog as u64);
        if !self.qos.should_deliver(class, backlog) {
            self.note_shed(group);
            return false;
        }
        match conn.send_frame(frame) {
            Ok(()) => {
                self.enqueues.inc();
                return true;
            }
            // A bounded queue that QoS did not relieve: awareness
            // traffic is shed.
            Err(TransportError::Full) if class == EventClass::Awareness => self.note_shed(group),
            // Data/control cannot be dropped (a gap desynchronises the
            // client's mirror), so a client too slow to accept it — or
            // already dead — is disconnected now, before a later frame
            // of this batch could slip past the gap, and reaped once
            // the batch is done.
            Err(_) => {
                conn.close();
                self.dead.push(conn_id);
            }
        }
        false
    }
}

struct ConnState {
    conn: Arc<Box<dyn Connection>>,
    client: Option<ClientId>,
}

/// Executes log effects against a [`StableStore`].
struct LoggerState {
    store: StableStore,
    handles: HashMap<GroupId, GroupStore>,
}

impl LoggerState {
    fn apply(&mut self, effect: LogEffect) {
        // Stable-storage failures must not take down the service; the
        // paper accepts losing the newest unsynced updates (§6). A
        // production system would surface these through telemetry.
        let result: std::io::Result<()> = match effect {
            LogEffect::CreateGroup {
                group,
                persistence,
                initial,
            } => self
                .store
                .create_group(group, persistence, &initial)
                .map(|h| {
                    self.handles.insert(group, h);
                }),
            LogEffect::Append { group, update } => match self.handles.get_mut(&group) {
                Some(h) => h.append_update(&update),
                None => Ok(()),
            },
            LogEffect::Checkpoint {
                group,
                persistence,
                through,
                state,
                suffix,
            } => match self.handles.get_mut(&group) {
                Some(h) => h.write_checkpoint(persistence, through, &state, &suffix),
                None => Ok(()),
            },
            LogEffect::DeleteGroup { group } => {
                self.handles.remove(&group);
                self.store.delete_group(group)
            }
        };
        if let Err(e) = result {
            eprintln!("corona-server: stable storage error (continuing): {e}");
        }
    }

    fn sync_all(&mut self) {
        for handle in self.handles.values_mut() {
            let _ = handle.sync();
        }
    }
}

/// A running Corona server.
///
/// Dropping the handle shuts the server down; prefer
/// [`CoronaServer::shutdown`] for an orderly stop that syncs stable
/// storage.
pub struct CoronaServer {
    addr: String,
    cmd_tx: Sender<Command>,
    dispatcher: Option<JoinHandle<()>>,
    accept: Option<JoinHandle<()>>,
    logger: Option<JoinHandle<()>>,
    listener: Arc<Box<dyn Listener>>,
    registry: Arc<Registry>,
    health: Arc<HealthRegistry>,
    dump_stop: Option<Sender<()>>,
    dump: Option<JoinHandle<()>>,
}

impl CoronaServer {
    /// Starts a server on an already-bound listener.
    ///
    /// If the configuration names a storage directory, every group
    /// found there is recovered (checkpoint + log replay) before the
    /// first connection is accepted — this is how a persistent group's
    /// state survives server restarts.
    ///
    /// # Errors
    ///
    /// Storage open/recovery failures.
    pub fn start(listener: Box<dyn Listener>, config: ServerConfig) -> Result<CoronaServer> {
        Self::start_with_registry(listener, config, Registry::new())
    }

    /// Binds a TCP listener on `addr` per the configuration's
    /// [`ServerConfig::transport`] selection — sharded reactor event
    /// loops by default, classic thread-per-connection when
    /// [`TransportKind::Threaded`] is chosen — and starts the server
    /// on it. The reactor's `server.reactor.*` metrics land in the
    /// server's own registry.
    ///
    /// # Errors
    ///
    /// Bind failures, and everything [`CoronaServer::start`] reports.
    pub fn bind(addr: &str, config: ServerConfig) -> Result<CoronaServer> {
        let registry = Registry::new();
        let listener: Box<dyn Listener> = match config.transport {
            TransportKind::Threaded => Box::new(TcpAcceptor::bind(addr).map_err(transport_to_io)?),
            TransportKind::Reactor => Box::new(
                ReactorListener::bind_with_registry(addr, config.reactor_shards, Some(&registry))
                    .map_err(transport_to_io)?,
            ),
        };
        Self::start_with_registry(listener, config, registry)
    }

    fn start_with_registry(
        listener: Box<dyn Listener>,
        config: ServerConfig,
        registry: Arc<Registry>,
    ) -> Result<CoronaServer> {
        let addr = listener.local_addr();
        let health = HealthRegistry::new(config.slo);
        health.set_queue_capacity(config.send_queue_capacity as u64);
        let mut core = ServerCore::with_registry(&config, Arc::clone(&registry));

        // Recover persistent groups before serving.
        let mut logger_state = match &config.storage_dir {
            Some(dir) => {
                let store = StableStore::open(dir, config.sync_policy)?.with_metrics(&registry);
                let mut handles = HashMap::new();
                for group in store.list_groups()? {
                    if let Some((recovered, handle)) = store.recover_group(group)? {
                        core.install_recovered(recovered.persistence, recovered.log);
                        handles.insert(group, handle);
                    }
                }
                Some(LoggerState { store, handles })
            }
            None => None,
        };

        let (cmd_tx, cmd_rx) = channel::unbounded::<Command>();

        // Logger thread (unless the ablation forces inline logging).
        let (log_tx, logger_handle) = match (logger_state.take(), config.log_on_critical_path) {
            (Some(state), false) => {
                let (tx, rx) = channel::unbounded::<LogEffect>();
                let handle = std::thread::Builder::new()
                    .name("corona-logger".into())
                    .spawn(move || logger_loop(state, rx))
                    .expect("spawn logger thread");
                (LogSink::Thread(tx), Some(handle))
            }
            (Some(state), true) => (LogSink::Inline(state), None),
            (None, _) => (LogSink::Disabled, None),
        };

        let dispatcher = {
            let dispatcher = Dispatcher {
                metrics: ServerMetrics::new(Arc::clone(&registry)),
                fanout: Fanout::new(config.qos, &registry, &health),
                core,
                log: log_tx,
                health: Arc::clone(&health),
                watchdogs: Watchdogs::new(config.watchdog),
                send_queue_capacity: config.send_queue_capacity,
                conns: HashMap::new(),
                client_conn: HashMap::new(),
            };
            std::thread::Builder::new()
                .name("corona-dispatcher".into())
                .spawn(move || dispatcher.run(cmd_rx))
                .expect("spawn dispatcher thread")
        };

        // Accept side. Push-mode transports (the sharded reactor) take
        // a FrameSink and own accepting + reading entirely — the
        // server spawns no per-connection threads at all. Pull-mode
        // transports fall back to the accept thread + reader-thread-
        // per-connection structure. Both paths wrap connections in
        // [`MeteredConnection`] (traffic accounted in the shared
        // registry) and bound their transmit queues per the
        // configuration.
        let listener: Arc<Box<dyn Listener>> = Arc::new(listener);
        let send_queue_capacity = config.send_queue_capacity;
        let transport_metrics = TransportMetrics::new(&registry);
        let sink: Arc<dyn FrameSink> = Arc::new(ServerSink {
            cmd_tx: cmd_tx.clone(),
            transport_metrics: transport_metrics.clone(),
            send_queue_capacity,
        });
        let accept = if listener.attach_sink(sink) {
            None
        } else {
            let cmd_tx = cmd_tx.clone();
            let listener = Arc::clone(&listener);
            Some(
                std::thread::Builder::new()
                    .name("corona-accept".into())
                    .spawn(move || {
                        accept_loop(listener, cmd_tx, transport_metrics, send_queue_capacity)
                    })
                    .expect("spawn accept thread"),
            )
        };

        // Optional periodic metrics dump (one JSON line to stderr).
        let (dump_stop, dump) = match config.metrics_dump_interval {
            Some(interval) => {
                let (stop_tx, stop_rx) = channel::bounded::<()>(1);
                let registry = Arc::clone(&registry);
                let addr = addr.clone();
                let handle = std::thread::Builder::new()
                    .name("corona-metrics-dump".into())
                    .spawn(move || {
                        while let Err(RecvTimeoutError::Timeout) = stop_rx.recv_timeout(interval) {
                            eprintln!(
                                "corona-metrics {addr} {}",
                                registry.snapshot().render_json()
                            );
                        }
                    })
                    .expect("spawn metrics dump thread");
                (Some(stop_tx), Some(handle))
            }
            None => (None, None),
        };

        Ok(CoronaServer {
            addr,
            cmd_tx,
            dispatcher: Some(dispatcher),
            accept,
            logger: logger_handle,
            listener,
            registry,
            health,
            dump_stop,
            dump,
        })
    }

    /// The address clients dial.
    pub fn local_addr(&self) -> String {
        self.addr.clone()
    }

    /// A statistics snapshot (answered by the dispatcher, so the
    /// numbers are mutually consistent).
    ///
    /// # Errors
    ///
    /// [`CoronaError::Closed`] if the server has shut down.
    pub fn stats(&self) -> Result<ServerStats> {
        let (tx, rx) = channel::bounded(1);
        self.cmd_tx
            .send(Command::Stats(tx))
            .map_err(|_| CoronaError::Closed)?;
        rx.recv().map_err(|_| CoronaError::Closed)
    }

    /// A full snapshot of the server's metric registry (core counters,
    /// stage latency histograms, transport traffic, storage timings),
    /// answered by the dispatcher for consistency with [`Self::stats`].
    ///
    /// # Errors
    ///
    /// [`CoronaError::Closed`] if the server has shut down.
    pub fn metrics(&self) -> Result<MetricsSnapshot> {
        let (tx, rx) = channel::bounded(1);
        self.cmd_tx
            .send(Command::Metrics(tx))
            .map_err(|_| CoronaError::Closed)?;
        rx.recv().map_err(|_| CoronaError::Closed)
    }

    /// The metric registry shared by this server's core, transport and
    /// logger. Live handle — snapshots taken here race the dispatcher;
    /// use [`Self::metrics`] for a consistent cut.
    pub fn metrics_registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// The health-plane snapshot as one versioned JSON object
    /// (answered by the dispatcher, like [`Self::stats`]; also served
    /// on the wire via the `GetHealth` admin request).
    ///
    /// # Errors
    ///
    /// [`CoronaError::Closed`] if the server has shut down.
    pub fn health_json(&self) -> Result<String> {
        let (tx, rx) = channel::bounded(1);
        self.cmd_tx
            .send(Command::Health(tx))
            .map_err(|_| CoronaError::Closed)?;
        rx.recv().map_err(|_| CoronaError::Closed)
    }

    /// The live health registry (watchdog trips, per-group cells).
    /// Live handle — use [`Self::health_json`] for a consistent cut.
    pub fn health_registry(&self) -> Arc<HealthRegistry> {
        Arc::clone(&self.health)
    }

    /// Orderly shutdown: stop accepting, close every connection, drain
    /// the logger and sync stable storage.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.listener.shutdown();
        let _ = self.cmd_tx.send(Command::Shutdown);
        if let Some(stop) = self.dump_stop.take() {
            let _ = stop.send(());
        }
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.logger.take() {
            let _ = h.join();
        }
        if let Some(h) = self.dump.take() {
            let _ = h.join();
        }
    }
}

impl Drop for CoronaServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for CoronaServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoronaServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

fn transport_to_io(e: TransportError) -> CoronaError {
    CoronaError::Io(std::io::Error::other(e.to_string()))
}

/// Dispatcher-queue high-water mark for push-mode transports. When the
/// command queue backs up past this, the sink asks reactor shards to
/// stop reading client sockets — ordinary TCP flow control then
/// throttles the peers — and reading resumes once the queue drains
/// below half the mark. The pull-mode analogue is the bounded inbound
/// channel inside each connection.
const SINK_QUEUE_HWM: usize = 8192;

/// The server's push-mode frame receiver: adapts the [`FrameSink`]
/// calls a reactor transport makes from its shard threads onto the
/// dispatcher command queue.
struct ServerSink {
    cmd_tx: Sender<Command>,
    transport_metrics: TransportMetrics,
    send_queue_capacity: usize,
}

impl FrameSink for ServerSink {
    fn on_accept(&self, conn_id: u64, conn: Box<dyn Connection>) {
        conn.set_send_capacity(self.send_queue_capacity);
        let conn: Arc<Box<dyn Connection>> = Arc::new(Box::new(MeteredConnection::new(
            conn,
            self.transport_metrics.clone(),
        )));
        let _ = self.cmd_tx.send(Command::Accepted { conn_id, conn });
    }

    fn on_frame(&self, conn_id: u64, frame: bytes::Bytes) -> bool {
        // Push mode bypasses MeteredConnection::recv, so inbound
        // traffic is accounted here.
        self.transport_metrics.record_frame_in(frame.len());
        let _ = self.cmd_tx.send(Command::Frame { conn_id, frame });
        self.cmd_tx.len() < SINK_QUEUE_HWM
    }

    fn ready_for_more(&self) -> bool {
        self.cmd_tx.len() < SINK_QUEUE_HWM / 2
    }

    fn on_closed(&self, conn_id: u64, _clean: bool) {
        let _ = self.cmd_tx.send(Command::Closed { conn_id });
    }
}

enum LogSink {
    Disabled,
    Thread(Sender<LogEffect>),
    Inline(LoggerState),
}

impl LogSink {
    fn apply(&mut self, effect: LogEffect) {
        match self {
            LogSink::Disabled => {}
            LogSink::Thread(tx) => {
                let _ = tx.send(effect);
            }
            LogSink::Inline(state) => {
                state.apply(effect);
                // The ablation measures the full durability cost.
                state.sync_all();
            }
        }
    }
}

fn logger_loop(mut state: LoggerState, rx: Receiver<LogEffect>) {
    while let Ok(effect) = rx.recv() {
        state.apply(effect);
    }
    state.sync_all();
}

fn accept_loop(
    listener: Arc<Box<dyn Listener>>,
    cmd_tx: Sender<Command>,
    transport_metrics: TransportMetrics,
    send_queue_capacity: usize,
) {
    let mut next_conn: u64 = 1;
    loop {
        let Ok(conn) = listener.accept() else { break };
        conn.set_send_capacity(send_queue_capacity);
        let conn: Arc<Box<dyn Connection>> = Arc::new(Box::new(MeteredConnection::new(
            conn,
            transport_metrics.clone(),
        )));
        let conn_id = next_conn;
        next_conn += 1;
        if cmd_tx
            .send(Command::Accepted {
                conn_id,
                conn: Arc::clone(&conn),
            })
            .is_err()
        {
            break;
        }
        let reader_tx = cmd_tx.clone();
        std::thread::Builder::new()
            .name(format!("corona-conn-{conn_id}"))
            .spawn(move || {
                while let Ok(frame) = conn.recv() {
                    if reader_tx.send(Command::Frame { conn_id, frame }).is_err() {
                        break;
                    }
                }
                let _ = reader_tx.send(Command::Closed { conn_id });
            })
            .expect("spawn connection reader");
    }
}

/// How often the dispatcher polls the watchdogs (both on idle timeout
/// and opportunistically between commands under load).
const WATCHDOG_POLL_MS: u64 = 50;

/// The dispatcher thread's state: the protocol core, the connection
/// table, and the enqueue site every outbound frame passes through.
struct Dispatcher {
    core: ServerCore,
    log: LogSink,
    metrics: ServerMetrics,
    fanout: Fanout,
    health: Arc<HealthRegistry>,
    watchdogs: Watchdogs,
    send_queue_capacity: usize,
    conns: HashMap<u64, ConnState>,
    client_conn: HashMap<ClientId, u64>,
}

impl Dispatcher {
    fn run(mut self, cmd_rx: Receiver<Command>) {
        let started = Instant::now();
        let mut snapshot_seq: u64 = 0;
        let mut last_poll = Instant::now();
        let poll_interval = std::time::Duration::from_millis(WATCHDOG_POLL_MS);

        loop {
            let cmd = match cmd_rx.recv_timeout(poll_interval) {
                Ok(cmd) => Some(cmd),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => break,
            };
            if cmd.is_none() || last_poll.elapsed() >= poll_interval {
                // Under sustained load the recv timeout never fires,
                // so the watchdogs are also polled between commands.
                for event in self.watchdogs.poll(&self.health, self.health.uptime_ms()) {
                    self.health.emit(event);
                }
                last_poll = Instant::now();
            }
            let Some(cmd) = cmd else { continue };
            self.metrics.queue_depth.set(cmd_rx.len() as i64);
            match cmd {
                Command::Accepted { conn_id, conn } => {
                    self.metrics.conns_accepted.inc();
                    self.conns.insert(conn_id, ConnState { conn, client: None });
                }
                Command::Frame { conn_id, frame } => self.on_frame(conn_id, &frame),
                Command::Closed { conn_id } => {
                    if let Some(effects) = self.remove_conn(conn_id) {
                        self.execute(effects, None);
                    }
                }
                Command::Stats(reply) => {
                    let c = self.core.counters();
                    snapshot_seq += 1;
                    let _ = reply.send(ServerStats {
                        broadcasts: c.broadcasts,
                        deliveries: c.deliveries,
                        joins: c.joins,
                        reductions: c.reductions,
                        shed: self.fanout.shed.get(),
                        conns_accepted: self.metrics.conns_accepted.get(),
                        conns_closed: self.metrics.conns_closed.get(),
                        decode_errors: self.metrics.decode_errors.get(),
                        dead_conns: self.metrics.dead_conn.get(),
                        open_conns: self.conns.len(),
                        groups: self.core.group_count(),
                        clients: self.core.client_count(),
                        uptime_ms: started.elapsed().as_millis() as u64,
                        snapshot_seq,
                    });
                }
                Command::Metrics(reply) => {
                    let _ = reply.send(self.metrics.registry.snapshot());
                }
                Command::Health(reply) => {
                    let _ = reply.send(self.health_snapshot());
                }
                Command::Shutdown => break,
            }
        }
        // Close every connection so reader threads exit.
        for state in self.conns.values() {
            state.conn.close();
        }
        // Dropping `log` (LogSink::Thread) closes the logger channel;
        // the logger thread then syncs and exits.
    }

    fn close_conn(&self, conn_id: u64) {
        if let Some(state) = self.conns.get(&conn_id) {
            state.conn.close();
        }
    }

    fn on_frame(&mut self, conn_id: u64, frame: &[u8]) {
        let Ok((request, trace)) = decode_traced::<ClientRequest>(frame) else {
            // Malformed frame: drop the connection (it may be
            // version-skewed or hostile).
            self.metrics.decode_errors.inc();
            self.close_conn(conn_id);
            return;
        };
        if let Some(t) = trace {
            corona_trace::record(
                corona_trace::Hop::ServerIngress,
                corona_trace::TraceId(t.id),
                0,
                0,
            );
            self.health.note_trace(t.id);
        }
        if matches!(request, ClientRequest::GetHealth) {
            // Served by the runtime, not the core: the snapshot needs
            // the connection table and watchdog state. Answered even
            // before Hello so bare admin probes work.
            let event = ServerEvent::Health {
                schema: corona_health::SCHEMA_VERSION,
                json: self.health_snapshot(),
            };
            self.send_event(conn_id, &event);
            self.reap_dead();
            return;
        }
        match &request {
            ClientRequest::Broadcast { group, .. } => {
                self.health.group(*group).note_submitted();
            }
            ClientRequest::Join { group, .. } => self.health.group(*group).note_join(),
            ClientRequest::Leave { group } => self.health.group(*group).note_leave(),
            _ => {}
        }
        let now = Timestamp::now();
        let handle_started = Instant::now();
        let effects = match self.conns.get(&conn_id).and_then(|s| s.client) {
            None => match request {
                ClientRequest::Hello {
                    display_name,
                    resume,
                    ..
                } => {
                    let (client, effects) = self.core.client_hello(display_name, resume);
                    if let Some(state) = self.conns.get_mut(&conn_id) {
                        state.client = Some(client);
                    }
                    self.client_conn.insert(client, conn_id);
                    effects
                }
                _ => {
                    // First message must be Hello.
                    self.close_conn(conn_id);
                    return;
                }
            },
            Some(client) => {
                let goodbye = matches!(request, ClientRequest::Goodbye);
                let effects = self.core.handle_request(client, request, now);
                if goodbye {
                    self.client_conn.remove(&client);
                    if let Some(state) = self.conns.get_mut(&conn_id) {
                        state.conn.close();
                        state.client = None;
                    }
                }
                effects
            }
        };
        let handled = handle_started.elapsed();
        self.metrics.stage_handle_us.record_duration(handled);
        self.health
            .slo()
            .record(handled.as_micros() as u64, self.health.uptime_ms());
        if let Some(t) = trace {
            corona_trace::record(
                corona_trace::Hop::Sequence,
                corona_trace::TraceId(t.id),
                handled.as_micros() as u64,
                0,
            );
        }
        self.execute(effects, trace);
    }

    /// Forgets a connection and returns its session-leave effects —
    /// membership notifications, lock handoffs. `None` if it was
    /// already gone: the transport's `Closed` and a send-failure reap
    /// may both name it, and the first one wins.
    fn remove_conn(&mut self, conn_id: u64) -> Option<Vec<Effect>> {
        let state = self.conns.remove(&conn_id)?;
        self.metrics.conns_closed.inc();
        Some(match state.client {
            Some(client) => {
                self.client_conn.remove(&client);
                self.core.client_disconnected(client)
            }
            None => Vec::new(),
        })
    }

    /// Enqueues one unicast event; `false` if the connection is gone.
    fn send_event(&mut self, conn_id: u64, event: &ServerEvent) -> bool {
        let Some(state) = self.conns.get(&conn_id) else {
            return false;
        };
        self.fanout.enqueue(
            conn_id,
            &**state.conn,
            Frame::new(event.encode_to_bytes()),
            classify(event),
            None,
        );
        true
    }

    fn execute(&mut self, effects: Vec<Effect>, trace: Option<TraceToken>) {
        self.apply(effects, trace);
        self.reap_dead();
    }

    /// Reaps every connection a failed undroppable send closed — in
    /// this same dispatcher step, not whenever its reader notices — so
    /// nothing keeps encoding and "delivering" to a corpse. The
    /// session-leave effects of a reap can themselves fail sends; the
    /// loop runs until none are left.
    fn reap_dead(&mut self) {
        while let Some(conn_id) = self.fanout.dead.pop() {
            if let Some(effects) = self.remove_conn(conn_id) {
                self.metrics.dead_conn.inc();
                self.apply(effects, None);
            }
        }
    }

    fn apply(&mut self, effects: Vec<Effect>, trace: Option<TraceToken>) {
        let fanout_started = Instant::now();
        let mut fanned = false;
        let mut fanout_recorded = false;
        for effect in effects {
            match effect {
                Effect::Send { to, event } => {
                    if let Some(&conn_id) = self.client_conn.get(&to) {
                        fanned |= self.send_event(conn_id, &event);
                    }
                }
                Effect::Multicast {
                    group,
                    recipients,
                    event,
                } => {
                    // Encode and frame ONCE for all recipients; every
                    // transmit queue gets a clone of the refcounted
                    // body and the already-computed header. The trace
                    // token (if any) is identical for every recipient,
                    // so the traced frame is shareable too.
                    if let (Some(t), false) = (trace, fanout_recorded) {
                        fanout_recorded = true;
                        // Stamped before the first frame can hit a
                        // transmit queue, so a client's delivery
                        // timestamp never precedes it; the arg carries
                        // the fan-out width.
                        corona_trace::record(
                            corona_trace::Hop::FanoutEnqueue,
                            corona_trace::TraceId(t.id),
                            0,
                            recipients.len() as u64,
                        );
                    }
                    let frame = Frame::new(encode_traced(&event, trace));
                    self.metrics.fanout_encodes.inc();
                    let mut dispatched = 0u64;
                    let class = classify(&event);
                    // The group's health cell is resolved once per
                    // broadcast (one registry lock), then shared
                    // lock-free by every recipient's enqueue.
                    let health_note = if let ServerEvent::Multicast { logged, .. } = &event {
                        let cell = self.health.group(group);
                        cell.note_sequenced(logged.seq.raw());
                        Some((cell, logged.seq.raw()))
                    } else {
                        None
                    };
                    for to in recipients {
                        let Some(&conn_id) = self.client_conn.get(&to) else {
                            continue;
                        };
                        let Some(state) = self.conns.get(&conn_id) else {
                            continue;
                        };
                        fanned = true;
                        dispatched += 1;
                        let accepted = self.fanout.enqueue(
                            conn_id,
                            &**state.conn,
                            frame.clone(),
                            class,
                            Some(group),
                        );
                        if let (true, Some((cell, seq))) = (accepted, &health_note) {
                            cell.note_delivered(*seq);
                        }
                    }
                    if dispatched > 1 {
                        self.metrics
                            .fanout_bytes_saved
                            .add((dispatched - 1) * frame.body().len() as u64);
                    }
                }
                Effect::Log(log_effect) => {
                    let log_started = Instant::now();
                    let is_append = matches!(log_effect, LogEffect::Append { .. });
                    self.log.apply(log_effect);
                    self.metrics
                        .stage_log_us
                        .record_duration(log_started.elapsed());
                    if let (Some(t), true) = (trace, is_append) {
                        corona_trace::record(
                            corona_trace::Hop::LogAppend,
                            corona_trace::TraceId(t.id),
                            log_started.elapsed().as_micros() as u64,
                            0,
                        );
                    }
                }
            }
        }
        if fanned {
            self.metrics
                .stage_fanout_us
                .record_duration(fanout_started.elapsed());
        }
    }

    /// Builds the health snapshot: refreshes snapshot-time facts the
    /// hot path does not track (membership sizes, per-connection
    /// backpressure) and renders the registry.
    fn health_snapshot(&self) -> String {
        for group in self.core.registry().group_ids() {
            let members = self
                .core
                .registry()
                .get(group)
                .map_or(0, |g| g.member_count() as u64);
            self.health.group(group).set_members(members);
        }
        let pressure: Vec<ConnPressure> = self
            .conns
            .iter()
            .map(|(id, state)| {
                let backlog = state.conn.backlog() as u64;
                ConnPressure {
                    conn_id: *id,
                    backlog,
                    // Half the bounded queue is the pressure threshold:
                    // past it, QoS shedding is already in play.
                    backpressured: backlog * 2 >= self.send_queue_capacity as u64,
                }
            })
            .collect();
        self.health
            .snapshot_json(&pressure, &self.watchdogs.stalled_groups())
    }
}
