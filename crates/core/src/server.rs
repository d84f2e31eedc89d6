//! The single Corona server: the runtime [`kernel`](crate::kernel)
//! around a [`ServerCore`], plus stable storage.
//!
//! Accepting, decoding, dispatch, fan-out, QoS, reaping, health and
//! admin queries are the kernel's — the same code every replica of the
//! replicated service runs. What is specific to this server is here:
//!
//! * recovery of persistent groups (checkpoint + log replay) before the
//!   first connection is accepted;
//! * the **logger thread**, which executes [`LogEffect`]s against
//!   stable storage *in parallel with* the multicast fan-out ("state
//!   logging ... is not in the critical path", §6);
//! * the [`ServerStats`] admin snapshot.

use crate::config::ServerConfig;
use crate::core::{Effect, LogEffect, ServerCore};
use crate::kernel::{spawn, Io, Kernel, Protocol};
use corona_health::HealthRegistry;
use corona_metrics::{Histogram, MetricsSnapshot, Registry};
use corona_statelog::{GroupStore, StableStore};
use corona_trace::{record, Hop, TraceId};
use corona_transport::{Inbox, Listener, ReactorListener};
use corona_types::error::{CoronaError, Result};
use corona_types::id::{ClientId, GroupId};
use corona_types::message::{ClientRequest, ServerEvent};
use corona_types::state::Timestamp;
use std::collections::HashMap;
use std::sync::Arc;

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

/// The dispatcher's end of the logger queue: closes it when dropped.
struct LogQueue(Arc<Inbox<LogEffect>>);

impl Drop for LogQueue {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The single server's [`Protocol`]: the [`ServerCore`] state machine,
/// with its log effects routed to stable storage.
struct Single {
    core: ServerCore,
    /// Where log effects go. Dropped with the dispatcher, which closes
    /// the logger thread's queue: the thread then syncs and exits.
    log: Box<dyn FnMut(LogEffect) + Send>,
    stage_log_us: Arc<Histogram>,
    /// Admin snapshots answered so far.
    snapshot_seq: u64,
}

impl Single {
    fn new(core: ServerCore, log: Box<dyn FnMut(LogEffect) + Send>, registry: &Registry) -> Self {
        Single {
            core,
            log,
            stage_log_us: registry.histogram("server.stage.log_us"),
            snapshot_seq: 0,
        }
    }
}

impl Protocol for Single {
    type Effect = Effect;

    fn client_hello(
        &mut self,
        display_name: String,
        resume: Option<ClientId>,
    ) -> (ClientId, Vec<Effect>) {
        self.core.client_hello(display_name, resume)
    }

    fn handle_request(
        &mut self,
        client: ClientId,
        request: ClientRequest,
        now: Timestamp,
    ) -> Vec<Effect> {
        self.core.handle_request(client, request, now)
    }

    fn client_disconnected(&mut self, client: ClientId) -> Vec<Effect> {
        self.core.client_disconnected(client)
    }

    fn execute(&mut self, effects: Vec<Effect>, io: &mut Io) {
        for effect in effects {
            match effect {
                Effect::Send { to, event } => io.send(to, &event),
                Effect::Multicast {
                    group,
                    recipients,
                    event,
                } => {
                    if let ServerEvent::Multicast { logged, .. } = &event {
                        io.health.group(group).note_sequenced(logged.seq.raw());
                    }
                    io.multicast(Some(group), &recipients, &event);
                }
                Effect::Log(log_effect) => {
                    let log_started = std::time::Instant::now();
                    let is_append = matches!(log_effect, LogEffect::Append { .. });
                    (self.log)(log_effect);
                    let took = log_started.elapsed();
                    self.stage_log_us.record_duration(took);
                    if let (Some(t), true) = (io.trace(), is_append) {
                        record(Hop::LogAppend, TraceId(t.id), took.as_micros() as u64, 0);
                    }
                }
            }
        }
    }

    fn refresh_health(&self, health: &HealthRegistry) {
        let registry = self.core.registry();
        for group in registry.group_ids() {
            let members = registry.get(group).map_or(0, |g| g.member_count() as u64);
            health.group(group).set_members(members);
        }
    }
}

/// A running Corona server.
///
/// Dropping the handle shuts the server down; prefer
/// [`CoronaServer::shutdown`] for an orderly stop that syncs stable
/// storage.
#[derive(Debug)]
pub struct CoronaServer {
    addr: String,
    kernel: Kernel<Single>,
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
    /// Storage open/recovery failures; a listener that is already
    /// serving (see [`Kernel::start`]).
    pub fn start(listener: Box<dyn Listener>, config: ServerConfig) -> Result<CoronaServer> {
        Self::start_with_registry(listener, config, Registry::new())
    }

    /// Binds a sharded-reactor TCP listener on `addr`
    /// ([`ServerConfig::reactor_shards`] event loops) and starts the
    /// server on it. The reactor's `server.reactor.*` metrics land in
    /// the server's own registry.
    ///
    /// # Errors
    ///
    /// Bind failures, and everything [`CoronaServer::start`] reports.
    pub fn bind(addr: &str, config: ServerConfig) -> Result<CoronaServer> {
        let registry = Registry::new();
        let listener =
            ReactorListener::bind_with_registry(addr, config.reactor_shards, Some(&registry))
                .map_err(|e| CoronaError::Io(std::io::Error::other(e.to_string())))?;
        Self::start_with_registry(Box::new(listener), config, registry)
    }

    fn start_with_registry(
        listener: Box<dyn Listener>,
        config: ServerConfig,
        registry: Arc<Registry>,
    ) -> Result<CoronaServer> {
        let addr = listener.local_addr();
        let mut core = ServerCore::with_registry(&config, Arc::clone(&registry));

        // Recover persistent groups before serving.
        let logger_state = match &config.storage_dir {
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

        // The logger thread, fed the effects in dispatcher order.
        let mut logger = None;
        let log: Box<dyn FnMut(LogEffect) + Send> = match logger_state {
            Some(mut state) => {
                let queue = LogQueue(Arc::new(Inbox::parked()));
                let effects = Arc::clone(&queue.0);
                let log_batch = registry.histogram("server.log.batch");
                logger = Some(spawn("corona-logger".into(), move || {
                    let mut batch = Vec::new();
                    let mut open = true;
                    while open {
                        effects.park(None);
                        open = effects.drain_into(&mut batch);
                        if !batch.is_empty() {
                            log_batch.record(batch.len() as u64);
                        }
                        batch.drain(..).for_each(|effect| state.apply(effect));
                    }
                    state.sync_all();
                }));
                Box::new(move |effect| {
                    queue.0.push(effect);
                })
            }
            None => Box::new(|_| {}),
        };

        let single = Single::new(core, log, &registry);
        let mut kernel = Kernel::start("corona", &config, registry, single, listener, None)?;
        if let Some(logger) = logger {
            kernel.join_after(logger);
        }
        Ok(CoronaServer { addr, kernel })
    }

    /// [`CoronaServer::start`] with no thread of its own: the caller
    /// turns the dispatcher with [`CoronaServer::run_pending`], at the
    /// time it says it is.
    ///
    /// # Errors
    ///
    /// [`CoronaError::InvalidState`] for a configuration with a
    /// storage directory (stable storage needs the logger thread), or
    /// a listener that is already serving (see [`Kernel::start`]).
    pub fn stepped(listener: Box<dyn Listener>, config: ServerConfig) -> Result<CoronaServer> {
        if config.storage_dir.is_some() {
            return Err(CoronaError::InvalidState(
                "a stepped server has no logger thread to keep a storage_dir".into(),
            ));
        }
        let addr = listener.local_addr();
        let registry = Registry::new();
        let core = ServerCore::with_registry(&config, Arc::clone(&registry));
        let single = Single::new(core, Box::new(|_| {}), &registry);
        let kernel = Kernel::stepped(&config, registry, single, listener, None)?;
        Ok(CoronaServer { addr, kernel })
    }

    /// One dispatcher turn of a [stepped](CoronaServer::stepped) server
    /// at `now_ms`; see [`Kernel::run_pending`].
    pub fn run_pending(&self, now_ms: u64) -> bool {
        self.kernel.run_pending(now_ms)
    }

    /// When a [stepped](CoronaServer::stepped) server's next watchdog
    /// poll is due.
    pub fn next_tick_ms(&self) -> u64 {
        self.kernel.next_tick_ms()
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
        self.kernel.call(|single, io| {
            single.snapshot_seq += 1;
            let c = single.core.counters();
            let counter = |name: &str| io.registry.counter(name).get();
            ServerStats {
                broadcasts: c.broadcasts,
                deliveries: c.deliveries,
                joins: c.joins,
                reductions: c.reductions,
                shed: counter("server.shed"),
                conns_accepted: counter("server.conns.accepted"),
                conns_closed: counter("server.conns.closed"),
                decode_errors: counter("server.decode_errors"),
                dead_conns: counter("server.fanout.dead_conn"),
                open_conns: io.open_conns(),
                groups: single.core.group_count(),
                clients: single.core.client_count(),
                uptime_ms: io.now_ms(),
                snapshot_seq: single.snapshot_seq,
            }
        })
    }

    /// A full snapshot of the server's metric registry (core counters,
    /// stage latency histograms, transport traffic, storage timings),
    /// answered by the dispatcher for consistency with [`Self::stats`].
    ///
    /// # Errors
    ///
    /// [`CoronaError::Closed`] if the server has shut down.
    pub fn metrics(&self) -> Result<MetricsSnapshot> {
        self.kernel.call(|_, io| io.registry.snapshot())
    }

    /// The metric registry shared by this server's core, transport and
    /// logger. Live handle — snapshots taken here race the dispatcher;
    /// use [`Self::metrics`] for a consistent cut.
    pub fn metrics_registry(&self) -> Arc<Registry> {
        Arc::clone(&self.kernel.registry)
    }

    /// The health-plane snapshot as one versioned JSON object
    /// (answered by the dispatcher, like [`Self::stats`]; also served
    /// on the wire via the `GetHealth` admin request).
    ///
    /// # Errors
    ///
    /// [`CoronaError::Closed`] if the server has shut down.
    pub fn health_json(&self) -> Result<String> {
        self.kernel.health_json()
    }

    /// The live health registry (watchdog trips, per-group cells).
    /// Live handle — use [`Self::health_json`] for a consistent cut.
    pub fn health_registry(&self) -> Arc<HealthRegistry> {
        Arc::clone(&self.kernel.health)
    }

    /// Orderly shutdown (what dropping the handle does): stop accepting,
    /// close every connection, drain the logger and sync stable storage.
    pub fn shutdown(self) {}
}
