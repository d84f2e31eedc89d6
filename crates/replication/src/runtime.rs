//! Threaded runtime for the replicated Corona service.
//!
//! Each process runs a [`ReplicatedServer`]: a replica that terminates
//! client connections, plus — when elected — the coordinator role.
//! The star topology of §4.1 emerges at runtime: member servers hold a
//! peer connection to the acting coordinator; during elections they
//! dial each other directly (every server knows the startup-ordered
//! peer list, §4.2).
//!
//! Clients speak the *same* wire protocol as against a single
//! [`corona_core::server::CoronaServer`] — replication is transparent
//! to [`corona_core::client::CoronaClient`].

use crate::coordinator::{CoordEffect, CoordinatorCore};
use crate::election::{ElectionCore, ElectionEffect};
use crate::merge::{find_divergence, merge, MergeResolution, Side};
use crate::replica::{ReplicaCore, ReplicaEffect};
use corona_core::{classify, EventClass, ServerConfig};
use corona_health::{ConnPressure, HealthRegistry, Watchdogs};
use corona_metrics::{Counter, Histogram, MetricsSnapshot, Registry};
use corona_statelog::GroupLog;
use corona_transport::{Connection, Dialer, Listener, TransportError};
use corona_types::error::{CoronaError, ErrorCode, Result};
use corona_types::frame::Frame;
use corona_types::id::{ClientId, Epoch, GroupId, SeqNo, ServerId};
use corona_types::message::{ClientRequest, PeerMessage, ServerEvent};
use corona_types::state::Timestamp;
use corona_types::wire::{Decode, Encode};
use crossbeam::channel::{self, Receiver, Sender};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of one replicated server.
#[derive(Clone)]
pub struct ReplicatedConfig {
    /// This server's id (must appear in `servers`).
    pub servers: Vec<(ServerId, String)>,
    /// The *client-dialable* address of every server, advertised to
    /// clients via [`ServerEvent::Roster`] on join and after every
    /// election (the peer addresses in `servers` are not reachable by
    /// clients). Leave empty to disable roster advertisement.
    pub client_addrs: Vec<(ServerId, String)>,
    /// Coordinator heartbeat period in milliseconds.
    pub heartbeat_ms: u64,
    /// Base failure-detection timeout `t`; the server at rank `r` in
    /// the startup list waits `(r + 1) * t` (§4.2).
    pub base_timeout_ms: u64,
    /// Configuration for the authoritative state held while acting as
    /// coordinator.
    pub server_config: ServerConfig,
}

impl ReplicatedConfig {
    /// A default configuration for the given startup-ordered peer
    /// list.
    pub fn new(me: ServerId, servers: Vec<(ServerId, String)>) -> Self {
        ReplicatedConfig {
            servers,
            client_addrs: Vec::new(),
            heartbeat_ms: 50,
            base_timeout_ms: 250,
            server_config: ServerConfig::stateful(me),
        }
    }

    /// Sets the client-dialable address book advertised to clients.
    #[must_use]
    pub fn with_client_addrs(mut self, client_addrs: Vec<(ServerId, String)>) -> Self {
        self.client_addrs = client_addrs;
        self
    }
}

/// Introspection snapshot of a replicated server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// This server's id.
    pub me: ServerId,
    /// Whether this server is the acting coordinator.
    pub is_coordinator: bool,
    /// The coordinator this server believes in, if any.
    pub coordinator: Option<ServerId>,
    /// The current epoch.
    pub epoch: Epoch,
    /// Locally connected clients.
    pub local_clients: usize,
    /// Locally hosted groups.
    pub hosted_groups: usize,
}

enum Command {
    ClientAccepted {
        conn_id: u64,
        conn: Arc<Box<dyn Connection>>,
    },
    ClientFrame {
        conn_id: u64,
        frame: bytes::Bytes,
    },
    ClientClosed {
        conn_id: u64,
    },
    PeerAccepted {
        conn_id: u64,
        conn: Arc<Box<dyn Connection>>,
    },
    PeerFrame {
        conn_id: u64,
        frame: bytes::Bytes,
    },
    PeerClosed {
        conn_id: u64,
    },
    Tick,
    Status(Sender<ReplicaStatus>),
    Health(Sender<String>),
    Shutdown,
}

/// A running replicated Corona server.
pub struct ReplicatedServer {
    me: ServerId,
    client_addr: String,
    cmd_tx: Sender<Command>,
    client_listener: Arc<Box<dyn Listener>>,
    peer_listener: Arc<Box<dyn Listener>>,
    threads: Vec<JoinHandle<()>>,
    registry: Arc<Registry>,
    health: Arc<HealthRegistry>,
}

/// Replication-layer metric handles. Names:
/// `repl.heartbeats.sent` / `repl.heartbeats.recv` (counters),
/// `repl.heartbeat_gap_ms` (gap between heartbeats seen from the
/// coordinator), `repl.elections.rounds` (claim rounds started here),
/// `repl.elections.won`, `repl.failover_ms` (first local claim to
/// resolved coordinator), `repl.peer.sent` (all peer messages out),
/// `repl.fanout.sequenced` (per-hosting-server `Sequenced` fan-out),
/// `repl.fenced.rejects` (sequencing requests refused while the
/// quorum lease is lost), `repl.reconciled.groups` (group logs
/// merged back after a heal) and `repl.client.send_failed` (client
/// connections closed because an undroppable frame could not be
/// enqueued).
struct ReplMetrics {
    heartbeats_sent: Arc<Counter>,
    heartbeats_recv: Arc<Counter>,
    heartbeat_gap_ms: Arc<Histogram>,
    election_rounds: Arc<Counter>,
    elections_won: Arc<Counter>,
    failover_ms: Arc<Histogram>,
    peer_sent: Arc<Counter>,
    fanout_sequenced: Arc<Counter>,
    fenced_rejects: Arc<Counter>,
    reconciled_groups: Arc<Counter>,
    client_send_failed: Arc<Counter>,
}

impl ReplMetrics {
    fn new(registry: &Registry) -> Self {
        ReplMetrics {
            heartbeats_sent: registry.counter("repl.heartbeats.sent"),
            heartbeats_recv: registry.counter("repl.heartbeats.recv"),
            heartbeat_gap_ms: registry.histogram("repl.heartbeat_gap_ms"),
            election_rounds: registry.counter("repl.elections.rounds"),
            elections_won: registry.counter("repl.elections.won"),
            failover_ms: registry.histogram("repl.failover_ms"),
            peer_sent: registry.counter("repl.peer.sent"),
            fanout_sequenced: registry.counter("repl.fanout.sequenced"),
            fenced_rejects: registry.counter("repl.fenced.rejects"),
            reconciled_groups: registry.counter("repl.reconciled.groups"),
            client_send_failed: registry.counter("repl.client.send_failed"),
        }
    }
}

impl ReplicatedServer {
    /// Starts a replicated server.
    ///
    /// * `client_listener` — where clients connect;
    /// * `peer_listener` — where other servers connect (must be the
    ///   address listed for this server in `config.servers`);
    /// * `dialer` — used to reach peers.
    ///
    /// # Errors
    ///
    /// Currently infallible at startup (connections are lazy), but the
    /// signature reserves the right to validate configuration.
    pub fn start(
        client_listener: Box<dyn Listener>,
        peer_listener: Box<dyn Listener>,
        dialer: Arc<dyn Dialer>,
        config: ReplicatedConfig,
    ) -> Result<ReplicatedServer> {
        let me = config.server_config.server_id;
        if !config.servers.iter().any(|(id, _)| *id == me) {
            return Err(CoronaError::InvalidState(format!(
                "server {me} missing from the configured server list"
            )));
        }
        let client_addr = client_listener.local_addr();
        let registry = Registry::new();
        let health = HealthRegistry::new(config.server_config.slo);
        health.set_queue_capacity(config.server_config.send_queue_capacity as u64);
        let (cmd_tx, cmd_rx) = channel::unbounded::<Command>();
        let mut threads = Vec::new();

        let client_listener: Arc<Box<dyn Listener>> = Arc::new(client_listener);
        let peer_listener: Arc<Box<dyn Listener>> = Arc::new(peer_listener);

        // Client accept loop.
        {
            let listener = Arc::clone(&client_listener);
            let tx = cmd_tx.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("repl-{me}-client-accept"))
                    .spawn(move || {
                        accept_loop(
                            listener,
                            tx,
                            1_000_000,
                            |conn_id, conn| Command::ClientAccepted { conn_id, conn },
                            |conn_id, frame| Command::ClientFrame { conn_id, frame },
                            |conn_id| Command::ClientClosed { conn_id },
                        )
                    })
                    .expect("spawn client accept"),
            );
        }
        // Peer accept loop.
        {
            let listener = Arc::clone(&peer_listener);
            let tx = cmd_tx.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("repl-{me}-peer-accept"))
                    .spawn(move || {
                        accept_loop(
                            listener,
                            tx,
                            2_000_000,
                            |conn_id, conn| Command::PeerAccepted { conn_id, conn },
                            |conn_id, frame| Command::PeerFrame { conn_id, frame },
                            |conn_id| Command::PeerClosed { conn_id },
                        )
                    })
                    .expect("spawn peer accept"),
            );
        }
        // Timer.
        {
            let tx = cmd_tx.clone();
            let tick = Duration::from_millis((config.heartbeat_ms / 2).max(5));
            threads.push(
                std::thread::Builder::new()
                    .name(format!("repl-{me}-timer"))
                    .spawn(move || loop {
                        std::thread::sleep(tick);
                        if tx.send(Command::Tick).is_err() {
                            break;
                        }
                    })
                    .expect("spawn timer"),
            );
        }
        // Dispatcher.
        {
            let tx = cmd_tx.clone();
            let registry = Arc::clone(&registry);
            let health = Arc::clone(&health);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("repl-{me}-dispatch"))
                    .spawn(move || {
                        Dispatcher::new(config, dialer, tx, registry, health).run(cmd_rx);
                    })
                    .expect("spawn dispatcher"),
            );
        }

        Ok(ReplicatedServer {
            me,
            client_addr,
            cmd_tx,
            client_listener,
            peer_listener,
            threads,
            registry,
            health,
        })
    }

    /// This server's id.
    pub fn server_id(&self) -> ServerId {
        self.me
    }

    /// The address clients dial.
    pub fn client_addr(&self) -> String {
        self.client_addr.clone()
    }

    /// An introspection snapshot.
    ///
    /// # Errors
    ///
    /// [`CoronaError::Closed`] after shutdown.
    pub fn status(&self) -> Result<ReplicaStatus> {
        let (tx, rx) = channel::bounded(1);
        self.cmd_tx
            .send(Command::Status(tx))
            .map_err(|_| CoronaError::Closed)?;
        rx.recv_timeout(Duration::from_secs(5))
            .map_err(|_| CoronaError::Closed)
    }

    /// A snapshot of this server's metric registry (election rounds,
    /// failover durations, heartbeat gaps, peer fan-out, plus the
    /// coordinator core's sequencing counters while this server holds
    /// the role). Taken directly from the shared registry — values may
    /// trail the dispatcher by a few operations.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// The metric registry shared by this server's roles.
    pub fn metrics_registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// A versioned JSON health snapshot assembled by the dispatcher
    /// (same payload clients receive for `ClientRequest::GetHealth`).
    ///
    /// # Errors
    ///
    /// [`CoronaError::Closed`] after shutdown.
    pub fn health_json(&self) -> Result<String> {
        let (tx, rx) = channel::bounded(1);
        self.cmd_tx
            .send(Command::Health(tx))
            .map_err(|_| CoronaError::Closed)?;
        rx.recv_timeout(Duration::from_secs(5))
            .map_err(|_| CoronaError::Closed)
    }

    /// The live health registry (lock-free cells; readable without
    /// round-tripping through the dispatcher).
    pub fn health_registry(&self) -> Arc<HealthRegistry> {
        Arc::clone(&self.health)
    }

    /// Orderly shutdown.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.client_listener.shutdown();
        self.peer_listener.shutdown();
        let _ = self.cmd_tx.send(Command::Shutdown);
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ReplicatedServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for ReplicatedServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedServer")
            .field("me", &self.me)
            .field("client_addr", &self.client_addr)
            .finish_non_exhaustive()
    }
}

fn accept_loop(
    listener: Arc<Box<dyn Listener>>,
    cmd_tx: Sender<Command>,
    id_base: u64,
    on_accept: fn(u64, Arc<Box<dyn Connection>>) -> Command,
    on_frame: fn(u64, bytes::Bytes) -> Command,
    on_close: fn(u64) -> Command,
) {
    let mut next = id_base;
    loop {
        let Ok(conn) = listener.accept() else { break };
        let conn: Arc<Box<dyn Connection>> = Arc::new(conn);
        let conn_id = next;
        next += 1;
        if cmd_tx.send(on_accept(conn_id, Arc::clone(&conn))).is_err() {
            break;
        }
        let tx = cmd_tx.clone();
        std::thread::Builder::new()
            .name(format!("repl-conn-{conn_id}"))
            .spawn(move || {
                while let Ok(frame) = conn.recv() {
                    if tx.send(on_frame(conn_id, frame)).is_err() {
                        return;
                    }
                }
                let _ = tx.send(on_close(conn_id));
            })
            .expect("spawn reader");
    }
}

/// A client connection and the client it authenticated as (once its
/// `Hello` arrives).
type ClientConn = (Arc<Box<dyn Connection>>, Option<ClientId>);

/// Internal work items processed iteratively (no recursion).
enum Work {
    /// A peer message to handle locally.
    Local(PeerMessage),
    Replica(ReplicaEffect),
    Coord(CoordEffect),
    Election(ElectionEffect),
}

struct Dispatcher {
    me: ServerId,
    config: ReplicatedConfig,
    dialer: Arc<dyn Dialer>,
    cmd_tx: Sender<Command>,
    started: Instant,
    election: ElectionCore,
    replica: ReplicaCore,
    coordinator: Option<CoordinatorCore>,
    /// address book, startup order preserved in config.servers.
    addr_of: HashMap<ServerId, String>,
    /// Live peer connections by server.
    peer_conns: HashMap<ServerId, (u64, Arc<Box<dyn Connection>>)>,
    /// Accepted peer connections awaiting their `ServerHello`.
    pending_peers: HashMap<u64, Arc<Box<dyn Connection>>>,
    /// Client connections.
    client_conns: HashMap<u64, ClientConn>,
    client_conn_of: HashMap<ClientId, u64>,
    /// Coordinator-bound messages buffered while no coordinator is
    /// known (mid-election).
    coord_backlog: VecDeque<PeerMessage>,
    /// Epoch whose coordinator we already resynced with.
    resynced_epoch: Option<Epoch>,
    next_conn_id: u64,
    registry: Arc<Registry>,
    metrics: ReplMetrics,
    /// When the last coordinator heartbeat arrived (gap histogram).
    last_heartbeat: Option<Instant>,
    /// When this server first claimed the epoch it is electing for;
    /// cleared (into `repl.failover_ms`) once a coordinator resolves.
    failover_started: Option<Instant>,
    /// Highest epoch this server has claimed (one round per epoch).
    claimed_epoch: Option<Epoch>,
    /// Live health cells shared with the owning `ReplicatedServer`.
    health: Arc<HealthRegistry>,
    /// Health-plane watchdogs, polled from `tick()`.
    watchdogs: Watchdogs,
    /// Last epoch counted as a resolved election by the health plane
    /// (startup epoch pre-counted so boot is not an "election").
    counted_epoch: Option<Epoch>,
    /// Quorum lease while coordinating: when each follower's last
    /// `HeartbeatAck` arrived (runtime milliseconds).
    last_ack_ms: HashMap<ServerId, u64>,
    /// Whether the coordinator role is write-fenced (lease over a
    /// majority of the configured roster lost).
    fenced: bool,
    /// Group logs quarantined at demotion, awaiting reconciliation
    /// against the live coordinator's authoritative copies.
    reconciling: HashMap<GroupId, GroupLog>,
}

impl Dispatcher {
    fn new(
        config: ReplicatedConfig,
        dialer: Arc<dyn Dialer>,
        cmd_tx: Sender<Command>,
        registry: Arc<Registry>,
        health: Arc<HealthRegistry>,
    ) -> Self {
        let me = config.server_config.server_id;
        let order: Vec<ServerId> = config.servers.iter().map(|(id, _)| *id).collect();
        let addr_of = config.servers.iter().cloned().collect();
        let election = ElectionCore::new(me, order, config.base_timeout_ms, 0);
        let mut coordinator = None;
        if election.is_coordinator() {
            coordinator = Some(CoordinatorCore::with_registry(
                &config.server_config,
                Epoch::ZERO,
                Arc::clone(&registry),
            ));
        }
        let metrics = ReplMetrics::new(&registry);
        let watchdogs = Watchdogs::new(config.server_config.watchdog);
        let mut dispatcher = Dispatcher {
            me,
            dialer,
            cmd_tx,
            started: Instant::now(),
            election,
            replica: ReplicaCore::new(me),
            coordinator,
            addr_of,
            peer_conns: HashMap::new(),
            pending_peers: HashMap::new(),
            client_conns: HashMap::new(),
            client_conn_of: HashMap::new(),
            coord_backlog: VecDeque::new(),
            resynced_epoch: Some(Epoch::ZERO),
            next_conn_id: 0,
            registry,
            metrics,
            last_heartbeat: None,
            failover_started: None,
            claimed_epoch: None,
            health,
            watchdogs,
            counted_epoch: Some(Epoch::ZERO),
            last_ack_ms: HashMap::new(),
            fenced: false,
            reconciling: HashMap::new(),
            config,
        };
        if dispatcher.coordinator.is_some() {
            dispatcher.grant_lease();
        }
        dispatcher
    }

    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn run(mut self, cmd_rx: Receiver<Command>) {
        while let Ok(cmd) = cmd_rx.recv() {
            match cmd {
                Command::ClientAccepted { conn_id, conn } => {
                    conn.set_send_capacity(self.config.server_config.send_queue_capacity);
                    self.client_conns.insert(conn_id, (conn, None));
                }
                Command::ClientFrame { conn_id, frame } => self.client_frame(conn_id, frame),
                Command::ClientClosed { conn_id } => {
                    if let Some((_, Some(client))) = self.client_conns.remove(&conn_id) {
                        self.client_conn_of.remove(&client);
                        let effects = self.replica.client_disconnected(client);
                        self.drain(effects.into_iter().map(Work::Replica).collect());
                    }
                }
                Command::PeerAccepted { conn_id, conn } => {
                    self.pending_peers.insert(conn_id, conn);
                }
                Command::PeerFrame { conn_id, frame } => self.peer_frame(conn_id, frame),
                Command::PeerClosed { conn_id } => self.peer_closed(conn_id),
                Command::Tick => self.tick(),
                Command::Status(reply) => {
                    let _ = reply.send(ReplicaStatus {
                        me: self.me,
                        is_coordinator: self.election.is_coordinator(),
                        coordinator: self.election.coordinator(),
                        epoch: self.election.epoch(),
                        local_clients: self.client_conn_of.len(),
                        hosted_groups: self.replica.hosted_groups().len(),
                    });
                }
                Command::Health(reply) => {
                    let snapshot = self.build_health_snapshot();
                    let _ = reply.send(snapshot);
                }
                Command::Shutdown => break,
            }
        }
        for (conn, _) in self.client_conns.values() {
            conn.close();
        }
        for (_, conn) in self.peer_conns.values() {
            conn.close();
        }
    }

    fn client_frame(&mut self, conn_id: u64, frame: bytes::Bytes) {
        // Clients may attach a trace token to broadcasts; accept it and
        // stamp the ingress hop. Replicated sequencing does not thread
        // the token through `PeerMessage`, so downstream replication
        // hops record as infrastructure spans (see DESIGN.md).
        let Ok((request, trace)) = corona_types::wire::decode_traced::<ClientRequest>(&frame)
        else {
            if let Some((conn, _)) = self.client_conns.get(&conn_id) {
                conn.close();
            }
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
        let handle_started = Instant::now();
        // Health snapshots are assembled here at the runtime (the pure
        // cores never see the request), and are served even before the
        // session's `Hello` so bare admin probes work.
        if matches!(request, ClientRequest::GetHealth) {
            let event = ServerEvent::Health {
                schema: corona_health::SCHEMA_VERSION,
                json: self.build_health_snapshot(),
            };
            if let Some((conn, _)) = self.client_conns.get(&conn_id) {
                self.send_to_conn(conn, Frame::new(event.encode_to_bytes()), classify(&event));
            }
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
        let known_client = self.client_conns.get(&conn_id).and_then(|(_, c)| *c);
        let mut greeted = false;
        let effects: Vec<ReplicaEffect> = match known_client {
            None => match request {
                ClientRequest::Hello {
                    display_name,
                    resume,
                    ..
                } => {
                    if resume.is_some() {
                        self.health.note_reconnect();
                        let now_ms = self.now_ms();
                        if let Some(event) = self.watchdogs.note_reconnect(now_ms) {
                            self.health.emit(event);
                        }
                    }
                    let (client, effects) = self.replica.client_hello(display_name, resume);
                    if let Some(entry) = self.client_conns.get_mut(&conn_id) {
                        entry.1 = Some(client);
                    }
                    self.client_conn_of.insert(client, conn_id);
                    greeted = true;
                    effects
                }
                _ => {
                    if let Some((conn, _)) = self.client_conns.get(&conn_id) {
                        conn.close();
                    }
                    return;
                }
            },
            Some(client) => {
                let goodbye = matches!(request, ClientRequest::Goodbye);
                let effects = self.replica.handle_request(client, request, now);
                if goodbye {
                    self.client_conn_of.remove(&client);
                    if let Some((conn, slot)) = self.client_conns.get_mut(&conn_id) {
                        conn.close();
                        *slot = None;
                    }
                }
                effects
            }
        };
        self.drain(effects.into_iter().map(Work::Replica).collect());
        self.health.slo().record(
            handle_started.elapsed().as_micros() as u64,
            self.health.uptime_ms(),
        );
        if greeted {
            // After the Welcome (which must be the session's first
            // frame) tell the new client where every replica lives.
            self.push_roster_to(conn_id);
        }
    }

    fn peer_frame(&mut self, conn_id: u64, frame: bytes::Bytes) {
        let Ok(msg) = PeerMessage::decode_exact(&frame) else {
            return;
        };
        // First message on an accepted peer connection introduces it.
        if let PeerMessage::ServerHello { server } = msg {
            if let Some(conn) = self.pending_peers.remove(&conn_id) {
                self.peer_conns.insert(server, (conn_id, conn));
            }
            return;
        }
        self.drain(VecDeque::from([Work::Local(msg)]));
    }

    fn peer_closed(&mut self, conn_id: u64) {
        self.pending_peers.remove(&conn_id);
        let gone: Vec<ServerId> = self
            .peer_conns
            .iter()
            .filter(|(_, (id, _))| *id == conn_id)
            .map(|(s, _)| *s)
            .collect();
        for server in gone {
            self.peer_conns.remove(&server);
            if self.election.is_coordinator() {
                if let Some(coord) = &mut self.coordinator {
                    let effects = coord.server_crashed(server);
                    self.drain(effects.into_iter().map(Work::Coord).collect());
                }
            }
            // A follower that lost its coordinator link relies on the
            // heartbeat timeout to trigger the election.
        }
    }

    fn tick(&mut self) {
        let now = self.now_ms();
        for event in self.watchdogs.poll(&self.health, now) {
            self.health.emit(event);
        }
        let mut work: VecDeque<Work> = self
            .election
            .on_tick(now)
            .into_iter()
            .map(Work::Election)
            .collect();
        if self.election.is_coordinator() {
            self.check_quorum_lease(now);
            work.extend(
                self.election
                    .coordinator_heartbeats()
                    .into_iter()
                    .map(Work::Election),
            );
        }
        self.drain(work);
    }

    /// Processes work items iteratively, expanding effects in place.
    fn drain(&mut self, mut queue: VecDeque<Work>) {
        let mut steps = 0u32;
        while let Some(item) = queue.pop_front() {
            steps += 1;
            if steps > 100_000 {
                // Defensive: a routing loop would otherwise spin the
                // dispatcher forever.
                eprintln!("corona-replication: work queue runaway, dropping remainder");
                return;
            }
            match item {
                Work::Local(msg) => self.handle_local_peer(msg, &mut queue),
                Work::Replica(eff) => self.exec_replica(eff, &mut queue),
                Work::Coord(eff) => self.exec_coord(eff, &mut queue),
                Work::Election(eff) => self.exec_election(eff, &mut queue),
            }
        }
    }

    fn handle_local_peer(&mut self, msg: PeerMessage, queue: &mut VecDeque<Work>) {
        let now_ms = self.now_ms();
        let now = Timestamp::now();
        match msg {
            PeerMessage::Heartbeat { from, epoch } => {
                self.metrics.heartbeats_recv.inc();
                if let Some(prev) = self.last_heartbeat {
                    self.metrics
                        .heartbeat_gap_ms
                        .record(prev.elapsed().as_millis() as u64);
                }
                self.last_heartbeat = Some(Instant::now());
                let effects = self.election.on_heartbeat(from, epoch, now_ms);
                self.sync_role();
                if !self.election.is_coordinator() {
                    // Ack the coordinator's heartbeat: the acks are its
                    // quorum lease (see `check_quorum_lease`).
                    self.send_peer(
                        from,
                        PeerMessage::HeartbeatAck {
                            from: self.me,
                            epoch: self.election.epoch(),
                        },
                        queue,
                    );
                }
                queue.extend(effects.into_iter().map(Work::Election));
            }
            PeerMessage::HeartbeatAck { from, .. } => {
                self.last_ack_ms.insert(from, now_ms);
            }
            PeerMessage::ElectionClaim { candidate, epoch } => {
                let effects = self.election.on_claim(candidate, epoch, now_ms);
                self.sync_role();
                queue.extend(effects.into_iter().map(Work::Election));
            }
            PeerMessage::ElectionAck { voter, epoch } => {
                let effects = self.election.on_ack(voter, epoch);
                queue.extend(effects.into_iter().map(Work::Election));
            }
            PeerMessage::ElectionNack {
                epoch,
                current_coordinator,
                ..
            } => {
                let effects = self.election.on_nack(epoch, current_coordinator, now_ms);
                self.sync_role();
                queue.extend(effects.into_iter().map(Work::Election));
            }
            PeerMessage::ServerList {
                epoch,
                coordinator,
                servers,
            } => {
                let effects = self
                    .election
                    .on_server_list(epoch, coordinator, servers, now_ms);
                self.sync_role();
                queue.extend(effects.into_iter().map(Work::Election));
            }
            // Coordinator-role traffic.
            msg @ (PeerMessage::ForwardRequest { .. }
            | PeerMessage::ForwardBroadcast { .. }
            | PeerMessage::MemberAnnounce { .. }
            | PeerMessage::GroupHosting { .. }) => {
                if self.coordinator.is_some() && self.fenced {
                    // Degraded read-only mode: sequencing and other
                    // mutations get an explicit `Unavailable` reply
                    // instead of silently diverging from the quorum
                    // side (reads, hellos, and bookkeeping still pass).
                    if let Some((to, reject)) = fenced_reject(&msg) {
                        self.metrics.fenced_rejects.inc();
                        self.send_peer(to, reject, queue);
                        return;
                    }
                }
                if let Some(coord) = &mut self.coordinator {
                    let effects = coord.handle_peer(msg, now);
                    queue.extend(effects.into_iter().map(Work::Coord));
                }
                // A non-coordinator silently drops misrouted traffic;
                // the sender's failure detection re-routes it.
            }
            PeerMessage::GroupStateQuery { .. } => {
                if let Some(coord) = &mut self.coordinator {
                    let effects = coord.handle_peer(msg, now);
                    queue.extend(effects.into_iter().map(Work::Coord));
                } else {
                    let effects = self.replica.handle_peer(msg);
                    queue.extend(effects.into_iter().map(Work::Replica));
                }
            }
            // A reply for a quarantined group is the live side's
            // authoritative history: reconcile the divergent suffix
            // through the merge policies before anything else sees it.
            PeerMessage::GroupStateReply {
                group,
                persistence,
                through,
                state,
                updates,
                ..
            } if self.reconciling.contains_key(&group) => {
                let effects =
                    self.reconcile_group(group, persistence, through, state, updates, queue);
                queue.extend(effects.into_iter().map(Work::Replica));
            }
            PeerMessage::GroupStateReply { .. } => {
                // Resync input when coordinating; standby install
                // otherwise. A coordinator's own replica half also
                // wants fresh copies, so feed both.
                if let Some(coord) = &mut self.coordinator {
                    let effects = coord.handle_peer(msg.clone(), now);
                    queue.extend(effects.into_iter().map(Work::Coord));
                }
                let effects = self.replica.handle_peer(msg);
                queue.extend(effects.into_iter().map(Work::Replica));
            }
            // Replica-role traffic. A sequenced copy or outcome coming
            // back from the coordinator closes the forward round trip.
            msg @ (PeerMessage::RequestOutcome { .. }
            | PeerMessage::Sequenced { .. }
            | PeerMessage::Deliver { .. }) => {
                if matches!(
                    msg,
                    PeerMessage::RequestOutcome { .. } | PeerMessage::Sequenced { .. }
                ) {
                    corona_trace::record(
                        corona_trace::Hop::ReplAck,
                        corona_trace::TraceId::NONE,
                        0,
                        0,
                    );
                }
                if let PeerMessage::Sequenced { group, logged, .. } = &msg {
                    self.health.group(*group).note_sequenced(logged.seq.raw());
                }
                let effects = self.replica.handle_peer(msg);
                queue.extend(effects.into_iter().map(Work::Replica));
            }
            PeerMessage::ServerHello { .. }
            | PeerMessage::MembershipSync { .. }
            | PeerMessage::CheckpointAnnounce { .. } => {}
        }
    }

    /// Aligns the coordinator role object with the election state.
    fn sync_role(&mut self) {
        if self.election.is_coordinator() && self.coordinator.is_none() {
            self.coordinator = Some(CoordinatorCore::with_registry(
                &self.config.server_config,
                self.election.epoch(),
                Arc::clone(&self.registry),
            ));
            self.grant_lease();
        } else if !self.election.is_coordinator() && self.coordinator.is_some() {
            // Demoted: a newer epoch fenced us. Our authoritative logs
            // and standby copies may carry a suffix sequenced without
            // quorum, so quarantine them (the resync deliberately
            // offers no state) until each is reconciled against the
            // live coordinator's copy via `reconcile_group`.
            if let Some(coord) = self.coordinator.take() {
                for gid in coord.authoritative().registry().group_ids() {
                    if let Some(log) = coord.authoritative().group_log(gid) {
                        self.reconciling.insert(gid, log.clone());
                    }
                }
            }
            for (gid, log) in self.replica.quarantine_logs() {
                self.reconciling.entry(gid).or_insert(log);
            }
            self.fenced = false;
            self.health.set_fenced(!self.reconciling.is_empty());
        }
    }

    /// Grants a fresh quorum lease on accession: every configured peer
    /// gets one full lease period to start acking before it counts
    /// against the majority.
    fn grant_lease(&mut self) {
        let now = self.now_ms();
        for (id, _) in &self.config.servers {
            if *id != self.me {
                self.last_ack_ms.insert(*id, now);
            }
        }
        if self.fenced {
            self.fenced = false;
            self.health.set_fenced(false);
        }
    }

    /// Steady-state quorum check while coordinating: without fresh
    /// `HeartbeatAck`s from a majority of the *configured* roster
    /// (counting ourselves), fence writes instead of silently
    /// diverging on the minority side of a partition.
    fn check_quorum_lease(&mut self, now_ms: u64) {
        if self.coordinator.is_none() {
            return;
        }
        let ttl = self.config.base_timeout_ms;
        let live = 1 + self
            .config
            .servers
            .iter()
            .filter(|(id, _)| *id != self.me)
            .filter(|(id, _)| {
                self.last_ack_ms
                    .get(id)
                    .is_some_and(|t| now_ms.saturating_sub(*t) <= ttl)
            })
            .count() as u64;
        let need = self.election.majority() as u64;
        if let Some(event) = self.watchdogs.note_quorum(live, need, now_ms) {
            self.health.emit(event);
        }
        let fenced = live < need;
        if fenced != self.fenced {
            self.fenced = fenced;
            self.health.set_fenced(fenced);
            // Tell local clients where the rest of the roster lives so
            // they can fail over to the quorum side.
            self.push_roster_all();
        }
    }

    /// Reconciles a quarantined (possibly divergent) group log against
    /// the live coordinator's authoritative copy (§4.2 merge, wired
    /// in-runtime): find the divergence, adopt the quorum side (or
    /// fast-forward our own suffix when the live side never
    /// progressed), replay the reconciled window to locally homed
    /// clients, and emit `divergence_repaired`.
    fn reconcile_group(
        &mut self,
        group: GroupId,
        persistence: corona_types::policy::Persistence,
        through: SeqNo,
        state: corona_types::state::SharedState,
        updates: Vec<corona_types::state::LoggedUpdate>,
        queue: &mut VecDeque<Work>,
    ) -> Vec<ReplicaEffect> {
        let Some(stale) = self.reconciling.remove(&group) else {
            return Vec::new();
        };
        let mut live = GroupLog::restore(group, state, through, Vec::new());
        for u in updates {
            let _ = live.append_sequenced(u);
        }
        let div = find_divergence(&stale, &live);
        // The live coordinator holds quorum authority; only when it
        // never progressed past the common point is our suffix a
        // conflict-free fast-forward worth keeping.
        let fast_forward = div.side_b.is_empty() && !div.side_a.is_empty();
        let resolution = if fast_forward {
            MergeResolution::Adopt(Side::A)
        } else {
            MergeResolution::Adopt(Side::B)
        };
        let discarded = if fast_forward {
            0
        } else {
            div.side_a.len() as u64
        };
        let reconciled = merge(&div, resolution).primary;
        if div.is_divergent() {
            let event = Watchdogs::divergence_repaired(group, discarded, self.now_ms());
            self.health.emit(event);
        }
        self.metrics.reconciled_groups.inc();
        let effects = self
            .replica
            .install_reconciled(group, reconciled, div.common_seq);
        if fast_forward {
            // The live side is behind: offer the reconciled log so the
            // coordinator adopts the fresher copy.
            if let Some(coordinator) = self.election.coordinator() {
                if let Some(log) = self.replica.standby_log(group) {
                    let offer = PeerMessage::GroupStateReply {
                        from: self.me,
                        group,
                        persistence,
                        through: log.checkpoint_seq(),
                        state: log.checkpoint_state().clone(),
                        updates: log.suffix_iter().cloned().collect(),
                    };
                    self.send_peer(coordinator, offer, queue);
                }
            }
        }
        if self.reconciling.is_empty() {
            self.health.set_fenced(false);
        }
        effects
    }

    fn exec_election(&mut self, eff: ElectionEffect, queue: &mut VecDeque<Work>) {
        match eff {
            ElectionEffect::SendTo(to, msg) => {
                // A fresh claim for a new epoch marks the start of a
                // failover as observed from this server.
                if let PeerMessage::ElectionClaim { candidate, epoch } = &msg {
                    if *candidate == self.me && self.claimed_epoch != Some(*epoch) {
                        self.claimed_epoch = Some(*epoch);
                        self.metrics.election_rounds.inc();
                        if self.failover_started.is_none() {
                            self.failover_started = Some(Instant::now());
                        }
                    }
                }
                self.send_peer(to, msg, queue);
            }
            ElectionEffect::BecomeCoordinator => {
                self.metrics.elections_won.inc();
                self.note_failover_resolved();
                self.note_election_resolved();
                self.coordinator = Some(CoordinatorCore::with_registry(
                    &self.config.server_config,
                    self.election.epoch(),
                    Arc::clone(&self.registry),
                ));
                self.grant_lease();
                self.resynced_epoch = Some(self.election.epoch());
                // Feed our own replica's knowledge into the fresh
                // authoritative state.
                for msg in self.replica.resync_messages() {
                    queue.push_back(Work::Local(msg));
                }
                // Release anything we queued while leaderless.
                while let Some(msg) = self.coord_backlog.pop_front() {
                    queue.push_back(Work::Local(msg));
                }
                self.push_roster_all();
            }
            ElectionEffect::FollowCoordinator(coordinator) => {
                self.note_failover_resolved();
                self.note_election_resolved();
                // Runs the demotion path (with quarantine) if a stale
                // coordinator role is still attached.
                self.sync_role();
                if self.resynced_epoch != Some(self.election.epoch()) {
                    self.resynced_epoch = Some(self.election.epoch());
                    for msg in self.replica.resync_messages() {
                        self.send_peer(coordinator, msg, queue);
                    }
                }
                while let Some(msg) = self.coord_backlog.pop_front() {
                    self.send_peer(coordinator, msg, queue);
                }
                // Quarantined copies from a stale coordinatorship are
                // reconciled against the live side's history.
                let quarantined: Vec<GroupId> = self.reconciling.keys().copied().collect();
                for group in quarantined {
                    self.send_peer(
                        coordinator,
                        PeerMessage::GroupStateQuery {
                            from: self.me,
                            group,
                        },
                        queue,
                    );
                }
                self.push_roster_all();
            }
        }
    }

    fn exec_replica(&mut self, eff: ReplicaEffect, queue: &mut VecDeque<Work>) {
        match eff {
            ReplicaEffect::ToClient { to, event } => self.send_client(to, &event),
            ReplicaEffect::ToClients { recipients, event } => {
                // Encode and frame once; all local recipients share
                // the refcounted body and its computed header.
                let delivered = match &event {
                    ServerEvent::Multicast { group, logged } => {
                        Some((self.health.group(*group), logged.seq.raw()))
                    }
                    _ => None,
                };
                let class = classify(&event);
                let frame = Frame::new(event.encode_to_bytes());
                for to in recipients {
                    if let Some(conn_id) = self.client_conn_of.get(&to) {
                        if let Some((conn, _)) = self.client_conns.get(conn_id) {
                            if self.send_to_conn(conn, frame.clone(), class) {
                                if let Some((cell, seq)) = &delivered {
                                    cell.note_delivered(*seq);
                                }
                            }
                        }
                    }
                }
            }
            ReplicaEffect::ToCoordinator(msg) => {
                if self.election.is_coordinator() {
                    queue.push_back(Work::Local(msg));
                } else if let Some(coordinator) = self.election.coordinator() {
                    self.send_peer(coordinator, msg, queue);
                } else {
                    self.coord_backlog.push_back(msg);
                }
            }
        }
    }

    fn exec_coord(&mut self, eff: CoordEffect, queue: &mut VecDeque<Work>) {
        match eff {
            CoordEffect::ToServer { to, msg } => {
                if to == self.me {
                    // Our own replica half (bypasses `handle_local_peer`,
                    // so the sequencing-progress note happens here too).
                    if let PeerMessage::Sequenced { group, logged, .. } = &msg {
                        self.health.group(*group).note_sequenced(logged.seq.raw());
                    }
                    let effects = self.replica.handle_peer(msg);
                    queue.extend(effects.into_iter().map(Work::Replica));
                } else {
                    self.send_peer(to, msg, queue);
                }
            }
            CoordEffect::Log(_) => {
                // The replicated runtime keeps durability at the
                // replica copies; coordinator-side stable storage is a
                // single-server concern (see DESIGN.md).
            }
        }
    }

    fn send_client(&mut self, to: ClientId, event: &ServerEvent) {
        if let Some(conn_id) = self.client_conn_of.get(&to) {
            if let Some((conn, _)) = self.client_conns.get(conn_id) {
                let frame = Frame::new(event.encode_to_bytes());
                if self.send_to_conn(conn, frame, classify(event)) {
                    if let ServerEvent::Multicast { group, logged } = event {
                        self.health.group(*group).note_delivered(logged.seq.raw());
                    }
                }
            }
        }
    }

    /// Enqueues `frame` on a client connection; `true` if accepted.
    /// An awareness frame meeting a full queue is shed. Any other
    /// failure — dead peer, or a queue too full for a frame the
    /// client cannot do without — closes the connection, so its
    /// reader reports `ClientClosed` and the session is reaped rather
    /// than left with a silent gap.
    fn send_to_conn(
        &self,
        conn: &Arc<Box<dyn Connection>>,
        frame: Frame,
        class: EventClass,
    ) -> bool {
        let result = conn.send_frame(frame);
        self.health.note_queue_depth(conn.backlog() as u64);
        match result {
            Ok(()) => true,
            Err(TransportError::Full) if class == EventClass::Awareness => false,
            Err(_) => {
                conn.close();
                self.metrics.client_send_failed.inc();
                false
            }
        }
    }

    /// The roster advertisement for the current election state, or
    /// `None` when no client address book is configured or no
    /// coordinator is known yet.
    fn roster_event(&self) -> Option<ServerEvent> {
        if self.config.client_addrs.is_empty() {
            return None;
        }
        Some(ServerEvent::Roster {
            epoch: self.election.epoch(),
            coordinator: self.election.coordinator()?,
            servers: self.config.client_addrs.clone(),
        })
    }

    /// Pushes the current roster to one authenticated client
    /// connection (used right after the `Welcome`, which must stay the
    /// first frame of the session).
    fn push_roster_to(&mut self, conn_id: u64) {
        let Some(event) = self.roster_event() else {
            return;
        };
        if let Some((conn, Some(_))) = self.client_conns.get(&conn_id) {
            self.send_to_conn(conn, Frame::new(event.encode_to_bytes()), classify(&event));
        }
    }

    /// Broadcasts the roster to every authenticated local client —
    /// called when an election resolves so clients learn the new
    /// coordinator before their next reconnect.
    fn push_roster_all(&mut self) {
        let Some(event) = self.roster_event() else {
            return;
        };
        let class = classify(&event);
        let frame = Frame::new(event.encode_to_bytes());
        for (conn, client) in self.client_conns.values() {
            if client.is_some() {
                self.send_to_conn(conn, frame.clone(), class);
            }
        }
    }

    /// Closes out an in-flight failover measurement, recording the
    /// duration from this server's first claim to the resolution.
    fn note_failover_resolved(&mut self) {
        if let Some(started) = self.failover_started.take() {
            self.metrics
                .failover_ms
                .record(started.elapsed().as_millis() as u64);
            // A completed election is exactly when a post-mortem is
            // wanted: stamp the span and flush the flight recorder to
            // disk (no-ops unless tracing is enabled).
            corona_trace::record(
                corona_trace::Hop::Election,
                corona_trace::TraceId::NONE,
                started.elapsed().as_micros() as u64,
                self.election.epoch().0,
            );
            if let Some(path) = corona_trace::flight_dump("failover") {
                eprintln!(
                    "corona-replication: flight recorder dumped to {}",
                    path.display()
                );
            }
        }
    }

    /// Counts a resolved election (once per epoch) for the health
    /// plane and feeds the flap detector.
    fn note_election_resolved(&mut self) {
        let epoch = self.election.epoch();
        if self.counted_epoch == Some(epoch) {
            return;
        }
        self.counted_epoch = Some(epoch);
        self.health.note_election();
        let now_ms = self.now_ms();
        if let Some(event) = self.watchdogs.note_election(now_ms) {
            self.health.emit(event);
        }
    }

    /// Assembles the versioned health snapshot: exact membership sizes
    /// and standby tails are published here (snapshot time), while the
    /// monotonic counters accumulate lock-free on the hot path.
    fn build_health_snapshot(&mut self) -> String {
        for group in self.replica.hosted_groups() {
            let cell = self.health.group(group);
            cell.set_members(self.replica.local_members(group).len() as u64);
            if let Some(log) = self.replica.standby_log(group) {
                cell.note_standby_tail(log.last_seq().raw());
            }
        }
        let capacity = self.config.server_config.send_queue_capacity as u64;
        let pressure: Vec<ConnPressure> = self
            .client_conns
            .iter()
            .filter(|(_, (_, client))| client.is_some())
            .map(|(conn_id, (conn, _))| {
                let backlog = conn.backlog() as u64;
                ConnPressure {
                    conn_id: *conn_id,
                    backlog,
                    backpressured: backlog * 2 >= capacity,
                }
            })
            .collect();
        let stalled = self.watchdogs.stalled_groups();
        self.health.snapshot_json(&pressure, &stalled)
    }

    fn send_peer(&mut self, to: ServerId, msg: PeerMessage, _queue: &mut VecDeque<Work>) {
        match &msg {
            PeerMessage::Heartbeat { .. } => self.metrics.heartbeats_sent.inc(),
            PeerMessage::Sequenced { .. } => self.metrics.fanout_sequenced.inc(),
            _ => {}
        }
        // Replication-path infrastructure spans: a broadcast or request
        // leaving for the coordinator marks the forward hop.
        if matches!(
            msg,
            PeerMessage::ForwardBroadcast { .. } | PeerMessage::ForwardRequest { .. }
        ) {
            corona_trace::record(
                corona_trace::Hop::ReplForward,
                corona_trace::TraceId::NONE,
                0,
                u64::from(to),
            );
        }
        self.metrics.peer_sent.inc();
        if to == self.me {
            // Shouldn't normally happen; handle locally to be safe.
            let mut q = VecDeque::from([Work::Local(msg)]);
            self.drain_nested(&mut q);
            return;
        }
        if !self.peer_conns.contains_key(&to) && !self.connect_peer(to) {
            return; // unreachable peer; failure detection handles it
        }
        let mut failed = false;
        if let Some((_, conn)) = self.peer_conns.get(&to) {
            if conn.send(msg.encode_to_bytes()).is_err() {
                failed = true;
            }
        }
        if failed {
            self.peer_conns.remove(&to);
        }
    }

    /// Nested drain used only from `send_peer`'s self-routing fallback;
    /// bounded by the same runaway guard.
    fn drain_nested(&mut self, queue: &mut VecDeque<Work>) {
        let items: VecDeque<Work> = std::mem::take(queue);
        self.drain(items);
    }

    fn connect_peer(&mut self, to: ServerId) -> bool {
        let Some(addr) = self.addr_of.get(&to).cloned() else {
            return false;
        };
        let Ok(conn) = self.dialer.dial(&addr) else {
            return false;
        };
        let conn: Arc<Box<dyn Connection>> = Arc::new(conn);
        if conn
            .send(PeerMessage::ServerHello { server: self.me }.encode_to_bytes())
            .is_err()
        {
            return false;
        }
        self.next_conn_id += 1;
        let conn_id = 3_000_000 + self.next_conn_id;
        let tx = self.cmd_tx.clone();
        let reader = Arc::clone(&conn);
        std::thread::Builder::new()
            .name(format!("repl-{}-dial-{to}", self.me))
            .spawn(move || {
                while let Ok(frame) = reader.recv() {
                    if tx.send(Command::PeerFrame { conn_id, frame }).is_err() {
                        return;
                    }
                }
                let _ = tx.send(Command::PeerClosed { conn_id });
            })
            .expect("spawn dialed peer reader");
        self.peer_conns.insert(to, (conn_id, conn));
        true
    }
}

/// The `Unavailable` reply for a message refused while write-fenced,
/// or `None` when the message may pass. Degraded read-only mode:
/// sequencing (`ForwardBroadcast`) and mutating control requests are
/// refused; reads, hellos, goodbyes, and hosting/membership
/// bookkeeping stay available.
fn fenced_reject(msg: &PeerMessage) -> Option<(ServerId, PeerMessage)> {
    let unavailable =
        |origin: ServerId, local_tag: u64, client: ClientId| PeerMessage::RequestOutcome {
            origin,
            local_tag,
            client,
            events: vec![ServerEvent::Error {
                code: ErrorCode::Unavailable.to_wire(),
                detail: "coordinator fenced: quorum lease lost".to_string(),
            }],
        };
    match msg {
        PeerMessage::ForwardBroadcast {
            origin,
            sender,
            local_tag,
            ..
        } => Some((*origin, unavailable(*origin, *local_tag, *sender))),
        PeerMessage::ForwardRequest {
            origin,
            client,
            local_tag,
            request,
        } => {
            let mutates = matches!(
                request,
                ClientRequest::CreateGroup { .. }
                    | ClientRequest::DeleteGroup { .. }
                    | ClientRequest::Join { .. }
                    | ClientRequest::Leave { .. }
                    | ClientRequest::Broadcast { .. }
                    | ClientRequest::AcquireLock { .. }
                    | ClientRequest::ReleaseLock { .. }
                    | ClientRequest::ReduceLog { .. }
            );
            mutates.then(|| (*origin, unavailable(*origin, *local_tag, *client)))
        }
        _ => None,
    }
}
