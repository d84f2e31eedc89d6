//! The replicated Corona server: the runtime kernel plus a peer
//! protocol.
//!
//! Each process runs a [`ReplicatedServer`]: a replica that terminates
//! client connections, plus — when elected — the coordinator role.
//! The star topology of §4.1 emerges at runtime: member servers hold a
//! peer connection to the acting coordinator; during elections they
//! dial each other directly (every server knows the startup-ordered
//! peer list, §4.2).
//!
//! The client plane — accept, decode, dispatch, fan-out, QoS, reaping,
//! health, `server.*` metrics — is [`corona_core::kernel`], the very
//! loop a single [`corona_core::server::CoronaServer`] runs, driving
//! [`ReplicaCore`]. This module is what hangs off the kernel's peer
//! hooks: routing between the replica, coordinator and election cores,
//! the quorum lease and write fence, and quarantine → merge
//! reconciliation after a heal. It spawns no thread: ticks come from
//! the dispatcher, and dialled peer links push their frames to the
//! kernel from the transport's dial loop, which then turns the
//! dispatcher for them. What one dispatcher batch
//! sends a peer leaves in one flush — one `writev` on TCP. It reads no
//! clock either: every timer runs on [`Io::now_ms`], and every table
//! whose iteration order reaches a wire is ordered, so a
//! [`ReplicatedServer::stepped`] cluster replays from its inputs alone.
//!
//! The peer plane encodes once, like the client plane: the coordinator
//! routes one `Sequenced` per hosting follower, and the frame of the
//! first is queued on every follower link (`Replica::peer_frame_of`).
//! A peer frame is decoded as slices of itself, so a payload that a
//! standby log keeps keeps its received frame alive — one exact-size
//! buffer per frame, as the kernel's module docs describe.
//!
//! Clients speak the *same* wire protocol as against a single server.
//! A trace token is honoured on the local hops but not threaded through
//! [`PeerMessage`]: replication hops record as infrastructure spans.

use crate::coordinator::{CoordEffect, CoordinatorCore};
use crate::election::{ElectionCore, ElectionEffect};
use crate::merge::{find_divergence, merge, MergeResolution, Side};
use crate::replica::{ReplicaCore, ReplicaEffect};
use bytes::Bytes;
use corona_core::kernel::{Io, Kernel, Protocol};
use corona_core::ServerConfig;
use corona_health::{HealthRegistry, Watchdogs};
use corona_metrics::{Counter, Histogram, MetricsSnapshot, Registry};
use corona_statelog::GroupLog;
use corona_trace::{record, Hop, TraceId};
use corona_transport::{Dialer, Listener};
use corona_types::error::{CodecError, CoronaError, ErrorCode, Result};
use corona_types::frame::Frame;
use corona_types::id::{ClientId, Epoch, GroupId, SeqNo, ServerId};
use corona_types::message::{ClientRequest, PeerMessage, ServerEvent};
use corona_types::state::Timestamp;
use corona_types::wire::{encode_frame, Decode, Encode};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

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
    /// Whether it is one that has lost its quorum lease: it refuses
    /// writes until a majority acknowledges its heartbeats again.
    pub fenced: bool,
    /// The coordinator this server believes in, if any.
    pub coordinator: Option<ServerId>,
    /// The current epoch.
    pub epoch: Epoch,
    /// Locally connected clients.
    pub local_clients: usize,
    /// Locally hosted groups.
    pub hosted_groups: usize,
}

/// A running replicated Corona server. Dropping it shuts it down.
#[derive(Debug)]
pub struct ReplicatedServer {
    me: ServerId,
    client_addr: String,
    kernel: Kernel<Replica>,
}

/// Replication-layer metric handles; DESIGN.md §7 tabulates names,
/// units and meanings. (Client connections are the kernel's `server.*`.)
struct ReplMetrics {
    heartbeats_sent: Arc<Counter>,
    heartbeats_recv: Arc<Counter>,
    heartbeat_gap_ms: Arc<Histogram>,
    election_rounds: Arc<Counter>,
    elections_won: Arc<Counter>,
    failover_ms: Arc<Histogram>,
    peer_sent: Arc<Counter>,
    peer_send_failed: Arc<Counter>,
    peer_decode_errors: Arc<Counter>,
    fanout_sequenced: Arc<Counter>,
    fenced_rejects: Arc<Counter>,
    reconciled_groups: Arc<Counter>,
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
            peer_send_failed: registry.counter("repl.peer.send_failed"),
            peer_decode_errors: registry.counter("repl.peer.decode_errors"),
            fanout_sequenced: registry.counter("repl.fanout.sequenced"),
            fenced_rejects: registry.counter("repl.fenced.rejects"),
            reconciled_groups: registry.counter("repl.reconciled.groups"),
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
    /// [`CoronaError::InvalidState`] if this server is missing from
    /// `config.servers`, or a listener is already serving (connections
    /// are lazy; nothing else can fail).
    pub fn start(
        client_listener: Box<dyn Listener>,
        peer_listener: Box<dyn Listener>,
        dialer: Arc<dyn Dialer>,
        config: ReplicatedConfig,
    ) -> Result<ReplicatedServer> {
        Self::new(client_listener, peer_listener, dialer, config, false)
    }

    /// [`ReplicatedServer::start`] with no thread of its own: the
    /// caller turns the dispatcher with
    /// [`ReplicatedServer::run_pending`], at the time it says it is.
    ///
    /// # Errors
    ///
    /// As [`ReplicatedServer::start`].
    pub fn stepped(
        client_listener: Box<dyn Listener>,
        peer_listener: Box<dyn Listener>,
        dialer: Arc<dyn Dialer>,
        config: ReplicatedConfig,
    ) -> Result<ReplicatedServer> {
        Self::new(client_listener, peer_listener, dialer, config, true)
    }

    fn new(
        client_listener: Box<dyn Listener>,
        peer_listener: Box<dyn Listener>,
        dialer: Arc<dyn Dialer>,
        config: ReplicatedConfig,
        stepped: bool,
    ) -> Result<ReplicatedServer> {
        let me = config.server_config.server_id;
        if !config.servers.iter().any(|(id, _)| *id == me) {
            return Err(CoronaError::InvalidState(format!(
                "server {me} missing from the configured server list"
            )));
        }
        let client_addr = client_listener.local_addr();
        let registry = Registry::new();
        let server_config = config.server_config.clone();
        let replica = Replica::new(config, dialer, Arc::clone(&registry));
        let peers = Some(peer_listener);
        let kernel = if stepped {
            Kernel::stepped(&server_config, registry, replica, client_listener, peers)?
        } else {
            let name = format!("repl-{me}");
            Kernel::start(
                &name,
                &server_config,
                registry,
                replica,
                client_listener,
                peers,
            )?
        };
        Ok(ReplicatedServer {
            me,
            client_addr,
            kernel,
        })
    }

    /// One dispatcher turn of a [stepped](ReplicatedServer::stepped)
    /// server at `now_ms`; see [`Kernel::run_pending`].
    pub fn run_pending(&self, now_ms: u64) -> bool {
        self.kernel.run_pending(now_ms)
    }

    /// When a [stepped](ReplicatedServer::stepped) server's next tick
    /// — heartbeats, lease check, election timer — is due.
    pub fn next_tick_ms(&self) -> u64 {
        self.kernel.next_tick_ms()
    }

    /// This server's id.
    pub fn server_id(&self) -> ServerId {
        self.me
    }

    /// The address clients dial.
    pub fn client_addr(&self) -> String {
        self.client_addr.clone()
    }

    /// An introspection snapshot, answered by the dispatcher (at once,
    /// on a stepped server).
    ///
    /// # Errors
    ///
    /// [`CoronaError::Closed`] after shutdown.
    pub fn status(&self) -> Result<ReplicaStatus> {
        self.kernel.call(|replica, io| ReplicaStatus {
            me: replica.me,
            is_coordinator: replica.election.is_coordinator(),
            fenced: replica.fenced,
            coordinator: replica.election.coordinator(),
            epoch: replica.election.epoch(),
            local_clients: io.clients().len(),
            hosted_groups: replica.replica.hosted_groups().len(),
        })
    }

    /// A snapshot of this server's metric registry (the kernel's
    /// `server.*`, the `repl.*` set, plus the coordinator core's
    /// sequencing counters while this server holds the role). Taken
    /// directly from the shared registry — values may trail the
    /// dispatcher by a few operations.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.kernel.registry.snapshot()
    }

    /// The metric registry shared by this server's roles.
    pub fn metrics_registry(&self) -> Arc<Registry> {
        Arc::clone(&self.kernel.registry)
    }

    /// A versioned JSON health snapshot assembled by the dispatcher
    /// (same payload clients receive for `ClientRequest::GetHealth`).
    ///
    /// # Errors
    ///
    /// [`CoronaError::Closed`] after shutdown.
    pub fn health_json(&self) -> Result<String> {
        self.kernel.health_json()
    }

    /// The live health registry (lock-free cells; readable without
    /// round-tripping through the dispatcher).
    pub fn health_registry(&self) -> Arc<HealthRegistry> {
        Arc::clone(&self.kernel.health)
    }

    /// Orderly shutdown (what dropping the handle does).
    pub fn shutdown(self) {}
}

/// Internal work items processed iteratively (no recursion).
enum Work {
    /// A peer message to handle locally.
    Local(PeerMessage),
    Replica(ReplicaEffect),
    Coord(CoordEffect),
    Election(ElectionEffect),
}

/// The replica's [`Protocol`]: the three cores and the routing between
/// them.
struct Replica {
    me: ServerId,
    config: ReplicatedConfig,
    dialer: Arc<dyn Dialer>,
    election: ElectionCore,
    replica: ReplicaCore,
    coordinator: Option<CoordinatorCore>,
    /// The kernel's id of the live peer link to each server.
    peer_conns: BTreeMap<ServerId, u64>,
    /// Coordinator-bound messages buffered while no coordinator is
    /// known (mid-election).
    coord_backlog: VecDeque<PeerMessage>,
    /// Epoch whose coordinator we already resynced with.
    resynced_epoch: Option<Epoch>,
    registry: Arc<Registry>,
    metrics: ReplMetrics,
    /// When the last coordinator heartbeat arrived (gap histogram).
    last_heartbeat: Option<u64>,
    /// When this server first claimed the epoch it is electing for;
    /// cleared (into `repl.failover_ms`) once a coordinator resolves.
    /// Kernel milliseconds ([`Io::now_ms`]), like every time here.
    failover_started: Option<u64>,
    /// Highest epoch this server has claimed (one round per epoch).
    claimed_epoch: Option<Epoch>,
    /// Last epoch counted as a resolved election by the health plane
    /// (startup epoch pre-counted so boot is not an "election").
    counted_epoch: Option<Epoch>,
    /// Quorum lease while coordinating: when each follower's last
    /// `HeartbeatAck` arrived (kernel milliseconds, [`Io::now_ms`]).
    last_ack_ms: BTreeMap<ServerId, u64>,
    /// Whether the coordinator role is write-fenced (lease over a
    /// majority of the configured roster lost).
    fenced: bool,
    /// Group logs quarantined at demotion, awaiting reconciliation
    /// against the live coordinator's authoritative copies.
    reconciling: BTreeMap<GroupId, GroupLog>,
    /// [`Replica::drain`]'s work queue, kept between calls (empty) so
    /// that a step allocates none.
    work: VecDeque<Work>,
    /// The last `Sequenced` sent to a follower, and its frame: the
    /// coordinator sends the same message to every follower hosting the
    /// group, one after another, and it is encoded and checksummed once.
    sequenced: Option<(PeerMessage, Frame)>,
}

impl Protocol for Replica {
    type Effect = ReplicaEffect;

    fn client_hello(
        &mut self,
        display_name: String,
        resume: Option<ClientId>,
    ) -> (ClientId, Vec<ReplicaEffect>) {
        let (client, mut effects) = self.replica.client_hello(display_name, resume);
        // After the Welcome (which must be the session's first frame)
        // tell the new client where every replica lives.
        let roster = self.roster_event();
        effects.extend(roster.map(|event| ReplicaEffect::ToClient { to: client, event }));
        (client, effects)
    }

    fn handle_request(
        &mut self,
        client: ClientId,
        request: ClientRequest,
        now: Timestamp,
    ) -> Vec<ReplicaEffect> {
        self.replica.handle_request(client, request, now)
    }

    fn client_disconnected(&mut self, client: ClientId) -> Vec<ReplicaEffect> {
        self.replica.client_disconnected(client)
    }

    fn execute(&mut self, effects: Vec<ReplicaEffect>, io: &mut Io) {
        self.drain(effects.into_iter().map(Work::Replica), io);
    }

    fn refresh_health(&self, health: &HealthRegistry) {
        for group in self.replica.hosted_groups() {
            let cell = health.group(group);
            cell.set_members(self.replica.local_members(group).len() as u64);
            if let Some(log) = self.replica.standby_log(group) {
                cell.note_standby_tail(log.last_seq().raw());
            }
        }
    }

    fn tick_every(&self) -> Option<Duration> {
        Some(Duration::from_millis((self.config.heartbeat_ms / 2).max(5)))
    }

    fn tick(&mut self, io: &mut Io) {
        let now = io.now_ms();
        let mut work: Vec<Work> = self
            .election
            .on_tick(now)
            .into_iter()
            .map(Work::Election)
            .collect();
        if self.election.is_coordinator() {
            self.check_quorum_lease(now, io);
            work.extend(
                self.election
                    .coordinator_heartbeats()
                    .into_iter()
                    .map(Work::Election),
            );
        }
        self.drain(work, io);
    }

    fn peer_frame(&mut self, conn_id: u64, frame: &Bytes, io: &mut Io) {
        let Ok(msg) = PeerMessage::decode_frame(frame) else {
            // Version-skewed or hostile: dropped, like a client's.
            self.metrics.peer_decode_errors.inc();
            io.close_peer(conn_id);
            return;
        };
        // First message on an accepted peer connection introduces it.
        if let PeerMessage::ServerHello { server } = msg {
            self.peer_conns.insert(server, conn_id);
            return;
        }
        self.drain([Work::Local(msg)], io);
    }

    fn peer_closed(&mut self, conn_id: u64, io: &mut Io) {
        let gone: Vec<ServerId> = self
            .peer_conns
            .iter()
            .filter(|(_, id)| **id == conn_id)
            .map(|(s, _)| *s)
            .collect();
        for server in gone {
            self.peer_conns.remove(&server);
            if self.election.is_coordinator() {
                if let Some(coord) = &mut self.coordinator {
                    let effects = coord.server_crashed(server);
                    self.drain(effects.into_iter().map(Work::Coord), io);
                }
            }
            // A follower that lost its coordinator link relies on the
            // heartbeat timeout to trigger the election.
        }
    }
}

impl Replica {
    fn new(config: ReplicatedConfig, dialer: Arc<dyn Dialer>, registry: Arc<Registry>) -> Self {
        let me = config.server_config.server_id;
        let order: Vec<ServerId> = config.servers.iter().map(|(id, _)| *id).collect();
        let election = ElectionCore::new(me, order, config.base_timeout_ms, 0);
        let mut coordinator = None;
        if election.is_coordinator() {
            coordinator = Some(CoordinatorCore::with_registry(
                &config.server_config,
                Epoch::ZERO,
                Arc::clone(&registry),
            ));
        }
        let mut replica = Replica {
            me,
            dialer,
            election,
            replica: ReplicaCore::new(me),
            coordinator,
            peer_conns: BTreeMap::new(),
            coord_backlog: VecDeque::new(),
            resynced_epoch: Some(Epoch::ZERO),
            metrics: ReplMetrics::new(&registry),
            registry,
            last_heartbeat: None,
            failover_started: None,
            claimed_epoch: None,
            counted_epoch: Some(Epoch::ZERO),
            last_ack_ms: BTreeMap::new(),
            fenced: false,
            reconciling: BTreeMap::new(),
            work: VecDeque::new(),
            sequenced: None,
            config,
        };
        if replica.coordinator.is_some() {
            // The kernel's clock starts with the server: boot is 0 ms.
            replica.renew_lease(0);
        }
        replica
    }

    /// Processes work items iteratively, expanding effects in place.
    fn drain(&mut self, work: impl IntoIterator<Item = Work>, io: &mut Io) {
        // Taken, so that a nested drain (a message to ourselves) runs
        // on a queue of its own.
        let mut queue = std::mem::take(&mut self.work);
        queue.extend(work);
        let mut steps = 0u32;
        while let Some(item) = queue.pop_front() {
            steps += 1;
            if steps > 100_000 {
                // Defensive: a routing loop would otherwise spin the
                // dispatcher forever.
                eprintln!("corona-replication: work queue runaway, dropping remainder");
                queue.clear();
                break;
            }
            match item {
                Work::Local(msg) => self.handle_local_peer(msg, &mut queue, io),
                Work::Replica(eff) => self.exec_replica(eff, &mut queue, io),
                Work::Coord(eff) => self.exec_coord(eff, &mut queue, io),
                Work::Election(eff) => self.exec_election(eff, &mut queue, io),
            }
        }
        self.work = queue;
    }

    fn handle_local_peer(&mut self, msg: PeerMessage, queue: &mut VecDeque<Work>, io: &mut Io) {
        let now_ms = io.now_ms();
        let now = Timestamp::now();
        match msg {
            PeerMessage::Heartbeat { from, epoch } => {
                self.metrics.heartbeats_recv.inc();
                if let Some(prev) = self.last_heartbeat.replace(now_ms) {
                    self.metrics.heartbeat_gap_ms.record(now_ms - prev);
                }
                let effects = self.election.on_heartbeat(from, epoch, now_ms);
                self.sync_role(io);
                if !self.election.is_coordinator() {
                    // Ack the coordinator's heartbeat: the acks are its
                    // quorum lease (see `check_quorum_lease`).
                    self.send_peer(
                        from,
                        PeerMessage::HeartbeatAck {
                            from: self.me,
                            epoch: self.election.epoch(),
                        },
                        io,
                    );
                }
                queue.extend(effects.into_iter().map(Work::Election));
            }
            PeerMessage::HeartbeatAck { from, .. } => {
                self.last_ack_ms.insert(from, now_ms);
            }
            PeerMessage::ElectionClaim { candidate, epoch } => {
                let effects = self.election.on_claim(candidate, epoch, now_ms);
                self.sync_role(io);
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
                self.sync_role(io);
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
                self.sync_role(io);
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
                        self.send_peer(to, reject, io);
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
                let effects = self.reconcile_group(group, persistence, through, state, updates, io);
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
                    record(Hop::ReplAck, TraceId::NONE, 0, 0);
                }
                if let PeerMessage::Sequenced { group, logged, .. } = &msg {
                    io.health.group(*group).note_sequenced(logged.seq.raw());
                }
                let effects = self.replica.handle_peer(msg);
                queue.extend(effects.into_iter().map(Work::Replica));
            }
            PeerMessage::ServerHello { .. } => {}
        }
    }

    /// Aligns the coordinator role object with the election state.
    fn sync_role(&mut self, io: &mut Io) {
        if self.election.is_coordinator() && self.coordinator.is_none() {
            self.take_office(io);
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
            io.health.set_fenced(!self.reconciling.is_empty());
        }
    }

    /// Takes up the coordinator role for the current epoch, with a
    /// fresh quorum lease: every configured peer gets one full lease
    /// period to start acking before it counts against the majority.
    fn take_office(&mut self, io: &Io) {
        self.coordinator = Some(CoordinatorCore::with_registry(
            &self.config.server_config,
            self.election.epoch(),
            Arc::clone(&self.registry),
        ));
        self.renew_lease(io.now_ms());
        if self.fenced {
            self.fenced = false;
            io.health.set_fenced(false);
        }
    }

    fn renew_lease(&mut self, now_ms: u64) {
        for (id, _) in &self.config.servers {
            if *id != self.me {
                self.last_ack_ms.insert(*id, now_ms);
            }
        }
    }

    /// Steady-state quorum check while coordinating: without fresh
    /// `HeartbeatAck`s from a majority of the *configured* roster
    /// (counting ourselves), fence writes instead of silently
    /// diverging on the minority side of a partition.
    fn check_quorum_lease(&mut self, now_ms: u64, io: &mut Io) {
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
        if let Some(event) = io.watchdogs.note_quorum(live, need, now_ms) {
            io.health.emit(event);
        }
        let fenced = live < need;
        if fenced != self.fenced {
            self.fenced = fenced;
            io.health.set_fenced(fenced);
            // Tell local clients where the rest of the roster lives so
            // they can fail over to the quorum side.
            self.push_roster_all(io);
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
        io: &mut Io,
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
            let event = Watchdogs::divergence_repaired(group, discarded, io.now_ms());
            io.health.emit(event);
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
                    self.send_peer(coordinator, offer, io);
                }
            }
        }
        if self.reconciling.is_empty() {
            io.health.set_fenced(false);
        }
        effects
    }

    fn exec_election(&mut self, eff: ElectionEffect, queue: &mut VecDeque<Work>, io: &mut Io) {
        match eff {
            ElectionEffect::SendTo(to, msg) => {
                // A fresh claim for a new epoch marks the start of a
                // failover as observed from this server.
                if let PeerMessage::ElectionClaim { candidate, epoch } = &msg {
                    if *candidate == self.me && self.claimed_epoch != Some(*epoch) {
                        self.claimed_epoch = Some(*epoch);
                        self.metrics.election_rounds.inc();
                        self.failover_started.get_or_insert(io.now_ms());
                    }
                }
                self.send_peer(to, msg, io);
            }
            ElectionEffect::BecomeCoordinator => {
                self.metrics.elections_won.inc();
                self.note_failover_resolved(io.now_ms());
                self.note_election_resolved(io);
                self.take_office(io);
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
                self.push_roster_all(io);
            }
            ElectionEffect::FollowCoordinator(coordinator) => {
                self.note_failover_resolved(io.now_ms());
                self.note_election_resolved(io);
                // Runs the demotion path (with quarantine) if a stale
                // coordinator role is still attached.
                self.sync_role(io);
                if self.resynced_epoch != Some(self.election.epoch()) {
                    self.resynced_epoch = Some(self.election.epoch());
                    for msg in self.replica.resync_messages() {
                        self.send_peer(coordinator, msg, io);
                    }
                }
                while let Some(msg) = self.coord_backlog.pop_front() {
                    self.send_peer(coordinator, msg, io);
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
                        io,
                    );
                }
                self.push_roster_all(io);
            }
        }
    }

    fn exec_replica(&mut self, eff: ReplicaEffect, queue: &mut VecDeque<Work>, io: &mut Io) {
        match eff {
            ReplicaEffect::ToClient { to, event } => io.send(to, &event),
            ReplicaEffect::ToClients { recipients, event } => {
                let group = match &event {
                    ServerEvent::Multicast { group, .. } => Some(*group),
                    _ => None,
                };
                io.multicast(group, &recipients, &event);
                self.replica.recycle_recipients(recipients);
            }
            ReplicaEffect::ToCoordinator(msg) => {
                if self.election.is_coordinator() {
                    queue.push_back(Work::Local(msg));
                } else if let Some(coordinator) = self.election.coordinator() {
                    self.send_peer(coordinator, msg, io);
                } else {
                    self.coord_backlog.push_back(msg);
                }
            }
        }
    }

    fn exec_coord(&mut self, eff: CoordEffect, queue: &mut VecDeque<Work>, io: &mut Io) {
        match eff {
            CoordEffect::ToServer { to, msg } => {
                if to == self.me {
                    // Our own replica half (bypasses `handle_local_peer`,
                    // so the sequencing-progress note happens here too).
                    if let PeerMessage::Sequenced { group, logged, .. } = &msg {
                        io.health.group(*group).note_sequenced(logged.seq.raw());
                    }
                    let effects = self.replica.handle_peer(msg);
                    queue.extend(effects.into_iter().map(Work::Replica));
                } else {
                    self.send_peer(to, msg, io);
                }
            }
            CoordEffect::Log(_) => {
                // The replicated runtime keeps durability at the
                // replica copies; coordinator-side stable storage is a
                // single-server concern (see DESIGN.md).
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

    /// Broadcasts the roster to every authenticated local client —
    /// called when an election resolves so clients learn the new
    /// coordinator before their next reconnect.
    fn push_roster_all(&mut self, io: &mut Io) {
        if let Some(event) = self.roster_event() {
            io.multicast(None, &io.clients(), &event);
        }
    }

    /// Closes out an in-flight failover measurement, recording the
    /// duration from this server's first claim to the resolution.
    fn note_failover_resolved(&mut self, now_ms: u64) {
        if let Some(started) = self.failover_started.take() {
            let took_ms = now_ms - started;
            self.metrics.failover_ms.record(took_ms);
            // A completed election is exactly when a post-mortem is
            // wanted: stamp the span and flush the flight recorder to
            // disk (no-ops unless tracing is enabled).
            record(
                Hop::Election,
                TraceId::NONE,
                took_ms * 1000,
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
    fn note_election_resolved(&mut self, io: &mut Io) {
        let epoch = self.election.epoch();
        if self.counted_epoch == Some(epoch) {
            return;
        }
        self.counted_epoch = Some(epoch);
        io.health.note_election();
        let now_ms = io.now_ms();
        if let Some(event) = io.watchdogs.note_election(now_ms) {
            io.health.emit(event);
        }
    }

    /// Sends `msg` to `to`, dialling first if no link is up. A message
    /// that cannot be sent is counted and dropped — with the link, so
    /// the next send re-dials; failure detection and the post-election
    /// resync repair what it carried. A message no frame can carry is
    /// dropped without the link; if it was the reply to a forwarded
    /// request (a `Joined` with a large group's state), the requester
    /// gets the refusal in its place.
    fn send_peer(&mut self, to: ServerId, msg: PeerMessage, io: &mut Io) {
        let frame = match self.peer_frame_of(&msg) {
            Ok(frame) => frame,
            Err(cause) => {
                let PeerMessage::RequestOutcome {
                    origin,
                    local_tag,
                    client,
                    ..
                } = msg
                else {
                    self.metrics.peer_send_failed.inc();
                    return;
                };
                let refused = PeerMessage::RequestOutcome {
                    origin,
                    local_tag,
                    client,
                    events: vec![io.refusal(&cause)],
                };
                return self.send_peer(to, refused, io);
            }
        };
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
            record(Hop::ReplForward, TraceId::NONE, 0, u64::from(to));
        }
        self.metrics.peer_sent.inc();
        if to == self.me {
            // Shouldn't normally happen; handle locally to be safe.
            self.drain([Work::Local(msg)], io);
            return;
        }
        let link = self.peer_conns.get(&to).copied();
        if let Some(conn_id) = link.or_else(|| self.connect_peer(to, io)) {
            if io.send_peer(conn_id, frame) {
                return;
            }
            self.peer_conns.remove(&to);
            io.close_peer(conn_id);
        }
        self.metrics.peer_send_failed.inc();
    }

    /// The frame that carries `msg` to a peer. A `Sequenced` reuses the
    /// frame of the last one when it is the same message: the peer
    /// plane encodes a broadcast once, however many followers host its
    /// group, as the client plane does for its members.
    fn peer_frame_of(&mut self, msg: &PeerMessage) -> std::result::Result<Frame, CodecError> {
        if !matches!(msg, PeerMessage::Sequenced { .. }) {
            return encode_frame(msg, None);
        }
        if let Some((last, frame)) = &self.sequenced {
            if last == msg {
                return Ok(frame.clone());
            }
        }
        let frame = encode_frame(msg, None)?;
        self.sequenced = Some((msg.clone(), frame.clone()));
        Ok(frame)
    }

    /// Dials `to`, introduces this server, and hands the link to the
    /// kernel to read. This runs on the dispatcher, between client
    /// requests and heartbeats, so the connect is bounded by one
    /// heartbeat period: a black-holed peer (no answer to a SYN) costs
    /// each attempt that, not the kernel's minutes of SYN retries, and
    /// a heartbeat round to the live peers slips by a period per dead
    /// one rather than past the failure detector's `base_timeout_ms`.
    /// The dispatcher may be turned by a transport thread — a reactor
    /// shard, or the dial loop every dialled link in the process shares
    /// — so a dead peer can hold that thread, and the connections it
    /// serves, for up to the same heartbeat period.
    fn connect_peer(&mut self, to: ServerId, io: &mut Io) -> Option<u64> {
        let (_, addr) = self.config.servers.iter().find(|(id, _)| *id == to)?;
        let bound = Duration::from_millis(self.config.heartbeat_ms.max(1));
        let conn = self.dialer.dial_timeout(addr, bound).ok()?;
        let hello = PeerMessage::ServerHello { server: self.me };
        conn.send(hello.encode_to_bytes()).ok()?;
        let conn_id = io.adopt_peer(conn);
        self.peer_conns.insert(to, conn_id);
        Some(conn_id)
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

#[cfg(test)]
mod tests {
    use super::*;
    use corona_transport::TcpDialer;
    use corona_types::id::ObjectId;
    use corona_types::policy::DeliveryScope;
    use corona_types::state::{LoggedUpdate, StateUpdate};

    fn sequenced(seq: u64) -> PeerMessage {
        PeerMessage::Sequenced {
            group: GroupId::new(1),
            epoch: Epoch::ZERO,
            logged: LoggedUpdate {
                seq: SeqNo::new(seq),
                sender: ClientId::new(7),
                timestamp: Timestamp::from_micros(5),
                update: StateUpdate::incremental(ObjectId::new(1), vec![1u8; 256]),
            },
            scope: DeliveryScope::SenderInclusive,
            origin: ServerId::new(2),
            local_tag: seq,
        }
    }

    #[test]
    fn a_sequenced_is_framed_once_for_every_follower() {
        let me = ServerId::new(1);
        let config = ReplicatedConfig::new(me, vec![(me, "s1".to_string())]);
        let mut replica = Replica::new(config, Arc::new(TcpDialer), Registry::new());
        let body = |msg: &PeerMessage, replica: &mut Replica| {
            replica.peer_frame_of(msg).unwrap().into_body()
        };
        let first = body(&sequenced(1), &mut replica);
        assert_eq!(first, sequenced(1).encode_to_bytes());
        let again = body(&sequenced(1), &mut replica);
        assert_eq!(first.as_ptr(), again.as_ptr(), "the same frame, shared");
        let next = body(&sequenced(2), &mut replica);
        assert_eq!(next, sequenced(2).encode_to_bytes());
        assert_ne!(next.as_ptr(), first.as_ptr());
        // Any other message is encoded for its one send.
        let heartbeat = PeerMessage::Heartbeat {
            from: me,
            epoch: Epoch::ZERO,
        };
        let a = body(&heartbeat, &mut replica);
        let b = body(&heartbeat, &mut replica);
        assert_eq!(a, b);
        assert_ne!(a.as_ptr(), b.as_ptr());
    }
}
