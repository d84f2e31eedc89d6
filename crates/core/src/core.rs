//! The Corona server as a pure state machine.
//!
//! [`ServerCore`] holds every piece of server state (groups, logs,
//! locks, clients) and maps inputs — client requests, connects,
//! disconnects — to a list of [`Effect`]s: events to send and records
//! to hand to the (asynchronous) stable-storage logger. It performs
//! **no I/O and reads no clocks**; the caller supplies timestamps.
//!
//! One runtime drives it, the [`kernel`](crate::kernel), under two
//! clocks:
//!
//! * the wall clock, on whichever thread turns the dispatcher of a
//!   [`crate::server`] or of a replica (real transports), and
//! * the DES clock of `corona-sim`, which steps the same kernel —
//!   inside each replica of a simulated cluster, where this core is the
//!   coordinator's authoritative state — at virtual times.
//!
//! Because one core instance is driven from a single dispatcher (a
//! thread, or one simulated event at a time), sequence numbers assigned here give
//! each group a total order; per-sender FIFO follows from ordered
//! connections.

use crate::config::{ServerConfig, Statefulness};
use corona_membership::{AcquireOutcome, MembershipError};
use corona_membership::{Action, GroupRegistry, LockTable, RegistryError, SessionPolicy};
use corona_metrics::{Counter, Histogram, Registry};
use corona_statelog::{GroupLog, ReductionPolicy};
use corona_types::error::ErrorCode;
use corona_types::id::{ClientId, GroupId, IdAllocator, SeqNo, ServerId};
use corona_types::message::{ClientRequest, ServerEvent, StateTransfer, PROTOCOL_VERSION};
use corona_types::policy::{
    DeliveryScope, MemberInfo, MembershipChange, Persistence, StateTransferPolicy,
};
use corona_types::state::{LoggedUpdate, SharedState, Timestamp};
use std::collections::HashMap;
use std::sync::Arc;

/// A stable-storage instruction emitted by the core; executed by the
/// logger thread so disk I/O stays off the multicast critical path
/// (§6: "the service can multicast data to a group in parallel with
/// disk logging").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogEffect {
    /// Create on-disk state for a (persistent) group.
    CreateGroup {
        /// The group.
        group: GroupId,
        /// Always [`Persistence::Persistent`] today; carried for the
        /// record format.
        persistence: Persistence,
        /// The creation-time shared state.
        initial: SharedState,
    },
    /// Append one sequenced update.
    Append {
        /// The group.
        group: GroupId,
        /// The update.
        update: LoggedUpdate,
    },
    /// Persist a checkpoint after log reduction.
    Checkpoint {
        /// The group.
        group: GroupId,
        /// Lifetime semantics (stored in the snapshot).
        persistence: Persistence,
        /// Sequence number the checkpoint reflects.
        through: SeqNo,
        /// The checkpoint state.
        state: SharedState,
        /// Retained suffix updates (rewritten into the fresh log).
        suffix: Vec<LoggedUpdate>,
    },
    /// Remove a group's on-disk state.
    DeleteGroup {
        /// The group.
        group: GroupId,
    },
}

/// An output of the core: either an event for a client or a
/// stable-storage instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// Send `event` to `to`.
    Send {
        /// Destination client.
        to: ClientId,
        /// The event.
        event: ServerEvent,
    },
    /// Send the identical `event` to every recipient (group fan-out).
    ///
    /// Batching the fan-out into one effect lets the runtime encode
    /// the frame **once** and hand the same shared bytes to every
    /// recipient's connection, instead of paying O(recipients) clones
    /// and encodes of the same payload (§5: the server absorbs the
    /// cost of group delivery).
    Multicast {
        /// The group being fanned out to (for per-group accounting
        /// and QoS classification).
        group: GroupId,
        /// The members to deliver to, in membership order.
        recipients: Vec<ClientId>,
        /// The one event every recipient receives.
        event: ServerEvent,
    },
    /// Hand a record to the logger.
    Log(LogEffect),
}

impl Effect {
    fn send(to: ClientId, event: ServerEvent) -> Effect {
        Effect::Send { to, event }
    }

    fn error(to: ClientId, code: ErrorCode, detail: impl Into<String>) -> Effect {
        Effect::Send {
            to,
            event: ServerEvent::Error {
                code: code.to_wire(),
                detail: detail.into(),
            },
        }
    }
}

#[derive(Debug, Clone)]
struct ClientMeta {
    display_name: String,
    connected: bool,
}

/// Counter snapshot exposed by [`ServerCore::counters`]. The values
/// live in the core's metric [`Registry`] (names `core.broadcasts`,
/// `core.deliveries`, `core.joins`, `core.reductions`); this struct is
/// a convenience read of those counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCounters {
    /// Client broadcasts accepted and sequenced.
    pub broadcasts: u64,
    /// Multicast events fanned out (one per receiving member).
    pub deliveries: u64,
    /// Joins served.
    pub joins: u64,
    /// Automatic or requested log reductions performed.
    pub reductions: u64,
}

/// Registry-backed metric handles the core records into. Handles are
/// resolved once (per group for the delivery counters) so the hot
/// paths only touch atomics.
struct CoreMetrics {
    registry: Arc<Registry>,
    broadcasts: Arc<Counter>,
    deliveries: Arc<Counter>,
    joins: Arc<Counter>,
    reductions: Arc<Counter>,
    lock_waits: Arc<Counter>,
    lock_wait_us: Arc<Histogram>,
    group_deliveries: HashMap<GroupId, Arc<Counter>>,
}

impl CoreMetrics {
    fn new(registry: Arc<Registry>) -> Self {
        CoreMetrics {
            broadcasts: registry.counter("core.broadcasts"),
            deliveries: registry.counter("core.deliveries"),
            joins: registry.counter("core.joins"),
            reductions: registry.counter("core.reductions"),
            lock_waits: registry.counter("core.lock_waits"),
            lock_wait_us: registry.histogram("core.lock_wait_us"),
            group_deliveries: HashMap::new(),
            registry,
        }
    }

    fn group_deliveries(&mut self, group: GroupId) -> &Counter {
        let registry = &self.registry;
        self.group_deliveries
            .entry(group)
            .or_insert_with(|| registry.counter(&format!("core.group.{group}.deliveries")))
    }
}

/// The Corona server state machine. See the module docs.
pub struct ServerCore {
    server_id: ServerId,
    stateful: bool,
    policy: Arc<dyn SessionPolicy>,
    reduction: ReductionPolicy,
    registry: GroupRegistry,
    logs: HashMap<GroupId, GroupLog>,
    /// Per-group sequence counters for the stateless baseline.
    stateless_seq: HashMap<GroupId, SeqNo>,
    /// Persistence is tracked here for log effects (the registry drops
    /// dissolved groups before we can ask it).
    persistence: HashMap<GroupId, Persistence>,
    locks: LockTable,
    clients: HashMap<ClientId, ClientMeta>,
    next_client: IdAllocator,
    metrics: CoreMetrics,
    /// Contended lock acquisitions awaiting a grant, keyed by
    /// (group, object, waiter), with the enqueue timestamp.
    pending_locks: HashMap<(GroupId, corona_types::id::ObjectId, ClientId), Timestamp>,
    /// Most recent caller-supplied timestamp; used to time lock grants
    /// without the core reading a clock.
    last_now: Timestamp,
    storage_enabled: bool,
}

impl ServerCore {
    /// Creates a core from a server configuration, with a private
    /// metric registry.
    pub fn new(config: &ServerConfig) -> Self {
        Self::with_registry(config, Registry::new())
    }

    /// Creates a core that records its metrics into `registry` —
    /// the runtime shares one registry across the core, transport and
    /// logger so a single snapshot covers the whole server.
    pub fn with_registry(config: &ServerConfig, registry: Arc<Registry>) -> Self {
        ServerCore {
            server_id: config.server_id,
            stateful: config.statefulness == Statefulness::Stateful,
            policy: Arc::clone(&config.policy),
            reduction: config.reduction,
            registry: GroupRegistry::new(),
            logs: HashMap::new(),
            stateless_seq: HashMap::new(),
            persistence: HashMap::new(),
            locks: LockTable::new(),
            clients: HashMap::new(),
            next_client: IdAllocator::starting_at(1),
            metrics: CoreMetrics::new(registry),
            pending_locks: HashMap::new(),
            last_now: Timestamp::ZERO,
            storage_enabled: config.storage_dir.is_some(),
        }
    }

    /// This server's id.
    pub fn server_id(&self) -> ServerId {
        self.server_id
    }

    /// Counter snapshot.
    pub fn counters(&self) -> CoreCounters {
        CoreCounters {
            broadcasts: self.metrics.broadcasts.get(),
            deliveries: self.metrics.deliveries.get(),
            joins: self.metrics.joins.get(),
            reductions: self.metrics.reductions.get(),
        }
    }

    /// The metric registry this core records into.
    pub fn metrics_registry(&self) -> Arc<Registry> {
        Arc::clone(&self.metrics.registry)
    }

    /// Number of live groups.
    pub fn group_count(&self) -> usize {
        self.registry.len()
    }

    /// Number of known clients (connected or resumable).
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Read access to a group's log (stateful mode).
    pub fn group_log(&self, group: GroupId) -> Option<&GroupLog> {
        self.logs.get(&group)
    }

    /// Read access to the registry.
    pub fn registry(&self) -> &GroupRegistry {
        &self.registry
    }

    /// Installs a group recovered from stable storage at startup.
    ///
    /// # Panics
    ///
    /// Panics if the group already exists (stores never hand out
    /// duplicates; a duplicate indicates recovery was run twice).
    pub fn install_recovered(&mut self, persistence: Persistence, log: GroupLog) {
        let group = log.group();
        self.registry
            .install_recovered(group, persistence)
            .expect("recovered group collides with live group");
        self.persistence.insert(group, persistence);
        self.logs.insert(group, log);
    }

    /// Handles the `Hello` that opens every connection. Returns the
    /// client id (fresh, or resumed) and the effects.
    pub fn client_hello(
        &mut self,
        display_name: String,
        resume: Option<ClientId>,
    ) -> (ClientId, Vec<Effect>) {
        let client = match resume {
            Some(id) if self.clients.contains_key(&id) => {
                let meta = self.clients.get_mut(&id).expect("checked contains_key");
                meta.connected = true;
                meta.display_name = display_name;
                id
            }
            Some(id) => {
                // Resuming an id this (possibly restarted) server has
                // never seen: honour it so reconnection across server
                // restarts keeps client identity stable.
                self.clients.insert(
                    id,
                    ClientMeta {
                        display_name,
                        connected: true,
                    },
                );
                id
            }
            None => {
                let id = ClientId::new(self.next_client.allocate());
                self.clients.insert(
                    id,
                    ClientMeta {
                        display_name,
                        connected: true,
                    },
                );
                id
            }
        };
        let effects = vec![Effect::send(
            client,
            ServerEvent::Welcome {
                server: self.server_id,
                client,
                version: PROTOCOL_VERSION,
            },
        )];
        (client, effects)
    }

    /// Handles one decoded request from a connected client.
    pub fn handle_request(
        &mut self,
        client: ClientId,
        request: ClientRequest,
        now: Timestamp,
    ) -> Vec<Effect> {
        self.last_now = now;
        match request {
            ClientRequest::Hello { .. } => {
                // A second Hello on an established session is a
                // protocol violation; answer with an error rather than
                // reassigning ids mid-session.
                vec![Effect::error(
                    client,
                    ErrorCode::BadRequest,
                    "duplicate Hello on established session",
                )]
            }
            ClientRequest::CreateGroup {
                group,
                persistence,
                initial_state,
            } => self.create_group(client, group, persistence, initial_state),
            ClientRequest::DeleteGroup { group } => self.delete_group(client, group),
            ClientRequest::Join {
                group,
                role,
                policy,
                notify_membership,
            } => self.join(client, group, role, policy, notify_membership),
            ClientRequest::Leave { group } => self.leave(client, group),
            ClientRequest::Broadcast {
                group,
                update,
                scope,
            } => self.broadcast(client, group, update, scope, now),
            ClientRequest::GetMembership { group } => self.get_membership(client, group),
            ClientRequest::GetState { group, policy } => self.get_state(client, group, &policy),
            ClientRequest::AcquireLock {
                group,
                object,
                wait,
            } => self.acquire_lock(client, group, object, wait),
            ClientRequest::ReleaseLock { group, object } => {
                self.release_lock(client, group, object)
            }
            ClientRequest::ReduceLog { group, through } => self.reduce_log(client, group, through),
            ClientRequest::Ping { nonce } => {
                vec![Effect::send(client, ServerEvent::Pong { nonce, at: now })]
            }
            ClientRequest::Goodbye => self.client_disconnected(client),
            ClientRequest::GetHealth => {
                // Health snapshots are assembled by the runtime (which
                // owns the registry and connections); a GetHealth that
                // reaches the pure core means no health plane is wired.
                vec![Effect::error(
                    client,
                    ErrorCode::Unsupported,
                    "health plane not available on this server",
                )]
            }
        }
    }

    /// Cleans up after a client disconnect (graceful or crash): removes
    /// it from every group (emitting awareness notifications), releases
    /// its locks (granting to waiters), dissolves transient groups.
    pub fn client_disconnected(&mut self, client: ClientId) -> Vec<Effect> {
        let mut effects = Vec::new();
        // Snapshot display info before removal.
        let removed = self.registry.disconnect(client);
        for (group, outcome) in removed {
            if outcome.dissolved {
                effects.extend(self.drop_group_state(group));
            } else {
                effects.extend(self.notify_membership_change(
                    group,
                    MembershipChange::Disconnected(client),
                    outcome.info.clone(),
                ));
            }
        }
        for (group, object, next) in self.locks.release_all(client) {
            if let Some(next) = next {
                self.note_lock_granted(group, object, next);
                effects.push(Effect::send(
                    next,
                    ServerEvent::LockGranted { group, object },
                ));
            }
        }
        // Abandoned waits never resolve; drop their pending entries.
        self.pending_locks
            .retain(|(_, _, waiter), _| *waiter != client);
        if let Some(meta) = self.clients.get_mut(&client) {
            meta.connected = false;
        }
        effects
    }

    /// Records the wait of a queued lock acquisition that was just
    /// granted, timed with caller-supplied timestamps (the core reads
    /// no clock).
    fn note_lock_granted(
        &mut self,
        group: GroupId,
        object: corona_types::id::ObjectId,
        next: ClientId,
    ) {
        if let Some(enqueued) = self.pending_locks.remove(&(group, object, next)) {
            self.metrics.lock_wait_us.record(
                self.last_now
                    .as_micros()
                    .saturating_sub(enqueued.as_micros()),
            );
        }
    }

    // ----- replication support ----------------------------------------------

    /// Validates and sequences a broadcast WITHOUT fanning it out —
    /// the coordinator of the replicated service (§4) uses this to
    /// assign the global sequence number, then distributes one
    /// `Sequenced` message per hosting server instead of one event per
    /// member. Returned effects carry stable-storage records and any
    /// reduction notifications; the caller handles delivery.
    ///
    /// # Errors
    ///
    /// The error code and detail to report to the sender.
    pub fn sequence_broadcast(
        &mut self,
        sender: ClientId,
        group: GroupId,
        update: corona_types::state::StateUpdate,
        now: Timestamp,
    ) -> Result<(LoggedUpdate, Vec<Effect>), (ErrorCode, String)> {
        let Some(g) = self.registry.get(group) else {
            return Err((ErrorCode::NoSuchGroup, format!("{group} not found")));
        };
        let Some(role) = g.role_of(sender) else {
            return Err((ErrorCode::NotAMember, format!("not a member of {group}")));
        };
        if !role.may_update() {
            return Err((
                ErrorCode::PolicyDenied,
                "observers may not broadcast".to_string(),
            ));
        }
        if !self.policy.authorize(
            sender,
            &Action::Broadcast {
                group,
                object: update.object,
            },
        ) {
            return Err((ErrorCode::PolicyDenied, "broadcast denied".to_string()));
        }
        let mut effects = Vec::new();
        let logged = if self.stateful {
            let log = self.logs.get_mut(&group).expect("stateful group has a log");
            let logged = log.append(sender, update, now);
            if self.storage_enabled
                && self.persistence.get(&group) == Some(&Persistence::Persistent)
            {
                effects.push(Effect::Log(LogEffect::Append {
                    group,
                    update: logged.clone(),
                }));
            }
            logged
        } else {
            let seq = self.stateless_seq.entry(group).or_default();
            *seq = seq.next();
            LoggedUpdate {
                seq: *seq,
                sender,
                timestamp: now,
                update,
            }
        };
        self.metrics.broadcasts.inc();
        if self.stateful {
            let due = {
                let log = self.logs.get(&group).expect("stateful group has a log");
                self.reduction.due(log)
            };
            if let Some(through) = due {
                effects.extend(self.perform_reduction(group, through));
            }
        }
        Ok((logged, effects))
    }

    /// Installs a member directly (post-election state rebuild at a
    /// new coordinator). Creates the group with `persistence` and an
    /// empty log if it does not exist yet; ignores duplicate members.
    pub fn install_member(
        &mut self,
        group: GroupId,
        persistence: Persistence,
        info: MemberInfo,
        notify: bool,
    ) {
        self.clients
            .entry(info.client)
            .or_insert_with(|| ClientMeta {
                display_name: info.display_name.clone(),
                connected: true,
            });
        if !self.registry.contains(group) {
            let _ = self.registry.create(group, persistence);
            self.persistence.insert(group, persistence);
            if self.stateful {
                self.logs
                    .insert(group, GroupLog::new(group, SharedState::new()));
            }
        }
        if let Some(g) = self.registry.get_mut(group) {
            let _ = g.join(info, notify);
        }
    }

    /// Adopts a group state copy from a replica (post-election rebuild
    /// or hot-standby refresh). Replaces the local log if the offered
    /// copy is at least as new; creates the group if absent.
    pub fn adopt_group_state(&mut self, persistence: Persistence, offered: GroupLog) {
        let group = offered.group();
        if !self.registry.contains(group) {
            let _ = self.registry.create(group, persistence);
        }
        self.persistence.insert(group, persistence);
        match self.logs.get(&group) {
            Some(existing) if existing.last_seq() >= offered.last_seq() => {}
            _ => {
                self.logs.insert(group, offered);
            }
        }
    }

    /// The display name recorded for a client, if known.
    pub fn display_name(&self, client: ClientId) -> Option<&str> {
        self.clients.get(&client).map(|m| m.display_name.as_str())
    }

    // ----- request handlers -------------------------------------------------

    fn create_group(
        &mut self,
        client: ClientId,
        group: GroupId,
        persistence: Persistence,
        initial_state: SharedState,
    ) -> Vec<Effect> {
        if !self.policy.authorize(client, &Action::CreateGroup(group)) {
            return vec![Effect::error(
                client,
                ErrorCode::PolicyDenied,
                "create denied",
            )];
        }
        if let Err(e) = self.registry.create(group, persistence) {
            return vec![registry_error(client, group, e)];
        }
        self.persistence.insert(group, persistence);
        let mut effects = Vec::new();
        if self.stateful {
            self.logs
                .insert(group, GroupLog::new(group, initial_state.clone()));
            if self.storage_enabled && persistence == Persistence::Persistent {
                effects.push(Effect::Log(LogEffect::CreateGroup {
                    group,
                    persistence,
                    initial: initial_state,
                }));
            }
        } else {
            self.stateless_seq.insert(group, SeqNo::ZERO);
        }
        effects.push(Effect::send(client, ServerEvent::GroupCreated { group }));
        effects
    }

    fn delete_group(&mut self, client: ClientId, group: GroupId) -> Vec<Effect> {
        if !self.policy.authorize(client, &Action::DeleteGroup(group)) {
            return vec![Effect::error(
                client,
                ErrorCode::PolicyDenied,
                "delete denied",
            )];
        }
        let removed = match self.registry.delete(group) {
            Ok(g) => g,
            Err(e) => return vec![registry_error(client, group, e)],
        };
        let mut effects = Vec::new();
        for member in removed.member_ids() {
            effects.push(Effect::send(member, ServerEvent::GroupDeleted { group }));
        }
        if !removed.is_member(client) {
            effects.push(Effect::send(client, ServerEvent::GroupDeleted { group }));
        }
        effects.extend(self.drop_group_state(group));
        effects
    }

    /// Forgets all in-memory and on-disk state of a group (explicit
    /// delete, or transient dissolution).
    fn drop_group_state(&mut self, group: GroupId) -> Vec<Effect> {
        self.locks.clear_group(group);
        self.pending_locks.retain(|(g, _, _), _| *g != group);
        self.logs.remove(&group);
        self.stateless_seq.remove(&group);
        let persistence = self.persistence.remove(&group);
        if self.storage_enabled && persistence == Some(Persistence::Persistent) {
            vec![Effect::Log(LogEffect::DeleteGroup { group })]
        } else {
            Vec::new()
        }
    }

    fn join(
        &mut self,
        client: ClientId,
        group: GroupId,
        role: corona_types::policy::MemberRole,
        policy: StateTransferPolicy,
        notify_membership: bool,
    ) -> Vec<Effect> {
        if !self.policy.authorize(client, &Action::Join { group, role }) {
            return vec![Effect::error(
                client,
                ErrorCode::PolicyDenied,
                "join denied",
            )];
        }
        let display_name = self
            .clients
            .get(&client)
            .map(|m| m.display_name.clone())
            .unwrap_or_default();
        let info = MemberInfo::new(client, role, display_name);
        let joined = match self.registry.join(group, info.clone(), notify_membership) {
            Ok(g) => g,
            Err(RegistryError::Membership(MembershipError::AlreadyMember)) => {
                // A resumed session re-joining after failover: not a
                // protocol violation. Membership is unchanged (so no
                // notifications), but the client needs the membership
                // view and a transfer under its catch-up policy.
                let members = self
                    .registry
                    .get(group)
                    .map(|g| g.member_infos())
                    .unwrap_or_default();
                let transfer = self.make_transfer(group, &policy);
                return vec![Effect::send(
                    client,
                    ServerEvent::Joined { members, transfer },
                )];
            }
            Err(e) => return vec![registry_error(client, group, e)],
        };
        let members = joined.member_infos();
        self.metrics.joins.inc();

        // The join protocol does not involve existing members (§3.2):
        // the transfer is served entirely from server state.
        let transfer = self.make_transfer(group, &policy);
        let mut effects = vec![Effect::send(
            client,
            ServerEvent::Joined { members, transfer },
        )];
        effects.extend(self.notify_membership_change(
            group,
            MembershipChange::Joined(client),
            info,
        ));
        effects
    }

    fn leave(&mut self, client: ClientId, group: GroupId) -> Vec<Effect> {
        let outcome = match self.registry.leave(group, client) {
            Ok(o) => o,
            Err(e) => return vec![registry_error(client, group, e)],
        };
        let mut effects = vec![Effect::send(client, ServerEvent::Left { group })];
        for (object, next) in self.locks.release_client_group(group, client) {
            if let Some(next) = next {
                self.note_lock_granted(group, object, next);
                effects.push(Effect::send(
                    next,
                    ServerEvent::LockGranted { group, object },
                ));
            }
        }
        self.pending_locks
            .retain(|(g, _, waiter), _| !(*g == group && *waiter == client));
        if outcome.dissolved {
            effects.extend(self.drop_group_state(group));
        } else {
            effects.extend(self.notify_membership_change(
                group,
                MembershipChange::Left(client),
                outcome.info,
            ));
        }
        effects
    }

    fn broadcast(
        &mut self,
        client: ClientId,
        group: GroupId,
        update: corona_types::state::StateUpdate,
        scope: DeliveryScope,
        now: Timestamp,
    ) -> Vec<Effect> {
        let Some(g) = self.registry.get(group) else {
            return vec![registry_error(client, group, RegistryError::NoSuchGroup)];
        };
        let Some(role) = g.role_of(client) else {
            return vec![registry_error(
                client,
                group,
                RegistryError::Membership(MembershipError::NotAMember),
            )];
        };
        if !role.may_update() {
            return vec![Effect::error(
                client,
                ErrorCode::PolicyDenied,
                "observers may not broadcast",
            )];
        }
        if !self.policy.authorize(
            client,
            &Action::Broadcast {
                group,
                object: update.object,
            },
        ) {
            return vec![Effect::error(
                client,
                ErrorCode::PolicyDenied,
                "broadcast denied",
            )];
        }

        let mut effects = Vec::new();
        let logged = if self.stateful {
            let log = self.logs.get_mut(&group).expect("stateful group has a log");
            let logged = log.append(client, update, now);
            if self.storage_enabled
                && self.persistence.get(&group) == Some(&Persistence::Persistent)
            {
                effects.push(Effect::Log(LogEffect::Append {
                    group,
                    update: logged.clone(),
                }));
            }
            logged
        } else {
            let seq = self.stateless_seq.entry(group).or_default();
            *seq = seq.next();
            LoggedUpdate {
                seq: *seq,
                sender: client,
                timestamp: now,
                update,
            }
        };
        self.metrics.broadcasts.inc();

        // Fan out via multiple point-to-point sends (the measured
        // configuration of §5.2), batched into one effect so the
        // runtime encodes the event once for all recipients.
        let g = self.registry.get(group).expect("checked above");
        let recipients: Vec<ClientId> = g
            .member_ids()
            .into_iter()
            .filter(|member| !(scope == DeliveryScope::SenderExclusive && *member == client))
            .collect();
        let fanned = recipients.len() as u64;
        if !recipients.is_empty() {
            effects.push(Effect::Multicast {
                group,
                recipients,
                event: ServerEvent::Multicast { group, logged },
            });
        }
        self.metrics.deliveries.add(fanned);
        self.metrics.group_deliveries(group).add(fanned);

        // Service-initiated log reduction (§3.2), after the fan-out so
        // it is off the latency-critical path.
        if self.stateful {
            let due = {
                let log = self.logs.get(&group).expect("stateful group has a log");
                self.reduction.due(log)
            };
            if let Some(through) = due {
                effects.extend(self.perform_reduction(group, through));
            }
        }
        effects
    }

    fn get_membership(&mut self, client: ClientId, group: GroupId) -> Vec<Effect> {
        match self.registry.get(group) {
            Some(g) if g.is_member(client) => vec![Effect::send(
                client,
                ServerEvent::Membership {
                    group,
                    members: g.member_infos(),
                },
            )],
            Some(_) => vec![registry_error(
                client,
                group,
                RegistryError::Membership(MembershipError::NotAMember),
            )],
            None => vec![registry_error(client, group, RegistryError::NoSuchGroup)],
        }
    }

    fn get_state(
        &mut self,
        client: ClientId,
        group: GroupId,
        policy: &StateTransferPolicy,
    ) -> Vec<Effect> {
        match self.registry.get(group) {
            Some(g) if g.is_member(client) => {
                let transfer = self.make_transfer(group, policy);
                vec![Effect::send(client, ServerEvent::State { transfer })]
            }
            Some(_) => vec![registry_error(
                client,
                group,
                RegistryError::Membership(MembershipError::NotAMember),
            )],
            None => vec![registry_error(client, group, RegistryError::NoSuchGroup)],
        }
    }

    fn acquire_lock(
        &mut self,
        client: ClientId,
        group: GroupId,
        object: corona_types::id::ObjectId,
        wait: bool,
    ) -> Vec<Effect> {
        match self.registry.get(group) {
            Some(g) if g.is_member(client) => {
                if g.role_of(client).is_some_and(|r| !r.may_update()) {
                    return vec![Effect::error(
                        client,
                        ErrorCode::PolicyDenied,
                        "observers may not lock",
                    )];
                }
                match self.locks.acquire(group, object, client, wait) {
                    AcquireOutcome::Granted => {
                        vec![Effect::send(
                            client,
                            ServerEvent::LockGranted { group, object },
                        )]
                    }
                    AcquireOutcome::Denied { holder } => vec![Effect::send(
                        client,
                        ServerEvent::LockDenied {
                            group,
                            object,
                            holder,
                        },
                    )],
                    // Queued: the grant arrives asynchronously when the
                    // holder releases.
                    AcquireOutcome::Queued { .. } => {
                        self.metrics.lock_waits.inc();
                        self.pending_locks
                            .insert((group, object, client), self.last_now);
                        Vec::new()
                    }
                }
            }
            Some(_) => vec![registry_error(
                client,
                group,
                RegistryError::Membership(MembershipError::NotAMember),
            )],
            None => vec![registry_error(client, group, RegistryError::NoSuchGroup)],
        }
    }

    fn release_lock(
        &mut self,
        client: ClientId,
        group: GroupId,
        object: corona_types::id::ObjectId,
    ) -> Vec<Effect> {
        match self.locks.release(group, object, client) {
            Ok(next) => {
                let mut effects = vec![Effect::send(
                    client,
                    ServerEvent::LockReleased { group, object },
                )];
                if let Some(next) = next {
                    self.note_lock_granted(group, object, next);
                    effects.push(Effect::send(
                        next,
                        ServerEvent::LockGranted { group, object },
                    ));
                }
                effects
            }
            Err(_) => vec![Effect::error(
                client,
                ErrorCode::LockNotHeld,
                format!("lock {object} in {group} not held"),
            )],
        }
    }

    fn reduce_log(
        &mut self,
        client: ClientId,
        group: GroupId,
        through: Option<SeqNo>,
    ) -> Vec<Effect> {
        if !self.policy.authorize(client, &Action::ReduceLog(group)) {
            return vec![Effect::error(
                client,
                ErrorCode::PolicyDenied,
                "reduce denied",
            )];
        }
        if !self.stateful {
            return vec![Effect::error(
                client,
                ErrorCode::Unsupported,
                "stateless server keeps no log",
            )];
        }
        let Some(log) = self.logs.get(&group) else {
            return vec![registry_error(client, group, RegistryError::NoSuchGroup)];
        };
        let through = through.unwrap_or_else(|| log.last_seq());
        // Validate before mutating so a bad point reports cleanly.
        if through < log.checkpoint_seq() || through > log.last_seq() {
            return vec![Effect::error(
                client,
                ErrorCode::BadReductionPoint,
                format!(
                    "valid range is {}..={}",
                    log.checkpoint_seq(),
                    log.last_seq()
                ),
            )];
        }
        let mut effects = self.perform_reduction(group, through);
        // The requester gets a confirmation even if not a member.
        let is_member = self
            .registry
            .get(group)
            .is_some_and(|g| g.is_member(client));
        if !is_member {
            effects.push(Effect::send(
                client,
                ServerEvent::LogReduced { group, through },
            ));
        }
        effects
    }

    /// Folds the log prefix, emits `LogReduced` to all members, and
    /// instructs the logger to persist the checkpoint.
    fn perform_reduction(&mut self, group: GroupId, through: SeqNo) -> Vec<Effect> {
        let log = self.logs.get_mut(&group).expect("caller validated group");
        if log.reduce(through).is_err() {
            return Vec::new();
        }
        self.metrics.reductions.inc();
        let mut effects = Vec::new();
        if self.storage_enabled && self.persistence.get(&group) == Some(&Persistence::Persistent) {
            effects.push(Effect::Log(LogEffect::Checkpoint {
                group,
                persistence: Persistence::Persistent,
                through,
                state: log.checkpoint_state().clone(),
                suffix: log.suffix_iter().cloned().collect(),
            }));
        }
        if let Some(g) = self.registry.get(group) {
            for member in g.member_ids() {
                effects.push(Effect::send(
                    member,
                    ServerEvent::LogReduced { group, through },
                ));
            }
        }
        effects
    }

    // ----- helpers ----------------------------------------------------------

    fn make_transfer(&self, group: GroupId, policy: &StateTransferPolicy) -> StateTransfer {
        if self.stateful {
            self.logs
                .get(&group)
                .map(|log| log.transfer(policy))
                .unwrap_or_else(|| StateTransfer::empty(group, SeqNo::ZERO))
        } else {
            let seq = self
                .stateless_seq
                .get(&group)
                .copied()
                .unwrap_or(SeqNo::ZERO);
            StateTransfer::empty(group, seq)
        }
    }

    fn notify_membership_change(
        &self,
        group: GroupId,
        change: MembershipChange,
        info: MemberInfo,
    ) -> Vec<Effect> {
        let Some(g) = self.registry.get(group) else {
            return Vec::new();
        };
        g.notification_subscribers()
            .into_iter()
            .filter(|c| *c != change.client())
            .map(|c| {
                Effect::send(
                    c,
                    ServerEvent::MembershipChanged {
                        group,
                        change,
                        info: info.clone(),
                    },
                )
            })
            .collect()
    }
}

impl std::fmt::Debug for ServerCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerCore")
            .field("server_id", &self.server_id)
            .field("stateful", &self.stateful)
            .field("groups", &self.registry.len())
            .field("clients", &self.clients.len())
            .finish_non_exhaustive()
    }
}

fn registry_error(client: ClientId, group: GroupId, e: RegistryError) -> Effect {
    match e {
        RegistryError::NoSuchGroup => {
            Effect::error(client, ErrorCode::NoSuchGroup, format!("{group} not found"))
        }
        RegistryError::GroupExists => {
            Effect::error(client, ErrorCode::GroupExists, format!("{group} exists"))
        }
        RegistryError::Membership(MembershipError::NotAMember) => Effect::error(
            client,
            ErrorCode::NotAMember,
            format!("not a member of {group}"),
        ),
        RegistryError::Membership(MembershipError::AlreadyMember) => Effect::error(
            client,
            ErrorCode::AlreadyMember,
            format!("already a member of {group}"),
        ),
    }
}
