//! The coordinator role of the replicated Corona service (§4.1).
//!
//! The coordinator is an ordinary server that additionally:
//!
//! * owns the **authoritative control-plane state** (groups,
//!   membership, locks) — forwarded client requests execute here;
//! * acts as the **sequencer**: data broadcasts forwarded by member
//!   servers receive a globally unique, monotone sequence number,
//!   imposing total (and causal, and sender-FIFO) order per group;
//! * routes one [`PeerMessage::Sequenced`] per *hosting server* rather
//!   than one event per member — the fan-out parallelism that Table 2
//!   measures;
//! * rebuilds its state from replica announcements after an election
//!   (the hot-standby copies of §4.1).
//!
//! Like [`ServerCore`], this core is pure: inputs are peer messages
//! plus a timestamp, outputs are [`CoordEffect`]s.

use corona_core::{Effect, LogEffect, ServerCore};
use corona_statelog::GroupLog;
use corona_types::error::ErrorCode;
use corona_types::id::{ClientId, Epoch, GroupId, ServerId};
use corona_types::message::{ClientRequest, PeerMessage, ServerEvent};
use corona_types::policy::{DeliveryScope, Persistence};
use corona_types::state::{StateUpdate, Timestamp};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// Recently sequenced `(origin, local_tag)` forwards remembered for
/// duplicate suppression (nemesis-duplicated or retried frames).
const RECENT_FORWARDS: usize = 1024;

/// Outputs of the coordinator core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordEffect {
    /// Send a peer message to a member server (possibly the
    /// coordinator's own replica half).
    ToServer {
        /// Destination server.
        to: ServerId,
        /// The message.
        msg: PeerMessage,
    },
    /// Hand a record to the coordinator's stable-storage logger.
    Log(LogEffect),
}

/// The coordinator core: authoritative state + sequencer + router.
pub struct CoordinatorCore {
    me: ServerId,
    epoch: Epoch,
    core: ServerCore,
    /// Which server each client is homed on (learned from forwards).
    client_home: HashMap<ClientId, ServerId>,
    /// Servers hosting at least one member, per group.
    hosting: HashMap<GroupId, BTreeSet<ServerId>>,
    /// Bounded recent-forward set: a duplicated `ForwardBroadcast`
    /// frame (link-level retry, nemesis duplication) must not be
    /// sequenced twice.
    recent_forwards: HashSet<(ServerId, u64)>,
    recent_order: VecDeque<(ServerId, u64)>,
}

impl CoordinatorCore {
    /// Creates a coordinator core for epoch `epoch`, with fresh
    /// authoritative state built from `config` (rebuild messages from
    /// replicas fill it in after an election).
    pub fn new(config: &corona_core::ServerConfig, epoch: Epoch) -> Self {
        Self::with_registry(config, epoch, corona_metrics::Registry::new())
    }

    /// Like [`Self::new`], but the authoritative [`ServerCore`] records
    /// its metrics into `registry` (the replicated runtime shares one
    /// registry across roles, so sequencing counters survive
    /// re-elections within a process).
    pub fn with_registry(
        config: &corona_core::ServerConfig,
        epoch: Epoch,
        registry: std::sync::Arc<corona_metrics::Registry>,
    ) -> Self {
        CoordinatorCore {
            me: config.server_id,
            epoch,
            core: ServerCore::with_registry(config, registry),
            client_home: HashMap::new(),
            hosting: HashMap::new(),
            recent_forwards: HashSet::new(),
            recent_order: VecDeque::new(),
        }
    }

    /// The coordinator's epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Read access to the authoritative state (tests, introspection).
    pub fn authoritative(&self) -> &ServerCore {
        &self.core
    }

    /// Servers currently hosting members of `group`.
    pub fn hosting_servers(&self, group: GroupId) -> Vec<ServerId> {
        self.hosting
            .get(&group)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Handles one peer message addressed to the coordinator role.
    pub fn handle_peer(&mut self, msg: PeerMessage, now: Timestamp) -> Vec<CoordEffect> {
        match msg {
            PeerMessage::ForwardRequest {
                origin,
                client,
                local_tag,
                request,
            } => self.forward_request(origin, client, local_tag, request, now),
            PeerMessage::ForwardBroadcast {
                origin,
                sender,
                group,
                update,
                scope,
                local_tag,
            } => self.forward_broadcast(origin, sender, group, update, scope, local_tag, now),
            PeerMessage::GroupStateQuery { from, group } => self.state_query(from, group),
            PeerMessage::GroupStateReply {
                from: _,
                group,
                persistence,
                through,
                state,
                updates,
            } => {
                // Post-election rebuild: adopt the freshest replica copy.
                let mut log = GroupLog::restore(group, state, through, Vec::new());
                for u in updates {
                    let _ = log.append_sequenced(u);
                }
                self.core.adopt_group_state(persistence, log);
                Vec::new()
            }
            PeerMessage::MemberAnnounce {
                server,
                group,
                persistence,
                info,
                notify,
            } => {
                let client = info.client;
                self.core.install_member(group, persistence, info, notify);
                self.client_home.insert(client, server);
                self.hosting.entry(group).or_default().insert(server);
                Vec::new()
            }
            PeerMessage::GroupHosting {
                server,
                group,
                hosting,
            } => {
                if hosting {
                    self.hosting.entry(group).or_default().insert(server);
                } else if let Some(set) = self.hosting.get_mut(&group) {
                    set.remove(&server);
                }
                Vec::new()
            }
            // Election traffic, heartbeats etc. are handled by the
            // election core in the runtime, not here.
            _ => Vec::new(),
        }
    }

    /// A member server (all of its clients) crashed: clean up every
    /// client homed there.
    pub fn server_crashed(&mut self, server: ServerId) -> Vec<CoordEffect> {
        let mut clients: Vec<ClientId> = self
            .client_home
            .iter()
            .filter(|(_, s)| **s == server)
            .map(|(c, _)| *c)
            .collect();
        // Their departures reach the wire: in an order that replays.
        clients.sort_unstable();
        let mut effects = Vec::new();
        for client in clients {
            self.client_home.remove(&client);
            let core_effects = self.core.client_disconnected(client);
            effects.extend(self.route_effects(core_effects, None));
        }
        for set in self.hosting.values_mut() {
            set.remove(&server);
        }
        effects
    }

    fn forward_request(
        &mut self,
        origin: ServerId,
        client: ClientId,
        local_tag: u64,
        request: ClientRequest,
        now: Timestamp,
    ) -> Vec<CoordEffect> {
        self.client_home.insert(client, origin);
        let touched_group = request_group(&request);
        let (reply_events, mut effects) = match request {
            ClientRequest::Hello {
                display_name,
                resume,
                ..
            } => {
                // Register the replica-assigned id; the replica already
                // welcomed the client, so the Welcome stays local. A
                // resumed session keeps its ORIGINAL id (`resume`), not
                // the forwarding connection's id — home it under the
                // resolved id too, or every post-resume delivery (and
                // crash cleanup) would look up the wrong key and drop.
                let id = resume.unwrap_or(client);
                self.client_home.insert(id, origin);
                let (_, _) = self.core.client_hello(display_name, Some(id));
                (Vec::new(), Vec::new())
            }
            ClientRequest::Goodbye => {
                let core_effects = self.core.client_disconnected(client);
                self.client_home.remove(&client);
                (Vec::new(), self.route_effects(core_effects, None))
            }
            request => {
                let core_effects = self.core.handle_request(client, request, now);
                let mut replies = Vec::new();
                let routed = self.route_effects_collecting(core_effects, client, &mut replies);
                (replies, routed)
            }
        };
        // Maintain the hosting map for the touched group.
        if let Some(group) = touched_group {
            effects.extend(self.refresh_hosting(group));
        }
        effects.push(CoordEffect::ToServer {
            to: origin,
            msg: PeerMessage::RequestOutcome {
                origin,
                local_tag,
                client,
                events: reply_events,
            },
        });
        effects
    }

    #[allow(clippy::too_many_arguments)]
    fn forward_broadcast(
        &mut self,
        origin: ServerId,
        sender: ClientId,
        group: GroupId,
        update: StateUpdate,
        scope: DeliveryScope,
        local_tag: u64,
        now: Timestamp,
    ) -> Vec<CoordEffect> {
        // Each origin tags its forwards with a monotone local_tag, so a
        // repeat of the pair is a transport-level duplicate: the first
        // copy was already sequenced and fanned out.
        if !self.note_forward(origin, local_tag) {
            return Vec::new();
        }
        match self.core.sequence_broadcast(sender, group, update, now) {
            Ok((logged, side_effects)) => {
                let mut effects = self.route_effects(side_effects, None);
                let hosting = self.hosting.get(&group).into_iter().flatten();
                effects.extend(hosting.map(|&to| CoordEffect::ToServer {
                    to,
                    msg: PeerMessage::Sequenced {
                        group,
                        epoch: self.epoch,
                        logged: logged.clone(),
                        scope,
                        origin,
                        local_tag,
                    },
                }));
                effects
            }
            Err((code, detail)) => {
                vec![CoordEffect::ToServer {
                    to: origin,
                    msg: PeerMessage::RequestOutcome {
                        origin,
                        local_tag,
                        client: sender,
                        events: vec![ServerEvent::Error {
                            code: code.to_wire(),
                            detail,
                        }],
                    },
                }]
            }
        }
    }

    /// Records a `(origin, local_tag)` forward; returns `false` when
    /// it was already seen (a duplicate to drop).
    fn note_forward(&mut self, origin: ServerId, local_tag: u64) -> bool {
        if !self.recent_forwards.insert((origin, local_tag)) {
            return false;
        }
        self.recent_order.push_back((origin, local_tag));
        if self.recent_order.len() > RECENT_FORWARDS {
            if let Some(old) = self.recent_order.pop_front() {
                self.recent_forwards.remove(&old);
            }
        }
        true
    }

    fn state_query(&mut self, from: ServerId, group: GroupId) -> Vec<CoordEffect> {
        let Some(log) = self.core.group_log(group) else {
            return vec![CoordEffect::ToServer {
                to: from,
                msg: PeerMessage::RequestOutcome {
                    origin: from,
                    local_tag: 0,
                    client: ClientId::default(),
                    events: vec![ServerEvent::Error {
                        code: ErrorCode::NoSuchGroup.to_wire(),
                        detail: format!("{group} unknown to coordinator"),
                    }],
                },
            }];
        };
        let persistence = self
            .core
            .registry()
            .get(group)
            .map(|g| g.persistence())
            .unwrap_or(Persistence::Transient);
        vec![CoordEffect::ToServer {
            to: from,
            msg: PeerMessage::GroupStateReply {
                from: self.me,
                group,
                persistence,
                through: log.checkpoint_seq(),
                state: log.checkpoint_state().clone(),
                updates: log.suffix_iter().cloned().collect(),
            },
        }]
    }

    /// Recomputes which servers host members of `group` and emits
    /// nothing (the map is coordinator-internal; replicas learn about
    /// traffic via `Sequenced`).
    fn refresh_hosting(&mut self, group: GroupId) -> Vec<CoordEffect> {
        let members: Vec<ClientId> = match self.core.registry().get(group) {
            Some(g) => g.member_ids(),
            None => {
                self.hosting.remove(&group);
                return Vec::new();
            }
        };
        let set: BTreeSet<ServerId> = members
            .iter()
            .filter_map(|c| self.client_home.get(c).copied())
            .collect();
        if set.is_empty() {
            self.hosting.remove(&group);
        } else {
            self.hosting.insert(group, set);
        }
        Vec::new()
    }

    /// Routes [`ServerCore`] effects: `Send` becomes `Deliver` via the
    /// client's home server; `Log` passes through.
    fn route_effects(&self, effects: Vec<Effect>, skip: Option<ClientId>) -> Vec<CoordEffect> {
        let mut out = Vec::new();
        for effect in effects {
            match effect {
                Effect::Send { to, event } => {
                    if Some(to) == skip {
                        continue;
                    }
                    if let Some(home) = self.client_home.get(&to) {
                        out.push(CoordEffect::ToServer {
                            to: *home,
                            msg: PeerMessage::Deliver { client: to, event },
                        });
                    }
                }
                // The batched fan-out effect expands per recipient here:
                // the coordinator routes by home server, so each replica
                // re-encodes locally (and applies its own encode-once
                // fan-out to the clients it hosts).
                Effect::Multicast {
                    recipients, event, ..
                } => {
                    for to in recipients {
                        if Some(to) == skip {
                            continue;
                        }
                        if let Some(home) = self.client_home.get(&to) {
                            out.push(CoordEffect::ToServer {
                                to: *home,
                                msg: PeerMessage::Deliver {
                                    client: to,
                                    event: event.clone(),
                                },
                            });
                        }
                    }
                }
                Effect::Log(l) => out.push(CoordEffect::Log(l)),
            }
        }
        out
    }

    /// Like [`CoordinatorCore::route_effects`] but events addressed to
    /// `requester` are collected into `replies` (they ride back in the
    /// `RequestOutcome`) instead of being routed.
    fn route_effects_collecting(
        &self,
        effects: Vec<Effect>,
        requester: ClientId,
        replies: &mut Vec<ServerEvent>,
    ) -> Vec<CoordEffect> {
        let mut rest = Vec::new();
        for effect in effects {
            match effect {
                Effect::Send { to, event } if to == requester => replies.push(event),
                Effect::Multicast {
                    group,
                    mut recipients,
                    event,
                } => {
                    if recipients.contains(&requester) {
                        recipients.retain(|c| *c != requester);
                        replies.push(event.clone());
                    }
                    if !recipients.is_empty() {
                        rest.push(Effect::Multicast {
                            group,
                            recipients,
                            event,
                        });
                    }
                }
                other => rest.push(other),
            }
        }
        self.route_effects(rest, None)
    }
}

impl std::fmt::Debug for CoordinatorCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoordinatorCore")
            .field("me", &self.me)
            .field("epoch", &self.epoch)
            .field("groups", &self.core.group_count())
            .field("clients", &self.client_home.len())
            .finish_non_exhaustive()
    }
}

fn request_group(request: &ClientRequest) -> Option<GroupId> {
    match request {
        ClientRequest::CreateGroup { group, .. }
        | ClientRequest::DeleteGroup { group }
        | ClientRequest::Join { group, .. }
        | ClientRequest::Leave { group }
        | ClientRequest::Broadcast { group, .. }
        | ClientRequest::GetMembership { group }
        | ClientRequest::GetState { group, .. }
        | ClientRequest::AcquireLock { group, .. }
        | ClientRequest::ReleaseLock { group, .. }
        | ClientRequest::ReduceLog { group, .. } => Some(*group),
        ClientRequest::Hello { .. }
        | ClientRequest::Ping { .. }
        | ClientRequest::Goodbye
        | ClientRequest::GetHealth => None,
    }
}
