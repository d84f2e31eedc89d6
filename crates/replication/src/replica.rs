//! The member-server (replica) role of the replicated service (§4).
//!
//! A replica terminates client connections and keeps only *local*
//! knowledge:
//!
//! * which of **its own** clients belong to which group (for the local
//!   fan-out of coordinator-sequenced updates),
//! * a **hot-standby copy** of each hosted group's log, kept current by
//!   applying `Sequenced` updates in order (bootstrapped and repaired
//!   with `GroupStateQuery`),
//! * pending forwarded requests awaiting a `RequestOutcome`.
//!
//! Control requests are forwarded to the coordinator; data broadcasts
//! take the sequencing fast path. Pings are answered locally.

use corona_statelog::GroupLog;
use corona_types::id::{ClientId, GroupId, SeqNo, ServerId};
use corona_types::message::{ClientRequest, PeerMessage, ServerEvent, PROTOCOL_VERSION};
use corona_types::policy::{DeliveryScope, MemberInfo, Persistence};
use corona_types::state::{LoggedUpdate, SharedState, Timestamp};
use std::collections::{BTreeMap, HashMap};

/// Outputs of the replica core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaEffect {
    /// Deliver an event to a locally connected client.
    ToClient {
        /// Destination client.
        to: ClientId,
        /// The event.
        event: ServerEvent,
    },
    /// Deliver one event to several locally connected clients (the
    /// sequenced-multicast fan-out). Batching lets the runtime encode
    /// the wire frame once and share it across all recipients.
    ToClients {
        /// Destination clients.
        recipients: Vec<ClientId>,
        /// The event.
        event: ServerEvent,
    },
    /// Send a peer message to the coordinator.
    ToCoordinator(PeerMessage),
}

#[derive(Debug, Clone)]
struct LocalMember {
    info: MemberInfo,
    notify: bool,
}

/// Ordered maps wherever iteration reaches a wire (resync, fan-out
/// recipients): a run must replay from its inputs alone.
#[derive(Debug, Clone, Default)]
struct LocalGroup {
    members: BTreeMap<ClientId, LocalMember>,
    persistence: Persistence,
    /// Hot-standby log copy; `None` until the bootstrap query answers
    /// (and while quarantined after a demotion).
    log: Option<GroupLog>,
    /// With no copy to say so: the last update local members have been
    /// handed — the `through` of the `Joined` that started hosting,
    /// then each successor fanned out since.
    through: SeqNo,
    /// A bootstrap reply came too old to adopt: ask once more.
    overtaken: bool,
}

impl LocalGroup {
    /// The last update local members have been handed, in order.
    fn handed(&self) -> SeqNo {
        self.log.as_ref().map_or(self.through, GroupLog::last_seq)
    }

    /// One multicast per update of `log` past `after`, in order, to
    /// every local member.
    fn replay(&self, group: GroupId, log: &GroupLog, after: SeqNo) -> Vec<ReplicaEffect> {
        let recipients: Vec<ClientId> = self.members.keys().copied().collect();
        if recipients.is_empty() {
            return Vec::new();
        }
        let to_members = |logged: &LoggedUpdate| ReplicaEffect::ToClients {
            recipients: recipients.clone(),
            event: ServerEvent::Multicast {
                group,
                logged: logged.clone(),
            },
        };
        let window = log.suffix_iter().filter(|u| u.seq > after);
        window.map(to_members).collect()
    }
}

/// The replica state machine. See the module docs.
pub struct ReplicaCore {
    me: ServerId,
    next_tag: u64,
    next_local_client: u64,
    pending: HashMap<u64, ClientRequest>,
    groups: BTreeMap<GroupId, LocalGroup>,
    clients: HashMap<ClientId, String>,
    /// A recipient list handed back by the runtime once its fan-out
    /// went out ([`ReplicaCore::recycle_recipients`]), for the next.
    spare_recipients: Vec<ClientId>,
}

impl ReplicaCore {
    /// Creates a replica core for server `me`.
    pub fn new(me: ServerId) -> Self {
        ReplicaCore {
            me,
            next_tag: 1,
            next_local_client: 1,
            pending: HashMap::new(),
            groups: BTreeMap::new(),
            clients: HashMap::new(),
            spare_recipients: Vec::new(),
        }
    }

    /// Takes back the recipient list of a [`ReplicaEffect::ToClients`]
    /// that has been carried out: the next local fan-out fills it
    /// rather than allocating its own.
    pub fn recycle_recipients(&mut self, mut recipients: Vec<ClientId>) {
        recipients.clear();
        self.spare_recipients = recipients;
    }

    /// This server's id.
    pub fn me(&self) -> ServerId {
        self.me
    }

    /// Locally hosted groups.
    pub fn hosted_groups(&self) -> Vec<GroupId> {
        self.groups.keys().copied().collect()
    }

    /// Local members of a group.
    pub fn local_members(&self, group: GroupId) -> Vec<ClientId> {
        self.groups
            .get(&group)
            .map(|g| g.members.keys().copied().collect())
            .unwrap_or_default()
    }

    /// The hot-standby log copy, if bootstrapped.
    pub fn standby_log(&self, group: GroupId) -> Option<&GroupLog> {
        self.groups.get(&group).and_then(|g| g.log.as_ref())
    }

    fn fresh_tag(&mut self) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        tag
    }

    /// Handles a client `Hello`: assigns a cluster-unique id (or
    /// resumes one), welcomes the client locally, and registers it
    /// with the coordinator.
    pub fn client_hello(
        &mut self,
        display_name: String,
        resume: Option<ClientId>,
    ) -> (ClientId, Vec<ReplicaEffect>) {
        let client = resume.unwrap_or_else(|| {
            // Cluster-unique: the server id partitions the space.
            let id = ClientId::new(self.me.raw() * 1_000_000 + self.next_local_client);
            self.next_local_client += 1;
            id
        });
        self.clients.insert(client, display_name.clone());
        let tag = self.fresh_tag();
        self.pending.insert(
            tag,
            ClientRequest::Hello {
                version: PROTOCOL_VERSION,
                display_name: display_name.clone(),
                resume: Some(client),
            },
        );
        let effects = vec![
            ReplicaEffect::ToClient {
                to: client,
                event: ServerEvent::Welcome {
                    server: self.me,
                    client,
                    version: PROTOCOL_VERSION,
                },
            },
            ReplicaEffect::ToCoordinator(PeerMessage::ForwardRequest {
                origin: self.me,
                client,
                local_tag: tag,
                request: ClientRequest::Hello {
                    version: PROTOCOL_VERSION,
                    display_name,
                    resume: Some(client),
                },
            }),
        ];
        (client, effects)
    }

    /// Handles one decoded request from a local client.
    pub fn handle_request(
        &mut self,
        client: ClientId,
        request: ClientRequest,
        now: Timestamp,
    ) -> Vec<ReplicaEffect> {
        match request {
            ClientRequest::Ping { nonce } => vec![ReplicaEffect::ToClient {
                to: client,
                event: ServerEvent::Pong { nonce, at: now },
            }],
            ClientRequest::Broadcast {
                group,
                update,
                scope,
            } => {
                let tag = self.fresh_tag();
                vec![ReplicaEffect::ToCoordinator(
                    PeerMessage::ForwardBroadcast {
                        origin: self.me,
                        sender: client,
                        group,
                        update,
                        scope,
                        local_tag: tag,
                    },
                )]
            }
            ClientRequest::Goodbye => self.client_disconnected(client),
            request => {
                let tag = self.fresh_tag();
                self.pending.insert(tag, request.clone());
                vec![ReplicaEffect::ToCoordinator(PeerMessage::ForwardRequest {
                    origin: self.me,
                    client,
                    local_tag: tag,
                    request,
                })]
            }
        }
    }

    /// Cleans up after a local client disconnect and tells the
    /// coordinator.
    pub fn client_disconnected(&mut self, client: ClientId) -> Vec<ReplicaEffect> {
        self.clients.remove(&client);
        let mut effects = Vec::new();
        let mut emptied = Vec::new();
        for (gid, group) in self.groups.iter_mut() {
            if group.members.remove(&client).is_some() && group.members.is_empty() {
                emptied.push(*gid);
            }
        }
        for gid in emptied {
            self.groups.remove(&gid);
            effects.push(ReplicaEffect::ToCoordinator(PeerMessage::GroupHosting {
                server: self.me,
                group: gid,
                hosting: false,
            }));
        }
        effects.push(ReplicaEffect::ToCoordinator(PeerMessage::ForwardRequest {
            origin: self.me,
            client,
            local_tag: self.fresh_tag(),
            request: ClientRequest::Goodbye,
        }));
        effects
    }

    /// Handles a peer message addressed to the replica role.
    pub fn handle_peer(&mut self, msg: PeerMessage) -> Vec<ReplicaEffect> {
        match msg {
            PeerMessage::RequestOutcome {
                local_tag,
                client,
                events,
                ..
            } => self.request_outcome(local_tag, client, events),
            PeerMessage::Sequenced {
                group,
                logged,
                scope,
                ..
            } => self.sequenced(group, logged, scope),
            PeerMessage::Deliver { client, event } => {
                self.track_delivered_event(client, &event);
                if self.clients.contains_key(&client) {
                    vec![ReplicaEffect::ToClient { to: client, event }]
                } else {
                    Vec::new()
                }
            }
            PeerMessage::GroupStateReply {
                group,
                persistence,
                through,
                state,
                updates,
                ..
            } => {
                let mut effects = Vec::new();
                if let Some(local) = self.groups.get_mut(&group) {
                    let mut log = GroupLog::restore(group, state, through, Vec::new());
                    for u in updates {
                        let _ = log.append_sequenced(u);
                    }
                    let handed = local.handed();
                    if local.log.is_none() && log.last_seq() < handed {
                        // Overtaken by updates that went out live while
                        // it was in flight: it cannot be the copy of a
                        // stream already past it. The next `Sequenced`
                        // asks again — not this arm, or a coordinator
                        // whose log ends short of `handed` (a failover
                        // that lost the tail) would be asked for ever.
                        local.overtaken = true;
                    } else if local.log.is_none() || log.last_seq() > handed {
                        // Fresher than what we have, and maybe the
                        // refresh that closes a `Sequenced` gap (a new
                        // coordinator fanned out a few updates before
                        // learning we host the group; a reordered link
                        // put one ahead of its predecessor). Local
                        // fan-out was suppressed from the gap on, so
                        // deliver the whole missed window, in order,
                        // now. The log does not record per-update
                        // delivery scope, so a local sender may see its
                        // own sender-exclusive update again; mirrors
                        // deduplicate by sequence number.
                        effects = local.replay(group, &log, handed);
                        local.log = Some(log);
                    }
                    local.persistence = persistence;
                }
                effects
            }
            PeerMessage::GroupStateQuery { from: _, group } => {
                // Hot-standby duty: answer from the local copy.
                let Some(local) = self.groups.get(&group) else {
                    return Vec::new();
                };
                let Some(log) = &local.log else {
                    return Vec::new();
                };
                vec![ReplicaEffect::ToCoordinator(PeerMessage::GroupStateReply {
                    from: self.me,
                    group,
                    persistence: local.persistence,
                    through: log.checkpoint_seq(),
                    state: log.checkpoint_state().clone(),
                    updates: log.suffix_iter().cloned().collect(),
                })]
            }
            _ => Vec::new(),
        }
    }

    /// Messages a replica sends to a *new* coordinator so it can
    /// rebuild authoritative state: one `MemberAnnounce` per local
    /// member and one `GroupStateReply` per hosted standby log.
    pub fn resync_messages(&self) -> Vec<PeerMessage> {
        let mut out = Vec::new();
        for (gid, group) in &self.groups {
            for member in group.members.values() {
                out.push(PeerMessage::MemberAnnounce {
                    server: self.me,
                    group: *gid,
                    persistence: group.persistence,
                    info: member.info.clone(),
                    notify: member.notify,
                });
            }
            if let Some(log) = &group.log {
                out.push(PeerMessage::GroupStateReply {
                    from: self.me,
                    group: *gid,
                    persistence: group.persistence,
                    through: log.checkpoint_seq(),
                    state: log.checkpoint_state().clone(),
                    updates: log.suffix_iter().cloned().collect(),
                });
            }
            out.push(PeerMessage::GroupHosting {
                server: self.me,
                group: *gid,
                hosting: true,
            });
        }
        out
    }

    /// Quarantines every hot-standby log copy, returning the taken
    /// logs. Called when this server is demoted from a (possibly
    /// stale) coordinatorship: the quarantined copies may carry a
    /// divergent suffix sequenced without quorum, so they must not be
    /// offered to the new coordinator via [`ReplicaCore::resync_messages`]
    /// (which skips groups without a log) until the runtime has
    /// reconciled them against the live side.
    pub fn quarantine_logs(&mut self) -> Vec<(GroupId, GroupLog)> {
        let mut out = Vec::new();
        for (gid, group) in self.groups.iter_mut() {
            if let Some(log) = group.log.take() {
                group.through = log.last_seq();
                out.push((*gid, log));
            }
        }
        out
    }

    /// Installs a reconciled log for `group` (the merge outcome of a
    /// quarantined divergent copy against the live coordinator's) and
    /// replays the window above `replay_from` to the locally homed
    /// members, in order, so their streams converge on the quorum-side
    /// history.
    pub fn install_reconciled(
        &mut self,
        group: GroupId,
        log: GroupLog,
        replay_from: SeqNo,
    ) -> Vec<ReplicaEffect> {
        let Some(local) = self.groups.get_mut(&group) else {
            return Vec::new();
        };
        let effects = local.replay(group, &log, replay_from);
        local.log = Some(log);
        effects
    }

    // ----- internals ---------------------------------------------------------

    fn request_outcome(
        &mut self,
        local_tag: u64,
        client: ClientId,
        events: Vec<ServerEvent>,
    ) -> Vec<ReplicaEffect> {
        let request = self.pending.remove(&local_tag);
        let mut effects = Vec::new();
        // Track membership changes this outcome implies.
        if let Some(request) = &request {
            for event in &events {
                match (request, event) {
                    (
                        ClientRequest::Join {
                            group,
                            role,
                            notify_membership,
                            ..
                        },
                        ServerEvent::Joined { transfer, .. },
                    ) => {
                        let display = self.clients.get(&client).cloned().unwrap_or_default();
                        let first_member;
                        {
                            let local = self.groups.entry(*group).or_default();
                            first_member = local.members.is_empty();
                            if first_member {
                                local.through = transfer.through;
                            }
                            local.members.insert(
                                client,
                                LocalMember {
                                    info: MemberInfo::new(client, *role, display),
                                    notify: *notify_membership,
                                },
                            );
                        }
                        if first_member {
                            // Start hosting: announce and bootstrap the
                            // standby log.
                            effects.push(ReplicaEffect::ToCoordinator(PeerMessage::GroupHosting {
                                server: self.me,
                                group: *group,
                                hosting: true,
                            }));
                            effects.push(ReplicaEffect::ToCoordinator(
                                PeerMessage::GroupStateQuery {
                                    from: self.me,
                                    group: *group,
                                },
                            ));
                        }
                    }
                    (ClientRequest::Leave { group }, ServerEvent::Left { .. }) => {
                        effects.extend(self.remove_local_member(*group, client));
                    }
                    (_, ServerEvent::GroupDeleted { group }) => {
                        self.groups.remove(group);
                    }
                    _ => {}
                }
            }
        }
        // Forward the reply events to the client (skip Welcome: the
        // replica already welcomed it at Hello time).
        for event in events {
            if matches!(event, ServerEvent::Welcome { .. }) {
                continue;
            }
            if self.clients.contains_key(&client) {
                effects.push(ReplicaEffect::ToClient { to: client, event });
            }
        }
        effects
    }

    fn remove_local_member(&mut self, group: GroupId, client: ClientId) -> Vec<ReplicaEffect> {
        let mut effects = Vec::new();
        let mut drop_group = false;
        if let Some(local) = self.groups.get_mut(&group) {
            local.members.remove(&client);
            drop_group = local.members.is_empty();
        }
        if drop_group {
            self.groups.remove(&group);
            effects.push(ReplicaEffect::ToCoordinator(PeerMessage::GroupHosting {
                server: self.me,
                group,
                hosting: false,
            }));
        }
        effects
    }

    fn track_delivered_event(&mut self, _client: ClientId, event: &ServerEvent) {
        if let ServerEvent::GroupDeleted { group } = event {
            self.groups.remove(group);
        }
    }

    fn sequenced(
        &mut self,
        group: GroupId,
        logged: LoggedUpdate,
        scope: DeliveryScope,
    ) -> Vec<ReplicaEffect> {
        let mut effects = Vec::new();
        let mut needs_refresh = false;
        let mut duplicate = false;
        // Still no copy, and the last reply was overtaken.
        let mut requery = false;
        if let Some(local) = self.groups.get_mut(&group) {
            // Keep the standby copy current.
            match &mut local.log {
                Some(log) => {
                    // An append rejection past our tail is a gap (we
                    // missed traffic, e.g. across an election):
                    // refresh from the coordinator. A rejection at or
                    // below the tail is a duplicate (e.g. a retried or
                    // nemesis-duplicated frame): already delivered, so
                    // never fan it out again.
                    let appended = log.append_sequenced(logged.clone());
                    needs_refresh = !appended && logged.seq > log.last_seq();
                    duplicate = !appended && !needs_refresh;
                }
                // No copy yet (its bootstrap reply is in flight, or it
                // is quarantined): the same three cases, against what
                // members have been handed. A successor goes out live.
                None if logged.seq == local.through.next() => {
                    local.through = logged.seq;
                    requery = std::mem::take(&mut local.overtaken);
                    if logged.seq == SeqNo::new(1) {
                        // First update of a brand-new group: we can
                        // build the copy without a query.
                        let mut log = GroupLog::new(group, SharedState::new());
                        let _ = log.append_sequenced(logged.clone());
                        local.log = Some(log);
                    }
                }
                None => {
                    needs_refresh = logged.seq > local.through;
                    duplicate = !needs_refresh;
                }
            }
            // Local fan-out: one batched effect so the runtime encodes
            // the frame once for all local recipients. Suppressed while
            // the copy is gapped: delivering post-gap updates live
            // would hand members an out-of-order stream. The
            // `GroupStateReply` repair below delivers the whole missed
            // window (this update included) in sequence order instead.
            if !needs_refresh && !duplicate {
                let mut recipients = std::mem::take(&mut self.spare_recipients);
                recipients.extend(local.members.keys().filter(|member| {
                    !(scope == DeliveryScope::SenderExclusive && **member == logged.sender)
                }));
                if recipients.is_empty() {
                    self.spare_recipients = recipients;
                } else {
                    effects.push(ReplicaEffect::ToClients {
                        recipients,
                        event: ServerEvent::Multicast { group, logged },
                    });
                }
            }
        }
        if needs_refresh || requery {
            effects.push(ReplicaEffect::ToCoordinator(PeerMessage::GroupStateQuery {
                from: self.me,
                group,
            }));
        }
        effects
    }
}

impl std::fmt::Debug for ReplicaCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaCore")
            .field("me", &self.me)
            .field("clients", &self.clients.len())
            .field("hosted_groups", &self.groups.len())
            .finish_non_exhaustive()
    }
}
