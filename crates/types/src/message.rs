//! The Corona wire protocol.
//!
//! Three message families share one frame format:
//!
//! * [`ClientRequest`] — client → server,
//! * [`ServerEvent`] — server → client,
//! * [`PeerMessage`] — server ↔ server (replicated architecture, §4).
//!
//! Every variant is tagged with a stable byte; unknown tags fail
//! decoding with [`CodecError::InvalidTag`] rather than panicking, so a
//! server can survive version-skewed peers.
//!
//! Adding a message is one declaration: a variant with a fresh tag in
//! its enum's `wire!` block, which writes both directions of the codec,
//! and one `(value, hex)` row in this module's golden tests.
//!
//! [`CodecError::InvalidTag`]: crate::error::CodecError::InvalidTag

use crate::id::{ClientId, Epoch, GroupId, ObjectId, SeqNo, ServerId};
use crate::policy::{
    DeliveryScope, MemberInfo, MemberRole, MembershipChange, Persistence, StateTransferPolicy,
};
use crate::state::{LoggedUpdate, SharedState, StateUpdate, Timestamp};
use crate::wire::wire;
use bytes::Bytes;

/// Protocol version carried in `Hello`; bumped on incompatible change.
pub const PROTOCOL_VERSION: u16 = 1;

wire! {
    /// The state handed to a client on join / reconnect / explicit request.
    ///
    /// `objects` carries materialised full object states; `updates` carries
    /// logged updates to be applied *after* the objects. Which of the two
    /// is populated depends on the [`StateTransferPolicy`] the client
    /// chose. `basis` is the sequence number the transferred objects
    /// reflect: applying `updates` (whose sequence numbers all exceed
    /// `basis`) yields the state as of `through`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StateTransfer {
        /// Group the state belongs to.
        pub group: GroupId,
        /// Sequence number reflected by `objects`.
        pub basis: SeqNo,
        /// Sequence number reflected after also applying `updates`.
        pub through: SeqNo,
        /// Materialised object states.
        pub objects: Vec<(ObjectId, Bytes)>,
        /// Logged updates newer than `basis`.
        pub updates: Vec<LoggedUpdate>,
    }
}

impl StateTransfer {
    /// An empty transfer (policy [`StateTransferPolicy::None`]).
    pub fn empty(group: GroupId, through: SeqNo) -> Self {
        StateTransfer {
            group,
            basis: through,
            through,
            objects: Vec::new(),
            updates: Vec::new(),
        }
    }

    /// Total payload bytes carried (objects plus update payloads).
    pub fn payload_len(&self) -> usize {
        self.objects.iter().map(|(_, b)| b.len()).sum::<usize>()
            + self
                .updates
                .iter()
                .map(LoggedUpdate::payload_len)
                .sum::<usize>()
    }

    /// Reconstructs a [`SharedState`] by installing the objects and
    /// then applying the updates in order.
    pub fn reconstruct(&self) -> SharedState {
        let mut state =
            SharedState::from_objects(self.objects.iter().map(|(id, b)| (*id, b.clone())));
        state.apply_all(&self.updates);
        state
    }
}

wire! {
    /// Requests a client may send to the service.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum ClientRequest {
        /// First message on a connection. `resume` carries a previously
        /// assigned id when reconnecting after a failure, letting the
        /// server re-associate the client with its groups.
        0 => Hello {
            /// Protocol version the client speaks.
            version: u16,
            /// Display name for awareness services.
            display_name: String,
            /// Previously assigned id, if reconnecting.
            resume: Option<ClientId>,
        },
        /// Creates a group with an initial shared state (§3.2).
        1 => CreateGroup {
            /// Id of the new group.
            group: GroupId,
            /// Persistent or transient lifetime.
            persistence: Persistence,
            /// Initial shared state as defined in §3.1.
            initial_state: SharedState,
        },
        /// Deletes a group; its shared state is lost (§3.2).
        2 => DeleteGroup {
            /// The group to delete.
            group: GroupId,
        },
        /// Joins a group, requesting a state transfer under `policy`. The
        /// join protocol does not involve existing members (§3.2).
        3 => Join {
            /// The group to join.
            group: GroupId,
            /// Principal or observer.
            role: MemberRole,
            /// Requested state-transfer policy.
            policy: StateTransferPolicy,
            /// Whether to receive membership change notifications.
            notify_membership: bool,
        },
        /// Leaves a group.
        4 => Leave {
            /// The group to leave.
            group: GroupId,
        },
        /// Broadcasts a state update to the group (`bcastState` when
        /// `update.kind` is `SetState`, `bcastUpdate` otherwise).
        5 => Broadcast {
            /// Target group.
            group: GroupId,
            /// The update to multicast and log.
            update: StateUpdate,
            /// Sender-inclusive or sender-exclusive delivery.
            scope: DeliveryScope,
        },
        /// Queries current membership (`getMembership`, §3.2).
        6 => GetMembership {
            /// The queried group.
            group: GroupId,
        },
        /// Requests a (re-)transfer of state under a policy, without
        /// re-joining — used after reconnection.
        7 => GetState {
            /// The queried group.
            group: GroupId,
            /// Requested state-transfer policy.
            policy: StateTransferPolicy,
        },
        /// Requests an exclusive lock on a shared object (the
        /// synchronisation service of §3.2).
        8 => AcquireLock {
            /// Group holding the object.
            group: GroupId,
            /// Object to lock.
            object: ObjectId,
            /// If `true`, the request queues until the lock frees instead
            /// of being denied immediately.
            wait: bool,
        },
        /// Releases a previously acquired lock.
        9 => ReleaseLock {
            /// Group holding the object.
            group: GroupId,
            /// Object to unlock.
            object: ObjectId,
        },
        /// Requests log reduction up to `through` (or a server-chosen
        /// point when `None`) — §3.2 "state log reduction service".
        10 => ReduceLog {
            /// Group whose log should be reduced.
            group: GroupId,
            /// Reduce through this sequence number, if given.
            through: Option<SeqNo>,
        },
        /// Liveness probe; the server answers with `Pong`.
        11 => Ping {
            /// Echoed back in the `Pong`.
            nonce: u64,
        },
        /// Graceful disconnect: the server removes the client from all
        /// groups before closing.
        12 => Goodbye,
        /// Admin: requests the live health snapshot (alongside the
        /// metrics-oriented stats dump). The server answers with
        /// [`ServerEvent::Health`].
        13 => GetHealth,
    }
}

wire! {
    /// Events and replies the service sends to a client.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum ServerEvent {
        /// Reply to `Hello`: the id assigned (or re-confirmed) for this
        /// client, and the id of the serving replica.
        0 => Welcome {
            /// Serving replica.
            server: ServerId,
            /// Assigned client id.
            client: ClientId,
            /// Protocol version the server speaks.
            version: u16,
        },
        /// A group was created on behalf of this client.
        1 => GroupCreated {
            /// The new group.
            group: GroupId,
        },
        /// A group was deleted (reply, or notification to its members).
        2 => GroupDeleted {
            /// The deleted group.
            group: GroupId,
        },
        /// Reply to `Join`: membership snapshot plus the state transfer
        /// produced by the requested policy.
        3 => Joined {
            /// Current members (including the new one).
            members: Vec<MemberInfo>,
            /// The transferred state.
            transfer: StateTransfer,
        },
        /// Reply to `Leave`.
        4 => Left {
            /// The group left.
            group: GroupId,
        },
        /// Reply to `GetState`.
        5 => State {
            /// The transferred state.
            transfer: StateTransfer,
        },
        /// A sequenced group multicast (the data path).
        6 => Multicast {
            /// Group the update belongs to.
            group: GroupId,
            /// The sequenced update.
            logged: LoggedUpdate,
        },
        /// Membership change notification (only sent to members that
        /// subscribed with `notify_membership`).
        7 => MembershipChanged {
            /// Group whose membership changed.
            group: GroupId,
            /// The change.
            change: MembershipChange,
            /// Display info for the affected client.
            info: MemberInfo,
        },
        /// Reply to `GetMembership`.
        8 => Membership {
            /// The queried group.
            group: GroupId,
            /// Current members.
            members: Vec<MemberInfo>,
        },
        /// A lock request succeeded.
        9 => LockGranted {
            /// Group holding the object.
            group: GroupId,
            /// The locked object.
            object: ObjectId,
        },
        /// A non-waiting lock request failed.
        10 => LockDenied {
            /// Group holding the object.
            group: GroupId,
            /// The contended object.
            object: ObjectId,
            /// Current holder.
            holder: ClientId,
        },
        /// A lock was released (reply to `ReleaseLock`).
        11 => LockReleased {
            /// Group holding the object.
            group: GroupId,
            /// The unlocked object.
            object: ObjectId,
        },
        /// The group's log was reduced; clients relying on `UpdatesSince`
        /// older than `through` must fall back to a fuller policy.
        12 => LogReduced {
            /// Group whose log was reduced.
            group: GroupId,
            /// Updates at or below this sequence number were folded into
            /// the checkpoint.
            through: SeqNo,
        },
        /// An error reply.
        13 => Error {
            /// Stable error code (see
            /// [`ErrorCode`](crate::error::ErrorCode)).
            code: u16,
            /// Human-readable detail.
            detail: String,
        },
        /// Reply to `Ping`.
        14 => Pong {
            /// Echo of the request nonce.
            nonce: u64,
            /// Server receive timestamp, for client RTT estimation.
            at: Timestamp,
        },
        /// The current replica roster, pushed on join and whenever an
        /// election resolves. Clients keep the latest copy so that on
        /// disconnect they know every address they can fail over to (§4).
        15 => Roster {
            /// Epoch of this configuration; clients keep the highest seen.
            epoch: Epoch,
            /// The acting coordinator (sequencer).
            coordinator: ServerId,
            /// Live servers and their client-dialable addresses.
            servers: Vec<(ServerId, String)>,
        },
        /// Reply to `GetHealth`: the versioned health-plane snapshot.
        /// Carried as opaque JSON so the schema can evolve without wire
        /// changes; `schema` lets scrapers reject unknown layouts cheaply.
        16 => Health {
            /// Health-snapshot schema version.
            schema: u16,
            /// The snapshot, one JSON object.
            json: String,
        },
    }
}

impl ServerEvent {
    /// Whether this event is the reply to `request`: an `Error` (which
    /// names no request), or the reply of its kind that names the same
    /// group — and lock object, and ping nonce.
    pub fn answers(&self, request: &ClientRequest) -> bool {
        use ClientRequest as Q;
        use ServerEvent as E;
        let lock = |group, object| match self {
            E::LockGranted {
                group: g,
                object: o,
            }
            | E::LockDenied {
                group: g,
                object: o,
                ..
            }
            | E::LockReleased {
                group: g,
                object: o,
            } => (g, o) == (group, object),
            _ => false,
        };
        match (request, self) {
            (_, E::Error { .. }) | (Q::Hello { .. }, E::Welcome { .. }) => true,
            (Q::GetHealth, E::Health { .. }) => true,
            (Q::CreateGroup { group, .. }, E::GroupCreated { group: g })
            | (Q::DeleteGroup { group }, E::GroupDeleted { group: g })
            | (Q::Leave { group }, E::Left { group: g })
            | (Q::GetMembership { group }, E::Membership { group: g, .. })
            | (Q::ReduceLog { group, .. }, E::LogReduced { group: g, .. }) => group == g,
            (Q::Join { group, .. }, E::Joined { transfer: t, .. })
            | (Q::GetState { group, .. }, E::State { transfer: t }) => *group == t.group,
            (
                Q::AcquireLock { group, object, .. },
                E::LockGranted { .. } | E::LockDenied { .. },
            )
            | (Q::ReleaseLock { group, object }, E::LockReleased { .. }) => lock(group, object),
            (Q::Ping { nonce }, E::Pong { nonce: n, .. }) => nonce == n,
            _ => false,
        }
    }
}

// Tags 5 and 12 are retired (a membership delta and a checkpoint
// announcement that nothing ever sent); a decoder of an older peer
// would misread them, so they must not be reused.
wire! {
    /// Messages exchanged between server replicas and the coordinator in
    /// the star-topology replicated architecture (§4).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum PeerMessage {
        /// A server introduces itself to a peer.
        0 => ServerHello {
            /// The connecting server.
            server: ServerId,
        },
        /// Heartbeat from the coordinator to a server or vice versa.
        1 => Heartbeat {
            /// Sending server.
            from: ServerId,
            /// Coordinator epoch the sender believes in.
            epoch: Epoch,
        },
        /// A server forwards a client broadcast to the coordinator for
        /// global sequencing.
        2 => ForwardBroadcast {
            /// Server that received the client request.
            origin: ServerId,
            /// The submitting client.
            sender: ClientId,
            /// Target group.
            group: GroupId,
            /// The update.
            update: StateUpdate,
            /// Delivery scope.
            scope: DeliveryScope,
            /// Origin-local tag so the origin can match the sequenced copy
            /// with its pending local delivery.
            local_tag: u64,
        },
        /// The coordinator distributes a globally sequenced update to every
        /// server hosting members of the group.
        3 => Sequenced {
            /// Target group.
            group: GroupId,
            /// Coordinator epoch under which the sequence was assigned.
            epoch: Epoch,
            /// Sequenced update.
            logged: LoggedUpdate,
            /// Delivery scope (sender exclusion handled at the origin).
            scope: DeliveryScope,
            /// Origin server and tag for dedup at the origin.
            origin: ServerId,
            /// Origin-local tag (see `ForwardBroadcast`).
            local_tag: u64,
        },
        /// A server announces it now hosts (or no longer hosts) members of
        /// a group — the coordinator routes `Sequenced` only to hosting
        /// servers (§4.1).
        4 => GroupHosting {
            /// The announcing server.
            server: ServerId,
            /// The group.
            group: GroupId,
            /// `true` when the server starts hosting, `false` when its last
            /// member leaves.
            hosting: bool,
        },
        /// A replica asks a peer for a group's state (used when a server
        /// starts hosting a group it has no copy of, and as the hot-standby
        /// backup protocol).
        6 => GroupStateQuery {
            /// Requesting server.
            from: ServerId,
            /// The group.
            group: GroupId,
        },
        /// Reply to [`PeerMessage::GroupStateQuery`]; also sent unsolicited
        /// to a freshly elected coordinator so it can rebuild authoritative
        /// state from the hot-standby copies (§4.1: "at least two copies of
        /// the state exist at any moment").
        7 => GroupStateReply {
            /// The replying server.
            from: ServerId,
            /// The group.
            group: GroupId,
            /// Lifetime semantics.
            persistence: Persistence,
            /// Sequence number reflected by `state`.
            through: SeqNo,
            /// Full shared state.
            state: SharedState,
            /// Suffix of the update log (for catch-up).
            updates: Vec<LoggedUpdate>,
        },
        /// A server forwards a client *control* request (create, join,
        /// leave, locks, ...) to the coordinator, which executes it against
        /// the authoritative state. Data broadcasts use the optimised
        /// [`PeerMessage::ForwardBroadcast`] path instead.
        13 => ForwardRequest {
            /// Server that received the client request.
            origin: ServerId,
            /// The requesting client.
            client: ClientId,
            /// Matches the reply ([`PeerMessage::RequestOutcome`]) to the
            /// origin's pending call.
            local_tag: u64,
            /// The forwarded request.
            request: ClientRequest,
        },
        /// The coordinator returns the events a forwarded request produced
        /// for the requesting client; side-effects for other clients travel
        /// as separate [`PeerMessage::Deliver`] messages.
        14 => RequestOutcome {
            /// Origin server of the forwarded request.
            origin: ServerId,
            /// Echo of the forward tag.
            local_tag: u64,
            /// The requesting client.
            client: ClientId,
            /// Events addressed to the requesting client.
            events: Vec<ServerEvent>,
        },
        /// The coordinator routes an event to a client homed on another
        /// server (membership notifications, lock grants, deletion
        /// notices).
        15 => Deliver {
            /// Destination client.
            client: ClientId,
            /// The event.
            event: ServerEvent,
        },
        /// Post-election resync: a replica re-announces one of its local
        /// members to the new coordinator.
        16 => MemberAnnounce {
            /// The announcing server.
            server: ServerId,
            /// The group.
            group: GroupId,
            /// Lifetime semantics the replica recorded for the group.
            persistence: Persistence,
            /// The member.
            info: MemberInfo,
            /// Whether the member subscribed to membership notifications.
            notify: bool,
        },
        /// A server claims coordinatorship after detecting coordinator
        /// failure (§4.2).
        8 => ElectionClaim {
            /// The claiming server.
            candidate: ServerId,
            /// Epoch the candidate proposes (current + 1).
            epoch: Epoch,
        },
        /// A server acknowledges an election claim.
        9 => ElectionAck {
            /// The acknowledging server.
            voter: ServerId,
            /// Epoch being acknowledged.
            epoch: Epoch,
        },
        /// A server rejects an election claim ("the first server wrongfully
        /// assumes that the coordinator is down ... will respond with a
        /// nack", §4.2).
        10 => ElectionNack {
            /// The rejecting server.
            voter: ServerId,
            /// The rejected epoch.
            epoch: Epoch,
            /// Who the rejecting server believes is coordinator.
            current_coordinator: ServerId,
        },
        /// The (new) coordinator publishes the authoritative server list,
        /// sorted by startup order (§4.2).
        11 => ServerList {
            /// Epoch of this configuration.
            epoch: Epoch,
            /// The coordinator.
            coordinator: ServerId,
            /// All live servers in startup order.
            servers: Vec<ServerId>,
        },
        /// A follower acknowledges a coordinator heartbeat. The coordinator
        /// counts fresh acks to maintain its quorum lease: without acks
        /// from a majority of the configured roster it fences itself and
        /// stops sequencing (partition write fencing).
        17 => HeartbeatAck {
            /// The acknowledging server.
            from: ServerId,
            /// Epoch the acknowledging server is following.
            epoch: Epoch,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CodecError;
    use crate::wire::{assert_golden, decode_traced, encode_traced, Decode, Encode, TraceToken};

    fn sample_logged(seq: u64) -> LoggedUpdate {
        LoggedUpdate {
            seq: SeqNo::new(seq),
            sender: ClientId::new(3),
            timestamp: Timestamp::from_micros(1000 + seq),
            update: StateUpdate::incremental(ObjectId::new(1), &b"delta"[..]),
        }
    }

    #[test]
    fn state_transfer_roundtrip_and_reconstruct() {
        let transfer = StateTransfer {
            group: GroupId::new(1),
            basis: SeqNo::new(10),
            through: SeqNo::new(12),
            objects: vec![(ObjectId::new(1), Bytes::from_static(b"base"))],
            updates: vec![sample_logged(11), sample_logged(12)],
        };
        assert_golden(vec![(
            transfer.clone(),
            "010a0c01010462617365020b03f30701010564656c74610c03f40701010564656c7461",
        )]);
        let state = transfer.reconstruct();
        assert_eq!(
            state.object(ObjectId::new(1)).unwrap().materialize(),
            Bytes::from_static(b"basedeltadelta")
        );
        assert_eq!(transfer.payload_len(), 4 + 5 + 5);
    }

    #[test]
    fn empty_transfer() {
        let t = StateTransfer::empty(GroupId::new(2), SeqNo::new(5));
        assert_eq!(t.basis, t.through);
        assert_eq!(t.payload_len(), 0);
        assert!(t.reconstruct().is_empty());
    }

    #[test]
    fn client_request_roundtrips() {
        assert_golden(vec![
            (
                ClientRequest::Hello {
                    version: PROTOCOL_VERSION,
                    display_name: "alice".into(),
                    resume: Some(ClientId::new(9)),
                },
                "00 010005616c6963650109",
            ),
            (
                ClientRequest::CreateGroup {
                    group: GroupId::new(1),
                    persistence: Persistence::Persistent,
                    initial_state: SharedState::from_objects([(ObjectId::new(1), &b"hello"[..])]),
                },
                "01 010001010568656c6c6f00",
            ),
            (
                ClientRequest::DeleteGroup {
                    group: GroupId::new(1),
                },
                "02 01",
            ),
            (
                ClientRequest::Join {
                    group: GroupId::new(1),
                    role: MemberRole::Observer,
                    policy: StateTransferPolicy::LastUpdates(10),
                    notify_membership: true,
                },
                "03 0101010a01",
            ),
            (
                ClientRequest::Leave {
                    group: GroupId::new(1),
                },
                "04 01",
            ),
            (
                ClientRequest::Broadcast {
                    group: GroupId::new(1),
                    update: StateUpdate::set_state(ObjectId::new(2), &b"new"[..]),
                    scope: DeliveryScope::SenderExclusive,
                },
                "05 010200036e657701",
            ),
            (
                ClientRequest::GetMembership {
                    group: GroupId::new(1),
                },
                "06 01",
            ),
            (
                ClientRequest::GetState {
                    group: GroupId::new(1),
                    policy: StateTransferPolicy::UpdatesSince(SeqNo::new(4)),
                },
                "07 010304",
            ),
            (
                ClientRequest::AcquireLock {
                    group: GroupId::new(1),
                    object: ObjectId::new(2),
                    wait: true,
                },
                "08 010201",
            ),
            (
                ClientRequest::ReleaseLock {
                    group: GroupId::new(1),
                    object: ObjectId::new(2),
                },
                "09 0102",
            ),
            (
                ClientRequest::ReduceLog {
                    group: GroupId::new(1),
                    through: Some(SeqNo::new(30)),
                },
                "0a 01011e",
            ),
            (ClientRequest::Ping { nonce: 77 }, "0b 4d"),
            (ClientRequest::Goodbye, "0c"),
            (ClientRequest::GetHealth, "0d"),
        ]);
    }

    #[test]
    fn server_event_roundtrips() {
        assert_golden(vec![
            (
                ServerEvent::Welcome {
                    server: ServerId::new(1),
                    client: ClientId::new(2),
                    version: PROTOCOL_VERSION,
                },
                "00 01020100",
            ),
            (
                ServerEvent::GroupCreated {
                    group: GroupId::new(3),
                },
                "01 03",
            ),
            (
                ServerEvent::GroupDeleted {
                    group: GroupId::new(3),
                },
                "02 03",
            ),
            (
                ServerEvent::Joined {
                    members: vec![MemberInfo::new(
                        ClientId::new(1),
                        MemberRole::Principal,
                        "a",
                    )],
                    transfer: StateTransfer::empty(GroupId::new(3), SeqNo::ZERO),
                },
                "03 01010001610300000000",
            ),
            (
                ServerEvent::Left {
                    group: GroupId::new(3),
                },
                "04 03",
            ),
            (
                ServerEvent::State {
                    transfer: StateTransfer::empty(GroupId::new(3), SeqNo::new(2)),
                },
                "05 0302020000",
            ),
            (
                ServerEvent::Multicast {
                    group: GroupId::new(3),
                    logged: sample_logged(7),
                },
                "06 030703ef0701010564656c7461",
            ),
            (
                ServerEvent::MembershipChanged {
                    group: GroupId::new(3),
                    change: MembershipChange::Left(ClientId::new(5)),
                    info: MemberInfo::new(ClientId::new(5), MemberRole::Principal, "bob"),
                },
                "07 030105050003626f62",
            ),
            (
                ServerEvent::Membership {
                    group: GroupId::new(3),
                    members: vec![],
                },
                "08 0300",
            ),
            (
                ServerEvent::LockGranted {
                    group: GroupId::new(3),
                    object: ObjectId::new(1),
                },
                "09 0301",
            ),
            (
                ServerEvent::LockDenied {
                    group: GroupId::new(3),
                    object: ObjectId::new(1),
                    holder: ClientId::new(8),
                },
                "0a 030108",
            ),
            (
                ServerEvent::LockReleased {
                    group: GroupId::new(3),
                    object: ObjectId::new(1),
                },
                "0b 0301",
            ),
            (
                ServerEvent::LogReduced {
                    group: GroupId::new(3),
                    through: SeqNo::new(100),
                },
                "0c 0364",
            ),
            (
                ServerEvent::Error {
                    code: 3,
                    detail: "not a member".into(),
                },
                "0d 03000c6e6f742061206d656d626572",
            ),
            (
                ServerEvent::Pong {
                    nonce: 1,
                    at: Timestamp::from_micros(5),
                },
                "0e 0105",
            ),
            (
                ServerEvent::Roster {
                    epoch: Epoch(4),
                    coordinator: ServerId::new(2),
                    servers: vec![
                        (ServerId::new(2), "s2:7000".to_string()),
                        (ServerId::new(3), "s3:7000".to_string()),
                    ],
                },
                "0f 040202020773323a37303030030773333a37303030",
            ),
            (
                ServerEvent::Health {
                    schema: 1,
                    json: "{\"schema\":1,\"seq\":7}".to_string(),
                },
                "10 0100147b22736368656d61223a312c22736571223a377d",
            ),
        ]);
    }

    #[test]
    fn peer_message_roundtrips() {
        assert_golden(vec![
            (
                PeerMessage::ServerHello {
                    server: ServerId::new(1),
                },
                "00 01",
            ),
            (
                PeerMessage::Heartbeat {
                    from: ServerId::new(1),
                    epoch: Epoch(3),
                },
                "01 0103",
            ),
            (
                PeerMessage::ForwardBroadcast {
                    origin: ServerId::new(2),
                    sender: ClientId::new(9),
                    group: GroupId::new(1),
                    update: StateUpdate::incremental(ObjectId::new(1), &b"x"[..]),
                    scope: DeliveryScope::SenderInclusive,
                    local_tag: 55,
                },
                "02 020901010101780037",
            ),
            (
                PeerMessage::Sequenced {
                    group: GroupId::new(1),
                    epoch: Epoch(3),
                    logged: sample_logged(8),
                    scope: DeliveryScope::SenderExclusive,
                    origin: ServerId::new(2),
                    local_tag: 55,
                },
                "03 01030803f00701010564656c7461010237",
            ),
            (
                PeerMessage::GroupHosting {
                    server: ServerId::new(2),
                    group: GroupId::new(1),
                    hosting: true,
                },
                "04 020101",
            ),
            (
                PeerMessage::GroupStateQuery {
                    from: ServerId::new(3),
                    group: GroupId::new(1),
                },
                "06 0301",
            ),
            (
                PeerMessage::GroupStateReply {
                    from: ServerId::new(4),
                    group: GroupId::new(1),
                    persistence: Persistence::Persistent,
                    through: SeqNo::new(20),
                    state: SharedState::from_objects([(ObjectId::new(1), &b"s"[..])]),
                    updates: vec![sample_logged(21)],
                },
                "07 040100140101017300011503fd0701010564656c7461",
            ),
            (
                PeerMessage::ForwardRequest {
                    origin: ServerId::new(2),
                    client: ClientId::new(9),
                    local_tag: 3,
                    request: ClientRequest::Leave {
                        group: GroupId::new(1),
                    },
                },
                "0d 0209030401",
            ),
            (
                PeerMessage::RequestOutcome {
                    origin: ServerId::new(2),
                    local_tag: 3,
                    client: ClientId::new(9),
                    events: vec![ServerEvent::Left {
                        group: GroupId::new(1),
                    }],
                },
                "0e 020309010401",
            ),
            (
                PeerMessage::Deliver {
                    client: ClientId::new(9),
                    event: ServerEvent::GroupDeleted {
                        group: GroupId::new(1),
                    },
                },
                "0f 090201",
            ),
            (
                PeerMessage::MemberAnnounce {
                    server: ServerId::new(2),
                    group: GroupId::new(1),
                    persistence: Persistence::Transient,
                    info: MemberInfo::new(ClientId::new(9), MemberRole::Principal, "z"),
                    notify: true,
                },
                "10 0201010900017a01",
            ),
            (
                PeerMessage::ElectionClaim {
                    candidate: ServerId::new(2),
                    epoch: Epoch(4),
                },
                "08 0204",
            ),
            (
                PeerMessage::ElectionAck {
                    voter: ServerId::new(3),
                    epoch: Epoch(4),
                },
                "09 0304",
            ),
            (
                PeerMessage::ElectionNack {
                    voter: ServerId::new(3),
                    epoch: Epoch(4),
                    current_coordinator: ServerId::new(1),
                },
                "0a 030401",
            ),
            (
                PeerMessage::ServerList {
                    epoch: Epoch(4),
                    coordinator: ServerId::new(2),
                    servers: vec![ServerId::new(2), ServerId::new(3)],
                },
                "0b 0402020203",
            ),
            (
                PeerMessage::HeartbeatAck {
                    from: ServerId::new(3),
                    epoch: Epoch(4),
                },
                "11 0304",
            ),
        ]);
    }

    #[test]
    fn traced_frame_is_the_message_then_the_token() {
        let ping = ClientRequest::Ping { nonce: 77 };
        let token = TraceToken {
            id: 42,
            origin_us: 1_234_567,
        };
        let frame = encode_traced(&ping, Some(token));
        let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
        // `Ping` (0b 4d), then TRACE_MARKER, varint id, varint origin_us.
        assert_eq!(hex, "0b4d c7 2a 87ad4b".replace(' ', ""));
        assert_eq!(decode_traced(&frame).unwrap(), (ping, Some(token)));
    }

    #[test]
    fn unknown_tags_fail_cleanly() {
        let unknown = |context| CodecError::InvalidTag { context, tag: 200 };
        assert_eq!(
            ClientRequest::decode_exact(&[200]),
            Err(unknown("ClientRequest"))
        );
        assert_eq!(
            ServerEvent::decode_exact(&[200]),
            Err(unknown("ServerEvent"))
        );
        assert_eq!(
            PeerMessage::decode_exact(&[200]),
            Err(unknown("PeerMessage"))
        );
    }

    #[test]
    fn truncated_messages_fail_cleanly() {
        let full = ClientRequest::Broadcast {
            group: GroupId::new(1),
            update: StateUpdate::incremental(ObjectId::new(1), &b"payload"[..]),
            scope: DeliveryScope::SenderInclusive,
        }
        .encode_to_vec();
        for cut in 0..full.len() {
            assert!(
                ClientRequest::decode_exact(&full[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }
}
