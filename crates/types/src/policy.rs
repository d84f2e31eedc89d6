//! Client-selectable policies: state transfer, delivery scope, group
//! persistence and member roles.
//!
//! A central claim of the paper is *customised state transfer*: "based
//! on the speed of its connection to the server and application
//! characteristics, the client may request either to receive the whole
//! state of the group or the latest n updates to the state ... It may
//! also request to be transferred only the state of certain objects"
//! (§3.2).

use crate::id::{ClientId, ObjectId, SeqNo};
use crate::wire::wire;
use std::fmt;

wire! {
    /// How much of the group's shared state a joining (or reconnecting)
    /// client wants transferred.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub enum StateTransferPolicy {
        /// The full materialised state of every shared object.
        #[default]
        0 => FullState,
        /// Only the latest `n` logged updates (incremental catch-up for
        /// slow links; the client is expected to tolerate missing older
        /// history).
        1 => LastUpdates(u64),
        /// The full state of only the named objects.
        2 => Objects(Vec<ObjectId>),
        /// Every logged update with a sequence number greater than `since`
        /// — used by reconnecting clients that already hold a prefix.
        3 => UpdatesSince(SeqNo),
        /// No state at all (pure publisher clients that only push data).
        4 => None,
    }
}

impl StateTransferPolicy {
    /// Whether the policy transfers any data.
    pub fn transfers_state(&self) -> bool {
        !matches!(self, StateTransferPolicy::None)
    }
}

impl fmt::Display for StateTransferPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateTransferPolicy::FullState => f.write_str("full-state"),
            StateTransferPolicy::LastUpdates(n) => write!(f, "last-{n}-updates"),
            StateTransferPolicy::Objects(ids) => write!(f, "objects({})", ids.len()),
            StateTransferPolicy::UpdatesSince(seq) => write!(f, "updates-since-{seq}"),
            StateTransferPolicy::None => f.write_str("no-state"),
        }
    }
}

wire! {
    /// Whether the sender of a multicast receives its own message back.
    ///
    /// "A client multicasts a message sender-inclusively when the client
    /// needs certain operations that the service performs on the message
    /// (e.g., timestamping the message with real time)" (§3.2).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    pub enum DeliveryScope {
        /// Deliver to every member including the sender.
        #[default]
        0 => SenderInclusive,
        /// Deliver to every member except the sender.
        1 => SenderExclusive,
    }
}

wire! {
    /// Group lifetime semantics (§3.1).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    pub enum Persistence {
        /// The group and its shared state exist even with no members; only
        /// an explicit `deleteGroup` removes it.
        0 => Persistent,
        /// The group ceases to exist when its membership becomes null and
        /// its shared state is lost.
        #[default]
        1 => Transient,
    }
}

wire! {
    /// The relationship of a member to a group. The paper (§3.1, fn. 1)
    /// distinguishes principals from observers; observers receive the data
    /// stream and awareness notifications but may not modify shared state.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    pub enum MemberRole {
        /// Full member: may read and update the shared state.
        #[default]
        0 => Principal,
        /// Read-only member: receives multicasts and membership awareness
        /// but may not broadcast updates or take locks.
        1 => Observer,
    }
}

impl MemberRole {
    /// Whether the role permits updating shared state.
    pub fn may_update(self) -> bool {
        matches!(self, MemberRole::Principal)
    }
}

wire! {
    /// Public information about one group member, as carried in membership
    /// queries and change notifications (the "awareness" service).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct MemberInfo {
        /// The member's client id.
        pub client: ClientId,
        /// The member's role.
        pub role: MemberRole,
        /// Free-form display name supplied at join (e.g. a user name shown
        /// in the membership status window).
        pub display_name: String,
    }
}

impl MemberInfo {
    /// Creates a member record.
    pub fn new(client: ClientId, role: MemberRole, display_name: impl Into<String>) -> Self {
        MemberInfo {
            client,
            role,
            display_name: display_name.into(),
        }
    }
}

wire! {
    /// A membership change event delivered to members that subscribed to
    /// membership notifications.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum MembershipChange {
        /// A client joined the group.
        0 => Joined(ClientId),
        /// A client left the group voluntarily.
        1 => Left(ClientId),
        /// A client was disconnected (crash or link failure detected).
        2 => Disconnected(ClientId),
    }
}

impl MembershipChange {
    /// The client the change is about.
    pub fn client(self) -> ClientId {
        match self {
            MembershipChange::Joined(c)
            | MembershipChange::Left(c)
            | MembershipChange::Disconnected(c) => c,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CodecError;
    use crate::state::UpdateKind;
    use crate::wire::{assert_golden, Decode};

    #[test]
    fn policy_codec_roundtrips() {
        assert_golden(vec![
            (StateTransferPolicy::FullState, "00"),
            (StateTransferPolicy::LastUpdates(17), "01 11"),
            (
                StateTransferPolicy::Objects(vec![ObjectId::new(1), ObjectId::new(9)]),
                "02 020109",
            ),
            (StateTransferPolicy::UpdatesSince(SeqNo::new(42)), "03 2a"),
            (StateTransferPolicy::None, "04"),
        ]);
    }

    #[test]
    fn policy_transfers_state() {
        assert!(StateTransferPolicy::FullState.transfers_state());
        assert!(StateTransferPolicy::LastUpdates(0).transfers_state());
        assert!(!StateTransferPolicy::None.transfers_state());
    }

    #[test]
    fn scope_persistence_role_roundtrip() {
        assert_golden(vec![
            (DeliveryScope::SenderInclusive, "00"),
            (DeliveryScope::SenderExclusive, "01"),
        ]);
        assert_golden(vec![
            (Persistence::Persistent, "00"),
            (Persistence::Transient, "01"),
        ]);
        assert_golden(vec![
            (MemberRole::Principal, "00"),
            (MemberRole::Observer, "01"),
        ]);
        assert_golden(vec![
            (UpdateKind::SetState, "00"),
            (UpdateKind::Incremental, "01"),
        ]);
    }

    #[test]
    fn roles_gate_updates() {
        assert!(MemberRole::Principal.may_update());
        assert!(!MemberRole::Observer.may_update());
    }

    #[test]
    fn member_info_roundtrip() {
        let info = MemberInfo::new(ClientId::new(12), MemberRole::Observer, "ann");
        assert_golden(vec![(info, "0c0103616e6e")]);
    }

    #[test]
    fn membership_change_roundtrip_and_accessor() {
        assert_golden(vec![
            (MembershipChange::Joined(ClientId::new(3)), "00 03"),
            (MembershipChange::Left(ClientId::new(4)), "01 04"),
            (MembershipChange::Disconnected(ClientId::new(5)), "02 05"),
        ]);
        assert_eq!(
            MembershipChange::Joined(ClientId::new(3)).client(),
            ClientId::new(3)
        );
    }

    #[test]
    fn bad_tags_rejected() {
        fn invalid<T>(context: &'static str, tag: u8) -> Result<T, CodecError> {
            Err(CodecError::InvalidTag { context, tag })
        }
        assert_eq!(
            StateTransferPolicy::decode_exact(&[9]),
            invalid("StateTransferPolicy", 9)
        );
        assert_eq!(
            DeliveryScope::decode_exact(&[7]),
            invalid("DeliveryScope", 7)
        );
        assert_eq!(Persistence::decode_exact(&[7]), invalid("Persistence", 7));
        assert_eq!(MemberRole::decode_exact(&[7]), invalid("MemberRole", 7));
        assert_eq!(UpdateKind::decode_exact(&[7]), invalid("UpdateKind", 7));
        // The tag is checked before the client id is read.
        assert_eq!(
            MembershipChange::decode_exact(&[7]),
            invalid("MembershipChange", 7)
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(StateTransferPolicy::FullState.to_string(), "full-state");
        assert_eq!(
            StateTransferPolicy::LastUpdates(5).to_string(),
            "last-5-updates"
        );
        assert_eq!(
            StateTransferPolicy::UpdatesSince(SeqNo::new(3)).to_string(),
            "updates-since-#3"
        );
    }
}
