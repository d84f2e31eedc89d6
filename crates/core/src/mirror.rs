//! A client-side mirror of one group's shared state.
//!
//! The Corona service is type-opaque; clients interpret the byte
//! streams. [`GroupMirror`] does the generic half of that job: it
//! seeds state from a [`StateTransfer`] and keeps it current by
//! applying the sequenced [`ServerEvent::Multicast`] stream, detecting
//! duplicates and gaps (a gap means the client missed traffic — e.g.
//! after a reconnect — and should issue a `GetState` catch-up with
//! [`StateTransferPolicy::UpdatesSince`]).

use corona_types::id::{ClientId, GroupId, SeqNo};
use corona_types::message::{ServerEvent, StateTransfer};
use corona_types::policy::StateTransferPolicy;
use corona_types::state::{SharedState, StateUpdate};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Outcome of feeding one event to the mirror.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// The event advanced the mirror.
    Applied,
    /// The event belongs to another group or is not a multicast.
    Ignored,
    /// The event was already applied (duplicate).
    Duplicate,
    /// A sequence gap was detected; the mirror is stale until resynced.
    Gap {
        /// Last sequence number the mirror holds.
        have: SeqNo,
        /// Sequence number that arrived.
        got: SeqNo,
    },
}

/// A mirror the application reads and a client session keeps current
/// ([`CoronaClient::join_supervised`](crate::CoronaClient::join_supervised)).
pub type SharedMirror = Arc<Mutex<GroupMirror>>;

/// A client-side materialised view of a group's shared state.
#[derive(Debug, Clone)]
pub struct GroupMirror {
    group: GroupId,
    state: SharedState,
    last_seq: SeqNo,
    stale: bool,
    /// Updates applied optimistically via [`GroupMirror::apply_local`]
    /// whose sequenced echo has not arrived yet. Connection-FIFO order
    /// means echoes come back in submission order, so a queue matched
    /// front-first suffices.
    pending_local: VecDeque<StateUpdate>,
    /// When known, only echoes from this sender may settle a pending
    /// optimistic update (guards against another member coincidentally
    /// broadcasting an identical payload).
    local_client: Option<ClientId>,
}

impl GroupMirror {
    /// Builds a mirror from a join/catch-up transfer.
    pub fn from_transfer(transfer: &StateTransfer) -> Self {
        GroupMirror {
            group: transfer.group,
            state: transfer.reconstruct(),
            last_seq: transfer.through,
            stale: false,
            pending_local: VecDeque::new(),
            local_client: None,
        }
    }

    /// Records which client id this mirror belongs to, tightening the
    /// optimistic-echo match to `sender == local_client`.
    pub fn set_local_client(&mut self, client: ClientId) {
        self.local_client = Some(client);
    }

    /// The mirrored group.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// The mirrored state.
    pub fn state(&self) -> &SharedState {
        &self.state
    }

    /// Sequence number of the newest applied update.
    pub fn last_seq(&self) -> SeqNo {
        self.last_seq
    }

    /// Whether a gap was detected (mirror needs a resync).
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    /// The catch-up request that repairs a stale mirror.
    pub fn catch_up_policy(&self) -> StateTransferPolicy {
        StateTransferPolicy::UpdatesSince(self.last_seq)
    }

    /// Applies a catch-up transfer obtained with
    /// [`GroupMirror::catch_up_policy`] (or any fuller policy).
    pub fn resync(&mut self, transfer: &StateTransfer) {
        if !transfer.objects.is_empty() {
            // Full(er) transfer: rebuild outright. The authoritative
            // state already contains any sequenced optimistic updates,
            // and unsequenced ones were lost with the connection.
            self.state = transfer.reconstruct();
            self.last_seq = transfer.through;
            self.pending_local.clear();
        } else {
            for logged in &transfer.updates {
                if logged.seq > self.last_seq {
                    if !self.settle_pending(logged.sender, &logged.update) {
                        self.state.apply(&logged.update);
                    }
                    self.last_seq = logged.seq;
                }
            }
            self.last_seq = self.last_seq.max(transfer.through);
        }
        self.stale = false;
    }

    /// Settles a sequenced update against the pending optimistic queue:
    /// returns `true` if it is the echo of an [`apply_local`] (already
    /// in the state; must not re-apply). Echoes return in submission
    /// order; when the sender is known to be us, pendings skipped over
    /// by a later echo can never be echoed themselves (sender-exclusive
    /// broadcasts) and are dropped.
    ///
    /// [`apply_local`]: GroupMirror::apply_local
    fn settle_pending(&mut self, sender: ClientId, update: &StateUpdate) -> bool {
        match self.local_client {
            Some(me) if me == sender => {
                if let Some(i) = self.pending_local.iter().position(|p| p == update) {
                    self.pending_local.drain(..=i);
                    true
                } else {
                    false
                }
            }
            // Known foreign sender: never an echo of ours.
            Some(_) => false,
            // Sender unknown: conservative front-of-queue payload match.
            None => {
                if self.pending_local.front() == Some(update) {
                    self.pending_local.pop_front();
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Feeds one server event to the mirror.
    pub fn apply_event(&mut self, event: &ServerEvent) -> ApplyOutcome {
        let ServerEvent::Multicast { group, logged } = event else {
            return ApplyOutcome::Ignored;
        };
        if *group != self.group {
            return ApplyOutcome::Ignored;
        }
        if logged.seq <= self.last_seq {
            return ApplyOutcome::Duplicate;
        }
        if logged.seq != self.last_seq.next() {
            self.stale = true;
            return ApplyOutcome::Gap {
                have: self.last_seq,
                got: logged.seq,
            };
        }
        if !self.settle_pending(logged.sender, &logged.update) {
            self.state.apply(&logged.update);
        }
        self.last_seq = logged.seq;
        ApplyOutcome::Applied
    }

    /// Applies a local update optimistically (before the server echo).
    /// Useful for latency-hiding UIs. The update is remembered as
    /// pending; when its sequenced echo arrives, [`apply_event`]
    /// advances the sequence number without re-applying the payload, so
    /// non-idempotent (incremental) updates are not applied twice.
    ///
    /// [`apply_event`]: GroupMirror::apply_event
    pub fn apply_local(&mut self, update: &StateUpdate) {
        self.state.apply(update);
        self.pending_local.push_back(update.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use corona_types::id::{ClientId, ObjectId};
    use corona_types::state::{LoggedUpdate, Timestamp};

    fn multicast(group: u64, seq: u64, payload: &str) -> ServerEvent {
        ServerEvent::Multicast {
            group: GroupId::new(group),
            logged: LoggedUpdate {
                seq: SeqNo::new(seq),
                sender: ClientId::new(1),
                timestamp: Timestamp::ZERO,
                update: StateUpdate::incremental(ObjectId::new(1), payload.as_bytes().to_vec()),
            },
        }
    }

    fn fresh_mirror() -> GroupMirror {
        GroupMirror::from_transfer(&StateTransfer::empty(GroupId::new(1), SeqNo::ZERO))
    }

    #[test]
    fn applies_in_order() {
        let mut m = fresh_mirror();
        assert_eq!(m.apply_event(&multicast(1, 1, "a")), ApplyOutcome::Applied);
        assert_eq!(m.apply_event(&multicast(1, 2, "b")), ApplyOutcome::Applied);
        assert_eq!(
            m.state().object(ObjectId::new(1)).unwrap().materialize(),
            Bytes::from_static(b"ab")
        );
        assert_eq!(m.last_seq(), SeqNo::new(2));
    }

    #[test]
    fn ignores_other_groups_and_event_kinds() {
        let mut m = fresh_mirror();
        assert_eq!(m.apply_event(&multicast(2, 1, "x")), ApplyOutcome::Ignored);
        assert_eq!(
            m.apply_event(&ServerEvent::Left {
                group: GroupId::new(1)
            }),
            ApplyOutcome::Ignored
        );
    }

    #[test]
    fn detects_duplicates_and_gaps() {
        let mut m = fresh_mirror();
        m.apply_event(&multicast(1, 1, "a"));
        assert_eq!(
            m.apply_event(&multicast(1, 1, "a")),
            ApplyOutcome::Duplicate
        );
        assert_eq!(
            m.apply_event(&multicast(1, 5, "z")),
            ApplyOutcome::Gap {
                have: SeqNo::new(1),
                got: SeqNo::new(5)
            }
        );
        assert!(m.is_stale());
        assert_eq!(
            m.catch_up_policy(),
            StateTransferPolicy::UpdatesSince(SeqNo::new(1))
        );
    }

    #[test]
    fn resync_with_incremental_transfer() {
        let mut m = fresh_mirror();
        m.apply_event(&multicast(1, 1, "a"));
        m.apply_event(&multicast(1, 5, "late")); // gap -> stale
        let transfer = StateTransfer {
            group: GroupId::new(1),
            basis: SeqNo::new(1),
            through: SeqNo::new(5),
            objects: vec![],
            updates: (2..=5)
                .map(|s| LoggedUpdate {
                    seq: SeqNo::new(s),
                    sender: ClientId::new(1),
                    timestamp: Timestamp::ZERO,
                    update: StateUpdate::incremental(ObjectId::new(1), format!("{s}").into_bytes()),
                })
                .collect(),
        };
        m.resync(&transfer);
        assert!(!m.is_stale());
        assert_eq!(m.last_seq(), SeqNo::new(5));
        assert_eq!(
            m.state().object(ObjectId::new(1)).unwrap().materialize(),
            Bytes::from_static(b"a2345")
        );
        // Stream continues seamlessly.
        assert_eq!(m.apply_event(&multicast(1, 6, "!")), ApplyOutcome::Applied);
    }

    #[test]
    fn resync_with_full_transfer_rebuilds() {
        let mut m = fresh_mirror();
        m.apply_event(&multicast(1, 1, "junk"));
        let transfer = StateTransfer {
            group: GroupId::new(1),
            basis: SeqNo::new(9),
            through: SeqNo::new(9),
            objects: vec![(ObjectId::new(1), Bytes::from_static(b"authoritative"))],
            updates: vec![],
        };
        m.resync(&transfer);
        assert_eq!(
            m.state().object(ObjectId::new(1)).unwrap().materialize(),
            Bytes::from_static(b"authoritative")
        );
        assert_eq!(m.last_seq(), SeqNo::new(9));
    }

    #[test]
    fn optimistic_local_apply() {
        let mut m = fresh_mirror();
        m.apply_local(&StateUpdate::incremental(ObjectId::new(1), &b"opt"[..]));
        assert_eq!(
            m.state().object(ObjectId::new(1)).unwrap().materialize(),
            Bytes::from_static(b"opt")
        );
        // Sequence tracking unaffected.
        assert_eq!(m.last_seq(), SeqNo::ZERO);
    }

    #[test]
    fn optimistic_echo_is_not_applied_twice() {
        // Regression: a non-idempotent (incremental) update applied
        // optimistically used to be re-applied when its sequenced echo
        // arrived, corrupting the mirror ("aa" instead of "a").
        let mut m = fresh_mirror();
        m.set_local_client(ClientId::new(1));
        let update = StateUpdate::incremental(ObjectId::new(1), &b"a"[..]);
        m.apply_local(&update);
        assert_eq!(m.apply_event(&multicast(1, 1, "a")), ApplyOutcome::Applied);
        assert_eq!(
            m.state().object(ObjectId::new(1)).unwrap().materialize(),
            Bytes::from_static(b"a")
        );
        assert_eq!(m.last_seq(), SeqNo::new(1));
        // A genuinely new update with the same payload applies again.
        assert_eq!(m.apply_event(&multicast(1, 2, "a")), ApplyOutcome::Applied);
        assert_eq!(
            m.state().object(ObjectId::new(1)).unwrap().materialize(),
            Bytes::from_static(b"aa")
        );
    }

    #[test]
    fn foreign_identical_payload_does_not_settle_pending() {
        // Another member broadcasting the same bytes must not consume
        // our pending optimistic update.
        let mut m = fresh_mirror();
        m.set_local_client(ClientId::new(7));
        m.apply_local(&StateUpdate::incremental(ObjectId::new(1), &b"x"[..]));
        // multicast() stamps sender = ClientId(1), not us.
        assert_eq!(m.apply_event(&multicast(1, 1, "x")), ApplyOutcome::Applied);
        // Foreign copy applied on top of the optimistic one...
        assert_eq!(
            m.state().object(ObjectId::new(1)).unwrap().materialize(),
            Bytes::from_static(b"xx")
        );
        // ...and our echo still settles without a third application.
        let mut own = multicast(1, 2, "x");
        if let ServerEvent::Multicast { logged, .. } = &mut own {
            logged.sender = ClientId::new(7);
        }
        assert_eq!(m.apply_event(&own), ApplyOutcome::Applied);
        assert_eq!(
            m.state().object(ObjectId::new(1)).unwrap().materialize(),
            Bytes::from_static(b"xx")
        );
    }

    #[test]
    fn exclusive_broadcasts_skipped_by_later_echo_are_dropped() {
        // A sender-exclusive optimistic update never echoes; a later
        // inclusive echo must settle its own entry and reap the dead
        // one rather than staying blocked behind it forever.
        let mut m = fresh_mirror();
        m.set_local_client(ClientId::new(7));
        m.apply_local(&StateUpdate::incremental(ObjectId::new(1), &b"dead"[..]));
        m.apply_local(&StateUpdate::incremental(ObjectId::new(1), &b"live"[..]));
        let mut own = multicast(1, 1, "live");
        if let ServerEvent::Multicast { logged, .. } = &mut own {
            logged.sender = ClientId::new(7);
        }
        assert_eq!(m.apply_event(&own), ApplyOutcome::Applied);
        assert_eq!(
            m.state().object(ObjectId::new(1)).unwrap().materialize(),
            Bytes::from_static(b"deadlive")
        );
        assert!(m.pending_local.is_empty());
    }

    #[test]
    fn resync_settles_pending_optimistic_updates() {
        // The catch-up path must dedupe exactly like the live stream:
        // reconnect with an optimistic update in flight, then receive
        // its echo inside the incremental transfer.
        let mut m = fresh_mirror();
        m.set_local_client(ClientId::new(1));
        m.apply_event(&multicast(1, 1, "a"));
        m.apply_local(&StateUpdate::incremental(ObjectId::new(1), &b"b"[..]));
        let transfer = StateTransfer {
            group: GroupId::new(1),
            basis: SeqNo::new(1),
            through: SeqNo::new(2),
            objects: vec![],
            updates: vec![LoggedUpdate {
                seq: SeqNo::new(2),
                sender: ClientId::new(1),
                timestamp: Timestamp::ZERO,
                update: StateUpdate::incremental(ObjectId::new(1), &b"b"[..]),
            }],
        };
        m.resync(&transfer);
        assert_eq!(
            m.state().object(ObjectId::new(1)).unwrap().materialize(),
            Bytes::from_static(b"ab")
        );
        assert_eq!(m.last_seq(), SeqNo::new(2));
    }
}
