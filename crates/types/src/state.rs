//! The shared-state model of a Corona group.
//!
//! Following the paper (§3.1), the shared state of a group is a set
//! `S = {(O_1, S_1), ..., (O_n, S_n)}` where each `S_i` is a *byte
//! stream encoding* of object `O_i`. The service is deliberately
//! type-opaque: it never interprets object payloads, it only stores,
//! logs and forwards them. Interpretation is the responsibility of the
//! collaborating clients (the paper's "client-based semantics").
//!
//! Two update operations exist (§3.2):
//!
//! * `bcastState` — the payload is a **new state** for the object and
//!   *overrides* the present state;
//! * `bcastUpdate` — the payload is an **incremental change** and is
//!   *appended* to the existing state, preserving the history of
//!   updates on the object.

use crate::error::CodecError;
use crate::id::{ClientId, ObjectId, SeqNo};
use crate::wire::{len_bytes_len, varint_len, wire, Decode, Encode, Reader, WriteExt};
use bytes::{BufMut, Bytes, BytesMut};
use std::collections::BTreeMap;
use std::fmt;

/// Microseconds since the UNIX epoch (or since simulation start, when
/// running under the simulator). The Corona server stamps
/// sender-inclusive multicasts with real time on behalf of clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The zero timestamp.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Creates a timestamp from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Timestamp(micros)
    }

    /// The value in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Reads the host wall clock.
    pub fn now() -> Timestamp {
        use std::time::{SystemTime, UNIX_EPOCH};
        let micros = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        Timestamp(micros)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

wire! {
    /// How an update payload combines with the existing object state.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum UpdateKind {
        /// `bcastState`: the payload replaces the object's state.
        0 => SetState,
        /// `bcastUpdate`: the payload is appended, preserving history.
        1 => Incremental,
    }
}

wire! {
    /// A single update to one shared object, as submitted by a client.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StateUpdate {
        /// The object being updated.
        pub object: ObjectId,
        /// Replace vs append semantics.
        pub kind: UpdateKind,
        /// The opaque byte-stream payload.
        pub payload: Bytes,
    }
}

impl StateUpdate {
    /// Convenience constructor for a `bcastState` (override) update.
    pub fn set_state(object: ObjectId, payload: impl Into<Bytes>) -> Self {
        StateUpdate {
            object,
            kind: UpdateKind::SetState,
            payload: payload.into(),
        }
    }

    /// Convenience constructor for a `bcastUpdate` (incremental) update.
    pub fn incremental(object: ObjectId, payload: impl Into<Bytes>) -> Self {
        StateUpdate {
            object,
            kind: UpdateKind::Incremental,
            payload: payload.into(),
        }
    }

    /// Size of the payload in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }
}

wire! {
    /// An update after the service sequenced it: the unit of the state log
    /// and of multicast delivery.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct LoggedUpdate {
        /// Position in the group's total order.
        pub seq: SeqNo,
        /// The member that submitted the update.
        pub sender: ClientId,
        /// Server-assigned real-time stamp.
        pub timestamp: Timestamp,
        /// The update itself.
        pub update: StateUpdate,
    }
}

impl LoggedUpdate {
    /// Total encoded payload size (used by size-based log reduction).
    pub fn payload_len(&self) -> usize {
        self.update.payload.len()
    }
}

/// The materialised state of one shared object.
///
/// `base` holds the last `SetState` payload (or the creation-time
/// payload); `increments` holds every `Incremental` payload appended
/// since. The full byte-stream encoding of the object — what a joining
/// client receives under the full-state transfer policy — is
/// `base ∥ increments[0] ∥ increments[1] ∥ ...`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObjectState {
    /// Last full state written with `SetState`.
    pub base: Bytes,
    /// Incremental payloads appended since `base` was written.
    pub increments: Vec<Bytes>,
}

impl ObjectState {
    /// Creates an object state with the given base and no increments.
    pub fn with_base(base: impl Into<Bytes>) -> Self {
        ObjectState {
            base: base.into(),
            increments: Vec::new(),
        }
    }

    /// Applies one update in place.
    pub fn apply(&mut self, kind: UpdateKind, payload: Bytes) {
        match kind {
            UpdateKind::SetState => {
                self.base = payload;
                self.increments.clear();
            }
            UpdateKind::Incremental => self.increments.push(payload),
        }
    }

    /// Materialises the full byte stream (base followed by all
    /// increments, in order).
    pub fn materialize(&self) -> Bytes {
        if self.increments.is_empty() {
            return self.base.clone();
        }
        let total: usize = self.base.len() + self.increments.iter().map(Bytes::len).sum::<usize>();
        let mut out = BytesMut::with_capacity(total);
        out.put_slice(&self.base);
        for inc in &self.increments {
            out.put_slice(inc);
        }
        out.freeze()
    }

    /// Collapses the increments into the base, preserving the
    /// materialised value. Used by log reduction: "the new state is
    /// equivalent with the initial state plus the history of state
    /// updates" (§3.2).
    pub fn compact(&mut self) {
        if !self.increments.is_empty() {
            self.base = self.materialize();
            self.increments.clear();
        }
    }

    /// Total stored bytes (base plus increments).
    pub fn stored_len(&self) -> usize {
        self.base.len() + self.increments.iter().map(Bytes::len).sum::<usize>()
    }
}

impl Encode for ObjectState {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_len_bytes(&self.base);
        self.increments.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        len_bytes_len(self.base.len()) + self.increments.encoded_len()
    }
}

impl Decode for ObjectState {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ObjectState {
            base: reader.read_bytes()?,
            increments: Vec::decode(reader)?,
        })
    }
}

/// The shared state of a group: a set of shared objects keyed by id.
///
/// A `BTreeMap` keeps iteration order deterministic, which matters for
/// reproducible snapshots and for the deterministic simulator.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SharedState {
    objects: BTreeMap<ObjectId, ObjectState>,
}

impl SharedState {
    /// Creates an empty shared state.
    pub fn new() -> Self {
        SharedState::default()
    }

    /// Creates a shared state from `(id, initial bytes)` pairs.
    pub fn from_objects<I, B>(objects: I) -> Self
    where
        I: IntoIterator<Item = (ObjectId, B)>,
        B: Into<Bytes>,
    {
        SharedState {
            objects: objects
                .into_iter()
                .map(|(id, b)| (id, ObjectState::with_base(b)))
                .collect(),
        }
    }

    /// Number of shared objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the state holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Looks up one object's state.
    pub fn object(&self, id: ObjectId) -> Option<&ObjectState> {
        self.objects.get(&id)
    }

    /// Whether an object exists.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.objects.contains_key(&id)
    }

    /// Iterates over `(id, state)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &ObjectState)> {
        self.objects.iter().map(|(id, st)| (*id, st))
    }

    /// Object ids in order.
    pub fn object_ids(&self) -> Vec<ObjectId> {
        self.objects.keys().copied().collect()
    }

    /// Applies one update; creates the object if it does not exist yet
    /// (the service is type-opaque, so first use creates).
    pub fn apply(&mut self, update: &StateUpdate) {
        self.objects
            .entry(update.object)
            .or_default()
            .apply(update.kind, update.payload.clone());
    }

    /// Applies a sequence of logged updates in order.
    pub fn apply_all<'a>(&mut self, updates: impl IntoIterator<Item = &'a LoggedUpdate>) {
        for logged in updates {
            self.apply(&logged.update);
        }
    }

    /// Removes an object entirely. Returns its final state, if present.
    pub fn remove(&mut self, id: ObjectId) -> Option<ObjectState> {
        self.objects.remove(&id)
    }

    /// Compacts every object (see [`ObjectState::compact`]).
    pub fn compact(&mut self) {
        for obj in self.objects.values_mut() {
            obj.compact();
        }
    }

    /// Materialised `(id, full byte stream)` pairs — the payload of a
    /// full state transfer.
    pub fn materialize_all(&self) -> Vec<(ObjectId, Bytes)> {
        self.objects
            .iter()
            .map(|(id, st)| (*id, st.materialize()))
            .collect()
    }

    /// Total stored bytes across all objects (used by size-based log
    /// reduction and resource accounting).
    pub fn stored_len(&self) -> usize {
        self.objects.values().map(ObjectState::stored_len).sum()
    }
}

impl FromIterator<(ObjectId, ObjectState)> for SharedState {
    fn from_iter<I: IntoIterator<Item = (ObjectId, ObjectState)>>(iter: I) -> Self {
        SharedState {
            objects: iter.into_iter().collect(),
        }
    }
}

impl Extend<(ObjectId, ObjectState)> for SharedState {
    fn extend<I: IntoIterator<Item = (ObjectId, ObjectState)>>(&mut self, iter: I) {
        self.objects.extend(iter);
    }
}

impl Encode for SharedState {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_varint(self.objects.len() as u64);
        for (id, st) in &self.objects {
            id.encode(buf);
            st.encode(buf);
        }
    }

    fn encoded_len(&self) -> usize {
        let len = |(id, st): (&ObjectId, &ObjectState)| id.encoded_len() + st.encoded_len();
        varint_len(self.objects.len() as u64) + self.objects.iter().map(len).sum::<usize>()
    }
}

impl Decode for SharedState {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        let count = reader.read_len()?;
        let mut objects = BTreeMap::new();
        for _ in 0..count {
            let id = ObjectId::decode(reader)?;
            let st = ObjectState::decode(reader)?;
            objects.insert(id, st);
        }
        Ok(SharedState { objects })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(n: u64) -> ObjectId {
        ObjectId::new(n)
    }

    #[test]
    fn set_state_overrides() {
        let mut st = ObjectState::with_base(&b"abc"[..]);
        st.apply(UpdateKind::Incremental, Bytes::from_static(b"def"));
        st.apply(UpdateKind::SetState, Bytes::from_static(b"xyz"));
        assert_eq!(st.materialize(), Bytes::from_static(b"xyz"));
        assert!(st.increments.is_empty(), "SetState clears history");
    }

    #[test]
    fn incremental_appends_preserving_history() {
        let mut st = ObjectState::with_base(&b"a"[..]);
        st.apply(UpdateKind::Incremental, Bytes::from_static(b"b"));
        st.apply(UpdateKind::Incremental, Bytes::from_static(b"c"));
        assert_eq!(st.materialize(), Bytes::from_static(b"abc"));
        assert_eq!(st.increments.len(), 2);
    }

    #[test]
    fn compact_preserves_materialized_value() {
        let mut st = ObjectState::with_base(&b"12"[..]);
        st.apply(UpdateKind::Incremental, Bytes::from_static(b"34"));
        let before = st.materialize();
        st.compact();
        assert_eq!(st.materialize(), before);
        assert!(st.increments.is_empty());
        assert_eq!(st.base, before);
    }

    #[test]
    fn shared_state_creates_objects_on_first_update() {
        let mut state = SharedState::new();
        assert!(!state.contains(oid(1)));
        state.apply(&StateUpdate::incremental(oid(1), &b"x"[..]));
        assert!(state.contains(oid(1)));
        assert_eq!(
            state.object(oid(1)).unwrap().materialize(),
            Bytes::from_static(b"x")
        );
    }

    #[test]
    fn apply_all_in_order() {
        let mut state = SharedState::new();
        let updates = vec![
            LoggedUpdate {
                seq: SeqNo::new(1),
                sender: ClientId::new(1),
                timestamp: Timestamp::ZERO,
                update: StateUpdate::set_state(oid(1), &b"A"[..]),
            },
            LoggedUpdate {
                seq: SeqNo::new(2),
                sender: ClientId::new(2),
                timestamp: Timestamp::ZERO,
                update: StateUpdate::incremental(oid(1), &b"B"[..]),
            },
        ];
        state.apply_all(&updates);
        assert_eq!(
            state.object(oid(1)).unwrap().materialize(),
            Bytes::from_static(b"AB")
        );
    }

    #[test]
    fn stored_len_accounts_base_and_increments() {
        let mut state = SharedState::from_objects([(oid(1), &b"1234"[..])]);
        state.apply(&StateUpdate::incremental(oid(1), &b"56"[..]));
        state.apply(&StateUpdate::set_state(oid(2), &b"789"[..]));
        assert_eq!(state.stored_len(), 4 + 2 + 3);
    }

    #[test]
    fn materialize_all_is_ordered_by_id() {
        let state = SharedState::from_objects([(oid(3), &b"c"[..]), (oid(1), &b"a"[..])]);
        let mats = state.materialize_all();
        assert_eq!(mats[0].0, oid(1));
        assert_eq!(mats[1].0, oid(3));
    }

    #[test]
    fn codec_roundtrip_object_state() {
        let mut st = ObjectState::with_base(&b"base"[..]);
        st.apply(UpdateKind::Incremental, Bytes::from_static(b"inc1"));
        st.apply(UpdateKind::Incremental, Bytes::from_static(b"inc2"));
        let bytes = st.encode_to_vec();
        assert_eq!(ObjectState::decode_exact(&bytes).unwrap(), st);
    }

    #[test]
    fn codec_roundtrip_shared_state() {
        let mut state = SharedState::from_objects([(oid(1), &b"one"[..]), (oid(2), &b"two"[..])]);
        state.apply(&StateUpdate::incremental(oid(2), &b"+"[..]));
        let bytes = state.encode_to_vec();
        assert_eq!(SharedState::decode_exact(&bytes).unwrap(), state);
    }

    #[test]
    fn codec_roundtrip_logged_update() {
        let logged = LoggedUpdate {
            seq: SeqNo::new(99),
            sender: ClientId::new(5),
            timestamp: Timestamp::from_micros(123_456),
            update: StateUpdate::incremental(oid(7), &b"payload"[..]),
        };
        let bytes = logged.encode_to_vec();
        assert_eq!(LoggedUpdate::decode_exact(&bytes).unwrap(), logged);
    }

    #[test]
    fn update_kind_rejects_bad_tag() {
        assert!(UpdateKind::decode_exact(&[9]).is_err());
    }

    #[test]
    fn remove_returns_final_state() {
        let mut state = SharedState::from_objects([(oid(1), &b"z"[..])]);
        let removed = state.remove(oid(1)).unwrap();
        assert_eq!(removed.materialize(), Bytes::from_static(b"z"));
        assert!(state.is_empty());
        assert!(state.remove(oid(1)).is_none());
    }

    #[test]
    fn timestamp_now_is_monotonic_enough() {
        let a = Timestamp::now();
        let b = Timestamp::now();
        assert!(b >= a);
        assert!(a.as_micros() > 1_600_000_000_000_000, "after 2020");
    }
}
