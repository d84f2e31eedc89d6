//! Property-based tests for the Corona wire codec: arbitrary protocol
//! values must round-trip exactly, and arbitrary byte soup must never
//! panic the decoder.

use bytes::Bytes;
use corona_types::frame::{read_frame, write_frame, Frame, FRAME_HEADER_LEN};
use corona_types::id::{ClientId, Epoch, GroupId, ObjectId, SeqNo, ServerId};
use corona_types::message::{ClientRequest, PeerMessage, ServerEvent, StateTransfer};
use corona_types::policy::{
    DeliveryScope, MemberInfo, MemberRole, MembershipChange, Persistence, StateTransferPolicy,
};
use corona_types::state::{LoggedUpdate, SharedState, StateUpdate, Timestamp, UpdateKind};
use corona_types::wire::{Decode, Encode};
use proptest::prelude::*;

fn arb_bytes(max: usize) -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..max).prop_map(Bytes::from)
}

fn arb_update_kind() -> impl Strategy<Value = UpdateKind> {
    prop_oneof![Just(UpdateKind::SetState), Just(UpdateKind::Incremental)]
}

fn arb_state_update() -> impl Strategy<Value = StateUpdate> {
    (any::<u64>(), arb_update_kind(), arb_bytes(256)).prop_map(|(o, kind, payload)| StateUpdate {
        object: ObjectId::new(o),
        kind,
        payload,
    })
}

fn arb_logged() -> impl Strategy<Value = LoggedUpdate> {
    (any::<u64>(), any::<u64>(), any::<u64>(), arb_state_update()).prop_map(
        |(seq, sender, ts, update)| LoggedUpdate {
            seq: SeqNo::new(seq),
            sender: ClientId::new(sender),
            timestamp: Timestamp::from_micros(ts),
            update,
        },
    )
}

fn arb_shared_state() -> impl Strategy<Value = SharedState> {
    proptest::collection::vec((any::<u64>(), arb_bytes(64)), 0..8).prop_map(|objs| {
        SharedState::from_objects(objs.into_iter().map(|(id, b)| (ObjectId::new(id), b)))
    })
}

fn arb_policy() -> impl Strategy<Value = StateTransferPolicy> {
    prop_oneof![
        Just(StateTransferPolicy::FullState),
        any::<u64>().prop_map(StateTransferPolicy::LastUpdates),
        proptest::collection::vec(any::<u64>(), 0..6)
            .prop_map(|v| StateTransferPolicy::Objects(v.into_iter().map(ObjectId::new).collect())),
        any::<u64>().prop_map(|s| StateTransferPolicy::UpdatesSince(SeqNo::new(s))),
        Just(StateTransferPolicy::None),
    ]
}

fn arb_member_info() -> impl Strategy<Value = MemberInfo> {
    (any::<u64>(), any::<bool>(), "[a-z]{0,12}").prop_map(|(c, obs, name)| {
        MemberInfo::new(
            ClientId::new(c),
            if obs {
                MemberRole::Observer
            } else {
                MemberRole::Principal
            },
            name,
        )
    })
}

fn arb_change() -> impl Strategy<Value = MembershipChange> {
    (any::<u64>(), 0u8..3).prop_map(|(c, k)| {
        let c = ClientId::new(c);
        match k {
            0 => MembershipChange::Joined(c),
            1 => MembershipChange::Left(c),
            _ => MembershipChange::Disconnected(c),
        }
    })
}

fn arb_scope() -> impl Strategy<Value = DeliveryScope> {
    prop_oneof![
        Just(DeliveryScope::SenderInclusive),
        Just(DeliveryScope::SenderExclusive)
    ]
}

fn arb_transfer() -> impl Strategy<Value = StateTransfer> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec((any::<u64>(), arb_bytes(64)), 0..5),
        proptest::collection::vec(arb_logged(), 0..5),
    )
        .prop_map(|(g, basis, through, objects, updates)| StateTransfer {
            group: GroupId::new(g),
            basis: SeqNo::new(basis),
            through: SeqNo::new(through),
            objects: objects
                .into_iter()
                .map(|(id, b)| (ObjectId::new(id), b))
                .collect(),
            updates,
        })
}

fn arb_client_request() -> impl Strategy<Value = ClientRequest> {
    prop_oneof![
        ("[a-z]{0,10}", proptest::option::of(any::<u64>())).prop_map(|(name, resume)| {
            ClientRequest::Hello {
                version: 1,
                display_name: name,
                resume: resume.map(ClientId::new),
            }
        }),
        (any::<u64>(), any::<bool>(), arb_shared_state()).prop_map(|(g, p, st)| {
            ClientRequest::CreateGroup {
                group: GroupId::new(g),
                persistence: if p {
                    Persistence::Persistent
                } else {
                    Persistence::Transient
                },
                initial_state: st,
            }
        }),
        any::<u64>().prop_map(|g| ClientRequest::DeleteGroup {
            group: GroupId::new(g)
        }),
        (any::<u64>(), any::<bool>(), arb_policy(), any::<bool>()).prop_map(
            |(g, obs, policy, notify)| ClientRequest::Join {
                group: GroupId::new(g),
                role: if obs {
                    MemberRole::Observer
                } else {
                    MemberRole::Principal
                },
                policy,
                notify_membership: notify,
            }
        ),
        any::<u64>().prop_map(|g| ClientRequest::Leave {
            group: GroupId::new(g)
        }),
        (any::<u64>(), arb_state_update(), arb_scope()).prop_map(|(g, update, scope)| {
            ClientRequest::Broadcast {
                group: GroupId::new(g),
                update,
                scope,
            }
        }),
        (any::<u64>(), arb_policy()).prop_map(|(g, policy)| ClientRequest::GetState {
            group: GroupId::new(g),
            policy,
        }),
        (any::<u64>(), any::<u64>(), any::<bool>()).prop_map(|(g, o, wait)| {
            ClientRequest::AcquireLock {
                group: GroupId::new(g),
                object: ObjectId::new(o),
                wait,
            }
        }),
        (any::<u64>(), proptest::option::of(any::<u64>())).prop_map(|(g, s)| {
            ClientRequest::ReduceLog {
                group: GroupId::new(g),
                through: s.map(SeqNo::new),
            }
        }),
        any::<u64>().prop_map(|nonce| ClientRequest::Ping { nonce }),
        Just(ClientRequest::Goodbye),
        Just(ClientRequest::GetHealth),
    ]
}

fn arb_server_event() -> impl Strategy<Value = ServerEvent> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(s, c)| ServerEvent::Welcome {
            server: ServerId::new(s),
            client: ClientId::new(c),
            version: 1,
        }),
        (
            proptest::collection::vec(arb_member_info(), 0..4),
            arb_transfer()
        )
            .prop_map(|(members, transfer)| ServerEvent::Joined { members, transfer }),
        (any::<u64>(), arb_logged()).prop_map(|(g, logged)| ServerEvent::Multicast {
            group: GroupId::new(g),
            logged,
        }),
        (any::<u64>(), arb_change(), arb_member_info()).prop_map(|(g, change, info)| {
            ServerEvent::MembershipChanged {
                group: GroupId::new(g),
                change,
                info,
            }
        }),
        (any::<u16>(), "[ -~]{0,30}")
            .prop_map(|(code, detail)| ServerEvent::Error { code, detail }),
        (any::<u64>(), any::<u64>()).prop_map(|(nonce, at)| ServerEvent::Pong {
            nonce,
            at: Timestamp::from_micros(at),
        }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec((any::<u64>(), "[a-z0-9:.]{0,16}"), 0..5)
        )
            .prop_map(|(e, c, servers)| ServerEvent::Roster {
                epoch: Epoch(e),
                coordinator: ServerId::new(c),
                servers: servers
                    .into_iter()
                    .map(|(id, addr)| (ServerId::new(id), addr))
                    .collect(),
            }),
        (any::<u16>(), "[ -~]{0,60}")
            .prop_map(|(schema, json)| ServerEvent::Health { schema, json }),
    ]
}

fn arb_peer_message() -> impl Strategy<Value = PeerMessage> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(f, e)| PeerMessage::Heartbeat {
            from: ServerId::new(f),
            epoch: Epoch(e),
        }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            arb_state_update(),
            arb_scope(),
            any::<u64>()
        )
            .prop_map(
                |(o, s, g, update, scope, tag)| PeerMessage::ForwardBroadcast {
                    origin: ServerId::new(o),
                    sender: ClientId::new(s),
                    group: GroupId::new(g),
                    update,
                    scope,
                    local_tag: tag,
                }
            ),
        (
            any::<u64>(),
            any::<u64>(),
            arb_logged(),
            arb_scope(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(g, e, logged, scope, o, tag)| PeerMessage::Sequenced {
                group: GroupId::new(g),
                epoch: Epoch(e),
                logged,
                scope,
                origin: ServerId::new(o),
                local_tag: tag,
            }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            arb_shared_state(),
            proptest::collection::vec(arb_logged(), 0..4)
        )
            .prop_map(|(f, g, t, state, updates)| PeerMessage::GroupStateReply {
                from: ServerId::new(f),
                group: GroupId::new(g),
                persistence: Persistence::Persistent,
                through: SeqNo::new(t),
                state,
                updates,
            }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            arb_client_request()
        )
            .prop_map(|(o, c, tag, request)| PeerMessage::ForwardRequest {
                origin: ServerId::new(o),
                client: ClientId::new(c),
                local_tag: tag,
                request,
            }),
        (any::<u64>(), arb_server_event()).prop_map(|(c, event)| PeerMessage::Deliver {
            client: ClientId::new(c),
            event,
        }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u64>(), 0..8)
        )
            .prop_map(|(e, c, servers)| PeerMessage::ServerList {
                epoch: Epoch(e),
                coordinator: ServerId::new(c),
                servers: servers.into_iter().map(ServerId::new).collect(),
            }),
    ]
}

/// Encodes `value` — to exactly its `encoded_len` — and decodes it
/// back, both copied out of a slice and sliced out of a frame.
fn roundtrips<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
    let bytes = value.encode_to_bytes();
    prop_assert_eq!(bytes.len(), value.encoded_len());
    prop_assert_eq!(T::decode_exact(&bytes).unwrap(), value);
    prop_assert_eq!(T::decode_frame(&bytes).unwrap(), value);
}

proptest! {
    #[test]
    fn client_requests_roundtrip(req in arb_client_request()) {
        roundtrips(req);
    }

    #[test]
    fn server_events_roundtrip(ev in arb_server_event()) {
        roundtrips(ev);
    }

    #[test]
    fn peer_messages_roundtrip(msg in arb_peer_message()) {
        roundtrips(msg);
    }

    #[test]
    fn shared_state_roundtrips(state in arb_shared_state()) {
        roundtrips(state);
    }

    #[test]
    fn decoder_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Any of Ok / Err is fine; panicking or aborting is not.
        let _ = ClientRequest::decode_exact(&data);
        let _ = ServerEvent::decode_exact(&data);
        let _ = PeerMessage::decode_exact(&data);
        let _ = SharedState::decode_exact(&data);
        let _ = StateTransfer::decode_exact(&data);
    }

    #[test]
    fn truncation_never_decodes_to_wrong_value(req in arb_client_request(), cut_frac in 0.0f64..1.0) {
        let bytes = req.encode_to_vec();
        if bytes.len() > 1 {
            let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
            // A strict prefix must either fail, or (never) succeed equal.
            if let Ok(decoded) = ClientRequest::decode_exact(&bytes[..cut]) {
                prop_assert_ne!(decoded, req);
            }
        }
    }

    #[test]
    fn transfer_reconstruct_matches_sequential_apply(transfer in arb_transfer()) {
        let via_reconstruct = transfer.reconstruct();
        let mut manual = SharedState::from_objects(
            transfer.objects.iter().map(|(id, b)| (*id, b.clone())),
        );
        for u in &transfer.updates {
            manual.apply(&u.update);
        }
        prop_assert_eq!(via_reconstruct, manual);
    }

    #[test]
    fn frame_matches_write_frame_and_roundtrips(body in arb_bytes(2048)) {
        // A pre-built Frame must put exactly the bytes on the wire
        // that write_frame does — receivers cannot tell them apart.
        let frame = Frame::new(body.clone()).unwrap();
        let wire = [&frame.header()[..], &frame.body()[..]].concat();
        let mut expected = Vec::new();
        write_frame(&mut expected, &body).unwrap();
        prop_assert_eq!(&wire, &expected);
        prop_assert_eq!(frame.wire_len(), FRAME_HEADER_LEN + body.len());
        let mut cursor = std::io::Cursor::new(wire);
        prop_assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), body);
        prop_assert!(read_frame(&mut cursor).unwrap().is_none());

        // Clones share the body allocation (and therefore the one
        // checksum pass): the per-recipient cost of a multicast.
        let copy = frame.clone();
        prop_assert_eq!(copy.body().as_ptr(), frame.body().as_ptr());
        prop_assert_eq!(copy.header(), frame.header());
        prop_assert_eq!(copy.into_body(), body);
    }
}
