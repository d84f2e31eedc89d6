//! Unit-level tests of the pure replication cores: the coordinator's
//! sequencing/routing and the replica's forwarding/fan-out, driven
//! message by message without any runtime.

use corona_core::ServerConfig;
use corona_replication::{CoordEffect, CoordinatorCore, ReplicaCore, ReplicaEffect};
use corona_types::id::{ClientId, Epoch, GroupId, ObjectId, SeqNo, ServerId};
use corona_types::message::{ClientRequest, PeerMessage, ServerEvent};
use corona_types::policy::{DeliveryScope, MemberRole, Persistence, StateTransferPolicy};
use corona_types::state::{SharedState, StateUpdate, Timestamp};

const G: GroupId = GroupId(1);
const O: ObjectId = ObjectId(1);

fn now() -> Timestamp {
    Timestamp::from_micros(1)
}

fn coordinator() -> CoordinatorCore {
    CoordinatorCore::new(&ServerConfig::stateful(ServerId::new(1)), Epoch::ZERO)
}

/// Registers a client with the coordinator and joins it to G,
/// returning the emitted effects of the join.
fn join_via(
    coord: &mut CoordinatorCore,
    origin: ServerId,
    client: ClientId,
    tag: u64,
) -> Vec<CoordEffect> {
    coord.handle_peer(
        PeerMessage::ForwardRequest {
            origin,
            client,
            local_tag: tag,
            request: ClientRequest::Hello {
                version: 1,
                display_name: format!("c{}", client.raw()),
                resume: Some(client),
            },
        },
        now(),
    );
    coord.handle_peer(
        PeerMessage::ForwardRequest {
            origin,
            client,
            local_tag: tag + 1,
            request: ClientRequest::Join {
                group: G,
                role: MemberRole::Principal,
                policy: StateTransferPolicy::FullState,
                notify_membership: true,
            },
        },
        now(),
    )
}

fn create_via(coord: &mut CoordinatorCore, origin: ServerId, client: ClientId) {
    coord.handle_peer(
        PeerMessage::ForwardRequest {
            origin,
            client,
            local_tag: 1000,
            request: ClientRequest::CreateGroup {
                group: G,
                persistence: Persistence::Persistent,
                initial_state: SharedState::new(),
            },
        },
        now(),
    );
}

#[test]
fn coordinator_routes_outcome_to_origin_and_notifications_to_homes() {
    let mut coord = coordinator();
    let (s2, s3) = (ServerId::new(2), ServerId::new(3));
    let (watcher, joiner) = (ClientId::new(21), ClientId::new(31));

    create_via(&mut coord, s2, watcher);
    join_via(&mut coord, s2, watcher, 1);
    let effects = join_via(&mut coord, s3, joiner, 1);

    // The joiner's Joined rides in the RequestOutcome to s3.
    assert!(effects.iter().any(|e| matches!(
        e,
        CoordEffect::ToServer {
            to,
            msg: PeerMessage::RequestOutcome { client, events, .. }
        } if *to == s3 && *client == joiner
            && events.iter().any(|ev| matches!(ev, ServerEvent::Joined { .. }))
    )));
    // The watcher's awareness notification is routed to ITS home (s2)
    // as a Deliver.
    assert!(effects.iter().any(|e| matches!(
        e,
        CoordEffect::ToServer {
            to,
            msg: PeerMessage::Deliver { client, event: ServerEvent::MembershipChanged { .. } }
        } if *to == s2 && *client == watcher
    )));
    // Hosting map now names both servers.
    let mut hosting = coord.hosting_servers(G);
    hosting.sort();
    assert_eq!(hosting, vec![s2, s3]);
}

#[test]
fn coordinator_sequences_broadcasts_one_message_per_hosting_server() {
    let mut coord = coordinator();
    let (s2, s3) = (ServerId::new(2), ServerId::new(3));
    let (a, b) = (ClientId::new(21), ClientId::new(31));
    create_via(&mut coord, s2, a);
    join_via(&mut coord, s2, a, 1);
    join_via(&mut coord, s3, b, 1);

    let effects = coord.handle_peer(
        PeerMessage::ForwardBroadcast {
            origin: s2,
            sender: a,
            group: G,
            update: StateUpdate::incremental(O, &b"x"[..]),
            scope: DeliveryScope::SenderInclusive,
            local_tag: 9,
        },
        now(),
    );
    let sequenced: Vec<ServerId> = effects
        .iter()
        .filter_map(|e| match e {
            CoordEffect::ToServer {
                to,
                msg: PeerMessage::Sequenced { logged, .. },
            } => {
                assert_eq!(logged.seq, SeqNo::new(1));
                assert_eq!(logged.sender, a);
                Some(*to)
            }
            _ => None,
        })
        .collect();
    // Exactly one Sequenced per hosting server — never one per member.
    let mut sorted = sequenced.clone();
    sorted.sort();
    assert_eq!(sorted, vec![s2, s3]);

    // Second broadcast gets the next sequence number.
    let effects = coord.handle_peer(
        PeerMessage::ForwardBroadcast {
            origin: s3,
            sender: b,
            group: G,
            update: StateUpdate::incremental(O, &b"y"[..]),
            scope: DeliveryScope::SenderInclusive,
            local_tag: 10,
        },
        now(),
    );
    assert!(effects.iter().any(|e| matches!(
        e,
        CoordEffect::ToServer {
            msg: PeerMessage::Sequenced { logged, .. },
            ..
        } if logged.seq == SeqNo::new(2)
    )));
}

#[test]
fn coordinator_rejects_broadcast_from_non_member() {
    let mut coord = coordinator();
    let s2 = ServerId::new(2);
    let member = ClientId::new(21);
    create_via(&mut coord, s2, member);
    join_via(&mut coord, s2, member, 1);

    let outsider = ClientId::new(99);
    let effects = coord.handle_peer(
        PeerMessage::ForwardBroadcast {
            origin: s2,
            sender: outsider,
            group: G,
            update: StateUpdate::incremental(O, &b"x"[..]),
            scope: DeliveryScope::SenderInclusive,
            local_tag: 5,
        },
        now(),
    );
    // Exactly one effect: an error outcome back to the origin.
    assert!(matches!(
        &effects[..],
        [CoordEffect::ToServer {
            to,
            msg: PeerMessage::RequestOutcome { local_tag: 5, events, .. }
        }] if *to == s2 && matches!(events[0], ServerEvent::Error { .. })
    ));
}

#[test]
fn coordinator_answers_state_queries_from_authoritative_log() {
    let mut coord = coordinator();
    let s2 = ServerId::new(2);
    let a = ClientId::new(21);
    create_via(&mut coord, s2, a);
    join_via(&mut coord, s2, a, 1);
    coord.handle_peer(
        PeerMessage::ForwardBroadcast {
            origin: s2,
            sender: a,
            group: G,
            update: StateUpdate::incremental(O, &b"data"[..]),
            scope: DeliveryScope::SenderExclusive,
            local_tag: 2,
        },
        now(),
    );

    let effects = coord.handle_peer(
        PeerMessage::GroupStateQuery {
            from: ServerId::new(3),
            group: G,
        },
        now(),
    );
    match &effects[..] {
        [CoordEffect::ToServer {
            to,
            msg: PeerMessage::GroupStateReply { group, updates, .. },
        }] => {
            assert_eq!(*to, ServerId::new(3));
            assert_eq!(*group, G);
            assert_eq!(updates.len(), 1);
        }
        other => panic!("expected state reply, got {other:?}"),
    }
}

#[test]
fn coordinator_rebuilds_from_replica_announcements() {
    // The post-election path: a brand-new coordinator learns members
    // and state purely from MemberAnnounce + GroupStateReply.
    let mut coord = CoordinatorCore::new(&ServerConfig::stateful(ServerId::new(2)), Epoch(1));
    let s3 = ServerId::new(3);
    let client = ClientId::new(31);

    coord.handle_peer(
        PeerMessage::MemberAnnounce {
            server: s3,
            group: G,
            persistence: Persistence::Persistent,
            info: corona_types::policy::MemberInfo::new(client, MemberRole::Principal, "c31"),
            notify: false,
        },
        now(),
    );
    // State copy from the hot standby.
    let mut standby = corona_statelog::GroupLog::new(G, SharedState::new());
    standby.append(client, StateUpdate::incremental(O, &b"old"[..]), now());
    coord.handle_peer(
        PeerMessage::GroupStateReply {
            from: s3,
            group: G,
            persistence: Persistence::Persistent,
            through: standby.checkpoint_seq(),
            state: standby.checkpoint_state().clone(),
            updates: standby.suffix_iter().cloned().collect(),
        },
        now(),
    );

    // The rebuilt coordinator can sequence immediately, continuing the
    // old numbering.
    let effects = coord.handle_peer(
        PeerMessage::ForwardBroadcast {
            origin: s3,
            sender: client,
            group: G,
            update: StateUpdate::incremental(O, &b"new"[..]),
            scope: DeliveryScope::SenderInclusive,
            local_tag: 1,
        },
        now(),
    );
    assert!(effects.iter().any(|e| matches!(
        e,
        CoordEffect::ToServer {
            msg: PeerMessage::Sequenced { logged, .. },
            ..
        } if logged.seq == SeqNo::new(2)
    )));
    let log = coord.authoritative().group_log(G).unwrap();
    assert_eq!(
        log.current_state()
            .object(O)
            .unwrap()
            .materialize()
            .as_ref(),
        b"oldnew"
    );
}

#[test]
fn coordinator_cleans_up_after_server_crash() {
    let mut coord = coordinator();
    let (s2, s3) = (ServerId::new(2), ServerId::new(3));
    let (watcher, doomed) = (ClientId::new(21), ClientId::new(31));
    create_via(&mut coord, s2, watcher);
    join_via(&mut coord, s2, watcher, 1);
    join_via(&mut coord, s3, doomed, 1);

    let effects = coord.server_crashed(s3);
    // The watcher (on s2) is told about the disconnect.
    assert!(effects.iter().any(|e| matches!(
        e,
        CoordEffect::ToServer {
            to,
            msg: PeerMessage::Deliver {
                event: ServerEvent::MembershipChanged { .. },
                ..
            }
        } if *to == s2
    )));
    assert_eq!(coord.hosting_servers(G), vec![s2]);
    assert_eq!(
        coord
            .authoritative()
            .registry()
            .get(G)
            .unwrap()
            .member_count(),
        1
    );
}

#[test]
fn coordinator_homes_resumed_clients_under_their_resolved_id() {
    let mut coord = coordinator();
    let (s2, s3) = (ServerId::new(2), ServerId::new(3));
    let (watcher, joiner) = (ClientId::new(21), ClientId::new(31));
    create_via(&mut coord, s2, watcher);
    join_via(&mut coord, s2, watcher, 1);

    // s2 dies and the watcher fails over to s3. The new home forwards
    // the resume Hello under a fresh connection-local id; the session
    // id being resumed is the original one.
    let conn_id = ClientId::new(3_000_001);
    coord.handle_peer(
        PeerMessage::ForwardRequest {
            origin: s3,
            client: conn_id,
            local_tag: 7,
            request: ClientRequest::Hello {
                version: 1,
                display_name: "c21".into(),
                resume: Some(watcher),
            },
        },
        now(),
    );

    // A join elsewhere must notify the watcher at its NEW home, under
    // its ORIGINAL id — not be dropped, and not be sent to the dead
    // server the stale home entry names.
    let effects = join_via(&mut coord, s2, joiner, 10);
    assert!(
        effects.iter().any(|e| matches!(
            e,
            CoordEffect::ToServer {
                to,
                msg: PeerMessage::Deliver {
                    client,
                    event: ServerEvent::MembershipChanged { .. }
                }
            } if *to == s3 && *client == watcher
        )),
        "resumed watcher must be reachable at its new home: {effects:?}"
    );
}

// ---------------------------------------------------------------------------
// Replica core
// ---------------------------------------------------------------------------

#[test]
fn replica_assigns_cluster_unique_ids_and_forwards_hello() {
    let mut r2 = ReplicaCore::new(ServerId::new(2));
    let mut r3 = ReplicaCore::new(ServerId::new(3));
    let (c2, effects) = r2.client_hello("ann".into(), None);
    let (c3, _) = r3.client_hello("bob".into(), None);
    assert_ne!(c2, c3, "ids must not collide across servers");
    // Welcome locally + Hello forwarded.
    assert!(matches!(
        &effects[0],
        ReplicaEffect::ToClient {
            event: ServerEvent::Welcome { .. },
            ..
        }
    ));
    assert!(matches!(
        &effects[1],
        ReplicaEffect::ToCoordinator(PeerMessage::ForwardRequest {
            request: ClientRequest::Hello { .. },
            ..
        })
    ));
}

#[test]
fn replica_answers_ping_locally_and_forwards_control() {
    let mut r = ReplicaCore::new(ServerId::new(2));
    let (c, _) = r.client_hello("x".into(), None);
    let effects = r.handle_request(c, ClientRequest::Ping { nonce: 7 }, now());
    assert!(matches!(
        &effects[..],
        [ReplicaEffect::ToClient {
            event: ServerEvent::Pong { nonce: 7, .. },
            ..
        }]
    ));
    let effects = r.handle_request(c, ClientRequest::GetMembership { group: G }, now());
    assert!(matches!(
        &effects[..],
        [ReplicaEffect::ToCoordinator(
            PeerMessage::ForwardRequest { .. }
        )]
    ));
}

/// Walks a replica through Hello + Join (with the coordinator's
/// outcome), returning the client id and the local tag used.
fn joined_replica() -> (ReplicaCore, ClientId) {
    joined_replica_at(SeqNo::ZERO)
}

/// The same, for a group that is `through` updates old already.
fn joined_replica_at(through: SeqNo) -> (ReplicaCore, ClientId) {
    let mut r = ReplicaCore::new(ServerId::new(2));
    let (c, _) = r.client_hello("x".into(), None);
    let effects = r.handle_request(
        c,
        ClientRequest::Join {
            group: G,
            role: MemberRole::Principal,
            policy: StateTransferPolicy::FullState,
            notify_membership: false,
        },
        now(),
    );
    let tag = match &effects[0] {
        ReplicaEffect::ToCoordinator(PeerMessage::ForwardRequest { local_tag, .. }) => *local_tag,
        other => panic!("expected forward, got {other:?}"),
    };
    r.handle_peer(PeerMessage::RequestOutcome {
        origin: ServerId::new(2),
        local_tag: tag,
        client: c,
        events: vec![ServerEvent::Joined {
            members: vec![],
            transfer: corona_types::message::StateTransfer::empty(G, through),
        }],
    });
    (r, c)
}

#[test]
fn replica_tracks_membership_and_announces_hosting() {
    let mut r = ReplicaCore::new(ServerId::new(2));
    let (c, _) = r.client_hello("x".into(), None);
    let effects = r.handle_request(
        c,
        ClientRequest::Join {
            group: G,
            role: MemberRole::Principal,
            policy: StateTransferPolicy::FullState,
            notify_membership: false,
        },
        now(),
    );
    let tag = match &effects[0] {
        ReplicaEffect::ToCoordinator(PeerMessage::ForwardRequest { local_tag, .. }) => *local_tag,
        other => panic!("{other:?}"),
    };
    let effects = r.handle_peer(PeerMessage::RequestOutcome {
        origin: ServerId::new(2),
        local_tag: tag,
        client: c,
        events: vec![ServerEvent::Joined {
            members: vec![],
            transfer: corona_types::message::StateTransfer::empty(G, SeqNo::ZERO),
        }],
    });
    // First member: hosting announcement + standby bootstrap query +
    // the Joined delivered to the client.
    assert!(effects.iter().any(|e| matches!(
        e,
        ReplicaEffect::ToCoordinator(PeerMessage::GroupHosting { hosting: true, .. })
    )));
    assert!(effects.iter().any(|e| matches!(
        e,
        ReplicaEffect::ToCoordinator(PeerMessage::GroupStateQuery { .. })
    )));
    assert!(effects.iter().any(|e| matches!(
        e,
        ReplicaEffect::ToClient {
            event: ServerEvent::Joined { .. },
            ..
        }
    )));
    assert_eq!(r.local_members(G), vec![c]);
}

#[test]
fn replica_fans_out_sequenced_to_local_members_with_sender_exclusion() {
    let (mut r, c) = joined_replica();
    let logged = corona_types::state::LoggedUpdate {
        seq: SeqNo::new(1),
        sender: c,
        timestamp: now(),
        update: StateUpdate::incremental(O, &b"m"[..]),
    };
    // Sender-exclusive: the local sender is skipped.
    let effects = r.handle_peer(PeerMessage::Sequenced {
        group: G,
        epoch: Epoch::ZERO,
        logged: logged.clone(),
        scope: DeliveryScope::SenderExclusive,
        origin: ServerId::new(2),
        local_tag: 1,
    });
    assert!(
        !effects.iter().any(|e| matches!(
            e,
            ReplicaEffect::ToClient { .. } | ReplicaEffect::ToClients { .. }
        )),
        "sender must be excluded: {effects:?}"
    );
    // Standby log still applied it.
    assert_eq!(r.standby_log(G).unwrap().last_seq(), SeqNo::new(1));

    // Sender-inclusive: delivered.
    let logged2 = corona_types::state::LoggedUpdate {
        seq: SeqNo::new(2),
        ..logged
    };
    let effects = r.handle_peer(PeerMessage::Sequenced {
        group: G,
        epoch: Epoch::ZERO,
        logged: logged2,
        scope: DeliveryScope::SenderInclusive,
        origin: ServerId::new(2),
        local_tag: 2,
    });
    assert!(effects.iter().any(|e| matches!(
        e,
        ReplicaEffect::ToClients {
            recipients,
            event: ServerEvent::Multicast { .. }
        } if recipients.contains(&c)
    )));
}

#[test]
fn replica_requests_refresh_on_sequence_gap() {
    let (mut r, c) = joined_replica();
    let mk = |seq: u64| corona_types::state::LoggedUpdate {
        seq: SeqNo::new(seq),
        sender: c,
        timestamp: now(),
        update: StateUpdate::incremental(O, &b"m"[..]),
    };
    r.handle_peer(PeerMessage::Sequenced {
        group: G,
        epoch: Epoch::ZERO,
        logged: mk(1),
        scope: DeliveryScope::SenderInclusive,
        origin: ServerId::new(2),
        local_tag: 1,
    });
    // Seq 3 arrives without seq 2 (lost across a failover): the
    // replica must ask for a state refresh.
    let effects = r.handle_peer(PeerMessage::Sequenced {
        group: G,
        epoch: Epoch::ZERO,
        logged: mk(3),
        scope: DeliveryScope::SenderInclusive,
        origin: ServerId::new(2),
        local_tag: 2,
    });
    assert!(effects.iter().any(|e| matches!(
        e,
        ReplicaEffect::ToCoordinator(PeerMessage::GroupStateQuery { group, .. }) if *group == G
    )));
}

/// A bootstrap reply overtaken by live traffic is dropped, not asked
/// for again from the reply handler — a coordinator whose log ends
/// short of what members were handed would be asked for ever. The next
/// successor asks, once.
#[test]
fn replica_drops_an_overtaken_bootstrap_reply_and_requeries_once_per_sequenced() {
    let (mut r, c) = joined_replica_at(SeqNo::new(5));
    let sequenced = |seq: u64| PeerMessage::Sequenced {
        group: G,
        epoch: Epoch::ZERO,
        logged: corona_types::state::LoggedUpdate {
            seq: SeqNo::new(seq),
            sender: c,
            timestamp: now(),
            update: StateUpdate::incremental(O, &b"m"[..]),
        },
        scope: DeliveryScope::SenderInclusive,
        origin: ServerId::new(2),
        local_tag: seq,
    };
    let reply = |updates: Vec<u64>| PeerMessage::GroupStateReply {
        from: ServerId::new(1),
        group: G,
        persistence: Persistence::Persistent,
        through: SeqNo::new(5),
        state: SharedState::new(),
        updates: updates
            .into_iter()
            .map(|seq| match sequenced(seq) {
                PeerMessage::Sequenced { logged, .. } => logged,
                _ => unreachable!(),
            })
            .collect(),
    };
    let queries = |effects: &[ReplicaEffect]| {
        let query = |e: &&ReplicaEffect| {
            matches!(
                e,
                ReplicaEffect::ToCoordinator(PeerMessage::GroupStateQuery { .. })
            )
        };
        effects.iter().filter(query).count()
    };
    let live = |effects: &[ReplicaEffect]| {
        effects
            .iter()
            .any(|e| matches!(e, ReplicaEffect::ToClients { .. }))
    };
    // 6 goes out live while the bootstrap reply (tail 5) is in flight.
    let effects = r.handle_peer(sequenced(6));
    assert!(live(&effects) && queries(&effects) == 0, "{effects:?}");
    for _ in 0..2 {
        assert_eq!(r.handle_peer(reply(vec![])), vec![], "dropped, silently");
        assert!(r.standby_log(G).is_none());
    }
    let effects = r.handle_peer(sequenced(7));
    assert!(live(&effects) && queries(&effects) == 1, "{effects:?}");
    let effects = r.handle_peer(sequenced(8));
    assert!(live(&effects) && queries(&effects) == 0, "{effects:?}");
    // The answer covers what went out: adopted, nothing handed twice.
    assert_eq!(r.handle_peer(reply(vec![6, 7, 8])), vec![]);
    assert_eq!(r.standby_log(G).unwrap().last_seq(), SeqNo::new(8));
}

#[test]
fn replica_resync_messages_cover_members_state_and_hosting() {
    let (mut r, c) = joined_replica();
    // Install a standby log via a state reply.
    r.handle_peer(PeerMessage::GroupStateReply {
        from: ServerId::new(1),
        group: G,
        persistence: Persistence::Persistent,
        through: SeqNo::ZERO,
        state: SharedState::from_objects([(O, &b"s"[..])]),
        updates: vec![],
    });
    let msgs = r.resync_messages();
    assert!(msgs.iter().any(|m| matches!(
        m,
        PeerMessage::MemberAnnounce { info, .. } if info.client == c
    )));
    assert!(msgs
        .iter()
        .any(|m| matches!(m, PeerMessage::GroupStateReply { .. })));
    assert!(msgs
        .iter()
        .any(|m| matches!(m, PeerMessage::GroupHosting { hosting: true, .. })));
}

#[test]
fn replica_disconnect_stops_hosting_when_last_member_leaves() {
    let (mut r, c) = joined_replica();
    let effects = r.client_disconnected(c);
    assert!(effects.iter().any(|e| matches!(
        e,
        ReplicaEffect::ToCoordinator(PeerMessage::GroupHosting { hosting: false, .. })
    )));
    assert!(effects.iter().any(|e| matches!(
        e,
        ReplicaEffect::ToCoordinator(PeerMessage::ForwardRequest {
            request: ClientRequest::Goodbye,
            ..
        })
    )));
    assert!(r.hosted_groups().is_empty());
}
