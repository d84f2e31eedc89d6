//! The client protocol state machine, fed frames by hand: no socket,
//! no thread, no clock but the numbers passed in.

use corona_core::session::{backoff_delay, ClientSession, Dial, EVENT_QUEUE_HWM};
use corona_core::FailoverConfig;
use corona_metrics::Registry;
use corona_types::error::CoronaError;
use corona_types::id::{ClientId, GroupId, ObjectId, SeqNo, ServerId};
use corona_types::message::PROTOCOL_VERSION;
use corona_types::message::{ClientRequest as Q, ServerEvent as E, StateTransfer};
use corona_types::policy::{MemberRole, StateTransferPolicy};
use corona_types::state::{LoggedUpdate, StateUpdate, Timestamp};
use corona_types::wire::{decode_traced, Encode};
use std::time::Duration;

const G1: GroupId = GroupId(1);
const G2: GroupId = GroupId(2);
const O: ObjectId = ObjectId(1);

fn feed(session: &mut ClientSession, link: u64, event: &E) -> bool {
    session.on_frame(0, link, &event.encode_to_bytes())
}

/// What the session asked to send.
fn sent(session: &mut ClientSession) -> Vec<Q> {
    let frames = session.take_frames();
    frames
        .iter()
        .map(|f| decode_traced::<Q>(f).unwrap().0)
        .collect()
}

fn welcome() -> E {
    let (server, client) = (ServerId::new(1), ClientId::new(7));
    let version = PROTOCOL_VERSION;
    E::Welcome {
        server,
        client,
        version,
    }
}

fn joined(transfer: StateTransfer) -> E {
    let members = Vec::new();
    E::Joined { members, transfer }
}

fn join(group: GroupId, role: MemberRole, policy: StateTransferPolicy) -> Q {
    let notify_membership = false;
    Q::Join {
        group,
        role,
        policy,
        notify_membership,
    }
}

fn logged(seq: u64) -> LoggedUpdate {
    LoggedUpdate {
        seq: SeqNo::new(seq),
        sender: ClientId::new(9),
        timestamp: Timestamp::ZERO,
        update: StateUpdate::incremental(O, format!("{seq};").into_bytes()),
    }
}

fn multicast(seq: u64) -> E {
    let logged = logged(seq);
    E::Multicast { group: G1, logged }
}

/// A plain session, welcomed on link 1.
fn up() -> ClientSession {
    let mut session = ClientSession::new("c", None, 1_000);
    let link = session.connected(0);
    feed(&mut session, link, &welcome());
    assert!(session.is_up());
    sent(&mut session);
    session
}

/// Each call hears first a reply of its shape that names something
/// else — which goes to the event stream, where matching by shape alone
/// would have taken it — and then its own: a `Joined` of another group
/// (as a timed-out join's late reply is), another group's deletion
/// notice, a grant of another lock, another ping's pong.
#[test]
fn a_reply_answers_a_call_only_if_it_names_what_the_call_asked() {
    let empty = |group| joined(StateTransfer::empty(group, SeqNo::new(0)));
    let lock = |object| E::LockGranted { group: G1, object };
    let pong = |nonce| E::Pong {
        nonce,
        at: Timestamp::ZERO,
    };
    let deleted = |group| E::GroupDeleted { group };
    let acquire = Q::AcquireLock {
        group: G1,
        object: O,
        wait: true,
    };
    let cases = [
        (
            join(G2, MemberRole::Principal, StateTransferPolicy::None),
            empty(G1),
            empty(G2),
        ),
        (Q::DeleteGroup { group: G2 }, deleted(G1), deleted(G2)),
        (acquire, lock(ObjectId::new(2)), lock(O)),
        // The nonce is the session's counter, whatever the caller says.
        (Q::Ping { nonce: 0 }, pong(41), pong(1)),
    ];
    for (request, stray, reply) in cases {
        let mut session = up();
        session.call(0, request, 1_000).unwrap();
        feed(&mut session, 1, &stray);
        assert!(session.take_reply().is_none(), "{stray:?} answered");
        assert_eq!(session.next_event(), Some(stray));
        feed(&mut session, 1, &reply);
        assert_eq!(session.take_reply().unwrap().unwrap(), reply);
    }
    // A call times out, and its reply comes late: to the event stream.
    let mut session = up();
    let principal = join(G1, MemberRole::Principal, StateTransferPolicy::None);
    session.call(0, principal, 10).unwrap();
    session.tick(10);
    let timed_out = session.take_reply();
    assert!(matches!(timed_out, Some(Err(CoronaError::Timeout { .. }))));
    feed(&mut session, 1, &empty(G1));
    assert!(matches!(session.next_event(), Some(E::Joined { .. })));
    // The limit: an `Error` names no request, so it fails whatever call
    // is pending — a rejected broadcast's included.
    session.call(20, Q::Ping { nonce: 0 }, 1_000).unwrap();
    let detail = "no such group".into();
    feed(&mut session, 1, &E::Error { code: 1, detail });
    let failed = session.take_reply();
    assert!(matches!(failed, Some(Err(CoronaError::Protocol { .. }))));
}

/// A delivered multicast's payload is a slice of the frame it came in,
/// not a copy: the session decodes over the frame it is handed.
#[test]
fn a_delivered_payload_is_a_slice_of_its_frame() {
    let mut session = up();
    let frame = multicast(7).encode_to_bytes();
    session.on_frame(0, 1, &frame);
    let Some(E::Multicast { logged, .. }) = session.next_event() else {
        panic!("no multicast delivered");
    };
    let payload = logged.update.payload;
    assert_eq!(payload.as_ref(), b"7;");
    let within = frame.as_ref().as_ptr_range();
    assert!(within.contains(&payload.as_ptr()), "the payload was copied");
}

/// A plain session stops reading at the mark — unless it awaits a
/// reply: then it reads on, drops the notices past the mark, and takes
/// its reply.
#[test]
fn at_the_high_water_mark_the_session_asks_for_no_more() {
    let mut session = up();
    let hwm = EVENT_QUEUE_HWM as u64;
    for seq in 1..=hwm {
        let more = feed(&mut session, 1, &multicast(seq));
        assert_eq!(more, seq < hwm, "after {seq}");
    }
    session.call(0, Q::GetHealth, 1_000).unwrap();
    assert!(session.wants_more(), "a reply is awaited");
    assert!(feed(&mut session, 1, &multicast(hwm + 1)));
    let health = E::Health {
        schema: 1,
        json: "{}".into(),
    };
    assert!(!feed(&mut session, 1, &health), "nothing awaited");
    assert_eq!(session.take_reply().unwrap().unwrap(), health);
    assert_eq!(session.queued_events(), EVENT_QUEUE_HWM);
    session.next_event();
    assert!(session.wants_more());
}

/// The server answers in order, so a gap repair sent before a `state`
/// call of the same group takes the first `State`, and the call the
/// second — and a repair sent after the call, the other way round. The
/// application's own transfer (here with no updates) never resyncs the
/// mirror, so cannot hide the gap.
#[test]
fn a_gap_repair_and_a_state_call_each_take_their_own_answer() {
    let mut session = ClientSession::supervised("s", vec!["a".into()], Default::default(), 0);
    let link = session.connected(0);
    feed(&mut session, link, &welcome());
    let observe = join(G1, MemberRole::Observer, StateTransferPolicy::None);
    session.join_supervised(0, observe, 1_000).unwrap();
    feed(
        &mut session,
        link,
        &joined(StateTransfer::empty(G1, SeqNo::new(3))),
    );
    session.take_reply().unwrap().unwrap();
    let mirror = session.mirror(G1).unwrap();
    let last = || mirror.lock().unwrap().last_seq().raw();
    let get = Q::GetState {
        group: G1,
        policy: StateTransferPolicy::None,
    };
    let state = |through, updates: Vec<u64>| E::State {
        transfer: StateTransfer {
            updates: updates.into_iter().map(logged).collect(),
            ..StateTransfer::empty(G1, SeqNo::new(through))
        },
    };
    sent(&mut session);

    // Repair first: seq 5 shows a gap after 3.
    feed(&mut session, link, &multicast(5));
    let repair = Q::GetState {
        group: G1,
        policy: StateTransferPolicy::UpdatesSince(SeqNo::new(3)),
    };
    assert_eq!(sent(&mut session), [repair]);
    session.call(0, get.clone(), 1_000).unwrap();
    feed(&mut session, link, &state(5, vec![4, 5]));
    assert!(session.take_reply().is_none(), "the repair's answer");
    assert_eq!(last(), 5);
    feed(&mut session, link, &state(5, vec![]));
    assert_eq!(session.take_reply().unwrap().unwrap(), state(5, vec![]));

    // The call first, then a gap after 5.
    session.call(0, get, 1_000).unwrap();
    feed(&mut session, link, &multicast(7));
    feed(&mut session, link, &state(7, vec![]));
    assert_eq!(session.take_reply().unwrap().unwrap(), state(7, vec![]));
    assert_eq!(last(), 5, "the call's transfer resyncs nothing");
    feed(&mut session, link, &state(7, vec![6, 7]));
    assert_eq!(last(), 7);
}

/// A supervised session whose application takes no event reads on past
/// the mark: its mirror follows the stream, and no more notices queue.
/// It loses its link: it backs off, walks its candidates — one will not
/// dial, one gives no answer — and resumes on the third: `Hello` with
/// its id, the re-join with its mirror's catch-up, the mirror resynced,
/// one reconnect counted.
#[test]
fn a_supervised_session_walks_its_candidates_and_resumes() {
    let registry = Registry::new();
    let config = FailoverConfig {
        connect_timeout: Duration::from_millis(500),
        jitter_seed: 3,
        registry: Some(registry.clone()),
        ..FailoverConfig::default()
    };
    let backoff = backoff_delay(&config, 0).as_millis() as u64;
    let seeds = ["a", "b", "c"].map(String::from).to_vec();
    let mut session = ClientSession::supervised("s", seeds, config, 0);
    let dial = |addr: &str, not_before_ms| {
        Some(Dial {
            addr: addr.into(),
            not_before_ms,
        })
    };
    assert_eq!(session.poll_dial(), dial("a", 0));
    let link = session.connected(0);
    feed(&mut session, link, &welcome());
    let observe = join(G1, MemberRole::Observer, StateTransferPolicy::None);
    session.join_supervised(0, observe, 1_000).unwrap();
    feed(
        &mut session,
        link,
        &joined(StateTransfer::empty(G1, SeqNo::new(3))),
    );
    assert!(session.take_reply().unwrap().is_ok());
    let mirror = session
        .mirror(G1)
        .expect("a supervised join keeps a mirror");
    let n = 3 + 2 * EVENT_QUEUE_HWM as u64;
    for seq in 4..=n {
        assert!(feed(&mut session, link, &multicast(seq)), "at {seq}");
    }
    assert_eq!(mirror.lock().unwrap().last_seq(), SeqNo::new(n));
    assert_eq!(session.queued_events(), EVENT_QUEUE_HWM);

    session.on_closed(100, link);
    let at = 100 + backoff;
    assert_eq!(session.poll_dial(), dial("a", at));
    session.dial_failed(at, CoronaError::Disconnected);
    assert_eq!(session.poll_dial(), dial("b", at));
    session.connected(at);
    assert_eq!(session.next_wake_ms(), Some(at + 500));
    session.tick(at + 500);
    let silent = session.take_failure();
    assert!(matches!(silent, Some(CoronaError::Timeout { .. })));
    assert_eq!(session.poll_dial(), dial("c", at + 500));
    let link = session.connected(at + 500);
    let (version, resume) = (PROTOCOL_VERSION, Some(ClientId::new(7)));
    let hello = Q::Hello {
        version,
        display_name: "s".into(),
        resume,
    };
    assert_eq!(sent(&mut session), [hello]);
    assert!(feed(&mut session, link, &welcome()), "it reads on");
    let catch_up = StateTransferPolicy::UpdatesSince(SeqNo::new(n));
    assert_eq!(
        sent(&mut session),
        [join(G1, MemberRole::Observer, catch_up)]
    );
    assert!(!session.is_up(), "not before the catch-up");
    let through = StateTransfer::empty(G1, SeqNo::new(n + 2));
    let updates = vec![logged(n + 1), logged(n + 2)];
    feed(
        &mut session,
        link,
        &joined(StateTransfer { updates, ..through }),
    );
    assert!(session.is_up());
    assert_eq!(mirror.lock().unwrap().last_seq(), SeqNo::new(n + 2));
    let events: Vec<E> = std::iter::from_fn(|| session.next_event()).collect();
    assert_eq!(events.len(), EVENT_QUEUE_HWM + 1);
    assert!(matches!(events.last(), Some(E::Joined { .. })));
    assert_eq!(registry.snapshot().counter("client.reconnects"), 1);
}

#[test]
fn backoff_grows_is_capped_and_jitter_is_deterministic() {
    let config = FailoverConfig {
        base_backoff: Duration::from_millis(50),
        max_backoff: Duration::from_secs(2),
        jitter_seed: 42,
        ..FailoverConfig::default()
    };
    let delays: Vec<Duration> = (0..12).map(|r| backoff_delay(&config, r)).collect();
    // Exponential component: strictly non-decreasing until the cap.
    for w in delays.windows(2) {
        let grew = w[1] + config.base_backoff >= w[0];
        assert!(grew, "backoff collapsed: {delays:?}");
    }
    // Capped: exponential part never exceeds max, jitter < base.
    for d in &delays {
        assert!(*d < config.max_backoff + config.base_backoff, "{delays:?}");
    }
    // Deterministic: same seed, same schedule.
    let again: Vec<Duration> = (0..12).map(|r| backoff_delay(&config, r)).collect();
    assert_eq!(delays, again);
    // A different seed shifts the phase of at least one round.
    let other = FailoverConfig {
        jitter_seed: 43,
        ..config
    };
    assert!((0..12).any(|r| backoff_delay(&other, r) != delays[r as usize]));
}
