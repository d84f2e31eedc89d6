//! Seeded chaos matrix against the replicated service over reactor TCP
//! sockets: symmetric partitions, partition-with-divergence, flapping
//! links, and duplicate/reorder storms; every fault is a nemesis event.
//! (The asymmetric partition needs both ends of a peer link named, which
//! an accepted socket is not: it is the sweep's `asymmetric` scenario.)
//!
//! `CORONA_CHAOS_SEED` seeds the fault generator; the ci.sh chaos step
//! runs the matrix under several seeds. The assertions are invariant
//! checks — quorum fencing, epoch fencing, heal reconciliation, gap-
//! and duplicate-freedom of every client stream — not timing checks,
//! so every seed must pass.

mod common;

use common::{node, wait, Cluster};
use corona::prelude::*;
use corona::transport::LinkFaults;
use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

const G: GroupId = GroupId(1);
const O: ObjectId = ObjectId(1);

// ---------------------------------------------------------------- harness

/// Three servers, the fault generator seeded from
/// `CORONA_CHAOS_SEED`.
fn start(heartbeat_ms: u64, base_timeout_ms: u64) -> Cluster {
    let seed = std::env::var("CORONA_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    Cluster::start(seed, heartbeat_ms, base_timeout_ms, |c| c)
}

fn join(c: &CoronaClient) {
    c.join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();
}

fn bcast(c: &CoronaClient, payload: &str) {
    c.bcast_update(
        G,
        O,
        payload.as_bytes().to_vec(),
        DeliveryScope::SenderInclusive,
    )
    .unwrap();
}

/// Pumps `c`'s event stream into `sink` until a multicast carrying
/// `want` arrives.
fn wait_payload(c: &CoronaClient, want: &str, timeout: Duration, sink: &mut Vec<(u64, String)>) {
    let deadline = Instant::now() + timeout;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        match c.next_event_timeout(remaining.max(Duration::from_millis(1))) {
            Ok(ServerEvent::Multicast { logged, .. }) => {
                let payload = String::from_utf8_lossy(&logged.update.payload).into_owned();
                let hit = payload == want;
                sink.push((logged.seq.0, payload));
                if hit {
                    return;
                }
            }
            Ok(_) => {}
            Err(e) => panic!("no multicast {want:?} within timeout: {e}; got {sink:?}"),
        }
    }
}

/// Pumps `c`'s event stream into `sink` until a protocol error with
/// `code` arrives.
fn wait_error(c: &CoronaClient, code: ErrorCode, timeout: Duration, sink: &mut Vec<(u64, String)>) {
    let deadline = Instant::now() + timeout;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        match c.next_event_timeout(remaining.max(Duration::from_millis(1))) {
            Ok(ServerEvent::Error { code: got, .. }) if got == code.to_wire() => return,
            Ok(ServerEvent::Multicast { logged, .. }) => sink.push((
                logged.seq.0,
                String::from_utf8_lossy(&logged.update.payload).into_owned(),
            )),
            Ok(_) => {}
            Err(e) => panic!("no {code} error within timeout: {e}"),
        }
    }
}

/// Drains every pending event, returning multicasts as
/// `(seq, payload)`. Returns once the stream is quiet for `idle`.
fn drain(c: &CoronaClient, idle: Duration) -> Vec<(u64, String)> {
    let mut casts = Vec::new();
    while let Ok(event) = c.next_event_timeout(idle) {
        if let ServerEvent::Multicast { logged, .. } = event {
            casts.push((
                logged.seq.0,
                String::from_utf8_lossy(&logged.update.payload).into_owned(),
            ));
        }
    }
    casts
}

/// Collapses a raw stream into its final view. The heal replay path
/// deliberately re-delivers a corrected entry for a seq the client
/// already saw (a retraction), so the LAST delivery per seq wins.
fn last_wins(casts: &[(u64, String)]) -> Vec<(u64, String)> {
    let mut map = BTreeMap::new();
    for (seq, payload) in casts {
        map.insert(*seq, payload.clone());
    }
    map.into_iter().collect()
}

fn assert_contiguous(view: &[(u64, String)], what: &str) {
    for (i, (seq, _)) in view.iter().enumerate() {
        assert_eq!(*seq, i as u64 + 1, "{what}: gap in view {view:?}");
    }
}

// --------------------------------------------------------------- scenarios

/// Symmetric partition of the coordinator: it must lose its quorum
/// lease, fence itself (explicit `Unavailable` to writers, zero
/// entries sequenced), and — after the heal — rejoin as a follower
/// with the missed suffix replayed to its local clients.
fn partition_fences_minority_coordinator_and_heals() {
    let cluster = start(30, 250);
    let alice = cluster.client("alice", 1);
    let bob = cluster.client("bob", 2);
    let mut a_stream = Vec::new();
    let mut b_stream = Vec::new();

    alice
        .create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    join(&alice);
    join(&bob);
    bcast(&alice, "a0;");
    wait_payload(&alice, "a0;", Duration::from_secs(10), &mut a_stream);
    wait_payload(&bob, "a0;", Duration::from_secs(10), &mut b_stream);

    cluster.isolate(1);
    wait("s1 to fence itself", Duration::from_secs(10), || {
        cluster.fenced(1)
    });
    assert!(
        cluster.has_event(1, "quorum_lost"),
        "no quorum_lost ops event on the fenced coordinator"
    );

    // Sequencing is refused while fenced: the writer gets an explicit
    // Unavailable, not silence and not a stale-epoch entry.
    bcast(&alice, "dead;");
    wait_error(
        &alice,
        ErrorCode::Unavailable,
        Duration::from_secs(10),
        &mut a_stream,
    );
    assert!(
        cluster.server(1).metrics().counter("repl.fenced.rejects") >= 1,
        "fenced reject not metered"
    );

    // The majority elects s2 and keeps serving writes.
    cluster.wait_coordinator(&[2, 3], 2, Duration::from_secs(10));
    bcast(&bob, "b1;");
    wait_payload(&bob, "b1;", Duration::from_secs(10), &mut b_stream);

    cluster.nem.heal();
    wait(
        "s1 to rejoin as follower and reconcile",
        Duration::from_secs(20),
        || {
            !cluster.fenced(1)
                && cluster
                    .server(1)
                    .status()
                    .map(|st| st.coordinator == Some(ServerId::new(2)) && !st.is_coordinator)
                    .unwrap_or(false)
        },
    );

    // End-to-end after the heal: alice writes through the new
    // coordinator; everyone (including alice, who missed b1 during the
    // partition) converges on the same stream.
    bcast(&alice, "a2;");
    wait_payload(&alice, "a2;", Duration::from_secs(15), &mut a_stream);
    wait_payload(&bob, "a2;", Duration::from_secs(15), &mut b_stream);
    a_stream.extend(drain(&alice, Duration::from_millis(400)));
    b_stream.extend(drain(&bob, Duration::from_millis(400)));

    let a_view = last_wins(&a_stream);
    let b_view = last_wins(&b_stream);
    assert_eq!(a_view, b_view, "client views diverged across the partition");
    assert_contiguous(&a_view, "partition-heal");
    assert_eq!(a_view.len(), 3, "unexpected entries: {a_view:?}");
    assert!(
        a_view.iter().all(|(_, p)| p != "dead;"),
        "fenced coordinator sequenced an entry after lease loss: {a_view:?}"
    );
    cluster.shutdown();
}

/// Divergent-suffix heal: the coordinator sequences an entry inside
/// its lease window after the partition starts (the suffix the quorum
/// never saw), the majority moves on, and the heal must retract the
/// stale suffix via the merge policies — surfaced as a
/// `divergence_repaired` ops event — and converge every client.
fn stale_suffix_discarded_and_repaired_after_heal() {
    let cluster = start(30, 600);
    let alice = cluster.client("alice", 1);
    let bob = cluster.client("bob", 2);
    let mut a_stream = Vec::new();
    let mut b_stream = Vec::new();

    alice
        .create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    join(&alice);
    join(&bob);
    bcast(&alice, "base;");
    wait_payload(&alice, "base;", Duration::from_secs(10), &mut a_stream);
    wait_payload(&bob, "base;", Duration::from_secs(10), &mut b_stream);

    cluster.isolate(1);
    // Still inside the lease window: the soon-to-be-minority
    // coordinator sequences one more entry. This manufactures the
    // divergent suffix the heal must repair.
    bcast(&alice, "stale;");
    wait_payload(&alice, "stale;", Duration::from_secs(5), &mut a_stream);

    cluster.wait_coordinator(&[2, 3], 2, Duration::from_secs(15));
    bcast(&bob, "live;");
    wait_payload(&bob, "live;", Duration::from_secs(10), &mut b_stream);

    cluster.nem.heal();
    wait(
        "s1 to rejoin and reconcile its stale suffix",
        Duration::from_secs(20),
        || {
            !cluster.fenced(1)
                && cluster
                    .server(1)
                    .status()
                    .map(|st| st.coordinator == Some(ServerId::new(2)))
                    .unwrap_or(false)
        },
    );
    let repaired = cluster
        .server(1)
        .health_registry()
        .ops_events()
        .into_iter()
        .find(|e| e.kind == "divergence_repaired")
        .expect("no divergence_repaired ops event after heal");
    assert!(
        repaired.value >= 1,
        "stale suffix not counted as discarded: {repaired:?}"
    );

    bcast(&alice, "after;");
    wait_payload(&alice, "after;", Duration::from_secs(15), &mut a_stream);
    wait_payload(&bob, "after;", Duration::from_secs(15), &mut b_stream);
    a_stream.extend(drain(&alice, Duration::from_millis(400)));
    b_stream.extend(drain(&bob, Duration::from_millis(400)));

    // Alice saw the retraction (stale seq 2, then the corrected seq 2
    // on replay): her FINAL view must equal the quorum history.
    let a_view = last_wins(&a_stream);
    let b_view = last_wins(&b_stream);
    let want: Vec<(u64, String)> = vec![
        (1, "base;".into()),
        (2, "live;".into()),
        (3, "after;".into()),
    ];
    assert_eq!(a_view, want, "stale suffix survived the heal");
    assert_eq!(b_view, want, "quorum-side entry lost");
    // The quorum side must never have observed the stale entry, and
    // none of its deliveries were retracted.
    assert_eq!(
        b_stream.len(),
        b_view.len(),
        "quorum-side client saw a retraction: {b_stream:?}"
    );
    cluster.shutdown();
}

/// Flapping links: the acting coordinator is repeatedly partitioned
/// away and healed. Each cycle forces a fence, an election, and a heal
/// reconciliation; after the storm every client converges on one
/// gap-free stream containing everybody's liveness marker.
fn flapping_partitions_converge_to_identical_streams() {
    let cluster = start(30, 150);
    let clients = [
        cluster.client("alice", 1),
        cluster.client("bob", 2),
        cluster.client("carol", 3),
    ];
    let mut streams: Vec<Vec<(u64, String)>> = vec![Vec::new(), Vec::new(), Vec::new()];

    clients[0]
        .create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    for c in &clients {
        join(c);
    }
    bcast(&clients[0], "m0;");
    for (c, stream) in clients.iter().zip(streams.iter_mut()) {
        wait_payload(c, "m0;", Duration::from_secs(10), stream);
    }

    let all = [1u64, 2, 3];
    for cycle in 0..3 {
        // Settle, then cut the acting coordinator off.
        let mut agreed = None;
        wait(
            &format!("pre-cycle-{cycle} convergence"),
            Duration::from_secs(20),
            || {
                if all.iter().any(|id| cluster.fenced(*id)) {
                    return false;
                }
                agreed = cluster.coordinator_agreed(&all);
                agreed.is_some()
            },
        );
        let coord = agreed.unwrap().raw();
        let survivors: Vec<u64> = all.iter().copied().filter(|id| *id != coord).collect();
        cluster.isolate(coord);

        let mut next = None;
        wait(
            &format!("cycle-{cycle} survivors to elect"),
            Duration::from_secs(15),
            || {
                next = cluster.coordinator_agreed(&survivors);
                next.is_some_and(|c| c.raw() != coord)
            },
        );
        cluster.nem.heal();
        let target = next.unwrap();
        wait(
            &format!("cycle-{cycle} cluster to reconverge on {target}"),
            Duration::from_secs(20),
            || {
                cluster.coordinator_agreed(&all) == Some(target)
                    && all.iter().all(|id| !cluster.fenced(*id))
            },
        );
    }

    // Every client proves end-to-end liveness with a retried marker
    // (a forward handed to a dying coordinator is lost for good, so
    // each send waits for its own sender-inclusive echo).
    for (i, (c, stream)) in clients.iter().zip(streams.iter_mut()).enumerate() {
        let marker = format!("mark{i};");
        let deadline = Instant::now() + Duration::from_secs(40);
        'sent: loop {
            bcast(c, &marker);
            let confirm = Instant::now() + Duration::from_secs(4);
            while Instant::now() < confirm {
                if let Ok(ServerEvent::Multicast { logged, .. }) =
                    c.next_event_timeout(Duration::from_millis(200))
                {
                    let payload = String::from_utf8_lossy(&logged.update.payload).into_owned();
                    let hit = payload == marker;
                    stream.push((logged.seq.0, payload));
                    if hit {
                        break 'sent;
                    }
                }
            }
            assert!(Instant::now() < deadline, "{marker} never sequenced");
        }
    }
    for (c, stream) in clients.iter().zip(streams.iter_mut()) {
        stream.extend(drain(c, Duration::from_millis(800)));
    }

    let views: Vec<Vec<(u64, String)>> = streams.iter().map(|s| last_wins(s)).collect();
    assert_eq!(views[0], views[1], "views diverged after flapping");
    assert_eq!(views[1], views[2], "views diverged after flapping");
    assert_contiguous(&views[0], "flapping");
    for what in ["partitions", "heals"] {
        assert!(cluster.injected(what) >= 3, "three flaps, {what} uncounted");
    }
    for i in 0..3 {
        let marker = format!("mark{i};");
        assert!(
            views[0].iter().any(|(_, p)| *p == marker),
            "{marker} lost: {:?}",
            views[0]
        );
    }
    cluster.shutdown();
}

/// Duplicate/reorder storm on every peer link: transport-level
/// duplicates must be absorbed (forward dedup at the coordinator,
/// sequenced-append suppression at the replicas) and reorders healed
/// by the gap-refresh path, leaving every client stream exactly-once
/// and in order.
fn duplicate_reorder_storm_keeps_streams_exact() {
    let cluster = start(30, 300);
    let clients = [
        cluster.client("alice", 1),
        cluster.client("bob", 2),
        cluster.client("carol", 3),
    ];
    clients[0]
        .create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    for c in &clients {
        join(c);
    }

    // Storm only the peer mesh; acks are delayed/duplicated but never
    // dropped, so the quorum lease must hold throughout.
    let storm = LinkFaults {
        drop_per_mille: 0,
        dup_per_mille: 150,
        reorder_per_mille: 150,
        delay_ms: 1,
    };
    for (i, j) in [(1, 2), (1, 3), (2, 3)] {
        cluster.nem.set_link_faults(&node(i), &node(j), storm);
    }

    const N: usize = 24;
    for k in 0..N {
        bcast(&clients[k % 3], &format!("p{k:02};"));
    }

    let mut views = Vec::new();
    for c in &clients {
        let mut raw: Vec<(u64, String)> = Vec::new();
        let mut seen: HashSet<u64> = HashSet::new();
        let deadline = Instant::now() + Duration::from_secs(40);
        while seen.len() < N {
            match c.next_event_timeout(Duration::from_millis(500)) {
                Ok(ServerEvent::Multicast { logged, .. }) => {
                    seen.insert(logged.seq.0);
                    raw.push((
                        logged.seq.0,
                        String::from_utf8_lossy(&logged.update.payload).into_owned(),
                    ));
                }
                Ok(_) => {}
                Err(_) => assert!(
                    Instant::now() < deadline,
                    "storm stalled the stream: got {} of {N}: {raw:?}",
                    seen.len()
                ),
            }
        }
        // A grace window to catch any trailing duplicate delivery.
        raw.extend(drain(c, Duration::from_millis(600)));
        assert_eq!(
            raw.len(),
            N,
            "duplicate delivery under dup/reorder storm: {raw:?}"
        );
        let view = last_wins(&raw);
        assert_contiguous(&view, "storm");
        views.push(view);
    }
    assert_eq!(views[0], views[1], "storm broke total order");
    assert_eq!(views[1], views[2], "storm broke total order");
    assert!(!cluster.fenced(1), "storm must not cost the quorum lease");
    for what in ["duplicated", "reordered"] {
        assert!(cluster.injected(what) > 0, "the storm {what} nothing");
    }
    cluster.shutdown();
}

// ------------------------------------------------------------------ matrix

/// Runs each scenario as the test `tcp::<scenario>`.
macro_rules! run_on_tcp {
    ($($scenario:ident),+ $(,)?) => {
        mod tcp {
            $(
                #[test]
                fn $scenario() {
                    super::$scenario();
                }
            )+
        }
    };
}

run_on_tcp!(
    partition_fences_minority_coordinator_and_heals,
    stale_suffix_discarded_and_repaired_after_heal,
    flapping_partitions_converge_to_identical_streams,
    duplicate_reorder_storm_keeps_streams_exact,
);
