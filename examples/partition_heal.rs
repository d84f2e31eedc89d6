//! Partition-hardened replication (§4.2): the coordinator is cut off
//! from its peers, loses its quorum lease, and fences itself — writers
//! get an explicit `Unavailable` instead of sequence numbers that
//! could never commit. The majority elects a successor and keeps
//! sequencing. On heal the stale coordinator discards its divergent
//! suffix, adopts the quorum history, replays the corrected window to
//! its local clients, and rejoins as a follower: every client ends on
//! the identical gap-free stream.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example partition_heal
//! ```

use corona::prelude::*;
use corona::transport::{Nemesis, ReactorListener};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const G: GroupId = GroupId(1);
const O: ObjectId = ObjectId(1);

fn main() -> corona::types::Result<()> {
    // Every fault goes through the nemesis around the peer mesh; server
    // `i` is the node `s{i}`, its loopback addresses named before
    // anyone dials.
    let nem = Nemesis::new(0, &Registry::new());
    let bind = |i: u64| {
        let listener = ReactorListener::bind("127.0.0.1:0", 1).expect("bind");
        nem.register_addr(&listener.local_addr(), &format!("s{i}"));
        listener
    };
    let listeners: Vec<_> = (1..=3).map(|i| (i, bind(i), bind(i))).collect();
    let addrs = |pick: fn(&(u64, ReactorListener, ReactorListener)) -> &ReactorListener| {
        let addr = |l: &(u64, _, _)| (ServerId::new(l.0), pick(l).local_addr());
        listeners.iter().map(addr).collect::<Vec<_>>()
    };
    let (client_addrs, peers) = (addrs(|l| &l.1), addrs(|l| &l.2));

    println!("starting 3 replicated servers (s1 = initial coordinator)...");
    let mut servers = Vec::new();
    for (i, client, peer) in listeners {
        let node = format!("s{i}");
        let config = ReplicatedConfig {
            servers: peers.clone(),
            client_addrs: client_addrs.clone(),
            heartbeat_ms: 30,
            base_timeout_ms: 400,
            server_config: ServerConfig::stateful(ServerId::new(i)),
        };
        servers.push(ReplicatedServer::start(
            Box::new(client),
            nem.wrap_listener(&node, Box::new(peer)),
            Arc::from(nem.wrap_dialer(&node, Box::new(TcpDialer))),
            config,
        )?);
    }

    let connect = |name: &str, srv: u64| -> corona::types::Result<CoronaClient> {
        let conn = TcpDialer
            .dial(&client_addrs[srv as usize - 1].1)
            .expect("dial");
        let mut c = CoronaClient::connect(conn, name, None)?;
        c.set_call_timeout(Duration::from_secs(15));
        Ok(c)
    };
    // Alice is homed on the server that will be stranded; bob on the
    // majority side.
    let alice = connect("alice", 1)?;
    let bob = connect("bob", 2)?;
    let mut a_stream: Vec<(u64, String)> = Vec::new();
    let mut b_stream: Vec<(u64, String)> = Vec::new();

    alice.create_group(G, Persistence::Persistent, SharedState::new())?;
    alice.join(G, MemberRole::Principal, StateTransferPolicy::None, false)?;
    bob.join(G, MemberRole::Principal, StateTransferPolicy::None, false)?;

    alice.bcast_update(G, O, &b"base;"[..], DeliveryScope::SenderInclusive)?;
    pump_until(&alice, "base;", &mut a_stream);
    pump_until(&bob, "base;", &mut b_stream);
    println!("both clients saw seq 1: base;");

    // Cut every peer link touching s1. Client links stay up: the
    // stranded coordinator keeps serving reads but must stop writes.
    println!("\npartitioning s1 away from s2 and s3...");
    nem.partition(&[&["s1"], &["s2", "s3"]]);

    // A write racing the lease: sequenced by the minority inside its
    // lease window, visible to alice — and doomed to be discarded.
    alice.bcast_update(G, O, &b"stale;"[..], DeliveryScope::SenderInclusive)?;
    pump_until(&alice, "stale;", &mut a_stream);
    println!("alice saw the minority-sequenced seq 2: stale; (will be retracted)");

    // The quorum lease expires: s1 fences itself.
    let health = servers[0].health_registry();
    wait_for("s1 to fence itself", || health.fenced());
    println!("s1 fenced itself (quorum_lost): writes now refuse with Unavailable");

    alice.bcast_update(G, O, &b"rejected;"[..], DeliveryScope::SenderInclusive)?;
    wait_unavailable(&alice, &mut a_stream);
    println!("alice's write was rejected: {}", ErrorCode::Unavailable);

    // The majority elects s2 and keeps going.
    wait_for("majority to elect s2", || {
        [1usize, 2].iter().all(|&i| {
            servers[i]
                .status()
                .map(|st| st.coordinator == Some(ServerId::new(2)))
                .unwrap_or(false)
        })
    });
    println!("majority elected s2; bob keeps writing");
    bob.bcast_update(G, O, &b"live;"[..], DeliveryScope::SenderInclusive)?;
    pump_until(&bob, "live;", &mut b_stream);

    // Heal: s1 hears the higher epoch, demotes, quarantines its
    // divergent suffix, adopts the quorum history, and replays the
    // corrected window to alice.
    println!("\nhealing the partition...");
    nem.heal();
    wait_for("s1 to rejoin as a follower", || {
        !health.fenced()
            && servers[0]
                .status()
                .map(|st| !st.is_coordinator && st.coordinator == Some(ServerId::new(2)))
                .unwrap_or(false)
    });
    let repaired = servers[0]
        .health_registry()
        .ops_events()
        .into_iter()
        .find(|e| e.kind == "divergence_repaired")
        .expect("heal emits divergence_repaired");
    println!(
        "s1 reconciled: divergence_repaired discarded {} stale entr{}",
        repaired.value,
        if repaired.value == 1 { "y" } else { "ies" }
    );

    alice.bcast_update(G, O, &b"after;"[..], DeliveryScope::SenderInclusive)?;
    pump_until(&alice, "after;", &mut a_stream);
    pump_until(&bob, "after;", &mut b_stream);

    // The heal replay re-delivers corrected entries for seqs alice
    // already saw — last delivery per seq wins.
    let a_view = last_wins(&a_stream);
    let b_view = last_wins(&b_stream);
    println!("\nalice's final view: {a_view:?}");
    println!("bob's   final view: {b_view:?}");
    assert_eq!(a_view, b_view, "clients must converge");
    assert!(
        a_view.iter().all(|(_, p)| p != "stale;"),
        "the retracted entry must not survive"
    );
    println!("converged: identical gap-free streams, stale; retracted");

    alice.close();
    bob.close();
    for s in servers {
        s.shutdown();
    }
    println!("done");
    Ok(())
}

/// Pumps `c`'s multicast stream into `sink` until `want` arrives.
fn pump_until(c: &CoronaClient, want: &str, sink: &mut Vec<(u64, String)>) {
    let deadline = Instant::now() + Duration::from_secs(20);
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
            Err(e) => panic!("no multicast {want:?} within timeout: {e}"),
        }
    }
}

/// Pumps until the explicit `Unavailable` rejection arrives.
fn wait_unavailable(c: &CoronaClient, sink: &mut Vec<(u64, String)>) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        match c.next_event_timeout(remaining.max(Duration::from_millis(1))) {
            Ok(ServerEvent::Error { code, .. }) if code == ErrorCode::Unavailable.to_wire() => {
                return
            }
            Ok(ServerEvent::Multicast { logged, .. }) => sink.push((
                logged.seq.0,
                String::from_utf8_lossy(&logged.update.payload).into_owned(),
            )),
            Ok(_) => {}
            Err(e) => panic!("no Unavailable rejection within timeout: {e}"),
        }
    }
}

fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(15));
    }
}

fn last_wins(casts: &[(u64, String)]) -> Vec<(u64, String)> {
    let mut map = BTreeMap::new();
    for (seq, payload) in casts {
        map.insert(*seq, payload.clone());
    }
    map.into_iter().collect()
}
