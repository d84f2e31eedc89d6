//! The replicated Corona service (§4): a coordinator plus member
//! servers, clients spread across servers, total order across the
//! star — and a live coordinator crash, after which the first server
//! in the startup list wins the election, rebuilds the authoritative
//! state from the hot-standby replicas, and the collaboration
//! continues.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example replicated_failover
//! ```

use corona::prelude::*;
use corona::transport::{Nemesis, ReactorListener};
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
            base_timeout_ms: 150,
            server_config: ServerConfig::stateful(ServerId::new(i)),
        };
        servers.push(ReplicatedServer::start(
            Box::new(client),
            nem.wrap_listener(&node, Box::new(peer)),
            Arc::from(nem.wrap_dialer(&node, Box::new(TcpDialer))),
            config,
        )?);
    }

    // Clients on two different member servers.
    let connect = |name: &str, srv: u64| -> corona::types::Result<CoronaClient> {
        let conn = TcpDialer
            .dial(&client_addrs[srv as usize - 1].1)
            .expect("dial");
        let mut c = CoronaClient::connect(conn, name, None)?;
        c.set_call_timeout(Duration::from_secs(15));
        Ok(c)
    };
    let bob = connect("bob", 2)?;
    let carol = connect("carol", 3)?;

    bob.create_group(G, Persistence::Persistent, SharedState::new())?;
    bob.join(G, MemberRole::Principal, StateTransferPolicy::None, false)?;
    carol.join(G, MemberRole::Principal, StateTransferPolicy::None, false)?;

    bob.bcast_update(G, O, &b"before-crash;"[..], DeliveryScope::SenderExclusive)?;
    match carol.next_event_timeout(Duration::from_secs(5))? {
        ServerEvent::Multicast { logged, .. } => println!(
            "carol (server 3) received seq {} from bob (server 2): {}",
            logged.seq,
            String::from_utf8_lossy(&logged.update.payload)
        ),
        other => println!("unexpected: {other:?}"),
    }

    // Crash the coordinator.
    println!("\ncrashing the coordinator (s1)...");
    let s1 = servers.remove(0);
    s1.shutdown();
    nem.crash("s1");

    // Wait for the election to settle on s2.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let agreed = servers.iter().all(|s| {
            s.status()
                .map(|st| st.coordinator == Some(ServerId::new(2)))
                .unwrap_or(false)
        });
        if agreed {
            break;
        }
        assert!(Instant::now() < deadline, "election never settled");
        std::thread::sleep(Duration::from_millis(25));
    }
    let status = servers[0].status()?;
    println!(
        "election settled: s2 is coordinator (epoch {}), rebuilt from hot-standby replicas",
        status.epoch
    );

    // The collaboration continues across the surviving servers.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        bob.bcast_update(G, O, &b"after-crash;"[..], DeliveryScope::SenderExclusive)?;
        match carol.next_event_timeout(Duration::from_millis(500)) {
            Ok(ServerEvent::Multicast { logged, .. }) => {
                println!(
                    "carol received post-failover seq {}: {}",
                    logged.seq,
                    String::from_utf8_lossy(&logged.update.payload)
                );
                break;
            }
            _ => assert!(Instant::now() < deadline, "no post-failover delivery"),
        }
    }

    // A fresh client joining after the crash still sees the full
    // history — the state survived the coordinator.
    let dave = connect("dave", 3)?;
    let (_, transfer) = dave.join(
        G,
        MemberRole::Principal,
        StateTransferPolicy::FullState,
        false,
    )?;
    println!(
        "dave's transferred state: {:?}",
        String::from_utf8_lossy(
            &transfer
                .reconstruct()
                .object(O)
                .expect("object")
                .materialize()
        )
    );

    bob.close();
    carol.close();
    dave.close();
    for s in servers {
        s.shutdown();
    }
    println!("done");
    Ok(())
}
