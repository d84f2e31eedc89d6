//! Health probe: starts a stateful server, drives a little traffic,
//! then pulls the `Health` admin snapshot over the wire — the same
//! versioned JSON an operator's tooling would consume. Used by
//! `scripts/ci.sh` as the health-smoke gate.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example health_probe
//! ```

use corona::prelude::*;
use std::time::Duration;

fn main() -> corona::types::Result<()> {
    let server = CoronaServer::bind("127.0.0.1:0", ServerConfig::stateful(ServerId::new(1)))?;
    let addr = server.local_addr();

    // A member that produces some sequenced traffic for the health
    // counters, and a listener that consumes the fan-out.
    let alice = CoronaClient::connect(TcpDialer.dial(&addr).expect("dial"), "alice", None)?;
    let bob = CoronaClient::connect(TcpDialer.dial(&addr).expect("dial"), "bob", None)?;
    let group = GroupId::new(1);
    let object = ObjectId::new(1);
    alice.create_group(group, Persistence::Persistent, SharedState::new())?;
    alice.join(
        group,
        MemberRole::Principal,
        StateTransferPolicy::FullState,
        false,
    )?;
    bob.join(
        group,
        MemberRole::Principal,
        StateTransferPolicy::FullState,
        false,
    )?;
    for i in 0..10u8 {
        alice.bcast_update(group, object, vec![i], DeliveryScope::SenderExclusive)?;
    }
    // Let bob drain his copies so delivered counters advance.
    for _ in 0..10 {
        let _ = bob.next_event_timeout(Duration::from_secs(5))?;
    }

    // The admin snapshot over the wire (any connection may ask).
    let (schema, json) = alice.health()?;
    assert_eq!(
        schema,
        corona::health::SCHEMA_VERSION,
        "wire schema matches the library"
    );
    println!("HEALTH-PROBE {json}");

    // Stats ride the same admin plane and carry the monotonic
    // snapshot sequence + uptime.
    let stats = server.stats()?;
    println!("STATS-PROBE {}", stats.render_json());
    let stats2 = server.stats()?;
    assert!(
        stats2.snapshot_seq > stats.snapshot_seq,
        "snapshot_seq is monotonic"
    );

    alice.close();
    bob.close();
    server.shutdown();
    Ok(())
}
