//! Quickstart: a stateful Corona server over loopback TCP, two
//! clients, a persistent group, and the join-time state transfer.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use corona::prelude::*;
use std::time::Duration;

fn main() -> corona::types::Result<()> {
    // 1. Start a stateful server on an ephemeral TCP port.
    let server = CoronaServer::bind("127.0.0.1:0", ServerConfig::stateful(ServerId::new(1)))?;
    let addr = server.local_addr();
    println!("server listening on {addr}");

    // 2. Alice connects, creates a persistent group and joins it.
    let alice = CoronaClient::connect(TcpDialer.dial(&addr).expect("dial"), "alice", None)?;
    let group = GroupId::new(1);
    let notebook = ObjectId::new(1);
    alice.create_group(group, Persistence::Persistent, SharedState::new())?;
    alice.join(
        group,
        MemberRole::Principal,
        StateTransferPolicy::FullState,
        true,
    )?;
    println!("alice joined {group} as {}", alice.client_id());

    // 3. Alice writes into the shared notebook object. `bcast_update`
    //    appends (preserving history); `bcast_state` would replace.
    alice.bcast_update(
        group,
        notebook,
        &b"alice: hello, group!\n"[..],
        DeliveryScope::SenderExclusive,
    )?;
    alice.bcast_update(
        group,
        notebook,
        &b"alice: anyone here?\n"[..],
        DeliveryScope::SenderExclusive,
    )?;

    // 4. Bob joins LATER — and still receives the full shared state
    //    from the server. No existing member is involved in his join
    //    (the paper's key departure from ISIS-style state transfer).
    let bob = CoronaClient::connect(TcpDialer.dial(&addr).expect("dial"), "bob", None)?;
    let (members, mirror) = bob.join_mirrored(group, MemberRole::Principal, false)?;
    println!(
        "bob joined; members = {:?}",
        members
            .iter()
            .map(|m| m.display_name.as_str())
            .collect::<Vec<_>>()
    );
    println!(
        "bob's transferred notebook:\n{}",
        String::from_utf8_lossy(
            &mirror
                .state()
                .object(notebook)
                .expect("notebook")
                .materialize()
        )
    );

    // 5. Bob replies; Alice receives the sequenced multicast.
    bob.bcast_update(
        group,
        notebook,
        &b"bob: hi alice!\n"[..],
        DeliveryScope::SenderExclusive,
    )?;
    loop {
        match alice.next_event_timeout(Duration::from_secs(5))? {
            ServerEvent::Multicast { logged, .. } => {
                println!(
                    "alice received seq {}: {}",
                    logged.seq,
                    String::from_utf8_lossy(&logged.update.payload).trim_end()
                );
                break;
            }
            // Awareness notifications (bob's join) interleave with the
            // data stream; show and continue.
            other => println!("alice received: {other:?}"),
        }
    }

    // 6. Orderly shutdown.
    alice.close();
    bob.close();
    server.shutdown();
    println!("done");
    Ok(())
}
