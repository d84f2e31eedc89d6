//! Reliable data dissemination (Figure 1 of the paper): publishers
//! *push* instrument data into a persistent pool; permanent
//! subscribers receive it synchronously; **asynchronous subscribers**
//! connect occasionally and *pull* the data that accumulated while
//! they were away — the service keeps it "long time after it has
//! received it from its publisher" (§1).
//!
//! Run with:
//!
//! ```sh
//! cargo run --example dissemination
//! ```

use corona::prelude::*;
use std::time::Duration;

const FEED: GroupId = GroupId(11);
const RADAR: ObjectId = ObjectId(1);
const LIDAR: ObjectId = ObjectId(2);

fn reading(instrument: &str, t: u32) -> Vec<u8> {
    format!("{instrument} t={t} value={}\n", 100 + t * 3).into_bytes()
}

fn main() -> corona::types::Result<()> {
    let server = CoronaServer::bind("127.0.0.1:0", ServerConfig::stateful(ServerId::new(1)))?;
    let addr = server.local_addr();

    // The publisher creates the persistent feed and pushes readings.
    // `StateTransferPolicy::None` on join: a pure publisher needs no
    // state back.
    let publisher =
        CoronaClient::connect(TcpDialer.dial(&addr).expect("dial"), "radar-station", None)?;
    publisher.create_group(FEED, Persistence::Persistent, SharedState::new())?;
    publisher.join(
        FEED,
        MemberRole::Principal,
        StateTransferPolicy::None,
        false,
    )?;

    // A permanent subscriber is online from the start (push mode).
    let permanent = CoronaClient::connect(TcpDialer.dial(&addr).expect("dial"), "archive", None)?;
    permanent.join(
        FEED,
        MemberRole::Observer,
        StateTransferPolicy::FullState,
        false,
    )?;

    for t in 0..5 {
        publisher.bcast_update(
            FEED,
            RADAR,
            reading("radar", t),
            DeliveryScope::SenderExclusive,
        )?;
        publisher.bcast_update(
            FEED,
            LIDAR,
            reading("lidar", t),
            DeliveryScope::SenderExclusive,
        )?;
    }
    publisher.ping()?; // flush

    // Push mode: the permanent subscriber saw all 10 readings live.
    let mut live = 0;
    while let Ok(ServerEvent::Multicast { .. }) =
        permanent.next_event_timeout(Duration::from_millis(500))
    {
        live += 1;
        if live == 10 {
            break;
        }
    }
    println!("permanent subscriber received {live} readings by push");

    // Pull mode: an asynchronous subscriber connects now, long after
    // the data was published — and only cares about the radar.
    let occasional =
        CoronaClient::connect(TcpDialer.dial(&addr).expect("dial"), "field-laptop", None)?;
    let (_, transfer) = occasional.join(
        FEED,
        MemberRole::Observer,
        StateTransferPolicy::Objects(vec![RADAR]),
        false,
    )?;
    let radar_only = transfer.reconstruct();
    println!(
        "asynchronous subscriber pulled the radar backlog ({} bytes):\n{}",
        transfer.payload_len(),
        String::from_utf8_lossy(&radar_only.object(RADAR).expect("radar").materialize())
    );
    assert!(
        radar_only.object(LIDAR).is_none(),
        "lidar excluded by policy"
    );
    let last_seen = transfer.through;

    // It disconnects; publishing continues; it returns and pulls only
    // the delta (`UpdatesSince`).
    occasional.leave(FEED)?;
    for t in 5..8 {
        publisher.bcast_update(
            FEED,
            RADAR,
            reading("radar", t),
            DeliveryScope::SenderExclusive,
        )?;
    }
    publisher.ping()?;

    let (_, delta) = occasional.join(
        FEED,
        MemberRole::Observer,
        StateTransferPolicy::UpdatesSince(last_seen),
        false,
    )?;
    println!(
        "on reconnect it pulled {} delta updates (seq {} -> {})",
        delta.updates.len(),
        delta.basis,
        delta.through
    );
    assert_eq!(delta.updates.len(), 3);

    publisher.close();
    permanent.close();
    occasional.close();
    server.shutdown();
    println!("done");
    Ok(())
}
