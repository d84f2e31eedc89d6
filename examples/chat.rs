//! The paper's chat box (§5.1): "an edit area for composing messages
//! and a scrollable area for displaying a list of received messages"
//! — here as a headless re-creation where several simulated users
//! exchange messages, a latecomer catches up with the
//! `LastUpdates(n)` state-transfer policy (only the recent scrollback,
//! suiting a modem link), and everyone's transcript converges.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example chat
//! ```

use corona::prelude::*;
use std::time::Duration;

const CHAT_ROOM: GroupId = GroupId(42);
const TRANSCRIPT: ObjectId = ObjectId(1);

/// One simulated chat participant.
struct User {
    client: CoronaClient,
    mirror: GroupMirror,
    name: &'static str,
}

impl User {
    fn join(addr: &str, name: &'static str) -> corona::types::Result<User> {
        let client = CoronaClient::connect(TcpDialer.dial(addr).expect("dial"), name, None)?;
        let (_, mirror) = client.join_mirrored(CHAT_ROOM, MemberRole::Principal, true)?;
        Ok(User {
            client,
            mirror,
            name,
        })
    }

    fn say(&self, line: &str) -> corona::types::Result<()> {
        let stamped = format!("<{}> {line}\n", self.name);
        // Sender-inclusive: the server's sequenced echo is what lands
        // in everyone's transcript, including ours — so all replicas
        // order every line identically.
        self.client.bcast_update(
            CHAT_ROOM,
            TRANSCRIPT,
            stamped.into_bytes(),
            DeliveryScope::SenderInclusive,
        )
    }

    /// Drains pending events into the local transcript mirror.
    fn sync(&mut self) {
        while let Ok(event) = self.client.next_event_timeout(Duration::from_millis(300)) {
            self.mirror.apply_event(&event);
        }
    }

    fn transcript(&self) -> String {
        self.mirror
            .state()
            .object(TRANSCRIPT)
            .map(|o| String::from_utf8_lossy(&o.materialize()).into_owned())
            .unwrap_or_default()
    }
}

fn main() -> corona::types::Result<()> {
    let server = CoronaServer::bind(
        "127.0.0.1:0",
        ServerConfig::stateful(ServerId::new(1))
            // Keep at most 50 chat lines replayable; older history is
            // folded into the checkpoint (§3.2 log reduction).
            .with_reduction(ReductionPolicy::MaxUpdates { max: 50, keep: 20 }),
    )?;
    let addr = server.local_addr();

    // The room is created by a founding user.
    let founder = CoronaClient::connect(TcpDialer.dial(&addr).expect("dial"), "founder", None)?;
    founder.create_group(CHAT_ROOM, Persistence::Persistent, SharedState::new())?;
    founder.close();

    let mut ann = User::join(&addr, "ann")?;
    let mut bob = User::join(&addr, "bob")?;

    ann.say("hi all — campaign data is up")?;
    bob.say("looking at the instrument feed now")?;
    ann.say("radar plot at 14:02 looks odd")?;
    bob.say("agreed, re-running the filter")?;
    ann.sync();
    bob.sync();

    // A latecomer with a slow link asks for only the last 3 lines.
    let late_client = CoronaClient::connect(TcpDialer.dial(&addr).expect("dial"), "cara", None)?;
    let (members, transfer) = late_client.join(
        CHAT_ROOM,
        MemberRole::Principal,
        StateTransferPolicy::LastUpdates(3),
        true,
    )?;
    println!(
        "cara joined ({} members online), incremental transfer: {} recent lines, {} bytes",
        members.len(),
        transfer.updates.len(),
        transfer.payload_len()
    );
    let mut cara = User {
        mirror: GroupMirror::from_transfer(&transfer),
        client: late_client,
        name: "cara",
    };

    cara.say("sorry I'm late — what did I miss?")?;
    ann.sync();
    bob.sync();
    cara.sync();

    println!("--- ann's full transcript ---\n{}", ann.transcript());
    println!(
        "--- cara's view (joined with last-3 policy) ---\n{}",
        cara.transcript()
    );

    // Everyone who was present from the start converges exactly.
    assert_eq!(ann.transcript(), bob.transcript());
    // Cara's view is a suffix of the full transcript (she skipped the
    // oldest history on purpose).
    assert!(ann.transcript().ends_with(&cara.transcript()));

    // What the session looked like from the server's side: the shared
    // metric registry every layer records into (see DESIGN.md
    // "Observability").
    let stats = server.stats()?;
    println!(
        "--- server stats ---\nbroadcasts={} deliveries={} joins={} conns={} reductions={}",
        stats.broadcasts, stats.deliveries, stats.joins, stats.conns_accepted, stats.reductions
    );
    println!(
        "--- server metrics ---\n{}",
        server.metrics()?.render_text()
    );

    ann.client.close();
    bob.client.close();
    cara.client.close();
    server.shutdown();
    Ok(())
}
