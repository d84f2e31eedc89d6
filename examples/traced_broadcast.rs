//! End-to-end tracing: run one traced broadcast through a real TCP
//! server, print the per-hop latency breakdown, and export the span
//! chain as a Chrome `trace_event` file you can load in
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example traced_broadcast
//! ```

use corona::prelude::*;
use corona::trace;
use std::time::Duration;

fn main() -> corona::types::Result<()> {
    // Tracing is off by default (the hot path is a single relaxed
    // atomic load); flip it on for this run.
    trace::set_enabled(true);

    let server = CoronaServer::bind("127.0.0.1:0", ServerConfig::stateful(ServerId::new(1)))?;
    let addr = server.local_addr();

    let alice = CoronaClient::connect(TcpDialer.dial(&addr).expect("dial"), "alice", None)?;
    let group = GroupId::new(1);
    alice.create_group(group, Persistence::Transient, SharedState::new())?;
    alice.join(
        group,
        MemberRole::Principal,
        StateTransferPolicy::FullState,
        false,
    )?;

    // One traced broadcast, delivered back to the sender: the trace id
    // minted at submit rides the wire to the server and back, so every
    // hop lands in the same chain.
    alice.bcast_update(
        group,
        ObjectId::new(1),
        &b"traced hello\n"[..],
        DeliveryScope::SenderInclusive,
    )?;
    loop {
        if let ServerEvent::Multicast { .. } = alice.next_event_timeout(Duration::from_secs(5))? {
            break;
        }
    }

    let spans = trace::drain();
    alice.close();
    server.shutdown();
    trace::set_enabled(false);

    println!("captured {} spans:", spans.len());
    print!("{}", trace::to_jsonl(&spans));
    println!(
        "\nper-hop breakdown:\n{}",
        trace::Breakdown::from_spans(&spans).render_json()
    );

    let out = std::env::temp_dir().join("corona-trace.json");
    std::fs::write(&out, trace::to_chrome_trace(&spans)).expect("write trace");
    println!(
        "\nwrote {} — load it in chrome://tracing or https://ui.perfetto.dev",
        out.display()
    );
    Ok(())
}
