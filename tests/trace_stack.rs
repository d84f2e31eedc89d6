//! End-to-end tracing through the live stack: a client broadcast over
//! real TCP must leave a complete span chain — submit → ingress →
//! sequence → append → deliver — with monotonic timestamps, stitched
//! together by the trace id carried on the wire.
//!
//! These tests flip the process-global tracing switch, so they live in
//! their own binary and serialise on a local mutex.

use corona::prelude::*;
use corona::trace::{self, Hop};
use std::sync::Mutex;
use std::time::Duration;

static TRACING: Mutex<()> = Mutex::new(());

const G: GroupId = GroupId(1);
const DOC: ObjectId = ObjectId(1);

fn storage_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("corona-trace-stack-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn broadcast_leaves_a_complete_monotonic_span_chain() {
    let _guard = TRACING.lock().unwrap();
    trace::set_enabled(true);
    trace::clear();

    // The dispatcher records the LogAppend hop as it hands the record
    // to the logger thread, before fan-out begins.
    let dir = storage_dir("chain");
    let config = ServerConfig::stateful(ServerId::new(1)).with_storage(&dir);
    let server = CoronaServer::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    let client = CoronaClient::connect(TcpDialer.dial(&addr).unwrap(), "tracer", None).unwrap();
    client
        .create_group(G, Persistence::Persistent, SharedState::new())
        .unwrap();
    client
        .join(
            G,
            MemberRole::Principal,
            StateTransferPolicy::FullState,
            false,
        )
        .unwrap();
    client
        .bcast_update(
            G,
            DOC,
            &b"traced update"[..],
            DeliveryScope::SenderInclusive,
        )
        .unwrap();
    // Wait for the sender-inclusive copy — the chain is complete once
    // it arrives.
    loop {
        if let ServerEvent::Multicast { .. } =
            client.next_event_timeout(Duration::from_secs(10)).unwrap()
        {
            break;
        }
    }

    let spans = trace::drain();
    client.close();
    server.shutdown();
    trace::set_enabled(false);
    let _ = std::fs::remove_dir_all(&dir);

    // Exactly one traced chain (the broadcast), carrying the full hop
    // sequence in timestamp order.
    let chain_id = spans
        .iter()
        .find(|s| s.hop == Hop::ClientSubmit)
        .expect("submit span")
        .trace;
    assert!(chain_id.is_some(), "chain must carry a real trace id");
    let chain: Vec<_> = spans.iter().filter(|s| s.trace == chain_id).collect();

    let expected = [
        Hop::ClientSubmit,
        Hop::ServerIngress,
        Hop::Sequence,
        Hop::LogAppend,
        Hop::FanoutEnqueue,
        Hop::ClientDeliver,
    ];
    for hop in expected {
        assert!(
            chain.iter().any(|s| s.hop == hop),
            "missing {hop:?} in chain: {chain:?}"
        );
    }
    // `drain` returns spans sorted by timestamp; the causal hop order
    // must match, i.e. per-hop timestamps are monotonic.
    let hop_order: Vec<Hop> = chain
        .iter()
        .filter(|s| expected.contains(&s.hop))
        .map(|s| s.hop)
        .collect();
    assert_eq!(hop_order, expected, "span chain out of order: {chain:?}");
    let mut prev = 0;
    for s in &chain {
        assert!(s.ts_us >= prev, "non-monotonic timestamps: {chain:?}");
        prev = s.ts_us;
    }

    // The delivery span measured the client-observed latency.
    let deliver = chain.iter().find(|s| s.hop == Hop::ClientDeliver).unwrap();
    let submit = chain.iter().find(|s| s.hop == Hop::ClientSubmit).unwrap();
    assert_eq!(deliver.dur_us, deliver.ts_us - submit.ts_us);
}

#[test]
fn disabled_tracing_records_nothing_across_the_stack() {
    let _guard = TRACING.lock().unwrap();
    trace::set_enabled(false);
    trace::clear();

    let server =
        CoronaServer::bind("127.0.0.1:0", ServerConfig::stateful(ServerId::new(1))).unwrap();
    let addr = server.local_addr();
    let client = CoronaClient::connect(TcpDialer.dial(&addr).unwrap(), "quiet", None).unwrap();
    client
        .create_group(G, Persistence::Transient, SharedState::new())
        .unwrap();
    client
        .join(
            G,
            MemberRole::Principal,
            StateTransferPolicy::FullState,
            false,
        )
        .unwrap();
    client
        .bcast_update(G, DOC, &b"untraced"[..], DeliveryScope::SenderInclusive)
        .unwrap();
    loop {
        if let ServerEvent::Multicast { .. } =
            client.next_event_timeout(Duration::from_secs(10)).unwrap()
        {
            break;
        }
    }
    client.close();
    server.shutdown();

    assert!(
        trace::drain().is_empty(),
        "disabled tracing must record nothing"
    );
}
