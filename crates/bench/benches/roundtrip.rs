//! **FIG3 (real-system microbenchmark)** — round-trip delay through
//! the *real* threaded Corona server over loopback TCP, stateful vs
//! stateless, at small client counts. The full 5–60 client sweep at
//! the paper's scale runs on the simulator
//! (`cargo run -p corona-bench --bin fig3_roundtrip`); this bench
//! validates that the real implementation shows the same two
//! signatures at loopback scale: RTT grows with the receiver count,
//! and the stateful and stateless servers are nearly indistinguishable.

use corona_core::{client::CoronaClient, config::ServerConfig, server::CoronaServer};
use corona_transport::{Dialer, TcpDialer};
use corona_types::id::{GroupId, ObjectId, ServerId};
use corona_types::message::ServerEvent;
use corona_types::policy::{DeliveryScope, MemberRole, Persistence, StateTransferPolicy};
use corona_types::state::SharedState;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::{Duration, Instant};

const G: GroupId = GroupId(1);
const O: ObjectId = ObjectId(1);

struct Rig {
    _server: CoronaServer,
    measuring: CoronaClient,
    _receivers: Vec<CoronaClient>,
}

fn build_rig(n_receivers: usize, stateful: bool) -> Rig {
    let config = if stateful {
        ServerConfig::stateful(ServerId::new(1))
    } else {
        ServerConfig::stateless(ServerId::new(1))
    };
    let server = CoronaServer::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    let connect =
        |name: &str| CoronaClient::connect(TcpDialer.dial(&addr).unwrap(), name, None).unwrap();
    let measuring = connect("measuring");
    measuring
        .create_group(G, Persistence::Transient, SharedState::new())
        .unwrap();
    // Receivers join first so the measuring client is last in the
    // fan-out order (worst case, as in the paper).
    let receivers: Vec<CoronaClient> = (0..n_receivers)
        .map(|i| {
            let c = connect(&format!("r{i}"));
            c.join(G, MemberRole::Observer, StateTransferPolicy::None, false)
                .unwrap();
            // Drain in a detached thread so receiver queues don't grow.
            c
        })
        .collect();
    measuring
        .join(G, MemberRole::Principal, StateTransferPolicy::None, false)
        .unwrap();
    Rig {
        _server: server,
        measuring,
        _receivers: receivers,
    }
}

fn bench_roundtrip(c: &mut Criterion) {
    let payload = vec![0x6C_u8; 1000];
    let mut group = c.benchmark_group("tcp_roundtrip_1000B");
    group.sample_size(30);
    group.measurement_time(Duration::from_secs(4));
    for n_receivers in [1usize, 8, 24] {
        for stateful in [true, false] {
            let label = if stateful { "stateful" } else { "stateless" };
            let rig = build_rig(n_receivers, stateful);
            group.bench_with_input(
                BenchmarkId::new(label, n_receivers),
                &payload,
                |b, payload| {
                    b.iter_custom(|iters| {
                        let start = Instant::now();
                        for _ in 0..iters {
                            rig.measuring
                                .bcast_update(G, O, payload.clone(), DeliveryScope::SenderInclusive)
                                .unwrap();
                            // Wait for the sender's own sequenced copy:
                            // that is the paper's round-trip.
                            loop {
                                match rig
                                    .measuring
                                    .next_event_timeout(Duration::from_secs(10))
                                    .unwrap()
                                {
                                    ServerEvent::Multicast { .. } => break,
                                    _ => continue,
                                }
                            }
                        }
                        start.elapsed()
                    })
                },
            );
            // Drain receivers so their buffers don't grow across runs.
            for r in &rig._receivers {
                while r.try_event().is_some() {}
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_roundtrip);
criterion_main!(benches);
