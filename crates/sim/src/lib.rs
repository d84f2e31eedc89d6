//! # corona-sim
//!
//! One discrete-event [`engine`], one [`stepped`] harness on it — the
//! shipping servers, stepped, over the virtual-time [`net`], every
//! client a stepped `ClientSession` — and three things driven on it.
//!
//! **The replication protocol itself** ([`cluster`], [`scenarios`]):
//! whole clusters of the real `ReplicatedServer` — the kernel, the
//! election, lease, fence and quarantine → merge logic that ships —
//! with the net wrapped by the real `Nemesis`, supervised clients
//! reconnecting by themselves, driven by a script of client commands
//! and the fault plane's own `NemesisEvent`s, with every invariant
//! checked after every event. A run is a pure function of its seed;
//! `cargo run --release -p corona-sim --bin sweep -- all 1 1000` runs
//! eleven thousand of them in about half a minute. There is no model of
//! either protocol here to drift from it. The same servers on real
//! sockets are one [`loopback`] cluster, which the workspace's TCP tests
//! share.
//!
//! **The paper's evaluation** ([`paper`], [`hosts`]): a stepped
//! `CoronaServer`, or a replicated star, with the 1999 testbed (Sparc /
//! UltraSparc / Pentium II hosts on 10 Mbps Ethernet) as calibrated
//! cost profiles that [`net`] charges to every frame sent and received.
//! The paper's qualitative results are reproduced by the code that
//! ships, or reported where it does not reproduce them:
//!
//! * Figure 3: round-trip delay linear in #clients; stateful ≈
//!   stateless;
//! * §5.2.1: higher slope at 10 000-byte payloads;
//! * Table 1: throughput grows with message size;
//! * Table 2: the replicated star beats the single server at 100–300
//!   clients, with a widening gap.
//!
//! `cargo run --release -p corona-sim --bin paper` prints
//! EXPERIMENTS.md's result blocks from these runs, byte for byte.
//!
//! **The allocation count** (the workspace's `tests/alloc_budget.rs`):
//! the allocator calls a broadcast costs the servers, and a delivery
//! the clients.
//!
//! ```
//! use corona_sim::{roundtrip, ExperimentConfig};
//!
//! let single = roundtrip(ExperimentConfig { n_clients: 100, messages: 30, ..Default::default() });
//! let replicated = roundtrip(ExperimentConfig {
//!     n_clients: 100,
//!     n_servers: 6,
//!     messages: 30,
//!     ..Default::default()
//! });
//! assert!(replicated.mean_ms < single.mean_ms);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod engine;
pub mod hosts;
pub mod loopback;
pub mod net;
pub mod paper;
pub mod scenarios;
pub mod stepped;

pub use cluster::{run, run_with, Action, Failure, Outcome, Scenario, ServerOutcome};
pub use engine::{Resource, Scheduler, SimTime};
pub use hosts::{
    HostProfile, NetworkProfile, CAMPUS_BACKBONE, ETHERNET_10MBPS, PENTIUM_II_200, SPARC_20_CLIENT,
    ULTRASPARC_1,
};
pub use paper::{
    p99_us, roundtrip, roundtrip_with_metrics, throughput, ExperimentConfig, RoundTripResults,
    ThroughputResults,
};
pub use scenarios::{scenario, SCENARIOS};
