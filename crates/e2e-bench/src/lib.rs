//! # corona-e2e-bench
//!
//! The repository's benchmark. It starts the real servers
//! (`CoronaServer` on the reactor, or three `ReplicatedServer`s over
//! loopback TCP), drives them from outside with its own thin wire
//! client, and measures eight end-to-end metrics on four workloads; a
//! separate traced run times each crate's public functions in
//! isolation for the per-layer numbers. `README.md` has the workload
//! rationale and which layer metric should move which end-to-end one.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod json;
pub mod probes;
pub mod repeat;
pub mod run;
pub mod spans;
pub mod util;
pub mod wire;
pub mod workload;
