//! # corona-health
//!
//! The live introspection plane of the Corona stack. Where
//! `corona-metrics` records *what happened* and `corona-trace`
//! records *where the time went*, this crate watches the *running*
//! system:
//!
//! * [`HealthRegistry`] — a lock-free registry of per-group health
//!   cells (sequencer progress, delivery progress, standby-copy tail,
//!   membership size and churn) plus fan-out transmit-queue
//!   high-watermarks and connection backpressure, aggregated by the
//!   server runtimes on their hot paths with relaxed atomics only;
//! * [`Watchdogs`] — pure detector cores (injectable clock, so the
//!   discrete-event simulator can drive them under virtual time) for
//!   the four failure smells of the coordinator star topology:
//!   a stalled sequencer, a saturated transmit queue, a flapping
//!   election, and a client reconnect storm. Each trip produces an
//!   [`OpsEvent`]; emitting one through the registry writes a
//!   structured JSONL line, stamps the triggering trace id, and
//!   flushes the flight recorder to disk;
//! * [`SloTracker`] — configurable latency budgets with error-budget
//!   burn-rate over a sliding window;
//! * [`CapacityModel`] — "how many clients can a replica sustain at
//!   p99 < budget", fed by the simulator's population sweeps and
//!   spooled into `BENCH_*.json` as a regression baseline.
//!
//! The whole plane is exposed to operators through the `Health` admin
//! wire command, which returns a versioned JSON snapshot (see
//! [`SCHEMA_VERSION`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod capacity;
pub mod registry;
pub mod slo;
pub mod watchdog;

pub use capacity::{CapacityModel, CapacityPoint};
pub use registry::{ConnPressure, GroupHealth, HealthRegistry};
pub use slo::{SloConfig, SloSnapshot, SloTracker};
pub use watchdog::{OpsEvent, WatchdogConfig, Watchdogs};

/// Version of the health-snapshot JSON schema. Bumped whenever a
/// field is renamed or its meaning changes; scrapers must check it.
pub const SCHEMA_VERSION: u16 = 1;

/// Locks past a poisoning: every update made under the health plane's
/// locks leaves its data valid at each step.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Escapes `s` into `out` as the body of a JSON string literal.
pub(crate) fn json_escape_into(out: &mut String, s: &str) {
    use std::fmt::Write;
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}
