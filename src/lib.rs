//! # corona
//!
//! A Rust reproduction of **Corona** — *"Stateful Group Communication
//! Services"*, Radu Litiu and Atul Prakash, ICDCS 1999.
//!
//! Corona is a group multicast service whose logical server is
//! *stateful*: it maintains an up-to-date, type-opaque copy of each
//! group's shared state (a set of object-id → byte-stream pairs), so
//! joining clients receive current state directly from the service —
//! no member-to-member state transfer, no view-agreement protocol on
//! the join path, and persistent groups whose state outlives both
//! their members and (with stable storage) the server process.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`types`] — identifiers, shared-state model, wire protocol, codec;
//! * [`statelog`] — in-memory group logs, stable storage, log reduction;
//! * [`membership`] — groups, roles, locks, session policy;
//! * [`transport`] — the TCP transport and its fault plane;
//! * [`service`] — the stateful server and the client library;
//! * [`replication`] — coordinator sequencing, elections, partition
//!   merge;
//! * [`metrics`] — the shared observability registry: counters,
//!   gauges, log₂-bucketed latency histograms;
//! * [`trace`] — end-to-end distributed tracing: wire-carried trace
//!   ids, per-hop spans, a lock-free flight recorder, JSONL and
//!   `chrome://tracing` exporters;
//! * [`sim`] — the deterministic simulator reproducing the paper's
//!   evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use corona::prelude::*;
//!
//! # fn main() -> corona::types::Result<()> {
//! // A server on a loopback port, and a client dialled to it.
//! let server = CoronaServer::bind("127.0.0.1:0", ServerConfig::stateful(ServerId::new(1)))?;
//! let alice = CoronaClient::connect(
//!     TcpDialer.dial(&server.local_addr()).expect("dial"),
//!     "alice",
//!     None,
//! )?;
//! let group = GroupId::new(1);
//! alice.create_group(group, Persistence::Persistent, SharedState::new())?;
//! alice.join(group, MemberRole::Principal, StateTransferPolicy::FullState, false)?;
//! alice.bcast_update(group, ObjectId::new(1), &b"hello"[..], DeliveryScope::SenderInclusive)?;
//! alice.close();
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// Identifiers, the shared-state model, the wire protocol and codec.
pub use corona_types as types;

/// In-memory and stable-storage state logs, snapshots, log reduction.
pub use corona_statelog as statelog;

/// Group membership, roles, locks, session-manager policy.
pub use corona_membership as membership;

/// The framed TCP transport and the fault plane around it.
pub use corona_transport as transport;

/// The Corona stateful server and client library.
pub use corona_core as service;

/// The replicated service: sequencing, election, partition merge.
pub use corona_replication as replication;

/// Lock-free counters, gauges and latency histograms shared by every
/// layer of the stack.
pub use corona_metrics as metrics;

/// Distributed tracing: wire-carried trace ids, per-hop span events,
/// a lock-free flight recorder, JSONL/Chrome exporters and latency
/// breakdowns.
pub use corona_trace as trace;

/// Live health plane: per-group health registry, watchdogs with
/// structured ops events, SLO burn-rate tracking, and the capacity
/// model behind the `Health` admin command.
pub use corona_health as health;

/// Deterministic discrete-event simulator for the paper's evaluation.
pub use corona_sim as sim;

/// The most common imports, in one place.
pub mod prelude {
    pub use corona_core::{
        client::CoronaClient, config::ServerConfig, mirror::GroupMirror, server::CoronaServer,
        ApplyOutcome, EventClass, FailoverConfig, LockResult, QosPolicy, RosterView, SharedMirror,
        Statefulness,
    };
    pub use corona_metrics::{MetricsSnapshot, Registry};
    pub use corona_replication::{ReplicatedConfig, ReplicatedServer};
    pub use corona_statelog::{ReductionPolicy, SyncPolicy};
    pub use corona_transport::{Connection, Dialer, Listener, TcpDialer};
    pub use corona_types::{
        id::{ClientId, GroupId, ObjectId, SeqNo, ServerId},
        message::{ServerEvent, StateTransfer},
        policy::{
            DeliveryScope, MemberInfo, MemberRole, MembershipChange, Persistence,
            StateTransferPolicy,
        },
        state::{LoggedUpdate, SharedState, StateUpdate, Timestamp, UpdateKind},
        CoronaError, ErrorCode,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let _ = GroupId::new(1);
        let _ = SharedState::new();
        let _: &dyn Dialer = &TcpDialer;
    }
}
