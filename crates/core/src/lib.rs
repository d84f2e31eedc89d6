//! # corona-core
//!
//! The Corona stateful group-communication server and client library —
//! the primary contribution of *"Stateful Group Communication
//! Services"* (Litiu & Prakash, ICDCS 1999).
//!
//! The server maintains an up-to-date, type-opaque copy of each
//! group's shared state, so that:
//!
//! * joins complete against the service alone — no member-to-member
//!   state transfer, no view-agreement protocol on the join path;
//! * clients pick a state-transfer policy matched to their link
//!   (full state / last-n updates / selected objects / updates-since);
//! * persistent groups outlive their members (and, with stable
//!   storage, server restarts);
//! * disk logging happens on a dedicated thread, off the multicast
//!   critical path.
//!
//! The protocol logic lives in two I/O-free state machines: the
//! server's [`ServerCore`], which [`server::CoronaServer`] wraps in the
//! runtime [`kernel`] (which the replicated service's servers run too),
//! and the client's [`session::ClientSession`], which
//! [`client::CoronaClient`] wraps in a lock, a condition variable and —
//! when supervised — one driver thread. Time is an argument of both,
//! so the `corona-sim` crate steps the very same code, whole replicated
//! clusters of it and their clients, under a discrete-event clock and
//! checks it seed by seed.
//!
//! ## Quickstart
//!
//! ```
//! use corona_core::{client::CoronaClient, config::ServerConfig, server::CoronaServer};
//! use corona_transport::{Dialer, TcpDialer};
//! use corona_types::{
//!     id::{GroupId, ObjectId, ServerId},
//!     policy::{DeliveryScope, MemberRole, Persistence, StateTransferPolicy},
//!     state::SharedState,
//! };
//!
//! # fn main() -> corona_types::Result<()> {
//! let server = CoronaServer::bind("127.0.0.1:0", ServerConfig::stateful(ServerId::new(1)))?;
//!
//! let conn = TcpDialer
//!     .dial(&server.local_addr())
//!     .map_err(|e| corona_types::CoronaError::InvalidState(e.to_string()))?;
//! let alice = CoronaClient::connect(conn, "alice", None)?;
//!
//! let group = GroupId::new(1);
//! alice.create_group(group, Persistence::Persistent, SharedState::new())?;
//! alice.join(group, MemberRole::Principal, StateTransferPolicy::FullState, false)?;
//! alice.bcast_update(group, ObjectId::new(1), &b"hello"[..], DeliveryScope::SenderInclusive)?;
//!
//! // Sender-inclusive: the sequenced copy comes back to the sender.
//! let event = alice.next_event()?;
//! # drop(event);
//! alice.close();
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod config;
pub mod core;
pub mod kernel;
pub mod mirror;
pub mod qos;
pub mod server;
pub mod session;

pub use client::{CoronaClient, FailoverConfig, LockResult, RosterView, SharedMirror};
pub use config::{ServerConfig, Statefulness};
pub use core::{CoreCounters, Effect, LogEffect, ServerCore};
pub use kernel::{Io, Kernel, Protocol};
pub use mirror::{ApplyOutcome, GroupMirror};
pub use qos::{classify, EventClass, QosPolicy};
pub use server::{CoronaServer, ServerStats};

/// Locks past a poisoning: every update made under this crate's locks
/// leaves its data valid at each step.
fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
