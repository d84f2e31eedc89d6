//! # corona-transport
//!
//! Framed, reliable, ordered transport for Corona with two backends:
//!
//! * [`reactor`] — real TCP, accepted ([`ReactorListener`]) or dialled
//!   ([`TcpDialer`]), multiplexed onto sharded epoll event loops:
//!   O(shards) threads regardless of connection count;
//! * [`mem`] — a deterministic in-memory pipe between named nodes, for
//!   tests.
//!
//! Server and client code is written against the [`Connection`] /
//! [`Listener`] / [`Dialer`] trait objects, so the same protocol logic
//! runs over either backend; [`serve()`] feeds a server's [`FrameSink`]
//! from either. Faults — partitions, severed links, crashed nodes,
//! seeded drop/delay/duplicate/reorder — live in one place,
//! [`nemesis`], which wraps either backend.
//!
//! ## Example
//!
//! ```
//! use bytes::Bytes;
//! use corona_transport::{Connection, Listener, MemNetwork};
//!
//! let net = MemNetwork::new();
//! let listener = net.listen("server")?;
//! let client = net.dial_from("client", "server")?;
//! let server_side = listener.accept()?;
//!
//! client.send(Bytes::from_static(b"hello"))?;
//! assert_eq!(server_side.recv()?.as_ref(), b"hello");
//! # Ok::<(), corona_transport::TransportError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod fifo;
pub mod inbox;
pub mod mem;
pub mod nemesis;
pub mod reactor;
pub mod serve;
pub mod traits;

pub use inbox::Inbox;
pub use mem::{MemConnection, MemDialer, MemListener, MemNetwork};
pub use nemesis::{
    FaultRng, LinkFaults, Nemesis, NemesisConnection, NemesisDialer, NemesisEvent, NemesisListener,
    NemesisMetrics,
};
pub use reactor::{Reactor, ReactorConnection, ReactorListener, TcpDialer};
pub use serve::{pump, serve};
pub use traits::{
    Connection, Dialer, FlushBy, FrameSink, Listener, TransportError, TransportMetrics,
    DEFAULT_DIAL_TIMEOUT, DEFAULT_INBOUND_CAPACITY, DEFAULT_SEND_CAPACITY,
};
