//! # corona-transport
//!
//! Framed, reliable, ordered transport for Corona: real TCP, accepted
//! ([`ReactorListener`]) or dialled ([`TcpDialer`]), multiplexed onto
//! sharded epoll event loops ([`reactor`]) — O(shards) threads
//! regardless of connection count.
//!
//! Server and client code is written against the [`Connection`] /
//! [`Listener`] / [`Dialer`] trait objects, so the same protocol logic
//! also runs over `corona-sim`'s virtual-time pipe. Every connection
//! *pushes*: what arrives is handed to a [`FrameSink`] from the
//! transport's event loop, and nobody reads a connection. Faults —
//! partitions, severed links, crashed nodes, seeded
//! drop/delay/duplicate/reorder — live in one place, [`nemesis`], which
//! wraps any backend.
//!
//! ## Example
//!
//! ```
//! use bytes::Bytes;
//! use corona_transport::{Connection, Dialer, FrameSink, Listener, ReactorListener, TcpDialer};
//! use std::sync::{mpsc, Arc, Mutex};
//!
//! /// Hands every frame the server receives to the test thread.
//! struct Collect(Mutex<mpsc::Sender<Bytes>>, Mutex<Vec<Box<dyn Connection>>>);
//!
//! impl FrameSink for Collect {
//!     fn on_accept(&self, _: u64, conn: Box<dyn Connection>) {
//!         self.1.lock().unwrap().push(conn);
//!     }
//!     fn on_frame(&self, _: u64, frame: Bytes) -> bool {
//!         let _ = self.0.lock().unwrap().send(frame);
//!         true
//!     }
//!     fn ready_for_more(&self) -> bool {
//!         true
//!     }
//!     fn on_closed(&self, _: u64, _clean: bool) {}
//! }
//!
//! let listener = ReactorListener::bind("127.0.0.1:0", 1)?;
//! let (tx, frames) = mpsc::channel();
//! assert!(listener.attach_sink(Arc::new(Collect(Mutex::new(tx), Mutex::default()))));
//!
//! let client = TcpDialer.dial(&listener.local_addr())?;
//! client.send(Bytes::from_static(b"hello"))?;
//! assert_eq!(frames.recv().unwrap().as_ref(), b"hello");
//! # Ok::<(), corona_transport::TransportError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod inbox;
pub mod nemesis;
pub mod reactor;
pub mod traits;

pub use inbox::Inbox;
pub use nemesis::{
    FaultRng, LinkFaults, Nemesis, NemesisConnection, NemesisDialer, NemesisEvent, NemesisListener,
    NemesisMetrics,
};
pub use reactor::{Reactor, ReactorConnection, ReactorListener, TcpDialer};
pub use traits::{
    Connection, Dialer, FlushBy, FrameSink, Listener, TransportError, TransportMetrics,
    DEFAULT_DIAL_TIMEOUT, DEFAULT_SEND_CAPACITY,
};
