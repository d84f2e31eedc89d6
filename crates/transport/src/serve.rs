//! The one ingress routine: every server-side connection reaches its
//! [`FrameSink`] through [`serve()`] (accepted) or [`pump`] (dialled).
//!
//! A listener that can push ([`Listener::attach_sink`], the reactor)
//! accepts and reads on its own event loops, and so does a dialled
//! connection that can ([`Connection::attach_sink`]: try it before
//! [`pump`]); a nemesis wrapper passes the offer on to what it wraps.
//! Any other — the in-memory pipe — is pulled: one accept thread and a
//! reader thread per connection turn the blocking `accept` / `recv`
//! calls into the same sink calls.

use crate::traits::{Connection, FlushBy, FrameSink, Listener, TransportError};
use bytes::Bytes;
use corona_types::frame::Frame;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a paused reader sleeps between
/// [`FrameSink::ready_for_more`] polls.
const RESUME_POLL: Duration = Duration::from_millis(1);

/// Feeds `sink` from `listener` until the listener shuts down. `None`
/// if the listener took the sink (push mode), else the accept thread,
/// which ends — after joining its readers — once the listener is shut
/// down and every connection it accepted has closed.
pub fn serve(
    name: &str,
    listener: Arc<dyn Listener>,
    sink: Arc<dyn FrameSink>,
) -> Option<JoinHandle<()>> {
    if listener.attach_sink(Arc::clone(&sink)) {
        return None;
    }
    let thread_name = format!("{name}-accept");
    let name = name.to_string();
    let accept = move || {
        let mut readers: Vec<JoinHandle<()>> = Vec::new();
        let mut conn_id = 0u64;
        while let Ok(conn) = listener.accept() {
            conn_id += 1;
            let conn: Arc<dyn Connection> = Arc::from(conn);
            // `on_accept` precedes the connection's first `on_frame`.
            sink.on_accept(conn_id, Box::new(Pumped(Arc::clone(&conn))));
            readers.retain(|reader| !reader.is_finished());
            readers.push(spawn_reader(&name, conn_id, conn, Arc::clone(&sink)));
        }
        for reader in readers {
            let _ = reader.join();
        }
    };
    Some(spawn(thread_name, accept))
}

/// Starts the reader of a connection the caller dialled and that
/// declined [`Connection::attach_sink`]: its frames and its close reach
/// `sink` as `conn_id` (no `on_accept`: the caller already holds it). Returns the handle to send on — dropping it closes
/// the connection — and the reader, which ends when that happens.
pub fn pump(
    name: &str,
    conn_id: u64,
    conn: Box<dyn Connection>,
    sink: Arc<dyn FrameSink>,
) -> (Box<dyn Connection>, JoinHandle<()>) {
    let conn: Arc<dyn Connection> = Arc::from(conn);
    let handle = Box::new(Pumped(Arc::clone(&conn)));
    (handle, spawn_reader(name, conn_id, conn, sink))
}

/// The one pull-mode reader: forwards `conn`'s frames to `sink`,
/// honouring the sink's inbound backpressure, then reports the close.
fn spawn_reader(
    name: &str,
    conn_id: u64,
    conn: Arc<dyn Connection>,
    sink: Arc<dyn FrameSink>,
) -> JoinHandle<()> {
    spawn(format!("{name}-conn-{conn_id}"), move || {
        while let Ok(frame) = conn.recv() {
            if !sink.on_frame(conn_id, frame) {
                while !sink.ready_for_more() && !conn.is_closed() {
                    std::thread::sleep(RESUME_POLL);
                }
            }
        }
        sink.on_closed(conn_id, true);
    })
}

fn spawn(name: String, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .expect("spawn transport thread")
}

/// The sink's handle on a pumped connection. The reader thread shares
/// the connection, so the handle closes it on drop: a sink that lets go
/// of a connection never leaves its reader blocked in `recv`.
#[derive(Debug)]
struct Pumped(Arc<dyn Connection>);

impl Drop for Pumped {
    fn drop(&mut self) {
        self.0.close();
    }
}

impl Connection for Pumped {
    fn queue_frame(&self, frame: Frame) -> Result<(), TransportError> {
        self.0.queue_frame(frame)
    }
    fn flush(&self, by: FlushBy) {
        self.0.flush(by);
    }
    fn set_send_capacity(&self, cap: usize) {
        self.0.set_send_capacity(cap);
    }
    fn recv_until(&self, deadline: Option<Instant>) -> Result<Bytes, TransportError> {
        self.0.recv_until(deadline)
    }
    fn backlog(&self) -> usize {
        self.0.backlog()
    }
    fn close(&self) {
        self.0.close();
    }
    fn is_closed(&self) -> bool {
        self.0.is_closed()
    }
    fn peer_label(&self) -> String {
        self.0.peer_label()
    }
}
