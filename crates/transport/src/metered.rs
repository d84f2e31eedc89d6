//! Byte/frame accounting for any [`Connection`].
//!
//! [`MeteredConnection`] wraps a connection and records traffic twice:
//! into shared per-direction aggregates ([`TransportMetrics`], usually
//! minted from a server's metric [`Registry`]) and into local
//! per-connection atomics readable via [`MeteredConnection::traffic`].
//! The wrapper is transparent — it implements [`Connection`] and can
//! be boxed wherever the bare connection went.

use crate::traits::{Connection, TransportError};
use bytes::Bytes;
use corona_metrics::{Counter, Histogram, Registry};
use corona_types::frame::Frame;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Shared transport-level aggregates, one set per registry.
///
/// Metric names: `transport.frames_in`, `transport.frames_out`,
/// `transport.bytes_in`, `transport.bytes_out` (counters) and
/// `transport.frame_in_bytes` / `transport.frame_out_bytes` (size
/// histograms).
#[derive(Debug, Clone)]
pub struct TransportMetrics {
    frames_in: Arc<Counter>,
    frames_out: Arc<Counter>,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    frame_in_bytes: Arc<Histogram>,
    frame_out_bytes: Arc<Histogram>,
}

impl TransportMetrics {
    /// Resolves the transport metric set from `registry`.
    pub fn new(registry: &Registry) -> Self {
        TransportMetrics {
            frames_in: registry.counter("transport.frames_in"),
            frames_out: registry.counter("transport.frames_out"),
            bytes_in: registry.counter("transport.bytes_in"),
            bytes_out: registry.counter("transport.bytes_out"),
            frame_in_bytes: registry.histogram("transport.frame_in_bytes"),
            frame_out_bytes: registry.histogram("transport.frame_out_bytes"),
        }
    }

    /// Accounts one inbound frame of `bytes` payload bytes delivered
    /// *outside* a [`MeteredConnection`] — push-mode transports hand
    /// frames straight to a [`FrameSink`](crate::traits::FrameSink),
    /// bypassing the wrapper's `recv` instrumentation.
    pub fn record_frame_in(&self, bytes: usize) {
        self.frames_in.inc();
        self.bytes_in.add(bytes as u64);
        self.frame_in_bytes.record(bytes as u64);
    }
}

/// Per-connection traffic totals (frames and payload bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConnTraffic {
    /// Frames received on this connection.
    pub frames_in: u64,
    /// Frames sent on this connection.
    pub frames_out: u64,
    /// Payload bytes received.
    pub bytes_in: u64,
    /// Payload bytes sent.
    pub bytes_out: u64,
}

/// A [`Connection`] decorator that meters traffic in both directions.
#[derive(Debug)]
pub struct MeteredConnection {
    inner: Box<dyn Connection>,
    shared: TransportMetrics,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

impl MeteredConnection {
    /// Wraps `inner`, recording into `shared` aggregates.
    pub fn new(inner: Box<dyn Connection>, shared: TransportMetrics) -> Self {
        MeteredConnection {
            inner,
            shared,
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
        }
    }

    /// This connection's traffic so far.
    pub fn traffic(&self) -> ConnTraffic {
        ConnTraffic {
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }

    fn note_in(&self, frame: &Bytes) {
        let n = frame.len() as u64;
        self.frames_in.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
        self.shared.frames_in.inc();
        self.shared.bytes_in.add(n);
        self.shared.frame_in_bytes.record(n);
    }
}

impl Connection for MeteredConnection {
    fn send_frame(&self, frame: Frame) -> Result<(), TransportError> {
        let n = frame.body().len() as u64;
        self.inner.send_frame(frame)?;
        self.frames_out.fetch_add(1, Ordering::Relaxed);
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
        self.shared.frames_out.inc();
        self.shared.bytes_out.add(n);
        self.shared.frame_out_bytes.record(n);
        Ok(())
    }

    fn recv(&self) -> Result<Bytes, TransportError> {
        let frame = self.inner.recv()?;
        self.note_in(&frame);
        Ok(frame)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Bytes, TransportError> {
        let frame = self.inner.recv_timeout(timeout)?;
        self.note_in(&frame);
        Ok(frame)
    }

    fn try_recv(&self) -> Result<Option<Bytes>, TransportError> {
        let frame = self.inner.try_recv()?;
        if let Some(f) = &frame {
            self.note_in(f);
        }
        Ok(frame)
    }

    fn set_send_capacity(&self, cap: usize) {
        self.inner.set_send_capacity(cap);
    }

    fn backlog(&self) -> usize {
        self.inner.backlog()
    }

    fn close(&self) {
        self.inner.close();
    }

    fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }

    fn peer_label(&self) -> String {
        self.inner.peer_label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemNetwork;
    use crate::traits::Listener;

    #[test]
    fn meter_counts_both_directions() {
        let registry = Registry::new();
        let metrics = TransportMetrics::new(&registry);
        let net = MemNetwork::new();
        let listener = net.listen("s").unwrap();
        let client = net.dial_from("c", "s").unwrap();
        let server_side = MeteredConnection::new(listener.accept().unwrap(), metrics.clone());

        client.send(Bytes::from_static(b"ping!")).unwrap();
        assert_eq!(server_side.recv().unwrap().as_ref(), b"ping!");
        server_side.send(Bytes::from_static(b"pong")).unwrap();
        assert_eq!(client.recv().unwrap().as_ref(), b"pong");

        let t = server_side.traffic();
        assert_eq!(t.frames_in, 1);
        assert_eq!(t.frames_out, 1);
        assert_eq!(t.bytes_in, 5);
        assert_eq!(t.bytes_out, 4);

        let snap = registry.snapshot();
        assert_eq!(snap.counter("transport.frames_in"), 1);
        assert_eq!(snap.counter("transport.bytes_out"), 4);
        assert_eq!(snap.histogram("transport.frame_in_bytes").unwrap().max, 5);
    }

    #[test]
    fn failed_send_is_not_counted() {
        let registry = Registry::new();
        let metrics = TransportMetrics::new(&registry);
        let net = MemNetwork::new();
        let listener = net.listen("s").unwrap();
        let client = net.dial_from("c", "s").unwrap();
        let metered = MeteredConnection::new(listener.accept().unwrap(), metrics);

        metered.close();
        assert!(metered.send(Bytes::from_static(b"lost")).is_err());
        drop(client);

        assert_eq!(metered.traffic(), ConnTraffic::default());
        assert_eq!(registry.snapshot().counter("transport.frames_out"), 0);
    }

    #[test]
    fn full_send_is_not_counted_and_capacity_forwards() {
        let registry = Registry::new();
        let metrics = TransportMetrics::new(&registry);
        let net = MemNetwork::new();
        let listener = net.listen("s").unwrap();
        let _client = net.dial_from("c", "s").unwrap();
        let metered = MeteredConnection::new(listener.accept().unwrap(), metrics);

        metered.set_send_capacity(2);
        metered.send(Bytes::from_static(b"a")).unwrap();
        metered.send(Bytes::from_static(b"b")).unwrap();
        assert_eq!(
            metered.send(Bytes::from_static(b"c")).unwrap_err(),
            TransportError::Full
        );
        assert_eq!(metered.traffic().frames_out, 2);
        assert_eq!(registry.snapshot().counter("transport.frames_out"), 2);
        assert_eq!(metered.backlog(), 2);
    }

    #[test]
    fn timeout_and_polling_receives_are_counted_once() {
        let registry = Registry::new();
        let metrics = TransportMetrics::new(&registry);
        let net = MemNetwork::new();
        let listener = net.listen("s").unwrap();
        let client = net.dial_from("c", "s").unwrap();
        let metered = MeteredConnection::new(listener.accept().unwrap(), metrics);

        // An empty poll and an expired timeout must not count.
        assert!(metered.try_recv().unwrap().is_none());
        assert!(metered.recv_timeout(Duration::from_millis(5)).is_err());
        assert_eq!(metered.traffic().frames_in, 0);

        client.send(Bytes::from_static(b"abc")).unwrap();
        client.send(Bytes::from_static(b"de")).unwrap();
        assert_eq!(
            metered
                .recv_timeout(Duration::from_secs(1))
                .unwrap()
                .as_ref(),
            b"abc"
        );
        assert_eq!(metered.try_recv().unwrap().unwrap().as_ref(), b"de");

        let t = metered.traffic();
        assert_eq!((t.frames_in, t.bytes_in), (2, 5));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("transport.frames_in"), 2);
        assert_eq!(snap.counter("transport.bytes_in"), 5);
    }

    #[test]
    fn aggregates_sum_across_connections() {
        let registry = Registry::new();
        let metrics = TransportMetrics::new(&registry);
        let net = MemNetwork::new();
        let listener = net.listen("s").unwrap();
        let mut metered = Vec::new();
        for node in ["a", "b", "c"] {
            let dial = net.dial_from(node, "s").unwrap();
            let accept = MeteredConnection::new(listener.accept().unwrap(), metrics.clone());
            dial.send(Bytes::from_static(b"xx")).unwrap();
            accept.recv().unwrap();
            metered.push(accept);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("transport.frames_in"), 3);
        assert_eq!(snap.counter("transport.bytes_in"), 6);
        assert!(metered.iter().all(|m| m.traffic().frames_in == 1));
    }
}
