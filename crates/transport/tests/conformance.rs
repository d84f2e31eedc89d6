//! Transport conformance battery.
//!
//! Both TCP connection kinds — the blocking, thread-per-connection
//! one [`TcpDialer`] mints and the sharded reactor's
//! ([`ReactorListener`] / [`ReactorDialer`]) — must present identical
//! semantics through the [`Connection`] / [`Listener`] / [`Dialer`]
//! trait objects: ordering, timeouts, close propagation, accept
//! shutdown, exact bounded transmit queues, and disconnect trace
//! events. The same checks run against every (listener, dialer)
//! pairing — the wire format is shared, so a threaded dialler must
//! interoperate with the reactor. Both send entry points are covered:
//! `send` (frames the body itself) and `send_frame` (pre-framed, the
//! multicast path).

use bytes::Bytes;
use corona_transport::{
    Dialer, Listener, ReactorDialer, ReactorListener, TcpDialer, TransportError,
};
use corona_types::frame::Frame;
use std::sync::Arc;
use std::time::Duration;

/// One (name, listener, dialer) combination under test.
type Pairing = (&'static str, Box<dyn Listener>, Box<dyn Dialer>);

/// The transport pairings under test. `reactor_shards > 0` exercises
/// multi-shard dispatch even for single-connection cases.
fn pairings() -> Vec<Pairing> {
    vec![
        (
            "reactor/threaded",
            Box::new(ReactorListener::bind("127.0.0.1:0", 2).unwrap()) as Box<dyn Listener>,
            Box::new(TcpDialer) as Box<dyn Dialer>,
        ),
        (
            "reactor/reactor",
            Box::new(ReactorListener::bind("127.0.0.1:0", 2).unwrap()),
            Box::new(ReactorDialer::new().unwrap()),
        ),
    ]
}

#[test]
fn roundtrip_echo() {
    for (name, listener, dialer) in pairings() {
        let addr = listener.local_addr();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            let frame = conn.recv().unwrap();
            conn.send_frame(Frame::new(Bytes::from([b"echo:", frame.as_ref()].concat())))
                .unwrap();
            let _ = conn.recv(); // hold until the client hangs up
        });
        let client = dialer.dial(&addr).unwrap();
        client.send(Bytes::from_static(b"hello")).unwrap();
        assert_eq!(client.recv().unwrap().as_ref(), b"echo:hello", "{name}");
        client.close();
        server.join().unwrap();
    }
}

#[test]
fn many_frames_preserve_order() {
    for (name, listener, dialer) in pairings() {
        let addr = listener.local_addr();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            for i in 0..500u32 {
                let frame = conn.recv().unwrap();
                assert_eq!(
                    u32::from_le_bytes(frame[..4].try_into().unwrap()),
                    i,
                    "frame order"
                );
            }
        });
        let client = dialer.dial(&addr).unwrap();
        for i in 0..500u32 {
            // Vary sizes so frames straddle read-chunk boundaries.
            let mut body = vec![0u8; 4 + (i as usize * 37) % 4096];
            body[..4].copy_from_slice(&i.to_le_bytes());
            loop {
                // Alternate the two entry points: they share one
                // queue, so order must hold across them.
                let body = Bytes::from(body.clone());
                let sent = if i % 2 == 0 {
                    client.send(body)
                } else {
                    client.send_frame(Frame::new(body))
                };
                match sent {
                    Ok(()) => break,
                    Err(TransportError::Full) => std::thread::sleep(Duration::from_millis(1)),
                    Err(e) => panic!("{name}: send failed: {e}"),
                }
            }
        }
        server.join().unwrap();
        client.close();
    }
}

#[test]
fn peer_close_surfaces_as_closed() {
    for (name, listener, dialer) in pairings() {
        let addr = listener.local_addr();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            conn.send(Bytes::from_static(b"parting gift")).unwrap();
            // Wait for the frame to actually leave before closing.
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while conn.backlog() > 0 && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            conn.close();
        });
        let client = dialer.dial(&addr).unwrap();
        // The pending frame must stay readable, then Closed.
        assert_eq!(client.recv().unwrap().as_ref(), b"parting gift", "{name}");
        assert_eq!(client.recv().unwrap_err(), TransportError::Closed, "{name}");
        server.join().unwrap();
    }
}

#[test]
fn recv_timeout_expires() {
    for (name, listener, dialer) in pairings() {
        let addr = listener.local_addr();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            let _ = conn.recv(); // idle until the client leaves
        });
        let client = dialer.dial(&addr).unwrap();
        let start = std::time::Instant::now();
        assert_eq!(
            client.recv_timeout(Duration::from_millis(50)).unwrap_err(),
            TransportError::Timeout,
            "{name}"
        );
        assert!(start.elapsed() >= Duration::from_millis(50), "{name}");
        client.close();
        server.join().unwrap();
    }
}

#[test]
fn try_recv_is_nonblocking() {
    for (name, listener, dialer) in pairings() {
        let addr = listener.local_addr();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            conn.send(Bytes::from_static(b"queued")).unwrap();
            let _ = conn.recv();
        });
        let client = dialer.dial(&addr).unwrap();
        // Eventually the queued frame arrives; until then None.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match client.try_recv().unwrap() {
                Some(frame) => {
                    assert_eq!(frame.as_ref(), b"queued", "{name}");
                    break;
                }
                None => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "{name}: never arrived"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        assert_eq!(client.try_recv().unwrap(), None, "{name}");
        client.close();
        server.join().unwrap();
    }
}

#[test]
fn shutdown_unblocks_accept() {
    for (name, listener, _dialer) in pairings() {
        let listener = Arc::new(listener);
        let l2 = Arc::clone(&listener);
        let accepting = std::thread::spawn(move || l2.accept().err());
        std::thread::sleep(Duration::from_millis(30));
        listener.shutdown();
        assert_eq!(
            accepting.join().unwrap(),
            Some(TransportError::Closed),
            "{name}"
        );
    }
}

#[test]
fn bounded_send_queue_is_exact() {
    for (name, listener, dialer) in pairings() {
        let addr = listener.local_addr();
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            // Accept but never read: the client's flush path stalls.
            let conn = listener.accept().unwrap();
            let _ = stop_rx.recv();
            drop(conn);
        });
        let client = dialer.dial(&addr).unwrap();
        client.set_send_capacity(4);
        // Framed once, cloned per send — the multicast shape. (It also
        // keeps the sender faster than any flush path, so the cap is
        // what stops it.)
        let frame = Frame::new(Bytes::from(vec![7u8; 256 * 1024]));
        let mut saw_full = false;
        for _ in 0..64 {
            match client.send_frame(frame.clone()) {
                Ok(()) => {}
                Err(TransportError::Full) => {
                    saw_full = true;
                    break;
                }
                Err(e) => panic!("{name}: unexpected send error: {e}"),
            }
        }
        assert!(saw_full, "{name}: queue never reported Full");
        assert_eq!(client.backlog(), 4, "{name}: cap must be exact at Full");
        let _ = stop_tx.send(());
        client.close();
        server.join().unwrap();
    }
}

#[test]
fn backlog_drains_toward_zero() {
    for (name, listener, dialer) in pairings() {
        let addr = listener.local_addr();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            for _ in 0..32 {
                let _ = conn.recv();
            }
        });
        let client = dialer.dial(&addr).unwrap();
        for _ in 0..32 {
            client.send(Bytes::from(vec![1u8; 1024])).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while client.backlog() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "{name}: backlog stuck at {}",
                client.backlog()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        server.join().unwrap();
        client.close();
    }
}

#[test]
fn send_after_close_fails() {
    for (name, listener, dialer) in pairings() {
        let addr = listener.local_addr();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            let _ = conn.recv();
        });
        let client = dialer.dial(&addr).unwrap();
        client.close();
        assert!(client.is_closed(), "{name}");
        assert_eq!(
            client.send(Bytes::from_static(b"too late")).unwrap_err(),
            TransportError::Closed,
            "{name}"
        );
        server.join().unwrap();
    }
}

#[test]
fn disconnects_are_recorded_as_trace_events() {
    use corona_transport::tcp::DISCONNECT_CLEAN;
    // Other tests in this binary run concurrently and may record
    // their own disconnect spans while tracing is enabled, so this
    // asserts only the *presence* of the clean-disconnect span; the
    // clean-vs-error distinction is pinned down by the transport unit
    // tests, which own the process.
    for (name, listener, dialer) in pairings() {
        let addr = listener.local_addr();

        // Clean close: the dial side hangs up at a frame boundary.
        corona_trace::clear();
        corona_trace::set_enabled(true);
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            // recv until Closed so the server observes the hang-up.
            while conn.recv().is_ok() {}
            listener
        });
        let client = dialer.dial(&addr).unwrap();
        client.send(Bytes::from_static(b"bye")).unwrap();
        // Drain before closing so the close lands at a frame boundary.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while client.backlog() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        client.close();
        let listener = server.join().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let spans = corona_trace::drain();
            if spans
                .iter()
                .any(|s| s.hop == corona_trace::Hop::Disconnect && s.arg == DISCONNECT_CLEAN)
            {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{name}: no clean-disconnect trace event"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        corona_trace::set_enabled(false);
        drop(listener);
    }
}
