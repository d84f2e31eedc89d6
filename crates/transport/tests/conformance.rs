//! Transport conformance battery.
//!
//! What a TCP connection promises through the [`Connection`] /
//! [`Listener`] / [`Dialer`] trait objects — ordering, timeouts, close
//! propagation, accept shutdown, exact bounded transmit queues,
//! bounded dials, disconnect trace events — checked on the one TCP
//! implementation from both ends: a [`ReactorListener`]'s accepted
//! connections and the ones [`TcpDialer`] attaches to the shared dial
//! loop. Both send entry points are covered: `send` (frames the body
//! itself) and `send_frame` (pre-framed, the multicast path). Both
//! read modes — push, into a [`FrameSink`], and pull, through `recv` —
//! must treat a corrupt stream alike: every frame before the
//! corruption, nothing after it, an error close.
//!
//! The corked send — `queue_frame`, then one `flush` — is checked on
//! the in-memory pipe as well: order, the exact cap with unflushed
//! frames counted, and queue order under concurrent flushers. (What a
//! flush does when the socket pushes back needs a socket with a 2 KiB
//! buffer: `reactor::tests::short_vectored_writes_keep_order_and_the_exact_cap`.)

use bytes::Bytes;
use corona_transport::reactor::{DISCONNECT_CLEAN, DISCONNECT_ERROR};
use corona_transport::{
    Connection, Dialer, FlushBy, FrameSink, Listener, MemNetwork, ReactorListener, TcpDialer,
    TransportError,
};
use corona_types::frame::{write_frame, Frame, FRAME_HEADER_LEN};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Tracing is process-wide: the tests that switch it on take turns.
static TRACING: Mutex<()> = Mutex::new(());

/// Polls the trace buffer until a disconnect span with `arg` shows up.
fn await_disconnect_span(arg: u64, why: &str) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let spans = corona_trace::drain();
        if spans
            .iter()
            .any(|s| s.hop == corona_trace::Hop::Disconnect && s.arg == arg)
        {
            return;
        }
        assert!(std::time::Instant::now() < deadline, "{why}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The pairing under test, as trait objects. Two shards exercise
/// multi-shard dispatch even for single-connection cases.
fn pairing() -> (Box<dyn Listener>, Box<dyn Dialer>) {
    (
        Box::new(ReactorListener::bind("127.0.0.1:0", 2).unwrap()),
        Box::new(TcpDialer),
    )
}

/// A dialled connection and the bare accepted socket it talks to.
fn dial_raw() -> (Box<dyn Connection>, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let client = TcpDialer
        .dial(&listener.local_addr().unwrap().to_string())
        .unwrap();
    (client, listener.accept().unwrap().0)
}

#[test]
fn roundtrip_echo() {
    let (listener, dialer) = pairing();
    let addr = listener.local_addr();
    let server = std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let frame = conn.recv().unwrap();
        conn.send_frame(Frame::new(Bytes::from([b"echo:", frame.as_ref()].concat())).unwrap())
            .unwrap();
        let _ = conn.recv(); // hold until the client hangs up
    });
    let client = dialer.dial(&addr).unwrap();
    client.send(Bytes::from_static(b"hello")).unwrap();
    assert_eq!(client.recv().unwrap().as_ref(), b"echo:hello");
    client.close();
    server.join().unwrap();
}

#[test]
fn many_frames_preserve_order() {
    let (listener, dialer) = pairing();
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
                client.send_frame(Frame::new(body).unwrap())
            };
            match sent {
                Ok(()) => break,
                Err(TransportError::Full) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => panic!("send failed: {e}"),
            }
        }
    }
    server.join().unwrap();
    client.close();
}

#[test]
fn peer_close_surfaces_as_closed() {
    let (listener, dialer) = pairing();
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
    assert_eq!(client.recv().unwrap().as_ref(), b"parting gift");
    assert_eq!(client.recv().unwrap_err(), TransportError::Closed);
    server.join().unwrap();
}

#[test]
fn recv_timeout_expires() {
    let (listener, dialer) = pairing();
    let addr = listener.local_addr();
    let server = std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let _ = conn.recv(); // idle until the client leaves
    });
    let client = dialer.dial(&addr).unwrap();
    let start = std::time::Instant::now();
    assert_eq!(
        client.recv_timeout(Duration::from_millis(50)).unwrap_err(),
        TransportError::Timeout
    );
    assert!(start.elapsed() >= Duration::from_millis(50));
    client.close();
    server.join().unwrap();
}

#[test]
fn try_recv_is_nonblocking() {
    let (listener, dialer) = pairing();
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
                assert_eq!(frame.as_ref(), b"queued");
                break;
            }
            None => {
                assert!(std::time::Instant::now() < deadline, "never arrived");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    assert_eq!(client.try_recv().unwrap(), None);
    client.close();
    server.join().unwrap();
}

#[test]
fn shutdown_unblocks_accept() {
    let (listener, _dialer) = pairing();
    let listener = Arc::new(listener);
    let l2 = Arc::clone(&listener);
    let accepting = std::thread::spawn(move || l2.accept().err());
    std::thread::sleep(Duration::from_millis(30));
    listener.shutdown();
    assert_eq!(accepting.join().unwrap(), Some(TransportError::Closed));
}

#[test]
fn bounded_send_queue_is_exact() {
    let (listener, dialer) = pairing();
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
    let frame = Frame::new(Bytes::from(vec![7u8; 256 * 1024])).unwrap();
    let mut saw_full = false;
    for _ in 0..64 {
        match client.send_frame(frame.clone()) {
            Ok(()) => {}
            Err(TransportError::Full) => {
                saw_full = true;
                break;
            }
            Err(e) => panic!("unexpected send error: {e}"),
        }
    }
    assert!(saw_full, "queue never reported Full");
    assert_eq!(client.backlog(), 4, "cap must be exact at Full");
    let _ = stop_tx.send(());
    client.close();
    server.join().unwrap();
}

#[test]
fn backlog_drains_toward_zero() {
    let (listener, dialer) = pairing();
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
            "backlog stuck at {}",
            client.backlog()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    server.join().unwrap();
    client.close();
}

#[test]
fn send_after_close_fails() {
    let (listener, dialer) = pairing();
    let addr = listener.local_addr();
    let server = std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let _ = conn.recv();
    });
    let client = dialer.dial(&addr).unwrap();
    client.close();
    assert!(client.is_closed());
    assert_eq!(
        client.send(Bytes::from_static(b"too late")).unwrap_err(),
        TransportError::Closed
    );
    server.join().unwrap();
}

#[test]
fn disconnects_are_recorded_as_trace_events() {
    // Tracing is process-wide and other tests in this binary close
    // connections of their own meanwhile, so each phase asserts the
    // *presence* of its span. What tells the two kinds apart for one
    // connection is `FrameSink::on_closed`'s flag, pinned by the
    // corruption tests below.
    let _tracing = TRACING.lock().unwrap();
    corona_trace::clear();
    corona_trace::set_enabled(true);

    // An accepted connection whose peer hangs up at a frame boundary.
    let (listener, dialer) = pairing();
    let addr = listener.local_addr();
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
    await_disconnect_span(
        DISCONNECT_CLEAN,
        "accepted: no clean-disconnect trace event",
    );
    drop(listener);

    // A dialled connection whose peer hangs up between frames, then
    // one whose stream dies half-way through a frame header.
    for (sent, arg) in [(&[][..], DISCONNECT_CLEAN), (&[9, 0, 0], DISCONNECT_ERROR)] {
        let (client, mut raw) = dial_raw();
        raw.write_all(sent).unwrap();
        drop(raw);
        await_disconnect_span(arg, &format!("dialled: no disconnect span with arg {arg}"));
        assert_eq!(client.recv().unwrap_err(), TransportError::Closed);
    }
    corona_trace::set_enabled(false);
}

#[test]
fn dial_unreachable_fails() {
    // Port 1 on localhost is essentially never listening.
    let err = TcpDialer.dial("127.0.0.1:1").unwrap_err();
    assert!(matches!(err, TransportError::Io(_)));
}

#[test]
fn dial_timeout_connects_and_classifies_failures() {
    let (client, _raw) = dial_raw();
    client.close();

    // A refused connect is terminal (try the next roster address);
    // only Timeout/Full are worth retrying in place.
    let err = TcpDialer
        .dial_timeout("127.0.0.1:1", Duration::from_secs(2))
        .unwrap_err();
    assert!(!err.is_transient(), "refused connect is terminal: {err}");
    assert!(TransportError::Timeout.is_transient());
    assert!(TransportError::Full.is_transient());
    assert!(!TransportError::Closed.is_transient());
}

/// Regression (check-then-act overshoot): comparing the queue length
/// against the cap and then enqueueing lets N racing senders overshoot
/// by up to N−1 frames. Slots are reserved atomically; with the flush
/// path stalled, hammering from four threads must never push the
/// backlog past the cap.
#[test]
fn concurrent_senders_cannot_overshoot_capacity() {
    const CAP: usize = 8;
    // The accepted socket is never read, so the socket buffer fills
    // and the transmit queue stays pinned at the cap (maximising the
    // race window).
    let (client, _unread) = dial_raw();
    client.set_send_capacity(CAP);
    let frame = Frame::new(Bytes::from(vec![0u8; 64 * 1024])).unwrap();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..2000 {
                    let _ = client.send_frame(frame.clone());
                    let backlog = client.backlog();
                    assert!(backlog <= CAP, "backlog {backlog} overshot cap {CAP}");
                }
            });
        }
    });
    client.close();
}

/// A connected pair: the end that sends, the end that receives through
/// `recv`, and the listener that keeps them connected.
struct Link {
    backend: &'static str,
    sender: Box<dyn Connection>,
    receiver: Box<dyn Connection>,
    _listener: Box<dyn Listener>,
}

/// One [`Link`] on each backend.
fn links() -> Vec<Link> {
    let (listener, dialer) = pairing();
    let dialled = dialer.dial(&listener.local_addr()).unwrap();
    let accepted = listener.accept().unwrap();
    let net = MemNetwork::new();
    let mem = net.listen("server").unwrap();
    let mem_dialled = net.dial_from("client", "server").unwrap();
    let mem_accepted = mem.accept().unwrap();
    vec![
        Link {
            backend: "reactor",
            sender: dialled,
            receiver: accepted,
            _listener: listener,
        },
        Link {
            backend: "mem",
            sender: Box::new(mem_dialled),
            receiver: mem_accepted,
            _listener: Box::new(mem),
        },
    ]
}

/// A frame that carries its number.
fn numbered(i: u32) -> Frame {
    Frame::new(Bytes::from(i.to_le_bytes().to_vec())).unwrap()
}

fn number_of(frame: &[u8]) -> u32 {
    u32::from_le_bytes(frame.try_into().unwrap())
}

#[test]
fn queued_frames_leave_with_the_flush_in_order() {
    const ROUND: u32 = 150;
    for Link {
        backend,
        sender,
        receiver,
        ..
    } in links()
    {
        // More than a transport would hold back unasked, and fewer.
        let mut next = 0;
        for (burst, by) in [
            (ROUND, FlushBy::Caller),
            (ROUND, FlushBy::Transport),
            (3, FlushBy::Caller),
        ] {
            for i in next..next + burst {
                sender.queue_frame(numbered(i)).unwrap();
            }
            sender.flush(by);
            for i in next..next + burst {
                let frame = receiver.recv_timeout(Duration::from_secs(10));
                assert_eq!(number_of(&frame.unwrap()), i, "{backend}, flushed {by:?}");
            }
            next += burst;
        }
    }
}

#[test]
fn unflushed_frames_count_towards_the_exact_cap() {
    const CAP: usize = 8;
    for Link {
        backend,
        sender,
        receiver,
        ..
    } in links()
    {
        sender.set_send_capacity(CAP);
        for i in 0..CAP as u32 {
            sender.queue_frame(numbered(i)).unwrap();
            assert_eq!(sender.backlog(), i as usize + 1, "{backend}");
        }
        assert_eq!(
            sender.queue_frame(numbered(99)).unwrap_err(),
            TransportError::Full,
            "{backend}"
        );
        assert_eq!(sender.backlog(), CAP, "{backend}: refused frame counted");
        sender.flush(FlushBy::Caller);
        for i in 0..CAP as u32 {
            let frame = receiver.recv_timeout(Duration::from_secs(10));
            assert_eq!(number_of(&frame.unwrap()), i, "{backend}");
        }
        // Room again, once the frames have left.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while sender.queue_frame(numbered(CAP as u32)).is_err() {
            assert!(
                std::time::Instant::now() < deadline,
                "{backend}: still full"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Two threads number their frames in the order they queue them and
/// each flushes what it queued: whichever thread ends up writing the
/// socket, the frames arrive in queue order.
#[test]
fn concurrent_flushers_keep_queue_order() {
    const EACH: u32 = 2000;
    for Link {
        backend,
        sender,
        receiver,
        ..
    } in links()
    {
        let next = Mutex::new(0u32);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..EACH {
                        let mut next = next.lock().unwrap();
                        while sender.queue_frame(numbered(*next)).is_err() {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        *next += 1;
                        drop(next);
                        sender.flush(FlushBy::Caller);
                    }
                });
            }
            for i in 0..2 * EACH {
                let frame = receiver.recv_timeout(Duration::from_secs(10));
                assert_eq!(number_of(&frame.unwrap()), i, "{backend}");
            }
        });
    }
}

/// What a [`FrameSink`] is told, in the order it is told.
#[derive(Debug, PartialEq)]
enum Told {
    Frame(u64, u32),
    Closed(u64),
}

struct Teller(mpsc::Sender<Told>);

impl FrameSink for Teller {
    fn on_accept(&self, _: u64, _: Box<dyn Connection>) {
        unreachable!("a connection that is attached to was not accepted");
    }
    fn on_frame(&self, conn_id: u64, frame: Bytes) -> bool {
        let _ = self.0.send(Told::Frame(conn_id, number_of(&frame)));
        true
    }
    fn ready_for_more(&self) -> bool {
        true
    }
    fn on_closed(&self, conn_id: u64, _clean: bool) {
        let _ = self.0.send(Told::Closed(conn_id));
    }
}

/// Frames `from..to` as they go over the wire, in one piece.
fn wire(numbers: std::ops::Range<u32>) -> Vec<u8> {
    let mut wire = Vec::new();
    for i in numbers {
        write_frame(&mut wire, &i.to_le_bytes()).unwrap();
    }
    wire
}

#[test]
fn a_dialled_connection_pushes_to_an_attached_sink() {
    const ID: u64 = 77;
    let wait = Duration::from_secs(10);
    let teller = || {
        let (tx, told) = mpsc::channel();
        (Arc::new(Teller(tx)), told)
    };

    // A link that already holds unread frames: they come first.
    let (client, mut raw) = dial_raw();
    raw.write_all(&wire(0..4)).unwrap();
    // Frame 0 read, the rest of that segment is behind it in the queue
    // by the time the shard looks at its mailbox again.
    assert_eq!(number_of(&client.recv_timeout(wait).unwrap()), 0);
    let (sink, told) = teller();
    assert!(client.attach_sink(ID, sink));
    raw.write_all(&wire(4..6)).unwrap();
    for i in 1..6 {
        assert_eq!(told.recv_timeout(wait), Ok(Told::Frame(ID, i)));
    }
    drop(raw);
    assert_eq!(told.recv_timeout(wait), Ok(Told::Closed(ID)));
    // Once: the client's own close adds nothing.
    client.close();
    assert!(told.recv_timeout(Duration::from_millis(100)).is_err());

    // A link the peer has already closed: every frame, then the close.
    let (client, mut raw) = dial_raw();
    raw.write_all(&wire(0..3)).unwrap();
    drop(raw);
    let deadline = std::time::Instant::now() + wait;
    while !client.is_closed() {
        assert!(std::time::Instant::now() < deadline, "close never seen");
        std::thread::sleep(Duration::from_millis(1));
    }
    let (sink, told) = teller();
    assert!(client.attach_sink(ID, sink));
    for i in 0..3 {
        assert_eq!(told.recv_timeout(wait), Ok(Told::Frame(ID, i)));
    }
    assert_eq!(told.recv_timeout(wait), Ok(Told::Closed(ID)));
    drop(client);
    assert!(told.recv_timeout(Duration::from_millis(100)).is_err());

    // The in-memory pipe has no loop to push from, and says so.
    let net = MemNetwork::new();
    let _listener = net.listen("server").unwrap();
    let mem = net.dial_from("client", "server").unwrap();
    assert!(!mem.attach_sink(ID, teller().0));
}

/// A byte stream that opens with one good frame, [`INTACT`], and goes
/// bad after it; `write_size` is how the bytes are cut into writes.
struct CorruptStream {
    what: &'static str,
    wire: Vec<u8>,
    write_size: usize,
}

/// The body a reader must deliver before it gives up on the stream.
const INTACT: &[u8] = b"intact";

fn corrupt_streams() -> Vec<CorruptStream> {
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, body).unwrap();
        wire
    }
    /// `body` framed, with one bit of wire byte `at` flipped.
    fn spoiled(body: &[u8], at: usize) -> Vec<u8> {
        let mut wire = framed(body);
        wire[at] ^= 0x10;
        wire
    }
    const MIB: usize = 1 << 20;
    let whole = usize::MAX;
    let stream = |what, write_size, bad: &[Vec<u8>]| CorruptStream {
        what,
        wire: [framed(INTACT), bad.concat()].concat(),
        write_size,
    };
    vec![
        stream(
            "bit flipped in the body",
            whole,
            &[spoiled(b"a body", FRAME_HEADER_LEN + 2)],
        ),
        stream(
            "bit flipped in the CRC field",
            whole,
            &[spoiled(b"a body", 5)],
        ),
        stream(
            "last byte of a MiB frame that arrives in many segments",
            1460,
            &[spoiled(&vec![0xA5; MIB], FRAME_HEADER_LEN + MIB - 1)],
        ),
        stream(
            "second of three frames that arrive in one read",
            whole,
            &[
                spoiled(b"spoiled", FRAME_HEADER_LEN),
                framed(b"never delivered"),
            ],
        ),
    ]
}

/// Writes the stream as planned, then holds the socket open until the
/// reader hangs up (or a failing test has had time to say why): the
/// reader's close must come from the corruption, not from an end of
/// stream.
fn feed(mut socket: TcpStream, stream: &CorruptStream) {
    socket.set_nodelay(true).unwrap();
    for piece in stream.wire.chunks(stream.write_size.min(stream.wire.len())) {
        socket.write_all(piece).unwrap();
    }
    socket
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    let _ = socket.read(&mut [0u8; 1]);
}

#[test]
fn corrupt_frame_closes_an_accepted_connection_with_an_error() {
    enum Seen {
        Frame(Bytes),
        Closed(bool),
    }
    struct Recorder {
        seen: mpsc::Sender<Seen>,
        held: Mutex<Vec<Box<dyn Connection>>>,
    }
    impl FrameSink for Recorder {
        fn on_accept(&self, _: u64, conn: Box<dyn Connection>) {
            self.held.lock().unwrap().push(conn);
        }
        fn on_frame(&self, _: u64, frame: Bytes) -> bool {
            let _ = self.seen.send(Seen::Frame(frame));
            true
        }
        fn ready_for_more(&self) -> bool {
            true
        }
        fn on_closed(&self, _: u64, clean: bool) {
            let _ = self.seen.send(Seen::Closed(clean));
        }
    }
    let wait = Duration::from_secs(10);
    for stream in corrupt_streams() {
        // The reactor reading in push mode, as under a server.
        let listener = ReactorListener::bind("127.0.0.1:0", 2).unwrap();
        let (seen_tx, seen) = mpsc::channel();
        let recorder = Recorder {
            seen: seen_tx,
            held: Mutex::new(Vec::new()),
        };
        assert!(listener.attach_sink(Arc::new(recorder)));
        let socket = TcpStream::connect(listener.local_addr()).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| feed(socket, &stream));
            match seen.recv_timeout(wait) {
                Ok(Seen::Frame(frame)) => assert_eq!(&frame[..], INTACT, "{}", stream.what),
                _ => panic!("{}: the intact frame was not delivered", stream.what),
            }
            match seen.recv_timeout(wait) {
                Ok(Seen::Closed(clean)) => assert!(!clean, "{}: clean close", stream.what),
                Ok(Seen::Frame(_)) => panic!("{}: delivered a corrupt frame", stream.what),
                Err(_) => panic!("{}: connection left open", stream.what),
            }
        });
    }
}

#[test]
fn corrupt_frame_closes_a_dialled_connection_with_an_error() {
    let _tracing = TRACING.lock().unwrap();
    let wait = Duration::from_secs(10);
    for stream in corrupt_streams() {
        // The reactor reading in pull mode, as under a client.
        let why = stream.what;
        corona_trace::clear();
        corona_trace::set_enabled(true);
        let (conn, raw) = dial_raw();
        std::thread::scope(|s| {
            s.spawn(|| feed(raw, &stream));
            assert_eq!(&conn.recv_timeout(wait).unwrap()[..], INTACT, "{why}");
            assert_eq!(
                conn.recv_timeout(wait).unwrap_err(),
                TransportError::Closed,
                "{why}"
            );
            await_disconnect_span(DISCONNECT_ERROR, &format!("{why}: no error close"));
        });
        corona_trace::set_enabled(false);
    }
}
