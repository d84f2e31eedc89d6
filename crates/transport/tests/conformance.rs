//! Transport conformance battery.
//!
//! What a TCP connection promises through the [`Connection`] /
//! [`Listener`] / [`Dialer`] trait objects — ordering, close
//! propagation, exact bounded transmit queues, bounded dials,
//! disconnect trace events — checked on the one TCP implementation from
//! both ends: a [`ReactorListener`]'s accepted connections and the ones
//! [`TcpDialer`] attaches to the shared dial loop. Both send entry
//! points are covered: `send` (frames the body itself) and `send_frame`
//! (pre-framed, the multicast path), and the corked send — `queue_frame`,
//! then one `flush`. Everything that arrives is pushed into a
//! [`FrameSink`]; an accepted connection and a dialled one must treat a
//! corrupt stream alike: every frame before the corruption, nothing
//! after it, an error close. (What a flush does when the socket pushes
//! back needs a socket with a 2 KiB buffer:
//! `reactor::tests::short_vectored_writes_keep_order_and_the_exact_cap`.)

use bytes::Bytes;
use corona_transport::reactor::{DISCONNECT_CLEAN, DISCONNECT_ERROR};
use corona_transport::{
    Connection, Dialer, FlushBy, FrameSink, Listener, ReactorListener, TcpDialer, TransportError,
};
use corona_types::frame::{write_frame, Frame, FRAME_HEADER_LEN};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(10);

/// Tracing is process-wide: the tests that switch it on take turns.
static TRACING: Mutex<()> = Mutex::new(());

/// Polls the trace buffer until a disconnect span with `arg` shows up.
fn await_disconnect_span(arg: u64, why: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let spans = corona_trace::drain();
        if spans
            .iter()
            .any(|s| s.hop == corona_trace::Hop::Disconnect && s.arg == arg)
        {
            return;
        }
        assert!(Instant::now() < deadline, "{why}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// What a sink is told about one connection, in the order it is told.
#[derive(Debug, PartialEq)]
enum Told {
    Frame(Bytes),
    Closed { clean: bool },
}

/// Reports each connection's frames and close to that connection's own
/// channel, and hands every accepted connection over with its channel.
#[derive(Default)]
struct Tell {
    accepted: Mutex<Option<Sender<End>>>,
    ends: Mutex<HashMap<u64, Sender<Told>>>,
}

impl Tell {
    fn open(&self, conn_id: u64) -> Receiver<Told> {
        let (tx, rx) = mpsc::channel();
        self.ends.lock().unwrap().insert(conn_id, tx);
        rx
    }

    fn tell(&self, conn_id: u64, told: Told) {
        if let Some(end) = self.ends.lock().unwrap().get(&conn_id) {
            let _ = end.send(told);
        }
    }
}

impl FrameSink for Tell {
    fn on_accept(&self, conn_id: u64, conn: Box<dyn Connection>) {
        let told = self.open(conn_id);
        if let Some(accepted) = self.accepted.lock().unwrap().as_ref() {
            let _ = accepted.send(End { conn, told });
        }
    }
    fn on_frame(&self, conn_id: u64, frame: Bytes) -> bool {
        self.tell(conn_id, Told::Frame(frame));
        true
    }
    fn ready_for_more(&self) -> bool {
        true
    }
    fn on_closed(&self, conn_id: u64, clean: bool) {
        self.tell(conn_id, Told::Closed { clean });
    }
}

/// One end of a connection, and what its sink is told.
struct End {
    conn: Box<dyn Connection>,
    told: Receiver<Told>,
}

impl std::ops::Deref for End {
    type Target = dyn Connection;
    fn deref(&self) -> &Self::Target {
        self.conn.as_ref()
    }
}

impl End {
    /// Attaches a dialled connection to a sink of its own, as `conn_id`.
    fn attached(conn: Box<dyn Connection>, conn_id: u64) -> End {
        let sink = Arc::new(Tell::default());
        let told = sink.open(conn_id);
        conn.attach_sink(conn_id, sink);
        End { conn, told }
    }

    fn next(&self) -> Told {
        self.told
            .recv_timeout(WAIT)
            .expect("the sink was told nothing")
    }

    /// The next frame's body; panics at a close.
    fn frame(&self) -> Bytes {
        match self.next() {
            Told::Frame(frame) => frame,
            closed => panic!("expected a frame, got {closed:?}"),
        }
    }

    fn assert_closed(&self) {
        match self.next() {
            Told::Closed { .. } => {}
            frame => panic!("expected the close, got {frame:?}"),
        }
    }
}

/// A listener serving a [`Tell`] and the connections it accepts. Two
/// shards exercise multi-shard dispatch even for single-connection
/// cases.
fn listen() -> (ReactorListener, Receiver<End>) {
    let listener = ReactorListener::bind("127.0.0.1:0", 2).unwrap();
    let (tx, accepted) = mpsc::channel();
    let sink = Tell {
        accepted: Mutex::new(Some(tx)),
        ..Tell::default()
    };
    assert!(listener.attach_sink(Arc::new(sink)));
    (listener, accepted)
}

/// A dialled, attached connection and the accepted end it talks to.
fn link() -> (End, End, ReactorListener) {
    let (listener, accepted) = listen();
    let dialled = End::attached(TcpDialer.dial(&listener.local_addr()).unwrap(), 1);
    let accepted = accepted.recv_timeout(WAIT).unwrap();
    (dialled, accepted, listener)
}

/// A dialled connection, not yet attached, and the bare accepted
/// socket it talks to.
fn dial_raw() -> (Box<dyn Connection>, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let client = TcpDialer
        .dial(&listener.local_addr().unwrap().to_string())
        .unwrap();
    (client, listener.accept().unwrap().0)
}

/// A frame that carries its number.
fn numbered(i: u32) -> Frame {
    Frame::new(Bytes::from(i.to_le_bytes().to_vec())).unwrap()
}

fn number_of(frame: &[u8]) -> u32 {
    u32::from_le_bytes(frame[..4].try_into().unwrap())
}

#[test]
fn roundtrip_echo() {
    let (client, server, _listener) = link();
    client.send(Bytes::from_static(b"hello")).unwrap();
    let frame = server.frame();
    server
        .send_frame(Frame::new(Bytes::from([b"echo:", frame.as_ref()].concat())).unwrap())
        .unwrap();
    assert_eq!(client.frame().as_ref(), b"echo:hello");
    client.close();
    server.assert_closed();
}

#[test]
fn many_frames_preserve_order() {
    let (client, server, _listener) = link();
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
    for i in 0..500u32 {
        assert_eq!(number_of(&server.frame()), i, "frame order");
    }
}

#[test]
fn peer_close_surfaces_as_closed() {
    let (client, server, _listener) = link();
    server.send(Bytes::from_static(b"parting gift")).unwrap();
    // Wait for the frame to actually leave before closing.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.backlog() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    server.close();
    // The frame sent first is delivered, then the close.
    assert_eq!(client.frame().as_ref(), b"parting gift");
    assert_eq!(client.next(), Told::Closed { clean: true });
    assert!(client.is_closed());
}

#[test]
fn bounded_send_queue_is_exact() {
    // The accepted socket is never read: the client's flush path stalls.
    let (client, _unread) = dial_raw();
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
    client.close();
}

#[test]
fn backlog_drains_toward_zero() {
    let (client, server, _listener) = link();
    for _ in 0..32 {
        client.send(Bytes::from(vec![1u8; 1024])).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while client.backlog() > 0 {
        assert!(
            Instant::now() < deadline,
            "backlog stuck at {}",
            client.backlog()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    for _ in 0..32 {
        server.frame();
    }
}

#[test]
fn send_after_close_fails() {
    let (client, server, _listener) = link();
    client.close();
    assert!(client.is_closed());
    assert_eq!(
        client.send(Bytes::from_static(b"too late")).unwrap_err(),
        TransportError::Closed
    );
    // Its sink hears of the close once.
    client.assert_closed();
    server.assert_closed();
    assert!(client
        .told
        .recv_timeout(Duration::from_millis(100))
        .is_err());
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
    let (client, server, listener) = link();
    client.send(Bytes::from_static(b"bye")).unwrap();
    assert_eq!(server.frame().as_ref(), b"bye");
    client.close();
    assert_eq!(server.next(), Told::Closed { clean: true });
    await_disconnect_span(
        DISCONNECT_CLEAN,
        "accepted: no clean-disconnect trace event",
    );
    drop(listener);

    // A dialled connection whose peer hangs up between frames, then
    // one whose stream dies half-way through a frame header.
    for (sent, arg, clean) in [
        (&[][..], DISCONNECT_CLEAN, true),
        (&[9, 0, 0], DISCONNECT_ERROR, false),
    ] {
        let (client, mut raw) = dial_raw();
        let client = End::attached(client, 1);
        raw.write_all(sent).unwrap();
        drop(raw);
        await_disconnect_span(arg, &format!("dialled: no disconnect span with arg {arg}"));
        assert_eq!(client.next(), Told::Closed { clean });
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

#[test]
fn queued_frames_leave_with_the_flush_in_order() {
    const ROUND: u32 = 150;
    let (sender, receiver, _listener) = link();
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
            assert_eq!(number_of(&receiver.frame()), i, "flushed {by:?}");
        }
        next += burst;
    }
}

#[test]
fn unflushed_frames_count_towards_the_exact_cap() {
    const CAP: usize = 8;
    let (sender, receiver, _listener) = link();
    sender.set_send_capacity(CAP);
    for i in 0..CAP as u32 {
        sender.queue_frame(numbered(i)).unwrap();
        assert_eq!(sender.backlog(), i as usize + 1);
    }
    assert_eq!(
        sender.queue_frame(numbered(99)).unwrap_err(),
        TransportError::Full
    );
    assert_eq!(sender.backlog(), CAP, "refused frame counted");
    sender.flush(FlushBy::Caller);
    for i in 0..CAP as u32 {
        assert_eq!(number_of(&receiver.frame()), i);
    }
    // Room again, once the frames have left.
    let deadline = Instant::now() + WAIT;
    while sender.queue_frame(numbered(CAP as u32)).is_err() {
        assert!(Instant::now() < deadline, "still full");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Two threads number their frames in the order they queue them and
/// each flushes what it queued: whichever thread ends up writing the
/// socket, the frames arrive in queue order.
#[test]
fn concurrent_flushers_keep_queue_order() {
    const EACH: u32 = 2000;
    let (sender, receiver, _listener) = link();
    let sender: &dyn Connection = &*sender;
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
            assert_eq!(number_of(&receiver.frame()), i);
        }
    });
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
fn a_dialled_connection_reads_nothing_until_its_sink_is_attached() {
    const ID: u64 = 77;

    // What the peer sends first waits in the socket and comes first.
    let (client, mut raw) = dial_raw();
    raw.write_all(&wire(0..4)).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let client = End::attached(client, ID);
    raw.write_all(&wire(4..6)).unwrap();
    for i in 0..6 {
        assert_eq!(number_of(&client.frame()), i);
    }
    drop(raw);
    assert_eq!(client.next(), Told::Closed { clean: true });
    // Once: the client's own close, and a second attach, add nothing.
    client.close();
    client.attach_sink(ID, Arc::new(Tell::default()));
    assert!(client
        .told
        .recv_timeout(Duration::from_millis(100))
        .is_err());

    // A link the peer has already closed: every frame, then the close.
    let (client, mut raw) = dial_raw();
    raw.write_all(&wire(0..3)).unwrap();
    drop(raw);
    std::thread::sleep(Duration::from_millis(50));
    assert!(!client.is_closed(), "nobody has read the socket yet");
    let client = End::attached(client, ID);
    for i in 0..3 {
        assert_eq!(number_of(&client.frame()), i);
    }
    assert_eq!(client.next(), Told::Closed { clean: true });
    drop(client);

    // A link closed locally before its sink is attached: the sink
    // hears of the close, and of nothing else.
    let (client, mut raw) = dial_raw();
    raw.write_all(&wire(0..2)).unwrap();
    client.close();
    let client = End::attached(client, ID);
    client.assert_closed();
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

/// The intact frame, then an error close — never a corrupt frame.
fn assert_rejects(end: &End, what: &str) {
    match end.next() {
        Told::Frame(frame) => assert_eq!(&frame[..], INTACT, "{what}"),
        closed => panic!("{what}: the intact frame was not delivered: {closed:?}"),
    }
    match end.next() {
        Told::Closed { clean } => assert!(!clean, "{what}: clean close"),
        Told::Frame(_) => panic!("{what}: delivered a corrupt frame"),
    }
}

#[test]
fn corrupt_frame_closes_an_accepted_connection_with_an_error() {
    for stream in corrupt_streams() {
        let (listener, accepted) = listen();
        let socket = TcpStream::connect(listener.local_addr()).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| feed(socket, &stream));
            assert_rejects(&accepted.recv_timeout(WAIT).unwrap(), stream.what);
        });
    }
}

#[test]
fn corrupt_frame_closes_a_dialled_connection_with_an_error() {
    let _tracing = TRACING.lock().unwrap();
    for stream in corrupt_streams() {
        let why = stream.what;
        corona_trace::clear();
        corona_trace::set_enabled(true);
        let (conn, raw) = dial_raw();
        let conn = End::attached(conn, 1);
        std::thread::scope(|s| {
            s.spawn(|| feed(raw, &stream));
            assert_rejects(&conn, why);
            await_disconnect_span(DISCONNECT_ERROR, &format!("{why}: no error close"));
        });
        corona_trace::set_enabled(false);
    }
}
