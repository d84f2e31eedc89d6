//! Offline shim of the tiny slice of [mio](https://docs.rs/mio) that
//! Corona's reactor transport uses: a readiness poller ([`Poll`] /
//! [`Events`] / [`Token`] / [`Interest`]) plus a cross-thread [`Waker`].
//!
//! The build environment has no crates.io access, so — like the other
//! `shims/` crates — this implements exactly the API surface the repo
//! exercises, nothing more. The backend is Linux `epoll(7)` reached
//! through `extern "C"` declarations against the libc that `std`
//! already links; the waker is an `eventfd(2)`. Registration is by raw
//! file descriptor (mio's `SourceFd` style) because every source the
//! reactor registers is an `std::net` socket or the waker's eventfd.
//!
//! Sockets are level-triggered (the reactor re-arms interest
//! explicitly), which keeps the shim small and the reactor's state
//! machine easy to reason about; only the waker's eventfd is
//! edge-triggered, as in the real mio, so a wake-up costs its poller no
//! `read(2)` to clear.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

#[cfg(not(target_os = "linux"))]
compile_error!("the mio shim only implements the Linux epoll backend");

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

// ---------------------------------------------------------------------
// Raw epoll / eventfd bindings (glibc is linked by std already).
// ---------------------------------------------------------------------

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// The kernel's `struct epoll_event`. On x86-64 glibc declares it
/// packed (`__EPOLL_PACKED`); on other architectures it is naturally
/// aligned.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

/// Associates a readiness event with the source it was registered for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub usize);

/// Readiness interest: readable, writable, or both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u32);

impl Interest {
    /// Interest in read readiness (includes peer hang-up).
    pub const READABLE: Interest = Interest(EPOLLIN | EPOLLRDHUP);
    /// Interest in write readiness.
    pub const WRITABLE: Interest = Interest(EPOLLOUT);

    /// Combines two interests (named after the real mio's
    /// `Interest::add`, which is likewise not `std::ops::Add`).
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// Whether this interest includes read readiness.
    pub fn is_readable(self) -> bool {
        self.0 & EPOLLIN != 0
    }

    /// Whether this interest includes write readiness.
    pub fn is_writable(self) -> bool {
        self.0 & EPOLLOUT != 0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        self.add(rhs)
    }
}

/// One readiness event delivered by [`Poll::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    token: Token,
    events: u32,
}

impl Event {
    /// The token the source was registered with.
    pub fn token(&self) -> Token {
        self.token
    }

    /// Read readiness (data, or a hang-up that a read will observe).
    pub fn is_readable(&self) -> bool {
        self.events & (EPOLLIN | EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0
    }

    /// Write readiness (or an error a write will observe).
    pub fn is_writable(&self) -> bool {
        self.events & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0
    }

    /// The peer closed its end (or the socket errored); a read will
    /// reach EOF / the error.
    pub fn is_closed(&self) -> bool {
        self.events & (EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0
    }
}

/// A buffer of readiness events, reused across [`Poll::poll`] calls.
#[derive(Debug)]
pub struct Events {
    buf: Vec<EpollEvent>,
    len: usize,
}

impl std::fmt::Debug for EpollEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let events = self.events;
        let data = self.data;
        f.debug_struct("EpollEvent")
            .field("events", &events)
            .field("data", &data)
            .finish()
    }
}

impl Events {
    /// Allocates a buffer holding up to `capacity` events per poll.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            buf: vec![EpollEvent { events: 0, data: 0 }; capacity.max(1)],
            len: 0,
        }
    }

    /// Iterates the events of the latest poll.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(|e| Event {
            token: Token(e.data as usize),
            events: e.events,
        })
    }

    /// Whether the latest poll returned no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Registers and deregisters event sources by raw fd.
///
/// Cloneable handle; all clones drive the same epoll instance, so a
/// [`Waker`] can live on a different thread than the polling loop.
#[derive(Debug, Clone)]
pub struct Registry {
    epfd: std::sync::Arc<OwnedFd>,
}

impl Registry {
    fn ctl(&self, op: i32, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest.0,
            data: token.0 as u64,
        };
        cvt(unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) }).map(|_| ())
    }

    /// Registers `fd` for `interest`, delivering events under `token`.
    pub fn register(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest set of an already-registered `fd`.
    pub fn reregister(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Removes `fd` from the poller.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        cvt(unsafe { epoll_ctl(self.epfd.as_raw_fd(), EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
    }
}

/// A readiness poller (one epoll instance).
#[derive(Debug)]
pub struct Poll {
    registry: Registry,
}

impl Poll {
    /// Creates a new poller.
    ///
    /// # Errors
    ///
    /// `epoll_create1` failures (fd exhaustion).
    pub fn new() -> io::Result<Poll> {
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poll {
            registry: Registry {
                epfd: std::sync::Arc::new(unsafe { OwnedFd::from_raw_fd(epfd) }),
            },
        })
    }

    /// The registration handle for this poller.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Blocks until at least one registered source is ready, `timeout`
    /// elapses (`None` = forever), or a [`Waker`] fires.
    ///
    /// # Errors
    ///
    /// `epoll_wait` failures other than `EINTR` (which retries).
    pub fn poll(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round up so a 1 ns timeout does not busy-spin.
            Some(d) => {
                d.as_millis().min(i32::MAX as u128) as i32
                    + i32::from(d.subsec_nanos() % 1_000_000 != 0)
            }
        };
        events.len = 0;
        loop {
            let n = unsafe {
                epoll_wait(
                    self.registry.epfd.as_raw_fd(),
                    events.buf.as_mut_ptr(),
                    events.buf.len() as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                events.len = n as usize;
                return Ok(());
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// Wakes a [`Poll`] blocked in [`Poll::poll`] from another thread.
///
/// Backed by an `eventfd` registered edge-triggered: every
/// [`Waker::wake`] since the last poll shows up as one readable event
/// under the waker's token in the next, and there is nothing to clear
/// before sleeping again.
#[derive(Debug)]
pub struct Waker {
    efd: OwnedFd,
}

impl Waker {
    /// Creates a waker registered under `token`.
    ///
    /// # Errors
    ///
    /// `eventfd` creation or registration failures.
    pub fn new(registry: &Registry, token: Token) -> io::Result<Waker> {
        let efd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        let efd = unsafe { OwnedFd::from_raw_fd(efd) };
        registry.register(efd.as_raw_fd(), token, Interest(EPOLLIN | EPOLLET))?;
        Ok(Waker { efd })
    }

    /// Wakes the poller. Cheap and thread-safe; coalesces with other
    /// pending wakes.
    pub fn wake(&self) -> io::Result<()> {
        let one: u64 = 1;
        // SAFETY: `one` is a live `u64` and 8 is its size, which is
        // what an eventfd write takes; `efd` is open while `self` is.
        let n = unsafe { write(self.efd.as_raw_fd(), (&one as *const u64).cast(), 8) };
        // Nobody reads the counter, and it takes 2^64 - 2 wakes to
        // fill it: a write always fits, and always makes an edge.
        if n == 8 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn waker_wakes_a_blocked_poll() {
        let mut poll = Poll::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new(poll.registry(), Token(usize::MAX)).unwrap());
        let w2 = std::sync::Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w2.wake().unwrap();
        });
        let mut events = Events::with_capacity(4);
        let start = std::time::Instant::now();
        poll.poll(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(start.elapsed() < Duration::from_secs(5), "poll never woke");
        let tokens: Vec<Token> = events.iter().map(|e| e.token()).collect();
        assert_eq!(tokens, vec![Token(usize::MAX)]);
        handle.join().unwrap();

        // Edge-triggered: a wake is reported once and needs no
        // clearing; the next one is reported again.
        poll.poll(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "a consumed wake was reported twice");
        waker.wake().unwrap();
        waker.wake().unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(events.iter().count(), 1);
    }

    #[test]
    fn socket_readability_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poll = Poll::new().unwrap();
        poll.registry()
            .register(server.as_raw_fd(), Token(7), Interest::READABLE)
            .unwrap();

        let mut events = Events::with_capacity(4);
        // Nothing to read yet: the poll must time out empty.
        poll.poll(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());

        client.write_all(b"ping").unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev: Vec<Event> = events.iter().collect();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].token(), Token(7));
        assert!(ev[0].is_readable());
        assert!(!ev[0].is_closed());

        // Peer hang-up surfaces as a closed/readable event.
        drop(client);
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev: Vec<Event> = events.iter().collect();
        assert_eq!(ev.len(), 1);
        assert!(ev[0].is_readable());
        assert!(ev[0].is_closed());

        poll.registry().deregister(server.as_raw_fd()).unwrap();
        poll.poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn write_interest_fires_when_buffer_drains() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let _server = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();

        let mut poll = Poll::new().unwrap();
        poll.registry()
            .register(
                client.as_raw_fd(),
                Token(1),
                Interest::READABLE | Interest::WRITABLE,
            )
            .unwrap();
        let mut events = Events::with_capacity(4);
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.is_writable()));
    }
}
