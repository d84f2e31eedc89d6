//! The Corona client library: [`CoronaClient`] — the service's
//! request/reply operations plus an asynchronous event stream — is a
//! shell around the I/O-free [`ClientSession`], held behind one `Mutex`
//! with a `Condvar` for the threads that block on a call or an event.
//! A plain client owns no thread: its connection pushes each frame into
//! the client's router (a [`FrameSink`]) from the transport's event
//! loop, which feeds the session and sends nothing — the caller of a
//! command sends what it queued. A supervised client
//! ([`CoronaClient::connect_failover`]) has one driver thread, which
//! sleeps until the session asks for a [`Dial`], dials, and hands the
//! session the connection to resume on; it also sends what the session
//! queued while handling a frame (a re-join, a gap repair).

use crate::lock;
use crate::mirror::GroupMirror;
use crate::session::{ClientSession, Dial};
use bytes::Bytes;
use corona_transport::{Connection, Dialer, FrameSink, TransportError};
use corona_types::error::{CoronaError, Result};
use corona_types::id::{ClientId, GroupId, ObjectId, SeqNo, ServerId};
use corona_types::message::{ClientRequest, ServerEvent, StateTransfer};
use corona_types::policy::{
    DeliveryScope, MemberInfo, MemberRole, Persistence, StateTransferPolicy,
};
use corona_types::state::{SharedState, StateUpdate};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::thread::Thread;
use std::time::{Duration, Instant};

pub use crate::{config::FailoverConfig, mirror::SharedMirror, session::RosterView};

/// How long a call — and a plain [`CoronaClient::connect`]'s handshake —
/// waits for its reply, until [`CoronaClient::set_call_timeout`].
const CALL_TIMEOUT: Duration = Duration::from_secs(10);

/// Result of a lock acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockResult {
    /// The lock is held by this client.
    Granted,
    /// The lock is held by another member (non-waiting request).
    Denied {
        /// The current holder.
        holder: ClientId,
    },
}

/// The connection under a [`ClientSession`]'s link, kept beside the
/// session by what drives it: a [`CoronaClient`], a simulated client.
#[derive(Default)]
pub struct Link(Option<(u64, Box<dyn Connection>)>);

impl Link {
    /// Runs `link` — a session's [`connected`](ClientSession::connected)
    /// — on `conn`, whose frames and close go to `sink`; the connection
    /// it replaces is closed.
    pub fn install(&mut self, link: u64, conn: Box<dyn Connection>, sink: Arc<dyn FrameSink>) {
        conn.attach_sink(link, sink);
        if let Some((_, old)) = self.0.replace((link, conn)) {
            old.close();
        }
    }

    /// Sends what `session` queued, if `send`, then closes the
    /// connection if the session is done with it.
    ///
    /// # Errors
    ///
    /// The first send that failed; the frames after it are dropped.
    pub fn settle(&mut self, s: &mut ClientSession, send: bool) -> Result<(), TransportError> {
        let sent = match &self.0 {
            Some((_, conn)) if send => s.take_frames().into_iter().try_for_each(|f| conn.send(f)),
            _ => Ok(()),
        };
        if let Some((_, done)) = self.0.take_if(|(id, _)| Some(*id) != s.link_id()) {
            done.close();
        }
        sent
    }
}

/// The session, the connection it runs on, and who waits on it: the
/// threads blocked on [`Inner::changed`], and a supervised client's
/// driver, unparked when what it watches of the session — the link,
/// whether it is up or has ended, whether it has frames to send — has
/// changed.
#[derive(Default)]
struct Shell {
    session: ClientSession,
    conn: Link,
    waiting: usize,
    driver: Option<Thread>,
    watched: (Option<u64>, bool, bool, bool),
}

/// What the client handle, its router and its driver share; `epoch` is
/// time zero of the session's clock.
struct Inner {
    shell: Mutex<Shell>,
    changed: Condvar,
    epoch: Instant,
}

impl Inner {
    fn new(session: ClientSession) -> Arc<Inner> {
        let (shell, changed, epoch) = (Mutex::<Shell>::default(), Condvar::new(), Instant::now());
        lock(&shell).session = session;
        Arc::new(Inner {
            shell,
            changed,
            epoch,
        })
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Feeds the session one input, then [settles](Inner::settle).
    fn step<T>(
        &self,
        shell: &mut Shell,
        send: bool,
        input: impl FnOnce(&mut ClientSession, u64) -> T,
    ) -> (T, Result<()>) {
        let out = input(&mut shell.session, self.now_ms());
        (out, self.settle(shell, send))
    }

    /// [Settles the link](Link::settle) — sending only if `send`: the
    /// router runs on the transport's event loop, which a slow send
    /// would stall, so it leaves the frames to the driver — and wakes
    /// the waiters, and the driver if what it watches changed. The first
    /// failed send is for a command's caller; one of the session's own
    /// fails on a closing link, whose close follows.
    fn settle(&self, shell: &mut Shell, send: bool) -> Result<()> {
        let sent = shell.conn.settle(&mut shell.session, send);
        if shell.waiting > 0 {
            self.changed.notify_all();
        }
        let s = &shell.session;
        let watched = (s.link_id(), s.is_up(), s.ended(), s.has_frames());
        if std::mem::replace(&mut shell.watched, watched) != watched {
            shell.driver.iter().for_each(Thread::unpark);
        }
        Ok(sent?)
    }

    /// Times out what has fallen due.
    fn tick(&self, shell: &mut Shell) {
        let now = self.now_ms();
        if shell.session.next_wake_ms().is_some_and(|at| at <= now) {
            let _ = self.step(shell, true, |session, now| session.tick(now));
        }
    }

    /// Hands the session a new connection, routing its frames there.
    fn install(self: &Arc<Self>, shell: &mut Shell, conn: Box<dyn Connection>) {
        let router = Arc::new(Router(Arc::downgrade(self)));
        let link = shell.session.connected(self.now_ms());
        shell.conn.install(link, conn, router);
        let _ = self.settle(shell, true);
    }

    /// Blocks until `poll` draws something from the session or
    /// `deadline` passes, ticking the session as its deadlines fall due.
    fn wait<'a, T>(
        &self,
        mut shell: MutexGuard<'a, Shell>,
        deadline: Option<Instant>,
        mut poll: impl FnMut(&mut ClientSession) -> Option<T>,
    ) -> (MutexGuard<'a, Shell>, Option<T>) {
        loop {
            self.tick(&mut shell);
            let now = Instant::now();
            match poll(&mut shell.session) {
                None if deadline.is_none_or(|d| now < d) => {}
                drawn => return (shell, drawn),
            }
            let wake =
                (shell.session.next_wake_ms()).map(|ms| self.epoch + Duration::from_millis(ms));
            shell.waiting += 1;
            shell = match wake.into_iter().chain(deadline).min() {
                Some(until) => {
                    let left = until.saturating_duration_since(now);
                    let waited = self.changed.wait_timeout(shell, left);
                    waited.unwrap_or_else(|e| e.into_inner()).0
                }
                None => self.changed.wait(shell).unwrap_or_else(|e| e.into_inner()),
            };
            shell.waiting -= 1;
        }
    }
}

/// A connection's [`FrameSink`]: hands what the connection carries to
/// the session, under the link id it was attached with.
struct Router(Weak<Inner>);

impl FrameSink for Router {
    fn on_accept(&self, _: u64, _: Box<dyn Connection>) {}

    fn on_frame(&self, link: u64, frame: Bytes) -> bool {
        self.0.upgrade().is_none_or(|inner| {
            let feed = |session: &mut ClientSession, now| session.on_frame(now, link, &frame);
            inner.step(&mut lock(&inner.shell), false, feed).0
        })
    }

    fn ready_for_more(&self) -> bool {
        let wants = |inner: Arc<Inner>| lock(&inner.shell).session.wants_more();
        self.0.upgrade().is_none_or(wants)
    }

    fn on_closed(&self, link: u64, _clean: bool) {
        if let Some(inner) = self.0.upgrade() {
            let closed = |session: &mut ClientSession, now| session.on_closed(now, link);
            let _ = inner.step(&mut lock(&inner.shell), false, closed);
        }
    }
}

/// A supervised client's driver, from its first contact on: serves the
/// session's dials, each once its backoff has passed, sends what its
/// router left queued, and times out its handshakes. Returns when the
/// session has ended.
fn drive(inner: &Arc<Inner>, dialer: &dyn Dialer, timeout: Duration) {
    lock(&inner.shell).driver = Some(std::thread::current());
    let mut dial: Option<Dial> = None;
    loop {
        let mut shell = lock(&inner.shell);
        inner.tick(&mut shell);
        let _ = inner.settle(&mut shell, true);
        if shell.session.ended() {
            return;
        }
        dial = dial.or_else(|| shell.session.poll_dial());
        let now = inner.now_ms();
        let Some(Dial { addr, .. }) = dial.take_if(|d| d.not_before_ms <= now) else {
            let due = dial.as_ref().map(|d| d.not_before_ms);
            let wake = due.into_iter().chain(shell.session.next_wake_ms()).min();
            drop(shell);
            let wake = wake.map(|ms| inner.epoch + Duration::from_millis(ms));
            match wake.map(|at| at.saturating_duration_since(Instant::now())) {
                Some(left) => std::thread::park_timeout(left),
                None => std::thread::park(),
            }
            continue;
        };
        drop(shell);
        let dialled = dialer.dial_timeout(&addr, timeout);
        let mut shell = lock(&inner.shell);
        match dialled {
            _ if shell.session.ended() => return,
            Ok(conn) => inner.install(&mut shell, conn),
            Err(e) => drop(inner.step(&mut shell, true, |s, now| s.dial_failed(now, e.into()))),
        }
    }
}

/// A connected Corona client.
pub struct CoronaClient {
    inner: Arc<Inner>,
    client_id: ClientId,
    call_timeout: Duration,
    supervised: bool,
}

impl CoronaClient {
    /// Connects over an established transport connection: sends `Hello`
    /// (keeping the identity of a previous session as `resume`) and waits
    /// for `Welcome`. The connection is fixed: if it drops, calls fail
    /// with [`CoronaError::Disconnected`] (see
    /// [`CoronaClient::connect_failover`]).
    ///
    /// # Errors
    ///
    /// Transport errors, the server's rejection of the handshake, or
    /// [`CoronaError::Timeout`] if no `Welcome` comes in a call timeout.
    pub fn connect(
        conn: Box<dyn Connection>,
        display_name: impl Into<String>,
        resume: Option<ClientId>,
    ) -> Result<CoronaClient> {
        let handshake_ms = CALL_TIMEOUT.as_millis() as u64;
        let inner = Inner::new(ClientSession::new(display_name, resume, handshake_ms));
        inner.install(&mut lock(&inner.shell), conn);
        CoronaClient::welcomed(inner, false)
    }

    /// Waits out the session's first handshake: its client, once up, or
    /// why it did not come up.
    fn welcomed(inner: Arc<Inner>, supervised: bool) -> Result<CoronaClient> {
        let handshaken = |s: &mut ClientSession| (s.is_up() || s.ended()).then_some(());
        let session = &mut inner.wait(lock(&inner.shell), None, handshaken).0.session;
        let Some(client_id) = session.client_id().filter(|_| session.is_up()) else {
            return Err(session.take_failure().unwrap_or(CoronaError::Disconnected));
        };
        Ok(CoronaClient {
            inner: Arc::clone(&inner),
            client_id,
            call_timeout: CALL_TIMEOUT,
            supervised,
        })
    }

    /// Connects with automatic failover: dials the first of `seeds` to
    /// welcome it (each gets `config.connect_timeout` to dial and as much
    /// for its `Welcome`), then reconnects whenever the link drops —
    /// to the latest advertised roster (coordinator first), then the
    /// seeds — resuming the session id and re-joining every group
    /// registered via [`CoronaClient::join_supervised`].
    ///
    /// # Errors
    ///
    /// Transport or handshake errors once every seed has been tried.
    pub fn connect_failover(
        dialer: Arc<dyn Dialer>,
        seeds: Vec<String>,
        display_name: impl Into<String>,
        config: FailoverConfig,
    ) -> Result<CoronaClient> {
        let timeout = config.connect_timeout;
        let inner = Inner::new(ClientSession::supervised(display_name, seeds, config, 0));
        let driven = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("corona-failover".into())
            .spawn(move || drive(&driven, &*dialer, timeout))
            .expect("spawn failover driver");
        CoronaClient::welcomed(inner, true)
    }

    /// The id the server assigned (or resumed) for this client.
    pub fn client_id(&self) -> ClientId {
        self.client_id
    }

    /// The id of the serving replica (updated after a failover).
    pub fn server_id(&self) -> ServerId {
        lock(&self.inner.shell).session.server_id()
    }

    /// The latest replica roster advertised by the service, if any.
    pub fn roster(&self) -> Option<RosterView> {
        lock(&self.inner.shell).session.roster()
    }

    /// Sets the timeout applied to request/reply calls.
    pub fn set_call_timeout(&mut self, timeout: Duration) {
        self.call_timeout = timeout;
    }

    /// Creates a group with the given lifetime semantics and initial
    /// shared state (§3.2).
    ///
    /// # Errors
    ///
    /// `GroupExists`, `PolicyDenied`, or transport failures.
    pub fn create_group(
        &self,
        group: GroupId,
        persistence: Persistence,
        initial_state: SharedState,
    ) -> Result<()> {
        let create = ClientRequest::CreateGroup {
            group,
            persistence,
            initial_state,
        };
        self.call(create).map(drop)
    }

    /// Deletes a group; its shared state is lost (§3.2).
    ///
    /// # Errors
    ///
    /// `NoSuchGroup`, `PolicyDenied`, or transport failures.
    pub fn delete_group(&self, group: GroupId) -> Result<()> {
        self.call(ClientRequest::DeleteGroup { group }).map(drop)
    }

    /// Joins a group, receiving the current membership and a state
    /// transfer produced by `policy`. The join involves no existing
    /// member (§3.2).
    ///
    /// # Errors
    ///
    /// `NoSuchGroup`, `AlreadyMember`, `PolicyDenied`, or transport
    /// failures.
    pub fn join(
        &self,
        group: GroupId,
        role: MemberRole,
        policy: StateTransferPolicy,
        notify_membership: bool,
    ) -> Result<(Vec<MemberInfo>, StateTransfer)> {
        let join = ClientRequest::Join {
            group,
            role,
            policy,
            notify_membership,
        };
        let ServerEvent::Joined { members, transfer } = self.call(join)? else {
            unreachable!("a join is answered by Joined");
        };
        Ok((members, transfer))
    }

    /// Joins and immediately builds a [`GroupMirror`] tracking the
    /// group's shared state from the transfer onward.
    ///
    /// # Errors
    ///
    /// As for [`CoronaClient::join`].
    pub fn join_mirrored(
        &self,
        group: GroupId,
        role: MemberRole,
        notify_membership: bool,
    ) -> Result<(Vec<MemberInfo>, GroupMirror)> {
        let policy = StateTransferPolicy::FullState;
        let (members, transfer) = self.join(group, role, policy, notify_membership)?;
        let mut mirror = GroupMirror::from_transfer(&transfer);
        mirror.set_local_client(self.client_id);
        Ok((members, mirror))
    }

    /// Like [`CoronaClient::join_mirrored`], but the mirror is kept by
    /// the client's session, which applies the multicast stream to it,
    /// repairs its gaps and resyncs it after every reconnect: gap-free
    /// and duplicate-free across server failures. The application reads
    /// the mirror through the handle and takes [`CoronaClient::next_event`]
    /// as change notifications only — a catch-up that resynced the
    /// mirror among them, as the resume's `Joined` or the repair's `State`;
    /// notices past the [bound](crate::session::EVENT_QUEUE_HWM) are dropped.
    ///
    /// # Errors
    ///
    /// [`CoronaError::InvalidState`] on a client not built by
    /// [`CoronaClient::connect_failover`]; otherwise as
    /// [`CoronaClient::join`].
    pub fn join_supervised(
        &self,
        group: GroupId,
        role: MemberRole,
        notify_membership: bool,
    ) -> Result<(Vec<MemberInfo>, SharedMirror)> {
        if !self.supervised {
            return Err(CoronaError::InvalidState(
                "join_supervised requires a client built by connect_failover".into(),
            ));
        }
        let policy = StateTransferPolicy::FullState;
        let join = ClientRequest::Join {
            group,
            role,
            policy,
            notify_membership,
        };
        let joined = self.ask(|s, now, timeout| s.join_supervised(now, join, timeout))?;
        let ServerEvent::Joined { members, .. } = joined else {
            unreachable!("a join is answered by Joined");
        };
        let mirror = lock(&self.inner.shell).session.mirror(group);
        Ok((members, mirror.expect("a supervised join keeps a mirror")))
    }

    /// Leaves a group.
    ///
    /// # Errors
    ///
    /// `NoSuchGroup`, `NotAMember`, or transport failures.
    pub fn leave(&self, group: GroupId) -> Result<()> {
        self.call(ClientRequest::Leave { group }).map(drop)
    }

    /// Broadcasts a full object state (`bcastState`): the payload
    /// replaces the object's state. Fire-and-forget; delivery arrives
    /// on the event stream (including to the sender, when
    /// sender-inclusive).
    ///
    /// # Errors
    ///
    /// Transport failures only; protocol rejections arrive as
    /// [`ServerEvent::Error`] on the event stream.
    pub fn bcast_state(
        &self,
        group: GroupId,
        object: ObjectId,
        payload: impl Into<Bytes>,
        scope: DeliveryScope,
    ) -> Result<()> {
        self.broadcast(group, StateUpdate::set_state(object, payload), scope)
    }

    /// Broadcasts an incremental update (`bcastUpdate`): the payload is
    /// appended to the object's state, preserving history.
    ///
    /// # Errors
    ///
    /// As for [`CoronaClient::bcast_state`].
    pub fn bcast_update(
        &self,
        group: GroupId,
        object: ObjectId,
        payload: impl Into<Bytes>,
        scope: DeliveryScope,
    ) -> Result<()> {
        self.broadcast(group, StateUpdate::incremental(object, payload), scope)
    }

    /// Queries current membership (`getMembership`).
    ///
    /// # Errors
    ///
    /// `NoSuchGroup`, `NotAMember`, or transport failures.
    pub fn membership(&self, group: GroupId) -> Result<Vec<MemberInfo>> {
        let query = ClientRequest::GetMembership { group };
        let ServerEvent::Membership { members, .. } = self.call(query)? else {
            unreachable!("a membership query is answered by Membership");
        };
        Ok(members)
    }

    /// Requests a state (re-)transfer under `policy` without
    /// re-joining — the reconnection catch-up path.
    ///
    /// # Errors
    ///
    /// `NoSuchGroup`, `NotAMember`, or transport failures.
    pub fn state(&self, group: GroupId, policy: StateTransferPolicy) -> Result<StateTransfer> {
        let ServerEvent::State { transfer } =
            self.call(ClientRequest::GetState { group, policy })?
        else {
            unreachable!("a state request is answered by State");
        };
        Ok(transfer)
    }

    /// Acquires an exclusive lock on a shared object. With
    /// `wait == true` the call blocks (up to the call timeout) until
    /// the lock is granted.
    ///
    /// # Errors
    ///
    /// `NoSuchGroup`, `NotAMember`, `PolicyDenied`, timeout while
    /// waiting, or transport failures.
    pub fn acquire_lock(&self, group: GroupId, object: ObjectId, wait: bool) -> Result<LockResult> {
        let acquire = ClientRequest::AcquireLock {
            group,
            object,
            wait,
        };
        match self.call(acquire)? {
            ServerEvent::LockDenied { holder, .. } => Ok(LockResult::Denied { holder }),
            _ => Ok(LockResult::Granted),
        }
    }

    /// Releases a lock.
    ///
    /// # Errors
    ///
    /// `LockNotHeld` or transport failures.
    pub fn release_lock(&self, group: GroupId, object: ObjectId) -> Result<()> {
        self.call(ClientRequest::ReleaseLock { group, object })
            .map(drop)
    }

    /// Requests log reduction through `through` (or a server-chosen
    /// point when `None`). Returns the sequence number reduced through.
    ///
    /// # Errors
    ///
    /// `BadReductionPoint`, `PolicyDenied`, `Unsupported` (stateless
    /// server), or transport failures.
    pub fn reduce_log(&self, group: GroupId, through: Option<SeqNo>) -> Result<SeqNo> {
        let reduce = ClientRequest::ReduceLog { group, through };
        let ServerEvent::LogReduced { through, .. } = self.call(reduce)? else {
            unreachable!("a reduction is answered by LogReduced");
        };
        Ok(through)
    }

    /// Round-trip liveness probe. Returns the measured RTT.
    ///
    /// # Errors
    ///
    /// Transport failures or timeout.
    pub fn ping(&self) -> Result<Duration> {
        let started = Instant::now();
        self.call(ClientRequest::Ping { nonce: 0 })?;
        Ok(started.elapsed())
    }

    /// Admin: fetches the server's live health snapshot (schema
    /// version and one JSON object).
    ///
    /// # Errors
    ///
    /// Transport failures, timeout, or `Unsupported` when the serving
    /// runtime has no health plane.
    pub fn health(&self) -> Result<(u16, String)> {
        let ServerEvent::Health { schema, json } = self.call(ClientRequest::GetHealth)? else {
            unreachable!("a health request is answered by Health");
        };
        Ok((schema, json))
    }

    /// Blocks for the next asynchronous event (multicast, membership
    /// change, group deletion notice, late lock grant, ...). At most
    /// [`EVENT_QUEUE_HWM`](crate::session::EVENT_QUEUE_HWM) notices wait.
    ///
    /// # Errors
    ///
    /// [`CoronaError::Disconnected`] when the connection closes (for a
    /// supervised client: once the driver has exhausted its reconnect
    /// budget).
    pub fn next_event(&self) -> Result<ServerEvent> {
        self.event(None)
    }

    /// Blocks up to `timeout` for the next asynchronous event.
    ///
    /// # Errors
    ///
    /// [`CoronaError::Timeout`] on expiry, [`CoronaError::Disconnected`]
    /// when closed.
    pub fn next_event_timeout(&self, timeout: Duration) -> Result<ServerEvent> {
        self.event(Some(Instant::now() + timeout))
    }

    /// Returns a pending event without blocking.
    pub fn try_event(&self) -> Option<ServerEvent> {
        lock(&self.inner.shell).session.next_event()
    }

    /// Closes the session: best-effort `Goodbye`, then transport close.
    /// A supervised client's driver stops instead of reconnecting.
    pub fn close(&self) {
        self.shut(true);
    }

    fn event(&self, deadline: Option<Instant>) -> Result<ServerEvent> {
        let next = |s: &mut ClientSession| match s.next_event() {
            None if s.ended() => Some(Err(CoronaError::Disconnected)),
            event => event.map(Ok),
        };
        let event = self.inner.wait(lock(&self.inner.shell), deadline, next).1;
        event.unwrap_or(Err(CoronaError::Timeout {
            operation: "event stream",
        }))
    }

    /// Ends the session — saying `Goodbye` first, if `goodbye` — and
    /// closes its connection.
    fn shut(&self, goodbye: bool) {
        let close = |session: &mut ClientSession, _| session.close(goodbye);
        let _ = self.inner.step(&mut lock(&self.inner.shell), true, close);
    }

    fn broadcast(&self, group: GroupId, update: StateUpdate, scope: DeliveryScope) -> Result<()> {
        let request = ClientRequest::Broadcast {
            group,
            update,
            scope,
        };
        let mut shell = lock(&self.inner.shell);
        let (queued, sent) = self
            .inner
            .step(&mut shell, true, |s, _| s.broadcast(&request));
        queued.and(sent)
    }

    fn call(&self, request: ClientRequest) -> Result<ServerEvent> {
        self.ask(|session, now, timeout| session.call(now, request, timeout))
    }

    /// Issues a call once no other is pending, and waits for its reply.
    fn ask(
        &self,
        issue: impl FnOnce(&mut ClientSession, u64, u64) -> Result<()>,
    ) -> Result<ServerEvent> {
        let inner = &self.inner;
        let free = |s: &mut ClientSession| (!s.call_pending()).then_some(());
        let (mut shell, _) = inner.wait(lock(&inner.shell), None, free);
        let timeout = self.call_timeout.as_millis() as u64;
        let (issued, sent) = inner.step(&mut shell, true, |s, now| issue(s, now, timeout));
        issued?;
        sent.inspect_err(|_| shell.session.abandon_call())?;
        let reply = inner.wait(shell, None, ClientSession::take_reply).1;
        // The call slot is free for the next caller.
        inner.changed.notify_all();
        reply.expect("a call ends with a reply")
    }
}

impl Drop for CoronaClient {
    /// Ends the session without a `Goodbye`: to the server, a crash.
    fn drop(&mut self) {
        self.shut(false);
    }
}

impl std::fmt::Debug for CoronaClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let queued_events = lock(&self.inner.shell).session.queued_events();
        f.debug_struct("CoronaClient")
            .field("client_id", &self.client_id)
            .field("server_id", &self.server_id())
            .field("supervised", &self.supervised)
            .field("queued_events", &queued_events)
            .finish_non_exhaustive()
    }
}
