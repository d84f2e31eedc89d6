//! The Corona client library.
//!
//! [`CoronaClient`] wraps a transport connection and exposes the
//! service's request/reply operations (create/join/leave, state
//! transfer, membership queries, locks, log reduction) plus an
//! asynchronous event stream (multicasts, awareness notifications).
//!
//! The server processes a client's requests in FIFO order and replies
//! in order, so the client keeps at most one outstanding call and
//! matches each reply by shape. Asynchronous events that interleave
//! with a reply (a multicast arriving between `Join` and `Joined`) are
//! routed to the event stream without disturbing the call.
//!
//! The client owns no thread: its connection pushes every frame into
//! the client's router (a [`FrameSink`]) from the transport's event
//! loop, which decodes it and hands it on — to the waiting call, the
//! event stream, or a supervised mirror — and never blocks or sends.
//!
//! # Failover
//!
//! [`CoronaClient::connect_failover`] builds a *supervised* client: a
//! driver thread watches the connection and, when it drops (server
//! crash, partition, coordinator failover), reconnects on its own —
//! backing off exponentially with deterministic jitter, walking the
//! replica roster the servers advertise via [`ServerEvent::Roster`],
//! resuming the session id with `Hello { resume }`, re-joining every
//! group registered through [`CoronaClient::join_supervised`], and
//! repairing each [`GroupMirror`] with a
//! `StateTransferPolicy::UpdatesSince` catch-up so the observed update
//! stream stays gap-free and duplicate-free across the failover.

use crate::lock;
use crate::mirror::{ApplyOutcome, GroupMirror};
use bytes::Bytes;
use corona_metrics::{Counter, Histogram, Registry};
use corona_transport::{Connection, Dialer, FrameSink};
use corona_types::error::{CoronaError, ErrorCode, Result};
use corona_types::id::{ClientId, Epoch, GroupId, ObjectId, SeqNo, ServerId};
use corona_types::message::{ClientRequest, ServerEvent, StateTransfer, PROTOCOL_VERSION};
use corona_types::policy::{
    DeliveryScope, MemberInfo, MemberRole, Persistence, StateTransferPolicy,
};
use corona_types::state::{SharedState, StateUpdate};
use corona_types::wire::{decode_traced, encode_traced, Encode, TraceToken};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

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

/// A mirror shared between the application and the failover driver
/// (which resyncs it after reconnecting).
pub type SharedMirror = Arc<Mutex<GroupMirror>>;

/// The latest replica roster a client has seen (pushed by servers on
/// join and after every election). Candidate endpoints for failover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RosterView {
    /// Configuration epoch; the client keeps the highest seen.
    pub epoch: Epoch,
    /// The acting coordinator.
    pub coordinator: ServerId,
    /// Live servers and their client-dialable addresses.
    pub servers: Vec<(ServerId, String)>,
}

/// Reconnect policy for a supervised client
/// ([`CoronaClient::connect_failover`]).
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// First-round backoff; later rounds double it.
    pub base_backoff: Duration,
    /// Cap on the exponential component of the backoff.
    pub max_backoff: Duration,
    /// Consecutive reconnect rounds (each walks every candidate
    /// address) before the driver gives up and the client reports
    /// [`CoronaError::Disconnected`].
    pub max_rounds: u32,
    /// Per-address dial (and handshake-step) timeout.
    pub connect_timeout: Duration,
    /// Seed for the deterministic backoff jitter, so tests (and
    /// coordinated fleets) can fix or spread their retry phase.
    pub jitter_seed: u64,
    /// Metrics sink for `client.reconnects` / `client.backoff_ms`; a
    /// private registry is used when absent.
    pub registry: Option<Arc<Registry>>,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            max_rounds: 10,
            connect_timeout: Duration::from_secs(2),
            jitter_seed: 0x5EED,
            registry: None,
        }
    }
}

struct Pending {
    matcher: fn(&ServerEvent) -> bool,
    tx: Sender<ServerEvent>,
}

/// What reaches a connection's router: a decoded event, or the end of
/// the connection (closed, or a frame that does not decode).
enum Incoming {
    Event(ServerEvent),
    Closed,
}

/// Which connection's frames go where. Connections are numbered by a
/// generation: the installed one's frames are routed as the client's
/// own; those of one still being brought up go to its [`Handshake`];
/// anything else — a retired connection's stragglers — is dropped.
#[derive(Default)]
struct Route {
    installed: u64,
    handshake: Option<(u64, Sender<Incoming>)>,
}

/// What a supervised client's driver thread is asked to do. The router
/// never sends on a connection — it runs on the transport's event loop,
/// which a slow send would stall — so it hands sends to the driver.
enum Drive {
    /// Ask for a gap repair of `group` under `policy`.
    Repair(GroupId, StateTransferPolicy),
    /// The installed connection is gone: reconnect.
    Lost,
}

/// State shared between the client handle, its router, a supervised
/// client's driver thread, and callers on other threads.
struct Shared {
    /// The installed connection. The failover driver swaps a fresh one
    /// in after a successful resume; plain clients never change it.
    conn: Mutex<Arc<Box<dyn Connection>>>,
    route: Mutex<Route>,
    next_generation: AtomicU64,
    pending: Mutex<Option<Pending>>,
    /// The event stream's sending end; dropped when the stream ends (a
    /// plain client's connection closes, a driver gives up).
    events: Mutex<Option<Sender<ServerEvent>>>,
    server_id: Mutex<ServerId>,
    roster: Mutex<Option<RosterView>>,
    /// A supervised client's failover state and its driver's orders.
    supervised: OnceLock<(Arc<Supervisor>, Sender<Drive>)>,
    /// Set by `close()`/`Drop`: tells the driver the disconnect is
    /// intentional, so it must not reconnect.
    shutdown: AtomicBool,
}

/// A connection's [`FrameSink`]: routes what the connection of
/// generation `generation` carries.
struct Router {
    shared: Weak<Shared>,
    generation: u64,
}

impl FrameSink for Router {
    /// A dialled connection accepts nothing.
    fn on_accept(&self, _: u64, _: Box<dyn Connection>) {}

    fn on_frame(&self, _: u64, frame: Bytes) -> bool {
        if let Some(shared) = self.shared.upgrade() {
            shared.deliver(self.generation, Some(frame));
        }
        true
    }

    fn ready_for_more(&self) -> bool {
        true
    }

    fn on_closed(&self, _: u64, _clean: bool) {
        if let Some(shared) = self.shared.upgrade() {
            shared.deliver(self.generation, None);
        }
    }
}

/// A connection being brought up: its frames come here until
/// [`Shared::install`] makes it the client's.
struct Handshake {
    generation: u64,
    incoming: Receiver<Incoming>,
}

impl Handshake {
    /// The one bounded wait for a reply outside a call — a `Welcome`, a
    /// resume's `Joined`: up to `timeout` for the event `matcher`
    /// accepts, absorbing rosters and dropping whatever else interleaves
    /// (stale deliveries; a resume's mirror catch-up covers the data).
    fn wait(
        &self,
        shared: &Shared,
        timeout: Duration,
        matcher: fn(&ServerEvent) -> bool,
    ) -> Result<ServerEvent> {
        let deadline = Instant::now() + timeout;
        let timed_out = CoronaError::Timeout {
            operation: "handshake",
        };
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let event = match self.incoming.recv_timeout(left) {
                Ok(Incoming::Event(event)) => event,
                Ok(Incoming::Closed) | Err(RecvTimeoutError::Disconnected) => {
                    return Err(CoronaError::Disconnected)
                }
                Err(RecvTimeoutError::Timeout) => return Err(timed_out),
            };
            if matcher(&event) {
                return Ok(event);
            }
            match event {
                ServerEvent::Error { code, detail } => {
                    return Err(CoronaError::protocol(ErrorCode::from_wire(code), detail))
                }
                ServerEvent::Roster {
                    epoch,
                    coordinator,
                    servers,
                } => shared.note_roster(epoch, coordinator, servers),
                _ => {}
            }
        }
    }
}

impl Shared {
    fn new(conn: Box<dyn Connection>, events: Sender<ServerEvent>) -> Arc<Shared> {
        Arc::new(Shared {
            conn: Mutex::new(Arc::new(conn)),
            route: Mutex::default(),
            next_generation: AtomicU64::new(0),
            pending: Mutex::new(None),
            events: Mutex::new(Some(events)),
            server_id: Mutex::new(ServerId::new(0)),
            roster: Mutex::new(None),
            supervised: OnceLock::new(),
            shutdown: AtomicBool::new(false),
        })
    }

    fn conn(&self) -> Arc<Box<dyn Connection>> {
        lock(&self.conn).clone()
    }

    /// Starts routing `conn`'s frames to a new [`Handshake`].
    fn begin(self: &Arc<Self>, conn: &dyn Connection) -> Handshake {
        let generation = self.next_generation.fetch_add(1, Ordering::Relaxed) + 1;
        let (tx, incoming) = mpsc::channel();
        lock(&self.route).handshake = Some((generation, tx));
        let router = Router {
            shared: Arc::downgrade(self),
            generation,
        };
        conn.attach_sink(generation, Arc::new(router));
        Handshake {
            generation,
            incoming,
        }
    }

    /// Makes a handshaken connection the client's. What it carried after
    /// the reply the handshake waited for is routed now, in order, before
    /// anything that arrives later.
    fn install(&self, handshake: Handshake, conn: Arc<Box<dyn Connection>>, server: ServerId) {
        let mut route = lock(&self.route);
        *lock(&self.server_id) = server;
        *lock(&self.conn) = conn;
        route.installed = handshake.generation;
        route.handshake = None;
        while let Ok(incoming) = handshake.incoming.try_recv() {
            self.route_installed(&mut route, incoming);
        }
    }

    /// The router's entry: `frame` (`None`: the close) of the connection
    /// of `generation`.
    fn deliver(&self, generation: u64, frame: Option<Bytes>) {
        let incoming = match frame.as_deref().map(decode_traced::<ServerEvent>) {
            Some(Ok((event, token))) => {
                if let Some(t) = token {
                    let now = corona_trace::now_us();
                    corona_trace::record_at(corona_trace::SpanEvent {
                        trace: corona_trace::TraceId(t.id),
                        hop: corona_trace::Hop::ClientDeliver,
                        ts_us: now,
                        dur_us: now.saturating_sub(t.origin_us),
                        arg: 0,
                    });
                }
                Incoming::Event(event)
            }
            Some(Err(_)) | None => Incoming::Closed,
        };
        let mut route = lock(&self.route);
        match &route.handshake {
            Some((handshaking, tx)) if *handshaking == generation => {
                let _ = tx.send(incoming);
            }
            _ if route.installed == generation => self.route_installed(&mut route, incoming),
            _ => {}
        }
    }

    /// Routes one event of the installed connection: rosters are
    /// absorbed, multicasts feed the supervised mirrors and the event
    /// stream, replies wake the pending caller, repair transfers are
    /// consumed by the driver, everything else goes to the event stream.
    /// The connection's end retires it, fails the pending call and ends
    /// a plain client's event stream, or sends a supervised client's
    /// driver to reconnect.
    fn route_installed(&self, route: &mut Route, incoming: Incoming) {
        let supervisor = self.supervised.get().map(|(sup, _)| sup.as_ref());
        let event = match incoming {
            Incoming::Event(event) => event,
            Incoming::Closed => {
                // No generation is 0: nothing more of it is routed.
                route.installed = 0;
                // A stream that does not decode is closed here too.
                self.conn().close();
                lock(&self.pending).take();
                match self.supervised.get() {
                    Some((_, drive)) => {
                        let _ = drive.send(Drive::Lost);
                    }
                    None => drop(lock(&self.events).take()),
                }
                return;
            }
        };
        let event = match event {
            ServerEvent::Roster {
                epoch,
                coordinator,
                servers,
            } => return self.note_roster(epoch, coordinator, servers),
            // Pure notifications: always the event stream (after feeding
            // any supervised mirror).
            ServerEvent::Multicast { .. } | ServerEvent::MembershipChanged { .. } => {
                if let Some((sup, drive)) = self.supervised.get() {
                    sup.apply_multicast(drive, &event);
                }
                event
            }
            event => {
                let mut slot = lock(&self.pending);
                let matched = slot.as_ref().is_some_and(|p| {
                    (p.matcher)(&event) || matches!(event, ServerEvent::Error { .. })
                });
                if matched {
                    let p = slot.take().expect("matched implies Some");
                    drop(slot);
                    let _ = p.tx.send(event);
                    return;
                }
                drop(slot);
                if let (Some(sup), ServerEvent::State { transfer }) = (supervisor, &event) {
                    if sup.finish_repair(transfer) {
                        return;
                    }
                }
                event
            }
        };
        let sent = lock(&self.events)
            .as_ref()
            .is_some_and(|tx| tx.send(event).is_ok());
        if !sent {
            // Receiver dropped: the client handle is gone.
            self.shutdown.store(true, Ordering::Release);
        }
    }

    fn note_roster(&self, epoch: Epoch, coordinator: ServerId, servers: Vec<(ServerId, String)>) {
        let mut slot = lock(&self.roster);
        if slot.as_ref().is_none_or(|r| epoch >= r.epoch) {
            *slot = Some(RosterView {
                epoch,
                coordinator,
                servers,
            });
        }
    }
}

struct SupervisedGroup {
    group: GroupId,
    role: MemberRole,
    notify_membership: bool,
    mirror: SharedMirror,
}

/// The failover driver's state: what to redial, what to re-join, and
/// the in-flight gap repairs.
struct Supervisor {
    dialer: Arc<dyn Dialer>,
    seeds: Vec<String>,
    display_name: String,
    config: FailoverConfig,
    client_id: ClientId,
    groups: Mutex<Vec<SupervisedGroup>>,
    /// Groups with a `GetState` catch-up in flight (gap repair); the
    /// matching `State` reply is consumed by the driver, not the app.
    repairing: Mutex<HashSet<GroupId>>,
    reconnects: Arc<Counter>,
    backoff_ms: Arc<Histogram>,
}

impl Supervisor {
    /// Applies a multicast to the supervised mirror of its group (if
    /// any). A detected gap has the driver send an asynchronous
    /// `UpdatesSince(last_seq)` catch-up request on the live
    /// connection.
    fn apply_multicast(&self, drive: &Sender<Drive>, event: &ServerEvent) {
        let ServerEvent::Multicast { group, .. } = event else {
            return;
        };
        let groups = lock(&self.groups);
        let Some(sg) = groups.iter().find(|sg| sg.group == *group) else {
            return;
        };
        let outcome = lock(&sg.mirror).apply_event(event);
        if let ApplyOutcome::Gap { .. } = outcome {
            if lock(&self.repairing).insert(*group) {
                let policy = lock(&sg.mirror).catch_up_policy();
                let _ = drive.send(Drive::Repair(*group, policy));
            }
        }
    }

    /// Consumes a `State` reply belonging to an in-flight gap repair.
    /// Returns `false` when the transfer is not ours to handle (no
    /// repair pending for that group).
    fn finish_repair(&self, transfer: &StateTransfer) -> bool {
        if !lock(&self.repairing).remove(&transfer.group) {
            return false;
        }
        let groups = lock(&self.groups);
        if let Some(sg) = groups.iter().find(|sg| sg.group == transfer.group) {
            lock(&sg.mirror).resync(transfer);
        }
        true
    }
}

/// A connected Corona client.
pub struct CoronaClient {
    shared: Arc<Shared>,
    client_id: ClientId,
    /// Locked for the length of a wait: one thread reads events at a time.
    events_rx: Mutex<Receiver<ServerEvent>>,
    call_guard: Mutex<()>,
    call_timeout: Duration,
    supervisor: Option<Arc<Supervisor>>,
}

impl CoronaClient {
    /// Connects over an established transport connection: sends
    /// `Hello` and waits for `Welcome`.
    ///
    /// Pass the id from a previous session as `resume` to keep a
    /// stable identity across reconnects. The connection is fixed: if
    /// it drops, calls fail with [`CoronaError::Disconnected`] and the
    /// application reconnects itself (or uses
    /// [`CoronaClient::connect_failover`] to automate that).
    ///
    /// # Errors
    ///
    /// Transport errors, a protocol error if the server rejects the
    /// handshake, or [`CoronaError::Timeout`] if no `Welcome` comes
    /// within the call timeout.
    pub fn connect(
        conn: Box<dyn Connection>,
        display_name: impl Into<String>,
        resume: Option<ClientId>,
    ) -> Result<CoronaClient> {
        let (events_tx, events_rx) = mpsc::channel();
        let shared = Shared::new(conn, events_tx);
        let (handshake, client_id, server) =
            hello(&shared, &display_name.into(), resume, CALL_TIMEOUT)?;
        shared.install(handshake, shared.conn(), server);
        Ok(CoronaClient::new(shared, client_id, events_rx, None))
    }

    fn new(
        shared: Arc<Shared>,
        client_id: ClientId,
        events_rx: Receiver<ServerEvent>,
        supervisor: Option<Arc<Supervisor>>,
    ) -> CoronaClient {
        CoronaClient {
            shared,
            client_id,
            events_rx: Mutex::new(events_rx),
            call_guard: Mutex::new(()),
            call_timeout: CALL_TIMEOUT,
            supervisor,
        }
    }

    /// Connects with automatic failover: dials the first reachable of
    /// `seeds`, then hands the connection to a supervisor thread that
    /// transparently reconnects (per `config`) whenever it drops,
    /// resuming the session id and re-joining every group registered
    /// via [`CoronaClient::join_supervised`].
    ///
    /// Candidate endpoints are the latest advertised roster
    /// (coordinator first) followed by `seeds`. Each seed gets
    /// `config.connect_timeout` for its dial and as much again for its
    /// `Welcome`.
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
        let display_name = display_name.into();
        let mut last_err = CoronaError::Disconnected;
        for addr in &seeds {
            let conn = match dialer.dial_timeout(addr, config.connect_timeout) {
                Ok(conn) => conn,
                Err(e) => {
                    last_err = transport_to_corona(e);
                    continue;
                }
            };
            let (events_tx, events_rx) = mpsc::channel();
            let shared = Shared::new(conn, events_tx);
            let (handshake, client_id, server) =
                match hello(&shared, &display_name, None, config.connect_timeout) {
                    Ok(welcomed) => welcomed,
                    Err(e) => {
                        last_err = e;
                        continue;
                    }
                };
            let registry = config.registry.clone().unwrap_or_default();
            let supervisor = Arc::new(Supervisor {
                dialer,
                seeds,
                display_name,
                config,
                client_id,
                groups: Mutex::new(Vec::new()),
                repairing: Mutex::new(HashSet::new()),
                reconnects: registry.counter("client.reconnects"),
                backoff_ms: registry.histogram("client.backoff_ms"),
            });
            // Supervised before installed: a loss from here on reaches
            // the driver.
            let (drive, orders) = mpsc::channel();
            let _ = shared.supervised.set((Arc::clone(&supervisor), drive));
            shared.install(handshake, shared.conn(), server);
            {
                let shared = Arc::clone(&shared);
                let supervisor = Arc::clone(&supervisor);
                std::thread::Builder::new()
                    .name(format!("corona-failover-{client_id}"))
                    .spawn(move || supervise(&shared, &supervisor, &orders))
                    .expect("spawn failover driver");
            }
            return Ok(CoronaClient::new(
                shared,
                client_id,
                events_rx,
                Some(supervisor),
            ));
        }
        Err(last_err)
    }

    /// The id the server assigned (or resumed) for this client.
    pub fn client_id(&self) -> ClientId {
        self.client_id
    }

    /// The id of the serving replica (updated after a failover).
    pub fn server_id(&self) -> ServerId {
        *lock(&self.shared.server_id)
    }

    /// The latest replica roster advertised by the service, if any.
    pub fn roster(&self) -> Option<RosterView> {
        lock(&self.shared.roster).clone()
    }

    /// Sets the timeout applied to request/reply calls.
    pub fn set_call_timeout(&mut self, timeout: Duration) {
        self.call_timeout = timeout;
    }

    // ----- request/reply operations ----------------------------------------

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
        self.call(
            ClientRequest::CreateGroup {
                group,
                persistence,
                initial_state,
            },
            |e| matches!(e, ServerEvent::GroupCreated { .. }),
        )
        .map(|_| ())
    }

    /// Deletes a group; its shared state is lost (§3.2).
    ///
    /// # Errors
    ///
    /// `NoSuchGroup`, `PolicyDenied`, or transport failures.
    pub fn delete_group(&self, group: GroupId) -> Result<()> {
        self.call(ClientRequest::DeleteGroup { group }, |e| {
            matches!(e, ServerEvent::GroupDeleted { .. })
        })
        .map(|_| ())
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
        match self.call(
            ClientRequest::Join {
                group,
                role,
                policy,
                notify_membership,
            },
            |e| matches!(e, ServerEvent::Joined { .. }),
        )? {
            ServerEvent::Joined { members, transfer } => Ok((members, transfer)),
            _ => unreachable!("matcher guarantees Joined"),
        }
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
        let (members, transfer) = self.join(
            group,
            role,
            StateTransferPolicy::FullState,
            notify_membership,
        )?;
        let mut mirror = GroupMirror::from_transfer(&transfer);
        mirror.set_local_client(self.client_id);
        Ok((members, mirror))
    }

    /// Like [`CoronaClient::join_mirrored`], but the mirror is owned by
    /// the failover driver: the driver applies the multicast stream to
    /// it, repairs gaps with `UpdatesSince` catch-ups, and resyncs it
    /// after every reconnect, so the mirrored state stays gap-free and
    /// duplicate-free across server failures. The application reads the
    /// mirror through the returned handle and consumes
    /// [`CoronaClient::next_event`] purely as a change notification —
    /// it must not apply events to the mirror itself.
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
        let Some(sup) = &self.supervisor else {
            return Err(CoronaError::InvalidState(
                "join_supervised requires a client built by connect_failover".into(),
            ));
        };
        let (members, transfer) = self.join(
            group,
            role,
            StateTransferPolicy::FullState,
            notify_membership,
        )?;
        let mut mirror = GroupMirror::from_transfer(&transfer);
        mirror.set_local_client(self.client_id);
        let mirror: SharedMirror = Arc::new(Mutex::new(mirror));
        lock(&sup.groups).push(SupervisedGroup {
            group,
            role,
            notify_membership,
            mirror: Arc::clone(&mirror),
        });
        Ok((members, mirror))
    }

    /// Leaves a group.
    ///
    /// # Errors
    ///
    /// `NoSuchGroup`, `NotAMember`, or transport failures.
    pub fn leave(&self, group: GroupId) -> Result<()> {
        self.call(ClientRequest::Leave { group }, |e| {
            matches!(e, ServerEvent::Left { .. })
        })
        .map(|_| ())?;
        if let Some(sup) = &self.supervisor {
            lock(&sup.groups).retain(|sg| sg.group != group);
            lock(&sup.repairing).remove(&group);
        }
        Ok(())
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
        payload: impl Into<bytes::Bytes>,
        scope: DeliveryScope,
    ) -> Result<()> {
        self.send_broadcast(ClientRequest::Broadcast {
            group,
            update: StateUpdate::set_state(object, payload),
            scope,
        })
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
        payload: impl Into<bytes::Bytes>,
        scope: DeliveryScope,
    ) -> Result<()> {
        self.send_broadcast(ClientRequest::Broadcast {
            group,
            update: StateUpdate::incremental(object, payload),
            scope,
        })
    }

    /// Queries current membership (`getMembership`).
    ///
    /// # Errors
    ///
    /// `NoSuchGroup`, `NotAMember`, or transport failures.
    pub fn membership(&self, group: GroupId) -> Result<Vec<MemberInfo>> {
        match self.call(ClientRequest::GetMembership { group }, |e| {
            matches!(e, ServerEvent::Membership { .. })
        })? {
            ServerEvent::Membership { members, .. } => Ok(members),
            _ => unreachable!("matcher guarantees Membership"),
        }
    }

    /// Requests a state (re-)transfer under `policy` without
    /// re-joining — the reconnection catch-up path.
    ///
    /// # Errors
    ///
    /// `NoSuchGroup`, `NotAMember`, or transport failures.
    pub fn state(&self, group: GroupId, policy: StateTransferPolicy) -> Result<StateTransfer> {
        match self.call(ClientRequest::GetState { group, policy }, |e| {
            matches!(e, ServerEvent::State { .. })
        })? {
            ServerEvent::State { transfer } => Ok(transfer),
            _ => unreachable!("matcher guarantees State"),
        }
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
        match self.call(
            ClientRequest::AcquireLock {
                group,
                object,
                wait,
            },
            |e| {
                matches!(
                    e,
                    ServerEvent::LockGranted { .. } | ServerEvent::LockDenied { .. }
                )
            },
        )? {
            ServerEvent::LockGranted { .. } => Ok(LockResult::Granted),
            ServerEvent::LockDenied { holder, .. } => Ok(LockResult::Denied { holder }),
            _ => unreachable!("matcher guarantees lock reply"),
        }
    }

    /// Releases a lock.
    ///
    /// # Errors
    ///
    /// `LockNotHeld` or transport failures.
    pub fn release_lock(&self, group: GroupId, object: ObjectId) -> Result<()> {
        self.call(ClientRequest::ReleaseLock { group, object }, |e| {
            matches!(e, ServerEvent::LockReleased { .. })
        })
        .map(|_| ())
    }

    /// Requests log reduction through `through` (or a server-chosen
    /// point when `None`). Returns the sequence number reduced through.
    ///
    /// # Errors
    ///
    /// `BadReductionPoint`, `PolicyDenied`, `Unsupported` (stateless
    /// server), or transport failures.
    pub fn reduce_log(&self, group: GroupId, through: Option<SeqNo>) -> Result<SeqNo> {
        match self.call(ClientRequest::ReduceLog { group, through }, |e| {
            matches!(e, ServerEvent::LogReduced { .. })
        })? {
            ServerEvent::LogReduced { through, .. } => Ok(through),
            _ => unreachable!("matcher guarantees LogReduced"),
        }
    }

    /// Round-trip liveness probe. Returns the measured RTT.
    ///
    /// # Errors
    ///
    /// Transport failures or timeout.
    pub fn ping(&self) -> Result<Duration> {
        let started = std::time::Instant::now();
        self.call(
            ClientRequest::Ping {
                nonce: started.elapsed().as_nanos() as u64,
            },
            |e| matches!(e, ServerEvent::Pong { .. }),
        )?;
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
        match self.call(ClientRequest::GetHealth, |e| {
            matches!(e, ServerEvent::Health { .. })
        })? {
            ServerEvent::Health { schema, json } => Ok((schema, json)),
            _ => unreachable!("matcher admits only Health"),
        }
    }

    // ----- event stream -----------------------------------------------------

    /// Blocks for the next asynchronous event (multicast, membership
    /// change, group deletion notice, late lock grant, ...).
    ///
    /// # Errors
    ///
    /// [`CoronaError::Disconnected`] when the connection closes (for a
    /// supervised client: once the driver has exhausted its reconnect
    /// budget).
    pub fn next_event(&self) -> Result<ServerEvent> {
        let events = lock(&self.events_rx);
        events.recv().map_err(|_| CoronaError::Disconnected)
    }

    /// Blocks up to `timeout` for the next asynchronous event.
    ///
    /// # Errors
    ///
    /// [`CoronaError::Timeout`] on expiry, [`CoronaError::Disconnected`]
    /// when closed.
    pub fn next_event_timeout(&self, timeout: Duration) -> Result<ServerEvent> {
        let events = lock(&self.events_rx);
        events.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => CoronaError::Timeout {
                operation: "event stream",
            },
            RecvTimeoutError::Disconnected => CoronaError::Disconnected,
        })
    }

    /// Returns a pending event without blocking.
    pub fn try_event(&self) -> Option<ServerEvent> {
        lock(&self.events_rx).try_recv().ok()
    }

    /// Closes the session: best-effort `Goodbye`, then transport close.
    /// A supervised client's driver stops instead of reconnecting.
    pub fn close(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        let _ = self.send_raw(ClientRequest::Goodbye);
        self.shared.conn().close();
    }

    // ----- internals --------------------------------------------------------

    fn send_raw(&self, request: ClientRequest) -> Result<()> {
        self.shared
            .conn()
            .send(request.encode_to_bytes())
            .map_err(transport_to_corona)
    }

    /// Sends a fire-and-forget broadcast, minting a trace id and
    /// stamping the submit span when tracing is enabled. The token
    /// rides the wire so every later hop joins the same chain.
    fn send_broadcast(&self, request: ClientRequest) -> Result<()> {
        let token = if corona_trace::enabled() {
            let id = corona_trace::next_trace_id();
            let now = corona_trace::now_us();
            corona_trace::record_at(corona_trace::SpanEvent {
                trace: id,
                hop: corona_trace::Hop::ClientSubmit,
                ts_us: now,
                dur_us: 0,
                arg: 0,
            });
            Some(TraceToken {
                id: id.0,
                origin_us: now,
            })
        } else {
            None
        };
        self.shared
            .conn()
            .send(encode_traced(&request, token))
            .map_err(transport_to_corona)
    }

    fn call(
        &self,
        request: ClientRequest,
        matcher: fn(&ServerEvent) -> bool,
    ) -> Result<ServerEvent> {
        let _guard = lock(&self.call_guard);
        let (tx, rx) = mpsc::channel();
        *lock(&self.shared.pending) = Some(Pending { matcher, tx });
        if let Err(e) = self.send_raw(request) {
            lock(&self.shared.pending).take();
            return Err(e);
        }
        match rx.recv_timeout(self.call_timeout) {
            Ok(ServerEvent::Error { code, detail }) => {
                Err(CoronaError::protocol(ErrorCode::from_wire(code), detail))
            }
            Ok(event) => Ok(event),
            Err(RecvTimeoutError::Timeout) => {
                lock(&self.shared.pending).take();
                Err(CoronaError::Timeout {
                    operation: "server reply",
                })
            }
            Err(RecvTimeoutError::Disconnected) => Err(CoronaError::Disconnected),
        }
    }
}

impl Drop for CoronaClient {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.conn().close();
    }
}

impl std::fmt::Debug for CoronaClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoronaClient")
            .field("client_id", &self.client_id)
            .field("server_id", &self.server_id())
            .field("supervised", &self.supervisor.is_some())
            .finish_non_exhaustive()
    }
}

// ----- connection driver ----------------------------------------------------

/// Attaches the client's router to the connection `shared` holds,
/// sends `Hello` and waits up to `timeout` for the `Welcome`: the
/// client's id and its server's. The connection is the handshake's
/// until installed.
fn hello(
    shared: &Arc<Shared>,
    display_name: &str,
    resume: Option<ClientId>,
    timeout: Duration,
) -> Result<(Handshake, ClientId, ServerId)> {
    let conn = shared.conn();
    let handshake = shared.begin(&**conn);
    let hello = ClientRequest::Hello {
        version: PROTOCOL_VERSION,
        display_name: display_name.to_string(),
        resume,
    };
    conn.send(hello.encode_to_bytes())
        .map_err(transport_to_corona)?;
    let welcome = handshake.wait(shared, timeout, |e| {
        matches!(e, ServerEvent::Welcome { .. })
    })?;
    let ServerEvent::Welcome { server, client, .. } = welcome else {
        unreachable!("matcher guarantees Welcome");
    };
    Ok((handshake, client, server))
}

/// The supervised client's driver: sends the gap repairs the router
/// asks for, and reconnects-and-resumes each time the connection drops,
/// until closed or out of budget.
fn supervise(shared: &Arc<Shared>, sup: &Supervisor, orders: &Receiver<Drive>) {
    while let Ok(order) = orders.recv() {
        match order {
            // One asked for before a reconnect is void: the resume
            // resynced the mirror, and no reply would be awaited.
            Drive::Repair(group, policy) if lock(&sup.repairing).contains(&group) => {
                let repair = ClientRequest::GetState { group, policy };
                let _ = shared.conn().send(repair.encode_to_bytes());
            }
            Drive::Repair(..) => {}
            Drive::Lost => {
                lock(&sup.repairing).clear();
                if shared.shutdown.load(Ordering::Acquire) || reconnect(shared, sup).is_err() {
                    break;
                }
                sup.reconnects.inc();
                // Closed mid-resume: the new connection goes too, and
                // its loss ends the loop.
                if shared.shutdown.load(Ordering::Acquire) {
                    shared.conn().close();
                }
            }
        }
    }
    // Budget exhausted (or closed): the event stream ends with
    // Disconnected.
    lock(&shared.events).take();
}

/// SplitMix64: a tiny, well-mixed PRNG step for deterministic jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Backoff before reconnect round `round`: capped exponential plus
/// deterministic jitter in `[0, base)` so a fleet of clients with
/// distinct seeds does not stampede the surviving replicas in phase.
fn backoff_delay(config: &FailoverConfig, round: u32) -> Duration {
    let base_ms = config.base_backoff.as_millis() as u64;
    let exp_ms = base_ms
        .saturating_mul(1u64 << round.min(20))
        .min(config.max_backoff.as_millis() as u64);
    let jitter_ms = match base_ms {
        0 => 0,
        b => splitmix64(config.jitter_seed ^ u64::from(round)) % b,
    };
    Duration::from_millis(exp_ms + jitter_ms)
}

/// Candidate endpoints for a reconnect attempt: the advertised roster
/// (coordinator first), then the seed addresses, deduplicated.
fn candidate_addrs(shared: &Shared, sup: &Supervisor) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    if let Some(roster) = lock(&shared.roster).clone() {
        for (server, addr) in roster
            .servers
            .iter()
            .filter(|(s, _)| *s == roster.coordinator)
            .chain(
                roster
                    .servers
                    .iter()
                    .filter(|(s, _)| *s != roster.coordinator),
            )
        {
            let _ = server;
            if !out.contains(addr) {
                out.push(addr.clone());
            }
        }
    }
    for addr in &sup.seeds {
        if !out.contains(addr) {
            out.push(addr.clone());
        }
    }
    out
}

/// Reconnects with backoff: each round sleeps, then walks every
/// candidate address; the first endpoint that completes a full resume
/// (Hello + re-joins + mirror catch-up) becomes the new connection.
fn reconnect(shared: &Arc<Shared>, sup: &Supervisor) -> Result<()> {
    for round in 0..sup.config.max_rounds {
        let delay = backoff_delay(&sup.config, round);
        sup.backoff_ms.record(delay.as_millis() as u64);
        std::thread::sleep(delay);
        if shared.shutdown.load(Ordering::Acquire) {
            return Err(CoronaError::Disconnected);
        }
        for addr in candidate_addrs(shared, sup) {
            let Ok(conn) = sup.dialer.dial_timeout(&addr, sup.config.connect_timeout) else {
                continue;
            };
            if resume_session(shared, sup, conn).is_ok() {
                return Ok(());
            }
        }
    }
    Err(CoronaError::Disconnected)
}

/// Runs the resume protocol on a candidate connection: `Hello` with
/// the original session id, then one re-`Join` per supervised group
/// with that mirror's `UpdatesSince` catch-up policy, resyncing the
/// mirror from each transfer. Only a fully resumed connection is
/// installed as current.
fn resume_session(shared: &Arc<Shared>, sup: &Supervisor, conn: Box<dyn Connection>) -> Result<()> {
    let timeout = sup.config.connect_timeout;
    let handshake = shared.begin(conn.as_ref());
    conn.send(
        ClientRequest::Hello {
            version: PROTOCOL_VERSION,
            display_name: sup.display_name.clone(),
            resume: Some(sup.client_id),
        }
        .encode_to_bytes(),
    )
    .map_err(transport_to_corona)?;
    let welcome = handshake.wait(shared, timeout, |e| {
        matches!(e, ServerEvent::Welcome { .. })
    })?;
    let ServerEvent::Welcome { server, .. } = welcome else {
        unreachable!("matcher guarantees Welcome");
    };

    // Re-join every supervised group; each Joined carries a transfer
    // under the mirror's catch-up policy which resyncs it (gap repair
    // across the failover). Group params are snapshotted so the mirror
    // locks are never held across a blocking receive.
    let plans: Vec<(GroupId, MemberRole, bool, SharedMirror, StateTransferPolicy)> =
        lock(&sup.groups)
            .iter()
            .map(|sg| {
                (
                    sg.group,
                    sg.role,
                    sg.notify_membership,
                    Arc::clone(&sg.mirror),
                    lock(&sg.mirror).catch_up_policy(),
                )
            })
            .collect();
    for (group, role, notify_membership, mirror, policy) in plans {
        conn.send(
            ClientRequest::Join {
                group,
                role,
                policy,
                notify_membership,
            }
            .encode_to_bytes(),
        )
        .map_err(transport_to_corona)?;
        let joined =
            handshake.wait(shared, timeout, |e| matches!(e, ServerEvent::Joined { .. }))?;
        let ServerEvent::Joined { transfer, .. } = joined else {
            unreachable!("matcher guarantees Joined");
        };
        lock(&mirror).resync(&transfer);
    }

    shared.install(handshake, Arc::new(conn), server);
    Ok(())
}

fn transport_to_corona(e: corona_transport::TransportError) -> CoronaError {
    use corona_transport::TransportError;
    match e {
        TransportError::Closed => CoronaError::Disconnected,
        TransportError::Timeout => CoronaError::Timeout {
            operation: "transport",
        },
        TransportError::Full => CoronaError::Io(std::io::Error::new(
            std::io::ErrorKind::WouldBlock,
            "transmit queue full",
        )),
        TransportError::Io(msg) => CoronaError::Io(std::io::Error::other(msg)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_is_capped_and_jitter_is_deterministic() {
        let config = FailoverConfig {
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            jitter_seed: 42,
            ..FailoverConfig::default()
        };
        let delays: Vec<Duration> = (0..12).map(|r| backoff_delay(&config, r)).collect();
        // Exponential component: strictly non-decreasing until the cap.
        for w in delays.windows(2) {
            assert!(
                w[1] + config.base_backoff >= w[0],
                "backoff collapsed: {delays:?}"
            );
        }
        // Capped: exponential part never exceeds max, jitter < base.
        for d in &delays {
            assert!(*d < config.max_backoff + config.base_backoff, "{delays:?}");
        }
        // Deterministic: same seed, same schedule.
        let again: Vec<Duration> = (0..12).map(|r| backoff_delay(&config, r)).collect();
        assert_eq!(delays, again);
        // A different seed shifts the phase of at least one round.
        let other = FailoverConfig {
            jitter_seed: 43,
            ..config
        };
        assert!((0..12).any(|r| backoff_delay(&other, r) != delays[r as usize]));
    }
}
