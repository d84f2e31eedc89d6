//! The one stepped harness, the DES twin of
//! [`loopback::Cluster::start`](crate::loopback::Cluster::start):
//! [`Lab::start`] steps `n` shipping servers over a [`SimNet`] the
//! caller passes in — one [`CoronaServer`], or a star of
//! [`ReplicatedServer`]s — behind one [`Nemesis`] if it is given one.
//! Every client is a [`ClientSession`] driven through [`Link`], and time
//! advances in the lab's one [`Scheduler`]: the frames, accepts and
//! closes the net delivers, each server's next tick, each session's
//! deadline and the dials it asks for, and a driver's own events.
//!
//! What a harness keeps of its own is a [`Driver`]: its own events, and
//! what it reads, checks or measures after each server turn and each
//! client settle. The sweep's checker ([`cluster`](crate::cluster)),
//! the paper's measuring loop ([`paper`](crate::paper)) and the
//! workspace's allocation count are drivers of this one harness.
//!
//! Server `s` (from 1) is node `s{s}`, listening for clients at
//! [`addr`]`(s, "client")` and for peers at `addr(s, "peer")`; client
//! `c` (from 0) is node `c{c}`.

use crate::engine::{Scheduler, SimTime};
use crate::net::{lock, Delivery, SimNet};
use bytes::Bytes;
use corona_core::{client::Link, session::ClientSession, CoronaServer};
use corona_health::HealthRegistry;
use corona_metrics::{MetricsSnapshot, Registry};
use corona_replication::{ReplicatedConfig, ReplicatedServer};
use corona_transport::{Connection, Dialer, FrameSink, Listener, Nemesis, TransportError};
use corona_types::error::CoronaError;
use corona_types::id::{GroupId, ObjectId, ServerId};
use corona_types::message::{ClientRequest, ServerEvent};
use corona_types::policy::{DeliveryScope, MemberRole, Persistence, StateTransferPolicy};
use corona_types::state::{SharedState, StateUpdate};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};

/// A session's call and handshake timeout: longer than any call takes.
pub const CALL_MS: u64 = 10_000;

/// The node name of server `server`.
pub fn node(server: u64) -> String {
    format!("s{server}")
}

/// Where server `server` listens on `plane`: `"client"` or `"peer"`.
pub fn addr(server: u64, plane: &str) -> String {
    format!("{}-{plane}", node(server))
}

/// A principal's join of `group`, with no state transfer and no
/// membership notices: how a simulated client joins.
pub fn join(group: GroupId) -> ClientRequest {
    ClientRequest::Join {
        group,
        role: MemberRole::Principal,
        policy: StateTransferPolicy::None,
        notify_membership: false,
    }
}

/// `group`, created empty and kept as `persistence` says.
pub fn create(group: GroupId, persistence: Persistence) -> ClientRequest {
    ClientRequest::CreateGroup {
        group,
        persistence,
        initial_state: SharedState::new(),
    }
}

/// A sender-inclusive increment of `object` in `group`.
pub fn broadcast(group: GroupId, object: ObjectId, payload: impl Into<Bytes>) -> ClientRequest {
    ClientRequest::Broadcast {
        group,
        update: StateUpdate::incremental(object, payload),
        scope: DeliveryScope::SenderInclusive,
    }
}

/// Every server's address on `plane`, `s1` first.
pub fn addrs(servers: u64, plane: &str) -> Vec<(ServerId, String)> {
    let addr = |s| (ServerId::new(s), addr(s, plane));
    (1..=servers).map(addr).collect()
}

/// A stepped server, of either kind: the four calls the harness and
/// its drivers make of it.
pub enum SteppedServer {
    /// The lone server of a one-server lab.
    Single(CoronaServer),
    /// One of a replicated star.
    Replica(ReplicatedServer),
}

impl SteppedServer {
    /// One dispatcher turn at `now_ms`: `true` if it handled anything.
    pub fn run_pending(&self, now_ms: u64) -> bool {
        match self {
            SteppedServer::Single(s) => s.run_pending(now_ms),
            SteppedServer::Replica(s) => s.run_pending(now_ms),
        }
    }

    /// When its next tick is due.
    pub fn next_tick_ms(&self) -> u64 {
        match self {
            SteppedServer::Single(s) => s.next_tick_ms(),
            SteppedServer::Replica(s) => s.next_tick_ms(),
        }
    }

    /// Its live metric registry.
    pub fn metrics_registry(&self) -> Arc<Registry> {
        match self {
            SteppedServer::Single(s) => s.metrics_registry(),
            SteppedServer::Replica(s) => s.metrics_registry(),
        }
    }

    /// Its live health registry.
    pub fn health_registry(&self) -> Arc<HealthRegistry> {
        match self {
            SteppedServer::Single(s) => s.health_registry(),
            SteppedServer::Replica(s) => s.health_registry(),
        }
    }
}

/// A client's connection's sink: what arrives goes straight to its
/// session, at the net's time.
struct Feed(Arc<Mutex<ClientSession>>, SimNet);

impl FrameSink for Feed {
    fn on_accept(&self, _conn_id: u64, _conn: Box<dyn Connection>) {}
    fn on_frame(&self, link: u64, frame: Bytes) -> bool {
        lock(&self.0).on_frame(self.1.now() / 1000, link, &frame)
    }
    fn ready_for_more(&self) -> bool {
        true
    }
    fn on_closed(&self, link: u64, _clean: bool) {
        lock(&self.0).on_closed(self.1.now() / 1000, link);
    }
}

/// A client: its session, the connection the session uses and its
/// next deadline.
#[derive(Default)]
struct Client {
    session: Arc<Mutex<ClientSession>>,
    link: Link,
    wake: Option<SimTime>,
}

/// Servers `s1..` and clients `c0..` over one net, and the clock of
/// everything that happens to them; `A` is a driver's own events.
pub struct Lab<A = ()> {
    /// The net everything runs over.
    pub net: SimNet,
    /// The fault plane its links run through, if any.
    pub nem: Option<Nemesis>,
    /// Server `i` is node `s{i + 1}`; a killed one is `None`.
    pub servers: Vec<Option<SteppedServer>>,
    clients: Vec<Client>,
    /// What is due when.
    pub sched: Scheduler<Ev<A>>,
    /// Deliveries scheduled and not yet run.
    in_flight: usize,
    trace: DefaultHasher,
}

impl<A> Lab<A> {
    /// Starts servers `s1..=sn` over `net` — wrapped by `nem`, if
    /// given, whose address book names them — and `clients` clients,
    /// each a session that dials nothing yet. Each server's
    /// configuration, [`ReplicatedConfig::new`] with every peer address,
    /// is passed through `tune` first; a lone server (`n` = 1) is a
    /// [`CoronaServer`] with `tune`'s `server_config`. Every server
    /// ticks from time 0.
    ///
    /// # Panics
    ///
    /// If a server cannot start (a configuration with a storage
    /// directory).
    pub fn start(
        net: SimNet,
        nem: Option<Nemesis>,
        n: u64,
        clients: usize,
        tune: impl Fn(ReplicatedConfig) -> ReplicatedConfig,
    ) -> Lab<A> {
        // Every address is named before anything can dial it.
        if let Some(nem) = &nem {
            for (id, addr) in addrs(n, "client").iter().chain(&addrs(n, "peer")) {
                nem.register_addr(addr, &node(id.raw()));
            }
        }
        let session = |c: usize| ClientSession::new(format!("c{c}"), None, CALL_MS);
        let client = |c| Client {
            session: Arc::new(Mutex::new(session(c))),
            ..Client::default()
        };
        let mut lab = Lab {
            net,
            nem,
            servers: Vec::new(),
            clients: (0..clients).map(client).collect(),
            sched: Scheduler::default(),
            in_flight: 0,
            trace: DefaultHasher::new(),
        };
        let start = |s: u64| -> SteppedServer {
            let name = node(s);
            let listen = |plane: &str| -> Box<dyn Listener> {
                let listener = Box::new(lab.net.listen(&name, &addr(s, plane)));
                match &lab.nem {
                    Some(nem) => nem.wrap_listener(&name, listener),
                    None => listener,
                }
            };
            let config = tune(ReplicatedConfig::new(ServerId::new(s), addrs(n, "peer")));
            let started = if n == 1 {
                let server = CoronaServer::stepped(listen("client"), config.server_config);
                server.map(SteppedServer::Single)
            } else {
                let dialer = Arc::from(lab.dialer(&name));
                ReplicatedServer::stepped(listen("client"), listen("peer"), dialer, config)
                    .map(SteppedServer::Replica)
            };
            started.expect("the sim's listeners push")
        };
        lab.servers = (1..=n).map(|s| Some(start(s))).collect();
        (0..lab.servers.len()).for_each(|i| lab.sched.at(0, Ev::Wake(i)));
        lab
    }

    /// A dialer of `node`'s, through the fault plane if there is one.
    fn dialer(&self, node: &str) -> Box<dyn Dialer> {
        let dialer = Box::new(self.net.dialer(node));
        match &self.nem {
            Some(nem) => nem.wrap_dialer(node, dialer),
            None => dialer,
        }
    }

    /// Every live server's metrics, merged.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        for server in self.servers.iter().flatten() {
            merged.merge(&server.metrics_registry().snapshot());
        }
        merged
    }

    /// Client `c`'s session.
    pub fn session(&self, c: usize) -> MutexGuard<'_, ClientSession> {
        lock(&self.clients[c].session)
    }

    /// Client `c` dials `addr` and hands its session the connection.
    ///
    /// # Errors
    ///
    /// The dial's.
    pub fn dial(&mut self, c: usize, addr: &str, now_ms: u64) -> Result<(), TransportError> {
        let conn = self.dialer(&format!("c{c}")).dial(addr)?;
        let client = &mut self.clients[c];
        let link = lock(&client.session).connected(now_ms);
        let feed = Feed(Arc::clone(&client.session), self.net.clone());
        client.link.install(link, conn, Arc::new(feed));
        Ok(())
    }

    /// Carries out what client `c`'s session asked for: sends its
    /// frames, closes what it is done with, and schedules its deadline
    /// and its dial.
    pub fn settle(&mut self, c: usize) {
        let (client, sched) = (&mut self.clients[c], &mut self.sched);
        let mut session = lock(&client.session);
        let _ = client.link.settle(&mut session, true);
        if let Some(dial) = session.poll_dial() {
            sched.at(dial.not_before_ms * 1000, Ev::Dial(c, dial.addr));
        }
        let wake = session.next_wake_ms().map(|ms| ms * 1000);
        if let Some(at) = wake.filter(|at| client.wake != Some(*at)) {
            client.wake = Some(at);
            sched.at(at, Ev::Tick(c));
        }
    }

    /// Adds `what` to the run's trace.
    pub fn trace(&mut self, what: impl Hash) {
        what.hash(&mut self.trace);
    }

    /// A hash over every event of the run so far, in order.
    pub fn trace_hash(&self) -> u64 {
        self.trace.finish()
    }
}

/// An event of a [`Run`]: the harness's own, or a driver's `Act`.
pub enum Ev<A> {
    /// Something the net delivers.
    Net(Delivery),
    /// Server `i`'s next tick.
    Wake(usize),
    /// Client `c`'s session's deadline.
    Tick(usize),
    /// A dial client `c`'s session asked for.
    Dial(usize, String),
    /// One of the driver's own.
    Act(A),
}

/// What a [`Driver`] may [measure](Driver::measure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// Server `i`'s dispatcher turn on a delivery.
    Turn(usize),
    /// A delivery to client `c`: its session's decode and event queue.
    Deliver(usize),
}

/// What a harness keeps of its own: its events, and what it reads,
/// checks or measures. An `Err` is a broken check, and stops the run.
pub trait Driver {
    /// The driver's own events, traced as they run.
    type Act: Hash;

    /// Handles one of the driver's own events. A session it gives
    /// something to do acts once it is [settled](Lab::settle).
    fn act(&mut self, _lab: &mut Lab<Self::Act>, _act: Self::Act) -> Result<(), String> {
        Ok(())
    }

    /// Live server `i` has been turned until idle.
    fn stepped(&mut self, _lab: &Lab<Self::Act>, _i: usize) -> Result<(), String> {
        Ok(())
    }

    /// Client `c`'s session has been fed something and settled: what
    /// it has handed over is there to read.
    fn settled(&mut self, _lab: &mut Lab<Self::Act>, _c: usize) -> Result<(), String> {
        Ok(())
    }

    /// Whether the servers' ticks can stop: a run with nothing else
    /// scheduled then ends.
    fn done(&self) -> bool {
        false
    }

    /// Runs `work`. A driver that measures what deliveries cost wraps
    /// it; a server's ticks are not work.
    fn measure<T>(&mut self, _work: Work, f: impl FnOnce() -> T) -> T {
        f()
    }
}

/// A harness with no events or checks of its own.
impl Driver for () {
    type Act = ();
}

/// A [`Lab`] and its [`Driver`], under one clock.
pub struct Run<D: Driver> {
    /// The servers, the clients and the clock.
    pub lab: Lab<D::Act>,
    /// The driver.
    pub driver: D,
    /// The first check that failed: when, and what. Nothing runs after.
    pub failed: Option<(SimTime, String)>,
}

impl<D: Driver> Run<D> {
    /// `lab`, driven by `driver`.
    pub fn new(lab: Lab<D::Act>, driver: D) -> Run<D> {
        Run {
            lab,
            driver,
            failed: None,
        }
    }

    /// Runs until nothing is scheduled up to `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) {
        while let Some(event) = self.lab.sched.pop(horizon) {
            self.handle(event);
        }
    }

    /// Runs until nothing the net carries is in flight.
    pub fn settle(&mut self) {
        while self.lab.in_flight > 0 {
            let Some(event) = self.lab.sched.pop(SimTime::MAX) else {
                return;
            };
            self.handle(event);
        }
    }

    /// Gives client `c`'s session `f` to do now, and settles it.
    pub fn with_session<T>(&mut self, c: usize, f: impl FnOnce(&mut ClientSession, u64) -> T) -> T {
        let out = f(&mut self.lab.session(c), self.lab.sched.now() / 1000);
        let settled = self.settle_client(c);
        self.check(settled);
        out
    }

    /// Client `c` connects to server `server`, and its handshake runs.
    ///
    /// # Panics
    ///
    /// If nothing listens there.
    pub fn connect(&mut self, c: usize, server: u64) {
        let now_ms = self.lab.sched.now() / 1000;
        let dialled = self.lab.dial(c, &addr(server, "client"), now_ms);
        dialled.expect("servers listen");
        self.with_session(c, |_, _| ());
        self.settle();
    }

    /// Client `c` calls `request` and waits for its outcome (which the
    /// driver must leave to take).
    ///
    /// # Errors
    ///
    /// The call's.
    pub fn call(&mut self, c: usize, request: ClientRequest) -> Result<ServerEvent, CoronaError> {
        self.with_session(c, |s, now_ms| s.call(now_ms, request, CALL_MS))?;
        self.settle();
        let reply = self.lab.session(c).take_reply();
        reply.unwrap_or(Err(CoronaError::Disconnected))
    }

    /// `clients`, in order, each connect to their server — round-robin
    /// from `s2`, so that on a star client 0 is a forward away from the
    /// coordinator — and join `group`, which the first creates: one at
    /// a time, each once the traffic of the last has landed.
    ///
    /// # Panics
    ///
    /// If a join fails.
    pub fn join_all(&mut self, clients: impl IntoIterator<Item = usize>, group: GroupId) {
        let n = self.lab.servers.len() as u64;
        for (k, c) in clients.into_iter().enumerate() {
            self.connect(c, (c as u64 + 1) % n + 1);
            if k == 0 {
                let created = self.call(c, create(group, Persistence::Persistent));
                created.expect("the group is new");
            }
            let joined = self.call(c, join(group));
            assert!(
                matches!(joined, Ok(ServerEvent::Joined { .. })),
                "c{c}: {joined:?}"
            );
        }
    }

    fn settle_client(&mut self, c: usize) -> Result<(), String> {
        self.lab.settle(c);
        self.driver.settled(&mut self.lab, c)
    }

    /// Turns server `i` until idle, `work` measured, and has it checked.
    fn step(&mut self, i: usize, now: SimTime, work: Option<Work>) -> Result<(), String> {
        let Some(server) = self.lab.servers[i].as_ref() else {
            return Ok(());
        };
        let turn = || while server.run_pending(now / 1000) {};
        match work {
            Some(work) => self.driver.measure(work, turn),
            None => turn(),
        }
        self.driver.stepped(&self.lab, i)
    }

    /// Records a broken check; schedules what the net has due.
    fn check(&mut self, checked: Result<(), String>) {
        if let Err(what) = checked {
            self.failed.get_or_insert((self.lab.sched.now(), what));
        }
        for (at, delivery) in self.lab.net.take_outbox() {
            self.lab.in_flight += 1;
            self.lab.sched.at(at, Ev::Net(delivery));
        }
    }

    fn handle(&mut self, event: Ev<D::Act>) {
        if self.failed.is_some() {
            return;
        }
        let now = self.lab.sched.now();
        self.lab.net.set_now(now);
        self.lab.trace(now);
        let checked = match event {
            Ev::Net(delivery) => {
                self.lab.in_flight -= 1;
                let to = delivery.node();
                let index = to[1..].parse::<usize>().expect("nodes are s<n> and c<n>");
                let server = to.starts_with('s');
                self.lab.trace(&delivery);
                let landed = match server {
                    true => delivery.run(),
                    false => self.driver.measure(Work::Deliver(index), || delivery.run()),
                };
                match (landed, server) {
                    (true, true) => self.step(index - 1, now, Some(Work::Turn(index - 1))),
                    (true, false) => self.settle_client(index),
                    (false, _) => Ok(()),
                }
            }
            Ev::Wake(i) => {
                let stepped = self.step(i, now, None);
                if let Some(server) = self.lab.servers[i].as_ref().filter(|_| !self.driver.done()) {
                    self.lab.sched.at(server.next_tick_ms() * 1000, Ev::Wake(i));
                }
                stepped
            }
            Ev::Tick(c) => {
                self.lab.trace((c, "tick"));
                self.lab.session(c).tick(now / 1000);
                self.settle_client(c)
            }
            Ev::Dial(c, addr) => {
                self.lab.trace((c, &addr));
                if let Err(e) = self.lab.dial(c, &addr, now / 1000) {
                    self.lab.session(c).dial_failed(now / 1000, e.into());
                }
                self.settle_client(c)
            }
            Ev::Act(act) => {
                self.lab.trace((&act, "act"));
                self.driver.act(&mut self.lab, act)
            }
        };
        self.check(checked);
    }
}
