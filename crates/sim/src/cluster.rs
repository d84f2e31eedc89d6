//! Whole replicated clusters under the DES clock: the real
//! [`ReplicatedServer`]s, stepped, over the virtual-time [`SimNet`]
//! wrapped by the real [`Nemesis`], with scripted codec-level clients
//! and a checker that runs after every event.
//!
//! Nothing here decides anything the protocol decides — no lease, no
//! fence, no election, no merge. The harness schedules (a [`Scenario`]
//! is a list of timed [`Action`]s: client sends and the chaos matrix's
//! own [`NemesisEvent`]s), delivers (frames, accepts, closes and each
//! server's next tick, in virtual-time order) and checks:
//!
//! * every client is handed its group's updates in sequence order, each
//!   once — a lower number again only from a server that reconciled a
//!   divergent copy after a heal (the retraction replay);
//! * a coordinator that has fenced itself sequences nothing;
//! * a server whose rank-scaled election timeout exceeds the lease wins
//!   no election while the coordinator it deposes is still unfenced;
//! * every dispatcher inbox and transmit queue stays within its bound;
//! * at the end, if the scenario says so, all clients' last-wins views
//!   are one gap-free stream.
//!
//! A run is a pure function of `(scenario, seed)`: the seed feeds the
//! nemesis' fault generator and the links' jitter, and
//! [`Outcome::trace_hash`] covers every event. A [`Failure`] prints the
//! schedule it ran, which together with the seed replays it.

use crate::engine::{Scheduler, SimModel, SimTime, Simulation};
use crate::net::{lock, Delivery, SimNet};
use bytes::Bytes;
use corona_core::kernel::SINK_QUEUE_HWM;
use corona_core::mirror::{ApplyOutcome, GroupMirror};
use corona_core::ServerConfig;
use corona_health::OpsEvent;
use corona_metrics::{Counter, Gauge, Registry};
use corona_replication::{ReplicaStatus, ReplicatedConfig, ReplicatedServer};
use corona_transport::{Connection, Dialer, FrameSink, LinkFaults, Nemesis, NemesisEvent};
use corona_types::id::{ClientId, GroupId, ObjectId, ServerId};
use corona_types::message::{ClientRequest, ServerEvent, PROTOCOL_VERSION};
use corona_types::policy::{DeliveryScope, MemberRole, Persistence, StateTransferPolicy};
use corona_types::state::{LoggedUpdate, SharedState, StateUpdate};
use corona_types::wire::{decode_traced, encode_traced};
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// The one group and object every scenario uses, its scripted clients
/// `c0..`, and every cluster's [`ReplicatedConfig::heartbeat_ms`].
const G: GroupId = GroupId(1);
const O: ObjectId = ObjectId(1);
const CLIENTS: usize = 3;
const HEARTBEAT_MS: u64 = 30;

/// One more invariant for [`run_with`]: called with a client's index
/// and everything it has been handed, each time that grows.
pub type Invariant = dyn Fn(usize, &[(u64, String)]) -> Result<(), String>;

/// One scripted step.
#[derive(Debug, Clone)]
pub enum Action {
    /// A fault, in the chaos matrix's vocabulary. `delay_ms` becomes
    /// link latency; nothing sleeps.
    Fault(NemesisEvent),
    /// Fail-stop: [`NemesisEvent::Crash`] of the server's node, and the
    /// server is gone.
    Kill(u64),
    /// The client dials the server and says `Hello` — resuming its
    /// session, if it has had one.
    Connect(usize, u64),
    /// The client creates the group.
    Create(usize),
    /// The client joins the group — with its mirror's catch-up policy,
    /// if it has joined before.
    Join(usize),
    /// The client broadcasts an update carrying this tag.
    Broadcast(usize, u32),
}

/// A cluster, a script and what to expect of them.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Servers `s1..=sN`, in startup order: `s1` coordinates first.
    pub servers: u64,
    /// [`ReplicatedConfig::base_timeout_ms`].
    pub base_timeout_ms: u64,
    /// What happens when, in microseconds.
    pub script: Vec<(SimTime, Action)>,
    /// When the run ends.
    pub end: SimTime,
    /// Whether every joined client must end with the same gap-free
    /// view. A scenario hunting a known, unfixed loss says no, and
    /// reads [`Outcome::unmet`].
    pub converges: bool,
}

/// An invariant broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The seed of the run.
    pub seed: u64,
    /// Virtual time of the event after which the check failed.
    pub at: SimTime,
    /// What failed.
    pub what: String,
    /// The script that ran, for the replay.
    pub schedule: Vec<(SimTime, String)>,
}

impl Failure {
    /// `what` went wrong `at` that time of `scenario` under `seed`.
    pub fn new(scenario: &Scenario, seed: u64, at: SimTime, what: String) -> Failure {
        let describe = |(at, action): &(SimTime, Action)| (*at, format!("{action:?}"));
        Failure {
            seed,
            at,
            what,
            schedule: scenario.script.iter().map(describe).collect(),
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "seed {}: at {} us: {}", self.seed, self.at, self.what)?;
        for (at, action) in &self.schedule {
            writeln!(f, "  {at:>9} us  {action}")?;
        }
        Ok(())
    }
}

/// What one server did.
#[derive(Debug, Clone, Default)]
pub struct ServerOutcome {
    /// When it first fenced itself, and first won an election.
    pub fenced_at: Option<SimTime>,
    /// See `fenced_at`.
    pub elected_at: Option<SimTime>,
    /// Its last status; `None` if it was killed.
    pub status: Option<ReplicaStatus>,
    /// `repl.fenced.rejects`: writes refused while fenced.
    pub rejected: u64,
    /// Entries its heal-time reconciliations discarded.
    pub discarded: u64,
    /// Every ops event its health plane emitted, stamped in virtual ms.
    pub ops: Vec<OpsEvent>,
}

/// What a run that broke no invariant saw.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// A hash over every event of the run, in order.
    pub trace_hash: u64,
    /// Per client: every update handed to it, in arrival order, as
    /// `(seq, payload)`.
    pub raw: Vec<Vec<(u64, String)>>,
    /// Per client: the sequence numbers its mirror applied, in order.
    pub applied: Vec<Vec<u64>>,
    /// Per client: its final view, the last delivery per sequence
    /// number.
    pub views: Vec<Vec<(u64, String)>>,
    /// Per server, `s1` first.
    pub servers: Vec<ServerOutcome>,
    /// End-of-run expectations not met (always empty when the scenario
    /// [converges](Scenario::converges): that is a [`Failure`] then).
    pub unmet: Vec<String>,
}

/// A client's receiving end: frames wait here until the harness reads
/// them, right after the delivery that brought them.
#[derive(Default)]
struct Mailbox {
    frames: Mutex<Vec<Bytes>>,
    closed: AtomicBool,
}

impl FrameSink for Mailbox {
    fn on_accept(&self, _conn_id: u64, _conn: Box<dyn Connection>) {}
    fn on_frame(&self, _conn_id: u64, frame: Bytes) -> bool {
        lock(&self.frames).push(frame);
        true
    }
    fn ready_for_more(&self) -> bool {
        true
    }
    fn on_closed(&self, _conn_id: u64, _clean: bool) {
        self.closed.store(true, Ordering::Relaxed);
    }
}

/// A scripted client's connection: encoded requests out, a mailbox in.
pub(crate) struct Wire {
    conn: Box<dyn Connection>,
    mailbox: Arc<Mailbox>,
}

impl Wire {
    /// Dials `addr`; `None` if nothing listens there.
    pub(crate) fn dial(dialer: &dyn Dialer, addr: &str) -> Option<Wire> {
        let conn = dialer.dial(addr).ok()?;
        let mailbox = Arc::new(Mailbox::default());
        conn.attach_sink(0, Arc::clone(&mailbox) as Arc<dyn FrameSink>);
        Some(Wire { conn, mailbox })
    }

    pub(crate) fn send(&self, request: &ClientRequest) {
        let _ = self.conn.send(encode_traced(request, None));
    }

    /// What has arrived since the last call, and whether the connection
    /// has closed.
    pub(crate) fn take(&self) -> (Vec<Bytes>, bool) {
        let frames = std::mem::take(&mut *lock(&self.mailbox.frames));
        (frames, self.mailbox.closed.load(Ordering::Relaxed))
    }
}

#[derive(Default)]
struct Client {
    conn: Option<Wire>,
    id: Option<ClientId>,
    home: u64,
    /// Whether it has ever asked to join, whether that is still to be
    /// answered, and what it holds if it was.
    asked: bool,
    awaiting: bool,
    mirror: Option<GroupMirror>,
    /// The last update handed over in this session, for the order check.
    last: u64,
    raw: Vec<(u64, String)>,
    applied: Vec<u64>,
}

struct Server {
    server: ReplicatedServer,
    sequenced: Arc<Counter>,
    rejected: Arc<Counter>,
    reconciled: Arc<Counter>,
    inbox_depth: Arc<Gauge>,
    queue_hwm: Arc<Gauge>,
    send_capacity: i64,
    /// As of its last step.
    status: ReplicaStatus,
    sequenced_then: u64,
}

enum Ev {
    Net(Delivery),
    Wake(usize),
    Act(usize),
}

struct World<'a> {
    scenario: &'a Scenario,
    extra: &'a Invariant,
    net: SimNet,
    nem: Nemesis,
    servers: Vec<Option<Server>>,
    outcomes: Vec<ServerOutcome>,
    clients: Vec<Client>,
    trace: DefaultHasher,
    failed: Option<(SimTime, String)>,
}

fn node(server: u64) -> String {
    format!("s{server}")
}

impl World<'_> {
    fn send(&mut self, c: usize, request: &ClientRequest) {
        if let Some(wire) = &self.clients[c].conn {
            wire.send(request);
        }
    }

    fn act(&mut self, action: &Action) {
        match action {
            Action::Fault(event) => {
                // The delay is the pipe's to model, per pair (no
                // schedule delays the default mix); the rest is the
                // nemesis' own code.
                let strip = |faults: &LinkFaults| LinkFaults {
                    delay_ms: 0,
                    ..*faults
                };
                let event = match event {
                    NemesisEvent::SetLinkFaults { a, b, faults } => {
                        self.net.set_delay(a, b, faults.delay_ms * 1000);
                        NemesisEvent::SetLinkFaults {
                            a: a.clone(),
                            b: b.clone(),
                            faults: strip(faults),
                        }
                    }
                    NemesisEvent::SetDefaultFaults(faults) => {
                        NemesisEvent::SetDefaultFaults(strip(faults))
                    }
                    other => other.clone(),
                };
                self.nem.apply(event);
            }
            Action::Kill(s) => {
                self.nem.apply(NemesisEvent::Crash(node(*s)));
                self.servers[*s as usize - 1] = None;
            }
            Action::Connect(c, s) => {
                let name = format!("c{c}");
                let dialer = self
                    .nem
                    .wrap_dialer(&name, Box::new(self.net.dialer(&name)));
                let Some(wire) = Wire::dial(&*dialer, &format!("{}-client", node(*s))) else {
                    return;
                };
                let client = &mut self.clients[*c];
                client.conn = Some(wire);
                client.home = *s;
                let hello = ClientRequest::Hello {
                    version: PROTOCOL_VERSION,
                    display_name: name,
                    resume: client.id,
                };
                self.send(*c, &hello);
            }
            Action::Create(c) => self.send(
                *c,
                &ClientRequest::CreateGroup {
                    group: G,
                    persistence: Persistence::Persistent,
                    initial_state: SharedState::new(),
                },
            ),
            Action::Join(c) => {
                (self.clients[*c].asked, self.clients[*c].awaiting) = (true, true);
                let mirror = self.clients[*c].mirror.as_ref();
                let policy = mirror.map_or(StateTransferPolicy::None, GroupMirror::catch_up_policy);
                let join = ClientRequest::Join {
                    group: G,
                    role: MemberRole::Principal,
                    policy,
                    notify_membership: false,
                };
                self.send(*c, &join);
            }
            Action::Broadcast(c, tag) => self.send(
                *c,
                &ClientRequest::Broadcast {
                    group: G,
                    update: StateUpdate::incremental(O, format!("c{c}-{tag};")),
                    scope: DeliveryScope::SenderInclusive,
                },
            ),
        }
    }

    /// Reads what a delivery brought client `c`, checking the order of
    /// what it is handed as it goes.
    fn read_mail(&mut self, c: usize) -> Result<(), String> {
        let Some(wire) = &self.clients[c].conn else {
            return Ok(());
        };
        let (frames, closed) = wire.take();
        // Only a server that reconciled a divergent copy may hand a
        // client a number it has been handed before: the retraction.
        let home = self.servers[self.clients[c].home as usize - 1].as_ref();
        let reconciled = home.is_some_and(|s| s.reconciled.get() > 0);
        let (client, trace, extra) = (&mut self.clients[c], &mut self.trace, self.extra);
        let mut hand = |client: &mut Client, update: &LoggedUpdate| -> Result<(), String> {
            let seq = update.seq.0;
            if seq != client.last + 1 && !(seq <= client.last && reconciled) {
                let (last, raw) = (client.last, &client.raw);
                return Err(format!("c{c} was handed {seq} after {last}: {raw:?}"));
            }
            client.last = seq;
            let payload = String::from_utf8_lossy(&update.update.payload).into_owned();
            (c, seq, &payload).hash(trace);
            client.raw.push((seq, payload));
            extra(c, &client.raw)
        };
        for frame in frames {
            let (event, _) = decode_traced::<ServerEvent>(&frame)
                .map_err(|e| format!("c{c} cannot decode a server frame: {e}"))?;
            match &event {
                ServerEvent::Welcome { client: id, .. } => client.id = Some(*id),
                // (A duplicating link can answer one join twice.)
                ServerEvent::Joined { transfer, .. } if std::mem::take(&mut client.awaiting) => {
                    // The catch-up of a resumed session is handed over
                    // like live traffic; the session then goes on from
                    // where the transfer ends.
                    let had = client.mirror.as_ref().map(GroupMirror::last_seq);
                    for update in transfer.updates.iter().filter(|u| Some(u.seq) > had) {
                        hand(client, update)?;
                        client.applied.push(update.seq.0);
                    }
                    match &mut client.mirror {
                        Some(mirror) => mirror.resync(transfer),
                        None => client.mirror = Some(GroupMirror::from_transfer(transfer)),
                    }
                    client.last = transfer.through.0;
                }
                ServerEvent::Multicast { logged, .. } => {
                    hand(client, logged)?;
                    let mirror = client.mirror.as_mut().ok_or("multicast before Joined")?;
                    if mirror.apply_event(&event) == ApplyOutcome::Applied {
                        client.applied.push(logged.seq.0);
                    }
                }
                _ => {}
            }
        }
        if closed {
            client.conn = None;
        }
        Ok(())
    }

    /// Turns server `i`'s dispatcher until it has nothing to do, then
    /// checks what only a step of that server can have changed.
    fn step(&mut self, i: usize, now: SimTime) -> Result<(), String> {
        let Some(s) = self.servers[i].as_mut() else {
            return Ok(());
        };
        while s.server.run_pending(now / 1000) {}
        let status = s.server.status().map_err(|e| e.to_string())?;
        let sequenced = s.sequenced.get();
        if s.status.fenced && status.fenced && sequenced > s.sequenced_then {
            return Err(format!("s{} sequenced while fenced", i + 1));
        }
        if s.inbox_depth.get() > SINK_QUEUE_HWM as i64 {
            return Err(format!("s{}'s inbox is past its bound", i + 1));
        }
        if s.queue_hwm.get() > s.send_capacity {
            return Err(format!("a transmit queue of s{} is past its bound", i + 1));
        }
        let (was, out) = (s.status.clone(), &mut self.outcomes[i]);
        s.sequenced_then = sequenced;
        s.status = status.clone();
        if status.fenced && !was.fenced {
            out.fenced_at.get_or_insert(now);
        }
        if status.is_coordinator && !was.is_coordinator {
            out.elected_at.get_or_insert(now);
            return self.check_fence_before_elect(i, &status);
        }
        Ok(())
    }

    /// Server `i` has just won `won.epoch`. If it had to wait longer
    /// than a lease for that — rank 1 or more among the deposed
    /// coordinator's followers — the deposed one must have fenced.
    fn check_fence_before_elect(&self, i: usize, won: &ReplicaStatus) -> Result<(), String> {
        for (j, other) in self.servers.iter().enumerate() {
            let Some(other) = other.as_ref().filter(|_| j != i) else {
                continue;
            };
            let old = &other.status;
            let followers = (0..self.servers.len()).filter(|s| *s != j);
            let rank = followers.take_while(|s| *s != i).count();
            if old.is_coordinator && old.epoch < won.epoch && !old.fenced && rank >= 1 {
                return Err(format!(
                    "s{} won epoch {} at rank {rank} while s{} had not fenced",
                    i + 1,
                    won.epoch.0,
                    j + 1
                ));
            }
        }
        Ok(())
    }

    fn views(&self) -> Vec<Vec<(u64, String)>> {
        let last_wins = |c: &Client| -> Vec<(u64, String)> {
            let view: BTreeMap<u64, String> = c.raw.iter().cloned().collect();
            view.into_iter().collect()
        };
        self.clients.iter().map(last_wins).collect()
    }

    /// The end-of-run expectation: every join answered, and one
    /// gap-free stream, seen to its end — from wherever they joined it —
    /// by every client that is still a connected member.
    fn unconverged(&self) -> Vec<String> {
        let views = self.views();
        let tail = |c: usize| self.clients[c].last;
        let longest = (0..views.len())
            .max_by_key(|c| views[*c].len())
            .unwrap_or(0);
        let mut unmet = Vec::new();
        for (c, client) in self.clients.iter().enumerate() {
            if client.conn.is_none() || !client.asked {
                continue;
            }
            let first = views[c].first().map_or(1, |(seq, _)| *seq);
            let seqs = views[c].iter().map(|(seq, _)| *seq);
            if client.mirror.is_none() {
                unmet.push(format!("c{c}'s join was never answered"));
            } else if !seqs.eq(first..first + views[c].len() as u64) {
                unmet.push(format!("c{c}'s view has a gap: {:?}", views[c]));
            } else if !views[longest].ends_with(&views[c]) || tail(c) != tail(longest) {
                unmet.push(format!("c{c} and c{longest} differ: {views:?}"));
            }
        }
        unmet
    }
}

impl SimModel for World<'_> {
    type Event = Ev;

    fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
        if self.failed.is_some() {
            return;
        }
        let now = sched.now();
        self.net.set_now(now);
        now.hash(&mut self.trace);
        let checked = match event {
            Ev::Net(delivery) => {
                let to = delivery.node();
                let index = to[1..].parse::<usize>().expect("nodes are s<n> and c<n>");
                let server = to.starts_with('s');
                delivery.hash(&mut self.trace);
                delivery.run();
                if server {
                    self.step(index - 1, now)
                } else {
                    self.read_mail(index)
                }
            }
            Ev::Wake(i) => {
                let stepped = self.step(i, now);
                if let Some(s) = &self.servers[i] {
                    sched.at(s.server.next_tick_ms() * 1000, Ev::Wake(i));
                }
                stepped
            }
            Ev::Act(k) => {
                let action = &self.scenario.script[k].1;
                (k, "act").hash(&mut self.trace);
                self.act(action);
                Ok(())
            }
        };
        if let Err(what) = checked {
            self.failed = Some((now, what));
        }
        for (at, delivery) in self.net.take_outbox() {
            sched.at(at, Ev::Net(delivery));
        }
    }
}

/// Runs `scenario` under `seed`, checking every invariant after every
/// event.
///
/// # Errors
///
/// The [`Failure`] of the first invariant to break.
pub fn run(scenario: &Scenario, seed: u64) -> Result<Outcome, Failure> {
    run_with(scenario, seed, &|_, _| Ok(()))
}

/// [`run`], with one more invariant.
///
/// # Errors
///
/// As [`run`].
pub fn run_with(scenario: &Scenario, seed: u64, extra: &Invariant) -> Result<Outcome, Failure> {
    let registry = Registry::new();
    let nem = Nemesis::new(seed, &registry);
    let net = SimNet::new(seed);
    let ids = || (1..=scenario.servers).map(ServerId::new);
    let addrs = |plane: &str| -> Vec<(ServerId, String)> {
        ids()
            .map(|id| (id, format!("{}-{plane}", node(id.raw()))))
            .collect()
    };
    // Every address is named before anything can dial it.
    for (id, addr) in addrs("client").iter().chain(&addrs("peer")) {
        nem.register_addr(addr, &node(id.raw()));
    }
    let start = |id: ServerId| -> Option<Server> {
        let name = node(id.raw());
        let listen = |plane: &str| {
            let listener = net.listen(&name, &format!("{name}-{plane}"));
            nem.wrap_listener(&name, Box::new(listener))
        };
        let config = ReplicatedConfig {
            servers: addrs("peer"),
            client_addrs: addrs("client"),
            heartbeat_ms: HEARTBEAT_MS,
            base_timeout_ms: scenario.base_timeout_ms,
            server_config: ServerConfig::stateful(id),
        };
        let send_capacity = config.server_config.send_queue_capacity as i64;
        let dialer = nem.wrap_dialer(&name, Box::new(net.dialer(&name)));
        let server =
            ReplicatedServer::stepped(listen("client"), listen("peer"), Arc::from(dialer), config)
                .expect("the sim's listeners push");
        let metrics = server.metrics_registry();
        Some(Server {
            status: server.status().expect("stepped servers answer at once"),
            server,
            sequenced: metrics.counter("core.broadcasts"),
            rejected: metrics.counter("repl.fenced.rejects"),
            reconciled: metrics.counter("repl.reconciled.groups"),
            inbox_depth: metrics.gauge("server.queue.depth"),
            queue_hwm: metrics.gauge("server.fanout.queue_hwm"),
            send_capacity,
            sequenced_then: 0,
        })
    };
    let servers: Vec<Option<Server>> = ids().map(start).collect();
    let mut sim = Simulation::new(World {
        scenario,
        extra,
        net,
        nem,
        outcomes: vec![ServerOutcome::default(); servers.len()],
        clients: (0..CLIENTS).map(|_| Client::default()).collect(),
        servers,
        trace: DefaultHasher::new(),
        failed: None,
    });
    for i in 0..scenario.servers as usize {
        sim.seed(0, Ev::Wake(i));
    }
    for (k, (at, _)) in scenario.script.iter().enumerate() {
        sim.seed(*at, Ev::Act(k));
    }
    sim.run_until(scenario.end);
    let mut world = sim.into_model();
    let unmet = world.unconverged();
    if let (None, true, Some(first)) = (&world.failed, scenario.converges, unmet.first()) {
        world.failed = Some((scenario.end, first.clone()));
    }
    if let Some((at, what)) = world.failed {
        return Err(Failure::new(scenario, seed, at, what));
    }
    for (out, server) in world.outcomes.iter_mut().zip(&world.servers) {
        let Some(s) = server else { continue };
        out.status = Some(s.status.clone());
        out.rejected = s.rejected.get();
        out.ops = s.server.health_registry().ops_events();
        let repaired = out.ops.iter().filter(|e| e.kind == "divergence_repaired");
        out.discarded = repaired.map(|e| e.value).sum();
    }
    Ok(Outcome {
        trace_hash: world.trace.finish(),
        views: world.views(),
        raw: world.clients.iter().map(|c| c.raw.clone()).collect(),
        applied: world.clients.iter().map(|c| c.applied.clone()).collect(),
        servers: world.outcomes,
        unmet,
    })
}
