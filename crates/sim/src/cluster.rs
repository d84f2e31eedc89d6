//! The sweep: whole replicated clusters under the DES clock, on the
//! [stepped harness](crate::stepped) — the real, stepped
//! `ReplicatedServer`s over the virtual-time [`SimNet`] wrapped by the
//! real [`Nemesis`], with the real client protocol (a [`ClientSession`]
//! per client).
//!
//! Nothing here decides anything the protocol decides — no lease, no
//! fence, no election, no merge, no reconnect. What is the sweep's own
//! is the schedule (a [`Scenario`] is a list of timed [`Action`]s:
//! client commands and the fault plane's own [`NemesisEvent`]s) and a
//! checker that runs after every event the harness delivers, and checks
//! what the sessions hand over:
//!
//! * every client is handed its group's updates in sequence order, each
//!   once — a lower number again only from a server that reconciled a
//!   divergent copy after a heal (the retraction replay);
//! * a coordinator that has fenced itself sequences nothing;
//! * a server whose rank-scaled election timeout exceeds the lease wins
//!   no election while the coordinator it deposes is still unfenced;
//! * every dispatcher inbox and transmit queue stays within its bound;
//! * at the end, if the scenario says so, all clients' last-wins views
//!   are one gap-free stream, and every client that reconnects by
//!   itself is connected, its mirror that whole stream.
//!
//! A run is a pure function of `(scenario, seed)`: the seed feeds the
//! nemesis' fault generator, the links' jitter and the sessions'
//! backoff, and [`Outcome::trace_hash`] covers every event. A
//! [`Failure`] prints the schedule it ran, which with the seed replays it.

use crate::engine::SimTime;
use crate::net::{lock, SimNet};
use crate::stepped::{self, addr, addrs, node, Driver, Ev, Lab, Run, SteppedServer, CALL_MS};
use bytes::Bytes;
use corona_core::kernel::SINK_QUEUE_HWM;
use corona_core::session::ClientSession;
use corona_core::FailoverConfig;
use corona_health::OpsEvent;
use corona_metrics::{Counter, Gauge, MetricsSnapshot, Registry};
use corona_replication::{ReplicaStatus, ReplicatedConfig};
use corona_transport::{LinkFaults, Nemesis, NemesisEvent, DEFAULT_SEND_CAPACITY};
use corona_types::error::{CoronaError, ErrorCode};
use corona_types::id::{GroupId, ObjectId};
use corona_types::message::ServerEvent;
use corona_types::policy::Persistence;
use corona_types::state::LoggedUpdate;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// The one group and object every scenario uses, its clients `c0..`,
/// and every cluster's [`ReplicatedConfig::heartbeat_ms`].
const G: GroupId = GroupId(1);
const O: ObjectId = ObjectId(1);
const CLIENTS: usize = 3;
const HEARTBEAT_MS: u64 = 30;

/// A failover session's dial and handshake-step timeout: many link
/// latencies, yet a candidate that does not answer (one still following
/// a dead coordinator) is given up well within the run. (A plain
/// session's call and handshake timeout is longer than any run.)
const CONNECT_TIMEOUT_MS: u64 = 100;

/// One more invariant for [`run_with`]: called with a client's index
/// and everything it has been handed, each time that grows.
pub type Invariant = dyn Fn(usize, &[(u64, String)]) -> Result<(), String>;

/// One scripted step.
#[derive(Debug, Clone)]
pub enum Action {
    /// A fault, in the fault plane's own vocabulary. `delay_ms` becomes
    /// link latency; nothing sleeps.
    Fault(NemesisEvent),
    /// A [`NemesisEvent::Partition`] of whichever server acts as
    /// coordinator — of the highest epoch, as of its last step — from
    /// the rest. If none does, the run's end-of-run expectation is
    /// unmet.
    IsolateCoordinator,
    /// Fail-stop: [`NemesisEvent::Crash`] of the server's node, and the
    /// server is gone.
    Kill(u64),
    /// The client dials the server and hands its session the
    /// connection, which says `Hello` — resuming, if it has had one —
    /// and re-joins what it has joined.
    Connect(usize, u64),
    /// The client connects with failover over every server, `s1` first:
    /// its session asks to dial them itself and, after a loss,
    /// reconnects and resumes by itself, with its seeded backoff.
    ConnectFailover(usize),
    /// The client creates the group.
    Create(usize),
    /// The client joins the group (a supervised join: its session keeps
    /// the mirror) — with its mirror's catch-up policy, if it has joined
    /// before.
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
    /// The epoch every live server must end at, at least: the elections
    /// the script forces. Part of the end-of-run expectation.
    pub min_epoch: u64,
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
    /// Per client: the sequence numbers its mirror applied, in order
    /// (read off its object).
    pub applied: Vec<Vec<u64>>,
    /// Per client: its final view, the last delivery per sequence
    /// number.
    pub views: Vec<Vec<(u64, String)>>,
    /// Per server, `s1` first.
    pub servers: Vec<ServerOutcome>,
    /// End-of-run expectations not met (always empty when the scenario
    /// [converges](Scenario::converges): that is a [`Failure`] then).
    pub unmet: Vec<String>,
    /// Per client: its session's `client.reconnects`.
    pub reconnects: Vec<u64>,
    /// Per client: the `Error { Unavailable }`s it was handed — writes a
    /// fenced server refused.
    pub unavailable: Vec<u64>,
    /// The nemesis' `server.nemesis.*` counters: the faults it injected.
    pub nemesis: MetricsSnapshot,
}

/// What the checker saw of a client: whether it has asked to join, and
/// whether it reconnects by itself; the last update handed over, and
/// everything handed.
#[derive(Default)]
struct Client {
    asked: bool,
    supervised: bool,
    registry: Arc<Registry>,
    last: u64,
    raw: Vec<(u64, String)>,
    unavailable: u64,
}

impl Client {
    /// Checks one update handed to the application — in order, or a
    /// retraction by a `reconciled` server — and records it.
    fn hand(&mut self, c: usize, update: &LoggedUpdate, reconciled: bool) -> Result<(), String> {
        let seq = update.seq.0;
        if seq != self.last + 1 && !(seq <= self.last && reconciled) {
            let (last, raw) = (self.last, &self.raw);
            return Err(format!("c{c} was handed {seq} after {last}: {raw:?}"));
        }
        self.last = seq;
        let payload = String::from_utf8_lossy(&update.update.payload).into_owned();
        self.raw.push((seq, payload));
        Ok(())
    }
}

/// What the checker watches of a live server.
struct Server {
    sequenced: Arc<Counter>,
    rejected: Arc<Counter>,
    reconciled: Arc<Counter>,
    inbox_depth: Arc<Gauge>,
    queue_hwm: Arc<Gauge>,
    /// As of its last step.
    status: ReplicaStatus,
    sequenced_then: u64,
}

/// The sweep's driver: the script, and the checker.
struct World<'a> {
    scenario: &'a Scenario,
    seed: u64,
    extra: &'a Invariant,
    servers: Vec<Option<Server>>,
    outcomes: Vec<ServerOutcome>,
    clients: Vec<Client>,
    /// Scripted actions that found nothing to act on.
    misfired: Vec<String>,
}

/// A partition of `s{alone}` from the other `servers - 1`.
pub(crate) fn isolation(alone: u64, servers: u64) -> NemesisEvent {
    let rest = (1..=servers).filter(|s| *s != alone).map(node);
    NemesisEvent::Partition(vec![vec![node(alone)], rest.collect()])
}

/// The sweep's fault plane.
fn nem(lab: &Lab<usize>) -> &Nemesis {
    lab.nem.as_ref().expect("the sweep's lab is faulted")
}

impl World<'_> {
    fn act_on(&mut self, lab: &mut Lab<usize>, action: &Action, now_ms: u64) {
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
                        lab.net.set_delay(a, b, faults.delay_ms * 1000);
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
                nem(lab).apply(event);
            }
            Action::IsolateCoordinator => {
                let live = self.servers.iter().flatten().map(|s| &s.status);
                let acting = live
                    .filter(|st| st.is_coordinator)
                    .max_by_key(|st| st.epoch);
                if let Some(acting) = acting {
                    let alone = acting.me.raw();
                    nem(lab).apply(isolation(alone, self.scenario.servers));
                } else {
                    let what = format!("no coordinator to isolate at {now_ms} ms");
                    self.misfired.push(what);
                }
            }
            Action::Kill(s) => {
                nem(lab).apply(NemesisEvent::Crash(node(*s)));
                self.servers[*s as usize - 1] = None;
                lab.servers[*s as usize - 1] = None;
            }
            // Nothing listens at a killed server's address.
            Action::Connect(c, s) => drop(lab.dial(*c, &addr(*s, "client"), now_ms)),
            Action::ConnectFailover(c) => {
                let client = &mut self.clients[*c];
                let config = FailoverConfig {
                    connect_timeout: Duration::from_millis(CONNECT_TIMEOUT_MS),
                    jitter_seed: self.seed ^ *c as u64,
                    registry: Some(Arc::clone(&client.registry)),
                    ..FailoverConfig::default()
                };
                let seeds = (1..=self.scenario.servers).map(|s| addr(s, "client"));
                let session =
                    ClientSession::supervised(format!("c{c}"), seeds.collect(), config, now_ms);
                *lab.session(*c) = session;
                client.supervised = true;
            }
            Action::Create(c) => {
                let create = stepped::create(G, Persistence::Persistent);
                let _ = lab.session(*c).call(now_ms, create, CALL_MS);
            }
            Action::Join(c) => {
                self.clients[*c].asked = true;
                let _ = lab
                    .session(*c)
                    .join_supervised(now_ms, stepped::join(G), CALL_MS);
            }
            Action::Broadcast(c, tag) => {
                let broadcast = stepped::broadcast(G, O, format!("c{c}-{tag};"));
                let _ = lab.session(*c).broadcast(&broadcast);
            }
        }
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

    /// The end-of-run expectation: every scripted action fired; every
    /// live server at [`Scenario::min_epoch`] or later; every join
    /// answered; one gap-free
    /// stream, seen to its end — from wherever they joined it — by every
    /// client that is still a connected member; and every client that
    /// reconnects by itself connected, its mirror the whole stream.
    fn unconverged(&self, lab: &Lab<usize>) -> Vec<String> {
        let views = self.views();
        let tail = |c: usize| self.clients[c].last;
        let longest = (0..views.len())
            .max_by_key(|c| views[*c].len())
            .unwrap_or(0);
        let mut unmet = self.misfired.clone();
        for (i, server) in self.servers.iter().enumerate() {
            let Some(s) = server else { continue };
            let (epoch, least) = (s.status.epoch.0, self.scenario.min_epoch);
            if epoch < least {
                unmet.push(format!("s{} ended at epoch {epoch}, not {least}", i + 1));
            }
        }
        for (c, client) in self.clients.iter().enumerate() {
            let session = lab.session(c);
            if client.supervised && !session.is_up() {
                unmet.push(format!("c{c} is not connected"));
            }
            let held = session.mirror(G).and_then(|m| {
                let object = lock(&m).state().object(O).map(|o| o.materialize());
                object.map(|o| String::from_utf8_lossy(&o).into_owned())
            });
            let viewed: String = views[c].iter().map(|(_, p)| p.as_str()).collect();
            if client.supervised && (views[c] != views[longest] || held != Some(viewed)) {
                unmet.push(format!("c{c}'s mirror is not the whole stream: {held:?}"));
            }
            if !session.is_up() || !client.asked {
                continue;
            }
            let first = views[c].first().map_or(1, |(seq, _)| *seq);
            let seqs = views[c].iter().map(|(seq, _)| *seq);
            if session.mirror(G).is_none() {
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

impl Driver for World<'_> {
    /// A step of the script, by its index.
    type Act = usize;

    fn act(&mut self, lab: &mut Lab<usize>, k: usize) -> Result<(), String> {
        self.act_on(lab, &self.scenario.script[k].1, lab.sched.now() / 1000);
        (0..CLIENTS).try_for_each(|c| {
            lab.settle(c);
            self.settled(lab, c)
        })
    }

    /// Checks what only a step of server `i` can have changed.
    fn stepped(&mut self, lab: &Lab<usize>, i: usize) -> Result<(), String> {
        let now = lab.sched.now();
        let Some(s) = self.servers[i].as_mut() else {
            return Ok(());
        };
        let Some(SteppedServer::Replica(replica)) = lab.servers[i].as_ref() else {
            unreachable!("a sweep's servers are replicas");
        };
        let status = replica.status().map_err(|e| e.to_string())?;
        let sequenced = s.sequenced.get();
        if s.status.fenced && status.fenced && sequenced > s.sequenced_then {
            return Err(format!("s{} sequenced while fenced", i + 1));
        }
        if s.inbox_depth.get() > SINK_QUEUE_HWM as i64 {
            return Err(format!("s{}'s inbox is past its bound", i + 1));
        }
        if s.queue_hwm.get() > DEFAULT_SEND_CAPACITY as i64 {
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

    /// Checks what client `c`'s session handed the application.
    fn settled(&mut self, lab: &mut Lab<usize>, c: usize) -> Result<(), String> {
        let mut session = lab.session(c);
        // Only a server that reconciled a divergent copy may hand a
        // client a number it has been handed before: the retraction.
        let home = (session.server_id().raw() as usize).checked_sub(1);
        let home = home.and_then(|s| self.servers[s].as_ref());
        let reconciled = home.is_some_and(|s| s.reconciled.get() > 0);
        if let Some(CoronaError::Codec(e)) = session.take_failure() {
            return Err(format!("c{c} cannot decode a server frame: {e}"));
        }
        let kept = session.mirror(G).map(|m| lock(&m).last_seq().0);
        let reply = session.take_reply().and_then(Result::ok);
        let mut events: Vec<ServerEvent> = reply.into_iter().collect();
        events.extend(std::iter::from_fn(|| session.next_event()));
        drop(session);
        let client = &mut self.clients[c];
        let handed = client.raw.len();
        for event in &events {
            match event {
                ServerEvent::Multicast { logged, .. } => client.hand(c, logged, reconciled)?,
                ServerEvent::Error { code, .. } if *code == ErrorCode::Unavailable.to_wire() => {
                    client.unavailable += 1;
                }
                // A join's or a catch-up's transfer — one the session
                // applied, not a duplicating link's second answer to a
                // join: what the client was not handed yet is handed
                // over like live traffic, and it goes on from its end.
                ServerEvent::Joined { transfer, .. } | ServerEvent::State { transfer }
                    if kept >= Some(transfer.through.0) =>
                {
                    let had = client.last;
                    for update in transfer.updates.iter().filter(|u| u.seq.0 > had) {
                        client.hand(c, update, reconciled)?;
                    }
                    client.last = client.last.max(transfer.through.0);
                }
                _ => {}
            }
        }
        for k in handed..client.raw.len() {
            let (seq, payload) = &client.raw[k];
            lab.trace((c, seq, payload));
            (self.extra)(c, &client.raw[..=k])?;
        }
        Ok(())
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
    let faults = Registry::new();
    let nem = Nemesis::new(seed, &faults);
    let n = scenario.servers;
    let tune = |config| ReplicatedConfig {
        client_addrs: addrs(n, "client"),
        heartbeat_ms: HEARTBEAT_MS,
        base_timeout_ms: scenario.base_timeout_ms,
        ..config
    };
    let lab = Lab::start(SimNet::new(seed), Some(nem), n, CLIENTS, tune);
    let watch = |i: usize| -> Option<Server> {
        let Some(SteppedServer::Replica(replica)) = lab.servers[i].as_ref() else {
            return None;
        };
        let metrics = replica.metrics_registry();
        Some(Server {
            status: replica.status().expect("stepped servers answer at once"),
            sequenced: metrics.counter("core.broadcasts"),
            rejected: metrics.counter("repl.fenced.rejects"),
            reconciled: metrics.counter("repl.reconciled.groups"),
            inbox_depth: metrics.gauge("server.queue.depth"),
            queue_hwm: metrics.gauge("server.fanout.queue_hwm"),
            sequenced_then: 0,
        })
    };
    let servers: Vec<Option<Server>> = (0..lab.servers.len()).map(watch).collect();
    let world = World {
        scenario,
        seed,
        extra,
        outcomes: vec![ServerOutcome::default(); servers.len()],
        clients: (0..CLIENTS).map(|_| Client::default()).collect(),
        servers,
        misfired: Vec::new(),
    };
    let mut run = Run::new(lab, world);
    for (k, (at, _)) in scenario.script.iter().enumerate() {
        run.lab.sched.at(*at, Ev::Act(k));
    }
    run.run_until(scenario.end);
    let (lab, mut world, mut failed) = (run.lab, run.driver, run.failed);
    let unmet = world.unconverged(&lab);
    if let (None, true, Some(first)) = (&failed, scenario.converges, unmet.first()) {
        failed = Some((scenario.end, first.clone()));
    }
    if let Some((at, what)) = failed {
        return Err(Failure::new(scenario, seed, at, what));
    }
    for (i, (out, server)) in world.outcomes.iter_mut().zip(&world.servers).enumerate() {
        let (Some(s), Some(live)) = (server, lab.servers[i].as_ref()) else {
            continue;
        };
        out.status = Some(s.status.clone());
        out.rejected = s.rejected.get();
        out.ops = live.health_registry().ops_events();
        let repaired = out.ops.iter().filter(|e| e.kind == "divergence_repaired");
        out.discarded = repaired.map(|e| e.value).sum();
    }
    let reconnects = |c: &Client| c.registry.counter("client.reconnects").get();
    // What a mirror applied is its object's increments, each named by
    // the update that carried it (no two carry the same payload).
    let applied = |(i, c): (usize, &Client)| -> Vec<u64> {
        let mirror = lab.session(i).mirror(G);
        let object = mirror.and_then(|m| lock(&m).state().object(O).cloned());
        let named = |p: &Bytes| {
            c.raw
                .iter()
                .find(|(_, q)| q.as_bytes() == &p[..])
                .map(|r| r.0)
        };
        let increments = object.map(|o| o.increments).unwrap_or_default();
        increments.iter().map(|p| named(p).unwrap_or(0)).collect()
    };
    Ok(Outcome {
        trace_hash: lab.trace_hash(),
        views: world.views(),
        raw: world.clients.iter().map(|c| c.raw.clone()).collect(),
        applied: world.clients.iter().enumerate().map(applied).collect(),
        reconnects: world.clients.iter().map(reconnects).collect(),
        unavailable: world.clients.iter().map(|c| c.unavailable).collect(),
        nemesis: faults.snapshot(),
        servers: world.outcomes,
        unmet,
    })
}
