//! The paper's evaluation (§5.2) run on the shipping servers: stepped
//! [`CoronaServer`]s and [`ReplicatedServer`]s under the DES clock,
//! over a [`SimNet`] that charges the 1999 testbed's costs
//! ([`hosts`](crate::hosts)) to every frame they send and receive.
//! Nothing here models the protocol: fan-out, state apply, forwarding
//! and sequencing are the kernel's own, and what they cost is what the
//! net charges for the frames they queue.
//!
//! * [`roundtrip`] — Figure 3 / Table 2: one sender+receiver
//!   ("measuring") client and N−1 pure receivers; the round trip is the
//!   measuring client's own copy, and it is the last client its server
//!   fans out to (the paper's worst case).
//! * [`throughput`] — Table 1: every client multicasts "as fast as
//!   possible" (closed loop); aggregate delivered bytes per second.
//!
//! One server is a [`CoronaServer`], stateful or stateless. More are a
//! replicated star: `s1` coordinates, the clients are spread over all of
//! them round-robin, and the measuring client sits on `s2`, a forward
//! away from the sequencer. Clients are scripted at the codec level.
//! They join one at a time before anything is timed — a burst of joins
//! at 1999 costs backs a coordinator up past its quorum lease — and the
//! measuring client joins last, so that its server hands it each
//! broadcast last.

use crate::engine::{Scheduler, SimModel, SimTime, Simulation};
use crate::hosts::{HostProfile, NetworkProfile};
use crate::net::{lock, Delivery, Host, SimNet};
use bytes::Bytes;
use corona_core::{CoronaServer, ServerConfig};
use corona_metrics::MetricsSnapshot;
use corona_replication::{ReplicatedConfig, ReplicatedServer};
use corona_transport::{Connection, Dialer, FrameSink};
use corona_types::id::{ClientId, GroupId, ObjectId, ServerId};
use corona_types::message::{ClientRequest, ServerEvent, PROTOCOL_VERSION};
use corona_types::policy::{DeliveryScope, MemberRole, Persistence, StateTransferPolicy};
use corona_types::state::{SharedState, StateUpdate};
use corona_types::wire::decode_traced;
use corona_types::wire::encode_traced;
use std::sync::{Arc, Mutex};

const G: GroupId = GroupId(1);

/// No run goes on past this much virtual time.
const HORIZON: SimTime = 3_600_000_000;

/// Parameters shared by the experiments.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Total clients (including the measuring client).
    pub n_clients: usize,
    /// Multicast payload in bytes.
    pub payload: usize,
    /// Whether the servers maintain shared state (Figure 3 compares
    /// `true` vs `false`).
    pub stateful: bool,
    /// Server host class.
    pub server_profile: HostProfile,
    /// Client host class.
    pub client_profile: HostProfile,
    /// Each server's LAN segment, shared by its client links.
    pub lan: NetworkProfile,
    /// The one segment every server↔server link crosses.
    pub backbone: NetworkProfile,
    /// Servers; `1` is the single server (no coordinator hop).
    pub n_servers: usize,
    /// Messages sent by the measuring client.
    pub messages: u64,
    /// Send interval of the measuring client in µs (the paper uses a
    /// message every 100 ms).
    pub interval_us: SimTime,
    /// When `true`, the measuring client waits for its own copy of
    /// message *m* before emitting *m+1* (still respecting the send
    /// interval). Use for large populations where a fixed-rate sender
    /// would diverge the server queue — the paper's Table 2 sweeps are
    /// steady-state round-trip measurements.
    pub closed_loop: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            n_clients: 20,
            payload: 1000,
            stateful: true,
            server_profile: crate::hosts::ULTRASPARC_1,
            client_profile: crate::hosts::SPARC_20_CLIENT,
            lan: crate::hosts::ETHERNET_10MBPS,
            backbone: crate::hosts::CAMPUS_BACKBONE,
            n_servers: 1,
            messages: 600,
            interval_us: 100_000,
            closed_loop: false,
        }
    }
}

/// Round-trip statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTripResults {
    /// Every measured round-trip in µs (one per message).
    pub rtts_us: Vec<SimTime>,
    /// Mean in milliseconds (the paper's unit).
    pub mean_ms: f64,
}

impl RoundTripResults {
    fn from_samples(rtts_us: Vec<SimTime>) -> Self {
        let n = rtts_us.len().max(1) as f64;
        let mean_ms = rtts_us.iter().sum::<u64>() as f64 / n / 1000.0;
        RoundTripResults { rtts_us, mean_ms }
    }
}

/// Aggregate throughput results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputResults {
    /// Total payload bytes delivered to receivers.
    pub delivered_bytes: u64,
    /// Virtual observation window in µs.
    pub window_us: SimTime,
    /// Aggregate delivered throughput in kB/s (the paper's Table 1
    /// unit).
    pub kbytes_per_sec: f64,
    /// Server CPU utilisation over the window.
    pub server_utilization: f64,
}

enum Server {
    Single(CoronaServer),
    Replica(ReplicatedServer),
}

impl Server {
    fn run_pending(&self, now_ms: u64) -> bool {
        match self {
            Server::Single(s) => s.run_pending(now_ms),
            Server::Replica(s) => s.run_pending(now_ms),
        }
    }

    fn next_tick_ms(&self) -> u64 {
        match self {
            Server::Single(s) => s.next_tick_ms(),
            Server::Replica(s) => s.next_tick_ms(),
        }
    }

    fn metrics(&self) -> MetricsSnapshot {
        match self {
            Server::Single(s) => s.metrics_registry().snapshot(),
            Server::Replica(s) => s.metrics(),
        }
    }
}

/// A receiver's end: frames wait here until the lab reads them, right
/// after the delivery that brought them.
#[derive(Default)]
struct Mailbox(Mutex<Vec<Bytes>>);

impl FrameSink for Mailbox {
    fn on_accept(&self, _conn_id: u64, _conn: Box<dyn Connection>) {}
    fn on_frame(&self, _conn_id: u64, frame: Bytes) -> bool {
        lock(&self.0).push(frame);
        true
    }
    fn ready_for_more(&self) -> bool {
        true
    }
    fn on_closed(&self, _conn_id: u64, _clean: bool) {}
}

/// A scripted client's connection: encoded requests out, a mailbox in.
struct Wire {
    conn: Box<dyn Connection>,
    mailbox: Arc<Mailbox>,
}

impl Wire {
    fn dial(dialer: &dyn Dialer, addr: &str) -> Wire {
        let conn = dialer.dial(addr).expect("servers listen");
        let mailbox = Arc::new(Mailbox::default());
        conn.attach_sink(0, Arc::clone(&mailbox) as Arc<dyn FrameSink>);
        Wire { conn, mailbox }
    }

    fn send(&self, request: &ClientRequest) {
        let _ = self.conn.send(encode_traced(request, None));
    }

    /// What has arrived since the last call.
    fn take(&self) -> Vec<Bytes> {
        std::mem::take(&mut *lock(&self.mailbox.0))
    }
}

#[derive(Default)]
struct Client {
    wire: Option<Wire>,
    id: Option<ClientId>,
    joined: bool,
}

enum Ev {
    Net(Delivery),
    Wake(usize),
    Join,
    Emit(usize),
}

/// The testbed: the servers, the clients and the net between them.
struct Lab {
    cfg: ExperimentConfig,
    net: SimNet,
    servers: Vec<Server>,
    clients: Vec<Client>,
    /// Who joins next (last first).
    joiners: Vec<usize>,
    /// What is timed once everyone has joined: every client's closed
    /// loop for this long, or (`None`) the measuring client's round
    /// trips.
    window: Option<SimTime>,
    /// When that began, and how busy `s1`'s CPU had been by then.
    start: SimTime,
    busy_from: SimTime,
    emitted: Vec<SimTime>,
    rtts: Vec<SimTime>,
    delivered_bytes: u64,
    done: bool,
}

impl Lab {
    fn new(cfg: ExperimentConfig, window: Option<SimTime>) -> Lab {
        let net = SimNet::costed(cfg.backbone);
        let n = cfg.n_servers.max(1);
        let config = |i: usize| {
            let id = ServerId::new(i as u64 + 1);
            match cfg.stateful {
                true => ServerConfig::stateful(id),
                false => ServerConfig::stateless(id),
            }
        };
        let addrs = |plane: &str| -> Vec<(ServerId, String)> {
            let addr = |i| (ServerId::new(i as u64 + 1), format!("s{}-{plane}", i + 1));
            (0..n).map(addr).collect()
        };
        let server = |i: usize| {
            let name = format!("s{}", i + 1);
            let host = Host {
                cpu: cfg.server_profile,
                stateful: cfg.stateful,
                lan: Some(cfg.lan),
            };
            net.set_host(&name, host);
            let listen = |plane: &str| Box::new(net.listen(&name, &format!("{name}-{plane}")));
            let started = match n {
                1 => CoronaServer::stepped(listen("client"), config(i)).map(Server::Single),
                _ => {
                    let config = ReplicatedConfig {
                        server_config: config(i),
                        ..ReplicatedConfig::new(ServerId::new(i as u64 + 1), addrs("peer"))
                    };
                    let dialer = Arc::new(net.dialer(&name));
                    ReplicatedServer::stepped(listen("client"), listen("peer"), dialer, config)
                        .map(Server::Replica)
                }
            };
            started.expect("the sim's listeners push")
        };
        let servers = (0..n).map(server).collect();
        let client = Host {
            cpu: cfg.client_profile,
            stateful: false,
            lan: None,
        };
        for c in 0..cfg.n_clients {
            net.set_host(&format!("c{c}"), client);
        }
        // The measuring client (of a round trip) joins last.
        let mut joiners: Vec<usize> = (0..cfg.n_clients).rev().collect();
        if window.is_none() && cfg.n_clients > 1 {
            joiners.rotate_right(1);
        }
        Lab {
            cfg,
            net,
            servers,
            clients: (0..cfg.n_clients).map(|_| Client::default()).collect(),
            joiners,
            window,
            start: HORIZON,
            busy_from: 0,
            emitted: Vec::new(),
            rtts: Vec::new(),
            delivered_bytes: 0,
            done: false,
        }
    }

    /// Connects the next client to join — the first creates the group —
    /// or, once all have joined, starts the measurement.
    fn next_join(&mut self, sched: &mut Scheduler<Ev>) {
        let Some(c) = self.joiners.pop() else {
            return self.start(sched);
        };
        // Round-robin from s2: the measuring client is a forward away
        // from the coordinator.
        let home = format!("s{}", (c + 1) % self.servers.len() + 1);
        let dialer = self.net.dialer(&format!("c{c}"));
        let wire = Wire::dial(&dialer, &format!("{home}-client"));
        wire.send(&ClientRequest::Hello {
            version: PROTOCOL_VERSION,
            display_name: format!("c{c}"),
            resume: None,
        });
        if self.clients.iter().all(|c| c.wire.is_none()) {
            wire.send(&ClientRequest::CreateGroup {
                group: G,
                persistence: Persistence::Persistent,
                initial_state: SharedState::new(),
            });
        }
        wire.send(&ClientRequest::Join {
            group: G,
            role: MemberRole::Principal,
            policy: StateTransferPolicy::None,
            notify_membership: false,
        });
        self.clients[c].wire = Some(wire);
    }

    fn start(&mut self, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        (self.start, self.busy_from) = (now, self.net.busy_us("s1"));
        let senders = if self.window.is_some() {
            self.clients.len()
        } else {
            1
        };
        (0..senders).for_each(|c| sched.at(now, Ev::Emit(c)));
    }

    fn emit(&mut self, c: usize, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        match self.window {
            Some(window) if now >= self.start + window => return,
            Some(_) => {}
            None => {
                self.emitted.push(now);
                let more = (self.emitted.len() as u64) < self.cfg.messages;
                if !self.cfg.closed_loop && more {
                    sched.at(now + self.cfg.interval_us, Ev::Emit(0));
                }
            }
        }
        let broadcast = ClientRequest::Broadcast {
            group: G,
            update: StateUpdate::incremental(ObjectId(1), vec![0u8; self.cfg.payload]),
            scope: DeliveryScope::SenderInclusive,
        };
        if let Some(wire) = &self.clients[c].wire {
            wire.send(&broadcast);
        }
    }

    /// Reads what a delivery brought client `c`.
    fn read(&mut self, c: usize, sched: &mut Scheduler<Ev>) {
        let Some(wire) = &self.clients[c].wire else {
            return;
        };
        let frames = wire.take();
        // A receiver's copies of the measuring client's broadcasts are
        // nobody's business.
        let counts = self.window.is_some() || c == 0;
        if self.clients[c].joined && !counts {
            return;
        }
        for frame in frames {
            let Ok((event, _)) = decode_traced::<ServerEvent>(&frame) else {
                continue;
            };
            match event {
                ServerEvent::Welcome { client, .. } => self.clients[c].id = Some(client),
                ServerEvent::Joined { .. } => {
                    self.clients[c].joined = true;
                    self.next_join(sched);
                }
                ServerEvent::Multicast { logged, .. } => {
                    let own = Some(logged.sender) == self.clients[c].id;
                    self.delivered(c, own, logged.seq.raw(), sched);
                }
                _ => {}
            }
        }
    }

    /// Client `c` has received a multicast — its `own`, or not.
    fn delivered(&mut self, c: usize, own: bool, seq: u64, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        if let Some(window) = self.window {
            let end = self.start + window;
            if now <= end {
                self.delivered_bytes += self.cfg.payload as u64;
            }
            if own && now < end {
                sched.at(now, Ev::Emit(c));
            }
            self.done = now >= end;
            return;
        }
        let sent = self.emitted[seq as usize - 1];
        self.rtts.push(now - sent);
        let more = (self.rtts.len() as u64) < self.cfg.messages;
        if self.cfg.closed_loop && more {
            sched.at((sent + self.cfg.interval_us).max(now), Ev::Emit(0));
        }
        self.done = !more;
    }

    /// Turns server `i`'s dispatcher until it has nothing to do.
    fn step(&self, i: usize, now: SimTime) {
        while self.servers[i].run_pending(now / 1000) {}
    }

    fn run(self) -> Lab {
        let servers = self.servers.len();
        let mut sim = Simulation::new(self);
        sim.seed(0, Ev::Join);
        (0..servers).for_each(|i| sim.seed(0, Ev::Wake(i)));
        sim.run_until(HORIZON);
        sim.into_model()
    }

    /// Every server's registry, merged.
    fn metrics(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        self.servers.iter().for_each(|s| merged.merge(&s.metrics()));
        merged
    }
}

impl SimModel for Lab {
    type Event = Ev;

    fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        self.net.set_now(now);
        match event {
            Ev::Net(delivery) => {
                let to = delivery.node().to_string();
                let index = to[1..].parse::<usize>().expect("nodes are s<n> and c<n>");
                if delivery.run() {
                    match to.starts_with('s') {
                        true => self.step(index - 1, now),
                        false => self.read(index, sched),
                    }
                }
            }
            Ev::Wake(i) => {
                self.step(i, now);
                if !self.done {
                    sched.at(self.servers[i].next_tick_ms() * 1000, Ev::Wake(i));
                }
            }
            Ev::Join => self.next_join(sched),
            Ev::Emit(c) => self.emit(c, sched),
        }
        for (at, delivery) in self.net.take_outbox() {
            sched.at(at, Ev::Net(delivery));
        }
    }
}

/// Runs the round-trip experiment (Figure 3 / Table 2 configuration).
pub fn roundtrip(cfg: ExperimentConfig) -> RoundTripResults {
    roundtrip_with_metrics(cfg).0
}

/// [`roundtrip`], with every server's metric registry, merged.
pub fn roundtrip_with_metrics(cfg: ExperimentConfig) -> (RoundTripResults, MetricsSnapshot) {
    let lab = Lab::new(cfg, None).run();
    (
        RoundTripResults::from_samples(lab.rtts.clone()),
        lab.metrics(),
    )
}

/// Runs the throughput experiment (Table 1 configuration): `n_clients`
/// closed-loop senders blasting for `window_us` of virtual time.
pub fn throughput(cfg: ExperimentConfig, window_us: SimTime) -> ThroughputResults {
    let lab = Lab::new(cfg, Some(window_us)).run();
    let (delivered_bytes, busy) = (lab.delivered_bytes, lab.net.busy_us("s1") - lab.busy_from);
    ThroughputResults {
        delivered_bytes,
        window_us,
        kbytes_per_sec: delivered_bytes as f64 / 1024.0 / (window_us as f64 / 1_000_000.0),
        server_utilization: (busy as f64 / window_us as f64).min(1.0),
    }
}

/// The 99th-percentile of a sample set (nearest-rank), 0 when empty.
pub fn p99_us(samples: &[SimTime]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let idx = ((sorted.len() as f64) * 0.99).ceil() as usize;
    sorted[idx.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(n_servers: usize) -> ExperimentConfig {
        ExperimentConfig {
            n_clients: 12,
            n_servers,
            messages: 10,
            closed_loop: true,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn a_run_is_deterministic_and_measures_every_message() {
        for n_servers in [1, 3] {
            let a = roundtrip(small(n_servers));
            assert_eq!(a.rtts_us.len(), 10);
            assert_eq!(a, roundtrip(small(n_servers)), "{n_servers} servers");
        }
        let t = throughput(small(1), 2_000_000);
        assert_eq!(t, throughput(small(1), 2_000_000));
        assert!(t.delivered_bytes > 0 && t.server_utilization > 0.0);
    }

    /// Sequenced once — on a replicated star by the coordinator, after
    /// a forward from s2 — and encoded once by each server fanning out.
    #[test]
    fn a_broadcast_is_encoded_once_per_server_it_fans_out_from() {
        for n_servers in [1, 3] {
            let (_, metrics) = roundtrip_with_metrics(small(n_servers));
            assert_eq!(metrics.counter("core.broadcasts"), 10);
            let encodes = metrics.counter("server.fanout.encodes");
            assert_eq!(encodes, 10 * n_servers as u64);
        }
    }
}
