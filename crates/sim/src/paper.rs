//! The paper's evaluation (§5.2) on the shipping servers and client:
//! the [stepped harness](crate::stepped)'s servers under the DES clock,
//! every client a `ClientSession`, over a [`SimNet`] that charges the
//! 1999 testbed's costs ([`hosts`](crate::hosts)) to every frame they
//! send and receive. Nothing here models the protocol: fan-out, state
//! apply, forwarding and sequencing are the kernel's own, and what they
//! cost is what the net charges for the frames they queue. What is
//! measured is what the sessions hand over.
//!
//! * [`roundtrip`] — Figure 3 / Table 2: one sender+receiver
//!   ("measuring") client and N−1 pure receivers; the round trip is the
//!   measuring client's own copy, and it is the last client its server
//!   fans out to (the paper's worst case).
//! * [`throughput`] — Table 1: every client multicasts "as fast as
//!   possible" (closed loop); aggregate delivered bytes per second.
//!
//! One server is a `CoronaServer`, stateful or stateless. More are a
//! replicated star: `s1` coordinates, the clients are spread over all of
//! them round-robin, and the measuring client sits on `s2`, a forward
//! away from the sequencer. A client joins by its session's handshake
//! (`Hello`, answered by `Welcome`), then a `CreateGroup` if it is the
//! first, then a `Join`, each call waiting for the last one's answer.
//! Clients join one at a time before anything is timed — a burst of
//! joins at 1999 costs backs a coordinator up past its quorum lease —
//! and the measuring client joins last, so that its server hands it
//! each broadcast last.

use crate::engine::SimTime;
use crate::hosts::{HostProfile, NetworkProfile};
use crate::net::{Host, SimNet};
use crate::stepped::{self, node, Driver, Ev, Lab, Run};
use corona_core::Statefulness;
use corona_metrics::MetricsSnapshot;
use corona_replication::ReplicatedConfig;
use corona_types::id::{GroupId, ObjectId};
use corona_types::message::ServerEvent;

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

/// The measuring loop, driving the testbed's clients.
struct Measure {
    cfg: ExperimentConfig,
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

impl Measure {
    fn start(&mut self, lab: &mut Lab<usize>) {
        let now = lab.sched.now();
        (self.start, self.busy_from) = (now, lab.net.busy_us("s1"));
        let senders = if self.window.is_some() {
            self.cfg.n_clients
        } else {
            1
        };
        (0..senders).for_each(|c| lab.sched.at(now, Ev::Act(c)));
    }

    fn emit(&mut self, lab: &mut Lab<usize>, c: usize) {
        let now = lab.sched.now();
        match self.window {
            Some(window) if now >= self.start + window => return,
            Some(_) => {}
            None => {
                self.emitted.push(now);
                let more = (self.emitted.len() as u64) < self.cfg.messages;
                if !self.cfg.closed_loop && more {
                    lab.sched.at(now + self.cfg.interval_us, Ev::Act(0));
                }
            }
        }
        let broadcast = stepped::broadcast(G, ObjectId(1), vec![0u8; self.cfg.payload]);
        let _ = lab.session(c).broadcast(&broadcast);
        lab.settle(c);
    }

    /// Client `c` has received a multicast — its `own`, or not.
    fn delivered(&mut self, lab: &mut Lab<usize>, c: usize, own: bool, seq: u64) {
        let now = lab.sched.now();
        if let Some(window) = self.window {
            let end = self.start + window;
            if now <= end {
                self.delivered_bytes += self.cfg.payload as u64;
            }
            if own && now < end {
                lab.sched.at(now, Ev::Act(c));
            }
            self.done = now >= end;
            return;
        }
        let sent = self.emitted[seq as usize - 1];
        self.rtts.push(now - sent);
        let more = (self.rtts.len() as u64) < self.cfg.messages;
        if self.cfg.closed_loop && more {
            let next = (sent + self.cfg.interval_us).max(now);
            lab.sched.at(next, Ev::Act(0));
        }
        self.done = !more;
    }

    /// Runs one experiment: `window` as in [`Measure::window`].
    fn run(cfg: ExperimentConfig, window: Option<SimTime>) -> (Lab<usize>, Measure) {
        let net = SimNet::costed(cfg.backbone);
        let n = cfg.n_servers.max(1) as u64;
        let server = Host {
            cpu: cfg.server_profile,
            stateful: cfg.stateful,
            lan: Some(cfg.lan),
        };
        (1..=n).for_each(|s| net.set_host(&node(s), server));
        let client = Host {
            cpu: cfg.client_profile,
            stateful: false,
            lan: None,
        };
        (0..cfg.n_clients).for_each(|c| net.set_host(&format!("c{c}"), client));
        let tune = |mut config: ReplicatedConfig| {
            if !cfg.stateful {
                config.server_config.statefulness = Statefulness::Stateless;
            }
            config
        };
        let measure = Measure {
            cfg,
            window,
            start: HORIZON,
            busy_from: 0,
            emitted: Vec::new(),
            rtts: Vec::new(),
            delivered_bytes: 0,
            done: false,
        };
        let mut run = Run::new(Lab::start(net, None, n, cfg.n_clients, tune), measure);
        // The measuring client (of a round trip) joins last.
        let mut joiners: Vec<usize> = (0..cfg.n_clients).collect();
        if window.is_none() {
            joiners.rotate_left(1);
        }
        run.join_all(joiners, G);
        run.driver.start(&mut run.lab);
        run.run_until(HORIZON);
        (run.lab, run.driver)
    }
}

impl Driver for Measure {
    /// Client `c` sends.
    type Act = usize;

    fn act(&mut self, lab: &mut Lab<usize>, c: usize) -> Result<(), String> {
        self.emit(lab, c);
        Ok(())
    }

    /// Reads what client `c` was handed.
    fn settled(&mut self, lab: &mut Lab<usize>, c: usize) -> Result<(), String> {
        // A receiver's copies of the measuring client's broadcasts are
        // nobody's business.
        let counts = self.window.is_some() || c == 0;
        let me = lab.session(c).client_id();
        loop {
            let Some(event) = lab.session(c).next_event() else {
                return Ok(());
            };
            if let (ServerEvent::Multicast { logged, .. }, true) = (event, counts) {
                self.delivered(lab, c, Some(logged.sender) == me, logged.seq.raw());
            }
        }
    }

    fn done(&self) -> bool {
        self.done
    }
}

/// Runs the round-trip experiment (Figure 3 / Table 2 configuration).
pub fn roundtrip(cfg: ExperimentConfig) -> RoundTripResults {
    roundtrip_with_metrics(cfg).0
}

/// [`roundtrip`], with every server's metric registry, merged.
pub fn roundtrip_with_metrics(cfg: ExperimentConfig) -> (RoundTripResults, MetricsSnapshot) {
    let (lab, measure) = Measure::run(cfg, None);
    (RoundTripResults::from_samples(measure.rtts), lab.metrics())
}

/// Runs the throughput experiment (Table 1 configuration): `n_clients`
/// closed-loop senders blasting for `window_us` of virtual time.
pub fn throughput(cfg: ExperimentConfig, window_us: SimTime) -> ThroughputResults {
    let (lab, measure) = Measure::run(cfg, Some(window_us));
    let delivered_bytes = measure.delivered_bytes;
    let busy = lab.net.busy_us("s1") - measure.busy_from;
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
