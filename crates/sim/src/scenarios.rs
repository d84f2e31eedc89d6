//! The schedules the sweep runs: each a function of the seed, which
//! moves every scripted time a little (and seeds the fault generator
//! and the links' jitter), so that a thousand seeds are a thousand
//! interleavings of the same story.

use crate::cluster::{isolation, Action, Scenario};
use crate::engine::SimTime;
use corona_transport::{FaultRng, LinkFaults, NemesisEvent};

/// Every scenario [`scenario`] knows, in sweep order. The `hunt_*`
/// ones chase losses ROADMAP records as known and unfixed: their
/// end-of-run expectation is reported, not required.
pub const SCENARIOS: [&str; 11] = [
    "partition_heal",
    "asymmetric",
    "blip",
    "flapping",
    "storm",
    "fresh_host_reorder",
    "failover",
    "client_failover",
    "fence_before_elect",
    "hunt_partition_mid_stream",
    "hunt_election_during_joins",
];

/// A script under construction: times in milliseconds, each moved by up
/// to two more, drawn from the seed.
struct Script {
    rng: FaultRng,
    steps: Vec<(SimTime, Action)>,
    /// The tag of the next scripted broadcast.
    tag: u32,
}

impl Script {
    fn at(&mut self, ms: u64, action: Action) {
        let at = ms * 1000 + self.rng.next_u64() % 2000;
        self.steps.push((at, action));
    }

    /// Client `c{i}` on server `s{i+1}` for each of `n`, all members of
    /// the group `c0` creates, by 8 ms.
    fn members(&mut self, n: usize) {
        for c in 0..n {
            self.steps
                .push((1000 + c as u64, Action::Connect(c, c as u64 + 1)));
            self.steps.push((5000 + 1000 * c as u64, Action::Join(c)));
        }
        self.steps.push((3000, Action::Create(0)));
    }

    /// `count` broadcasts by client `c`, `every` ms apart from `from`.
    fn writes(&mut self, c: usize, from: u64, every: u64, count: u32) {
        for k in 0..u64::from(count) {
            self.tag += 1;
            self.at(from + every * k, Action::Broadcast(c, self.tag));
        }
    }

    fn fault(&mut self, ms: u64, event: NemesisEvent) {
        self.at(ms, Action::Fault(event));
    }

    /// Cuts `s{alone}` off from the other `servers - 1`.
    fn isolate(&mut self, ms: u64, alone: u64, servers: u64) {
        self.fault(ms, isolation(alone, servers));
    }

    /// The same fault mix on every link between two of `servers`.
    fn peer_faults(&mut self, ms: u64, servers: u64, faults: LinkFaults) {
        for a in 1..=servers {
            for b in a + 1..=servers {
                let (a, b) = (format!("s{a}"), format!("s{b}"));
                self.fault(ms, NemesisEvent::SetLinkFaults { a, b, faults });
            }
        }
    }
}

/// The scenario called `name`, as `seed` lays it out.
pub fn scenario(name: &str, seed: u64) -> Option<Scenario> {
    let mut s = Script {
        rng: FaultRng::new(seed ^ 0x5c7e_d01e),
        steps: Vec::new(),
        tag: 0,
    };
    let (mut servers, mut base_timeout_ms, mut end_ms) = (3, 250, 2000);
    let mut min_epoch = 0;
    let storm = LinkFaults {
        dup_per_mille: 150,
        reorder_per_mille: 150,
        delay_ms: 1,
        ..LinkFaults::NONE
    };
    match name {
        // The coordinator is cut off with writers on both sides: it
        // fences, the majority elects, and the heal discards what the
        // minority sequenced inside its lease window.
        "partition_heal" => {
            s.members(3);
            s.writes(0, 20, 12, 110);
            s.writes(1, 26, 12, 110);
            s.isolate(180, 1, 3);
            s.fault(900, NemesisEvent::Heal);
        }
        // The coordinator goes deaf: its heartbeats still reach the
        // followers, so nobody elects, but their acks are swallowed, so
        // its lease lapses. It fences, and once the heal lets the acks
        // through it serves again, under the same epoch.
        "asymmetric" => {
            s.members(3);
            s.writes(0, 20, 12, 110);
            s.writes(1, 26, 12, 110);
            for follower in ["s2", "s3"] {
                let block = NemesisEvent::Block {
                    from: follower.into(),
                    to: "s1".into(),
                };
                s.fault(180, block);
            }
            s.fault(900, NemesisEvent::Heal);
        }
        // Healed before any follower's election timeout: nothing is
        // contested, nothing discarded.
        "blip" => {
            s.members(3);
            s.writes(0, 20, 12, 60);
            s.writes(1, 26, 12, 60);
            s.isolate(180, 1, 3);
            s.fault(300, NemesisEvent::Heal);
            end_ms = 1500;
        }
        // Whoever coordinates is cut off and healed, three times over,
        // with every client writing throughout and past the last heal:
        // each cycle fences one coordinator, elects the next and
        // reconciles the heal.
        "flapping" => {
            base_timeout_ms = 150;
            s.members(3);
            for c in 0..3 {
                s.writes(c, 20 + 2 * c as u64, 30, 80);
            }
            for cycle in 0..3 {
                s.at(200 + 600 * cycle, Action::IsolateCoordinator);
                s.fault(600 + 600 * cycle, NemesisEvent::Heal);
            }
            min_epoch = 3;
            end_ms = 2600;
        }
        // Duplicates and reorders on every peer link, under load.
        "storm" => {
            s.members(3);
            s.peer_faults(40, 3, storm);
            for c in 0..3 {
                s.writes(c, 50 + c as u64, 3, 8);
            }
            s.peer_faults(400, 3, LinkFaults::NONE);
            end_ms = 800;
        }
        // The same, across the moment a server starts hosting the
        // group: its first member's join and the first updates share a
        // reordering link with the bootstrap of its standby copy.
        "fresh_host_reorder" => {
            s.members(1);
            s.peer_faults(10, 3, storm);
            s.at(20, Action::Connect(1, 2));
            s.at(30, Action::Join(1));
            s.writes(0, 30, 1, 6);
            s.peer_faults(200, 3, LinkFaults::NONE);
            end_ms = 500;
        }
        // The coordinator dies mid-stream; a client it served resumes
        // on a follower and catches up with `UpdatesSince`. The writer
        // pauses around the crash: an update the coordinator has handed
        // its own clients and no follower yet dies with it (ROADMAP).
        "failover" => {
            s.members(2);
            s.writes(1, 20, 10, 17);
            s.at(200, Action::Kill(1));
            s.writes(1, 210, 10, 80);
            s.at(800, Action::Connect(0, 2));
            s.at(810, Action::Join(0));
        }
        // The same crash, with a client that fails over by itself: it
        // connects with s1, s2, s3 as its seeds, and nothing in the
        // script reconnects it. It walks the roster and the seeds with
        // its seeded backoff until a survivor completes its resume.
        "client_failover" => {
            s.steps.push((1000, Action::ConnectFailover(0)));
            s.steps.push((1001, Action::Connect(1, 2)));
            s.steps.push((3000, Action::Create(0)));
            s.steps.push((5000, Action::Join(0)));
            s.steps.push((6000, Action::Join(1)));
            s.writes(1, 20, 10, 17);
            s.at(200, Action::Kill(1));
            s.writes(1, 210, 10, 80);
        }
        // Five servers; the coordinator is cut off and the first
        // follower dies, so the winner is one that waited two base
        // timeouts — longer than the lease.
        "fence_before_elect" => {
            servers = 5;
            s.members(3);
            s.writes(0, 20, 12, 110);
            s.writes(2, 26, 12, 110);
            s.at(170, Action::Kill(2));
            s.isolate(180, 1, 5);
            s.fault(1200, NemesisEvent::Heal);
            end_ms = 2500;
        }
        // Defect (i): the last updates of a stream are sequenced by a
        // coordinator that has only just won, and nothing follows them.
        "hunt_partition_mid_stream" => {
            base_timeout_ms = 150;
            s.steps.push((1000, Action::Connect(0, 2)));
            s.steps.push((1001, Action::Connect(1, 3)));
            s.steps.push((3000, Action::Create(0)));
            s.steps.push((5000, Action::Join(0)));
            s.steps.push((6000, Action::Join(1)));
            s.writes(0, 20, 5, 3);
            s.isolate(100, 1, 3);
            let slow = LinkFaults {
                delay_ms: 10,
                ..LinkFaults::NONE
            };
            s.peer_faults(110, 3, slow);
            let burst = 250 + s.rng.next_u64() % 250;
            s.writes(0, burst, 1, 3);
            s.fault(1200, NemesisEvent::Heal);
        }
        // Defect (iii): members join while the coordinator is deposed.
        "hunt_election_during_joins" => {
            base_timeout_ms = 150;
            s.members(2);
            s.isolate(100, 1, 3);
            let joins = 120 + s.rng.next_u64() % 300;
            s.at(joins - 20, Action::Connect(2, 3));
            s.at(joins, Action::Join(2));
            s.fault(1200, NemesisEvent::Heal);
            s.writes(1, 1500, 10, 3);
        }
        _ => return None,
    }
    s.steps.sort_by_key(|(at, _)| *at);
    Some(Scenario {
        servers,
        base_timeout_ms,
        script: s.steps,
        end: end_ms * 1000,
        converges: !name.starts_with("hunt_"),
        min_epoch,
    })
}
