//! A small deterministic discrete-event simulation engine.
//!
//! Events carry a model-defined payload; the scheduler orders them by
//! virtual time (microseconds) with a monotone tiebreaker so equal
//! timestamps replay in scheduling order — the whole simulation is a
//! pure function of its inputs, which the determinism tests rely on.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Virtual time in microseconds since simulation start.
pub type SimTime = u64;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert for earliest-first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The pending-event queue handed to model callbacks.
pub struct Scheduler<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute virtual time `at` (clamped to
    /// now — scheduling in the past fires immediately).
    pub fn at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }
}

/// A simulation model: state plus an event handler.
pub trait SimModel {
    /// The event payload type.
    type Event;

    /// Handles one event at virtual time `sched.now()`, scheduling
    /// follow-ups through `sched`.
    fn handle(&mut self, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Drives a model to completion (or a time horizon).
pub struct Simulation<M: SimModel> {
    model: M,
    sched: Scheduler<M::Event>,
}

impl<M: SimModel> Simulation<M> {
    /// Creates a simulation around `model`.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            sched: Scheduler::new(),
        }
    }

    /// Schedules an initial event.
    pub fn seed(&mut self, at: SimTime, event: M::Event) {
        self.sched.at(at, event);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Borrows the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Consumes the simulation, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Runs until the queue drains or virtual time would exceed
    /// `horizon`. Returns the number of events processed.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        let mut n = 0;
        while let Some(entry) = self.sched.heap.peek() {
            if entry.at > horizon {
                break;
            }
            let entry = self.sched.heap.pop().expect("peeked");
            self.sched.now = entry.at;
            self.model.handle(entry.event, &mut self.sched);
            n += 1;
        }
        n
    }
}

/// A serially reusable resource (a CPU, a shared Ethernet segment):
/// requests queue FIFO; each use occupies the resource for a duration.
#[derive(Debug, Clone, Copy, Default)]
pub struct Resource {
    free_at: SimTime,
    busy_total: SimTime,
}

impl Resource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        Resource::default()
    }

    /// Acquires the resource at `now` for `duration`; returns the
    /// completion time (start is delayed while the resource is busy).
    pub fn acquire(&mut self, now: SimTime, duration: SimTime) -> SimTime {
        let start = now.max(self.free_at);
        self.free_at = start + duration;
        self.busy_total += duration;
        self.free_at
    }

    /// Total busy time accumulated (for utilisation reporting).
    pub fn busy_total(&self) -> SimTime {
        self.busy_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        fired: Vec<(SimTime, u32)>,
    }

    impl SimModel for Counter {
        type Event = u32;
        fn handle(&mut self, event: u32, sched: &mut Scheduler<u32>) {
            self.fired.push((sched.now(), event));
            if event < 3 {
                sched.at(sched.now() + 10, event + 1);
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new(Counter { fired: vec![] });
        sim.seed(100, 0);
        sim.seed(5, 100);
        sim.run_until(SimTime::MAX);
        let times: Vec<SimTime> = sim.model().fired.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![5, 100, 110, 120, 130]);
    }

    #[test]
    fn equal_times_replay_in_schedule_order() {
        struct Order(Vec<u32>);
        impl SimModel for Order {
            type Event = u32;
            fn handle(&mut self, e: u32, _s: &mut Scheduler<u32>) {
                self.0.push(e);
            }
        }
        let mut sim = Simulation::new(Order(vec![]));
        for i in 0..50 {
            sim.seed(42, i);
        }
        sim.run_until(SimTime::MAX);
        assert_eq!(sim.model().0, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn horizon_stops_the_run() {
        let mut sim = Simulation::new(Counter { fired: vec![] });
        sim.seed(0, 0);
        sim.run_until(15);
        assert_eq!(sim.model().fired.len(), 2, "events at 0 and 10 only");
        assert!(sim.now() <= 15);
        // Remaining events still pending.
        assert!(sim.run_until(SimTime::MAX) > 0);
    }

    #[test]
    fn resource_serializes_access() {
        let mut r = Resource::new();
        assert_eq!(r.acquire(0, 10), 10);
        assert_eq!(r.acquire(0, 10), 20, "queued behind first use");
        assert_eq!(r.acquire(50, 5), 55, "idle gap then fresh use");
        assert_eq!(r.busy_total(), 25);
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        struct Clamp(Vec<SimTime>);
        impl SimModel for Clamp {
            type Event = bool;
            fn handle(&mut self, first: bool, s: &mut Scheduler<bool>) {
                self.0.push(s.now());
                if first {
                    s.at(0, false); // in the past
                }
            }
        }
        let mut sim = Simulation::new(Clamp(vec![]));
        sim.seed(100, true);
        sim.run_until(SimTime::MAX);
        assert_eq!(sim.model().0, vec![100, 100]);
    }
}
