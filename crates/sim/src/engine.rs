//! A small deterministic discrete-event simulation engine: the event
//! queue the [stepped harness](crate::stepped) runs on, and the shared
//! resources the [net](crate::net) charges.
//!
//! Events carry a caller-defined payload; the scheduler orders them by
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

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
        }
    }
}

impl<E> Scheduler<E> {
    /// The next event due by `horizon`, its time now; `None` if there
    /// is none.
    pub fn pop(&mut self, horizon: SimTime) -> Option<E> {
        if self.heap.peek()?.at > horizon {
            return None;
        }
        let entry = self.heap.pop()?;
        self.now = entry.at;
        Some(entry.event)
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

    /// Pops every event due by `horizon`, in order; each handled by
    /// `handle`, which may schedule more.
    fn drain<E>(
        s: &mut Scheduler<E>,
        horizon: SimTime,
        mut handle: impl FnMut(&mut Scheduler<E>, E),
    ) {
        while let Some(event) = s.pop(horizon) {
            handle(s, event);
        }
    }

    /// Fires `(now, event)` and schedules `event + 1` 10 µs on, up to 3.
    fn count(fired: &mut Vec<(SimTime, u32)>) -> impl FnMut(&mut Scheduler<u32>, u32) + '_ {
        |s, event| {
            fired.push((s.now(), event));
            if event < 3 {
                s.at(s.now() + 10, event + 1);
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let (mut s, mut fired) = (Scheduler::default(), Vec::new());
        s.at(100, 0);
        s.at(5, 100);
        drain(&mut s, SimTime::MAX, count(&mut fired));
        let times: Vec<SimTime> = fired.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![5, 100, 110, 120, 130]);
    }

    #[test]
    fn equal_times_replay_in_schedule_order() {
        let (mut s, mut order) = (Scheduler::default(), Vec::new());
        for i in 0..50 {
            s.at(42, i);
        }
        drain(&mut s, SimTime::MAX, |_, e| order.push(e));
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn horizon_stops_the_run() {
        let (mut s, mut fired) = (Scheduler::default(), Vec::new());
        s.at(0, 0);
        drain(&mut s, 15, count(&mut fired));
        assert_eq!(fired.len(), 2, "events at 0 and 10 only");
        assert!(s.now() <= 15);
        // Remaining events still pending.
        assert!(s.pop(SimTime::MAX).is_some());
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
        let (mut s, mut fired) = (Scheduler::default(), Vec::new());
        s.at(100, true);
        drain(&mut s, SimTime::MAX, |s, first| {
            fired.push(s.now());
            if first {
                s.at(0, false); // in the past
            }
        });
        assert_eq!(fired, vec![100, 100]);
    }
}
