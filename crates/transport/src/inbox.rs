//! The one batch hand-off between server threads.
//!
//! Producers [`push`](Inbox::push) under a short lock; the single
//! consumer swaps the whole `Vec` out with [`drain_into`](Inbox::drain_into)
//! and works through it unlocked. Only the first push after a drain
//! wakes the consumer — a burst costs one wake-up, not one per item —
//! and the wake is whatever the consumer sleeps in: a reactor shard's
//! eventfd ([`Inbox::new`]) or `Thread::unpark` for a consumer that
//! parks ([`Inbox::parked`]: the kernel's dispatcher thread, the
//! logger). A consumer that is stepped, not woken, just drains; and a
//! producer that will see to its items itself — a reactor shard that
//! turns the kernel's dispatcher at the end of its poll pass — pushes
//! [without waking](Inbox::push_unwoken) anyone.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread::Thread;
use std::time::Instant;

/// Locks past a poisoning: every update made under these locks leaves
/// its queue valid at each step.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A multi-producer, single-consumer mailbox drained a batch at a time.
pub struct Inbox<T> {
    state: Mutex<State<T>>,
    wake: Wake,
}

struct State<T> {
    items: Vec<T>,
    /// Size of the batch the last drain handed out. It counts towards
    /// the depth until the next drain, so a bound on the depth bounds
    /// everything pushed and not yet handled.
    in_hand: usize,
    /// Set by the first push after a drain (which wakes the consumer),
    /// cleared by the drain. A push that finds it set is ahead of a
    /// drain still to come; one that finds it clear wakes: no wake-up
    /// is ever lost.
    wake_pending: bool,
    closed: bool,
}

enum Wake {
    /// Runs on the pushing thread.
    Hook(Box<dyn Fn() + Send + Sync>),
    /// The consumer, once it has entered [`Inbox::park`].
    Unpark(OnceLock<Thread>),
}

impl<T> Inbox<T> {
    fn with_wake(wake: Wake) -> Self {
        let state = Mutex::new(State {
            items: Vec::new(),
            in_hand: 0,
            wake_pending: false,
            closed: false,
        });
        Inbox { state, wake }
    }

    /// An inbox whose consumer is woken by calling `wake`.
    pub fn new(wake: impl Fn() + Send + Sync + 'static) -> Self {
        Self::with_wake(Wake::Hook(Box::new(wake)))
    }

    /// An inbox whose consumer sleeps in [`Inbox::park`].
    pub fn parked() -> Self {
        Self::with_wake(Wake::Unpark(OnceLock::new()))
    }

    /// Queues `item` and returns the depth — items pushed and not yet
    /// handled, the consumer's current batch included. `None` once the
    /// inbox is closed: the item is dropped.
    pub fn push(&self, item: T) -> Option<usize> {
        let mut state = lock(&self.state);
        if state.closed {
            return None;
        }
        state.items.push(item);
        let depth = state.items.len() + state.in_hand;
        let first = !std::mem::replace(&mut state.wake_pending, true);
        drop(state);
        if first {
            self.wake();
        }
        Some(depth)
    }

    /// [`Inbox::push`] without the wake-up: for a producer that makes
    /// sure by itself that the item is handled, by draining the inbox
    /// or by [`Inbox::wake`]-ing the consumer later. A later
    /// [`Inbox::push`] wakes as if this one had not been made.
    pub fn push_unwoken(&self, item: T) -> Option<usize> {
        let mut state = lock(&self.state);
        if state.closed {
            return None;
        }
        state.items.push(item);
        Some(state.items.len() + state.in_hand)
    }

    /// Wakes the consumer whether or not anything is queued — for one
    /// that is to take over a batch another thread began.
    pub fn wake(&self) {
        match &self.wake {
            Wake::Hook(hook) => hook(),
            // Unset: the consumer has yet to drain for the first time.
            Wake::Unpark(consumer) => {
                if let Some(thread) = consumer.get() {
                    thread.unpark();
                }
            }
        }
    }

    /// Whether anything was pushed since the last drain.
    pub fn has_pending(&self) -> bool {
        !lock(&self.state).items.is_empty()
    }

    /// What the next [`Inbox::push`] would return, less one.
    pub fn depth(&self) -> usize {
        let state = lock(&self.state);
        state.items.len() + state.in_hand
    }

    /// Replaces `out`'s contents with everything pushed since the last
    /// drain, in push order. `false` once the inbox is closed: this
    /// batch is the last.
    pub fn drain_into(&self, out: &mut Vec<T>) -> bool {
        out.clear();
        let mut state = lock(&self.state);
        state.wake_pending = false;
        std::mem::swap(out, &mut state.items);
        state.in_hand = out.len();
        !state.closed
    }

    /// For the consumer of a [`parked`](Inbox::parked) inbox: sleeps
    /// until a push, a close or `deadline` — not at all if something
    /// is queued already.
    pub fn park(&self, deadline: Option<Instant>) {
        if let Wake::Unpark(consumer) = &self.wake {
            consumer.get_or_init(std::thread::current);
        }
        let state = lock(&self.state);
        if !state.items.is_empty() || state.closed {
            return;
        }
        drop(state);
        match deadline {
            None => std::thread::park(),
            Some(at) => std::thread::park_timeout(at.saturating_duration_since(Instant::now())),
        }
    }

    /// Refuses every later push and wakes the consumer, whose next
    /// drain returns what was queued before and `false`.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn fifo_across_drains_one_wake_per_drain_and_depth_counts_the_batch_in_hand() {
        let wakes = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&wakes);
        let inbox = Inbox::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        let (mut batch, mut seen) = (Vec::new(), Vec::new());
        for (round, burst) in [3usize, 100, 1, 5].into_iter().enumerate() {
            for i in 0..burst {
                // What the consumer took last time is still outstanding.
                assert_eq!(inbox.push(seen.len() + i), Some(batch.len() + i + 1));
                assert_eq!(wakes.load(Ordering::SeqCst), round + 1);
            }
            assert!(inbox.drain_into(&mut batch));
            assert_eq!((batch.len(), inbox.depth()), (burst, burst));
            seen.extend_from_slice(&batch);
        }
        assert_eq!(seen, (0..seen.len()).collect::<Vec<_>>());
    }

    #[test]
    fn an_unwoken_push_wakes_nobody_and_leaves_the_next_push_to_wake() {
        let wakes = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&wakes);
        let inbox = Inbox::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(inbox.push_unwoken(1), Some(1));
        assert!(inbox.has_pending());
        assert_eq!(wakes.load(Ordering::SeqCst), 0);
        assert_eq!(inbox.push(2), Some(2));
        assert_eq!(wakes.load(Ordering::SeqCst), 1);
        let mut batch = Vec::new();
        assert!(inbox.drain_into(&mut batch));
        assert_eq!((batch, inbox.has_pending()), (vec![1, 2], false));
        inbox.wake();
        assert_eq!(wakes.load(Ordering::SeqCst), 2);
        inbox.close();
        assert_eq!(inbox.push_unwoken(3), None);
    }

    /// Drains, parking whenever a drain comes back empty, until the
    /// inbox closes: a lost wake-up hangs the test.
    fn consume(inbox: &Inbox<u64>) -> Vec<u64> {
        let (mut batch, mut seen) = (Vec::new(), Vec::new());
        while inbox.drain_into(&mut batch) {
            seen.append(&mut batch);
            inbox.park(None);
        }
        seen.append(&mut batch);
        seen
    }

    #[test]
    fn parking_consumer_loses_no_wakeup() {
        const EACH: u64 = 50_000;
        let inbox = Arc::new(Inbox::parked());
        let consumer = Arc::clone(&inbox);
        let consumer = std::thread::spawn(move || consume(&consumer));
        std::thread::scope(|s| {
            for p in 0..4 {
                let inbox = &inbox;
                s.spawn(move || {
                    for i in 0..EACH {
                        inbox.push(p * EACH + i).unwrap();
                    }
                });
            }
        });
        inbox.close();
        let seen = consumer.join().unwrap();
        assert_eq!(seen.len() as u64, 4 * EACH);
        for p in 0..4 {
            let from_p = seen.iter().filter(|&&item| item / EACH == p);
            assert!(from_p.is_sorted(), "each producer's items stay in order");
        }
    }

    #[test]
    fn close_refuses_pushes_and_wakes_the_consumer_to_a_last_batch() {
        let inbox = Arc::new(Inbox::parked());
        let consumer = Arc::clone(&inbox);
        let consumer = std::thread::spawn(move || consume(&consumer));
        inbox.push(1);
        inbox.push(2);
        inbox.close();
        assert_eq!(inbox.push(3), None);
        assert_eq!(consumer.join().unwrap(), vec![1, 2]);
    }
}
