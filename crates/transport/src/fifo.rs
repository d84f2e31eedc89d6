//! The one blocking queue: a closeable FIFO whose consumer sleeps in
//! `pop`. It is a [`MemNetwork`](crate::MemNetwork) pipe and accept
//! queue, and the inbound queue of a pull-mode reactor connection.

use crate::inbox::lock;
use crate::traits::TransportError;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

#[derive(Debug)]
pub(crate) struct Fifo<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    /// Written under the lock, readable without it.
    closed: AtomicBool,
    /// Queue length at which the producer is told to pause.
    high_water: usize,
}

#[derive(Debug)]
struct State<T> {
    queue: VecDeque<T>,
    /// Set by the push that reaches `high_water`, cleared by the pop
    /// that leaves the queue at most half full — both under the lock,
    /// so a paused producer always has a pop left to resume it.
    paused: bool,
}

impl<T> Fifo<T> {
    /// `high_water`: `usize::MAX` for a queue that never pauses.
    pub(crate) fn new(high_water: usize) -> Self {
        Fifo {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                paused: false,
            }),
            ready: Condvar::new(),
            closed: AtomicBool::new(false),
            high_water,
        }
    }

    /// Appends `item` unless the queue is closed or already holds `cap`
    /// items. `Ok(true)`: the queue is at its high-water mark — stop
    /// producing until a pop reports the resume.
    pub(crate) fn push(&self, item: T, cap: usize) -> Result<bool, TransportError> {
        let mut state = lock(&self.state);
        if self.is_closed() {
            return Err(TransportError::Closed);
        }
        if state.queue.len() >= cap {
            return Err(TransportError::Full);
        }
        state.queue.push_back(item);
        state.paused |= state.queue.len() >= self.high_water;
        let paused = state.paused;
        drop(state);
        self.ready.notify_one();
        Ok(paused)
    }

    /// Blocks for the next item — until `deadline`, if given, then
    /// `Timeout` — and says whether taking it resumes a paused producer.
    /// What was queued before a close is still handed out; then `Closed`.
    pub(crate) fn pop(&self, deadline: Option<Instant>) -> Result<(T, bool), TransportError> {
        let mut state = lock(&self.state);
        loop {
            if let Some(item) = state.queue.pop_front() {
                let resume = state.paused && state.queue.len() * 2 <= self.high_water;
                state.paused &= !resume;
                return Ok((item, resume));
            }
            if self.is_closed() {
                return Err(TransportError::Closed);
            }
            state = match deadline {
                None => self.ready.wait(state).unwrap_or_else(|e| e.into_inner()),
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(TransportError::Timeout);
                    }
                    let waited = self.ready.wait_timeout(state, left);
                    waited.unwrap_or_else(|e| e.into_inner()).0
                }
            };
        }
    }

    pub(crate) fn len(&self) -> usize {
        lock(&self.state).queue.len()
    }

    /// Refuses later pushes and wakes every blocked `pop`.
    pub(crate) fn close(&self) {
        let state = lock(&self.state);
        self.closed.store(true, Ordering::Release);
        drop(state);
        self.ready.notify_all();
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }
}
