//! Offline stand-in for `crossbeam`, covering `crossbeam::channel`.
//!
//! The build environment has no crates.io access, so this implements
//! the MPMC channel subset Corona uses — `unbounded`, `bounded`,
//! cloneable `Sender`/`Receiver`, `send`/`recv`/`try_recv`/
//! `recv_timeout`/`len` and the matching error types — on top
//! of `std::sync::{Mutex, Condvar}`. Semantics (disconnect behaviour,
//! FIFO order, bounded blocking send) match the real crate.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        /// Signalled when an item is pushed or the last sender leaves.
        not_empty: Condvar,
        /// Signalled when an item is popped or the last receiver leaves.
        not_full: Condvar,
        capacity: Option<usize>,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Sending half of a channel. Cloneable (MPMC).
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half of a channel. Cloneable (MPMC).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty
    /// and all senders are gone.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// Channel currently empty.
        Empty,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        /// No message arrived before the deadline.
        Timeout,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Creates an unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a bounded FIFO channel holding at most `cap` messages.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap))
    }

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Shared<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
            match self.queue.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            }
        }
    }

    impl<T> Sender<T> {
        /// Sends a message, blocking while a bounded channel is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let shared = &self.shared;
            let mut queue = shared.lock();
            loop {
                if shared.receivers.load(Ordering::SeqCst) == 0 {
                    return Err(SendError(value));
                }
                match shared.capacity {
                    Some(cap) if queue.len() >= cap => {
                        queue = match shared.not_full.wait(queue) {
                            Ok(g) => g,
                            Err(p) => p.into_inner(),
                        };
                    }
                    _ => break,
                }
            }
            queue.push_back(value);
            drop(queue);
            shared.not_empty.notify_one();
            Ok(())
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.shared.lock().len()
        }

        /// True when no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::SeqCst);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last sender: wake blocked receivers so they observe
                // the disconnect.
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Receives a message, blocking until one arrives or the
        /// channel disconnects.
        pub fn recv(&self) -> Result<T, RecvError> {
            let shared = &self.shared;
            let mut queue = shared.lock();
            loop {
                if let Some(v) = queue.pop_front() {
                    drop(queue);
                    shared.not_full.notify_one();
                    return Ok(v);
                }
                if shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                queue = match shared.not_empty.wait(queue) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
            }
        }

        /// Receives without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let shared = &self.shared;
            let mut queue = shared.lock();
            if let Some(v) = queue.pop_front() {
                drop(queue);
                shared.not_full.notify_one();
                return Ok(v);
            }
            if shared.senders.load(Ordering::SeqCst) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Receives with a deadline.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let shared = &self.shared;
            let deadline = Instant::now() + timeout;
            let mut queue = shared.lock();
            loop {
                if let Some(v) = queue.pop_front() {
                    drop(queue);
                    shared.not_full.notify_one();
                    return Ok(v);
                }
                if shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, result) = match shared.not_empty.wait_timeout(queue, deadline - now) {
                    Ok(r) => r,
                    Err(p) => p.into_inner(),
                };
                queue = guard;
                if result.timed_out() && queue.is_empty() {
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.shared.lock().len()
        }

        /// True when no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::SeqCst);
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.shared.receivers.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last receiver: nothing can read what is still queued,
                // so discard it (as crossbeam does) — senders that stay
                // alive must not pin undelivered messages' resources.
                // Dropped outside the lock: a message's own `Drop` may
                // touch this channel.
                let unread = std::mem::take(&mut *self.shared.lock());
                drop(unread);
                // Wake blocked senders so they observe the disconnect.
                self.shared.not_full.notify_all();
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;

        #[test]
        fn mpmc_roundtrip() {
            let (tx, rx) = unbounded();
            let rx2 = rx.clone();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv().unwrap(), 1);
            assert_eq!(rx2.recv().unwrap(), 2);
        }

        #[test]
        fn disconnect_semantics() {
            let (tx, rx) = unbounded::<u32>();
            drop(tx);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
            let (tx, rx) = unbounded::<u32>();
            drop(rx);
            assert!(tx.send(1).is_err());
        }

        #[test]
        fn last_receiver_drop_discards_queued_messages() {
            let (tx, rx) = unbounded();
            let payload = Arc::new(());
            tx.send(Arc::clone(&payload)).unwrap();
            drop(rx);
            // The sender is still alive; the queued clone is not.
            assert_eq!(Arc::strong_count(&payload), 1);
        }

        #[test]
        fn timeout_fires() {
            let (_tx, rx) = unbounded::<u32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
        }

        #[test]
        fn bounded_blocks_until_drained() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let t = thread::spawn(move || tx.send(2).unwrap());
            assert_eq!(rx.recv().unwrap(), 1);
            assert_eq!(rx.recv().unwrap(), 2);
            t.join().unwrap();
        }

        #[test]
        fn cross_thread_wakeup() {
            let (tx, rx) = unbounded();
            let t = thread::spawn(move || {
                thread::sleep(Duration::from_millis(20));
                tx.send(42).unwrap();
            });
            assert_eq!(rx.recv().unwrap(), 42);
            t.join().unwrap();
        }
    }
}
