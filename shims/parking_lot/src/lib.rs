//! Offline stand-in for `parking_lot`.
//!
//! Wraps `std::sync::Mutex` with the poison-free `parking_lot` API
//! (lock acquisition never returns a `Result`). Performance is
//! whatever std provides, which is fine for this repo's scale; the
//! point is API compatibility without a crates.io download.

use std::fmt;
use std::sync::{self, TryLockError};

/// A mutual exclusion primitive (poison-free facade over `std::sync::Mutex`).
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let inner = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        MutexGuard { inner }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: g }),
            Err(TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: p.into_inner(),
            }),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_tuple("Mutex").field(&&*guard).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }
}
