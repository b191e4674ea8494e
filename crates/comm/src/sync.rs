//! Thin synchronization wrappers over `std::sync` with the `parking_lot`
//! calling convention the rest of the crate uses: `lock()` returns a guard
//! directly (poison is ignored — a poisoned lock here means a thread already
//! panicked, and that panic is re-raised on the caller when its region or
//! world joins: [`crate::ThreadTeam::parallel`] once every member has left
//! the region, `World::run` once every rank has returned), and
//! `Condvar::wait` takes `&mut guard` instead of consuming it.
//!
//! This exists because the build environment has no crates.io access, so
//! the workspace cannot depend on `parking_lot` itself.

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Returns a mutable reference without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// RAII guard; the `Option` exists so [`Condvar::wait`] can temporarily
/// take the underlying std guard while the thread sleeps.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken during wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken during wait")
    }
}

/// A condition variable whose `wait` re-fills the caller's guard in place.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically releases the guard's lock and sleeps until notified;
    /// reacquires before returning. Spurious wakeups are possible, exactly
    /// as with `std`; callers loop on their predicate.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let std_guard = guard.inner.take().expect("guard taken during wait");
        guard.inner = Some(
            self.inner
                .wait(std_guard)
                .unwrap_or_else(PoisonError::into_inner),
        );
    }

    /// Wakes a single waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}
