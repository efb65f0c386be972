//! Poison-recovering lock primitives for the daemon.
//!
//! Every mutex in the serving path used to be acquired with
//! `.lock().expect("...")` — correct only as long as no holder ever
//! panics, and a panic *anywhere* then cascades: the poisoned lock
//! panics the next acquirer, which poisons whatever *it* holds. These
//! helpers recover the guard from a [`PoisonError`] instead. That is
//! sound here because every critical section in this crate leaves its
//! data structurally valid at each step (the WAL's logged-then-acked
//! discipline means a half-applied delta is re-derived from the log on
//! restart, not trusted from memory), so the guard of a poisoned lock
//! is still safe to read and write. With these, the request path has no
//! panic sites left — the zero-panic contract holds by construction,
//! which the `vmr-analyze` P001 lint enforces.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Mutex acquisition that shrugs off poison.
pub(crate) trait LockExt<T> {
    /// Acquires the mutex, recovering the guard if a previous holder
    /// panicked.
    fn lock_recover(&self) -> MutexGuard<'_, T>;
}

impl<T> LockExt<T> for Mutex<T> {
    fn lock_recover(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// [`Condvar::wait`] with poison recovery.
pub(crate) fn cv_wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn lock_recovers_from_poison() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*m.lock_recover(), 7, "guard recovered despite poison");
        *m.lock_recover() = 8;
        assert_eq!(*m.lock_recover(), 8);
    }
}
