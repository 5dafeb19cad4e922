//! Offline shim for `parking_lot`: the one piece of its API this
//! workspace uses, a non-poisoning [`Mutex`] over `std::sync`.
//!
//! `lock()` returns the guard directly instead of a `Result`; a lock
//! poisoned by a panicked critical section is recovered by taking the
//! inner guard, so one panic does not cascade into unrelated poisoning
//! failures.

use std::sync;

pub use std::sync::MutexGuard;

/// A mutual exclusion primitive (std-backed, non-poisoning API).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Self(sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn lock_recovers_from_poison() {
        let m = std::sync::Arc::new(Mutex::new(7));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }
}
