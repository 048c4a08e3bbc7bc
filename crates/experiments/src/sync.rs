//! Poison-tolerant locking for shared pipeline state.
//!
//! Every long-lived service in the workspace — the serve daemon, the sweep
//! coordinator, the experiment context's telemetry and database cache —
//! shares state between worker threads through [`std::sync::Mutex`]. A
//! panicking worker poisons any mutex it holds, and a bare
//! `.lock().unwrap()` then re-panics in *every* subsequent accessor,
//! cascading one bad run into a dead daemon.
//!
//! That cascade is never the right trade here: all durable state is written
//! **save-before-grant** (snapshots and shard logs reach disk via atomic
//! renames *before* in-memory bookkeeping advances), so the value behind a
//! poisoned lock is at worst a step behind the disk — consistent, and
//! exactly what crash recovery already tolerates. These helpers inherit the
//! inner value and keep serving.
//!
//! [`Progress`] is the one wake-up signal of those services: waiters block
//! on it instead of sleeping on a timer.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Poison-tolerant [`Mutex`] locking.
pub trait LockUnpoisoned<T> {
    /// Locks the mutex, inheriting the inner value if a previous holder
    /// panicked (see the module docs for why that is sound here).
    fn lock_unpoisoned(&self) -> MutexGuard<'_, T>;
}

impl<T> LockUnpoisoned<T> for Mutex<T> {
    fn lock_unpoisoned(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// A generation counter with a condition variable: every state change a
/// waiter may care about bumps it and wakes all waiters.
///
/// A waiter reads [`Progress::generation`] *before* it inspects the state
/// it waits on, then hands that value to [`Progress::wait_past`]. A change
/// that lands in between has already moved the generation, so the wait
/// returns at once and no wake-up is lost.
#[derive(Debug, Default)]
pub struct Progress {
    /// The generation, and whether [`Progress::close`] was called.
    state: Mutex<(u64, bool)>,
    changed: Condvar,
}

impl Progress {
    /// The current generation.
    pub fn generation(&self) -> u64 {
        self.state.lock_unpoisoned().0
    }

    /// Records a change and wakes every waiter.
    pub fn bump(&self) {
        self.state.lock_unpoisoned().0 += 1;
        self.changed.notify_all();
    }

    /// The last bump (a shutdown): wakes every waiter, and every later
    /// [`Progress::wait_past`] returns at once.
    pub fn close(&self) {
        let mut state = self.state.lock_unpoisoned();
        *state = (state.0 + 1, true);
        drop(state);
        self.changed.notify_all();
    }

    /// Whether [`Progress::close`] was called.
    pub fn is_closed(&self) -> bool {
        self.state.lock_unpoisoned().1
    }

    /// Blocks until the generation moves past `seen`, the signal is closed,
    /// or `timeout` passes.
    pub fn wait_past(&self, seen: u64, timeout: Duration) {
        let guard = self.state.lock_unpoisoned();
        let _ = self
            .changed
            .wait_timeout_while(guard, timeout, |&mut (generation, closed)| {
                generation == seen && !closed
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn a_poisoned_mutex_is_recovered_with_its_last_state() {
        let state = Arc::new(Mutex::new(0u64));
        let poisoner = Arc::clone(&state);
        let _ = std::thread::spawn(move || {
            let mut guard = poisoner.lock().unwrap();
            *guard = 7;
            panic!("poison the lock mid-update");
        })
        .join();
        assert!(state.lock().is_err(), "the lock must actually be poisoned");
        assert_eq!(*state.lock_unpoisoned(), 7, "inner state is inherited");
        // And the recovery is repeatable: the lock stays usable.
        *state.lock_unpoisoned() += 1;
        assert_eq!(*state.lock_unpoisoned(), 8);
    }

    #[test]
    fn a_bump_wakes_a_waiter_and_close_releases_every_later_wait() {
        let progress = Arc::new(Progress::default());
        let seen = progress.generation();
        let bumper = Arc::clone(&progress);
        let handle = std::thread::spawn(move || bumper.bump());
        let start = std::time::Instant::now();
        progress.wait_past(seen, Duration::from_secs(30));
        assert!(start.elapsed() < Duration::from_secs(10));
        handle.join().unwrap();
        assert_eq!(progress.generation(), seen + 1);

        // A stale `seen` returns at once; so does any wait after close.
        progress.wait_past(seen, Duration::from_secs(30));
        progress.close();
        assert!(progress.is_closed());
        progress.wait_past(progress.generation(), Duration::from_secs(30));
        assert!(start.elapsed() < Duration::from_secs(10));
    }
}
