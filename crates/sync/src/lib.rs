//! # swscc-sync — the concurrency audit facade
//!
//! Every atomic, lock, and thread primitive in the workspace is reached
//! through this crate instead of `std::sync`/`std::thread`/`parking_lot`
//! directly (enforced by `cargo run -p xtask -- lint`). The facade has two
//! personalities:
//!
//! * **Normal builds** (no `--cfg model`): every item below is a *pure
//!   re-export* of the corresponding `std`/`parking_lot` item. Zero cost,
//!   identical codegen, identical semantics — the facade vanishes.
//!
//! * **Model builds** (`RUSTFLAGS=--cfg model`): the same names resolve to
//!   instrumented implementations in `model` that hand every atomic
//!   access, lock acquisition, and thread operation to an in-tree
//!   deterministic scheduler. `model::explore` then drives the *real*
//!   production code (the two-level work queue, the frontier flip, the
//!   claim sets) through thousands of distinct thread interleavings — with
//!   a weak-memory model that lets `Relaxed` loads return stale values, so
//!   missing `Release`/`Acquire` pairings become reproducible test
//!   failures instead of one-in-a-million production hangs. Failing
//!   schedules report a replayable seed and shrink to a minimal
//!   reproduction prefix.
//!
//! The design is loom/shuttle-flavored but dependency-free (the build
//! environment is offline): virtual threads are real OS threads serialized
//! by a token protocol, schedules are explored by a seeded pseudo-random
//! walk or PCT-style priority scheduling, and the memory model tracks
//! per-location modification order plus vector clocks for
//! release/acquire edges. See `model` for the exact semantics and the
//! (documented) simplifications.
//!
//! Outside a `model::explore` run, the instrumented types fall back to
//! the real primitives, so a `--cfg model` binary still behaves normally
//! until a checker session starts.

#[cfg(model)]
pub mod model;

pub mod epoch;
pub mod fault;
pub mod interrupt;

/// Atomic integer/bool types plus [`atomic::Ordering`].
///
/// Normal builds: `std::sync::atomic` re-exports. Model builds:
/// scheduler-instrumented equivalents (same API subset) with `Ordering`
/// still the `std` enum — orderings are *interpreted* by the memory model
/// rather than handed to the hardware.
pub mod atomic {
    #[cfg(not(model))]
    pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};

    #[cfg(model)]
    pub use crate::model::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};

    pub use std::sync::atomic::Ordering;
}

/// Thread primitives: `scope`, `yield_now`, `sleep`, `available_parallelism`.
///
/// Model builds replace `scope`/`yield_now`/`sleep` with virtual-thread
/// equivalents (a model `sleep` is a scheduling point, not wall-clock
/// time). `available_parallelism` is always the real one — it is a query,
/// not a synchronization operation.
pub mod thread {
    #[cfg(not(model))]
    pub use std::thread::{scope, sleep, spawn, yield_now, Scope, ScopedJoinHandle};

    #[cfg(model)]
    pub use crate::model::thread::{scope, sleep, yield_now, Scope, ScopedJoinHandle};

    pub use std::thread::{available_parallelism, Result};
}

/// Spin-loop hint. A scheduling point under the model (a spinning thread
/// must let the scheduler run somebody else), the CPU hint otherwise.
pub mod hint {
    #[cfg(not(model))]
    pub use std::hint::spin_loop;

    #[cfg(model)]
    pub use crate::model::thread::spin_loop;
}

#[cfg(not(model))]
pub use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(model)]
pub use crate::model::lock::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(test)]
mod tests {
    // Facade smoke tests: these run in BOTH personalities (the model types
    // fall back to the real primitives outside an explore() session), so a
    // plain `cargo test -p swscc-sync` and a `--cfg model` run exercise the
    // same assertions.
    use super::atomic::{AtomicU32, AtomicUsize, Ordering};
    use super::{Mutex, RwLock};

    #[test]
    fn atomics_behave_like_std() {
        let a = AtomicU32::new(5);
        assert_eq!(a.load(Ordering::Relaxed), 5);
        a.store(7, Ordering::Relaxed);
        assert_eq!(a.fetch_add(1, Ordering::Relaxed), 7);
        assert_eq!(a.fetch_sub(2, Ordering::Release), 8);
        assert_eq!(a.fetch_max(100, Ordering::Relaxed), 6);
        assert_eq!(a.fetch_min(3, Ordering::Relaxed), 100);
        assert_eq!(
            a.compare_exchange(3, 9, Ordering::Relaxed, Ordering::Relaxed),
            Ok(3)
        );
        assert_eq!(
            a.compare_exchange(3, 11, Ordering::Relaxed, Ordering::Relaxed),
            Err(9)
        );
        assert_eq!(a.into_inner(), 9);
    }

    #[test]
    fn usize_bitops() {
        let a = AtomicUsize::new(0b0001);
        assert_eq!(a.fetch_or(0b0110, Ordering::Relaxed), 0b0001);
        assert_eq!(a.fetch_and(0b0011, Ordering::Relaxed), 0b0111);
        assert_eq!(a.load(Ordering::Acquire), 0b0011);
    }

    #[test]
    fn locks_roundtrip() {
        let m = Mutex::new(vec![1u32]);
        m.lock().push(2);
        assert_eq!(m.lock().len(), 2);
        let l = RwLock::new(3u32);
        assert_eq!(*l.read(), 3);
        *l.write() = 4;
        assert_eq!(*l.read(), 4);
    }

    #[test]
    fn scoped_threads_join() {
        let total = AtomicUsize::new(0);
        super::thread::scope(|s| {
            for i in 0..4usize {
                let total = &total;
                s.spawn(move || {
                    total.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 6);
    }
}
