//! Self-tests for the model-checker runtime itself (only meaningful under
//! `RUSTFLAGS=--cfg model`; the whole file compiles away otherwise).
//!
//! These pin the properties the production `model_tests` battery relies
//! on: stale Relaxed reads are generated, Release/Acquire publication is
//! honored, failing seeds replay deterministically, deadlocks are
//! detected, and schedule exploration actually diversifies.
//!
//! Every test below runs inside `swscc_sync::thread::scope`, which is
//! the validation anchor for [inv:scoped-join]: the scope joins every
//! spawned thread on all exit paths before the borrowed stack frame
//! unwinds, so the lifetime erasure in `model/thread.rs` never lets a
//! closure outlive its captures.
#![cfg(model)]

use swscc_sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use swscc_sync::model::{explore, replay, Options, Strategy};
use swscc_sync::{Mutex, RwLock};

fn opts(iterations: u64) -> Options {
    Options {
        iterations,
        base_seed: 0xDEAD_BEEF,
        max_steps: 10_000,
        strategy: Strategy::Random,
    }
}

/// Classic message-passing with Relaxed on both sides: the checker must
/// produce the stale read (flag observed set, data observed unset).
#[test]
fn finds_relaxed_publication_race() {
    let report = explore(opts(2000), || {
        let data = AtomicU32::new(0);
        let flag = AtomicU32::new(0);
        swscc_sync::thread::scope(|s| {
            s.spawn(|| {
                data.store(1, Ordering::Relaxed);
                flag.store(1, Ordering::Relaxed);
            });
            s.spawn(|| {
                if flag.load(Ordering::Relaxed) == 1 {
                    assert_eq!(
                        data.load(Ordering::Relaxed),
                        1,
                        "stale data read after observing flag"
                    );
                }
            });
        });
    });
    let failure = report
        .failure
        .expect("relaxed publication race must be found");
    assert!(failure.message.contains("stale data read"), "{failure}");
    assert!(failure.shrunk_len <= failure.trace_len);
}

/// The same protocol with a Release store / Acquire load must be clean:
/// once the flag is observed, the data store happens-before the reader.
#[test]
fn release_acquire_publication_is_safe() {
    let report = explore(opts(500), || {
        let data = AtomicU32::new(0);
        let flag = AtomicU32::new(0);
        swscc_sync::thread::scope(|s| {
            s.spawn(|| {
                data.store(1, Ordering::Relaxed);
                flag.store(1, Ordering::Release);
            });
            s.spawn(|| {
                if flag.load(Ordering::Acquire) == 1 {
                    assert_eq!(data.load(Ordering::Relaxed), 1);
                }
            });
        });
    });
    assert!(
        report.failure.is_none(),
        "release/acquire publication flagged spuriously: {:?}",
        report.failure
    );
    assert!(report.distinct_schedules > 10);
}

/// Failing seeds replay: re-running the reported seed reproduces the
/// failure, and two identical explore sessions report the same seed.
#[test]
fn failing_seed_replays_deterministically() {
    let body = || {
        let data = AtomicU32::new(0);
        let flag = AtomicU32::new(0);
        swscc_sync::thread::scope(|s| {
            s.spawn(|| {
                data.store(7, Ordering::Relaxed);
                flag.store(1, Ordering::Relaxed);
            });
            s.spawn(|| {
                if flag.load(Ordering::Relaxed) == 1 {
                    assert_eq!(data.load(Ordering::Relaxed), 7);
                }
            });
        });
    };
    let a = explore(opts(2000), body).failure.expect("race found");
    let b = explore(opts(2000), body).failure.expect("race found again");
    assert_eq!(a.seed, b.seed, "exploration must be deterministic");
    let msg = replay(a.seed, opts(1), body).expect("seed must replay the failure");
    assert!(
        msg.contains("assertion"),
        "unexpected replayed failure: {msg}"
    );
}

/// RMWs read the latest value (coherence): concurrent fetch_adds never
/// lose increments even when fully Relaxed.
#[test]
fn relaxed_rmws_do_not_lose_increments() {
    let report = explore(opts(500), || {
        let n = AtomicU32::new(0);
        swscc_sync::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    // ordering: counter only, total checked after join
                    n.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(n.load(Ordering::Relaxed), 3);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.distinct_schedules > 10);
}

/// Opposite lock-order acquisition must be reported as a deadlock, not
/// hang the harness.
#[test]
fn detects_lock_order_deadlock() {
    let report = explore(opts(200), || {
        let a = Mutex::new(0u32);
        let b = Mutex::new(0u32);
        swscc_sync::thread::scope(|s| {
            s.spawn(|| {
                let ga = a.lock();
                let gb = b.lock();
                let _ = (*ga, *gb);
            });
            s.spawn(|| {
                let gb = b.lock();
                let ga = a.lock();
                let _ = (*ga, *gb);
            });
        });
    });
    let failure = report.failure.expect("deadlock must be detected");
    assert!(failure.message.contains("deadlock"), "{failure}");
}

/// Mutual exclusion holds: a read-modify-write race through a Mutex is
/// never torn.
#[test]
fn mutex_serializes_critical_sections() {
    let report = explore(opts(300), || {
        let n = Mutex::new(0u32);
        swscc_sync::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut g = n.lock();
                    let v = *g;
                    *g = v + 1;
                });
            }
        });
        assert_eq!(*n.lock(), 2);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
}

/// Takes the next published block: the cursor CAS advances only past an
/// index below the length seen under the read lock.
fn claim_next(blocks: &RwLock<Vec<u64>>, cursor: &AtomicUsize) -> Option<u64> {
    let published = blocks.read();
    loop {
        let i = cursor.load(Ordering::Relaxed);
        if i >= published.len() {
            return None;
        }
        if cursor
            .compare_exchange(i, i + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            return Some(published[i]);
        }
    }
}

/// A woken lock waiter is re-checked once it holds the run token. Two
/// producers publish under the write lock of an `RwLock<Vec<_>>` while
/// two claimants race a CAS cursor under the read lock, so a producer
/// often re-takes the write lock between a claimant's wake-up and its
/// turn. Admitting that claimant without the re-check stamps a read
/// claim over the held write lock and parks it on the real lock, outside
/// the scheduler's view, and the session hangs; the watchdog thread turns
/// that hang into a failure. Every block must be claimed exactly once.
#[test]
fn woken_waiter_rechecks_admission() {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let report = explore(opts(2000), || {
            let blocks = RwLock::new(Vec::new());
            let cursor = AtomicUsize::new(0);
            let claimed: Vec<Mutex<Vec<u64>>> = (0..2).map(|_| Mutex::new(Vec::new())).collect();
            swscc_sync::thread::scope(|s| {
                for p in 0..2u64 {
                    let blocks = &blocks;
                    s.spawn(move || {
                        for i in 0..2 {
                            blocks.write().push(p * 10 + i);
                        }
                    });
                }
                for c in &claimed {
                    let (blocks, cursor) = (&blocks, &cursor);
                    s.spawn(move || {
                        while let Some(b) = claim_next(blocks, cursor) {
                            c.lock().push(b);
                        }
                    });
                }
            });
            let mut all: Vec<u64> = claimed.iter().flat_map(|c| c.lock().clone()).collect();
            while let Some(b) = claim_next(&blocks, &cursor) {
                all.push(b);
            }
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 10, 11], "a block was lost or claimed twice");
        });
        #[allow(
            clippy::let_underscore_must_use,
            reason = "the receiver is gone only after the test failed on its timeout"
        )]
        let _ = done.send(report);
    });
    let report = finished
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("model session hung: a woken waiter was admitted without a re-check");
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.distinct_schedules >= 1000);
}

/// Marks a counter that still includes its node's self-loop entries (a
/// test-local replica of Par-Trim's fresh-state counter flag).
const SELF_LOOP_FLAG: u32 = 1 << 31;

/// Replica of Par-Trim's counter release: takes one entry off `c`; the
/// first caller to see the flag clears it and subtracts the node's static
/// `loops` self-loop entries. `true` iff this call took the counter to
/// exactly zero, i.e. the caller pushes the node.
fn release(c: &AtomicU32, loops: u32) -> bool {
    // ordering: A1 — the counter is the whole protocol.
    let prev = c.fetch_sub(1, Ordering::Relaxed);
    if prev & SELF_LOOP_FLAG == 0 {
        return prev == 1;
    }
    // ordering: A1 — exactly one caller sees the flag set.
    let old = c.fetch_and(!SELF_LOOP_FLAG, Ordering::Relaxed);
    if old & SELF_LOOP_FLAG == 0 {
        return false;
    }
    match loops {
        0 => old == SELF_LOOP_FLAG,
        // ordering: A1 — as above.
        loops => c.fetch_sub(loops, Ordering::Relaxed) == loops,
    }
}

/// Two resolvers release each of two flagged counters, in opposite
/// orders: one counter's node has no self-loop, the other's has two
/// duplicate self-loop entries. Each node is pushed exactly once, and
/// only after both decrements and the self-loop subtraction are in (an
/// RMW at push time reads the counter's latest value, which must be
/// zero).
#[test]
fn flagged_trim_counter_pushes_once_after_all_releases() {
    let report = explore(opts(3000), || {
        let loops = [0u32, 2];
        let counters = loops.map(|l| AtomicU32::new(SELF_LOOP_FLAG | (2 + l)));
        let pushes = [AtomicU32::new(0), AtomicU32::new(0)];
        swscc_sync::thread::scope(|s| {
            for first in 0..2 {
                let (counters, pushes) = (&counters, &pushes);
                s.spawn(move || {
                    for i in [first, 1 - first] {
                        if release(&counters[i], loops[i]) {
                            // ordering: A1 — an RMW reads the latest value.
                            let now = counters[i].fetch_add(0, Ordering::Relaxed);
                            assert_eq!(now, 0, "node {i} pushed before every release was in");
                            // ordering: A1 — a tally read after the join.
                            pushes[i].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        for i in 0..2 {
            assert_eq!(pushes[i].load(Ordering::Relaxed), 1, "node {i} push count");
            assert_eq!(counters[i].load(Ordering::Relaxed), 0);
        }
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.distinct_schedules >= 1000,
        "{}",
        report.distinct_schedules
    );
}

/// An unbounded spin on a flag nobody sets trips the step bound instead
/// of hanging.
#[test]
fn step_bound_catches_livelock() {
    let report = explore(
        Options {
            iterations: 1,
            max_steps: 200,
            ..opts(1)
        },
        || {
            let flag = AtomicU32::new(0);
            while flag.load(Ordering::Relaxed) == 0 {
                swscc_sync::hint::spin_loop();
            }
        },
    );
    let failure = report.failure.expect("step bound must fire");
    assert!(failure.message.contains("step bound"), "{failure}");
}

/// PCT strategy also finds the publication race.
#[test]
fn pct_strategy_finds_race_too() {
    let report = explore(
        Options {
            strategy: Strategy::Pct { change_points: 3 },
            ..opts(2000)
        },
        || {
            let data = AtomicU32::new(0);
            let flag = AtomicU32::new(0);
            swscc_sync::thread::scope(|s| {
                s.spawn(|| {
                    data.store(1, Ordering::Relaxed);
                    flag.store(1, Ordering::Relaxed);
                });
                s.spawn(|| {
                    if flag.load(Ordering::Relaxed) == 1 {
                        assert_eq!(data.load(Ordering::Relaxed), 1);
                    }
                });
            });
        },
    );
    assert!(report.failure.is_some(), "PCT should find the race as well");
}
