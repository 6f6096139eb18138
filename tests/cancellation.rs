//! Cancellation and deadline behavior of the checked drivers, end to end.
//!
//! The contract under test (see `crates/core/src/error.rs`): a checked
//! run observes cancellation or a passed deadline at its next poll point
//! (superstep / round / task boundary), drains its workers, and returns
//! the matching typed error — it never hangs and never returns a partial
//! result as if it were complete.
//!
//! To make "mid-run" deterministic rather than racy, the tests that need
//! a run to still be in flight when the cancel lands use the fault layer's
//! `Delay` kind to stall a round boundary: the run is provably inside the
//! pipeline while the canceller thread fires. Fault sessions serialize on
//! a process-global mutex, so these tests simply queue behind each other.

use std::time::{Duration, Instant};
use swscc::graph::gen::watts_strogatz::watts_strogatz;
use swscc::sync::fault::{self, FaultKind, FaultPlan};
use swscc::{run_checked, Algorithm, CsrGraph, PanicPolicy, RunGuard, SccConfig, SccError};

/// Generous wall-clock bound on "cancellation unblocks the run": covers
/// one stalled round (the delay below) plus scheduling noise, while still
/// catching a driver that ignores the token and runs to completion or
/// hangs.
const UNBLOCK_BOUND: Duration = Duration::from_secs(10);

const DELAY_PER_ROUND: Duration = Duration::from_millis(30);

fn test_graph() -> CsrGraph {
    watts_strogatz(400, 6, 0.1, 99)
}

/// Runs `algo` with every round boundary at `site` stalled, cancelling
/// from a second thread shortly after the run starts.
fn cancel_mid_run(algo: Algorithm, site: &'static str, threads: usize) {
    let g = test_graph();
    let mut cfg = SccConfig::with_threads(threads);
    cfg.on_panic = PanicPolicy::Fallback;
    let guard = RunGuard::new();
    let canceller = guard.canceller();

    // Stall every hit of `site` so the run is still inside the pipeline
    // when the cancel lands.
    let _fault = fault::arm(FaultPlan {
        site: Some(site),
        nth: 0,
        kind: FaultKind::Delay(DELAY_PER_ROUND),
        repeat: true,
    });

    let (outcome, elapsed) = swscc::sync::thread::scope(|s| {
        s.spawn(move || {
            swscc::sync::thread::sleep(DELAY_PER_ROUND / 2);
            canceller.cancel();
        });
        let start = Instant::now();
        let outcome = run_checked(&g, algo, &cfg, &guard);
        (outcome, start.elapsed())
    });

    assert_eq!(
        outcome.expect_err(&format!(
            "{algo:?} ({threads} threads) should observe the cancel"
        )),
        SccError::Cancelled
    );
    assert!(
        elapsed < UNBLOCK_BOUND,
        "{algo:?} ({threads} threads) took {elapsed:?} to unblock"
    );
}

#[test]
fn cancel_unblocks_every_driver() {
    for threads in [1, 2, 4] {
        cancel_mid_run(Algorithm::Baseline, "trim-round", threads);
        cancel_mid_run(Algorithm::Method1, "fwbw-superstep", threads);
        cancel_mid_run(Algorithm::Method2, "wcc-round", threads);
        cancel_mid_run(Algorithm::Coloring, "coloring-round", threads);
        cancel_mid_run(Algorithm::Multistep, "fwbw-superstep", threads);
        cancel_mid_run(Algorithm::FwBw, "recur-task", threads);
    }
}

/// Trim's peel on a path is one unbroken chain from each end, so the
/// only poll points the run passes for most of its work are the peel's
/// own.
const PATH_NODES: u32 = 200_000;

const PEEL_DELAY: Duration = Duration::from_millis(100);

#[test]
fn cancel_unblocks_long_trim_peel() {
    let edges: Vec<(u32, u32)> = (0..PATH_NODES - 1).map(|i| (i, i + 1)).collect();
    let g = CsrGraph::from_edges(PATH_NODES as usize, &edges);
    for threads in [1, 2, 4] {
        let cfg = SccConfig::with_threads(threads);
        let guard = RunGuard::new();
        let canceller = guard.canceller();
        let _fault = fault::arm(FaultPlan {
            site: Some("trim-round"),
            nth: 0,
            kind: FaultKind::Delay(PEEL_DELAY),
            repeat: true,
        });
        let (outcome, elapsed) = swscc::sync::thread::scope(|s| {
            // Cancels once the peels have passed the site three times, so
            // at least one worker is stalled thousands of resolutions
            // into its peel. A kernel that never gets that far finishes
            // first and fails the `Cancelled` check below.
            s.spawn(move || {
                let give_up = Instant::now() + UNBLOCK_BOUND;
                while fault::hits() < 3 && Instant::now() < give_up {
                    swscc::sync::thread::sleep(Duration::from_millis(1));
                }
                canceller.cancel();
            });
            let start = Instant::now();
            let outcome = run_checked(&g, Algorithm::Baseline, &cfg, &guard);
            (outcome, start.elapsed())
        });
        // (Not `expect_err`: a completed run would print 200k labels.)
        assert!(
            matches!(outcome, Err(SccError::Cancelled)),
            "{threads} threads: the cancel must land, got {:?}",
            outcome.map(|(r, _)| r.num_components())
        );
        // Running on through every stalled poll (about 25 per peel) would
        // take 2.5 s or more.
        assert!(
            elapsed < PEEL_DELAY * 12,
            "{threads} threads took {elapsed:?} to unblock"
        );
    }
}

#[test]
fn expired_deadline_rejects_before_work() {
    let g = test_graph();
    let cfg = SccConfig::with_threads(2);
    for &algo in &[
        Algorithm::Baseline,
        Algorithm::Method1,
        Algorithm::Method2,
        Algorithm::Coloring,
        Algorithm::Multistep,
        Algorithm::FwBw,
        // Sequential oracles go through the same guard check in
        // `run_checked`.
        Algorithm::Tarjan,
    ] {
        let guard = RunGuard::with_deadline(Duration::ZERO);
        assert_eq!(
            run_checked(&g, algo, &cfg, &guard).expect_err("deadline already passed"),
            SccError::DeadlineExceeded,
            "{algo:?}"
        );
    }
}

#[test]
fn deadline_trips_mid_run() {
    // Stall rounds so a short-but-nonzero deadline expires while the run
    // is demonstrably inside the pipeline.
    let g = test_graph();
    let cfg = SccConfig::with_threads(2);
    let _fault = fault::arm(FaultPlan {
        site: Some("trim-round"),
        nth: 0,
        kind: FaultKind::Delay(DELAY_PER_ROUND),
        repeat: true,
    });
    let guard = RunGuard::with_deadline(DELAY_PER_ROUND / 2);
    let start = Instant::now();
    let outcome = run_checked(&g, Algorithm::Method2, &cfg, &guard);
    assert_eq!(
        outcome.expect_err("deadline should expire mid-run"),
        SccError::DeadlineExceeded
    );
    assert!(start.elapsed() < UNBLOCK_BOUND);
}

#[test]
fn dropping_guard_cancels_for_detached_observers() {
    // The documented drop contract: a caller that abandons the guard
    // cancels the run. Simulate the abandoned-run half with a thread that
    // starts the run against a guard the main thread drops.
    let g = test_graph();
    let cfg = SccConfig::with_threads(2);
    let guard = RunGuard::new();
    let canceller = guard.canceller(); // keeps the Arc alive past the drop

    let _fault = fault::arm(FaultPlan {
        site: Some("trim-round"),
        nth: 0,
        kind: FaultKind::Delay(DELAY_PER_ROUND),
        repeat: true,
    });

    swscc::sync::thread::scope(|scope| {
        let run = scope.spawn(|| run_checked(&g, Algorithm::Method1, &cfg, &guard));
        swscc::sync::thread::sleep(DELAY_PER_ROUND / 2);
        // `guard` is borrowed by the runner thread; cancelling through the
        // detached handle is the same code path a drop takes.
        canceller.cancel();
        let outcome = run.join().expect("runner must not panic");
        assert_eq!(outcome.expect_err("cancelled"), SccError::Cancelled);
    });
}

#[test]
fn cancelled_run_leaves_fresh_guard_reusable() {
    // A cancelled run must not leave poisoned global state behind: the
    // same graph, config and algorithm succeed with a fresh guard.
    let g = test_graph();
    let cfg = SccConfig::with_threads(2);

    let guard = RunGuard::new();
    guard.cancel();
    assert_eq!(
        run_checked(&g, Algorithm::Method2, &cfg, &guard).expect_err("pre-cancelled"),
        SccError::Cancelled
    );

    let (result, _) = run_checked(&g, Algorithm::Method2, &cfg, &RunGuard::new())
        .expect("fresh guard must succeed");
    let (oracle, _) = run_checked(&g, Algorithm::Tarjan, &cfg, &RunGuard::new()).unwrap();
    assert_eq!(result.canonical_labels(), oracle.canonical_labels());
}
