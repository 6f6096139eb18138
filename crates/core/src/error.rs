//! Typed failure surface of the checked entry points.
//!
//! [`crate::detect_scc`] panics on a failure its panic policy does not
//! absorb and runs without bound. [`crate::run_checked`] and [`crate::run_pipeline`] instead
//! return an [`SccError`] and accept a [`RunGuard`] — the caller-facing
//! handle bundling a cooperative cancellation token and an optional
//! wall-clock deadline, both polled by every kernel loop at superstep /
//! round granularity.
//!
//! A `RunGuard` cancels the run when dropped, so a caller that gives up on
//! a result (e.g. a timeout path that stops waiting) automatically
//! unblocks the workers; keep the guard alive for the duration of the call
//! in the ordinary synchronous case.

use std::sync::Arc;
use std::time::Duration;
use swscc_sync::interrupt::{AbortReason, Interrupt};

/// Why a checked SCC run failed. Every variant is a *clean* exit: workers
/// have drained, no thread is left running, and the input graph was never
/// mutated.
#[derive(Clone, Debug, PartialEq, Eq)]
#[must_use = "an SccError says why the run produced no result — propagate or handle it"]
pub enum SccError {
    /// The run was cooperatively cancelled (via [`Canceller::cancel`] or a
    /// [`RunGuard`] drop).
    Cancelled,
    /// The wall-clock deadline of [`RunGuard::with_deadline`] passed.
    DeadlineExceeded,
    /// A fixpoint loop exceeded its watchdog bound — the algorithm-level
    /// invariant "every round makes progress" was violated (a bug or an
    /// injected fault), and the run stopped instead of spinning forever.
    NonConvergence {
        /// Which loop tripped and at what bound.
        detail: String,
    },
    /// A worker panicked and the configured recovery policy
    /// ([`crate::config::PanicPolicy`]) did not (or could not) absorb it.
    WorkerPanic {
        /// The panic payload text.
        message: String,
    },
    /// An always-on host (the `swscc-serve` daemon) shed this run at its
    /// admission gate instead of queueing it unboundedly. The run never
    /// started; retry after the suggested backoff. Never produced by the
    /// batch entry points — it exists here so the service layer speaks
    /// the same typed-error language as everything below it.
    Overloaded {
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
}

impl std::fmt::Display for SccError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SccError::Cancelled => write!(f, "run cancelled"),
            SccError::DeadlineExceeded => write!(f, "run exceeded its deadline"),
            SccError::NonConvergence { detail } => {
                write!(f, "non-convergence: {detail}")
            }
            SccError::WorkerPanic { message } => {
                write!(f, "worker panicked: {message}")
            }
            SccError::Overloaded { retry_after_ms } => {
                write!(
                    f,
                    "overloaded: shed at admission, retry after {retry_after_ms} ms"
                )
            }
        }
    }
}

impl std::error::Error for SccError {}

impl SccError {
    /// Builds the error for an abort recorded on `interrupt` (which must
    /// be aborted; the NonConvergence detail string is pulled from the
    /// token).
    pub(crate) fn from_interrupt(reason: AbortReason, interrupt: &Interrupt) -> SccError {
        match reason {
            AbortReason::Cancelled => SccError::Cancelled,
            AbortReason::DeadlineExceeded => SccError::DeadlineExceeded,
            AbortReason::NonConvergence => SccError::NonConvergence {
                detail: interrupt
                    .detail()
                    .unwrap_or_else(|| "fixpoint exceeded its watchdog bound".to_string()),
            },
        }
    }
}

/// Caller handle for one checked run: cancellation token + deadline.
///
/// Dropping the guard cancels the run — a checked driver still executing
/// against it observes the cancellation at its next poll and returns
/// [`SccError::Cancelled`]. Obtain a detached [`Canceller`] to cancel from
/// another thread while the guard stays with the caller.
pub struct RunGuard {
    interrupt: Arc<Interrupt>,
}

impl RunGuard {
    /// A guard with no deadline.
    #[allow(clippy::new_without_default)]
    pub fn new() -> RunGuard {
        RunGuard {
            interrupt: Interrupt::new(),
        }
    }

    /// A guard whose run aborts with [`SccError::DeadlineExceeded`] once
    /// `budget` wall-clock time has elapsed from now.
    ///
    /// Pathological budgets (`Duration::MAX` and friends) saturate to a
    /// far-future but *real* deadline instead of silently turning the
    /// run unbounded — see `Interrupt::with_deadline`.
    pub fn with_deadline(budget: Duration) -> RunGuard {
        RunGuard {
            interrupt: Interrupt::with_deadline(budget),
        }
    }

    /// Requests cancellation without dropping the guard.
    pub fn cancel(&self) {
        self.interrupt.cancel();
    }

    /// Polls the guard once: `Err` with the typed error if the run
    /// should stop. For hosts that drive their own loops against a
    /// guard instead of handing it to a pipeline — the condensation
    /// reachability walk in [`crate::snapshot::SccSnapshot`] and the
    /// per-request deadline checks in the `swscc-serve` daemon poll
    /// through this.
    pub fn check(&self) -> Result<(), SccError> {
        match self.interrupt.poll() {
            None => Ok(()),
            Some(reason) => Err(SccError::from_interrupt(reason, &self.interrupt)),
        }
    }

    /// A detached handle that can cancel this guard's run from any thread.
    pub fn canceller(&self) -> Canceller {
        Canceller {
            interrupt: Arc::clone(&self.interrupt),
        }
    }

    /// The shared token the kernels poll.
    pub(crate) fn interrupt(&self) -> &Arc<Interrupt> {
        &self.interrupt
    }
}

impl Drop for RunGuard {
    fn drop(&mut self) {
        self.interrupt.cancel();
    }
}

/// Detached cancellation handle (see [`RunGuard::canceller`]). Cloneable
/// and `Send`; cancelling twice (or after the run finished) is a no-op.
#[derive(Clone)]
#[must_use = "a dropped Canceller can never cancel its run — keep it, hand it to the \
              watcher thread, or call .cancel() immediately"]
pub struct Canceller {
    interrupt: Arc<Interrupt>,
}

impl Canceller {
    /// Requests cooperative cancellation of the associated run.
    pub fn cancel(&self) {
        self.interrupt.cancel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_drop_cancels() {
        let guard = RunGuard::new();
        let interrupt = Arc::clone(guard.interrupt());
        assert!(!interrupt.is_aborted());
        drop(guard);
        assert_eq!(interrupt.reason(), Some(AbortReason::Cancelled));
    }

    #[test]
    fn canceller_works_detached() {
        let guard = RunGuard::new();
        let c = guard.canceller();
        c.cancel();
        assert_eq!(guard.interrupt().reason(), Some(AbortReason::Cancelled));
    }

    #[test]
    fn deadline_guard_trips() {
        let guard = RunGuard::with_deadline(Duration::ZERO);
        assert_eq!(
            guard.interrupt().poll(),
            Some(AbortReason::DeadlineExceeded)
        );
    }

    #[test]
    fn error_from_interrupt_carries_detail() {
        let i = Interrupt::new();
        i.trip_non_convergence("par-wcc", 17);
        let e = SccError::from_interrupt(i.reason().unwrap(), &i);
        match &e {
            SccError::NonConvergence { detail } => {
                assert!(detail.contains("par-wcc"));
                assert!(detail.contains("17"));
            }
            other => panic!("wrong error: {other:?}"),
        }
        assert!(e.to_string().contains("non-convergence"));
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(SccError::Cancelled.to_string(), "run cancelled");
        assert_eq!(
            SccError::DeadlineExceeded.to_string(),
            "run exceeded its deadline"
        );
        assert!(SccError::WorkerPanic {
            message: "boom".into()
        }
        .to_string()
        .contains("boom"));
        let shed = SccError::Overloaded { retry_after_ms: 25 }.to_string();
        assert!(shed.contains("overloaded") && shed.contains("25"));
    }

    #[test]
    fn pathological_deadline_budget_saturates() {
        let guard = RunGuard::with_deadline(Duration::MAX);
        assert!(
            guard.interrupt().deadline().is_some(),
            "Duration::MAX must clamp to a real deadline, not drop it"
        );
        assert_eq!(guard.check(), Ok(()));
    }

    #[test]
    fn check_reports_typed_errors() {
        let guard = RunGuard::with_deadline(Duration::ZERO);
        assert_eq!(guard.check(), Err(SccError::DeadlineExceeded));
        let guard = RunGuard::new();
        assert_eq!(guard.check(), Ok(()));
        guard.cancel();
        assert_eq!(guard.check(), Err(SccError::Cancelled));
    }
}
