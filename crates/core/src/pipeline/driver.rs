//! The pipeline engine's private recovery machinery: interrupt checks at
//! stage boundaries, panic capture around the data-parallel stages, and
//! the work-queue retry/degrade/restart policy. A private child of
//! [`super`], so only the engine ([`super::run_pipeline`]) can call it.
//!
//! # Recovery soundness
//!
//! Two situations after a caught panic, with very different options:
//!
//! * **Boundary-consistent** — the panic fired at the work-queue task
//!   boundary, before the handler touched any shared state. Every
//!   *completed* task resolved a whole SCC, so the resolved/unresolved
//!   split respects SCC boundaries and the residue can be finished by any
//!   correct SCC algorithm (we use sequential Tarjan on the induced
//!   subgraph). The failed task itself is intact and can simply be
//!   re-queued.
//! * **Dirty** — the panic fired *inside* a task or a data-parallel
//!   kernel. A FW∩BW sweep may have resolved only part of an SCC, so the
//!   residue's SCCs no longer match the input's: finishing the residue
//!   would split that SCC. The only sound recovery is to discard all
//!   shared state and redo the whole input from scratch (sequential
//!   Tarjan on the original graph).
//!
//! The policy knob [`PanicPolicy`] selects between these recoveries
//! (`Fallback`, the default) and propagating a typed
//! [`SccError::WorkerPanic`] (`Fail`).

use super::StageError;
use crate::config::{PanicPolicy, SccConfig};
use crate::error::SccError;
use crate::fwbw::recursive::{process_task, RecurContext, Task};
use crate::instrument::{Collector, RecoveryEvent, RunReport};
use crate::result::SccResult;
use crate::state::AlgoState;
use crate::tarjan::tarjan_scc;
use swscc_graph::GraphView;
use swscc_parallel::{AbortCause, QueueStats, TwoLevelQueue};

/// Successful outcome of [`run_queue_with_recovery`].
pub(super) struct QueueResolution {
    /// Cumulative queue statistics (across retries, if any).
    pub stats: QueueStats,
    /// Nodes resolved during the queue phase, including a sequential
    /// residue finish if retries were exhausted.
    pub resolved: usize,
}

/// Polls the run's token at a phase boundary; converts a pending abort
/// (cancellation, deadline, watchdog trip) into the typed error.
pub(super) fn check_interrupt<G: GraphView>(state: &AlgoState<'_, G>) -> Result<(), SccError> {
    match state.interrupt().poll() {
        None => Ok(()),
        Some(reason) => Err(SccError::from_interrupt(reason, state.interrupt())),
    }
}

/// Runs one data-parallel phase block with panic capture; `Err` carries
/// the panic text. Any panic here is *dirty* (see the module docs): the
/// caller must either restart from scratch or fail, never keep going.
pub(super) fn catch_phase<R>(body: impl FnOnce() -> R) -> Result<R, String> {
    // recovery: the captured state (AlgoState atomics, the Collector's
    // unpoisoning mutexes) stays structurally valid across an unwind; the
    // *algorithmic* consistency is what's lost, and the caller's policy
    // (full sequential restart or typed error) accounts for exactly that.
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(body))
        .map_err(|payload| swscc_sync::fault::panic_text(payload.as_ref()))
}

/// Full-restart recovery for dirty panics under
/// [`PanicPolicy::Fallback`]: discards every bit of shared state and
/// redoes the whole input with sequential Tarjan. Under
/// [`PanicPolicy::Fail`] returns the typed error instead.
///
/// The report keeps whatever phase accounting accumulated before the
/// restart (documented as pre-recovery progress; the
/// [`RecoveryEvent::RestartedSequential`] entry marks it as superseded).
pub(super) fn recover_full_restart<G: GraphView>(
    g: &G,
    collector: Collector,
    cfg: &SccConfig,
    message: String,
) -> Result<(SccResult, RunReport), SccError> {
    if matches!(cfg.on_panic, PanicPolicy::Fail) {
        return Err(SccError::WorkerPanic { message });
    }
    collector.record_recovery(RecoveryEvent::RestartedSequential { message });
    // graphview: Tarjan needs random-access slices — borrow the raw CSR
    // when the view already is one, decode the compressed stream
    // otherwise (restart is a cold path — correctness over speed).
    let result = match g.as_csr() {
        Some(csr) => tarjan_scc(csr),
        None => tarjan_scc(&g.materialize_csr()),
    };
    let report = collector.into_report(QueueStats::default(), 0);
    Ok((result, report))
}

/// Boundary-consistent degrade: finishes every still-alive node with
/// sequential Tarjan on the induced residual subgraph (sound because only
/// boundary panics occurred, so resolved components are whole SCCs).
/// Returns the residue size.
fn finish_residue_sequential<G: GraphView>(
    state: &AlgoState<'_, G>,
    collector: &Collector,
    message: String,
) -> usize {
    let residue = state.count_alive();
    collector.record_recovery(RecoveryEvent::DegradedToSequential { message, residue });
    state.resolve_residue_sequential()
}

/// Drains `queue` with the full recovery policy:
///
/// * interrupt abort → [`StageError::Fatal`] with the typed error;
/// * panic under [`PanicPolicy::Fail`] → `Fatal(WorkerPanic)`;
/// * first boundary panic → re-push the intact task, record
///   [`RecoveryEvent::TaskRetried`], rerun the queue (leftover tasks are
///   still queued — the rerun resumes, not restarts);
/// * second boundary panic → stop retrying, finish the residue
///   sequentially ([`finish_residue_sequential`]);
/// * dirty (mid-task) panic → [`StageError::Dirty`].
pub(super) fn run_queue_with_recovery<G: GraphView>(
    queue: &TwoLevelQueue<Task>,
    ctx: &RecurContext<'_, '_, G>,
    cfg: &SccConfig,
) -> Result<QueueResolution, StageError> {
    let state = ctx.state;
    let mut retried = false;
    loop {
        let run = queue.run_checked(cfg.threads, state.interrupt(), |task, worker| {
            process_task(ctx, task, worker)
        });
        let abort = match run {
            Ok(stats) => {
                return Ok(QueueResolution {
                    stats,
                    resolved: ctx.resolved_count(),
                })
            }
            Err(abort) => abort,
        };
        match abort.cause {
            AbortCause::Interrupted(reason) => {
                return Err(StageError::Fatal(SccError::from_interrupt(
                    reason,
                    state.interrupt(),
                )))
            }
            AbortCause::Panic {
                message,
                at_boundary,
            } => {
                if matches!(cfg.on_panic, PanicPolicy::Fail) {
                    return Err(StageError::Fatal(SccError::WorkerPanic { message }));
                }
                if !at_boundary {
                    // A partial resolve_into may have split an SCC across
                    // the resolved/unresolved divide; see the module docs.
                    return Err(StageError::Dirty(message));
                }
                // Boundary panic: the handler never saw the task — shared
                // state is consistent and the task is intact.
                if let Some(task) = abort.failed_task {
                    queue.push_global(task);
                }
                if !retried {
                    retried = true;
                    ctx.collector
                        .record_recovery(RecoveryEvent::TaskRetried { message });
                    continue;
                }
                let residue = finish_residue_sequential(state, ctx.collector, message);
                return Ok(QueueResolution {
                    stats: abort.stats,
                    resolved: ctx.resolved_count() + residue,
                });
            }
        }
    }
}
