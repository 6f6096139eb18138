//! Instrumentation: per-phase timings and counters, and the recursive-task
//! log — the measurement machinery behind the paper's Figure 7 (execution
//! time breakdown), Figure 8 (fraction of nodes resolved per phase), and
//! the §3.3 first-five-tasks log.

use crate::result::SccResult;
use std::time::{Duration, Instant};
use swscc_parallel::QueueStats;
use swscc_sync::Mutex;

/// The phases of the paper's algorithms, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The first Par-Trim (Alg. 4) — also the *only* trim for Baseline.
    ParTrim,
    /// Data-parallel FW-BW peel of the giant SCC (§3.2, Methods 1 & 2).
    ParFwbw,
    /// Par-Trim2 + surrounding trims after the peel (Par-Trim′; §3.4/3.5).
    ParTrim2,
    /// Parallel weakly-connected-component re-partitioning (Alg. 7).
    ParWcc,
    /// Recursive FW-BW over the work queue (Alg. 5; phase 2).
    RecurFwbw,
}

impl Phase {
    /// All phases in execution order.
    pub fn all() -> [Phase; 5] {
        [
            Phase::ParTrim,
            Phase::ParFwbw,
            Phase::ParTrim2,
            Phase::ParWcc,
            Phase::RecurFwbw,
        ]
    }

    /// Name as used in the Fig. 7 legends.
    pub fn name(self) -> &'static str {
        match self {
            Phase::ParTrim => "par-trim",
            Phase::ParFwbw => "par-fwbw",
            Phase::ParTrim2 => "par-trim2",
            Phase::ParWcc => "par-wcc",
            Phase::RecurFwbw => "recur-fwbw",
        }
    }
}

/// One recorded recursive FW-BW task execution: the sizes the §3.3 log
/// prints (`SCC FW BW Remain`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TaskLogEntry {
    /// Size of the SCC identified by this task.
    pub scc: usize,
    /// Size of the forward partition pushed back to the queue.
    pub fw: usize,
    /// Size of the backward partition pushed back to the queue.
    pub bw: usize,
    /// Size of the remaining partition pushed back to the queue.
    pub remain: usize,
}

/// One recovery action a checked driver took after catching a worker
/// panic (policy [`crate::config::PanicPolicy::Fallback`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// A task died at the work-queue boundary (no shared state touched);
    /// the intact task was re-pushed and the queue run restarted.
    TaskRetried {
        /// The caught panic text.
        message: String,
    },
    /// Boundary retries were exhausted; the surviving residue (state still
    /// consistent — only boundary panics occurred) was finished by
    /// sequential Tarjan on the induced subgraph.
    DegradedToSequential {
        /// The caught panic text.
        message: String,
        /// Alive nodes handed to the sequential finish.
        residue: usize,
    },
    /// A panic fired *inside* a task or a data-parallel kernel, so shared
    /// state may hold partial claims; the whole run was redone from
    /// scratch with sequential Tarjan on the original graph.
    RestartedSequential {
        /// The caught panic text.
        message: String,
    },
}

/// Everything measured during one SCC run.
#[derive(Clone, Debug, Default)]
#[must_use = "a RunReport carries recovery events and phase timings the caller should inspect or log"]
pub struct RunReport {
    /// Wall-clock time per phase (zero for phases the method skips).
    pub phase_times: Vec<(Phase, Duration)>,
    /// Nodes whose SCC was resolved in each phase (Fig. 8's fractions).
    pub phase_resolved: Vec<(Phase, usize)>,
    /// Total wall-clock time.
    pub total_time: Duration,
    /// Work-queue statistics from the recursive phase (§3.3's queue-depth
    /// and §5's "about 10,000 work items" observations).
    pub queue: QueueStats,
    /// Number of tasks seeding the recursive phase.
    pub initial_tasks: usize,
    /// Number of Par-FWBW pivot trials used (Methods 1 & 2).
    pub fwbw_trials: usize,
    /// First-N recursive task executions, §3.3 format.
    pub task_log: Vec<TaskLogEntry>,
    /// Recovery actions taken by a pipeline run (empty on a clean run
    /// and for the sequential oracles).
    pub recoveries: Vec<RecoveryEvent>,
}

impl RunReport {
    /// Time spent in `phase` (zero if the phase never ran).
    pub fn time_in(&self, phase: Phase) -> Duration {
        self.phase_times
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|(_, d)| *d)
            .unwrap_or_default()
    }

    /// Nodes resolved in `phase`.
    pub fn resolved_in(&self, phase: Phase) -> usize {
        self.phase_resolved
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// Fraction of all resolved nodes attributed to `phase` (Fig. 8).
    pub fn resolved_fraction(&self, phase: Phase) -> f64 {
        let total: usize = self.phase_resolved.iter().map(|(_, n)| n).sum();
        if total == 0 {
            0.0
        } else {
            self.resolved_in(phase) as f64 / total as f64
        }
    }
}

impl std::fmt::Display for RunReport {
    /// Human-readable multi-line summary (phase times, resolution
    /// fractions, queue statistics) — what the CLI and examples print.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "total: {:?}", self.total_time)?;
        for phase in Phase::all() {
            let t = self.time_in(phase);
            let r = self.resolved_in(phase);
            if t != Duration::ZERO || r != 0 {
                writeln!(
                    f,
                    "  {:<11} {:>9.2?}  resolved {:>8} ({:>5.1}%)",
                    phase.name(),
                    t,
                    r,
                    100.0 * self.resolved_fraction(phase)
                )?;
            }
        }
        if self.queue.tasks_executed > 0 {
            writeln!(
                f,
                "  queue: {} initial, {} executed, max depth {}",
                self.initial_tasks, self.queue.tasks_executed, self.queue.max_global_depth
            )?;
        }
        for r in &self.recoveries {
            let what = match r {
                RecoveryEvent::TaskRetried { .. } => "task retried after boundary panic",
                RecoveryEvent::DegradedToSequential { .. } => {
                    "degraded to sequential finish on residue"
                }
                RecoveryEvent::RestartedSequential { .. } => "restarted sequentially from scratch",
            };
            writeln!(f, "  recovery: {what}")?;
        }
        Ok(())
    }
}

/// Shared mutable collector threaded through a parallel run. Public so
/// custom pipelines (e.g. the ablation harnesses, which invoke individual
/// kernels) can produce [`RunReport`]s of the same shape.
pub struct Collector {
    start: Instant,
    phase_times: Mutex<Vec<(Phase, Duration)>>,
    phase_resolved: Mutex<Vec<(Phase, usize)>>,
    task_log: Mutex<Vec<TaskLogEntry>>,
    task_log_limit: usize,
    recoveries: Mutex<Vec<RecoveryEvent>>,
}

impl Collector {
    pub fn new(task_log_limit: usize) -> Self {
        Collector {
            start: Instant::now(),
            phase_times: Mutex::new(Vec::new()),
            phase_resolved: Mutex::new(Vec::new()),
            task_log: Mutex::new(Vec::new()),
            task_log_limit,
            recoveries: Mutex::new(Vec::new()),
        }
    }

    /// Records a panic-recovery action (checked drivers only).
    pub fn record_recovery(&self, event: RecoveryEvent) {
        self.recoveries.lock().push(event);
    }

    /// Times `f` and attributes the duration (and the number of nodes it
    /// reports as resolved) to `phase`. `f` returns resolved-node count.
    pub fn phase<R>(&self, phase: Phase, f: impl FnOnce() -> (usize, R)) -> R {
        let t0 = Instant::now();
        let (resolved, out) = f();
        let dt = t0.elapsed();
        {
            let mut times = self.phase_times.lock();
            match times.iter_mut().find(|(p, _)| *p == phase) {
                Some((_, d)) => *d += dt,
                None => times.push((phase, dt)),
            }
        }
        {
            let mut res = self.phase_resolved.lock();
            match res.iter_mut().find(|(p, _)| *p == phase) {
                Some((_, n)) => *n += resolved,
                None => res.push((phase, resolved)),
            }
        }
        out
    }

    /// Records one recursive task execution if the log is still open.
    pub fn log_task(&self, entry: TaskLogEntry) {
        if self.task_log_limit == 0 {
            return;
        }
        let mut log = self.task_log.lock();
        if log.len() < self.task_log_limit {
            log.push(entry);
        }
    }

    /// Closes the run into its report. [`RunReport::fwbw_trials`] is left
    /// 0: the pipeline engine counts trials and fills it in.
    pub fn into_report(self, queue: QueueStats, initial_tasks: usize) -> RunReport {
        RunReport {
            total_time: self.start.elapsed(),
            phase_times: self.phase_times.into_inner(),
            phase_resolved: self.phase_resolved.into_inner(),
            queue,
            initial_tasks,
            fwbw_trials: 0,
            task_log: self.task_log.into_inner(),
            recoveries: self.recoveries.into_inner(),
        }
    }
}

/// Wraps a sequential algorithm into the `(result, report)` shape used by
/// [`crate::detect_scc`]: total time only, no phases.
pub fn timed_sequential(f: impl FnOnce() -> SccResult) -> (SccResult, RunReport) {
    let t0 = Instant::now();
    let result = f();
    let report = RunReport {
        total_time: t0.elapsed(),
        ..Default::default()
    };
    (result, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_accumulates() {
        let c = Collector::new(0);
        c.phase(Phase::ParTrim, || (10, ()));
        c.phase(Phase::ParTrim, || (5, ()));
        c.phase(Phase::RecurFwbw, || (1, ()));
        let r = c.into_report(QueueStats::default(), 3);
        assert_eq!(r.resolved_in(Phase::ParTrim), 15);
        assert_eq!(r.resolved_in(Phase::RecurFwbw), 1);
        assert_eq!(r.resolved_in(Phase::ParWcc), 0);
        assert!((r.resolved_fraction(Phase::ParTrim) - 15.0 / 16.0).abs() < 1e-12);
        assert_eq!(r.initial_tasks, 3);
    }

    #[test]
    fn task_log_respects_limit() {
        let c = Collector::new(2);
        for i in 0..5 {
            c.log_task(TaskLogEntry {
                scc: i,
                ..Default::default()
            });
        }
        let r = c.into_report(QueueStats::default(), 0);
        assert_eq!(r.task_log.len(), 2);
        assert_eq!(r.task_log[0].scc, 0);
        assert_eq!(r.task_log[1].scc, 1);
    }

    #[test]
    fn task_log_disabled() {
        let c = Collector::new(0);
        c.log_task(TaskLogEntry::default());
        let r = c.into_report(QueueStats::default(), 0);
        assert!(r.task_log.is_empty());
    }

    #[test]
    fn timed_sequential_shape() {
        let (res, rep) = timed_sequential(|| SccResult::from_assignment(vec![0, 1]));
        assert_eq!(res.num_components(), 2);
        assert!(rep.phase_times.is_empty());
        assert_eq!(rep.resolved_fraction(Phase::ParTrim), 0.0);
    }

    #[test]
    fn phase_names() {
        assert_eq!(Phase::all().len(), 5);
        assert_eq!(Phase::ParWcc.name(), "par-wcc");
    }

    #[test]
    fn recoveries_surface_in_report_and_display() {
        let c = Collector::new(0);
        c.record_recovery(RecoveryEvent::TaskRetried {
            message: "injected fault".into(),
        });
        c.record_recovery(RecoveryEvent::DegradedToSequential {
            message: "injected fault".into(),
            residue: 42,
        });
        let r = c.into_report(QueueStats::default(), 0);
        assert_eq!(r.recoveries.len(), 2);
        let text = r.to_string();
        assert!(text.contains("task retried"));
        assert!(text.contains("sequential finish"));
    }

    #[test]
    fn display_renders_phases_and_queue() {
        let c = Collector::new(0);
        c.phase(Phase::ParTrim, || (10, ()));
        c.phase(Phase::RecurFwbw, || (2, ()));
        let r = c.into_report(
            QueueStats {
                max_global_depth: 3,
                max_outstanding: 4,
                tasks_executed: 7,
            },
            2,
        );
        let text = r.to_string();
        assert!(text.contains("par-trim"));
        assert!(text.contains("recur-fwbw"));
        assert!(text.contains("max depth 3"));
        assert!(!text.contains("par-wcc"), "unused phases are omitted");
    }
}
