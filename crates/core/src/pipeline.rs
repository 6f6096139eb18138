//! Composable phase-pipeline engine: the paper's algorithms as declarative
//! stage lists.
//!
//! The paper itself frames its methods as *compositions* — Method 2
//! (Alg. 9) is Method 1 (Alg. 6) plus Par-Trim2 (Alg. 8) and Par-WCC
//! (Alg. 7) spliced into the same skeleton. This module makes that
//! composition literal: each building block is a [`PhaseKernel`], a
//! pipeline is a validated list of [`Stage`]s, and [`run_pipeline`] is the
//! single engine loop that owns — exactly once — everything a per-algorithm
//! driver would otherwise copy-paste:
//!
//! * [`Collector`] phase timing and Fig. 7/8 resolution attribution,
//! * interrupt polling at stage boundaries (`driver::check_interrupt`),
//! * panic capture and the retry/degrade/restart recovery policy
//!   (`driver::catch_phase`, `driver::run_queue_with_recovery`,
//!   `driver::recover_full_restart`),
//! * [`LiveSet`](swscc_parallel::LiveSet) compaction hand-offs between
//!   stages,
//! * watchdog wiring for the fixpoint kernels, and
//! * work-queue spin-up (including the Par-WCC groups → initial-tasks
//!   hand-off).
//!
//! Every parallel [`Algorithm`](crate::Algorithm) is a row in the stock
//! pipeline table ([`Pipeline::stock`]) that [`crate::run_checked`] looks
//! up, and the CLI's `--pipeline` flag runs any legal custom composition
//! with the same per-phase breakdown for free.
//!
//! # Legality rules
//!
//! [`Pipeline::new`] (and hence [`Pipeline::parse`] and
//! [`Pipeline::stock`]) is the one implementation of these rules; it
//! rejects nonsense compositions, so a [`Pipeline`] value is always
//! runnable:
//!
//! 1. A pipeline has at least one stage.
//! 2. The final stage is **terminal** — [`Stage::Tasks`],
//!    [`Stage::Coloring`], or [`Stage::Serial`] — because only the
//!    terminal kernels guarantee every remaining node is resolved.
//! 3. Terminal stages appear *only* in final position (anything after one
//!    would be dead code).
//! 4. [`Stage::Fwbw`] / [`Stage::Peel`] never follow a re-partitioning
//!    stage ([`Stage::Wcc`] or [`Stage::ColorTail`]): the peel targets the
//!    initial whole-graph partition, which re-partitioning destroys.
//!
//! Compositions that are legal but wasteful (a second `fwbw` that finds
//! its partition already dissolved, a `wcc` with no `tasks` to consume its
//! groups) run as no-ops rather than erroring: the rules reject *unsound*
//! pipelines, not unprofitable ones.

use crate::config::{PivotStrategy, SccConfig};
use crate::driver;
use crate::error::{RunGuard, SccError};
use crate::fwbw::parallel::par_fwbw;
use crate::fwbw::recursive::{seed_tasks, RecurContext, Task};
use crate::instrument::{Collector, Phase, RunReport};
use crate::result::SccResult;
use crate::state::{AlgoState, Color, INITIAL_COLOR};
use crate::trim::par_trim;
use crate::trim2::par_trim2;
use crate::wcc::run_wcc;
use rayon::prelude::*;
use std::sync::Arc;
use swscc_graph::bfs::Direction;
use swscc_graph::{CsrGraph, GraphView, NodeId};
use swscc_parallel::{pool::with_pool, QueueStats, TwoLevelQueue};
use swscc_sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};

/// Below this many alive nodes, [`Stage::ColorTail`] stops its parallel
/// rounds (Multistep's serial cutoff; the [`Stage::Serial`] finish takes
/// the rest).
pub const COLOR_TAIL_SERIAL_CUTOFF: usize = 512;
/// Cap on [`Stage::ColorTail`] Coloring rounds before falling through to
/// the next stage regardless of residue size.
pub const COLOR_TAIL_MAX_ROUNDS: usize = 8;

/// One composable building block of an SCC pipeline.
///
/// Each stage names a [`PhaseKernel`]; [`Stage::name`] is the spelling the
/// CLI's `--pipeline` flag accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Par-Trim (Alg. 4) to fixpoint. The first `trim` of a pipeline is
    /// attributed to [`Phase::ParTrim`], later ones to [`Phase::ParTrim2`]
    /// (the Fig. 7 "Par-Trim′" convention).
    Trim,
    /// Data-parallel FW-BW peel of the giant SCC (§3.2), with the
    /// configured pivot strategy and trial budget.
    Fwbw,
    /// Multistep's single-shot peel: one FW-BW trial from the
    /// max-degree-product pivot, overriding the configured strategy.
    Peel,
    /// One Par-Trim2 pass (size-2 SCCs, Alg. 8 / §3.4).
    Trim2,
    /// Par-WCC re-partitioning (Alg. 7): splits the residue into weakly
    /// connected components and hands them to a following [`Stage::Tasks`]
    /// as ready-made work items.
    Wcc,
    /// Orzan max-label-propagation rounds until the residue is exhausted
    /// (terminal).
    Coloring,
    /// Multistep's bounded Coloring tail: color-respecting rounds with
    /// interleaved trims until the residue drops below
    /// [`COLOR_TAIL_SERIAL_CUTOFF`] or [`COLOR_TAIL_MAX_ROUNDS`] is hit.
    ColorTail,
    /// Sequential Tarjan on the induced residual subgraph (terminal).
    Serial,
    /// Recursive FW-BW over the two-level work queue (Alg. 5; terminal).
    Tasks,
}

impl Stage {
    /// Every stage, in the order used by documentation and diagnostics.
    pub fn all() -> [Stage; 9] {
        [
            Stage::Trim,
            Stage::Fwbw,
            Stage::Peel,
            Stage::Trim2,
            Stage::Wcc,
            Stage::Coloring,
            Stage::ColorTail,
            Stage::Serial,
            Stage::Tasks,
        ]
    }

    /// The spelling used in `--pipeline` specs.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Trim => "trim",
            Stage::Fwbw => "fwbw",
            Stage::Peel => "peel",
            Stage::Trim2 => "trim2",
            Stage::Wcc => "wcc",
            Stage::Coloring => "coloring",
            Stage::ColorTail => "colortail",
            Stage::Serial => "serial",
            Stage::Tasks => "tasks",
        }
    }

    /// Parses a name as printed by [`Stage::name`].
    pub fn from_name(s: &str) -> Option<Stage> {
        Stage::all().into_iter().find(|st| st.name() == s)
    }

    /// Whether this stage guarantees every remaining alive node is
    /// resolved when it returns (and may therefore end a pipeline).
    pub fn is_terminal(self) -> bool {
        matches!(self, Stage::Tasks | Stage::Coloring | Stage::Serial)
    }

    /// Whether this stage re-colors the residue into fresh partitions,
    /// invalidating the initial whole-graph partition the peels target.
    fn repartitions(self) -> bool {
        matches!(self, Stage::Wcc | Stage::ColorTail)
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a stage list is not a legal pipeline (see the module docs for the
/// rules). This is a *configuration* error — the CLI maps it to exit
/// code 2 — distinct from the runtime [`SccError`]s a legal pipeline can
/// return.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipelineError {
    /// The stage list is empty.
    Empty,
    /// A stage name in the spec did not parse.
    UnknownStage(String),
    /// The final stage does not resolve the whole residue.
    NotTerminal(Stage),
    /// A terminal stage appears before the final position.
    TerminalNotLast(Stage),
    /// A peel stage follows a re-partitioning stage.
    PeelAfterRepartition {
        /// The offending peel stage.
        peel: Stage,
        /// The re-partitioning stage it follows.
        after: Stage,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Empty => write!(f, "pipeline has no stages"),
            PipelineError::UnknownStage(s) => {
                let known: Vec<&str> = Stage::all().iter().map(|st| st.name()).collect();
                write!(f, "unknown stage {s:?}; available: {}", known.join(", "))
            }
            PipelineError::NotTerminal(s) => write!(
                f,
                "final stage `{s}` does not resolve the whole residue; end with \
                 one of tasks, coloring, serial"
            ),
            PipelineError::TerminalNotLast(s) => write!(
                f,
                "terminal stage `{s}` must be the final stage (everything after \
                 it would be dead code)"
            ),
            PipelineError::PeelAfterRepartition { peel, after } => write!(
                f,
                "`{peel}` cannot follow `{after}`: the FW-BW peel targets the \
                 initial whole-graph partition, which re-partitioning destroys"
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

/// A validated, runnable composition of [`Stage`]s.
///
/// Constructed by [`Pipeline::new`] / [`Pipeline::parse`] (which enforce
/// the legality rules) or looked up from the stock table with
/// [`Pipeline::stock`]. Run it with [`run_pipeline`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pipeline {
    stages: Vec<Stage>,
}

/// Paper work-queue batch size once Par-WCC multiplies the task count
/// (Method 2, §4.3).
const WCC_K: usize = 8;
/// Paper work-queue batch size when the color scan seeds the queue
/// (Baseline and Method 1, §4.3; FW-BW too).
const SCAN_K: usize = 1;

/// The stock pipeline table: every parallel [`crate::Algorithm`] as a
/// stage list (the paper narrative for each row is on its variant).
const STOCK: &[(crate::Algorithm, &[Stage])] = &[
    (crate::Algorithm::FwBw, &[Stage::Tasks]),
    (crate::Algorithm::Baseline, &[Stage::Trim, Stage::Tasks]),
    (
        crate::Algorithm::Method1,
        &[Stage::Trim, Stage::Fwbw, Stage::Trim, Stage::Tasks],
    ),
    (
        crate::Algorithm::Method2,
        &[
            Stage::Trim,
            Stage::Fwbw,
            Stage::Trim,
            Stage::Trim2,
            Stage::Trim,
            Stage::Wcc,
            Stage::Tasks,
        ],
    ),
    (crate::Algorithm::Coloring, &[Stage::Trim, Stage::Coloring]),
    (
        crate::Algorithm::Multistep,
        &[
            Stage::Trim,
            Stage::Peel,
            Stage::Trim,
            Stage::ColorTail,
            Stage::Serial,
        ],
    ),
];

impl Pipeline {
    /// Validates `stages` into a runnable pipeline.
    pub fn new(stages: Vec<Stage>) -> Result<Pipeline, PipelineError> {
        let Some((&last, init)) = stages.split_last() else {
            return Err(PipelineError::Empty);
        };
        if !last.is_terminal() {
            return Err(PipelineError::NotTerminal(last));
        }
        if let Some(&s) = init.iter().find(|s| s.is_terminal()) {
            return Err(PipelineError::TerminalNotLast(s));
        }
        let mut repartitioned_by = None;
        for &s in &stages {
            if matches!(s, Stage::Fwbw | Stage::Peel) {
                if let Some(after) = repartitioned_by {
                    return Err(PipelineError::PeelAfterRepartition { peel: s, after });
                }
            }
            if s.repartitions() {
                repartitioned_by = Some(s);
            }
        }
        Ok(Pipeline { stages })
    }

    /// Parses a comma-separated spec (`"trim,fwbw,trim2,wcc,tasks"`) and
    /// validates it. Whitespace around stage names is ignored.
    pub fn parse(spec: &str) -> Result<Pipeline, PipelineError> {
        let mut stages = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match Stage::from_name(part) {
                Some(s) => stages.push(s),
                None => return Err(PipelineError::UnknownStage(part.to_string())),
            }
        }
        Pipeline::new(stages)
    }

    /// The stock pipeline implementing `algo`, or `None` for the three
    /// sequential oracles (which run outside the engine).
    pub fn stock(algo: crate::Algorithm) -> Option<Pipeline> {
        STOCK.iter().find(|(a, _)| *a == algo).map(|(_, stages)| {
            Pipeline::new(stages.to_vec()).expect("every STOCK row is a legal pipeline")
        })
    }

    /// The validated stage list.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// The work-queue batch size this composition implies when
    /// [`SccConfig::k`] is `None`: the paper uses K = 8 once Par-WCC
    /// multiplies the task count (§4.3) and K = 1 otherwise.
    pub fn default_k(&self) -> usize {
        if self.stages.contains(&Stage::Wcc) {
            WCC_K
        } else {
            SCAN_K
        }
    }

    /// Compiles the stage list into kernel instances, assigning the
    /// Fig. 7 phase tags (first `trim` → `ParTrim`, later trims →
    /// `ParTrim2`).
    fn compile<G: GraphView>(&self) -> Vec<Box<dyn PhaseKernel<G>>> {
        let mut seen_trim = false;
        self.stages
            .iter()
            .map(|&s| -> Box<dyn PhaseKernel<G>> {
                match s {
                    Stage::Trim => {
                        let phase = if seen_trim {
                            Phase::ParTrim2
                        } else {
                            seen_trim = true;
                            Phase::ParTrim
                        };
                        Box::new(TrimKernel { phase })
                    }
                    Stage::Fwbw => Box::new(FwbwKernel { single_peel: false }),
                    Stage::Peel => Box::new(FwbwKernel { single_peel: true }),
                    Stage::Trim2 => Box::new(Trim2Kernel),
                    Stage::Wcc => Box::new(WccKernel),
                    Stage::Coloring => Box::new(ColoringKernel),
                    Stage::ColorTail => Box::new(ColorTailKernel),
                    Stage::Serial => Box::new(SerialKernel),
                    Stage::Tasks => Box::new(TasksKernel),
                }
            })
            .collect()
    }
}

impl std::fmt::Display for Pipeline {
    /// The `--pipeline` spelling: stage names joined by commas.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            f.write_str(s.name())?;
        }
        Ok(())
    }
}

/// Shared engine context handed to every kernel: the run configuration,
/// the instrumentation sink, and the cross-stage hand-off slots.
pub struct PipelineCtx<'a> {
    /// The run configuration.
    pub cfg: &'a SccConfig,
    /// The instrumentation sink (phase times, task log, recoveries).
    pub collector: &'a Collector,
    /// Par-WCC → Tasks hand-off: groups produced by a [`Stage::Wcc`]
    /// kernel, consumed (instead of a fresh color scan) by the next
    /// [`Stage::Tasks`]. Stale entries are harmless — task processing
    /// skips resolved members.
    pub groups: Option<Vec<(Color, Vec<NodeId>)>>,
    /// Work-queue statistics reported by a [`Stage::Tasks`] kernel.
    pub queue_stats: QueueStats,
    /// Work items seeding the recursive phase (or Coloring rounds, for
    /// the stock Coloring pipeline's legacy report shape).
    pub initial_tasks: usize,
    /// The composition's work-queue K default ([`Pipeline::default_k`]).
    pub k_default: usize,
}

/// How one stage run ended short of success. `Fatal` propagates as-is;
/// `Dirty` means shared state may hold partial SCC claims and the engine
/// must discard everything and restart sequentially
/// (`driver::recover_full_restart`) — the same split as
/// `driver::DriverError`, surfaced at the trait boundary.
pub enum StageError {
    /// A clean typed failure (interrupt, or a panic under
    /// [`crate::PanicPolicy::Fail`]).
    Fatal(SccError),
    /// A dirty panic under [`crate::PanicPolicy::Fallback`]; carries the
    /// panic text.
    Dirty(String),
}

/// What a completed stage reports back to the engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseOutcome {
    /// Nodes this stage resolved, attributed to the kernel's phase tag by
    /// the engine (composite kernels that attribute internally report 0).
    pub resolved: usize,
}

/// One composable pipeline stage: a named kernel the engine times,
/// guards, and sequences.
///
/// Implementations mutate the shared [`AlgoState`] (colors, marks,
/// component output) and use [`PipelineCtx`] for configuration and
/// cross-stage hand-offs. The *engine* owns the cross-cutting concerns:
/// kernels never poll the interrupt at stage granularity, never call
/// `driver::catch_phase`, and never record recovery events themselves —
/// the engine wraps every non-self-recovering kernel in a panic boundary
/// and maps a caught panic to the dirty-restart policy.
pub trait PhaseKernel<G: GraphView = CsrGraph> {
    /// Stage name, as spelled in `--pipeline` specs.
    fn name(&self) -> &'static str;

    /// The Fig. 7 phase the engine attributes this stage's wall-clock
    /// time and resolved-node count to. `None` for composite kernels
    /// (Coloring rounds, the Multistep tail) that attribute their
    /// sub-steps internally via [`PipelineCtx::collector`].
    fn phase(&self) -> Option<Phase>;

    /// Whether the kernel manages its own panic/recovery boundary. Only
    /// the work-queue stage returns `true`: its boundary panics are
    /// recoverable in place (retry / degrade), which the blanket dirty
    /// boundary the engine wraps around everything else cannot express.
    fn self_recovering(&self) -> bool {
        false
    }

    /// Runs the stage to completion (or typed failure).
    fn run(
        &self,
        state: &AlgoState<'_, G>,
        ctx: &mut PipelineCtx<'_>,
    ) -> Result<PhaseOutcome, StageError>;
}

// ---------------------------------------------------------------------------
// Engine loop
// ---------------------------------------------------------------------------

/// Runs `pipeline` on `g` under `guard`: the single checked entry point
/// behind every parallel algorithm and every custom `--pipeline`
/// composition.
///
/// The engine polls the guard at stage boundaries, wraps data-parallel
/// stages in a dirty panic boundary (caught panic → full sequential
/// restart under [`crate::PanicPolicy::Fallback`]), compacts the
/// live-residue set between stages, and assembles the per-phase
/// [`RunReport`].
#[must_use = "dropping the result discards both the SCC partition and the run's error/recovery record"]
pub fn run_pipeline<G: GraphView>(
    g: &G,
    pipeline: &Pipeline,
    cfg: &SccConfig,
    guard: &RunGuard,
) -> Result<(SccResult, RunReport), SccError> {
    with_pool(cfg.threads, || {
        let kernels: Vec<Box<dyn PhaseKernel<G>>> = pipeline.compile();
        let state =
            AlgoState::with_interrupt(g, Arc::clone(guard.interrupt()), cfg.watchdog_factor);
        let collector = Collector::new(cfg.task_log_limit);

        let outcome = {
            let mut ctx = PipelineCtx {
                cfg,
                collector: &collector,
                groups: None,
                queue_stats: QueueStats::default(),
                initial_tasks: 0,
                k_default: pipeline.default_k(),
            };
            run_stages(&kernels, &state, &mut ctx).map(|()| (ctx.queue_stats, ctx.initial_tasks))
        };
        match outcome {
            Ok((queue_stats, initial_tasks)) => {
                driver::check_interrupt(&state)?;
                let report = collector.into_report(queue_stats, initial_tasks);
                Ok((state.into_result(), report))
            }
            Err(StageError::Fatal(e)) => Err(e),
            Err(StageError::Dirty(message)) => {
                driver::recover_full_restart(g, collector, cfg, message)
            }
        }
    })
}

/// The stage sequencer: interrupt poll, timed + guarded kernel run, then
/// a live-set compaction hand-off, per stage.
fn run_stages<G: GraphView>(
    kernels: &[Box<dyn PhaseKernel<G>>],
    state: &AlgoState<'_, G>,
    ctx: &mut PipelineCtx<'_>,
) -> Result<(), StageError> {
    for kernel in kernels {
        driver::check_interrupt(state).map_err(StageError::Fatal)?;
        let collector = ctx.collector;
        let outcome = match kernel.phase() {
            Some(phase) => collector.phase(phase, || {
                let out = run_guarded(kernel.as_ref(), state, ctx);
                let resolved = out.as_ref().map_or(0, |o| o.resolved);
                (resolved, out)
            }),
            // Composite kernels attribute their sub-steps internally.
            None => run_guarded(kernel.as_ref(), state, ctx),
        };
        outcome?;
        // Phase-boundary compaction point: the next stage's full sweeps
        // cost O(|residue|) (policy-gated; `Never` keeps O(N) sweeps).
        state.compact_live(ctx.cfg.live_set_compaction);
    }
    Ok(())
}

/// Runs one kernel inside the engine's panic boundary (unless the kernel
/// is self-recovering — the work-queue stage, whose recovery loop
/// distinguishes boundary from dirty panics itself).
fn run_guarded<G: GraphView>(
    kernel: &dyn PhaseKernel<G>,
    state: &AlgoState<'_, G>,
    ctx: &mut PipelineCtx<'_>,
) -> Result<PhaseOutcome, StageError> {
    if kernel.self_recovering() {
        return kernel.run(state, ctx);
    }
    match driver::catch_phase(|| kernel.run(state, ctx)) {
        Ok(out) => out,
        // A panic inside a data-parallel kernel may have split an SCC
        // across the resolved/unresolved divide; only a restart is sound.
        Err(message) => Err(StageError::Dirty(message)),
    }
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

/// [`Stage::Trim`]: Par-Trim to fixpoint.
struct TrimKernel {
    /// `ParTrim` for the pipeline's first trim, `ParTrim2` after.
    phase: Phase,
}

impl<G: GraphView> PhaseKernel<G> for TrimKernel {
    fn name(&self) -> &'static str {
        "trim"
    }
    fn phase(&self) -> Option<Phase> {
        Some(self.phase)
    }
    fn run(
        &self,
        state: &AlgoState<'_, G>,
        _ctx: &mut PipelineCtx<'_>,
    ) -> Result<PhaseOutcome, StageError> {
        Ok(PhaseOutcome {
            resolved: par_trim(state),
        })
    }
}

/// [`Stage::Fwbw`] / [`Stage::Peel`]: the data-parallel giant-SCC peel.
struct FwbwKernel {
    /// Multistep mode: exactly one trial from the max-degree-product
    /// pivot, regardless of the configured strategy.
    single_peel: bool,
}

impl<G: GraphView> PhaseKernel<G> for FwbwKernel {
    fn name(&self) -> &'static str {
        if self.single_peel {
            "peel"
        } else {
            "fwbw"
        }
    }
    fn phase(&self) -> Option<Phase> {
        Some(Phase::ParFwbw)
    }
    fn run(
        &self,
        state: &AlgoState<'_, G>,
        ctx: &mut PipelineCtx<'_>,
    ) -> Result<PhaseOutcome, StageError> {
        let peel_cfg;
        let cfg = if self.single_peel {
            peel_cfg = SccConfig {
                pivot: PivotStrategy::MaxDegreeProduct,
                max_trials: 1,
                ..*ctx.cfg
            };
            &peel_cfg
        } else {
            ctx.cfg
        };
        let outcome = par_fwbw(state, cfg, INITIAL_COLOR);
        // ordering: driver-thread statistic updated between stages; the
        // into_report load happens after all joins.
        ctx.collector
            .fwbw_trials
            .fetch_add(outcome.trials, Ordering::Relaxed);
        Ok(PhaseOutcome {
            resolved: outcome.resolved,
        })
    }
}

/// [`Stage::Trim2`]: one Par-Trim2 pass.
struct Trim2Kernel;

impl<G: GraphView> PhaseKernel<G> for Trim2Kernel {
    fn name(&self) -> &'static str {
        "trim2"
    }
    fn phase(&self) -> Option<Phase> {
        Some(Phase::ParTrim2)
    }
    fn run(
        &self,
        state: &AlgoState<'_, G>,
        _ctx: &mut PipelineCtx<'_>,
    ) -> Result<PhaseOutcome, StageError> {
        Ok(PhaseOutcome {
            resolved: par_trim2(state),
        })
    }
}

/// [`Stage::Wcc`]: Par-WCC re-partitioning, groups stashed for the next
/// [`Stage::Tasks`].
struct WccKernel;

impl<G: GraphView> PhaseKernel<G> for WccKernel {
    fn name(&self) -> &'static str {
        "wcc"
    }
    fn phase(&self) -> Option<Phase> {
        Some(Phase::ParWcc)
    }
    fn run(
        &self,
        state: &AlgoState<'_, G>,
        ctx: &mut PipelineCtx<'_>,
    ) -> Result<PhaseOutcome, StageError> {
        let out = run_wcc(state, ctx.cfg);
        ctx.groups = Some(out.groups);
        Ok(PhaseOutcome { resolved: 0 })
    }
}

/// [`Stage::Tasks`]: the recursive FW-BW work-queue phase, seeded either
/// by a preceding Par-WCC's groups or by the §4.2 color scan.
struct TasksKernel;

impl<G: GraphView> PhaseKernel<G> for TasksKernel {
    fn name(&self) -> &'static str {
        "tasks"
    }
    fn phase(&self) -> Option<Phase> {
        Some(Phase::RecurFwbw)
    }
    fn self_recovering(&self) -> bool {
        true
    }
    fn run(
        &self,
        state: &AlgoState<'_, G>,
        ctx: &mut PipelineCtx<'_>,
    ) -> Result<PhaseOutcome, StageError> {
        let cfg = ctx.cfg;
        let tasks: Vec<Task> = match ctx.groups.take() {
            Some(groups) => groups
                .into_iter()
                .map(|(color, members)| {
                    if cfg.hybrid_sets {
                        Task::WithMembers { color, members }
                    } else {
                        Task::ColorOnly { color }
                    }
                })
                .collect(),
            None => seed_tasks(state, cfg),
        };
        ctx.initial_tasks = tasks.len();
        let queue: TwoLevelQueue<Task> =
            TwoLevelQueue::from_tasks(cfg.resolve_k(ctx.k_default), tasks);
        let rctx = RecurContext::new(state, ctx.collector, cfg);
        match driver::run_queue_with_recovery(&queue, &rctx, cfg) {
            Ok(res) => {
                ctx.queue_stats = res.stats;
                Ok(PhaseOutcome {
                    resolved: res.resolved,
                })
            }
            Err(driver::DriverError::Fatal(e)) => Err(StageError::Fatal(e)),
            Err(driver::DriverError::DirtyRestart(message)) => Err(StageError::Dirty(message)),
        }
    }
}

/// [`Stage::Serial`]: sequential Tarjan on the induced residual subgraph.
struct SerialKernel;

impl<G: GraphView> PhaseKernel<G> for SerialKernel {
    fn name(&self) -> &'static str {
        "serial"
    }
    fn phase(&self) -> Option<Phase> {
        Some(Phase::RecurFwbw)
    }
    fn run(
        &self,
        state: &AlgoState<'_, G>,
        _ctx: &mut PipelineCtx<'_>,
    ) -> Result<PhaseOutcome, StageError> {
        Ok(PhaseOutcome {
            resolved: state.resolve_residue_sequential(),
        })
    }
}

/// [`Stage::Coloring`]: Orzan max-label-propagation rounds until the
/// residue is exhausted.
///
/// Composite kernel: label-propagation work is attributed to
/// [`Phase::ParFwbw`] (it plays the same "find SCC seeds by reachability"
/// role) and the backward collection to [`Phase::RecurFwbw`], matching
/// the legacy Coloring driver's report shape. The round count lands in
/// [`RunReport::fwbw_trials`] and [`RunReport::initial_tasks`].
struct ColoringKernel;

impl<G: GraphView> PhaseKernel<G> for ColoringKernel {
    fn name(&self) -> &'static str {
        "coloring"
    }
    fn phase(&self) -> Option<Phase> {
        None
    }
    fn run(
        &self,
        state: &AlgoState<'_, G>,
        ctx: &mut PipelineCtx<'_>,
    ) -> Result<PhaseOutcome, StageError> {
        let rounds = coloring_rounds(state, ctx);
        // ordering: driver-thread statistic (between stages, before the
        // into_report load).
        ctx.collector
            .fwbw_trials
            .fetch_add(rounds, Ordering::Relaxed);
        ctx.initial_tasks = rounds;
        Ok(PhaseOutcome { resolved: 0 })
    }
}

/// The Coloring rounds proper; returns the round count.
fn coloring_rounds<G: GraphView>(state: &AlgoState<'_, G>, ctx: &mut PipelineCtx<'_>) -> usize {
    let n = state.num_nodes();
    let collector = ctx.collector;
    let labels: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let mut rounds = 0usize;
    loop {
        swscc_sync::fault::point("coloring-round");
        if state.should_stop() {
            break;
        }
        // Round setup: compact the live set (each round resolves whole
        // label classes, so the residue shrinks fast), then gather the
        // alive nodes from it — O(|residue|) instead of O(N) per round.
        state.compact_live(ctx.cfg.live_set_compaction);
        let alive: Vec<NodeId> = state.collect_alive();
        if alive.is_empty() {
            break;
        }
        rounds += 1;
        // ordering: per-round label reset — each worker writes only
        // its own chunk's entries and the par_iter join publishes
        // them before the propagation loop reads any.
        alive
            .par_iter()
            .for_each(|&v| labels[v as usize].store(v, Ordering::Relaxed));

        // Forward max-propagation to fixpoint. The max label needs at
        // most one round per node on the longest alive path plus one
        // no-change round to detect convergence, hence the n + 1 bound.
        collector.phase(Phase::ParFwbw, || {
            let mut watchdog = state.watchdog("coloring-propagation", n + 1);
            loop {
                if watchdog.check().is_some() {
                    break;
                }
                let changed = AtomicBool::new(false);
                alive.par_iter().for_each(|&v| {
                    // ordering: monotone fetch_max convergence — labels
                    // only increase, stale reads merely defer an update
                    // to a later sweep, and the atomic fetch_max never
                    // loses the larger value. `changed` is a sticky
                    // flag read after the sweep's join (which is what
                    // publishes it), so Relaxed suffices there too.
                    let mut max = labels[v as usize].load(Ordering::Relaxed);
                    state.g.for_each_neighbor(Direction::Backward, v, |u| {
                        if u != v && state.alive(u) {
                            max = max.max(labels[u as usize].load(Ordering::Relaxed));
                        }
                    });
                    if max > labels[v as usize].load(Ordering::Relaxed) {
                        labels[v as usize].fetch_max(max, Ordering::Relaxed);
                        changed.store(true, Ordering::Relaxed);
                    }
                });
                // ordering: read after the par_iter join above.
                if !changed.load(Ordering::Relaxed) {
                    break;
                }
            }
            (0, ())
        });
        if state.should_stop() {
            // Labels may be mid-fixpoint; collecting classes now would
            // resolve sets that are not SCCs. The engine surfaces the
            // abort, so partial state is discarded anyway.
            break;
        }

        // Collect one SCC per root: backward BFS within the label class.
        // Within one round the label classes partition the alive nodes
        // and each class is processed by exactly one root's backward
        // search, so no two searches can claim the same node.
        let resolved_this_round = collector.phase(Phase::RecurFwbw, || {
            let resolved = AtomicUsize::new(0);
            // ordering: the propagation fixpoint completed and its
            // joins published the final labels; these reads race with
            // nothing.
            let roots: Vec<NodeId> = alive
                .par_iter()
                .copied()
                .filter(|&v| labels[v as usize].load(Ordering::Relaxed) == v)
                .collect();
            // Roots own disjoint label classes, so their backward
            // searches touch disjoint node sets and can run in parallel.
            roots.par_iter().for_each(|&r| {
                let comp = state.alloc_component();
                debug_assert!(state.alive(r));
                state.resolve_into(r, comp);
                // ordering: statistic counter — atomicity keeps the
                // total exact, the join below publishes it.
                resolved.fetch_add(1, Ordering::Relaxed);
                let mut stack = vec![r];
                while let Some(v) = stack.pop() {
                    state.g.for_each_neighbor(Direction::Backward, v, |u| {
                        // ordering: label classes are frozen (fixpoint
                        // reached, published by the joins above) and
                        // disjoint per root, so these reads see final
                        // values; the counter argument is as above.
                        if u != v
                            && state.alive(u)
                            && labels[u as usize].load(Ordering::Relaxed) == r
                        {
                            state.resolve_into(u, comp);
                            resolved.fetch_add(1, Ordering::Relaxed);
                            stack.push(u);
                        }
                    });
                }
            });
            // ordering: read after the par_iter join.
            let r = resolved.load(Ordering::Relaxed);
            (r, r)
        });
        debug_assert!(resolved_this_round > 0, "a round must make progress");
    }
    rounds
}

/// [`Stage::ColorTail`]: Multistep's bounded, color-respecting Coloring
/// tail with interleaved trims.
///
/// Composite kernel: rounds are attributed to [`Phase::ParWcc`] (the
/// label-propagation slot) and the interleaved trims to
/// [`Phase::ParTrim2`], matching the legacy Multistep driver. The round
/// count is added to [`RunReport::fwbw_trials`].
struct ColorTailKernel;

impl<G: GraphView> PhaseKernel<G> for ColorTailKernel {
    fn name(&self) -> &'static str {
        "colortail"
    }
    fn phase(&self) -> Option<Phase> {
        None
    }
    fn run(
        &self,
        state: &AlgoState<'_, G>,
        ctx: &mut PipelineCtx<'_>,
    ) -> Result<PhaseOutcome, StageError> {
        let n = state.num_nodes();
        let collector = ctx.collector;
        let labels: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
        let mut rounds = 0usize;
        loop {
            swscc_sync::fault::point("coloring-round");
            if state.should_stop() {
                break;
            }
            // Each hand-off compacts the live set, so the per-round alive
            // gather costs O(|residue|).
            state.compact_live(ctx.cfg.live_set_compaction);
            let alive: Vec<NodeId> = state.collect_alive();
            if alive.len() <= COLOR_TAIL_SERIAL_CUTOFF || rounds >= COLOR_TAIL_MAX_ROUNDS {
                break;
            }
            rounds += 1;
            collector.phase(Phase::ParWcc, || {
                (color_tail_round(state, &labels, &alive), ())
            });
            collector.phase(Phase::ParTrim2, || (par_trim(state), ()));
        }
        // ordering: driver-thread statistic (between stages, before the
        // into_report load).
        collector.fwbw_trials.fetch_add(rounds, Ordering::Relaxed);
        Ok(PhaseOutcome { resolved: 0 })
    }
}

/// One Coloring round restricted to nodes whose colors partition the
/// residue: labels respect the color classes (max-label flows only between
/// same-color alive nodes), so every detected SCC stays within one class.
/// Returns the number of nodes resolved.
fn color_tail_round<G: GraphView>(
    state: &AlgoState<'_, G>,
    labels: &[AtomicU32],
    alive: &[NodeId],
) -> usize {
    // ordering: disjoint per-round reset published by the par_iter join
    // (same argument as the Coloring kernel's round setup).
    alive
        .par_iter()
        .for_each(|&v| labels[v as usize].store(v, Ordering::Relaxed));
    // Bound as in the Coloring kernel: the max label travels at most one
    // hop per round, plus one no-change round to detect convergence.
    let mut watchdog = state.watchdog("multistep-coloring", state.g.num_nodes() + 1);
    loop {
        if watchdog.check().is_some() {
            // Mid-fixpoint labels are unusable for collection; the engine
            // polls the interrupt and surfaces the abort.
            return 0;
        }
        let changed = AtomicBool::new(false);
        alive.par_iter().for_each(|&v| {
            let cv = state.color(v);
            // ordering: monotone fetch_max convergence — labels only
            // increase, a stale read defers the update to a later sweep,
            // fetch_max never loses the larger value, and the sticky
            // `changed` flag is read only after the sweep's join.
            let mut max = labels[v as usize].load(Ordering::Relaxed);
            state.g.for_each_neighbor(Direction::Backward, v, |u| {
                if u != v && state.color(u) == cv {
                    max = max.max(labels[u as usize].load(Ordering::Relaxed));
                }
            });
            if max > labels[v as usize].load(Ordering::Relaxed) {
                labels[v as usize].fetch_max(max, Ordering::Relaxed);
                changed.store(true, Ordering::Relaxed);
            }
        });
        // ordering: read after the par_iter join above.
        if !changed.load(Ordering::Relaxed) {
            break;
        }
    }
    let resolved = AtomicUsize::new(0);
    // ordering: fixpoint reached; final labels were published by the
    // sweep joins, so root selection races with nothing.
    let roots: Vec<NodeId> = alive
        .par_iter()
        .copied()
        .filter(|&v| labels[v as usize].load(Ordering::Relaxed) == v)
        .collect();
    roots.par_iter().for_each(|&r| {
        let comp = state.alloc_component();
        let cr = state.color(r);
        state.resolve_into(r, comp);
        // ordering: statistic counter — exactness from RMW atomicity,
        // published by the join before the load below.
        resolved.fetch_add(1, Ordering::Relaxed);
        let mut stack = vec![r];
        while let Some(v) = stack.pop() {
            state.g.for_each_neighbor(Direction::Backward, v, |u| {
                // ordering: frozen label classes (see roots above); the
                // counter argument is as above.
                if u != v && state.color(u) == cr && labels[u as usize].load(Ordering::Relaxed) == r
                {
                    state.resolve_into(u, comp);
                    resolved.fetch_add(1, Ordering::Relaxed);
                    stack.push(u);
                }
            });
        }
    });
    // ordering: read after the par_iter join.
    resolved.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tarjan::tarjan_scc;
    use crate::Algorithm;

    #[test]
    fn stage_names_round_trip() {
        for s in Stage::all() {
            assert_eq!(Stage::from_name(s.name()), Some(s));
        }
        assert_eq!(Stage::from_name("bogus"), None);
    }

    #[test]
    fn stock_method2_matches_paper_composition() {
        let p = Pipeline::stock(Algorithm::Method2).unwrap();
        assert_eq!(
            p.stages(),
            &[
                Stage::Trim,
                Stage::Fwbw,
                Stage::Trim,
                Stage::Trim2,
                Stage::Trim,
                Stage::Wcc,
                Stage::Tasks
            ]
        );
        assert_eq!(p.default_k(), WCC_K);
        assert_eq!(
            Pipeline::stock(Algorithm::Baseline).unwrap().default_k(),
            SCAN_K
        );
    }

    #[test]
    fn parse_round_trips_display() {
        let p = Pipeline::parse("trim, fwbw ,trim2,wcc,tasks").unwrap();
        assert_eq!(p.to_string(), "trim,fwbw,trim2,wcc,tasks");
        assert_eq!(Pipeline::parse(&p.to_string()).unwrap(), p);
    }

    #[test]
    fn legality_rules_reject_nonsense() {
        assert_eq!(Pipeline::parse(""), Err(PipelineError::Empty));
        assert_eq!(
            Pipeline::parse("trim,bogus,tasks"),
            Err(PipelineError::UnknownStage("bogus".into()))
        );
        assert_eq!(
            Pipeline::parse("trim"),
            Err(PipelineError::NotTerminal(Stage::Trim))
        );
        assert_eq!(
            Pipeline::parse("trim,wcc"),
            Err(PipelineError::NotTerminal(Stage::Wcc))
        );
        assert_eq!(
            Pipeline::parse("tasks,trim,tasks"),
            Err(PipelineError::TerminalNotLast(Stage::Tasks))
        );
        assert_eq!(
            Pipeline::parse("coloring,tasks"),
            Err(PipelineError::TerminalNotLast(Stage::Coloring))
        );
        assert_eq!(
            Pipeline::parse("wcc,fwbw,tasks"),
            Err(PipelineError::PeelAfterRepartition {
                peel: Stage::Fwbw,
                after: Stage::Wcc
            })
        );
        assert_eq!(
            Pipeline::parse("trim,colortail,peel,serial"),
            Err(PipelineError::PeelAfterRepartition {
                peel: Stage::Peel,
                after: Stage::ColorTail
            })
        );
    }

    #[test]
    fn errors_display_actionably() {
        let e = Pipeline::parse("trim,frobnicate,tasks").unwrap_err();
        let text = e.to_string();
        assert!(text.contains("frobnicate"));
        assert!(text.contains("trim"), "lists available stages");
    }

    #[test]
    fn custom_composition_matches_tarjan() {
        let g = CsrGraph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (0, 3),
                (3, 4),
                (4, 3),
                (4, 5),
                (5, 6),
                (6, 5),
                (0, 7),
            ],
        );
        for spec in ["tasks", "serial", "trim,fwbw,trim2,wcc,tasks", "coloring"] {
            let p = Pipeline::parse(spec).unwrap();
            let (r, report) =
                run_pipeline(&g, &p, &SccConfig::with_threads(2), &RunGuard::new()).unwrap();
            assert_eq!(
                r.canonical_labels(),
                tarjan_scc(&g).canonical_labels(),
                "pipeline {spec:?} disagrees with tarjan"
            );
            let resolved: usize = report.phase_resolved.iter().map(|(_, n)| n).sum();
            assert_eq!(resolved, g.num_nodes(), "pipeline {spec:?} loses nodes");
        }
    }

    #[test]
    fn wcc_groups_hand_off_to_tasks() {
        // two disjoint 3-cycles: wcc splits them into two work items
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let p = Pipeline::parse("wcc,tasks").unwrap();
        let (r, report) =
            run_pipeline(&g, &p, &SccConfig::with_threads(1), &RunGuard::new()).unwrap();
        assert_eq!(r.num_components(), 2);
        assert_eq!(report.initial_tasks, 2);
    }
}
