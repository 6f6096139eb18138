//! Composable phase-pipeline engine: the paper's algorithms as declarative
//! stage lists.
//!
//! The paper itself frames its methods as *compositions* — Method 2
//! (Alg. 9) is Method 1 (Alg. 6) plus Par-Trim2 (Alg. 8) and Par-WCC
//! (Alg. 7) spliced into the same skeleton. This module makes that
//! composition literal: each building block is a [`Stage`], a pipeline is
//! a validated list of them, and [`run_pipeline`] is the single engine
//! loop that matches on each stage, calls its kernel, and owns — exactly
//! once — everything a per-algorithm driver would otherwise copy-paste:
//!
//! * [`Collector`] phase timing and Fig. 7/8 resolution attribution (one
//!   phase per stage, see below),
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
//!
//! # Phase attribution
//!
//! The engine times every stage as a whole and books its wall-clock time
//! and resolved nodes under exactly one Fig. 7 [`Phase`]; no stage splits
//! its own time across phases.
//!
//! | Stage | Phase |
//! |---|---|
//! | the pipeline's first `trim` | [`Phase::ParTrim`] |
//! | every later `trim`, `trim2` | [`Phase::ParTrim2`] (Par-Trim′) |
//! | `fwbw`, `peel` | [`Phase::ParFwbw`] |
//! | `wcc`, `colortail` | [`Phase::ParWcc`] |
//! | `tasks`, `serial`, `coloring` | [`Phase::RecurFwbw`] |

mod driver;

use crate::config::{PivotStrategy, SccConfig};
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
use swscc_graph::{GraphView, NodeId};
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
/// [`Stage::name`] is the spelling the CLI's `--pipeline` flag accepts;
/// the module docs say which phase each stage is reported under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Par-Trim (Alg. 4) to fixpoint.
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
    /// (terminal). The round count lands in [`RunReport::fwbw_trials`]
    /// and [`RunReport::initial_tasks`].
    Coloring,
    /// Multistep's bounded Coloring tail: the same rounds with a trim
    /// after each, until the residue drops below
    /// [`COLOR_TAIL_SERIAL_CUTOFF`] or [`COLOR_TAIL_MAX_ROUNDS`] is hit.
    /// The round count is added to [`RunReport::fwbw_trials`].
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

    /// The Fig. 7 phase this stage's wall-clock time and resolved nodes
    /// count under (the table in the module docs). `trimmed` says whether
    /// an earlier stage of the pipeline was a `trim`.
    fn phase(self, trimmed: bool) -> Phase {
        match self {
            Stage::Trim if !trimmed => Phase::ParTrim,
            Stage::Trim | Stage::Trim2 => Phase::ParTrim2,
            Stage::Fwbw | Stage::Peel => Phase::ParFwbw,
            Stage::Wcc | Stage::ColorTail => Phase::ParWcc,
            Stage::Tasks | Stage::Serial | Stage::Coloring => Phase::RecurFwbw,
        }
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

/// Cross-stage state of one run: the configuration, the instrumentation
/// sink, and the hand-off slots the stages fill for each other and for
/// the report.
struct PipelineCtx<'a> {
    cfg: &'a SccConfig,
    /// The instrumentation sink (phase times, task log, recoveries).
    collector: &'a Collector,
    /// Par-WCC → Tasks hand-off: groups produced by [`Stage::Wcc`],
    /// consumed (instead of a fresh color scan) by the next
    /// [`Stage::Tasks`]. Stale entries are harmless — task processing
    /// skips resolved members.
    groups: Option<Vec<(Color, Vec<NodeId>)>>,
    /// Work-queue statistics reported by [`Stage::Tasks`].
    queue_stats: QueueStats,
    /// Work items seeding the recursive phase (or Coloring rounds, for
    /// the stock Coloring pipeline's report shape).
    initial_tasks: usize,
    /// Peel trials plus Coloring and ColorTail rounds.
    fwbw_trials: usize,
    /// The composition's work-queue K default ([`Pipeline::default_k`]).
    k_default: usize,
}

/// How one stage run ended short of success. `Fatal` propagates as-is;
/// `Dirty` means shared state may hold partial SCC claims and the engine
/// must discard everything and restart sequentially
/// (`driver::recover_full_restart`). The work-queue recovery returns it
/// too, so stages and engine share one failure type.
enum StageError {
    /// A clean typed failure (interrupt, or a panic under
    /// [`crate::PanicPolicy::Fail`]).
    Fatal(SccError),
    /// A dirty panic under [`crate::PanicPolicy::Fallback`]; carries the
    /// panic text.
    Dirty(String),
}

// ---------------------------------------------------------------------------
// Engine loop
// ---------------------------------------------------------------------------

/// Runs `pipeline` on `g` under `guard`: the single checked entry point
/// behind every parallel algorithm and every custom `--pipeline`
/// composition.
///
/// The engine polls the guard at stage boundaries, times each stage under
/// its phase, wraps data-parallel stages in a dirty panic boundary (caught
/// panic → full sequential restart under [`crate::PanicPolicy::Fallback`]),
/// compacts the live-residue set between stages, and assembles the
/// per-phase [`RunReport`].
#[must_use = "dropping the result discards both the SCC partition and the run's error/recovery record"]
pub fn run_pipeline<G: GraphView>(
    g: &G,
    pipeline: &Pipeline,
    cfg: &SccConfig,
    guard: &RunGuard,
) -> Result<(SccResult, RunReport), SccError> {
    with_pool(cfg.threads, || {
        let state =
            AlgoState::with_interrupt(g, Arc::clone(guard.interrupt()), cfg.watchdog_factor);
        let collector = Collector::new(cfg.task_log_limit);
        let mut ctx = PipelineCtx {
            cfg,
            collector: &collector,
            groups: None,
            queue_stats: QueueStats::default(),
            initial_tasks: 0,
            fwbw_trials: 0,
            k_default: pipeline.default_k(),
        };
        let outcome = run_stages(pipeline.stages(), &state, &mut ctx);
        let PipelineCtx {
            queue_stats,
            initial_tasks,
            fwbw_trials,
            ..
        } = ctx;
        let (result, mut report) = match outcome {
            Ok(()) => {
                driver::check_interrupt(&state)?;
                let report = collector.into_report(queue_stats, initial_tasks);
                (state.into_result(), report)
            }
            Err(StageError::Fatal(e)) => return Err(e),
            Err(StageError::Dirty(message)) => {
                driver::recover_full_restart(g, collector, cfg, message)?
            }
        };
        report.fwbw_trials = fwbw_trials;
        Ok((result, report))
    })
}

/// The stage sequencer: interrupt poll, then the stage timed under its
/// phase and run inside the panic boundary, then a live-set compaction
/// hand-off.
fn run_stages<G: GraphView>(
    stages: &[Stage],
    state: &AlgoState<'_, G>,
    ctx: &mut PipelineCtx<'_>,
) -> Result<(), StageError> {
    let mut trimmed = false;
    for &stage in stages {
        driver::check_interrupt(state).map_err(StageError::Fatal)?;
        let phase = stage.phase(trimmed);
        trimmed |= stage == Stage::Trim;
        let collector = ctx.collector;
        collector.phase(phase, || {
            let out = if stage == Stage::Tasks {
                // The work queue recovers its boundary panics in place
                // (retry / degrade), which the blanket dirty boundary
                // cannot express.
                run_stage(stage, state, ctx)
            } else {
                // A panic inside a data-parallel stage may have split an
                // SCC across the resolved/unresolved divide; only a
                // restart is sound.
                driver::catch_phase(|| run_stage(stage, state, ctx))
                    .unwrap_or_else(|message| Err(StageError::Dirty(message)))
            };
            (*out.as_ref().unwrap_or(&0), out)
        })?;
        // Phase-boundary compaction point: the next stage's full sweeps
        // cost O(|residue|) (policy-gated; `Never` keeps O(N) sweeps).
        state.compact_live(ctx.cfg.live_set_compaction);
    }
    Ok(())
}

/// Runs one stage to completion (or typed failure); returns the nodes it
/// resolved.
fn run_stage<G: GraphView>(
    stage: Stage,
    state: &AlgoState<'_, G>,
    ctx: &mut PipelineCtx<'_>,
) -> Result<usize, StageError> {
    let cfg = ctx.cfg;
    let resolved = match stage {
        Stage::Trim => par_trim(state),
        Stage::Trim2 => par_trim2(state),
        Stage::Fwbw | Stage::Peel => {
            // Multistep's peel: exactly one trial from the
            // max-degree-product pivot, whatever the configured strategy.
            let peel = SccConfig {
                pivot: PivotStrategy::MaxDegreeProduct,
                max_trials: 1,
                ..*cfg
            };
            let cfg = if stage == Stage::Peel { &peel } else { cfg };
            let outcome = par_fwbw(state, cfg, INITIAL_COLOR);
            ctx.fwbw_trials += outcome.trials;
            outcome.resolved
        }
        Stage::Wcc => {
            ctx.groups = Some(run_wcc(state, cfg).groups);
            0
        }
        Stage::Coloring | Stage::ColorTail => {
            let (rounds, resolved) = coloring(state, cfg, stage == Stage::ColorTail);
            ctx.fwbw_trials += rounds;
            if stage == Stage::Coloring {
                ctx.initial_tasks = rounds;
            }
            resolved
        }
        Stage::Serial => state.resolve_residue_sequential(),
        Stage::Tasks => {
            // Seeded by a preceding Par-WCC's groups, or by the §4.2
            // color scan.
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
            let res = driver::run_queue_with_recovery(&queue, &rctx, cfg)?;
            ctx.queue_stats = res.stats;
            res.resolved
        }
    };
    Ok(resolved)
}

/// Orzan max-label-propagation rounds over the residue; returns the
/// round count and the nodes resolved. [`Stage::Coloring`] runs rounds
/// until the residue is empty. The Multistep `tail` stops below
/// [`COLOR_TAIL_SERIAL_CUTOFF`] alive nodes or after
/// [`COLOR_TAIL_MAX_ROUNDS`] rounds, and trims after every round.
fn coloring<G: GraphView>(state: &AlgoState<'_, G>, cfg: &SccConfig, tail: bool) -> (usize, usize) {
    let labels: Vec<AtomicU32> = (0..state.num_nodes() as u32).map(AtomicU32::new).collect();
    let (mut rounds, mut resolved) = (0usize, 0usize);
    loop {
        swscc_sync::fault::point("coloring-round");
        if state.should_stop() {
            break;
        }
        // Round setup: compact the live set (each round resolves whole
        // label classes, so the residue shrinks fast), then gather the
        // alive nodes from it — O(|residue|) instead of O(N) per round.
        state.compact_live(cfg.live_set_compaction);
        let alive: Vec<NodeId> = state.collect_alive();
        let done = if tail {
            alive.len() <= COLOR_TAIL_SERIAL_CUTOFF || rounds >= COLOR_TAIL_MAX_ROUNDS
        } else {
            alive.is_empty()
        };
        if done {
            break;
        }
        rounds += 1;
        // `None`: the labels are mid-fixpoint and collecting classes now
        // would resolve sets that are not SCCs. The engine polls the
        // interrupt and surfaces the abort.
        let Some(round) = coloring_round(state, &labels, &alive) else {
            break;
        };
        debug_assert!(round > 0, "a round must make progress");
        resolved += round;
        if tail {
            resolved += par_trim(state);
        }
    }
    (rounds, resolved)
}

/// One Coloring round over `alive`, whose colors partition the residue
/// into SCC-closed classes: max labels flow only between same-color
/// nodes, so every detected SCC stays within one class. (In the stock
/// `trim,coloring` every alive node has [`INITIAL_COLOR`] and every
/// resolved one `DONE_COLOR`, so "same color" is "alive".) Returns the
/// number of nodes resolved, or `None` if the interrupt or the watchdog
/// stopped the propagation.
fn coloring_round<G: GraphView>(
    state: &AlgoState<'_, G>,
    labels: &[AtomicU32],
    alive: &[NodeId],
) -> Option<usize> {
    // ordering: per-round label reset — each worker writes only its own
    // chunk's entries and the par_iter join publishes them before the
    // propagation loop reads any.
    alive
        .par_iter()
        .for_each(|&v| labels[v as usize].store(v, Ordering::Relaxed));
    // Forward max-propagation to fixpoint. The max label travels at most
    // one hop per sweep, plus one no-change sweep to detect convergence,
    // hence the n + 1 bound.
    let mut watchdog = state.watchdog("coloring-propagation", state.num_nodes() + 1);
    loop {
        if watchdog.check().is_some() {
            return None;
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
    // Collect one SCC per root: backward search within the label class.
    // Label classes partition the alive nodes and each is searched by
    // exactly one root, so the searches claim disjoint node sets and can
    // run in parallel.
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
    Some(resolved.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tarjan::tarjan_scc;
    use crate::Algorithm;
    use swscc_graph::CsrGraph;

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
