//! # swscc-core — parallel SCC detection for small-world graphs
//!
//! A faithful Rust implementation of *"On Fast Parallel Detection of
//! Strongly Connected Components (SCC) in Small-World Graphs"* (Hong,
//! Rodia, Olukotun — SC'13), including the paper's baseline and both
//! proposed methods, plus three independent sequential oracles.
//!
//! ## Algorithms
//!
//! | API | Paper | Strategy |
//! |---|---|---|
//! | [`tarjan::tarjan_scc`] | speedup baseline | sequential, iterative Tarjan |
//! | [`kosaraju::kosaraju_scc`] | (test oracle) | sequential two-pass |
//! | [`pearce::pearce_scc`] | (test oracle) | sequential, one-array Pearce |
//! | [`baseline::baseline_scc`] | Alg. 3 | Par-Trim + recursive FW-BW work queue |
//! | [`method1::method1_scc`] | Alg. 6 | + data-parallel giant-SCC peel (Par-FWBW) |
//! | [`method2::method2_scc`] | Alg. 9 | + Par-Trim2 + Par-WCC re-partitioning |
//!
//! The one-stop entry point is [`detect_scc`] with an [`Algorithm`]
//! selector and an [`SccConfig`]; it returns the component assignment
//! ([`SccResult`]) and a [`instrument::RunReport`] with the per-phase
//! timings/counters behind the paper's Figures 7 and 8 and the §3.3 task
//! log.
//!
//! The five parallel algorithms are declarative stage lists executed by
//! the [`pipeline`] engine; [`run_pipeline`] also runs any legal custom
//! composition (the CLI's `--pipeline` flag) with the same per-phase
//! breakdown.
//!
//! ## Quick start
//!
//! ```
//! use swscc_core::{detect_scc, Algorithm, SccConfig};
//! use swscc_graph::CsrGraph;
//!
//! // two 3-cycles joined by one edge, plus an isolated node
//! let g = CsrGraph::from_edges(
//!     7,
//!     &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)],
//! );
//! let (result, _report) = detect_scc(&g, Algorithm::Method2, &SccConfig::default());
//! assert_eq!(result.num_components(), 3); // {0,1,2}, {3,4,5}, {6}
//! assert_eq!(result.largest_component_size(), 3);
//! ```

pub mod baseline;
pub mod coloring;
pub mod config;
mod driver;
pub mod error;
pub mod fwbw;
pub mod fwbw_only;
pub mod incremental;
pub mod instrument;
pub mod kosaraju;
pub mod method1;
pub mod method2;
pub mod multireach;
pub mod multistep;
pub mod pearce;
pub mod pipeline;
pub mod result;
pub mod shared;
pub mod snapshot;
pub mod state;
pub mod tarjan;
pub mod trim;
pub mod trim2;
pub mod wcc;

pub use config::{CompactionPolicy, PanicPolicy, PivotStrategy, SccConfig, WccImpl};
pub use error::{Canceller, RunGuard, SccError};
pub use incremental::{EngineCounters, IncrementalEngine, Mutation, MutationOutcome};
pub use instrument::{RecoveryEvent, RunReport};
pub use pipeline::{run_pipeline, Pipeline, PipelineError, Stage};
pub use result::SccResult;
pub use snapshot::SccSnapshot;

use swscc_graph::CsrGraph;

/// Which SCC implementation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Sequential Tarjan (the paper's "optimal sequential algorithm").
    Tarjan,
    /// Sequential Kosaraju (oracle).
    Kosaraju,
    /// Sequential Pearce (oracle).
    Pearce,
    /// The original FW-BW algorithm (Fleischer et al. \[13\]) with no Trim
    /// step — the pre-paper state of the art, kept for the Trim ablation.
    FwBw,
    /// Orzan's Coloring algorithm (max-label propagation) — the other
    /// classic parallel SCC family, compared against by the paper's
    /// related work (\[8\], \[9\]) and follow-ons.
    Coloring,
    /// Paper Algorithm 3: parallel Trim + recursive FW-BW via work queue.
    Baseline,
    /// Paper Algorithm 6: two-phase parallelization.
    Method1,
    /// Paper Algorithm 9: Method 1 + Trim2 + parallel WCC.
    Method2,
    /// Multistep (Slota et al., IPDPS'14) — the paper's direct follow-on:
    /// Trim → degree-product FW-BW peel → Coloring tail → serial finish.
    /// Implemented as an extension feature.
    Multistep,
}

impl Algorithm {
    /// All algorithms, sequential oracles first.
    pub fn all() -> [Algorithm; 9] {
        [
            Algorithm::Tarjan,
            Algorithm::Kosaraju,
            Algorithm::Pearce,
            Algorithm::FwBw,
            Algorithm::Coloring,
            Algorithm::Baseline,
            Algorithm::Method1,
            Algorithm::Method2,
            Algorithm::Multistep,
        ]
    }

    /// The three parallel methods evaluated in Fig. 6/7.
    pub fn parallel() -> [Algorithm; 3] {
        [Algorithm::Baseline, Algorithm::Method1, Algorithm::Method2]
    }

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Tarjan => "tarjan",
            Algorithm::Kosaraju => "kosaraju",
            Algorithm::Pearce => "pearce",
            Algorithm::FwBw => "fwbw",
            Algorithm::Coloring => "coloring",
            Algorithm::Baseline => "baseline",
            Algorithm::Method1 => "method1",
            Algorithm::Method2 => "method2",
            Algorithm::Multistep => "multistep",
        }
    }

    /// Parses a name as printed by [`Algorithm::name`].
    pub fn from_name(s: &str) -> Option<Algorithm> {
        Algorithm::all().into_iter().find(|a| a.name() == s)
    }
}

/// Runs the selected SCC algorithm on `g` and returns the component
/// assignment plus the instrumentation report.
pub fn detect_scc(g: &CsrGraph, algo: Algorithm, cfg: &SccConfig) -> (SccResult, RunReport) {
    match algo {
        Algorithm::Tarjan => instrument::timed_sequential(|| tarjan::tarjan_scc(g)),
        Algorithm::Kosaraju => instrument::timed_sequential(|| kosaraju::kosaraju_scc(g)),
        Algorithm::Pearce => instrument::timed_sequential(|| pearce::pearce_scc(g)),
        Algorithm::FwBw => fwbw_only::fwbw_scc(g, cfg),
        Algorithm::Coloring => coloring::coloring_scc(g, cfg),
        Algorithm::Baseline => baseline::baseline_scc(g, cfg),
        Algorithm::Method1 => method1::method1_scc(g, cfg),
        Algorithm::Method2 => method2::method2_scc(g, cfg),
        Algorithm::Multistep => multistep::multistep_scc(g, cfg),
    }
}

/// Fault-tolerant entry point: runs the selected algorithm under `guard`
/// (cooperative cancellation + optional deadline) with panic recovery per
/// [`SccConfig::on_panic`] and watchdog-bounded fixpoint loops.
///
/// The five parallel algorithms dispatch through the [`pipeline`]
/// engine's stock stage-list table ([`Pipeline::stock`]); the engine
/// polls the guard at stage/round granularity and returns a typed
/// [`SccError`] on abort. The sequential oracles and the demo FW-BW run
/// outside the engine and cannot be interrupted mid-run; for those the
/// guard is honoured once at entry.
#[must_use = "dropping the result discards both the SCC partition and the run's error/recovery record"]
pub fn run_checked(
    g: &CsrGraph,
    algo: Algorithm,
    cfg: &SccConfig,
    guard: &RunGuard,
) -> Result<(SccResult, RunReport), SccError> {
    match Pipeline::stock(algo) {
        Some(pipeline) => run_pipeline(g, &pipeline, cfg, guard),
        None => {
            // engine: the sequential oracles and the demo FW-BW have no
            // stage structure to pipeline — the guard is polled exactly
            // once at entry, the documented best effort for algorithms
            // that cannot be interrupted mid-run.
            driver::check_guard(guard)?;
            Ok(detect_scc(g, algo, cfg))
        }
    }
}
