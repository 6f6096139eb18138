//! # swscc-core — parallel SCC detection for small-world graphs
//!
//! A faithful Rust implementation of *"On Fast Parallel Detection of
//! Strongly Connected Components (SCC) in Small-World Graphs"* (Hong,
//! Rodia, Olukotun — SC'13), including the paper's baseline and both
//! proposed methods, plus three independent sequential oracles.
//!
//! ## Algorithms
//!
//! | [`Algorithm`] | Paper | Stages ([`Pipeline::stock`]) |
//! |---|---|---|
//! | `Tarjan` | speedup baseline | sequential, iterative Tarjan ([`tarjan`]) |
//! | `Kosaraju` | (test oracle) | sequential two-pass ([`kosaraju`]) |
//! | `Pearce` | (test oracle) | sequential, one-array Pearce ([`pearce`]) |
//! | `FwBw` | ref. \[13\] | `tasks` |
//! | `Baseline` | Alg. 3 | `trim,tasks` |
//! | `Method1` | Alg. 6 | `trim,fwbw,trim,tasks` |
//! | `Method2` | Alg. 9 | `trim,fwbw,trim,trim2,trim,wcc,tasks` |
//! | `Coloring` | related work | `trim,coloring` |
//! | `Multistep` | follow-on | `trim,peel,trim,colortail,serial` |
//!
//! The one-stop entry point is [`detect_scc`] with an [`Algorithm`]
//! selector and an [`SccConfig`]; it returns the component assignment
//! ([`SccResult`]) and a [`instrument::RunReport`] with the per-phase
//! timings/counters behind the paper's Figures 7 and 8 and the §3.3 task
//! log. [`run_checked`] is the same run under a caller-owned
//! [`RunGuard`] (cancellation, deadline) with a typed [`SccError`].
//!
//! Every parallel algorithm is a row of the stock stage table executed
//! by the [`pipeline`] engine; [`run_pipeline`] also runs any legal
//! custom composition (the CLI's `--pipeline` flag) with the same
//! per-phase breakdown.
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

pub mod config;
pub mod error;
pub mod fwbw;
pub mod incremental;
pub mod instrument;
pub mod kosaraju;
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
///
/// Every variant but the three sequential oracles is a row of the stock
/// stage table ([`Pipeline::stock`]) and runs through [`run_pipeline`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Sequential Tarjan (the paper's "optimal sequential algorithm").
    Tarjan,
    /// Sequential Kosaraju (oracle).
    Kosaraju,
    /// Sequential Pearce (oracle).
    Pearce,
    /// The original FW-BW algorithm (Fleischer et al. \[13\]), stages
    /// `tasks`: the recursive FW-BW work queue with no Trim step. Every
    /// trivial SCC costs a full FW + BW reachability pair, which is the
    /// gap McLendon et al.'s Trim closes on real-world graphs (§2.1–2.2);
    /// kept for the `ablation_trim` harness.
    FwBw,
    /// Orzan's Coloring algorithm, stages `trim,coloring`: max-label
    /// propagation to a fixpoint, then a backward search from each
    /// label root within its class, repeated on the residue. It resolves
    /// many SCCs per round, but the giant SCC's max-id member floods
    /// nearly the whole graph each round. The other classic parallel SCC
    /// family, compared against by the paper's related work (\[8\], \[9\]).
    Coloring,
    /// Paper Algorithm 3, stages `trim,tasks`: Par-Trim, then recursive
    /// FW-BW over the work queue (K = 1). It does not scale on
    /// small-world graphs (§5, Fig. 6): one thread ends up processing the
    /// giant SCC while the others idle.
    Baseline,
    /// Paper Algorithm 6, stages `trim,fwbw,trim,tasks`: a data-parallel
    /// phase (Par-Trim, a Par-FWBW peel of the giant SCC with parallel
    /// BFS, Par-Trim again on what the peel exposes, §3.2), then the
    /// task-parallel recursive phase (K = 1).
    Method1,
    /// Paper Algorithm 9, stages `trim,fwbw,trim,trim2,trim,wcc,tasks`:
    /// Method 1 with the Par-Trim′ block (Trim; Trim2 once, since it
    /// costs more than Trim; Trim — §3.4) and Par-WCC re-partitioning of
    /// the residue into one work item per weakly connected component
    /// (§3.3). K = 8 (§4.3): the WCC groups give batching enough tasks.
    Method2,
    /// Multistep (Slota et al., IPDPS'14), the paper's direct follow-on,
    /// stages `trim,peel,trim,colortail,serial`: one FW-BW peel from the
    /// max-degree-product pivot, a bounded Coloring tail, and a serial
    /// Tarjan finish on the small residue.
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
/// assignment plus the instrumentation report: [`run_checked`] under a
/// fresh [`RunGuard`].
///
/// # Panics
///
/// A fresh guard is never cancelled and has no deadline, so this panics
/// only when a worker panics under [`PanicPolicy::Fail`] (or a fixpoint
/// watchdog trips, which is a bug).
pub fn detect_scc(g: &CsrGraph, algo: Algorithm, cfg: &SccConfig) -> (SccResult, RunReport) {
    run_checked(g, algo, cfg, &RunGuard::new())
        .expect("a run under a fresh guard fails only on a worker panic under PanicPolicy::Fail")
}

/// Fault-tolerant entry point: runs the selected algorithm under `guard`
/// (cooperative cancellation + optional deadline) with panic recovery per
/// [`SccConfig::on_panic`] and watchdog-bounded fixpoint loops.
///
/// Every parallel algorithm runs its stock stage list
/// ([`Pipeline::stock`]) through [`run_pipeline`], which polls the guard
/// at stage/round/task granularity and returns a typed [`SccError`] on
/// abort. The three sequential oracles have no stage structure and
/// cannot be interrupted mid-run; for those the guard is honoured once
/// at entry.
#[must_use = "dropping the result discards both the SCC partition and the run's error/recovery record"]
pub fn run_checked(
    g: &CsrGraph,
    algo: Algorithm,
    cfg: &SccConfig,
    guard: &RunGuard,
) -> Result<(SccResult, RunReport), SccError> {
    let oracle: fn(&CsrGraph) -> SccResult = match algo {
        Algorithm::Tarjan => tarjan::tarjan_scc,
        Algorithm::Kosaraju => kosaraju::kosaraju_scc,
        Algorithm::Pearce => pearce::pearce_scc,
        parallel => {
            let pipeline =
                Pipeline::stock(parallel).expect("every parallel algorithm is a STOCK row");
            return run_pipeline(g, &pipeline, cfg, guard);
        }
    };
    // The sequential oracles have no stage structure to pipeline — the
    // guard is polled exactly once at entry, the documented best effort
    // for algorithms that cannot be interrupted mid-run.
    guard.check()?;
    Ok(instrument::timed_sequential(|| oracle(g)))
}
