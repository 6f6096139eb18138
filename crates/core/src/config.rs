//! Runtime configuration for the parallel SCC methods.

pub use swscc_parallel::liveset::CompactionPolicy;

/// How Par-FWBW chooses its pivot when hunting for the giant SCC (§3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PivotStrategy {
    /// Uniformly random unresolved node (the paper's choice; "u <- pick any
    /// node in G"). Deterministic for a given seed.
    Random {
        /// Seed for pivot sampling.
        seed: u64,
    },
    /// The unresolved node maximizing `in_degree * out_degree` — a
    /// heuristic (used by later work such as Slota et al.'s Multistep) that
    /// almost always lands inside the giant SCC on the first trial.
    /// Provided as an ablation (`ablation_pivot` harness).
    MaxDegreeProduct,
}

/// What a checked run does when a worker panic is caught
/// ([`crate::run_checked`] returns the error; [`crate::detect_scc`]
/// panics with it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PanicPolicy {
    /// Recover: retry a task that died at the work-queue boundary once,
    /// then degrade to a sequential Tarjan pass (on the surviving residue
    /// after a boundary panic, or on the whole graph after a mid-task
    /// panic that may have left partial claims). Recovery steps are
    /// recorded in [`crate::instrument::RunReport::recoveries`].
    Fallback,
    /// Fail fast: surface [`crate::SccError::WorkerPanic`] immediately.
    Fail,
}

/// Which Par-WCC implementation Method 2 uses (§3.3 / §5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WccImpl {
    /// The paper's Algorithm 7: min-label propagation with pointer
    /// jumping. Iteration count grows with component diameter (the §5
    /// CA-road pathology).
    LabelPropagation,
    /// Lock-free union-find (Afforest-style): near-constant work per edge,
    /// diameter-independent. Extension; compared by `ablation_wcc`.
    UnionFind,
}

/// Configuration shared by Baseline / Method 1 / Method 2.
///
/// The defaults mirror the paper: 1% giant-SCC threshold, random pivots,
/// the hybrid set representation enabled (§4.1), and per-method work-queue
/// batch sizes (K=1 for Baseline and Method 1, K=8 for Method 2 — §4.3)
/// applied automatically when [`SccConfig::k`] is `None`.
#[derive(Clone, Copy, Debug)]
pub struct SccConfig {
    /// Worker threads for both the data-parallel phase (rayon pool) and the
    /// task-parallel phase (work-queue workers).
    pub threads: usize,
    /// Work-queue batch parameter K; `None` selects the paper's per-method
    /// default (Baseline/Method 1: 1, Method 2: 8).
    pub k: Option<usize>,
    /// Par-FWBW stops early once it finds an SCC containing at least this
    /// fraction of the graph's nodes ("an SCC containing, say 1% of the
    /// nodes" — §3.2).
    pub giant_threshold: f64,
    /// Maximum Par-FWBW pivot trials before giving up on finding the giant
    /// SCC ("or after a predefined number of iterations" — §3.2).
    pub max_trials: usize,
    /// Pivot selection strategy for both phases.
    pub pivot: PivotStrategy,
    /// Use the hybrid set representation (Color array + compact per-task
    /// member lists) in the recursive phase. Disabling falls back to
    /// scanning the full Color array per pivot pick — the single-
    /// representation mode the paper measured as ~10x slower (§4.1).
    pub hybrid_sets: bool,
    /// Record the first this-many recursive FW-BW task executions
    /// (SCC/FW/BW/Remain sizes) in the run report — the §3.3 log. 0 = off.
    pub task_log_limit: usize,
    /// Which WCC kernel Method 2's re-partitioning step uses.
    pub wcc_impl: WccImpl,
    /// Use direction-optimizing BFS (Beamer et al., the paper's ref. \[10\])
    /// in the phase-1 peel: switch to bottom-up sweeps once the frontier
    /// covers a large fraction of the unexplored partition. Off by default
    /// (the paper's evaluation uses plain level-synchronous BFS); the
    /// `ablation_dobfs` harness measures the difference.
    pub direction_optimizing: bool,
    /// Frontier size below which a traversal level expands sequentially
    /// (the hybrid per-level expansion of the `EdgeMap` kernel — fork-join
    /// overhead exceeds the work on the tiny ramp-up/ramp-down levels that
    /// bracket a small-world BFS).
    pub par_frontier_threshold: usize,
    /// When the live-residue vertex subset compacts at phase boundaries
    /// (after the trims, the giant-SCC peel, and each Coloring/Multistep
    /// hand-off). `Auto` (default) compacts when at most half the current
    /// candidates are still alive, making every post-peel full-sweep kernel
    /// O(|residue|); `Never` keeps the pre-LiveSet O(N) sweeps (the
    /// ablation baseline); `Always` compacts at every boundary.
    pub live_set_compaction: CompactionPolicy,
    /// Recovery policy for caught worker panics (checked drivers only).
    pub on_panic: PanicPolicy,
    /// Watchdog headroom: every fixpoint loop aborts with
    /// [`crate::SccError::NonConvergence`] after
    /// `watchdog_factor × theoretical_max` rounds. The theoretical bounds
    /// are generous (≥ N rounds), so the default factor of 4 never trips
    /// on correct kernels; 0 trips every watchdog on its first round
    /// (test hook for the non-convergence path).
    pub watchdog_factor: usize,
    /// Work budget of one incremental repair, beyond which it degrades
    /// to a full recompute. A back-edge insert counts the condensation
    /// edges its two-way search scans, so a merge beside or into a giant
    /// SCC pays that SCC's condensation degree, not its size; an
    /// intra-SCC delete counts the nodes its reachability check visits
    /// and the nodes of the residue it re-runs. The incremental engine's
    /// correctness does not depend on the value — only how much work a
    /// single mutation may localize before the batch pipeline is
    /// cheaper anyway.
    pub incremental_residue_limit: usize,
}

impl Default for SccConfig {
    fn default() -> Self {
        SccConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            k: None,
            giant_threshold: 0.01,
            max_trials: 5,
            pivot: PivotStrategy::Random { seed: 0x5CC },
            hybrid_sets: true,
            task_log_limit: 0,
            wcc_impl: WccImpl::LabelPropagation,
            direction_optimizing: false,
            par_frontier_threshold: swscc_graph::traverse::DEFAULT_PAR_FRONTIER_THRESHOLD,
            live_set_compaction: CompactionPolicy::Auto,
            on_panic: PanicPolicy::Fallback,
            watchdog_factor: 4,
            incremental_residue_limit: 1 << 16,
        }
    }
}

impl SccConfig {
    /// A config with the given thread count and defaults otherwise.
    pub fn with_threads(threads: usize) -> Self {
        SccConfig {
            threads: threads.max(1),
            ..Default::default()
        }
    }

    /// Resolves the work-queue K for a method whose paper default is
    /// `method_default`.
    pub fn resolve_k(&self, method_default: usize) -> usize {
        self.k.unwrap_or(method_default).max(1)
    }

    /// The traversal-kernel configuration implied by this config.
    pub fn traversal(&self) -> swscc_graph::traverse::TraversalConfig {
        swscc_graph::traverse::TraversalConfig {
            par_threshold: self.par_frontier_threshold.max(1),
            direction_optimizing: self.direction_optimizing,
            alpha: swscc_graph::traverse::DEFAULT_DOBFS_ALPHA,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SccConfig::default();
        assert!(c.threads >= 1);
        assert_eq!(c.k, None);
        assert!((c.giant_threshold - 0.01).abs() < 1e-12);
        assert_eq!(c.max_trials, 5);
        assert!(c.hybrid_sets);
        assert_eq!(c.task_log_limit, 0);
        assert_eq!(c.par_frontier_threshold, 256);
        assert!(!c.direction_optimizing);
        assert_eq!(c.live_set_compaction, CompactionPolicy::Auto);
        assert_eq!(c.on_panic, PanicPolicy::Fallback);
        assert_eq!(c.watchdog_factor, 4);
        assert_eq!(c.incremental_residue_limit, 1 << 16);
    }

    #[test]
    fn traversal_config_from_scc_config() {
        let c = SccConfig {
            direction_optimizing: true,
            par_frontier_threshold: 64,
            ..Default::default()
        };
        let t = c.traversal();
        assert!(t.direction_optimizing);
        assert_eq!(t.par_threshold, 64);
    }

    #[test]
    fn resolve_k_prefers_explicit() {
        let mut c = SccConfig::default();
        assert_eq!(c.resolve_k(8), 8);
        c.k = Some(3);
        assert_eq!(c.resolve_k(8), 3);
        c.k = Some(0);
        assert_eq!(c.resolve_k(8), 1, "K clamps to >= 1");
    }

    #[test]
    fn with_threads_clamps() {
        assert_eq!(SccConfig::with_threads(0).threads, 1);
        assert_eq!(SccConfig::with_threads(4).threads, 4);
    }
}
