//! Par-FWBW (§3.2): data-parallel peel of the giant SCC.
//!
//! Phase 1 of Methods 1 and 2. All threads cooperate on one forward and one
//! backward level-synchronous BFS from a pivot; the intersection is claimed
//! as an SCC. The peel repeats — descending into the largest residual
//! partition — until an SCC of at least `giant_threshold · N` nodes is
//! found or `max_trials` pivots have been tried, exactly the paper's
//! transition rule ("when the giant SCC has been identified (i.e. an SCC
//! containing, say 1% of the nodes of the original graph), or after a
//! predefined number of iterations").
//!
//! Per §4.2, phase 1 keeps **no** compact set representation: the traversal
//! touches O(N) nodes, and the sets would be invalidated by the trimming
//! that follows anyway, so only the Color array is written and the initial
//! phase-2 work items are built later by a scan.
//!
//! Both traversal passes run on the unified
//! [`swscc_graph::traverse::EdgeMap`] kernel (§4.2), which owns
//! the hybrid sequential fallback ([`SccConfig::par_frontier_threshold`])
//! and the Beamer direction-optimizing switch
//! ([`SccConfig::direction_optimizing`], on by default; measured against
//! the paper's top-down peel by the `ablation_dobfs` harness). The two passes differ only in their claim protocol, expressed
//! as [`EdgeMapOps`] implementations: the forward pass claims a single
//! color transition, the backward pass claims two (backward-only nodes and
//! the FW∩BW intersection) in one traversal.

use crate::config::{PivotStrategy, SccConfig};
use crate::state::{AlgoState, Color};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use swscc_graph::bfs::Direction;
use swscc_graph::traverse::{Adjacency, EdgeMap, EdgeMapOps, EdgeMapScratch};
use swscc_graph::{GraphView, NodeId};
use swscc_sync::atomic::{AtomicUsize, Ordering};

/// Result of the phase-1 peel.
#[derive(Clone, Copy, Debug)]
pub struct ParFwbwOutcome {
    /// Nodes resolved (sum of the peeled SCC sizes).
    pub resolved: usize,
    /// Pivot trials performed.
    pub trials: usize,
    /// Whether a giant SCC (≥ threshold) was found.
    pub giant_found: bool,
    /// BFS levels the peel's traversals ran bottom-up (0 under the
    /// paper's top-down BFS).
    pub bottom_up_levels: usize,
}

/// Runs the phase-1 parallel FW-BW peel starting from the partition
/// `start_color`. See the module docs for the stopping rule.
pub fn par_fwbw<G: GraphView>(
    state: &AlgoState<'_, G>,
    cfg: &SccConfig,
    start_color: Color,
) -> ParFwbwOutcome {
    let n = state.num_nodes();
    let giant_min = ((n as f64) * cfg.giant_threshold).ceil() as usize;
    let mut rng = match cfg.pivot {
        PivotStrategy::Random { seed } => SmallRng::seed_from_u64(seed),
        PivotStrategy::MaxDegreeProduct => SmallRng::seed_from_u64(0),
    };

    let mut candidate_color = start_color;
    // Size of the candidate partition; used for the residual-partition
    // bookkeeping and the direction-optimizing switch heuristic.
    let mut candidate_size = state.count_alive();
    let mut resolved = 0usize;
    let mut trials = 0usize;
    let mut giant_found = false;
    // One set of traversal buffers for every pass of every trial.
    let mut scratch = EdgeMapScratch::default();

    while trials < cfg.max_trials && candidate_size > 0 {
        // Cooperative bail-out between trials; mid-trial aborts are caught
        // at superstep granularity inside `run_reach`. Either way the
        // driver discards the state after converting the abort.
        if state.should_stop() {
            break;
        }
        let Some(pivot) = pick_pivot(state, cfg, candidate_color, &mut rng) else {
            break;
        };
        trials += 1;

        // --- Forward BFS: claim candidate_color -> fw_color --------------
        let fw_color = state.alloc_color();
        let fw_claimed = reach(
            state,
            cfg,
            &mut scratch,
            pivot,
            candidate_color,
            fw_color,
            candidate_size,
        );

        // --- Backward BFS: candidate -> bw_color; fw ∩ bw -> scc_color ---
        let bw_color = state.alloc_color();
        let scc_color = state.alloc_color();
        let (bw, scc) = backward_reach(
            state,
            cfg,
            &mut scratch,
            pivot,
            candidate_color,
            fw_color,
            bw_color,
            scc_color,
            candidate_size,
        );

        // Resolve the SCC: scan-claim every scc_color node. (Phase 1 keeps
        // no member lists — §4.2 — so this is a color sweep over the live
        // set; scc_color nodes are alive by construction, hence candidates.)
        let comp = state.alloc_component();
        state.live().par_for_each(|v| {
            if state.color(v) == scc_color {
                state.resolve_into(v, comp);
            }
        });

        resolved += scc;
        if scc >= giant_min {
            giant_found = true;
            break;
        }

        // Descend into the largest residual partition for the next trial.
        let fw_rest = fw_claimed.saturating_sub(scc);
        let remaining = candidate_size.saturating_sub(fw_claimed + bw);
        if fw_rest >= bw && fw_rest >= remaining {
            candidate_color = fw_color;
            candidate_size = fw_rest;
        } else if bw >= remaining {
            candidate_color = bw_color;
            candidate_size = bw;
        } else {
            // candidate_color unchanged: the untouched residue kept it.
            candidate_size = remaining;
        }
    }

    ParFwbwOutcome {
        resolved,
        trials,
        giant_found,
        bottom_up_levels: scratch.bottom_up_levels(),
    }
}

/// Runs one reachability pass on the shared [`EdgeMap`] kernel: seeds the
/// (pre-claimed) pivot and traverses `dir` under `ops`' claim protocol.
/// Returns the number of nodes claimed beyond the pivot. Both the forward
/// and the backward pass of a trial go through here — the claim protocol
/// is the *only* thing that differs between them.
fn run_reach<G: GraphView, O: EdgeMapOps>(
    state: &AlgoState<'_, G>,
    cfg: &SccConfig,
    scratch: &mut EdgeMapScratch,
    pivot: NodeId,
    dir: Direction,
    candidate_size: usize,
    ops: &O,
) -> usize {
    let mut em = EdgeMap::with_scratch(
        state.g,
        Adjacency::Directed(dir),
        cfg.traversal(),
        std::mem::take(scratch),
    );
    em.seed(pivot);
    em.set_remaining(candidate_size.saturating_sub(1));
    loop {
        swscc_sync::fault::point("fwbw-superstep");
        // Superstep-granular abort check: a cancelled/expired run stops
        // mid-traversal instead of finishing an O(N) BFS first.
        if state.should_stop() {
            break;
        }
        if em.step(ops) == 0 {
            break;
        }
    }
    let claimed = em.claimed();
    *scratch = em.into_scratch();
    claimed
}

/// Single-color claim protocol: `from_color -> to_color`, a test-then-CAS
/// on the Color array (the plain load filters already-claimed targets
/// before paying for the atomic RMW).
struct ColorClaimOps<'a, 'g, G: GraphView> {
    state: &'a AlgoState<'g, G>,
    from_color: Color,
    to_color: Color,
}

impl<G: GraphView> EdgeMapOps for ColorClaimOps<'_, '_, G> {
    #[inline]
    fn claim(&self, _src: NodeId, v: NodeId, _depth: u32) -> bool {
        self.state.color(v) == self.from_color
            && self.state.cas_color(v, self.from_color, self.to_color)
    }

    #[inline]
    fn candidate(&self, v: NodeId) -> bool {
        self.state.color(v) == self.from_color
    }

    fn fill_pool(&self, _universe: usize, parallel: bool, pool: &mut Vec<NodeId>) {
        self.state
            .live()
            .extend_filtered(parallel, pool, |v| self.candidate(v));
    }
}

/// Dual-claim protocol of the backward pass: candidate-colored nodes join
/// the backward-only set (`bw_color`), forward-colored nodes are the FW∩BW
/// intersection and join the SCC (`scc_color`). Both transitions count.
struct DualClaimOps<'a, 'g, G: GraphView> {
    state: &'a AlgoState<'g, G>,
    candidate_color: Color,
    fw_color: Color,
    bw_color: Color,
    scc_color: Color,
    bw_claimed: AtomicUsize,
    scc_claimed: AtomicUsize,
}

impl<G: GraphView> EdgeMapOps for DualClaimOps<'_, '_, G> {
    #[inline]
    fn claim(&self, _src: NodeId, v: NodeId, _depth: u32) -> bool {
        let c = self.state.color(v);
        // ordering: counters of CAS-claim wins — exact by RMW atomicity
        // (each win adds once); the traversal's scope join publishes the
        // totals before the reads below run.
        if c == self.candidate_color && self.state.cas_color(v, self.candidate_color, self.bw_color)
        {
            self.bw_claimed.fetch_add(1, Ordering::Relaxed);
            true
        } else if c == self.fw_color && self.state.cas_color(v, self.fw_color, self.scc_color) {
            self.scc_claimed.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    #[inline]
    fn candidate(&self, v: NodeId) -> bool {
        let c = self.state.color(v);
        c == self.candidate_color || c == self.fw_color
    }

    fn fill_pool(&self, _universe: usize, parallel: bool, pool: &mut Vec<NodeId>) {
        self.state
            .live()
            .extend_filtered(parallel, pool, |v| self.candidate(v));
    }
}

/// The forward pass of one FW-BW trial: single-color reachability from
/// `pivot` along out-edges, claiming `from_color -> to_color`. Returns the
/// number of nodes claimed (incl. pivot).
fn reach<G: GraphView>(
    state: &AlgoState<'_, G>,
    cfg: &SccConfig,
    scratch: &mut EdgeMapScratch,
    pivot: NodeId,
    from_color: Color,
    to_color: Color,
    candidate_size: usize,
) -> usize {
    if !state.cas_color(pivot, from_color, to_color) {
        return 0;
    }
    let ops = ColorClaimOps {
        state,
        from_color,
        to_color,
    };
    1 + run_reach(
        state,
        cfg,
        scratch,
        pivot,
        Direction::Forward,
        candidate_size,
        &ops,
    )
}

/// The backward pass of one FW-BW trial: from `pivot`, following in-edges,
/// claim `candidate_color -> bw_color` (backward-only nodes) and
/// `fw_color -> scc_color` (the SCC). Returns `(bw_count, scc_count)`.
#[allow(clippy::too_many_arguments)]
fn backward_reach<G: GraphView>(
    state: &AlgoState<'_, G>,
    cfg: &SccConfig,
    scratch: &mut EdgeMapScratch,
    pivot: NodeId,
    candidate_color: Color,
    fw_color: Color,
    bw_color: Color,
    scc_color: Color,
    candidate_size: usize,
) -> (usize, usize) {
    // The pivot is in FW by construction, so it joins the SCC first.
    let ok = state.cas_color(pivot, fw_color, scc_color);
    debug_assert!(ok, "pivot lost its forward color");
    let ops = DualClaimOps {
        state,
        candidate_color,
        fw_color,
        bw_color,
        scc_color,
        bw_claimed: AtomicUsize::new(0),
        scc_claimed: AtomicUsize::new(1),
    };
    run_reach(
        state,
        cfg,
        scratch,
        pivot,
        Direction::Backward,
        candidate_size,
        &ops,
    );
    // ordering: reads after run_reach's internal joins; no concurrent
    // writers remain.
    (
        ops.bw_claimed.load(Ordering::Relaxed),
        ops.scc_claimed.load(Ordering::Relaxed),
    )
}

/// Picks a pivot from the alive nodes of `color`, per the configured
/// strategy. Random probing first (O(1) expected when the partition is a
/// large fraction of the live set's candidates — probing samples the
/// sparse candidate list once the set has been compacted), falling back
/// to a parallel scan over the live set.
fn pick_pivot<G: GraphView>(
    state: &AlgoState<'_, G>,
    cfg: &SccConfig,
    color: Color,
    rng: &mut SmallRng,
) -> Option<NodeId> {
    let live = state.live();
    match cfg.pivot {
        PivotStrategy::Random { .. } => {
            let probed = live.with_sparse(|sparse| {
                let domain = sparse.map_or(state.num_nodes(), <[NodeId]>::len);
                if domain == 0 {
                    return None;
                }
                for _ in 0..64 {
                    let i = rng.random_range(0..domain);
                    let v = match sparse {
                        Some(list) => list[i],
                        None => i as NodeId,
                    };
                    if state.alive(v) && state.color(v) == color {
                        return Some(v);
                    }
                }
                None
            });
            probed.or_else(|| live.par_find_any(|v| state.alive(v) && state.color(v) == color))
        }
        PivotStrategy::MaxDegreeProduct => live.par_max_by_key(
            |v| state.alive(v) && state.color(v) == color,
            |v| (state.g.in_degree(v) as u64 + 1) * (state.g.out_degree(v) as u64 + 1),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swscc_graph::CsrGraph;

    fn cfg() -> SccConfig {
        SccConfig {
            threads: 2,
            giant_threshold: 0.25,
            max_trials: 5,
            ..Default::default()
        }
    }

    fn paper_cfg() -> SccConfig {
        SccConfig {
            threads: 2,
            giant_threshold: 0.25,
            max_trials: 5,
            ..SccConfig::paper()
        }
    }

    #[test]
    fn peels_single_big_cycle() {
        let n = 100u32;
        let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = CsrGraph::from_edges(n as usize, &edges);
        let s = AlgoState::new(&g);
        let out = par_fwbw(&s, &cfg(), crate::state::INITIAL_COLOR);
        assert!(out.giant_found);
        assert_eq!(out.resolved, 100);
        assert_eq!(out.trials, 1);
        assert_eq!(s.count_alive(), 0);
    }

    #[test]
    fn partitions_residue_correctly() {
        // giant 4-cycle {0..3}; IN satellite 4 -> 0; OUT satellite 3 -> 5.
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (3, 5)]);
        let s = AlgoState::new(&g);
        let out = par_fwbw(&s, &cfg(), crate::state::INITIAL_COLOR);
        assert!(out.giant_found);
        assert_eq!(out.resolved, 4);
        assert!(s.alive(4) && s.alive(5));
        assert_ne!(s.color(4), crate::state::DONE_COLOR);
    }

    #[test]
    fn gives_up_after_max_trials() {
        // All-singleton DAG: every peel resolves one node; threshold 25%
        // can never be reached.
        let g = CsrGraph::from_edges(10, &[(0, 1), (1, 2), (2, 3), (4, 5)]);
        let s = AlgoState::new(&g);
        let out = par_fwbw(&s, &cfg(), crate::state::INITIAL_COLOR);
        assert!(!out.giant_found);
        assert_eq!(out.trials, 5);
        assert_eq!(out.resolved, 5);
    }

    #[test]
    fn max_degree_pivot_hits_hub() {
        // star-of-cycles: central 3-cycle with high degree; pendant nodes.
        let mut edges = vec![(0u32, 1u32), (1, 2), (2, 0)];
        for i in 3..40u32 {
            edges.push((0, i));
        }
        let g = CsrGraph::from_edges(40, &edges);
        let s = AlgoState::new(&g);
        let c = SccConfig {
            pivot: PivotStrategy::MaxDegreeProduct,
            giant_threshold: 0.05,
            max_trials: 1,
            ..cfg()
        };
        let out = par_fwbw(&s, &c, crate::state::INITIAL_COLOR);
        assert!(
            out.giant_found,
            "degree-product pivot must land in the hub cycle"
        );
        assert_eq!(out.resolved, 3);
    }

    #[test]
    fn empty_partition() {
        let g = CsrGraph::from_edges(0, &[]);
        let s = AlgoState::new(&g);
        let out = par_fwbw(&s, &cfg(), crate::state::INITIAL_COLOR);
        assert_eq!(out.resolved, 0);
        assert_eq!(out.trials, 0);
    }

    #[test]
    fn resolved_nodes_share_component() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 0), (2, 3)]);
        let s = AlgoState::new(&g);
        let c = SccConfig {
            giant_threshold: 0.5,
            max_trials: 10,
            ..cfg()
        };
        let _ = par_fwbw(&s, &c, crate::state::INITIAL_COLOR);
        for v in 0..4u32 {
            if s.alive(v) {
                s.resolve_singleton(v);
            }
        }
        let r = s.into_result();
        assert!(r.same_component(0, 1));
        assert!(!r.same_component(2, 3));
    }

    #[test]
    fn direction_optimizing_same_outcome_on_cycle() {
        let n = 5000u32;
        let mut edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        // chords to give the BFS big levels so bottom-up actually triggers
        for i in 0..n / 2 {
            edges.push((i, (i * 7 + 13) % n));
        }
        let g = CsrGraph::from_edges(n as usize, &edges);

        let s1 = AlgoState::new(&g);
        let o1 = par_fwbw(&s1, &paper_cfg(), crate::state::INITIAL_COLOR);
        let s2 = AlgoState::new(&g);
        let o2 = par_fwbw(&s2, &cfg(), crate::state::INITIAL_COLOR);
        assert_eq!(o1.bottom_up_levels, 0, "paper() runs top-down");
        assert!(o2.bottom_up_levels > 0, "default never went bottom-up");
        assert_eq!(o1.resolved, o2.resolved);
        assert_eq!(o1.giant_found, o2.giant_found);
        assert_eq!(s1.count_alive(), s2.count_alive());
    }

    #[test]
    fn direction_optimizing_full_method_matches_tarjan() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(61);
        for _ in 0..8 {
            let n = rng.random_range(50..400usize);
            let m = rng.random_range(n..6 * n);
            let edges: Vec<_> = (0..m)
                .map(|_| (rng.random_range(0..n) as u32, rng.random_range(0..n) as u32))
                .collect();
            let g = CsrGraph::from_edges(n, &edges);
            let c = SccConfig {
                direction_optimizing: true,
                ..SccConfig::with_threads(2)
            };
            let (r, _) = crate::detect_scc(&g, crate::Algorithm::Method2, &c);
            assert_eq!(
                r.canonical_labels(),
                crate::tarjan::tarjan_scc(&g).canonical_labels()
            );
        }
    }
}
