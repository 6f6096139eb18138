//! The unified traversal kernel (§4.2): one `EdgeMap` driver under every
//! level-synchronous BFS-shaped algorithm in the workspace.
//!
//! Plain BFS, the FW/BW reachability peels of Par-FWBW, and frontier-driven
//! Par-WCC all share the same skeleton: expand the current frontier along
//! some adjacency, attempt an atomic *claim* per discovered edge endpoint,
//! and gather the newly claimed nodes into the next frontier. What differs
//! is only the claim protocol (CAS on a level array, CAS on the Color
//! array, fetch-min on a label array) and the adjacency (forward, backward,
//! or undirected). [`EdgeMap`] owns everything else:
//!
//! * **zero-allocation frontiers** — levels advance through
//!   [`swscc_parallel::Frontier`]'s double-buffered, per-worker chunked
//!   collection instead of a per-level `Vec`/`collect()`;
//! * **the hybrid sequential fallback** — frontiers below
//!   [`TraversalConfig::par_threshold`] expand inline on the calling
//!   thread, because per-level fork-join overhead exceeds the work on the
//!   tiny ramp-up/ramp-down levels that bracket a small-world BFS;
//! * **the Beamer direction-optimizing switch** (the paper's ref. \[10\];
//!   §4.2 explicitly anticipates such BFS improvements) — when the edges
//!   leaving the frontier outweigh the edges of the unclaimed candidates,
//!   flip to bottom-up sweeps: scan unclaimed candidates and join any whose
//!   reverse-adjacency touches the *current frontier*. Membership is
//!   checked against a dense per-level [`ClaimSet`], not the visited set,
//!   so bottom-up levels assign exactly the same depths as top-down ones
//!   and the two modes are differentially testable against sequential BFS.
//!
//! Algorithms plug in via [`EdgeMapOps`]: `claim` is the per-edge
//! visitation attempt (must be atomic — exactly one concurrent claimant
//! may win), `candidate` tells the bottom-up sweep which nodes are still
//! claimable.

use crate::bfs::Direction;
use crate::csr::{CsrGraph, NodeId};
use crate::view::GraphView;
use rayon::prelude::*;
use swscc_parallel::{ClaimSet, Frontier};
use swscc_sync::interrupt::{AbortReason, Interrupt};

/// Default frontier size below which a level is expanded sequentially.
pub const DEFAULT_PAR_FRONTIER_THRESHOLD: usize = 256;

/// Default direction-optimizing switch factor: a level runs bottom-up when
/// `edges(frontier) · alpha > edges(unclaimed candidates)` (Beamer's
/// edge-count heuristic). Beamer's α = 14 assumes nearly every candidate is
/// reachable, so a bottom-up probe stops at its first in-edge. An SCC peel's
/// pool also holds nodes the pivot never reaches, and each of those scans
/// its whole in-list on every bottom-up level, so the factor is far
/// smaller. At 1 the peel on `livej` and `twitter` kept levels top-down
/// that paid bottom-up; above 2, more of `baidu`'s levels (giant SCC 28%
/// of the nodes) go bottom-up over a pool the pivot mostly never reaches
/// (EXPERIMENTS.md §4.2).
pub const DEFAULT_DOBFS_ALPHA: usize = 2;

/// Tuning knobs of the traversal kernel.
#[derive(Clone, Copy, Debug)]
pub struct TraversalConfig {
    /// Frontiers smaller than this expand sequentially on the calling
    /// thread (hybrid per-level expansion).
    pub par_threshold: usize,
    /// Enable the Beamer top-down/bottom-up switch.
    pub direction_optimizing: bool,
    /// Bottom-up switch factor (see [`DEFAULT_DOBFS_ALPHA`]).
    pub alpha: usize,
}

impl Default for TraversalConfig {
    fn default() -> Self {
        TraversalConfig {
            par_threshold: DEFAULT_PAR_FRONTIER_THRESHOLD,
            direction_optimizing: false,
            alpha: DEFAULT_DOBFS_ALPHA,
        }
    }
}

impl TraversalConfig {
    /// The default configuration with direction optimization switched on.
    pub fn direction_optimizing() -> Self {
        TraversalConfig {
            direction_optimizing: true,
            ..Default::default()
        }
    }
}

/// Which adjacency the traversal follows. `Undirected` follows both edge
/// directions (the Par-WCC view of the graph).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Adjacency {
    /// Follow one edge direction of the digraph.
    Directed(Direction),
    /// Follow both directions (weak-connectivity semantics).
    Undirected,
}

impl Adjacency {
    /// Visits every traversal-direction neighbor of `u`, streamed through
    /// the backend's decode loop ([`GraphView::for_each_neighbor`]) — no
    /// slice is ever materialized.
    #[inline]
    fn for_each_out<G: GraphView>(self, g: &G, u: NodeId, f: &mut impl FnMut(NodeId)) {
        match self {
            Adjacency::Directed(d) => g.for_each_neighbor(d, u, f),
            Adjacency::Undirected => {
                g.for_each_neighbor(Direction::Forward, u, &mut *f);
                g.for_each_neighbor(Direction::Backward, u, f);
            }
        }
    }

    /// Traversal-direction degree of `v`, or its reverse-direction degree
    /// (what a bottom-up probe of `v` scans at most) when `reverse`.
    #[inline]
    fn degree<G: GraphView>(self, g: &G, v: NodeId, reverse: bool) -> usize {
        match self {
            Adjacency::Directed(d) if reverse => g.degree(d.reverse(), v),
            Adjacency::Directed(d) => g.degree(d, v),
            Adjacency::Undirected => g.out_degree(v) + g.in_degree(v),
        }
    }

    /// First reverse-direction neighbor of `v` satisfying `pred` (the
    /// bottom-up "do I have a parent in the frontier" probe; early-exits
    /// mid-decode on compressed backends).
    #[inline]
    fn find_in<G: GraphView>(
        self,
        g: &G,
        v: NodeId,
        pred: impl Fn(NodeId) -> bool,
    ) -> Option<NodeId> {
        match self {
            Adjacency::Directed(d) => g.find_neighbor(d.reverse(), v, pred),
            Adjacency::Undirected => g
                .find_neighbor(Direction::Forward, v, &pred)
                .or_else(|| g.find_neighbor(Direction::Backward, v, &pred)),
        }
    }
}

/// The algorithm-specific half of a traversal: the claim protocol.
pub trait EdgeMapOps: Sync {
    /// Attempts to claim `dst`, discovered from `src` at `depth` (the
    /// level being built; the seed level is 0). Must be an atomic claim:
    /// of all threads calling `claim` for the same `dst` within one level,
    /// at most one may receive `true`. Returning `true` places `dst` in
    /// the next frontier.
    fn claim(&self, src: NodeId, dst: NodeId, depth: u32) -> bool;

    /// `true` iff `v` is still claimable — drives the bottom-up candidate
    /// pool. Must be consistent with `claim`: once a node is claimed it
    /// must stop being a candidate.
    fn candidate(&self, v: NodeId) -> bool;

    /// Appends every claimable node to `pool`: the bottom-up candidate
    /// pool, built once per traversal on its first bottom-up level. The
    /// default scans `0..universe` through
    /// [`candidate`](EdgeMapOps::candidate), in parallel when `parallel`
    /// is set. Ops that know a smaller superset of their candidates (the
    /// live residue of an SCC peel) override it to scan only that.
    fn fill_pool(&self, universe: usize, parallel: bool, pool: &mut Vec<NodeId>) {
        let nodes = 0..universe as NodeId;
        if parallel {
            pool.extend(
                nodes
                    .into_par_iter()
                    .filter(|&v| self.candidate(v))
                    .collect::<Vec<_>>(),
            );
        } else {
            pool.extend(nodes.filter(|&v| self.candidate(v)));
        }
    }
}

/// Buffers of an [`EdgeMap`] that outlive one traversal: the frontier's
/// double buffers, the bottom-up candidate pool and the dense frontier
/// membership bits. A caller that runs many traversals over one graph (the
/// FW/BW peel runs two per pivot trial) hands the same scratch from each
/// finished kernel ([`EdgeMap::into_scratch`]) to the next
/// ([`EdgeMap::with_scratch`]), so only the first traversal allocates.
#[derive(Default)]
pub struct EdgeMapScratch {
    frontier: Frontier,
    pool: Vec<NodeId>,
    /// All-clear between steps: each bottom-up step releases the bits it
    /// set before it returns.
    in_frontier: Option<ClaimSet>,
    /// Levels run bottom-up by every traversal that used this scratch.
    bottom_up_levels: usize,
}

impl EdgeMapScratch {
    /// Levels run bottom-up by every traversal that used this scratch —
    /// 0 unless the direction-optimizing switch ever fired.
    pub fn bottom_up_levels(&self) -> usize {
        self.bottom_up_levels
    }
}

/// The unified level-synchronous traversal driver. See the module docs.
///
/// Drive it with [`run`](EdgeMap::run) (to the fixpoint) or level by level
/// with [`step`](EdgeMap::step) (algorithms like frontier-driven WCC that
/// interleave other work between levels).
pub struct EdgeMap<'g, G: GraphView = CsrGraph> {
    g: &'g G,
    adj: Adjacency,
    cfg: TraversalConfig,
    scratch: EdgeMapScratch,
    /// Whether `scratch.pool` holds this traversal's candidates; the pool
    /// is built on the first bottom-up level and shrunk after each one.
    pool_built: bool,
    /// Σ reverse-direction degree over the pool — what one bottom-up level
    /// scans at most. Exact after each bottom-up level; top-down levels
    /// claim pool nodes without recounting, leaving it an over-estimate.
    pool_edges: usize,
    depth: u32,
    remaining: usize,
    claimed: usize,
}

impl<'g, G: GraphView> EdgeMap<'g, G> {
    /// A kernel over `g` following `adj`, with an empty frontier at depth 0.
    pub fn new(g: &'g G, adj: Adjacency, cfg: TraversalConfig) -> Self {
        Self::with_scratch(g, adj, cfg, EdgeMapScratch::default())
    }

    /// [`EdgeMap::new`] reusing the buffers of an earlier traversal.
    pub fn with_scratch(
        g: &'g G,
        adj: Adjacency,
        cfg: TraversalConfig,
        mut scratch: EdgeMapScratch,
    ) -> Self {
        scratch.frontier.clear();
        if scratch
            .in_frontier
            .as_ref()
            .is_some_and(|s| s.len() != g.num_nodes())
        {
            scratch.in_frontier = None;
        }
        EdgeMap {
            g,
            adj,
            cfg,
            scratch,
            pool_built: false,
            pool_edges: 0,
            depth: 0,
            // Until told otherwise, assume everything else is claimable.
            remaining: g.num_nodes(),
            claimed: 0,
        }
    }

    /// Ends the traversal, handing its buffers to the next one.
    pub fn into_scratch(self) -> EdgeMapScratch {
        self.scratch
    }

    /// Seeds the frontier with one node. The caller must have already
    /// claimed it (seeds are never passed to [`EdgeMapOps::claim`]).
    pub fn seed(&mut self, v: NodeId) {
        self.scratch.frontier.push(v);
        self.remaining = self.remaining.saturating_sub(1);
    }

    /// Appends pre-claimed nodes to the current frontier (multi-source
    /// traversals; re-activation between [`step`](EdgeMap::step)s).
    pub fn extend(&mut self, items: &[NodeId]) {
        self.scratch.frontier.extend_from_slice(items);
    }

    /// Overrides the remaining-candidate estimate used by the bottom-up
    /// switch heuristic (e.g. the size of the color partition being
    /// traversed rather than the whole graph).
    pub fn set_remaining(&mut self, remaining: usize) {
        self.remaining = remaining;
    }

    /// Depth of the most recently built level (0 before the first step).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Members of the current frontier.
    pub fn frontier(&self) -> &[NodeId] {
        self.scratch.frontier.as_slice()
    }

    /// Total number of successful claims so far (seeds excluded).
    pub fn claimed(&self) -> usize {
        self.claimed
    }

    /// Levels run bottom-up so far, counting those of earlier traversals
    /// that used this kernel's scratch.
    pub fn bottom_up_levels(&self) -> usize {
        self.scratch.bottom_up_levels
    }

    /// The Beamer switch, decided per level: go bottom-up when the edges
    /// the frontier would expand top-down, times
    /// [`alpha`](TraversalConfig::alpha), outweigh the edges a bottom-up
    /// sweep may scan. The latter is the pool's in-edge count once the
    /// pool exists (every in-edge of every candidate, the cost of a
    /// candidate the frontier never reaches); before that it is the
    /// remaining candidates times the mean degree. The same test brings
    /// the traversal back top-down once the frontier's edges fall below
    /// the pool's.
    fn choose_bottom_up(&self) -> bool {
        if !self.cfg.direction_optimizing || self.remaining <= self.cfg.par_threshold {
            return false;
        }
        let (g, adj) = (self.g, self.adj);
        let unexplored = if self.pool_built {
            self.pool_edges
        } else {
            let n = g.num_nodes().max(1);
            let per_node = if adj == Adjacency::Undirected { 2 } else { 1 };
            self.remaining.saturating_mul(per_node * g.num_edges()) / n
        };
        let frontier_edges: usize = self
            .frontier()
            .iter()
            .map(|&u| adj.degree(g, u, false))
            .sum();
        frontier_edges.saturating_mul(self.cfg.alpha) > unexplored
    }

    /// Advances one level; returns the size of the newly built frontier
    /// (0 when the traversal is exhausted).
    pub fn step<O: EdgeMapOps>(&mut self, ops: &O) -> usize {
        if self.scratch.frontier.is_empty() {
            return 0;
        }
        self.depth += 1;
        let depth = self.depth;
        let flen = self.scratch.frontier.len();
        let workers = if flen < self.cfg.par_threshold {
            1
        } else {
            rayon::current_num_threads()
        };
        let bottom_up = self.choose_bottom_up();

        let g = self.g;
        let adj = self.adj;
        let scratch = &mut self.scratch;
        if bottom_up {
            if !self.pool_built {
                scratch.pool.clear();
                ops.fill_pool(g.num_nodes(), workers > 1, &mut scratch.pool);
                self.pool_built = true;
            }
            let set = scratch
                .in_frontier
                .get_or_insert_with(|| ClaimSet::new(g.num_nodes()));
            for &u in scratch.frontier.as_slice() {
                set.put(u as usize, true);
            }
            let set = &*set;
            scratch
                .frontier
                .advance_over(&scratch.pool, workers, |chunk, out| {
                    for &v in chunk {
                        if !ops.candidate(v) {
                            continue;
                        }
                        if let Some(u) = adj.find_in(g, v, |u| set.contains(u as usize)) {
                            if ops.claim(u, v, depth) {
                                out.push(v);
                            }
                        }
                    }
                });
            let mut pool_edges = 0;
            scratch.pool.retain(|&v| {
                let keep = ops.candidate(v);
                if keep {
                    pool_edges += adj.degree(g, v, true);
                }
                keep
            });
            self.pool_edges = pool_edges;
            // sparse-reset the just-expanded level's membership bits
            let set = scratch.in_frontier.as_mut().expect("built above");
            for &u in scratch.frontier.previous() {
                set.put(u as usize, false);
            }
            scratch.bottom_up_levels += 1;
        } else {
            scratch.frontier.advance(workers, |chunk, out| {
                for &u in chunk {
                    adj.for_each_out(g, u, &mut |v| {
                        if ops.claim(u, v, depth) {
                            out.push(v);
                        }
                    });
                }
            });
        }

        let added = self.scratch.frontier.len();
        self.claimed += added;
        self.remaining = self.remaining.saturating_sub(added);
        added
    }

    /// Runs to the fixpoint; returns the total number of claims (seeds
    /// excluded).
    pub fn run<O: EdgeMapOps>(&mut self, ops: &O) -> usize {
        while self.step(ops) > 0 {}
        self.claimed
    }

    /// Interruptible [`EdgeMap::run`]: polls the shared [`Interrupt`]
    /// between supersteps and stops early (returning the abort reason)
    /// when it fires. A BFS level is the natural poll granularity — a
    /// single level never loops, so cancellation latency is bounded by
    /// one frontier expansion.
    pub fn run_interruptible<O: EdgeMapOps>(
        &mut self,
        ops: &O,
        interrupt: &Interrupt,
    ) -> Result<usize, AbortReason> {
        loop {
            if let Some(reason) = interrupt.poll() {
                return Err(reason);
            }
            if self.step(ops) == 0 {
                return Ok(self.claimed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swscc_sync::atomic::{AtomicU32, Ordering};

    /// Plain reachability ops over a visited ClaimSet.
    struct VisitOps {
        visited: ClaimSet,
    }

    impl EdgeMapOps for VisitOps {
        fn claim(&self, _src: NodeId, dst: NodeId, _depth: u32) -> bool {
            self.visited.claim(dst as usize)
        }
        fn candidate(&self, v: NodeId) -> bool {
            !self.visited.contains(v as usize)
        }
    }

    /// Level-recording ops (the BFS claim protocol).
    struct LevelOps {
        levels: Vec<AtomicU32>,
    }

    impl LevelOps {
        fn new(n: usize, src: NodeId) -> Self {
            let mut levels = Vec::with_capacity(n);
            levels.resize_with(n, || AtomicU32::new(u32::MAX));
            levels[src as usize].store(0, Ordering::Relaxed);
            LevelOps { levels }
        }
        fn level(&self, v: NodeId) -> u32 {
            self.levels[v as usize].load(Ordering::Relaxed)
        }
    }

    impl EdgeMapOps for LevelOps {
        fn claim(&self, _src: NodeId, dst: NodeId, depth: u32) -> bool {
            self.levels[dst as usize].load(Ordering::Relaxed) == u32::MAX
                && self.levels[dst as usize]
                    .compare_exchange(u32::MAX, depth, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
        }
        fn candidate(&self, v: NodeId) -> bool {
            self.levels[v as usize].load(Ordering::Relaxed) == u32::MAX
        }
    }

    fn visit_all(g: &CsrGraph, src: NodeId, adj: Adjacency, cfg: TraversalConfig) -> (usize, u32) {
        let ops = VisitOps {
            visited: ClaimSet::new(g.num_nodes()),
        };
        ops.visited.claim(src as usize);
        let mut em = EdgeMap::new(g, adj, cfg);
        em.seed(src);
        let claimed = em.run(&ops);
        assert_eq!(claimed, em.claimed());
        (claimed + 1, em.depth())
    }

    #[test]
    fn single_node_no_edges() {
        let g = CsrGraph::from_edges(1, &[]);
        let (reached, depth) = visit_all(
            &g,
            0,
            Adjacency::Directed(Direction::Forward),
            TraversalConfig::default(),
        );
        assert_eq!(reached, 1);
        assert_eq!(depth, 1, "one (empty) expansion of the seed level");
    }

    #[test]
    fn self_loops_do_not_requeue() {
        let g = CsrGraph::from_edges(3, &[(0, 0), (0, 1), (1, 1), (1, 2), (2, 0)]);
        let (reached, _) = visit_all(
            &g,
            0,
            Adjacency::Directed(Direction::Forward),
            TraversalConfig::default(),
        );
        assert_eq!(reached, 3);
    }

    #[test]
    fn source_with_zero_out_degree() {
        let g = CsrGraph::from_edges(4, &[(1, 0), (2, 3)]);
        let (reached, _) = visit_all(
            &g,
            0,
            Adjacency::Directed(Direction::Forward),
            TraversalConfig::default(),
        );
        assert_eq!(reached, 1, "nothing reachable forward from a sink");
        let (reached_bw, _) = visit_all(
            &g,
            0,
            Adjacency::Directed(Direction::Backward),
            TraversalConfig::default(),
        );
        assert_eq!(reached_bw, 2);
    }

    #[test]
    fn undirected_adjacency_crosses_edge_direction() {
        // 0 -> 1 <- 2: directed misses 2, undirected reaches it
        let g = CsrGraph::from_edges(3, &[(0, 1), (2, 1)]);
        let (fwd, _) = visit_all(
            &g,
            0,
            Adjacency::Directed(Direction::Forward),
            TraversalConfig::default(),
        );
        assert_eq!(fwd, 2);
        let (und, _) = visit_all(&g, 0, Adjacency::Undirected, TraversalConfig::default());
        assert_eq!(und, 3);
    }

    /// A star: the frontier after level 1 is exactly `width`, probing the
    /// sequential/parallel boundary of the hybrid expansion.
    fn star_levels(width: usize, cfg: TraversalConfig) {
        let n = width + 2;
        let mut edges: Vec<(u32, u32)> = (0..width).map(|i| (0, (i + 1) as u32)).collect();
        // all spokes point at a common sink so the parallel level has work
        edges.extend((0..width).map(|i| ((i + 1) as u32, (width + 1) as u32)));
        let g = CsrGraph::from_edges(n, &edges);
        let ops = LevelOps::new(n, 0);
        let mut em = EdgeMap::new(&g, Adjacency::Directed(Direction::Forward), cfg);
        em.seed(0);
        assert_eq!(em.step(&ops), width, "level 1 = the spokes");
        assert_eq!(em.step(&ops), 1, "level 2 = the sink");
        assert_eq!(em.step(&ops), 0);
        assert_eq!(ops.level(0), 0);
        for i in 0..width {
            assert_eq!(ops.level((i + 1) as u32), 1);
        }
        assert_eq!(ops.level((width + 1) as u32), 2);
    }

    #[test]
    fn frontier_exactly_at_par_threshold() {
        // width == par_threshold: the level expands in parallel;
        // width == par_threshold - 1: sequentially. Same answers.
        let cfg = TraversalConfig::default();
        star_levels(cfg.par_threshold, cfg);
        star_levels(cfg.par_threshold - 1, cfg);
    }

    #[test]
    fn bottom_up_switch_threshold_boundary() {
        // remaining must strictly exceed par_threshold for bottom-up to
        // engage; probe both sides of the boundary and both traversal
        // modes must agree with sequential BFS levels.
        for extra in [0usize, 1, 600] {
            let width = DEFAULT_PAR_FRONTIER_THRESHOLD + extra;
            let td = TraversalConfig::default();
            let bu = TraversalConfig::direction_optimizing();
            star_levels(width, td);
            star_levels(width, bu);
        }
    }

    #[test]
    fn direction_optimizing_matches_top_down_levels() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        let n = 2000u32;
        let edges: Vec<_> = (0..16_000)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .collect();
        let g = CsrGraph::from_edges(n as usize, &edges);
        for adj in [
            Adjacency::Directed(Direction::Forward),
            Adjacency::Directed(Direction::Backward),
            Adjacency::Undirected,
        ] {
            let a = LevelOps::new(n as usize, 0);
            let mut em = EdgeMap::new(&g, adj, TraversalConfig::default());
            em.seed(0);
            em.run(&a);
            let b = LevelOps::new(n as usize, 0);
            let mut em = EdgeMap::new(&g, adj, TraversalConfig::direction_optimizing());
            em.seed(0);
            em.run(&b);
            for v in 0..n {
                assert_eq!(a.level(v), b.level(v), "node {v} under {adj:?}");
            }
        }
    }

    /// Runs a direction-optimizing BFS from 0 one step at a time on a
    /// pool of `threads` workers. Returns whether each step ran bottom-up,
    /// after checking every depth against sequential BFS.
    fn directions_on(g: &CsrGraph, threads: usize) -> Vec<bool> {
        let n = g.num_nodes();
        let ops = LevelOps::new(n, 0);
        let bottom_up = swscc_parallel::pool::with_pool(threads, || {
            let mut em = EdgeMap::new(
                g,
                Adjacency::Directed(Direction::Forward),
                TraversalConfig::direction_optimizing(),
            );
            em.seed(0);
            let mut bottom_up = Vec::new();
            loop {
                let before = em.bottom_up_levels();
                let added = em.step(&ops);
                bottom_up.push(em.bottom_up_levels() > before);
                if added == 0 {
                    break;
                }
            }
            bottom_up
        });
        let want = crate::bfs::bfs_levels(g, 0, Direction::Forward);
        for v in 0..n as NodeId {
            assert_eq!(ops.level(v), want[v as usize], "depth of node {v}");
        }
        bottom_up
    }

    /// [`directions_on`] on one worker (sequential pool fill and sweep) and
    /// on two (parallel ones); both must take the same directions.
    fn directions(g: &CsrGraph) -> Vec<bool> {
        let seq = directions_on(g, 1);
        assert_eq!(directions_on(g, 2), seq, "directions differ by workers");
        seq
    }

    /// `blob` nodes from `first` on, none reachable from 0: node `first + i`
    /// has in-edges from the `in_degree` nodes after it (cyclically).
    fn unreachable_blob(first: u32, blob: u32, in_degree: u32) -> Vec<(u32, u32)> {
        (0..blob)
            .flat_map(|i| (1..=in_degree).map(move |k| (first + (i + k) % blob, first + i)))
            .collect()
    }

    #[test]
    fn unreachable_pool_keeps_traversal_top_down() {
        // 0 -> 1000 spokes -> one sink, beside 4000 nodes the seed never
        // reaches. At level 2 the frontier is a fifth of the remaining
        // nodes, but its 1000 edges are dwarfed by the 40 000 in-edges a
        // bottom-up sweep would scan over the unreachable nodes.
        let spokes = 1000u32;
        let sink = spokes + 1;
        let mut edges: Vec<(u32, u32)> = (1..=spokes).flat_map(|s| [(0, s), (s, sink)]).collect();
        edges.extend(unreachable_blob(sink + 1, 4000, 10));
        let g = CsrGraph::from_edges((sink + 1 + 4000) as usize, &edges);
        let dirs = directions(&g);
        assert_eq!(dirs.len(), 3, "levels: spokes, sink, empty tail");
        assert!(dirs.iter().all(|&b| !b), "every level top-down: {dirs:?}");
    }

    #[test]
    fn traversal_returns_top_down_when_frontier_edges_shrink() {
        // 0 -> A (1000 nodes) -5 each-> B (2000 nodes) -> t0 -> t1 -> ...
        // -> t299, beside 1000 unreachable nodes with in-degree 3. A's
        // 5000 edges outweigh what the candidates hold, so level 2 runs
        // bottom-up. B's 2000 edges do not outweigh the remaining pool's
        // 5299 (t0's 2000, the path's 299, the blob's 3000), so level 3
        // and the path after it run top-down again.
        let (a, b, path) = (1000u32, 2000u32, 300u32);
        let b0 = 1 + a;
        let t0 = b0 + b;
        let blob0 = t0 + path;
        let mut edges: Vec<(u32, u32)> = (1..=a).map(|v| (0, v)).collect();
        edges.extend((0..a).flat_map(|i| (0..5).map(move |k| (1 + i, b0 + (i * 5 + k) % b))));
        edges.extend((b0..t0).map(|v| (v, t0)));
        edges.extend((t0..blob0 - 1).map(|v| (v, v + 1)));
        edges.extend(unreachable_blob(blob0, 1000, 3));
        let g = CsrGraph::from_edges((blob0 + 1000) as usize, &edges);
        let dirs = directions(&g);
        assert_eq!(&dirs[..3], &[false, true, false], "{dirs:?}");
        assert!(dirs[2..].iter().all(|&b| !b), "top-down after level 2");
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        let ops = VisitOps {
            visited: ClaimSet::new(0),
        };
        let mut em = EdgeMap::new(
            &g,
            Adjacency::Directed(Direction::Forward),
            TraversalConfig::default(),
        );
        assert_eq!(em.run(&ops), 0);
        assert_eq!(em.depth(), 0);
    }

    #[test]
    fn run_interruptible_matches_run_when_not_aborted() {
        // 0 -> 1 -> 2 -> 3 chain
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let ops = VisitOps {
            visited: ClaimSet::new(4),
        };
        ops.visited.claim(0);
        let mut em = EdgeMap::new(
            &g,
            Adjacency::Directed(Direction::Forward),
            TraversalConfig::default(),
        );
        em.seed(0);
        let interrupt = Interrupt::new();
        assert_eq!(em.run_interruptible(&ops, &interrupt), Ok(3));
        assert_eq!(em.depth(), 4, "three claiming levels plus the empty tail");
    }

    #[test]
    fn run_interruptible_stops_on_pre_cancelled_token() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let ops = VisitOps {
            visited: ClaimSet::new(4),
        };
        ops.visited.claim(0);
        let mut em = EdgeMap::new(
            &g,
            Adjacency::Directed(Direction::Forward),
            TraversalConfig::default(),
        );
        em.seed(0);
        let interrupt = Interrupt::new();
        interrupt.cancel();
        assert_eq!(
            em.run_interruptible(&ops, &interrupt),
            Err(AbortReason::Cancelled)
        );
        assert_eq!(em.depth(), 0, "no superstep may run after cancellation");
    }
}
