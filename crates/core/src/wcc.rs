//! Par-WCC (Algorithm 7): parallel weakly-connected-component detection.
//!
//! §3.3: after the giant SCC is peeled, the residue is a sea of small
//! mutually-disconnected clusters, but the recursive FW-BW phase sees only
//! two colors (FW set / BW set) and serializes. Par-WCC splits each
//! partition into its weakly connected components — "a maximal group of
//! nodes that are mutually reachable by converting directed edges to
//! undirected edges" — assigns every WCC a fresh color, and enqueues each
//! as a separate work item, lifting the initial task count from O(1) to the
//! paper's observed ~10,000.
//!
//! Implementation: min-label propagation with pointer-jumping shortcuts
//! over the alive nodes, exactly the paper's `WCC(n)` head-node scheme.
//! One deliberate fix: Algorithm 7 as printed pulls labels only from
//! out-neighbors, which does not converge to *weak* connectivity (a label
//! can never cross an edge against its direction); since the paper defines
//! WCC over undirected edges and relies on that semantics, the propagation
//! here scans in-neighbors too.
//!
//! The propagation runs on the unified
//! [`swscc_graph::traverse::EdgeMap`] kernel over
//! [`Adjacency::Undirected`]: the frontier holds the nodes whose label
//! changed last round, the claim is a fetch-min on the label array
//! (deduplicated per round by a [`ClaimSet`]), and between kernel steps a
//! pointer-jumping sweep over the alive nodes shortcuts label chains —
//! nodes the sweep improves re-enter the frontier. Frontier storage
//! reuses its buffers across rounds instead of collecting a fresh vector
//! per round.

use crate::state::{AlgoState, Color};
use rayon::prelude::*;
use swscc_graph::bfs::Direction;
use swscc_graph::traverse::{Adjacency, EdgeMap, EdgeMapOps, TraversalConfig};
use swscc_graph::{GraphView, NodeId};
use swscc_parallel::ClaimSet;
use swscc_sync::atomic::{AtomicU32, Ordering};

/// Outcome of a Par-WCC run.
#[derive(Debug)]
pub struct WccOutcome {
    /// One entry per weakly connected component found among the alive
    /// nodes: the fresh color assigned and the member list, ready to become
    /// work-queue tasks.
    pub groups: Vec<(Color, Vec<NodeId>)>,
    /// Label-propagation iterations until fixpoint — the quantity that
    /// blows up on large-diameter graphs ("the algorithm requires a large
    /// number of iterations for convergence" on CA-road, §5).
    pub iterations: usize,
}

/// The Par-WCC claim protocol: push the source's label to the destination
/// with a fetch-min, restricted to same-color (same-partition) alive
/// pairs. A node enters the next frontier at most once per round — the
/// `queued` claim set dedups concurrent enqueue attempts; the driver
/// releases a node's bit when it leaves the frontier so later label
/// improvements can re-activate it.
struct MinLabelOps<'a, 'g, G: GraphView> {
    state: &'a AlgoState<'g, G>,
    labels: &'a [AtomicU32],
    queued: ClaimSet,
}

impl<G: GraphView> EdgeMapOps for MinLabelOps<'_, '_, G> {
    #[inline]
    fn claim(&self, src: NodeId, dst: NodeId, _depth: u32) -> bool {
        if src == dst || self.state.color(dst) != self.state.color(src) {
            return false;
        }
        // ordering: monotone fetch_min convergence — labels only ever
        // decrease, so a stale read can at worst skip an improvement this
        // round that the fixpoint loop retries next round; the fetch_min
        // itself is atomic so no decrease is lost. Final labels are
        // published to the grouping pass by the kernel's scope joins.
        let l = self.labels[src as usize].load(Ordering::Relaxed);
        if l >= self.labels[dst as usize].load(Ordering::Relaxed) {
            return false;
        }
        self.labels[dst as usize].fetch_min(l, Ordering::Relaxed);
        self.queued.claim(dst as usize)
    }

    #[inline]
    fn candidate(&self, _v: NodeId) -> bool {
        // Label propagation has no "visited" notion: every alive node
        // stays claimable whenever its label can still decrease.
        true
    }
}

/// Runs the Par-WCC implementation selected by
/// [`SccConfig::wcc_impl`](crate::SccConfig::wcc_impl) — the single
/// dispatch point consumed by the pipeline engine's Wcc kernel (and any
/// other caller that should honour the config knob rather than hard-code
/// an implementation).
pub fn run_wcc<G: GraphView>(
    state: &AlgoState<'_, G>,
    cfg: &crate::config::SccConfig,
) -> WccOutcome {
    match cfg.wcc_impl {
        crate::config::WccImpl::LabelPropagation => par_wcc(state),
        crate::config::WccImpl::UnionFind => par_wcc_unionfind(state),
    }
}

/// Runs Par-WCC over all alive nodes, respecting the current coloring
/// (labels never cross between different colors). Re-colors every alive
/// node with its WCC's fresh color and returns the groups.
pub fn par_wcc<G: GraphView>(state: &AlgoState<'_, G>) -> WccOutcome {
    let n = state.num_nodes();
    let labels: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    // Alive-list build over the live set: O(|residue|) once compacted.
    let alive: Vec<NodeId> = state.collect_alive();

    let ops = MinLabelOps {
        state,
        labels: &labels,
        queued: ClaimSet::new(n),
    };
    // Bottom-up sweeps are meaningless for label propagation (every node
    // is a permanent candidate), so the kernel runs pure top-down.
    let mut em = EdgeMap::new(
        state.g,
        Adjacency::Undirected,
        TraversalConfig {
            direction_optimizing: false,
            ..Default::default()
        },
    );
    em.extend(&alive);

    // Watchdog: without pointer jumping the propagation needs at most
    // diameter ≤ n rounds; jumps only shorten that. The factor-scaled
    // bound turns a lost-update bug (which would spin forever) into a
    // clean NonConvergence abort.
    let mut watchdog = state.watchdog("par-wcc", n + 1);
    let mut iterations = 0usize;
    loop {
        if watchdog.check().is_some() {
            // Aborted (cancel / deadline / trip): labels are mid-flight,
            // so the groups built below are meaningless — the driver must
            // check the interrupt before using them.
            break;
        }
        swscc_sync::fault::point("wcc-round");
        iterations += 1;
        // Dequeue the current frontier: clear its bits so a node whose
        // label drops again during this round re-enters the next one.
        for &v in em.frontier() {
            ops.queued.release(v as usize);
        }
        // Push round: changed nodes push their labels to same-color
        // neighbors in both edge directions (undirected semantics).
        em.step(&ops);
        // Shortcutting (pointer jumping): WCC(n) <- WCC(WCC(n)). A jump
        // target is always a same-group node (labels only ever take
        // values of group members), and improved nodes must re-enter the
        // frontier so neighbors observe their new label.
        let jumped: Vec<NodeId> = alive
            .par_iter()
            .copied()
            .filter(|&v| {
                // ordering: same monotone fetch_min argument as the push
                // round — stale jumps are retried, improvements are never
                // lost, the round barrier publishes.
                let l = labels[v as usize].load(Ordering::Relaxed);
                let ll = labels[l as usize].load(Ordering::Relaxed);
                if ll < l {
                    labels[v as usize].fetch_min(ll, Ordering::Relaxed);
                    ops.queued.claim(v as usize)
                } else {
                    false
                }
            })
            .collect();
        em.extend(&jumped);
        if em.frontier().is_empty() {
            break;
        }
    }

    // Group members by root label, assign a fresh color per group.
    // ordering: reads after the fixpoint loop's final barrier (the scope
    // joins inside step/par_iter published every write).
    let mut pairs: Vec<(u32, NodeId)> = alive
        .par_iter()
        .map(|&v| (labels[v as usize].load(Ordering::Relaxed), v))
        .collect();
    pairs.par_sort_unstable();
    let mut groups: Vec<(Color, Vec<NodeId>)> = Vec::new();
    let mut current_root = u32::MAX;
    for (root, v) in pairs {
        if root != current_root {
            current_root = root;
            groups.push((state.alloc_color(), Vec::new()));
        }
        groups.last_mut().expect("just pushed").1.push(v);
    }
    for (c, members) in &groups {
        for &v in members {
            state.set_color(v, *c);
        }
    }
    WccOutcome { groups, iterations }
}

/// Par-WCC via concurrent union-find (an Afforest-style alternative to the
/// paper's label propagation).
///
/// §5 observes that the label-propagation WCC "requires a large number of
/// iterations for convergence when applied on non-small-world graphs" —
/// the CA-road instance degrades Method 2 for exactly this reason. A
/// lock-free disjoint-set forest removes the diameter dependence: each
/// edge costs amortized near-constant work regardless of component shape.
/// Selectable via [`crate::config::WccImpl`]; the `ablation_wcc` harness
/// compares the two on both graph classes.
pub fn par_wcc_unionfind<G: GraphView>(state: &AlgoState<'_, G>) -> WccOutcome {
    let n = state.num_nodes();
    let parents: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let alive: Vec<NodeId> = state.collect_alive();

    // Union every same-color alive edge. Out-edges suffice: (u, v) is seen
    // from u's side, and weak connectivity is symmetric.
    alive.par_iter().for_each(|&u| {
        let cu = state.color(u);
        state.g.for_each_neighbor(Direction::Forward, u, |v| {
            if v != u && state.color(v) == cu {
                union(&parents, u, v);
            }
        });
    });

    // Group by root (flatten to full path compression first).
    let mut pairs: Vec<(u32, NodeId)> = alive.par_iter().map(|&v| (find(&parents, v), v)).collect();
    pairs.par_sort_unstable();
    let mut groups: Vec<(Color, Vec<NodeId>)> = Vec::new();
    let mut current_root = u32::MAX;
    for (root, v) in pairs {
        if root != current_root {
            current_root = root;
            groups.push((state.alloc_color(), Vec::new()));
        }
        groups.last_mut().expect("just pushed").1.push(v);
    }
    for (c, members) in &groups {
        for &v in members {
            state.set_color(v, *c);
        }
    }
    WccOutcome {
        groups,
        iterations: 1, // edge-parallel, no global iteration count
    }
}

/// Lock-free find with path halving.
fn find(parents: &[AtomicU32], mut x: NodeId) -> u32 {
    loop {
        // ordering: parent pointers form a monotone union-find forest —
        // every write moves a pointer strictly toward a smaller root, so
        // any stale read still lands inside the same tree and the loop
        // re-reads until it reaches a fixpoint; the path-halving CAS is
        // a pure hint whose failure is ignored. Final structure is
        // published by the scope join before readers consume roots.
        let p = parents[x as usize].load(Ordering::Relaxed);
        if p == x {
            return x;
        }
        let gp = parents[p as usize].load(Ordering::Relaxed);
        if gp != p {
            #[allow(
                clippy::let_underscore_must_use,
                reason = "halving the path is a hint; a failed CAS means another thread improved it"
            )]
            let _ =
                parents[x as usize].compare_exchange(p, gp, Ordering::Relaxed, Ordering::Relaxed);
        }
        x = p;
    }
}

/// Lock-free union linking the larger root under the smaller (so group
/// roots coincide with min node ids, like the label-propagation variant).
fn union(parents: &[AtomicU32], a: NodeId, b: NodeId) {
    let mut a = a;
    let mut b = b;
    loop {
        let ra = find(parents, a);
        let rb = find(parents, b);
        if ra == rb {
            return;
        }
        let (hi, lo) = if ra < rb { (rb, ra) } else { (ra, rb) };
        // ordering: link-by-CAS carries correctness via atomicity alone
        // (only a root can be linked, and exactly one linker wins); the
        // no-payload argument of `find` applies.
        if parents[hi as usize]
            .compare_exchange(hi, lo, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            return;
        }
        // lost a race: retry from the (possibly moved) roots
        a = hi;
        b = lo;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swscc_graph::CsrGraph;

    #[test]
    fn splits_disconnected_clusters() {
        // 0->1, 2->3, isolated 4
        let g = CsrGraph::from_edges(5, &[(0, 1), (2, 3)]);
        let s = AlgoState::new(&g);
        let out = par_wcc(&s);
        assert_eq!(out.groups.len(), 3);
        let sizes: Vec<usize> = out.groups.iter().map(|(_, m)| m.len()).collect();
        assert_eq!(sizes, vec![2, 2, 1]);
        // fresh distinct colors assigned
        assert_ne!(s.color(0), s.color(2));
        assert_eq!(s.color(0), s.color(1));
    }

    #[test]
    fn direction_is_ignored() {
        // 0 -> 1 <- 2: weakly one component even though 0 and 2 are
        // mutually unreachable.
        let g = CsrGraph::from_edges(3, &[(0, 1), (2, 1)]);
        let s = AlgoState::new(&g);
        let out = par_wcc(&s);
        assert_eq!(out.groups.len(), 1);
        assert_eq!(out.groups[0].1, vec![0, 1, 2]);
    }

    #[test]
    fn marked_nodes_are_invisible() {
        // chain 0 - 1 - 2; resolving 1 splits the weak component.
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let s = AlgoState::new(&g);
        s.resolve_singleton(1);
        let out = par_wcc(&s);
        assert_eq!(out.groups.len(), 2);
    }

    #[test]
    fn respects_existing_colors() {
        // 0 - 1 - 2 - 3 all weakly connected, but {0,1} and {2,3} are in
        // different partitions: the 1-2 edge must not merge them.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let s = AlgoState::new(&g);
        let c = s.alloc_color();
        s.set_color(2, c);
        s.set_color(3, c);
        let out = par_wcc(&s);
        assert_eq!(out.groups.len(), 2);
    }

    #[test]
    fn long_path_converges() {
        // Pointer jumping should converge in O(log n)-ish label rounds, and
        // the outcome must be a single group regardless.
        let n = 10_000u32;
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = CsrGraph::from_edges(n as usize, &edges);
        let s = AlgoState::new(&g);
        let out = par_wcc(&s);
        assert_eq!(out.groups.len(), 1);
        assert_eq!(out.groups[0].1.len(), n as usize);
        assert!(
            out.iterations < 100,
            "pointer jumping failed to accelerate: {} iterations",
            out.iterations
        );
    }

    #[test]
    fn empty_state() {
        let g = CsrGraph::from_edges(0, &[]);
        let s = AlgoState::new(&g);
        let out = par_wcc(&s);
        assert!(out.groups.is_empty());
        assert_eq!(out.iterations, 1);
    }

    #[test]
    fn groups_cover_alive_exactly() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 0), (2, 3), (4, 5)]);
        let s = AlgoState::new(&g);
        s.resolve_singleton(5);
        let out = par_wcc(&s);
        let mut all: Vec<NodeId> = out.groups.iter().flat_map(|(_, m)| m.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    // --- union-find variant ------------------------------------------------

    fn groups_of(out: &WccOutcome) -> Vec<Vec<NodeId>> {
        let mut gs: Vec<Vec<NodeId>> = out.groups.iter().map(|(_, m)| m.clone()).collect();
        for g in &mut gs {
            g.sort_unstable();
        }
        gs.sort();
        gs
    }

    #[test]
    fn unionfind_matches_label_propagation() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(89);
        for _ in 0..15 {
            let n = rng.random_range(1..150usize);
            let m = rng.random_range(0..3 * n);
            let edges: Vec<_> = (0..m)
                .map(|_| (rng.random_range(0..n) as u32, rng.random_range(0..n) as u32))
                .collect();
            let g = CsrGraph::from_edges(n, &edges);
            let s1 = AlgoState::new(&g);
            let a = par_wcc(&s1);
            let s2 = AlgoState::new(&g);
            let b = par_wcc_unionfind(&s2);
            assert_eq!(groups_of(&a), groups_of(&b));
        }
    }

    #[test]
    fn unionfind_respects_colors() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let s = AlgoState::new(&g);
        let c = s.alloc_color();
        s.set_color(2, c);
        s.set_color(3, c);
        let out = par_wcc_unionfind(&s);
        assert_eq!(out.groups.len(), 2);
    }

    #[test]
    fn unionfind_long_path_single_group() {
        let n = 20_000u32;
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = CsrGraph::from_edges(n as usize, &edges);
        let s = AlgoState::new(&g);
        let out = par_wcc_unionfind(&s);
        assert_eq!(out.groups.len(), 1);
        assert_eq!(out.groups[0].1.len(), n as usize);
    }

    #[test]
    fn unionfind_marked_nodes_split() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let s = AlgoState::new(&g);
        s.resolve_singleton(1);
        let out = par_wcc_unionfind(&s);
        assert_eq!(out.groups.len(), 2);
    }
}
