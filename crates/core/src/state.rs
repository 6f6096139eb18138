//! Shared mutable state of the parallel SCC algorithms: the `Color` and
//! `mark` overlays of §4.1.
//!
//! The paper never mutates the CSR graph. Instead:
//!
//! * `Color` — an O(N) integer array encoding the current partitioning.
//!   Nodes of different colors are considered disconnected even where a
//!   CSR edge exists. Fresh colors are allocated per partition.
//! * `mark` — an O(N) boolean array; a marked node's SCC is known and the
//!   node is treated as detached from the graph.
//!
//! This module adds the output channel the pseudocode leaves implicit: a
//! per-node component id, assigned exactly once when a node is resolved.
//! Resolution is an atomic claim (`mark` fetch-or), so concurrent kernels
//! can never double-assign a node.

use crate::result::SccResult;
use std::sync::Arc;
use swscc_graph::bfs::Direction;
use swscc_graph::{CsrGraph, GraphView, NodeId};
use swscc_parallel::{AtomicBitSet, CompactionPolicy, LiveSet};
use swscc_sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use swscc_sync::interrupt::{AbortReason, Interrupt};
use swscc_sync::Mutex;

/// Default watchdog headroom used by [`AlgoState::new`] (the legacy,
/// never-cancelled construction path).
const DEFAULT_WATCHDOG_FACTOR: usize = 4;

/// Partition color. 32 bits keep the hot Color array at 4 bytes/node
/// (§4.1's O(N) array is the most random-accessed structure in every
/// traversal, so halving it pays in cache hits); allocation is checked, so
/// exhausting ~4.29 billion partition ids panics instead of wrapping.
pub type Color = u32;

/// The color every node starts with (one whole-graph partition).
pub const INITIAL_COLOR: Color = 0;
/// The color of resolved (detached) nodes — the paper's `-1`.
pub const DONE_COLOR: Color = Color::MAX;
/// Colors at or above this value are reserved sentinels.
const COLOR_LIMIT: Color = Color::MAX - 8;

/// Shared state threaded through all parallel kernels, generic over the
/// graph backend (raw or compressed CSR; defaults to raw so existing
/// monomorphic call sites read unchanged).
pub struct AlgoState<'g, G: GraphView = CsrGraph> {
    /// The input graph (never mutated).
    pub g: &'g G,
    color: Vec<AtomicU32>,
    mark: AtomicBitSet,
    comp: Vec<AtomicU32>,
    next_color: AtomicU32,
    next_comp: AtomicU32,
    /// Candidate-alive iteration domain for the full-sweep kernels; a
    /// superset of `{v | alive(v)}` (marks are monotone, deletion is lazy).
    live: LiveSet,
    /// Nodes resolved so far — keeps [`AlgoState::count_alive`] O(1) for
    /// the compaction-policy checks at phase boundaries.
    resolved: AtomicUsize,
    /// The run's abort channel: cancellation, deadline, and watchdog trips
    /// all land here; every kernel loop polls it once per round/superstep.
    interrupt: Arc<Interrupt>,
    /// Watchdog headroom multiplier (see [`crate::SccConfig::watchdog_factor`]).
    watchdog_factor: usize,
    /// Counter slots of [`crate::trim::par_trim`], kept between its calls
    /// so a run allocates them once (empty until the first trim and after
    /// a trim that leaves nothing alive).
    trim_slots: Mutex<Vec<AtomicU32>>,
}

impl<'g, G: GraphView> AlgoState<'g, G> {
    /// Fresh state: all nodes alive with [`INITIAL_COLOR`]. The embedded
    /// interrupt token has no deadline and no external handle, so this
    /// state never aborts — the legacy construction path.
    pub fn new(g: &'g G) -> Self {
        Self::with_interrupt(g, Interrupt::new(), DEFAULT_WATCHDOG_FACTOR)
    }

    /// Fresh state polling the given abort token (the checked-driver
    /// construction path).
    pub fn with_interrupt(g: &'g G, interrupt: Arc<Interrupt>, watchdog_factor: usize) -> Self {
        let n = g.num_nodes();
        let mut color = Vec::with_capacity(n);
        color.resize_with(n, || AtomicU32::new(INITIAL_COLOR));
        let mut comp = Vec::with_capacity(n);
        comp.resize_with(n, || AtomicU32::new(u32::MAX));
        AlgoState {
            g,
            color,
            mark: AtomicBitSet::new(n),
            comp,
            next_color: AtomicU32::new(1),
            next_comp: AtomicU32::new(0),
            live: LiveSet::new_dense(n),
            resolved: AtomicUsize::new(0),
            interrupt,
            watchdog_factor,
            trim_slots: Mutex::new(Vec::new()),
        }
    }

    /// The run's abort token.
    #[inline]
    pub fn interrupt(&self) -> &Interrupt {
        &self.interrupt
    }

    /// One poll of the abort token — the per-round check of every kernel
    /// loop.
    #[inline]
    pub fn should_stop(&self) -> bool {
        self.interrupt.is_aborted()
    }

    /// A watchdog for a fixpoint loop whose correct implementations take
    /// at most `theoretical_max` rounds. [`Watchdog::check`] combines the
    /// per-round interrupt poll with the bound check; on exceeding
    /// `watchdog_factor × theoretical_max` rounds it trips the shared
    /// token with [`AbortReason::NonConvergence`].
    pub fn watchdog(&self, loop_name: &'static str, theoretical_max: usize) -> Watchdog<'_> {
        Watchdog {
            interrupt: &self.interrupt,
            loop_name,
            bound: self.watchdog_factor.saturating_mul(theoretical_max),
            rounds: 0,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.g.num_nodes()
    }

    /// Current color of `n`.
    #[inline]
    pub fn color(&self, n: NodeId) -> Color {
        // ordering: colors carry no payload — a color is a self-contained
        // u32 partition label, and every phase that writes colors is
        // separated from the readers of the next phase by a scope join in
        // the driving kernel (rayon/EdgeMap barrier). Within a phase, a
        // stale read only mis-filters a candidate that the claiming CAS
        // re-checks. Verified by the claim-once model battery.
        self.color[n as usize].load(Ordering::Relaxed)
    }

    /// Unconditionally recolors `n`. `c` must be [`INITIAL_COLOR`],
    /// [`DONE_COLOR`] or a color from [`AlgoState::alloc_color`]
    /// ([`AlgoState::is_fresh`] relies on it), as must `to` in
    /// [`AlgoState::cas_color`].
    #[inline]
    pub fn set_color(&self, n: NodeId, c: Color) {
        // ordering: see `color` — phase barriers publish, value is the
        // whole message.
        self.color[n as usize].store(c, Ordering::Relaxed);
    }

    /// Atomically recolors `n` from `from` to `to`; `true` iff this call
    /// won the claim. The visitation primitive of every BFS/DFS kernel.
    #[inline]
    pub fn cas_color(&self, n: NodeId, from: Color, to: Color) -> bool {
        // ordering: claim exclusivity is carried entirely by CAS
        // atomicity (exactly one caller sees `from`); the winner derives
        // everything it needs from its own arguments, not from data
        // published by other threads. Verified by the claim-once model
        // battery.
        self.color[n as usize]
            .compare_exchange(from, to, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// `true` iff `n` has not been resolved yet.
    #[inline]
    pub fn alive(&self, n: NodeId) -> bool {
        !self.mark.get(n as usize)
    }

    /// Allocates a fresh partition color.
    ///
    /// # Panics
    ///
    /// Panics if the 32-bit color space is exhausted (> 4.2 billion
    /// partitions — more than 10x the node limit of the `u32` node ids).
    #[inline]
    pub fn alloc_color(&self) -> Color {
        // ordering: unique-id allocator — uniqueness is RMW atomicity;
        // no ordering with any other location is implied or needed.
        let c = self.next_color.fetch_add(1, Ordering::Relaxed);
        assert!(c < COLOR_LIMIT, "partition color space exhausted");
        c
    }

    /// Allocates a fresh component id.
    #[inline]
    pub fn alloc_component(&self) -> u32 {
        // ordering: unique-id allocator, as `alloc_color`.
        self.next_comp.fetch_add(1, Ordering::Relaxed)
    }

    /// Resolves `n` as a size-1 SCC (the Trim outcome). Atomic claim:
    /// returns `false` (and does nothing) if `n` was already resolved.
    pub fn resolve_singleton(&self, n: NodeId) -> bool {
        if !self.mark.set(n as usize) {
            return false;
        }
        // ordering: the `mark` fetch_or above is the claim (atomicity);
        // `resolved` is a statistic read after kernel joins, and `comp`
        // is read only after the algorithm completes (publication by the
        // final scope join).
        self.resolved.fetch_add(1, Ordering::Relaxed);
        let c = self.alloc_component();
        self.comp[n as usize].store(c, Ordering::Relaxed);
        self.set_color(n, DONE_COLOR);
        true
    }

    /// Resolves `n` into component `comp` (an SCC found by FW∩BW).
    /// The caller must have claimed `n` (e.g. with a color CAS) so that no
    /// other thread resolves it concurrently.
    pub fn resolve_into(&self, n: NodeId, comp: u32) {
        let newly = self.mark.set(n as usize);
        debug_assert!(newly, "node {n} resolved twice");
        // ordering: caller holds the claim (color CAS); counters and comp
        // labels are published by the kernel's scope join, as in
        // `resolve_singleton`.
        self.resolved.fetch_add(1, Ordering::Relaxed);
        self.comp[n as usize].store(comp, Ordering::Relaxed);
        self.set_color(n, DONE_COLOR);
    }

    /// The unique alive same-color in-neighbor of `n`, if the effective
    /// in-degree is exactly 1.
    pub fn unique_in_neighbor(&self, n: NodeId) -> Option<NodeId> {
        self.unique_neighbor(Direction::Backward, n)
    }

    /// The unique alive same-color out-neighbor of `n`, if the effective
    /// out-degree is exactly 1.
    pub fn unique_out_neighbor(&self, n: NodeId) -> Option<NodeId> {
        self.unique_neighbor(Direction::Forward, n)
    }

    fn unique_neighbor(&self, dir: Direction, n: NodeId) -> Option<NodeId> {
        let cn = self.color(n);
        let mut found = None;
        let mut ambiguous = false;
        self.g.for_each_neighbor_while(dir, n, |k| {
            if k != n && self.color(k) == cn {
                if found.is_some() {
                    ambiguous = true;
                    return false;
                }
                found = Some(k);
            }
            true
        });
        if ambiguous {
            None
        } else {
            found
        }
    }

    /// Number of unresolved nodes (O(1) — maintained by the resolve
    /// primitives).
    pub fn count_alive(&self) -> usize {
        // ordering: called between phases (after the joins that publish
        // every resolve), never raced against in-flight resolves.
        self.num_nodes() - self.resolved.load(Ordering::Relaxed)
    }

    /// `true` while nothing is resolved and every node still has
    /// [`INITIAL_COLOR`] — the state every stock pipeline's first stage
    /// sees. Every other color comes from [`AlgoState::alloc_color`], so
    /// an untouched allocator means one color.
    pub fn is_fresh(&self) -> bool {
        // ordering: A2 — called between phases, after the joins that
        // publish every resolve and allocation.
        self.resolved.load(Ordering::Relaxed) == 0 && self.next_color.load(Ordering::Relaxed) == 1
    }

    /// The live-residue iteration domain shared by the full-sweep kernels.
    pub fn live(&self) -> &LiveSet {
        &self.live
    }

    /// The run's trim counter buffer; see [`crate::trim::par_trim`].
    pub(crate) fn trim_slots(&self) -> &Mutex<Vec<AtomicU32>> {
        &self.trim_slots
    }

    /// The alive nodes, ascending — O(candidates), i.e. O(residue) once the
    /// live set has been compacted.
    pub fn collect_alive(&self) -> Vec<NodeId> {
        self.live.par_collect(|v| self.alive(v))
    }

    /// Phase-boundary compaction point: shrinks the live set to exactly the
    /// alive nodes per `policy`. Returns whether a compaction ran.
    pub fn compact_live(&self, policy: CompactionPolicy) -> bool {
        self.live
            .maybe_compact(policy, self.count_alive(), |v| self.alive(v))
    }

    /// Number of resolved nodes.
    pub fn mark_count(&self) -> usize {
        self.mark.count_ones()
    }

    /// Groups the alive nodes by color: `(color, members)` with members
    /// ascending, colors in ascending order. This is the §4.2 "scan of
    /// non-marked nodes to construct the initial work items".
    pub fn alive_groups(&self) -> Vec<(Color, Vec<NodeId>)> {
        use rayon::prelude::*;
        let mut pairs: Vec<(Color, NodeId)> = self
            .live
            .par_filter_map(|n| self.alive(n).then(|| (self.color(n), n)));
        pairs.par_sort_unstable();
        let mut groups: Vec<(Color, Vec<NodeId>)> = Vec::new();
        for (c, n) in pairs {
            match groups.last_mut() {
                Some((gc, members)) if *gc == c => members.push(n),
                _ => groups.push((c, vec![n])),
            }
        }
        groups
    }

    /// Resolves every still-alive node with sequential Tarjan on the
    /// induced residual subgraph, assigning one fresh component per
    /// sub-SCC. Sound whenever the resolved/unresolved split respects SCC
    /// boundaries (every resolved component is a whole SCC of the input).
    /// Returns the residue size. Shared by the pipeline engine's Serial
    /// kernel and the drivers' degrade-to-sequential recovery.
    pub fn resolve_residue_sequential(&self) -> usize {
        let alive: Vec<NodeId> = self.collect_alive();
        let residue = alive.len();
        if !alive.is_empty() {
            let sub = self.g.induced_subgraph(&alive);
            let sub_scc = crate::tarjan::tarjan_scc(&sub);
            let mut comp_map = vec![u32::MAX; sub_scc.num_components()];
            for (i, &v) in alive.iter().enumerate() {
                let sc = sub_scc.component(i as u32) as usize;
                if comp_map[sc] == u32::MAX {
                    comp_map[sc] = self.alloc_component();
                }
                self.resolve_into(v, comp_map[sc]);
            }
        }
        residue
    }

    /// Finishes the run: every node must be resolved.
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if any node is unresolved.
    pub fn into_result(self) -> SccResult {
        debug_assert_eq!(self.mark_count(), self.num_nodes(), "unresolved nodes");
        // Free the trim counters before the result is built beside `comp`.
        drop(self.trim_slots);
        let raw: Vec<u32> = self.comp.into_iter().map(AtomicU32::into_inner).collect();
        debug_assert!(raw.iter().all(|&c| c != u32::MAX), "unassigned component");
        SccResult::from_assignment(raw)
    }
}

/// Per-loop round counter bounding a fixpoint iteration (see
/// [`AlgoState::watchdog`]). Call [`Watchdog::check`] once per round
/// *before* the round's work; a `Some` return means the loop must bail
/// out — either the shared token was already aborted, or this watchdog
/// just tripped it with [`AbortReason::NonConvergence`].
pub struct Watchdog<'a> {
    interrupt: &'a Interrupt,
    loop_name: &'static str,
    bound: usize,
    rounds: usize,
}

impl Watchdog<'_> {
    /// Polls the abort token and counts one round against the bound.
    pub fn check(&mut self) -> Option<AbortReason> {
        if let Some(reason) = self.interrupt.poll() {
            return Some(reason);
        }
        self.rounds += 1;
        if self.rounds > self.bound {
            self.interrupt
                .trip_non_convergence(self.loop_name, self.bound);
            // Re-read rather than assume: a concurrent abort may have won
            // the trip race, and first reason wins.
            return self.interrupt.reason();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CsrGraph {
        // 0 -> 1 -> 2 -> 0 cycle, 2 -> 3, self-loop on 3
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 3)])
    }

    #[test]
    fn fresh_state() {
        let g = tiny();
        let s = AlgoState::new(&g);
        assert_eq!(s.count_alive(), 4);
        assert!(s.alive(0));
        assert_eq!(s.color(0), INITIAL_COLOR);
    }

    #[test]
    fn freshness_ends_at_first_resolve_or_color() {
        let g = tiny();
        let s = AlgoState::new(&g);
        assert!(s.is_fresh());
        s.alloc_color();
        assert!(!s.is_fresh());
        let s = AlgoState::new(&g);
        s.resolve_singleton(3);
        assert!(!s.is_fresh());
    }

    #[test]
    fn singleton_resolution_claims_once() {
        let g = tiny();
        let s = AlgoState::new(&g);
        assert!(s.resolve_singleton(3));
        assert!(!s.resolve_singleton(3));
        assert!(!s.alive(3));
        assert_eq!(s.color(3), DONE_COLOR);
        assert_eq!(s.count_alive(), 3);
    }

    #[test]
    fn unique_neighbor_queries() {
        let g = tiny();
        let s = AlgoState::new(&g);
        assert_eq!(s.unique_in_neighbor(1), Some(0));
        assert_eq!(s.unique_out_neighbor(1), Some(2));
        assert_eq!(s.unique_in_neighbor(0), Some(2));
        // node 2 has out-nbrs {0, 3}: not unique
        assert_eq!(s.unique_out_neighbor(2), None);
        // self-loop excluded: 3's unique in-neighbor is 2
        assert_eq!(s.unique_in_neighbor(3), Some(2));
    }

    #[test]
    fn cas_color_claims() {
        let g = tiny();
        let s = AlgoState::new(&g);
        let c = s.alloc_color();
        assert!(s.cas_color(0, INITIAL_COLOR, c));
        assert!(!s.cas_color(0, INITIAL_COLOR, c));
        assert_eq!(s.color(0), c);
    }

    #[test]
    fn alive_groups_by_color() {
        let g = tiny();
        let s = AlgoState::new(&g);
        let c = s.alloc_color();
        s.set_color(1, c);
        s.set_color(3, c);
        s.resolve_singleton(0);
        let groups = s.alive_groups();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], (INITIAL_COLOR, vec![2]));
        assert_eq!(groups[1], (c, vec![1, 3]));
    }

    #[test]
    fn into_result_roundtrip() {
        let g = tiny();
        let s = AlgoState::new(&g);
        let comp = s.alloc_component();
        for n in [0u32, 1, 2] {
            s.resolve_into(n, comp);
        }
        s.resolve_singleton(3);
        let r = s.into_result();
        assert_eq!(r.num_components(), 2);
        assert!(r.same_component(0, 2));
        assert!(!r.same_component(0, 3));
    }

    #[test]
    fn live_set_tracks_alive_after_compaction() {
        let g = tiny();
        let s = AlgoState::new(&g);
        assert!(!s.live().is_sparse());
        assert_eq!(s.live().candidates(), 4);
        s.resolve_singleton(1);
        s.resolve_singleton(3);
        // lazy deletion: candidates unchanged until a compaction point
        assert_eq!(s.live().candidates(), 4);
        assert_eq!(s.collect_alive(), vec![0, 2]);
        assert!(s.compact_live(CompactionPolicy::Auto), "2 of 4 alive");
        assert!(s.live().is_sparse());
        assert_eq!(s.live().candidate_vec(), vec![0, 2]);
        assert_eq!(s.collect_alive(), vec![0, 2]);
        // Never leaves the (now sparse) set alone
        s.resolve_singleton(0);
        assert!(!s.compact_live(CompactionPolicy::Never));
        assert_eq!(s.live().candidate_vec(), vec![0, 2]);
        assert_eq!(s.collect_alive(), vec![2]);
    }

    #[test]
    fn count_alive_is_counter_backed() {
        let g = tiny();
        let s = AlgoState::new(&g);
        assert_eq!(s.count_alive(), 4);
        s.resolve_singleton(0);
        let c = s.alloc_component();
        s.resolve_into(1, c);
        assert_eq!(s.count_alive(), 2);
        assert_eq!(s.count_alive(), s.num_nodes() - s.mark_count());
    }

    #[test]
    fn alive_groups_sparse_matches_dense() {
        let g = tiny();
        let s = AlgoState::new(&g);
        let c = s.alloc_color();
        s.set_color(1, c);
        s.resolve_singleton(0);
        let dense = s.alive_groups();
        s.compact_live(CompactionPolicy::Always);
        assert_eq!(s.alive_groups(), dense);
    }

    #[test]
    fn watchdog_trips_after_bound() {
        let g = tiny();
        let s = AlgoState::with_interrupt(&g, Interrupt::new(), 2);
        let mut wd = s.watchdog("test-loop", 3); // bound = 6
        for round in 0..6 {
            assert_eq!(wd.check(), None, "round {round} within bound");
        }
        assert_eq!(wd.check(), Some(AbortReason::NonConvergence));
        assert!(s.interrupt().detail().unwrap().contains("test-loop"));
        assert!(s.should_stop());
    }

    #[test]
    fn watchdog_reports_prior_abort() {
        let g = tiny();
        let s = AlgoState::with_interrupt(&g, Interrupt::new(), 4);
        s.interrupt().cancel();
        let mut wd = s.watchdog("test-loop", 100);
        assert_eq!(wd.check(), Some(AbortReason::Cancelled));
    }

    #[test]
    fn zero_factor_trips_first_round() {
        let g = tiny();
        let s = AlgoState::with_interrupt(&g, Interrupt::new(), 0);
        let mut wd = s.watchdog("test-loop", 1000);
        assert_eq!(wd.check(), Some(AbortReason::NonConvergence));
    }

    #[test]
    fn color_allocator_is_unique() {
        let g = tiny();
        let s = AlgoState::new(&g);
        let a = s.alloc_color();
        let b = s.alloc_color();
        assert_ne!(a, b);
        assert_ne!(a, INITIAL_COLOR);
        assert_ne!(a, DONE_COLOR);
    }
}
