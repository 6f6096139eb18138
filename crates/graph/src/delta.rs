//! Mutable delta overlay over an immutable CSR base — the graph layer of
//! the streaming subsystem (ROADMAP item 2, after Sa, arXiv 1804.01276).
//!
//! A [`DeltaGraph`] wraps any [`GraphView`] backend (raw [`CsrGraph`] or
//! byte-delta [`CompressedCsr`]) and records edge insertions and
//! deletions in per-vertex overlays: sorted insert vectors and sorted
//! tombstone vectors, one pair per touched vertex per direction. The
//! overlay itself implements [`GraphView`] — merged ascending-order
//! streaming with early stop — so every existing EdgeMap / pipeline
//! kernel runs over a mutated graph unmodified, which is the
//! entire point: incremental repair reuses the batch kernels on the
//! *current* graph without a rebuild.
//!
//! # Semantics
//!
//! The mutation API is a **set** API: inserting an edge that is live is
//! a no-op, deleting one that is absent is a no-op, and deleting an edge
//! the base stores with duplicate copies tombstones *all* copies (the
//! copy count is remembered so re-insertion restores them and the degree
//! arithmetic stays exact). Self-loop insertion is rejected as a no-op —
//! the generators' construction path drops self-loops, and they cannot
//! change an SCC partition.
//!
//! # Compaction
//!
//! [`DeltaGraph::compact`] streams base + overlay into a fresh backend
//! via [`CompactBackend::rebuild`], passes the `delta-compact` fault
//! point, and only then swaps the fields: a compaction killed at the
//! fault point leaves the old base + overlay answering exactly as
//! before, losing nothing but the rebuild work.

use crate::bfs::Direction;
use crate::compressed::CompressedCsr;
use crate::csr::{CsrGraph, NodeId};
use crate::view::{GraphView, MemoryFootprint};
use rustc_hash::FxHashMap;

/// Per-vertex, per-direction overlay: targets inserted on top of the
/// base list and base targets tombstoned out of it. Both vectors are
/// kept sorted; `removed` is the total base *copies* the tombstones
/// suppress, so `degree = base_degree - removed + ins.len()` is exact
/// even on a multigraph base.
#[derive(Clone, Debug, Default)]
struct VertexDelta {
    /// Inserted targets, sorted, disjoint from the live base list.
    ins: Vec<NodeId>,
    /// Tombstoned base targets with their base copy count, sorted.
    del: Vec<(NodeId, u32)>,
    /// Sum of tombstoned copy counts (cached for degree arithmetic).
    removed: usize,
}

impl VertexDelta {
    fn is_empty(&self) -> bool {
        self.ins.is_empty() && self.del.is_empty()
    }

    fn heap_bytes(&self) -> usize {
        self.ins.capacity() * std::mem::size_of::<NodeId>()
            + self.del.capacity() * std::mem::size_of::<(NodeId, u32)>()
    }
}

/// One direction's overlays, keyed by source vertex.
#[derive(Clone, Debug, Default)]
struct DirOverlay {
    map: FxHashMap<NodeId, VertexDelta>,
}

impl DirOverlay {
    fn get(&self, n: NodeId) -> Option<&VertexDelta> {
        self.map.get(&n)
    }

    fn entry(&mut self, n: NodeId) -> &mut VertexDelta {
        self.map.entry(n).or_default()
    }

    /// Drops `n`'s overlay if both vectors emptied out, keeping the map
    /// proportional to *live* deltas rather than historical churn.
    fn prune(&mut self, n: NodeId) {
        if self.map.get(&n).is_some_and(VertexDelta::is_empty) {
            self.map.remove(&n);
        }
    }

    fn heap_bytes(&self) -> usize {
        let entries = self.map.capacity()
            * (std::mem::size_of::<NodeId>() + std::mem::size_of::<VertexDelta>());
        entries
            + self
                .map
                .values()
                .map(VertexDelta::heap_bytes)
                .sum::<usize>()
    }
}

/// Cumulative mutation accounting of one [`DeltaGraph`], surfaced
/// through the serve daemon's `stats` verb.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Edge insertions applied (no-ops not counted).
    pub inserts: u64,
    /// Edge deletions applied (no-ops not counted).
    pub deletes: u64,
    /// Live overlay entries right now: inserted edges plus tombstoned
    /// edge groups, the number `compact` would fold away.
    pub pending: usize,
    /// Compactions committed.
    pub compactions: u64,
}

/// A backend that can rebuild itself from a merged base + overlay view —
/// the target of [`DeltaGraph::compact`].
pub trait CompactBackend: GraphView + Sized {
    /// Builds a fresh instance holding exactly the merged adjacency of
    /// `view`. Must not mutate `view`; compaction swaps the result in
    /// only after the `delta-compact` fault point passes.
    fn rebuild(view: &DeltaGraph<Self>) -> Self;
}

impl CompactBackend for CsrGraph {
    /// Exact re-encode: duplicate base copies that were never tombstoned
    /// survive compaction byte-for-byte.
    fn rebuild(view: &DeltaGraph<CsrGraph>) -> CsrGraph {
        let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(view.num_edges());
        for u in view.nodes() {
            view.for_each_neighbor(Direction::Forward, u, |v| edges.push((u, v)));
        }
        CsrGraph::from_edges(view.num_nodes(), &edges)
    }
}

impl CompactBackend for CompressedCsr {
    /// Streams the merged adjacency through the compressed backend's
    /// sharded constructor, which normalizes like the generators do
    /// (duplicates folded, self-loops dropped) — so `num_edges` is
    /// refreshed from the rebuilt base after the swap.
    fn rebuild(view: &DeltaGraph<CompressedCsr>) -> CompressedCsr {
        CompressedCsr::from_edge_stream(view.num_nodes(), 8, |emit| {
            for u in view.nodes() {
                view.for_each_neighbor(Direction::Forward, u, |v| emit(u, v));
            }
        })
    }
}

/// An immutable base graph plus mutable insert/delete overlays, itself a
/// [`GraphView`]. See the module docs for semantics and the compaction
/// protocol.
#[derive(Clone, Debug)]
pub struct DeltaGraph<G: GraphView> {
    base: G,
    fwd: DirOverlay,
    bwd: DirOverlay,
    num_edges: usize,
    stats: DeltaStats,
}

impl<G: GraphView> DeltaGraph<G> {
    /// Wraps `base` with empty overlays.
    pub fn new(base: G) -> DeltaGraph<G> {
        let num_edges = base.num_edges();
        DeltaGraph {
            base,
            fwd: DirOverlay::default(),
            bwd: DirOverlay::default(),
            num_edges,
            stats: DeltaStats::default(),
        }
    }

    /// The wrapped base backend. Kernel code should stay on the
    /// [`GraphView`] surface — reading the base directly bypasses the
    /// overlay and answers about a stale graph (the `delta-overlay` lint
    /// rule polices exactly this outside the graph crate).
    pub fn base(&self) -> &G {
        &self.base
    }

    /// Cumulative mutation counters plus the live overlay size.
    pub fn delta_stats(&self) -> DeltaStats {
        self.stats
    }

    /// Live overlay entries — the work `compact` would fold away.
    pub fn pending(&self) -> usize {
        self.stats.pending
    }

    fn in_range(&self, n: NodeId) -> bool {
        (n as usize) < self.base.num_nodes()
    }

    /// Is `u -> v` live under base + overlay? Overlay lookups first so a
    /// tombstoned base edge reads as absent and an inserted one as
    /// present without touching the base list.
    pub fn has_edge_live(&self, u: NodeId, v: NodeId) -> bool {
        if !self.in_range(u) || !self.in_range(v) {
            return false;
        }
        if let Some(d) = self.fwd.get(u) {
            if d.del.binary_search_by_key(&v, |&(t, _)| t).is_ok() {
                return false;
            }
            if d.ins.binary_search(&v).is_ok() {
                return true;
            }
        }
        self.base.has_edge(u, v)
    }

    /// Counts the base copies of `u -> v` (duplicates are adjacent by
    /// the [`GraphView`] contract, so the scan stops right after them).
    fn base_copies(&self, u: NodeId, v: NodeId) -> u32 {
        let mut copies = 0u32;
        self.base
            .for_each_neighbor_while(Direction::Forward, u, |w| {
                if w == v {
                    copies += 1;
                    true
                } else {
                    w < v
                }
            });
        copies
    }

    /// Inserts `u -> v`. Returns `false` (a no-op) if the edge is
    /// already live, either endpoint is out of range, or `u == v`.
    /// Re-inserting a tombstoned base edge lifts the tombstone,
    /// restoring the base copies it suppressed.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v || !self.in_range(u) || !self.in_range(v) {
            return false;
        }
        // Tombstone lift: the base already stores the adjacency; undoing
        // the deletion is cheaper and keeps `ins` disjoint from the base.
        if let Some(d) = self.fwd.map.get_mut(&u) {
            if let Ok(i) = d.del.binary_search_by_key(&v, |&(t, _)| t) {
                let (_, copies) = d.del.remove(i);
                d.removed -= copies as usize;
                let b = self.bwd.entry(v);
                let j = b
                    .del
                    .binary_search_by_key(&u, |&(t, _)| t)
                    .expect("tombstones are mirrored");
                b.del.remove(j);
                b.removed -= copies as usize;
                self.fwd.prune(u);
                self.bwd.prune(v);
                self.num_edges += copies as usize;
                self.stats.inserts += 1;
                self.stats.pending -= 1;
                return true;
            }
        }
        if self.has_edge_live(u, v) {
            return false;
        }
        let d = self.fwd.entry(u);
        let i = d.ins.binary_search(&v).expect_err("checked not live");
        d.ins.insert(i, v);
        let b = self.bwd.entry(v);
        let j = b.ins.binary_search(&u).expect_err("mirrored overlay");
        b.ins.insert(j, u);
        self.num_edges += 1;
        self.stats.inserts += 1;
        self.stats.pending += 1;
        true
    }

    /// Deletes `u -> v`. Returns `false` (a no-op) if the edge is not
    /// live. Deleting a base edge tombstones every base copy at once.
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.in_range(u) || !self.in_range(v) {
            return false;
        }
        if let Some(d) = self.fwd.map.get_mut(&u) {
            if d.del.binary_search_by_key(&v, |&(t, _)| t).is_ok() {
                return false; // already tombstoned
            }
            if let Ok(i) = d.ins.binary_search(&v) {
                d.ins.remove(i);
                let b = self.bwd.entry(v);
                let j = b.ins.binary_search(&u).expect("mirrored overlay");
                b.ins.remove(j);
                self.fwd.prune(u);
                self.bwd.prune(v);
                self.num_edges -= 1;
                self.stats.deletes += 1;
                self.stats.pending -= 1;
                return true;
            }
        }
        let copies = self.base_copies(u, v);
        if copies == 0 {
            return false;
        }
        let d = self.fwd.entry(u);
        let i = d
            .del
            .binary_search_by_key(&v, |&(t, _)| t)
            .expect_err("checked not tombstoned");
        d.del.insert(i, (v, copies));
        d.removed += copies as usize;
        let b = self.bwd.entry(v);
        let j = b
            .del
            .binary_search_by_key(&u, |&(t, _)| t)
            .expect_err("mirrored overlay");
        b.del.insert(j, (u, copies));
        b.removed += copies as usize;
        self.num_edges -= copies as usize;
        self.stats.deletes += 1;
        self.stats.pending += 1;
        true
    }

    fn overlay(&self, dir: Direction) -> &DirOverlay {
        match dir {
            Direction::Forward => &self.fwd,
            Direction::Backward => &self.bwd,
        }
    }
}

impl<G: CompactBackend> DeltaGraph<G> {
    /// Folds the overlay into a fresh base backend. The rebuild runs
    /// fully before the `delta-compact` fault point; a kill at the point
    /// leaves the old base + overlay untouched and still serving.
    /// Returns the number of overlay entries folded away.
    pub fn compact(&mut self) -> usize {
        let folded = self.stats.pending;
        let rebuilt = G::rebuild(self);
        // recovery: commit point — everything above is side-effect-free
        // on `self`, so a panic here (injected delta-compact fault)
        // loses only the rebuilt backend, never the serving state.
        swscc_sync::fault::point(swscc_sync::fault::DELTA_COMPACT);
        self.base = rebuilt;
        self.fwd = DirOverlay::default();
        self.bwd = DirOverlay::default();
        self.num_edges = self.base.num_edges();
        self.stats.pending = 0;
        self.stats.compactions += 1;
        folded
    }
}

impl<G: GraphView> GraphView for DeltaGraph<G> {
    fn num_nodes(&self) -> usize {
        self.base.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn degree(&self, dir: Direction, n: NodeId) -> usize {
        let base = self.base.degree(dir, n);
        match self.overlay(dir).get(n) {
            Some(d) => base - d.removed + d.ins.len(),
            None => base,
        }
    }

    fn for_each_neighbor_while(
        &self,
        dir: Direction,
        n: NodeId,
        mut f: impl FnMut(NodeId) -> bool,
    ) {
        let Some(d) = self.overlay(dir).get(n) else {
            // Untouched vertex: zero-overhead passthrough to the base
            // decode loop — the common case on a large graph.
            self.base.for_each_neighbor_while(dir, n, f);
            return;
        };
        let mut ins = d.ins.iter().copied().peekable();
        let mut del_idx = 0usize;
        let mut stopped = false;
        self.base.for_each_neighbor_while(dir, n, |v| {
            while del_idx < d.del.len() && d.del[del_idx].0 < v {
                del_idx += 1;
            }
            if del_idx < d.del.len() && d.del[del_idx].0 == v {
                return true; // tombstoned base copy: emit nothing
            }
            // `ins` is disjoint from the live base list, so strict `<`
            // drains every inserted target that precedes `v`.
            while let Some(&w) = ins.peek() {
                if w >= v {
                    break;
                }
                ins.next();
                if !f(w) {
                    stopped = true;
                    return false;
                }
            }
            if !f(v) {
                stopped = true;
                return false;
            }
            true
        });
        if !stopped {
            for w in ins {
                if !f(w) {
                    break;
                }
            }
        }
    }

    fn memory_footprint(&self) -> MemoryFootprint {
        let base = self.base.memory_footprint();
        MemoryFootprint {
            backend: "delta-overlay",
            side_bytes: base.side_bytes + self.fwd.heap_bytes() + self.bwd.heap_bytes(),
            num_edges: self.num_edges,
            ..base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> CsrGraph {
        CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (4, 5)])
    }

    fn out(g: &impl GraphView, n: NodeId) -> Vec<NodeId> {
        let mut v = Vec::new();
        g.for_each_neighbor(Direction::Forward, n, |w| v.push(w));
        v
    }

    fn inc(g: &impl GraphView, n: NodeId) -> Vec<NodeId> {
        let mut v = Vec::new();
        g.for_each_neighbor(Direction::Backward, n, |w| v.push(w));
        v
    }

    #[test]
    fn passthrough_matches_base_exactly() {
        let g = DeltaGraph::new(base());
        let b = base();
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_edges(), 7);
        for n in 0..6u32 {
            assert_eq!(out(&g, n), b.out_neighbors(n));
            assert_eq!(inc(&g, n), b.in_neighbors(n));
            assert_eq!(g.out_degree(n), b.out_neighbors(n).len());
            assert_eq!(g.in_degree(n), b.in_neighbors(n).len());
        }
    }

    #[test]
    fn insert_is_ordered_mirrored_and_idempotent() {
        let mut g = DeltaGraph::new(base());
        assert!(g.insert_edge(5, 0));
        assert!(!g.insert_edge(5, 0), "duplicate insert is a no-op");
        assert!(!g.insert_edge(0, 1), "base edge insert is a no-op");
        assert!(!g.insert_edge(3, 3), "self-loop insert is a no-op");
        assert!(!g.insert_edge(0, 99), "out of range is a no-op");
        assert_eq!(g.num_edges(), 8);
        assert_eq!(out(&g, 5), vec![0]);
        assert_eq!(inc(&g, 0), vec![2, 5]);
        assert!(g.has_edge_live(5, 0));
        assert_eq!(g.out_degree(5), 1);
        assert_eq!(g.in_degree(0), 2);
        assert_eq!(g.delta_stats().inserts, 1);
        assert_eq!(g.pending(), 1);
    }

    #[test]
    fn merged_iteration_interleaves_in_ascending_order() {
        let mut g = DeltaGraph::new(CsrGraph::from_edges(8, &[(0, 2), (0, 5)]));
        assert!(g.insert_edge(0, 1));
        assert!(g.insert_edge(0, 4));
        assert!(g.insert_edge(0, 7));
        assert_eq!(out(&g, 0), vec![1, 2, 4, 5, 7]);
        // Early stop mid-merge honors the contract on both streams.
        let mut seen = Vec::new();
        g.for_each_neighbor_while(Direction::Forward, 0, |v| {
            seen.push(v);
            v < 4
        });
        assert_eq!(seen, vec![1, 2, 4]);
    }

    #[test]
    fn delete_tombstones_base_and_retracts_inserts() {
        let mut g = DeltaGraph::new(base());
        assert!(g.delete_edge(2, 0));
        assert!(!g.delete_edge(2, 0), "double delete is a no-op");
        assert!(!g.delete_edge(0, 5), "absent edge delete is a no-op");
        assert_eq!(g.num_edges(), 6);
        assert_eq!(out(&g, 2), vec![3]);
        assert_eq!(inc(&g, 0), Vec::<NodeId>::new());
        assert!(!g.has_edge_live(2, 0));
        assert_eq!(g.out_degree(2), 1);
        // Deleting an overlay insert retracts it entirely.
        assert!(g.insert_edge(5, 1));
        assert!(g.delete_edge(5, 1));
        assert_eq!(g.num_edges(), 6);
        assert_eq!(out(&g, 5), Vec::<NodeId>::new());
        assert_eq!(g.pending(), 1, "only the tombstone remains live");
    }

    #[test]
    fn tombstone_lift_restores_base_copies() {
        // A multigraph base: two copies of 0 -> 1.
        let mut g = DeltaGraph::new(CsrGraph::from_edges(3, &[(0, 1), (0, 1), (1, 2)]));
        assert_eq!(g.num_edges(), 3);
        assert!(g.delete_edge(0, 1), "tombstones both copies");
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_degree(0), 0);
        assert!(g.insert_edge(0, 1), "lifts the tombstone");
        assert_eq!(g.num_edges(), 3, "both base copies restored");
        assert_eq!(out(&g, 0), vec![1, 1]);
        assert_eq!(g.pending(), 0, "overlay folded back to nothing");
    }

    #[test]
    fn kernels_see_the_mutated_graph_through_graphview() {
        // induced_subgraph and materialize_csr are provided GraphView
        // methods — they must observe overlay edits transparently.
        let mut g = DeltaGraph::new(base());
        g.insert_edge(5, 0);
        g.delete_edge(2, 3);
        let m = g.materialize_csr();
        assert_eq!(m.num_edges(), g.num_edges());
        assert!(m.has_edge(5, 0));
        assert!(!m.has_edge(2, 3));
        let sub = g.induced_subgraph(&[0, 1, 2, 5]);
        assert_eq!(sub.num_nodes(), 4);
        assert!(sub.has_edge(3, 0), "local(5) -> local(0) survives");
    }

    #[test]
    fn compact_folds_overlay_for_both_backends() {
        let mut g = DeltaGraph::new(base());
        g.insert_edge(5, 0);
        g.delete_edge(3, 4);
        let before = g.materialize_csr();
        assert_eq!(g.compact(), 2);
        assert_eq!(g.pending(), 0);
        assert_eq!(g.delta_stats().compactions, 1);
        assert_eq!(
            g.materialize_csr().edges().collect::<Vec<_>>(),
            before.edges().collect::<Vec<_>>()
        );

        let mut z = DeltaGraph::new(CompressedCsr::from_csr(&base()));
        z.insert_edge(5, 0);
        z.delete_edge(3, 4);
        let want = z.materialize_csr();
        z.compact();
        assert_eq!(
            z.materialize_csr().edges().collect::<Vec<_>>(),
            want.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn footprint_reports_overlay_as_side_bytes() {
        let mut g = DeltaGraph::new(base());
        let empty = g.memory_footprint();
        assert_eq!(empty.backend, "delta-overlay");
        g.insert_edge(5, 0);
        let loaded = g.memory_footprint();
        assert!(loaded.side_bytes > empty.side_bytes);
        assert_eq!(loaded.num_edges, 8);
    }
}
