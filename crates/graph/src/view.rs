//! The `GraphView` seam: one neighbor-access trait under every kernel.
//!
//! The pipeline is memory-bandwidth-bound: every trim / FW-BW / WCC /
//! coloring round streams the adjacency arrays, so bytes-per-edge
//! is the dominant cost. Following the GBBS playbook (Dhulipala et al.,
//! arXiv 1805.05208), the traversal kernels are generic over this trait so
//! they run unmodified on either the raw [`CsrGraph`] or the byte-delta
//! [`crate::compressed::CompressedCsr`] backend.
//!
//! The design center is the single required streaming primitive
//! [`GraphView::for_each_neighbor_while`]: visit neighbors in ascending
//! order, stop early when the callback says so. Everything else — plain
//! iteration, the bottom-up "parent in frontier" probe, membership tests,
//! slice materialization into a caller-owned buffer — layers on it as
//! provided methods, so a backend only has to implement one zero-allocation
//! decode loop to light up every kernel. Backends with cheaper native
//! implementations (the raw CSR's slices and binary-searchable lists)
//! override the provided methods.

use crate::bfs::Direction;
use crate::csr::{CsrGraph, NodeId};

/// Per-structure heap accounting of a graph backend, split the way the
/// storage is actually laid out: row pointers (offsets), forward adjacency
/// (col_idx), reverse adjacency (the transpose), and any per-vertex side
/// arrays the backend needs (the compressed backend's degree arrays).
///
/// [`MemoryFootprint::raw_equivalent_bytes`] is what the same graph costs
/// in the raw `usize`-offset / `u32`-target CSR layout, so
/// [`MemoryFootprint::ratio_vs_raw`] reads directly as the compression
/// ratio (1.0 for the raw backend itself).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Human-readable backend name (`"csr"`, `"compressed-csr"`).
    pub backend: &'static str,
    /// Row-pointer (offset) arrays, both directions.
    pub offsets_bytes: usize,
    /// Forward adjacency payload (col_idx or the encoded byte stream).
    pub adjacency_bytes: usize,
    /// Reverse adjacency payload (the transpose's col_idx / byte stream).
    pub transpose_bytes: usize,
    /// Per-vertex side arrays (e.g. the compressed backend's degrees).
    pub side_bytes: usize,
    /// Node count, for per-node normalization.
    pub num_nodes: usize,
    /// Directed edge count, for per-edge normalization.
    pub num_edges: usize,
}

impl MemoryFootprint {
    /// Total heap bytes across all structures.
    pub fn total_bytes(&self) -> usize {
        self.offsets_bytes + self.adjacency_bytes + self.transpose_bytes + self.side_bytes
    }

    /// What the raw CSR layout (two `usize` offset arrays, two `u32`
    /// target arrays) costs for a graph of this shape.
    pub fn raw_equivalent_bytes(&self) -> usize {
        (self.num_nodes + 1) * std::mem::size_of::<usize>() * 2
            + self.num_edges * std::mem::size_of::<NodeId>() * 2
    }

    /// Total bytes divided by edge count (`f64::INFINITY` on an edgeless
    /// graph, so callers can still format it).
    pub fn bytes_per_edge(&self) -> f64 {
        self.total_bytes() as f64 / self.num_edges.max(1) as f64
    }

    /// Compression ratio against the raw CSR layout (< 1.0 means smaller
    /// than raw; the raw backend reports exactly 1.0).
    pub fn ratio_vs_raw(&self) -> f64 {
        self.total_bytes() as f64 / self.raw_equivalent_bytes().max(1) as f64
    }
}

impl std::fmt::Display for MemoryFootprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "backend {} ({} nodes, {} edges)",
            self.backend, self.num_nodes, self.num_edges
        )?;
        writeln!(
            f,
            "  offsets   {:>12} B  adjacency {:>12} B",
            self.offsets_bytes, self.adjacency_bytes
        )?;
        writeln!(
            f,
            "  transpose {:>12} B  side      {:>12} B",
            self.transpose_bytes, self.side_bytes
        )?;
        write!(
            f,
            "  total {} B ({:.2} B/edge, {:.1}% of raw CSR)",
            self.total_bytes(),
            self.bytes_per_edge(),
            self.ratio_vs_raw() * 100.0
        )
    }
}

/// Read-only neighbor access over a directed graph with forward and
/// reverse adjacency — the surface every traversal kernel consumes.
///
/// # Contract
///
/// * Neighbor lists are visited in **ascending id order** (duplicates
///   allowed, adjacent). The provided `has_edge` / `find_neighbor`
///   early-exit logic and the differential batteries rely on this.
/// * `degree(dir, n)` equals the number of callbacks
///   `for_each_neighbor_while(dir, n, ..)` would issue if never stopped.
/// * All methods are `&self` and safe to call concurrently (`Sync` bound):
///   the SCC kernels overlay atomics instead of mutating the graph.
pub trait GraphView: Sync {
    /// Number of nodes.
    fn num_nodes(&self) -> usize;

    /// Number of directed edges.
    fn num_edges(&self) -> usize;

    /// Degree of `n` in direction `dir` (out-degree for
    /// [`Direction::Forward`], in-degree for [`Direction::Backward`]).
    fn degree(&self, dir: Direction, n: NodeId) -> usize;

    /// The streaming primitive: calls `f` on each `dir`-neighbor of `n`
    /// in ascending order, stopping as soon as `f` returns `false`.
    ///
    /// This is the zero-allocation decode fast path: compressed backends
    /// decode inline per edge, so neither top-down EdgeMap expansion nor
    /// the bottom-up candidate sweep ever materializes a slice.
    fn for_each_neighbor_while(&self, dir: Direction, n: NodeId, f: impl FnMut(NodeId) -> bool);

    /// Per-structure heap accounting (see [`MemoryFootprint`]).
    fn memory_footprint(&self) -> MemoryFootprint;

    /// Out-degree of `n`.
    #[inline]
    fn out_degree(&self, n: NodeId) -> usize {
        self.degree(Direction::Forward, n)
    }

    /// In-degree of `n`.
    #[inline]
    fn in_degree(&self, n: NodeId) -> usize {
        self.degree(Direction::Backward, n)
    }

    /// Calls `f` on every `dir`-neighbor of `n`, in ascending order.
    #[inline]
    fn for_each_neighbor(&self, dir: Direction, n: NodeId, mut f: impl FnMut(NodeId)) {
        self.for_each_neighbor_while(dir, n, |v| {
            f(v);
            true
        });
    }

    /// First `dir`-neighbor of `n` satisfying `pred` (ascending order,
    /// early exit) — the bottom-up "do I have a parent in the frontier"
    /// probe.
    #[inline]
    fn find_neighbor(
        &self,
        dir: Direction,
        n: NodeId,
        mut pred: impl FnMut(NodeId) -> bool,
    ) -> Option<NodeId> {
        let mut found = None;
        self.for_each_neighbor_while(dir, n, |v| {
            if pred(v) {
                found = Some(v);
                false
            } else {
                true
            }
        });
        found
    }

    /// `true` iff the directed edge `u -> v` exists.
    ///
    /// The provided implementation is the decode-aware membership probe:
    /// an ascending-order scan that stops at the first neighbor `>= v`,
    /// so a miss on a high-degree hub costs only the prefix up to `v` and
    /// never materializes the list. Backends with random-access sorted
    /// lists (the raw CSR) override this with a binary search.
    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let mut hit = false;
        self.for_each_neighbor_while(Direction::Forward, u, |w| {
            if w >= v {
                hit = w == v;
                false
            } else {
                true
            }
        });
        hit
    }

    /// Decodes the `dir`-neighbors of `n` into `buf` (cleared first) —
    /// the chunk-granular path for callers that need a materialized
    /// slice. Reusing one buffer per worker keeps this allocation-free
    /// after warm-up.
    #[inline]
    fn copy_neighbors(&self, dir: Direction, n: NodeId, buf: &mut Vec<NodeId>) {
        buf.clear();
        self.for_each_neighbor(dir, n, |v| buf.push(v));
    }

    /// All node ids, `0..num_nodes`.
    #[inline]
    fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.num_nodes() as NodeId
    }

    /// Builds the subgraph induced by `nodes` (sorted, deduplicated, in
    /// range) as a raw [`CsrGraph`]; node `i` of the result corresponds
    /// to `nodes[i]`. Residues are small by the time anything induces
    /// them, so the result is always the raw representation.
    fn induced_subgraph(&self, nodes: &[NodeId]) -> CsrGraph {
        debug_assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "nodes must be sorted+dedup"
        );
        let mut local = vec![u32::MAX; self.num_nodes()];
        for (i, &v) in nodes.iter().enumerate() {
            local[v as usize] = i as u32;
        }
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for (i, &v) in nodes.iter().enumerate() {
            self.for_each_neighbor(Direction::Forward, v, |u| {
                let lu = local[u as usize];
                if lu != u32::MAX {
                    edges.push((i as NodeId, lu));
                }
            });
        }
        CsrGraph::from_edges(nodes.len(), &edges)
    }

    /// The raw CSR behind this view, if this *is* one — lets recovery
    /// paths (full-restart sequential Tarjan) avoid re-materializing.
    #[inline]
    fn as_csr(&self) -> Option<&CsrGraph> {
        None
    }

    /// Decodes the whole graph into a raw [`CsrGraph`] (identity clone
    /// for the raw backend). Used by recovery paths and oracles that
    /// need random-access slices.
    fn materialize_csr(&self) -> CsrGraph {
        if let Some(c) = self.as_csr() {
            return c.clone();
        }
        let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(self.num_edges());
        for u in self.nodes() {
            self.for_each_neighbor(Direction::Forward, u, |v| edges.push((u, v)));
        }
        CsrGraph::from_edges(self.num_nodes(), &edges)
    }
}

impl GraphView for CsrGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        CsrGraph::num_nodes(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        CsrGraph::num_edges(self)
    }

    #[inline]
    fn degree(&self, dir: Direction, n: NodeId) -> usize {
        dir.neighbors(self, n).len()
    }

    #[inline]
    fn for_each_neighbor_while(
        &self,
        dir: Direction,
        n: NodeId,
        mut f: impl FnMut(NodeId) -> bool,
    ) {
        for &v in dir.neighbors(self, n) {
            if !f(v) {
                return;
            }
        }
    }

    /// Binary search over the sorted slice — cheaper than the streaming
    /// probe on random-access storage.
    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        CsrGraph::has_edge(self, u, v)
    }

    fn induced_subgraph(&self, nodes: &[NodeId]) -> CsrGraph {
        CsrGraph::induced_subgraph(self, nodes)
    }

    #[inline]
    fn as_csr(&self) -> Option<&CsrGraph> {
        Some(self)
    }

    fn memory_footprint(&self) -> MemoryFootprint {
        let offset_entry = std::mem::size_of::<usize>();
        let target_entry = std::mem::size_of::<NodeId>();
        MemoryFootprint {
            backend: "csr",
            offsets_bytes: (CsrGraph::num_nodes(self) + 1) * offset_entry * 2,
            adjacency_bytes: CsrGraph::num_edges(self) * target_entry,
            transpose_bytes: CsrGraph::num_edges(self) * target_entry,
            side_bytes: 0,
            num_nodes: CsrGraph::num_nodes(self),
            num_edges: CsrGraph::num_edges(self),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])
    }

    #[test]
    fn streaming_matches_slices() {
        let g = diamond();
        for n in GraphView::nodes(&g) {
            for dir in [Direction::Forward, Direction::Backward] {
                let mut got = Vec::new();
                g.for_each_neighbor(dir, n, |v| got.push(v));
                assert_eq!(got.as_slice(), dir.neighbors(&g, n));
                assert_eq!(GraphView::degree(&g, dir, n), got.len());
            }
        }
    }

    #[test]
    fn while_variant_stops_early() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let mut seen = Vec::new();
        g.for_each_neighbor_while(Direction::Forward, 0, |v| {
            seen.push(v);
            v < 2
        });
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn find_neighbor_early_exit() {
        let g = diamond();
        assert_eq!(
            g.find_neighbor(Direction::Forward, 0, |v| v > 1),
            Some(2),
            "ascending order: first match past 1 is 2"
        );
        assert_eq!(g.find_neighbor(Direction::Forward, 3, |v| v > 0), None);
    }

    #[test]
    fn default_has_edge_probe_agrees_with_binary_search() {
        // Route around the CsrGraph override to exercise the provided
        // streaming probe itself.
        struct Probe<'a>(&'a CsrGraph);
        impl GraphView for Probe<'_> {
            fn num_nodes(&self) -> usize {
                GraphView::num_nodes(self.0)
            }
            fn num_edges(&self) -> usize {
                GraphView::num_edges(self.0)
            }
            fn degree(&self, dir: Direction, n: NodeId) -> usize {
                GraphView::degree(self.0, dir, n)
            }
            fn for_each_neighbor_while(
                &self,
                dir: Direction,
                n: NodeId,
                f: impl FnMut(NodeId) -> bool,
            ) {
                self.0.for_each_neighbor_while(dir, n, f)
            }
            fn memory_footprint(&self) -> MemoryFootprint {
                self.0.memory_footprint()
            }
        }
        let g = diamond();
        let p = Probe(&g);
        for u in 0..4u32 {
            for v in 0..4u32 {
                assert_eq!(p.has_edge(u, v), CsrGraph::has_edge(&g, u, v), "{u}->{v}");
            }
        }
    }

    #[test]
    fn copy_neighbors_reuses_buffer() {
        let g = diamond();
        let mut buf = vec![99; 8];
        g.copy_neighbors(Direction::Forward, 0, &mut buf);
        assert_eq!(buf, vec![1, 2]);
        g.copy_neighbors(Direction::Backward, 3, &mut buf);
        assert_eq!(buf, vec![1, 2]);
    }

    #[test]
    fn generic_induced_subgraph_matches_inherent() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        // Default trait body vs the CsrGraph override.
        struct Probe<'a>(&'a CsrGraph);
        impl GraphView for Probe<'_> {
            fn num_nodes(&self) -> usize {
                GraphView::num_nodes(self.0)
            }
            fn num_edges(&self) -> usize {
                GraphView::num_edges(self.0)
            }
            fn degree(&self, dir: Direction, n: NodeId) -> usize {
                GraphView::degree(self.0, dir, n)
            }
            fn for_each_neighbor_while(
                &self,
                dir: Direction,
                n: NodeId,
                f: impl FnMut(NodeId) -> bool,
            ) {
                self.0.for_each_neighbor_while(dir, n, f)
            }
            fn memory_footprint(&self) -> MemoryFootprint {
                self.0.memory_footprint()
            }
        }
        let sub_a = Probe(&g).induced_subgraph(&[1, 2, 3]);
        let sub_b = g.induced_subgraph(&[1, 2, 3]);
        let mut ea: Vec<_> = sub_a.edges().collect();
        let mut eb: Vec<_> = sub_b.edges().collect();
        ea.sort_unstable();
        eb.sort_unstable();
        assert_eq!(ea, eb);
    }

    #[test]
    fn materialize_csr_identity_for_raw() {
        let g = diamond();
        let m = GraphView::materialize_csr(&g);
        let mut a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = m.edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn raw_footprint_matches_memory_bytes() {
        let g = diamond();
        let fp = g.memory_footprint();
        assert_eq!(fp.total_bytes(), g.memory_bytes());
        assert_eq!(fp.raw_equivalent_bytes(), g.memory_bytes());
        assert!((fp.ratio_vs_raw() - 1.0).abs() < 1e-12);
        assert!(fp.to_string().contains("backend csr"));
    }
}
