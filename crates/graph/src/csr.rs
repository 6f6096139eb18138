//! Compressed sparse row (CSR) representation of a directed graph.
//!
//! The paper (§4.1) stores the graph as two flat arrays — an O(N) offset
//! array pointing into an O(M) adjacency array — because this is compact,
//! bandwidth-friendly, and ideal for traversal-heavy algorithms. SCC
//! detection needs *backward* reachability too, so [`CsrGraph`] additionally
//! keeps the reverse adjacency (in-edges) in the same format.
//!
//! The structure is immutable: the SCC algorithms never delete nodes or
//! edges; they overlay `Color`/`mark` arrays instead (paper §4.1).

use rayon::prelude::*;

/// Node identifier. 32 bits covers every instance in the paper's Table 1
/// except Friendster, whose analog here is scaled down anyway; using `u32`
/// halves the memory traffic of the adjacency arrays (perf-book: smaller
/// integers for indices).
pub type NodeId = u32;

/// A violated CSR structural invariant, reported by [`CsrGraph::validate`].
///
/// `direction` is `"out"` or `"in"` — which of the two adjacency
/// structures is broken.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CsrError {
    /// An offset array is not exactly `num_nodes + 1` entries long.
    OffsetLength {
        direction: &'static str,
        got: usize,
        want: usize,
    },
    /// An offset array does not start at 0.
    OffsetStart { direction: &'static str, got: usize },
    /// Offsets decrease at `index` (adjacency ranges must be ascending).
    NonMonotoneOffsets {
        direction: &'static str,
        index: usize,
    },
    /// The final offset disagrees with the target-array length.
    OffsetTargetMismatch {
        direction: &'static str,
        last: usize,
        targets: usize,
    },
    /// A target id at flat position `index` is `>= num_nodes`.
    TargetOutOfRange {
        direction: &'static str,
        index: usize,
        target: NodeId,
    },
    /// Forward and reverse structures disagree on the total edge count.
    EdgeCountMismatch { forward: usize, reverse: usize },
    /// Node `node`'s in-degree per the reverse structure disagrees with
    /// the number of forward edges pointing at it.
    DegreeMismatch {
        node: NodeId,
        forward: usize,
        reverse: usize,
    },
    /// Node `node`'s adjacency list is not sorted ascending — the
    /// invariant the binary-search membership probe relies on.
    UnsortedAdjacency {
        direction: &'static str,
        node: NodeId,
    },
    /// The reverse structure claims an edge `u -> v` the forward
    /// structure does not contain (detected by the membership probe).
    CrossEdgeMissing { u: NodeId, v: NodeId },
    /// A compressed degree array is not exactly `num_nodes` entries long.
    DegreeArrayLength {
        direction: &'static str,
        got: usize,
        want: usize,
    },
    /// A compressed adjacency stream for `node` is truncated, overlong,
    /// or does not decode to the declared degree.
    DecodeCorrupt {
        direction: &'static str,
        node: NodeId,
    },
}

impl std::fmt::Display for CsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsrError::OffsetLength {
                direction,
                got,
                want,
            } => write!(f, "{direction}-offset array has {got} entries, want {want}"),
            CsrError::OffsetStart { direction, got } => {
                write!(f, "{direction}-offset array starts at {got}, want 0")
            }
            CsrError::NonMonotoneOffsets { direction, index } => {
                write!(f, "{direction}-offsets decrease at index {index}")
            }
            CsrError::OffsetTargetMismatch {
                direction,
                last,
                targets,
            } => write!(
                f,
                "final {direction}-offset {last} != {direction}-target count {targets}"
            ),
            CsrError::TargetOutOfRange {
                direction,
                index,
                target,
            } => write!(
                f,
                "{direction}-target {target} at flat index {index} is out of range"
            ),
            CsrError::EdgeCountMismatch { forward, reverse } => write!(
                f,
                "forward structure has {forward} edges but reverse has {reverse}"
            ),
            CsrError::DegreeMismatch {
                node,
                forward,
                reverse,
            } => write!(
                f,
                "node {node}: {forward} forward edges point at it but reverse in-degree is {reverse}"
            ),
            CsrError::UnsortedAdjacency { direction, node } => {
                write!(f, "{direction}-adjacency of node {node} is not sorted")
            }
            CsrError::CrossEdgeMissing { u, v } => write!(
                f,
                "reverse structure claims edge {u} -> {v} but the forward structure lacks it"
            ),
            CsrError::DegreeArrayLength {
                direction,
                got,
                want,
            } => write!(f, "{direction}-degree array has {got} entries, want {want}"),
            CsrError::DecodeCorrupt { direction, node } => write!(
                f,
                "{direction}-adjacency byte stream of node {node} is corrupt"
            ),
        }
    }
}

impl std::error::Error for CsrError {}

/// An immutable directed graph in CSR form with both forward (out-edge) and
/// reverse (in-edge) adjacency.
///
/// Construction is via [`CsrGraph::from_edges`] (which tolerates duplicate
/// edges and self-loops as-is) or [`crate::builder::GraphBuilder`] (which can
/// deduplicate and filter).
///
/// # Examples
///
/// ```
/// use swscc_graph::CsrGraph;
///
/// // 0 -> 1 -> 2 -> 0 cycle plus a pendant 2 -> 3
/// let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
/// assert_eq!(g.num_nodes(), 4);
/// assert_eq!(g.num_edges(), 4);
/// assert_eq!(g.out_neighbors(2), &[0, 3]);
/// assert_eq!(g.in_neighbors(0), &[2]);
/// ```
#[derive(Clone, Debug)]
pub struct CsrGraph {
    num_nodes: usize,
    out_offsets: Vec<usize>,
    out_targets: Vec<NodeId>,
    in_offsets: Vec<usize>,
    in_targets: Vec<NodeId>,
}

impl CsrGraph {
    /// Builds a graph with `num_nodes` nodes from a directed edge list.
    ///
    /// Edges are kept exactly as given (duplicates and self-loops included);
    /// use [`crate::builder::GraphBuilder`] for filtering. Each adjacency
    /// list ends up sorted by target id, which makes neighbor lookups
    /// binary-searchable and output deterministic.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_nodes`.
    pub fn from_edges(num_nodes: usize, edges: &[(NodeId, NodeId)]) -> Self {
        for &(u, v) in edges {
            assert!(
                (u as usize) < num_nodes && (v as usize) < num_nodes,
                "edge ({u}, {v}) out of range for {num_nodes} nodes"
            );
        }
        let (out_offsets, out_targets) = build_adjacency(num_nodes, edges.iter().copied());
        let (in_offsets, in_targets) =
            build_adjacency(num_nodes, edges.iter().map(|&(u, v)| (v, u)));
        CsrGraph {
            num_nodes,
            out_offsets,
            out_targets,
            in_offsets,
            in_targets,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-neighbors of `n` (sorted by id).
    #[inline]
    pub fn out_neighbors(&self, n: NodeId) -> &[NodeId] {
        let n = n as usize;
        &self.out_targets[self.out_offsets[n]..self.out_offsets[n + 1]]
    }

    /// In-neighbors of `n` (sorted by id).
    #[inline]
    pub fn in_neighbors(&self, n: NodeId) -> &[NodeId] {
        let n = n as usize;
        &self.in_targets[self.in_offsets[n]..self.in_offsets[n + 1]]
    }

    /// Out-degree of `n`.
    #[inline]
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.out_neighbors(n).len()
    }

    /// In-degree of `n`.
    #[inline]
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.in_neighbors(n).len()
    }

    /// `true` if the directed edge `u -> v` exists (binary search, O(log d)).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all node ids `0..num_nodes`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes as NodeId
    }

    /// Parallel iterator over all node ids.
    pub fn par_nodes(&self) -> impl ParallelIterator<Item = NodeId> + '_ {
        (0..self.num_nodes as NodeId).into_par_iter()
    }

    /// Iterator over every directed edge `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Returns the transpose graph (every edge reversed). O(N+M) — it just
    /// swaps the two adjacency structures.
    pub fn transpose(&self) -> CsrGraph {
        CsrGraph {
            num_nodes: self.num_nodes,
            out_offsets: self.in_offsets.clone(),
            out_targets: self.in_targets.clone(),
            in_offsets: self.out_offsets.clone(),
            in_targets: self.out_targets.clone(),
        }
    }

    /// Builds the subgraph induced by `nodes` (which must be sorted,
    /// deduplicated, and in range). Returns the subgraph — whose node `i`
    /// corresponds to `nodes[i]` — so callers can map results back.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `nodes` is not sorted/deduplicated.
    ///
    /// # Examples
    ///
    /// ```
    /// use swscc_graph::CsrGraph;
    ///
    /// let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
    /// let sub = g.induced_subgraph(&[0, 2, 3]);
    /// assert_eq!(sub.num_nodes(), 3);
    /// // kept edges: 2->0 and 2->3 (locally 1->0 and 1->2)
    /// assert_eq!(sub.num_edges(), 2);
    /// assert!(sub.has_edge(1, 0));
    /// assert!(sub.has_edge(1, 2));
    /// ```
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> CsrGraph {
        debug_assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "nodes must be sorted+dedup"
        );
        let mut local = vec![u32::MAX; self.num_nodes];
        for (i, &v) in nodes.iter().enumerate() {
            local[v as usize] = i as u32;
        }
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for (i, &v) in nodes.iter().enumerate() {
            for &u in self.out_neighbors(v) {
                let lu = local[u as usize];
                if lu != u32::MAX {
                    edges.push((i as NodeId, lu));
                }
            }
        }
        CsrGraph::from_edges(nodes.len(), &edges)
    }

    /// Assembles a graph directly from raw CSR arrays, validating every
    /// structural invariant first (see [`CsrGraph::validate`]). This is
    /// the untrusted-input counterpart of [`CsrGraph::from_edges`]: it
    /// never panics, it returns the violated invariant instead.
    pub fn from_raw_parts(
        num_nodes: usize,
        out_offsets: Vec<usize>,
        out_targets: Vec<NodeId>,
        in_offsets: Vec<usize>,
        in_targets: Vec<NodeId>,
    ) -> Result<CsrGraph, CsrError> {
        let g = CsrGraph {
            num_nodes,
            out_offsets,
            out_targets,
            in_offsets,
            in_targets,
        };
        g.validate()?;
        Ok(g)
    }

    /// Checks every CSR structural invariant in O(N + M log d):
    ///
    /// * both offset arrays have `num_nodes + 1` entries, start at 0, are
    ///   monotone non-decreasing, and end at their target-array length;
    /// * every target id is `< num_nodes`;
    /// * every adjacency list is sorted ascending — [`CsrGraph::has_edge`]
    ///   binary-searches, so an unsorted list would make membership
    ///   probes silently miss edges;
    /// * forward and reverse structures agree — same total edge count,
    ///   per node the reverse in-degree equals the number of forward
    ///   edges pointing at the node, and (via the membership probe) every
    ///   edge the reverse structure claims exists in the forward lists.
    ///
    /// Graphs built by [`CsrGraph::from_edges`] satisfy this by
    /// construction; loaders call it as a defense-in-depth check on
    /// deserialized bytes.
    pub fn validate(&self) -> Result<(), CsrError> {
        validate_adjacency("out", self.num_nodes, &self.out_offsets, &self.out_targets)?;
        validate_adjacency("in", self.num_nodes, &self.in_offsets, &self.in_targets)?;
        if self.out_targets.len() != self.in_targets.len() {
            return Err(CsrError::EdgeCountMismatch {
                forward: self.out_targets.len(),
                reverse: self.in_targets.len(),
            });
        }
        // Per-node agreement: count the in-degree each node *should* have
        // from the forward lists and compare with the reverse ranges.
        let mut indeg = vec![0usize; self.num_nodes];
        for &v in &self.out_targets {
            indeg[v as usize] += 1;
        }
        for (n, &forward) in indeg.iter().enumerate() {
            let reverse = self.in_offsets[n + 1] - self.in_offsets[n];
            if forward != reverse {
                return Err(CsrError::DegreeMismatch {
                    node: n as NodeId,
                    forward,
                    reverse,
                });
            }
        }
        // Content agreement: every reverse entry `u ∈ in(v)` must be
        // matched by a forward edge u -> v. Sortedness was validated
        // above, so the binary-search membership probe is sound here —
        // and it never materializes or rescans a hub's full list.
        for v in 0..self.num_nodes as NodeId {
            for &u in self.in_neighbors(v) {
                if !self.has_edge(u, v) {
                    return Err(CsrError::CrossEdgeMissing { u, v });
                }
            }
        }
        Ok(())
    }

    /// Approximate heap footprint in bytes (offset + target arrays).
    pub fn memory_bytes(&self) -> usize {
        self.out_offsets.len() * std::mem::size_of::<usize>() * 2
            + self.out_targets.len() * std::mem::size_of::<NodeId>() * 2
    }
}

/// One direction's structural checks for [`CsrGraph::validate`].
fn validate_adjacency(
    direction: &'static str,
    num_nodes: usize,
    offsets: &[usize],
    targets: &[NodeId],
) -> Result<(), CsrError> {
    if offsets.len() != num_nodes + 1 {
        return Err(CsrError::OffsetLength {
            direction,
            got: offsets.len(),
            want: num_nodes + 1,
        });
    }
    if offsets[0] != 0 {
        return Err(CsrError::OffsetStart {
            direction,
            got: offsets[0],
        });
    }
    if let Some(i) = (1..offsets.len()).find(|&i| offsets[i] < offsets[i - 1]) {
        return Err(CsrError::NonMonotoneOffsets {
            direction,
            index: i,
        });
    }
    if offsets[num_nodes] != targets.len() {
        return Err(CsrError::OffsetTargetMismatch {
            direction,
            last: offsets[num_nodes],
            targets: targets.len(),
        });
    }
    if let Some((i, &t)) = targets
        .iter()
        .enumerate()
        .find(|&(_, &t)| t as usize >= num_nodes)
    {
        return Err(CsrError::TargetOutOfRange {
            direction,
            index: i,
            target: t,
        });
    }
    // Sortedness per list (non-decreasing: duplicates are legal). The
    // binary-search membership probe and the delta encoder both rely on
    // this, and `from_raw_parts` would otherwise accept lists on which
    // `has_edge` silently misses edges.
    for n in 0..num_nodes {
        let list = &targets[offsets[n]..offsets[n + 1]];
        if list.windows(2).any(|w| w[0] > w[1]) {
            return Err(CsrError::UnsortedAdjacency {
                direction,
                node: n as NodeId,
            });
        }
    }
    Ok(())
}

/// Counting-sort construction of one adjacency direction: O(N + M), no
/// per-node allocation, adjacency lists sorted by (source asc, target asc)
/// because edges are placed in two stable passes.
fn build_adjacency(
    num_nodes: usize,
    edges: impl Iterator<Item = (NodeId, NodeId)> + Clone,
) -> (Vec<usize>, Vec<NodeId>) {
    let mut offsets = vec![0usize; num_nodes + 1];
    for (u, _) in edges.clone() {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..num_nodes {
        offsets[i + 1] += offsets[i];
    }
    let mut targets = vec![0 as NodeId; offsets[num_nodes]];
    let mut cursor = offsets.clone();
    for (u, v) in edges {
        let c = &mut cursor[u as usize];
        targets[*c] = v;
        *c += 1;
    }
    // Sort each adjacency list for determinism and binary-searchability.
    sort_lists(&mut targets, &offsets);
    (offsets, targets)
}

/// Below this many targets one thread sorts every list: a worker start
/// costs tens of microseconds, more than sorting this many short lists.
const SEQ_SORT_CUTOFF: usize = 1 << 14;

/// Sorts every adjacency list `targets[offsets[i]..offsets[i + 1]]` in
/// one parallel section: the lists are cut into at most
/// `rayon::current_num_threads()` contiguous groups of about equal
/// target count, and each group is sorted by one worker. A list is
/// never split, so a hub holding most of the edges makes its group the
/// long pole; the section still starts at most one worker per thread.
fn sort_lists(targets: &mut [NodeId], offsets: &[usize]) {
    let sort_group = |data: &mut [NodeId], lists: &[usize]| {
        let base = lists[0];
        for w in lists.windows(2) {
            data[w[0] - base..w[1] - base].sort_unstable();
        }
    };
    let total = targets.len();
    // Size first: asking for the thread count can cost a cgroup read.
    let groups = if total < 2 * SEQ_SORT_CUTOFF {
        1
    } else {
        rayon::current_num_threads().min(total / SEQ_SORT_CUTOFF)
    };
    // Group g owns lists [cuts[g], cuts[g + 1]): the first list starting
    // at or after its share of the targets.
    let mut cuts = Vec::with_capacity(groups + 1);
    cuts.push(0);
    for g in 1..groups {
        let share = total * g / groups;
        let cut = offsets
            .partition_point(|&o| o < share)
            .min(offsets.len() - 1);
        cuts.push(cut.max(cuts[g - 1]));
    }
    cuts.push(offsets.len() - 1);
    // A hub list longer than one share leaves empty groups behind it.
    cuts.dedup();
    if cuts.len() <= 2 {
        // One group: sort on this thread.
        sort_group(targets, offsets);
        return;
    }
    let mut parts = Vec::with_capacity(cuts.len() - 1);
    let mut rest = targets;
    for w in cuts.windows(2) {
        let (head, tail) = rest.split_at_mut(offsets[w[1]] - offsets[w[0]]);
        parts.push((head, &offsets[w[0]..=w[1]]));
        rest = tail;
    }
    swscc_sync::thread::scope(|s| {
        let mut parts = parts.into_iter();
        let (data0, lists0) = parts.next().expect("groups >= 2");
        let handles: Vec<_> = parts
            .map(|(data, lists)| s.spawn(move || sort_group(data, lists)))
            .collect();
        sort_group(data0, lists0);
        // Group 0 ran inline, so spawned handles cover groups 1...
        for (i, h) in handles.into_iter().enumerate() {
            if let Err(payload) = h.join() {
                swscc_parallel::pool::propagate_worker_panic("adjacency sort", i + 1, payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    fn single_node_no_edges() {
        let g = CsrGraph::from_edges(1, &[]);
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.out_degree(0), 0);
        assert_eq!(g.in_degree(0), 0);
    }

    #[test]
    fn self_loop_kept() {
        let g = CsrGraph::from_edges(2, &[(0, 0), (0, 1)]);
        assert_eq!(g.out_neighbors(0), &[0, 1]);
        assert_eq!(g.in_neighbors(0), &[0]);
        assert!(g.has_edge(0, 0));
    }

    #[test]
    fn duplicate_edges_kept() {
        let g = CsrGraph::from_edges(2, &[(0, 1), (0, 1)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_neighbors(0), &[1, 1]);
        assert_eq!(g.in_neighbors(1), &[0, 0]);
    }

    #[test]
    fn adjacency_sorted() {
        let g = CsrGraph::from_edges(5, &[(0, 4), (0, 2), (0, 3), (0, 1)]);
        assert_eq!(g.out_neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn in_out_consistency() {
        let edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 3), (1, 3)];
        let g = CsrGraph::from_edges(4, &edges);
        // every out-edge appears as exactly one in-edge
        let mut outs: Vec<_> = g.edges().collect();
        let mut ins: Vec<_> = g
            .nodes()
            .flat_map(|v| g.in_neighbors(v).iter().map(move |&u| (u, v)))
            .collect();
        outs.sort_unstable();
        ins.sort_unstable();
        assert_eq!(outs, ins);
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let t = g.transpose();
        assert!(t.has_edge(1, 0));
        assert!(t.has_edge(2, 1));
        assert!(!t.has_edge(0, 1));
        assert_eq!(t.num_edges(), g.num_edges());
    }

    #[test]
    fn transpose_twice_is_identity() {
        let edges = [(0, 1), (1, 2), (2, 0), (0, 2)];
        let g = CsrGraph::from_edges(3, &edges);
        let tt = g.transpose().transpose();
        let mut a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = tt.edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        CsrGraph::from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn edges_iterator_matches_input() {
        let mut edges = vec![(3u32, 1u32), (0, 2), (1, 1), (2, 3), (0, 1)];
        let g = CsrGraph::from_edges(4, &edges);
        let mut got: Vec<_> = g.edges().collect();
        edges.sort_unstable();
        got.sort_unstable();
        assert_eq!(edges, got);
    }

    #[test]
    fn degrees_sum_to_edge_count() {
        let edges = [(0, 1), (0, 2), (1, 2), (2, 0), (2, 1), (2, 2)];
        let g = CsrGraph::from_edges(3, &edges);
        let out_sum: usize = g.nodes().map(|n| g.out_degree(n)).sum();
        let in_sum: usize = g.nodes().map(|n| g.in_degree(n)).sum();
        assert_eq!(out_sum, edges.len());
        assert_eq!(in_sum, edges.len());
    }

    #[test]
    fn large_star_graph() {
        // hub 0 -> all others; stresses the parallel range sort on one big list
        let n = 10_000u32;
        let edges: Vec<_> = (1..n).map(|v| (0, v)).collect();
        let g = CsrGraph::from_edges(n as usize, &edges);
        assert_eq!(g.out_degree(0), (n - 1) as usize);
        let nb = g.out_neighbors(0);
        assert!(nb.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(g.in_degree(1), 1);
    }

    /// Every list sorted, and every field equal at widths 1, 2 and 4:
    /// the grouped sort must not depend on where the group cuts fall.
    fn assert_width_independent(n: usize, edges: &[(NodeId, NodeId)]) {
        use crate::builder::GraphBuilder;
        use swscc_parallel::pool::with_pool;
        let fields = |g: &CsrGraph| {
            (
                g.out_offsets.clone(),
                g.out_targets.clone(),
                g.in_offsets.clone(),
                g.in_targets.clone(),
            )
        };
        let build = |w: usize| {
            with_pool(w, || {
                let mut b = GraphBuilder::new(n);
                b.extend(edges.iter().copied());
                (CsrGraph::from_edges(n, edges), b.build())
            })
        };
        let (raw1, built1) = build(1);
        raw1.validate().expect("from_edges validates");
        built1.validate().expect("builder output validates");
        for w in [2, 4] {
            let (raw, built) = build(w);
            assert!(
                fields(&raw) == fields(&raw1),
                "from_edges differs at width {w}"
            );
            assert!(
                fields(&built) == fields(&built1),
                "build differs at width {w}"
            );
        }
    }

    fn splitmix64(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn grouped_sort_is_width_independent_on_random_graphs() {
        let mut s = 0x0C5A_5087;
        for (n, m) in [(3_000u64, 70_000usize), (20_000, 90_000), (50, 40_000)] {
            let edges: Vec<_> = (0..m)
                .map(|_| {
                    let u = (splitmix64(&mut s) % n) as NodeId;
                    (u, (splitmix64(&mut s) % n) as NodeId)
                })
                .collect();
            assert_width_independent(n as usize, &edges);
        }
    }

    #[test]
    fn grouped_sort_handles_a_hub_holding_most_edges() {
        // Node 7's list holds 90% of the edges, so it swallows several
        // group shares: the cuts around it collapse into one group.
        let n = 10_000u32;
        let mut s = 0x0B0B;
        let mut edges: Vec<_> = (0..90_000u32).map(|i| (7, (i * 7919) % n)).collect();
        edges.extend((0..10_000).map(|_| {
            let u = (splitmix64(&mut s) % u64::from(n)) as NodeId;
            (u, (splitmix64(&mut s) % u64::from(n)) as NodeId)
        }));
        assert_width_independent(n as usize, &edges);
    }

    #[test]
    fn grouped_sort_handles_empty_lists_at_group_boundaries() {
        // Runs of 100 nodes alternate empty / 96 edges each, starting and
        // ending empty: 76_800 targets, so every quarter (19_200 targets,
        // two full runs) ends just before a run of empty lists.
        let n = 1_700u32;
        let edges: Vec<_> = (0..n)
            .filter(|u| (u / 100) % 2 == 1)
            .flat_map(|u| (0..96u32).map(move |k| (u, (u * 31 + k * 17) % n)))
            .collect();
        assert_eq!(edges.len(), 76_800);
        assert_width_independent(n as usize, &edges);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let sub = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(sub.num_nodes(), 3);
        let mut edges: Vec<_> = sub.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]); // 1->2, 1->3, 2->3
    }

    #[test]
    fn induced_subgraph_empty_and_full() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let empty = g.induced_subgraph(&[]);
        assert_eq!(empty.num_nodes(), 0);
        let full = g.induced_subgraph(&[0, 1, 2]);
        assert_eq!(full.num_edges(), 2);
    }

    #[test]
    fn induced_subgraph_preserves_self_loops() {
        let g = CsrGraph::from_edges(3, &[(1, 1), (0, 2)]);
        let sub = g.induced_subgraph(&[1]);
        assert_eq!(sub.num_edges(), 1);
        assert!(sub.has_edge(0, 0));
    }

    #[test]
    fn has_edge_negative() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        assert!(!g.has_edge(1, 0));
        assert!(!g.has_edge(2, 2));
    }

    #[test]
    fn memory_bytes_positive() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(g.memory_bytes() > 0);
    }

    /// `from_edges` output always validates (defense-in-depth contract).
    #[test]
    fn from_edges_always_validates() {
        for edges in [
            vec![],
            vec![(0u32, 1u32), (1, 2), (2, 0)],
            vec![(0, 0), (0, 1), (0, 1), (2, 2)],
        ] {
            let g = CsrGraph::from_edges(3, &edges);
            g.validate().expect("constructed graph must validate");
        }
    }

    /// Well-formed raw parts round-trip through `from_raw_parts`.
    #[test]
    fn from_raw_parts_accepts_valid() {
        // 0 -> 1, 1 -> 0
        let g = CsrGraph::from_raw_parts(2, vec![0, 1, 2], vec![1, 0], vec![0, 1, 2], vec![1, 0])
            .expect("valid CSR");
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
    }

    #[test]
    fn validate_rejects_wrong_offset_length() {
        let err = CsrGraph::from_raw_parts(2, vec![0, 2], vec![1, 0], vec![0, 1, 2], vec![1, 0])
            .unwrap_err();
        assert!(matches!(
            err,
            CsrError::OffsetLength {
                direction: "out",
                got: 2,
                want: 3
            }
        ));
    }

    #[test]
    fn validate_rejects_nonzero_start() {
        let err = CsrGraph::from_raw_parts(2, vec![1, 1, 2], vec![1, 0], vec![0, 1, 2], vec![1, 0])
            .unwrap_err();
        assert!(matches!(err, CsrError::OffsetStart { got: 1, .. }));
    }

    #[test]
    fn validate_rejects_non_monotone_offsets() {
        let err = CsrGraph::from_raw_parts(2, vec![0, 2, 1], vec![1, 0], vec![0, 1, 2], vec![1, 0])
            .unwrap_err();
        assert!(matches!(
            err,
            CsrError::NonMonotoneOffsets {
                direction: "out",
                index: 2
            }
        ));
    }

    #[test]
    fn validate_rejects_offset_target_disagreement() {
        let err = CsrGraph::from_raw_parts(2, vec![0, 1, 1], vec![1, 0], vec![0, 1, 2], vec![1, 0])
            .unwrap_err();
        assert!(matches!(
            err,
            CsrError::OffsetTargetMismatch {
                last: 1,
                targets: 2,
                ..
            }
        ));
    }

    #[test]
    fn validate_rejects_out_of_range_target() {
        let err = CsrGraph::from_raw_parts(2, vec![0, 1, 2], vec![1, 9], vec![0, 1, 2], vec![1, 0])
            .unwrap_err();
        assert!(matches!(
            err,
            CsrError::TargetOutOfRange {
                direction: "out",
                index: 1,
                target: 9
            }
        ));
    }

    #[test]
    fn validate_rejects_edge_count_mismatch() {
        let err = CsrGraph::from_raw_parts(2, vec![0, 1, 2], vec![1, 0], vec![0, 0, 1], vec![1])
            .unwrap_err();
        assert!(matches!(
            err,
            CsrError::EdgeCountMismatch {
                forward: 2,
                reverse: 1
            }
        ));
    }

    #[test]
    fn validate_rejects_unsorted_adjacency() {
        // out-list of node 0 is [2, 1]: shape-valid but unsorted, which
        // would silently break the binary-search membership probe.
        let err = CsrGraph::from_raw_parts(
            3,
            vec![0, 2, 2, 2],
            vec![2, 1],
            vec![0, 0, 1, 2],
            vec![0, 0],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CsrError::UnsortedAdjacency {
                direction: "out",
                node: 0
            }
        ));
    }

    #[test]
    fn validate_rejects_cross_edge_mismatch() {
        // Forward: 0 -> 1, 0 -> 2. Reverse claims in(1) = [2] — counts
        // per node agree (one each), but 2 -> 1 does not exist forward.
        // Only the membership probe catches this.
        let err = CsrGraph::from_raw_parts(
            3,
            vec![0, 2, 2, 2],
            vec![1, 2],
            vec![0, 0, 1, 2],
            vec![2, 0],
        )
        .unwrap_err();
        assert!(matches!(err, CsrError::CrossEdgeMissing { u: 2, v: 1 }));
    }

    #[test]
    fn validate_rejects_forward_reverse_degree_disagreement() {
        // Forward says 0 -> 1 and 1 -> 0; reverse claims both in-edges
        // land on node 1.
        let err = CsrGraph::from_raw_parts(2, vec![0, 1, 2], vec![1, 0], vec![0, 0, 2], vec![0, 1])
            .unwrap_err();
        assert!(matches!(err, CsrError::DegreeMismatch { node: 0, .. }));
    }
}
