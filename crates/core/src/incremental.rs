//! Incremental SCC maintenance over a [`DeltaGraph`] — the dynamic
//! condensation engine (ROADMAP item 2, after Sa, arXiv 1804.01276).
//!
//! The engine keeps four things in lockstep with a stream of edge
//! mutations: a per-node component label, the member list of every
//! component, a **topological position** per component — a sparse
//! `u64` rank over the condensation DAG with wide gaps, so local edits
//! rarely renumber anything outside the touched region — and the
//! condensation DAG itself. Labels, positions and the condensation are
//! the copy-on-write structures of [`crate::shared`], which every
//! published [`SccSnapshot`] shares. The maintenance algebra per
//! mutation:
//!
//! * **Insert, in order** (`pos[scc(u)] < pos[scc(v)]`, or intra-SCC):
//!   the current order already proves acyclicity — O(1); only the
//!   condensation overlay records the new edge.
//! * **Insert, back edge**: bounded bidirectional discovery on the
//!   condensation, restricted to the position window
//!   `[pos[scc(v)], pos[scc(u)]]` (the Pearce–Kelly affected region,
//!   arXiv cs/0608010 applied at SCC granularity): forward from `v`,
//!   backward from `u`, expanding whole components via their member
//!   lists. The intersection is the merge set — collapsed into its
//!   largest component, whose condensation edges stay put while the
//!   others' move onto it — and the region's positions are reassigned
//!   B-side from the bottom of the old position pool, F-side from the
//!   top, which preserves every constraint against untouched components
//!   (B-side never moves up, F-side never moves down, and edges from
//!   outside the window are outside the pool's range entirely).
//! * **Delete, cross-component**: removing a graph edge between
//!   components cannot create a cycle or break the order. The
//!   condensation edge goes only with the last graph edge between the
//!   two components, found by scanning the smaller one's adjacency.
//! * **Delete, intra-component**: deleting `u -> v` from component `C`
//!   leaves `C` strongly connected exactly when `u` still reaches `v`
//!   inside `C` — a path that leaves `C` cannot come back, because `C`
//!   was maximal and a delete adds no reachability. A self-loop delete
//!   therefore survives in O(1); any other runs a bidirectional BFS
//!   over `C`'s nodes (forward from `u`, backward from `v`, smaller
//!   frontier first, visit marks in an engine-owned stamp array),
//!   capped at the residue limit. When the sides meet, the delete is
//!   *certified*: nothing but the graph overlay changes. When a side
//!   runs dry (a split is proven) or the cap is hit, the owning SCC is
//!   dirty: its members are extracted as a local residue subgraph and
//!   the stock pipeline re-runs on that residue only (the same
//!   LiveSet-restricted kernels as a batch run, on a |residue|-sized
//!   input); a split allocates fresh labels and packs the parts, in
//!   residue topological order, into the position gap the old
//!   component occupied, and replaces the old component's condensation
//!   edges with the parts'.
//!
//! Any mutation whose affected region exceeds
//! [`SccConfig::incremental_residue_limit`] degrades to a full rebuild —
//! correctness never depends on the bound, only the work ceiling.
//!
//! # Failure containment
//!
//! The back-edge merge passes the `incr-merge` fault point *after*
//! discovery and *before* the first label write, so a kill there leaves
//! the partition state exactly as it was. The serve layer catches the
//! panic, marks the engine poisoned ([`IncrementalEngine::poison`]), and
//! the next operation heals through a full rebuild over the (already
//! mutated) graph. The previous epoch keeps serving throughout.

use crate::config::SccConfig;
use crate::error::{RunGuard, SccError};
use crate::pipeline::{run_pipeline, Pipeline};
use crate::shared::{topo_ranks, POS_GAP};
use crate::snapshot::SccSnapshot;
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::BTreeSet;
use swscc_graph::bfs::Direction;
use swscc_graph::delta::CompactBackend;
use swscc_graph::{CsrGraph, DeltaGraph, GraphView, NodeId};
use swscc_sync::fault;

/// What one mutation did to the partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationOutcome {
    /// The edge was already live / already absent / out of range — the
    /// graph and the partition are untouched.
    Noop,
    /// O(1) fast path: the mutation could not change any component
    /// (in-order insert, intra-SCC insert, cross-component delete).
    InOrder,
    /// A back edge that created no cycle; the affected region's
    /// topological positions were reassigned (Pearce–Kelly), components
    /// unchanged.
    Reordered,
    /// A back edge closed a cycle; `merged` components collapsed into
    /// one.
    Merged {
        /// Components folded together (≥ 2).
        merged: usize,
    },
    /// An intra-SCC delete: the component survived intact (`parts` = 1,
    /// certified by the reachability check or by a residue re-run) or
    /// the residue re-run split it into `parts`.
    Repaired {
        /// Components the residue resolved into.
        parts: usize,
    },
    /// The affected region exceeded the residue limit (or the engine was
    /// healing from a poisoned state): full recompute over the current
    /// graph.
    Rebuilt,
}

/// Cumulative per-path counters, surfaced through the serve `stats` verb.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// O(1) mutations (in-order inserts + cross-component deletes).
    pub in_order: u64,
    /// Back-edge inserts that only reordered positions.
    pub reorders: u64,
    /// Back-edge inserts that merged components.
    pub merges: u64,
    /// Intra-SCC deletes the reachability check settled: `u` still
    /// reaches `v` inside the component, so nothing was re-run.
    pub certified: u64,
    /// Intra-SCC deletes that re-ran the pipeline on the residue (the
    /// check proved a split or ran out of budget).
    pub dirty_repairs: u64,
    /// Repairs that actually split the component.
    pub splits: u64,
    /// Degradations to a full rebuild (limit breach or healing).
    pub full_rebuilds: u64,
}

/// One edge mutation, the unit the serve layer batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Insert the directed edge `u -> v`.
    Insert(NodeId, NodeId),
    /// Delete the directed edge `u -> v`.
    Delete(NodeId, NodeId),
}

/// The maintenance engine: a mutable [`DeltaGraph`] plus the maintained
/// partition, condensation and topological order. See the module docs
/// for the algorithm; [`IncrementalEngine::snapshot`] publishes the
/// maintained state as the same [`SccSnapshot`] the batch path builds,
/// sharing every page and the condensation base with the epoch before.
pub struct IncrementalEngine<G: CompactBackend> {
    graph: DeltaGraph<G>,
    pipeline: Pipeline,
    cfg: SccConfig,
    /// Labels (node -> component id, not dense), positions (component
    /// id -> topological position) and the condensation: the state the
    /// next snapshot publishes. Writes go through its copy-on-write
    /// pages and overlay, so published epochs never see them.
    view: SccSnapshot,
    /// Members of every live component.
    members: FxHashMap<u32, Vec<NodeId>>,
    /// Occupied topological positions (unique), for gap queries.
    occupied: BTreeSet<u64>,
    /// Size of the component-id space: the next fresh id.
    next_label: u32,
    /// Set by [`IncrementalEngine::poison`] after a caught mid-merge
    /// panic: the graph holds a mutation the partition does not reflect,
    /// so the next operation must rebuild first.
    poisoned: bool,
    counters: EngineCounters,
    /// Visit marks and frontiers of the intra-SCC delete check.
    survival: SurvivalScratch,
}

/// Reusable state of [`IncrementalEngine::still_reaches`], kept between
/// deletes so a delete the check settles allocates nothing once the
/// arrays fit.
#[derive(Default)]
struct SurvivalScratch {
    /// `stamps[n] == current` marks node `n` reached forward from `u`,
    /// `current + 1` reached backward from `v`; older values are stale.
    stamps: Vec<u32>,
    current: u32,
    /// Current levels of the forward (0) and backward (1) sides.
    frontier: [Vec<NodeId>; 2],
    /// The level being built.
    next: Vec<NodeId>,
}

impl<G: CompactBackend> IncrementalEngine<G> {
    /// Builds the engine with an initial full run of `pipeline` over
    /// `graph`.
    pub fn new(
        graph: DeltaGraph<G>,
        pipeline: Pipeline,
        cfg: SccConfig,
        guard: &RunGuard,
    ) -> Result<IncrementalEngine<G>, SccError> {
        let (result, _report) = run_pipeline(&graph, &pipeline, &cfg, guard)?;
        guard.check()?;
        let view = SccSnapshot::from_result(&graph, result);
        let mut engine = IncrementalEngine {
            graph,
            pipeline,
            cfg,
            view,
            members: FxHashMap::default(),
            occupied: BTreeSet::new(),
            next_label: 0,
            poisoned: false,
            counters: EngineCounters::default(),
            survival: SurvivalScratch::default(),
        };
        engine.index_view();
        Ok(engine)
    }

    /// The maintained graph (base + live overlay).
    pub fn graph(&self) -> &DeltaGraph<G> {
        &self.graph
    }

    /// Cumulative path counters.
    pub fn counters(&self) -> EngineCounters {
        self.counters
    }

    /// Number of components in the maintained partition.
    pub fn num_components(&self) -> usize {
        self.members.len()
    }

    /// Marks the partition out of sync with the graph — called by the
    /// serve layer after catching a mid-merge panic. The next mutation
    /// (or explicit [`IncrementalEngine::rebuild`]) heals via a full
    /// recompute; queries keep being served from the previous epoch.
    pub fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Whether the engine needs a healing rebuild.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Applies one mutation, maintaining the partition.
    pub fn apply(&mut self, m: Mutation, guard: &RunGuard) -> Result<MutationOutcome, SccError> {
        match m {
            Mutation::Insert(u, v) => self.insert_edge(u, v, guard),
            Mutation::Delete(u, v) => self.delete_edge(u, v, guard),
        }
    }

    /// Inserts `u -> v` and repairs the partition. Any error (deadline,
    /// cancellation, pipeline failure) leaves the engine poisoned: the
    /// graph may already hold the edge the partition does not reflect,
    /// so the next operation heals by full rebuild first.
    pub fn insert_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        guard: &RunGuard,
    ) -> Result<MutationOutcome, SccError> {
        let r = self.insert_impl(u, v, guard);
        if r.is_err() {
            self.poisoned = true;
        }
        r
    }

    fn label(&self, u: NodeId) -> u32 {
        self.view.labels.get(u as usize)
    }

    fn pos(&self, c: u32) -> u64 {
        self.view.positions.get(c as usize)
    }

    fn insert_impl(
        &mut self,
        u: NodeId,
        v: NodeId,
        guard: &RunGuard,
    ) -> Result<MutationOutcome, SccError> {
        self.heal(guard)?;
        if !self.graph.insert_edge(u, v) {
            return Ok(MutationOutcome::Noop);
        }
        let cu = self.label(u);
        let cv = self.label(v);
        if cu == cv {
            self.counters.in_order += 1;
            return Ok(MutationOutcome::InOrder);
        }
        if self.pos(cu) < self.pos(cv) {
            // The current order already witnesses acyclicity of the new
            // condensation edge — record the edge, nothing else.
            self.view.condensation.insert_edge(cu, cv);
            self.counters.in_order += 1;
            return Ok(MutationOutcome::InOrder);
        }
        self.back_edge(cu, cv, guard)
    }

    /// Deletes `u -> v` and repairs the partition. Errors poison the
    /// engine — see [`IncrementalEngine::insert_edge`].
    pub fn delete_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        guard: &RunGuard,
    ) -> Result<MutationOutcome, SccError> {
        let r = self.delete_impl(u, v, guard);
        if r.is_err() {
            self.poisoned = true;
        }
        r
    }

    fn delete_impl(
        &mut self,
        u: NodeId,
        v: NodeId,
        guard: &RunGuard,
    ) -> Result<MutationOutcome, SccError> {
        self.heal(guard)?;
        if !self.graph.delete_edge(u, v) {
            return Ok(MutationOutcome::Noop);
        }
        let cu = self.label(u);
        let cv = self.label(v);
        if cu != cv {
            // Dropping a graph edge between components can neither
            // create a cycle nor invalidate the order; the condensation
            // edge goes only with the last graph edge behind it.
            if !self.connected(cu, cv) {
                self.view.condensation.remove_edge(cu, cv);
            }
            self.counters.in_order += 1;
            return Ok(MutationOutcome::InOrder);
        }
        if u == v || self.still_reaches(u, v, cu, guard)? {
            self.counters.certified += 1;
            return Ok(MutationOutcome::Repaired { parts: 1 });
        }
        self.repair_dirty(cu, guard)
    }

    /// Whether `u` still reaches `v` through nodes of component `c` —
    /// after deleting `u -> v` from `c`, exactly whether `c` survives.
    /// Bidirectional BFS, forward from `u` and backward from `v`,
    /// expanding the smaller frontier one level at a time and polling
    /// `guard` once per level. `false` when a side runs dry (the split
    /// is proven) or the residue limit's worth of nodes is visited
    /// before the sides meet; the caller then re-runs the residue.
    fn still_reaches(
        &mut self,
        u: NodeId,
        v: NodeId,
        c: u32,
        guard: &RunGuard,
    ) -> Result<bool, SccError> {
        let limit = self.cfg.incremental_residue_limit.max(1);
        let Self {
            graph,
            view,
            survival: s,
            ..
        } = self;
        if s.stamps.len() < graph.num_nodes() {
            s.stamps.resize(graph.num_nodes(), 0);
        }
        // Two fresh marks per search; a wrap clears the array for real.
        if s.current >= u32::MAX - 2 {
            s.stamps.fill(0);
            s.current = 0;
        }
        s.current += 2;
        let marks = [s.current, s.current + 1];
        s.stamps[u as usize] = marks[0];
        s.stamps[v as usize] = marks[1];
        for (side, start) in [u, v].into_iter().enumerate() {
            s.frontier[side].clear();
            s.frontier[side].push(start);
        }
        let mut visited = 2usize;
        loop {
            guard.check()?;
            let side = usize::from(s.frontier[1].len() < s.frontier[0].len());
            if s.frontier[side].is_empty() {
                return Ok(false);
            }
            let dir = [Direction::Forward, Direction::Backward][side];
            let (mine, theirs) = (marks[side], marks[1 - side]);
            let (mut met, mut over) = (false, false);
            s.next.clear();
            for &x in &s.frontier[side] {
                graph.for_each_neighbor_while(dir, x, |w| {
                    let stamp = &mut s.stamps[w as usize];
                    if *stamp == theirs {
                        met = true;
                        return false;
                    }
                    if *stamp != mine && view.labels.get(w as usize) == c {
                        *stamp = mine;
                        s.next.push(w);
                        visited += 1;
                        over = visited > limit;
                    }
                    !over
                });
                if met || over {
                    return Ok(met);
                }
            }
            std::mem::swap(&mut s.frontier[side], &mut s.next);
        }
    }

    /// Whether some graph edge still runs from component `a` to `b`,
    /// scanning the smaller component's adjacency (out-edges of `a` or
    /// in-edges of `b`).
    fn connected(&self, a: u32, b: u32) -> bool {
        let (scan, dir, want) = if self.members[&a].len() <= self.members[&b].len() {
            (a, Direction::Forward, b)
        } else {
            (b, Direction::Backward, a)
        };
        self.members[&scan].iter().any(|&m| {
            self.graph
                .find_neighbor(dir, m, |w| self.label(w) == want)
                .is_some()
        })
    }

    /// Folds the delta overlay into a fresh base backend, then the
    /// condensation overlay into a fresh condensation base (labels and
    /// positions are adjacency-preserving, so the partition is
    /// untouched). Returns the graph overlay entries folded away.
    pub fn compact(&mut self) -> usize {
        let folded = self.graph.compact();
        self.view.condensation.fold();
        folded
    }

    /// Overlay entries [`IncrementalEngine::compact`] would fold: the
    /// larger of the graph delta overlay and the condensation overlay.
    pub fn backlog(&self) -> usize {
        self.graph.pending().max(self.view.condensation.pending())
    }

    /// Full recompute over the current graph — the admin `recompute`
    /// verb, and the healing path.
    pub fn rebuild(&mut self, guard: &RunGuard) -> Result<(), SccError> {
        self.counters.full_rebuilds += 1;
        self.rebuild_state(guard)
    }

    /// Publishes the maintained partition as the batch-path snapshot
    /// type. O(N / [`PAGE`](crate::shared::PAGE)): the label and
    /// position pages and the condensation are shared, not copied.
    pub fn snapshot(&self, guard: &RunGuard) -> Result<SccSnapshot, SccError> {
        guard.check()?;
        let mut snapshot = self.view.clone();
        snapshot.num_components = self.members.len();
        snapshot.num_edges = self.graph.num_edges();
        Ok(snapshot)
    }

    fn heal(&mut self, guard: &RunGuard) -> Result<(), SccError> {
        if self.poisoned {
            self.counters.full_rebuilds += 1;
            self.rebuild_state(guard)?;
        }
        Ok(())
    }

    fn degrade(&mut self, guard: &RunGuard) -> Result<MutationOutcome, SccError> {
        self.counters.full_rebuilds += 1;
        self.rebuild_state(guard)?;
        Ok(MutationOutcome::Rebuilt)
    }

    /// Recomputes labels, members, condensation and gapped topological
    /// positions from scratch. Poison is set on entry and cleared only
    /// on success, so a failed rebuild leaves the engine demanding
    /// another heal instead of serving a half-written partition.
    fn rebuild_state(&mut self, guard: &RunGuard) -> Result<(), SccError> {
        self.poisoned = true;
        let (result, _report) = run_pipeline(&self.graph, &self.pipeline, &self.cfg, guard)?;
        guard.check()?;
        self.view = SccSnapshot::from_result(&self.graph, result);
        self.index_view();
        self.poisoned = false;
        Ok(())
    }

    /// Derives members, occupied positions and the id space from a
    /// freshly built (dense) view.
    fn index_view(&mut self) {
        let view = &self.view;
        self.next_label = view.num_components as u32;
        self.members.clear();
        self.occupied = (0..view.num_components)
            .map(|c| view.positions.get(c))
            .collect();
        for n in 0..view.labels.len() {
            self.members
                .entry(view.labels.get(n))
                .or_default()
                .push(n as NodeId);
        }
    }

    /// Component-granular reachability sweep restricted to the position
    /// window `[lb, ub]`, expanding whole components via member lists.
    /// Returns `None` when the visited-vertex budget is exhausted.
    fn window_search(
        &self,
        start: u32,
        lb: u64,
        ub: u64,
        dir: Direction,
        limit: usize,
        guard: &RunGuard,
    ) -> Result<Option<FxHashSet<u32>>, SccError> {
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        seen.insert(start);
        let mut stack = vec![start];
        let mut budget = 0usize;
        while let Some(c) = stack.pop() {
            guard.check()?;
            let members = &self.members[&c];
            budget += members.len();
            if budget > limit {
                return Ok(None);
            }
            for &m in members {
                self.graph.for_each_neighbor(dir, m, |w| {
                    let cw = self.label(w);
                    if !seen.contains(&cw) && (lb..=ub).contains(&self.pos(cw)) {
                        seen.insert(cw);
                        stack.push(cw);
                    }
                });
            }
        }
        Ok(Some(seen))
    }

    /// The Pearce–Kelly affected-region pass for an order-violating
    /// insert `scc(u)=cu -> scc(v)=cv` with `pos[cu] > pos[cv]`: discover
    /// forward/backward regions, collapse the cycle set if there is one,
    /// reassign the region's positions from its own old position pool.
    fn back_edge(
        &mut self,
        cu: u32,
        cv: u32,
        guard: &RunGuard,
    ) -> Result<MutationOutcome, SccError> {
        let lb = self.pos(cv);
        let ub = self.pos(cu);
        let limit = self.cfg.incremental_residue_limit.max(1);
        let Some(rf) = self.window_search(cv, lb, ub, Direction::Forward, limit, guard)? else {
            return self.degrade(guard);
        };
        let Some(rb) = self.window_search(cu, lb, ub, Direction::Backward, limit, guard)? else {
            return self.degrade(guard);
        };
        // Merge set: components on some v ->* u path (cv ->* C ->* cu).
        let merge: Vec<u32> = rf.intersection(&rb).copied().collect();
        let mut b_side: Vec<u32> = rb.difference(&rf).copied().collect();
        let mut f_side: Vec<u32> = rf.difference(&rb).copied().collect();
        b_side.sort_unstable_by_key(|&c| self.pos(c));
        f_side.sort_unstable_by_key(|&c| self.pos(c));
        let mut pool: Vec<u64> = rf.union(&rb).map(|&c| self.pos(c)).collect();
        pool.sort_unstable();

        let merged = merge.len();
        // The largest merged component keeps its id, so the fewest
        // labels (and label pages) change.
        let rep = merge
            .iter()
            .copied()
            .max_by_key(|c| (self.members[c].len(), *c))
            .unwrap_or(cu);
        if merged > 0 {
            // recovery: commit point of the merge — discovery above is
            // read-only, every write happens below, so a kill here
            // (injected incr-merge fault) leaves the maintained
            // partition untouched; the serve layer poisons the engine
            // and heals by rebuild while the old epoch keeps serving.
            fault::point(fault::INCR_MERGE);
            self.merge_condensation(&merge, rep);
            let mut absorbed: Vec<NodeId> = Vec::new();
            for &c in &merge {
                if c == rep {
                    continue;
                }
                let members = self.members.remove(&c).expect("merge set is live");
                for &m in &members {
                    self.view.labels.set(m as usize, rep);
                }
                absorbed.extend(members);
            }
            self.members
                .get_mut(&rep)
                .expect("representative is live")
                .extend(absorbed);
        }
        // Reassign: B-side packs the bottom of the pool (never moves
        // up), F-side packs the top (never moves down), the merged
        // component sits between them; leftover middle values retire
        // with the components they belonged to.
        for &p in &pool {
            self.occupied.remove(&p);
        }
        let nf = f_side.len();
        for (i, &c) in b_side.iter().enumerate() {
            self.set_pos(c, pool[i]);
        }
        if merged > 0 {
            self.set_pos(rep, pool[b_side.len()]);
        }
        for (i, &c) in f_side.iter().enumerate() {
            self.set_pos(c, pool[pool.len() - nf + i]);
        }
        if merged > 0 {
            self.counters.merges += 1;
            Ok(MutationOutcome::Merged { merged })
        } else {
            self.view.condensation.insert_edge(cu, cv);
            self.counters.reorders += 1;
            Ok(MutationOutcome::Reordered)
        }
    }

    /// Moves every condensation edge of the merge set onto `rep`, and
    /// drops the edges inside the set. Costs the condensation degree of
    /// the merged-away components — at most the adjacency the window
    /// searches already walked — and touches only the overlay.
    fn merge_condensation(&mut self, merge: &[u32], rep: u32) {
        let in_merge: FxHashSet<u32> = merge.iter().copied().collect();
        let cond = &mut self.view.condensation;
        let (mut drop, mut add) = (Vec::new(), Vec::new());
        for &c in merge.iter().filter(|&&c| c != rep) {
            cond.for_each_successor_while(c, |w| {
                drop.push((c, w));
                if !in_merge.contains(&w) {
                    add.push((rep, w));
                }
                true
            });
            cond.for_each_predecessor(c, |x| {
                // Edges from another merged-away component were dropped
                // as its successors.
                if x == rep || !in_merge.contains(&x) {
                    drop.push((x, c));
                }
                if !in_merge.contains(&x) {
                    add.push((x, rep));
                }
            });
        }
        for (a, b) in drop {
            cond.remove_edge(a, b);
        }
        for (a, b) in add {
            cond.insert_edge(a, b);
        }
    }

    fn set_pos(&mut self, c: u32, pos: u64) {
        if self.pos(c) != pos {
            self.view.positions.set(c as usize, pos);
        }
        self.occupied.insert(pos);
    }

    /// Intra-SCC delete the reachability check could not certify:
    /// re-run the stock pipeline on the dirty component's residue only,
    /// then relabel and re-position any split parts inside the gap the
    /// old component occupied.
    fn repair_dirty(&mut self, c: u32, guard: &RunGuard) -> Result<MutationOutcome, SccError> {
        let limit = self.cfg.incremental_residue_limit.max(1);
        if self.members[&c].len() > limit {
            return self.degrade(guard);
        }
        self.counters.dirty_repairs += 1;
        let members = self.members[&c].clone();
        // Residue extraction stays O(|residue| + residue edges): a local
        // id map instead of an O(N) scatter array.
        let mut local: FxHashMap<NodeId, u32> = FxHashMap::default();
        for (i, &m) in members.iter().enumerate() {
            local.insert(m, i as u32);
        }
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for (i, &m) in members.iter().enumerate() {
            guard.check()?;
            self.graph.for_each_neighbor(Direction::Forward, m, |w| {
                if let Some(&lw) = local.get(&w) {
                    edges.push((i as NodeId, lw));
                }
            });
        }
        let residue = CsrGraph::from_edges(members.len(), &edges);
        let (sub, _report) = run_pipeline(&residue, &self.pipeline, &self.cfg, guard)?;
        let parts = sub.num_components();
        if parts == 1 {
            // The SCC survived the deletion intact; only a check that ran
            // out of budget gets here.
            return Ok(MutationOutcome::Repaired { parts: 1 });
        }
        self.counters.splits += 1;
        // Order the parts among themselves and pack them into the open
        // position interval around the old component's position — every
        // constraint against outside components held at the old position
        // and keeps holding anywhere strictly inside its gap.
        let ranks = topo_ranks(&sub.condensation_view(&residue));
        let (lo, hi) = self.gap_for(c, parts as u64);
        let step = (hi - lo) / (parts as u64 + 1);
        self.occupied.remove(&self.pos(c));
        self.members.remove(&c);
        // The largest part keeps the old id, so the fewest labels (and
        // label pages) change; the rest get fresh ids at the end of the
        // id space, in rank order.
        let mut sizes = vec![0usize; parts];
        for i in 0..members.len() {
            sizes[ranks[sub.component(i as NodeId) as usize] as usize] += 1;
        }
        let keep = (0..parts).max_by_key(|&r| sizes[r]).expect("parts > 1");
        let mut fresh = self.next_label..;
        let part_label: Vec<u32> = (0..parts)
            .map(|r| {
                if r == keep {
                    c
                } else {
                    fresh.next().expect("open range")
                }
            })
            .collect();
        self.next_label += parts as u32 - 1;
        self.view.positions.grow(self.next_label as usize);
        for (r, &label) in part_label.iter().enumerate() {
            self.set_pos(label, lo + step * (r as u64 + 1));
            self.members.insert(label, Vec::new());
        }
        for (i, &m) in members.iter().enumerate() {
            let label = part_label[ranks[sub.component(i as NodeId) as usize] as usize];
            if label != c {
                self.view.labels.set(m as usize, label);
            }
            self.members.get_mut(&label).expect("just inserted").push(m);
        }
        self.split_condensation(c, &members, &local);
        Ok(MutationOutcome::Repaired { parts })
    }

    /// Replaces the condensation edges of the split component `c` with
    /// those of its parts, read off the members' adjacency (members
    /// already carry their part labels; `local` holds every member).
    /// Costs c's condensation degree plus the members' degrees, and
    /// touches only the overlay.
    fn split_condensation(&mut self, c: u32, members: &[NodeId], local: &FxHashMap<NodeId, u32>) {
        let (mut drop, mut add) = (Vec::new(), Vec::new());
        let cond = &self.view.condensation;
        cond.for_each_successor_while(c, |w| {
            drop.push((c, w));
            true
        });
        cond.for_each_predecessor(c, |x| drop.push((x, c)));
        for &m in members {
            let lm = self.label(m);
            self.graph.for_each_neighbor(Direction::Forward, m, |w| {
                let lw = self.label(w);
                if lw != lm {
                    add.push((lm, lw));
                }
            });
            // In-edges from other parts are some member's out-edges.
            self.graph.for_each_neighbor(Direction::Backward, m, |w| {
                if !local.contains_key(&w) {
                    add.push((self.label(w), lm));
                }
            });
        }
        let cond = &mut self.view.condensation;
        cond.grow_ids(self.next_label as usize);
        for (a, b) in drop {
            cond.remove_edge(a, b);
        }
        for (a, b) in add {
            cond.insert_edge(a, b);
        }
    }

    /// Open interval around component `c`'s position, between its
    /// neighboring occupied positions, with room for `need` distinct
    /// values strictly inside (`hi - lo > need` leaves an integer step
    /// ≥ 1) — globally renumbering first if the local gap has run dry.
    fn gap_for(&mut self, c: u32, need: u64) -> (u64, u64) {
        let (lo, hi) = self.neighbors_of(self.pos(c));
        if hi - lo > need {
            return (lo, hi);
        }
        // Local gap exhausted by earlier splits: restore POS_GAP spacing
        // everywhere (need ≤ residue limit ≪ POS_GAP) and re-read.
        self.renumber();
        self.neighbors_of(self.pos(c))
    }

    /// Nearest occupied positions strictly below and above `pos`.
    fn neighbors_of(&self, pos: u64) -> (u64, u64) {
        let lo = self.occupied.range(..pos).next_back().copied().unwrap_or(0);
        let hi = self
            .occupied
            .range(pos + 1..)
            .next()
            .copied()
            .unwrap_or(u64::MAX);
        (lo, hi)
    }

    /// Global renumbering: every component's position becomes
    /// `rank * POS_GAP` in the current order, restoring full gaps.
    fn renumber(&mut self) {
        let mut order: Vec<(u64, u32)> = self.members.keys().map(|&c| (self.pos(c), c)).collect();
        order.sort_unstable();
        self.occupied.clear();
        for (rank, (_, c)) in order.into_iter().enumerate() {
            self.set_pos(c, (rank as u64 + 1) * POS_GAP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tarjan::tarjan_scc;
    use crate::Algorithm;

    fn engine(n: usize, edges: &[(NodeId, NodeId)]) -> IncrementalEngine<CsrGraph> {
        engine_with_limit(n, edges, SccConfig::default().incremental_residue_limit)
    }

    fn engine_with_limit(
        n: usize,
        edges: &[(NodeId, NodeId)],
        limit: usize,
    ) -> IncrementalEngine<CsrGraph> {
        let mut cfg = SccConfig::with_threads(2);
        cfg.incremental_residue_limit = limit;
        IncrementalEngine::new(
            DeltaGraph::new(CsrGraph::from_edges(n, edges)),
            Pipeline::stock(Algorithm::Method2).expect("stock pipeline"),
            cfg,
            &RunGuard::new(),
        )
        .expect("initial build")
    }

    /// The ground truth the engine must track: Tarjan over the
    /// materialized current graph, compared through canonical labels,
    /// and the maintained condensation compared with a from-scratch one.
    fn assert_matches_oracle<G: CompactBackend>(engine: &IncrementalEngine<G>) {
        let materialized = engine.graph().materialize_csr();
        let oracle = tarjan_scc(&materialized);
        let snap = engine.snapshot(&RunGuard::new()).expect("snapshot");
        let canonical = snap.canonical_labels();
        assert_eq!(
            canonical,
            oracle.canonical_labels(),
            "maintained partition diverged from Tarjan"
        );
        assert_eq!(snap.num_components(), oracle.num_components());
        // The maintained positions must be a topological order of the
        // maintained condensation.
        for (u, v) in materialized.edges() {
            let (cu, cv) = (engine.label(u), engine.label(v));
            if cu != cv {
                assert!(
                    engine.pos(cu) < engine.pos(cv),
                    "edge {u}->{v} violates the maintained topological order"
                );
            }
        }
        // Same condensation edges as a batch build, under canonical ids.
        let fresh = SccSnapshot::from_result(&materialized, oracle);
        let canon = |s: &SccSnapshot| {
            let mut rep = vec![u32::MAX; s.positions().len()];
            for (n, &c) in s.labels().to_vec().iter().enumerate() {
                rep[c as usize] = canonical[n];
            }
            let mut e: Vec<_> = s
                .condensation()
                .edges()
                .into_iter()
                .map(|(a, b)| (rep[a as usize], rep[b as usize]))
                .collect();
            e.sort_unstable();
            e
        };
        assert_eq!(canon(&snap), canon(&fresh), "condensation diverged");
    }

    #[test]
    fn in_order_and_intra_inserts_are_o1() {
        let guard = RunGuard::new();
        // 0 -> 1 -> 2 and a 2-cycle {3,4}.
        let mut e = engine(5, &[(0, 1), (1, 2), (3, 4), (4, 3)]);
        assert_eq!(e.num_components(), 4);
        assert_eq!(
            e.insert_edge(0, 2, &guard).unwrap(),
            MutationOutcome::InOrder,
            "forward edge respects the order"
        );
        assert_eq!(
            e.insert_edge(3, 4, &guard).unwrap(),
            MutationOutcome::Noop,
            "already live"
        );
        assert_eq!(e.insert_edge(4, 4, &guard).unwrap(), MutationOutcome::Noop);
        assert_eq!(e.counters().in_order, 1);
        assert_matches_oracle(&e);
    }

    #[test]
    fn back_edge_merges_the_cycle_set() {
        let guard = RunGuard::new();
        // Path 0 -> 1 -> 2 -> 3, plus bystander 4 after 3.
        let mut e = engine(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let out = e.insert_edge(3, 1, &guard).unwrap();
        assert_eq!(out, MutationOutcome::Merged { merged: 3 }, "{{1,2,3}}");
        assert_eq!(e.num_components(), 3);
        assert_eq!(e.counters().merges, 1);
        assert_matches_oracle(&e);
        // Growing the cycle merges again.
        let out = e.insert_edge(4, 0, &guard).unwrap();
        assert_eq!(out, MutationOutcome::Merged { merged: 3 });
        assert_eq!(e.num_components(), 1);
        assert_matches_oracle(&e);
    }

    #[test]
    fn back_edge_without_cycle_reorders() {
        let guard = RunGuard::new();
        // Two disjoint chains; insert an edge from the "later" chain to
        // the "earlier" one — depending on the initial Kahn order this
        // is either already in order or a pure reorder, never a merge.
        let mut e = engine(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let out = e.insert_edge(5, 0, &guard).unwrap();
        assert!(
            matches!(out, MutationOutcome::InOrder | MutationOutcome::Reordered),
            "no cycle exists, got {out:?}"
        );
        assert_eq!(e.num_components(), 6);
        assert_matches_oracle(&e);
        // Now 3->4->5->0->1->2; 2 -> 3 closes the global cycle.
        let out = e.insert_edge(2, 3, &guard).unwrap();
        assert_eq!(out, MutationOutcome::Merged { merged: 6 });
        assert_eq!(e.num_components(), 1);
        assert_matches_oracle(&e);
    }

    #[test]
    fn cross_component_delete_is_o1() {
        let guard = RunGuard::new();
        let mut e = engine(4, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        assert_eq!(
            e.delete_edge(0, 1, &guard).unwrap(),
            MutationOutcome::InOrder
        );
        assert_eq!(
            e.delete_edge(0, 1, &guard).unwrap(),
            MutationOutcome::Noop,
            "already gone"
        );
        assert_eq!(e.num_components(), 3);
        assert_matches_oracle(&e);
    }

    #[test]
    fn intra_delete_splits_the_component() {
        let guard = RunGuard::new();
        // 4-cycle plus an outside observer 4 <- 0.
        let mut e = engine(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]);
        assert_eq!(e.num_components(), 2);
        let out = e.delete_edge(2, 3, &guard).unwrap();
        assert_eq!(out, MutationOutcome::Repaired { parts: 4 });
        assert_eq!(e.num_components(), 5);
        let c = e.counters();
        assert_eq!(
            (c.certified, c.dirty_repairs, c.splits),
            (0, 1, 1),
            "the check proves the split, the residue re-run performs it: {c:?}"
        );
        assert_matches_oracle(&e);
    }

    #[test]
    fn intra_delete_that_keeps_the_scc_is_cheap() {
        let guard = RunGuard::new();
        // 3-cycle plus the chord 1 -> 0: the SCC survives losing the
        // chord.
        let mut e = engine(3, &[(0, 1), (1, 2), (2, 0), (1, 0)]);
        assert_eq!(e.num_components(), 1);
        let before = e.snapshot(&guard).unwrap();
        let out = e.delete_edge(1, 0, &guard).unwrap();
        assert_eq!(out, MutationOutcome::Repaired { parts: 1 });
        assert_eq!(e.num_components(), 1);
        let c = e.counters();
        assert_eq!(
            (c.certified, c.dirty_repairs, c.splits),
            (1, 0, 0),
            "certified without a residue re-run: {c:?}"
        );
        let after = e.snapshot(&guard).unwrap();
        assert_eq!(
            after.labels().shared_pages(before.labels()),
            after.labels().num_pages()
        );
        assert_matches_oracle(&e);
    }

    #[test]
    fn self_loop_delete_is_certified_in_o1() {
        // Even a guard that has already expired does not stop it: the
        // self-loop case never searches, so never polls.
        let expired = RunGuard::with_deadline(std::time::Duration::ZERO);
        let mut e = engine(4, &[(0, 1), (1, 2), (2, 0), (1, 1), (3, 3)]);
        for n in [1, 3] {
            assert_eq!(
                e.delete_edge(n, n, &expired).unwrap(),
                MutationOutcome::Repaired { parts: 1 }
            );
        }
        let c = e.counters();
        assert_eq!((c.certified, c.dirty_repairs), (2, 0), "{c:?}");
        assert!(e.survival.stamps.is_empty(), "no search ran");
        assert_matches_oracle(&e);
    }

    #[test]
    fn expired_guard_fails_the_check_and_the_next_write_heals() {
        let mut e = engine(3, &[(0, 1), (1, 2), (2, 0), (1, 0)]);
        let expired = RunGuard::with_deadline(std::time::Duration::ZERO);
        assert_eq!(
            e.delete_edge(1, 0, &expired),
            Err(SccError::DeadlineExceeded)
        );
        assert!(
            e.is_poisoned(),
            "the graph holds a delete the check never settled"
        );
        assert_eq!(e.counters().certified, 0);
        let guard = RunGuard::new();
        assert_eq!(
            e.insert_edge(0, 2, &guard).unwrap(),
            MutationOutcome::InOrder
        );
        assert!(!e.is_poisoned());
        assert_eq!(e.counters().full_rebuilds, 1, "healed by one rebuild");
        assert_matches_oracle(&e);
    }

    #[test]
    fn residue_limit_degrades_to_full_rebuild() {
        let guard = RunGuard::new();
        // Limit 1: any multi-node search or residue exceeds the budget.
        let mut e = engine_with_limit(4, &[(0, 1), (1, 2), (2, 3)], 1);
        assert_eq!(
            e.insert_edge(3, 0, &guard).unwrap(),
            MutationOutcome::Rebuilt
        );
        assert_eq!(e.num_components(), 1);
        assert_eq!(e.counters().full_rebuilds, 1);
        assert_matches_oracle(&e);
    }

    #[test]
    fn poisoned_engine_heals_before_the_next_mutation() {
        let guard = RunGuard::new();
        let mut e = engine(3, &[(0, 1), (1, 2)]);
        e.poison();
        assert!(e.is_poisoned());
        assert_eq!(
            e.insert_edge(2, 0, &guard).unwrap(),
            MutationOutcome::Merged { merged: 3 }
        );
        assert!(!e.is_poisoned());
        assert_eq!(e.counters().full_rebuilds, 1, "heal rebuilt first");
        assert_matches_oracle(&e);
    }

    #[test]
    fn killed_merge_leaves_partition_intact_and_heals() {
        use swscc_sync::fault::{arm, FaultKind, FaultPlan};
        let guard = RunGuard::new();
        let mut e = engine(4, &[(0, 1), (1, 2), (2, 3)]);
        let before: Vec<u32> = e.view.labels.to_vec();
        {
            let _g = arm(FaultPlan {
                site: Some(fault::INCR_MERGE),
                nth: 0,
                kind: FaultKind::Panic,
                repeat: false,
            });
            // recovery: the injected kill at the merge commit point must
            // not have touched any label or position.
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                e.insert_edge(3, 0, &guard)
            }));
            assert!(r.is_err(), "planned fault must fire");
        }
        assert_eq!(
            e.view.labels.to_vec(),
            before,
            "partition untouched by the kill"
        );
        // The graph holds the edge the partition does not reflect — the
        // serve layer would poison; emulate it and heal.
        e.poison();
        assert_eq!(e.apply(Mutation::Insert(3, 0), &guard).unwrap(), {
            MutationOutcome::Noop // edge is already live; heal only
        });
        assert_eq!(e.num_components(), 1);
        assert_matches_oracle(&e);
    }

    #[test]
    fn snapshot_matches_maintained_partition() {
        let guard = RunGuard::new();
        let mut e = engine(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        e.insert_edge(4, 3, &guard).unwrap();
        let snap = e.snapshot(&guard).unwrap();
        assert_eq!(snap.num_components(), e.num_components());
        assert_eq!(snap.same_scc(3, 4), Some(true));
        assert_eq!(snap.same_scc(0, 3), Some(false));
        assert_eq!(
            snap.condensation_reach(0, 4, &guard).unwrap(),
            Some(true),
            "0 reaches 4 through the condensation"
        );
    }

    #[test]
    fn compact_preserves_the_partition() {
        let guard = RunGuard::new();
        let mut e = engine(4, &[(0, 1), (1, 0)]);
        e.insert_edge(2, 3, &guard).unwrap();
        e.insert_edge(3, 2, &guard).unwrap();
        e.delete_edge(1, 0, &guard).unwrap();
        let folded = e.compact();
        assert!(folded > 0);
        assert_eq!(e.graph().pending(), 0);
        assert_matches_oracle(&e);
    }

    /// Randomized mutation storm vs the Tarjan oracle after every step —
    /// the in-crate smoke version of `tests/incremental_differential.rs`.
    #[test]
    fn random_mutation_storm_tracks_tarjan() {
        fn splitmix64(x: &mut u64) -> u64 {
            *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let guard = RunGuard::new();
        let n = 24u64;
        let mut s = 0x5CC_D31A;
        let mut e = engine_with_limit(n as usize, &[(0, 1), (1, 0), (2, 3)], 64);
        for step in 0..160 {
            let u = (splitmix64(&mut s) % n) as NodeId;
            let v = (splitmix64(&mut s) % n) as NodeId;
            let m = if splitmix64(&mut s).is_multiple_of(3) {
                Mutation::Delete(u, v)
            } else {
                Mutation::Insert(u, v)
            };
            e.apply(m, &guard).unwrap();
            assert_matches_oracle(&e);
            if step % 40 == 39 {
                e.compact();
                assert_matches_oracle(&e);
            }
        }
        let c = e.counters();
        assert!(
            c.merges > 0 && c.in_order > 0,
            "storm must hit the fast and merge paths: {c:?}"
        );
    }
}
