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
//! * **Insert, back edge** (`pos[scc(u)] > pos[scc(v)]`): a two-way
//!   ordered search on the maintained condensation (Haeupler, Kavitha,
//!   Mathew, Sen & Tarjan, ACM TALG 8(1), 2012), never on the members'
//!   graph adjacency: forward from `scc(v)` in increasing position,
//!   backward from `scc(u)` in decreasing position, one component per
//!   side per step, until the forward frontier's lowest position passes
//!   the backward frontier's highest. Only the components the search
//!   pops move: the merge set (every component on a `v ⇝ u` path)
//!   collapses into its largest member, whose condensation edges stay
//!   put while the others' move onto it, and the popped components are
//!   re-placed around the point where the searches crossed — see
//!   `IncrementalEngine::back_edge` for why no other component has to
//!   move. The search's budget counts condensation edges scanned, so a
//!   merge next to (or into) a giant SCC costs that SCC's condensation
//!   degree, not its size.
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
//! [`SccConfig::incremental_residue_limit`] — condensation edges
//! scanned for a back edge, nodes for a delete — degrades to a full
//! rebuild; correctness never depends on the bound, only the work
//! ceiling.
//!
//! # Failure containment
//!
//! The back-edge merge passes the `incr-merge` fault point *after*
//! every read and *before* the first write, so a kill there leaves
//! the partition state exactly as it was. The serve layer catches the
//! panic, marks the engine poisoned ([`IncrementalEngine::poison`]), and
//! the next operation heals through a full rebuild over the (already
//! mutated) graph. The previous epoch keeps serving throughout.

use crate::config::SccConfig;
use crate::error::{RunGuard, SccError};
use crate::pipeline::{run_pipeline, Pipeline};
use crate::shared::{topo_ranks, Stamps, POS_GAP};
use crate::snapshot::SccSnapshot;
use rustc_hash::{FxHashMap, FxHashSet};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
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
    /// A back edge that created no cycle; the components its search
    /// popped were re-placed in the topological order, components
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
    /// Heaps, marks and lists of the back-edge search.
    order: OrderScratch,
}

/// Reusable state of [`IncrementalEngine::still_reaches`], kept between
/// deletes so a delete the check settles allocates nothing once the
/// arrays fit.
#[derive(Default)]
struct SurvivalScratch {
    /// Two stamps per search: the first marks a node reached forward
    /// from `u`, the second reached backward from `v`.
    stamps: Stamps,
    /// Current levels of the forward (0) and backward (1) sides.
    frontier: [Vec<NodeId>; 2],
    /// The level being built.
    next: Vec<NodeId>,
}

/// Reusable state of [`IncrementalEngine::back_edge`], kept between
/// back edges so one allocates nothing once the arrays fit.
#[derive(Default)]
struct OrderScratch {
    marks: Marks,
    /// Forward frontier, lowest position first, and backward frontier,
    /// highest first, as `(position, component)`.
    forward: BinaryHeap<Reverse<(u64, u32)>>,
    backward: BinaryHeap<(u64, u32)>,
    /// Components popped forward, in increasing position, and popped
    /// backward, in decreasing position; cut down to X and Y once the
    /// search stops.
    fwd: Vec<(u64, u32)>,
    bwd: Vec<(u64, u32)>,
    /// The merge set.
    merge: Vec<u32>,
    /// The moved components in their new order.
    run: Vec<u32>,
}

/// Per-component marks of one back-edge search.
const SEEN_FWD: u8 = 1;
const SEEN_BWD: u8 = 2;
const IN_M: u8 = 4;

/// Component flags with a generation: `flags[c]` counts only while
/// `stamps[c] == current`, so a new search clears every mark in O(1).
#[derive(Default)]
struct Marks {
    stamps: Stamps,
    flags: Vec<u8>,
    current: u32,
}

impl Marks {
    /// Clears every mark, sized for `ids` component ids.
    fn begin(&mut self, ids: usize) {
        self.current = self.stamps.begin(ids, 1);
        if self.flags.len() < ids {
            self.flags.resize(ids, 0);
        }
    }

    /// Whether `c` carries any of `flags`.
    fn has(&self, c: u32, flags: u8) -> bool {
        self.stamps[c as usize] == self.current && self.flags[c as usize] & flags != 0
    }

    fn mark(&mut self, c: u32, flag: u8) {
        let c = c as usize;
        if self.stamps[c] != self.current {
            self.stamps[c] = self.current;
            self.flags[c] = 0;
        }
        self.flags[c] |= flag;
    }
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
            order: OrderScratch::default(),
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
        let first = s.stamps.begin(graph.num_nodes(), 2);
        let marks = [first, first + 1];
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

    /// The two-way ordered search for an order-violating insert
    /// `cu -> cv` (`pos[cv] < pos[cu]`), on the maintained condensation
    /// (which does not hold the new edge yet): forward from `cv`, lowest
    /// position first, keeping successors at or below `pos[cu]`;
    /// backward from `cu`, highest position first, keeping predecessors
    /// at or above `pos[cv]`. Each step polls `guard` and pops one
    /// component per side, forward first; the search stops as soon as
    /// the forward frontier's minimum `f*` exceeds the backward
    /// frontier's maximum `b*` (an empty frontier counts as +∞ / −∞).
    /// Leaves the pops in `order.fwd` (increasing position) and
    /// `order.bwd` (decreasing) and returns the split point
    /// `s = min(f*, pos[cu]) - 1`, or `None` once more than `limit`
    /// condensation edges were scanned.
    ///
    /// Every condensation edge goes up in position, so each side pops
    /// in position order. So when the search stops, every component
    /// reachable from `cv` below `f*` was popped forward, and every
    /// component reaching `cu` above `b*` — so every one above `s` — was
    /// popped backward. The one exception is a forward side that runs
    /// dry on its first pop: then `s = pos[cu] - 1`, `cu` is the only
    /// component above `s` that reaches it, and it is listed as popped
    /// without scanning its predecessors — a reorder next to a giant
    /// SCC does not pay the giant's in-degree.
    fn ordered_search(
        &mut self,
        cu: u32,
        cv: u32,
        limit: usize,
        guard: &RunGuard,
    ) -> Result<Option<u64>, SccError> {
        let Self {
            view,
            order,
            next_label,
            ..
        } = self;
        let (lb, ub) = (
            view.positions.get(cv as usize),
            view.positions.get(cu as usize),
        );
        let OrderScratch {
            marks,
            forward,
            backward,
            fwd,
            bwd,
            ..
        } = order;
        marks.begin(*next_label as usize);
        forward.clear();
        backward.clear();
        fwd.clear();
        bwd.clear();
        marks.mark(cv, SEEN_FWD);
        forward.push(Reverse((lb, cv)));
        marks.mark(cu, SEEN_BWD);
        backward.push((ub, cu));
        let crossed = |forward: &BinaryHeap<Reverse<(u64, u32)>>,
                       backward: &BinaryHeap<(u64, u32)>| {
            match (forward.peek(), backward.peek()) {
                (Some(&Reverse((f, _))), Some(&(b, _))) => f > b,
                _ => true,
            }
        };
        let mut scanned = 0usize;
        while !crossed(forward, backward) {
            guard.check()?;
            let Reverse((p, c)) = forward.pop().expect("not crossed");
            fwd.push((p, c));
            view.condensation.for_each_successor_while(c, |w| {
                scanned += 1;
                if !marks.has(w, SEEN_FWD) {
                    let pw = view.positions.get(w as usize);
                    if pw <= ub {
                        marks.mark(w, SEEN_FWD);
                        forward.push(Reverse((pw, w)));
                    }
                }
                scanned <= limit
            });
            if scanned > limit {
                return Ok(None);
            }
            if crossed(forward, backward) {
                break;
            }
            let (p, c) = backward.pop().expect("not crossed");
            bwd.push((p, c));
            view.condensation.for_each_predecessor(c, |x| {
                scanned += 1;
                if !marks.has(x, SEEN_BWD) {
                    let px = view.positions.get(x as usize);
                    if px >= lb {
                        marks.mark(x, SEEN_BWD);
                        backward.push((px, x));
                    }
                }
            });
            if scanned > limit {
                return Ok(None);
            }
        }
        if bwd.is_empty() {
            bwd.push((ub, cu));
        }
        let f_star = forward.peek().map_or(ub, |&Reverse((f, _))| f.min(ub));
        Ok(Some(f_star - 1))
    }

    /// Repairs an order-violating insert `scc(u)=cu -> scc(v)=cv`
    /// (`pos[cv] < pos[cu]`) after an
    /// [`ordered_search`](Self::ordered_search) that stopped at split
    /// point `s`. Two coverage facts carry it:
    ///
    /// * X, the components popped forward at or below `s`, holds every
    ///   component reachable from `cv` at or below `s`;
    /// * Y, the components popped backward above `s`, holds every
    ///   component that reaches `cu` above `s`.
    ///
    /// The merge set M (every component on a `cv ⇝ cu` path) lies in
    /// X ∪ Y, and is found over adjacency the search already scanned:
    ///
    /// * (a) the part of Y that `cv` reaches, in one ascending pass. A
    ///   member of Y is in it when the forward search discovered it (it
    ///   has a predecessor in X), or when a predecessor is already in it
    ///   — checked only once the part is non-empty;
    /// * (b) the part of X that reaches M, in one descending pass over
    ///   X's successors.
    ///
    /// M is empty unless it holds `cu`, and then collapses into its
    /// largest component.
    ///
    /// Then Y∖M, M's representative and X∖M, each in its old order,
    /// move into the gap between the nearest unmoved occupied positions
    /// around `s`, and nothing else moves. No edge breaks:
    ///
    /// * an unmoved component with an edge into X lies below it, so at
    ///   or below `s`; one with an edge into Y reaches `cu`, so it lies
    ///   at or below `s` too, or it would be in Y;
    /// * an unmoved component with an edge out of Y lies above it, so
    ///   above `s`; one with an edge out of X is reachable from `cv`, so
    ///   it lies above `s` too, or it would be in X;
    /// * inside the run, old edges keep their old order; none runs from
    ///   Y to X (Y lies above `s`, X at or below); an edge from X∖M or M
    ///   into Y∖M, or from X∖M into M, would put its source or target in
    ///   M; and the new edge runs from Y to X, or inside M.
    ///
    /// When the gap has too few free values, one global renumbering
    /// places the run at `s`. Member lists are read only for M: to pick
    /// the representative and to relabel the rest.
    fn back_edge(
        &mut self,
        cu: u32,
        cv: u32,
        guard: &RunGuard,
    ) -> Result<MutationOutcome, SccError> {
        let limit = self.cfg.incremental_residue_limit.max(1);
        let Some(s) = self.ordered_search(cu, cv, limit, guard)? else {
            return self.degrade(guard);
        };
        let Self {
            view,
            order,
            members,
            occupied,
            ..
        } = self;
        let cond = &view.condensation;
        let OrderScratch {
            marks,
            fwd,
            bwd,
            merge,
            run,
            ..
        } = order;
        fwd.truncate(fwd.partition_point(|&(p, _)| p <= s));
        bwd.truncate(bwd.partition_point(|&(p, _)| p > s));
        // (a) Y reached from `cv`, ascending: a predecessor of `y` that
        // `cv` reaches is in X at or below `s` — and X's successors were
        // all discovered forward — and in M above it.
        merge.clear();
        for &(_, y) in bwd.iter().rev() {
            let mut reached = marks.has(y, SEEN_FWD);
            if !reached && !merge.is_empty() {
                cond.for_each_predecessor(y, |x| reached |= marks.has(x, IN_M));
            }
            if reached {
                marks.mark(y, IN_M);
                merge.push(y);
            }
        }
        // (b) X reaching M, descending. `cu` tops Y, so it is in M
        // exactly when `cv` reaches it.
        if marks.has(cu, IN_M) {
            for &(_, x) in fwd.iter().rev() {
                let mut reaches = false;
                cond.for_each_successor_while(x, |w| {
                    reaches = marks.has(w, IN_M);
                    !reaches
                });
                if reaches {
                    marks.mark(x, IN_M);
                    merge.push(x);
                }
            }
        }
        let merged = merge.len();
        // The largest merged component keeps its id, so the fewest
        // labels (and label pages) change.
        let rep = merge
            .iter()
            .copied()
            .max_by_key(|c| (members[c].len(), *c))
            .unwrap_or(cu);
        let unmerged = |&(_, c): &(u64, u32)| (!marks.has(c, IN_M)).then_some(c);
        run.clear();
        run.extend(bwd.iter().rev().filter_map(unmerged));
        if merged > 0 {
            run.push(rep);
        }
        run.extend(fwd.iter().filter_map(unmerged));
        // The nearest unmoved occupied positions around `s`: X fills
        // some of the occupied positions at or below `s`, Y some above.
        let mut xs = fwd.iter().rev().map(|&(p, _)| p).peekable();
        let lo = occupied
            .range(..=s)
            .rev()
            .copied()
            .find(|&p| xs.next_if_eq(&p).is_none())
            .unwrap_or(0);
        let mut ys = bwd.iter().rev().map(|&(p, _)| p).peekable();
        let hi = occupied
            .range(s + 1..)
            .copied()
            .find(|&p| ys.next_if_eq(&p).is_none())
            .unwrap_or(u64::MAX);
        let merge = std::mem::take(merge);
        let run = std::mem::take(run);
        if merged > 0 {
            // recovery: commit point of the merge — the search and the
            // placement above are read-only, every write happens below,
            // so a kill here (injected incr-merge fault) leaves the
            // maintained partition untouched; the serve layer poisons
            // the engine and heals by rebuild while the old epoch keeps
            // serving.
            fault::point(fault::INCR_MERGE);
            self.merge_condensation(&merge, rep);
            for &c in &merge {
                if c == rep {
                    continue;
                }
                let absorbed = self.members.remove(&c).expect("merge set is live");
                for &m in &absorbed {
                    self.view.labels.set(m as usize, rep);
                }
                self.members
                    .get_mut(&rep)
                    .expect("representative is live")
                    .extend(absorbed);
            }
        }
        for &(p, _) in self.order.fwd.iter().chain(&self.order.bwd) {
            self.occupied.remove(&p);
        }
        let k = run.len() as u64;
        if hi - lo > k {
            let step = (hi - lo) / (k + 1);
            for (i, &c) in run.iter().enumerate() {
                self.set_pos(c, lo + step * (i as u64 + 1));
            }
        } else {
            self.renumber(&run, s);
        }
        self.order.merge = merge;
        self.order.run = run;
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
    /// the merged-away components — never `rep`'s, so a merge into the
    /// giant SCC does not scan the giant's edges again — and touches
    /// only the overlay.
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
        self.renumber(&[], 0);
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
    /// `rank * POS_GAP`, restoring full gaps. The order is the current
    /// one, except that the components of `run` leave their places and
    /// go, in `run` order, right after every other component positioned
    /// at or below `at`.
    fn renumber(&mut self, run: &[u32], at: u64) {
        let moved: FxHashSet<u32> = run.iter().copied().collect();
        let mut order: Vec<(u64, u32)> = self
            .members
            .keys()
            .filter(|c| !moved.contains(c))
            .map(|&c| (self.pos(c), c))
            .collect();
        order.sort_unstable();
        let cut = order.partition_point(|&(p, _)| p <= at);
        let (below, above) = order.split_at(cut);
        let ids: Vec<u32> = below
            .iter()
            .map(|&(_, c)| c)
            .chain(run.iter().copied())
            .chain(above.iter().map(|&(_, c)| c))
            .collect();
        self.occupied.clear();
        for (rank, c) in ids.into_iter().enumerate() {
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

    /// Each back edge `order[i] -> order[i-1]` re-places two singletons
    /// into the gap below the component the previous move left there,
    /// so that one gap shrinks by a third per move. With the real
    /// `POS_GAP` it runs dry after about 55 moves, and the global
    /// renumbering puts the run at the split point instead.
    #[test]
    fn moves_into_one_gap_fall_back_to_a_renumber() {
        let guard = RunGuard::new();
        let n = 80;
        let mut e = engine(n, &[]);
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        order.sort_by_key(|&x| e.pos(e.label(x)));
        let aligned = |e: &IncrementalEngine<CsrGraph>| {
            e.members.keys().all(|&c| e.pos(c).is_multiple_of(POS_GAP))
        };
        let (mut narrowed, mut renumbered_at) = (false, None);
        for i in 1..n {
            assert_eq!(
                e.insert_edge(order[i], order[i - 1], &guard).unwrap(),
                MutationOutcome::Reordered
            );
            assert_matches_oracle(&e);
            if !aligned(&e) {
                narrowed = true;
            } else if narrowed && renumbered_at.is_none() {
                renumbered_at = Some(i);
            }
        }
        let at = renumbered_at.expect("the gap ran dry and a renumbering restored POS_GAP");
        assert!(at >= 40, "renumbered after only {at} moves");
        let c = e.counters();
        assert_eq!((c.reorders, c.full_rebuilds), (n as u64 - 1, 0), "{c:?}");
    }

    /// A merge next to a component reads that component's condensation
    /// edges, not its members: with a budget of 8, a search whose window
    /// holds a 40-node SCC still merges.
    #[test]
    fn back_edge_budget_counts_condensation_edges() {
        let guard = RunGuard::new();
        // 0 -> 1 -> 2 -> 3, and 0 -> the ring {4..44}.
        let mut edges: Vec<(NodeId, NodeId)> = vec![(0, 1), (1, 2), (2, 3), (0, 4)];
        edges.extend((4..44).map(|i| (i, if i == 43 { 4 } else { i + 1 })));
        let mut e = engine_with_limit(44, &edges, 8);
        let out = e.insert_edge(3, 0, &guard).unwrap();
        assert_eq!(out, MutationOutcome::Merged { merged: 4 });
        assert_eq!(e.counters().full_rebuilds, 0);
        assert_matches_oracle(&e);
        assert!(
            e.order.marks.stamps.len() >= e.next_label as usize,
            "the search keeps its marks for the next back edge"
        );
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
