//! Epoch-snapshot payload of the always-on service: one immutable
//! partition plus its condensation DAG and topological positions, with
//! the query surface the `swscc-serve` daemon answers from.
//!
//! A snapshot comes from one of two places, and both build the same
//! type. The batch path — [`SccSnapshot::build`] and
//! [`SccSnapshot::from_result`] — runs or takes a partition and builds
//! everything from scratch. The write path —
//! [`crate::IncrementalEngine::snapshot`] — publishes the engine's own
//! maintained state, sharing it with the previous epoch (see
//! [`crate::shared`]). Nothing in a snapshot mutates after
//! construction, so any number of connection handlers can answer
//! queries from one snapshot while the engine prepares the next.
//!
//! # Cost model
//!
//! * **Writes.** A write costs O(change). It copies only the
//!   [`PAGE`](crate::shared::PAGE)-entry label and position pages whose
//!   entries it changes, and records condensation edges in a small
//!   overlay: in-order inserts, reorders, cross-component deletes and
//!   no-ops copy no label page and keep the condensation base. A merge
//!   or a split also moves the condensation edges of the components it
//!   changes through the overlay, which costs their condensation degree
//!   and the split members' adjacency — no more than the engine's own
//!   repair walked. Only a full rebuild builds a fresh base, in
//!   O(N + M); compaction folds the overlay into one, in O(C + E_c).
//!   Publishing clones the page tables, O(N / PAGE) reference counts.
//! * **Point queries.** [`SccSnapshot::scc_id`] and
//!   [`SccSnapshot::same_scc`] read one label page each, O(1).
//! * **Reach.** [`SccSnapshot::condensation_reach`] first compares the
//!   two components' topological positions: a source placed at or after
//!   the target cannot reach it, answered in O(1). Otherwise a BFS over
//!   the condensation skips every component placed at or after the
//!   target, and marks visits in a per-thread stamp array that is reused
//!   across queries, so a query allocates nothing once its thread has
//!   answered one query on a graph this size. The price is memory that
//!   stays with the thread: 8 bytes per component id (a stamp and a
//!   queue slot), against a transient byte per id for a fresh visited
//!   array. The BFS polls its guard
//!   every level, so a per-request deadline interrupts it mid-walk with
//!   a typed [`SccError::DeadlineExceeded`].
//!
//! Component ids are stable between epochs where the partition did not
//! change, but need not be dense: ids of merged-away components stay
//! unused until the next full rebuild. [`SccSnapshot::num_components`]
//! counts live components.

use crate::config::SccConfig;
use crate::error::{RunGuard, SccError};
use crate::instrument::RunReport;
use crate::pipeline::{run_pipeline, Pipeline};
use crate::result::SccResult;
use crate::shared::{topo_ranks, Condensation, PagedVec, Stamps, POS_GAP};
use std::cell::RefCell;
use swscc_graph::{GraphView, NodeId};

/// An immutable SCC partition + condensation DAG + topological
/// positions over one input graph, ready to answer point queries. See
/// the module docs for the role it plays in the serve epoch cycle.
#[derive(Clone, Debug)]
pub struct SccSnapshot {
    /// Node -> component id.
    pub(crate) labels: PagedVec<u32>,
    /// Component id -> topological position: every condensation edge
    /// goes from a lower to a higher position.
    pub(crate) positions: PagedVec<u64>,
    pub(crate) condensation: Condensation,
    pub(crate) num_components: usize,
    pub(crate) num_edges: usize,
}

impl SccSnapshot {
    /// Runs `pipeline` on `g` under `guard` and packages the partition
    /// with its condensation. Every failure is the pipeline's own typed
    /// error — a failed build leaves no half-snapshot behind.
    pub fn build<G: GraphView>(
        g: &G,
        pipeline: &Pipeline,
        cfg: &SccConfig,
        guard: &RunGuard,
    ) -> Result<(SccSnapshot, RunReport), SccError> {
        let (result, report) = run_pipeline(g, pipeline, cfg, guard)?;
        // The condensation streams the adjacency once more; honour a
        // deadline that expired during the partition run before paying
        // that second pass.
        guard.check()?;
        Ok((SccSnapshot::from_result(g, result), report))
    }

    /// Wraps an already-computed partition: builds the condensation and
    /// ranks it topologically (O(N + M)).
    pub fn from_result<G: GraphView>(g: &G, result: SccResult) -> SccSnapshot {
        let base = result.condensation_view(g);
        let positions: Vec<u64> = topo_ranks(&base)
            .into_iter()
            .map(|rank| (u64::from(rank) + 1) * POS_GAP)
            .collect();
        SccSnapshot {
            labels: PagedVec::from_slice(result.assignment()),
            positions: PagedVec::from_slice(&positions),
            condensation: Condensation::from_base(base),
            num_components: result.num_components(),
            num_edges: g.num_edges(),
        }
    }

    /// Node -> component id, in shared pages.
    pub fn labels(&self) -> &PagedVec<u32> {
        &self.labels
    }

    /// Component id -> topological position.
    pub fn positions(&self) -> &PagedVec<u64> {
        &self.positions
    }

    /// The condensation DAG over component ids.
    pub fn condensation(&self) -> &Condensation {
        &self.condensation
    }

    /// The partition as canonical labels — every node labelled with the
    /// smallest node of its component — comparable with
    /// [`SccResult::canonical_labels`].
    pub fn canonical_labels(&self) -> Vec<u32> {
        let labels = self.labels.to_vec();
        let mut min_member = vec![u32::MAX; self.positions.len()];
        for (n, &c) in labels.iter().enumerate() {
            min_member[c as usize] = min_member[c as usize].min(n as u32);
        }
        labels.iter().map(|&c| min_member[c as usize]).collect()
    }

    /// Node count of the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    /// Directed edge count of the underlying graph.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of SCCs.
    pub fn num_components(&self) -> usize {
        self.num_components
    }

    /// Component id of `u`, or `None` if `u` is out of range — the
    /// serve layer turns that into a typed out-of-range reply instead of
    /// an indexing panic on untrusted input.
    pub fn scc_id(&self, u: NodeId) -> Option<u32> {
        ((u as usize) < self.labels.len()).then(|| self.labels.get(u as usize))
    }

    /// Whether `u` and `v` are in the same SCC; `None` if either is out
    /// of range.
    pub fn same_scc(&self, u: NodeId, v: NodeId) -> Option<bool> {
        Some(self.scc_id(u)? == self.scc_id(v)?)
    }

    /// Whether `v` is reachable from `u` in the input graph — answered
    /// on the condensation (u reaches v iff scc(u) reaches scc(v) in the
    /// DAG), pruned by topological position. `Ok(None)` if either
    /// endpoint is out of range. Polls `guard` once per BFS level, so a
    /// request deadline lands as [`SccError::DeadlineExceeded`] rather
    /// than a stuck handler.
    pub fn condensation_reach(
        &self,
        u: NodeId,
        v: NodeId,
        guard: &RunGuard,
    ) -> Result<Option<bool>, SccError> {
        let (Some(from), Some(to)) = (self.scc_id(u), self.scc_id(v)) else {
            return Ok(None);
        };
        if from == to {
            return Ok(Some(true));
        }
        let target = self.positions.get(to as usize);
        if self.positions.get(from as usize) >= target {
            return Ok(Some(false));
        }
        REACH_SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let ReachScratch { stamps, queue } = &mut *scratch;
            // Each component enters the queue at most once per query, so
            // arrays sized to the id space never grow mid-search.
            let ids = self.positions.len();
            queue.clear();
            queue.reserve(ids);
            let stamp = stamps.begin(ids, 1);
            stamps[from as usize] = stamp;
            queue.push(from);
            let mut head = 0;
            while head < queue.len() {
                guard.check()?;
                let level_end = queue.len();
                while head < level_end {
                    let c = queue[head];
                    head += 1;
                    let mut hit = false;
                    self.condensation.for_each_successor_while(c, |w| {
                        if w == to {
                            hit = true;
                            return false;
                        }
                        // A component placed at or after the target
                        // cannot reach it.
                        if stamps[w as usize] != stamp && self.positions.get(w as usize) < target {
                            stamps[w as usize] = stamp;
                            queue.push(w);
                        }
                        true
                    });
                    if hit {
                        return Ok(Some(true));
                    }
                }
            }
            Ok(Some(false))
        })
    }
}

/// Per-thread reach search state, kept between queries so a query
/// allocates nothing once the arrays fit the id space.
struct ReachScratch {
    /// The query's stamp marks a component visited.
    stamps: Stamps,
    /// BFS queue; one level is a contiguous run of it.
    queue: Vec<u32>,
}

thread_local! {
    static REACH_SCRATCH: RefCell<ReachScratch> = const {
        RefCell::new(ReachScratch {
            stamps: Stamps::new(),
            queue: Vec::new(),
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algorithm;
    use std::time::Duration;
    use swscc_graph::CsrGraph;

    /// Two 3-cycles joined by one edge, an OUT tendril, an isolated node.
    fn diamond() -> CsrGraph {
        CsrGraph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 3),
                (5, 6),
                (7, 0),
            ],
        )
    }

    fn snapshot(g: &CsrGraph) -> SccSnapshot {
        let pipeline = Pipeline::stock(Algorithm::Method2).unwrap();
        let guard = RunGuard::new();
        let (snap, _report) =
            SccSnapshot::build(g, &pipeline, &SccConfig::with_threads(2), &guard).unwrap();
        snap
    }

    #[test]
    fn point_queries_match_partition() {
        let g = diamond();
        let snap = snapshot(&g);
        assert_eq!(snap.num_components(), 4); // {0,1,2}, {3,4,5}, {6}, {7}
        assert_eq!(snap.same_scc(0, 2), Some(true));
        assert_eq!(snap.same_scc(0, 3), Some(false));
        assert_eq!(snap.scc_id(0), snap.scc_id(1));
        assert_eq!(snap.scc_id(99), None);
        assert_eq!(snap.same_scc(0, 99), None);
    }

    #[test]
    fn condensation_reach_follows_dag() {
        let g = diamond();
        let snap = snapshot(&g);
        let guard = RunGuard::new();
        // Within an SCC, across the bridge, down the tendril.
        assert_eq!(snap.condensation_reach(0, 1, &guard), Ok(Some(true)));
        assert_eq!(snap.condensation_reach(0, 5, &guard), Ok(Some(true)));
        assert_eq!(snap.condensation_reach(1, 6, &guard), Ok(Some(true)));
        assert_eq!(snap.condensation_reach(7, 6, &guard), Ok(Some(true)));
        // Never backwards.
        assert_eq!(snap.condensation_reach(3, 0, &guard), Ok(Some(false)));
        assert_eq!(snap.condensation_reach(6, 0, &guard), Ok(Some(false)));
        assert_eq!(snap.condensation_reach(0, 7, &guard), Ok(Some(false)));
        // Out of range is typed, not a panic.
        assert_eq!(snap.condensation_reach(0, 99, &guard), Ok(None));
    }

    #[test]
    fn reach_prunes_by_position() {
        let g = diamond();
        let snap = snapshot(&g);
        let guard = RunGuard::new();
        let pos = |u: NodeId| snap.positions().get(snap.scc_id(u).unwrap() as usize);
        // Every condensation edge goes forward in position.
        for (a, b) in snap.condensation().edges() {
            assert!(snap.positions().get(a as usize) < snap.positions().get(b as usize));
        }
        // A source placed after its target answers without a search —
        // even under an expired deadline, which any search would trip.
        assert!(pos(6) > pos(0));
        let expired = RunGuard::with_deadline(Duration::ZERO);
        assert_eq!(snap.condensation_reach(6, 0, &expired), Ok(Some(false)));
        assert_eq!(snap.condensation_reach(6, 0, &guard), Ok(Some(false)));
    }

    #[test]
    fn reach_honours_an_expired_deadline() {
        let g = diamond();
        let snap = snapshot(&g);
        let guard = RunGuard::with_deadline(Duration::ZERO);
        assert_eq!(
            snap.condensation_reach(0, 6, &guard),
            Err(SccError::DeadlineExceeded)
        );
    }

    #[test]
    fn build_over_compressed_backend_matches_raw() {
        let g = diamond();
        let z = swscc_graph::CompressedCsr::from_csr(&g);
        let raw = snapshot(&g);
        let pipeline = Pipeline::stock(Algorithm::Method2).unwrap();
        let guard = RunGuard::new();
        let (zs, _) =
            SccSnapshot::build(&z, &pipeline, &SccConfig::with_threads(2), &guard).unwrap();
        assert_eq!(raw.canonical_labels(), zs.canonical_labels());
        assert_eq!(raw.condensation().edges(), zs.condensation().edges());
    }
}
