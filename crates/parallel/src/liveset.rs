//! Live-residue vertex subset: a dense ↔ sparse hybrid iteration domain.
//!
//! The paper's premise (§2.2, §3.3) is that after the giant-SCC peel the
//! surviving residue is a small fraction of N — yet a kernel that iterates
//! `0..num_nodes` and filters on `alive()` still pays O(N) per invocation.
//! GBBS-style frontier abstractions (Dhulipala, Blelloch, Shun 2018) fix
//! this with a dense/sparse `vertexSubset`: kernels cost O(|subset|), not
//! O(N). [`LiveSet`] is that abstraction for the *alive* nodes:
//!
//! * **Dense** mode (the initial state) iterates the full `0..universe`
//!   range — O(1) to build, same cost as the pre-existing full sweeps.
//! * **Sparse** mode iterates a compact candidate list that is maintained
//!   as a *superset* of the alive nodes (deletion is lazy: resolving a node
//!   does not touch the list, and `alive()` filtering inside each kernel
//!   already skips it). Because marks are monotone — nodes die and never
//!   revive — the superset invariant holds without any bookkeeping on the
//!   hot resolve path.
//!
//! [`LiveSet::maybe_compact`] rebuilds the candidate list in parallel at
//! phase boundaries. Under [`CompactionPolicy::Auto`] a rebuild runs only
//! when the live count has dropped to at most half the candidate count, so
//! total compaction work over a whole run telescopes to O(2·N) while every
//! sweep in between touches at most 2·|residue| slots.

use rayon::prelude::*;
use swscc_sync::RwLock;

/// When the owner of a [`LiveSet`] should compact it at a phase boundary.
///
/// `Never` keeps the set dense forever — every sweep stays O(N), byte-for-
/// byte the pre-LiveSet behavior (the ablation baseline). `Always` rebuilds
/// at every boundary (the candidate list is always exact). `Auto` applies
/// the halving rule described in the module docs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CompactionPolicy {
    /// Compact when live nodes are at most half the current candidates.
    #[default]
    Auto,
    /// Compact at every phase boundary.
    Always,
    /// Never compact: stay dense (full-sweep ablation baseline).
    Never,
}

/// The hybrid dense/sparse set of candidate-alive vertices.
///
/// All iteration helpers run on the ambient rayon pool and dispatch on the
/// current representation; interior locking (one `RwLock` around the
/// optional sparse list) makes the set shareable by `&` reference alongside
/// the rest of the algorithm state. Kernels only ever take brief read
/// locks; compaction (the sole writer) happens between kernels.
pub struct LiveSet {
    universe: usize,
    /// `None` = dense (iterate `0..universe`); `Some(list)` = sparse
    /// candidate list, ascending, a superset of the alive nodes.
    sparse: RwLock<Option<Vec<u32>>>,
}

impl LiveSet {
    /// A dense set over `0..universe`.
    pub fn new_dense(universe: usize) -> Self {
        LiveSet {
            universe,
            sparse: RwLock::new(None),
        }
    }

    /// Size of the underlying vertex id space.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// `true` once the set has been compacted to a sparse list.
    pub fn is_sparse(&self) -> bool {
        self.sparse.read().is_some()
    }

    /// Number of candidate slots a sweep will touch (`universe` while
    /// dense, the list length once sparse).
    pub fn candidates(&self) -> usize {
        match &*self.sparse.read() {
            Some(list) => list.len(),
            None => self.universe,
        }
    }

    /// A snapshot of the candidate ids (ascending). Intended for tests and
    /// diagnostics — O(candidates).
    pub fn candidate_vec(&self) -> Vec<u32> {
        match &*self.sparse.read() {
            Some(list) => list.clone(),
            None => (0..self.universe as u32).collect(),
        }
    }

    /// Runs `f` over every candidate in parallel, collecting the `Some`
    /// results (in candidate order).
    pub fn par_filter_map<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u32) -> Option<T> + Sync + Send,
    {
        match &*self.sparse.read() {
            Some(list) => list.par_iter().copied().filter_map(f).collect(),
            None => (0..self.universe as u32)
                .into_par_iter()
                .filter_map(f)
                .collect(),
        }
    }

    /// The candidates satisfying `pred`, in ascending candidate order.
    pub fn par_collect<F>(&self, pred: F) -> Vec<u32>
    where
        F: Fn(u32) -> bool + Sync + Send,
    {
        self.par_filter_map(|v| pred(v).then_some(v))
    }

    /// Appends the candidates satisfying `pred` to `out`, in ascending
    /// order: inline on the calling thread unless `parallel`, else through
    /// [`par_collect`](LiveSet::par_collect).
    pub fn extend_filtered<F>(&self, parallel: bool, out: &mut Vec<u32>, pred: F)
    where
        F: Fn(u32) -> bool + Sync + Send,
    {
        if parallel {
            out.extend(self.par_collect(pred));
            return;
        }
        match &*self.sparse.read() {
            Some(list) => extend_branchless(out, list.iter().copied(), pred),
            None => extend_branchless(out, 0..self.universe as u32, pred),
        }
    }

    /// Runs `f` on every candidate in parallel.
    pub fn par_for_each<F>(&self, f: F)
    where
        F: Fn(u32) + Sync + Send,
    {
        match &*self.sparse.read() {
            Some(list) => list.par_iter().copied().for_each(f),
            None => (0..self.universe as u32).into_par_iter().for_each(f),
        }
    }

    /// Some candidate satisfying `pred`, searched in parallel with early
    /// termination; *which* match is unspecified.
    pub fn par_find_any<F>(&self, pred: F) -> Option<u32>
    where
        F: Fn(u32) -> bool + Sync + Send,
    {
        match &*self.sparse.read() {
            Some(list) => list.par_iter().copied().find_any(|&v| pred(v)),
            None => (0..self.universe as u32)
                .into_par_iter()
                .find_any(|&v| pred(v)),
        }
    }

    /// The candidate maximizing `key` among those satisfying `pred`.
    pub fn par_max_by_key<K, P, F>(&self, pred: P, key: F) -> Option<u32>
    where
        K: Ord + Send,
        P: Fn(u32) -> bool + Sync + Send,
        F: Fn(u32) -> K + Sync + Send,
    {
        match &*self.sparse.read() {
            Some(list) => list
                .par_iter()
                .copied()
                .filter(|&v| pred(v))
                .max_by_key(|&v| key(v)),
            None => (0..self.universe as u32)
                .into_par_iter()
                .filter(|&v| pred(v))
                .max_by_key(|&v| key(v)),
        }
    }

    /// Runs `f` with the sparse candidate list, or `None` while dense.
    /// Lets callers probe random candidates in O(1) (pivot sampling)
    /// without copying the list; the read lock is held for the duration.
    pub fn with_sparse<R>(&self, f: impl FnOnce(Option<&[u32]>) -> R) -> R {
        f(self.sparse.read().as_deref())
    }

    /// Unconditionally rebuilds the candidate list to exactly
    /// `{v | live(v)}`, in parallel. O(candidates).
    pub fn compact<F>(&self, live: F)
    where
        F: Fn(u32) -> bool + Sync + Send,
    {
        let list = self.par_collect(live);
        *self.sparse.write() = Some(list);
    }

    /// Applies `policy` at a phase boundary; returns whether a compaction
    /// ran. `live_count` is the caller's current number of live vertices
    /// (an O(1) counter in practice — passing it in keeps the Auto decision
    /// free of an extra O(candidates) scan).
    pub fn maybe_compact<F>(&self, policy: CompactionPolicy, live_count: usize, live: F) -> bool
    where
        F: Fn(u32) -> bool + Sync + Send,
    {
        let run = match policy {
            CompactionPolicy::Never => false,
            CompactionPolicy::Always => true,
            // Halving rule: the rebuild's O(candidates) cost is charged to
            // the ≥ candidates/2 nodes that died since the last rebuild.
            CompactionPolicy::Auto => live_count.saturating_mul(2) <= self.candidates(),
        };
        if run {
            self.compact(live);
        }
        run
    }
}

/// Appends the `items` satisfying `pred` to `out` without a branch per
/// item: every item is written, and the length advances only past those
/// that pass. A filter whose outcome looks random to the branch predictor
/// (a color test over a partition) runs several times faster this way.
/// Items go through in blocks, so `out` grows with what passes, not with
/// what is scanned.
fn extend_branchless<I, F>(out: &mut Vec<u32>, mut items: I, pred: F)
where
    I: ExactSizeIterator<Item = u32>,
    F: Fn(u32) -> bool,
{
    const BLOCK: usize = 4096;
    let mut len = out.len();
    while items.len() > 0 {
        let n = items.len().min(BLOCK);
        out.resize(len + n, 0);
        for v in items.by_ref().take(n) {
            out[len] = v;
            len += usize::from(pred(v));
        }
        out.truncate(len);
    }
}

impl std::fmt::Debug for LiveSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveSet")
            .field("universe", &self.universe)
            .field("sparse", &self.is_sparse())
            .field("candidates", &self.candidates())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool;
    use swscc_sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn dense_iterates_universe() {
        let s = LiveSet::new_dense(10);
        assert!(!s.is_sparse());
        assert_eq!(s.candidates(), 10);
        assert_eq!(s.par_collect(|v| v % 2 == 0), vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn compact_switches_to_sparse_and_filters() {
        let s = LiveSet::new_dense(100);
        s.compact(|v| v < 10);
        assert!(s.is_sparse());
        assert_eq!(s.candidates(), 10);
        assert_eq!(s.candidate_vec(), (0..10).collect::<Vec<_>>());
        // Sweeps now touch only the 10 candidates.
        let touched = AtomicUsize::new(0);
        s.par_for_each(|_| {
            touched.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(touched.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn recompaction_shrinks_monotonically() {
        let s = LiveSet::new_dense(64);
        s.compact(|v| v < 32);
        s.compact(|v| v < 7);
        assert_eq!(s.candidate_vec(), (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn auto_policy_halving_rule() {
        let s = LiveSet::new_dense(100);
        // 60 live of 100 candidates: above half, no compaction.
        assert!(!s.maybe_compact(CompactionPolicy::Auto, 60, |v| v < 60));
        assert!(!s.is_sparse());
        // 50 live of 100: at the threshold, compacts.
        assert!(s.maybe_compact(CompactionPolicy::Auto, 50, |v| v < 50));
        assert_eq!(s.candidates(), 50);
        // 30 live of 50: compacts again.
        assert!(s.maybe_compact(CompactionPolicy::Auto, 25, |v| v < 25));
        assert_eq!(s.candidates(), 25);
        // 20 live of 25: above half, stays.
        assert!(!s.maybe_compact(CompactionPolicy::Auto, 20, |v| v < 20));
        assert_eq!(s.candidates(), 25);
    }

    #[test]
    fn never_policy_stays_dense() {
        let s = LiveSet::new_dense(100);
        assert!(!s.maybe_compact(CompactionPolicy::Never, 0, |_| false));
        assert!(!s.is_sparse());
        assert_eq!(s.candidates(), 100);
    }

    #[test]
    fn always_policy_compacts_every_time() {
        let s = LiveSet::new_dense(10);
        assert!(s.maybe_compact(CompactionPolicy::Always, 10, |_| true));
        assert!(s.is_sparse());
        assert_eq!(s.candidates(), 10);
        assert!(s.maybe_compact(CompactionPolicy::Always, 3, |v| v < 3));
        assert_eq!(s.candidate_vec(), vec![0, 1, 2]);
    }

    #[test]
    fn filter_map_and_find_and_max() {
        let s = LiveSet::new_dense(50);
        s.compact(|v| v >= 40);
        assert_eq!(
            s.par_filter_map(|v| (v % 2 == 0).then(|| v * 10)),
            vec![400, 420, 440, 460, 480]
        );
        let hit = s.par_find_any(|v| v > 45).expect("exists");
        assert!(hit > 45 && hit < 50);
        assert_eq!(s.par_max_by_key(|v| v != 49, |v| v), Some(48));
        assert_eq!(s.par_max_by_key(|_| false, |v| v), None);
    }

    #[test]
    fn extend_filtered_matches_par_collect() {
        // Several blocks of the branchless filter, dense then sparse.
        let s = LiveSet::new_dense(10_000);
        let pred = |v: u32| v % 3 == 1;
        for round in 0..2 {
            let want = s.par_collect(pred);
            for parallel in [false, true] {
                let mut out = vec![7];
                s.extend_filtered(parallel, &mut out, pred);
                assert_eq!(out[0], 7, "existing entries stay");
                assert_eq!(&out[1..], &want[..], "round {round}, parallel {parallel}");
            }
            s.compact(|v| v % 2 == 1);
        }
    }

    #[test]
    fn with_sparse_exposes_list_only_when_sparse() {
        let s = LiveSet::new_dense(5);
        s.with_sparse(|list| assert!(list.is_none()));
        s.compact(|v| v == 3);
        s.with_sparse(|list| assert_eq!(list, Some(&[3u32][..])));
    }

    #[test]
    fn empty_universe() {
        let s = LiveSet::new_dense(0);
        assert_eq!(s.candidates(), 0);
        assert!(s.par_collect(|_| true).is_empty());
        assert_eq!(s.par_find_any(|_| true), None);
        s.compact(|_| true);
        assert_eq!(s.candidates(), 0);
    }

    #[test]
    fn parallel_sweeps_match_sequential() {
        for threads in [1, 2, 4] {
            pool::with_pool(threads, || {
                let s = LiveSet::new_dense(1000);
                s.compact(|v| v % 3 == 0);
                let got = s.par_collect(|v| v % 2 == 0);
                let want: Vec<u32> = (0..1000).filter(|v| v % 3 == 0 && v % 2 == 0).collect();
                assert_eq!(got, want, "threads={threads}");
                assert_eq!(s.par_filter_map(Some).len(), s.candidates());
            });
        }
    }
}
