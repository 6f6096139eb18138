//! Frontier storage and the shared claim layer for level-synchronous
//! traversals (§4.2).
//!
//! Every BFS-shaped kernel in this codebase (plain BFS, the FW/BW
//! reachability peels, frontier-driven WCC) advances a frontier one level
//! at a time. The naive formulation allocates a fresh `Vec` per level
//! (sequential path) or pays a parallel `collect()` that builds and then
//! concatenates temporary vectors (parallel path) — on small-world graphs
//! with dozens of levels per traversal and thousands of traversals per SCC
//! run, that churn is measurable. [`Frontier`] double-buffers instead:
//! the current level, the gather target, and one expansion buffer per
//! worker are all long-lived and reuse their capacity, so steady-state
//! level advancement performs no heap allocation.
//!
//! [`ClaimSet`] is the companion visited/claim layer: a thin protocol
//! wrapper over [`AtomicBitSet`] whose fetch-or claim guarantees that of
//! all threads concurrently discovering a node, exactly one wins and
//! enqueues it — the invariant that keeps frontiers duplicate-free without
//! any locking.

use crate::bitset::AtomicBitSet;

/// A double-buffered traversal frontier with per-worker chunked
/// next-frontier collection.
///
/// The expansion callback receives a contiguous chunk of the current
/// frontier and a per-worker output buffer; chunk results are concatenated
/// in chunk order. Frontier *order* within a level therefore depends on
/// which worker claims a node first and is not deterministic across runs —
/// but level membership is, whenever the claim protocol is (one claim per
/// node, level-synchronous barriers between levels).
///
/// # Examples
///
/// ```
/// use swscc_parallel::{ClaimSet, Frontier};
///
/// let adj = vec![vec![1u32, 2], vec![3], vec![3], vec![]];
/// let visited = ClaimSet::new(4);
/// visited.claim(0);
/// let mut f = Frontier::new();
/// f.seed([0u32]);
/// while !f.is_empty() {
///     f.advance(2, |chunk, out| {
///         for &u in chunk {
///             for &n in &adj[u as usize] {
///                 if visited.claim(n as usize) {
///                     out.push(n);
///                 }
///             }
///         }
///     });
/// }
/// assert_eq!(visited.count(), 4);
/// ```
#[derive(Default)]
pub struct Frontier {
    /// The current level's members.
    current: Vec<u32>,
    /// After an advance: the previous level (swapped out); doubles as the
    /// gather target for the next advance.
    spare: Vec<u32>,
    /// Per-worker expansion buffers, kept across levels.
    bufs: Vec<Vec<u32>>,
}

impl Frontier {
    /// An empty frontier.
    pub fn new() -> Self {
        Frontier::default()
    }

    /// An empty frontier whose buffers start with `cap` reserved slots.
    pub fn with_capacity(cap: usize) -> Self {
        Frontier {
            current: Vec::with_capacity(cap),
            spare: Vec::with_capacity(cap),
            bufs: Vec::new(),
        }
    }

    /// Replaces the frontier contents with `items`.
    pub fn seed(&mut self, items: impl IntoIterator<Item = u32>) {
        self.current.clear();
        self.current.extend(items);
    }

    /// Appends one node to the current frontier.
    #[inline]
    pub fn push(&mut self, v: u32) {
        self.current.push(v);
    }

    /// Appends `items` to the current frontier.
    pub fn extend_from_slice(&mut self, items: &[u32]) {
        self.current.extend_from_slice(items);
    }

    /// Number of nodes in the current frontier.
    #[inline]
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// `true` iff the current frontier is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    /// The current frontier's members.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.current
    }

    /// The *previous* frontier — whatever was current before the last
    /// [`advance`](Frontier::advance). Lets callers post-process the level
    /// they just expanded (e.g. sparse-reset its membership bits) without
    /// keeping their own copy.
    #[inline]
    pub fn previous(&self) -> &[u32] {
        &self.spare
    }

    /// Empties the frontier (buffers keep their capacity).
    pub fn clear(&mut self) {
        self.current.clear();
        self.spare.clear();
    }

    /// Advances one level: expands the current frontier through `expand`
    /// and replaces it with the gathered results. With `workers <= 1` (or
    /// a frontier smaller than the worker count) expansion runs inline on
    /// the calling thread; otherwise the frontier is split into contiguous
    /// chunks expanded on scoped threads, one reusable buffer per worker.
    pub fn advance<F>(&mut self, workers: usize, expand: F)
    where
        F: Fn(&[u32], &mut Vec<u32>) + Sync,
    {
        std::mem::swap(&mut self.current, &mut self.spare);
        gather(
            &self.spare,
            &mut self.current,
            &mut self.bufs,
            workers,
            &expand,
        );
    }

    /// Like [`advance`](Frontier::advance), but expands an external item
    /// list instead of the current frontier (the bottom-up sweep case,
    /// where the candidate pool — not the frontier — is scanned). The
    /// current frontier is still rotated into [`previous`](Frontier::previous).
    pub fn advance_over<F>(&mut self, items: &[u32], workers: usize, expand: F)
    where
        F: Fn(&[u32], &mut Vec<u32>) + Sync,
    {
        std::mem::swap(&mut self.current, &mut self.spare);
        gather(items, &mut self.current, &mut self.bufs, workers, &expand);
    }
}

/// Expands `items` into `out` using up to `workers` scoped threads and the
/// per-worker `bufs`, concatenating buffer contents in chunk order.
fn gather<F>(
    items: &[u32],
    out: &mut Vec<u32>,
    bufs: &mut Vec<Vec<u32>>,
    workers: usize,
    expand: &F,
) where
    F: Fn(&[u32], &mut Vec<u32>) + Sync,
{
    out.clear();
    if items.is_empty() {
        return;
    }
    let w = workers.max(1).min(items.len());
    if w <= 1 {
        expand(items, out);
        return;
    }
    let per = items.len().div_ceil(w);
    let nchunks = items.len().div_ceil(per);
    if bufs.len() < nchunks {
        bufs.resize_with(nchunks, Vec::new);
    }
    swscc_sync::thread::scope(|s| {
        let mut pairs = items.chunks(per).zip(bufs.iter_mut());
        let (chunk0, buf0) = pairs.next().expect("nonempty items");
        let handles: Vec<_> = pairs
            .map(|(chunk, buf)| {
                s.spawn(move || {
                    buf.clear();
                    expand(chunk, buf);
                })
            })
            .collect();
        buf0.clear();
        expand(chunk0, buf0);
        // Chunk 0 ran inline, so spawned handles cover chunks 1...
        for (i, h) in handles.into_iter().enumerate() {
            if let Err(payload) = h.join() {
                crate::pool::propagate_worker_panic("frontier expansion", i + 1, payload);
            }
        }
    });
    for buf in bufs.iter().take(nchunks) {
        out.extend_from_slice(buf);
    }
}

/// The shared visited/claim layer: an [`AtomicBitSet`] with claim-protocol
/// semantics.
///
/// `claim` is a lock-free test-and-set — among all threads racing to claim
/// a node, exactly one receives `true` and becomes responsible for
/// enqueueing it. Traversal kernels use this (or an equivalent CAS on
/// their own per-node state) as the *only* synchronization between workers
/// within a level; the level barrier does the rest.
///
/// # Examples
///
/// ```
/// use swscc_parallel::ClaimSet;
///
/// let visited = ClaimSet::new(64);
/// assert!(visited.claim(7));   // first claimant wins …
/// assert!(!visited.claim(7));  // … every other claimant loses
/// assert!(visited.contains(7));
/// visited.release(7);
/// assert!(!visited.contains(7));
/// ```
pub struct ClaimSet {
    bits: AtomicBitSet,
}

impl ClaimSet {
    /// A claim set over `len` node ids, all unclaimed.
    pub fn new(len: usize) -> Self {
        ClaimSet {
            bits: AtomicBitSet::new(len),
        }
    }

    /// Capacity in node ids.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// `true` iff the set has zero capacity.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Atomically claims `i`; `true` iff this caller won (the bit was
    /// previously clear).
    #[inline]
    pub fn claim(&self, i: usize) -> bool {
        self.bits.set(i)
    }

    /// `true` iff `i` is currently claimed.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.bits.get(i)
    }

    /// Releases a claim (sparse reset — the reuse path between rounds).
    #[inline]
    pub fn release(&self, i: usize) {
        self.bits.clear(i);
    }

    /// Claims (`on`) or releases `i` through exclusive access — the cheap
    /// path for an owner that fills or clears the set between parallel
    /// phases, such as a traversal marking its frontier.
    #[inline]
    pub fn put(&mut self, i: usize, on: bool) {
        self.bits.put(i, on);
    }

    /// Releases every claim.
    pub fn release_all(&self) {
        self.bits.clear_all();
    }

    /// Number of claimed ids.
    pub fn count(&self) -> usize {
        self.bits.count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swscc_sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn seed_and_inspect() {
        let mut f = Frontier::new();
        assert!(f.is_empty());
        f.seed([3u32, 1, 4]);
        assert_eq!(f.len(), 3);
        assert_eq!(f.as_slice(), &[3, 1, 4]);
        f.push(9);
        f.extend_from_slice(&[2, 6]);
        assert_eq!(f.as_slice(), &[3, 1, 4, 9, 2, 6]);
        f.clear();
        assert!(f.is_empty());
    }

    #[test]
    fn advance_sequential_replaces_frontier() {
        let mut f = Frontier::new();
        f.seed([0u32, 1]);
        f.advance(1, |chunk, out| {
            for &u in chunk {
                out.push(u + 10);
            }
        });
        assert_eq!(f.as_slice(), &[10, 11]);
        assert_eq!(f.previous(), &[0, 1]);
    }

    #[test]
    fn advance_parallel_preserves_chunk_order() {
        let mut f = Frontier::new();
        f.seed(0..1000u32);
        f.advance(4, |chunk, out| {
            for &u in chunk {
                if u % 2 == 0 {
                    out.push(u);
                }
            }
        });
        // chunk-ordered concatenation of an order-preserving expansion
        // keeps the global order
        let expected: Vec<u32> = (0..1000).filter(|u| u % 2 == 0).collect();
        assert_eq!(f.as_slice(), &expected[..]);
    }

    #[test]
    fn advance_over_external_pool() {
        let mut f = Frontier::new();
        f.seed([7u32]);
        let pool: Vec<u32> = (0..100).collect();
        f.advance_over(&pool, 3, |chunk, out| {
            for &v in chunk {
                if v >= 95 {
                    out.push(v);
                }
            }
        });
        assert_eq!(f.as_slice(), &[95, 96, 97, 98, 99]);
        assert_eq!(f.previous(), &[7]);
    }

    #[test]
    fn steady_state_reuses_buffers() {
        let mut f = Frontier::new();
        f.seed(0..512u32);
        // warm up buffers at width 4
        f.advance(4, |chunk, out| out.extend_from_slice(chunk));
        let caps: Vec<usize> = f.bufs.iter().map(Vec::capacity).collect();
        for _ in 0..10 {
            f.advance(4, |chunk, out| out.extend_from_slice(chunk));
            assert_eq!(f.len(), 512);
        }
        let caps_after: Vec<usize> = f.bufs.iter().map(Vec::capacity).collect();
        assert_eq!(caps, caps_after, "buffers must not be reallocated");
    }

    #[test]
    fn empty_frontier_advance_is_noop() {
        let mut f = Frontier::new();
        f.advance(4, |_chunk, _out| {
            panic!("must not expand an empty frontier")
        });
        assert!(f.is_empty());
    }

    #[test]
    fn claims_are_exclusive_across_threads() {
        // Miri runs the same protocol at a fraction of the size.
        let n = if cfg!(miri) { 512 } else { 10_000 };
        let set = ClaimSet::new(n);
        let wins = AtomicUsize::new(0);
        swscc_sync::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..n {
                        if set.claim(i) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), n);
        assert_eq!(set.count(), n);
    }

    #[test]
    fn release_reopens_claims() {
        let set = ClaimSet::new(8);
        assert!(set.claim(5));
        set.release(5);
        assert!(set.claim(5));
        set.release_all();
        assert_eq!(set.count(), 0);
        assert!(!set.is_empty()); // capacity, not contents
        assert_eq!(set.len(), 8);
    }
}
