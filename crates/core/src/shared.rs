//! Structures an epoch snapshot shares with the engine that maintains
//! it: copy-on-write label pages and a condensation kept as a shared
//! base plus a small overlay.
//!
//! The serve layer publishes a new [`crate::SccSnapshot`] after every
//! write batch. Rebuilding N labels and the condensation each time made
//! a served write O(N + M) even when the engine's own repair was O(1).
//! Instead, the engine and every published epoch hold the same
//! `Arc`-shared pieces, and a write replaces only the pieces it changes:
//!
//! * [`PagedVec`] — a fixed-length array in `Arc` pages of [`PAGE`]
//!   entries. Writing an entry whose page a published epoch still holds
//!   copies that one page first, so an epoch never sees a later write.
//! * [`Condensation`] — the condensation DAG as an `Arc`-shared CSR base
//!   plus an `Arc`-shared overlay of added and removed inter-component
//!   edges. An edge-level write touches only the overlay; the overlay
//!   folds into a fresh base on compaction.
//!
//! It also holds `Stamps`, the generation-stamped visit marks that the
//! engine's and the snapshot's searches keep between queries.

use rustc_hash::FxHashMap;
use std::collections::VecDeque;
use std::sync::Arc;
use swscc_graph::bfs::Direction;
use swscc_graph::{CsrGraph, GraphView, NodeId};

/// Entries per page of a [`PagedVec`].
pub const PAGE: usize = 1024;

/// Spacing between consecutive topological positions after a (re)build.
/// Splits carve positions out of the gaps; a gap that runs dry triggers
/// one global renumbering, which restores the full spacing.
pub(crate) const POS_GAP: u64 = 1 << 32;

/// A fixed-length array stored as `Arc`-shared pages of [`PAGE`]
/// entries. Cloning copies the page table, not the pages; a write
/// copies a page only if another clone still holds it.
#[derive(Clone, Debug)]
pub struct PagedVec<T> {
    pages: Vec<Arc<[T; PAGE]>>,
    len: usize,
}

impl<T: Copy + Default> PagedVec<T> {
    /// Pages `values` (the tail of the last page is padding).
    pub(crate) fn from_slice(values: &[T]) -> PagedVec<T> {
        let pages = values
            .chunks(PAGE)
            .map(|chunk| {
                let mut page = [T::default(); PAGE];
                page[..chunk.len()].copy_from_slice(chunk);
                Arc::new(page)
            })
            .collect();
        PagedVec {
            pages,
            len: values.len(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        assert!(
            i < self.len,
            "index {i} out of range for {} entries",
            self.len
        );
        self.pages[i / PAGE][i % PAGE]
    }

    /// Sets entry `i`, copying its page first if another clone shares it.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub(crate) fn set(&mut self, i: usize, value: T) {
        assert!(
            i < self.len,
            "index {i} out of range for {} entries",
            self.len
        );
        Arc::make_mut(&mut self.pages[i / PAGE])[i % PAGE] = value;
    }

    /// Grows to `len` entries, filling new ones with `T::default()`
    /// (the padding of the last page already holds it). Existing pages
    /// stay shared.
    pub(crate) fn grow(&mut self, len: usize) {
        while self.pages.len() * PAGE < len {
            self.pages.push(Arc::new([T::default(); PAGE]));
        }
        self.len = self.len.max(len);
    }

    /// All entries, in order.
    pub fn to_vec(&self) -> Vec<T> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// How many pages `self` and `other` hold in common (the same
    /// allocation at the same page index) — a write that copied no page
    /// leaves every page shared with the epoch before it.
    pub fn shared_pages(&self, other: &PagedVec<T>) -> usize {
        self.pages
            .iter()
            .zip(&other.pages)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }
}

/// Added and removed inter-component edges on top of a condensation
/// base, keyed by source component (`added_in` indexes `added` by
/// target). Every list is sorted; `added` is disjoint from the base,
/// `removed` is a subset of it.
#[derive(Clone, Debug, Default)]
struct Overlay {
    added: FxHashMap<u32, Vec<u32>>,
    added_in: FxHashMap<u32, Vec<u32>>,
    removed: FxHashMap<u32, Vec<u32>>,
    len: usize,
}

/// Inserts `x` into the sorted list `map[key]` (if absent).
fn sorted_insert(map: &mut FxHashMap<u32, Vec<u32>>, key: u32, x: u32) {
    let list = map.entry(key).or_default();
    if let Err(i) = list.binary_search(&x) {
        list.insert(i, x);
    }
}

/// Removes `x` from the sorted list `map[key]` (if present), dropping
/// the list once empty.
fn sorted_remove(map: &mut FxHashMap<u32, Vec<u32>>, key: u32, x: u32) {
    let Some(list) = map.get_mut(&key) else {
        return;
    };
    if let Ok(i) = list.binary_search(&x) {
        list.remove(i);
    }
    if list.is_empty() {
        map.remove(&key);
    }
}

/// The condensation DAG — one node per component id, one edge per
/// connected pair of components — as an `Arc`-shared CSR base plus an
/// `Arc`-shared overlay. Node ids are component ids, which need not be
/// dense: ids of components that merged away are isolated nodes.
#[derive(Clone, Debug)]
pub struct Condensation {
    base: Arc<CsrGraph>,
    overlay: Arc<Overlay>,
    /// Size of the component-id space; ids past the base's node count
    /// have overlay edges only.
    num_ids: usize,
}

impl Condensation {
    /// A condensation with `base` as its whole edge set.
    pub(crate) fn from_base(base: CsrGraph) -> Condensation {
        Condensation {
            num_ids: base.num_nodes(),
            base: Arc::new(base),
            overlay: Arc::default(),
        }
    }

    /// Widens the component-id space to `num_ids` (new ids start with
    /// no edges).
    pub(crate) fn grow_ids(&mut self, num_ids: usize) {
        self.num_ids = self.num_ids.max(num_ids);
    }

    /// Number of condensation edges.
    pub fn num_edges(&self) -> usize {
        let added: usize = self.overlay.added.values().map(Vec::len).sum();
        let removed: usize = self.overlay.removed.values().map(Vec::len).sum();
        self.base.num_edges() + added - removed
    }

    /// Overlay entries not yet folded into the base.
    pub fn pending(&self) -> usize {
        self.overlay.len
    }

    /// Whether `self` and `other` hold the same base allocation — an
    /// edge-level write shares the base with the epoch before it.
    pub fn shares_base_with(&self, other: &Condensation) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }

    fn base_has(&self, a: u32, b: u32) -> bool {
        let n = self.base.num_nodes();
        (a as usize) < n && (b as usize) < n && self.base.has_edge(a, b)
    }

    /// Whether the edge `a -> b` is present.
    pub(crate) fn has_edge(&self, a: u32, b: u32) -> bool {
        let listed = |map: &FxHashMap<u32, Vec<u32>>| {
            map.get(&a).is_some_and(|l| l.binary_search(&b).is_ok())
        };
        if self.base_has(a, b) {
            !listed(&self.overlay.removed)
        } else {
            listed(&self.overlay.added)
        }
    }

    /// Calls `f` on every successor of `a` until it returns `false`.
    #[inline]
    pub(crate) fn for_each_successor_while(&self, a: u32, mut f: impl FnMut(u32) -> bool) {
        // graphview: the base is a raw CSR by construction (built here
        // from an edge list), whatever backend the input graph uses.
        let base = if (a as usize) < self.base.num_nodes() {
            self.base.out_neighbors(a)
        } else {
            &[]
        };
        if self.overlay.len == 0 {
            for &b in base {
                if !f(b) {
                    return;
                }
            }
            return;
        }
        let removed = self.overlay.removed.get(&a).map_or(&[][..], Vec::as_slice);
        for &b in base {
            if removed.binary_search(&b).is_err() && !f(b) {
                return;
            }
        }
        for &b in self.overlay.added.get(&a).map_or(&[][..], Vec::as_slice) {
            if !f(b) {
                return;
            }
        }
    }

    /// Calls `f` on every predecessor of `b`.
    pub(crate) fn for_each_predecessor(&self, b: u32, mut f: impl FnMut(u32)) {
        if (b as usize) < self.base.num_nodes() {
            // graphview: the base is a raw CSR by construction.
            for &a in self.base.in_neighbors(b) {
                let removed = self.overlay.len > 0
                    && self
                        .overlay
                        .removed
                        .get(&a)
                        .is_some_and(|l| l.binary_search(&b).is_ok());
                if !removed {
                    f(a);
                }
            }
        }
        for &a in self.overlay.added_in.get(&b).map_or(&[][..], Vec::as_slice) {
            f(a);
        }
    }

    /// Every edge, sorted.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.num_edges());
        for a in 0..self.num_ids as u32 {
            self.for_each_successor_while(a, |b| {
                out.push((a, b));
                true
            });
        }
        out.sort_unstable();
        out
    }

    /// Adds `a -> b` through the overlay (copying it if a published
    /// epoch shares it). Returns whether the edge set changed.
    pub(crate) fn insert_edge(&mut self, a: u32, b: u32) -> bool {
        if self.has_edge(a, b) {
            return false;
        }
        let in_base = self.base_has(a, b);
        let overlay = Arc::make_mut(&mut self.overlay);
        if in_base {
            sorted_remove(&mut overlay.removed, a, b);
            overlay.len -= 1;
        } else {
            sorted_insert(&mut overlay.added, a, b);
            sorted_insert(&mut overlay.added_in, b, a);
            overlay.len += 1;
        }
        true
    }

    /// Removes `a -> b` through the overlay. Returns whether the edge
    /// set changed.
    pub(crate) fn remove_edge(&mut self, a: u32, b: u32) -> bool {
        if !self.has_edge(a, b) {
            return false;
        }
        let in_base = self.base_has(a, b);
        let overlay = Arc::make_mut(&mut self.overlay);
        if in_base {
            sorted_insert(&mut overlay.removed, a, b);
            overlay.len += 1;
        } else {
            sorted_remove(&mut overlay.added, a, b);
            sorted_remove(&mut overlay.added_in, b, a);
            overlay.len -= 1;
        }
        true
    }

    /// Folds the overlay into a fresh base (O(base + overlay)). A no-op
    /// when the overlay is empty.
    pub(crate) fn fold(&mut self) {
        if self.overlay.len == 0 {
            return;
        }
        *self = Condensation::from_base(CsrGraph::from_edges(self.num_ids, &self.edges()));
    }
}

/// Kahn topological ranks over a condensation DAG: `ranks[c]` is the
/// position of component `c` in one valid topological order.
pub(crate) fn topo_ranks(cond: &CsrGraph) -> Vec<u32> {
    let n = cond.num_nodes();
    let mut indeg: Vec<u32> = (0..n).map(|c| cond.in_degree(c as NodeId) as u32).collect();
    let mut queue: VecDeque<u32> = (0..n as u32).filter(|&c| indeg[c as usize] == 0).collect();
    let mut ranks = vec![0u32; n];
    let mut next = 0u32;
    while let Some(c) = queue.pop_front() {
        ranks[c as usize] = next;
        next += 1;
        cond.for_each_neighbor(Direction::Forward, c, |d| {
            indeg[d as usize] -= 1;
            if indeg[d as usize] == 0 {
                queue.push_back(d);
            }
        });
    }
    debug_assert_eq!(next as usize, n, "condensation must be acyclic");
    ranks
}

/// Generation-stamped visit marks: entry `i` counts as marked with stamp
/// `s` while `self[i] == s`, so a search that takes fresh stamps from
/// [`Stamps::begin`] clears every older mark in O(1).
#[derive(Default)]
pub(crate) struct Stamps {
    stamps: Vec<u32>,
    /// The highest stamp handed out; every entry holds at most this.
    current: u32,
}

impl Stamps {
    pub(crate) const fn new() -> Stamps {
        Stamps {
            stamps: Vec::new(),
            current: 0,
        }
    }

    /// Sizes the array for `len` ids and returns the first of `k` fresh
    /// stamps, `first..first + k`, which no entry holds yet. A wrap
    /// clears the array for real.
    pub(crate) fn begin(&mut self, len: usize, k: u32) -> u32 {
        if self.stamps.len() < len {
            self.stamps.resize(len, 0);
        }
        if self.current > u32::MAX - k {
            self.stamps.fill(0);
            self.current = 0;
        }
        let first = self.current + 1;
        self.current += k;
        first
    }

    /// Number of ids the array covers.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.stamps.len()
    }

    /// Whether no search has sized the array yet.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }
}

impl std::ops::Index<usize> for Stamps {
    type Output = u32;
    fn index(&self, i: usize) -> &u32 {
        &self.stamps[i]
    }
}

impl std::ops::IndexMut<usize> for Stamps {
    fn index_mut(&mut self, i: usize) -> &mut u32 {
        &mut self.stamps[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_clear_on_wrap() {
        let mut s = Stamps::new();
        assert_eq!(s.begin(4, 2), 1);
        s[0] = 1;
        s[1] = 2;
        assert_eq!(s.begin(4, 1), 3, "fresh stamps follow the last ones");
        assert!((0..4).all(|i| s[i] != 3));
        // Two stamps left before the wrap: a 2-stamp search still fits,
        // the next one clears the array and starts over.
        s.current = u32::MAX - 2;
        s[2] = u32::MAX - 2;
        assert_eq!(s.begin(4, 2), u32::MAX - 1);
        s[3] = u32::MAX;
        assert_eq!(s.begin(6, 2), 1);
        assert_eq!(s.len(), 6);
        assert!((0..6).all(|i| s[i] == 0), "the wrap cleared every mark");
        assert_eq!(s.begin(6, 1), 3);
    }

    #[test]
    fn paged_set_copies_only_shared_pages() {
        let values: Vec<u32> = (0..3 * PAGE as u32 + 5).collect();
        let mut a = PagedVec::from_slice(&values);
        assert_eq!(a.len(), values.len());
        assert_eq!(a.num_pages(), 4);
        let b = a.clone();
        a.set(PAGE + 3, 7);
        assert_eq!(a.get(PAGE + 3), 7);
        assert_eq!(
            b.get(PAGE + 3),
            PAGE as u32 + 3,
            "the clone keeps its value"
        );
        assert_eq!(a.shared_pages(&b), 3, "only page 1 was copied");
        a.set(PAGE + 4, 8);
        assert_eq!(
            a.shared_pages(&b),
            3,
            "an unshared page is written in place"
        );
        a.grow(4 * PAGE + 1);
        let mut want = values.clone();
        want[PAGE + 3] = 7;
        want[PAGE + 4] = 8;
        want.resize(4 * PAGE + 1, 0);
        assert_eq!(a.to_vec(), want);
    }

    #[test]
    fn overlay_tracks_the_edge_set() {
        let base = CsrGraph::from_edges(4, &[(0, 1), (1, 2)]);
        let mut c = Condensation::from_base(base);
        let before = c.clone();
        assert!(!c.insert_edge(0, 1), "already in the base");
        assert!(c.insert_edge(2, 3));
        assert!(c.remove_edge(0, 1));
        assert!(!c.remove_edge(0, 1), "already removed");
        assert!(c.insert_edge(0, 1), "restores the base edge");
        assert!(c.remove_edge(0, 1));
        assert_eq!(c.edges(), vec![(1, 2), (2, 3)]);
        assert_eq!(c.pending(), 2);
        let preds = |c: &Condensation, b| {
            let mut p = Vec::new();
            c.for_each_predecessor(b, |a| p.push(a));
            p
        };
        assert_eq!(preds(&c, 1), Vec::<u32>::new(), "0->1 is removed");
        assert_eq!(preds(&c, 3), vec![2], "2->3 is added");
        c.grow_ids(6);
        assert!(c.insert_edge(3, 5), "an id past the base");
        assert!(c.remove_edge(3, 5));
        assert!(c.shares_base_with(&before));
        assert_eq!(
            before.edges(),
            vec![(0, 1), (1, 2)],
            "the old epoch is intact"
        );
        c.fold();
        assert_eq!(c.pending(), 0);
        assert!(!c.shares_base_with(&before));
        assert_eq!(c.edges(), vec![(1, 2), (2, 3)]);
        assert_eq!(c.num_edges(), 2);
    }
}
