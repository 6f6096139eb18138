//! What a served write and a reach query cost, counted rather than
//! timed.
//!
//! * A write publishes a snapshot that shares structure with the epoch
//!   before it. An in-order insert must copy no label page and keep the
//!   condensation base; a merge copies only the pages of the nodes it
//!   relabels, and only a full rebuild replaces the base. Sharing is
//!   checked by pointer identity of the pages and the base between
//!   consecutive snapshots.
//! * An intra-SCC delete that the reachability check certifies must
//!   write nothing shared — no label or position page, no condensation
//!   overlay entry — and allocate the same bytes whether the component
//!   has 1k or 16k nodes.
//! * A back-edge merge of two small SCCs whose position window holds a
//!   large SCC must merge without a full rebuild and allocate the same
//!   bytes whether that SCC has 1k or 16k nodes: the search walks the
//!   condensation, never the large SCC's members.
//! * `condensation_reach` must allocate nothing per query, counted by
//!   the per-thread counting allocator this test binary installs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use swscc::core::incremental::{IncrementalEngine, Mutation, MutationOutcome};
use swscc::graph::{CsrGraph, DeltaGraph, GraphView};
use swscc::parallel::pool::with_pool;
use swscc::{Algorithm, Pipeline, RunGuard, SccConfig, SccSnapshot};

/// Counts the bytes each thread allocates, then defers to the system
/// allocator.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's own
// pointer and layout; counting touches only a const thread-local `Cell`,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's layout contract passes through unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards to `System`, as `alloc` does.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: forwards to `System`, which allocated `ptr`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: forwards to `System`, which allocated `ptr`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Bytes this thread allocated while running `f`.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATED.with(Cell::get);
    let r = f();
    (r, ALLOCATED.with(Cell::get) - before)
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random DAG on `n` nodes (every edge from a higher id to a lower
/// one, as in the patents analog) plus a few 3-cycles, so there are
/// many components and several label pages.
fn dag_with_cycles(n: u32, m: usize, seed: u64) -> CsrGraph {
    let mut s = seed;
    let mut edges: Vec<(u32, u32)> = (0..m)
        .filter_map(|_| {
            let u = (splitmix64(&mut s) % u64::from(n)) as u32;
            let v = (splitmix64(&mut s) % u64::from(n)) as u32;
            (u != v).then(|| (u.max(v), u.min(v)))
        })
        .collect();
    for c in (0..n - 3).step_by(997) {
        edges.extend([(c, c + 1), (c + 1, c + 2), (c + 2, c)]);
    }
    CsrGraph::from_edges(n as usize, &edges)
}

fn engine(g: CsrGraph) -> IncrementalEngine<CsrGraph> {
    IncrementalEngine::new(
        DeltaGraph::new(g),
        Pipeline::stock(Algorithm::Method2).expect("stock pipeline"),
        SccConfig::with_threads(2),
        &RunGuard::new(),
    )
    .expect("initial build")
}

/// Whether `next` shares every label page and the condensation base
/// with `prev`.
fn shares_labels_and_base(prev: &SccSnapshot, next: &SccSnapshot) -> bool {
    next.labels().shared_pages(prev.labels()) == next.labels().num_pages()
        && next.condensation().shares_base_with(prev.condensation())
}

#[test]
fn edge_level_writes_copy_no_label_page_and_keep_the_base() {
    with_pool(2, || {
        let guard = RunGuard::new();
        let n = 5_000u32;
        let mut e = engine(dag_with_cycles(n, 12_000, 0x5EED));
        let mut prev = e.snapshot(&guard).unwrap();
        assert!(prev.labels().num_pages() >= 4);
        let (mut in_order, mut reordered, mut noops) = (0, 0, 0);
        let mut s = 0xC0FFEE;
        // Inserts from a higher id to a lower one keep the graph acyclic
        // apart from the planted 3-cycles, so none of them can merge;
        // deletes of cross edges never split.
        for i in 0..400 {
            let u = (splitmix64(&mut s) % u64::from(n)) as u32;
            let v = (splitmix64(&mut s) % u64::from(n)) as u32;
            let (hi, lo) = (u.max(v), u.min(v));
            let m = if i % 4 == 3 && prev.scc_id(hi) != prev.scc_id(lo) {
                Mutation::Delete(hi, lo)
            } else {
                Mutation::Insert(hi, lo)
            };
            let outcome = e.apply(m, &guard).unwrap();
            let next = e.snapshot(&guard).unwrap();
            match outcome {
                MutationOutcome::InOrder => in_order += 1,
                MutationOutcome::Reordered => reordered += 1,
                MutationOutcome::Noop => noops += 1,
                other => panic!("{m:?} cannot change a component, got {other:?}"),
            }
            assert!(
                shares_labels_and_base(&prev, &next),
                "{m:?} ({outcome:?}) copied a label page or rebuilt the condensation base"
            );
            if outcome != MutationOutcome::Reordered {
                assert_eq!(
                    next.positions().shared_pages(prev.positions()),
                    next.positions().num_pages(),
                    "{outcome:?} moved no component, so it copies no position page"
                );
            }
            prev = next;
        }
        assert!(
            in_order > 100 && reordered > 0 && noops > 0,
            "script must cover every edge-level path: {in_order} in order, \
             {reordered} reordered, {noops} no-ops"
        );
        // A merge changes components: it copies the label pages of the
        // relabelled nodes and moves their condensation edges through
        // the overlay. Only a full rebuild replaces the base.
        let before = e.snapshot(&guard).unwrap();
        let (a, b) = e
            .graph()
            .materialize_csr()
            .edges()
            .find(|&(a, b)| before.scc_id(a) != before.scc_id(b))
            .expect("a cross-component edge");
        assert!(matches!(
            e.apply(Mutation::Insert(b, a), &guard).unwrap(),
            MutationOutcome::Merged { .. }
        ));
        let after = e.snapshot(&guard).unwrap();
        assert!(after.condensation().shares_base_with(before.condensation()));
        let copied = after.labels().num_pages() - after.labels().shared_pages(before.labels());
        assert!(
            (1..=2).contains(&copied),
            "two merged singletons relabel one node: one page, got {copied}"
        );
        assert_eq!(
            before.same_scc(a, b),
            Some(false),
            "the old epoch is intact"
        );
        assert_eq!(after.same_scc(a, b), Some(true));
        e.rebuild(&guard).unwrap();
        let rebuilt = e.snapshot(&guard).unwrap();
        assert!(!rebuilt
            .condensation()
            .shares_base_with(after.condensation()));
        assert_eq!(rebuilt.labels().shared_pages(after.labels()), 0);
    });
}

/// Bytes allocated by a certified chord delete inside a `k`-node SCC,
/// after one warm-up delete sized the engine's search state. The SCC
/// is a ring with skip chords `i -> i + 2`; two nodes hang off it so
/// the condensation has edges.
fn certified_delete_bytes(k: u32) -> u64 {
    let guard = RunGuard::new();
    let mut edges: Vec<(u32, u32)> = (0..k).map(|i| (i, (i + 1) % k)).collect();
    edges.extend((0..k).map(|i| (i, (i + 2) % k)));
    edges.extend([(0, k), (k + 1, 0)]);
    let mut cfg = SccConfig::with_threads(2);
    // Below the component's size, so a residue re-run would degrade.
    cfg.incremental_residue_limit = 512;
    let mut e = IncrementalEngine::new(
        DeltaGraph::new(CsrGraph::from_edges(k as usize + 2, &edges)),
        Pipeline::stock(Algorithm::Method2).expect("stock pipeline"),
        cfg,
        &guard,
    )
    .expect("initial build");
    assert_eq!(e.num_components(), 3);
    let certified = MutationOutcome::Repaired { parts: 1 };
    assert_eq!(e.delete_edge(0, 2, &guard).unwrap(), certified);
    let before = e.snapshot(&guard).unwrap();
    let (outcome, bytes) = allocated_by(|| e.delete_edge(k / 2, k / 2 + 2, &guard).unwrap());
    assert_eq!(outcome, certified);
    let after = e.snapshot(&guard).unwrap();
    assert!(
        shares_labels_and_base(&before, &after),
        "a certified delete copied a label page or rebuilt the base"
    );
    assert_eq!(
        after.positions().shared_pages(before.positions()),
        after.positions().num_pages(),
        "a certified delete moves no component"
    );
    assert_eq!(
        after.condensation().pending(),
        before.condensation().pending()
    );
    let c = e.counters();
    assert_eq!(
        (c.certified, c.dirty_repairs, c.full_rebuilds),
        (2, 0, 0),
        "{c:?}"
    );
    bytes
}

#[test]
fn certified_intra_scc_delete_writes_nothing_shared_and_allocates_o1() {
    with_pool(2, || {
        let small = certified_delete_bytes(1_000);
        let large = certified_delete_bytes(16_000);
        assert_eq!(
            small, large,
            "a certified delete allocated bytes that grow with the component"
        );
    });
}

/// Bytes allocated by a back-edge merge of two small SCCs whose
/// position window holds a `k`-node SCC, after one warm-up merge sized
/// the engine's search state.
///
/// Two gadgets `i` share the `k`-node SCC `G` (a ring with skip chords
/// `j -> j + 2`): a 3-cycle `A_i` feeds `G` and the singleton `P_i`,
/// which feeds the 3-cycle `B_i`. The chain puts `B_i` a layer after
/// `G`, so `A_i < G < B_i` in position, and inserting `B_i -> A_i`
/// merges `{A_i, P_i, B_i}` with `G` popped by the forward search.
fn merge_beside_bytes(k: u32) -> u64 {
    let guard = RunGuard::new();
    let gadget = |i: u32| -> [u32; 3] { [7 * i, 7 * i + 3, 7 * i + 4] };
    let giant = 14;
    let mut edges = Vec::new();
    for i in 0..2 {
        let [a, p, b] = gadget(i);
        edges.extend([(a, a + 1), (a + 1, a + 2), (a + 2, a)]);
        edges.extend([(b, b + 1), (b + 1, b + 2), (b + 2, b)]);
        edges.extend([(a, giant), (a, p), (p, b)]);
    }
    edges.extend((0..k).map(|j| (giant + j, giant + (j + 1) % k)));
    edges.extend((0..k).map(|j| (giant + j, giant + (j + 2) % k)));
    let mut cfg = SccConfig::with_threads(2);
    // Below the large SCC's size: a search that read its members would
    // run out of budget and degrade to a full rebuild.
    cfg.incremental_residue_limit = 512;
    let mut e = IncrementalEngine::new(
        DeltaGraph::new(CsrGraph::from_edges((giant + k) as usize, &edges)),
        Pipeline::stock(Algorithm::Method2).expect("stock pipeline"),
        cfg,
        &guard,
    )
    .expect("initial build");
    assert_eq!(e.num_components(), 7);
    let merged = MutationOutcome::Merged { merged: 3 };
    let [a0, _, b0] = gadget(0);
    assert_eq!(e.insert_edge(b0, a0, &guard).unwrap(), merged);
    let before = e.snapshot(&guard).unwrap();
    let [a1, _, b1] = gadget(1);
    let pos = |n: u32| {
        let c = before.scc_id(n).expect("in range");
        before.positions().get(c as usize)
    };
    assert!(
        pos(a1) < pos(giant) && pos(giant) < pos(b1),
        "the large SCC lies inside the merge's position window"
    );
    let (outcome, bytes) = allocated_by(|| e.insert_edge(b1, a1, &guard).unwrap());
    assert_eq!(outcome, merged);
    let after = e.snapshot(&guard).unwrap();
    assert!(after.condensation().shares_base_with(before.condensation()));
    assert_eq!(after.same_scc(a1, b1), Some(true));
    assert_eq!(after.same_scc(a1, giant), Some(false));
    let c = e.counters();
    assert_eq!((c.merges, c.full_rebuilds), (2, 0), "{c:?}");
    bytes
}

#[test]
fn merge_beside_a_large_scc_allocates_the_same_at_any_size() {
    with_pool(2, || {
        let small = merge_beside_bytes(1_000);
        let large = merge_beside_bytes(16_000);
        assert_eq!(
            small, large,
            "a back-edge merge allocated bytes that grow with an SCC in its window"
        );
    });
}

#[test]
fn condensation_reach_allocates_nothing() {
    with_pool(2, || {
        let guard = RunGuard::new();
        let n = 20_000u32;
        let g = dag_with_cycles(n, 60_000, 0xDA6);
        let (result, _report) = swscc::detect_scc(&g, Algorithm::Tarjan, &SccConfig::default());
        let batch = SccSnapshot::from_result(&g, result);
        // The engine-published snapshot reads through a non-empty
        // condensation overlay.
        let mut e = engine(g);
        let mut s = 0x0BAD_5EED;
        for _ in 0..200 {
            let u = (splitmix64(&mut s) % u64::from(n)) as u32;
            let v = (splitmix64(&mut s) % u64::from(n)) as u32;
            e.insert_edge(u.max(v), u.min(v), &guard).unwrap();
        }
        let served = e.snapshot(&guard).unwrap();
        assert!(served.condensation().pending() > 0, "overlay in use");

        for snap in [&batch, &served] {
            let pairs: Vec<(u32, u32)> = (0..2_000)
                .map(|_| {
                    let u = (splitmix64(&mut s) % u64::from(n)) as u32;
                    (u, (splitmix64(&mut s) % u64::from(n)) as u32)
                })
                .collect();
            // One query sizes this thread's reusable arrays.
            snap.condensation_reach(n - 1, 0, &guard).unwrap();
            let mut answers = [0usize; 2];
            let ((), bytes) = allocated_by(|| {
                for &(u, v) in &pairs {
                    let hit = snap.condensation_reach(u, v, &guard).unwrap();
                    answers[usize::from(hit == Some(true))] += 1;
                }
            });
            assert_eq!(
                bytes,
                0,
                "reach allocated {bytes} bytes over {} queries",
                pairs.len()
            );
            assert!(
                answers[0] > 0 && answers[1] > 0,
                "sample must hold both answers: {answers:?}"
            );
        }
    });
}
