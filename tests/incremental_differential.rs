//! Differential battery for the incremental SCC maintenance engine.
//!
//! The published snapshot must be *observationally identical* to a
//! from-scratch build at every batch boundary: after each applied batch
//! of mutations, `IncrementalEngine::snapshot` canonical labels equal
//! Tarjan over the materialized `DeltaGraph` (base + live overlay), its
//! condensation equals `SccSnapshot::from_result` on that graph under
//! canonical ids, its positions order every condensation edge, and
//! sampled reach answers equal BFS on the materialized graph.
//! Checked across 1/2/4 threads, both backends (raw and compressed
//! CSR), and batch sizes 1/16/256 — batch size 1 means the oracle runs
//! after *every* mutation, so the O(1) in-order path, the bounded
//! merge, and the dirty-residue repair are each diffed at their finest
//! granularity. A compaction at the end must be invisible to the
//! partition.

use proptest::prelude::*;
use swscc::core::incremental::{IncrementalEngine, Mutation};
use swscc::core::tarjan::tarjan_scc;
use swscc::graph::{CompactBackend, CompressedCsr, CsrGraph, DeltaGraph, GraphView};
use swscc::parallel::pool::with_pool;
use swscc::{Algorithm, Pipeline, RunGuard, SccConfig, SccSnapshot};

const BATCHES: [usize; 3] = [1, 16, 256];

/// One generated case: a base graph plus a mutation script (insert
/// flag, u, v). Deletions of absent edges and duplicate inserts are
/// kept — the engine must treat them as noops, and the oracle diff
/// proves it did.
fn arb_case(max_n: usize) -> impl Strategy<Value = (CsrGraph, Vec<(bool, u32, u32)>)> {
    (2..max_n).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        let base = proptest::collection::vec(edge, 0..3 * n)
            .prop_map(move |edges| CsrGraph::from_edges(n, &edges));
        let step = (any::<bool>(), 0..n as u32, 0..n as u32);
        let script = proptest::collection::vec(step, 1..48);
        (base, script)
    })
}

/// Reach pairs sampled per check.
const REACH_SAMPLES: usize = 24;

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether `v` is reachable from `u`, by BFS over the plain graph.
fn bfs_reaches(g: &CsrGraph, u: u32, v: u32) -> bool {
    let mut seen = vec![false; g.num_nodes()];
    let mut stack = vec![u];
    seen[u as usize] = true;
    while let Some(x) = stack.pop() {
        if x == v {
            return true;
        }
        for &w in g.out_neighbors(x) {
            if !seen[w as usize] {
                seen[w as usize] = true;
                stack.push(w);
            }
        }
    }
    false
}

/// Condensation edges with every component id replaced by its
/// smallest member, so two snapshots of one partition compare equal
/// whatever ids they use.
fn canonical_edges(snap: &SccSnapshot) -> Vec<(u32, u32)> {
    let canonical = snap.canonical_labels();
    let mut rep = vec![u32::MAX; snap.positions().len()];
    for (n, &c) in snap.labels().to_vec().iter().enumerate() {
        rep[c as usize] = canonical[n];
    }
    let mut edges: Vec<_> = snap
        .condensation()
        .edges()
        .into_iter()
        .map(|(a, b)| (rep[a as usize], rep[b as usize]))
        .collect();
    edges.sort_unstable();
    edges
}

/// The published snapshot vs a from-scratch build over the
/// materialized overlay: the same partition (canonical labels vs
/// Tarjan), the same condensation edges under canonical ids, every
/// condensation edge forward in the published positions, and a seeded
/// sample of reach answers equal to BFS on the materialized graph.
fn assert_matches_oracle<G: CompactBackend>(
    engine: &IncrementalEngine<G>,
    guard: &RunGuard,
    at: &str,
    seed: u64,
) {
    let snap = engine.snapshot(guard).expect("snapshot");
    let materialized = engine.graph().materialize_csr();
    let oracle = tarjan_scc(&materialized);
    assert_eq!(
        snap.canonical_labels(),
        oracle.canonical_labels(),
        "{at}: maintained partition diverges from Tarjan"
    );
    assert_eq!(snap.num_components(), oracle.num_components(), "{at}");
    let fresh = SccSnapshot::from_result(&materialized, oracle);
    assert_eq!(
        canonical_edges(&snap),
        canonical_edges(&fresh),
        "{at}: published condensation diverges from a batch build"
    );
    let pos = snap.positions();
    for (a, b) in snap.condensation().edges() {
        assert!(
            pos.get(a as usize) < pos.get(b as usize),
            "{at}: condensation edge {a}->{b} goes backward in the published positions"
        );
    }
    let n = materialized.num_nodes() as u64;
    let mut s = seed;
    for _ in 0..REACH_SAMPLES {
        let u = (splitmix64(&mut s) % n) as u32;
        let v = (splitmix64(&mut s) % n) as u32;
        assert_eq!(
            snap.condensation_reach(u, v, guard),
            Ok(Some(bfs_reaches(&materialized, u, v))),
            "{at}: reach({u}, {v})"
        );
    }
}

/// Runs `script` through a fresh engine over `base` in `batch`-sized
/// chunks, diffing against Tarjan at every batch boundary and once more
/// after a final compaction.
fn run_script<G: CompactBackend>(
    base: G,
    script: &[(bool, u32, u32)],
    threads: usize,
    batch: usize,
    residue_limit: usize,
) {
    let guard = RunGuard::new();
    let mut cfg = SccConfig::with_threads(threads);
    cfg.incremental_residue_limit = residue_limit;
    let pipeline = Pipeline::stock(Algorithm::Method2).expect("method2 has a stock pipeline");
    let mut engine = IncrementalEngine::new(DeltaGraph::new(base), pipeline, cfg, &guard)
        .expect("initial full run");
    assert_matches_oracle(&engine, &guard, "fresh engine", 0);

    for (i, chunk) in script.chunks(batch).enumerate() {
        for &(insert, u, v) in chunk {
            let m = if insert {
                Mutation::Insert(u, v)
            } else {
                Mutation::Delete(u, v)
            };
            engine.apply(m, &guard).expect("mutation");
        }
        let at = format!("batch {i} (size {batch})");
        assert_matches_oracle(&engine, &guard, &at, i as u64 + 1);
    }

    engine.compact();
    assert_matches_oracle(&engine, &guard, "after final compaction", u64::MAX);
    assert_eq!(
        engine.graph().pending(),
        0,
        "compaction must fold the whole overlay"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Maintained partition ≡ Tarjan at every batch boundary, across
    /// 1/2/4 threads × raw/compressed backends × batch sizes 1/16/256.
    #[test]
    fn maintained_partition_tracks_tarjan(
        (g, script) in arb_case(32),
        threads_idx in 0usize..3,
    ) {
        let threads = [1usize, 2, 4][threads_idx];
        let limit = SccConfig::with_threads(threads).incremental_residue_limit;
        with_pool(threads, || {
            for batch in BATCHES {
                run_script(g.clone(), &script, threads, batch, limit);
                run_script(CompressedCsr::from_csr(&g), &script, threads, batch, limit);
            }
        });
    }

    /// A residue limit of 1 forces every deletion repair through the
    /// full-rebuild fallback; the degraded path must stay correct too.
    #[test]
    fn tiny_residue_limit_degrades_but_stays_correct(
        (g, script) in arb_case(20),
    ) {
        with_pool(1, || {
            run_script(g.clone(), &script, 1, 16, 1);
        });
    }
}

/// Deterministic fallback check: deleting a cycle edge inside one big
/// SCC with a tiny residue limit must take the full-rebuild path (the
/// counter proves it) and still match the oracle.
#[test]
fn residue_fallback_is_counted_and_correct() {
    let n = 12u32;
    let mut edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    edges.push((3, 0)); // chord so one deletion keeps the SCC alive
    let g = CsrGraph::from_edges(n as usize, &edges);
    with_pool(1, || {
        let guard = RunGuard::new();
        let mut cfg = SccConfig::with_threads(1);
        cfg.incremental_residue_limit = 1;
        let pipeline = Pipeline::stock(Algorithm::Method2).unwrap();
        let mut engine = IncrementalEngine::new(DeltaGraph::new(g), pipeline, cfg, &guard).unwrap();
        engine.apply(Mutation::Delete(1, 2), &guard).unwrap();
        assert!(
            engine.counters().full_rebuilds > 0,
            "limit 1 must force the fallback"
        );
        assert_matches_oracle(&engine, &guard, "after fallback delete", 7);
    });
}

/// Two graph edges run between the same pair of components: deleting
/// one must keep the condensation edge (and reach across it), deleting
/// the second must drop it.
#[test]
fn parallel_edge_delete_keeps_the_condensation_edge() {
    // Components {0,1} and {2,3}, joined by 0->2 and 1->3.
    let g = CsrGraph::from_edges(4, &[(0, 1), (1, 0), (2, 3), (3, 2), (0, 2), (1, 3)]);
    with_pool(2, || {
        let guard = RunGuard::new();
        let pipeline = Pipeline::stock(Algorithm::Method2).unwrap();
        let mut engine = IncrementalEngine::new(
            DeltaGraph::new(g),
            pipeline,
            SccConfig::with_threads(2),
            &guard,
        )
        .unwrap();
        engine.apply(Mutation::Delete(0, 2), &guard).unwrap();
        let snap = engine.snapshot(&guard).unwrap();
        assert_eq!(snap.condensation().num_edges(), 1, "1->3 still joins them");
        assert_eq!(snap.condensation_reach(0, 2, &guard), Ok(Some(true)));
        assert_matches_oracle(&engine, &guard, "after deleting one parallel edge", 3);
        engine.apply(Mutation::Delete(1, 3), &guard).unwrap();
        let snap = engine.snapshot(&guard).unwrap();
        assert_eq!(snap.condensation().num_edges(), 0, "the last edge is gone");
        assert_eq!(snap.condensation_reach(0, 2, &guard), Ok(Some(false)));
        assert_matches_oracle(&engine, &guard, "after deleting both", 4);
    });
}
