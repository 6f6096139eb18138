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
//! partition. Two bow-tie analogs of a small-world graph add scripted
//! coverage below the giant SCC's size as residue limit: deletes inside
//! the giant SCC (certified, not re-run) and inserts that merge
//! tendrils into it (searched on the condensation, not rebuilt).

use proptest::prelude::*;
use swscc::core::incremental::{EngineCounters, IncrementalEngine, Mutation};
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
/// after a final compaction. Returns the engine's path counters.
fn run_script<G: CompactBackend>(
    base: G,
    script: &[(bool, u32, u32)],
    threads: usize,
    batch: usize,
    residue_limit: usize,
) -> EngineCounters {
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
    engine.counters()
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

/// Nodes in the giant SCC of [`bow_tie`] and [`bow_tie_merges`].
const CORE: u32 = 192;

/// Nodes on each side (IN, OUT) of [`bow_tie`]'s giant SCC.
const SIDE: u32 = 3 * 12;

/// Edges of a test graph.
type Edges = Vec<(u32, u32)>;

/// The giant SCC [`bow_tie`] and [`bow_tie_merges`] share: a ring of
/// [`CORE`] nodes with two random chords per node. Returns its edges
/// and the chords.
fn giant_ring(s: &mut u64) -> (Edges, Edges) {
    let mut edges: Edges = (0..CORE).map(|i| (i, (i + 1) % CORE)).collect();
    let mut chords = Vec::new();
    for i in 0..CORE {
        for _ in 0..2 {
            let j = (splitmix64(s) % u64::from(CORE)) as u32;
            if j != i && j != (i + 1) % CORE && !chords.contains(&(i, j)) {
                chords.push((i, j));
            }
        }
    }
    edges.extend(&chords);
    (edges, chords)
}

/// A bow-tie analog of a small-world graph, and a delete-heavy script
/// over it. The giant SCC is a ring of [`CORE`] nodes with two random
/// chords per node; an IN side of 3-cycles feeds it and an OUT side of
/// 3-cycles hangs off it. The script deletes chords of the giant SCC
/// (the ring keeps it strongly connected), edges of the small cycles
/// (each splits its cycle) and IN/OUT attachments (cross-component),
/// and now and then puts a deleted chord back.
fn bow_tie(seed: u64) -> (CsrGraph, Vec<(bool, u32, u32)>) {
    let (n, mut s) = (CORE + 2 * SIDE, seed);
    let (mut edges, mut chords) = giant_ring(&mut s);
    let (mut cycle_edges, mut attachments) = (Vec::new(), Vec::new());
    for t in (CORE..n).step_by(3) {
        cycle_edges.extend([(t, t + 1), (t + 1, t + 2), (t + 2, t)]);
        let core = (splitmix64(&mut s) % u64::from(CORE)) as u32;
        attachments.push(if t < CORE + SIDE {
            (t, core)
        } else {
            (core, t)
        });
    }
    edges.extend(&cycle_edges);
    edges.extend(&attachments);
    let g = CsrGraph::from_edges(n as usize, &edges);

    let mut script = Vec::new();
    let mut deleted: Vec<(u32, u32)> = Vec::new();
    let pick = |v: &mut Vec<(u32, u32)>, s: &mut u64| {
        let i = (splitmix64(s) % v.len() as u64) as usize;
        v.swap_remove(i)
    };
    for step in 0..120 {
        let (insert, (u, v)) = match step % 8 {
            3 if !cycle_edges.is_empty() => (false, pick(&mut cycle_edges, &mut s)),
            6 if !attachments.is_empty() => (false, pick(&mut attachments, &mut s)),
            7 if !deleted.is_empty() => {
                let e = pick(&mut deleted, &mut s);
                chords.push(e);
                (true, e)
            }
            _ => {
                let e = pick(&mut chords, &mut s);
                deleted.push(e);
                (false, e)
            }
        };
        script.push((insert, u, v));
    }
    (g, script)
}

/// Deletes inside the giant SCC are settled by the reachability check
/// even though the residue limit is below the giant SCC's size: no
/// full rebuild, while the small cycles still split through the
/// residue pipeline. Diffed against Tarjan at every batch boundary.
#[test]
fn giant_scc_deletes_are_certified_below_the_residue_limit() {
    let limit = CORE as usize / 2;
    for seed in [1u64, 2, 3] {
        let (g, script) = bow_tie(seed);
        for threads in [1usize, 2] {
            with_pool(threads, || {
                for batch in [1usize, 16] {
                    for c in [
                        run_script(g.clone(), &script, threads, batch, limit),
                        run_script(CompressedCsr::from_csr(&g), &script, threads, batch, limit),
                    ] {
                        assert!(c.certified > 0 && c.splits > 0, "seed {seed}: {c:?}");
                        assert_eq!(c.full_rebuilds, 0, "seed {seed}: {c:?}");
                    }
                }
            });
        }
    }
}

/// The same script with a search budget too small to settle a chord
/// delete: the check gives up, the giant residue is over the limit, and
/// the delete falls back to a full rebuild, still matching Tarjan.
#[test]
fn exhausted_check_budget_falls_back_to_a_rebuild() {
    let (g, script) = bow_tie(1);
    with_pool(1, || {
        let c = run_script(g, &script, 1, 1, 4);
        assert!(c.full_rebuilds > 0 && c.splits > 0, "{c:?}");
    });
}

/// Tendrils on each side (IN, OUT) of [`bow_tie_merges`]'s giant SCC.
const TENDRILS: u32 = 24;

/// A bow-tie with many tendrils, and an insert-only script over it
/// that keeps closing cycles through the giant SCC. The giant SCC is
/// [`giant_ring`]; [`TENDRILS`] IN tendrils feed it and as many OUT
/// tendrils hang off it, alternating 3-cycles and singletons, and a
/// few edges run from tendril to tendril on each side. The script
/// inserts OUT -> IN edges (each closes a cycle through the giant
/// SCC), giant -> IN and OUT -> giant edges (each pulls a tendril in),
/// and IN -> IN and OUT -> OUT edges (reorders, or merges of
/// tendrils).
fn bow_tie_merges(seed: u64) -> (CsrGraph, Vec<(bool, u32, u32)>) {
    let mut s = seed;
    let (mut edges, _) = giant_ring(&mut s);
    // The first node of each tendril, IN side then OUT side.
    let mut sides: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
    let mut next = CORE;
    for (side, firsts) in sides.iter_mut().enumerate() {
        for t in 0..TENDRILS {
            let first = next;
            if t % 2 == 0 {
                edges.extend([
                    (first, first + 1),
                    (first + 1, first + 2),
                    (first + 2, first),
                ]);
                next += 3;
            } else {
                next += 1;
            }
            let core = (splitmix64(&mut s) % u64::from(CORE)) as u32;
            edges.push(if side == 0 {
                (first, core)
            } else {
                (core, first)
            });
            firsts.push(first);
        }
    }
    let pick = |v: &[u32], s: &mut u64| v[(splitmix64(s) % v.len() as u64) as usize];
    let giant = |s: &mut u64| (splitmix64(s) % u64::from(CORE)) as u32;
    // Tendril-to-tendril edges in id order keep every tendril acyclic.
    for side in &sides {
        for _ in 0..TENDRILS / 2 {
            let (a, b) = (pick(side, &mut s), pick(side, &mut s));
            if a != b {
                edges.push((a.min(b), a.max(b)));
            }
        }
    }
    let g = CsrGraph::from_edges(next as usize, &edges);
    let [ins, outs] = &sides;
    let script = (0..120)
        .map(|step| {
            let (u, v) = match step % 6 {
                0 => (pick(outs, &mut s), pick(ins, &mut s)),
                1 => (giant(&mut s), pick(ins, &mut s)),
                2 => (pick(outs, &mut s), giant(&mut s)),
                3 | 4 => (pick(ins, &mut s), pick(ins, &mut s)),
                _ => (pick(outs, &mut s), pick(outs, &mut s)),
            };
            (true, u, v)
        })
        .collect();
    (g, script)
}

/// Inserts that close cycles through the giant SCC merge tendrils into
/// it, and inserts between tendrils reorder them, with a back-edge
/// budget below the giant SCC's size: the budget counts condensation
/// edges scanned, so no insert degrades to a full rebuild. Diffed
/// against Tarjan at every batch boundary.
#[test]
fn merges_through_the_giant_scc_stay_incremental() {
    let limit = CORE as usize / 2;
    for seed in [1u64, 2, 3] {
        let (g, script) = bow_tie_merges(seed);
        for threads in [1usize, 2] {
            with_pool(threads, || {
                for batch in [1usize, 16] {
                    for c in [
                        run_script(g.clone(), &script, threads, batch, limit),
                        run_script(CompressedCsr::from_csr(&g), &script, threads, batch, limit),
                    ] {
                        assert!(c.merges >= 10 && c.reorders > 0, "seed {seed}: {c:?}");
                        assert_eq!(c.full_rebuilds, 0, "seed {seed}: {c:?}");
                    }
                }
            });
        }
    }
}
