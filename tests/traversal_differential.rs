//! Differential battery for the unified traversal kernel (§4.2).
//!
//! The `EdgeMap` port must be *observationally identical* to sequential
//! BFS: on random digraphs, `bfs_levels` ≡ `par_bfs_levels` ≡ the
//! direction-optimizing variant, for every source, both traversal
//! directions, and thread counts 1/2/4. Separately, determinism: level
//! assignment and claimed-set contents must be identical across repeated
//! runs and across thread counts (frontier *order* within a level is the
//! only thing allowed to vary).

use proptest::prelude::*;
use swscc::core::fwbw::parallel::par_fwbw;
use swscc::core::state::{AlgoState, INITIAL_COLOR};
use swscc::graph::bfs::{
    bfs_levels, par_bfs_levels, par_bfs_levels_dobfs, par_undirected_bfs_levels,
    undirected_bfs_levels, Direction, UNREACHED,
};
use swscc::graph::traverse::DEFAULT_PAR_FRONTIER_THRESHOLD;
use swscc::parallel::pool::with_pool;
use swscc::{CsrGraph, PivotStrategy, SccConfig};

/// Strategy: a random directed graph with 1..=max_n nodes (self-loops and
/// parallel edges allowed — the kernel must shrug them off).
fn arb_graph(max_n: usize) -> impl Strategy<Value = CsrGraph> {
    (1..max_n).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        proptest::collection::vec(edge, 0..4 * n)
            .prop_map(move |edges| CsrGraph::from_edges(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The full cross-product: every source × both directions × 1/2/4
    /// threads × both kernel modes, against sequential BFS.
    #[test]
    fn par_and_dobfs_match_seq_everywhere(g in arb_graph(28)) {
        for src in 0..g.num_nodes() as u32 {
            for dir in [Direction::Forward, Direction::Backward] {
                let want = bfs_levels(&g, src, dir);
                for threads in [1usize, 2, 4] {
                    let (par, dobfs) = with_pool(threads, || {
                        (par_bfs_levels(&g, src, dir), par_bfs_levels_dobfs(&g, src, dir))
                    });
                    prop_assert_eq!(&par, &want, "par levels src={} {:?} t={}", src, dir, threads);
                    prop_assert_eq!(&dobfs, &want, "dobfs levels src={} {:?} t={}", src, dir, threads);
                }
            }
        }
    }

    /// The undirected kernel view against sequential undirected BFS.
    #[test]
    fn undirected_kernel_matches_seq(g in arb_graph(28)) {
        for src in 0..g.num_nodes() as u32 {
            let want = undirected_bfs_levels(&g, src);
            for threads in [1usize, 2, 4] {
                let got = with_pool(threads, || par_undirected_bfs_levels(&g, src));
                prop_assert_eq!(&got, &want, "undirected src={} t={}", src, threads);
            }
        }
    }
}

/// A small-world-ish fixture big enough that parallel levels and the
/// bottom-up switch actually engage.
fn ring_with_chords(n: u32) -> CsrGraph {
    let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    for i in 0..n {
        edges.push((i, (i * 7 + 13) % n));
        edges.push((i, (i * 31 + 5) % n));
    }
    CsrGraph::from_edges(n as usize, &edges)
}

#[test]
fn levels_deterministic_across_runs_and_threads() {
    let g = ring_with_chords(4000);
    let want = with_pool(1, || par_bfs_levels(&g, 0, Direction::Forward));
    assert_eq!(want, bfs_levels(&g, 0, Direction::Forward));
    for threads in [2usize, 4] {
        for _ in 0..3 {
            let got = with_pool(threads, || par_bfs_levels(&g, 0, Direction::Forward));
            assert_eq!(got, want, "levels changed at {threads} threads");
            let got = with_pool(threads, || par_bfs_levels_dobfs(&g, 0, Direction::Forward));
            assert_eq!(got, want, "dobfs levels changed at {threads} threads");
        }
    }
}

/// Claimed-set determinism through the FW-BW peel: the Color array after
/// one `par_fwbw` trial encodes exactly which set (FW-only / BW-only /
/// SCC / untouched) every node was claimed into. The pivot is seeded,
/// claim fixpoints are schedule-independent, and color ids are allocated
/// in deterministic order — so the whole array must be identical across
/// repeated runs and thread counts, with and without direction
/// optimization. `max_trials: 1` keeps pivot selection on the seeded-rng
/// path (later trials on shrunken partitions may fall back to
/// `find_any`, which — like rayon — doesn't specify *which* match wins).
#[test]
fn fwbw_claimed_sets_deterministic() {
    // strongly connected core + a forward-only tail + a backward-only
    // tail, so the single peel produces four distinct claimed sets.
    let core = 2000u32;
    let mut edges: Vec<(u32, u32)> = (0..core).map(|i| (i, (i + 1) % core)).collect();
    for i in 0..core {
        edges.push((i, (i * 7 + 13) % core));
    }
    for i in 0..400u32 {
        edges.push((i * 3 % core, core + i)); // core -> FW tail
        edges.push((core + 400 + i, i * 5 % core)); // BW tail -> core
    }
    let g = CsrGraph::from_edges(core as usize + 800, &edges);
    let colors = |threads: usize, dobfs: bool| -> Vec<u32> {
        let cfg = SccConfig {
            direction_optimizing: dobfs,
            max_trials: 1,
            ..SccConfig::with_threads(threads)
        };
        with_pool(threads, || {
            let s = AlgoState::new(&g);
            let out = par_fwbw(&s, &cfg, INITIAL_COLOR);
            // Vacuity guard: the dobfs rows must exercise bottom-up levels.
            assert_eq!(
                out.bottom_up_levels > 0,
                dobfs,
                "bottom-up levels at {threads} threads (dobfs={dobfs})"
            );
            (0..g.num_nodes() as u32).map(|v| s.color(v)).collect()
        })
    };
    for dobfs in [false, true] {
        let want = colors(1, dobfs);
        for threads in [2usize, 4] {
            for _ in 0..2 {
                assert_eq!(
                    colors(threads, dobfs),
                    want,
                    "claimed sets changed at {threads} threads (dobfs={dobfs})"
                );
            }
        }
    }
}

// ---- edge cases ---------------------------------------------------------

#[test]
fn empty_graph_all_variants() {
    let g = CsrGraph::from_edges(0, &[]);
    assert!(par_bfs_levels(&g, 0, Direction::Forward).is_empty());
    assert!(par_bfs_levels_dobfs(&g, 0, Direction::Forward).is_empty());
    assert!(par_undirected_bfs_levels(&g, 0).is_empty());
}

#[test]
fn single_node_all_variants() {
    let g = CsrGraph::from_edges(1, &[]);
    assert_eq!(par_bfs_levels(&g, 0, Direction::Forward), vec![0]);
    assert_eq!(par_bfs_levels_dobfs(&g, 0, Direction::Backward), vec![0]);
    assert_eq!(par_undirected_bfs_levels(&g, 0), vec![0]);
}

#[test]
fn self_loops_terminate_and_match() {
    let g = CsrGraph::from_edges(3, &[(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]);
    let want = bfs_levels(&g, 0, Direction::Forward);
    assert_eq!(want, vec![0, 1, 2]);
    assert_eq!(par_bfs_levels(&g, 0, Direction::Forward), want);
    assert_eq!(par_bfs_levels_dobfs(&g, 0, Direction::Forward), want);
}

#[test]
fn source_with_zero_out_degree() {
    let g = CsrGraph::from_edges(5, &[(1, 0), (2, 0), (3, 4)]);
    let lv = par_bfs_levels(&g, 0, Direction::Forward);
    assert_eq!(lv[0], 0);
    assert!(lv[1..].iter().all(|&l| l == UNREACHED));
    // backward from the same sink reaches its predecessors
    let lv = par_bfs_levels_dobfs(&g, 0, Direction::Backward);
    assert_eq!(lv, vec![0, 1, 1, UNREACHED, UNREACHED]);
}

#[test]
fn frontier_exactly_at_par_threshold() {
    // star: level 1 is exactly the threshold wide (parallel path), then
    // one node narrower (sequential path) — identical answers either way.
    for width in [
        DEFAULT_PAR_FRONTIER_THRESHOLD,
        DEFAULT_PAR_FRONTIER_THRESHOLD - 1,
    ] {
        let edges: Vec<(u32, u32)> = (0..width as u32).map(|i| (0, i + 1)).collect();
        let g = CsrGraph::from_edges(width + 1, &edges);
        let want = bfs_levels(&g, 0, Direction::Forward);
        for threads in [1usize, 4] {
            let got = with_pool(threads, || par_bfs_levels(&g, 0, Direction::Forward));
            assert_eq!(got, want, "width={width} threads={threads}");
        }
    }
}

#[test]
fn bottom_up_switch_boundary() {
    // A hub linked both ways to every other node. From the hub, the first
    // level's edges outweigh the candidates' at every size, so only
    // `remaining > threshold` decides whether it runs bottom-up. Sweep
    // sizes that put `remaining` (n - 1) on each side of the boundary and
    // demand sequential equality; the peel from the hub must go bottom-up
    // exactly above the boundary.
    let t = DEFAULT_PAR_FRONTIER_THRESHOLD;
    for (n, bottom_up) in [(t, false), (t + 1, false), (t + 2, true), (t * 4, true)] {
        let edges: Vec<(u32, u32)> = (1..n as u32).flat_map(|v| [(0, v), (v, 0)]).collect();
        let g = CsrGraph::from_edges(n, &edges);
        for dir in [Direction::Forward, Direction::Backward] {
            let want = bfs_levels(&g, 0, dir);
            let got = with_pool(2, || par_bfs_levels_dobfs(&g, 0, dir));
            assert_eq!(got, want, "n={n} {dir:?}");
        }
        let cfg = SccConfig {
            direction_optimizing: true,
            pivot: PivotStrategy::MaxDegreeProduct,
            max_trials: 1,
            ..SccConfig::with_threads(2)
        };
        let out = with_pool(2, || par_fwbw(&AlgoState::new(&g), &cfg, INITIAL_COLOR));
        assert_eq!(out.resolved, n, "n={n}: one SCC");
        assert_eq!(out.bottom_up_levels > 0, bottom_up, "n={n}: {out:?}");
        // Degree-3 rings of the same sizes, which go bottom-up only once a
        // frontier holds half the remaining nodes (n ≥ 768 in the peel),
        // must match sequential BFS too.
        let g = ring_with_chords(n as u32);
        let want = bfs_levels(&g, 0, Direction::Forward);
        let got = with_pool(2, || par_bfs_levels_dobfs(&g, 0, Direction::Forward));
        assert_eq!(got, want, "ring n={n}");
    }
}
