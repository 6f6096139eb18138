//! Stress tests: larger inputs and adversarial shapes. The heavy cases are
//! `#[ignore]`d in debug builds (where they would take minutes); run
//! `cargo test --release -- --include-ignored` or plain
//! `cargo test --release` (the attribute only fires under
//! `debug_assertions`) to execute everything.

use swscc::graph::datasets::Dataset;
use swscc::graph::gen::{bowtie, BowtieConfig};
use swscc::{detect_scc, Algorithm, CsrGraph, GraphBuilder, SccConfig};

#[test]
#[cfg_attr(debug_assertions, ignore = "stress case; run with --release")]
fn half_scale_livej_all_methods() {
    let g = Dataset::Livej.generate(0.5, 42);
    let (want, _) = detect_scc(&g, Algorithm::Tarjan, &SccConfig::default());
    for algo in [Algorithm::Baseline, Algorithm::Method1, Algorithm::Method2] {
        let (r, _) = detect_scc(&g, algo, &SccConfig::with_threads(4));
        assert_eq!(
            r.canonical_labels(),
            want.canonical_labels(),
            "{} at half scale",
            algo.name()
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "stress case; run with --release")]
fn large_bowtie_matches_planted_truth() {
    let bt = bowtie(&BowtieConfig {
        num_nodes: 150_000,
        ..Default::default()
    });
    let (r, _) = detect_scc(&bt.graph, Algorithm::Method2, &SccConfig::default());
    let planted = swscc::SccResult::from_assignment(bt.component_of.clone());
    assert_eq!(r.canonical_labels(), planted.canonical_labels());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "stress case; run with --release")]
fn task_explosion_many_tiny_sccs() {
    // 30k disjoint 3-cycles, all surviving Trim and Trim2: phase 2 must
    // grind through 30k tasks without starving or deadlocking.
    let k = 30_000u32;
    let mut b = GraphBuilder::new((3 * k) as usize);
    for i in 0..k {
        let base = 3 * i;
        b.add_edge(base, base + 1);
        b.add_edge(base + 1, base + 2);
        b.add_edge(base + 2, base);
    }
    let g = b.build();
    for algo in [Algorithm::Baseline, Algorithm::Method2] {
        let (r, report) = detect_scc(&g, algo, &SccConfig::with_threads(4));
        assert_eq!(r.num_components(), k as usize, "{}", algo.name());
        assert!(report.queue.tasks_executed >= 1);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "stress case; run with --release")]
fn pathological_deep_alternation() {
    // Alternating cycle/tendril chain 40k deep: maximal trim rounds plus a
    // long dependency chain of small SCCs for the recursive phase.
    let layers = 20_000u32;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for i in 0..layers {
        let a = 2 * i;
        let b = 2 * i + 1;
        edges.push((a, b));
        if i % 2 == 0 {
            edges.push((b, a)); // 2-cycle layer
        }
        if i + 1 < layers {
            edges.push((b, 2 * (i + 1)));
        }
    }
    let g = CsrGraph::from_edges((2 * layers) as usize, &edges);
    let (want, _) = detect_scc(&g, Algorithm::Tarjan, &SccConfig::default());
    let (r, _) = detect_scc(&g, Algorithm::Method2, &SccConfig::with_threads(2));
    assert_eq!(r.canonical_labels(), want.canonical_labels());
    // half the layers are pairs, half are two singletons
    assert_eq!(
        r.num_components(),
        (layers / 2 + layers) as usize,
        "pairs + singletons"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "stress case; run with --release")]
fn wide_star_bursts() {
    // Scale-free extreme: one hub with 100k out-edges and 100k in-edges.
    let n = 200_001u32;
    let hub = 0u32;
    let mut edges = Vec::with_capacity(200_000);
    for i in 1..=100_000u32 {
        edges.push((hub, i));
    }
    for i in 100_001..200_001u32 {
        edges.push((i, hub));
    }
    let g = CsrGraph::from_edges(n as usize, &edges);
    let (r, _) = detect_scc(&g, Algorithm::Method1, &SccConfig::with_threads(4));
    assert_eq!(r.num_components(), n as usize, "no cycles anywhere");
}

#[test]
fn repeated_parallel_runs_under_contention() {
    // Hammer the full pipeline from several OS threads at once (each run
    // spawns its own pool + workers): no cross-run interference allowed.
    let g = Dataset::Baidu.generate(0.1, 42);
    let (want, _) = detect_scc(&g, Algorithm::Tarjan, &SccConfig::default());
    let want = want.canonical_labels();
    swscc_sync::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let (r, _) = detect_scc(&g, Algorithm::Method2, &SccConfig::with_threads(2));
                assert_eq!(r.canonical_labels(), want);
            });
        }
    });
}
