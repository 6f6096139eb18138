//! Cross-validation: every algorithm must produce the identical SCC
//! partition on every graph class, at several thread counts.

use swscc::graph::datasets::Dataset;
use swscc::graph::gen::{
    bowtie, citation_dag, erdos_renyi, road_grid, watts_strogatz, BowtieConfig, CitationConfig,
    RoadGridConfig,
};
use swscc::{detect_scc, Algorithm, CsrGraph, SccConfig};

fn assert_all_agree(g: &CsrGraph, label: &str) {
    let cfg = SccConfig::with_threads(2);
    let (reference, _) = detect_scc(g, Algorithm::Tarjan, &cfg);
    let want = reference.canonical_labels();
    for algo in Algorithm::all()
        .into_iter()
        .filter(|&a| a != Algorithm::Tarjan)
    {
        for threads in [1usize, 4] {
            let cfg = SccConfig::with_threads(threads);
            let (r, _) = detect_scc(g, algo, &cfg);
            assert_eq!(
                r.canonical_labels(),
                want,
                "{} with {} threads disagrees with tarjan on {label}",
                algo.name(),
                threads
            );
        }
    }
}

#[test]
fn agree_on_bowtie() {
    let bt = bowtie(&BowtieConfig {
        num_nodes: 5000,
        ..Default::default()
    });
    assert_all_agree(&bt.graph, "bowtie");
    // ...and they all match the generator's planted ground truth.
    let cfg = SccConfig::default();
    let (r, _) = detect_scc(&bt.graph, Algorithm::Method2, &cfg);
    let planted = swscc::SccResult::from_assignment(bt.component_of.clone());
    assert_eq!(r.canonical_labels(), planted.canonical_labels());
}

#[test]
fn agree_on_erdos_renyi_both_regimes() {
    // Sub-critical (mostly trivial SCCs) and super-critical (giant SCC).
    assert_all_agree(&erdos_renyi(3000, 1500, 7), "sparse ER");
    assert_all_agree(&erdos_renyi(3000, 12000, 7), "dense ER");
}

#[test]
fn agree_on_watts_strogatz() {
    assert_all_agree(&watts_strogatz(2000, 6, 0.1, 9), "watts-strogatz");
}

#[test]
fn agree_on_citation_dag() {
    let g = citation_dag(&CitationConfig {
        num_nodes: 4000,
        ..Default::default()
    });
    assert_all_agree(&g, "citation dag");
    // A DAG has only trivial SCCs.
    let (r, _) = detect_scc(&g, Algorithm::Method2, &SccConfig::default());
    assert_eq!(r.num_components(), 4000);
}

#[test]
fn agree_on_road_grid() {
    let g = road_grid(&RoadGridConfig {
        width: 50,
        height: 50,
        ..Default::default()
    });
    assert_all_agree(&g, "road grid");
}

#[test]
fn agree_on_all_dataset_analogs_tiny() {
    for d in Dataset::all() {
        let g = d.generate(0.02, 5);
        assert_all_agree(&g, d.name());
    }
}

#[test]
fn agree_on_pathological_shapes() {
    // Empty.
    assert_all_agree(&CsrGraph::from_edges(0, &[]), "empty");
    // Single node, with and without self-loop.
    assert_all_agree(&CsrGraph::from_edges(1, &[]), "single");
    assert_all_agree(&CsrGraph::from_edges(1, &[(0, 0)]), "self-loop");
    // One big cycle (giant SCC is everything).
    let n = 2000u32;
    let cyc: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    assert_all_agree(&CsrGraph::from_edges(n as usize, &cyc), "pure cycle");
    // Star (hub + leaves, no cycles).
    let star: Vec<_> = (1..500u32).map(|i| (0, i)).collect();
    assert_all_agree(&CsrGraph::from_edges(500, &star), "star");
    // Complete bipartite-ish back-and-forth (one big SCC).
    let mut bip = Vec::new();
    for i in 0..40u32 {
        for j in 40..80u32 {
            bip.push((i, j));
            bip.push((j, i));
        }
    }
    assert_all_agree(&CsrGraph::from_edges(80, &bip), "bipartite mutual");
}

#[test]
fn agree_with_duplicate_edges_and_self_loops() {
    let g = CsrGraph::from_edges(
        6,
        &[
            (0, 1),
            (0, 1),
            (1, 0),
            (2, 2),
            (2, 3),
            (3, 4),
            (4, 2),
            (4, 2),
            (5, 5),
        ],
    );
    assert_all_agree(&g, "dups+loops");
}

#[test]
fn paper_top_down_bfs_agrees_on_raw_and_compressed() {
    // `SccConfig::default()` peels with direction-optimizing BFS, so the
    // rows above cover the bottom-up path. These rows keep the paper's
    // top-down peel covered, on both graph backends.
    use swscc::graph::CompressedCsr;
    use swscc::{run_pipeline, Pipeline, RunGuard};
    let mut graphs: Vec<(String, CsrGraph)> = Dataset::all()
        .into_iter()
        .map(|d| (d.name().to_string(), d.generate(0.02, 5)))
        .collect();
    graphs.push(("dense ER".into(), erdos_renyi(3000, 12000, 7)));
    for (label, g) in &graphs {
        let want = detect_scc(g, Algorithm::Tarjan, &SccConfig::default())
            .0
            .canonical_labels();
        let z = CompressedCsr::from_csr(g);
        // Every algorithm with a stock stage list: the parallel ones.
        for (algo, pipeline) in Algorithm::all()
            .into_iter()
            .filter_map(|a| Some((a, Pipeline::stock(a)?)))
        {
            for threads in [1usize, 2] {
                let cfg = SccConfig {
                    threads,
                    ..SccConfig::paper()
                };
                let (raw, _) = detect_scc(g, algo, &cfg);
                assert_eq!(
                    raw.canonical_labels(),
                    want,
                    "{} (paper BFS, {threads} threads) disagrees with tarjan on {label}",
                    algo.name()
                );
                let (packed, _) = run_pipeline(&z, &pipeline, &cfg, &RunGuard::new())
                    .unwrap_or_else(|e| panic!("{} on compressed {label}: {e}", algo.name()));
                assert_eq!(
                    packed.canonical_labels(),
                    want,
                    "{} (paper BFS, {threads} threads) disagrees with tarjan on compressed {label}",
                    algo.name()
                );
            }
        }
    }
}
