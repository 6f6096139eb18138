//! End-to-end pipeline tests: condensation, membership queries, reports,
//! the stock stage table's legality and per-phase attribution, and the
//! engine composition battery (`composition_*`) — every stock stage list
//! plus a set of legal custom compositions must produce the Tarjan
//! partition on every corpus graph at 1/2/4 threads, and illegal
//! compositions must be rejected up front.

use std::time::Duration;
use swscc::core::instrument::Phase;
use swscc::graph::datasets::Dataset;
use swscc::graph::gen::{bowtie, erdos_renyi, watts_strogatz, BowtieConfig};
use swscc::{
    detect_scc, run_pipeline, Algorithm, CsrGraph, Pipeline, PipelineError, PivotStrategy,
    RunGuard, RunReport, SccConfig, SccError, SccResult,
};

/// The stock stage list of every algorithm that has one.
fn stock_pipelines() -> impl Iterator<Item = Pipeline> {
    Algorithm::all().into_iter().filter_map(Pipeline::stock)
}

fn kahn_is_acyclic(dag: &CsrGraph) -> bool {
    let mut indeg: Vec<usize> = dag.nodes().map(|v| dag.in_degree(v)).collect();
    let mut queue: Vec<u32> = dag.nodes().filter(|&v| indeg[v as usize] == 0).collect();
    let mut seen = 0usize;
    while let Some(u) = queue.pop() {
        seen += 1;
        for &v in dag.out_neighbors(u) {
            indeg[v as usize] -= 1;
            if indeg[v as usize] == 0 {
                queue.push(v);
            }
        }
    }
    seen == dag.num_nodes()
}

#[test]
fn condensation_is_always_a_dag() {
    for d in [Dataset::Livej, Dataset::Baidu, Dataset::CaRoad] {
        let g = d.generate(0.05, 42);
        let (r, _) = detect_scc(&g, Algorithm::Method2, &SccConfig::default());
        let dag = r.condensation(&g);
        assert_eq!(dag.num_nodes(), r.num_components());
        assert!(
            kahn_is_acyclic(&dag),
            "{} condensation has a cycle",
            d.name()
        );
    }
}

#[test]
fn condensation_preserves_cross_edges() {
    let g = Dataset::Flickr.generate(0.03, 11);
    let (r, _) = detect_scc(&g, Algorithm::Method1, &SccConfig::default());
    let dag = r.condensation(&g);
    // every original cross-component edge appears in the condensation
    for (u, v) in g.edges() {
        if !r.same_component(u, v) {
            assert!(
                dag.has_edge(r.component(u), r.component(v)),
                "cross edge {u}->{v} missing from condensation"
            );
        }
    }
}

#[test]
fn membership_queries_consistent() {
    let g = Dataset::Baidu.generate(0.05, 3);
    let (r, _) = detect_scc(&g, Algorithm::Method2, &SccConfig::default());
    assert!(r.check_dense());
    let sizes = r.component_sizes();
    assert_eq!(sizes.iter().sum::<usize>(), g.num_nodes());
    // members() round-trips with component()
    let c = r.component(0);
    let members = r.members(c);
    assert!(members.contains(&0));
    assert!(members.iter().all(|&m| r.component(m) == c));
    assert_eq!(members.len(), sizes[c as usize]);
}

#[test]
fn report_phase_accounting_covers_all_nodes() {
    for algo in Algorithm::parallel() {
        let g = Dataset::Livej.generate(0.05, 42);
        let (_, report) = detect_scc(&g, algo, &SccConfig::with_threads(2));
        let resolved: usize = report.phase_resolved.iter().map(|(_, n)| n).sum();
        assert_eq!(resolved, g.num_nodes(), "{} loses nodes", algo.name());
        assert!(report.total_time.as_nanos() > 0);
    }
}

#[test]
fn method2_wcc_increases_initial_tasks() {
    // The §3.3 effect: Method 2's WCC phase seeds far more work items than
    // Method 1's color scan.
    let g = Dataset::Flickr.generate(0.1, 42);
    let cfg = SccConfig::with_threads(1);
    let (_, rep1) = detect_scc(&g, Algorithm::Method1, &cfg);
    let (_, rep2) = detect_scc(&g, Algorithm::Method2, &cfg);
    assert!(
        rep2.initial_tasks >= 10 * rep1.initial_tasks.max(1),
        "WCC did not multiply task parallelism: method1={} method2={}",
        rep1.initial_tasks,
        rep2.initial_tasks
    );
}

#[test]
fn method2_trim_resolves_majority_on_small_world() {
    // Fig. 8 shape: data-parallel phases (trim + peel + trim') account for
    // the overwhelming majority of nodes on small-world graphs.
    let g = Dataset::Livej.generate(0.1, 42);
    let (_, report) = detect_scc(&g, Algorithm::Method2, &SccConfig::default());
    let data_parallel = report.resolved_in(Phase::ParTrim)
        + report.resolved_in(Phase::ParFwbw)
        + report.resolved_in(Phase::ParTrim2);
    assert!(
        data_parallel as f64 >= 0.9 * g.num_nodes() as f64,
        "only {data_parallel}/{} resolved in phase 1",
        g.num_nodes()
    );
}

#[test]
fn patents_resolved_entirely_by_trim() {
    // §5: "the SCC structure of this graph was identified by the Trim
    // operation".
    let g = Dataset::Patents.generate(0.1, 42);
    let (_, report) = detect_scc(&g, Algorithm::Method2, &SccConfig::default());
    assert_eq!(report.resolved_in(Phase::ParTrim), g.num_nodes());
    assert_eq!(report.resolved_in(Phase::RecurFwbw), 0);
}

#[test]
fn task_log_limit_respected_end_to_end() {
    let g = Dataset::Baidu.generate(0.05, 42);
    let cfg = SccConfig {
        task_log_limit: 7,
        ..SccConfig::with_threads(1)
    };
    let (_, report) = detect_scc(&g, Algorithm::Method2, &cfg);
    assert!(report.task_log.len() <= 7);
    assert!(!report.task_log.is_empty());
}

#[test]
fn sequential_oracles_report_shape() {
    let g = Dataset::Orkut.generate(0.03, 42);
    for algo in [Algorithm::Tarjan, Algorithm::Kosaraju, Algorithm::Pearce] {
        let (r, report) = detect_scc(&g, algo, &SccConfig::default());
        assert!(r.num_components() > 0);
        assert!(report.phase_times.is_empty());
        assert_eq!(report.initial_tasks, 0);
    }
}

#[test]
fn stock_table_is_legal_and_complete() {
    // `Pipeline::stock` builds each row through `Pipeline::new`, so
    // looking every algorithm up checks every row against the one
    // implementation of the legality rules.
    for algo in Algorithm::all() {
        let oracle = matches!(
            algo,
            Algorithm::Tarjan | Algorithm::Kosaraju | Algorithm::Pearce
        );
        match Pipeline::stock(algo) {
            None => assert!(oracle, "{} has no stock pipeline", algo.name()),
            Some(p) => {
                assert!(!oracle, "oracle {} has a stock pipeline", algo.name());
                assert_eq!(
                    Pipeline::parse(&p.to_string()).as_ref(),
                    Ok(&p),
                    "stock {} does not round-trip through its spec",
                    algo.name()
                );
            }
        }
    }
}

/// A stock algorithm on a small graph whose phase attribution, queue
/// seeding or config path no differential battery sees: `check` holds
/// the assertions about the run's result and report.
struct AttributionCase {
    name: &'static str,
    algo: Algorithm,
    graph: CsrGraph,
    cfg: SccConfig,
    check: fn(&CsrGraph, &SccResult, &RunReport),
}

/// A giant 3-cycle with 8 satellite 3-cycles hanging off node 0 (OUT
/// side). 3-cycles survive Trim and Trim2, so they reach the WCC step,
/// which splits them into 8 independent work items; the
/// degree-product pivot lands on hub node 0.
fn satellite_cycles() -> CsrGraph {
    let mut edges: Vec<(u32, u32)> = vec![(0, 1), (1, 2), (2, 0)];
    let mut next = 3u32;
    for _ in 0..8 {
        edges.push((0, next)); // attach
        edges.push((next, next + 1));
        edges.push((next + 1, next + 2));
        edges.push((next + 2, next));
        next += 3;
    }
    CsrGraph::from_edges(next as usize, &edges)
}

/// A chain of `units` 3-cycles joined through connector nodes, each
/// connector numbered below the cycle before it:
/// `C_0 -> x_0 -> C_1 -> ... -> C_{units-1}`. No node trims at first,
/// and one Coloring round resolves every cycle at once (each cycle's
/// maximum beats everything upstream). It cannot resolve the connectors,
/// whose label comes from the cycle before them; once the cycles are
/// gone they all trim. Ids start at `base`.
fn cycle_chain_edges(base: u32, units: u32) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for i in 0..units {
        let x = base + 4 * i;
        let (a, b, c) = (x + 1, x + 2, x + 3);
        edges.extend([(a, b), (b, c), (c, a)]);
        if i + 1 < units {
            edges.extend([(c, x), (x, x + 5)]);
        }
    }
    edges
}

/// Nodes of [`cycle_chain_edges`]`(base, units)`; its last connector id
/// is unused and stays an isolated node.
fn cycle_chain_len(units: u32) -> u32 {
    4 * units
}

/// A 1000-node ring whose hub 0 has 2-cycles with 100 ring nodes (the
/// max-degree-product pivot, so the peel takes the ring), beside a
/// 200-unit [`cycle_chain_edges`]: 799 nodes are left after the peel and
/// the trims, enough for Multistep's Coloring tail.
fn ring_and_cycle_chain() -> CsrGraph {
    let ring = 1000u32;
    let mut edges: Vec<(u32, u32)> = (0..ring).map(|i| (i, (i + 1) % ring)).collect();
    edges.extend((1..=100u32).flat_map(|i| [(0, 10 * i - 1), (10 * i - 1, 0)]));
    edges.extend(cycle_chain_edges(ring, 200));
    CsrGraph::from_edges((ring + cycle_chain_len(200)) as usize, &edges)
}

fn attribution_cases() -> Vec<AttributionCase> {
    let max_degree_product = |threads| SccConfig {
        pivot: PivotStrategy::MaxDegreeProduct,
        ..SccConfig::with_threads(threads)
    };
    vec![
        AttributionCase {
            // On a DAG the trim phase must resolve everything; the
            // recursive phase gets no work (the Patents observation, §5).
            name: "baseline::dag_fully_trimmed",
            algo: Algorithm::Baseline,
            graph: CsrGraph::from_edges(5, &[(4, 3), (3, 2), (2, 1), (1, 0), (4, 1)]),
            cfg: SccConfig::with_threads(2),
            check: |_, r, report| {
                assert_eq!(r.num_components(), 5);
                assert_eq!(report.resolved_in(Phase::ParTrim), 5);
                assert_eq!(report.resolved_in(Phase::RecurFwbw), 0);
                assert_eq!(report.initial_tasks, 0);
            },
        },
        AttributionCase {
            name: "baseline::queue_stats_populated",
            algo: Algorithm::Baseline,
            graph: CsrGraph::from_edges(4, &[(0, 1), (1, 0), (2, 3), (3, 2)]),
            cfg: SccConfig::with_threads(1),
            check: |_, _, report| {
                assert!(report.queue.tasks_executed >= 1);
                assert_eq!(
                    report.initial_tasks, 1,
                    "one color 0 partition seeds phase 2"
                );
            },
        },
        AttributionCase {
            // A 50-cycle dominates a 100-node graph: Par-FWBW must claim
            // it, and the OUT tendrils go to the first trim.
            name: "method1::giant_scc_resolved_in_parallel_phase",
            algo: Algorithm::Method1,
            graph: {
                let mut edges: Vec<(u32, u32)> = (0..50u32).map(|i| (i, (i + 1) % 50)).collect();
                edges.extend((50..100u32).map(|i| (0, i)));
                CsrGraph::from_edges(100, &edges)
            },
            cfg: SccConfig::with_threads(2),
            check: |_, r, report| {
                assert_eq!(r.largest_component_size(), 50);
                assert_eq!(report.resolved_in(Phase::ParFwbw), 50);
                assert_eq!(report.resolved_in(Phase::ParTrim), 50);
                assert!(report.fwbw_trials >= 1);
            },
        },
        AttributionCase {
            // giant {0,1,2}; the pair 5 <-> 6 reachable from it survives
            // trim and peel and is resolved in phase 2; 3 -> 4 -> 0 trims.
            name: "method1::post_peel_trim_fires",
            algo: Algorithm::Method1,
            graph: CsrGraph::from_edges(
                7,
                &[
                    (0, 1),
                    (1, 2),
                    (2, 0),
                    (0, 5),
                    (5, 6),
                    (6, 5),
                    (3, 4),
                    (4, 0),
                ],
            ),
            cfg: SccConfig::with_threads(2),
            check: |_, r, report| {
                // components: giant {0,1,2}, pair {5,6}, singletons {3} and {4}
                assert_eq!(r.num_components(), 4);
                let mut sizes = r.component_sizes();
                sizes.sort_unstable();
                assert_eq!(sizes, vec![1, 1, 2, 3]);
                let total: usize = report.phase_resolved.iter().map(|(_, n)| n).sum();
                assert_eq!(total, 7);
            },
        },
        AttributionCase {
            name: "method2::wcc_splits_satellites_into_tasks",
            algo: Algorithm::Method2,
            graph: satellite_cycles(),
            cfg: max_degree_product(2),
            check: |_, r, report| {
                assert_eq!(r.num_components(), 9);
                assert_eq!(report.resolved_in(Phase::ParFwbw), 3, "peel got the giant");
                // Each satellite 3-cycle is a separate WCC => a separate task.
                assert_eq!(report.initial_tasks, 8);
                assert_eq!(report.resolved_in(Phase::RecurFwbw), 24);
            },
        },
        AttributionCase {
            // Pair chain hanging off a giant cycle, plus a pendant (node 7)
            // that makes node 0 the unambiguous degree-product pivot:
            //   {0,1,2} cycle; 0 -> (3<->4) -> (5<->6); 0 -> 7.
            name: "method2::trim2_contributes",
            algo: Algorithm::Method2,
            graph: CsrGraph::from_edges(
                8,
                &[
                    (0, 1),
                    (1, 2),
                    (2, 0),
                    (0, 3),
                    (3, 4),
                    (4, 3),
                    (4, 5),
                    (5, 6),
                    (6, 5),
                    (0, 7),
                ],
            ),
            cfg: max_degree_product(1),
            check: |_, r, report| {
                assert_eq!(r.num_components(), 4); // {0,1,2}, {3,4}, {5,6}, {7}
                assert_eq!(
                    report.resolved_in(Phase::ParTrim),
                    1,
                    "pendant 7 trims first"
                );
                assert_eq!(report.resolved_in(Phase::ParFwbw), 3, "giant peeled");
                // Both pairs fall to the Trim′ block (pattern a for {3,4}
                // once the giant is gone; pattern b for the chain-end {5,6}).
                assert_eq!(report.resolved_in(Phase::ParTrim2), 4);
                assert_eq!(report.resolved_in(Phase::RecurFwbw), 0);
            },
        },
        AttributionCase {
            name: "method2::color_only_ablation_still_correct",
            algo: Algorithm::Method2,
            graph: CsrGraph::from_edges(6, &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (4, 5)]),
            cfg: SccConfig {
                hybrid_sets: false,
                ..SccConfig::with_threads(2)
            },
            check: |g, r, _| {
                let (want, _) = detect_scc(g, Algorithm::Tarjan, &SccConfig::default());
                assert_eq!(r.canonical_labels(), want.canonical_labels());
            },
        },
        AttributionCase {
            // The row above is resolved by Trim, the peel and Trim2 before
            // any task runs; here the WCC groups do reach the queue, as
            // color-only tasks.
            name: "method2::color_only_tasks_from_wcc_groups",
            algo: Algorithm::Method2,
            graph: satellite_cycles(),
            cfg: SccConfig {
                hybrid_sets: false,
                ..max_degree_product(2)
            },
            check: |g, r, report| {
                let (want, _) = detect_scc(g, Algorithm::Tarjan, &SccConfig::default());
                assert_eq!(r.canonical_labels(), want.canonical_labels());
                assert_eq!(report.initial_tasks, 8);
                assert_eq!(report.resolved_in(Phase::RecurFwbw), 24);
            },
        },
        AttributionCase {
            // A 3-chain of 2-cycles takes multiple rounds: each round
            // peels the classes whose roots are maximal.
            name: "coloring::round_count_reported",
            algo: Algorithm::Coloring,
            graph: CsrGraph::from_edges(
                6,
                &[
                    (5, 4),
                    (4, 5),
                    (4, 3),
                    (3, 2),
                    (2, 3),
                    (2, 1),
                    (1, 0),
                    (0, 1),
                ],
            ),
            cfg: SccConfig::with_threads(1),
            check: |_, r, report| {
                assert_eq!(r.num_components(), 3);
                assert!(report.fwbw_trials >= 1, "rounds = {}", report.fwbw_trials);
            },
        },
        AttributionCase {
            // The whole `coloring` stage counts under recur-fwbw: the
            // pendant 6 trims first, every other node falls to the rounds.
            name: "coloring::rounds_count_under_recur_fwbw",
            algo: Algorithm::Coloring,
            graph: CsrGraph::from_edges(
                7,
                &[
                    (5, 4),
                    (4, 5),
                    (4, 3),
                    (3, 2),
                    (2, 3),
                    (2, 1),
                    (1, 0),
                    (0, 1),
                    (0, 6),
                ],
            ),
            cfg: SccConfig::with_threads(2),
            check: |_, r, report| {
                assert_eq!(r.num_components(), 4);
                assert_eq!(report.resolved_in(Phase::ParTrim), 1);
                assert_eq!(report.resolved_in(Phase::RecurFwbw), 6);
                assert_eq!(report.resolved_in(Phase::ParFwbw), 0);
                assert_eq!(report.time_in(Phase::ParFwbw), Duration::ZERO);
            },
        },
        AttributionCase {
            name: "coloring::dag_fully_trimmed_zero_rounds",
            algo: Algorithm::Coloring,
            graph: CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]),
            cfg: SccConfig::with_threads(2),
            check: |_, r, report| {
                assert_eq!(r.num_components(), 5);
                assert_eq!(report.fwbw_trials, 0, "trim leaves nothing to color");
            },
        },
        AttributionCase {
            // Hub-heavy cycle so the degree-product pivot lands inside it.
            name: "multistep::giant_scc_taken_by_peel",
            algo: Algorithm::Multistep,
            graph: {
                let n = 2000u32;
                let mut edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
                edges.extend((0..200u32).map(|i| (0, n + i))); // tendrils
                CsrGraph::from_edges((n + 200) as usize, &edges)
            },
            cfg: SccConfig::with_threads(2),
            check: |_, r, report| {
                assert_eq!(r.largest_component_size(), 2000);
                assert_eq!(report.resolved_in(Phase::ParFwbw), 2000);
                assert_eq!(report.resolved_in(Phase::ParTrim), 200);
            },
        },
        AttributionCase {
            // The peel takes the ring; the 200-unit chain is left for the
            // tail, whose rounds and interleaved trims all count under
            // par-wcc (the post-peel trim finds nothing to trim).
            name: "multistep::color_tail_counts_under_par_wcc",
            algo: Algorithm::Multistep,
            graph: ring_and_cycle_chain(),
            cfg: SccConfig::with_threads(2),
            check: |_, r, report| {
                // ring, 200 cycles, 199 connectors, 1 isolated id
                assert_eq!(r.num_components(), 401);
                assert_eq!(report.resolved_in(Phase::ParFwbw), 1000);
                assert!(
                    report.fwbw_trials >= 2,
                    "the tail ran no round: {} trials",
                    report.fwbw_trials
                );
                assert_eq!(report.resolved_in(Phase::ParTrim2), 0);
                assert!(report.resolved_in(Phase::ParWcc) > 0);
            },
        },
        AttributionCase {
            // Worst case for pure FW-BW: a DAG means one task per node.
            name: "fwbw_only::every_node_resolved_on_dag",
            algo: Algorithm::FwBw,
            graph: CsrGraph::from_edges(50, &(0..49u32).map(|i| (i, i + 1)).collect::<Vec<_>>()),
            cfg: SccConfig::with_threads(2),
            check: |_, r, report| {
                assert_eq!(r.num_components(), 50);
                assert_eq!(report.resolved_in(Phase::RecurFwbw), 50);
                assert_eq!(report.resolved_in(Phase::ParTrim), 0, "no trim ran");
                // every singleton cost its own task
                assert!(report.queue.tasks_executed >= 50);
            },
        },
    ]
}

#[test]
fn stock_pipelines_attribute_phases_as_documented() {
    for case in attribution_cases() {
        eprintln!("attribution case: {}", case.name);
        let (r, report) = detect_scc(&case.graph, case.algo, &case.cfg);
        (case.check)(&case.graph, &r, &report);
    }
}

#[test]
fn algorithm_names_round_trip() {
    for a in Algorithm::all() {
        assert_eq!(Algorithm::from_name(a.name()), Some(a));
    }
    assert_eq!(Algorithm::from_name("bogus"), None);
}

// ---------------------------------------------------------------------------
// Engine composition battery (`composition_*`, the CI pipeline-matrix step)
// ---------------------------------------------------------------------------

/// Small but structurally diverse corpus: planted bowtie (giant SCC +
/// in/out/tendrils), both Erdős–Rényi regimes, a small-world ring, and
/// two dataset analogs (power-law and pure-DAG extremes).
fn corpus() -> Vec<(&'static str, CsrGraph)> {
    let bt = bowtie(&BowtieConfig {
        num_nodes: 1500,
        ..Default::default()
    });
    vec![
        ("bowtie", bt.graph),
        ("sparse-er", erdos_renyi(1200, 600, 7)),
        ("dense-er", erdos_renyi(1200, 5000, 7)),
        ("watts-strogatz", watts_strogatz(1000, 6, 0.1, 9)),
        ("baidu", Dataset::Baidu.generate(0.03, 42)),
        ("patents", Dataset::Patents.generate(0.03, 42)),
    ]
}

fn assert_composition_matches_tarjan(spec: &str) {
    let pipeline = Pipeline::parse(spec).unwrap_or_else(|e| panic!("{spec:?} rejected: {e}"));
    for (label, g) in corpus() {
        let want = detect_scc(&g, Algorithm::Tarjan, &SccConfig::default())
            .0
            .canonical_labels();
        for threads in [1usize, 2, 4] {
            let cfg = SccConfig::with_threads(threads);
            let (r, report) = run_pipeline(&g, &pipeline, &cfg, &RunGuard::new())
                .unwrap_or_else(|e| panic!("{spec:?} on {label}: {e}"));
            assert_eq!(
                r.canonical_labels(),
                want,
                "pipeline {spec:?} with {threads} threads disagrees with tarjan on {label}"
            );
            let resolved: usize = report.phase_resolved.iter().map(|(_, n)| n).sum();
            assert_eq!(
                resolved,
                g.num_nodes(),
                "pipeline {spec:?} loses nodes in the report on {label}"
            );
        }
    }
}

#[test]
fn composition_stock_pipelines_match_tarjan() {
    for pipeline in stock_pipelines() {
        assert_composition_matches_tarjan(&pipeline.to_string());
    }
}

#[test]
fn composition_queue_only() {
    assert_composition_matches_tarjan("tasks");
}

#[test]
fn composition_serial_only() {
    assert_composition_matches_tarjan("serial");
}

#[test]
fn composition_peel_without_trim() {
    assert_composition_matches_tarjan("fwbw,tasks");
}

#[test]
fn composition_trim2_first() {
    assert_composition_matches_tarjan("trim2,tasks");
}

#[test]
fn composition_wcc_partition_only() {
    assert_composition_matches_tarjan("wcc,tasks");
}

#[test]
fn composition_trim_trim2_wcc() {
    assert_composition_matches_tarjan("trim,trim2,wcc,tasks");
}

#[test]
fn composition_single_peel_serial_finish() {
    assert_composition_matches_tarjan("peel,serial");
}

#[test]
fn composition_method2_without_trim2_ablation() {
    assert_composition_matches_tarjan("trim,fwbw,wcc,tasks");
}

#[test]
fn composition_bare_coloring() {
    assert_composition_matches_tarjan("coloring");
}

#[test]
fn composition_color_tail_without_peel() {
    assert_composition_matches_tarjan("trim,colortail,serial");
}

#[test]
fn composition_coloring_after_peel() {
    // The peel leaves several colors in the residue for Coloring.
    assert_composition_matches_tarjan("trim,fwbw,trim,coloring");
}

#[test]
fn composition_coloring_after_wcc() {
    assert_composition_matches_tarjan("trim,wcc,coloring");
}

#[test]
fn coloring_watchdogs_trip_end_to_end() {
    // With a zero watchdog factor the first label-propagation sweep is
    // over its bound: both Coloring stages must fail typed, never return
    // a partition. The chain keeps 799 nodes past `trim`, so
    // `colortail` runs rounds.
    let g = CsrGraph::from_edges(cycle_chain_len(200) as usize, &cycle_chain_edges(0, 200));
    let cfg = SccConfig {
        watchdog_factor: 0,
        ..SccConfig::with_threads(2)
    };
    for spec in ["trim,coloring", "trim,colortail,serial"] {
        let pipeline = Pipeline::parse(spec).unwrap();
        match run_pipeline(&g, &pipeline, &cfg, &RunGuard::new()) {
            Err(SccError::NonConvergence { detail }) => {
                assert!(detail.contains("coloring"), "{spec:?}: {detail}")
            }
            Err(e) => panic!("{spec:?} failed with {e} instead of non-convergence"),
            Ok(_) => panic!("{spec:?} returned a partition past its watchdog"),
        }
    }
}

#[test]
fn composition_everything_but_the_kitchen_sink() {
    assert_composition_matches_tarjan("trim,fwbw,trim2,trim,peel,trim,wcc,tasks");
}

type RejectionPredicate = fn(&PipelineError) -> bool;

#[test]
fn composition_illegal_pipelines_rejected() {
    use PipelineError as E;
    let cases: &[(&str, RejectionPredicate)] = &[
        ("", |e| matches!(e, E::Empty)),
        (" , ,", |e| matches!(e, E::Empty)),
        ("trim", |e| matches!(e, E::NotTerminal(_))),
        ("trim,fwbw,wcc", |e| matches!(e, E::NotTerminal(_))),
        // final-stage check fires first: the trailing `trim` is the error
        ("tasks,trim", |e| matches!(e, E::NotTerminal(_))),
        ("coloring,tasks", |e| matches!(e, E::TerminalNotLast(_))),
        ("serial,serial", |e| matches!(e, E::TerminalNotLast(_))),
        ("trim,bogus,tasks", |e| matches!(e, E::UnknownStage(_))),
        ("wcc,fwbw,tasks", |e| {
            matches!(e, E::PeelAfterRepartition { .. })
        }),
        ("trim,colortail,peel,serial", |e| {
            matches!(e, E::PeelAfterRepartition { .. })
        }),
    ];
    for (spec, matches_expected) in cases {
        match Pipeline::parse(spec) {
            Ok(p) => panic!("{spec:?} should be rejected, parsed as {p}"),
            Err(e) => assert!(
                matches_expected(&e),
                "{spec:?} rejected with unexpected error: {e}"
            ),
        }
    }
}

#[test]
fn composition_wcc_dispatcher_agrees_across_impls() {
    // Satellite knob: the Wcc kernel consumes `cfg.wcc_impl`; label
    // propagation and union-find must induce identical partitions.
    use swscc::WccImpl;
    let pipeline = Pipeline::parse("trim,fwbw,trim2,wcc,tasks").unwrap();
    for (label, g) in corpus() {
        let want = detect_scc(&g, Algorithm::Tarjan, &SccConfig::default())
            .0
            .canonical_labels();
        for impl_ in [WccImpl::LabelPropagation, WccImpl::UnionFind] {
            let cfg = SccConfig {
                wcc_impl: impl_,
                ..SccConfig::with_threads(2)
            };
            let (r, _) = run_pipeline(&g, &pipeline, &cfg, &RunGuard::new()).unwrap();
            assert_eq!(
                r.canonical_labels(),
                want,
                "wcc impl {impl_:?} breaks the pipeline on {label}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Compressed-backend battery (`compressed_*`, the CI compressed lane)
// ---------------------------------------------------------------------------

/// Runs `spec` on the byte-delta compressed backend over the whole corpus
/// at 1/2/4 threads under every live-set compaction policy, asserting the
/// Tarjan partition each time. The GraphView seam must be behaviorally
/// invisible: same SCCs, same full phase accounting.
fn assert_compressed_composition_matches_tarjan(spec: &str) {
    use swscc::graph::CompressedCsr;
    use swscc::CompactionPolicy;
    let pipeline = Pipeline::parse(spec).unwrap_or_else(|e| panic!("{spec:?} rejected: {e}"));
    for (label, g) in corpus() {
        let want = detect_scc(&g, Algorithm::Tarjan, &SccConfig::default())
            .0
            .canonical_labels();
        let z = CompressedCsr::from_csr(&g);
        for threads in [1usize, 2, 4] {
            for policy in [
                CompactionPolicy::Auto,
                CompactionPolicy::Always,
                CompactionPolicy::Never,
            ] {
                let cfg = SccConfig {
                    live_set_compaction: policy,
                    ..SccConfig::with_threads(threads)
                };
                let (r, report) = run_pipeline(&z, &pipeline, &cfg, &RunGuard::new())
                    .unwrap_or_else(|e| panic!("{spec:?} on compressed {label}: {e}"));
                assert_eq!(
                    r.canonical_labels(),
                    want,
                    "pipeline {spec:?} ({threads} threads, {policy:?}) disagrees \
                     with tarjan on compressed {label}"
                );
                let resolved: usize = report.phase_resolved.iter().map(|(_, n)| n).sum();
                assert_eq!(
                    resolved,
                    g.num_nodes(),
                    "pipeline {spec:?} loses nodes on compressed {label}"
                );
            }
        }
    }
}

#[test]
fn compressed_stock_baseline_matches_tarjan() {
    let p = Pipeline::stock(Algorithm::Baseline).unwrap();
    assert_compressed_composition_matches_tarjan(&p.to_string());
}

#[test]
fn compressed_stock_method1_matches_tarjan() {
    let p = Pipeline::stock(Algorithm::Method1).unwrap();
    assert_compressed_composition_matches_tarjan(&p.to_string());
}

#[test]
fn compressed_stock_method2_matches_tarjan() {
    let p = Pipeline::stock(Algorithm::Method2).unwrap();
    assert_compressed_composition_matches_tarjan(&p.to_string());
}

#[test]
fn compressed_stock_coloring_matches_tarjan() {
    let p = Pipeline::stock(Algorithm::Coloring).unwrap();
    assert_compressed_composition_matches_tarjan(&p.to_string());
}

#[test]
fn compressed_stock_multistep_matches_tarjan() {
    let p = Pipeline::stock(Algorithm::Multistep).unwrap();
    assert_compressed_composition_matches_tarjan(&p.to_string());
}

#[test]
fn compressed_stock_fwbw_matches_tarjan() {
    let p = Pipeline::stock(Algorithm::FwBw).unwrap();
    assert_compressed_composition_matches_tarjan(&p.to_string());
}

#[test]
fn compressed_and_raw_backends_identical_partitions() {
    // Beyond ≡ Tarjan: both backends, same pipeline, same config — the
    // canonical labelings must agree exactly on every corpus graph.
    use swscc::graph::CompressedCsr;
    let pipeline = Pipeline::parse("trim,fwbw,trim,trim2,trim,wcc,tasks").unwrap();
    for (label, g) in corpus() {
        let z = CompressedCsr::from_csr(&g);
        let cfg = SccConfig::with_threads(2);
        let (raw, _) = run_pipeline(&g, &pipeline, &cfg, &RunGuard::new()).unwrap();
        let (zip, _) = run_pipeline(&z, &pipeline, &cfg, &RunGuard::new()).unwrap();
        assert_eq!(
            raw.canonical_labels(),
            zip.canonical_labels(),
            "backends disagree on {label}"
        );
    }
}
