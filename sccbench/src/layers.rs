//! Per-layer metrics of the traced run.
//!
//! Times come from the spans the traced phases recorded, plus a replay
//! of the same seeded inputs against each layer's public functions:
//! BFS and Trim on the batch graph, the program's Tarjan, the snapshot
//! build and in-process reach over the read phase's reach script, the
//! acknowledged write script on an `IncrementalEngine`, and an
//! `EpochCell`'s publish and load. Counts come from the values those
//! calls return. See README.md for which end-to-end metric each one
//! should move.

use crate::batch::Batch;
use crate::serve::Served;
use crate::trace::{durations_ns, span};
use crate::util::{median, percentile};
use crate::{method2, threads, Env, Oracle, Outcome};
use swscc_core::instrument::Phase;
use swscc_core::state::AlgoState;
use swscc_core::{run_checked, Algorithm, IncrementalEngine, RunGuard, SccConfig, SccSnapshot};
use swscc_graph::bfs::{par_bfs_levels_with, Direction};
use swscc_graph::traverse::{Adjacency, TraversalConfig};
use swscc_graph::{CsrGraph, DeltaGraph, GraphView};
use swscc_parallel::pool::with_pool;
use swscc_sync::epoch::EpochCell;

/// Repetitions of each replayed layer call; medians are reported.
const REPS: usize = 7;
/// Loads timed under one span, so the span's own cost is amortized.
const LOADS_PER_SPAN: usize = 10_000;

fn median_ns(name: &str) -> f64 {
    let d = durations_ns(name);
    assert!(!d.is_empty(), "no spans named {name}");
    median(&d)
}

pub fn report(env: &Env, oracle: &Oracle, batch: &Batch, served: &Served, out: &mut Outcome) {
    let t = threads();
    let cfg = SccConfig::with_threads(t);
    let guard = RunGuard::new();
    let g = &env.graph;

    // swscc-graph
    let source = (0..g.num_nodes() as u32)
        .max_by_key(|&v| g.out_degree(v))
        .expect("non-empty batch graph");
    let traversal = TraversalConfig::default();
    let mut levels = Vec::new();
    with_pool(t, || {
        for i in 0..REPS as u64 {
            levels = span("graph.bfs_raw", i, || {
                par_bfs_levels_with(
                    g,
                    source,
                    Adjacency::Directed(Direction::Forward),
                    &traversal,
                )
            });
            span("graph.bfs_compressed", i, || {
                par_bfs_levels_with(
                    &env.compressed,
                    source,
                    Adjacency::Directed(Direction::Forward),
                    &traversal,
                )
            });
        }
    });
    let reached_edges: usize = (0..g.num_nodes() as u32)
        .filter(|&v| levels[v as usize] != u32::MAX)
        .map(|v| g.out_degree(v))
        .sum();
    let depth = levels
        .iter()
        .filter(|&&l| l != u32::MAX)
        .max()
        .map_or(0, |&l| l + 1);
    let medges = |name: &str| reached_edges as f64 / median_ns(name) * 1e3;
    out.metric(
        "graph.bfs_raw_medges_s",
        medges("graph.bfs_raw"),
        "Medges/s",
    );
    out.metric(
        "graph.bfs_compressed_medges_s",
        medges("graph.bfs_compressed"),
        "Medges/s",
    );
    out.metric(
        "graph.compressed_bytes_per_edge",
        env.compressed.memory_footprint().bytes_per_edge(),
        "B/edge",
    );
    out.metric("graph.generate_s", median_ns("graph.generate") / 1e9, "s");
    out.metric("graph.compress_s", median_ns("graph.compress") / 1e9, "s");

    // Parallel runtime
    out.metric("parallel.partition_speedup", batch.nproc_speedup(), "x");
    out.metric("parallel.efficiency", batch.self_speedup(), "x");
    out.metric("parallel.bfs_levels", f64::from(depth), "count");

    // swscc-core pipeline
    out.metric(
        "pipeline.partition_ms",
        median_ns("core.run_checked") / 1e6,
        "ms",
    );
    out.metric(
        "pipeline.partition_t1_ms",
        median_ns("core.run_checked_t1") / 1e6,
        "ms",
    );
    let mut trim_resolved = 0;
    with_pool(t, || {
        for i in 0..REPS as u64 {
            let state = AlgoState::new(g);
            trim_resolved = span("core.par_trim", i, || swscc_core::trim::par_trim(&state));
        }
    });
    out.metric("pipeline.trim_ms", median_ns("core.par_trim") / 1e6, "ms");
    out.metric("pipeline.trim_resolved", trim_resolved as f64, "count");
    let phase_ms = |p: Phase| {
        let v: Vec<f64> = batch
            .reports
            .iter()
            .map(|r| r.time_in(p).as_secs_f64() * 1e3)
            .collect();
        median(&v)
    };
    out.metric("pipeline.fwbw_ms", phase_ms(Phase::ParFwbw), "ms");
    out.metric("pipeline.trim2_ms", phase_ms(Phase::ParTrim2), "ms");
    out.metric("pipeline.wcc_ms", phase_ms(Phase::ParWcc), "ms");
    out.metric("pipeline.tasks_ms", phase_ms(Phase::RecurFwbw), "ms");
    let report = batch.reports.last().expect("at least one measured round");
    out.metric("pipeline.fwbw_trials", report.fwbw_trials as f64, "count");
    out.metric(
        "pipeline.initial_tasks",
        report.initial_tasks as f64,
        "count",
    );
    for i in 0..REPS as u64 {
        span("core.tarjan", i, || swscc_core::tarjan::tarjan_scc(g));
    }
    out.metric("core.tarjan_ms", median_ns("core.tarjan") / 1e6, "ms");
    out.metric("ref.tarjan_ms", median_ns("ref.tarjan") / 1e6, "ms");

    // swscc-core snapshot, over a copy of the served graph
    let sg = CsrGraph::from_edges(oracle.serve_n, &oracle.serve_edges);
    let (result, _) = run_checked(&sg, Algorithm::Method2, &cfg, &guard)
        .expect("method2 partitions the serve graph");
    let mut snapshot = None;
    for i in 0..REPS as u64 {
        let r = result.clone();
        snapshot = Some(span("snapshot.from_result", i, || {
            SccSnapshot::from_result(&sg, r)
        }));
    }
    let snapshot = snapshot.expect("REPS > 0");
    out.metric(
        "snapshot.build_ms",
        median_ns("snapshot.from_result") / 1e6,
        "ms",
    );
    for (i, &(u, v)) in served.reach_script.iter().enumerate() {
        span("snapshot.condensation_reach", i as u64, || {
            snapshot.condensation_reach(u, v, &guard)
        })
        .expect("in-process reach under an unbounded guard");
    }
    let reach_us: Vec<f64> = durations_ns("snapshot.condensation_reach")
        .iter()
        .map(|d| d / 1e3)
        .collect();
    out.metric("snapshot.reach_p50_us", median(&reach_us), "us");
    out.metric("snapshot.reach_p99_us", percentile(&reach_us, 0.99), "us");
    // One `bool` per condensation node per query.
    out.metric(
        "snapshot.reach_alloc_bytes",
        snapshot.num_components() as f64,
        "B",
    );

    // swscc-core incremental: the acknowledged write script, replayed
    let mut engine = IncrementalEngine::new(DeltaGraph::new(sg.clone()), method2(), cfg, &guard)
        .expect("engine builds on the serve graph");
    for (i, &(insert, u, v)) in served.acked.iter().enumerate() {
        let i = i as u64;
        if insert {
            span("engine.insert_edge", i, || engine.insert_edge(u, v, &guard))
        } else {
            span("engine.delete_edge", i, || engine.delete_edge(u, v, &guard))
        }
        .expect("engine replays an acknowledged write");
        span("engine.snapshot", i, || engine.snapshot(&guard)).expect("engine snapshot");
    }
    let c = engine.counters();
    out.metric(
        "engine.insert_p50_us",
        median_ns("engine.insert_edge") / 1e3,
        "us",
    );
    out.metric(
        "engine.delete_p50_us",
        median_ns("engine.delete_edge") / 1e3,
        "us",
    );
    out.metric(
        "engine.snapshot_ms",
        median_ns("engine.snapshot") / 1e6,
        "ms",
    );
    out.metric("engine.in_order", c.in_order as f64, "count");
    out.metric("engine.merges", c.merges as f64, "count");
    out.metric("engine.dirty_repairs", c.dirty_repairs as f64, "count");
    out.metric("engine.splits", c.splits as f64, "count");
    out.metric("engine.full_rebuilds", c.full_rebuilds as f64, "count");

    // swscc-sync epoch
    let cell = EpochCell::new(snapshot.clone());
    for i in 0..REPS as u64 {
        let next = snapshot.clone();
        span("epoch.publish", i, || cell.publish(next));
    }
    out.metric("epoch.publish_us", median_ns("epoch.publish") / 1e3, "us");
    for i in 0..REPS as u64 {
        span("epoch.load_x10000", i, || {
            for _ in 0..LOADS_PER_SPAN {
                std::hint::black_box(cell.load());
            }
        });
    }
    out.metric(
        "epoch.load_ns",
        median_ns("epoch.load_x10000") / LOADS_PER_SPAN as f64,
        "ns",
    );

    // swscc-serve; the end-to-end read metrics are ratios to the echo
    out.metric("serve.ping_p50_us", median(&served.ping_us), "us");
    out.metric("serve.echo_p50_us", served.echo.percentile_us(0.5), "us");
    out.metric("serve.point_p50_us", served.point.percentile_us(0.5), "us");
    out.metric("serve.reach_p50_us", served.reach.percentile_us(0.5), "us");
    out.metric("serve.read_rps", served.read_rps(), "req/s");
    out.metric(
        "serve.mixed_point_p99_us",
        served.mixed_point.percentile_us(0.99),
        "us",
    );
    let stats = served.stats.expect("stats sampled after the mixed phase");
    out.metric("serve.shed", stats.shed as f64, "count");
    out.metric(
        "serve.deadline_misses",
        stats.deadline_misses as f64,
        "count",
    );
    out.metric("serve.quarantined", stats.quarantined as f64, "count");
    out.metric(
        "serve.mutations_failed",
        stats.mutations_failed as f64,
        "count",
    );
    out.metric("serve.compactions", stats.compactions as f64, "count");
    out.metric(
        "serve.write_lateness_p99_us",
        percentile(&served.lateness_us, 0.99),
        "us",
    );
    out.metric("trace.overhead_pct", served.trace_overhead_pct, "%");
}
