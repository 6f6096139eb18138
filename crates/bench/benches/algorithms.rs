//! Criterion microbenchmarks: end-to-end SCC algorithms on fixed analogs.
//!
//! Complements the table/figure binaries with statistically rigorous
//! per-algorithm timings on small fixed inputs (criterion re-runs each
//! workload many times, so these use scale ~0.02 analogs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use swscc_core::{detect_scc, run_pipeline, Algorithm, Pipeline, RunGuard, SccConfig};
use swscc_graph::datasets::Dataset;
use swscc_graph::gen::rmat::{rmat_edges, RmatConfig};

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("scc");
    group.sample_size(10);
    for d in [
        Dataset::Livej,
        Dataset::Baidu,
        Dataset::CaRoad,
        Dataset::Patents,
    ] {
        let g = d.generate(0.02, 42);
        group.throughput(criterion::Throughput::Elements(g.num_edges() as u64));
        for a in Algorithm::all() {
            let cfg = SccConfig::with_threads(2);
            group.bench_with_input(BenchmarkId::new(a.name(), d.name()), &g, |b, g| {
                b.iter(|| {
                    let (r, _) = detect_scc(black_box(g), a, &cfg);
                    black_box(r.num_components())
                })
            });
        }
    }
    group.finish();
}

fn bench_thread_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("method2-threads");
    group.sample_size(10);
    let g = Dataset::Livej.generate(0.05, 42);
    for threads in [1usize, 2, 4] {
        let cfg = SccConfig::with_threads(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &g, |b, g| {
            b.iter(|| {
                let (r, _) = detect_scc(black_box(g), Algorithm::Method2, &cfg);
                black_box(r.num_components())
            })
        });
    }
    group.finish();
}

/// The "RMAT tail" workload: `blocks` disjoint small R-MAT fabrics. The
/// trim+fwbw prefix resolves one block's core SCC and the acyclic
/// fringe; the residue is thousands of small-to-medium SCCs in a single
/// color partition — the power-law SCC tail of §2.2/Fig. 2, which the
/// task queue walks as a serial chain of remainder tasks
/// (re-partitioning the shrinking residue each time).
fn rmat_tail(blocks: usize, scale: u32, seed: u64) -> swscc_graph::CsrGraph {
    let n_block = 1usize << scale;
    let mut edges = Vec::new();
    for b in 0..blocks {
        let off = (b * n_block) as u32;
        for (u, v) in rmat_edges(&RmatConfig::graph500(scale, 8, seed + b as u64)) {
            edges.push((u + off, v + off));
        }
    }
    swscc_graph::CsrGraph::from_edges(blocks * n_block, &edges)
}

fn bench_pipeline_ablation(c: &mut Criterion) {
    // Custom compositions through the pipeline engine: stock Method 2
    // against stage-dropping ablations, isolating what each stage buys,
    // plus the task-queue tail after the trim,fwbw,trim prefix. The
    // rmat-tail workload is the interesting row: see [`rmat_tail`].
    let mut group = c.benchmark_group("pipeline-ablation");
    group.sample_size(10);
    let specs = [
        ("method2-stock", "trim,fwbw,trim,trim2,trim,wcc,tasks"),
        ("drop-trim2", "trim,fwbw,trim,wcc,tasks"),
        ("drop-wcc", "trim,fwbw,trim,trim2,trim,tasks"),
        ("queue-only", "tasks"),
        ("tasks-tail", "trim,fwbw,trim,tasks"),
    ];
    let workloads: Vec<(&str, swscc_graph::CsrGraph)> = vec![
        ("livej", Dataset::Livej.generate(0.02, 42)),
        ("baidu", Dataset::Baidu.generate(0.02, 42)),
        ("rmat-tail", rmat_tail(2048, 4, 42)),
    ];
    for (name, g) in &workloads {
        for (label, spec) in specs {
            let pipeline = Pipeline::parse(spec).expect("ablation composition is legal");
            let cfg = SccConfig::with_threads(2);
            group.bench_with_input(BenchmarkId::new(label, name), g, |b, g| {
                b.iter(|| {
                    let (r, _) =
                        run_pipeline(black_box(g), &pipeline, &cfg, &RunGuard::new()).unwrap();
                    black_box(r.num_components())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_algorithms,
    bench_thread_scaling,
    bench_pipeline_ablation
);
criterion_main!(benches);
