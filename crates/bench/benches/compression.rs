//! Criterion benchmarks: the compressed CSR backend vs raw CSR.
//!
//! Three questions the `--compressed` flag raises, answered on the same
//! LiveJournal analog and RMAT fabrics the other groups use:
//!
//! 1. **Footprint** — bytes/edge for the VarInt byte-delta encoding vs
//!    the raw `u32` arrays, per direction, printed as the
//!    [`MemoryFootprint`] reports before the timings (the `stats`
//!    subcommand shows the same numbers on arbitrary inputs).
//! 2. **Decode tax** — the `EdgeMap` kernel (level-synchronous BFS, the
//!    traversal under every parallel phase) on both backends. The
//!    acceptance bar is compressed within 1.5x of raw.
//! 3. **End to end** — the Method 2 pipeline on both backends, where
//!    decode overlaps the label/CAS work and the gap shrinks further.
//!
//! The `streaming` group times the construction paths: materialize +
//! compress vs `from_edge_stream` sharded generation, whose peak
//! transient memory is O(M / shards) edge pairs instead of O(M).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use swscc_core::{run_pipeline, Algorithm, Pipeline, RunGuard, SccConfig};
use swscc_graph::bfs::{par_bfs_levels_with, Direction};
use swscc_graph::datasets::Dataset;
use swscc_graph::gen::rmat::{rmat, rmat_compressed, RmatConfig};
use swscc_graph::{Adjacency, CompressedCsr, CsrGraph, GraphView, TraversalConfig};

/// Print both backends' footprint reports and the headline ratio — the
/// satellite numbers (bytes/edge, % of raw) that EXPERIMENTS.md tabulates.
fn report_footprint(label: &str, g: &CsrGraph, z: &CompressedCsr) {
    let raw = g.memory_footprint();
    let packed = z.memory_footprint();
    eprintln!("[{label}] raw:        {raw}");
    eprintln!("[{label}] compressed: {packed}");
    eprintln!(
        "[{label}] ratio: {:.1}% of raw ({:.2} vs {:.2} B/edge)",
        packed.ratio_vs_raw() * 100.0,
        packed.bytes_per_edge(),
        raw.bytes_per_edge(),
    );
}

/// The decode tax in isolation: the same EdgeMap BFS (the traversal
/// kernel under trim, FW-BW, and WCC) on raw `u32` slices
/// vs chunk-decoded VarInt streams. Throughput is edges/second, so the
/// two bars are directly comparable.
///
/// Two scales on purpose. The livej analog (~700 KB raw) lives in
/// cache, so raw slice reads are nearly free and the bars show the pure
/// CPU cost of VarInt decode — the worst case. rmat-s20 (~82 MB raw vs
/// ~43 MB compressed) is where a compression backend actually operates:
/// out of cache, the raw traversal is memory-bound and the halved byte
/// traffic buys back most of the decode arithmetic.
fn bench_edgemap(c: &mut Criterion) {
    let cfg = TraversalConfig::default();
    let adj = Adjacency::Directed(Direction::Forward);
    let mut group = c.benchmark_group("compression/edgemap");
    group.sample_size(10);

    let g = Dataset::Livej.generate(0.05, 42);
    let z = CompressedCsr::from_csr(&g);
    report_footprint("livej-0.05", &g, &z);
    group.throughput(criterion::Throughput::Elements(g.num_edges() as u64));
    group.bench_function("bfs-raw/livej", |b| {
        b.iter(|| black_box(par_bfs_levels_with(&g, 0, adj, &cfg).len()))
    });
    group.bench_function("bfs-compressed/livej", |b| {
        b.iter(|| black_box(par_bfs_levels_with(&z, 0, adj, &cfg).len()))
    });

    let big = rmat(&RmatConfig::graph500(20, 8, 0x5cc));
    let zbig = CompressedCsr::from_csr(&big);
    report_footprint("rmat-s20", &big, &zbig);
    assert!(
        zbig.memory_footprint().ratio_vs_raw() < 0.6,
        "rmat-s20 must compress below 60% of raw"
    );
    group.throughput(criterion::Throughput::Elements(big.num_edges() as u64));
    group.bench_function("bfs-raw/rmat-s20", |b| {
        b.iter(|| black_box(par_bfs_levels_with(&big, 0, adj, &cfg).len()))
    });
    group.bench_function("bfs-compressed/rmat-s20", |b| {
        b.iter(|| black_box(par_bfs_levels_with(&zbig, 0, adj, &cfg).len()))
    });
    group.finish();
}

/// Full Method 2 on both backends: every phase (trim, trim2, FW-BW,
/// coloring, the task tail) runs through the `GraphView` seam, so this
/// is the whole-pipeline cost of never materializing the raw arrays.
fn bench_pipeline(c: &mut Criterion) {
    let g = Dataset::Livej.generate(0.05, 42);
    let z = CompressedCsr::from_csr(&g);
    let pipeline = Pipeline::stock(Algorithm::Method2).unwrap();
    let cfg = SccConfig::with_threads(2);

    let mut group = c.benchmark_group("compression/pipeline");
    group.sample_size(10);
    group.throughput(criterion::Throughput::Elements(g.num_edges() as u64));
    group.bench_function("method2-raw", |b| {
        b.iter(|| {
            let (r, _) = run_pipeline(&g, &pipeline, &cfg, &RunGuard::new()).unwrap();
            black_box(r.num_components())
        })
    });
    group.bench_function("method2-compressed", |b| {
        b.iter(|| {
            let (r, _) = run_pipeline(&z, &pipeline, &cfg, &RunGuard::new()).unwrap();
            black_box(r.num_components())
        })
    });
    group.finish();
}

/// Construction: `rmat` (materialize the full edge list + CSR, then
/// compress) vs `rmat_compressed` at several shard counts (replay the
/// edge stream per shard; peak transient memory divides by the shard
/// count — the path that fits 10-100x larger corpora in the same RAM).
fn bench_streaming(c: &mut Criterion) {
    let cfg = RmatConfig::graph500(14, 8, 0x5cc);
    let mut group = c.benchmark_group("compression/streaming");
    group.sample_size(10);
    group.bench_function("materialize-then-compress", |b| {
        b.iter(|| black_box(CompressedCsr::from_csr(&rmat(&cfg)).num_edges()))
    });
    for shards in [1usize, 4, 16] {
        group.bench_with_input(
            BenchmarkId::new("edge-stream", shards),
            &shards,
            |b, &shards| b.iter(|| black_box(rmat_compressed(&cfg, shards).num_edges())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_edgemap, bench_pipeline, bench_streaming);
criterion_main!(benches);
