//! Criterion microbenchmarks: runtime substrate (work queue, bitset,
//! frontier, the `EdgeMap` traversal kernel).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rayon::prelude::*;
use std::hint::black_box;
use swscc_graph::bfs::{self, Direction, UNREACHED};
use swscc_graph::datasets::Dataset;
use swscc_graph::{CsrGraph, NodeId};
use swscc_parallel::pool::with_pool;
use swscc_parallel::{AtomicBitSet, Frontier, TwoLevelQueue};
use swscc_sync::atomic::{AtomicU32, AtomicUsize, Ordering};

fn bench_workqueue(c: &mut Criterion) {
    let mut group = c.benchmark_group("workqueue");
    group.sample_size(10);
    // 10k pre-seeded trivial tasks, swept over K — the §4.3 batching axis.
    for k in [1usize, 8, 64] {
        group.bench_with_input(BenchmarkId::new("drain-10k", k), &k, |b, &k| {
            b.iter(|| {
                let q = TwoLevelQueue::new(k);
                for i in 0..10_000usize {
                    q.push_global(i);
                }
                let sum = AtomicUsize::new(0);
                q.run(2, |i, _| {
                    sum.fetch_add(i, Ordering::Relaxed);
                });
                black_box(sum.load(Ordering::Relaxed))
            })
        });
    }
    // Self-spawning tree: stresses local-queue push + spill.
    group.bench_function("spawn-tree", |b| {
        b.iter(|| {
            let q = TwoLevelQueue::new(8);
            q.push_global(14u32);
            let leaves = AtomicUsize::new(0);
            q.run(2, |n, w| {
                if n < 2 {
                    leaves.fetch_add(1, Ordering::Relaxed);
                } else {
                    w.push(n - 1);
                    w.push(n - 2);
                }
            });
            black_box(leaves.load(Ordering::Relaxed))
        })
    });
    group.finish();
}

fn bench_bitset(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitset");
    group.sample_size(20);
    group.bench_function("set-1m", |b| {
        b.iter(|| {
            let bits = AtomicBitSet::new(1 << 20);
            for i in (0..1 << 20).step_by(3) {
                bits.set(i);
            }
            black_box(bits.count_ones())
        })
    });
    group.bench_function("iter-ones", |b| {
        let bits = AtomicBitSet::new(1 << 20);
        for i in (0..1 << 20).step_by(7) {
            bits.set(i);
        }
        b.iter(|| black_box(bits.iter_ones().sum::<usize>()))
    });
    group.finish();
}

/// The seed implementation of `par_bfs_levels` before the `EdgeMap` port,
/// kept verbatim as the parity baseline: per-level parallel
/// `flat_map_iter` + `collect`, allocating a fresh frontier vector per
/// level.
fn par_bfs_levels_seed(g: &CsrGraph, src: NodeId, dir: Direction) -> Vec<u32> {
    let n = g.num_nodes();
    let mut levels_atomic: Vec<AtomicU32> = Vec::with_capacity(n);
    levels_atomic.resize_with(n, || AtomicU32::new(UNREACHED));
    if n == 0 {
        return Vec::new();
    }
    levels_atomic[src as usize].store(0, Ordering::Relaxed);
    let mut frontier = vec![src];
    let mut depth = 0u32;
    while !frontier.is_empty() {
        depth += 1;
        let next: Vec<NodeId> = frontier
            .par_iter()
            .flat_map_iter(|&u| dir.neighbors(g, u).iter().copied())
            .filter(|&v| {
                levels_atomic[v as usize].load(Ordering::Relaxed) == UNREACHED
                    && levels_atomic[v as usize]
                        .compare_exchange(UNREACHED, depth, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
            })
            .collect();
        frontier = next;
    }
    levels_atomic
        .into_iter()
        .map(AtomicU32::into_inner)
        .collect()
}

/// The `EdgeMap` kernel vs the seed per-level-collect BFS, on the two web
/// analogs with the most different giant-SCC shapes (LiveJournal 79%,
/// Baidu 28%), swept over thread counts. The acceptance bar: the kernel
/// port at parity or faster than the seed implementation.
fn bench_edge_map_bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("edge-map-bfs");
    group.sample_size(10);
    for d in [Dataset::Livej, Dataset::Baidu] {
        let g = d.generate(0.05, 42);
        group.throughput(Throughput::Elements(g.num_edges() as u64));
        for threads in [1usize, 2, 4] {
            let id = format!("{}/t{}", d.name(), threads);
            group.bench_function(BenchmarkId::new("seed-collect", &id), |b| {
                b.iter(|| {
                    with_pool(threads, || {
                        black_box(par_bfs_levels_seed(black_box(&g), 0, Direction::Forward))
                    })
                })
            });
            group.bench_function(BenchmarkId::new("kernel", &id), |b| {
                b.iter(|| {
                    with_pool(threads, || {
                        black_box(bfs::par_bfs_levels(black_box(&g), 0, Direction::Forward))
                    })
                })
            });
            group.bench_function(BenchmarkId::new("kernel-dobfs", &id), |b| {
                b.iter(|| {
                    with_pool(threads, || {
                        black_box(bfs::par_bfs_levels_dobfs(
                            black_box(&g),
                            0,
                            Direction::Forward,
                        ))
                    })
                })
            });
        }
    }
    group.finish();
}

/// Frontier advancement in isolation: double-buffered reuse vs a fresh
/// allocation+collect per level, on a synthetic constant-width expansion.
fn bench_frontier(c: &mut Criterion) {
    let mut group = c.benchmark_group("frontier");
    group.sample_size(20);
    const WIDTH: u32 = 4096;
    const LEVELS: usize = 64;
    group.throughput(Throughput::Elements((WIDTH as usize * LEVELS) as u64));
    group.bench_function("advance-reuse", |b| {
        let mut f = Frontier::with_capacity(WIDTH as usize);
        b.iter(|| {
            f.seed(0..WIDTH);
            for _ in 0..LEVELS {
                f.advance(2, |chunk, out| {
                    for &v in chunk {
                        out.push(v.wrapping_add(1));
                    }
                });
            }
            black_box(f.len())
        })
    });
    group.bench_function("collect-per-level", |b| {
        b.iter(|| {
            let mut frontier: Vec<u32> = (0..WIDTH).collect();
            for _ in 0..LEVELS {
                frontier = frontier.par_iter().map(|&v| v.wrapping_add(1)).collect();
            }
            black_box(frontier.len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_workqueue,
    bench_bitset,
    bench_frontier,
    bench_edge_map_bfs
);
criterion_main!(benches);
