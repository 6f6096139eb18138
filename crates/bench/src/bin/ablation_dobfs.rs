//! §4.2 ablation: direction-optimizing BFS in the phase-1 peel.
//!
//! The paper uses level-synchronous parallel BFS and remarks that "many
//! efficient implementations of the BFS traversal have been proposed
//! [23, 27], which may improve our performance results even further" —
//! citing Beamer's direction-optimizing BFS \[10\] as its reachable-set
//! implementation reference. The library runs the direction-optimizing
//! peel by default; this harness measures it against the paper's
//! top-down peel ([`SccConfig::paper`]) on all nine dataset analogs, at
//! every thread count of the sweep.
//!
//! The two peels run alternately on one graph, so slow stretches of a
//! shared machine hit both columns alike. Each cell is the median over
//! `SWSCC_REPS` runs; `spread` is the top-down column's max − min, and a
//! row reads `slower` only when the default's median exceeds the
//! top-down median by more than that spread.

use std::time::Instant;
use swscc_bench::{print_header, reps, scale, thread_sweep};
use swscc_core::fwbw::parallel::par_fwbw;
use swscc_core::state::{AlgoState, INITIAL_COLOR};
use swscc_core::trim::par_trim;
use swscc_core::SccConfig;
use swscc_graph::bfs::{self, Direction, UNREACHED};
use swscc_graph::datasets::Dataset;
use swscc_graph::{CsrGraph, NodeId};
use swscc_parallel::pool::with_pool;

/// One peel as Method 2 runs it (Par-Trim first, then the timed
/// Par-FWBW); returns `(ms, resolved)`.
fn peel_ms(g: &CsrGraph, cfg: &SccConfig) -> (f64, usize) {
    with_pool(cfg.threads, || {
        let state = AlgoState::new(g);
        par_trim(&state);
        let t0 = Instant::now();
        let o = par_fwbw(&state, cfg, INITIAL_COLOR);
        (t0.elapsed().as_secs_f64() * 1e3, o.resolved)
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn spread(v: &[f64]) -> f64 {
    let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = v.iter().copied().fold(f64::INFINITY, f64::min);
    max - min
}

/// Times one full BFS of the raw `EdgeMap` kernel (no SCC machinery) from
/// the highest-out-degree node, with and without the bottom-up switch.
/// Returns `(top_down_ms, dir_opt_ms, reached)`, medians over the reps.
fn kernel_ms(g: &CsrGraph, threads: usize) -> (f64, f64, usize) {
    let src: NodeId = (0..g.num_nodes() as NodeId)
        .max_by_key(|&v| g.out_degree(v))
        .unwrap_or(0);
    let mut td = Vec::new();
    let mut dir_opt = Vec::new();
    let mut reached = 0usize;
    for _ in 0..reps() {
        let (ms_td, r_td, ms_do, r_do) = with_pool(threads, || {
            let t0 = Instant::now();
            let lv = bfs::par_bfs_levels(g, src, Direction::Forward);
            let ms_td = t0.elapsed().as_secs_f64() * 1e3;
            let r_td = lv.iter().filter(|&&l| l != UNREACHED).count();
            let t0 = Instant::now();
            let lv = bfs::par_bfs_levels_dobfs(g, src, Direction::Forward);
            let ms_do = t0.elapsed().as_secs_f64() * 1e3;
            let r_do = lv.iter().filter(|&&l| l != UNREACHED).count();
            (ms_td, r_td, ms_do, r_do)
        });
        assert_eq!(r_td, r_do, "both kernel modes must reach the same set");
        td.push(ms_td);
        dir_opt.push(ms_do);
        reached = r_td;
    }
    (median(td), median(dir_opt), reached)
}

fn main() {
    print_header("§4.2 ablation: direction-optimizing BFS in Par-FWBW");
    let graphs: Vec<(Dataset, CsrGraph)> = Dataset::all()
        .into_iter()
        .map(|d| (d, d.load(scale(), 42)))
        .collect();
    for threads in thread_sweep() {
        println!("threads={threads}  (peel = Method 2's par-fwbw phase, after Par-Trim)");
        println!(
            "{:<9} {:>14} {:>10} {:>14} {:>8} {:>10} {:>8}",
            "name", "top-down (ms)", "spread", "default (ms)", "ratio", "resolved", "verdict"
        );
        for (d, g) in &graphs {
            let paper = SccConfig {
                threads,
                ..SccConfig::paper()
            };
            let default = SccConfig::with_threads(threads);
            let (mut td, mut dir_opt) = (Vec::new(), Vec::new());
            let mut resolved = Vec::new();
            for rep in 0..reps() {
                // Alternate which peel goes first.
                let order = if rep % 2 == 0 {
                    [&paper, &default]
                } else {
                    [&default, &paper]
                };
                for cfg in order {
                    let (ms, r) = peel_ms(g, cfg);
                    if cfg.direction_optimizing {
                        dir_opt.push(ms);
                    } else {
                        td.push(ms);
                    }
                    resolved.push(r);
                }
            }
            assert!(
                resolved.windows(2).all(|w| w[0] == w[1]),
                "both traversals must peel the same SCC"
            );
            let s = spread(&td);
            let (m_td, m_do) = (median(td), median(dir_opt));
            println!(
                "{:<9} {:>14.2} {:>10.2} {:>14.2} {:>7.2}x {:>10} {:>8}",
                d.name(),
                m_td,
                s,
                m_do,
                m_td / m_do,
                resolved[0],
                if m_do > m_td + s { "slower" } else { "ok" }
            );
        }
        println!();
    }

    // The same switch measured on the raw EdgeMap kernel — one forward
    // BFS from the top-degree hub, no trim/pivot/color machinery — to
    // separate the traversal effect from the peel around it.
    print_header("raw EdgeMap kernel: one forward BFS from the top hub");
    println!(
        "{:<9} {:>14} {:>14} {:>8} {:>10}",
        "name", "top-down (ms)", "dir-opt (ms)", "ratio", "reached"
    );
    let threads = SccConfig::default().threads;
    for (d, g) in &graphs {
        let (t_td, t_do, reached) = kernel_ms(g, threads);
        println!(
            "{:<9} {:>14.2} {:>14.2} {:>7.2}x {:>10}",
            d.name(),
            t_td,
            t_do,
            t_td / t_do,
            reached
        );
    }
}
