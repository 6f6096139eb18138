//! Batch phase: repeated partitions of the batch graph, interleaved
//! with the frozen reference Tarjan.
//!
//! One round runs each of four kinds once: the reference, `method2` at
//! one thread on raw CSR (`run_checked`) and on `CompressedCsr`
//! (`run_pipeline`), and `method2` at nproc threads on raw CSR. The
//! start kind rotates from round to round, so no kind always runs first
//! after the checks. Speedups are medians of per-round ratios: the
//! reference and the partition it divides ran back to back, so drift
//! that slows the machine during a run slows both.
//!
//! The end-to-end speedups are the one-thread ones. At nproc threads
//! the parallel runtime spawns scoped threads for every parallel
//! section, and on a shared two-core machine that cost swings with
//! other tenants' load: across seeds the nproc ratio spread 13-86% of
//! its median (5 seeds per workload), far beyond any bound a gate can
//! use. The nproc ratio stays visible as the per-layer
//! `parallel.partition_speedup`. The first round is a warm-up and is
//! discarded. Every partition is checked against the reference labels
//! outside the clock.

use crate::reference::{canonical, tarjan};
use crate::util::{median, ms};
use crate::{method2, trace, Env, Oracle, Outcome};
use std::time::{Duration, Instant};
use swscc_core::{run_checked, run_pipeline, Algorithm, RunGuard, RunReport, SccConfig};

#[derive(Clone, Copy)]
enum Kind {
    Reference,
    RawOneThread,
    CompressedOneThread,
    Raw,
}

const ROTATION: [Kind; 4] = [
    Kind::Reference,
    Kind::RawOneThread,
    Kind::CompressedOneThread,
    Kind::Raw,
];

/// Per-round times in ms (index = round, warm-up dropped) and the
/// nproc raw runs' reports.
#[derive(Default)]
pub struct Batch {
    pub reference_ms: Vec<f64>,
    pub raw_t1_ms: Vec<f64>,
    pub compressed_t1_ms: Vec<f64>,
    pub raw_ms: Vec<f64>,
    pub reports: Vec<RunReport>,
}

impl Batch {
    fn ratio(over: &[f64], under: &[f64]) -> f64 {
        let ratios: Vec<f64> = over.iter().zip(under).map(|(o, u)| o / u).collect();
        median(&ratios)
    }

    /// Reference time over `method2` time at nproc threads, raw CSR.
    pub fn nproc_speedup(&self) -> f64 {
        Self::ratio(&self.reference_ms, &self.raw_ms)
    }

    /// One-thread `method2` time over nproc-thread time.
    pub fn self_speedup(&self) -> f64 {
        Self::ratio(&self.raw_t1_ms, &self.raw_ms)
    }

    pub fn end_to_end(&self, out: &mut Outcome) {
        out.metric(
            "partition_speedup_1t",
            Self::ratio(&self.reference_ms, &self.raw_t1_ms),
            "x",
        );
        out.metric(
            "partition_compressed_speedup_1t",
            Self::ratio(&self.reference_ms, &self.compressed_t1_ms),
            "x",
        );
    }
}

/// Runs `f`, returning its result and the milliseconds it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, ms(t.elapsed()))
}

pub fn run(
    env: &Env,
    oracle: &Oracle,
    budget: Duration,
    threads: usize,
    out: &mut Outcome,
) -> Batch {
    let pipeline = method2();
    let cfg = SccConfig::with_threads(threads);
    let cfg_t1 = SccConfig::with_threads(1);
    let guard = RunGuard::new();
    let mut batch = Batch::default();
    let start = Instant::now();
    let mut round = 0usize;
    // At least the warm-up round and one measured round.
    while round < 2 || start.elapsed() < budget {
        let mut times = [0.0f64; 4];
        trace::span("batch.round", round as u64, || {
            for i in 0..ROTATION.len() {
                let slot = (round + i) % ROTATION.len();
                let kind = ROTATION[slot];
                let req = round as u64;
                out.attempted += 1;
                // The clock stops when the call returns: copying the
                // labels out for the check is the benchmark's work.
                let (labels, elapsed) = match kind {
                    Kind::Reference => {
                        let (l, d) =
                            timed(|| trace::span("ref.tarjan", req, || tarjan(&oracle.batch)));
                        (Ok((l, None)), d)
                    }
                    Kind::RawOneThread => {
                        let (r, d) = timed(|| {
                            trace::span("core.run_checked_t1", req, || {
                                run_checked(&env.graph, Algorithm::Method2, &cfg_t1, &guard)
                            })
                        });
                        (r.map(|(r, _)| (r.assignment().to_vec(), None)), d)
                    }
                    Kind::CompressedOneThread => {
                        let (r, d) = timed(|| {
                            trace::span("core.run_pipeline_compressed_t1", req, || {
                                run_pipeline(&env.compressed, &pipeline, &cfg_t1, &guard)
                            })
                        });
                        (r.map(|(r, _)| (r.assignment().to_vec(), None)), d)
                    }
                    Kind::Raw => {
                        let (r, d) = timed(|| {
                            trace::span("core.run_checked", req, || {
                                run_checked(&env.graph, Algorithm::Method2, &cfg, &guard)
                            })
                        });
                        (r.map(|(r, rep)| (r.assignment().to_vec(), Some(rep))), d)
                    }
                };
                times[slot] = elapsed;
                match labels {
                    Ok((labels, report)) => {
                        if canonical(&labels) != oracle.batch_labels {
                            out.wrong(format!(
                                "batch partition of kind #{slot} differs from the reference"
                            ));
                        }
                        if let (Some(report), true) = (report, round > 0) {
                            batch.reports.push(report);
                        }
                    }
                    Err(e) => {
                        eprintln!("sccbench: batch run failed: {e}");
                        out.failed += 1;
                    }
                }
            }
        });
        if round > 0 {
            batch.reference_ms.push(times[0]);
            batch.raw_t1_ms.push(times[1]);
            batch.compressed_t1_ms.push(times[2]);
            batch.raw_ms.push(times[3]);
        }
        round += 1;
    }
    eprintln!(
        "sccbench: batch {} rounds: reference {:.2} ms; method2 one thread {:.2} ms, compressed {:.2} ms; nproc threads {:.2} ms",
        batch.raw_ms.len(),
        median(&batch.reference_ms),
        median(&batch.raw_t1_ms),
        median(&batch.compressed_t1_ms),
        median(&batch.raw_ms)
    );
    batch
}
