//! sccbench — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path sccbench/Cargo.toml -- \
//!     --workload smallworld --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Each workload is one graph class, driven through every layer by its
//! public functions: batch partitions against a frozen reference
//! Tarjan, then an in-process `Server` over a unix socket, first with
//! read-only traffic and then with open-loop writes beside a reader.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! phases with spans on, replays the same seeded scripts against each
//! layer, and prints the per-layer metrics. The last line of standard
//! output is one JSON object; any wrong answer makes it say
//! `"correct": false` and the exit code 1. See README.md for why each
//! workload, scale and rate was chosen.

mod batch;
mod echo;
mod layers;
mod reference;
mod serve;
mod trace;
mod util;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use swscc_core::{Algorithm, Pipeline, SccConfig};
use swscc_graph::datasets::Dataset;
use swscc_graph::{CompressedCsr, CsrGraph};
use swscc_serve::{ServeConfig, ServedGraph, Server};

/// One graph class and the sizes and rates it is driven at.
pub struct Workload {
    pub name: &'static str,
    pub dataset: Dataset,
    /// Dataset scale of the graph the batch phase partitions.
    pub batch_scale: f64,
    /// Dataset scale of the graph the server answers about. Every
    /// served write rebuilds the snapshot in O(N + M), so this graph is
    /// smaller than the batch one.
    pub serve_scale: f64,
    /// Share of read requests that are `condensation-reach`, per mille.
    pub reach_per_mille: u64,
    /// Open-loop write rate of the mixed phase, writes per second.
    pub write_hz: f64,
    /// Inserted edges go from the higher node id to the lower, the
    /// order every edge of the class has (a new citation cites an older
    /// patent). Otherwise inserts join uniformly random pairs.
    pub inserts_keep_order: bool,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "smallworld",
        dataset: Dataset::Livej,
        batch_scale: 2.0,
        serve_scale: 0.25,
        reach_per_mille: 10,
        write_hz: 5.0,
        inserts_keep_order: false,
    },
    Workload {
        name: "dag",
        dataset: Dataset::Patents,
        batch_scale: 2.0,
        serve_scale: 0.25,
        reach_per_mille: 10,
        write_hz: 4.0,
        inserts_keep_order: true,
    },
];

/// Set-up runs this many times and `setup_s` is their median, so one
/// slow allocation does not decide it. The first builds what the run
/// uses; the others run after the measured phases, once `peak_rss_mb`
/// has been read, so a repeat's allocations cannot set the peak.
const SETUP_REPS: usize = 3;

/// Shares of `--seconds` given to the batch, read and mixed phases.
const BATCH_SHARE: f64 = 0.25;
const READ_SHARE: f64 = 0.1;
const MIXED_SHARE: f64 = 0.65;

/// Everything set-up builds: what `setup_s` times, plus the served
/// graph's size and edge list, copied outside the clock.
pub struct Env {
    pub graph: CsrGraph,
    pub compressed: CompressedCsr,
    pub server: Arc<Server>,
    serve_n: usize,
    serve_edges: Vec<(u32, u32)>,
}

/// The benchmark's own copies, built outside `setup_s`.
pub struct Oracle {
    pub batch: reference::PlainGraph,
    pub batch_labels: Vec<u32>,
    pub serve_n: usize,
    pub serve_edges: Vec<(u32, u32)>,
    pub serve: reference::PlainGraph,
    pub serve_labels: Vec<u32>,
}

/// Counts and metrics gathered across the phases.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// First wrong answer seen, if any.
    pub mismatch: Option<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn wrong(&mut self, what: String) {
        if self.mismatch.is_none() {
            eprintln!("sccbench: wrong answer: {what}");
            self.mismatch = Some(what);
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatch.is_none(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn threads() -> usize {
    swscc_parallel::pool::hardware_threads()
}

pub fn method2() -> Pipeline {
    Pipeline::stock(Algorithm::Method2).expect("method2 is a stock pipeline")
}

/// Generous deadlines: the seed code must fail no request for lack of
/// budget, so a refusal in a run is a real regression.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        scc: SccConfig::with_threads(threads()),
        default_deadline_ms: 30_000,
        max_deadline_ms: 60_000,
        io_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    }
}

fn serve_seed(seed: u64) -> u64 {
    seed ^ 0x5E_7E
}

/// Builds the graphs and the server once, returning them with the
/// set-up seconds: graph generation, compressed build, and `Server::new`
/// with its epoch-0 build. The served graph's edge list is copied
/// outside the clock.
fn setup_once(w: &Workload, seed: u64) -> Result<(Env, f64), String> {
    trace::span("setup", seed, || setup_timed(w, seed))
}

fn setup_timed(w: &Workload, seed: u64) -> Result<(Env, f64), String> {
    let t = Instant::now();
    let graph = trace::span("graph.generate", 0, || {
        w.dataset.generate(w.batch_scale, seed)
    });
    let compressed = trace::span("graph.compress", 0, || CompressedCsr::from_csr(&graph));
    let serve_graph = trace::span("graph.generate_serve", 0, || {
        w.dataset.generate(w.serve_scale, serve_seed(seed))
    });
    let mut secs = t.elapsed().as_secs_f64();
    let serve_n = serve_graph.num_nodes();
    let serve_edges: Vec<(u32, u32)> = serve_graph.edges().collect();
    let t = Instant::now();
    let server = trace::span("serve.server_new", 0, || {
        Server::new(ServedGraph::Raw(serve_graph), serve_config())
    })
    .map_err(|e| format!("Server::new failed: {e}"))?;
    secs += t.elapsed().as_secs_f64();
    let env = Env {
        graph,
        compressed,
        server,
        serve_n,
        serve_edges,
    };
    Ok((env, secs))
}

fn run(w: &Workload, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let threads = threads();
    eprintln!(
        "sccbench: workload {} seed {seed} seconds {seconds} trace {} threads {threads}",
        w.name, traced as u8
    );
    trace::set_enabled(traced);
    let mut out = Outcome::default();

    let (mut env, secs) = setup_once(w, seed)?;
    let mut setup_secs = vec![secs];
    let (serve_n, serve_edges) = (env.serve_n, std::mem::take(&mut env.serve_edges));

    let batch_plain =
        reference::PlainGraph::from_edges(env.graph.num_nodes(), || env.graph.edges());
    let batch_labels = reference::canonical(&reference::tarjan(&batch_plain));
    let serve_plain = reference::PlainGraph::from_edges(serve_n, || serve_edges.iter().copied());
    let serve_labels = reference::canonical(&reference::tarjan(&serve_plain));
    let oracle = Oracle {
        batch: batch_plain,
        batch_labels,
        serve_n,
        serve_edges,
        serve: serve_plain,
        serve_labels,
    };
    eprintln!(
        "sccbench: batch graph {} nodes {} edges; serve graph {} nodes {} edges",
        env.graph.num_nodes(),
        env.graph.num_edges(),
        oracle.serve_n,
        oracle.serve_edges.len()
    );

    let secs = seconds as f64;
    let batch = batch::run(
        &env,
        &oracle,
        Duration::from_secs_f64(secs * BATCH_SHARE),
        threads,
        &mut out,
    );
    let served = serve::run(
        w,
        seed,
        &env,
        &oracle,
        Duration::from_secs_f64(secs * READ_SHARE),
        Duration::from_secs_f64(secs * MIXED_SHARE),
        &mut out,
    )?;

    if traced {
        layers::report(&env, &oracle, &batch, &served, &mut out);
    }
    let peak_rss_mb = util::peak_rss_mb();
    drop(env);
    for _ in 1..SETUP_REPS {
        let (again, secs) = setup_once(w, seed)?;
        setup_secs.push(secs);
        drop(again);
    }

    if traced {
        let dir = std::path::Path::new(".bench_build");
        // One file per workload, overwritten by its next traced run.
        let path = dir.join(format!("sccbench-trace-{}.jsonl", w.name));
        std::fs::create_dir_all(dir)
            .and_then(|()| trace::write_jsonl(&path))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("sccbench: spans written to {}", path.display());
    } else {
        out.metric("setup_s", util::median(&setup_secs), "s");
        out.metric("peak_rss_mb", peak_rss_mb, "MB");
        batch.end_to_end(&mut out);
        served.end_to_end(&mut out);
    }
    Ok(out)
}

fn usage() -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: sccbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = WORKLOADS.iter().find(|w| w.name == value.as_str()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(),
        }
    }
    let (Some(w), Some(seed), Some(seconds), Some(traced)) = (workload, seed, seconds, traced)
    else {
        return usage();
    };
    match run(w, seed, seconds, traced) {
        Ok(out) => {
            println!("{}", out.json());
            if out.mismatch.is_some() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("sccbench: {e}");
            ExitCode::FAILURE
        }
    }
}
