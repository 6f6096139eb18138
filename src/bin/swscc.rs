//! `swscc` — command-line SCC toolkit.
//!
//! ```text
//! swscc scc <input> [--algo NAME | --pipeline STAGES] [--threads N] [--scale S]
//!           [--histogram] [--dobfs]
//!           [--live-compaction auto|always|never] [--timeout SECS]
//!           [--on-panic fallback|fail] [--inject-fault SITE[:NTH]]
//! swscc stats <input> [--scale S]
//! swscc gen <dataset> --out FILE [--scale S] [--seed N]
//! swscc condense <input> --out FILE [--scale S]
//! swscc help
//! ```
//!
//! `<input>` is either a path to a SNAP-format edge list (`src dst` lines,
//! `#`/`%` comments) or `dataset:<name>` for one of the nine built-in
//! Table 1 analogs (`dataset:livej`, `dataset:ca-road`, …).
//!
//! Exit codes: `0` success, `1` runtime failure (unreadable input, I/O),
//! `2` configuration error (bad flag, unknown algorithm/dataset),
//! `70` internal failure (worker panic not absorbed, non-convergence),
//! `124` deadline exceeded (`--timeout`).

use std::process::ExitCode;
use std::time::Duration;
use swscc::graph::datasets::Dataset;
use swscc::graph::stats::{average_degree, estimate_diameter};
use swscc::graph::{io, CompressedCsr, CsrGraph, GraphView};
use swscc::sync::fault::{self, FaultKind, FaultPlan};
use swscc::{
    detect_scc, run_checked, run_pipeline, Algorithm, CompactionPolicy, PanicPolicy, Pipeline,
    RecoveryEvent, RunGuard, SccConfig, SccError,
};

/// Exit code for configuration/usage errors (bad flag, unknown name).
const EXIT_CONFIG: u8 = 2;
/// Exit code for internal failures (unabsorbed panic, non-convergence) —
/// EX_SOFTWARE from sysexits.
const EXIT_INTERNAL: u8 = 70;
/// Exit code when `--timeout` expires, matching timeout(1).
const EXIT_TIMEOUT: u8 = 124;
/// Exit code for a load-shed run (server said try again later) —
/// EX_TEMPFAIL from sysexits.
const EXIT_TEMPFAIL: u8 = 75;

/// A CLI failure: message plus process exit code.
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    fn config(message: impl Into<String>) -> CliError {
        CliError {
            code: EXIT_CONFIG,
            message: message.into(),
        }
    }

    fn runtime(message: impl Into<String>) -> CliError {
        CliError {
            code: 1,
            message: message.into(),
        }
    }
}

impl From<SccError> for CliError {
    fn from(e: SccError) -> CliError {
        let code = match e {
            SccError::DeadlineExceeded => EXIT_TIMEOUT,
            SccError::Overloaded { .. } => EXIT_TEMPFAIL,
            SccError::Cancelled
            | SccError::NonConvergence { .. }
            | SccError::WorkerPanic { .. } => EXIT_INTERNAL,
        };
        CliError {
            code,
            message: e.to_string(),
        }
    }
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = if raw.peek().is_some_and(|v| !v.starts_with("--")) {
                    raw.next()
                } else {
                    None
                };
                flags.push((name.to_string(), value));
            } else {
                positional.push(a);
            }
        }
        Args { positional, flags }
    }

    fn flag_value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn flag_present(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn parsed_flag<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.flag_value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::config(format!("invalid value for --{name}: {v:?}"))),
        }
    }
}

fn load_input(spec: &str, scale: f64, seed: u64) -> Result<CsrGraph, CliError> {
    if let Some(name) = spec.strip_prefix("dataset:") {
        let d = Dataset::from_name(name).ok_or_else(|| {
            CliError::config(format!(
                "unknown dataset {name:?}; available: {}",
                Dataset::all().map(|d| d.name()).join(", ")
            ))
        })?;
        Ok(d.generate(scale, seed))
    } else if spec.ends_with(".bin") {
        io::load_binary(spec).map_err(|e| CliError::runtime(format!("cannot load {spec}: {e}")))
    } else {
        io::load_edge_list(spec).map_err(|e| CliError::runtime(format!("cannot load {spec}: {e}")))
    }
}

/// Parses `--inject-fault SITE[:NTH]` into an armed plan (a test aid for
/// exercising the recovery paths end-to-end; the armed fault panics at the
/// NTH hit of SITE, default 0).
fn parse_fault(spec: &str) -> Result<FaultPlan, CliError> {
    let (site, nth) = match spec.rsplit_once(':') {
        Some((site, nth)) => {
            let nth: u64 = nth
                .parse()
                .map_err(|_| CliError::config(format!("invalid --inject-fault index: {spec:?}")))?;
            (site, nth)
        }
        None => (spec, 0),
    };
    if site.is_empty() {
        return Err(CliError::config("empty --inject-fault site"));
    }
    // Fault sites are &'static str; a one-shot CLI arming leaks one small
    // allocation for the process lifetime.
    let site: &'static str = Box::leak(site.to_string().into_boxed_str());
    Ok(FaultPlan {
        site: Some(site),
        nth,
        kind: FaultKind::Panic,
        repeat: false,
    })
}

fn cmd_scc(args: &Args) -> Result<(), CliError> {
    let input = args
        .positional
        .get(1)
        .ok_or_else(|| CliError::config("usage: swscc scc <input>"))?;
    let scale: f64 = args.parsed_flag("scale", 0.25)?;
    let seed: u64 = args.parsed_flag("seed", 42)?;
    let pipeline = match args.flag_value("pipeline") {
        Some(spec) => Some(
            Pipeline::parse(spec)
                .map_err(|e| CliError::config(format!("invalid --pipeline: {e}")))?,
        ),
        None => {
            if args.flag_present("pipeline") {
                return Err(CliError::config(
                    "--pipeline requires a stage list, e.g. trim,fwbw,trim2,wcc,tasks",
                ));
            }
            None
        }
    };
    if pipeline.is_some() && args.flag_present("algo") {
        return Err(CliError::config(
            "--pipeline and --algo are mutually exclusive; a pipeline IS the algorithm",
        ));
    }
    let algo = match &pipeline {
        Some(_) => None,
        None => {
            let algo_name = args.flag_value("algo").unwrap_or("method2");
            Some(Algorithm::from_name(algo_name).ok_or_else(|| {
                CliError::config(format!(
                    "unknown algorithm {algo_name:?}; available: {}",
                    Algorithm::all().map(|a| a.name()).join(", ")
                ))
            })?)
        }
    };
    let mut cfg = SccConfig::with_threads(
        args.parsed_flag(
            "threads",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )?,
    );
    cfg.direction_optimizing = args.flag_present("dobfs");
    cfg.live_set_compaction = match args.flag_value("live-compaction").unwrap_or("auto") {
        "auto" => CompactionPolicy::Auto,
        "always" => CompactionPolicy::Always,
        "never" => CompactionPolicy::Never,
        v => {
            return Err(CliError::config(format!(
                "invalid --live-compaction {v:?} (auto|always|never)"
            )))
        }
    };
    cfg.on_panic = match args.flag_value("on-panic").unwrap_or("fallback") {
        "fallback" => PanicPolicy::Fallback,
        "fail" => PanicPolicy::Fail,
        v => {
            return Err(CliError::config(format!(
                "invalid --on-panic {v:?} (fallback|fail)"
            )))
        }
    };
    let guard = match args.flag_value("timeout") {
        None => {
            if args.flag_present("timeout") {
                return Err(CliError::config("--timeout requires a value in seconds"));
            }
            RunGuard::new()
        }
        Some(v) => {
            let secs: u64 = v
                .parse()
                .map_err(|_| CliError::config(format!("invalid --timeout {v:?} (seconds)")))?;
            RunGuard::with_deadline(Duration::from_secs(secs))
        }
    };
    let _fault_guard = match args.flag_value("inject-fault") {
        Some(spec) => Some(fault::arm(parse_fault(spec)?)),
        None => {
            if args.flag_present("inject-fault") {
                return Err(CliError::config("--inject-fault requires SITE[:NTH]"));
            }
            None
        }
    };

    let g = load_input(input, scale, seed)?;
    eprintln!("loaded: {} nodes, {} edges", g.num_nodes(), g.num_edges());
    let (r, report) = if args.flag_present("compressed") {
        // Compressed backend: every engine stage runs on the byte-delta
        // representation through the GraphView seam; only the pipeline
        // path supports it (the sequential oracles index raw CSR slices).
        let p = match (&pipeline, algo) {
            (Some(p), _) => {
                println!("pipeline:    {p} (compressed)");
                p.clone()
            }
            (None, Some(algo)) => {
                let p = Pipeline::stock(algo).ok_or_else(|| {
                    CliError::config(format!(
                        "--compressed requires a pipeline algorithm (got {:?}); \
                         the sequential oracles run on raw CSR only",
                        algo.name()
                    ))
                })?;
                println!("algorithm:   {} (compressed)", algo.name());
                p
            }
            (None, None) => unreachable!("algo resolved whenever --pipeline is absent"),
        };
        let z = CompressedCsr::from_csr(&g);
        eprintln!("{}", z.memory_footprint());
        run_pipeline(&z, &p, &cfg, &guard)?
    } else {
        match (&pipeline, algo) {
            (Some(p), _) => {
                let out = run_pipeline(&g, p, &cfg, &guard)?;
                println!("pipeline:    {p}");
                out
            }
            (None, Some(algo)) => {
                let out = run_checked(&g, algo, &cfg, &guard)?;
                println!("algorithm:   {}", algo.name());
                out
            }
            (None, None) => unreachable!("algo resolved whenever --pipeline is absent"),
        }
    };
    println!("components:  {}", r.num_components());
    println!("largest scc: {}", r.largest_component_size());
    println!("trivial:     {}", r.num_trivial());
    if pipeline.is_some() {
        // Fig. 7/8-style per-phase breakdown: time + resolved counts.
        print!("{report}");
    } else {
        println!("time:        {:?}", report.total_time);
        for (phase, t) in &report.phase_times {
            println!("  {:<12} {:?}", phase.name(), t);
        }
    }
    for recovery in &report.recoveries {
        let line = match recovery {
            RecoveryEvent::TaskRetried { message } => {
                format!("task retried after boundary panic ({message})")
            }
            RecoveryEvent::DegradedToSequential { message, residue } => {
                format!("degraded to sequential finish on {residue} residue nodes ({message})")
            }
            RecoveryEvent::RestartedSequential { message } => {
                format!("restarted sequentially from scratch ({message})")
            }
        };
        eprintln!("recovery:    {line}");
    }
    if args.flag_present("histogram") {
        println!("scc-size histogram (log-binned):");
        for (lo, count) in r.size_histogram().log_binned() {
            println!("  size ≥ {lo:<10} {count}");
        }
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), CliError> {
    let input = args
        .positional
        .get(1)
        .ok_or_else(|| CliError::config("usage: swscc stats <input>"))?;
    let scale: f64 = args.parsed_flag("scale", 0.25)?;
    let g = load_input(input, scale, 42)?;
    println!("nodes:       {}", g.num_nodes());
    println!("edges:       {}", g.num_edges());
    println!("avg degree:  {:.2}", average_degree(&g));
    println!("diameter:    ~{} (sampled)", estimate_diameter(&g, 8, 1));
    println!("memory:      {} MiB (CSR)", g.memory_bytes() / (1 << 20));
    let max_out = g.nodes().map(|v| g.out_degree(v)).max().unwrap_or(0);
    let max_in = g.nodes().map(|v| g.in_degree(v)).max().unwrap_or(0);
    println!("max degree:  out={max_out} in={max_in}");
    // Per-backend memory footprint: raw CSR vs the byte-delta compressed
    // form, with the compression ratio the §4.x experiments track.
    println!("{}", g.memory_footprint());
    let z = CompressedCsr::from_csr(&g);
    println!("{}", z.memory_footprint());
    let raw = g.memory_footprint().total_bytes() as f64;
    let zt = z.memory_footprint().total_bytes() as f64;
    println!(
        "compression: {:.2}x ({:.1}% of raw)",
        raw / zt,
        100.0 * zt / raw
    );
    Ok(())
}

fn cmd_gen(args: &Args) -> Result<(), CliError> {
    let name = args
        .positional
        .get(1)
        .ok_or_else(|| CliError::config("usage: swscc gen <dataset> --out FILE"))?;
    let out = args
        .flag_value("out")
        .ok_or_else(|| CliError::config("missing --out FILE"))?;
    let scale: f64 = args.parsed_flag("scale", 0.25)?;
    let seed: u64 = args.parsed_flag("seed", 42)?;
    let d = Dataset::from_name(name)
        .ok_or_else(|| CliError::config(format!("unknown dataset {name:?}")))?;
    let g = d.generate(scale, seed);
    if out.ends_with(".bin") {
        io::save_binary(&g, out)
            .map_err(|e| CliError::runtime(format!("cannot write {out}: {e}")))?;
    } else {
        io::save_edge_list(&g, out)
            .map_err(|e| CliError::runtime(format!("cannot write {out}: {e}")))?;
    }
    println!(
        "wrote {} ({} nodes, {} edges)",
        out,
        g.num_nodes(),
        g.num_edges()
    );
    Ok(())
}

fn cmd_condense(args: &Args) -> Result<(), CliError> {
    let input = args
        .positional
        .get(1)
        .ok_or_else(|| CliError::config("usage: swscc condense <input> --out FILE"))?;
    let out = args
        .flag_value("out")
        .ok_or_else(|| CliError::config("missing --out FILE"))?;
    let scale: f64 = args.parsed_flag("scale", 0.25)?;
    let g = load_input(input, scale, 42)?;
    let (r, _) = detect_scc(&g, Algorithm::Method2, &SccConfig::default());
    let dag = r.condensation(&g);
    io::save_edge_list(&dag, out)
        .map_err(|e| CliError::runtime(format!("cannot write {out}: {e}")))?;
    println!(
        "condensation: {} SCCs, {} edges -> {}",
        dag.num_nodes(),
        dag.num_edges(),
        out
    );
    Ok(())
}

const HELP: &str = "\
swscc — parallel SCC detection for small-world graphs (SC'13 reproduction)

USAGE:
  swscc scc <input> [--algo NAME | --pipeline STAGES] [--threads N] [--scale S]
            [--compressed] [--histogram] [--dobfs]
            [--live-compaction auto|always|never] [--timeout SECS]
            [--on-panic fallback|fail] [--inject-fault SITE[:NTH]]
  swscc stats <input> [--scale S]
  swscc gen <dataset> --out FILE [--scale S] [--seed N]
  swscc condense <input> --out FILE [--scale S]

<input>: an edge-list file (.bin for the binary format), or dataset:<name>
         for a built-in analog
         (livej flickr baidu wiki friend twitter orkut patents ca-road)
--algo:  tarjan kosaraju pearce fwbw coloring baseline method1 method2
         multistep
--pipeline: run a custom stage composition through the phase-pipeline
         engine instead of a named algorithm (mutually exclusive with
         --algo). STAGES is comma-separated from: trim fwbw peel trim2
         wcc coloring colortail serial tasks; the list must end in a
         terminal stage (tasks, coloring, or serial) and fwbw/peel may
         not follow a re-partitioning
         stage (wcc, colortail). Prints a per-phase time/resolved
         breakdown (paper Figs. 7-8).
         Examples:
           --pipeline trim,fwbw,trim,trim2,trim,wcc,tasks   (= method2)
           --pipeline trim,fwbw,wcc,tasks                   (Trim2 ablation)
--compressed: run the phase-pipeline engine on the byte-delta compressed
            CSR backend (~2x smaller); works with --pipeline or any
            parallel --algo (fwbw baseline method1 method2 coloring
            multistep), not the sequential oracles. Prints the memory
            footprint of the compressed form before the run.
--timeout:  abort cleanly with exit code 124 after SECS wall-clock seconds
--on-panic: fallback (default) absorbs worker panics by retrying or
            degrading to a sequential finish; fail exits 70 on first panic
--inject-fault: arm a deterministic panic at the NTH hit of a named fault
            site (recovery-path test aid)

EXIT CODES: 0 ok, 1 runtime failure, 2 bad configuration,
            70 internal failure, 124 timeout
";

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    let cmd = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("help");
    let result = match cmd {
        "scc" => cmd_scc(&args),
        "stats" => cmd_stats(&args),
        "gen" => cmd_gen(&args),
        "condense" => cmd_condense(&args),
        "help" | "--help" | "-h" => {
            println!("{HELP}");
            Ok(())
        }
        other => Err(CliError::config(format!(
            "unknown command {other:?}\n\n{HELP}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}
