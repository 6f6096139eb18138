//! Workspace task runner. The one subcommand is the static-analysis
//! gate:
//!
//! ```text
//! cargo run -p xtask -- lint [--rule <name>] [--json]
//!                            [--update-inventory] [--list-rules]
//! ```
//!
//! The engine itself lives in `crates/lint` (`swscc-lint`): a token-aware
//! lexer + item-level parser and a rule catalog covering facade
//! discipline, `Relaxed` and `catch_unwind` justifications, decode-path
//! allocation, the DESIGN.md §8 atomic inventory, SAFETY invariant tags,
//! GraphView and delta-overlay backend discipline, and serve-layer
//! socket timeouts. See DESIGN.md §13 for the catalog, and for the
//! checks left to rustc, clippy and module privacy.
//!
//! Exit codes: **0** clean, **1** findings, **2** usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use swscc_lint::{run_lint, LintOptions};

const USAGE: &str = "usage: cargo run -p xtask -- lint \
                     [--rule <name>] [--json] [--update-inventory] [--list-rules]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(args),
        Some(other) => {
            eprintln!("unknown xtask subcommand `{other}` (available: lint)");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn lint(args: impl Iterator<Item = String>) -> ExitCode {
    let mut opts = LintOptions {
        root: workspace_root(),
        rule: None,
        json: false,
        update_inventory: false,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rule" => match args.next() {
                Some(name) => opts.rule = Some(name),
                None => {
                    eprintln!("--rule needs a rule name");
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--json" => opts.json = true,
            "--update-inventory" => opts.update_inventory = true,
            "--list-rules" => {
                print!("{}", swscc_lint::rule_catalog());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown lint flag `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    match run_lint(&opts) {
        Ok(run) => {
            if run.clean {
                print!("{}", run.output);
                ExitCode::SUCCESS
            } else if opts.json {
                // JSON always goes to stdout so `--json > lint.json`
                // captures the artifact even on a failing run.
                print!("{}", run.output);
                ExitCode::FAILURE
            } else {
                // Text findings go to stderr, so CI logs interleave them
                // with the failure status.
                eprint!("{}", run.output);
                ExitCode::FAILURE
            }
        }
        Err(usage) => {
            eprintln!("lint: {usage}");
            ExitCode::from(2)
        }
    }
}

fn workspace_root() -> PathBuf {
    // xtask always runs via `cargo run -p xtask`, so CARGO_MANIFEST_DIR is
    // <root>/crates/xtask.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}
