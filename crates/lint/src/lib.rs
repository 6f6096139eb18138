//! `swscc-lint` — the workspace's token-aware, dependency-free
//! static-analysis engine.
//!
//! The repo's correctness story rests on discipline that `cargo test`
//! cannot see: lock-free protocols justified ordering-by-ordering,
//! unsafe decode loops anchored to validated invariants, kernels kept
//! generic over both graph backends, recovery machinery confined to the
//! pipeline engine. This crate enforces all of it
//! mechanically, replacing the old regex/line-based `xtask audit` with a
//! real lexer ([`lexer`]), item-level structure ([`source`]), a
//! [`engine::Rule`] catalog ([`rules`]), text/JSON reporters
//! ([`report`]), and a suppression [`baseline`] with expiry.
//!
//! Entry point: `cargo run -p xtask -- lint` (see [`run_lint`]).
//! Rule catalog and conventions: DESIGN.md §13.

pub mod baseline;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;

use std::path::PathBuf;

use baseline::Baseline;
use engine::{Config, Workspace};

/// Parsed CLI options for one lint run.
pub struct LintOptions {
    /// Workspace root (the directory holding the top-level Cargo.toml).
    pub root: PathBuf,
    /// Run only the named rule.
    pub rule: Option<String>,
    /// Emit JSON instead of text.
    pub json: bool,
    /// Rewrite `crates/lint/baseline.lint` from current findings.
    pub update_baseline: bool,
    /// Rewrite the DESIGN.md §8 generated atomic-inventory block.
    pub update_inventory: bool,
}

/// Outcome of [`run_lint`]: what to print and how to exit.
pub struct LintRun {
    /// Rendered report (text or JSON per options).
    pub output: String,
    /// True if no findings were reported (exit 0), false for exit 1.
    pub clean: bool,
}

/// Relative path of the suppression baseline.
pub const BASELINE_PATH: &str = "crates/lint/baseline.lint";

/// Runs the lint over the workspace. `Err(msg)` is a usage error (bad
/// `--rule` name, unreadable root) — the caller exits 2.
pub fn run_lint(opts: &LintOptions) -> Result<LintRun, String> {
    if let Some(rule) = &opts.rule {
        let known: Vec<&str> = engine::all_rules().iter().map(|r| r.name()).collect();
        if !known.contains(&rule.as_str()) {
            return Err(format!(
                "unknown rule `{rule}` (available: {})",
                known.join(", ")
            ));
        }
    }
    if !opts.root.join("Cargo.toml").is_file() {
        return Err(format!(
            "workspace root {} has no Cargo.toml",
            opts.root.display()
        ));
    }

    if opts.update_inventory {
        update_inventory(&opts.root)?;
    }

    let ws = Workspace::load(&opts.root, Config::default());
    let baseline_file = opts.root.join(BASELINE_PATH);
    let baseline = std::fs::read_to_string(&baseline_file)
        .map(|t| Baseline::parse(&t))
        .unwrap_or_else(|_| Baseline::empty());

    if opts.update_baseline {
        // Regenerate from the *raw* finding set (no suppression), keeping
        // expiry/reason metadata for entries that still match.
        let raw = engine::run(&ws, opts.rule.as_deref(), &Baseline::empty());
        let new = baseline.regenerate(&raw.findings);
        std::fs::write(&baseline_file, &new)
            .map_err(|e| format!("cannot write {}: {e}", baseline_file.display()))?;
        return Ok(LintRun {
            output: format!(
                "lint: baseline regenerated — {} entr(ies) written to {}\n",
                new.lines()
                    .filter(|l| !l.starts_with('#') && !l.is_empty())
                    .count(),
                BASELINE_PATH
            ),
            clean: true,
        });
    }

    let report = engine::run(&ws, opts.rule.as_deref(), &baseline);
    let output = if opts.json {
        report::json(&report)
    } else {
        report::text(&report)
    };
    Ok(LintRun {
        clean: report.findings.is_empty(),
        output,
    })
}

/// Rewrites the generated atomic-inventory block in DESIGN.md from the
/// extractor's current output.
fn update_inventory(root: &std::path::Path) -> Result<(), String> {
    let design_path = root.join("DESIGN.md");
    let design =
        std::fs::read_to_string(&design_path).map_err(|e| format!("cannot read DESIGN.md: {e}"))?;
    let ws = Workspace::load(root, Config::default());
    let body = rules::inventory::render(&rules::inventory::extract(&ws));
    let new = rules::inventory::splice_design_block(&design, &body).ok_or_else(|| {
        format!(
            "DESIGN.md has no inventory markers (`{}` … `{}`)",
            rules::inventory::BEGIN_MARKER,
            rules::inventory::END_MARKER
        )
    })?;
    std::fs::write(&design_path, new).map_err(|e| format!("cannot write DESIGN.md: {e}"))?;
    Ok(())
}

/// One-line-per-rule catalog listing for `--list-rules` and the docs.
pub fn rule_catalog() -> String {
    engine::all_rules()
        .iter()
        .map(|r| format!("{:<12} {}\n", r.name(), r.description()))
        .collect()
}
