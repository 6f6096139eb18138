//! Rule (a) — atomic inventory: enumerates every file's atomic types and
//! memory orderings from the token stream and diffs the result against
//! the generated inventory block in DESIGN.md §8, so the documented
//! concurrency surface can never silently drift from the code. Also
//! enforces §8's invariant 1 mechanically: the only ordering stronger
//! than `Relaxed` in the substrate is the work-queue termination pair.
//!
//! The generated block lives between these markers in DESIGN.md:
//!
//! ```text
//! <!-- lint:atomic-inventory:begin -->
//! …one line per file…
//! <!-- lint:atomic-inventory:end -->
//! ```
//!
//! Regenerate with `cargo run -p xtask -- lint --update-inventory`.

use std::collections::BTreeSet;

use crate::engine::{Finding, Rule, Workspace};
use crate::rules::Code;

pub const BEGIN_MARKER: &str = "<!-- lint:atomic-inventory:begin -->";
pub const END_MARKER: &str = "<!-- lint:atomic-inventory:end -->";

/// The std atomic type names (the facade re-exports the same names).
const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Files allowed to use orderings stronger than `Relaxed`: the
/// work-queue termination protocol is the one true Release/Acquire pair
/// (DESIGN.md §8, invariant 1).
const STRONG_ORDERING_OK: &[&str] = &["crates/parallel/src/workqueue.rs"];

/// One file's extracted atomic surface.
#[derive(Debug, PartialEq, Eq)]
pub struct FileInventory {
    pub file: String,
    pub atomics: BTreeSet<String>,
    pub orderings: BTreeSet<String>,
}

/// Extracts the inventory over every in-scope file (inventory-exempt
/// prefixes, tests/benches paths, and `#[cfg(test)]` regions excluded).
pub fn extract(ws: &Workspace) -> Vec<FileInventory> {
    let mut out = Vec::new();
    for file in &ws.files {
        if ws.config.is_inventory_exempt(&file.rel_path) || file.path_is_test() {
            continue;
        }
        let code = Code::new(file);
        let mut atomics = BTreeSet::new();
        let mut orderings = BTreeSet::new();
        for i in 0..code.len() {
            if file.in_test_code(code.offset(i)) {
                continue;
            }
            let t = code.text(i);
            if ATOMIC_TYPES.contains(&t) {
                atomics.insert(t.to_string());
            }
            if t == "Ordering" {
                for o in ORDERINGS {
                    if code.path_at(i, &["Ordering", o]) {
                        orderings.insert(o.to_string());
                    }
                }
            }
        }
        if !atomics.is_empty() || !orderings.is_empty() {
            out.push(FileInventory {
                file: file.rel_path.clone(),
                atomics,
                orderings,
            });
        }
    }
    out.sort_by(|a, b| a.file.cmp(&b.file));
    out
}

/// Renders the canonical block body (one line per file, no markers).
pub fn render(inv: &[FileInventory]) -> String {
    let mut out = String::new();
    for f in inv {
        let join = |s: &BTreeSet<String>| {
            if s.is_empty() {
                "-".to_string()
            } else {
                s.iter().cloned().collect::<Vec<_>>().join(",")
            }
        };
        out.push_str(&format!(
            "{}: atomics={} orderings={}\n",
            f.file,
            join(&f.atomics),
            join(&f.orderings)
        ));
    }
    out
}

/// Pulls the generated block body out of DESIGN.md (text between the
/// markers, minus any ``` fence lines).
pub fn extract_design_block(design: &str) -> Option<String> {
    let start = design.find(BEGIN_MARKER)? + BEGIN_MARKER.len();
    let end = design[start..].find(END_MARKER)? + start;
    let body: String = design[start..end]
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim().starts_with("```"))
        .map(|l| format!("{}\n", l.trim_end()))
        .collect();
    Some(body)
}

/// Replaces the generated block in `design` with `body`, returning the
/// new DESIGN.md text (None if the markers are missing).
pub fn splice_design_block(design: &str, body: &str) -> Option<String> {
    let start = design.find(BEGIN_MARKER)? + BEGIN_MARKER.len();
    let end = design[start..].find(END_MARKER)? + start;
    Some(format!(
        "{}\n```text\n{}```\n{}{}",
        &design[..start],
        body,
        END_MARKER,
        &design[end + END_MARKER.len()..]
    ))
}

pub struct AtomicInventory;

impl Rule for AtomicInventory {
    fn name(&self) -> &'static str {
        "inventory"
    }

    fn description(&self) -> &'static str {
        "extracted atomic inventory matches DESIGN.md §8; strong orderings only in the work queue"
    }

    fn check_workspace(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let inv = extract(ws);

        // Invariant 1: no ordering stronger than Relaxed outside the
        // work-queue termination protocol.
        for f in &inv {
            if STRONG_ORDERING_OK.contains(&f.file.as_str()) {
                continue;
            }
            for o in &f.orderings {
                if o != "Relaxed" {
                    out.push(Finding {
                        rule: self.name(),
                        file: f.file.clone(),
                        line: 0,
                        message: format!(
                            "`Ordering::{o}` outside the work-queue termination protocol — \
                             DESIGN.md §8 invariant 1: add a join, not a fence"
                        ),
                    });
                }
            }
        }

        // Diff against the DESIGN.md generated block.
        let Some(documented) = &ws.config.design_inventory else {
            out.push(Finding {
                rule: self.name(),
                file: "DESIGN.md".to_string(),
                line: 0,
                message: format!(
                    "no generated atomic-inventory block found (expected between \
                     `{BEGIN_MARKER}` and `{END_MARKER}` in §8); add the markers and run \
                     `cargo run -p xtask -- lint --update-inventory`"
                ),
            });
            return;
        };
        let actual = render(&inv);
        let doc_lines: BTreeSet<&str> = documented.lines().collect();
        let act_lines: BTreeSet<&str> = actual.lines().collect();
        for missing in act_lines.difference(&doc_lines) {
            out.push(Finding {
                rule: self.name(),
                file: "DESIGN.md".to_string(),
                line: 0,
                message: format!(
                    "atomic inventory drift — code has `{missing}` but DESIGN.md §8 doesn't; \
                     run `cargo run -p xtask -- lint --update-inventory` and document the \
                     new protocol in the §8 table"
                ),
            });
        }
        for gone in doc_lines.difference(&act_lines) {
            out.push(Finding {
                rule: self.name(),
                file: "DESIGN.md".to_string(),
                line: 0,
                message: format!(
                    "atomic inventory drift — DESIGN.md §8 documents `{gone}` but the code \
                     no longer matches; run `cargo run -p xtask -- lint --update-inventory`"
                ),
            });
        }
    }
}
