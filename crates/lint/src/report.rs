//! Finding reporters: human text for terminals/CI logs, JSON for the
//! uploaded CI artifact and tooling. Both are hand-rolled — the engine
//! is dependency-free by design.

#![allow(
    clippy::let_underscore_must_use,
    reason = "`fmt::Write` into a `String` cannot fail"
)]

use crate::engine::Report;
use std::fmt::Write as _;

/// `file:line: [rule] message` lines plus a one-line summary, matching
/// the old `xtask audit` output shape so log-scraping habits survive.
pub fn text(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
    }
    if report.findings.is_empty() {
        let _ = writeln!(out, "lint: OK — {} files clean", report.files_scanned);
    } else {
        let _ = writeln!(
            out,
            "lint: FAILED — {} finding(s) across {} files",
            report.findings.len(),
            report.files_scanned
        );
    }
    out
}

/// Stable JSON: `{"files_scanned": N, "findings": […]}`.
pub fn json(report: &Report) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"files_scanned\": {},", report.files_scanned);
    out.push_str("  \"findings\": [");
    let list = &report.findings;
    for (i, f) in list.iter().enumerate() {
        let sep = if i + 1 == list.len() { "" } else { "," };
        let _ = write!(
            out,
            "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}{sep}",
            json_str(f.rule),
            json_str(&f.file),
            f.line,
            json_str(&f.message)
        );
    }
    out.push_str(if list.is_empty() { "]\n" } else { "\n  ]\n" });
    out.push_str("}\n");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Finding, Report};

    fn sample() -> Report {
        Report {
            findings: vec![Finding {
                rule: "relaxed",
                file: "a.rs".to_string(),
                line: 3,
                message: "msg with \"quotes\" and\nnewline".to_string(),
            }],
            files_scanned: 5,
        }
    }

    #[test]
    fn text_shape() {
        let t = text(&sample());
        assert!(t.starts_with("a.rs:3: [relaxed] "));
        assert!(t.contains("lint: FAILED — 1 finding(s)"));
    }

    #[test]
    fn json_escapes() {
        let j = json(&sample());
        assert!(j.contains("\\\"quotes\\\""));
        assert!(j.contains("\\n"));
        assert!(j.contains("\"files_scanned\": 5"));
    }
}
