//! Rule 3 — unsafe justification: every `unsafe` keyword (block, fn,
//! impl, trait) must carry a `// SAFETY:` comment on the same line or
//! earlier in the same paragraph. Applies to test code too — a test
//! leaning on `unsafe` is asserting something about memory safety and
//! must say what.
//!
//! Token-aware: `unsafe` inside strings, doc comments, and identifiers
//! like `unsafe_op` never fires; conversely a `// SAFETY:` that lives
//! only in a doc comment or a string no longer satisfies the rule.
//!
//! Kept beside clippy's `undocumented_unsafe_blocks`, which reads source
//! lines rather than tokens and so accepts `"// SAFETY: …"` inside a
//! string literal on the line above a block (DESIGN.md §13).

use crate::engine::{Finding, Rule, Workspace};
use crate::rules::{finding_at, Code};
use crate::source::SourceFile;

pub struct UnsafeJustified;

impl Rule for UnsafeJustified {
    fn name(&self) -> &'static str {
        "unsafe"
    }

    fn description(&self) -> &'static str {
        "every `unsafe` carries a `// SAFETY:` comment in the same paragraph"
    }

    fn check_file(&self, file: &SourceFile, _ws: &Workspace, out: &mut Vec<Finding>) {
        let code = Code::new(file);
        for i in 0..code.len() {
            if code.text(i) != "unsafe" {
                continue;
            }
            if !file.has_justification(code.line(i), "// SAFETY:") {
                out.push(finding_at(
                    &code,
                    i,
                    self.name(),
                    "`unsafe` without a `// SAFETY:` comment (same line or earlier in the \
                     same paragraph; doc comments and strings don't count)"
                        .to_string(),
                ));
            }
        }
    }
}
