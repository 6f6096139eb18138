//! The rule catalog. Each rule lives in its own module; shared
//! token-stream helpers live here.
//!
//! `facade`, `relaxed`, `recovery` and `decode` are the token-aware
//! re-implementations of the old line-based `xtask audit`; the rest are
//! the semantic rules the line-based pass could not express. Checks the
//! compiler can make (unsafe comments, engine-only recovery, dropped
//! `#[must_use]` values) are left to rustc, clippy and module privacy.
//! See DESIGN.md §13 for the catalog with rationale.

pub mod decode;
pub mod delta;
pub mod facade;
pub mod graphview;
pub mod inventory;
pub mod recovery;
pub mod relaxed;
pub mod safety_tag;
pub mod socket_timeout;
pub mod unsafe_rule;

use crate::engine::Finding;
use crate::source::SourceFile;

/// A cursor over the non-trivia tokens of one file, with the lookups
/// every rule needs: text, line, and path matching that tolerates
/// arbitrary trivia (newlines, comments) *between* path segments — the
/// evasion the line-based audit could not see.
pub struct Code<'f> {
    pub file: &'f SourceFile,
    /// Indices into `file.tokens` of non-trivia tokens.
    pub idx: Vec<usize>,
}

impl<'f> Code<'f> {
    pub fn new(file: &'f SourceFile) -> Code<'f> {
        Code {
            idx: file.code_token_indices(),
            file,
        }
    }

    pub fn len(&self) -> usize {
        self.idx.len()
    }

    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    pub fn text(&self, i: usize) -> &str {
        self.file.tokens[self.idx[i]].text(&self.file.text)
    }

    pub fn kind(&self, i: usize) -> crate::lexer::TokenKind {
        self.file.tokens[self.idx[i]].kind
    }

    pub fn line(&self, i: usize) -> usize {
        self.file.tokens[self.idx[i]].line as usize
    }

    pub fn offset(&self, i: usize) -> usize {
        self.file.tokens[self.idx[i]].start
    }

    /// Does the path `segments` (e.g. `["std", "sync", "atomic"]`) start
    /// at code token `i`? Segments must be separated by `::` (two `:`
    /// punct tokens); trivia between them is already gone.
    pub fn path_at(&self, i: usize, segments: &[&str]) -> bool {
        let mut at = i;
        for (n, seg) in segments.iter().enumerate() {
            if self.text_at(at) != Some(*seg) {
                return false;
            }
            at += 1;
            if n + 1 < segments.len() {
                if self.text_at(at) != Some(":") || self.text_at(at + 1) != Some(":") {
                    return false;
                }
                at += 2;
            }
        }
        true
    }

    /// Is code token `i` the ident `name` immediately invoked — i.e.
    /// followed by `(`? (`.foo(…)`, `foo(…)`, `path::foo(…)` all match;
    /// `use x::foo;` and a bare mention don't.)
    pub fn is_call(&self, i: usize, name: &str) -> bool {
        self.text_at(i) == Some(name) && self.text_at(i + 1) == Some("(")
    }

    /// Index of the code token holding the `)` matching the `(` at
    /// `open` (which must hold `(`), or `None` if unbalanced.
    pub fn matching_paren(&self, open: usize) -> Option<usize> {
        let mut depth = 0usize;
        for j in open..self.len() {
            match self.text_at(j)? {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j);
                    }
                }
                _ => {}
            }
        }
        None
    }

    fn text_at(&self, i: usize) -> Option<&str> {
        (i < self.len()).then(|| self.text(i))
    }
}

/// Builds a finding anchored at code token `i` of `code`.
pub fn finding_at(code: &Code<'_>, i: usize, rule: &'static str, message: String) -> Finding {
    Finding {
        rule,
        file: code.file.rel_path.clone(),
        line: code.line(i),
        message,
    }
}
