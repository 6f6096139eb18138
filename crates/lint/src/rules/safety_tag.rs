//! Rule (b) — unsafe proof obligations: every `// SAFETY:` comment in
//! non-test code must name an invariant tag (`[inv:kebab-name]`), and
//! that tag must be mentioned by at least one test or model-checker
//! protocol — so each unsafe block's safety argument is anchored to an
//! artifact that actually exercises it, not just to prose.
//!
//! Convention (DESIGN.md §13): the SAFETY comment embeds `[inv:<tag>]`;
//! a test (a `tests/`/`benches/` file or a `#[cfg(test)]` region — the
//! model-checker protocol batteries live in `tests/` too) mentions the
//! same `[inv:<tag>]` in a comment near the assertion or schedule that
//! validates the invariant.

use std::collections::BTreeSet;

use crate::engine::{Finding, Rule, Workspace};

pub struct SafetyTag;

/// Extracts every `[inv:…]` tag in `text`.
fn tags_in(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("[inv:") {
        let after = &rest[at + 5..];
        if let Some(close) = after.find(']') {
            out.push(after[..close].trim().to_string());
            rest = &after[close..];
        } else {
            break;
        }
    }
    out
}

impl Rule for SafetyTag {
    fn name(&self) -> &'static str {
        "safety-tag"
    }

    fn description(&self) -> &'static str {
        "every non-test `// SAFETY:` names an `[inv:…]` tag cross-referenced by a test"
    }

    fn check_workspace(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        // Pass 1: the reference set — every tag mentioned anywhere in
        // test-classified code (including its comments and strings).
        let mut referenced: BTreeSet<String> = BTreeSet::new();
        for file in &ws.files {
            if file.path_is_test() {
                referenced.extend(tags_in(&file.text));
                continue;
            }
            for t in &file.tokens {
                if file.in_test_code(t.start) {
                    referenced.extend(tags_in(t.text(&file.text)));
                }
            }
        }

        // Pass 2: every non-test SAFETY comment must carry a referenced
        // tag.
        for file in &ws.files {
            if ws.config.is_safety_tag_exempt(&file.rel_path) || file.path_is_test() {
                continue;
            }
            for t in &file.tokens {
                if !t.kind.is_plain_comment() || file.in_test_code(t.start) {
                    continue;
                }
                let text = t.text(&file.text);
                let Some(safety_at) = text.find("SAFETY:") else {
                    continue;
                };
                // Only the first line of a multi-line block comment is
                // attributed here; tags may appear anywhere in it.
                let tags = tags_in(text);
                let line = t.line as usize + text[..safety_at].matches('\n').count();
                if tags.is_empty() {
                    out.push(Finding {
                        rule: self.name(),
                        file: file.rel_path.clone(),
                        line,
                        message: "`// SAFETY:` without an `[inv:<tag>]` invariant tag — name \
                                  the invariant and reference it from the test or \
                                  model-checker protocol that exercises it (DESIGN.md §13)"
                            .to_string(),
                    });
                    continue;
                }
                for tag in tags {
                    if !referenced.contains(&tag) {
                        out.push(Finding {
                            rule: self.name(),
                            file: file.rel_path.clone(),
                            line,
                            message: format!(
                                "invariant tag `[inv:{tag}]` is not mentioned by any test or \
                                 model-checker protocol — add the tag to the test that \
                                 exercises this invariant, or fix the tag name"
                            ),
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tags_in;

    #[test]
    fn tag_extraction() {
        assert_eq!(
            tags_in("// SAFETY: [inv:varint-bounds] and [inv:claim-once]"),
            ["varint-bounds", "claim-once"]
        );
        assert!(tags_in("// SAFETY: no tag here").is_empty());
        assert!(tags_in("[inv:unclosed").is_empty());
    }
}
