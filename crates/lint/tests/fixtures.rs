//! Fixture self-test: every file under `crates/lint/fixtures/` carries
//! `//~ <rule>` markers on the exact lines its known-bad cases must
//! fire, plus unmarked negative cases (evasions, justified sites, test
//! regions) that must stay silent. The corpus runs through the real
//! engine with the real default [`Config`] — fixture virtual paths
//! (the `//@ path:` first line) place each file where the path policy
//! expects it — and the test asserts the finding multiset equals the
//! marker multiset exactly: a missed marker and a stray finding are
//! both failures.
//!
//! The atomic-inventory rule needs purpose-built mini-workspaces instead
//! of markers (its findings carry line 0). A final test runs the engine
//! over the real tree and asserts it is clean modulo the checked-in
//! baseline.

use std::path::{Path, PathBuf};

use swscc_lint::baseline::Baseline;
use swscc_lint::engine::{self, Config, Workspace};
use swscc_lint::source::SourceFile;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// (virtual path, 1-based line, rule) — one entry per marker occurrence.
type Expectation = (String, usize, String);

struct Fixture {
    virtual_path: String,
    text: String,
    expected: Vec<Expectation>,
}

fn load_fixture(path: &Path) -> Fixture {
    let text = std::fs::read_to_string(path).unwrap();
    let first = text.lines().next().unwrap_or("");
    let virtual_path = first
        .strip_prefix("//@ path: ")
        .unwrap_or_else(|| panic!("{}: first line must be `//@ path: <rel>`", path.display()))
        .trim()
        .to_string();
    let mut expected = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let mut rest = line;
        while let Some(at) = rest.find("//~") {
            rest = &rest[at + 3..];
            let rule: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                .collect();
            assert!(
                !rule.is_empty(),
                "{}:{}: `//~` marker without a rule name",
                path.display(),
                i + 1
            );
            expected.push((virtual_path.clone(), i + 1, rule));
        }
    }
    Fixture {
        virtual_path,
        text,
        expected,
    }
}

fn load_corpus() -> (Vec<SourceFile>, Vec<Expectation>) {
    let mut files = Vec::new();
    let mut expected = Vec::new();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(fixtures_dir())
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    paths.sort();
    for path in paths {
        let fx = load_fixture(&path);
        files.push(SourceFile::parse(&fx.virtual_path, fx.text));
        expected.extend(fx.expected);
    }
    (files, expected)
}

/// The corpus config: the real default path policy, with the inventory
/// rule neutralized (its findings carry no line and get their own test
/// below — an empty extraction diffed against an empty documented block
/// reports nothing).
fn corpus_config() -> Config {
    Config {
        inventory_exempt: vec![String::new()],
        design_inventory: Some(String::new()),
        ..Config::default()
    }
}

#[test]
fn fixtures_fire_exactly_where_marked() {
    let (files, mut expected) = load_corpus();
    assert!(
        files.len() >= 10,
        "fixture corpus shrank to {}",
        files.len()
    );
    assert!(
        expected.len() >= 12,
        "fixture corpus must keep >= 12 known-bad cases, found {}",
        expected.len()
    );

    let ws = Workspace::from_files(files, corpus_config());
    let report = engine::run(&ws, None, &Baseline::empty());
    let mut actual: Vec<Expectation> = report
        .findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.rule.to_string()))
        .collect();
    expected.sort();
    actual.sort();

    let missed: Vec<_> = expected
        .iter()
        .filter(|e| !remove_one(&mut actual.clone(), e))
        .collect();
    assert_eq!(
        actual, expected,
        "finding multiset != marker multiset\n  markers missed: {missed:?}\n  all findings: {:#?}",
        report.findings
    );
}

/// Multiset helper for the diagnostic message only.
fn remove_one(v: &mut Vec<Expectation>, e: &Expectation) -> bool {
    if let Some(i) = v.iter().position(|x| x == e) {
        v.remove(i);
        true
    } else {
        false
    }
}

#[test]
fn per_rule_filter_reproduces_the_marker_subset() {
    // `--rule graphview` over the corpus must fire exactly the graphview
    // markers — the filter must not leak other rules' findings.
    let (files, expected) = load_corpus();
    let ws = Workspace::from_files(files, corpus_config());
    let report = engine::run(&ws, Some("graphview"), &Baseline::empty());
    let mut want: Vec<Expectation> = expected
        .into_iter()
        .filter(|(_, _, r)| r == "graphview")
        .collect();
    let mut got: Vec<Expectation> = report
        .findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.rule.to_string()))
        .collect();
    want.sort();
    got.sort();
    assert_eq!(got, want);
    assert!(!got.is_empty(), "corpus lost its graphview cases");
}

#[test]
fn inventory_rule_strong_orderings_and_drift() {
    let src = "use swscc_sync::atomic::{AtomicU32, Ordering};\n\
               pub fn f(x: &AtomicU32) {\n    x.store(1, Ordering::SeqCst);\n}\n";
    let file = SourceFile::parse("crates/core/src/state.rs", src.to_string());

    // No documented block at all → one strong-ordering finding plus the
    // missing-block finding.
    let cfg = Config {
        design_inventory: None,
        ..Config::default()
    };
    let ws = Workspace::from_files(
        vec![SourceFile::parse(
            "crates/core/src/state.rs",
            src.to_string(),
        )],
        cfg,
    );
    let report = engine::run(&ws, Some("inventory"), &Baseline::empty());
    let msgs: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(report.findings.len(), 2, "{msgs:?}");
    assert!(
        msgs.iter().any(|m| m.contains("Ordering::SeqCst")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("no generated atomic-inventory block")),
        "{msgs:?}"
    );

    // An up-to-date block → only the strong-ordering violation remains.
    let cfg = Config {
        design_inventory: Some(
            "crates/core/src/state.rs: atomics=AtomicU32 orderings=SeqCst\n".to_string(),
        ),
        ..Config::default()
    };
    let ws = Workspace::from_files(
        vec![SourceFile::parse(
            "crates/core/src/state.rs",
            src.to_string(),
        )],
        cfg,
    );
    let report = engine::run(&ws, Some("inventory"), &Baseline::empty());
    assert_eq!(report.findings.len(), 1);
    assert!(report.findings[0].message.contains("Ordering::SeqCst"));

    // A drifted block → one "code has" and one "documents" finding on top.
    let cfg = Config {
        design_inventory: Some(
            "crates/core/src/gone.rs: atomics=AtomicBool orderings=Relaxed\n".to_string(),
        ),
        ..Config::default()
    };
    let ws = Workspace::from_files(vec![file], cfg);
    let report = engine::run(&ws, Some("inventory"), &Baseline::empty());
    let msgs: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(report.findings.len(), 3, "{msgs:?}");
    assert!(
        msgs.iter().any(|m| m.contains("but DESIGN.md §8 doesn't")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("no longer matches")),
        "{msgs:?}"
    );

    // Strong orderings are allowed in the work-queue file.
    let cfg = Config {
        design_inventory: Some(
            "crates/parallel/src/workqueue.rs: atomics=AtomicU32 orderings=SeqCst\n".to_string(),
        ),
        ..Config::default()
    };
    let ws = Workspace::from_files(
        vec![SourceFile::parse(
            "crates/parallel/src/workqueue.rs",
            src.to_string(),
        )],
        cfg,
    );
    let report = engine::run(&ws, Some("inventory"), &Baseline::empty());
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
}

#[test]
fn real_tree_is_clean_modulo_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    let ws = Workspace::load(&root, Config::default());
    assert!(
        ws.files.len() > 100,
        "workspace walk found {} files",
        ws.files.len()
    );
    let baseline = std::fs::read_to_string(root.join(swscc_lint::BASELINE_PATH))
        .map(|t| Baseline::parse(&t))
        .unwrap_or_else(|_| Baseline::empty());
    let report = engine::run(&ws, None, &baseline);
    assert!(
        report.findings.is_empty(),
        "the real tree must lint clean modulo the baseline:\n{:#?}",
        report.findings
    );
}
