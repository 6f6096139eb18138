//! The rule engine: workspace loading, rule dispatch, and the finding
//! model.

use std::path::{Path, PathBuf};

use crate::rules;
use crate::source::SourceFile;

/// One diagnostic: a rule firing at a file:line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (stable identifier; `xtask lint --rule <name>`).
    pub rule: &'static str,
    /// Workspace-relative `/`-separated path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    pub message: String,
}

/// Engine configuration: the path policy knobs every rule consults.
/// Defaults encode the real workspace; the fixture self-tests override
/// them to point at fixture files.
#[derive(Clone, Debug)]
pub struct Config {
    /// Path prefixes exempt from the facade rule (the facade itself and
    /// the compat shims that *implement* std-level plumbing).
    pub facade_exempt: Vec<String>,
    /// Files whose non-test code is the neighbor-decode hot path.
    pub decode_hot_files: Vec<String>,
    /// Path prefix under which raw adjacency access is the backend's own
    /// business (rule `graphview` fires outside it).
    pub graph_crate: String,
    /// Path prefixes outside the atomic-inventory scope (infrastructure
    /// that implements or tests the primitives rather than using them in
    /// algorithm protocols).
    pub inventory_exempt: Vec<String>,
    /// Path prefixes exempt from the safety-tag obligation (compat shims
    /// and this linter; test code is exempt by classification).
    pub safety_tag_exempt: Vec<String>,
    /// Path prefixes holding the serve layer (rule `socket-timeout`:
    /// raw socket writes there need a write timeout in scope).
    pub serve_paths: Vec<String>,
    /// Path prefixes that consume the `DeltaGraph` overlay (rule
    /// `delta-overlay`: reading beneath the overlay there needs a
    /// `// delta:` justification).
    pub delta_paths: Vec<String>,
    /// The DESIGN.md §8 generated-inventory text, if DESIGN.md exists.
    pub design_inventory: Option<String>,
}

impl Default for Config {
    fn default() -> Config {
        let compat_infra = |v: &mut Vec<String>| {
            for p in [
                "crates/compat/parking_lot/",
                "crates/compat/proptest/",
                "crates/compat/criterion/",
                "crates/compat/rand/",
            ] {
                v.push(p.to_string());
            }
        };
        let mut facade_exempt = vec!["crates/sync/".to_string(), "crates/lint/".to_string()];
        compat_infra(&mut facade_exempt);
        let inventory_exempt = vec![
            "crates/sync/".to_string(),
            "crates/lint/".to_string(),
            "crates/xtask/".to_string(),
            "crates/compat/".to_string(),
        ];
        let safety_tag_exempt = vec!["crates/lint/".to_string(), "crates/compat/".to_string()];
        Config {
            facade_exempt,
            decode_hot_files: vec!["crates/graph/src/compressed.rs".to_string()],
            graph_crate: "crates/graph/".to_string(),
            inventory_exempt,
            safety_tag_exempt,
            serve_paths: vec!["crates/serve/".to_string(), "src/bin/".to_string()],
            delta_paths: vec![
                "crates/core/src/incremental".to_string(),
                "crates/serve/src/".to_string(),
            ],
            design_inventory: None,
        }
    }
}

impl Config {
    pub fn is_facade_exempt(&self, rel: &str) -> bool {
        self.facade_exempt.iter().any(|p| rel.starts_with(p))
    }
    pub fn is_decode_hot(&self, rel: &str) -> bool {
        self.decode_hot_files.iter().any(|p| p == rel)
    }
    pub fn is_inventory_exempt(&self, rel: &str) -> bool {
        self.inventory_exempt.iter().any(|p| rel.starts_with(p))
    }
    pub fn is_safety_tag_exempt(&self, rel: &str) -> bool {
        self.safety_tag_exempt.iter().any(|p| rel.starts_with(p))
    }
    pub fn is_serve_path(&self, rel: &str) -> bool {
        self.serve_paths.iter().any(|p| rel.starts_with(p))
    }
    pub fn is_delta_path(&self, rel: &str) -> bool {
        self.delta_paths.iter().any(|p| rel.starts_with(p))
    }
}

/// The loaded workspace: every lexed `.rs` file plus the config.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    pub config: Config,
}

impl Workspace {
    /// Walks `root` for `.rs` files (skipping `target`, dot-dirs,
    /// `crates/lint/fixtures` — the known-bad corpus must not flag the
    /// tree that carries it — and every subdirectory whose `Cargo.toml`
    /// declares its own `[workspace]`: such a package is outside this
    /// workspace, so neither clippy nor the model lane builds it), lexes
    /// each, and loads the DESIGN.md inventory block if present.
    pub fn load(root: &Path, mut config: Config) -> Workspace {
        let mut paths = Vec::new();
        collect_rs_files(root, root, &mut paths);
        paths.sort();
        let files = paths
            .into_iter()
            .filter_map(|(abs, rel)| {
                std::fs::read_to_string(&abs)
                    .ok()
                    .map(|text| SourceFile::parse(&rel, text))
            })
            .collect();
        if config.design_inventory.is_none() {
            if let Ok(design) = std::fs::read_to_string(root.join("DESIGN.md")) {
                config.design_inventory = crate::rules::inventory::extract_design_block(&design);
            }
        }
        Workspace { files, config }
    }

    /// Builds a workspace from in-memory files (fixture harness entry).
    pub fn from_files(files: Vec<SourceFile>, config: Config) -> Workspace {
        Workspace { files, config }
    }
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<(PathBuf, String)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            let rel = rel_str(root, &path);
            if rel == "crates/lint/fixtures" || is_separate_workspace(&path) {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            out.push((path.clone(), rel_str(root, &path)));
        }
    }
}

fn is_separate_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|manifest| manifest.lines().any(|l| l.trim() == "[workspace]"))
}

fn rel_str(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// A static-analysis rule. Per-file rules implement [`Rule::check_file`];
/// cross-file rules (the atomic inventory, safety-tag cross-referencing)
/// implement [`Rule::check_workspace`]. Either may push findings.
pub trait Rule {
    /// Stable name (CLI `--rule`, JSON output).
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules` and the docs.
    fn description(&self) -> &'static str;
    fn check_file(&self, _file: &SourceFile, _ws: &Workspace, _out: &mut Vec<Finding>) {}
    fn check_workspace(&self, _ws: &Workspace, _out: &mut Vec<Finding>) {}
}

/// The full rule catalog, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(rules::facade::Facade),
        Box::new(rules::relaxed::Relaxed),
        Box::new(rules::unsafe_rule::UnsafeJustified),
        Box::new(rules::recovery::Recovery),
        Box::new(rules::decode::DecodeAlloc),
        Box::new(rules::inventory::AtomicInventory),
        Box::new(rules::safety_tag::SafetyTag),
        Box::new(rules::graphview::GraphViewDiscipline),
        Box::new(rules::delta::DeltaOverlay),
        Box::new(rules::socket_timeout::SocketTimeout),
    ]
}

/// Outcome of one engine run.
pub struct Report {
    /// Every finding, sorted by file, line and rule.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Runs `rules` (all, or the named subset) over `ws`.
pub fn run(ws: &Workspace, rule_filter: Option<&str>) -> Report {
    let rules = all_rules();
    let mut findings = Vec::new();
    for rule in &rules {
        if let Some(name) = rule_filter {
            if rule.name() != name {
                continue;
            }
        }
        for file in &ws.files {
            rule.check_file(file, ws, &mut findings);
        }
        rule.check_workspace(ws, &mut findings);
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Report {
        findings,
        files_scanned: ws.files.len(),
    }
}
