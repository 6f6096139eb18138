//! Integration tests for the `swscc` command-line tool, driving the real
//! binary via `CARGO_BIN_EXE`.

use std::process::{Command, Output};

fn swscc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_swscc"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

#[test]
fn help_exits_zero() {
    let o = swscc(&["help"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("USAGE"));
}

#[test]
fn no_args_shows_help() {
    let o = swscc(&[]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let o = swscc(&["frobnicate"]);
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("unknown command"));
}

#[test]
fn scc_on_builtin_dataset() {
    let o = swscc(&[
        "scc",
        "dataset:baidu",
        "--scale",
        "0.02",
        "--algo",
        "method2",
    ]);
    assert!(
        o.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&o.stderr)
    );
    let out = stdout(&o);
    assert!(out.contains("components:"));
    assert!(out.contains("largest scc:"));
}

#[test]
fn scc_all_algorithms_agree_via_cli() {
    let mut counts = Vec::new();
    for algo in [
        "tarjan",
        "kosaraju",
        "pearce",
        "fwbw",
        "coloring",
        "baseline",
        "method1",
        "method2",
        "multistep",
    ] {
        let o = swscc(&["scc", "dataset:flickr", "--scale", "0.02", "--algo", algo]);
        assert!(o.status.success(), "{algo} failed");
        let out = stdout(&o);
        let line = out
            .lines()
            .find(|l| l.starts_with("components:"))
            .expect("components line");
        counts.push((algo, line.to_string()));
    }
    let first = counts[0].1.clone();
    for (algo, line) in &counts {
        assert_eq!(line, &first, "{algo} component count differs");
    }
}

#[test]
fn unknown_algorithm_fails_gracefully() {
    let o = swscc(&["scc", "dataset:baidu", "--algo", "magic"]);
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("unknown algorithm"));
}

#[test]
fn unknown_dataset_fails_gracefully() {
    let o = swscc(&["scc", "dataset:nope"]);
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("unknown dataset"));
}

#[test]
fn gen_stats_condense_pipeline() {
    let dir = std::env::temp_dir().join("swscc_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let graph_txt = dir.join("g.txt");
    let graph_bin = dir.join("g.bin");
    let dag = dir.join("dag.txt");

    // gen text + binary
    let o = swscc(&[
        "gen",
        "orkut",
        "--out",
        graph_txt.to_str().unwrap(),
        "--scale",
        "0.02",
    ]);
    assert!(o.status.success());
    let o = swscc(&[
        "gen",
        "orkut",
        "--out",
        graph_bin.to_str().unwrap(),
        "--scale",
        "0.02",
    ]);
    assert!(o.status.success());

    // stats on both formats agree on the edge count line
    let s_txt = stdout(&swscc(&["stats", graph_txt.to_str().unwrap()]));
    let s_bin = stdout(&swscc(&["stats", graph_bin.to_str().unwrap()]));
    let edges = |s: &str| {
        s.lines()
            .find(|l| l.starts_with("edges:"))
            .map(str::to_string)
            .expect("edges line")
    };
    assert_eq!(edges(&s_txt), edges(&s_bin));

    // condense produces a loadable DAG
    let o = swscc(&[
        "condense",
        graph_bin.to_str().unwrap(),
        "--out",
        dag.to_str().unwrap(),
    ]);
    assert!(o.status.success());
    let o = swscc(&["stats", dag.to_str().unwrap()]);
    assert!(o.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scc_histogram_flag() {
    let o = swscc(&["scc", "dataset:patents", "--scale", "0.02", "--histogram"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("scc-size histogram"));
    // a DAG: every SCC is size 1, so exactly one histogram bin
    assert!(stdout(&o).contains("size ≥ 1"));
}

#[test]
fn missing_file_fails() {
    let o = swscc(&["stats", "/nonexistent/graph.txt"]);
    assert!(!o.status.success());
}

#[test]
fn pipeline_flag_runs_with_breakdown() {
    let o = swscc(&[
        "scc",
        "dataset:baidu",
        "--scale",
        "0.02",
        "--pipeline",
        "trim,fwbw,trim2,wcc,tasks",
    ]);
    assert!(
        o.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&o.stderr)
    );
    let out = stdout(&o);
    assert!(out.contains("pipeline:    trim,fwbw,trim2,wcc,tasks"));
    assert!(out.contains("components:"));
    // per-phase Fig. 7/8-style breakdown: resolved counts, not just times
    assert!(out.contains("resolved"), "breakdown missing:\n{out}");
}

#[test]
fn pipeline_matches_algo_via_cli() {
    let components = |o: &Output| {
        stdout(o)
            .lines()
            .find(|l| l.starts_with("components:"))
            .expect("components line")
            .to_string()
    };
    let by_algo = swscc(&[
        "scc",
        "dataset:flickr",
        "--scale",
        "0.02",
        "--algo",
        "method2",
    ]);
    let by_pipeline = swscc(&[
        "scc",
        "dataset:flickr",
        "--scale",
        "0.02",
        "--pipeline",
        "trim,fwbw,trim,trim2,trim,wcc,tasks",
    ]);
    assert!(by_algo.status.success() && by_pipeline.status.success());
    assert_eq!(components(&by_algo), components(&by_pipeline));
}

#[test]
fn compressed_fwbw_agrees_with_tarjan_via_cli() {
    let summary = |algo: &str, compressed: bool| {
        let mut args = vec!["scc", "dataset:flickr", "--scale", "0.02", "--algo", algo];
        if compressed {
            args.push("--compressed");
        }
        let o = swscc(&args);
        assert!(
            o.status.success(),
            "{algo} (compressed: {compressed}) failed: {}",
            String::from_utf8_lossy(&o.stderr)
        );
        stdout(&o)
            .lines()
            .filter(|l| {
                l.starts_with("components:")
                    || l.starts_with("largest scc:")
                    || l.starts_with("trivial:")
            })
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    let want = summary("tarjan", false);
    assert_eq!(want.len(), 3, "summary lines missing: {want:?}");
    assert_eq!(summary("fwbw", true), want);
}

#[test]
fn default_and_top_down_bfs_agree_with_tarjan_via_cli() {
    let summary = |args: &[&str]| {
        let mut all = vec!["scc", "dataset:livej", "--scale", "0.05", "--threads", "2"];
        all.extend_from_slice(args);
        let o = swscc(&all);
        assert!(
            o.status.success(),
            "{args:?} failed: {}",
            String::from_utf8_lossy(&o.stderr)
        );
        stdout(&o)
            .lines()
            .filter(|l| {
                l.starts_with("components:")
                    || l.starts_with("largest scc:")
                    || l.starts_with("trivial:")
            })
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    let want = summary(&["--algo", "tarjan"]);
    assert_eq!(want.len(), 3, "summary lines missing: {want:?}");
    for algo in ["method2", "fwbw"] {
        assert_eq!(summary(&["--algo", algo]), want, "{algo}, default BFS");
        assert_eq!(
            summary(&["--algo", algo, "--top-down"]),
            want,
            "{algo}, --top-down"
        );
    }
    let help = stdout(&swscc(&["help"]));
    assert!(help.contains("--top-down"), "usage names the switch");
    assert!(!help.contains("--dobfs"), "the old switch is gone");
}

#[test]
fn compressed_oracle_exits_config_code() {
    // The sequential oracles index raw CSR slices: no compressed form.
    let o = swscc(&["scc", "dataset:baidu", "--compressed", "--algo", "tarjan"]);
    assert_eq!(o.status.code(), Some(2));
    let err = String::from_utf8_lossy(&o.stderr).into_owned();
    assert!(err.contains("--compressed"), "stderr: {err}");
}

#[test]
fn invalid_pipeline_exits_config_code() {
    // 'wcc' is not a terminal stage: composition is rejected up front.
    let o = swscc(&["scc", "dataset:baidu", "--pipeline", "trim,wcc"]);
    assert_eq!(o.status.code(), Some(2));
    let err = String::from_utf8_lossy(&o.stderr).into_owned();
    assert!(err.contains("invalid --pipeline"), "stderr: {err}");

    // unknown stage name
    let o = swscc(&[
        "scc",
        "dataset:baidu",
        "--pipeline",
        "trim,frobnicate,tasks",
    ]);
    assert_eq!(o.status.code(), Some(2));

    // empty spec
    let o = swscc(&["scc", "dataset:baidu", "--pipeline", ","]);
    assert_eq!(o.status.code(), Some(2));
}

#[test]
fn pipeline_and_algo_flags_conflict() {
    let o = swscc(&[
        "scc",
        "dataset:baidu",
        "--algo",
        "method2",
        "--pipeline",
        "trim,tasks",
    ]);
    assert_eq!(o.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&o.stderr).contains("mutually exclusive"));
}
