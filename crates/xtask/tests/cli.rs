//! End-to-end tests for the `xtask lint` CLI: the exit-code contract
//! (0 clean, 1 findings, 2 usage), the JSON reporter, and the `--rule`
//! filter. These run the real binary over the real workspace, so they
//! double as the "tree lints clean" gate.

use std::process::{Command, Output};

fn xtask(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .output()
        .expect("spawn xtask")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

#[test]
fn lint_runs_clean_on_the_workspace() {
    let out = xtask(&["lint"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        code(&out),
        0,
        "lint found problems:\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("lint: OK"), "{stdout}");
}

#[test]
fn json_output_is_well_formed() {
    let out = xtask(&["lint", "--json"]);
    assert_eq!(code(&out), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Keep the parser honest without a JSON dependency: the reporter
    // emits exactly these top-level keys on one object.
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(stdout.trim_end().ends_with('}'), "{stdout}");
    for key in ["\"files_scanned\"", "\"findings\""] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
}

#[test]
fn rule_filter_accepts_every_cataloged_rule() {
    let list = xtask(&["lint", "--list-rules"]);
    assert_eq!(code(&list), 0);
    let names: Vec<String> = String::from_utf8_lossy(&list.stdout)
        .lines()
        .filter_map(|l| l.split_whitespace().next().map(str::to_string))
        .collect();
    assert!(names.len() >= 10, "rule catalog shrank: {names:?}");
    for name in &names {
        let out = xtask(&["lint", "--rule", name]);
        assert_eq!(
            code(&out),
            0,
            "--rule {name} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn unknown_rule_is_a_usage_error() {
    let out = xtask(&["lint", "--rule", "no-such-rule"]);
    assert_eq!(code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown rule"));
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = xtask(&["lint", "--frobnicate"]);
    assert_eq!(code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown lint flag"));
}

#[test]
fn unknown_subcommand_is_a_usage_error() {
    let out = xtask(&["deploy"]);
    assert_eq!(code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown xtask subcommand"));
}

#[test]
fn missing_rule_argument_is_a_usage_error() {
    let out = xtask(&["lint", "--rule"]);
    assert_eq!(code(&out), 2);
}
