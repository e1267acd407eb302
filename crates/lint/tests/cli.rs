//! End-to-end CLI tests: exit codes, finding output, and JSON shape,
//! driven against throwaway mini-workspaces under the target tmpdir.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_mms-lint");

/// Build a one-crate workspace whose `crates/core/src/lib.rs` has the
/// given content, isolated per test under CARGO_TARGET_TMPDIR.
fn mini_workspace(name: &str, lib_rs: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let src = root.join("crates/core/src");
    fs::create_dir_all(&src).expect("tmpdir is writable");
    fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("tmpdir is writable");
    fs::write(src.join("lib.rs"), lib_rs).expect("tmpdir is writable");
    root
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("mms-lint binary runs")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("mms-lint exits normally")
}

#[test]
fn check_reports_findings_with_file_and_line_and_exits_1() {
    let root = mini_workspace(
        "lint-cli-bad",
        "use std::collections::HashMap;\npub fn f() -> HashMap<u32, u32> {\n    HashMap::new()\n}\n",
    );
    let out = run(&[
        "check",
        "--rule",
        "unsafe-pragma",
        "--rule",
        "determinism",
        "--root",
        root.to_str().expect("utf-8 tmpdir"),
    ]);
    assert_eq!(exit_code(&out), 1);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    assert!(
        stdout.contains("crates/core/src/lib.rs:1: [unsafe-pragma]"),
        "missing pragma finding in:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/core/src/lib.rs:1: [determinism]"),
        "missing determinism finding in:\n{stdout}"
    );
}

#[test]
fn check_on_a_clean_mini_workspace_exits_0() {
    let root = mini_workspace(
        "lint-cli-clean",
        "#![forbid(unsafe_code)]\npub fn f() -> u32 {\n    7\n}\n",
    );
    let out = run(&[
        "check",
        "--rule",
        "unsafe-pragma",
        "--rule",
        "determinism",
        "--rule",
        "panic-policy",
        "--root",
        root.to_str().expect("utf-8 tmpdir"),
    ]);
    let code = exit_code(&out);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    assert_eq!(code, 0, "clean tree reported findings:\n{stdout}");
    assert!(
        stdout.contains("1 file(s) checked, 0 finding(s)"),
        "summary in:\n{stdout}"
    );
}

#[test]
fn json_output_carries_findings_and_ok_flag() {
    let root = mini_workspace(
        "lint-cli-json",
        "pub fn f(v: &[u32]) -> u32 {\n    *v.first().unwrap()\n}\n",
    );
    let out = run(&[
        "check",
        "--rule",
        "panic-policy",
        "--json",
        "--root",
        root.to_str().expect("utf-8 tmpdir"),
    ]);
    assert_eq!(exit_code(&out), 1);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 json");
    assert!(stdout.trim_start().starts_with('{'));
    assert!(
        stdout.contains("\"rule\": \"panic-policy\""),
        "finding in:\n{stdout}"
    );
    assert!(stdout.contains("\"line\": 2"), "line in:\n{stdout}");
    assert!(stdout.contains("\"ok\": false"), "ok flag in:\n{stdout}");
}

#[test]
fn check_on_the_real_workspace_exits_0() {
    let root = mms_lint::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("the linter crate lives inside the workspace");
    let out = run(&[
        "check",
        "--root",
        root.to_str().expect("utf-8 workspace root"),
    ]);
    let code = exit_code(&out);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    assert_eq!(code, 0, "the real tree must be clean:\n{stdout}");
    assert!(
        stdout.contains("paper-refs coverage: 19/19 equations cited"),
        "coverage summary in:\n{stdout}"
    );
}

#[test]
fn rules_subcommand_lists_all_six() {
    let out = run(&["rules"]);
    assert_eq!(exit_code(&out), 0);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 list");
    let listed: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        listed,
        vec![
            "determinism",
            "hot-path-alloc",
            "unsafe-pragma",
            "panic-policy",
            "paper-refs",
            "dead-pub"
        ]
    );
}

#[test]
fn usage_errors_exit_2() {
    assert_eq!(exit_code(&run(&["check", "--rule", "no-such-rule"])), 2);
    // The retired graph-rule names are not aliases of the rules that
    // absorbed them, and a suppression file is no option.
    assert_eq!(exit_code(&run(&["check", "--rule", "transitive-alloc"])), 2);
    assert_eq!(
        exit_code(&run(&["check", "--baseline", "lint-baseline.txt"])),
        2
    );
    assert_eq!(exit_code(&run(&["check", "--bogus-flag"])), 2);
    assert_eq!(exit_code(&run(&["frobnicate"])), 2);
    assert_eq!(exit_code(&run(&[])), 2);
}
