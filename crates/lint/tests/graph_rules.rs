//! Interprocedural-rule fixtures: each test materializes a mini
//! multi-crate workspace under the target tmpdir from the corpus in
//! `fixtures/graph/` and drives the real CLI binary against it, so the
//! whole pipeline (walk → symbol table → call graph → taint → report)
//! is exercised end to end.
//!
//! The fixtures place hot roots at the registry's real paths
//! (`Simulator::run_sessions` in `crates/sim/src/simulator.rs`) so
//! `resolve_roots` finds them without a test-only registry.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_mms-lint");

/// Build a throwaway workspace with the given `(relative path, source)`
/// files, isolated per test name. Crate manifests are omitted on
/// purpose: the dependency filter is permissive without them, which is
/// exactly the conservative behavior the fixtures rely on.
fn graph_workspace(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    // Re-runs must not see stale files from a previous corpus shape.
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).expect("tmpdir is writable");
    fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("tmpdir is writable");
    for (rel, src) in files {
        let p = root.join(rel);
        fs::create_dir_all(p.parent().expect("fixture paths have parents"))
            .expect("tmpdir is writable");
        fs::write(p, src).expect("tmpdir is writable");
    }
    root
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("mms-lint binary runs")
}

fn check(root: &Path, rule: &str) -> (i32, String) {
    let out = run(&[
        "check",
        "--rule",
        rule,
        "--root",
        root.to_str().expect("utf-8 tmpdir"),
    ]);
    let code = out.status.code().expect("mms-lint exits normally");
    (code, String::from_utf8(out.stdout).expect("utf-8 report"))
}

#[test]
fn cross_crate_chain_is_flagged_with_the_full_path() {
    let root = graph_workspace(
        "graph-cross-crate",
        &[
            (
                "crates/sim/src/simulator.rs",
                include_str!("fixtures/graph/cross_crate_root.rs"),
            ),
            (
                "crates/layout/src/catalog.rs",
                include_str!("fixtures/graph/cross_crate_helper.rs"),
            ),
        ],
    );
    let (code, stdout) = check(&root, "transitive-alloc");
    assert_eq!(code, 1, "cross-crate alloc must fail:\n{stdout}");
    assert!(
        stdout.contains("`Vec::new` in `lookup_blocks`"),
        "helper's alloc flagged in:\n{stdout}"
    );
    assert!(
        stdout.contains("Simulator::run_sessions"),
        "chain names the root in:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/layout/src/catalog.rs"),
        "chain crosses crates in:\n{stdout}"
    );
}

#[test]
fn trait_object_dispatch_over_approximates_to_all_implementors() {
    let root = graph_workspace(
        "graph-trait-dispatch",
        &[(
            "crates/sim/src/simulator.rs",
            include_str!("fixtures/graph/trait_dispatch.rs"),
        )],
    );
    let (code, stdout) = check(&root, "transitive-alloc");
    assert_eq!(code, 1, "dyn dispatch must reach the impl:\n{stdout}");
    // The receiver is `Box<dyn Planner>`: the analyzer cannot know the
    // concrete type, so every implementor is a candidate and the
    // allocating one is flagged…
    assert!(
        stdout.contains("AllocPlanner::plan"),
        "allocating implementor flagged in:\n{stdout}"
    );
    // …while the clean implementor contributes no finding.
    assert!(
        !stdout.contains("CleanPlanner"),
        "clean implementor not flagged in:\n{stdout}"
    );
}

#[test]
fn closure_alloc_is_attributed_to_the_enclosing_fn() {
    let root = graph_workspace(
        "graph-closure",
        &[(
            "crates/sim/src/simulator.rs",
            include_str!("fixtures/graph/closure_hot.rs"),
        )],
    );
    let (code, stdout) = check(&root, "transitive-alloc");
    assert_eq!(code, 1, "closure alloc must fail:\n{stdout}");
    // The `Vec::new` sits inside a closure literal, but the fact (and
    // the chain) land on the enclosing `drain`.
    assert!(
        stdout.contains("`Vec::new` in `drain`"),
        "closure attributed to enclosing fn in:\n{stdout}"
    );
    assert!(
        stdout.contains("Simulator::run_sessions"),
        "chain reaches the root in:\n{stdout}"
    );
}

#[test]
fn laundered_nondeterminism_is_caught_at_the_frontier() {
    let root = graph_workspace(
        "graph-launder",
        &[
            (
                "crates/sim/src/clock.rs",
                include_str!("fixtures/graph/launder_det.rs"),
            ),
            (
                "crates/bench/src/util.rs",
                include_str!("fixtures/graph/launder_helper.rs"),
            ),
        ],
    );
    let (code, stdout) = check(&root, "determinism-taint");
    assert_eq!(code, 1, "laundering must fail:\n{stdout}");
    // The per-file `determinism` rule cannot see this: `Instant` only
    // appears in mms-bench, where wall time is legal. The taint rule
    // flags the frame where the deterministic crate calls out.
    assert!(
        stdout.contains("crates/sim/src/clock.rs"),
        "finding lands on the deterministic frontier in:\n{stdout}"
    );
    assert!(
        stdout.contains("helper_now") && stdout.contains("Instant"),
        "chain names the laundering helper and the source in:\n{stdout}"
    );
}

#[test]
fn baseline_suppresses_old_findings_and_fails_only_new_ones() {
    let files_v1 = [(
        "crates/sim/src/simulator.rs",
        include_str!("fixtures/graph/baseline_v1.rs"),
    )];
    let root = graph_workspace("graph-baseline", &files_v1);
    let base = root.join("lint-baseline.txt");
    let base_str = base.to_str().expect("utf-8 tmpdir");
    let root_str = root.to_str().expect("utf-8 tmpdir");

    // Record the pre-existing finding.
    let out = run(&[
        "check",
        "--rule",
        "transitive-alloc",
        "--root",
        root_str,
        "--write-baseline",
        base_str,
    ]);
    assert_eq!(out.status.code(), Some(0), "--write-baseline exits 0");

    // Unchanged tree + baseline: clean.
    let out = run(&[
        "check",
        "--rule",
        "transitive-alloc",
        "--root",
        root_str,
        "--baseline",
        base_str,
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    assert_eq!(
        out.status.code(),
        Some(0),
        "baselined finding is suppressed:\n{stdout}"
    );
    assert!(
        stdout.contains("baseline suppressed 1 of 1 finding(s)"),
        "suppression count in:\n{stdout}"
    );

    // Introduce a second allocating helper: only it fails the run.
    fs::write(
        root.join("crates/sim/src/simulator.rs"),
        include_str!("fixtures/graph/baseline_v2.rs"),
    )
    .expect("tmpdir is writable");
    let out = run(&[
        "check",
        "--rule",
        "transitive-alloc",
        "--root",
        root_str,
        "--baseline",
        base_str,
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    assert_eq!(out.status.code(), Some(1), "new finding fails:\n{stdout}");
    assert!(
        stdout.contains("new_helper"),
        "new finding reported in:\n{stdout}"
    );
    assert!(
        !stdout.contains("old_helper`"),
        "old finding stays suppressed in:\n{stdout}"
    );
}

#[test]
fn unused_graph_allow_is_itself_a_finding() {
    // The allow names a graph rule but nothing it could suppress is on
    // that line, so hygiene (which runs after the graph phase) flags it.
    let root = graph_workspace(
        "graph-unused-allow",
        &[(
            "crates/sim/src/simulator.rs",
            "pub struct Simulator;\nimpl Simulator {\n    pub fn run_sessions(&mut self) -> usize {\n        // lint:allow(transitive-alloc): nothing here allocates\n        7\n    }\n}\n",
        )],
    );
    let (code, stdout) = check(&root, "transitive-alloc");
    assert_eq!(code, 1, "stale allow must fail:\n{stdout}");
    assert!(
        stdout.contains("unused `lint:allow(transitive-alloc)`"),
        "hygiene finding in:\n{stdout}"
    );
}

/// The findings of a report, one `file:line: [rule] message` per line.
fn findings(stdout: &str) -> Vec<&str> {
    stdout.lines().filter(|l| l.contains(": [")).collect()
}

#[test]
fn dead_pub_flags_only_the_fn_nothing_names() {
    // Callers in a `#[cfg(test)]` fn, a `tests/` file, a `benchmark/src`
    // file, a `macro_rules!` body and a path used as a value each keep
    // their fn alive; so do a trait impl and a reasoned allow.
    let root = graph_workspace(
        "graph-dead-pub",
        &[
            (
                "crates/media/src/lib.rs",
                include_str!("fixtures/dead/lib.rs"),
            ),
            (
                "crates/media/tests/it.rs",
                include_str!("fixtures/dead/it.rs"),
            ),
            (
                "benchmark/src/main.rs",
                include_str!("fixtures/dead/bench.rs"),
            ),
        ],
    );
    let (code, stdout) = check(&root, "dead-pub");
    assert_eq!(code, 1, "the dead fn must fail:\n{stdout}");
    let found = findings(&stdout);
    assert_eq!(found.len(), 1, "{stdout}");
    assert!(
        found[0].starts_with("crates/media/src/lib.rs:7: [dead-pub] `pub fn never_named`"),
        "{stdout}"
    );
}

#[test]
fn an_allow_on_a_live_fn_is_itself_a_finding() {
    let root = graph_workspace(
        "graph-dead-pub-allow",
        &[(
            "crates/media/src/lib.rs",
            include_str!("fixtures/dead/stale_allow.rs"),
        )],
    );
    let (code, stdout) = check(&root, "dead-pub");
    assert_eq!(code, 1, "stale allow must fail:\n{stdout}");
    let found = findings(&stdout);
    assert_eq!(found.len(), 1, "{stdout}");
    assert!(
        found[0].contains("[lint-allow] unused `lint:allow(dead-pub)`"),
        "{stdout}"
    );
}
