//! The integration check: the real workspace must be lint-clean, every
//! hot-registry entry must resolve, and all 19 equations must be cited.
//! If a refactor renames a registered item or introduces a violation,
//! this test fails with the full report.

use mms_lint::rules::DETERMINISTIC_CRATES;
use mms_lint::{check_workspace, find_root, RuleSet};
use std::path::Path;

fn root() -> std::path::PathBuf {
    find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("the linter crate lives inside the workspace")
}

#[test]
fn real_workspace_is_clean() {
    let report = check_workspace(&root(), &RuleSet::all()).expect("workspace scan succeeds");
    assert!(
        report.ok(),
        "the workspace has lint findings:\n{}",
        report.render_text(true)
    );
    assert!(
        report.files_checked > 100,
        "only {} files scanned — walk roots look wrong",
        report.files_checked
    );
}

#[test]
fn every_equation_is_cited_in_its_registered_file() {
    let report = check_workspace(&root(), &RuleSet::all()).expect("workspace scan succeeds");
    assert_eq!(report.coverage.len(), 19, "one coverage row per equation");
    assert_eq!(
        report.cited(),
        19,
        "uncited equations:\n{}",
        report.render_text(true)
    );
}

#[test]
fn single_rule_runs_see_the_same_clean_tree() {
    for rule in [
        "determinism",
        "hot-path-alloc",
        "unsafe-pragma",
        "panic-policy",
    ] {
        let set = RuleSet::only(&[rule.to_string()]).expect("known rule name");
        let report = check_workspace(&root(), &set).expect("workspace scan succeeds");
        assert!(
            report.ok(),
            "rule {rule} found violations:\n{}",
            report.render_text(false)
        );
    }
}

/// The stream table put the schedulers' per-stream bookkeeping behind
/// one type. The hot-path walk must keep reaching it — and every
/// scheduler's planner, its counted path, and the Non-clustered
/// scheduler's cycle calendar and transition marks — from both
/// per-cycle roots, or the zero-allocation guarantee silently stops
/// covering the code that matters most.
#[test]
fn hot_roots_reach_every_planner_and_the_stream_table() {
    use mms_lint::graph::{resolve_spec, CallGraph};
    let ws = mms_lint::load_workspace(&root()).expect("workspace scan succeeds");
    let g = CallGraph::build(&ws);
    let planners = [
        "NonClusteredScheduler::plan_cycle_into",
        "GroupedScheduler::plan_cycle_into",
        // The whole-group planner's degraded half: the shift cascade.
        "GroupedScheduler::read_parity_on_demand",
    ]
    .map(String::from);
    let table = [
        "begin_cycle",
        "slot",
        "slot_mut",
        "alloc",
        "free",
        "retire",
        "compact",
        "find",
        "find_from",
        "admit",
        "release",
    ]
    .map(|name| format!("StreamTable::{name}"));
    // What a degraded Non-clustered cycle schedules ahead and takes back,
    // and the marks each stream carries: per cycle, so `hot-path-alloc`
    // must police them.
    let calendar = [
        "Calendar::at",
        "Calendar::lose",
        "Calendar::read_at",
        "Calendar::free_at",
        "Calendar::server_free_at",
        "Calendar::cancel_free",
        "Calendar::take",
        "Calendar::recycle",
        "NcState::mark",
        "NcState::take",
    ]
    .map(String::from);
    // A counted cycle: the split of the stream table, the steady
    // streams' charge and release, and the per-stream steps both kinds
    // of plan share. Which kind a cycle gets is decided at run time, so
    // both roots reach the counted path.
    let counted = [
        "StreamTable::tally",
        "StreamTable::charge_steady",
        "StreamTable::release_steady",
        "ClassTable::state_reads",
        "GroupedScheduler::read_group",
        "GroupedScheduler::deliver_chunk",
        "NonClusteredScheduler::read_block",
        "NonClusteredScheduler::deliver_block",
    ]
    .map(String::from);
    // The event horizon belongs to the session loop; the fleet steps
    // its nodes cycle by cycle.
    let horizon = [
        "StreamTable::fast_forward",
        "StreamTable::stable_window",
        "ClassTable::state_cycle",
    ]
    .map(String::from);
    for root_spec in ["Simulator::run_sessions", "Fleet::step"] {
        let roots = resolve_spec(&ws, root_spec);
        assert!(!roots.is_empty(), "{root_spec} not found");
        let pred = g.reach(&roots[..1], &|_| false);
        let horizon = horizon.iter().filter(|_| root_spec != "Fleet::step");
        for spec in planners
            .iter()
            .chain(&table)
            .chain(&calendar)
            .chain(&counted)
            .chain(horizon)
        {
            let targets = resolve_spec(&ws, spec);
            assert!(
                targets
                    .iter()
                    .any(|&t| !ws.fns[t].is_test && pred[t].is_some()),
                "{root_spec} no longer reaches {spec}"
            );
        }
    }
}

/// `DETERMINISTIC_CRATES` names crate directories, and lists every
/// library crate but `bench` (it measures wall time on purpose) and
/// `lint` (it never runs inside a simulation): a deleted crate leaves no
/// stale entry, and a new one cannot escape the `determinism` rule.
#[test]
fn the_deterministic_crates_are_every_library_crate_but_bench_and_lint() {
    let crates = root().join("crates");
    let mut libraries: Vec<String> = std::fs::read_dir(&crates)
        .expect("crates/ is readable")
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|dir| dir.join("src/lib.rs").is_file())
        .map(|dir| {
            dir.file_name()
                .expect("a crate directory")
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name != "bench" && name != "lint")
        .collect();
    libraries.sort();
    let mut listed = DETERMINISTIC_CRATES.to_vec();
    listed.sort_unstable();
    assert_eq!(
        listed, libraries,
        "DETERMINISTIC_CRATES vs crates/*/src/lib.rs"
    );
}
