//! Fixture corpus: every rule must fire on its known-bad fixture at the
//! expected lines and stay silent on the known-good one. Fixtures live
//! under `tests/fixtures/`, which the workspace walk excludes, so they
//! can be as bad as the rules require. Each is linted as a one-file
//! workspace, by the same pipeline as the real tree.

use mms_lint::report::Finding;
use mms_lint::{lint_source, RuleSet};

/// Lint `src` at `path` under every rule but `dead-pub`: nothing in a
/// one-file workspace calls its `pub fn`s, so each would be dead.
fn check(path: &str, src: &str) -> Vec<Finding> {
    let names: Vec<String> = mms_lint::rules::RULE_NAMES
        .iter()
        .filter(|&&r| r != "dead-pub")
        .map(|r| r.to_string())
        .collect();
    lint_source(path, src, &RuleSet::only(&names).expect("known rules"))
}

/// (rule, line) pairs of every finding, in report order.
fn keys(findings: &[Finding]) -> Vec<(&str, u32)> {
    findings.iter().map(|f| (f.rule.as_str(), f.line)).collect()
}

#[test]
fn determinism_flags_every_banned_ident_outside_tests() {
    let out = check(
        "crates/sim/src/bad.rs",
        include_str!("fixtures/determinism_bad.rs"),
    );
    // Line 4 names both `HashMap` and `Instant`; the `HashSet` in
    // `mod tests` is exempt.
    assert_eq!(
        keys(&out),
        vec![
            ("determinism", 1),
            ("determinism", 2),
            ("determinism", 4),
            ("determinism", 4),
            ("determinism", 5),
        ]
    );
}

#[test]
fn determinism_accepts_ordered_collections() {
    let out = check(
        "crates/sim/src/good.rs",
        include_str!("fixtures/determinism_good.rs"),
    );
    assert!(out.is_empty(), "clean fixture produced {out:?}");
}

#[test]
fn determinism_scopes_to_deterministic_library_code() {
    let src = "use std::time::Instant;\n";
    // mms-bench measures wall time on purpose.
    assert!(check("crates/bench/src/timing.rs", src).is_empty());
    // Binaries and test targets are outside the rule's scope.
    assert!(check("crates/sim/src/bin/tool.rs", src).is_empty());
    assert!(check("crates/sim/tests/clock.rs", src).is_empty());
    // The same text inside a deterministic crate's library is a finding.
    assert_eq!(
        keys(&check("crates/sim/src/clock.rs", src)),
        vec![("determinism", 1)]
    );
}

#[test]
fn hot_path_alloc_flags_every_forbidden_constructor() {
    // `Simulator::run_sessions` matches its registry entry: were it
    // missing, a `not found` finding would open the list at line 1.
    let out = check(
        "crates/sim/src/simulator.rs",
        include_str!("fixtures/hot_alloc_bad.rs"),
    );
    assert_eq!(
        keys(&out),
        vec![
            ("hot-path-alloc", 5),
            ("hot-path-alloc", 7),
            ("hot-path-alloc", 8),
            ("hot-path-alloc", 9),
            ("hot-path-alloc", 10),
            ("hot-path-alloc", 11),
        ]
    );
}

#[test]
fn hot_path_alloc_ignores_unregistered_functions() {
    // `Other::step` and the free `helper` allocate, but only
    // `Simulator::run_sessions` is registered for this file, and it
    // calls neither.
    let out = check(
        "crates/sim/src/simulator.rs",
        include_str!("fixtures/hot_alloc_good.rs"),
    );
    assert!(out.is_empty(), "clean fixture produced {out:?}");
}

#[test]
fn hot_path_alloc_matches_on_the_full_registry_path() {
    // Same content, different crate: the registry entry is keyed on
    // `crates/sim/src/simulator.rs`, so nothing matches or fires.
    let out = check(
        "crates/other/src/simulator.rs",
        include_str!("fixtures/hot_alloc_bad.rs"),
    );
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn panic_policy_flags_placeholder_messages_and_bare_unwraps() {
    let out = check(
        "crates/core/src/panics.rs",
        include_str!("fixtures/panic_bad.rs"),
    );
    // 2: `.unwrap()`; 6: short `.expect`; 11: short `panic!`;
    // 17: non-literal `.expect(msg)`. The unwrap in `mod tests` is exempt.
    assert_eq!(
        keys(&out),
        vec![
            ("panic-policy", 2),
            ("panic-policy", 6),
            ("panic-policy", 11),
            ("panic-policy", 17),
        ]
    );
}

#[test]
fn panic_policy_accepts_invariant_messages_and_annotations() {
    let out = check(
        "crates/core/src/panics_ok.rs",
        include_str!("fixtures/panic_good.rs"),
    );
    assert!(out.is_empty(), "clean fixture produced {out:?}");
}

#[test]
fn unsafe_pragma_requires_the_attribute_in_code() {
    let out = check(
        "crates/core/src/lib.rs",
        include_str!("fixtures/pragma_missing.rs"),
    );
    assert_eq!(keys(&out), vec![("unsafe-pragma", 1)]);
}

#[test]
fn unsafe_pragma_accepts_a_compliant_root_and_skips_non_roots() {
    let ok = check(
        "crates/core/src/lib.rs",
        include_str!("fixtures/pragma_ok.rs"),
    );
    assert!(ok.is_empty(), "clean fixture produced {ok:?}");
    // The same pragma-less text anywhere else is not a crate root.
    let non_root = check(
        "crates/core/src/util.rs",
        include_str!("fixtures/pragma_missing.rs"),
    );
    assert!(non_root.is_empty());
}

#[test]
fn paper_refs_flags_out_of_range_citations_and_collects_valid_ones() {
    let (path, src) = (
        "crates/analysis/src/notes.rs",
        include_str!("fixtures/paper_refs_bad.rs"),
    );
    assert_eq!(
        keys(&check(path, src)),
        vec![("paper-refs", 3), ("paper-refs", 6), ("paper-refs", 9)]
    );
    let (_, eqs) = mms_lint::rules::paper_refs(&mms_lint::model::FileModel::build(path, src));
    assert_eq!(
        eqs.iter().map(|c| c.num).collect::<Vec<_>>(),
        vec![7],
        "the in-range citation feeds coverage"
    );
}

#[test]
fn allow_annotations_suppress_track_usage_and_demand_hygiene() {
    let out = check(
        "crates/sim/src/allows.rs",
        include_str!("fixtures/allow_cases.rs"),
    );
    // 10: unused annotation; 15: missing reason; 16: the reason-less
    // annotation suppresses nothing, so the violation itself still
    // fires; 21: unknown rule name. The annotated violation on line 5
    // is suppressed and produces nothing.
    assert_eq!(
        keys(&out),
        vec![
            ("lint-allow", 10),
            ("lint-allow", 15),
            ("determinism", 16),
            ("lint-allow", 21),
        ]
    );
    let unused = &out[0];
    assert!(
        unused.message.contains("unused"),
        "line 10 is the stale annotation"
    );
    let unknown = &out[3];
    assert!(
        unknown.message.contains("unknown rule"),
        "line 21 names a bogus rule"
    );
}

#[test]
fn rule_selection_limits_what_fires() {
    let set = RuleSet::only(&["determinism".to_string()]).expect("known rule");
    let out = lint_source(
        "crates/core/src/lib.rs",
        include_str!("fixtures/pragma_missing.rs"),
        &set,
    );
    assert!(out.is_empty(), "unsafe-pragma is inactive in this run");
    assert!(RuleSet::only(&["no-such-rule".to_string()]).is_err());
}
