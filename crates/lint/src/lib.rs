//! # mms-lint — static enforcement of the workspace's invariants
//!
//! PRs 1–4 established three load-bearing guarantees: bit-identical
//! output at any thread count, a zero-allocation data path, and
//! scheduler behavior pinned to the paper's equations. Each was
//! enforced only by runtime tests that a refactor could silently route
//! around. This crate is the static layer: a comment- and
//! string-literal-aware token scanner ([`scan`]), a structural model of
//! each file ([`model`]), a workspace-wide symbol table ([`symbols`])
//! with a conservative call graph ([`graph`]), and nine rules
//! ([`rules`], [`taint`], [`dead`]) that fail CI the moment a diff
//! violates an invariant.
//!
//! ## Per-file rules
//!
//! * `determinism` — no `Instant`/`SystemTime`/`HashMap`/`HashSet`/
//!   ambient randomness in the deterministic crates' library code.
//! * `hot-path-alloc` — the registered hot *roots* (the simulation
//!   step, the XOR kernels, the fleet/control-plane steps) must not
//!   contain `Vec::new`/`vec!`/`.to_vec()`/`Box::new`/`format!`/
//!   `.collect()`/`.clone()`.
//! * `unsafe-pragma` — every first-party crate root carries
//!   `#![forbid(unsafe_code)]`.
//! * `panic-policy` — `.unwrap()`/`.expect(…)`/`panic!` in non-test
//!   library code must state the invariant they rely on.
//! * `paper-refs` — comment citations must exist in the paper
//!   (Eqs 1–19, Figures 1–9, Tables 1–3), and every equation's
//!   registered implementing item must still exist and cite it.
//!
//! ## Interprocedural rules
//!
//! These run on the call graph, so a finding names the whole chain:
//!
//! * `transitive-alloc` — every function *reachable* from a hot root
//!   must be allocation-free, at any call depth. The registry holds
//!   only true roots; interior and dead entries are themselves
//!   findings.
//! * `determinism-taint` — nondeterminism sources taint callers
//!   transitively, so wall-clock reads laundered through a helper in a
//!   non-deterministic crate are caught at the frame where a
//!   deterministic crate calls out.
//! * `panic-reachability` — panic sites outside `panic-policy`'s
//!   per-file jurisdiction (bins, integration tests, examples) must
//!   state invariants when a hot root reaches them.
//! * `dead-pub` — a `pub` fn of library code that no code names —
//!   tests, binaries, examples and the benchmark's sources included —
//!   is dead. Names resolve as calls do, without the call syntax.
//!
//! ## Escape hatch
//!
//! A finding can be suppressed in place:
//!
//! ```text
//! // lint:allow(determinism): pool diagnostics are trace-only wall time
//! let started = trace_pool.then(std::time::Instant::now);
//! ```
//!
//! The annotation names one or more rules, requires a reason after the
//! colon, and applies to its own line or the next line carrying code.
//! For the graph rules the placement is semantic: on a *call-site* line
//! the allow cuts that edge (suppressing only chains through that
//! frame); on the *fact* line it clears the fact for all chains. An
//! annotation that suppresses nothing is itself an error, so stale
//! allows cannot accumulate.
//!
//! ## Usage
//!
//! ```text
//! cargo run -p mms-lint -- check [--rule <name>] [--json] [--root <dir>]
//!                                [--baseline <file>] [--write-baseline <file>]
//! cargo run -p mms-lint -- graph [--dot] [--roots] [--why <from> <to>]
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dead;
pub mod graph;
pub mod model;
pub mod report;
pub mod rules;
pub mod scan;
pub mod symbols;
pub mod taint;

use model::FileModel;
use report::{EqCoverage, Finding, Report};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Which rules a run enforces.
#[derive(Debug, Clone)]
pub struct RuleSet {
    active: Vec<String>,
}

impl RuleSet {
    /// All nine rules.
    #[must_use]
    pub fn all() -> RuleSet {
        RuleSet {
            active: rules::RULE_NAMES.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Only the named rules; errors on an unknown name.
    pub fn only(names: &[String]) -> Result<RuleSet, String> {
        for n in names {
            if !rules::RULE_NAMES.contains(&n.as_str()) {
                return Err(format!(
                    "unknown rule `{n}` (known: {})",
                    rules::RULE_NAMES.join(", ")
                ));
            }
        }
        Ok(RuleSet {
            active: names.to_vec(),
        })
    }

    /// Whether `rule` is enforced by this run.
    #[must_use]
    pub fn is_active(&self, rule: &str) -> bool {
        self.active.iter().any(|r| r == rule)
    }

    /// Whether any interprocedural rule is enforced by this run.
    #[must_use]
    pub fn any_graph_rule(&self) -> bool {
        rules::GRAPH_RULES.iter().any(|r| self.is_active(r))
    }
}

/// Per-file lint outcome: findings after annotation filtering, plus the
/// equation citations the file carries (for workspace coverage).
pub struct FileOutcome {
    /// Surviving findings.
    pub findings: Vec<Finding>,
    /// Equation numbers cited in this file's comments.
    pub eq_cited: Vec<u32>,
    /// Which hot-registry entries this file matched.
    pub hot_matched: Vec<bool>,
}

/// Run the per-file rules over one model, suppressing findings via
/// allows (and marking them used). No hygiene — that runs once the
/// graph rules have had their chance to use allows too.
fn file_rules(m: &FileModel, set: &RuleSet, hot_matched: &mut [bool]) -> (Vec<Finding>, Vec<u32>) {
    let mut raw: Vec<Finding> = Vec::new();
    let mut eq_cited = Vec::new();
    if set.is_active("determinism") {
        raw.extend(rules::determinism(m));
    }
    if set.is_active("hot-path-alloc") {
        raw.extend(rules::hot_path_alloc(m, hot_matched));
    }
    if set.is_active("unsafe-pragma") {
        raw.extend(rules::unsafe_pragma(m));
    }
    if set.is_active("panic-policy") {
        raw.extend(rules::panic_policy(m));
    }
    if set.is_active("paper-refs") {
        let (f, eqs) = rules::paper_refs(m);
        raw.extend(f);
        eq_cited.extend(eqs.iter().map(|c| c.num));
    }
    let mut findings: Vec<Finding> = Vec::new();
    for f in raw {
        let mut suppressed = false;
        for a in m.allows_for(&f.rule, f.line) {
            if a.has_reason {
                a.used.set(true);
                suppressed = true;
            }
        }
        if !suppressed {
            findings.push(f);
        }
    }
    (findings, eq_cited)
}

/// Annotation hygiene for one model: unknown rules, missing reasons,
/// unused allows. When `graph_ran` is false (per-file-only linting, as
/// in [`lint_source`]), allows naming a graph rule are exempt from the
/// unused check — nothing could have marked them.
fn hygiene(m: &FileModel, set: &RuleSet, graph_ran: bool, out: &mut Vec<Finding>) {
    for a in &m.allows {
        for r in &a.rules {
            if !rules::RULE_NAMES.contains(&r.as_str()) {
                out.push(Finding {
                    rule: "lint-allow".into(),
                    file: m.path.clone(),
                    line: a.line,
                    message: format!(
                        "`lint:allow({r})` names an unknown rule (known: {})",
                        rules::RULE_NAMES.join(", ")
                    ),
                });
            }
        }
        let relevant = a.rules.iter().any(|r| set.is_active(r));
        if !relevant {
            continue;
        }
        if !a.has_reason {
            out.push(Finding {
                rule: "lint-allow".into(),
                file: m.path.clone(),
                line: a.line,
                message: "`lint:allow(…)` requires a reason: `// lint:allow(<rule>): <why>`".into(),
            });
        } else if !a.used.get() {
            let names_graph_rule = a
                .rules
                .iter()
                .any(|r| rules::GRAPH_RULES.contains(&r.as_str()));
            if names_graph_rule && !graph_ran {
                continue;
            }
            out.push(Finding {
                rule: "lint-allow".into(),
                file: m.path.clone(),
                line: a.line,
                message: format!(
                    "unused `lint:allow({})`: nothing on line {} violates it — remove the annotation",
                    a.rules.join(", "),
                    a.target_line
                ),
            });
        }
    }
}

/// Lint a single source text as if it lived at workspace-relative
/// `path`. This is the per-file core used by fixture tests; the
/// interprocedural rules need the whole workspace and only run in
/// [`check_workspace`].
#[must_use]
pub fn lint_source(path: &str, src: &str, set: &RuleSet) -> FileOutcome {
    let m = FileModel::build(path, src);
    let mut hot_matched = vec![false; rules::HOT_FNS.len()];
    let (mut findings, eq_cited) = file_rules(&m, set, &mut hot_matched);
    hygiene(&m, set, false, &mut findings);
    FileOutcome {
        findings,
        eq_cited,
        hot_matched,
    }
}

/// Source files the linter walks: first-party Rust under these roots.
const WALK_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Source read only for the functions it names (`dead-pub`), never
/// linted: the reference benchmark compiles against the public API
/// from a workspace of its own.
pub const READER_ROOTS: [&str; 1] = ["benchmark/src"];

/// Paths never linted: vendored third-party subsets, build output, and
/// the linter's own known-bad fixture corpus.
fn excluded(rel: &str) -> bool {
    rel.starts_with("vendor/") || rel.starts_with("target/") || rel.contains("/fixtures/")
}

/// Recursively collect the workspace's first-party `.rs` files, sorted
/// for deterministic output.
fn collect_files(root: &Path, tops: &[&str]) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in tops {
        walk(&root.join(top), &mut out);
    }
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            walk(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// Load the workspace rooted at `root` into a symbol table (reading and
/// modeling every first-party file). Shared by [`check_workspace`] and
/// the `graph` subcommand.
pub fn load_workspace(root: &Path) -> Result<symbols::Workspace, String> {
    let models = load_models(root, &WALK_ROOTS)?;
    if models.is_empty() {
        return Err(format!(
            "no source files found under {} — wrong --root?",
            root.display()
        ));
    }
    let paths = models.iter().map(|m| m.path.clone()).collect();
    let mut ws = symbols::Workspace::build(root, paths, models);
    ws.readers = load_models(root, &READER_ROOTS)?;
    Ok(ws)
}

/// Read and model every non-excluded `.rs` file under `tops`.
fn load_models(root: &Path, tops: &[&str]) -> Result<Vec<FileModel>, String> {
    let mut models = Vec::new();
    for path in collect_files(root, tops) {
        let rel = path
            .strip_prefix(root)
            .map_err(|_| "path escaped root".to_string())?
            .to_string_lossy()
            .replace('\\', "/");
        if excluded(&rel) {
            continue;
        }
        let src =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        models.push(FileModel::build(&rel, &src));
    }
    Ok(models)
}

/// Run the active rules over the workspace rooted at `root`.
///
/// Phases: per-file rules (allow-filtered), the interprocedural rules
/// over the call graph (edge-cut and fact-clear allows applied), then
/// annotation hygiene and the registry cross-checks — every
/// hot-function entry must match a function somewhere (a rename would
/// otherwise silently drop protection), and every equation's
/// implementing item must exist and be cited in its registered file.
pub fn check_workspace(root: &Path, set: &RuleSet) -> Result<Report, String> {
    let ws = load_workspace(root)?;
    let mut report = Report {
        files_checked: ws.files.len(),
        ..Report::default()
    };
    let mut hot_matched = vec![false; rules::HOT_FNS.len()];
    let mut eqs_by_file: BTreeMap<String, Vec<u32>> = BTreeMap::new();

    for m in &ws.files {
        let (findings, eq_cited) = file_rules(m, set, &mut hot_matched);
        report.findings.extend(findings);
        if set.is_active("paper-refs") {
            eqs_by_file
                .entry(m.path.clone())
                .or_default()
                .extend(eq_cited);
        }
    }

    let graph_ran = set.any_graph_rule();
    if graph_ran {
        let g = graph::CallGraph::build(&ws);
        let roots = taint::resolve_roots(&ws);
        if set.is_active("transitive-alloc") {
            report
                .findings
                .extend(taint::transitive_alloc(&ws, &g, &roots));
        }
        if set.is_active("determinism-taint") {
            report.findings.extend(taint::determinism_taint(&ws, &g));
        }
        if set.is_active("panic-reachability") {
            report
                .findings
                .extend(taint::panic_reachability(&ws, &g, &roots));
        }
        if set.is_active("dead-pub") {
            report.findings.extend(dead::dead_pub(&ws));
        }
    }

    for m in &ws.files {
        hygiene(m, set, graph_ran, &mut report.findings);
    }

    if set.is_active("hot-path-alloc") {
        for (i, reg) in rules::HOT_FNS.iter().enumerate() {
            if !hot_matched[i] {
                let qual = reg
                    .impl_type
                    .map(|t| format!("{t}::{}", reg.name))
                    .unwrap_or_else(|| reg.name.to_string());
                report.findings.push(Finding {
                    rule: "hot-path-alloc".into(),
                    file: reg.file.into(),
                    line: 1,
                    message: format!(
                        "hot-path registry entry `{qual}` not found — renamed or moved? update the registry in crates/lint/src/rules.rs"
                    ),
                });
            }
        }
    }

    if set.is_active("paper-refs") {
        for e in rules::EQ_REGISTRY {
            let cited = eqs_by_file
                .iter()
                .any(|(f, eqs)| f.ends_with(e.file) && eqs.contains(&e.eq));
            let present = ws
                .paths
                .iter()
                .zip(&ws.files)
                .filter(|(p, _)| p.ends_with(e.file))
                .any(|(_, m)| m.toks.iter().any(|t| t.text.contains(e.item)));
            if !present {
                report.findings.push(Finding {
                    rule: "paper-refs".into(),
                    file: e.file.into(),
                    line: 1,
                    message: format!(
                        "registered implementing item `{}` for Eq. {} not found — renamed? update the registry in crates/lint/src/rules.rs",
                        e.item, e.eq
                    ),
                });
            }
            if !cited {
                report.findings.push(Finding {
                    rule: "paper-refs".into(),
                    file: e.file.into(),
                    line: 1,
                    message: format!(
                        "Eq. {} ({}) is no longer cited in this file — restore the doc citation on `{}`",
                        e.eq, e.what, e.item
                    ),
                });
            }
            report.coverage.push(EqCoverage {
                eq: e.eq,
                item: e.item.to_string(),
                file: e.file.to_string(),
                what: e.what.to_string(),
                cited,
            });
        }
    }

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Ok(report)
}

/// Locate the workspace root: walk up from `start` until a `Cargo.toml`
/// containing `[workspace]` is found.
#[must_use]
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(d) = cur {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        cur = d.parent();
    }
    None
}
