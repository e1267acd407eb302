//! # mms-lint — static enforcement of the workspace's invariants
//!
//! PRs 1–4 established three load-bearing guarantees: bit-identical
//! output at any thread count, a zero-allocation data path, and
//! scheduler behavior pinned to the paper's equations. Each was
//! enforced only by runtime tests that a refactor could silently route
//! around. This crate is the static layer: a comment- and
//! string-literal-aware token scanner ([`scan`]), a structural model of
//! each file ([`model`]), a workspace-wide symbol table ([`symbols`])
//! with a conservative call graph ([`graph`]), and six rules
//! ([`rules`], [`taint`], [`dead`]) that fail CI the moment a diff
//! violates an invariant.
//!
//! ## Rules
//!
//! One rule per property. The three that follow calls run on the call
//! graph, a function's own body being a chain of length 0, so a finding
//! names the whole chain:
//!
//! * `determinism` — no `Instant`/`SystemTime`/`HashMap`/`HashSet`/
//!   ambient randomness in the deterministic crates' library code, nor
//!   reached from it through a helper in another crate.
//! * `hot-path-alloc` — every function a registered hot *root* (the
//!   session loop, the fleet step, the zero scan) reaches, the roots
//!   included, must not contain `Vec::new`/`vec!`/`.to_vec()`/
//!   `Box::new`/`format!`/`.collect()`/`.clone()`. The
//!   registry holds only true roots; missing, interior and dead entries
//!   are themselves findings.
//! * `panic-policy` — `.unwrap()`/`.expect(…)`/`panic!` must state the
//!   invariant they rely on in non-test library code, and in bins,
//!   integration tests and examples a hot root reaches.
//!
//! The other three read files and references:
//!
//! * `unsafe-pragma` — every first-party crate root carries
//!   `#![forbid(unsafe_code)]`.
//! * `paper-refs` — comment citations must exist in the paper
//!   (Eqs 1–19, Figures 1–9, Tables 1–3), and every equation's
//!   registered implementing item must still exist and cite it.
//! * `dead-pub` — a `pub` fn of library code that no code names —
//!   tests, binaries, examples and the benchmark's sources included —
//!   is dead. Names resolve as calls do, without the call syntax.
//!
//! ## Escape hatch
//!
//! A reasoned annotation is the one way to suppress a finding:
//!
//! ```text
//! // lint:allow(determinism): pool diagnostics are trace-only wall time
//! let started = trace_pool.then(std::time::Instant::now);
//! ```
//!
//! The annotation names one or more rules, requires a reason after the
//! colon, and applies to its own line or the next line carrying code.
//! For the call-graph rules the placement is semantic: on a *call-site*
//! line the allow cuts that edge (suppressing only chains through that
//! frame); on the *fact* line it clears the fact for all chains. An
//! annotation that suppresses nothing is itself an error, so stale
//! allows cannot accumulate.
//!
//! ## Usage
//!
//! ```text
//! cargo run -p mms-lint -- check [--rule <name>] [--json] [--root <dir>]
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
use symbols::Workspace;

/// Which rules a run enforces.
#[derive(Debug, Clone)]
pub struct RuleSet {
    active: Vec<String>,
}

impl RuleSet {
    /// All six rules.
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
}

/// Annotation hygiene for one model: unknown rules, missing reasons,
/// unused allows. Runs once every active rule has had its chance to
/// use an allow.
fn hygiene(m: &FileModel, set: &RuleSet, out: &mut Vec<Finding>) {
    for a in &m.allows {
        for r in &a.rules {
            if !rules::RULE_NAMES.contains(&r.as_str()) {
                out.push(Finding::new(
                    "lint-allow",
                    &m.path,
                    a.line,
                    format!(
                        "`lint:allow({r})` names an unknown rule (known: {})",
                        rules::RULE_NAMES.join(", ")
                    ),
                ));
            }
        }
        if !a.rules.iter().any(|r| set.is_active(r)) {
            continue;
        }
        if !a.has_reason {
            out.push(Finding::new(
                "lint-allow",
                &m.path,
                a.line,
                "`lint:allow(…)` requires a reason: `// lint:allow(<rule>): <why>`".into(),
            ));
        } else if !a.used.get() {
            out.push(Finding::new(
                "lint-allow",
                &m.path,
                a.line,
                format!(
                    "unused `lint:allow({})`: nothing on line {} violates it — remove the annotation",
                    a.rules.join(", "),
                    a.target_line
                ),
            ));
        }
    }
}

/// Lint a single source text as if it lived at workspace-relative
/// `path`: [`check_workspace`]'s pipeline over a one-file workspace.
/// Returns the findings in that file; registry entries that name other
/// files are not found in a one-file workspace and are left out.
#[must_use]
pub fn lint_source(path: &str, src: &str, set: &RuleSet) -> Vec<Finding> {
    let ws = Workspace::build(vec![FileModel::build(path, src)]);
    let mut findings = run(&ws, set).findings;
    findings.retain(|f| f.file == ws.paths[0]);
    findings
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
pub fn load_workspace(root: &Path) -> Result<Workspace, String> {
    let models = load_models(root, &WALK_ROOTS)?;
    if models.is_empty() {
        return Err(format!(
            "no source files found under {} — wrong --root?",
            root.display()
        ));
    }
    let mut ws = Workspace::build(models);
    ws.deps = symbols::dep_closure(root, &ws.paths);
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
pub fn check_workspace(root: &Path, set: &RuleSet) -> Result<Report, String> {
    Ok(run(&load_workspace(root)?, set))
}

/// Run the active rules over `ws`: the call-graph rules, the per-file
/// rules (allow-filtered), `dead-pub`, annotation hygiene once every
/// rule has had its chance to use an allow, and the equation registry's
/// cross-check — every implementing item must exist and be cited in
/// its registered file.
fn run(ws: &Workspace, set: &RuleSet) -> Report {
    let mut report = Report {
        files_checked: ws.files.len(),
        ..Report::default()
    };
    let findings = &mut report.findings;
    let g = graph::CallGraph::build(ws);
    let roots = taint::resolve_roots(ws);
    if set.is_active("determinism") {
        findings.extend(taint::determinism(ws, &g));
    }
    if set.is_active("hot-path-alloc") {
        findings.extend(taint::hot_path_alloc(ws, &g, &roots));
    }
    if set.is_active("panic-policy") {
        findings.extend(taint::panic_policy(ws, &g, &roots.concat()));
    }
    let mut eqs_by_file: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
    for m in &ws.files {
        let mut raw = Vec::new();
        if set.is_active("unsafe-pragma") {
            raw.extend(rules::unsafe_pragma(m));
        }
        if set.is_active("paper-refs") {
            let (found, eqs) = rules::paper_refs(m);
            raw.extend(found);
            eqs_by_file
                .entry(&m.path)
                .or_default()
                .extend(eqs.iter().map(|c| c.num));
        }
        raw.retain(|f| !m.allowed(&f.rule, f.line, true));
        findings.extend(raw);
    }
    if set.is_active("dead-pub") {
        findings.extend(dead::dead_pub(ws));
    }
    for m in &ws.files {
        hygiene(m, set, findings);
    }

    if set.is_active("paper-refs") {
        for e in rules::EQ_REGISTRY {
            let cited = eqs_by_file
                .iter()
                .any(|(f, eqs)| f.ends_with(e.file) && eqs.contains(&e.eq));
            let present = ws
                .files
                .iter()
                .filter(|m| m.path.ends_with(e.file))
                .any(|m| m.toks.iter().any(|t| t.text.contains(e.item)));
            if !present {
                report.findings.push(Finding::new(
                    "paper-refs",
                    e.file,
                    1,
                    format!(
                        "registered implementing item `{}` for Eq. {} not found — renamed? update the registry in crates/lint/src/rules.rs",
                        e.item, e.eq
                    ),
                ));
            }
            if !cited {
                report.findings.push(Finding::new(
                    "paper-refs",
                    e.file,
                    1,
                    format!(
                        "Eq. {} ({}) is no longer cited in this file — restore the doc citation on `{}`",
                        e.eq, e.what, e.item
                    ),
                ));
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
    report
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
