//! The three call-graph rules. Each flags a *fact* — an allocation, a
//! nondeterminism source, a panic site, as [`crate::rules`] scans them
//! — in the functions a chain reaches. A function's own body is a
//! chain of length 0.
//!
//! * `hot-path-alloc` — the [`HOT_FNS`] registry entries are *roots*;
//!   every function a root reaches, the roots included, must be
//!   allocation-free, at any call depth, so the registry never has to
//!   chase helpers. The rule also polices the registry: an entry that
//!   matches no function (renamed or moved), an entry another root
//!   reaches (an interior node to prune), and a non-`pub` entry nothing
//!   calls (dead code) are findings.
//! * `determinism` — every nondeterminism fact
//!   ([`crate::rules::NONDETERMINISTIC_IDENTS`]) in a deterministic
//!   crate's non-test library code is a finding, `use` lines and
//!   signatures included. Facts in *any* crate taint their callers
//!   transitively, and a deterministic function whose chain leaves
//!   deterministic jurisdiction into tainted code is flagged at that
//!   frontier frame — so a wall-clock read laundered through a helper
//!   in `mms-bench` is caught where the deterministic crate calls out.
//! * `panic-policy` — panic facts without an invariant message are
//!   findings anywhere in non-test library code, and in binaries,
//!   integration tests and examples when a hot root reaches them.
//!
//! ## `lint:allow` semantics
//!
//! An allow on a **call-site** line cuts that edge out of the graph
//! before analysis — so it suppresses exactly the chains that pass
//! through that frame, and nothing else. An allow on the **fact** line
//! (the allocation, the `Instant`, the `.unwrap()`) clears the fact for
//! every chain. A cut edge is "used" only when it is load-bearing: a
//! cut whose caller no chain reaches is an unused allow and fails
//! hygiene.

use crate::graph::{render_chain, CallGraph, Edge};
use crate::model::FileModel;
use crate::report::Finding;
use crate::rules::{self, HOT_FNS};
use crate::symbols::Workspace;
use std::ops::Range;

/// Every non-test function each hot-registry entry names, in registry
/// order. An empty list is an entry that matches nothing.
#[must_use]
pub fn resolve_roots(ws: &Workspace) -> Vec<Vec<usize>> {
    HOT_FNS
        .iter()
        .map(|reg| {
            (0..ws.fns.len())
                .filter(|&fi| {
                    let f = &ws.fns[fi];
                    !f.is_test
                        && f.name == reg.name
                        && ws.paths[f.file].ends_with(reg.file)
                        && reg
                            .impl_type
                            .map_or(true, |want| f.impl_type.as_deref() == Some(want))
                })
                .collect()
        })
        .collect()
}

/// Whether an allow for `rule` on the call-site line cuts edge `e`.
fn cut(ws: &Workspace, rule: &str, e: &Edge, mark: bool) -> bool {
    ws.files[ws.fns[e.from].file].allowed(rule, e.line, mark)
}

/// Findings for the facts `sites` finds in each non-test function a
/// root reaches whose file `scope` admits, each naming its chain.
/// `rule`'s call-site allows cut edges, and a cut is used when a chain
/// reaches its caller.
fn reached_facts(
    ws: &Workspace,
    g: &CallGraph,
    rule: &str,
    roots: &[usize],
    scope: fn(&str) -> bool,
    sites: fn(&FileModel, Range<usize>) -> Vec<rules::Fact>,
    advice: &str,
) -> Vec<Finding> {
    let pred = g.reach(roots, &|e| cut(ws, rule, e, false));
    for e in g.out.iter().flatten().filter(|e| pred[e.from].is_some()) {
        cut(ws, rule, e, true);
    }
    let mut out = Vec::new();
    for (fi, f) in ws.fns.iter().enumerate() {
        if f.is_test || pred[fi].is_none() || !scope(&ws.paths[f.file]) {
            continue;
        }
        let Some((lo, hi)) = f.body else { continue };
        let m = &ws.files[f.file];
        let chain = g.chain_to(&pred, fi);
        let start = chain.first().map_or(fi, |e| e.from);
        for (line, label) in sites(m, lo..hi + 1) {
            if m.allowed(rule, line, true) {
                continue;
            }
            out.push(Finding::new(
                rule,
                &ws.paths[f.file],
                line,
                format!(
                    "{label} in `{}` is on a hot path: {} — {advice} \
                     (cut the edge or clear the fact with `lint:allow({rule})`)",
                    f.qualified(),
                    render_chain(ws, start, &chain),
                ),
            ));
        }
    }
    out
}

/// `hot-path-alloc`: allocation facts in every function a hot root
/// reaches, the roots included, plus the three registry-drift checks
/// (missing, interior and dead entries). `roots` is [`resolve_roots`].
#[must_use]
pub fn hot_path_alloc(ws: &Workspace, g: &CallGraph, roots: &[Vec<usize>]) -> Vec<Finding> {
    const RULE: &str = "hot-path-alloc";
    let root_fns = roots.concat();
    let mut out = reached_facts(
        ws,
        g,
        RULE,
        &root_fns,
        |_| true,
        rules::alloc_sites,
        "the data path must not allocate",
    );
    // Registry drift. A missing entry protects nothing; a root another
    // root reaches is redundant; a non-pub root nothing calls is dead.
    for (reg, fns) in HOT_FNS.iter().zip(roots) {
        if fns.is_empty() {
            let qual = reg
                .impl_type
                .map_or_else(|| reg.name.to_string(), |t| format!("{t}::{}", reg.name));
            out.push(Finding::new(
                RULE,
                reg.file,
                1,
                format!(
                    "hot-path registry entry `{qual}` not found — renamed or moved? update \
                     HOT_FNS in crates/lint/src/rules.rs"
                ),
            ));
        }
        for &fi in fns {
            let others: Vec<usize> = root_fns.iter().copied().filter(|&o| o != fi).collect();
            let p = g.reach(&others, &|_| false);
            let f = &ws.fns[fi];
            if p[fi].is_some() {
                let chain = g.chain_to(&p, fi);
                let start = chain.first().map_or(fi, |e| e.from);
                out.push(Finding::new(
                    RULE,
                    &ws.paths[f.file],
                    f.line,
                    format!(
                        "hot-path registry entry `{}` is an interior node: {} — prune it from \
                         HOT_FNS in crates/lint/src/rules.rs; the roots above it cover it",
                        f.qualified(),
                        render_chain(ws, start, &chain),
                    ),
                ));
            }
            if g.in_degree[fi] == 0 && !f.is_pub {
                out.push(Finding::new(
                    RULE,
                    &ws.paths[f.file],
                    f.line,
                    format!(
                        "hot-path registry entry `{}` is dead code: not `pub` and nothing in the \
                         workspace calls it — delete the function or the registry entry",
                        f.qualified(),
                    ),
                ));
            }
        }
    }
    out
}

/// `determinism`: nondeterminism facts anywhere in deterministic
/// crates' non-test library code, plus the frontier frames whose chain
/// leaves that jurisdiction into code that (transitively) touches one.
#[must_use]
pub fn determinism(ws: &Workspace, g: &CallGraph) -> Vec<Finding> {
    const RULE: &str = "determinism";
    let mut out = Vec::new();
    for m in ws.files.iter().filter(|m| rules::is_deterministic(&m.path)) {
        for (line, ident, why) in rules::nondet_sites(m, 0..m.toks.len()) {
            if !m.allowed(RULE, line, true) {
                out.push(Finding::new(
                    RULE,
                    &m.path,
                    line,
                    format!("`{ident}` in deterministic crate: {why}"),
                ));
            }
        }
    }
    // Sources: every non-test fn, in any crate, with an uncleared fact.
    let mut fact: Vec<Option<(u32, &'static str, &'static str)>> = vec![None; ws.fns.len()];
    for (fi, f) in ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let Some((lo, hi)) = f.body else { continue };
        let m = &ws.files[f.file];
        fact[fi] = rules::nondet_sites(m, lo..hi + 1)
            .into_iter()
            .find(|&(line, ..)| !m.allowed(RULE, line, true));
    }
    let sources: Vec<usize> = (0..ws.fns.len()).filter(|&fi| fact[fi].is_some()).collect();
    let next = g.reach_rev(&sources, &|e| cut(ws, RULE, e, false));
    for e in g.out.iter().flatten().filter(|e| next[e.to].is_some()) {
        cut(ws, RULE, e, true);
    }

    let in_jurisdiction = |fi: usize| rules::is_deterministic(&ws.paths[ws.fns[fi].file]);
    for (fi, f) in ws.fns.iter().enumerate() {
        if f.is_test || !in_jurisdiction(fi) {
            continue;
        }
        // Some(Some(e)): tainted through at least one call. A direct
        // fact (Some(None)) is flagged above, and a next hop still
        // inside deterministic jurisdiction carries its own finding —
        // flag only the frontier frame where the chain escapes.
        let Some(Some(first)) = next[fi] else {
            continue;
        };
        if in_jurisdiction(first.to) {
            continue;
        }
        // Walk the chain forward to the source for the message.
        let mut chain = Vec::new();
        let mut cur = fi;
        while let Some(Some(e)) = next[cur] {
            chain.push(e);
            cur = e.to;
            if chain.len() > ws.fns.len() {
                break;
            }
        }
        let (line, ident, why) = fact[cur].unwrap_or((ws.fns[cur].line, "?", "tainted"));
        out.push(Finding::new(
            RULE,
            &ws.paths[f.file],
            first.line,
            format!(
                "`{}` launders nondeterminism through non-deterministic-crate code: {} — \
                 `{}` uses `{ident}` at {}:{line} ({why})",
                f.qualified(),
                render_chain(ws, fi, &chain),
                ws.fns[cur].qualified(),
                ws.paths[ws.fns[cur].file],
            ),
        ));
    }
    out
}

/// `panic-policy`: panic facts without an invariant message anywhere in
/// non-test library code, and in the binaries, integration tests and
/// examples a hot root reaches. `roots` are the resolved root fns.
#[must_use]
pub fn panic_policy(ws: &Workspace, g: &CallGraph, roots: &[usize]) -> Vec<Finding> {
    const RULE: &str = "panic-policy";
    let mut out = Vec::new();
    for m in ws
        .files
        .iter()
        .filter(|m| rules::is_library_source(&m.path))
    {
        for (line, label) in rules::panic_sites(m, 0..m.toks.len()) {
            if !m.allowed(RULE, line, true) {
                out.push(Finding::new(
                    RULE,
                    &m.path,
                    line,
                    format!(
                        "{label} in library code: state the invariant in a string message of \
                         ≥ {} chars, or annotate",
                        rules::MIN_PANIC_MSG
                    ),
                ));
            }
        }
    }
    out.extend(reached_facts(
        ws,
        g,
        RULE,
        roots,
        |path| !rules::is_library_source(path),
        rules::panic_sites,
        "state the invariant",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws_of(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(files.iter().map(|(p, s)| FileModel::build(p, s)).collect())
    }

    // The registry lists Simulator::run_sessions in
    // crates/sim/src/simulator.rs as a root — fixtures reuse that path
    // so a real root resolves without touching the registry.
    const ROOT_FILE: &str = "crates/sim/src/simulator.rs";

    #[test]
    fn hot_path_alloc_flags_helper_with_chain() {
        let ws = ws_of(&[(
            ROOT_FILE,
            "pub struct Simulator;\nimpl Simulator {\n  pub fn run_sessions(&mut self) { helper(self); }\n}\n\
             fn helper(_s: &Simulator) { let v: Vec<u32> = Vec::new(); drop(v); }\n",
        )]);
        let g = CallGraph::build(&ws);
        let roots = resolve_roots(&ws);
        assert!(roots
            .concat()
            .iter()
            .any(|&fi| ws.fns[fi].name == "run_sessions"));
        let f = hot_path_alloc(&ws, &g, &roots);
        let hit = f
            .iter()
            .find(|x| x.message.contains("`Vec::new` in `helper`"))
            .expect("transitive alloc in helper is flagged");
        assert!(
            hit.message.contains("Simulator::run_sessions"),
            "{}",
            hit.message
        );
    }

    #[test]
    fn hot_path_alloc_edge_allow_cuts_only_that_chain() {
        let ws = ws_of(&[(
            ROOT_FILE,
            "pub struct Simulator;\nimpl Simulator {\n  pub fn run_sessions(&mut self) {\n    \
             helper(); // lint:allow(hot-path-alloc): cold path, runs once per failure\n  }\n}\n\
             fn helper() { let v: Vec<u32> = Vec::new(); drop(v); }\n",
        )]);
        let g = CallGraph::build(&ws);
        let roots = resolve_roots(&ws);
        let f = hot_path_alloc(&ws, &g, &roots);
        assert!(
            !f.iter().any(|x| x.message.contains("helper")),
            "cut edge suppresses the chain: {f:?}"
        );
        // The allow was load-bearing, so it must be marked used.
        assert!(ws.files[0].allows[0].used.get());
    }

    #[test]
    fn determinism_catches_laundering() {
        let ws = ws_of(&[
            (ROOT_FILE, "pub fn drive() { helper_now(); }\n"),
            (
                "crates/bench/src/util.rs",
                "pub fn helper_now() -> u64 { Instant::now(); 0 }\n",
            ),
        ]);
        let g = CallGraph::build(&ws);
        let f = determinism(&ws, &g);
        let hit = f
            .iter()
            .find(|x| x.file == ROOT_FILE)
            .expect("laundered Instant is caught");
        assert!(hit.message.contains("helper_now"), "{}", hit.message);
        assert!(hit.message.contains("Instant"), "{}", hit.message);
    }

    #[test]
    fn panic_policy_flags_bins_a_root_reaches() {
        let ws = ws_of(&[
            (
                ROOT_FILE,
                "pub struct Simulator;\nimpl Simulator { pub fn run_sessions(&mut self) { risky(); } }\n",
            ),
            (
                "crates/sim/src/bin/tool.rs",
                "pub fn risky() { let x: Option<u32> = None; x.unwrap(); }\n",
            ),
        ]);
        let g = CallGraph::build(&ws);
        let f = panic_policy(&ws, &g, &resolve_roots(&ws).concat());
        assert!(
            f.iter().any(|x| x.file.contains("bin/tool.rs")),
            "unwrap in a bin reachable from a root is flagged: {f:?}"
        );
    }
}
