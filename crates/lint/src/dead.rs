//! `dead-pub`: a `pub` function of library code that nothing names.
//!
//! A function is alive when any code names it — as a call, or as a path
//! used as a value (`or_insert_with(T::f)`, a `fn()` table). Every token
//! of every walked file counts, test code, binaries, examples and
//! `macro_rules!` bodies (`$crate::m::f(…)`) included, and so do the
//! reader roots ([`crate::READER_ROOTS`]): code that compiles against
//! the public API from outside the walk and is read for its references
//! but never linted. A name resolves as a call does ([`Names::resolve`]),
//! except that `.name` must be followed by `(` or `::` — a field of that
//! name keeps no method alive — and `use` declarations name nothing: a
//! re-export is not a caller.
//!
//! Resolution by name over-approximates: a method call links every
//! method of that name, so a method that shares its name with a used
//! one is never found. The rule can miss dead code, never flag live
//! code the compiler sees.
//!
//! Trait-impl methods are never findings: they cannot be `pub` (the
//! trait is their caller). An allow on the `fn` line keeps a function
//! that must stay.

use crate::graph::Names;
use crate::model::FileModel;
use crate::report::Finding;
use crate::rules;
use crate::scan::{Kind, Tok};
use crate::symbols::{crate_dir, Workspace};

const RULE: &str = "dead-pub";

/// Findings for every non-test `pub` fn with a body in library code
/// that nothing names.
#[must_use]
pub fn dead_pub(ws: &Workspace) -> Vec<Finding> {
    let names = Names::new(ws);
    let mut named = vec![false; ws.fns.len()];
    for m in ws.files.iter().chain(&ws.readers) {
        mark_named(ws, &names, m, &mut named);
    }
    let mut out = Vec::new();
    for (fi, f) in ws.fns.iter().enumerate() {
        let path = &ws.paths[f.file];
        if named[fi]
            || !f.is_pub
            || f.is_test
            || f.body.is_none()
            || !rules::is_library_source(path)
        {
            continue;
        }
        if ws.files[f.file].allowed(RULE, f.line, true) {
            continue;
        }
        out.push(Finding::new(
            RULE,
            path,
            f.line,
            format!(
                "`pub fn {}` is dead: nothing in the workspace, its tests or `benchmark/src` \
                 calls or names it — delete it, or keep it with `lint:allow({RULE})` and a reason",
                f.qualified()
            ),
        ));
    }
    out
}

/// Mark every function some token of `m` names.
fn mark_named(ws: &Workspace, names: &Names, m: &FileModel, named: &mut [bool]) {
    // The impl type of the innermost function around each token.
    let mut own: Vec<Option<&str>> = vec![None; m.toks.len()];
    for f in &m.fns {
        if let Some((lo, hi)) = f.body {
            own[lo..=hi].fill(f.impl_type.as_deref());
        }
    }
    let code: Vec<(usize, &Tok)> = m
        .toks
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .collect();
    let words: Vec<&str> = code.iter().map(|(_, t)| t.text.as_str()).collect();
    let krate = crate_dir(&m.path);
    let mut k = 0;
    while k < code.len() {
        let (i, (ti, t)) = (k, code[k]);
        if words[i] == "use" {
            k += words[i..].iter().position(|&w| w == ";").unwrap_or(0) + 1;
            continue;
        }
        k += 1;
        let prev = i.checked_sub(1).map(|p| words[p]);
        let field = prev == Some(".") && !matches!(words.get(i + 1), Some(&"(" | &":"));
        if t.kind != Kind::Ident || field || prev == Some("fn") {
            continue;
        }
        for c in names.resolve(ws, &words, i, own[ti]) {
            named[c] |= ws.may_depend(&krate, &ws.fns[c].krate);
        }
    }
}
