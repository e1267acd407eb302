//! Conservative workspace call graph.
//!
//! Edges over-approximate the real program: a function call the
//! analyzer cannot resolve precisely produces edges to *every*
//! plausible callee, never none — so the reachability-based rules
//! (`hot-path-alloc`, `determinism`, `panic-policy`) can miss nothing that a precise analysis would find, at the cost of
//! some spurious chains. Resolution, from most to least precise:
//!
//! * `Type::name(…)` / `Self::name(…)` — methods of that impl type
//!   (`Self` resolves to the caller's enclosing type);
//! * `self.name(…)` — methods of the caller's enclosing type when any
//!   exist, otherwise every method of that name (trait-object and
//!   generic-receiver dispatch over-approximated to all implementors);
//! * `expr.name(…)` — every method of that name; when no impl defines
//!   one, free functions of that name (this is how default trait
//!   methods, modeled as free functions, stay reachable);
//! * `name(…)` / `module::name(…)` — free functions of that name.
//!
//! Every candidate set is filtered by the crate dependency closure
//! (`sim` code cannot call into `bench`, so a shared method name
//! produces no such edge) and test-only functions never participate.
//! Calls that resolve to nothing (std, vendored crates) produce no
//! edge: their effects are visible to the rules as tokens at the call
//! site itself (`.collect()`, `Instant`), which the per-function fact
//! scan already captures. Closures have no identity of their own —
//! their bodies lie inside the enclosing function's token range, so
//! calls made from a closure are attributed to the enclosing function.

use crate::scan::{Kind, Tok};
use crate::symbols::Workspace;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One call edge: `from` calls `to` at `line` of `from`'s file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Caller function index.
    pub from: usize,
    /// Callee function index.
    pub to: usize,
    /// Line of the call site (in the caller's file).
    pub line: u32,
}

/// The workspace call graph over [`Workspace::fns`].
pub struct CallGraph {
    /// Outgoing edges per function, deduplicated, in call-site order.
    pub out: Vec<Vec<Edge>>,
    /// Incoming edge count per function (cheap dead-code signal).
    pub in_degree: Vec<usize>,
}

/// Rust keywords that look like call syntax heads (`if (…)`,
/// `while (…)`) and must never resolve to a function.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "fn", "let", "in", "as", "move",
    "ref", "mut", "where", "impl", "dyn", "break", "continue", "unsafe", "async", "await",
];

/// The non-test functions by bare name, split into methods and free
/// functions: what a name at a call or reference site can resolve to.
#[derive(Default)]
pub struct Names<'a> {
    typed: BTreeMap<&'a str, Vec<usize>>,
    free: BTreeMap<&'a str, Vec<usize>>,
}

impl<'a> Names<'a> {
    /// Index every non-test function of `ws`.
    #[must_use]
    pub fn new(ws: &'a Workspace) -> Names<'a> {
        let mut names = Names::default();
        for (i, f) in ws.fns.iter().enumerate().filter(|(_, f)| !f.is_test) {
            let by_name = if f.impl_type.is_some() {
                &mut names.typed
            } else {
                &mut names.free
            };
            by_name.entry(&f.name).or_default().push(i);
        }
        names
    }

    /// The functions the identifier `words[k]` may name, judged by the
    /// words before it (the resolution order in the module docs). `own`
    /// is the impl type of the function the words belong to.
    #[must_use]
    pub fn resolve(
        &self,
        ws: &Workspace,
        words: &[&str],
        k: usize,
        own: Option<&str>,
    ) -> Vec<usize> {
        let name = words[k];
        let word = |back: usize| k.checked_sub(back).map(|i| words[i]);
        let methods = self.typed.get(name).map(Vec::as_slice).unwrap_or(&[]);
        let of_type = |ty: Option<&str>| -> Vec<usize> {
            methods
                .iter()
                .copied()
                .filter(|&m| ty.is_some() && ws.fns[m].impl_type.as_deref() == ty)
                .collect()
        };
        let free = || self.free.get(name).cloned().unwrap_or_default();
        match (word(1), word(2), word(3)) {
            // Method call. `self.name(…)` prefers the caller's own impl
            // type; default trait methods are modeled as free fns.
            (Some("."), receiver, _) => {
                let mine = of_type(own.filter(|_| receiver == Some("self")));
                match (mine.is_empty(), methods.is_empty()) {
                    (false, _) => mine,
                    (true, false) => methods.to_vec(),
                    (true, true) => free(),
                }
            }
            // Qualified path `Q::name`.
            (Some(":"), Some(":"), Some("Self")) => of_type(own),
            // Type-qualified: methods of that type. An unknown type (std
            // `Vec::new`) resolves to nothing rather than everything.
            (Some(":"), Some(":"), Some(q)) if q.starts_with(char::is_uppercase) => {
                of_type(Some(q))
            }
            // Bare or module-qualified: free functions only.
            _ => free(),
        }
    }
}

impl CallGraph {
    /// Build the graph for every non-test function with a body.
    #[must_use]
    pub fn build(ws: &Workspace) -> CallGraph {
        let names = Names::new(ws);
        let mut out: Vec<Vec<Edge>> = vec![Vec::new(); ws.fns.len()];
        let mut in_degree = vec![0usize; ws.fns.len()];
        for (ci, caller) in ws.fns.iter().enumerate() {
            if caller.is_test {
                continue;
            }
            let Some((lo, hi)) = caller.body else {
                continue;
            };
            let model = &ws.files[caller.file];
            let code: Vec<&Tok> = model.toks[lo..=hi.min(model.toks.len().saturating_sub(1))]
                .iter()
                .filter(|t| !t.is_comment())
                .collect();
            let words: Vec<&str> = code.iter().map(|t| t.text.as_str()).collect();
            let mut edges: Vec<Edge> = Vec::new();
            for (k, t) in code.iter().enumerate() {
                if t.kind != Kind::Ident || words.get(k + 1) != Some(&"(") {
                    continue;
                }
                if KEYWORDS.contains(&words[k]) {
                    continue;
                }
                let candidates = names.resolve(ws, &words, k, caller.impl_type.as_deref());
                for callee in candidates {
                    if !ws.may_depend(&caller.krate, &ws.fns[callee].krate) {
                        continue;
                    }
                    let e = Edge {
                        from: ci,
                        to: callee,
                        line: t.line,
                    };
                    if !edges.contains(&e) {
                        edges.push(e);
                    }
                }
            }
            for e in &edges {
                in_degree[e.to] += 1;
            }
            out[ci] = edges;
        }
        CallGraph { out, in_degree }
    }

    /// Multi-source BFS. Returns per-function predecessor edge
    /// (`None` for unvisited, `Some(None)` for sources,
    /// `Some(Some(edge))` otherwise). `cut` drops edges before
    /// traversal (allow-vetted call sites).
    #[must_use]
    pub fn reach(
        &self,
        sources: &[usize],
        cut: &dyn Fn(&Edge) -> bool,
    ) -> Vec<Option<Option<Edge>>> {
        let mut pred: Vec<Option<Option<Edge>>> = vec![None; self.out.len()];
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &s in sources {
            if pred[s].is_none() {
                pred[s] = Some(None);
                queue.push_back(s);
            }
        }
        while let Some(u) = queue.pop_front() {
            for e in &self.out[u] {
                if cut(e) || pred[e.to].is_some() {
                    continue;
                }
                pred[e.to] = Some(Some(*e));
                queue.push_back(e.to);
            }
        }
        pred
    }

    /// Reverse BFS: every function that can reach one of `targets`
    /// (targets included), with the *next* edge toward the target
    /// recorded so chains can be walked forward.
    #[must_use]
    pub fn reach_rev(
        &self,
        targets: &[usize],
        cut: &dyn Fn(&Edge) -> bool,
    ) -> Vec<Option<Option<Edge>>> {
        let mut rin: Vec<Vec<Edge>> = vec![Vec::new(); self.out.len()];
        for edges in &self.out {
            for e in edges {
                rin[e.to].push(*e);
            }
        }
        let mut next: Vec<Option<Option<Edge>>> = vec![None; self.out.len()];
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &t in targets {
            if next[t].is_none() {
                next[t] = Some(None);
                queue.push_back(t);
            }
        }
        while let Some(v) = queue.pop_front() {
            for e in &rin[v] {
                if cut(e) || next[e.from].is_some() {
                    continue;
                }
                next[e.from] = Some(Some(*e));
                queue.push_back(e.from);
            }
        }
        next
    }

    /// Walk the forward chain root → … → `target` out of a
    /// [`reach`](Self::reach) predecessor table. Returns the edges in
    /// call order (empty when `target` is itself a source).
    #[must_use]
    pub fn chain_to(&self, pred: &[Option<Option<Edge>>], target: usize) -> Vec<Edge> {
        let mut rev = Vec::new();
        let mut cur = target;
        // `Some(Some(e))` is a visited non-source: follow e backwards.
        // `Some(None)` (a source) or `None` (unvisited) ends the walk.
        while let Some(Some(e)) = pred.get(cur).copied().flatten() {
            rev.push(e);
            cur = e.from;
            if rev.len() > self.out.len() {
                break; // cycle guard; cannot happen with BFS trees
            }
        }
        rev.reverse();
        rev
    }

    /// Render the graph as Graphviz DOT (production functions with at
    /// least one edge, grouped by crate).
    #[must_use]
    pub fn render_dot(&self, ws: &Workspace) -> String {
        let mut s = String::from("digraph mms_calls {\n  rankdir=LR;\n  node [shape=box];\n");
        let mut used = vec![false; ws.fns.len()];
        for edges in &self.out {
            for e in edges {
                used[e.from] = true;
                used[e.to] = true;
            }
        }
        for (i, f) in ws.fns.iter().enumerate() {
            if used[i] {
                let _ = writeln!(
                    s,
                    "  n{i} [label=\"{}\\n{}\"];",
                    f.qualified().replace('"', "'"),
                    f.module
                );
            }
        }
        for edges in &self.out {
            for e in edges {
                let _ = writeln!(s, "  n{} -> n{};", e.from, e.to);
            }
        }
        s.push_str("}\n");
        s
    }
}

/// Resolve a user-supplied function spec (`Type::name` or `name`) to
/// symbol indices, production functions first.
#[must_use]
pub fn resolve_spec(ws: &Workspace, spec: &str) -> Vec<usize> {
    let (ty, name) = match spec.split_once("::") {
        Some((t, n)) => (Some(t), n),
        None => (None, spec),
    };
    let mut hits: Vec<usize> = ws
        .named(name)
        .filter(|&i| match ty {
            Some(t) => ws.fns[i].impl_type.as_deref() == Some(t),
            None => true,
        })
        .collect();
    hits.sort_by_key(|&i| ws.fns[i].is_test);
    hits
}

/// Render one chain of edges (plus its start) as a human-readable
/// call path with file:line anchors.
#[must_use]
pub fn render_chain(ws: &Workspace, start: usize, chain: &[Edge]) -> String {
    let mut s = format!(
        "{} ({}:{})",
        ws.fns[start].qualified(),
        ws.paths[ws.fns[start].file],
        ws.fns[start].line
    );
    for e in chain {
        let _ = write!(
            s,
            " \u{2192} {} (called at {}:{})",
            ws.fns[e.to].qualified(),
            ws.paths[ws.fns[e.from].file],
            e.line
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileModel;

    fn ws_of(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(files.iter().map(|(p, s)| FileModel::build(p, s)).collect())
    }

    fn idx(ws: &Workspace, spec: &str) -> usize {
        resolve_spec(ws, spec)[0]
    }

    #[test]
    fn direct_and_method_calls_resolve() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "pub fn top() { helper(); }\nfn helper() {}\n\
             pub struct T;\nimpl T { pub fn m(&self) { self.n(); } fn n(&self) {} }\n",
        )]);
        let g = CallGraph::build(&ws);
        let top = idx(&ws, "top");
        let helper = idx(&ws, "helper");
        assert!(g.out[top].iter().any(|e| e.to == helper));
        let m = idx(&ws, "T::m");
        let n = idx(&ws, "T::n");
        assert!(g.out[m].iter().any(|e| e.to == n));
        assert_eq!(g.in_degree[helper], 1);
    }

    #[test]
    fn unqualified_method_calls_over_approximate_to_all_impls() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "pub trait S { fn plan(&self); }\n\
             pub struct A; impl S for A { fn plan(&self) {} }\n\
             pub struct B; impl S for B { fn plan(&self) {} }\n\
             pub fn drive(s: &dyn S) { s.plan(); }\n",
        )]);
        let g = CallGraph::build(&ws);
        let drive = idx(&ws, "drive");
        let callees: Vec<&str> = g.out[drive]
            .iter()
            .map(|e| ws.fns[e.to].impl_type.as_deref().unwrap_or(""))
            .collect();
        assert!(
            callees.contains(&"A") && callees.contains(&"B"),
            "{callees:?}"
        );
    }

    #[test]
    fn unknown_type_qualified_calls_produce_no_edge() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "pub fn top() { let v: Vec<u32> = Vec::new(); drop(v); }\npub fn new() {}\n",
        )]);
        let g = CallGraph::build(&ws);
        let top = idx(&ws, "top");
        assert!(g.out[top].is_empty(), "Vec::new must not resolve to fn new");
    }

    #[test]
    fn reach_walks_chains() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "pub fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn lonely() {}\n",
        )]);
        let g = CallGraph::build(&ws);
        let (a, c, lonely) = (idx(&ws, "a"), idx(&ws, "c"), idx(&ws, "lonely"));
        let pred = g.reach(&[a], &|_| false);
        assert!(pred[c].is_some());
        assert!(pred[lonely].is_none());
        let chain = g.chain_to(&pred, c);
        assert_eq!(chain.len(), 2);
        let text = render_chain(&ws, a, &chain);
        assert!(text.contains("a (") && text.ends_with(')'), "{text}");
    }

    #[test]
    fn cut_edges_block_reachability() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "pub fn a() { b(); }\nfn b() { c(); }\nfn c() {}\n",
        )]);
        let g = CallGraph::build(&ws);
        let (a, b, c) = (idx(&ws, "a"), idx(&ws, "b"), idx(&ws, "c"));
        let pred = g.reach(&[a], &|e| e.from == b && e.to == c);
        assert!(pred[b].is_some() && pred[c].is_none());
    }
}
