//! The invariant rules and their registries.
//!
//! | Rule | Protects | Scope |
//! |---|---|---|
//! | `determinism` | bit-identical output at any thread count (PR 1/2) | deterministic crates' non-test code |
//! | `hot-path-alloc` | the zero-allocation data path (PR 3) | registered hot functions |
//! | `unsafe-pragma` | `#![forbid(unsafe_code)]` on every first-party crate | crate roots |
//! | `panic-policy` | panics in library code state their invariant | non-test library code |
//! | `paper-refs` | citations stay within the paper (Eqs 1–19, Figs 1–9, Tables 1–3) | all comments |
//! | `transitive-alloc` | zero allocation everywhere *reachable* from a hot root | workspace call graph |
//! | `determinism-taint` | no laundering nondeterminism through helper crates | workspace call graph |
//! | `panic-reachability` | reachable panic sites outside library code state invariants | workspace call graph |
//! | `dead-pub` | every `pub` fn of library code is called or named somewhere | workspace references |
//!
//! The last four are interprocedural: they run over the symbol table of
//! [`crate::symbols`] — three on the call graph built by
//! [`crate::graph`], living in [`crate::taint`], and `dead-pub` on the
//! references it resolves the same way ([`crate::dead`]). This module keeps the per-file rules and
//! the registries (hot roots, equations, fact patterns) both layers
//! share.

use crate::model::FileModel;
use crate::report::Finding;
use crate::scan::Kind;

/// Names of every rule, in reporting order.
pub const RULE_NAMES: [&str; 9] = [
    "determinism",
    "hot-path-alloc",
    "unsafe-pragma",
    "panic-policy",
    "paper-refs",
    "transitive-alloc",
    "determinism-taint",
    "panic-reachability",
    "dead-pub",
];

/// The interprocedural rules: they need the whole-workspace call graph
/// and cannot run per-file. `lint:allow` semantics differ too — an
/// allow on a *call-site* line cuts that edge out of the graph
/// (suppressing only chains through that frame), while an allow on the
/// allocation/nondeterminism/panic *fact* line clears the fact itself.
/// `dead-pub` reads every file for references; its allow goes on the
/// `fn` line.
pub const GRAPH_RULES: [&str; 4] = [
    "transitive-alloc",
    "determinism-taint",
    "panic-reachability",
    "dead-pub",
];

/// Crates whose library code must be deterministic: no wall-clock
/// reads, no iteration-order-random collections, no ambient randomness.
/// (`mms-bench` measures wall time on purpose; `mms-lint` never runs
/// inside a simulation.)
pub const DETERMINISTIC_CRATES: [&str; 12] = [
    "analysis",
    "buffer",
    "core",
    "disk",
    "exec",
    "fleet",
    "layout",
    "parity",
    "reliability",
    "sched",
    "sim",
    "telemetry",
];

/// Identifiers whose mere presence in deterministic code is a finding.
pub const NONDETERMINISTIC_IDENTS: [(&str, &str); 8] = [
    ("Instant", "wall-clock time leaks scheduling into results"),
    (
        "SystemTime",
        "wall-clock time leaks scheduling into results",
    ),
    ("HashMap", "iteration order is randomized per process"),
    ("HashSet", "iteration order is randomized per process"),
    ("RandomState", "hasher seeds are randomized per process"),
    ("thread_rng", "ambient RNG is not seed-controlled"),
    ("from_entropy", "ambient RNG is not seed-controlled"),
    ("OsRng", "ambient RNG is not seed-controlled"),
];

/// One entry of the hot-function registry: the function must exist
/// (renaming it without updating the registry is itself a finding) and
/// its body must not contain the forbidden allocation tokens.
pub struct HotFn {
    /// Workspace-relative file the function lives in.
    pub file: &'static str,
    /// Required enclosing `impl` type, when the bare name is ambiguous.
    pub impl_type: Option<&'static str>,
    /// Exact function name.
    pub name: &'static str,
    /// Why the function is hot.
    pub why: &'static str,
}

/// The zero-allocation registry (PR 3's guarantee, made static).
///
/// Since `transitive-alloc` walks the call graph, the registry lists
/// only the **roots** of the hot paths — the entry points a driver
/// calls per cycle (or per event) — not every function on them.
/// `Simulator::step`, the schedulers' `plan_cycle_into`/`fast_forward`
/// family, the XOR kernels, and the `BlockOracle` streaming paths are
/// all reachable from these roots and covered transitively;
/// registering them again would be flagged as an interior node. A
/// root nothing calls and nothing exports is flagged as dead.
pub const HOT_FNS: &[HotFn] = &[
    HotFn {
        file: "crates/parity/src/block.rs",
        impl_type: None,
        name: "slice_is_zero",
        why: "word-wise zero scan (leaf kernel, called via is_zero wrappers)",
    },
    HotFn {
        file: "crates/sim/src/simulator.rs",
        impl_type: Some("Simulator"),
        name: "run_sessions",
        why: "session-driven simulation loop (reaches step, schedulers, verify)",
    },
    HotFn {
        file: "crates/telemetry/src/flight.rs",
        impl_type: Some("FlightRecorder"),
        name: "record",
        why: "per-event black-box append",
    },
    HotFn {
        file: "crates/fleet/src/fleet.rs",
        impl_type: Some("Fleet"),
        name: "step",
        why: "per-cycle fleet step (control plane + nodes + routing)",
    },
];

/// One entry of the paper-equation registry.
pub struct EqEntry {
    /// Equation number (1–19).
    pub eq: u32,
    /// File that implements it.
    pub file: &'static str,
    /// The implementing item; must exist in `file`.
    pub item: &'static str,
    /// What the equation computes.
    pub what: &'static str,
}

/// Every numbered equation of the paper mapped to its implementing
/// item. `check` verifies the item still exists and the file still
/// cites the equation, and reports coverage over all 19.
pub const EQ_REGISTRY: &[EqEntry] = &[
    EqEntry {
        eq: 1,
        file: "crates/analysis/src/overhead.rs",
        item: "storage_overhead_fraction",
        what: "parity storage overhead 1/C",
    },
    EqEntry {
        eq: 2,
        file: "crates/analysis/src/overhead.rs",
        item: "bandwidth_overhead_fraction",
        what: "bandwidth overhead, clustered schemes",
    },
    EqEntry {
        eq: 3,
        file: "crates/analysis/src/overhead.rs",
        item: "bandwidth_overhead_fraction",
        what: "bandwidth overhead, improved-bandwidth",
    },
    EqEntry {
        eq: 4,
        file: "crates/reliability/src/formulas.rs",
        item: "mttf_raid",
        what: "MTTF of SR/SG/NC",
    },
    EqEntry {
        eq: 5,
        file: "crates/reliability/src/formulas.rs",
        item: "mttf_improved",
        what: "MTTF of IB (2C-1 exposure)",
    },
    EqEntry {
        eq: 6,
        file: "crates/reliability/src/formulas.rs",
        item: "mttds_shared",
        what: "MTTDS with k masked failures",
    },
    EqEntry {
        eq: 7,
        file: "crates/analysis/src/streams.rs",
        item: "streams_per_disk_bound",
        what: "per-disk stream bound",
    },
    EqEntry {
        eq: 8,
        file: "crates/analysis/src/streams.rs",
        item: "max_streams_fractional",
        what: "N_SR stream capacity",
    },
    EqEntry {
        eq: 9,
        file: "crates/analysis/src/streams.rs",
        item: "max_streams_fractional",
        what: "N_SG stream capacity",
    },
    EqEntry {
        eq: 10,
        file: "crates/analysis/src/streams.rs",
        item: "max_streams_fractional",
        what: "N_NC stream capacity",
    },
    EqEntry {
        eq: 11,
        file: "crates/analysis/src/streams.rs",
        item: "max_streams_fractional",
        what: "N_IB stream capacity",
    },
    EqEntry {
        eq: 12,
        file: "crates/analysis/src/buffers.rs",
        item: "buffer_tracks",
        what: "BF_SR buffer tracks",
    },
    EqEntry {
        eq: 13,
        file: "crates/analysis/src/buffers.rs",
        item: "buffer_tracks",
        what: "BF_SG buffer tracks",
    },
    EqEntry {
        eq: 14,
        file: "crates/analysis/src/buffers.rs",
        item: "buffer_tracks_fractional",
        what: "BF_NC buffer tracks (buffer servers)",
    },
    EqEntry {
        eq: 15,
        file: "crates/analysis/src/buffers.rs",
        item: "buffer_tracks",
        what: "BF_IB buffer tracks",
    },
    EqEntry {
        eq: 16,
        file: "crates/analysis/src/cost.rs",
        item: "total_cost",
        what: "total cost, SR",
    },
    EqEntry {
        eq: 17,
        file: "crates/analysis/src/cost.rs",
        item: "total_cost",
        what: "total cost, SG",
    },
    EqEntry {
        eq: 18,
        file: "crates/analysis/src/cost.rs",
        item: "total_cost",
        what: "total cost, NC",
    },
    EqEntry {
        eq: 19,
        file: "crates/analysis/src/cost.rs",
        item: "total_cost",
        what: "total cost, IB",
    },
];

/// Citation ranges that exist in the paper.
pub const EQ_RANGE: (u32, u32) = (1, 19);
/// Figures 1–9.
pub const FIG_RANGE: (u32, u32) = (1, 9);
/// Tables 1–3.
pub const TABLE_RANGE: (u32, u32) = (1, 3);

/// The crate directory name (`crates/<name>/…`) of a workspace path.
pub fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// Whether `path` is library (non-binary, non-test-target) source of a
/// first-party crate: `crates/<c>/src/**` excluding `src/bin/**`, or
/// the root package's `src/lib.rs`.
pub fn is_library_source(path: &str) -> bool {
    if path == "src/lib.rs" {
        return true;
    }
    let Some(c) = crate_of(path) else {
        return false;
    };
    let prefix = format!("crates/{c}/src/");
    path.starts_with(&prefix) && !path.starts_with(&format!("crates/{c}/src/bin/"))
}

/// Whether `path` is a first-party crate root (`lib.rs`).
fn is_crate_root(path: &str) -> bool {
    path == "src/lib.rs"
        || (path.starts_with("crates/")
            && path.ends_with("/src/lib.rs")
            && path.matches('/').count() == 3)
}

fn finding(rule: &'static str, path: &str, line: u32, message: String) -> Finding {
    Finding {
        rule: rule.to_string(),
        file: path.to_string(),
        line,
        message,
    }
}

/// `determinism`: forbid wall-clock, hash-randomized collections, and
/// ambient randomness in deterministic crates' non-test code.
pub fn determinism(m: &FileModel) -> Vec<Finding> {
    let mut out = Vec::new();
    let applies = crate_of(&m.path).is_some_and(|c| DETERMINISTIC_CRATES.contains(&c))
        && is_library_source(&m.path);
    if !applies {
        return out;
    }
    for (t, &in_test) in m.toks.iter().zip(&m.in_test) {
        if in_test || t.kind != Kind::Ident {
            continue;
        }
        if let Some((ident, why)) = NONDETERMINISTIC_IDENTS
            .iter()
            .find(|(ident, _)| t.text == *ident)
        {
            out.push(finding(
                "determinism",
                &m.path,
                t.line,
                format!("`{ident}` in deterministic crate: {why}"),
            ));
        }
    }
    out
}

/// Token-sequence matcher over non-comment tokens of a body range.
struct Seq<'a> {
    m: &'a FileModel,
    idx: Vec<usize>,
}

impl<'a> Seq<'a> {
    fn body(m: &'a FileModel, lo: usize, hi: usize) -> Seq<'a> {
        let idx = (lo..=hi.min(m.toks.len().saturating_sub(1)))
            .filter(|&i| !m.toks[i].is_comment())
            .collect();
        Seq { m, idx }
    }

    fn text(&self, k: usize) -> Option<&str> {
        self.idx.get(k).map(|&i| self.m.toks[i].text.as_str())
    }

    fn line(&self, k: usize) -> u32 {
        self.idx.get(k).map_or(0, |&i| self.m.toks[i].line)
    }

    fn in_test(&self, k: usize) -> bool {
        self.idx.get(k).is_some_and(|&i| self.m.in_test[i])
    }

    fn len(&self) -> usize {
        self.idx.len()
    }

    /// Does the literal token sequence `pat` start at position `k`?
    fn matches(&self, k: usize, pat: &[&str]) -> bool {
        pat.iter()
            .enumerate()
            .all(|(d, p)| self.text(k + d) == Some(*p))
    }
}

/// The allocation tokens forbidden in hot functions.
const HOT_FORBIDDEN: &[(&[&str], &str)] = &[
    (&["Vec", ":", ":", "new"], "Vec::new"),
    (&["vec", "!"], "vec!"),
    (&[".", "to_vec"], ".to_vec()"),
    (&["Box", ":", ":", "new"], "Box::new"),
    (&["format", "!"], "format!"),
    (&[".", "collect"], ".collect()"),
    // Cloning a stream entry or failure set hides a heap allocation the
    // moment the struct holds a non-empty Vec/BTreeSet; planners must
    // copy scalar fields or hold a shared borrow instead.
    (&[".", "clone"], ".clone()"),
    (&[".", "cloned"], ".cloned()"),
];

/// Allocation fact sites within a body token range: every occurrence
/// of a `HOT_FORBIDDEN` pattern outside test code, as
/// `(line, label)`. Shared by the per-file `hot-path-alloc` rule and
/// the interprocedural `transitive-alloc` rule.
#[must_use]
pub fn alloc_sites(m: &FileModel, lo: usize, hi: usize) -> Vec<(u32, &'static str)> {
    let seq = Seq::body(m, lo, hi);
    let mut out = Vec::new();
    for k in 0..seq.len() {
        if seq.in_test(k) {
            continue;
        }
        for (pat, label) in HOT_FORBIDDEN {
            if seq.matches(k, pat) {
                out.push((seq.line(k), *label));
            }
        }
    }
    out
}

/// Nondeterminism fact sites within a body token range: every
/// [`NONDETERMINISTIC_IDENTS`] occurrence outside test code, as
/// `(line, ident, why)`. Shared with the `determinism-taint` rule,
/// which seeds its sources from these in *any* crate.
#[must_use]
pub fn nondet_sites(m: &FileModel, lo: usize, hi: usize) -> Vec<(u32, &'static str, &'static str)> {
    let mut out = Vec::new();
    for i in lo..=hi.min(m.toks.len().saturating_sub(1)) {
        let t = &m.toks[i];
        if m.in_test[i] || t.kind != Kind::Ident {
            continue;
        }
        if let Some((ident, why)) = NONDETERMINISTIC_IDENTS
            .iter()
            .find(|(ident, _)| t.text == *ident)
        {
            out.push((t.line, *ident, *why));
        }
    }
    out
}

/// Panic fact sites within a body token range: `.unwrap()`, and
/// `.expect(…)`/`panic!(…)` whose message is not a string literal of at
/// least `MIN_PANIC_MSG` chars — as `(line, short description)`.
/// Shared with the `panic-reachability` rule.
#[must_use]
pub fn panic_sites(m: &FileModel, lo: usize, hi: usize) -> Vec<(u32, &'static str)> {
    let seq = Seq::body(m, lo, hi);
    let msg_ok = |k: usize| {
        seq.idx.get(k).is_some_and(|&i| m.toks[i].kind == Kind::Str)
            && seq.text(k).is_some_and(|s| s.trim().len() >= MIN_PANIC_MSG)
    };
    let mut out = Vec::new();
    for k in 0..seq.len() {
        if seq.in_test(k) {
            continue;
        }
        if seq.matches(k, &[".", "unwrap", "(", ")"]) {
            out.push((seq.line(k), "`.unwrap()`"));
        }
        if seq.matches(k, &[".", "expect", "("]) && !msg_ok(k + 3) {
            out.push((seq.line(k), "`.expect(…)` without an invariant message"));
        }
        if seq.matches(k, &["panic", "!", "("]) && !msg_ok(k + 3) {
            out.push((seq.line(k), "`panic!` without an invariant message"));
        }
    }
    out
}

/// `hot-path-alloc`: registered hot functions must not allocate via the
/// forbidden constructors.
pub fn hot_path_alloc(m: &FileModel, matched: &mut [bool]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (reg_ix, reg) in HOT_FNS.iter().enumerate() {
        if !m.path.ends_with(reg.file) {
            continue;
        }
        for f in &m.fns {
            if f.is_test || f.name != reg.name {
                continue;
            }
            if let Some(want) = reg.impl_type {
                if f.impl_type.as_deref() != Some(want) {
                    continue;
                }
            }
            matched[reg_ix] = true;
            let Some((lo, hi)) = f.body else { continue };
            for (line, label) in alloc_sites(m, lo, hi) {
                out.push(finding(
                    "hot-path-alloc",
                    &m.path,
                    line,
                    format!(
                        "`{label}` in hot function `{}` ({}): the data path must not allocate",
                        reg.name, reg.why
                    ),
                ));
            }
        }
    }
    out
}

/// `unsafe-pragma`: every first-party crate root carries
/// `#![forbid(unsafe_code)]`.
pub fn unsafe_pragma(m: &FileModel) -> Vec<Finding> {
    if !is_crate_root(&m.path) {
        return Vec::new();
    }
    let code: Vec<&str> = m
        .toks
        .iter()
        .filter(|t| !t.is_comment())
        .map(|t| t.text.as_str())
        .collect();
    let pat = ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
    let found = code
        .windows(pat.len())
        .any(|w| w.iter().zip(pat.iter()).all(|(a, b)| a == b));
    if found {
        Vec::new()
    } else {
        vec![finding(
            "unsafe-pragma",
            &m.path,
            1,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        )]
    }
}

/// Minimum length for a panic/expect message to count as stating an
/// invariant rather than being a placeholder.
const MIN_PANIC_MSG: usize = 10;

/// `panic-policy`: `.unwrap()` / `.expect(…)` / `panic!` in non-test
/// library code must state the invariant they rely on (or carry an
/// annotation).
pub fn panic_policy(m: &FileModel) -> Vec<Finding> {
    let mut out = Vec::new();
    if !is_library_source(&m.path) {
        return out;
    }
    let idx: Vec<usize> = (0..m.toks.len())
        .filter(|&i| !m.toks[i].is_comment())
        .collect();
    let text = |k: usize| idx.get(k).map(|&i| m.toks[i].text.as_str());
    let kind = |k: usize| idx.get(k).map(|&i| m.toks[i].kind);
    for (k, &tok_i) in idx.iter().enumerate() {
        if m.in_test[tok_i] {
            continue;
        }
        let line = m.toks[tok_i].line;
        // `.unwrap()`
        if text(k) == Some(".")
            && text(k + 1) == Some("unwrap")
            && text(k + 2) == Some("(")
            && text(k + 3) == Some(")")
        {
            out.push(finding(
                "panic-policy",
                &m.path,
                line,
                "`.unwrap()` in library code: use `.expect(\"<invariant>\")` or annotate"
                    .to_string(),
            ));
        }
        // `.expect(<msg>)`
        if text(k) == Some(".") && text(k + 1) == Some("expect") && text(k + 2) == Some("(") {
            let ok = kind(k + 3) == Some(Kind::Str)
                && text(k + 3).is_some_and(|s| s.trim().len() >= MIN_PANIC_MSG);
            if !ok {
                out.push(finding(
                    "panic-policy",
                    &m.path,
                    line,
                    format!(
                        "`.expect(…)` message must be a string literal of ≥ {MIN_PANIC_MSG} chars stating the invariant"
                    ),
                ));
            }
        }
        // `panic!(<msg>, …)`
        if kind(k) == Some(Kind::Ident)
            && text(k) == Some("panic")
            && text(k + 1) == Some("!")
            && text(k + 2) == Some("(")
        {
            let ok = kind(k + 3) == Some(Kind::Str)
                && text(k + 3).is_some_and(|s| s.trim().len() >= MIN_PANIC_MSG);
            if !ok {
                out.push(finding(
                    "panic-policy",
                    &m.path,
                    line,
                    format!(
                        "`panic!` in library code needs a string message of ≥ {MIN_PANIC_MSG} chars stating the invariant"
                    ),
                ));
            }
        }
    }
    out
}

/// A citation parsed out of a comment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Citation {
    /// What is being cited.
    pub kind: CiteKind,
    /// The cited number.
    pub num: u32,
    /// Line of the citation.
    pub line: u32,
}

/// Citation target classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CiteKind {
    /// `Eq. n` / `Eqs. n–m`.
    Eq,
    /// `Figure n` / `Fig. n` / `Figs. n/m`.
    Fig,
    /// `Table n` / `Tables n and m`.
    Table,
}

/// Extract paper citations from one comment's text starting at `line`.
pub fn scan_citations(text: &str, start_line: u32) -> Vec<Citation> {
    let mut out = Vec::new();
    for (off, l) in text.split('\n').enumerate() {
        let line = start_line + off as u32;
        let chars: Vec<char> = l.chars().collect();
        for (kw, kind) in [
            ("Eqs.", CiteKind::Eq),
            ("Eq.", CiteKind::Eq),
            ("Figures", CiteKind::Fig),
            ("Figure", CiteKind::Fig),
            ("Figs.", CiteKind::Fig),
            ("Fig.", CiteKind::Fig),
            ("Tables", CiteKind::Table),
            ("Table", CiteKind::Table),
        ] {
            let mut from = 0usize;
            while let Some(pos) = find_word(&chars, kw, from) {
                from = pos + kw.len();
                parse_numbers(&chars, from, kind, line, &mut out);
            }
        }
    }
    out
}

/// Find `kw` in `chars` at or after `from`, demanding a non-alphanumeric
/// character on the left so `Freq.` can never match `Eq.`.
fn find_word(chars: &[char], kw: &str, from: usize) -> Option<usize> {
    let kwc: Vec<char> = kw.chars().collect();
    let mut i = from;
    while i + kwc.len() <= chars.len() {
        if chars[i..i + kwc.len()] == kwc[..] {
            let left_ok = i == 0 || !(chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
            // A bare `Figure`/`Table` keyword must also not continue as a
            // longer word (`Tabled`, `Figurehead`).
            let right = chars.get(i + kwc.len()).copied();
            let right_ok =
                kw.ends_with('.') || !right.is_some_and(|c| c.is_alphanumeric() || c == '_');
            if left_ok && right_ok {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

/// Parse `( n )`, `n`, `n–m`, `n/m`, `n, m`, `n and m` after a keyword.
/// Numbers above 99 in *continuations* are treated as prose ("Figure 9
/// and 300 000 hours"), not citations.
fn parse_numbers(chars: &[char], mut i: usize, kind: CiteKind, line: u32, out: &mut Vec<Citation>) {
    let skip_ws = |i: &mut usize| {
        while chars.get(*i).is_some_and(|c| *c == ' ') {
            *i += 1;
        }
    };
    let read_num = |i: &mut usize| -> Option<u32> {
        let start = *i;
        while chars.get(*i).is_some_and(char::is_ascii_digit) {
            *i += 1;
        }
        if *i == start {
            return None;
        }
        chars[start..*i].iter().collect::<String>().parse().ok()
    };
    skip_ws(&mut i);
    let parenthesized = chars.get(i) == Some(&'(');
    if parenthesized {
        i += 1;
        skip_ws(&mut i);
    }
    let Some(first) = read_num(&mut i) else {
        return;
    };
    out.push(Citation {
        kind,
        num: first,
        line,
    });
    let mut prev = first;
    loop {
        if parenthesized && chars.get(i) == Some(&')') {
            i += 1;
        }
        skip_ws(&mut i);
        let c = chars.get(i).copied();
        let is_range = matches!(c, Some('–' | '—' | '-'));
        let is_list = matches!(c, Some('/' | ','));
        let is_and = chars.get(i..i + 3).is_some_and(|w| w == ['a', 'n', 'd']);
        if is_range || is_list {
            i += 1;
        } else if is_and {
            i += 3;
        } else {
            return;
        }
        skip_ws(&mut i);
        let Some(n) = read_num(&mut i) else { return };
        if n > 99 {
            // Prose like "Figure 9 and 300 000 hours".
            return;
        }
        if is_range && n > prev && n - prev <= 30 {
            for x in prev + 1..=n {
                out.push(Citation { kind, num: x, line });
            }
        } else {
            out.push(Citation { kind, num: n, line });
        }
        prev = n;
    }
}

/// `paper-refs` per-file half: out-of-range citations are findings;
/// all equation citations are returned for workspace-level coverage.
pub fn paper_refs(m: &FileModel) -> (Vec<Finding>, Vec<Citation>) {
    let mut out = Vec::new();
    let mut eqs = Vec::new();
    for t in &m.toks {
        if !t.is_comment() {
            continue;
        }
        for c in scan_citations(&t.text, t.line) {
            let (label, (lo, hi)) = match c.kind {
                CiteKind::Eq => ("Eq.", EQ_RANGE),
                CiteKind::Fig => ("Figure", FIG_RANGE),
                CiteKind::Table => ("Table", TABLE_RANGE),
            };
            if c.num < lo || c.num > hi {
                out.push(finding(
                    "paper-refs",
                    &m.path,
                    c.line,
                    format!(
                        "citation `{label} {}` is outside the paper's range {lo}–{hi}",
                        c.num
                    ),
                ));
            } else if c.kind == CiteKind::Eq {
                eqs.push(c);
            }
        }
    }
    (out, eqs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn citations_parse_singles_ranges_and_lists() {
        let c = scan_citations("// Eqs. 16–19 and Figure 6/7, Table 2 and 3", 5);
        let eqs: Vec<u32> = c
            .iter()
            .filter(|x| x.kind == CiteKind::Eq)
            .map(|x| x.num)
            .collect();
        assert_eq!(eqs, vec![16, 17, 18, 19]);
        let figs: Vec<u32> = c
            .iter()
            .filter(|x| x.kind == CiteKind::Fig)
            .map(|x| x.num)
            .collect();
        assert_eq!(figs, vec![6, 7]);
        let tabs: Vec<u32> = c
            .iter()
            .filter(|x| x.kind == CiteKind::Table)
            .map(|x| x.num)
            .collect();
        assert_eq!(tabs, vec![2, 3]);
    }

    #[test]
    fn citations_ignore_prose_continuations() {
        let c = scan_citations("// Figure 9 and 300 000 hours of uptime", 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].num, 9);
    }

    #[test]
    fn citations_respect_word_boundaries() {
        assert!(scan_citations("// The Freq. 6 sampling", 1).is_empty());
        assert!(scan_citations("// Tabled 4 motions", 1).is_empty());
        assert_eq!(scan_citations("// Eq. (6) parenthesized", 1).len(), 1);
    }

    #[test]
    fn eq_registry_covers_all_19_equations_exactly_once() {
        let mut seen = [false; 20];
        for e in EQ_REGISTRY {
            assert!(
                (1..=19).contains(&e.eq),
                "registry equation {} out of range",
                e.eq
            );
            assert!(!seen[e.eq as usize], "equation {} duplicated", e.eq);
            seen[e.eq as usize] = true;
        }
        assert!(seen[1..=19].iter().all(|&s| s), "all 19 equations mapped");
    }
}
