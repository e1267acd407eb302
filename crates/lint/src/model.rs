//! Structural model of one source file: function boundaries (with the
//! enclosing `impl` type), `#[cfg(test)]` / `mod tests` regions, and
//! `// lint:allow(…)` annotations.

use crate::scan::{scan, Kind, Tok};
use std::cell::Cell;

/// A function found in the file.
#[derive(Debug)]
pub struct FnSpan {
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` type, when the function is a method.
    pub impl_type: Option<String>,
    /// Token-index range of the body, inclusive of both braces. `None`
    /// for bodyless declarations (trait methods).
    pub body: Option<(usize, usize)>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Whether the function lives in test-only code.
    pub is_test: bool,
    /// Whether the function carries a `pub` qualifier (any visibility
    /// restriction — `pub(crate)`, `pub(super)` — still counts: the
    /// item is an entry point beyond its own module).
    pub is_pub: bool,
}

/// One `// lint:allow(<rules>): <reason>` annotation.
#[derive(Debug)]
pub struct Allow {
    /// Rules this annotation suppresses.
    pub rules: Vec<String>,
    /// Whether a non-empty reason followed the rule list.
    pub has_reason: bool,
    /// Line the annotation is written on.
    pub line: u32,
    /// Line whose findings it suppresses (its own line when trailing a
    /// statement, otherwise the next line carrying code).
    pub target_line: u32,
    /// Set when the annotation suppressed at least one finding.
    pub used: Cell<bool>,
}

/// A fully scanned and structurally annotated source file.
pub struct FileModel {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Token stream (comments included).
    pub toks: Vec<Tok>,
    /// Per-token flag: true inside `#[cfg(test)]` items or `mod tests`.
    pub in_test: Vec<bool>,
    /// Functions found in the file.
    pub fns: Vec<FnSpan>,
    /// `lint:allow` annotations found in comments.
    pub allows: Vec<Allow>,
}

impl FileModel {
    /// Scan and model `src`, which lives at workspace-relative `path`.
    #[must_use]
    pub fn build(path: &str, src: &str) -> FileModel {
        let toks = scan(src);
        let in_test = mark_test_regions(&toks);
        let fns = find_fns(&toks, &in_test);
        let allows = find_allows(&toks);
        FileModel {
            path: path.replace('\\', "/"),
            toks,
            in_test,
            fns,
            allows,
        }
    }

    /// Whether any non-comment token on `line` is inside test code.
    /// Lines with no code tokens report false.
    #[must_use]
    pub fn line_in_test(&self, line: u32) -> bool {
        self.toks
            .iter()
            .zip(&self.in_test)
            .any(|(t, &it)| t.line == line && !t.is_comment() && it)
    }

    /// Whether an allow with a reason names `rule` and targets `line`.
    /// With `mark`, every such allow is marked used.
    pub fn allowed(&self, rule: &str, line: u32, mark: bool) -> bool {
        let mut any = false;
        for a in &self.allows {
            if a.has_reason && a.target_line == line && a.rules.iter().any(|r| r == rule) {
                a.used.set(a.used.get() || mark);
                any = true;
            }
        }
        any
    }
}

/// Indices of non-comment tokens.
fn code_indices(toks: &[Tok]) -> Vec<usize> {
    (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect()
}

fn is_punct(t: &Tok, c: &str) -> bool {
    t.kind == Kind::Punct && t.text == c
}

fn is_ident(t: &Tok, s: &str) -> bool {
    t.kind == Kind::Ident && t.text == s
}

/// Walk an attribute starting at `code[k]` (which is `#`). Returns
/// (index in `code` one past the closing `]`, idents seen inside,
/// whether it was an inner `#![…]` attribute).
fn parse_attr(toks: &[Tok], code: &[usize], k: usize) -> (usize, Vec<String>, bool) {
    let mut j = k + 1;
    let mut inner = false;
    if j < code.len() && is_punct(&toks[code[j]], "!") {
        inner = true;
        j += 1;
    }
    let mut idents = Vec::new();
    if j >= code.len() || !is_punct(&toks[code[j]], "[") {
        return (k + 1, idents, inner);
    }
    let mut depth = 0usize;
    while j < code.len() {
        let t = &toks[code[j]];
        if is_punct(t, "[") {
            depth += 1;
        } else if is_punct(t, "]") {
            depth -= 1;
            if depth == 0 {
                return (j + 1, idents, inner);
            }
        } else if t.kind == Kind::Ident {
            idents.push(t.text.clone());
        }
        j += 1;
    }
    (j, idents, inner)
}

/// From `code[k]` (the first token of an item header), find the index
/// in `code` one past the item: past the matching `}` of its first
/// brace block, or past a `;` that arrives first.
fn skip_item(toks: &[Tok], code: &[usize], k: usize) -> (usize, Option<(usize, usize)>) {
    let mut j = k;
    while j < code.len() {
        let t = &toks[code[j]];
        if is_punct(t, ";") {
            return (j + 1, None);
        }
        if is_punct(t, "{") {
            let close = match_brace(toks, code, j);
            return (close + 1, Some((code[j], code[close.min(code.len() - 1)])));
        }
        j += 1;
    }
    (j, None)
}

/// Index in `code` of the `}` matching the `{` at `code[open]`.
fn match_brace(toks: &[Tok], code: &[usize], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < code.len() {
        let t = &toks[code[j]];
        if is_punct(t, "{") {
            depth += 1;
        } else if is_punct(t, "}") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    code.len() - 1
}

/// Mark every token inside `#[cfg(test)]` items, `#[test]` functions,
/// and `mod tests` blocks.
fn mark_test_regions(toks: &[Tok]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let code = code_indices(toks);
    let mut k = 0usize;
    let mut pending_test = false;
    while k < code.len() {
        let t = &toks[code[k]];
        if is_punct(t, "#") {
            let (next, idents, inner) = parse_attr(toks, &code, k);
            if !inner {
                let has_test = idents.iter().any(|s| s == "test");
                // `cfg(not(test))` guards *production* code.
                let negated = idents.iter().any(|s| s == "not");
                if has_test && !negated {
                    pending_test = true;
                }
            }
            k = next;
            continue;
        }
        let mod_tests = is_ident(t, "mod")
            && code
                .get(k + 1)
                .is_some_and(|&i| is_ident(&toks[i], "tests"));
        if pending_test || mod_tests {
            let (next, span) = skip_item(toks, &code, k);
            let lo = code[k];
            let hi = span.map_or_else(|| code[next.min(code.len() - 1)], |(_, h)| h);
            for flag in in_test.iter_mut().take(hi + 1).skip(lo) {
                *flag = true;
            }
            pending_test = false;
            k = next;
            continue;
        }
        k += 1;
    }
    in_test
}

/// Skip a generic parameter list starting at `code[j]` (which is `<`),
/// tolerating `->` arrows inside `Fn() -> T` bounds.
fn skip_generics(toks: &[Tok], code: &[usize], j: usize) -> usize {
    let mut depth = 0usize;
    let mut k = j;
    while k < code.len() {
        let t = &toks[code[k]];
        if is_punct(t, "<") {
            depth += 1;
        } else if is_punct(t, "-") && code.get(k + 1).is_some_and(|&i| is_punct(&toks[i], ">")) {
            k += 2; // `->` inside a bound: the `>` is not a closer
            continue;
        } else if is_punct(t, ">") {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    k
}

/// Find every `fn`, its body extent, and its enclosing impl type.
fn find_fns(toks: &[Tok], in_test: &[bool]) -> Vec<FnSpan> {
    let code = code_indices(toks);
    let mut fns = Vec::new();
    let mut impl_stack: Vec<(usize, String)> = Vec::new(); // (brace depth, type)
    let mut pending_impl: Option<String> = None;
    let mut depth = 0usize;
    let mut k = 0usize;
    while k < code.len() {
        let t = &toks[code[k]];
        if is_punct(t, "{") {
            depth += 1;
            if let Some(ty) = pending_impl.take() {
                impl_stack.push((depth, ty));
            }
            k += 1;
            continue;
        }
        if is_punct(t, "}") {
            if impl_stack.last().is_some_and(|&(d, _)| d == depth) {
                impl_stack.pop();
            }
            depth = depth.saturating_sub(1);
            k += 1;
            continue;
        }
        if is_ident(t, "impl") {
            // Header: `impl <generics>? Path (for Path)? … {`
            let mut j = k + 1;
            if code.get(j).is_some_and(|&i| is_punct(&toks[i], "<")) {
                j = skip_generics(toks, &code, j);
            }
            let mut last_ident: Option<String> = None;
            let mut after_for: Option<String> = None;
            let mut saw_for = false;
            while j < code.len() {
                let tj = &toks[code[j]];
                if is_punct(tj, "{") || is_punct(tj, ";") {
                    break;
                }
                if is_ident(tj, "for") {
                    saw_for = true;
                } else if is_ident(tj, "where") {
                    break;
                } else if tj.kind == Kind::Ident {
                    // Keep only the final segment of a `path::To::Type`.
                    let mid_path = code.get(j + 1).is_some_and(|&i| is_punct(&toks[i], ":"));
                    if !mid_path {
                        if saw_for {
                            after_for = Some(tj.text.clone());
                        } else {
                            last_ident = Some(tj.text.clone());
                        }
                    }
                } else if is_punct(tj, "<") {
                    j = skip_generics(toks, &code, j);
                    continue;
                }
                j += 1;
            }
            pending_impl = after_for.or(last_ident);
            k = j;
            continue;
        }
        if is_ident(t, "fn") {
            let name = code
                .get(k + 1)
                .map(|&i| toks[i].text.clone())
                .unwrap_or_default();
            let line = t.line;
            let is_test = in_test[code[k]];
            // Look back over the qualifier run (`pub (crate) const async
            // unsafe extern "C"`) for a `pub`; stop at tokens that end
            // the previous item.
            let mut is_pub = false;
            let mut back = k;
            while back > 0 {
                back -= 1;
                let tb = &toks[code[back]];
                if is_ident(tb, "pub") {
                    is_pub = true;
                    break;
                }
                let qualifier = matches!(tb.kind, Kind::Ident | Kind::Str)
                    || is_punct(tb, "(")
                    || is_punct(tb, ")");
                if !qualifier || k - back > 6 {
                    break;
                }
            }
            // Find the body `{` (or `;` for bodyless declarations),
            // skipping generic lists so `>` closers can't confuse us.
            let mut j = k + 2;
            let mut body = None;
            while j < code.len() {
                let tj = &toks[code[j]];
                if is_punct(tj, "<") {
                    j = skip_generics(toks, &code, j);
                    continue;
                }
                if is_punct(tj, ";") {
                    break;
                }
                if is_punct(tj, "{") {
                    let close = match_brace(toks, &code, j);
                    body = Some((code[j], code[close]));
                    break;
                }
                j += 1;
            }
            fns.push(FnSpan {
                name,
                impl_type: impl_stack.last().map(|(_, ty)| ty.clone()),
                body,
                line,
                is_test,
                is_pub,
            });
            // Continue *into* the body so nested items keep depth honest.
            k += 1;
            continue;
        }
        k += 1;
    }
    fns
}

/// Parse `lint:allow` annotations out of line comments.
fn find_allows(toks: &[Tok]) -> Vec<Allow> {
    // Lines that carry at least one code token, for target resolution.
    let mut code_lines: Vec<u32> = toks
        .iter()
        .filter(|t| !t.is_comment())
        .map(|t| t.line)
        .collect();
    code_lines.sort_unstable();
    code_lines.dedup();

    let mut allows = Vec::new();
    for t in toks {
        if t.kind != Kind::LineComment {
            continue;
        }
        // Doc comments (`///`, `//!`) are prose — a `lint:allow` there
        // is documentation about the grammar, not an annotation.
        if t.text.starts_with("///") || t.text.starts_with("//!") {
            continue;
        }
        let Some(at) = t.text.find("lint:allow") else {
            continue;
        };
        let rest = &t.text[at + "lint:allow".len()..];
        let mut rules = Vec::new();
        let mut has_reason = false;
        if let Some(open) = rest.find('(') {
            if let Some(close) = rest[open..].find(')') {
                let list = &rest[open + 1..open + close];
                for r in list.split(',') {
                    let r = r.trim();
                    if !r.is_empty() {
                        rules.push(r.to_string());
                    }
                }
                let after = rest[open + close + 1..].trim_start();
                if let Some(reason) = after.strip_prefix(':') {
                    has_reason = !reason.trim().is_empty();
                }
            }
        }
        let target_line = if code_lines.binary_search(&t.line).is_ok() {
            t.line
        } else {
            code_lines
                .iter()
                .copied()
                .find(|&l| l > t.line)
                .unwrap_or(t.line)
        };
        allows.push(Allow {
            rules,
            has_reason,
            line: t.line,
            target_line,
            used: Cell::new(false),
        });
    }
    allows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fns_and_impls_are_qualified() {
        let m = FileModel::build(
            "x.rs",
            "impl Simulator { pub fn step(&mut self) -> u32 { 1 } }\n\
             impl Scheme for NonClustered { fn plan_cycle_into(&mut self) {} }\n\
             fn free_standing() {}\n",
        );
        let names: Vec<(Option<&str>, &str)> = m
            .fns
            .iter()
            .map(|f| (f.impl_type.as_deref(), f.name.as_str()))
            .collect();
        assert!(names.contains(&(Some("Simulator"), "step")));
        assert!(names.contains(&(Some("NonClustered"), "plan_cycle_into")));
        assert!(names.contains(&(None, "free_standing")));
    }

    #[test]
    fn cfg_test_and_mod_tests_are_marked() {
        let m = FileModel::build(
            "x.rs",
            "fn prod() { body(); }\n\
             #[cfg(test)]\nmod tests {\n    fn helper() { inner(); }\n}\n",
        );
        assert!(!m.line_in_test(1));
        assert!(m.line_in_test(4));
        let helper = m
            .fns
            .iter()
            .find(|f| f.name == "helper")
            .expect("helper fn is modeled");
        assert!(helper.is_test);
    }

    #[test]
    fn cfg_not_test_is_production() {
        let m = FileModel::build("x.rs", "#[cfg(not(test))]\nfn prod() { body(); }\n");
        assert!(!m.line_in_test(2));
    }

    #[test]
    fn allow_targets_same_or_next_code_line() {
        let m = FileModel::build(
            "x.rs",
            "// lint:allow(determinism): pool diagnostics are trace-only\n\
             let t = now();\n\
             let u = later(); // lint:allow(panic-policy): checked above\n",
        );
        assert_eq!(m.allows.len(), 2);
        assert_eq!(m.allows[0].target_line, 2);
        assert!(m.allows[0].has_reason);
        assert_eq!(m.allows[1].target_line, 3);
    }

    #[test]
    fn allow_without_reason_is_flagged() {
        let m = FileModel::build("x.rs", "// lint:allow(determinism)\nlet t = now();\n");
        assert!(!m.allows[0].has_reason);
    }
}
