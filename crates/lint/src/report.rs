//! Findings, coverage, and output formatting (text and JSON).

use std::fmt::Write as _;

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule that produced the finding (or `lint-allow` for annotation
    /// hygiene errors).
    pub rule: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// A finding of `rule` at `file:line`.
    #[must_use]
    pub fn new(rule: &str, file: &str, line: u32, message: String) -> Finding {
        Finding {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            message,
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Coverage status of one registered equation.
#[derive(Debug, Clone)]
pub struct EqCoverage {
    /// Equation number.
    pub eq: u32,
    /// Implementing item from the registry.
    pub item: String,
    /// File the registry maps the equation to.
    pub file: String,
    /// Short description of what the equation computes.
    pub what: String,
    /// Whether the file cites the equation.
    pub cited: bool,
}

/// The outcome of a workspace check.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Paper-equation coverage, one entry per equation 1–19.
    pub coverage: Vec<EqCoverage>,
    /// Number of files scanned.
    pub files_checked: usize,
}

impl Report {
    /// Whether the tree is clean.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of cited equations.
    #[must_use]
    pub fn cited(&self) -> usize {
        self.coverage.iter().filter(|c| c.cited).count()
    }

    /// Render the human-readable report.
    #[must_use]
    pub fn render_text(&self, show_coverage: bool) -> String {
        let mut s = String::new();
        for f in &self.findings {
            let _ = writeln!(s, "{f}");
        }
        if show_coverage && !self.coverage.is_empty() {
            let _ = writeln!(
                s,
                "paper-refs coverage: {}/{} equations cited",
                self.cited(),
                self.coverage.len()
            );
            for c in &self.coverage {
                let mark = if c.cited { "cited" } else { "MISSING" };
                let _ = writeln!(
                    s,
                    "  Eq. {:>2}  {:<28} {:<36} {}",
                    c.eq, c.item, c.file, mark
                );
            }
        }
        let _ = writeln!(
            s,
            "mms-lint: {} file(s) checked, {} finding(s)",
            self.files_checked,
            self.findings.len()
        );
        s
    }

    /// Render the report as JSON (hand-rolled: the linter is
    /// zero-dependency by design).
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut s = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json_str(&f.rule),
                json_str(&f.file),
                f.line,
                json_str(&f.message)
            );
        }
        s.push_str("\n  ],\n  \"coverage\": [");
        for (i, c) in self.coverage.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    {{\"eq\": {}, \"item\": {}, \"file\": {}, \"cited\": {}}}",
                c.eq,
                json_str(&c.item),
                json_str(&c.file),
                c.cited
            );
        }
        let _ = write!(
            s,
            "\n  ],\n  \"files_checked\": {},\n  \"ok\": {}\n}}\n",
            self.files_checked,
            self.ok()
        );
        s
    }
}

/// Minimal JSON string escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_quotes_and_newlines() {
        assert_eq!(json_str("a\"b\nc"), "\"a\\\"b\\nc\"");
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let mut r = Report::default();
        r.findings.push(Finding {
            rule: "determinism".into(),
            file: "crates/sim/src/lib.rs".into(),
            line: 3,
            message: "`Instant` seen".into(),
        });
        r.files_checked = 1;
        let j = r.render_json();
        assert!(j.contains("\"rule\": \"determinism\""));
        assert!(j.contains("\"ok\": false"));
    }
}
