//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Kept in memory and written when the run ends, so recording costs two
//! clock reads and one `Vec` push per span. Spans of one scheme (or one
//! fleet) share a `scope`, the identifier that ties them together.

use crate::json::{obj, Json};
use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The call timed, as `layer.call` (`sim.step`, `session.tick`, …).
    pub name: &'static str,
    /// The scheme (`sr`…`ib`) or `fleet` the call belongs to.
    pub scope: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Simulated cycle at which the call was made.
    pub cycle: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Sum, count and maximum of the spans matched by a query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub ns: u64,
    pub calls: u64,
    pub max_ns: u64,
}

impl Totals {
    /// Mean nanoseconds per call (0 when nothing matched).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that encloses later ones; close it with [`close`](Self::close).
    pub fn open(
        &mut self,
        name: &'static str,
        scope: &'static str,
        parent: Option<SpanId>,
    ) -> SpanId {
        let now = self.now();
        self.record(name, scope, parent, 0, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now();
    }

    /// Record a finished span. Callers that time back-to-back calls pass
    /// one call's end as the next one's start, halving the clock reads.
    pub fn record(
        &mut self,
        name: &'static str,
        scope: &'static str,
        parent: Option<SpanId>,
        cycle: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            scope,
            parent,
            cycle,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn duration_ns(&self, id: SpanId) -> u64 {
        self.spans[id as usize].duration_ns()
    }

    /// Totals over spans named `name`, in `scope` if given, made at a
    /// cycle below `before_cycle` if given.
    pub fn totals(&self, name: &str, scope: Option<&str>, before_cycle: Option<u64>) -> Totals {
        let mut t = Totals::default();
        for s in &self.spans {
            if s.name == name
                && scope.is_none_or(|sc| s.scope == sc)
                && before_cycle.is_none_or(|c| s.cycle < c)
            {
                let d = s.duration_ns();
                t.ns += d;
                t.calls += 1;
                t.max_ns = t.max_ns.max(d);
            }
        }
        t
    }

    /// A span's self time: its duration minus the part of that interval
    /// its direct children cover (overlapping children count once).
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let parent = &self.spans[id as usize];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| {
                (
                    s.start_ns.clamp(parent.start_ns, parent.end_ns),
                    s.end_ns.clamp(parent.start_ns, parent.end_ns),
                )
            })
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = parent.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        parent.duration_ns() - covered
    }

    /// Write one JSON object per span, one per line.
    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let line = obj([
                ("id", Json::Num(id as f64)),
                ("workload", Json::Str(workload.into())),
                ("scope", Json::Str(s.scope.into())),
                ("name", Json::Str(s.name.into())),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("cycle", Json::Num(s.cycle as f64)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.compact())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&'static str, Option<SpanId>, u64, u64)]) -> Tracer {
        let mut t = Tracer::new();
        for &(name, parent, start, end) in spans {
            t.record(name, "sr", parent, start / 10, start, end);
        }
        t
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let t = tracer_with(&[
            ("run", None, 0, 100),
            ("tick", Some(0), 10, 30),
            ("step", Some(0), 30, 70),
            ("plan", Some(2), 35, 60), // grandchild: not subtracted from `run`
        ]);
        assert_eq!(t.self_ns(0), 100 - 20 - 40);
        assert_eq!(t.self_ns(2), 40 - 25);
        assert_eq!(t.self_ns(1), 20, "a leaf's self time is its duration");
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let t = tracer_with(&[
            ("run", None, 100, 200),
            ("a", Some(0), 110, 150),
            ("b", Some(0), 140, 160), // overlaps `a` by 10
            ("c", Some(0), 190, 250), // overhangs the parent's end by 50
            ("d", Some(0), 120, 130), // inside `a`
        ]);
        assert_eq!(t.self_ns(0), 100 - (50 + 10));
    }

    #[test]
    fn totals_filter_by_name_scope_and_cycle_window() {
        let mut t = tracer_with(&[
            ("step", None, 0, 10),
            ("step", None, 50, 80),
            ("tick", None, 10, 12),
        ]);
        t.record("step", "ib", None, 0, 0, 7);
        let all = t.totals("step", None, None);
        assert_eq!((all.ns, all.calls, all.max_ns), (47, 3, 30));
        assert_eq!(t.totals("step", Some("sr"), None).calls, 2);
        assert_eq!(t.totals("step", Some("sr"), Some(5)).ns, 10, "cycle 0 only");
        assert_eq!(t.totals("nothing", None, None).ns_per_call(), 0.0);
        assert_eq!(all.ns_per_call(), 47.0 / 3.0);
    }

    #[test]
    fn spans_serialise_one_object_per_line() {
        let t = tracer_with(&[("run", None, 0, 9), ("step", Some(0), 1, 5)]);
        let mut out = Vec::new();
        t.write_jsonl("vod-churn", &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            second.get("workload").and_then(Json::as_str),
            Some("vod-churn")
        );
        assert_eq!(
            Json::parse(lines[0]).unwrap().get("parent"),
            Some(&Json::Null)
        );
    }
}
