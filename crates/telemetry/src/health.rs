//! The health model: a streaming SLO tracker over the event stream.
//!
//! The paper's reliability argument is about exposure windows: while a
//! cluster runs degraded, a second failure in the wrong place loses
//! data (the MTTDS analysis of Eq. 6). [`HealthModel`] watches the
//! event stream a simulation already emits — `cycle` spans, `hiccup`
//! events, `mode_transition` events, and `Error`-level records — and
//! maintains two live signals:
//!
//! * **stall-budget burn** — hiccups per kilocycle against a budget,
//!   with a first-crossing alert cycle;
//! * **degraded exposure** — cumulative cluster-cycles (and seconds, at
//!   `T_cyc` seconds per cycle) spent in a non-normal mode: the live
//!   integrand of the paper's data-loss exposure.
//!
//! [`observe`](HealthModel::observe) is allocation-free per event so the
//! model can ride on the hot path; the degraded-cycle accounting matches
//! `mms_server::scenario::degraded_cycles` exactly (keep-first on repeated
//! non-normal transitions, close on return to `normal`).

use crate::event::{EventKind, EventRecord, Value};
use crate::registry::{LabelValue, Labels, Registry};
use crate::Level;
use std::fmt::Write as _;

/// Tunables for the health model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Seconds per service cycle (`T_cyc`), converting cycles to
    /// wall-clock exposure. The default of 1.0 makes exposure seconds
    /// numerically equal to degraded cluster-cycles.
    pub t_cyc_secs: f64,
    /// Allowed hiccups per 1000 cycles before the stall alert fires.
    pub hiccups_per_kcycle: f64,
    /// Burn-rate multiple of the budget that fires the stall alert
    /// (1.0 = alert exactly at budget).
    pub burn_alert: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            t_cyc_secs: 1.0,
            hiccups_per_kcycle: 1.0,
            burn_alert: 1.0,
        }
    }
}

/// Streaming per-scheme SLO tracker. Feed it the event stream (in
/// order) with [`observe`](HealthModel::observe), close open intervals
/// with [`finish`](HealthModel::finish), then read the signals or
/// [`publish_to`](HealthModel::publish_to) them as `health.*` gauges.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthModel {
    config: HealthConfig,
    /// Latest cycle seen (from `cycle` spans or event `cycle` fields).
    cycle: u64,
    hiccups: u64,
    data_loss_events: u64,
    /// Degraded cluster-cycles from intervals already closed.
    closed_degraded: u64,
    /// `(scheme_key, cluster, start_cycle)` for clusters currently
    /// degraded. The scheme key distinguishes same-numbered clusters
    /// when one stream carries several schemes' events (a corpus
    /// fan-out); single-scheme streams collapse to one key.
    open_since: Vec<(u64, u64, u64)>,
    stall_alert_at: Option<u64>,
    loss_alert_at: Option<u64>,
}

impl HealthModel {
    /// A model with the given configuration.
    #[must_use]
    pub fn new(config: HealthConfig) -> Self {
        HealthModel {
            config,
            cycle: 0,
            hiccups: 0,
            data_loss_events: 0,
            closed_degraded: 0,
            open_since: Vec::with_capacity(64),
            stall_alert_at: None,
            loss_alert_at: None,
        }
    }

    /// Feed one event. Allocation-free; events the model does not watch
    /// cost two comparisons.
    pub fn observe(&mut self, event: &EventRecord) {
        if event.kind == EventKind::SpanOpen && event.name == "cycle" {
            if let Some(Value::U64(c)) = event.field("cycle") {
                self.cycle = (*c).max(self.cycle);
            }
            return;
        }
        if event.kind != EventKind::Event {
            return;
        }
        if let Some(c) = event_cycle(event) {
            self.cycle = c.max(self.cycle);
        }
        if event.level == Level::Error {
            self.data_loss_events += 1;
            if self.loss_alert_at.is_none() {
                self.loss_alert_at = Some(self.cycle);
            }
            return;
        }
        match event.name {
            "hiccup" => {
                self.hiccups += 1;
                if self.stall_alert_at.is_none() && self.burn_rate() >= self.config.burn_alert {
                    self.stall_alert_at = Some(self.cycle);
                }
            }
            "mode_transition" => {
                let cluster = match event.field("cluster") {
                    Some(Value::U64(c)) => *c,
                    Some(Value::I64(c)) => *c as u64,
                    _ => return,
                };
                let scheme = match event.field("scheme") {
                    Some(Value::Str(s)) => fnv1a(s.as_bytes()),
                    _ => 0,
                };
                let cycle = event_cycle(event).unwrap_or(self.cycle);
                let to_normal = matches!(event.field("to"), Some(Value::Str(s)) if s == "normal");
                let open = self
                    .open_since
                    .iter()
                    .position(|&(s, c, _)| s == scheme && c == cluster);
                if to_normal {
                    if let Some(ix) = open {
                        let (_, _, start) = self.open_since.swap_remove(ix);
                        self.closed_degraded += cycle.saturating_sub(start);
                    }
                } else if open.is_none() {
                    // Keep-first: a deeper transition while already
                    // degraded does not restart the interval.
                    self.open_since.push((scheme, cluster, cycle));
                }
            }
            _ => {}
        }
    }

    /// Close every open degraded interval at `end_cycle` (intervals
    /// still open when the run stops count up to its end, exactly like
    /// the scenario report's accounting).
    pub fn finish(&mut self, end_cycle: u64) {
        self.cycle = end_cycle.max(self.cycle);
        while let Some((_, _, start)) = self.open_since.pop() {
            self.closed_degraded += end_cycle.saturating_sub(start);
        }
    }

    /// Latest cycle observed.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Hiccups observed so far.
    #[must_use]
    pub fn hiccups(&self) -> u64 {
        self.hiccups
    }

    /// `Error`-level records observed (data loss, check violations).
    #[must_use]
    pub fn data_loss_events(&self) -> u64 {
        self.data_loss_events
    }

    /// Cumulative degraded cluster-cycles: closed intervals plus any
    /// still-open interval counted up to the current cycle.
    #[must_use]
    pub fn degraded_cycles(&self) -> u64 {
        let open: u64 = self
            .open_since
            .iter()
            .map(|&(_, _, start)| self.cycle.saturating_sub(start))
            .sum();
        self.closed_degraded + open
    }

    /// Degraded exposure in seconds: degraded cluster-cycles scaled by
    /// `T_cyc`.
    #[must_use]
    pub fn degraded_exposure_secs(&self) -> f64 {
        self.degraded_cycles() as f64 * self.config.t_cyc_secs
    }

    /// Clusters currently degraded.
    #[must_use]
    pub fn degraded_clusters(&self) -> usize {
        self.open_since.len()
    }

    /// Observed stall rate in hiccups per kilocycle.
    #[must_use]
    pub fn stall_rate_per_kcycle(&self) -> f64 {
        let cycles = self.cycle.max(1);
        self.hiccups as f64 * 1000.0 / cycles as f64
    }

    /// Stall-budget burn rate: observed rate over budget (1.0 = exactly
    /// on budget).
    #[must_use]
    pub fn burn_rate(&self) -> f64 {
        if self.config.hiccups_per_kcycle <= 0.0 {
            return if self.hiccups == 0 {
                0.0
            } else {
                f64::INFINITY
            };
        }
        self.stall_rate_per_kcycle() / self.config.hiccups_per_kcycle
    }

    /// Cycle at which the stall burn first crossed the alert threshold.
    #[must_use]
    pub fn stall_alert_cycle(&self) -> Option<u64> {
        self.stall_alert_at
    }

    /// Cycle of the first `Error`-level record.
    #[must_use]
    pub fn data_loss_cycle(&self) -> Option<u64> {
        self.loss_alert_at
    }

    /// Write the `health.*` gauges for `scheme` into `registry`.
    pub fn publish_to(&self, registry: &mut Registry, scheme: &str) {
        let labels = || Labels::new(vec![("scheme", LabelValue::Str(scheme.to_string().into()))]);
        registry.gauge_set("health.hiccups", labels(), self.hiccups as f64);
        registry.gauge_set("health.stall_burn_rate", labels(), self.burn_rate());
        registry.gauge_set(
            "health.degraded_cycles",
            labels(),
            self.degraded_cycles() as f64,
        );
        registry.gauge_set(
            "health.degraded_exposure_secs",
            labels(),
            self.degraded_exposure_secs(),
        );
        registry.gauge_set(
            "health.data_loss_events",
            labels(),
            self.data_loss_events as f64,
        );
    }

    /// Synthesized alert events for thresholds crossed during the run,
    /// ready to append to an event stream (JSONL export or flight
    /// recorder).
    #[must_use]
    pub fn alert_records(&self) -> Vec<EventRecord> {
        let mut out = Vec::new();
        if let Some(cycle) = self.stall_alert_at {
            out.push(EventRecord {
                level: Level::Warn,
                target: module_path!(),
                name: "health_alert",
                kind: EventKind::Event,
                fields: vec![
                    ("kind", Value::from("stall_budget_burn")),
                    ("cycle", Value::U64(cycle)),
                    ("burn", Value::F64(self.burn_rate())),
                ],
            });
        }
        if let Some(cycle) = self.loss_alert_at {
            out.push(EventRecord {
                level: Level::Warn,
                target: module_path!(),
                name: "health_alert",
                kind: EventKind::Event,
                fields: vec![
                    ("kind", Value::from("data_loss")),
                    ("cycle", Value::U64(cycle)),
                    ("events", Value::U64(self.data_loss_events)),
                ],
            });
        }
        out
    }

    /// An ASCII dashboard panel summarizing the signals.
    #[must_use]
    pub fn panel(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "health");
        let _ = writeln!(out, "{}", "-".repeat(40));
        let _ = writeln!(out, "cycles observed       {:>12}", self.cycle);
        let _ = writeln!(
            out,
            "hiccups               {:>12}  ({:.3}/kcycle, burn {:.2}x)",
            self.hiccups,
            self.stall_rate_per_kcycle(),
            self.burn_rate()
        );
        let _ = writeln!(
            out,
            "degraded exposure     {:>12}  cluster-cycles ({:.1} s)",
            self.degraded_cycles(),
            self.degraded_exposure_secs()
        );
        match self.stall_alert_at {
            Some(c) => {
                let _ = writeln!(out, "stall alert           {c:>12}  (first crossing)");
            }
            None => {
                let _ = writeln!(out, "stall alert           {:>12}", "none");
            }
        }
        match self.loss_alert_at {
            Some(c) => {
                let _ = writeln!(
                    out,
                    "data loss             {c:>12}  ({} error record(s))",
                    self.data_loss_events
                );
            }
            None => {
                let _ = writeln!(out, "data loss             {:>12}", "none");
            }
        }
        out
    }
}

impl Default for HealthModel {
    fn default() -> Self {
        HealthModel::new(HealthConfig::default())
    }
}

/// FNV-1a over the scheme label: a deterministic, allocation-free key
/// for telling schemes apart in the open-interval table.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// An event's `cycle` field, accepting both integer encodings.
fn event_cycle(event: &EventRecord) -> Option<u64> {
    match event.field("cycle") {
        Some(Value::U64(c)) => Some(*c),
        Some(Value::I64(c)) => Some(*c as u64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, fields: Vec<(&'static str, Value)>) -> EventRecord {
        EventRecord {
            level: Level::Info,
            target: "test",
            name,
            kind: EventKind::Event,
            fields,
        }
    }

    fn transition(cycle: u64, cluster: u64, to: &'static str) -> EventRecord {
        ev(
            "mode_transition",
            vec![
                ("cycle", Value::U64(cycle)),
                ("cluster", Value::U64(cluster)),
                ("from", Value::from("normal")),
                ("to", Value::from(to)),
            ],
        )
    }

    #[test]
    fn degraded_intervals_close_on_normal() {
        let mut h = HealthModel::default();
        h.observe(&transition(10, 0, "degraded"));
        h.observe(&transition(12, 1, "degraded"));
        // Keep-first: deeper transition does not restart cluster 0.
        h.observe(&transition(14, 0, "rebuild"));
        h.observe(&transition(20, 0, "normal"));
        assert_eq!(h.degraded_clusters(), 1);
        h.finish(30);
        // Cluster 0: 20 - 10 = 10; cluster 1 open: 30 - 12 = 18.
        assert_eq!(h.degraded_cycles(), 28);
        assert_eq!(h.degraded_exposure_secs(), 28.0);
    }

    #[test]
    fn stall_burn_crosses_once() {
        let mut h = HealthModel::new(HealthConfig {
            t_cyc_secs: 1.0,
            hiccups_per_kcycle: 100.0,
            burn_alert: 1.0,
        });
        let mut hic = ev("hiccup", vec![("cycle", Value::U64(0))]);
        hic.level = Level::Warn;
        // 100/kcycle budget at cycle 50 means 5 hiccups cross it.
        for cycle in [10u64, 20, 30, 40, 50] {
            let mut e = hic.clone();
            e.fields[0].1 = Value::U64(cycle);
            h.observe(&e);
        }
        assert_eq!(h.hiccups(), 5);
        assert!(h.burn_rate() >= 1.0);
        assert_eq!(h.stall_alert_cycle(), Some(10), "first crossing is kept");
        assert_eq!(h.alert_records().len(), 1);
    }

    #[test]
    fn error_records_count_as_data_loss() {
        let mut h = HealthModel::default();
        let mut e = ev("data_loss", vec![("cycle", Value::U64(7))]);
        e.level = Level::Error;
        h.observe(&e);
        assert_eq!(h.data_loss_events(), 1);
        assert_eq!(h.data_loss_cycle(), Some(7));
        let alerts = h.alert_records();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].name, "health_alert");
    }

    #[test]
    fn publish_writes_health_gauges() {
        let mut h = HealthModel::default();
        h.observe(&transition(5, 0, "degraded"));
        h.finish(15);
        let mut reg = Registry::new();
        h.publish_to(&mut reg, "NC");
        let labels = Labels::new(vec![("scheme", LabelValue::Str("NC".to_string().into()))]);
        assert_eq!(reg.gauge("health.degraded_cycles", &labels), Some(10.0));
        assert_eq!(
            reg.gauge("health.degraded_exposure_secs", &labels),
            Some(10.0)
        );
    }

    #[test]
    fn panel_renders_every_signal() {
        let mut h = HealthModel::default();
        h.observe(&transition(5, 0, "degraded"));
        h.finish(15);
        let text = h.panel();
        assert!(text.contains("health"), "{text}");
        assert!(text.contains("degraded exposure"), "{text}");
        assert!(text.contains("10"), "{text}");
    }
}
