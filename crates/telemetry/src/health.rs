//! The health panel: a run's SLO signals, read off its record.
//!
//! The paper's reliability argument rests on two numbers: the tracks
//! lost to hiccups, and the time clusters run out of normal mode — the
//! exposure window in which a second failure in the wrong place loses
//! data (the MTTDS analysis of Eq. 6). Both are in the record already:
//! the simulator's `Metrics` publishes them as the `sim.hiccups` and
//! `sim.degraded_cluster_cycles` counters. A [`HealthModel`] is a view
//! of a run's registry and event list:
//!
//! * **cycles** — Σ `sim.cycles`;
//! * **stall-budget burn** — Σ `sim.hiccups` (every cause, dropped
//!   streams included) per kilocycle, against a budget of one hiccup
//!   per 1,000 cycles;
//! * **degraded exposure** — Σ `sim.degraded_cluster_cycles`;
//! * **data loss** — the `Error`-level records (data loss, check
//!   violations).
//!
//! Nothing is recounted from events that a collection level could
//! filter out, so the panel reads the same at any `--log-level`, in
//! either step mode and at any thread count.

use crate::event::EventRecord;
use crate::registry::{LabelValue, Labels, Registry};
use crate::Level;
use std::fmt::Write as _;

/// The stall budget: hiccups allowed per 1000 cycles.
const STALL_BUDGET_PER_KCYCLE: f64 = 1.0;

/// The burn rate (observed stall rate over budget) at which the budget
/// counts as exceeded.
const BURN_ALERT: f64 = 1.0;

/// A run's SLO signals. Build it from the run's registry and events
/// with [`new`](HealthModel::new), then read the signals, render the
/// [`panel`](HealthModel::panel), or [`publish_to`](HealthModel::publish_to)
/// a registry as `health.*` gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthModel {
    /// Cycles simulated.
    pub cycles: u64,
    /// Tracks lost to hiccups, of every cause.
    pub hiccups: u64,
    /// Cluster-cycles spent out of normal mode.
    pub degraded_cycles: u64,
    /// `Error`-level records (data loss, check violations).
    pub data_loss_events: u64,
}

impl HealthModel {
    /// The signals of a run that recorded `registry` and `events`.
    #[must_use]
    pub fn new(registry: &Registry, events: &[EventRecord]) -> Self {
        HealthModel {
            cycles: registry.counter_total("sim.cycles"),
            hiccups: registry.counter_total("sim.hiccups"),
            degraded_cycles: registry.counter_total("sim.degraded_cluster_cycles"),
            data_loss_events: events.iter().filter(|e| e.level == Level::Error).count() as u64,
        }
    }

    /// Observed stall rate in hiccups per kilocycle.
    #[must_use]
    pub fn stall_rate_per_kcycle(&self) -> f64 {
        self.hiccups as f64 * 1000.0 / self.cycles.max(1) as f64
    }

    /// Stall-budget burn rate: observed rate over budget (1.0 = exactly
    /// on budget).
    #[must_use]
    pub fn burn_rate(&self) -> f64 {
        self.stall_rate_per_kcycle() / STALL_BUDGET_PER_KCYCLE
    }

    /// Write the `health.*` gauges for `scheme` into `registry`: the
    /// signals no `sim.*` series states already.
    pub fn publish_to(&self, registry: &mut Registry, scheme: &str) {
        let labels = || Labels::new(vec![("scheme", LabelValue::Str(scheme.to_string().into()))]);
        registry.gauge_set("health.stall_burn_rate", labels(), self.burn_rate());
        registry.gauge_set(
            "health.data_loss_events",
            labels(),
            self.data_loss_events as f64,
        );
    }

    /// An ASCII dashboard panel summarizing the signals.
    #[must_use]
    pub fn panel(&self) -> String {
        let budget = if self.burn_rate() >= BURN_ALERT {
            "exceeded"
        } else {
            "within"
        };
        let mut out = String::new();
        let _ = writeln!(out, "health");
        let _ = writeln!(out, "{}", "-".repeat(40));
        let _ = writeln!(out, "cycles simulated      {:>12}", self.cycles);
        let _ = writeln!(
            out,
            "hiccups               {:>12}  ({:.3}/kcycle, burn {:.2}x)",
            self.hiccups,
            self.stall_rate_per_kcycle(),
            self.burn_rate()
        );
        let _ = writeln!(
            out,
            "degraded exposure     {:>12}  cluster-cycles",
            self.degraded_cycles
        );
        let _ = writeln!(out, "stall budget          {budget:>12}");
        let _ = writeln!(out, "error records         {:>12}", self.data_loss_events);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Value};

    fn labels(pairs: &[(&'static str, &'static str)]) -> Labels {
        Labels::new(
            pairs
                .iter()
                .map(|&(k, v)| (k, LabelValue::from(v)))
                .collect(),
        )
    }

    fn record(level: Level) -> EventRecord {
        EventRecord {
            level,
            target: "test",
            name: "probe",
            kind: EventKind::Event,
            fields: vec![("cycle", Value::U64(7))],
        }
    }

    /// Two schemes' worth of `sim.*` series, as a corpus run leaves them.
    fn registry() -> Registry {
        let mut r = Registry::new();
        for (scheme, cycles, degraded) in [("SR", 600, 40), ("NC", 400, 25)] {
            r.counter_add("sim.cycles", labels(&[("scheme", scheme)]), cycles);
            r.counter_add(
                "sim.degraded_cluster_cycles",
                labels(&[("scheme", scheme)]),
                degraded,
            );
        }
        r.counter_add(
            "sim.hiccups",
            labels(&[("scheme", "NC"), ("reason", "failed-disk")]),
            3,
        );
        r.counter_add(
            "sim.hiccups",
            labels(&[("scheme", "NC"), ("reason", "service-degradation")]),
            2,
        );
        r
    }

    #[test]
    fn signals_sum_the_sim_series_over_every_label() {
        let events = [
            record(Level::Info),
            record(Level::Error),
            record(Level::Warn),
        ];
        let h = HealthModel::new(&registry(), &events);
        assert_eq!(h.cycles, 1000);
        assert_eq!(h.hiccups, 5, "dropped streams count");
        assert_eq!(h.degraded_cycles, 65);
        assert_eq!(h.data_loss_events, 1);
        assert_eq!(h.stall_rate_per_kcycle(), 5.0);
        assert_eq!(h.burn_rate(), 5.0 / STALL_BUDGET_PER_KCYCLE);
    }

    #[test]
    fn an_empty_record_reads_healthy() {
        let h = HealthModel::new(&Registry::new(), &[]);
        assert_eq!(h, HealthModel::default());
        assert_eq!(h.burn_rate(), 0.0);
        assert!(h.panel().contains("within"), "{}", h.panel());
    }

    #[test]
    fn publish_writes_only_what_no_sim_series_states() {
        let h = HealthModel::new(&registry(), &[record(Level::Error)]);
        let mut reg = Registry::new();
        h.publish_to(&mut reg, "all");
        let all = labels(&[("scheme", "all")]);
        assert_eq!(reg.gauge("health.stall_burn_rate", &all), Some(5.0));
        assert_eq!(reg.gauge("health.data_loss_events", &all), Some(1.0));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn panel_renders_every_signal() {
        let text = HealthModel::new(&registry(), &[record(Level::Error)]).panel();
        for line in [
            "cycles simulated              1000",
            "hiccups                          5  (5.000/kcycle, burn 5.00x)",
            "degraded exposure               65  cluster-cycles",
            "stall budget              exceeded",
            "error records                    1",
        ] {
            assert!(text.contains(line), "{line:?} in\n{text}");
        }
    }
}
