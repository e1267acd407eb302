//! The metric tables: every name the benchmark reports, with its unit,
//! direction, kind and regression bound. `BENCHMARK.json` and the README
//! repeat them; a unit test keeps `BENCHMARK.json` in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// What kind of number a metric is. This is a deterministic simulator, so
/// the distinction decides how two runs may be compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wall-clock or memory of the simulator process: noisy.
    Host,
    /// A statistic of the modelled server: repeats exactly for a seed.
    Sim,
    /// A count made by the benchmark process: repeats exactly for a seed.
    Count,
}

impl Kind {
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Sim => "sim",
            Kind::Count => "count",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
    /// Workloads the metric is defined on (empty: all six).
    pub workloads: &'static [&'static str],
    /// Whether the metric is one of `BENCHMARK.json`'s `end_to_end` gates.
    /// Those must be defined and non-zero on every workload and vary from
    /// run to run; the others are compared exactly by `--compare` and
    /// listed under `per_layer` there.
    pub gated: bool,
}

impl EndToEnd {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.is_empty() || self.workloads.contains(&workload)
    }
}

/// Bound on host timings. Across ten seeds the interquartile spread on the
/// 2-core host this was written on is 1-5 % while the host is quiet and up
/// to 9 % while it is busy; the gate wants a bound three times the spread.
const TIMING_BOUND: f64 = 0.25;

const SESSION_WORKLOADS: &[&str] = &[
    "vod-steady",
    "vod-churn",
    "vod-degraded-queue",
    "fleet-failover",
    "fleet-sharded",
];
const SINGLE_THREAD_WORKLOADS: &[&str] = &[
    "vod-steady",
    "vod-churn",
    "vod-degraded-queue",
    "degraded-verify",
    "fleet-failover",
];

pub const END_TO_END: [EndToEnd; 13] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        kind: Kind::Host,
        bound: 0.25,
        workloads: &[],
        gated: true,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        kind: Kind::Host,
        bound: TIMING_BOUND,
        workloads: &[],
        gated: true,
    },
    EndToEnd {
        name: "sessions_per_s",
        unit: "1/s",
        better: Better::Higher,
        kind: Kind::Host,
        bound: TIMING_BOUND,
        workloads: SESSION_WORKLOADS,
        gated: false,
    },
    EndToEnd {
        name: "cycles_per_s",
        unit: "1/s",
        better: Better::Higher,
        kind: Kind::Host,
        bound: TIMING_BOUND,
        workloads: &[],
        gated: true,
    },
    EndToEnd {
        name: "tracks_per_s",
        unit: "1/s",
        better: Better::Higher,
        kind: Kind::Host,
        bound: TIMING_BOUND,
        workloads: &[],
        gated: true,
    },
    EndToEnd {
        name: "verified_mb_per_s",
        unit: "MB/s",
        better: Better::Higher,
        kind: Kind::Host,
        bound: TIMING_BOUND,
        workloads: &["degraded-verify"],
        gated: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        kind: Kind::Host,
        // A few MB in all, so thread stacks and allocator slack are 2-3 % of it.
        bound: 0.15,
        workloads: &[],
        gated: true,
    },
    EndToEnd {
        name: "allocs_per_kcycle",
        unit: "count",
        better: Better::Lower,
        kind: Kind::Count,
        bound: 0.0,
        workloads: SINGLE_THREAD_WORKLOADS,
        gated: false,
    },
    EndToEnd {
        name: "blocking_rate",
        unit: "ratio",
        better: Better::Lower,
        kind: Kind::Sim,
        bound: 0.0,
        workloads: SESSION_WORKLOADS,
        gated: false,
    },
    EndToEnd {
        name: "stall_rate",
        unit: "ratio",
        better: Better::Lower,
        kind: Kind::Sim,
        bound: 0.0,
        workloads: &[],
        gated: false,
    },
    EndToEnd {
        name: "wait_p95_cycles",
        unit: "cycles",
        better: Better::Lower,
        kind: Kind::Sim,
        bound: 0.0,
        workloads: &["vod-degraded-queue"],
        gated: false,
    },
    EndToEnd {
        name: "failover_gap_max_cycles",
        unit: "cycles",
        better: Better::Lower,
        kind: Kind::Sim,
        bound: 0.0,
        workloads: &["fleet-failover"],
        gated: false,
    },
    EndToEnd {
        name: "tracks_lost",
        unit: "count",
        better: Better::Lower,
        kind: Kind::Sim,
        bound: 0.0,
        workloads: &["fleet-failover", "degraded-verify"],
        gated: false,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

use Better::{Higher, Lower};

/// Per-layer metrics, reported with `--trace`. Names ending in a scheme
/// tag exist once per scheme. A layer a workload bypasses reads 0.
pub const PER_LAYER: [Layer; 68] = [
    layer("parity.xor_mb_per_s", "MB/s", Higher),
    layer("parity.fingerprint_mb_per_s", "MB/s", Higher),
    layer("parity.synthetic_fill_mb_per_s", "MB/s", Higher),
    layer("parity.pool_hit_rate", "ratio", Higher),
    layer("oracle.verify_ns_per_delivery", "ns", Lower),
    layer("oracle.verify_ns_per_reconstructed", "ns", Lower),
    layer("oracle.reconstructed_share", "ratio", Lower),
    layer("oracle.share_of_wall", "ratio", Lower),
    layer("sched.plan_ns_per_cycle.sr", "ns", Lower),
    layer("sched.plan_ns_per_cycle.sg", "ns", Lower),
    layer("sched.plan_ns_per_cycle.nc", "ns", Lower),
    layer("sched.plan_ns_per_cycle.ib", "ns", Lower),
    layer("sched.plan_ns_per_track.sr", "ns", Lower),
    layer("sched.plan_ns_per_track.sg", "ns", Lower),
    layer("sched.plan_ns_per_track.nc", "ns", Lower),
    layer("sched.plan_ns_per_track.ib", "ns", Lower),
    layer("sched.plan_share_of_wall.sr", "ratio", Lower),
    layer("sched.plan_share_of_wall.sg", "ratio", Lower),
    layer("sched.plan_share_of_wall.nc", "ratio", Lower),
    layer("sched.plan_share_of_wall.ib", "ratio", Lower),
    layer("sched.admit_ns_per_call", "ns", Lower),
    layer("sched.on_failure_ns", "ns", Lower),
    layer("disk.read_ns_per_call", "ns", Lower),
    layer("disk.reads", "count", Lower),
    layer("disk.utilization", "ratio", Higher),
    layer("sim.step_ns_per_cycle.sr", "ns", Lower),
    layer("sim.step_ns_per_cycle.sg", "ns", Lower),
    layer("sim.step_ns_per_cycle.nc", "ns", Lower),
    layer("sim.step_ns_per_cycle.ib", "ns", Lower),
    layer("sim.step_self_ns_per_cycle.sr", "ns", Lower),
    layer("sim.step_self_ns_per_cycle.sg", "ns", Lower),
    layer("sim.step_self_ns_per_cycle.nc", "ns", Lower),
    layer("sim.step_self_ns_per_cycle.ib", "ns", Lower),
    layer("sim.advance_ns_per_call", "ns", Lower),
    layer("sim.advance_calls", "count", Lower),
    layer("sim.horizon_hit_rate", "ratio", Higher),
    layer("sim.skipped_cycle_share", "ratio", Higher),
    layer("session.tick_ns_per_cycle", "ns", Lower),
    layer("session.next_event_ns_per_call", "ns", Lower),
    layer("session.share_of_wall", "ratio", Lower),
    layer("session.queue_peak", "count", Lower),
    layer("session.offered", "count", Higher),
    layer("server.build_ns", "ns", Lower),
    layer("server.inject_ns", "ns", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.driver_self_share", "ratio", Lower),
    layer("shadow.match", "count", Higher),
    layer("fleet.step_ns_per_cycle", "ns", Lower),
    layer("fleet.step_ns_per_node_cycle", "ns", Lower),
    layer("fleet.step_ns_max", "ns", Lower),
    layer("fleet.admit_ns_per_call", "ns", Lower),
    layer("fleet.overhead_ns_per_cycle", "ns", Lower),
    layer("placement.route_ns_per_call", "ns", Lower),
    layer("fleet.re_routed_streams", "count", Higher),
    layer("fleet.dropped_on_failover", "count", Lower),
    layer("fleet.failover_hiccup_cycles", "count", Lower),
    layer("control.tick_ns_per_call", "ns", Lower),
    layer("control.messages_per_decree", "count", Lower),
    layer("control.decrees", "count", Lower),
    layer("control.elections", "count", Lower),
    layer("control.retries", "count", Lower),
    layer("exec.threads", "count", Higher),
    layer("exec.serial_wall_s", "s", Lower),
    layer("exec.parallel_efficiency", "ratio", Higher),
    layer("exec.dispatch_ns_per_job", "ns", Lower),
    layer("exec.node_imbalance", "ratio", Lower),
    layer("reliability.mc_trials_per_s", "1/s", Higher),
    layer("telemetry.recorder_ns_per_cycle", "ns", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{obj, Json};
    use crate::workloads::CATALOG;
    use std::collections::BTreeSet;

    /// Seconds one run measures for when the gate drives the benchmark.
    const RUN_SECONDS: u64 = 10;

    /// What `BENCHMARK.json` must say, built from the tables above.
    fn benchmark_json() -> Json {
        let text = |s: &str| Json::Str(s.into());
        let gates = END_TO_END.iter().filter(|m| m.gated).map(|m| {
            obj([
                ("name", text(m.name)),
                ("unit", text(m.unit)),
                ("better", text(m.better.as_str())),
                ("bound", Json::Num(m.bound)),
            ])
        });
        let exact = END_TO_END
            .iter()
            .filter(|m| !m.gated)
            .map(|m| (m.name, m.unit, m.better));
        let layers = PER_LAYER.iter().map(|l| (l.name, l.unit, l.better));
        let per_layer = exact.chain(layers).map(|(name, unit, better)| {
            obj([
                ("name", text(name)),
                ("unit", text(unit)),
                ("better", text(better.as_str())),
            ])
        });
        obj([
            (
                "command",
                Json::Arr(
                    [
                        "cargo",
                        "run",
                        "--release",
                        "--offline",
                        "--quiet",
                        "--manifest-path",
                        "benchmark/Cargo.toml",
                        "--",
                    ]
                    .map(text)
                    .to_vec(),
                ),
            ),
            ("paths", Json::Arr(vec![text("benchmark")])),
            ("run_seconds", Json::Num(RUN_SECONDS as f64)),
            (
                "workloads",
                Json::Arr(
                    CATALOG
                        .iter()
                        .map(|&(name, why)| obj([("name", text(name)), ("why", text(why))]))
                        .collect(),
                ),
            ),
            ("end_to_end", Json::Arr(gates.collect())),
            ("per_layer", Json::Arr(per_layer.collect())),
        ])
    }

    #[test]
    fn benchmark_json_is_in_step_with_the_tables() {
        let on_disk = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        assert!(
            on_disk == benchmark_json(),
            "BENCHMARK.json is out of step; it should read:\n{}",
            benchmark_json().pretty()
        );
    }

    #[test]
    fn names_units_and_whys_fit_the_gate_contract() {
        let mut names = BTreeSet::new();
        let metric_names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|l| (l.name, l.unit)));
        for (name, unit) in metric_names.chain(CATALOG.iter().map(|&(n, _)| (n, "count"))) {
            assert!(names.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for (_, why) in CATALOG {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        let gated: Vec<_> = END_TO_END.iter().filter(|m| m.gated).collect();
        assert!(gated.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(gated
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25 && m.workloads.is_empty()));
        assert!(END_TO_END.iter().filter(|m| !m.gated).count() + PER_LAYER.len() <= 128);
    }
}
