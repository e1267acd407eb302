//! The six workloads. Each is a fixed amount of simulated work made from
//! the seed; the benchmark repeats it and reports work per host second.

pub mod fleet;
pub mod session;
pub mod verify;

use crate::spans::Tracer;
use mms_server::disk::DiskId;
use mms_server::exec::SeedSequence;
use mms_server::layout::{BandwidthClass, MediaObject, ObjectId};
use mms_server::sim::{AdmissionPolicy, DataMode, StepMode};
use mms_server::{MultimediaServer, Scheme, ServerBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Catalog popularity skew, as `bench_workload` and the fleet use.
pub const THETA: f64 = 0.271;
/// Share of viewers who leave part-way through.
pub const ABANDON: f64 = 0.1;
/// Mean-1 bitrate ladder: load targeting stays exact while holds vary.
pub const VBR_LADDER: [f64; 3] = [0.75, 1.0, 1.25];
/// Table 1's track size, the unit `degraded-verify` byte-verifies.
pub const TRACK_BYTES: usize = 50_000;

/// One of the paper's four schemes at the geometry every single-server
/// workload uses (parity group C = 5).
#[derive(Debug, Clone, Copy)]
pub struct SchemeSpec {
    pub scheme: Scheme,
    pub tag: &'static str,
    pub disks: usize,
}

pub const SCHEMES: [SchemeSpec; 4] = [
    SchemeSpec {
        scheme: Scheme::StreamingRaid,
        tag: "sr",
        disks: 10,
    },
    SchemeSpec {
        scheme: Scheme::StaggeredGroup,
        tag: "sg",
        disks: 10,
    },
    SchemeSpec {
        scheme: Scheme::NonClustered,
        tag: "nc",
        disks: 10,
    },
    SchemeSpec {
        scheme: Scheme::ImprovedBandwidth,
        tag: "ib",
        disks: 8,
    },
];

impl SchemeSpec {
    /// Whether the paper promises this scheme masks a single disk failure
    /// without a hiccup (NC and IB may lose a bounded transition set).
    pub fn masks_single_fault(&self) -> bool {
        matches!(self.scheme, Scheme::StreamingRaid | Scheme::StaggeredGroup)
    }

    /// A server of this scheme over `titles` objects of `tracks` tracks.
    pub fn build(
        &self,
        titles: usize,
        tracks: u64,
        mode: DataMode,
        step: StepMode,
    ) -> MultimediaServer {
        let mut builder = ServerBuilder::new(self.scheme)
            .disks(self.disks)
            .parity_group(5)
            .data_mode(mode)
            .step_mode(step);
        for t in 0..titles {
            builder = builder.object(MediaObject::new(
                ObjectId(t as u64),
                format!("title-{t}"),
                tracks,
                BandwidthClass::Mpeg1,
            ));
        }
        builder.build().expect("benchmark geometry builds")
    }
}

/// The random stream of part `index` (a scheme or a fleet pass) of a run.
pub fn part_rng(seed: u64, index: usize) -> StdRng {
    StdRng::seed_from_u64(SeedSequence::new(seed).seed(index as u64))
}

/// Cycles a session holds its slot when it watches all `tracks` tracks.
pub fn nominal_hold(server: &MultimediaServer, tracks: u64) -> u64 {
    let cfg = server.cycle_config();
    tracks.div_ceil(cfg.k as u64) * cfg.read_period() as u64
}

/// Arrivals per cycle that keep `load × capacity` sessions of mean hold
/// `nominal × (1 − ABANDON/2)` in the system (Little's law).
pub fn matched_rate(load: f64, capacity: usize, nominal: u64) -> f64 {
    load * capacity as f64 / (nominal as f64 * (1.0 - ABANDON / 2.0))
}

/// Which workload, and at what size.
#[derive(Debug, Clone)]
pub enum Workload {
    Session(session::Spec),
    Verify(verify::Spec),
    FleetFailover(fleet::Spec),
    FleetSharded(fleet::Spec),
}

/// Names and reasons, in the order every listing uses.
pub const CATALOG: [(&str, &str); 6] = [
    (
        "vod-steady",
        "feature-length titles, rare arrivals: the event horizon skips most cycles, so fast-forward decides the result",
    ),
    (
        "vod-churn",
        "short clips, two arrivals a cycle: the horizon never opens, so the healthy-mode plan and step decide the result",
    ),
    (
        "vod-degraded-queue",
        "bursty overload against a failed disk with a wait queue: degraded-mode plan, queue ageing and balking",
    ),
    (
        "degraded-verify",
        "50 KB tracks byte-verified through fail and repair: the oracle, XOR reconstruction and track pool",
    ),
    (
        "fleet-failover",
        "8 nodes per cycle through a node-failure storm: serial fleet step, control plane, routing and failover",
    ),
    (
        "fleet-sharded",
        "8 independent node engines over the worker pool: the only workload a pool change moves",
    ),
];

impl Workload {
    /// The workload called `name` at full or `--quick` size.
    pub fn named(name: &str, quick: bool) -> Option<Workload> {
        // Full sizes make one repetition one to four seconds: long enough
        // that the simulated work differs by under 5 % from seed to seed
        // (rare arrivals and bursts need the most cycles for that), short
        // enough that a ten-second run still takes the median of several.
        let shrink = |cycles: u64| if quick { cycles / 8 } else { cycles };
        let session = |titles, tracks, load, cycles, bursty, policy, fail_disk| {
            Workload::Session(session::Spec {
                titles,
                tracks,
                load,
                cycles: shrink(cycles),
                bursty,
                policy,
                fail_disk,
            })
        };
        Some(match name {
            "vod-steady" => session(
                16,
                8_000,
                0.6,
                640_000,
                false,
                AdmissionPolicy::Reject,
                None,
            ),
            "vod-churn" => session(16, 200, 0.9, 20_000, false, AdmissionPolicy::Reject, None),
            "vod-degraded-queue" => session(
                16,
                200,
                1.2,
                16_000,
                true,
                AdmissionPolicy::Queue { max_wait: 50 },
                Some(DiskId(2)),
            ),
            "degraded-verify" => Workload::Verify(verify::Spec {
                titles: 4,
                tracks: 30_000,
                fill: 0.9,
                healthy: shrink(16).max(4),
                degraded: shrink(32).max(8),
                fail_disk: DiskId(1),
            }),
            "fleet-failover" => Workload::FleetFailover(fleet::Spec {
                nodes: 8,
                titles: 32,
                tracks: 100,
                load: 0.8,
                cycles: shrink(6_400),
                mc_trials: 0,
            }),
            "fleet-sharded" => Workload::FleetSharded(fleet::Spec {
                nodes: 8,
                titles: 32,
                tracks: 100,
                load: 0.9,
                cycles: shrink(10_000),
                mc_trials: if quick { 200 } else { 2_000 },
            }),
            _ => return None,
        })
    }

    /// Run the workload once, untraced.
    pub fn run(&self, seed: u64) -> Pass {
        match self {
            Workload::Session(spec) => session::pass(spec, seed),
            Workload::Verify(spec) => verify::pass(spec, seed),
            Workload::FleetFailover(spec) => fleet::failover_pass(spec, seed),
            Workload::FleetSharded(spec) => fleet::sharded_pass(spec, seed),
        }
    }

    /// Run the workload through the benchmark's own re-implementation of
    /// the run loop, timing every call into a layer, then run whatever
    /// shadow and isolated measurements attribute that time. Returns the
    /// driver pass, whose simulated outcome must equal an untraced one.
    /// `untraced_wall_s` is the median timed run of the untraced passes.
    pub fn trace(
        &self,
        seed: u64,
        untraced_wall_s: f64,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Pass {
        match self {
            Workload::Session(spec) => session::trace(spec, seed, tracer, layers),
            Workload::Verify(spec) => verify::trace(spec, seed, tracer, layers),
            Workload::FleetFailover(spec) => fleet::failover_trace(spec, seed, tracer, layers),
            Workload::FleetSharded(spec) => {
                fleet::sharded_trace(spec, seed, untraced_wall_s, tracer, layers)
            }
        }
    }

    /// The sizes this workload ran at, for the result envelope.
    pub fn sizes(&self) -> Vec<(&'static str, f64)> {
        match self {
            Workload::Session(s) => vec![
                ("titles", s.titles as f64),
                ("tracks", s.tracks as f64),
                ("load", s.load),
                ("cycles_per_scheme", s.cycles as f64),
            ],
            Workload::Verify(s) => vec![
                ("titles", s.titles as f64),
                ("tracks", s.tracks as f64),
                ("fill", s.fill),
                ("track_bytes", TRACK_BYTES as f64),
                ("cycles_per_scheme", s.cycles() as f64),
            ],
            Workload::FleetFailover(s) | Workload::FleetSharded(s) => vec![
                ("nodes", s.nodes as f64),
                ("titles", s.titles as f64),
                ("tracks", s.tracks as f64),
                ("load", s.load),
                ("cycles", s.cycles as f64),
            ],
        }
    }
}

/// What one part of a pass (a scheme, or the fleet) did.
#[derive(Debug, Clone)]
pub struct Part {
    pub tag: &'static str,
    pub wall_s: f64,
    pub cycles: u64,
    pub tracks: u64,
}

/// Every simulated statistic a pass reports. A pure function of the
/// workload and the seed: two passes of the same code must agree on all
/// of it, and `digest` is how that is checked.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sim {
    pub digest: u64,
    /// Simulated node-cycles.
    pub cycles: u64,
    /// Tracks delivered on time.
    pub tracks: u64,
    pub hiccups: u64,
    /// Session lifecycles offered (0 on `degraded-verify`).
    pub offered: u64,
    /// Sessions rejected, balked or unroutable.
    pub refused: u64,
    /// Operations, as the README defines them for the workload.
    pub operations: u64,
    /// Operations refused, dropped or stalled by the modelled server.
    pub failures: u64,
    pub verified_bytes: u64,
    pub wait_p95_cycles: f64,
    pub failover_gap_max_cycles: u64,
    pub tracks_lost: u64,
    /// Mean busy share of the modelled disks.
    pub disk_utilization: f64,
    pub disk_reads: u64,
    /// Operations lost to a fault the scheme claims to mask, or to an
    /// accounting error: the run is wrong, not merely loaded.
    pub broken: u64,
    /// One line per correctness check that failed.
    pub violations: Vec<String>,
}

impl Sim {
    /// Record a failed correctness check that cost `ops` operations.
    pub fn violate(&mut self, ops: u64, what: String) {
        self.broken += ops.max(1);
        self.violations.push(what);
    }

    pub fn blocking_rate(&self) -> f64 {
        ratio(self.refused, self.offered)
    }

    pub fn stall_rate(&self) -> f64 {
        ratio(self.hiccups, self.tracks + self.hiccups)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One pass over a workload: host timings plus the simulated outcome.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Building servers and engines, warm-up, filling — everything before
    /// the timed run.
    pub setup_s: f64,
    /// The timed run: a fixed amount of simulated work.
    pub wall_s: f64,
    /// Heap allocations made during the timed run.
    pub allocs: u64,
    pub parts: Vec<Part>,
    pub sim: Sim,
}

/// Per-layer metrics by name. A layer a workload bypasses reads 0.
pub type Layers = std::collections::BTreeMap<String, f64>;

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalogued_workload_exists_at_both_sizes() {
        for (name, why) in CATALOG {
            let full = Workload::named(name, false).unwrap_or_else(|| panic!("{name} is missing"));
            let quick = Workload::named(name, true).expect("quick size exists");
            let cycles = |w: &Workload| {
                let sizes = w.sizes();
                sizes
                    .iter()
                    .find(|(k, _)| k.starts_with("cycles"))
                    .expect("sized in cycles")
                    .1
            };
            assert!(
                cycles(&quick) < cycles(&full),
                "{name}: --quick shrinks the run"
            );
            assert!(!why.is_empty());
        }
        assert!(Workload::named("vod-unknown", false).is_none());
    }
}
