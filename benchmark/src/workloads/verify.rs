//! `degraded-verify`: the data path. Every delivered 50 KB track is
//! regenerated and checked by the block oracle, through a disk failure
//! (XOR reconstruction) and its repair.

use super::session::{scheme_layers, shadow_cycle, shadow_fail, shadow_layers, Shadow};
use super::{
    part_rng, ratio, secs, Layers, Part, Pass, SchemeSpec, Sim, SCHEMES, THETA, TRACK_BYTES,
};
use crate::alloc::allocations;
use crate::digest::Digest;
use crate::spans::{SpanId, Tracer};
use mms_server::disk::{ArrayStats, DiskArray, DiskId, DiskParams};
use mms_server::parity::{fill_synthetic, fingerprint_bytes, xor_slices, PoolStats};
use mms_server::sched::CyclePlan;
use mms_server::sim::{DataMode, FailureEvent, Metrics, StepMode, Zipf};
use mms_server::{MultimediaServer, ServerError};
use rand::rngs::StdRng;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Spec {
    pub titles: usize,
    pub tracks: u64,
    /// Share of the scheme's stream capacity admitted during set-up.
    pub fill: f64,
    /// Cycles before the failure, and again after the repair.
    pub healthy: u64,
    /// Cycles with `fail_disk` down.
    pub degraded: u64,
    pub fail_disk: DiskId,
}

impl Spec {
    pub fn cycles(&self) -> u64 {
        2 * self.healthy + self.degraded
    }

    /// The shadow repeats the healthy stretch and half the degraded one, so
    /// it times plain and reconstructed verification both.
    fn shadow_cycles(&self) -> u64 {
        self.healthy + self.degraded / 2
    }

    /// A server filled to `fill` of capacity with streams whose titles the
    /// seed picks by popularity.
    fn filled_server(&self, scheme: &SchemeSpec, rng: &mut StdRng) -> MultimediaServer {
        let mut server = scheme.build(
            self.titles,
            self.tracks,
            DataMode::Verified {
                track_bytes: TRACK_BYTES,
            },
            StepMode::CycleByCycle,
        );
        let zipf = Zipf::new(self.titles, THETA);
        let objects = server.objects().to_vec();
        let target = (self.fill * server.stream_capacity() as f64) as usize;
        // A refusal (the title's cluster is full this cycle) just draws again.
        for _ in 0..4 * target {
            if server.active_streams() >= target {
                break;
            }
            let _ = server.admit(objects[zipf.sample(rng)]);
        }
        server
    }
}

#[derive(Debug, Default)]
struct DriverNotes {
    root: SpanId,
    at_shadow_end: Option<Metrics>,
}

struct SchemeRun {
    part: Part,
    setup_s: f64,
    allocs: u64,
    streams: u64,
    metrics: Metrics,
    disks: ArrayStats,
    utilization: f64,
    pool: PoolStats,
    lost_tracks: u64,
    notes: DriverNotes,
}

/// Inject the failure; a data-loss verdict is reported, not fatal.
fn fail(server: &mut MultimediaServer, disk: DiskId) -> u64 {
    match server.inject(FailureEvent::fail(server.cycle(), disk)) {
        Ok(_) => 0,
        Err(ServerError::DataLoss { tracks }) => tracks,
        Err(e) => panic!("injecting a single failure: {e}"),
    }
}

fn run_scheme(
    spec: &Spec,
    index: usize,
    scheme: &SchemeSpec,
    seed: u64,
    tracer: Option<&mut Tracer>,
) -> SchemeRun {
    let setup = Instant::now();
    let rng = part_rng(seed, index);
    // Warm-up: a throwaway copy verifies half a healthy stretch.
    spec.filled_server(scheme, &mut rng.clone())
        .run(spec.healthy.div_ceil(2))
        .expect("warm-up run is failure-free");
    let mut server = spec.filled_server(scheme, &mut rng.clone());
    let streams = server.active_streams() as u64;
    let setup_s = secs(setup);

    let mut notes = DriverNotes::default();
    let allocs_before = allocations();
    let run = Instant::now();
    let lost_tracks = match tracer {
        None => {
            server.run(spec.healthy).expect("healthy stretch runs");
            let lost = fail(&mut server, spec.fail_disk);
            server.run(spec.degraded).expect("degraded stretch runs");
            server
                .repair_disk(spec.fail_disk)
                .expect("the failed disk repairs");
            server.run(spec.healthy).expect("repaired stretch runs");
            lost
        }
        Some(tracer) => driven(spec, scheme.tag, &mut server, tracer, &mut notes),
    };
    let wall_s = secs(run);
    let allocs = allocations() - allocs_before;

    let metrics = server.metrics().clone();
    let utilization = metrics.utilization(server.cycle_config().t_cyc(), scheme.disks);
    let disks = server.simulator().disks().stats();
    let (_, oracle) = server.simulator_mut().scheduler_and_oracle();
    SchemeRun {
        part: Part {
            tag: scheme.tag,
            wall_s,
            cycles: metrics.cycles,
            tracks: metrics.delivered,
        },
        setup_s,
        allocs,
        streams,
        disks,
        utilization,
        pool: oracle.expect("verified mode has an oracle").pool_stats(),
        lost_tracks,
        metrics,
        notes,
    }
}

/// The plain run, one timed `Simulator::step` at a time.
fn driven(
    spec: &Spec,
    tag: &'static str,
    server: &mut MultimediaServer,
    tracer: &mut Tracer,
    notes: &mut DriverNotes,
) -> u64 {
    notes.root = tracer.open("run", tag, None);
    let root = Some(notes.root);
    let mut lost = 0;
    for cycle in 0..spec.cycles() {
        if cycle == spec.healthy || cycle == spec.healthy + spec.degraded {
            let start = tracer.now();
            let name = if cycle == spec.healthy {
                lost = fail(server, spec.fail_disk);
                "server.inject"
            } else {
                server
                    .repair_disk(spec.fail_disk)
                    .expect("the failed disk repairs");
                "server.repair"
            };
            let end = tracer.now();
            tracer.record(name, tag, root, cycle, start, end);
        }
        if cycle == spec.shadow_cycles() {
            notes.at_shadow_end = Some(server.metrics().clone());
        }
        let start = tracer.now();
        server
            .simulator_mut()
            .step()
            .expect("planned reads fit the disks");
        let end = tracer.now();
        tracer.record("sim.step", tag, root, cycle, start, end);
    }
    tracer.close(notes.root);
    lost
}

fn summarise(spec: &Spec, runs: &[SchemeRun]) -> Pass {
    let mut digest = Digest::default();
    let mut sim = Sim::default();
    for (run, scheme) in runs.iter().zip(&SCHEMES) {
        let m = &run.metrics;
        digest.word(run.streams);
        digest.metrics(m);
        digest.disks(&run.disks);
        sim.cycles += m.cycles;
        sim.tracks += m.delivered;
        sim.hiccups += m.total_hiccups();
        sim.verified_bytes += m.verified * TRACK_BYTES as u64;
        sim.tracks_lost += run.lost_tracks;
        sim.disk_reads += m.tracks_read;
        sim.disk_utilization += run.utilization / runs.len() as f64;

        if m.verified != m.delivered {
            sim.violate(
                m.delivered.abs_diff(m.verified),
                format!(
                    "{}: {} tracks delivered, {} verified",
                    scheme.tag, m.delivered, m.verified
                ),
            );
        }
        if m.total_hiccups() > 0 && scheme.masks_single_fault() {
            sim.violate(
                m.total_hiccups(),
                format!(
                    "{}: {} hiccups on a single masked fault",
                    scheme.tag,
                    m.total_hiccups()
                ),
            );
        }
        if run.lost_tracks > 0 || m.catastrophes > 0 {
            sim.violate(
                run.lost_tracks,
                format!(
                    "{}: {} tracks lost to a single fault",
                    scheme.tag, run.lost_tracks
                ),
            );
        }
        if m.cycles != spec.cycles() || run.streams == 0 {
            sim.violate(
                1,
                format!(
                    "{}: {} streams ran {} of {} cycles",
                    scheme.tag,
                    run.streams,
                    m.cycles,
                    spec.cycles()
                ),
            );
        }
    }
    // An operation here is a scheduled track delivery; a hiccup fails it.
    sim.operations = sim.tracks + sim.hiccups;
    sim.failures = sim.hiccups;
    sim.digest = digest.value();
    Pass {
        setup_s: runs.iter().map(|r| r.setup_s).sum(),
        wall_s: runs.iter().map(|r| r.part.wall_s).sum(),
        allocs: runs.iter().map(|r| r.allocs).sum(),
        parts: runs.iter().map(|r| r.part.clone()).collect(),
        sim,
    }
}

pub fn pass(spec: &Spec, seed: u64) -> Pass {
    let runs: Vec<SchemeRun> = SCHEMES
        .iter()
        .enumerate()
        .map(|(i, scheme)| run_scheme(spec, i, scheme, seed, None))
        .collect();
    summarise(spec, &runs)
}

fn shadow_scheme(spec: &Spec, index: usize, scheme: &SchemeSpec, seed: u64) -> Shadow {
    let mut server = spec.filled_server(scheme, &mut part_rng(seed, index));
    let mut disks = DiskArray::new(scheme.disks, DiskParams::paper_table1());
    let mut plan = CyclePlan::empty(0);
    let mut shadow = Shadow::default();
    for cycle in 0..spec.shadow_cycles() {
        if cycle == spec.healthy {
            shadow_fail(cycle, spec.fail_disk, &mut server, &mut disks, &mut shadow);
        }
        shadow_cycle(cycle, &mut server, &mut disks, &mut plan, &mut shadow);
    }
    shadow
}

/// MB/s of an isolated parity-kernel call on one 50 KB track, over enough
/// rounds to move 100 MB.
fn kernel_mb_per_s(mut call: impl FnMut(u64, &mut [u8])) -> f64 {
    const ROUNDS: u64 = 2_000;
    let mut track = vec![0u8; TRACK_BYTES];
    let start = Instant::now();
    for round in 0..ROUNDS {
        call(round, std::hint::black_box(&mut track));
    }
    (ROUNDS * TRACK_BYTES as u64) as f64 / 1e6 / secs(start)
}

fn parity_layers(layers: &mut Layers) {
    let src = vec![0xa5u8; TRACK_BYTES];
    layers.insert(
        "parity.xor_mb_per_s".into(),
        kernel_mb_per_s(|_, track| xor_slices(track, &src)),
    );
    layers.insert(
        "parity.fingerprint_mb_per_s".into(),
        kernel_mb_per_s(|_, track| {
            std::hint::black_box(fingerprint_bytes(track));
        }),
    );
    layers.insert(
        "parity.synthetic_fill_mb_per_s".into(),
        kernel_mb_per_s(|round, track| fill_synthetic(7, round, track)),
    );
}

pub fn trace(spec: &Spec, seed: u64, tracer: &mut Tracer, layers: &mut Layers) -> Pass {
    let runs: Vec<SchemeRun> = SCHEMES
        .iter()
        .enumerate()
        .map(|(i, scheme)| run_scheme(spec, i, scheme, seed, Some(tracer)))
        .collect();
    let shadows: Vec<Shadow> = SCHEMES
        .iter()
        .enumerate()
        .map(|(i, scheme)| shadow_scheme(spec, i, scheme, seed))
        .collect();

    let mut all_match = true;
    // Verification time in the driven pass, estimated from what the shadow
    // measured per plain and per reconstructed delivery.
    let mut driven_verify_ns = 0.0;
    for ((run, shadow), scheme) in runs.iter().zip(&shadows).zip(&SCHEMES) {
        scheme_layers(scheme.tag, run.notes.root, shadow, tracer, layers);
        let at_shadow_end = run
            .notes
            .at_shadow_end
            .as_ref()
            .expect("the driven pass snapshots at the shadow's last cycle");
        all_match &= shadow.matches(at_shadow_end) && at_shadow_end.verified == shadow.delivered;
        let plain_ns = (shadow.verify_ns - shadow.verify_reconstructed_ns) as f64;
        let m = &run.metrics;
        driven_verify_ns += plain_ns / (shadow.delivered - shadow.reconstructed).max(1) as f64
            * (m.delivered - m.reconstructed) as f64
            + shadow.verify_reconstructed_ns as f64 / shadow.reconstructed.max(1) as f64
                * m.reconstructed as f64;
    }
    layers.insert("shadow.match".into(), f64::from(u8::from(all_match)));
    shadow_layers(&shadows, layers);

    let sum = |f: fn(&Shadow) -> u64| shadows.iter().map(f).sum::<u64>();
    let driven_ns: u64 = runs.iter().map(|r| tracer.duration_ns(r.notes.root)).sum();
    let self_ns: u64 = runs.iter().map(|r| tracer.self_ns(r.notes.root)).sum();
    let metric = |f: fn(&Metrics) -> u64| runs.iter().map(|r| f(&r.metrics)).sum::<u64>();
    layers.insert(
        "oracle.verify_ns_per_delivery".into(),
        ratio(sum(|s| s.verify_ns), sum(|s| s.delivered)),
    );
    layers.insert(
        "oracle.verify_ns_per_reconstructed".into(),
        ratio(sum(|s| s.verify_reconstructed_ns), sum(|s| s.reconstructed)),
    );
    layers.insert(
        "oracle.reconstructed_share".into(),
        ratio(metric(|m| m.reconstructed), metric(|m| m.delivered)),
    );
    layers.insert(
        "oracle.share_of_wall".into(),
        driven_verify_ns / driven_ns.max(1) as f64,
    );
    let (hits, misses) = runs
        .iter()
        .fold((0, 0), |(h, m), r| (h + r.pool.hits, m + r.pool.misses));
    layers.insert("parity.pool_hit_rate".into(), ratio(hits, hits + misses));
    layers.insert(
        "trace.driver_self_share".into(),
        self_ns as f64 / driven_ns.max(1) as f64,
    );
    let injects = tracer.totals("server.inject", None, None);
    layers.insert("server.inject_ns".into(), injects.ns_per_call());
    parity_layers(layers);

    summarise(spec, &runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Spec {
        Spec {
            titles: 2,
            tracks: 400,
            fill: 0.1,
            healthy: 4,
            degraded: 8,
            fail_disk: DiskId(1),
        }
    }

    #[test]
    fn every_delivery_is_verified_and_the_fault_is_masked() {
        let (a, b) = (pass(&tiny(), 5), pass(&tiny(), 5));
        assert_eq!(a.sim, b.sim);
        assert_eq!(a.sim.violations, Vec::<String>::new());
        assert_eq!(a.sim.verified_bytes, a.sim.tracks * TRACK_BYTES as u64);
        assert_eq!(a.sim.operations, a.sim.tracks + a.sim.hiccups);
        assert_eq!(a.sim.cycles, 4 * tiny().cycles());
    }

    #[test]
    fn the_driven_and_shadow_passes_agree_and_time_reconstruction() {
        let plain = pass(&tiny(), 5);
        let mut tracer = Tracer::new();
        let mut layers = Layers::new();
        let driven = trace(&tiny(), 5, &mut tracer, &mut layers);
        assert_eq!(driven.sim, plain.sim);
        assert_eq!(layers["shadow.match"], 1.0, "{layers:?}");
        assert!(layers["oracle.verify_ns_per_reconstructed"] > 0.0);
        assert!(layers["oracle.reconstructed_share"] > 0.0);
        assert!(layers["parity.xor_mb_per_s"] > 0.0);
        assert_eq!(tracer.totals("server.inject", None, None).calls, 4);
        assert_eq!(tracer.totals("server.repair", None, None).calls, 4);
    }

    #[test]
    fn an_unverified_delivery_or_an_unmasked_hiccup_fails_the_run() {
        let spec = tiny();
        let mut runs: Vec<SchemeRun> = SCHEMES
            .iter()
            .enumerate()
            .map(|(i, scheme)| run_scheme(&spec, i, scheme, 5, None))
            .collect();
        assert_eq!(summarise(&spec, &runs).sim.broken, 0);
        runs[3].metrics.verified -= 3;
        runs[1].metrics.hiccups_failed_disk += 1;
        let sim = summarise(&spec, &runs).sim;
        assert_eq!(sim.broken, 4);
        assert!(sim
            .violations
            .iter()
            .any(|v| v.starts_with("ib:") && v.contains("verified")));
        assert!(sim
            .violations
            .iter()
            .any(|v| v.starts_with("sg: 1 hiccups")));
    }
}
