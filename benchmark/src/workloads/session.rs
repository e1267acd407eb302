//! `vod-steady`, `vod-churn` and `vod-degraded-queue`: the session engine
//! driving one server of each scheme in turn, on one thread.
//!
//! Three ways to run the same simulated work:
//!
//! * **plain** — `MultimediaServer::run_sessions`, what users call; the
//!   end-to-end numbers come from here;
//! * **driven** — the same loop rebuilt from the public pieces with a span
//!   around every call; its simulated outcome must equal the plain one;
//! * **shadow** — the scheduler taken out of the server and driven by hand
//!   (tick → plan → charge disks → verify), which splits a step into
//!   phases; its counts are compared with the driven pass at the same
//!   cycle.

use super::{
    matched_rate, nominal_hold, part_rng, secs, Layers, Part, Pass, SchemeSpec, Sim, ABANDON,
    SCHEMES, THETA, VBR_LADDER,
};
use crate::alloc::allocations;
use crate::digest::Digest;
use crate::spans::{SpanId, Tracer};
use mms_server::disk::{ArrayStats, DiskArray, DiskId, DiskParams, Time};
use mms_server::sched::{CyclePlan, SchemeScheduler};
use mms_server::sim::{
    AdmissionPolicy, ArrivalProcess, DataMode, FailureEvent, Metrics, SessionEngine, SessionStats,
    Simulator, StepMode,
};
use mms_server::telemetry::{Level, Recorder};
use mms_server::{AnyScheduler, MultimediaServer};
use rand::rngs::StdRng;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Spec {
    pub titles: usize,
    pub tracks: u64,
    /// Offered load as a share of the scheme's stream capacity.
    pub load: f64,
    /// Simulated cycles per scheme.
    pub cycles: u64,
    /// Two-state MMPP around the matched rate instead of Poisson.
    pub bursty: bool,
    pub policy: AdmissionPolicy,
    /// Fail this disk at a tenth of the run and never repair it.
    pub fail_disk: Option<DiskId>,
}

impl Spec {
    fn fail_at(&self) -> u64 {
        self.cycles / 10
    }

    /// How much of the run the shadow pass repeats.
    fn shadow_cycles(&self) -> u64 {
        self.cycles / 4
    }

    fn server(&self, scheme: &SchemeSpec) -> MultimediaServer {
        scheme.build(
            self.titles,
            self.tracks,
            DataMode::MetadataOnly,
            StepMode::EventHorizon,
        )
    }

    fn engine(&self, server: &MultimediaServer) -> SessionEngine {
        let nominal = nominal_hold(server, self.tracks);
        let rate = matched_rate(self.load, server.stream_capacity(), nominal);
        let arrivals = if self.bursty {
            // Quiet 80 % of the time at half the rate, bursts at three
            // times it: the mean stays `rate`.
            ArrivalProcess::bursty(0.5 * rate, 3.0 * rate, 0.02, 0.08)
        } else {
            ArrivalProcess::poisson(rate)
        };
        let catalog = server.objects().iter().map(|&o| (o, nominal)).collect();
        SessionEngine::new(catalog, THETA, arrivals, self.policy)
            .with_vbr(VBR_LADDER.to_vec())
            .with_abandonment(ABANDON)
    }

    /// Run a throwaway copy of the scheme for a tenth of the cycles, so
    /// code, allocator and branch predictors are warm before the timed run
    /// (the first scheme measured 20 % slow without it).
    fn warm_up(&self, scheme: &SchemeSpec, rng: &mut StdRng) {
        let mut server = self.server(scheme);
        let mut engine = self.engine(&server);
        server
            .run_sessions(self.cycles / 10, &mut engine, rng)
            .expect("warm-up run is failure-free");
    }
}

/// What the driven loop learned beyond the simulated outcome.
#[derive(Debug, Default)]
pub(super) struct DriverNotes {
    pub(super) root: SpanId,
    build_ns: u64,
    inject_ns: u64,
    /// Counters when the run reached `shadow_cycles`.
    at_shadow_end: Option<(Metrics, SessionStats)>,
    advance_calls: u64,
    advance_hits: u64,
    advanced_cycles: u64,
    queue_peak: usize,
}

struct SchemeRun {
    part: Part,
    setup_s: f64,
    allocs: u64,
    metrics: Metrics,
    sessions: SessionStats,
    still_queued: u64,
    disks: ArrayStats,
    utilization: f64,
    notes: DriverNotes,
}

fn run_scheme(
    spec: &Spec,
    index: usize,
    scheme: &SchemeSpec,
    seed: u64,
    tracer: Option<&mut Tracer>,
) -> SchemeRun {
    let setup = Instant::now();
    let mut rng = part_rng(seed, index);
    spec.warm_up(scheme, &mut rng.clone());
    let build = Instant::now();
    let mut server = spec.server(scheme);
    let mut notes = DriverNotes {
        build_ns: build.elapsed().as_nanos() as u64,
        ..DriverNotes::default()
    };
    let mut engine = spec.engine(&server);
    let setup_s = secs(setup);

    let allocs_before = allocations();
    let run = Instant::now();
    match tracer {
        None => plain(spec, &mut server, &mut engine, &mut rng),
        Some(tracer) => driven(
            spec,
            scheme.tag,
            &mut server,
            &mut engine,
            &mut rng,
            tracer,
            &mut notes,
        ),
    }
    let wall_s = secs(run);
    let allocs = allocations() - allocs_before;

    let metrics = server.metrics().clone();
    let utilization = metrics.utilization(server.cycle_config().t_cyc(), scheme.disks);
    SchemeRun {
        part: Part {
            tag: scheme.tag,
            wall_s,
            cycles: metrics.cycles,
            tracks: metrics.delivered,
        },
        setup_s,
        allocs,
        sessions: engine.stats().clone(),
        still_queued: engine.queue_len() as u64,
        disks: server.simulator().disks().stats(),
        utilization,
        metrics,
        notes,
    }
}

fn plain(spec: &Spec, server: &mut MultimediaServer, engine: &mut SessionEngine, rng: &mut StdRng) {
    let mut remaining = spec.cycles;
    if let Some(disk) = spec.fail_disk {
        let at = spec.fail_at();
        server
            .run_sessions(at, engine, rng)
            .expect("healthy stretch runs");
        server
            .inject(FailureEvent::fail(at, disk))
            .expect("a single failure is survivable");
        remaining -= at;
    }
    server
        .run_sessions(remaining, engine, rng)
        .expect("session run completes");
}

/// `Simulator::run_sessions`, rebuilt from its public pieces, up to cycle
/// `end`. Back-to-back calls share a clock read.
pub(super) fn drive(
    sim: &mut Simulator<AnyScheduler>,
    engine: &mut SessionEngine,
    rng: &mut StdRng,
    end: u64,
    tag: &'static str,
    tracer: &mut Tracer,
    notes: &mut DriverNotes,
) {
    let root = Some(notes.root);
    let horizon = sim.step_mode() == StepMode::EventHorizon;
    let mut t = tracer.now();
    let mut lap = |tracer: &mut Tracer, name, cycle| {
        let now = tracer.now();
        tracer.record(name, tag, root, cycle, t, now);
        t = now;
    };
    while sim.cycle() < end {
        let cycle = sim.cycle();
        let (scheduler, _) = sim.scheduler_and_oracle();
        engine.tick(cycle, scheduler, rng);
        lap(tracer, "session.tick", cycle);
        sim.step().expect("planned reads fit the disks");
        lap(tracer, "sim.step", cycle);
        notes.queue_peak = notes.queue_peak.max(engine.queue_len());
        while horizon && sim.cycle() < end {
            let from = sim.cycle();
            let next = engine.next_event_before(from, end, rng);
            lap(tracer, "session.next_event", from);
            if next <= from {
                break;
            }
            let advanced = sim
                .advance_quiescent(next)
                .expect("probed reads fit the disks");
            lap(tracer, "sim.advance", from);
            notes.advance_calls += 1;
            if advanced == 0 {
                break;
            }
            notes.advance_hits += 1;
            notes.advanced_cycles += advanced;
        }
    }
}

fn driven(
    spec: &Spec,
    tag: &'static str,
    server: &mut MultimediaServer,
    engine: &mut SessionEngine,
    rng: &mut StdRng,
    tracer: &mut Tracer,
    notes: &mut DriverNotes,
) {
    enum Stop {
        Fail(DiskId),
        Snapshot,
        End,
    }
    let mut stops = vec![
        (spec.shadow_cycles(), Stop::Snapshot),
        (spec.cycles, Stop::End),
    ];
    if let Some(disk) = spec.fail_disk {
        stops.push((spec.fail_at(), Stop::Fail(disk)));
    }
    stops.sort_by_key(|&(cycle, _)| cycle);

    notes.root = tracer.open("run", tag, None);
    for (until, stop) in stops {
        drive(
            server.simulator_mut(),
            engine,
            rng,
            until,
            tag,
            tracer,
            notes,
        );
        match stop {
            Stop::Fail(disk) => {
                let start = tracer.now();
                server
                    .inject(FailureEvent::fail(until, disk))
                    .expect("a single failure is survivable");
                let end = tracer.now();
                tracer.record("server.inject", tag, Some(notes.root), until, start, end);
                notes.inject_ns = end - start;
            }
            Stop::Snapshot => {
                notes.at_shadow_end = Some((server.metrics().clone(), engine.stats().clone()));
            }
            Stop::End => {}
        }
    }
    tracer.close(notes.root);
}

fn summarise(spec: &Spec, runs: &[SchemeRun]) -> Pass {
    let mut digest = Digest::default();
    let mut sim = Sim::default();
    for (run, scheme) in runs.iter().zip(&SCHEMES) {
        let (m, s) = (&run.metrics, &run.sessions);
        digest.metrics(m);
        digest.sessions(s);
        digest.disks(&run.disks);
        sim.cycles += m.cycles;
        sim.tracks += m.delivered;
        sim.hiccups += m.total_hiccups();
        sim.offered += s.offered;
        sim.refused += s.rejected + s.balked;
        sim.failures += s.rejected + s.balked + m.service_degradations;
        sim.disk_reads += m.tracks_read;
        sim.disk_utilization += run.utilization / runs.len() as f64;
        sim.wait_p95_cycles = sim.wait_p95_cycles.max(s.wait_p95.value().unwrap_or(0.0));

        // The paper's claim: SR and SG mask a single disk failure outright,
        // and a healthy array never hiccups under any scheme.
        if m.total_hiccups() > 0 && (spec.fail_disk.is_none() || scheme.masks_single_fault()) {
            sim.violate(
                m.total_hiccups(),
                format!(
                    "{}: {} hiccups where none may occur",
                    scheme.tag,
                    m.total_hiccups()
                ),
            );
        }
        if m.catastrophes > 0 {
            sim.violate(
                m.catastrophes,
                format!("{}: data loss on a single fault", scheme.tag),
            );
        }
        let accounted = s.admitted + s.rejected + s.balked + run.still_queued;
        if accounted != s.offered {
            sim.violate(
                s.offered.abs_diff(accounted),
                format!(
                    "{}: {} sessions offered, {accounted} accounted for",
                    scheme.tag, s.offered
                ),
            );
        }
        if m.cycles != spec.cycles {
            sim.violate(
                1,
                format!("{}: ran {} of {} cycles", scheme.tag, m.cycles, spec.cycles),
            );
        }
    }
    sim.operations = sim.offered;
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

/// Phase times and counts of one scheme's shadow pass.
#[derive(Debug, Default)]
pub struct Shadow {
    pub cycles: u64,
    pub tick_ns: u64,
    pub plan_ns: u64,
    pub read_ns: u64,
    pub read_calls: u64,
    pub verify_ns: u64,
    pub verify_reconstructed_ns: u64,
    pub on_failure_ns: u64,
    pub tracks_read: u64,
    pub delivered: u64,
    pub reconstructed: u64,
    pub hiccups: u64,
    pub finished: u64,
    /// A planned read the shadow's own disks refused.
    pub read_errors: u64,
}

impl Shadow {
    /// Whether the hand-driven scheduler did what the simulator did.
    pub fn matches(&self, m: &Metrics) -> bool {
        self.read_errors == 0
            && self.cycles == m.cycles
            && self.tracks_read == m.tracks_read
            && self.delivered == m.delivered
            && self.reconstructed == m.reconstructed
            && self.hiccups == m.total_hiccups()
            && self.finished == m.streams_finished
    }

    /// Nanoseconds per cycle the three phases of a step account for.
    pub fn step_phases_ns_per_cycle(&self) -> f64 {
        (self.plan_ns + self.read_ns + self.verify_ns) as f64 / self.cycles.max(1) as f64
    }
}

/// One cycle of `Simulator::step`, done by hand on a scheduler and the
/// benchmark's own disks, each phase timed.
pub fn shadow_cycle(
    cycle: u64,
    server: &mut MultimediaServer,
    disks: &mut DiskArray,
    plan: &mut CyclePlan,
    shadow: &mut Shadow,
) {
    let (scheduler, mut oracle) = server.simulator_mut().scheduler_and_oracle();
    let t_cyc = scheduler.config().t_cyc();
    let t0 = Instant::now();
    scheduler.plan_cycle_into(cycle, plan);
    let t1 = Instant::now();
    for (&disk, reads) in &plan.reads {
        if reads.is_empty() {
            continue;
        }
        shadow.read_calls += 1;
        match disks
            .disk_mut(disk)
            .and_then(|d| d.read_tracks(reads.len(), t_cyc))
        {
            Ok(_) => shadow.tracks_read += reads.len() as u64,
            Err(_) => shadow.read_errors += 1,
        }
    }
    let t2 = Instant::now();
    if let Some(oracle) = oracle.as_deref_mut() {
        for d in plan.deliveries.iter().filter(|d| !d.reconstructed) {
            oracle.verify_delivery(d.addr, false);
        }
    }
    let t3 = Instant::now();
    if let Some(oracle) = oracle {
        for d in plan.deliveries.iter().filter(|d| d.reconstructed) {
            oracle.verify_delivery(d.addr, true);
        }
    }
    let t4 = Instant::now();
    shadow.cycles += 1;
    shadow.plan_ns += (t1 - t0).as_nanos() as u64;
    shadow.read_ns += (t2 - t1).as_nanos() as u64;
    shadow.verify_ns += (t4 - t2).as_nanos() as u64;
    shadow.verify_reconstructed_ns += (t4 - t3).as_nanos() as u64;
    shadow.delivered += plan.deliveries.len() as u64;
    shadow.reconstructed += plan.deliveries.iter().filter(|d| d.reconstructed).count() as u64;
    shadow.hiccups += plan.hiccups.len() as u64;
    shadow.finished += plan.finished.len() as u64;
}

/// Fail `disk` in the shadow's world: its own array and the scheduler.
pub fn shadow_fail(
    cycle: u64,
    disk: DiskId,
    server: &mut MultimediaServer,
    disks: &mut DiskArray,
    shadow: &mut Shadow,
) {
    let (scheduler, _) = server.simulator_mut().scheduler_and_oracle();
    let now = Time::from_secs(scheduler.config().t_cyc().as_secs() * cycle as f64);
    disks
        .fail(disk, now)
        .expect("the shadow's disk exists and is up");
    let start = Instant::now();
    let report = scheduler.on_disk_failure(disk, cycle, false);
    shadow.on_failure_ns += start.elapsed().as_nanos() as u64;
    drop(report);
}

/// The per-scheme layer metrics: what a step costs in the driven pass,
/// what the plan inside it costs in the shadow pass, and the difference.
pub fn scheme_layers(
    tag: &'static str,
    root: SpanId,
    shadow: &Shadow,
    tracer: &Tracer,
    layers: &mut Layers,
) {
    let steps = tracer.totals("sim.step", Some(tag), None);
    let steps_in_window = tracer.totals("sim.step", Some(tag), Some(shadow.cycles));
    let plan_ns_per_cycle = shadow.plan_ns as f64 / shadow.cycles.max(1) as f64;
    let wall_ns = tracer.duration_ns(root) as f64;
    layers.insert(format!("sim.step_ns_per_cycle.{tag}"), steps.ns_per_call());
    layers.insert(
        format!("sim.step_self_ns_per_cycle.{tag}"),
        steps_in_window.ns_per_call() - shadow.step_phases_ns_per_cycle(),
    );
    layers.insert(format!("sched.plan_ns_per_cycle.{tag}"), plan_ns_per_cycle);
    layers.insert(
        format!("sched.plan_ns_per_track.{tag}"),
        shadow.plan_ns as f64 / shadow.delivered.max(1) as f64,
    );
    // Plan time inside the driven pass's top-level steps, estimated from
    // the shadow's cost per cycle, over the driven wall.
    layers.insert(
        format!("sched.plan_share_of_wall.{tag}"),
        plan_ns_per_cycle * steps.calls as f64 / wall_ns.max(1.0),
    );
}

/// The layer metrics summed over every scheme's shadow pass.
pub fn shadow_layers(shadows: &[Shadow], layers: &mut Layers) {
    let sum = |f: fn(&Shadow) -> u64| shadows.iter().map(f).sum::<u64>() as f64;
    let failed = shadows.iter().filter(|s| s.on_failure_ns > 0).count();
    layers.insert(
        "sched.on_failure_ns".into(),
        sum(|s| s.on_failure_ns) / failed.max(1) as f64,
    );
    layers.insert(
        "disk.read_ns_per_call".into(),
        sum(|s| s.read_ns) / sum(|s| s.read_calls).max(1.0),
    );
}

fn shadow_scheme(
    spec: &Spec,
    index: usize,
    scheme: &SchemeSpec,
    seed: u64,
) -> (Shadow, SessionStats) {
    let mut server = spec.server(scheme);
    let mut engine = spec.engine(&server);
    let mut rng = part_rng(seed, index);
    let mut disks = DiskArray::new(scheme.disks, DiskParams::paper_table1());
    let mut plan = CyclePlan::empty(0);
    let mut shadow = Shadow::default();
    for cycle in 0..spec.shadow_cycles() {
        if let Some(disk) = spec.fail_disk.filter(|_| cycle == spec.fail_at()) {
            shadow_fail(cycle, disk, &mut server, &mut disks, &mut shadow);
        }
        let start = Instant::now();
        let (scheduler, _) = server.simulator_mut().scheduler_and_oracle();
        engine.tick(cycle, scheduler, &mut rng);
        shadow.tick_ns += start.elapsed().as_nanos() as u64;
        shadow_cycle(cycle, &mut server, &mut disks, &mut plan, &mut shadow);
    }
    (shadow, engine.stats().clone())
}

/// Nanoseconds per `admit` call while filling a fresh server of each
/// scheme to capacity (refusals on the way count as calls).
fn admit_ns_per_call(spec: &Spec) -> f64 {
    let (mut ns, mut calls) = (0u64, 0u64);
    for scheme in &SCHEMES {
        let mut server = spec.server(scheme);
        let objects = server.objects().to_vec();
        let capacity = server.stream_capacity();
        let start = Instant::now();
        for i in 0..capacity {
            let _ = std::hint::black_box(server.admit(objects[i % objects.len()]));
        }
        ns += start.elapsed().as_nanos() as u64;
        calls += capacity as u64;
    }
    ns as f64 / calls.max(1) as f64
}

/// Host seconds for the shadow-length prefix of every scheme, healthy,
/// under whatever telemetry collector is installed.
fn prefix_wall_s(spec: &Spec, seed: u64) -> f64 {
    let mut wall = 0.0;
    for (i, scheme) in SCHEMES.iter().enumerate() {
        let mut server = spec.server(scheme);
        let mut engine = spec.engine(&server);
        let mut rng = part_rng(seed, i);
        let start = Instant::now();
        server
            .run_sessions(spec.shadow_cycles(), &mut engine, &mut rng)
            .expect("healthy prefix runs");
        wall += secs(start);
    }
    wall
}

/// The layer metrics the driven loop yields whatever it drove: the
/// event horizon, the session engine, and the driver's own overhead.
pub(super) fn driver_layers(
    notes: &[&DriverNotes],
    cycles: u64,
    tracer: &Tracer,
    layers: &mut Layers,
) {
    let note = |f: fn(&DriverNotes) -> u64| notes.iter().map(|n| f(n)).sum::<u64>() as f64;
    let advances = tracer.totals("sim.advance", None, None);
    layers.insert("sim.advance_ns_per_call".into(), advances.ns_per_call());
    layers.insert("sim.advance_calls".into(), advances.calls as f64);
    layers.insert(
        "sim.horizon_hit_rate".into(),
        note(|n| n.advance_hits) / note(|n| n.advance_calls).max(1.0),
    );
    layers.insert(
        "sim.skipped_cycle_share".into(),
        note(|n| n.advanced_cycles) / cycles.max(1) as f64,
    );

    let ticks = tracer.totals("session.tick", None, None);
    let lookaheads = tracer.totals("session.next_event", None, None);
    let driven_ns: u64 = notes.iter().map(|n| tracer.duration_ns(n.root)).sum();
    let self_ns: u64 = notes.iter().map(|n| tracer.self_ns(n.root)).sum();
    layers.insert("session.tick_ns_per_cycle".into(), ticks.ns_per_call());
    layers.insert(
        "session.next_event_ns_per_call".into(),
        lookaheads.ns_per_call(),
    );
    layers.insert(
        "session.share_of_wall".into(),
        (ticks.ns + lookaheads.ns) as f64 / driven_ns.max(1) as f64,
    );
    layers.insert(
        "session.queue_peak".into(),
        notes.iter().map(|n| n.queue_peak).max().unwrap_or(0) as f64,
    );
    layers.insert(
        "trace.driver_self_share".into(),
        self_ns as f64 / driven_ns.max(1) as f64,
    );
    layers.insert(
        "server.build_ns".into(),
        note(|n| n.build_ns) / notes.len().max(1) as f64,
    );
    layers.insert(
        "server.inject_ns".into(),
        note(|n| n.inject_ns) / notes.len().max(1) as f64,
    );
}

/// Drive and shadow one scheme of `spec` on a tracer of its own, for the
/// fleet workloads' "a lone node at the same load" baseline.
pub(super) fn standalone(spec: &Spec, index: usize, seed: u64, layers: &mut Layers) {
    let scheme = &SCHEMES[index];
    let mut tracer = Tracer::new();
    let run = run_scheme(spec, index, scheme, seed, Some(&mut tracer));
    let (shadow, _) = shadow_scheme(spec, index, scheme, seed);
    scheme_layers(scheme.tag, run.notes.root, &shadow, &tracer, layers);
}

pub fn trace(spec: &Spec, seed: u64, tracer: &mut Tracer, layers: &mut Layers) -> Pass {
    let runs: Vec<SchemeRun> = SCHEMES
        .iter()
        .enumerate()
        .map(|(i, scheme)| run_scheme(spec, i, scheme, seed, Some(tracer)))
        .collect();
    let shadows: Vec<(Shadow, SessionStats)> = SCHEMES
        .iter()
        .enumerate()
        .map(|(i, scheme)| shadow_scheme(spec, i, scheme, seed))
        .collect();

    let mut all_match = true;
    for ((run, (shadow, shadow_sessions)), scheme) in runs.iter().zip(&shadows).zip(&SCHEMES) {
        scheme_layers(scheme.tag, run.notes.root, shadow, tracer, layers);
        let (metrics, sessions) = run
            .notes
            .at_shadow_end
            .as_ref()
            .expect("the driven pass snapshots at the shadow's last cycle");
        all_match &= shadow.matches(metrics)
            && shadow_sessions.offered == sessions.offered
            && shadow_sessions.admitted == sessions.admitted;
    }
    layers.insert("shadow.match".into(), f64::from(u8::from(all_match)));
    let shadows: Vec<Shadow> = shadows.into_iter().map(|(shadow, _)| shadow).collect();
    shadow_layers(&shadows, layers);
    layers.insert("sched.admit_ns_per_call".into(), admit_ns_per_call(spec));

    let notes: Vec<&DriverNotes> = runs.iter().map(|r| &r.notes).collect();
    let cycles = runs.iter().map(|r| r.metrics.cycles).sum();
    driver_layers(&notes, cycles, tracer, layers);

    // What an Info-level recorder costs per cycle: the same healthy prefix
    // with one installed, minus without.
    let bare = prefix_wall_s(spec, seed);
    let recorder = Recorder::new(Level::Info);
    let recorded = {
        let _guard = recorder.install();
        prefix_wall_s(spec, seed)
    };
    layers.insert(
        "telemetry.recorder_ns_per_cycle".into(),
        (recorded - bare) * 1e9 / (spec.shadow_cycles() * SCHEMES.len() as u64) as f64,
    );

    summarise(spec, &runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A few hundred cycles of short clips; with `failing`, the bursty
    /// queueing variant that loses a disk a tenth of the way in.
    pub(crate) fn tiny(failing: bool) -> Spec {
        Spec {
            titles: 4,
            tracks: 40,
            load: if failing { 1.2 } else { 0.9 },
            cycles: 400,
            bursty: failing,
            policy: if failing {
                AdmissionPolicy::Queue { max_wait: 20 }
            } else {
                AdmissionPolicy::Reject
            },
            fail_disk: failing.then_some(DiskId(2)),
        }
    }

    fn runs(spec: &Spec, seed: u64) -> Vec<SchemeRun> {
        SCHEMES
            .iter()
            .enumerate()
            .map(|(i, scheme)| run_scheme(spec, i, scheme, seed, None))
            .collect()
    }

    #[test]
    fn a_seed_fixes_the_simulation_and_another_seed_changes_it() {
        let (a, b) = (pass(&tiny(false), 7), pass(&tiny(false), 7));
        assert_eq!(a.sim, b.sim);
        assert_eq!(a.sim.violations, Vec::<String>::new());
        assert!(a.sim.offered > 1_000 && a.sim.tracks > 0 && a.sim.cycles == 4 * 400);
        assert_ne!(pass(&tiny(false), 8).sim.digest, a.sim.digest);
    }

    #[test]
    fn the_driven_and_shadow_passes_simulate_what_the_plain_run_does() {
        for spec in [tiny(false), tiny(true)] {
            let plain = pass(&spec, 3);
            let mut tracer = Tracer::new();
            let mut layers = Layers::new();
            let driven = trace(&spec, 3, &mut tracer, &mut layers);
            assert_eq!(driven.sim, plain.sim);
            assert_eq!(layers["shadow.match"], 1.0, "{layers:?}");
            for scheme in &SCHEMES {
                assert!(layers[&format!("sim.step_ns_per_cycle.{}", scheme.tag)] > 0.0);
                assert!(layers[&format!("sched.plan_ns_per_cycle.{}", scheme.tag)] > 0.0);
            }
            assert_eq!(
                layers["sched.on_failure_ns"] > 0.0,
                spec.fail_disk.is_some(),
                "the failure path is timed exactly when a disk fails"
            );
        }
    }

    #[test]
    fn a_shadow_that_diverges_is_reported_not_matched() {
        let spec = tiny(false);
        let (mut shadow, _) = shadow_scheme(&spec, 0, &SCHEMES[0], 3);
        let reference = runs(
            &Spec {
                cycles: spec.shadow_cycles(),
                ..spec
            },
            3,
        );
        // The same seed over the shadow's stretch of cycles: identical.
        // (The plain run's warm-up uses a clone of the stream, not the stream.)
        assert!(shadow.matches(&reference[0].metrics));
        shadow.delivered += 1;
        assert!(!shadow.matches(&reference[0].metrics));
    }

    #[test]
    fn a_broken_expectation_fails_the_run() {
        let spec = tiny(true);
        let mut runs = runs(&spec, 3);
        let clean = summarise(&spec, &runs).sim;
        assert_eq!((clean.broken, clean.violations.len()), (0, 0));

        // NC and IB may hiccup once a disk is down; SR and SG may not.
        runs[2].metrics.hiccups_displaced += 5;
        assert_eq!(summarise(&spec, &runs).sim.violations.len(), 0);
        runs[0].metrics.hiccups_failed_disk += 2;
        let sim = summarise(&spec, &runs).sim;
        assert_eq!(sim.broken, 2);
        assert!(
            sim.violations[0].starts_with("sr: 2 hiccups"),
            "{:?}",
            sim.violations
        );

        // A session the engine offered but never admitted, refused or queued.
        runs[1].sessions.offered += 1;
        let sim = summarise(&spec, &runs).sim;
        assert_eq!(sim.broken, 3);
        assert!(sim.violations[1].starts_with("sg:") && sim.violations[1].contains("accounted"));

        // On a healthy array no scheme may hiccup at all.
        let healthy = tiny(false);
        let mut runs = self::runs(&healthy, 3);
        runs[3].metrics.hiccups_mid_cycle += 1;
        assert_eq!(summarise(&healthy, &runs).sim.broken, 1);
    }
}
