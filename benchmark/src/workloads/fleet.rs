//! `fleet-failover` and `fleet-sharded`: eight Streaming-RAID nodes behind
//! the chained-declustered placement map and the replicated control plane.

use super::session::{self, drive, DriverNotes};
use super::{
    matched_rate, nominal_hold, part_rng, ratio, secs, Layers, Part, Pass, Sim, ABANDON, SCHEMES,
    THETA, VBR_LADDER,
};
use crate::alloc::allocations;
use crate::digest::Digest;
use crate::spans::Tracer;
use mms_fleet::{
    fleet_mttds, fleet_mttf, Command, ControlPlane, ControlStats, Fleet, FleetBuilder, FleetError,
    FleetEvent, NodeId, PlacementMap, RouteError, ShardReport, ShardedLoad, TrafficReport,
};
use mms_server::disk::{ArrayStats, DiskId, ReliabilityParams, Time};
use mms_server::exec::{par_map_indexed, SeedSequence};
use mms_server::layout::{BandwidthClass, MediaObject, ObjectId};
use mms_server::sim::{
    poisson, AdmissionPolicy, ArrivalProcess, DataMode, FailureEvent, Metrics, SessionEngine,
    SplitMix64, StepMode, Zipf,
};
use mms_server::{Parallelism, Scheme, ServerBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Spec {
    pub nodes: usize,
    pub titles: usize,
    pub tracks: u64,
    /// Offered load as a share of fleet (or per-node) stream capacity.
    pub load: f64,
    pub cycles: u64,
    /// Monte-Carlo trials per reliability estimator (`fleet-sharded`, traced).
    pub mc_trials: usize,
}

/// Nodes that fail, one at a time, an eighth of the run apart; each is
/// repaired half a period later. No two are ring neighbours, so every
/// object keeps a live copy and no track may be lost.
const STORM: [usize; 6] = [0, 3, 6, 1, 4, 7];
/// Span scopes of the hand-built nodes in the `fleet-sharded` driven pass.
const NODE_TAGS: [&str; 8] = ["n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"];

/// Worker threads for `fleet-sharded`: every core the host offers.
pub fn host_threads() -> usize {
    Parallelism::Auto.thread_count()
}

impl Spec {
    fn fleet(&self, seed: u64, step: StepMode, par: Parallelism) -> Fleet {
        FleetBuilder::new(self.nodes)
            .catalog(self.titles, self.tracks)
            .step_mode(step)
            .parallelism(par)
            .control_seed(seed)
            .build()
            .expect("benchmark fleet geometry builds")
    }

    /// `(cycle, node, up)` transitions of the node-failure storm.
    fn storm(&self) -> Vec<(u64, usize, bool)> {
        let period = self.cycles / 8;
        let mut script = Vec::new();
        for (k, &node) in STORM.iter().enumerate() {
            let at = (k as u64 + 1) * period;
            script.push((at, node, false));
            script.push((at + period / 2, node, true));
        }
        script
    }

    /// Queue the storm, plus one disk failure each on two nodes that stay up.
    fn script(&self, fleet: &mut Fleet) {
        for (cycle, node, up) in self.storm() {
            let event = if up {
                FleetEvent::repair_node(cycle, node)
            } else {
                FleetEvent::fail_node(cycle, node)
            };
            fleet.inject(event).expect("storm nodes exist");
        }
        for (cycle, node, disk) in [
            (self.cycles / 4 + 1, 2, DiskId(1)),
            (self.cycles / 2 + 1, 5, DiskId(7)),
        ] {
            fleet
                .inject(FleetEvent::disk(
                    cycle,
                    node,
                    FailureEvent::fail(cycle, disk),
                ))
                .expect("disk events queue");
        }
    }

    /// Fleet-wide arrivals per cycle at `load` (fleet sessions hold their
    /// slot for the whole title).
    fn fleet_rate(&self, fleet: &Fleet) -> f64 {
        let node = fleet.node(0);
        self.load * (self.nodes * node.stream_capacity()) as f64
            / nominal_hold(node, self.tracks) as f64
    }

    fn sharded_load(&self, seed: u64, cycles: u64) -> ShardedLoad {
        ShardedLoad {
            cycles,
            load: self.load,
            theta: THETA,
            abandon: ABANDON,
            vbr: VBR_LADDER.to_vec(),
            policy: AdmissionPolicy::Reject,
            seed,
        }
    }
}

/// Per-node counters of a fleet, in ring order.
fn node_counters(fleet: &Fleet) -> Vec<(Metrics, ArrayStats)> {
    (0..fleet.nodes())
        .map(|n| {
            let node = fleet.node(n);
            (node.metrics().clone(), node.simulator().disks().stats())
        })
        .collect()
}

/// Fold per-node counters into the digest and the simulated totals.
/// `cycle_s` is the length of a simulated cycle.
fn absorb_nodes(nodes: &[(Metrics, ArrayStats)], cycle_s: f64, digest: &mut Digest, sim: &mut Sim) {
    for (m, array) in nodes {
        digest.metrics(m);
        digest.disks(array);
        sim.cycles += m.cycles;
        sim.disk_reads += m.tracks_read;
        if m.catastrophes > 0 {
            sim.violate(
                m.catastrophes,
                "a node lost data to a single disk fault".into(),
            );
        }
    }
    // Busy share of the disk-time of every cycle a node was stepped for.
    let busy_s: f64 = nodes.iter().map(|(m, _)| m.disk_busy.as_secs()).sum();
    let available_s = sim.cycles as f64 * cycle_s * SCHEMES[0].disks as f64;
    sim.disk_utilization = if available_s > 0.0 {
        busy_s / available_s
    } else {
        0.0
    };
}

// ---- fleet-failover ---------------------------------------------------

struct FailoverRun {
    setup_s: f64,
    wall_s: f64,
    allocs: u64,
    report: TrafficReport,
    fleet: Fleet,
}

/// `Fleet::run_with_traffic`, rebuilt from its public pieces with a span
/// around every `admit` and `step`.
fn drive_traffic(
    fleet: &mut Fleet,
    cycles: u64,
    rate: f64,
    rng: &mut StdRng,
    tracer: &mut Tracer,
) -> TrafficReport {
    let zipf = Zipf::new(fleet.placement().objects().len(), THETA);
    let mut report = TrafficReport::default();
    let run = tracer.open("run", "fleet", None);
    let root = Some(run);
    for _ in 0..cycles {
        let cycle = fleet.cycle();
        for _ in 0..poisson(rate, rng) {
            let object = fleet.placement().objects()[zipf.sample(rng)];
            report.offered += 1;
            let start = tracer.now();
            let outcome = fleet.admit(object);
            let end = tracer.now();
            tracer.record("fleet.admit", "fleet", root, cycle, start, end);
            match outcome {
                Ok(_) => report.admitted += 1,
                Err(FleetError::Admission { .. }) => report.rejected += 1,
                Err(FleetError::Route(RouteError::Unavailable(_))) => report.unavailable += 1,
                Err(e) => panic!("fleet admission: {e}"),
            }
        }
        let start = tracer.now();
        let outcome = fleet.step();
        let end = tracer.now();
        tracer.record("fleet.step", "fleet", root, cycle, start, end);
        match outcome {
            Ok(()) => {}
            Err(FleetError::DataLoss { tracks }) => report.tracks_lost += tracks,
            Err(e) => panic!("fleet step: {e}"),
        }
    }
    tracer.close(run);
    report
}

fn failover_run(spec: &Spec, seed: u64, tracer: Option<&mut Tracer>) -> FailoverRun {
    let setup = Instant::now();
    let mut rng = part_rng(seed, 0);
    let mut warm = spec.fleet(seed, StepMode::CycleByCycle, Parallelism::Sequential);
    let rate = spec.fleet_rate(&warm);
    warm.run_with_traffic(spec.cycles / 10, rate, THETA, &mut rng.clone())
        .expect("warm-up run is failure-free");
    drop(warm);
    let mut fleet = spec.fleet(seed, StepMode::CycleByCycle, Parallelism::Sequential);
    spec.script(&mut fleet);
    let setup_s = secs(setup);

    let allocs_before = allocations();
    let run = Instant::now();
    let report = match tracer {
        None => fleet
            .run_with_traffic(spec.cycles, rate, THETA, &mut rng)
            .expect("the storm never exhausts replication"),
        Some(tracer) => drive_traffic(&mut fleet, spec.cycles, rate, &mut rng, tracer),
    };
    FailoverRun {
        setup_s,
        wall_s: secs(run),
        allocs: allocations() - allocs_before,
        report,
        fleet,
    }
}

fn failover_summary(spec: &Spec, run: &FailoverRun) -> Pass {
    let (fleet, report) = (&run.fleet, &run.report);
    let f = fleet.metrics();
    let nodes = node_counters(fleet);
    let mut digest = Digest::default();
    let mut sim = Sim::default();
    digest.traffic(report);
    digest.fleet(f);
    digest.control(fleet.control_stats());
    let cycle_s = fleet.node(0).cycle_config().t_cyc().as_secs();
    absorb_nodes(&nodes, cycle_s, &mut digest, &mut sim);

    // A stream stalled by a failover misses `k'` tracks every cycle it waits.
    let tracks_per_cycle = fleet.node(0).cycle_config().k_prime as u64;
    sim.tracks = nodes.iter().map(|(m, _)| m.delivered).sum();
    sim.hiccups = nodes.iter().map(|(m, _)| m.total_hiccups()).sum::<u64>()
        + f.failover_hiccup_cycles * tracks_per_cycle;
    sim.offered = report.offered;
    sim.refused = report.rejected + report.unavailable;
    sim.operations = report.offered;
    sim.failures = sim.refused
        + f.dropped_on_failover
        + nodes
            .iter()
            .map(|(m, _)| m.service_degradations)
            .sum::<u64>();
    sim.failover_gap_max_cycles = f.max_failover_gap;
    sim.tracks_lost = f.tracks_lost + report.tracks_lost;

    if sim.tracks_lost > 0 {
        sim.violate(
            sim.tracks_lost,
            format!(
                "{} tracks lost although no two neighbours were down",
                sim.tracks_lost
            ),
        );
    }
    let accounted = report.admitted + report.rejected + report.unavailable;
    if accounted != report.offered {
        sim.violate(
            report.offered.abs_diff(accounted),
            format!(
                "{} sessions offered, {accounted} accounted for",
                report.offered
            ),
        );
    }
    if f.failovers != STORM.len() as u64 || fleet.stalled_sessions() > 0 {
        sim.violate(
            fleet.stalled_sessions() as u64,
            format!(
                "{} of {} failovers committed, {} sessions left stalled",
                f.failovers,
                STORM.len(),
                fleet.stalled_sessions()
            ),
        );
    }
    if fleet.cycle() != spec.cycles {
        sim.violate(
            1,
            format!("ran {} of {} cycles", fleet.cycle(), spec.cycles),
        );
    }
    sim.digest = digest.value();
    Pass {
        setup_s: run.setup_s,
        wall_s: run.wall_s,
        allocs: run.allocs,
        parts: vec![Part {
            tag: "fleet",
            wall_s: run.wall_s,
            cycles: sim.cycles,
            tracks: sim.tracks,
        }],
        sim,
    }
}

pub fn failover_pass(spec: &Spec, seed: u64) -> Pass {
    failover_summary(spec, &failover_run(spec, seed, None))
}

/// A lone control plane fed the storm's liveness script, one tick a cycle.
fn control_tick_ns(spec: &Spec, seed: u64) -> f64 {
    let mut control = ControlPlane::new(spec.nodes, seed);
    let script = spec.storm();
    let start = Instant::now();
    for cycle in 0..spec.cycles {
        for &(_, node, up) in script.iter().filter(|&&(at, _, _)| at == cycle) {
            control.set_replica_up(node, up);
            let node = node as u32;
            control.submit(if up {
                Command::NodeUp { node }
            } else {
                Command::NodeDown { node }
            });
        }
        control.tick();
    }
    std::hint::black_box(control.stats());
    start.elapsed().as_nanos() as f64 / spec.cycles.max(1) as f64
}

fn route_ns(placement: &PlacementMap) -> f64 {
    const CALLS: u64 = 1_000_000;
    let up = vec![true; placement.nodes()];
    let objects = placement.objects();
    let start = Instant::now();
    for i in 0..CALLS as usize {
        let _ = std::hint::black_box(placement.route(objects[i % objects.len()], &up));
    }
    start.elapsed().as_nanos() as f64 / CALLS as f64
}

fn control_layers(stats: &ControlStats, layers: &mut Layers) {
    layers.insert("control.decrees".into(), stats.decrees as f64);
    layers.insert("control.elections".into(), stats.elections as f64);
    layers.insert("control.retries".into(), stats.retries as f64);
    layers.insert(
        "control.messages_per_decree".into(),
        ratio(stats.messages, stats.decrees),
    );
}

/// One node's share of the fleet's work as a stand-alone session workload.
fn node_spec(spec: &Spec, cycles: u64) -> session::Spec {
    session::Spec {
        titles: 2 * spec.titles / spec.nodes,
        tracks: spec.tracks,
        load: spec.load,
        cycles,
        bursty: false,
        policy: AdmissionPolicy::Reject,
        fail_disk: None,
    }
}

pub fn failover_trace(spec: &Spec, seed: u64, tracer: &mut Tracer, layers: &mut Layers) -> Pass {
    let run = failover_run(spec, seed, Some(tracer));
    let pass = failover_summary(spec, &run);
    let f = run.fleet.metrics();

    let steps = tracer.totals("fleet.step", None, None);
    let admits = tracer.totals("fleet.admit", None, None);
    layers.insert("fleet.step_ns_per_cycle".into(), steps.ns_per_call());
    layers.insert(
        "fleet.step_ns_per_node_cycle".into(),
        steps.ns as f64 / pass.sim.cycles.max(1) as f64,
    );
    layers.insert("fleet.step_ns_max".into(), steps.max_ns as f64);
    layers.insert("fleet.admit_ns_per_call".into(), admits.ns_per_call());
    layers.insert("fleet.re_routed_streams".into(), f.re_routed_streams as f64);
    layers.insert(
        "fleet.dropped_on_failover".into(),
        f.dropped_on_failover as f64,
    );
    layers.insert(
        "fleet.failover_hiccup_cycles".into(),
        f.failover_hiccup_cycles as f64,
    );
    layers.insert(
        "placement.route_ns_per_call".into(),
        route_ns(run.fleet.placement()),
    );
    layers.insert(
        "control.tick_ns_per_call".into(),
        control_tick_ns(spec, seed),
    );
    control_layers(run.fleet.control_stats(), layers);

    // What the fleet adds on top of its nodes: a fleet step minus eight
    // stand-alone node steps at the same per-node load.
    session::standalone(&node_spec(spec, spec.cycles / 4), 0, seed, layers);
    let node_step = layers["sim.step_ns_per_cycle.sr"];
    layers.insert(
        "fleet.overhead_ns_per_cycle".into(),
        steps.ns_per_call() - spec.nodes as f64 * node_step,
    );
    pass
}

// ---- fleet-sharded ----------------------------------------------------

struct ShardedRun {
    setup_s: f64,
    wall_s: f64,
    allocs: u64,
    report: ShardReport,
    nodes: Vec<(Metrics, ArrayStats)>,
    control: ControlStats,
    /// Length of a simulated cycle, in seconds.
    cycle_s: f64,
}

fn sharded_run(spec: &Spec, seed: u64, par: Parallelism) -> ShardedRun {
    let setup = Instant::now();
    spec.fleet(seed, StepMode::EventHorizon, par)
        .run_sharded_sessions(&spec.sharded_load(seed, spec.cycles / 10))
        .expect("warm-up run is failure-free");
    let mut fleet = spec.fleet(seed, StepMode::EventHorizon, par);
    let load = spec.sharded_load(seed, spec.cycles);
    let setup_s = secs(setup);

    let allocs_before = allocations();
    let run = Instant::now();
    let report = fleet
        .run_sharded_sessions(&load)
        .expect("a failure-free sharded run cannot error");
    ShardedRun {
        setup_s,
        wall_s: secs(run),
        allocs: allocations() - allocs_before,
        report,
        nodes: node_counters(&fleet),
        control: *fleet.control_stats(),
        cycle_s: fleet.node(0).cycle_config().t_cyc().as_secs(),
    }
}

fn sharded_summary(spec: &Spec, run: &ShardedRun) -> Pass {
    let r = &run.report;
    let mut digest = Digest::default();
    let mut sim = Sim::default();
    digest.shards(r);
    digest.control(&run.control);
    absorb_nodes(&run.nodes, run.cycle_s, &mut digest, &mut sim);
    sim.tracks = r.delivered;
    sim.hiccups = r.hiccups;
    sim.offered = r.offered;
    sim.refused = r.rejected + r.balked;
    sim.operations = r.offered;
    sim.failures = sim.refused;
    if r.hiccups > 0 {
        sim.violate(
            r.hiccups,
            format!("{} hiccups on a healthy fleet", r.hiccups),
        );
    }
    if r.admitted + r.rejected + r.balked != r.offered {
        sim.violate(
            r.offered.abs_diff(r.admitted + r.rejected + r.balked),
            format!("{} sessions offered, not all accounted for", r.offered),
        );
    }
    if sim.cycles != spec.cycles * spec.nodes as u64 {
        sim.violate(
            1,
            format!(
                "ran {} node-cycles of {}",
                sim.cycles,
                spec.cycles * spec.nodes as u64
            ),
        );
    }
    sim.digest = digest.value();
    Pass {
        setup_s: run.setup_s,
        wall_s: run.wall_s,
        allocs: run.allocs,
        parts: vec![Part {
            tag: "fleet",
            wall_s: run.wall_s,
            cycles: sim.cycles,
            tracks: sim.tracks,
        }],
        sim,
    }
}

pub fn sharded_pass(spec: &Spec, seed: u64) -> Pass {
    sharded_summary(
        spec,
        &sharded_run(spec, seed, Parallelism::threads(host_threads())),
    )
}

/// The same run on one thread: the pool must change nothing but the time.
pub fn sharded_serial_pass(spec: &Spec, seed: u64) -> Pass {
    sharded_summary(spec, &sharded_run(spec, seed, Parallelism::Sequential))
}

/// `Fleet::run_sharded_sessions`, rebuilt from its public pieces: each
/// node a stand-alone server over its shard, driven in ring order on this
/// thread with a span around every call.
fn drive_shards(spec: &Spec, seed: u64, tracer: &mut Tracer) -> (ShardedRun, Vec<DriverNotes>) {
    assert!(spec.nodes <= NODE_TAGS.len(), "one span scope per node");
    let setup = Instant::now();
    let ids: Vec<ObjectId> = (0..spec.titles as u64).map(ObjectId).collect();
    let placement = PlacementMap::new(spec.nodes, &ids);
    let mut servers = Vec::new();
    for n in 0..spec.nodes {
        let mut builder = ServerBuilder::new(Scheme::StreamingRaid)
            .disks(SCHEMES[0].disks)
            .parity_group(5)
            .data_mode(DataMode::MetadataOnly)
            .step_mode(StepMode::EventHorizon);
        for (id, _) in placement.placed_on(NodeId(n)) {
            let name = format!("title-{}", id.0);
            builder = builder.object(MediaObject::new(
                id,
                name,
                spec.tracks,
                BandwidthClass::Mpeg1,
            ));
        }
        servers.push(builder.build().expect("node geometry builds"));
    }
    let hold = nominal_hold(&servers[0], spec.tracks);
    let rate = matched_rate(spec.load, servers[0].stream_capacity(), hold);
    let seeds = SeedSequence::new(seed);
    let setup_s = secs(setup);

    let run = Instant::now();
    let mut report = ShardReport::default();
    let mut notes = Vec::new();
    for (n, server) in servers.iter_mut().enumerate() {
        let shard = ids
            .iter()
            .enumerate()
            .filter(|(ix, _)| ix % spec.nodes == n)
            .map(|(_, &id)| (id, hold))
            .collect();
        let mut engine = SessionEngine::new(
            shard,
            THETA,
            ArrivalProcess::poisson(rate),
            AdmissionPolicy::Reject,
        )
        .with_abandonment(ABANDON)
        .with_vbr(VBR_LADDER.to_vec());
        let mut rng = StdRng::seed_from_u64(seeds.seed(n as u64));
        let mut note = DriverNotes::default();
        note.root = tracer.open("run", NODE_TAGS[n], None);
        drive(
            server.simulator_mut(),
            &mut engine,
            &mut rng,
            spec.cycles,
            NODE_TAGS[n],
            tracer,
            &mut note,
        );
        tracer.close(note.root);
        let (s, m) = (engine.stats(), server.metrics());
        report.offered += s.offered;
        report.admitted += s.admitted;
        report.rejected += s.rejected;
        report.balked += s.balked;
        report.released_early += s.released_early;
        report.delivered += m.delivered;
        report.hiccups += m.total_hiccups();
        notes.push(note);
    }
    let wall_s = secs(run);

    // The fleet lets its (idle) control plane settle for 64 ticks.
    let mut control = ControlPlane::new(spec.nodes, seed);
    for _ in 0..spec.cycles.min(64) {
        control.tick();
    }
    let nodes = servers
        .iter()
        .map(|s| (s.metrics().clone(), s.simulator().disks().stats()))
        .collect();
    let run = ShardedRun {
        setup_s,
        wall_s,
        allocs: 0,
        report,
        nodes,
        control: *control.stats(),
        cycle_s: servers[0].cycle_config().t_cyc().as_secs(),
    };
    (run, notes)
}

/// Monte-Carlo trials per second of the fleet's two reliability estimators.
fn reliability_trials_per_s(spec: &Spec, seed: u64) -> f64 {
    let trials = spec.mc_trials;
    // Node-level figures as `bench_fleet` uses: a 10:1 MTTF:MTTR ratio
    // keeps a trial to a few thousand events.
    let rel = ReliabilityParams {
        mttf: Time::from_hours(1_000.0),
        mttr: Time::from_hours(100.0),
    };
    let par = Parallelism::threads(host_threads());
    let mut rng = SplitMix64::new(seed);
    let start = Instant::now();
    std::hint::black_box(fleet_mttf(spec.nodes, rel, &mut rng, trials, par));
    std::hint::black_box(fleet_mttds(spec.nodes, rel, &mut rng, trials, par));
    2.0 * trials as f64 / secs(start)
}

fn dispatch_ns_per_job() -> f64 {
    const JOBS: usize = 200_000;
    let start = Instant::now();
    let out = par_map_indexed(Parallelism::threads(host_threads()), JOBS, |i| i);
    let ns = start.elapsed().as_nanos() as f64;
    std::hint::black_box(out);
    ns / JOBS as f64
}

pub fn sharded_trace(
    spec: &Spec,
    seed: u64,
    untraced_wall_s: f64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Pass {
    let (run, notes) = drive_shards(spec, seed, tracer);
    let pass = sharded_summary(spec, &run);

    let threads = host_threads();
    let serial = sharded_run(spec, seed, Parallelism::Sequential);
    layers.insert("exec.threads".into(), threads as f64);
    layers.insert("exec.serial_wall_s".into(), serial.wall_s);
    layers.insert(
        "exec.parallel_efficiency".into(),
        serial.wall_s / (threads as f64 * untraced_wall_s),
    );
    layers.insert("exec.dispatch_ns_per_job".into(), dispatch_ns_per_job());
    layers.insert(
        "trace.overhead_pct".into(),
        (run.wall_s - serial.wall_s) / serial.wall_s * 100.0,
    );
    // The slowest node against the mean: with two threads over eight
    // nodes, imbalance costs wall time that mean node speed does not show.
    let node_ns: Vec<f64> = notes
        .iter()
        .map(|n| tracer.duration_ns(n.root) as f64)
        .collect();
    let mean_ns = node_ns.iter().sum::<f64>() / node_ns.len() as f64;
    layers.insert(
        "exec.node_imbalance".into(),
        node_ns.iter().fold(0.0f64, |a, &b| a.max(b)) / mean_ns.max(1.0),
    );

    session::driver_layers(
        &notes.iter().collect::<Vec<_>>(),
        pass.sim.cycles,
        tracer,
        layers,
    );
    let steps = tracer.totals("sim.step", None, None);
    layers.insert("sim.step_ns_per_cycle.sr".into(), steps.ns_per_call());
    control_layers(&run.control, layers);
    layers.insert(
        "reliability.mc_trials_per_s".into(),
        reliability_trials_per_s(spec, seed),
    );
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(cycles: u64) -> Spec {
        Spec {
            nodes: 8,
            titles: 16,
            tracks: 20,
            load: 0.8,
            cycles,
            mc_trials: 8,
        }
    }

    #[test]
    fn the_storm_never_takes_ring_neighbours_down_together() {
        let spec = tiny(800);
        let mut down = [false; 8];
        for (_, node, up) in spec.storm() {
            down[node] = !up;
            for n in 0..8 {
                assert!(
                    !(down[n] && down[(n + 1) % 8]),
                    "nodes {n} and {} are both down",
                    (n + 1) % 8
                );
            }
        }
        assert!(down.iter().all(|&d| !d), "every failed node is repaired");
    }

    #[test]
    fn failover_loses_no_track_and_the_driven_pass_agrees() {
        let spec = tiny(800);
        let plain = failover_pass(&spec, 9);
        assert_eq!(plain.sim.violations, Vec::<String>::new());
        assert_eq!(plain.sim.tracks_lost, 0);
        assert!(plain.sim.failover_gap_max_cycles > 0);
        assert_eq!(failover_pass(&spec, 9).sim, plain.sim);

        let mut tracer = Tracer::new();
        let mut layers = Layers::new();
        let driven = failover_trace(&spec, 9, &mut tracer, &mut layers);
        assert_eq!(driven.sim, plain.sim);
        assert_eq!(tracer.totals("fleet.step", None, None).calls, 800);
        assert_eq!(
            layers["control.decrees"], 14.0,
            "six downs, six ups, two leases"
        );
        assert!(layers["fleet.step_ns_per_cycle"] > layers["fleet.step_ns_per_node_cycle"]);
    }

    #[test]
    fn a_lost_track_or_a_missing_failover_fails_the_run() {
        let spec = tiny(800);
        let mut run = failover_run(&spec, 9, None);
        assert_eq!(failover_summary(&spec, &run).sim.broken, 0);
        run.report.tracks_lost += 7;
        run.report.offered += 1;
        let sim = failover_summary(&spec, &run).sim;
        assert_eq!(sim.broken, 8);
        assert!(sim.violations[0].starts_with("7 tracks lost"));
    }

    #[test]
    fn the_hand_built_shards_equal_the_fleet_at_any_thread_count() {
        let spec = tiny(300);
        let serial = sharded_serial_pass(&spec, 4);
        assert_eq!(serial.sim.violations, Vec::<String>::new());
        assert_eq!(sharded_pass(&spec, 4).sim, serial.sim);
        let mut tracer = Tracer::new();
        let mut layers = Layers::new();
        assert_eq!(
            sharded_trace(&spec, 4, serial.wall_s, &mut tracer, &mut layers).sim,
            serial.sim
        );
        assert_eq!(layers["exec.threads"], host_threads() as f64);
        assert!(layers["reliability.mc_trials_per_s"] > 0.0);
    }
}
