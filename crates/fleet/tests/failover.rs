//! Failover-equivalence properties of the fleet tier.
//!
//! The headline contract: a *single* node failure under replicated
//! placement loses zero tracks, re-routed streams see hiccups bounded
//! by the consensus commit gap, and the re-route target is exactly the
//! right ring neighbor — the node-level image of the paper's IB
//! "shift one right" invariant that `mms-sched`'s single-server tests
//! pin down at disk level.

use mms_fleet::{
    fleet_mttds, fleet_mttf, Fleet, FleetBuilder, FleetCheck, FleetError, FleetEvent, NodeId,
    ShardedLoad,
};
use mms_server::disk::{DiskId, ReliabilityParams};
use mms_server::telemetry::{HealthModel, Level, Recorder};
use mms_server::{Args, Parallelism, RunConfig};
use mms_sim::{FailureEvent, SplitMix64, StepMode};
use proptest::prelude::*;

/// The corpus-wide bound on a failover's decree-commit gap.
const GAP_BOUND: u64 = 64;

fn build_fleet(nodes: usize, movies: usize, tracks: u64, seed: u64) -> Fleet {
    FleetBuilder::new(nodes)
        .catalog(movies, tracks)
        .control_seed(seed)
        .build()
        .expect("standard fleet geometry always builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Zero tracks lost and bounded hiccups for any single node
    /// failure, node index, fleet size, and traffic seed.
    #[test]
    fn single_node_failure_loses_nothing(
        nodes in 3usize..7,
        victim_offset in 0usize..7,
        fail_at in 20u64..120,
        seed in 0u64..1_000,
    ) {
        let victim = victim_offset % nodes;
        let mut fleet = build_fleet(nodes, 2 * nodes, 300, seed);
        fleet.inject(FleetEvent::fail_node(fail_at, victim))
            .expect("future node failure enqueues");
        let mut rng = SplitMix64::new(seed);
        let report = fleet
            .run_with_traffic(fail_at + 300, 1.0, 0.271, &mut rng)
            .expect("single failure must never surface a hard error");
        let m = fleet.metrics();
        prop_assert_eq!(report.tracks_lost, 0, "replication must absorb one failure");
        prop_assert_eq!(m.tracks_lost, 0);
        prop_assert_eq!(m.data_loss_events, 0);
        prop_assert!(
            m.max_failover_gap <= GAP_BOUND,
            "failover waited {} cycles on consensus (bound {})",
            m.max_failover_gap, GAP_BOUND
        );
        prop_assert_eq!(fleet.stalled_sessions(), 0, "quorum held; no stream may stall");
        // The committed view agrees with the process view.
        prop_assert!(!fleet.control().view()[victim]);
    }

    /// The node-level IB-shift invariant: with node `v` down, every
    /// admission routes to the object's primary — except objects
    /// primary on `v`, which land on exactly `v+1` (their chained
    /// secondary), mirroring `PlacementMap::route`'s single-node
    /// guarantee through the whole fleet stack.
    #[test]
    fn failed_load_shifts_one_right(
        nodes in 3usize..7,
        victim_offset in 0usize..7,
        seed in 0u64..1_000,
    ) {
        let victim = victim_offset % nodes;
        let mut fleet = build_fleet(nodes, 3 * nodes, 300, seed);
        fleet.inject(FleetEvent::fail_node(0, victim))
            .expect("immediate node failure applies");
        // Let the NodeDown decree commit so routing state is settled.
        fleet.run(GAP_BOUND).expect("no data loss possible with no streams");
        for &object in fleet.placement().objects().to_vec().iter() {
            let primary = fleet.placement().primary(object)
                .expect("catalog object has a primary");
            let id = fleet.admit(object).expect("fleet has capacity for one stream each");
            let served = fleet.session_node(id).expect("admitted stream is live");
            if primary == NodeId(victim) {
                prop_assert_eq!(
                    served,
                    NodeId((victim + 1) % nodes),
                    "failed node's load must land on its right neighbor"
                );
            } else {
                prop_assert_eq!(served, primary);
            }
            fleet.release(id);
        }
    }
}

/// Adjacent double fault: replication is exhausted and the loss is the
/// *typed* verdict, not a panic or a silent zero.
#[test]
fn adjacent_double_fault_is_typed_data_loss() {
    let mut fleet = build_fleet(5, 10, 400, 7);
    fleet
        .inject(FleetEvent::fail_node(30, 1))
        .expect("enqueue first failure");
    fleet
        .inject(FleetEvent::fail_node(90, 2))
        .expect("enqueue adjacent failure");
    let mut rng = SplitMix64::new(7);
    let report = fleet
        .run_with_traffic(400, 2.0, 0.271, &mut rng)
        .expect("traffic runner absorbs data-loss verdicts");
    assert!(
        report.tracks_lost > 0,
        "both replicas down must lose the in-flight remainders"
    );
    assert_eq!(fleet.metrics().tracks_lost, report.tracks_lost);
    assert!(fleet.metrics().data_loss_events > 0);
}

/// The typed error surfaces from `step` itself when stepping manually.
#[test]
fn step_surfaces_data_loss_verdict() {
    let mut fleet = build_fleet(5, 10, 400, 11);
    // Seed streams everywhere, then kill an adjacent pair.
    let objects = fleet.placement().objects().to_vec();
    for &o in &objects {
        fleet.admit(o).expect("initial catalog admissions fit");
    }
    fleet
        .inject(FleetEvent::fail_node(5, 1))
        .expect("enqueue first failure");
    fleet
        .inject(FleetEvent::fail_node(40, 2))
        .expect("enqueue adjacent failure");
    let mut lost = 0u64;
    for _ in 0..200 {
        match fleet.step() {
            Ok(()) => {}
            Err(FleetError::DataLoss { tracks }) => lost += tracks,
            Err(e) => panic!("unexpected fleet error: {e}"),
        }
    }
    assert!(
        lost > 0,
        "adjacent double fault with live streams loses data"
    );
    assert_eq!(fleet.metrics().tracks_lost, lost);
}

/// An event naming a node outside the ring is refused by `inject`, due
/// or not, for all three kinds: nothing is applied or queued, and the
/// fleet's cycle is unchanged.
#[test]
fn inject_refuses_a_node_outside_the_ring() {
    let mut fleet = build_fleet(4, 8, 200, 3);
    fleet.run(5).expect("healthy run");
    for event in [
        FleetEvent::fail_node(9, 9),
        FleetEvent::fail_node(5, 4),
        FleetEvent::repair_node(9, 4),
        FleetEvent::disk(9, 9, FailureEvent::fail(9, DiskId(1))),
    ] {
        let err = fleet.inject(event).expect_err("no such node");
        assert!(matches!(err, FleetError::Config(_)), "{event:?}: {err}");
        assert_eq!(fleet.cycle(), 5, "{event:?}");
    }
    fleet.run(10).expect("nothing was queued");
    assert_eq!(fleet.metrics().node_failures, 0);
}

/// Sharded million-session-style runs are bit-identical at 1, 2, and
/// 8 threads (the workspace determinism contract, fleet edition).
#[test]
fn sharded_sessions_thread_count_invariant() {
    let run = |threads: usize| {
        let mut fleet = FleetBuilder::new(4)
            .catalog(8, 200)
            .step_mode(StepMode::EventHorizon)
            .parallelism(Parallelism::threads(threads))
            .control_seed(42)
            .build()
            .expect("standard fleet geometry always builds");
        fleet
            .run_sharded_sessions(&ShardedLoad {
                cycles: 3_000,
                load: 0.9,
                seed: 42,
                ..ShardedLoad::default()
            })
            .expect("failure-free sharded run cannot error")
    };
    let base = run(1);
    assert!(base.offered > 0 && base.admitted > 0);
    for threads in [2, 8] {
        assert_eq!(
            run(threads),
            base,
            "shard report diverged at {threads} threads"
        );
    }
}

/// `RunConfig` drives the fleet builder the same way it drives
/// `ServerBuilder`: threads and step mode from one object.
#[test]
fn run_config_flows_into_fleet_builder() {
    let argv = ["--threads", "2", "--fast-forward"].map(String::from);
    let args = Args::parse(argv, &[RunConfig::FLAGS]).expect("valid flags parse");
    let cfg = RunConfig::from_args(&args).expect("valid flags parse");
    let mut fleet = FleetBuilder::new(3)
        .catalog(6, 120)
        .run_config(&cfg)
        .build()
        .expect("standard fleet geometry always builds");
    // EventHorizon propagated to every node.
    for n in 0..3 {
        assert_eq!(fleet.node(n).step_mode(), StepMode::EventHorizon);
    }
    let report = fleet
        .run_sharded_sessions(&ShardedLoad {
            cycles: 500,
            ..ShardedLoad::default()
        })
        .expect("failure-free sharded run cannot error");
    assert!(report.offered > 0);
}

/// Fleet-level MTTF (chained declustering: adjacent pair is fatal)
/// must exceed fleet-level MTTDS at the same size only when quorum is
/// harder to break than adjacency — sanity-pin both estimators.
#[test]
fn fleet_reliability_estimators_are_sane() {
    // Stress-level node reliability (not the paper's disk figures):
    // with MTTF/MTTR = 10 a trial terminates in a handful of events,
    // where the paper's 300000:1 ratio needs ~1e5 events per trial —
    // the ordering property under test is ratio-independent.
    let rel = ReliabilityParams {
        mttf: mms_server::disk::Time::from_hours(1_000.0),
        mttr: mms_server::disk::Time::from_hours(100.0),
    };
    let mut rng = SplitMix64::new(1995);
    let mttf = fleet_mttf(4, rel, &mut rng, 200, Parallelism::Sequential);
    let mttds = fleet_mttds(4, rel, &mut rng, 200, Parallelism::Sequential);
    assert!(mttf.mean.as_hours() > 0.0);
    assert!(mttds.mean.as_hours() > 0.0);
    // With 4 nodes, quorum loss needs 2 concurrent failures anywhere
    // (6 pairs) while data loss needs an *adjacent* pair (4 of the 6):
    // MTTDS must not exceed MTTF beyond Monte-Carlo noise.
    assert!(
        mttds.mean.as_hours() <= mttf.mean.as_hours() * 1.25,
        "MTTDS {} h implausibly above MTTF {} h",
        mttds.mean.as_hours(),
        mttf.mean.as_hours()
    );
}

/// The corpus checks referenced by CI exist and carry the variants the
/// workflow greps for (compile-time pin against silent renames).
#[test]
fn corpus_check_surface_is_stable() {
    let _ = [
        FleetCheck::NoTracksLost,
        FleetCheck::ExpectDataLoss,
        FleetCheck::ExpectStalledStreams,
        FleetCheck::BoundedFailoverHiccups(GAP_BOUND),
    ];
    let (text, passed) = mms_fleet::scenario::corpus(true).render(&RunConfig {
        threads: Parallelism::Sequential,
        ..RunConfig::default()
    });
    assert!(passed, "fleet corpus must hold in quick mode:\n{text}");
}

/// The health panel over the fleet corpus is a view of the nodes'
/// records: its cycles, hiccups and degraded exposure are the sums of
/// every node's `Metrics`, case by case and for the corpus run the way
/// `mms-ctl fleet corpus --quick --slo` runs it.
#[test]
fn the_fleet_corpus_panel_reads_the_nodes_records() {
    let corpus = mms_fleet::scenario::corpus(true);
    let mut nodes_total = (0, 0, 0);
    for case in &corpus.cases {
        let recorder = Recorder::new(Level::Info);
        let mut fleet = build_fleet(case.nodes, case.movies, case.tracks, case.seed);
        {
            let _guard = recorder.install();
            for &event in &case.events {
                fleet.inject(event).expect("corpus events apply");
            }
            let mut rng = SplitMix64::new(case.seed);
            fleet
                .run_with_traffic(case.cycles, case.rate, case.theta, &mut rng)
                .expect("corpus traffic runs");
        }
        let mut nodes = (0, 0, 0);
        for n in 0..fleet.nodes() {
            let m = fleet.node(n).metrics();
            nodes.0 += m.cycles;
            nodes.1 += m.total_hiccups();
            nodes.2 += m.degraded_cluster_cycles;
        }
        let health = HealthModel::new(&recorder.snapshot(), &recorder.take_events());
        let panel = (health.cycles, health.hiccups, health.degraded_cycles);
        assert_eq!(panel, nodes, "{}", case.name);
        nodes_total.0 += nodes.0;
        nodes_total.1 += nodes.1;
        nodes_total.2 += nodes.2;
    }

    let recorder = Recorder::new(Level::Info);
    let reports = {
        let _guard = recorder.install();
        corpus.reports(&RunConfig::default())
    };
    assert_eq!(reports.len(), corpus.cases.len());
    let health = HealthModel::new(&recorder.snapshot(), &recorder.take_events());
    let panel = (health.cycles, health.hiccups, health.degraded_cycles);
    assert_eq!(panel, nodes_total);
}
