//! Property-based equivalence of the event-horizon fast path and of
//! counted plans: random admit/release/run/sessions/fail/repair scripts
//! drive three copies of the same system — the itemised reference, stepping cycle by
//! cycle and retaining its whole trace so every plan has a reader; the
//! same mode with no reader, whose healthy plans are counted; and
//! `StepMode::EventHorizon` — and every observable must match exactly
//! after every op, for all six configurations (the four server schemes,
//! plus the whole-group scheduler at `k′ = 2` and the unprotected baseline
//! at the `Simulator` level).
//!
//! `Op::Sessions` runs `run_sessions`, the arrival-driven loop, on a
//! session engine each copy builds identically and seeds alike; its
//! streams come and go among the script's own admissions, releases and
//! faults, and the engine's counters must match too.
//!
//! `Op::Run(1)` is over-weighted so the horizon-1 case — a limit one
//! cycle away — is exercised in nearly every script. A window may be any
//! length and opens on the cycle after an admission, so the fast path
//! *takes* that one cycle: whenever a run starts inside a stability
//! window whose cycles the scheduler vouches for, the event-horizon copy
//! must have skipped something, `Run(1)` included.

use ft_media_server::disk::{Bandwidth, DiskId, DiskParams};
use ft_media_server::layout::{
    BandwidthClass, Catalog, ClusteredLayout, Geometry, MediaObject, ObjectId,
};
use ft_media_server::sched::SteadyCycle;
use ft_media_server::sched::{
    CycleConfig, GroupedScheduler, NonClusteredScheduler, SchemeScheduler, StreamId,
};
use ft_media_server::sim::StepMode::{CycleByCycle, EventHorizon};
use ft_media_server::sim::{
    AdmissionPolicy, ArrivalProcess, DataMode, FailureEvent, Metrics, ObjectDirectory,
    SessionEngine, Simulator, SplitMix64, StepMode,
};
use ft_media_server::telemetry::{Level, Recorder, Value};
use ft_media_server::{MultimediaServer, Scheme, ServerBuilder};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Advance the clock; `Run(1)` is a limit one cycle away.
    Run(u64),
    /// Advance the clock under the copy's session engine.
    Sessions(u64),
    /// Admit a viewer on the catalog object at this index (mod catalog).
    Admit(u8),
    /// Release the live stream at this index (mod live count).
    Release(u8),
    /// Fail this disk (mod array width), if the array is healthy.
    Fail(u8),
    /// Repair the one failed disk, if any.
    Repair,
}

/// Ops in a script, and the most cycles one `Run` takes.
const MAX_OPS: usize = 23;
const MAX_RUN: u64 = 40;

/// The server copies' catalog, most popular first: name and minutes.
const MOVIES: [(&str, f64); 2] = [("short", 0.02), ("long", 0.2)];
/// The length of the one title of the `Simulator`-level copies.
const SIM_TRACKS: u64 = 120;

/// The copies every script drives: a step mode, and whether the copy
/// retains its whole trace. The first is the itemised reference.
const COPIES: [(StepMode, bool); 3] = [
    (CycleByCycle, true),
    (CycleByCycle, false),
    (EventHorizon, false),
];

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        // The vendored `prop_oneof!` is unweighted; repeated entries
        // skew the mix toward clock advances and one-cycle runs.
        prop_oneof![
            (1u64..=MAX_RUN).prop_map(Op::Run),
            (1u64..=MAX_RUN).prop_map(Op::Run),
            (1u64..=MAX_RUN).prop_map(Op::Run),
            (1u64..=MAX_RUN).prop_map(Op::Sessions),
            Just(Op::Run(1)),
            Just(Op::Run(1)),
            any::<u8>().prop_map(Op::Admit),
            any::<u8>().prop_map(Op::Admit),
            any::<u8>().prop_map(Op::Release),
            any::<u8>().prop_map(Op::Fail),
            Just(Op::Repair),
        ],
        1..=MAX_OPS,
    )
}

/// Everything a run can be observed to have computed.
fn observe(m: &Metrics, cycle: u64) -> (u64, Vec<u64>, u64, usize) {
    (
        cycle,
        vec![
            m.cycles,
            m.tracks_read,
            m.delivered,
            m.reconstructed,
            m.verified,
            m.hiccups_failed_disk,
            m.hiccups_displaced,
            m.hiccups_mid_cycle,
            m.service_degradations,
            m.streams_finished,
            m.catastrophes,
            m.rebuild_reads,
            m.rebuilds_completed,
        ],
        m.disk_busy.as_secs().to_bits(),
        m.buffer_peak,
    )
}

/// A server copy's titles with their track counts, as the builder
/// sized them.
fn server_titles(server: &MultimediaServer) -> Vec<(ObjectId, u64)> {
    let track_size = server.cycle_config().disk.track_size;
    let sized = |(&id, (name, minutes))| {
        let movie = MediaObject::movie(id, name, minutes, BandwidthClass::Mpeg1, track_size);
        (id, movie.tracks)
    };
    server.objects().iter().zip(MOVIES).map(sized).collect()
}

/// The session engine every copy of a script runs: Poisson arrivals a
/// quarter of a cycle apart over `titles` (`(object, tracks)`, most
/// popular first), each held for its title's length on a three-rung
/// ladder, a quarter of the viewers leaving early.
fn engine(
    config: &CycleConfig,
    titles: &[(ObjectId, u64)],
    seed: u64,
) -> (SessionEngine, SplitMix64) {
    let catalog = titles
        .iter()
        .map(|&(id, tracks)| (id, config.session_cycles(tracks)))
        .collect();
    let engine = SessionEngine::new(
        catalog,
        0.271,
        ArrivalProcess::poisson(0.25),
        AdmissionPolicy::Reject,
    )
    .with_vbr(vec![0.5, 1.0, 1.5])
    .with_abandonment(0.25);
    (engine, SplitMix64::new(seed))
}

/// The engine's counters, for the trace.
fn session_counts(engine: &SessionEngine) -> String {
    let s = engine.stats();
    format!(
        "sessions {} {} {} {}",
        s.offered, s.admitted, s.rejected, s.released_early
    )
}

/// Cycles the fast path skipped since the last call, summed from the
/// `fast_forward` events an `Info`-level recorder collected.
fn take_skipped(recorder: &Recorder) -> u64 {
    let cycles = |e: &ft_media_server::telemetry::EventRecord| match e.field("cycles") {
        Some(&Value::U64(n)) => n,
        other => panic!("fast_forward event without a cycle count: {other:?}"),
    };
    recorder
        .take_events()
        .iter()
        .filter(|e| e.name == "fast_forward")
        .map(cycles)
        .sum()
}

/// Does the scheduler stand in a stability window whose first cycle it
/// vouches for?
fn window_open<S: SchemeScheduler>(scheduler: &S, cycle: u64) -> bool {
    scheduler.plan_stability(cycle).stable > 0
        && scheduler.steady_cycle(cycle, &mut SteadyCycle::default())
}

/// A run that starts inside an open window must be taken by the fast
/// path — at any length, one cycle included — and never by the stepper.
fn check_taken(mode: StepMode, open: bool, skipped: u64, what: &str) {
    match mode {
        StepMode::CycleByCycle => assert_eq!(skipped, 0, "{what}: the stepper skipped"),
        StepMode::EventHorizon => {
            assert!(!open || skipped > 0, "{what}: an open window was stepped")
        }
    }
}

/// Run a script against a server, recording each op's outcome and the
/// observables after it, so the copies can be compared decision by
/// decision, not just on final metrics.
fn drive_server(server: &mut MultimediaServer, ops: &[Op], disks: u32, seed: u64) -> Vec<String> {
    let (mut engine, mut rng) = engine(server.cycle_config(), &server_titles(server), seed);
    let recorder = Recorder::new(Level::Info);
    let _guard = recorder.install();
    let mut live: Vec<StreamId> = Vec::new();
    let mut down: Option<DiskId> = None;
    // An injected event fires on the next step, which the run must take.
    let mut event_due = false;
    let mut trace = Vec::new();
    for op in ops {
        match op {
            Op::Run(n) => {
                let scheduler = server.simulator().scheduler();
                let open = !event_due && window_open(scheduler, server.cycle());
                take_skipped(&recorder);
                server.run(*n).expect("run never fails without data loss");
                let scheme = server.simulator().scheduler().scheme();
                let what = format!("{scheme:?} run {n} at {}", server.cycle());
                check_taken(server.step_mode(), open, take_skipped(&recorder), &what);
                event_due = false;
            }
            Op::Sessions(n) => {
                take_skipped(&recorder);
                server
                    .run_sessions(*n, &mut engine, &mut rng)
                    .expect("run never fails without data loss");
                let what = format!("sessions {n} at {}", server.cycle());
                check_taken(server.step_mode(), false, take_skipped(&recorder), &what);
                trace.push(session_counts(&engine));
                event_due = false;
            }
            Op::Admit(i) => {
                let obj = server.objects()[*i as usize % server.objects().len()];
                match server.admit(obj) {
                    Ok(id) => {
                        live.push(id);
                        trace.push(format!("admit {id:?}"));
                    }
                    Err(e) => trace.push(format!("admit err {e:?}")),
                }
            }
            Op::Release(i) => {
                if !live.is_empty() {
                    let id = live.remove(*i as usize % live.len());
                    trace.push(format!("release {id:?} {}", server.release(id)));
                }
            }
            Op::Fail(d) => {
                if down.is_none() {
                    let disk = DiskId(u32::from(*d) % disks);
                    let ok = server
                        .inject(FailureEvent::fail(server.cycle(), disk))
                        .is_ok();
                    trace.push(format!("fail {disk:?} {ok}"));
                    if ok {
                        down = Some(disk);
                        event_due = true;
                    }
                }
            }
            Op::Repair => {
                if let Some(disk) = down.take() {
                    let ok = server
                        .inject(FailureEvent::repair(server.cycle(), disk))
                        .is_ok();
                    trace.push(format!("repair {disk:?} {ok}"));
                    event_due |= ok;
                }
            }
        }
        trace.push(format!("{:?}", observe(server.metrics(), server.cycle())));
    }
    trace
}

/// Same script driver for a bare `Simulator` (grouped / baseline).
fn drive_sim<S: SchemeScheduler>(
    sim: &mut Simulator<S>,
    ops: &[Op],
    disks: u32,
    seed: u64,
) -> Vec<String> {
    let titles = [(ObjectId(0), SIM_TRACKS)];
    let (mut engine, mut rng) = engine(sim.scheduler().config(), &titles, seed);
    let recorder = Recorder::new(Level::Info);
    let _guard = recorder.install();
    let mut live: Vec<StreamId> = Vec::new();
    let mut down: Option<DiskId> = None;
    let mut trace = Vec::new();
    for op in ops {
        match op {
            Op::Run(n) => {
                let open = window_open(sim.scheduler(), sim.cycle());
                take_skipped(&recorder);
                sim.run(*n).expect("run never fails without data loss");
                let what = format!("run {n} at {}", sim.cycle());
                check_taken(sim.step_mode(), open, take_skipped(&recorder), &what);
            }
            Op::Sessions(n) => {
                take_skipped(&recorder);
                sim.run_sessions(*n, &mut engine, &mut rng)
                    .expect("run never fails without data loss");
                let what = format!("sessions {n} at {}", sim.cycle());
                check_taken(sim.step_mode(), false, take_skipped(&recorder), &what);
                trace.push(session_counts(&engine));
            }
            Op::Admit(_) => match sim.admit(ObjectId(0)) {
                Ok(id) => {
                    live.push(id);
                    trace.push(format!("admit {id:?}"));
                }
                Err(e) => trace.push(format!("admit err {e:?}")),
            },
            Op::Release(i) => {
                if !live.is_empty() {
                    let id = live.remove(*i as usize % live.len());
                    trace.push(format!("release {id:?} {}", sim.release(id)));
                }
            }
            Op::Fail(d) => {
                if down.is_none() {
                    let disk = DiskId(u32::from(*d) % disks);
                    let ok = sim.fail_disk_now(disk, false).is_ok();
                    trace.push(format!("fail {disk:?} {ok}"));
                    if ok {
                        down = Some(disk);
                    }
                }
            }
            Op::Repair => {
                if let Some(disk) = down.take() {
                    let ok = sim.repair_disk_now(disk).is_ok();
                    trace.push(format!("repair {disk:?} {ok}"));
                }
            }
        }
        trace.push(format!("{:?}", observe(sim.metrics(), sim.cycle())));
    }
    trace
}

/// Retain every plan a script can step, so each one has a reader.
fn retain_whole_trace<S: SchemeScheduler>(sim: &mut Simulator<S>, traced: bool) {
    if traced {
        sim.keep_trace(MAX_OPS * MAX_RUN as usize);
    }
}

/// A copy retaining its trace kept a plan for every cycle, none counted:
/// it is the itemised reference.
fn assert_reference_itemised<S: SchemeScheduler>(sim: &Simulator<S>, traced: bool) {
    if traced {
        assert_eq!(sim.trace().len() as u64, sim.cycle(), "every plan retained");
        assert!(sim.trace().iter().all(|plan| !plan.is_counted()));
    }
}

fn build_server(scheme: Scheme, mode: StepMode, traced: bool) -> MultimediaServer {
    let disks = if scheme == Scheme::ImprovedBandwidth {
        8
    } else {
        10
    };
    let mut builder = ServerBuilder::new(scheme)
        .disks(disks)
        .parity_group(5)
        .data_mode(DataMode::MetadataOnly);
    for (name, minutes) in MOVIES {
        builder = builder.movie(name, minutes, BandwidthClass::Mpeg1);
    }
    let mut server = builder.build().expect("fixed geometry builds");
    server.set_step_mode(mode);
    retain_whole_trace(server.simulator_mut(), traced);
    server
}

/// A `Simulator` over a clustered catalog for the configurations the
/// server builder does not expose (grouped `k' | C−1`, the unprotected
/// baseline at `k = k' = 1`).
fn build_sim<S, F>(
    tracks: u64,
    k: usize,
    k_prime: usize,
    make: F,
    (mode, traced): (StepMode, bool),
) -> Simulator<S>
where
    S: SchemeScheduler,
    F: FnOnce(CycleConfig, Catalog<ClusteredLayout>) -> S,
{
    let geo = Geometry::clustered(10, 5).unwrap();
    let mut catalog = Catalog::new(ClusteredLayout::new(geo), 100_000);
    catalog
        .add(MediaObject::new(
            ObjectId(0),
            "m",
            tracks,
            BandwidthClass::Mpeg1,
        ))
        .unwrap();
    let cfg = CycleConfig::new(
        DiskParams::paper_table1(),
        Bandwidth::from_megabits(1.5),
        k,
        k_prime,
    );
    let dir = ObjectDirectory::new([(ObjectId(0), tracks)], 4);
    let mut sim = Simulator::new(
        make(cfg, catalog),
        DiskParams::paper_table1(),
        10,
        DataMode::MetadataOnly,
        dir,
    );
    sim.set_step_mode(mode);
    retain_whole_trace(&mut sim, traced);
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SR, SG, NC, and IB: a random script drives the itemised
    /// reference, a counted copy and an event-horizon server to
    /// bit-identical outcomes.
    #[test]
    fn random_scripts_are_mode_independent_for_server_schemes(ops in arb_ops(), seed in any::<u64>()) {
        for scheme in Scheme::ALL {
            let disks = if scheme == Scheme::ImprovedBandwidth { 8 } else { 10 };
            let traces: Vec<Vec<String>> = COPIES
                .iter()
                .map(|&(mode, traced)| {
                    let mut server = build_server(scheme, mode, traced);
                    let trace = drive_server(&mut server, &ops, disks, seed);
                    assert_reference_itemised(server.simulator(), traced);
                    trace
                })
                .collect();
            for (copy, trace) in COPIES.iter().zip(&traces).skip(1) {
                prop_assert_eq!(&traces[0], trace, "{:?} {:?}: diverged", scheme, copy);
            }
        }
    }

    /// The grouped and unprotected-baseline schedulers, driven at the
    /// `Simulator` level, are mode-independent too.
    #[test]
    fn random_scripts_are_mode_independent_for_grouped_and_baseline(ops in arb_ops(), seed in any::<u64>()) {
        let grouped = |cfg, cat| GroupedScheduler::new(cfg, cat);
        let baseline = |cfg, cat| NonClusteredScheduler::unprotected(cfg, cat);
        let traces: Vec<[Vec<String>; 2]> = COPIES
            .iter()
            .map(|&copy| {
                let mut sim = build_sim(SIM_TRACKS, 4, 2, grouped, copy);
                let grouped_trace = drive_sim(&mut sim, &ops, 10, seed);
                assert_reference_itemised(&sim, copy.1);
                let mut sim = build_sim(SIM_TRACKS, 1, 1, baseline, copy);
                let baseline_trace = drive_sim(&mut sim, &ops, 10, seed);
                assert_reference_itemised(&sim, copy.1);
                [grouped_trace, baseline_trace]
            })
            .collect();
        for (copy, trace) in COPIES.iter().zip(&traces).skip(1) {
            prop_assert_eq!(&traces[0][0], &trace[0], "grouped {:?}: diverged", copy);
            prop_assert_eq!(&traces[0][1], &trace[1], "baseline {:?}: diverged", copy);
        }
    }
}

/// The window opens on the cycle after an admission — not a rotation
/// later — is taken at any length, and re-opens once a released stream
/// has drained. Staggered-group and Non-clustered have the long
/// rotation (8 cycles here) that used to swallow such windows whole.
#[test]
fn a_window_opens_on_the_cycle_after_an_admission_and_after_a_release_drains() {
    for scheme in [Scheme::StaggeredGroup, Scheme::NonClustered] {
        let mut server = build_server(scheme, EventHorizon, false);
        let recorder = Recorder::new(Level::Info);
        let _guard = recorder.install();
        let run = |server: &mut MultimediaServer, cycles: u64| {
            server.run(cycles).expect("healthy run");
            take_skipped(&recorder)
        };
        let long = server.objects()[1];
        server.admit(long).expect("empty server admits");
        assert_eq!(
            run(&mut server, 1),
            0,
            "{scheme:?}: a warm-up cycle is planned"
        );
        assert_eq!(run(&mut server, 1), 1, "{scheme:?}: a limit one cycle away");
        assert_eq!(run(&mut server, 5), 5, "{scheme:?}: less than a rotation");
        let second = server.admit(long).expect("room for two");
        assert_eq!(run(&mut server, 1), 0, "{scheme:?}: the newcomer's warm-up");
        assert_eq!(
            run(&mut server, 1),
            1,
            "{scheme:?}: the cycle after an admission"
        );
        // Two cycles into its first group: the rest of it drains.
        assert!(server.release(second));
        assert_eq!(
            run(&mut server, 1),
            0,
            "{scheme:?}: a released stream drains"
        );
        let skipped = run(&mut server, 12);
        assert!(
            (6..12).contains(&skipped),
            "{scheme:?}: skipped {skipped} of 12"
        );
    }
}
