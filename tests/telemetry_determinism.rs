//! Telemetry must not break the worker pool's determinism contract:
//! with a collector installed, a parallelized workload's JSONL export —
//! events *and* final metric snapshot — is byte-identical at 1, 2, and
//! 8 threads. (Only `trace`-level records are exempt; they carry
//! scheduling-dependent pool diagnostics by design.)

use ft_media_server::disk::{ReliabilityParams, Time};
use ft_media_server::exec::Parallelism;
use ft_media_server::layout::{BandwidthClass, MediaObject, ObjectId};
use ft_media_server::reliability::{CatastropheRule, MonteCarlo};
use ft_media_server::sim::{
    run_batch_seeded, AdmissionPolicy, ArrivalProcess, DataMode, SessionEngine,
};
use ft_media_server::telemetry::{jsonl, Level, Recorder};
use ft_media_server::{Scheme, ServerBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fast_rel() -> ReliabilityParams {
    ReliabilityParams {
        mttf: Time::from_hours(1_000.0),
        mttr: Time::from_hours(1.0),
    }
}

/// Run the Monte-Carlo fan-out under a recorder and export everything
/// it collected as JSONL bytes.
fn traced_run(par: Parallelism, level: Level) -> Vec<u8> {
    let recorder = Recorder::new(level);
    let guard = recorder.install();
    let mc = MonteCarlo {
        d: 20,
        rel: fast_rel(),
        rule: CatastropheRule::SameCluster { c: 5 },
    };
    let stats = mc.run_par(&mut StdRng::seed_from_u64(2026), 96, par);
    assert_eq!(stats.trials, 96);
    drop(guard);

    let mut out = Vec::new();
    jsonl::write_all(&mut out, &recorder.take_events(), &recorder.snapshot()).unwrap();
    out
}

#[test]
fn montecarlo_jsonl_is_byte_identical_at_1_2_and_8_threads() {
    let seq = traced_run(Parallelism::Sequential, Level::Debug);
    assert!(!seq.is_empty(), "debug run must produce records");
    // One "mc.trial" event per trial, absorbed in index order.
    let trials = seq
        .split(|&b| b == b'\n')
        .filter(|l| l.windows(10).any(|w| w == b"\"mc.trial\""))
        .count();
    assert_eq!(trials, 96);

    for threads in [2, 8] {
        let par = Parallelism::threads(threads);
        assert_eq!(
            seq,
            traced_run(par, Level::Debug),
            "{threads}-thread JSONL diverged from sequential"
        );
    }
}

/// A fan-out of session-engine runs (one per scheme, stochastic
/// arrivals, VBR, abandonment) under a recorder, exported as JSONL.
fn traced_workload_run(par: Parallelism) -> Vec<u8> {
    let recorder = Recorder::new(Level::Debug);
    let guard = recorder.install();
    let grid: Vec<(Scheme, f64)> = vec![
        (Scheme::StreamingRaid, 2.0),
        (Scheme::StaggeredGroup, 0.6),
        (Scheme::NonClustered, 0.6),
        (Scheme::ImprovedBandwidth, 2.0),
    ];
    let offered = run_batch_seeded(
        par,
        &mut StdRng::seed_from_u64(7),
        &grid,
        |&(scheme, rate), mut rng| {
            let disks = if scheme == Scheme::ImprovedBandwidth {
                8
            } else {
                10
            };
            let mut server = ServerBuilder::new(scheme)
                .disks(disks)
                .parity_group(5)
                .object(MediaObject::new(
                    ObjectId(0),
                    "m",
                    80,
                    BandwidthClass::Mpeg1,
                ))
                .data_mode(DataMode::MetadataOnly)
                .build()
                .expect("server builds");
            let nominal = server.cycle_config().session_cycles(80);
            let mut engine = SessionEngine::new(
                vec![(ObjectId(0), nominal)],
                0.271,
                ArrivalProcess::poisson(rate),
                AdmissionPolicy::Reject,
            )
            .with_vbr(vec![0.75, 1.0, 1.25])
            .with_abandonment(0.2);
            server
                .run_sessions(120, &mut engine, &mut rng)
                .expect("run");
            engine.stats().offered
        },
    );
    assert!(offered.iter().sum::<u64>() > 100, "workload barely ran");
    drop(guard);

    let mut out = Vec::new();
    jsonl::write_all(&mut out, &recorder.take_events(), &recorder.snapshot()).unwrap();
    out
}

#[test]
fn workload_jsonl_is_byte_identical_at_1_2_and_8_threads() {
    let seq = traced_workload_run(Parallelism::threads(1));
    assert!(!seq.is_empty(), "workload run must produce records");
    for threads in [2, 8] {
        assert_eq!(
            seq,
            traced_workload_run(Parallelism::threads(threads)),
            "{threads}-thread workload JSONL diverged from 1-thread"
        );
    }
}

#[test]
fn metrics_survive_even_below_event_level() {
    // At Error level no debug events are kept, but the registry still
    // aggregates — and stays thread-count independent.
    let seq = traced_run(Parallelism::Sequential, Level::Error);
    let text = String::from_utf8(seq.clone()).unwrap();
    assert!(
        text.contains("\"mc.ttf_secs\""),
        "histogram missing from snapshot"
    );
    assert!(
        !text.contains("\"mc.trial\""),
        "events above the collection level leaked"
    );
    assert_eq!(seq, traced_run(Parallelism::threads(8), Level::Error));
}
