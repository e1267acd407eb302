//! End-to-end observability drills: the flight recorder's black-box
//! dump is byte-identical at every thread count and replays a stream's
//! causal timeline; every corpus run's degraded exposure (the paper's
//! Eq. 6 MTTDS integrand) equals the integral of its mode-transition
//! timeline; and the [`HealthModel`] panel is the sum of the corpus
//! reports at every collection level.

use mms_server::scenario::{corpus, ModeTransition, Report, ScenarioReport};
use mms_server::sim::StepMode;
use mms_server::telemetry::{flight, FlightSnapshot, HealthModel, Level, Recorder};
use mms_server::{Parallelism, RunConfig};
use std::collections::BTreeMap;

/// Run the double-fault corpus case under an ambient Debug recorder and
/// return the bytes of its flight dump at `capacity` records.
fn double_fault_flight_dump(par: Parallelism, capacity: usize) -> Vec<u8> {
    let case = corpus(true)
        .only("double-fault-same-group")
        .expect("corpus has the double-fault case");
    let recorder = Recorder::new(Level::Debug);
    let reports = {
        let _guard = recorder.install();
        case.reports(&RunConfig {
            threads: par,
            ..RunConfig::default()
        })
    };
    assert!(
        reports[0].iter().all(Report::passed),
        "double-fault case must pass for every scheme"
    );
    let mut out = Vec::new();
    let trigger = flight::dump(&mut out, &recorder.take_events(), capacity)
        .expect("dump to a Vec cannot fail");
    assert_eq!(
        trigger, "data_loss",
        "the typed data-loss error must arm the flight dump"
    );
    out
}

/// A capacity large enough to keep the whole double-fault run.
const WHOLE_RUN: usize = 1 << 16;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn flight_dump_is_byte_identical_across_thread_counts() {
    let seq = double_fault_flight_dump(Parallelism::Sequential, WHOLE_RUN);
    assert_eq!(
        seq,
        double_fault_flight_dump(Parallelism::threads(2), WHOLE_RUN)
    );
    assert_eq!(
        seq,
        double_fault_flight_dump(Parallelism::threads(8), WHOLE_RUN)
    );
}

/// The dump's bytes, FNV-1a 64, at a capacity that keeps the whole run
/// and at one that cuts it to its tail.
#[test]
fn the_double_fault_dump_is_pinned_whole_and_cut_to_its_tail() {
    for (capacity, want) in [(WHOLE_RUN, "d47b8b8dc2cc5bf9"), (64, "9e11636a5eaf0d61")] {
        let dump = double_fault_flight_dump(Parallelism::Sequential, capacity);
        assert_eq!(
            format!("{:016x}", fnv1a(&dump)),
            want,
            "capacity {capacity}"
        );
    }
}

#[test]
fn flight_dump_replays_a_stream_timeline() {
    let dump = double_fault_flight_dump(Parallelism::Sequential, WHOLE_RUN);
    let text = String::from_utf8(dump).expect("dump is valid UTF-8");
    let snap = FlightSnapshot::parse(&text).expect("dump must parse back");
    assert_eq!(snap.trigger.as_deref(), Some("data_loss"));
    assert_eq!(snap.len, snap.records.len());

    // The black box holds the loss verdicts (one per scheme) …
    let losses = snap.records.iter().filter(|r| r.name == "data_loss");
    assert_eq!(losses.count(), 4, "all four schemes lose data");

    // … and the causal chain for any admitted stream: the `admit`
    // anchor first, stamped before the failure cycles.
    let admit = snap
        .records
        .iter()
        .find(|r| r.name == "admit")
        .expect("admissions are on the record");
    let stream = admit
        .field("stream")
        .and_then(|v| v.as_u64())
        .expect("admit events carry the stream id");
    let timeline: Vec<&str> = snap
        .stream_records(stream)
        .map(|r| r.name.as_str())
        .collect();
    assert_eq!(timeline.first(), Some(&"admit"), "{timeline:?}");
    assert!(
        snap.records
            .iter()
            .filter(|r| r.mentions_stream(stream))
            .all(|r| r.cycle >= admit.cycle),
        "nothing mentions a stream before its admission"
    );
}

/// The reference integral: the cluster-cycles out of normal mode that a
/// `mode_transition` timeline states. A cluster's interval opens at its
/// first transition out of `normal` (a deeper one does not restart it)
/// and closes at its return to `normal`, or at `end_cycle`.
fn transition_integral(transitions: &[ModeTransition], end_cycle: u64) -> u64 {
    let mut since = BTreeMap::new();
    let mut total = 0;
    for t in transitions {
        if t.to == "normal" {
            if let Some(start) = since.remove(&t.cluster) {
                total += t.cycle - start;
            }
        } else {
            since.entry(t.cluster).or_insert(t.cycle);
        }
    }
    total + since.values().map(|start| end_cycle - start).sum::<u64>()
}

#[test]
fn the_reference_integral_keeps_the_first_opening_and_closes_at_the_end() {
    let t = |cycle, cluster, to: &str| ModeTransition {
        cycle,
        cluster,
        from: String::new(),
        to: to.to_string(),
    };
    let timeline = [
        t(4, 0, "degraded"),
        t(7, 0, "catastrophic"),
        t(10, 0, "normal"),
        t(12, 1, "degraded"),
    ];
    // Cluster 0: cycles 4..10; cluster 1: 12 up to the end (20).
    assert_eq!(transition_integral(&timeline, 20), 6 + 8);
}

/// Every report of the corpus, run at `level` under an ambient recorder,
/// and the health panel read off that recorder.
fn corpus_with_panel(
    quick: bool,
    level: Level,
    cfg: &RunConfig,
) -> (Vec<ScenarioReport>, HealthModel) {
    let recorder = Recorder::new(level);
    let reports = {
        let _guard = recorder.install();
        corpus(quick).reports(cfg)
    };
    let health = HealthModel::new(&recorder.snapshot(), &recorder.take_events());
    (reports.into_iter().flatten().collect(), health)
}

#[test]
fn every_corpus_run_counts_the_exposure_its_transitions_state() {
    for step_mode in [StepMode::CycleByCycle, StepMode::EventHorizon] {
        let cfg = RunConfig {
            step_mode,
            ..RunConfig::default()
        };
        let (reports, _) = corpus_with_panel(false, Level::Info, &cfg);
        assert_eq!(reports.len(), 41);
        for r in &reports {
            assert_eq!(
                r.degraded_cycles,
                transition_integral(&r.transitions, r.cycles),
                "{} / {} ({step_mode:?}): {:?}",
                r.scenario,
                r.scheme.abbrev(),
                r.transitions
            );
        }
        let total: u64 = reports.iter().map(|r| r.degraded_cycles).sum();
        assert_eq!(total, 3_796, "{step_mode:?}");
    }
}

#[test]
fn the_corpus_panel_is_the_sum_of_its_reports_at_every_level() {
    for level in [Level::Error, Level::Info, Level::Debug] {
        for step_mode in [StepMode::CycleByCycle, StepMode::EventHorizon] {
            let cfg = RunConfig {
                step_mode,
                ..RunConfig::default()
            };
            let (reports, health) = corpus_with_panel(true, level, &cfg);
            let sum = |f: fn(&ScenarioReport) -> u64| reports.iter().map(f).sum::<u64>();
            let panel = (health.cycles, health.hiccups, health.degraded_cycles);
            let want = (
                sum(|r| r.cycles),
                sum(|r| r.tracks_lost),
                sum(|r| r.degraded_cycles),
            );
            assert_eq!(panel, want, "{level:?} {step_mode:?}");
            assert_eq!(panel, (5_172, 381, 3_661), "{level:?} {step_mode:?}");
        }
    }
}

#[test]
fn a_dropped_stream_reaches_the_panel() {
    // Defect (f): the two streams the exhausted buffer server drops
    // emit no `hiccup` event, and the panel used to read 0.
    let recorder = Recorder::new(Level::Info);
    let reports = {
        let _guard = recorder.install();
        let case = corpus(true)
            .only("buffer-exhaustion")
            .expect("corpus has the buffer-exhaustion case");
        case.reports(&RunConfig::default())
    };
    let report = &reports[0][0];
    assert_eq!((report.dropped, report.tracks_lost), (2, 2));
    let health = HealthModel::new(&recorder.snapshot(), &recorder.take_events());
    assert_eq!(health.hiccups, 2);
}
