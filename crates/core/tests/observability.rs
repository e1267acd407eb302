//! End-to-end observability drills: the flight recorder's black-box
//! dump is byte-identical at every thread count and replays a stream's
//! causal timeline, and the [`HealthModel`]'s degraded-exposure clock
//! agrees with the scenario engine's own mode-transition accounting
//! (the live analogue of the paper's Eq. 6 MTTDS integrand).

use mms_server::scenario::{corpus, Case, Report};
use mms_server::sim::StepMode;
use mms_server::telemetry::{
    FlightRecorder, FlightSnapshot, HealthConfig, HealthModel, Level, Recorder,
};
use mms_server::{Parallelism, RunConfig};

/// Run the double-fault corpus case under an ambient Debug recorder and
/// return the flight recorder's dump bytes.
fn double_fault_flight_dump(par: Parallelism) -> Vec<u8> {
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
    // Capacity large enough to keep the whole run: eviction is tested
    // in the telemetry crate; here we want the full causal record.
    let mut flight = FlightRecorder::new(1 << 16);
    for event in recorder.take_events() {
        flight.record(event);
    }
    assert!(
        flight.triggered(),
        "the typed data-loss error must arm the flight recorder"
    );
    let mut out = Vec::new();
    flight.dump(&mut out).expect("dump to a Vec cannot fail");
    out
}

#[test]
fn flight_dump_is_byte_identical_across_thread_counts() {
    let seq = double_fault_flight_dump(Parallelism::Sequential);
    assert_eq!(seq, double_fault_flight_dump(Parallelism::threads(2)));
    assert_eq!(seq, double_fault_flight_dump(Parallelism::threads(8)));
}

#[test]
fn flight_dump_replays_a_stream_timeline() {
    let dump = double_fault_flight_dump(Parallelism::Sequential);
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

#[test]
fn health_model_matches_the_scenario_engines_degraded_accounting() {
    let drill = corpus(true)
        .only("nc-transition-simple")
        .expect("corpus has the Fig. 6 case");
    let recorder = Recorder::new(Level::Info);
    let report = {
        let _guard = recorder.install();
        drill.cases[0].run(0, StepMode::CycleByCycle)
    };
    assert!(report.passed(), "{:?}", report.violations);

    let mut health = HealthModel::new(HealthConfig::default());
    for event in &recorder.take_events() {
        health.observe(event);
    }
    health.finish(report.cycles);

    assert!(report.degraded_cycles > 0, "Fig. 6 spends time degraded");
    assert_eq!(
        health.degraded_cycles(),
        report.degraded_cycles,
        "the streaming tracker and the post-hoc report must agree"
    );
    // Default config: t_cyc = 1 s, so exposure seconds == cluster-cycles.
    assert_eq!(
        health.degraded_exposure_secs(),
        report.degraded_cycles as f64
    );
    assert_eq!(
        health.hiccups(),
        report.tracks_lost,
        "Fig. 6 loses 6 tracks"
    );
    assert_eq!(health.data_loss_events(), 0, "degraded, never catastrophic");
}
