//! Steady-state simulation throughput, cycle-by-cycle vs. event-horizon
//! fast-forward.
//!
//! Two measurements per scheme (SR/SG/NC/IB) x load point:
//!
//! * **steady** — a fixed population of streams (a fraction of the
//!   scheme's admission capacity) plays long objects with no arrivals
//!   or departures inside the horizon. Every cycle after warm-up is
//!   quiescent, so this is the fast path's best case and the
//!   acceptance gate: event-horizon mode must sustain at least 5x the
//!   cycles/sec of per-cycle stepping for every scheme.
//! * **sessions** — Poisson arrivals at a low rate (0.02-0.10 per
//!   cycle, so 90-98% of cycles are arrival-free) over a Zipf catalog
//!   of nominal-length movies, measuring sessions finished per second
//!   of wall clock as streams churn through the server. The horizon
//!   opens on the cycle after an arrival, so here too it must pay for
//!   itself: no cell may run slower than per-cycle stepping.
//!
//! Both modes of every cell run from the same seed, and the bench
//! asserts the observable outcomes (tracks read, deliveries, hiccups,
//! finishes, rejections) are identical before it reports a speedup —
//! a throughput number for a run that computed something different
//! would be meaningless.
//!
//! Usage: `bench steady [output.json] [--quick]`
//!
//! `--quick` shrinks the horizon for CI smoke runs and skips the two
//! speedup assertions (sub-second cells are timing noise); the equality
//! assertions always run.

use crate::{timed, Harness, SCHEMES};
use mms_bench::json::{obj, row, Json};
use mms_bench::scheme_server;
use mms_server::layout::ObjectId;
use mms_server::sim::{StepMode, WorkloadGen};
use mms_server::Args;
use mms_server::{MultimediaServer, Scheme};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

/// Steady-state population as a fraction of each scheme's capacity,
/// paired with the arrival rate used for the churn measurement.
const LOADS: [(f64, f64); 3] = [(0.3, 0.02), (0.6, 0.05), (0.9, 0.10)];
const SEED: u64 = 1995;
const THETA: f64 = 0.271;
const MOVIES: usize = 8;
/// Nominal catalog length for the churn cells (sessions finish and
/// free capacity); the steady cells use objects long enough that no
/// stream finishes inside the horizon.
const TRACKS: u64 = 200;

/// What a run computed, independent of how fast it computed it.
#[derive(PartialEq, Debug)]
struct Outcome {
    cycle: u64,
    tracks_read: u64,
    delivered: u64,
    hiccups: u64,
    finished: u64,
    rejected: u64,
}

fn outcome(server: &MultimediaServer, rejected: u64) -> Outcome {
    let m = server.metrics();
    Outcome {
        cycle: server.cycle(),
        tracks_read: m.tracks_read,
        delivered: m.delivered,
        hiccups: m.total_hiccups(),
        finished: m.streams_finished,
        rejected,
    }
}

/// Fixed-population run: admit the target concurrency, then let the
/// clock spin. Returns (outcome, wall seconds).
fn run_steady(scheme: Scheme, load: f64, cycles: u64, mode: StepMode) -> (Outcome, f64) {
    // One movie, sized from the scheme's own cycle geometry so that no
    // stream finishes inside the horizon: a stream consumes `k` data
    // tracks every `read_period` cycles.
    let cfg = *scheme_server(scheme, 1, 1).cycle_config();
    let tracks = cfg.k as u64 * (cycles / cfg.read_period() as u64 + 2);
    let mut server = scheme_server(scheme, 1, tracks);
    server.set_step_mode(mode);
    let target = ((server.stream_capacity() as f64 * load) as usize).max(1);
    let objects: Vec<ObjectId> = server.objects().to_vec();
    // Best-effort fill: some schemes bound admission below the nominal
    // stream capacity (per-group or buffer constraints), so take what
    // the scheme actually grants at this load point.
    for i in 0..target {
        if server.admit(objects[i % objects.len()]).is_err() {
            break;
        }
    }
    let ((), secs) = timed(|| server.run(cycles).expect("steady run"));
    (outcome(&server, 0), secs)
}

/// Churn run: Poisson arrivals over a Zipf catalog of finite movies.
fn run_sessions(scheme: Scheme, rate: f64, cycles: u64, mode: StepMode) -> (Outcome, f64) {
    let mut server = scheme_server(scheme, MOVIES, TRACKS);
    server.set_step_mode(mode);
    let workload = WorkloadGen::new(server.objects().to_vec(), THETA, rate);
    let mut rng = StdRng::seed_from_u64(SEED);
    let (rejected, secs) = timed(|| {
        server
            .run_with_workload(cycles, &workload, &mut rng)
            .expect("churn run")
    });
    (outcome(&server, rejected), secs)
}

pub fn run(harness: &Harness, args: &mut Args) -> Result<ExitCode, String> {
    args.finish()?;
    let quick = harness.quick;
    let cycles: u64 = if quick { 1_500 } else { 20_000 };

    // `{cycle_by_cycle, event_horizon, speedup}` rates from the two
    // step modes' wall seconds for `work` units.
    let rates = |work: f64, slow: f64, fast: f64| {
        row([
            ("cycle_by_cycle", Json::Fixed(work / slow, 1)),
            ("event_horizon", Json::Fixed(work / fast, 1)),
            ("speedup", Json::Fixed(slow / fast, 2)),
        ])
    };
    let (mut min_speedup, mut min_churn_speedup) = (f64::INFINITY, f64::INFINITY);
    let schemes = SCHEMES.map(|(scheme, label)| {
        let points = LOADS.map(|(load, rate)| {
            let (slow_out, steady_slow) = run_steady(scheme, load, cycles, StepMode::CycleByCycle);
            let (fast_out, steady_fast) = run_steady(scheme, load, cycles, StepMode::EventHorizon);
            assert_eq!(
                slow_out, fast_out,
                "{label} load {load}: steady outcomes diverged between step modes"
            );
            let (slow_out, churn_slow) = run_sessions(scheme, rate, cycles, StepMode::CycleByCycle);
            let (fast_out, churn_fast) = run_sessions(scheme, rate, cycles, StepMode::EventHorizon);
            assert_eq!(
                slow_out, fast_out,
                "{label} rate {rate}: churn outcomes diverged between step modes"
            );
            println!(
                "{label} load {load:.1}: steady {:.0} -> {:.0} cyc/s ({:.1}x), \
                 churn {:.0} -> {:.0} cyc/s",
                cycles as f64 / steady_slow,
                cycles as f64 / steady_fast,
                steady_slow / steady_fast,
                cycles as f64 / churn_slow,
                cycles as f64 / churn_fast,
            );
            min_speedup = min_speedup.min(steady_slow / steady_fast);
            min_churn_speedup = min_churn_speedup.min(churn_slow / churn_fast);
            let finished = fast_out.finished;
            let sessions_per_sec = row([
                (
                    "cycle_by_cycle",
                    Json::Fixed(finished as f64 / churn_slow, 1),
                ),
                (
                    "event_horizon",
                    Json::Fixed(finished as f64 / churn_fast, 1),
                ),
            ]);
            row([
                ("load", Json::Fixed(load, 2)),
                (
                    "steady_cycles_per_sec",
                    rates(cycles as f64, steady_slow, steady_fast),
                ),
                ("churn_rate_per_cycle", Json::Fixed(rate, 2)),
                ("quiescent_fraction", Json::Fixed((-rate).exp(), 3)),
                (
                    "churn_cycles_per_sec",
                    rates(cycles as f64, churn_slow, churn_fast),
                ),
                ("sessions_per_sec", sessions_per_sec),
                ("sessions_finished", finished.into()),
            ])
        });
        (label, Json::Arr(points.to_vec()))
    });
    println!("minimum steady-state speedup across all cells: {min_speedup:.1}x");
    println!("minimum speedup under churn across all cells: {min_churn_speedup:.2}x");

    harness.write(
        Some(SEED),
        vec![
            ("cycles_per_cell", cycles.into()),
            (
                "note",
                "both step modes of every cell are asserted observably identical before \
                 any speedup is reported"
                    .into(),
            ),
            ("min_steady_speedup", Json::Fixed(min_speedup, 2)),
            ("min_churn_speedup", Json::Fixed(min_churn_speedup, 2)),
            ("schemes", obj(schemes)),
        ],
    );
    if !quick {
        assert!(
            min_speedup >= 5.0,
            "acceptance: event-horizon must be >= 5x on the steady workload \
             for every scheme (got {min_speedup:.2}x)"
        );
        assert!(
            min_churn_speedup >= 1.0,
            "acceptance: event-horizon must not lose to per-cycle stepping in any \
             churn cell (got {min_churn_speedup:.2}x)"
        );
    }
    Ok(ExitCode::SUCCESS)
}
