//! Stall-rate vs. utilization curves for the four schemes under the
//! heavy-traffic session engine.
//!
//! The grid is scheme (SR/SG/NC/IB) x offered load (fraction of the
//! scheme's admission capacity) x mode (normal, or degraded by a single
//! disk failure early in the run). Every cell runs the full session
//! lifecycle — Zipf popularity, Poisson arrivals at the load-matched
//! rate, a mean-1 VBR ladder, 10% viewer abandonment, Reject admission —
//! in `DataMode::MetadataOnly`, and reports the utilization the server
//! actually sustained against the stall (hiccup) rate its viewers saw.
//!
//! The whole grid is executed three times, at 1, 2, and 8 worker
//! threads, through `run_batch_seeded`; `bit_identical` records that all
//! three produced byte-for-byte the same numbers, which is the
//! determinism contract and must hold on any host. Cells run in
//! `StepMode::EventHorizon`: arrival-free stretches fast-forward, and
//! the equivalence suite pins that this changes no observable number.
//!
//! Usage: `bench workload [output.json] [--quick]`
//!
//! `--quick` shrinks the per-cell horizon for CI smoke runs; the default
//! horizon offers over a million sessions across the grid (a
//! "million-session day").

use crate::{timed, Harness, SCHEMES};
use mms_bench::json::{obj, row, Json};
use mms_bench::scheme_server;
use mms_server::disk::DiskId;
use mms_server::layout::ObjectId;
use mms_server::sim::{
    run_batch_seeded, AdmissionPolicy, ArrivalProcess, FailureEvent, SessionEngine, StepMode,
};
use mms_server::Args;
use mms_server::{Parallelism, Scheme};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

/// Offered load as a fraction of each scheme's stream capacity; past 1.0
/// the admission policy is what separates the schemes' viewer experience.
const LOADS: [f64; 6] = [0.5, 0.7, 0.85, 1.0, 1.2, 1.5];
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const SEED: u64 = 1995;
const MOVIES: usize = 16;
const TRACKS: u64 = 200;
const THETA: f64 = 0.271;
const ABANDON: f64 = 0.1;
/// Mean-1 ladder: load targeting stays exact while holds still vary.
const VBR_LADDER: [f64; 3] = [0.75, 1.0, 1.25];

#[derive(Clone, Copy)]
struct Cell {
    scheme: Scheme,
    label: &'static str,
    load: f64,
    degraded: bool,
}

#[derive(Clone, PartialEq)]
struct CellResult {
    label: &'static str,
    load: f64,
    degraded: bool,
    rate: f64,
    offered: u64,
    admitted: u64,
    blocking_rate: f64,
    delivered: u64,
    hiccups: u64,
    stall_rate: f64,
    utilization: f64,
}

fn run_cell(cell: &Cell, mut rng: StdRng, cycles: u64) -> CellResult {
    let mut server = scheme_server(cell.scheme, MOVIES, TRACKS);
    // The event-horizon fast path is observably identical to per-cycle
    // stepping (pinned by the equivalence suite), so the bench runs
    // with it on: arrival-free stretches between sessions fast-forward.
    server.set_step_mode(StepMode::EventHorizon);
    let cfg = server.cycle_config();
    let nominal = TRACKS.div_ceil(cfg.k as u64) * cfg.read_period() as u64;
    // Little's law: `load x capacity` concurrent sessions of mean hold
    // `nominal x (1 - ABANDON/2)` cycles need this many arrivals/cycle.
    let rate =
        cell.load * server.stream_capacity() as f64 / (nominal as f64 * (1.0 - ABANDON / 2.0));
    let catalog: Vec<(ObjectId, u64)> = server.objects().iter().map(|&o| (o, nominal)).collect();
    let mut engine = SessionEngine::new(
        catalog,
        THETA,
        ArrivalProcess::poisson(rate),
        AdmissionPolicy::Reject,
    )
    .with_vbr(VBR_LADDER.to_vec())
    .with_abandonment(ABANDON);

    let fail_at = cycles / 10;
    if cell.degraded {
        server
            .run_sessions(fail_at, &mut engine, &mut rng)
            .expect("warmup");
        server
            .inject(FailureEvent::fail(fail_at, DiskId(2)))
            .expect("single failure is survivable");
        server
            .run_sessions(cycles - fail_at, &mut engine, &mut rng)
            .expect("degraded run");
    } else {
        server
            .run_sessions(cycles, &mut engine, &mut rng)
            .expect("normal run");
    }

    let s = engine.stats();
    let m = server.metrics();
    let hiccups = m.total_hiccups();
    let scheduled = m.delivered + hiccups;
    CellResult {
        label: cell.label,
        load: cell.load,
        degraded: cell.degraded,
        rate,
        offered: s.offered,
        admitted: s.admitted,
        blocking_rate: s.blocking_rate(),
        delivered: m.delivered,
        hiccups,
        stall_rate: if scheduled == 0 {
            0.0
        } else {
            hiccups as f64 / scheduled as f64
        },
        utilization: m.utilization(
            server.cycle_config().t_cyc(),
            server.simulator().disks().len(),
        ),
    }
}

pub fn run(harness: &Harness, args: &mut Args) -> Result<ExitCode, String> {
    args.finish()?;
    // 20k cycles/cell offers ~1.2M sessions over the 48-cell grid.
    let cycles: u64 = if harness.quick { 300 } else { 20_000 };

    let grid: Vec<Cell> = SCHEMES
        .into_iter()
        .flat_map(|(scheme, label)| {
            LOADS.into_iter().flat_map(move |load| {
                [false, true].into_iter().map(move |degraded| Cell {
                    scheme,
                    label,
                    load,
                    degraded,
                })
            })
        })
        .collect();
    println!(
        "{} cells ({} schemes x {} loads x normal/degraded), {cycles} cycles each",
        grid.len(),
        SCHEMES.len(),
        LOADS.len()
    );

    let mut runs: Vec<(usize, f64, Vec<CellResult>)> = Vec::new();
    for threads in THREAD_COUNTS {
        let (results, secs) = timed(|| {
            run_batch_seeded(
                Parallelism::threads(threads),
                &mut StdRng::seed_from_u64(SEED),
                &grid,
                |cell, rng| run_cell(cell, rng, cycles),
            )
        });
        println!("{threads} thread(s): {secs:.2}s");
        runs.push((threads, secs, results));
    }
    let bit_identical = runs.iter().all(|(_, _, r)| *r == runs[0].2);
    let results = &runs[0].2;
    let offered_total: u64 = results.iter().map(|r| r.offered).sum();
    println!("sessions offered (per grid pass): {offered_total}");
    println!("bit-identical across {THREAD_COUNTS:?} threads: {bit_identical}");

    let seconds_per_pass = runs
        .iter()
        .map(|(t, s, _)| (t.to_string(), Json::Fixed(*s, 2)));
    let schemes = SCHEMES.map(|(_, label)| {
        let mode = |degraded: bool| {
            let points = results
                .iter()
                .filter(|r| r.label == label && r.degraded == degraded)
                .map(|r| {
                    row([
                        ("load", Json::Fixed(r.load, 2)),
                        ("rate_per_cycle", Json::Fixed(r.rate, 4)),
                        ("offered", r.offered.into()),
                        ("admitted", r.admitted.into()),
                        ("blocking_rate", Json::Fixed(r.blocking_rate, 4)),
                        ("utilization", Json::Fixed(r.utilization, 4)),
                        ("stall_rate", Json::Fixed(r.stall_rate, 6)),
                        ("delivered", r.delivered.into()),
                        ("hiccups", r.hiccups.into()),
                    ])
                });
            Json::Arr(points.collect())
        };
        (
            label,
            obj([("normal", mode(false)), ("degraded", mode(true))]),
        )
    });
    harness.write(
        Some(SEED),
        vec![
            ("cycles_per_cell", cycles.into()),
            (
                "catalog",
                format!("{MOVIES} movies x {TRACKS} tracks, Zipf theta {THETA}").into(),
            ),
            (
                "engine",
                format!(
                    "Poisson arrivals at load-matched rate, VBR ladder {VBR_LADDER:?}, \
                     abandonment {ABANDON}, Reject admission"
                )
                .into(),
            ),
            ("sessions_offered_total", offered_total.into()),
            (
                "thread_counts",
                Json::Arr(THREAD_COUNTS.map(Json::from).to_vec()),
            ),
            ("bit_identical", bit_identical.into()),
            ("seconds_per_pass", row(seconds_per_pass)),
            (
                "note",
                "stall_rate = hiccups / (delivered + hiccups); utilization is the \
                 busy fraction of total disk-time; degraded = one disk failed at cycles/10"
                    .into(),
            ),
            ("schemes", obj(schemes)),
        ],
    );
    assert!(
        bit_identical,
        "determinism contract violated: results differ across thread counts"
    );
    Ok(ExitCode::SUCCESS)
}
