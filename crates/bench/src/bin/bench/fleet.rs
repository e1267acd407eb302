//! Fleet-tier throughput and reliability.
//!
//! One 8-node fleet (chained-declustered catalog, replicated control
//! plane) runs a "million-session day": every node drives its shard of
//! the catalog through the heavy-traffic session engine in
//! `StepMode::EventHorizon`, and the default horizon offers over a
//! million session lifecycles in a single run. The same pass is
//! executed at 1, 2, and 8 worker threads; `bit_identical` records
//! that all three produced byte-for-byte the same shard report and
//! Monte-Carlo estimates, which is the determinism contract and must
//! hold on any host.
//!
//! Alongside throughput, the bench reports the fleet's node-level
//! reliability: Monte-Carlo MTTF (chained declustering dies on an
//! adjacent node pair, the node-level image of the paper's Eq. 5
//! adjacency condition) and MTTDS (the control plane masks
//! `ceil(N/2) - 1` concurrent node failures; one more stalls decrees).
//!
//! Usage: `bench fleet [output.json] [--quick]`
//!
//! `--quick` shrinks the horizon and trial count for CI smoke runs.

use crate::{timed, Harness};
use mms_bench::args::Args;
use mms_bench::json::{obj, row, Json};
use mms_fleet::{fleet_mttds, fleet_mttf, FleetBuilder, ShardReport, ShardedLoad};
use mms_server::disk::{ReliabilityParams, Time};
use mms_server::sim::{SplitMix64, StepMode};
use mms_server::Parallelism;
use std::process::ExitCode;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const SEED: u64 = 1995;
const NODES: usize = 8;
const MOVIES: usize = 32;
const TRACKS: u64 = 100;
const LOAD: f64 = 0.9;
/// Node-level reliability for the Monte-Carlo estimators. Whole nodes
/// fail far more often than the paper's disks (software, power, ops);
/// more importantly the 10:1 MTTF:MTTR ratio keeps trials tractable —
/// MTTDS needs `ceil(N/2)` *concurrent* node outages, which at
/// disk-like ratios is so rare a single trial needs ~1e8 events.
const NODE_MTTF_H: f64 = 1_000.0;
const NODE_MTTR_H: f64 = 100.0;

/// Everything one pass produces; compared verbatim across thread
/// counts (f64s via `to_bits`, so "identical" means identical).
#[derive(Clone, PartialEq)]
struct PassResult {
    report: ShardReport,
    mttf_bits: u64,
    mttds_bits: u64,
}

fn run_pass(threads: usize, cycles: u64, trials: usize) -> PassResult {
    let par = Parallelism::threads(threads);
    let mut fleet = FleetBuilder::new(NODES)
        .catalog(MOVIES, TRACKS)
        .step_mode(StepMode::EventHorizon)
        .parallelism(par)
        .control_seed(SEED)
        .build()
        .expect("bench fleet geometry builds");
    let report = fleet
        .run_sharded_sessions(&ShardedLoad {
            cycles,
            load: LOAD,
            seed: SEED,
            ..ShardedLoad::default()
        })
        .expect("failure-free sharded run cannot error");
    let rel = ReliabilityParams {
        mttf: Time::from_hours(NODE_MTTF_H),
        mttr: Time::from_hours(NODE_MTTR_H),
    };
    let mut rng = SplitMix64::new(SEED);
    let mttf = fleet_mttf(NODES, rel, &mut rng, trials, par);
    let mttds = fleet_mttds(NODES, rel, &mut rng, trials, par);
    PassResult {
        report,
        mttf_bits: mttf.mean.as_hours().to_bits(),
        mttds_bits: mttds.mean.as_hours().to_bits(),
    }
}

pub fn run(harness: &Harness, args: &mut Args) -> Result<ExitCode, String> {
    args.finish()?;
    let quick = harness.quick;
    // ~30 sessions/cycle at this geometry: 50k cycles offers ~1.5M.
    let cycles: u64 = if quick { 1_500 } else { 50_000 };
    let trials: usize = if quick { 50 } else { 2_000 };
    println!(
        "fleet bench: {NODES} nodes, {MOVIES} movies x {TRACKS} tracks, load {LOAD}, \
         {cycles} cycles, {trials} Monte-Carlo trials"
    );

    let mut runs: Vec<(usize, f64, PassResult)> = Vec::new();
    for threads in THREAD_COUNTS {
        let (pass, secs) = timed(|| run_pass(threads, cycles, trials));
        println!(
            "{threads} thread(s): {secs:.2}s, {} session(s) offered",
            pass.report.offered
        );
        runs.push((threads, secs, pass));
    }
    let bit_identical = runs.iter().all(|(_, _, p)| *p == runs[0].2);
    let pass = &runs[0].2;
    let r = pass.report;
    let mttf_h = f64::from_bits(pass.mttf_bits);
    let mttds_h = f64::from_bits(pass.mttds_bits);
    println!("sessions offered  : {}", r.offered);
    println!("fleet MTTF        : {mttf_h:.1} h (adjacent node pair)");
    println!("fleet MTTDS       : {mttds_h:.1} h (control-plane quorum loss)");
    println!("bit-identical across {THREAD_COUNTS:?} threads: {bit_identical}");

    let seconds_per_pass = runs
        .iter()
        .map(|&(t, s, _)| (t.to_string(), Json::Fixed(s, 2)));
    harness.write(
        Some(SEED),
        vec![
            ("nodes", NODES.into()),
            (
                "catalog",
                format!("{MOVIES} movies x {TRACKS} tracks, chained declustering").into(),
            ),
            ("cycles", cycles.into()),
            ("load", LOAD.into()),
            (
                "thread_counts",
                Json::Arr(THREAD_COUNTS.map(Json::from).to_vec()),
            ),
            ("bit_identical", bit_identical.into()),
            ("seconds_per_pass", row(seconds_per_pass)),
            (
                "sessions",
                obj([
                    ("offered", Json::from(r.offered)),
                    ("admitted", r.admitted.into()),
                    ("rejected", r.rejected.into()),
                    ("balked", r.balked.into()),
                    ("released_early", r.released_early.into()),
                    ("delivered_tracks", r.delivered.into()),
                    ("hiccups", r.hiccups.into()),
                ]),
            ),
            (
                "reliability",
                obj([
                    ("node_mttf_hours", Json::from(NODE_MTTF_H)),
                    ("node_mttr_hours", NODE_MTTR_H.into()),
                    ("trials", trials.into()),
                    ("fleet_mttf_hours", Json::Fixed(mttf_h, 1)),
                    ("fleet_mttds_hours", Json::Fixed(mttds_h, 1)),
                ]),
            ),
            (
                "note",
                "one fleet-wide pass; MTTF = adjacent node pair fatal (chained \
                 declustering), MTTDS = ceil(N/2) concurrent node failures stall the control plane"
                    .into(),
            ),
        ],
    );
    if !quick {
        assert!(
            r.offered >= 1_000_000,
            "horizon must offer a million-session day (got {})",
            r.offered
        );
    }
    assert!(
        bit_identical,
        "determinism contract violated: results differ across thread counts"
    );
    Ok(ExitCode::SUCCESS)
}
