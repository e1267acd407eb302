//! Measure the deterministic worker pool (`mms-exec`) on the three
//! workloads it backs — Monte-Carlo reliability trials, the design-space
//! sweep, and a batch simulation grid — at 1, 2, 4, and 8 threads.
//!
//! Two things are recorded per workload:
//! * **wall-clock seconds** at each thread count (median of three runs);
//! * **bit_identical** — whether every thread count reproduced the
//!   1-thread result exactly. This is the pool's contract and must be
//!   `true` everywhere; the timings are honest measurements on whatever
//!   host runs the bench (the envelope's `host_cores` records how many
//!   cores that was — speedups are only expected when it exceeds 1).
//!
//! Usage: `bench parallel [output.json] [mc_trials]`. The run is a few
//! seconds at its one size, so `--quick` changes nothing here.

use crate::{timed, Harness};
use mms_bench::json::{obj, row, Json};
use mms_bench::nc_transition_losses;
use mms_server::analysis::{design_space_par, CostModel, SchemeParams, SystemParams};
use mms_server::disk::ReliabilityParams;
use mms_server::reliability::{CatastropheRule, MonteCarlo};
use mms_server::sched::TransitionPolicy;
use mms_server::sim::run_batch;
use mms_server::Args;
use mms_server::Parallelism;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Wall-clock seconds for `f` (median of three runs), plus a digest of
/// its result for the bit-identity check.
fn measure<F: FnMut() -> u64>(mut f: F) -> (f64, u64) {
    let mut digest = 0;
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let (d, secs) = timed(&mut f);
            digest = d;
            secs
        })
        .collect();
    times.sort_by(f64::total_cmp);
    (times[1], digest)
}

/// One `workloads` entry — `job` timed at every thread count — and
/// whether all of them computed the same digest.
fn time_workload<F: FnMut(Parallelism) -> u64>(
    name: &'static str,
    detail: String,
    mut job: F,
) -> (&'static str, Json, bool) {
    let (seconds, digests): (Vec<f64>, Vec<u64>) = THREAD_COUNTS
        .iter()
        .map(|&threads| measure(|| job(Parallelism::threads(threads))))
        .unzip();
    let bit_identical = digests.iter().all(|&d| d == digests[0]);
    let per_count = || THREAD_COUNTS.iter().zip(&seconds);
    println!(
        "{name:<24} {}  bit-identical: {bit_identical}",
        per_count()
            .map(|(t, s)| format!("{t}T {s:.3}s"))
            .collect::<Vec<_>>()
            .join("  ")
    );
    let best = seconds.iter().copied().fold(f64::INFINITY, f64::min);
    let speedup = if best > 0.0 { seconds[0] / best } else { 1.0 };
    let entry = obj([
        ("detail", Json::from(detail)),
        (
            "seconds",
            row(per_count().map(|(t, &s)| (t.to_string(), Json::Fixed(s, 4)))),
        ),
        ("speedup_best", Json::Fixed(speedup, 2)),
        ("bit_identical", bit_identical.into()),
    ]);
    (name, entry, bit_identical)
}

const SEED: u64 = 1995;

pub fn run(harness: &Harness, args: &mut Args) -> Result<ExitCode, String> {
    let mc_trials: usize = args.positional("Monte-Carlo trial count", 48)?;
    args.finish()?;
    println!(
        "host cores: {}; measuring at {THREAD_COUNTS:?} threads\n",
        Parallelism::Auto.thread_count()
    );

    let mut workloads = Vec::new();

    // 1. Monte-Carlo reliability at paper scale: D = 1000, C = 10, real
    //    lifetimes — the dominant compute in the reliability pipeline.
    let mc = MonteCarlo {
        d: 1000,
        rel: ReliabilityParams::paper(),
        rule: CatastropheRule::SameCluster { c: 10 },
    };
    workloads.push(time_workload(
        "montecarlo_mttf",
        format!("D=1000 C=10 same-cluster rule, {mc_trials} trials, seed {SEED}"),
        |par| {
            let stats = mc.run_par(&mut StdRng::seed_from_u64(SEED), mc_trials, par);
            stats.mean.as_secs().to_bits() ^ stats.std_error.as_secs().to_bits()
        },
    ));

    // 2. The design-space sweep. One sweep is microseconds, so time a
    //    thousand of them; the digest folds every field of every point.
    let sys = SystemParams::paper_table1();
    let model = CostModel::paper_fig9();
    const SWEEP_REPS: usize = 1000;
    workloads.push(time_workload(
        "design_space_sweep",
        format!("C in 2..=10 x 4 schemes, {SWEEP_REPS} repetitions"),
        |par| {
            let mut digest = 0u64;
            for _ in 0..SWEEP_REPS {
                digest = design_space_par(&sys, &model, 2..=10, SchemeParams::paper_fig9, par)
                    .iter()
                    .fold(0u64, |acc, p| {
                        acc.rotate_left(7) ^ p.cost.to_bits() ^ p.streams.to_bits() ^ (p.c as u64)
                    });
            }
            digest
        },
    ));

    // 3. A batch simulation grid: the Non-clustered transition ablation
    //    (every C x failed-disk x policy cell is an independent
    //    scheduler run).
    let grid: Vec<(usize, u32, TransitionPolicy)> = [6usize, 8, 10, 12]
        .into_iter()
        .flat_map(|c| {
            (0..(c as u32 - 1)).flat_map(move |f| {
                [TransitionPolicy::Simple, TransitionPolicy::Delayed]
                    .into_iter()
                    .map(move |p| (c, f, p))
            })
        })
        .collect();
    workloads.push(time_workload(
        "sim_batch_ablation",
        format!("NC transition grid, {} scheduler runs", grid.len()),
        |par| {
            run_batch(par, &grid, |&(c, f, policy)| {
                nc_transition_losses(c, f, policy) as u64
            })
            .iter()
            .fold(0u64, |acc, &l| acc.rotate_left(9) ^ l)
        },
    ));

    let all_identical = workloads.iter().all(|&(_, _, identical)| identical);
    let workloads = workloads.into_iter().map(|(name, entry, _)| (name, entry));
    harness.write(
        Some(SEED),
        vec![
            (
                "thread_counts",
                Json::Arr(THREAD_COUNTS.map(Json::from).to_vec()),
            ),
            ("all_bit_identical", all_identical.into()),
            (
                "note",
                "wall-clock medians of 3 runs; speedup = seconds at 1 thread / best; \
                 parallel speedup requires host_cores > 1"
                    .into(),
            ),
            ("workloads", obj(workloads)),
        ],
    );
    assert!(
        all_identical,
        "determinism contract violated: results differ across thread counts"
    );
    Ok(ExitCode::SUCCESS)
}
