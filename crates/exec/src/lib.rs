//! # mms-exec — deterministic parallel execution
//!
//! The Monte-Carlo reliability trials, the design-space sweep, and the
//! ablation scenario grids are all embarrassingly parallel: independent
//! jobs whose results are combined by index. This crate gives them one
//! shared worker pool built on [`std::thread::scope`] (the
//! standard-library equivalent of crossbeam's scoped threads — no
//! external dependency needed) with two guarantees:
//!
//! 1. **Results are index-ordered.** [`par_map_indexed`] returns
//!    `out[i] = f(i)` regardless of which worker computed which index or
//!    in what order they finished — the output is a pure function of the
//!    input, never of scheduling.
//! 2. **Randomness is pre-split.** [`SeedSequence`] derives one
//!    independent SplitMix64-mixed seed per job index from a single base
//!    seed drawn from the caller's RNG. A job's random stream depends
//!    only on `(base, index)`, so stochastic workloads are bit-identical
//!    at 1, 2, or 64 threads.
//!
//! Together these make "how many threads?" a pure performance knob
//! ([`Parallelism`]) that can never change a result.
//!
//! ## Telemetry
//!
//! When a `mms-telemetry` collector is installed on the *calling*
//! thread, every job runs under its own fresh
//! [`Recorder`] (worker threads never share
//! one), and the captured events and metrics are absorbed into the
//! caller's collector **in job index order** after the pool joins. Job
//! telemetry at `Debug` and above is therefore bit-identical for any
//! thread count, exactly like the results. Pool diagnostics (per-worker
//! job counts and wall-clock busy time) are scheduling-dependent and
//! only emitted at [`Level::Trace`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mms_telemetry::{event, EventRecord, Level, Recorder, Registry};
use rand::Rng;
use std::fmt;
use std::num::NonZeroUsize;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How many worker threads an operation may use.
///
/// Purely a performance knob: every consumer in this workspace is
/// required to produce bit-identical results for any variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run on the calling thread, spawning nothing.
    Sequential,
    /// One worker per available hardware thread
    /// ([`std::thread::available_parallelism`]; falls back to 1 if the
    /// platform cannot say).
    #[default]
    Auto,
    /// Exactly this many workers.
    Threads(NonZeroUsize),
}

impl Parallelism {
    /// A fixed thread count; `n = 0` is treated as [`Parallelism::Auto`].
    #[must_use]
    pub fn threads(n: usize) -> Self {
        match NonZeroUsize::new(n) {
            Some(n) => Parallelism::Threads(n),
            None => Parallelism::Auto,
        }
    }

    /// The number of workers this setting resolves to right now.
    #[must_use]
    pub fn thread_count(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            Parallelism::Threads(n) => n.get(),
        }
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Parallelism::Sequential => write!(f, "seq"),
            Parallelism::Auto => write!(f, "auto"),
            Parallelism::Threads(n) => write!(f, "{n}"),
        }
    }
}

/// Error from parsing a [`Parallelism`] out of a CLI flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseParallelismError(String);

impl fmt::Display for ParseParallelismError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid thread count {:?}: expected a positive integer, \"auto\", or \"seq\"",
            self.0
        )
    }
}

impl std::error::Error for ParseParallelismError {}

impl FromStr for Parallelism {
    type Err = ParseParallelismError;

    /// `"seq"`/`"sequential"` → [`Sequential`](Parallelism::Sequential),
    /// `"auto"`/`"0"` → [`Auto`](Parallelism::Auto), a positive integer
    /// → [`Threads`](Parallelism::Threads).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "seq" | "sequential" => Ok(Parallelism::Sequential),
            "auto" | "0" => Ok(Parallelism::Auto),
            t => t
                .parse::<usize>()
                .map(Parallelism::threads)
                .map_err(|_| ParseParallelismError(s.to_string())),
        }
    }
}

/// A job's captured telemetry, extracted on the worker thread so it can
/// be sent back to the caller for in-order absorption.
type JobTelemetry = (Vec<EventRecord>, Registry);

/// Batches smaller than this run inline on the calling thread even when
/// parallelism is available.
///
/// Spawning the pool costs thread creation plus per-job telemetry
/// absorption, which dwarfs tiny jobs: the 36-job design-space sweep ran
/// in 0.003 s sequentially but 0.14 s on 2 threads before this cutoff.
/// The threshold sits above that sweep (36 jobs) and below the smallest
/// Monte-Carlo batch (48 trials), which is long enough to amortize the
/// pool. Callers whose individual jobs are expensive enough to beat the
/// spawn cost at any count (e.g. whole-simulation grids) can lower the
/// bar via [`par_map_indexed_min`]. Never a correctness knob: results
/// and `Debug`-and-above telemetry are identical either way.
pub const SMALL_BATCH_THRESHOLD: usize = 40;

/// Run one job, under a fresh per-job [`Recorder`] when the caller had a
/// collector installed (`level` is its max level).
fn run_job<T, F>(f: &F, i: usize, level: Option<Level>) -> (T, Option<JobTelemetry>)
where
    F: Fn(usize) -> T,
{
    match level {
        None => (f(i), None),
        Some(level) => {
            let recorder = Recorder::new(level);
            let value = {
                let _guard = recorder.install();
                f(i)
            };
            (value, Some(recorder.into_parts()))
        }
    }
}

/// Map `f` over `0..n`, returning `vec![f(0), f(1), …, f(n-1)]`.
///
/// Workers claim indices from a shared atomic counter (dynamic
/// load-balancing — long jobs don't stall a fixed chunk) and stash
/// `(index, value)` pairs locally; results are slotted by index after
/// the scope joins, so the output order is deterministic no matter how
/// the indices were interleaved. A panic in any job propagates to the
/// caller with the job's own payload, at any thread count.
///
/// If the calling thread has a telemetry collector installed, each job
/// records into its own [`Recorder`] and the captured records are
/// absorbed in index order after the join (see the crate docs), so the
/// sequential path and every thread count produce the same stream.
pub fn par_map_indexed<T, F>(par: Parallelism, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_indexed_min(par, n, SMALL_BATCH_THRESHOLD, f)
}

/// [`par_map_indexed`] with an explicit work-size threshold: batches of
/// fewer than `min_jobs` jobs run inline on the calling thread without
/// spawning the pool (as does `threads == 1`). Use a lower `min_jobs`
/// than [`SMALL_BATCH_THRESHOLD`] when each job is expensive enough to
/// amortize a thread spawn on its own.
pub fn par_map_indexed_min<T, F>(par: Parallelism, n: usize, min_jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let level = mms_telemetry::current_max_level();
    event!(Level::Debug, "exec.batch", jobs = n);
    let workers = par.thread_count().min(n);
    if workers <= 1 || n < min_jobs {
        return (0..n)
            .map(|i| {
                let (value, telemetry) = run_job(&f, i, level);
                if let Some((events, registry)) = telemetry {
                    mms_telemetry::dispatch_absorb(events, &registry);
                }
                value
            })
            .collect();
    }
    let trace_pool = level >= Some(Level::Trace);
    let next = AtomicUsize::new(0);
    let f = &f;
    let next = &next;
    type WorkerOut<T> = (Vec<(usize, T, Option<JobTelemetry>)>, f64);
    let per_worker: Vec<WorkerOut<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    #[allow(clippy::disallowed_methods)]
                    // lint:allow(determinism): worker busy-time is a Trace-only diagnostic; it never feeds results
                    let started = trace_pool.then(std::time::Instant::now);
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let (value, telemetry) = run_job(f, i, level);
                        mine.push((i, value, telemetry));
                    }
                    let busy_ms = started.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3);
                    (mine, busy_ms)
                })
            })
            .collect();
        handles
            .into_iter()
            // A job's panic reaches the caller with its own payload.
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    let mut slots: Vec<Option<(T, Option<JobTelemetry>)>> = (0..n).map(|_| None).collect();
    for (worker, (mine, busy_ms)) in per_worker.into_iter().enumerate() {
        // Scheduling-dependent by nature, hence Trace-only.
        event!(
            Level::Trace,
            "exec.worker",
            worker = worker,
            jobs = mine.len(),
            busy_ms = busy_ms
        );
        for (i, value, telemetry) in mine {
            debug_assert!(slots[i].is_none(), "index {i} claimed twice");
            slots[i] = Some((value, telemetry));
        }
    }
    slots
        .into_iter()
        .map(|s| {
            let (value, telemetry) = s.expect("every index claimed exactly once");
            if let Some((events, registry)) = telemetry {
                mms_telemetry::dispatch_absorb(events, &registry);
            }
            value
        })
        .collect()
}

/// Map `f` over a slice, preserving order: `out[i] = f(&items[i])`.
pub fn par_map<I, T, F>(par: Parallelism, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    par_map_indexed(par, items.len(), |i| f(&items[i]))
}

/// A splittable stream of per-job seeds.
///
/// One base seed is drawn from the caller's RNG (advancing it exactly
/// once, so the caller's subsequent draws are also reproducible); each
/// job `i` then gets `seed(i)`, a SplitMix64 mix of the base and the
/// index stepped by the golden-ratio increment. Jobs seeded this way are
/// statistically independent and — crucially — independent of which
/// thread runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    base: u64,
}

/// SplitMix64's golden-ratio stream increment.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SeedSequence {
    /// A sequence rooted at an explicit base seed.
    #[must_use]
    pub fn new(base: u64) -> Self {
        SeedSequence { base }
    }

    /// Draw the base seed from `rng` (one `u64`, exactly once).
    pub fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        SeedSequence::new(rng.gen::<u64>())
    }

    /// The seed for job `index`.
    #[must_use]
    pub fn seed(&self, index: u64) -> u64 {
        rand::splitmix64_mix(
            self.base
                .wrapping_add(index.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn results_are_index_ordered_at_any_thread_count() {
        let n = 403;
        let expect: Vec<usize> = (0..n).map(|i| i * i).collect();
        for par in [
            Parallelism::Sequential,
            Parallelism::threads(2),
            Parallelism::threads(3),
            Parallelism::threads(8),
            Parallelism::Auto,
        ] {
            let got = par_map_indexed(par, n, |i| i * i);
            assert_eq!(got, expect, "mismatch under {par}");
        }
    }

    #[test]
    fn par_map_preserves_slice_order() {
        let items: Vec<i64> = (0..97).map(|i| i * 3 - 40).collect();
        let got = par_map(Parallelism::threads(4), &items, |x| x + 1);
        let expect: Vec<i64> = items.iter().map(|x| x + 1).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u8> = par_map_indexed(Parallelism::threads(8), 0, |_| 0u8);
        assert!(empty.is_empty());
        assert_eq!(par_map_indexed(Parallelism::threads(8), 1, |i| i), vec![0]);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let got = par_map_indexed(Parallelism::threads(64), 3, |i| i * 10);
        assert_eq!(got, vec![0, 10, 20]);
    }

    /// Whether every job of a batch ran on the calling thread.
    fn ran_inline(par: Parallelism, n: usize, min_jobs: usize) -> bool {
        let caller = std::thread::current().id();
        par_map_indexed_min(par, n, min_jobs, |_| std::thread::current().id())
            .iter()
            .all(|&id| id == caller)
    }

    #[test]
    fn small_batches_run_inline_without_the_pool() {
        assert!(ran_inline(
            Parallelism::threads(8),
            SMALL_BATCH_THRESHOLD - 1,
            SMALL_BATCH_THRESHOLD
        ));
    }

    #[test]
    fn min_jobs_override_engages_the_pool_for_tiny_batches() {
        assert!(!ran_inline(Parallelism::threads(2), 8, 0));
    }

    #[test]
    fn seed_sequence_is_deterministic_and_distinct() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = SeedSequence::from_rng(&mut rng);
        let mut rng2 = StdRng::seed_from_u64(9);
        let b = SeedSequence::from_rng(&mut rng2);
        assert_eq!(a, b);
        let seeds: Vec<u64> = (0..1000).map(|i| a.seed(i)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len(), "seed collision");
        // Drawing the base advances the caller's RNG exactly one u64.
        let mut rng3 = StdRng::seed_from_u64(9);
        let _ = rng3.gen::<u64>();
        assert_eq!(rng.gen::<u64>(), rng3.gen::<u64>());
    }

    #[test]
    fn seeded_jobs_match_across_thread_counts() {
        let seq = SeedSequence::new(0xDEAD_BEEF);
        let run = |par: Parallelism| {
            par_map_indexed(par, 64, |i| {
                let mut rng = StdRng::seed_from_u64(seq.seed(i as u64));
                (0..32).map(|_| rng.gen::<u64>() >> 40).sum::<u64>()
            })
        };
        let one = run(Parallelism::Sequential);
        assert_eq!(one, run(Parallelism::threads(2)));
        assert_eq!(one, run(Parallelism::threads(7)));
    }

    #[test]
    fn parallelism_parses_from_cli_spellings() {
        assert_eq!("seq".parse(), Ok(Parallelism::Sequential));
        assert_eq!("Sequential".parse(), Ok(Parallelism::Sequential));
        assert_eq!("auto".parse(), Ok(Parallelism::Auto));
        assert_eq!("0".parse(), Ok(Parallelism::Auto));
        assert_eq!("4".parse(), Ok(Parallelism::threads(4)));
        assert!(" 8 ".parse::<Parallelism>().is_ok());
        assert!("nope".parse::<Parallelism>().is_err());
        assert!("-3".parse::<Parallelism>().is_err());
    }

    #[test]
    fn thread_count_resolution() {
        assert_eq!(Parallelism::Sequential.thread_count(), 1);
        assert_eq!(Parallelism::threads(5).thread_count(), 5);
        assert!(Parallelism::Auto.thread_count() >= 1);
        assert_eq!(Parallelism::threads(0), Parallelism::Auto);
    }

    #[test]
    fn traced_jobs_merge_in_index_order_at_any_thread_count() {
        let run = |par: Parallelism| {
            let rec = Recorder::new(Level::Debug);
            let sums = {
                let _g = rec.install();
                par_map_indexed(par, 48, |i| {
                    mms_telemetry::event!(Level::Debug, "job", index = i);
                    mms_telemetry::counter!("exec.test.jobs", 1);
                    i as u64
                })
            };
            (sums, rec.take_events(), rec.snapshot())
        };
        let (seq_sums, seq_events, seq_snap) = run(Parallelism::Sequential);
        assert_eq!(seq_snap.counter_total("exec.test.jobs"), 48);
        // Job events arrive in index order, after the batch event.
        assert_eq!(seq_events[0].name, "exec.batch");
        let indices: Vec<String> = seq_events
            .iter()
            .filter(|e| e.name == "job")
            .map(|e| e.field("index").unwrap().to_string())
            .collect();
        let expect: Vec<String> = (0..48).map(|i| i.to_string()).collect();
        assert_eq!(indices, expect);
        for par in [Parallelism::threads(2), Parallelism::threads(8)] {
            let (sums, events, snap) = run(par);
            assert_eq!(sums, seq_sums);
            assert_eq!(events, seq_events, "event stream differs under {par}");
            assert_eq!(snap.counter_total("exec.test.jobs"), 48);
        }
    }

    #[test]
    fn untraced_runs_emit_nothing() {
        let rec = Recorder::new(Level::Trace);
        let _ = par_map_indexed(Parallelism::threads(2), 8, |i| i);
        assert_eq!(rec.take_events().len(), 0);
    }

    #[test]
    #[should_panic(expected = "job 7 failed")]
    fn job_panics_propagate() {
        let _ = par_map_indexed(Parallelism::threads(2), 64, |i| {
            assert!(i != 7, "job {i} failed");
            i
        });
    }
}
