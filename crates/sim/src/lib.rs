//! # mms-sim — discrete-event simulation of the multimedia server
//!
//! Executes a scheme scheduler's per-cycle plans against a real
//! [`mms_disk::DiskArray`] with real XOR parity over synthetic track
//! contents, so the whole stack — layout, slot capacities, degraded-mode
//! transitions, on-the-fly reconstruction — is exercised end to end, not
//! just unit by unit.
//!
//! Pieces:
//!
//! * [`Simulator`] — drives any [`mms_sched::SchemeScheduler`] cycle by
//!   cycle: issues the planned reads to the disk array (enforcing the
//!   `T(r) ≤ T_cyc` slot budget), verifies every delivered block's bytes
//!   against the synthetic ground truth (reconstructed blocks are rebuilt
//!   through `mms-parity`, exactly as a real server would), and
//!   accumulates [`Metrics`].
//! * [`SessionEngine`] — the session lifecycle over a Zipf-popularity
//!   catalog of MPEG-1/MPEG-2 movies (the movie-on-demand workload the
//!   paper's introduction motivates): Poisson or bursty (MMPP)
//!   arrivals, per-stream VBR holds, viewer abandonment, and the Reject
//!   / Degrade / Queue admission policies, with streaming (P²)
//!   admission-wait percentiles.
//! * [`FailureSchedule`] — deterministic or stochastic disk-failure
//!   injection, sharing `mms-disk`'s exponential processes.
//! * [`RebuildManager`] — the third operating mode (rebuild): restore a
//!   failed disk onto a spare from parity using idle slots, or from
//!   tertiary storage at tape speed after a catastrophe.
//! * [`trace`] — ASCII rendering of read schedules in the style of the
//!   paper's Figures 3, 5, 6, 7, and 8.
//! * [`batch`] — deterministic parallel execution of independent
//!   scenario grids (ablations, design drills, the fault corpora of
//!   `mms-server`'s scenario engine) over `mms-exec`'s worker pool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod failure;
mod metrics;
mod rebuild;
mod simulator;
pub mod trace;
mod verify;
mod workload;

pub use batch::{run_batch, run_batch_seeded};
pub use failure::{FailureEvent, FailureSchedule};
pub use metrics::{BufferSeries, CycleReport, Metrics};
pub use rebuild::{Rebuild, RebuildManager, RebuildSource};
pub use simulator::{DataMode, ObjectDirectory, SimError, Simulator, StepMode};
pub use verify::BlockOracle;
pub use workload::{
    poisson, AdmissionPolicy, ArrivalProcess, SessionEngine, SessionStats, SplitMix64, Zipf,
};
