//! The common scheduler interface and failure reporting.

use crate::cycle::CycleConfig;
use crate::plan::{CyclePlan, LostBlock};
use crate::streams::{StreamId, StreamInfo};
use mms_disk::DiskId;
use mms_layout::{BlockKind, Catalog, ClusterId, Layout, ObjectId};
use std::fmt;

/// Which of the paper's four schemes a scheduler implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Streaming RAID (Section 2, `SR`).
    StreamingRaid,
    /// Staggered-group (Section 2, `SG`).
    StaggeredGroup,
    /// Non-clustered with buffer pool (Section 3, `NC`).
    NonClustered,
    /// Improved-bandwidth (Section 4, `IB`).
    ImprovedBandwidth,
}

impl SchemeKind {
    /// All four schemes, in the paper's comparison order.
    pub const ALL: [SchemeKind; 4] = [
        SchemeKind::StreamingRaid,
        SchemeKind::StaggeredGroup,
        SchemeKind::NonClustered,
        SchemeKind::ImprovedBandwidth,
    ];

    /// The paper's abbreviation.
    #[must_use]
    pub fn abbrev(&self) -> &'static str {
        match self {
            SchemeKind::StreamingRaid => "SR",
            SchemeKind::StaggeredGroup => "SG",
            SchemeKind::NonClustered => "NC",
            SchemeKind::ImprovedBandwidth => "IB",
        }
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SchemeKind::StreamingRaid => "Streaming RAID",
            SchemeKind::StaggeredGroup => "Staggered-group",
            SchemeKind::NonClustered => "Non-clustered",
            SchemeKind::ImprovedBandwidth => "Improved-bandwidth",
        };
        f.write_str(s)
    }
}

/// Emit the `mode_transition` telemetry event every scheduler shares:
/// a cluster moved between operating modes (`normal`, `degraded`,
/// `catastrophic`) at `cycle`. Schedulers with extra context (e.g. the
/// non-clustered transition policy) emit the event themselves with
/// additional fields instead.
pub fn emit_mode_transition(
    scheme: SchemeKind,
    cluster: ClusterId,
    cycle: u64,
    from: &'static str,
    to: &'static str,
) {
    mms_telemetry::event!(
        mms_telemetry::Level::Info,
        "mode_transition",
        scheme = scheme.abbrev(),
        cluster = cluster.0,
        cycle = cycle,
        from = from,
        to = to
    );
}

/// Why a stream could not be admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The scheme's stream capacity (`N_p`) is reached.
    AtCapacity {
        /// Current active stream count.
        active: usize,
        /// The limit.
        limit: usize,
    },
    /// The object is not in the catalog.
    UnknownObject {
        /// The requested object.
        object: ObjectId,
    },
    /// The system has lost data (catastrophic failure) and cannot admit
    /// streams for objects touching the lost region until rebuild.
    Catastrophic,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::AtCapacity { active, limit } => {
                write!(f, "at capacity: {active} of {limit} streams active")
            }
            AdmissionError::UnknownObject { object } => {
                write!(f, "object {object} not in catalog")
            }
            AdmissionError::Catastrophic => {
                write!(f, "catastrophic failure: data loss pending rebuild")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Count the *data* tracks resident on `disks` in `catalog`.
///
/// When a parity group holds two or more concurrently-failed disks, no
/// surviving parity can reconstruct the data blocks on any of them, so
/// the catastrophic loss is exactly the data tracks on the failed set
/// (parity blocks carry no payload of their own and are excluded).
/// This walks the whole catalog — acceptable on the rare catastrophic
/// path, not for per-cycle use.
#[must_use]
pub fn data_tracks_on_disks<L, I>(catalog: &Catalog<L>, disks: I) -> u64
where
    L: Layout,
    I: IntoIterator<Item = DiskId>,
{
    disks
        .into_iter()
        .map(|d| {
            catalog
                .blocks_on_disk(d)
                .iter()
                .filter(|a| matches!(a.kind, BlockKind::Data(_)))
                .count() as u64
        })
        .sum()
}

/// What a disk failure did to the system, as seen by the scheduler.
#[derive(Debug, Clone, Default)]
pub struct FailureReport {
    /// Blocks that will not be delivered (each is one future hiccup).
    pub lost: Vec<LostBlock>,
    /// Streams terminated outright (degradation of service).
    pub dropped_streams: Vec<StreamId>,
    /// Clusters that entered degraded mode due to this failure.
    pub degraded_clusters: Vec<ClusterId>,
    /// True if data was lost irrecoverably (second failure within one
    /// parity group's span — the paper's *catastrophic failure*).
    pub catastrophic: bool,
    /// Data tracks rendered unrecoverable by this failure (0 unless
    /// [`catastrophic`](Self::catastrophic)): the data blocks resident
    /// on the failed disks of the affected parity group, which no
    /// surviving parity can reconstruct.
    pub data_loss_tracks: u64,
    /// Clusters visited by the Improved-bandwidth "shift to the right"
    /// cascade (empty for other schemes).
    pub shift_path: Vec<ClusterId>,
}

/// How far ahead a scheduler's plan sequence is a pure function of the
/// cycle number — the contract behind the simulator's event-horizon
/// fast path.
///
/// A scheduler reporting `stable = n` promises that for every cycle `t`
/// in `[cycle, cycle + n)` every active stream is in steady state: past
/// its warm-up cycle, strictly before its final-group read, reading `k`
/// and delivering `k′` tracks — Section 2's cycle, the one the buffer
/// equations behind Table 2 and Figure 4 are closed forms of. No stream
/// starts, finishes, or changes phase inside the window, and no disk is
/// failed. The disk pattern repeats with period
/// [`period`](Self::period). The window is invalidated by any call to
/// `admit`/`release`/`on_disk_failure`/`on_disk_repair`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStability {
    /// Cycles per repetition of the plan pattern (≥ 1). For the
    /// clustered schemes this is a full rotation over the `N_C`
    /// clusters (times the read period, for multi-cycle read schedules).
    pub period: u64,
    /// Length of the stability window starting at the queried cycle; 0
    /// means the next cycle must be planned normally.
    pub stable: u64,
}

/// What one cycle of a stability window does, as
/// [`SchemeScheduler::steady_cycle`] states it: everything a driver needs
/// to account for the cycle without planning it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SteadyCycle {
    /// Tracks read from each disk that reads at all, in ascending disk
    /// order — the order a plan's read lists are walked in.
    pub reads: Vec<(DiskId, usize)>,
    /// Tracks delivered.
    pub delivered: usize,
    /// Buffer tracks charged when the cycle ends.
    pub buffer_in_use: usize,
    /// Most buffer tracks charged at once inside the cycle (every read
    /// lands before anything transmitted is released).
    pub buffer_peak: usize,
}

/// Why an object could not be retired from the catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetireError {
    /// Streams are still delivering the object.
    InUse {
        /// The object.
        object: ObjectId,
        /// Active streams on it.
        streams: usize,
    },
    /// The object is not in the catalog.
    NotFound {
        /// The object.
        object: ObjectId,
    },
}

impl fmt::Display for RetireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetireError::InUse { object, streams } => {
                write!(f, "object {object} has {streams} active stream(s)")
            }
            RetireError::NotFound { object } => write!(f, "object {object} not found"),
        }
    }
}

impl std::error::Error for RetireError {}

/// The interface every scheme scheduler implements.
///
/// The scheduler is a deterministic state machine driven by
/// [`plan_cycle_into`](SchemeScheduler::plan_cycle_into); the discrete-event
/// simulator in `mms-sim` executes the produced plans against a real
/// [`mms_disk::DiskArray`] and real parity blocks.
pub trait SchemeScheduler {
    /// Which scheme this is.
    fn scheme(&self) -> SchemeKind;

    /// The cycle configuration in force.
    fn config(&self) -> &CycleConfig;

    /// Admit a new stream for `object`, beginning at `at_cycle` (must be
    /// the next unplanned cycle or later).
    fn admit(&mut self, object: ObjectId, at_cycle: u64) -> Result<StreamId, AdmissionError>;

    /// Maximum concurrently active streams this scheduler will admit.
    fn stream_capacity(&self) -> usize;

    /// Currently active streams.
    fn active_streams(&self) -> usize;

    /// Snapshot of one stream.
    fn stream_info(&self, id: StreamId) -> Option<StreamInfo>;

    /// Plan (and internally commit) one cycle into caller-owned storage.
    /// Cycles must be planned in increasing order without gaps.
    ///
    /// This is the allocation-free form: `plan` is
    /// [`reset`](CyclePlan::reset) and refilled, so a driver that reuses
    /// one `CyclePlan` across cycles pays no per-cycle heap traffic once
    /// the plan's vectors have grown to their steady-state capacity.
    fn plan_cycle_into(&mut self, cycle: u64, plan: &mut CyclePlan);

    /// Gracefully release a stream before its natural end (viewer
    /// abandonment, or a degraded-quality session finishing early).
    ///
    /// Groups already read drain normally: the stream's remaining length
    /// is truncated to the groups read so far, so the scheduler's usual
    /// finish path fires at the next delivery boundary and the stream is
    /// reported in [`CyclePlan::finished`]. A stream that has read
    /// nothing yet is retired immediately with its admission slot and
    /// buffers returned. Returns `false` if the stream is unknown
    /// (already finished or never admitted) — releasing twice is safe.
    fn release(&mut self, id: StreamId) -> bool;

    /// React to a disk failure. `mid_cycle` indicates the failure struck
    /// after `cycle`'s read schedule was already committed (relevant for
    /// the Improved-bandwidth scheme's unmaskable first-cycle hiccup).
    fn on_disk_failure(&mut self, disk: DiskId, cycle: u64, mid_cycle: bool) -> FailureReport;

    /// React to a disk repair (cluster leaves degraded mode).
    fn on_disk_repair(&mut self, disk: DiskId, cycle: u64);

    /// Buffer tracks currently charged.
    fn buffer_in_use(&self) -> usize;

    /// Peak buffer tracks ever charged (the scheme's measured `BF`).
    fn buffer_high_water(&self) -> usize;

    /// Report the plan-stability window starting at `cycle` (which must
    /// be the next unplanned cycle). The default is the always-safe
    /// answer — no stability, plan every cycle — so schemes opt in.
    ///
    /// Implementations are conservative: they return `stable > 0` only
    /// when fully healthy (no failed disks, no mode transitions
    /// pending) and every active stream is past its warm-up cycle and
    /// strictly before its final-group read, so every cycle in the
    /// window is a steady-state cycle.
    fn plan_stability(&self, cycle: u64) -> PlanStability {
        let _ = cycle;
        PlanStability {
            period: 1,
            stable: 0,
        }
    }

    /// State what `cycle` — any cycle of the window
    /// [`plan_stability`](Self::plan_stability) reports — does, in
    /// O(classes + disks) from the admission-class table and without
    /// planning it: `out` is what
    /// [`plan_cycle_into`](Self::plan_cycle_into) would read per disk and
    /// deliver, and what it would leave charged. Must not allocate once
    /// `out.reads` has grown to the disk count.
    ///
    /// Returns `false`, leaving `out` unspecified, when the scheduler
    /// cannot vouch for the cycle and it has to be planned: a group read
    /// around a failure is still in memory with its marks, or the scheme
    /// runs a read policy it has no closed form for. The default matches
    /// the default zero-stability report.
    fn steady_cycle(&self, cycle: u64, out: &mut SteadyCycle) -> bool {
        let _ = (cycle, out);
        false
    }

    /// Skip `cycles` steady cycles in closed form, advancing internal
    /// counters (per-stream delivered tracks and buffer charge, the
    /// next-cycle cursor, any cycle-keyed bookkeeping) exactly as that
    /// many [`plan_cycle_into`](SchemeScheduler::plan_cycle_into) calls
    /// would, without planning them. The buffer high-water mark alone
    /// stays behind; the caller has each skipped cycle's
    /// [`SteadyCycle::buffer_peak`].
    ///
    /// The caller guarantees `cycles` does not exceed the `stable`
    /// window reported for the current cycle and that
    /// [`steady_cycle`](Self::steady_cycle) vouched for each of them.
    /// Must not allocate. The default no-op matches the default
    /// zero-stability report.
    fn fast_forward(&mut self, cycles: u64) {
        let _ = cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_labels() {
        assert_eq!(SchemeKind::StreamingRaid.abbrev(), "SR");
        assert_eq!(SchemeKind::NonClustered.to_string(), "Non-clustered");
        assert_eq!(SchemeKind::ALL.len(), 4);
    }

    #[test]
    fn admission_error_display() {
        let e = AdmissionError::AtCapacity {
            active: 10,
            limit: 10,
        };
        assert!(e.to_string().contains("10"));
    }
}
