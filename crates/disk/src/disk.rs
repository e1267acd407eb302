//! A single disk drive: identity, state machine, per-cycle accounting.

use crate::error::DiskError;
use crate::params::DiskParams;
use crate::units::Time;
use mms_telemetry::{counter, event, histogram, Level};
use std::fmt;

/// Identifier of a disk in the array, dense from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DiskId(pub u32);

impl DiskId {
    /// The id as an index into array-sized vectors.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DiskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Operating state of a drive, following the three modes of Muntz & Lui
/// cited in the paper: normal, degraded (failed), and rebuild.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiskState {
    /// Fully operational.
    Normal,
    /// Down; reads fail. `since` is the simulation time of the failure.
    Failed {
        /// When the failure occurred.
        since: Time,
    },
    /// A spare has been installed and is being reloaded; reads still fail
    /// until the rebuild completes.
    Rebuilding {
        /// When the rebuild started.
        since: Time,
        /// Fraction of the contents restored so far, in `[0, 1]`.
        progress: f64,
    },
}

impl DiskState {
    /// Whether reads can be serviced.
    #[must_use]
    pub fn is_operational(&self) -> bool {
        matches!(self, DiskState::Normal)
    }
}

/// Cumulative per-disk statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiskStats {
    /// Tracks successfully read.
    pub tracks_read: u64,
    /// Cycles in which at least one read was serviced.
    pub busy_cycles: u64,
    /// Total service time accrued (`T(r)` per serviced cycle).
    pub busy_time: Time,
    /// Reads rejected because the disk was down.
    pub rejected_reads: u64,
    /// Number of failures sustained.
    pub failures: u64,
}

/// A disk drive with the paper's service-time model and a failure state
/// machine.
#[derive(Debug, Clone)]
pub struct Disk {
    id: DiskId,
    params: DiskParams,
    state: DiskState,
    stats: DiskStats,
}

impl Disk {
    /// Create an operational drive.
    #[must_use]
    pub fn new(id: DiskId, params: DiskParams) -> Self {
        Disk {
            id,
            params,
            state: DiskState::Normal,
            stats: DiskStats::default(),
        }
    }

    /// The drive's identity.
    #[must_use]
    pub fn id(&self) -> DiskId {
        self.id
    }

    /// The drive's model parameters.
    #[must_use]
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> DiskState {
        self.state
    }

    /// Whether reads can be serviced.
    #[must_use]
    pub fn is_operational(&self) -> bool {
        self.state.is_operational()
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Service a batch of `tracks` reads within one cycle of length
    /// `t_cyc`, enforcing the slot capacity `T(r) ≤ T_cyc`.
    ///
    /// Returns the service time `T(r)` actually spent. A zero-track batch
    /// costs nothing (the drive does not seek if it has no work).
    pub fn read_tracks(&mut self, tracks: usize, t_cyc: Time) -> Result<Time, DiskError> {
        if tracks == 0 {
            return Ok(Time::ZERO);
        }
        if !self.is_operational() {
            self.stats.rejected_reads += tracks as u64;
            counter!("disk.rejected_reads", tracks as u64, disk = self.id.0);
            return Err(DiskError::NotOperational { disk: self.id });
        }
        let capacity = self.params.slots_per_cycle(t_cyc);
        if tracks > capacity {
            return Err(DiskError::CycleOverload {
                disk: self.id,
                requested: tracks,
                capacity,
            });
        }
        let t = self.params.service_time(tracks);
        self.stats.tracks_read += tracks as u64;
        self.stats.busy_cycles += 1;
        self.stats.busy_time += t;
        histogram!("disk.service_ms", t.as_millis(), disk = self.id.0);
        Ok(t)
    }

    /// Apply the accounting of a read batch without re-checking capacity.
    ///
    /// The simulator's quiescent fast-forward charges each skipped
    /// cycle's batches this way, in the order a per-cycle run issues
    /// them and with [`DiskParams::service_time`] for `t` — what
    /// [`read_tracks`](Self::read_tracks) computes — so `busy_time`
    /// accumulates the same f64 sequence bit for bit. With `traced`, the
    /// batch also records the `disk.service_ms` point `read_tracks`
    /// records; the caller decides it once per skipped window, so an
    /// untraced run pays nothing per read. Callers guarantee the batch
    /// fits the cycle (admission control does) and that the drive is
    /// operational.
    pub fn replay_read(&mut self, tracks: usize, t: Time, traced: bool) {
        debug_assert!(self.is_operational(), "replay on a non-operational disk");
        self.stats.tracks_read += tracks as u64;
        self.stats.busy_cycles += 1;
        self.stats.busy_time += t;
        if traced {
            histogram!("disk.service_ms", t.as_millis(), disk = self.id.0);
        }
    }

    /// Mark the drive failed at simulation time `now`.
    pub fn fail(&mut self, now: Time) -> Result<(), DiskError> {
        if !matches!(self.state, DiskState::Normal) {
            return Err(DiskError::AlreadyFailed { disk: self.id });
        }
        self.state = DiskState::Failed { since: now };
        self.stats.failures += 1;
        event!(
            Level::Warn,
            "disk.failed",
            disk = self.id.0,
            at_secs = now.as_secs()
        );
        Ok(())
    }

    /// Begin rebuilding onto a spare at time `now`.
    pub fn start_rebuild(&mut self, now: Time) -> Result<(), DiskError> {
        match self.state {
            DiskState::Failed { .. } => {
                self.state = DiskState::Rebuilding {
                    since: now,
                    progress: 0.0,
                };
                event!(
                    Level::Info,
                    "disk.rebuild_start",
                    disk = self.id.0,
                    at_secs = now.as_secs()
                );
                Ok(())
            }
            _ => Err(DiskError::NotFailed { disk: self.id }),
        }
    }

    /// Advance rebuild progress; completes (returns to `Normal`) when the
    /// fraction reaches 1.
    pub fn advance_rebuild(&mut self, fraction: f64) -> Result<bool, DiskError> {
        match &mut self.state {
            DiskState::Rebuilding { progress, .. } => {
                *progress = (*progress + fraction).min(1.0);
                if *progress >= 1.0 {
                    self.state = DiskState::Normal;
                    event!(Level::Info, "disk.rebuild_complete", disk = self.id.0);
                    return Ok(true);
                }
                Ok(false)
            }
            _ => Err(DiskError::NotFailed { disk: self.id }),
        }
    }

    /// Repair the drive in one step (failed or rebuilding → normal); models
    /// the paper's MTTR as an opaque interval.
    pub fn repair(&mut self) -> Result<(), DiskError> {
        match self.state {
            DiskState::Failed { .. } | DiskState::Rebuilding { .. } => {
                self.state = DiskState::Normal;
                event!(Level::Info, "disk.repaired", disk = self.id.0);
                Ok(())
            }
            DiskState::Normal => Err(DiskError::NotFailed { disk: self.id }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Disk {
        Disk::new(DiskId(0), DiskParams::paper_table1())
    }

    #[test]
    fn read_within_capacity_accrues_service_time() {
        let mut d = disk();
        let t_cyc = Time::from_millis(266.0); // 12 slots
        let t = d.read_tracks(5, t_cyc).unwrap();
        assert_eq!(t, Time::from_millis(125.0));
        assert_eq!(d.stats().tracks_read, 5);
        assert_eq!(d.stats().busy_cycles, 1);
    }

    #[test]
    fn zero_reads_cost_nothing() {
        let mut d = disk();
        let t = d.read_tracks(0, Time::from_millis(100.0)).unwrap();
        assert_eq!(t, Time::ZERO);
        assert_eq!(d.stats().busy_cycles, 0);
    }

    #[test]
    fn overload_is_rejected() {
        let mut d = disk();
        let t_cyc = Time::from_millis(105.0); // (105-25)/20 = 4 slots
        let err = d.read_tracks(5, t_cyc).unwrap_err();
        assert_eq!(
            err,
            DiskError::CycleOverload {
                disk: DiskId(0),
                requested: 5,
                capacity: 4
            }
        );
        assert_eq!(d.stats().tracks_read, 0);
    }

    #[test]
    fn failed_disk_rejects_reads() {
        let mut d = disk();
        d.fail(Time::from_secs(10.0)).unwrap();
        assert!(!d.is_operational());
        let err = d.read_tracks(1, Time::from_millis(266.0)).unwrap_err();
        assert_eq!(err, DiskError::NotOperational { disk: DiskId(0) });
        assert_eq!(d.stats().rejected_reads, 1);
    }

    #[test]
    fn double_fail_is_error() {
        let mut d = disk();
        d.fail(Time::ZERO).unwrap();
        assert!(d.fail(Time::ZERO).is_err());
    }

    #[test]
    fn rebuild_lifecycle() {
        let mut d = disk();
        d.fail(Time::ZERO).unwrap();
        d.start_rebuild(Time::from_secs(1.0)).unwrap();
        assert!(!d.is_operational());
        assert!(!d.advance_rebuild(0.5).unwrap());
        assert!(d.advance_rebuild(0.6).unwrap());
        assert!(d.is_operational());
        assert_eq!(d.stats().failures, 1);
    }

    #[test]
    fn telemetry_captures_service_times_failures_and_rejections() {
        use mms_telemetry::{Labels, Level, Recorder};
        let rec = Recorder::new(Level::Info);
        let mut d = disk();
        {
            let _g = rec.install();
            let t_cyc = Time::from_millis(266.0);
            d.read_tracks(5, t_cyc).unwrap();
            d.fail(Time::from_secs(2.0)).unwrap();
            let _ = d.read_tracks(3, t_cyc);
            d.repair().unwrap();
        }
        let labels = Labels::new(vec![("disk", 0u64.into())]);
        let snap = rec.snapshot();
        let hist = snap
            .histogram("disk.service_ms", &labels)
            .expect("service-time histogram recorded");
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.max(), Some(125.0));
        assert_eq!(snap.counter_total("disk.rejected_reads"), 3);
        let events = rec.take_events();
        assert!(events
            .iter()
            .any(|e| e.name == "disk.failed" && e.level == Level::Warn));
        assert!(events.iter().any(|e| e.name == "disk.repaired"));
    }

    #[test]
    fn a_traced_replay_records_the_point_a_read_records() {
        use mms_telemetry::{Labels, Level, Recorder};
        let t_cyc = Time::from_millis(266.0);
        let labels = Labels::new(vec![("disk", 0u64.into())]);
        let histogram = |replay: bool| {
            let rec = Recorder::new(Level::Info);
            let mut d = disk();
            {
                let _g = rec.install();
                if replay {
                    d.replay_read(5, d.params().service_time(5), true);
                    d.replay_read(5, d.params().service_time(5), false);
                } else {
                    d.read_tracks(5, t_cyc).unwrap();
                }
            }
            let snap = rec.snapshot();
            let hist = snap.histogram("disk.service_ms", &labels).cloned();
            hist.map(|h| (h.count(), h.counts().to_vec(), h.sum()))
        };
        assert_eq!(histogram(true), histogram(false));
        assert!(histogram(false).is_some());
    }

    #[test]
    fn repair_requires_failed_state() {
        let mut d = disk();
        assert!(d.repair().is_err());
        d.fail(Time::ZERO).unwrap();
        d.repair().unwrap();
        assert!(d.is_operational());
    }
}
