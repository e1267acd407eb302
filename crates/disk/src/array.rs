//! The disk farm: a homogeneous array of drives with failure injection.

use crate::disk::{Disk, DiskId};
use crate::error::DiskError;
use crate::params::DiskParams;
use crate::units::Time;

/// Aggregate statistics over the array.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ArrayStats {
    /// Total tracks read across all drives.
    pub tracks_read: u64,
    /// Total service time across all drives.
    pub busy_time: Time,
    /// Total reads rejected (issued to down drives).
    pub rejected_reads: u64,
    /// Total failures sustained.
    pub failures: u64,
}

/// A homogeneous array of `D` drives.
///
/// The paper's systems contain "something on the order of 1000 drives";
/// the array supports failure injection and repair so that the schedulers
/// and simulators above it can exercise degraded mode.
#[derive(Debug, Clone)]
pub struct DiskArray {
    disks: Vec<Disk>,
}

impl DiskArray {
    /// Create an array of `count` drives, all with the same parameters.
    ///
    /// # Panics
    /// Panics if `count` is 0 or exceeds `u32::MAX`.
    #[must_use]
    pub fn new(count: usize, params: DiskParams) -> Self {
        assert!(count > 0, "an array needs at least one disk");
        assert!(u32::try_from(count).is_ok(), "too many disks");
        let disks = (0..count)
            .map(|i| Disk::new(DiskId(i as u32), params))
            .collect();
        DiskArray { disks }
    }

    /// Number of drives (the paper's `D`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.disks.len()
    }

    /// Always false: arrays are non-empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.disks.is_empty()
    }

    /// Access a drive.
    pub fn disk(&self, id: DiskId) -> Result<&Disk, DiskError> {
        self.disks
            .get(id.index())
            .ok_or(DiskError::NoSuchDisk { disk: id })
    }

    /// Mutable access to a drive.
    pub fn disk_mut(&mut self, id: DiskId) -> Result<&mut Disk, DiskError> {
        self.disks
            .get_mut(id.index())
            .ok_or(DiskError::NoSuchDisk { disk: id })
    }

    /// Iterate over all drives.
    pub fn iter(&self) -> impl Iterator<Item = &Disk> {
        self.disks.iter()
    }

    /// Ids of all drives currently down (failed or rebuilding).
    #[must_use]
    pub fn failed_disks(&self) -> Vec<DiskId> {
        self.disks
            .iter()
            .filter(|d| !d.is_operational())
            .map(Disk::id)
            .collect()
    }

    /// Number of operational drives.
    #[must_use]
    pub fn operational_count(&self) -> usize {
        self.disks.iter().filter(|d| d.is_operational()).count()
    }

    /// Inject a failure.
    pub fn fail(&mut self, id: DiskId, now: Time) -> Result<(), DiskError> {
        self.disk_mut(id)?.fail(now)
    }

    /// Repair a drive in one step.
    pub fn repair(&mut self, id: DiskId) -> Result<(), DiskError> {
        self.disk_mut(id)?.repair()
    }

    /// Whether a read of one track on `id` would succeed right now.
    #[must_use]
    pub fn is_operational(&self, id: DiskId) -> bool {
        self.disk(id).map(Disk::is_operational).unwrap_or(false)
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> ArrayStats {
        let mut s = ArrayStats::default();
        for d in &self.disks {
            let ds = d.stats();
            s.tracks_read += ds.tracks_read;
            s.busy_time += ds.busy_time;
            s.rejected_reads += ds.rejected_reads;
            s.failures += ds.failures;
        }
        s
    }

    /// Fraction of drives that are up, in `[0, 1]`.
    #[must_use]
    pub fn availability(&self) -> f64 {
        self.operational_count() as f64 / self.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array(n: usize) -> DiskArray {
        DiskArray::new(n, DiskParams::paper_table1())
    }

    #[test]
    fn new_array_is_fully_operational() {
        let a = array(10);
        assert_eq!(a.len(), 10);
        assert_eq!(a.operational_count(), 10);
        assert!(a.failed_disks().is_empty());
        assert!((a.availability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fail_and_repair_round_trip() {
        let mut a = array(5);
        a.fail(DiskId(2), Time::ZERO).unwrap();
        assert_eq!(a.operational_count(), 4);
        assert_eq!(a.failed_disks(), vec![DiskId(2)]);
        assert!(!a.is_operational(DiskId(2)));
        a.repair(DiskId(2)).unwrap();
        assert_eq!(a.operational_count(), 5);
    }

    #[test]
    fn out_of_range_disk_is_error() {
        let mut a = array(3);
        assert!(matches!(
            a.fail(DiskId(7), Time::ZERO),
            Err(DiskError::NoSuchDisk { .. })
        ));
        assert!(a.disk(DiskId(7)).is_err());
        assert!(!a.is_operational(DiskId(7)));
    }

    #[test]
    fn aggregate_stats_sum_over_disks() {
        let mut a = array(3);
        let t_cyc = Time::from_millis(266.0);
        a.disk_mut(DiskId(0))
            .unwrap()
            .read_tracks(3, t_cyc)
            .unwrap();
        a.disk_mut(DiskId(1))
            .unwrap()
            .read_tracks(2, t_cyc)
            .unwrap();
        a.fail(DiskId(2), Time::ZERO).unwrap();
        let _ = a.disk_mut(DiskId(2)).unwrap().read_tracks(1, t_cyc);
        let s = a.stats();
        assert_eq!(s.tracks_read, 5);
        assert_eq!(s.rejected_reads, 1);
        assert_eq!(s.failures, 1);
        // 2 seeks + 5 tracks = 2*25 + 5*20 = 150 ms.
        assert_eq!(s.busy_time, Time::from_millis(150.0));
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn empty_array_panics() {
        let _ = array(0);
    }
}
