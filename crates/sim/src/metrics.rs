//! Simulation metrics.

use mms_disk::Time;
use mms_sched::LossReason;

/// Bounded record of end-of-cycle buffer occupancy.
///
/// The old `Vec<usize>` grew by one entry per cycle forever, so a soak
/// run leaked memory linearly in simulated time. This keeps at most
/// [`BufferSeries::DEFAULT_CAP`] points: while under the cap every cycle
/// is stored exactly (stride 1); at the cap the series is merged
/// pairwise with `max` and the stride doubles, so each retained point is
/// the *peak occupancy* of a `stride`-cycle window. Peaks — the quantity
/// Figure 4 and capacity planning care about — survive downsampling;
/// [`Metrics::buffer_peak`] stays exact independently.
#[derive(Debug, Clone)]
pub struct BufferSeries {
    points: Vec<usize>,
    stride: u64,
    cap: usize,
    bucket_max: usize,
    bucket_fill: u64,
    cycles: u64,
}

impl Default for BufferSeries {
    fn default() -> Self {
        BufferSeries::with_capacity(BufferSeries::DEFAULT_CAP)
    }
}

impl BufferSeries {
    /// Default retention: enough for exact short runs and fine-grained
    /// long ones (a 1M-cycle soak retains one point per 256 cycles).
    pub const DEFAULT_CAP: usize = 4096;

    /// A series retaining at most `cap` points (`cap ≥ 2`).
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap >= 2, "BufferSeries needs at least two points");
        BufferSeries {
            // Reserve the full cap up front: `push` runs on the per-cycle
            // path and must never grow the buffer (the cap merge keeps
            // `len ≤ cap`, so this capacity is never exceeded).
            points: Vec::with_capacity(cap),
            stride: 1,
            cap,
            bucket_max: 0,
            bucket_fill: 0,
            cycles: 0,
        }
    }

    /// Record one end-of-cycle occupancy sample.
    pub fn push(&mut self, occupancy: usize) {
        self.cycles += 1;
        self.bucket_max = self.bucket_max.max(occupancy);
        self.bucket_fill += 1;
        if self.bucket_fill < self.stride {
            return;
        }
        self.points.push(self.bucket_max);
        self.bucket_max = 0;
        self.bucket_fill = 0;
        if self.points.len() >= self.cap {
            // Halve resolution with an in-place pairwise max-merge: the
            // retained buffer is reused, so hitting the cap costs no
            // allocation (this ran on the per-cycle path).
            let n = self.points.len();
            let mut w = 0;
            let mut r = 0;
            while r < n {
                let m = if r + 1 < n {
                    self.points[r].max(self.points[r + 1])
                } else {
                    self.points[r]
                };
                self.points[w] = m;
                w += 1;
                r += 2;
            }
            self.points.truncate(w);
            self.stride *= 2;
        }
    }

    /// The retained points, oldest first; each covers [`stride`] cycles.
    ///
    /// [`stride`]: BufferSeries::stride
    #[must_use]
    pub fn points(&self) -> &[usize] {
        &self.points
    }

    /// Cycles per retained point (1 until the cap is first reached).
    #[must_use]
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Total cycles recorded (including any not yet flushed to a point).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Number of retained points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no point has been retained yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Convenience for the renderers: iterate retained points.
    pub fn iter(&self) -> std::slice::Iter<'_, usize> {
        self.points.iter()
    }
}

impl<'a> IntoIterator for &'a BufferSeries {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

/// What happened in one simulated cycle.
#[derive(Debug, Clone, Default)]
pub struct CycleReport {
    /// The cycle index.
    pub cycle: u64,
    /// Tracks read from disks.
    pub tracks_read: usize,
    /// Data tracks delivered to viewers.
    pub delivered: usize,
    /// Deliveries that required on-the-fly reconstruction.
    pub reconstructed: usize,
    /// Hiccups (missed deliveries) this cycle.
    pub hiccups: usize,
    /// Streams that finished this cycle.
    pub finished: usize,
    /// Buffer tracks in use at end of cycle.
    pub buffer_in_use: usize,
}

/// Cumulative simulation metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Cycles simulated.
    pub cycles: u64,
    /// Total tracks read.
    pub tracks_read: u64,
    /// Total data tracks delivered.
    pub delivered: u64,
    /// Deliveries that were reconstructed from parity.
    pub reconstructed: u64,
    /// Deliveries whose bytes were verified against ground truth.
    pub verified: u64,
    /// Hiccups by cause: (failed-disk, displaced, mid-cycle, degradation).
    pub hiccups_failed_disk: u64,
    /// Hiccups from displaced reads.
    pub hiccups_displaced: u64,
    /// Hiccups from mid-cycle failures.
    pub hiccups_mid_cycle: u64,
    /// Stream terminations from degradation of service.
    pub service_degradations: u64,
    /// Streams completed.
    pub streams_finished: u64,
    /// Aggregate disk busy time.
    pub disk_busy: Time,
    /// Peak buffer occupancy observed (tracks).
    pub buffer_peak: usize,
    /// Buffer occupancy over time (tracks), for memory-profile figures.
    /// Bounded: see [`BufferSeries`].
    pub buffer_series: BufferSeries,
    /// Catastrophic failures detected.
    pub catastrophes: u64,
    /// Tracks read from source disks on behalf of rebuilds.
    pub rebuild_reads: u64,
    /// Rebuilds completed (disks returned to service).
    pub rebuilds_completed: u64,
    /// Cluster-cycles spent out of normal mode: each stepped cycle adds
    /// the clusters its plan ran degraded (or catastrophic). The
    /// exposure window behind Eq. 6's MTTDS.
    pub degraded_cluster_cycles: u64,
}

impl Metrics {
    /// Total hiccups of all causes.
    #[must_use]
    pub fn total_hiccups(&self) -> u64 {
        self.hiccups_failed_disk
            + self.hiccups_displaced
            + self.hiccups_mid_cycle
            + self.service_degradations
    }

    /// Hiccups by cause, in [`LossReason`] declaration order.
    #[must_use]
    pub fn hiccups_by_reason(&self) -> [(LossReason, u64); 4] {
        [
            (LossReason::FailedDisk, self.hiccups_failed_disk),
            (LossReason::Displaced, self.hiccups_displaced),
            (LossReason::MidCycle, self.hiccups_mid_cycle),
            (LossReason::ServiceDegradation, self.service_degradations),
        ]
    }

    /// Record one hiccup by cause.
    pub fn count_hiccup(&mut self, reason: LossReason) {
        match reason {
            LossReason::FailedDisk => self.hiccups_failed_disk += 1,
            LossReason::Displaced => self.hiccups_displaced += 1,
            LossReason::MidCycle => self.hiccups_mid_cycle += 1,
            LossReason::ServiceDegradation => self.service_degradations += 1,
        }
    }

    /// Average disk utilization: aggregate busy time divided by total
    /// available disk-time, `disk_busy / (t_cyc × cycles × disks)`.
    ///
    /// `t_cyc` is the cycle length; both times are converted to seconds,
    /// so the result is a dimensionless fraction — `0.0` (all drives
    /// idle) to `1.0` (every drive busy for every cycle). It can
    /// marginally exceed `1.0` only if rebuild reads were charged on top
    /// of a saturated schedule.
    ///
    /// **Edge behavior:** returns `0.0` when `cycles == 0` or
    /// `disks == 0` — no simulated disk-time exists, so rather than
    /// divide by zero the utilization of an empty run is defined as
    /// zero.
    #[must_use]
    pub fn utilization(&self, t_cyc: Time, disks: usize) -> f64 {
        if self.cycles == 0 || disks == 0 {
            return 0.0;
        }
        let total = t_cyc.as_secs() * self.cycles as f64 * disks as f64;
        self.disk_busy.as_secs() / total
    }

    /// Fraction of scheduled deliveries that actually played:
    /// `delivered / (delivered + total hiccups)`, in `[0.0, 1.0]`.
    ///
    /// **Edge behavior:** returns `1.0` when nothing was ever scheduled
    /// (`delivered + total_hiccups() == 0`) — the claim "every
    /// scheduled delivery played" is vacuously true for an empty run,
    /// and the guard avoids a `0/0` division. Callers distinguishing
    /// "perfect service" from "no service" should also check
    /// [`Metrics::delivered`].
    #[must_use]
    pub fn delivery_rate(&self) -> f64 {
        let scheduled = self.delivered + self.total_hiccups();
        if scheduled == 0 {
            return 1.0;
        }
        self.delivered as f64 / scheduled as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_series_exact_below_cap() {
        let mut s = BufferSeries::with_capacity(16);
        for v in [3usize, 1, 4, 1, 5] {
            s.push(v);
        }
        assert_eq!(s.points(), &[3, 1, 4, 1, 5]);
        assert_eq!(s.stride(), 1);
        assert_eq!(s.cycles(), 5);
    }

    #[test]
    fn buffer_series_is_bounded_and_keeps_window_peaks() {
        let mut s = BufferSeries::with_capacity(8);
        // A spike at cycle 100 inside a long run must survive
        // downsampling as the max of its window.
        for t in 0..10_000usize {
            s.push(if t == 100 { 999 } else { t % 7 });
        }
        assert!(s.len() < 8, "len {} exceeds cap", s.len());
        assert!(s.stride() >= 10_000 / 8);
        assert_eq!(s.iter().copied().max(), Some(999), "spike lost");
        assert_eq!(s.cycles(), 10_000);
        // The memory bound holds regardless of horizon.
        for _ in 0..100_000usize {
            s.push(2);
        }
        assert!(s.len() < 8);
    }

    #[test]
    fn buffer_series_stride_doubles_at_cap() {
        let mut s = BufferSeries::with_capacity(4);
        for v in 0..4usize {
            s.push(v);
        }
        // Hitting the cap merges pairs: [max(0,1), max(2,3)], stride 2.
        assert_eq!(s.points(), &[1, 3]);
        assert_eq!(s.stride(), 2);
    }

    #[test]
    fn hiccup_accounting() {
        let mut m = Metrics::default();
        m.count_hiccup(LossReason::FailedDisk);
        m.count_hiccup(LossReason::Displaced);
        m.count_hiccup(LossReason::Displaced);
        m.count_hiccup(LossReason::ServiceDegradation);
        assert_eq!(m.total_hiccups(), 4);
        assert_eq!(m.hiccups_displaced, 2);
    }

    #[test]
    fn delivery_rate_edge_cases() {
        let mut m = Metrics::default();
        assert_eq!(m.delivery_rate(), 1.0);
        m.delivered = 99;
        m.hiccups_failed_disk = 1;
        assert!((m.delivery_rate() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn utilization_math() {
        let m = Metrics {
            cycles: 10,
            disk_busy: Time::from_secs(5.0),
            ..Metrics::default()
        };
        // 10 cycles of 1 s across 2 disks: 20 disk-seconds; 5 busy = 25%.
        assert!((m.utilization(Time::from_secs(1.0), 2) - 0.25).abs() < 1e-12);
        assert_eq!(Metrics::default().utilization(Time::from_secs(1.0), 2), 0.0);
    }
}
