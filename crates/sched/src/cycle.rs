//! Cycle timing configuration.

use mms_disk::{Bandwidth, DiskParams, Time};

/// Timing parameters of a cycle-based schedule (Section 2).
///
/// `k` tracks are read per stream per *read cycle*; `k'` tracks are
/// transmitted per stream per cycle; `k` must be an integer multiple of
/// `k'`, and the cycle length is `T_cyc = k'·B / b₀`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleConfig {
    /// The disk model parameters.
    pub disk: DiskParams,
    /// Object delivery bandwidth `b₀`.
    pub b0: Bandwidth,
    /// Tracks read per stream per read cycle.
    pub k: usize,
    /// Tracks transmitted per stream per cycle.
    pub k_prime: usize,
}

impl CycleConfig {
    /// Build a configuration; enforces `k % k' == 0` and `k' ≥ 1`.
    ///
    /// # Panics
    /// Panics on violated preconditions (these are programming errors, not
    /// runtime conditions: each scheme fixes `k` and `k'` statically).
    #[must_use]
    pub fn new(disk: DiskParams, b0: Bandwidth, k: usize, k_prime: usize) -> Self {
        assert!(k_prime >= 1, "k' must be at least 1");
        assert!(
            k.is_multiple_of(k_prime),
            "k ({k}) must be an integer multiple of k' ({k_prime})"
        );
        CycleConfig {
            disk,
            b0,
            k,
            k_prime,
        }
    }

    /// Cycle length `T_cyc = k'·B / b₀`.
    #[must_use]
    #[inline]
    pub fn t_cyc(&self) -> Time {
        self.disk.cycle_time(self.k_prime, self.b0)
    }

    /// Cycles between consecutive read cycles of one stream, `k / k'`.
    #[must_use]
    #[inline]
    pub fn read_period(&self) -> usize {
        self.k / self.k_prime
    }

    /// Cycles a stream holds its slot to play `tracks` tracks: one read
    /// cycle per group of `k`, spaced [`read_period`](Self::read_period)
    /// cycles apart.
    #[must_use]
    pub fn session_cycles(&self, tracks: u64) -> u64 {
        tracks.div_ceil(self.k as u64) * self.read_period() as u64
    }

    /// Per-disk, per-cycle slot capacity: the number of track reads that
    /// fit in one cycle, `max r: τ_seek + r·τ_trk ≤ T_cyc`.
    #[must_use]
    #[inline]
    pub fn slots_per_disk(&self) -> usize {
        self.disk.slots_per_cycle(self.t_cyc())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_raid_config_c5_mpeg1() {
        // Table 1 parameters, C = 5: k = k' = 4.
        let cfg = CycleConfig::new(
            DiskParams::paper_table1(),
            Bandwidth::from_megabits(1.5),
            4,
            4,
        );
        // T_cyc = 4 * 0.05 / 0.1875 = 1.0667 s.
        assert!((cfg.t_cyc().as_secs() - 4.0 * 0.05 / 0.1875).abs() < 1e-12);
        assert_eq!(cfg.read_period(), 1);
        // 10 tracks are three groups of 4, one read cycle each.
        assert_eq!(cfg.session_cycles(10), 3);
        // slots = floor((1066.7 - 25) / 20) = 52.
        assert_eq!(cfg.slots_per_disk(), 52);
    }

    #[test]
    fn staggered_config_c5_mpeg1() {
        let cfg = CycleConfig::new(
            DiskParams::paper_table1(),
            Bandwidth::from_megabits(1.5),
            4,
            1,
        );
        assert_eq!(cfg.read_period(), 4);
        // Three groups of 4, one every 4 cycles.
        assert_eq!(cfg.session_cycles(10), 12);
        // T_cyc = 0.2667 s; slots = floor((266.7 - 25)/20) = 12.
        assert_eq!(cfg.slots_per_disk(), 12);
    }

    #[test]
    fn nonclustered_config() {
        let cfg = CycleConfig::new(
            DiskParams::paper_table1(),
            Bandwidth::from_megabits(1.5),
            1,
            1,
        );
        assert_eq!(cfg.read_period(), 1);
        assert_eq!(cfg.slots_per_disk(), 12);
    }

    #[test]
    #[should_panic(expected = "integer multiple")]
    fn k_must_divide() {
        let _ = CycleConfig::new(
            DiskParams::paper_table1(),
            Bandwidth::from_megabits(1.5),
            5,
            2,
        );
    }
}
