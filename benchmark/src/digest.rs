//! `sim_digest`: FNV-1a over every simulated counter of a run.
//!
//! Equal digests mean every simulated statistic is identical, which is
//! how "this change only sped the simulator up" is checked.

use mms_fleet::{ControlStats, FleetMetrics, ShardReport, TrafficReport};
use mms_server::disk::ArrayStats;
use mms_server::sim::{Metrics, SessionStats};

/// Running 64-bit FNV-1a hash, fed whole `u64` words (little-endian).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Floats are hashed by bit pattern: "identical" means identical.
    pub fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    pub fn value(&self) -> u64 {
        self.0
    }

    pub fn metrics(&mut self, m: &Metrics) {
        for v in [
            m.cycles,
            m.tracks_read,
            m.delivered,
            m.reconstructed,
            m.verified,
            m.hiccups_failed_disk,
            m.hiccups_displaced,
            m.hiccups_mid_cycle,
            m.service_degradations,
            m.streams_finished,
            m.buffer_peak as u64,
            m.catastrophes,
            m.rebuild_reads,
            m.rebuilds_completed,
        ] {
            self.word(v);
        }
        self.float(m.disk_busy.as_secs());
    }

    pub fn sessions(&mut self, s: &SessionStats) {
        for v in [
            s.offered,
            s.admitted,
            s.rejected,
            s.degraded,
            s.queued,
            s.balked,
            s.released_early,
        ] {
            self.word(v);
        }
        for q in [&s.wait_p50, &s.wait_p95, &s.wait_p99] {
            self.float(q.value().unwrap_or(-1.0));
        }
    }

    pub fn disks(&mut self, a: &ArrayStats) {
        self.word(a.tracks_read);
        self.float(a.busy_time.as_secs());
        self.word(a.rejected_reads);
        self.word(a.failures);
    }

    pub fn fleet(&mut self, f: &FleetMetrics) {
        for v in [
            f.admitted,
            f.rejected,
            f.unavailable,
            f.re_routed_admissions,
            f.node_failures,
            f.node_repairs,
            f.failovers,
            f.re_routed_streams,
            f.dropped_on_failover,
            f.failover_hiccup_cycles,
            f.max_failover_gap,
            f.tracks_lost,
            f.data_loss_events,
            f.released,
        ] {
            self.word(v);
        }
    }

    pub fn control(&mut self, c: &ControlStats) {
        for v in [c.decrees, c.elections, c.messages, c.retries] {
            self.word(v);
        }
    }

    pub fn traffic(&mut self, t: &TrafficReport) {
        for v in [
            t.offered,
            t.admitted,
            t.rejected,
            t.unavailable,
            t.tracks_lost,
        ] {
            self.word(v);
        }
    }

    pub fn shards(&mut self, r: &ShardReport) {
        for v in [
            r.offered,
            r.admitted,
            r.rejected,
            r.balked,
            r.released_early,
            r.delivered,
            r.hiccups,
        ] {
            self.word(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mms_server::disk::Time;

    fn of(feed: impl Fn(&mut Digest)) -> u64 {
        let mut d = Digest::default();
        feed(&mut d);
        d.value()
    }

    #[test]
    fn digest_is_stable_across_runs_and_order_sensitive() {
        let a = of(|d| {
            d.word(1);
            d.word(2);
        });
        let b = of(|d| {
            d.word(1);
            d.word(2);
        });
        assert_eq!(a, b);
        assert_ne!(
            a,
            of(|d| {
                d.word(2);
                d.word(1);
            })
        );
        // FNV-1a of eight zero bytes, fixed by the algorithm.
        assert_eq!(of(|d| d.word(0)), 0xa8c7_f832_281a_39c5);
    }

    /// Bump each counter of a struct in turn; every bump must move the
    /// digest, and no two bumps may collide with each other.
    fn assert_every_bump_moves<T: Clone>(
        base: &T,
        bumps: &[fn(&mut T)],
        feed: impl Fn(&mut Digest, &T),
    ) {
        let mut seen = vec![of(|d| feed(d, base))];
        for bump in bumps {
            let mut changed = base.clone();
            bump(&mut changed);
            let digest = of(|d| feed(d, &changed));
            assert!(
                !seen.contains(&digest),
                "a counter does not reach the digest"
            );
            seen.push(digest);
        }
    }

    #[test]
    fn every_simulator_counter_reaches_the_digest() {
        assert_every_bump_moves(
            &Metrics::default(),
            &[
                |m| m.cycles += 1,
                |m| m.tracks_read += 1,
                |m| m.delivered += 1,
                |m| m.reconstructed += 1,
                |m| m.verified += 1,
                |m| m.hiccups_failed_disk += 1,
                |m| m.hiccups_displaced += 1,
                |m| m.hiccups_mid_cycle += 1,
                |m| m.service_degradations += 1,
                |m| m.streams_finished += 1,
                |m| m.buffer_peak += 1,
                |m| m.catastrophes += 1,
                |m| m.rebuild_reads += 1,
                |m| m.rebuilds_completed += 1,
                |m| m.disk_busy += Time::from_secs(1e-9),
            ],
            Digest::metrics,
        );
    }

    #[test]
    fn every_session_counter_and_wait_quantile_reaches_the_digest() {
        assert_every_bump_moves(
            &SessionStats::default(),
            &[
                |s| s.offered += 1,
                |s| s.admitted += 1,
                |s| s.rejected += 1,
                |s| s.degraded += 1,
                |s| s.queued += 1,
                |s| s.balked += 1,
                |s| s.released_early += 1,
                |s| s.wait_p50.observe(1.0),
                |s| s.wait_p95.observe(2.0),
                |s| s.wait_p99.observe(3.0),
            ],
            Digest::sessions,
        );
    }

    #[test]
    fn every_fleet_and_control_counter_reaches_the_digest() {
        assert_every_bump_moves(
            &FleetMetrics::default(),
            &[
                |f| f.admitted += 1,
                |f| f.rejected += 1,
                |f| f.unavailable += 1,
                |f| f.re_routed_admissions += 1,
                |f| f.node_failures += 1,
                |f| f.node_repairs += 1,
                |f| f.failovers += 1,
                |f| f.re_routed_streams += 1,
                |f| f.dropped_on_failover += 1,
                |f| f.failover_hiccup_cycles += 1,
                |f| f.max_failover_gap += 1,
                |f| f.tracks_lost += 1,
                |f| f.data_loss_events += 1,
                |f| f.released += 1,
            ],
            Digest::fleet,
        );
        assert_every_bump_moves(
            &ControlStats::default(),
            &[
                |c| c.decrees += 1,
                |c| c.elections += 1,
                |c| c.messages += 1,
                |c| c.retries += 1,
            ],
            Digest::control,
        );
    }
}
