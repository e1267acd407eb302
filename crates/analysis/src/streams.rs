//! Maximum concurrent streams (Section 2 bound and Eqs. 7–11).

use crate::params::{SchemeParams, SystemParams};
use mms_disk::{Bandwidth, DiskParams};
use mms_sched::SchemeKind;

/// The Section 2 bound on streams per data disk:
///
/// ```text
/// N/D' ≤ B·k' / (b₀·τ_trk·k) − τ_seek / (τ_trk·k)
/// ```
///
/// For `k = k'` (Streaming RAID style) this is
/// `B/(b₀·τ_trk) − τ_seek/(τ_trk·k)` — the expression behind the paper's
/// in-text table showing ≈5% variation at 1.5 Mb/s and ≈15% at 4.5 Mb/s.
#[must_use]
pub fn streams_per_disk_bound(disk: &DiskParams, b0: Bandwidth, k: usize, k_prime: usize) -> f64 {
    let b = disk.track_size.as_mb();
    let b0 = b0.as_megabytes();
    let trk = disk.track_time.as_secs();
    let seek = disk.seek.as_secs();
    b * k_prime as f64 / (b0 * trk * k as f64) - seek / (trk * k as f64)
}

/// Floor with a tolerance for floating-point dust: the paper's Table 3
/// SR entry is exactly 1125, which naive flooring of `1124.999…` breaks.
fn floor_eps(x: f64) -> usize {
    (x + 1e-9).floor().max(0.0) as usize
}

/// The *unfloored* stream capacity of a scheme, `N_p` (Eqs. 8–11),
/// evaluated with a possibly fractional disk count `d` (the Figure 9
/// sweep sizes `D` from the working set, which is not integral).
#[must_use]
pub fn max_streams_fractional(
    sys: &SystemParams,
    scheme: SchemeKind,
    p: &SchemeParams,
    d: f64,
) -> f64 {
    let c = p.c as f64;
    let per_disk_group = streams_per_disk_bound(&sys.disk, sys.b0, p.c - 1, p.c - 1);
    let per_disk_single = streams_per_disk_bound(&sys.disk, sys.b0, 1, 1);
    match scheme {
        // Eq. 8: [B/(b0 τ) − τ_seek/(τ(C−1))] · D(C−1)/C.
        SchemeKind::StreamingRaid => per_disk_group * d * (c - 1.0) / c,
        // Eq. 9 and Eq. 10: [B/(b0 τ) − τ_seek/τ] · D(C−1)/C.
        SchemeKind::StaggeredGroup | SchemeKind::NonClustered => {
            per_disk_single * d * (c - 1.0) / c
        }
        // Eq. 11: [B/(b0 τ) − τ_seek/(τ(C−1))] · (D − K_IB).
        SchemeKind::ImprovedBandwidth => per_disk_group * (d - p.k_ib as f64),
    }
}

/// Eqs. 8–11 floored to whole streams at the system's integral `D`.
#[must_use]
pub fn max_streams(sys: &SystemParams, scheme: SchemeKind, p: &SchemeParams) -> usize {
    floor_eps(max_streams_fractional(sys, scheme, p, sys.d as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section2_intext_table_mpeg1() {
        // τ_seek = 30 ms, τ_trk = 10 ms, B = 100 KB, b0 = 1.5 Mb/s:
        // bound = 53.33 − 3/k; variation k=1→10 is about 5%.
        let sys = SystemParams::section2(Bandwidth::from_megabits(1.5));
        let f = |k| streams_per_disk_bound(&sys.disk, sys.b0, k, k);
        assert!((f(1) - 50.333).abs() < 0.01, "{}", f(1));
        assert!((f(2) - 51.833).abs() < 0.01);
        assert!((f(10) - 53.033).abs() < 0.01);
        let variation = (f(10) - f(1)) / f(10);
        assert!((variation - 0.05).abs() < 0.01, "variation {variation}");
    }

    #[test]
    fn section2_intext_table_mpeg2() {
        // b0 = 4.5 Mb/s: 14.7 / 16.2 / 17.4 and ≈15% variation.
        let sys = SystemParams::section2(Bandwidth::from_megabits(4.5));
        let f = |k| streams_per_disk_bound(&sys.disk, sys.b0, k, k);
        assert!((f(1) - 14.777).abs() < 0.01, "{}", f(1));
        assert!((f(2) - 16.277).abs() < 0.01);
        assert!((f(10) - 17.477).abs() < 0.01);
        let variation = (f(10) - f(1)) / f(10);
        assert!((variation - 0.15).abs() < 0.01, "variation {variation}");
    }

    #[test]
    fn table2_stream_counts_c5() {
        let sys = SystemParams::paper_table1();
        let p = SchemeParams::paper_tables(5);
        assert_eq!(max_streams(&sys, SchemeKind::StreamingRaid, &p), 1041);
        assert_eq!(max_streams(&sys, SchemeKind::StaggeredGroup, &p), 966);
        assert_eq!(max_streams(&sys, SchemeKind::NonClustered, &p), 966);
        assert_eq!(max_streams(&sys, SchemeKind::ImprovedBandwidth, &p), 1263);
    }

    #[test]
    fn table3_stream_counts_c7() {
        let sys = SystemParams::paper_table1();
        let p = SchemeParams::paper_tables(7);
        assert_eq!(max_streams(&sys, SchemeKind::StreamingRaid, &p), 1125);
        assert_eq!(max_streams(&sys, SchemeKind::StaggeredGroup, &p), 1035);
        assert_eq!(max_streams(&sys, SchemeKind::NonClustered, &p), 1035);
        assert_eq!(max_streams(&sys, SchemeKind::ImprovedBandwidth, &p), 1273);
    }

    #[test]
    fn sr_dominates_sg_and_ib_dominates_sr() {
        // Orderings the paper's comparison relies on: SR > SG = NC
        // (bigger k amortizes the seek) and IB > SR (no idle parity
        // disks) for the Table 1 regime.
        let sys = SystemParams::paper_table1();
        for c in 3..=10 {
            let p = SchemeParams::paper_tables(c);
            let sr = max_streams(&sys, SchemeKind::StreamingRaid, &p);
            let sg = max_streams(&sys, SchemeKind::StaggeredGroup, &p);
            let nc = max_streams(&sys, SchemeKind::NonClustered, &p);
            let ib = max_streams(&sys, SchemeKind::ImprovedBandwidth, &p);
            assert!(sr >= sg, "C={c}");
            assert_eq!(sg, nc, "C={c}");
            assert!(ib > sr, "C={c}");
        }
    }

    #[test]
    fn scheduler_capacity_is_within_one_slot_per_cluster_of_eq8() {
        // The discrete scheduler floors slots per class; Eq. 8 floors the
        // aggregate product. The gap is at most one stream per cluster.
        use mms_layout::{Catalog, ClusteredLayout, Geometry};
        use mms_sched::{CycleConfig, GroupedScheduler, SchemeScheduler};
        let sys = SystemParams::paper_table1();
        let p = SchemeParams::paper_tables(5);
        let analytic = max_streams(&sys, SchemeKind::StreamingRaid, &p);
        let layout = ClusteredLayout::new(Geometry::clustered(100, 5).unwrap());
        let catalog = Catalog::new(layout, sys.disk.tracks_per_disk());
        let cfg = CycleConfig::new(sys.disk, sys.b0, 4, 4);
        let sched = GroupedScheduler::new(cfg, catalog);
        let discrete = sched.stream_capacity();
        let clusters = 20;
        assert!(discrete <= analytic);
        assert!(analytic - discrete <= clusters, "{analytic} vs {discrete}");
    }
}
