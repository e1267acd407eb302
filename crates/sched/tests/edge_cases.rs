//! Scheduler edge cases the figures don't cover: parity-disk failures,
//! failures between read cycles, repairs mid-schedule, and admission
//! classes across clusters.

use mms_disk::{Bandwidth, DiskId, DiskParams};
use mms_layout::{BandwidthClass, Catalog, ClusteredLayout, Geometry, MediaObject, ObjectId};
use mms_sched::test_support::plan_cycle;
use mms_sched::{
    CycleConfig, GroupedScheduler, NonClusteredScheduler, SchemeScheduler, TransitionPolicy,
};

fn catalog(disks: usize, c: usize, objects: u64, tracks: u64) -> Catalog<ClusteredLayout> {
    let geo = Geometry::clustered(disks, c).unwrap();
    let mut catalog = Catalog::new(ClusteredLayout::new(geo), 100_000);
    for i in 0..objects {
        catalog
            .add(MediaObject::new(
                ObjectId(i),
                format!("m{i}"),
                tracks,
                BandwidthClass::Mpeg1,
            ))
            .unwrap();
    }
    catalog
}

#[test]
fn nc_parity_disk_failure_keeps_normal_mode() {
    // The parity disk holds no data in normal NC operation: losing it
    // must change nothing (no degraded mode, no buffer server, no
    // hiccups) — only protection is gone.
    let cfg = CycleConfig::new(
        DiskParams::paper_table1(),
        Bandwidth::from_megabits(1.5),
        1,
        1,
    );
    let mut s =
        NonClusteredScheduler::new(cfg, catalog(10, 5, 2, 16), TransitionPolicy::Delayed, 2);
    s.admit(ObjectId(0), 0).unwrap();
    plan_cycle(&mut s, 0);
    let report = s.on_disk_failure(DiskId(4), 1, false); // cluster 0's parity disk
    assert!(!report.catastrophic);
    assert!(report.lost.is_empty());
    let mut delivered = 0;
    for t in 1..20 {
        let p = plan_cycle(&mut s, t);
        assert!(p.hiccups.is_empty(), "cycle {t}");
        delivered += p.deliveries.len();
    }
    assert_eq!(delivered, 16);
    // No buffer server was consumed for a parity-only failure.
    assert_eq!(s.servers().count(), 0);
}

#[test]
fn nc_parity_then_data_failure_is_catastrophic_and_loses_blocks() {
    let cfg = CycleConfig::new(
        DiskParams::paper_table1(),
        Bandwidth::from_megabits(1.5),
        1,
        1,
    );
    let mut s = NonClusteredScheduler::new(cfg, catalog(10, 5, 2, 24), TransitionPolicy::Simple, 2);
    s.admit(ObjectId(0), 0).unwrap();
    plan_cycle(&mut s, 0);
    assert!(!s.on_disk_failure(DiskId(4), 1, false).catastrophic);
    let second = s.on_disk_failure(DiskId(1), 1, false);
    assert!(second.catastrophic);
    // Blocks on the dead data disk hiccup with no parity to rebuild from.
    let mut hiccups = 0;
    for t in 1..30 {
        hiccups += plan_cycle(&mut s, t).hiccups.len();
    }
    assert!(hiccups > 0);
}

#[test]
fn nc_stability_reopens_once_a_repaired_transition_has_drained() {
    // ROADMAP defect (c): a transition's `suppressed` marks used to
    // outlive it, so one failure — repaired or not — kept
    // `plan_stability` at 0 for the rest of the run.
    let cfg = CycleConfig::new(
        DiskParams::paper_table1(),
        Bandwidth::from_megabits(1.5),
        1,
        1,
    );
    for policy in [TransitionPolicy::Simple, TransitionPolicy::Delayed] {
        let mut s = NonClusteredScheduler::new(cfg, catalog(10, 5, 2, 400), policy, 2);
        s.admit(ObjectId(0), 0).unwrap();
        s.admit(ObjectId(1), 1).unwrap();
        for t in 0..6 {
            plan_cycle(&mut s, t);
        }
        assert!(s.plan_stability(6).stable > 0, "{policy:?}: healthy");
        // Disk 1 dies while stream 0 is mid-group on cluster 0: blocks
        // are lost or moved, and the transition leaves its marks.
        let report = s.on_disk_failure(DiskId(1), 6, false);
        assert!(!report.catastrophic && report.dropped_streams.is_empty());
        for t in 6..20 {
            plan_cycle(&mut s, t);
            assert_eq!(s.plan_stability(t + 1).stable, 0, "{policy:?}: degraded");
        }
        s.on_disk_repair(DiskId(1), 20);
        // Groups read at the buffer server drain within one group time
        // plus the delayed policy's C-cycle window.
        let mut reopened = None;
        for t in 20..40 {
            plan_cycle(&mut s, t);
            if s.plan_stability(t + 1).stable > 0 {
                reopened = Some(t + 1);
                break;
            }
        }
        let at = reopened.unwrap_or_else(|| panic!("{policy:?}: the window never re-opened"));
        assert!(at <= 20 + 5 + 5, "{policy:?}: re-opened only at {at}");
        // And what it promises holds: a whole rotation can be skipped.
        let window = s.plan_stability(at);
        assert!(window.stable >= window.period, "{policy:?}: {window:?}");
        s.fast_forward(window.period);
        let p = plan_cycle(&mut s, at + window.period);
        assert_eq!((p.total_reads(), p.deliveries.len()), (2, 2), "{policy:?}");
        assert!(p.hiccups.is_empty());
    }
}

#[test]
fn staggered_failure_between_read_cycles_is_invisible() {
    // SG reads a whole group (with parity) every C−1 cycles. A failure
    // that arrives *and is repaired* strictly between a stream's read
    // cycles never surfaces: the data was already resident.
    let cfg = CycleConfig::new(
        DiskParams::paper_table1(),
        Bandwidth::from_megabits(1.5),
        4,
        1,
    );
    let mut s = GroupedScheduler::new(cfg, catalog(10, 5, 1, 8));
    s.admit(ObjectId(0), 0).unwrap();
    let p0 = plan_cycle(&mut s, 0); // read group 0 (cycles 0..4 deliver it)
    assert_eq!(p0.total_reads(), 5);
    s.on_disk_failure(DiskId(0), 1, false);
    let p1 = plan_cycle(&mut s, 1);
    assert!(p1.hiccups.is_empty());
    s.on_disk_repair(DiskId(0), 2);
    for t in 2..10 {
        let p = plan_cycle(&mut s, t);
        assert!(p.hiccups.is_empty(), "cycle {t}");
        assert!(
            p.deliveries.iter().all(|d| !d.reconstructed),
            "nothing should need reconstruction"
        );
    }
}

#[test]
fn staggered_admission_spreads_over_phases_and_clusters() {
    let cfg = CycleConfig::new(
        DiskParams::paper_table1(),
        Bandwidth::from_megabits(1.5),
        4,
        1,
    );
    // Objects 0 and 1 start on clusters 0 and 1 (round-robin).
    let mut s = GroupedScheduler::new(cfg, catalog(10, 5, 2, 400));
    let slots = s.config().slots_per_disk();
    // Fill phase 0 of object 0's trajectory…
    for _ in 0..slots {
        s.admit(ObjectId(0), 0).unwrap();
    }
    assert!(s.admit(ObjectId(0), 0).is_err());
    // …object 1 lives on the other cluster trajectory: same phase admits.
    for _ in 0..slots {
        s.admit(ObjectId(1), 0).unwrap();
    }
    assert!(s.admit(ObjectId(1), 0).is_err());
    // And a different phase still has room for both.
    assert!(s.admit(ObjectId(0), 1).is_ok());
    assert!(s.admit(ObjectId(1), 1).is_ok());
    assert_eq!(s.active_streams(), 2 * slots + 2);
}

#[test]
fn nc_failure_on_idle_cluster_costs_nothing() {
    // A disk fails in a cluster no in-flight group touches at that
    // moment: the transition finds nothing to move and nothing is lost;
    // later groups arriving there run group-at-a-time cleanly.
    let cfg = CycleConfig::new(
        DiskParams::paper_table1(),
        Bandwidth::from_megabits(1.5),
        1,
        1,
    );
    let mut s = NonClusteredScheduler::new(cfg, catalog(10, 5, 1, 16), TransitionPolicy::Simple, 2);
    s.admit(ObjectId(0), 0).unwrap();
    // Stream starts on cluster 0 (groups 0, 2 there; 1, 3 on cluster 1).
    // Fail a cluster-1 disk while the stream is mid-group on cluster 0.
    plan_cycle(&mut s, 0);
    let report = s.on_disk_failure(DiskId(6), 1, false);
    assert!(report.lost.is_empty());
    let mut hiccups = 0;
    let mut delivered = 0;
    for t in 1..20 {
        let p = plan_cycle(&mut s, t);
        hiccups += p.hiccups.len();
        delivered += p.deliveries.len();
    }
    assert_eq!(hiccups, 0);
    assert_eq!(delivered, 16);
}

mod ib_edges {
    use super::*;
    use mms_layout::ImprovedLayout;

    fn ib(disks: usize, reserve: usize, objects: u64) -> GroupedScheduler<ImprovedLayout> {
        let geo = Geometry::improved(disks, 5).unwrap();
        let mut catalog = Catalog::new(ImprovedLayout::new(geo), 100_000);
        for i in 0..objects {
            catalog
                .add(MediaObject::new(
                    ObjectId(i),
                    format!("m{i}"),
                    64,
                    BandwidthClass::Mpeg1,
                ))
                .unwrap();
        }
        let cfg = CycleConfig::new(
            DiskParams::paper_table1(),
            Bandwidth::from_megabits(1.5),
            4,
            4,
        );
        GroupedScheduler::with_reserve(cfg, catalog, reserve)
    }

    #[test]
    fn ib_repair_mid_shift_restores_local_reads() {
        let mut s = ib(8, 1, 1);
        s.admit(ObjectId(0), 0).unwrap();
        s.on_disk_failure(DiskId(1), 0, false);
        let p0 = plan_cycle(&mut s, 0);
        // One parity read on cluster 1 during the shift.
        assert!(p0
            .reads
            .values()
            .flatten()
            .any(|r| r.purpose == mms_sched::ReadPurpose::Parity));
        s.on_disk_repair(DiskId(1), 1);
        for t in 1..8 {
            let p = plan_cycle(&mut s, t);
            assert!(
                p.reads
                    .values()
                    .flatten()
                    .all(|r| r.purpose == mms_sched::ReadPurpose::Delivery),
                "cycle {t}: shift must stop after repair"
            );
            assert!(p.hiccups.is_empty(), "cycle {t}");
        }
        assert!(s.last_shift_path().is_empty());
    }

    #[test]
    fn ib_admission_capacity_is_exact() {
        // Admission fills every (cluster-phase) class to the usable slot
        // count and not one stream more.
        let mut s = ib(12, 2, 3); // 3 clusters; objects start round-robin
        let cap = s.stream_capacity();
        let mut admitted = 0;
        let mut denied_streak = 0;
        let mut t = 0u64;
        while denied_streak < 6 {
            let obj = ObjectId(admitted as u64 % 3);
            if s.admit(obj, t).is_ok() {
                admitted += 1;
                denied_streak = 0;
            } else {
                denied_streak += 1;
                plan_cycle(&mut s, t);
                t += 1;
            }
        }
        assert_eq!(admitted, cap, "capacity must be exactly reachable");
        // And the resulting schedule respects every slot budget.
        let capacity = s.config().slots_per_disk();
        for tt in t..t + 6 {
            let p = plan_cycle(&mut s, tt);
            for reads in p.reads.values() {
                assert!(reads.len() <= capacity);
            }
        }
    }
}

mod sr_edges {
    use super::*;

    #[test]
    fn sr_admission_capacity_is_exact() {
        let geo = Geometry::clustered(20, 5).unwrap();
        let mut cat = Catalog::new(ClusteredLayout::new(geo), 1_000_000);
        for i in 0..4u64 {
            cat.add(MediaObject::new(
                ObjectId(i),
                format!("m{i}"),
                100_000,
                BandwidthClass::Mpeg1,
            ))
            .unwrap();
        }
        let cfg = CycleConfig::new(
            DiskParams::paper_table1(),
            Bandwidth::from_megabits(1.5),
            4,
            4,
        );
        let mut s = GroupedScheduler::new(cfg, cat);
        let cap = s.stream_capacity();
        let mut admitted = 0;
        let mut denied_streak = 0;
        let mut t = 0u64;
        while denied_streak < 6 {
            let obj = ObjectId(admitted as u64 % 4);
            if s.admit(obj, t).is_ok() {
                admitted += 1;
                denied_streak = 0;
            } else {
                denied_streak += 1;
                plan_cycle(&mut s, t);
                t += 1;
            }
        }
        assert_eq!(admitted, cap);
        let capacity = s.config().slots_per_disk();
        for tt in t..t + 4 {
            let p = plan_cycle(&mut s, tt);
            for reads in p.reads.values() {
                assert!(reads.len() <= capacity);
            }
        }
    }
}
