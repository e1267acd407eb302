//! The Non-clustered scheme's shared buffer servers under load: Eq. 14's
//! per-server sizing must hold while a degraded cluster runs
//! group-at-a-time, and the server must drain and detach on repair.

use mms_disk::{Bandwidth, DiskId, DiskParams};
use mms_layout::{
    BandwidthClass, Catalog, ClusterId, ClusteredLayout, Geometry, MediaObject, ObjectId,
};
use mms_sched::test_support::plan_cycle;
use mms_sched::{CycleConfig, NonClusteredScheduler, SchemeScheduler, TransitionPolicy};

fn make(slots_b0_mb: f64, objects: u64, tracks: u64) -> NonClusteredScheduler {
    let geo = Geometry::clustered(10, 5).unwrap();
    let mut catalog = Catalog::new(ClusteredLayout::new(geo), 100_000);
    for i in 0..objects {
        catalog
            .add(MediaObject::new(
                ObjectId(i),
                format!("m{i}"),
                tracks,
                BandwidthClass::Custom(Bandwidth::from_megabytes(slots_b0_mb)),
            ))
            .unwrap();
    }
    let cfg = CycleConfig::new(
        DiskParams::paper_table1(),
        Bandwidth::from_megabytes(slots_b0_mb),
        1,
        1,
    );
    NonClusteredScheduler::new(cfg, catalog, TransitionPolicy::Simple, 2)
}

#[test]
fn degraded_cluster_occupies_its_server_within_eq14_sizing() {
    // Full load at one slot per disk (b0 = 1 MB/s): the degraded
    // cluster's group-at-a-time buffers live on the attached server and
    // never exceed C(C+1)/2 × slots = 15 tracks. The server's capacity
    // is that figure, and the scheduler panics on a charge it refuses,
    // so no peak inside a cycle passes it either.
    let mut s = make(1.0, 12, 4);
    let mut next_obj = 0u64;
    let mut peak = 0;
    for t in 0..40u64 {
        if t >= 1 && next_obj < 12 {
            s.admit(ObjectId(next_obj), t).unwrap();
            next_obj += 1;
        }
        if t == 6 {
            s.on_disk_failure(DiskId(1), 6, false);
        }
        plan_cycle(&mut s, t);
        if t > 8 {
            let (cluster, in_use, capacity) = s.servers().next().expect("one server attached");
            assert_eq!((cluster, capacity), (ClusterId(0), 15), "cycle {t}");
            peak = peak.max(in_use);
        }
    }
    // The server actually carried load (group-at-a-time buffering).
    assert!(peak > 0, "server never used");
    assert!(peak <= 15, "peak {peak} exceeds Eq. 14 sizing");
}

#[test]
fn repair_detaches_and_resets_the_server() {
    let mut s = make(1.0, 6, 4);
    for t in 0..3u64 {
        if t >= 1 {
            s.admit(ObjectId(t - 1), t).unwrap();
        }
        plan_cycle(&mut s, t);
    }
    s.on_disk_failure(DiskId(2), 3, false);
    for t in 3..10u64 {
        plan_cycle(&mut s, t);
    }
    assert_eq!(s.servers().count(), 1);
    s.on_disk_repair(DiskId(2), 10);
    assert_eq!(s.servers().count(), 0);
    // A later failure on the other cluster reattaches to an empty server.
    s.on_disk_failure(DiskId(6), 10, false);
    assert_eq!(s.servers().collect::<Vec<_>>(), [(ClusterId(1), 0, 15)]);
}

#[test]
fn two_degraded_clusters_occupy_two_servers() {
    let mut s = make(1.0, 8, 4);
    for t in 0..3u64 {
        if t >= 1 {
            s.admit(ObjectId(t - 1), t).unwrap();
        }
        plan_cycle(&mut s, t);
    }
    s.on_disk_failure(DiskId(0), 3, false);
    s.on_disk_failure(DiskId(7), 3, false);
    assert_eq!(s.servers().count(), 2);
    // Both clusters keep serving (with their bounded transition losses).
    for t in 3..16u64 {
        plan_cycle(&mut s, t);
    }
}
