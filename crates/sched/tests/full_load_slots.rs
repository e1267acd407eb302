//! At full load, the per-disk slot budget is absolute: no plan — normal,
//! transition, or degraded — may ever exceed it, for any scheme, policy,
//! group size, or failed-disk position. (Found by the transition
//! ablation: reconstruction reads at the transition-window boundary can
//! transiently exceed capacity and must be displaced, not overloaded.)

use mms_disk::{Bandwidth, DiskId, DiskParams};
use mms_layout::{BandwidthClass, Catalog, ClusteredLayout, Geometry, MediaObject, ObjectId};
use mms_sched::test_support::plan_cycle;
use mms_sched::{CycleConfig, NonClusteredScheduler, SchemeScheduler, TransitionPolicy};

fn run_full_load(c: usize, failed: u32, policy: TransitionPolicy) {
    let geo = Geometry::clustered(c, c).unwrap();
    let mut catalog = Catalog::new(ClusteredLayout::new(geo), 100_000);
    let bpg = c - 1;
    for i in 0..(4 * bpg) as u64 {
        catalog
            .add(MediaObject::new(
                ObjectId(i),
                format!("s{i}"),
                bpg as u64,
                BandwidthClass::Custom(Bandwidth::from_megabytes(1.0)),
            ))
            .unwrap();
    }
    // One slot per disk per cycle.
    let cfg = CycleConfig::new(
        DiskParams::paper_table1(),
        Bandwidth::from_megabytes(1.0),
        1,
        1,
    );
    assert_eq!(cfg.slots_per_disk(), 1);
    let mut sched = NonClusteredScheduler::new(cfg, catalog, policy, 2);
    let cap = sched.config().slots_per_disk();

    let fail_cycle = bpg as u64;
    let mut next_obj = 0u64;
    for t in 0..(5 * bpg as u64) {
        if t >= 1 && next_obj < (4 * bpg) as u64 {
            sched.admit(ObjectId(next_obj), t).unwrap();
            next_obj += 1;
        }
        if t == fail_cycle {
            sched.on_disk_failure(DiskId(failed), t, false);
        }
        let plan = plan_cycle(&mut sched, t);
        for (disk, reads) in &plan.reads {
            assert!(
                reads.len() <= cap,
                "C={c} failed={failed} {policy:?}: disk {disk} overloaded \
                 with {} reads at cycle {t}",
                reads.len()
            );
        }
    }
}

#[test]
fn slot_budget_is_never_exceeded_under_full_load() {
    for c in [4usize, 5, 6, 8] {
        for failed in 0..c as u32 {
            for policy in [TransitionPolicy::Simple, TransitionPolicy::Delayed] {
                run_full_load(c, failed, policy);
            }
        }
    }
}
