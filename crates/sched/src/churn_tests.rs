//! Churn regression: scratch pools stay bounded by peak active streams.
//!
//! A retiring stream's pending vectors are either dropped with its slot
//! or recycled into a pool — never both. Recycling them *and* the pair
//! staged for the same stream grows the pools by two vectors per
//! lifecycle, which showed as resident memory under the short-clip
//! workload; 100,000 lifecycles make any such leak unmissable.

use crate::test_support::plan_cycle;
use crate::{
    CycleConfig, CyclePlan, GroupedScheduler, NonClusteredScheduler, SchemeScheduler,
    TransitionPolicy,
};
use mms_disk::{Bandwidth, DiskId, DiskParams};
use mms_layout::{
    BandwidthClass, Catalog, ClusteredLayout, Geometry, ImprovedLayout, Layout, MediaObject,
    ObjectId,
};

const LIFECYCLES: usize = 100_000;

fn catalog<L: Layout>(layout: L) -> Catalog<L> {
    let mut catalog = Catalog::new(layout, 100_000);
    // Two short clips, one with a partial final group.
    for (id, tracks) in [(0, 8), (1, 6)] {
        let clip = MediaObject::new(
            ObjectId(id),
            format!("c{id}"),
            tracks,
            BandwidthClass::Mpeg1,
        );
        catalog.add(clip).expect("two short clips fit the catalog");
    }
    catalog
}

fn config(k: usize, k_prime: usize) -> CycleConfig {
    CycleConfig::new(
        DiskParams::paper_table1(),
        Bandwidth::from_megabits(1.5),
        k,
        k_prime,
    )
}

/// Admit as fast as the scheduler allows, failing and repairing a disk
/// now and then, until `LIFECYCLES` streams have finished; then check
/// every `(len, capacity)` the scheduler reports against the peak
/// number of concurrently active streams. Returns the next cycle.
fn churn<S: SchemeScheduler>(s: &mut S, footprint: impl Fn(&S) -> Vec<(usize, usize)>) -> u64 {
    let mut plan = CyclePlan::empty(0);
    let (mut finished, mut peak, mut cycle) = (0usize, 0usize, 0u64);
    while finished < LIFECYCLES {
        for n in 0..4 {
            let _ = s.admit(ObjectId((cycle + n) % 2), cycle);
        }
        match cycle % 97 {
            40 => drop(s.on_disk_failure(DiskId(1), cycle, false)),
            60 => s.on_disk_repair(DiskId(1), cycle),
            _ => {}
        }
        peak = peak.max(s.active_streams());
        s.plan_cycle_into(cycle, &mut plan);
        finished += plan.finished.len();
        cycle += 1;
        assert!(cycle < 1_000_000, "churn never completed");
    }
    let bound = 4 * peak + 16;
    for (i, (len, capacity)) in footprint(s).into_iter().enumerate() {
        assert!(
            len <= bound && capacity <= bound,
            "scratch pool {i}: len {len}, capacity {capacity}, peak active streams {peak}"
        );
    }
    cycle
}

/// The whole-group scheduler keeps a group's fault state in the stream's
/// slot, and over a dedicated parity disk never touches the cascade's
/// scratch; what 100,000 lifecycles must leave behind here is every
/// buffer and every admission slot.
#[test]
fn grouped_churn_returns_every_buffer_and_admission_slot() {
    for k_prime in [4, 2, 1] {
        let layout = ClusteredLayout::new(Geometry::clustered(10, 5).unwrap());
        let mut s = GroupedScheduler::new(config(4, k_prime), catalog(layout));
        let mut cycle = churn(&mut s, GroupedScheduler::scratch_footprint);
        assert_eq!(s.scratch_footprint(), [(0, 0); 4], "k'={k_prime}");
        while s.active_streams() > 0 {
            plan_cycle(&mut s, cycle);
            cycle += 1;
        }
        assert_eq!(s.buffer_in_use(), 0, "k'={k_prime}");
        // The two clips start on the two clusters, so `read_period`
        // consecutive cycles reach every class.
        for at in cycle..cycle + s.config().read_period() as u64 {
            for object in 0..2 {
                for _ in 0..s.config().slots_per_disk() {
                    s.admit(ObjectId(object), at)
                        .expect("every finished stream returned its admission slot");
                }
            }
        }
        assert_eq!(s.active_streams(), s.stream_capacity(), "k'={k_prime}");
    }
}

#[test]
fn nonclustered_pools_stay_bounded() {
    let layout = ClusteredLayout::new(Geometry::clustered(10, 5).unwrap());
    let mut s =
        NonClusteredScheduler::new(config(1, 1), catalog(layout), TransitionPolicy::Delayed, 1);
    churn(&mut s, NonClusteredScheduler::scratch_footprint);
}

#[test]
fn improved_pools_stay_bounded() {
    let layout = ImprovedLayout::new(Geometry::improved(8, 5).unwrap());
    let mut s = GroupedScheduler::with_reserve(config(4, 4), catalog(layout), 1);
    churn(&mut s, GroupedScheduler::scratch_footprint);
}

/// The shift cascade is paid for only in cycles that cascade: with every
/// disk up and no prefetch, admissions, releases and finishing streams
/// leave its staging untouched.
#[test]
fn a_healthy_improved_layout_never_stages_the_cascade() {
    let layout = ImprovedLayout::new(Geometry::improved(8, 5).unwrap());
    let mut s = GroupedScheduler::with_reserve(config(4, 4), catalog(layout), 1);
    let (mut live, mut finished) = (Vec::new(), 0);
    for cycle in 0..240 {
        live.extend(s.admit(ObjectId(cycle % 2), cycle));
        if cycle % 3 == 0 && !live.is_empty() {
            s.release(live.remove(0));
        }
        finished += plan_cycle(&mut s, cycle).finished.len();
        assert_eq!(s.scratch_footprint(), [(0, 0); 4], "cycle {cycle}");
    }
    assert!(finished > 100, "{finished} streams finished");
}
