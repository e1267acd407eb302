//! Churn regression: scratch pools stay bounded by peak active streams.
//!
//! A retiring stream's pending vectors are either dropped with its slot
//! or recycled into a pool — never both. Recycling them *and* the pair
//! staged for the same stream grows the pools by two vectors per
//! lifecycle, which showed as resident memory under the short-clip
//! workload; 100,000 lifecycles make any such leak unmissable.
//!
//! The Non-clustered scheduler's transition state — its cycle calendar
//! and the marks in each stream's slot — is held to the same bound
//! through a failure, a repair and a second failure.

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

/// Blocks a Non-clustered group holds over `Geometry::clustered(_, 5)`.
const BPG: u64 = 4;

/// Tracks in use on the attached buffer servers (a detached one is cleared).
fn server_tracks(s: &NonClusteredScheduler) -> usize {
    s.servers().map(|(_, tracks, _)| tracks).sum()
}

/// One churn cycle of a Non-clustered server, admitting as fast as it
/// allows while `admitting`: the running mark count is what the slots
/// hold, a stream holds marks on two groups at most, and the calendar's
/// lists stay within the bound the scratch pools are held to.
fn nc_step(s: &mut NonClusteredScheduler, cycle: &mut u64, peak: &mut usize, admitting: bool) {
    if admitting {
        for n in 0..4 {
            let _ = s.admit(ObjectId((*cycle + n) % 2), *cycle);
        }
    }
    *peak = (*peak).max(s.active_streams());
    plan_cycle(s, *cycle);
    *cycle += 1;
    let (live, walked) = s.live_marks();
    assert_eq!(live, walked, "cycle {cycle}: running count vs the slots");
    let per_stream = 2 * 2 * BPG as usize;
    assert!(
        live <= per_stream * s.active_streams(),
        "cycle {cycle}: {live} marks"
    );
    let bound = 4 * *peak + 16;
    for (i, (len, capacity)) in s.scratch_footprint().into_iter().enumerate() {
        assert!(
            len <= bound && capacity <= bound,
            "cycle {cycle}: list {i}: len {len}, capacity {capacity}, peak {peak}"
        );
    }
}

/// A disk goes down under churn, is repaired, and fails again. Through
/// all of it the calendar and the marks stay bounded; once a repair has
/// drained, every mark has been used; and a buffer server's tracks drain
/// with the streams that charged it.
#[test]
fn degraded_nonclustered_leaves_no_marks_or_server_buffers_behind() {
    for policy in [TransitionPolicy::Simple, TransitionPolicy::Delayed] {
        let layout = ClusteredLayout::new(Geometry::clustered(10, 5).unwrap());
        let mut s = NonClusteredScheduler::new(config(1, 1), catalog(layout), policy, 1);
        let (mut cycle, mut peak) = (0u64, 0usize);
        let run = |s: &mut NonClusteredScheduler, c: &mut u64, p: &mut usize, n: u64| {
            for _ in 0..n {
                nc_step(s, c, p, true);
            }
        };
        run(&mut s, &mut cycle, &mut peak, 40);
        s.on_disk_failure(DiskId(1), cycle, false);
        run(&mut s, &mut cycle, &mut peak, 300);
        assert!(server_tracks(&s) > 0, "{policy:?}: the server carried load");
        // Repaired under load: the marks still pending fall due within
        // one group, and the detached server is empty.
        s.on_disk_repair(DiskId(1), cycle);
        run(&mut s, &mut cycle, &mut peak, BPG);
        assert_eq!(s.live_marks(), (0, 0), "{policy:?}: after the repair");
        assert_eq!((s.servers().count(), server_tracks(&s)), (0, 0));
        // Down again, then the load drains while the cluster is still
        // degraded: the server's charges and frees balance exactly.
        run(&mut s, &mut cycle, &mut peak, 100);
        s.on_disk_failure(DiskId(1), cycle, false);
        run(&mut s, &mut cycle, &mut peak, 300);
        while s.active_streams() > 0 {
            nc_step(&mut s, &mut cycle, &mut peak, false);
        }
        assert_eq!(s.live_marks(), (0, 0), "{policy:?}: drained degraded");
        assert_eq!((s.servers().count(), server_tracks(&s)), (1, 0));
        assert_eq!(s.buffer_in_use(), 0, "{policy:?}");
        // Repaired idle: nothing is left pending, so the window opens.
        s.on_disk_repair(DiskId(1), cycle);
        assert!(s.plan_stability(cycle).stable > 0, "{policy:?}");
    }
}

/// A cluster repaired and failed again within one group: the frees the
/// first attachment's server was owed go with it, so nothing underflows
/// and none of them releases a buffer the second attachment holds.
#[test]
fn a_refailure_within_one_group_keeps_the_server_attachments_apart() {
    // One cluster, so every group of the stream is read from it.
    let layout = ClusteredLayout::new(Geometry::clustered(5, 5).unwrap());
    let mut catalog = Catalog::new(layout, 100_000);
    catalog
        .add(MediaObject::new(
            ObjectId(0),
            "m",
            40,
            BandwidthClass::Mpeg1,
        ))
        .unwrap();
    let policy = TransitionPolicy::Simple;
    let mut s = NonClusteredScheduler::new(config(1, 1), catalog, policy, 1);
    s.admit(ObjectId(0), 0).unwrap();
    for t in 0..8 {
        plan_cycle(&mut s, t);
    }
    // Group 2 starts as the disk fails: read at once, three data tracks
    // and the parity held on the server, one freed per delivery.
    s.on_disk_failure(DiskId(1), 8, false);
    plan_cycle(&mut s, 8);
    plan_cycle(&mut s, 9);
    assert_eq!(server_tracks(&s), 3);
    // Two blocks into the group: repaired, and down again at once.
    s.on_disk_repair(DiskId(1), 10);
    s.on_disk_failure(DiskId(1), 10, false);
    assert_eq!((s.servers().count(), server_tracks(&s)), (1, 0));
    plan_cycle(&mut s, 10);
    plan_cycle(&mut s, 11);
    assert_eq!(server_tracks(&s), 0);
    // Group 3 is read at once on the new attachment. The first one was
    // owed a free at the end of this very cycle; it must not land here.
    plan_cycle(&mut s, 12);
    assert_eq!(server_tracks(&s), 4);
    // It drains a track a cycle until group 4 is read in its turn.
    for (t, held) in (13..17).zip([3, 2, 1, 4]) {
        plan_cycle(&mut s, t);
        assert_eq!(server_tracks(&s), held, "cycle {t}");
    }
    let mut t = 17;
    while s.active_streams() > 0 {
        plan_cycle(&mut s, t);
        t += 1;
    }
    assert_eq!((server_tracks(&s), s.live_marks()), (0, (0, 0)));
}
