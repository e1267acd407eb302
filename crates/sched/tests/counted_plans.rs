//! Counted plans against itemised ones: the counted path's own oracle.
//!
//! Two copies of each of the six scheduler configurations run the same
//! seeded admit / release / fail / fail-mid-cycle / repair /
//! fast-forward script. One fills a plan that never allows counting —
//! every stream planned one by one, the reference. The other fills a
//! plan that allows counting in random stretches, so its scheduler
//! counts wherever it may and flips between counted and itemised cycles
//! at random points, in both directions, as a simulator does when trace
//! retention fills or its step mode changes. After every cycle the two
//! must agree on everything a counted plan reports and everything a
//! scheduler exposes: the load of every disk, the reads in total, the
//! deliveries and rebuilt blocks, the hiccups, the finished streams,
//! the buffer gauge and its high-water mark, every stream's info, and
//! the stability window.

mod common;

use common::{build, Fixture, Kind, Rng, KINDS, OBJECT_TRACKS};
use mms_disk::DiskId;
use mms_layout::ObjectId;
use mms_sched::{CyclePlan, SchemeScheduler, StreamId};
use std::collections::BTreeSet;

const SCRIPTS: u64 = 48;
const OPS_PER_SCRIPT: usize = 64;

/// What the scripts reached.
#[derive(Debug, Default)]
struct Reached {
    /// Cycles the second copy's scheduler counted.
    counted: usize,
    /// Of those, cycles with a delivery the plan has no record of.
    counted_busy: usize,
    /// Counted cycles that followed an itemised one, and the reverse.
    into_counted: usize,
    out_of_counted: usize,
    /// Counted cycles planned after a repair.
    counted_after_repair: usize,
    /// Streams that finished in a counted cycle.
    finished_counted: usize,
    /// Counted cycles planned with a disk down.
    counted_degraded: usize,
    /// Blocks a counted cycle delivered rebuilt from parity.
    counted_rebuilt: usize,
}

/// Both copies of one script's scheduler, and the plans they fill.
struct Pair {
    itemised: Fixture,
    counting: Fixture,
    reference: CyclePlan,
    plan: CyclePlan,
    disks: u32,
    was_counted: bool,
}

impl Pair {
    /// Plan `cycle` on both, letting the second count if `allowed`.
    fn plan(
        &mut self,
        cycle: u64,
        allowed: bool,
        repaired: bool,
        degraded: bool,
        reached: &mut Reached,
        what: &str,
    ) {
        self.itemised.plan_cycle_into(cycle, &mut self.reference);
        self.plan.allow_counting(allowed);
        self.counting.plan_cycle_into(cycle, &mut self.plan);
        let (a, b) = (&self.reference, &self.plan);
        assert!(!a.is_counted(), "{what}: a plan that may not count did");
        for disk in (0..self.disks).map(DiskId) {
            assert_eq!(
                a.load_on(disk),
                b.load_on(disk),
                "{what}: reads of {disk:?}"
            );
        }
        assert_eq!(a.total_reads(), b.total_reads(), "{what}: reads");
        let disks = |p: &CyclePlan| p.reads.keys().copied().collect::<Vec<_>>();
        assert_eq!(disks(a), disks(b), "{what}: disks read");
        assert_eq!(a.deliveries.len(), b.deliveries.len(), "{what}: delivered");
        assert_eq!(
            a.deliveries.reconstructed(),
            b.deliveries.reconstructed(),
            "{what}: rebuilt"
        );
        assert_eq!(a.hiccups, b.hiccups, "{what}: hiccups");
        let finished = |p: &CyclePlan| p.finished.iter().copied().collect::<BTreeSet<_>>();
        assert_eq!(finished(a), finished(b), "{what}: finished");
        if b.is_counted() {
            reached.counted += 1;
            reached.counted_busy += usize::from(!b.deliveries.is_empty());
            reached.into_counted += usize::from(!self.was_counted);
            reached.counted_after_repair += usize::from(repaired);
            reached.finished_counted += b.finished.len();
            reached.counted_degraded += usize::from(degraded);
            reached.counted_rebuilt += b.deliveries.reconstructed();
        } else {
            reached.out_of_counted += usize::from(self.was_counted);
        }
        self.was_counted = b.is_counted();
    }

    /// Everything the two schedulers expose between plans.
    fn assert_same(&self, cycle: u64, admitted: &[StreamId], what: &str) {
        let (a, b) = (&self.itemised, &self.counting);
        assert_eq!(
            a.buffer_in_use(),
            b.buffer_in_use(),
            "{what}: buffer in use"
        );
        assert_eq!(
            a.buffer_high_water(),
            b.buffer_high_water(),
            "{what}: buffer peak"
        );
        assert_eq!(a.active_streams(), b.active_streams(), "{what}: streams");
        assert_eq!(
            a.plan_stability(cycle),
            b.plan_stability(cycle),
            "{what}: stability"
        );
        for &id in admitted {
            assert_eq!(a.stream_info(id), b.stream_info(id), "{what}: {id:?}");
        }
    }

    /// Apply one operation to both copies; they must answer alike.
    fn both<T: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        op: impl Fn(&mut dyn SchemeScheduler) -> T,
    ) -> T {
        let (a, b) = (op(&mut *self.itemised), op(&mut *self.counting));
        assert_eq!(a, b, "{what}");
        a
    }
}

fn run_script(kind: Kind, seed: u64, reached: &mut Reached) {
    let (itemised, disks) = build(kind, seed);
    let mut pair = Pair {
        counting: itemised.clone(),
        itemised,
        reference: CyclePlan::empty(0),
        plan: CyclePlan::empty(0),
        disks,
        was_counted: false,
    };
    let mut rng = Rng(seed ^ ((kind as u64) << 32) ^ 0xC0DE);
    let mut cycle = 0u64;
    let (mut admitted, mut live, mut down) = (Vec::new(), Vec::new(), Vec::new());
    let (mut allowed, mut repaired) = (true, false);
    for _ in 0..OPS_PER_SCRIPT {
        let what = format!("{kind:?} {seed} @{cycle}");
        match rng.below(20) {
            // Plan a stretch, flipping the plan's permission now and then.
            0..=7 => {
                for _ in 0..1 + rng.below(12) {
                    if rng.below(5) == 0 {
                        allowed = !allowed;
                    }
                    let what = format!("{kind:?} {seed} @{cycle}");
                    let degraded = !down.is_empty();
                    pair.plan(cycle, allowed, repaired, degraded, reached, &what);
                    cycle += 1;
                    pair.assert_same(cycle, &admitted, &what);
                }
            }
            // Arrivals now, or booked a few cycles ahead.
            op @ 8..=11 => {
                for _ in 0..1 + rng.below(6) {
                    let object = ObjectId(rng.below(OBJECT_TRACKS.len() as u64));
                    let at = if op == 11 {
                        cycle + rng.below(3)
                    } else {
                        cycle
                    };
                    if let Ok(id) = pair.both(&what, |s| s.admit(object, at)) {
                        admitted.push(id);
                        live.push(id);
                    }
                }
            }
            // Release a stream in flight, or one already finished.
            12..=14 => {
                if !live.is_empty() {
                    let id = live.remove(rng.below(live.len() as u64) as usize);
                    pair.both(&what, |s| s.release(id));
                }
            }
            // Fail a disk between cycles or mid-cycle; two at most.
            op @ 15..=16 => {
                let disk = DiskId(rng.below(u64::from(disks)) as u32);
                if down.len() < 2 && !down.contains(&disk) {
                    down.push(disk);
                    let mid = op == 16 && rng.below(2) == 0;
                    let dropped = pair.both(&what, |s| {
                        let report = s.on_disk_failure(disk, cycle, mid);
                        (report.lost, report.dropped_streams, report.catastrophic)
                    });
                    live.retain(|id| !dropped.1.contains(id));
                }
            }
            // Repair the disk down longest.
            17 => {
                if !down.is_empty() {
                    let disk = down.remove(0);
                    pair.both(&what, |s| s.on_disk_repair(disk, cycle));
                    repaired = true;
                }
            }
            // Skip part of a stability window in closed form.
            _ => {
                let window = pair.both(&what, |s| s.plan_stability(cycle));
                if window.stable > 0 {
                    let skip = 1 + rng.below(window.stable.min(3 * window.period));
                    pair.both(&what, |s| s.fast_forward(skip));
                    cycle += skip;
                }
            }
        }
        pair.assert_same(cycle, &admitted, &what);
    }
    // Drain, counting wherever the schedulers may.
    for _ in 0..64 {
        let what = format!("{kind:?} {seed} @{cycle} (drain)");
        pair.plan(cycle, true, repaired, !down.is_empty(), reached, &what);
        cycle += 1;
        pair.assert_same(cycle, &admitted, &what);
    }
}

#[test]
fn counted_plans_agree_with_itemised_ones_on_every_script() {
    for &kind in &KINDS {
        let mut reached = Reached::default();
        for seed in 0..SCRIPTS {
            run_script(kind, seed, &mut reached);
        }
        // Every configuration counts — busy cycles, cycles after a
        // repair, cycles in which streams finish — and flips both ways.
        // (Half the Improved fixtures prefetch parity, and never count.)
        assert!(reached.counted > 500, "{kind:?}: {reached:?}");
        assert!(reached.counted_busy > 200, "{kind:?}: {reached:?}");
        assert!(reached.counted_after_repair > 100, "{kind:?}: {reached:?}");
        assert!(reached.finished_counted > 50, "{kind:?}: {reached:?}");
        assert!(
            reached.into_counted > 50 && reached.out_of_counted > 50,
            "{kind:?}: {reached:?}"
        );
        // Where parity is read with every group, a masked failure counts
        // too, rebuilt blocks and all; NC, the unprotected baseline and
        // Improved-bandwidth plan every cycle with a disk down one by one.
        let parity_disk = matches!(kind, Kind::StreamingRaid | Kind::Staggered | Kind::Grouped);
        let degraded = (reached.counted_degraded, reached.counted_rebuilt);
        if parity_disk {
            assert!(degraded.0 > 0 && degraded.1 > 0, "{kind:?}: {reached:?}");
        } else {
            assert_eq!(degraded, (0, 0), "{kind:?}: {reached:?}");
        }
    }
}

/// A counted plan refuses the record views its owner promised not to
/// read.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "a counted plan's deliveries are not all recorded")]
fn a_counted_plan_cannot_pass_for_an_itemised_one() {
    let (mut s, _) = build(Kind::StreamingRaid, 0);
    let mut plan = CyclePlan::empty(0);
    plan.allow_counting(true);
    for cycle in 0..3 {
        if cycle == 0 {
            s.admit(ObjectId(6), 0).expect("an idle server admits");
        }
        s.plan_cycle_into(cycle, &mut plan);
    }
    assert!(plan.is_counted());
    let _ = plan.deliveries.iter().count();
}
