//! Reproduction of the paper's Figures 5, 6, and 7: the Non-clustered
//! scheme's normal-mode schedule and its two degraded-mode transitions.
//!
//! The scenario (Section 3): one cluster of `C = 5` disks (4 data + 1
//! parity), one read slot per disk per cycle, streams staggered one disk
//! position apart. Disk 2 fails "just before the start of cycle 1" of the
//! figures, which maps to scheduler cycle 4 here (streams U, W, Y started
//! at cycles 1, 2, 3; stream A starts at the failure cycle itself).
//!
//! Paper ground truth:
//! * Figure 6 (simple transition): tracks lost = {Y1, U3, W3, Y3}
//!   (displaced by the shift) ∪ {W2, Y2} (on the failed disk) — 6 tracks.
//! * Figure 7 (delayed transition): tracks lost = {W2, Y2} (failed disk,
//!   unreconstructable since W0/W1/Y0 were delivered and discarded) ∪
//!   {Y3} (displaced by A3's moved-up read) — 3 tracks.

use mms_disk::{Bandwidth, DiskId, DiskParams};
use mms_layout::{
    BandwidthClass, BlockAddr, BlockKind, Catalog, ClusteredLayout, Geometry, MediaObject, ObjectId,
};
use mms_sched::test_support::plan_cycle;
use mms_sched::{
    CycleConfig, LossReason, NonClusteredScheduler, SchemeScheduler, StreamId, TransitionPolicy,
};
use std::collections::BTreeSet;

/// Stream roles, named as in the figures.
const U: u64 = 0;
const W: u64 = 1;
const Y: u64 = 2;
const A: u64 = 3;
const C_: u64 = 4;
const E: u64 = 5;
const G: u64 = 6;
const I: u64 = 7;

/// Build the figure scenario: objects U, W, Y, A, C, E, G, I, each one
/// full parity group (4 tracks), all on the single cluster.
fn scenario(policy: TransitionPolicy) -> (NonClusteredScheduler, Vec<(u64, StreamId)>) {
    let geo = Geometry::clustered(5, 5).unwrap();
    let layout = ClusteredLayout::new(geo);
    let mut catalog = Catalog::new(layout, 10_000);
    for oid in [U, W, Y, A, C_, E, G, I] {
        catalog
            .add(MediaObject::new(
                ObjectId(oid),
                format!("obj{oid}"),
                4,
                BandwidthClass::Custom(Bandwidth::from_megabytes(1.0)),
            ))
            .unwrap();
    }
    // B = 50 KB at 1 MB/s: T_cyc = 50 ms; slots/disk = (50 − 25)/20 = 1.
    let cfg = CycleConfig::new(
        DiskParams::paper_table1(),
        Bandwidth::from_megabytes(1.0),
        1,
        1,
    );
    assert_eq!(cfg.slots_per_disk(), 1, "figure assumes one slot per disk");
    let mut sched = NonClusteredScheduler::new(cfg, catalog, policy, 1);

    let mut ids = Vec::new();
    // U starts at cycle 1, W at 2, Y at 3 (positions 3, 2, 1 at cycle 4).
    for (oid, at) in [(U, 1), (W, 2), (Y, 3)] {
        // plan cycles up to `at` lazily below; admissions may happen ahead
        // of planning as long as they are not in the past.
        ids.push((oid, sched.admit(ObjectId(oid), at).unwrap()));
    }
    (sched, ids)
}

/// Lost tracks as `(object, index)` plus the per-loss reason detail.
type LossAudit = (BTreeSet<(u64, u32)>, Vec<(u64, u32, LossReason)>);

/// Drive the scenario through the failure and collect every lost track.
fn run_figure(policy: TransitionPolicy) -> LossAudit {
    let (mut sched, mut ids) = scenario(policy);

    // Plan cycles 0..4; admit A/C/E/G/I at their start cycles.
    for t in 0..4u64 {
        plan_cycle(&mut sched, t);
        if t == 3 {
            ids.push((A, sched.admit(ObjectId(A), 4).unwrap()))
        }
    }

    // Disk 2 fails just before cycle 4 (figure cycle 1).
    let report = sched.on_disk_failure(DiskId(2), 4, false);
    assert!(!report.catastrophic);

    // The failure report pre-announces the unreconstructable losses; every
    // loss (including displacements) also surfaces as a hiccup at its
    // delivery cycle, which is what we collect.
    let announced: BTreeSet<(u64, u32)> = report
        .lost
        .iter()
        .filter_map(|l| match l.addr.kind {
            BlockKind::Data(ix) => Some((l.addr.object.0, ix)),
            BlockKind::Parity => None,
        })
        .collect();

    let mut lost = BTreeSet::new();
    let mut detail = Vec::new();
    for t in 4..16u64 {
        let plan = plan_cycle(&mut sched, t);
        for h in &plan.hiccups {
            if let BlockKind::Data(ix) = h.addr.kind {
                lost.insert((h.addr.object.0, ix));
                detail.push((h.addr.object.0, ix, h.reason));
            }
        }
        // Admit the follow-on streams C, E, G, I at cycles 5..8.
        match t {
            4 => ids.push((C_, sched.admit(ObjectId(C_), 5).unwrap())),
            5 => ids.push((E, sched.admit(ObjectId(E), 6).unwrap())),
            6 => ids.push((G, sched.admit(ObjectId(G), 7).unwrap())),
            7 => ids.push((I, sched.admit(ObjectId(I), 8).unwrap())),
            _ => {}
        }
    }
    assert!(
        announced.is_subset(&lost),
        "failure report must pre-announce a subset of the realized losses"
    );
    (lost, detail)
}

#[test]
fn figure5_normal_mode_schedule() {
    // Before the failure, each cycle reads exactly one track per stream
    // from consecutive disks, and no parity is ever read.
    let (mut sched, _ids) = scenario(TransitionPolicy::Simple);
    let p1 = plan_cycle(&mut sched, 0);
    assert_eq!(p1.total_reads(), 0);
    let p1 = plan_cycle(&mut sched, 1);
    // U0 on disk 0.
    assert_eq!(p1.total_reads(), 1);
    assert_eq!(p1.reads_on(DiskId(0)).len(), 1);
    let p2 = plan_cycle(&mut sched, 2);
    // W0 on disk 0, U1 on disk 1.
    assert_eq!(p2.total_reads(), 2);
    assert_eq!(
        p2.reads.singles_on(DiskId(0))[0].addr,
        BlockAddr::data(ObjectId(W), 0, 0)
    );
    assert_eq!(
        p2.reads.singles_on(DiskId(1))[0].addr,
        BlockAddr::data(ObjectId(U), 0, 1)
    );
    let p3 = plan_cycle(&mut sched, 3);
    // Y0 / W1 / U2 on disks 0 / 1 / 2; deliveries lag one cycle.
    assert_eq!(p3.total_reads(), 3);
    assert_eq!(
        p3.reads.singles_on(DiskId(2))[0].addr,
        BlockAddr::data(ObjectId(U), 0, 2)
    );
    assert_eq!(p3.deliveries.len(), 2);
    // Parity disk (disk 4) is never touched in normal mode.
    for plan in [&p1, &p2, &p3] {
        assert!(plan.reads_on(DiskId(4)).is_empty());
    }
}

#[test]
fn figure6_simple_transition_loses_exactly_the_papers_six_tracks() {
    let (lost, detail) = run_figure(TransitionPolicy::Simple);
    let expect: BTreeSet<(u64, u32)> = [
        (Y, 1), // displaced by A1's moved-up read
        (W, 2), // on the failed disk
        (Y, 2), // on the failed disk
        (U, 3), // displaced by A3's moved-up read
        (W, 3), // displaced
        (Y, 3), // displaced
    ]
    .into_iter()
    .collect();
    assert_eq!(lost, expect, "detail: {detail:?}");
    // Reasons split exactly as the paper describes: 2 failed-disk, 4 shift.
    let failed = detail
        .iter()
        .filter(|(_, _, r)| *r == LossReason::FailedDisk)
        .count();
    let displaced = detail
        .iter()
        .filter(|(_, _, r)| *r == LossReason::Displaced)
        .count();
    assert_eq!((failed, displaced), (2, 4));
}

#[test]
fn figure7_delayed_transition_loses_exactly_three_tracks() {
    let (lost, detail) = run_figure(TransitionPolicy::Delayed);
    let expect: BTreeSet<(u64, u32)> = [
        (W, 2), // failed disk; W0, W1 already delivered and discarded
        (Y, 2), // failed disk; Y0 already delivered
        (Y, 3), // displaced by A3's read moved up to A's deadline
    ]
    .into_iter()
    .collect();
    assert_eq!(lost, expect, "detail: {detail:?}");
}

#[test]
fn delayed_never_loses_more_than_simple() {
    let (simple, _) = run_figure(TransitionPolicy::Simple);
    let (delayed, _) = run_figure(TransitionPolicy::Delayed);
    assert!(delayed.len() <= simple.len());
    assert!(delayed.is_subset(&simple));
}

#[test]
fn stream_a_is_fully_delivered_with_reconstruction() {
    // Stream A (group starting at the failure cycle) must not lose any
    // track under either policy: A2 is reconstructed from parity.
    for policy in [TransitionPolicy::Simple, TransitionPolicy::Delayed] {
        let (lost, _) = run_figure(policy);
        assert!(
            lost.iter().all(|&(oid, _)| oid != A),
            "A lost tracks under {policy:?}"
        );
    }
}

#[test]
fn follow_on_streams_are_clean_in_degraded_mode() {
    // C, E, G, I begin after the failure: degraded mode masks the failed
    // disk for them with no hiccups at all.
    for policy in [TransitionPolicy::Simple, TransitionPolicy::Delayed] {
        let (lost, _) = run_figure(policy);
        for oid in [C_, E, G, I] {
            assert!(
                lost.iter().all(|&(o, _)| o != oid),
                "obj{oid} lost tracks under {policy:?}"
            );
        }
    }
}

/// Render one mode-transition event as `from->to@cycle` for sequence
/// assertions.
fn transition_sig(e: &mms_telemetry::EventRecord) -> String {
    format!(
        "{}->{}@{}",
        e.field("from").unwrap(),
        e.field("to").unwrap(),
        e.field("cycle").unwrap()
    )
}

#[test]
fn telemetry_counts_exactly_the_papers_lost_tracks() {
    // The `sched.tracks_lost` counter must agree with the figures'
    // bounded-loss analysis: 6 tracks under the simple transition
    // (2 on the failed disk + 4 displaced), 3 under the delayed one.
    for (policy, total, failed, displaced) in [
        (TransitionPolicy::Simple, 6, 2, 4),
        (TransitionPolicy::Delayed, 3, 2, 1),
    ] {
        let recorder = mms_telemetry::Recorder::new(mms_telemetry::Level::Info);
        let guard = recorder.install();
        let _ = run_figure(policy);
        drop(guard);
        let snap = recorder.snapshot();
        assert_eq!(
            snap.counter_total("sched.tracks_lost"),
            total,
            "{policy:?}: total lost"
        );
        let by_reason = |reason: &'static str| {
            snap.counter(
                "sched.tracks_lost",
                &mms_telemetry::Labels::new(vec![
                    ("scheme", "NC".into()),
                    ("reason", reason.into()),
                ]),
            )
        };
        assert_eq!(by_reason("failed-disk"), failed, "{policy:?}: failed-disk");
        assert_eq!(by_reason("displaced"), displaced, "{policy:?}: displaced");
    }
}

#[test]
fn telemetry_emits_the_expected_transition_sequence() {
    // Fail at cycle 4, repair at cycle 8: each policy must announce
    // exactly normal->degraded at the failure and degraded->normal at
    // the repair, tagged with its own policy label.
    for policy in [TransitionPolicy::Simple, TransitionPolicy::Delayed] {
        let recorder = mms_telemetry::Recorder::new(mms_telemetry::Level::Info);
        let guard = recorder.install();
        let (mut sched, _ids) = scenario(policy);
        for t in 0..4 {
            plan_cycle(&mut sched, t);
        }
        sched.on_disk_failure(DiskId(2), 4, false);
        for t in 4..8 {
            plan_cycle(&mut sched, t);
        }
        sched.on_disk_repair(DiskId(2), 8);
        drop(guard);

        let events = recorder.take_events();
        let transitions: Vec<String> = events
            .iter()
            .filter(|e| e.name == "mode_transition")
            .map(transition_sig)
            .collect();
        assert_eq!(
            transitions,
            vec![
                "normal->degraded@4".to_string(),
                "degraded->normal@8".to_string()
            ],
            "{policy:?}"
        );
        let expect_policy = match policy {
            TransitionPolicy::Simple => "simple",
            TransitionPolicy::Delayed => "delayed",
        };
        for e in events.iter().filter(|e| e.name == "mode_transition") {
            assert_eq!(e.field("policy").unwrap().to_string(), expect_policy);
            assert_eq!(e.field("scheme").unwrap().to_string(), "NC");
        }
    }
}

#[test]
fn repair_returns_cluster_to_normal_mode() {
    let (mut sched, _ids) = scenario(TransitionPolicy::Simple);
    for t in 0..4 {
        plan_cycle(&mut sched, t);
    }
    sched.on_disk_failure(DiskId(2), 4, false);
    for t in 4..8 {
        plan_cycle(&mut sched, t);
    }
    sched.on_disk_repair(DiskId(2), 8);
    // A fresh stream after repair runs entirely in normal mode: one read
    // per cycle, no parity.
    let id = sched.admit(ObjectId(I), 8).unwrap();
    for t in 8..13 {
        let p = plan_cycle(&mut sched, t);
        assert!(p.reads_on(DiskId(4)).is_empty(), "cycle {t}");
        assert!(p.hiccups.is_empty(), "cycle {t}");
    }
    assert!(sched.stream_info(id).is_none(), "stream finished cleanly");
}
