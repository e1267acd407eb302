//! Figures 2–8: schedules, layouts, the memory profile and the two
//! Non-clustered transitions.

use mms_bench::scheme_server;
use mms_server::disk::{Bandwidth, DiskId, DiskParams};
use mms_server::layout::{
    BandwidthClass, BlockKind, Catalog, ClusteredLayout, Geometry, ImprovedLayout, MediaObject,
    ObjectId,
};
use mms_server::sched::{
    CycleConfig, CyclePlan, NonClusteredScheduler, SchemeScheduler, TransitionPolicy,
};
use mms_server::sim::trace;
use mms_server::{Scheme, ServerBuilder};
use std::collections::BTreeMap;

/// Figure 2: multiple transmission cycles per read cycle. With k = 4 and
/// k' = 1, a stream reads four tracks (X1-X4) in one read cycle and
/// transmits one per cycle over the next four — the Staggered-group
/// discipline.
pub fn fig2_schedule() {
    let mut server = ServerBuilder::new(Scheme::StaggeredGroup)
        .disks(10)
        .parity_group(5)
        .movie("X", 0.2, BandwidthClass::Mpeg1)
        .build()
        .expect("two clusters of five hold the movie");
    let x = server.objects()[0];
    server.simulator_mut().keep_trace(12);
    server.admit(x).expect("an empty server admits one stream");
    for _ in 0..12 {
        server.step().expect("fault-free cycle");
    }
    let names = BTreeMap::from([(x.0, "X")]);
    println!("Figure 2 — k = 4 tracks per read cycle, k' = 1 per transmission cycle\n");
    println!(
        "{}",
        trace::render_schedule(server.simulator().trace(), 10, &names)
    );
    println!("deliveries (one track per cycle, lagging its read cycle):");
    for plan in server.simulator().trace() {
        println!("  {}", trace::render_deliveries(plan, &names));
    }
}

/// Figure 3: the Streaming RAID data layout. Three objects X, Y, Z
/// striped over two clusters of five disks (4 data + 1 parity), parity
/// groups placed round-robin.
pub fn fig3_layout() {
    let geo = Geometry::clustered(10, 5).unwrap();
    let mut catalog = Catalog::new(ClusteredLayout::new(geo), 10_000);
    let names = ["X", "Y", "Z"];
    for (i, name) in names.iter().enumerate() {
        catalog
            .add_at(
                MediaObject::new(ObjectId(i as u64), *name, 16, BandwidthClass::Mpeg1),
                0,
            )
            .unwrap();
    }
    println!("Figure 3 — Streaming RAID layout (blocks per disk, global track numbers)\n");
    print!("{:>8}", "");
    for d in 0..10 {
        let role = if geo.is_parity_disk(DiskId(d)) {
            "parity"
        } else {
            "data"
        };
        print!("{:>9}", format!("d{d}/{role}"));
    }
    println!();
    for (i, name) in names.iter().enumerate() {
        print!("{name:>6}: ");
        for d in 0..10u32 {
            let blocks = catalog.blocks_on_disk(DiskId(d));
            let cell: Vec<String> = blocks
                .iter()
                .filter(|b| b.object == ObjectId(i as u64))
                .map(|b| match b.kind {
                    BlockKind::Data(_) => format!("{name}{}", b.track_number(4).unwrap()),
                    BlockKind::Parity => format!("{name}{}p", b.group * 4),
                })
                .collect();
            print!("{:>9}", cell.join(","));
        }
        println!();
    }
    println!("\nCompare: X0..X3 on disks 0-3 with X0p on disk 4; X4..X7 on disks");
    println!("5-8 with X4p on disk 9 — the round-robin of the paper's Figure 3.");
}

/// Figure 4: the Staggered-group scheme's memory profile.
///
/// (b) one stream's per-cycle occupancy is a sawtooth: C+1 tracks at its
///     read cycle, draining one per cycle until the next read.
/// (a) C−1 staggered streams interleave those sawtooths "out of phase",
///     peaking at C(C+1)/2 = 15 tracks — versus 2C per stream (40 for
///     four streams) under Streaming RAID.
pub fn fig4_memory() {
    // (b) One stream's sawtooth (end-of-cycle occupancy).
    let mut single = scheme_server(Scheme::StaggeredGroup, 1, 400);
    let m = single.objects()[0];
    single.admit(m).unwrap();
    for _ in 0..20 {
        single.step().unwrap();
    }
    println!("Figure 4(b) — one staggered-group stream (end-of-cycle tracks):\n");
    println!("cycle  tracks");
    for (t, v) in single.metrics().buffer_series.iter().enumerate().take(16) {
        println!("{t:>5}  {v:>6} {}", "#".repeat(*v));
    }
    println!(
        "\npeak within a read cycle: {} tracks (C+1 = 6: the new group incl.\nparity plus the previous group's last track in transmission)",
        single.metrics().buffer_peak
    );

    // (a) Four streams, staggered vs Streaming RAID.
    let mut sg = scheme_server(Scheme::StaggeredGroup, 1, 400);
    let m = sg.objects()[0];
    for _ in 0..4 {
        sg.admit(m).unwrap();
        sg.step().unwrap(); // stagger phases
    }
    for _ in 0..24 {
        sg.step().unwrap();
    }
    let mut sr = scheme_server(Scheme::StreamingRaid, 1, 400);
    let m = sr.objects()[0];
    for _ in 0..4 {
        sr.admit(m).unwrap();
    }
    for _ in 0..24 {
        sr.step().unwrap();
    }
    let (sg_peak, sr_peak) = (sg.metrics().buffer_peak, sr.metrics().buffer_peak);
    println!("\nFigure 4(a) — four streams, aggregate peak buffer demand:");
    println!("  Staggered-group : {sg_peak} tracks  (paper: C(C+1)/2 = 15)");
    println!("  Streaming RAID  : {sr_peak} tracks  (paper: 2C per stream = 40)");
    println!(
        "  ratio           : {:.2} — \"approximately 1/2 the memory\"",
        sg_peak as f64 / sr_peak as f64
    );
    assert_eq!(sg_peak, 15);
    assert_eq!(sr_peak, 40);
}

/// Stream names used by the Figure 5/6/7 scenario.
const FIGURE_NAMES: [(u64, &str); 8] = [
    (0, "U"),
    (1, "W"),
    (2, "Y"),
    (3, "A"),
    (4, "C"),
    (5, "E"),
    (6, "G"),
    (7, "I"),
];

/// The cycle at which disk 2 fails in the figure scenario (the figures'
/// "just before the start of cycle 1", mapped to scheduler cycle 4).
const FIGURE_FAIL_CYCLE: u64 = 4;

/// Build the Figures 5–7 Non-clustered scenario: one cluster of five
/// disks, one slot per disk per cycle, four-track objects.
fn figure_scheduler(policy: TransitionPolicy) -> NonClusteredScheduler {
    let geo = Geometry::clustered(5, 5).expect("5x5 is a valid clustered geometry");
    let mut catalog = Catalog::new(ClusteredLayout::new(geo), 10_000);
    for (id, name) in FIGURE_NAMES {
        catalog
            .add(MediaObject::new(
                ObjectId(id),
                name,
                4,
                BandwidthClass::Custom(Bandwidth::from_megabytes(1.0)),
            ))
            .expect("figure objects fit the catalog and have unique ids");
    }
    let cfg = CycleConfig::new(
        DiskParams::paper_table1(),
        Bandwidth::from_megabytes(1.0),
        1,
        1,
    );
    NonClusteredScheduler::new(cfg, catalog, policy, 1)
}

/// Stream `i` of the figure scenario is admitted at cycle `i + 1`.
fn admit_figure_streams(sched: &mut NonClusteredScheduler, t: u64) {
    if (1..=FIGURE_NAMES.len() as u64).contains(&t) {
        sched
            .admit(ObjectId(t - 1), t)
            .expect("the figure's eight streams fit one cluster");
    }
}

/// Figure 5: the Non-clustered scheme's normal-mode disk read schedule —
/// one track per stream per cycle, rotating across the data disks, no
/// parity reads.
pub fn fig5_schedule() {
    let mut sched = figure_scheduler(TransitionPolicy::Simple);
    let mut plans = Vec::new();
    let mut plan = CyclePlan::empty(0);
    for t in 0..9u64 {
        admit_figure_streams(&mut sched, t);
        sched.plan_cycle_into(t, &mut plan);
        plans.push(plan.clone());
    }
    println!("Figure 5 — Non-clustered scheme under normal operation\n");
    println!(
        "{}",
        trace::render_schedule(&plans, 5, &BTreeMap::from(FIGURE_NAMES))
    );
    println!("Disk 4 (the parity disk) is never read in normal mode; each");
    println!("stream reads one track per cycle from consecutive data disks.");
}

/// Figures 6 and 7: the figure scenario through the failure of disk 2
/// under `policy`, asserting the paper's count of lost tracks.
fn transition(policy: TransitionPolicy, title: &str, paper_loses: &str, paper_count: usize) {
    let mut sched = figure_scheduler(policy);
    let names = BTreeMap::from(FIGURE_NAMES);
    let mut plans = Vec::new();
    let mut lost = Vec::new();
    let mut plan = CyclePlan::empty(0);
    for t in 0..12u64 {
        admit_figure_streams(&mut sched, t);
        if t == FIGURE_FAIL_CYCLE {
            sched.on_disk_failure(DiskId(2), t, false);
        }
        sched.plan_cycle_into(t, &mut plan);
        for h in &plan.hiccups {
            if let BlockKind::Data(ix) = h.addr.kind {
                lost.push(format!("{}{} ({})", names[&h.addr.object.0], ix, h.reason));
            }
        }
        plans.push(plan.clone());
    }
    println!("{title} (disk 2 fails before cycle 4)\n");
    println!("{}", trace::render_schedule(&plans, 5, &names));
    println!("lost tracks ({}): {}", lost.len(), lost.join(", "));
    println!("\n{paper_loses}");
    assert_eq!(
        lost.len(),
        paper_count,
        "must reproduce the paper's {paper_count} lost tracks"
    );
}

/// Figure 6: the *simple* transition to degraded mode. The paper's
/// lost-track set is {Y1, W2, Y2, U3, W3, Y3} — two on the failed disk,
/// four displaced by the shift.
pub fn fig6_transition() {
    transition(
        TransitionPolicy::Simple,
        "Figure 6 — Non-clustered simple transition",
        "paper's Figure 6 loses exactly: Y1, W2, Y2, U3, W3, Y3 (6 tracks)",
        6,
    );
}

/// Figure 7: the *delayed* transition. The paper loses only {W2, Y2}
/// (unreconstructable) plus {Y3} (displaced by A3's moved-up read) —
/// half the simple transition's damage.
pub fn fig7_transition() {
    transition(
        TransitionPolicy::Delayed,
        "Figure 7 — Non-clustered delayed transition",
        "paper's Figure 7 loses exactly: W2, Y2, Y3 (3 tracks)",
        3,
    );
}

/// Figure 8: the Improved-bandwidth layout. No dedicated parity disks;
/// the parity of cluster i's groups is distributed over the disks of
/// cluster i+1 (X0p/Y0p/Z0p staircase).
pub fn fig8_layout() {
    let geo = Geometry::improved(8, 5).unwrap();
    // Figure 8 places objects X, Y, Z starting on cluster 0 with their
    // parity staircased across cluster 1; the salt models that staircase.
    println!("Figure 8 — Improved-bandwidth layout (cluster 0: disks 0-3, cluster 1: disks 4-7)\n");
    let names = ["X", "Y", "Z"];
    print!("{:>6}", "");
    for d in 0..8 {
        print!(" {:>13}", format!("disk{d}"));
    }
    println!();
    for (i, name) in names.iter().enumerate() {
        let layout = ImprovedLayout::with_salt(geo, i as u32);
        let mut catalog = Catalog::new(layout, 10_000);
        catalog
            .add_at(
                MediaObject::new(ObjectId(i as u64), *name, 16, BandwidthClass::Mpeg1),
                0,
            )
            .unwrap();
        print!("{name:>4}: ");
        for d in 0..8u32 {
            let blocks = catalog.blocks_on_disk(DiskId(d));
            let cell: Vec<String> = blocks
                .iter()
                .map(|b| match b.kind {
                    BlockKind::Data(_) => format!("{name}{}", b.track_number(4).unwrap()),
                    BlockKind::Parity => format!("{name}{}p", b.group * 4),
                })
                .collect();
            print!(" {:>13}", cell.join(","));
        }
        println!();
    }
    println!("\nEvery disk serves data in normal operation; disk 4 is both a");
    println!("data disk for cluster 1 and the parity host for X's cluster-0");
    println!("group — the dual membership that halves the scheme's MTTF (Eq. 5).");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_scenario_builds() {
        let mut s = figure_scheduler(TransitionPolicy::Simple);
        for t in 1..=3 {
            admit_figure_streams(&mut s, t);
        }
        assert_eq!(s.active_streams(), 3);
        assert_eq!(s.config().slots_per_disk(), 1);
    }
}
