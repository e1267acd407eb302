//! Failure drill: replays the paper's Figure 6 and Figure 7 scenarios —
//! the Non-clustered scheme's simple vs delayed transition to degraded
//! mode — and narrates the schedule cycle by cycle.
//!
//! Run with: `cargo run --example failure_drill`

use ft_media_server::disk::{Bandwidth, DiskId, DiskParams};
use ft_media_server::layout::{
    BandwidthClass, Catalog, ClusteredLayout, Geometry, MediaObject, ObjectId,
};
use ft_media_server::scenario::{corpus, Report};
use ft_media_server::sched::{
    CycleConfig, CyclePlan, NonClusteredScheduler, SchemeScheduler, TransitionPolicy,
};
use ft_media_server::sim::trace;
use ft_media_server::telemetry::{dashboard, jsonl, Level, Recorder};
use ft_media_server::{Parallelism, RunConfig};
use std::collections::BTreeMap;

/// Stream names as in the figures.
const NAMES: [(u64, &str); 8] = [
    (0, "U"),
    (1, "W"),
    (2, "Y"),
    (3, "A"),
    (4, "C"),
    (5, "E"),
    (6, "G"),
    (7, "I"),
];

fn build(policy: TransitionPolicy) -> NonClusteredScheduler {
    // One cluster of 5 disks (4 data + parity), exactly one read slot per
    // disk per cycle — the figures' setting.
    let geo = Geometry::clustered(5, 5).unwrap();
    let mut catalog = Catalog::new(ClusteredLayout::new(geo), 10_000);
    for (id, name) in NAMES {
        catalog
            .add(MediaObject::new(
                ObjectId(id),
                name,
                4,
                BandwidthClass::Custom(Bandwidth::from_megabytes(1.0)),
            ))
            .unwrap();
    }
    let cfg = CycleConfig::new(
        DiskParams::paper_table1(),
        Bandwidth::from_megabytes(1.0),
        1,
        1,
    );
    NonClusteredScheduler::new(cfg, catalog, policy, 1)
}

fn drill(policy: TransitionPolicy) {
    println!("== {policy:?} transition (disk 2 fails before cycle 4) ==\n");
    let mut sched = build(policy);
    let names: BTreeMap<u64, &str> = NAMES.into_iter().collect();

    // Collect the scheduler's telemetry while the drill runs: the
    // mode-transition events and per-reason loss counters replace the
    // hand-tallied summaries this example used to print.
    let recorder = Recorder::new(Level::Info);
    let guard = recorder.install();

    // Streams staggered one position apart, as in Figure 5.
    let starts = [
        (0u64, 1u64),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 6),
        (6, 7),
        (7, 8),
    ];
    let mut plans = Vec::new();
    let mut lost = Vec::new();
    let mut plan = CyclePlan::empty(0);
    for t in 0..14u64 {
        for &(obj, at) in &starts {
            if at == t {
                sched.admit(ObjectId(obj), at).unwrap();
            }
        }
        if t == 4 {
            let report = sched.on_disk_failure(DiskId(2), 4, false);
            println!(
                "cycle 4: DISK 2 FAILS — {} track(s) immediately unrecoverable\n",
                report.lost.len()
            );
        }
        sched.plan_cycle_into(t, &mut plan);
        for h in &plan.hiccups {
            lost.push(format!(
                "{}[{}]",
                names
                    .get(&h.addr.object.0)
                    .map(|n| format!("{n}{:?}", h.addr.kind))
                    .unwrap_or_default(),
                h.reason
            ));
        }
        plans.push(plan.clone());
    }

    drop(guard);
    println!("{}", trace::render_schedule(&plans, 5, &names));
    println!("lost tracks: {}", lost.join(", "));

    // The same story as recorded: transitions in the JSONL export
    // schema, losses from the metrics registry.
    let mut jl = Vec::new();
    for e in recorder
        .take_events()
        .iter()
        .filter(|e| e.name == "mode_transition")
    {
        jsonl::write_event(&mut jl, e).unwrap();
    }
    print!("{}", String::from_utf8(jl).unwrap());
    print!("{}", dashboard::render(&recorder.snapshot()));
    println!();
}

fn main() {
    println!(
        "The Non-clustered scheme reads no parity in normal mode, so a disk\n\
         failure forces a transition to degraded (group-at-a-time) reads.\n\
         The paper gives two transitions; both are replayed below.\n"
    );
    drill(TransitionPolicy::Simple);
    drill(TransitionPolicy::Delayed);
    println!(
        "Figure 6 (simple):  six tracks lost (Y1 W2 Y2 U3 W3 Y3).\n\
         Figure 7 (delayed): three tracks lost (W2 Y2 Y3) — the delayed\n\
         transition buffers a running XOR and moves reads only when needed.\n"
    );

    // The same two drills are named scenarios in the corpus: replay them
    // through the full server stack (real disks, real parity bytes) via
    // the scenario engine, which checks the exact loss counts as
    // invariants.
    println!("== the same drills through the scenario engine ==\n");
    let cfg = RunConfig {
        threads: Parallelism::Sequential,
        ..RunConfig::default()
    };
    for name in ["nc-transition-simple", "nc-transition-delayed"] {
        let drill = corpus(true).only(name).expect("corpus scenario");
        for report in drill.reports(&cfg).concat() {
            print!("{}", report.render());
        }
    }
}
