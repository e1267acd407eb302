//! # mms-bench — reproduction and measurement harness
//!
//! Two binaries and nothing else:
//!
//! * `cargo run --release -p mms-bench --bin repro -- <id>|all|list`
//!   regenerates one table or figure of the paper (the `(id, what, fn)`
//!   table in `src/bin/repro/main.rs` is the place to add one);
//! * `cargo run --release -p mms-bench --bin bench -- <name> [out.json] [--quick]`
//!   takes one of the five `BENCH_<name>.json` measurements (the table
//!   in `src/bin/bench/main.rs` is the place to add one).
//!
//! | `repro` id | Reproduces |
//! |---|---|
//! | `section2_table` | §2 in-text streams/disk table |
//! | `table2` / `table3` | Tables 2 and 3 (all six metrics, four schemes) |
//! | `fig2_schedule` | Figure 2 (k/k′ read vs transmission cycles) |
//! | `fig3_layout` | Figure 3 (Streaming RAID layout) |
//! | `fig4_memory` | Figure 4 (staggered-group memory profile) |
//! | `fig5_schedule` | Figure 5 (NC normal-mode schedule) |
//! | `fig6_transition` | Figure 6 (NC simple transition) |
//! | `fig7_transition` | Figure 7 (NC delayed transition) |
//! | `fig8_layout` | Figure 8 (improved-bandwidth layout) |
//! | `fig9_cost` | Figure 9(a)+(b) cost and stream sweeps |
//! | `reliability_mc` | §2/§3/§4 MTTF quotes, formula vs Monte Carlo |
//! | `baseline_vs_schemes` | §1's no-fault-tolerance motivation, measured |
//! | `ablation_transition` | NC transition losses across C × failed disk × policy |
//! | `ablation_ib_reserve` | IB reserved capacity vs dropped streams at full load |
//! | `ablation_kprime` | the k′ continuum between SR and SG |
//! | `design_space` | §5 design exercise + §1 mixed-class farm split |
//!
//! | `bench` name | Measures |
//! |---|---|
//! | `parallel` | the `mms-exec` worker pool at 1/2/4/8 threads, bit-identity asserted |
//! | `datapath` | XOR and generator kernels, verified deliveries, allocations per cycle (must be 0) |
//! | `workload` | stall rate vs utilization, 4 schemes × 6 loads × normal/degraded |
//! | `steady` | cycle-by-cycle vs event-horizon stepping (≥ 5× gate on full runs) |
//! | `fleet` | an 8-node million-session day plus fleet MTTF / MTTDS |
//!
//! This library holds what both binaries share: the argument parser,
//! the JSON writer, and the one scenario both of them run.

#![forbid(unsafe_code)]

pub mod args;
pub mod json;

use mms_server::disk::{Bandwidth, DiskId, DiskParams};
use mms_server::layout::{
    BandwidthClass, Catalog, ClusteredLayout, Geometry, MediaObject, ObjectId,
};
use mms_server::sched::{CycleConfig, NonClusteredScheduler, SchemeScheduler, TransitionPolicy};

/// Tracks lost during the Non-clustered degraded-mode transition: one
/// fully-loaded cluster of size `c` with one stream per phase, disk `f`
/// failing while each phase is mid-group. Used by
/// `repro ablation_transition` and `bench parallel`.
#[must_use]
pub fn nc_transition_losses(c: usize, f: u32, policy: TransitionPolicy) -> usize {
    let geo = Geometry::clustered(c, c).expect("square clustered geometry is valid for c >= 2");
    let mut catalog = Catalog::new(ClusteredLayout::new(geo), 100_000);
    let bpg = c - 1;
    for i in 0..(3 * bpg) as u64 {
        catalog
            .add(MediaObject::new(
                ObjectId(i),
                format!("s{i}"),
                bpg as u64,
                BandwidthClass::Custom(Bandwidth::from_megabytes(1.0)),
            ))
            .expect("transition objects fit the catalog and have unique ids");
    }
    let cfg = CycleConfig::new(
        DiskParams::paper_table1(),
        Bandwidth::from_megabytes(1.0),
        1,
        1,
    );
    let mut sched = NonClusteredScheduler::new(cfg, catalog, policy, 1);
    let fail_at = bpg as u64;
    let mut next_obj = 0u64;
    let mut lost = 0usize;
    for t in 0..(4 * bpg as u64) {
        // One new stream starts every cycle from cycle 1 on, keeping
        // every phase busy by the time the failure strikes.
        if t >= 1 && next_obj < (3 * bpg) as u64 {
            sched
                .admit(ObjectId(next_obj), t)
                .expect("one stream per phase stays within admission capacity");
            next_obj += 1;
        }
        if t == fail_at {
            sched.on_disk_failure(DiskId(f), t, false);
        }
        lost += sched.plan_cycle(t).hiccups.len();
    }
    lost
}
