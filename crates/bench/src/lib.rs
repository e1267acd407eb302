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
//! `repro list` prints the catalogue of generators, `bench` without
//! arguments the catalogue of measurements; each is one table in its
//! `main.rs`, and that table is the only list there is.
//!
//! This library holds what both binaries share: the JSON writer, the
//! server most grids are measured on and the one scenario both binaries
//! run. The argument parser is `mms_server::Args`, which `mms-ctl`
//! uses too.

#![forbid(unsafe_code)]

pub mod json;

use mms_server::disk::{Bandwidth, DiskId, DiskParams};
use mms_server::layout::{
    BandwidthClass, Catalog, ClusteredLayout, Geometry, MediaObject, ObjectId,
};
use mms_server::sched::{
    CycleConfig, CyclePlan, NonClusteredScheduler, SchemeScheduler, TransitionPolicy,
};
use mms_server::sim::DataMode;
use mms_server::{MultimediaServer, Scheme, ServerBuilder};

/// A metadata-only server of `scheme` at the geometry the grids of this
/// crate share — parity groups of five over ten disks (eight for
/// Improved-bandwidth, whose clusters are `C−1` wide) — holding `movies`
/// MPEG-1 objects of `tracks` tracks each. The disks are Table 1's, but
/// a title longer than Table 1's 1,000 MB (`bench steady`'s steady
/// cells) gets disks that each hold all of it.
#[must_use]
pub fn scheme_server(scheme: Scheme, movies: usize, tracks: u64) -> MultimediaServer {
    let disks = if scheme == Scheme::ImprovedBandwidth {
        8
    } else {
        10
    };
    let table1 = DiskParams::paper_table1();
    let title = table1.track_size * tracks as f64;
    let params = DiskParams {
        capacity: if title > table1.capacity {
            title
        } else {
            table1.capacity
        },
        ..table1
    };
    let mut builder = ServerBuilder::new(scheme)
        .disks(disks)
        .parity_group(5)
        .disk_params(params)
        .data_mode(DataMode::MetadataOnly);
    for m in 0..movies {
        builder = builder.object(MediaObject::new(
            ObjectId(m as u64),
            format!("movie-{m}"),
            tracks,
            BandwidthClass::Mpeg1,
        ));
    }
    builder.build().expect("the shared grid geometry builds")
}

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
    let mut plan = CyclePlan::empty(0);
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
        sched.plan_cycle_into(t, &mut plan);
        lost += plan.hiccups.len();
    }
    lost
}
