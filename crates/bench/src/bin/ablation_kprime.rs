//! Ablation: the k′ continuum between Streaming RAID (k′ = C−1) and
//! Staggered-group (k′ = 1).
//!
//! Section 2's efficiency argument: "as k increases, the performance, in
//! terms of the number of streams that can be handled per disk,
//! increases. However, the amount of buffer space required per cycle also
//! increases linearly with k." The paper evaluates only the endpoints;
//! this sweep measures the whole trade-off curve with the
//! GroupedScheduler, for both the paper's bandwidth classes, and checks
//! its own endpoint rows: the buffer peaks are the paper's `C+1` and
//! `2C`, and the capacities are those of the Staggered-group and
//! Streaming RAID servers `ServerBuilder` builds.

use mms_server::analysis::streams::streams_per_disk_bound;
use mms_server::disk::{Bandwidth, DiskParams};
use mms_server::layout::{
    BandwidthClass, Catalog, ClusteredLayout, Geometry, MediaObject, ObjectId,
};
use mms_server::sched::{CycleConfig, GroupedScheduler, SchemeScheduler};
use mms_server::sim::run_batch;
use mms_server::{Parallelism, Scheme, ServerBuilder};

const C: usize = 9; // k' ∈ {1, 2, 4, 8}

fn movie(b0: Bandwidth) -> MediaObject {
    MediaObject::new(ObjectId(0), "m", 400, BandwidthClass::Custom(b0))
}

fn measured_peak(k_prime: usize, b0: Bandwidth) -> (usize, usize) {
    let geo = Geometry::clustered(C, C).unwrap();
    let mut catalog = Catalog::new(ClusteredLayout::new(geo), 100_000);
    catalog.add(movie(b0)).unwrap();
    let cfg = CycleConfig::new(DiskParams::paper_table1(), b0, C - 1, k_prime);
    let mut s = GroupedScheduler::new(cfg, catalog);
    s.admit(ObjectId(0), 0).unwrap();
    for t in 0..60 {
        s.plan_cycle(t);
    }
    (s.buffer_high_water(), s.stream_capacity())
}

/// Stream capacity of the single-cluster server the builder makes for
/// `scheme`.
fn server_capacity(scheme: Scheme, b0: Bandwidth) -> usize {
    ServerBuilder::new(scheme)
        .disks(C)
        .parity_group(C)
        .object(movie(b0))
        .build()
        .expect("one cluster of C disks holds the movie")
        .stream_capacity()
}

fn main() {
    println!("k' sweep at C = {C} (Table 1 disk; single cluster)\n");
    // The (class, k') grid is embarrassingly parallel: measure all eight
    // points over the deterministic worker pool, then print in order.
    let k_primes = [1usize, 2, 4, 8];
    let classes = [("MPEG-1 (1.5 Mb/s)", 1.5), ("MPEG-2 (4.5 Mb/s)", 4.5)];
    let grid: Vec<(f64, usize)> = classes
        .iter()
        .flat_map(|&(_, mbps)| k_primes.iter().map(move |&k| (mbps, k)))
        .collect();
    let results = run_batch(Parallelism::Auto, &grid, |&(mbps, k_prime)| {
        measured_peak(k_prime, Bandwidth::from_megabits(mbps))
    });
    let mut it = results.into_iter();
    for (label, mbps) in classes {
        let b0 = Bandwidth::from_megabits(mbps);
        println!("{label}:");
        println!(
            "{:>4} {:>14} {:>16} {:>18}",
            "k'", "buffer peak", "stream capacity", "analytic N/D'"
        );
        for k_prime in k_primes {
            let (peak, capacity) = it.next().unwrap();
            // The endpoints are the paper's two schemes.
            let named = match k_prime {
                1 => Some((Scheme::StaggeredGroup, C + 1)),
                k if k == C - 1 => Some((Scheme::StreamingRaid, 2 * C)),
                _ => None,
            };
            if let Some((scheme, paper_peak)) = named {
                assert_eq!(peak, paper_peak, "{scheme} buffer peak at k' = {k_prime}");
                assert_eq!(
                    capacity,
                    server_capacity(scheme, b0),
                    "{scheme} capacity at k' = {k_prime}"
                );
            }
            // The §2 bound for k = k' at this k'.
            let nd = streams_per_disk_bound(&DiskParams::paper_table1(), b0, k_prime, k_prime);
            println!("{k_prime:>4} {peak:>14} {capacity:>16} {nd:>18.2}");
        }
        println!();
    }
    println!(
        "Buffer peaks climb from C+1 to 2C per stream while capacity\n\
         climbs with the seek amortization — steep for MPEG-2 (the paper's\n\
         ~15% spread), shallow for MPEG-1 (~5%). The endpoints are exactly\n\
         the Staggered-group and Streaming RAID columns of Table 2."
    );
}
