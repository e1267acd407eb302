//! Measurements beyond the paper's own figures: the unprotected baseline
//! of §1 and three sweeps over knobs the paper fixes.

use mms_bench::{nc_transition_losses as losses, scheme_server};
use mms_server::analysis::streams::streams_per_disk_bound;
use mms_server::disk::{Bandwidth, DiskId, DiskParams};
use mms_server::layout::{
    BandwidthClass, Catalog, ClusteredLayout, Geometry, MediaObject, ObjectId,
};
use mms_server::sched::{
    CycleConfig, CyclePlan, GroupedScheduler, NonClusteredScheduler, SchemeScheduler,
    TransitionPolicy,
};
use mms_server::sim::{run_batch, DataMode, FailureEvent, ObjectDirectory, Simulator};
use mms_server::{Parallelism, Scheme, ServerBuilder};

const TRACKS: u64 = 2_000;
const FAIL_AT: u64 = 100;
const REPAIR_AT: u64 = 1_600; // ≳ 1 hour of MPEG-1 cycles (267 ms each)

fn baseline_run() -> (u64, u64) {
    let geo = Geometry::clustered(10, 5).unwrap();
    let mut catalog = Catalog::new(ClusteredLayout::new(geo), 100_000);
    catalog
        .add(MediaObject::new(
            ObjectId(0),
            "m",
            TRACKS,
            BandwidthClass::Mpeg1,
        ))
        .unwrap();
    let cfg = CycleConfig::new(
        DiskParams::paper_table1(),
        mms_server::disk::Bandwidth::from_megabits(1.5),
        1,
        1,
    );
    let sched = NonClusteredScheduler::unprotected(cfg, catalog);
    let dir = ObjectDirectory::new([(ObjectId(0), TRACKS)], 4);
    let mut sim = Simulator::new(
        sched,
        DiskParams::paper_table1(),
        10,
        DataMode::MetadataOnly,
        dir,
    );
    for _ in 0..4 {
        sim.admit(ObjectId(0)).unwrap();
        sim.step().unwrap();
    }
    for t in 4..2_600u64 {
        if t == FAIL_AT {
            sim.fail_disk_now(DiskId(1), false).unwrap();
        }
        if t == REPAIR_AT {
            sim.repair_disk_now(DiskId(1)).unwrap();
        }
        sim.step().unwrap();
    }
    (sim.metrics().delivered, sim.metrics().total_hiccups())
}

fn scheme_run(scheme: Scheme) -> (u64, u64) {
    let mut server = scheme_server(scheme, 1, TRACKS);
    // Normalize to the baseline's wall clock: its cycle is B/b0; SR and
    // IB cycles are (C−1)x longer, so they run proportionally fewer
    // cycles and the failure window lands at the same simulated time.
    let stretch = {
        let base = DiskParams::paper_table1()
            .cycle_time(1, mms_server::disk::Bandwidth::from_megabits(1.5));
        (server.cycle_config().t_cyc().as_secs() / base.as_secs()).round() as u64
    };
    for _ in 0..4 {
        server.admit(ObjectId(0)).unwrap();
        server.step().unwrap();
    }
    let cycles = 2_600 / stretch;
    let fail_at = (FAIL_AT / stretch).max(5);
    let repair_at = REPAIR_AT / stretch;
    for t in 4..cycles {
        if t == fail_at {
            server
                .inject(FailureEvent::fail(server.cycle(), DiskId(1)))
                .unwrap();
        }
        if t == repair_at {
            server.repair_disk(DiskId(1)).unwrap();
        }
        server.step().unwrap();
    }
    (server.metrics().delivered, server.metrics().total_hiccups())
}

/// Quantifies Section 1's motivating claim: "without some form of fault
/// tolerance, such a system is not likely to be acceptable."
///
/// The same movie plays through the same disk failure (repaired after the
/// paper's one-hour MTTR worth of cycles) on the unprotected baseline and
/// on all four schemes; hiccups per viewer-hour tell the story.
pub fn baseline_vs_schemes() {
    println!(
        "One disk fails at cycle {FAIL_AT} and is repaired ~1 h later; four\n\
         viewers stream a {TRACKS}-track movie throughout.\n"
    );
    println!(
        "{:<26} {:>10} {:>9} {:>12}",
        "configuration", "delivered", "hiccups", "loss rate"
    );
    let (d, h) = baseline_run();
    println!(
        "{:<26} {:>10} {:>9} {:>11.2}%",
        "no fault tolerance",
        d,
        h,
        100.0 * h as f64 / (d + h) as f64
    );
    for scheme in Scheme::ALL {
        let (d, h) = scheme_run(scheme);
        println!(
            "{:<26} {:>10} {:>9} {:>11.2}%",
            scheme.to_string(),
            d,
            h,
            100.0 * h as f64 / (d + h).max(1) as f64
        );
    }
    println!(
        "\nThe unprotected server hiccups on every rotation past the dead disk\n\
         for the entire repair window — the paper's §1 motivation, measured."
    );
}

/// Ablation: tracks lost during the Non-clustered degraded-mode
/// transition, across parity-group sizes and failed-disk positions, for
/// both transition policies. Extends Figures 6/7 beyond the paper's
/// single worked example and checks the prose formula
/// (C−k)(C−k+1)/2 against mechanically simulated losses.
pub fn ablation_transition() {
    println!("Non-clustered transition losses (full load, one stream per phase)\n");
    println!(
        "{:>3} {:>6} {:>14} {:>15} {:>22}",
        "C", "disk", "simple losses", "delayed losses", "prose (C-k)(C-k+1)/2"
    );
    let mut delayed_worse = 0usize;
    // The (C, failed-disk) grid is embarrassingly parallel: fan it out
    // over the deterministic worker pool, then print in grid order.
    let grid: Vec<(usize, u32)> = [4usize, 5, 6, 8]
        .into_iter()
        .flat_map(|c| (0..(c as u32 - 1)).map(move |f| (c, f)))
        .collect();
    let results = run_batch(Parallelism::Auto, &grid, |&(c, f)| {
        (
            losses(c, f, TransitionPolicy::Simple),
            losses(c, f, TransitionPolicy::Delayed),
        )
    });
    for (&(c, f), &(simple, delayed)) in grid.iter().zip(&results) {
        let prose = (c as i64 - f as i64) * (c as i64 - f as i64 + 1) / 2;
        let mark = if delayed > simple { " *" } else { "" };
        println!("{c:>3} {f:>6} {simple:>14} {delayed:>15} {prose:>22}{mark}");
        if delayed > simple {
            delayed_worse += 1;
        }
    }
    println!("\nThis table is the *continuous-saturation* regime (admissions never");
    println!("stop). The paper's finite Figure 6/7 scenario — reproduced exactly by");
    println!("the fig6_transition/fig7_transition bins — drains after eight streams,");
    println!("leaving slack that the delayed policy exploits (6 vs 3 lost there).");
    println!("The prose formula is an approximation; the simulated counts are exact.");
    if delayed_worse > 0 {
        println!(
            "(*) at 100% load the delayed policy can lose MORE than the simple\n\
             one: it keeps salvaging every in-flight group — extra read demand\n\
             at the exact moment no spare slot exists — while the simple policy\n\
             abandons remainders up front. With any idle capacity (the paper's\n\
             setting, and the property-tested regime) delayed dominates."
        );
    }
}

/// One full-load IB run with `reserve` slots held back per disk:
/// (admitted, dropped, hiccups, reconstructed).
fn ib_reserve_run(reserve: usize) -> (usize, u64, u64, u64) {
    let mut server = ServerBuilder::new(Scheme::ImprovedBandwidth)
        .disks(12) // 3 clusters of 4, C = 5
        .parity_group(5)
        .reserved_slots(reserve)
        .object(MediaObject::new(
            ObjectId(0),
            "m",
            100_000,
            BandwidthClass::Mpeg1,
        ))
        .data_mode(DataMode::MetadataOnly)
        .build()
        .unwrap();
    let m = server.objects()[0];
    // Fill every admission class (streams rotate through clusters, so
    // saturation requires spreading admissions over cycles).
    let mut admitted = 0usize;
    let mut denied_streak = 0;
    while denied_streak < 4 {
        if server.admit(m).is_ok() {
            admitted += 1;
            denied_streak = 0;
        } else {
            denied_streak += 1;
            server.step().unwrap();
        }
    }
    server
        .inject(FailureEvent::fail(server.cycle(), DiskId(0)))
        .unwrap();
    server.run(40).unwrap();
    let metrics = server.metrics();
    (
        admitted,
        metrics.service_degradations,
        metrics.total_hiccups(),
        metrics.reconstructed,
    )
}

/// Ablation: the Improved-bandwidth scheme's reserved capacity `K_IB`.
///
/// Section 4: "If the improved bandwidth system is running at capacity
/// with no idle slots, then a disk failure results in degradation of
/// service. However some small amount of idle capacity could be
/// reserved…" This sweep loads the farm to its (reserve-dependent)
/// admission limit, kills one disk, and reports what the shift to the
/// right could and could not absorb.
pub fn ablation_ib_reserve() {
    println!("Improved-bandwidth reserve ablation (12 disks, C = 5, full load, one failure)\n");
    println!(
        "{:>8} {:>9} {:>9} {:>9} {:>14}",
        "reserve", "admitted", "dropped", "hiccups", "reconstructed"
    );
    let reserves = [0usize, 1, 2, 4, 8];
    // Each reserve level is an independent simulation: run the bin's
    // whole sweep over the deterministic worker pool.
    let results = run_batch(Parallelism::Auto, &reserves, |&r| ib_reserve_run(r));
    for (reserve, (admitted, dropped, hiccups, reconstructed)) in reserves.into_iter().zip(results)
    {
        println!(
            "{:>8} {:>9} {:>9} {:>9} {:>14}",
            reserve, admitted, dropped, hiccups, reconstructed
        );
    }
    println!(
        "\nZero reserve: the shift finds no idle slots and sheds load (the\n\
         paper's degradation of service). Each reserved slot per disk trades\n\
         ~N_C streams of capacity for absorption headroom — Eq. 11's\n\
         (D − K_IB) in operational form."
    );
}

/// Parity-group size of the k′ sweep: k' ∈ {1, 2, 4, 8}.
const SWEEP_C: usize = 9;

fn movie(b0: Bandwidth) -> MediaObject {
    MediaObject::new(ObjectId(0), "m", 400, BandwidthClass::Custom(b0))
}

fn measured_peak(k_prime: usize, b0: Bandwidth) -> (usize, usize) {
    let geo = Geometry::clustered(SWEEP_C, SWEEP_C).unwrap();
    let mut catalog = Catalog::new(ClusteredLayout::new(geo), 100_000);
    catalog.add(movie(b0)).unwrap();
    let cfg = CycleConfig::new(DiskParams::paper_table1(), b0, SWEEP_C - 1, k_prime);
    let mut s = GroupedScheduler::new(cfg, catalog);
    s.admit(ObjectId(0), 0).unwrap();
    let mut plan = CyclePlan::empty(0);
    for t in 0..60 {
        s.plan_cycle_into(t, &mut plan);
    }
    (s.buffer_high_water(), s.stream_capacity())
}

/// Stream capacity of the single-cluster server the builder makes for
/// `scheme`.
fn server_capacity(scheme: Scheme, b0: Bandwidth) -> usize {
    ServerBuilder::new(scheme)
        .disks(SWEEP_C)
        .parity_group(SWEEP_C)
        .object(movie(b0))
        .build()
        .expect("one cluster of C disks holds the movie")
        .stream_capacity()
}

/// Ablation: the k′ continuum between Streaming RAID (k′ = C−1) and
/// Staggered-group (k′ = 1).
///
/// Section 2's efficiency argument: "as k increases, the performance, in
/// terms of the number of streams that can be handled per disk,
/// increases. However, the amount of buffer space required per cycle also
/// increases linearly with k." The paper evaluates only the endpoints;
/// this sweep measures the whole trade-off curve with the
/// GroupedScheduler, for both the paper's bandwidth classes, and checks
/// its own endpoint rows: the buffer peaks are the paper's `C+1` and
/// `2C`, and the capacities are those of the Staggered-group and
/// Streaming RAID servers `ServerBuilder` builds.
pub fn ablation_kprime() {
    println!("k' sweep at C = {SWEEP_C} (Table 1 disk; single cluster)\n");
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
                1 => Some((Scheme::StaggeredGroup, SWEEP_C + 1)),
                k if k == SWEEP_C - 1 => Some((Scheme::StreamingRaid, 2 * SWEEP_C)),
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
