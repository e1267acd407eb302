//! Measure the zero-allocation data path — the word-wise XOR kernel, the
//! pooled streaming verification in [`BlockOracle`], and the simulator's
//! steady-state cycle loop.
//!
//! Four measurements:
//! * **XOR kernel** — MB/s of the `u64`-lane [`xor_slices`] against a
//!   byte-at-a-time scalar reference loop.
//! * **Synthetic kernel** — MB/s of the four kernels that draw from the
//!   ground-truth generator: fill, XOR-in, fold-only, and the fused
//!   fill-and-fold.
//! * **Verified deliveries** — deliveries per second and heap
//!   allocations per delivery, for the legacy materializing path
//!   (`block` + `reconstruct_and_check`) vs the pooled streaming path
//!   (`verify_delivery`), the latter split into plain and reconstructed
//!   deliveries.
//! * **Simulator cycles** — heap allocations per steady-state cycle of a
//!   degraded run under `DataMode::Verified`, for each of the four
//!   schemes at 4 and at 40 viewers; and of a healthy session-churn run
//!   under `DataMode::MetadataOnly` and `StepMode::EventHorizon`, where
//!   two viewers arrive and two finish every cycle and each step fills a
//!   counted plan.
//!
//! Allocations are counted by a `#[global_allocator]` shim around the
//! system allocator (it serves the whole `bench` binary; the other four
//! benches never read the counter), so the numbers are the real heap
//! traffic of the measured section — not an estimate.
//!
//! Usage: `bench datapath [output.json] [--quick]`
//!
//! `--quick` shrinks every workload to a smoke-test size; the committed
//! JSON comes from a full run. Either way the exit status is 1 if a
//! streaming delivery or a simulator cycle of any scheme — degraded or
//! counted — allocated: zero is the contract, and CI runs this bench to
//! enforce it.

use crate::{timed, Harness};
use mms_bench::json::{obj, Json};
use mms_server::disk::DiskId;
use mms_server::layout::{BandwidthClass, BlockAddr, MediaObject, ObjectId};
use mms_server::parity::{
    fill_synthetic, fill_synthetic_folded, synthetic_fingerprint, xor_slices, xor_synthetic,
};
use mms_server::sim::{BlockOracle, DataMode, FailureEvent, StepMode};
use mms_server::Args;
use mms_server::{Scheme, ServerBuilder, ServerError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator with an allocation counter: every `alloc`/`realloc`
/// bumps [`ALLOC_COUNT`], so a section's heap traffic is the difference
/// of two counter reads.
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOC_COUNT.load(Ordering::Relaxed)
}

/// A real track per the paper's Table 1 (50 KB).
const TRACK_BYTES: usize = 50_000;
/// Parity-group size C = 5 ⇒ four data blocks per group.
const GROUP_C: usize = 5;

/// Byte-at-a-time XOR reference. `black_box` pins each store so the
/// optimizer cannot rewrite the loop into the very SIMD kernel it is
/// the baseline for.
fn xor_scalar_reference(dst: &mut [u8], src: &[u8]) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d = black_box(*d ^ *s);
    }
}

/// MB/s of `call(pass, track)` over `passes` 50 KB tracks.
fn track_mb_per_s(passes: usize, mut call: impl FnMut(u64, &mut [u8])) -> f64 {
    let mut track = vec![0u8; TRACK_BYTES];
    let ((), secs) = timed(|| {
        for pass in 0..passes as u64 {
            call(pass, black_box(&mut track));
        }
    });
    black_box(&track);
    (passes * TRACK_BYTES) as f64 / 1e6 / secs
}

/// The `u64`-lane XOR against the scalar reference.
fn xor_kernel(quick: bool) -> Json {
    let passes = if quick { 64 } else { 4096 };
    let src: Vec<u8> = (0..TRACK_BYTES).map(|i| (i * 131) as u8).collect();
    let scalar = track_mb_per_s(passes, |_, dst| xor_scalar_reference(dst, &src));
    let wordwise = track_mb_per_s(passes, |_, dst| xor_slices(dst, &src));
    let speedup = wordwise / scalar;
    println!(
        "xor kernel        scalar {scalar:>8.1} MB/s  wordwise {wordwise:>8.1} MB/s  speedup {speedup:.1}x"
    );
    obj([
        ("passes", Json::from(passes)),
        ("scalar_mb_per_s", Json::Fixed(scalar, 1)),
        ("wordwise_mb_per_s", Json::Fixed(wordwise, 1)),
        ("speedup", Json::Fixed(speedup, 2)),
    ])
}

/// The ground-truth generator's four kernels, one 50 KB track per pass.
fn synthetic_kernel(quick: bool) -> Json {
    let passes = if quick { 64 } else { 4096 };
    let fill = track_mb_per_s(passes, |t, out| fill_synthetic(7, t, out));
    let xor_in = track_mb_per_s(passes, |t, out| xor_synthetic(7, t, out));
    let fold_only = track_mb_per_s(passes, |t, out| {
        black_box(synthetic_fingerprint(7, t, out.len()));
    });
    let fused = track_mb_per_s(passes, |t, out| {
        black_box(fill_synthetic_folded(7, t, out));
    });
    println!(
        "synthetic kernel  fill {fill:>8.1} MB/s  xor-in {xor_in:>8.1} MB/s  fold-only {fold_only:>8.1} MB/s  fused {fused:>8.1} MB/s"
    );
    obj([
        ("passes", Json::from(passes)),
        ("fill_mb_per_s", Json::Fixed(fill, 1)),
        ("xor_in_mb_per_s", Json::Fixed(xor_in, 1)),
        ("fold_only_mb_per_s", Json::Fixed(fold_only, 1)),
        ("fused_fill_fold_mb_per_s", Json::Fixed(fused, 1)),
    ])
}

/// Verified deliveries of data block `i % (C−1)` of a rotating group.
/// The legacy path reconstructs it by materializing the whole group;
/// the streaming path verifies it through pooled scratch, once as a
/// plain delivery and once as a reconstructed one. Also returns the
/// streaming path's allocations per delivery, which must be 0.
fn verified_delivery(quick: bool) -> (Json, f64) {
    let deliveries: usize = if quick { 32 } else { 2000 };
    let object = ObjectId(7);
    let tracks: u64 = 4096;
    let bpg = (GROUP_C - 1) as u32;
    let groups = tracks / u64::from(bpg);
    let mut oracle = BlockOracle::new(BTreeMap::from([(object, tracks)]), bpg, TRACK_BYTES);

    let (legacy_allocs, legacy_secs) = timed(|| {
        let allocs_before = allocations();
        for i in 0..deliveries {
            let group = (i as u64 * 17) % groups;
            let ix = (i as u32) % bpg;
            let expected = oracle.block(BlockAddr::data(object, group, ix));
            let produced = oracle.reconstruct_and_check(object, group, ix);
            assert_eq!(produced, expected, "legacy path must round-trip");
        }
        allocations() - allocs_before
    });

    // No warm-up: the oracle sized its pool at construction.
    let allocs_before = allocations();
    let [plain_per_s, reconstructed_per_s] = [false, true].map(|reconstructed| {
        let ((), secs) = timed(|| {
            for i in 0..deliveries {
                let group = (i as u64 * 17) % groups;
                let ix = (i as u32) % bpg;
                oracle.verify_delivery(BlockAddr::data(object, group, ix), reconstructed);
            }
        });
        deliveries as f64 / secs
    });
    let streaming_allocs = allocations() - allocs_before;

    let legacy_per_s = deliveries as f64 / legacy_secs;
    let legacy_allocs_per = legacy_allocs as f64 / deliveries as f64;
    let streaming_allocs_per = streaming_allocs as f64 / (2 * deliveries) as f64;
    println!(
        "verified delivery legacy {legacy_per_s:>8.1}/s ({legacy_allocs_per:.1} allocs)  streaming plain {plain_per_s:>8.1}/s  reconstructed {reconstructed_per_s:>8.1}/s ({streaming_allocs_per:.1} allocs)"
    );
    // A ratio degenerates (division by zero) precisely when the pooled
    // path wins outright; the difference stays meaningful at 0.
    let eliminated = legacy_allocs_per - streaming_allocs_per;
    let section = obj([
        ("blocks_per_group", Json::from(GROUP_C - 1)),
        ("deliveries", deliveries.into()),
        ("legacy_deliveries_per_s", Json::Fixed(legacy_per_s, 1)),
        (
            "legacy_allocs_per_delivery",
            Json::Fixed(legacy_allocs_per, 2),
        ),
        ("streaming_plain_per_s", Json::Fixed(plain_per_s, 1)),
        (
            "streaming_reconstructed_per_s",
            Json::Fixed(reconstructed_per_s, 1),
        ),
        (
            "streaming_allocs_per_delivery",
            Json::Fixed(streaming_allocs_per, 2),
        ),
        ("allocs_eliminated_per_delivery", Json::Fixed(eliminated, 2)),
    ]);
    (section, streaming_allocs_per)
}

/// Steady-state allocations per cycle of one degraded run with verified
/// synthetic content: `viewers` viewers stream one movie while disk 1 is
/// down, so every cycle plans — Non-clustered group-at-a-time, the
/// Improved-bandwidth shift cascade — reads, reconstructs, and verifies
/// through the hoisted plan/load/pool storage. The warm-up outlasts the
/// transition, so what is measured is the degraded steady state.
fn degraded_allocs(
    scheme: Scheme,
    viewers: usize,
    warmup: u64,
    cycles: u64,
) -> Result<f64, ServerError> {
    let object = ObjectId(0);
    // Ten disks in two clusters of C; Improved-bandwidth's clusters are
    // C − 1 wide, so two of them take eight.
    let disks = match scheme {
        Scheme::ImprovedBandwidth => 2 * (GROUP_C - 1),
        _ => 2 * GROUP_C,
    };
    let mut server = ServerBuilder::new(scheme)
        .disks(disks)
        .parity_group(GROUP_C)
        .object(MediaObject::new(object, "m", 20_000, BandwidthClass::Mpeg1))
        .data_mode(DataMode::Verified { track_bytes: 4096 })
        .build()?;
    for _ in 0..viewers {
        server.admit(object)?;
        server.step()?;
    }
    server.inject(FailureEvent::fail(server.cycle(), DiskId(1)))?;
    for _ in 0..warmup {
        server.step()?;
    }
    let allocs_before = allocations();
    for _ in 0..cycles {
        server.step()?;
    }
    Ok((allocations() - allocs_before) as f64 / cycles as f64)
}

/// Clip lengths of the churn cells: ten groups, and a partial eleventh.
const CHURN_CLIPS: [u64; 2] = [40, 42];

/// Steady-state allocations per cycle of a healthy session-churn run:
/// one viewer of each clip arrives every cycle, so once the first have
/// played out streams start and finish every cycle, and every step of
/// an event-horizon server with no oracle plans a counted cycle — the
/// streams at an edge of their lives one by one, the rest by admission
/// class. The warm-up outlasts the longest life, so what is measured is
/// the churn's steady state.
fn churn_allocs(scheme: Scheme, warmup: u64, cycles: u64) -> Result<f64, ServerError> {
    let disks = match scheme {
        Scheme::ImprovedBandwidth => 2 * (GROUP_C - 1),
        _ => 2 * GROUP_C,
    };
    let mut builder = ServerBuilder::new(scheme)
        .disks(disks)
        .parity_group(GROUP_C)
        .data_mode(DataMode::MetadataOnly)
        .step_mode(StepMode::EventHorizon);
    for (id, tracks) in CHURN_CLIPS.into_iter().enumerate() {
        let clip = MediaObject::new(ObjectId(id as u64), "clip", tracks, BandwidthClass::Mpeg1);
        builder = builder.object(clip);
    }
    let mut server = builder.build()?;
    let mut cycle = || -> Result<(), ServerError> {
        for id in 0..CHURN_CLIPS.len() {
            server.admit(ObjectId(id as u64))?;
        }
        server.step().map(drop)
    };
    for _ in 0..warmup {
        cycle()?;
    }
    let allocs_before = allocations();
    for _ in 0..cycles {
        cycle()?;
    }
    Ok((allocations() - allocs_before) as f64 / cycles as f64)
}

/// [`degraded_allocs`] for every scheme at 4 and at 40 viewers, then
/// [`churn_allocs`] for every scheme. Also returns the most any run
/// allocated per cycle, which must be 0.
fn simulator(quick: bool) -> Result<(Json, f64), ServerError> {
    // Quick runs measure fewer cycles, not an earlier state: 64 cycles
    // carry every run past its transition and let each per-cycle list
    // (the Non-clustered calendar's five buckets against its eight-cycle
    // rotation) grow to its working size.
    let (warmup, cycles) = (64, if quick { 16u64 } else { 256 });
    let (mut cells, mut worst) = (Vec::new(), 0.0f64);
    for scheme in Scheme::ALL {
        for viewers in [4, 40] {
            let allocs_per_cycle = degraded_allocs(scheme, viewers, warmup, cycles)?;
            let name = scheme.abbrev();
            println!(
                "simulator         {allocs_per_cycle:.1} allocs/cycle over {cycles} degraded {name} cycles, {viewers} viewers"
            );
            cells.push(Json::Row(vec![
                ("scheme".into(), Json::from(name.to_lowercase())),
                ("viewers".into(), viewers.into()),
                ("degraded".into(), true.into()),
                ("cycles".into(), cycles.into()),
                ("allocs_per_cycle".into(), Json::Fixed(allocs_per_cycle, 2)),
            ]));
            worst = worst.max(allocs_per_cycle);
        }
    }
    for scheme in Scheme::ALL {
        let allocs_per_cycle = churn_allocs(scheme, warmup, cycles)?;
        let name = scheme.abbrev();
        println!(
            "simulator         {allocs_per_cycle:.1} allocs/cycle over {cycles} counted {name} churn cycles, {} arrivals a cycle",
            CHURN_CLIPS.len()
        );
        cells.push(Json::Row(vec![
            ("scheme".into(), Json::from(name.to_lowercase())),
            ("arrivals_per_cycle".into(), CHURN_CLIPS.len().into()),
            ("degraded".into(), false.into()),
            ("step_mode".into(), Json::from("event-horizon")),
            ("cycles".into(), cycles.into()),
            ("allocs_per_cycle".into(), Json::Fixed(allocs_per_cycle, 2)),
        ]));
        worst = worst.max(allocs_per_cycle);
    }
    Ok((Json::Arr(cells), worst))
}

pub fn run(harness: &Harness, args: &mut Args) -> Result<ExitCode, String> {
    args.finish()?;
    let quick = harness.quick;
    let xor = xor_kernel(quick);
    let synthetic = synthetic_kernel(quick);
    let (delivery, allocs_per_delivery) = verified_delivery(quick);
    let (sim, allocs_per_cycle) = simulator(quick).map_err(|e| e.to_string())?;
    harness.write(
        None,
        vec![
            ("track_bytes", TRACK_BYTES.into()),
            ("xor_kernel", xor),
            ("synthetic_kernel", synthetic),
            ("verified_delivery", delivery),
            ("simulator", sim),
        ],
    );
    if allocs_per_delivery != 0.0 || allocs_per_cycle != 0.0 {
        eprintln!(
            "error: the data path allocated ({allocs_per_delivery} per streaming delivery, up to {allocs_per_cycle} per simulator cycle); both must be 0"
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
