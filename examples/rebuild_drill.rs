//! Rebuild drill: the third operating mode. A disk dies mid-service, the
//! array runs degraded, and a spare is reloaded — first from parity using
//! only idle bandwidth, then (the catastrophe path) from tertiary storage
//! at tape speed. Also shows Section 4's adaptive parity prefetch turning
//! the Improved-bandwidth scheme's one unmaskable mid-cycle hiccup into a
//! clean reconstruction.
//!
//! Run with: `cargo run --example rebuild_drill`

use ft_media_server::disk::DiskId;
use ft_media_server::layout::{BandwidthClass, MediaObject, ObjectId};
use ft_media_server::sim::{DataMode, FailureEvent};
use ft_media_server::telemetry::{dashboard, Level, Recorder};
use ft_media_server::{Scheme, ServerBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One recorder across all three parts: the closing dashboard shows
    // the drill's full story straight from the metrics registry.
    let recorder = Recorder::new(Level::Info);
    let _guard = recorder.install();

    // --- Part 1: parity rebuild under load (Streaming RAID) ---
    let mut server = ServerBuilder::new(Scheme::StreamingRaid)
        .disks(10)
        .parity_group(5)
        .object(MediaObject::new(
            ObjectId(0),
            "catalog",
            4_000,
            BandwidthClass::Mpeg1,
        ))
        .data_mode(DataMode::MetadataOnly)
        .build()?;
    let movie = server.objects()[0];
    for _ in 0..8 {
        server.admit(movie)?;
    }
    server.run(4)?;
    server.inject(FailureEvent::fail(server.cycle(), DiskId(2)))?;
    println!("disk 2 failed; streams continue via on-the-fly reconstruction");
    server.run(4)?;
    server.start_parity_rebuild(DiskId(2))?;
    println!("spare installed; rebuilding from parity with idle slots only:");
    let mut cycles = 0u64;
    while server.metrics().rebuilds_completed == 0 {
        server.step()?;
        cycles += 1;
        if let Some(r) = server.simulator().rebuilds().active().first() {
            if cycles.is_multiple_of(2) {
                println!("  cycle {:>3}: {r}", server.simulator().cycle());
            }
        }
    }
    let m = server.metrics();
    println!(
        "rebuild done in {cycles} cycles; hiccups: {}, reconstructions: {}, \
         rebuild reads: {}\n",
        m.total_hiccups(),
        m.reconstructed,
        m.rebuild_reads,
    );

    // --- Part 2: tertiary rebuild (tape speed) ---
    let mut server = ServerBuilder::new(Scheme::StreamingRaid)
        .disks(10)
        .parity_group(5)
        .object(MediaObject::new(
            ObjectId(0),
            "catalog",
            4_000,
            BandwidthClass::Mpeg1,
        ))
        .data_mode(DataMode::MetadataOnly)
        .build()?;
    server.inject(FailureEvent::fail(server.cycle(), DiskId(2)))?;
    // The paper's footnote: a $1000 tape drive moves ~4 Mb/s ≈ 1 track
    // (50 KB) per MPEG-1 cycle; a disk moves ~8x that.
    server.start_tertiary_rebuild(DiskId(2), 1)?;
    let mut tape_cycles = 0u64;
    while server.metrics().rebuilds_completed == 0 {
        server.step()?;
        tape_cycles += 1;
    }
    println!(
        "tertiary rebuild of the same disk: {tape_cycles} cycles \
         ({}x slower) — why the paper calls the tape path \"very time\n\
         consuming\" and leans on parity instead.\n",
        tape_cycles / cycles.max(1)
    );

    // --- Part 3: IB mid-cycle hiccup vs adaptive parity prefetch ---
    for prefetch in [false, true] {
        let mut server = ServerBuilder::new(Scheme::ImprovedBandwidth)
            .disks(8)
            .parity_group(5)
            .parity_prefetch(prefetch)
            .movie("feature", 0.5, BandwidthClass::Mpeg1)
            .build()?;
        let movie = server.objects()[0];
        server.admit(movie)?;
        server.run(3)?;
        server.inject(FailureEvent::fail_mid_cycle(server.cycle(), DiskId(5)))?;
        while server.active_streams() > 0 {
            server.step()?;
        }
        let m = server.metrics();
        println!(
            "improved-bandwidth, parity prefetch {:>5}: {} hiccup(s), {} reconstructions",
            prefetch,
            m.total_hiccups(),
            m.reconstructed
        );
    }
    println!(
        "\nSection 4: \"Under lightly loaded conditions, the parity blocks can\n\
         be read during normal operation and the isolated hiccup avoided.\""
    );

    // Everything the three parts did, straight off the registry. The
    // per-disk service-time histograms are elided to keep this readable.
    let mut snap = recorder.snapshot();
    snap.retain(|k| k.name != "disk.service_ms");
    println!(
        "\n== telemetry dashboard (all three parts) ==\n\n{}",
        dashboard::render(&snap)
    );
    Ok(())
}
