//! The full Figure-1 storage hierarchy: objects live on tertiary storage,
//! stage onto the disk farm at tape speed, play with parity protection,
//! and get purged (LRU) when the disks fill.

use ft_media_server::layout::{BandwidthClass, CatalogError, MediaObject, ObjectId};
use ft_media_server::sched::RetireError;
use ft_media_server::sim::DataMode;
use ft_media_server::{Scheme, ServerBuilder, ServerError};

fn movie(id: u64, tracks: u64) -> MediaObject {
    MediaObject::new(
        ObjectId(id),
        format!("m{id}"),
        tracks,
        BandwidthClass::Mpeg1,
    )
}

#[test]
fn staged_object_becomes_playable_and_verifies() {
    let mut s = ServerBuilder::new(Scheme::StreamingRaid)
        .disks(10)
        .parity_group(5)
        .object(movie(0, 8))
        .data_mode(DataMode::Verified { track_bytes: 64 })
        .build()
        .unwrap();
    s.set_tape_rate(4);
    s.request_from_tertiary(movie(1, 16)).unwrap();
    assert!(!s.is_resident(ObjectId(1)));
    assert!(s.staging().is_staging(ObjectId(1)));
    // 16 tracks at 4/cycle: resident after 4 cycles.
    for _ in 0..4 {
        s.step().unwrap();
    }
    assert!(s.is_resident(ObjectId(1)));
    // Play the staged movie to completion with byte verification.
    s.admit(ObjectId(1)).unwrap();
    while s.active_streams() > 0 {
        s.step().unwrap();
    }
    let m = s.metrics();
    assert_eq!(m.delivered, 16);
    assert_eq!(m.delivered, m.verified);
}

#[test]
fn run_stages_like_step() {
    let mut s = ServerBuilder::new(Scheme::StreamingRaid)
        .disks(10)
        .parity_group(5)
        .object(movie(0, 8))
        .build()
        .unwrap();
    s.set_tape_rate(4);
    s.request_from_tertiary(movie(1, 16)).unwrap();
    // 16 tracks at 4/cycle: resident after 4 cycles, run or stepped.
    s.run(4).unwrap();
    assert!(s.is_resident(ObjectId(1)));
    assert!(!s.staging().is_staging(ObjectId(1)));
    assert_eq!(s.cycle(), 4);
    s.run(3).unwrap();
    assert_eq!(s.cycle(), 7, "the cycles left after staging still run");
}

#[test]
fn duplicate_requests_are_rejected() {
    let mut s = ServerBuilder::new(Scheme::StreamingRaid)
        .object(movie(0, 8))
        .build()
        .unwrap();
    // Already resident.
    assert!(matches!(
        s.request_from_tertiary(movie(0, 8)),
        Err(ServerError::Catalog(CatalogError::Duplicate { .. }))
    ));
    // Already queued.
    s.request_from_tertiary(movie(1, 8)).unwrap();
    assert!(matches!(
        s.request_from_tertiary(movie(1, 8)),
        Err(ServerError::Catalog(CatalogError::Duplicate { .. }))
    ));
}

#[test]
fn purge_refuses_objects_with_viewers() {
    let mut s = ServerBuilder::new(Scheme::StreamingRaid)
        .object(movie(0, 40))
        .build()
        .unwrap();
    s.admit(ObjectId(0)).unwrap();
    assert!(matches!(
        s.purge_object(ObjectId(0)),
        Err(ServerError::Retire(RetireError::InUse { streams: 1, .. }))
    ));
    while s.active_streams() > 0 {
        s.step().unwrap();
    }
    s.purge_object(ObjectId(0)).unwrap();
    assert!(!s.is_resident(ObjectId(0)));
    assert!(matches!(
        s.purge_object(ObjectId(0)),
        Err(ServerError::Retire(RetireError::NotFound { .. }))
    ));
}

#[test]
fn full_disks_block_staging_until_lru_purge() {
    // Tiny disks: capacity 10 tracks each. Two 32-track objects fill the
    // farm (each takes 2 tracks/disk × C/(C−1)); a third must wait until
    // one is purged.
    let params = ft_media_server::disk::DiskParams {
        capacity: ft_media_server::disk::Size::from_kb(50.0 * 10.0),
        ..ft_media_server::disk::DiskParams::paper_table1()
    };
    let mut s = ServerBuilder::new(Scheme::StreamingRaid)
        .disks(10)
        .parity_group(5)
        .disk_params(params)
        .object(movie(0, 32))
        .object(movie(1, 32))
        .data_mode(DataMode::MetadataOnly)
        .build()
        .unwrap();
    s.set_tape_rate(100);
    s.request_from_tertiary(movie(2, 32)).unwrap();
    // The tape finishes immediately but placement fails: blocked.
    for _ in 0..3 {
        s.step().unwrap();
    }
    assert!(!s.is_resident(ObjectId(2)));
    assert!(s.staging().queue()[0].blocked);

    // Use object 1 so object 0 is the LRU victim.
    s.admit(ObjectId(1)).unwrap();
    let victim = s.purge_lru().expect("something must be purgeable");
    assert_eq!(victim, ObjectId(0), "LRU victim is the never-used object");
    // Unblocked: the staged object lands on the next step.
    s.step().unwrap();
    assert!(s.is_resident(ObjectId(2)));
    // And it is immediately playable.
    s.admit(ObjectId(2)).unwrap();
    for _ in 0..40 {
        s.step().unwrap();
    }
    assert_eq!(s.metrics().total_hiccups(), 0);
    assert_eq!(s.metrics().streams_finished, 2);
}

#[test]
fn purge_lru_skips_busy_objects() {
    let mut s = ServerBuilder::new(Scheme::StreamingRaid)
        .object(movie(0, 40))
        .object(movie(1, 40))
        .build()
        .unwrap();
    s.admit(ObjectId(0)).unwrap();
    // Object 0 is busy; LRU must pick object 1 even though 0 is older.
    assert_eq!(s.purge_lru(), Some(ObjectId(1)));
    // Only the busy object remains: nothing purgeable.
    assert_eq!(s.purge_lru(), None);
}
