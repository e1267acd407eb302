//! End-to-end integration tests: every scheme, with verified synthetic
//! data, through failures, repairs, and the failure patterns that define
//! each scheme's limits (Section 5's "what pattern of failures the system
//! can withstand").

use ft_media_server::disk::DiskId;
use ft_media_server::layout::BandwidthClass;
use ft_media_server::sched::{SchemeScheduler, TransitionPolicy};
use ft_media_server::sim::{DataMode, FailureEvent};
use ft_media_server::telemetry::{Level, Recorder};
use ft_media_server::{MultimediaServer, Scheme, ServerBuilder, ServerError};

/// Inject a cycle-boundary failure effective now.
fn fail_now(
    s: &mut MultimediaServer,
    disk: u32,
) -> Result<ft_media_server::sched::FailureReport, ServerError> {
    s.inject(FailureEvent::fail(s.cycle(), DiskId(disk)))
}

fn server(scheme: Scheme, disks: usize, c: usize) -> MultimediaServer {
    ServerBuilder::new(scheme)
        .disks(disks)
        .parity_group(c)
        .movie("feature", 1.0, BandwidthClass::Mpeg1)
        .movie("short", 0.3, BandwidthClass::Mpeg1)
        .data_mode(DataMode::Verified { track_bytes: 128 })
        .build()
        .expect("valid configuration")
}

#[test]
fn all_schemes_play_concurrent_movies_with_byte_verification() {
    for scheme in Scheme::ALL {
        let disks = if scheme == Scheme::ImprovedBandwidth {
            8
        } else {
            10
        };
        let mut s = server(scheme, disks, 5);
        let (a, b) = (s.objects()[0], s.objects()[1]);
        s.admit(a).unwrap();
        s.admit(b).unwrap();
        s.run(3).unwrap();
        s.admit(a).unwrap(); // a second viewer of the same movie
        while s.active_streams() > 0 {
            s.step().unwrap();
        }
        let m = s.metrics();
        assert_eq!(m.streams_finished, 3, "{scheme:?}");
        assert_eq!(m.total_hiccups(), 0, "{scheme:?}");
        assert_eq!(m.delivered, m.verified, "{scheme:?}: every byte checked");
        // feature = 225 tracks, short = 68 tracks (MPEG-1, 50 KB tracks).
        assert_eq!(m.delivered, 225 * 2 + 68, "{scheme:?}");
    }
}

#[test]
fn failure_and_repair_cycle_leaves_no_residue() {
    for scheme in Scheme::ALL {
        let disks = if scheme == Scheme::ImprovedBandwidth {
            8
        } else {
            10
        };
        let mut s = server(scheme, disks, 5);
        let movie = s.objects()[0];
        s.admit(movie).unwrap();
        s.run(5).unwrap();
        fail_now(&mut s, 2).unwrap();
        s.run(20).unwrap();
        s.repair_disk(DiskId(2)).unwrap();
        while s.active_streams() > 0 {
            s.step().unwrap();
        }
        let m = s.metrics();
        assert_eq!(m.streams_finished, 1, "{scheme:?}");
        // After the stream ends, no buffers may remain charged.
        assert_eq!(
            s.simulator().scheduler().buffer_in_use(),
            0,
            "{scheme:?}: buffer leak"
        );
        assert_eq!(m.catastrophes, 0, "{scheme:?}");
        assert_eq!(m.delivered, m.verified, "{scheme:?}");
    }
}

#[test]
fn clustered_schemes_tolerate_one_failure_per_cluster() {
    // "a Streaming RAID or disk-at-a-time system with K clusters can
    // withstand up to K failures, as long as there is no more than one
    // failure per cluster."
    for scheme in [Scheme::StreamingRaid, Scheme::StaggeredGroup] {
        let mut s = server(scheme, 10, 5);
        let movie = s.objects()[0];
        s.admit(movie).unwrap();
        let r1 = fail_now(&mut s, 0).unwrap(); // cluster 0
        let r2 = fail_now(&mut s, 7).unwrap(); // cluster 1
        assert!(!r1.catastrophic && !r2.catastrophic, "{scheme:?}");
        while s.active_streams() > 0 {
            s.step().unwrap();
        }
        let m = s.metrics();
        assert_eq!(m.total_hiccups(), 0, "{scheme:?}");
        assert!(m.reconstructed > 0, "{scheme:?}");
        assert_eq!(m.delivered, m.verified, "{scheme:?}");
    }
}

#[test]
fn second_failure_in_one_cluster_is_catastrophic_for_clustered() {
    for scheme in [
        Scheme::StreamingRaid,
        Scheme::StaggeredGroup,
        Scheme::NonClustered,
    ] {
        let mut s = server(scheme, 10, 5);
        let movie = s.objects()[0];
        s.admit(movie).unwrap();
        assert!(!fail_now(&mut s, 0).unwrap().catastrophic, "{scheme:?}");
        let err = fail_now(&mut s, 3).unwrap_err();
        assert!(
            matches!(err, ServerError::DataLoss { tracks } if tracks > 0),
            "{scheme:?}: {err}"
        );
        assert_eq!(s.metrics().catastrophes, 1, "{scheme:?}");
    }
}

#[test]
fn improved_bandwidth_is_catastrophic_on_adjacent_clusters() {
    // "In the improved bandwidth scheme, a failure in each of two
    // adjacent clusters causes data to be lost."
    let mut s = server(Scheme::ImprovedBandwidth, 12, 5); // 3 clusters of 4
    assert!(!fail_now(&mut s, 0).unwrap().catastrophic); // cluster 0
    let err = fail_now(&mut s, 5).unwrap_err(); // cluster 1: adjacent
    assert!(
        matches!(err, ServerError::DataLoss { tracks } if tracks > 0),
        "{err}"
    );
}

#[test]
fn improved_bandwidth_tolerates_non_adjacent_failures() {
    // With K clusters it "can possibly withstand up to K/2 failures" —
    // alternating clusters stay safe. 16 disks = 4 clusters of 4.
    let mut s = server(Scheme::ImprovedBandwidth, 16, 5);
    let movie = s.objects()[0];
    s.admit(movie).unwrap();
    assert!(!fail_now(&mut s, 0).unwrap().catastrophic); // cluster 0
    assert!(!fail_now(&mut s, 9).unwrap().catastrophic); // cluster 2
    while s.active_streams() > 0 {
        s.step().unwrap();
    }
    let m = s.metrics();
    assert_eq!(m.total_hiccups(), 0);
    assert!(m.reconstructed > 0);
    assert_eq!(m.delivered, m.verified);
}

/// K_NC = 1 buffer server, failures in two different clusters: the
/// second degraded cluster finds no server and its streams are dropped —
/// the Eq. 6 degradation-of-service event. Returns the server after the
/// second failure.
fn exhaust_nc_buffer_servers() -> MultimediaServer {
    let mut s = ServerBuilder::new(Scheme::NonClustered)
        .disks(10)
        .parity_group(5)
        .buffer_servers(1)
        .movie("feature", 1.0, BandwidthClass::Mpeg1)
        .build()
        .unwrap();
    let movie = s.objects()[0];
    s.admit(movie).unwrap();
    s.admit(movie).unwrap();
    s.run(6).unwrap();
    let r1 = fail_now(&mut s, 1).unwrap(); // cluster 0 -> server attached
    assert!(r1.dropped_streams.is_empty());
    let r2 = fail_now(&mut s, 6).unwrap(); // cluster 1 -> no server left
    assert!(
        !r2.dropped_streams.is_empty(),
        "second degraded cluster must shed streams"
    );
    s
}

#[test]
fn nonclustered_buffer_server_exhaustion_degrades_service() {
    let s = exhaust_nc_buffer_servers();
    assert!(s.metrics().service_degradations > 0);
}

#[test]
fn dropped_streams_reach_the_hiccup_series() {
    let recorder = Recorder::new(Level::Info);
    let _guard = recorder.install();
    let mut s = exhaust_nc_buffer_servers();
    let hiccups = || recorder.snapshot().counter_total("sim.hiccups");
    assert!(s.metrics().service_degradations > 0);
    assert_eq!(hiccups(), s.metrics().total_hiccups());
    s.run(4).unwrap();
    assert_eq!(hiccups(), s.metrics().total_hiccups());
}

#[test]
fn nc_policies_agree_on_steady_state_but_not_transition() {
    // Same failure, same movie: the delayed policy never loses more than
    // the simple one, and both recover to hiccup-free degraded mode.
    let mut losses = Vec::new();
    for policy in [TransitionPolicy::Simple, TransitionPolicy::Delayed] {
        let mut s = ServerBuilder::new(Scheme::NonClustered)
            .disks(10)
            .parity_group(5)
            .transition_policy(policy)
            .movie("feature", 1.0, BandwidthClass::Mpeg1)
            .data_mode(DataMode::Verified { track_bytes: 128 })
            .build()
            .unwrap();
        let movie = s.objects()[0];
        s.admit(movie).unwrap();
        s.run(6).unwrap();
        fail_now(&mut s, 2).unwrap();
        while s.active_streams() > 0 {
            s.step().unwrap();
        }
        let m = s.metrics();
        assert_eq!(m.streams_finished, 1, "{policy:?}");
        assert_eq!(m.delivered, m.verified, "{policy:?}");
        losses.push(m.total_hiccups());
    }
    assert!(
        losses[1] <= losses[0],
        "delayed {} vs simple {}",
        losses[1],
        losses[0]
    );
}

#[test]
fn midcycle_failure_only_hurts_improved_bandwidth() {
    // SR/SG read parity alongside data, so even a mid-cycle failure is
    // masked; IB cannot mask the in-flight cycle (Section 4).
    for scheme in [
        Scheme::StreamingRaid,
        Scheme::StaggeredGroup,
        Scheme::ImprovedBandwidth,
    ] {
        let disks = if scheme == Scheme::ImprovedBandwidth {
            8
        } else {
            10
        };
        let mut s = server(scheme, disks, 5);
        let movie = s.objects()[0];
        s.admit(movie).unwrap();
        s.run(4).unwrap();
        s.inject(FailureEvent::fail_mid_cycle(s.cycle(), DiskId(1)))
            .unwrap();
        while s.active_streams() > 0 {
            s.step().unwrap();
        }
        let m = s.metrics();
        match scheme {
            Scheme::ImprovedBandwidth => {
                assert_eq!(m.hiccups_mid_cycle, 1, "{scheme:?}");
            }
            _ => assert_eq!(m.total_hiccups(), 0, "{scheme:?}"),
        }
    }
}
