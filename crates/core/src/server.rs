//! The multimedia-server facade.

use crate::any::AnyScheduler;
use crate::error::ServerError;
use crate::library::Librarian;
use mms_disk::DiskId;
use mms_layout::{CatalogError, MediaObject, ObjectId};
use mms_sched::{CycleConfig, FailureReport, SchemeKind, SchemeScheduler, StreamId, StreamInfo};
use mms_sim::{
    CycleReport, FailureEvent, Metrics, RebuildSource, SessionEngine, Simulator, StepMode,
};
use rand::Rng;

/// A fault-tolerant multimedia on-demand server (Figure 1 of the paper,
/// minus the network): a disk farm, a parity scheme, cycle-based stream
/// scheduling, and failure handling — driven in simulated time.
#[derive(Debug)]
pub struct MultimediaServer {
    sim: Simulator<AnyScheduler>,
    objects: Vec<ObjectId>,
    librarian: Librarian,
    /// Last cycle each resident object was admitted (for LRU purging).
    last_use: std::collections::BTreeMap<ObjectId, u64>,
}

impl MultimediaServer {
    pub(crate) fn from_parts(sim: Simulator<AnyScheduler>, objects: Vec<ObjectId>) -> Self {
        let last_use = objects.iter().map(|&o| (o, 0)).collect();
        MultimediaServer {
            sim,
            objects,
            librarian: Librarian::new(1),
            last_use,
        }
    }

    /// The configured scheme.
    #[must_use]
    pub fn scheme(&self) -> SchemeKind {
        self.sim.scheduler().scheme()
    }

    /// The cycle configuration (length, slots, `k`, `k'`).
    #[must_use]
    pub fn cycle_config(&self) -> &CycleConfig {
        self.sim.scheduler().config()
    }

    /// Registered objects, in registration order.
    #[must_use]
    pub fn objects(&self) -> &[ObjectId] {
        &self.objects
    }

    /// Begin delivering `object` to a new viewer.
    pub fn admit(&mut self, object: ObjectId) -> Result<StreamId, ServerError> {
        let id = self.sim.admit(object)?;
        let cycle = self.sim.cycle();
        self.last_use.insert(object, cycle);
        Ok(id)
    }

    /// The current cycle number (cycles simulated so far).
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.sim.cycle()
    }

    /// Maximum concurrent streams the scheme admits.
    #[must_use]
    pub fn stream_capacity(&self) -> usize {
        self.sim.scheduler().stream_capacity()
    }

    /// Active streams right now.
    #[must_use]
    pub fn active_streams(&self) -> usize {
        self.sim.scheduler().active_streams()
    }

    /// Snapshot of one stream.
    #[must_use]
    pub fn stream_info(&self, id: StreamId) -> Option<StreamInfo> {
        self.sim.scheduler().stream_info(id)
    }

    /// Simulate one delivery cycle (advancing any tertiary staging by one
    /// tape cycle first).
    pub fn step(&mut self) -> Result<CycleReport, ServerError> {
        let cycle = self.sim.cycle();
        let (scheduler, oracle) = self.sim.scheduler_and_oracle();
        let mut placed_meta: Option<(ObjectId, u64)> = None;
        // lint:allow(hot-path-alloc): tertiary staging completes at tape speed — a per-object event
        let placed = self.librarian.advance(|object| {
            let meta = (object.id, object.tracks);
            // lint:allow(hot-path-alloc): object registration happens once per staged object
            match scheduler.register_object(object) {
                Ok(()) => {
                    placed_meta = Some(meta);
                    true
                }
                Err(_) => false,
            }
        });
        if let Some((id, tracks)) = placed_meta {
            if let Some(oracle) = oracle {
                oracle.insert_object(id, tracks);
            }
            self.objects.push(id);
            self.last_use.insert(id, cycle);
        }
        debug_assert_eq!(placed.is_some(), placed_meta.is_some());
        Ok(self.sim.step()?)
    }

    /// Simulate `cycles` cycles. Tertiary staging advances only through
    /// [`step`](Self::step), so the run steps while the librarian has
    /// queued work and hands the remaining cycles to the simulator.
    pub fn run(&mut self, cycles: u64) -> Result<(), ServerError> {
        let mut left = cycles;
        while left > 0 && !self.librarian.queue().is_empty() {
            self.step()?;
            left -= 1;
        }
        Ok(self.sim.run(left)?)
    }

    /// End a viewer's stream early (they stopped watching). Buffered
    /// groups drain and the stream retires at the next delivery
    /// boundary; returns `false` if the stream is not active.
    pub fn release(&mut self, id: StreamId) -> bool {
        self.sim.release(id)
    }

    /// Simulate `cycles` cycles under a [`SessionEngine`]'s full session
    /// lifecycle — bursty arrivals, VBR holds, abandonment, and the
    /// configured Reject/Degrade/Queue admission policy. Counters and
    /// admission-wait percentiles accumulate in
    /// [`SessionEngine::stats`].
    pub fn run_sessions<R: Rng + ?Sized>(
        &mut self,
        cycles: u64,
        engine: &mut SessionEngine,
        rng: &mut R,
    ) -> Result<(), ServerError> {
        Ok(self.sim.run_sessions(cycles, engine, rng)?)
    }

    /// Inject one failure or repair event — the single entry point for
    /// the fault surface (build events with [`FailureEvent::fail`],
    /// [`FailureEvent::fail_mid_cycle`], [`FailureEvent::repair`]).
    ///
    /// An event dated after the current [`cycle`](Self::cycle) is queued
    /// and fires during [`step`](Self::step); the report is then empty
    /// and scheduled outcomes land in [`metrics`](Self::metrics). An
    /// event due now is applied immediately and its
    /// [`FailureReport`] returned.
    ///
    /// A failure that makes data unrecoverable — a second fault inside
    /// an already-degraded parity group's span — returns
    /// [`ServerError::DataLoss`] with the unrecoverable track count.
    /// The failure is still applied (the disk is down and the scheduler
    /// is in catastrophic mode); the error is the typed verdict, never
    /// a panic.
    pub fn inject(&mut self, event: FailureEvent) -> Result<FailureReport, ServerError> {
        if event.cycle() > self.sim.cycle() {
            self.sim.push_failure(event);
            return Ok(FailureReport::default());
        }
        match event {
            FailureEvent::Fail {
                disk, mid_cycle, ..
            } => {
                let report = self.sim.fail_disk_now(disk, mid_cycle)?;
                if report.catastrophic {
                    mms_telemetry::event!(
                        mms_telemetry::Level::Error,
                        "data_loss",
                        cycle = self.sim.cycle(),
                        disk = disk.0,
                        tracks = report.data_loss_tracks,
                    );
                    return Err(ServerError::DataLoss {
                        tracks: report.data_loss_tracks,
                    });
                }
                Ok(report)
            }
            FailureEvent::Repair { disk, .. } => {
                self.sim.repair_disk_now(disk)?;
                Ok(FailureReport::default())
            }
        }
    }

    /// Repair a disk effective next cycle.
    pub fn repair_disk(&mut self, disk: DiskId) -> Result<(), ServerError> {
        Ok(self.sim.repair_disk_now(disk)?)
    }

    /// Begin rebuilding a failed disk from parity onto a spare. The
    /// rebuild runs in the background, consuming only the read slots the
    /// delivery schedule leaves idle on the surviving source disks;
    /// streams are never slowed. On completion the disk returns to
    /// service automatically.
    pub fn start_parity_rebuild(&mut self, disk: DiskId) -> Result<(), ServerError> {
        let (sources, tracks) = self.sim.scheduler().rebuild_spec(disk);
        Ok(self
            .sim
            .start_rebuild(disk, tracks, RebuildSource::Parity { sources })?)
    }

    /// Begin rebuilding a failed disk from tertiary storage at
    /// `tracks_per_cycle` (tape bandwidth / track size) — the slow path
    /// after a catastrophic failure ("many tapes may need to be
    /// referenced and that is very time consuming").
    pub fn start_tertiary_rebuild(
        &mut self,
        disk: DiskId,
        tracks_per_cycle: u64,
    ) -> Result<(), ServerError> {
        let (_, tracks) = self.sim.scheduler().rebuild_spec(disk);
        Ok(self
            .sim
            .start_rebuild(disk, tracks, RebuildSource::Tertiary { tracks_per_cycle })?)
    }

    /// Request that an object be staged from tertiary storage onto disk.
    /// It becomes admittable once fully resident (watch `objects()` or
    /// [`MultimediaServer::is_resident`]). Staging runs at tape speed, one
    /// object at a time, and never competes with delivery bandwidth (the
    /// paper's tertiary store is a separate device).
    pub fn request_from_tertiary(&mut self, object: MediaObject) -> Result<(), ServerError> {
        if self.objects.contains(&object.id) || self.librarian.is_staging(object.id) {
            return Err(CatalogError::Duplicate { id: object.id }.into());
        }
        self.librarian.request(object);
        Ok(())
    }

    /// Tape bandwidth in tracks per cycle (default 1 — the paper's ~4 Mb/s
    /// tape against a 50 KB track at MPEG-1 cycle length).
    pub fn set_tape_rate(&mut self, tracks_per_cycle: u64) {
        self.librarian = Librarian::new(tracks_per_cycle);
    }

    /// Whether an object is resident on disk (admittable).
    #[must_use]
    pub fn is_resident(&self, id: ObjectId) -> bool {
        self.objects.contains(&id)
    }

    /// The staging queue (front job first).
    #[must_use]
    pub fn staging(&self) -> &Librarian {
        &self.librarian
    }

    /// Purge a resident object to reclaim disk space; refuses while any
    /// stream is still delivering it.
    pub fn purge_object(&mut self, id: ObjectId) -> Result<(), ServerError> {
        let (scheduler, oracle) = self.sim.scheduler_and_oracle();
        scheduler.retire_object(id)?;
        if let Some(oracle) = oracle {
            oracle.remove_object(id);
        }
        self.objects.retain(|&o| o != id);
        self.last_use.remove(&id);
        // A blocked staging job may now fit.
        self.librarian.unblock();
        Ok(())
    }

    /// Purge the least-recently-admitted object with no active viewers.
    /// Returns the victim, or `None` if every resident object is busy.
    pub fn purge_lru(&mut self) -> Option<ObjectId> {
        let mut candidates: Vec<(u64, ObjectId)> = self
            .objects
            .iter()
            .map(|&o| (self.last_use.get(&o).copied().unwrap_or(0), o))
            .collect();
        candidates.sort_unstable();
        candidates
            .into_iter()
            .map(|(_, id)| id)
            .find(|&id| self.purge_object(id).is_ok())
    }

    /// How [`run`](Self::run) and [`run_sessions`](Self::run_sessions)
    /// advance simulated time.
    /// [`StepMode::EventHorizon`] fast-forwards provably quiescent
    /// stretches with observably identical results; see
    /// [`Simulator::advance_quiescent`].
    pub fn set_step_mode(&mut self, mode: StepMode) {
        self.sim.set_step_mode(mode);
    }

    /// The configured [`StepMode`].
    #[must_use]
    pub fn step_mode(&self) -> StepMode {
        self.sim.step_mode()
    }

    /// Cumulative metrics.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        self.sim.metrics()
    }

    /// The underlying simulator (trace retention, disk inspection).
    #[must_use]
    pub fn simulator(&self) -> &Simulator<AnyScheduler> {
        &self.sim
    }

    /// Mutable access to the simulator for advanced drivers.
    pub fn simulator_mut(&mut self) -> &mut Simulator<AnyScheduler> {
        &mut self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{Scheme, ServerBuilder};
    use mms_layout::BandwidthClass;

    fn server(scheme: Scheme) -> MultimediaServer {
        let disks = if scheme == Scheme::ImprovedBandwidth {
            8
        } else {
            10
        };
        ServerBuilder::new(scheme)
            .disks(disks)
            .parity_group(5)
            .movie("short", 0.5, BandwidthClass::Mpeg1)
            .build()
            .unwrap()
    }

    #[test]
    fn every_scheme_plays_a_movie_to_completion() {
        for scheme in Scheme::ALL {
            let mut s = server(scheme);
            let movie = s.objects()[0];
            let id = s.admit(movie).unwrap();
            assert_eq!(s.active_streams(), 1);
            // 0.5 min MPEG-1 at 50 KB tracks = 113 tracks.
            s.run(200).unwrap();
            assert_eq!(s.active_streams(), 0, "{scheme:?}");
            assert_eq!(s.metrics().streams_finished, 1, "{scheme:?}");
            assert_eq!(s.metrics().total_hiccups(), 0, "{scheme:?}");
            assert!(s.metrics().delivered >= 113, "{scheme:?}");
            assert!(s.stream_info(id).is_none());
        }
    }

    #[test]
    fn every_scheme_masks_a_single_failure_after_transition() {
        // SR, SG, and IB mask a single disk failure with zero hiccups;
        // NC loses only its bounded transition set.
        for scheme in Scheme::ALL {
            let mut s = server(scheme);
            let movie = s.objects()[0];
            s.admit(movie).unwrap();
            s.run(3).unwrap();
            s.inject(FailureEvent::fail(s.cycle(), DiskId(1))).unwrap();
            s.run(200).unwrap();
            let m = s.metrics();
            assert_eq!(m.streams_finished, 1, "{scheme:?}");
            match scheme {
                Scheme::NonClustered => {
                    assert!(m.total_hiccups() <= 2, "{scheme:?}: {}", m.total_hiccups());
                }
                _ => assert_eq!(m.total_hiccups(), 0, "{scheme:?}"),
            }
            assert!(m.reconstructed > 0, "{scheme:?}");
            assert_eq!(m.catastrophes, 0, "{scheme:?}");
        }
    }

    #[test]
    fn sessions_churn_on_every_scheme_without_hiccups() {
        use mms_sim::{AdmissionPolicy, ArrivalProcess, SplitMix64};
        for scheme in Scheme::ALL {
            let mut s = server(scheme);
            let movie = s.objects()[0];
            let mut engine = SessionEngine::new(
                vec![(movie, 10)],
                0.0,
                ArrivalProcess::poisson(2.0),
                AdmissionPolicy::Reject,
            )
            .with_abandonment(0.8);
            let mut rng = SplitMix64::new(5);
            s.run_sessions(150, &mut engine, &mut rng).unwrap();
            let stats = engine.stats();
            assert!(stats.admitted > 50, "{scheme:?}: {stats:?}");
            assert!(stats.released_early > 0, "{scheme:?}: {stats:?}");
            // Ending a session early is not a service failure: the
            // stream drains its buffered groups and retires cleanly.
            assert_eq!(s.metrics().total_hiccups(), 0, "{scheme:?}");
            assert_eq!(s.metrics().catastrophes, 0, "{scheme:?}");
        }
    }

    #[test]
    fn release_is_idempotent_and_rejects_unknown_streams() {
        let mut s = server(Scheme::StreamingRaid);
        let movie = s.objects()[0];
        let id = s.admit(movie).unwrap();
        // Nothing read yet: the stream retires immediately.
        assert!(s.release(id));
        assert_eq!(s.active_streams(), 0);
        assert!(!s.release(id), "second release of the same stream");
        assert!(!s.release(StreamId(999)), "never-admitted stream");
        // The freed slot is reusable and plays to completion.
        let id2 = s.admit(movie).unwrap();
        s.run(5).unwrap();
        assert!(s.release(id2), "release mid-flight truncates");
        s.run(40).unwrap();
        assert_eq!(s.active_streams(), 0);
        assert_eq!(s.metrics().total_hiccups(), 0);
    }

    #[test]
    fn metrics_and_capacity_are_exposed() {
        let s = server(Scheme::StreamingRaid);
        assert!(s.stream_capacity() > 0);
        assert_eq!(s.metrics().cycles, 0);
        assert_eq!(s.cycle_config().k, 4);
    }
}
