//! The cycle-driven simulator.

use crate::failure::{FailureEvent, FailureSchedule};
use crate::metrics::{CycleReport, Metrics};
use crate::rebuild::{Rebuild, RebuildManager, RebuildSource};
use crate::verify::BlockOracle;
use crate::workload::SessionEngine;
use mms_disk::{DiskArray, DiskError, DiskParams, Time};
use mms_layout::ObjectId;
use mms_sched::{
    AdmissionError, CyclePlan, FailureReport, LossReason, PlanStability, SchemeScheduler,
    SteadyCycle, StreamId,
};
use mms_telemetry::{counter, event, gauge, span, Level};
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;

/// Whether track contents are materialized and verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataMode {
    /// Materialize synthetic bytes and verify every delivery, rebuilding
    /// reconstructed blocks through the XOR codec. Catches any scheduler
    /// bug that would deliver the wrong block.
    Verified {
        /// Bytes per track in the synthetic universe (real tracks are
        /// 50 KB; smaller values keep long runs fast without changing
        /// the logic exercised).
        track_bytes: usize,
    },
    /// Skip content; simulate scheduling and disk occupancy only.
    MetadataOnly,
}

/// How the [`Simulator`] run drivers advance simulated time.
///
/// The mode decides only whether quiescent windows are skipped. Whether
/// a step itemises its plan is decided by its readers: with no oracle
/// and no trace retention still filling, a healthy step in either mode
/// plans only the streams at an edge of their lives and counts the rest
/// ([`CyclePlan`]'s counted plans).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepMode {
    /// Execute every cycle with a full [`Simulator::step`]: the
    /// reference the other mode is held to.
    #[default]
    CycleByCycle,
    /// Fast-forward provably quiescent stretches in closed form (see
    /// [`Simulator::advance_quiescent`]), stepping cycle by cycle
    /// everywhere else. Observably identical to
    /// [`StepMode::CycleByCycle`]: metrics, per-disk statistics, hiccup
    /// counts, session statistics, and the caller's RNG stream all
    /// match bit for bit; only per-cycle telemetry is collapsed to
    /// stretch boundaries (and `Debug`-level collection or byte
    /// verification disables the fast-forward entirely, so traces stay
    /// complete and every delivery meets the oracle).
    EventHorizon,
}

/// Object lengths registry, used by the oracle and end detection.
#[derive(Debug, Clone, Default)]
pub struct ObjectDirectory {
    tracks: BTreeMap<ObjectId, u64>,
    blocks_per_group: u32,
}

impl ObjectDirectory {
    /// Build from `(object, track-count)` pairs and the layout's
    /// blocks-per-group.
    #[must_use]
    pub fn new(entries: impl IntoIterator<Item = (ObjectId, u64)>, blocks_per_group: u32) -> Self {
        ObjectDirectory {
            tracks: entries.into_iter().collect(),
            blocks_per_group,
        }
    }
}

/// Simulation errors: a scheduler planned something the hardware cannot
/// do (these are bugs surfaced by the simulator, not recoverable runtime
/// conditions — which is exactly why the simulator exists).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A planned read failed at the disk layer (down disk / overload).
    Disk(DiskError),
    /// An admission was rejected.
    Admission(AdmissionError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Disk(e) => write!(f, "disk error: {e}"),
            SimError::Admission(e) => write!(f, "admission error: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<DiskError> for SimError {
    fn from(e: DiskError) -> Self {
        SimError::Disk(e)
    }
}

/// Drives a scheme scheduler against a real disk array, cycle by cycle.
#[derive(Debug)]
pub struct Simulator<S: SchemeScheduler> {
    scheduler: S,
    disks: DiskArray,
    oracle: Option<BlockOracle>,
    failures: FailureSchedule,
    metrics: Metrics,
    rebuilds: RebuildManager,
    cycle: u64,
    /// Plans retained for trace rendering (bounded).
    trace: Vec<CyclePlan>,
    trace_limit: usize,
    /// Reused cycle-plan storage: reset and refilled every step, so the
    /// steady-state loop rebuilds no per-cycle containers.
    plan: CyclePlan,
    /// Reused scratch for the rebuild reads issued this cycle.
    rebuild_reads: Vec<(mms_disk::DiskId, usize)>,
    /// Read slots a disk has per cycle, of which a rebuild may spend
    /// those the plan leaves idle.
    slots_per_cycle: usize,
    /// How the run drivers advance time.
    step_mode: StepMode,
    /// Reused storage for the cycles of one plan rotation as the
    /// scheduler states them while
    /// [`advance_quiescent`](Self::advance_quiescent) skips them.
    steady: Vec<SteadyCycle>,
    /// What the `sim.*` series have been told so far.
    published: Published,
}

/// The [`Metrics`] counts the `sim.*` telemetry series are derived
/// from, as of one publish.
#[derive(Debug, Clone, Copy)]
struct Published {
    cycles: u64,
    tracks_read: u64,
    delivered: u64,
    reconstructed: u64,
    rebuild_reads: u64,
    verified: u64,
    degraded_cluster_cycles: u64,
    hiccups: [(LossReason, u64); 4],
}

impl Published {
    fn of(m: &Metrics) -> Self {
        Published {
            cycles: m.cycles,
            tracks_read: m.tracks_read,
            delivered: m.delivered,
            reconstructed: m.reconstructed,
            rebuild_reads: m.rebuild_reads,
            verified: m.verified,
            degraded_cluster_cycles: m.degraded_cluster_cycles,
            hiccups: m.hiccups_by_reason(),
        }
    }
}

/// The call a [`Simulator::publish`] follows.
#[derive(Debug, Clone, Copy)]
enum Publish {
    /// A full step, ending at this buffer occupancy.
    Step(usize),
    /// A skipped quiescent stretch, ending at this buffer occupancy.
    Skip(usize),
    /// A failure injected between steps.
    Fault,
}

impl<S: SchemeScheduler> Simulator<S> {
    /// Build a simulator over `disk_count` drives of `disk_params`.
    #[must_use]
    pub fn new(
        scheduler: S,
        disk_params: DiskParams,
        disk_count: usize,
        mode: DataMode,
        directory: ObjectDirectory,
    ) -> Self {
        let oracle = match mode {
            DataMode::Verified { track_bytes } => Some(BlockOracle::new(
                directory.tracks.clone(),
                directory.blocks_per_group,
                track_bytes,
            )),
            DataMode::MetadataOnly => None,
        };
        let slots_per_cycle = disk_params.slots_per_cycle(scheduler.config().t_cyc());
        Simulator {
            scheduler,
            disks: DiskArray::new(disk_count, disk_params),
            oracle,
            failures: FailureSchedule::none(),
            metrics: Metrics::default(),
            rebuilds: RebuildManager::new(),
            cycle: 0,
            trace: Vec::new(),
            trace_limit: 0,
            plan: CyclePlan::empty(0),
            rebuild_reads: Vec::new(),
            slots_per_cycle,
            step_mode: StepMode::default(),
            steady: Vec::new(),
            published: Published::of(&Metrics::default()),
        }
    }

    /// Choose how the run drivers ([`run`](Self::run),
    /// [`run_sessions`](Self::run_sessions)) advance time. Default:
    /// [`StepMode::CycleByCycle`].
    pub fn set_step_mode(&mut self, mode: StepMode) {
        self.step_mode = mode;
    }

    /// The configured step mode.
    #[must_use]
    pub fn step_mode(&self) -> StepMode {
        self.step_mode
    }

    /// Install a failure/repair schedule.
    pub fn set_failures(&mut self, failures: FailureSchedule) {
        self.failures = failures;
    }

    /// Queue one more failure/repair event on the installed schedule
    /// (an event dated at or before the current cycle fires on the next
    /// [`step`](Self::step)).
    pub fn push_failure(&mut self, event: FailureEvent) {
        self.failures.push(event);
    }

    /// Retain up to `n` cycle plans for trace rendering.
    pub fn keep_trace(&mut self, n: usize) {
        self.trace_limit = n;
    }

    /// The retained plans.
    #[must_use]
    pub fn trace(&self) -> &[CyclePlan] {
        &self.trace
    }

    /// The scheduler (for scheme-specific inspection).
    #[must_use]
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// The disk array.
    #[must_use]
    pub fn disks(&self) -> &DiskArray {
        &self.disks
    }

    /// Cumulative metrics.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The current (next-unplanned) cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Admit a stream for `object` starting at the next cycle.
    ///
    /// Emits an `Info` "admit" event carrying the stream id, so a flight
    /// recording can anchor the stream's causal timeline (admit →
    /// deliveries → hiccups → release). A [`SessionEngine`]'s
    /// admissions emit the same event.
    pub fn admit(&mut self, object: ObjectId) -> Result<StreamId, AdmissionError> {
        admit_stream(&mut self.scheduler, object, self.cycle)
    }

    /// Fail a disk effective at the next cycle, returning the
    /// scheduler's failure report.
    pub fn fail_disk_now(
        &mut self,
        disk: mms_disk::DiskId,
        mid_cycle: bool,
    ) -> Result<FailureReport, SimError> {
        let fail = FailureEvent::Fail {
            cycle: self.cycle,
            disk,
            mid_cycle,
        };
        let report = self.apply_fault(fail, self.cycle)?;
        self.publish(Publish::Fault);
        Ok(report)
    }

    /// Repair a disk effective at the next cycle.
    pub fn repair_disk_now(&mut self, disk: mms_disk::DiskId) -> Result<(), SimError> {
        self.apply_fault(FailureEvent::repair(self.cycle, disk), self.cycle)?;
        Ok(())
    }

    /// Apply a failure or repair effective at `cycle`: the one path for
    /// injected faults and for the scheduled ones [`step`](Self::step)
    /// drains. A repair reports nothing.
    fn apply_fault(&mut self, event: FailureEvent, cycle: u64) -> Result<FailureReport, SimError> {
        match event {
            FailureEvent::Fail {
                disk, mid_cycle, ..
            } => {
                // Simulated wall time of the failure.
                let now = Time::from_secs(self.scheduler.config().t_cyc().as_secs() * cycle as f64);
                self.disks.fail(disk, now)?;
                // lint:allow(hot-path-alloc): failure handling runs once per disk failure, not per cycle
                let report = self.scheduler.on_disk_failure(disk, cycle, mid_cycle);
                if report.catastrophic {
                    self.metrics.catastrophes += 1;
                }
                self.metrics.service_degradations += report.dropped_streams.len() as u64;
                Ok(report)
            }
            FailureEvent::Repair { disk, .. } => {
                self.disks.repair(disk)?;
                self.scheduler.on_disk_repair(disk, cycle);
                Ok(FailureReport::default())
            }
        }
    }

    /// Begin rebuilding a failed disk onto a spare. The disk transitions
    /// to `Rebuilding`; each cycle the rebuild consumes the slots the
    /// delivery schedule leaves idle (parity source) or a fixed tape
    /// rate (tertiary source), and on completion the disk returns to
    /// service and the scheduler leaves degraded mode.
    pub fn start_rebuild(
        &mut self,
        disk: mms_disk::DiskId,
        total_tracks: u64,
        source: RebuildSource,
    ) -> Result<(), SimError> {
        self.disks.disk_mut(disk)?.start_rebuild(Time::from_secs(
            self.scheduler.config().t_cyc().as_secs() * self.cycle as f64,
        ))?;
        self.rebuilds.start(Rebuild {
            disk,
            total_tracks,
            done_tracks: 0,
            source,
        });
        event!(
            Level::Info,
            "rebuild_started",
            cycle = self.cycle,
            disk = disk.0,
            total_tracks = total_tracks,
        );
        Ok(())
    }

    /// In-progress rebuilds.
    #[must_use]
    pub fn rebuilds(&self) -> &RebuildManager {
        &self.rebuilds
    }

    /// Mutable access to the scheduler, paired with the verification
    /// oracle so callers changing the catalog (register/retire objects)
    /// can keep the ground truth in sync.
    pub fn scheduler_and_oracle(&mut self) -> (&mut S, Option<&mut BlockOracle>) {
        (&mut self.scheduler, self.oracle.as_mut())
    }

    /// Simulate one cycle.
    ///
    /// With a telemetry collector installed (see `mms_telemetry`), each
    /// step opens a `Debug` "cycle" span enclosing "plan" / "read" /
    /// "verify" / "deliver" phase spans, emits a `Warn` "hiccup" event
    /// per missed delivery, and publishes the `sim.*` series derived
    /// from [`Metrics`].
    pub fn step(&mut self) -> Result<CycleReport, SimError> {
        let cycle = self.cycle;
        self.cycle += 1;
        let scheme = self.scheduler.scheme().abbrev();
        let _cycle_span = span!(Level::Debug, "cycle", cycle = cycle, scheme = scheme);

        // 1. Apply failure/repair events due now, drained one at a time
        //    so the steady-state loop allocates no per-cycle event list.
        while let Some(event) = self.failures.next_due(cycle) {
            self.apply_fault(event, cycle)?;
        }
        // The clusters out of normal mode while this cycle's plan runs,
        // read before a rebuild that finishes during the cycle ends.
        let degraded_clusters = self.scheduler.degraded_clusters() as u64;

        // 2. Plan and execute the cycle, refilling the reused plan. Only
        //    the oracle and trace retention read its records; without
        //    them a cycle the scheduler can state is counted, whatever
        //    the step mode.
        let t_cyc = self.scheduler.config().t_cyc();
        {
            let _s = span!(Level::Debug, "plan", cycle = cycle);
            self.plan
                .allow_counting(self.oracle.is_none() && self.trace.len() >= self.trace_limit);
            self.scheduler.plan_cycle_into(cycle, &mut self.plan);
        }
        let mut report = CycleReport {
            cycle,
            ..CycleReport::default()
        };
        {
            let _s = span!(Level::Debug, "read", cycle = cycle);
            // Only the disks with reads this cycle, in ascending order;
            // a disk's load is a lookup in the plan's table.
            for (&disk, reads) in &self.plan.reads {
                let tracks = reads.len();
                let time = self.disks.disk_mut(disk)?.read_tracks(tracks, t_cyc)?;
                self.metrics.disk_busy += time;
            }
            report.tracks_read = self.plan.total_reads();
        }

        // 3. Verify deliveries against ground truth through the pooled
        //    zero-allocation oracle path.
        {
            let _s = span!(Level::Debug, "verify", cycle = cycle);
            // The counts are kept by the plan; only the oracle needs the
            // deliveries block by block.
            report.delivered = self.plan.deliveries.len();
            report.reconstructed = self.plan.deliveries.reconstructed();
            if let Some(oracle) = self.oracle.as_mut() {
                for d in self.plan.deliveries.iter() {
                    oracle.verify_delivery(d.addr, d.reconstructed);
                    self.metrics.verified += 1;
                }
            }
            // Scratch-pool health, for Trace-level diagnostics only:
            // metric macros are not level-gated, so the guard keeps
            // default-level JSONL byte-identical with or without pooling.
            if mms_telemetry::enabled(Level::Trace) {
                if let Some(oracle) = &self.oracle {
                    let stats = oracle.pool_stats();
                    gauge!("pool.hit_rate", stats.hit_rate(), scheme = scheme);
                    gauge!("pool.hits", stats.hits as f64, scheme = scheme);
                    gauge!("pool.misses", stats.misses as f64, scheme = scheme);
                    gauge!(
                        "pool.outstanding",
                        stats.outstanding as f64,
                        scheme = scheme
                    );
                }
            }
        }

        // 3b. Advance rebuilds with the slots the schedule left idle.
        if !self.rebuilds.active().is_empty() {
            let slots = self.slots_per_cycle;
            self.rebuild_reads.clear();
            let disks_view = &self.disks;
            let plan = &self.plan;
            let rebuild_reads = &mut self.rebuild_reads;
            let finished_rebuilds = self.rebuilds.advance(
                |d| {
                    if disks_view.is_operational(d) {
                        slots.saturating_sub(plan.load_on(d))
                    } else {
                        0
                    }
                },
                |d, n| rebuild_reads.push((d, n)),
            );
            for &(d, n) in self.rebuild_reads.iter() {
                let t = self.disks.disk_mut(d)?.read_tracks(n, t_cyc)?;
                self.metrics.disk_busy += t;
                self.metrics.rebuild_reads += n as u64;
                counter!("rebuild.idle_slots_spent", n as u64, disk = d.0);
            }
            for d in finished_rebuilds {
                let done = self.disks.disk_mut(d)?.advance_rebuild(1.0)?;
                debug_assert!(done, "rebuild completion restores the disk");
                // This cycle's plan ran degraded: the disk is back from
                // the next one, as for a repair injected between steps.
                self.scheduler.on_disk_repair(d, cycle + 1);
                self.metrics.rebuilds_completed += 1;
            }
            for r in self.rebuilds.active() {
                gauge!("rebuild.progress", r.progress(), disk = r.disk.0);
            }
        }

        // 4. Account hiccups and completions.
        {
            let _s = span!(Level::Debug, "deliver", cycle = cycle);
            for h in &self.plan.hiccups {
                report.hiccups += 1;
                self.metrics.count_hiccup(h.reason);
                event!(
                    Level::Warn,
                    "hiccup",
                    cycle = cycle,
                    stream = h.stream.0,
                    reason = h.reason.as_str()
                );
            }
            report.finished = self.plan.finished.len();
            self.metrics.streams_finished += self.plan.finished.len() as u64;
            report.buffer_in_use = self.scheduler.buffer_in_use();
        }

        self.metrics.cycles += 1;
        self.metrics.tracks_read += report.tracks_read as u64;
        self.metrics.delivered += report.delivered as u64;
        self.metrics.reconstructed += report.reconstructed as u64;
        self.metrics.degraded_cluster_cycles += degraded_clusters;
        self.metrics.buffer_peak = self
            .metrics
            .buffer_peak
            .max(self.scheduler.buffer_high_water());
        self.metrics.buffer_series.push(report.buffer_in_use);

        if self.trace.len() < self.trace_limit {
            // Trace retention is a debugging path; the clone is the one
            // place a retained plan still allocates.
            // lint:allow(hot-path-alloc): trace retention is off unless trace_limit > 0 and bounded by it
            self.trace.push(self.plan.clone());
        }
        self.publish(Publish::Step(report.buffer_in_use));
        Ok(report)
    }

    /// Publish the `sim.*` telemetry series. [`Metrics`] is the record;
    /// every series is derived here, from what it gained since the last
    /// publish, so the two cannot disagree. Runs at the end of every
    /// call that moves the record: a [`step`](Self::step), a skipped
    /// stretch, and a failure injected between steps. A series is
    /// written where the call could move it: the cycle series and the
    /// end-of-cycle `sim.buffer_in_use` by steps and skips,
    /// `sim.reconstructed` and `sim.rebuild_reads` by steps only, and
    /// `sim.verified`, `sim.degraded_cluster_cycles` and each reason's
    /// `sim.hiccups` when they grew.
    fn publish(&mut self, call: Publish) {
        let now = Published::of(&self.metrics);
        let was = std::mem::replace(&mut self.published, now);
        if !mms_telemetry::active() {
            return;
        }
        let scheme = self.scheduler.scheme().abbrev();
        let (ran, stepped) = match call {
            Publish::Step(_) => (true, true),
            Publish::Skip(_) => (true, false),
            Publish::Fault => (false, false),
        };
        for (name, now, was, always) in [
            ("sim.cycles", now.cycles, was.cycles, ran),
            ("sim.tracks_read", now.tracks_read, was.tracks_read, ran),
            ("sim.delivered", now.delivered, was.delivered, ran),
            (
                "sim.reconstructed",
                now.reconstructed,
                was.reconstructed,
                stepped,
            ),
            (
                "sim.rebuild_reads",
                now.rebuild_reads,
                was.rebuild_reads,
                stepped,
            ),
            ("sim.verified", now.verified, was.verified, false),
            (
                "sim.degraded_cluster_cycles",
                now.degraded_cluster_cycles,
                was.degraded_cluster_cycles,
                false,
            ),
        ] {
            if always || now > was {
                counter!(name, now - was, scheme = scheme);
            }
        }
        for ((reason, now), (_, was)) in now.hiccups.into_iter().zip(was.hiccups) {
            if now > was {
                let reason = reason.as_str();
                counter!("sim.hiccups", now - was, scheme = scheme, reason = reason);
            }
        }
        if let Publish::Step(buffer_in_use) | Publish::Skip(buffer_in_use) = call {
            gauge!("sim.buffer_in_use", buffer_in_use as f64, scheme = scheme);
        }
    }

    /// Fast-forward a provably quiescent stretch, ending no later than
    /// `limit`. Returns how many cycles were advanced (0 = nothing was
    /// provably quiescent; the caller should [`step`](Self::step)).
    ///
    /// The scheduler reports via
    /// [`plan_stability`](SchemeScheduler::plan_stability) how many
    /// future cycles are steady-state cycles (only when fully healthy —
    /// degraded stretches always step cycle by cycle), and for each of
    /// them *states* what it does
    /// ([`steady_cycle`](SchemeScheduler::steady_cycle)): tracks read per
    /// disk, tracks delivered, buffer occupancy. Every stated cycle is
    /// applied in closed form, in cycle order and within a cycle in
    /// ascending disk order — the order [`step`](Self::step) charges
    /// in, with the service time `step` would compute, so `disk_busy`
    /// and the per-disk stats accumulate the same f64 sequence and land
    /// bit-for-bit where a per-cycle run puts them. The buffer series
    /// gets one point per cycle, integer metrics advance by sums, and
    /// the scheduler bulk-advances with
    /// [`fast_forward`](SchemeScheduler::fast_forward). A window may be
    /// any length, and opens on the cycle after an admission.
    ///
    /// The stretch never crosses the next scheduled failure/repair
    /// event, and the fast path disables itself whenever a per-cycle
    /// observer is active: plan-trace retention, `Debug`-level
    /// telemetry, an in-progress rebuild, or the verification oracle (a
    /// skipped delivery would never be byte-checked). Telemetry for
    /// skipped cycles is aggregated into the same `sim.*` series at the
    /// stretch boundary.
    pub fn advance_quiescent(&mut self, limit: u64) -> Result<u64, SimError> {
        let start = self.cycle;
        let horizon = self.failures.peek().map_or(limit, |due| limit.min(due));
        if horizon <= start
            || self.trace_limit > 0
            || self.oracle.is_some()
            || !self.rebuilds.active().is_empty()
            || mms_telemetry::enabled(Level::Debug)
        {
            return Ok(0);
        }
        let PlanStability { period, stable } = self.scheduler.plan_stability(start);
        let end = horizon.min(start.saturating_add(stable));
        debug_assert!(
            stable == 0 || self.scheduler.degraded_clusters() == 0,
            "a skipped window is healthy"
        );
        // Whether the replayed reads record their service times, decided
        // once for the window rather than per read.
        let traced = mms_telemetry::active();
        let (mut tracks_read, mut delivered) = (0u64, 0u64);
        while self.cycle < end {
            // The pattern repeats with `period`: a window's first
            // rotation is stated, the rest of it says the same again.
            let lap = self.cycle - start;
            let slot = (lap % period) as usize;
            if lap < period {
                if slot == self.steady.len() {
                    self.steady.push(SteadyCycle::default());
                }
                if !self
                    .scheduler
                    .steady_cycle(self.cycle, &mut self.steady[slot])
                {
                    break;
                }
            }
            let steady = &self.steady[slot];
            for &(disk, tracks) in &steady.reads {
                let disk = self.disks.disk_mut(disk)?;
                let time = disk.params().service_time(tracks);
                disk.replay_read(tracks, time, traced);
                self.metrics.disk_busy += time;
                tracks_read += tracks as u64;
            }
            delivered += steady.delivered as u64;
            self.metrics.buffer_peak = self.metrics.buffer_peak.max(steady.buffer_peak);
            self.metrics.buffer_series.push(steady.buffer_in_use);
            self.cycle += 1;
        }
        let skipped = self.cycle - start;
        if skipped == 0 {
            return Ok(0);
        }
        let last = &self.steady[((skipped - 1) % period) as usize];
        let buffer_in_use = last.buffer_in_use;
        self.scheduler.fast_forward(skipped);
        self.metrics.cycles += skipped;
        self.metrics.tracks_read += tracks_read;
        self.metrics.delivered += delivered;

        // The skipped cycles' telemetry, aggregated at the boundary.
        self.publish(Publish::Skip(buffer_in_use));
        event!(
            Level::Info,
            "fast_forward",
            from = start,
            cycles = skipped,
            scheme = self.scheduler.scheme().abbrev()
        );
        Ok(skipped)
    }

    /// Simulate `cycles` cycles.
    pub fn run(&mut self, cycles: u64) -> Result<(), SimError> {
        let end = self.cycle + cycles;
        while self.cycle < end {
            if self.step_mode == StepMode::EventHorizon && self.advance_quiescent(end)? > 0 {
                continue;
            }
            self.step()?;
        }
        Ok(())
    }

    /// End a stream early (viewer stopped watching). The scheduler
    /// drains what the stream already buffered and retires it at the
    /// next delivery boundary; returns `false` if the stream is not
    /// active (already finished or never admitted). Emits an `Info`
    /// "release" event for an active stream, as a [`SessionEngine`]'s
    /// timed releases do.
    pub fn release(&mut self, id: StreamId) -> bool {
        release_stream(&mut self.scheduler, id, self.cycle)
    }

    /// Simulate `cycles` cycles under a [`SessionEngine`]: each cycle
    /// the engine fires due session releases, admits queued viewers
    /// into freed slots, offers new arrivals under its admission
    /// policy, and then the cycle runs as in [`step`](Self::step).
    /// Session counters and wait percentiles accumulate in
    /// [`SessionEngine::stats`]; memory stays O(active + queued
    /// sessions) no matter how long the run.
    /// In [`StepMode::EventHorizon`] the engine's
    /// [`next_event_before`](SessionEngine::next_event_before) bounds
    /// each quiescent stretch at the next session event (release due,
    /// queued viewer aging, or pre-sampled arrival), so session
    /// statistics and the RNG stream match per-cycle runs exactly.
    pub fn run_sessions<R: Rng + ?Sized>(
        &mut self,
        cycles: u64,
        engine: &mut SessionEngine,
        rng: &mut R,
    ) -> Result<(), SimError> {
        let end = self.cycle + cycles;
        while self.cycle < end {
            engine.tick(self.cycle, &mut self.scheduler, rng);
            self.step()?;
            if self.step_mode == StepMode::EventHorizon {
                while self.cycle < end {
                    let next = engine.next_event_before(self.cycle, end, rng);
                    if next <= self.cycle || self.advance_quiescent(next)? == 0 {
                        break;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Admit a stream for `object` at `cycle`, emitting the "admit" event:
/// the one admission path of [`Simulator::admit`] and of
/// [`SessionEngine`]'s sessions.
pub(crate) fn admit_stream<S: SchemeScheduler>(
    scheduler: &mut S,
    object: ObjectId,
    cycle: u64,
) -> Result<StreamId, AdmissionError> {
    let stream = scheduler.admit(object, cycle)?;
    event!(
        Level::Info,
        "admit",
        cycle = cycle,
        stream = stream.0,
        object = object.0,
        scheme = scheduler.scheme().abbrev(),
    );
    Ok(stream)
}

/// End `id` early at `cycle`: the one release path of
/// [`Simulator::release`] and of [`SessionEngine`]'s timed releases.
/// Emits an `Info` "release" event when the stream was still active.
pub(crate) fn release_stream<S: SchemeScheduler>(
    scheduler: &mut S,
    id: StreamId,
    cycle: u64,
) -> bool {
    let released = scheduler.release(id);
    if released {
        event!(Level::Info, "release", cycle = cycle, stream = id.0);
    }
    released
}

#[cfg(test)]
mod tests {
    use super::*;
    use mms_disk::{Bandwidth, DiskId};
    use mms_layout::{BandwidthClass, Catalog, ClusteredLayout, Geometry, MediaObject};
    use mms_sched::{CycleConfig, GroupedScheduler, NonClusteredScheduler, TransitionPolicy};
    use mms_telemetry::{EventKind, Labels, Recorder, Registry};

    fn build(disks: usize, c: usize, tracks: u64) -> Simulator<GroupedScheduler<ClusteredLayout>> {
        build_in(DataMode::Verified { track_bytes: 256 }, disks, c, tracks)
    }

    /// Metadata only: the one data mode the event horizon opens in.
    fn build_unverified(
        disks: usize,
        c: usize,
        tracks: u64,
    ) -> Simulator<GroupedScheduler<ClusteredLayout>> {
        build_in(DataMode::MetadataOnly, disks, c, tracks)
    }

    fn build_in(
        mode: DataMode,
        disks: usize,
        c: usize,
        tracks: u64,
    ) -> Simulator<GroupedScheduler<ClusteredLayout>> {
        let geo = Geometry::clustered(disks, c).unwrap();
        let layout = ClusteredLayout::new(geo);
        let mut catalog = Catalog::new(layout, 1_000_000);
        catalog
            .add(MediaObject::new(
                ObjectId(0),
                "movie",
                tracks,
                BandwidthClass::Mpeg1,
            ))
            .unwrap();
        let dir = ObjectDirectory::new([(ObjectId(0), tracks)], (c - 1) as u32);
        let cfg = CycleConfig::new(
            DiskParams::paper_table1(),
            Bandwidth::from_megabits(1.5),
            c - 1,
            c - 1,
        );
        let sched = GroupedScheduler::new(cfg, catalog);
        Simulator::new(sched, DiskParams::paper_table1(), disks, mode, dir)
    }

    #[test]
    fn clean_run_delivers_and_verifies_everything() {
        let mut sim = build(10, 5, 16);
        sim.admit(ObjectId(0)).unwrap();
        sim.run(6).unwrap();
        let m = sim.metrics();
        assert_eq!(m.delivered, 16);
        assert_eq!(m.verified, 16);
        assert_eq!(m.total_hiccups(), 0);
        assert_eq!(m.streams_finished, 1);
        // 4 groups × 5 tracks read (4 data + parity).
        assert_eq!(m.tracks_read, 20);
        assert!(m.utilization(sim.scheduler().config().t_cyc(), 10) > 0.0);
    }

    #[test]
    fn failure_is_masked_and_reconstructions_verified() {
        let mut sim = build(10, 5, 40);
        sim.admit(ObjectId(0)).unwrap();
        sim.set_failures(FailureSchedule::fail_at(2, DiskId(1)));
        sim.run(12).unwrap();
        let m = sim.metrics();
        assert_eq!(m.delivered, 40);
        assert_eq!(m.total_hiccups(), 0);
        // Disk 1 is in cluster 0, hit every other group from cycle 2 on.
        assert!(m.reconstructed >= 4, "{}", m.reconstructed);
        assert_eq!(m.verified, 40);
        assert_eq!(m.catastrophes, 0);
    }

    #[test]
    fn repair_stops_reconstruction() {
        let mut sim = build(10, 5, 40);
        sim.admit(ObjectId(0)).unwrap();
        sim.set_failures(FailureSchedule::fail_and_repair(2, 4, DiskId(0)));
        sim.run(12).unwrap();
        let m = sim.metrics();
        assert_eq!(m.delivered, 40);
        // Only the cluster-0 groups read during cycles 2..4 reconstruct.
        assert!(m.reconstructed <= 2, "{}", m.reconstructed);
    }

    #[test]
    fn double_failure_counts_catastrophe_and_hiccups() {
        let mut sim = build(10, 5, 16);
        sim.admit(ObjectId(0)).unwrap();
        sim.set_failures(FailureSchedule::new(vec![
            FailureEvent::Fail {
                cycle: 0,
                disk: DiskId(0),
                mid_cycle: false,
            },
            FailureEvent::Fail {
                cycle: 0,
                disk: DiskId(2),
                mid_cycle: false,
            },
        ]));
        sim.run(6).unwrap();
        let m = sim.metrics();
        assert_eq!(m.catastrophes, 1);
        // Two blocks lost per cluster-0 group (groups 0 and 2).
        assert_eq!(m.hiccups_failed_disk, 4);
        assert_eq!(m.delivered, 12);
    }

    #[test]
    fn session_engine_releases_free_capacity() {
        use crate::workload::{AdmissionPolicy, ArrivalProcess, SessionEngine, SplitMix64};

        // 8 tracks → 2 groups → a full watch holds 2 cycles. Two engines:
        // the plain open-loop source (Poisson 0.8 a cycle, every viewer
        // watches to the end), which this capacity never turns away;
        // and 3 arrivals a cycle with abandonment, where timed releases
        // must recycle slots so far more sessions are admitted than the
        // capacity (104 on this rig) could ever serve concurrently.
        let engine = |rate: f64| {
            SessionEngine::new(
                vec![(ObjectId(0), 2)],
                0.0,
                ArrivalProcess::poisson(rate),
                AdmissionPolicy::Reject,
            )
        };
        let runs = [
            (engine(0.8), 50, 11, false),
            (engine(3.0).with_abandonment(0.5), 400, 21, true),
        ];
        for (mut engine, cycles, seed, churning) in runs {
            let mut sim = build(10, 5, 8);
            assert_eq!(sim.scheduler().config().session_cycles(8), 2);
            let mut rng = SplitMix64::new(seed);
            sim.run_sessions(cycles, &mut engine, &mut rng).unwrap();
            let stats = engine.stats();
            assert_eq!(
                stats.admitted + stats.rejected,
                stats.offered,
                "every offer resolves under Reject"
            );
            let m = sim.metrics();
            assert!(m.streams_finished > 5, "{m:?}");
            // Releases never produce a hiccup, and whatever was delivered
            // verified against ground truth.
            assert_eq!(m.total_hiccups(), 0);
            assert_eq!(m.delivered, m.verified);
            if !churning {
                assert_eq!(stats.rejected, 0, "{stats:?}");
                continue;
            }
            assert!(stats.offered > 1000, "{stats:?}");
            let capacity = sim.scheduler().stream_capacity();
            assert!(
                stats.admitted > capacity as u64 * 4,
                "slots must recycle: admitted {} vs capacity {capacity}",
                stats.admitted
            );
            assert!(stats.released_early > 0, "{stats:?}");
        }
    }

    #[test]
    fn session_admissions_and_releases_reach_the_record() {
        use crate::workload::{AdmissionPolicy, ArrivalProcess, SessionEngine, SplitMix64};

        let recorder = Recorder::new(Level::Info);
        let _guard = recorder.install();
        let mut sim = build_unverified(10, 5, 40);
        let mut engine = SessionEngine::new(
            vec![(ObjectId(0), 10)],
            0.0,
            ArrivalProcess::poisson(2.0),
            AdmissionPolicy::Reject,
        )
        .with_abandonment(0.5);
        let mut rng = SplitMix64::new(5);
        sim.run_sessions(200, &mut engine, &mut rng).unwrap();
        let events = recorder.take_events();
        let count = |name: &str| events.iter().filter(|e| e.name == name).count() as u64;
        let stats = engine.stats();
        assert!(
            stats.admitted > 100 && stats.released_early > 0,
            "{stats:?}"
        );
        assert_eq!(count("admit"), stats.admitted);
        assert_eq!(count("release"), stats.released_early);
    }

    #[test]
    fn session_engine_queue_policy_records_waits() {
        use crate::workload::{AdmissionPolicy, ArrivalProcess, SessionEngine, SplitMix64};

        // Persistent overload: 16 arrivals/cycle × 10-cycle holds is an
        // offered load of 160 streams against a capacity of 104, so the
        // queue must both admit with positive waits and expire waiters.
        let mut sim = build(10, 5, 40);
        let mut engine = SessionEngine::new(
            vec![(ObjectId(0), 10)],
            0.0,
            ArrivalProcess::poisson(16.0),
            AdmissionPolicy::Queue { max_wait: 6 },
        );
        let mut rng = SplitMix64::new(33);
        sim.run_sessions(300, &mut engine, &mut rng).unwrap();
        let stats = engine.stats();
        assert!(stats.queued > 0, "{stats:?}");
        assert!(stats.balked > 0, "overload must expire some waiters");
        // Queue depth is bounded by rate × patience, not by run length.
        assert!(engine.queue_len() <= 16 * 7 * 2, "{}", engine.queue_len());
        // Some admissions came off the queue with a positive wait.
        let p99 = stats.wait_p99.value().unwrap();
        assert!(p99 > 0.0 && p99 <= 6.0, "{p99}");
        assert_eq!(sim.metrics().total_hiccups(), 0);
    }

    #[test]
    fn session_runs_are_seed_deterministic() {
        use crate::workload::{AdmissionPolicy, ArrivalProcess, SessionEngine, SplitMix64};

        let run = || {
            let mut sim = build(10, 5, 8);
            let mut engine = SessionEngine::new(
                vec![(ObjectId(0), 2)],
                0.271,
                ArrivalProcess::bursty(20.0, 80.0, 0.1, 0.2),
                AdmissionPolicy::Degrade {
                    threshold: 0.3,
                    quality: 0.5,
                },
            )
            .with_vbr(vec![0.5, 1.0, 2.0])
            .with_abandonment(0.3);
            let mut rng = SplitMix64::new(77);
            sim.run_sessions(200, &mut engine, &mut rng).unwrap();
            (
                engine.stats().offered,
                engine.stats().admitted,
                engine.stats().degraded,
                engine.stats().released_early,
                sim.metrics().delivered,
                sim.metrics().tracks_read,
            )
        };
        assert_eq!(run(), run());
        let (offered, admitted, degraded, ..) = run();
        assert!(offered > 0 && admitted > 0 && degraded > 0);
    }

    /// Every `sim.*` series in `snap` against the record `m` of one
    /// `scheme`: each counter equals its [`Metrics`] field, `sim.hiccups`
    /// reason by reason, and the buffer gauge holds the last cycle's
    /// occupancy. No other `sim.*` series exists.
    fn assert_series_derive_from(snap: &Registry, scheme: &'static str, m: &Metrics) {
        let labels = Labels::new(vec![("scheme", scheme.into())]);
        let counters = [
            ("sim.cycles", m.cycles),
            ("sim.tracks_read", m.tracks_read),
            ("sim.delivered", m.delivered),
            ("sim.reconstructed", m.reconstructed),
            ("sim.rebuild_reads", m.rebuild_reads),
            ("sim.verified", m.verified),
            ("sim.degraded_cluster_cycles", m.degraded_cluster_cycles),
        ];
        for (name, want) in counters {
            assert_eq!(snap.counter(name, &labels), want, "{name}");
        }
        for (reason, want) in m.hiccups_by_reason() {
            let labels = Labels::new(vec![
                ("scheme", scheme.into()),
                ("reason", reason.as_str().into()),
            ]);
            assert_eq!(snap.counter("sim.hiccups", &labels), want, "{reason}");
        }
        assert_eq!(snap.counter_total("sim.hiccups"), m.total_hiccups());
        let last = m.buffer_series.points().last().map(|&b| b as f64);
        assert_eq!(snap.gauge("sim.buffer_in_use", &labels), last);
        let names = snap.counters().keys().chain(snap.gauges().keys());
        for key in names.filter(|k| k.name.starts_with("sim.")) {
            assert!(
                counters.iter().any(|(name, _)| *name == key.name)
                    || ["sim.hiccups", "sim.buffer_in_use"].contains(&key.name),
                "unexpected series {key}"
            );
        }
    }

    #[test]
    fn every_sim_series_derives_from_metrics_in_both_step_modes() {
        // One NC script through stepped, skipped, verified, hiccup,
        // rebuild and dropped-stream cycles. Disk 1 fails while both
        // streams read cluster 0, so the transition loses tracks; disk 6
        // fails while they read cluster 1, and with K_NC = 1 buffer
        // server that cluster drops them. Verified runs never skip.
        for mode in [
            DataMode::Verified { track_bytes: 64 },
            DataMode::MetadataOnly,
        ] {
            for step_mode in [StepMode::CycleByCycle, StepMode::EventHorizon] {
                let recorder = Recorder::new(Level::Info);
                let guard = recorder.install();
                let geo = Geometry::clustered(10, 5).unwrap();
                let mut catalog = Catalog::new(ClusteredLayout::new(geo), 1_000_000);
                catalog
                    .add(MediaObject::new(
                        ObjectId(0),
                        "movie",
                        400,
                        BandwidthClass::Mpeg1,
                    ))
                    .unwrap();
                let cfg = CycleConfig::new(
                    DiskParams::paper_table1(),
                    Bandwidth::from_megabits(1.5),
                    1,
                    1,
                );
                let sched = NonClusteredScheduler::new(cfg, catalog, TransitionPolicy::Simple, 1);
                let dir = ObjectDirectory::new([(ObjectId(0), 400)], 4);
                let mut sim = Simulator::new(sched, DiskParams::paper_table1(), 10, mode, dir);
                sim.set_step_mode(step_mode);

                sim.admit(ObjectId(0)).unwrap();
                sim.admit(ObjectId(0)).unwrap();
                sim.run(9).unwrap();
                sim.fail_disk_now(DiskId(1), false).unwrap();
                sim.run(5).unwrap();
                let dropped = sim.fail_disk_now(DiskId(6), false).unwrap();
                assert!(
                    !dropped.dropped_streams.is_empty(),
                    "{mode:?} {step_mode:?}"
                );
                sim.repair_disk_now(DiskId(6)).unwrap();
                sim.run(6).unwrap();
                sim.admit(ObjectId(0)).unwrap();
                let sources = vec![DiskId(0), DiskId(2), DiskId(3), DiskId(4)];
                sim.start_rebuild(DiskId(1), 30, RebuildSource::Parity { sources })
                    .unwrap();
                sim.run(40).unwrap();
                drop(guard);

                let m = sim.metrics();
                assert!(m.rebuilds_completed == 1 && m.rebuild_reads > 0);
                assert!(
                    m.service_degradations > 0 && m.hiccups_failed_disk > 0,
                    "{m:?}"
                );
                assert_eq!(m.verified > 0, mode != DataMode::MetadataOnly);
                let skips = recorder
                    .take_events()
                    .iter()
                    .filter(|e| e.name == "fast_forward")
                    .count();
                assert!(m.degraded_cluster_cycles > 0, "{m:?}");
                let skipping =
                    mode == DataMode::MetadataOnly && step_mode == StepMode::EventHorizon;
                assert_eq!(skips > 0, skipping, "{mode:?} {step_mode:?}");
                assert_series_derive_from(&recorder.snapshot(), "NC", m);
            }
        }
    }

    #[test]
    fn telemetry_mirrors_metrics_and_flags_hiccups() {
        let recorder = Recorder::new(Level::Debug);
        let _guard = recorder.install();

        let mut sim = build(10, 5, 16);
        sim.admit(ObjectId(0)).unwrap();
        sim.set_failures(FailureSchedule::new(vec![
            FailureEvent::Fail {
                cycle: 0,
                disk: DiskId(0),
                mid_cycle: false,
            },
            FailureEvent::Fail {
                cycle: 0,
                disk: DiskId(2),
                mid_cycle: false,
            },
        ]));
        sim.run(6).unwrap();

        let m = sim.metrics().clone();
        let events = recorder.take_events();
        let snap = recorder.snapshot();

        // Every series derives from the returned Metrics.
        assert_series_derive_from(&snap, "SR", &m);

        // One cycle span per step, strictly nested phases inside.
        let cycle_opens = events
            .iter()
            .filter(|e| e.name == "cycle" && e.kind == EventKind::SpanOpen)
            .count();
        assert_eq!(cycle_opens, 6);
        for phase in ["plan", "read", "verify", "deliver"] {
            let n = events
                .iter()
                .filter(|e| e.name == phase && e.kind == EventKind::SpanOpen)
                .count();
            assert_eq!(n, 6, "phase {phase} should open once per cycle");
        }

        // Every hiccup produced a Warn event with its reason label.
        let hiccup_events: Vec<_> = events.iter().filter(|e| e.name == "hiccup").collect();
        assert_eq!(hiccup_events.len() as u64, m.total_hiccups());
        assert!(hiccup_events.iter().all(|e| e.level == Level::Warn));
        assert!(hiccup_events
            .iter()
            .all(|e| e.field("reason").is_some() && e.field("cycle").is_some()));

        // Disk failures surfaced as Warn events from the disk layer.
        let failures = events.iter().filter(|e| e.name == "disk.failed").count();
        assert_eq!(failures, 2);
    }

    /// Everything the simulator reports, collected for exact-equality
    /// comparison between step modes (disk busy time bitwise).
    #[derive(Debug, PartialEq)]
    struct Observables {
        end_cycle: u64,
        cycles: u64,
        tracks_read: u64,
        delivered: u64,
        reconstructed: u64,
        verified: u64,
        hiccups: (u64, u64, u64, u64),
        streams_finished: u64,
        catastrophes: u64,
        rebuild_reads: u64,
        rebuilds_completed: u64,
        disk_busy_bits: u64,
        buffer_peak: usize,
        buffer_series: Vec<usize>,
        buffer_stride: u64,
        disk_stats: Vec<mms_disk::DiskStats>,
    }

    fn observe<S: SchemeScheduler>(sim: &Simulator<S>) -> Observables {
        let m = sim.metrics();
        Observables {
            end_cycle: sim.cycle(),
            cycles: m.cycles,
            tracks_read: m.tracks_read,
            delivered: m.delivered,
            reconstructed: m.reconstructed,
            verified: m.verified,
            hiccups: (
                m.hiccups_failed_disk,
                m.hiccups_displaced,
                m.hiccups_mid_cycle,
                m.service_degradations,
            ),
            streams_finished: m.streams_finished,
            catastrophes: m.catastrophes,
            rebuild_reads: m.rebuild_reads,
            rebuilds_completed: m.rebuilds_completed,
            disk_busy_bits: m.disk_busy.as_secs().to_bits(),
            buffer_peak: m.buffer_peak,
            buffer_series: m.buffer_series.points().to_vec(),
            buffer_stride: m.buffer_series.stride(),
            disk_stats: sim.disks().iter().map(|d| d.stats()).collect(),
        }
    }

    #[test]
    fn event_horizon_matches_cycle_by_cycle_exactly() {
        let run = |mode: StepMode| {
            let mut sim = build_unverified(10, 5, 400);
            sim.set_step_mode(mode);
            sim.admit(ObjectId(0)).unwrap();
            sim.run(150).unwrap();
            observe(&sim)
        };
        let slow = run(StepMode::CycleByCycle);
        let fast = run(StepMode::EventHorizon);
        assert!(slow.delivered > 0 && slow.streams_finished == 1);
        assert_eq!(slow, fast);
    }

    #[test]
    fn event_horizon_matches_under_failures() {
        let run = |mode: StepMode| {
            let mut sim = build_unverified(10, 5, 400);
            sim.set_step_mode(mode);
            sim.admit(ObjectId(0)).unwrap();
            sim.set_failures(FailureSchedule::fail_and_repair(30, 60, DiskId(1)));
            sim.run(150).unwrap();
            observe(&sim)
        };
        let slow = run(StepMode::CycleByCycle);
        let fast = run(StepMode::EventHorizon);
        assert!(slow.reconstructed > 0, "failure window must reconstruct");
        assert_eq!(slow, fast);
    }

    #[test]
    fn event_horizon_matches_session_runs() {
        use crate::workload::{AdmissionPolicy, ArrivalProcess, SessionEngine, SplitMix64};

        // The plain open-loop source (Poisson, `Reject`, whole titles:
        // 40 tracks are 10 one-cycle groups), and a queueing engine with
        // a VBR ladder and abandonment.
        let plain = || {
            SessionEngine::new(
                vec![(ObjectId(0), 10)],
                0.0,
                ArrivalProcess::poisson(0.05),
                AdmissionPolicy::Reject,
            )
        };
        let queueing = || {
            SessionEngine::new(
                vec![(ObjectId(0), 50)],
                0.0,
                ArrivalProcess::poisson(0.02),
                AdmissionPolicy::Queue { max_wait: 6 },
            )
            .with_vbr(vec![0.5, 1.0])
            .with_abandonment(0.2)
        };
        let configs: [(u64, &dyn Fn() -> SessionEngine, u64, u64); 2] =
            [(40, &plain, 600, 1995), (200, &queueing, 800, 7)];
        for (tracks, engine, cycles, seed) in configs {
            let run = |mode: StepMode| {
                let mut sim = build_unverified(10, 5, tracks);
                sim.set_step_mode(mode);
                let mut engine = engine();
                let mut rng = SplitMix64::new(seed);
                sim.run_sessions(cycles, &mut engine, &mut rng).unwrap();
                let stats = engine.stats().clone();
                (
                    observe(&sim),
                    stats.offered,
                    stats.admitted,
                    stats.rejected,
                    stats.queued,
                    stats.balked,
                    stats.released_early,
                )
            };
            let slow = run(StepMode::CycleByCycle);
            let fast = run(StepMode::EventHorizon);
            assert!(slow.1 > 0, "sessions must be offered");
            assert!(slow.0.streams_finished > 0);
            assert_eq!(slow, fast);
        }
    }

    #[test]
    fn a_window_opens_the_cycle_after_an_admission_and_may_be_any_length() {
        let mut sim = build_unverified(10, 5, 400);
        sim.admit(ObjectId(0)).unwrap();
        assert_eq!(sim.advance_quiescent(50).unwrap(), 0, "warm-up cycle");
        sim.step().unwrap();
        // One cycle, then a stretch that is no multiple of the two-cluster
        // rotation, then up to the final-group read at cycle 99.
        assert_eq!(sim.advance_quiescent(2).unwrap(), 1);
        assert_eq!(sim.advance_quiescent(9).unwrap(), 7);
        sim.admit(ObjectId(0)).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.advance_quiescent(1_000).unwrap(), 89);
        assert_eq!(sim.cycle(), 99);
        let mut stepped = build_unverified(10, 5, 400);
        stepped.admit(ObjectId(0)).unwrap();
        stepped.run(9).unwrap();
        stepped.admit(ObjectId(0)).unwrap();
        stepped.run(90).unwrap();
        assert_eq!(observe(&sim), observe(&stepped));
    }

    #[test]
    fn the_horizon_stays_shut_while_deliveries_are_verified() {
        // Nothing skipped means nothing extrapolated: `verified ==
        // delivered` says the oracle saw every delivered track, one
        // generator pass each on a healthy array.
        crate::verify::counted::take_passes();
        let mut sim = build(10, 5, 400);
        sim.set_step_mode(StepMode::EventHorizon);
        sim.admit(ObjectId(0)).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.advance_quiescent(50).unwrap(), 0);
        sim.run(60).unwrap();
        let m = sim.metrics();
        assert_eq!((m.cycles, m.delivered, m.verified), (61, 240, 240));
        assert_eq!(
            u64::from(crate::verify::counted::take_passes()),
            m.delivered
        );
    }

    #[test]
    fn trace_retention_is_bounded() {
        let mut sim = build(10, 5, 16);
        sim.admit(ObjectId(0)).unwrap();
        sim.keep_trace(3);
        sim.run(6).unwrap();
        assert_eq!(sim.trace().len(), 3);
        assert_eq!(sim.trace()[2].cycle, 2);
    }
}
