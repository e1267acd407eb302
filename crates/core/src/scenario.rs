//! The scenario engine: tables of named fault-injection [`Case`]s, and
//! the one [`Corpus`] runner that lists them, finds one by name, runs
//! every case's runs as one job list on the `mms-exec` worker pool and
//! renders the [`Report`]s under one verdict line — bit-identical at
//! every thread count and in both step modes.
//!
//! Two tables use it: [`corpus`] (`mms-ctl scenario`) holds
//! [`Scenario`]s — seeded disk-fault scripts with the paper-derived
//! [`Expectation`]s a run must meet, the [`ScenarioTopology`] they run
//! on and the schemes they run against — and `mms_fleet::scenario`
//! (`mms-ctl fleet`) scripts node deaths across a fleet.
//!
//! ```
//! use mms_server::scenario::corpus;
//! use mms_server::RunConfig;
//!
//! let drill = corpus(true).only("single-fault").unwrap();
//! let (text, passed) = drill.render(&RunConfig::default());
//! assert!(passed, "{text}");
//! ```

use crate::builder::ServerBuilder;
use crate::error::ServerError;
use crate::runcfg::RunConfig;
use crate::server::MultimediaServer;
use mms_disk::{DiskId, ReliabilityParams, Time};
use mms_exec::SeedSequence;
use mms_layout::{BandwidthClass, MediaObject, ObjectId};
use mms_sched::{SchemeKind, TransitionPolicy};
use mms_sim::{run_batch, DataMode, FailureEvent, FailureSchedule, StepMode};
use mms_telemetry::{EventRecord, Level, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// What one run of a [`Case`] reports.
pub trait Report: Send {
    /// Whether every invariant held.
    fn passed(&self) -> bool;
    /// A deterministic, human-readable block of the corpus output.
    fn render(&self) -> String;
}

/// One named case of a [`Corpus`].
pub trait Case: Sync {
    /// What one run produces.
    type Report: Report;
    /// Unique name (the `mms-ctl` handle).
    fn name(&self) -> &'static str;
    /// One-line description of what the case exercises.
    fn summary(&self) -> &'static str;
    /// How many runs the case fans out to.
    fn runs(&self) -> usize {
        1
    }
    /// Execute run `run` (in `0..self.runs()`) in `step_mode`.
    fn run(&self, run: usize, step_mode: StepMode) -> Self::Report;
}

/// A table of [`Case`]s and the one runner over it.
#[derive(Debug, Clone)]
pub struct Corpus<C> {
    /// Leads the verdict line (`corpus`, `fleet corpus`).
    pub label: &'static str,
    /// The cases, in table order.
    pub cases: Vec<C>,
}

impl<C: Case> Corpus<C> {
    /// This corpus narrowed to the case called `name`, if there is one.
    #[must_use]
    pub fn only(mut self, name: &str) -> Option<Self> {
        self.cases.retain(|c| c.name() == name);
        (!self.cases.is_empty()).then_some(self)
    }

    /// One `name  summary` line per case.
    #[must_use]
    pub fn list(&self) -> String {
        let width = self.cases.iter().map(|c| c.name().len()).max().unwrap_or(0) + 2;
        self.cases
            .iter()
            .map(|c| format!("{:<width$} {}\n", c.name(), c.summary()))
            .collect()
    }

    /// Every case's reports, in table and run order. All runs of all
    /// cases form one job list on `cfg.threads` workers, each run in
    /// `cfg.step_mode`; the reports are the same for every setting.
    #[must_use]
    pub fn reports(&self, cfg: &RunConfig) -> Vec<Vec<C::Report>> {
        let jobs: Vec<(&C, usize)> = self
            .cases
            .iter()
            .flat_map(|c| (0..c.runs()).map(move |run| (c, run)))
            .collect();
        let mut reports =
            run_batch(cfg.threads, &jobs, |&(c, run)| c.run(run, cfg.step_mode)).into_iter();
        self.cases
            .iter()
            .map(|c| reports.by_ref().take(c.runs()).collect())
            .collect()
    }

    /// Run the corpus and render every report under its case's header,
    /// then the verdict line. Returns the text and whether every
    /// invariant held.
    #[must_use]
    pub fn render(&self, cfg: &RunConfig) -> (String, bool) {
        let mut out = String::new();
        let mut all_passed = true;
        for (case, reports) in self.cases.iter().zip(self.reports(cfg)) {
            let _ = writeln!(out, "== {} — {}", case.name(), case.summary());
            for report in reports {
                out.push_str(&report.render());
                all_passed &= report.passed();
            }
        }
        let verdict = if all_passed {
            "all invariants held"
        } else {
            "INVARIANT VIOLATIONS"
        };
        let _ = writeln!(out, "{}: {verdict}", self.label);
        (out, all_passed)
    }
}

/// One timed action in a scenario script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioEvent {
    /// Admit a viewer for the `index`-th registered object.
    Admit {
        /// Cycle at which the viewer arrives.
        cycle: u64,
        /// Index into the server's registration-ordered object list.
        object: usize,
    },
    /// Inject a disk failure or repair.
    Fault(FailureEvent),
    /// Start a background parity rebuild of `disk` onto a spare.
    RebuildParity {
        /// Cycle at which the rebuild starts.
        cycle: u64,
        /// The disk under rebuild.
        disk: DiskId,
    },
    /// Start a tertiary-storage rebuild of `disk` (the slow path after
    /// a catastrophe).
    RebuildTertiary {
        /// Cycle at which the rebuild starts.
        cycle: u64,
        /// The disk under rebuild.
        disk: DiskId,
        /// Tape bandwidth in tracks per cycle.
        tracks_per_cycle: u64,
    },
}

impl ScenarioEvent {
    /// The cycle at which the event fires.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        match *self {
            ScenarioEvent::Admit { cycle, .. }
            | ScenarioEvent::RebuildParity { cycle, .. }
            | ScenarioEvent::RebuildTertiary { cycle, .. } => cycle,
            ScenarioEvent::Fault(e) => e.cycle(),
        }
    }
}

/// When a scenario run stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Horizon {
    /// Run until no streams are active (and no rebuild is in flight),
    /// but at most `max_cycles`.
    Drain {
        /// Hard stop even if streams never drain.
        max_cycles: u64,
    },
    /// Run exactly this many cycles.
    Fixed(u64),
}

impl Horizon {
    /// The hard upper bound on simulated cycles.
    #[must_use]
    pub fn max_cycles(&self) -> u64 {
        match *self {
            Horizon::Drain { max_cycles } => max_cycles,
            Horizon::Fixed(n) => n,
        }
    }
}

/// A stochastic failure/repair process layered over the scripted
/// events, expanded deterministically from the scenario seed (split
/// per scheme) before the run starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StochasticFaults {
    /// MTTF acceleration factor (shrinks the paper's disk lifetime so
    /// failures land inside short behavioral runs).
    pub acceleration: f64,
    /// Mean time to repair, in cycles.
    pub mttr_cycles: u64,
    /// Cycle horizon for generated events.
    pub horizon_cycles: u64,
}

/// One paper-derived invariant over a [`ScenarioReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// No tracks were lost (zero hiccups).
    NoLostTracks,
    /// Exactly this many tracks were lost (the NC Fig. 6/7 bounds).
    LostTracksExactly(u64),
    /// At most this many tracks were lost (the Section 4.3 bound).
    LostTracksAtMost(u64),
    /// No catastrophic (unrecoverable) failure occurred.
    NoCatastrophe,
    /// At least one injected fault returned typed data loss.
    DataLoss,
    /// No streams were dropped (no degradation of service).
    NoDroppedStreams,
    /// At least one stream was dropped (e.g. buffer-server exhaustion).
    DroppedStreams,
    /// Every started rebuild completed within the horizon.
    RebuildCompletes,
    /// Every admitted stream either finished or was deliberately
    /// dropped; none is still active at the horizon.
    AllStreamsFinish,
    /// The Improved-bandwidth "shift right" cascade moved load through
    /// at least one cluster (only meaningful for IB).
    ShiftCascade,
}

/// A [`Check`] scoped to one scheme, or to all schemes when `scheme`
/// is `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expectation {
    /// Which scheme the check applies to (`None` = every scheme).
    pub scheme: Option<SchemeKind>,
    /// The invariant.
    pub check: Check,
}

impl Expectation {
    /// An invariant every scheme must satisfy.
    #[must_use]
    pub fn all(check: Check) -> Self {
        Expectation {
            scheme: None,
            check,
        }
    }

    /// An invariant for one scheme.
    #[must_use]
    pub fn for_scheme(scheme: SchemeKind, check: Check) -> Self {
        Expectation {
            scheme: Some(scheme),
            check,
        }
    }
}

fn check_violation(check: Check, r: &ScenarioReport) -> Option<String> {
    match check {
        Check::NoLostTracks => {
            (r.tracks_lost != 0).then(|| format!("expected 0 lost tracks, got {}", r.tracks_lost))
        }
        Check::LostTracksExactly(n) => (r.tracks_lost != n)
            .then(|| format!("expected exactly {n} lost tracks, got {}", r.tracks_lost)),
        Check::LostTracksAtMost(n) => (r.tracks_lost > n)
            .then(|| format!("expected at most {n} lost tracks, got {}", r.tracks_lost)),
        Check::NoCatastrophe => (r.catastrophes != 0 || !r.data_loss.is_empty())
            .then(|| format!("expected no catastrophe, got {}", r.catastrophes.max(r.data_loss.len() as u64))),
        Check::DataLoss => r
            .data_loss
            .is_empty()
            .then(|| "expected a typed data-loss result, got none".to_string()),
        Check::NoDroppedStreams => {
            (r.dropped != 0).then(|| format!("expected 0 dropped streams, got {}", r.dropped))
        }
        Check::DroppedStreams => {
            (r.dropped == 0).then(|| "expected dropped streams, got none".to_string())
        }
        Check::RebuildCompletes => (r.rebuilds_started != r.rebuilds_completed).then(|| {
            format!(
                "expected {} rebuilds to complete, {} did",
                r.rebuilds_started, r.rebuilds_completed
            )
        }),
        Check::AllStreamsFinish => {
            (r.active_at_end != 0 || r.finished + r.dropped != r.admitted).then(|| {
                format!(
                    "expected all {} admitted streams to finish ({} finished, {} dropped, {} active at end)",
                    r.admitted, r.finished, r.dropped, r.active_at_end
                )
            })
        }
        Check::ShiftCascade => r
            .shift_clusters
            .is_empty()
            .then(|| "expected a shift-right cascade, saw none".to_string()),
    }
}

/// One cluster's operating-mode change, reconstructed from telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeTransition {
    /// Cycle of the transition.
    pub cycle: u64,
    /// The cluster that changed mode.
    pub cluster: u64,
    /// Mode before (`normal`, `degraded`, `catastrophic`).
    pub from: String,
    /// Mode after.
    pub to: String,
}

/// Extract the mode-transition timeline from captured telemetry
/// events, in emission order.
#[must_use]
pub fn transitions_from_events(events: &[EventRecord]) -> Vec<ModeTransition> {
    events
        .iter()
        .filter(|e| e.name == "mode_transition")
        .filter_map(|e| {
            let num = |k: &str| match e.field(k) {
                Some(Value::U64(v)) => Some(*v),
                Some(Value::I64(v)) => Some(*v as u64),
                _ => None,
            };
            let s = |k: &str| match e.field(k) {
                Some(Value::Str(v)) => Some(v.to_string()),
                _ => None,
            };
            Some(ModeTransition {
                cycle: num("cycle")?,
                cluster: num("cluster")?,
                from: s("from")?,
                to: s("to")?,
            })
        })
        .collect()
}

/// Sum, over all clusters, of the cycles each spent out of normal mode
/// (degraded or catastrophic), integrating `transitions` to
/// `end_cycle`.
#[must_use]
pub fn degraded_cycles(transitions: &[ModeTransition], end_cycle: u64) -> u64 {
    use std::collections::BTreeMap;
    let mut since: BTreeMap<u64, u64> = BTreeMap::new();
    let mut total = 0;
    for t in transitions {
        if t.to == "normal" {
            if let Some(start) = since.remove(&t.cluster) {
                total += t.cycle.saturating_sub(start);
            }
        } else {
            since.entry(t.cluster).or_insert(t.cycle);
        }
    }
    for (_, start) in since {
        total += end_cycle.saturating_sub(start);
    }
    total
}

/// One typed data-loss outcome from an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataLossRecord {
    /// Cycle of the fault.
    pub cycle: u64,
    /// The disk whose failure tipped the group over.
    pub disk: DiskId,
    /// Unrecoverable data tracks.
    pub tracks: u64,
}

/// What one scenario run did, for one scheme.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The scenario's name.
    pub scenario: String,
    /// The scheme it ran against.
    pub scheme: SchemeKind,
    /// Cycles simulated.
    pub cycles: u64,
    /// Viewers admitted.
    pub admitted: u64,
    /// Admissions rejected (capacity or catastrophic mode).
    pub rejected: u64,
    /// Streams that played to completion.
    pub finished: u64,
    /// Streams dropped (degradation of service).
    pub dropped: u64,
    /// Streams still active at the horizon.
    pub active_at_end: u64,
    /// Tracks lost to hiccups (missed deliveries).
    pub tracks_lost: u64,
    /// Deliveries reconstructed from parity.
    pub reconstructed: u64,
    /// Catastrophic failures counted by the simulator (scheduled
    /// faults; immediate faults surface in [`data_loss`](Self::data_loss)).
    pub catastrophes: u64,
    /// Typed data-loss outcomes from injected faults.
    pub data_loss: Vec<DataLossRecord>,
    /// Mode-transition timeline from telemetry.
    pub transitions: Vec<ModeTransition>,
    /// Total cluster-cycles spent out of normal mode.
    pub degraded_cycles: u64,
    /// Rebuilds started by the script.
    pub rebuilds_started: u64,
    /// Rebuilds that completed within the horizon.
    pub rebuilds_completed: u64,
    /// Cycles from first rebuild start to last rebuild completion.
    pub rebuild_duration: Option<u64>,
    /// Clusters visited by the IB shift cascade (empty elsewhere).
    pub shift_clusters: Vec<u64>,
    /// Invariant violations (empty = the scenario passed).
    pub violations: Vec<String>,
}

impl ScenarioReport {
    /// An empty report for `scenario` under `scheme`.
    #[must_use]
    pub fn new(scenario: &str, scheme: SchemeKind) -> Self {
        ScenarioReport {
            scenario: scenario.to_string(),
            scheme,
            cycles: 0,
            admitted: 0,
            rejected: 0,
            finished: 0,
            dropped: 0,
            active_at_end: 0,
            tracks_lost: 0,
            reconstructed: 0,
            catastrophes: 0,
            data_loss: Vec::new(),
            transitions: Vec::new(),
            degraded_cycles: 0,
            rebuilds_started: 0,
            rebuilds_completed: 0,
            rebuild_duration: None,
            shift_clusters: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// Total unrecoverable data tracks across all typed losses.
    #[must_use]
    pub fn data_loss_tracks(&self) -> u64 {
        self.data_loss.iter().map(|d| d.tracks).sum()
    }
}

impl Report for ScenarioReport {
    fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    fn render(&self) -> String {
        let mut out = String::new();
        let verdict = if self.passed() { "PASS" } else { "FAIL" };
        let _ = writeln!(
            out,
            "[{verdict}] {} / {} ({} cycles)",
            self.scenario,
            self.scheme.abbrev(),
            self.cycles
        );
        let _ = writeln!(
            out,
            "  streams: {} admitted, {} finished, {} dropped, {} rejected, {} active at end",
            self.admitted, self.finished, self.dropped, self.rejected, self.active_at_end
        );
        let _ = writeln!(
            out,
            "  delivery: {} lost tracks, {} reconstructed, {} degraded cluster-cycles",
            self.tracks_lost, self.reconstructed, self.degraded_cycles
        );
        if !self.data_loss.is_empty() || self.catastrophes > 0 {
            let _ = writeln!(
                out,
                "  catastrophic: {} scheduled, {} typed losses ({} data tracks unrecoverable)",
                self.catastrophes,
                self.data_loss.len(),
                self.data_loss_tracks()
            );
        }
        if self.rebuilds_started > 0 {
            let _ = writeln!(
                out,
                "  rebuild: {}/{} completed{}",
                self.rebuilds_completed,
                self.rebuilds_started,
                match self.rebuild_duration {
                    Some(d) => format!(" in {d} cycles"),
                    None => String::new(),
                }
            );
        }
        if !self.shift_clusters.is_empty() {
            let path: Vec<String> = self.shift_clusters.iter().map(u64::to_string).collect();
            let _ = writeln!(out, "  shift cascade: clusters {}", path.join(" -> "));
        }
        for t in &self.transitions {
            let _ = writeln!(
                out,
                "  cycle {:>4}: cluster {} {} -> {}",
                t.cycle, t.cluster, t.from, t.to
            );
        }
        for v in &self.violations {
            let _ = writeln!(out, "  VIOLATION: {v}");
        }
        out
    }
}

/// The object catalog a scenario topology registers.
#[derive(Debug, Clone)]
pub enum ObjectSet {
    /// Movies by `(name, minutes, class)`, as [`ServerBuilder::movie`].
    Movies(Vec<(String, f64, BandwidthClass)>),
    /// The Figures 5–7 corpus: eight 4-track objects (one parity group
    /// each) at 1 MB/s, so one cluster of five disks runs exactly one
    /// read slot per disk per cycle.
    FigureCorpus,
}

/// The server shape a scenario runs against.
#[derive(Debug, Clone)]
pub struct ScenarioTopology {
    /// Disks for the clustered schemes (SR/SG/NC; a multiple of `c`).
    pub disks: usize,
    /// Disks for Improved-bandwidth (a multiple of `c − 1`).
    pub ib_disks: usize,
    /// Parity-group size `C`.
    pub c: usize,
    /// Registered objects.
    pub objects: ObjectSet,
    /// Non-clustered transition policy.
    pub nc_policy: TransitionPolicy,
    /// Non-clustered buffer servers (`K_NC`).
    pub nc_buffer_servers: usize,
    /// Improved-bandwidth reserved slots per disk.
    pub ib_reserved_slots: usize,
    /// Improved-bandwidth adaptive parity prefetch.
    pub ib_parity_prefetch: bool,
    /// Synthetic track payload bytes (verified end to end).
    pub track_bytes: usize,
}

impl ScenarioTopology {
    /// The standard drill topology: 10 disks (8 for IB), `C = 5`, a
    /// 1-minute feature and a 0.3-minute short (MPEG-1), verified
    /// 128-byte tracks.
    #[must_use]
    pub fn standard() -> Self {
        ScenarioTopology {
            disks: 10,
            ib_disks: 8,
            c: 5,
            objects: ObjectSet::Movies(vec![
                ("feature".to_string(), 1.0, BandwidthClass::Mpeg1),
                ("short".to_string(), 0.3, BandwidthClass::Mpeg1),
            ]),
            nc_policy: TransitionPolicy::Delayed,
            nc_buffer_servers: 3,
            ib_reserved_slots: 1,
            ib_parity_prefetch: false,
            track_bytes: 128,
        }
    }

    /// The Figures 6/7 topology: one cluster of five disks, one read
    /// slot per disk per cycle, one buffer server, and the figures'
    /// eight single-group objects.
    #[must_use]
    pub fn figure(policy: TransitionPolicy) -> Self {
        ScenarioTopology {
            disks: 5,
            objects: ObjectSet::FigureCorpus,
            nc_policy: policy,
            nc_buffer_servers: 1,
            ..ScenarioTopology::standard()
        }
    }

    /// Build a server of this shape for `scheme`.
    pub fn build(&self, scheme: SchemeKind) -> Result<MultimediaServer, ServerError> {
        let disks = if scheme == SchemeKind::ImprovedBandwidth {
            self.ib_disks
        } else {
            self.disks
        };
        let mut b = ServerBuilder::new(scheme)
            .disks(disks)
            .parity_group(self.c)
            .transition_policy(self.nc_policy)
            .buffer_servers(self.nc_buffer_servers)
            .reserved_slots(self.ib_reserved_slots)
            .parity_prefetch(self.ib_parity_prefetch)
            .data_mode(DataMode::Verified {
                track_bytes: self.track_bytes,
            });
        match &self.objects {
            ObjectSet::Movies(movies) => {
                for (name, minutes, class) in movies {
                    b = b.movie(name.clone(), *minutes, *class);
                }
            }
            ObjectSet::FigureCorpus => {
                for oid in 0..8u64 {
                    b = b.object(MediaObject::new(
                        ObjectId(oid),
                        format!("obj{oid}"),
                        4,
                        BandwidthClass::Custom(mms_disk::Bandwidth::from_megabytes(1.0)),
                    ));
                }
            }
        }
        Ok(b.build()?)
    }
}

/// A named, seeded fault-injection script with its invariants, the
/// server shape it runs on and the schemes it runs against: one
/// [`Case`] of the single-server [`corpus`], one run per scheme.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Unique name (the `mms-ctl scenario <name>` handle).
    pub name: &'static str,
    /// One-line description of what the scenario exercises.
    pub summary: &'static str,
    /// Master seed; stochastic processes split it per scheme.
    pub seed: u64,
    /// Stop condition.
    pub horizon: Horizon,
    /// Scripted events (any order; the run sorts them by cycle).
    pub events: Vec<ScenarioEvent>,
    /// Optional stochastic failure/repair overlay.
    pub stochastic: Option<StochasticFaults>,
    /// The invariants a run must satisfy.
    pub expectations: Vec<Expectation>,
    /// The server shape.
    pub topology: ScenarioTopology,
    /// Schemes the scenario is defined for, in run order.
    pub schemes: Vec<SchemeKind>,
}

impl Scenario {
    /// A new empty scenario on the standard topology for every scheme,
    /// draining within 400 cycles.
    #[must_use]
    pub fn new(name: &'static str, summary: &'static str) -> Self {
        Scenario {
            name,
            summary,
            seed: 0x5ca1ab1e,
            horizon: Horizon::Drain { max_cycles: 400 },
            events: Vec::new(),
            stochastic: None,
            expectations: Vec::new(),
            topology: ScenarioTopology::standard(),
            schemes: SchemeKind::ALL.to_vec(),
        }
    }

    /// Evaluate every invariant that applies to `report.scheme`,
    /// returning a human-readable violation per failed check (empty =
    /// pass).
    #[must_use]
    pub fn evaluate(&self, report: &ScenarioReport) -> Vec<String> {
        self.expectations
            .iter()
            .filter(|e| e.scheme.is_none_or(|s| s == report.scheme))
            .filter_map(|e| check_violation(e.check, report))
            .collect()
    }
}

impl Case for Scenario {
    type Report = ScenarioReport;

    fn name(&self) -> &'static str {
        self.name
    }

    fn summary(&self) -> &'static str {
        self.summary
    }

    fn runs(&self) -> usize {
        self.schemes.len()
    }

    /// Run the script against `self.schemes[run]`. Execution errors (a
    /// script naming a bad object, a simulation failure) are violations,
    /// not panics, so a corpus sweep always yields a full set of reports.
    fn run(&self, run: usize, step_mode: StepMode) -> ScenarioReport {
        let scheme = self.schemes[run];
        let mut report = ScenarioReport::new(self.name, scheme);
        let mut server = match self.topology.build(scheme) {
            Ok(s) => s,
            Err(e) => {
                report.violations.push(format!("build failed: {e}"));
                return report;
            }
        };

        // Expand the stochastic overlay deterministically: the master
        // seed is split per scheme (SplitMix64), so each scheme sees
        // its own reproducible fault process regardless of thread
        // count or which other schemes run.
        if let Some(st) = self.stochastic {
            let scheme_index = SchemeKind::ALL
                .iter()
                .position(|&s| s == scheme)
                .expect("scheme in ALL") as u64;
            let mut rng = StdRng::seed_from_u64(SeedSequence::new(self.seed).seed(scheme_index));
            let t_cyc = server.cycle_config().t_cyc();
            let rel = ReliabilityParams {
                mttf: ReliabilityParams::paper().mttf,
                mttr: Time::from_secs(t_cyc.as_secs() * st.mttr_cycles as f64),
            };
            let schedule = FailureSchedule::stochastic(
                &mut rng,
                server.simulator().disks().len(),
                rel,
                t_cyc,
                st.horizon_cycles,
                st.acceleration,
            );
            server.simulator_mut().set_failures(schedule);
        }

        let mut events = self.events.clone();
        events.sort_by_key(ScenarioEvent::cycle);
        let objects = server.objects().to_vec();

        // The internal recorder needs Info to harvest mode transitions;
        // if an ambient collector wants more (e.g. Debug cycle spans for
        // a flight recording), match it so nothing is lost in transit.
        let level = mms_telemetry::current_max_level().map_or(Level::Info, |l| l.max(Level::Info));
        let recorder = mms_telemetry::Recorder::new(level);
        let guard = recorder.install();
        let max_cycles = self.horizon.max_cycles();
        let mut ev_ix = 0;
        let mut rebuild_started_at: Option<u64> = None;
        let mut last_rebuild_done: Option<u64> = None;
        loop {
            let now = server.cycle();
            while ev_ix < events.len() && events[ev_ix].cycle() <= now {
                if apply(&events[ev_ix], &mut server, &objects, &mut report) {
                    rebuild_started_at.get_or_insert(now);
                }
                ev_ix += 1;
            }
            if now >= max_cycles {
                break;
            }
            if matches!(self.horizon, Horizon::Drain { .. })
                && ev_ix == events.len()
                && server.active_streams() == 0
                && server.simulator().rebuilds().active().is_empty()
                && server.simulator().metrics().cycles > 0
            {
                break;
            }
            // Between scripted events nothing external can perturb the
            // schedule, so the stretch up to the next event (or the
            // horizon) is a fast-forward candidate. Tertiary staging
            // advances only through `server.step`, so the fast path
            // stays off while the librarian has work.
            if step_mode == StepMode::EventHorizon && server.staging().queue().is_empty() {
                let next_event = events
                    .get(ev_ix)
                    .map_or(max_cycles, |e| e.cycle().min(max_cycles));
                match server.simulator_mut().advance_quiescent(next_event) {
                    Ok(n) if n > 0 => continue,
                    Ok(_) => {}
                    Err(e) => {
                        report.violations.push(format!("cycle {now}: {e}"));
                        break;
                    }
                }
            }
            let rebuilds_before = server.simulator().metrics().rebuilds_completed;
            if let Err(e) = server.step() {
                report.violations.push(format!("cycle {now}: {e}"));
                break;
            }
            if server.simulator().metrics().rebuilds_completed > rebuilds_before {
                last_rebuild_done = Some(server.cycle());
            }
            if let Some(ib) = server.simulator().scheduler().as_improved() {
                for c in ib.last_shift_path() {
                    let c = u64::from(c.0);
                    if !report.shift_clusters.contains(&c) {
                        report.shift_clusters.push(c);
                    }
                }
            }
        }
        drop(guard);

        let m = server.metrics();
        report.cycles = m.cycles;
        report.finished = m.streams_finished;
        report.dropped = m.service_degradations;
        report.active_at_end = server.active_streams() as u64;
        report.tracks_lost = m.total_hiccups();
        report.reconstructed = m.reconstructed;
        // `fail_disk_now` counts catastrophes for immediate injections
        // too; subtract the typed losses so `catastrophes` covers only
        // scheduled (step-path) faults, as documented on the report.
        report.catastrophes = m.catastrophes.saturating_sub(report.data_loss.len() as u64);
        report.rebuilds_completed = m.rebuilds_completed;
        let (events, registry) = recorder.into_parts();
        report.transitions = transitions_from_events(&events);
        report.degraded_cycles = degraded_cycles(&report.transitions, report.cycles);
        report.rebuild_duration = rebuild_started_at
            .zip(last_rebuild_done)
            .map(|(s, e)| e.saturating_sub(s));
        report.violations.extend(self.evaluate(&report));
        // Forward the run's telemetry to any ambient collector (the
        // guard is already dropped, so this reaches e.g. mms-ctl's
        // recorder). Absorption happens whole-run at a time, in the
        // caller's invocation order, so the combined stream stays
        // byte-identical at every thread count.
        mms_telemetry::dispatch_absorb(events, &registry);
        for violation in &report.violations {
            mms_telemetry::event!(
                Level::Error,
                "check_violation",
                scenario = self.name,
                scheme = scheme.abbrev(),
                message = violation.clone(),
            );
        }
        report
    }
}

/// Apply one scripted event to `server`, recording its outcome; true
/// when the event asks for a rebuild (whether or not one starts).
fn apply(
    event: &ScenarioEvent,
    server: &mut MultimediaServer,
    objects: &[ObjectId],
    report: &mut ScenarioReport,
) -> bool {
    let (cycle, started) = match *event {
        ScenarioEvent::Admit { object, cycle } => {
            match objects.get(object).map(|&oid| server.admit(oid)) {
                Some(Ok(_)) => report.admitted += 1,
                Some(Err(ServerError::Admission(_))) => report.rejected += 1,
                Some(Err(e)) => report.violations.push(format!("cycle {cycle}: {e}")),
                None => report
                    .violations
                    .push(format!("cycle {cycle}: no object at index {object}")),
            }
            return false;
        }
        ScenarioEvent::Fault(fe) => {
            match server.inject(fe) {
                Ok(_) => {}
                Err(ServerError::DataLoss { tracks }) => report.data_loss.push(DataLossRecord {
                    cycle: fe.cycle(),
                    disk: fe.disk(),
                    tracks,
                }),
                Err(e) => report.violations.push(format!("cycle {}: {e}", fe.cycle())),
            }
            return false;
        }
        ScenarioEvent::RebuildParity { cycle, disk } => (cycle, server.start_parity_rebuild(disk)),
        ScenarioEvent::RebuildTertiary {
            cycle,
            disk,
            tracks_per_cycle,
        } => (cycle, server.start_tertiary_rebuild(disk, tracks_per_cycle)),
    };
    match started {
        Ok(()) => report.rebuilds_started += 1,
        Err(e) => report.violations.push(format!("cycle {cycle}: {e}")),
    }
    true
}

fn admit(cycle: u64, object: usize) -> ScenarioEvent {
    ScenarioEvent::Admit { cycle, object }
}

fn fail(cycle: u64, disk: u32) -> ScenarioEvent {
    ScenarioEvent::Fault(FailureEvent::fail(cycle, DiskId(disk)))
}

fn fail_mid(cycle: u64, disk: u32) -> ScenarioEvent {
    ScenarioEvent::Fault(FailureEvent::fail_mid_cycle(cycle, DiskId(disk)))
}

fn repair(cycle: u64, disk: u32) -> ScenarioEvent {
    ScenarioEvent::Fault(FailureEvent::repair(cycle, DiskId(disk)))
}

/// The NC figure-transition case (Figures 6/7): the exact admission
/// pattern of `crates/sched/tests/figures_nc.rs` driven through the
/// full simulator, losing exactly `tracks` tracks.
fn nc_figure_case(policy: TransitionPolicy, tracks: u64) -> Scenario {
    let (name, summary) = match policy {
        TransitionPolicy::Simple => (
            "nc-transition-simple",
            "Fig. 6: NC simple transition loses exactly 6 tracks",
        ),
        TransitionPolicy::Delayed => (
            "nc-transition-delayed",
            "Fig. 7: NC delayed transition loses exactly 3 tracks",
        ),
    };
    let mut s = Scenario::new(name, summary);
    s.seed = 6 + tracks;
    s.horizon = Horizon::Drain { max_cycles: 60 };
    s.events = vec![
        admit(1, 0), // U
        admit(2, 1), // W
        admit(3, 2), // Y
        admit(4, 3), // A starts at the failure cycle itself
        fail(4, 2),  // disk 2 dies just before cycle 4 (figure cycle 1)
        admit(5, 4), // C
        admit(6, 5), // E
        admit(7, 6), // G
        admit(8, 7), // I
    ];
    s.expectations = vec![
        Expectation::all(Check::LostTracksExactly(tracks)),
        Expectation::all(Check::NoCatastrophe),
        Expectation::all(Check::AllStreamsFinish),
    ];
    s.topology = ScenarioTopology::figure(policy);
    s.schemes = vec![SchemeKind::NonClustered];
    s
}

/// The named single-server corpus (the `mms-ctl scenario` table); each
/// case's summary says what it checks.
///
/// `quick` shortens the stochastic soak so smoke runs stay fast; every
/// deterministic scenario is identical in both modes.
#[must_use]
pub fn corpus(quick: bool) -> Corpus<Scenario> {
    let mut cases = Vec::new();

    let mut s = Scenario::new("baseline-clean", "no faults; every stream plays losslessly");
    s.events = vec![admit(0, 0)];
    s.expectations = vec![
        Expectation::all(Check::NoLostTracks),
        Expectation::all(Check::NoCatastrophe),
        Expectation::all(Check::NoDroppedStreams),
        Expectation::all(Check::AllStreamsFinish),
    ];
    cases.push(s);

    let mut s = Scenario::new(
        "single-fault",
        "one disk dies mid-movie; SR/SG/IB mask it, NC loses its bounded transition set",
    );
    s.events = vec![admit(0, 0), fail(3, 1)];
    s.expectations = vec![
        Expectation::for_scheme(SchemeKind::StreamingRaid, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::StaggeredGroup, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::ImprovedBandwidth, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::NonClustered, Check::LostTracksAtMost(2)),
        Expectation::all(Check::NoCatastrophe),
        Expectation::all(Check::NoDroppedStreams),
        Expectation::all(Check::AllStreamsFinish),
    ];
    cases.push(s);

    let mut s = Scenario::new(
        "mid-cycle-fault",
        "failure after the read schedule committed; only IB takes the one unmaskable hiccup",
    );
    s.events = vec![admit(0, 0), fail_mid(4, 1)];
    s.expectations = vec![
        Expectation::for_scheme(SchemeKind::StreamingRaid, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::StaggeredGroup, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::ImprovedBandwidth, Check::LostTracksExactly(1)),
        Expectation::for_scheme(SchemeKind::NonClustered, Check::LostTracksAtMost(2)),
        Expectation::all(Check::NoCatastrophe),
        Expectation::all(Check::AllStreamsFinish),
    ];
    cases.push(s);

    // Section 4's adaptive parity prefetch, under light load.
    let mut s = Scenario::new(
        "ib-prefetch-mid-cycle",
        "parity prefetch on: IB masks even a mid-cycle failure",
    );
    s.events = vec![admit(0, 0), fail_mid(4, 1)];
    s.expectations = vec![
        Expectation::all(Check::NoLostTracks),
        Expectation::all(Check::NoCatastrophe),
        Expectation::all(Check::AllStreamsFinish),
    ];
    s.topology.ib_parity_prefetch = true;
    s.schemes = vec![SchemeKind::ImprovedBandwidth];
    cases.push(s);

    let mut s = Scenario::new(
        "fail-and-repair",
        "fail one disk, repair it 40 cycles later; service recovers fully",
    );
    s.events = vec![admit(0, 0), fail(3, 1), repair(43, 1)];
    s.expectations = vec![
        Expectation::for_scheme(SchemeKind::StreamingRaid, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::StaggeredGroup, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::ImprovedBandwidth, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::NonClustered, Check::LostTracksAtMost(2)),
        Expectation::all(Check::NoCatastrophe),
        Expectation::all(Check::AllStreamsFinish),
    ];
    cases.push(s);

    // The NC transition figures, through the full simulator.
    cases.push(nc_figure_case(TransitionPolicy::Simple, 6));
    cases.push(nc_figure_case(TransitionPolicy::Delayed, 3));

    let mut s = Scenario::new(
        "double-fault-same-group",
        "two failures in one parity group; every scheme reports typed data loss",
    );
    s.events = vec![admit(0, 0), fail(3, 1), fail(6, 2)];
    s.expectations = vec![Expectation::all(Check::DataLoss)];
    cases.push(s);

    // IB's 8-disk ring has only two (hence mutually adjacent) clusters.
    let mut s = Scenario::new(
        "double-fault-cross-group",
        "failures in two clusters; SR/SG/NC survive, IB's adjacency rule loses data",
    );
    s.events = vec![admit(0, 0), fail(3, 1), fail(6, 6)];
    s.expectations = vec![
        Expectation::for_scheme(SchemeKind::StreamingRaid, Check::NoCatastrophe),
        Expectation::for_scheme(SchemeKind::StreamingRaid, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::StaggeredGroup, Check::NoCatastrophe),
        Expectation::for_scheme(SchemeKind::StaggeredGroup, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::NonClustered, Check::NoCatastrophe),
        Expectation::for_scheme(SchemeKind::NonClustered, Check::LostTracksAtMost(4)),
        Expectation::for_scheme(SchemeKind::ImprovedBandwidth, Check::DataLoss),
    ];
    cases.push(s);

    // The Eq. 6 degradation of service.
    let mut s = Scenario::new(
        "buffer-exhaustion",
        "K_NC = 1 and failures in two clusters; the second degraded cluster sheds streams",
    );
    s.events = vec![admit(0, 0), admit(1, 0), fail(6, 1), fail(6, 6)];
    s.expectations = vec![
        Expectation::all(Check::NoCatastrophe),
        Expectation::all(Check::DroppedStreams),
    ];
    s.topology.nc_buffer_servers = 1;
    s.schemes = vec![SchemeKind::NonClustered];
    cases.push(s);

    let mut s = Scenario::new(
        "fail-during-rebuild",
        "disk fails during another disk's tape rebuild; same group, typed data loss",
    );
    s.events = vec![
        admit(0, 0),
        fail(3, 1),
        ScenarioEvent::RebuildTertiary {
            cycle: 6,
            disk: DiskId(1),
            tracks_per_cycle: 1,
        },
        fail(12, 2),
    ];
    s.expectations = vec![Expectation::all(Check::DataLoss)];
    cases.push(s);

    let mut s = Scenario::new(
        "rebuild-under-load",
        "parity rebuild from idle slots while a stream plays; completes without slowing it",
    );
    s.events = vec![
        admit(0, 0),
        fail(3, 1),
        ScenarioEvent::RebuildParity {
            cycle: 6,
            disk: DiskId(1),
        },
    ];
    s.expectations = vec![
        Expectation::all(Check::RebuildCompletes),
        Expectation::all(Check::NoCatastrophe),
        Expectation::all(Check::AllStreamsFinish),
        Expectation::for_scheme(SchemeKind::StreamingRaid, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::StaggeredGroup, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::ImprovedBandwidth, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::NonClustered, Check::LostTracksAtMost(2)),
    ];
    cases.push(s);

    let mut s = Scenario::new(
        "shift-cascade",
        "IB degraded mode shifts displaced load through the cluster ring",
    );
    s.events = vec![admit(0, 0), admit(0, 1), fail(4, 1)];
    s.expectations = vec![
        Expectation::all(Check::ShiftCascade),
        Expectation::all(Check::NoLostTracks),
        Expectation::all(Check::NoCatastrophe),
        Expectation::all(Check::AllStreamsFinish),
    ];
    s.schemes = vec![SchemeKind::ImprovedBandwidth];
    cases.push(s);

    // Exercises every mode without asserting a specific loss (the
    // deterministic scenarios do that).
    let mut s = Scenario::new(
        "stochastic-soak",
        "seeded stochastic failure/repair storm; bit-identical at any thread count",
    );
    let horizon = if quick { 120 } else { 400 };
    s.seed = 0xdecade;
    s.horizon = Horizon::Fixed(horizon);
    s.stochastic = Some(StochasticFaults {
        acceleration: 1.5e6,
        mttr_cycles: 20,
        horizon_cycles: horizon,
    });
    s.events = vec![admit(0, 0), admit(1, 1), admit(40, 1), admit(60, 0)];
    cases.push(s);

    Corpus {
        label: "corpus",
        cases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ScenarioReport {
        ScenarioReport::new("t", SchemeKind::StreamingRaid)
    }

    #[test]
    fn checks_fire_on_violations_only() {
        let mut r = report();
        assert!(check_violation(Check::NoLostTracks, &r).is_none());
        assert!(check_violation(Check::DataLoss, &r).is_some());
        r.tracks_lost = 6;
        assert!(check_violation(Check::NoLostTracks, &r).is_some());
        assert!(check_violation(Check::LostTracksExactly(6), &r).is_none());
        assert!(check_violation(Check::LostTracksExactly(3), &r).is_some());
        assert!(check_violation(Check::LostTracksAtMost(5), &r).is_some());
        assert!(check_violation(Check::LostTracksAtMost(6), &r).is_none());
        r.data_loss.push(DataLossRecord {
            cycle: 4,
            disk: DiskId(1),
            tracks: 8,
        });
        assert!(check_violation(Check::DataLoss, &r).is_none());
        assert!(check_violation(Check::NoCatastrophe, &r).is_some());
        assert_eq!(r.data_loss_tracks(), 8);
    }

    #[test]
    fn expectations_scope_by_scheme() {
        let mut s = Scenario::new("t", "test");
        s.expectations = vec![
            Expectation::all(Check::NoLostTracks),
            Expectation::for_scheme(SchemeKind::NonClustered, Check::LostTracksExactly(3)),
        ];
        let mut r = report();
        r.tracks_lost = 0;
        assert!(s.evaluate(&r).is_empty());
        r.scheme = SchemeKind::NonClustered;
        let v = s.evaluate(&r);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn degraded_cycles_integrates_transitions() {
        let ts = vec![
            ModeTransition {
                cycle: 4,
                cluster: 0,
                from: "normal".into(),
                to: "degraded".into(),
            },
            ModeTransition {
                cycle: 10,
                cluster: 0,
                from: "degraded".into(),
                to: "normal".into(),
            },
            ModeTransition {
                cycle: 12,
                cluster: 1,
                from: "normal".into(),
                to: "degraded".into(),
            },
        ];
        // Cluster 0: 6 cycles; cluster 1: open until the end (20).
        assert_eq!(degraded_cycles(&ts, 20), 6 + 8);
    }

    #[test]
    fn render_is_deterministic_and_mentions_verdict() {
        let mut r = report();
        r.violations.push("boom".into());
        let text = r.render();
        assert!(text.starts_with("[FAIL]"));
        assert!(text.contains("VIOLATION: boom"));
        assert_eq!(text, r.render());
    }

    #[test]
    fn corpus_names_are_unique_and_nonempty() {
        let table = corpus(true);
        assert!(
            table.cases.len() >= 12,
            "corpus shrank to {}",
            table.cases.len()
        );
        let mut names: Vec<&str> = table.cases.iter().map(|c| c.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate scenario names");
        let only = table.only("single-fault").expect("single-fault is a case");
        assert_eq!(only.cases.len(), 1);
        assert!(corpus(true).only("no-such-scenario").is_none());
    }

    #[test]
    fn every_topology_builds_for_its_schemes() {
        for case in corpus(true).cases {
            for &scheme in &case.schemes {
                case.topology
                    .build(scheme)
                    .unwrap_or_else(|e| panic!("{}/{scheme:?}: {e}", case.name));
            }
        }
    }
}
