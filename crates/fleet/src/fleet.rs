//! The fleet front-end: N simulated [`MultimediaServer`] nodes behind
//! one admission router, with whole-node failover.
//!
//! A [`Fleet`] owns its nodes, a chained-declustered
//! [`PlacementMap`], and a deterministic [`ControlPlane`]. Admissions
//! route to an object's primary node, or to its chained secondary when
//! the primary is dead or its catalog replica is out of sync. A node
//! failure is just another scriptable event ([`FleetEvent::NodeFail`]):
//! the data plane stops routing to the node immediately, the control
//! plane replicates a `NodeDown` decree, and once that decree commits
//! the node's live streams are failed over to their secondaries. The
//! cycles a stream spends waiting for the decree are its *failover
//! hiccups* — bounded by the consensus round-trip, never by a wall
//! clock.
//!
//! Data is lost only when replication is exhausted: both the primary
//! and the chained secondary of an object are down at failover time.
//! That surfaces as the typed [`FleetError::DataLoss`], mirroring the
//! single-server `ServerError::DataLoss` contract.

use crate::control::{Command, ControlPlane, ControlStats};
use crate::placement::{NodeId, PlacementMap, RouteError};
use mms_exec::{par_map_indexed_min, Parallelism, SeedSequence};
use mms_layout::{BandwidthClass, MediaObject, ObjectId};
use mms_sched::StreamId;
use mms_server::{BuildError, MultimediaServer, RunConfig, Scheme, ServerBuilder, ServerError};
use mms_sim::{poisson, AdmissionPolicy, DataMode, FailureEvent, SessionEngine, StepMode, Zipf};
use mms_telemetry::{event, gauge, Level};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

/// Fleet-wide stream handle (node-local [`StreamId`]s are remapped on
/// failover; this id is stable for the stream's whole life).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FleetStreamId(pub u64);

/// A scriptable fleet-level fault, mirroring the single-server
/// [`FailureEvent`] surface one level up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEvent {
    /// Node `node`'s process dies at `cycle`.
    NodeFail {
        /// Fleet cycle the failure strikes.
        cycle: u64,
        /// Ring index of the failing node.
        node: usize,
    },
    /// Node `node` is repaired at `cycle`; it serves primaries again
    /// once the control plane commits its `NodeUp` decree (the catalog
    /// re-sync).
    NodeRepair {
        /// Fleet cycle the repair completes.
        cycle: u64,
        /// Ring index of the repaired node.
        node: usize,
    },
    /// A disk-level fault inside one node, passed through to that
    /// node's own `inject` surface.
    Disk {
        /// Fleet cycle the event fires.
        cycle: u64,
        /// Ring index of the affected node.
        node: usize,
        /// The intra-node failure event.
        event: FailureEvent,
    },
}

impl FleetEvent {
    /// Node failure at `cycle`.
    pub fn fail_node(cycle: u64, node: usize) -> Self {
        FleetEvent::NodeFail { cycle, node }
    }

    /// Node repair at `cycle`.
    pub fn repair_node(cycle: u64, node: usize) -> Self {
        FleetEvent::NodeRepair { cycle, node }
    }

    /// Intra-node disk event at `cycle`.
    pub fn disk(cycle: u64, node: usize, event: FailureEvent) -> Self {
        FleetEvent::Disk { cycle, node, event }
    }

    /// The fleet cycle this event fires at.
    pub fn cycle(&self) -> u64 {
        match *self {
            FleetEvent::NodeFail { cycle, .. }
            | FleetEvent::NodeRepair { cycle, .. }
            | FleetEvent::Disk { cycle, .. } => cycle,
        }
    }

    /// The ring index of the node this event strikes.
    fn node(&self) -> usize {
        match *self {
            FleetEvent::NodeFail { node, .. }
            | FleetEvent::NodeRepair { node, .. }
            | FleetEvent::Disk { node, .. } => node,
        }
    }
}

/// Anything a fleet operation can fail with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The router could not place the admission.
    Route(RouteError),
    /// The target node rejected the admission (capacity).
    Admission {
        /// Node that rejected.
        node: usize,
        /// The node-level admission error.
        source: mms_sched::AdmissionError,
    },
    /// A node-level operation failed.
    Node {
        /// Node that failed the operation.
        node: usize,
        /// The underlying server error.
        source: ServerError,
    },
    /// A node could not be constructed.
    Build {
        /// Node that failed to build.
        node: usize,
        /// The underlying build error.
        source: BuildError,
    },
    /// Replication was exhausted during failover: `tracks` data tracks
    /// had no surviving replica. The fleet keeps running degraded —
    /// this is the node-level analogue of the paper's catastrophic
    /// failure.
    DataLoss {
        /// Data tracks lost across all streams that could not move.
        tracks: u64,
    },
    /// The fleet configuration is invalid.
    Config(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Route(e) => write!(f, "routing failed: {e}"),
            FleetError::Admission { node, source } => {
                write!(f, "node {node} rejected admission: {source}")
            }
            FleetError::Node { node, source } => write!(f, "node {node}: {source}"),
            FleetError::Build { node, source } => write!(f, "building node {node}: {source}"),
            FleetError::DataLoss { tracks } => {
                write!(
                    f,
                    "replication exhausted: {tracks} data tracks lost in failover"
                )
            }
            FleetError::Config(msg) => write!(f, "bad fleet configuration: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<RouteError> for FleetError {
    fn from(e: RouteError) -> Self {
        FleetError::Route(e)
    }
}

/// Fleet-level counters, all monotonic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetMetrics {
    /// Streams admitted (to primary or secondary).
    pub admitted: u64,
    /// Admissions rejected by the target node (capacity).
    pub rejected: u64,
    /// Admissions with no live replica to route to.
    pub unavailable: u64,
    /// Admissions that landed on the chained secondary.
    pub re_routed_admissions: u64,
    /// Node processes failed.
    pub node_failures: u64,
    /// Node processes repaired.
    pub node_repairs: u64,
    /// `NodeDown` decrees committed (failover rounds executed).
    pub failovers: u64,
    /// Live streams moved to their secondary during failover.
    pub re_routed_streams: u64,
    /// Streams dropped at failover because the secondary was full.
    pub dropped_on_failover: u64,
    /// Delivery cycles missed by streams waiting for a failover decree
    /// (bounded per stream by the consensus round-trip).
    pub failover_hiccup_cycles: u64,
    /// Largest decree-commit gap any failover waited — the worst-case
    /// per-stream hiccup, bounded by the consensus round-trip.
    pub max_failover_gap: u64,
    /// Data tracks with no surviving replica at failover.
    pub tracks_lost: u64,
    /// Failover rounds that lost data.
    pub data_loss_events: u64,
    /// Streams released (natural end of their hold).
    pub released: u64,
}

/// Aggregate of one [`Fleet::run_with_traffic`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficReport {
    /// Sessions offered by the arrival process.
    pub offered: u64,
    /// Sessions admitted.
    pub admitted: u64,
    /// Sessions rejected for capacity.
    pub rejected: u64,
    /// Sessions with no live replica.
    pub unavailable: u64,
    /// Data tracks lost to exhausted replication during the run.
    pub tracks_lost: u64,
}

/// Aggregate of one [`Fleet::run_sharded_sessions`] call (summed over
/// nodes in ring order, so it is bit-identical at any thread count).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Sessions offered across all node engines.
    pub offered: u64,
    /// Sessions admitted.
    pub admitted: u64,
    /// Sessions rejected.
    pub rejected: u64,
    /// Viewers that balked.
    pub balked: u64,
    /// Viewers that abandoned early.
    pub released_early: u64,
    /// Data tracks delivered during the run.
    pub delivered: u64,
    /// Delivery hiccups during the run.
    pub hiccups: u64,
}

/// Heavy-traffic configuration for [`Fleet::run_sharded_sessions`].
#[derive(Debug, Clone)]
pub struct ShardedLoad {
    /// Cycles to run each node.
    pub cycles: u64,
    /// Offered load as a fraction of each node's admission capacity.
    pub load: f64,
    /// Zipf skew over each node's shard of the catalog.
    pub theta: f64,
    /// Per-session abandonment probability.
    pub abandon: f64,
    /// VBR hold-multiplier ladder (empty = constant bitrate).
    pub vbr: Vec<f64>,
    /// Per-node admission policy.
    pub policy: AdmissionPolicy,
    /// Base seed; node `i` draws from the `i`-th derived stream.
    pub seed: u64,
}

impl Default for ShardedLoad {
    fn default() -> Self {
        ShardedLoad {
            cycles: 1000,
            load: 0.9,
            theta: 0.271,
            abandon: 0.0,
            vbr: Vec::new(),
            policy: AdmissionPolicy::Reject,
            seed: 1995,
        }
    }
}

/// One fleet node: a whole simulated server plus its process state.
struct Node {
    server: MultimediaServer,
    up: bool,
    failed_at: u64,
}

/// A live fleet-level session.
#[derive(Debug, Clone, Copy)]
struct FleetSession {
    node: usize,
    local: StreamId,
    obj_ix: usize,
    end: u64,
    /// Set between the node's death and the `NodeDown` commit: the
    /// stream has stopped delivering and awaits re-routing.
    limbo: bool,
}

/// The live fleet sessions, addressed by id and kept in admission order.
///
/// Ids are handed out in admission order, and every session holds the
/// same number of cycles from its admission, so admission order is also
/// release order: the sessions due are always at the front. Each id has
/// a slot; an early release, a failover drop or a lost stream leaves a
/// hole, which the front skips. A limbo session is not being served, so
/// its hold expiring does not release it; it moves aside instead of
/// pinning the front (under quorum loss its failover never comes). The
/// slots thus span one hold's worth of admissions at most, and the
/// sessions moved aside are the limbo ones.
#[derive(Debug, Default)]
struct Book {
    /// Id of the front slot; the next id is `base + slots.len()`.
    base: u64,
    slots: VecDeque<Option<FleetSession>>,
    /// Limbo sessions past their hold, in id order; every id is below
    /// `base`.
    expired: Vec<(u64, FleetSession)>,
    /// Sessions in `slots` and `expired`.
    live: usize,
}

impl Book {
    /// Book a newly admitted session; returns its id.
    fn insert(&mut self, session: FleetSession) -> u64 {
        let last_end = self.slots.iter().rev().flatten().map(|s| s.end).next();
        debug_assert!(
            last_end <= Some(session.end),
            "every session holds as long, so ends never decrease"
        );
        let id = self.base + self.slots.len() as u64;
        self.slots.push_back(Some(session));
        self.live += 1;
        id
    }

    /// The slot of an id at or past the front (`None` below it).
    fn slot(&self, id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(self.base)?).ok()
    }

    /// The index in `expired` of an id below the front.
    fn aside(&self, id: u64) -> Option<usize> {
        self.expired.binary_search_by_key(&id, |e| e.0).ok()
    }

    fn get(&self, id: u64) -> Option<&FleetSession> {
        match self.slot(id) {
            Some(slot) => self.slots.get(slot)?.as_ref(),
            None => Some(&self.expired[self.aside(id)?].1),
        }
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut FleetSession> {
        match self.slot(id) {
            Some(slot) => self.slots.get_mut(slot)?.as_mut(),
            None => {
                let ix = self.aside(id)?;
                Some(&mut self.expired[ix].1)
            }
        }
    }

    fn remove(&mut self, id: u64) -> Option<FleetSession> {
        let session = match self.slot(id) {
            Some(slot) => self.slots.get_mut(slot)?.take()?,
            None => {
                let ix = self.aside(id)?;
                self.expired.remove(ix).1
            }
        };
        self.live -= 1;
        Some(session)
    }

    /// Every live session, in id order.
    fn iter(&self) -> impl Iterator<Item = (u64, &FleetSession)> {
        let booked = (self.base..).zip(&self.slots);
        let expired = self.expired.iter().map(|(id, s)| (*id, s));
        expired.chain(booked.filter_map(|(id, s)| Some((id, s.as_ref()?))))
    }

    fn values_mut(&mut self) -> impl Iterator<Item = &mut FleetSession> {
        let expired = self.expired.iter_mut().map(|(_, s)| s);
        expired.chain(self.slots.iter_mut().flatten())
    }

    /// Take the next session whose hold ended by `cycle` and that is
    /// being served, in id order; limbo sessions met on the way move
    /// aside for their failover to resolve.
    fn pop_due(&mut self, cycle: u64) -> Option<FleetSession> {
        loop {
            if self.slots.front()?.is_some_and(|s| s.end > cycle) {
                return None;
            }
            let id = self.base;
            self.base += 1;
            let Some(session) = self.slots.pop_front().flatten() else {
                continue;
            };
            if session.limbo {
                // lint:allow(hot-path-alloc): only a session stranded in limbo is moved aside
                self.expired.push((id, session));
                continue;
            }
            self.live -= 1;
            return Some(session);
        }
    }

    /// Live sessions, limbo ones included.
    fn len(&self) -> usize {
        self.live
    }
}

/// Builder for a [`Fleet`]. All nodes share one geometry; the catalog
/// is sharded over them by the [`PlacementMap`].
pub struct FleetBuilder {
    nodes: usize,
    scheme: Scheme,
    disks: usize,
    group: usize,
    movies: usize,
    tracks: u64,
    step_mode: StepMode,
    par: Parallelism,
    control_seed: u64,
}

impl FleetBuilder {
    /// A fleet of `nodes` Streaming-RAID nodes (10 disks, C = 5,
    /// metadata-only data mode, an 8-movie × 200-track catalog).
    pub fn new(nodes: usize) -> Self {
        FleetBuilder {
            nodes,
            scheme: Scheme::StreamingRaid,
            disks: 10,
            group: 5,
            movies: 8,
            tracks: 200,
            step_mode: StepMode::CycleByCycle,
            par: Parallelism::Auto,
            control_seed: 1995,
        }
    }

    /// Parity scheme for every node.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Disks per node.
    pub fn disks(mut self, disks: usize) -> Self {
        self.disks = disks;
        self
    }

    /// Parity-group size per node.
    pub fn parity_group(mut self, c: usize) -> Self {
        self.group = c;
        self
    }

    /// Generate a uniform catalog of `movies` objects of `tracks`
    /// tracks each.
    pub fn catalog(mut self, movies: usize, tracks: u64) -> Self {
        self.movies = movies;
        self.tracks = tracks;
        self
    }

    /// Step mode for every node (`EventHorizon` makes million-session
    /// fleet runs fast; observably identical).
    pub fn step_mode(mut self, mode: StepMode) -> Self {
        self.step_mode = mode;
        self
    }

    /// Worker pool for node fan-outs (output-invariant).
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// Seed for the control plane's message-delivery order.
    pub fn control_seed(mut self, seed: u64) -> Self {
        self.control_seed = seed;
        self
    }

    /// Apply a unified [`RunConfig`]: worker pool and step mode.
    pub fn run_config(mut self, cfg: &RunConfig) -> Self {
        self.par = cfg.threads;
        self.step_mode = cfg.step_mode;
        self
    }

    /// Build the fleet: shard the catalog, construct every node with
    /// its primary and chained-replica objects, and start the control
    /// plane with all nodes up.
    pub fn build(self) -> Result<Fleet, FleetError> {
        if self.nodes < 2 {
            return Err(FleetError::Config(
                "a fleet needs at least 2 nodes for chained declustering".into(),
            ));
        }
        let ids: Vec<ObjectId> = (0..self.movies.max(1) as u64).map(ObjectId).collect();
        let placement = PlacementMap::new(self.nodes, &ids);

        let mut nodes = Vec::with_capacity(self.nodes);
        for n in 0..self.nodes {
            let mut builder = ServerBuilder::new(self.scheme)
                .disks(self.disks)
                .parity_group(self.group)
                .data_mode(DataMode::MetadataOnly);
            for (id, _role) in placement.placed_on(NodeId(n)) {
                let title = format!("title-{}", id.0);
                let object = MediaObject::new(id, title, self.tracks, BandwidthClass::Mpeg1);
                builder = builder.object(object);
            }
            let mut server = builder
                .build()
                .map_err(|source| FleetError::Build { node: n, source })?;
            server.set_step_mode(self.step_mode);
            nodes.push(Node {
                server,
                up: true,
                failed_at: 0,
            });
        }

        // All nodes share one geometry and every title one length, so
        // one node's cycle config prices every session's nominal hold.
        let hold = nodes[0].server.cycle_config().session_cycles(self.tracks);

        let n = self.nodes;
        Ok(Fleet {
            nodes,
            placement,
            hold: hold.max(1),
            tracks: self.tracks,
            control: ControlPlane::new(n, self.control_seed),
            log_cursor: 0,
            sessions: Book::default(),
            queue: Vec::new(),
            cycle: 0,
            eff_up: vec![true; n],
            metrics: FleetMetrics::default(),
            par: self.par,
        })
    }
}

/// A sharded multi-node multimedia service behind one front-end.
pub struct Fleet {
    nodes: Vec<Node>,
    placement: PlacementMap,
    /// Nominal session hold in cycles (every title is as long).
    hold: u64,
    /// Data tracks of every title.
    tracks: u64,
    control: ControlPlane,
    log_cursor: usize,
    sessions: Book,
    /// Scheduled events, sorted by cycle descending (pop from the
    /// back), stable for equal cycles.
    queue: Vec<FleetEvent>,
    cycle: u64,
    /// Per-node serving eligibility: process up AND committed catalog
    /// view in sync. This is the slice every route consults.
    eff_up: Vec<bool>,
    metrics: FleetMetrics,
    par: Parallelism,
}

impl Fleet {
    /// Number of nodes in the ring.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Current fleet cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The placement map (immutable for the fleet's life).
    pub fn placement(&self) -> &PlacementMap {
        &self.placement
    }

    /// The control plane (committed view, leader, log, stats).
    pub fn control(&self) -> &ControlPlane {
        &self.control
    }

    /// Control-plane counters.
    pub fn control_stats(&self) -> &ControlStats {
        self.control.stats()
    }

    /// Fleet-level counters.
    pub fn metrics(&self) -> &FleetMetrics {
        &self.metrics
    }

    /// Read access to node `n`'s server.
    pub fn node(&self, n: usize) -> &MultimediaServer {
        &self.nodes[n].server
    }

    /// The node currently serving a live fleet stream (`None` once the
    /// stream ended, was dropped, or was lost).
    pub fn session_node(&self, id: FleetStreamId) -> Option<NodeId> {
        self.sessions.get(id.0).map(|s| NodeId(s.node))
    }

    /// Sessions stuck between a node death and its `NodeDown` commit.
    /// Nonzero after the run ends means the control plane lost quorum
    /// and could never agree to move them.
    pub fn stalled_sessions(&self) -> usize {
        self.sessions.iter().filter(|(_, s)| s.limbo).count()
    }

    /// Route and admit one stream for `object`.
    ///
    /// Routing consults the chained placement and the per-node serving
    /// eligibility (process up AND committed catalog in sync): primary
    /// first, then the chained secondary. No live replica is the typed
    /// [`RouteError::Unavailable`]; a full target node is
    /// [`FleetError::Admission`].
    pub fn admit(&mut self, object: ObjectId) -> Result<FleetStreamId, FleetError> {
        let target = match self.placement.route(object, &self.eff_up) {
            Ok(n) => n,
            Err(e) => {
                if matches!(e, RouteError::Unavailable(_)) {
                    self.metrics.unavailable += 1;
                }
                return Err(e.into());
            }
        };
        let ix = self
            .placement
            .index_of(object)
            .expect("routed objects are always in the catalog");
        let local = match self.nodes[target.0].server.admit(object) {
            Ok(id) => id,
            Err(ServerError::Admission(source)) => {
                self.metrics.rejected += 1;
                return Err(FleetError::Admission {
                    node: target.0,
                    source,
                });
            }
            Err(source) => {
                return Err(FleetError::Node {
                    node: target.0,
                    source,
                })
            }
        };
        let id = self.sessions.insert(FleetSession {
            node: target.0,
            local,
            obj_ix: ix,
            end: self.cycle + self.hold,
            limbo: false,
        });
        self.metrics.admitted += 1;
        let primary = self
            .placement
            .primary(object)
            .expect("routed objects always have a primary");
        if target != primary {
            self.metrics.re_routed_admissions += 1;
            event!(
                Level::Info,
                "fleet_re_route",
                stream = id,
                object = object.0,
                from = primary.0 as u64,
                to = target.0 as u64,
            );
        }
        event!(
            Level::Debug,
            "fleet_admit",
            stream = id,
            node = target.0 as u64,
            object = object.0,
        );
        Ok(FleetStreamId(id))
    }

    /// Release a fleet stream early (viewer stops watching).
    pub fn release(&mut self, id: FleetStreamId) -> bool {
        let Some(s) = self.sessions.remove(id.0) else {
            return false;
        };
        if !s.limbo {
            self.nodes[s.node].server.release(s.local);
        }
        self.metrics.released += 1;
        true
    }

    /// Inject a fleet-level event: applied now if due, else queued for
    /// its cycle (mirroring the single-server `inject` contract). An
    /// event naming a node outside the ring is [`FleetError::Config`],
    /// and nothing is applied or queued.
    pub fn inject(&mut self, event: FleetEvent) -> Result<(), FleetError> {
        let node = event.node();
        if node >= self.nodes.len() {
            // lint:allow(hot-path-alloc): only a refused event formats its error, off the per-cycle path
            return Err(FleetError::Config(format!(
                "no node {node} in a {}-node fleet",
                self.nodes.len()
            )));
        }
        if event.cycle() <= self.cycle {
            return self.apply_event(event);
        }
        // Keep the queue sorted by cycle descending so due events pop
        // off the back in injection order.
        let pos = self.queue.partition_point(|e| e.cycle() > event.cycle());
        self.queue.insert(pos, event);
        Ok(())
    }

    /// Advance the fleet one cycle: fire due scripted events, tick the
    /// control plane, execute newly committed decrees (failovers),
    /// release finished streams, and step every live node.
    ///
    /// Returns the typed [`FleetError::DataLoss`] when this cycle's
    /// failovers found replication exhausted; the fleet stays usable.
    pub fn step(&mut self) -> Result<(), FleetError> {
        self.fire_due_events()?;
        self.control.tick();
        let lost = self.apply_committed();
        self.release_due();
        self.step_nodes()?;
        self.cycle += 1;
        self.publish_gauges();
        if lost > 0 {
            return Err(FleetError::DataLoss { tracks: lost });
        }
        Ok(())
    }

    /// Run `cycles` steps, stopping at the first error (a data-loss
    /// verdict leaves the fleet usable; callers may resume).
    pub fn run(&mut self, cycles: u64) -> Result<(), FleetError> {
        for _ in 0..cycles {
            self.step()?;
        }
        Ok(())
    }

    /// Drive Zipf/Poisson traffic over the whole fleet for `cycles`
    /// cycles through the front-end router, processing any scripted
    /// events on the way. Data-loss verdicts are absorbed into the
    /// report (the service keeps running degraded, as a real fleet
    /// would).
    pub fn run_with_traffic<R: Rng + ?Sized>(
        &mut self,
        cycles: u64,
        rate: f64,
        theta: f64,
        rng: &mut R,
    ) -> Result<TrafficReport, FleetError> {
        let zipf = Zipf::new(self.placement.objects().len(), theta);
        let mut report = TrafficReport::default();
        for _ in 0..cycles {
            for _ in 0..poisson(rate, rng) {
                let object = self.placement.objects()[zipf.sample(rng)];
                report.offered += 1;
                match self.admit(object) {
                    Ok(_) => report.admitted += 1,
                    Err(FleetError::Admission { .. }) => report.rejected += 1,
                    Err(FleetError::Route(RouteError::Unavailable(_))) => report.unavailable += 1,
                    Err(e) => return Err(e),
                }
            }
            match self.step() {
                Ok(()) => {}
                Err(FleetError::DataLoss { tracks }) => report.tracks_lost += tracks,
                Err(e) => return Err(e),
            }
        }
        Ok(report)
    }

    /// The million-session path: shard the session workload over the
    /// live nodes and run every node's engine concurrently, each with
    /// its own derived seed and (typically) `StepMode::EventHorizon`.
    ///
    /// Each live node gets a [`SessionEngine`] over its *primary*
    /// shard of the catalog at `load` × its admission capacity; a node
    /// whose left ring neighbor is down also absorbs that neighbor's
    /// shard and offered rate (the chained-declustering failover
    /// load). Results are summed in ring order, so the report is
    /// bit-identical at any thread count.
    pub fn run_sharded_sessions(&mut self, cfg: &ShardedLoad) -> Result<ShardReport, FleetError> {
        let n = self.nodes.len();
        let mean_rate = {
            // Little's law per node: load × capacity concurrent
            // sessions of the catalog's hold.
            let cap = self.nodes[0].server.stream_capacity() as f64;
            cfg.load * cap / (self.hold as f64 * (1.0 - cfg.abandon / 2.0))
        };

        // Build each live node's engine: its primary shard, plus the
        // dead left neighbor's shard (chained failover traffic).
        let mut engines: Vec<Option<SessionEngine>> = Vec::with_capacity(n);
        for i in 0..n {
            if !self.eff_up[i] {
                engines.push(None);
                continue;
            }
            let left = (i + n - 1) % n;
            let absorb_left = !self.eff_up[left];
            let mut catalog: Vec<(ObjectId, u64)> = Vec::new();
            for (ix, &id) in self.placement.objects().iter().enumerate() {
                let primary = ix % n;
                if primary == i || (absorb_left && primary == left) {
                    catalog.push((id, self.hold));
                }
            }
            if catalog.is_empty() {
                engines.push(None);
                continue;
            }
            let rate = mean_rate * if absorb_left { 2.0 } else { 1.0 };
            let mut engine = SessionEngine::new(
                catalog,
                cfg.theta,
                mms_sim::ArrivalProcess::poisson(rate),
                cfg.policy,
            )
            .with_abandonment(cfg.abandon);
            if !cfg.vbr.is_empty() {
                engine = engine.with_vbr(cfg.vbr.clone());
            }
            engines.push(Some(engine));
        }

        let seeds = SeedSequence::new(cfg.seed);
        let cycles = cfg.cycles;
        let slots: Vec<Mutex<(&mut Node, Option<SessionEngine>)>> = self
            .nodes
            .iter_mut()
            .zip(engines)
            .map(|(node, engine)| Mutex::new((node, engine)))
            .collect();
        let results: Vec<Result<ShardReport, FleetError>> =
            par_map_indexed_min(self.par, n, 2, |i| {
                let mut guard = slots[i]
                    .lock()
                    .expect("fleet shard mutexes are uncontended and never poisoned");
                let (node, engine) = &mut *guard;
                let Some(engine) = engine.as_mut() else {
                    return Ok(ShardReport::default());
                };
                let pre = node.server.metrics().clone();
                let mut rng = StdRng::seed_from_u64(seeds.seed(i as u64));
                node.server
                    .run_sessions(cycles, engine, &mut rng)
                    .map_err(|source| FleetError::Node { node: i, source })?;
                let s = engine.stats();
                let m = node.server.metrics();
                Ok(ShardReport {
                    offered: s.offered,
                    admitted: s.admitted,
                    rejected: s.rejected,
                    balked: s.balked,
                    released_early: s.released_early,
                    delivered: m.delivered - pre.delivered,
                    hiccups: m.total_hiccups() - pre.total_hiccups(),
                })
            });
        drop(slots);

        let mut total = ShardReport::default();
        for r in results {
            let r = r?;
            total.offered += r.offered;
            total.admitted += r.admitted;
            total.rejected += r.rejected;
            total.balked += r.balked;
            total.released_early += r.released_early;
            total.delivered += r.delivered;
            total.hiccups += r.hiccups;
        }
        // Keep fleet time aligned with the node simulators.
        self.cycle += cycles;
        for _ in 0..cycles.min(64) {
            // Let any in-flight control-plane decrees settle; sharded
            // runs are failure-free so 64 ticks is ample.
            self.control.tick();
        }
        let lost = self.apply_committed();
        debug_assert_eq!(lost, 0, "sharded runs schedule no node failures");
        Ok(total)
    }

    // ---- internals ------------------------------------------------

    /// Pop and apply every queued event due at the current cycle.
    fn fire_due_events(&mut self) -> Result<(), FleetError> {
        while let Some(last) = self.queue.last() {
            if last.cycle() > self.cycle {
                break;
            }
            let event = self
                .queue
                .pop()
                .expect("queue non-empty: just peeked its last element");
            self.apply_event(event)?;
        }
        Ok(())
    }

    fn apply_event(&mut self, event: FleetEvent) -> Result<(), FleetError> {
        match event {
            // lint:allow(hot-path-alloc): node failure is a rare event, off the per-cycle path
            FleetEvent::NodeFail { node, .. } => self.fail_node_now(node),
            // lint:allow(hot-path-alloc): node repair is a rare event, off the per-cycle path
            FleetEvent::NodeRepair { node, .. } => self.repair_node_now(node),
            FleetEvent::Disk { node, event, .. } => {
                self.nodes[node]
                    .server
                    .inject(event)
                    .map_err(|source| FleetError::Node { node, source })?;
            }
        }
        Ok(())
    }

    /// A node process dies right now: stop routing to it, release its
    /// local streams into limbo, and ask the control plane to commit
    /// the failure (the failover itself waits for that decree).
    fn fail_node_now(&mut self, node: usize) {
        if !self.nodes[node].up {
            return;
        }
        self.nodes[node].up = false;
        self.nodes[node].failed_at = self.cycle;
        self.eff_up[node] = false;
        self.control.set_replica_up(node, false);
        self.control.submit(Command::NodeDown { node: node as u32 });
        self.metrics.node_failures += 1;
        let mut live = 0u64;
        let mut locals: Vec<StreamId> = Vec::new();
        for s in self.sessions.values_mut() {
            if s.node == node && !s.limbo {
                s.limbo = true;
                locals.push(s.local);
                live += 1;
            }
        }
        // The process is gone and its in-memory stream table with it;
        // drop the dead streams so a later repair restarts it empty.
        for local in locals {
            self.nodes[node].server.release(local);
        }
        event!(
            Level::Warn,
            "fleet_node_fail",
            node = node as u64,
            live_streams = live,
            cycle = self.cycle,
        );
    }

    /// A node process returns. It serves primaries again only once the
    /// control plane commits its `NodeUp` decree (catalog re-sync).
    fn repair_node_now(&mut self, node: usize) {
        if self.nodes[node].up {
            return;
        }
        self.nodes[node].up = true;
        self.control.set_replica_up(node, true);
        self.control.submit(Command::NodeUp { node: node as u32 });
        self.metrics.node_repairs += 1;
        event!(
            Level::Info,
            "fleet_node_repair",
            node = node as u64,
            cycle = self.cycle,
        );
    }

    /// Execute every decree committed since the last step. Returns the
    /// data tracks lost (0 unless replication was exhausted).
    fn apply_committed(&mut self) -> u64 {
        let mut lost = 0u64;
        while self.log_cursor < self.control.log().len() {
            let cmd = self.control.log()[self.log_cursor];
            self.log_cursor += 1;
            match cmd {
                // lint:allow(hot-path-alloc): failover runs once per committed NodeDown decree
                Command::NodeDown { node } => lost += self.failover(node as usize),
                Command::NodeUp { node } => {
                    let node = node as usize;
                    // Catalog replica re-synced: the node may serve
                    // primaries again (if its process is still up).
                    self.eff_up[node] = self.nodes[node].up;
                    event!(
                        Level::Info,
                        "fleet_catalog_repaired",
                        node = node as u64,
                        cycle = self.cycle,
                    );
                }
                Command::Lease { leader, epoch } => {
                    event!(
                        Level::Info,
                        "fleet_leader_elected",
                        leader = u64::from(leader),
                        epoch = u64::from(epoch),
                        cycle = self.cycle,
                    );
                }
            }
        }
        lost
    }

    /// The `NodeDown` decree committed: move every limbo stream of the
    /// dead node to its surviving replica. The cycles spent waiting
    /// for the decree are the stream's failover hiccups.
    fn failover(&mut self, node: usize) -> u64 {
        self.metrics.failovers += 1;
        let gap = self.cycle.saturating_sub(self.nodes[node].failed_at);
        self.metrics.max_failover_gap = self.metrics.max_failover_gap.max(gap);
        let affected: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.node == node && s.limbo)
            .map(|(id, _)| id)
            .collect();
        let mut lost = 0u64;
        let mut moved = 0u64;
        let mut dropped = 0u64;
        for id in affected {
            let s = *self
                .sessions
                .get(id)
                .expect("session id came from the book");
            let object = self.placement.objects()[s.obj_ix];
            let hiccups = gap.min(s.end.saturating_sub(self.nodes[node].failed_at));
            self.metrics.failover_hiccup_cycles += hiccups;
            if s.end <= self.cycle {
                // The viewer's hold expired while the decree was in
                // flight; nothing left to move.
                self.sessions.remove(id);
                self.metrics.released += 1;
                continue;
            }
            match self.placement.route(object, &self.eff_up) {
                Ok(target) => match self.nodes[target.0].server.admit(object) {
                    Ok(local) => {
                        let entry = self
                            .sessions
                            .get_mut(id)
                            .expect("session id came from the book");
                        entry.node = target.0;
                        entry.local = local;
                        entry.limbo = false;
                        moved += 1;
                        self.metrics.re_routed_streams += 1;
                        event!(
                            Level::Info,
                            "fleet_re_route",
                            stream = id,
                            object = object.0,
                            from = node as u64,
                            to = target.0 as u64,
                        );
                    }
                    Err(_) => {
                        // Secondary full: the viewer is dropped, but the
                        // data survives — not a data loss.
                        self.sessions.remove(id);
                        dropped += 1;
                        self.metrics.dropped_on_failover += 1;
                    }
                },
                Err(_) => {
                    // Replication exhausted: the remainder of this
                    // stream's object has no live copy.
                    let remaining = s.end - self.cycle;
                    let tracks = (self.tracks * remaining / self.hold).max(1);
                    lost += tracks;
                    self.sessions.remove(id);
                }
            }
        }
        if lost > 0 {
            self.metrics.tracks_lost += lost;
            self.metrics.data_loss_events += 1;
            event!(
                Level::Error,
                "fleet_data_loss",
                node = node as u64,
                tracks = lost,
                cycle = self.cycle,
            );
        }
        event!(
            Level::Warn,
            "fleet_failover",
            node = node as u64,
            re_routed = moved,
            dropped = dropped,
            gap_cycles = gap,
            cycle = self.cycle,
        );
        lost
    }

    /// Release every served session whose hold ended by the current
    /// cycle. A limbo viewer is frozen awaiting the failover decree; it
    /// is resolved when the decree commits — or never, if quorum is
    /// lost, which is what `stalled_sessions` reports.
    fn release_due(&mut self) {
        while let Some(s) = self.sessions.pop_due(self.cycle) {
            self.nodes[s.node].server.release(s.local);
            self.metrics.released += 1;
        }
    }

    /// Step every live node's simulator one cycle.
    fn step_nodes(&mut self) -> Result<(), FleetError> {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if !node.up {
                continue;
            }
            node.server
                .step()
                .map(|_| ())
                .map_err(|source| FleetError::Node { node: i, source })?;
        }
        Ok(())
    }

    fn publish_gauges(&self) {
        gauge!(
            "fleet.nodes_up",
            self.nodes.iter().filter(|n| n.up).count() as f64
        );
        gauge!("fleet.streams_active", self.sessions.len() as f64);
        gauge!("fleet.epoch", f64::from(self.control.epoch()));
        gauge!("fleet.decrees", self.control.stats().decrees as f64);
    }
}

/// Fleet-level mean time to data loss under chained declustering.
///
/// A fleet of `nodes` nodes loses data exactly when a node and its
/// right ring neighbor are down concurrently — every object placed
/// primarily on the first has its only replica on the second. On the
/// Monte-Carlo harness that is precisely
/// [`CatastropheRule::SameOrAdjacentCluster`](mms_reliability::CatastropheRule::SameOrAdjacentCluster)
/// with `c = 2` over
/// `d = nodes` units (1-wide clusters on a ring): the same estimator
/// the paper's disk-level analysis uses, lifted one level up.
pub fn fleet_mttf<R: Rng + ?Sized>(
    nodes: usize,
    rel: mms_disk::ReliabilityParams,
    rng: &mut R,
    trials: usize,
    par: Parallelism,
) -> mms_reliability::TrialStats {
    let mc = mms_reliability::MonteCarlo {
        d: nodes,
        rel,
        rule: mms_reliability::CatastropheRule::SameOrAdjacentCluster { c: 2 },
    };
    mc.run_par(rng, trials, par)
}

/// Fleet-level mean time to *degradation of service*: the control
/// plane needs a majority of replicas up to commit decrees, so it can
/// mask at most `⌈N/2⌉ − 1` concurrent node failures — one more and
/// failover/repair/election decrees stall. That is
/// [`CatastropheRule::AnyConcurrent`](mms_reliability::CatastropheRule::AnyConcurrent)
/// with `k` at the quorum
/// complement (`AnyConcurrent` masks `k` and is terminal at `k + 1`).
pub fn fleet_mttds<R: Rng + ?Sized>(
    nodes: usize,
    rel: mms_disk::ReliabilityParams,
    rng: &mut R,
    trials: usize,
    par: Parallelism,
) -> mms_reliability::TrialStats {
    let mc = mms_reliability::MonteCarlo {
        d: nodes,
        rel,
        rule: mms_reliability::CatastropheRule::AnyConcurrent {
            k: nodes.div_ceil(2) - 1,
        },
    };
    mc.run_par(rng, trials, par)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mms_sim::SplitMix64;

    /// A session tagged with its admission index in `obj_ix`.
    fn session(tag: usize, node: usize, end: u64) -> FleetSession {
        FleetSession {
            node,
            local: StreamId(tag as u64),
            obj_ix: tag,
            end,
            limbo: false,
        }
    }

    #[test]
    fn the_book_releases_in_admission_order_around_holes_and_limbo() {
        let mut book = Book::default();
        // Two admissions a cycle, each holding ten cycles.
        for tag in 0..10 {
            let id = book.insert(session(tag, tag % 3, 10 + tag as u64 / 2));
            assert_eq!(id, tag as u64);
        }
        // An early release and a failover drop leave holes.
        assert_eq!(book.remove(1).map(|s| s.obj_ix), Some(1));
        assert_eq!(book.remove(6).map(|s| s.obj_ix), Some(6));
        assert!(book.remove(6).is_none(), "a hole is released once");
        // Node 2's sessions (2, 5, 8) stop delivering: limbo.
        for s in book.values_mut().filter(|s| s.node == 2) {
            s.limbo = true;
        }
        let mut released = Vec::new();
        for cycle in 0..20 {
            while let Some(s) = book.pop_due(cycle) {
                released.push((cycle, s.obj_ix));
            }
        }
        assert_eq!(released, [(10, 0), (11, 3), (12, 4), (13, 7), (14, 9)]);
        // The limbo sessions left the slots but not the book.
        assert!(book.slots.is_empty());
        assert_eq!(book.base, 10);
        let left: Vec<u64> = book.iter().map(|(id, _)| id).collect();
        assert_eq!(left, [2, 5, 8]);
        assert_eq!(book.len(), 3);
        assert_eq!(book.get(5).map(|s| s.obj_ix), Some(5));
        assert_eq!(book.remove(5).map(|s| s.obj_ix), Some(5));
        assert!(book.get(5).is_none() && book.get(4).is_none());
        // Ids go on from where admission left off.
        assert_eq!(book.insert(session(10, 0, 30)), 10);
        let ids: Vec<u64> = book.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, [2, 8, 10]);
    }

    /// A fleet with one title per node: admit `per_node` viewers of
    /// each, then step once so they start.
    fn loaded_fleet(nodes: usize, per_node: usize) -> Fleet {
        let mut fleet = FleetBuilder::new(nodes)
            .catalog(nodes, 40)
            .build()
            .expect("fixed geometry builds");
        let titles = fleet.placement().objects().to_vec();
        for &title in &titles {
            for _ in 0..per_node {
                fleet.admit(title).expect("an empty node admits");
            }
        }
        fleet.step().expect("a healthy step");
        fleet
    }

    #[test]
    fn a_limbo_session_past_its_hold_is_released_once_by_its_failover() {
        // Two of three nodes down: no quorum, so no failover decree.
        let mut fleet = loaded_fleet(3, 4);
        let (hold, admitted) = (fleet.hold, fleet.metrics.admitted);
        fleet.fail_node_now(0);
        fleet.fail_node_now(1);
        fleet
            .run(hold + 5)
            .expect("no decree commits, so nothing is lost");
        let m = fleet.metrics;
        assert_eq!(m.failovers, 0);
        assert_eq!(fleet.stalled_sessions(), 8);
        assert_eq!(m.released, 4, "only node 2's sessions were served");
        assert!(fleet.sessions.slots.is_empty(), "limbo pins no slot");
        assert_eq!(fleet.sessions.expired.len(), 8);

        // Node 1 returns: quorum, and both NodeDown decrees commit.
        fleet.repair_node_now(1);
        fleet
            .run(200)
            .expect("expired sessions are released, not lost");
        let m = fleet.metrics;
        assert_eq!(m.failovers, 2);
        assert_eq!(fleet.stalled_sessions(), 0);
        assert_eq!(fleet.sessions.len(), 0);
        assert_eq!(m.released, admitted, "every session is released once");
        assert_eq!(
            m.tracks_lost + m.dropped_on_failover + m.re_routed_streams,
            0
        );
        // Each waited from its node's death to the end of its hold.
        assert_eq!(m.failover_hiccup_cycles, 8 * (hold - 1));
    }

    #[test]
    fn the_book_stays_one_hold_long_while_quorum_is_lost() {
        let mut fleet = loaded_fleet(3, 4);
        fleet.fail_node_now(0);
        fleet.fail_node_now(1);
        let hold = fleet.hold;
        let mut rng = SplitMix64::new(7);
        // Admissions of the last `hold` cycles, a ring indexed by cycle;
        // the loaded fleet's twelve came at cycle 0.
        let mut recent = vec![0u64; hold as usize];
        recent[0] = fleet.metrics.admitted;
        for _ in 0..20_000 {
            let cycle = fleet.cycle();
            let report = fleet
                .run_with_traffic(1, 1.0, 0.271, &mut rng)
                .expect("no decree commits, so nothing is lost");
            recent[(cycle % hold) as usize] = report.admitted;
            let window: u64 = recent.iter().sum();
            assert!(
                fleet.sessions.slots.len() as u64 <= window,
                "cycle {cycle}: {} slots for {window} admissions in one hold",
                fleet.sessions.slots.len()
            );
            assert!(fleet.sessions.expired.len() <= fleet.stalled_sessions());
        }
        assert_eq!(fleet.sessions.expired.len(), 8);
        assert_eq!(fleet.stalled_sessions(), 8);
        assert_eq!(fleet.metrics.failovers, 0);
    }
}
