//! Non-clustered scheduling with a buffer pool (Section 3).
//!
//! Normal mode reads only what the next cycle delivers (`k = k' = 1`);
//! parity is *not* read, so buffering drops to 2 tracks per stream. When a
//! disk fails, the affected cluster transitions to degraded mode (entire
//! parity group read at once, buffered at a shared buffer server) and a
//! bounded number of tracks is lost during the transition — the scenarios
//! of Figures 6 and 7, both of which this module reproduces exactly.
//!
//! The same normal mode with nothing to fall back on is the
//! no-redundancy baseline Section 1 argues against
//! ([`NonClusteredScheduler::unprotected`]): "a disk failure can result
//! in interruption of requests in progress. … a single disk failure can
//! cause multiple hiccups in the display of many objects. These hiccups
//! will repeat at regular intervals each time an object being displayed
//! needs data from the failed disk. … Therefore, without some form of
//! fault tolerance, such a system is not likely to be acceptable."

use crate::cycle::CycleConfig;
use crate::plan::{CyclePlan, Delivery, LossReason, LostBlock, PlannedRead, ReadPurpose};
use crate::streams::{StreamId, StreamInfo};
use crate::table::{ClassTable, Seat, Slot, StreamTable};
use crate::traits::{
    AdmissionError, FailureReport, PlanStability, SchemeKind, SchemeScheduler, SteadyCycle,
};
use mms_buffer::BufferServerPool;
use mms_disk::DiskId;
use mms_layout::{BlockAddr, Catalog, ClusterId, ClusteredLayout, Layout, ObjectId};
use std::collections::{BTreeMap, BTreeSet};

/// How a cluster transitions to degraded mode when one of its disks fails
/// (Section 3 describes both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionPolicy {
    /// The straightforward shift of Figure 6: "when a disk fails the
    /// schedule is changed to a complete Streaming RAID type schedule for
    /// this cluster" — every in-flight group's remaining tracks move to
    /// the failure cycle; groups that cannot be fully reconstructed are
    /// abandoned, and moved reads may displace scheduled ones when slots
    /// are full.
    Simple,
    /// The alternate scheme of Figure 7: "delay early reading of tracks
    /// … until the cycle in which they are needed", buffering a running
    /// XOR of already-delivered tracks. Loses strictly fewer tracks.
    Delayed,
}

impl TransitionPolicy {
    /// The policy's lowercase label, used in telemetry events.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            TransitionPolicy::Simple => "simple",
            TransitionPolicy::Delayed => "delayed",
        }
    }
}

/// A stream's slot, as the planning helpers see it. Its seat in the
/// class table is the only per-stream state beyond the shared header,
/// so a slot is all scalars and the copy `plan_cycle_into` takes of it
/// is a plain copy — no heap traffic on the hot path.
type NcStream = Slot<Seat>;

/// Degraded-cluster state. Failure positions beyond the first are kept
/// as a bitmask (positions are within one cluster, bounded well below
/// 128) so the struct is `Copy` and the planning hot path can snapshot
/// it without touching the heap.
#[derive(Debug, Clone, Copy)]
struct Degraded {
    /// Failed disk position within the cluster (`C−1` = parity disk).
    failed_pos: u32,
    /// Cycle from which the failure is effective.
    since: u64,
    /// Second failure positions (catastrophic), one bit per position.
    also_failed: u128,
}

impl Degraded {
    /// Does the bitmask of *additional* failures contain `pos`?
    fn also_contains(self, pos: u32) -> bool {
        self.also_failed & (1u128 << pos) != 0
    }

    /// Every failed position (first and subsequent) as one bitmask.
    fn all_failed_mask(self) -> u128 {
        self.also_failed | (1u128 << self.failed_pos)
    }
}

/// The Non-clustered scheduler (`k = k' = 1`).
#[derive(Debug, Clone)]
pub struct NonClusteredScheduler {
    config: CycleConfig,
    catalog: Catalog<ClusteredLayout>,
    /// How a cluster goes degraded; `None` for the unprotected server,
    /// which never does.
    policy: Option<TransitionPolicy>,
    streams: StreamTable<Seat>,
    /// Streams with reads still to issue, per admission class.
    classes: ClassTable,
    degraded: BTreeMap<ClusterId, Degraded>,
    /// Blocks that will never be delivered, keyed by delivery cycle.
    pending_losses: BTreeMap<u64, Vec<LostBlock>>,
    /// Normal-schedule reads cancelled by a transition (moved or lost):
    /// `(stream, group, index)`.
    suppressed: BTreeSet<(StreamId, u64, u32)>,
    /// Extra reads injected by a transition, keyed by cycle.
    extra_reads: BTreeMap<u64, Vec<(DiskId, PlannedRead)>>,
    /// Blocks that will be delivered as reconstructed: `(stream, group,
    /// index)`.
    reconstructions: BTreeSet<(StreamId, u64, u32)>,
    /// Buffer frees scheduled for future cycles (tracks read early are
    /// held until their delivery cycle), keyed by cycle; each entry frees
    /// one track and names the block so a displaced read can cancel its
    /// pending free.
    deferred_frees: BTreeMap<u64, Vec<(StreamId, BlockAddr)>>,
    /// Frees owed to buffer-server pools: (cycle → (cluster, stream,
    /// tracks)). Degraded-mode group buffers are charged to the cluster's
    /// attached server so §3's sizing (BF_SG/(D′/C) per server) is
    /// *enforced*, not just provisioned.
    server_frees: BTreeMap<u64, Vec<(u32, StreamId, usize)>>,
    servers: BufferServerPool,
    /// Reusable list of blocks displaced past slot capacity this cycle.
    displaced_scratch: Vec<LostBlock>,
    /// Reusable list of parity reads displaced past slot capacity.
    displaced_parity_scratch: Vec<(StreamId, u64)>,
    /// Reusable partitions for the slot-capacity priority sort.
    keep_scratch: Vec<PlannedRead>,
    spill_scratch: Vec<PlannedRead>,
}

impl NonClusteredScheduler {
    /// Build a scheduler over a populated catalog.
    ///
    /// `buffer_servers` is the paper's `K_NC`: how many concurrently
    /// degraded clusters can be absorbed before service degrades.
    ///
    /// # Panics
    /// Panics unless `k = k' = 1`.
    #[must_use]
    pub fn new(
        config: CycleConfig,
        catalog: Catalog<ClusteredLayout>,
        policy: TransitionPolicy,
        buffer_servers: usize,
    ) -> Self {
        Self::with_policy(config, catalog, Some(policy), buffer_servers)
    }

    /// The unprotected striped server: normal mode only — no transition
    /// policy, no buffer servers, no parity read ever. Every block on a
    /// failed disk is a hiccup, repeating every rotation until repair —
    /// the quantitative foil for every scheme in the comparison benches.
    ///
    /// It runs over the same clustered layout as the protected schemes so
    /// comparisons are apples-to-apples; the dedicated parity disks exist
    /// on the layout but are never read, exactly as they would be absent
    /// in a truly parity-free layout (the data-disk schedule is identical
    /// either way).
    ///
    /// # Panics
    /// Panics unless `k = k' = 1`.
    #[must_use]
    pub fn unprotected(config: CycleConfig, catalog: Catalog<ClusteredLayout>) -> Self {
        Self::with_policy(config, catalog, None, 0)
    }

    fn with_policy(
        config: CycleConfig,
        catalog: Catalog<ClusteredLayout>,
        policy: Option<TransitionPolicy>,
        buffer_servers: usize,
    ) -> Self {
        assert_eq!(config.k, 1, "Non-clustered requires k = 1");
        assert_eq!(config.k_prime, 1, "Non-clustered requires k' = 1");
        assert!(
            catalog.layout().geometry().disks_per_cluster() <= 128,
            "failure bitmask supports at most 128 disks per cluster"
        );
        // Each degraded cluster needs the staggered-group buffer profile:
        // C(C+1)/2 tracks per C−1 streams, bounded by slots per class.
        let c = catalog.layout().geometry().group_size() as usize;
        let per_server = (c * (c + 1) / 2) * config.slots_per_disk();
        let bpg = u64::from(catalog.layout().blocks_per_group());
        let classes = ClassTable::new(bpg, *catalog.layout().geometry());
        NonClusteredScheduler {
            config,
            catalog,
            policy,
            streams: StreamTable::new(bpg),
            classes,
            degraded: BTreeMap::new(),
            pending_losses: BTreeMap::new(),
            suppressed: BTreeSet::new(),
            extra_reads: BTreeMap::new(),
            reconstructions: BTreeSet::new(),
            deferred_frees: BTreeMap::new(),
            server_frees: BTreeMap::new(),
            servers: BufferServerPool::new(buffer_servers, per_server),
            displaced_scratch: Vec::new(),
            displaced_parity_scratch: Vec::new(),
            keep_scratch: Vec::new(),
            spill_scratch: Vec::new(),
        }
    }

    /// The catalog.
    #[must_use]
    pub fn catalog(&self) -> &Catalog<ClusteredLayout> {
        &self.catalog
    }

    /// The transition policy in force (none: an unprotected server).
    #[must_use]
    pub fn policy(&self) -> Option<TransitionPolicy> {
        self.policy
    }

    /// The buffer-server pool (to observe degraded-cluster attachment).
    #[must_use]
    pub fn servers(&self) -> &BufferServerPool {
        &self.servers
    }

    fn bpg(&self) -> u64 {
        u64::from(self.catalog.layout().blocks_per_group())
    }

    /// Stream's group-start cycle for group `g`.
    fn group_start(&self, s: &NcStream, g: u64) -> u64 {
        s.start_cycle + g * self.bpg()
    }

    /// The stream's (group, index) position at cycle `t`, if active.
    fn position_at(&self, s: &NcStream, t: u64) -> Option<(u64, u32)> {
        if t < s.start_cycle {
            return None;
        }
        let rel = t - s.start_cycle;
        let g = rel / self.bpg();
        if g >= s.groups {
            return None;
        }
        Some((g, (rel % self.bpg()) as u32))
    }

    fn record_loss(&mut self, loss: LostBlock) {
        mms_telemetry::counter!(
            "sched.tracks_lost",
            1,
            scheme = "NC",
            reason = loss.reason.as_str()
        );
        self.pending_losses
            .entry(loss.delivery_cycle)
            .or_default()
            .push(loss);
    }

    /// Is this group's read handled group-at-a-time (degraded steady
    /// state)? True when its cluster is degraded and either the policy is
    /// simple or the group starts after the C-cycle transition window.
    fn group_at_a_time(&self, cluster: ClusterId, group_start: u64) -> bool {
        let Some(policy) = self.policy else {
            return false; // nothing to fall back on
        };
        let parity_pos = self.catalog.layout().geometry().disks_per_cluster() - 1;
        match self.degraded.get(&cluster) {
            None => false,
            Some(d) => {
                if d.failed_pos == parity_pos && d.also_failed == 0 {
                    // Parity-disk failure: data flow is unaffected; stay
                    // in normal per-cycle mode (unprotected).
                    false
                } else if group_start < d.since {
                    false // in-flight at failure: handled by transition
                } else {
                    match policy {
                        TransitionPolicy::Simple => true,
                        TransitionPolicy::Delayed => {
                            let window = u64::from(self.catalog.layout().geometry().group_size());
                            group_start >= d.since + window
                        }
                    }
                }
            }
        }
    }

    /// Is this group's read handled by delayed per-cycle reconstruction?
    fn delayed_window(&self, cluster: ClusterId, group_start: u64) -> bool {
        if self.policy != Some(TransitionPolicy::Delayed) {
            return false;
        }
        let parity_pos = self.catalog.layout().geometry().disks_per_cluster() - 1;
        match self.degraded.get(&cluster) {
            None => false,
            Some(d) => {
                if d.failed_pos == parity_pos {
                    return false;
                }
                let window = u64::from(self.catalog.layout().geometry().group_size());
                group_start >= d.since && group_start < d.since + window
            }
        }
    }

    /// Plan the group-at-a-time reads for a group starting now.
    #[allow(clippy::too_many_arguments)]
    fn plan_group_at_once(
        &mut self,
        plan: &mut CyclePlan,
        ix: usize,
        s: &NcStream,
        g: u64,
        cycle: u64,
        degraded: &Degraded,
        parity_alive: bool,
    ) {
        let id = s.id();
        let layout = *self.catalog.layout();
        let geometry = *layout.geometry();
        let blocks = s.blocks_in_group(g, self.bpg());
        let failed_positions = degraded.all_failed_mask();
        // A single data-disk failure with live parity is reconstructable;
        // anything more loses the affected blocks.
        let data_mask = (1u128 << (geometry.disks_per_cluster() - 1)) - 1;
        let data_failures = (failed_positions & data_mask).count_ones();
        let recoverable = parity_alive && data_failures <= 1;
        let mut reads = 0usize;
        for i in 0..blocks {
            let p = layout.data_placement(s.start_cluster, g, i);
            let pos = geometry.position_in_cluster(p.disk);
            if failed_positions & (1u128 << pos) != 0 {
                if recoverable {
                    self.reconstructions.insert((id, g, i));
                    self.deferred_frees
                        .entry(cycle + u64::from(i) + 1)
                        .or_default()
                        .push((id, BlockAddr::data(s.object, g, i)));
                } else {
                    self.record_loss(LostBlock {
                        stream: id,
                        addr: BlockAddr::data(s.object, g, i),
                        reason: LossReason::FailedDisk,
                        delivery_cycle: cycle + u64::from(i) + 1,
                    });
                }
                continue;
            }
            plan.reads.push(
                p.disk,
                PlannedRead {
                    stream: id,
                    addr: BlockAddr::data(s.object, g, i),
                    purpose: ReadPurpose::Reconstruction,
                },
            );
            reads += 1;
            self.deferred_frees
                .entry(cycle + u64::from(i) + 1)
                .or_default()
                .push((id, BlockAddr::data(s.object, g, i)));
        }
        if recoverable && failed_positions & ((1u128 << blocks) - 1) != 0 {
            let pp = layout.parity_placement(s.start_cluster, g);
            plan.reads.push(
                pp.disk,
                PlannedRead {
                    stream: id,
                    addr: BlockAddr::parity(s.object, g),
                    purpose: ReadPurpose::Parity,
                },
            );
            reads += 1;
            // The parity buffer morphs into the reconstructed block whose
            // free is registered above, so no separate free entry.
        }
        self.streams
            .alloc(ix, reads)
            .expect("unbounded pool never refuses an allocation");
        // Charge the degraded cluster's buffer server: the group is held
        // there until delivered ("a cluster in degraded mode sends the
        // data read from the disk to the buffer server"), draining one
        // track per delivery cycle — the staggered-group profile Eq. 14
        // sizes each server for. Overflow would be a sizing bug,
        // surfaced loudly.
        let cluster_id = layout.data_cluster(s.start_cluster, g).0;
        if let Some(server) = self.servers.server_for(cluster_id) {
            server
                .pool_mut()
                .alloc(mms_buffer::OwnerId(id.0), reads)
                .expect("buffer server sized for its cluster's degraded load");
            let mut remaining = reads;
            for i in 0..blocks {
                if remaining == 0 {
                    break;
                }
                // One buffer drains per delivery slot; lost blocks (never
                // buffered) skip their slot.
                let buffered = {
                    let p = layout.data_placement(s.start_cluster, g, i);
                    let pos = geometry.position_in_cluster(p.disk);
                    recoverable || failed_positions & (1u128 << pos) == 0
                };
                if buffered {
                    self.server_frees
                        .entry(cycle + u64::from(i) + 1)
                        .or_default()
                        .push((cluster_id, id, 1));
                    remaining -= 1;
                }
            }
        }
    }

    /// Apply the Figure-6 simple transition for one in-flight stream.
    fn simple_transition_for(&mut self, s: &NcStream, g: u64, p: u32, since: u64, failed_pos: u32) {
        let id = s.id();
        let layout = *self.catalog.layout();
        let geometry = *layout.geometry();
        let blocks = s.blocks_in_group(g, self.bpg());
        let t_g = self.group_start(s, g);
        for q in p..blocks {
            let delivery_cycle = t_g + u64::from(q) + 1;
            let addr = BlockAddr::data(s.object, g, q);
            let placement = layout.data_placement(s.start_cluster, g, q);
            let pos = geometry.position_in_cluster(placement.disk);
            self.suppressed.insert((id, g, q));
            if pos == failed_pos {
                // Unreconstructable: earlier members were delivered and
                // discarded before the failure.
                self.record_loss(LostBlock {
                    stream: id,
                    addr,
                    reason: LossReason::FailedDisk,
                    delivery_cycle,
                });
            } else {
                // Moved forward to the failure cycle (salvage attempt;
                // may be displaced there if slots are full).
                self.extra_reads.entry(since).or_default().push((
                    placement.disk,
                    PlannedRead {
                        stream: id,
                        addr,
                        purpose: ReadPurpose::Delivery,
                    },
                ));
            }
        }
    }

    /// Apply the Figure-7 delayed transition for one in-flight stream.
    fn delayed_transition_for(&mut self, s: &NcStream, g: u64, p: u32, failed_pos: u32) {
        let id = s.id();
        let blocks = s.blocks_in_group(g, self.bpg());
        let t_g = self.group_start(s, g);
        // Only the block on the failed disk is lost (if not yet read);
        // everything else keeps its original schedule.
        if failed_pos < blocks && failed_pos >= p {
            self.suppressed.insert((id, g, failed_pos));
            self.record_loss(LostBlock {
                stream: id,
                addr: BlockAddr::data(s.object, g, failed_pos),
                reason: LossReason::FailedDisk,
                delivery_cycle: t_g + u64::from(failed_pos) + 1,
            });
        }
    }

    /// Plan the delayed-window reads for a group starting at `t_g`
    /// (failure-window groups under the delayed policy): normal per-cycle
    /// reads before the failed position, everything after it plus parity
    /// at the reconstruction deadline `t_g + f`.
    fn plan_delayed_group_events(
        &mut self,
        s: &NcStream,
        g: u64,
        failed_pos: u32,
        parity_alive: bool,
    ) {
        let id = s.id();
        let layout = *self.catalog.layout();
        let blocks = s.blocks_in_group(g, self.bpg());
        let t_g = self.group_start(s, g);
        if failed_pos >= blocks {
            return; // failed disk not used by this (partial) group
        }
        if !parity_alive {
            self.suppressed.insert((id, g, failed_pos));
            self.record_loss(LostBlock {
                stream: id,
                addr: BlockAddr::data(s.object, g, failed_pos),
                reason: LossReason::FailedDisk,
                delivery_cycle: t_g + u64::from(failed_pos) + 1,
            });
            return;
        }
        let deadline = t_g + u64::from(failed_pos);
        self.suppressed.insert((id, g, failed_pos));
        self.reconstructions.insert((id, g, failed_pos));
        // The XOR accumulator occupies one track from group start until
        // the reconstructed block is delivered.
        self.deferred_frees
            .entry(deadline + 1)
            .or_default()
            .push((id, BlockAddr::data(s.object, g, failed_pos)));
        self.extra_reads.entry(t_g).or_default().push((
            // Accumulator "allocation marker": zero-disk read is not
            // representable, so charge the buffer directly at plan time
            // via a sentinel handled in plan_cycle. Instead we charge it
            // here against the pool immediately if the group has already
            // started; otherwise plan_cycle charges it when t_g arrives.
            DiskId(u32::MAX),
            PlannedRead {
                stream: id,
                addr: BlockAddr::data(s.object, g, failed_pos),
                purpose: ReadPurpose::Reconstruction,
            },
        ));
        // Blocks after the failed position move up to the deadline.
        for q in (failed_pos + 1)..blocks {
            let placement = layout.data_placement(s.start_cluster, g, q);
            self.suppressed.insert((id, g, q));
            self.extra_reads.entry(deadline).or_default().push((
                placement.disk,
                PlannedRead {
                    stream: id,
                    addr: BlockAddr::data(s.object, g, q),
                    purpose: ReadPurpose::Reconstruction,
                },
            ));
            // Held from the deadline until delivery.
            self.deferred_frees
                .entry(t_g + u64::from(q) + 1)
                .or_default()
                .push((id, BlockAddr::data(s.object, g, q)));
        }
        // Parity at the deadline (absorbed into the reconstruction, so
        // its buffer is the accumulator's — no extra charge).
        let pp = layout.parity_placement(s.start_cluster, g);
        self.extra_reads.entry(deadline).or_default().push((
            pp.disk,
            PlannedRead {
                stream: id,
                addr: BlockAddr::parity(s.object, g),
                purpose: ReadPurpose::Parity,
            },
        ));
    }

    /// Transition marks are consulted once — `suppressed` when block
    /// (g, i) would be read at `start + g·bpg + i`, `reconstructions`
    /// when it is delivered the cycle after. One whose moment has passed,
    /// or whose stream has retired or been truncated short of it, only
    /// keeps `plan_stability` shut: drop it. That matters once every
    /// cluster is healthy again — a degraded one keeps the window shut
    /// anyway — so the sets are left alone (and keep their storage) while
    /// a transition is still adding to them.
    fn drop_spent_marks(&mut self) {
        if !self.degraded.is_empty()
            || (self.suppressed.is_empty() && self.reconstructions.is_empty())
        {
            return;
        }
        let (streams, bpg) = (&self.streams, self.bpg());
        let pending = |&(id, g, i): &(StreamId, u64, u32), lag: u64| {
            streams.find(id).is_some_and(|ix| {
                let s = streams.slot(ix);
                let due = s.start_cycle + g * bpg + u64::from(i) + lag;
                g < s.groups && due >= streams.next_cycle()
            })
        };
        self.suppressed.retain(|mark| pending(mark, 0));
        self.reconstructions.retain(|mark| pending(mark, 1));
    }

    /// Fully-normal mode: no degraded cluster, no transition debris in
    /// flight, and nothing buffered ahead but last cycle's reads — one
    /// pending free per stream, due when the next cycle ends.
    fn settled(&self) -> bool {
        self.degraded.is_empty()
            && self.pending_losses.is_empty()
            && self.suppressed.is_empty()
            && self.extra_reads.is_empty()
            && self.reconstructions.is_empty()
            && self.server_frees.is_empty()
            && self.deferred_frees.len() <= 1
            && self
                .deferred_frees
                .first_key_value()
                .is_none_or(|(&due, frees)| {
                    due == self.streams.next_cycle() && frees.len() == self.streams.len()
                })
    }

    /// Register a newly staged object in the catalog (the tertiary →
    /// disk load path of Figure 1).
    pub fn register_object(
        &mut self,
        object: mms_layout::MediaObject,
    ) -> Result<(), mms_layout::CatalogError> {
        self.catalog.add(object).map(|_| ())
    }

    /// Retire an object from the catalog (the purge path), refusing while
    /// any stream is still delivering it.
    pub fn retire_object(&mut self, object: ObjectId) -> Result<(), crate::traits::RetireError> {
        self.streams.retire_object(&mut self.catalog, object)
    }

    /// `(len, capacity)` of each scratch pool, for the churn leak test.
    #[cfg(test)]
    pub(crate) fn scratch_footprint(&self) -> Vec<(usize, usize)> {
        vec![
            (
                self.displaced_scratch.len(),
                self.displaced_scratch.capacity(),
            ),
            (
                self.displaced_parity_scratch.len(),
                self.displaced_parity_scratch.capacity(),
            ),
            (self.keep_scratch.len(), self.keep_scratch.capacity()),
            (self.spill_scratch.len(), self.spill_scratch.capacity()),
        ]
    }
}

/// The `mode_transition` event, with the policy that shaped it.
fn emit_transition(
    policy: TransitionPolicy,
    cluster: ClusterId,
    cycle: u64,
    from: &'static str,
    to: &'static str,
) {
    mms_telemetry::event!(
        mms_telemetry::Level::Info,
        "mode_transition",
        scheme = "NC",
        cluster = cluster.0,
        cycle = cycle,
        from = from,
        to = to,
        policy = policy.as_str()
    );
}

impl SchemeScheduler for NonClusteredScheduler {
    fn scheme(&self) -> SchemeKind {
        SchemeKind::NonClustered
    }

    fn config(&self) -> &CycleConfig {
        &self.config
    }

    fn admit(&mut self, object: ObjectId, at_cycle: u64) -> Result<StreamId, AdmissionError> {
        let placed = self.streams.placement(&self.catalog, object, at_cycle)?;
        // A seat is held only while reads remain: a stream whose final
        // read has been issued no longer occupies its slot.
        let class = self.classes.class_of(placed.start_cluster, at_cycle);
        if self.streams.contenders(&self.classes, class, at_cycle) >= self.config.slots_per_disk() {
            return Err(AdmissionError::AtCapacity {
                active: self.streams.len(),
                limit: self.stream_capacity(),
            });
        }
        let seat = self.classes.seat(class);
        Ok(self.streams.admit(placed, at_cycle, seat))
    }

    fn stream_capacity(&self) -> usize {
        self.config.slots_per_disk() * self.classes.classes()
    }

    fn active_streams(&self) -> usize {
        self.streams.len()
    }

    fn stream_info(&self, id: StreamId) -> Option<StreamInfo> {
        self.streams.stream_info(id)
    }

    fn release(&mut self, id: StreamId) -> bool {
        // A stream that has read nothing retires at once; transition
        // state keyed by it is tolerated by the delivery and
        // deferred-free paths, which ignore unknown streams. Otherwise
        // the started group's remaining blocks drain (including any
        // degraded-mode reconstruction already planned) and the normal
        // finish path retires the stream.
        self.streams.release_seated(id, &mut self.classes)
    }

    fn plan_cycle_into(&mut self, cycle: u64, plan: &mut CyclePlan) {
        self.streams.begin_cycle(cycle);
        plan.reset(cycle);
        let layout = *self.catalog.layout();
        let geometry = *layout.geometry();
        let slots = self.streams.slots();

        // 1. Normal-schedule reads + group-at-a-time + delayed-window
        //    planning for groups starting this cycle.
        for ix in 0..slots {
            let s = *self.streams.slot(ix);
            let id = s.id();
            let Some((g, i)) = self.position_at(&s, cycle) else {
                continue;
            };
            self.streams.vacate_if_reads_done(ix, &mut self.classes);
            let blocks = s.blocks_in_group(g, self.bpg());
            let cluster = layout.data_cluster(s.start_cluster, g);
            let t_g = self.group_start(&s, g);

            if i == 0 {
                if self.group_at_a_time(cluster, t_g) {
                    let d = self
                        .degraded
                        .get(&cluster)
                        .copied()
                        .expect("group_at_a_time is only true for degraded clusters");
                    let parity_pos = geometry.disks_per_cluster() - 1;
                    let parity_alive = d.failed_pos != parity_pos && !d.also_contains(parity_pos);
                    self.plan_group_at_once(plan, ix, &s, g, cycle, &d, parity_alive);
                    continue;
                }
                if self.delayed_window(cluster, t_g) {
                    let d = self
                        .degraded
                        .get(&cluster)
                        .copied()
                        .expect("delayed_window is only true for degraded clusters");
                    let parity_alive = d.failed_pos != geometry.disks_per_cluster() - 1;
                    self.plan_delayed_group_events(&s, g, d.failed_pos, parity_alive);
                    // Normal per-cycle reads still apply below for the
                    // non-suppressed positions.
                }
            }

            // Normal read of block (g, i), unless suppressed or this
            // group is handled group-at-a-time (its start planned all
            // reads already).
            if i < blocks
                && !self.group_at_a_time(cluster, t_g)
                && !self.suppressed.contains(&(id, g, i))
            {
                let p = layout.data_placement(s.start_cluster, g, i);
                let pos = geometry.position_in_cluster(p.disk);
                let failed_here = self
                    .degraded
                    .get(&cluster)
                    .map(|d| d.failed_pos == pos || d.also_contains(pos))
                    .unwrap_or(false);
                if failed_here {
                    // A normal read aimed at a failed disk with no
                    // transition plan covering it: lost.
                    self.record_loss(LostBlock {
                        stream: id,
                        addr: BlockAddr::data(s.object, g, i),
                        reason: LossReason::FailedDisk,
                        delivery_cycle: cycle + 1,
                    });
                } else {
                    plan.reads.push(
                        p.disk,
                        PlannedRead {
                            stream: id,
                            addr: BlockAddr::data(s.object, g, i),
                            purpose: ReadPurpose::Delivery,
                        },
                    );
                    self.streams
                        .alloc(ix, 1)
                        .expect("unbounded pool never refuses an allocation");
                    self.deferred_frees
                        .entry(cycle + 1)
                        .or_default()
                        .push((id, BlockAddr::data(s.object, g, i)));
                }
            }
        }

        // 3. Inject transition extra reads for this cycle.
        if let Some(extras) = self.extra_reads.remove(&cycle) {
            for (disk, read) in extras {
                // One buffer per extra read, or for the XOR accumulator
                // the zero-disk marker stands for. A stream dropped
                // since the transition was planned has no slot to charge
                // (and its pending free will find none to release).
                if let Some(ix) = self.streams.find(read.stream) {
                    self.streams
                        .alloc(ix, 1)
                        .expect("unbounded pool never refuses an allocation");
                }
                if disk == DiskId(u32::MAX) {
                    continue;
                }
                plan.reads.push(disk, read);
                // Freed at the block's delivery cycle — registered by the
                // transition planner (deferred_frees). Parity reads are
                // absorbed into the reconstruction: free next cycle.
                if read.addr.kind == mms_layout::BlockKind::Parity {
                    self.deferred_frees
                        .entry(cycle + 1)
                        .or_default()
                        .push((read.stream, read.addr));
                }
            }
        }

        // 4. Slot-capacity enforcement with priorities: Reconstruction and
        //    Parity reads outrank plain Delivery reads; displaced Delivery
        //    reads are lost ("this will only occur if all the slots … are
        //    occupied"). If reconstruction demand alone exceeds a disk's
        //    slots (possible at full load around the transition-window
        //    boundary), the excess reconstruction reads are displaced too
        //    and their blocks are lost — the hardware budget is absolute.
        let cap = self.config.slots_per_disk();
        let mut displaced = std::mem::take(&mut self.displaced_scratch);
        displaced.clear();
        let mut displaced_parity = std::mem::take(&mut self.displaced_parity_scratch);
        displaced_parity.clear();
        let mut keep = std::mem::take(&mut self.keep_scratch);
        let mut spill = std::mem::take(&mut self.spill_scratch);
        for disk in (0..geometry.disks()).map(DiskId) {
            if plan.load_on(disk) <= cap {
                continue;
            }
            // Stable partition: keep high-priority reads first.
            keep.clear();
            spill.clear();
            for r in plan.reads.singles_on(disk).iter().copied() {
                if r.purpose != ReadPurpose::Delivery {
                    keep.push(r);
                } else {
                    spill.push(r);
                }
            }
            // Reconstruction overload: spill the most recently planned
            // high-priority reads beyond capacity.
            while keep.len() > cap {
                spill.push(
                    keep.pop()
                        .expect("loop condition guarantees keep is non-empty"),
                );
            }
            let mut room = cap.saturating_sub(keep.len());
            for r in spill.drain(..) {
                if room > 0 && r.purpose == ReadPurpose::Delivery {
                    keep.push(r);
                    room -= 1;
                    continue;
                }
                match r.addr.kind {
                    mms_layout::BlockKind::Data(ix) => {
                        let owner = self
                            .streams
                            .find(r.stream)
                            .expect("a planned read belongs to a live stream");
                        let delivery_cycle = {
                            let st = self.streams.slot(owner);
                            let bpg = u64::from(layout.blocks_per_group());
                            st.start_cycle + r.addr.group * bpg + u64::from(ix) + 1
                        };
                        displaced.push(LostBlock {
                            stream: r.stream,
                            addr: r.addr,
                            reason: LossReason::Displaced,
                            delivery_cycle,
                        });
                        // Undo the displaced read's buffer charge and
                        // cancel its pending free.
                        let _ = self.streams.free(owner, 1);
                        if let Some(entries) = self.deferred_frees.get_mut(&delivery_cycle) {
                            if let Some(jx) = entries
                                .iter()
                                .position(|(sid, a)| *sid == r.stream && *a == r.addr)
                            {
                                entries.swap_remove(jx);
                            }
                        }
                        // A lost reconstruction target is no longer
                        // reconstructed.
                        self.reconstructions.remove(&(r.stream, r.addr.group, ix));
                    }
                    mms_layout::BlockKind::Parity => {
                        // Losing the parity read loses the block it was
                        // fetched to rebuild.
                        displaced_parity.push((r.stream, r.addr.group));
                        if let Some(owner) = self.streams.find(r.stream) {
                            let _ = self.streams.free(owner, 1);
                        }
                    }
                }
            }
            debug_assert!(keep.len() <= cap);
            plan.reads.replace_singles(disk, &keep);
        }
        self.keep_scratch = keep;
        self.spill_scratch = spill;
        for (sid, group) in displaced_parity.drain(..) {
            // Find the reconstruction this parity read was serving.
            let target = self
                .reconstructions
                .iter()
                .find(|(s2, g2, _)| *s2 == sid && *g2 == group)
                .copied();
            if let Some((_, _, ix)) = target {
                self.reconstructions.remove(&(sid, group, ix));
                if let Some(st) = self.streams.find(sid).map(|ix| self.streams.slot(ix)) {
                    let bpg = u64::from(layout.blocks_per_group());
                    let delivery_cycle = st.start_cycle + group * bpg + u64::from(ix) + 1;
                    displaced.push(LostBlock {
                        stream: sid,
                        addr: BlockAddr::data(st.object, group, ix),
                        reason: LossReason::Displaced,
                        delivery_cycle,
                    });
                }
            }
        }
        for loss in displaced.drain(..) {
            self.record_loss(loss);
        }
        self.displaced_scratch = displaced;
        self.displaced_parity_scratch = displaced_parity;

        // Deliveries and hiccups: block (g, q) is delivered at
        //    `t_g + q + 1` unless recorded lost.
        let losses_now = self.pending_losses.remove(&cycle).unwrap_or_default();
        for loss in losses_now.iter().copied() {
            if let Some(ix) = self.streams.find(loss.stream) {
                self.streams.slot_mut(ix).lost += 1;
            }
            plan.hiccups.push(loss);
        }
        // Whether block (id, g, q) is among this cycle's losses. The list
        // is tiny (bounded by one loss per stream per cycle), so a linear
        // scan beats building a set — and allocates nothing.
        let is_lost = |id: StreamId, g: u64, q: u32| {
            losses_now.iter().any(|l| match l.addr.kind {
                mms_layout::BlockKind::Data(ix) => l.stream == id && l.addr.group == g && ix == q,
                mms_layout::BlockKind::Parity => false,
            })
        };
        let bpg = self.bpg();
        for ix in 0..slots {
            let s = self.streams.slot_mut(ix);
            if cycle == 0 || cycle < s.start_cycle + 1 {
                continue;
            }
            let rel = cycle - s.start_cycle - 1;
            let g = rel / bpg;
            let q = (rel % bpg) as u32;
            if g >= s.groups {
                continue;
            }
            let id = s.id();
            let blocks = s.blocks_in_group(g, bpg);
            if q < blocks && !is_lost(id, g, q) {
                plan.deliveries.push(Delivery {
                    stream: id,
                    addr: BlockAddr::data(s.object, g, q),
                    reconstructed: self.reconstructions.remove(&(id, g, q)),
                });
                s.delivered += 1;
            }
            // Stream finishes after its final group's last real block's
            // delivery slot (partial groups leave trailing idle slots).
            if g + 1 == s.groups && q + 1 >= blocks {
                plan.finished.push(id);
                self.classes.vacate(&mut s.state);
                self.streams.retire(ix);
            }
        }

        // End of cycle: release the buffers of blocks whose delivery slot
        // was this cycle (they stay resident while being transmitted, so
        // the pool's high-water mark measures true peak occupancy).
        if let Some(frees) = self.deferred_frees.remove(&cycle) {
            // Healthy-mode frees were recorded in table order one cycle
            // ago, so each is found at the slot after the previous hit.
            let mut hint = 0;
            for (id, _addr) in frees {
                // The stream may already have finished (retire released
                // all it held): then there is nothing to free.
                if let Some(ix) = self.streams.find_from(hint, id) {
                    let _ = self.streams.free(ix, 1);
                    hint = ix + 1;
                }
            }
        }
        if let Some(frees) = self.server_frees.remove(&cycle) {
            for (cluster, id, n) in frees {
                if let Some(server) = self.servers.server_for(cluster) {
                    // The server may have been detached (repair resets
                    // its pool), in which case there is nothing to free.
                    let _ = server.pool_mut().free(mms_buffer::OwnerId(id.0), n);
                }
            }
        }
        self.drop_spent_marks();
        self.streams.compact();
    }

    fn on_disk_failure(&mut self, disk: DiskId, cycle: u64, _mid_cycle: bool) -> FailureReport {
        self.streams.bump_epoch();
        let geometry = *self.catalog.layout().geometry();
        let cluster = geometry.cluster_of(disk);
        let pos = geometry.position_in_cluster(disk);
        let Some(policy) = self.policy else {
            // No parity: any data on the disk is unreadable until repair;
            // the paper calls the no-redundancy data outage what it is.
            // The position is all there is to record — reads aimed at it
            // are skipped, and lost, as their cycles come.
            self.degraded
                .entry(cluster)
                .and_modify(|d| d.also_failed |= 1u128 << pos)
                .or_insert(Degraded {
                    failed_pos: pos,
                    since: cycle,
                    also_failed: 0,
                });
            return FailureReport {
                catastrophic: true,
                ..FailureReport::default()
            };
        };
        let mut report = FailureReport {
            degraded_clusters: vec![cluster],
            ..FailureReport::default()
        };

        if let Some(d) = self.degraded.get_mut(&cluster) {
            // Second failure in one cluster: catastrophic.
            d.also_failed |= 1u128 << pos;
            report.catastrophic = true;
            let mask = d.all_failed_mask();
            let failed = (0..geometry.disks_per_cluster())
                .filter(|&p| mask & (1u128 << p) != 0)
                .map(|p| geometry.disk_at(cluster, p));
            report.data_loss_tracks = crate::traits::data_tracks_on_disks(&self.catalog, failed);
            emit_transition(policy, cluster, cycle, "degraded", "catastrophic");
            return report;
        }
        self.degraded.insert(
            cluster,
            Degraded {
                failed_pos: pos,
                since: cycle,
                also_failed: 0,
            },
        );
        emit_transition(policy, cluster, cycle, "normal", "degraded");

        // Attach a buffer server; exhaustion = degradation of service:
        // drop the streams currently using this cluster.
        let parity_pos = geometry.disks_per_cluster() - 1;
        if pos != parity_pos && self.servers.attach(cluster.0).is_err() {
            for ix in 0..self.streams.slots() {
                let s = self.streams.slot(ix);
                let on_cluster = self.position_at(s, cycle).is_some_and(|(g, _)| {
                    self.catalog.layout().data_cluster(s.start_cluster, g) == cluster
                });
                if on_cluster {
                    report.dropped_streams.push(s.id());
                    self.classes.vacate(&mut self.streams.slot_mut(ix).state);
                    self.streams.retire(ix);
                }
            }
            self.streams.compact();
            return report;
        }

        // Parity-disk failure: normal operation continues unprotected.
        if pos == parity_pos {
            return report;
        }

        // Transition for in-flight groups on this cluster.
        let losses_before: usize = self.pending_losses.values().map(Vec::len).sum();
        for ix in 0..self.streams.slots() {
            let s = *self.streams.slot(ix);
            let Some((g, p)) = self.position_at(&s, cycle) else {
                continue;
            };
            if self.catalog.layout().data_cluster(s.start_cluster, g) != cluster {
                continue;
            }
            if p == 0 {
                // Group starts exactly at the failure cycle: handled by
                // the steady rules (group-at-a-time or delayed window).
                continue;
            }
            match policy {
                TransitionPolicy::Simple => {
                    self.simple_transition_for(&s, g, p, cycle, pos);
                }
                TransitionPolicy::Delayed => {
                    self.delayed_transition_for(&s, g, p, pos);
                }
            }
        }

        // Collect the losses just recorded for the report (they are also
        // emitted as hiccups at their delivery cycles).
        let mut all: Vec<LostBlock> = self.pending_losses.values().flatten().copied().collect();
        report.lost = all.split_off(losses_before);
        report
    }

    fn on_disk_repair(&mut self, disk: DiskId, cycle: u64) {
        self.streams.bump_epoch();
        let geometry = *self.catalog.layout().geometry();
        let cluster = geometry.cluster_of(disk);
        if let Some(d) = self.degraded.get_mut(&cluster) {
            let pos = geometry.position_in_cluster(disk);
            if d.failed_pos == pos && d.also_failed == 0 {
                self.degraded.remove(&cluster);
                let _ = self.servers.detach(cluster.0);
                if let Some(policy) = self.policy {
                    emit_transition(policy, cluster, cycle, "degraded", "normal");
                }
            } else if d.failed_pos == pos && self.policy.is_none() {
                // All an unprotected server keeps is which disks are
                // down: another of the cluster's is the one on record now.
                d.failed_pos = d.also_failed.trailing_zeros();
                d.also_failed &= d.also_failed - 1;
            } else {
                d.also_failed &= !(1u128 << pos);
            }
        }
        self.drop_spent_marks();
    }

    fn buffer_in_use(&self) -> usize {
        self.streams.buffer_in_use()
    }

    fn buffer_high_water(&self) -> usize {
        self.streams.buffer_high_water()
    }

    fn plan_stability(&self, cycle: u64) -> PlanStability {
        // The plan repeats once every stream has walked every cluster:
        // bpg cycles per group × N_C clusters.
        let period = self.bpg() * u64::from(self.catalog.layout().geometry().clusters());
        // Warm-up reads without delivering, and partial final groups
        // break the one-delivery-per-cycle cadence: the table's window
        // excludes both.
        let stable = if self.settled() {
            self.streams.stable_window(cycle)
        } else {
            0
        };
        PlanStability { period, stable }
    }

    fn steady_cycle(&self, cycle: u64, out: &mut SteadyCycle) -> bool {
        if !self.settled() {
            return false;
        }
        // Normal mode: block `i` of a group is read `i` cycles after the
        // group was started, from position `i` of its cluster, and held
        // until it is delivered the cycle after; parity is never read.
        let bpg = self.catalog.layout().blocks_per_group();
        let lag = |pos| (pos < bpg).then_some(pos);
        self.classes
            .state_cycle(cycle, &self.streams, lag, 1, |_| 1, out);
        true
    }

    fn fast_forward(&mut self, cycles: u64) {
        debug_assert!(self.settled(), "fast_forward around a transition");
        self.streams.fast_forward(cycles, 1, |_| 1);
        // Last cycle's reads are freed when the next planned cycle ends:
        // their one entry moves with the clock. (The addresses in it are
        // only ever matched by same-cycle displacement cancels, which
        // cannot reference a skipped cycle.)
        if let Some((due, frees)) = self.deferred_frees.pop_first() {
            self.deferred_frees.insert(due + cycles, frees);
        }
    }

    fn plan_epoch(&self) -> u64 {
        self.streams.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::plan_cycle;
    use mms_disk::{Bandwidth, DiskParams};
    use mms_layout::{BandwidthClass, Geometry, MediaObject};

    /// Ten disks, C = 5, one movie of `tracks` tracks; `policy: None` is
    /// the unprotected server.
    fn make(tracks: u64, policy: Option<TransitionPolicy>) -> NonClusteredScheduler {
        let geo = Geometry::clustered(10, 5).unwrap();
        let mut catalog = Catalog::new(ClusteredLayout::new(geo), 100_000);
        catalog
            .add(MediaObject::new(
                ObjectId(0),
                "m",
                tracks,
                BandwidthClass::Mpeg1,
            ))
            .unwrap();
        let cfg = CycleConfig::new(
            DiskParams::paper_table1(),
            Bandwidth::from_megabits(1.5),
            1,
            1,
        );
        match policy {
            Some(policy) => NonClusteredScheduler::new(cfg, catalog, policy, 1),
            None => NonClusteredScheduler::unprotected(cfg, catalog),
        }
    }

    #[test]
    fn fault_free_baseline_is_identical_to_nc_normal_mode() {
        let mut baseline = make(16, None);
        let mut nc = make(16, Some(TransitionPolicy::Delayed));
        let mut delivered = 0;
        for t in 0..40 {
            // Arrivals for a while, one of them abandoned mid-group.
            for s in [&mut baseline, &mut nc] {
                if t % 3 == 0 && t < 18 {
                    s.admit(ObjectId(0), t).unwrap();
                }
                if t == 10 {
                    assert!(s.release(StreamId(1)));
                }
            }
            let (a, b) = (plan_cycle(&mut baseline, t), plan_cycle(&mut nc, t));
            let reads = |p: &CyclePlan| -> Vec<(DiskId, Vec<PlannedRead>)> {
                let per_disk = p.reads.iter();
                per_disk.map(|(d, r)| (*d, r.iter().collect())).collect()
            };
            assert_eq!(reads(&a), reads(&b), "cycle {t}");
            assert_eq!(a.deliveries, b.deliveries, "cycle {t}");
            assert_eq!(a.finished, b.finished, "cycle {t}");
            assert!(a.hiccups.is_empty() && b.hiccups.is_empty(), "cycle {t}");
            assert_eq!(baseline.buffer_in_use(), nc.buffer_in_use(), "cycle {t}");
            assert_eq!(baseline.plan_stability(t + 1), nc.plan_stability(t + 1));
            delivered += a.deliveries.len();
        }
        // Five whole movies, and the abandoned one's first two groups.
        assert_eq!(delivered, 5 * 16 + 8);
        assert_eq!(baseline.buffer_high_water(), nc.buffer_high_water());
        assert_eq!((baseline.active_streams(), nc.active_streams()), (0, 0));
    }

    #[test]
    fn failure_hiccups_repeat_every_rotation() {
        // "These hiccups will repeat at regular intervals each time an
        // object being displayed needs data from the failed disk."
        let mut s = make(40, None); // 10 groups, 5 on each cluster
        s.admit(ObjectId(0), 0).unwrap();
        s.on_disk_failure(DiskId(1), 0, false);
        let mut hiccup_cycles = Vec::new();
        for t in 0..42 {
            let p = plan_cycle(&mut s, t);
            if !p.hiccups.is_empty() {
                hiccup_cycles.push(t);
            }
        }
        // Disk 1 holds block 1 of every cluster-0 group: groups 0, 2, 4,
        // 6, 8 → read cycles 1, 9, 17, 25, 33 → hiccups one cycle later,
        // every 8 cycles (the rotation period over two clusters).
        assert_eq!(hiccup_cycles, vec![2, 10, 18, 26, 34]);
    }

    #[test]
    fn repair_stops_the_bleeding() {
        let mut s = make(40, None);
        s.admit(ObjectId(0), 0).unwrap();
        s.on_disk_failure(DiskId(1), 0, false);
        for t in 0..12 {
            plan_cycle(&mut s, t);
        }
        s.on_disk_repair(DiskId(1), 12);
        let mut hiccups = 0;
        for t in 12..42 {
            hiccups += plan_cycle(&mut s, t).hiccups.len();
        }
        assert_eq!(hiccups, 0);
    }

    #[test]
    fn a_loss_is_decided_when_the_read_is_skipped() {
        // A repair between a skipped read and its delivery: the block is
        // lost all the same, and nothing is freed that was never charged
        // (ROADMAP defect (b): the baseline re-checked the disk at
        // delivery time, delivered the unread block and panicked).
        let mut s = make(40, None);
        s.admit(ObjectId(0), 0).unwrap();
        plan_cycle(&mut s, 0);
        let healthy = s.buffer_in_use();
        s.on_disk_failure(DiskId(1), 1, false);
        let p1 = plan_cycle(&mut s, 1); // block 1 lives on disk 1
        assert_eq!((p1.total_reads(), p1.deliveries.len()), (0, 1));
        assert!(p1.hiccups.is_empty());
        s.on_disk_repair(DiskId(1), 2);
        let p2 = plan_cycle(&mut s, 2);
        assert!(p2.deliveries.is_empty());
        assert_eq!(p2.hiccups.len(), 1);
        assert_eq!(p2.hiccups[0].addr, BlockAddr::data(ObjectId(0), 0, 1));
        assert_eq!(p2.hiccups[0].reason, LossReason::FailedDisk);
        assert_eq!(s.buffer_in_use(), healthy);
        // The other way round: a disk that fails after a block was read
        // from it cannot take the block back out of memory.
        s.on_disk_failure(DiskId(2), 3, false);
        let p3 = plan_cycle(&mut s, 3);
        assert_eq!((p3.deliveries.len(), p3.hiccups.len()), (1, 0));
        s.on_disk_repair(DiskId(2), 4);
        let (mut delivered, mut hiccups) = (2, 1);
        for t in 4..42 {
            let p = plan_cycle(&mut s, t);
            delivered += p.deliveries.len();
            hiccups += p.hiccups.len();
        }
        assert_eq!((delivered, hiccups), (39, 1));
        assert_eq!((s.active_streams(), s.buffer_in_use()), (0, 0));
    }

    #[test]
    fn every_failure_is_reported_catastrophic() {
        let mut s = make(8, None);
        assert!(s.on_disk_failure(DiskId(0), 0, false).catastrophic);
    }
}
