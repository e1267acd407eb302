//! Improved-bandwidth scheduling (Section 4).
//!
//! No dedicated parity disks: "instead of having dedicated parity disks,
//! which are only used for reading in case of failure, we can intermix
//! data and parity information on disks", so all `D` disks deliver data
//! during normal operation. The price is failure handling by a cascading
//! **shift to the right**: a failed disk's blocks are rebuilt from parity
//! on the next cluster, consuming its idle capacity — and if there is
//! none, displacing local reads, which become "partial disk failures" of
//! that cluster and push parity reads one cluster further.

use crate::cycle::CycleConfig;
use crate::plan::{CyclePlan, DeliveryRun, GroupRead, LossReason, LostBlock, MemberSet};
use crate::streams::{StreamId, StreamInfo};
use crate::table::{ClassTable, Released, Seat, StreamTable};
use crate::traits::{
    data_tracks_on_disks, emit_mode_transition, AdmissionError, FailureReport, PlanStability,
    SchemeKind, SchemeScheduler, SteadyCycle,
};
use mms_disk::DiskId;
use mms_layout::{BlockAddr, Catalog, ClusterId, ImprovedLayout, Layout, ObjectId};
use std::collections::{BTreeMap, BTreeSet};

/// Fault state of one group, gathered while it is read and carried with
/// the stream until the group is delivered a cycle later.
#[derive(Debug, Default, Clone, Copy)]
struct GroupFault {
    /// Blocks to deliver reconstructed from parity.
    reconstructed: MemberSet,
    /// Blocks lost to a dead disk nothing could rebuild them from.
    failed: MemberSet,
    /// Blocks lost because their disk died mid-cycle.
    mid_cycle: MemberSet,
}

/// Per-group-read bookkeeping gathered in pass 1 of `plan_cycle_into`.
/// Entry `n` belongs to the stream whose [`GroupRead`] is record `n` of
/// the plan; a dropped stream clears `live` instead of removing the entry,
/// so the indices queued by the shift cascade stay valid.
#[derive(Debug, Clone, Copy)]
struct IncomingEntry {
    /// The stream's slot in the table (valid for the whole cycle).
    slot: usize,
    fault: GroupFault,
    /// Buffer tracks charged for the group.
    charged: usize,
    /// Whether the group's parity track is being read this cycle.
    parity_read: bool,
    live: bool,
}

/// Per-stream state beyond the shared header.
#[derive(Debug, Clone)]
struct IbState {
    /// The stream's admission class, held until its last delivery.
    seat: Seat,
    /// Fault state of the group read last cycle, delivered this cycle.
    pending: GroupFault,
    /// Buffer tracks charged for the group read last cycle.
    pending_buffered: usize,
}

/// The Improved-bandwidth scheduler (`k = k' = C−1`, clusters of `C−1`
/// all-data disks, parity on the following cluster).
#[derive(Debug, Clone)]
pub struct ImprovedScheduler {
    config: CycleConfig,
    catalog: Catalog<ImprovedLayout>,
    streams: StreamTable<IbState>,
    /// Active streams per admission class (one read phase: a group is
    /// read every cycle).
    classes: ClassTable,
    /// Failed disks (positions) per cluster.
    failed: BTreeMap<ClusterId, BTreeSet<u32>>,
    /// First cycle by which every group read with a disk down has been
    /// delivered, taking its fault marks with it.
    settled_at: u64,
    /// Per-disk slots held back for failure absorption (Section 4's
    /// "some small amount of idle capacity could be reserved").
    reserved_slots: usize,
    /// Section 4's "sophisticated scheduler": under lightly loaded
    /// conditions, read parity during normal operation so even a
    /// mid-cycle failure is masked; prefetches are skipped on any disk
    /// with no idle slots, so load always wins.
    parity_prefetch: bool,
    /// Clusters visited by the most recent shift-to-the-right cascade.
    last_shift_path: Vec<ClusterId>,
    /// Set while a failure happened mid-cycle and the next planned cycle
    /// must hiccup the failed disk's uncompleted reads.
    midcycle_pending: Option<DiskId>,
    /// Reusable parity work queue for the shift-to-the-right cascade:
    /// staging-entry index and the block to rebuild.
    parity_scratch: Vec<(usize, u32)>,
    /// Reusable pass-1 staging table (in slot order).
    incoming_scratch: Vec<IncomingEntry>,
    /// Reusable per-disk cursor of the cascade: no group record before
    /// it still reads a data block from the disk.
    victim_scratch: Vec<usize>,
}

impl ImprovedScheduler {
    /// Build a scheduler over a populated catalog on an improved layout.
    ///
    /// `reserved_slots` is withheld from every disk's cycle capacity so a
    /// shift has idle capacity to land on (the paper's `K_IB` expressed
    /// per disk).
    ///
    /// # Panics
    /// Panics unless `k = k' = C−1` or if the reserve exceeds capacity.
    #[must_use]
    pub fn new(
        config: CycleConfig,
        catalog: Catalog<ImprovedLayout>,
        reserved_slots: usize,
    ) -> Self {
        let c = catalog.layout().geometry().group_size() as usize;
        MemberSet::assert_holds(catalog.layout().geometry().data_blocks_per_group());
        assert_eq!(config.k, c - 1, "Improved-bandwidth requires k = C−1");
        assert_eq!(
            config.k_prime,
            c - 1,
            "Improved-bandwidth requires k' = C−1"
        );
        assert!(
            reserved_slots < config.slots_per_disk(),
            "reserve must leave at least one usable slot"
        );
        let classes = ClassTable::new(1, *catalog.layout().geometry());
        ImprovedScheduler {
            config,
            catalog,
            streams: StreamTable::new(1),
            classes,
            failed: BTreeMap::new(),
            settled_at: 0,
            reserved_slots,
            parity_prefetch: false,
            last_shift_path: Vec::new(),
            midcycle_pending: None,
            parity_scratch: Vec::new(),
            incoming_scratch: Vec::new(),
            victim_scratch: Vec::new(),
        }
    }

    /// The catalog.
    #[must_use]
    pub fn catalog(&self) -> &Catalog<ImprovedLayout> {
        &self.catalog
    }

    /// Clusters visited by the most recent shift cascade (diagnostic).
    #[must_use]
    pub fn last_shift_path(&self) -> &[ClusterId] {
        &self.last_shift_path
    }

    /// Enable Section 4's adaptive parity prefetch: "Under lightly loaded
    /// conditions, the parity blocks can be read during normal operation
    /// and the isolated hiccup avoided. As the load increases, reading
    /// parity blocks can be dropped in favor of supporting more streams."
    pub fn set_parity_prefetch(&mut self, enabled: bool) {
        self.parity_prefetch = enabled;
    }

    /// Whether parity prefetch is enabled.
    #[must_use]
    pub fn parity_prefetch(&self) -> bool {
        self.parity_prefetch
    }

    fn clusters(&self) -> u64 {
        u64::from(self.catalog.layout().geometry().clusters())
    }

    fn usable_slots(&self) -> usize {
        self.config.slots_per_disk() - self.reserved_slots
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
                self.incoming_scratch.len(),
                self.incoming_scratch.capacity(),
            ),
            (self.parity_scratch.len(), self.parity_scratch.capacity()),
        ]
    }
}

impl SchemeScheduler for ImprovedScheduler {
    fn scheme(&self) -> SchemeKind {
        SchemeKind::ImprovedBandwidth
    }

    fn config(&self) -> &CycleConfig {
        &self.config
    }

    fn admit(&mut self, object: ObjectId, at_cycle: u64) -> Result<StreamId, AdmissionError> {
        let placed = self.streams.placement(&self.catalog, object, at_cycle)?;
        let class = self.classes.class_of(placed.start_cluster, at_cycle);
        if self.classes.seated(class) >= self.usable_slots() {
            return Err(AdmissionError::AtCapacity {
                active: self.streams.len(),
                limit: self.stream_capacity(),
            });
        }
        Ok(self.streams.admit(
            placed,
            at_cycle,
            IbState {
                seat: self.classes.seat(class),
                pending: GroupFault::default(),
                pending_buffered: 0,
            },
        ))
    }

    fn stream_capacity(&self) -> usize {
        self.usable_slots() * self.clusters() as usize
    }

    fn active_streams(&self) -> usize {
        self.streams.len()
    }

    fn stream_info(&self, id: StreamId) -> Option<StreamInfo> {
        self.streams.stream_info(id)
    }

    fn release(&mut self, id: StreamId) -> bool {
        match self.streams.release(id) {
            Released::Unknown => false,
            // The normal finish path in pass 3 delivers the final
            // resident group and retires the stream.
            Released::Draining => true,
            Released::Retired(mut st) => {
                self.classes.vacate(&mut st.seat);
                true
            }
        }
    }

    fn plan_cycle_into(&mut self, cycle: u64, plan: &mut CyclePlan) {
        self.streams.begin_cycle(cycle);
        plan.reset(cycle);
        self.last_shift_path.clear();
        let layout = *self.catalog.layout();
        let geometry = *layout.geometry();
        let bpg = u64::from(layout.blocks_per_group());
        let midcycle_disk = self.midcycle_pending.take();
        let slots = self.streams.slots();
        if !self.failed.is_empty() || midcycle_disk.is_some() {
            // A group read now — its own cluster's or one the cascade
            // displaced — is delivered next cycle.
            self.settled_at = cycle + 2;
        }

        // Pass 1 — base reads and allocations: each stream reads its
        // whole group of C−1 data tracks from its current cluster;
        // groups touching a failed disk request their parity block on
        // the next cluster instead. Allocations precede every free of
        // the cycle so the pool's peak reflects true simultaneity
        // (2(C−1) per stream).
        let mut parity_needed = std::mem::take(&mut self.parity_scratch);
        parity_needed.clear();
        let mut incoming = std::mem::take(&mut self.incoming_scratch);
        incoming.clear();
        for ix in 0..slots {
            let s = self.streams.slot(ix);
            if cycle < s.start_cycle {
                continue;
            }
            let read_group = cycle - s.start_cycle;
            if read_group >= s.groups {
                continue;
            }
            let (id, object, start_cluster) = (s.id(), s.object, s.start_cluster);
            let blocks = s.blocks_in_group(read_group, bpg);
            let first = layout.data_placement(start_cluster, read_group, 0);
            let failed = self.failed.get(&first.cluster);
            let mut members = MemberSet::range(0, blocks);
            let mut fault = GroupFault::default();
            // Member `i` of a group is at position `i` of its cluster.
            for &pos in failed.into_iter().flatten().filter(|&&pos| pos < blocks) {
                members.remove(pos);
                if failed.map_or(0, BTreeSet::len) != 1 {
                    // Two failures in one cluster: data loss.
                    fault.failed.insert(pos);
                } else if midcycle_disk == Some(geometry.disk_at(first.cluster, pos)) {
                    // Mid-cycle failure: this cycle's read on the failed
                    // disk cannot be masked — unless the committed
                    // schedule already carried a parity prefetch (pass
                    // 2.5 may rescue it).
                    fault.mid_cycle.insert(pos);
                } else {
                    fault.reconstructed.insert(pos);
                    parity_needed.push((incoming.len(), pos));
                }
            }
            let charged = plan.reads.push_group(GroupRead {
                stream: id,
                object,
                group: read_group,
                first_disk: first.disk,
                members,
                parity: None,
            });
            self.streams
                .alloc(ix, charged)
                .expect("unbounded pool never refuses an allocation");
            incoming.push(IncomingEntry {
                slot: ix,
                fault,
                charged,
                parity_read: false,
                live: true,
            });
        }

        // Pass 2 — place parity reads, shifting right through clusters
        // until idle capacity is found. Displaced local reads become
        // partial failures that need *their* parity one cluster further.
        let cap = self.config.slots_per_disk();
        let mut queue = parity_needed;
        let mut victim_from = std::mem::take(&mut self.victim_scratch);
        if !queue.is_empty() {
            victim_from.clear();
            victim_from.resize(geometry.disks() as usize, 0);
        }
        let mut hops = 0usize;
        let max_hops = self.clusters() as usize * cap * 4 + 16;
        while let Some((eix, idx)) = queue.pop() {
            hops += 1;
            if !incoming[eix].live {
                continue; // already dropped
            }
            if hops > max_hops {
                // No capacity anywhere: degradation of service — drop the
                // stream whose parity could not be placed.
                self.drop_stream(&mut incoming[eix], cycle, plan);
                continue;
            }
            let slot = incoming[eix].slot;
            let group = plan.reads.groups()[eix];
            let pp = layout.parity_placement(self.streams.slot(slot).start_cluster, group.group);
            let disk = pp.disk;
            if !self.last_shift_path.contains(&pp.cluster) {
                self.last_shift_path.push(pp.cluster);
            }
            // A dead parity disk means the block is unrecoverable.
            let parity_pos = geometry.position_in_cluster(disk);
            if self
                .failed
                .get(&pp.cluster)
                .is_some_and(|f| f.contains(&parity_pos))
            {
                let fault = &mut incoming[eix].fault;
                fault.reconstructed.remove(idx);
                if !fault.mid_cycle.contains(idx) {
                    fault.failed.insert(idx);
                }
                continue;
            }
            if plan.load_on(disk) >= cap {
                // Disk full: displace the first local data read (at most
                // one per parity group is ever displaced) and retry the
                // parity read in the freed slot.
                let from = &mut victim_from[disk.0 as usize];
                let Some(vix) = plan.reads.group_reading(disk, *from) else {
                    // Nothing displaceable (all reads are parity):
                    // degradation of service.
                    self.drop_stream(&mut incoming[eix], cycle, plan);
                    continue;
                };
                *from = vix;
                let vi = disk.0 - plan.reads.groups()[vix].first_disk.0;
                plan.reads.drop_member(vix, vi);
                // The displaced block will be reconstructed via its own
                // parity group one cluster to the right. Undo its
                // data-read buffer charge; its parity read (when placed)
                // re-charges.
                let victim = &mut incoming[vix];
                victim.fault.reconstructed.insert(vi);
                victim.charged = victim.charged.saturating_sub(1);
                let _ = self.streams.free(victim.slot, 1);
                queue.push((vix, vi));
            }
            // Idle capacity (or the slot just freed): place the parity
            // read and charge its buffer.
            plan.reads.push(disk, group.parity_read());
            self.streams
                .alloc(slot, 1)
                .expect("unbounded pool never refuses an allocation");
            incoming[eix].charged += 1;
            incoming[eix].parity_read = true;
        }
        self.parity_scratch = queue;
        self.victim_scratch = victim_from;

        // Pass 2.5 — adaptive parity prefetch (Section 4's sophisticated
        // scheduler): where a group's parity disk still has an idle slot,
        // read the parity alongside the data. A prefetched parity rescues
        // this cycle's mid-cycle loss (the read was part of the committed
        // schedule), and load always wins: full disks skip the prefetch.
        if self.parity_prefetch {
            for (eix, entry) in incoming.iter_mut().enumerate() {
                // Skip dropped streams and groups whose parity is already
                // being read (the reconstruction path placed it in pass 2).
                if !entry.live || entry.parity_read {
                    continue;
                }
                let group = plan.reads.groups()[eix];
                let start_cluster = self.streams.slot(entry.slot).start_cluster;
                let pp = layout.parity_placement(start_cluster, group.group);
                let parity_pos = geometry.position_in_cluster(pp.disk);
                let parity_dead = self
                    .failed
                    .get(&pp.cluster)
                    .is_some_and(|f| f.contains(&parity_pos));
                if parity_dead || plan.load_on(pp.disk) >= cap {
                    continue;
                }
                plan.reads.push(pp.disk, group.parity_read());
                self.streams
                    .alloc(entry.slot, 1)
                    .expect("unbounded pool never refuses an allocation");
                entry.charged += 1;
                // Rescue a mid-cycle loss: with parity and the group's
                // surviving members resident by end of cycle, the block
                // is reconstructed in time.
                if let Some(block) = entry.fault.mid_cycle.first() {
                    entry.fault.mid_cycle.remove(block);
                    entry.fault.reconstructed.insert(block);
                }
            }
        }

        // Pass 3 — deliveries of last cycle's groups and frees.
        for ix in 0..slots {
            let st = self.streams.slot_mut(ix);
            if !st.is_live() || cycle < st.start_cycle + 1 {
                continue; // dropped in pass 2, or not started
            }
            let g = cycle - st.start_cycle - 1;
            if g >= st.groups {
                continue;
            }
            let (id, object) = (st.id(), st.object);
            let all = MemberSet::range(0, st.blocks_in_group(g, bpg));
            let fault = st.state.pending;
            let lost = all & (fault.failed | fault.mid_cycle);
            let sent = all.without(lost);
            let delivered = plan.deliveries.push_run(DeliveryRun {
                stream: id,
                object,
                group: g,
                blocks: sent,
                reconstructed: sent & fault.reconstructed,
            });
            st.delivered += delivered as u64;
            for i in lost.iter() {
                let reason = if fault.mid_cycle.contains(i) {
                    LossReason::MidCycle
                } else {
                    LossReason::FailedDisk
                };
                plan.hiccups.push(LostBlock {
                    stream: id,
                    addr: BlockAddr::data(object, g, i),
                    reason,
                    delivery_cycle: cycle,
                });
                st.lost += 1;
            }
            // Release exactly what the group charged when it was read.
            let charged = std::mem::take(&mut st.state.pending_buffered);
            let finished = g + 1 == st.groups;
            self.streams
                .free(ix, charged)
                .expect("pending_buffered tracks exactly what the read cycle charged");
            if finished {
                plan.finished.push(id);
                self.classes
                    .vacate(&mut self.streams.slot_mut(ix).state.seat);
                self.streams.retire(ix);
            }
        }

        // Commit the just-read groups' state to the streams still there
        // (not dropped in pass 2, not retired in pass 3).
        for e in incoming.drain(..).filter(|e| e.live) {
            let st = self.streams.slot_mut(e.slot);
            if st.is_live() {
                st.state.pending = e.fault;
                st.state.pending_buffered = e.charged;
            }
        }
        self.incoming_scratch = incoming;
        self.streams.compact();
    }

    fn on_disk_failure(&mut self, disk: DiskId, cycle: u64, mid_cycle: bool) -> FailureReport {
        let geometry = *self.catalog.layout().geometry();
        let cluster = geometry.cluster_of(disk);
        let pos = geometry.position_in_cluster(disk);
        self.streams.bump_epoch();
        let entry = self.failed.entry(cluster).or_default();
        entry.insert(pos);
        // A failure in each of two *adjacent* clusters also loses data in
        // this scheme (shared parity-group membership), in addition to two
        // failures within one cluster.
        let prev = ClusterId((cluster.0 + geometry.clusters() - 1) % geometry.clusters());
        let next = geometry.next_cluster(cluster);
        let catastrophic = self.failed[&cluster].len() >= 2
            || self
                .failed
                .get(&prev)
                .map(|s| !s.is_empty())
                .unwrap_or(false)
            || self
                .failed
                .get(&next)
                .map(|s| !s.is_empty())
                .unwrap_or(false);
        if mid_cycle {
            self.midcycle_pending = Some(disk);
        }
        let data_loss_tracks = if catastrophic {
            // Parity groups straddle cluster boundaries here, so the
            // unrecoverable span is every failed disk in this cluster
            // and its two neighbours.
            let mut clusters = vec![prev, cluster, next];
            clusters.sort_unstable_by_key(|c| c.0);
            clusters.dedup();
            let failed = clusters.into_iter().flat_map(|c| {
                self.failed
                    .get(&c)
                    .into_iter()
                    .flat_map(move |set| set.iter().map(move |&p| geometry.disk_at(c, p)))
            });
            data_tracks_on_disks(&self.catalog, failed)
        } else {
            0
        };
        let (from, to) = if catastrophic {
            ("degraded", "catastrophic")
        } else {
            ("normal", "degraded")
        };
        emit_mode_transition(self.scheme(), cluster, cycle, from, to);
        FailureReport {
            degraded_clusters: vec![cluster],
            catastrophic,
            data_loss_tracks,
            ..FailureReport::default()
        }
    }

    fn on_disk_repair(&mut self, disk: DiskId, cycle: u64) {
        let geometry = *self.catalog.layout().geometry();
        let cluster = geometry.cluster_of(disk);
        let pos = geometry.position_in_cluster(disk);
        self.streams.bump_epoch();
        if let Some(set) = self.failed.get_mut(&cluster) {
            set.remove(&pos);
            if set.is_empty() {
                self.failed.remove(&cluster);
                emit_mode_transition(self.scheme(), cluster, cycle, "degraded", "normal");
            }
        }
    }

    fn buffer_in_use(&self) -> usize {
        self.streams.buffer_in_use()
    }

    fn buffer_high_water(&self) -> usize {
        self.streams.buffer_high_water()
    }

    fn plan_stability(&self, cycle: u64) -> PlanStability {
        // One whole group per cycle, rotating over N_C clusters (the
        // prefetch pass is equally periodic: one parity read per stream
        // per cycle on the next cluster).
        let period = self.clusters();
        if !self.failed.is_empty() || self.midcycle_pending.is_some() {
            return PlanStability { period, stable: 0 };
        }
        PlanStability {
            period,
            stable: self.streams.stable_window(cycle),
        }
    }

    fn steady_cycle(&self, cycle: u64, out: &mut SteadyCycle) -> bool {
        // Where a prefetch lands depends on how full its disk already is
        // and on each group's parity position: no closed form, so a
        // prefetching server is planned cycle by cycle.
        if !self.failed.is_empty()
            || self.midcycle_pending.is_some()
            || self.parity_prefetch
            || cycle < self.settled_at
        {
            return false;
        }
        // A whole group of C−1 data tracks, one from every disk of the
        // cluster, held until it is delivered the cycle after.
        let bpg = self.config.k_prime;
        self.classes
            .state_cycle(cycle, &self.streams, |_| Some(0), bpg, |_| bpg, out);
        true
    }

    fn fast_forward(&mut self, cycles: u64) {
        debug_assert!(self.failed.is_empty(), "fast_forward in degraded mode");
        // One full group delivered per stream per steady cycle and as
        // much read: what a stream has charged stays what it was.
        let bpg = self.config.k_prime;
        self.streams.fast_forward(cycles, bpg as u64, |_| bpg);
    }

    fn plan_epoch(&self) -> u64 {
        self.streams.epoch()
    }
}

impl ImprovedScheduler {
    /// Terminate the stream staged in `entry` (degradation of service):
    /// retire it and take its reads back out of this cycle's plan.
    fn drop_stream(&mut self, entry: &mut IncomingEntry, cycle: u64, plan: &mut CyclePlan) {
        entry.live = false;
        let st = self.streams.slot_mut(entry.slot);
        let (id, object) = (st.id(), st.object);
        self.classes.vacate(&mut st.state.seat);
        self.streams.retire(entry.slot);
        plan.hiccups.push(LostBlock {
            stream: id,
            addr: BlockAddr::data(object, 0, 0),
            reason: LossReason::ServiceDegradation,
            delivery_cycle: cycle,
        });
        plan.reads.drop_stream(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::plan_cycle;
    use crate::ReadPurpose;
    use mms_disk::{Bandwidth, DiskParams};
    use mms_layout::{BandwidthClass, Geometry, MediaObject};

    fn make(disks: usize, c: usize, reserve: usize, objects: &[(u64, u64)]) -> ImprovedScheduler {
        let geo = Geometry::improved(disks, c).unwrap();
        let layout = ImprovedLayout::new(geo);
        let mut catalog = Catalog::new(layout, 100_000);
        for &(id, tracks) in objects {
            catalog
                .add(MediaObject::new(
                    ObjectId(id),
                    format!("o{id}"),
                    tracks,
                    BandwidthClass::Mpeg1,
                ))
                .unwrap();
        }
        let cfg = CycleConfig::new(
            DiskParams::paper_table1(),
            Bandwidth::from_megabits(1.5),
            c - 1,
            c - 1,
        );
        ImprovedScheduler::new(cfg, catalog, reserve)
    }

    #[test]
    #[should_panic(expected = "65 data blocks does not fit the plan's 64-member sets")]
    fn a_group_wider_than_the_plan_records_is_refused_at_construction() {
        make(130, 66, 1, &[(0, 65)]);
    }

    #[test]
    fn normal_mode_never_reads_parity() {
        let mut s = make(8, 5, 1, &[(0, 16)]);
        let id = s.admit(ObjectId(0), 0).unwrap();
        for t in 0..4 {
            let p = plan_cycle(&mut s, t);
            assert!(
                p.reads
                    .values()
                    .flatten()
                    .all(|r| r.purpose == ReadPurpose::Delivery),
                "cycle {t}"
            );
            if t >= 1 {
                assert_eq!(p.deliveries.len(), 4);
                assert!(p.deliveries.iter().all(|d| d.stream == id));
            }
        }
    }

    #[test]
    fn buffer_peak_is_2_c_minus_1_per_stream() {
        let mut s = make(8, 5, 1, &[(0, 40)]);
        s.admit(ObjectId(0), 0).unwrap();
        for t in 0..6 {
            plan_cycle(&mut s, t);
        }
        // 2(C−1) = 8 for C = 5.
        assert_eq!(s.buffer_high_water(), 8);
    }

    #[test]
    fn failure_masked_by_parity_from_next_cluster() {
        let mut s = make(8, 5, 1, &[(0, 16)]);
        s.admit(ObjectId(0), 0).unwrap();
        let r = s.on_disk_failure(DiskId(1), 0, false);
        assert!(!r.catastrophic);
        let p0 = plan_cycle(&mut s, 0);
        // 3 data reads on cluster 0 + 1 parity read on cluster 1.
        assert_eq!(p0.total_reads(), 4);
        let parity_reads: Vec<_> = p0
            .reads
            .iter()
            .flat_map(|(d, v)| v.iter().map(move |r| (*d, r)))
            .filter(|(_, r)| r.purpose == ReadPurpose::Parity)
            .collect();
        assert_eq!(parity_reads.len(), 1);
        assert!(parity_reads[0].0 .0 >= 4, "parity on cluster 1");
        assert_eq!(s.last_shift_path(), &[ClusterId(1)]);
        let p1 = plan_cycle(&mut s, 1);
        assert_eq!(p1.deliveries.len(), 4);
        assert_eq!(p1.deliveries.iter().filter(|d| d.reconstructed).count(), 1);
        assert!(p1.hiccups.is_empty());
    }

    #[test]
    fn midcycle_failure_causes_one_hiccup_then_masks() {
        let mut s = make(8, 5, 1, &[(0, 16)]);
        s.admit(ObjectId(0), 0).unwrap();
        s.on_disk_failure(DiskId(2), 0, true);
        let _p0 = plan_cycle(&mut s, 0);
        let p1 = plan_cycle(&mut s, 1);
        // The block being read when the disk died is a hiccup…
        assert_eq!(p1.hiccups.len(), 1);
        assert_eq!(p1.hiccups[0].reason, LossReason::MidCycle);
        assert_eq!(p1.deliveries.len(), 3);
        // …but from the next cycle on, parity masks the failure.
        let p2 = plan_cycle(&mut s, 2);
        assert_eq!(p2.deliveries.len(), 4);
        assert_eq!(p2.hiccups.len(), 0);
        let p3 = plan_cycle(&mut s, 3);
        assert_eq!(p3.deliveries.iter().filter(|d| d.reconstructed).count(), 1);
    }

    #[test]
    fn adjacent_cluster_failures_are_catastrophic() {
        let mut s = make(8, 5, 1, &[(0, 16)]);
        assert!(!s.on_disk_failure(DiskId(0), 0, false).catastrophic);
        // Disk 4 is in cluster 1, adjacent to cluster 0.
        assert!(s.on_disk_failure(DiskId(4), 0, false).catastrophic);
    }

    #[test]
    fn shift_cascades_when_next_cluster_is_full() {
        // 3 clusters of 4 disks; fill cluster 1's disks to capacity so the
        // parity read for cluster 0's failure displaces a local read,
        // which in turn needs parity from cluster 2.
        let mut s = make(12, 5, 1, &[(0, 120), (1, 120), (2, 120)]);
        let slots = s.usable_slots();
        // Saturate all classes: admit `slots` streams per object (objects
        // start on clusters 0, 1, 2 round-robin).
        for obj in 0..3u64 {
            for _ in 0..slots {
                s.admit(ObjectId(obj), 0).unwrap();
            }
        }
        assert_eq!(s.active_streams(), slots * 3);
        s.on_disk_failure(DiskId(0), 0, false);
        let p0 = plan_cycle(&mut s, 0);
        // The cascade had to visit cluster 1 and spill into cluster 2.
        assert!(s.last_shift_path().contains(&ClusterId(1)));
        assert!(s.last_shift_path().contains(&ClusterId(2)));
        // No stream dropped: reserve slots absorbed the shift eventually.
        assert!(p0
            .hiccups
            .iter()
            .all(|h| h.reason != LossReason::ServiceDegradation));
    }

    #[test]
    fn no_reserve_and_full_load_degrades_service() {
        // Zero reserve: admission fills every slot; a failure has nowhere
        // to shift, so some stream must be dropped.
        let mut s = make(8, 5, 0, &[(0, 120), (1, 120)]);
        let slots = s.usable_slots();
        for obj in 0..2u64 {
            for _ in 0..slots {
                s.admit(ObjectId(obj), 0).unwrap();
            }
        }
        s.on_disk_failure(DiskId(0), 0, false);
        let p0 = plan_cycle(&mut s, 0);
        let p1 = plan_cycle(&mut s, 1);
        let impact = p0.hiccups.len() + p1.hiccups.len();
        assert!(impact >= 1, "expected dropped streams or lost blocks");
    }

    #[test]
    fn capacity_reflects_reserve() {
        let s = make(8, 5, 1, &[(0, 16)]);
        // T_cyc for k' = 4: slots = 52; usable 51 × 2 clusters = 102.
        assert_eq!(s.stream_capacity(), 102);
        let s2 = make(8, 5, 10, &[(0, 16)]);
        assert_eq!(s2.stream_capacity(), 84);
    }
}

#[cfg(test)]
mod prefetch_tests {
    use super::*;
    use crate::test_support::plan_cycle;
    use crate::ReadPurpose;
    use mms_disk::{Bandwidth, DiskParams};
    use mms_layout::{BandwidthClass, Geometry, MediaObject};

    fn make(prefetch: bool) -> ImprovedScheduler {
        let geo = Geometry::improved(8, 5).unwrap();
        let layout = ImprovedLayout::new(geo);
        let mut catalog = Catalog::new(layout, 100_000);
        catalog
            .add(MediaObject::new(
                ObjectId(0),
                "m",
                40,
                BandwidthClass::Mpeg1,
            ))
            .unwrap();
        let cfg = CycleConfig::new(
            DiskParams::paper_table1(),
            Bandwidth::from_megabits(1.5),
            4,
            4,
        );
        let mut s = ImprovedScheduler::new(cfg, catalog, 1);
        s.set_parity_prefetch(prefetch);
        s
    }

    #[test]
    fn prefetch_masks_the_midcycle_hiccup() {
        // Without prefetch: exactly one MidCycle hiccup (§4's unmaskable
        // read). With prefetch: zero — the committed schedule already
        // carried the parity.
        for (prefetch, expect_hiccups) in [(false, 1usize), (true, 0usize)] {
            let mut s = make(prefetch);
            s.admit(ObjectId(0), 0).unwrap();
            plan_cycle(&mut s, 0);
            // Group 1 (cycle 1) reads cluster 1: disk 5 dies mid-cycle.
            s.on_disk_failure(DiskId(5), 1, true);
            let mut hiccups = 0;
            let mut reconstructed = 0;
            for t in 1..11 {
                let p = plan_cycle(&mut s, t);
                hiccups += p.hiccups.len();
                reconstructed += p.deliveries.iter().filter(|d| d.reconstructed).count();
            }
            assert_eq!(hiccups, expect_hiccups, "prefetch={prefetch}");
            assert!(reconstructed > 0, "prefetch={prefetch}");
        }
    }

    #[test]
    fn prefetch_reads_parity_every_cycle_when_idle() {
        let mut s = make(true);
        s.admit(ObjectId(0), 0).unwrap();
        let p = plan_cycle(&mut s, 0);
        // 4 data reads + 1 prefetched parity on the next cluster.
        assert_eq!(p.total_reads(), 5);
        assert!(p
            .reads
            .values()
            .flatten()
            .any(|r| r.purpose == ReadPurpose::Parity));
        // Buffer charge grows by the parity track: 2(C−1) + 2 at peak.
        for t in 1..4 {
            plan_cycle(&mut s, t);
        }
        assert_eq!(s.buffer_high_water(), 10);
    }

    #[test]
    fn prefetch_yields_to_load() {
        // Saturate the cluster so no idle slots remain: prefetch must
        // not displace any data read.
        let mut s = make(true);
        let slots = s.usable_slots();
        for _ in 0..slots {
            s.admit(ObjectId(0), 0).unwrap();
        }
        let p = plan_cycle(&mut s, 0);
        let cap = s.config().slots_per_disk();
        for reads in p.reads.values() {
            assert!(reads.len() <= cap);
        }
        // Every stream still got its 4 data reads.
        let data_reads = p
            .reads
            .values()
            .flatten()
            .filter(|r| r.purpose == ReadPurpose::Delivery)
            .count();
        assert_eq!(data_reads, slots * 4);
    }
}
