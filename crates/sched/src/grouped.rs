//! Whole-group scheduling: Streaming RAID, Staggered-group and the `k′`
//! continuum between them (Section 2).
//!
//! Section 2 defines both schemes as points of one cycle model: "if `k`
//! disk storage units are read in a cycle for a stream, where `k` is an
//! integer multiple of `k′`, then the data read in one 'read cycle' is
//! delivered in the next `k/k′` cycles" (Figure 2). Both read an entire
//! parity group — `C−1` data tracks plus the parity track — per read
//! cycle, so a single disk failure is masked on the fly "from the other
//! data blocks and the parity block from the same parity group":
//!
//! * **Streaming RAID** (`k′ = C−1`, after Tobagi et al.): a group is read
//!   every cycle and transmitted in the next one, at the price of `2C`
//!   buffer tracks per stream.
//! * **Staggered-group** (`k′ = 1`): "we will read data for an object in
//!   one cycle but allow that data to be delivered to the network over
//!   the following n cycles". A group is read every `C−1` cycles and one
//!   track is transmitted per cycle; streams are admitted on staggered
//!   read phases, so their memory use is out of phase and the aggregate
//!   buffer demand is about half of Streaming RAID's (Figure 4).
//!
//! The paper evaluates only those endpoints and cites the GSS work \[3\]
//! for the groupings in between; [`GroupedScheduler`] takes any `k′ | C−1`.
//! Larger `k′` buys slot efficiency (fewer, longer cycles amortize the
//! seek) at the price of buffer space; the `ablation_kprime` bench sweeps
//! it.

use crate::cycle::CycleConfig;
use crate::plan::{CyclePlan, DeliveryRun, GroupRead, LossReason, LostBlock, MemberSet};
use crate::streams::{StreamId, StreamInfo};
use crate::table::{ClassTable, Released, Seat, StreamTable};
use crate::traits::{
    data_tracks_on_disks, emit_mode_transition, AdmissionError, FailureReport, PlanStability,
    RetireError, SchemeKind, SchemeScheduler, SteadyCycle,
};
use mms_disk::DiskId;
use mms_layout::{
    BlockAddr, Catalog, CatalogError, ClusterId, ClusteredLayout, Layout, MediaObject, ObjectId,
};
use std::collections::{BTreeMap, BTreeSet};

/// Fault state of one parity group in memory, fixed when it is read.
#[derive(Debug, Default, Clone, Copy)]
struct ResidentGroup {
    /// The block rebuilt from parity at read time (single failure with
    /// the parity disk alive); it materializes in the parity buffer.
    reconstructed: MemberSet,
    /// Blocks lost at read time: on a failed disk with a second disk of
    /// the cluster (possibly the parity disk) also down.
    lost: MemberSet,
    /// Whether the group's parity track is still charged to the stream.
    parity_held: bool,
}

/// Per-stream state beyond the shared header.
///
/// A stream can have two groups in memory: group `g+1` is read in pass 1
/// of the very cycle in which pass 2 delivers the last `k′` blocks of
/// group `g`. The read lands in `incoming` and is promoted to `resident`
/// when the cycle ends, so the pair never depends on the parity of a
/// group number and `fast_forward` cannot misalign it.
#[derive(Debug, Clone)]
struct GrState {
    /// The stream's admission class, held until its last delivery.
    seat: Seat,
    /// The group being transmitted.
    resident: ResidentGroup,
    /// The group read this cycle.
    incoming: ResidentGroup,
}

/// The whole-group scheduler: every `k/k′` cycles a stream reads one
/// entire parity group, and it transmits `k′` tracks per cycle starting
/// the cycle after. `k′ = C−1` is Streaming RAID, `k′ = 1` is
/// Staggered-group.
#[derive(Debug, Clone)]
pub struct GroupedScheduler {
    config: CycleConfig,
    catalog: Catalog<ClusteredLayout>,
    streams: StreamTable<GrState>,
    /// Active streams per admission class.
    classes: ClassTable,
    /// Failed disk positions per cluster.
    failed: BTreeMap<ClusterId, BTreeSet<u32>>,
    /// First cycle by which every group read with a disk down has been
    /// transmitted, taking its fault marks with it.
    settled_at: u64,
}

impl GroupedScheduler {
    /// Build a scheduler over a populated catalog; `config.k_prime`
    /// picks the scheme.
    ///
    /// # Panics
    /// Panics unless `config.k = C−1` and `config.k_prime` divides it.
    #[must_use]
    pub fn new(config: CycleConfig, catalog: Catalog<ClusteredLayout>) -> Self {
        let geometry = catalog.layout().geometry();
        let c = geometry.group_size() as usize;
        MemberSet::assert_holds(geometry.data_blocks_per_group());
        assert_eq!(config.k, c - 1, "grouped scheduling reads whole groups");
        assert_eq!(
            (c - 1) % config.k_prime,
            0,
            "k' must divide C−1 so read cycles align with group boundaries"
        );
        let period = config.read_period() as u64;
        GroupedScheduler {
            config,
            streams: StreamTable::new(period),
            classes: ClassTable::new(period, *geometry),
            failed: BTreeMap::new(),
            settled_at: 0,
            catalog,
        }
    }

    /// The catalog.
    #[must_use]
    pub fn catalog(&self) -> &Catalog<ClusteredLayout> {
        &self.catalog
    }

    /// Register a newly staged object in the catalog (the tertiary →
    /// disk load path of Figure 1).
    pub fn register_object(&mut self, object: MediaObject) -> Result<(), CatalogError> {
        self.catalog.add(object).map(|_| ())
    }

    /// Retire an object from the catalog (the purge path), refusing while
    /// any stream is still delivering it.
    pub fn retire_object(&mut self, object: ObjectId) -> Result<(), RetireError> {
        self.streams.retire_object(&mut self.catalog, object)
    }

    fn period(&self) -> u64 {
        self.config.read_period() as u64
    }

    fn clusters(&self) -> u64 {
        u64::from(self.catalog.layout().geometry().clusters())
    }

    /// Tracks a steady stream has charged at the end of the cycle `rel`
    /// cycles after its start. Reading every cycle, a group and its
    /// parity stay until the next has been read: `C`. Otherwise the
    /// parity goes when the read cycle ends and `k′` tracks go out every
    /// cycle after it.
    fn steady_held(&self) -> impl Fn(u64) -> usize {
        let (k, k_prime, period) = (self.config.k, self.config.k_prime, self.period());
        move |rel| match period {
            1 => k + 1,
            _ => k - (rel % period) as usize * k_prime,
        }
    }
}

impl SchemeScheduler for GroupedScheduler {
    fn scheme(&self) -> SchemeKind {
        // The endpoints are the named schemes; in between, report by
        // timing (reads staggered over several cycles).
        if self.config.k_prime == self.config.k {
            SchemeKind::StreamingRaid
        } else {
            SchemeKind::StaggeredGroup
        }
    }

    fn config(&self) -> &CycleConfig {
        &self.config
    }

    fn admit(&mut self, object: ObjectId, at_cycle: u64) -> Result<StreamId, AdmissionError> {
        let placed = self.streams.placement(&self.catalog, object, at_cycle)?;
        let class = self.classes.class_of(placed.start_cluster, at_cycle);
        if self.classes.seated(class) >= self.config.slots_per_disk() {
            return Err(AdmissionError::AtCapacity {
                active: self.streams.len(),
                limit: self.stream_capacity(),
            });
        }
        Ok(self.streams.admit(
            placed,
            at_cycle,
            GrState {
                seat: self.classes.seat(class),
                resident: ResidentGroup::default(),
                incoming: ResidentGroup::default(),
            },
        ))
    }

    fn stream_capacity(&self) -> usize {
        // slots × k/k′ read phases × N_C clusters — the shape of Eqs. 8
        // and 9.
        self.config.slots_per_disk() * self.classes.classes()
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
            // The in-flight group drains and the normal finish path in
            // pass 2 retires the stream.
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
        let layout = *self.catalog.layout();
        let geometry = *layout.geometry();
        let bpg = u64::from(layout.blocks_per_group());
        let parity_pos = geometry.disks_per_cluster() - 1;
        let period = self.period();
        if !self.failed.is_empty() {
            // A group read now is on the wire for the `period` cycles
            // after this one.
            self.settled_at = cycle + period + 1;
        }
        let k_prime = self.config.k_prime as u64;
        // When a group is read every cycle its parity stays charged until
        // the group has been transmitted — the paper's `2C` per Streaming
        // RAID stream. Otherwise the group is fully resident once its read
        // cycle ends and the parity track is released there — the paper's
        // `C+1` Staggered-group peak (Figure 4).
        let parity_until_transmitted = period == 1;
        let slots = self.streams.slots();

        // Pass 1 — whole-group reads and their allocations. All of a
        // cycle's reads are in flight while the previous data is still
        // being transmitted, so allocations logically precede every free
        // of the same cycle; the pool's high-water mark then measures the
        // paper's start-of-cycle occupancy.
        for ix in 0..slots {
            let s = self.streams.slot(ix);
            if cycle < s.start_cycle {
                continue;
            }
            let rel = cycle - s.start_cycle;
            let (g, phase) = (rel / period, rel % period);
            if phase != 0 || g >= s.groups {
                continue;
            }
            let (id, object) = (s.id(), s.object);
            let blocks = s.blocks_in_group(g, bpg);
            let first = layout.data_placement(s.start_cluster, g, 0);
            let failed = self.failed.get(&first.cluster);
            let parity_ok = failed.is_none_or(|f| !f.contains(&parity_pos));
            // Member `i` of a group is at position `i` of its cluster.
            let mut down = MemberSet::EMPTY;
            for &pos in failed.into_iter().flatten().filter(|&&pos| pos < blocks) {
                down.insert(pos);
            }
            // Single failure + live parity: on-the-fly reconstruction;
            // otherwise a block on a failed disk is a hiccup.
            let can_rebuild = parity_ok && failed.is_some_and(|f| f.len() == 1);
            let (reconstructed, lost) = if can_rebuild {
                (down, MemberSet::EMPTY)
            } else {
                (MemberSet::EMPTY, down)
            };
            let read = GroupRead {
                stream: id,
                object,
                group: g,
                first_disk: first.disk,
                members: MemberSet::range(0, blocks).without(down),
                parity: parity_ok.then(|| geometry.disk_at(first.cluster, parity_pos)),
            };
            let reads = plan.reads.push_group(read);
            // Reconstruction replaces the parity buffer with the missing
            // data block, so the group holds `reads` tracks either way.
            self.streams.slot_mut(ix).state.incoming = ResidentGroup {
                reconstructed,
                lost,
                parity_held: parity_ok && reconstructed.is_empty(),
            };
            self.streams
                .alloc(ix, reads)
                .expect("unbounded pool never refuses an allocation");
        }

        // Pass 2 — deliver `k′` tracks of the resident group, free what
        // was transmitted, and promote the group read in pass 1.
        for ix in 0..slots {
            let s = self.streams.slot_mut(ix);
            if cycle < s.start_cycle {
                continue;
            }
            let rel = cycle - s.start_cycle;
            let (q, phase) = (rel / period, rel % period);
            let read_now = phase == 0 && q < s.groups;
            // The group on the wire was read `phase` cycles ago — a whole
            // period ago when this is a read cycle itself — and nothing is
            // on the wire in the stream's first cycle.
            let on_wire = match phase {
                _ if rel == 0 => None,
                0 => Some((q - 1, period - 1)),
                _ => Some((q, phase - 1)),
            };
            if let Some((g, chunk)) = on_wire.filter(|&(g, _)| g < s.groups) {
                let (id, object) = (s.id(), s.object);
                let blocks = u64::from(s.blocks_in_group(g, bpg));
                let first = chunk * k_prime;
                let end = (first + k_prime).min(blocks);
                let fault = s.state.resident;
                let chunk = MemberSet::range(first as u32, end as u32);
                let (sent, lost) = (chunk.without(fault.lost), chunk & fault.lost);
                let delivered = plan.deliveries.push_run(DeliveryRun {
                    stream: id,
                    object,
                    group: g,
                    blocks: sent,
                    reconstructed: sent & fault.reconstructed,
                });
                s.delivered += delivered as u64;
                for i in lost.iter() {
                    plan.hiccups.push(LostBlock {
                        stream: id,
                        addr: BlockAddr::data(object, g, i),
                        reason: LossReason::FailedDisk,
                        delivery_cycle: cycle,
                    });
                    s.lost += 1;
                }
                let transmitted = end == blocks;
                let finished = transmitted && g + 1 == s.groups;
                let parity = transmitted && std::mem::take(&mut s.state.resident.parity_held);
                self.streams
                    .free(ix, delivered)
                    .expect("every delivered block was allocated at its read cycle");
                if parity {
                    self.streams
                        .free(ix, 1)
                        .expect("parity_held implies a parity buffer is allocated");
                }
                if finished {
                    plan.finished.push(id);
                    self.classes
                        .vacate(&mut self.streams.slot_mut(ix).state.seat);
                    self.streams.retire(ix);
                    continue;
                }
            }
            if read_now {
                let st = &mut self.streams.slot_mut(ix).state;
                st.resident = st.incoming;
                if !parity_until_transmitted && std::mem::take(&mut st.resident.parity_held) {
                    self.streams
                        .free(ix, 1)
                        .expect("parity_held implies a parity buffer is allocated");
                }
            }
        }
        self.streams.compact();

        // Sanity: no disk over capacity. Admission control guarantees it.
        let cap = self.config.slots_per_disk();
        debug_assert!(
            plan.reads.values().all(|reads| reads.len() <= cap),
            "slot overflow in whole-group plan"
        );
    }

    fn on_disk_failure(&mut self, disk: DiskId, cycle: u64, _mid_cycle: bool) -> FailureReport {
        let geometry = *self.catalog.layout().geometry();
        let cluster = geometry.cluster_of(disk);
        let pos = geometry.position_in_cluster(disk);
        self.streams.bump_epoch();
        let entry = self.failed.entry(cluster).or_default();
        entry.insert(pos);
        let catastrophic = entry.len() >= 2;
        let data_loss_tracks = if catastrophic {
            let failed = entry.iter().map(|&p| geometry.disk_at(cluster, p));
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
        // Reads recur every `read_period` cycles and the cluster
        // trajectory rotates over N_C clusters, so the full disk pattern
        // repeats every read_period · N_C cycles; a stream is steady from
        // one cycle past its start until its final-group read.
        let period = self.period() * self.clusters();
        if !self.failed.is_empty() {
            return PlanStability { period, stable: 0 };
        }
        PlanStability {
            period,
            stable: self.streams.stable_window(cycle),
        }
    }

    fn steady_cycle(&self, cycle: u64, out: &mut SteadyCycle) -> bool {
        if !self.failed.is_empty() || cycle < self.settled_at {
            return false;
        }
        // A read cycle takes the whole group, parity included: one track
        // from every disk of the cluster.
        self.classes.state_cycle(
            cycle,
            &self.streams,
            |_| Some(0),
            self.config.k_prime,
            self.steady_held(),
            out,
        );
        true
    }

    fn fast_forward(&mut self, cycles: u64) {
        debug_assert!(self.failed.is_empty(), "fast_forward in degraded mode");
        // k' tracks delivered per stream per steady cycle, and a healthy
        // resident group looks like any other, so the per-group state
        // stands as it is at whichever read phase a stream lands.
        self.streams
            .fast_forward(cycles, self.config.k_prime as u64, self.steady_held());
    }

    fn plan_epoch(&self) -> u64 {
        self.streams.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::plan_cycle;
    use crate::ReadPurpose;
    use mms_disk::{Bandwidth, DiskParams};
    use mms_layout::{BandwidthClass, Geometry};

    fn build(disks: usize, c: usize, k_prime: usize, tracks: &[u64]) -> GroupedScheduler {
        let geo = Geometry::clustered(disks, c).unwrap();
        let mut catalog = Catalog::new(ClusteredLayout::new(geo), 100_000);
        for (id, &tracks) in tracks.iter().enumerate() {
            let id = ObjectId(id as u64);
            catalog
                .add(MediaObject::new(
                    id,
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
            k_prime,
        );
        GroupedScheduler::new(cfg, catalog)
    }

    /// C = 9 gives k' ∈ {1, 2, 4, 8}: a real sweep range.
    fn make(k_prime: usize) -> GroupedScheduler {
        build(9, 9, k_prime, &[240])
    }

    /// C = 5, the paper's running example; object `i` has `tracks[i]`
    /// tracks. Streaming RAID is `k' = 4`, Staggered-group `k' = 1`.
    fn c5(disks: usize, k_prime: usize, tracks: &[u64]) -> GroupedScheduler {
        build(disks, 5, k_prime, tracks)
    }

    /// Every `k'` at C = 5, with its read period `k/k'`.
    const C5_SWEEP: [(usize, u64); 3] = [(4, 1), (2, 2), (1, 4)];

    /// What cycles `cycles` delivered: (tracks, of which reconstructed,
    /// hiccups).
    fn transmit(
        s: &mut GroupedScheduler,
        cycles: std::ops::RangeInclusive<u64>,
    ) -> (usize, usize, usize) {
        let mut seen = (0, 0, 0);
        for t in cycles {
            let p = plan_cycle(s, t);
            seen.0 += p.deliveries.len();
            seen.1 += p.deliveries.reconstructed();
            seen.2 += p.hiccups.len();
        }
        seen
    }

    #[test]
    #[should_panic(expected = "65 data blocks does not fit the plan's 64-member sets")]
    fn a_group_wider_than_the_plan_records_is_refused_at_construction() {
        // C − 1 = 64 is the widest group a `MemberSet` holds; one more
        // must not wrap into member 0.
        let mut widest = build(65, 65, 64, &[64]);
        widest.admit(ObjectId(0), 0).unwrap();
        assert_eq!(plan_cycle(&mut widest, 0).total_reads(), 65);
        assert_eq!(plan_cycle(&mut widest, 1).deliveries.len(), 64);
        build(66, 66, 65, &[65]);
    }

    #[test]
    fn endpoints_match_named_schemes() {
        assert_eq!(make(8).scheme(), SchemeKind::StreamingRaid);
        assert_eq!(make(1).scheme(), SchemeKind::StaggeredGroup);
        assert_eq!(make(4).scheme(), SchemeKind::StaggeredGroup);
    }

    #[test]
    fn every_k_prime_delivers_everything() {
        for k_prime in [1usize, 2, 4, 8] {
            let mut s = make(k_prime);
            let id = s.admit(ObjectId(0), 0).unwrap();
            let mut delivered = 0u64;
            let mut t = 0;
            while s.stream_info(id).is_some() {
                delivered += plan_cycle(&mut s, t).deliveries.len() as u64;
                t += 1;
                assert!(t < 10_000, "k'={k_prime} never finished");
            }
            assert_eq!(delivered, 240, "k'={k_prime}");
        }
    }

    #[test]
    fn buffer_peak_grows_with_k_prime() {
        // Per stream, peak occupancy interpolates between the SG and SR
        // endpoints: more tracks per transmission cycle means more of the
        // group is resident at once for less time.
        let mut peaks = Vec::new();
        for k_prime in [1usize, 2, 4, 8] {
            let mut s = make(k_prime);
            s.admit(ObjectId(0), 0).unwrap();
            for t in 0..40 {
                plan_cycle(&mut s, t);
            }
            peaks.push(s.buffer_high_water());
        }
        for w in peaks.windows(2) {
            assert!(w[1] >= w[0], "{peaks:?}");
        }
        // The paper's endpoints: C + 1 = 10 per Staggered-group stream,
        // 2C = 18 per Streaming RAID stream.
        assert_eq!(peaks[0], 10, "{peaks:?}");
        assert_eq!(peaks[3], 18, "{peaks:?}");
    }

    #[test]
    fn slot_efficiency_grows_with_k_prime() {
        // Longer cycles amortize the seek: slots per read-period rise
        // with k' (the §2 efficiency argument behind large k).
        let mut per_stream_capacity = Vec::new();
        for k_prime in [1usize, 2, 4, 8] {
            let s = make(k_prime);
            per_stream_capacity.push(s.stream_capacity());
        }
        for w in per_stream_capacity.windows(2) {
            assert!(w[1] >= w[0], "{per_stream_capacity:?}");
        }
    }

    #[test]
    fn failures_are_masked_at_every_k_prime() {
        for k_prime in [1usize, 2, 4, 8] {
            let mut s = make(k_prime);
            let id = s.admit(ObjectId(0), 0).unwrap();
            s.on_disk_failure(DiskId(3), 0, false);
            let mut t = 0;
            let mut reconstructed = 0;
            while s.stream_info(id).is_some() {
                let p = plan_cycle(&mut s, t);
                assert!(p.hiccups.is_empty(), "k'={k_prime} cycle {t}");
                reconstructed += p.deliveries.iter().filter(|d| d.reconstructed).count();
                t += 1;
                assert!(t < 10_000);
            }
            assert!(reconstructed > 0, "k'={k_prime}");
        }
    }

    #[test]
    fn streaming_raid_reads_whole_groups_and_delivers_next_cycle() {
        let mut s = c5(10, 4, &[8]); // 2 full groups
        let id = s.admit(ObjectId(0), 0).unwrap();
        let p0 = plan_cycle(&mut s, 0);
        // Group 0: 4 data reads on disks 0..3 + parity on disk 4.
        assert_eq!(p0.total_reads(), 5);
        assert!(p0.deliveries.is_empty());
        assert_eq!(p0.reads_on(DiskId(4)).len(), 1);
        let on_parity_disk = p0.reads_on(DiskId(4)).iter().next().unwrap();
        assert_eq!(on_parity_disk.purpose, ReadPurpose::Parity);
        let p1 = plan_cycle(&mut s, 1);
        // Group 1 read on cluster 1; group 0 delivered.
        assert_eq!(p1.total_reads(), 5);
        assert!(p1.reads.keys().all(|d| d.0 >= 5));
        assert_eq!(p1.deliveries.len(), 4);
        assert!(p1
            .deliveries
            .iter()
            .all(|d| d.stream == id && !d.reconstructed));
        let p2 = plan_cycle(&mut s, 2);
        // Nothing left to read; group 1 delivered; stream finishes.
        assert_eq!(p2.total_reads(), 0);
        assert_eq!(p2.deliveries.len(), 4);
        assert_eq!(p2.finished, vec![id]);
        assert_eq!(s.active_streams(), 0);
    }

    #[test]
    fn staggered_group_reads_every_period_and_delivers_one_track_per_cycle() {
        let mut s = c5(10, 1, &[8]);
        let id = s.admit(ObjectId(0), 0).unwrap();
        let p0 = plan_cycle(&mut s, 0);
        assert_eq!(p0.total_reads(), 5); // group 0 + parity
        assert!(p0.deliveries.is_empty());
        for t in 1..4 {
            let p = plan_cycle(&mut s, t);
            // Group 1 is read at t = 4, not before.
            assert_eq!(p.total_reads(), 0, "t={t}");
            assert_eq!(p.deliveries.len(), 1, "t={t}");
        }
        let p4 = plan_cycle(&mut s, 4);
        assert_eq!(p4.total_reads(), 5); // group 1 read
        assert_eq!(p4.deliveries.len(), 1); // last track of group 0
        for t in 5..8 {
            let p = plan_cycle(&mut s, t);
            assert_eq!(p.deliveries.len(), 1);
            assert!(p.finished.is_empty());
        }
        let p8 = plan_cycle(&mut s, 8);
        assert_eq!(p8.deliveries.len(), 1);
        assert_eq!(p8.finished, vec![id]);
    }

    #[test]
    fn streaming_raid_buffer_peak_is_2c_per_stream() {
        let mut s = c5(10, 4, &[40]);
        s.admit(ObjectId(0), 0).unwrap();
        for t in 0..6 {
            plan_cycle(&mut s, t);
        }
        // 2C = 10 tracks for C = 5.
        assert_eq!(s.buffer_high_water(), 10);
    }

    #[test]
    fn staggered_group_buffer_profile_matches_figure4_single_stream() {
        // One stream, C = 5: occupancy right after a read cycle is C + 1
        // (new group incl. parity, plus the leftover undelivered track of
        // the previous group being transmitted this cycle) — but on the
        // very first group there is no leftover, so peak C = 5; from the
        // second read cycle on, the peak is C + 1 = 6.
        let mut s = c5(10, 1, &[40]);
        s.admit(ObjectId(0), 0).unwrap();
        plan_cycle(&mut s, 0); // read 5 tracks; parity released at end of cycle
        assert_eq!(s.buffer_in_use(), 4);
        plan_cycle(&mut s, 1); // deliver track 0
        assert_eq!(s.buffer_in_use(), 3);
        plan_cycle(&mut s, 2);
        assert_eq!(s.buffer_in_use(), 2);
        plan_cycle(&mut s, 3);
        assert_eq!(s.buffer_in_use(), 1);
        plan_cycle(&mut s, 4); // read group 1 while delivering last track of g0
        assert_eq!(s.buffer_high_water(), 6);
        assert_eq!(s.buffer_in_use(), 4);
    }

    #[test]
    fn staggered_streams_halve_aggregate_memory_vs_streaming_raid() {
        // C−1 streams at staggered phases: aggregate start-of-cycle
        // occupancy settles at C(C+1)/2 = 15 for C = 5 (Figure 4), versus
        // 2C per stream = 40 for 4 Streaming-RAID streams.
        let mut s = c5(10, 1, &[400]);
        for phase in 0..4u64 {
            s.admit(ObjectId(0), phase).unwrap();
        }
        for t in 0..40 {
            plan_cycle(&mut s, t);
        }
        // Steady peak: the reading stream holds C + 1 = 6 (new group
        // including parity, plus the leftover track of its previous group
        // still being transmitted) while the other phases hold 4, 3, 2 —
        // the paper's C(C+1)/2 = 15 (Figure 4). Warm-up cycles peak lower.
        assert_eq!(s.buffer_high_water(), 15);
    }

    #[test]
    fn single_failure_is_masked_without_hiccups() {
        for (k_prime, period) in C5_SWEEP {
            let mut s = c5(10, k_prime, &[16]); // 4 groups
            s.admit(ObjectId(0), 0).unwrap();
            let r = s.on_disk_failure(DiskId(1), 0, false);
            assert!(!r.catastrophic);
            assert_eq!(r.degraded_clusters, vec![ClusterId(0)]);
            let p0 = plan_cycle(&mut s, 0);
            // Disk 1's block is skipped; 3 data + 1 parity read.
            assert_eq!(p0.total_reads(), 4, "k'={k_prime}");
            assert!(p0.reads_on(DiskId(1)).is_empty());
            // Group 0 goes out whole; block 1 was rebuilt at read time.
            assert_eq!(transmit(&mut s, 1..=period), (4, 1, 0), "k'={k_prime}");
        }
    }

    #[test]
    fn parity_disk_failure_is_harmless() {
        for (k_prime, period) in C5_SWEEP {
            let mut s = c5(10, k_prime, &[8]);
            s.admit(ObjectId(0), 0).unwrap();
            assert!(!s.on_disk_failure(DiskId(4), 0, false).catastrophic);
            // 4 data reads, no parity read possible.
            assert_eq!(plan_cycle(&mut s, 0).total_reads(), 4, "k'={k_prime}");
            assert_eq!(transmit(&mut s, 1..=period), (4, 0, 0), "k'={k_prime}");
        }
    }

    #[test]
    fn second_failure_in_cluster_is_catastrophic() {
        for (k_prime, period) in C5_SWEEP {
            let mut s = c5(10, k_prime, &[16]);
            s.admit(ObjectId(0), 0).unwrap();
            assert!(!s.on_disk_failure(DiskId(0), 0, false).catastrophic);
            let r = s.on_disk_failure(DiskId(1), 0, false);
            assert!(r.catastrophic);
            // 4 groups on 2 clusters: each dead disk held 2 data tracks.
            assert_eq!(r.data_loss_tracks, 4);
            plan_cycle(&mut s, 0);
            // Blocks on both failed disks hiccup; the other two deliver.
            assert_eq!(transmit(&mut s, 1..=period), (2, 0, 2), "k'={k_prime}");
        }
    }

    #[test]
    fn last_blocks_of_a_group_keep_their_own_fault_state() {
        // With staggered reads the last k' blocks of group 0 go out in the
        // cycle group 1 is read (on the healthy cluster 1); they must be
        // judged by what happened to group 0. k' = 4 never had the two in
        // one cycle's state and is the control.
        for (k_prime, period) in C5_SWEEP {
            for disk in [2, 3] {
                let mut s = c5(10, k_prime, &[8]);
                s.admit(ObjectId(0), 0).unwrap();
                s.on_disk_failure(DiskId(disk), 0, false);
                let seen = transmit(&mut s, 0..=2 * period);
                assert_eq!(seen, (8, 1, 0), "k'={k_prime} disk {disk}");
            }
            let mut s = c5(10, k_prime, &[8]);
            s.admit(ObjectId(0), 0).unwrap();
            s.on_disk_failure(DiskId(2), 0, false);
            s.on_disk_failure(DiskId(3), 0, false);
            assert_eq!(transmit(&mut s, 0..=2 * period), (6, 0, 2), "k'={k_prime}");
            assert_eq!((s.active_streams(), s.buffer_in_use()), (0, 0));
        }
    }

    #[test]
    fn failures_in_different_clusters_are_tolerated() {
        for (k_prime, period) in C5_SWEEP {
            let mut s = c5(10, k_prime, &[16]);
            s.admit(ObjectId(0), 0).unwrap();
            assert!(!s.on_disk_failure(DiskId(1), 0, false).catastrophic);
            assert!(!s.on_disk_failure(DiskId(6), 0, false).catastrophic);
            // Every group has one block rebuilt; nothing is lost.
            assert_eq!(transmit(&mut s, 0..=4 * period), (16, 4, 0), "k'={k_prime}");
            assert_eq!(s.active_streams(), 0);
        }
    }

    #[test]
    fn repair_restores_normal_reads() {
        for (k_prime, period) in C5_SWEEP {
            let mut s = c5(10, k_prime, &[40]);
            s.admit(ObjectId(0), 0).unwrap();
            s.on_disk_failure(DiskId(0), 0, false);
            assert_eq!(plan_cycle(&mut s, 0).total_reads(), 4, "k'={k_prime}");
            s.on_disk_repair(DiskId(0), 1);
            transmit(&mut s, 1..=2 * period - 1);
            // Group 2 is back on cluster 0.
            assert_eq!(
                plan_cycle(&mut s, 2 * period).total_reads(),
                5,
                "k'={k_prime}"
            );
        }
    }

    #[test]
    fn partial_final_group_delivers_short() {
        for (k_prime, period) in C5_SWEEP {
            let mut s = c5(10, k_prime, &[6]); // groups: 4 + 2 tracks
            let id = s.admit(ObjectId(0), 0).unwrap();
            assert_eq!(plan_cycle(&mut s, 0).total_reads(), 5);
            assert_eq!(
                transmit(&mut s, 1..=period - 1).0 as u64,
                4 - k_prime as u64
            );
            let p = plan_cycle(&mut s, period);
            assert_eq!(p.total_reads(), 3, "k'={k_prime}"); // 2 data + parity
            assert_eq!(p.deliveries.len(), k_prime);
            // The two tracks of group 1 take ⌈2/k'⌉ cycles.
            let last = period + 2u64.div_ceil(k_prime as u64);
            assert_eq!(
                transmit(&mut s, period + 1..=last - 1).0,
                2 - 2.min(k_prime)
            );
            let p = plan_cycle(&mut s, last);
            assert_eq!(p.deliveries.len(), 2.min(k_prime), "k'={k_prime}");
            assert_eq!(p.finished, vec![id], "k'={k_prime}");
            assert_eq!((s.active_streams(), s.buffer_in_use()), (0, 0));
        }
    }

    #[test]
    fn fast_forward_equals_stepping_on_an_odd_cluster_count() {
        // 15 disks are N_C = 3 clusters, so a Streaming RAID rotation is
        // an odd number of groups: a skip must leave the resident and the
        // incoming group of every stream where stepping leaves them.
        for (k_prime, _) in C5_SWEEP {
            let mut stepped = c5(15, k_prime, &[400, 400]);
            let mut skipped = c5(15, k_prime, &[400, 400]);
            for s in [&mut stepped, &mut skipped] {
                for at in 0..3 {
                    s.admit(ObjectId(at % 2), at).unwrap();
                }
                for t in 0..7 {
                    plan_cycle(s, t);
                }
            }
            let window = skipped.plan_stability(7);
            assert_eq!(window.period, 3 * (4 / k_prime) as u64);
            assert!(window.stable >= window.period, "k'={k_prime}: {window:?}");
            skipped.fast_forward(window.period);
            for t in 7..7 + window.period {
                plan_cycle(&mut stepped, t);
            }
            for t in 7 + window.period..60 {
                let (a, b) = (plan_cycle(&mut stepped, t), plan_cycle(&mut skipped, t));
                assert_eq!(a.reads.groups(), b.reads.groups(), "k'={k_prime} cycle {t}");
                assert_eq!(a.deliveries, b.deliveries, "k'={k_prime} cycle {t}");
                assert_eq!(
                    (stepped.buffer_in_use(), stepped.buffer_high_water()),
                    (skipped.buffer_in_use(), skipped.buffer_high_water()),
                    "k'={k_prime} cycle {t}"
                );
            }
        }
    }

    #[test]
    fn admission_rejects_a_full_class() {
        for (k_prime, _) in C5_SWEEP {
            let mut s = c5(10, k_prime, &[400]);
            // All streams start at cycle 0 with the same object (start
            // cluster 0), so they all share one class: only `slots` fit.
            for _ in 0..s.config().slots_per_disk() {
                s.admit(ObjectId(0), 0).unwrap();
            }
            assert!(matches!(
                s.admit(ObjectId(0), 0),
                Err(AdmissionError::AtCapacity { .. })
            ));
            // The next cycle is another read phase (or, reading every
            // cycle, another cluster trajectory) and still has room.
            assert!(s.admit(ObjectId(0), 1).is_ok(), "k'={k_prime}");
        }
    }

    #[test]
    fn stream_capacity_is_slots_times_phases_times_clusters() {
        // Table 1, MPEG-1, C = 5, two clusters: Streaming RAID 52 slots,
        // Staggered-group 12 slots × 4 phases; k' = 2 has 25 × 2.
        for (k_prime, capacity) in [(4, 104), (2, 100), (1, 96)] {
            assert_eq!(c5(10, k_prime, &[400]).stream_capacity(), capacity);
        }
    }

    #[test]
    fn streaming_raid_capacity_matches_eq8_shape() {
        // Eq. 8: N_SR = [B/(b0 τ_trk) − τ_seek/(τ_trk (C−1))] · D(C−1)/C
        // With Table 1 and D = 100, C = 5: 1041 (paper Table 2).
        // 52 slots/disk/cycle * 20 clusters = 1040; the analytic 1041.67
        // floors per-class here (52.08 -> 52), so we are within one slot
        // per cluster of Eq. 8.
        assert_eq!(c5(100, 4, &[40]).stream_capacity(), 1040);
    }
}
