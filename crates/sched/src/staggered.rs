//! Staggered-group scheduling (Section 2).

use crate::cycle::CycleConfig;
use crate::plan::{CyclePlan, Delivery, LossReason, LostBlock, PlannedRead, ReadPurpose};
use crate::streams::{StreamId, StreamInfo};
use crate::table::{Released, StreamTable};
use crate::traits::{
    data_tracks_on_disks, emit_mode_transition, AdmissionError, FailureReport, PlanStability,
    SchemeKind, SchemeScheduler,
};
use mms_disk::DiskId;
use mms_layout::{Catalog, ClusterId, ClusteredLayout, Layout, ObjectId};
use std::collections::{BTreeMap, BTreeSet};

/// Per-stream state beyond the shared header.
#[derive(Debug)]
struct SgState {
    class: (u32, u32),
    /// Index of the block of the current in-memory group that was
    /// reconstructed at read time, if any.
    reconstructed: Option<u32>,
    /// Indices of current-group blocks lost to a double failure.
    hiccups: Vec<u32>,
    /// Whether the current group's parity track is held in memory (it is
    /// consumed by reconstruction, and absent when the parity disk is
    /// down).
    parity_held: bool,
}

/// The Staggered-group scheduler: `k = C−1`, `k' = 1`.
///
/// "The main difference here, with respect to the Streaming RAID scheme,
/// is the elimination of the idea that the data read in one cycle must be
/// delivered in the next cycle. In this scheme we will read data for an
/// object in one cycle but allow that data to be delivered to the network
/// over the following n cycles." Each stream reads its entire parity
/// group — including parity, so failures are masked exactly as in
/// Streaming RAID — every `C−1` cycles, then transmits one track per
/// cycle. Streams are assigned staggered read phases, so their memory
/// usage is "out of phase": the aggregate buffer demand is about half of
/// Streaming RAID's (Figure 4).
#[derive(Debug)]
pub struct StaggeredScheduler {
    config: CycleConfig,
    catalog: Catalog<ClusteredLayout>,
    streams: StreamTable<SgState>,
    /// Active streams per (read-phase, cluster-trajectory) class.
    class_load: BTreeMap<(u32, u32), usize>,
    failed: BTreeMap<ClusterId, BTreeSet<u32>>,
    /// Recycled hiccup vectors: each read cycle swaps a stream's old
    /// hiccup list for a pooled one instead of allocating.
    hiccup_pool: Vec<Vec<u32>>,
}

impl StaggeredScheduler {
    /// Build a scheduler over a populated catalog.
    ///
    /// # Panics
    /// Panics unless `k = C−1` and `k' = 1` (the scheme's definition).
    #[must_use]
    pub fn new(config: CycleConfig, catalog: Catalog<ClusteredLayout>) -> Self {
        let c = catalog.layout().geometry().group_size() as usize;
        assert_eq!(config.k, c - 1, "Staggered-group requires k = C−1");
        assert_eq!(config.k_prime, 1, "Staggered-group requires k' = 1");
        StaggeredScheduler {
            config,
            catalog,
            streams: StreamTable::new(config.read_period() as u64),
            class_load: BTreeMap::new(),
            failed: BTreeMap::new(),
            hiccup_pool: Vec::new(),
        }
    }

    /// The catalog.
    #[must_use]
    pub fn catalog(&self) -> &Catalog<ClusteredLayout> {
        &self.catalog
    }

    fn period(&self) -> u64 {
        self.config.read_period() as u64
    }

    /// Admission class of a stream starting at `at_cycle` for start
    /// cluster `h`: streams with equal read-phase residue and cluster
    /// trajectory contend for the same slots forever.
    fn class_of(&self, h: u32, at_cycle: u64) -> (u32, u32) {
        let period = self.period();
        let nc = u64::from(self.catalog.layout().geometry().clusters());
        let r = (at_cycle % period) as u32;
        let q = at_cycle / period;
        let psi = ((u64::from(h) + nc - (q % nc)) % nc) as u32;
        (r, psi)
    }

    /// Return the admission slot of a stream of `class`.
    fn unload_class(&mut self, class: (u32, u32)) {
        *self
            .class_load
            .get_mut(&class)
            .expect("admission registered this stream's class") -= 1;
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
        vec![(self.hiccup_pool.len(), self.hiccup_pool.capacity())]
    }
}

impl SchemeScheduler for StaggeredScheduler {
    fn scheme(&self) -> SchemeKind {
        SchemeKind::StaggeredGroup
    }

    fn config(&self) -> &CycleConfig {
        &self.config
    }

    fn admit(&mut self, object: ObjectId, at_cycle: u64) -> Result<StreamId, AdmissionError> {
        let placed = self.streams.placement(&self.catalog, object, at_cycle)?;
        let class = self.class_of(placed.start_cluster, at_cycle);
        let load = self.class_load.get(&class).copied().unwrap_or(0);
        if load >= self.config.slots_per_disk() {
            return Err(AdmissionError::AtCapacity {
                active: self.streams.len(),
                limit: self.stream_capacity(),
            });
        }
        *self.class_load.entry(class).or_insert(0) += 1;
        Ok(self.streams.admit(
            placed,
            at_cycle,
            SgState {
                class,
                reconstructed: None,
                hiccups: Vec::new(),
                parity_held: false,
            },
        ))
    }

    fn stream_capacity(&self) -> usize {
        // slots × (C−1) phases × N_C clusters — Eq. 9's shape.
        self.config.slots_per_disk()
            * self.config.read_period()
            * self.catalog.layout().geometry().clusters() as usize
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
            Released::Retired(st) => {
                self.unload_class(st.class);
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
        let period = self.period();
        let slots = self.streams.slots();

        // Pass 1 — reads and allocations. All of a cycle's reads are in
        // flight while the previous data is still being transmitted, so
        // allocations logically precede every free of the same cycle; the
        // pool's high-water mark then measures the paper's start-of-cycle
        // occupancy (Figure 4).
        for ix in 0..slots {
            let s = self.streams.slot(ix);
            if cycle < s.start_cycle {
                continue;
            }
            let rel = cycle - s.start_cycle;
            if !rel.is_multiple_of(period) {
                continue;
            }
            let g = rel / period;
            if g >= s.groups {
                continue;
            }
            let (id, object, start_cluster) = (s.id(), s.object, s.start_cluster);
            let blocks = s.blocks_in_group(g, bpg);
            let cluster = layout.data_cluster(start_cluster, g);
            let failed = self.failed.get(&cluster);
            let parity_pos = geometry.disks_per_cluster() - 1;
            let parity_ok = failed.is_none_or(|f| !f.contains(&parity_pos));
            let mut reconstructed = None;
            let mut hiccups = self.hiccup_pool.pop().unwrap_or_default();
            hiccups.clear();
            let mut reads = 0usize;
            for i in 0..blocks {
                let p = layout.data_placement(start_cluster, g, i);
                let pos = geometry.position_in_cluster(p.disk);
                if failed.is_some_and(|f| f.contains(&pos)) {
                    if failed.map_or(0, std::collections::BTreeSet::len) == 1 && parity_ok {
                        reconstructed = Some(i);
                    } else {
                        hiccups.push(i);
                    }
                } else {
                    plan.push_read(
                        p.disk,
                        PlannedRead {
                            stream: id,
                            addr: mms_layout::BlockAddr::data(object, g, i),
                            purpose: ReadPurpose::Delivery,
                        },
                    );
                    reads += 1;
                }
            }
            if parity_ok {
                let pp = layout.parity_placement(start_cluster, g);
                plan.push_read(
                    pp.disk,
                    PlannedRead {
                        stream: id,
                        addr: mms_layout::BlockAddr::parity(object, g),
                        purpose: ReadPurpose::Parity,
                    },
                );
                reads += 1;
            }
            // Reconstruction replaces the parity buffer with the missing
            // data block, so the group holds `reads` tracks either way.
            self.streams
                .alloc(ix, reads)
                .expect("unbounded pool never refuses an allocation");
            let st = &mut self.streams.slot_mut(ix).state;
            st.parity_held = parity_ok && reconstructed.is_none();
            st.reconstructed = reconstructed;
            let retired = std::mem::replace(&mut st.hiccups, hiccups);
            self.hiccup_pool.push(retired);
        }

        // Pass 2 — deliveries, hiccups, and frees.
        for ix in 0..slots {
            let s = self.streams.slot_mut(ix);
            if cycle < s.start_cycle + 1 {
                continue;
            }
            let rel = cycle - s.start_cycle;
            let g = (rel - 1) / period;
            let i = ((rel - 1) % period) as u32;
            if g >= s.groups {
                continue;
            }
            let blocks = s.blocks_in_group(g, bpg);
            if i >= blocks {
                continue;
            }
            let id = s.id();
            let addr = mms_layout::BlockAddr::data(s.object, g, i);
            let finished = g + 1 == s.groups && i + 1 == blocks;
            let class = s.state.class;
            if s.state.hiccups.contains(&i) {
                plan.hiccups.push(LostBlock {
                    stream: id,
                    addr,
                    reason: LossReason::FailedDisk,
                    delivery_cycle: cycle,
                });
                s.lost += 1;
            } else {
                plan.deliveries.push(Delivery {
                    stream: id,
                    addr,
                    reconstructed: s.state.reconstructed == Some(i),
                });
                s.delivered += 1;
                self.streams
                    .free(ix, 1)
                    .expect("every delivered block was allocated at its read cycle");
            }
            if finished {
                plan.finished.push(id);
                self.unload_class(class);
                self.streams.retire(ix);
            }
        }

        // End of cycle: groups read this cycle are fully resident, so
        // their parity tracks are no longer needed for failure masking.
        for ix in 0..slots {
            let s = self.streams.slot_mut(ix);
            if s.is_live()
                && cycle >= s.start_cycle
                && (cycle - s.start_cycle).is_multiple_of(period)
                && s.state.parity_held
            {
                s.state.parity_held = false;
                self.streams
                    .free(ix, 1)
                    .expect("parity_held implies a parity buffer is allocated");
            }
        }
        self.streams.compact();
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
        // repeats every read_period · N_C cycles.
        let nc = u64::from(self.catalog.layout().geometry().clusters());
        let period = self.period() * nc;
        if !self.failed.is_empty() {
            return PlanStability { period, stable: 0 };
        }
        PlanStability {
            period,
            stable: self.streams.stable_window(cycle),
        }
    }

    fn fast_forward(&mut self, cycles: u64) {
        debug_assert!(self.failed.is_empty(), "fast_forward in degraded mode");
        let nc = u64::from(self.catalog.layout().geometry().clusters());
        debug_assert_eq!(cycles % (self.period() * nc), 0, "not a whole rotation");
        // One track delivered per stream per steady cycle; parity is
        // freed at the end of each read cycle, so `parity_held`,
        // `reconstructed`, and `hiccups` are all quiescent.
        self.streams.fast_forward(cycles, 1);
    }

    fn plan_epoch(&self) -> u64 {
        self.streams.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mms_disk::{Bandwidth, DiskParams};
    use mms_layout::{BandwidthClass, Geometry, MediaObject};

    fn make(disks: usize, c: usize, objects: &[(u64, u64)]) -> StaggeredScheduler {
        let geo = Geometry::clustered(disks, c).unwrap();
        let layout = ClusteredLayout::new(geo);
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
            1,
        );
        StaggeredScheduler::new(cfg, catalog)
    }

    #[test]
    fn reads_every_period_delivers_one_track_per_cycle() {
        let mut s = make(10, 5, &[(0, 8)]);
        let id = s.admit(ObjectId(0), 0).unwrap();
        let p0 = s.plan_cycle(0);
        assert_eq!(p0.total_reads(), 5); // group 0 + parity
        assert!(p0.deliveries.is_empty());
        for t in 1..4 {
            let p = s.plan_cycle(t);
            // Group 1 is read at t = 4, not before.
            assert_eq!(p.total_reads(), if t == 4 { 5 } else { 0 }, "t={t}");
            assert_eq!(p.deliveries.len(), 1, "t={t}");
        }
        let p4 = s.plan_cycle(4);
        assert_eq!(p4.total_reads(), 5); // group 1 read
        assert_eq!(p4.deliveries.len(), 1); // last track of group 0
        for t in 5..8 {
            let p = s.plan_cycle(t);
            assert_eq!(p.deliveries.len(), 1);
            assert!(p.finished.is_empty());
        }
        let p8 = s.plan_cycle(8);
        assert_eq!(p8.deliveries.len(), 1);
        assert_eq!(p8.finished, vec![id]);
    }

    #[test]
    fn buffer_profile_matches_figure4_single_stream() {
        // One stream, C = 5: occupancy right after a read cycle is C + 1
        // (new group incl. parity, plus the leftover undelivered track of
        // the previous group being transmitted this cycle) — but on the
        // very first group there is no leftover, so peak C = 5; from the
        // second read cycle on, the peak is C + 1 = 6.
        let mut s = make(10, 5, &[(0, 40)]);
        s.admit(ObjectId(0), 0).unwrap();
        s.plan_cycle(0); // read 5 tracks; parity released at end of cycle
        assert_eq!(s.buffer_in_use(), 4);
        s.plan_cycle(1); // deliver track 0
        assert_eq!(s.buffer_in_use(), 3);
        s.plan_cycle(2);
        assert_eq!(s.buffer_in_use(), 2);
        s.plan_cycle(3);
        assert_eq!(s.buffer_in_use(), 1);
        s.plan_cycle(4); // read group 1 while delivering last track of g0
        assert_eq!(s.buffer_high_water(), 6);
        assert_eq!(s.buffer_in_use(), 4);
    }

    #[test]
    fn staggered_streams_halve_aggregate_memory_vs_sr() {
        // C−1 streams at staggered phases: aggregate start-of-cycle
        // occupancy settles at C(C+1)/2 = 15 for C = 5 (Figure 4), versus
        // 2C per stream = 40 for 4 Streaming-RAID streams.
        let mut s = make(10, 5, &[(0, 400)]);
        for phase in 0..4u64 {
            // Admit one stream per phase; each admission cycle must be >=
            // planned cycles, so interleave.
            for t in (phase.saturating_sub(0))..phase {
                let _ = t;
            }
            s.admit(ObjectId(0), phase).unwrap();
        }
        for t in 0..40 {
            s.plan_cycle(t);
        }
        // Steady peak: the reading stream holds C + 1 = 6 (new group
        // including parity, plus the leftover track of its previous group
        // still being transmitted) while the other phases hold 4, 3, 2 —
        // the paper's C(C+1)/2 = 15 (Figure 4). Warm-up cycles peak lower.
        assert_eq!(s.buffer_high_water(), 15);
    }

    #[test]
    fn single_failure_masked_at_read_time() {
        let mut s = make(10, 5, &[(0, 16)]);
        let id = s.admit(ObjectId(0), 0).unwrap();
        let r = s.on_disk_failure(DiskId(1), 0, false);
        assert!(!r.catastrophic);
        let p0 = s.plan_cycle(0);
        assert_eq!(p0.total_reads(), 4); // 3 data + parity
        let mut reconstructed = 0;
        for t in 1..5 {
            let p = s.plan_cycle(t);
            assert!(p.hiccups.is_empty());
            reconstructed += p.deliveries.iter().filter(|d| d.reconstructed).count();
        }
        assert_eq!(reconstructed, 1, "block 1 of group 0 reconstructed");
        assert!(s.stream_info(id).is_some());
    }

    #[test]
    fn double_failure_hiccups_on_affected_blocks() {
        let mut s = make(10, 5, &[(0, 8)]);
        s.admit(ObjectId(0), 0).unwrap();
        s.on_disk_failure(DiskId(0), 0, false);
        let r = s.on_disk_failure(DiskId(2), 0, false);
        assert!(r.catastrophic);
        s.plan_cycle(0);
        let mut hiccups = 0;
        let mut delivered = 0;
        for t in 1..5 {
            let p = s.plan_cycle(t);
            hiccups += p.hiccups.len();
            delivered += p.deliveries.len();
        }
        assert_eq!(hiccups, 2);
        assert_eq!(delivered, 2);
    }

    #[test]
    fn admission_fills_phases_and_clusters() {
        let s = make(10, 5, &[(0, 400)]);
        // slots(12) × phases(4) × clusters(2) = 96.
        assert_eq!(s.stream_capacity(), 96);
    }

    #[test]
    fn admission_rejects_full_class() {
        let mut s = make(10, 5, &[(0, 400)]);
        let slots = s.config().slots_per_disk();
        for _ in 0..slots {
            s.admit(ObjectId(0), 0).unwrap();
        }
        assert!(matches!(
            s.admit(ObjectId(0), 0),
            Err(AdmissionError::AtCapacity { .. })
        ));
        // A different phase still has room.
        assert!(s.admit(ObjectId(0), 1).is_ok());
    }
}
