//! The no-redundancy baseline the paper's Section 1 argues against.
//!
//! "Given the architecture illustrated in Figure 1, a disk failure does
//! not result in data loss … However, a disk failure can result in
//! interruption of requests in progress. … a single disk failure can
//! cause multiple hiccups in the display of many objects. These hiccups
//! will repeat at regular intervals each time an object being displayed
//! needs data from the failed disk. … Therefore, without some form of
//! fault tolerance, such a system is not likely to be acceptable."
//!
//! [`BaselineScheduler`] is that strawman: simple striping over **all**
//! disks with no parity at all (`k = k' = 1`, like the Non-clustered
//! scheme's normal mode, but with nothing to fall back on). Every block
//! on a failed disk is a hiccup, repeating every rotation until repair —
//! the quantitative foil for every scheme in the comparison benches.

use crate::cycle::CycleConfig;
use crate::plan::{CyclePlan, Delivery, LossReason, LostBlock, PlannedRead, ReadPurpose};
use crate::streams::{StreamId, StreamInfo};
use crate::table::{ClassTable, Seat, StreamTable};
use crate::traits::{
    AdmissionError, FailureReport, PlanStability, SchemeKind, SchemeScheduler, SteadyCycle,
};
use mms_disk::DiskId;
use mms_layout::{BlockAddr, Catalog, ClusteredLayout, Layout, ObjectId};
use std::collections::BTreeSet;

/// The unprotected striped server (no parity reads, no reconstruction,
/// no degraded mode — failures simply punch holes in delivery).
///
/// Uses the same clustered layout as SR/SG/NC so comparisons are
/// apples-to-apples; the dedicated parity disks exist on the layout but
/// are never read, exactly as they would be absent in a truly parity-free
/// layout (the data-disk schedule is identical either way).
#[derive(Debug, Clone)]
pub struct BaselineScheduler {
    config: CycleConfig,
    catalog: Catalog<ClusteredLayout>,
    /// A stream's only state beyond the shared header is its seat.
    streams: StreamTable<Seat>,
    /// Streams with reads still to issue, per admission class.
    classes: ClassTable,
    failed_disks: BTreeSet<DiskId>,
}

impl BaselineScheduler {
    /// Build over a populated catalog; requires `k = k' = 1`.
    ///
    /// # Panics
    /// Panics unless `k = k' = 1`.
    #[must_use]
    pub fn new(config: CycleConfig, catalog: Catalog<ClusteredLayout>) -> Self {
        assert_eq!(config.k, 1, "baseline uses k = 1");
        assert_eq!(config.k_prime, 1, "baseline uses k' = 1");
        let bpg = u64::from(catalog.layout().blocks_per_group());
        let classes = ClassTable::new(bpg, *catalog.layout().geometry());
        BaselineScheduler {
            config,
            catalog,
            streams: StreamTable::new(bpg),
            classes,
            failed_disks: BTreeSet::new(),
        }
    }

    /// The catalog.
    #[must_use]
    pub fn catalog(&self) -> &Catalog<ClusteredLayout> {
        &self.catalog
    }

    fn bpg(&self) -> u64 {
        u64::from(self.catalog.layout().blocks_per_group())
    }
}

impl SchemeScheduler for BaselineScheduler {
    fn scheme(&self) -> SchemeKind {
        // Reported as Non-clustered's layout kin; the distinction that
        // matters (no parity at all) shows in the metrics.
        SchemeKind::NonClustered
    }

    fn config(&self) -> &CycleConfig {
        &self.config
    }

    fn admit(&mut self, object: ObjectId, at_cycle: u64) -> Result<StreamId, AdmissionError> {
        let placed = self.streams.placement(&self.catalog, object, at_cycle)?;
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
        self.streams.release_seated(id, &mut self.classes)
    }

    fn plan_cycle_into(&mut self, cycle: u64, plan: &mut CyclePlan) {
        self.streams.begin_cycle(cycle);
        plan.reset(cycle);
        let layout = *self.catalog.layout();
        let bpg = self.bpg();
        let slots = self.streams.slots();

        // Reads: one block per stream per cycle; a block on a failed
        // disk is simply not read — the hiccup surfaces at delivery
        // time next cycle when the same placement check fails again.
        for ix in 0..slots {
            let s = self.streams.slot(ix);
            if cycle < s.start_cycle {
                continue;
            }
            let rel = cycle - s.start_cycle;
            let (g, i) = (rel / bpg, (rel % bpg) as u32);
            if g >= s.groups {
                continue;
            }
            self.streams.vacate_if_reads_done(ix, &mut self.classes);
            let s = self.streams.slot(ix);
            if i >= s.blocks_in_group(g, bpg) {
                continue;
            }
            let p = layout.data_placement(s.start_cluster, g, i);
            if !self.failed_disks.contains(&p.disk) {
                plan.reads.push(
                    p.disk,
                    PlannedRead {
                        stream: s.id(),
                        addr: BlockAddr::data(s.object, g, i),
                        purpose: ReadPurpose::Delivery,
                    },
                );
                self.streams
                    .alloc(ix, 1)
                    .expect("unbounded pool never refuses an allocation");
            }
        }

        // Deliveries: the block read last cycle.
        for ix in 0..slots {
            let s = self.streams.slot_mut(ix);
            if cycle < s.start_cycle + 1 {
                continue;
            }
            let rel = cycle - s.start_cycle - 1;
            let (g, i) = (rel / bpg, (rel % bpg) as u32);
            if g >= s.groups {
                continue;
            }
            let id = s.id();
            let blocks = s.blocks_in_group(g, bpg);
            let finished = g + 1 == s.groups && i + 1 >= blocks;
            if i < blocks {
                let addr = BlockAddr::data(s.object, g, i);
                let p = layout.data_placement(s.start_cluster, g, i);
                if self.failed_disks.contains(&p.disk) {
                    // The read last cycle failed: hiccup, repeating every
                    // time the stream rotates back onto the dead disk.
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
                        reconstructed: false,
                    });
                    s.delivered += 1;
                    self.streams
                        .free(ix, 1)
                        .expect("every delivered block was allocated last cycle");
                }
            }
            if finished {
                plan.finished.push(id);
                self.classes.vacate(&mut self.streams.slot_mut(ix).state);
                self.streams.retire(ix);
            }
        }
        self.streams.compact();
    }

    fn on_disk_failure(&mut self, disk: DiskId, _cycle: u64, _mid_cycle: bool) -> FailureReport {
        self.streams.bump_epoch();
        self.failed_disks.insert(disk);
        FailureReport {
            // No parity: any data on the disk is unreadable until repair;
            // the paper calls the no-redundancy data outage what it is.
            catastrophic: true,
            ..FailureReport::default()
        }
    }

    fn on_disk_repair(&mut self, disk: DiskId, _cycle: u64) {
        self.streams.bump_epoch();
        self.failed_disks.remove(&disk);
    }

    fn buffer_in_use(&self) -> usize {
        self.streams.buffer_in_use()
    }

    fn buffer_high_water(&self) -> usize {
        self.streams.buffer_high_water()
    }

    fn plan_stability(&self, cycle: u64) -> PlanStability {
        // One block per cycle, `bpg` cycles per group, rotating over N_C
        // clusters: the disk pattern repeats every bpg · N_C cycles.
        let nc = u64::from(self.catalog.layout().geometry().clusters());
        let period = self.bpg() * nc;
        if !self.failed_disks.is_empty() {
            return PlanStability { period, stable: 0 };
        }
        PlanStability {
            period,
            stable: self.streams.stable_window(cycle),
        }
    }

    fn steady_cycle(&self, cycle: u64, out: &mut SteadyCycle) -> bool {
        if !self.failed_disks.is_empty() {
            return false;
        }
        // Block `i` of a group is read `i` cycles after the group was
        // started, from position `i` of its cluster, and held until it
        // is delivered the cycle after; the parity disks stay idle.
        let bpg = self.catalog.layout().blocks_per_group();
        let lag = |pos| (pos < bpg).then_some(pos);
        self.classes
            .state_cycle(cycle, &self.streams, lag, 1, |_| 1, out);
        true
    }

    fn fast_forward(&mut self, cycles: u64) {
        debug_assert!(self.failed_disks.is_empty(), "fast_forward while failed");
        // One track delivered and one read per stream per steady cycle.
        self.streams.fast_forward(cycles, 1, |_| 1);
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

    fn make(tracks: u64) -> BaselineScheduler {
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
        BaselineScheduler::new(cfg, catalog)
    }

    #[test]
    fn fault_free_baseline_is_identical_to_nc_normal_mode() {
        let mut s = make(16);
        let id = s.admit(ObjectId(0), 0).unwrap();
        let mut delivered = 0;
        for t in 0..18 {
            let p = plan_cycle(&mut s, t);
            assert!(p.hiccups.is_empty());
            delivered += p.deliveries.len();
            // One read per active stream per cycle, 2 buffers peak.
            assert!(p.total_reads() <= 1);
        }
        assert_eq!(delivered, 16);
        assert_eq!(s.buffer_high_water(), 2);
        assert!(s.stream_info(id).is_none());
    }

    #[test]
    fn failure_hiccups_repeat_every_rotation() {
        // "These hiccups will repeat at regular intervals each time an
        // object being displayed needs data from the failed disk."
        let mut s = make(40); // 10 groups, 5 on each cluster
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
        let mut s = make(40);
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
    fn every_failure_is_reported_catastrophic() {
        let mut s = make(8);
        assert!(s.on_disk_failure(DiskId(0), 0, false).catastrophic);
    }
}
