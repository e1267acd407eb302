//! The `k′` continuum between Streaming RAID and Staggered-group.
//!
//! Section 2 generalizes the cycle: "if `k` disk storage units are read in
//! a cycle for a stream, where `k` is an integer multiple of `k′`, then
//! the data read in one 'read cycle' is delivered in the next `k/k′`
//! cycles" (Figure 2), and notes that the buffer-vs-bandwidth trade-offs
//! of intermediate groupings are studied in the GSS work it cites [3].
//! The paper then evaluates only the endpoints: `k′ = C−1` (Streaming
//! RAID) and `k′ = 1` (Staggered-group).
//!
//! [`GroupedScheduler`] fills in the middle: one scheduler parameterized
//! by `k′ | C−1`, reading a full parity group per read cycle (so failure
//! masking is exactly SR/SG's) and transmitting `k′` tracks per cycle.
//! Larger `k′` buys slot efficiency (fewer, longer cycles amortize the
//! seek) at the price of buffer space; the `ablation_kprime` bench sweeps
//! it.

use crate::cycle::CycleConfig;
use crate::plan::{CyclePlan, Delivery, LossReason, LostBlock, PlannedRead, ReadPurpose};
use crate::streams::{StreamId, StreamInfo};
use crate::table::{Released, StreamTable};
use crate::traits::{AdmissionError, FailureReport, PlanStability, SchemeKind, SchemeScheduler};
use mms_disk::DiskId;
use mms_layout::{Catalog, ClusterId, ClusteredLayout, Layout, ObjectId};
use std::collections::{BTreeMap, BTreeSet};

/// Per-stream state beyond the shared header.
#[derive(Debug)]
struct GrState {
    class: (u32, u32),
    reconstructed: Option<u32>,
    hiccups: Vec<u32>,
    parity_held: bool,
}

/// A grouped-sweeping-style scheduler: whole-group reads every `k/k′`
/// cycles, `k′` tracks transmitted per cycle. `k′ = C−1` reproduces
/// Streaming RAID's timing; `k′ = 1` reproduces Staggered-group's.
#[derive(Debug)]
pub struct GroupedScheduler {
    config: CycleConfig,
    catalog: Catalog<ClusteredLayout>,
    streams: StreamTable<GrState>,
    failed: BTreeMap<ClusterId, BTreeSet<u32>>,
    /// Recycled hiccup vectors: each read cycle swaps a stream's old
    /// hiccup list for a pooled one instead of allocating.
    hiccup_pool: Vec<Vec<u32>>,
}

impl GroupedScheduler {
    /// Build a scheduler with the given `k′` (must divide `C−1`).
    ///
    /// # Panics
    /// Panics unless `config.k = C−1` and `config.k_prime` divides it.
    #[must_use]
    pub fn new(config: CycleConfig, catalog: Catalog<ClusteredLayout>) -> Self {
        let c = catalog.layout().geometry().group_size() as usize;
        assert_eq!(config.k, c - 1, "grouped scheduling reads whole groups");
        assert_eq!(
            (c - 1) % config.k_prime,
            0,
            "k' must divide C−1 so read cycles align with group boundaries"
        );
        GroupedScheduler {
            config,
            catalog,
            streams: StreamTable::new(config.read_period() as u64),
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

    fn class_of(&self, h: u32, at_cycle: u64) -> (u32, u32) {
        let period = self.period();
        let nc = u64::from(self.catalog.layout().geometry().clusters());
        let r = (at_cycle % period) as u32;
        let q = at_cycle / period;
        (r, ((u64::from(h) + nc - (q % nc)) % nc) as u32)
    }
}

impl SchemeScheduler for GroupedScheduler {
    fn scheme(&self) -> SchemeKind {
        // The endpoints are the named schemes; report by timing.
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
        let class = self.class_of(placed.start_cluster, at_cycle);
        let period = self.period();
        let load = self
            .streams
            .iter()
            .filter(|s| s.state.class == class && s.start_cycle + s.groups * period > at_cycle)
            .count();
        if load >= self.config.slots_per_disk() {
            return Err(AdmissionError::AtCapacity {
                active: self.streams.len(),
                limit: self.stream_capacity(),
            });
        }
        Ok(self.streams.admit(
            placed,
            at_cycle,
            GrState {
                class,
                reconstructed: None,
                hiccups: Vec::new(),
                parity_held: false,
            },
        ))
    }

    fn stream_capacity(&self) -> usize {
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
        // Admission counts live streams directly, so an immediate
        // retirement has no class bookkeeping to undo.
        !matches!(self.streams.release(id), Released::Unknown)
    }

    fn plan_cycle_into(&mut self, cycle: u64, plan: &mut CyclePlan) {
        self.streams.begin_cycle(cycle);
        plan.reset(cycle);
        let layout = *self.catalog.layout();
        let geometry = *layout.geometry();
        let bpg = u64::from(layout.blocks_per_group());
        let period = self.period();
        let k_prime = self.config.k_prime as u64;
        let slots = self.streams.slots();

        // Pass 1 — whole-group reads at each stream's read cycles.
        for ix in 0..slots {
            let s = self.streams.slot(ix);
            if cycle < s.start_cycle || !(cycle - s.start_cycle).is_multiple_of(period) {
                continue;
            }
            let g = (cycle - s.start_cycle) / period;
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
            self.streams
                .alloc(ix, reads)
                .expect("unbounded pool never refuses an allocation");
            let st = &mut self.streams.slot_mut(ix).state;
            st.parity_held = parity_ok && reconstructed.is_none();
            st.reconstructed = reconstructed;
            let retired = std::mem::replace(&mut st.hiccups, hiccups);
            self.hiccup_pool.push(retired);
        }

        // Pass 2 — deliver k' tracks per cycle, offset one cycle after
        // the read cycle, and free per delivery.
        for ix in 0..slots {
            let s = self.streams.slot(ix);
            if cycle < s.start_cycle + 1 {
                continue;
            }
            let rel = cycle - s.start_cycle - 1;
            let g = rel / period;
            if g >= s.groups {
                continue;
            }
            let (id, object, last_group) = (s.id(), s.object, g + 1 == s.groups);
            let blocks = s.blocks_in_group(g, bpg);
            let first = (rel % period) * k_prime;
            for i in first..(first + k_prime).min(u64::from(blocks)) {
                let i = i as u32;
                let addr = mms_layout::BlockAddr::data(object, g, i);
                let st = self.streams.slot_mut(ix);
                if st.state.hiccups.contains(&i) {
                    plan.hiccups.push(LostBlock {
                        stream: id,
                        addr,
                        reason: LossReason::FailedDisk,
                        delivery_cycle: cycle,
                    });
                    st.lost += 1;
                } else {
                    plan.deliveries.push(Delivery {
                        stream: id,
                        addr,
                        reconstructed: st.state.reconstructed == Some(i),
                    });
                    st.delivered += 1;
                    self.streams
                        .free(ix, 1)
                        .expect("every delivered block was allocated at its read cycle");
                }
                if last_group && i + 1 >= blocks {
                    plan.finished.push(id);
                    self.streams.retire(ix);
                    break;
                }
            }
        }

        // End of cycle: release parity for groups fully read this cycle
        // (once resident, the group no longer needs it).
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

    fn on_disk_failure(&mut self, disk: DiskId, _cycle: u64, _mid_cycle: bool) -> FailureReport {
        let geometry = *self.catalog.layout().geometry();
        let cluster = geometry.cluster_of(disk);
        let pos = geometry.position_in_cluster(disk);
        self.streams.bump_epoch();
        let entry = self.failed.entry(cluster).or_default();
        entry.insert(pos);
        FailureReport {
            degraded_clusters: vec![cluster],
            catastrophic: entry.len() >= 2,
            ..FailureReport::default()
        }
    }

    fn on_disk_repair(&mut self, disk: DiskId, _cycle: u64) {
        let geometry = *self.catalog.layout().geometry();
        let cluster = geometry.cluster_of(disk);
        let pos = geometry.position_in_cluster(disk);
        self.streams.bump_epoch();
        if let Some(set) = self.failed.get_mut(&cluster) {
            set.remove(&pos);
            if set.is_empty() {
                self.failed.remove(&cluster);
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
        // Whole-group reads recur every `read_period` cycles over a
        // rotation of N_C clusters.
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
        // k' tracks delivered per stream per steady cycle; parity is
        // released at the end of each read cycle, so the pending fields
        // are quiescent.
        self.streams
            .fast_forward(cycles, self.config.k_prime as u64);
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

    /// C = 9 gives k' ∈ {1, 2, 4, 8}: a real sweep range.
    fn make(k_prime: usize) -> GroupedScheduler {
        let geo = Geometry::clustered(9, 9).unwrap();
        let mut catalog = Catalog::new(ClusteredLayout::new(geo), 100_000);
        catalog
            .add(MediaObject::new(
                ObjectId(0),
                "m",
                240,
                BandwidthClass::Mpeg1,
            ))
            .unwrap();
        let cfg = CycleConfig::new(
            DiskParams::paper_table1(),
            Bandwidth::from_megabits(1.5),
            8,
            k_prime,
        );
        GroupedScheduler::new(cfg, catalog)
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
                delivered += s.plan_cycle(t).deliveries.len() as u64;
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
                s.plan_cycle(t);
            }
            peaks.push(s.buffer_high_water());
        }
        for w in peaks.windows(2) {
            assert!(w[1] >= w[0], "{peaks:?}");
        }
        // SG endpoint: C + 1 = 10. SR endpoint: 2C − 1 = 17 — one less
        // than the StreamingRaidScheduler's 2C because this scheduler
        // releases parity as soon as the group is resident (the paper's
        // 2C count holds it through delivery; both are valid bookkeeping,
        // the paper's being the conservative one).
        assert_eq!(peaks[0], 10, "{peaks:?}");
        assert_eq!(peaks[3], 17, "{peaks:?}");
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
                let p = s.plan_cycle(t);
                assert!(p.hiccups.is_empty(), "k'={k_prime} cycle {t}");
                reconstructed += p.deliveries.iter().filter(|d| d.reconstructed).count();
                t += 1;
                assert!(t < 10_000);
            }
            assert!(reconstructed > 0, "k'={k_prime}");
        }
    }
}
