//! Whole-group scheduling: Streaming RAID, Staggered-group, the `k′`
//! continuum between them (Section 2) and Improved-bandwidth (Section 4).
//!
//! Section 2 defines its schemes as points of one cycle model: "if `k`
//! disk storage units are read in a cycle for a stream, where `k` is an
//! integer multiple of `k′`, then the data read in one 'read cycle' is
//! delivered in the next `k/k′` cycles" (Figure 2). All of these read an
//! entire parity group — `C−1` data tracks — per read cycle; the layout
//! says where the group's parity is, and with that how it is read:
//!
//! * **A dedicated parity disk** (Figure 3, [`ClusteredLayout`]): parity
//!   is read with the group, so a single disk failure is masked on the
//!   fly "from the other data blocks and the parity block from the same
//!   parity group".
//!   * *Streaming RAID* (`k′ = C−1`, after Tobagi et al.): a group is
//!     read every cycle and transmitted in the next one, at the price of
//!     `2C` buffer tracks per stream.
//!   * *Staggered-group* (`k′ = 1`): "we will read data for an object in
//!     one cycle but allow that data to be delivered to the network over
//!     the following n cycles". A group is read every `C−1` cycles and
//!     one track is transmitted per cycle; streams are admitted on
//!     staggered read phases, so their memory use is out of phase and
//!     the aggregate buffer demand is about half of Streaming RAID's
//!     (Figure 4).
//!
//!   The paper evaluates only those endpoints and cites the GSS work
//!   \[3\] for the groupings in between; any `k′ | C−1` is taken. Larger
//!   `k′` buys slot efficiency (fewer, longer cycles amortize the seek)
//!   at the price of buffer space; the `ablation_kprime` bench sweeps it.
//! * **Parity on the next cluster** (Figure 8, [`ImprovedLayout`]):
//!   *Improved-bandwidth*, `k′ = C−1`. "Instead of having dedicated
//!   parity disks, which are only used for reading in case of failure,
//!   we can intermix data and parity information on disks", so all `D`
//!   disks deliver data and `2(C−1)` tracks buffer a stream. Parity is
//!   read on demand, by a cascading **shift to the right**: a failed
//!   disk's blocks are rebuilt from parity on the next cluster,
//!   consuming its idle capacity — and if there is none, displacing
//!   local reads, which become "partial disk failures" of that cluster
//!   and push parity reads one cluster further. What is Improved-
//!   bandwidth's alone is that one pass (run only while a disk is down
//!   or parity is prefetched), the slots admission holds back for it to
//!   land on, and a wider catastrophe rule: adjacent clusters share
//!   parity groups.
//!
//! [`ClusteredLayout`]: mms_layout::ClusteredLayout

use crate::cycle::CycleConfig;
use crate::plan::{CyclePlan, DeliveryRun, GroupRead, LossReason, LostBlock, MemberSet};
use crate::streams::{StreamId, StreamInfo};
use crate::table::{Charge, ClassTable, Released, Seat, Seated, Slot, Step, StreamTable, Tally};
use crate::traits::{
    data_tracks_on_disks, emit_mode_transition, AdmissionError, FailureReport, PlanStability,
    RetireError, SchemeKind, SchemeScheduler, SteadyCycle,
};
use mms_disk::DiskId;
use mms_layout::{
    BlockAddr, Catalog, CatalogError, ClusterId, ImprovedLayout, Layout, MediaObject, ObjectId,
};

/// Fault state of one parity group in memory, fixed in the cycle it is
/// read.
#[derive(Debug, Default, Clone, Copy)]
struct ResidentGroup {
    /// Blocks rebuilt from parity in the read cycle: on a failed disk
    /// (or displaced by the shift cascade) with the group's parity read.
    reconstructed: MemberSet,
    /// Blocks that will not be delivered: on a failed disk with a second
    /// disk of the group (possibly the one holding its parity) also down,
    /// or with no parity read in time.
    lost: MemberSet,
    /// The one of `lost` whose disk died after the cycle's reads were
    /// committed, parity not among them. (One disk at a time fails
    /// mid-cycle, so a group has one such block at most; a byte, not a
    /// set, keeps a stream's slot at two cache lines.)
    mid_cycle: Option<u8>,
    /// Whether a parity track nothing was rebuilt into is still charged
    /// to the stream.
    parity_held: bool,
}

impl ResidentGroup {
    /// The fault state of a group read with its parity from a cluster
    /// whose failed positions are `failed`, the parity at `parity_pos`;
    /// `down` are the group's members on failed disks.
    #[inline]
    fn read_with_parity(failed: u128, down: MemberSet, parity_pos: u32) -> Self {
        // Reconstruction replaces the parity buffer with the missing data
        // block, so the group holds as many tracks as it reads either way.
        let alive = failed >> parity_pos & 1 == 0;
        let mut fault = ResidentGroup::default();
        if alive && failed.count_ones() == 1 {
            fault.reconstructed = down;
        } else {
            fault.lost = down;
        }
        fault.parity_held = alive && fault.reconstructed.is_empty();
        fault
    }
}

/// The members of a group of `blocks` on the failed positions `failed`
/// of its cluster (member `i` is at position `i`).
#[inline]
fn members_down(failed: u128, blocks: u32) -> MemberSet {
    let mut down = MemberSet::EMPTY;
    for pos in positions(failed).filter(|&pos| pos < blocks) {
        down.insert(pos);
    }
    down
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

impl Seated for GrState {
    #[inline]
    fn seat(&self) -> &Seat {
        &self.seat
    }

    #[inline]
    fn seat_mut(&mut self) -> &mut Seat {
        &mut self.seat
    }
}

/// What reading parity on demand keeps between cycles (all of it idle
/// over a layout with a dedicated parity disk).
#[derive(Debug, Clone, Default)]
struct OnDemand {
    /// Section 4's "sophisticated scheduler": under lightly loaded
    /// conditions, read parity during normal operation so even a
    /// mid-cycle failure is masked; prefetches are skipped on any disk
    /// with no idle slots, so load always wins.
    prefetch: bool,
    /// Clusters visited by the most recent shift-to-the-right cascade.
    last_shift_path: Vec<ClusterId>,
    /// Set while a failure happened mid-cycle and the next planned cycle
    /// must hiccup the failed disk's uncompleted reads.
    midcycle_pending: Option<DiskId>,
    /// Reusable: what the cascade needs of record `n` of the plan, filled
    /// only in cycles that cascade.
    records: Vec<Record>,
    /// Reusable parity work queue of the cascade: record index and the
    /// block to rebuild.
    queue: Vec<(usize, u32)>,
    /// Reusable per-disk cursor of the cascade: no group record before
    /// it still reads a data block from the disk.
    victim_from: Vec<usize>,
}

/// A [`GroupRead`] record as the shift cascade sees it, worked out once a
/// cycle: every hop that lands on the record reads these instead of
/// placing the group's parity again.
#[derive(Debug, Clone, Copy)]
struct Record {
    /// Slot of the reading stream.
    slot: usize,
    /// Where the group's parity is.
    parity: DiskId,
    /// That disk's cluster, for the shift path.
    parity_cluster: ClusterId,
    /// Whether that disk is down.
    parity_down: bool,
}

/// What the per-stream steps of one cycle read, worked out once a cycle.
#[derive(Debug, Clone, Copy)]
struct Pass<L> {
    layout: L,
    /// Data blocks a group.
    bpg: u64,
    /// The cluster position of a parity disk read with the group, if
    /// the layout dedicates one.
    parity_pos: Option<u32>,
    /// The disk that failed after this cycle's reads were committed.
    midcycle_disk: Option<DiskId>,
    /// Cycles between a stream's group reads.
    period: u64,
    /// Tracks delivered a cycle.
    k_prime: u64,
    /// Whether pass 1½ reads parity on demand this cycle.
    cascades: bool,
}

/// The positions set in a cluster's failure mask, ascending.
fn positions(mut mask: u128) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let pos = mask.trailing_zeros();
            mask &= mask - 1;
            pos
        })
    })
}

/// The whole-group scheduler: every `k/k′` cycles a stream reads one
/// entire parity group, and it transmits `k′` tracks per cycle starting
/// the cycle after. Over a layout with a dedicated parity disk `k′ = C−1`
/// is Streaming RAID and `k′ = 1` Staggered-group; over
/// [`ImprovedLayout`] it is Improved-bandwidth.
#[derive(Debug, Clone)]
pub struct GroupedScheduler<L: Layout> {
    config: CycleConfig,
    catalog: Catalog<L>,
    streams: StreamTable<GrState>,
    /// Active streams per admission class.
    classes: ClassTable,
    /// A counted cycle's scratch.
    tally: Tally,
    /// A counted degraded cycle's scratch: what each class's steady
    /// streams do.
    steps: Vec<Step>,
    /// Failed disk positions, one bit each, per cluster (a cluster is at
    /// most `C ≤ 65` disks wide: see `MemberSet::assert_holds`).
    failed: Vec<u128>,
    /// Disks down across all clusters.
    down: usize,
    /// Clusters with a disk down: those out of normal mode.
    degraded_clusters: usize,
    /// `failed` as the last cycle planned (or skipped) ran under.
    planned_failed: Vec<u128>,
    /// Under it, the fault state a group read on each cluster has when
    /// its read cycle ends, where parity is read with every group.
    faults: Vec<ResidentGroup>,
    /// First cycle by which every group read under another `failed`, or
    /// around a mid-cycle failure, has been transmitted: from it on, each
    /// group in memory has the fault state its cluster gives it now.
    settled_at: u64,
    /// Per-disk slots held back for failure absorption (Section 4's
    /// "some small amount of idle capacity could be reserved").
    reserved_slots: usize,
    on_demand: OnDemand,
}

impl<L: Layout + Copy> GroupedScheduler<L> {
    /// Build a scheduler over a populated catalog; its layout and
    /// `config.k_prime` pick the scheme.
    ///
    /// # Panics
    /// Panics unless `config.k = C−1` and `config.k_prime` divides it —
    /// equals it, where parity is fetched on demand and has the one
    /// cycle to arrive.
    #[must_use]
    pub fn new(config: CycleConfig, catalog: Catalog<L>) -> Self {
        let geometry = catalog.layout().geometry();
        let c = geometry.group_size() as usize;
        MemberSet::assert_holds(geometry.data_blocks_per_group());
        assert_eq!(config.k, c - 1, "grouped scheduling reads whole groups");
        assert_eq!(
            (c - 1) % config.k_prime,
            0,
            "k' must divide C−1 so read cycles align with group boundaries"
        );
        assert!(
            geometry.has_parity_disk() || config.k_prime == c - 1,
            "Improved-bandwidth requires k' = C−1"
        );
        let period = config.read_period() as u64;
        let classes = ClassTable::new(period, *geometry);
        GroupedScheduler {
            // Every live stream holds a seat, and a class seats `slots`.
            tally: Tally::new(&classes, config.slots_per_disk() * classes.classes()),
            steps: vec![Step::default(); classes.classes()],
            config,
            streams: StreamTable::new(period),
            classes,
            failed: vec![0; geometry.clusters() as usize],
            planned_failed: vec![0; geometry.clusters() as usize],
            faults: vec![ResidentGroup::default(); geometry.clusters() as usize],
            down: 0,
            degraded_clusters: 0,
            settled_at: 0,
            reserved_slots: 0,
            on_demand: OnDemand::default(),
            catalog,
        }
    }

    /// The catalog.
    #[must_use]
    pub fn catalog(&self) -> &Catalog<L> {
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

    /// Where a group's parity is read with it: the last disk of its
    /// cluster, if the layout dedicates one.
    fn parity_pos(&self) -> Option<u32> {
        let geometry = self.catalog.layout().geometry();
        geometry
            .has_parity_disk()
            .then(|| geometry.disks_per_cluster() - 1)
    }

    fn usable_slots(&self) -> usize {
        self.config.slots_per_disk() - self.reserved_slots
    }

    /// Tracks a steady stream has charged at the end of the cycle `rel`
    /// cycles after its start, the group it read last on a cluster with
    /// a disk down or not. Reading every cycle, a group — and its parity,
    /// where that is read with it and nothing is rebuilt into it — stays
    /// until the next has been read: `C`, or `C−1`. Otherwise the parity
    /// goes when the read cycle ends (or holds the rebuilt block) and `k′`
    /// tracks go out every cycle after it.
    fn steady_held(&self) -> impl Fn(u64, bool) -> usize + Copy {
        let (k, k_prime, period) = (self.config.k, self.config.k_prime, self.period());
        let parity = self.catalog.layout().geometry().has_parity_disk();
        move |rel, degraded| match period {
            1 => k + usize::from(parity && !degraded),
            _ => k - (rel % period) as usize * k_prime,
        }
    }

    /// `(len, capacity)` of each scratch vector, for the churn leak test.
    #[cfg(test)]
    pub(crate) fn scratch_footprint(&self) -> Vec<(usize, usize)> {
        let d = &self.on_demand;
        vec![
            (d.records.len(), d.records.capacity()),
            (d.queue.len(), d.queue.capacity()),
            (d.victim_from.len(), d.victim_from.capacity()),
            (d.last_shift_path.len(), d.last_shift_path.capacity()),
        ]
    }
}

/// What only parity on the next cluster has a use for.
impl GroupedScheduler<ImprovedLayout> {
    /// [`new`](Self::new), with `reserved_slots` withheld from every
    /// disk's cycle capacity so a shift has idle capacity to land on (the
    /// paper's `K_IB` expressed per disk).
    ///
    /// # Panics
    /// Panics as `new` does, or if the reserve exceeds capacity.
    #[must_use]
    pub fn with_reserve(
        config: CycleConfig,
        catalog: Catalog<ImprovedLayout>,
        reserved_slots: usize,
    ) -> Self {
        assert!(
            reserved_slots < config.slots_per_disk(),
            "reserve must leave at least one usable slot"
        );
        GroupedScheduler {
            reserved_slots,
            ..Self::new(config, catalog)
        }
    }

    /// Clusters visited by the most recent shift cascade (diagnostic).
    #[must_use]
    pub fn last_shift_path(&self) -> &[ClusterId] {
        &self.on_demand.last_shift_path
    }

    /// Enable Section 4's adaptive parity prefetch: "Under lightly loaded
    /// conditions, the parity blocks can be read during normal operation
    /// and the isolated hiccup avoided. As the load increases, reading
    /// parity blocks can be dropped in favor of supporting more streams."
    pub fn set_parity_prefetch(&mut self, enabled: bool) {
        self.on_demand.prefetch = enabled;
    }

    /// Whether parity prefetch is enabled.
    #[must_use]
    pub fn parity_prefetch(&self) -> bool {
        self.on_demand.prefetch
    }
}

impl<L: Layout + Copy> SchemeScheduler for GroupedScheduler<L> {
    fn scheme(&self) -> SchemeKind {
        // The endpoints are the named schemes; in between, report by
        // timing (reads staggered over several cycles).
        if !self.catalog.layout().geometry().has_parity_disk() {
            SchemeKind::ImprovedBandwidth
        } else if self.config.k_prime == self.config.k {
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
        if self.classes.seated(class) >= self.usable_slots() {
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
        self.usable_slots() * self.classes.classes()
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
        self.on_demand.last_shift_path.clear();
        let layout = *self.catalog.layout();
        let geometry = *layout.geometry();
        let midcycle_disk = self.on_demand.midcycle_pending.take();
        let period = self.period();
        self.remask(cycle);
        if midcycle_disk.is_some() {
            // A group read now lost a block its parity was not read for.
            self.settled_at = cycle + period + 1;
        }
        let pass = Pass {
            layout,
            bpg: u64::from(layout.blocks_per_group()),
            parity_pos: self.parity_pos(),
            midcycle_disk,
            period,
            k_prime: self.config.k_prime as u64,
            // Parity that is not read with the group is read on demand
            // (pass 1½), which may take streams out of the cycle.
            cascades: !geometry.has_parity_disk() && (self.down > 0 || self.on_demand.prefetch),
        };

        // In a cycle whose records nobody reads, healthy or with every
        // failure masked, the class table states the steady streams, and
        // only the edge streams take the passes — between the steady
        // charge and the steady release.
        let counted = plan.counting_allowed() && self.countable(cycle);
        if counted {
            self.tally_steady(cycle);
            self.streams
                .charge_steady(&self.tally, self.config.k_prime, plan);
        }
        let walked = if counted {
            self.tally.edges().len()
        } else {
            self.streams.slots()
        };
        let slot = |tally: &Tally, e: usize| if counted { tally.edges()[e] } else { e };

        // Pass 1 — whole-group reads and their allocations. All of a
        // cycle's reads are in flight while the previous data is still
        // being transmitted, so allocations logically precede every free
        // of the same cycle; the table's high-water mark then measures the
        // paper's start-of-cycle occupancy.
        for e in 0..walked {
            self.read_group(slot(&self.tally, e), cycle, plan, &pass);
        }
        if pass.cascades {
            self.read_parity_on_demand(cycle, plan);
        }
        // Pass 2 — deliver `k′` tracks of the resident group, free what
        // was transmitted, and promote the group read in pass 1.
        for e in 0..walked {
            self.deliver_chunk(slot(&self.tally, e), cycle, plan, &pass);
        }
        if counted {
            self.streams.release_steady(&self.tally);
        }
        self.streams.compact();

        // Sanity: no disk over capacity. Admission control guarantees it.
        let cap = self.config.slots_per_disk();
        debug_assert!(
            plan.reads.values().all(|reads| reads.len() <= cap),
            "slot overflow in whole-group plan"
        );
    }

    fn on_disk_failure(&mut self, disk: DiskId, cycle: u64, mid_cycle: bool) -> FailureReport {
        let geometry = *self.catalog.layout().geometry();
        let cluster = geometry.cluster_of(disk);
        let pos = geometry.position_in_cluster(disk);
        let failed = &mut self.failed[cluster.index()];
        if *failed >> pos & 1 == 0 {
            self.degraded_clusters += usize::from(*failed == 0);
            *failed |= 1 << pos;
            self.down += 1;
        }
        // Parity read with every group masks a failure whenever it
        // strikes; parity fetched on demand was not asked for in time.
        if mid_cycle && !geometry.has_parity_disk() {
            self.on_demand.midcycle_pending = Some(disk);
        }
        // A second failure among the clusters that share parity groups
        // with this one loses data: the cluster itself — and, where its
        // groups keep their parity on the next cluster and it keeps the
        // previous one's, both neighbours.
        let prev = ClusterId((cluster.0 + geometry.clusters() - 1) % geometry.clusters());
        let neighbours = [prev, geometry.next_cluster(cluster)];
        let shares = |c| c == cluster || (!geometry.has_parity_disk() && neighbours.contains(&c));
        let down = || {
            let sharing = (0..geometry.clusters())
                .map(ClusterId)
                .filter(|&c| shares(c));
            sharing.flat_map(|c| {
                positions(self.failed[c.index()]).map(move |p| geometry.disk_at(c, p))
            })
        };
        let catastrophic = down().count() >= 2;
        let data_loss_tracks = if catastrophic {
            data_tracks_on_disks(&self.catalog, down())
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
        let bit = 1u128 << geometry.position_in_cluster(disk);
        let failed = &mut self.failed[cluster.index()];
        if *failed & bit != 0 {
            *failed &= !bit;
            self.down -= 1;
            if *failed == 0 {
                self.degraded_clusters -= 1;
                emit_mode_transition(self.scheme(), cluster, cycle, "degraded", "normal");
            }
        }
    }

    fn degraded_clusters(&self) -> usize {
        self.degraded_clusters
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
        // one cycle past its start until its final-group read. (A
        // prefetching server is equally periodic: one parity read per
        // stream per cycle on the next cluster.)
        let period = self.period() * self.clusters();
        if self.down > 0 || self.on_demand.midcycle_pending.is_some() {
            return PlanStability { period, stable: 0 };
        }
        PlanStability {
            period,
            stable: self.streams.stable_window(cycle),
        }
    }

    fn steady_cycle(&self, cycle: u64, out: &mut SteadyCycle) -> bool {
        if !self.steady_cycle_possible(cycle) {
            return false;
        }
        // A read cycle takes the whole group, a parity disk's track
        // included: one track from every disk of the cluster.
        let held = self.steady_held();
        self.classes.state_cycle(
            cycle,
            &self.streams,
            |_, _| Some(0),
            self.config.k_prime,
            |rel| held(rel, false),
            out,
        );
        true
    }

    fn fast_forward(&mut self, cycles: u64) {
        debug_assert!(self.down == 0, "fast_forward in degraded mode");
        self.remask(self.streams.next_cycle());
        // k' tracks delivered per stream per steady cycle, and a healthy
        // resident group looks like any other, so the per-group state
        // stands as it is at whichever read phase a stream lands.
        let held = self.steady_held();
        self.streams
            .fast_forward(cycles, self.config.k_prime as u64, |rel| held(rel, false));
    }
}

impl<L: Layout + Copy> GroupedScheduler<L> {
    /// Whether a counted plan can state `cycle`'s steady streams from
    /// the class table: every disk up — or, where parity is read with
    /// every group, at most one down per cluster, so each group on it
    /// reads the `C−1` others and rebuilds one block, the same for every
    /// group there — no mid-cycle failure to hiccup, every group read
    /// before the last failure or repair transmitted, and no parity
    /// prefetch, since where a prefetch lands depends on how full its
    /// disk already is and on each group's parity position: no closed
    /// form, so a prefetching server is planned stream by stream.
    fn countable(&self, cycle: u64) -> bool {
        // `down` counts disks and `degraded_clusters` clusters, so they
        // are equal exactly when no cluster has two disks down.
        let masked = self.down == 0
            || self.down == self.degraded_clusters
                && self.catalog.layout().geometry().has_parity_disk();
        masked
            && self.on_demand.midcycle_pending.is_none()
            && !self.on_demand.prefetch
            && cycle >= self.settled_at
    }

    /// Whether the class table can state `cycle`, the next to plan, as
    /// a steady cycle: a countable one with every disk up, and no repair
    /// since the last cycle planned (which [`remask`](Self::remask) would
    /// only note when planning it).
    fn steady_cycle_possible(&self, cycle: u64) -> bool {
        self.down == 0 && self.planned_failed == self.failed && self.countable(cycle)
    }

    /// Note the failure mask `cycle`, the next cycle planned or skipped,
    /// runs under. Where a failure or a repair since the last one changed
    /// it, the groups read before `cycle` keep their old fault state while
    /// on the wire, up to `period` cycles after their read, and every
    /// stream is planned one by one until they are gone.
    fn remask(&mut self, cycle: u64) {
        if self.planned_failed == self.failed {
            return;
        }
        self.planned_failed.copy_from_slice(&self.failed);
        let period = self.period();
        self.settled_at = cycle + period;
        if let Some(parity_pos) = self.parity_pos() {
            let bpg = self.catalog.layout().blocks_per_group();
            for (fault, &failed) in self.faults.iter_mut().zip(&self.failed) {
                let read =
                    ResidentGroup::read_with_parity(failed, members_down(failed, bpg), parity_pos);
                // As pass 2 leaves it: the parity stays charged only
                // while a group is read every cycle.
                *fault = ResidentGroup {
                    parity_held: read.parity_held && period == 1,
                    ..read
                };
            }
        }
    }

    /// Tally `cycle`'s steady streams (see [`StreamTable::tally`]). With a
    /// disk down, a steady stream's charge depends on its group's cluster,
    /// so it comes from its class's [`Step`]; a group read now gets the
    /// fault state reading it one by one would give it (so the cycles
    /// after can be planned either way), and a group on a degraded
    /// cluster rebuilds the failed member.
    fn tally_steady(&mut self, cycle: u64) {
        let (held, k_prime) = (self.steady_held(), self.config.k_prime);
        // A read cycle takes the whole group, a parity disk's track
        // included: one track from every disk of the cluster that is up.
        if self.down == 0 {
            let steady = |s: &mut Slot<GrState>| {
                let rel = cycle - 1 - s.start_cycle;
                let (was, now) = (held(rel, false), held(rel + 1, false));
                Charge { was, now, apart: 0 }
            };
            self.streams.tally(
                &self.classes,
                &mut self.tally,
                |_, _| Some(0),
                k_prime,
                steady,
            );
            return;
        }
        let failed = &self.failed;
        let lag =
            |cluster: ClusterId, pos: u32| (failed[cluster.index()] >> pos & 1 == 0).then_some(0);
        let held = |into, cluster: ClusterId| held(into, failed[cluster.index()] != 0);
        self.classes.state_steps(cycle, held, &mut self.steps);
        let (steps, faults) = (&self.steps, &self.faults);
        // `incoming` is written by every read before anything reads it.
        let steady = |s: &mut Slot<GrState>| {
            let step = steps[s.state.seat.class()];
            if let Some(cluster) = step.read {
                s.state.resident = faults[cluster.index()];
            }
            step.charge
        };
        self.streams
            .tally(&self.classes, &mut self.tally, lag, k_prime, steady);
        self.tally.count_rebuilt(cycle, k_prime, |cluster| {
            faults[cluster.index()].reconstructed.first()
        });
    }

    /// Pass 1 for the stream in slot `ix`: in a read cycle, read its next
    /// group — the members whose disks are up, and the parity where it
    /// is read with the group — charge what is read, and fix the group's
    /// fault state.
    #[inline]
    fn read_group(&mut self, ix: usize, cycle: u64, plan: &mut CyclePlan, pass: &Pass<L>) {
        let s = self.streams.slot(ix);
        if cycle < s.start_cycle {
            return;
        }
        let rel = cycle - s.start_cycle;
        let (g, phase) = (rel / pass.period, rel % pass.period);
        if phase != 0 || g >= s.groups {
            return;
        }
        let layout = pass.layout;
        let geometry = *layout.geometry();
        let (id, object) = (s.id(), s.object);
        let blocks = s.blocks_in_group(g, pass.bpg);
        let first = layout.data_placement(s.start_cluster, g, 0);
        let failed = self.failed[first.cluster.index()];
        let down = members_down(failed, blocks);
        // The block of a single failure is rebuilt from parity;
        // otherwise a block on a failed disk is a hiccup.
        let single = failed.count_ones() == 1;
        let mut fault = ResidentGroup::default();
        let parity = if let Some(pos) = pass.parity_pos {
            // Read with the group while its disk lives.
            fault = ResidentGroup::read_with_parity(failed, down, pos);
            (failed >> pos & 1 == 0).then(|| geometry.disk_at(first.cluster, pos))
        } else {
            // On the next cluster: pass 1½ fetches it for the block to
            // rebuild. A read in flight when its disk died cannot be
            // masked — unless the committed schedule already carried
            // a parity prefetch.
            let in_flight = |pos| pass.midcycle_disk == Some(geometry.disk_at(first.cluster, pos));
            if !single {
                fault.lost = down;
            } else if let Some(block) = down.first().filter(|&pos| in_flight(pos)) {
                (fault.lost, fault.mid_cycle) = (down, Some(block as u8));
            } else {
                fault.reconstructed = down;
            }
            None
        };
        let read = GroupRead {
            stream: id,
            object,
            group: g,
            first_disk: first.disk,
            members: MemberSet::range(0, blocks).without(down),
            parity,
        };
        let reads = plan.reads.push_group(read);
        self.streams.slot_mut(ix).state.incoming = fault;
        self.streams.alloc(ix, reads);
    }

    /// Pass 2 for the stream in slot `ix`: deliver the next `k′` tracks
    /// of its resident group, free what was transmitted, retire it after
    /// its last delivery, and promote the group read in pass 1.
    #[inline]
    fn deliver_chunk(&mut self, ix: usize, cycle: u64, plan: &mut CyclePlan, pass: &Pass<L>) {
        let period = pass.period;
        let s = self.streams.slot_mut(ix);
        if cycle < s.start_cycle || (pass.cascades && !s.is_live()) {
            return;
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
            let blocks = u64::from(s.blocks_in_group(g, pass.bpg));
            let first = chunk * pass.k_prime;
            let end = (first + pass.k_prime).min(blocks);
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
                let reason = if fault.mid_cycle == Some(i as u8) {
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
                s.lost += 1;
            }
            let transmitted = end == blocks;
            let finished = transmitted && g + 1 == s.groups;
            let parity = transmitted && std::mem::take(&mut s.state.resident.parity_held);
            // Every delivered block was charged in its read cycle: as
            // a data read, or as the parity read it was rebuilt from.
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
                return;
            }
        }
        if read_now {
            // When a group is read every cycle its parity stays charged
            // until the group has been transmitted — the paper's `2C` per
            // Streaming RAID stream. Otherwise the group is fully
            // resident once its read cycle ends and the parity track is
            // released there — the paper's `C+1` Staggered-group peak
            // (Figure 4).
            let st = &mut self.streams.slot_mut(ix).state;
            st.resident = st.incoming;
            if period != 1 && std::mem::take(&mut st.resident.parity_held) {
                self.streams
                    .free(ix, 1)
                    .expect("parity_held implies a parity buffer is allocated");
            }
        }
    }

    /// Place the parity reads pass 1 asked for, shifting right through
    /// clusters until idle capacity is found: a displaced local read
    /// becomes a partial failure that needs *its* parity one cluster
    /// further. Then, if parity is prefetched, read it wherever a slot is
    /// still idle. Every read placed here is charged to its stream before
    /// pass 2 frees anything, so the table's peak reflects true
    /// simultaneity.
    fn read_parity_on_demand(&mut self, cycle: u64, plan: &mut CyclePlan) {
        let layout = *self.catalog.layout();
        let geometry = *layout.geometry();
        let cap = self.config.slots_per_disk();
        // Pass 1 pushed one record per reading stream, in slot order. Its
        // parity is placed here once, however many hops land on it.
        let mut records = std::mem::take(&mut self.on_demand.records);
        let mut queue = std::mem::take(&mut self.on_demand.queue);
        records.clear();
        queue.clear();
        let mut ix = 0;
        for (record, read) in plan.reads.groups().iter().enumerate() {
            while self.streams.slot(ix).id() != read.stream {
                ix += 1;
            }
            let s = self.streams.slot(ix);
            let parity = layout.parity_placement(s.start_cluster, read.group);
            let pos = geometry.position_in_cluster(parity.disk);
            records.push(Record {
                slot: ix,
                parity: parity.disk,
                parity_cluster: parity.cluster,
                parity_down: self.failed[parity.cluster.index()] >> pos & 1 == 1,
            });
            let rebuild = s.state.incoming.reconstructed;
            queue.extend(rebuild.iter().map(|block| (record, block)));
        }
        let mut victim_from = std::mem::take(&mut self.on_demand.victim_from);
        if !queue.is_empty() {
            victim_from.clear();
            victim_from.resize(layout.geometry().disks() as usize, 0);
        }
        let mut hops = 0usize;
        let max_hops = self.clusters() as usize * cap * 4 + 16;
        while let Some((record, block)) = queue.pop() {
            hops += 1;
            let Record {
                slot,
                parity: disk,
                parity_cluster,
                parity_down,
            } = records[record];
            if !self.streams.slot(slot).is_live() {
                continue; // already dropped
            }
            if hops > max_hops {
                // No capacity anywhere: degradation of service — drop the
                // stream whose parity could not be placed.
                self.drop_stream(slot, cycle, plan);
                continue;
            }
            let group = plan.reads.groups()[record];
            if !self.on_demand.last_shift_path.contains(&parity_cluster) {
                self.on_demand.last_shift_path.push(parity_cluster);
            }
            // A dead parity disk means the block is unrecoverable.
            if parity_down {
                let fault = &mut self.streams.slot_mut(slot).state.incoming;
                fault.reconstructed.remove(block);
                fault.lost.insert(block);
                continue;
            }
            if plan.load_on(disk) >= cap {
                // Disk full: displace the first local data read (at most
                // one per parity group is ever displaced) and retry the
                // parity read in the freed slot.
                let from = &mut victim_from[disk.0 as usize];
                let Some(victim) = plan.reads.group_reading(disk, *from) else {
                    // Nothing displaceable (all reads are parity):
                    // degradation of service.
                    self.drop_stream(slot, cycle, plan);
                    continue;
                };
                *from = victim;
                let member = disk.0 - plan.reads.groups()[victim].first_disk.0;
                plan.reads.drop_member(victim, member);
                // The displaced block will be reconstructed via its own
                // parity group one cluster to the right. Undo its
                // data-read buffer charge; its parity read (when placed)
                // re-charges.
                let victim_slot = records[victim].slot;
                let fault = &mut self.streams.slot_mut(victim_slot).state.incoming;
                fault.reconstructed.insert(member);
                self.streams
                    .free(victim_slot, 1)
                    .expect("a displaced data read was charged in pass 1");
                queue.push((victim, member));
            }
            // Idle capacity (or the slot just freed): place the parity
            // read and charge its buffer.
            plan.reads.push(disk, group.parity_read());
            self.streams.alloc(slot, 1);
        }
        self.on_demand.queue = queue;
        self.on_demand.victim_from = victim_from;

        // Adaptive parity prefetch (Section 4's sophisticated scheduler):
        // where a group's parity disk still has an idle slot, read the
        // parity alongside the data. Load always wins: full disks skip
        // the prefetch.
        if self.on_demand.prefetch {
            for (record, r) in records.iter().enumerate() {
                let (slot, disk) = (r.slot, r.parity);
                let s = self.streams.slot(slot);
                // Skip dropped streams and groups whose parity is already
                // being read to rebuild a block.
                if !s.is_live() || !s.state.incoming.reconstructed.is_empty() {
                    continue;
                }
                let group = plan.reads.groups()[record];
                if r.parity_down || plan.load_on(disk) >= cap {
                    continue;
                }
                plan.reads.push(disk, group.parity_read());
                self.streams.alloc(slot, 1);
                // A prefetched parity rescues this cycle's mid-cycle loss
                // (the read was part of the committed schedule): with it
                // and the group's surviving members resident by end of
                // cycle, the block is reconstructed in time.
                let fault = &mut self.streams.slot_mut(slot).state.incoming;
                match fault.mid_cycle.take() {
                    Some(block) => {
                        fault.lost.remove(block.into());
                        fault.reconstructed.insert(block.into());
                    }
                    None => fault.parity_held = true,
                }
            }
        }
        self.on_demand.records = records;
    }

    /// Terminate the stream in `slot` (degradation of service): retire it
    /// and take its reads back out of this cycle's plan.
    fn drop_stream(&mut self, slot: usize, cycle: u64, plan: &mut CyclePlan) {
        let st = self.streams.slot_mut(slot);
        let (id, object) = (st.id(), st.object);
        self.classes.vacate(&mut st.state.seat);
        self.streams.retire(slot);
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
    use mms_layout::{BandwidthClass, ClusteredLayout, Geometry};

    /// A catalog over `layout`; object `i` has `tracks[i]` tracks.
    fn catalog<L: Layout>(layout: L, tracks: &[u64]) -> Catalog<L> {
        let mut catalog = Catalog::new(layout, 100_000);
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
        catalog
    }

    fn build(
        disks: usize,
        c: usize,
        k_prime: usize,
        tracks: &[u64],
    ) -> GroupedScheduler<ClusteredLayout> {
        let layout = ClusteredLayout::new(Geometry::clustered(disks, c).unwrap());
        GroupedScheduler::new(config(c - 1, k_prime), catalog(layout, tracks))
    }

    /// Table 1 disks serving MPEG-1.
    fn config(k: usize, k_prime: usize) -> CycleConfig {
        CycleConfig::new(
            DiskParams::paper_table1(),
            Bandwidth::from_megabits(1.5),
            k,
            k_prime,
        )
    }

    /// C = 9 gives k' ∈ {1, 2, 4, 8}: a real sweep range.
    fn make(k_prime: usize) -> GroupedScheduler<ClusteredLayout> {
        build(9, 9, k_prime, &[240])
    }

    /// C = 5, the paper's running example; object `i` has `tracks[i]`
    /// tracks. Streaming RAID is `k' = 4`, Staggered-group `k' = 1`.
    fn c5(disks: usize, k_prime: usize, tracks: &[u64]) -> GroupedScheduler<ClusteredLayout> {
        build(disks, 5, k_prime, tracks)
    }

    /// Every `k'` at C = 5, with its read period `k/k'`.
    const C5_SWEEP: [(usize, u64); 3] = [(4, 1), (2, 2), (1, 4)];

    /// What cycles `cycles` delivered: (tracks, of which reconstructed,
    /// hiccups).
    fn transmit(
        s: &mut impl SchemeScheduler,
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
    fn a_streams_slot_is_two_cache_lines() {
        // The planner walks and compacts the slab every cycle; at 144
        // bytes a slot (one more member set in each resident group) the
        // healthy SR loop measured slower (EXPERIMENTS, PR 23).
        assert!(std::mem::size_of::<crate::table::Slot<GrState>>() <= 128);
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
    fn the_layout_decides_how_parity_is_read_and_what_a_stream_buffers() {
        // One constructor, `k = k' = C−1 = 4`, two layouts: a healthy
        // read's parity disk and the per-stream buffer peak.
        fn healthy<L: Layout + Copy>(layout: L) -> (Option<DiskId>, usize) {
            let mut s = GroupedScheduler::new(config(4, 4), catalog(layout, &[40]));
            s.admit(ObjectId(0), 0).unwrap();
            let parity = plan_cycle(&mut s, 0).reads.groups()[0].parity;
            for t in 1..6 {
                let p = plan_cycle(&mut s, t);
                assert_eq!(p.reads.groups()[0].parity.is_some(), parity.is_some());
            }
            (parity, s.buffer_high_water())
        }
        // Read with the group from the cluster's own parity disk: 2C.
        let clustered = ClusteredLayout::new(Geometry::clustered(10, 5).unwrap());
        assert_eq!(healthy(clustered), (Some(DiskId(4)), 10));
        // On the next cluster, not read while healthy: 2(C−1).
        let improved = ImprovedLayout::new(Geometry::improved(8, 5).unwrap());
        assert_eq!(healthy(improved), (None, 8));
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
    fn a_failed_parity_disk_counts_with_nothing_rebuilt() {
        // Streaming RAID with cluster 0's parity disk down reads the four
        // data disks of a group there and rebuilds nothing: a counted plan
        // says so, with the parity disk out of the load table, and leaves
        // the scheduler where planning every stream one by one does.
        let mut s = c5(10, 4, &[400]);
        for at in 0..4 {
            s.admit(ObjectId(0), at).unwrap();
        }
        s.on_disk_failure(DiskId(4), 0, false);
        let mut itemised = s.clone();
        let mut plan = CyclePlan::empty(0);
        plan.allow_counting(true);
        let mut counted_on_cluster_0 = 0;
        for t in 0..20 {
            s.plan_cycle_into(t, &mut plan);
            let reference = plan_cycle(&mut itemised, t);
            assert_eq!(plan.load_on(DiskId(4)), 0, "cycle {t}");
            for disk in (0..10).map(DiskId) {
                assert_eq!(plan.load_on(disk), reference.load_on(disk), "cycle {t}");
            }
            assert_eq!(plan.deliveries.len(), reference.deliveries.len());
            assert_eq!(plan.deliveries.reconstructed(), 0, "cycle {t}");
            assert_eq!(s.buffer_in_use(), itemised.buffer_in_use(), "cycle {t}");
            let cluster_0 = (0..4).map(|d| plan.load_on(DiskId(d))).sum::<usize>();
            counted_on_cluster_0 += usize::from(plan.is_counted() && cluster_0 > 0);
        }
        assert!(counted_on_cluster_0 >= 5, "{counted_on_cluster_0}");
        assert_eq!(s.buffer_high_water(), itemised.buffer_high_water());
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

    /// Parity on the next cluster, read on demand (Section 4): C = 5,
    /// clusters of four all-data disks.
    mod improved_bandwidth {
        use super::*;

        /// Object `i` has `tracks[i]` tracks.
        fn make(
            disks: usize,
            c: usize,
            reserve: usize,
            tracks: &[u64],
        ) -> GroupedScheduler<ImprovedLayout> {
            let layout = ImprovedLayout::new(Geometry::improved(disks, c).unwrap());
            GroupedScheduler::with_reserve(config(c - 1, c - 1), catalog(layout, tracks), reserve)
        }

        /// Eight disks, reserve 1, one 40-track movie.
        fn prefetching(prefetch: bool) -> GroupedScheduler<ImprovedLayout> {
            let mut s = make(8, 5, 1, &[40]);
            s.set_parity_prefetch(prefetch);
            s
        }

        #[test]
        fn normal_mode_never_reads_parity() {
            let mut s = make(8, 5, 1, &[16]);
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
        fn failure_masked_by_parity_from_next_cluster() {
            let mut s = make(8, 5, 1, &[16]);
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
            let mut s = make(8, 5, 1, &[16]);
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
            let mut s = make(8, 5, 1, &[16]);
            assert!(!s.on_disk_failure(DiskId(0), 0, false).catastrophic);
            // Disk 4 is in cluster 1, adjacent to cluster 0.
            assert!(s.on_disk_failure(DiskId(4), 0, false).catastrophic);
        }

        #[test]
        fn shift_cascades_when_next_cluster_is_full() {
            // 3 clusters of 4 disks; fill cluster 1's disks to capacity so the
            // parity read for cluster 0's failure displaces a local read,
            // which in turn needs parity from cluster 2.
            let mut s = make(12, 5, 1, &[120, 120, 120]);
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
            let mut s = make(8, 5, 0, &[120, 120]);
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
            let s = make(8, 5, 1, &[16]);
            // T_cyc for k' = 4: slots = 52; usable 51 × 2 clusters = 102.
            assert_eq!(s.stream_capacity(), 102);
            let s2 = make(8, 5, 10, &[16]);
            assert_eq!(s2.stream_capacity(), 84);
        }

        #[test]
        fn prefetch_masks_the_midcycle_hiccup() {
            // Without prefetch: exactly one MidCycle hiccup (§4's unmaskable
            // read). With prefetch: zero — the committed schedule already
            // carried the parity.
            for (prefetch, expect_hiccups) in [(false, 1usize), (true, 0usize)] {
                let mut s = prefetching(prefetch);
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
            let mut s = prefetching(true);
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
            let mut s = prefetching(true);
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
}
