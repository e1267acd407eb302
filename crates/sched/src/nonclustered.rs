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
//!
//! What a transition or a degraded group schedules for later cycles —
//! losses, moved reads, buffer frees — sits on a [`Calendar`] of per-cycle
//! buckets; which blocks it took off the normal schedule, or will deliver
//! rebuilt, sits in the stream's own slot as [`GroupMarks`]. Neither is
//! looked up by key: a cycle takes its own bucket, a stream reads its own
//! marks.

use crate::cycle::CycleConfig;
use crate::plan::{CyclePlan, Delivery, LossReason, LostBlock, PlannedRead, ReadPurpose};
use crate::streams::{StreamId, StreamInfo};
use crate::table::{ClassTable, Seat, Seated, Slot, StreamTable, Tally};
use crate::traits::{
    AdmissionError, FailureReport, PlanStability, SchemeKind, SchemeScheduler, SteadyCycle,
};
use mms_buffer::BufferServerPool;
use mms_disk::DiskId;
use mms_layout::{BlockAddr, BlockKind, Catalog, ClusterId, ClusteredLayout, Layout, ObjectId};

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

/// Which of a stream's transition marks.
#[derive(Debug, Clone, Copy)]
enum Mark {
    /// The normal schedule does not read the block: a transition moved
    /// its read or gave the block up.
    Suppressed,
    /// The block is delivered rebuilt from parity.
    Reconstructed,
}

/// A stream's transition marks on one parity group, one bit per block
/// (a group has at most 127 data blocks: see the constructor). A mark is
/// used once — a suppressed one in the cycle its block would be read, a
/// reconstructed one in the cycle its block is delivered — and using it
/// clears it.
#[derive(Debug, Clone, Copy, Default)]
struct GroupMarks {
    group: u64,
    suppressed: u128,
    reconstructed: u128,
}

impl GroupMarks {
    fn bits(&mut self, mark: Mark) -> &mut u128 {
        match mark {
            Mark::Suppressed => &mut self.suppressed,
            Mark::Reconstructed => &mut self.reconstructed,
        }
    }

    fn count(&self) -> usize {
        (self.suppressed.count_ones() + self.reconstructed.count_ones()) as usize
    }
}

/// A stream's slot state: its admission seat, whether its last read's
/// buffer is freed with the steady streams', and the marks of the two
/// most recent groups a transition or a degraded read touched. Group
/// `g + 1` may be marked at its start while the last block of `g` is
/// still to be delivered; every mark of an older group was due, and so
/// used, before that. The slot stays all scalars, so `plan_cycle_into`
/// never touches the heap for it.
#[derive(Debug, Clone, Copy)]
struct NcState {
    seat: Seat,
    /// The block read in the last planned cycle was counted, not
    /// planned: no calendar free names it, and the next cycle frees it
    /// with the steady streams' if this stream is steady then, or on its
    /// own otherwise.
    implicit_free: bool,
    marks: [GroupMarks; 2],
}

impl NcState {
    fn new(seat: Seat) -> Self {
        NcState {
            seat,
            implicit_free: false,
            marks: [GroupMarks::default(); 2],
        }
    }

    /// Set `mark` on block `i` of group `g`; true if it was not set.
    fn mark(&mut self, g: u64, i: u32, mark: Mark) -> bool {
        let k = match self.marks.iter().position(|m| m.group == g) {
            Some(k) => k,
            None => {
                let k = self
                    .marks
                    .iter()
                    .position(|m| m.count() == 0)
                    .expect("a stream carries marks for its two most recent groups at most");
                self.marks[k].group = g;
                k
            }
        };
        let bits = self.marks[k].bits(mark);
        let unset = *bits >> i & 1 == 0;
        *bits |= 1 << i;
        unset
    }

    /// Use `mark` on block `i` of group `g`: clear it, and say whether it
    /// was set.
    #[inline]
    fn take(&mut self, g: u64, i: u32, mark: Mark) -> bool {
        let Some(m) = self.marks.iter_mut().find(|m| m.group == g) else {
            return false;
        };
        let bits = m.bits(mark);
        let set = *bits >> i & 1 == 1;
        *bits &= !(1 << i);
        set
    }

    /// The lowest block of group `g` marked to be delivered rebuilt.
    fn first_reconstructed(&self, g: u64) -> Option<u32> {
        let m = self.marks.iter().find(|m| m.group == g)?;
        (m.reconstructed != 0).then(|| m.reconstructed.trailing_zeros())
    }

    /// Clear every mark; returns how many were set.
    fn clear_marks(&mut self) -> usize {
        let set = self.marks.iter().map(GroupMarks::count).sum();
        self.marks = [GroupMarks::default(); 2];
        set
    }
}

impl Seated for NcState {
    #[inline]
    fn seat(&self) -> &Seat {
        &self.seat
    }

    #[inline]
    fn seat_mut(&mut self) -> &mut Seat {
        &mut self.seat
    }
}

/// A stream's slot, as the planning helpers see it.
type NcStream = Slot<NcState>;

/// The lists of a [`Due`] bucket, as bits of its `keys`.
#[derive(Debug, Clone, Copy)]
enum List {
    Losses,
    Reads,
    Frees,
    ServerFrees,
}

/// What falls due in one cycle.
#[derive(Debug, Clone, Default)]
struct Due {
    /// Blocks that will not be delivered this cycle.
    losses: Vec<LostBlock>,
    /// Reads a transition moved into this cycle. `DiskId(u32::MAX)` marks
    /// the delayed policy's XOR accumulator: a buffer, but no read.
    reads: Vec<(DiskId, PlannedRead)>,
    /// One stream buffer track each, released when the cycle's deliveries
    /// end; the block is named so a displaced read can cancel its free.
    frees: Vec<(StreamId, BlockAddr)>,
    /// One track each on the named cluster's buffer server.
    server_frees: Vec<u32>,
    /// Which lists hold this cycle as a key, one bit per [`List`]: set by
    /// a list's first entry and cleared only when the cycle is taken —
    /// an entry cancelled since (a displaced read's free, a detached
    /// server's) leaves the key, as it would in a map keyed by cycle.
    keys: u8,
}

impl Due {
    fn clear(&mut self) {
        self.losses.clear();
        self.reads.clear();
        self.frees.clear();
        self.server_frees.clear();
        self.keys = 0;
    }

    fn is_empty(&self) -> bool {
        self.keys == 0
            && self.losses.is_empty()
            && self.reads.is_empty()
            && self.frees.is_empty()
            && self.server_frees.is_empty()
    }
}

/// Everything NC has scheduled for later cycles, one [`Due`] bucket per
/// cycle from the one being planned to `bpg` cycles after it — nothing is
/// due later: a group read at its start delivers its last block `bpg`
/// cycles on. The buckets form a ring whose storage is reused as the
/// clock moves, so a cycle allocates nothing once every bucket has grown
/// to its working size.
#[derive(Debug, Clone)]
struct Calendar {
    ring: Vec<Due>,
    /// Ring index of `base`'s bucket.
    head: usize,
    /// The first cycle not yet taken.
    base: u64,
    /// Buckets holding each [`List`] as a key.
    keyed: [usize; 4],
}

impl Calendar {
    /// A calendar whose latest bucket is `horizon` cycles after the cycle
    /// being planned.
    fn new(horizon: u64) -> Self {
        Calendar {
            ring: vec![Due::default(); horizon as usize + 1],
            head: 0,
            base: 0,
            keyed: [0; 4],
        }
    }

    /// Ring index of `cycle`'s bucket.
    #[inline]
    fn index(&self, cycle: u64) -> usize {
        let offset = cycle
            .checked_sub(self.base)
            .filter(|&offset| offset < self.ring.len() as u64)
            .expect("NC calendar: nothing is due before the cycle being planned or more than bpg cycles after it");
        let ix = self.head + offset as usize;
        if ix >= self.ring.len() {
            ix - self.ring.len()
        } else {
            ix
        }
    }

    /// `cycle`'s bucket, holding `list` as a key until the cycle is taken.
    #[inline]
    fn at(&mut self, cycle: u64, list: List) -> &mut Due {
        let ix = self.index(cycle);
        let due = &mut self.ring[ix];
        let key = 1 << list as u8;
        if due.keys & key == 0 {
            due.keys |= key;
            self.keyed[list as usize] += 1;
        }
        due
    }

    /// Lose `loss` at its delivery cycle.
    fn lose(&mut self, loss: LostBlock) {
        self.at(loss.delivery_cycle, List::Losses).losses.push(loss);
    }

    /// Issue `read` from `disk` in `cycle`.
    fn read_at(&mut self, cycle: u64, disk: DiskId, read: PlannedRead) {
        self.at(cycle, List::Reads).reads.push((disk, read));
    }

    /// Free the buffer track holding `addr` for stream `id` when `cycle`
    /// ends.
    #[inline]
    fn free_at(&mut self, cycle: u64, id: StreamId, addr: BlockAddr) {
        self.at(cycle, List::Frees).frees.push((id, addr));
    }

    /// Free one track of `cluster`'s buffer server when `cycle` ends.
    fn server_free_at(&mut self, cycle: u64, cluster: u32) {
        self.at(cycle, List::ServerFrees).server_frees.push(cluster);
    }

    /// Cancel the free of `addr` for stream `id` due when `cycle` ends: its
    /// read was displaced, so nothing was buffered.
    fn cancel_free(&mut self, cycle: u64, id: StreamId, addr: BlockAddr) {
        let ix = self.index(cycle);
        let frees = &mut self.ring[ix].frees;
        if let Some(jx) = frees.iter().position(|&(sid, a)| sid == id && a == addr) {
            frees.swap_remove(jx);
        }
    }

    /// Forget the frees owed to `cluster`'s buffer server: it detached,
    /// and its pool went with it.
    fn drop_server_frees(&mut self, cluster: u32) {
        for due in &mut self.ring {
            due.server_frees.retain(|&c| c != cluster);
        }
    }

    /// Every pending loss, by delivery cycle and, within one, in the
    /// order recorded.
    fn losses(&self) -> impl Iterator<Item = &LostBlock> {
        let (front, back) = self.ring.split_at(self.head);
        back.iter().chain(front).flat_map(|due| &due.losses)
    }

    /// Take out everything due in `cycle`, the cycle being planned. The
    /// bucket goes back, emptied, with [`recycle`](Self::recycle).
    fn take(&mut self, cycle: u64) -> Due {
        assert_eq!(cycle, self.base, "NC calendar: cycles are taken in order");
        let due = std::mem::take(&mut self.ring[self.head]);
        for (list, keyed) in self.keyed.iter_mut().enumerate() {
            *keyed -= usize::from(due.keys >> list & 1);
        }
        due
    }

    /// End the cycle [`take`](Self::take) opened: its bucket's storage
    /// becomes the latest cycle's.
    fn recycle(&mut self, mut due: Due) {
        debug_assert!(
            self.ring[self.head].is_empty(),
            "NC calendar: nothing is scheduled into a cycle already taken"
        );
        due.clear();
        self.ring[self.head] = due;
        self.head = (self.head + 1) % self.ring.len();
        self.base += 1;
    }

    /// Move the clock `cycles` on, with the one bucket a settled server
    /// has pending — the healthy cycle's frees, due when the next planned
    /// cycle ends — moving with it.
    fn fast_forward(&mut self, cycles: u64) {
        let from = self.head;
        self.head = (self.head + (cycles % self.ring.len() as u64) as usize) % self.ring.len();
        self.ring.swap(from, self.head);
        self.base += cycles;
    }

    /// Whether nothing is pending but buffer frees due when the next
    /// planned cycle ends.
    fn quiet(&self) -> bool {
        let [losses, reads, frees, server_frees] = self.keyed;
        let next = &self.ring[self.head];
        losses == 0
            && reads == 0
            && server_frees == 0
            && (frees == 0 || frees == 1 && next.keys >> List::Frees as u8 & 1 == 1)
    }

    /// Whether all that is pending is one healthy cycle's reads: `frees`
    /// buffer frees, due when the next planned cycle ends, `implicit` of
    /// them counted rather than booked.
    fn holds_one_cycle_of_frees(&self, frees: usize, implicit: usize) -> bool {
        let booked = self.ring[self.head].frees.len();
        // With nothing booked or counted, no stream read last cycle.
        self.quiet()
            && (booked + implicit == frees || self.keyed[List::Frees as usize] + implicit == 0)
    }
}

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
    streams: StreamTable<NcState>,
    /// Streams with reads still to issue, per admission class.
    classes: ClassTable,
    /// Degraded-cluster state, indexed by cluster.
    degraded: Vec<Option<Degraded>>,
    /// Clusters with a degraded record.
    degraded_clusters: usize,
    /// Losses, moved reads and buffer frees, by the cycle they fall due.
    /// Degraded-mode group buffers are also charged to the cluster's
    /// attached buffer server, so §3's sizing (BF_SG/(D′/C) per server) is
    /// *enforced*, not just provisioned; the server's frees wait here too.
    calendar: Calendar,
    /// Marks set and not yet used, over every stream's slot.
    live_marks: usize,
    /// Streams whose last read's free is implicit (`NcState::implicit_free`).
    implicit_frees: usize,
    /// A counted cycle's scratch.
    tally: Tally,
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
        let geometry = *catalog.layout().geometry();
        assert!(
            geometry.disks_per_cluster() <= 128,
            "failure bitmask supports at most 128 disks per cluster"
        );
        // Each degraded cluster needs the staggered-group buffer profile:
        // C(C+1)/2 tracks per C−1 streams, bounded by slots per class.
        let c = geometry.group_size() as usize;
        let per_server = (c * (c + 1) / 2) * config.slots_per_disk();
        let bpg = u64::from(catalog.layout().blocks_per_group());
        let classes = ClassTable::new(bpg, geometry);
        // A class seats `slots` streams, and as many may still be
        // delivering the last block of a seat they gave back.
        let streams = 2 * config.slots_per_disk() * classes.classes();
        NonClusteredScheduler {
            tally: Tally::new(&classes, streams),
            config,
            catalog,
            policy,
            streams: StreamTable::new(bpg),
            classes,
            degraded: vec![None; geometry.clusters() as usize],
            degraded_clusters: 0,
            calendar: Calendar::new(bpg),
            live_marks: 0,
            implicit_frees: 0,
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
        self.calendar.lose(loss);
    }

    /// Set `mark` on block (g, i) of the stream in slot `ix`.
    fn mark(&mut self, ix: usize, g: u64, i: u32, mark: Mark) {
        if self.streams.slot_mut(ix).state.mark(g, i, mark) {
            self.live_marks += 1;
        }
    }

    /// Use `mark` on block (g, i) of the stream in slot `ix`: whether it
    /// was set.
    #[inline]
    fn take_mark(&mut self, ix: usize, g: u64, i: u32, mark: Mark) -> bool {
        if self.live_marks == 0 {
            return false;
        }
        let taken = self.streams.slot_mut(ix).state.take(g, i, mark);
        self.live_marks -= usize::from(taken);
        taken
    }

    /// Retire the stream in slot `ix`: its seat goes back, and whatever
    /// marks and pending free it had go with it.
    fn retire(&mut self, ix: usize) {
        let state = &mut self.streams.slot_mut(ix).state;
        self.classes.vacate(&mut state.seat);
        self.live_marks -= state.clear_marks();
        self.implicit_frees -= usize::from(std::mem::take(&mut state.implicit_free));
        self.streams.retire(ix);
    }

    /// Is this group's read handled group-at-a-time (degraded steady
    /// state)? True when its cluster is degraded and either the policy is
    /// simple or the group starts after the C-cycle transition window.
    fn group_at_a_time(&self, cluster: ClusterId, group_start: u64) -> bool {
        let Some(policy) = self.policy else {
            return false; // nothing to fall back on
        };
        let parity_pos = self.catalog.layout().geometry().disks_per_cluster() - 1;
        match self.degraded[cluster.index()] {
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
        match self.degraded[cluster.index()] {
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

    /// Plan the group-at-a-time reads for the group `g` the stream in slot
    /// `ix` starts now.
    fn plan_group_at_once(
        &mut self,
        plan: &mut CyclePlan,
        ix: usize,
        g: u64,
        cycle: u64,
        degraded: &Degraded,
        parity_alive: bool,
    ) {
        let layout = *self.catalog.layout();
        let geometry = *layout.geometry();
        let s = self.streams.slot(ix);
        let (id, object, start_cluster) = (s.id(), s.object, s.start_cluster);
        let blocks = s.blocks_in_group(g, self.bpg());
        let failed_positions = degraded.all_failed_mask();
        // A single data-disk failure with live parity is reconstructable;
        // anything more loses the affected blocks.
        let data_mask = (1u128 << (geometry.disks_per_cluster() - 1)) - 1;
        let data_failures = (failed_positions & data_mask).count_ones();
        let recoverable = parity_alive && data_failures <= 1;
        let mut reads = 0usize;
        for i in 0..blocks {
            let p = layout.data_placement(start_cluster, g, i);
            let pos = geometry.position_in_cluster(p.disk);
            let addr = BlockAddr::data(object, g, i);
            let delivery_cycle = cycle + u64::from(i) + 1;
            if failed_positions & (1u128 << pos) != 0 {
                if recoverable {
                    self.mark(ix, g, i, Mark::Reconstructed);
                    self.calendar.free_at(delivery_cycle, id, addr);
                } else {
                    self.record_loss(LostBlock {
                        stream: id,
                        addr,
                        reason: LossReason::FailedDisk,
                        delivery_cycle,
                    });
                }
                continue;
            }
            plan.reads.push(
                p.disk,
                PlannedRead {
                    stream: id,
                    addr,
                    purpose: ReadPurpose::Reconstruction,
                },
            );
            reads += 1;
            self.calendar.free_at(delivery_cycle, id, addr);
        }
        if recoverable && failed_positions & ((1u128 << blocks) - 1) != 0 {
            let pp = layout.parity_placement(start_cluster, g);
            plan.reads.push(
                pp.disk,
                PlannedRead {
                    stream: id,
                    addr: BlockAddr::parity(object, g),
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
        let cluster = layout.data_cluster(start_cluster, g).0;
        if let Some(server) = self.servers.server_for(cluster) {
            server
                .pool_mut()
                .charge(reads)
                .expect("buffer server sized for its cluster's degraded load");
            let mut remaining = reads;
            for i in 0..blocks {
                if remaining == 0 {
                    break;
                }
                // One buffer drains per delivery slot; lost blocks (never
                // buffered) skip their slot.
                let buffered = {
                    let p = layout.data_placement(start_cluster, g, i);
                    let pos = geometry.position_in_cluster(p.disk);
                    recoverable || failed_positions & (1u128 << pos) == 0
                };
                if buffered {
                    self.calendar
                        .server_free_at(cycle + u64::from(i) + 1, cluster);
                    remaining -= 1;
                }
            }
        }
    }

    /// Apply the Figure-6 simple transition for the stream in slot `ix`,
    /// at block `p` of group `g` when the failure strikes.
    fn simple_transition_for(&mut self, ix: usize, g: u64, p: u32, since: u64, failed_pos: u32) {
        let layout = *self.catalog.layout();
        let geometry = *layout.geometry();
        let s = self.streams.slot(ix);
        let (id, object, start_cluster) = (s.id(), s.object, s.start_cluster);
        let blocks = s.blocks_in_group(g, self.bpg());
        let t_g = self.group_start(s, g);
        for q in p..blocks {
            let delivery_cycle = t_g + u64::from(q) + 1;
            let addr = BlockAddr::data(object, g, q);
            let placement = layout.data_placement(start_cluster, g, q);
            let pos = geometry.position_in_cluster(placement.disk);
            self.mark(ix, g, q, Mark::Suppressed);
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
                let read = PlannedRead {
                    stream: id,
                    addr,
                    purpose: ReadPurpose::Delivery,
                };
                self.calendar.read_at(since, placement.disk, read);
            }
        }
    }

    /// Apply the Figure-7 delayed transition for the stream in slot `ix`,
    /// at block `p` of group `g` when the failure strikes.
    fn delayed_transition_for(&mut self, ix: usize, g: u64, p: u32, failed_pos: u32) {
        let s = self.streams.slot(ix);
        let (id, object) = (s.id(), s.object);
        let blocks = s.blocks_in_group(g, self.bpg());
        let t_g = self.group_start(s, g);
        // Only the block on the failed disk is lost (if not yet read);
        // everything else keeps its original schedule.
        if failed_pos < blocks && failed_pos >= p {
            self.mark(ix, g, failed_pos, Mark::Suppressed);
            self.record_loss(LostBlock {
                stream: id,
                addr: BlockAddr::data(object, g, failed_pos),
                reason: LossReason::FailedDisk,
                delivery_cycle: t_g + u64::from(failed_pos) + 1,
            });
        }
    }

    /// Plan the delayed-window reads for the group `g` the stream in slot
    /// `ix` starts now (failure-window groups under the delayed policy):
    /// normal per-cycle reads before the failed position, everything
    /// after it plus parity at the reconstruction deadline `t_g + f`.
    fn plan_delayed_group_events(
        &mut self,
        ix: usize,
        g: u64,
        failed_pos: u32,
        parity_alive: bool,
    ) {
        let layout = *self.catalog.layout();
        let s = self.streams.slot(ix);
        let (id, object, start_cluster) = (s.id(), s.object, s.start_cluster);
        let blocks = s.blocks_in_group(g, self.bpg());
        let t_g = self.group_start(s, g);
        if failed_pos >= blocks {
            return; // failed disk not used by this (partial) group
        }
        let failed_addr = BlockAddr::data(object, g, failed_pos);
        self.mark(ix, g, failed_pos, Mark::Suppressed);
        if !parity_alive {
            self.record_loss(LostBlock {
                stream: id,
                addr: failed_addr,
                reason: LossReason::FailedDisk,
                delivery_cycle: t_g + u64::from(failed_pos) + 1,
            });
            return;
        }
        let deadline = t_g + u64::from(failed_pos);
        self.mark(ix, g, failed_pos, Mark::Reconstructed);
        // The XOR accumulator occupies one track from group start until
        // the reconstructed block is delivered: charged when `t_g`'s
        // moved reads are issued (a read from no disk stands for it),
        // freed after the delivery.
        self.calendar.free_at(deadline + 1, id, failed_addr);
        let accumulator = PlannedRead {
            stream: id,
            addr: failed_addr,
            purpose: ReadPurpose::Reconstruction,
        };
        self.calendar.read_at(t_g, DiskId(u32::MAX), accumulator);
        // Blocks after the failed position move up to the deadline.
        for q in (failed_pos + 1)..blocks {
            let placement = layout.data_placement(start_cluster, g, q);
            let addr = BlockAddr::data(object, g, q);
            self.mark(ix, g, q, Mark::Suppressed);
            let read = PlannedRead {
                stream: id,
                addr,
                purpose: ReadPurpose::Reconstruction,
            };
            self.calendar.read_at(deadline, placement.disk, read);
            // Held from the deadline until delivery.
            self.calendar.free_at(t_g + u64::from(q) + 1, id, addr);
        }
        // Parity at the deadline (absorbed into the reconstruction, so
        // its buffer is the accumulator's — no extra charge).
        let pp = layout.parity_placement(start_cluster, g);
        let parity = PlannedRead {
            stream: id,
            addr: BlockAddr::parity(object, g),
            purpose: ReadPurpose::Parity,
        };
        self.calendar.read_at(deadline, pp.disk, parity);
    }

    /// Normal mode with nothing left of a transition: no degraded
    /// cluster, no mark to use, and nothing scheduled ahead but last
    /// cycle's buffer frees — what a counted cycle needs.
    fn quiet(&self) -> bool {
        self.degraded_clusters == 0 && self.live_marks == 0 && self.calendar.quiet()
    }

    /// Fully-normal mode: [`quiet`](Self::quiet), and every stream read
    /// last cycle — one pending free per stream, due when the next cycle
    /// ends.
    fn settled(&self) -> bool {
        self.quiet()
            && self
                .calendar
                .holds_one_cycle_of_frees(self.streams.len(), self.implicit_frees)
    }

    /// Normal mode: block `i` of a group is read `i` cycles after the
    /// group was started, from position `i` of its cluster; parity is
    /// never read. The lag of [`ClassTable::state_cycle`].
    fn normal_lag(&self) -> impl Fn(u32) -> Option<u32> {
        let bpg = self.catalog.layout().blocks_per_group();
        move |pos| (pos < bpg).then_some(pos)
    }

    /// Pass 1 for the stream in slot `ix`: its read of this cycle on the
    /// normal schedule — or, at the start of a group on a degraded
    /// cluster, the group-at-a-time or delayed-window reads.
    #[inline]
    fn read_block(&mut self, ix: usize, cycle: u64, plan: &mut CyclePlan) {
        let layout = *self.catalog.layout();
        let geometry = *layout.geometry();
        let s = self.streams.slot(ix);
        let Some((g, i)) = self.position_at(s, cycle) else {
            return;
        };
        let (id, object, start_cluster) = (s.id(), s.object, s.start_cluster);
        let blocks = s.blocks_in_group(g, self.bpg());
        let t_g = self.group_start(s, g);
        self.streams.vacate_if_reads_done(ix, &mut self.classes);
        let cluster = layout.data_cluster(start_cluster, g);
        let whole_group = self.group_at_a_time(cluster, t_g);

        if i == 0 {
            if whole_group {
                let d = self.degraded[cluster.index()]
                    .expect("group_at_a_time is only true for degraded clusters");
                let parity_pos = geometry.disks_per_cluster() - 1;
                let parity_alive = d.failed_pos != parity_pos && !d.also_contains(parity_pos);
                self.plan_group_at_once(plan, ix, g, cycle, &d, parity_alive);
                return;
            }
            if self.delayed_window(cluster, t_g) {
                let d = self.degraded[cluster.index()]
                    .expect("delayed_window is only true for degraded clusters");
                let parity_alive = d.failed_pos != geometry.disks_per_cluster() - 1;
                self.plan_delayed_group_events(ix, g, d.failed_pos, parity_alive);
                // Normal per-cycle reads still apply below for the
                // non-suppressed positions.
            }
        }

        // Normal read of block (g, i), unless suppressed or this group is
        // handled group-at-a-time (its start planned all reads already).
        // The mark is used either way.
        let suppressed = self.take_mark(ix, g, i, Mark::Suppressed);
        if i < blocks && !whole_group && !suppressed {
            let p = layout.data_placement(start_cluster, g, i);
            let pos = geometry.position_in_cluster(p.disk);
            let failed_here = self.degraded[cluster.index()]
                .is_some_and(|d| d.failed_pos == pos || d.also_contains(pos));
            let addr = BlockAddr::data(object, g, i);
            if failed_here {
                // A normal read aimed at a failed disk with no transition
                // plan covering it: lost.
                self.record_loss(LostBlock {
                    stream: id,
                    addr,
                    reason: LossReason::FailedDisk,
                    delivery_cycle: cycle + 1,
                });
            } else {
                plan.reads.push(
                    p.disk,
                    PlannedRead {
                        stream: id,
                        addr,
                        purpose: ReadPurpose::Delivery,
                    },
                );
                self.streams
                    .alloc(ix, 1)
                    .expect("unbounded pool never refuses an allocation");
                self.calendar.free_at(cycle + 1, id, addr);
            }
        }
    }

    /// The delivery step for the stream in slot `ix`: block (g, q) goes
    /// out at `t_g + q + 1` unless it is among `losses`, this cycle's;
    /// the stream retires after its final group's last real block's
    /// delivery slot (partial groups leave trailing idle slots). A read
    /// of last cycle that was counted is freed here.
    #[inline]
    fn deliver_block(&mut self, ix: usize, cycle: u64, plan: &mut CyclePlan, losses: &[LostBlock]) {
        let bpg = self.bpg();
        if std::mem::take(&mut self.streams.slot_mut(ix).state.implicit_free) {
            self.implicit_frees -= 1;
            self.streams
                .free(ix, 1)
                .expect("a counted read's buffer stays charged until it is freed");
        }
        let s = self.streams.slot_mut(ix);
        if cycle == 0 || cycle < s.start_cycle + 1 {
            return;
        }
        let rel = cycle - s.start_cycle - 1;
        let g = rel / bpg;
        let q = (rel % bpg) as u32;
        if g >= s.groups {
            return;
        }
        let id = s.id();
        let blocks = s.blocks_in_group(g, bpg);
        if q < blocks {
            // The reconstruction mark is used whether or not the block
            // goes out.
            let reconstructed = self.live_marks > 0 && s.state.take(g, q, Mark::Reconstructed);
            self.live_marks -= usize::from(reconstructed);
            // The list is tiny (one loss per stream per cycle at most),
            // so a linear scan beats building a set — and allocates
            // nothing.
            let lost = losses.iter().any(|l| match l.addr.kind {
                BlockKind::Data(ix) => l.stream == id && l.addr.group == g && ix == q,
                BlockKind::Parity => false,
            });
            if !lost {
                plan.deliveries.push(Delivery {
                    stream: id,
                    addr: BlockAddr::data(s.object, g, q),
                    reconstructed,
                });
                s.delivered += 1;
            }
        }
        if g + 1 == s.groups && q + 1 >= blocks {
            plan.finished.push(id);
            self.retire(ix);
        }
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

    /// `(len, capacity)` of each scratch pool and of every list of the
    /// calendar, for the churn leak test.
    #[cfg(test)]
    pub(crate) fn scratch_footprint(&self) -> Vec<(usize, usize)> {
        let mut footprint = vec![
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
        ];
        for due in &self.calendar.ring {
            footprint.push((due.losses.len(), due.losses.capacity()));
            footprint.push((due.reads.len(), due.reads.capacity()));
            footprint.push((due.frees.len(), due.frees.capacity()));
            footprint.push((due.server_frees.len(), due.server_frees.capacity()));
        }
        footprint
    }

    /// Marks set and not yet used, counted two ways: the running count
    /// `settled` reads, and a walk over every slot.
    #[cfg(test)]
    pub(crate) fn live_marks(&self) -> (usize, usize) {
        let walked = self.streams.iter().flat_map(|s| &s.state.marks);
        (self.live_marks, walked.map(GroupMarks::count).sum())
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
        Ok(self.streams.admit(placed, at_cycle, NcState::new(seat)))
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
        // A stream that has read nothing retires at once (it carries no
        // mark: a mark is only ever set on a group being read).
        // Otherwise the started group's remaining blocks drain (including
        // any degraded-mode reconstruction already planned) and the
        // normal finish path retires the stream.
        self.streams.release_seated(id, &mut self.classes)
    }

    fn plan_cycle_into(&mut self, cycle: u64, plan: &mut CyclePlan) {
        self.streams.begin_cycle(cycle);
        plan.reset(cycle);
        let layout = *self.catalog.layout();
        let geometry = *layout.geometry();
        let bpg = self.bpg();

        // In a quiet cycle whose records nobody reads, the class table
        // states the steady streams — their frees of last cycle's reads,
        // where those were booked, still come from the calendar — and
        // only the edge streams take the per-stream steps, between the
        // steady charge and the steady release.
        let counted = plan.counting_allowed() && self.quiet();
        if counted {
            let (lag, mut newly) = (self.normal_lag(), 0);
            let freed_apart = |st: &mut NcState| {
                let booked = !std::mem::replace(&mut st.implicit_free, true);
                newly += usize::from(booked);
                usize::from(booked)
            };
            self.streams
                .tally(&self.classes, &mut self.tally, lag, 1, |_| 1, freed_apart);
            self.implicit_frees += newly;
            self.streams.charge_steady(&self.tally, 1, plan);
        }
        let walked = if counted {
            self.tally.edges().len()
        } else {
            self.streams.slots()
        };
        let slot = |tally: &Tally, e: usize| if counted { tally.edges()[e] } else { e };

        // 1. Normal-schedule reads + group-at-a-time + delayed-window
        //    planning for groups starting this cycle.
        for e in 0..walked {
            self.read_block(slot(&self.tally, e), cycle, plan);
        }

        // Nothing is scheduled into this cycle from here on.
        let due = self.calendar.take(cycle);

        // 3. Inject transition extra reads for this cycle.
        for &(disk, read) in &due.reads {
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
            // transition planner. Parity reads are absorbed into the
            // reconstruction: free next cycle.
            if read.addr.kind == BlockKind::Parity {
                self.calendar.free_at(cycle + 1, read.stream, read.addr);
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
                    BlockKind::Data(ix) => {
                        let owner = self
                            .streams
                            .find(r.stream)
                            .expect("a planned read belongs to a live stream");
                        let delivery_cycle = {
                            let st = self.streams.slot(owner);
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
                        self.calendar.cancel_free(delivery_cycle, r.stream, r.addr);
                        // A lost reconstruction target is no longer
                        // reconstructed.
                        self.take_mark(owner, r.addr.group, ix, Mark::Reconstructed);
                    }
                    BlockKind::Parity => {
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
            // The reconstruction this parity read was serving.
            let Some(owner) = self.streams.find(sid) else {
                continue;
            };
            let Some(ix) = self.streams.slot(owner).state.first_reconstructed(group) else {
                continue;
            };
            self.take_mark(owner, group, ix, Mark::Reconstructed);
            let st = self.streams.slot(owner);
            displaced.push(LostBlock {
                stream: sid,
                addr: BlockAddr::data(st.object, group, ix),
                reason: LossReason::Displaced,
                delivery_cycle: st.start_cycle + group * bpg + u64::from(ix) + 1,
            });
        }
        for loss in displaced.drain(..) {
            self.record_loss(loss);
        }
        self.displaced_scratch = displaced;
        self.displaced_parity_scratch = displaced_parity;

        // Deliveries and hiccups: block (g, q) is delivered at
        //    `t_g + q + 1` unless recorded lost.
        for &loss in &due.losses {
            if let Some(ix) = self.streams.find(loss.stream) {
                self.streams.slot_mut(ix).lost += 1;
            }
            plan.hiccups.push(loss);
        }
        for e in 0..walked {
            self.deliver_block(slot(&self.tally, e), cycle, plan, &due.losses);
        }

        // End of cycle: release the buffers of blocks whose delivery slot
        // was this cycle (they stay resident while being transmitted, so
        // the pool's high-water mark measures true peak occupancy).
        // Healthy-mode frees were recorded in table order one cycle ago,
        // so each is found at the slot after the previous hit.
        let mut hint = 0;
        for &(id, _addr) in &due.frees {
            // The stream may already have finished (retire released
            // all it held): then there is nothing to free.
            if let Some(ix) = self.streams.find_from(hint, id) {
                let _ = self.streams.free(ix, 1);
                hint = ix + 1;
            }
        }
        for &cluster in &due.server_frees {
            self.servers
                .server_for(cluster)
                .expect("a detaching cluster takes its pending server frees with it")
                .pool_mut()
                .release(1);
        }
        if counted {
            self.streams.release_steady(&self.tally);
        }
        self.calendar.recycle(due);
        self.streams.compact();
    }

    fn on_disk_failure(&mut self, disk: DiskId, cycle: u64, _mid_cycle: bool) -> FailureReport {
        let geometry = *self.catalog.layout().geometry();
        let cluster = geometry.cluster_of(disk);
        let pos = geometry.position_in_cluster(disk);
        let Some(policy) = self.policy else {
            // No parity: any data on the disk is unreadable until repair;
            // the paper calls the no-redundancy data outage what it is.
            // The position is all there is to record — reads aimed at it
            // are skipped, and lost, as their cycles come.
            match &mut self.degraded[cluster.index()] {
                Some(d) => d.also_failed |= 1u128 << pos,
                none => {
                    *none = Some(Degraded {
                        failed_pos: pos,
                        since: cycle,
                        also_failed: 0,
                    });
                    self.degraded_clusters += 1;
                }
            }
            return FailureReport {
                catastrophic: true,
                ..FailureReport::default()
            };
        };
        let mut report = FailureReport {
            degraded_clusters: vec![cluster],
            ..FailureReport::default()
        };

        if let Some(d) = &mut self.degraded[cluster.index()] {
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
        self.degraded[cluster.index()] = Some(Degraded {
            failed_pos: pos,
            since: cycle,
            also_failed: 0,
        });
        self.degraded_clusters += 1;
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
                    self.retire(ix);
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
        let losses_before = self.calendar.losses().count();
        for ix in 0..self.streams.slots() {
            let s = self.streams.slot(ix);
            let Some((g, p)) = self.position_at(s, cycle) else {
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
                    self.simple_transition_for(ix, g, p, cycle, pos);
                }
                TransitionPolicy::Delayed => {
                    self.delayed_transition_for(ix, g, p, pos);
                }
            }
        }

        // Report the pending losses past those held before, in due order
        // (they are also emitted as hiccups at their delivery cycles).
        report.lost = self
            .calendar
            .losses()
            .skip(losses_before)
            .copied()
            .collect();
        report
    }

    fn on_disk_repair(&mut self, disk: DiskId, cycle: u64) {
        let geometry = *self.catalog.layout().geometry();
        let cluster = geometry.cluster_of(disk);
        let pos = geometry.position_in_cluster(disk);
        let Some(d) = &mut self.degraded[cluster.index()] else {
            return;
        };
        if d.failed_pos == pos && d.also_failed == 0 {
            self.degraded[cluster.index()] = None;
            self.degraded_clusters -= 1;
            // The detached server's pool is reset; the frees it was owed
            // would otherwise land on whichever attachment comes next.
            if self.servers.detach(cluster.0).is_ok() {
                self.calendar.drop_server_frees(cluster.0);
            }
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
        // A block is held until it is delivered, the cycle after its read.
        self.classes
            .state_cycle(cycle, &self.streams, self.normal_lag(), 1, |_| 1, out);
        true
    }

    fn fast_forward(&mut self, cycles: u64) {
        debug_assert!(self.settled(), "fast_forward around a transition");
        self.streams.fast_forward(cycles, 1, |_| 1);
        // Last cycle's reads are freed when the next planned cycle ends:
        // their one bucket moves with the clock. (The addresses in it are
        // only ever matched by same-cycle displacement cancels, which
        // cannot reference a skipped cycle.)
        self.calendar.fast_forward(cycles);
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
