//! Per-cycle plans: the scheduler's output, executed by the simulator.
//!
//! The parity group is the unit of the plan. A whole-group scheduler
//! emits one [`GroupRead`] per (stream, group) it reads and one
//! [`DeliveryRun`] per (stream, group, chunk) it transmits; which members
//! are read, rebuilt or sent is a [`MemberSet`]. Reads that are not a
//! group's — one block per stream per cycle, or a parity track fetched
//! from another cluster — are [`PlannedRead`]s kept per disk. Either way
//! the plan updates a dense per-disk load table as reads are pushed, so a
//! consumer that only needs counts ([`CyclePlan::load_on`],
//! [`Deliveries::len`], [`Deliveries::reconstructed`]) never walks tracks.
//! Consumers that need every block — the verification oracle, the trace
//! renderer, the golden plan digests — expand the records through
//! [`CyclePlan::reads_on`] and [`Deliveries::iter`], which yield the
//! per-track [`PlannedRead`] and [`Delivery`] items in emission order.
//!
//! A consumer that needs no record may say so
//! ([`CyclePlan::allow_counting`]), and a scheduler then fills a
//! *counted* plan for any cycle its class table can state — healthy, or,
//! where parity is read with every group, with every failure masked:
//! the streams at an edge of their lives are recorded as
//! ever, the rest only counted into the load table and the delivery
//! totals. The counts are exact either way; the record views refuse a
//! counted plan in debug builds ([`CyclePlan::is_counted`]).
//!
//! The whole-group planner is generic over the layout, so it is compiled
//! in whichever crate names the layout, where the functions of this crate
//! are out of the inliner's reach unless they say otherwise: the small
//! ones a planner calls per stream are `#[inline]` (without them the
//! healthy planning loop measured 10–30 % slower than when it was
//! compiled here).

use crate::streams::StreamId;
use mms_disk::DiskId;
use mms_layout::{BlockAddr, ObjectId};
use std::fmt;
use std::ops::{BitAnd, BitOr};

/// Why a block is being read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPurpose {
    /// Data read for delivery on the normal schedule.
    Delivery,
    /// Parity read (fault-tolerance overhead).
    Parity,
    /// Data or parity read early to reconstruct a block on a failed disk.
    Reconstruction,
}

/// One track read on one disk: the item [`CyclePlan::reads_on`] yields,
/// and the stored form of a read that is not part of a [`GroupRead`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedRead {
    /// The stream on whose behalf the read happens.
    pub stream: StreamId,
    /// The block to read.
    pub addr: BlockAddr,
    /// Why it is read.
    pub purpose: ReadPurpose,
}

/// One block handed to the network this cycle: the item
/// [`Deliveries::iter`] yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The receiving stream.
    pub stream: StreamId,
    /// The block delivered.
    pub addr: BlockAddr,
    /// Whether the block had to be reconstructed from parity.
    pub reconstructed: bool,
}

/// A set of data members of one parity group: bit `i` is data block `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemberSet(u64);

impl MemberSet {
    /// The most data blocks (`C − 1`) a group may have.
    pub const CAPACITY: u32 = u64::BITS;

    /// No member.
    pub const EMPTY: MemberSet = MemberSet(0);

    /// Refuse a parity-group width the plan's records cannot hold.
    ///
    /// # Panics
    /// Panics if `data_blocks` exceeds [`CAPACITY`](Self::CAPACITY).
    pub fn assert_holds(data_blocks: u32) {
        assert!(
            data_blocks <= Self::CAPACITY,
            "a parity group of {data_blocks} data blocks does not fit the plan's {}-member sets",
            Self::CAPACITY
        );
    }

    /// Block `i` alone.
    #[must_use]
    #[inline]
    pub fn one(i: u32) -> Self {
        debug_assert!(i < Self::CAPACITY);
        MemberSet(1 << i)
    }

    /// Blocks `first..end` (empty when `first >= end`).
    #[must_use]
    #[inline]
    pub fn range(first: u32, end: u32) -> Self {
        debug_assert!(end <= Self::CAPACITY);
        if first >= end {
            return Self::EMPTY;
        }
        MemberSet((u64::MAX >> (Self::CAPACITY - end)) & (u64::MAX << first))
    }

    /// Add block `i`.
    #[inline]
    pub fn insert(&mut self, i: u32) {
        debug_assert!(i < Self::CAPACITY);
        self.0 |= 1 << i;
    }

    /// Remove block `i`.
    #[inline]
    pub fn remove(&mut self, i: u32) {
        debug_assert!(i < Self::CAPACITY);
        self.0 &= !(1 << i);
    }

    /// Whether block `i` is in the set.
    #[must_use]
    #[inline]
    pub fn contains(self, i: u32) -> bool {
        i < Self::CAPACITY && self.0 >> i & 1 == 1
    }

    /// Number of members.
    #[must_use]
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[must_use]
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The lowest member.
    #[must_use]
    #[inline]
    pub fn first(self) -> Option<u32> {
        (self.0 != 0).then(|| self.0.trailing_zeros())
    }

    /// One past the highest member (0 when empty).
    #[must_use]
    #[inline]
    pub fn end(self) -> u32 {
        Self::CAPACITY - self.0.leading_zeros()
    }

    /// The members of `self` that are not in `other`.
    #[must_use]
    #[inline]
    pub fn without(self, other: MemberSet) -> Self {
        MemberSet(self.0 & !other.0)
    }

    /// The members, ascending.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = u32> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let i = bits.trailing_zeros();
                bits &= bits - 1;
                i
            })
        })
    }
}

impl BitAnd for MemberSet {
    type Output = MemberSet;
    #[inline]
    fn bitand(self, rhs: MemberSet) -> MemberSet {
        MemberSet(self.0 & rhs.0)
    }
}

impl BitOr for MemberSet {
    type Output = MemberSet;
    #[inline]
    fn bitor(self, rhs: MemberSet) -> MemberSet {
        MemberSet(self.0 | rhs.0)
    }
}

/// One stream's read of one parity group: the data members fetched —
/// a member on a failed disk, or displaced by a higher-priority read, is
/// a cleared bit — and where its parity track is fetched, if it is.
///
/// Member `i` lives on disk `first_disk + i`, as every [`Layout`] places
/// a group; data reads are [`ReadPurpose::Delivery`], the parity read
/// [`ReadPurpose::Parity`].
///
/// [`Layout`]: mms_layout::Layout
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupRead {
    /// The stream on whose behalf the group is read.
    pub stream: StreamId,
    /// The object read.
    pub object: ObjectId,
    /// The parity-group ordinal within the object.
    pub group: u64,
    /// The disk holding data block 0 of the group.
    pub first_disk: DiskId,
    /// The data blocks read.
    pub members: MemberSet,
    /// The disk the parity track is read from with the group, if any.
    pub parity: Option<DiskId>,
}

impl GroupRead {
    /// The read of the group's parity track, wherever it is fetched.
    #[must_use]
    #[inline]
    pub fn parity_read(&self) -> PlannedRead {
        PlannedRead {
            stream: self.stream,
            addr: BlockAddr::parity(self.object, self.group),
            purpose: ReadPurpose::Parity,
        }
    }

    /// The group's read on `disk`, if it has one.
    fn read_on(&self, disk: DiskId) -> Option<PlannedRead> {
        let member = disk.0.wrapping_sub(self.first_disk.0);
        if self.members.contains(member) {
            Some(PlannedRead {
                stream: self.stream,
                addr: BlockAddr::data(self.object, self.group, member),
                purpose: ReadPurpose::Delivery,
            })
        } else {
            (self.parity == Some(disk)).then(|| self.parity_read())
        }
    }
}

/// The blocks of one parity group handed to the network this cycle for
/// one stream, and which of them were rebuilt from parity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryRun {
    /// The receiving stream.
    pub stream: StreamId,
    /// The object delivered.
    pub object: ObjectId,
    /// The parity-group ordinal within the object.
    pub group: u64,
    /// The data blocks delivered.
    pub blocks: MemberSet,
    /// Those of `blocks` that were reconstructed from parity.
    pub reconstructed: MemberSet,
}

/// Why a block was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossReason {
    /// The block was on the failed disk and could not be reconstructed
    /// (earlier group members had already been delivered and discarded).
    FailedDisk,
    /// The block's read was displaced by higher-priority degraded-mode
    /// reads when all slots were occupied ("this will only occur if all
    /// the slots in the schedule for that disk in that cycle are
    /// occupied").
    Displaced,
    /// The failure hit mid-cycle, after the read schedule was committed
    /// (Improved-bandwidth scheme: "if the failure … occurs while we are
    /// reading X0, … we are forced to deliver the data that was read
    /// successfully and cause a hiccup for the data that was not").
    MidCycle,
    /// The stream was terminated because no idle capacity existed to
    /// absorb the shifted load (degradation of service).
    ServiceDegradation,
}

impl LossReason {
    /// The reason's stable label, as used in telemetry label sets and
    /// JSONL output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            LossReason::FailedDisk => "failed-disk",
            LossReason::Displaced => "displaced",
            LossReason::MidCycle => "mid-cycle",
            LossReason::ServiceDegradation => "service-degradation",
        }
    }
}

impl fmt::Display for LossReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A block that will not be delivered: the viewer experiences a hiccup at
/// `delivery_cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LostBlock {
    /// The affected stream.
    pub stream: StreamId,
    /// The lost block.
    pub addr: BlockAddr,
    /// Why it was lost.
    pub reason: LossReason,
    /// The cycle in which the viewer notices (scheduled delivery).
    pub delivery_cycle: u64,
}

/// A cycle's deliveries: one [`DeliveryRun`] per (stream, group, chunk),
/// with the block and reconstruction totals kept as runs are pushed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Deliveries {
    runs: Vec<DeliveryRun>,
    blocks: usize,
    reconstructed: usize,
    /// Whether some of `blocks` have no run (a counted plan).
    counted: bool,
}

impl Deliveries {
    /// Add a run (nothing is recorded for an empty one); returns how
    /// many blocks it delivers.
    #[inline]
    pub fn push_run(&mut self, run: DeliveryRun) -> usize {
        debug_assert!(run.reconstructed.without(run.blocks).is_empty());
        if run.blocks.is_empty() {
            return 0;
        }
        let blocks = run.blocks.len();
        self.blocks += blocks;
        if !run.reconstructed.is_empty() {
            self.reconstructed += run.reconstructed.len();
        }
        self.runs.push(run);
        blocks
    }

    /// Add one block: a run of one member.
    ///
    /// # Panics
    /// Panics if `delivery.addr` is a parity block — parity is never
    /// transmitted.
    pub fn push(&mut self, delivery: Delivery) {
        let mms_layout::BlockKind::Data(index) = delivery.addr.kind else {
            panic!("parity block {} planned for delivery", delivery.addr);
        };
        let blocks = MemberSet::one(index);
        self.blocks += 1;
        self.reconstructed += usize::from(delivery.reconstructed);
        self.runs.push(DeliveryRun {
            stream: delivery.stream,
            object: delivery.addr.object,
            group: delivery.addr.group,
            blocks,
            reconstructed: if delivery.reconstructed {
                blocks
            } else {
                MemberSet::EMPTY
            },
        });
    }

    /// Blocks delivered this cycle.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks
    }

    /// Whether nothing is delivered this cycle.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks == 0
    }

    /// How many of the delivered blocks were reconstructed from parity.
    #[must_use]
    pub fn reconstructed(&self) -> usize {
        self.reconstructed
    }

    /// Add `blocks` delivered blocks that have no run, `rebuilt` of them
    /// reconstructed from parity: a counted plan's steady streams.
    #[inline]
    pub(crate) fn add_counted(&mut self, blocks: usize, rebuilt: usize) {
        debug_assert!(self.counted, "only a counted plan delivers without runs");
        debug_assert!(rebuilt <= blocks);
        self.blocks += blocks;
        self.reconstructed += rebuilt;
    }

    /// Every delivered block, expanded: runs in emission order, blocks
    /// ascending within a run. An itemised plan's view only.
    pub fn iter(&self) -> impl Iterator<Item = Delivery> + '_ {
        debug_assert!(
            !self.counted,
            "a counted plan's deliveries are not all recorded"
        );
        self.runs.iter().flat_map(|run| {
            let run = *run;
            run.blocks.iter().map(move |i| Delivery {
                stream: run.stream,
                addr: BlockAddr::data(run.object, run.group, i),
                reconstructed: run.reconstructed.contains(i),
            })
        })
    }

    #[inline]
    fn clear(&mut self) {
        self.runs.clear();
        self.blocks = 0;
        self.reconstructed = 0;
        self.counted = false;
    }
}

/// A cycle's reads: [`GroupRead`] records, per-disk lists of single
/// [`PlannedRead`]s, and the per-disk load both add up to. A read is
/// stored exactly one way.
///
/// The load table and the lists are allocated densely up to the highest
/// disk ever read and kept from cycle to cycle. The shared views —
/// [`iter`](Self::iter), [`keys`](Self::keys), [`values`](Self::values),
/// `for (&disk, reads) in &plan.reads` — visit only the disks that have
/// reads this cycle, in ascending disk order.
#[derive(Debug, Clone, Default)]
pub struct DiskReads {
    /// `ids[i] == DiskId(i)`, stored so views can lend the id.
    ids: Vec<DiskId>,
    /// Tracks read from each disk this cycle.
    load: Vec<u32>,
    groups: Vec<GroupRead>,
    /// Reads outside any group record, per disk; after the group reads
    /// of the disk in emission order.
    singles: Vec<Vec<PlannedRead>>,
    /// Whether some of `load` has no record (a counted plan).
    counted: bool,
}

impl DiskReads {
    /// Grow the load table to cover disks `0..disks`.
    #[inline]
    fn cover(&mut self, disks: usize) {
        if self.load.len() < disks {
            self.ids
                .extend((self.load.len()..disks).map(|d| DiskId(d as u32)));
            self.load.resize(disks, 0);
        }
    }

    /// Tracks read from `disk` this cycle.
    #[inline]
    fn load_on(&self, disk: DiskId) -> usize {
        self.load.get(disk.0 as usize).map_or(0, |&n| n as usize)
    }

    /// Record a group read; returns how many tracks it reads.
    #[inline]
    pub fn push_group(&mut self, read: GroupRead) -> usize {
        let first = read.first_disk.0 as usize;
        let width = read.members.end() as usize;
        let parity = read.parity.map(|disk| disk.0 as usize);
        self.cover((first + width).max(parity.map_or(0, |disk| disk + 1)));
        let (mut bits, mut tracks) = (read.members.0, 0);
        for load in &mut self.load[first..first + width] {
            *load += (bits & 1) as u32;
            tracks += (bits & 1) as usize;
            bits >>= 1;
        }
        if let Some(parity) = parity {
            self.load[parity] += 1;
            tracks += 1;
        }
        self.groups.push(read);
        tracks
    }

    /// Add `tracks` reads on `disk` that have no record: a counted
    /// plan's steady streams.
    #[inline]
    pub(crate) fn add_counted(&mut self, disk: DiskId, tracks: usize) {
        debug_assert!(self.counted, "only a counted plan reads without records");
        let ix = disk.0 as usize;
        self.cover(ix + 1);
        self.load[ix] += tracks as u32;
    }

    /// Record a single read on `disk`.
    #[inline]
    pub fn push(&mut self, disk: DiskId, read: PlannedRead) {
        let ix = disk.0 as usize;
        if self.singles.len() <= ix {
            self.cover(ix + 1);
            self.singles.resize_with(ix + 1, Default::default);
        }
        self.load[ix] += 1;
        self.singles[ix].push(read);
    }

    /// The group records, in emission order. An itemised plan's view
    /// only.
    #[must_use]
    #[inline]
    pub fn groups(&self) -> &[GroupRead] {
        debug_assert!(!self.counted, "a counted plan's reads are not all recorded");
        &self.groups
    }

    /// The single reads on `disk`, in emission order.
    #[must_use]
    pub fn singles_on(&self, disk: DiskId) -> &[PlannedRead] {
        self.singles.get(disk.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// The first group record at or after `from` that reads a data
    /// member from `disk`.
    #[must_use]
    #[inline]
    pub fn group_reading(&self, disk: DiskId, from: usize) -> Option<usize> {
        let reads = |g: &GroupRead| g.members.contains(disk.0.wrapping_sub(g.first_disk.0));
        Some(from + self.groups.get(from..)?.iter().position(reads)?)
    }

    /// Take data member `member` back out of group record `record`.
    #[inline]
    pub fn drop_member(&mut self, record: usize, member: u32) {
        let group = &mut self.groups[record];
        debug_assert!(group.members.contains(member));
        group.members.remove(member);
        self.load[(group.first_disk.0 + member) as usize] -= 1;
    }

    /// Take every read of `stream` back out of the plan. Its group
    /// records stay in place, empty, so record indices remain valid.
    pub fn drop_stream(&mut self, stream: StreamId) {
        for ix in 0..self.groups.len() {
            if self.groups[ix].stream != stream {
                continue;
            }
            for member in self.groups[ix].members.iter() {
                self.drop_member(ix, member);
            }
            if let Some(parity) = self.groups[ix].parity.take() {
                self.load[parity.0 as usize] -= 1;
            }
        }
        for (list, load) in self.singles.iter_mut().zip(&mut self.load) {
            let before = list.len();
            list.retain(|r| r.stream != stream);
            *load -= (before - list.len()) as u32;
        }
    }

    /// Replace the single reads on `disk` with `reads`.
    pub fn replace_singles(&mut self, disk: DiskId, reads: &[PlannedRead]) {
        let ix = disk.0 as usize;
        let list = &mut self.singles[ix];
        self.load[ix] = self.load[ix] - list.len() as u32 + reads.len() as u32;
        list.clear();
        list.extend_from_slice(reads);
    }

    /// The reads on `disk`, expanded.
    fn on(&self, disk: DiskId) -> ReadsOn<'_> {
        ReadsOn { reads: self, disk }
    }

    /// Disks with reads this cycle and their reads, ascending.
    #[must_use]
    pub fn iter(&self) -> DiskReadsIter<'_> {
        DiskReadsIter {
            reads: self,
            ids: self.ids.iter(),
        }
    }

    /// Disks with reads this cycle, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &DiskId> {
        self.iter().map(|(disk, _)| disk)
    }

    /// The reads of each disk that has any, in ascending disk order.
    pub fn values(&self) -> impl Iterator<Item = ReadsOn<'_>> {
        self.iter().map(|(_, reads)| reads)
    }

    #[inline]
    fn clear(&mut self) {
        self.load.fill(0);
        self.groups.clear();
        for list in &mut self.singles {
            list.clear();
        }
        self.counted = false;
    }
}

/// One disk's reads this cycle: the count is a table lookup, the reads
/// themselves are expanded from the plan's records on demand.
#[derive(Debug, Clone, Copy)]
pub struct ReadsOn<'a> {
    reads: &'a DiskReads,
    disk: DiskId,
}

impl<'a> ReadsOn<'a> {
    /// Tracks read from the disk.
    #[must_use]
    pub fn len(&self) -> usize {
        self.reads.load_on(self.disk)
    }

    /// Whether the disk is idle.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The disk's reads in emission order: one per group record that
    /// touches the disk, then its single reads. An itemised plan's view
    /// only.
    #[must_use]
    pub fn iter(&self) -> ReadsOnIter<'a> {
        debug_assert!(
            !self.reads.counted,
            "a counted plan's reads are not all recorded"
        );
        ReadsOnIter {
            disk: self.disk,
            groups: self.reads.groups.iter(),
            singles: self.reads.singles_on(self.disk).iter(),
        }
    }
}

impl<'a> IntoIterator for ReadsOn<'a> {
    type Item = PlannedRead;
    type IntoIter = ReadsOnIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over one disk's reads (see [`ReadsOn::iter`]).
#[derive(Debug, Clone)]
pub struct ReadsOnIter<'a> {
    disk: DiskId,
    groups: std::slice::Iter<'a, GroupRead>,
    singles: std::slice::Iter<'a, PlannedRead>,
}

impl Iterator for ReadsOnIter<'_> {
    type Item = PlannedRead;

    fn next(&mut self) -> Option<PlannedRead> {
        let disk = self.disk;
        self.groups
            .find_map(|g| g.read_on(disk))
            .or_else(|| self.singles.next().copied())
    }
}

/// Iterator over the disks that have reads (see [`DiskReads::iter`]).
#[derive(Debug, Clone)]
pub struct DiskReadsIter<'a> {
    reads: &'a DiskReads,
    ids: std::slice::Iter<'a, DiskId>,
}

impl<'a> Iterator for DiskReadsIter<'a> {
    type Item = (&'a DiskId, ReadsOn<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        let reads = self.reads;
        self.ids
            .find(|disk| reads.load[disk.0 as usize] != 0)
            .map(|disk| (disk, reads.on(*disk)))
    }
}

impl<'a> IntoIterator for &'a DiskReads {
    type Item = (&'a DiskId, ReadsOn<'a>);
    type IntoIter = DiskReadsIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Everything the scheduler decided for one cycle.
///
/// A plan is *itemised* — every read and every delivery has its record —
/// unless its owner [allows counting](Self::allow_counting) and the
/// scheduler takes the offer for a cycle it can state. A *counted* plan
/// records only the streams at an edge of their lives: not yet started,
/// in their first cycle, or in their final group (where a released
/// stream always is). Every other stream reads and delivers exactly what
/// its admission class does, so it is only counted: into the per-disk
/// loads and the delivery total. Everything a counted plan reports is
/// exact — [`total_reads`](Self::total_reads),
/// [`load_on`](Self::load_on), [`Deliveries::len`],
/// [`Deliveries::reconstructed`], `hiccups` and `finished`; the record
/// views ([`Deliveries::iter`], [`DiskReads::groups`], [`ReadsOn::iter`])
/// are an itemised plan's alone, and say so in debug builds.
#[derive(Debug, Clone, Default)]
pub struct CyclePlan {
    /// The cycle this plan covers.
    pub cycle: u64,
    /// Reads. Every disk's load fits its slot capacity.
    pub reads: DiskReads,
    /// Blocks transmitted this cycle.
    pub deliveries: Deliveries,
    /// Hiccups occurring this cycle (previously lost blocks whose
    /// delivery slot has arrived).
    pub hiccups: Vec<LostBlock>,
    /// Streams that completed delivery this cycle.
    pub finished: Vec<StreamId>,
    /// Whether the owner reads no record, so a scheduler may count.
    countable: bool,
}

impl CyclePlan {
    /// A plan with no activity, itemised whenever it is filled.
    #[must_use]
    pub fn empty(cycle: u64) -> Self {
        CyclePlan {
            cycle,
            ..CyclePlan::default()
        }
    }

    /// Say whether the plan's owner reads records: with `allowed`, the
    /// fills that follow may be counted (see [`CyclePlan`]). Stays set
    /// across [`reset`](Self::reset); a new plan is itemised.
    #[inline]
    pub fn allow_counting(&mut self, allowed: bool) {
        self.countable = allowed;
    }

    /// Whether a scheduler may fill this plan counted.
    #[must_use]
    #[inline]
    pub fn counting_allowed(&self) -> bool {
        self.countable
    }

    /// Whether this cycle's fill is counted: only the streams at an edge
    /// of their lives have records.
    #[must_use]
    #[inline]
    pub fn is_counted(&self) -> bool {
        self.reads.counted
    }

    /// Start a counted fill of the cycle just [`reset`](Self::reset).
    #[inline]
    pub(crate) fn start_counting(&mut self) {
        debug_assert!(self.countable, "the plan's owner reads records");
        self.reads.counted = true;
        self.deliveries.counted = true;
    }

    /// Reset the plan to cover `cycle` with no activity, keeping all
    /// allocated storage so its capacity is reused next cycle.
    #[inline]
    pub fn reset(&mut self, cycle: u64) {
        self.cycle = cycle;
        self.reads.clear();
        self.deliveries.clear();
        self.hiccups.clear();
        self.finished.clear();
    }

    /// Total tracks read this cycle.
    #[must_use]
    pub fn total_reads(&self) -> usize {
        self.reads.load.iter().map(|&n| n as usize).sum()
    }

    /// Tracks read from one disk.
    #[must_use]
    #[inline]
    pub fn load_on(&self, disk: DiskId) -> usize {
        self.reads.load_on(disk)
    }

    /// Reads on one disk, expanded.
    #[must_use]
    pub fn reads_on(&self, disk: DiskId) -> ReadsOn<'_> {
        self.reads.on(disk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(stream: u64, purpose: ReadPurpose) -> PlannedRead {
        PlannedRead {
            stream: StreamId(stream),
            addr: BlockAddr::data(ObjectId(0), 0, 0),
            purpose,
        }
    }

    fn group(stream: u64, first_disk: u32, members: MemberSet, parity: Option<u32>) -> GroupRead {
        GroupRead {
            stream: StreamId(stream),
            object: ObjectId(7),
            group: 3,
            first_disk: DiskId(first_disk),
            members,
            parity: parity.map(DiskId),
        }
    }

    #[test]
    fn member_sets_are_ordered_bit_sets() {
        assert!(MemberSet::range(3, 3).is_empty());
        assert!(MemberSet::range(5, 2).is_empty());
        let mut s = MemberSet::range(1, 4);
        assert_eq!(s.iter().collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!((s.len(), s.first(), s.end()), (3, Some(1), 4));
        s.remove(2);
        s.insert(6);
        assert_eq!(s.iter().collect::<Vec<_>>(), [1, 3, 6]);
        assert!(s.contains(6) && !s.contains(2) && !s.contains(64));
        assert_eq!(
            s & MemberSet::range(0, 4),
            MemberSet::range(1, 2) | MemberSet::range(3, 4)
        );
        assert_eq!(s.without(MemberSet::range(0, 4)), MemberSet::range(6, 7));
        let full = MemberSet::range(0, MemberSet::CAPACITY);
        assert_eq!((full.len(), full.end()), (64, 64));
        assert_eq!(
            (MemberSet::EMPTY.first(), MemberSet::EMPTY.end()),
            (None, 0)
        );
    }

    #[test]
    #[should_panic(expected = "65 data blocks does not fit")]
    fn a_group_wider_than_a_member_set_is_refused() {
        MemberSet::assert_holds(65);
    }

    #[test]
    fn single_reads_keep_their_order_and_count() {
        let mut p = CyclePlan::empty(3);
        assert_eq!(p.total_reads(), 0);
        p.reads.push(DiskId(1), read(0, ReadPurpose::Delivery));
        p.reads.push(DiskId(1), read(1, ReadPurpose::Parity));
        assert_eq!((p.total_reads(), p.load_on(DiskId(1))), (2, 2));
        let on1: Vec<_> = p.reads_on(DiskId(1)).iter().collect();
        assert_eq!(
            on1,
            [read(0, ReadPurpose::Delivery), read(1, ReadPurpose::Parity)]
        );
        assert!(p.reads_on(DiskId(9)).is_empty());
        assert_eq!(p.load_on(DiskId(9)), 0);
    }

    #[test]
    fn a_group_read_expands_to_one_read_per_member_and_its_parity() {
        let mut p = CyclePlan::empty(0);
        // Members 0, 1, 3 on disks 5, 6, 8; parity on disk 9.
        let members = MemberSet::range(0, 4).without(MemberSet::range(2, 3));
        p.reads.push_group(group(4, 5, members, Some(9)));
        p.reads
            .push_group(group(5, 5, MemberSet::range(0, 4), None));
        p.reads.push(DiskId(6), read(6, ReadPurpose::Parity));
        let loads: Vec<_> = (0..11).map(|d| p.load_on(DiskId(d))).collect();
        assert_eq!(loads, [0, 0, 0, 0, 0, 2, 3, 1, 2, 1, 0]);
        assert_eq!(p.total_reads(), 9);
        assert_eq!(
            p.reads.keys().map(|d| d.0).collect::<Vec<_>>(),
            [5, 6, 7, 8, 9]
        );
        // Group reads in record order, then the disk's single reads.
        let on6: Vec<_> = p.reads_on(DiskId(6)).iter().collect();
        assert_eq!(on6.len(), p.load_on(DiskId(6)));
        assert_eq!(
            on6.iter().map(|r| r.stream.0).collect::<Vec<_>>(),
            [4, 5, 6]
        );
        assert_eq!(on6[0].addr, BlockAddr::data(ObjectId(7), 3, 1));
        assert_eq!(on6[0].purpose, ReadPurpose::Delivery);
        let on9: Vec<_> = p.reads_on(DiskId(9)).iter().collect();
        assert_eq!(on9.len(), 1);
        assert_eq!(on9[0].addr, BlockAddr::parity(ObjectId(7), 3));
        assert_eq!(on9[0].purpose, ReadPurpose::Parity);
        for (&disk, reads) in &p.reads {
            assert_eq!(reads.len(), reads.iter().count(), "disk {disk:?}");
        }
    }

    #[test]
    fn members_and_streams_can_be_taken_back_out() {
        let mut p = CyclePlan::empty(0);
        p.reads
            .push_group(group(1, 0, MemberSet::range(0, 4), Some(4)));
        p.reads
            .push_group(group(2, 0, MemberSet::range(0, 4), Some(4)));
        p.reads.push(DiskId(2), read(1, ReadPurpose::Parity));
        p.reads.push(DiskId(2), read(2, ReadPurpose::Parity));
        // The first record reading disk 2 is record 0; once its member is
        // gone the search lands on record 1.
        assert_eq!(p.reads.group_reading(DiskId(2), 0), Some(0));
        p.reads.drop_member(0, 2);
        assert_eq!(p.reads.group_reading(DiskId(2), 0), Some(1));
        assert_eq!(p.reads.group_reading(DiskId(2), 2), None);
        assert_eq!(
            p.reads.group_reading(DiskId(4), 0),
            None,
            "parity is no member"
        );
        assert_eq!((p.load_on(DiskId(2)), p.total_reads()), (3, 11));
        p.reads.drop_stream(StreamId(1));
        assert_eq!(p.reads.groups().len(), 2, "the record stays, empty");
        assert!(p.reads.groups()[0].members.is_empty());
        let loads: Vec<_> = (0..5).map(|d| p.load_on(DiskId(d))).collect();
        assert_eq!(loads, [1, 1, 2, 1, 1]);
        assert_eq!(p.total_reads(), 6);
        assert!(p
            .reads
            .values()
            .all(|r| r.iter().all(|r| r.stream == StreamId(2))));
        p.reads.replace_singles(DiskId(2), &[]);
        assert_eq!((p.load_on(DiskId(2)), p.total_reads()), (1, 5));
    }

    #[test]
    fn delivery_runs_expand_in_block_order_and_count_as_pushed() {
        let mut d = Deliveries::default();
        d.push_run(DeliveryRun {
            stream: StreamId(1),
            object: ObjectId(2),
            group: 5,
            blocks: MemberSet::range(0, 4).without(MemberSet::range(1, 2)),
            reconstructed: MemberSet::range(2, 3),
        });
        d.push_run(DeliveryRun {
            stream: StreamId(9),
            object: ObjectId(2),
            group: 5,
            blocks: MemberSet::EMPTY,
            reconstructed: MemberSet::EMPTY,
        });
        d.push(Delivery {
            stream: StreamId(3),
            addr: BlockAddr::data(ObjectId(4), 1, 3),
            reconstructed: true,
        });
        assert_eq!((d.len(), d.reconstructed()), (4, 2));
        let seen: Vec<_> = d.iter().collect();
        assert_eq!(seen.len(), d.len());
        assert_eq!(
            seen.iter()
                .map(|x| (x.stream.0, x.addr, x.reconstructed))
                .collect::<Vec<_>>(),
            [
                (1, BlockAddr::data(ObjectId(2), 5, 0), false),
                (1, BlockAddr::data(ObjectId(2), 5, 2), true),
                (1, BlockAddr::data(ObjectId(2), 5, 3), false),
                (3, BlockAddr::data(ObjectId(4), 1, 3), true),
            ]
        );
    }

    #[test]
    fn reset_empties_the_plan_and_keeps_the_views_consistent() {
        let mut p = CyclePlan::empty(1);
        p.reads
            .push_group(group(0, 2, MemberSet::range(0, 2), Some(4)));
        p.reads.push(DiskId(2), read(0, ReadPurpose::Parity));
        p.deliveries.push(Delivery {
            stream: StreamId(0),
            addr: BlockAddr::data(ObjectId(0), 0, 2),
            reconstructed: false,
        });
        p.finished.push(StreamId(0));
        p.reset(2);
        assert_eq!(p.cycle, 2);
        assert_eq!(p.total_reads(), 0);
        assert!(p.reads_on(DiskId(2)).is_empty());
        assert_eq!(p.reads_on(DiskId(2)).iter().count(), 0);
        assert_eq!(p.reads.iter().count(), 0);
        assert!(p.reads.groups().is_empty());
        assert!(p.deliveries.is_empty() && p.deliveries.iter().next().is_none());
        assert!(p.hiccups.is_empty());
        assert!(p.finished.is_empty());
    }

    #[test]
    fn a_counted_plan_counts_what_it_does_not_record() {
        let mut p = CyclePlan::empty(0);
        assert!(!p.counting_allowed() && !p.is_counted());
        p.allow_counting(true);
        p.start_counting();
        p.reads.add_counted(DiskId(3), 2);
        p.reads
            .push_group(group(1, 2, MemberSet::range(0, 2), Some(4)));
        p.deliveries.add_counted(5, 2);
        p.deliveries.push(Delivery {
            stream: StreamId(1),
            addr: BlockAddr::data(ObjectId(0), 0, 1),
            reconstructed: true,
        });
        let loads: Vec<_> = (0..6).map(|d| p.load_on(DiskId(d))).collect();
        assert_eq!(loads, [0, 0, 1, 3, 1, 0]);
        assert_eq!(p.total_reads(), 5);
        assert_eq!(p.reads.keys().map(|d| d.0).collect::<Vec<_>>(), [2, 3, 4]);
        assert_eq!((p.deliveries.len(), p.deliveries.reconstructed()), (6, 3));
        assert!(p.is_counted());
        // The next fill starts itemised; the owner's word stands.
        p.reset(1);
        assert!(!p.is_counted() && p.counting_allowed());
        assert_eq!((p.total_reads(), p.deliveries.len()), (0, 0));
        assert!(p.reads.groups().is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a counted plan's reads are not all recorded")]
    fn a_counted_plan_does_not_expand_its_reads() {
        let mut p = CyclePlan::empty(0);
        p.allow_counting(true);
        p.start_counting();
        p.reads.add_counted(DiskId(0), 1);
        let _ = p.reads_on(DiskId(0)).iter().count();
    }

    #[test]
    fn loss_reason_display() {
        assert_eq!(LossReason::FailedDisk.to_string(), "failed-disk");
        assert_eq!(LossReason::Displaced.to_string(), "displaced");
    }
}
