//! Per-cycle plans: the scheduler's output, executed by the simulator.

use crate::streams::StreamId;
use mms_disk::DiskId;
use mms_layout::BlockAddr;
use std::fmt;

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

/// One track read planned for a specific disk in a specific cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedRead {
    /// The stream on whose behalf the read happens.
    pub stream: StreamId,
    /// The block to read.
    pub addr: BlockAddr,
    /// Why it is read.
    pub purpose: ReadPurpose,
}

/// A block handed to the network for transmission this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The receiving stream.
    pub stream: StreamId,
    /// The block delivered.
    pub addr: BlockAddr,
    /// Whether the block had to be reconstructed from parity.
    pub reconstructed: bool,
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

/// A cycle's reads, one list per disk, indexable by [`DiskId`] in O(1).
///
/// Lists are allocated densely up to the highest disk ever read and
/// kept (cleared, not dropped) from cycle to cycle, so a list may be
/// empty. The shared views — [`iter`](Self::iter), [`keys`](Self::keys),
/// [`values`](Self::values), `for (&disk, reads) in &plan.reads` — visit
/// only the disks that have reads this cycle, in ascending disk order;
/// the mutable ones visit every allocated list.
#[derive(Debug, Clone, Default)]
pub struct DiskReads {
    /// `lists[i].0 == DiskId(i)`: the id is stored so views can lend it.
    lists: Vec<(DiskId, Vec<PlannedRead>)>,
}

impl DiskReads {
    /// The list of `disk`, if one was ever allocated (it may be empty).
    #[must_use]
    pub fn get(&self, disk: &DiskId) -> Option<&Vec<PlannedRead>> {
        self.lists.get(disk.0 as usize).map(|(_, reads)| reads)
    }

    /// The list of `disk`, mutably, if one was ever allocated.
    pub fn get_mut(&mut self, disk: &DiskId) -> Option<&mut Vec<PlannedRead>> {
        self.lists.get_mut(disk.0 as usize).map(|(_, reads)| reads)
    }

    /// The list of `disk`, allocating lists up to it on first use.
    fn list_mut(&mut self, disk: DiskId) -> &mut Vec<PlannedRead> {
        let ix = disk.0 as usize;
        if self.lists.len() <= ix {
            let grow = self.lists.len() as u32..=disk.0;
            self.lists
                .extend(grow.map(|d| (DiskId(d), Default::default())));
        }
        &mut self.lists[ix].1
    }

    /// Disks with reads this cycle and their lists, ascending.
    #[must_use]
    pub fn iter(&self) -> DiskReadsIter<'_> {
        DiskReadsIter(self.lists.iter())
    }

    /// Disks with reads this cycle, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &DiskId> {
        self.iter().map(|(disk, _)| disk)
    }

    /// The non-empty read lists, in ascending disk order.
    pub fn values(&self) -> impl Iterator<Item = &Vec<PlannedRead>> {
        self.iter().map(|(_, reads)| reads)
    }

    /// Every allocated list, mutably, in ascending disk order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&DiskId, &mut Vec<PlannedRead>)> {
        self.lists.iter_mut().map(|(disk, reads)| (&*disk, reads))
    }

    /// Every allocated list, mutably, in ascending disk order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut Vec<PlannedRead>> {
        self.lists.iter_mut().map(|(_, reads)| reads)
    }
}

/// Iterator over the disks that have reads (see [`DiskReads::iter`]).
#[derive(Debug, Clone)]
pub struct DiskReadsIter<'a>(std::slice::Iter<'a, (DiskId, Vec<PlannedRead>)>);

impl<'a> Iterator for DiskReadsIter<'a> {
    type Item = (&'a DiskId, &'a Vec<PlannedRead>);

    fn next(&mut self) -> Option<Self::Item> {
        self.0
            .find(|(_, reads)| !reads.is_empty())
            .map(|(disk, reads)| (disk, reads))
    }
}

impl<'a> IntoIterator for &'a DiskReads {
    type Item = (&'a DiskId, &'a Vec<PlannedRead>);
    type IntoIter = DiskReadsIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Everything the scheduler decided for one cycle.
#[derive(Debug, Clone, Default)]
pub struct CyclePlan {
    /// The cycle this plan covers.
    pub cycle: u64,
    /// Reads per disk. Every disk's list fits its slot capacity.
    pub reads: DiskReads,
    /// Blocks transmitted this cycle.
    pub deliveries: Vec<Delivery>,
    /// Hiccups occurring this cycle (previously lost blocks whose
    /// delivery slot has arrived).
    pub hiccups: Vec<LostBlock>,
    /// Streams that completed delivery this cycle.
    pub finished: Vec<StreamId>,
}

impl CyclePlan {
    /// A plan with no activity.
    #[must_use]
    pub fn empty(cycle: u64) -> Self {
        CyclePlan {
            cycle,
            ..CyclePlan::default()
        }
    }

    /// Reset the plan to cover `cycle` with no activity, keeping all
    /// allocated storage: the delivery/hiccup/finished vectors are
    /// cleared in place, and every per-disk read list is cleared but kept
    /// so its capacity is reused next cycle.
    pub fn reset(&mut self, cycle: u64) {
        self.cycle = cycle;
        for reads in self.reads.values_mut() {
            reads.clear();
        }
        self.deliveries.clear();
        self.hiccups.clear();
        self.finished.clear();
    }

    /// Total tracks read this cycle.
    #[must_use]
    pub fn total_reads(&self) -> usize {
        self.reads.values().map(Vec::len).sum()
    }

    /// Reads on one disk.
    #[must_use]
    pub fn reads_on(&self, disk: DiskId) -> &[PlannedRead] {
        self.reads.get(&disk).map_or(&[], Vec::as_slice)
    }

    /// Add a read to a disk's list.
    pub fn push_read(&mut self, disk: DiskId, read: PlannedRead) {
        self.reads.list_mut(disk).push(read);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mms_layout::ObjectId;

    #[test]
    fn plan_read_accounting() {
        let mut p = CyclePlan::empty(3);
        assert_eq!(p.total_reads(), 0);
        p.push_read(
            DiskId(1),
            PlannedRead {
                stream: StreamId(0),
                addr: BlockAddr::data(ObjectId(0), 0, 1),
                purpose: ReadPurpose::Delivery,
            },
        );
        p.push_read(
            DiskId(1),
            PlannedRead {
                stream: StreamId(1),
                addr: BlockAddr::data(ObjectId(1), 0, 1),
                purpose: ReadPurpose::Delivery,
            },
        );
        assert_eq!(p.total_reads(), 2);
        assert_eq!(p.reads_on(DiskId(1)).len(), 2);
        assert!(p.reads_on(DiskId(9)).is_empty());
    }

    #[test]
    fn reset_clears_but_reads_api_hides_stale_entries() {
        let mut p = CyclePlan::empty(1);
        p.push_read(
            DiskId(2),
            PlannedRead {
                stream: StreamId(0),
                addr: BlockAddr::data(ObjectId(0), 0, 2),
                purpose: ReadPurpose::Parity,
            },
        );
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
        assert!(p.deliveries.is_empty());
        assert!(p.hiccups.is_empty());
        assert!(p.finished.is_empty());
    }

    #[test]
    fn read_views_skip_idle_disks_and_keep_disk_order() {
        let read = |s| PlannedRead {
            stream: StreamId(s),
            addr: BlockAddr::data(ObjectId(0), 0, 0),
            purpose: ReadPurpose::Delivery,
        };
        let mut p = CyclePlan::empty(0);
        p.push_read(DiskId(4), read(1));
        p.push_read(DiskId(1), read(2));
        p.push_read(DiskId(4), read(3));
        // Disks 0, 2, 3 have (empty) lists but are not visited.
        let seen: Vec<(u32, usize)> = (&p.reads)
            .into_iter()
            .map(|(d, r)| (d.0, r.len()))
            .collect();
        assert_eq!(seen, [(1, 1), (4, 2)]);
        assert_eq!(p.reads.keys().map(|d| d.0).collect::<Vec<_>>(), [1, 4]);
        assert_eq!(p.reads.values().map(Vec::len).sum::<usize>(), 3);
        assert!(p.reads.get(&DiskId(2)).is_some_and(Vec::is_empty));
        assert!(p.reads.get(&DiskId(5)).is_none());
        // The mutable views reach every list, so a filter can empty one.
        assert_eq!(p.reads.iter_mut().count(), 5);
        for reads in p.reads.values_mut() {
            reads.retain(|r| r.stream != StreamId(2));
        }
        assert_eq!(p.reads.keys().map(|d| d.0).collect::<Vec<_>>(), [4]);
        p.reads.get_mut(&DiskId(4)).unwrap().remove(0);
        assert_eq!(p.reads_on(DiskId(4)), [read(3)]);
        p.reset(1);
        assert_eq!(p.reads.iter().count(), 0);
        assert_eq!(p.total_reads(), 0);
    }

    #[test]
    fn loss_reason_display() {
        assert_eq!(LossReason::FailedDisk.to_string(), "failed-disk");
        assert_eq!(LossReason::Displaced.to_string(), "displaced");
    }
}
