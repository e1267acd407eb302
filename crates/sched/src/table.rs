//! The stream table every scheduler plans over.
//!
//! A cycle-based server plans a cycle in one linear pass over its active
//! streams (Section 2: each stream reads `k` tracks and delivers `k'`
//! per cycle), so the table is a slab in ascending [`StreamId`] order —
//! the order every plan has always been emitted in. Ids are issued
//! monotonically, so admission is a push; the hot passes walk slots by
//! index and never look a stream up by id; a stream that finishes (or
//! is dropped) mid-cycle is marked dead where it stands and the table
//! is compacted once, by the [`compact`](StreamTable::compact) that ends
//! `plan_cycle_into`, so a slot index taken during a cycle stays valid
//! for the whole call.
//!
//! The table also owns what the schedulers used to duplicate around
//! their own maps: the stream header ([`Slot`]), the buffer charge of
//! each stream (`held`, kept in step with the pool's aggregate gauge),
//! the id counter and the cycle cursor.
//!
//! Beside it sits the [`ClassTable`]: how many streams hold a seat in
//! each admission class. It is what admission tests, and — because every
//! stream of a class reads the same disks in the same cycles — what a
//! steady cycle is a closed form of ([`ClassTable::state_cycle`]).

use crate::streams::{StreamId, StreamInfo};
use crate::traits::{AdmissionError, RetireError, SteadyCycle};
use mms_buffer::{BufferError, BufferPool, OwnerId};
use mms_layout::{Catalog, ClusterId, Geometry, Layout, ObjectId};
use std::cell::Cell;

/// Where an object sits on the disks and how long it is — what
/// admission copies out of the catalog so planning never goes back to
/// it. (An object cannot be retired while a stream holds it, so the
/// copy cannot go stale.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The object.
    pub object: ObjectId,
    /// Cluster holding its first parity group.
    pub start_cluster: u32,
    /// Parity groups in total.
    pub groups: u64,
    /// Data tracks in total (the final group may be partial).
    pub tracks: u64,
}

/// One stream: the header common to every scheme plus the scheme's own
/// per-stream state `S`.
#[derive(Debug, Clone, Copy)]
pub struct Slot<S> {
    id: StreamId,
    /// The object being delivered.
    pub object: ObjectId,
    /// Cluster holding the object's first parity group.
    pub start_cluster: u32,
    /// Parity groups still to be read in total; `release` truncates it.
    pub groups: u64,
    /// Data tracks of the object.
    pub tracks: u64,
    /// First cycle of the stream's life.
    pub start_cycle: u64,
    /// Data tracks delivered so far.
    pub delivered: u64,
    /// Data tracks lost so far.
    pub lost: u64,
    /// Buffer tracks currently charged to this stream.
    held: usize,
    live: bool,
    /// Scheme-specific state.
    pub state: S,
}

impl<S> Slot<S> {
    /// The stream's id.
    #[must_use]
    pub fn id(&self) -> StreamId {
        self.id
    }

    /// False once the stream has been retired this cycle; dead slots
    /// linger until [`StreamTable::compact`] so indices stay valid.
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.live
    }

    /// Buffer tracks currently charged to this stream.
    #[must_use]
    pub fn held(&self) -> usize {
        self.held
    }

    /// Data blocks in group `g` (`bpg` a group, the last may be short).
    #[must_use]
    pub fn blocks_in_group(&self, g: u64, bpg: u64) -> u32 {
        (self.tracks - g * bpg).min(bpg) as u32
    }
}

/// Outcome of [`StreamTable::release`].
#[derive(Debug)]
pub enum Released<S> {
    /// No such stream (already finished, or never admitted).
    Unknown,
    /// Truncated to the groups already read; the in-flight data drains
    /// and the scheduler's normal finish path retires the stream.
    Draining,
    /// Nothing had been read: the stream is gone, and its scheme state
    /// is handed back so the scheduler can return its admission slot.
    Retired(S),
}

/// Active streams in ascending id order, with their buffer charge.
#[derive(Debug, Clone)]
pub struct StreamTable<S> {
    slots: Vec<Slot<S>>,
    /// Live slots (`slots.len()` minus the dead ones awaiting compaction).
    live: usize,
    /// Cycles between one stream's consecutive group reads.
    read_period: u64,
    buffers: BufferPool,
    next_stream: u64,
    next_cycle: u64,
    /// Bounds of the stability window over the live streams, so
    /// [`stable_window`](Self::stable_window) is a lookup between
    /// changes: admission and truncation can only tighten them; a
    /// retirement forgets them and the next query walks the table once.
    /// (A driver that never asks — the fleet steps cycle by cycle —
    /// pays nothing for them.)
    window: Cell<Option<Window>>,
}

/// What bounds a stability window: no stream may be starting (the latest
/// start cycle) and none may reach its final-group read (the earliest).
#[derive(Debug, Clone, Copy)]
struct Window {
    latest_start: u64,
    earliest_final: u64,
}

impl Window {
    const OPEN: Window = Window {
        latest_start: 0,
        earliest_final: u64::MAX,
    };

    /// Tighten the bounds for a stream starting at `start` that reads
    /// `groups` groups, one every `period` cycles.
    fn cover(&mut self, start: u64, groups: u64, period: u64) {
        self.latest_start = self.latest_start.max(start);
        self.earliest_final = self.earliest_final.min(start + (groups - 1) * period);
    }
}

impl<S> StreamTable<S> {
    /// An empty table for a scheme whose streams read one parity group
    /// every `read_period` cycles (1 for whole-group-per-cycle schemes,
    /// `k/k′` for staggered ones, `C−1` for block-per-cycle ones).
    #[must_use]
    pub fn new(read_period: u64) -> Self {
        assert!(read_period >= 1, "a stream reads at least every cycle");
        StreamTable {
            slots: Vec::new(),
            live: 0,
            read_period,
            buffers: BufferPool::unbounded(),
            next_stream: 0,
            next_cycle: 0,
            window: Cell::new(Some(Window::OPEN)),
        }
    }

    /// Active streams.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no stream is active.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The next cycle to be planned.
    #[must_use]
    pub fn next_cycle(&self) -> u64 {
        self.next_cycle
    }

    /// Buffer tracks charged across all streams.
    #[must_use]
    pub fn buffer_in_use(&self) -> usize {
        self.buffers.in_use()
    }

    /// Peak buffer tracks ever charged.
    #[must_use]
    pub fn buffer_high_water(&self) -> usize {
        self.buffers.high_water()
    }

    /// Admission prologue: look `object` up in the catalog.
    ///
    /// # Panics
    /// Panics if `at_cycle` is already planned.
    pub fn placement<L: Layout>(
        &self,
        catalog: &Catalog<L>,
        object: ObjectId,
        at_cycle: u64,
    ) -> Result<Placement, AdmissionError> {
        assert!(at_cycle >= self.next_cycle, "cannot admit into the past");
        let placed = catalog
            .get(object)
            .map_err(|_| AdmissionError::UnknownObject { object })?;
        Ok(Placement {
            object,
            start_cluster: placed.start_cluster,
            groups: placed.groups,
            tracks: placed.object.tracks,
        })
    }

    /// Admit a stream starting at `at_cycle`; returns its fresh id.
    pub fn admit(&mut self, placement: Placement, at_cycle: u64, state: S) -> StreamId {
        let id = StreamId(self.next_stream);
        self.next_stream += 1;
        self.live += 1;
        self.tighten_window(at_cycle, placement.groups);
        self.slots.push(Slot {
            id,
            object: placement.object,
            start_cluster: placement.start_cluster,
            groups: placement.groups,
            tracks: placement.tracks,
            start_cycle: at_cycle,
            delivered: 0,
            lost: 0,
            held: 0,
            live: true,
            state,
        });
        id
    }

    /// Slot index of live stream `id` — a binary search, for the paths
    /// that start from an id (`stream_info`, `release`, a drop, a
    /// deferred free), not for the per-stream passes.
    #[must_use]
    pub fn find(&self, id: StreamId) -> Option<usize> {
        self.slots
            .binary_search_by_key(&id, |s| s.id)
            .ok()
            .filter(|&ix| self.slots[ix].live)
    }

    /// [`find`](Self::find), trying slot `hint` first: a list of ids
    /// recorded in table order resolves in O(1) each by passing the
    /// previous hit plus one.
    #[must_use]
    pub fn find_from(&self, hint: usize, id: StreamId) -> Option<usize> {
        match self.slots.get(hint) {
            Some(s) if s.id == id => Some(hint).filter(|_| s.live),
            _ => self.find(id),
        }
    }

    /// Number of slots, dead ones included: the index range of a pass.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// The slot at `ix` (live or dead).
    #[must_use]
    pub fn slot(&self, ix: usize) -> &Slot<S> {
        &self.slots[ix]
    }

    /// The slot at `ix`, mutably.
    pub fn slot_mut(&mut self, ix: usize) -> &mut Slot<S> {
        &mut self.slots[ix]
    }

    /// The live streams, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Slot<S>> {
        self.slots.iter().filter(|s| s.live)
    }

    /// Charge `tracks` buffer tracks to the stream in slot `ix`.
    pub fn alloc(&mut self, ix: usize, tracks: usize) -> Result<(), BufferError> {
        self.buffers.charge(tracks)?;
        self.slots[ix].held += tracks;
        Ok(())
    }

    /// Release `tracks` of what slot `ix` holds; refuses (and changes
    /// nothing) if it holds less — which includes every dead slot.
    pub fn free(&mut self, ix: usize, tracks: usize) -> Result<(), BufferError> {
        let slot = &mut self.slots[ix];
        if tracks > slot.held {
            return Err(BufferError::Underflow {
                owner: OwnerId(slot.id.0),
                held: slot.held,
                freeing: tracks,
            });
        }
        slot.held -= tracks;
        self.buffers.release(tracks);
        Ok(())
    }

    /// Retire the stream in slot `ix`: release everything it holds and
    /// mark the slot dead. The slot stays in place until
    /// [`compact`](Self::compact).
    pub fn retire(&mut self, ix: usize) {
        let slot = &mut self.slots[ix];
        if !slot.live {
            return;
        }
        slot.live = false;
        self.buffers.release(slot.held);
        slot.held = 0;
        self.live -= 1;
    }

    /// Drop the slots retired since the last compaction: once, as the
    /// last step of `plan_cycle_into`, and at once wherever streams are
    /// retired outside a cycle (streams dropped by a failure).
    pub fn compact(&mut self) {
        if self.live != self.slots.len() {
            self.slots.retain(|s| s.live);
            self.window.set(None);
        }
    }

    /// Tighten the remembered window bounds, if they are remembered, for
    /// a stream that now starts at `start` and reads `groups` groups.
    fn tighten_window(&mut self, start: u64, groups: u64) {
        if let Some(window) = self.window.get_mut() {
            window.cover(start, groups, self.read_period);
        }
    }

    /// Open cycle `cycle` for planning.
    ///
    /// # Panics
    /// Panics unless `cycle` is the next unplanned cycle.
    pub fn begin_cycle(&mut self, cycle: u64) {
        assert_eq!(cycle, self.next_cycle, "cycles must be planned in order");
        self.next_cycle += 1;
    }

    /// Public snapshot of stream `id`.
    #[must_use]
    pub fn stream_info(&self, id: StreamId) -> Option<StreamInfo> {
        let s = &self.slots[self.find(id)?];
        Some(StreamInfo {
            id,
            object: s.object,
            admitted_at: s.start_cycle,
            groups: s.groups,
            next_group: (self.next_cycle.saturating_sub(s.start_cycle) / self.read_period)
                .min(s.groups),
            delivered_tracks: s.delivered,
            lost_tracks: s.lost,
        })
    }

    /// Gracefully release stream `id` (see
    /// [`crate::SchemeScheduler::release`]): group `g` is read at
    /// `start + g·read_period`, so the groups already resident are the
    /// ceiling of the elapsed span over the period; the stream is
    /// truncated to them, or retired outright if there are none.
    pub fn release(&mut self, id: StreamId) -> Released<S> {
        let Some(ix) = self.find(id) else {
            return Released::Unknown;
        };
        let slot = &mut self.slots[ix];
        let read = self
            .next_cycle
            .saturating_sub(slot.start_cycle)
            .div_ceil(self.read_period);
        if read > 0 {
            slot.groups = slot.groups.min(read);
            let (start, groups) = (slot.start_cycle, slot.groups);
            self.tighten_window(start, groups);
            return Released::Draining;
        }
        self.retire(ix);
        self.window.set(None);
        Released::Retired(self.slots.remove(ix).state)
    }

    /// Retire `object` from `catalog` (the purge path), refusing while
    /// any stream is still delivering it.
    pub fn retire_object<L: Layout>(
        &self,
        catalog: &mut Catalog<L>,
        object: ObjectId,
    ) -> Result<(), RetireError> {
        let streams = self.iter().filter(|s| s.object == object).count();
        if streams > 0 {
            return Err(RetireError::InUse { object, streams });
        }
        catalog
            .remove(object)
            .map(|_| ())
            .map_err(|_| RetireError::NotFound { object })
    }

    /// How many cycles from `cycle` every stream stays in steady state:
    /// 0 while any stream is still in its warm-up cycle, otherwise the
    /// distance to the earliest final-group read (the final group may
    /// be partial, so the window ends strictly before it).
    #[must_use]
    pub fn stable_window(&self, cycle: u64) -> u64 {
        let window = self.window.get().unwrap_or_else(|| {
            let mut window = Window::OPEN;
            for s in self.iter() {
                window.cover(s.start_cycle, s.groups, self.read_period);
            }
            self.window.set(Some(window));
            window
        });
        if self.live == 0 {
            u64::MAX
        } else if cycle <= window.latest_start {
            0
        } else {
            window.earliest_final.saturating_sub(cycle)
        }
    }

    /// Skip `cycles` steady cycles in which every stream delivers
    /// `tracks_per_cycle` tracks. `held(rel)` is what a steady stream
    /// has charged at the end of the cycle `rel` cycles after its start;
    /// each stream's charge moves by the difference between where it
    /// lands and where it stood, so a skip that returns every stream to
    /// its phase moves nothing.
    pub fn fast_forward(
        &mut self,
        cycles: u64,
        tracks_per_cycle: u64,
        held: impl Fn(u64) -> usize,
    ) {
        let (mut charged, mut released) = (0, 0);
        for s in self.slots.iter_mut().filter(|s| s.live) {
            s.delivered += cycles * tracks_per_cycle;
            let rel = self.next_cycle - 1 - s.start_cycle;
            let (was, now) = (held(rel), held(rel + cycles));
            s.held = s.held + now - was;
            charged += now;
            released += was;
        }
        self.next_cycle += cycles;
        // One net movement of the gauge: the sum of end-of-cycle charges
        // is an occupancy a planned run passes through, so the
        // high-water mark cannot overshoot.
        if charged >= released {
            self.buffers
                .charge(charged - released)
                .expect("unbounded pool never refuses an allocation");
        } else {
            self.buffers.release(released - charged);
        }
    }
}

/// The block-per-cycle schedulers (`k = k′ = 1`) keep nothing per stream
/// but its seat, and give it back as soon as the stream's last read slot
/// has passed: the class has room for a newcomer from the very next
/// cycle, while the last block is still on the wire.
impl StreamTable<Seat> {
    /// Streams of `class` an arrival at `at_cycle` contends with: the
    /// seated ones — less, for an arrival booked ahead, those whose last
    /// read slot comes before it (the one case that walks the table).
    #[must_use]
    pub fn contenders(&self, classes: &ClassTable, class: usize, at_cycle: u64) -> usize {
        let seat = Seat {
            class: class as u32,
            taken: true,
        };
        let gone = |s: &&Slot<Seat>| {
            s.state == seat && s.start_cycle + s.groups * self.read_period <= at_cycle
        };
        let seated = classes.seated(class);
        if at_cycle > self.next_cycle {
            seated - self.iter().filter(gone).count()
        } else {
            seated
        }
    }

    /// Give back the seat of the stream in slot `ix` once the cycle
    /// being planned (or an earlier one) is its last read slot.
    pub fn vacate_if_reads_done(&mut self, ix: usize, classes: &mut ClassTable) {
        let s = &mut self.slots[ix];
        if s.start_cycle + s.groups * self.read_period <= self.next_cycle {
            classes.vacate(&mut s.state);
        }
    }

    /// [`release`](Self::release), with the seat following the stream:
    /// back at once if the stream retires or was truncated to groups it
    /// has finished reading.
    pub fn release_seated(&mut self, id: StreamId, classes: &mut ClassTable) -> bool {
        match self.release(id) {
            Released::Unknown => false,
            Released::Retired(mut seat) => {
                classes.vacate(&mut seat);
                true
            }
            Released::Draining => {
                let ix = self.find(id).expect("a draining stream is still live");
                self.vacate_if_reads_done(ix, classes);
                true
            }
        }
    }
}

/// A stream's seat in its admission class (see [`ClassTable`]), carried
/// in its per-stream state and given back exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seat {
    class: u32,
    taken: bool,
}

/// Streams seated per admission class.
///
/// A stream starting at cycle `s` on cluster `h` that reads a parity
/// group every `P` cycles has read phase `r = s mod P` and cluster
/// trajectory `ψ = (h − ⌊s / P⌋) mod N_C`. Streams with equal `(r, ψ)`
/// start each of their groups in the same cycle on the same cluster, so
/// they contend for the same slots forever — and one count per class,
/// dense at `r · N_C + ψ`, says what every disk reads in any cycle.
#[derive(Debug, Clone)]
pub struct ClassTable {
    seated: Vec<usize>,
    period: u64,
    clusters: u64,
    geometry: Geometry,
}

impl ClassTable {
    /// An empty table for streams that start a group every `period`
    /// cycles and rotate over the clusters of `geometry`.
    #[must_use]
    pub fn new(period: u64, geometry: Geometry) -> Self {
        let clusters = u64::from(geometry.clusters());
        ClassTable {
            seated: vec![0; (period * clusters) as usize],
            period,
            clusters,
            geometry,
        }
    }

    /// Number of classes: read phases × cluster trajectories.
    #[must_use]
    #[inline]
    pub fn classes(&self) -> usize {
        self.seated.len()
    }

    /// Class of a stream starting at `at_cycle` on `start_cluster`.
    #[must_use]
    #[inline]
    pub fn class_of(&self, start_cluster: u32, at_cycle: u64) -> usize {
        let (r, q) = (at_cycle % self.period, at_cycle / self.period);
        let psi = (u64::from(start_cluster) + self.clusters - q % self.clusters) % self.clusters;
        (r * self.clusters + psi) as usize
    }

    /// Streams seated in `class`.
    #[must_use]
    #[inline]
    pub fn seated(&self, class: usize) -> usize {
        self.seated[class]
    }

    /// Seat one more stream in `class`.
    #[inline]
    pub fn seat(&mut self, class: usize) -> Seat {
        self.seated[class] += 1;
        Seat {
            class: class as u32,
            taken: true,
        }
    }

    /// Give `seat` back; a seat already given back stays so.
    #[inline]
    pub fn vacate(&mut self, seat: &mut Seat) {
        if std::mem::take(&mut seat.taken) {
            self.seated[seat.class as usize] -= 1;
        }
    }

    /// State `cycle` (see [`crate::SchemeScheduler::steady_cycle`]) for
    /// a scheduler all of whose seated streams are in steady state.
    ///
    /// A stream reads the disk at position `pos` of a group's cluster
    /// `lag(pos)` cycles after it started the group (`None`: never; the
    /// lag is less than the read period), delivers `k_prime` tracks a
    /// cycle, and has `held(rel)` tracks charged at the end of the cycle
    /// `rel` cycles after its start (`held` may depend on `rel mod
    /// period` only). `streams` is the table the seats belong to: the
    /// buffer gauge is stated as where it stands plus how far the seated
    /// streams' charge moves from the last planned cycle to `cycle`.
    pub fn state_cycle<S>(
        &self,
        cycle: u64,
        streams: &StreamTable<S>,
        lag: impl Fn(u32) -> Option<u32>,
        k_prime: usize,
        held: impl Fn(u64) -> usize,
        out: &mut SteadyCycle,
    ) {
        // Everything below depends on the cycle through its place in the
        // rotation alone, and is small-integer arithmetic from here on.
        let (period, clusters) = (self.period as u32, self.clusters as u32);
        let rotation = period * clusters;
        let place = (cycle % u64::from(rotation)) as u32;
        let mut tracks = 0;
        out.reads.clear();
        for cluster in 0..clusters {
            for pos in 0..self.geometry.disks_per_cluster() {
                // Whoever reads this disk now started a group on this
                // cluster `lag` cycles ago (nobody, before cycle 0): the
                // class of that read phase whose trajectory was here.
                let Some(ago) = lag(pos).filter(|&ago| u64::from(ago) <= cycle) else {
                    continue;
                };
                let then = (place + rotation - ago) % rotation;
                let (r, q) = (then % period, then / period);
                let psi = (cluster + clusters - q) % clusters;
                let n = self.seated[(r * clusters + psi) as usize];
                if n > 0 {
                    let disk = self.geometry.disk_at(ClusterId(cluster), pos);
                    out.reads.push((disk, n));
                    tracks += n;
                }
            }
        }
        // A stream of read phase `r` is `(t − r) mod P` cycles into its
        // group when cycle `t` ends; one cycle less when it starts.
        let elapsed = (cycle + 1 - streams.next_cycle) % self.period;
        let (mut seated, mut charged, mut before, mut stood) = (0, 0, 0, 0);
        for (r, class) in (0..period).zip(self.seated.chunks(clusters as usize)) {
            let n: usize = class.iter().sum();
            let into = u64::from((place + period - r) % period);
            seated += n;
            charged += n * held(into);
            before += n * held((into + self.period - 1) % self.period);
            stood += n * held((into + self.period - elapsed) % self.period);
        }
        let in_use = streams.buffer_in_use();
        out.delivered = seated * k_prime;
        out.buffer_in_use = in_use + charged - stood;
        out.buffer_peak = in_use + before - stood + tracks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn placement(object: u64, groups: u64) -> Placement {
        Placement {
            object: ObjectId(object),
            start_cluster: 0,
            groups,
            tracks: groups * 4,
        }
    }

    #[test]
    fn admit_issues_ascending_ids_and_find_locates_them() {
        let mut t: StreamTable<u8> = StreamTable::new(1);
        let a = t.admit(placement(0, 3), 0, 7);
        let b = t.admit(placement(1, 3), 0, 8);
        assert_eq!((a, b), (StreamId(0), StreamId(1)));
        assert_eq!(t.len(), 2);
        assert_eq!(t.find(b), Some(1));
        assert_eq!(t.slot(1).state, 8);
        assert_eq!(t.find(StreamId(2)), None);
    }

    #[test]
    fn retired_slots_keep_their_index_until_the_cycle_ends() {
        let mut t: StreamTable<()> = StreamTable::new(1);
        let ids: Vec<_> = (0..4).map(|i| t.admit(placement(i, 2), 0, ())).collect();
        t.begin_cycle(0);
        t.alloc(1, 5).unwrap();
        t.alloc(2, 3).unwrap();
        t.retire(1);
        // Dead, but still in place: slot 2 is still slot 2.
        assert_eq!(t.slots(), 4);
        assert_eq!(t.len(), 3);
        assert!(!t.slot(1).is_live());
        assert_eq!(t.find(ids[1]), None);
        assert_eq!(t.find(ids[2]), Some(2));
        assert_eq!(t.buffer_in_use(), 3);
        t.compact();
        assert_eq!(t.slots(), 3);
        assert_eq!(t.find(ids[2]), Some(1));
        assert_eq!(t.find(ids[3]), Some(2));
        assert_eq!(
            t.iter().map(Slot::id).collect::<Vec<_>>(),
            [ids[0], ids[2], ids[3]]
        );
        assert_eq!(t.buffer_high_water(), 8);
    }

    #[test]
    fn free_refuses_more_than_the_slot_holds() {
        let mut t: StreamTable<()> = StreamTable::new(1);
        let id = t.admit(placement(0, 2), 0, ());
        t.alloc(0, 2).unwrap();
        assert_eq!(
            t.free(0, 3),
            Err(BufferError::Underflow {
                owner: OwnerId(id.0),
                held: 2,
                freeing: 3
            })
        );
        assert_eq!(t.buffer_in_use(), 2);
        t.free(0, 2).unwrap();
        t.retire(0);
        // A retired stream holds nothing: the tolerant frees are no-ops.
        assert!(t.free(0, 1).is_err());
        t.free(0, 0).unwrap();
        assert_eq!(t.buffer_in_use(), 0);
    }

    #[test]
    fn release_retires_unread_streams_and_truncates_the_rest() {
        let mut t: StreamTable<u32> = StreamTable::new(4);
        let early = t.admit(placement(0, 10), 0, 11);
        let unread = t.admit(placement(1, 10), 1, 22);
        t.begin_cycle(0);
        t.compact();
        // One cycle in: `early` has read group 0, `unread` nothing.
        assert!(matches!(t.release(unread), Released::Retired(22)));
        assert!(matches!(t.release(unread), Released::Unknown));
        assert!(matches!(t.release(early), Released::Draining));
        assert_eq!(t.stream_info(early).unwrap().groups, 1);
        assert_eq!(t.len(), 1);
        for c in 1..6 {
            t.begin_cycle(c);
            t.compact();
        }
        // Six cycles at period 4: two groups read, capped by `groups`.
        assert_eq!(t.stream_info(early).unwrap().next_group, 1);
    }

    #[test]
    fn stable_window_ends_before_the_first_final_read() {
        let mut t: StreamTable<()> = StreamTable::new(2);
        assert_eq!(t.stable_window(0), u64::MAX);
        t.admit(placement(0, 5), 0, ());
        assert_eq!(t.stable_window(0), 0, "warm-up");
        // Final group (4) is read at 0 + 4·2 = 8.
        assert_eq!(t.stable_window(3), 5);
        t.admit(placement(1, 2), 3, ());
        assert_eq!(t.stable_window(3), 0, "second stream warming up");
        assert_eq!(t.stable_window(4), 1);
    }

    #[test]
    fn find_from_uses_the_hint_and_survives_a_wrong_one() {
        let mut t: StreamTable<()> = StreamTable::new(1);
        let ids: Vec<_> = (0..5).map(|i| t.admit(placement(i, 2), 0, ())).collect();
        t.retire(2);
        assert_eq!(t.find_from(1, ids[1]), Some(1));
        assert_eq!(t.find_from(0, ids[3]), Some(3));
        assert_eq!(t.find_from(2, ids[2]), None, "dead slot");
        assert_eq!(t.find_from(99, ids[4]), Some(4));
    }
}
