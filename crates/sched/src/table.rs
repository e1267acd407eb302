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
//! each stream (`held`, kept in step with the table's `in_use` total
//! and its high-water mark), the id counter and the cycle cursor.
//!
//! Beside it sits the [`ClassTable`]: how many streams hold a seat in
//! each admission class. It is what admission tests, and — because every
//! stream of a class reads the same disks in the same cycles — what a
//! steady cycle is a closed form of ([`ClassTable::state_cycle`]). A
//! counted plan uses the same closed form for the streams strictly
//! inside their lives and plans only the rest ([`StreamTable::tally`]).

use crate::plan::CyclePlan;
use crate::streams::{StreamId, StreamInfo};
use crate::traits::{AdmissionError, RetireError, SteadyCycle};
use mms_disk::DiskId;
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

    /// Advance a steady stream over `cycles` cycles, delivering
    /// `tracks_per_cycle` a cycle, from a charge of `was` to one of `now`.
    #[inline]
    fn advance(&mut self, cycles: u64, tracks_per_cycle: u64, was: usize, now: usize) {
        self.delivered += cycles * tracks_per_cycle;
        self.held = self.held + now - was;
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

/// A release [`StreamTable::free`] refused: the stream holds fewer
/// tracks than it tried to free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Underflow {
    /// The stream.
    pub stream: StreamId,
    /// Tracks it holds.
    pub held: usize,
    /// Tracks it tried to free.
    pub freeing: usize,
}

/// Active streams in ascending id order, with their buffer charge.
#[derive(Debug, Clone)]
pub struct StreamTable<S> {
    slots: Vec<Slot<S>>,
    /// Live slots (`slots.len()` minus the dead ones awaiting compaction).
    live: usize,
    /// Cycles between one stream's consecutive group reads.
    read_period: u64,
    /// Buffer tracks charged across all streams: the sum of `held`,
    /// plus what a counted cycle charges for its steady streams.
    in_use: usize,
    /// Peak of `in_use`: the scheme's measured buffer requirement.
    high_water: usize,
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
            in_use: 0,
            high_water: 0,
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
        self.in_use
    }

    /// Peak buffer tracks ever charged.
    #[must_use]
    pub fn buffer_high_water(&self) -> usize {
        self.high_water
    }

    /// Add `tracks` to the total and raise the high-water mark.
    fn charge(&mut self, tracks: usize) {
        self.in_use += tracks;
        self.high_water = self.high_water.max(self.in_use);
    }

    /// Take `tracks` off the total.
    ///
    /// # Panics
    /// Panics if more is released than is charged: the per-stream
    /// tally has drifted from the total.
    fn discharge(&mut self, tracks: usize) {
        self.in_use = self
            .in_use
            .checked_sub(tracks)
            .expect("released more buffer tracks than are charged");
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
    pub fn alloc(&mut self, ix: usize, tracks: usize) {
        self.charge(tracks);
        self.slots[ix].held += tracks;
    }

    /// Release `tracks` of what slot `ix` holds; refuses (and changes
    /// nothing) if it holds less — which includes every dead slot.
    pub fn free(&mut self, ix: usize, tracks: usize) -> Result<(), Underflow> {
        let slot = &mut self.slots[ix];
        if tracks > slot.held {
            return Err(Underflow {
                stream: slot.id,
                held: slot.held,
                freeing: tracks,
            });
        }
        slot.held -= tracks;
        self.discharge(tracks);
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
        let held = std::mem::take(&mut slot.held);
        self.discharge(held);
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
            let rel = self.next_cycle - 1 - s.start_cycle;
            let (was, now) = (held(rel), held(rel + cycles));
            s.advance(cycles, tracks_per_cycle, was, now);
            charged += now;
            released += was;
        }
        self.next_cycle += cycles;
        // One net movement of the gauge: the sum of end-of-cycle charges
        // is an occupancy a planned run passes through, so the
        // high-water mark cannot overshoot.
        if charged >= released {
            self.charge(charged - released);
        } else {
            self.discharge(released - charged);
        }
    }
}

/// The block-per-cycle schedulers (`k = k′ = 1`) give a stream's seat
/// back as soon as its last read slot has passed: the class has room for
/// a newcomer from the very next cycle, while the last block is still on
/// the wire.
impl<S: Seated> StreamTable<S> {
    /// Streams of `class` an arrival at `at_cycle` contends with: the
    /// seated ones — less, for an arrival booked ahead, those whose last
    /// read slot comes before it (the one case that walks the table).
    #[must_use]
    pub fn contenders(&self, classes: &ClassTable, class: usize, at_cycle: u64) -> usize {
        let seat = Seat {
            class: class as u32,
            taken: true,
        };
        let gone = |s: &&Slot<S>| {
            *s.state.seat() == seat && s.start_cycle + s.groups * self.read_period <= at_cycle
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
            classes.vacate(s.state.seat_mut());
        }
    }

    /// [`release`](Self::release), with the seat following the stream:
    /// back at once if the stream retires or was truncated to groups it
    /// has finished reading.
    pub fn release_seated(&mut self, id: StreamId, classes: &mut ClassTable) -> bool {
        match self.release(id) {
            Released::Unknown => false,
            Released::Retired(mut state) => {
                classes.vacate(state.seat_mut());
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

/// Counted cycles: what every scheme's stream table does for the streams
/// a counted plan does not itemise.
impl<S: Seated> StreamTable<S> {
    /// Split the cycle being planned (opened by
    /// [`begin_cycle`](Self::begin_cycle)) for a counted plan. A stream
    /// is *steady* when it is strictly inside its life — started before
    /// this cycle and short of its final-group read, the two bounds of a
    /// [stability window](Self::stable_window) — and otherwise at an
    /// *edge*: not yet started, in its first cycle, or in its final group
    /// (which a truncated stream always is). Every steady stream holds
    /// its seat and does what its admission class does, so its counters
    /// advance one cycle (`k_prime` tracks delivered, the charge moving as
    /// `steady` says), and `tally` counts what the class table states for
    /// the steady seats — the edge streams' seats taken out — with `lag`
    /// as in [`ClassTable::state_cycle`]. The edge streams' slots are
    /// listed, ascending, for the scheduler's per-stream steps.
    ///
    /// `steady` is called on each steady stream before it advances: it
    /// brings the scheme's own per-stream state to where the per-stream
    /// steps would leave it, and answers the stream's [`Charge`].
    pub fn tally(
        &mut self,
        classes: &ClassTable,
        tally: &mut Tally,
        lag: impl Fn(ClusterId, u32) -> Option<u32>,
        k_prime: usize,
        mut steady: impl FnMut(&mut Slot<S>) -> Charge,
    ) {
        let cycle = self.next_cycle - 1;
        tally.steady.seated.copy_from_slice(&classes.seated);
        tally.edges.clear();
        let (mut streams, mut was, mut now, mut aside) = (0, 0, 0, 0);
        for (ix, s) in self.slots.iter_mut().enumerate() {
            debug_assert!(s.live, "a cycle opens on a compacted table");
            let final_read = s.start_cycle + (s.groups - 1) * self.read_period;
            if cycle <= s.start_cycle || cycle >= final_read {
                tally.edges.push(ix);
                tally.steady.discount(s.state.seat());
                continue;
            }
            let charge = steady(s);
            s.advance(1, k_prime as u64, charge.was, charge.now);
            s.held += charge.apart;
            streams += 1;
            (was, now, aside) = (was + charge.was, now + charge.now, aside + charge.apart);
        }
        tally.streams = streams;
        tally.rebuilt = 0;
        tally.tracks = tally.steady.state_reads(cycle, lag, &mut tally.loads);
        // Every read charges a track; what a steady stream holds past
        // this cycle's charge was released by its delivery.
        tally.released = tally.tracks + was - now - aside;
    }

    /// Open a counted fill of `plan`: the steady streams' reads and
    /// deliveries as [`tally`](Self::tally) counted them, and their
    /// buffer charge — before any edge stream allocates, so the table's
    /// high-water mark is the one the itemised plan reaches.
    pub fn charge_steady(&mut self, tally: &Tally, k_prime: usize, plan: &mut CyclePlan) {
        plan.start_counting();
        for &(disk, tracks) in &tally.loads {
            plan.reads.add_counted(disk, tracks);
        }
        plan.deliveries
            .add_counted(tally.streams * k_prime, tally.rebuilt);
        self.charge(tally.tracks);
    }

    /// Close a counted fill: release what the steady streams delivered,
    /// after every edge stream's free.
    pub fn release_steady(&mut self, tally: &Tally) {
        self.discharge(tally.released);
    }
}

/// A stream's seat in its admission class (see [`ClassTable`]), carried
/// in its per-stream state and given back exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seat {
    class: u32,
    taken: bool,
}

impl Seat {
    /// The admission class, dense as in [`ClassTable`].
    #[must_use]
    #[inline]
    pub(crate) fn class(self) -> usize {
        self.class as usize
    }
}

/// Per-stream state that carries a [`Seat`].
pub trait Seated {
    /// The stream's seat.
    fn seat(&self) -> &Seat;
    /// The stream's seat, to give back.
    fn seat_mut(&mut self) -> &mut Seat;
}

/// How a steady stream's buffer charge moves in a tallied cycle (see
/// [`StreamTable::tally`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Charge {
    /// Tracks it holds at the end of the cycle before.
    pub was: usize,
    /// Tracks it holds at the end of this one, less `apart`.
    pub now: usize,
    /// Tracks beside `now` that the scheduler frees one by one this
    /// cycle, so the steady release leaves them out.
    pub apart: usize,
}

/// What the steady streams of one admission class do in a cycle (see
/// [`ClassTable::state_steps`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Step {
    /// How each one's charge moves.
    pub(crate) charge: Charge,
    /// The cluster each reads a group on this cycle, if it reads one.
    pub(crate) read: Option<ClusterId>,
}

/// What a counted cycle keeps between [`StreamTable::tally`] and the
/// plan: the steady streams per admission class and what they read, and
/// the slots of the streams at an edge of their lives. Allocated once,
/// at the scheduler's construction, so a counted cycle allocates nothing.
#[derive(Debug, Clone)]
pub struct Tally {
    /// Steady streams per class: the seated ones less the edge streams'.
    steady: ClassTable,
    /// Slots of the edge streams, ascending.
    edges: Vec<usize>,
    /// Tracks the steady streams read from each disk that reads at all,
    /// in ascending disk order.
    loads: Vec<(DiskId, usize)>,
    /// Steady streams.
    streams: usize,
    /// Of the blocks the steady streams deliver, those rebuilt from
    /// parity.
    rebuilt: usize,
    /// Tracks the steady streams read, and so charge.
    tracks: usize,
    /// Tracks the steady streams release when the cycle ends.
    released: usize,
}

impl Tally {
    /// Scratch for a scheduler seating streams in `classes`, of which up
    /// to `streams` are live at once.
    #[must_use]
    pub fn new(classes: &ClassTable, streams: usize) -> Self {
        Tally {
            steady: classes.clone(),
            edges: Vec::with_capacity(streams),
            loads: Vec::with_capacity(classes.geometry.disks() as usize),
            streams: 0,
            rebuilt: 0,
            tracks: 0,
            released: 0,
        }
    }

    /// Slots of the streams at an edge of their lives, ascending.
    #[must_use]
    #[inline]
    pub fn edges(&self) -> &[usize] {
        &self.edges
    }

    /// Count the blocks the steady streams of `cycle`, the cycle just
    /// tallied, deliver rebuilt from parity, each sending `k_prime` tracks
    /// a cycle of the group it read last: a group read on cluster `c` has
    /// member `rebuilt(c)` rebuilt (`None`: none), sent with the chunk
    /// that holds it.
    pub(crate) fn count_rebuilt(
        &mut self,
        cycle: u64,
        k_prime: usize,
        rebuilt: impl Fn(ClusterId) -> Option<u32>,
    ) {
        self.rebuilt = self.steady.state_rebuilt(cycle, k_prime, rebuilt);
    }
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

    /// What a steady stream of each class does in `cycle`, into `steps`
    /// (dense by class, as [`Seat::class`]): `held(into, cluster)` is what
    /// it has charged at the end of a cycle `into` cycles after it read
    /// the group it holds, on `cluster` — the same for every stream of a
    /// class. For a scheduler whose steady charge depends on more than
    /// the read phase; the rest say it per stream.
    pub(crate) fn state_steps(
        &self,
        cycle: u64,
        held: impl Fn(u64, ClusterId) -> usize,
        steps: &mut [Step],
    ) {
        let (period, clusters) = (self.period as u32, self.clusters as u32);
        let rotation = period * clusters;
        // For read phase `r`, the group its streams hold at the end of the
        // cycle at `place` in the rotation: how many cycles before it they
        // read it, and the cluster trajectory 0 read it on (`None`: no
        // read yet, `started` false).
        let holding = |place: u32, started: bool| {
            let (q, now) = (place / period, place % period);
            let last = if q == 0 { clusters - 1 } else { q - 1 };
            move |r: u32| match r <= now {
                true => Some((now - r, q)),
                false => started.then_some((now + period - r, last)),
            }
        };
        let place = (cycle % u64::from(rotation)) as u32;
        let after = holding(place, cycle >= u64::from(period));
        let before = holding((place + rotation - 1) % rotation, cycle > u64::from(period));
        for (r, steps) in (0..period).zip(steps.chunks_mut(clusters as usize)) {
            // A class with a steady stream has read a group by the end of
            // the cycle before.
            let (Some((was_into, was_on)), Some((now_into, now_on)), true) =
                (before(r), after(r), cycle > 0)
            else {
                steps.fill(Step::default());
                continue;
            };
            for (psi, step) in (0..clusters).zip(steps) {
                // Trajectory ψ reads where trajectory 0 does, ψ clusters on.
                let on = |cluster: u32| match cluster + psi {
                    c if c >= clusters => ClusterId(c - clusters),
                    c => ClusterId(c),
                };
                let charge = Charge {
                    was: held(u64::from(was_into), on(was_on)),
                    now: held(u64::from(now_into), on(now_on)),
                    apart: 0,
                };
                let read = (now_into == 0).then(|| on(now_on));
                *step = Step { charge, read };
            }
        }
    }

    /// Leave `seat`'s stream out of the count, if it holds the seat.
    #[inline]
    fn discount(&mut self, seat: &Seat) {
        self.seated[seat.class as usize] -= usize::from(seat.taken);
    }

    /// State `cycle` (see [`crate::SchemeScheduler::steady_cycle`]) for
    /// a scheduler all of whose seated streams are in steady state.
    ///
    /// A stream reads the disk at position `pos` of a group's cluster `c`
    /// `lag(c, pos)` cycles after it started the group (`None`: never, as
    /// a failed disk; the lag is less than the read period), delivers
    /// `k_prime` tracks a cycle, and has `held(rel)` tracks charged at the
    /// end of the cycle `rel` cycles after its start (`held` may depend
    /// on `rel mod period` only). `streams` is the table the seats
    /// belong to: the buffer gauge is stated as where it stands plus how
    /// far the seated streams' charge moves from the last planned cycle
    /// to `cycle`.
    pub fn state_cycle<S>(
        &self,
        cycle: u64,
        streams: &StreamTable<S>,
        lag: impl Fn(ClusterId, u32) -> Option<u32>,
        k_prime: usize,
        held: impl Fn(u64) -> usize,
        out: &mut SteadyCycle,
    ) {
        let tracks = self.state_reads(cycle, lag, &mut out.reads);
        let (period, clusters) = (self.period as u32, self.clusters as u32);
        let place = (cycle % (self.period * self.clusters)) as u32;
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

    /// The reads half of [`state_cycle`](Self::state_cycle): the tracks
    /// the seated streams read from each disk in `cycle`, into `reads`
    /// in ascending disk order (idle disks left out). Returns their sum.
    fn state_reads(
        &self,
        cycle: u64,
        lag: impl Fn(ClusterId, u32) -> Option<u32>,
        reads: &mut Vec<(DiskId, usize)>,
    ) -> usize {
        // Everything below depends on the cycle through its place in the
        // rotation alone, and is small-integer arithmetic from here on.
        let (period, clusters) = (self.period as u32, self.clusters as u32);
        let place = (cycle % u64::from(period * clusters)) as u32;
        // Trajectory 0 started its latest group of read phase `now` on
        // cluster `q`, and the group of a later phase on the cluster
        // before.
        let (q, now) = (place / period, place % period);
        let last = if q == 0 { clusters - 1 } else { q - 1 };
        let mut tracks = 0;
        reads.clear();
        for cluster in 0..clusters {
            for pos in 0..self.geometry.disks_per_cluster() {
                // Whoever reads this disk now started a group on this
                // cluster `lag` cycles ago (nobody, before cycle 0): the
                // class of that read phase whose trajectory was here.
                let lag = lag(ClusterId(cluster), pos);
                let Some(ago) = lag.filter(|&ago| u64::from(ago) <= cycle) else {
                    continue;
                };
                let (r, q) = match ago <= now {
                    true => (now - ago, q),
                    false => (now + period - ago, last),
                };
                let psi = if cluster >= q {
                    cluster - q
                } else {
                    cluster + clusters - q
                };
                let n = self.seated[(r * clusters + psi) as usize];
                if n > 0 {
                    let disk = self.geometry.disk_at(ClusterId(cluster), pos);
                    reads.push((disk, n));
                    tracks += n;
                }
            }
        }
        tracks
    }

    /// Of the blocks the seated streams deliver in `cycle`, those rebuilt
    /// from parity (see [`Tally::count_rebuilt`]). One class a degraded
    /// cluster sends its rebuilt block now: the read phase and trajectory
    /// that read a group there as many cycles ago as that block's chunk
    /// takes to go out.
    fn state_rebuilt(
        &self,
        cycle: u64,
        k_prime: usize,
        rebuilt: impl Fn(ClusterId) -> Option<u32>,
    ) -> usize {
        let mut blocks = 0;
        for cluster in 0..self.clusters as u32 {
            let Some(member) = rebuilt(ClusterId(cluster)) else {
                continue;
            };
            // Chunk `c` of a group goes out `c + 1` cycles after its read.
            let chunk = u64::from(member) / k_prime as u64;
            let Some(read) = cycle.checked_sub(chunk + 1) else {
                continue;
            };
            let (r, q) = (read % self.period, read / self.period);
            let psi = (u64::from(cluster) + self.clusters - q % self.clusters) % self.clusters;
            blocks += self.seated[(r * self.clusters + psi) as usize];
        }
        blocks
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
        t.alloc(1, 5);
        t.alloc(2, 3);
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
        t.alloc(0, 2);
        assert_eq!(
            t.free(0, 3),
            Err(Underflow {
                stream: id,
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
    #[should_panic(expected = "released more buffer tracks than are charged")]
    fn discharging_more_than_is_charged_panics() {
        let mut t: StreamTable<()> = StreamTable::new(1);
        t.admit(placement(0, 2), 0, ());
        t.alloc(0, 2);
        t.discharge(3);
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
