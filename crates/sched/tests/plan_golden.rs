//! Golden plan traces: seeded admit / release / fail / fail-mid-cycle /
//! repair / fast-forward scripts drive each of six scheduler
//! configurations (the whole-group scheduler at `k′ = C−1`, `1` and `2`
//! is three of them), and
//! every observable of every cycle — the whole `CyclePlan`, the buffer
//! gauges, `stream_info` of every stream ever admitted, the stability
//! window and the plan epoch (the count of admissions, releases,
//! failures and repairs, which the harness keeps) — is folded into one
//! FNV-1a digest per script. The digests below were captured before the schedulers moved
//! onto the shared stream table; a refactor of the stream, buffer or
//! read-list bookkeeping must leave every one of them unchanged. (The
//! `Staggered` and `Grouped` rows are younger: they were captured once
//! the whole-group scheduler judged the last `k′` blocks of a group by
//! that group's own fault state, with scripts that fail any two disks
//! of a cluster; the `Baseline` row, once the unprotected server decided
//! a loss when the read is skipped and scripts repaired it under load.)
//!
//! The same generator drives the differential test of the stated steady
//! cycle: wherever a script stands inside a stability window, what the
//! scheduler states for a cycle is what planning it produces, and
//! `fast_forward(n)` on a clone lands where `n` planned cycles do.

use mms_disk::{Bandwidth, DiskId, DiskParams};
use mms_layout::{
    BandwidthClass, BlockKind, Catalog, ClusteredLayout, Geometry, ImprovedLayout, MediaObject,
    ObjectId,
};
use mms_sched::{
    CycleConfig, CyclePlan, FailureReport, GroupedScheduler, LossReason, NonClusteredScheduler,
    ReadPurpose, SchemeScheduler, SteadyCycle, StreamId, TransitionPolicy,
};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::ops::{Deref, DerefMut};

const SCRIPTS: usize = 32;
const OPS_PER_SCRIPT: usize = 56;
/// Parity-group size of every fixture; `C − 1 = 4` data blocks a group.
const C: usize = 5;
/// Object lengths in tracks: a one-block object, partial final groups
/// (3, 13, 97), exact multiples of the group (4, 8, 40).
const OBJECT_TRACKS: [u64; 7] = [1, 3, 4, 8, 13, 40, 97];

/// SplitMix64: the script generator's only source of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a over 64-bit words, byte by byte.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn addr(&mut self, a: mms_layout::BlockAddr) {
        self.word(a.object.0);
        self.word(a.group);
        match a.kind {
            BlockKind::Data(i) => self.word(u64::from(i)),
            BlockKind::Parity => self.word(u64::MAX),
        }
    }

    fn reason(&mut self, r: LossReason) {
        self.word(match r {
            LossReason::FailedDisk => 1,
            LossReason::Displaced => 2,
            LossReason::MidCycle => 3,
            LossReason::ServiceDegradation => 4,
        });
    }

    fn plan(&mut self, plan: &CyclePlan) {
        self.word(plan.cycle);
        for (&disk, reads) in &plan.reads {
            if reads.is_empty() {
                continue;
            }
            self.word(u64::from(disk.0));
            self.word(reads.len() as u64);
            for r in reads.iter() {
                self.word(r.stream.0);
                self.addr(r.addr);
                self.word(match r.purpose {
                    ReadPurpose::Delivery => 1,
                    ReadPurpose::Parity => 2,
                    ReadPurpose::Reconstruction => 3,
                });
            }
        }
        self.word(plan.total_reads() as u64);
        self.word(plan.deliveries.len() as u64);
        for d in plan.deliveries.iter() {
            self.word(d.stream.0);
            self.addr(d.addr);
            self.word(u64::from(d.reconstructed));
        }
        self.word(plan.hiccups.len() as u64);
        for h in &plan.hiccups {
            self.word(h.stream.0);
            self.addr(h.addr);
            self.reason(h.reason);
            self.word(h.delivery_cycle);
        }
        self.word(plan.finished.len() as u64);
        for id in &plan.finished {
            self.word(id.0);
        }
    }

    fn failure(&mut self, r: &FailureReport) {
        self.word(r.lost.len() as u64);
        for l in &r.lost {
            self.word(l.stream.0);
            self.addr(l.addr);
            self.reason(l.reason);
            self.word(l.delivery_cycle);
        }
        self.word(r.dropped_streams.len() as u64);
        for id in &r.dropped_streams {
            self.word(id.0);
        }
        for c in &r.degraded_clusters {
            self.word(u64::from(c.0));
        }
        self.word(u64::from(r.catastrophic));
        self.word(r.data_loss_tracks);
        for c in &r.shift_path {
            self.word(u64::from(c.0));
        }
    }

    /// Everything observable between two plans, and the script's plan
    /// epoch: successful admissions, releases that found their stream,
    /// failures and repairs so far.
    fn state(&mut self, s: &dyn SchemeScheduler, cycle: u64, admitted: &[StreamId], epoch: u64) {
        self.word(s.buffer_in_use() as u64);
        self.word(s.buffer_high_water() as u64);
        self.word(s.active_streams() as u64);
        self.word(epoch);
        let st = s.plan_stability(cycle);
        self.word(st.period);
        self.word(st.stable);
        for &id in admitted {
            match s.stream_info(id) {
                None => self.word(u64::MAX),
                Some(i) => {
                    assert_eq!(i.id, id);
                    self.word(i.object.0);
                    self.word(i.admitted_at);
                    self.word(i.groups);
                    self.word(i.next_group);
                    self.word(i.delivered_tracks);
                    self.word(i.lost_tracks);
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    StreamingRaid,
    Staggered,
    NonClustered,
    Improved,
    Grouped,
    Baseline,
}

const KINDS: [Kind; 6] = [
    Kind::StreamingRaid,
    Kind::Staggered,
    Kind::NonClustered,
    Kind::Improved,
    Kind::Grouped,
    Kind::Baseline,
];

/// A scheduler of any kind behind one cloneable type, so a test can
/// fork a script's state (a `Box<dyn SchemeScheduler>` cannot be).
#[derive(Clone)]
enum Fixture {
    Grouped(GroupedScheduler<ClusteredLayout>),
    NonClustered(NonClusteredScheduler),
    Improved(GroupedScheduler<ImprovedLayout>),
}

impl Deref for Fixture {
    type Target = dyn SchemeScheduler;

    fn deref(&self) -> &Self::Target {
        match self {
            Fixture::Grouped(s) => s,
            Fixture::NonClustered(s) => s,
            Fixture::Improved(s) => s,
        }
    }
}

impl DerefMut for Fixture {
    fn deref_mut(&mut self) -> &mut Self::Target {
        match self {
            Fixture::Grouped(s) => s,
            Fixture::NonClustered(s) => s,
            Fixture::Improved(s) => s,
        }
    }
}

fn objects() -> impl Iterator<Item = MediaObject> {
    OBJECT_TRACKS.iter().enumerate().map(|(i, &tracks)| {
        MediaObject::new(
            ObjectId(i as u64),
            format!("o{i}"),
            tracks,
            BandwidthClass::Mpeg1,
        )
    })
}

fn clustered_catalog(disks: usize) -> Catalog<ClusteredLayout> {
    let geo = Geometry::clustered(disks, C).unwrap();
    let mut catalog = Catalog::new(ClusteredLayout::new(geo), 100_000);
    for o in objects() {
        catalog.add(o).unwrap();
    }
    catalog
}

/// Build the scheduler for `kind`; `flavour` (the script's seed) picks
/// the load regime and the scheme's own knobs. Returns it with its disk
/// count. Odd flavours run at a bandwidth that leaves three slots a
/// disk, so admission limits, displacement and the shift cascade all
/// trigger; even ones run the paper's Table 1 MPEG-1 numbers.
fn build(kind: Kind, flavour: u64) -> (Fixture, u32) {
    let tight = flavour % 2 == 1;
    let cfg = |k: usize, k_prime: usize| {
        // T_cyc = k'·B/b0 with B = 50 KB: 0.1 s ⇒ (100 − 25)/20 = 3 slots.
        let b0 = if tight {
            Bandwidth::from_megabytes(0.5 * k_prime as f64)
        } else {
            Bandwidth::from_megabits(1.5)
        };
        CycleConfig::new(DiskParams::paper_table1(), b0, k, k_prime)
    };
    match kind {
        Kind::StreamingRaid => (
            Fixture::Grouped(GroupedScheduler::new(
                cfg(C - 1, C - 1),
                clustered_catalog(10),
            )),
            10,
        ),
        Kind::Staggered => (
            Fixture::Grouped(GroupedScheduler::new(cfg(C - 1, 1), clustered_catalog(10))),
            10,
        ),
        Kind::NonClustered => {
            let policy = if (flavour / 2).is_multiple_of(2) {
                TransitionPolicy::Simple
            } else {
                TransitionPolicy::Delayed
            };
            let servers = 1 + (flavour / 4) as usize % 2;
            (
                Fixture::NonClustered(NonClusteredScheduler::new(
                    cfg(1, 1),
                    clustered_catalog(15),
                    policy,
                    servers,
                )),
                15,
            )
        }
        Kind::Improved => {
            let geo = Geometry::improved(12, C).unwrap();
            let mut catalog = Catalog::new(ImprovedLayout::new(geo), 100_000);
            for o in objects() {
                catalog.add(o).unwrap();
            }
            let reserve = (flavour / 2) as usize % 2;
            let mut s = GroupedScheduler::with_reserve(cfg(C - 1, C - 1), catalog, reserve);
            s.set_parity_prefetch((flavour / 4) % 2 == 1);
            (Fixture::Improved(s), 12)
        }
        Kind::Grouped => {
            // Odd flavours rotate over three clusters; the Streaming RAID
            // and Staggered-group fixtures both have two.
            let disks = if tight { 15 } else { 10 };
            (
                Fixture::Grouped(GroupedScheduler::new(
                    cfg(C - 1, 2),
                    clustered_catalog(disks),
                )),
                disks as u32,
            )
        }
        Kind::Baseline => (
            Fixture::NonClustered(NonClusteredScheduler::unprotected(
                cfg(1, 1),
                clustered_catalog(10),
            )),
            10,
        ),
    }
}

/// What a script reached, so the test can tell pinned paths from
/// paths the generator never found.
#[derive(Debug, Default, Clone, Copy)]
struct Coverage {
    refused: usize,
    finished: usize,
    reconstructed: usize,
    hiccups: usize,
    /// Hiccups by reason: displaced, mid-cycle, service degradation.
    displaced: usize,
    mid_cycle: usize,
    degraded_service: usize,
    /// Streams a failure report dropped outright.
    dropped: usize,
    degraded_plans: usize,
    skipped: u64,
    /// Of those, cycles skipped after a failed disk had been repaired.
    skipped_after_repair: u64,
    /// Ops after a repair that ended with the stability window open.
    stable_after_repair: usize,
    /// Repairs made while streams were active.
    busy_repairs: usize,
}

impl Coverage {
    fn plan(&mut self, plan: &CyclePlan, degraded: bool) {
        self.finished += plan.finished.len();
        self.reconstructed += plan.deliveries.iter().filter(|d| d.reconstructed).count();
        self.hiccups += plan.hiccups.len();
        for h in &plan.hiccups {
            match h.reason {
                LossReason::FailedDisk => {}
                LossReason::Displaced => self.displaced += 1,
                LossReason::MidCycle => self.mid_cycle += 1,
                LossReason::ServiceDegradation => self.degraded_service += 1,
            }
        }
        self.degraded_plans += usize::from(degraded && plan.total_reads() > 0);
    }
}

/// The plan's counted views against its expanded ones: what a consumer
/// reads off the load table and the delivery totals is what it would
/// count by walking every track.
fn assert_views_agree(plan: &CyclePlan, disks: u32, slots: usize, what: &str) {
    let mut read = BTreeSet::new();
    let mut total = 0;
    for disk in (0..disks + 1).map(DiskId) {
        let on_disk = plan.reads_on(disk);
        assert_eq!(plan.load_on(disk), on_disk.iter().count(), "{what}");
        assert_eq!(plan.load_on(disk), on_disk.len(), "{what}");
        assert!(
            plan.load_on(disk) <= slots,
            "{what}: {disk:?} over its slots"
        );
        total += plan.load_on(disk);
        for r in on_disk {
            // One stream never reads a data block twice in a cycle. (Its
            // parity block it may: the Improved-bandwidth cascade fetches
            // parity once per block it rebuilds.)
            if let BlockKind::Data(i) = r.addr.kind {
                let block = (r.stream, r.addr.object, r.addr.group, i);
                assert!(read.insert(block), "{what}: {r:?} twice");
            }
        }
    }
    assert_eq!(plan.total_reads(), total, "{what}");
    let listed: Vec<DiskId> = plan.reads.keys().copied().collect();
    let loaded: Vec<DiskId> = (0..disks)
        .map(DiskId)
        .filter(|&d| plan.load_on(d) > 0)
        .collect();
    assert_eq!(listed, loaded, "{what}");

    let deliveries = &plan.deliveries;
    assert_eq!(deliveries.len(), deliveries.iter().count(), "{what}");
    assert_eq!(
        deliveries.is_empty(),
        deliveries.iter().next().is_none(),
        "{what}"
    );
    assert_eq!(
        deliveries.reconstructed(),
        deliveries.iter().filter(|d| d.reconstructed).count(),
        "{what}"
    );
    let key = |stream: StreamId, a: mms_layout::BlockAddr| match a.kind {
        BlockKind::Data(i) => (stream, a.object, a.group, i),
        BlockKind::Parity => panic!("{what}: parity block {a} on the wire"),
    };
    let mut sent = BTreeSet::new();
    for d in deliveries.iter() {
        assert!(sent.insert(key(d.stream, d.addr)), "{what}: {d:?} twice");
    }
    for h in &plan.hiccups {
        let dropped = h.reason == LossReason::ServiceDegradation;
        assert!(
            dropped || sent.insert(key(h.stream, h.addr)),
            "{what}: {h:?} is also delivered, or lost twice"
        );
    }
}

/// What the differential test reached.
#[derive(Debug, Default)]
struct Differential {
    /// Planned cycles that were stated first and compared.
    stated: usize,
    /// Cycles of a stability window the scheduler would not vouch for.
    declined: usize,
    /// `fast_forward(n)` forks compared with `n` planned cycles.
    skips: usize,
    /// Of those, forks whose `n` is no multiple of the plan rotation.
    odd_skips: usize,
}

impl Differential {
    /// The scheduler's statement of `cycle`, the next to be planned, if
    /// it stands in a stability window. Declining is allowed for two
    /// reasons only: a read policy without a closed form (the prefetching
    /// Improved-bandwidth fixture states nothing), or a group read around
    /// a failure that may still be in memory — at most one rotation after
    /// the last cycle planned with a disk down.
    fn state(
        &mut self,
        s: &Fixture,
        cycle: u64,
        last_degraded_plan: Option<u64>,
        what: &str,
    ) -> Option<SteadyCycle> {
        let window = s.plan_stability(cycle);
        if window.stable == 0 {
            return None;
        }
        let mut stated = SteadyCycle::default();
        if s.steady_cycle(cycle, &mut stated) {
            self.stated += 1;
            return Some(stated);
        }
        self.declined += 1;
        let prefetching = matches!(s, Fixture::Improved(ib) if ib.parity_prefetch());
        let draining = last_degraded_plan.is_some_and(|at| cycle <= at + window.period);
        assert!(prefetching || draining, "{what}: declined a steady cycle");
        None
    }

    /// From the state `s` stands in before `cycle`: for every `n` the
    /// window allows (up to two rotations), the statement of the `n`-th
    /// cycle made *now* is what a fork planning its way there produces,
    /// and a fork skipping `n` cycles lands in the same state.
    fn skip_from(
        &mut self,
        s: &Fixture,
        cycle: u64,
        admitted: &[StreamId],
        disks: u32,
        what: &str,
    ) {
        let window = s.plan_stability(cycle);
        let mut stated = SteadyCycle::default();
        let mut planned = s.clone();
        let mut plan = CyclePlan::empty(0);
        for n in 1..=window.stable.min(2 * window.period) {
            let what = format!("{what} +{n}");
            if !s.steady_cycle(cycle + n - 1, &mut stated) {
                break;
            }
            let high_water = planned.buffer_high_water();
            planned.plan_cycle_into(cycle + n - 1, &mut plan);
            assert_stated(&stated, &plan, &planned, high_water, disks, &what);
            let mut skipped = s.clone();
            skipped.fast_forward(n);
            assert_same_state(&planned, &skipped, cycle + n, admitted, &what);
            self.skips += 1;
            self.odd_skips += usize::from(n % window.period != 0);
        }
    }
}

/// `stated` is what planning the cycle did: `plan` is the plan, `s` the
/// scheduler after it, `high_water` its buffer peak before it.
fn assert_stated(
    stated: &SteadyCycle,
    plan: &CyclePlan,
    s: &Fixture,
    high_water: usize,
    disks: u32,
    what: &str,
) {
    let mut reads = stated.reads.iter().copied().peekable();
    for disk in (0..disks).map(DiskId) {
        let tracks = reads.next_if(|&(d, _)| d == disk).map_or(0, |(_, n)| n);
        assert_eq!(plan.load_on(disk), tracks, "{what}: reads of {disk:?}");
    }
    assert_eq!(reads.next(), None, "{what}: reads out of disk order");
    assert!(
        stated.reads.iter().all(|&(_, n)| n > 0),
        "{what}: idle disk listed"
    );
    assert_eq!(plan.deliveries.len(), stated.delivered, "{what}: delivered");
    assert_eq!(plan.deliveries.reconstructed(), 0, "{what}");
    assert!(
        plan.hiccups.is_empty() && plan.finished.is_empty(),
        "{what}"
    );
    assert_eq!(
        s.buffer_in_use(),
        stated.buffer_in_use,
        "{what}: buffer in use"
    );
    assert_eq!(
        s.buffer_high_water(),
        high_water.max(stated.buffer_peak),
        "{what}: buffer peak"
    );
}

/// A fork that skipped to `cycle` and one that planned its way there
/// are the same scheduler: every gauge but the high-water mark (which a
/// skip leaves to its caller), every stream, and every plan of the next
/// two rotations.
fn assert_same_state(
    planned: &Fixture,
    skipped: &Fixture,
    cycle: u64,
    admitted: &[StreamId],
    what: &str,
) {
    let digest = |s: &Fixture, cycle: u64| {
        let mut h = Fnv::new();
        h.word(s.buffer_in_use() as u64);
        h.word(s.active_streams() as u64);
        let window = s.plan_stability(cycle);
        h.word(window.period);
        h.word(window.stable);
        for &id in admitted {
            let info = s.stream_info(id);
            h.word(info.map_or(u64::MAX, |i| i.next_group));
            h.word(info.map_or(u64::MAX, |i| i.delivered_tracks));
            h.word(info.map_or(u64::MAX, |i| i.lost_tracks));
        }
        h.0
    };
    assert_eq!(digest(planned, cycle), digest(skipped, cycle), "{what}");
    assert!(
        skipped.buffer_high_water() <= planned.buffer_high_water(),
        "{what}: a skip overshot the buffer peak"
    );
    let (mut planned, mut skipped) = (planned.clone(), skipped.clone());
    let mut plan = CyclePlan::empty(0);
    for t in cycle..cycle + 2 * planned.plan_stability(cycle).period {
        let mut digests = [0, 0];
        for (s, d) in [&mut planned, &mut skipped].into_iter().zip(&mut digests) {
            s.plan_cycle_into(t, &mut plan);
            let mut h = Fnv::new();
            h.plan(&plan);
            h.word(digest(s, t + 1));
            *d = h.0;
        }
        assert_eq!(digests[0], digests[1], "{what}: plans diverge at cycle {t}");
    }
}

/// Run one seeded script, adding what it reached to `cov`; returns its
/// digest. Every plan on the way is checked by [`assert_views_agree`].
fn run_script(kind: Kind, seed: u64, cov: &mut Coverage) -> u64 {
    run_script_with(kind, seed, cov, None)
}

/// [`run_script`], holding the stated steady cycle against every plan of
/// a stability window when `differential` is given.
fn run_script_with(
    kind: Kind,
    seed: u64,
    cov: &mut Coverage,
    mut differential: Option<&mut Differential>,
) -> u64 {
    let (mut s, disks) = build(kind, seed);
    let slots = s.config().slots_per_disk();
    let mut rng = Rng(seed ^ ((kind as u64) << 32) ^ 0x5EED);
    let mut h = Fnv::new();
    let mut plan = CyclePlan::empty(0);
    let mut cycle = 0u64;
    let mut admitted: Vec<StreamId> = Vec::new();
    let mut live: Vec<StreamId> = Vec::new();
    let mut down: Vec<DiskId> = Vec::new();
    let mut repaired = false;
    let mut last_degraded_plan: Option<u64> = None;
    let mut refused = 0usize;
    let epoch = Cell::new(0u64);
    let bump = |n: u64| epoch.set(epoch.get() + n);

    let mut admit = |s: &mut dyn SchemeScheduler,
                     h: &mut Fnv,
                     rng: &mut Rng,
                     at: u64,
                     admitted: &mut Vec<StreamId>,
                     live: &mut Vec<StreamId>| {
        let object = ObjectId(rng.below(OBJECT_TRACKS.len() as u64));
        match s.admit(object, at) {
            Ok(id) => {
                bump(1);
                h.word(id.0);
                admitted.push(id);
                live.push(id);
                Some(id)
            }
            Err(_) => {
                h.word(u64::MAX - 1);
                refused += 1;
                None
            }
        }
    };

    for _ in 0..OPS_PER_SCRIPT {
        let op = rng.below(20);
        h.word(op);
        match op {
            // Advance the clock, planning every cycle.
            0..=6 => {
                let n = if op == 0 { 1 } else { 1 + rng.below(10) };
                for _ in 0..n {
                    let what = format!("{kind:?} {seed} @{cycle}");
                    let stated = differential
                        .as_deref_mut()
                        .and_then(|d| d.state(&s, cycle, last_degraded_plan, &what));
                    let high_water = s.buffer_high_water();
                    s.plan_cycle_into(cycle, &mut plan);
                    if let Some(stated) = stated {
                        assert_stated(&stated, &plan, &s, high_water, disks, &what);
                    }
                    if !down.is_empty() {
                        last_degraded_plan = Some(cycle);
                    }
                    assert_views_agree(&plan, disks, slots, &what);
                    cycle += 1;
                    h.plan(&plan);
                    cov.plan(&plan, !down.is_empty());
                    h.state(&*s, cycle, &admitted, epoch.get());
                }
            }
            // A burst of arrivals at the current cycle.
            7..=10 => {
                for _ in 0..1 + rng.below(6) {
                    admit(&mut *s, &mut h, &mut rng, cycle, &mut admitted, &mut live);
                }
            }
            // An arrival booked for a future cycle.
            11 => {
                let at = cycle + 1 + rng.below(3);
                admit(&mut *s, &mut h, &mut rng, at, &mut admitted, &mut live);
            }
            // Admit and abandon before anything was read (`elapsed == 0`).
            12 => {
                if let Some(id) = admit(&mut *s, &mut h, &mut rng, cycle, &mut admitted, &mut live)
                {
                    live.retain(|&l| l != id);
                    for released in [s.release(id), s.release(id)] {
                        bump(u64::from(released));
                        h.word(u64::from(released));
                    }
                }
            }
            // Release a stream in flight (possibly one already finished).
            13 | 14 => {
                if !live.is_empty() {
                    let id = live.remove(rng.below(live.len() as u64) as usize);
                    h.word(id.0);
                    let released = s.release(id);
                    bump(u64::from(released));
                    h.word(u64::from(released));
                }
            }
            // Fail a disk between cycles (15, 16) or mid-cycle (17); a
            // second concurrent failure is allowed, a third is not.
            15..=17 => {
                let disk = DiskId(rng.below(u64::from(disks)) as u32);
                if down.len() < 2 && !down.contains(&disk) {
                    down.push(disk);
                    h.word(u64::from(disk.0));
                    let report = s.on_disk_failure(disk, cycle, op == 17);
                    bump(1);
                    h.failure(&report);
                    cov.dropped += report.dropped_streams.len();
                    live.retain(|id| !report.dropped_streams.contains(id));
                }
            }
            // Repair the disk that has been down longest.
            18 => {
                if !down.is_empty() {
                    let disk = down.remove(0);
                    h.word(u64::from(disk.0));
                    cov.busy_repairs += usize::from(s.active_streams() > 0);
                    s.on_disk_repair(disk, cycle);
                    bump(1);
                    repaired = true;
                }
            }
            // Skip whole rotations of a stable window in closed form.
            _ => {
                let st = s.plan_stability(cycle);
                let rotations = st.stable / st.period;
                if rotations > 0 {
                    let skip = st.period * (1 + rng.below(rotations.min(3)));
                    s.fast_forward(skip);
                    cycle += skip;
                    cov.skipped += skip;
                    cov.skipped_after_repair += if repaired { skip } else { 0 };
                    h.word(skip);
                }
            }
        }
        h.state(&*s, cycle, &admitted, epoch.get());
        cov.stable_after_repair += usize::from(repaired && s.plan_stability(cycle).stable > 0);
        if let Some(d) = differential.as_deref_mut() {
            d.skip_from(
                &s,
                cycle,
                &admitted,
                disks,
                &format!("{kind:?} {seed} @{cycle}"),
            );
        }
    }
    // Drain: every stream still in flight plays out.
    for _ in 0..64 {
        s.plan_cycle_into(cycle, &mut plan);
        assert_views_agree(&plan, disks, slots, &format!("{kind:?} {seed} @{cycle}"));
        cycle += 1;
        h.plan(&plan);
        cov.plan(&plan, !down.is_empty());
        h.state(&*s, cycle, &admitted, epoch.get());
    }
    cov.refused += refused;
    h.0
}

/// Pinned digests, one row per scheduler in `KINDS` order, one entry
/// per seed `0..SCRIPTS`.
#[rustfmt::skip]
const GOLDEN: [[u64; SCRIPTS]; 6] = [
    [
        0xebd93389f8cdb58a, 0xee4bf16e12db0477, 0x0174f5f6b6b457d8, 0xf56aee227e17ee2a,
        0x4ebcbdeb4d6c1f2a, 0x0f218651b17267d8, 0x65976cf460cc03e4, 0x8aeb7025958145e4,
        0x56db3069062125e9, 0xb8e1fa5c802e16b3, 0x9db7862f71f1ac13, 0x31e51d27c112c205,
        0x894b3ced0bd8d47f, 0x808bc62bbac32b3a, 0x953079d4596b71cc, 0xb878f54ff1525530,
        0x91a82d796b732192, 0xd702adaf6894f20b, 0xe43754e5ba6960d8, 0x933c06d6d46173fa,
        0x201671cb557cb9e3, 0x742044b23efe87cc, 0xadba6c2153513693, 0x1282c5cdb6ddcb82,
        0x64ed9f94551d71a7, 0xee1b64f8eb73364b, 0xefa90de913f6ddeb, 0xcd66b57f3c27e6c8,
        0x189940401601eab9, 0x1317622f0096e0e1, 0x8a4b2c1eec42f526, 0x47e47d165896dd88,
    ],
    [
        0x4f93f073f01d1648, 0xa9d1faeb676d5089, 0xc44e76a93bc6678a, 0xa9bd903a78e0316b,
        0x443d3d889adb6f5a, 0xd6f2e2ec3f50ae76, 0x3d30677bf0da085c, 0xb1734fef574b0c4c,
        0x0f77f7d9b9762b60, 0x9969b07ea0c6b0e5, 0x1cf66f9c92491be3, 0x1b7d96cc5c54b27e,
        0xbb0c88407413011a, 0x93751df521a066bf, 0xa370140421d627c8, 0xbcae1c5f130d2c48,
        0xb2bd7efb1df524fe, 0xb8c6af8704993979, 0xa294f475b5fa9dfe, 0xf2f9be31f907528b,
        0xc4989d70357aecc7, 0xe5f3faf8c0f07cff, 0x0ebb7344acba4040, 0x904c0edd9935df92,
        0x35b43c26c83739b0, 0x1ea190bbc229c76b, 0xe75ccee2d8cda47f, 0xd1096cd5421de67d,
        0x43912b89adb9c769, 0xba9f4e31618c8106, 0xc083d6d607dcdc73, 0x3ac5dffc367c2ab8,
    ],
    [
        0x5a7fcd3eda117c26, 0xa5bcbe9f44cb707b, 0x5c4c62f187fd15ab, 0xb4bb900819d1e438,
        0x9975ffdefbc4925e, 0x927f996e38521e0a, 0x545a0c3342f3711d, 0x054e22d09a95d450,
        0xe56e1096990aac56, 0x33dc8b9edeb8f175, 0x02708b1eadb9c6fb, 0x336b25390304a790,
        0x01172c79db47ff2e, 0xd6fadf05dae2d938, 0x65e4301d5c201d00, 0x297c3451181db4b9,
        0xa110c1e5f5e619d2, 0x064ebe80cb452f69, 0xd4062d9a61a7f908, 0xcd84689859cf46aa,
        0xff88343145da9c16, 0x490524973392a3d5, 0xba9f33db23f5eabf, 0xc70be88280b2de7d,
        0x7db752433ea576ed, 0xcf95169fb60703b9, 0x516cc8e8c099babf, 0x5e328f421b10209d,
        0xe5a122532324c6b1, 0xf262c7d2bd3cd4dd, 0x1cdff61880d9b71c, 0x675768010ef47e90,
    ],
    [
        0xdd753bc362aa1ef0, 0xa81df59a4fbabdcf, 0x5b5b059886b75128, 0x60666afb86e12989,
        0x11506c15cb2afa38, 0xa106d5c05ba7a310, 0x60773311d5aa490e, 0x4f31ecfd810b7640,
        0x124d6cfac99cb48e, 0x56e4fc255d59ac6f, 0x60c8b935e0d044d4, 0xf331c35c05248655,
        0xd56c20106b37bdc2, 0x13ab6c50ddbe6364, 0xc2f9c752e0ab7bd0, 0xd33152cde56362eb,
        0x78fa5db3b0247c11, 0xf1721ac9127e8300, 0x1134a82a756ddeba, 0xab92baceda2e3265,
        0x8d3de32795512488, 0xaeac5d803105288e, 0xb3dd9984fefb60b7, 0xa81e5942b4b98e51,
        0x4d0ceaa182f249a9, 0xc9fd80cc9bfa3059, 0xfed61e55f14ba78a, 0xaead90bfab17a61c,
        0xb74e71c43711a3e2, 0xd2d300e418ef7e33, 0x6021b4c0c5f976e6, 0x6210848127a77084,
    ],
    [
        0xee342ac82dc731ad, 0x3cae898a01f10f18, 0x08f7a3987ece056f, 0x4b5f941b68a840b0,
        0xf65e6e2bf9866740, 0xd0786f6e5d0d67f2, 0xcff6dbea1e3455a3, 0xba2feb2211cb367f,
        0x5d90f8682a6007f3, 0xfa42db40a875e011, 0x30bc6cd2f38452b4, 0xb618fd649819995d,
        0x661ddad568c449a2, 0xd9547810e85a9c4e, 0xdc643ac2a3211220, 0x3abe4eb37e25fbad,
        0xe34c5f41908422cc, 0xb1b273b21718c806, 0x01b14638c6994ad6, 0x942fd22bd6883ddc,
        0x2fcd0c7f647feb99, 0xb042c9a6556adc32, 0xca38e1287901e884, 0xfc6972ee4fbd65cc,
        0x7fb164a3fcbf296f, 0x17e616af6cda8aa4, 0xe895224b312924b0, 0xc3680937b497ff61,
        0x7466c9e8aa4f535c, 0x4ee1868cdd80c320, 0xfdc35ba140084394, 0x8ceee162de817f44,
    ],
    [
        0x358ac71e7babe0e5, 0x36d70c784ceee966, 0x4f1de5f0dbe696d4, 0xd196db07f1a258d0,
        0xad13104bbb10cc09, 0x957e27d6a77aa961, 0xc1195fe9db6f413c, 0x598fbafc80471c57,
        0x1dcd6f2d009fb408, 0xac7920879d8158ae, 0x01a1c1083c535ede, 0x67c6db7237017eb5,
        0xa2bad81ffff0eb81, 0x3f05a1f16fa97ca9, 0xc6dc45a19da0c3ce, 0xabb3b52399835f59,
        0xb7683016e3da66f8, 0xa381bf4febe2779a, 0x9d078c8eed660260, 0xa23bec304524b173,
        0xe5ef4eb2b37cf067, 0x2e534839d1b8a263, 0xba335bda86078070, 0x526a79e6a75bc968,
        0x28b0406de6010743, 0x95cbbc90e341bc51, 0x2fc3e53185a55e22, 0x57394c56a328100e,
        0x9a4941ddf2e653c9, 0x182e3424907c1091, 0xba8a021f377c0e9e, 0xacb40d8821484b14,
    ],
];

#[test]
fn plan_traces_match_the_pinned_digests() {
    let mut actual = [[0u64; SCRIPTS]; 6];
    for (row, &kind) in actual.iter_mut().zip(&KINDS) {
        let mut total = Coverage::default();
        for (seed, slot) in row.iter_mut().enumerate() {
            *slot = run_script(kind, seed as u64, &mut total);
        }
        // A script set that never refuses, degrades or loses a track
        // would pin nothing about those paths.
        assert!(total.refused > 0, "{kind:?}: {total:?}");
        assert!(total.finished > 0, "{kind:?}: {total:?}");
        assert!(total.hiccups > 0, "{kind:?}: {total:?}");
        assert!(total.degraded_plans > 0, "{kind:?}: {total:?}");
        assert!(total.skipped > 0, "{kind:?}: {total:?}");
        if kind != Kind::Baseline {
            assert!(total.reconstructed > 0, "{kind:?}: {total:?}");
        }
        if kind == Kind::NonClustered {
            assert!(total.displaced > 0 && total.dropped > 0, "{total:?}");
        }
        if kind == Kind::Improved {
            assert!(
                total.mid_cycle > 0 && total.degraded_service > 0,
                "{total:?}"
            );
        }
    }
    if actual != GOLDEN {
        let mut table = String::new();
        for row in &actual {
            table.push_str("    [");
            for d in row {
                table.push_str(&format!("0x{d:016x}, "));
            }
            table.push_str("],\n");
        }
        for (row, &kind) in KINDS.iter().enumerate() {
            for seed in 0..SCRIPTS {
                if actual[row][seed] != GOLDEN[row][seed] {
                    eprintln!("{kind:?} seed {seed}: digest changed");
                }
            }
        }
        panic!("plan digests differ from the pinned table; actual:\n{table}");
    }
}

/// The pinned seeds are 32 points of the generator's space; the plan's
/// views must agree on every script, so run some nobody pinned.
#[test]
fn plan_views_agree_on_unpinned_scripts_of_every_scheduler() {
    for &kind in &KINDS {
        for seed in 1000..1000 + 2 * SCRIPTS as u64 {
            run_script(kind, seed, &mut Coverage::default());
        }
    }
}

/// The four Non-clustered rows re-pinned when a transition's marks
/// stopped outliving it (ROADMAP defect (c)): in each, a failure left
/// marks behind, the disk was repaired, and the window — shut for the
/// rest of the script before — is open again at the end of some later
/// op. None of them happens to draw the skip op inside the reopened
/// window, so no plan moved: their digests differ in the hashed `stable`
/// words alone. (Seeds 15 and 17 do skip after a repair, and did
/// before: their failures left no mark.)
#[test]
fn repinned_non_clustered_scripts_reopen_their_window_after_a_repair() {
    for seed in [2, 6, 13, 23] {
        let mut cov = Coverage::default();
        run_script(Kind::NonClustered, seed, &mut cov);
        assert!(cov.stable_after_repair > 0, "seed {seed}: {cov:?}");
    }
    for seed in [15, 17] {
        let mut cov = Coverage::default();
        run_script(Kind::NonClustered, seed, &mut cov);
        assert!(cov.skipped_after_repair > 0, "seed {seed}: {cov:?}");
    }
}

/// The Baseline row was re-pinned when the unprotected server began to
/// decide a loss when the read is skipped, not when the delivery is due
/// (ROADMAP defect (b)), and the generator stopped holding its repairs
/// back until the server was idle: each of the 30 seeds that moved now
/// repairs a disk with streams active; seeds 23 and 27 never do, and
/// kept their digests. (Seeds 1, 5, 6, 14, 15, 21 and 25 would have
/// moved under the old generator too: a disk fails the cycle after a
/// stream read it, and the block already in memory is delivered.)
#[test]
fn repinned_baseline_scripts_repair_a_disk_with_streams_active() {
    for seed in 0..SCRIPTS as u64 {
        let mut cov = Coverage::default();
        run_script(Kind::Baseline, seed, &mut cov);
        let idle_repairs_only = [23, 27].contains(&seed);
        assert_eq!(cov.busy_repairs == 0, idle_repairs_only, "{seed}: {cov:?}");
    }
}

/// What a scheduler states for a steady cycle is what planning it does,
/// and a skip of any length lands where planning lands — on every script
/// of the generator, pinned seeds and unpinned, for every scheduler.
#[test]
fn stated_cycles_and_skips_agree_with_planning_on_every_script() {
    for &kind in &KINDS {
        let mut reached = Differential::default();
        for seed in (0..SCRIPTS as u64).chain(2000..2000 + SCRIPTS as u64) {
            let digest = run_script_with(kind, seed, &mut Coverage::default(), Some(&mut reached));
            if let Some(&pinned) = GOLDEN[kind as usize].get(seed as usize) {
                assert_eq!(
                    digest, pinned,
                    "{kind:?} {seed}: the checks moved the script"
                );
            }
        }
        assert!(reached.stated > 100, "{kind:?}: {reached:?}");
        assert!(
            reached.skips > 100 && reached.odd_skips > 50,
            "{kind:?}: {reached:?}"
        );
        // Only fixtures that fail disks mid-flight or prefetch ever decline.
        assert!(reached.declined < reached.stated, "{kind:?}: {reached:?}");
    }
}
