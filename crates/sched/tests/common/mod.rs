//! The schedulers the plan tests drive: six configurations over the
//! seven-object catalog, and the generator every script draws from.

use mms_disk::{Bandwidth, DiskParams};
use mms_layout::{
    BandwidthClass, Catalog, ClusteredLayout, Geometry, ImprovedLayout, MediaObject, ObjectId,
};
use mms_sched::{
    CycleConfig, GroupedScheduler, NonClusteredScheduler, SchemeScheduler, TransitionPolicy,
};
use std::ops::{Deref, DerefMut};

/// Parity-group size of every fixture; `C − 1 = 4` data blocks a group.
pub const C: usize = 5;
/// Object lengths in tracks: a one-block object, partial final groups
/// (3, 13, 97), exact multiples of the group (4, 8, 40).
pub const OBJECT_TRACKS: [u64; 7] = [1, 3, 4, 8, 13, 40, 97];

/// SplitMix64: the script generator's only source of choices.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The six scheduler configurations: the whole-group scheduler over a
/// parity disk at `k′ = C−1` (Streaming RAID), `1` (Staggered-group) and
/// `2` (`Grouped`) and over parity on the next cluster (Improved), the
/// Non-clustered scheduler, and the unprotected baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    StreamingRaid,
    Staggered,
    NonClustered,
    Improved,
    Grouped,
    Baseline,
}

pub const KINDS: [Kind; 6] = [
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
pub enum Fixture {
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

pub fn objects() -> impl Iterator<Item = MediaObject> {
    OBJECT_TRACKS.iter().enumerate().map(|(i, &tracks)| {
        MediaObject::new(
            ObjectId(i as u64),
            format!("o{i}"),
            tracks,
            BandwidthClass::Mpeg1,
        )
    })
}

pub fn clustered_catalog(disks: usize) -> Catalog<ClusteredLayout> {
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
pub fn build(kind: Kind, flavour: u64) -> (Fixture, u32) {
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
