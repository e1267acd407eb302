//! Rebuild mode — the third operating mode of Muntz & Lui's taxonomy,
//! which the paper defines but defers "due to lack of space".
//!
//! Two rebuild paths, both from Section 1:
//!
//! * **Parity rebuild** — a spare replaces the failed disk and its
//!   contents are regenerated group by group: each lost track is the XOR
//!   of the group's surviving members, so rebuilding one track costs one
//!   read on *every* source disk. Those reads may only use slots left
//!   idle by the delivery schedule — streams always have priority.
//! * **Tertiary rebuild** — after a catastrophic failure the lost data
//!   exists only on tertiary storage: "many tapes may need to be
//!   referenced and that is very time consuming". Modeled as a fixed
//!   (slow) track rate that does not consume disk-array slots.

use mms_disk::DiskId;
use std::fmt;

/// Where the rebuilt bytes come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RebuildSource {
    /// On-array parity reconstruction: each rebuilt track reads one track
    /// from every listed source disk, using only their idle slots.
    Parity {
        /// The surviving disks holding the group members and parity.
        sources: Vec<DiskId>,
    },
    /// Tertiary-store reload at a fixed rate (tracks per cycle), off the
    /// disk array's bandwidth budget.
    Tertiary {
        /// Tracks restored per cycle (tape bandwidth / track size).
        tracks_per_cycle: u64,
    },
}

/// One in-progress rebuild.
#[derive(Debug, Clone)]
pub struct Rebuild {
    /// The disk being rebuilt (in `Rebuilding` state on the array).
    pub disk: DiskId,
    /// Tracks that must be restored.
    pub total_tracks: u64,
    /// Tracks restored so far.
    pub done_tracks: u64,
    /// The data source.
    pub source: RebuildSource,
}

impl Rebuild {
    /// Whether the rebuild has restored everything.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.done_tracks >= self.total_tracks
    }

    /// Fraction complete in `[0, 1]`.
    #[must_use]
    pub fn progress(&self) -> f64 {
        if self.total_tracks == 0 {
            return 1.0;
        }
        self.done_tracks as f64 / self.total_tracks as f64
    }
}

impl fmt::Display for Rebuild {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rebuild disk {}: {}/{} tracks ({:.0}%)",
            self.disk,
            self.done_tracks,
            self.total_tracks,
            self.progress() * 100.0
        )
    }
}

/// Tracks all in-progress rebuilds for the simulator.
#[derive(Debug, Clone, Default)]
pub struct RebuildManager {
    active: Vec<Rebuild>,
}

impl RebuildManager {
    /// No rebuilds in progress.
    #[must_use]
    pub fn new() -> Self {
        RebuildManager::default()
    }

    /// Begin rebuilding `disk`.
    pub fn start(&mut self, rebuild: Rebuild) {
        debug_assert!(
            !self.active.iter().any(|r| r.disk == rebuild.disk),
            "disk already rebuilding"
        );
        self.active.push(rebuild);
    }

    /// In-progress rebuilds.
    #[must_use]
    pub fn active(&self) -> &[Rebuild] {
        &self.active
    }

    /// Advance one cycle. `idle_slots(disk)` reports how many read slots
    /// remain free on a disk this cycle after the delivery schedule;
    /// `spend(disk, tracks)` charges rebuild reads against it. Returns
    /// the disks whose rebuilds completed this cycle.
    pub fn advance<F, G>(&mut self, mut idle_slots: F, mut spend: G) -> Vec<DiskId>
    where
        F: FnMut(DiskId) -> usize,
        G: FnMut(DiskId, usize),
    {
        // lint:allow(hot-path-alloc): an empty Vec never touches the heap; it grows only when a rebuild completes
        let mut finished = Vec::new();
        for r in &mut self.active {
            let remaining = r.total_tracks - r.done_tracks;
            let step = match &r.source {
                RebuildSource::Parity { sources } => {
                    // One read on every source disk per rebuilt track:
                    // the bottleneck source disk's idle slots bound the
                    // cycle's progress.
                    let bound = sources.iter().map(|&d| idle_slots(d)).min().unwrap_or(0) as u64;
                    let step = bound.min(remaining);
                    if step > 0 {
                        for &d in sources {
                            spend(d, step as usize);
                        }
                    }
                    step
                }
                RebuildSource::Tertiary { tracks_per_cycle } => (*tracks_per_cycle).min(remaining),
            };
            r.done_tracks += step;
            if r.is_complete() {
                finished.push(r.disk);
            }
        }
        self.active.retain(|r| !r.is_complete());
        finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn parity_rebuild(total: u64) -> Rebuild {
        Rebuild {
            disk: DiskId(2),
            total_tracks: total,
            done_tracks: 0,
            source: RebuildSource::Parity {
                sources: vec![DiskId(0), DiskId(1), DiskId(3), DiskId(4)],
            },
        }
    }

    #[test]
    fn parity_rebuild_is_bounded_by_the_busiest_source() {
        let mut mgr = RebuildManager::new();
        mgr.start(parity_rebuild(10));
        // Disk 1 has only 2 idle slots; others have 5.
        let idle = |d: DiskId| if d == DiskId(1) { 2 } else { 5 };
        let mut spent: BTreeMap<DiskId, usize> = BTreeMap::new();
        let done = mgr.advance(idle, |d, n| *spent.entry(d).or_default() += n);
        assert!(done.is_empty());
        assert_eq!(mgr.active()[0].done_tracks, 2);
        // Every source disk paid 2 reads.
        assert!(spent.values().all(|&n| n == 2));
        assert_eq!(spent.len(), 4);
    }

    #[test]
    fn rebuild_completes_and_reports() {
        let mut mgr = RebuildManager::new();
        mgr.start(parity_rebuild(6));
        let mut finished = Vec::new();
        for _ in 0..3 {
            finished.extend(mgr.advance(|_| 2, |_, _| {}));
        }
        assert_eq!(finished, vec![DiskId(2)]);
        assert!(mgr.active().is_empty());
    }

    #[test]
    fn tertiary_rebuild_ignores_disk_slots() {
        let mut mgr = RebuildManager::new();
        mgr.start(Rebuild {
            disk: DiskId(7),
            total_tracks: 9,
            done_tracks: 0,
            source: RebuildSource::Tertiary {
                tracks_per_cycle: 4,
            },
        });
        // Zero idle slots everywhere: tertiary still proceeds.
        assert!(mgr.advance(|_| 0, |_, _| {}).is_empty());
        assert!(mgr.advance(|_| 0, |_, _| {}).is_empty());
        let done = mgr.advance(|_| 0, |_, _| {});
        assert_eq!(done, vec![DiskId(7)]);
    }

    #[test]
    fn starved_rebuild_makes_no_progress() {
        let mut mgr = RebuildManager::new();
        mgr.start(parity_rebuild(5));
        assert!(mgr.advance(|_| 0, |_, _| {}).is_empty());
        assert_eq!(mgr.active()[0].done_tracks, 0);
    }

    #[test]
    fn progress_and_display() {
        let mut r = parity_rebuild(4);
        r.done_tracks = 1;
        assert!((r.progress() - 0.25).abs() < 1e-12);
        assert!(r.to_string().contains("1/4"));
        let empty = Rebuild {
            disk: DiskId(0),
            total_tracks: 0,
            done_tracks: 0,
            source: RebuildSource::Tertiary {
                tracks_per_cycle: 1,
            },
        };
        assert!(empty.is_complete());
    }
}
