//! Track-granular buffer pool with per-owner accounting.

use std::collections::BTreeMap;
use std::fmt;

/// Identifies the entity a buffer is charged to (a stream, a cluster, a
/// buffer server — the pool does not care).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OwnerId(pub u64);

impl fmt::Display for OwnerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Errors from pool operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BufferError {
    /// The allocation would exceed the pool's capacity.
    Exhausted {
        /// Tracks requested.
        requested: usize,
        /// Tracks free at the time of the request.
        available: usize,
    },
    /// An owner freed more tracks than it holds.
    Underflow {
        /// The offending owner.
        owner: OwnerId,
        /// Tracks the owner holds.
        held: usize,
        /// Tracks the owner tried to free.
        freeing: usize,
    },
}

impl fmt::Display for BufferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BufferError::Exhausted {
                requested,
                available,
            } => write!(
                f,
                "buffer pool exhausted: requested {requested} tracks, {available} available"
            ),
            BufferError::Underflow {
                owner,
                held,
                freeing,
            } => write!(
                f,
                "owner {owner} freeing {freeing} tracks but holds only {held}"
            ),
        }
    }
}

impl std::error::Error for BufferError {}

/// A buffer pool measured in tracks.
///
/// `capacity = None` builds an unbounded pool used for *measuring* a
/// scheme's requirement (run the schedule, read off `high_water`); a
/// bounded pool enforces a provisioned size and reports exhaustion, which
/// callers surface as degradation of service.
#[derive(Debug, Clone)]
pub struct BufferPool {
    capacity: Option<usize>,
    in_use: usize,
    high_water: usize,
    owners: BTreeMap<OwnerId, usize>,
}

impl BufferPool {
    /// A bounded pool of `capacity` tracks.
    #[must_use]
    pub fn bounded(capacity: usize) -> Self {
        BufferPool {
            capacity: Some(capacity),
            in_use: 0,
            high_water: 0,
            owners: BTreeMap::new(),
        }
    }

    /// An unbounded measuring pool.
    #[must_use]
    pub fn unbounded() -> Self {
        BufferPool {
            capacity: None,
            in_use: 0,
            high_water: 0,
            owners: BTreeMap::new(),
        }
    }

    /// Provisioned capacity, if bounded.
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Tracks currently allocated.
    #[must_use]
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Tracks currently free (`usize::MAX` when unbounded).
    #[must_use]
    pub fn available(&self) -> usize {
        match self.capacity {
            Some(c) => c - self.in_use,
            None => usize::MAX,
        }
    }

    /// Peak simultaneous allocation ever observed.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Tracks held by one owner.
    #[must_use]
    pub fn held_by(&self, owner: OwnerId) -> usize {
        self.owners.get(&owner).copied().unwrap_or(0)
    }

    /// Number of distinct owners currently holding buffers.
    #[must_use]
    pub fn owner_count(&self) -> usize {
        self.owners.len()
    }

    /// Charge `tracks` to the pool without naming an owner: capacity,
    /// occupancy and the high-water mark move exactly as in
    /// [`alloc`](Self::alloc), but who holds the tracks is the caller's
    /// to remember (the scheduler's stream table keeps each stream's
    /// charge in the stream's own slot, so its per-cycle passes touch no
    /// map). Pair with [`release`](Self::release).
    pub fn charge(&mut self, tracks: usize) -> Result<(), BufferError> {
        if let Some(cap) = self.capacity {
            let available = cap - self.in_use;
            if tracks > available {
                return Err(BufferError::Exhausted {
                    requested: tracks,
                    available,
                });
            }
        }
        self.in_use += tracks;
        self.high_water = self.high_water.max(self.in_use);
        Ok(())
    }

    /// Return `tracks` previously [`charge`](Self::charge)d.
    ///
    /// # Panics
    /// Panics if more is released than is in use — the caller's own
    /// tally has diverged from the pool.
    pub fn release(&mut self, tracks: usize) {
        self.in_use = self
            .in_use
            .checked_sub(tracks)
            .expect("released more buffer tracks than are charged");
    }

    /// Allocate `tracks` to `owner`.
    pub fn alloc(&mut self, owner: OwnerId, tracks: usize) -> Result<(), BufferError> {
        if tracks == 0 {
            return Ok(());
        }
        self.charge(tracks)?;
        *self.owners.entry(owner).or_insert(0) += tracks;
        Ok(())
    }

    /// Release `tracks` held by `owner`.
    pub fn free(&mut self, owner: OwnerId, tracks: usize) -> Result<(), BufferError> {
        if tracks == 0 {
            return Ok(());
        }
        let held = self.held_by(owner);
        if tracks > held {
            return Err(BufferError::Underflow {
                owner,
                held,
                freeing: tracks,
            });
        }
        self.in_use -= tracks;
        if held == tracks {
            self.owners.remove(&owner);
        } else {
            *self
                .owners
                .get_mut(&owner)
                .expect("held > tracks, so the owner entry exists") -= tracks;
        }
        Ok(())
    }

    /// Release everything held by `owner`, returning the count.
    pub fn free_all(&mut self, owner: OwnerId) -> usize {
        let held = self.owners.remove(&owner).unwrap_or(0);
        self.in_use -= held;
        held
    }

    /// Reset the high-water mark to the current occupancy (for windowed
    /// measurements).
    pub fn reset_high_water(&mut self) {
        self.high_water = self.in_use;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_round_trip() {
        let mut p = BufferPool::bounded(10);
        p.alloc(OwnerId(1), 4).unwrap();
        p.alloc(OwnerId(2), 3).unwrap();
        assert_eq!(p.in_use(), 7);
        assert_eq!(p.available(), 3);
        assert_eq!(p.held_by(OwnerId(1)), 4);
        p.free(OwnerId(1), 2).unwrap();
        assert_eq!(p.in_use(), 5);
        assert_eq!(p.held_by(OwnerId(1)), 2);
    }

    #[test]
    fn exhaustion_is_reported_and_nondestructive() {
        let mut p = BufferPool::bounded(5);
        p.alloc(OwnerId(1), 4).unwrap();
        let err = p.alloc(OwnerId(2), 2).unwrap_err();
        assert_eq!(
            err,
            BufferError::Exhausted {
                requested: 2,
                available: 1
            }
        );
        assert_eq!(p.in_use(), 4);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut p = BufferPool::unbounded();
        p.alloc(OwnerId(1), 10).unwrap();
        p.free(OwnerId(1), 8).unwrap();
        p.alloc(OwnerId(1), 3).unwrap();
        assert_eq!(p.in_use(), 5);
        assert_eq!(p.high_water(), 10);
        p.reset_high_water();
        assert_eq!(p.high_water(), 5);
    }

    #[test]
    fn underflow_is_rejected() {
        let mut p = BufferPool::bounded(10);
        p.alloc(OwnerId(1), 2).unwrap();
        let err = p.free(OwnerId(1), 3).unwrap_err();
        assert!(matches!(err, BufferError::Underflow { held: 2, .. }));
        // Freeing from an unknown owner is also an underflow.
        assert!(p.free(OwnerId(9), 1).is_err());
    }

    #[test]
    fn free_all_clears_owner() {
        let mut p = BufferPool::bounded(10);
        p.alloc(OwnerId(1), 6).unwrap();
        assert_eq!(p.free_all(OwnerId(1)), 6);
        assert_eq!(p.in_use(), 0);
        assert_eq!(p.owner_count(), 0);
        assert_eq!(p.free_all(OwnerId(1)), 0);
    }

    #[test]
    fn anonymous_charges_share_the_gauges_with_owned_ones() {
        let mut p = BufferPool::bounded(10);
        p.alloc(OwnerId(1), 4).unwrap();
        p.charge(5).unwrap();
        assert_eq!(p.in_use(), 9);
        assert_eq!(p.high_water(), 9);
        assert_eq!(p.owner_count(), 1);
        assert_eq!(
            p.charge(2),
            Err(BufferError::Exhausted {
                requested: 2,
                available: 1
            })
        );
        p.release(5);
        assert_eq!(p.in_use(), 4);
        assert_eq!(p.high_water(), 9);
        assert_eq!(p.held_by(OwnerId(1)), 4);
    }

    #[test]
    fn zero_sized_operations_are_noops() {
        let mut p = BufferPool::bounded(1);
        p.alloc(OwnerId(1), 0).unwrap();
        p.free(OwnerId(1), 0).unwrap();
        assert_eq!(p.in_use(), 0);
        assert_eq!(p.owner_count(), 0);
    }
}
