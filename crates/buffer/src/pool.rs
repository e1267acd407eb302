//! Track-granular buffer pool.

use std::fmt;

/// Identifies the entity a buffer is charged to, when a caller that keeps
/// its own per-owner tally refuses a release (the stream table names the
/// stream in [`BufferError::Underflow`]).
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
///
/// The pool keeps the gauges only. Who holds the tracks is the caller's
/// to remember: the stream table keeps each stream's charge in the
/// stream's own slot, and the Non-clustered scheduler frees a buffer
/// server's tracks on the cycle calendar it charged them from — so no
/// per-cycle pass touches a map.
#[derive(Debug, Clone)]
pub struct BufferPool {
    capacity: Option<usize>,
    in_use: usize,
    high_water: usize,
}

impl BufferPool {
    /// A bounded pool of `capacity` tracks.
    #[must_use]
    pub fn bounded(capacity: usize) -> Self {
        BufferPool {
            capacity: Some(capacity),
            in_use: 0,
            high_water: 0,
        }
    }

    /// An unbounded measuring pool.
    #[must_use]
    pub fn unbounded() -> Self {
        BufferPool {
            capacity: None,
            in_use: 0,
            high_water: 0,
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

    /// Charge `tracks` to the pool: occupancy and the high-water mark
    /// move, or nothing does if a bounded pool has no room. Pair with
    /// [`release`](Self::release).
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
    fn charge_release_round_trip() {
        let mut p = BufferPool::bounded(10);
        p.charge(4).unwrap();
        p.charge(3).unwrap();
        assert_eq!(p.in_use(), 7);
        assert_eq!(p.available(), 3);
        p.release(2);
        assert_eq!(p.in_use(), 5);
        assert_eq!(p.capacity(), Some(10));
    }

    #[test]
    fn exhaustion_is_reported_and_nondestructive() {
        let mut p = BufferPool::bounded(5);
        p.charge(4).unwrap();
        let err = p.charge(2).unwrap_err();
        assert_eq!(
            err,
            BufferError::Exhausted {
                requested: 2,
                available: 1
            }
        );
        assert_eq!(p.in_use(), 4);
        assert_eq!(p.high_water(), 4);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut p = BufferPool::unbounded();
        p.charge(10).unwrap();
        p.release(8);
        p.charge(3).unwrap();
        assert_eq!(p.in_use(), 5);
        assert_eq!(p.high_water(), 10);
        assert_eq!(p.available(), usize::MAX);
        p.reset_high_water();
        assert_eq!(p.high_water(), 5);
    }

    #[test]
    #[should_panic(expected = "released more buffer tracks than are charged")]
    fn releasing_more_than_is_charged_panics() {
        let mut p = BufferPool::bounded(10);
        p.charge(2).unwrap();
        p.release(3);
    }

    #[test]
    fn zero_sized_operations_are_noops() {
        let mut p = BufferPool::bounded(1);
        p.charge(0).unwrap();
        p.release(0);
        assert_eq!((p.in_use(), p.high_water()), (0, 0));
    }
}
