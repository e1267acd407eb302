//! Free-list pool of track-sized buffers.
//!
//! The verification and rebuild paths need track-sized scratch space every
//! cycle; allocating it per delivery turns the degraded-mode data path
//! into an allocator benchmark. [`TrackPool`] keeps returned buffers on a
//! free list so a steady-state cycle runs with zero heap traffic: the
//! first few checkouts miss (and allocate), everything after hits.

use crate::block::Block;

/// Running counters describing pool behavior, for telemetry gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts served from the free list (no allocation).
    pub hits: u64,
    /// Checkouts that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers currently checked out and not yet returned.
    pub outstanding: u64,
}

impl PoolStats {
    /// Fraction of checkouts served without allocating, in `[0, 1]`.
    /// Returns 1.0 before any checkout (an idle pool has missed nothing).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A free list of `Box<[u8]>` track buffers, checked out and back in per
/// cycle.
///
/// All buffers in one pool share a single size
/// ([`track_bytes`](TrackPool::track_bytes)); checking in a buffer of any
/// other length is a layout bug and panics. Checked-out buffers have
/// **unspecified
/// contents** (recycled buffers keep their previous bytes) — callers
/// either overwrite fully or zero first.
#[derive(Debug)]
pub struct TrackPool {
    track_bytes: usize,
    free: Vec<Box<[u8]>>,
    stats: PoolStats,
}

impl TrackPool {
    /// An empty pool for buffers of `track_bytes` bytes.
    #[must_use]
    pub fn new(track_bytes: usize) -> Self {
        TrackPool {
            track_bytes,
            free: Vec::new(),
            stats: PoolStats::default(),
        }
    }

    /// A pool pre-warmed with `n` free buffers, so the first `n` checkouts
    /// hit without allocating on the hot path.
    #[must_use]
    pub fn with_capacity(track_bytes: usize, n: usize) -> Self {
        let mut pool = TrackPool::new(track_bytes);
        pool.free
            .extend((0..n).map(|_| vec![0u8; track_bytes].into_boxed_slice()));
        pool
    }

    /// The fixed buffer size this pool serves.
    #[must_use]
    pub fn track_bytes(&self) -> usize {
        self.track_bytes
    }

    /// Number of buffers currently on the free list.
    #[must_use]
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// Check a buffer out, reusing a free one when available. Contents are
    /// unspecified.
    #[must_use]
    pub fn check_out(&mut self) -> Box<[u8]> {
        self.stats.outstanding += 1;
        if let Some(buf) = self.free.pop() {
            self.stats.hits += 1;
            buf
        } else {
            self.stats.misses += 1;
            // lint:allow(hot-path-alloc): a pool miss grows the pool once; steady state recycles returned tracks
            vec![0u8; self.track_bytes].into_boxed_slice()
        }
    }

    /// Check a buffer out wrapped as a [`Block`] with every byte zeroed
    /// (the XOR identity), ready for parity accumulation.
    #[must_use]
    pub fn check_out_zeroed_block(&mut self) -> Block {
        let mut buf = self.check_out();
        buf.fill(0);
        Block::from_boxed_bytes(buf)
    }

    /// Return a buffer to the free list.
    ///
    /// # Panics
    /// Panics if `buf` is not [`track_bytes`](TrackPool::track_bytes) long
    /// — pools are homogeneous by construction, so a mismatch is a layout
    /// bug.
    pub fn check_in(&mut self, buf: Box<[u8]>) {
        assert_eq!(
            buf.len(),
            self.track_bytes,
            "pool buffers must be the same size"
        );
        self.stats.outstanding = self.stats.outstanding.saturating_sub(1);
        self.free.push(buf);
    }

    /// Return a [`Block`] previously checked out via
    /// [`check_out_zeroed_block`](TrackPool::check_out_zeroed_block).
    pub fn check_in_block(&mut self, block: Block) {
        self.check_in(block.into_boxed_bytes());
    }

    /// Current counters (hits, misses, outstanding).
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_checkout_misses_then_hits() {
        let mut pool = TrackPool::new(64);
        let a = pool.check_out();
        assert_eq!(
            pool.stats(),
            PoolStats {
                hits: 0,
                misses: 1,
                outstanding: 1
            }
        );
        pool.check_in(a);
        let b = pool.check_out();
        assert_eq!(b.len(), 64);
        assert_eq!(
            pool.stats(),
            PoolStats {
                hits: 1,
                misses: 1,
                outstanding: 1
            }
        );
    }

    #[test]
    fn prewarmed_pool_never_misses_within_capacity() {
        let mut pool = TrackPool::with_capacity(32, 3);
        let bufs: Vec<_> = (0..3).map(|_| pool.check_out()).collect();
        assert_eq!(pool.stats().misses, 0);
        assert_eq!(pool.stats().hits, 3);
        assert_eq!(pool.stats().outstanding, 3);
        for b in bufs {
            pool.check_in(b);
        }
        assert_eq!(pool.stats().outstanding, 0);
        assert_eq!(pool.free_len(), 3);
    }

    #[test]
    fn zeroed_block_checkout_scrubs_recycled_bytes() {
        let mut pool = TrackPool::new(16);
        let mut buf = pool.check_out();
        buf.fill(0xFF);
        pool.check_in(buf);
        let block = pool.check_out_zeroed_block();
        assert!(block.is_zero());
        pool.check_in_block(block);
    }

    #[test]
    #[should_panic(expected = "same size")]
    fn wrong_size_check_in_panics() {
        let mut pool = TrackPool::new(8);
        pool.check_in(vec![0u8; 9].into_boxed_slice());
    }

    #[test]
    fn hit_rate_tracks_reuse() {
        let mut pool = TrackPool::new(8);
        assert_eq!(pool.stats().hit_rate(), 1.0);
        let a = pool.check_out();
        assert_eq!(pool.stats().hit_rate(), 0.0);
        pool.check_in(a);
        let b = pool.check_out();
        pool.check_in(b);
        assert_eq!(pool.stats().hit_rate(), 0.5);
    }
}
