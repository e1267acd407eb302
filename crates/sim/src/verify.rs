//! Ground-truth block contents for end-to-end data verification.

use mms_layout::{BlockAddr, BlockKind, ObjectId};
use mms_parity::{codec, fingerprint_bytes, xor_slices, Block, PoolStats, TrackPool};
use std::collections::BTreeMap;

// Every byte the oracle generates comes from these four kernels; the
// unit tests swap in wrappers that count passes.
#[cfg(test)]
use counted::{fill_synthetic, fill_synthetic_folded, synthetic_fingerprint, xor_synthetic};
#[cfg(not(test))]
use mms_parity::{fill_synthetic, fill_synthetic_folded, synthetic_fingerprint, xor_synthetic};

/// Capacity of the memoized parity-fingerprint cache. Streams revisit a
/// small working set of `(object, group)` pairs per cycle, so a modest
/// bound keeps the cache hot without growing with object count.
const FP_CACHE_CAP: usize = 128;

/// Scratch buffers one delivery holds at once: a reconstruction keeps
/// the survivors' XOR, the original and the parity track side by side.
const SCRATCH_TRACKS: usize = 3;

/// The one way a delivery fails verification.
const MISMATCH: &str = "delivered bytes must match stored";

/// The check every data delivery ends with: the XOR-fold is a cheap
/// filter that catches almost any mismatch, and equal folds still get a
/// full byte compare (the fold is a filter, not a proof).
///
/// # Panics
/// Panics with [`MISMATCH`] unless `delivered` is byte-identical to
/// `stored`, whose fold is `stored_fold`.
fn assert_delivered(delivered: &[u8], stored: &[u8], stored_fold: u64) {
    assert!(
        fingerprint_bytes(delivered) == stored_fold && delivered == stored,
        "{MISMATCH}"
    );
}

/// Rebuild a missing block the degraded-mode way — XOR the parity track
/// into the survivors' running XOR, in place — and check the result
/// against the stored original.
///
/// # Panics
/// As [`assert_delivered`].
fn rebuild_and_check(survivors: &mut [u8], parity: &[u8], original: &[u8], original_fold: u64) {
    xor_slices(survivors, parity);
    assert_delivered(survivors, original, original_fold);
}

/// A tiny LRU map from `(object, group)` to the group's parity
/// fingerprint. Lookup is a linear scan (the capacity is small and the
/// entries are 24 bytes), with move-to-back on hit and front eviction
/// when full.
#[derive(Debug, Clone, Default)]
struct FingerprintLru {
    entries: Vec<((ObjectId, u64), u64)>,
}

impl FingerprintLru {
    fn get(&mut self, key: (ObjectId, u64)) -> Option<u64> {
        let ix = self.entries.iter().position(|(k, _)| *k == key)?;
        let entry = self.entries.remove(ix);
        let fp = entry.1;
        self.entries.push(entry);
        Some(fp)
    }

    fn insert(&mut self, key: (ObjectId, u64), fp: u64) {
        if self.entries.len() >= FP_CACHE_CAP {
            self.entries.remove(0);
        }
        self.entries.push((key, fp));
    }

    fn invalidate_object(&mut self, object: ObjectId) {
        self.entries.retain(|((o, _), _)| *o != object);
    }
}

/// Knows the synthetic contents of every block in the system, so the
/// simulator can verify that what the scheduler delivers — including
/// parity-reconstructed blocks — is byte-identical to what was stored.
///
/// Substitutes for MPEG data: the schemes treat content as opaque bytes,
/// so deterministic synthetic tracks exercise the identical code paths.
///
/// Two families of methods:
///
/// * the allocating reference methods ([`data_block`](Self::data_block),
///   [`parity_block`](Self::parity_block),
///   [`reconstruct_and_check`](Self::reconstruct_and_check)) build fresh
///   [`Block`]s per call — what the tests compare against, and the
///   "legacy" side of the `bench datapath` comparison;
/// * the streaming methods
///   ([`write_data_block_into`](Self::write_data_block_into),
///   [`parity_into`](Self::parity_into),
///   [`verify_delivery`](Self::verify_delivery)) work in scratch buffers
///   from an internal [`TrackPool`], sized at construction for the most
///   one delivery holds, and memoize per-`(object, group)` parity
///   fingerprints, so verified delivery never allocates.
///
/// `verify_delivery` follows one rule: **a delivery generates each
/// parity-group member's bytes once**. A plain block is one generator
/// pass; a reconstructed block of a `C−1`-member group is `C−1` passes
/// (the `C−2` survivors and the original), with the parity track and
/// the rebuilt block formed from those buffers by XOR.
#[derive(Debug)]
pub struct BlockOracle {
    /// Track length of every object, to bound partial final groups.
    tracks: BTreeMap<ObjectId, u64>,
    /// Data blocks per parity group (`C−1`).
    blocks_per_group: u32,
    /// Bytes per track in the synthetic universe.
    track_bytes: usize,
    /// Free list of track-sized scratch buffers for the streaming paths.
    pool: TrackPool,
    /// Memoized parity fingerprints per `(object, group)`.
    fp_cache: FingerprintLru,
}

impl Clone for BlockOracle {
    /// Clones the ground truth (object lengths and geometry). The scratch
    /// state — buffer pool and fingerprint cache — is per-instance and
    /// starts cold in the clone.
    fn clone(&self) -> Self {
        BlockOracle::new(self.tracks.clone(), self.blocks_per_group, self.track_bytes)
    }
}

impl BlockOracle {
    /// Build an oracle for the given object lengths.
    #[must_use]
    pub fn new(tracks: BTreeMap<ObjectId, u64>, blocks_per_group: u32, track_bytes: usize) -> Self {
        BlockOracle {
            tracks,
            blocks_per_group,
            track_bytes,
            pool: TrackPool::with_capacity(track_bytes, SCRATCH_TRACKS),
            fp_cache: FingerprintLru::default(),
        }
    }

    /// Number of data blocks in a group of an object (partial final
    /// groups are shorter).
    #[must_use]
    pub fn blocks_in_group(&self, object: ObjectId, group: u64) -> u32 {
        let total = self.tracks.get(&object).copied().unwrap_or(0);
        let bpg = u64::from(self.blocks_per_group);
        total.saturating_sub(group * bpg).min(bpg) as u32
    }

    /// The global track index of data block `(group, index)`.
    fn track_of(&self, group: u64, index: u32) -> u64 {
        group * u64::from(self.blocks_per_group) + u64::from(index)
    }

    /// The stored bytes of a data block.
    #[must_use]
    pub fn data_block(&self, object: ObjectId, group: u64, index: u32) -> Block {
        Block::synthetic(object.0, self.track_of(group, index), self.track_bytes)
    }

    /// Write the stored bytes of a data block into caller-owned storage,
    /// without allocating.
    ///
    /// # Panics
    /// Panics if `out` is not [`track_bytes`](Self::track_bytes) long.
    pub fn write_data_block_into(&self, object: ObjectId, group: u64, index: u32, out: &mut [u8]) {
        assert_eq!(
            out.len(),
            self.track_bytes,
            "output buffer must be one track"
        );
        fill_synthetic(object.0, self.track_of(group, index), out);
    }

    /// The stored bytes of a group's parity block (XOR over the actual —
    /// possibly partial — group membership).
    #[must_use]
    pub fn parity_block(&self, object: ObjectId, group: u64) -> Block {
        let blocks = self.blocks_in_group(object, group);
        let members: Vec<Block> = (0..blocks)
            .map(|i| self.data_block(object, group, i))
            .collect();
        codec::parity_of(members.iter())
    }

    /// Compute a group's parity block into a reused [`Block`], streaming
    /// each member's bytes through the XOR kernel without materializing
    /// any of them. `out` is resized only if its length differs from the
    /// track size; otherwise no allocation occurs.
    ///
    /// An empty group (unknown object or group past the end) yields an
    /// all-zero track — the streaming analogue of the crate-level
    /// empty-group contract, sized for buffer reuse.
    pub fn parity_into(&self, object: ObjectId, group: u64, out: &mut Block) {
        if out.len() != self.track_bytes {
            *out = Block::zeroed(self.track_bytes);
        } else {
            out.zero();
        }
        let blocks = self.blocks_in_group(object, group);
        for i in 0..blocks {
            xor_synthetic(object.0, self.track_of(group, i), out.as_bytes_mut());
        }
    }

    /// The fingerprint of a group's parity block, memoized in an LRU
    /// cache keyed by `(object, group)`. The XOR-fold is linear, so the
    /// parity fingerprint is computed as the XOR of the members'
    /// fingerprints — no track-sized buffer is ever touched.
    pub fn parity_fingerprint(&mut self, object: ObjectId, group: u64) -> u64 {
        if let Some(fp) = self.fp_cache.get((object, group)) {
            return fp;
        }
        let blocks = self.blocks_in_group(object, group);
        let fp = (0..blocks).fold(0u64, |acc, i| {
            acc ^ synthetic_fingerprint(object.0, self.track_of(group, i), self.track_bytes)
        });
        self.fp_cache.insert((object, group), fp);
        fp
    }

    /// The stored bytes of any block address.
    #[must_use]
    pub fn block(&self, addr: BlockAddr) -> Block {
        match addr.kind {
            BlockKind::Data(i) => self.data_block(addr.object, addr.group, i),
            BlockKind::Parity => self.parity_block(addr.object, addr.group),
        }
    }

    /// Reconstruct a data block the way a degraded-mode server would —
    /// XOR of the surviving group members and the parity block — and
    /// confirm it matches the stored original. Returns the rebuilt block.
    ///
    /// This is the allocating reference path; the simulator's hot loop
    /// uses [`verify_delivery`](Self::verify_delivery) instead.
    ///
    /// # Panics
    /// Panics if reconstruction does not round-trip: that would be a
    /// parity-coding bug, not a simulated failure condition.
    #[must_use]
    pub fn reconstruct_and_check(&self, object: ObjectId, group: u64, missing: u32) -> Block {
        let blocks = self.blocks_in_group(object, group);
        assert!(missing < blocks, "missing index out of group");
        let members: Vec<Block> = (0..blocks)
            .map(|i| self.data_block(object, group, i))
            .collect();
        let parity = codec::parity_of(members.iter());
        let rebuilt = codec::reconstruct(missing as usize, &members, &parity).expect("valid group");
        assert_eq!(
            rebuilt, members[missing as usize],
            "XOR reconstruction must be exact"
        );
        rebuilt
    }

    /// Verify one delivery against ground truth without allocating. The
    /// work mirrors what a real server's data path would do for that
    /// delivery, generating each group member's bytes once:
    ///
    /// * **Reconstructed data block** — XOR-generate the surviving
    ///   members into pooled scratch and generate the stored original
    ///   (keeping its fold); the stored parity track is survivors ⊕
    ///   original, so form it by XOR instead of regenerating the group.
    ///   Then rebuild the degraded-mode way, survivors ⊕ parity, and
    ///   compare with the original: the fold check short-circuits any
    ///   mismatch, and a full byte compare confirms equality.
    /// * **Plain data block** — generate the stored bytes once into
    ///   pooled scratch (modeling the delivery buffer), folding the words
    ///   as they are written, and check the fold read back from the
    ///   buffer against it.
    /// * **Parity block** — recompute the parity track and check its
    ///   fold against the memoized `(object, group)` value.
    ///
    /// # Panics
    /// Panics with "delivered block must exist" if `addr` names no stored
    /// block (unknown object, group past the end, index past a partial
    /// final group) — a scheduler bug. Panics with "delivered bytes must
    /// match stored" if verification fails — a parity-coding bug. Neither
    /// is a simulated failure condition.
    pub fn verify_delivery(&mut self, addr: BlockAddr, reconstructed: bool) {
        let BlockAddr {
            object,
            group,
            kind,
        } = addr;
        let blocks = self.blocks_in_group(object, group);
        let exists = match kind {
            BlockKind::Data(ix) => ix < blocks,
            BlockKind::Parity => blocks > 0,
        };
        assert!(exists, "delivered block must exist: {addr:?}");
        match kind {
            BlockKind::Data(ix) if reconstructed => {
                let mut survivors = self.pool.check_out_zeroed_block();
                for i in (0..blocks).filter(|&i| i != ix) {
                    xor_synthetic(object.0, self.track_of(group, i), survivors.as_bytes_mut());
                }
                let mut original = self.pool.check_out();
                let original_fold =
                    fill_synthetic_folded(object.0, self.track_of(group, ix), &mut original);
                // The parity track as stored (the buffer a real server
                // would have read it into): survivors ⊕ original.
                let mut parity = self.pool.check_out();
                parity.copy_from_slice(survivors.as_bytes());
                xor_slices(&mut parity, &original);
                rebuild_and_check(survivors.as_bytes_mut(), &parity, &original, original_fold);
                self.pool.check_in(parity);
                self.pool.check_in(original);
                self.pool.check_in_block(survivors);
            }
            BlockKind::Data(ix) => {
                let mut scratch = self.pool.check_out();
                let stored_fold =
                    fill_synthetic_folded(object.0, self.track_of(group, ix), &mut scratch);
                assert!(fingerprint_bytes(&scratch) == stored_fold, "{MISMATCH}");
                self.pool.check_in(scratch);
            }
            BlockKind::Parity => {
                let expected = self.parity_fingerprint(object, group);
                let mut scratch = self.pool.check_out_zeroed_block();
                self.parity_into(object, group, &mut scratch);
                assert!(scratch.fingerprint() == expected, "{MISMATCH}");
                self.pool.check_in_block(scratch);
            }
        }
    }

    /// Scratch-pool counters (hits, misses, outstanding), for the
    /// simulator's `pool.*` gauges.
    #[must_use]
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Bytes per track.
    #[must_use]
    pub fn track_bytes(&self) -> usize {
        self.track_bytes
    }

    /// Register a newly staged object's length (the load path).
    pub fn insert_object(&mut self, object: ObjectId, tracks: u64) {
        self.fp_cache.invalidate_object(object);
        self.tracks.insert(object, tracks);
    }

    /// Forget a purged object.
    pub fn remove_object(&mut self, object: ObjectId) {
        self.fp_cache.invalidate_object(object);
        self.tracks.remove(&object);
    }
}

/// The generator kernels behind a per-thread pass counter, so a test
/// can assert how many times a delivery ran the generator.
#[cfg(test)]
pub(crate) mod counted {
    use std::cell::Cell;

    thread_local! {
        static PASSES: Cell<u32> = const { Cell::new(0) };
    }

    /// Generator passes on this thread since the last call.
    pub fn take_passes() -> u32 {
        PASSES.with(Cell::take)
    }

    fn count() {
        PASSES.with(|p| p.set(p.get() + 1));
    }

    pub fn fill_synthetic(object: u64, track: u64, out: &mut [u8]) {
        count();
        mms_parity::fill_synthetic(object, track, out);
    }

    pub fn fill_synthetic_folded(object: u64, track: u64, out: &mut [u8]) -> u64 {
        count();
        mms_parity::fill_synthetic_folded(object, track, out)
    }

    pub fn xor_synthetic(object: u64, track: u64, out: &mut [u8]) {
        count();
        mms_parity::xor_synthetic(object, track, out);
    }

    pub fn synthetic_fingerprint(object: u64, track: u64, len: usize) -> u64 {
        count();
        mms_parity::synthetic_fingerprint(object, track, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle() -> BlockOracle {
        let mut tracks = BTreeMap::new();
        tracks.insert(ObjectId(1), 10); // 2 full groups + partial of 2
        BlockOracle::new(tracks, 4, 64)
    }

    #[test]
    fn partial_final_group() {
        let o = oracle();
        assert_eq!(o.blocks_in_group(ObjectId(1), 0), 4);
        assert_eq!(o.blocks_in_group(ObjectId(1), 1), 4);
        assert_eq!(o.blocks_in_group(ObjectId(1), 2), 2);
        assert_eq!(o.blocks_in_group(ObjectId(1), 3), 0);
        assert_eq!(o.blocks_in_group(ObjectId(9), 0), 0);
    }

    #[test]
    fn data_blocks_are_globally_distinct() {
        let o = oracle();
        let a = o.data_block(ObjectId(1), 0, 3);
        let b = o.data_block(ObjectId(1), 1, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn parity_verifies_for_partial_groups() {
        let o = oracle();
        for g in 0..3 {
            let blocks = o.blocks_in_group(ObjectId(1), g);
            for missing in 0..blocks {
                let rebuilt = o.reconstruct_and_check(ObjectId(1), g, missing);
                assert_eq!(rebuilt, o.data_block(ObjectId(1), g, missing));
            }
        }
    }

    #[test]
    fn block_resolves_both_kinds() {
        let o = oracle();
        let d = o.block(BlockAddr::data(ObjectId(1), 0, 1));
        assert_eq!(d, o.data_block(ObjectId(1), 0, 1));
        let p = o.block(BlockAddr::parity(ObjectId(1), 2));
        assert_eq!(p, o.parity_block(ObjectId(1), 2));
    }

    #[test]
    fn write_into_matches_data_block() {
        let o = oracle();
        let mut buf = vec![0u8; 64];
        o.write_data_block_into(ObjectId(1), 1, 2, &mut buf);
        assert_eq!(&buf[..], o.data_block(ObjectId(1), 1, 2).as_bytes());
    }

    #[test]
    #[should_panic(expected = "one track")]
    fn write_into_rejects_wrong_size() {
        let o = oracle();
        let mut buf = vec![0u8; 63];
        o.write_data_block_into(ObjectId(1), 0, 0, &mut buf);
    }

    #[test]
    fn parity_into_matches_parity_block() {
        let o = oracle();
        let mut out = Block::zeroed(0); // wrong size: must self-correct
        for g in 0..3 {
            o.parity_into(ObjectId(1), g, &mut out);
            assert_eq!(out, o.parity_block(ObjectId(1), g), "group {g}");
        }
        // Empty group → zero track (not a zero-length block).
        o.parity_into(ObjectId(1), 9, &mut out);
        assert_eq!(out.len(), 64);
        assert!(out.is_zero());
    }

    #[test]
    fn parity_fingerprint_is_memoized_and_correct() {
        let mut o = oracle();
        for g in 0..3 {
            let fp = o.parity_fingerprint(ObjectId(1), g);
            assert_eq!(fp, o.parity_block(ObjectId(1), g).fingerprint());
            // Second call hits the cache and agrees.
            assert_eq!(o.parity_fingerprint(ObjectId(1), g), fp);
        }
    }

    #[test]
    fn fingerprint_cache_invalidated_on_object_change() {
        let mut o = oracle();
        let before = o.parity_fingerprint(ObjectId(1), 2);
        // Re-stage the object with more tracks: group 2 becomes full.
        o.insert_object(ObjectId(1), 16);
        let after = o.parity_fingerprint(ObjectId(1), 2);
        assert_eq!(after, o.parity_block(ObjectId(1), 2).fingerprint());
        assert_ne!(before, after);
    }

    #[test]
    fn verify_delivery_accepts_all_kinds_without_allocating_after_warmup() {
        let mut o = oracle();
        for g in 0..3 {
            let blocks = o.blocks_in_group(ObjectId(1), g);
            for i in 0..blocks {
                o.verify_delivery(BlockAddr::data(ObjectId(1), g, i), false);
                o.verify_delivery(BlockAddr::data(ObjectId(1), g, i), true);
            }
            o.verify_delivery(BlockAddr::parity(ObjectId(1), g), false);
        }
        let stats = o.pool_stats();
        // The pool was sized at construction for the three buffers a
        // reconstruction holds at once, so even the first delivery hits.
        assert_eq!(stats.misses, 0, "{stats:?}");
        assert!(stats.hits > 0);
        assert_eq!(stats.outstanding, 0);
    }

    #[test]
    fn a_delivery_generates_each_group_member_once() {
        let mut o = oracle();
        counted::take_passes();
        o.verify_delivery(BlockAddr::data(ObjectId(1), 0, 2), false);
        assert_eq!(counted::take_passes(), 1, "plain block");
        for (group, members) in [(0, 4), (2, 2)] {
            o.verify_delivery(BlockAddr::data(ObjectId(1), group, 1), true);
            assert_eq!(counted::take_passes(), members, "group {group}");
        }
    }

    #[test]
    #[should_panic(expected = "delivered block must exist")]
    fn plain_delivery_past_a_partial_final_group_is_rejected() {
        oracle().verify_delivery(BlockAddr::data(ObjectId(1), 2, 2), false);
    }

    #[test]
    #[should_panic(expected = "delivered block must exist")]
    fn reconstructed_delivery_of_an_unknown_object_is_rejected() {
        oracle().verify_delivery(BlockAddr::data(ObjectId(9), 0, 0), true);
    }

    #[test]
    #[should_panic(expected = "delivered block must exist")]
    fn parity_delivery_of_a_group_past_the_end_is_rejected() {
        oracle().verify_delivery(BlockAddr::parity(ObjectId(1), 3), false);
    }

    /// The buffers of one reconstruction of a `len`-byte block, as
    /// `verify_delivery` holds them just before the rebuild: the
    /// survivors' XOR, the stored parity track, the original and its fold.
    fn reconstruction(len: usize) -> (Vec<u8>, Vec<u8>, Vec<u8>, u64) {
        let mut survivors = vec![0u8; len];
        for track in 1..4 {
            mms_parity::xor_synthetic(1, track, &mut survivors);
        }
        let mut original = vec![0u8; len];
        let fold = mms_parity::fill_synthetic_folded(1, 0, &mut original);
        let mut parity = survivors.clone();
        xor_slices(&mut parity, &original);
        (survivors, parity, original, fold)
    }

    #[test]
    fn an_intact_reconstruction_passes_the_check() {
        for len in [64, 61] {
            let (mut survivors, parity, original, fold) = reconstruction(len);
            rebuild_and_check(&mut survivors, &parity, &original, fold);
            assert_eq!(survivors, original);
        }
    }

    #[test]
    #[should_panic(expected = "delivered bytes must match stored")]
    fn a_flipped_byte_in_a_survivor_fails_the_check() {
        let (mut survivors, parity, original, fold) = reconstruction(64);
        survivors[17] ^= 0x01;
        rebuild_and_check(&mut survivors, &parity, &original, fold);
    }

    #[test]
    #[should_panic(expected = "delivered bytes must match stored")]
    fn a_flipped_byte_in_the_rebuilt_block_fails_the_check() {
        let (_, _, original, fold) = reconstruction(64);
        let mut rebuilt = original.clone();
        rebuilt[40] ^= 0x80;
        assert_delivered(&rebuilt, &original, fold);
    }

    #[test]
    #[should_panic(expected = "delivered bytes must match stored")]
    fn a_flipped_tail_byte_fails_the_check() {
        // 61 bytes: seven full lanes and a five-byte tail.
        let (mut survivors, parity, original, fold) = reconstruction(61);
        survivors[60] ^= 0x01;
        rebuild_and_check(&mut survivors, &parity, &original, fold);
    }

    #[test]
    #[should_panic(expected = "delivered bytes must match stored")]
    fn a_mismatch_the_fold_cannot_see_still_fails_the_byte_compare() {
        let (_, _, original, fold) = reconstruction(64);
        let mut rebuilt = original.clone();
        // The same mask in two lanes cancels in the XOR-fold.
        rebuilt[3] ^= 0x5A;
        rebuilt[8 + 3] ^= 0x5A;
        assert_eq!(fingerprint_bytes(&rebuilt), fold, "fold must not see it");
        assert_delivered(&rebuilt, &original, fold);
    }

    #[test]
    fn clone_copies_truth_but_not_scratch_state() {
        let mut o = oracle();
        o.verify_delivery(BlockAddr::data(ObjectId(1), 0, 0), true);
        let c = o.clone();
        assert_eq!(c.track_bytes(), o.track_bytes());
        assert_eq!(c.blocks_in_group(ObjectId(1), 2), 2);
        assert_eq!(c.pool_stats(), PoolStats::default());
    }

    #[test]
    fn lru_evicts_oldest_beyond_capacity() {
        let mut lru = FingerprintLru::default();
        for g in 0..(FP_CACHE_CAP as u64 + 10) {
            lru.insert((ObjectId(7), g), g);
        }
        assert_eq!(lru.entries.len(), FP_CACHE_CAP);
        assert!(lru.get((ObjectId(7), 0)).is_none());
        assert_eq!(lru.get((ObjectId(7), 50)), Some(50));
    }
}
