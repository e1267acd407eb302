//! Track-sized byte buffers with XOR support.
//!
//! The XOR kernel operates on `u64` lanes (eight bytes at a time) with a
//! safe byte-at-a-time fallback for the unaligned tail, so track-sized
//! operations run at memory bandwidth without any `unsafe`. The
//! [`fingerprint`](Block::fingerprint) XOR-fold gives a 64-bit summary
//! that is *linear* under XOR — `fp(a ⊕ b) = fp(a) ⊕ fp(b)` — which the
//! verification layer exploits to check parity groups incrementally
//! without materializing or re-scanning whole blocks.

use std::fmt;
use std::hint::black_box;

/// Bytes per XOR lane.
const WORD: usize = 8;

/// XOR `src` into `dst` in place, eight bytes per step.
///
/// # Panics
/// Panics if the lengths differ — parity groups are homogeneous by
/// construction, so a mismatch is a layout bug.
pub fn xor_slices(dst: &mut [u8], src: &[u8]) {
    assert_eq!(
        dst.len(),
        src.len(),
        "parity group members must be the same size"
    );
    let mut d = dst.chunks_exact_mut(WORD);
    let mut s = src.chunks_exact(WORD);
    for (a, b) in d.by_ref().zip(s.by_ref()) {
        let w = u64::from_ne_bytes(a.try_into().expect("exact chunk"))
            ^ u64::from_ne_bytes(b.try_into().expect("exact chunk"));
        a.copy_from_slice(&w.to_ne_bytes());
    }
    for (a, b) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *a ^= *b;
    }
}

/// Whether every byte of `bytes` is zero, checked eight bytes per step.
#[must_use]
pub fn slice_is_zero(bytes: &[u8]) -> bool {
    let chunks = bytes.chunks_exact(WORD);
    let tail = chunks.remainder();
    chunks
        .map(|c| u64::from_ne_bytes(c.try_into().expect("exact chunk")))
        .fold(0u64, |acc, w| acc | w)
        == 0
        && tail.iter().all(|&b| b == 0)
}

/// The 64-bit XOR-fold of `bytes`: the XOR of all little-endian `u64`
/// lanes, with the tail zero-extended into a final lane.
///
/// Properties relied on by callers:
/// * equal contents ⇒ equal fingerprints (it is a pure function);
/// * **linearity**: `fingerprint(a ⊕ b) = fingerprint(a) ⊕
///   fingerprint(b)` for equal-length inputs, so a parity block's
///   fingerprint is the XOR of its members' fingerprints;
/// * differing contents collide only when their difference XOR-folds to
///   zero — vanishingly unlikely for the pseudo-random synthetic tracks,
///   but *possible*, so a matching fingerprint is a fast filter, not a
///   proof (callers needing certainty must fall back to a byte compare).
#[must_use]
pub fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    let chunks = bytes.chunks_exact(WORD);
    let tail = chunks.remainder();
    let mut acc = chunks
        .map(|c| u64::from_le_bytes(c.try_into().expect("exact chunk")))
        .fold(0u64, |acc, w| acc ^ w);
    if !tail.is_empty() {
        let mut last = [0u8; WORD];
        last[..tail.len()].copy_from_slice(tail);
        acc ^= u64::from_le_bytes(last);
    }
    acc
}

/// The splitmix64 word stream that defines the contents of synthetic
/// block `(object, track)`: word `i` of the stream is bytes `8i..8i+8`
/// of the block, little-endian. This is the only definition of the
/// seed, step and mix; every synthetic kernel below draws from it.
///
/// Each word leaves through [`black_box`] to keep the kernels' loops
/// scalar: baseline x86-64 has no 64-bit SIMD multiply, and the
/// three-`pmuludq` emulation the auto-vectoriser otherwise picks ran at
/// 5.3 GB/s against 7 GB/s for two scalar `imul`s per word. For a `u64`
/// the barrier is an empty register-constrained `asm`; it costs nothing.
struct SyntheticWords {
    state: u64,
}

impl SyntheticWords {
    fn new(object: u64, track: u64) -> Self {
        SyntheticWords {
            state: object
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(track)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .wrapping_add(0x94D0_49BB_1331_11EB),
        }
    }

    #[inline(always)]
    fn next_word(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        black_box(z ^ (z >> 31))
    }
}

/// Keeps the low `len` bytes of a partial final lane (`0 < len < 8`).
fn tail_mask(len: usize) -> u64 {
    (1u64 << (len * 8)) - 1
}

/// One pass of the synthetic stream of `(object, track)` over `out`:
/// every lane becomes `store(old lane, generated word)`, and the
/// [`fingerprint_bytes`] fold of what was stored is returned. A partial
/// final lane is widened to a zero-extended word, stored through the
/// same closure and narrowed back, so it folds exactly as
/// `fingerprint_bytes` folds a tail.
#[inline(always)]
fn synthetic_pass(object: u64, track: u64, out: &mut [u8], store: impl Fn(u64, u64) -> u64) -> u64 {
    let mut words = SyntheticWords::new(object, track);
    let mut fold = 0u64;
    let mut lanes = out.chunks_exact_mut(WORD);
    for lane in lanes.by_ref() {
        let lane: &mut [u8; WORD] = lane.try_into().expect("exact chunk");
        let stored = store(u64::from_le_bytes(*lane), words.next_word());
        *lane = stored.to_le_bytes();
        fold ^= stored;
    }
    let tail = lanes.into_remainder();
    if !tail.is_empty() {
        let mut last = [0u8; WORD];
        last[..tail.len()].copy_from_slice(tail);
        let word = words.next_word() & tail_mask(tail.len());
        let stored = store(u64::from_le_bytes(last), word);
        tail.copy_from_slice(&stored.to_le_bytes()[..tail.len()]);
        fold ^= stored;
    }
    fold
}

/// Fill `out` with the deterministic pseudo-random contents of block
/// `(object, track)` — the same splitmix64 stream as
/// [`Block::synthetic`], but writing into caller-owned storage so hot
/// paths can regenerate ground-truth bytes without allocating.
pub fn fill_synthetic(object: u64, track: u64, out: &mut [u8]) {
    let _ = fill_synthetic_folded(object, track, out);
}

/// [`fill_synthetic`] that also returns the [`fingerprint_bytes`] fold
/// of the bytes it wrote, folded from the generated words on their way
/// to memory — equal to [`synthetic_fingerprint`] of the same block, at
/// no extra pass. Comparing it with `fingerprint_bytes(out)` afterwards
/// checks what the buffer holds against what the generator produced.
#[must_use]
pub fn fill_synthetic_folded(object: u64, track: u64, out: &mut [u8]) -> u64 {
    synthetic_pass(object, track, out, |_, word| word)
}

/// XOR the deterministic contents of block `(object, track)` into `out`
/// without materializing them: each splitmix64 word is XOR-ed into the
/// destination lane as it is generated. `xor_synthetic(o, t, buf)` is
/// equivalent to filling a scratch buffer via [`fill_synthetic`] and
/// XOR-ing it in, minus the scratch buffer.
pub fn xor_synthetic(object: u64, track: u64, out: &mut [u8]) {
    synthetic_pass(object, track, out, |old, word| old ^ word);
}

/// The [`fingerprint_bytes`] XOR-fold of the synthetic block
/// `(object, track)` of `len` bytes, computed directly from the
/// splitmix64 stream without materializing the block — equal to
/// `Block::synthetic(object, track, len).fingerprint()`.
#[must_use]
pub fn synthetic_fingerprint(object: u64, track: u64, len: usize) -> u64 {
    let mut words = SyntheticWords::new(object, track);
    let mut fold = (0..len / WORD).fold(0u64, |fold, _| fold ^ words.next_word());
    let tail = len % WORD;
    if tail > 0 {
        fold ^= words.next_word() & tail_mask(tail);
    }
    fold
}

/// A track-sized block of data — the paper's unit of disk I/O.
///
/// Blocks substitute for real MPEG track contents: the schemes never
/// interpret the bytes, they only move and XOR them, so deterministic
/// synthetic contents (see [`Block::synthetic`]) exercise exactly the same
/// code paths as video data would.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Block {
    bytes: Box<[u8]>,
}

impl Block {
    /// An all-zero block of `len` bytes (the XOR identity).
    #[must_use]
    pub fn zeroed(len: usize) -> Self {
        Block {
            // lint:allow(hot-path-alloc): zeroed IS the allocation point; hot callers reach it only to size a mismatched buffer
            bytes: vec![0u8; len].into_boxed_slice(),
        }
    }

    /// A block with deterministic pseudo-random contents derived from an
    /// `(object, track)` pair via a splitmix64-style stream, so any two
    /// distinct addresses produce (overwhelmingly) different contents and
    /// the same address always produces the same bytes.
    #[must_use]
    pub fn synthetic(object: u64, track: u64, len: usize) -> Self {
        let mut bytes = vec![0u8; len].into_boxed_slice();
        fill_synthetic(object, track, &mut bytes);
        Block { bytes }
    }

    /// Wrap existing bytes.
    #[must_use]
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Block {
            bytes: bytes.into_boxed_slice(),
        }
    }

    /// Wrap an existing boxed buffer without copying (the inverse of
    /// [`Block::into_boxed_bytes`]; used with [`TrackPool`](crate::TrackPool)
    /// buffers).
    #[must_use]
    pub fn from_boxed_bytes(bytes: Box<[u8]>) -> Self {
        Block { bytes }
    }

    /// Unwrap into the underlying buffer without copying, e.g. to check a
    /// scratch block back into a [`TrackPool`](crate::TrackPool).
    #[must_use]
    pub fn into_boxed_bytes(self) -> Box<[u8]> {
        self.bytes
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the block has zero length.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The raw bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable access to the raw bytes, for callers that refill a
    /// reused block in place (e.g. via [`fill_synthetic`]).
    #[must_use]
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Reset every byte to zero (the XOR identity), keeping the storage.
    pub fn zero(&mut self) {
        self.bytes.fill(0);
    }

    /// XOR `other` into `self` in place, word-wise.
    ///
    /// # Panics
    /// Panics if the lengths differ — parity groups are homogeneous by
    /// construction (every member is one track), so a mismatch is a layout
    /// bug, not a runtime condition.
    pub fn xor_assign(&mut self, other: &Block) {
        xor_slices(&mut self.bytes, &other.bytes);
    }

    /// Whether every byte is zero (true for `a ⊕ a`), checked word-wise.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        slice_is_zero(&self.bytes)
    }

    /// The block's 64-bit XOR-fold (see [`fingerprint_bytes`] for the
    /// guarantees). Equality of track-sized blocks can short-circuit on
    /// this summary: unequal fingerprints prove inequality without a
    /// full byte scan, and the fold is linear under XOR, so parity
    /// fingerprints compose from member fingerprints.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fingerprint_bytes(&self.bytes)
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let head: Vec<u8> = self.bytes.iter().copied().take(8).collect();
        write!(f, "Block({} bytes, head={head:02x?})", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_is_deterministic_and_distinct() {
        let a1 = Block::synthetic(1, 2, 64);
        let a2 = Block::synthetic(1, 2, 64);
        let b = Block::synthetic(1, 3, 64);
        let c = Block::synthetic(2, 2, 64);
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_ne!(a1, c);
        assert_ne!(b, c);
    }

    #[test]
    fn fill_synthetic_matches_synthetic() {
        for len in [0usize, 1, 7, 8, 9, 13, 64, 1000] {
            let block = Block::synthetic(7, 11, len);
            let mut buf = vec![0xAAu8; len];
            fill_synthetic(7, 11, &mut buf);
            assert_eq!(block.as_bytes(), &buf[..], "len {len}");
        }
    }

    #[test]
    fn xor_self_is_zero() {
        let a = Block::synthetic(9, 9, 100);
        let mut x = a.clone();
        x.xor_assign(&a);
        assert!(x.is_zero());
    }

    #[test]
    fn xor_zero_is_identity() {
        let a = Block::synthetic(3, 4, 50);
        let mut x = a.clone();
        x.xor_assign(&Block::zeroed(50));
        assert_eq!(x, a);
    }

    #[test]
    fn xor_is_commutative_and_associative() {
        let a = Block::synthetic(1, 0, 33);
        let b = Block::synthetic(1, 1, 33);
        let c = Block::synthetic(1, 2, 33);
        let mut ab_c = a.clone();
        ab_c.xor_assign(&b);
        ab_c.xor_assign(&c);
        let mut cb_a = c.clone();
        cb_a.xor_assign(&b);
        cb_a.xor_assign(&a);
        assert_eq!(ab_c, cb_a);
    }

    #[test]
    fn wordwise_xor_matches_scalar_reference() {
        // Every tail length against a byte-at-a-time reference.
        for len in 0..=40usize {
            let a = Block::synthetic(5, 1, len);
            let b = Block::synthetic(5, 2, len);
            let mut fast = a.clone();
            fast.xor_assign(&b);
            let reference: Vec<u8> = a
                .as_bytes()
                .iter()
                .zip(b.as_bytes())
                .map(|(x, y)| x ^ y)
                .collect();
            assert_eq!(fast.as_bytes(), &reference[..], "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "same size")]
    fn mismatched_lengths_panic() {
        let mut a = Block::zeroed(4);
        a.xor_assign(&Block::zeroed(5));
    }

    #[test]
    fn non_multiple_of_eight_lengths_work() {
        let a = Block::synthetic(5, 6, 13);
        assert_eq!(a.len(), 13);
        let mut x = a.clone();
        x.xor_assign(&a);
        assert!(x.is_zero());
    }

    #[test]
    fn is_zero_catches_every_byte_position() {
        for len in 1..=24usize {
            for hot in 0..len {
                let mut b = Block::zeroed(len);
                assert!(b.is_zero());
                b.as_bytes_mut()[hot] = 1;
                assert!(!b.is_zero(), "len {len} hot byte {hot}");
            }
        }
    }

    #[test]
    fn fingerprint_is_linear_under_xor() {
        for len in [8usize, 13, 64, 100] {
            let a = Block::synthetic(1, 7, len);
            let b = Block::synthetic(2, 9, len);
            let mut x = a.clone();
            x.xor_assign(&b);
            assert_eq!(x.fingerprint(), a.fingerprint() ^ b.fingerprint());
        }
        assert_eq!(Block::zeroed(40).fingerprint(), 0);
    }

    #[test]
    fn fingerprint_distinguishes_typical_blocks() {
        let fps: Vec<u64> = (0..64u64)
            .map(|t| Block::synthetic(3, t, 200).fingerprint())
            .collect();
        let mut sorted = fps.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), fps.len(), "fingerprint collision");
    }

    #[test]
    fn synthetic_fingerprint_matches_materialized() {
        for len in [0usize, 1, 7, 8, 9, 13, 64, 1000] {
            assert_eq!(
                synthetic_fingerprint(3, 17, len),
                Block::synthetic(3, 17, len).fingerprint(),
                "len {len}"
            );
        }
    }

    #[test]
    fn xor_synthetic_matches_fill_then_xor() {
        for len in [0usize, 1, 7, 8, 9, 29, 64] {
            let mut fused = vec![0x5Cu8; len];
            xor_synthetic(6, 10, &mut fused);
            let mut reference = vec![0x5Cu8; len];
            let mut scratch = vec![0u8; len];
            fill_synthetic(6, 10, &mut scratch);
            xor_slices(&mut reference, &scratch);
            assert_eq!(fused, reference, "len {len}");
        }
    }

    #[test]
    fn boxed_round_trip_preserves_bytes() {
        let a = Block::synthetic(4, 4, 37);
        let raw = a.clone().into_boxed_bytes();
        assert_eq!(Block::from_boxed_bytes(raw), a);
    }

    #[test]
    fn zero_resets_in_place() {
        let mut a = Block::synthetic(8, 8, 24);
        a.zero();
        assert!(a.is_zero());
        assert_eq!(a.len(), 24);
    }

    #[test]
    fn debug_shows_length() {
        let a = Block::zeroed(16);
        assert!(format!("{a:?}").contains("16 bytes"));
    }
}
