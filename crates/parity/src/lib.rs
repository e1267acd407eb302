//! # mms-parity — XOR parity coding substrate
//!
//! The fault-tolerance schemes of *Berson, Golubchik & Muntz (SIGMOD 1995)*
//! all rest on one primitive: a **parity group** of `C−1` data blocks plus
//! one parity block that is their bitwise exclusive-OR
//! (`X0p = X0 ⊕ X1 ⊕ X2 ⊕ X3` in the paper's Figure 3). Any single missing
//! block can be reconstructed on the fly by XOR-ing the survivors.
//!
//! This crate implements that primitive over real byte buffers:
//!
//! * [`Block`] — a track-sized byte buffer with word-wise XOR operations,
//!   a 64-bit [`fingerprint`](Block::fingerprint) XOR-fold, and a
//!   deterministic synthetic-content generator (substituting for MPEG data,
//!   whose bytes are opaque to the schemes).
//! * [`codec`] — group-level encode / single-erasure reconstruct / verify.
//! * [`TrackPool`] — a free list of track-sized buffers checked out and
//!   back in per cycle, so degraded-mode scratch space is recycled instead
//!   of reallocated.
//!
//! Observation 2 of the paper hinges on the XOR being fast enough to
//! reconstruct in real time; `bench datapath` (the `mms-bench` crate)
//! measures the XOR kernel's throughput to substantiate that. The XOR kernel operates on `u64`
//! lanes (with a safe byte fallback for unaligned tails), so track-sized
//! blocks move at memory bandwidth without any `unsafe`.
//!
//! ## The empty-group contract
//!
//! [`codec::parity_of`] over an **empty iterator** yields a
//! **zero-length block**: the XOR identity of a group with no members has
//! no defined track size, so the empty [`Block`] stands in for it. A
//! zero-length block XORs only with another zero-length block (any other
//! pairing trips the layout-invariant panic, "parity group members must
//! be the same size"), is [`is_zero`](Block::is_zero), and fingerprints
//! to `0`. Group-level operations that *require* members
//! ([`codec::reconstruct`], [`codec::verify`]) instead report
//! [`ParityError::EmptyGroup`] rather than silently treating the empty
//! group as consistent.
//!
//! ```
//! use mms_parity::{codec, Block};
//!
//! let group: Vec<Block> = (0..4).map(|i| Block::synthetic(7, i, 512)).collect();
//! let parity = codec::parity_of(group.iter());
//! // Lose block 2, rebuild it from the rest.
//! let rebuilt = codec::reconstruct(2, &group, &parity).unwrap();
//! assert_eq!(rebuilt, group[2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
pub mod codec;
mod pool;

pub use block::{
    fill_synthetic, fill_synthetic_folded, fingerprint_bytes, slice_is_zero, synthetic_fingerprint,
    xor_slices, xor_synthetic, Block,
};
pub use codec::ParityError;
pub use pool::{PoolStats, TrackPool};
