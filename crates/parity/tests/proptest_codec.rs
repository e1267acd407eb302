//! Property-based tests for the XOR parity codec: for *any* group size,
//! block length, contents, and erasure position, reconstruction is exact.

use mms_parity::{codec, Block};
use proptest::prelude::*;

fn arb_group() -> impl Strategy<Value = (Vec<Vec<u8>>, usize)> {
    // Group of 1..=16 data blocks, each 1..=512 bytes (homogeneous length),
    // plus an erasure index into the group.
    (1usize..=16, 1usize..=512).prop_flat_map(|(c, len)| {
        (
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), len), c),
            0..c,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// reconstruct(encode(group)) recovers any single erased member.
    #[test]
    fn reconstruct_recovers_any_erasure((raw, missing) in arb_group()) {
        let group: Vec<Block> = raw.into_iter().map(Block::from_bytes).collect();
        let parity = codec::parity_of(group.iter());
        let rebuilt = codec::reconstruct(missing, &group, &parity).unwrap();
        prop_assert_eq!(rebuilt, group[missing].clone());
    }

    /// A freshly encoded group always verifies.
    #[test]
    fn encoded_group_verifies((raw, _missing) in arb_group()) {
        let group: Vec<Block> = raw.into_iter().map(Block::from_bytes).collect();
        let parity = codec::parity_of(group.iter());
        prop_assert!(codec::verify(&group, &parity).is_ok());
    }

    /// Flipping any single bit of the parity breaks verification.
    #[test]
    fn corruption_is_detected((raw, _m) in arb_group(), bit in 0usize..64) {
        let group: Vec<Block> = raw.into_iter().map(Block::from_bytes).collect();
        let parity = codec::parity_of(group.iter());
        let mut bytes = parity.as_bytes().to_vec();
        let idx = (bit / 8) % bytes.len();
        bytes[idx] ^= 1 << (bit % 8);
        let corrupted = Block::from_bytes(bytes);
        prop_assert_eq!(
            codec::verify(&group, &corrupted),
            Err(mms_parity::ParityError::Inconsistent)
        );
    }
}

proptest! {
    /// The incremental parity update agrees with a full re-encode for any
    /// group, member, and replacement contents.
    #[test]
    fn update_parity_equals_reencode((raw, target) in arb_group(), replacement in proptest::collection::vec(any::<u8>(), 1..512)) {
        let mut group: Vec<Block> = raw.into_iter().map(Block::from_bytes).collect();
        let len = group[0].len();
        let mut replacement = replacement;
        replacement.resize(len, 0);
        let new_block = Block::from_bytes(replacement);

        let mut parity = codec::parity_of(group.iter());
        codec::update_parity(&mut parity, &group[target], &new_block);
        group[target] = new_block;
        prop_assert_eq!(parity, codec::parity_of(group.iter()));
    }
}
