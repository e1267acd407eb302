//! The synthetic-block generator: frozen bytes and folds, captured
//! before the generator's loops were rewritten (any change to the seed,
//! step, mix, lane order or tail handling moves these), and agreement
//! of every kernel that draws from the stream.

use mms_parity::{
    fill_synthetic, fill_synthetic_folded, fingerprint_bytes, synthetic_fingerprint, xor_synthetic,
    Block,
};
use proptest::prelude::*;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `(object, track, len, bytes, fold)`.
const GOLDEN: [(u64, u64, usize, &str, u64); 3] = [
    (7, 11, 0, "", 0),
    (
        7,
        11,
        13,
        "66cc794878178f420c328bd23e",
        0x428f_1746_9af2_fe6a,
    ),
    (
        7,
        11,
        64,
        "66cc794878178f420c328bd23ea979354b430ad2dfe03b81e8a461247c71f407\
         e2472cecfcd35e4dec3f734bf79a1503cc7e15b47c327f4141d61685a2bdc12a",
        0xd4cc_e930_fac5_c94a,
    ),
];

#[test]
fn synthetic_blocks_keep_their_bytes_and_folds() {
    for (object, track, len, bytes, fold) in GOLDEN {
        let block = Block::synthetic(object, track, len);
        assert_eq!(
            hex(block.as_bytes()),
            bytes,
            "bytes of ({object}, {track}, {len})"
        );
        assert_eq!(
            block.fingerprint(),
            fold,
            "fold of ({object}, {track}, {len})"
        );
        assert_eq!(synthetic_fingerprint(object, track, len), fold);
        let mut filled = vec![0x5Au8; len];
        fill_synthetic(object, track, &mut filled);
        assert_eq!(hex(&filled), bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Fill, XOR into zeros, fold-only, fused fill-and-fold and the
    /// allocating constructor agree on bytes and fold, for every tail
    /// length and for a real 50 KB track.
    #[test]
    fn every_synthetic_kernel_agrees(
        object in any::<u64>(),
        track in any::<u64>(),
        len in prop_oneof![0usize..=300, Just(50_000usize)],
    ) {
        let block = Block::synthetic(object, track, len);
        let fold = block.fingerprint();

        let mut filled = vec![0xA5u8; len];
        fill_synthetic(object, track, &mut filled);
        prop_assert_eq!(&filled[..], block.as_bytes());

        let mut xored = vec![0u8; len];
        xor_synthetic(object, track, &mut xored);
        prop_assert_eq!(&xored[..], block.as_bytes());

        let mut fused = vec![0x3Cu8; len];
        prop_assert_eq!(fill_synthetic_folded(object, track, &mut fused), fold);
        prop_assert_eq!(&fused[..], block.as_bytes());

        prop_assert_eq!(synthetic_fingerprint(object, track, len), fold);
        prop_assert_eq!(fingerprint_bytes(block.as_bytes()), fold);
    }
}
