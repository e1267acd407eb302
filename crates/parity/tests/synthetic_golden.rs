//! Frozen bytes and folds of the synthetic-block generator, captured
//! before the generator's loops were rewritten: any change to the seed,
//! step, mix, lane order or tail handling moves these.

use mms_parity::{fill_synthetic, synthetic_fingerprint, Block};

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
