//! Property test for the stream table's buffer counters: conservation,
//! high-water monotonicity and refused frees under arbitrary
//! alloc / free / retire sequences.
//!
//! The table keeps two totals (`buffer_in_use`, `buffer_high_water`)
//! beside each stream's own charge (`held`). The test keeps the same
//! tally per stream, the way the model of a caller does, and checks all
//! three after every operation.

use mms_layout::ObjectId;
use mms_sched::table::{Placement, StreamTable, Underflow};
use proptest::prelude::*;

/// Streams the operations pick among.
const STREAMS: usize = 8;

#[derive(Debug, Clone)]
enum Op {
    Alloc(u8, u8),
    Free(u8, u8),
    Retire(u8),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let stream = || any::<u8>().prop_map(|s| s % STREAMS as u8);
    proptest::collection::vec(
        prop_oneof![
            (stream(), any::<u8>()).prop_map(|(s, n)| Op::Alloc(s, n % 32)),
            (stream(), any::<u8>()).prop_map(|(s, n)| Op::Free(s, n % 32)),
            stream().prop_map(Op::Retire),
        ],
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `buffer_in_use` is always the sum of what the streams hold,
    /// `buffer_high_water` is its running maximum, and a refused free
    /// changes nothing.
    #[test]
    fn the_counters_match_the_per_stream_tally(ops in arb_ops()) {
        let mut table: StreamTable<()> = StreamTable::new(1);
        let placement = Placement { object: ObjectId(0), start_cluster: 0, groups: 1, tracks: 1 };
        let ids: Vec<_> = (0..STREAMS).map(|_| table.admit(placement, 0, ())).collect();
        table.begin_cycle(0);
        // What each stream holds; `None` once it is retired.
        let mut held: Vec<Option<usize>> = vec![Some(0); STREAMS];
        let mut peak = 0;
        for op in ops {
            match op {
                // Passes only charge live streams.
                Op::Alloc(s, n) => {
                    if let Some(h) = &mut held[s as usize] {
                        table.alloc(s as usize, n as usize);
                        *h += n as usize;
                    }
                }
                Op::Free(s, n) => {
                    let (ix, n) = (s as usize, n as usize);
                    let holds = held[ix].unwrap_or(0);
                    let before = (table.buffer_in_use(), table.buffer_high_water());
                    match table.free(ix, n) {
                        Ok(()) => {
                            prop_assert!(n <= holds);
                            if let Some(h) = &mut held[ix] {
                                *h -= n;
                            }
                        }
                        Err(refused) => {
                            let expected = Underflow { stream: ids[ix], held: holds, freeing: n };
                            prop_assert_eq!(refused, expected);
                            prop_assert_eq!(table.slot(ix).held(), holds);
                            prop_assert_eq!((table.buffer_in_use(), table.buffer_high_water()), before);
                        }
                    }
                }
                Op::Retire(s) => {
                    table.retire(s as usize);
                    held[s as usize] = None;
                }
            }
            let total: usize = held.iter().flatten().sum();
            peak = peak.max(total);
            prop_assert_eq!(table.buffer_in_use(), total);
            prop_assert_eq!(table.buffer_high_water(), peak);
        }
    }
}
