//! Property tests for the buffer pool: conservation, bounds, and
//! high-water monotonicity under arbitrary charge/release sequences.
//!
//! The pool keeps gauges only; who holds what is the caller's tally (the
//! stream table's per-slot `held`, a buffer server's calendar). The test
//! keeps that tally per owner, the way a caller does, and releases only
//! what an owner holds.

use mms_buffer::{BufferError, BufferPool};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Charge(u8, u8),
    Release(u8, u8),
    ReleaseAll(u8),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<u8>()).prop_map(|(o, n)| Op::Charge(o % 8, n % 32)),
            (any::<u8>(), any::<u8>()).prop_map(|(o, n)| Op::Release(o % 8, n % 32)),
            any::<u8>().prop_map(|o| Op::ReleaseAll(o % 8)),
        ],
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The pool's occupancy always equals the sum of the owners' tallies,
    /// capacity is never exceeded (a refused charge changes nothing), and
    /// the high-water mark is the true running max.
    #[test]
    fn pool_matches_reference_model(ops in arb_ops(), capacity in 1usize..200) {
        let mut pool = BufferPool::bounded(capacity);
        let mut model: BTreeMap<u8, usize> = BTreeMap::new();
        let mut model_peak = 0usize;
        for op in ops {
            let total: usize = model.values().sum();
            match op {
                Op::Charge(o, n) => {
                    let n = n as usize;
                    let result = pool.charge(n);
                    if total + n <= capacity {
                        prop_assert!(result.is_ok());
                        *model.entry(o).or_default() += n;
                    } else {
                        let refused = BufferError::Exhausted {
                            requested: n,
                            available: capacity - total,
                        };
                        prop_assert_eq!(result, Err(refused));
                    }
                }
                Op::Release(o, n) => {
                    // The caller's tally refuses more than the owner holds.
                    let held = model.entry(o).or_default();
                    let n = (n as usize).min(*held);
                    *held -= n;
                    pool.release(n);
                }
                Op::ReleaseAll(o) => {
                    pool.release(model.remove(&o).unwrap_or(0));
                }
            }
            let total: usize = model.values().sum();
            model_peak = model_peak.max(total);
            prop_assert_eq!(pool.in_use(), total);
            prop_assert!(pool.in_use() <= capacity);
            prop_assert_eq!(pool.available(), capacity - total);
            prop_assert_eq!(pool.high_water(), model_peak);
        }
    }

    /// Unbounded pools accept everything and never report exhaustion.
    #[test]
    fn unbounded_never_rejects(charges in proptest::collection::vec(0usize..1000, 1..50)) {
        let mut pool = BufferPool::unbounded();
        let mut total = 0usize;
        for n in charges {
            prop_assert!(pool.charge(n).is_ok());
            total += n;
        }
        prop_assert_eq!(pool.in_use(), total);
        prop_assert_eq!(pool.high_water(), total);
    }
}
