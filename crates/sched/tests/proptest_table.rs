//! Model test of the stream table against the `BTreeMap<StreamId, _>`
//! every scheduler used to keep: admission order, lookup by id, removal
//! before the first read, mark-dead + compact inside a cycle (with slot
//! indices staying put until the cycle ends), buffer charges, and what
//! `find` answers once the table has compacted.

use mms_layout::ObjectId;
use mms_sched::table::{Placement, Released, StreamTable};
use mms_sched::StreamId;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    /// Admit a stream of this many groups, starting this many cycles out.
    Admit(u8, u8),
    /// Release the stream at this position (mod live count).
    Release(u8),
    /// Release an id that was never issued or is long gone.
    ReleaseStale(u8),
    /// Plan one cycle; each entry acts on the slot at that position:
    /// charge, free, or retire it.
    Cycle(Vec<(u8, InCycle)>),
}

#[derive(Debug, Clone, Copy)]
enum InCycle {
    Alloc(u8),
    Free(u8),
    Retire,
}

fn arb_in_cycle() -> impl Strategy<Value = (u8, InCycle)> {
    (
        any::<u8>(),
        prop_oneof![
            any::<u8>().prop_map(|n| InCycle::Alloc(n % 6)),
            any::<u8>().prop_map(|n| InCycle::Alloc(n % 6)),
            any::<u8>().prop_map(|n| InCycle::Free(n % 6)),
            Just(InCycle::Retire),
        ],
    )
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<u8>()).prop_map(|(g, d)| Op::Admit(1 + g % 5, d % 3)),
            (any::<u8>(), any::<u8>()).prop_map(|(g, d)| Op::Admit(1 + g % 5, d % 3)),
            any::<u8>().prop_map(Op::Release),
            any::<u8>().prop_map(Op::ReleaseStale),
            proptest::collection::vec(arb_in_cycle(), 0..12).prop_map(Op::Cycle),
            proptest::collection::vec(arb_in_cycle(), 0..12).prop_map(Op::Cycle),
        ],
        1..60,
    )
}

/// What the model remembers of one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Model {
    object: ObjectId,
    groups: u64,
    start_cycle: u64,
    held: usize,
    tag: u32,
}

/// Table and model agree on everything observable from outside a cycle.
fn check(
    table: &StreamTable<u32>,
    model: &BTreeMap<StreamId, Model>,
    issued: u64,
    period: u64,
) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(table.len(), model.len());
    prop_assert_eq!(table.is_empty(), model.is_empty());
    prop_assert_eq!(table.slots(), model.len(), "compacted outside a cycle");
    // Iteration is the map's: ascending id, same contents.
    let seen: Vec<(StreamId, Model)> = table
        .iter()
        .map(|s| {
            let m = Model {
                object: s.object,
                groups: s.groups,
                start_cycle: s.start_cycle,
                held: s.held(),
                tag: s.state,
            };
            (s.id(), m)
        })
        .collect();
    let expected: Vec<(StreamId, Model)> = model.iter().map(|(&id, &m)| (id, m)).collect();
    prop_assert_eq!(seen, expected);
    prop_assert_eq!(
        table.buffer_in_use(),
        model.values().map(|m| m.held).sum::<usize>()
    );
    // Every id ever issued (and one never issued) resolves as in the map.
    for raw in 0..=issued {
        let id = StreamId(raw);
        let ix = table.find(id);
        prop_assert_eq!(ix.is_some(), model.contains_key(&id));
        if let Some(ix) = ix {
            prop_assert_eq!(table.slot(ix).id(), id);
            prop_assert_eq!(table.find_from(ix, id), Some(ix));
            prop_assert_eq!(table.find_from(0, id), Some(ix));
        }
        match (table.stream_info(id), model.get(&id)) {
            (None, None) => {}
            (Some(info), Some(m)) => {
                prop_assert_eq!(info.id, id);
                prop_assert_eq!(info.object, m.object);
                prop_assert_eq!(info.groups, m.groups);
                prop_assert_eq!(info.admitted_at, m.start_cycle);
                let read = table.next_cycle().saturating_sub(m.start_cycle) / period;
                prop_assert_eq!(info.next_group, read.min(m.groups));
            }
            (info, m) => prop_assert!(false, "{id}: table {info:?}, model {m:?}"),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn table_matches_the_ordered_map_it_replaced(ops in arb_ops(), period in 1u64..5) {
        let mut table: StreamTable<u32> = StreamTable::new(period);
        let mut model: BTreeMap<StreamId, Model> = BTreeMap::new();
        let mut issued = 0u64;
        let mut high_water = 0usize;
        for op in ops {
            match op {
                Op::Admit(groups, delay) => {
                    let at = table.next_cycle() + u64::from(delay);
                    let object = ObjectId(u64::from(groups));
                    let placement = Placement {
                        object,
                        start_cluster: 0,
                        groups: u64::from(groups),
                        tracks: u64::from(groups) * 4,
                    };
                    let id = table.admit(placement, at, issued as u32);
                    prop_assert_eq!(id, StreamId(issued), "ids are issued in order");
                    issued += 1;
                    model.insert(id, Model {
                        object,
                        groups: u64::from(groups),
                        start_cycle: at,
                        held: 0,
                        tag: id.0 as u32,
                    });
                }
                Op::Release(pos) => {
                    if model.is_empty() {
                        continue;
                    }
                    let id = *model.keys().nth(pos as usize % model.len()).unwrap();
                    let m = model[&id];
                    let read = table.next_cycle().saturating_sub(m.start_cycle).div_ceil(period);
                    match table.release(id) {
                        Released::Retired(tag) => {
                            prop_assert_eq!(read, 0, "only unread streams retire at once");
                            prop_assert_eq!(tag, m.tag);
                            model.remove(&id);
                        }
                        Released::Draining => {
                            prop_assert!(read > 0);
                            model.get_mut(&id).unwrap().groups = m.groups.min(read);
                        }
                        Released::Unknown => prop_assert!(false, "{id} is live"),
                    }
                }
                Op::ReleaseStale(raw) => {
                    let id = StreamId(issued + u64::from(raw));
                    prop_assert!(matches!(table.release(id), Released::Unknown));
                }
                Op::Cycle(actions) => {
                    let cycle = table.next_cycle();
                    table.begin_cycle(cycle);
                    // Slot indices as a pass would take them.
                    let slots = table.slots();
                    let ids: Vec<StreamId> = (0..slots).map(|ix| table.slot(ix).id()).collect();
                    for (pos, action) in actions {
                        if slots == 0 {
                            break;
                        }
                        let ix = pos as usize % slots;
                        let id = ids[ix];
                        match action {
                            InCycle::Alloc(n) => {
                                // Passes only charge live streams.
                                if let Some(m) = model.get_mut(&id) {
                                    table.alloc(ix, n as usize).unwrap();
                                    m.held += n as usize;
                                }
                            }
                            InCycle::Free(n) => {
                                // A retired stream holds nothing.
                                let held = model.get(&id).map_or(0, |m| m.held);
                                let ok = table.free(ix, n as usize).is_ok();
                                prop_assert_eq!(ok, n as usize <= held);
                                if ok && n > 0 {
                                    model.get_mut(&id).unwrap().held -= n as usize;
                                }
                            }
                            InCycle::Retire => {
                                table.retire(ix);
                                model.remove(&id);
                            }
                        }
                        high_water = high_water.max(model.values().map(|m| m.held).sum());
                        // Nothing moved: every index still names its stream.
                        prop_assert_eq!(table.slots(), slots);
                        for (ix, &id) in ids.iter().enumerate() {
                            prop_assert_eq!(table.slot(ix).id(), id);
                            prop_assert_eq!(table.slot(ix).is_live(), model.contains_key(&id));
                            prop_assert_eq!(table.find(id), model.contains_key(&id).then_some(ix));
                        }
                        prop_assert_eq!(table.len(), model.len());
                    }
                    table.compact();
                    prop_assert_eq!(table.next_cycle(), cycle + 1);
                }
            }
            check(&table, &model, issued, period)?;
            prop_assert_eq!(table.buffer_high_water(), high_water);
        }
    }
}
