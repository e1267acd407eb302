//! Property tests for the flight dump and its parser: any event stream
//! reads back as exactly its stamped tail, and no input, however
//! malformed, makes [`FlightSnapshot::parse`] panic.

use mms_telemetry::flight::dump;
use mms_telemetry::{
    EventKind, EventRecord, FlightSnapshot, Level, OwnedRecord, ParseFlightError, Value,
};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Characters a string may hold: JSON's escapes, control characters,
/// non-ASCII (two-, three- and four-byte UTF-8) and plain text.
const CHARS: &[char] = &[
    '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', 'é', '日', '\u{2028}',
    '🎬', 'a', 'Z', '0', ' ', '{', '}', ':', ',',
];

/// Event names and targets are `&'static str`, so they come from pools.
const NAMES: &[&str] = &[
    "admit",
    "hiccup",
    "data_loss",
    "odd \"name\"\\",
    "ünï\tcode",
];
const TARGETS: &[&str] = &["mms_sim::simulator", "t\n\u{1}", ""];
const KEYS: &[&str] = &["stream", "session", "cycle", "k\"ey", "日"];

fn string() -> impl Strategy<Value = String> {
    let pooled = proptest::collection::vec(0..CHARS.len(), 0..10)
        .prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect::<String>());
    let any_char = proptest::collection::vec(0u32..0x11_0000, 0..4).prop_map(|cs| {
        cs.into_iter()
            .map(|c| char::from_u32(c).unwrap_or('\u{fffd}'))
            .collect::<String>()
    });
    prop_oneof![pooled, any_char]
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<u64>().prop_map(Value::U64),
        any::<i64>().prop_map(Value::I64),
        (-1e30f64..1e30).prop_map(Value::F64),
        (-1_000_000i64..1_000_000).prop_map(|v| Value::F64(v as f64)),
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.0),
        ]
        .prop_map(Value::F64),
        any::<bool>().prop_map(Value::Bool),
        string().prop_map(Value::from),
    ]
}

fn level() -> impl Strategy<Value = Level> {
    prop_oneof![
        Just(Level::Error),
        Just(Level::Warn),
        Just(Level::Info),
        Just(Level::Debug),
        Just(Level::Trace),
    ]
}

/// One record of a stream: a `cycle` span open (sometimes with a `cycle`
/// field that is not a `u64`, which must not move the clock), a span
/// close, or a point event.
fn record() -> impl Strategy<Value = EventRecord> {
    let cycle_open = (any::<u64>(), any::<bool>()).prop_map(|(c, typed)| EventRecord {
        level: Level::Debug,
        target: TARGETS[0],
        name: "cycle",
        kind: EventKind::SpanOpen,
        fields: vec![("cycle", if typed { Value::U64(c) } else { Value::I64(-1) })],
    });
    let close = (0..NAMES.len()).prop_map(|n| EventRecord {
        level: Level::Debug,
        target: TARGETS[0],
        name: NAMES[n],
        kind: EventKind::SpanClose,
        fields: Vec::new(),
    });
    let fields = proptest::collection::vec((0..KEYS.len(), value()), 0..5)
        .prop_map(|fs| fs.into_iter().map(|(k, v)| (KEYS[k], v)).collect());
    let point =
        (level(), 0..NAMES.len(), 0..TARGETS.len(), fields).prop_map(|(level, n, t, fields)| {
            EventRecord {
                level,
                target: TARGETS[t],
                name: NAMES[n],
                kind: EventKind::Event,
                fields,
            }
        });
    prop_oneof![cycle_open, close, point]
}

/// A stream and a capacity from 0 to a few past its length.
fn stream_and_capacity() -> impl Strategy<Value = (Vec<EventRecord>, usize)> {
    proptest::collection::vec(record(), 0..40).prop_flat_map(|events| {
        let n = events.len();
        (Just(events), 0..n + 4)
    })
}

/// A value as a dump line carries it. JSON has one number type, so a
/// non-negative `I64` reads back as `U64`, an integral float as the
/// integer it prints as, and a non-finite float as the string it is
/// written as; everything else reads back as itself.
fn as_written(v: &Value) -> Value {
    match v {
        Value::I64(x) if *x >= 0 => Value::U64(*x as u64),
        Value::F64(x) if x.is_nan() => Value::from("nan"),
        Value::F64(x) if x.is_infinite() => Value::from(if *x > 0.0 { "inf" } else { "-inf" }),
        Value::F64(x) => {
            let text = x.to_string();
            let int = if text.contains('.') {
                None
            } else if text.starts_with('-') {
                text.parse().ok().map(Value::I64)
            } else {
                text.parse().ok().map(Value::U64)
            };
            int.unwrap_or(Value::F64(*x))
        }
        other => other.clone(),
    }
}

/// The stamped tail the dump of `events` at `capacity` must read back
/// as: the clock runs over the whole stream, a `cycle` span open with a
/// `u64` `cycle` field starting a cycle at sequence 0.
fn stamped_tail(events: &[EventRecord], capacity: usize) -> Vec<OwnedRecord> {
    let (mut cycle, mut seq) = (0u64, 0u32);
    let mut stamped = Vec::new();
    for e in events {
        if let (EventKind::SpanOpen, "cycle", Some(Value::U64(c))) =
            (e.kind, e.name, e.field("cycle"))
        {
            (cycle, seq) = (*c, 0);
        }
        stamped.push(OwnedRecord {
            cycle,
            seq,
            kind: e.kind.as_str().to_string(),
            level: e.level.as_str().to_string(),
            target: e.target.to_string(),
            name: e.name.to_string(),
            fields: e
                .fields
                .iter()
                .map(|(k, v)| (k.to_string(), as_written(v)))
                .collect(),
        });
        seq += 1;
    }
    stamped.split_off(events.len() - capacity.min(events.len()))
}

fn dump_text(events: &[EventRecord], capacity: usize) -> (String, &'static str) {
    let mut out = Vec::new();
    let trigger = dump(&mut out, events, capacity).expect("a Vec takes every write");
    (String::from_utf8(out).expect("a dump is UTF-8"), trigger)
}

/// A parse error must point at a line of the text (line 1 of an empty
/// one).
fn check_error_line(
    text: &str,
    result: Result<FlightSnapshot, ParseFlightError>,
) -> Result<(), TestCaseError> {
    if let Err(err) = result {
        prop_assert!(
            (1..=text.lines().count().max(1)).contains(&err.line),
            "{err} for a text of {} line(s)",
            text.lines().count()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_dump_reads_back_as_exactly_the_stamped_tail((events, capacity) in stream_and_capacity()) {
        let (text, trigger) = dump_text(&events, capacity);
        let want_trigger = events
            .iter()
            .find(|e| e.level == Level::Error)
            .map_or("requested", |e| e.name);
        prop_assert_eq!(trigger, want_trigger);
        let snap = FlightSnapshot::parse(&text).map_err(|e| TestCaseError::Fail(e.to_string()))?;
        prop_assert_eq!(snap.capacity, capacity);
        prop_assert_eq!(snap.len, capacity.min(events.len()));
        prop_assert_eq!(snap.recorded, events.len() as u64);
        prop_assert_eq!(snap.trigger.as_deref(), Some(want_trigger));
        prop_assert_eq!(snap.records, stamped_tail(&events, capacity));
    }

    #[test]
    fn arbitrary_text_never_panics_the_parser(text in string(), lines in 0usize..4) {
        let text = vec![text; lines + 1].join("\n");
        check_error_line(&text, FlightSnapshot::parse(&text))?;
    }

    /// The header is cut or mutated in about half the cases.
    #[test]
    fn a_cut_or_mutated_dump_is_an_error_or_a_snapshot_never_a_panic(
        (events, capacity) in stream_and_capacity(),
        line in prop_oneof![Just(0), any::<usize>()],
        at in any::<usize>(),
        mutation in 0usize..3,
        c in 0..CHARS.len(),
        digits in 1usize..30,
    ) {
        let (text, _) = dump_text(&events, capacity);
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let target = &mut lines[line % text.lines().count()];
        let mut at = at % (target.len() + 1);
        while !target.is_char_boundary(at) {
            at -= 1;
        }
        match mutation {
            0 => target.truncate(at),
            1 => target.insert(at, CHARS[c]),
            // Widen a number (or whatever is cut there) past 64 bits.
            _ => target.insert_str(at, &"9".repeat(digits)),
        }
        let text = lines.join("\n");
        check_error_line(&text, FlightSnapshot::parse(&text))?;
    }
}
