//! The flight dump: the newest events of a run, stamped with virtual
//! time.
//!
//! Long scenario runs emit far more events than anyone wants to read,
//! but the *last few thousand* records before a data loss or invariant
//! violation are exactly the forensic record the paper's failure-window
//! analysis needs (the degraded/rebuild interval of Figs. 6–9). A run's
//! [`Recorder`](crate::Recorder) already holds every event, so the dump
//! is a view of that record: [`dump`] writes its newest `capacity`
//! events, each stamped with a deterministic virtual time — the
//! simulation cycle plus a per-cycle sequence number — under a header
//! naming the trigger, the first `Error`-level record (data loss, check
//! violation) or else `"requested"`.
//!
//! Determinism: the stamp is a pure function of the event stream, and
//! the workspace's parallel layer absorbs per-job event streams in job
//! index order, so a dump is byte-identical at any thread count.
//!
//! The dump is parsed back by [`FlightSnapshot::parse`] — the same
//! hand-rolled JSON subset the rest of the crate emits, no serde.

use crate::event::{EventKind, EventRecord, Value};
use crate::{json, jsonl, Level};
use std::fmt;
use std::io::{self, Write};

/// Deterministic virtual timestamps for an event stream: the current
/// simulation cycle (read from `cycle` span opens) plus a sequence
/// number counting records within that cycle in stream order.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct VirtualClock {
    cycle: u64,
    seq: u32,
}

impl VirtualClock {
    /// Stamp one event: returns `(cycle, seq)`. A `cycle` span open
    /// carrying a `cycle` field advances the clock and resets the
    /// sequence, so the span-open record itself is `(new_cycle, 0)`.
    pub(crate) fn stamp(&mut self, event: &EventRecord) -> (u64, u32) {
        if event.kind == EventKind::SpanOpen && event.name == "cycle" {
            if let Some(Value::U64(c)) = event.field("cycle") {
                self.cycle = *c;
                self.seq = 0;
            }
        }
        let stamp = (self.cycle, self.seq);
        self.seq = self.seq.saturating_add(1);
        stamp
    }
}

/// Write the flight dump of `events` as JSONL: one `flight` header line
/// (`capacity`, `len` = the records kept, `recorded` = all of them, and
/// the trigger), then the newest `capacity` records oldest first, each
/// an event line stamped with its `cycle`/`seq`. The clock runs over the
/// whole stream, so a kept record's stamp does not depend on `capacity`.
/// [`FlightSnapshot::parse`] reads the dump back.
///
/// Returns the trigger: the name of the first `Error`-level record, or
/// `"requested"` when there is none.
///
/// # Errors
/// Propagates I/O errors from `out`.
pub fn dump<W: Write>(
    out: &mut W,
    events: &[EventRecord],
    capacity: usize,
) -> io::Result<&'static str> {
    let len = capacity.min(events.len());
    let trigger = events
        .iter()
        .find(|e| e.level == Level::Error)
        .map_or("requested", |e| e.name);
    write!(
        out,
        "{{\"t\":\"flight\",\"capacity\":{capacity},\"len\":{len},\"recorded\":{},\"trigger\":",
        events.len()
    )?;
    json::write_str(out, trigger)?;
    out.write_all(b"}\n")?;
    let first_kept = events.len() - len;
    let mut clock = VirtualClock::default();
    for (i, event) in events.iter().enumerate() {
        let stamp = clock.stamp(event);
        if i >= first_kept {
            jsonl::write_event(out, event, Some(stamp))?;
        }
    }
    Ok(trigger)
}

/// One record read back from a dump.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedRecord {
    /// Simulation cycle stamp.
    pub cycle: u64,
    /// Order within the cycle.
    pub seq: u32,
    /// `event`, `span_open`, or `span_close`.
    pub kind: String,
    /// Severity name.
    pub level: String,
    /// Emitting module.
    pub target: String,
    /// Event or span name.
    pub name: String,
    /// Named fields, in emission order.
    pub fields: Vec<(String, Value)>,
}

impl OwnedRecord {
    /// Look up a field by name.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Whether the record mentions stream/session `id` (a `stream` or
    /// `session` field equal to it).
    #[must_use]
    pub fn mentions_stream(&self, id: u64) -> bool {
        self.field("stream").and_then(Value::as_u64) == Some(id)
            || self.field("session").and_then(Value::as_u64) == Some(id)
    }
}

/// A parsed flight-recorder dump.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightSnapshot {
    /// The most records the dump could keep.
    pub capacity: usize,
    /// Records kept in the dump.
    pub len: usize,
    /// Records the run recorded, kept or not.
    pub recorded: u64,
    /// The trigger: the first `Error`-level record's name, or
    /// `requested`. `None` only for a header that says `null`.
    pub trigger: Option<String>,
    /// The kept records, oldest first.
    pub records: Vec<OwnedRecord>,
}

impl FlightSnapshot {
    /// Parse a dump produced by [`dump`].
    ///
    /// # Errors
    /// Returns a [`ParseFlightError`] naming the offending line when the
    /// text is not a well-formed dump, and one naming both counts when
    /// the records are not as many as the header's `len` (a dump cut
    /// short by a killed writer or a full disk).
    pub fn parse(text: &str) -> Result<FlightSnapshot, ParseFlightError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines
            .next()
            .ok_or_else(|| ParseFlightError::new(1, "empty snapshot"))?;
        let obj = parse_object_line(header, 1)?;
        if obj.get("t").and_then(Json::as_str) != Some("flight") {
            return Err(ParseFlightError::new(
                1,
                "first line is not a flight header",
            ));
        }
        let capacity = obj
            .get_u64("capacity")
            .ok_or_else(|| ParseFlightError::new(1, "header is missing `capacity`"))?
            as usize;
        let len = obj
            .get_u64("len")
            .ok_or_else(|| ParseFlightError::new(1, "header is missing `len`"))?
            as usize;
        let recorded = obj
            .get_u64("recorded")
            .ok_or_else(|| ParseFlightError::new(1, "header is missing `recorded`"))?;
        let trigger = match obj.get("trigger") {
            Some(Json::Str(s)) => Some(s.to_string()),
            Some(Json::Null) | None => None,
            Some(_) => return Err(ParseFlightError::new(1, "`trigger` must be string or null")),
        };
        // `len` is the file's word, not a bound: a dump may lie about it,
        // so it is checked against the records read, never allocated by.
        let mut records = Vec::new();
        for (ix, line) in lines {
            let lineno = ix + 1;
            if line.trim().is_empty() {
                continue;
            }
            let obj = parse_object_line(line, lineno)?;
            let need_str = |key: &str| {
                obj.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| {
                        ParseFlightError::new(lineno, format!("record is missing `{key}`"))
                    })
            };
            let kind = need_str("t")?;
            let level = need_str("level")?;
            let target = need_str("target")?;
            let name = need_str("name")?;
            let cycle = obj
                .get_u64("cycle")
                .ok_or_else(|| ParseFlightError::new(lineno, "record is missing `cycle`"))?;
            let seq = obj
                .get_u64("seq")
                .ok_or_else(|| ParseFlightError::new(lineno, "record is missing `seq`"))?;
            let seq = u32::try_from(seq).map_err(|_| {
                ParseFlightError::new(lineno, format!("`seq` {seq} is out of range"))
            })?;
            let fields = match obj.get("fields") {
                Some(Json::Obj(pairs)) => pairs
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_value()))
                    .collect(),
                None => Vec::new(),
                Some(_) => return Err(ParseFlightError::new(lineno, "`fields` must be an object")),
            };
            records.push(OwnedRecord {
                cycle,
                seq,
                kind,
                level,
                target,
                name,
                fields,
            });
        }
        if records.len() != len {
            let message = format!(
                "header says {len} record(s), the dump holds {}",
                records.len()
            );
            return Err(ParseFlightError::new(1, message));
        }
        Ok(FlightSnapshot {
            capacity,
            len,
            recorded,
            trigger,
            records,
        })
    }

    /// The records mentioning stream/session `id`, oldest first.
    pub fn stream_records(&self, id: u64) -> impl Iterator<Item = &OwnedRecord> {
        self.records.iter().filter(move |r| r.mentions_stream(id))
    }
}

/// Error from parsing a flight-recorder dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFlightError {
    /// 1-based line number of the malformed record.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseFlightError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseFlightError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseFlightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flight snapshot line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseFlightError {}

/// The JSON subset this crate emits: objects, strings, numbers, bools,
/// null. (Flight lines never contain arrays.)
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Str(String),
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Null,
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn to_value(&self) -> Value {
        match self {
            Json::Str(s) => Value::from(s.clone()),
            Json::U64(v) => Value::U64(*v),
            Json::I64(v) => Value::I64(*v),
            Json::F64(v) => Value::F64(*v),
            Json::Bool(v) => Value::Bool(*v),
            Json::Null | Json::Obj(_) => Value::from(String::new()),
        }
    }
}

/// Key lookup helpers over a parsed object.
struct JsonObj(Vec<(String, Json)>);

impl JsonObj {
    fn get(&self, key: &str) -> Option<&Json> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn get_u64(&self, key: &str) -> Option<u64> {
        match self.get(key) {
            Some(Json::U64(v)) => Some(*v),
            _ => None,
        }
    }
}

/// The deepest object nesting a dump line holds: a record, then its
/// `fields`. The parser recurses per level, so it stops past this
/// rather than on the stack.
const MAX_DEPTH: usize = 2;

fn parse_object_line(line: &str, lineno: usize) -> Result<JsonObj, ParseFlightError> {
    let mut cur = Cursor {
        bytes: line.as_bytes(),
        pos: 0,
        lineno,
        depth: 0,
    };
    let value = cur.parse_value()?;
    cur.skip_ws();
    if cur.pos != cur.bytes.len() {
        return Err(ParseFlightError::new(lineno, "trailing characters"));
    }
    match value {
        Json::Obj(pairs) => Ok(JsonObj(pairs)),
        _ => Err(ParseFlightError::new(lineno, "line is not a JSON object")),
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    lineno: usize,
    /// Objects open at `pos`.
    depth: usize,
}

impl Cursor<'_> {
    fn err(&self, message: impl Into<String>) -> ParseFlightError {
        ParseFlightError::new(self.lineno, message)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), ParseFlightError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, ParseFlightError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Json::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Json::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Json) -> Result<Json, ParseFlightError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn parse_object(&mut self) -> Result<Json, ParseFlightError> {
        self.expect_byte(b'{')?;
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("objects nest deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let object = self.parse_members();
        self.depth -= 1;
        object
    }

    fn parse_members(&mut self) -> Result<Json, ParseFlightError> {
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseFlightError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(hex).ok_or_else(|| self.err("bad \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape in string")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, ParseFlightError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in number"))?;
        // An integer past the 64-bit range is a float the writer printed
        // without a fraction (`1e20` displays as 100000000000000000000).
        let int = if float {
            None
        } else if text.starts_with('-') {
            text.parse::<i64>().ok().map(Json::I64)
        } else {
            text.parse::<u64>().ok().map(Json::U64)
        };
        match int {
            Some(v) => Ok(v),
            None => text
                .parse::<f64>()
                .map(Json::F64)
                .map_err(|_| self.err("malformed number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(level: Level, name: &'static str, fields: Vec<(&'static str, Value)>) -> EventRecord {
        EventRecord {
            level,
            target: "test",
            name,
            kind: EventKind::Event,
            fields,
        }
    }

    fn cycle_open(cycle: u64) -> EventRecord {
        EventRecord {
            level: Level::Debug,
            target: "test",
            name: "cycle",
            kind: EventKind::SpanOpen,
            fields: vec![("cycle", Value::U64(cycle))],
        }
    }

    /// The dump of `events` at `capacity`, parsed back, and the trigger
    /// `dump` returned.
    fn snapshot(events: &[EventRecord], capacity: usize) -> (FlightSnapshot, &'static str) {
        let mut out = Vec::new();
        let trigger = dump(&mut out, events, capacity).unwrap();
        let snap = FlightSnapshot::parse(&String::from_utf8(out).unwrap()).unwrap();
        (snap, trigger)
    }

    #[test]
    fn virtual_clock_follows_cycle_spans() {
        let mut clock = VirtualClock::default();
        assert_eq!(clock.stamp(&event(Level::Info, "pre", vec![])), (0, 0));
        assert_eq!(clock.stamp(&cycle_open(7)), (7, 0));
        assert_eq!(clock.stamp(&event(Level::Info, "a", vec![])), (7, 1));
        assert_eq!(clock.stamp(&event(Level::Info, "b", vec![])), (7, 2));
        assert_eq!(clock.stamp(&cycle_open(8)), (8, 0));
    }

    #[test]
    fn dump_keeps_the_newest_records_stamped_as_in_the_whole_run() {
        let mut events = vec![cycle_open(4)];
        events.extend((0..5u64).map(|i| event(Level::Info, "n", vec![("i", Value::U64(i))])));
        let (snap, _) = snapshot(&events, 3);
        assert_eq!((snap.capacity, snap.len, snap.recorded), (3, 3, 6));
        let kept: Vec<(u64, u32, Option<u64>)> = snap
            .records
            .iter()
            .map(|r| (r.cycle, r.seq, r.field("i").and_then(Value::as_u64)))
            .collect();
        assert_eq!(
            kept,
            vec![(4, 3, Some(2)), (4, 4, Some(3)), (4, 5, Some(4))],
            "the oldest records are cut; the clock still ran over them"
        );
        let (whole, _) = snapshot(&events, 100);
        assert_eq!((whole.capacity, whole.len), (100, 6));
        assert_eq!(whole.records[3..], snap.records[..]);
    }

    #[test]
    fn the_first_error_is_the_trigger() {
        let warn = event(Level::Warn, "hiccup", vec![]);
        let (snap, trigger) = snapshot(std::slice::from_ref(&warn), 4);
        assert_eq!(trigger, "requested", "no error: the dump was requested");
        assert_eq!(snap.trigger.as_deref(), Some("requested"));
        let events = [
            warn.clone(),
            event(Level::Error, "data_loss", vec![]),
            event(Level::Error, "late_loss", vec![]),
            warn,
        ];
        // The first error wins, even once it is cut from the tail.
        for capacity in [4, 1] {
            let (snap, trigger) = snapshot(&events, capacity);
            assert_eq!(trigger, "data_loss", "capacity {capacity}");
            assert_eq!(snap.trigger.as_deref(), Some("data_loss"));
        }
    }

    #[test]
    fn dump_parse_round_trips() {
        let events = [
            cycle_open(3),
            event(
                Level::Warn,
                "hiccup",
                vec![
                    ("stream", Value::U64(5)),
                    ("reason", Value::from("failed-disk")),
                    ("ratio", Value::F64(0.5)),
                    ("late", Value::Bool(true)),
                    ("delta", Value::I64(-2)),
                ],
            ),
            event(Level::Error, "data_loss", vec![("tracks", Value::U64(6))]),
        ];
        let (snap, _) = snapshot(&events, 8);
        assert_eq!(snap.capacity, 8);
        assert_eq!(snap.len, 3);
        assert_eq!(snap.recorded, 3);
        assert_eq!(snap.trigger.as_deref(), Some("data_loss"));
        assert_eq!(snap.records.len(), 3);
        let hic = &snap.records[1];
        assert_eq!((hic.cycle, hic.seq), (3, 1));
        assert_eq!((hic.kind.as_str(), hic.level.as_str()), ("event", "warn"));
        assert_eq!(hic.name, "hiccup");
        for (name, value) in &events[1].fields {
            assert_eq!(hic.field(name), Some(value), "{name}");
        }
        assert!(hic.mentions_stream(5));
        assert_eq!(snap.stream_records(5).count(), 1);
    }

    #[test]
    fn parse_rejects_garbage_with_line_numbers() {
        assert!(FlightSnapshot::parse("").is_err());
        assert!(FlightSnapshot::parse("{\"t\":\"event\"}").is_err());
        let good_header =
            "{\"t\":\"flight\",\"capacity\":4,\"len\":0,\"recorded\":0,\"trigger\":null}";
        let err = FlightSnapshot::parse(&format!("{good_header}\nnot json"))
            .expect_err("malformed second line must fail");
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
        // 50,000 nested objects on one line: an error naming the line,
        // not a stack overflow.
        let deep = format!("{good_header}\n{}", "{\"a\":".repeat(50_000));
        let err = FlightSnapshot::parse(&deep).expect_err("deep nesting must fail");
        assert_eq!(err.line, 2);
        assert!(err.message.contains("nest"), "{err}");
    }

    #[test]
    fn a_seq_past_u32_is_an_error_naming_its_line() {
        let header = "{\"t\":\"flight\",\"capacity\":4,\"len\":1,\"recorded\":1,\"trigger\":null}";
        let record = |seq: u64| {
            format!(
                "{header}\n{{\"t\":\"event\",\"cycle\":0,\"seq\":{seq},\"level\":\"info\",\
                 \"target\":\"t\",\"name\":\"n\",\"fields\":{{}}}}"
            )
        };
        let max = u64::from(u32::MAX);
        let snap = FlightSnapshot::parse(&record(max)).expect("u32::MAX is a seq");
        assert_eq!(snap.records[0].seq, u32::MAX);
        let err = FlightSnapshot::parse(&record(max + 1)).expect_err("past u32::MAX");
        assert_eq!(err.line, 2);
        assert!(err.message.contains("`seq`"), "{err}");
    }

    #[test]
    fn the_header_len_is_not_trusted_and_wide_integers_read_as_floats() {
        let lied = "{\"t\":\"flight\",\"capacity\":1,\"len\":18446744073709551615,\
                    \"recorded\":0,\"trigger\":null}";
        let err = FlightSnapshot::parse(lied).expect_err("a header's len is checked");
        assert_eq!(
            err.message,
            "header says 18446744073709551615 record(s), the dump holds 0"
        );
        let big = event(Level::Info, "big", vec![("x", Value::F64(1e20))]);
        let (snap, _) = snapshot(std::slice::from_ref(&big), 1);
        assert_eq!(snap.records[0].field("x"), Some(&Value::F64(1e20)));
    }

    #[test]
    fn string_escapes_round_trip() {
        let odd = Value::from(String::from("a\"b\\c\nd\te\u{1}"));
        let (snap, _) = snapshot(&[event(Level::Info, "odd", vec![("s", odd.clone())])], 2);
        assert_eq!(snap.records[0].field("s"), Some(&odd));
    }
}
