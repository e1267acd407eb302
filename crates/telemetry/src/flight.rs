//! The flight recorder: a fixed-capacity black box of recent events.
//!
//! Long scenario runs emit far more events than anyone wants to keep,
//! but the *last few thousand* records before a data loss or invariant
//! violation are exactly the forensic record the paper's failure-window
//! analysis needs (the degraded/rebuild interval of Figs. 6–9).
//! [`FlightRecorder`] retains the newest `capacity` records in a
//! pre-allocated ring, stamping each with a deterministic virtual time —
//! the simulation cycle plus a per-cycle sequence number
//! ([`VirtualClock`]) — and dumps a replayable JSONL snapshot when
//! triggered by an `Error`-level record (data loss, check violation) or
//! an explicit request.
//!
//! Determinism: the stamp is a pure function of the event stream, and
//! the workspace's parallel layer absorbs per-job event streams in job
//! index order, so a dump is byte-identical at any thread count.
//!
//! The dump is parsed back by [`FlightSnapshot::parse`] — the same
//! hand-rolled JSON subset the rest of the crate emits, no serde.

use crate::event::{EventKind, EventRecord, Value};
use crate::json;
use crate::Level;
use std::fmt;
use std::io::{self, Write};

/// Deterministic virtual timestamps for an event stream: the current
/// simulation cycle (read from `cycle` span opens) plus a sequence
/// number counting records within that cycle in stream order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VirtualClock {
    cycle: u64,
    seq: u32,
}

impl VirtualClock {
    /// A clock at cycle 0, sequence 0.
    #[must_use]
    pub fn new() -> Self {
        VirtualClock { cycle: 0, seq: 0 }
    }

    /// Stamp one event: returns `(cycle, seq)`. A `cycle` span open
    /// carrying a `cycle` field advances the clock and resets the
    /// sequence, so the span-open record itself is `(new_cycle, 0)`.
    pub fn stamp(&mut self, event: &EventRecord) -> (u64, u32) {
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

/// One retained record: the event plus its virtual timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct StampedRecord {
    /// Simulation cycle the record belongs to.
    pub cycle: u64,
    /// Order within the cycle.
    pub seq: u32,
    /// The event itself.
    pub record: EventRecord,
}

/// A fixed-capacity ring buffer of the newest [`StampedRecord`]s.
///
/// Construction pre-allocates every slot; [`record`](FlightRecorder::record)
/// is allocation-free (it moves the event into a slot and never resizes
/// the ring), which is what lets the recorder ride along on the
/// simulation's hot path. An `Error`-level record arms the trigger
/// automatically; [`trigger`](FlightRecorder::trigger) arms it manually.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: Vec<Option<StampedRecord>>,
    /// Next slot to write.
    head: usize,
    /// Populated slots (saturates at capacity).
    len: usize,
    clock: VirtualClock,
    /// Total records ever seen, including overwritten ones.
    recorded: u64,
    trigger: Option<&'static str>,
}

impl FlightRecorder {
    /// A recorder retaining the newest `capacity` records.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "flight recorder capacity must be at least one record"
        );
        FlightRecorder {
            ring: (0..capacity).map(|_| None).collect(),
            head: 0,
            len: 0,
            clock: VirtualClock::new(),
            recorded: 0,
            trigger: None,
        }
    }

    /// Retain one event, stamping it with the virtual clock. The oldest
    /// record is overwritten once the ring is full. An `Error`-level
    /// event arms the trigger with the event's name (first one wins).
    pub fn record(&mut self, event: EventRecord) {
        let (cycle, seq) = self.clock.stamp(&event);
        if self.trigger.is_none() && event.level == Level::Error {
            self.trigger = Some(event.name);
        }
        self.recorded += 1;
        self.ring[self.head] = Some(StampedRecord {
            cycle,
            seq,
            record: event,
        });
        self.head = (self.head + 1) % self.ring.len();
        if self.len < self.ring.len() {
            self.len += 1;
        }
    }

    /// Arm the trigger manually (e.g. from a CLI flag). An already-armed
    /// trigger keeps its original reason.
    pub fn trigger(&mut self, reason: &'static str) {
        if self.trigger.is_none() {
            self.trigger = Some(reason);
        }
    }

    /// Why the recorder triggered, if it did.
    #[must_use]
    pub fn trigger_reason(&self) -> Option<&'static str> {
        self.trigger
    }

    /// Whether the trigger is armed (a dump is warranted).
    #[must_use]
    pub fn triggered(&self) -> bool {
        self.trigger.is_some()
    }

    /// The ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.ring.len()
    }

    /// Currently retained records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total records ever fed, including those already overwritten.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &StampedRecord> {
        let cap = self.ring.len();
        let start = (self.head + cap - self.len) % cap;
        (0..self.len).filter_map(move |i| self.ring[(start + i) % cap].as_ref())
    }

    /// Write the snapshot as JSONL: one `flight` header line, then the
    /// retained records oldest-first, each an event line extended with
    /// its `cycle`/`seq` stamp. [`FlightSnapshot::parse`] reads it back.
    pub fn dump<W: Write>(&self, out: &mut W) -> io::Result<()> {
        write!(
            out,
            "{{\"t\":\"flight\",\"capacity\":{},\"len\":{},\"recorded\":{},\"trigger\":",
            self.ring.len(),
            self.len,
            self.recorded
        )?;
        match self.trigger {
            Some(reason) => json::write_str(out, reason)?,
            None => out.write_all(b"null")?,
        }
        out.write_all(b"}\n")?;
        for rec in self.iter() {
            write_stamped(out, rec)?;
        }
        Ok(())
    }
}

fn write_stamped<W: Write>(out: &mut W, rec: &StampedRecord) -> io::Result<()> {
    let e = &rec.record;
    write!(
        out,
        "{{\"t\":\"{}\",\"cycle\":{},\"seq\":{},\"level\":\"{}\",\"target\":",
        e.kind.as_str(),
        rec.cycle,
        rec.seq,
        e.level.as_str()
    )?;
    json::write_str(out, e.target)?;
    out.write_all(b",\"name\":")?;
    json::write_str(out, e.name)?;
    if e.kind != EventKind::SpanClose {
        out.write_all(b",\"fields\":{")?;
        for (i, (k, v)) in e.fields.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            json::write_str(out, k)?;
            out.write_all(b":")?;
            match v {
                Value::U64(x) => write!(out, "{x}")?,
                Value::I64(x) => write!(out, "{x}")?,
                Value::F64(x) => json::write_f64(out, *x)?,
                Value::Bool(x) => write!(out, "{x}")?,
                Value::Str(s) => json::write_str(out, s)?,
            }
        }
        out.write_all(b"}")?;
    }
    out.write_all(b"}\n")
}

/// An owned field value parsed back from a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum OwnedValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl fmt::Display for OwnedValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OwnedValue::U64(v) => write!(f, "{v}"),
            OwnedValue::I64(v) => write!(f, "{v}"),
            OwnedValue::F64(v) => write!(f, "{v}"),
            OwnedValue::Bool(v) => write!(f, "{v}"),
            OwnedValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl OwnedValue {
    /// The value as a `u64`, when it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            OwnedValue::U64(v) => Some(*v),
            _ => None,
        }
    }
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
    pub fields: Vec<(String, OwnedValue)>,
}

impl OwnedRecord {
    /// Look up a field by name.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&OwnedValue> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Whether the record mentions stream/session `id` (a `stream` or
    /// `session` field equal to it).
    #[must_use]
    pub fn mentions_stream(&self, id: u64) -> bool {
        self.field("stream").and_then(OwnedValue::as_u64) == Some(id)
            || self.field("session").and_then(OwnedValue::as_u64) == Some(id)
    }
}

/// A parsed flight-recorder dump.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightSnapshot {
    /// Ring capacity at dump time.
    pub capacity: usize,
    /// Records retained in the dump.
    pub len: usize,
    /// Total records the recorder ever saw.
    pub recorded: u64,
    /// Trigger reason, when the dump was triggered.
    pub trigger: Option<String>,
    /// The retained records, oldest first.
    pub records: Vec<OwnedRecord>,
}

impl FlightSnapshot {
    /// Parse a dump produced by [`FlightRecorder::dump`].
    ///
    /// # Errors
    /// Returns a [`ParseFlightError`] naming the offending line when the
    /// text is not a well-formed dump.
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
        let mut records = Vec::with_capacity(len);
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
                .ok_or_else(|| ParseFlightError::new(lineno, "record is missing `seq`"))?
                as u32;
            let fields = match obj.get("fields") {
                Some(Json::Obj(pairs)) => pairs
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_owned_value()))
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

    fn to_owned_value(&self) -> OwnedValue {
        match self {
            Json::Str(s) => OwnedValue::Str(s.to_string()),
            Json::U64(v) => OwnedValue::U64(*v),
            Json::I64(v) => OwnedValue::I64(*v),
            Json::F64(v) => OwnedValue::F64(*v),
            Json::Bool(v) => OwnedValue::Bool(*v),
            Json::Null => OwnedValue::Str(String::new()),
            Json::Obj(_) => OwnedValue::Str(String::new()),
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
        if float {
            text.parse::<f64>()
                .map(Json::F64)
                .map_err(|_| self.err("malformed number"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Json::I64)
                .map_err(|_| self.err("malformed number"))
        } else {
            text.parse::<u64>()
                .map(Json::U64)
                .map_err(|_| self.err("malformed number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;

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

    #[test]
    fn virtual_clock_follows_cycle_spans() {
        let mut clock = VirtualClock::new();
        assert_eq!(clock.stamp(&event(Level::Info, "pre", vec![])), (0, 0));
        assert_eq!(clock.stamp(&cycle_open(7)), (7, 0));
        assert_eq!(clock.stamp(&event(Level::Info, "a", vec![])), (7, 1));
        assert_eq!(clock.stamp(&event(Level::Info, "b", vec![])), (7, 2));
        assert_eq!(clock.stamp(&cycle_open(8)), (8, 0));
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..5u64 {
            fr.record(event(Level::Info, "n", vec![("i", Value::U64(i))]));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.recorded(), 5);
        let kept: Vec<u64> = fr
            .iter()
            .filter_map(|r| match r.record.field("i") {
                Some(Value::U64(v)) => Some(*v),
                _ => None,
            })
            .collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest records are overwritten");
    }

    #[test]
    fn error_records_arm_the_trigger() {
        let mut fr = FlightRecorder::new(4);
        fr.record(event(Level::Warn, "hiccup", vec![]));
        assert!(!fr.triggered());
        fr.record(event(Level::Error, "data_loss", vec![]));
        fr.record(event(Level::Error, "late_loss", vec![]));
        assert_eq!(fr.trigger_reason(), Some("data_loss"), "first error wins");
    }

    #[test]
    fn dump_parse_round_trips() {
        let mut fr = FlightRecorder::new(8);
        fr.record(cycle_open(3));
        fr.record(event(
            Level::Warn,
            "hiccup",
            vec![
                ("stream", Value::U64(5)),
                ("reason", Value::from("failed-disk")),
                ("ratio", Value::F64(0.5)),
                ("late", Value::Bool(true)),
                ("delta", Value::I64(-2)),
            ],
        ));
        fr.record(event(
            Level::Error,
            "data_loss",
            vec![("tracks", Value::U64(6))],
        ));
        let mut out = Vec::new();
        fr.dump(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let snap = FlightSnapshot::parse(&text).unwrap();
        assert_eq!(snap.capacity, 8);
        assert_eq!(snap.len, 3);
        assert_eq!(snap.recorded, 3);
        assert_eq!(snap.trigger.as_deref(), Some("data_loss"));
        assert_eq!(snap.records.len(), 3);
        let hic = &snap.records[1];
        assert_eq!(hic.cycle, 3);
        assert_eq!(hic.seq, 1);
        assert_eq!(hic.name, "hiccup");
        assert_eq!(hic.field("stream"), Some(&OwnedValue::U64(5)));
        assert_eq!(
            hic.field("reason"),
            Some(&OwnedValue::Str("failed-disk".to_string()))
        );
        assert_eq!(hic.field("ratio"), Some(&OwnedValue::F64(0.5)));
        assert_eq!(hic.field("late"), Some(&OwnedValue::Bool(true)));
        assert_eq!(hic.field("delta"), Some(&OwnedValue::I64(-2)));
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
    fn string_escapes_round_trip() {
        let mut fr = FlightRecorder::new(2);
        fr.record(event(
            Level::Info,
            "odd",
            vec![("s", Value::from(String::from("a\"b\\c\nd\te\u{1}")))],
        ));
        let mut out = Vec::new();
        fr.dump(&mut out).unwrap();
        let snap = FlightSnapshot::parse(&String::from_utf8(out).unwrap()).unwrap();
        assert_eq!(
            snap.records[0].field("s"),
            Some(&OwnedValue::Str("a\"b\\c\nd\te\u{1}".to_string()))
        );
    }
}
