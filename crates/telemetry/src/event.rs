//! Event records: what the tracing macros hand to a collector.

use crate::{recorder, Level};
use std::borrow::Cow;
use std::fmt;

/// A field value attached to an event or span.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (static or owned).
    Str(Cow<'static, str>),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

impl Value {
    /// The value as a `u64`, when it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }
}

macro_rules! value_from {
    ($($t:ty => $variant:ident as $cast:ty),* $(,)?) => {
        $(impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::$variant(v as $cast)
            }
        })*
    };
}

value_from!(
    u64 => U64 as u64,
    u32 => U64 as u64,
    u16 => U64 as u64,
    u8 => U64 as u64,
    usize => U64 as u64,
    i64 => I64 as i64,
    i32 => I64 as i64,
    f64 => F64 as f64,
    f32 => F64 as f64,
);

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Str(Cow::Borrowed(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Cow::Owned(v))
    }
}

/// What kind of record an [`EventRecord`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A point-in-time event.
    Event,
    /// A span opened (its fields were captured at open).
    SpanOpen,
    /// A span closed. Open/close pairs nest strictly, so the span tree
    /// can be reconstructed from record order alone — no span ids, which
    /// keeps merged streams from parallel jobs collision-free.
    SpanClose,
}

impl EventKind {
    /// The kind's JSONL tag.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Event => "event",
            EventKind::SpanOpen => "span_open",
            EventKind::SpanClose => "span_close",
        }
    }
}

/// One event or span boundary, as captured by a collector.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Severity.
    pub level: Level,
    /// The emitting module (`module_path!` at the macro site).
    pub target: &'static str,
    /// The event or span name.
    pub name: &'static str,
    /// Event, span open, or span close.
    pub kind: EventKind,
    /// Named fields, in macro-site order.
    pub fields: Vec<(&'static str, Value)>,
}

impl EventRecord {
    /// Look up a field by name.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }
}

/// RAII guard emitted by [`span!`](crate::span): records `SpanOpen` on
/// creation (when the level is enabled) and the matching `SpanClose` on
/// drop.
#[must_use = "a span closes when the guard drops; bind it with `let _span = span!(…)`"]
#[derive(Debug)]
pub struct SpanGuard {
    /// `Some` only if the open record was actually dispatched.
    open: Option<(Level, &'static str, &'static str)>,
}

impl SpanGuard {
    /// Open a span. Dispatches nothing if `level` is filtered out.
    pub fn new(
        level: Level,
        target: &'static str,
        name: &'static str,
        fields: Vec<(&'static str, Value)>,
    ) -> Self {
        if !recorder::enabled(level) {
            return SpanGuard { open: None };
        }
        recorder::dispatch_event(EventRecord {
            level,
            target,
            name,
            kind: EventKind::SpanOpen,
            fields,
        });
        SpanGuard {
            open: Some((level, target, name)),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((level, target, name)) = self.open.take() {
            recorder::dispatch_event(EventRecord {
                level,
                target,
                name,
                kind: EventKind::SpanClose,
                fields: Vec::new(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(3u32), Value::U64(3));
        assert_eq!(Value::from(-2i64), Value::I64(-2));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x"), Value::Str(Cow::Borrowed("x")));
        assert_eq!(Value::from(1.5f64), Value::F64(1.5));
        assert_eq!(Value::from(String::from("y")).to_string(), "y");
    }

    #[test]
    fn field_lookup() {
        let e = EventRecord {
            level: Level::Info,
            target: "t",
            name: "n",
            kind: EventKind::Event,
            fields: vec![("cycle", Value::U64(4))],
        };
        assert_eq!(e.field("cycle"), Some(&Value::U64(4)));
        assert_eq!(e.field("disk"), None);
    }
}
