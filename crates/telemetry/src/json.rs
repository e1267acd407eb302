//! Minimal hand-rolled JSON serialization (the workspace vendors no
//! serde). Output is deterministic: `f64` uses Rust's shortest-roundtrip
//! `Display`, strings escape the JSON control set, and callers emit keys
//! in a fixed order.

use crate::event::Value;
use std::io::{self, Write};

/// Write `s` as a JSON string literal (with surrounding quotes).
pub fn write_str<W: Write>(out: &mut W, s: &str) -> io::Result<()> {
    out.write_all(b"\"")?;
    for c in s.chars() {
        match c {
            '"' => out.write_all(b"\\\"")?,
            '\\' => out.write_all(b"\\\\")?,
            '\n' => out.write_all(b"\\n")?,
            '\r' => out.write_all(b"\\r")?,
            '\t' => out.write_all(b"\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => write!(out, "{c}")?,
        }
    }
    out.write_all(b"\"")
}

/// Write an `f64` as a JSON number. Non-finite values (which JSON cannot
/// represent) are emitted as string literals `"inf"` / `"-inf"` /
/// `"nan"` rather than producing invalid JSON.
pub fn write_f64<W: Write>(out: &mut W, v: f64) -> io::Result<()> {
    if v.is_finite() {
        // Display gives the shortest representation that round-trips,
        // and is deterministic — integral values print without a dot,
        // which is still a valid JSON number.
        write!(out, "{v}")
    } else if v.is_nan() {
        out.write_all(b"\"nan\"")
    } else if v > 0.0 {
        out.write_all(b"\"inf\"")
    } else {
        out.write_all(b"\"-inf\"")
    }
}

/// Write a field value as JSON: integers and booleans bare, a float by
/// [`write_f64`], a string by [`write_str`].
fn write_value<W: Write>(out: &mut W, v: &Value) -> io::Result<()> {
    match v {
        Value::U64(v) => write!(out, "{v}"),
        Value::I64(v) => write!(out, "{v}"),
        Value::F64(v) => write_f64(out, *v),
        Value::Bool(v) => write!(out, "{v}"),
        Value::Str(s) => write_str(out, s),
    }
}

/// Write named fields as one JSON object, `{"k":v,…}`, in their order.
pub fn write_fields<W: Write>(out: &mut W, fields: &[(&'static str, Value)]) -> io::Result<()> {
    out.write_all(b"{")?;
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write_str(out, k)?;
        out.write_all(b":")?;
        write_value(out, v)?;
    }
    out.write_all(b"}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn str_json(s: &str) -> String {
        let mut out = Vec::new();
        write_str(&mut out, s).unwrap();
        String::from_utf8(out).unwrap()
    }

    fn f64_json(v: f64) -> String {
        let mut out = Vec::new();
        write_f64(&mut out, v).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn strings_escape_control_characters() {
        assert_eq!(str_json("plain"), "\"plain\"");
        assert_eq!(str_json("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(str_json("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(str_json("\u{1}"), "\"\\u0001\"");
        assert_eq!(str_json("ünïcode"), "\"ünïcode\"");
    }

    #[test]
    fn floats_round_trip_and_nonfinite_are_strings() {
        assert_eq!(f64_json(1.5), "1.5");
        assert_eq!(f64_json(3.0), "3");
        assert_eq!(f64_json(0.1), "0.1");
        assert_eq!(f64_json(f64::INFINITY), "\"inf\"");
        assert_eq!(f64_json(f64::NEG_INFINITY), "\"-inf\"");
        assert_eq!(f64_json(f64::NAN), "\"nan\"");
    }
}
