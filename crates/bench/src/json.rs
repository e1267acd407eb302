//! The JSON value the `BENCH_*.json` files are written from (the
//! workspace vendors no serde). Objects keep insertion order, so a file
//! is laid out exactly as its writer lists the keys.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` — also what a non-finite number is written as.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number in Rust's shortest round-trip form: `8`, `0.9`, `1000`.
    Num(f64),
    /// A number with a fixed count of decimals: `Fixed(0.5, 2)` is `0.50`.
    Fixed(f64, usize),
    /// A string.
    Str(String),
    /// An array: on one line when no element is an array or object,
    /// otherwise one element per line.
    Arr(Vec<Json>),
    /// An object written one key per line.
    Obj(Vec<(String, Json)>),
    /// An object written on one line, with everything inside it.
    Row(Vec<(String, Json)>),
}

/// An [`Json::Obj`] from `(key, value)` pairs.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A [`Json::Row`] from `(key, value)` pairs.
pub fn row<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Row(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

/// Counts: every one this crate writes is far below 2^53, so exact.
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl Json {
    /// The whole document, indented two spaces a level, newline at the end.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// `depth` is the indentation level of the line this value starts
    /// on, or `None` once inside a one-line value.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").expect("write to String"),
            Json::Num(n) | Json::Fixed(n, _) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) => write!(out, "{n}").expect("write to String"),
            Json::Fixed(n, decimals) => write!(out, "{n:.decimals$}").expect("write to String"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let nested = items
                    .iter()
                    .any(|i| matches!(i, Json::Arr(_) | Json::Obj(_) | Json::Row(_)));
                let depth = depth.filter(|_| nested);
                write_items(out, ('[', ']'), depth, items, |out, item, depth| {
                    item.write(out, depth);
                });
            }
            Json::Obj(fields) => write_fields(out, depth, fields),
            Json::Row(fields) => write_fields(out, None, fields),
        }
    }
}

fn write_fields(out: &mut String, depth: Option<usize>, fields: &[(String, Json)]) {
    write_items(
        out,
        ('{', '}'),
        depth,
        fields,
        |out, (key, value), depth| {
            write_str(out, key);
            out.push_str(": ");
            value.write(out, depth);
        },
    );
}

/// `open item, item close`: broken over lines at `depth + 1` when
/// `depth` is given, on one line otherwise.
fn write_items<T>(
    out: &mut String,
    (open, close): (char, char),
    depth: Option<usize>,
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T, Option<usize>),
) {
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match depth {
            Some(depth) => newline(out, depth + 1),
            None if i > 0 => out.push(' '),
            None => {}
        }
        write_item(out, item, depth.map(|d| d + 1));
    }
    if let (Some(depth), false) = (depth, items.is_empty()) {
        newline(out, depth);
    }
    out.push(close);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                write!(out, "\\u{:04x}", u32::from(c)).expect("write to String");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let s = Json::from("say \"hi\"\\\n\ttab \u{1} — done");
        assert_eq!(
            s.render(),
            "\"say \\\"hi\\\"\\\\\\n\\ttab \\u0001 — done\"\n"
        );
    }

    #[test]
    fn keys_keep_the_order_they_were_given_in() {
        let doc = obj([
            ("zeta", 1u64.into()),
            ("alpha", 2u64.into()),
            ("mid", true.into()),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"zeta\": 1,\n  \"alpha\": 2,\n  \"mid\": true\n}\n"
        );
    }

    #[test]
    fn float_cells_render_as_the_format_strings_they_replace() {
        for (cell, old) in [
            (Json::Fixed(1384.44, 1), format!("{:.1}", 1384.44)),
            (Json::Fixed(23.305, 2), format!("{:.2}", 23.305)),
            (Json::Fixed(0.98, 3), format!("{:.3}", 0.98)),
            (Json::Fixed(1.0947, 4), format!("{:.4}", 1.0947)),
            (Json::Fixed(0.0, 6), format!("{:.6}", 0.0)),
            (Json::Fixed(8.0, 2), "8.00".to_owned()),
            (Json::Num(0.9), format!("{}", 0.9)),
            (Json::Num(1000.0), "1000".to_owned()),
            (Json::from(140_840_540u64), "140840540".to_owned()),
        ] {
            assert_eq!(cell.render(), format!("{old}\n"));
        }
    }

    #[test]
    fn a_number_json_cannot_hold_becomes_null() {
        assert_eq!(Json::Fixed(1.0 / 0.0, 2).render(), "null\n");
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
    }

    #[test]
    fn rows_and_scalar_arrays_stay_on_one_line() {
        let doc = obj([
            (
                "thread_counts",
                Json::Arr(vec![1u64.into(), 2u64.into(), 8u64.into()]),
            ),
            (
                "seconds",
                row([("1", Json::Fixed(0.5, 2)), ("2", Json::Fixed(0.25, 2))]),
            ),
            (
                "cells",
                Json::Arr(vec![
                    row([
                        ("load", Json::Fixed(0.3, 2)),
                        ("inner", row([("x", Json::Null)])),
                    ]),
                    row([
                        ("load", Json::Fixed(0.6, 2)),
                        ("inner", obj([("x", Json::Null)])),
                    ]),
                ]),
            ),
            ("empty", obj::<&str>([])),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"thread_counts\": [1, 2, 8],\n  \"seconds\": {\"1\": 0.50, \"2\": 0.25},\n  \
             \"cells\": [\n    {\"load\": 0.30, \"inner\": {\"x\": null}},\n    \
             {\"load\": 0.60, \"inner\": {\"x\": null}}\n  ],\n  \"empty\": {}\n}\n"
        );
    }
}
