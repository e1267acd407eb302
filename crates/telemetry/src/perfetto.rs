//! Chrome/Perfetto `trace_event` JSON exporter for an event stream.
//!
//! Converts the spans and events a run recorded into the JSON array
//! format `chrome://tracing` and [ui.perfetto.dev] load directly: span
//! opens become `"B"` (begin) records, span closes `"E"` (end), and
//! point events thread-scoped instants (`"i"`). Timestamps are virtual:
//! one simulation cycle maps to one million ticks (a "second" on the
//! trace timeline) plus the per-cycle sequence number, the same stamp
//! the flight dump writes, so the trace is a pure function of the event
//! stream and byte-identical at any thread count.
//!
//! [ui.perfetto.dev]: https://ui.perfetto.dev

use crate::event::{EventKind, EventRecord};
use crate::flight::VirtualClock;
use crate::json;
use std::io::{self, Write};

/// Virtual trace ticks per simulation cycle.
const TICKS_PER_CYCLE: u64 = 1_000_000;

/// Write `events` as a Chrome `trace_event` JSON document.
///
/// # Errors
/// Propagates I/O errors from `out`.
pub fn write_trace<W: Write>(out: &mut W, events: &[EventRecord]) -> io::Result<()> {
    out.write_all(b"{\"traceEvents\":[")?;
    let mut clock = VirtualClock::default();
    let mut first = true;
    for event in events {
        let (cycle, seq) = clock.stamp(event);
        let ts = cycle * TICKS_PER_CYCLE + u64::from(seq);
        if first {
            out.write_all(b"\n")?;
            first = false;
        } else {
            out.write_all(b",\n")?;
        }
        out.write_all(b"{\"name\":")?;
        json::write_str(out, event.name)?;
        out.write_all(b",\"cat\":")?;
        json::write_str(out, event.target)?;
        match event.kind {
            EventKind::SpanOpen => {
                write!(
                    out,
                    ",\"ph\":\"B\",\"ts\":{ts},\"pid\":0,\"tid\":0,\"args\":"
                )?;
                json::write_fields(out, &event.fields)?;
            }
            EventKind::SpanClose => {
                write!(out, ",\"ph\":\"E\",\"ts\":{ts},\"pid\":0,\"tid\":0")?;
            }
            EventKind::Event => {
                write!(
                    out,
                    ",\"ph\":\"i\",\"ts\":{ts},\"pid\":0,\"tid\":0,\"s\":\"t\",\"args\":"
                )?;
                json::write_fields(out, &event.fields)?;
            }
        }
        out.write_all(b"}")?;
    }
    out.write_all(b"\n]}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{event, span, Level, Recorder};

    fn export(rec: &Recorder) -> String {
        let mut out = Vec::new();
        write_trace(&mut out, &rec.take_events()).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn golden_trace_pairs_spans_and_marks_instants() {
        let rec = Recorder::new(Level::Debug);
        {
            let _g = rec.install();
            let _cycle = span!(Level::Debug, "cycle", cycle = 2u64);
            event!(Level::Warn, "hiccup", stream = 5u64);
        }
        let golden = format!(
            "{{\"traceEvents\":[\n\
             {{\"name\":\"cycle\",\"cat\":\"{t}\",\"ph\":\"B\",\"ts\":2000000,\"pid\":0,\"tid\":0,\"args\":{{\"cycle\":2}}}},\n\
             {{\"name\":\"hiccup\",\"cat\":\"{t}\",\"ph\":\"i\",\"ts\":2000001,\"pid\":0,\"tid\":0,\"s\":\"t\",\"args\":{{\"stream\":5}}}},\n\
             {{\"name\":\"cycle\",\"cat\":\"{t}\",\"ph\":\"E\",\"ts\":2000002,\"pid\":0,\"tid\":0}}\n\
             ]}}\n",
            t = module_path!()
        );
        assert_eq!(export(&rec), golden);
    }

    #[test]
    fn empty_stream_is_a_valid_document() {
        assert_eq!(
            export(&Recorder::new(Level::Info)),
            "{\"traceEvents\":[\n]}\n"
        );
    }
}
