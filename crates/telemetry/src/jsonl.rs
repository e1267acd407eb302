//! JSON-lines export: one JSON object per line, first the event stream
//! in record order, then one snapshot line per metric.
//!
//! ## Schema
//!
//! Event/span lines:
//!
//! ```json
//! {"t":"event","level":"warn","target":"mms_sim::simulator","name":"hiccup","fields":{"cycle":4,"reason":"failed-disk"}}
//! {"t":"span_open","level":"debug","target":"mms_sim::simulator","name":"cycle","fields":{"cycle":4}}
//! {"t":"span_close","level":"debug","target":"mms_sim::simulator","name":"cycle"}
//! ```
//!
//! A flight dump's lines are the same lines stamped with their virtual
//! time, `"cycle"` and `"seq"` after the kind tag (see
//! [`flight::dump`](crate::flight::dump)).
//!
//! Metric lines (from a [`Registry`], key-ordered and therefore
//! deterministic):
//!
//! ```json
//! {"t":"counter","name":"sim.delivered","labels":{"scheme":"SR"},"value":92}
//! {"t":"gauge","name":"rebuild.progress","labels":{"disk":2},"value":0.5}
//! {"t":"histogram","name":"disk.service_ms","labels":{"disk":0},"count":12,"sum":130.1,"min":2.5,"max":19.9,"bounds":[…],"counts":[…],"overflow":0}
//! {"t":"quantile","name":"workload.wait_cycles","labels":{"scheme":"SR"},"count":40,"sum":91.5,"p50":1.5,"p95":6,"p99":9}
//! ```

use crate::event::{EventKind, EventRecord};
use crate::json;
use crate::registry::{Histogram, LabelValue, Labels, MetricKey, Registry};
use std::io::{self, Write};

fn write_label_value<W: Write>(out: &mut W, v: &LabelValue) -> io::Result<()> {
    match v {
        LabelValue::U64(v) => write!(out, "{v}"),
        LabelValue::Str(s) => json::write_str(out, s),
        LabelValue::Bool(v) => write!(out, "{v}"),
    }
}

fn write_labels<W: Write>(out: &mut W, labels: &Labels) -> io::Result<()> {
    out.write_all(b"{")?;
    for (i, (k, v)) in labels.pairs().iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        json::write_str(out, k)?;
        out.write_all(b":")?;
        write_label_value(out, v)?;
    }
    out.write_all(b"}")
}

fn write_metric_head<W: Write>(out: &mut W, kind: &str, key: &MetricKey) -> io::Result<()> {
    write!(out, "{{\"t\":\"{kind}\",\"name\":")?;
    json::write_str(out, key.name)?;
    out.write_all(b",\"labels\":")?;
    write_labels(out, &key.labels)
}

/// Write one event or span boundary as a JSONL line (with trailing
/// newline). A `stamp`, the record's virtual `(cycle, seq)`, follows
/// the kind tag as `"cycle"` and `"seq"`: the flight dump's lines carry
/// it, the `--telemetry` export's do not.
pub fn write_event<W: Write>(
    out: &mut W,
    event: &EventRecord,
    stamp: Option<(u64, u32)>,
) -> io::Result<()> {
    write!(out, "{{\"t\":\"{}\"", event.kind.as_str())?;
    if let Some((cycle, seq)) = stamp {
        write!(out, ",\"cycle\":{cycle},\"seq\":{seq}")?;
    }
    write!(out, ",\"level\":\"{}\",\"target\":", event.level.as_str())?;
    json::write_str(out, event.target)?;
    out.write_all(b",\"name\":")?;
    json::write_str(out, event.name)?;
    if event.kind != EventKind::SpanClose {
        out.write_all(b",\"fields\":")?;
        json::write_fields(out, &event.fields)?;
    }
    out.write_all(b"}\n")
}

fn write_histogram_body<W: Write>(out: &mut W, h: &Histogram) -> io::Result<()> {
    write!(out, ",\"count\":{},\"sum\":", h.count())?;
    json::write_f64(out, h.sum())?;
    if let (Some(min), Some(max)) = (h.min(), h.max()) {
        out.write_all(b",\"min\":")?;
        json::write_f64(out, min)?;
        out.write_all(b",\"max\":")?;
        json::write_f64(out, max)?;
    }
    out.write_all(b",\"bounds\":[")?;
    for (i, b) in h.bounds().iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        json::write_f64(out, *b)?;
    }
    out.write_all(b"],\"counts\":[")?;
    for (i, c) in h.counts().iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write!(out, "{c}")?;
    }
    write!(out, "],\"overflow\":{}", h.overflow())
}

/// Write every metric in `metrics` as JSONL lines: counters, then
/// gauges, then histograms, then quantile sets, each key-ordered.
pub fn write_snapshot<W: Write>(out: &mut W, metrics: &Registry) -> io::Result<()> {
    for (key, value) in metrics.counters() {
        write_metric_head(out, "counter", key)?;
        writeln!(out, ",\"value\":{value}}}")?;
    }
    for (key, value) in metrics.gauges() {
        write_metric_head(out, "gauge", key)?;
        out.write_all(b",\"value\":")?;
        json::write_f64(out, *value)?;
        out.write_all(b"}\n")?;
    }
    for (key, h) in metrics.histograms() {
        write_metric_head(out, "histogram", key)?;
        write_histogram_body(out, h)?;
        out.write_all(b"}\n")?;
    }
    for (key, q) in metrics.quantiles() {
        write_metric_head(out, "quantile", key)?;
        write!(out, ",\"count\":{},\"sum\":", q.count())?;
        json::write_f64(out, q.sum())?;
        for (tag, value) in [("p50", q.p50()), ("p95", q.p95()), ("p99", q.p99())] {
            write!(out, ",\"{tag}\":")?;
            match value {
                Some(v) => json::write_f64(out, v)?,
                None => out.write_all(b"null")?,
            }
        }
        out.write_all(b"}\n")?;
    }
    Ok(())
}

/// Write the full export: the event stream in record order, then the
/// metrics. This is the format `mms-ctl --telemetry` produces.
pub fn write_all<W: Write>(
    out: &mut W,
    events: &[EventRecord],
    metrics: &Registry,
) -> io::Result<()> {
    for event in events {
        write_event(out, event, None)?;
    }
    write_snapshot(out, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter, event, gauge, histogram, span, Level, Recorder};

    fn export(rec: &Recorder) -> String {
        let mut out = Vec::new();
        write_all(&mut out, &rec.take_events(), &rec.snapshot()).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn lines_are_valid_looking_json_objects() {
        let rec = Recorder::new(Level::Debug);
        {
            let _g = rec.install();
            let _s = span!(Level::Debug, "cycle", cycle = 4u64);
            event!(Level::Warn, "hiccup", reason = "failed-disk", track = "Y1");
            counter!("sim.delivered", 92, scheme = "SR");
            gauge!("rebuild.progress", 0.5, disk = 2u64);
            histogram!("disk.service_ms", 11.9, disk = 0u64);
        }
        let text = export(&rec);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6, "open, event, close, 3 metric lines");
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(lines[0].contains("\"t\":\"span_open\""));
        assert!(lines[1].contains("\"reason\":\"failed-disk\""));
        assert!(lines[2].contains("\"t\":\"span_close\""));
        assert!(!lines[2].contains("fields"), "close lines carry no fields");
        assert!(lines[3].contains("\"t\":\"counter\"") && lines[3].contains("\"value\":92"));
        assert!(lines[4].contains("\"labels\":{\"disk\":2}"));
        assert!(lines[5].contains("\"overflow\":0"));
    }

    #[test]
    fn quantile_lines_carry_all_three_percentiles() {
        let rec = Recorder::new(Level::Info);
        {
            let _g = rec.install();
            for v in [1.0, 2.0, 3.0] {
                crate::quantile!("wait", v, scheme = "SR");
            }
        }
        let text = export(&rec);
        assert!(
            text.contains(
                "{\"t\":\"quantile\",\"name\":\"wait\",\"labels\":{\"scheme\":\"SR\"},\
                 \"count\":3,\"sum\":6,\"p50\":2,\"p95\":3,\"p99\":3}"
            ),
            "{text}"
        );
    }

    #[test]
    fn histogram_line_counts_sum_to_count() {
        let rec = Recorder::new(Level::Info);
        {
            let _g = rec.install();
            for v in [0.1, 3.0, 2000.0] {
                histogram!("svc", v);
            }
        }
        let text = export(&rec);
        assert!(text.contains("\"count\":3"));
        assert!(text.contains("\"overflow\":1"));
    }

    #[test]
    fn export_is_deterministic() {
        let run = || {
            let rec = Recorder::new(Level::Debug);
            {
                let _g = rec.install();
                counter!("z.last", 1);
                counter!("a.first", 2, scheme = "NC");
                event!(Level::Info, "e", x = 1.25f64);
            }
            export(&rec)
        };
        assert_eq!(run(), run());
        // Counters export in key order regardless of write order.
        let text = run();
        let a = text.find("a.first").unwrap();
        let z = text.find("z.last").unwrap();
        assert!(a < z);
    }
}
