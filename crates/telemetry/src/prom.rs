//! Prometheus text-exposition exporter for a metric [`Registry`].
//!
//! Emits the classic text format (version 0.0.4): one `# TYPE` line per
//! metric name, then one sample line per label set. Counters export
//! as-is, gauges as gauges, histograms as cumulative `_bucket` series
//! plus `_sum`/`_count`, and streaming quantile sets as summaries with
//! `quantile` labels. Metric names are sanitized to the Prometheus
//! charset (`[a-zA-Z0-9_:]`, so `sim.delivered` becomes
//! `sim_delivered`).
//!
//! The output is a pure function of the (key-ordered) registry, so it
//! is byte-identical at any thread count.

use crate::quantile::QuantileSet;
use crate::registry::{Histogram, Labels, MetricKey, Registry};
use std::io::{self, Write};

/// Write `name` with every non-Prometheus character replaced by `_`.
fn write_name<W: Write>(out: &mut W, name: &str) -> io::Result<()> {
    for c in name.chars() {
        let c = if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            c
        } else {
            '_'
        };
        write!(out, "{c}")?;
    }
    Ok(())
}

/// Write a label value as a quoted, escaped Prometheus string.
fn write_label_str<W: Write>(out: &mut W, s: &str) -> io::Result<()> {
    out.write_all(b"\"")?;
    for c in s.chars() {
        match c {
            '\\' => out.write_all(b"\\\\")?,
            '"' => out.write_all(b"\\\"")?,
            '\n' => out.write_all(b"\\n")?,
            c => write!(out, "{c}")?,
        }
    }
    out.write_all(b"\"")
}

/// Write `{k="v",…}`, appending `extra` last; nothing for no labels.
fn write_labels<W: Write>(
    out: &mut W,
    labels: &Labels,
    extra: Option<(&str, &str)>,
) -> io::Result<()> {
    if labels.is_empty() && extra.is_none() {
        return Ok(());
    }
    out.write_all(b"{")?;
    let mut first = true;
    for (k, v) in labels.pairs() {
        if !first {
            out.write_all(b",")?;
        }
        first = false;
        write!(out, "{k}=")?;
        write_label_str(out, &v.to_string())?;
    }
    if let Some((k, v)) = extra {
        if !first {
            out.write_all(b",")?;
        }
        write!(out, "{k}=")?;
        write_label_str(out, v)?;
    }
    out.write_all(b"}")
}

/// Write an `f64` sample value in Prometheus spelling (`+Inf`, `-Inf`,
/// `NaN` for non-finite values).
fn write_num<W: Write>(out: &mut W, v: f64) -> io::Result<()> {
    if v.is_finite() {
        write!(out, "{v}")
    } else if v.is_nan() {
        out.write_all(b"NaN")
    } else if v > 0.0 {
        out.write_all(b"+Inf")
    } else {
        out.write_all(b"-Inf")
    }
}

/// Emit a `# TYPE` line the first time `name` appears in its section.
fn type_line<'a, W: Write>(
    out: &mut W,
    last: &mut Option<&'a str>,
    name: &'a str,
    kind: &str,
) -> io::Result<()> {
    if *last != Some(name) {
        *last = Some(name);
        out.write_all(b"# TYPE ")?;
        write_name(out, name)?;
        writeln!(out, " {kind}")?;
    }
    Ok(())
}

fn write_histogram<W: Write>(out: &mut W, key: &MetricKey, h: &Histogram) -> io::Result<()> {
    let mut cumulative = 0u64;
    for (bound, count) in h.bounds().iter().zip(h.counts()) {
        cumulative += count;
        write_name(out, key.name)?;
        out.write_all(b"_bucket")?;
        let le = format!("{bound}");
        write_labels(out, &key.labels, Some(("le", le.as_str())))?;
        writeln!(out, " {cumulative}")?;
    }
    cumulative += h.overflow();
    write_name(out, key.name)?;
    out.write_all(b"_bucket")?;
    write_labels(out, &key.labels, Some(("le", "+Inf")))?;
    writeln!(out, " {cumulative}")?;
    write_name(out, key.name)?;
    out.write_all(b"_sum")?;
    write_labels(out, &key.labels, None)?;
    out.write_all(b" ")?;
    write_num(out, h.sum())?;
    out.write_all(b"\n")?;
    write_name(out, key.name)?;
    out.write_all(b"_count")?;
    write_labels(out, &key.labels, None)?;
    writeln!(out, " {}", h.count())
}

fn write_quantiles<W: Write>(out: &mut W, key: &MetricKey, q: &QuantileSet) -> io::Result<()> {
    for (tag, value) in [("0.5", q.p50()), ("0.95", q.p95()), ("0.99", q.p99())] {
        let Some(value) = value else { continue };
        write_name(out, key.name)?;
        write_labels(out, &key.labels, Some(("quantile", tag)))?;
        out.write_all(b" ")?;
        write_num(out, value)?;
        out.write_all(b"\n")?;
    }
    write_name(out, key.name)?;
    out.write_all(b"_sum")?;
    write_labels(out, &key.labels, None)?;
    out.write_all(b" ")?;
    write_num(out, q.sum())?;
    out.write_all(b"\n")?;
    write_name(out, key.name)?;
    out.write_all(b"_count")?;
    write_labels(out, &key.labels, None)?;
    writeln!(out, " {}", q.count())
}

/// Write `metrics` in Prometheus text-exposition format: counters,
/// gauges, histograms, then quantile summaries, each key-ordered.
///
/// # Errors
/// Propagates I/O errors from `out`.
pub fn write_snapshot<W: Write>(out: &mut W, metrics: &Registry) -> io::Result<()> {
    let mut last: Option<&str> = None;
    for (key, value) in metrics.counters() {
        type_line(out, &mut last, key.name, "counter")?;
        write_name(out, key.name)?;
        write_labels(out, &key.labels, None)?;
        writeln!(out, " {value}")?;
    }
    let mut last: Option<&str> = None;
    for (key, value) in metrics.gauges() {
        type_line(out, &mut last, key.name, "gauge")?;
        write_name(out, key.name)?;
        write_labels(out, &key.labels, None)?;
        out.write_all(b" ")?;
        write_num(out, *value)?;
        out.write_all(b"\n")?;
    }
    let mut last: Option<&str> = None;
    for (key, h) in metrics.histograms() {
        type_line(out, &mut last, key.name, "histogram")?;
        write_histogram(out, key, h)?;
    }
    let mut last: Option<&str> = None;
    for (key, q) in metrics.quantiles() {
        type_line(out, &mut last, key.name, "summary")?;
        write_quantiles(out, key, q)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter, gauge, histogram, quantile, Level, Recorder};

    fn export(rec: &Recorder) -> String {
        let mut out = Vec::new();
        write_snapshot(&mut out, &rec.snapshot()).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn golden_export_covers_every_metric_kind() {
        let rec = Recorder::new(Level::Info);
        {
            let _g = rec.install();
            counter!("sim.delivered", 92, scheme = "SR");
            gauge!("rebuild.progress", 0.5, disk = 2u64);
            for v in [0.5, 5.0, 100.0] {
                histogram!("disk.service_ms", v, disk = 0u64);
            }
            for v in [1.0, 2.0, 3.0] {
                quantile!("workload.wait_cycles", v, scheme = "SR");
            }
        }
        let golden = "\
# TYPE sim_delivered counter
sim_delivered{scheme=\"SR\"} 92
# TYPE rebuild_progress gauge
rebuild_progress{disk=\"2\"} 0.5
# TYPE disk_service_ms histogram
disk_service_ms_bucket{disk=\"0\",le=\"0.5\"} 1
disk_service_ms_bucket{disk=\"0\",le=\"1\"} 1
disk_service_ms_bucket{disk=\"0\",le=\"2\"} 1
disk_service_ms_bucket{disk=\"0\",le=\"5\"} 2
disk_service_ms_bucket{disk=\"0\",le=\"10\"} 2
disk_service_ms_bucket{disk=\"0\",le=\"25\"} 2
disk_service_ms_bucket{disk=\"0\",le=\"50\"} 2
disk_service_ms_bucket{disk=\"0\",le=\"100\"} 3
disk_service_ms_bucket{disk=\"0\",le=\"250\"} 3
disk_service_ms_bucket{disk=\"0\",le=\"500\"} 3
disk_service_ms_bucket{disk=\"0\",le=\"1000\"} 3
disk_service_ms_bucket{disk=\"0\",le=\"+Inf\"} 3
disk_service_ms_sum{disk=\"0\"} 105.5
disk_service_ms_count{disk=\"0\"} 3
# TYPE workload_wait_cycles summary
workload_wait_cycles{scheme=\"SR\",quantile=\"0.5\"} 2
workload_wait_cycles{scheme=\"SR\",quantile=\"0.95\"} 3
workload_wait_cycles{scheme=\"SR\",quantile=\"0.99\"} 3
workload_wait_cycles_sum{scheme=\"SR\"} 6
workload_wait_cycles_count{scheme=\"SR\"} 3
";
        let got = export(&rec);
        assert_eq!(got, golden, "got:\n{got}");
    }

    #[test]
    fn export_is_deterministic_and_escaped() {
        let run = || {
            let rec = Recorder::new(Level::Info);
            {
                let _g = rec.install();
                counter!("z.last", 1);
                counter!("a.first", 2, mode = String::from("de\"graded"));
            }
            export(&rec)
        };
        let text = run();
        assert_eq!(text, run());
        assert!(text.contains("a_first{mode=\"de\\\"graded\"} 2"), "{text}");
        assert!(text.find("a_first").unwrap() < text.find("z_last").unwrap());
    }
}
