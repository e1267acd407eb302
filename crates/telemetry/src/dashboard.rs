//! ASCII dashboard: render a metric [`Registry`] as aligned tables and
//! histogram bars, in the style of `mms_sim::trace`.

use crate::registry::{Histogram, MetricKey, Registry};
use std::fmt::Write as _;

const BAR_WIDTH: usize = 32;

fn key_column(keys: impl Iterator<Item = String>) -> usize {
    keys.map(|k| k.len()).max().unwrap_or(0).max(8)
}

fn render_histogram(out: &mut String, key: &MetricKey, h: &Histogram) {
    let _ = writeln!(
        out,
        "{key}  count {}  sum {:.3}  mean {:.3}  min {:.3}  max {:.3}",
        h.count(),
        h.sum(),
        h.mean(),
        h.min().unwrap_or(0.0),
        h.max().unwrap_or(0.0),
    );
    let peak = h
        .counts()
        .iter()
        .copied()
        .chain(std::iter::once(h.overflow()))
        .max()
        .unwrap_or(0)
        .max(1);
    let mut lower = f64::NEG_INFINITY;
    for (&bound, &count) in h.bounds().iter().zip(h.counts()) {
        let bar = "#".repeat((count as usize * BAR_WIDTH) / peak as usize);
        let _ = writeln!(out, "  ({lower:>9.2}, {bound:>9.2}]  {count:>8}  {bar}");
        lower = bound;
    }
    let bar = "#".repeat((h.overflow() as usize * BAR_WIDTH) / peak as usize);
    let _ = writeln!(
        out,
        "  ({lower:>9.2}, {:>9}]  {:>8}  {bar}",
        "+inf",
        h.overflow()
    );
}

/// Render `metrics` as an ASCII dashboard: a counters table, a gauges
/// table, one bar chart per histogram, then a percentile table for the
/// streaming quantile sets. Returns an empty string for an empty
/// registry.
#[must_use]
pub fn render(metrics: &Registry) -> String {
    let mut out = String::new();
    let counters = metrics.counters();
    if !counters.is_empty() {
        let width = key_column(counters.keys().map(ToString::to_string));
        let _ = writeln!(out, "counters");
        let _ = writeln!(out, "{}", "-".repeat(width + 12));
        for (key, value) in counters {
            let _ = writeln!(out, "{:<width$}  {value:>10}", key.to_string());
        }
    }
    let gauges = metrics.gauges();
    if !gauges.is_empty() {
        let width = key_column(gauges.keys().map(ToString::to_string));
        if !out.is_empty() {
            out.push('\n');
        }
        let _ = writeln!(out, "gauges");
        let _ = writeln!(out, "{}", "-".repeat(width + 12));
        for (key, value) in gauges {
            let _ = writeln!(out, "{:<width$}  {value:>10.3}", key.to_string());
        }
    }
    let histograms = metrics.histograms();
    if !histograms.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        let _ = writeln!(out, "histograms");
        let width = key_column(histograms.keys().map(ToString::to_string));
        let _ = writeln!(out, "{}", "-".repeat(width + 12));
        for (key, h) in histograms {
            render_histogram(&mut out, key, h);
        }
    }
    let quantiles = metrics.quantiles();
    if !quantiles.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        let _ = writeln!(out, "quantiles");
        let width = key_column(quantiles.keys().map(ToString::to_string));
        let _ = writeln!(out, "{}", "-".repeat(width + 12));
        for (key, q) in quantiles {
            let _ = writeln!(
                out,
                "{:<width$}  count {:>8}  p50 {:>10.3}  p95 {:>10.3}  p99 {:>10.3}",
                key.to_string(),
                q.count(),
                q.p50().unwrap_or(0.0),
                q.p95().unwrap_or(0.0),
                q.p99().unwrap_or(0.0),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter, gauge, histogram, quantile, Level, Recorder};

    #[test]
    fn renders_all_four_sections() {
        let rec = Recorder::new(Level::Info);
        {
            let _g = rec.install();
            counter!("sim.delivered", 92, scheme = "SR");
            counter!("sim.hiccups", 6, reason = "failed-disk");
            gauge!("rebuild.progress", 0.5, disk = 2u64);
            for v in [0.3, 4.0, 4.5, 2000.0] {
                histogram!("disk.service_ms", v, disk = 0u64);
            }
            for v in [1.0, 2.0, 10.0] {
                quantile!("workload.wait_cycles", v, scheme = "SR");
            }
        }
        let text = render(&rec.snapshot());
        assert!(text.contains("counters"), "{text}");
        assert!(text.contains("sim.delivered{scheme=SR}"), "{text}");
        assert!(text.contains("92"), "{text}");
        assert!(text.contains("gauges"), "{text}");
        assert!(text.contains("rebuild.progress{disk=2}"), "{text}");
        assert!(text.contains("histograms"), "{text}");
        assert!(text.contains("count 4"), "{text}");
        assert!(text.contains("+inf"), "{text}");
        // Two samples share the (2, 5] bucket → the longest bar.
        let full_bar = "#".repeat(32);
        assert!(text.contains(&full_bar), "{text}");
        assert!(text.contains("quantiles"), "{text}");
        assert!(text.contains("workload.wait_cycles{scheme=SR}"), "{text}");
        assert!(text.contains("p95"), "{text}");
    }

    #[test]
    fn empty_registry_renders_empty() {
        assert_eq!(render(&Registry::new()), "");
    }
}
