//! ASCII rendering of read schedules in the style of the paper's figures.
//!
//! Each rendered grid has one row per cycle and one column per disk; a
//! cell lists the blocks read from that disk in that cycle, labelled
//! `<obj>.<group>.<idx>` for data and `<obj>.<group>.p` for parity —
//! mirroring the `X0 Y0 Z0 … X0p` columns of Figures 3, 5, and 8.

use mms_disk::DiskId;
use mms_layout::BlockKind;
use mms_sched::CyclePlan;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Render the read schedules of `plans` over `disks` drives.
///
/// `names` optionally maps object ids to short labels (`A`, `X`, …); ids
/// are printed numerically otherwise.
#[must_use]
pub fn render_schedule(plans: &[CyclePlan], disks: usize, names: &BTreeMap<u64, &str>) -> String {
    let mut out = String::new();
    // Header.
    let _ = write!(out, "{:>7} |", "cycle");
    for d in 0..disks {
        let _ = write!(out, " {:<12}", format!("disk{d}"));
    }
    out.push('\n');
    let _ = writeln!(out, "{}", "-".repeat(9 + 13 * disks));
    for plan in plans {
        let _ = write!(out, "{:>7} |", plan.cycle);
        for d in 0..disks {
            let cell: Vec<String> = plan
                .reads_on(DiskId(d as u32))
                .iter()
                .map(|r| {
                    let obj = names
                        .get(&r.addr.object.0)
                        .map_or_else(|| r.addr.object.0.to_string(), |s| (*s).to_string());
                    match r.addr.kind {
                        BlockKind::Data(i) => format!("{obj}.{}.{i}", r.addr.group),
                        BlockKind::Parity => format!("{obj}.{}.p", r.addr.group),
                    }
                })
                .collect();
            let _ = write!(out, " {:<12}", cell.join(","));
        }
        out.push('\n');
    }
    out
}

/// Render a one-line summary of a plan's deliveries and hiccups.
#[must_use]
pub fn render_deliveries(plan: &CyclePlan, names: &BTreeMap<u64, &str>) -> String {
    let label = |object: u64| {
        names
            .get(&object)
            .map_or_else(|| object.to_string(), |s| (*s).to_string())
    };
    let delivered: Vec<String> = plan
        .deliveries
        .iter()
        .map(|d| {
            let tag = if d.reconstructed { "*" } else { "" };
            match d.addr.kind {
                BlockKind::Data(i) => {
                    format!("{}{}.{}.{i}", tag, label(d.addr.object.0), d.addr.group)
                }
                BlockKind::Parity => {
                    format!("{}{}.{}.p", tag, label(d.addr.object.0), d.addr.group)
                }
            }
        })
        .collect();
    let hiccups: Vec<String> = plan
        .hiccups
        .iter()
        .map(|h| match h.addr.kind {
            BlockKind::Data(i) => {
                format!(
                    "!{}.{}.{i}[{}]",
                    label(h.addr.object.0),
                    h.addr.group,
                    h.reason
                )
            }
            BlockKind::Parity => format!("!{}.{}.p", label(h.addr.object.0), h.addr.group),
        })
        .collect();
    format!(
        "cycle {:>4}: deliver [{}] hiccup [{}]",
        plan.cycle,
        delivered.join(" "),
        hiccups.join(" ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mms_layout::{BlockAddr, ObjectId};
    use mms_sched::{PlannedRead, ReadPurpose, StreamId};

    fn sample_plan() -> CyclePlan {
        let mut p = CyclePlan::empty(1);
        p.reads.push(
            DiskId(0),
            PlannedRead {
                stream: StreamId(0),
                addr: BlockAddr::data(ObjectId(0), 0, 0),
                purpose: ReadPurpose::Delivery,
            },
        );
        p.reads.push(
            DiskId(4),
            PlannedRead {
                stream: StreamId(0),
                addr: BlockAddr::parity(ObjectId(0), 0),
                purpose: ReadPurpose::Parity,
            },
        );
        p
    }

    #[test]
    fn schedule_grid_contains_labels() {
        let names = BTreeMap::from([(0u64, "X")]);
        let s = render_schedule(&[sample_plan()], 5, &names);
        assert!(s.contains("X.0.0"), "{s}");
        assert!(s.contains("X.0.p"), "{s}");
        assert!(s.contains("disk4"), "{s}");
    }

    #[test]
    fn unnamed_objects_print_ids() {
        let s = render_schedule(&[sample_plan()], 5, &BTreeMap::new());
        assert!(s.contains("0.0.0"), "{s}");
    }

    #[test]
    fn delivery_line_marks_reconstructions() {
        let mut p = CyclePlan::empty(3);
        p.deliveries.push(mms_sched::Delivery {
            stream: StreamId(1),
            addr: BlockAddr::data(ObjectId(2), 1, 2),
            reconstructed: true,
        });
        let names = BTreeMap::from([(2u64, "Y")]);
        let line = render_deliveries(&p, &names);
        assert!(line.contains("*Y.1.2"), "{line}");
    }
}

/// Render a buffer-occupancy series as an ASCII bar chart (one row per
/// cycle), in the style of the paper's Figure 4.
#[must_use]
pub fn render_buffer_series(series: &[usize], max_rows: usize) -> String {
    let mut out = String::new();
    let peak = series.iter().copied().max().unwrap_or(0).max(1);
    let width = 48usize;
    let _ = writeln!(out, "{:>6}  {:>6}  (peak {peak})", "cycle", "tracks");
    for (t, &v) in series.iter().enumerate().take(max_rows) {
        let bar = "#".repeat(v * width / peak);
        let _ = writeln!(out, "{t:>6}  {v:>6}  {bar}");
    }
    if series.len() > max_rows {
        let _ = writeln!(
            out,
            "{:>6}  … ({} more cycles)",
            "",
            series.len() - max_rows
        );
    }
    out
}

#[cfg(test)]
mod buffer_series_tests {
    use super::*;

    #[test]
    fn renders_bars_proportionally() {
        let s = render_buffer_series(&[0, 5, 10], 10);
        assert!(s.contains("peak 10"), "{s}");
        let lines: Vec<&str> = s.lines().collect();
        let bar_len = |l: &str| l.chars().filter(|&c| c == '#').count();
        assert_eq!(bar_len(lines[1]), 0);
        assert_eq!(bar_len(lines[3]), 2 * bar_len(lines[2]));
    }

    #[test]
    fn truncates_long_series() {
        let s = render_buffer_series(&vec![1; 100], 5);
        assert!(s.contains("95 more cycles"), "{s}");
    }

    #[test]
    fn empty_series_is_safe() {
        let s = render_buffer_series(&[], 5);
        assert!(s.contains("peak 1"));
    }
}
