//! `--compare`: two sets of result files, one row per workload and
//! end-to-end metric, judged against the metric's bound.

use crate::json::Json;
use crate::spec::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, quartiles, spread};
use crate::workloads::CATALOG;
use std::fmt;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// The new median is worse than the base median by more than the bound.
    Regressed,
    /// The base side's own spread is wider than the bound, so a difference
    /// that size means nothing — unless every new run beats every base run.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// By what share of the base median the new median is worse (negative:
/// better). A zero base makes any worsening infinite.
pub fn worsening(better: Better, base: f64, new: f64) -> f64 {
    let worse_by = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if worse_by == 0.0 {
        0.0
    } else if base == 0.0 {
        worse_by.signum() * f64::INFINITY
    } else {
        worse_by / base.abs()
    }
}

pub fn judge(better: Better, bound: f64, base: &[f64], new: &[f64]) -> Verdict {
    if base.len() > 1 && spread(base) > bound {
        let every_new_beats_every_base = new.iter().all(|&n| {
            base.iter().all(|&b| match better {
                Better::Lower => n < b,
                Better::Higher => n > b,
            })
        });
        return if every_new_beats_every_base {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(better, median(base), median(new)) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// One side of a comparison: every file's value of one metric.
fn values(files: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    files
        .iter()
        .filter_map(|f| {
            f.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn digests(files: &[Json], workload: &str) -> Vec<String> {
    let mut seen: Vec<String> = files
        .iter()
        .filter_map(|f| {
            f.get("workloads")?
                .get(workload)?
                .get("sim_digest")?
                .as_str()
                .map(str::to_owned)
        })
        .collect();
    seen.sort();
    seen.dedup();
    seen
}

pub struct Row {
    pub workload: &'static str,
    pub metric: &'static EndToEnd,
    pub base: Vec<f64>,
    pub new: Vec<f64>,
    pub verdict: Verdict,
}

/// Every workload × end-to-end metric both sides report, plus the
/// workloads whose simulated outcome differs between the sides.
pub fn compare(base: &[Json], new: &[Json]) -> (Vec<Row>, Vec<&'static str>) {
    let mut rows = Vec::new();
    let mut sim_changed = Vec::new();
    for (workload, _) in CATALOG {
        for metric in END_TO_END.iter().filter(|m| m.applies_to(workload)) {
            let (b, n) = (
                values(base, workload, metric.name),
                values(new, workload, metric.name),
            );
            if b.is_empty() || n.is_empty() {
                continue;
            }
            rows.push(Row {
                workload,
                metric,
                verdict: judge(metric.better, metric.bound, &b, &n),
                base: b,
                new: n,
            });
        }
        let (b, n) = (digests(base, workload), digests(new, workload));
        if !b.is_empty() && !n.is_empty() && b != n {
            sim_changed.push(workload);
        }
    }
    (rows, sim_changed)
}

/// Print the table; returns whether any row regressed.
pub fn report(rows: &[Row], sim_changed: &[&str]) -> bool {
    println!(
        "{:<19} {:<24} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "base median", "new median", "ratio", "bound"
    );
    for row in rows {
        let (b, n) = (median(&row.base), median(&row.new));
        let (q1, q3) = quartiles(&row.base);
        let ratio = if b == 0.0 { f64::NAN } else { n / b };
        println!(
            "{:<19} {:<24} {:>14.6} {:>14.6} {:>8.4} {:>6.0}%  {} (base of {} runs, quartiles {:.6}..{:.6}, {} new runs; {} {}, {})",
            row.workload,
            row.metric.name,
            b,
            n,
            ratio,
            row.metric.bound * 100.0,
            row.verdict,
            row.base.len(),
            q1,
            q3,
            row.new.len(),
            row.metric.unit,
            row.metric.better.as_str(),
            row.metric.kind.as_str(),
        );
    }
    for workload in sim_changed {
        println!("{workload}: sim changed (sim_digest differs between the sides)");
    }
    let regressed = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} rows: {regressed} regressed, {unresolved} unresolved, {} ok",
        rows.len(),
        rows.len() - regressed - unresolved
    );
    regressed > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_the_bound_is_ok_in_either_direction() {
        let base = [10.0, 10.1, 9.9];
        assert_eq!(
            judge(Better::Lower, 0.10, &base, &[10.8, 10.9, 10.7]),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Higher, 0.10, &base, &[9.2, 9.3, 9.1]),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.10, &base, &[5.0]),
            Verdict::Ok,
            "better is ok"
        );
    }

    #[test]
    fn beyond_the_bound_regresses() {
        let base = [10.0, 10.1, 9.9];
        assert_eq!(
            judge(Better::Lower, 0.10, &base, &[11.2, 11.3, 11.1]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Higher, 0.10, &base, &[8.8, 8.9, 8.7]),
            Verdict::Regressed
        );
        assert_eq!(judge(Better::Higher, 0.10, &base, &[11.2]), Verdict::Ok);
    }

    #[test]
    fn a_base_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert!(spread(&noisy) > 0.10);
        assert_eq!(
            judge(Better::Lower, 0.10, &noisy, &[13.0, 14.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.10, &noisy, &[10.0, 10.0]),
            Verdict::Unresolved
        );
        assert_eq!(judge(Better::Lower, 0.10, &noisy, &[7.0, 7.9]), Verdict::Ok);
        assert_eq!(
            judge(Better::Higher, 0.10, &noisy, &[12.5, 13.0]),
            Verdict::Ok
        );
    }

    #[test]
    fn exact_metrics_regress_on_any_worsening_even_from_zero() {
        assert_eq!(judge(Better::Lower, 0.0, &[0.0, 0.0], &[0.0]), Verdict::Ok);
        assert_eq!(
            judge(Better::Lower, 0.0, &[0.0, 0.0], &[1.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Lower, 0.0, &[0.05], &[0.0500001]),
            Verdict::Regressed
        );
        assert_eq!(judge(Better::Lower, 0.0, &[0.05], &[0.04]), Verdict::Ok);
        assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worsening(Better::Higher, 4.0, 3.0), 0.25);
    }

    fn result(workload: &str, wall: f64, stall: f64, digest: &str) -> Json {
        Json::parse(&format!(
            "{{\"workloads\": {{\"{workload}\": {{\"sim_digest\": \"{digest}\", \"metrics\": {{\
             \"wall_s\": {{\"value\": {wall}, \"unit\": \"s\"}}, \
             \"stall_rate\": {{\"value\": {stall}, \"unit\": \"ratio\"}}}}}}}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn files_compare_row_by_row_and_flag_a_changed_simulation() {
        let base = [
            result("vod-churn", 1.0, 0.0, "aa"),
            result("vod-churn", 1.02, 0.0, "aa"),
        ];
        let same = [result("vod-churn", 1.01, 0.0, "aa")];
        let (rows, changed) = compare(&base, &same);
        assert_eq!(rows.len(), 2, "only the metrics both sides report");
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok) && changed.is_empty());

        let worse = [result("vod-churn", 1.5, 0.01, "bb")];
        let (rows, changed) = compare(&base, &worse);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Regressed));
        assert_eq!(changed, ["vod-churn"]);
        assert!(report(&rows, &changed));
    }
}
