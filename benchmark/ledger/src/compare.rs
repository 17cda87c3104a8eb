//! `ledger --compare BASE.json NEW.json`: per workload and end-to-end
//! metric, is the new run worse than the base by more than the metric's
//! bound?

use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::Reading;
use crate::workloads::NAMES;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the base by more than the bound.
    Worse,
    /// The rounds of one run disagree by more than the bound, so a
    /// difference that size cannot be told from noise: neither "ok" nor
    /// "worse" is claimed.
    Unresolved,
    /// The base run reports the metric and the new run does not: the
    /// workload crashed or stopped reporting it. Counts as worse.
    Missing,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// How much worse `new` is than `base`, in the metric's own terms
/// (positive = worse): a share of the base, or an absolute step.
fn worsening(m: &EndToEnd, base: f64, new: f64) -> f64 {
    let step = match m.better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if m.absolute || base == 0.0 {
        step
    } else {
        step / base.abs()
    }
}

pub fn judge(m: &EndToEnd, base: &Reading, new: &Reading) -> Verdict {
    let clear_of = |a: &Reading, b: &Reading| match m.better {
        // Every part of `a` reads better than every part of `b`.
        Better::Lower => a.max < b.min,
        Better::Higher => a.min > b.max,
    };
    let noisy = !m.absolute && (base.spread() > m.bound || new.spread() > m.bound);
    if noisy && !clear_of(new, base) && !clear_of(base, new) {
        return Verdict::Unresolved;
    }
    if worsening(m, base.value, new.value) > m.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One row of the comparison: a workload × end-to-end metric the base
/// run reports.
struct Row {
    workload: &'static str,
    metric: &'static EndToEnd,
    base: f64,
    /// NaN when the new run does not report it.
    new: f64,
    verdict: Verdict,
}

fn rows(base: &Json, new: &Json) -> Vec<Row> {
    let reading = |doc: &Json, workload: &str, metric: &str| -> Option<Reading> {
        Reading::from_json(
            doc.get("workloads")?
                .get(workload)?
                .get("end_to_end")?
                .get(metric)?,
        )
    };
    let mut rows = Vec::new();
    for workload in NAMES {
        for metric in END_TO_END {
            // A metric the base does not report on this workload has
            // nothing to be compared with.
            let Some(b) = reading(base, workload, metric.name) else {
                continue;
            };
            let n = reading(new, workload, metric.name);
            rows.push(Row {
                workload,
                metric,
                base: b.value,
                new: n.as_ref().map_or(f64::NAN, |n| n.value),
                verdict: n.map_or(Verdict::Missing, |n| judge(metric, &b, &n)),
            });
        }
    }
    rows
}

pub fn run(base: &Path, new: &Path) -> Result<ExitCode, String> {
    let rows = rows(&load(base)?, &load(new)?);
    println!(
        "{:<16} {:<15} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    for r in &rows {
        let bound = if r.metric.absolute {
            format!("+{}", r.metric.bound)
        } else {
            format!("{:.0}%", r.metric.bound * 100.0)
        };
        let ratio = if r.base == 0.0 || r.new.is_nan() {
            "-".to_string()
        } else {
            format!("{:.3}", r.new / r.base)
        };
        println!(
            "{:<16} {:<15} {:>12.4} {:>12.4} {ratio:>8} {bound:>7}  {}",
            r.workload,
            r.metric.name,
            r.base,
            r.new,
            r.verdict.as_str()
        );
    }
    let worse = rows
        .iter()
        .filter(|r| matches!(r.verdict, Verdict::Worse | Verdict::Missing))
        .count();
    println!("{worse} worse or missing");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64, absolute: bool) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "u",
            better,
            bound,
            absolute,
            on: |_| true,
        }
    }

    fn steady(v: f64) -> Reading {
        Reading::new(v, vec![v * 0.99, v, v * 1.01], vec![1000; 3])
    }

    #[test]
    fn worse_means_past_the_bound_in_the_metrics_bad_direction() {
        let lat = metric(Better::Lower, 0.10, false);
        assert_eq!(judge(&lat, &steady(1.0), &steady(1.05)), Verdict::Ok);
        assert_eq!(judge(&lat, &steady(1.0), &steady(1.2)), Verdict::Worse);
        assert_eq!(judge(&lat, &steady(1.0), &steady(0.5)), Verdict::Ok);
        let rps = metric(Better::Higher, 0.10, false);
        assert_eq!(judge(&rps, &steady(1000.0), &steady(1200.0)), Verdict::Ok);
        assert_eq!(judge(&rps, &steady(1000.0), &steady(850.0)), Verdict::Worse);
    }

    #[test]
    fn rounds_that_disagree_by_more_than_the_bound_leave_it_unresolved() {
        let lat = metric(Better::Lower, 0.10, false);
        let noisy = Reading::new(1.0, vec![0.8, 1.0, 1.3], vec![1000; 3]);
        assert_eq!(judge(&lat, &steady(1.0), &noisy), Verdict::Unresolved);
        // Unless every part of one side clears every part of the other.
        let far = Reading::new(2.5, vec![2.0, 2.5, 3.2], vec![1000; 3]);
        assert_eq!(judge(&lat, &steady(1.0), &far), Verdict::Worse);
        let fast = Reading::new(0.3, vec![0.2, 0.3, 0.4], vec![1000; 3]);
        assert_eq!(judge(&lat, &steady(1.0), &fast), Verdict::Ok);
    }

    #[test]
    fn a_ratio_that_is_always_zero_is_judged_by_an_absolute_step() {
        let fail = metric(Better::Lower, 0.001, true);
        let flat = |v: f64| Reading::new(v, vec![v; 3], vec![1000; 3]);
        assert_eq!(judge(&fail, &flat(0.0), &flat(0.0)), Verdict::Ok);
        assert_eq!(judge(&fail, &flat(0.0), &flat(0.0005)), Verdict::Ok);
        assert_eq!(judge(&fail, &flat(0.0), &flat(0.01)), Verdict::Worse);
    }

    /// A workload that crashed, or a metric that stopped being reported,
    /// must not compare as "nothing worse".
    #[test]
    fn a_metric_the_new_run_lost_is_missing_not_skipped() {
        let doc = |metrics: &[(&str, f64)]| {
            let mut e2e = Json::obj();
            for (name, v) in metrics {
                e2e.set(
                    name,
                    Reading::median_of(vec![*v; 5], vec![1000; 5]).to_json("u"),
                );
            }
            let (mut w, mut workloads, mut doc) = (Json::obj(), Json::obj(), Json::obj());
            w.set("end_to_end", e2e);
            workloads.set("compute_dig", w);
            doc.set("workloads", workloads);
            doc
        };
        let base = doc(&[("req_per_s", 370.0), ("lat_p50_ms", 2.7)]);
        let new = doc(&[("req_per_s", 372.0), ("tokens_per_s", 5.0)]);
        let verdicts: Vec<_> = rows(&base, &new)
            .iter()
            .map(|r| (r.workload, r.metric.name, r.verdict))
            .collect();
        assert_eq!(
            verdicts,
            [
                ("compute_dig", "req_per_s", Verdict::Ok),
                ("compute_dig", "lat_p50_ms", Verdict::Missing),
            ]
        );
        // A whole workload gone from the new file loses every metric.
        let gone = rows(&base, &Json::obj());
        assert!(gone.len() == 2 && gone.iter().all(|r| r.verdict == Verdict::Missing));
    }
}
