//! `compare BASE.json CHANGE.json`: one row per workload × end-to-end
//! metric of two full result sets, with a verdict for each.

use crate::metrics::{compared, Better, EndToEnd, Summary};
use serde_json::Value;

/// How a change's median compares with the base's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Within the bound either way.
    WithinBound,
    /// A side's interquartile range is wider than the bound, and the
    /// two sides' ranges overlap, so the runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// Label printed in the verdict column.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `change` against `base` for metric `m`. The allowed movement
/// is the metric's bound as a share of the base median, or its floor if
/// that is larger. When either side's IQR is wider than the bound the
/// verdict is unresolved, unless every change run reads better (or
/// worse) than every base run by more than the allowed movement.
#[must_use]
pub fn verdict(m: &EndToEnd, base: &Summary, change: &Summary) -> Verdict {
    let allowed = (m.bound * base.median.abs()).max(m.floor);
    // Positive when the change is worse.
    let sign = if m.better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = sign * (change.median - base.median);
    let wide = |s: &Summary| s.spread() > m.bound;
    if wide(base) || wide(change) {
        let (b_lo, b_hi) = (sign * base.min, sign * base.max);
        let (c_lo, c_hi) = (sign * change.min, sign * change.max);
        let (b_lo, b_hi) = (b_lo.min(b_hi), b_lo.max(b_hi));
        let (c_lo, c_hi) = (c_lo.min(c_hi), c_lo.max(c_hi));
        return if c_lo > b_hi && worse_by > allowed {
            Verdict::Worse
        } else if c_hi < b_lo && -worse_by > allowed {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > allowed {
        Verdict::Worse
    } else if -worse_by > allowed {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// One compared workload × metric.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Base side.
    pub base: Summary,
    /// Change side.
    pub change: Summary,
    /// The verdict.
    pub verdict: Verdict,
}

fn summary(v: &Value) -> Option<Summary> {
    let f = |k: &str| v.get(k).and_then(Value::as_f64);
    Some(Summary {
        median: f("median")?,
        q1: f("q1")?,
        q3: f("q3")?,
        min: f("min")?,
        max: f("max")?,
        n: v.get("n").and_then(Value::as_u64)? as usize,
    })
}

fn fail_ratio(w: &Value) -> Option<f64> {
    w.get("fail_ratio").and_then(Value::as_f64)
}

/// Compare two result sets (the documents `run --out` writes). Rows come
/// in the base's workload order; fail ratios (bound 0) come as rows
/// whose summaries hold the single ratio.
pub fn compare(base: &Value, change: &Value) -> Result<Vec<Row>, String> {
    let workloads = base
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or("base has no workloads")?;
    let mut rows = Vec::new();
    for (name, b) in workloads {
        let c = change
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or_else(|| format!("change has no workload {name}"))?;
        for m in compared() {
            let (Some(bs), Some(cs)) = (
                b.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(summary),
                c.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(summary),
            ) else {
                continue;
            };
            rows.push(Row {
                workload: name.clone(),
                metric: m.name.to_string(),
                base: bs,
                change: cs,
                verdict: verdict(m, &bs, &cs),
            });
        }
        if let (Some(bf), Some(cf)) = (fail_ratio(b), fail_ratio(c)) {
            let point = |v: f64| Summary {
                median: v,
                q1: v,
                q3: v,
                min: v,
                max: v,
                n: 1,
            };
            let verdict = if cf > bf {
                Verdict::Worse
            } else if cf < bf {
                Verdict::Better
            } else {
                Verdict::WithinBound
            };
            rows.push(Row {
                workload: name.clone(),
                metric: "fail_ratio".to_string(),
                base: point(bf),
                change: point(cf),
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Four significant digits, in scientific notation outside [0.001, 10⁴).
fn sig(v: f64) -> String {
    if v != 0.0 && !(1e-3..1e4).contains(&v.abs()) {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

/// Print `rows` as a table.
pub fn print(rows: &[Row]) {
    println!(
        "{:<16} {:<13} {:>32} {:>32} {:>8}  verdict",
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "delta"
    );
    for r in rows {
        let delta = if r.base.median == 0.0 {
            0.0
        } else {
            100.0 * (r.change.median - r.base.median) / r.base.median.abs()
        };
        let cell = |s: &Summary| format!("{} [{}, {}]", sig(s.median), sig(s.q1), sig(s.q3));
        println!(
            "{:<16} {:<13} {:>32} {:>32} {:>7.1}%  {}",
            r.workload,
            r.metric,
            cell(&r.base),
            cell(&r.change),
            delta,
            r.verdict.label()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    fn s(median: f64, q1: f64, q3: f64, min: f64, max: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            min,
            max,
            n: 10,
        }
    }

    #[test]
    fn verdicts_on_synthetic_summaries() {
        let wall = END_TO_END[0];
        assert_eq!((wall.name, wall.bound), ("wall_s", 0.25));
        let base = s(10.0, 9.9, 10.1, 9.8, 10.2);
        // 10 % slower: inside the 25 % bound.
        assert_eq!(
            verdict(&wall, &base, &s(11.0, 10.9, 11.1, 10.8, 11.2)),
            Verdict::WithinBound
        );
        // 40 % slower, tight quartiles.
        assert_eq!(
            verdict(&wall, &base, &s(14.0, 13.9, 14.1, 13.8, 14.2)),
            Verdict::Worse
        );
        // 40 % faster.
        assert_eq!(
            verdict(&wall, &base, &s(6.0, 5.9, 6.1, 5.8, 6.2)),
            Verdict::Better
        );
        // Change IQR (50 %) wider than the bound, overlapping ranges.
        assert_eq!(
            verdict(&wall, &base, &s(12.0, 9.0, 15.0, 8.0, 16.0)),
            Verdict::Unresolved
        );
        // Wide IQR, but every change run is faster than every base run
        // by more than the bound.
        assert_eq!(
            verdict(&wall, &base, &s(5.0, 4.0, 6.0, 3.5, 6.5)),
            Verdict::Better
        );
        // Below the absolute floor (0.02 s) a 50 % move is within bound.
        assert_eq!(
            verdict(
                &wall,
                &s(0.01, 0.01, 0.01, 0.01, 0.01),
                &s(0.015, 0.015, 0.015, 0.015, 0.015)
            ),
            Verdict::WithinBound
        );
    }

    #[test]
    fn higher_is_better_metrics_invert_the_direction() {
        let eps = END_TO_END[2];
        assert_eq!(eps.name, "events_per_s");
        let base = s(1000.0, 990.0, 1010.0, 980.0, 1020.0);
        assert_eq!(
            verdict(&eps, &base, &s(600.0, 590.0, 610.0, 580.0, 620.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&eps, &base, &s(1400.0, 1390.0, 1410.0, 1380.0, 1420.0)),
            Verdict::Better
        );
    }

    #[test]
    fn compare_reads_result_sets_and_flags_failures() {
        let doc = |wall: f64, fail: f64| -> Value {
            serde_json::from_str(&format!(
                r#"{{"workloads": {{"scale-1m": {{"fail_ratio": {fail},
                "end_to_end": {{"wall_s": {{"unit": "s", "median": {wall}, "q1": {wall},
                "q3": {wall}, "min": {wall}, "max": {wall}, "n": 5}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let rows = compare(&doc(2.0, 0.0), &doc(3.0, 0.1)).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (rows[0].metric.as_str(), rows[0].verdict),
            ("wall_s", Verdict::Worse)
        );
        assert_eq!(
            (rows[1].metric.as_str(), rows[1].verdict),
            ("fail_ratio", Verdict::Worse)
        );
        let rows = compare(&doc(2.0, 0.0), &doc(2.2, 0.0)).unwrap();
        assert!(rows.iter().all(|r| r.verdict == Verdict::WithinBound));
        assert!(compare(&doc(2.0, 0.0), &serde_json::from_str("{}").unwrap()).is_err());
    }
}
