//! `compare A.json B.json`: holds the second result file against the
//! first, metric by metric, by each metric's own direction and bound.
//!
//! One row per (workload, metric):
//!
//! * `ok` — B is not worse than A by more than the bound;
//! * `worse` — it is, and the repetitions' spread is inside the bound;
//! * `unresolved` — the spread of the repetitions behind either value is
//!   wider than the bound, so neither verdict can be trusted;
//! * `missing` — B lacks what A has;
//! * `info` — a per-layer metric: no bound, both values shown.
//!
//! Exits non-zero on any `worse` or `missing`.

use crate::json::{parse, Json};
use crate::metrics::Better;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
    Missing,
    Info,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
            Verdict::Info => "info",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Share of A by which B is worse (negative: better).
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// Share of `a` by which `b` is worse, given the better direction.
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Higher => (a - b) / a.abs(),
        Better::Lower => (b - a) / a.abs(),
    }
}

pub fn judge(worse_by: f64, bound: Option<f64>, spread: f64) -> Verdict {
    match bound {
        None => Verdict::Info,
        Some(bound) if spread > bound => Verdict::Unresolved,
        Some(bound) if worse_by > bound => Verdict::Worse,
        Some(_) => Verdict::Ok,
    }
}

fn workloads(doc: &Json) -> Result<&[(String, Json)], String> {
    doc.get("workloads")
        .and_then(Json::as_obj)
        .ok_or_else(|| "no \"workloads\" object".to_owned())
}

/// Compares two parsed result files.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let b_workloads = workloads(b)?;
    for (workload, wa) in workloads(a)? {
        let wb = b_workloads
            .iter()
            .find(|(n, _)| n == workload)
            .map(|p| &p.1);
        let metrics = wa
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{workload}: no \"metrics\" object"))?;
        for (metric, ma) in metrics {
            let num = |m: &Json, k: &str| m.get(k).and_then(Json::as_f64);
            let value_a =
                num(ma, "value").ok_or_else(|| format!("{workload}/{metric}: no value"))?;
            let better = ma
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse)
                .ok_or_else(|| format!("{workload}/{metric}: no direction"))?;
            let mb = wb
                .and_then(|w| w.get("metrics"))
                .and_then(|m| m.get(metric));
            let row = match mb.and_then(|m| num(m, "value").map(|v| (m, v))) {
                None => Row {
                    workload: workload.clone(),
                    metric: metric.clone(),
                    a: value_a,
                    b: f64::NAN,
                    worse_by: f64::NAN,
                    verdict: Verdict::Missing,
                },
                Some((mb, value_b)) => {
                    let spread = [ma, mb]
                        .iter()
                        .filter_map(|m| num(m, "iqr_over_median"))
                        .fold(0.0, f64::max);
                    let w = worse_by(value_a, value_b, better);
                    Row {
                        workload: workload.clone(),
                        metric: metric.clone(),
                        a: value_a,
                        b: value_b,
                        worse_by: w,
                        verdict: judge(w, num(ma, "bound"), spread),
                    }
                }
            };
            rows.push(row);
        }
    }
    Ok(rows)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints the table; `Ok(false)` when any row is `worse` or `missing`.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let rows = compare(&load(a)?, &load(b)?)?;
    println!(
        "{:<24} {:<40} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "A", "B", "worse by"
    );
    for r in &rows {
        println!(
            "{:<24} {:<40} {:>16.6} {:>16.6} {:>8.1}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            100.0 * r.worse_by,
            r.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} worse, {} unresolved, {} missing, {} info",
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved),
        count(Verdict::Missing),
        count(Verdict::Info)
    );
    Ok(count(Verdict::Worse) + count(Verdict::Missing) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(ticks: f64, spread: f64, resident: f64, layer: f64) -> Json {
        parse(&format!(
            r#"{{"workloads": {{"w": {{"metrics": {{
                "ticks_per_s": {{"value": {ticks}, "unit": "1/s", "better": "higher", "bound": 0.1, "iqr_over_median": {spread}}},
                "resident_kb_per_core": {{"value": {resident}, "unit": "kB", "better": "lower", "bound": 0.01}},
                "tn_core.prng_ns_per_draw": {{"value": {layer}, "unit": "ns", "better": "lower"}}
            }}}}}}}}"#
        ))
        .unwrap()
    }

    fn verdicts(a: &Json, b: &Json) -> Vec<Verdict> {
        compare(a, b).unwrap().iter().map(|r| r.verdict).collect()
    }

    #[test]
    fn direction_and_bound_decide() {
        let a = file(100.0, 0.02, 20.0, 1.0);
        // 5 % slower and 0.5 % bigger: inside both bounds.
        assert_eq!(
            verdicts(&a, &file(95.0, 0.02, 20.1, 9.0)),
            [Verdict::Ok, Verdict::Ok, Verdict::Info]
        );
        // 20 % slower: worse. Faster is never worse.
        assert_eq!(
            verdicts(&a, &file(80.0, 0.02, 20.0, 1.0))[0],
            Verdict::Worse
        );
        assert_eq!(verdicts(&a, &file(180.0, 0.02, 20.0, 1.0))[0], Verdict::Ok);
        // An exact metric 2 % up, lower is better: worse.
        assert_eq!(
            verdicts(&a, &file(100.0, 0.02, 20.4, 1.0))[1],
            Verdict::Worse
        );
        assert_eq!(verdicts(&a, &file(100.0, 0.02, 19.0, 1.0))[1], Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_not_ok_or_worse() {
        let a = file(100.0, 0.02, 20.0, 1.0);
        assert_eq!(
            verdicts(&a, &file(70.0, 0.3, 20.0, 1.0))[0],
            Verdict::Unresolved
        );
        assert_eq!(
            verdicts(&file(100.0, 0.3, 20.0, 1.0), &a)[0],
            Verdict::Unresolved
        );
    }

    #[test]
    fn missing_metric_or_workload_is_reported() {
        let a = file(100.0, 0.02, 20.0, 1.0);
        let empty = parse(r#"{"workloads": {}}"#).unwrap();
        assert!(verdicts(&a, &empty).iter().all(|v| *v == Verdict::Missing));
        assert!(compare(&a, &parse("{}").unwrap()).is_err());
    }

    #[test]
    fn worse_by_handles_zero_and_sign() {
        assert_eq!(worse_by(100.0, 90.0, Better::Higher), 0.1);
        assert_eq!(worse_by(100.0, 90.0, Better::Lower), -0.1);
        assert_eq!(worse_by(0.0, 0.0, Better::Lower), 0.0);
        assert!(worse_by(0.0, 1.0, Better::Lower).is_infinite());
    }
}
