//! The parent-versus-change rule, applied to the summary lines of two sets
//! of runs of one workload.
//!
//! Run `i` of the parent is paired with run `i` of the change. For each
//! end-to-end metric the verdict is:
//!
//! - `improved` when the change wins at least nine pairs in ten and the
//!   medians differ by more than the parent's interquartile range;
//! - `unresolved` when the parent's own spread is wider than the bound,
//!   unless every change run beats every parent run;
//! - `regressed` when the change's median is worse than the parent's by
//!   more than the bound;
//! - `within-bound` otherwise.

use semisort::Json;

use crate::stats::{is_better, median, quartiles, relative_iqr, within_bound, Better};

/// An end-to-end metric's direction and bound, from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Which direction is better.
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// The `end_to_end` list of a `BENCHMARK.json` document.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(benchmark_json)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok(Bound {
                    name: n.into(),
                    better: b,
                    bound: x,
                }),
                _ => Err(format!("malformed end_to_end entry {m}")),
            }
        })
        .collect()
}

/// The values of metric `name` in summary lines `runs`, one per run.
fn values(runs: &[Json], name: &str) -> Result<Vec<f64>, String> {
    runs.iter()
        .map(|r| {
            r.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("a run has no value for {name}"))
        })
        .collect()
}

/// Pairs in which the change beats the parent, and the number of pairs.
fn wins(b: &Bound, parent: &[f64], change: &[f64]) -> (usize, usize) {
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs)
        .filter(|&i| is_better(change[i], parent[i], b.better))
        .count();
    (wins, pairs)
}

/// The verdict on one metric.
pub fn verdict(b: &Bound, parent: &[f64], change: &[f64]) -> &'static str {
    let (wins, pairs) = wins(b, parent, change);
    let (pm, cm) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| is_better(c, p, b.better)));
    if wins * 10 >= pairs * 9 && is_better(cm, pm, b.better) && (cm - pm).abs() > q3 - q1 {
        "improved"
    } else if relative_iqr(parent) > b.bound && !all_better {
        "unresolved"
    } else if !within_bound(pm, cm, b.better, b.bound) {
        "regressed"
    } else {
        "within-bound"
    }
}

/// Compare two sets of summary lines (one JSON object per line). Returns
/// one report line per metric and whether any metric regressed.
pub fn compare(
    bounds: &[Bound],
    parent: &str,
    change: &str,
) -> Result<(Vec<String>, bool), String> {
    let parse = |text: &str| -> Result<Vec<Json>, String> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(Json::parse)
            .collect()
    };
    let (parent, change) = (parse(parent)?, parse(change)?);
    if parent.is_empty() || change.is_empty() {
        return Err("each side needs at least one run".into());
    }
    let mut lines =
        vec!["metric parent_median parent_iqr change_median change_iqr wins verdict".to_string()];
    let mut regressed = false;
    for b in bounds {
        let (p, c) = (values(&parent, &b.name)?, values(&change, &b.name)?);
        let v = verdict(b, &p, &c);
        regressed |= v == "regressed";
        let iqr = |x: &[f64]| {
            let (q1, q3) = quartiles(x);
            q3 - q1
        };
        let (wins, pairs) = wins(b, &p, &c);
        lines.push(format!(
            "{} {} {} {} {} {wins}/{pairs} {v}",
            b.name,
            median(&p),
            iqr(&p),
            median(&c),
            iqr(&c),
        ));
    }
    Ok((lines, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(better: Better, bound: f64) -> Bound {
        Bound {
            name: "m".into(),
            better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00];
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        let lower = bound(Better::Lower, 0.1);
        assert_eq!(verdict(&lower, &parent, &faster), "improved");
        assert_eq!(verdict(&lower, &parent, &slower), "regressed");
        assert_eq!(verdict(&lower, &parent, &same), "within-bound");
        // For a higher-is-better metric the same numbers read the other way.
        let higher = bound(Better::Higher, 0.1);
        assert_eq!(verdict(&higher, &parent, &faster), "regressed");
        assert_eq!(verdict(&higher, &parent, &slower), "improved");
        // A parent noisier than the bound cannot show "no regression".
        let noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0];
        assert_eq!(verdict(&lower, &noisy, &noisy), "unresolved");
    }

    #[test]
    fn compares_summary_lines() {
        let line = |v: f64| {
            format!("{{\"correct\":true,\"metrics\":{{\"m\":{{\"value\":{v},\"unit\":\"s\"}}}}}}\n")
        };
        let parent: String = [1.0, 1.0, 1.0].iter().map(|&v| line(v)).collect();
        let change: String = [2.0, 2.0, 2.0].iter().map(|&v| line(v)).collect();
        let b = [bound(Better::Lower, 0.1)];
        let (lines, regressed) = compare(&b, &parent, &change).unwrap();
        assert!(regressed);
        assert_eq!(lines[1], "m 1 0 2 0 0/3 regressed");
        assert!(compare(&b, &parent, "").is_err());
        let parsed =
            bounds(r#"{"end_to_end":[{"name":"m","unit":"s","better":"lower","bound":0.1}]}"#)
                .unwrap();
        assert_eq!(parsed, b);
    }
}
