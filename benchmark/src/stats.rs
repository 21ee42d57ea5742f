//! Order statistics and the regression rule.
//!
//! Percentiles are nearest-rank over integer percents, so a percentile is
//! always one of the samples and the rank arithmetic is exact. Quartiles
//! follow Python's `statistics.quantiles(values, n=4)` (its default
//! "exclusive" method), so a spread computed here matches one computed from
//! the printed values with the standard library.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, bytes).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// Parse the `better` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `pct` among `n` samples:
/// `ceil(pct · n / 100)`, at least 1.
fn rank(pct: u32, n: usize) -> usize {
    (pct as usize * n).div_ceil(100).max(1)
}

/// Nearest-rank percentile: the smallest sample with at least `pct`
/// percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty sample or `pct > 100`.
pub fn percentile(values: &[f64], pct: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    assert!(pct <= 100, "percentile above 100");
    sorted(values)[rank(pct, values.len()) - 1]
}

/// The highest integer percentile (at most 99) whose nearest-rank sample
/// has at least ten samples beyond it, or `None` when even the median
/// does not (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99).rev().find(|&p| n - rank(p, n).min(n) >= 10)
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// First and third quartile, as Python's `statistics.quantiles(values,
/// n=4)` computes them. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let v = sorted(values);
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median: the run-to-run spread a
/// bound has to cover. Zero when the median is zero.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// How much worse `new` is than `base`, as a share of `base`; negative
/// when `new` is better. Zero when both are zero.
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    if base == 0.0 {
        return if new == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let rel = (new - base) / base.abs();
    match better {
        Better::Lower => rel,
        Better::Higher => -rel,
    }
}

/// Whether `new` is no worse than `base` by more than `bound`.
pub fn within_bound(base: f64, new: f64, better: Better, bound: f64) -> bool {
    worsening(base, new, better) <= bound
}

/// Whether `a` is strictly better than `b`.
pub fn is_better(a: f64, b: f64, better: Better) -> bool {
    match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = one_to(10);
        assert_eq!(percentile(&v, 50), 5.0);
        assert_eq!(percentile(&v, 90), 9.0);
        assert_eq!(percentile(&v, 91), 10.0);
        assert_eq!(percentile(&v, 100), 10.0);
        assert_eq!(percentile(&v, 0), 1.0);
        // Order of the input does not matter.
        let mut r = one_to(40);
        r.reverse();
        assert_eq!(percentile(&r, 75), 30.0);
        assert_eq!(percentile(&one_to(1200), 99), 1188.0);
    }

    #[test]
    fn tail_rule_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(900), Some(98));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(1_000_000), Some(99));
        for n in 20..2000 {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(p, n) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(n - rank(p + 1, n) < 10, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn median_and_iqr_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&one_to(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&one_to(4)), (1.25, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&one_to(2)), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert!((relative_iqr(&one_to(10)) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn bound_comparison_respects_direction() {
        // Lower is better: +5% is within a 10% bound, +20% is not.
        assert!(within_bound(1.0, 1.05, Better::Lower, 0.10));
        assert!(!within_bound(1.0, 1.20, Better::Lower, 0.10));
        assert!(within_bound(1.0, 0.50, Better::Lower, 0.0));
        // Higher is better: a 15% drop breaks a 10% bound, a rise never does.
        assert!(!within_bound(100.0, 85.0, Better::Higher, 0.10));
        assert!(within_bound(100.0, 95.0, Better::Higher, 0.10));
        assert!(within_bound(100.0, 120.0, Better::Higher, 0.0));
        assert!(worsening(100.0, 120.0, Better::Higher) < 0.0);
        assert!(is_better(1.0, 2.0, Better::Lower));
        assert!(is_better(2.0, 1.0, Better::Higher));
        assert!(!is_better(1.0, 1.0, Better::Higher));
        assert_eq!(Better::parse("lower"), Some(Better::Lower));
        assert_eq!(Better::parse("up"), None);
    }
}
