//! Semisort for bounded integer keys.
//!
//! "Other authors have considered semisorting applied to a bounded set of
//! integer keys in the range `[1..n]` [2, 18]" (§1). When keys are already
//! small dense integers, the whole sampling/hashing machinery is
//! unnecessary: one stable parallel counting sort groups them in `O(n + m)`
//! work. This module provides that variant.

use parlay::counting_sort::counting_sort_into;

/// Semisort records whose keys are integers in `[0, m)` with one stable
/// counting sort. `O(n + m)` work — preferable to the general algorithm
/// whenever `m = O(n / log n)`.
///
/// The output is *sorted* by key (a stronger order than semisorted) and
/// stable.
///
/// # Panics
///
/// Panics if a key is `>= m`.
pub fn semisort_bounded<V: Copy + Send + Sync>(records: &[(u64, V)], m: usize) -> Vec<(u64, V)> {
    let mut out = records.to_vec();
    if records.is_empty() {
        return out;
    }
    counting_sort_into(records, &mut out, m, |r| r.0 as usize);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_permutation_of;

    #[test]
    fn bounded_sorts_and_is_stable() {
        let recs: Vec<(u64, u64)> = (0..60_000u64).map(|i| (i % 100, i)).collect();
        let out = semisort_bounded(&recs, 100);
        assert!(out.windows(2).all(|w| w[0].0 <= w[1].0), "sorted by key");
        for w in out.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stable within groups");
            }
        }
        assert!(is_permutation_of(&out, &recs));
    }

    #[test]
    fn bounded_empty_and_single_key() {
        assert!(semisort_bounded::<u64>(&[], 5).is_empty());
        let recs: Vec<(u64, u64)> = (0..1000u64).map(|i| (0, i)).collect();
        assert_eq!(semisort_bounded(&recs, 1), recs);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bounded_rejects_out_of_range() {
        semisort_bounded(&[(7u64, 0u64)], 5);
    }
}
