//! Semisort for bounded integer keys.
//!
//! "Other authors have considered semisorting applied to a bounded set of
//! integer keys in the range `[1..n]` [2, 18]" (§1). When keys are already
//! small dense integers, the whole sampling/hashing machinery is
//! unnecessary: one stable parallel counting sort groups them in `O(n + m)`
//! work. This module provides that variant and a dispatcher that picks
//! between it and the general algorithm — the practical reading of the
//! paper's remark that the definitions are interchangeable.

use crate::config::SemisortConfig;
use crate::driver::try_semisort_core;
use crate::error::SemisortError;
use parlay::counting_sort::counting_sort_into;
use rayon::prelude::*;

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

/// Dispatching semisort: uses the counting-sort path when the observed key
/// range is small (`max_key < n / log₂n`), the general top-down algorithm
/// otherwise.
///
/// The range scan costs one parallel pass — noise next to either sort.
/// The counting-sort path is deterministic and cannot fail; errors can
/// only come from the general algorithm's config validation.
pub fn try_semisort_auto<V: Copy + Send + Sync>(
    records: &[(u64, V)],
    cfg: &SemisortConfig,
) -> Result<Vec<(u64, V)>, SemisortError> {
    let n = records.len();
    if n <= 1 {
        return Ok(records.to_vec());
    }
    let max_key = records
        .par_iter()
        .with_min_len(4096)
        .map(|r| r.0)
        .max()
        .unwrap_or(0);
    let log2n = (usize::BITS - n.leading_zeros()) as u64;
    let threshold = (n as u64 / log2n.max(1)).max(1024);
    if max_key < threshold {
        Ok(semisort_bounded(records, max_key as usize + 1))
    } else {
        try_semisort_core(records, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{is_permutation_of, is_semisorted_by};

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
    fn auto_picks_counting_for_dense_keys() {
        // Dense keys: result must be fully sorted (the counting path).
        let recs: Vec<(u64, u64)> = (0..100_000u64).map(|i| ((i * 31) % 500, i)).collect();
        let out = try_semisort_auto(&recs, &SemisortConfig::default()).unwrap();
        assert!(out.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(is_permutation_of(&out, &recs));
    }

    #[test]
    fn auto_picks_general_for_wide_keys() {
        let recs: Vec<(u64, u64)> = (0..100_000u64)
            .map(|i| (parlay::hash64(i % 500), i))
            .collect();
        let out = try_semisort_auto(&recs, &SemisortConfig::default()).unwrap();
        assert!(is_semisorted_by(&out, |r| r.0));
        assert!(is_permutation_of(&out, &recs));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bounded_rejects_out_of_range() {
        semisort_bounded(&[(7u64, 0u64)], 5);
    }
}
