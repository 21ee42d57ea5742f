//! Structural claims from the paper, checked as tests (the *shape* facts
//! that don't need a 40-core machine).

use semisort::{paper, try_semisort_with_stats, PaperConfig, SemisortConfig};
use workloads::{generate, paper_distributions, representative_distributions, Distribution};

const N: usize = 200_000;

/// §5.1: the representative exponential distribution (λ = n/10³) "contains
/// about 30% light keys and 70% heavy keys".
#[test]
fn representative_exponential_is_about_70pct_heavy() {
    let (exp_dist, _) = representative_distributions(N);
    let records = generate(exp_dist, N, 1);
    let (_, stats) = try_semisort_with_stats(&records, &SemisortConfig::default()).unwrap();
    let pct = stats.heavy_fraction_pct();
    assert!(
        (60.0..85.0).contains(&pct),
        "expected ≈70% heavy records, measured {pct:.1}%"
    );
}

/// §5.1: the representative uniform distribution (N = n) "contains only
/// light keys".
#[test]
fn representative_uniform_is_all_light() {
    let (_, uni_dist) = representative_distributions(N);
    let records = generate(uni_dist, N, 1);
    let (_, stats) = try_semisort_with_stats(&records, &SemisortConfig::default()).unwrap();
    assert_eq!(stats.heavy_records, 0);
    assert_eq!(stats.heavy_keys, 0);
}

/// Table 1's "% heavy" row spans 0%..100% across the 17 distributions, and
/// our measured fractions track the paper's where scale-invariant:
/// parameters far below n give ~100% heavy, parameters at/above n give ~0%.
#[test]
fn heavy_fraction_extremes_match_table1() {
    let cfg = SemisortConfig::default();
    // uniform(10): every key duplicated n/10 times — 100% heavy.
    let recs = generate(Distribution::Uniform { n: 10 }, N, 2);
    let (_, s) = try_semisort_with_stats(&recs, &cfg).unwrap();
    assert!(
        s.heavy_fraction_pct() > 99.9,
        "uniform(10): {}",
        s.heavy_fraction_pct()
    );

    // uniform(N = n): all light (0%).
    let recs = generate(Distribution::Uniform { n: N as u64 }, N, 2);
    let (_, s) = try_semisort_with_stats(&recs, &cfg).unwrap();
    assert!(s.heavy_fraction_pct() < 0.1);

    // zipf over a huge range still has a heavy head at any scale (the
    // paper measures 54% at n = 10⁸; at n = 2·10⁵ the head is relatively
    // lighter, ≈23%, but clearly nonzero).
    let recs = generate(Distribution::Zipfian { m: 100_000_000 }, N, 2);
    let (_, s) = try_semisort_with_stats(&recs, &cfg).unwrap();
    assert!(
        s.heavy_fraction_pct() > 15.0,
        "zipf head should be heavy: {}",
        s.heavy_fraction_pct()
    );
}

/// Lemma 3.5: total allocated slots are Θ(n) — the blowup factor must stay
/// bounded across every distribution (the constant depends on p, δ and the
/// bucket count; with the paper's constants it is < 10).
#[test]
fn space_blowup_bounded_on_all_distributions() {
    let cfg = PaperConfig::default();
    for pd in paper_distributions() {
        let records = generate(pd.dist, N, 3);
        let (_, stats) = paper::try_semisort_with_stats(&records, &cfg).unwrap();
        assert!(
            stats.space_blowup() < 10.0,
            "{}: slots/n = {:.2}",
            pd.dist.label(),
            stats.space_blowup()
        );
    }
}

/// §3: the expected sample size is n·p = n/16.
#[test]
fn sample_size_is_n_over_16() {
    let records = generate(Distribution::Uniform { n: 1 << 30 }, N, 4);
    let (_, stats) = try_semisort_with_stats(&records, &SemisortConfig::default()).unwrap();
    assert_eq!(stats.sample_size, N.div_ceil(16));
}

/// §4 Phase 2: with merging, light buckets hold ≥ δ samples, so there are
/// at most |S|/δ + 1 of them — far fewer than the 2^16 prefix classes when
/// the sample is small.
#[test]
fn merged_light_bucket_count_is_bounded_by_sample() {
    let records = generate(Distribution::Uniform { n: 1 << 40 }, N, 5);
    let (_, stats) = try_semisort_with_stats(&records, &SemisortConfig::default()).unwrap();
    let bound = stats.sample_size / 16 + 1;
    assert!(
        stats.light_buckets <= bound,
        "light buckets {} exceed |S|/δ + 1 = {bound}",
        stats.light_buckets
    );
}

/// Corollary 3.4 in practice: with the paper's constants, no retries are
/// needed on any of the 17 distributions ("this size was sufficient to
/// prevent overflow on all of our inputs").
#[test]
fn no_retries_on_any_paper_distribution() {
    let cfg = PaperConfig::default();
    for pd in paper_distributions() {
        let records = generate(pd.dist, N, 6);
        let (_, stats) = paper::try_semisort_with_stats(&records, &cfg).unwrap();
        assert_eq!(stats.retries, 0, "{} needed retries", pd.dist.label());
    }
}

/// §5.2: stability across distributions — the paper reports a ≈20% running
/// time spread over all 17 distributions. Wall-clock is too noisy for a CI
/// assertion on a shared core, so we pin the deterministic quantity
/// underneath it: counted work per record (see `semisort::analysis`), whose
/// spread must stay within a small constant. A pathological
/// per-distribution blowup (quadratic probing, mis-sized buckets) would
/// show up here immediately.
#[test]
fn work_is_stable_across_distributions() {
    let cfg = PaperConfig::default();
    let mut work = Vec::new();
    for pd in paper_distributions() {
        let records = generate(pd.dist, N, 8);
        let cost = semisort::analysis::analyze(&records, &cfg);
        work.push(cost.work_per_record());
    }
    let min = work.iter().cloned().fold(f64::MAX, f64::min);
    let max = work.iter().cloned().fold(0.0, f64::max);
    // Counted work legitimately varies more than time (≈3×: all-heavy
    // inputs skip the local sort and allocate fewer slots, while wall time
    // stays flat because the scatter's memory latency dominates every
    // distribution equally — that flatness is the paper's 20% claim). The
    // bound below catches real pathologies (quadratic probing, mis-sized
    // buckets blow this up by orders of magnitude), not benign variation.
    assert!(
        max / min < 4.0,
        "distribution work spread too wide: {min:.2} .. {max:.2} ops/record"
    );
    assert!(max < 40.0, "absolute work/record too high: {max:.2}");
}
