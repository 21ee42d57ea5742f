//! Adversarial inputs: the probabilistic analysis assumes uniformly hashed
//! keys, but correctness must survive inputs crafted to break every
//! structural assumption (via retries or fallbacks, never wrong output).

use semisort::verify::{is_permutation_of, is_semisorted_by};
use semisort::{paper, try_semisort_core, try_semisort_with_stats, PaperConfig, SemisortConfig};

fn check(records: &[(u64, u64)], cfg: &SemisortConfig) {
    let out = try_semisort_core(records, cfg).unwrap();
    assert!(is_semisorted_by(&out, |r| r.0), "not semisorted");
    assert!(is_permutation_of(&out, records), "not a permutation");
}

/// [`check`] through the paper's CAS scatter.
fn check_paper(records: &[(u64, u64)], cfg: &PaperConfig) {
    let (out, _) = paper::try_semisort_with_stats(records, cfg).unwrap();
    assert!(is_semisorted_by(&out, |r| r.0), "not semisorted");
    assert!(is_permutation_of(&out, records), "not a permutation");
}

fn cfg() -> SemisortConfig {
    SemisortConfig::default()
}

#[test]
fn all_keys_share_one_light_prefix() {
    // Every key lands in the same light bucket's prefix class (top 16 bits
    // all zero) while remaining distinct — the light-bucket size estimate
    // is maximally wrong for a "uniform" assumption.
    let recs: Vec<(u64, u64)> = (0..120_000u64).map(|i| (i + 1, i)).collect();
    check(&recs, &cfg());
}

#[test]
fn two_adjacent_prefixes_loaded_rest_empty() {
    let recs: Vec<(u64, u64)> = (0..100_000u64)
        .map(|i| {
            let prefix = (i % 2) << 48; // prefix classes 0 and 1 only
            (prefix | (i + 1), i)
        })
        .collect();
    check(&recs, &cfg());
}

#[test]
fn keys_at_the_heavy_light_boundary() {
    // Every key has multiplicity exactly δ/p = 256, the worst case §5.2
    // identifies ("most of the keys are close to the threshold"). Keys are
    // interleaved round-robin so each stride sees distinct keys and the
    // per-key sample count is genuinely binomial around δ.
    let n = 131_072u64;
    let keys = 512u64; // multiplicity n / keys = 256
    let recs: Vec<(u64, u64)> = (0..n).map(|i| (parlay::hash64(i % keys) | 1, i)).collect();
    let (out, stats) = try_semisort_with_stats(&recs, &cfg()).unwrap();
    assert!(is_semisorted_by(&out, |r| r.0));
    assert!(is_permutation_of(&out, &recs));
    // Roughly half the keys should be classified heavy at the boundary
    // (binomial fluctuation around δ); extremes would betray a bias.
    let pct = stats.heavy_fraction_pct();
    assert!((10.0..90.0).contains(&pct), "boundary heavy% = {pct}");
}

#[test]
fn contiguous_boundary_runs_are_deterministically_heavy() {
    // The same multiplicity-256 keys laid out as contiguous runs: strided
    // sampling then picks exactly one sample per 16-record stride, so every
    // key gets exactly δ = 16 samples and is classified heavy — a useful
    // property (contiguous data never flaps at the boundary), pinned here.
    let mult = 256u64;
    let n = 131_072u64;
    let recs: Vec<(u64, u64)> = (0..n).map(|i| (parlay::hash64(i / mult) | 1, i)).collect();
    let (out, stats) = try_semisort_with_stats(&recs, &cfg()).unwrap();
    assert!(is_semisorted_by(&out, |r| r.0));
    assert!(is_permutation_of(&out, &recs));
    assert!(
        stats.heavy_fraction_pct() > 99.0,
        "aligned runs should all be heavy, got {}",
        stats.heavy_fraction_pct()
    );
}

#[test]
fn geometric_multiplicities() {
    // Key j has multiplicity 2^j: every scale between light and heavy at
    // once, with one key owning half the input.
    let mut recs: Vec<(u64, u64)> = Vec::new();
    let mut payload = 0u64;
    for j in 0..17u64 {
        for _ in 0..(1u64 << j) {
            recs.push((parlay::hash64(j), payload));
            payload += 1;
        }
    }
    check(&recs, &cfg());
}

#[test]
fn maximal_and_minimal_hash_values() {
    // Clusters at both ends of the hash range (first and last prefix
    // class), plus the sentinels.
    let mut recs: Vec<(u64, u64)> = Vec::new();
    for i in 0..40_000u64 {
        recs.push((i % 64, i)); // bottom of the range, incl. key 0 (EMPTY)
        recs.push((u64::MAX - (i % 64), i)); // top, incl. u64::MAX
    }
    check(&recs, &cfg());
}

#[test]
fn saw_tooth_arrangement_defeats_strided_sampling_bias() {
    // A periodic arrangement aligned with the sampling stride (16): if the
    // sampler were biased within strides, this would mis-estimate wildly.
    let n = 160_000u64;
    let recs: Vec<(u64, u64)> = (0..n).map(|i| (parlay::hash64(i % 16) | 1, i)).collect();
    let (out, stats) = try_semisort_with_stats(&recs, &cfg()).unwrap();
    assert!(is_semisorted_by(&out, |r| r.0));
    assert!(is_permutation_of(&out, &recs));
    assert_eq!(stats.heavy_keys, 16, "all 16 periodic keys are heavy");
}

#[test]
fn tiny_alpha_large_skew_converges_via_retries() {
    // α is the paper arena's slack; the engine has none.
    let cfg = PaperConfig {
        alpha: 1.001,
        ..Default::default()
    };
    let recs: Vec<(u64, u64)> = (0..100_000u64)
        .map(|i| (parlay::hash64(i % 31) | 1, i))
        .collect();
    check_paper(&recs, &cfg);
}

#[test]
fn non_uniform_raw_keys_without_prehashing() {
    // Callers are told to pre-hash; if they don't (sequential integers,
    // clustered bits), the result must still be correct.
    for gen in [
        |i: u64| i,                       // sequential
        |i: u64| i << 32,                 // high-half only
        |i: u64| (i % 100) * 0x0101_0101, // strided duplicates
        |i: u64| 1u64 << (i % 63),        // one-hot
    ] {
        let recs: Vec<(u64, u64)> = (0..80_000u64).map(|i| (gen(i) | 1, i)).collect();
        check(&recs, &cfg());
    }
}

#[test]
fn config_extremes() {
    let recs: Vec<(u64, u64)> = (0..60_000u64)
        .map(|i| (parlay::hash64(i % 2_000), i))
        .collect();
    // Very sparse sampling.
    check(
        &recs,
        &SemisortConfig {
            sample_shift: 10,
            ..Default::default()
        },
    );
    // Very dense sampling.
    check(
        &recs,
        &SemisortConfig {
            sample_shift: 1,
            ..Default::default()
        },
    );
    // Heavy threshold so low everything sampled twice is "heavy".
    check(
        &recs,
        &SemisortConfig {
            heavy_threshold: 2,
            ..Default::default()
        },
    );
    // Heavy threshold so high nothing is heavy.
    check(
        &recs,
        &SemisortConfig {
            heavy_threshold: 1_000_000,
            ..Default::default()
        },
    );
    // Single light prefix class cap.
    check(
        &recs,
        &SemisortConfig {
            light_bucket_log2: 1,
            ..Default::default()
        },
    );
}

#[test]
fn random_cas_survives_the_adversarial_gauntlet() {
    // The structural attacks above, replayed under the paper's CAS
    // scatter, where a skewed input can overflow a bucket and retry.
    let cfg = PaperConfig::default();
    let light_prefix: Vec<(u64, u64)> = (0..120_000u64).map(|i| (i + 1, i)).collect();
    check_paper(&light_prefix, &cfg);
    let mut geometric: Vec<(u64, u64)> = Vec::new();
    let mut payload = 0u64;
    for j in 0..17u64 {
        for _ in 0..(1u64 << j) {
            geometric.push((parlay::hash64(j), payload));
            payload += 1;
        }
    }
    check_paper(&geometric, &cfg);
    let mut sentinels: Vec<(u64, u64)> = Vec::new();
    for i in 0..40_000u64 {
        sentinels.push((i % 64, i));
        sentinels.push((u64::MAX - (i % 64), i));
    }
    check_paper(&sentinels, &cfg);
}

#[test]
fn payload_values_are_never_corrupted() {
    // Payload = function of key; verify the pairing after semisorting.
    let recs: Vec<(u64, u64)> = (0..150_000u64)
        .map(|i| {
            let k = parlay::hash64(i % 5_000) | 1;
            (k, k.wrapping_mul(3).wrapping_add(1))
        })
        .collect();
    let out = try_semisort_core(&recs, &cfg()).unwrap();
    assert!(out
        .iter()
        .all(|&(k, v)| v == k.wrapping_mul(3).wrapping_add(1)));
    assert!(is_semisorted_by(&out, |r| r.0));
}
