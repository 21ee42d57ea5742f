//! End-to-end tests of the public API against independent references.

use std::collections::HashMap;

use semisort::{
    try_count_by_key, try_group_by, try_reduce_by_key, try_semisort_by_key, SemisortConfig,
};

fn cfg() -> SemisortConfig {
    SemisortConfig {
        seq_threshold: 128,
        ..Default::default()
    }
}

#[test]
fn wordcount_matches_hashmap() {
    let words: Vec<String> = (0..50_000)
        .map(|i| format!("w{}", parlay::hash64(i) % 500))
        .collect();
    let counts = try_count_by_key(&words, |w| w.clone(), &cfg()).unwrap();
    let mut reference: HashMap<String, usize> = HashMap::new();
    for w in &words {
        *reference.entry(w.clone()).or_default() += 1;
    }
    assert_eq!(counts.len(), reference.len());
    for (w, c) in counts {
        assert_eq!(reference[&w], c);
    }
}

#[test]
fn reduce_by_key_max_per_group() {
    let pairs: Vec<(u16, i64)> = (0..40_000i64)
        .map(|i| ((i % 97) as u16, (i * 31) % 10_007))
        .collect();
    let maxes = try_reduce_by_key(&pairs, |p| p.0, i64::MIN, |a, p| a.max(p.1), &cfg()).unwrap();
    assert_eq!(maxes.len(), 97);
    let mut reference: HashMap<u16, i64> = HashMap::new();
    for (k, v) in &pairs {
        let e = reference.entry(*k).or_insert(i64::MIN);
        *e = (*e).max(*v);
    }
    for (k, m) in maxes {
        assert_eq!(reference[&k], m, "max for key {k}");
    }
}

#[test]
fn semisort_tuples_with_composite_keys() {
    let items: Vec<((u8, u8), u32)> = (0..30_000u32)
        .map(|i| (((i % 13) as u8, (i % 7) as u8), i))
        .collect();
    let out = try_semisort_by_key(&items, |t| t.0, &cfg()).unwrap();
    assert_eq!(out.len(), items.len());
    assert!(semisort::verify::is_semisorted_by(&out, |t| t.0));
    // 13 × 7 = 91 composite groups.
    let groups = try_group_by(&items, |t| t.0, &cfg()).unwrap();
    assert_eq!(groups.len(), 91);
}

#[test]
fn group_by_singleton_groups() {
    // All-distinct keys: every group has size 1.
    let items: Vec<u64> = (0..20_000).map(parlay::hash64).collect();
    let groups = try_group_by(&items, |&x| x, &cfg()).unwrap();
    assert_eq!(groups.len(), items.len());
    assert!(groups.iter().all(|g| g.len() == 1));
}

#[test]
fn group_by_one_giant_group() {
    let items = vec![5u8; 30_000];
    let groups = try_group_by(&items, |&x| x, &cfg()).unwrap();
    assert_eq!(groups.len(), 1);
    assert_eq!(groups.group(0).len(), 30_000);
}

#[test]
fn works_inside_caller_provided_pool() {
    // Users commonly run inside their own rayon pool; the semisort must not
    // deadlock or misbehave there.
    let items: Vec<u32> = (0..60_000).map(|i| i % 1000).collect();
    let counts = parlay::with_threads(2, || try_count_by_key(&items, |&x| x, &cfg()).unwrap());
    assert_eq!(counts.len(), 1000);
    assert!(counts.iter().all(|&(_, c)| c == 60));
}

#[test]
fn large_values_are_carried_intact() {
    // 32-byte payloads: the scatter's value cells are generic, not u64-only.
    #[derive(Clone, Copy, PartialEq, Debug)]
    struct Big([u64; 4]);
    let recs: Vec<(u64, Big)> = (0..20_000u64)
        .map(|i| (parlay::hash64(i % 100), Big([i, i + 1, i + 2, i + 3])))
        .collect();
    let out = semisort::try_semisort_pairs(&recs, &cfg()).unwrap();
    assert_eq!(out.len(), recs.len());
    assert!(semisort::verify::is_semisorted_by(&out, |r| r.0));
    for (k, b) in &out {
        assert_eq!(b.0[1], b.0[0] + 1);
        assert_eq!(*k, parlay::hash64(b.0[0] % 100));
    }
}
