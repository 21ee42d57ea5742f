//! Output checks, run untimed on every call and every reply.
//!
//! Both checks are O(n) and independent of the order the program chose:
//!
//! - a multiset [`Fingerprint`] of `(key, payload)` records (count, a
//!   wrapping sum and an xor of two independent 64-bit mixes), equal for
//!   the input and any permutation of it, and different w.h.p. after a
//!   record is dropped, duplicated or has its payload moved to another key;
//! - [`first_split`], which finds a key whose run was interrupted. It
//!   touches a hash set only at run boundaries, so its cost is one
//!   comparison per record plus one set operation per distinct key.

use std::collections::{HashMap, HashSet};

use rayon::prelude::*;

/// Records per parallel chunk when fingerprinting a large slice.
const CHUNK: usize = 1 << 16;

/// The splitmix64 finalizer: a bijective 64-bit mix with full avalanche.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// An order-independent fingerprint of a multiset of `(key, payload)`
/// records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    count: u64,
    sum: u64,
    xor: u64,
}

impl Fingerprint {
    fn add(mut self, (k, v): (u64, u64)) -> Fingerprint {
        let h = mix(k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ mix(v ^ 0x5851_F42D_4C95_7F2D));
        self.count += 1;
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= mix(h ^ 0x2545_F491_4F6C_DD1D);
        self
    }

    fn merge(self, other: Fingerprint) -> Fingerprint {
        Fingerprint {
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
            xor: self.xor ^ other.xor,
        }
    }

    /// Fingerprint of a slice of records, in parallel chunks.
    pub fn of(records: &[(u64, u64)]) -> Fingerprint {
        let parts: Vec<Fingerprint> = records
            .par_chunks(CHUNK)
            .map(|c| Fingerprint::of_iter(c.iter().copied()))
            .collect();
        parts
            .into_iter()
            .fold(Fingerprint::default(), Fingerprint::merge)
    }

    /// Fingerprint of a sequence of records.
    pub fn of_iter(records: impl IntoIterator<Item = (u64, u64)>) -> Fingerprint {
        records
            .into_iter()
            .fold(Fingerprint::default(), Fingerprint::add)
    }
}

/// Index of the first key that starts a second run (its earlier run was
/// interrupted by another key), or `None` when every key is contiguous.
pub fn first_split(keys: impl IntoIterator<Item = u64>) -> Option<usize> {
    let mut closed = HashSet::new();
    let mut current = None;
    for (i, k) in keys.into_iter().enumerate() {
        if current == Some(k) {
            continue;
        }
        if let Some(prev) = current {
            closed.insert(prev);
        }
        if closed.contains(&k) {
            return Some(i);
        }
        current = Some(k);
    }
    None
}

/// Check that `output` is a permutation of the input whose fingerprint is
/// `input` and that every key is one contiguous run.
pub fn semisorted(input: &Fingerprint, output: &[(u64, u64)]) -> Result<(), String> {
    let got = Fingerprint::of(output);
    if got != *input {
        return Err(format!(
            "output is not a permutation of the input ({} records, expected {})",
            got.count, input.count
        ));
    }
    match first_split(output.iter().map(|r| r.0)) {
        Some(i) => Err(format!("key run split at record {i}")),
        None => Ok(()),
    }
}

/// Check a grouped reply: `records` semisorted, and `starts` the
/// `groups + 1` boundaries of its key runs.
pub fn grouped(input: &Fingerprint, records: &[(u64, u64)], starts: &[u32]) -> Result<(), String> {
    semisorted(input, records)?;
    let n = records.len();
    let bounds: Vec<usize> = starts.iter().map(|&s| s as usize).collect();
    if bounds.first() != Some(&0) || bounds.last() != Some(&n) {
        return Err("group boundaries do not run from 0 to the record count".into());
    }
    for w in bounds.windows(2) {
        let (a, b) = (w[0], w[1]);
        if a >= b {
            return Err(format!("group boundaries {a}..{b} are not increasing"));
        }
        if records[a..b].iter().any(|r| r.0 != records[a].0) {
            return Err(format!("group {a}..{b} holds more than one key"));
        }
        if b < n && records[b].0 == records[a].0 {
            return Err(format!("boundary {b} cuts a key run"));
        }
    }
    Ok(())
}

/// Fingerprint of the correct `(key, count)` answer for `input`, from a
/// reference map built once per input.
pub fn count_reference(input: &[(u64, u64)]) -> Fingerprint {
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for &(k, _) in input {
        *counts.entry(k).or_default() += 1;
    }
    Fingerprint::of_iter(counts)
}

/// Check a `(key, count)` answer against [`count_reference`]'s fingerprint.
pub fn counts(
    reference: &Fingerprint,
    answer: impl IntoIterator<Item = (u64, u64)>,
) -> Result<(), String> {
    let got = Fingerprint::of_iter(answer);
    if got != *reference {
        return Err(format!(
            "counts differ from the reference ({} keys, expected {})",
            got.count, reference.count
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    type Records = Vec<(u64, u64)>;

    /// 1000 records over 37 keys, and a correct semisorted arrangement.
    fn fixture() -> (Records, Records) {
        let input: Vec<(u64, u64)> = (0..1000u64).map(|i| (mix(i % 37), i)).collect();
        let mut out = input.clone();
        out.sort_by_key(|r| (r.0 % 7, r.0));
        (input, out)
    }

    #[test]
    fn correct_output_passes() {
        let (input, out) = fixture();
        assert!(semisorted(&Fingerprint::of(&input), &out).is_ok());
        assert_eq!(
            Fingerprint::of(&input),
            Fingerprint::of_iter(out.iter().copied())
        );
        assert_eq!(first_split([5, 5, 1, 1, 1, 9]), None);
        assert_eq!(first_split(std::iter::empty()), None);
    }

    #[test]
    fn payload_swapped_across_keys_fails() {
        let (input, mut out) = fixture();
        let j = out.iter().position(|r| r.0 != out[0].0).unwrap();
        let (a, b) = (out[0].1, out[j].1);
        out[0].1 = b;
        out[j].1 = a;
        assert!(semisorted(&Fingerprint::of(&input), &out).is_err());
    }

    #[test]
    fn split_key_run_fails() {
        let (input, mut out) = fixture();
        let moved = out.remove(0);
        out.push(moved);
        let err = semisorted(&Fingerprint::of(&input), &out).unwrap_err();
        assert!(err.contains("split"), "{err}");
    }

    #[test]
    fn dropped_record_fails() {
        let (input, mut out) = fixture();
        out.remove(500);
        assert!(semisorted(&Fingerprint::of(&input), &out).is_err());
    }

    #[test]
    fn duplicated_record_fails() {
        let (input, mut out) = fixture();
        // In place of its neighbour, so the count still matches.
        out[1] = out[0];
        assert!(semisorted(&Fingerprint::of(&input), &out).is_err());
        let (_, mut longer) = fixture();
        longer.insert(1, longer[0]);
        assert!(semisorted(&Fingerprint::of(&input), &longer).is_err());
    }

    #[test]
    fn group_boundaries_are_checked() {
        let (input, out) = fixture();
        let fp = Fingerprint::of(&input);
        let mut starts: Vec<u32> = (0..out.len())
            .filter(|&i| i == 0 || out[i].0 != out[i - 1].0)
            .map(|i| i as u32)
            .collect();
        starts.push(out.len() as u32);
        assert!(grouped(&fp, &out, &starts).is_ok());
        let mut merged = starts.clone();
        merged.remove(1);
        assert!(
            grouped(&fp, &out, &merged).is_err(),
            "two keys in one group"
        );
        let mut cut = starts.clone();
        cut.insert(1, 1);
        assert!(grouped(&fp, &out, &cut).is_err(), "a key cut in two groups");
        assert!(grouped(&fp, &out, &starts[..starts.len() - 1]).is_err());
        assert!(grouped(&Fingerprint::default(), &[], &[0]).is_ok());
    }

    #[test]
    fn wrong_counts_fail() {
        let (input, _) = fixture();
        let reference = count_reference(&input);
        let mut answer: Vec<(u64, u64)> = (0..37u64)
            .map(|k| {
                (
                    mix(k),
                    input.iter().filter(|r| r.0 == mix(k)).count() as u64,
                )
            })
            .collect();
        assert!(counts(&reference, answer.iter().copied()).is_ok());
        answer[3].1 += 1;
        assert!(counts(&reference, answer.iter().copied()).is_err());
        answer[3].1 -= 1;
        let dropped: Vec<_> = answer[1..].to_vec();
        assert!(counts(&reference, dropped).is_err());
        let mut doubled = answer.clone();
        doubled.push(answer[0]);
        assert!(counts(&reference, doubled).is_err());
    }
}
