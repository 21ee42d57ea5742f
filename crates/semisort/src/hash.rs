//! The key hash of the by-key methods: one seeded [`Hasher`], one pass per
//! record.
//!
//! Step 1 of the paper hashes every key into `[n^k]`. The analysis needs a
//! well-mixed 64-bit hash and nothing more: exactness comes from the key
//! check on every run of equal hashes and from `aggregate::regroup`, never
//! from the hash. So the hash is built for speed, with one mixer per word
//! and one finaliser per key:
//!
//! - Each 8-byte word but the key's last is folded into the state with one
//!   64×64→128 multiply (high half xor low half).
//! - The last word is xored into the state and multiplied by an odd
//!   constant, and [`Hasher::finish`] applies [`parlay::hash64`] once. Both
//!   steps are bijections, so under every seed a one-word key (`u64`,
//!   `u32`, `usize`, …) gets a hash no other one-word key has: distinct
//!   integer keys never collide.
//! - A byte string is cut into little-endian words. Its tail (0–7 bytes) is
//!   padded with zeros and tagged with its length in the top byte, so byte
//!   strings that differ only in their tail or their length give different
//!   word sequences.
//!
//! The state starts from [`SemisortConfig::seed`] mixed under its own label,
//! so the hash is independent of the sampling stream and a caller who does
//! not know the seed cannot precompute keys that collide or that all land in
//! one prefix class. The engine, its `api::try_*` one-shots and semisortd all
//! hash with their config's seed; [`crate::api::hash_key`] hashes with the
//! default config's.
//!
//! [`SemisortConfig::seed`]: crate::config::SemisortConfig::seed

use std::hash::{BuildHasher, Hash, Hasher};

use rayon::prelude::*;

use crate::config::DEFAULT_SEED;
use crate::driver::mix_seed;

/// The label `SemisortConfig::seed` is mixed under for the key hash. Run
/// attempts are labelled from 0 up, and no run retries this often.
const KEY_HASH_LABEL: u32 = u32::MAX;

/// The fold multiplier of every word but the last (odd).
const FOLD: u64 = 0xa076_1d64_78bd_642f;

/// The multiplier of the last word (odd, so multiplying is a bijection).
const LAST: u64 = 0x9e37_79b9_7f4a_7c15;

/// The seeded key hash: builds one [`KeyHasher`] per key.
#[derive(Clone, Copy)]
pub(crate) struct KeyHash {
    state: u64,
}

impl KeyHash {
    /// The key hash of `seed`, a
    /// [`SemisortConfig::seed`](crate::config::SemisortConfig::seed).
    pub(crate) const fn new(seed: u64) -> Self {
        KeyHash {
            state: mix_seed(seed, KEY_HASH_LABEL),
        }
    }
}

/// The key hash of
/// [`SemisortConfig::default`](crate::config::SemisortConfig::default).
pub(crate) const DEFAULT_KEY_HASH: KeyHash = KeyHash::new(DEFAULT_SEED);

impl BuildHasher for KeyHash {
    type Hasher = KeyHasher;

    #[inline(always)]
    fn build_hasher(&self) -> KeyHasher {
        KeyHasher {
            acc: self.state,
            last: None,
        }
    }
}

/// The hasher of one key (see the [module docs](self)).
pub(crate) struct KeyHasher {
    /// The seed with every word but the last folded in.
    acc: u64,
    /// The last word written, held back until the next word or `finish`.
    last: Option<u64>,
}

impl KeyHasher {
    /// Take one word, folding the one before it into the state.
    #[inline(always)]
    fn word(&mut self, w: u64) {
        if let Some(prev) = self.last.replace(w) {
            self.acc = fold_mul(self.acc ^ prev, FOLD);
        }
    }
}

/// The 128-bit product of `a` and `b`, its high half xored into its low.
#[inline(always)]
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

impl Hasher for KeyHasher {
    #[inline(always)]
    fn finish(&self) -> u64 {
        let last = self.last.unwrap_or(0);
        parlay::hash64((self.acc ^ last).wrapping_mul(LAST))
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let tail = words.remainder();
        let mut padded = [0u8; 8];
        padded[..tail.len()].copy_from_slice(tail);
        padded[7] = tail.len() as u8;
        self.word(u64::from_le_bytes(padded));
    }

    #[inline(always)]
    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    #[inline(always)]
    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }

    #[inline(always)]
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    #[inline(always)]
    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }
}

/// Fill `hashed` with one `(hash of key(item), index)` pair per item, in
/// parallel, reusing its capacity (a buffer already `items.len()` long is
/// overwritten without being cleared first).
pub(crate) fn hash_keys_into<T, K, F>(
    hash: KeyHash,
    items: &[T],
    key: &F,
    hashed: &mut Vec<(u64, u64)>,
) where
    T: Sync,
    K: Hash,
    F: Fn(&T) -> K + Sync,
{
    hashed.truncate(items.len());
    hashed.resize(items.len(), (0, 0));
    hashed
        .par_iter_mut()
        .enumerate()
        .with_min_len(4096)
        .for_each(|(i, slot)| *slot = (hash.hash_one(key(&items[i])), i as u64));
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEEDS: [u64; 3] = [0, 1, DEFAULT_SEED];

    /// How many distinct values `hashes` holds.
    fn distinct(mut hashes: Vec<u64>) -> usize {
        hashes.sort_unstable();
        hashes.dedup();
        hashes.len()
    }

    #[test]
    fn one_word_keys_never_collide() {
        const N: u64 = 1 << 20;
        for seed in SEEDS {
            let h = KeyHash::new(seed);
            // Consecutive keys, and keys that differ only in their top bits.
            let low: Vec<u64> = (0..N).map(|k| h.hash_one(k)).collect();
            assert_eq!(distinct(low), N as usize, "u64, seed {seed:#x}");
            let high: Vec<u64> = (0..N).map(|k| h.hash_one(k << 44)).collect();
            assert_eq!(distinct(high), N as usize, "u64 << 44, seed {seed:#x}");
            let small: Vec<u64> = (0..N as u32).map(|k| h.hash_one(k)).collect();
            assert_eq!(distinct(small), N as usize, "u32, seed {seed:#x}");
        }
    }

    #[test]
    fn seeds_give_different_hashes() {
        let (a, b) = (KeyHash::new(1), KeyHash::new(2));
        for k in 0..1000u64 {
            assert_ne!(a.hash_one(k), b.hash_one(k), "key {k}");
        }
        assert_ne!(a.hash_one("a string key"), b.hash_one("a string key"));
        assert_ne!(a.hash_one((7u64, 9u64)), b.hash_one((7u64, 9u64)));
    }

    #[test]
    fn byte_tails_and_lengths_hash_differently() {
        // Raw byte writes of length 0–17: all zeros, and each with one byte
        // flipped. The tail tag separates equal-looking zeros of different
        // lengths.
        let mut hashes = Vec::new();
        for seed in SEEDS {
            let h = KeyHash::new(seed);
            let of = |bytes: &[u8]| {
                let mut hasher = h.build_hasher();
                hasher.write(bytes);
                hasher.finish()
            };
            let before = hashes.len();
            for len in 0..=17usize {
                let zeros = vec![0u8; len];
                hashes.push(of(&zeros));
                for i in 0..len {
                    let mut flipped = zeros.clone();
                    flipped[i] = 1;
                    hashes.push(of(&flipped));
                }
                // The tag byte's value as a last data byte.
                if len % 8 == 7 {
                    let mut tagged = zeros.clone();
                    tagged.push(7);
                    hashes.push(of(&tagged));
                }
            }
            let all = hashes.len() - before;
            assert_eq!(distinct(hashes[before..].to_vec()), all, "seed {seed:#x}");
        }
        // Byte-slice and string keys of every short length.
        let h = KeyHash::new(DEFAULT_SEED);
        let keys: Vec<Vec<u8>> = (0..=17u8).map(|len| (0..len).collect()).collect();
        let slices: Vec<u64> = keys.iter().map(|k| h.hash_one(k.as_slice())).collect();
        assert_eq!(distinct(slices), keys.len());
        let strings: Vec<u64> = (0..=17).map(|len| h.hash_one("x".repeat(len))).collect();
        assert_eq!(distinct(strings), 18);
    }

    #[test]
    fn hash_key_is_the_default_configs_hash() {
        let engine = KeyHash::new(crate::config::SemisortConfig::default().seed);
        for k in [0u64, 1, 42, u64::MAX] {
            assert_eq!(crate::api::hash_key(&k), engine.hash_one(k));
        }
        assert_eq!(crate::api::hash_key(&"word"), engine.hash_one("word"));
        assert_eq!(
            crate::api::hash_key(&(3u32, 'c')),
            engine.hash_one((3u32, 'c'))
        );
    }

    #[test]
    fn one_word_keys_are_one_multiply_and_hash64() {
        // The documented form, spelled out: a one-word key is xored into the
        // seed state, multiplied by an odd constant and finalised once.
        let h = KeyHash::new(5);
        let k = 0x1234_5678_9abc_def0u64;
        let want = parlay::hash64((h.state ^ k).wrapping_mul(LAST));
        assert_eq!(h.hash_one(k), want);
        assert_eq!(h.hash_one(k as usize), want);
        assert_eq!(
            h.hash_one(7u32),
            parlay::hash64((h.state ^ 7).wrapping_mul(LAST))
        );
    }
}
