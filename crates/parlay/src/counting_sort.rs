//! Stable parallel counting sort.
//!
//! This is the second component of the Rajasekaran–Reif integer sort as
//! described in §2 of the paper: a "simple parallel version of sequential
//! counting sort" for keys in `[m]`, `m ≤ n`. It "partitions the sequence
//! into n/m blocks … and works in three phases": per-block key histograms
//! (parallel over blocks, sequential within), a prefix sum turning the
//! per-block counts into write offsets, and a replay pass writing each
//! element to its final position. `O(n)` work, `O(m + log n)` depth, fully
//! deterministic, and *stable* — which the radix sort built on top of it
//! relies on.

use std::mem::MaybeUninit;

use rayon::prelude::*;

use crate::scan::scan_add_exclusive;
use crate::shared::SharedSlice;
use crate::slices::{block_range, num_blocks};

/// Stably sort `src` into `dst` by `key(x) ∈ [0, m)`.
///
/// Returns the bucket boundary offsets: `offsets[k]` is the position in
/// `dst` where key `k` starts, with a final sentinel `offsets[m] == n`.
/// (Callers like the radix sort recurse on `dst[offsets[k]..offsets[k+1]]`.)
///
/// `key` runs once per element: the histogram pass stores each key
/// (4 bytes per element) and the replay pass reads it back.
///
/// # Panics
///
/// Panics if `src.len() != dst.len()`, a key is `>= m`, or `m > 2^32`.
pub fn counting_sort_into<T, F>(src: &[T], dst: &mut [T], m: usize, key: F) -> Vec<usize>
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> usize + Send + Sync,
{
    // SAFETY: `MaybeUninit<T>` has `T`'s layout, and the sort stores only
    // initialized values, so `dst` stays fully initialized.
    let dst = unsafe { &mut *(dst as *mut [T] as *mut [MaybeUninit<T>]) };
    let mut scratch = CountingScratch::default();
    sort_into_uninit(src, dst, m, key, &mut scratch);
    scratch.offsets
}

/// The reusable buffers of [`counting_sort_into_vec_with`]: the per-block
/// count matrix, its key-major transpose, the bucket offsets and the
/// stored keys. Held by callers that sort repeatedly, so these
/// `O(n + blocks · m)` buffers are reused across calls.
#[derive(Debug, Default)]
pub struct CountingScratch {
    counts: Vec<usize>,
    by_key: Vec<usize>,
    offsets: Vec<usize>,
    keys: Vec<u32>,
}

impl CountingScratch {
    /// Bytes held across the buffers.
    pub fn bytes(&self) -> usize {
        (self.counts.capacity() + self.by_key.capacity() + self.offsets.capacity())
            * std::mem::size_of::<usize>()
            + self.keys.capacity() * std::mem::size_of::<u32>()
    }
}

/// [`counting_sort_into`] into a `Vec`'s spare capacity, with
/// caller-owned scratch: `dst` is cleared, grown to hold `src.len()`
/// records if it cannot already, and written exactly once, by the
/// parallel replay. Nothing fills it first, so the replay's workers are
/// also the first to touch a fresh allocation's pages. The length is set
/// once the replay has joined; a panic before then leaves `dst` empty.
/// The offsets it returns live in `scratch` until the next call.
///
/// # Panics
///
/// If a key is out of range or `m > 2^32`, as [`counting_sort_into`].
pub fn counting_sort_into_vec_with<'s, T, F>(
    src: &[T],
    dst: &mut Vec<T>,
    m: usize,
    key: F,
    scratch: &'s mut CountingScratch,
) -> &'s [usize]
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> usize + Send + Sync,
{
    let n = src.len();
    dst.clear();
    dst.reserve(n);
    let offsets = sort_into_uninit(src, &mut dst.spare_capacity_mut()[..n], m, key, scratch);
    // SAFETY: the replay has joined, and it wrote every one of the first
    // `n` slots: the offsets partition [0, n) into one position per record.
    unsafe { dst.set_len(n) };
    offsets
}

/// The shared core of both entries: histogram, offsets, then the
/// disjoint-range replay that writes every slot of `dst` exactly once.
fn sort_into_uninit<'s, T, F>(
    src: &[T],
    dst: &mut [MaybeUninit<T>],
    m: usize,
    key: F,
    scratch: &'s mut CountingScratch,
) -> &'s [usize]
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> usize + Send + Sync,
{
    assert_eq!(src.len(), dst.len(), "src/dst length mismatch");
    assert!(m as u64 <= 1 << 32, "stored keys are u32");
    let n = src.len();
    let CountingScratch {
        counts,
        by_key,
        offsets,
        keys,
    } = scratch;
    offsets.clear();
    if n == 0 {
        offsets.resize(m + 1, 0);
        return offsets;
    }
    let blocks = num_blocks(n).min(n.div_ceil(m.max(1)).max(1));

    // Phase 1: per-block histograms, laid out block-major:
    // counts[b * m + k] = #elements with key k in block b. Each block also
    // stores its elements' keys, in its own slice of `keys`, split off
    // safely so the blocks can run in parallel.
    counts.clear();
    counts.resize(blocks * m, 0);
    keys.truncate(n);
    keys.resize(n, 0);
    let mut keys_rest: &mut [u32] = keys;
    let rows: Vec<(usize, &mut [usize], &mut [u32])> = counts
        .chunks_mut(m)
        .enumerate()
        .map(|(b, hist)| {
            let (mine, rest) =
                std::mem::take(&mut keys_rest).split_at_mut(block_range(b, blocks, n).len());
            keys_rest = rest;
            (b, hist, mine)
        })
        .collect();
    rows.into_par_iter().for_each(|(b, hist, block_keys)| {
        for (x, slot) in src[block_range(b, blocks, n)].iter().zip(block_keys) {
            let k = key(x);
            assert!(k < m, "key {k} out of range [0, {m})");
            hist[k] += 1;
            *slot = k as u32;
        }
    });

    // Phase 2: offsets. The write position of (block b, key k) must follow
    // all smaller keys and, within key k, all earlier blocks — i.e. scan the
    // counts in key-major order. Transpose, scan, transpose back.
    by_key.clear();
    by_key.resize(blocks * m, 0);
    transpose(counts, by_key, blocks, m);
    scan_add_exclusive(by_key);
    // Capture bucket starts before the transpose back: bucket k starts where
    // (key k, block 0) writes.
    offsets.extend((0..m).map(|k| by_key[k * blocks]));
    offsets.push(n);
    transpose(by_key, counts, m, blocks);
    let write_pos = counts; // now write_pos[b * m + k]

    // Phase 3: replay each block, writing elements to their final slots.
    // Each block advances its own row of cursors in place.
    let keys: &[u32] = keys;
    let out = SharedSlice::new(dst);
    write_pos
        .par_chunks_mut(m)
        .enumerate()
        .for_each(|(b, pos)| {
            let r = block_range(b, blocks, n);
            for (&k, x) in keys[r.clone()].iter().zip(&src[r]) {
                let k = k as usize;
                // SAFETY: the offset scan partitions [0, n) into disjoint
                // (block, key) ranges; this task owns exactly its own.
                unsafe { out.write(pos[k], MaybeUninit::new(*x)) };
                pos[k] += 1;
            }
        });
    offsets
}

/// Convenience in-place wrapper: stable counting sort of `a` by `key ∈ [0, m)`.
///
/// Allocates a scratch copy of `a`; returns the bucket offsets (see
/// [`counting_sort_into`]).
///
/// ```
/// let mut a = vec![(2u8, 'a'), (0, 'b'), (2, 'c'), (1, 'd')];
/// let offsets = parlay::counting_sort::counting_sort(&mut a, 3, |p| p.0 as usize);
/// assert_eq!(a, vec![(0, 'b'), (1, 'd'), (2, 'a'), (2, 'c')]); // stable
/// assert_eq!(offsets, vec![0, 1, 2, 4]);
/// ```
pub fn counting_sort<T, F>(a: &mut [T], m: usize, key: F) -> Vec<usize>
where
    T: Copy + Send + Sync + Default,
    F: Fn(&T) -> usize + Send + Sync,
{
    let src = a.to_vec();
    counting_sort_into(&src, a, m, key)
}

/// Transpose an `rows × cols` row-major matrix into `dst` (cols × rows).
fn transpose(src: &[usize], dst: &mut [usize], rows: usize, cols: usize) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    if rows * cols < crate::slices::GRAIN {
        for r in 0..rows {
            for c in 0..cols {
                dst[c * rows + r] = src[r * cols + c];
            }
        }
        return;
    }
    dst.par_chunks_mut(rows).enumerate().for_each(|(c, col)| {
        for (r, out) in col.iter_mut().enumerate() {
            *out = src[r * cols + c];
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        let mut a: Vec<u32> = vec![];
        let off = counting_sort(&mut a, 4, |&x| x as usize);
        assert_eq!(off, vec![0; 5]);
    }

    #[test]
    fn sorts_small_range() {
        let mut a: Vec<u32> = vec![3, 1, 0, 2, 1, 3, 0, 0];
        let off = counting_sort(&mut a, 4, |&x| x as usize);
        assert_eq!(a, vec![0, 0, 0, 1, 1, 2, 3, 3]);
        assert_eq!(off, vec![0, 3, 5, 6, 8]);
    }

    #[test]
    fn is_stable() {
        // (key, original index) pairs; after sorting, equal keys must keep
        // increasing original indices.
        let a: Vec<(u8, u32)> = (0..10_000u32).map(|i| ((i % 7) as u8, i)).collect();
        let mut b = a.clone();
        counting_sort(&mut b, 7, |x| x.0 as usize);
        for w in b.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated: {:?} {:?}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn large_matches_std_stable_sort() {
        let a: Vec<(u16, u32)> = (0..300_000u32)
            .map(|i| ((i.wrapping_mul(2654435761) % 256) as u16, i))
            .collect();
        let mut want = a.clone();
        want.sort_by_key(|x| x.0); // std stable sort
        let mut got = a.clone();
        counting_sort(&mut got, 256, |x| x.0 as usize);
        assert_eq!(got, want);
    }

    #[test]
    fn offsets_partition_output() {
        let mut a: Vec<u32> = (0..50_000).map(|i| (i * 31) % 100).collect();
        let off = counting_sort(&mut a, 100, |&x| x as usize);
        assert_eq!(off.len(), 101);
        assert_eq!(off[0], 0);
        assert_eq!(off[100], a.len());
        for k in 0..100 {
            assert!(a[off[k]..off[k + 1]].iter().all(|&x| x as usize == k));
        }
    }

    #[test]
    fn single_key_value() {
        let mut a = vec![0u8; 1000];
        let off = counting_sort(&mut a, 1, |&x| x as usize);
        assert_eq!(off, vec![0, 1000]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_key_panics() {
        let mut a = vec![5u32];
        counting_sort(&mut a, 4, |&x| x as usize);
    }

    #[test]
    fn pooled_scratch_matches_and_is_reused() {
        let src: Vec<(u32, u32)> = (0..60_000u32).map(|i| ((i * 7919) % 97, i)).collect();
        let mut scratch = CountingScratch::default();
        let mut got = Vec::new();
        let mut held = 0;
        // A fresh `Vec`, then warm ones with stale contents longer and
        // shorter than the input: each matches the slice entry byte for
        // byte and reuses the allocation and the scratch as they are.
        for (round, len) in [src.len(), src.len(), 1, 0, src.len() / 3]
            .into_iter()
            .enumerate()
        {
            let mut want = vec![(0, 0); len];
            let want_off = counting_sort_into(&src[..len], &mut want, 97, |x| x.0 as usize);
            let before = (got.capacity(), got.as_ptr());
            let off = counting_sort_into_vec_with(
                &src[..len],
                &mut got,
                97,
                |x| x.0 as usize,
                &mut scratch,
            );
            assert_eq!(off, &want_off[..], "len {len}");
            assert_eq!(got, want, "len {len}");
            if round == 0 {
                held = scratch.bytes();
            } else {
                assert_eq!(
                    (got.capacity(), got.as_ptr()),
                    before,
                    "len {len}: no regrowth"
                );
                assert_eq!(scratch.bytes(), held, "len {len}: scratch grew");
            }
        }
    }

    #[test]
    fn vec_entry_left_empty_by_a_panicking_key() {
        let src: Vec<u32> = (0..10_000).collect();
        let mut dst = vec![7u32; 50];
        let mut scratch = CountingScratch::default();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            counting_sort_into_vec_with(&src, &mut dst, 16, |&x| x as usize, &mut scratch);
        }));
        assert!(unwound.is_err(), "key 16 is out of range");
        assert!(dst.is_empty(), "no length is set before the replay joins");
    }

    #[test]
    fn into_variant_leaves_src_untouched() {
        let src: Vec<u32> = vec![2, 0, 1, 2];
        let mut dst = vec![9u32; 4];
        let off = counting_sort_into(&src, &mut dst, 3, |&x| x as usize);
        assert_eq!(src, vec![2, 0, 1, 2]);
        assert_eq!(dst, vec![0, 1, 2, 2]);
        assert_eq!(off, vec![0, 1, 2, 4]);
    }
}
