//! Parallel iterators: sources, adapters, and consumers.
//!
//! Architecture: a parallel iterator is a *description* of an indexed item
//! stream — it knows its exact length and how to feed the items of any index
//! sub-range, in order, to a callback ([`ParallelIterator::pi_drive`]).
//! Consumers split `0..len` into blocks with `run_blocks` (crate-private), drive
//! each block (possibly on different threads), and combine per-block
//! results in index order. Adapters (`map`, `filter`, `enumerate`, …) wrap
//! the drive callback. `zip` additionally needs random access to its right
//! side, expressed by the [`RandomAccess`] sub-trait that all sources
//! implement.

use crate::run_blocks;
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

/// An exactly-sized parallel item stream. See the module docs for the model.
pub trait ParallelIterator: Sized + Sync {
    /// The element type produced by this iterator.
    type Item: Send;

    /// Exact number of items.
    #[doc(hidden)]
    fn pi_len(&self) -> usize;

    /// Minimum number of items a parallel block should hold.
    #[doc(hidden)]
    fn pi_min_len(&self) -> usize {
        1
    }

    /// Whether driving any range `r` yields exactly `r.len()` items, so
    /// that item `i` is the `i`-th produced. False (the safe default) for
    /// adapters that drop or add items, like `filter` and `flat_map_iter`.
    #[doc(hidden)]
    fn pi_exact(&self) -> bool {
        false
    }

    /// Feed the items with indices in `r`, in increasing index order, to `f`.
    ///
    /// # Safety
    ///
    /// Across one consumption of the iterator, every index must be driven at
    /// most once (sources like `into_par_iter` move items out by index, and
    /// `par_iter_mut` hands out `&mut` by index).
    #[doc(hidden)]
    unsafe fn pi_drive<F: FnMut(Self::Item)>(&self, r: Range<usize>, f: &mut F);

    // ---- adapters -------------------------------------------------------

    /// Require at least `min` items per parallel block.
    fn with_min_len(self, min: usize) -> MinLen<Self> {
        MinLen { base: self, min }
    }

    /// Transform every item with `f`.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { base: self, f }
    }

    /// Pair every item with its global index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Iterate two equally indexable streams in lockstep.
    fn zip<B>(self, other: B) -> Zip<Self, B::Iter>
    where
        Self: RandomAccess,
        B: IntoParallelIterator,
        B::Iter: RandomAccess,
    {
        Zip {
            a: self,
            b: other.into_par_iter(),
        }
    }

    /// Keep only items satisfying `p`.
    fn filter<P>(self, p: P) -> Filter<Self, P>
    where
        P: Fn(&Self::Item) -> bool + Sync,
    {
        Filter { base: self, p }
    }

    /// Map to an `Option` and keep the `Some` payloads.
    fn filter_map<R, P>(self, p: P) -> FilterMap<Self, P>
    where
        R: Send,
        P: Fn(Self::Item) -> Option<R> + Sync,
    {
        FilterMap { base: self, p }
    }

    /// Map every item to a sequential iterator and flatten the results.
    fn flat_map_iter<I, F>(self, f: F) -> FlatMapIter<Self, F>
    where
        I: IntoIterator,
        I::Item: Send,
        F: Fn(Self::Item) -> I + Sync,
    {
        FlatMapIter { base: self, f }
    }

    /// Copy out of an iterator over references.
    fn copied<'a, T>(self) -> Copied<Self>
    where
        Self: ParallelIterator<Item = &'a T>,
        T: Copy + Send + Sync + 'a,
    {
        Copied { base: self }
    }

    /// Clone out of an iterator over references.
    fn cloned<'a, T>(self) -> Cloned<Self>
    where
        Self: ParallelIterator<Item = &'a T>,
        T: Clone + Send + Sync + 'a,
    {
        Cloned { base: self }
    }

    // ---- consumers ------------------------------------------------------

    /// Run `f` on every item.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        run_blocks(self.pi_len(), self.pi_min_len(), &|r| {
            // SAFETY: run_blocks partitions 0..len disjointly.
            unsafe { self.pi_drive(r, &mut |x| f(x)) };
        });
    }

    /// Collect into a container (only `Vec` in this shim).
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }

    /// Sum the items.
    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
    {
        let parts: Vec<S> = run_blocks(self.pi_len(), self.pi_min_len(), &|r| {
            let mut acc: Option<S> = None;
            // SAFETY: disjoint blocks.
            unsafe {
                self.pi_drive(r, &mut |x| {
                    let v: S = std::iter::once(x).sum();
                    acc = Some(match acc.take() {
                        None => v,
                        Some(a) => [a, v].into_iter().sum(),
                    });
                });
            }
            acc.unwrap_or_else(|| std::iter::empty::<Self::Item>().sum())
        });
        parts.into_iter().sum()
    }

    /// Number of items (after filtering).
    fn count(self) -> usize {
        run_blocks(self.pi_len(), self.pi_min_len(), &|r| {
            let mut c = 0usize;
            // SAFETY: disjoint blocks.
            unsafe { self.pi_drive(r, &mut |_| c += 1) };
            c
        })
        .into_iter()
        .sum()
    }

    /// Whether any item satisfies `p`.
    fn any<P>(self, p: P) -> bool
    where
        P: Fn(Self::Item) -> bool + Sync,
    {
        let found = AtomicBool::new(false);
        self.for_each(|x| {
            // ORDERING: Relaxed early-exit hint; missing a concurrent set
            // only evaluates `p` on extra items.
            // publishes-via: fork-join barrier (for_each join)
            if !found.load(Ordering::Relaxed) && p(x) {
                // ORDERING: Relaxed monotone flag set, read after join.
                // publishes-via: fork-join barrier (for_each join)
                found.store(true, Ordering::Relaxed);
            }
        });
        // ORDERING: Relaxed post-join read; all setters joined above.
        // publishes-via: fork-join barrier (for_each join)
        found.load(Ordering::Relaxed)
    }

    /// Whether every item satisfies `p`.
    fn all<P>(self, p: P) -> bool
    where
        P: Fn(Self::Item) -> bool + Sync,
    {
        !self.any(|x| !p(x))
    }

    /// Largest item, `None` when empty.
    fn max(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        self.extreme(|a, b| a < b)
    }

    /// Smallest item, `None` when empty.
    fn min(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        self.extreme(|a, b| a > b)
    }

    #[doc(hidden)]
    fn extreme(self, worse: impl Fn(&Self::Item, &Self::Item) -> bool + Sync) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        let parts = run_blocks(self.pi_len(), self.pi_min_len(), &|r| {
            let mut best: Option<Self::Item> = None;
            // SAFETY: disjoint blocks.
            unsafe {
                self.pi_drive(r, &mut |x| match &best {
                    Some(b) if !worse(b, &x) => {}
                    _ => best = Some(x),
                });
            }
            best
        });
        parts.into_iter().flatten().fold(None, |acc, x| match acc {
            Some(b) if !worse(&b, &x) => Some(b),
            _ => Some(x),
        })
    }
}

/// Random access to items by index; required by `zip`. All sources (slices,
/// vecs, ranges) implement it.
///
/// # Safety
///
/// Implementations hand out items by index; callers must request each index
/// at most once per consumption (same contract as `pi_drive`).
pub unsafe trait RandomAccess: ParallelIterator {
    /// Produce the item at index `i`.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds and requested at most once per consumption.
    unsafe fn pi_get(&self, i: usize) -> Self::Item;
}

/// Build a container from a parallel iterator.
pub trait FromParallelIterator<T: Send> {
    /// Consume `it` into the container.
    fn from_par_iter<I: ParallelIterator<Item = T>>(it: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    /// An exact iterator's blocks write their items in parallel straight
    /// to their own index range of one output allocation, whose length is
    /// set after the join: a panic leaks the items already written
    /// instead of dropping any twice. Any other iterator's blocks collect
    /// into their own `Vec`s, concatenated in order.
    fn from_par_iter<I: ParallelIterator<Item = T>>(it: I) -> Self {
        if !it.pi_exact() {
            return collect_parts(it);
        }
        let len = it.pi_len();
        let mut out = Vec::with_capacity(len);
        let dst = SpareMut(out.as_mut_ptr());
        run_blocks(len, it.pi_min_len(), &|r: Range<usize>| {
            let (mut at, end) = (r.start, r.end);
            let mut put = |x| {
                assert!(at < end, "exact iterator overran its block");
                // SAFETY: `at` lies in this block's own range of the `len`
                // allocated slots; no other block writes it.
                unsafe { dst.write(at, x) };
                at += 1;
            };
            // SAFETY: run_blocks hands out disjoint blocks.
            unsafe { it.pi_drive(r, &mut put) };
            assert_eq!(at, end, "exact iterator fell short of its block");
        });
        // SAFETY: the blocks have joined, and each wrote every slot of
        // its range, which together tile 0..len.
        unsafe { out.set_len(len) };
        out
    }
}

/// [`Vec::from_par_iter`] for an iterator of unknown output length: one
/// `Vec` per block, concatenated in order.
fn collect_parts<T: Send, I: ParallelIterator<Item = T>>(it: I) -> Vec<T> {
    let parts = run_blocks(it.pi_len(), it.pi_min_len(), &|r| {
        let mut v = Vec::new();
        // SAFETY: disjoint blocks.
        unsafe { it.pi_drive(r, &mut |x| v.push(x)) };
        v
    });
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for p in parts {
        out.extend(p);
    }
    out
}

/// A collect's output buffer, written by many blocks at disjoint indices.
struct SpareMut<T>(*mut T);

// SAFETY: every writer owns a disjoint index range of the buffer, and the
// owning `Vec` reads it only after the fork-join barrier.
unsafe impl<T: Send> Sync for SpareMut<T> {}

impl<T> SpareMut<T> {
    /// Write `x` to slot `i`.
    ///
    /// # Safety
    ///
    /// `i` must lie in the allocation and no other thread may touch it.
    unsafe fn write(&self, i: usize, x: T) {
        // SAFETY: per this method's contract.
        unsafe { self.0.add(i).write(x) }
    }
}

// ---- conversion entry points -------------------------------------------

/// By-value conversion into a parallel iterator (`Vec`, integer ranges).
pub trait IntoParallelIterator {
    /// The resulting iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// The element type.
    type Item: Send;
    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

/// `.par_iter()` — by-shared-reference parallel iteration.
pub trait IntoParallelRefIterator<'a> {
    /// The resulting iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// The element type (a shared reference).
    type Item: Send + 'a;
    /// Borrowing conversion into a parallel iterator.
    fn par_iter(&'a self) -> Self::Iter;
}

/// `.par_iter_mut()` — by-mutable-reference parallel iteration.
pub trait IntoParallelRefMutIterator<'a> {
    /// The resulting iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// The element type (a mutable reference).
    type Item: Send + 'a;
    /// Mutably borrowing conversion into a parallel iterator.
    fn par_iter_mut(&'a mut self) -> Self::Iter;
}

impl<I: ParallelIterator> IntoParallelIterator for I {
    type Iter = I;
    type Item = I::Item;
    fn into_par_iter(self) -> I {
        self
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = VecIntoIter<T>;
    type Item = T;
    fn into_par_iter(self) -> VecIntoIter<T> {
        VecIntoIter::new(self)
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Iter = IterSlice<'a, T>;
    type Item = &'a T;
    fn par_iter(&'a self) -> IterSlice<'a, T> {
        IterSlice { s: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Iter = IterSlice<'a, T>;
    type Item = &'a T;
    fn par_iter(&'a self) -> IterSlice<'a, T> {
        IterSlice { s: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Iter = IterSliceMut<'a, T>;
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> IterSliceMut<'a, T> {
        IterSliceMut {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            _m: PhantomData,
        }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Iter = IterSliceMut<'a, T>;
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> IterSliceMut<'a, T> {
        self.as_mut_slice().par_iter_mut()
    }
}

// ---- sources ------------------------------------------------------------

/// Parallel iterator over `&[T]`.
pub struct IterSlice<'a, T: Sync> {
    s: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for IterSlice<'a, T> {
    type Item = &'a T;
    fn pi_len(&self) -> usize {
        self.s.len()
    }
    fn pi_exact(&self) -> bool {
        true
    }
    unsafe fn pi_drive<F: FnMut(Self::Item)>(&self, r: Range<usize>, f: &mut F) {
        let s: &'a [T] = self.s;
        for x in &s[r] {
            f(x);
        }
    }
}

// SAFETY: shared references may be produced for any index any number of
// times; the once-per-index contract is trivially satisfied.
unsafe impl<'a, T: Sync> RandomAccess for IterSlice<'a, T> {
    unsafe fn pi_get(&self, i: usize) -> &'a T {
        let s: &'a [T] = self.s;
        &s[i]
    }
}

/// Parallel iterator over `&mut [T]`.
pub struct IterSliceMut<'a, T: Send> {
    ptr: *mut T,
    len: usize,
    _m: PhantomData<&'a mut [T]>,
}

// SAFETY: the iterator owns an exclusive borrow of the slice; items are
// handed out at most once per index (drive contract), so no two threads
// ever hold `&mut` to the same element.
unsafe impl<T: Send> Send for IterSliceMut<'_, T> {}
// SAFETY: as above — `&IterSliceMut` only enables the once-per-index drive.
unsafe impl<T: Send> Sync for IterSliceMut<'_, T> {}

impl<'a, T: Send + 'a> ParallelIterator for IterSliceMut<'a, T> {
    type Item = &'a mut T;
    fn pi_len(&self) -> usize {
        self.len
    }
    fn pi_exact(&self) -> bool {
        true
    }
    unsafe fn pi_drive<F: FnMut(Self::Item)>(&self, r: Range<usize>, f: &mut F) {
        for i in r {
            // SAFETY: i < len (run_blocks ranges are in bounds) and each
            // index is driven once, so this &mut is unique.
            f(unsafe { &mut *self.ptr.add(i) });
        }
    }
}

// SAFETY: once-per-index contract is the caller's obligation (trait docs).
unsafe impl<'a, T: Send + 'a> RandomAccess for IterSliceMut<'a, T> {
    unsafe fn pi_get(&self, i: usize) -> &'a mut T {
        debug_assert!(i < self.len);
        // SAFETY: the caller visits each index at most once (trait
        // contract), so this is the only live &mut to element i; i < len.
        unsafe { &mut *self.ptr.add(i) }
    }
}

/// Owning parallel iterator over a `Vec`'s elements.
pub struct VecIntoIter<T: Send> {
    ptr: *mut T,
    len: usize,
    cap: usize,
}

// SAFETY: elements are moved out at most once per index; the struct is only
// shared to coordinate that disjoint movement.
unsafe impl<T: Send> Send for VecIntoIter<T> {}
// SAFETY: as above.
unsafe impl<T: Send> Sync for VecIntoIter<T> {}

impl<T: Send> VecIntoIter<T> {
    fn new(v: Vec<T>) -> Self {
        let mut v = ManuallyDrop::new(v);
        VecIntoIter {
            ptr: v.as_mut_ptr(),
            len: v.len(),
            cap: v.capacity(),
        }
    }
}

impl<T: Send> Drop for VecIntoIter<T> {
    fn drop(&mut self) {
        // Free the allocation without dropping elements: every element was
        // moved out by pi_drive during consumption. (If a consumer panics
        // mid-drive, un-driven elements leak rather than double-drop —
        // the safe direction.)
        // SAFETY: ptr/cap came from a Vec we took over; len 0 drops nothing.
        unsafe {
            drop(Vec::from_raw_parts(self.ptr, 0, self.cap));
        }
    }
}

impl<T: Send> ParallelIterator for VecIntoIter<T> {
    type Item = T;
    fn pi_len(&self) -> usize {
        self.len
    }
    fn pi_exact(&self) -> bool {
        true
    }
    unsafe fn pi_drive<F: FnMut(Self::Item)>(&self, r: Range<usize>, f: &mut F) {
        for i in r {
            // SAFETY: in bounds; each index driven once, so each element is
            // moved out exactly once.
            f(unsafe { std::ptr::read(self.ptr.add(i)) });
        }
    }
}

// SAFETY: once-per-index contract is the caller's obligation (trait docs).
unsafe impl<T: Send> RandomAccess for VecIntoIter<T> {
    unsafe fn pi_get(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        // SAFETY: i < len and the once-per-index contract makes this the
        // single read (move) of element i; Drop skips consumed elements.
        unsafe { std::ptr::read(self.ptr.add(i)) }
    }
}

/// Parallel iterator over an integer range.
pub struct RangeIter<T> {
    start: T,
    len: usize,
}

/// Integer types usable as parallel-range endpoints. One generic impl (as
/// opposed to one impl per integer type) keeps type inference working for
/// unsuffixed literals like `(0..n).into_par_iter()`.
pub trait RangeInt: Copy + Send + Sync {
    #[doc(hidden)]
    fn ri_add(self, i: usize) -> Self;
    #[doc(hidden)]
    fn ri_delta(end: Self, start: Self) -> usize;
}

macro_rules! range_int {
    ($($t:ty),*) => {$(
        impl RangeInt for $t {
            fn ri_add(self, i: usize) -> $t {
                self + i as $t
            }
            fn ri_delta(end: $t, start: $t) -> usize {
                if end > start {
                    (end - start) as usize
                } else {
                    0
                }
            }
        }
    )*};
}

range_int!(u8, u16, u32, u64, usize, i32, i64);

impl<T: RangeInt> IntoParallelIterator for Range<T> {
    type Iter = RangeIter<T>;
    type Item = T;
    fn into_par_iter(self) -> RangeIter<T> {
        RangeIter {
            start: self.start,
            len: T::ri_delta(self.end, self.start),
        }
    }
}

impl<T: RangeInt> ParallelIterator for RangeIter<T> {
    type Item = T;
    fn pi_len(&self) -> usize {
        self.len
    }
    fn pi_exact(&self) -> bool {
        true
    }
    unsafe fn pi_drive<F: FnMut(T)>(&self, r: Range<usize>, f: &mut F) {
        for i in r {
            f(self.start.ri_add(i));
        }
    }
}

// SAFETY: values are computed, not moved; any index may be produced.
unsafe impl<T: RangeInt> RandomAccess for RangeIter<T> {
    unsafe fn pi_get(&self, i: usize) -> T {
        self.start.ri_add(i)
    }
}

/// Parallel iterator over fixed-size chunks of `&[T]`.
pub struct Chunks<'a, T: Sync> {
    pub(crate) s: &'a [T],
    pub(crate) size: usize,
}

impl<'a, T: Sync> ParallelIterator for Chunks<'a, T> {
    type Item = &'a [T];
    fn pi_len(&self) -> usize {
        self.s.len().div_ceil(self.size)
    }
    fn pi_exact(&self) -> bool {
        true
    }
    unsafe fn pi_drive<F: FnMut(Self::Item)>(&self, r: Range<usize>, f: &mut F) {
        let s: &'a [T] = self.s;
        for b in r {
            let lo = b * self.size;
            let hi = (lo + self.size).min(s.len());
            f(&s[lo..hi]);
        }
    }
}

/// Parallel iterator over fixed-size chunks of `&mut [T]`.
pub struct ChunksMut<'a, T: Send> {
    pub(crate) ptr: *mut T,
    pub(crate) len: usize,
    pub(crate) size: usize,
    pub(crate) _m: PhantomData<&'a mut [T]>,
}

// SAFETY: chunk index ranges are disjoint by construction and each chunk is
// driven once, so no two `&mut [T]` overlap.
unsafe impl<T: Send> Send for ChunksMut<'_, T> {}
// SAFETY: as above.
unsafe impl<T: Send> Sync for ChunksMut<'_, T> {}

impl<'a, T: Send + 'a> ParallelIterator for ChunksMut<'a, T> {
    type Item = &'a mut [T];
    fn pi_len(&self) -> usize {
        self.len.div_ceil(self.size)
    }
    fn pi_exact(&self) -> bool {
        true
    }
    unsafe fn pi_drive<F: FnMut(Self::Item)>(&self, r: Range<usize>, f: &mut F) {
        for b in r {
            let lo = b * self.size;
            let hi = (lo + self.size).min(self.len);
            // SAFETY: chunk [lo, hi) is in bounds and driven exactly once.
            f(unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo) });
        }
    }
}

// ---- adapters -----------------------------------------------------------

/// See [`ParallelIterator::with_min_len`].
pub struct MinLen<S> {
    base: S,
    min: usize,
}

impl<S: ParallelIterator> ParallelIterator for MinLen<S> {
    type Item = S::Item;
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn pi_exact(&self) -> bool {
        self.base.pi_exact()
    }
    fn pi_min_len(&self) -> usize {
        self.min.max(self.base.pi_min_len())
    }
    unsafe fn pi_drive<F: FnMut(Self::Item)>(&self, r: Range<usize>, f: &mut F) {
        // SAFETY: forwarded — same range, same once-per-index contract.
        unsafe { self.base.pi_drive(r, f) }
    }
}

/// See [`ParallelIterator::map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S, R, F> ParallelIterator for Map<S, F>
where
    S: ParallelIterator,
    R: Send,
    F: Fn(S::Item) -> R + Sync,
{
    type Item = R;
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn pi_exact(&self) -> bool {
        self.base.pi_exact()
    }
    fn pi_min_len(&self) -> usize {
        self.base.pi_min_len()
    }
    unsafe fn pi_drive<G: FnMut(R)>(&self, r: Range<usize>, f: &mut G) {
        let map = &self.f;
        // SAFETY: forwarded — same range, same once-per-index contract.
        unsafe { self.base.pi_drive(r, &mut |x| f(map(x))) }
    }
}

/// See [`ParallelIterator::enumerate`].
pub struct Enumerate<S> {
    base: S,
}

impl<S: ParallelIterator> ParallelIterator for Enumerate<S> {
    type Item = (usize, S::Item);
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn pi_exact(&self) -> bool {
        self.base.pi_exact()
    }
    fn pi_min_len(&self) -> usize {
        self.base.pi_min_len()
    }
    unsafe fn pi_drive<F: FnMut(Self::Item)>(&self, r: Range<usize>, f: &mut F) {
        let mut i = r.start;
        // SAFETY: forwarded — same range, same once-per-index contract.
        unsafe {
            self.base.pi_drive(r, &mut |x| {
                f((i, x));
                i += 1;
            });
        }
    }
}

/// See [`ParallelIterator::zip`].
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: RandomAccess, B: RandomAccess> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    fn pi_len(&self) -> usize {
        self.a.pi_len().min(self.b.pi_len())
    }
    fn pi_exact(&self) -> bool {
        true
    }
    fn pi_min_len(&self) -> usize {
        self.a.pi_min_len().max(self.b.pi_min_len())
    }
    unsafe fn pi_drive<F: FnMut(Self::Item)>(&self, r: Range<usize>, f: &mut F) {
        for i in r {
            // SAFETY: forwarding the once-per-index contract to both sides.
            f(unsafe { (self.a.pi_get(i), self.b.pi_get(i)) });
        }
    }
}

// SAFETY: forwards the once-per-index contract to both sides.
unsafe impl<A: RandomAccess, B: RandomAccess> RandomAccess for Zip<A, B> {
    unsafe fn pi_get(&self, i: usize) -> Self::Item {
        // SAFETY: forwarded to both sides for the same index i.
        unsafe { (self.a.pi_get(i), self.b.pi_get(i)) }
    }
}

/// See [`ParallelIterator::filter`].
pub struct Filter<S, P> {
    base: S,
    p: P,
}

impl<S, P> ParallelIterator for Filter<S, P>
where
    S: ParallelIterator,
    P: Fn(&S::Item) -> bool + Sync,
{
    type Item = S::Item;
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn pi_min_len(&self) -> usize {
        self.base.pi_min_len()
    }
    unsafe fn pi_drive<F: FnMut(Self::Item)>(&self, r: Range<usize>, f: &mut F) {
        let keep = &self.p;
        // SAFETY: forwarded — same range, same once-per-index contract.
        unsafe {
            self.base.pi_drive(r, &mut |x| {
                if keep(&x) {
                    f(x);
                }
            });
        }
    }
}

/// See [`ParallelIterator::filter_map`].
pub struct FilterMap<S, P> {
    base: S,
    p: P,
}

impl<S, R, P> ParallelIterator for FilterMap<S, P>
where
    S: ParallelIterator,
    R: Send,
    P: Fn(S::Item) -> Option<R> + Sync,
{
    type Item = R;
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn pi_min_len(&self) -> usize {
        self.base.pi_min_len()
    }
    unsafe fn pi_drive<F: FnMut(R)>(&self, r: Range<usize>, f: &mut F) {
        let fm = &self.p;
        // SAFETY: forwarded — same range, same once-per-index contract.
        unsafe {
            self.base.pi_drive(r, &mut |x| {
                if let Some(y) = fm(x) {
                    f(y);
                }
            });
        }
    }
}

/// See [`ParallelIterator::flat_map_iter`].
pub struct FlatMapIter<S, F> {
    base: S,
    f: F,
}

impl<S, I, F> ParallelIterator for FlatMapIter<S, F>
where
    S: ParallelIterator,
    I: IntoIterator,
    I::Item: Send,
    F: Fn(S::Item) -> I + Sync,
{
    type Item = I::Item;
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn pi_min_len(&self) -> usize {
        self.base.pi_min_len()
    }
    unsafe fn pi_drive<G: FnMut(I::Item)>(&self, r: Range<usize>, f: &mut G) {
        let fm = &self.f;
        // SAFETY: forwarded — same range, same once-per-index contract.
        unsafe {
            self.base.pi_drive(r, &mut |x| {
                for y in fm(x) {
                    f(y);
                }
            });
        }
    }
}

/// See [`ParallelIterator::copied`].
pub struct Copied<S> {
    base: S,
}

impl<'a, T, S> ParallelIterator for Copied<S>
where
    T: Copy + Send + Sync + 'a,
    S: ParallelIterator<Item = &'a T>,
{
    type Item = T;
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn pi_exact(&self) -> bool {
        self.base.pi_exact()
    }
    fn pi_min_len(&self) -> usize {
        self.base.pi_min_len()
    }
    unsafe fn pi_drive<F: FnMut(T)>(&self, r: Range<usize>, f: &mut F) {
        // SAFETY: forwarded — same range, same once-per-index contract.
        unsafe { self.base.pi_drive(r, &mut |x| f(*x)) }
    }
}

/// See [`ParallelIterator::cloned`].
pub struct Cloned<S> {
    base: S,
}

impl<'a, T, S> ParallelIterator for Cloned<S>
where
    T: Clone + Send + Sync + 'a,
    S: ParallelIterator<Item = &'a T>,
{
    type Item = T;
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn pi_exact(&self) -> bool {
        self.base.pi_exact()
    }
    fn pi_min_len(&self) -> usize {
        self.base.pi_min_len()
    }
    unsafe fn pi_drive<F: FnMut(T)>(&self, r: Range<usize>, f: &mut F) {
        // SAFETY: forwarded — same range, same once-per-index contract.
        unsafe { self.base.pi_drive(r, &mut |x| f(x.clone())) }
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn map_collect_roundtrip() {
        let v: Vec<u32> = (0..1000u32).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v, (0..1000u32).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn into_par_iter_moves_noncopy_items() {
        let src: Vec<String> = (0..100).map(|i| i.to_string()).collect();
        let out: Vec<usize> = src.into_par_iter().map(|s| s.len()).collect();
        assert_eq!(out.len(), 100);
        assert_eq!(out[99], 2);
    }

    #[test]
    fn par_iter_mut_writes_every_slot() {
        let mut v = vec![0u64; 4096];
        v.par_iter_mut()
            .enumerate()
            .for_each(|(i, x)| *x = i as u64);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64));
    }

    #[test]
    fn zip_pairs_by_index() {
        let a = vec![1u64, 2, 3, 4];
        let mut b = vec![0u64; 4];
        b.par_iter_mut()
            .zip(a.par_iter())
            .for_each(|(dst, &src)| *dst = src * 10);
        assert_eq!(b, vec![10, 20, 30, 40]);
    }

    #[test]
    fn filter_count_sum_agree() {
        let n = 10_000usize;
        let evens = (0..n).into_par_iter().filter(|x| x % 2 == 0).count();
        assert_eq!(evens, n / 2);
        let s: usize = (0..n).into_par_iter().filter(|x| x % 2 == 0).sum();
        assert_eq!(s, (0..n).filter(|x| x % 2 == 0).sum::<usize>());
    }

    #[test]
    fn any_all_min_max() {
        let v: Vec<i64> = (-50..50).collect();
        assert!(v.par_iter().any(|&x| x == 49));
        assert!(!v.par_iter().any(|&x| x == 50));
        assert!(v.par_iter().all(|&x| x < 50));
        assert_eq!(v.par_iter().copied().max(), Some(49));
        assert_eq!(v.par_iter().copied().min(), Some(-50));
        let empty: Vec<i64> = vec![];
        assert_eq!(empty.par_iter().copied().max(), None);
    }

    #[test]
    fn filter_map_keeps_some() {
        let out: Vec<usize> = (0..100usize)
            .into_par_iter()
            .filter_map(|x| if x % 10 == 0 { Some(x / 10) } else { None })
            .collect();
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    /// Run `f` on a 4-thread pool, so collects split into several blocks.
    fn on_four<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        crate::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
            .install(f)
    }

    #[test]
    fn collect_matches_sequential_in_order_and_length() {
        on_four(|| {
            let f = |x: u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let par: Vec<u64> = (0..1_000_000u64).into_par_iter().map(f).collect();
            assert_eq!(par, (0..1_000_000u64).map(f).collect::<Vec<_>>());
            // Lengths no block count divides, exact and filtered.
            for len in [0usize, 1, 7, 17, 1023, 100_003] {
                let v: Vec<usize> = (0..len).into_par_iter().map(|x| x * 3).collect();
                assert_eq!(v, (0..len).map(|x| x * 3).collect::<Vec<_>>(), "len {len}");
                let v: Vec<usize> = (0..len).into_par_iter().filter(|x| x % 3 != 1).collect();
                assert_eq!(
                    v,
                    (0..len).filter(|x| x % 3 != 1).collect::<Vec<_>>(),
                    "len {len}"
                );
                let v: Vec<usize> = (0..len)
                    .into_par_iter()
                    .flat_map_iter(|x| std::iter::repeat_n(x, x % 3))
                    .collect();
                let want: Vec<usize> = (0..len)
                    .flat_map(|x| std::iter::repeat_n(x, x % 3))
                    .collect();
                assert_eq!(v, want, "len {len}");
            }
        });
    }

    #[test]
    fn panicking_collect_never_drops_an_item_twice() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static MADE: AtomicUsize = AtomicUsize::new(0);
        static DROPPED: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                // ORDERING: Relaxed counter, read after the join.
                // publishes-via: fork-join barrier (collect join)
                DROPPED.fetch_add(1, Ordering::Relaxed);
            }
        }
        let make = |i: usize| {
            assert!(i != 77_777, "injected");
            // ORDERING: Relaxed counter, read after the join.
            // publishes-via: fork-join barrier (collect join)
            MADE.fetch_add(1, Ordering::Relaxed);
            Counted
        };
        on_four(|| {
            let exact = std::panic::catch_unwind(|| {
                (0..100_000usize)
                    .into_par_iter()
                    .map(make)
                    .collect::<Vec<_>>()
            });
            let filtered = std::panic::catch_unwind(|| {
                (0..100_000usize)
                    .into_par_iter()
                    .filter(|i| i % 2 == 1)
                    .map(make)
                    .collect::<Vec<_>>()
            });
            assert!(exact.is_err() && filtered.is_err());
        });
        // ORDERING: Relaxed reads after every writer joined.
        // publishes-via: fork-join barrier (collect join)
        let (made, dropped) = (
            MADE.load(Ordering::Relaxed),
            DROPPED.load(Ordering::Relaxed),
        );
        assert!(dropped <= made, "{dropped} drops of {made} items");
    }

    #[test]
    fn enumerate_indices_are_global() {
        let v = vec![7u8; 5000];
        let idx: Vec<usize> = v.par_iter().enumerate().map(|(i, _)| i).collect();
        assert_eq!(idx, (0..5000).collect::<Vec<_>>());
    }
}
