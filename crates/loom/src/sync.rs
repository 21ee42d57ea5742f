//! Model-aware synchronization primitives: atomics whose every operation
//! is a yield point for the schedule explorer. `Arc` is re-exported from
//! `std` (reference counting has no schedule-visible effect the models
//! care about), matching the loom API surface the workspace uses.

pub use std::sync::Arc;

/// Model-aware atomic integers. Every operation runs under `SeqCst`
/// regardless of the ordering passed (the explorer walks the
/// sequentially-consistent interleaving space; see the crate docs).
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use crate::rt;

    macro_rules! model_atomic {
        ($(#[$doc:meta])* $name:ident, $std:ident, $ty:ty) => {
            $(#[$doc])*
            #[derive(Debug, Default)]
            pub struct $name(std::sync::atomic::$std);

            impl $name {
                /// A new atomic holding `v`.
                pub const fn new(v: $ty) -> Self {
                    Self(std::sync::atomic::$std::new(v))
                }

                /// Model-scheduled load (explored as `SeqCst`).
                pub fn load(&self, _order: Ordering) -> $ty {
                    rt::step();
                    self.0.load(Ordering::SeqCst)
                }

                /// Model-scheduled store (explored as `SeqCst`).
                pub fn store(&self, v: $ty, _order: Ordering) {
                    rt::step();
                    self.0.store(v, Ordering::SeqCst)
                }

                /// Model-scheduled fetch-add (explored as `SeqCst`).
                pub fn fetch_add(&self, v: $ty, _order: Ordering) -> $ty {
                    rt::step();
                    self.0.fetch_add(v, Ordering::SeqCst)
                }

                /// Model-scheduled compare-exchange (explored as `SeqCst`).
                pub fn compare_exchange(
                    &self,
                    current: $ty,
                    new: $ty,
                    _success: Ordering,
                    _failure: Ordering,
                ) -> Result<$ty, $ty> {
                    rt::step();
                    self.0
                        .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
                }

                /// Model-scheduled weak compare-exchange. Never fails
                /// spuriously in the model (spurious failure adds schedules
                /// without adding protocol outcomes).
                pub fn compare_exchange_weak(
                    &self,
                    current: $ty,
                    new: $ty,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    self.compare_exchange(current, new, success, failure)
                }

                /// Read the final value without scheduling — for asserting
                /// on the outcome *after* every model thread has joined.
                pub fn unsync_load(&self) -> $ty {
                    self.0.load(Ordering::SeqCst)
                }
            }
        };
    }

    model_atomic!(
        /// Model-aware `AtomicU64` (the scatter's slot-key type).
        AtomicU64,
        AtomicU64,
        u64
    );
    model_atomic!(
        /// Model-aware `AtomicU32`.
        AtomicU32,
        AtomicU32,
        u32
    );
    model_atomic!(
        /// Model-aware `AtomicIsize` (the work-stealing deque's
        /// `top`/`bottom` indices, which go transiently negative in `pop`).
        AtomicIsize,
        AtomicIsize,
        isize
    );

    /// Model-aware `AtomicBool` (overflow latch, cancel token, spin
    /// latch). Bools have no fetch-add, so this is not macro-generated;
    /// it carries the flag subset the protocols use.
    #[derive(Debug, Default)]
    pub struct AtomicBool(std::sync::atomic::AtomicBool);

    impl AtomicBool {
        /// A new atomic holding `v`.
        pub const fn new(v: bool) -> Self {
            Self(std::sync::atomic::AtomicBool::new(v))
        }

        /// Model-scheduled load (explored as `SeqCst`).
        pub fn load(&self, _order: Ordering) -> bool {
            rt::step();
            self.0.load(Ordering::SeqCst)
        }

        /// Model-scheduled store (explored as `SeqCst`).
        pub fn store(&self, v: bool, _order: Ordering) {
            rt::step();
            self.0.store(v, Ordering::SeqCst)
        }

        /// Model-scheduled swap (explored as `SeqCst`).
        pub fn swap(&self, v: bool, _order: Ordering) -> bool {
            rt::step();
            self.0.swap(v, Ordering::SeqCst)
        }

        /// Model-scheduled compare-exchange (explored as `SeqCst`).
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            _success: Ordering,
            _failure: Ordering,
        ) -> Result<bool, bool> {
            rt::step();
            self.0
                .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
        }

        /// Read the final value without scheduling — for asserting on the
        /// outcome *after* every model thread has joined.
        pub fn unsync_load(&self) -> bool {
            self.0.load(Ordering::SeqCst)
        }
    }

    /// Model-scheduled memory fence. The explorer runs every atomic op
    /// `SeqCst`, so the fence contributes no extra ordering — it is a
    /// yield point only, letting schedules branch where the production
    /// code has its Dekker-style fences.
    pub fn fence(_order: Ordering) {
        crate::rt::step();
    }
}
