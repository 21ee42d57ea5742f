//! A top-down parallel semisort.
//!
//! Rust reproduction of Gu, Shun, Sun and Blelloch, *A Top-Down Parallel
//! Semisort*, SPAA 2015. **Semisorting** reorders an array of records so
//! that records with equal keys are contiguous, without ordering distinct
//! keys — the core of the MapReduce shuffle, database `GROUP BY`, and many
//! parallel divide-and-conquer algorithms.
//!
//! The algorithm does `O(n)` expected work in `O(log n)` depth (w.h.p.):
//! hash the keys, sort a ~`1/16` sample, classify keys as **heavy** (many
//! duplicates) or **light**, allocate one bucket per heavy key and one per
//! slice of the hash range for light keys (sizes from the high-probability
//! estimator [`estimate::f_estimate`]), scatter every record into a random
//! slot of its bucket with CAS + linear probing, locally sort the light
//! buckets, and pack. The engine replaces the last three steps with an
//! exact distribution (one stable counting sort by bucket) and a sort of
//! each light region; the paper's CAS scatter stays available as the
//! one-shot reference run [`paper::try_semisort_with_stats`].
//!
//! # Quick start
//!
//! The primary surface is the [`Semisorter`] engine: build it once from a
//! validated [`SemisortConfig`], then call it repeatedly — its
//! [`pool::ScratchPool`] keeps every internal buffer warm between calls,
//! so steady-state calls do not regrow it (`scratch_grows == 0`).
//!
//! ```
//! use semisort::prelude::*;
//!
//! let mut engine = Semisorter::new(
//!     SemisortConfig::builder().seed(42).build().unwrap(),
//! ).unwrap();
//!
//! // (hashed key, payload) records; equal keys need not be adjacent.
//! let records: Vec<(u64, u64)> = (0..1000u64)
//!     .map(|i| (parlay::hash64(i % 10), i))
//!     .collect();
//! let out = engine.sort_pairs(&records).unwrap();
//!
//! // Every key now occupies one contiguous run.
//! assert!(semisort::verify::is_semisorted_by(&out, |r| r.0));
//! assert_eq!(out.len(), records.len());
//!
//! // Arbitrary hashable keys, grouping, folding — same engine, same pool.
//! let words = ["a", "b", "a", "c", "b", "a"];
//! let groups = engine.group_by(&words, |w| *w).unwrap();
//! assert_eq!(groups.len(), 3);
//! ```
//!
//! The free functions ([`try_semisort_pairs`], [`api::try_semisort_by_key`],
//! [`api::try_group_by`], [`api::try_reduce_by_key`], …) remain as one-shot
//! wrappers that build a transient engine per call — identical semantics,
//! minus the scratch reuse.
//!
//! # Failure handling
//!
//! Every engine method and engine one-shot runs one pooled run
//! ([`driver`]): sample, plan, distribute, then a parallel walk over the
//! bucket regions ([`aggregate`]). Its Phase 3 distributes records into
//! exact bucket regions with one stable counting sort: it cannot overflow
//! and runs once with no retry ladder. An engine call fails only on an
//! invalid configuration or a tripped [`CancelToken`]. It reserves no key:
//! the plan finds heavy keys in its sorted heavy-key list rather than in a
//! hash table with a vacancy sentinel, so every `u64` is a legal hashed key.
//!
//! The paper's CAS scatter, kept to reproduce the paper, runs only through
//! [`paper::try_semisort_with_stats`] with a [`PaperConfig`]. Its slot
//! arena reserves key 0 as the vacancy mark (an input holding it takes the
//! sort fallback). It is Las Vegas: a bucket can overflow its allocated
//! slots, in which case the run retries with doubled slack α. What happens when the retry budget (or
//! the optional [`PaperConfig::max_arena_bytes`] memory budget) is
//! exhausted is governed by [`OverflowPolicy`]: degrade to the
//! deterministic comparison-sort fallback (default) or return a
//! [`SemisortError`]. The [`fault`] module injects deterministic failures
//! into each phase so the whole escalation ladder is testable.
//!
//! The surface is Result-first everywhere; the [`prelude`] holds it.
//! Error enums ([`SemisortError`]), [`OverflowPolicy`] and
//! [`TelemetryLevel`] are `#[non_exhaustive]`; downstream matches need a
//! wildcard arm.
//!
//! # Observability
//!
//! Every run fills one [`SemisortStats`] record: its phase spans, its
//! counters and its [`Telemetry`]. The stats-v2 JSON
//! ([`SemisortStats::to_json`]), the Chrome trace ([`chrome_trace`]) and
//! the `SEMISORT_LOG` lines ([`obs`]) all render that record; none of them
//! records anything of its own.

#![warn(missing_docs)]
// The unsafe-code discipline (DESIGN.md §11): interior unsafe operations
// need their own block even inside `unsafe fn`, and every unsafe block
// carries a `// SAFETY:` comment. `cargo xtask lint` enforces the textual
// half workspace-wide; these make the compiler enforce it here.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod aggregate;
pub mod analysis;
pub mod api;
pub mod bounded;
pub mod buckets;
pub mod cancel;
pub mod config;
pub mod driver;
pub mod engine;
pub mod error;
pub mod estimate;
pub mod fault;
mod hash;
pub mod json;
pub mod local_sort;
pub mod obs;
pub mod pack_phase;
pub mod paper;
pub mod pool;
pub mod sample;
pub mod scatter;
pub mod stats;
pub mod trace;
pub mod verify;

pub use api::{
    try_count_by_key, try_group_by, try_reduce_by_key, try_semisort_by_key, try_semisort_in_place,
    try_semisort_pairs, try_semisort_permutation, try_semisort_stable_by_key,
};
pub use bounded::semisort_bounded;
pub use cancel::CancelToken;
pub use config::{
    LocalSortAlgo, OverflowPolicy, PaperConfig, ProbeStrategy, SemisortConfig,
    SemisortConfigBuilder,
};
pub use driver::{try_semisort_with_stats, try_semisort_with_stats_cancellable};
pub use engine::Semisorter;
pub use error::{DegradeReason, SemisortError};
pub use fault::{FaultClass, FaultPlan};
pub use json::Json;
pub use obs::{
    Hist, PhaseSpan, RetryCause, ServiceCounters, ServiceSnapshot, SpanRecord, Telemetry,
    TelemetryLevel,
};
pub use pool::ScratchPool;
pub use stats::SemisortStats;
pub use trace::{chrome_trace, TRACE_SCHEMA};

/// The v1 public surface in one import.
///
/// `use semisort::prelude::*` brings in the [`Semisorter`] engine, the
/// builder-based configuration, the `try_*` one-shot functions, and the
/// error/stats vocabulary — everything a new caller needs.
pub mod prelude {
    pub use crate::api::{
        hash_key, try_count_by_key, try_group_by, try_reduce_by_key, try_semisort_by_key,
        try_semisort_in_place, try_semisort_pairs, try_semisort_permutation,
        try_semisort_stable_by_key, Groups,
    };
    pub use crate::cancel::CancelToken;
    pub use crate::config::{LocalSortAlgo, SemisortConfig, SemisortConfigBuilder};
    pub use crate::driver::{try_semisort_with_stats, try_semisort_with_stats_cancellable};
    pub use crate::engine::Semisorter;
    pub use crate::error::{DegradeReason, SemisortError};
    pub use crate::obs::TelemetryLevel;
    pub use crate::pool::ScratchPool;
    pub use crate::stats::SemisortStats;
}
