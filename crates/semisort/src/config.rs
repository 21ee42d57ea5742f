//! Tuning parameters.
//!
//! Defaults follow §4 of the paper exactly: "We set the sampling probability
//! p to be 1/16, and δ to be 16 … The number of light key buckets is set to
//! be 2^16", with the estimator constant `c = 1.25` and the slack factor
//! `1.1` from Phase 2 ("each bucket with s samples allocates an array of
//! size 1.1·f(s) with c = 1.25, and rounded up to the nearest power of 2").
//! The one default that departs from the paper is Phase 3: the engine
//! ([`SemisortConfig`]) runs the exact distribution, one stable counting
//! sort by bucket, in place of the paper's CAS scatter. The CAS scatter
//! and its constants (`α`, `c`, the probe strategy, the Las Vegas retry
//! budget) live in [`PaperConfig`], read only by the one-shot
//! [`crate::paper`] entry point.

pub use crate::fault::FaultPlan;
pub use crate::obs::TelemetryLevel;

use crate::error::SemisortError;

/// What [`crate::paper`] does once its Las Vegas machinery gives up — the
/// retry budget is exhausted, the arena memory budget is exceeded, or the
/// arena allocation fails. Retries always happen first; the policy governs
/// only the terminal step. The engine's exact distribution has no terminal
/// step, so no policy applies to it.
///
/// `#[non_exhaustive]`: future versions may add policies; match with a
/// wildcard arm.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum OverflowPolicy {
    /// Retry, then degrade to the guaranteed comparison-sort fallback —
    /// still a correct semisort, `O(n log n)` instead of `O(n)`, never a
    /// crash. The default: valid input can never abort the process.
    #[default]
    Fallback,
    /// Retry, then return a [`crate::SemisortError`] from the `try_*`
    /// entry points. A caller that prefers to die loudly over degrading
    /// silently picks this and `expect`s the result.
    Error,
}

impl OverflowPolicy {
    /// Parse a CLI spelling (`fallback`, `error`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fallback" => Some(OverflowPolicy::Fallback),
            "error" => Some(OverflowPolicy::Error),
            _ => None,
        }
    }

    /// The CLI spelling of this policy.
    pub fn as_str(self) -> &'static str {
        match self {
            OverflowPolicy::Fallback => "fallback",
            OverflowPolicy::Error => "error",
        }
    }
}

/// How the scatter phase resolves an occupied slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeStrategy {
    /// Try the next slot ("linear probing. This gives better cache
    /// performance" — §4 Phase 3). The default.
    Linear,
    /// Pick a fresh random slot each time, as in the theoretical
    /// description of the placement problem (§3). Kept for the ablation
    /// benchmark that quantifies how much linear probing buys.
    Random,
}

/// Which algorithm sorts each light bucket in Phase 4.
///
/// The paper "tried several versions including a bucket sort, some
/// comparison-based hybrid sort algorithms, and the sort in the C++
/// Standard Library" and found them similar; these variants let the
/// ablation bench repeat that comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocalSortAlgo {
    /// Rust's `slice::sort_unstable` (pdqsort) — the `std::sort` analogue
    /// the paper shipped with. The default.
    StdUnstable,
    /// Two passes of stable counting sort on fresh labels, as in the
    /// theoretical Step 7c.
    Counting,
    /// Rust's stable `slice::sort` (timsort-like).
    StdStable,
}

/// Configuration for the semisort engine. `Default::default()` reproduces
/// the paper's shipped constants for every phase the engine runs (sampling,
/// heavy/light classification, light buckets, local sort); Phase 3 is the
/// exact distribution, which needs no slack or retry constants. The paper's
/// CAS scatter takes its extra knobs from [`PaperConfig`].
#[derive(Clone, Copy, Debug)]
pub struct SemisortConfig {
    /// Sampling probability is `1/2^sample_shift`; default 4 (p = 1/16).
    pub sample_shift: u32,
    /// δ: a key is heavy if it appears at least this many times in the
    /// sample; default 16.
    pub heavy_threshold: usize,
    /// Upper bound on the light-bucket prefix bits; default 16 (the
    /// paper's 2^16 buckets at n = 10⁸). The effective count follows the
    /// theoretical Θ(n/log²n) rule, capped here — see
    /// `buckets::effective_prefix_bits`.
    pub light_bucket_log2: u32,
    /// Merge adjacent light buckets until each holds at least δ samples
    /// ("reduces the overall running time by at most 10%" — §4 Phase 2).
    /// Default true.
    pub merge_light_buckets: bool,
    /// Light-bucket sorting algorithm; default `StdUnstable`.
    pub local_sort_algo: LocalSortAlgo,
    /// Seed for sampling jitter and scatter randomness. Runs with equal
    /// seeds produce identical outputs at any thread count.
    pub seed: u64,
    /// Inputs at or below this size skip the machinery and sort directly
    /// (a semisorted order trivially); default 2^13.
    pub seq_threshold: usize,
    /// Upper bound in bytes on the scratch memory a
    /// [`Semisorter`](crate::engine::Semisorter) *retains between calls*
    /// (see [`ScratchPool::bytes_held`](crate::pool::ScratchPool::bytes_held)):
    /// a call that leaves the pool over budget trims it back to empty on
    /// the way out. Default `usize::MAX` (retain everything).
    pub max_scratch_bytes: usize,
    /// Deterministic fault-injection schedule (dev/chaos-testing only);
    /// default inert. See [`crate::fault`].
    pub fault: FaultPlan,
    /// How much telemetry the run collects (see [`TelemetryLevel`]);
    /// default `Off`, which keeps the hot loops at their pre-telemetry
    /// cost. Retry causes are recorded at every level (cold path).
    pub telemetry: TelemetryLevel,
    /// Whether the driver snapshots the work-stealing pool's
    /// [`SchedulerStats`](rayon::trace::SchedulerStats) around the run and
    /// attaches the delta to
    /// [`SemisortStats::scheduler`](crate::stats::SemisortStats::scheduler).
    /// Default true: two counter snapshots per run, far off the hot path.
    /// Turn off for byte-stable stats JSON across runs, or to skip forcing
    /// the global registry into existence on otherwise sequential paths.
    pub capture_scheduler: bool,
}

impl Default for SemisortConfig {
    fn default() -> Self {
        SemisortConfig {
            sample_shift: 4,
            heavy_threshold: 16,
            light_bucket_log2: 16,
            merge_light_buckets: true,
            local_sort_algo: LocalSortAlgo::StdUnstable,
            seed: 0x5eed_0f5e_u64,
            seq_threshold: 1 << 13,
            max_scratch_bytes: usize::MAX,
            fault: FaultPlan::NONE,
            telemetry: TelemetryLevel::Off,
            capture_scheduler: true,
        }
    }
}

impl SemisortConfig {
    /// Start a validating builder (see [`SemisortConfigBuilder`]); `build()`
    /// returns `Err(SemisortError::InvalidConfig)` instead of panicking on
    /// bad parameters.
    #[must_use]
    pub fn builder() -> SemisortConfigBuilder {
        SemisortConfigBuilder {
            cfg: SemisortConfig::default(),
        }
    }

    /// The sampling probability `p = 1/2^sample_shift`.
    #[inline]
    pub fn sample_probability(&self) -> f64 {
        1.0 / (1u64 << self.sample_shift) as f64
    }

    /// The sampling stride `1/p` (records per sample).
    #[inline]
    pub fn sample_stride(&self) -> usize {
        1 << self.sample_shift
    }

    /// Maximum number of light-bucket hash-prefix classes
    /// (`2^light_bucket_log2`); the effective count additionally scales
    /// with n (see `buckets::effective_prefix_bits`).
    #[inline]
    pub fn num_prefixes(&self) -> usize {
        1 << self.light_bucket_log2
    }

    /// Wrap this config in a builder to override more fields (the inverse
    /// of [`SemisortConfigBuilder::build`], minus the validation).
    #[must_use]
    pub fn to_builder(self) -> SemisortConfigBuilder {
        SemisortConfigBuilder { cfg: self }
    }

    /// Builder-style setter for the seed (delegates to
    /// [`SemisortConfigBuilder::seed`]; no validation).
    pub fn with_seed(self, seed: u64) -> Self {
        self.to_builder().seed(seed).cfg
    }

    /// Builder-style setter for the telemetry level.
    pub fn with_telemetry(self, level: TelemetryLevel) -> Self {
        self.to_builder().telemetry(level).cfg
    }

    /// Builder-style setter for the retained-scratch budget.
    pub fn with_max_scratch_bytes(self, bytes: usize) -> Self {
        self.to_builder().max_scratch_bytes(bytes).cfg
    }

    /// Builder-style setter for the fault-injection plan.
    pub fn with_fault(self, fault: FaultPlan) -> Self {
        self.to_builder().fault(fault).cfg
    }

    /// Validate parameter sanity without panicking; the error's `reason`
    /// names the offending parameter. Called once per run by the driver and
    /// by [`SemisortConfigBuilder::build`].
    #[must_use = "the Err carries the validation failure"]
    pub fn try_validate(&self) -> Result<(), SemisortError> {
        check(
            self.sample_shift >= 1 && self.sample_shift <= 16,
            "sample_shift must be in 1..=16",
        )?;
        check(self.heavy_threshold >= 2, "δ must be at least 2")?;
        check(
            self.light_bucket_log2 >= 1 && self.light_bucket_log2 <= 24,
            "light_bucket_log2 must be in 1..=24",
        )?;
        check(
            self.max_scratch_bytes > 0,
            "max_scratch_bytes must be nonzero (usize::MAX = unlimited)",
        )
    }
}

/// `Err(InvalidConfig { reason })` unless `ok`.
fn check(ok: bool, reason: &'static str) -> Result<(), SemisortError> {
    if ok {
        Ok(())
    } else {
        Err(SemisortError::InvalidConfig { reason })
    }
}

/// Configuration of the paper's reference run ([`crate::paper`]): an engine
/// [`SemisortConfig`] for the phases both share, plus the seven knobs only
/// the CAS scatter and its Las Vegas loop read. `Default::default()` is the
/// paper's §4 setup: `α = 1.1`, `c = 1.25`, linear probing.
#[derive(Clone, Copy, Debug)]
pub struct PaperConfig {
    /// Sampling, bucket, local-sort, seed, fault and telemetry settings,
    /// read exactly as the engine reads them. Its `max_scratch_bytes` has
    /// nothing to bound: a paper run keeps no scratch.
    pub base: SemisortConfig,
    /// Slack multiplier α on each bucket's size estimate; default 1.1.
    pub alpha: f64,
    /// Estimator constant c in `f(s)`; default 1.25.
    pub c: f64,
    /// Collision handling in the scatter; default linear probing.
    pub probe_strategy: ProbeStrategy,
    /// How many records ahead of the store the scatter computes the
    /// hash→slot mapping and issues a software prefetch for the target
    /// cache line; default 8, `0` disables prefetching. Capped at 64 —
    /// beyond that the lines fall out of the fill buffers before use.
    pub prefetch_distance: usize,
    /// Maximum Las Vegas restarts on bucket overflow (Corollary 3.4
    /// failure); default 3, must be < 32 (α growth is `2^attempt`). Each
    /// retry re-randomizes scatter positions and doubles the slack. What
    /// happens when the budget runs out is governed by `overflow_policy`.
    pub max_retries: u32,
    /// What to do when retries are exhausted, the arena budget is
    /// exceeded, or the arena allocation fails; default
    /// [`OverflowPolicy::Fallback`] (degrade, never crash).
    pub overflow_policy: OverflowPolicy,
    /// Upper bound in bytes on one attempt's slot arena. α-doubling across
    /// retries grows the arena; a plan whose arena would exceed this budget
    /// triggers early degradation per `overflow_policy` instead of an
    /// oversized allocation. Default `usize::MAX` (unlimited).
    pub max_arena_bytes: usize,
}

impl Default for PaperConfig {
    fn default() -> Self {
        PaperConfig::new(SemisortConfig::default())
    }
}

impl PaperConfig {
    /// The paper's scatter constants on top of `base`.
    pub fn new(base: SemisortConfig) -> Self {
        PaperConfig {
            base,
            alpha: 1.1,
            c: 1.25,
            probe_strategy: ProbeStrategy::Linear,
            prefetch_distance: 8,
            max_retries: 3,
            overflow_policy: OverflowPolicy::Fallback,
            max_arena_bytes: usize::MAX,
        }
    }

    /// Validate `base` and the seven scatter knobs without panicking; the
    /// error's `reason` names the offending parameter. Called once per run
    /// by [`crate::paper::try_semisort_with_stats`].
    #[must_use = "the Err carries the validation failure"]
    pub fn try_validate(&self) -> Result<(), SemisortError> {
        self.base.try_validate()?;
        check(self.alpha > 1.0, "α must exceed 1 for scatter termination")?;
        check(self.c > 0.0, "estimator constant c must be positive")?;
        check(
            self.prefetch_distance <= 64,
            "prefetch_distance must be <= 64 (0 disables)",
        )?;
        // α grows as 2^attempt across retries; 32 doublings already
        // overflows any conceivable arena budget, and an unbounded retry
        // count turns a hash-flooded input into unbounded memory growth.
        check(
            self.max_retries < 32,
            "max_retries must be < 32 (each retry doubles α)",
        )?;
        check(
            self.max_arena_bytes > 0,
            "max_arena_bytes must be nonzero (usize::MAX = unlimited)",
        )
    }
}

/// Validating builder for [`SemisortConfig`].
///
/// Starts from `SemisortConfig::default()` (the paper's constants); each
/// setter overrides one field; [`build`](Self::build) runs
/// [`SemisortConfig::try_validate`] and returns
/// `Err(SemisortError::InvalidConfig)` — rather than panicking — on bad
/// parameters.
///
/// ```
/// use semisort::SemisortConfig;
/// let cfg = SemisortConfig::builder()
///     .seed(42)
///     .max_scratch_bytes(1 << 30)
///     .build()
///     .expect("valid config");
/// assert_eq!(cfg.seed, 42);
/// assert!(SemisortConfig::builder().heavy_threshold(1).build().is_err());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SemisortConfigBuilder {
    cfg: SemisortConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            #[must_use]
            pub fn $name(mut self, $name: $ty) -> Self {
                self.cfg.$name = $name;
                self
            }
        )*
    };
}

impl SemisortConfigBuilder {
    builder_setters! {
        /// Set the sampling shift (`p = 1/2^sample_shift`).
        sample_shift: u32,
        /// Set δ, the heavy-key sample-count threshold.
        heavy_threshold: usize,
        /// Set the light-bucket prefix-bit cap.
        light_bucket_log2: u32,
        /// Set whether adjacent light buckets are merged.
        merge_light_buckets: bool,
        /// Set the light-bucket sorting algorithm.
        local_sort_algo: LocalSortAlgo,
        /// Set the seed for sampling jitter and scatter randomness.
        seed: u64,
        /// Set the sequential-cutoff input size.
        seq_threshold: usize,
        /// Set the retained-scratch budget in bytes (see
        /// [`SemisortConfig::max_scratch_bytes`]).
        max_scratch_bytes: usize,
        /// Set the fault-injection plan (dev/chaos-testing only).
        fault: FaultPlan,
        /// Set the telemetry level.
        telemetry: TelemetryLevel,
        /// Set whether scheduler stats are snapshot around each run.
        capture_scheduler: bool,
    }

    /// Validate and return the finished configuration.
    #[must_use = "the Err carries the validation failure"]
    pub fn build(self) -> Result<SemisortConfig, SemisortError> {
        self.cfg.try_validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The validation message `cfg` is rejected with.
    fn rejection(cfg: PaperConfig) -> &'static str {
        match cfg.try_validate() {
            Err(SemisortError::InvalidConfig { reason }) => reason,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn defaults_match_paper() {
        let c = SemisortConfig::default();
        assert_eq!(c.sample_stride(), 16);
        assert_eq!(c.sample_probability(), 1.0 / 16.0);
        assert_eq!(c.heavy_threshold, 16);
        assert_eq!(c.num_prefixes(), 65536);
        assert!(c.merge_light_buckets);
        assert_eq!(c.telemetry, TelemetryLevel::Off);
        assert!(c.try_validate().is_ok());
    }

    #[test]
    fn paper_defaults_match_paper() {
        let p = PaperConfig::default();
        assert!((p.alpha - 1.1).abs() < 1e-12);
        assert!((p.c - 1.25).abs() < 1e-12);
        assert_eq!(p.probe_strategy, ProbeStrategy::Linear);
        assert_eq!(p.prefetch_distance, 8);
        assert_eq!(p.max_retries, 3);
        assert_eq!(p.base.sample_stride(), 16);
        assert_eq!(p.base.heavy_threshold, 16);
        assert_eq!(p.base.num_prefixes(), 65536);
        assert!(p.try_validate().is_ok());
    }

    #[test]
    fn scatter_knobs_validated() {
        let with = |prefetch_distance| PaperConfig {
            prefetch_distance,
            ..Default::default()
        };
        assert!(rejection(with(65)).contains("prefetch_distance must be <= 64"));
        assert!(with(0).try_validate().is_ok());
    }

    #[test]
    fn alpha_one_rejected() {
        let cfg = PaperConfig {
            alpha: 1.0,
            ..Default::default()
        };
        assert!(rejection(cfg).contains("α must exceed 1"));
    }

    #[test]
    fn failure_handling_defaults_are_safe() {
        let p = PaperConfig::default();
        assert_eq!(p.overflow_policy, OverflowPolicy::Fallback);
        assert_eq!(p.max_arena_bytes, usize::MAX);
        assert!(p.base.fault.is_inert());
        assert!(SemisortConfig::default().fault.is_inert());
    }

    #[test]
    fn overflow_policy_parses_both_ways() {
        for p in [OverflowPolicy::Fallback, OverflowPolicy::Error] {
            assert_eq!(OverflowPolicy::parse(p.as_str()), Some(p));
        }
        assert_eq!(OverflowPolicy::parse("abort"), None);
        assert_eq!(OverflowPolicy::parse("panic"), None);
    }

    #[test]
    fn huge_retry_budget_rejected() {
        let cfg = PaperConfig {
            max_retries: 32,
            ..Default::default()
        };
        assert!(rejection(cfg).contains("max_retries must be < 32"));
    }

    #[test]
    fn zero_arena_budget_rejected() {
        let cfg = PaperConfig {
            max_arena_bytes: 0,
            ..Default::default()
        };
        assert!(rejection(cfg).contains("max_arena_bytes must be nonzero"));
    }

    #[test]
    fn paper_config_validates_its_base() {
        let cfg = PaperConfig::new(SemisortConfig {
            heavy_threshold: 1,
            ..Default::default()
        });
        assert!(rejection(cfg).contains("δ must be at least 2"));
    }

    #[test]
    fn with_seed_changes_only_seed() {
        let a = SemisortConfig::default();
        let b = SemisortConfig::default().with_seed(99);
        assert_eq!(b.seed, 99);
        assert_eq!(a.heavy_threshold, b.heavy_threshold);
    }

    #[test]
    fn builder_accepts_defaults_and_overrides() {
        let cfg = SemisortConfig::builder()
            .seed(7)
            .heavy_threshold(8)
            .local_sort_algo(LocalSortAlgo::Counting)
            .max_scratch_bytes(1 << 20)
            .build()
            .unwrap();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.heavy_threshold, 8);
        assert_eq!(cfg.local_sort_algo, LocalSortAlgo::Counting);
        assert_eq!(cfg.max_scratch_bytes, 1 << 20);
    }

    #[test]
    fn builder_rejects_invalid_without_panicking() {
        let err = SemisortConfig::builder()
            .heavy_threshold(1)
            .build()
            .unwrap_err();
        match err {
            crate::SemisortError::InvalidConfig { reason } => {
                assert!(reason.contains("δ must be at least 2"), "{reason}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(SemisortConfig::builder().sample_shift(0).build().is_err());
        assert!(SemisortConfig::builder()
            .light_bucket_log2(25)
            .build()
            .is_err());
        assert!(SemisortConfig::builder()
            .max_scratch_bytes(0)
            .build()
            .is_err());
    }
}
