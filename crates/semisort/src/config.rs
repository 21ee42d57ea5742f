//! Tuning parameters.
//!
//! Defaults follow §4 of the paper exactly: "We set the sampling probability
//! p to be 1/16, and δ to be 16 … The number of light key buckets is set to
//! be 2^16", with the estimator constant `c = 1.25` and the slack factor
//! `1.1` from Phase 2 ("each bucket with s samples allocates an array of
//! size 1.1·f(s) with c = 1.25, and rounded up to the nearest power of 2").
//! The one default that departs from the paper is Phase 3: the exact
//! distribution ([`ScatterStrategy::Counting`]) replaces its CAS scatter,
//! which stays selectable as [`ScatterStrategy::RandomCas`].

pub use crate::fault::FaultPlan;
pub use crate::obs::TelemetryLevel;

use crate::error::SemisortError;

/// What the driver does once the Las Vegas machinery of the arena
/// strategies gives up — the retry budget is exhausted, the arena memory
/// budget is exceeded, or the arena allocation fails. Retries always happen
/// first; the policy governs only the terminal step. The exact
/// distribution ([`ScatterStrategy::Counting`]) has no terminal step, so
/// the policy never applies to it.
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

/// How Phase 3 moves records into their buckets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScatterStrategy {
    /// The exact distribution, and the default: one stable counting sort
    /// keyed by each record's bucket moves every record straight into its
    /// bucket's region of the output, then each light region is sorted.
    /// Exact counts mean no slot arena, no CAS, no overflow, no Las Vegas
    /// retry and no pack, and stability makes the output a function of
    /// the input and the seed alone, at any thread count. See
    /// [`BucketPlan::distribute_into`](crate::buckets::BucketPlan::distribute_into).
    Counting,
    /// The paper's Phase 3, kept as the reference that reproduces its
    /// tables: every record CASes into a random slot of its bucket's
    /// `α`-sized arena, probing on collision (see [`ProbeStrategy`]); a
    /// full bucket retries the run with doubled α.
    RandomCas,
}

impl ScatterStrategy {
    /// Parse a CLI spelling (`counting`, `random-cas`, or its alias `cas`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "counting" => Some(ScatterStrategy::Counting),
            "random-cas" | "cas" => Some(ScatterStrategy::RandomCas),
            _ => None,
        }
    }

    /// The CLI (and stats JSON) spelling of this strategy.
    pub fn as_str(self) -> &'static str {
        match self {
            ScatterStrategy::Counting => "counting",
            ScatterStrategy::RandomCas => "random-cas",
        }
    }
}

/// Phase 3 backend selection plus the knob it reads, grouped so that
/// adding a knob is not a breaking change to [`SemisortConfig`]
/// construction via `..Default::default()`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScatterConfig {
    /// Which Phase 3 implementation to run; default the exact
    /// [`ScatterStrategy::Counting`].
    pub strategy: ScatterStrategy,
    /// [`ScatterStrategy::RandomCas`] only: how many records ahead of the
    /// store the scatter computes the hash→slot mapping and issues a
    /// software prefetch for the target cache line; default 8, `0`
    /// disables prefetching. Capped at 64 — beyond that the lines fall out
    /// of the fill buffers before use.
    pub prefetch_distance: usize,
}

impl Default for ScatterConfig {
    fn default() -> Self {
        ScatterConfig {
            strategy: ScatterStrategy::Counting,
            prefetch_distance: 8,
        }
    }
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

/// Configuration for the semisort. `Default::default()` reproduces the
/// paper's shipped constants, with the exact distribution as Phase 3.
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
    /// Slack multiplier α on the size estimate; default 1.1.
    pub alpha: f64,
    /// Estimator constant c in `f(s)`; default 1.25.
    pub c: f64,
    /// Merge adjacent light buckets until each holds at least δ samples
    /// ("reduces the overall running time by at most 10%" — §4 Phase 2).
    /// Default true.
    pub merge_light_buckets: bool,
    /// Collision handling in the scatter; default linear probing.
    pub probe_strategy: ProbeStrategy,
    /// Phase 3 backend and its prefetch distance, grouped in one validated
    /// sub-struct (see [`ScatterConfig`]).
    pub scatter: ScatterConfig,
    /// Light-bucket sorting algorithm; default `StdUnstable`.
    pub local_sort_algo: LocalSortAlgo,
    /// Seed for sampling jitter and scatter randomness. Runs with equal
    /// seeds produce identical outputs at any thread count.
    pub seed: u64,
    /// Inputs at or below this size skip the machinery and sort directly
    /// (a semisorted order trivially); default 2^13.
    pub seq_threshold: usize,
    /// Maximum Las Vegas restarts on bucket overflow (Corollary 3.4 failure)
    /// before growing α; default 3, must be < 32 (α growth is `2^attempt`).
    /// Each retry re-randomizes scatter positions and doubles the
    /// overflowing run's slack. What happens when the budget runs out is
    /// governed by `overflow_policy`. [`ScatterStrategy::RandomCas`] only:
    /// the exact distribution cannot overflow and never retries.
    pub max_retries: u32,
    /// What to do when retries are exhausted, the arena budget is
    /// exceeded, or the arena allocation fails; default
    /// [`OverflowPolicy::Fallback`] (degrade, never crash).
    pub overflow_policy: OverflowPolicy,
    /// Upper bound in bytes on the scatter arena (slot array) of
    /// [`ScatterStrategy::RandomCas`]. α-doubling across retries grows the
    /// arena; a plan whose arena would exceed this budget triggers early
    /// degradation per `overflow_policy` instead of an oversized
    /// allocation. The exact distribution holds no arena and ignores it.
    /// Default `usize::MAX` (unlimited).
    pub max_arena_bytes: usize,
    /// Upper bound in bytes on the scratch memory a
    /// [`Semisorter`](crate::engine::Semisorter) *retains between calls*
    /// (see [`ScratchPool::bytes_held`](crate::pool::ScratchPool::bytes_held)).
    /// Unlike `max_arena_bytes` — which caps what a single run may
    /// allocate — this caps what the pool keeps warm afterwards: a call
    /// that leaves the pool over budget trims it back to empty on the way
    /// out. Default `usize::MAX` (retain everything).
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
            alpha: 1.1,
            c: 1.25,
            merge_light_buckets: true,
            probe_strategy: ProbeStrategy::Linear,
            scatter: ScatterConfig::default(),
            local_sort_algo: LocalSortAlgo::StdUnstable,
            seed: 0x5eed_0f5e_u64,
            seq_threshold: 1 << 13,
            max_retries: 3,
            overflow_policy: OverflowPolicy::Fallback,
            max_arena_bytes: usize::MAX,
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

    /// Builder-style setter for the overflow policy.
    pub fn with_overflow_policy(self, policy: OverflowPolicy) -> Self {
        self.to_builder().overflow_policy(policy).cfg
    }

    /// Builder-style setter for the arena memory budget.
    pub fn with_max_arena_bytes(self, bytes: usize) -> Self {
        self.to_builder().max_arena_bytes(bytes).cfg
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
        fn check(ok: bool, reason: &'static str) -> Result<(), SemisortError> {
            if ok {
                Ok(())
            } else {
                Err(SemisortError::InvalidConfig { reason })
            }
        }
        check(
            self.sample_shift >= 1 && self.sample_shift <= 16,
            "sample_shift must be in 1..=16",
        )?;
        check(self.heavy_threshold >= 2, "δ must be at least 2")?;
        check(
            self.light_bucket_log2 >= 1 && self.light_bucket_log2 <= 24,
            "light_bucket_log2 must be in 1..=24",
        )?;
        check(self.alpha > 1.0, "α must exceed 1 for scatter termination")?;
        check(self.c > 0.0, "estimator constant c must be positive")?;
        check(
            self.scatter.prefetch_distance <= 64,
            "scatter.prefetch_distance must be <= 64 (0 disables)",
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
        )?;
        check(
            self.max_scratch_bytes > 0,
            "max_scratch_bytes must be nonzero (usize::MAX = unlimited)",
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
///     .max_arena_bytes(1 << 30)
///     .build()
///     .expect("valid config");
/// assert_eq!(cfg.seed, 42);
/// assert!(SemisortConfig::builder().max_retries(32).build().is_err());
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
        /// Set the slack multiplier α.
        alpha: f64,
        /// Set the estimator constant c.
        c: f64,
        /// Set whether adjacent light buckets are merged.
        merge_light_buckets: bool,
        /// Set the scatter collision-probe strategy.
        probe_strategy: ProbeStrategy,
        /// Set the whole Phase 3 scatter sub-config (strategy + prefetch
        /// distance) in one call; see [`ScatterConfig`].
        scatter: ScatterConfig,
        /// Set the light-bucket sorting algorithm.
        local_sort_algo: LocalSortAlgo,
        /// Set the seed for sampling jitter and scatter randomness.
        seed: u64,
        /// Set the sequential-cutoff input size.
        seq_threshold: usize,
        /// Set the Las Vegas retry budget (must be < 32).
        max_retries: u32,
        /// Set the terminal overflow policy.
        overflow_policy: OverflowPolicy,
        /// Set the per-run arena memory budget in bytes.
        max_arena_bytes: usize,
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
    fn rejection(cfg: SemisortConfig) -> &'static str {
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
        assert!((c.alpha - 1.1).abs() < 1e-12);
        assert!((c.c - 1.25).abs() < 1e-12);
        assert!(c.merge_light_buckets);
        assert_eq!(c.probe_strategy, ProbeStrategy::Linear);
        assert_eq!(c.scatter.strategy, ScatterStrategy::Counting);
        assert_eq!(c.scatter.prefetch_distance, 8);
        assert_eq!(c.telemetry, TelemetryLevel::Off);
        assert!(c.try_validate().is_ok());
    }

    #[test]
    fn scatter_knobs_validated() {
        let from = |scatter: ScatterConfig| SemisortConfig {
            scatter,
            ..Default::default()
        };
        assert!(from(ScatterConfig {
            prefetch_distance: 65,
            ..Default::default()
        })
        .try_validate()
        .is_err());
        assert!(from(ScatterConfig {
            prefetch_distance: 0,
            ..Default::default()
        })
        .try_validate()
        .is_ok());
    }

    #[test]
    fn strategy_spellings_round_trip() {
        for st in [ScatterStrategy::Counting, ScatterStrategy::RandomCas] {
            assert_eq!(ScatterStrategy::parse(st.as_str()), Some(st));
        }
        assert_eq!(
            ScatterStrategy::parse("cas"),
            Some(ScatterStrategy::RandomCas)
        );
        assert_eq!(ScatterStrategy::parse("blocked"), None);
        assert_eq!(ScatterStrategy::parse("inplace"), None);
    }

    #[test]
    fn alpha_one_rejected() {
        let cfg = SemisortConfig {
            alpha: 1.0,
            ..Default::default()
        };
        assert!(rejection(cfg).contains("α must exceed 1"));
    }

    #[test]
    fn failure_handling_defaults_are_safe() {
        let c = SemisortConfig::default();
        assert_eq!(c.overflow_policy, OverflowPolicy::Fallback);
        assert_eq!(c.max_arena_bytes, usize::MAX);
        assert!(c.fault.is_inert());
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
        let cfg = SemisortConfig {
            max_retries: 32,
            ..Default::default()
        };
        assert!(rejection(cfg).contains("max_retries must be < 32"));
    }

    #[test]
    fn zero_arena_budget_rejected() {
        let cfg = SemisortConfig {
            max_arena_bytes: 0,
            ..Default::default()
        };
        assert!(rejection(cfg).contains("max_arena_bytes must be nonzero"));
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
            .alpha(1.5)
            .scatter(ScatterConfig {
                strategy: ScatterStrategy::RandomCas,
                ..Default::default()
            })
            .max_scratch_bytes(1 << 20)
            .build()
            .unwrap();
        assert_eq!(cfg.seed, 7);
        assert!((cfg.alpha - 1.5).abs() < 1e-12);
        assert_eq!(cfg.scatter.strategy, ScatterStrategy::RandomCas);
        assert_eq!(cfg.max_scratch_bytes, 1 << 20);
    }

    #[test]
    fn builder_rejects_invalid_without_panicking() {
        let err = SemisortConfig::builder()
            .max_retries(32)
            .build()
            .unwrap_err();
        match err {
            crate::SemisortError::InvalidConfig { reason } => {
                assert!(reason.contains("max_retries must be < 32"), "{reason}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(SemisortConfig::builder().alpha(1.0).build().is_err());
        assert!(SemisortConfig::builder()
            .scatter(ScatterConfig {
                prefetch_distance: 65,
                ..Default::default()
            })
            .build()
            .is_err());
        assert!(SemisortConfig::builder()
            .max_scratch_bytes(0)
            .build()
            .is_err());
    }
}
