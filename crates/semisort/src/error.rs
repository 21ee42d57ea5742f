//! Failure handling: the error type of the `try_*` entry points and the
//! degradation vocabulary shared by the driver, stats, and CLI.
//!
//! The engine's exact distribution cannot overflow, so an engine call
//! fails only on an invalid configuration, a tripped
//! [`CancelToken`](crate::cancel::CancelToken), or — in `semisortd` — an
//! admission shed or a poisoned shard.
//!
//! The paper's CAS scatter ([`crate::paper`]) is Las Vegas: Corollary 3.4
//! bounds the probability that a bucket overflows to `O(1/n^c)`, but
//! *bounded* is not *zero*, and an adversarial (hash-flooded) input can
//! push the tail probability up. A paper run therefore never treats
//! overflow as fatal. Every terminal failure — retry budget exhausted,
//! arena memory budget exceeded, arena allocation failed — is routed
//! through the configured
//! [`OverflowPolicy`](crate::config::OverflowPolicy):
//!
//! - **Fallback** (default): degrade to the guaranteed `fallback_sort`
//!   comparison path. Still a correct semisort — `O(n log n)` work instead
//!   of `O(n)`, never a crash.
//! - **Error**: return a [`SemisortError`].
//!
//! [`DegradeReason`] records *why* a run degraded; it rides on
//! [`SemisortStats`](crate::stats::SemisortStats) and the stats JSON so a
//! production fleet can alert on degradations.

use std::fmt;

/// Why a semisort run could not complete on the linear-work path.
///
/// The three arena failures are returned only by [`crate::paper`] runs
/// under [`OverflowPolicy::Error`](crate::config::OverflowPolicy::Error).
///
/// `#[non_exhaustive]`: future versions may add failure kinds (as this one
/// added [`SemisortError::InvalidConfig`]); match with a wildcard arm.
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub enum SemisortError {
    /// The configuration failed validation (see
    /// [`SemisortConfig::try_validate`](crate::config::SemisortConfig::try_validate)
    /// and the builder's
    /// [`build`](crate::config::SemisortConfigBuilder::build)). Never a
    /// degradation: no policy can run a semisort on an invalid config.
    InvalidConfig {
        /// What was wrong (a static validation message).
        reason: &'static str,
    },
    /// Bucket overflow persisted through `max_retries` Las Vegas restarts.
    RetriesExhausted {
        /// Attempts made (initial run + retries).
        attempts: u32,
        /// The slack factor α the final attempt ran with.
        alpha: f64,
        /// Input size.
        n: usize,
    },
    /// The bucket plan of the next attempt would need an arena larger than
    /// [`PaperConfig::max_arena_bytes`](crate::config::PaperConfig::max_arena_bytes).
    ArenaBudgetExceeded {
        /// Bytes the attempt's slot array would have needed.
        required_bytes: usize,
        /// The configured budget.
        budget_bytes: usize,
        /// The attempt (0-based) whose plan burst the budget.
        attempt: u32,
    },
    /// The global allocator refused the arena allocation (or a
    /// [`FaultPlan`](crate::fault::FaultPlan) simulated that refusal).
    ArenaAllocFailed {
        /// Bytes requested.
        bytes: usize,
        /// The attempt (0-based) whose allocation failed.
        attempt: u32,
    },
    /// A service refused the request because accepting it would exceed a
    /// resource budget (admission control: server draining, request too
    /// large, or shard queues full). Shedding load with this error —
    /// instead of queueing unboundedly — is what keeps an overloaded
    /// `semisortd` answering.
    Overloaded {
        /// What was over budget: the admission rung's label, one of
        /// `"draining"`, `"request-too-large"` or `"queue-full"`.
        reason: &'static str,
        /// The demand that was measured against the limit (units depend on
        /// `reason`: records or queued requests; `"draining"` reports 1
        /// over 0).
        required: u64,
        /// The configured limit the demand exceeded.
        limit: u64,
    },
    /// The run's [`CancelToken`](crate::cancel::CancelToken) deadline
    /// passed before the run completed. Checked at the engine's phase
    /// boundaries, so the caller's buffers are either untouched or fully
    /// semisorted — never partially permuted.
    DeadlineExceeded {
        /// The deadline, µs since the process epoch
        /// (see [`crate::obs::epoch_micros`]).
        deadline_us: u64,
        /// When the overrun was observed, µs since the same epoch.
        now_us: u64,
    },
    /// The run's [`CancelToken`](crate::cancel::CancelToken) was cancelled
    /// explicitly (client disconnect, shutdown drain). Same
    /// phase-boundary semantics as [`SemisortError::DeadlineExceeded`].
    Cancelled,
    /// The engine shard serving this request was poisoned by a panic and
    /// has been (or is being) rebuilt. The request did not complete; a
    /// retry against the rebuilt shard is safe.
    EnginePoisoned {
        /// Which shard panicked (service-assigned index).
        shard: u32,
    },
}

impl SemisortError {
    /// Stable machine-readable kind string (used in structured log/error
    /// lines and the CLI's error output).
    pub fn kind(&self) -> &'static str {
        match self {
            SemisortError::InvalidConfig { .. } => "invalid-config",
            SemisortError::RetriesExhausted { .. } => "retries-exhausted",
            SemisortError::ArenaBudgetExceeded { .. } => "arena-budget-exceeded",
            SemisortError::ArenaAllocFailed { .. } => "arena-alloc-failed",
            SemisortError::Overloaded { .. } => "overloaded",
            SemisortError::DeadlineExceeded { .. } => "deadline-exceeded",
            SemisortError::Cancelled => "cancelled",
            SemisortError::EnginePoisoned { .. } => "engine-poisoned",
        }
    }

    /// Process exit code for this error in the CLI/service binaries, so a
    /// supervisor (or the chaos soak) can distinguish failure classes
    /// without parsing stderr. The structured `{"event":"error"}` line
    /// carries the same value as `"exit_code"`.
    ///
    /// `1` — terminal algorithmic failure (retries / arena budget / alloc);
    /// `2` — invalid configuration or usage;
    /// `3` — overloaded (load was shed; retry later);
    /// `4` — deadline exceeded;
    /// `5` — cancelled;
    /// `6` — engine shard poisoned (rebuilt; retry is safe).
    pub fn exit_code(&self) -> i32 {
        match self {
            SemisortError::RetriesExhausted { .. }
            | SemisortError::ArenaBudgetExceeded { .. }
            | SemisortError::ArenaAllocFailed { .. } => 1,
            SemisortError::InvalidConfig { .. } => 2,
            SemisortError::Overloaded { .. } => 3,
            SemisortError::DeadlineExceeded { .. } => 4,
            SemisortError::Cancelled => 5,
            SemisortError::EnginePoisoned { .. } => 6,
        }
    }

    /// The [`DegradeReason`] this error maps to under
    /// [`OverflowPolicy::Fallback`](crate::config::OverflowPolicy::Fallback),
    /// or `None` when the error is not a degradable runtime failure
    /// ([`SemisortError::InvalidConfig`] cannot be recovered by falling back
    /// to a comparison sort — the configuration itself is wrong).
    #[must_use]
    pub fn degrade_reason(&self) -> Option<DegradeReason> {
        match self {
            SemisortError::RetriesExhausted { .. } => Some(DegradeReason::RetriesExhausted),
            SemisortError::ArenaBudgetExceeded { .. } => Some(DegradeReason::BudgetExceeded),
            SemisortError::ArenaAllocFailed { .. } => Some(DegradeReason::AllocFailed),
            // Cancellation-family and service errors are never degradable:
            // the comparison-sort fallback costs *more* time (deadline /
            // cancel) or re-runs work the service already refused
            // (overloaded / poisoned).
            _ => None,
        }
    }
}

impl fmt::Display for SemisortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemisortError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
            SemisortError::RetriesExhausted { attempts, alpha, n } => write!(
                f,
                "bucket overflow persisted after {attempts} attempts \
                 (α grown to {alpha:.2}); input size {n}"
            ),
            SemisortError::ArenaBudgetExceeded {
                required_bytes,
                budget_bytes,
                attempt,
            } => write!(
                f,
                "attempt {attempt} needs a {required_bytes}-byte arena, \
                 over the {budget_bytes}-byte budget"
            ),
            SemisortError::ArenaAllocFailed { bytes, attempt } => {
                write!(
                    f,
                    "arena allocation of {bytes} bytes failed on attempt {attempt}"
                )
            }
            SemisortError::Overloaded {
                reason,
                required,
                limit,
            } => write!(
                f,
                "overloaded ({reason}): demand {required} exceeds limit {limit}; \
                 request shed, retry with backoff"
            ),
            SemisortError::DeadlineExceeded {
                deadline_us,
                now_us,
            } => write!(
                f,
                "deadline exceeded: {}µs past the {deadline_us}µs deadline",
                now_us.saturating_sub(*deadline_us)
            ),
            SemisortError::Cancelled => write!(f, "run cancelled before completion"),
            SemisortError::EnginePoisoned { shard } => write!(
                f,
                "engine shard {shard} was poisoned by a panic and rebuilt; retry is safe"
            ),
        }
    }
}

impl std::error::Error for SemisortError {}

/// Why a run degraded to the comparison-sort fallback (only set when it
/// did; `None` on the linear-work path and on the `seq_threshold` and
/// paper-run key-0 fallbacks, which are by-construction routing decisions
/// rather than failures).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradeReason {
    /// The Las Vegas retry budget ran out.
    RetriesExhausted,
    /// The next attempt's arena would exceed `max_arena_bytes`.
    BudgetExceeded,
    /// The arena allocation itself failed.
    AllocFailed,
}

impl DegradeReason {
    /// Stable spelling used in the stats JSON and log events.
    pub fn as_str(self) -> &'static str {
        match self {
            DegradeReason::RetriesExhausted => "retries-exhausted",
            DegradeReason::BudgetExceeded => "budget-exceeded",
            DegradeReason::AllocFailed => "alloc-failed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_reasons_align() {
        let e = SemisortError::RetriesExhausted {
            attempts: 4,
            alpha: 8.8,
            n: 100,
        };
        assert_eq!(e.kind(), "retries-exhausted");
        assert_eq!(e.degrade_reason(), Some(DegradeReason::RetriesExhausted));
        assert_eq!(e.degrade_reason().unwrap().as_str(), e.kind());

        let e = SemisortError::ArenaBudgetExceeded {
            required_bytes: 1 << 20,
            budget_bytes: 1 << 10,
            attempt: 1,
        };
        assert_eq!(e.kind(), "arena-budget-exceeded");
        assert_eq!(e.degrade_reason().unwrap().as_str(), "budget-exceeded");

        let e = SemisortError::ArenaAllocFailed {
            bytes: 16,
            attempt: 0,
        };
        assert_eq!(e.kind(), "arena-alloc-failed");
        assert_eq!(e.degrade_reason().unwrap().as_str(), "alloc-failed");
    }

    #[test]
    fn service_variants_are_terminal_not_degradable() {
        let overloaded = SemisortError::Overloaded {
            reason: "queue-full",
            required: 9,
            limit: 8,
        };
        assert_eq!(overloaded.kind(), "overloaded");
        assert_eq!(overloaded.degrade_reason(), None);
        assert_eq!(overloaded.exit_code(), 3);
        assert!(overloaded.to_string().contains("queue-full"));

        let deadline = SemisortError::DeadlineExceeded {
            deadline_us: 1000,
            now_us: 1500,
        };
        assert_eq!(deadline.kind(), "deadline-exceeded");
        assert_eq!(deadline.degrade_reason(), None);
        assert_eq!(deadline.exit_code(), 4);
        assert!(deadline.to_string().contains("500µs"), "{deadline}");

        assert_eq!(SemisortError::Cancelled.kind(), "cancelled");
        assert_eq!(SemisortError::Cancelled.exit_code(), 5);
        assert_eq!(SemisortError::Cancelled.degrade_reason(), None);

        let poisoned = SemisortError::EnginePoisoned { shard: 3 };
        assert_eq!(poisoned.kind(), "engine-poisoned");
        assert_eq!(poisoned.degrade_reason(), None);
        assert_eq!(poisoned.exit_code(), 6);
        assert!(poisoned.to_string().contains("shard 3"));
    }

    #[test]
    fn exit_codes_partition_the_error_space() {
        // Degradable runtime failures share exit code 1; every other kind
        // gets a distinct code a supervisor can branch on.
        let runtime = SemisortError::RetriesExhausted {
            attempts: 4,
            alpha: 8.8,
            n: 10,
        };
        assert_eq!(runtime.exit_code(), 1);
        assert_eq!(SemisortError::InvalidConfig { reason: "x" }.exit_code(), 2);
        let mut codes = vec![
            runtime.exit_code(),
            SemisortError::InvalidConfig { reason: "x" }.exit_code(),
            SemisortError::Overloaded {
                reason: "r",
                required: 1,
                limit: 0,
            }
            .exit_code(),
            SemisortError::DeadlineExceeded {
                deadline_us: 0,
                now_us: 1,
            }
            .exit_code(),
            SemisortError::Cancelled.exit_code(),
            SemisortError::EnginePoisoned { shard: 0 }.exit_code(),
        ];
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 6, "codes must be pairwise distinct");
    }

    #[test]
    fn invalid_config_is_not_degradable() {
        let e = SemisortError::InvalidConfig {
            reason: "α must exceed 1",
        };
        assert_eq!(e.kind(), "invalid-config");
        assert_eq!(e.degrade_reason(), None);
        assert!(e.to_string().contains("α must exceed 1"));
    }

    #[test]
    fn display_is_informative() {
        let msg = SemisortError::RetriesExhausted {
            attempts: 3,
            alpha: 4.4,
            n: 1000,
        }
        .to_string();
        assert!(msg.contains("3 attempts") && msg.contains("1000"), "{msg}");
        let msg = SemisortError::ArenaBudgetExceeded {
            required_bytes: 2048,
            budget_bytes: 1024,
            attempt: 2,
        }
        .to_string();
        assert!(msg.contains("2048") && msg.contains("1024"), "{msg}");
    }
}
