//! Deterministic fault injection for the Las Vegas machinery.
//!
//! Corollary 3.4 makes bucket overflow an `O(1/n^c)` event, which means the
//! escalation ladder of a [`crate::paper`] run — retry, degrade to the
//! comparison fallback, error — is essentially unreachable by feeding the
//! library ordinary inputs. Code that only runs when the adversary shows up
//! is code that has never run at all, so this module makes every failure
//! path a first-class, deterministically testable input:
//!
//! - **Forced scatter overflow** — the scatter reports a Corollary 3.4
//!   bucket overflow for the first record routed to a bucket of the chosen
//!   [`FaultClass`], exercising the real `OverflowCapture` → retry → α
//!   growth machinery in [`crate::scatter`].
//! - **Failed arena allocation** — `try_allocate_arena` reports allocator
//!   refusal without asking the allocator, driving the alloc-failure arm of
//!   the escalation policy.
//! - **Corrupted sample** — the Phase 1 sample is decimated before bucket
//!   planning, simulating the sample badly underestimating bucket sizes;
//!   unlike the forced overflow this triggers a *natural* overflow
//!   downstream, end-to-end through estimate/buckets/scatter.
//! - **Forced panic** — the run panics mid-scatter, exercising the
//!   `catch_unwind` poison/rebuild containment in the `semisortd` service
//!   layer (DESIGN.md §14) and the no-dangling-borrows guarantee of
//!   [`crate::pool::ScratchPool`].
//!
//! The first three faults target the paper's arena ([`crate::paper`]) and
//! are inert on the engine, whose exact distribution has no arena, no
//! overflow and no retry ladder; the forced panic fires on both.
//!
//! Faults are armed per attempt: each knob fires on the first *k* attempts
//! of a run (attempts are 0-based internally; `k = 1` faults only the
//! initial attempt, so the first retry succeeds). A [`FaultPlan`] rides on
//! [`SemisortConfig`](crate::config::SemisortConfig) — `Copy`, inert by
//! default, and parseable from the CLI's `--fault` dev flag.

/// Which bucket class a forced scatter overflow targets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultClass {
    /// The first record of any bucket triggers the overflow.
    #[default]
    Any,
    /// Only a heavy-key bucket triggers it (inert if the plan has no heavy
    /// keys — the fault then simply does not fire).
    Heavy,
    /// Only a light bucket triggers it.
    Light,
}

impl FaultClass {
    /// Whether a record routed to a bucket of the given heaviness trips
    /// this fault.
    #[inline]
    pub fn matches(self, is_heavy: bool) -> bool {
        match self {
            FaultClass::Any => true,
            FaultClass::Heavy => is_heavy,
            FaultClass::Light => !is_heavy,
        }
    }
}

/// A deterministic fault schedule, carried on the config. Each field is the
/// number of leading attempts (0 = never) on which that fault fires.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Force a scatter overflow on the first `k` attempts.
    pub force_overflow_attempts: u32,
    /// Bucket class the forced overflow targets.
    pub force_overflow_class: FaultClass,
    /// Fail the arena allocation on the first `k` attempts.
    pub fail_alloc_attempts: u32,
    /// Corrupt (decimate) the Phase 1 sample on the first `k` attempts.
    pub corrupt_sample_attempts: u32,
    /// Panic mid-scatter on the first `k` attempts (service-layer chaos:
    /// the driver raises a real unwind for `catch_unwind` containment to
    /// absorb).
    pub panic_attempts: u32,
}

/// Keep-1-in-N decimation factor used by [`FaultPlan::corrupt_sample`]: the
/// surviving sample under-counts every key by ~8×, so `α·f(s)` allocates
/// far too few slots and the scatter overflows naturally.
pub const CORRUPT_SAMPLE_KEEP: usize = 8;

impl FaultPlan {
    /// A plan that injects nothing (the default).
    pub const NONE: FaultPlan = FaultPlan {
        force_overflow_attempts: 0,
        force_overflow_class: FaultClass::Any,
        fail_alloc_attempts: 0,
        corrupt_sample_attempts: 0,
        panic_attempts: 0,
    };

    /// Whether this plan injects no faults at all.
    pub fn is_inert(&self) -> bool {
        self.force_overflow_attempts == 0
            && self.fail_alloc_attempts == 0
            && self.corrupt_sample_attempts == 0
            && self.panic_attempts == 0
    }

    /// The bucket class to force-overflow on this (0-based) attempt, if any.
    pub fn forced_overflow(&self, attempt: u32) -> Option<FaultClass> {
        (attempt < self.force_overflow_attempts).then_some(self.force_overflow_class)
    }

    /// Whether the arena allocation fails on this (0-based) attempt.
    pub fn alloc_fails(&self, attempt: u32) -> bool {
        attempt < self.fail_alloc_attempts
    }

    /// Whether the sample is corrupted on this (0-based) attempt.
    pub fn sample_corrupted(&self, attempt: u32) -> bool {
        attempt < self.corrupt_sample_attempts
    }

    /// Whether the driver panics mid-scatter on this (0-based) attempt.
    pub fn panics(&self, attempt: u32) -> bool {
        attempt < self.panic_attempts
    }

    /// Decimate `sample` in place, keeping every
    /// [`CORRUPT_SAMPLE_KEEP`]-th entry: the classic "sample massively
    /// underestimates the input" failure Corollary 3.4 insures against.
    /// Deterministic; preserves relative order (call before the sample
    /// sort or after — either way the survivors are a valid, tiny sample).
    pub fn corrupt_sample(sample: &mut Vec<u64>) {
        let mut i = 0usize;
        sample.retain(|_| {
            let keep = i.is_multiple_of(CORRUPT_SAMPLE_KEEP);
            i += 1;
            keep
        });
    }

    /// Parse the CLI `--fault` spec: comma-separated `kind:attempts`
    /// clauses, e.g. `force-overflow:2` or
    /// `corrupt-sample:1,fail-alloc:1`. Kinds: `force-overflow`,
    /// `force-overflow-heavy`, `force-overflow-light`, `fail-alloc`,
    /// `corrupt-sample`, `panic`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        if spec.is_empty() || spec == "none" {
            return Ok(plan);
        }
        for clause in spec.split(',') {
            let (kind, count) = clause
                .split_once(':')
                .ok_or_else(|| format!("fault clause `{clause}` is not `kind:attempts`"))?;
            let k: u32 = count
                .parse()
                .map_err(|_| format!("bad attempt count `{count}` in `{clause}`"))?;
            match kind {
                "force-overflow" => {
                    plan.force_overflow_attempts = k;
                    plan.force_overflow_class = FaultClass::Any;
                }
                "force-overflow-heavy" => {
                    plan.force_overflow_attempts = k;
                    plan.force_overflow_class = FaultClass::Heavy;
                }
                "force-overflow-light" => {
                    plan.force_overflow_attempts = k;
                    plan.force_overflow_class = FaultClass::Light;
                }
                "fail-alloc" => plan.fail_alloc_attempts = k,
                "corrupt-sample" => plan.corrupt_sample_attempts = k,
                "panic" => plan.panic_attempts = k,
                other => return Err(format!("unknown fault kind `{other}`")),
            }
        }
        Ok(plan)
    }

    /// The canonical spec string (round-trips through [`FaultPlan::parse`];
    /// `"none"` for an inert plan). Echoed into the stats JSON.
    pub fn spec(&self) -> String {
        if self.is_inert() {
            return "none".into();
        }
        let mut parts = Vec::new();
        if self.force_overflow_attempts > 0 {
            let kind = match self.force_overflow_class {
                FaultClass::Any => "force-overflow",
                FaultClass::Heavy => "force-overflow-heavy",
                FaultClass::Light => "force-overflow-light",
            };
            parts.push(format!("{kind}:{}", self.force_overflow_attempts));
        }
        if self.fail_alloc_attempts > 0 {
            parts.push(format!("fail-alloc:{}", self.fail_alloc_attempts));
        }
        if self.corrupt_sample_attempts > 0 {
            parts.push(format!("corrupt-sample:{}", self.corrupt_sample_attempts));
        }
        if self.panic_attempts > 0 {
            parts.push(format!("panic:{}", self.panic_attempts));
        }
        parts.join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_inert() {
        let p = FaultPlan::default();
        assert!(p.is_inert());
        assert_eq!(p, FaultPlan::NONE);
        assert_eq!(p.forced_overflow(0), None);
        assert!(!p.alloc_fails(0));
        assert!(!p.sample_corrupted(0));
        assert!(!p.panics(0));
        assert_eq!(p.spec(), "none");
    }

    #[test]
    fn attempts_window_is_leading() {
        let p = FaultPlan {
            force_overflow_attempts: 2,
            ..Default::default()
        };
        assert_eq!(p.forced_overflow(0), Some(FaultClass::Any));
        assert_eq!(p.forced_overflow(1), Some(FaultClass::Any));
        assert_eq!(p.forced_overflow(2), None);
    }

    #[test]
    fn class_matching() {
        assert!(FaultClass::Any.matches(true) && FaultClass::Any.matches(false));
        assert!(FaultClass::Heavy.matches(true) && !FaultClass::Heavy.matches(false));
        assert!(FaultClass::Light.matches(false) && !FaultClass::Light.matches(true));
    }

    #[test]
    fn parse_round_trips() {
        for spec in [
            "none",
            "force-overflow:2",
            "force-overflow-heavy:1",
            "force-overflow-light:3",
            "fail-alloc:1",
            "corrupt-sample:4",
            "panic:1",
            "force-overflow:2,fail-alloc:1,corrupt-sample:1,panic:2",
        ] {
            let plan = FaultPlan::parse(spec).expect(spec);
            assert_eq!(plan.spec(), spec, "round-trip of {spec}");
            assert_eq!(FaultPlan::parse(&plan.spec()).unwrap(), plan);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("force-overflow").is_err());
        assert!(FaultPlan::parse("force-overflow:x").is_err());
        assert!(FaultPlan::parse("explode:1").is_err());
        assert!(FaultPlan::parse("force-overflow:1,,").is_err());
    }

    #[test]
    fn corruption_decimates_deterministically() {
        let mut s: Vec<u64> = (0..80).collect();
        FaultPlan::corrupt_sample(&mut s);
        assert_eq!(s.len(), 10);
        assert!(s.iter().all(|&v| v % CORRUPT_SAMPLE_KEEP as u64 == 0));
        let mut empty: Vec<u64> = Vec::new();
        FaultPlan::corrupt_sample(&mut empty);
        assert!(empty.is_empty());
        let mut one = vec![7u64];
        FaultPlan::corrupt_sample(&mut one);
        assert_eq!(one, vec![7]);
    }
}
