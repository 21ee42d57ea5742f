//! Observability: per-worker telemetry cells, merge sinks, and phase spans.
//!
//! The paper's entire evaluation (Tables 1–3, Figures 1–5, §5.2) is a
//! telemetry exercise — per-phase times, heavy-record fractions, space
//! blowup. This module supplies the machinery to collect the *fine-grained*
//! counterparts (CAS attempts, probe-length distributions, bucket occupancy,
//! retry causes) without perturbing the hot loops it observes:
//!
//! - Workers accumulate into plain, unshared [`WorkerCell`]s (registers and
//!   stack, no atomics) while walking their chunk of the input.
//! - At the end of each chunk — i.e. at the phase's fork-join barrier
//!   granularity — the cell is merged into the shared [`ObsSink`] with a
//!   handful of relaxed `fetch_add`s.
//! - The paper's run ([`crate::paper`]) snapshots the sink into
//!   [`Telemetry`] (carried by [`SemisortStats`]) once the phase joins.
//!   The engine's exact distribution has no per-worker placement loop to
//!   observe: it fills [`Telemetry`] straight from its region bounds.
//!
//! Collection is gated by [`TelemetryLevel`]: at `Off` the per-record code
//! is a single never-taken branch on a bool hoisted out of the loop, at
//! `Counters` scalar counters are kept, and `Deep` adds the histograms.
//!
//! [`PhaseSpan`] times one phase and pushes its [`SpanRecord`] onto the
//! run's [`SemisortStats::spans`], the one record of where a run's time
//! went: the stats' phase times, the stats-v2 JSON and the Chrome trace
//! all sum or lay out those spans.
//!
//! This module is also the only place that formats a `SEMISORT_LOG` line.
//! When that environment variable is set to anything other than `0` or
//! the empty string, each span is printed to stderr as it is pushed
//! (`{"event":"span","name":"scatter","t_us":87,"us":1234}`), so a run
//! that panics or hangs still shows the phases it finished. The run's
//! other events (`scratch`, `fault`, `retry`, `degraded`) are rendered
//! once, by `log_run`, from the finished stats. [`log_event`] prints the
//! service layer's own events, which no stats record carries.
//!
//! All timestamps — span starts, `SEMISORT_LOG` lines, and the scheduler
//! events in `rayon::trace` — share **one process-wide monotonic epoch**
//! ([`epoch_micros`], delegating to `rayon::trace::epoch_micros`). Earlier
//! versions timed each span with its own `Instant`, so lines from
//! different spans could not be ordered into a timeline; now every `t_us`
//! is an offset on the same axis, which is also what lets the Chrome-trace
//! exporter (`crate::trace`) interleave phase spans with scheduler parks
//! and steals.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use crate::stats::SemisortStats;

/// How much telemetry the semisort collects. Ordered: each level includes
/// everything below it.
///
/// Marked `#[non_exhaustive]`: levels may be added in future versions, so
/// downstream `match`es need a wildcard arm.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
#[non_exhaustive]
pub enum TelemetryLevel {
    /// No telemetry: the hot loops keep only the always-on aggregate
    /// counters that existed before this module (phase times, heavy/light
    /// record counts). The default.
    #[default]
    Off,
    /// Scalar counters: records placed, and the paper run's CAS
    /// attempts/failures (merged per worker chunk).
    Counters,
    /// Counters plus distributions: the linear-probe-length histogram and
    /// the light-bucket occupancy histogram.
    Deep,
}

impl TelemetryLevel {
    /// Whether scalar counters are collected (`Counters` or `Deep`).
    #[inline(always)]
    pub fn counters(self) -> bool {
        self != TelemetryLevel::Off
    }

    /// Whether histograms are collected (`Deep` only).
    #[inline(always)]
    pub fn deep(self) -> bool {
        self == TelemetryLevel::Deep
    }

    /// Parse a CLI spelling (`off`, `counters`, `deep`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(TelemetryLevel::Off),
            "counters" => Some(TelemetryLevel::Counters),
            "deep" => Some(TelemetryLevel::Deep),
            _ => None,
        }
    }

    /// The CLI spelling of this level.
    pub fn as_str(self) -> &'static str {
        match self {
            TelemetryLevel::Off => "off",
            TelemetryLevel::Counters => "counters",
            TelemetryLevel::Deep => "deep",
        }
    }
}

/// Number of histogram buckets. Bucket 0 holds the value 0; bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`; the last bucket absorbs everything
/// larger.
pub const HIST_BUCKETS: usize = 32;

/// A power-of-two-bucketed histogram of `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hist {
    /// Per-bucket sample counts (see [`HIST_BUCKETS`] for the bucketing).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Hist {
    /// Bucket index for a value.
    #[inline(always)]
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Record one sample.
    #[inline(always)]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// Add another histogram into this one.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&b| b == 0)
    }

    /// Inclusive lower bound of bucket `i`'s value range.
    pub fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }
}

/// Per-worker telemetry accumulated in plain (unshared) memory while a
/// worker walks its chunk, then merged into the [`ObsSink`] once per chunk.
#[derive(Clone, Debug, Default)]
pub struct WorkerCell {
    /// CAS instructions issued (including ones that lost the race).
    pub cas_attempts: u64,
    /// CAS instructions that lost the race to another worker.
    pub cas_failures: u64,
    /// Records this worker placed.
    pub records_placed: u64,
    /// Distribution of per-record probe lengths (slots examined beyond the
    /// first before the record landed). Deep level only.
    pub probe_hist: Hist,
}

impl WorkerCell {
    /// Whether nothing was recorded (cheap skip for the merge).
    pub fn is_empty(&self) -> bool {
        self.cas_attempts == 0 && self.records_placed == 0 && self.probe_hist.is_empty()
    }
}

/// Shared merge target for [`WorkerCell`]s: one per semisort attempt,
/// drained into [`Telemetry`] at the phase barrier.
pub struct ObsSink {
    level: TelemetryLevel,
    cas_attempts: AtomicU64,
    cas_failures: AtomicU64,
    records_placed: AtomicU64,
    probe_hist: [AtomicU64; HIST_BUCKETS],
    occupancy_hist: [AtomicU64; HIST_BUCKETS],
}

impl ObsSink {
    /// A sink collecting at `level`.
    pub fn new(level: TelemetryLevel) -> Self {
        ObsSink {
            level,
            cas_attempts: AtomicU64::new(0),
            cas_failures: AtomicU64::new(0),
            records_placed: AtomicU64::new(0),
            probe_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            occupancy_hist: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// A sink that records nothing (for direct phase-function callers that
    /// don't care about telemetry, e.g. unit tests).
    pub fn disabled() -> Self {
        Self::new(TelemetryLevel::Off)
    }

    /// The collection level workers should gate on.
    #[inline(always)]
    pub fn level(&self) -> TelemetryLevel {
        self.level
    }

    /// Merge one worker's cell. Called once per worker chunk, at barrier
    /// granularity — a handful of relaxed RMWs, not a hot-loop cost.
    pub fn merge_cell(&self, cell: &WorkerCell) {
        if cell.is_empty() {
            return;
        }
        // ORDERING: Relaxed telemetry tallies; `snapshot` runs after the
        // scatter joins, so totals are complete without atomic ordering.
        // publishes-via: fork-join barrier
        self.cas_attempts
            .fetch_add(cell.cas_attempts, Ordering::Relaxed);
        // ORDERING: as above. publishes-via: fork-join barrier
        self.cas_failures
            .fetch_add(cell.cas_failures, Ordering::Relaxed);
        // ORDERING: as above. publishes-via: fork-join barrier
        self.records_placed
            .fetch_add(cell.records_placed, Ordering::Relaxed);
        if self.level.deep() && !cell.probe_hist.is_empty() {
            for (a, &b) in self.probe_hist.iter().zip(cell.probe_hist.buckets.iter()) {
                if b != 0 {
                    // ORDERING: Relaxed histogram tally, read after join.
                    // publishes-via: fork-join barrier
                    a.fetch_add(b, Ordering::Relaxed);
                }
            }
        }
    }

    /// Record one bucket's occupancy (record count) into the occupancy
    /// histogram. No-op below `Deep`.
    #[inline]
    pub fn record_occupancy(&self, records: u64) {
        if self.level.deep() {
            // ORDERING: Relaxed histogram tally, read after join.
            // publishes-via: fork-join barrier
            self.occupancy_hist[Hist::bucket_of(records)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot the merged counters (retry causes are appended by
    /// [`crate::paper`], which owns the Las Vegas loop).
    pub fn snapshot(&self) -> Telemetry {
        let load = |h: &[AtomicU64; HIST_BUCKETS]| {
            let mut out = Hist::default();
            for (o, a) in out.buckets.iter_mut().zip(h.iter()) {
                // ORDERING: Relaxed snapshot read; all writers joined.
                // publishes-via: fork-join barrier
                *o = a.load(Ordering::Relaxed);
            }
            out
        };
        Telemetry {
            level: self.level,
            // ORDERING: Relaxed snapshot reads; all writers joined.
            // publishes-via: fork-join barrier
            cas_attempts: self.cas_attempts.load(Ordering::Relaxed),
            // ORDERING: as above. publishes-via: fork-join barrier
            cas_failures: self.cas_failures.load(Ordering::Relaxed),
            // ORDERING: as above. publishes-via: fork-join barrier
            records_placed: self.records_placed.load(Ordering::Relaxed),
            probe_hist: load(&self.probe_hist),
            light_occupancy_hist: load(&self.occupancy_hist),
            retry_causes: Vec::new(),
        }
    }
}

/// Shared counters for the service layer (`semisortd`): one instance per
/// server, incremented from shard workers and the admission path, snapshot
/// into the stats JSON's `service` section. All increments are `Relaxed` —
/// these are monotonic tallies, not synchronization.
#[derive(Debug, Default)]
pub struct ServiceCounters {
    /// Requests admitted past admission control.
    pub admitted: AtomicU64,
    /// Requests that completed successfully.
    pub completed: AtomicU64,
    /// Requests shed with `Overloaded` (budget or queue admission).
    pub shed_overload: AtomicU64,
    /// Requests that failed with `DeadlineExceeded`.
    pub deadline_exceeded: AtomicU64,
    /// Requests that observed explicit cancellation.
    pub cancelled: AtomicU64,
    /// Engine-shard panics contained by `catch_unwind` (each poisons the
    /// shard).
    pub panics_contained: AtomicU64,
    /// Poisoned shards rebuilt with a fresh engine.
    pub shards_rebuilt: AtomicU64,
    /// Graceful drains completed (all in-flight requests answered before
    /// shutdown).
    pub drains: AtomicU64,
}

impl ServiceCounters {
    /// Bump one counter by 1 (`Relaxed`; tallies, not synchronization).
    #[inline]
    pub fn bump(counter: &AtomicU64) {
        // ORDERING: Relaxed monotonic tally; snapshots tolerate torn
        // cross-counter views (each counter is individually consistent).
        // publishes-via: none needed — approximate stats by design
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> ServiceSnapshot {
        ServiceSnapshot {
            // ORDERING: Relaxed stats reads; the snapshot is advisory and
            // tolerates skew between counters.
            // publishes-via: none needed — approximate stats by design
            admitted: self.admitted.load(Ordering::Relaxed),
            // ORDERING: as above. publishes-via: none needed
            completed: self.completed.load(Ordering::Relaxed),
            // ORDERING: as above. publishes-via: none needed
            shed_overload: self.shed_overload.load(Ordering::Relaxed),
            // ORDERING: as above. publishes-via: none needed
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            // ORDERING: as above. publishes-via: none needed
            cancelled: self.cancelled.load(Ordering::Relaxed),
            // ORDERING: as above. publishes-via: none needed
            panics_contained: self.panics_contained.load(Ordering::Relaxed),
            // ORDERING: as above. publishes-via: none needed
            shards_rebuilt: self.shards_rebuilt.load(Ordering::Relaxed),
            // ORDERING: as above. publishes-via: none needed
            drains: self.drains.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`ServiceCounters`], carried on
/// [`SemisortStats`] as the `service` section of the stats JSON
/// (absent/`null` for library runs that never went through a server).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceSnapshot {
    /// Requests admitted past admission control.
    pub admitted: u64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests shed with `Overloaded`.
    pub shed_overload: u64,
    /// Requests that failed with `DeadlineExceeded`.
    pub deadline_exceeded: u64,
    /// Requests that observed explicit cancellation.
    pub cancelled: u64,
    /// Engine-shard panics contained by `catch_unwind`.
    pub panics_contained: u64,
    /// Poisoned shards rebuilt with a fresh engine.
    pub shards_rebuilt: u64,
    /// Graceful drains completed.
    pub drains: u64,
}

/// Why one Las Vegas retry happened: the first bucket observed to overflow
/// on the failed attempt, with its demand versus its allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryCause {
    /// Which attempt failed (1-based; attempt 1 is the initial run).
    pub attempt: u32,
    /// Global bucket index that overflowed (heavy buckets come first).
    pub bucket: u32,
    /// Whether the overflowing bucket was a heavy-key bucket.
    pub heavy: bool,
    /// Slots allocated to the bucket (its power-of-two size).
    pub allocated: usize,
    /// Records observed to demand the bucket when the overflow was hit:
    /// the bucket is full when placement fails, so this is
    /// `allocated + 1` — a lower bound on true demand.
    pub observed: usize,
}

/// First-overflowing-bucket capture for a scatter pass: workers report the
/// bucket they failed in; the first report wins and later ones are dropped
/// (any one overflow forces a full retry, so one cause is enough).
pub struct OverflowCapture {
    set: AtomicBool,
    bucket: AtomicU64,
    allocated: AtomicU64,
    observed: AtomicU64,
}

impl Default for OverflowCapture {
    fn default() -> Self {
        Self::new()
    }
}

impl OverflowCapture {
    /// An empty capture.
    pub fn new() -> Self {
        OverflowCapture {
            set: AtomicBool::new(false),
            bucket: AtomicU64::new(0),
            allocated: AtomicU64::new(0),
            observed: AtomicU64::new(0),
        }
    }

    /// Whether any worker has reported an overflow (cheap abort check).
    #[inline(always)]
    pub fn is_set(&self) -> bool {
        // ORDERING: Relaxed abort hint inside the scatter loop; a missed
        // flag only delays the abort one block. Post-join readers (`take`)
        // are ordered by the barrier.
        // publishes-via: fork-join barrier
        self.set.load(Ordering::Relaxed)
    }

    /// Report an overflow in `bucket`. Only the first report is kept.
    pub fn report(&self, bucket: u32, allocated: usize, observed: usize) {
        // ORDERING: AcqRel first-report-wins latch — exactly one reporter
        // sees Ok and becomes the unique writer of the payload below;
        // Relaxed failure discards the duplicate report.
        // publishes-via: this CAS's own AcqRel success edge
        if self
            .set
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            // ORDERING: Relaxed payload stores by the unique latch winner;
            // `take` reads them only after the scatter joins.
            // publishes-via: fork-join barrier
            self.bucket.store(bucket as u64, Ordering::Relaxed);
            // ORDERING: as above. publishes-via: fork-join barrier
            self.allocated.store(allocated as u64, Ordering::Relaxed);
            // ORDERING: as above. publishes-via: fork-join barrier
            self.observed.store(observed as u64, Ordering::Relaxed);
        }
    }

    /// The captured `(bucket, allocated, observed)`, if any overflow was
    /// reported. Read after the scatter joins.
    pub fn take(&self) -> Option<(u32, usize, usize)> {
        if self.is_set() {
            // ORDERING: Relaxed post-join reads of the latch payload; the
            // scatter joined before `take` runs, so the winner's stores
            // are already visible.
            // publishes-via: fork-join barrier
            Some((
                self.bucket.load(Ordering::Relaxed) as u32,
                self.allocated.load(Ordering::Relaxed) as usize,
                self.observed.load(Ordering::Relaxed) as usize,
            ))
        } else {
            None
        }
    }
}

/// Merged telemetry for one semisort run, carried by
/// [`crate::stats::SemisortStats`]. All fields stay at their defaults when
/// the run's [`TelemetryLevel`] was `Off` (except `retry_causes`, which is
/// recorded on the cold retry path at every level — a run that retried is
/// exactly the run you want to diagnose).
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    /// Level the run collected at.
    pub level: TelemetryLevel,
    /// CAS instructions issued across the scatter.
    pub cas_attempts: u64,
    /// CAS instructions that lost their race.
    pub cas_failures: u64,
    /// Records placed by an instrumented placement path.
    pub records_placed: u64,
    /// Distribution of per-record probe lengths (Deep only).
    pub probe_hist: Hist,
    /// Distribution of light-bucket occupancies after the scatter (Deep
    /// only). Heavy buckets are excluded: each holds a single key, so its
    /// occupancy is that key's multiplicity, already visible in
    /// `heavy_records` / `heavy_keys`.
    pub light_occupancy_hist: Hist,
    /// One entry per Las Vegas retry, in attempt order.
    pub retry_causes: Vec<RetryCause>,
}

/// Microseconds since the process-wide trace epoch — the shared monotonic
/// clock base for spans, `SEMISORT_LOG` lines, and scheduler trace events
/// (one axis; see the module docs).
#[inline]
pub fn epoch_micros() -> u64 {
    rayon::trace::epoch_micros()
}

/// Whether `SEMISORT_LOG` asks for structured event lines on stderr.
pub fn log_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("SEMISORT_LOG") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    })
}

/// Emit one structured event line to stderr, stamped now (only when
/// [`log_enabled`]): `{"event":…,<strs>,"t_us":…,<nums>}`, e.g.
/// `{"event":"shed","reason":"queue-full","t_us":5120,"n":50000,"seq":7}`.
/// String values must not need JSON escaping (they are the library's own
/// enum and fault-plan spellings).
pub fn log_event(event: &str, strs: &[(&str, &str)], nums: &[(&str, u64)]) {
    if log_enabled() {
        emit(event, strs, epoch_micros(), nums);
    }
}

/// Format and print one line. Every line carries an epoch offset, so
/// events and spans from one run (or several) order into one timeline.
fn emit(event: &str, strs: &[(&str, &str)], t_us: u64, nums: &[(&str, u64)]) {
    let mut line = format!("{{\"event\":\"{event}\"");
    for (k, v) in strs {
        line.push_str(&format!(",\"{k}\":\"{v}\""));
    }
    line.push_str(&format!(",\"t_us\":{t_us}"));
    for (k, v) in nums {
        line.push_str(&format!(",\"{k}\":{v}"));
    }
    line.push('}');
    eprintln!("{line}");
}

/// Render a finished run's events from its stats (only when
/// [`log_enabled`]), stamped as the run returns: a `scratch` line when the
/// run grew its pool, a `fault` line when its fault plan armed any fault,
/// one `retry` line per Las Vegas retry cause, and a `degraded` line when
/// a paper run fell back to the comparison sort.
pub(crate) fn log_run(stats: &SemisortStats) {
    if !log_enabled() {
        return;
    }
    if stats.scratch_grows > 0 {
        log_event(
            "scratch",
            &[],
            &[
                ("grows", stats.scratch_grows.into()),
                ("reuse_hits", stats.scratch_reuse_hits.into()),
                ("bytes_held", stats.scratch_bytes_held as u64),
            ],
        );
    }
    if stats.faults_injected > 0 {
        log_event(
            "fault",
            &[("plan", &stats.config.fault.spec())],
            &[("injected", stats.faults_injected.into())],
        );
    }
    for r in &stats.telemetry.retry_causes {
        log_event(
            "retry",
            &[],
            &[
                ("attempt", r.attempt.into()),
                ("bucket", r.bucket.into()),
                ("allocated", r.allocated as u64),
                ("observed", r.observed as u64),
            ],
        );
    }
    if let (Some(reason), Some(paper)) = (stats.degrade_reason, &stats.paper) {
        log_event(
            "degraded",
            &[
                ("policy", paper.overflow_policy.as_str()),
                ("reason", reason.as_str()),
            ],
            &[("n", stats.n as u64)],
        );
    }
}

/// One finished phase span: name plus epoch-relative endpoints, as carried
/// in [`SemisortStats::spans`] and laid out on the Chrome-trace timeline by
/// [`crate::trace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase name (`"sample_sort"`, `"scatter"`, …).
    pub name: &'static str,
    /// Start, µs since the shared epoch ([`epoch_micros`]).
    pub start_us: u64,
    /// End, µs since the shared epoch (`end_us >= start_us`).
    pub end_us: u64,
    /// Pool worker the span ran on, or `None` when it ran on an external
    /// (non-pool) thread — e.g. the driver thread of a plain API call.
    pub worker: Option<usize>,
}

impl SpanRecord {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        Duration::from_micros(self.end_us - self.start_us)
    }
}

/// Scoped phase timer against the shared epoch ([`epoch_micros`]), so the
/// endpoints of all spans compose into one timeline.
/// [`PhaseSpan::finish_into`] pushes the finished [`SpanRecord`] and,
/// under `SEMISORT_LOG`, prints it as a
/// `{"event":"span","name":…,"t_us":…,"us":…}` line.
#[must_use = "a span that is never finished times nothing"]
pub struct PhaseSpan {
    name: &'static str,
    start_us: u64,
}

impl PhaseSpan {
    /// Start timing a phase.
    pub fn start(name: &'static str) -> Self {
        PhaseSpan {
            name,
            start_us: epoch_micros(),
        }
    }

    /// Stop timing and append the [`SpanRecord`] to `out` (a run's
    /// `SemisortStats::spans`).
    pub fn finish_into(self, out: &mut Vec<SpanRecord>) {
        let rec = SpanRecord {
            name: self.name,
            start_us: self.start_us,
            end_us: epoch_micros().max(self.start_us),
            worker: rayon::current_worker_index(),
        };
        out.push(rec);
        if log_enabled() {
            emit(
                "span",
                &[("name", rec.name)],
                rec.start_us,
                &[("us", rec.end_us - rec.start_us)],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_and_parse() {
        assert!(TelemetryLevel::Off < TelemetryLevel::Counters);
        assert!(TelemetryLevel::Counters < TelemetryLevel::Deep);
        assert!(!TelemetryLevel::Off.counters());
        assert!(TelemetryLevel::Counters.counters());
        assert!(!TelemetryLevel::Counters.deep());
        assert!(TelemetryLevel::Deep.deep());
        for l in [
            TelemetryLevel::Off,
            TelemetryLevel::Counters,
            TelemetryLevel::Deep,
        ] {
            assert_eq!(TelemetryLevel::parse(l.as_str()), Some(l));
        }
        assert_eq!(TelemetryLevel::parse("verbose"), None);
    }

    #[test]
    fn hist_bucketing() {
        assert_eq!(Hist::bucket_of(0), 0);
        assert_eq!(Hist::bucket_of(1), 1);
        assert_eq!(Hist::bucket_of(2), 2);
        assert_eq!(Hist::bucket_of(3), 2);
        assert_eq!(Hist::bucket_of(4), 3);
        assert_eq!(Hist::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        // Bucket i's range starts at bucket_lo(i) and bucket_of(lo) == i.
        for i in 1..20 {
            assert_eq!(Hist::bucket_of(Hist::bucket_lo(i)), i);
        }
    }

    #[test]
    fn hist_record_merge_count() {
        let mut a = Hist::default();
        assert!(a.is_empty());
        a.record(0);
        a.record(1);
        a.record(100);
        let mut b = Hist::default();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.buckets[Hist::bucket_of(100)], 2);
    }

    #[test]
    fn sink_merges_cells_per_level() {
        for level in [
            TelemetryLevel::Off,
            TelemetryLevel::Counters,
            TelemetryLevel::Deep,
        ] {
            let sink = ObsSink::new(level);
            let mut cell = WorkerCell {
                cas_attempts: 10,
                cas_failures: 2,
                records_placed: 8,
                ..Default::default()
            };
            cell.probe_hist.record(3);
            sink.merge_cell(&cell);
            sink.record_occupancy(17);
            let t = sink.snapshot();
            // The sink merges whatever it is handed; *gating* what lands in
            // the cell is the hot loop's job. Histograms are level-gated
            // here too, as is occupancy.
            assert_eq!(t.cas_attempts, 10);
            assert_eq!(t.cas_failures, 2);
            assert_eq!(t.probe_hist.is_empty(), !level.deep());
            assert_eq!(t.light_occupancy_hist.is_empty(), !level.deep());
        }
    }

    #[test]
    fn overflow_capture_first_report_wins() {
        let c = OverflowCapture::new();
        assert!(!c.is_set());
        assert_eq!(c.take(), None);
        c.report(7, 64, 80);
        c.report(9, 32, 33);
        assert_eq!(c.take(), Some((7, 64, 80)));
    }

    #[test]
    fn phase_span_measures_time() {
        let mut spans = Vec::new();
        let span = PhaseSpan::start("test");
        std::thread::sleep(Duration::from_millis(2));
        span.finish_into(&mut spans);
        assert!(spans[0].duration() >= Duration::from_millis(2));
    }

    #[test]
    fn span_records_order_on_one_clock_axis() {
        // The satellite fix this encodes: spans used to each carry their
        // own `Instant`, so two spans' timestamps were incomparable. Now
        // sequential spans must land on one monotone axis.
        let mut spans = Vec::new();
        let a = PhaseSpan::start("a");
        std::thread::sleep(Duration::from_millis(1));
        a.finish_into(&mut spans);
        let b = PhaseSpan::start("b");
        b.finish_into(&mut spans);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "a");
        assert_eq!(spans[1].name, "b");
        assert!(spans[0].start_us <= spans[0].end_us);
        assert!(spans[0].end_us <= spans[1].start_us, "spans share an epoch");
        assert!(spans[0].duration() >= Duration::from_millis(1));
        // Not running on a pool worker here.
        assert_eq!(spans[0].worker, None);
    }
}
