//! Per-layer measurement shared by the library and service workloads: a
//! span around each public call with the engine's phases beneath it, the
//! engine's counters, scheduler deltas, allocation, and the floors.

use std::collections::BTreeMap;

use bench::alloc_track::measure_total;
use rayon::prelude::*;
use rayon::trace::SchedulerStats;
use semisort::obs::epoch_micros;
use semisort::Semisorter;

use crate::check::{self, Fingerprint};
use crate::report::{Outcome, PER_LAYER};
use crate::spans::Trace;
use crate::stats::median;

/// Repetitions of each floor measurement.
const FLOOR_REPS: usize = 5;

/// Per-call samples of the per-layer metrics, by name.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Add one call's value of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Median of `name` across calls.
    pub fn median(&self, name: &str) -> f64 {
        median(&self.0[name])
    }
}

/// The phases and the remainder that partition a call's span.
const CALL_PARTS: [&str; 6] = [
    "phase.sample_s",
    "phase.buckets_s",
    "phase.scatter_s",
    "phase.local_sort_s",
    "phase.pack_s",
    "engine.other_s",
];

/// Report the median of every sample: listed per-layer metrics as metrics,
/// the rest (the by-key parts, which only some workloads have) as notes in
/// seconds. Also notes how far the medians of the call's parts miss the
/// median call time `call_p50`, as a share of it.
pub fn report(samples: &Samples, call_p50: f64, out: &mut Outcome) {
    for (name, values) in &samples.0 {
        if PER_LAYER.iter().any(|(n, _)| n == name) {
            out.metric(name, median(values));
        } else {
            out.note(*name, median(values), "s");
        }
    }
    let parts: f64 = CALL_PARTS.iter().map(|p| samples.median(p)).sum();
    out.note(
        "trace.closure_gap",
        (parts - call_p50).abs() / call_p50,
        "ratio",
    );
}

/// Seconds between two epoch stamps.
pub fn secs(start_us: u64, end_us: u64) -> f64 {
    (end_us - start_us) as f64 / 1e6
}

/// Scheduler activity of the current pool since snapshot `before` (taken
/// with `rayon::scheduler_stats`).
pub fn sched_since(before: Option<SchedulerStats>) -> SchedulerStats {
    rayon::scheduler_stats()
        .zip(before)
        .map(|(after, before)| after.delta(&before))
        .unwrap_or_default()
}

/// Push scheduler activity `delta`, spread over `per` calls or requests.
pub fn push_sched(samples: &mut Samples, delta: &SchedulerStats, per: f64) {
    samples.push("sched.steals", delta.total_steals() as f64 / per);
    samples.push(
        "sched.steal_attempts",
        delta.total_steal_attempts() as f64 / per,
    );
    samples.push("sched.parks", delta.total_parks() as f64 / per);
    samples.push(
        "sched.park_s",
        delta.total_park_time_us() as f64 / 1e6 / per,
    );
}

/// Run `f` once on `engine` as call `id`, recording a span named `name`
/// with the engine's phase spans beneath it, and push the call's phase,
/// bucket, scatter and pool figures into `samples`. Returns `f`'s result
/// and the call's duration in seconds.
pub fn traced_call<R>(
    engine: &mut Semisorter,
    name: &'static str,
    id: u64,
    trace: &mut Trace,
    samples: &mut Samples,
    f: impl FnOnce(&mut Semisorter) -> R,
) -> (R, f64) {
    let start = epoch_micros();
    let (result, alloc) = measure_total(|| f(engine));
    let end = epoch_micros();

    let st = engine.last_stats();
    let call = trace.root(name, id, start, end);
    trace.phases(call, &st.spans);
    let phase = |n: &str| -> f64 {
        st.spans
            .iter()
            .filter(|s| s.name == n)
            .fold(0.0, |acc, s| acc + secs(s.start_us, s.end_us))
    };
    samples.push("phase.sample_s", phase("sample_sort"));
    samples.push("phase.buckets_s", phase("construct_buckets"));
    samples.push("phase.scatter_s", phase("scatter"));
    samples.push("phase.local_sort_s", phase("local_sort"));
    samples.push("phase.pack_s", phase("pack"));
    samples.push("engine.other_s", trace.self_us(call) as f64 / 1e6);

    let n = st.n.max(1) as f64;
    let tel = &st.telemetry;
    samples.push("buckets.heavy_keys", st.heavy_keys as f64);
    samples.push("buckets.light_buckets", st.light_buckets as f64);
    samples.push("buckets.slots_per_record", st.total_slots as f64 / n);
    samples.push("buckets.heavy_share", st.heavy_records as f64 / n);
    samples.push("scatter.attempts_per_record", tel.cas_attempts as f64 / n);
    samples.push(
        "scatter.cas_useful_ratio",
        if tel.cas_attempts == 0 {
            1.0
        } else {
            (tel.cas_attempts - tel.cas_failures) as f64 / tel.cas_attempts as f64
        },
    );
    samples.push("scatter.cycles", st.inplace_cycles as f64);
    samples.push(
        "scatter.flushes",
        (st.swap_buffer_flushes + st.blocks_flushed) as f64,
    );
    samples.push("pool.grows_per_call", f64::from(st.scratch_grows));
    samples.push("pool.scratch_bytes", engine.scratch_bytes_held() as f64);
    samples.push("pool.alloc_bytes_per_call", alloc as f64);
    (result, secs(start, end))
}

/// Time the by-key layer's two inner parts for `items` keyed by `.0`: the
/// parallel key hash into `(hash, index)` pairs (as `Semisorter`'s by-key
/// methods do it) and the core `sort_pairs` on those pairs. Records both
/// as root spans of call `id`; returns `(hash_s, core_s)`.
pub fn bykey_parts(
    engine: &mut Semisorter,
    items: &[(u64, u64)],
    hashed: &mut Vec<(u64, u64)>,
    id: u64,
    trace: &mut Trace,
    out: &mut Outcome,
) -> (f64, f64) {
    hashed.resize(items.len(), (0, 0));
    let h0 = epoch_micros();
    hashed
        .par_iter_mut()
        .enumerate()
        .with_min_len(4096)
        .for_each(|(i, slot)| *slot = (semisort::api::hash_key(&items[i].0), i as u64));
    let h1 = epoch_micros();
    trace.root("bykey.hash", id, h0, h1);
    let expected = Fingerprint::of(hashed);
    let c0 = epoch_micros();
    let core = engine.sort_pairs(hashed);
    let c1 = epoch_micros();
    trace.root("bykey.core", id, c0, c1);
    out.record(
        core.map_err(|e| e.to_string())
            .and_then(|o| check::semisorted(&expected, &o)),
    );
    (secs(h0, h1), secs(c0, c1))
}

/// Medians of the three floors on `input`, each checked: a parallel copy
/// into pre-faulted memory, the paper's radix-sort baseline, and the
/// Table 4 scatter + pack. Returns `(copy_s, radix_sort_s, scatter_pack_s)`.
pub fn floors(
    input: &[(u64, u64)],
    seed: u64,
    trace: &mut Trace,
    out: &mut Outcome,
) -> (f64, f64, f64) {
    let expected = Fingerprint::of(input);
    // Writing every element faults the pages in before the copy is timed.
    let mut dst = vec![(1u64, 1u64); input.len()];
    let chunk = 1 << 14;
    let mut copy = Vec::new();
    let mut radix = Vec::new();
    let mut scatter_pack = Vec::new();
    for rep in 0..FLOOR_REPS as u64 {
        let t0 = epoch_micros();
        dst.par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(i, d)| d.copy_from_slice(&input[i * chunk..i * chunk + d.len()]));
        let t1 = epoch_micros();
        trace.root("floor.copy", rep, t0, t1);
        copy.push(secs(t0, t1));
        out.record(if dst == input {
            Ok(())
        } else {
            Err("floor copy differs from its input".into())
        });

        let t0 = epoch_micros();
        parlay::radix_sort::radix_sort_pairs(&mut dst);
        let t1 = epoch_micros();
        trace.root("floor.radix_sort", rep, t0, t1);
        radix.push(secs(t0, t1));
        out.record(check::semisorted(&expected, &dst));

        // The floor is the scatter and the pack alone; the span also covers
        // the slot array's allocation.
        let t0 = epoch_micros();
        let (packed, timing) = baselines::scatter_pack::scatter_and_pack(input, seed ^ rep);
        trace.root("floor.scatter_pack", rep, t0, epoch_micros());
        scatter_pack.push(timing.total().as_secs_f64());
        let got = Fingerprint::of(&packed);
        out.record(if got == expected {
            Ok(())
        } else {
            Err("scatter + pack lost records".into())
        });
    }
    (median(&copy), median(&radix), median(&scatter_pack))
}
