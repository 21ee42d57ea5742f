//! The reference every end-to-end time is divided by.
//!
//! On a shared machine the speed of the same code drifts by tens of
//! percent over minutes (other tenants, clock changes), far more than the
//! regressions the bounds must catch. A kernel timed right next to each
//! call sees the same drift, so the ratio of the two stays put. The
//! kernel is the standard library's unstable sort of a copy of the same
//! records: it is the toolchain's code, so no change to this repository
//! can move it.

use std::thread;
use std::time::Instant;

/// A reusable buffer for the reference sort.
#[derive(Debug, Default)]
pub struct Reference {
    buf: Vec<(u64, u64)>,
}

impl Reference {
    /// Seconds to sort a copy of `records` (the copy is not timed) on one
    /// thread, or with `two_threads` one half on a scoped helper thread.
    /// Library calls use both CPUs, so their reference does too; a
    /// service request's reference runs on its client connection thread
    /// alone, so that no extra thread competes with the live server.
    pub fn time(&mut self, records: &[(u64, u64)], two_threads: bool) -> f64 {
        self.buf.clear();
        self.buf.extend_from_slice(records);
        let t = Instant::now();
        if two_threads {
            let (a, b) = self.buf.split_at_mut(records.len() / 2);
            thread::scope(|s| {
                s.spawn(|| a.sort_unstable());
                b.sort_unstable();
            });
        } else {
            self.buf.sort_unstable();
        }
        t.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_a_copy() {
        let records: Vec<(u64, u64)> = (0..1000u64).rev().map(|i| (i % 7, i)).collect();
        let mut r = Reference::default();
        assert!(r.time(&records, true) > 0.0);
        assert!(r.buf[..500].is_sorted() && r.buf[500..].is_sorted());
        r.time(&records, false);
        assert!(r.buf.is_sorted());
        assert_eq!(records[0], (999 % 7, 999), "the input is untouched");
    }
}
