//! Lock-free metric primitives: monotonic [`Counter`]s and log₂-bucketed
//! [`Histogram`]s.
//!
//! Both are built from relaxed atomics only: recording never takes a
//! lock, never allocates, and never fences. The ordering guarantees are
//! deliberately weak — metrics are *diagnostics*, read at quiescent
//! points (end of a bench row, end of a run), not synchronization
//! primitives. Cross-thread sums are exact because `fetch_add` is
//! atomic even when relaxed; only the *observation* of concurrent
//! in-flight updates is unordered.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter.
///
/// Hot-path cost: one relaxed `fetch_add`. Counters are handed out by
/// the registry as `&'static` references so call sites can cache them
/// in a `OnceLock` and skip the name lookup entirely.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh zeroed counter.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Add `n` to the counter (relaxed).
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one to the counter (relaxed).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (relaxed load).
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zero the counter (used by `Registry::reset`).
    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of histogram buckets: one for the value `0`, then one per
/// power-of-two magnitude up to `2^63..=u64::MAX`.
pub const BUCKETS: usize = 65;

/// The bucket index a value lands in.
///
/// Bucket `0` holds exactly the value `0`; bucket `k ≥ 1` holds values
/// in `[2^(k-1), 2^k - 1]` (bucket `64` tops out at `u64::MAX`). This
/// is `⌊log₂ v⌋ + 1` computed with a single `leading_zeros`.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The smallest value that lands in bucket `k` (inverse of
/// [`bucket_of`], used for rendering).
#[inline]
pub fn bucket_floor(k: usize) -> u64 {
    debug_assert!(k < BUCKETS);
    if k == 0 {
        0
    } else {
        1u64 << (k - 1)
    }
}

/// A log₂-bucketed histogram of `u64` samples (typically latencies in
/// nanoseconds, or sizes in elements).
///
/// Recording touches five relaxed atomics: the bucket, the sample
/// count, the running sum, and min/max via `fetch_min`/`fetch_max`.
/// There is no lock and no allocation, so histograms are safe to
/// record into from every query thread concurrently.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample (relaxed; lock-free).
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Wrapping on the sum needs ~585 years of nanoseconds; accepted.
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.min.load(Ordering::Relaxed))
        }
    }

    /// Largest recorded sample, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.max.load(Ordering::Relaxed))
        }
    }

    /// The count in bucket `k`.
    pub fn bucket(&self, k: usize) -> u64 {
        self.buckets[k].load(Ordering::Relaxed)
    }

    /// Empty the histogram (used by `Registry::reset`).
    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bucketing edge cases the satellite task pins: 0, u64::MAX,
    /// and every power-of-two boundary (both sides).
    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_of(1u64 << 63), 64);
        assert_eq!(bucket_of((1u64 << 63) - 1), 63);
        for k in 1..BUCKETS {
            let lo = bucket_floor(k);
            assert_eq!(bucket_of(lo), k, "floor of bucket {k}");
            if k > 1 {
                assert_eq!(bucket_of(lo - 1), k - 1, "below floor of bucket {k}");
            }
            let hi = if k == 64 { u64::MAX } else { (lo << 1) - 1 };
            assert_eq!(bucket_of(hi), k, "ceiling of bucket {k}");
        }
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(1), 1);
        assert_eq!(bucket_floor(64), 1u64 << 63);
    }

    #[test]
    fn histogram_records_and_resets() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        for v in [0, 1, 1, 7, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 2);
        assert_eq!(h.bucket(3), 1);
        assert_eq!(h.bucket(64), 1);
        // Bucket mass accounts for every sample.
        let mass: u64 = (0..BUCKETS).map(|k| h.bucket(k)).sum();
        assert_eq!(mass, h.count());
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!((0..BUCKETS).map(|k| h.bucket(k)).sum::<u64>(), 0);
    }

    #[test]
    fn counter_adds() {
        let c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }
}
