//! Fixed-bucket log2 latency histograms.
//!
//! Latencies in this system span six orders of magnitude — tens of
//! nanoseconds for a span around an integer gather-add, milliseconds for
//! a FISTA solve — so the buckets are powers of two: bucket `i` counts
//! observations in `[2^i, 2^{i+1})` nanoseconds (bucket 0 additionally
//! holds zero). 64 buckets cover every representable `u64`, recording is
//! a handful of relaxed atomic adds, and quantiles are read back with
//! bucket resolution (≤ 2× relative error), which is plenty for p50/p95/
//! p99 latency reporting.
//!
//! Two forms exist:
//!
//! * [`Histogram`] — the shared, lock-free recorder built on `AtomicU64`
//!   arrays. Any number of threads may [`record_ns`](Histogram::record_ns)
//!   concurrently; merging and reading race benignly with writers (a
//!   reader may miss in-flight increments, never sees torn values). It
//!   answers [`count`](Histogram::count) and hands out snapshots.
//! * [`HistogramSnapshot`] — a plain `Copy` value for aggregation and
//!   transport: what [`Histogram::snapshot`] returns and what the
//!   `cs-metrics` fleet statistics embed. The statistics — extrema, mean,
//!   quantiles — are defined here, once.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets; enough for any `u64` nanosecond value.
pub const BUCKETS: usize = 64;

/// The bucket an observation lands in: `floor(log2(ns))`, with 0 mapped
/// into bucket 0.
#[inline]
fn bucket_index(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        63 - ns.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (`2^{i+1} − 1`, saturating at
/// `u64::MAX` for the last bucket).
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// A lock-free log2 histogram of `u64` observations (nanoseconds by
/// convention).
///
/// # Examples
///
/// ```
/// use cs_telemetry::Histogram;
///
/// let h = Histogram::new();
/// for ns in [100, 200, 400, 800_000] {
///     h.record_ns(ns);
/// }
/// assert_eq!(h.count(), 4);
/// let h = h.snapshot();
/// assert_eq!(h.min_ns(), 100);
/// assert_eq!(h.max_ns(), 800_000);
/// // p50 falls in the bucket holding 200 ns, within log2 resolution.
/// let p50 = h.quantile(0.5);
/// assert!((128..=511).contains(&p50), "p50 {p50}");
/// ```
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Lock-free: five relaxed atomic
    /// read-modify-writes, safe from any thread.
    pub fn record_ns(&self, ns: u64) {
        self.counts[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.min.fetch_min(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Folds another histogram's current contents into this one. Total
    /// count is preserved: `merged.count() == a.count() + b.count()` when
    /// neither is being written concurrently.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter().zip(&other.counts) {
            let c = theirs.load(Ordering::Relaxed);
            if c > 0 {
                mine.fetch_add(c, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time copy (individual loads are
    /// atomic; the snapshot as a whole may straddle concurrent writes).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (b, c) in buckets.iter_mut().zip(&self.counts) {
            *b = c.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count(),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A plain-value log2 histogram: the owned counterpart of [`Histogram`]
/// for snapshots, aggregation (merging per-patient end-to-end histograms
/// into a fleet-wide one) and export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts; bucket `i` covers `[2^i, 2^{i+1})`.
    pub buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

// Not derived: an empty histogram's running minimum must start at
// `u64::MAX` (the `Summary` extrema precedent in cs-metrics).
impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::new()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn record_ns(&mut self, ns: u64) {
        self.buckets[bucket_index(ns)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(ns);
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    /// Merges another snapshot into this one. Preserves the total count:
    /// `a.merge(&b)` leaves `a.count() == old_a.count() + b.count()`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (wraps on overflow, which at nanosecond
    /// scale means > 584 years of accumulated latency).
    pub fn sum_ns(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// The `p`-quantile (`p ∈ [0, 1]`, clamped) at bucket resolution.
    ///
    /// Guarantees, tested by property in `tests/histogram_props.rs`:
    ///
    /// * **monotone in `p`** — `quantile(p1) ≤ quantile(p2)` for
    ///   `p1 ≤ p2`;
    /// * **bounded** — the result always lies in
    ///   `[min_ns(), max_ns()]`;
    /// * **bucket-accurate** — the true quantile lies in the same log2
    ///   bucket, so the relative error is below 2×.
    ///
    /// # Error bound
    ///
    /// The reported value is the upper bound `2^{i+1} − 1` of the bucket
    /// `[2^i, 2^{i+1})` holding the rank-`⌈p·n⌉` observation, clamped
    /// into `[min_ns(), max_ns()]`. The true quantile `q` lies in the
    /// same bucket, so `q ≤ quantile(p) < 2·q` — the estimate never
    /// *under*-reports and over-reports by strictly less than one
    /// octave. There is no error in degenerate directions: a
    /// single-sample histogram returns that sample exactly (the clamp
    /// collapses the bucket to the observed value), `p = 0` returns a
    /// value `≥ min_ns()` in the minimum's bucket, and `p = 1` returns
    /// `max_ns()`'s bucket upper clamped to exactly `max_ns()`.
    ///
    /// # Edge cases
    ///
    /// * empty histogram → 0, for any `p`;
    /// * `p` = NaN → treated as 0.0 (the minimum-rank quantile), never a
    ///   panic or a garbage rank;
    /// * `p` outside `[0, 1]` → clamped.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                // Representative value: the bucket's upper bound, clamped
                // into the observed range so quantiles never exceed the
                // recorded extrema.
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_floor_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        let h = h.snapshot();
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn quantiles_cover_recorded_range() {
        let h = Histogram::new();
        for i in 1..=1000u64 {
            h.record_ns(i);
        }
        let h = h.snapshot();
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 1000);
        let p50 = h.quantile(0.5);
        // True p50 is 500; bucket resolution admits [256, 1000].
        assert!((256..=1023).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn atomic_merge_preserves_count_and_extrema() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record_ns(10);
        a.record_ns(20);
        b.record_ns(5);
        b.record_ns(40_000);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        let a = a.snapshot();
        assert_eq!(a.min_ns(), 5);
        assert_eq!(a.max_ns(), 40_000);
        assert_eq!(a.sum_ns(), 40_035);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record_ns(t * 1000 + i % 97);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
        assert_eq!(
            h.snapshot().buckets.iter().sum::<u64>(),
            40_000,
            "bucket counts must sum to the total"
        );
    }

    #[test]
    fn empty_quantile_is_zero_for_any_p() {
        let s = HistogramSnapshot::new();
        for p in [0.0, 0.5, 1.0, -3.0, 42.0, f64::NAN] {
            assert_eq!(s.quantile(p), 0);
        }
    }

    #[test]
    fn single_sample_quantile_is_exact() {
        // The clamp into [min, max] collapses the log2 bucket to the one
        // observed value: a single-sample histogram has zero error.
        for ns in [0u64, 1, 7, 1023, 1024, 5_000_000_000] {
            let mut s = HistogramSnapshot::new();
            s.record_ns(ns);
            for p in [0.0, 0.25, 0.5, 1.0] {
                assert_eq!(s.quantile(p), ns, "p={p} ns={ns}");
            }
        }
    }

    #[test]
    fn quantile_extremes_hit_the_recorded_range() {
        let mut s = HistogramSnapshot::new();
        for ns in [10u64, 300, 9_000, 70_000] {
            s.record_ns(ns);
        }
        // p=0 lands in the minimum's bucket [8,16): clamped to ≥ min.
        let p0 = s.quantile(0.0);
        assert!((10..16).contains(&p0), "p0 {p0}");
        // p=1's bucket upper (131071) clamps to exactly the max.
        assert_eq!(s.quantile(1.0), 70_000);
    }

    #[test]
    fn nan_p_is_treated_as_zero_not_garbage() {
        let mut s = HistogramSnapshot::new();
        s.record_ns(100);
        s.record_ns(100_000);
        assert_eq!(s.quantile(f64::NAN), s.quantile(0.0));
    }

    #[test]
    fn quantile_never_underestimates_by_more_than_the_bucket() {
        // The documented bound: q ≤ quantile(p) < 2q for the true
        // quantile q, checked against an exact sorted reference.
        let values: Vec<u64> = (1..=500u64).map(|i| i * i).collect();
        let mut s = HistogramSnapshot::new();
        for &v in &values {
            s.record_ns(v);
        }
        for p in [0.01, 0.1, 0.5, 0.9, 0.95, 0.99] {
            let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let truth = values[rank - 1];
            let est = s.quantile(p);
            assert!(est >= truth, "p={p}: est {est} < truth {truth}");
            assert!(est < truth * 2, "p={p}: est {est} ≥ 2×truth {truth}");
        }
    }

    #[test]
    fn snapshot_matches_live_reads() {
        let h = Histogram::new();
        h.record_ns(7);
        h.record_ns(900);
        let s = h.snapshot();
        assert_eq!(s.count(), h.count());
        assert_eq!((s.min_ns(), s.max_ns(), s.sum_ns()), (7, 900, 907));
        // The live recorder and the plain value bucket alike.
        let mut plain = HistogramSnapshot::new();
        plain.record_ns(7);
        plain.record_ns(900);
        assert_eq!(s, plain);
    }
}
