//! The measurement rule: nearest-rank percentiles and the pass-aligned
//! low percentile.
//!
//! A workload is `P` identical passes over the same `K` operations, so
//! operation `k` is the same work in every pass. Contention on a shared
//! host only ever *adds* time, and it arrives in bursts that spoil whole
//! passes; a low percentile of operation `k`'s `P` timings therefore
//! recovers its uncontended cost where a mean or a median (which a burst
//! covering half the passes drags upward) does not.

/// The percentile the rule takes across passes. The host this was sized
/// on flips, seconds at a time, between a fast state and one about 1.5×
/// slower; a CPU-bound pass finds the fast state 40–60 % of the time, a
/// pass that also writes files only ~12 % (NOISE.md). The 5th percentile
/// needs the fast state for one pass in twenty, and was the steadiest
/// across ten seeds (1.4–3.4 % spread in throughput, against 2.6 % and
/// 11.7 % for the 10th and 20th on the file-writing workload).
pub const LOW_PCT: f64 = 5.0;

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of percentile `pct` among `n` sorted
/// samples: rank `ceil(pct/100 · n)`, clamped to `[1, n]`.
pub fn nearest_rank(n: usize, pct: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(
        (0.0..=100.0).contains(&pct),
        "percentile {pct} out of range"
    );
    let rank = (pct / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Nearest-rank percentile of an unsorted sample (sorts a copy).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), pct)]
}

/// Median by the same nearest-rank convention (the lower middle value
/// for an even count).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// A tail percentile, refused when fewer than [`MIN_BEYOND`] samples lie
/// beyond it: with 240 samples p95 has 12 beyond it and stands; with 100
/// it has 5 and is an order statistic of noise.
pub fn tail_percentile(values: &[f64], pct: f64) -> Result<f64, String> {
    let n = values.len();
    if n == 0 {
        return Err("tail percentile of an empty sample".into());
    }
    let beyond = n - 1 - nearest_rank(n, pct);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{pct} of {n} samples has {beyond} beyond it, fewer than {MIN_BEYOND}"
        ));
    }
    Ok(percentile(values, pct))
}

/// Per-operation timings of every pass, pass-major, preallocated as
/// `u32` nanoseconds (one operation never takes 4.29 s) and touched in
/// full at construction, so peak memory does not depend on how many
/// passes the time budget allowed.
pub struct PassTimings {
    ops: usize,
    cap: usize,
    passes: usize,
    data: Vec<u32>,
}

impl PassTimings {
    /// Room for `cap` passes of `ops` operations.
    pub fn new(ops: usize, cap: usize) -> Self {
        // Filled with a non-zero value first: a zeroed allocation is not
        // resident until written.
        let mut data = vec![u32::MAX; ops * cap];
        data.fill(0);
        PassTimings {
            ops,
            cap,
            passes: 0,
            data,
        }
    }

    /// Passes recorded so far.
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Whether another pass fits.
    pub fn is_full(&self) -> bool {
        self.passes == self.cap
    }

    /// The next pass's row, to be filled by the caller; counted at once.
    pub fn next_pass(&mut self) -> &mut [u32] {
        assert!(
            !self.is_full(),
            "PassTimings: capacity {} exhausted",
            self.cap
        );
        let row = self.passes;
        self.passes += 1;
        &mut self.data[row * self.ops..(row + 1) * self.ops]
    }

    /// One recorded pass's timings.
    #[cfg(test)]
    pub fn row(&self, pass: usize) -> &[u32] {
        &self.data[pass * self.ops..(pass + 1) * self.ops]
    }

    /// `t_k`: for each operation, the nearest-rank `pct`-th percentile
    /// of its timings across passes, in nanoseconds.
    pub fn aligned(&self, pct: f64) -> Vec<f64> {
        assert!(self.passes > 0, "PassTimings: no pass recorded");
        let rank = nearest_rank(self.passes, pct);
        let mut column = vec![0u32; self.passes];
        (0..self.ops)
            .map(|k| {
                for (p, slot) in column.iter_mut().enumerate() {
                    *slot = self.data[p * self.ops + k];
                }
                let (_, v, _) = column.select_nth_unstable(rank);
                f64::from(*v)
            })
            .collect()
    }

    /// Every recorded timing pooled, in nanoseconds (the naive view the
    /// `*_raw` figures are computed from).
    pub fn pooled(&self) -> Vec<f64> {
        self.data[..self.passes * self.ops]
            .iter()
            .map(|&v| f64::from(v))
            .collect()
    }
}

/// Saturating nanoseconds → `u32` for the timing tables.
pub fn ns32(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_conventions() {
        // rank = ceil(p/100 · n), 1-based; the returned index is rank − 1.
        assert_eq!(nearest_rank(10, 10.0), 0);
        assert_eq!(nearest_rank(12, 10.0), 1); // ceil(1.2) = 2nd smallest
        assert_eq!(nearest_rank(24, 10.0), 2);
        assert_eq!(nearest_rank(3, 10.0), 0);
        assert_eq!(nearest_rank(40, LOW_PCT), 1); // ceil(2.0) = 2nd smallest
        assert_eq!(nearest_rank(12, LOW_PCT), 0); // ceil(0.6) = the minimum
        assert_eq!(nearest_rank(240, 95.0), 227);
        assert_eq!(nearest_rank(240, 50.0), 119);
        assert_eq!(nearest_rank(5, 0.0), 0); // clamped up to rank 1
        assert_eq!(nearest_rank(5, 100.0), 4);
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 20.0), 1.0);
        assert_eq!(percentile(&v, 21.0), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0); // lower middle
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let sample = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&sample(240), 95.0), Ok(227.0)); // 12 beyond
        assert_eq!(tail_percentile(&sample(200), 95.0), Ok(189.0)); // exactly 10
        assert!(tail_percentile(&sample(199), 95.0).is_err()); // 9 beyond
        assert!(tail_percentile(&sample(100), 95.0).is_err());
        assert!(tail_percentile(&[], 95.0).is_err());
    }

    /// A tiny deterministic generator; the tests need repeatable jitter,
    /// not quality randomness.
    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn aligned_low_percentile_recovers_true_cost_under_bursts() {
        // 240 operations with distinct true costs; 32 passes, half of
        // which sit inside a contention burst that adds 30 % to every
        // operation, plus ±0.5 % timer jitter everywhere.
        let ops = 240;
        let passes = 32;
        let mut rng = 7u64;
        let truth: Vec<f64> = (0..ops).map(|_| 1.0e6 + 3.0e6 * lcg(&mut rng)).collect();
        let mut table = PassTimings::new(ops, passes);
        for p in 0..passes {
            // Bursts spoil runs of whole passes: 4 on, 4 off.
            let burst = (p / 4) % 2 == 1;
            let row = table.next_pass();
            for (slot, &t) in row.iter_mut().zip(&truth) {
                let jitter = 1.0 + 0.005 * lcg(&mut rng);
                let added = if burst { 0.30 * t } else { 0.0 };
                *slot = (t * jitter + added) as u32;
            }
        }
        let true_total: f64 = truth.iter().sum();
        let low_total: f64 = table.aligned(LOW_PCT).iter().sum();
        let pooled = table.pooled();
        let mean_total = pooled.iter().sum::<f64>() / passes as f64;
        let median_total: f64 = (0..ops)
            .map(|k| {
                let column: Vec<f64> = (0..passes).map(|p| f64::from(table.row(p)[k])).collect();
                // The interpolated median, kinder to the estimator than
                // nearest rank and still wrong.
                (percentile(&column, 50.0) + percentile(&column, 50.0 + 100.0 / passes as f64))
                    / 2.0
            })
            .sum();
        let rel = |x: f64| (x - true_total).abs() / true_total;
        assert!(
            rel(low_total) < 0.01,
            "low percentile off by {:.3}",
            rel(low_total)
        );
        assert!(
            rel(mean_total) > 0.10,
            "mean off by only {:.3}",
            rel(mean_total)
        );
        assert!(
            rel(median_total) > 0.10,
            "median off by only {:.3}",
            rel(median_total)
        );
    }

    #[test]
    fn pass_table_is_pass_major_and_bounded() {
        let mut t = PassTimings::new(3, 2);
        t.next_pass().copy_from_slice(&[1, 2, 3]);
        assert!(!t.is_full());
        t.next_pass().copy_from_slice(&[4, 5, 6]);
        assert!(t.is_full());
        assert_eq!(t.row(1), &[4, 5, 6]);
        assert_eq!(t.pooled(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.aligned(LOW_PCT), vec![1.0, 2.0, 3.0]);
        assert_eq!(ns32(u64::MAX), u32::MAX);
    }
}
