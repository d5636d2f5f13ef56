//! Aggregation of per-record metrics into corpus-level results.
//!
//! Every figure in the paper reports quantities "averaged over all Data" —
//! i.e. over the 48 records of the MIT-BIH-style corpus. [`Summary`] and
//! [`SweepSeries`] are the small bookkeeping types the benchmark harness
//! uses to produce those averages.

/// Running summary statistics (count, mean, min/max, sample standard
/// deviation) built incrementally with Welford's algorithm.
///
/// # Examples
///
/// ```
/// use cs_metrics::Summary;
///
/// let s: Summary = [2.0, 4.0, 6.0].into_iter().collect();
/// assert_eq!(s.count(), 3);
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.min(), 2.0);
/// assert_eq!(s.max(), 6.0);
/// assert!((s.std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

// Not derived: the derive would zero `min`/`max`, which corrupts the
// extrema of any summary that starts from `Default` instead of `new()`.
impl Default for Summary {
    fn default() -> Self {
        Summary::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 for an empty summary).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (0 with fewer than two observations).
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Smallest observation.
    ///
    /// # Panics
    ///
    /// Panics if the summary is empty.
    pub fn min(&self) -> f64 {
        assert!(self.count > 0, "Summary::min on empty summary");
        self.min
    }

    /// Largest observation.
    ///
    /// # Panics
    ///
    /// Panics if the summary is empty.
    pub fn max(&self) -> f64 {
        assert!(self.count > 0, "Summary::max on empty summary");
        self.max
    }

    /// Merges another summary into this one (parallel-friendly).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for v in iter {
            s.push(v);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

/// One point of a parameter sweep: an x-value (e.g. compression ratio) and
/// the summary of the metric measured there across the corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SweepPoint {
    /// The swept parameter value (CR in percent for most figures).
    pub x: f64,
    /// Corpus summary of the measured metric at `x`.
    pub summary: Summary,
}

/// A named series of sweep points — one curve of a figure.
///
/// # Examples
///
/// ```
/// use cs_metrics::{Summary, SweepSeries};
///
/// let mut series = SweepSeries::new("sparse sensing");
/// series.push(50.0, [20.1, 19.7].into_iter().collect::<Summary>());
/// series.push(75.0, [8.3, 8.9].into_iter().collect::<Summary>());
/// assert_eq!(series.points().len(), 2);
/// assert!(series.points()[0].summary.mean() > series.points()[1].summary.mean());
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SweepSeries {
    name: String,
    points: Vec<SweepPoint>,
}

impl SweepSeries {
    /// Creates an empty series with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        SweepSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The series name (legend label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sweep point.
    pub fn push(&mut self, x: f64, summary: Summary) {
        self.points.push(SweepPoint { x, summary });
    }

    /// The collected points in insertion order.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// Renders the series as fixed-width text rows (x, mean, std, min, max),
    /// the format the `fig*` binaries print.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.name));
        out.push_str("#      x        mean         std         min         max    n\n");
        for p in &self.points {
            out.push_str(&format!(
                "{:8.2} {:11.4} {:11.4} {:11.4} {:11.4} {:4}\n",
                p.x,
                p.summary.mean(),
                p.summary.std_dev(),
                p.summary.min(),
                p.summary.max(),
                p.summary.count()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_summary_defaults() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty summary")]
    fn empty_min_panics() {
        let _ = Summary::new().min();
    }

    #[test]
    fn welford_matches_two_pass() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 5.0).collect();
        let s: Summary = data.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var =
            data.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.std_dev() - var.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_observation() {
        let s: Summary = [42.0].into_iter().collect();
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn table_renders_all_points() {
        let mut series = SweepSeries::new("curve");
        series.push(30.0, [1.0, 2.0].into_iter().collect());
        series.push(40.0, [3.0].into_iter().collect());
        let t = series.to_table();
        assert!(t.contains("# curve"));
        assert_eq!(t.lines().count(), 4);
    }

    proptest! {
        #[test]
        fn prop_merge_equals_sequential(split in 1_usize..19) {
            let data: Vec<f64> = (0..20).map(|i| (i as f64 - 9.5) * 1.3).collect();
            let (a, b) = data.split_at(split);
            let mut sa: Summary = a.iter().copied().collect();
            let sb: Summary = b.iter().copied().collect();
            sa.merge(&sb);
            let whole: Summary = data.iter().copied().collect();
            prop_assert!((sa.mean() - whole.mean()).abs() < 1e-10);
            prop_assert!((sa.std_dev() - whole.std_dev()).abs() < 1e-10);
            prop_assert_eq!(sa.count(), whole.count());
            prop_assert_eq!(sa.min(), whole.min());
            prop_assert_eq!(sa.max(), whole.max());
        }

        #[test]
        fn prop_mean_within_bounds(values in proptest::collection::vec(-100.0_f64..100.0, 1..50)) {
            let s: Summary = values.iter().copied().collect();
            prop_assert!(s.mean() >= s.min() - 1e-9);
            prop_assert!(s.mean() <= s.max() + 1e-9);
        }
    }
}
