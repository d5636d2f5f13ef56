//! Per-stream and fleet-wide solver statistics.
//!
//! The fleet decode engine reports raw per-packet numbers (iterations,
//! solve time, end-to-end latency). These types turn them into the
//! summaries the `fleet_report` harness prints: per-stream distributions
//! plus a fleet aggregate with a worker-balance figure.

use crate::aggregate::Summary;
use cs_telemetry::HistogramSnapshot;

const NS_PER_SEC: f64 = 1e9;

/// Solver statistics for one decoded stream.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct StreamStats {
    /// Distribution of FISTA iteration counts across the stream's packets.
    pub iterations: Summary,
    /// Distribution of per-packet solve times, in seconds.
    pub solve_time: Summary,
    /// Log2 histogram of solve times in nanoseconds — what the quantile
    /// accessors read.
    pub solve_hist: HistogramSnapshot,
    /// Log2 histogram of end-to-end latencies (capture → in-order
    /// emission) in nanoseconds. Empty when the run carried no trace
    /// context (telemetry disabled).
    pub e2e_hist: HistogramSnapshot,
    /// Packets whose end-to-end latency exceeded the SLO deadline.
    pub deadline_misses: u64,
}

impl StreamStats {
    /// An empty record.
    pub fn new() -> Self {
        StreamStats::default()
    }

    /// Adds one packet's observation.
    pub fn record(&mut self, iterations: usize, solve_time_secs: f64) {
        self.iterations.push(iterations as f64);
        self.solve_time.push(solve_time_secs);
        self.solve_hist.record_ns((solve_time_secs * NS_PER_SEC) as u64);
    }

    /// Adds one packet's end-to-end observation (additive to [`record`]:
    /// e2e is only available on traced runs, so it rides separately).
    ///
    /// [`record`]: StreamStats::record
    pub fn record_e2e(&mut self, e2e_secs: f64, deadline_missed: bool) {
        self.e2e_hist.record_ns((e2e_secs * NS_PER_SEC) as u64);
        self.deadline_misses += u64::from(deadline_missed);
    }

    /// Packets observed.
    pub fn packets(&self) -> u64 {
        self.iterations.count()
    }

    /// Median end-to-end latency in seconds (log2-bucket resolution).
    pub fn e2e_p50(&self) -> f64 {
        self.e2e_hist.quantile(0.50) as f64 / NS_PER_SEC
    }

    /// 99th-percentile end-to-end latency in seconds.
    pub fn e2e_p99(&self) -> f64 {
        self.e2e_hist.quantile(0.99) as f64 / NS_PER_SEC
    }

    /// Median solve time in seconds (log2-bucket resolution).
    pub fn solve_time_p50(&self) -> f64 {
        self.solve_hist.quantile(0.50) as f64 / NS_PER_SEC
    }

    /// 95th-percentile solve time in seconds (log2-bucket resolution).
    pub fn solve_time_p95(&self) -> f64 {
        self.solve_hist.quantile(0.95) as f64 / NS_PER_SEC
    }

    /// 99th-percentile solve time in seconds (log2-bucket resolution).
    pub fn solve_time_p99(&self) -> f64 {
        self.solve_hist.quantile(0.99) as f64 / NS_PER_SEC
    }
}

/// Fleet-wide aggregate over all streams.
///
/// # Examples
///
/// ```
/// use cs_metrics::{FleetStats, StreamStats};
///
/// let mut a = StreamStats::new();
/// a.record(100, 0.010);
/// a.record(60, 0.006);
/// let mut b = StreamStats::new();
/// b.record(80, 0.008);
///
/// let fleet = FleetStats::from_streams(&[a, b]);
/// assert_eq!(fleet.packets(), 3);
/// assert!((fleet.iterations.mean() - 80.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FleetStats {
    /// Streams aggregated.
    pub streams: u64,
    /// Merged iteration distribution across every packet of every stream.
    pub iterations: Summary,
    /// Merged solve-time distribution, in seconds.
    pub solve_time: Summary,
    /// Merged log2 histogram of solve times in nanoseconds.
    pub solve_hist: HistogramSnapshot,
    /// Merged log2 histogram of end-to-end latencies in nanoseconds.
    pub e2e_hist: HistogramSnapshot,
    /// Deadline-missing packets across the fleet.
    pub deadline_misses: u64,
    /// Patients currently Healthy per the SLO engine. Zero until
    /// [`FleetStats::set_health_counts`] is fed from a telemetry SLO
    /// snapshot — stream merging alone cannot know burn-rate state.
    pub healthy: u64,
    /// Patients currently Degraded (burn rate over threshold in both the
    /// fast and slow windows).
    pub degraded: u64,
    /// Patients currently Stalled (no emission within the stall window).
    pub stalled: u64,
}

impl FleetStats {
    /// Merges per-stream records into the fleet aggregate.
    pub fn from_streams(streams: &[StreamStats]) -> Self {
        let mut fleet = FleetStats {
            streams: streams.len() as u64,
            ..FleetStats::default()
        };
        for s in streams {
            fleet.iterations.merge(&s.iterations);
            fleet.solve_time.merge(&s.solve_time);
            fleet.solve_hist.merge(&s.solve_hist);
            fleet.e2e_hist.merge(&s.e2e_hist);
            fleet.deadline_misses += s.deadline_misses;
        }
        fleet
    }

    /// Records the per-patient health census from the SLO engine.
    pub fn set_health_counts(&mut self, healthy: u64, degraded: u64, stalled: u64) {
        self.healthy = healthy;
        self.degraded = degraded;
        self.stalled = stalled;
    }

    /// Total packets across the fleet.
    pub fn packets(&self) -> u64 {
        self.iterations.count()
    }

    /// Median end-to-end latency in seconds (log2-bucket resolution).
    pub fn e2e_p50(&self) -> f64 {
        self.e2e_hist.quantile(0.50) as f64 / NS_PER_SEC
    }

    /// 99th-percentile end-to-end latency in seconds.
    pub fn e2e_p99(&self) -> f64 {
        self.e2e_hist.quantile(0.99) as f64 / NS_PER_SEC
    }

    /// Median solve time in seconds (log2-bucket resolution).
    pub fn solve_time_p50(&self) -> f64 {
        self.solve_hist.quantile(0.50) as f64 / NS_PER_SEC
    }

    /// 95th-percentile solve time in seconds (log2-bucket resolution).
    pub fn solve_time_p95(&self) -> f64 {
        self.solve_hist.quantile(0.95) as f64 / NS_PER_SEC
    }

    /// 99th-percentile solve time in seconds (log2-bucket resolution).
    pub fn solve_time_p99(&self) -> f64 {
        self.solve_hist.quantile(0.99) as f64 / NS_PER_SEC
    }
}

/// How evenly packets landed on the pool's workers: the ratio of the
/// busiest worker to the ideal per-worker share (1.0 = perfectly even).
/// Returns 0 for an empty pool or an idle fleet.
pub fn worker_imbalance(worker_packets: &[usize]) -> f64 {
    let total: usize = worker_packets.iter().sum();
    if worker_packets.is_empty() || total == 0 {
        return 0.0;
    }
    let busiest = *worker_packets.iter().max().expect("non-empty") as f64;
    let ideal = total as f64 / worker_packets.len() as f64;
    busiest / ideal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_stats_accumulate() {
        let mut s = StreamStats::new();
        s.record(10, 0.001);
        s.record(30, 0.003);
        assert_eq!(s.packets(), 2);
        assert_eq!(s.iterations.mean(), 20.0);
        assert!((s.solve_time.max() - 0.003).abs() < 1e-12);
    }

    #[test]
    fn solve_time_quantiles_track_the_histogram() {
        let mut s = StreamStats::new();
        for _ in 0..95 {
            s.record(10, 0.001);
        }
        for _ in 0..5 {
            s.record(10, 0.100);
        }
        assert_eq!(s.solve_hist.count(), 100);
        // p50 sits in the 1 ms cohort, p99 in the 100 ms tail; log2
        // buckets admit up to 2x on each.
        assert!(s.solve_time_p50() < 0.003, "p50 {}", s.solve_time_p50());
        assert!(s.solve_time_p99() > 0.05, "p99 {}", s.solve_time_p99());
        assert!(s.solve_time_p50() <= s.solve_time_p95());
        assert!(s.solve_time_p95() <= s.solve_time_p99());
        // Fleet aggregation merges the histograms too.
        let fleet = FleetStats::from_streams(&[s, StreamStats::new()]);
        assert_eq!(fleet.solve_hist.count(), 100);
        assert!(fleet.solve_time_p99() >= fleet.solve_time_p50());
    }

    #[test]
    fn e2e_observations_ride_separately_from_solve_stats() {
        let mut s = StreamStats::new();
        s.record(10, 0.001);
        assert_eq!(s.e2e_hist.count(), 0, "untraced run leaves e2e empty");
        s.record_e2e(0.004, false);
        s.record_e2e(3.000, true);
        assert_eq!(s.e2e_hist.count(), 2);
        assert_eq!(s.deadline_misses, 1);
        assert!(s.e2e_p50() >= 0.004 && s.e2e_p99() >= 3.0);
        let mut fleet = FleetStats::from_streams(&[s, StreamStats::new()]);
        assert_eq!(fleet.e2e_hist.count(), 2);
        assert_eq!(fleet.deadline_misses, 1);
        fleet.set_health_counts(1, 1, 0);
        assert_eq!((fleet.healthy, fleet.degraded, fleet.stalled), (1, 1, 0));
    }

    #[test]
    fn fleet_merges_streams() {
        let mut a = StreamStats::new();
        let mut b = StreamStats::new();
        for i in 0..4 {
            a.record(100 + i, 0.01);
            b.record(50, 0.005);
        }
        let fleet = FleetStats::from_streams(&[a, b]);
        assert_eq!(fleet.streams, 2);
        assert_eq!(fleet.packets(), 8);
        assert!(fleet.iterations.min() == 50.0 && fleet.iterations.max() == 103.0);
    }

    #[test]
    fn imbalance_of_even_and_skewed_pools() {
        assert_eq!(worker_imbalance(&[]), 0.0);
        assert_eq!(worker_imbalance(&[0, 0]), 0.0);
        assert!((worker_imbalance(&[5, 5, 5, 5]) - 1.0).abs() < 1e-12);
        assert!((worker_imbalance(&[10, 0]) - 2.0).abs() < 1e-12);
    }
}
