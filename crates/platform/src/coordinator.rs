//! Coordinator (smartphone) real-time model.
//!
//! The iPhone decoder is real-time iff each 2-second packet reconstructs
//! within its real-time budget — the paper allots "1 sec of total time
//! spent in ECG reconstruction every 2 sec" (§V) and derives the maximum
//! admissible FISTA iteration count from the measured per-iteration time:
//! 800 iterations unoptimized, 2000 optimized. This module performs that
//! derivation from *our* measured solve times, and converts decode times
//! into the CPU-usage percentages Fig. 8 reports.

use std::time::Duration;

/// Static description of the coordinator's scheduling constraints.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CoordinatorSpec {
    /// Packet period (2 s of ECG per packet in the paper).
    pub packet_period: Duration,
    /// Fraction of the period the decoder may occupy (0.5 in the paper:
    /// 1 s of solve per 2 s packet).
    pub decode_budget_fraction: f64,
    /// CPU fraction consumed by everything that is not the solver —
    /// Bluetooth reception, Huffman decoding and the 15 ms-cadence display
    /// thread (§IV-B1).
    pub display_overhead_fraction: f64,
}

impl CoordinatorSpec {
    /// The iPhone 3GS configuration from the paper.
    pub fn iphone_3gs() -> Self {
        CoordinatorSpec {
            packet_period: Duration::from_secs(2),
            decode_budget_fraction: 0.5,
            display_overhead_fraction: 0.04,
        }
    }

    /// The absolute solver budget per packet.
    pub fn decode_budget(&self) -> Duration {
        self.packet_period.mul_f64(self.decode_budget_fraction)
    }
}

/// One packet's observed solver behaviour (what the decoder reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveSample {
    /// FISTA iterations executed.
    pub iterations: usize,
    /// Wall-clock solver time.
    pub solve_time: Duration,
}

/// The derived real-time characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RealTimeReport {
    /// Mean measured time per FISTA iteration.
    pub per_iteration: Duration,
    /// Largest iteration count that still fits the decode budget — the
    /// analogue of the paper's 800/2000 numbers.
    pub max_iterations_in_budget: usize,
    /// Mean decoder CPU usage over the packet period, display overhead
    /// included, as a percentage (Fig. 8's 17.7 % at CR 50).
    pub cpu_usage_percent: f64,
    /// Worst single packet against the budget.
    pub worst_case_fraction_of_budget: f64,
    /// Whether every observed packet met the budget.
    pub real_time: bool,
}

/// Derives the real-time report from observed solves.
///
/// # Panics
///
/// Panics if `samples` is empty or contains a zero iteration count.
pub fn analyze_solves(spec: &CoordinatorSpec, samples: &[SolveSample]) -> RealTimeReport {
    assert!(!samples.is_empty(), "analyze_solves: no samples");
    let mut total_time = 0.0_f64;
    let mut total_iters = 0_u64;
    let mut worst = 0.0_f64;
    let budget = spec.decode_budget().as_secs_f64();
    for s in samples {
        assert!(s.iterations > 0, "analyze_solves: zero-iteration sample");
        let t = s.solve_time.as_secs_f64();
        total_time += t;
        total_iters += s.iterations as u64;
        worst = worst.max(t / budget);
    }
    let per_iteration = total_time / total_iters as f64;
    let max_iterations_in_budget = if per_iteration > 0.0 {
        // Epsilon guards against 1749.999… when the ratio is exact.
        (budget / per_iteration + 1e-9).floor() as usize
    } else {
        usize::MAX
    };
    let mean_time = total_time / samples.len() as f64;
    let cpu = mean_time / spec.packet_period.as_secs_f64() + spec.display_overhead_fraction;
    RealTimeReport {
        per_iteration: Duration::from_secs_f64(per_iteration),
        max_iterations_in_budget,
        cpu_usage_percent: cpu * 100.0,
        worst_case_fraction_of_budget: worst,
        real_time: worst <= 1.0,
    }
}

/// The iteration-budget ratio between two kernel implementations: how many
/// more iterations the optimized decoder affords in the same real-time
/// budget (the paper: 2000/800 = 2.5×, from a 2.43× kernel speedup).
pub fn iteration_budget_ratio(optimized: &RealTimeReport, baseline: &RealTimeReport) -> f64 {
    optimized.max_iterations_in_budget as f64 / baseline.max_iterations_in_budget as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(iters: usize, ms: u64) -> SolveSample {
        SolveSample {
            iterations: iters,
            solve_time: Duration::from_millis(ms),
        }
    }

    #[test]
    fn paper_like_numbers() {
        // 700 iterations in 0.40 s → 0.571 ms/iter → 1750 fit in 1 s.
        let spec = CoordinatorSpec::iphone_3gs();
        let report = analyze_solves(&spec, &[sample(700, 400)]);
        assert!((report.per_iteration.as_secs_f64() - 0.4 / 700.0).abs() < 1e-9);
        assert_eq!(report.max_iterations_in_budget, 1750);
        // CPU: 0.4/2.0 + 0.04 = 24 %.
        assert!((report.cpu_usage_percent - 24.0).abs() < 1e-9);
        assert!(report.real_time);
    }

    #[test]
    fn budget_violation_detected() {
        let spec = CoordinatorSpec::iphone_3gs();
        let report = analyze_solves(&spec, &[sample(2000, 1200)]);
        assert!(!report.real_time);
        assert!(report.worst_case_fraction_of_budget > 1.0);
    }

    #[test]
    fn aggregates_over_many_packets() {
        let spec = CoordinatorSpec::iphone_3gs();
        let samples: Vec<SolveSample> =
            (0..10).map(|i| sample(600 + i * 10, 300 + i as u64 * 5)).collect();
        let report = analyze_solves(&spec, &samples);
        assert!(report.per_iteration > Duration::ZERO);
        assert!(report.cpu_usage_percent > 0.0 && report.cpu_usage_percent < 100.0);
    }

    #[test]
    fn budget_ratio_mirrors_speedup() {
        let spec = CoordinatorSpec::iphone_3gs();
        let slow = analyze_solves(&spec, &[sample(100, 250)]); // 2.5 ms/iter
        let fast = analyze_solves(&spec, &[sample(243, 250)]); // 2.43× faster
        let ratio = iteration_budget_ratio(&fast, &slow);
        assert!((ratio - 2.43).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_samples_panic() {
        let _ = analyze_solves(&CoordinatorSpec::iphone_3gs(), &[]);
    }
}
