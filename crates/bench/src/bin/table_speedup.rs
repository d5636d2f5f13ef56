//! Reproduces the **§V optimization result**: the low-level-optimized
//! decoder runs 2.43× faster at CR 50, which raises the real-time
//! iteration budget from 800 to 2000.
//!
//! Three decoder variants are timed on identical packets:
//!
//! 1. **dense + scalar kernels** — the unoptimized baseline (explicit
//!    `M×N` operator, branchy loops, no unrolling);
//! 2. **dense + unrolled kernels** — the paper's NEON-style optimization
//!    of the same dense code;
//! 3. **matrix-free** — the paper's contribution (1): `Φ·Ψᵀ` applied as
//!    sparse gather + filter bank, no dense matrix at all.
//!
//! ```text
//! cargo run --release -p cs-bench --bin table_speedup [--full]
//! ```

use cs_bench::{banner, host, RunSettings};
use cs_dsp::wavelet::{Dwt, Wavelet};
use cs_recovery::{
    fista, lambda_max, DenseOperator, KernelMode, LinearOperator, ShrinkageConfig,
    SynthesisOperator,
};
use cs_platform::{analyze_solves, iteration_budget_ratio, CoordinatorSpec, SolveSample};
use cs_sensing::{measurements_for_cr, Sensing, SparseBinarySensing};

const PACKET: usize = 512;
const ITERATIONS: usize = 200; // fixed budget so times are comparable

fn main() {
    let settings = RunSettings::from_args();
    banner("table_speedup", "§V (2.43× optimized decoder, 800 → 2000 iterations)", &settings);
    let corpus = settings.corpus();

    let m = measurements_for_cr(PACKET, 50.0);
    let phi = SparseBinarySensing::new(m, PACKET, 12, 0xBE9C).expect("valid Φ");
    let wavelet = Wavelet::daubechies(4).expect("db4");
    let dwt: Dwt<f32> = Dwt::new(&wavelet, PACKET, 5).expect("plan");
    let matrix_free = SynthesisOperator::new(&phi, &dwt);
    let dense_scalar = DenseOperator::materialize(&matrix_free, KernelMode::Scalar);
    let dense_unrolled = DenseOperator::materialize(&matrix_free, KernelMode::Unrolled4);

    let packets: Vec<&[i16]> = corpus
        .records
        .iter()
        .flat_map(|r| r.samples.chunks_exact(PACKET))
        .take(24)
        .collect();

    let solve = |op: &dyn LinearOperator<f32>, kernel: KernelMode| -> Vec<SolveSample> {
        packets
            .iter()
            .map(|p| {
                let x: Vec<f32> = p.iter().map(|&v| v as f32).collect();
                let y: Vec<f32> = phi.apply(x.as_slice());
                let config = ShrinkageConfig {
                    lambda: 0.01 * lambda_max(&op, &y),
                    max_iterations: ITERATIONS,
                    tolerance: 0.0, // fixed budget
                    residual_tolerance: 0.0,
                    kernel,
                    record_objective: false,
                };
                let r = fista(&op, &y, &config, None);
                SolveSample {
                    iterations: r.iterations,
                    solve_time: r.elapsed,
                }
            })
            .collect()
    };

    let spec = CoordinatorSpec::iphone_3gs();
    let runs = [
        ("dense + scalar (baseline)", solve(&dense_scalar, KernelMode::Scalar)),
        ("dense + unrolled (optimized)", solve(&dense_unrolled, KernelMode::Unrolled4)),
        ("matrix-free ΦΨᵀ (contribution 1)", solve(&matrix_free, KernelMode::Unrolled4)),
    ];

    println!(
        "{:<34} {:>12} {:>12} {:>10}",
        "decoder variant", "ms/packet", "µs/iter", "iter budget"
    );
    let reports: Vec<_> = runs
        .iter()
        .map(|(name, samples)| {
            let report = analyze_solves(&spec, samples);
            let mean_ms = samples
                .iter()
                .map(|s| s.solve_time.as_secs_f64())
                .sum::<f64>()
                / samples.len() as f64
                * 1e3;
            println!(
                "{:<34} {:>12} {:>12} {:>10}",
                name,
                host(format!("{mean_ms:.3}")),
                host(format!("{:.3}", report.per_iteration.as_secs_f64() * 1e6)),
                host(report.max_iterations_in_budget)
            );
            report
        })
        .collect();

    let opt_speedup = reports[0].per_iteration.as_secs_f64() / reports[1].per_iteration.as_secs_f64();
    let mf_speedup = reports[0].per_iteration.as_secs_f64() / reports[2].per_iteration.as_secs_f64();
    println!();
    println!(
        "kernel-optimization speedup (dense): {}× (paper: 2.43× at CR 50)",
        host(format!("{opt_speedup:.2}"))
    );
    println!("matrix-free speedup over baseline  : {}×", host(format!("{mf_speedup:.2}")));
    println!(
        "iteration-budget ratio               : {}× (paper: 2000/800 = 2.5×)",
        host(format!("{:.2}", iteration_budget_ratio(&reports[1], &reports[0])))
    );
}
