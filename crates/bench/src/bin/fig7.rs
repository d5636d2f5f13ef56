//! Reproduces **Fig. 7**: average FISTA iteration count and average
//! execution time per 2-second packet, as functions of compression ratio.
//!
//! The paper plots both on the iPhone over CR 30–70: iterations in the
//! 600–900 band and times in the 0.34–0.46 s band, both *decreasing* as
//! CR rises (fewer measurements → cheaper, easier-to-saturate problems).
//! Absolute times here are host times, not Cortex-A8 times — the shape
//! and the iteration counts are the reproduction targets.
//!
//! Those series run `SolverPolicy::paper()`, the verbatim schedule. Below
//! them the binary prints the same two axes at CR 30–80 for what the
//! service runs — the production policy: the receiver's cost per packet
//! at each CR.
//!
//! ```text
//! cargo run --release -p cs-bench --bin fig7 [--full] [--records N] [--seconds S]
//! ```

use cs_bench::{banner, host, Corpus, RunSettings};
use cs_core::{train_and_evaluate, SolverPolicy, StopRule, SystemConfig};
use cs_metrics::{Summary, SweepSeries};
use cs_recovery::KernelMode;

/// Decodes the corpus at each CR under `policy`; returns the per-packet
/// iteration series and the solver-time series in `time_unit`s of a
/// second (1 = seconds, 1e3 = milliseconds).
fn sweep(
    corpus: &Corpus,
    policy: SolverPolicy<f32>,
    crs: &[f64],
    names: [&str; 2],
    time_unit: f64,
) -> (SweepSeries, SweepSeries) {
    let mut iter_series = SweepSeries::new(names[0]);
    let mut time_series = SweepSeries::new(names[1]);
    for &cr in crs {
        let config = SystemConfig::builder()
            .compression_ratio(cr)
            .build()
            .expect("valid config");
        let mut iters = Summary::new();
        let mut times = Summary::new();
        for record in &corpus.records {
            let report = train_and_evaluate::<f32>(&config, &record.samples, 4, policy)
                .expect("pipeline runs");
            for p in &report.packets {
                iters.push(p.iterations as f64);
                times.push(p.solve_time.as_secs_f64() * time_unit);
            }
        }
        iter_series.push(cr, iters);
        time_series.push(cr, times);
        eprintln!(
            "CR {cr:>4.0}%  iterations {:>7.1}   time {:>9.6}",
            iters.mean(),
            times.mean()
        );
    }
    (iter_series, time_series)
}

/// [`SweepSeries::to_table`] for a solver-time series: the same rows with
/// the four host-measured statistics marked as such.
fn print_host_series(series: &SweepSeries) {
    println!("# {}", series.name());
    println!("#      x        mean         std         min         max    n");
    for p in series.points() {
        let s = &p.summary;
        let stats = format!(
            "{:10.4} {:11.4} {:11.4} {:11.4}",
            s.mean(),
            s.std_dev(),
            s.min(),
            s.max()
        );
        println!("{:8.2} {} {:3}", p.x, host(stats), s.count());
    }
    println!();
}

fn main() {
    let settings = RunSettings::from_args();
    banner("fig7", "Fig. 7 (iterations and time vs CR)", &settings);
    let corpus = settings.corpus();

    // Match the paper's decoder: f32, optimized kernels, the verbatim
    // constant-step schedule and the Eq. (2) stopping rule — iterate until
    // ‖ΦΨα − y‖₂ ≤ σ — under the 2000-iteration real-time cap. With a
    // residual target, fewer measurements are easier to fit, which is why
    // the paper's iteration count *falls* as CR rises. (On the production
    // schedule this rule stops where the λ-ramp ends, 52 iterations at
    // every CR, and the trend the figure is about disappears.)
    let policy = SolverPolicy::<f32> {
        tolerance: StopRule::RelativeStep(0.0),
        residual_tolerance: 0.01,
        max_iterations: 2000,
        kernel: KernelMode::Unrolled4,
        lambda_relative: 5e-4,
        ..SolverPolicy::paper()
    };
    let (iter_series, time_series) = sweep(
        &corpus,
        policy,
        &[30.0, 40.0, 50.0, 60.0, 70.0],
        [
            "FISTA iterations per 2-s packet",
            "solver time per 2-s packet (seconds, host)",
        ],
        1.0,
    );
    println!("{}", iter_series.to_table());
    print_host_series(&time_series);

    let first = iter_series.points().first().expect("nonempty").summary.mean();
    let last = iter_series.points().last().expect("nonempty").summary.mean();
    println!(
        "# iterations trend CR 30 → 70: {first:.0} → {last:.0} (paper: ~900 → ~620, decreasing)"
    );

    // The same axes for what the service actually runs: the production
    // policy (adaptive schedule, relative-step rule at 5·10⁻⁵), whose cost
    // *rises* with CR — fewer measurements make Eq. (3) flatter.
    let (iters, ms) = sweep(
        &corpus,
        SolverPolicy::default(),
        &[30.0, 40.0, 50.0, 60.0, 70.0, 80.0],
        [
            "production policy: FISTA iterations per 2-s packet",
            "production policy: solver time per 2-s packet (ms, host)",
        ],
        1e3,
    );
    println!();
    println!("{}", iters.to_table());
    print_host_series(&ms);
}
