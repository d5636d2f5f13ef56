//! Telemetry overhead budget: the observed pipeline (live registry,
//! spans on every stage, solve traces journaled, and the end-to-end
//! trace path — capture stamp plus per-emission SLO accounting) must
//! cost < 2 % of throughput against the same pipeline with the
//! disabled registry.
//!
//! The two arms run interleaved (disabled, enabled, disabled, ...) so
//! slow drift on the host hits both equally, and the verdict compares
//! the **minimum** round of each arm, because on small shared hosts
//! median and mean absorb scheduler steal that dwarfs a 2 % effect.
//! Exits non-zero over budget, but nothing runs it (`scripts/tier1.sh`
//! only lints it): the budget row is pipebench's
//! `telemetry.overhead_share`.
//!
//! ```text
//! cargo bench -p cs-bench --bench telemetry_overhead
//! ```

use cs_core::{
    run_fleet, uniform_codebook, FleetConfig, FleetSource, FleetStream, SolverPolicy, SystemConfig,
};
use cs_telemetry::TelemetryRegistry;
use std::sync::Arc;
use std::time::Instant;

const N: usize = 512;
const FRAMES: usize = 8;
const ROUNDS: usize = 9;
const ITERS_PER_ROUND: usize = 2;
const BUDGET_PERCENT: f64 = 2.0;

fn ecg_like() -> Vec<i16> {
    (0..FRAMES * N)
        .map(|i| {
            let t = (i % N) as f64 / N as f64;
            (700.0 * (-((t - 0.4) * 25.0).powi(2)).exp() + 50.0 * (t * 10.0).sin()) as i16
        })
        .collect()
}

/// Runs the paper's coordinator (one stream, one worker) `ITERS_PER_ROUND`
/// times against the given registry and returns the wall time in seconds.
/// With a live registry the engine itself stamps each frame's arrival and
/// feeds every emission to the SLO/e2e accounting.
fn round(
    config: &SystemConfig,
    codebook: &Arc<cs_codec::Codebook>,
    samples: &[i16],
    telemetry: &TelemetryRegistry,
) -> f64 {
    let started = Instant::now();
    for _ in 0..ITERS_PER_ROUND {
        run_fleet::<f32, _>(
            config,
            Arc::clone(codebook),
            FleetSource::Leads(&[FleetStream::single(samples)]),
            SolverPolicy::default(),
            &FleetConfig { workers: 1, ..FleetConfig::default() },
            telemetry,
            None,
            |_| {},
        )
        .expect("coordinator run");
    }
    started.elapsed().as_secs_f64()
}

fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn main() {
    let config = SystemConfig::paper_default();
    let codebook = Arc::new(uniform_codebook(config.alphabet()).expect("codebook"));
    let samples = ecg_like();
    let off = TelemetryRegistry::disabled();
    let on = TelemetryRegistry::new();

    // Warm up caches and the allocator on both arms.
    round(&config, &codebook, &samples, &off);
    round(&config, &codebook, &samples, &on);

    let mut t_off = Vec::with_capacity(ROUNDS);
    let mut t_on = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        t_off.push(round(&config, &codebook, &samples, &off));
        t_on.push(round(&config, &codebook, &samples, &on));
    }

    let packets = (FRAMES * ITERS_PER_ROUND) as f64;
    let off_min = fastest(&t_off);
    let on_min = fastest(&t_on);
    let overhead = (on_min - off_min) / off_min * 100.0;
    let snapshot = on.snapshot();
    let observed: u64 = snapshot.stages.iter().map(|(_, h)| h.count()).sum();

    println!("# telemetry_overhead — observed pipeline vs disabled registry");
    println!(
        "disabled registry : {:>8.2} packets/s  (fastest of {ROUNDS} rounds)",
        packets / off_min
    );
    println!(
        "live registry     : {:>8.2} packets/s  ({observed} span records, {} solve traces, {} emissions)",
        packets / on_min,
        snapshot.journal_pushed,
        snapshot.slo.patients.iter().map(|p| p.emits).sum::<u64>()
    );
    println!("overhead          : {overhead:>8.2} %  (budget {BUDGET_PERCENT} %)");

    if overhead > BUDGET_PERCENT {
        eprintln!("FAIL: telemetry overhead {overhead:.2} % exceeds {BUDGET_PERCENT} % budget");
        std::process::exit(1);
    }
    println!("verdict           : within budget");
}
