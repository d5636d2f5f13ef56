//! Fleet monitoring: several two-lead patients decoded concurrently by
//! the worker-pool engine — the ward-server generalization of the
//! paper's one-patient iPhone demo.
//!
//! Reports per-patient quality, per-worker load, the shared spectral
//! cache and patient health. The run decodes against a live telemetry
//! registry, which keeps the solve and latency distributions; the
//! callback keeps only the PRD against the input leads. `cs-ingestd`
//! serves such a registry on `/metrics`.
//! Exits non-zero if any stream comes up short of its expected packets
//! (a decode error upstream).
//!
//! ```text
//! cargo run --release --example fleet_monitor
//! ```

use cs_ecg_monitor::prelude::*;
use std::sync::Arc;

fn prepare(record: &Record) -> Vec<i16> {
    let at256 = resample_360_to_256(&record.signal_mv(0));
    let adc = record.adc();
    at256.iter().map(|&v| adc.to_signed(adc.quantize(v))).collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let patients = 4;
    let db = SyntheticDatabase::new(DatabaseConfig {
        num_records: patients,
        duration_s: 16.0,
        ..DatabaseConfig::default()
    });
    let config = SystemConfig::paper_default();
    let n = config.packet_len();

    let first = prepare(&db.record(0));
    let training = packetize(&first, n).take(5).map(|p| p.to_vec());
    let codebook = Arc::new(train_codebook(&config, training)?);

    // Two leads per patient: the synthetic corpus is single-channel, so
    // lead II stands in for both (decode cost is what matters here).
    let leads: Vec<Vec<i16>> = (0..patients).map(|i| prepare(&db.record(i))).collect();
    let streams: Vec<FleetStream<'_>> = leads
        .iter()
        .map(|l| FleetStream { leads: vec![l, l] })
        .collect();

    // Every packet records into this live registry; the solve quantiles
    // and patient health below read it.
    let registry = TelemetryRegistry::new();
    let mut worst_prd = vec![0.0_f64; patients];
    let report = run_fleet::<f32, _>(
        &config,
        Arc::clone(&codebook),
        FleetSource::Leads(&streams),
        SolverPolicy::default(),
        &FleetConfig::default(),
        &registry,
        None,
        |p| {
            let frame = p.packet.index as usize;
            let truth: Vec<f64> = leads[p.stream][frame * n..(frame + 1) * n]
                .iter()
                .map(|&v| v as f64)
                .collect();
            let recon: Vec<f64> = p.packet.samples.iter().map(|&v| v as f64).collect();
            // `try_prd`: a silent window (zero signal energy) reports
            // no quality figure instead of aborting the monitor.
            if let Some(prd) = try_prd(&truth, &recon) {
                worst_prd[p.stream] = worst_prd[p.stream].max(prd);
            }
        },
    )?;

    // Each patient stream is two leads of `frames` packets; anything
    // less means a packet was lost to a decode error.
    let frames = leads[0].len() / n;
    let short_streams: Vec<(usize, usize)> = report
        .stream_packets
        .iter()
        .enumerate()
        .filter(|&(_, &packets)| packets < 2 * frames)
        .map(|(i, &packets)| (i, packets))
        .collect();

    println!("== {} patients × 2 leads on {} workers ==", patients, report.workers);
    for (i, packets) in report.stream_packets.iter().enumerate() {
        println!(
            "patient {i}: {packets:3} packets, worst PRD {:5.1} % ({})",
            worst_prd[i],
            DiagnosticQuality::from_prd(worst_prd[i]),
        );
    }
    println!(
        "worker packets {:?}, {} backpressure stalls, spectral cache {} miss / {} hits",
        report.worker_packets, report.backpressure_stalls, report.spectral_misses, report.spectral_hits,
    );
    let solves = registry.stage(Stage::FistaSolve).snapshot();
    println!(
        "decoded {} packets in {:.2?} (solve p50 {:.2} ms, p99 {:.2} ms)",
        report.packets_decoded,
        report.wall_time,
        solves.quantile(0.50) as f64 / 1e6,
        solves.quantile(0.99) as f64 / 1e6,
    );
    let slo = registry.slo_snapshot();
    println!(
        "patient health: {} healthy, {} degraded, {} stalled ({} tracked)",
        slo.count_in(HealthState::Healthy),
        slo.count_in(HealthState::Degraded),
        slo.count_in(HealthState::Stalled),
        slo.patients.len()
    );

    if !short_streams.is_empty() {
        for (stream, got) in &short_streams {
            eprintln!("decode errors: stream {stream} delivered {got} of {} packets", 2 * frames);
        }
        std::process::exit(1);
    }
    Ok(())
}
