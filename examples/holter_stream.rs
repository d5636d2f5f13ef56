//! Holter-style continuous monitoring: stream several records through the
//! paper's coordinator — the caller encodes, one worker decodes, a
//! 3-packet buffer between them (the iPhone app's structure) — and
//! report real-time behaviour plus platform-model numbers — an end-to-end
//! analogue of the paper's Fig. 8 demo.
//!
//! ```text
//! cargo run --release --example holter_stream
//! ```

use cs_ecg_monitor::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = SyntheticDatabase::new(DatabaseConfig {
        num_records: 3,
        duration_s: 30.0,
        ..DatabaseConfig::default()
    });
    let config = SystemConfig::paper_default();

    // Train the codebook once, offline, on the first record.
    let first = prepare(&db.record(0));
    let training = packetize(&first, config.packet_len()).take(5).map(|p| p.to_vec());
    let codebook = Arc::new(train_codebook(&config, training)?);

    let mote = MoteSpec::msp430f1611();
    let coordinator = CoordinatorSpec::iphone_3gs();

    for idx in 0..db.len() {
        let record = db.record(idx);
        let samples = prepare(&record);
        let mut solves = Vec::new();
        let report = run_fleet::<f32, _>(
            &config,
            Arc::clone(&codebook),
            FleetSource::Leads(&[FleetStream::single(&samples)]),
            SolverPolicy::default(),
            &FleetConfig { workers: 1, ..FleetConfig::default() },
            &TelemetryRegistry::disabled(),
            None,
            |decoded| {
                solves.push(cs_ecg_monitor::platform::SolveSample {
                    iterations: decoded.packet.iterations,
                    solve_time: decoded.packet.solve_time,
                });
            },
        )?;
        // The paper's definition of real-time operation: every packet
        // decoded within one packet period.
        let worst = solves.iter().map(|s| s.solve_time).max().unwrap_or_default();
        let real_time = worst <= coordinator.packet_period;
        let rt = analyze_solves(&coordinator, &solves);
        println!(
            "record {}: {} packets, real-time = {}, worst packet {:.1} % of budget, \
             coordinator CPU {:.1} % (model)",
            record.id(),
            report.packets_decoded,
            real_time,
            rt.worst_case_fraction_of_budget * 100.0,
            rt.cpu_usage_percent
        );
    }

    // Node-side summary for one representative packet.
    let mut encoder = Encoder::new(&config, Arc::clone(&codebook))?;
    let samples = prepare(&db.record(0));
    let _ = encoder.encode_packet(&samples[..config.packet_len()])?;
    let wire = encoder.encode_packet(&samples[config.packet_len()..2 * config.packet_len()])?;
    let cost = encode_cost(&mote, &config, &wire);
    println!(
        "\nnode (MSP430 model): {:.1} ms per 2-s packet → {:.2} % CPU (paper: < 5 %)",
        cost.time_on(&mote).as_secs_f64() * 1e3,
        cost.cpu_utilization(&mote, Duration::from_secs(2)) * 100.0
    );
    println!("{}", encoder_footprint(&config, &codebook).to_table());
    Ok(())
}

/// 360 Hz record → 256 Hz signed counts (the mote's serial input).
fn prepare(record: &Record) -> Vec<i16> {
    let at_256 = resample_360_to_256(&record.signal_mv(0));
    let adc = record.adc();
    at_256.iter().map(|&v| adc.to_signed(adc.quantize(v))).collect()
}
