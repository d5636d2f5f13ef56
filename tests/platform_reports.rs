//! Integration of the platform models with real pipeline output: the
//! paper's §IV/§V hardware claims checked end-to-end against measured
//! encoder output and solver statistics.

use cs_ecg_monitor::platform::SolveSample;
use cs_ecg_monitor::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn prepared_stream(seconds: f64) -> Vec<i16> {
    let db = SyntheticDatabase::new(DatabaseConfig {
        num_records: 1,
        duration_s: seconds,
        ..DatabaseConfig::default()
    });
    let record = db.record(0);
    let at_256 = resample_360_to_256(&record.signal_mv(0));
    let adc = record.adc();
    at_256
        .iter()
        .map(|&v| adc.to_signed(adc.quantize(v)))
        .collect()
}

#[test]
fn node_stays_under_five_percent_cpu_on_real_packets() {
    let samples = prepared_stream(16.0);
    let config = SystemConfig::paper_default();
    let training = packetize(&samples, 512).take(2).map(|p| p.to_vec());
    let codebook = Arc::new(train_codebook(&config, training).unwrap());
    let mut encoder = Encoder::new(&config, codebook).unwrap();
    let mote = MoteSpec::msp430f1611();
    for packet in packetize(&samples, 512) {
        let wire = encoder.encode_packet(packet).unwrap();
        let cost = encode_cost(&mote, &config, &wire);
        let util = cost.cpu_utilization(&mote, Duration::from_secs(2));
        assert!(util < 0.05, "packet {} at {util}", wire.index);
    }
}

#[test]
fn coordinator_report_from_real_solves() {
    let samples = prepared_stream(16.0);
    let config = SystemConfig::paper_default();
    let training = packetize(&samples, 512).take(2).map(|p| p.to_vec());
    let codebook = Arc::new(train_codebook(&config, training).unwrap());
    let mut encoder = Encoder::new(&config, Arc::clone(&codebook)).unwrap();
    let mut decoder: Decoder<f32> =
        Decoder::new(&config, codebook, SolverPolicy::default()).unwrap();

    let mut solves = Vec::new();
    for packet in packetize(&samples, 512) {
        let wire = encoder.encode_packet(packet).unwrap();
        let decoded = decoder.decode_packet(&wire).unwrap();
        solves.push(SolveSample {
            iterations: decoded.iterations,
            solve_time: decoded.solve_time,
        });
    }
    let report = analyze_solves(&CoordinatorSpec::iphone_3gs(), &solves);
    // This host is far faster than an iPhone 3GS: real-time must hold and
    // the in-budget iteration count must dwarf the paper's 2000.
    assert!(report.real_time);
    // A wall-clock quantity: an unoptimised iteration takes ~0.5 ms, which
    // puts a debug build on the threshold itself. `scripts/tier1.sh` runs
    // this file in release, where the clause means something.
    if !cfg!(debug_assertions) {
        assert!(report.max_iterations_in_budget > 2000);
    }
    assert!(report.cpu_usage_percent < 60.0);
}

#[test]
fn lifetime_extension_positive_at_cr50_with_measured_payloads() {
    let samples = prepared_stream(24.0);
    let config = SystemConfig::paper_default();
    let training = packetize(&samples, 512).take(3).map(|p| p.to_vec());
    let codebook = Arc::new(train_codebook(&config, training).unwrap());
    let mut encoder = Encoder::new(&config, codebook).unwrap();
    let mote = MoteSpec::msp430f1611();
    let period = Duration::from_secs(2);

    let mut bits = 0.0;
    let mut util = 0.0;
    let mut count = 0.0;
    for packet in packetize(&samples, 512) {
        let wire = encoder.encode_packet(packet).unwrap();
        bits += wire.framed_bytes() as f64 * 8.0;
        util += encode_cost(&mote, &config, &wire).cpu_utilization(&mote, period);
        count += 1.0;
    }
    let model = EnergyModel::shimmer();
    let cmp = compare_lifetime(&model, 512.0 * 16.0, bits / count, util / count, period);
    assert!(
        cmp.extension_percent > 5.0,
        "extension {}%",
        cmp.extension_percent
    );
    assert!(
        cmp.extension_percent < 25.0,
        "extension {}% suspiciously large",
        cmp.extension_percent
    );
}

#[test]
fn footprint_fits_hardware_for_all_valid_crs() {
    let codebook = uniform_codebook(512).unwrap();
    let spec = MoteSpec::msp430f1611();
    for cr in [30.0, 50.0, 70.0, 90.0] {
        let config = SystemConfig::builder().compression_ratio(cr).build().unwrap();
        let report = encoder_footprint(&config, &codebook);
        assert!(report.fits(&spec), "CR {cr}: {}", report.to_table());
    }
}
