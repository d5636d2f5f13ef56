//! Prior-driven solver guarantees across the system: the block prior must
//! hold PRD against the plain warm solve at fewer iterations.
//!
//! CI runs this suite in release (`solver-priors` job): iteration counts
//! are what the real-time budget pays for, and release codegen is what
//! ships.

use cs_ecg_monitor::prelude::*;
use std::sync::Arc;

/// Streams `samples` through one decoder per policy (all warm-started)
/// and returns `(mean iterations, PRD %)` per policy, PRD taken over
/// every window jointly.
fn decode_with_policies(
    config: &SystemConfig,
    samples: &[i16],
    policies: &[SolverPolicy<f64>],
) -> Vec<(f64, f64)> {
    let n = config.packet_len();
    let codebook = Arc::new(uniform_codebook(config.alphabet()).unwrap());
    let mut encoder = Encoder::new(config, Arc::clone(&codebook)).unwrap();
    let mut decoders: Vec<Decoder<f64>> = policies
        .iter()
        .map(|&p| {
            let mut d = Decoder::new(config, Arc::clone(&codebook), p).unwrap();
            d.set_warm_start(true);
            d
        })
        .collect();
    let mut totals = vec![(0usize, 0u64, 0.0f64, 0.0f64); policies.len()];
    for window in samples.chunks_exact(n) {
        let wire = encoder.encode_packet(window).unwrap();
        for (slot, dec) in decoders.iter_mut().enumerate() {
            let out = dec.decode_packet(&wire).unwrap();
            let t = &mut totals[slot];
            t.0 += out.iterations;
            t.1 += 1;
            for (&x, &xh) in window.iter().zip(&out.samples) {
                let x = x as f64;
                t.2 += (x - xh) * (x - xh);
                t.3 += x * x;
            }
        }
    }
    totals
        .into_iter()
        .map(|(it, count, err, energy)| {
            (it as f64 / count.max(1) as f64, 100.0 * (err / energy).sqrt())
        })
        .collect()
}

/// Mote-ready samples for one corpus record's first lead.
fn prepare(record: &Record) -> Vec<i16> {
    let at_256 = resample_360_to_256(&record.signal_mv(0));
    let adc = record.adc();
    at_256.iter().map(|&v| adc.to_signed(adc.quantize(v))).collect()
}

/// The block-sparse wavelet-tree prior must hold quality on the
/// default geometry while solving in fewer iterations than the warm
/// baseline (group shrinkage prunes whole off-support blocks at once).
#[test]
fn block_prior_holds_quality_at_fewer_iterations() {
    let db = SyntheticDatabase::new(DatabaseConfig {
        num_records: 1,
        duration_s: 16.0,
        ..DatabaseConfig::default()
    });
    let samples = prepare(&db.record(0));
    let config = SystemConfig::paper_default();
    let results = decode_with_policies(
        &config,
        &samples,
        &[SolverPolicy::default(), SolverPolicy::block_prior()],
    );
    let (warm_it, warm_prd) = results[0];
    let (block_it, block_prd) = results[1];
    assert!(
        block_it < warm_it,
        "block mean iterations {block_it:.1} not below warm {warm_it:.1}"
    );
    assert!(
        block_prd <= warm_prd + 0.5,
        "block PRD {block_prd:.2} % vs warm {warm_prd:.2} %"
    );
}
