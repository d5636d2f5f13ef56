//! Prior-driven solver guarantees across the system: the support-weighted
//! FISTA path must hold equal-or-better PRD across the paper's CR sweep at
//! no more iterations than the plain warm solve, the block prior must hold
//! quality at fewer, and the support prior must degrade gracefully —
//! bounded, not catastrophic — when the beat morphology changes mid-stream
//! (its support estimate goes stale for exactly one window).
//!
//! With every solve on the same adaptive schedule the support prior and
//! the plain warm solve run neck and neck on iterations (75.7 vs 78.8 at
//! CR 50 %) — the ≥ 20 % win once pinned here was the gradient restart
//! that only the prior modes switched on — so the prior is held to its
//! PRD and to not costing iterations.
//!
//! CI runs this suite in release (`solver-priors` job): iteration counts
//! are what the real-time budget pays for, and the release-codegen
//! numbers are the ones BENCH_decode.json commits to.

use cs_ecg_monitor::ecg::{BeatType, EcgModel, EcgModelConfig};
use cs_ecg_monitor::prelude::*;
use cs_ecg_monitor::system::PriorMode;
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

/// Swept over the paper's operating range: CR 50 % (m = 256), 62.5 %
/// (m = 192), 75 % (m = 128) at n = 512. At every point the
/// support-weighted prior must not give up reconstruction quality
/// (≤ +0.5 pp PRD; in practice it *improves* PRD, since the reduced
/// shrinkage on the true support deblurs the estimate) and must not solve
/// slower than the plain warm baseline (≤ 1.05 × its mean iterations).
#[test]
fn weighted_prior_holds_quality_at_no_more_iterations_across_the_cr_sweep() {
    let db = SyntheticDatabase::new(DatabaseConfig {
        num_records: 1,
        duration_s: 20.0,
        ..DatabaseConfig::default()
    });
    let samples = prepare(&db.record(0));

    for cr in [50.0, 62.5, 75.0] {
        let config = SystemConfig::builder().compression_ratio(cr).build().unwrap();
        let results = decode_with_policies(
            &config,
            &samples,
            &[SolverPolicy::default(), SolverPolicy::support_prior()],
        );
        let (warm_it, warm_prd) = results[0];
        let (weighted_it, weighted_prd) = results[1];
        assert!(
            weighted_it <= 1.05 * warm_it,
            "CR {cr}: weighted mean iterations {weighted_it:.1} > 105 % of warm {warm_it:.1}"
        );
        assert!(
            weighted_prd <= warm_prd + 0.5,
            "CR {cr}: weighted PRD {weighted_prd:.2} % vs warm {warm_prd:.2} %"
        );
    }
}

/// The block-sparse wavelet-tree prior must also hold quality on the
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

/// Seeded chaos: the beat morphology changes mid-stream — 10 s of clean
/// sinus rhythm, then 10 s riddled with PVCs (wide, high-amplitude
/// ectopic QRS, verified present via the synthesizer's own beat
/// annotations as ground truth). The support prior estimated on the
/// last sinus window is *wrong* for the first arrhythmic window; the
/// weight floor and the adaptive restart must bound the damage: on
/// every window of the transition region the weighted PRD may exceed
/// the unweighted warm PRD by at most 1 pp, and over the whole record
/// the weighted path must not solve slower than the plain one.
#[test]
fn support_prior_survives_arrhythmic_morphology_change() {
    let n = 512;
    let sinus = EcgModelConfig::default();
    let mut arrhythmic = EcgModelConfig::default();
    arrhythmic.rhythm.pvc_probability = 0.45;

    let (clean, clean_beats) = EcgModel::new(sinus, 0xC5EC).synthesize(10.0);
    let (ectopic, ectopic_beats) = EcgModel::new(arrhythmic, 0xC5ED).synthesize(10.0);
    assert!(
        clean_beats.iter().all(|b| b.beat == BeatType::Normal),
        "sinus segment must be PVC-free"
    );
    let pvcs = ectopic_beats.iter().filter(|b| b.beat == BeatType::Pvc).count();
    assert!(pvcs >= 3, "arrhythmic segment only synthesized {pvcs} PVCs");

    // Concatenate at 360 Hz, resample to the mote rate, quantize.
    let mut signal = clean;
    let boundary_360 = signal.len();
    signal.extend_from_slice(&ectopic);
    let at_256 = resample_360_to_256(&signal);
    let boundary_window = (boundary_360 * 256).div_ceil(360 * n);
    let samples: Vec<i16> = at_256.iter().map(|&v| (v * 400.0) as i16).collect();

    let config = SystemConfig::paper_default();
    let codebook = Arc::new(uniform_codebook(config.alphabet()).unwrap());
    let mut encoder = Encoder::new(&config, Arc::clone(&codebook)).unwrap();
    let mut warm: Decoder<f64> =
        Decoder::new(&config, Arc::clone(&codebook), SolverPolicy::default()).unwrap();
    let mut weighted: Decoder<f64> =
        Decoder::new(&config, codebook, SolverPolicy::support_prior()).unwrap();
    warm.set_warm_start(true);
    weighted.set_warm_start(true);
    assert_eq!(weighted.policy().prior, PriorMode::Support);

    let mut warm_iters = 0usize;
    let mut weighted_iters = 0usize;
    for (w, window) in samples.chunks_exact(n).enumerate() {
        let wire = encoder.encode_packet(window).unwrap();
        let a = warm.decode_packet(&wire).unwrap();
        let b = weighted.decode_packet(&wire).unwrap();
        warm_iters += a.iterations;
        weighted_iters += b.iterations;
        let energy: f64 = window.iter().map(|&x| (x as f64) * (x as f64)).sum();
        let prd = |out: &[f64]| {
            let err: f64 = window
                .iter()
                .zip(out)
                .map(|(&x, &xh)| (x as f64 - xh) * (x as f64 - xh))
                .sum();
            100.0 * (err / energy).sqrt()
        };
        let (warm_prd, weighted_prd) = (prd(&a.samples), prd(&b.samples));
        // The bound matters most on the transition region, where the
        // prior is stale — but a stale support must never blow up
        // reconstruction anywhere.
        let slack = if w >= boundary_window.saturating_sub(1) && w <= boundary_window + 1 {
            1.0
        } else {
            0.5
        };
        assert!(
            weighted_prd <= warm_prd + slack,
            "window {w} (transition at {boundary_window}): weighted PRD {weighted_prd:.2} % \
             vs warm {warm_prd:.2} % (slack {slack} pp)"
        );
    }
    assert!(
        weighted_iters as f64 <= 1.05 * warm_iters as f64,
        "weighted {weighted_iters} iterations vs warm {warm_iters} across the chaos record"
    );
}
