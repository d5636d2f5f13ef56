//! Diagnostic-quality gate on an arrhythmic record: does compression
//! preserve the beats a downstream detector needs?
//!
//! A PVC-heavy record is compressed at several CRs; the *streaming* QRS
//! detector ([`StreamingQrsDetector`]) consumes each reconstructed
//! window as it comes off the decoder — exactly the deployment shape of
//! the clinical subsystem, no whole-record buffering — and its
//! detections are scored against the synthesizer's ground-truth
//! annotations. This is the clinical-relevance angle of the paper's
//! intro: compression is only useful if the diagnosis survives.
//!
//! The ≥ 95 % sensitivity and precision bound on this record at the
//! diagnostic CRs is asserted by `tests/system_sim.rs`, through the wire.
//!
//! ```text
//! cargo run --release --example arrhythmia_monitor
//! ```

use cs_ecg_monitor::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A record with forced heavy ectopy.
    let mut model_cfg = EcgModelConfig::default();
    model_cfg.rhythm.pvc_probability = 0.15;
    model_cfg.rhythm.mean_heart_rate_bpm = 80.0;
    let mut model = EcgModel::new(model_cfg, 2024);
    let (mv_360, beats) = model.synthesize(40.0);
    let pvcs = beats.iter().filter(|b| b.beat == BeatType::Pvc).count();
    println!(
        "synthesized 40 s with {} beats ({} PVCs) at 360 Hz",
        beats.len(),
        pvcs
    );

    // To 256 Hz signed counts; rescale annotation positions too.
    let at_256 = resample_360_to_256(&mv_360);
    let adc = AdcModel::mit_bih();
    let samples: Vec<i16> = at_256.iter().map(|&v| adc.to_signed(adc.quantize(v))).collect();
    let truth: Vec<cs_ecg_monitor::ecg::BeatAnnotation> = beats
        .iter()
        .map(|b| cs_ecg_monitor::ecg::BeatAnnotation {
            sample: b.sample * 256 / 360,
            beat: b.beat,
        })
        .filter(|b| b.sample < samples.len())
        .collect();

    println!(
        "\n{:>5} {:>8} {:>8} {:>12} {:>12} {:>12}",
        "CR %", "PRD %", "SNR dB", "detected", "sensitivity", "precision"
    );
    for cr in [30.0, 50.0, 70.0, 85.0] {
        let config = SystemConfig::builder().compression_ratio(cr).build()?;
        let report = train_and_evaluate::<f64>(&config, &samples, 3, SolverPolicy::default())?;

        // Stream the decode: each reconstructed window is pushed into
        // the incremental detector the moment it exists.
        let detected = stream_and_detect(&config, &samples)?;
        let (sens, prec) = score_detections(&truth, &detected, 13); // ±50 ms

        println!(
            "{:>5.0} {:>8.2} {:>8.2} {:>12} {:>12.1} {:>12.1}",
            cr,
            report.prd.mean(),
            report.snr_db.mean(),
            detected.len(),
            sens * 100.0,
            prec * 100.0
        );
    }
    println!("\n(sensitivity/precision vs ground-truth R peaks, ±50 ms window)");
    Ok(())
}

/// Round-trips the stream window by window, feeding each reconstructed
/// packet straight into the streaming detector. Returns absolute-sample
/// detection positions.
fn stream_and_detect(
    config: &SystemConfig,
    samples: &[i16],
) -> Result<Vec<usize>, Box<dyn std::error::Error>> {
    use std::sync::Arc;
    let training = packetize(samples, config.packet_len()).take(3).map(|p| p.to_vec());
    let codebook = Arc::new(train_codebook(config, training)?);
    let mut encoder = Encoder::new(config, Arc::clone(&codebook))?;
    let mut decoder: Decoder<f64> = Decoder::new(config, codebook, SolverPolicy::default())?;
    let mut detector = StreamingQrsDetector::new(QrsDetectorConfig::at_256_hz());
    let mut detections = Vec::new();
    for packet in packetize(samples, config.packet_len()) {
        let wire = encoder.encode_packet(packet)?;
        let decoded = decoder.decode_packet(&wire)?;
        detector.push_window(&decoded.samples, &mut detections);
    }
    detector.flush(&mut detections);
    Ok(detections.into_iter().map(|d| d.sample).collect())
}
