//! Cross-crate acceptance: the streaming detector must match the
//! offline detector **on reconstructed signals**, and the full clinical
//! engine must raise and clear alarms when fed fleet emissions.

use std::sync::Arc;

use cs_clinical::{ClinicalConfig, ClinicalEngine, ClinicalEvent, StreamingQrsDetector};
use cs_core::{
    packetize, train_codebook, Decoder, Encoder, FleetPacket, PacketOutcome, SolverPolicy,
    SystemConfig,
};
use cs_core::{ConcealmentReason, DecodedPacket};
use cs_ecg_data::{
    detect_r_peaks, resample_360_to_256, score_detections, AdcModel, BeatAnnotation, EcgModel,
    EcgModelConfig, QrsDetectorConfig,
};
use cs_telemetry::{AlarmKind, AlarmSeverity, FamilyId, TelemetryRegistry};

/// Synthesizes an arrhythmic record, round-trips it through the CS
/// pipeline at `cr`, and returns `(reconstruction, truth @256 Hz)`.
fn reconstructed_record(cr: f64, seed: u64, duration_s: f64) -> (Vec<f64>, Vec<BeatAnnotation>) {
    let mut model_cfg = EcgModelConfig::default();
    model_cfg.rhythm.pvc_probability = 0.10;
    model_cfg.rhythm.mean_heart_rate_bpm = 78.0;
    let mut model = EcgModel::new(model_cfg, seed);
    let (mv_360, beats) = model.synthesize(duration_s);
    let at_256 = resample_360_to_256(&mv_360);
    let adc = AdcModel::mit_bih();
    let samples: Vec<i16> = at_256.iter().map(|&v| adc.to_signed(adc.quantize(v))).collect();
    let truth: Vec<BeatAnnotation> = beats
        .iter()
        .map(|b| BeatAnnotation { sample: b.sample * 256 / 360, beat: b.beat })
        .filter(|b| b.sample < samples.len())
        .collect();

    let config = SystemConfig::builder().compression_ratio(cr).build().unwrap();
    let training = packetize(&samples, config.packet_len()).take(3).map(|p| p.to_vec());
    let codebook = Arc::new(train_codebook(&config, training).unwrap());
    let mut encoder = Encoder::new(&config, Arc::clone(&codebook)).unwrap();
    let mut decoder: Decoder<f64> =
        Decoder::new(&config, codebook, SolverPolicy::default()).unwrap();
    let mut recon = Vec::with_capacity(samples.len());
    for packet in packetize(&samples, config.packet_len()) {
        let wire = encoder.encode_packet(packet).unwrap();
        recon.extend(decoder.decode_packet(&wire).unwrap().samples);
    }
    (recon, truth)
}

#[test]
fn streaming_matches_offline_on_reconstructed_signal() {
    let (recon, truth) = reconstructed_record(50.0, 2024, 30.0);
    let config = QrsDetectorConfig::at_256_hz();
    let offline = detect_r_peaks(&recon, &config);

    // Windowed exactly as the decoder emits it: 512-sample packets.
    let mut det = StreamingQrsDetector::new(config);
    let mut out = Vec::new();
    for window in recon.chunks(512) {
        det.push_window(window, &mut out);
    }
    det.flush(&mut out);
    let streamed: Vec<usize> = out.iter().map(|d| d.sample).collect();
    assert_eq!(streamed, offline, "streaming/offline divergence on reconstructed ECG");

    // And the detections must still be clinically useful at CR 50.
    let (sens, ppv) = score_detections(&truth, &streamed, 13);
    assert!(sens >= 0.95, "sensitivity {sens:.3} below 0.95 on reconstructed signal");
    assert!(ppv >= 0.95, "PPV {ppv:.3} below 0.95 on reconstructed signal");
}

/// Wraps raw sample windows as fleet emissions for the engine.
fn emit(stream: usize, outcome: PacketOutcome, index: u64, window: &[f64]) -> FleetPacket<f64> {
    let packet = DecodedPacket {
        index,
        samples: window.to_vec(),
        ..DecodedPacket::default()
    };
    FleetPacket { stream, channel: 0, outcome, e2e: None, packet }
}

/// A 256 Hz sinus-like pulse train at the given rate — enough QRS energy
/// for the detector without a full synthesizer run.
fn pulse_train(duration_s: f64, bpm: f64) -> Vec<f64> {
    let fs = 256.0;
    let n = (duration_s * fs) as usize;
    let rr = (60.0 / bpm * fs) as usize;
    (0..n)
        .map(|i| {
            let phase = (i % rr) as f64;
            let spike = (-(phase - 20.0).powi(2) / 6.0).exp();
            400.0 * spike + 8.0 * (i as f64 * 0.01).sin()
        })
        .collect()
}

#[test]
fn engine_raises_and_clears_tachycardia() {
    let telemetry = TelemetryRegistry::new();
    let mut engine = ClinicalEngine::new(ClinicalConfig::at_256_hz(), 2, 1, telemetry.clone());

    // 20 s at 70 bpm, 30 s at 160 bpm, 40 s back at 70 bpm.
    let mut signal = pulse_train(20.0, 70.0);
    signal.extend(pulse_train(30.0, 160.0));
    signal.extend(pulse_train(40.0, 70.0));

    let mut events = Vec::new();
    for (k, window) in signal.chunks(512).enumerate() {
        engine.on_packet(&emit(0, PacketOutcome::Decoded, k as u64, window), &mut events);
    }
    engine.finish(&mut events);

    let raised = events.iter().any(|e| matches!(e,
        ClinicalEvent::Alarm { stream: 0, transition } if transition.kind == AlarmKind::Tachycardia
            && transition.to > AlarmSeverity::Normal));
    let cleared = events.iter().any(|e| matches!(e,
        ClinicalEvent::Alarm { stream: 0, transition } if transition.kind == AlarmKind::Tachycardia
            && transition.to == AlarmSeverity::Normal));
    assert!(raised, "tachycardia never raised: {events:?}");
    assert!(cleared, "tachycardia never cleared: {events:?}");

    // Telemetry saw the same story.
    let snap = telemetry.snapshot();
    assert_eq!(snap.count(FamilyId::AlarmRaised, AlarmKind::Tachycardia), 1);
    assert_eq!(snap.count(FamilyId::AlarmCleared, AlarmKind::Tachycardia), 1);
    assert_eq!(snap.count(FamilyId::AlarmActive, AlarmKind::Tachycardia), 0);
}

#[test]
fn concealed_windows_suppress_alarms_but_keep_continuity() {
    let telemetry = TelemetryRegistry::new();
    let mut engine = ClinicalEngine::new(ClinicalConfig::at_256_hz(), 1, 1, telemetry.clone());

    // Healthy rhythm, but windows 12..=14 arrive concealed as flat-ish
    // interpolations: 6 s of signal gap. Asystole must NOT fire.
    let signal = pulse_train(60.0, 70.0);
    let mut events = Vec::new();
    for (k, window) in signal.chunks(512).enumerate() {
        let outcome = if (12..=14).contains(&k) {
            PacketOutcome::Concealed(ConcealmentReason::Loss)
        } else {
            PacketOutcome::Decoded
        };
        let flat = vec![0.0; window.len()];
        let payload = if (12..=14).contains(&k) { &flat[..] } else { window };
        engine.on_packet(&emit(0, outcome, k as u64, payload), &mut events);
    }
    engine.finish(&mut events);

    assert!(
        !events.iter().any(|e| matches!(e, ClinicalEvent::Alarm { .. })),
        "no alarm may fire across a concealed gap: {events:?}"
    );
    let snap = telemetry.snapshot();
    assert_eq!(snap.count(FamilyId::AlarmRaised, AlarmKind::Asystole), 0);
    assert_eq!(snap.total(FamilyId::AlarmSuppressed), 3, "one suppression per concealed window");
    // The beat stream kept flowing after the gap.
    assert!(snap.total(FamilyId::Beat) > 50);
}

#[test]
fn ground_truth_scoring_flows_into_telemetry() {
    let telemetry = TelemetryRegistry::new();
    let mut engine = ClinicalEngine::new(ClinicalConfig::at_256_hz(), 1, 1, telemetry.clone());
    let signal = pulse_train(30.0, 70.0);
    // The pulse train's R crests: detector refines to the extremum near
    // phase 20 of each RR period.
    let rr = (60.0 / 70.0 * 256.0) as usize;
    let truth: Vec<usize> = (0..signal.len() / rr).map(|k| k * rr + 20).collect();
    engine.set_ground_truth(0, truth, 13);

    let mut events = Vec::new();
    for (k, window) in signal.chunks(512).enumerate() {
        engine.on_packet(&emit(0, PacketOutcome::Decoded, k as u64, window), &mut events);
    }
    engine.finish(&mut events);

    let scorer = engine.truth_scorer(0).unwrap();
    assert!(scorer.sensitivity().unwrap() >= 0.95, "confusion: {:?}", scorer.confusion());
    assert!(scorer.ppv().unwrap() >= 0.95, "confusion: {:?}", scorer.confusion());
    let snap = telemetry.snapshot();
    assert_eq!(snap.qrs_sensitivity(), scorer.sensitivity());
    assert_eq!(snap.qrs_ppv(), scorer.ppv());
}
