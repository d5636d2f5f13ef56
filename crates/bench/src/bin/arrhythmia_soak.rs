//! Seeded arrhythmia soak: clinical detection on *reconstructed*
//! signals, alarm latency, and the closed adaptive-compression loop.
//!
//! Four phases, every assertion exiting non-zero on violation:
//!
//! 1. **Detection quality.** A PVC-heavy record is round-tripped through
//!    the CS pipeline at CR 50–75 %; the streaming detector runs on the
//!    reconstruction and must keep QRS sensitivity ≥ 95 % and
//!    PPV ≥ 95 % against the synthesizer's annotations.
//! 2. **Chaos detection.** The same bound with seeded window drops and
//!    zero-order-hold concealment (truth inside concealed regions is
//!    excluded — signal that never arrived cannot be detected; the
//!    suppression telemetry accounts for it instead).
//! 3. **Alarm latency.** Tachycardia, bradycardia and PVC-run episodes
//!    embedded in sinus rhythm, run through the full closed loop
//!    ([`AdaptiveEncoder`] → wire → [`AdaptiveDecoder`] →
//!    [`ClinicalEngine`] → [`TierController`] → encoder). The matching
//!    alarm must fire within 10 s of the annotated onset, the loop must
//!    escalate to the diagnostic tier during the episode (measurably
//!    fatter packets) and restore the routine tier after the quiet
//!    holdoff.
//! 4. **False-alarm control.** A clean sinus record (plus a chaos
//!    variant with concealed windows) must produce zero alarm
//!    transitions and zero tier escalations.
//!
//! ```text
//! cargo run --release -p cs-bench --bin arrhythmia_soak -- \
//!     [--short] [--seed 2024] [--telemetry]
//! ```

use cs_clinical::{ClinicalConfig, ClinicalEngine, ClinicalEvent, StreamingQrsDetector};
use cs_core::{
    packetize, train_codebook, AdaptiveDecoder, AdaptiveEncoder, ConcealmentReason, DecodedPacket,
    Decoder, Encoder, FidelitySchedule, FidelityTier, FleetPacket, PacketOutcome, SolverPolicy,
    SystemConfig, TierController,
};
use cs_ecg_data::{
    resample_360_to_256, score_detections, AdcModel, BeatAnnotation, BeatType, EcgModel,
    EcgModelConfig, QrsDetectorConfig,
};
use cs_telemetry::{AlarmKind, FamilyId, TelemetryRegistry};
use std::process::ExitCode;
use std::sync::Arc;

#[derive(Debug, Clone, Copy)]
struct Settings {
    short: bool,
    seed: u64,
    telemetry: bool,
}

impl Settings {
    fn from_args() -> Self {
        let mut s = Settings { short: false, seed: 2024, telemetry: false };
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--short" => s.short = true,
                "--seed" => {
                    s.seed = args.next().expect("--seed requires a value").parse().expect("--seed")
                }
                "--telemetry" => s.telemetry = true,
                other => panic!("unknown flag {other}; see the module doc for usage"),
            }
        }
        s
    }
}

/// Deterministic splitmix64 for chaos decisions.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An annotated 256 Hz integer record.
struct Record256 {
    samples: Vec<i16>,
    truth: Vec<BeatAnnotation>,
}

/// Synthesizes one rhythm segment at 360 Hz.
fn segment(bpm: f64, pvc: f64, duration_s: f64, seed: u64) -> (Vec<f64>, Vec<BeatAnnotation>) {
    let mut cfg = EcgModelConfig::default();
    cfg.rhythm.mean_heart_rate_bpm = bpm;
    cfg.rhythm.pvc_probability = pvc;
    EcgModel::new(cfg, seed).synthesize(duration_s)
}

/// Median R-peak amplitude of the *normal* beats in a segment. The
/// synthesizer normalizes each run's peak-to-peak span, so a segment
/// whose tall ventricular complexes dominate that span carries smaller
/// sinus beats than a clean one — splicing them raw would fake a gain
/// step no electrode ever produces.
fn sinus_gain(signal: &[f64], beats: &[BeatAnnotation]) -> f64 {
    let mut peaks: Vec<f64> = beats
        .iter()
        .filter(|b| b.beat == BeatType::Normal)
        .filter_map(|b| signal.get(b.sample).map(|v| v.abs()))
        .collect();
    if peaks.is_empty() {
        return 1.0;
    }
    peaks.sort_by(|a, b| a.partial_cmp(b).unwrap());
    peaks[peaks.len() / 2]
}

/// Concatenates 360 Hz segments (equalizing sinus gain across them),
/// resamples to 256 Hz, quantizes, and returns the record plus the
/// 256 Hz sample index of each segment boundary.
fn record_from_segments(segments: &[(Vec<f64>, Vec<BeatAnnotation>)]) -> (Record256, Vec<usize>) {
    let mut mv = Vec::new();
    let mut truth_360 = Vec::new();
    let mut boundaries = Vec::new();
    let reference = sinus_gain(&segments[0].0, &segments[0].1);
    for (signal, beats) in segments {
        let offset = mv.len();
        boundaries.push(offset * 256 / 360);
        truth_360.extend(beats.iter().map(|b| BeatAnnotation {
            sample: b.sample + offset,
            beat: b.beat,
        }));
        let gain = sinus_gain(signal, beats);
        let scale = if gain > 0.0 { reference / gain } else { 1.0 };
        mv.extend(signal.iter().map(|&v| v * scale));
    }
    let at_256 = resample_360_to_256(&mv);
    let adc = AdcModel::mit_bih();
    let samples: Vec<i16> = at_256.iter().map(|&v| adc.to_signed(adc.quantize(v))).collect();
    let truth = truth_360
        .iter()
        .map(|b| BeatAnnotation { sample: b.sample * 256 / 360, beat: b.beat })
        .filter(|b| b.sample < samples.len())
        .collect();
    (Record256 { samples, truth }, boundaries)
}

/// Round-trips a record at `cr` and returns the reconstruction.
fn reconstruct(config: &SystemConfig, samples: &[i16]) -> Result<Vec<f64>, String> {
    let training = packetize(samples, config.packet_len()).take(3).map(|p| p.to_vec());
    let codebook =
        Arc::new(train_codebook(config, training).map_err(|e| format!("codebook: {e}"))?);
    let mut encoder =
        Encoder::new(config, Arc::clone(&codebook)).map_err(|e| format!("encoder: {e}"))?;
    // The block-sparse wavelet-tree prior: at the aggressive end of the
    // CR sweep it preserves QRS morphology measurably better than the
    // plain solve (PVC-adjacent low-amplitude beats survive CR 75).
    let mut decoder: Decoder<f64> = Decoder::new(config, codebook, SolverPolicy::block_prior())
        .map_err(|e| format!("decoder: {e}"))?;
    let mut out = Vec::with_capacity(samples.len());
    for packet in packetize(samples, config.packet_len()) {
        let wire = encoder.encode_packet(packet).map_err(|e| format!("encode: {e}"))?;
        out.extend(decoder.decode_packet(&wire).map_err(|e| format!("decode: {e}"))?.samples);
    }
    Ok(out)
}

fn streaming_detections(signal: &[f64]) -> Vec<usize> {
    let mut det = StreamingQrsDetector::new(QrsDetectorConfig::at_256_hz());
    let mut out = Vec::new();
    for window in signal.chunks(512) {
        det.push_window(window, &mut out);
    }
    det.flush(&mut out);
    out.iter().map(|d| d.sample).collect()
}

/// The record starts mid-beat, so the band-pass onset transient can fake
/// one detection in the first fraction of a second, and thresholds only
/// seed after the 2 s warm-up. Score like a monitor: after settle time.
const SETTLE_SAMPLES: usize = 512;

fn score_after_settle(
    truth: &[BeatAnnotation],
    detected: &[usize],
    tolerance: usize,
) -> (f64, f64) {
    let truth: Vec<BeatAnnotation> =
        truth.iter().filter(|b| b.sample >= SETTLE_SAMPLES).cloned().collect();
    let detected: Vec<usize> = detected.iter().copied().filter(|&d| d >= SETTLE_SAMPLES).collect();
    score_detections(&truth, &detected, tolerance)
}

/// Phase 1: sensitivity/PPV bounds on clean reconstructions.
fn phase_detection(settings: &Settings) -> Result<(), String> {
    let duration = if settings.short { 24.0 } else { 40.0 };
    // A clean sinus lead-in first: thresholds seed during the 2 s
    // warm-up, and a giant ventricular complex inside that window would
    // seed them an order of magnitude too high — a monitor is attached
    // during stable rhythm, not mid-run.
    let (record, _) = record_from_segments(&[
        segment(80.0, 0.0, 8.0, settings.seed ^ 0x5EED),
        segment(80.0, 0.10, duration, settings.seed),
    ]);
    let crs: &[f64] = if settings.short { &[50.0, 75.0] } else { &[50.0, 65.0, 75.0] };
    for &cr in crs {
        let config = SystemConfig::builder()
            .compression_ratio(cr)
            .build()
            .map_err(|e| format!("config CR {cr}: {e}"))?;
        let recon = reconstruct(&config, &record.samples)?;
        let detected = streaming_detections(&recon);
        let (sens, ppv) = score_after_settle(&record.truth, &detected, 13);
        println!(
            "phase 1  CR {cr:>4.0} %: {} truth beats, {} detected, sens {:.1} %, ppv {:.1} %",
            record.truth.len(),
            detected.len(),
            sens * 100.0,
            ppv * 100.0
        );
        if sens < 0.95 {
            return Err(format!("CR {cr}: sensitivity {sens:.3} below 0.95 on reconstruction"));
        }
        if ppv < 0.95 {
            return Err(format!("CR {cr}: PPV {ppv:.3} below 0.95 on reconstruction"));
        }
    }
    Ok(())
}

/// Phase 2: the same bound under seeded window drops with zero-order
/// -hold concealment. Truth peaks within a concealed (or immediately
/// following) region are excluded from scoring — and so are detections
/// there, since hold-over signal can echo the previous window's beat.
fn phase_chaos_detection(settings: &Settings) -> Result<(), String> {
    let duration = if settings.short { 30.0 } else { 60.0 };
    let (record, _) = record_from_segments(&[
        segment(80.0, 0.0, 8.0, settings.seed ^ 0x5EED ^ 0xC0FFEE),
        segment(80.0, 0.10, duration, settings.seed ^ 0xC0FFEE),
    ]);
    // Every packet a reference so a dropped window cannot desynchronize
    // the differencing loop — the fleet ingest layer's resync machinery
    // is exercised by chaos_soak; here the subject is the detector.
    let config = SystemConfig::builder()
        .compression_ratio(50.0)
        .reference_interval(1)
        .build()
        .map_err(|e| format!("config: {e}"))?;
    let n = config.packet_len();
    let training = packetize(&record.samples, n).take(3).map(|p| p.to_vec());
    let codebook =
        Arc::new(train_codebook(&config, training).map_err(|e| format!("codebook: {e}"))?);
    let mut encoder =
        Encoder::new(&config, Arc::clone(&codebook)).map_err(|e| format!("encoder: {e}"))?;
    let mut decoder: Decoder<f64> = Decoder::new(&config, codebook, SolverPolicy::block_prior())
        .map_err(|e| format!("decoder: {e}"))?;

    let mut rng = settings.seed ^ 0xD00D;
    let mut recon = Vec::with_capacity(record.samples.len());
    let mut held = vec![0.0; n];
    let mut concealed_ranges: Vec<(usize, usize)> = Vec::new();
    let mut dropped = 0usize;
    let mut windows = 0usize;
    // Window 9 always drops (every seed must actually exercise
    // concealment — at 5 % a 30-window record draws zero drops one run
    // in five); the rest are 5 % seeded chaos. Window 0 never drops:
    // zero-order hold has nothing to hold before the first delivery.
    for (k, packet) in packetize(&record.samples, n).enumerate() {
        let wire = encoder.encode_packet(packet).map_err(|e| format!("encode: {e}"))?;
        windows += 1;
        if k == 9 || (k > 0 && splitmix(&mut rng) % 100 < 5) {
            dropped += 1;
            concealed_ranges.push((recon.len(), recon.len() + n));
            recon.extend_from_slice(&held);
            continue;
        }
        let decoded = decoder.decode_packet(&wire).map_err(|e| format!("decode: {e}"))?;
        held.copy_from_slice(&decoded.samples);
        recon.extend(decoded.samples);
    }

    let tol = 13usize;
    let excluded = |sample: usize| {
        concealed_ranges
            .iter()
            .any(|&(a, b)| sample + tol >= a && sample < b + tol)
    };
    let truth: Vec<BeatAnnotation> =
        record.truth.iter().filter(|b| !excluded(b.sample)).cloned().collect();
    let detected: Vec<usize> =
        streaming_detections(&recon).into_iter().filter(|&d| !excluded(d)).collect();
    let (sens, ppv) = score_after_settle(&truth, &detected, tol);
    println!(
        "phase 2  CR 50 % + {dropped}/{windows} windows concealed: sens {:.1} %, ppv {:.1} %",
        sens * 100.0,
        ppv * 100.0
    );
    if sens < 0.95 || ppv < 0.95 {
        return Err(format!("chaos detection degraded: sens {sens:.3}, ppv {ppv:.3}"));
    }
    Ok(())
}

/// Outcome of one closed-loop episode run.
struct LoopRun {
    events: Vec<ClinicalEvent>,
    escalations: u64,
    restorations: u64,
    final_tier: FidelityTier,
    routine_bits_per_window: f64,
    diagnostic_bits_per_window: f64,
    suppressed: u64,
}

/// Drives one single-patient record through the complete loop:
/// adaptive encoder → wire bytes → adaptive decoder → clinical engine →
/// tier controller → (next window's) encoder tier. `drop_pct` windows
/// are concealed with zero-order hold instead of decoded.
fn run_closed_loop(
    record: &Record256,
    routine_cr: f64,
    diagnostic_cr: f64,
    drop_pct: u64,
    chaos_seed: u64,
) -> Result<LoopRun, String> {
    let routine = SystemConfig::builder()
        .compression_ratio(routine_cr)
        .reference_interval(1)
        .build()
        .map_err(|e| format!("routine config: {e}"))?;
    let schedule =
        FidelitySchedule::new(&routine, diagnostic_cr).map_err(|e| format!("schedule: {e}"))?;
    let n = routine.packet_len();
    let training = packetize(&record.samples, n).take(3).map(|p| p.to_vec());
    let codebook =
        Arc::new(train_codebook(&routine, training).map_err(|e| format!("codebook: {e}"))?);
    let mut encoder = AdaptiveEncoder::new(schedule.clone(), Arc::clone(&codebook), 1)
        .map_err(|e| format!("adaptive encoder: {e}"))?;
    let mut decoder: AdaptiveDecoder<f64> =
        AdaptiveDecoder::new(schedule, codebook, SolverPolicy::block_prior(), 1)
            .map_err(|e| format!("adaptive decoder: {e}"))?;

    let telemetry = TelemetryRegistry::new();
    let controller = TierController::new(1);
    let mut engine = ClinicalEngine::new(ClinicalConfig::at_256_hz(), 1, 1, telemetry.clone());
    engine.set_tier_controller(controller.clone());

    let mut events = Vec::new();
    let mut rng = chaos_seed;
    let mut held = vec![0.0; n];
    let mut bits = [(0u64, 0u64); 2]; // (payload bits, windows) per tier
    for (k, window) in record.samples.chunks(n).enumerate() {
        if window.len() < n {
            break;
        }
        // The mote applies the coordinator's latest feedback before
        // encoding — one-window feedback latency, like the real uplink.
        encoder.set_tier(controller.tier(0));
        let cp = encoder.encode_packet(0, window).map_err(|e| format!("encode {k}: {e}"))?;
        let tier = encoder.tier();
        bits[tier.index()].0 += cp.packet.payload_bits as u64;
        bits[tier.index()].1 += 1;

        // Every packet is a reference (reference_interval 1 in both
        // tiers), so a dropped window cannot desynchronize differencing.
        // Like phase 2: one guaranteed drop so chaos runs always
        // exercise concealment, none on the first window.
        let chaos = splitmix(&mut rng) % 100 < drop_pct;
        let emission = if drop_pct > 0 && (k == 7 || (k > 0 && chaos)) {
            let mut packet = DecodedPacket::default();
            packet.index = cp.packet.index;
            packet.samples = held.clone();
            FleetPacket {
                stream: 0,
                channel: 0,
                outcome: PacketOutcome::Concealed(ConcealmentReason::Loss),
                e2e: None,
                packet,
            }
        } else {
            let (_, decoded) = decoder.decode(&cp).map_err(|e| format!("decode {k}: {e}"))?;
            held.copy_from_slice(&decoded.samples);
            FleetPacket {
                stream: 0,
                channel: 0,
                outcome: PacketOutcome::Decoded,
                e2e: None,
                packet: decoded,
            }
        };
        engine.on_packet(&emission, &mut events);
    }
    engine.finish(&mut events);

    let per_window = |(total, windows): (u64, u64)| total as f64 / windows.max(1) as f64;
    Ok(LoopRun {
        events,
        escalations: controller.escalations(),
        restorations: controller.restorations(),
        final_tier: controller.tier(0),
        routine_bits_per_window: per_window(bits[FidelityTier::Routine.index()]),
        diagnostic_bits_per_window: per_window(bits[FidelityTier::Diagnostic.index()]),
        suppressed: telemetry.snapshot().total(FamilyId::AlarmSuppressed),
    })
}

/// First alarm transition of `kind` above normal, as a sample index.
fn first_alarm(events: &[ClinicalEvent], kind: AlarmKind) -> Option<usize> {
    events.iter().find_map(|e| match e {
        ClinicalEvent::Alarm { transition, .. }
            if transition.kind == kind && transition.to > cs_telemetry::AlarmSeverity::Normal =>
        {
            Some(transition.sample)
        }
        _ => None,
    })
}

fn alarm_kinds_fired(events: &[ClinicalEvent]) -> Vec<AlarmKind> {
    let mut kinds: Vec<AlarmKind> = events
        .iter()
        .filter_map(|e| match e {
            ClinicalEvent::Alarm { transition, .. } => Some(transition.kind),
            _ => None,
        })
        .collect();
    kinds.dedup();
    kinds
}

/// Phase 3: one arrhythmic episode — alarm latency plus the adaptive
/// loop's escalate/restore cycle.
fn episode(
    name: &str,
    kind: AlarmKind,
    record: &Record256,
    onset_sample: usize,
) -> Result<(), String> {
    let run = run_closed_loop(record, 75.0, 50.0, 0, 0)?;
    let fired = first_alarm(&run.events, kind)
        .ok_or_else(|| format!("{name}: no {kind} alarm fired; kinds seen: {:?}",
            alarm_kinds_fired(&run.events)))?;
    let latency_s = (fired as f64 - onset_sample as f64) / 256.0;
    if fired < onset_sample {
        return Err(format!("{name}: {kind} fired {latency_s:.1} s BEFORE the annotated onset"));
    }
    if latency_s > 10.0 {
        return Err(format!("{name}: {kind} latency {latency_s:.1} s exceeds the 10 s bound"));
    }
    if run.escalations < 1 || run.restorations < 1 {
        return Err(format!(
            "{name}: adaptive loop did not cycle (escalations {}, restorations {})",
            run.escalations, run.restorations
        ));
    }
    if run.final_tier != FidelityTier::Routine {
        return Err(format!("{name}: loop ended in {:?}, not Routine", run.final_tier));
    }
    if run.diagnostic_bits_per_window < 1.2 * run.routine_bits_per_window {
        return Err(format!(
            "{name}: diagnostic windows ({:.0} bits) are not measurably fatter than routine ({:.0})",
            run.diagnostic_bits_per_window, run.routine_bits_per_window
        ));
    }
    println!(
        "phase 3  {name:<12}: {kind} in {latency_s:>4.1} s, tier cycle {}↑/{}↓, \
         {:.0} → {:.0} bits/window while abnormal",
        run.escalations,
        run.restorations,
        run.routine_bits_per_window,
        run.diagnostic_bits_per_window
    );
    Ok(())
}

/// The 256 Hz sample where the first annotated ≥3-PVC-in-10-beats run
/// completes — the PVC-run alarm's ground-truth onset.
fn pvc_run_onset(truth: &[BeatAnnotation]) -> Option<usize> {
    let mut recent = Vec::new();
    for b in truth {
        recent.push(b.beat);
        let window = recent.iter().rev().take(10);
        if window.filter(|&&t| t == BeatType::Pvc).count() >= 3 {
            return Some(b.sample);
        }
    }
    None
}

fn phase_episodes(settings: &Settings) -> Result<(), String> {
    let pre = if settings.short { 20.0 } else { 28.0 };
    let abnormal = if settings.short { 24.0 } else { 32.0 };
    let post = if settings.short { 36.0 } else { 44.0 };
    let s = settings.seed;

    // Tachycardia: sinus 72 → SVT 150 → sinus 72.
    let (tachy, bounds) = record_from_segments(&[
        segment(72.0, 0.0, pre, s),
        segment(150.0, 0.0, abnormal, s ^ 1),
        segment(72.0, 0.0, post, s ^ 2),
    ]);
    episode("tachycardia", AlarmKind::Tachycardia, &tachy, bounds[1])?;

    // Bradycardia: sinus 72 → 38 bpm → sinus 72.
    let (brady, bounds) = record_from_segments(&[
        segment(72.0, 0.0, pre, s ^ 3),
        segment(38.0, 0.0, abnormal, s ^ 4),
        segment(72.0, 0.0, post, s ^ 5),
    ]);
    episode("bradycardia", AlarmKind::Bradycardia, &brady, bounds[1])?;

    // PVC run: sinus → heavy ectopy → sinus. Onset is the annotated
    // completion of the first 3-in-10 run, not the segment boundary.
    let (pvc, bounds) = record_from_segments(&[
        segment(78.0, 0.0, pre, s ^ 6),
        segment(78.0, 0.45, abnormal, s ^ 7),
        segment(78.0, 0.0, post, s ^ 8),
    ]);
    let onset = pvc_run_onset(&pvc.truth)
        .ok_or("pvc episode synthesized no 3-in-10 run; change the seed")?;
    if onset < bounds[1] {
        return Err("pvc run onset precedes the ectopic segment; seed produced PVCs early".into());
    }
    episode("pvc-run", AlarmKind::PvcRun, &pvc, onset)?;
    Ok(())
}

/// Phase 4: clean-sinus control — zero alarms, zero escalations — and
/// the same under concealment chaos.
fn phase_control(settings: &Settings) -> Result<(), String> {
    let duration = if settings.short { 60.0 } else { 120.0 };
    let (control, _) = record_from_segments(&[segment(72.0, 0.0, duration, settings.seed ^ 9)]);

    for (label, drop_pct) in [("clean", 0u64), ("chaos", 6u64)] {
        let run = run_closed_loop(&control, 75.0, 50.0, drop_pct, settings.seed ^ 10)?;
        let alarms = alarm_kinds_fired(&run.events);
        if !alarms.is_empty() {
            return Err(format!(
                "{label} control: false alarm(s) {alarms:?} on clean sinus rhythm"
            ));
        }
        if run.escalations != 0 {
            return Err(format!(
                "{label} control: {} spurious tier escalations",
                run.escalations
            ));
        }
        if drop_pct > 0 && run.suppressed == 0 {
            return Err("chaos control concealed nothing; widen the profile".into());
        }
        let beats = run
            .events
            .iter()
            .filter(|e| matches!(e, ClinicalEvent::Beat { .. }))
            .count();
        println!(
            "phase 4  {label:<6} control: {beats} beats, 0 alarms, 0 escalations, \
             {} suppressed evaluations",
            run.suppressed
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let settings = Settings::from_args();
    println!(
        "arrhythmia_soak: seed {}, {} profile",
        settings.seed,
        if settings.short { "short" } else { "full" }
    );
    let started = std::time::Instant::now();
    type Phase = fn(&Settings) -> Result<(), String>;
    let phases: [(&str, Phase); 4] = [
        ("detection quality", phase_detection),
        ("chaos detection", phase_chaos_detection),
        ("alarm latency + adaptive loop", phase_episodes),
        ("false-alarm control", phase_control),
    ];
    for (name, phase) in phases {
        if let Err(msg) = phase(&settings) {
            eprintln!("FAIL [{name}]: {msg}");
            return ExitCode::FAILURE;
        }
    }
    println!("OK: all clinical soak invariants held ({:.1?})", started.elapsed());
    if settings.telemetry {
        let registry = TelemetryRegistry::new();
        print!("{}", registry.prometheus());
    }
    ExitCode::SUCCESS
}
