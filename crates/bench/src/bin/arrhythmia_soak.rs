//! Seeded arrhythmia soak: clinical detection and alarm latency on
//! *reconstructed* signals, decoded by the path that ships.
//!
//! Every phase encodes its record at one fixed configuration, frames each
//! window and pushes the frames through a bare, synchronous [`WireCore`]
//! with the block prior ([`wire_decode`]). A dropped window is a frame
//! that is never pushed: loss detection, concealment and the
//! `Concealed(Loss)` outcome come from the core.
//!
//! Four phases, every assertion exiting non-zero on violation:
//!
//! 1. **Detection quality.** A PVC-heavy record is round-tripped at
//!    CR 50–75 %; the streaming detector runs on the reconstruction and
//!    must keep QRS sensitivity ≥ 95 % and PPV ≥ 95 % against the
//!    synthesizer's annotations.
//! 2. **Chaos detection.** The same bound with seeded window drops
//!    (truth inside concealed regions is excluded — signal that never
//!    arrived cannot be detected; the suppression telemetry accounts for
//!    it instead).
//! 3. **Alarm latency.** Tachycardia, bradycardia and PVC-run episodes
//!    embedded in sinus rhythm, decoded at CR 75 % and fed to the
//!    [`ClinicalEngine`]. The matching alarm must fire within 10 s of the
//!    annotated onset and never before it, and every alarm must be back
//!    at normal by the end of the record.
//! 4. **False-alarm control.** A clean sinus record (plus a chaos
//!    variant with concealed windows) must produce zero alarm
//!    transitions; the chaos variant must suppress evaluations.
//!
//! ```text
//! cargo run --release -p cs-bench --bin arrhythmia_soak -- [--short] [--seed 2024]
//! ```

use cs_clinical::{ClinicalConfig, ClinicalEngine, ClinicalEvent, StreamingQrsDetector};
use cs_core::{
    packetize, train_codebook, ConcealmentReason, Emission, Encoder, FleetConfig, FleetPacket,
    PacketOutcome, SolverPolicy, SystemConfig, WireCore,
};
use cs_ecg_data::{
    resample_360_to_256, score_detections, AdcModel, BeatAnnotation, BeatType, EcgModel,
    EcgModelConfig, QrsDetectorConfig,
};
use cs_recovery::SpectralCache;
use cs_telemetry::{AlarmKind, AlarmSeverity, FamilyId, TelemetryRegistry};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: arrhythmia_soak [--short] [--seed N]";

#[derive(Debug, Clone, Copy, PartialEq)]
struct Settings {
    short: bool,
    seed: u64,
}

impl Settings {
    /// Parses the command line (without the program name).
    ///
    /// # Errors
    ///
    /// An unknown flag, or a `--seed` whose value is missing or unparsable.
    fn from_args(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut s = Settings { short: false, seed: 2024 };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--short" => s.short = true,
                "--seed" => {
                    let value = args.next().ok_or("--seed requires a value")?;
                    s.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?;
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(s)
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

/// Encodes `samples` window by window at `config`, frames each window
/// and pushes the frame through one bare [`WireCore`]. A window for which
/// `dropped(k)` holds is encoded but never pushed, so the core conceals
/// it as a loss. Returns the core's emissions in wire order: one per
/// window, except a loss after the last pushed frame, which no arrival
/// exposes. Any other outcome than `Decoded` or `Concealed(Loss)` is an
/// error: the soak's configurations must decode on the shipped path.
fn wire_decode(
    config: &SystemConfig,
    samples: &[i16],
    mut dropped: impl FnMut(usize) -> bool,
) -> Result<Vec<Emission<f64>>, String> {
    let n = config.packet_len();
    let training = packetize(samples, n).take(3).map(|p| p.to_vec());
    let codebook =
        Arc::new(train_codebook(config, training).map_err(|e| format!("codebook: {e}"))?);
    let mut encoder =
        Encoder::new(config, Arc::clone(&codebook)).map_err(|e| format!("encoder: {e}"))?;
    let cache = SpectralCache::new();
    // The block-sparse wavelet-tree prior: at the aggressive end of the
    // CR sweep it preserves QRS morphology measurably better than the
    // plain solve (PVC-adjacent low-amplitude beats survive CR 75).
    let policy = SolverPolicy::block_prior();
    let telemetry = TelemetryRegistry::disabled();
    let mut core = WireCore::new(config, codebook, policy, &FleetConfig::default(), &cache, telemetry);
    let mut out = Vec::new();
    for (k, window) in packetize(samples, n).enumerate() {
        let packet = encoder.encode_packet(window).map_err(|e| format!("encode {k}: {e}"))?;
        if !dropped(k) {
            let frame = packet.to_bytes_tagged(0);
            core.push(0, &frame, 0, &mut out).map_err(|e| format!("push {k}: {e}"))?;
        }
    }
    core.flush(0, &mut out).map_err(|e| format!("flush: {e}"))?;
    let lost = PacketOutcome::Concealed(ConcealmentReason::Loss);
    match out.iter().find(|e| ![PacketOutcome::Decoded, lost].contains(&e.outcome)) {
        Some(e) => Err(format!("window {} came out {:?}", e.packet.index, e.outcome)),
        None => Ok(out),
    }
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
        let recon: Vec<f64> = wire_decode(&config, &record.samples, |_| false)?
            .into_iter()
            .flat_map(|e| e.packet.samples)
            .collect();
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

/// Phase 2: the same bound under seeded window drops, concealed by the
/// core. Truth peaks within a concealed (or immediately following)
/// region are excluded from scoring — and so are detections there, since
/// a concealed window replays the previous window's beat.
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
    let windows = record.samples.len() / n;

    // Window 9 always drops (every seed must actually exercise
    // concealment — at 5 % a 30-window record draws zero drops one run
    // in five); the rest are 5 % seeded chaos. Window 0 never drops:
    // concealment has nothing to replay before the first delivery.
    let mut rng = settings.seed ^ 0xD00D;
    let emissions =
        wire_decode(&config, &record.samples, |k| k == 9 || (k > 0 && splitmix(&mut rng) % 100 < 5))?;
    let mut recon = Vec::with_capacity(record.samples.len());
    let mut concealed_ranges: Vec<(usize, usize)> = Vec::new();
    for emission in emissions {
        if emission.outcome != PacketOutcome::Decoded {
            concealed_ranges.push((recon.len(), recon.len() + n));
        }
        recon.extend(emission.packet.samples);
    }
    let concealed = concealed_ranges.len();

    let tol = 13usize;
    let excluded = |sample: usize| {
        concealed_ranges
            .iter()
            .any(|&(a, b)| sample + tol >= a && sample < b + tol)
    };
    // A loss after the last arrival is never exposed: the record ends there.
    let arrived = |sample: usize| sample < recon.len() && !excluded(sample);
    let truth: Vec<BeatAnnotation> =
        record.truth.iter().filter(|b| arrived(b.sample)).cloned().collect();
    let detected: Vec<usize> =
        streaming_detections(&recon).into_iter().filter(|&d| !excluded(d)).collect();
    let (sens, ppv) = score_after_settle(&truth, &detected, tol);
    println!(
        "phase 2  CR 50 % + {concealed}/{windows} windows concealed: sens {:.1} %, ppv {:.1} %",
        sens * 100.0,
        ppv * 100.0
    );
    if sens < 0.95 || ppv < 0.95 {
        return Err(format!("chaos detection degraded: sens {sens:.3}, ppv {ppv:.3}"));
    }
    Ok(())
}

/// What the clinical engine made of one monitored record.
struct MonitorRun {
    events: Vec<ClinicalEvent>,
    /// Alarm kinds not back at normal when the record ended.
    active_at_end: Vec<AlarmKind>,
    suppressed: u64,
}

/// Decodes one single-patient record at CR 75 %, every window a
/// reference, and feeds the emissions to a [`ClinicalEngine`]. With
/// `drop_pct` > 0, window 7 and a seeded `drop_pct` % of the others
/// (never window 0) are dropped on the wire.
fn monitor(record: &Record256, drop_pct: u64, chaos_seed: u64) -> Result<MonitorRun, String> {
    // Every packet a reference, so a dropped window cannot desynchronize
    // differencing.
    let config = SystemConfig::builder()
        .compression_ratio(75.0)
        .reference_interval(1)
        .build()
        .map_err(|e| format!("config: {e}"))?;
    // Like phase 2: one guaranteed drop so chaos runs always exercise
    // concealment, none on the first window.
    let mut rng = chaos_seed;
    let emissions = wire_decode(&config, &record.samples, |k| {
        let chaos = splitmix(&mut rng) % 100 < drop_pct;
        drop_pct > 0 && (k == 7 || (k > 0 && chaos))
    })?;

    let telemetry = TelemetryRegistry::new();
    let mut engine = ClinicalEngine::new(ClinicalConfig::at_256_hz(), 1, 1, telemetry.clone());
    let mut events = Vec::new();
    for Emission { stream, channel, outcome, packet, .. } in emissions {
        engine.on_packet(&FleetPacket { stream, channel, outcome, e2e: None, packet }, &mut events);
    }
    engine.finish(&mut events);
    Ok(MonitorRun {
        events,
        active_at_end: AlarmKind::ALL
            .into_iter()
            .filter(|&kind| engine.severity(0, kind) != AlarmSeverity::Normal)
            .collect(),
        suppressed: telemetry.snapshot().total(FamilyId::AlarmSuppressed),
    })
}

/// First alarm transition of `kind` above normal, as a sample index.
fn first_alarm(events: &[ClinicalEvent], kind: AlarmKind) -> Option<usize> {
    events.iter().find_map(|e| match e {
        ClinicalEvent::Alarm { transition, .. }
            if transition.kind == kind && transition.to > AlarmSeverity::Normal =>
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

/// Phase 3: one arrhythmic episode — alarm latency, and every alarm
/// clear once the rhythm has been back to sinus for the rest of the
/// record.
fn episode(
    name: &str,
    kind: AlarmKind,
    record: &Record256,
    onset_sample: usize,
) -> Result<(), String> {
    let run = monitor(record, 0, 0)?;
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
    if !run.active_at_end.is_empty() {
        return Err(format!("{name}: {:?} still active at the end of the record", run.active_at_end));
    }
    println!("phase 3  {name:<12}: {kind} in {latency_s:>4.1} s, every alarm clear at the end");
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

/// Phase 4: clean-sinus control — zero alarms — and the same under
/// concealment chaos.
fn phase_control(settings: &Settings) -> Result<(), String> {
    let duration = if settings.short { 60.0 } else { 120.0 };
    let (control, _) = record_from_segments(&[segment(72.0, 0.0, duration, settings.seed ^ 9)]);

    for (label, drop_pct) in [("clean", 0u64), ("chaos", 6u64)] {
        let run = monitor(&control, drop_pct, settings.seed ^ 10)?;
        let alarms = alarm_kinds_fired(&run.events);
        if !alarms.is_empty() {
            return Err(format!(
                "{label} control: false alarm(s) {alarms:?} on clean sinus rhythm"
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
            "phase 4  {label:<6} control: {beats} beats, 0 alarms, {} suppressed evaluations",
            run.suppressed
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let settings = match Settings::from_args(std::env::args().skip(1)) {
        Ok(settings) => settings,
        Err(e) => {
            eprintln!("arrhythmia_soak: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
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
        ("alarm latency", phase_episodes),
        ("false-alarm control", phase_control),
    ];
    for (name, phase) in phases {
        if let Err(msg) = phase(&settings) {
            eprintln!("FAIL [{name}]: {msg}");
            return ExitCode::FAILURE;
        }
    }
    println!("OK: all clinical soak invariants held ({:.1?})", started.elapsed());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Settings, String> {
        Settings::from_args(args.iter().map(|&a| a.to_string()))
    }

    #[test]
    fn flags_parse_into_settings() {
        assert_eq!(parse(&[]).unwrap(), Settings { short: false, seed: 2024 });
        assert_eq!(parse(&["--seed", "7", "--short"]).unwrap(), Settings { short: true, seed: 7 });
    }

    #[test]
    fn a_seed_without_its_value_is_an_error() {
        assert_eq!(parse(&["--short", "--seed"]).unwrap_err(), "--seed requires a value");
    }

    #[test]
    fn an_unparsable_seed_or_unknown_flag_is_an_error() {
        let err = parse(&["--seed", "soon"]).unwrap_err();
        assert!(err.starts_with("--seed soon: "), "{err}");
        assert_eq!(parse(&["--telemetry"]).unwrap_err(), "unknown flag --telemetry");
    }
}
