//! Seeded one-patient system simulation: beats and alarms survive
//! compression and loss on the decode path that ships.
//!
//! [`simulate`] carries an annotated 256 Hz record through the whole
//! system on one thread, with the packet index as its clock: `Encoder`
//! → `to_bytes_tagged(0)` → a seeded drop-only `LossyLink` → a bare
//! `WireCore` → `ClinicalEngine`. The core conceals a dropped frame, and
//! the engine suppresses alarm evaluation over it. Four cases:
//!
//! 1. **Detection.** QRS sensitivity and PPV ≥ 95 % after the settle
//!    time, against the synthesizer's annotations: a PVC-heavy record at
//!    CR 50/65/75 under the block prior, and a heavier-ectopy record at
//!    CR 30/50/70 under the default policy.
//! 2. **Detection under loss.** The same bound with dropped windows
//!    concealed. Beats in or next to a concealed window are not scored:
//!    signal that never arrived cannot be detected.
//! 3. **Alarm latency.** Tachycardia, bradycardia and PVC-run episodes
//!    in sinus rhythm alarm within 10 s of their onset, never before it,
//!    and every alarm is back at normal by the end of the record.
//! 4. **False-alarm control.** A clean sinus record raises no alarm,
//!    clean or lossy, and the lossy run suppresses evaluations.
//!
//! Every record is synthesized at seed 2024. The fleet-level fault
//! invariants (corruption, reordering, duplication, supervision, the
//! archive tap) live in `failure_injection.rs` and `wire_core.rs`.

use cs_ecg_monitor::clinical::{AlarmTransition, ClinicalConfig, ClinicalEngine, ClinicalEvent};
use cs_ecg_monitor::ecg::BeatAnnotation;
use cs_ecg_monitor::prelude::*;
use cs_ecg_monitor::recovery::SpectralCache;
use cs_ecg_monitor::system::{ConcealmentReason, Emission, FleetPacket, WireCore};
use cs_ecg_monitor::telemetry::{AlarmKind, AlarmSeverity, FamilyId};
use std::ops::Range;
use std::sync::Arc;

const SEED: u64 = 2024;
/// ±50 ms at 256 Hz.
const TOLERANCE: usize = 13;
/// The record starts mid-beat, so the band-pass onset transient can fake
/// one detection in the first fraction of a second, and thresholds only
/// seed after the 2 s warm-up. Score like a monitor: after settle time.
const SETTLE_SAMPLES: usize = 512;
const FLOOR: f64 = 0.95;

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
        let shifted = beats.iter().map(|b| BeatAnnotation { sample: b.sample + offset, beat: b.beat });
        truth_360.extend(shifted);
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

/// A CR with every packet a reference, so a dropped window cannot
/// desynchronize the differencing loop. Resynchronization after a loss
/// is the subject of `failure_injection.rs` and `wire_core.rs`; here the
/// subject is the clinical reading.
fn every_packet_a_reference(cr: f64) -> SystemConfig {
    SystemConfig::builder().compression_ratio(cr).reference_interval(1).build().unwrap()
}

/// What the system made of one record. Sample positions are the record's.
struct Run {
    /// Record samples the core emitted a window for: a loss after the
    /// last arrival is never exposed.
    emitted: usize,
    /// The concealed windows.
    concealed: Vec<Range<usize>>,
    /// Classified beats.
    beats: Vec<usize>,
    alarms: Vec<AlarmTransition>,
    /// Alarm kinds not back at normal when the record ended.
    active_at_end: Vec<AlarmKind>,
    /// `cs_alarm_suppressed_total`.
    suppressed: u64,
}

/// Runs `record` through the system (see the module docs). `faults` may
/// only drop frames, each decided by a `LossyLink` seeded with `seed`.
/// Any outcome other than `Decoded` or `Concealed(Loss)` fails the test:
/// these configurations must decode on the shipped path.
fn simulate(
    record: &Record256,
    config: &SystemConfig,
    policy: SolverPolicy<f64>,
    faults: FaultSpec,
    seed: u64,
) -> Run {
    assert_eq!(faults, FaultSpec { drop: faults.drop, ..FaultSpec::default() }, "drop-only faults");
    let n = config.packet_len();
    let training = packetize(&record.samples, n).take(3).map(|p| p.to_vec());
    let codebook = Arc::new(train_codebook(config, training).unwrap());
    let mut encoder = Encoder::new(config, Arc::clone(&codebook)).unwrap();
    let mut link = LossyLink::new(faults, seed);
    let cache = SpectralCache::new();
    let telemetry = TelemetryRegistry::new();
    let fleet = FleetConfig::default();
    let mut core = WireCore::new(config, codebook, policy, &fleet, &cache, telemetry.clone());
    let (mut deliveries, mut emissions) = (Vec::new(), Vec::new());
    let mut clock = 0;
    for (k, window) in packetize(&record.samples, n).enumerate() {
        clock = k as u64;
        link.offer(&encoder.encode_packet(window).unwrap().to_bytes_tagged(0), &mut deliveries);
        for delivery in deliveries.drain(..) {
            core.push(0, &delivery.bytes, clock, &mut emissions).unwrap();
        }
    }
    core.flush(clock, &mut emissions).unwrap();

    let mut engine = ClinicalEngine::new(ClinicalConfig::at_256_hz(), 1, 1, telemetry.clone());
    let mut events = Vec::new();
    let mut concealed = Vec::new();
    // The engine's clock starts at the first decoded window.
    let mut start = None;
    let lost = PacketOutcome::Concealed(ConcealmentReason::Loss);
    let emitted = emissions.len() * n;
    for (k, emission) in emissions.into_iter().enumerate() {
        let Emission { stream, channel, outcome, packet, .. } = emission;
        assert_eq!(packet.index, k as u64, "one window per slot, in wire order");
        let expected = [PacketOutcome::Decoded, lost].contains(&outcome);
        assert!(expected, "window {k} came out {outcome:?}");
        if outcome == lost {
            concealed.push(k * n..(k + 1) * n);
        } else {
            start.get_or_insert(k * n);
        }
        engine.on_packet(&FleetPacket { stream, channel, outcome, e2e: None, packet }, &mut events);
    }
    engine.finish(&mut events);

    let start = start.expect("at least one window decodes");
    let (mut beats, mut alarms) = (Vec::new(), Vec::new());
    for event in events {
        match event {
            ClinicalEvent::Beat { beat, .. } => beats.push(start + beat.sample),
            ClinicalEvent::Alarm { transition, .. } => {
                alarms.push(AlarmTransition { sample: start + transition.sample, ..transition })
            }
        }
    }
    Run {
        emitted,
        concealed,
        beats,
        alarms,
        active_at_end: AlarmKind::ALL
            .into_iter()
            .filter(|&kind| engine.severity(0, kind) != AlarmSeverity::Normal)
            .collect(),
        suppressed: telemetry.snapshot().total(FamilyId::AlarmSuppressed),
    }
}

/// Scores the run's beats against `truth` after the settle time, leaving
/// out anything the core did not deliver: beyond the last emitted window,
/// or within tolerance of a concealed one (a concealed window replays
/// the previous window's beat). Returns (truth, detected, Se, PPV).
fn score(truth: &[BeatAnnotation], run: &Run) -> (usize, usize, f64, f64) {
    let scored = |s: usize| {
        let near = |w: &Range<usize>| s + TOLERANCE >= w.start && s < w.end + TOLERANCE;
        (SETTLE_SAMPLES..run.emitted).contains(&s) && !run.concealed.iter().any(near)
    };
    let truth: Vec<BeatAnnotation> = truth.iter().filter(|b| scored(b.sample)).cloned().collect();
    let detected: Vec<usize> = run.beats.iter().copied().filter(|&d| scored(d)).collect();
    let (sens, ppv) = score_detections(&truth, &detected, TOLERANCE);
    (truth.len(), detected.len(), sens, ppv)
}

fn assert_detection(label: &str, truth: &[BeatAnnotation], run: &Run) {
    let (beats, detected, sens, ppv) = score(truth, run);
    println!(
        "{label}: {beats} beats, {detected} detected, sens {:.1} %, ppv {:.1} %",
        sens * 100.0,
        ppv * 100.0
    );
    assert!(sens >= FLOOR && ppv >= FLOOR, "{label}: sensitivity {sens:.3}, PPV {ppv:.3}");
}

#[test]
fn beats_survive_compression() {
    // A clean sinus lead-in first: thresholds seed during the 2 s
    // warm-up, and a giant ventricular complex inside that window would
    // seed them an order of magnitude too high — a monitor is attached
    // during stable rhythm, not mid-run.
    let (record, _) = record_from_segments(&[
        segment(80.0, 0.0, 8.0, SEED ^ 0x5EED),
        segment(80.0, 0.10, 40.0, SEED),
    ]);
    // The block-sparse wavelet-tree prior: at the aggressive end of the
    // sweep it preserves QRS morphology measurably better than the plain
    // solve (PVC-adjacent low-amplitude beats survive CR 75).
    for cr in [50.0, 65.0, 75.0] {
        let config = SystemConfig::builder().compression_ratio(cr).build().unwrap();
        let run = simulate(&record, &config, SolverPolicy::block_prior(), FaultSpec::default(), 0);
        assert_detection(&format!("block prior, CR {cr}"), &record.truth, &run);
    }

    // Heavier ectopy from the first beat, under the policy that ships.
    let (record, _) = record_from_segments(&[segment(80.0, 0.15, 40.0, SEED)]);
    for cr in [30.0, 50.0, 70.0] {
        let config = SystemConfig::builder().compression_ratio(cr).build().unwrap();
        let run = simulate(&record, &config, SolverPolicy::default(), FaultSpec::default(), 0);
        assert_detection(&format!("default policy, CR {cr}"), &record.truth, &run);
    }
}

#[test]
fn beats_survive_dropped_windows() {
    let (record, _) = record_from_segments(&[
        segment(80.0, 0.0, 8.0, SEED ^ 0x5EED ^ 0xC0FFEE),
        segment(80.0, 0.10, 60.0, SEED ^ 0xC0FFEE),
    ]);
    let faults = FaultSpec { drop: 0.05, ..FaultSpec::default() };
    let config = every_packet_a_reference(50.0);
    let run = simulate(&record, &config, SolverPolicy::block_prior(), faults, SEED ^ 0xD00D);
    let windows = record.samples.len() / 512;
    let label = format!("CR 50, {}/{windows} windows concealed", run.concealed.len());
    assert!(!run.concealed.is_empty(), "{label}: the seeded link must drop a window");
    assert_detection(&label, &record.truth, &run);
}

/// The 256 Hz sample where the first annotated ≥3-PVC-in-10-beats run
/// completes — the PVC-run alarm's ground-truth onset.
fn pvc_run_onset(truth: &[BeatAnnotation]) -> Option<usize> {
    let mut recent = Vec::new();
    truth.iter().find_map(|b| {
        recent.push(b.beat);
        let pvcs = recent.iter().rev().take(10).filter(|&&t| t == BeatType::Pvc).count();
        (pvcs >= 3).then_some(b.sample)
    })
}

#[test]
fn alarms_follow_onset_within_ten_seconds_and_clear() {
    let (pre, abnormal, post) = (28.0, 32.0, 44.0);
    let s = SEED;
    let episodes = [
        // Sinus 72 → SVT 150 → sinus 72.
        (AlarmKind::Tachycardia, [(72.0, 0.0, s), (150.0, 0.0, s ^ 1), (72.0, 0.0, s ^ 2)]),
        // Sinus 72 → 38 bpm → sinus 72.
        (AlarmKind::Bradycardia, [(72.0, 0.0, s ^ 3), (38.0, 0.0, s ^ 4), (72.0, 0.0, s ^ 5)]),
        // Sinus → heavy ectopy → sinus.
        (AlarmKind::PvcRun, [(78.0, 0.0, s ^ 6), (78.0, 0.45, s ^ 7), (78.0, 0.0, s ^ 8)]),
    ];
    for (kind, rhythms) in episodes {
        let segments: Vec<_> = rhythms
            .iter()
            .zip([pre, abnormal, post])
            .map(|(&(bpm, pvc, seed), seconds)| segment(bpm, pvc, seconds, seed))
            .collect();
        let (record, bounds) = record_from_segments(&segments);
        // A PVC run's onset is the annotated completion of the first
        // 3-in-10 run, not the segment boundary.
        let onset = match kind {
            AlarmKind::PvcRun => pvc_run_onset(&record.truth).expect("a 3-in-10 PVC run"),
            _ => bounds[1],
        };
        assert!(onset >= bounds[1], "{kind}: the episode starts before its segment");

        let config = every_packet_a_reference(75.0);
        let run = simulate(&record, &config, SolverPolicy::block_prior(), FaultSpec::default(), 0);
        let fired = run
            .alarms
            .iter()
            .find(|t| t.kind == kind && t.to > AlarmSeverity::Normal)
            .unwrap_or_else(|| panic!("no {kind} alarm; transitions: {:?}", run.alarms))
            .sample;
        let latency_s = (fired as f64 - onset as f64) / 256.0;
        println!("{kind}: alarm {latency_s:.1} s after onset");
        assert!(fired >= onset, "{kind} fired {latency_s:.1} s before the onset");
        assert!(latency_s <= 10.0, "{kind} latency {latency_s:.1} s exceeds 10 s");
        assert!(run.active_at_end.is_empty(), "{kind}: {:?} active at the end", run.active_at_end);
    }
}

#[test]
fn clean_sinus_raises_no_alarm() {
    let (record, _) = record_from_segments(&[segment(72.0, 0.0, 120.0, SEED ^ 9)]);
    let config = every_packet_a_reference(75.0);
    for drop in [0.0, 0.06] {
        let faults = FaultSpec { drop, ..FaultSpec::default() };
        let run = simulate(&record, &config, SolverPolicy::block_prior(), faults, SEED ^ 10);
        println!(
            "drop {drop}: {} beats, {} windows concealed, {} suppressed evaluations",
            run.beats.len(),
            run.concealed.len(),
            run.suppressed
        );
        assert!(run.alarms.is_empty(), "drop {drop}: false alarms {:?}", run.alarms);
        if drop > 0.0 {
            assert!(run.suppressed > 0, "the lossy control must conceal and suppress");
        }
    }
}
