//! The per-fleet clinical engine: one analyzer per patient, fed from
//! the decode side's [`FleetPacket`] emissions.
//!
//! Wiring is a closure over [`ClinicalEngine::on_packet`] passed as the
//! fleet runner's packet tap:
//!
//! ```ignore
//! let mut events = Vec::new();
//! run_fleet::<f64, _>(&config, codebook, FleetSource::Channel(rx), policy, &fleet, &telemetry,
//!     None, |pkt| engine.on_packet(pkt, &mut events))?;
//! ```
//!
//! Each patient runs one [`StreamingQrsDetector`], on the configured
//! primary lead: detection, classification and alarms all read that
//! lead only, mirroring how single-lead arbitration works on real
//! monitors. A window on any other lead is not analysed; it only counts
//! towards the patient's start (analysis begins at the first decoded
//! window on any lead).
//!
//! ## Concealment-aware suppression
//!
//! A window the ingest layer concealed or quarantined is not trusted
//! signal. Its detections still feed the classifier (so RR continuity
//! survives short dropouts) but alarm evaluation is suppressed until
//! the signal clock passes the end of the concealed region, and the
//! asystole silence floor is moved there: concealed silence is a
//! telemetry problem, not a cardiac event.

use cs_core::{FleetPacket, PacketOutcome};
use cs_dsp::Real;
use cs_ecg_data::QrsDetectorConfig;
use cs_telemetry::{AlarmSeverity, TelemetryRegistry};

use crate::alarm::{AlarmConfig, AlarmEngine, AlarmTransition};
use crate::classifier::{BeatClassifier, BeatClassifierConfig, ClassifiedBeat};
use crate::detector::{QrsDetection, StreamingQrsDetector};

/// Everything the engine needs to know about the fleet and thresholds.
#[derive(Debug, Clone, Copy)]
pub struct ClinicalConfig {
    /// Streaming detector configuration (the primary lead's detector).
    pub detector: QrsDetectorConfig,
    /// Beat classifier thresholds.
    pub classifier: BeatClassifierConfig,
    /// Alarm engine thresholds.
    pub alarm: AlarmConfig,
    /// The lead whose detections drive rhythm interpretation.
    pub primary_lead: u8,
}

impl ClinicalConfig {
    /// Defaults for the paper's 256 Hz wire rate.
    pub fn at_256_hz() -> Self {
        ClinicalConfig {
            detector: QrsDetectorConfig::at_256_hz(),
            classifier: BeatClassifierConfig::default(),
            alarm: AlarmConfig::at_256_hz(),
            primary_lead: 0,
        }
    }
}

/// One emission from the clinical engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClinicalEvent {
    /// A beat was classified on a patient's primary lead.
    Beat {
        /// Patient stream index.
        stream: usize,
        /// The classified beat.
        beat: ClassifiedBeat,
    },
    /// An alarm changed severity.
    Alarm {
        /// Patient stream index.
        stream: usize,
        /// The severity transition.
        transition: AlarmTransition,
    },
}

/// Incremental scorer matching monotonic detections against a sorted
/// ground-truth annotation list, streaming TP/FP/FN deltas into the
/// telemetry registry as they become decidable.
///
/// Matching is one-to-one two-pointer: a truth peak more than
/// `tolerance` behind the current detection can never match again and
/// is counted as a false negative; a detection within `tolerance` of
/// the next unmatched truth peak is a true positive; anything else is a
/// false positive. With the detector's refractory (64 samples at
/// 256 Hz) above twice any sane tolerance, detections cannot contend
/// for the same truth peak, so this agrees with the offline
/// `score_detections` on realistic streams while being strictly
/// one-to-one (the offline scorer tolerates many-to-one matches).
#[derive(Debug, Clone)]
pub struct TruthScorer {
    truth: Vec<usize>,
    tolerance: usize,
    next: usize,
    true_pos: u64,
    false_pos: u64,
    false_neg: u64,
    finished: bool,
}

impl TruthScorer {
    /// Builds a scorer over ascending truth peak positions.
    pub fn new(mut truth: Vec<usize>, tolerance: usize) -> Self {
        truth.sort_unstable();
        TruthScorer {
            truth,
            tolerance,
            next: 0,
            true_pos: 0,
            false_pos: 0,
            false_neg: 0,
            finished: false,
        }
    }

    /// Scores one detection; detections must arrive in ascending order.
    pub fn record(&mut self, detection: usize, telemetry: &TelemetryRegistry) {
        let (mut tp, mut fp, mut fn_) = (0u64, 0u64, 0u64);
        while self.next < self.truth.len() && self.truth[self.next] + self.tolerance < detection {
            self.next += 1;
            fn_ += 1;
        }
        match self.truth.get(self.next) {
            Some(&t) if t.abs_diff(detection) <= self.tolerance => {
                self.next += 1;
                tp += 1;
            }
            _ => fp += 1,
        }
        self.true_pos += tp;
        self.false_pos += fp;
        self.false_neg += fn_;
        telemetry.record_qrs_score(tp, fp, fn_);
    }

    /// Flushes remaining unmatched truth peaks as false negatives.
    /// Idempotent.
    pub fn finish(&mut self, telemetry: &TelemetryRegistry) {
        if self.finished {
            return;
        }
        self.finished = true;
        let fn_ = (self.truth.len() - self.next) as u64;
        self.next = self.truth.len();
        self.false_neg += fn_;
        telemetry.record_qrs_score(0, 0, fn_);
    }

    /// `(true positives, false positives, false negatives)` so far.
    pub fn confusion(&self) -> (u64, u64, u64) {
        (self.true_pos, self.false_pos, self.false_neg)
    }

    /// Sensitivity so far, if any truth peaks have been resolved.
    pub fn sensitivity(&self) -> Option<f64> {
        let denom = self.true_pos + self.false_neg;
        (denom > 0).then(|| self.true_pos as f64 / denom as f64)
    }

    /// Positive predictive value so far, if any detections were scored.
    pub fn ppv(&self) -> Option<f64> {
        let denom = self.true_pos + self.false_pos;
        (denom > 0).then(|| self.true_pos as f64 / denom as f64)
    }
}

/// Per-patient analysis state.
#[derive(Debug)]
struct PatientAnalyzer {
    /// The primary lead's detector.
    detector: StreamingQrsDetector,
    classifier: BeatClassifier,
    alarms: AlarmEngine,
    /// Whether the first decoded window, on any lead, has arrived. Until
    /// it does, emissions are ignored entirely: a leading concealment has
    /// nothing to hold, and letting the detector seed its warm-up
    /// thresholds on interpolated silence leaves them trigger-happy for
    /// the rest of the session.
    started: bool,
    /// Absolute sample before which alarm evaluation is suppressed
    /// (end of the most recent concealed/quarantined window).
    conceal_until: usize,
    truth: Option<TruthScorer>,
}

/// The fleet-wide streaming clinical engine. See the module docs for
/// the wiring pattern.
pub struct ClinicalEngine {
    config: ClinicalConfig,
    patients: Vec<PatientAnalyzer>,
    telemetry: TelemetryRegistry,
    /// Reused f64 conversion buffer.
    scratch: Vec<f64>,
    /// Reused detection buffer.
    detections: Vec<QrsDetection>,
    /// Reused alarm-transition buffer.
    transitions: Vec<AlarmTransition>,
}

impl ClinicalEngine {
    /// Builds an engine for `patients` streams of `channels` leads each.
    /// Only `primary_lead` (which must be below `channels`) is analysed.
    pub fn new(
        config: ClinicalConfig,
        patients: usize,
        channels: usize,
        telemetry: TelemetryRegistry,
    ) -> Self {
        assert!(channels > 0, "at least one lead per patient");
        assert!(
            (config.primary_lead as usize) < channels,
            "primary lead {} out of range for {} channels",
            config.primary_lead,
            channels
        );
        let analyzers = (0..patients)
            .map(|_| PatientAnalyzer {
                detector: StreamingQrsDetector::new(config.detector),
                classifier: BeatClassifier::new(config.classifier),
                alarms: AlarmEngine::new(config.alarm),
                started: false,
                conceal_until: 0,
                truth: None,
            })
            .collect();
        ClinicalEngine {
            config,
            patients: analyzers,
            telemetry,
            scratch: Vec::new(),
            detections: Vec::new(),
            transitions: Vec::new(),
        }
    }

    /// Registers ground-truth R-peak annotations for one patient's
    /// primary lead so live sensitivity/PPV flow into telemetry.
    pub fn set_ground_truth(&mut self, stream: usize, truth: Vec<usize>, tolerance: usize) {
        if let Some(p) = self.patients.get_mut(stream) {
            p.truth = Some(TruthScorer::new(truth, tolerance));
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ClinicalConfig {
        &self.config
    }

    /// Current severity of `kind` on `stream` (Normal if out of range).
    pub fn severity(&self, stream: usize, kind: cs_telemetry::AlarmKind) -> AlarmSeverity {
        self.patients
            .get(stream)
            .map_or(AlarmSeverity::Normal, |p| p.alarms.severity(kind))
    }

    /// The patient's truth scorer, if ground truth was registered.
    pub fn truth_scorer(&self, stream: usize) -> Option<&TruthScorer> {
        self.patients.get(stream).and_then(|p| p.truth.as_ref())
    }

    /// Smoothed heart rate of one patient, once seeded.
    pub fn heart_rate_bpm(&self, stream: usize) -> Option<f64> {
        self.patients.get(stream).and_then(|p| p.alarms.heart_rate_bpm())
    }

    /// Feeds one fleet emission. Appends any clinical events to `out`;
    /// steady-state calls are allocation-free once buffers are warm.
    pub fn on_packet<T: Real>(&mut self, pkt: &FleetPacket<T>, out: &mut Vec<ClinicalEvent>) {
        let stream = pkt.stream;
        let Some(patient) = self.patients.get_mut(stream) else {
            return;
        };
        if !patient.started {
            if matches!(pkt.outcome, PacketOutcome::Decoded) {
                patient.started = true;
            } else {
                if pkt.channel == self.config.primary_lead {
                    self.telemetry.record_alarm_suppressed();
                }
                return;
            }
        }
        if pkt.channel != self.config.primary_lead {
            return;
        }
        // The signal clock: samples seen on the primary lead.
        let base = patient.detector.samples_seen();
        self.scratch.clear();
        self.scratch.extend(pkt.packet.samples.iter().map(|&v| v.to_f64()));
        self.detections.clear();
        patient.detector.push_window(&self.scratch, &mut self.detections);
        let now = base + self.scratch.len();

        let trusted = matches!(pkt.outcome, PacketOutcome::Decoded);
        if !trusted {
            patient.conceal_until = now;
            self.telemetry.record_alarm_suppressed();
        }

        self.transitions.clear();
        for i in 0..self.detections.len() {
            let det = self.detections[i];
            if let Some(scorer) = patient.truth.as_mut() {
                scorer.record(det.sample, &self.telemetry);
            }
            let Some(beat) = patient.classifier.classify(det.sample, det.crest) else {
                continue;
            };
            self.telemetry.record_beat(beat.class);
            out.push(ClinicalEvent::Beat { stream, beat });
            if beat.sample >= patient.conceal_until {
                patient.alarms.on_beat(&beat, &mut self.transitions);
            }
        }
        if now >= patient.conceal_until {
            patient.alarms.on_silence(now, patient.conceal_until, &mut self.transitions);
        }

        for i in 0..self.transitions.len() {
            let t = self.transitions[i];
            if t.from == AlarmSeverity::Normal {
                self.telemetry.record_alarm_raised(t.kind);
            } else if t.to == AlarmSeverity::Normal {
                self.telemetry.record_alarm_cleared(t.kind);
            }
            out.push(ClinicalEvent::Alarm { stream, transition: t });
        }
    }

    /// Flushes every patient's detector (end of record) and settles
    /// truth scorers. Call once after the fleet drains.
    pub fn finish(&mut self, out: &mut Vec<ClinicalEvent>) {
        for (stream, patient) in self.patients.iter_mut().enumerate() {
            self.detections.clear();
            patient.detector.flush(&mut self.detections);
            for det in &self.detections {
                if let Some(scorer) = patient.truth.as_mut() {
                    scorer.record(det.sample, &self.telemetry);
                }
                if let Some(beat) = patient.classifier.classify(det.sample, det.crest) {
                    self.telemetry.record_beat(beat.class);
                    out.push(ClinicalEvent::Beat { stream, beat });
                }
            }
            if let Some(scorer) = patient.truth.as_mut() {
                scorer.finish(&self.telemetry);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_telemetry::AlarmKind;

    #[test]
    fn truth_scorer_matches_clean_stream() {
        let telemetry = TelemetryRegistry::new();
        let truth = vec![100, 300, 500, 700];
        let mut s = TruthScorer::new(truth, 13);
        for d in [101, 295, 505, 699] {
            s.record(d, &telemetry);
        }
        s.finish(&telemetry);
        assert_eq!(s.confusion(), (4, 0, 0));
        assert_eq!(s.sensitivity(), Some(1.0));
        assert_eq!(s.ppv(), Some(1.0));
        assert_eq!(telemetry.qrs_confusion(), (4, 0, 0));
    }

    #[test]
    fn truth_scorer_counts_misses_and_extras() {
        let telemetry = TelemetryRegistry::disabled();
        let mut s = TruthScorer::new(vec![100, 300, 500], 13);
        // 100 matched, 200 spurious, 300 missed (no detection), 500 matched.
        for d in [101, 200, 505] {
            s.record(d, &telemetry);
        }
        s.finish(&telemetry);
        assert_eq!(s.confusion(), (2, 1, 1));
    }

    #[test]
    fn truth_scorer_finish_flushes_tail_misses() {
        let telemetry = TelemetryRegistry::disabled();
        let mut s = TruthScorer::new(vec![100, 300, 500], 13);
        s.record(99, &telemetry);
        s.finish(&telemetry);
        s.finish(&telemetry); // idempotent
        assert_eq!(s.confusion(), (1, 0, 2));
    }

    #[test]
    fn severity_defaults_to_normal_out_of_range() {
        let engine = ClinicalEngine::new(
            ClinicalConfig::at_256_hz(),
            1,
            1,
            TelemetryRegistry::disabled(),
        );
        assert_eq!(engine.severity(7, AlarmKind::Asystole), AlarmSeverity::Normal);
    }

    #[test]
    #[should_panic(expected = "primary lead")]
    fn primary_lead_must_exist() {
        let mut cfg = ClinicalConfig::at_256_hz();
        cfg.primary_lead = 2;
        ClinicalEngine::new(cfg, 1, 2, TelemetryRegistry::disabled());
    }
}
