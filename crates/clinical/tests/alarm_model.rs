//! The alarm engine against a reference model.
//!
//! Random sequences of classified beats and detection silences, under
//! random hysteresis settings, go through [`AlarmEngine`] and through
//! `Model` below: per alarm kind, onset after `onset_beats` consecutive
//! abnormal evaluations, immediate escalation once active, a clear after
//! `clear_beats` consecutive normal ones, a critical that also waits
//! `latch_holdoff_s` after its last abnormal evaluation and then drops
//! straight to normal, and asystole raised critical by silence alone.
//! Every transition and every severity must agree after every call.
//!
//! The model only grades what each evaluation observed (the heart-rate
//! EWMA and the PVC count) the way the engine documents it; the state
//! machine is written from the rules above, not from the engine.

use cs_clinical::{AlarmConfig, AlarmEngine, AlarmTransition, ClassifiedBeat};
use cs_telemetry::{AlarmKind, AlarmSeverity, BeatClass};
use proptest::prelude::*;

use AlarmSeverity::{Critical, Normal, Warning};

const KINDS: [AlarmKind; 4] =
    [AlarmKind::Tachycardia, AlarmKind::Bradycardia, AlarmKind::PvcRun, AlarmKind::Asystole];

#[derive(Clone, Copy)]
struct Kind {
    severity: AlarmSeverity,
    onset: usize,
    clear: usize,
    last_abnormal: usize,
}

struct Model {
    config: AlarmConfig,
    kinds: [Kind; 4],
    hr: Option<f64>,
    classes: Vec<BeatClass>,
    last_beat: Option<usize>,
}

impl Model {
    fn new(config: AlarmConfig) -> Self {
        let kind = Kind { severity: Normal, onset: 0, clear: 0, last_abnormal: 0 };
        Model { config, kinds: [kind; 4], hr: None, classes: Vec::new(), last_beat: None }
    }

    fn samples(&self, seconds: f64) -> usize {
        (seconds * self.config.sample_rate_hz) as usize
    }

    /// The state machine: one evaluation of one kind.
    fn step(&mut self, k: usize, seen: AlarmSeverity, at: usize) -> Option<AlarmSeverity> {
        let holdoff = self.samples(self.config.latch_holdoff_s);
        let (onset_beats, clear_beats) = (self.config.onset_beats, self.config.clear_beats);
        let s = &mut self.kinds[k];
        if seen > Normal {
            (s.last_abnormal, s.clear) = (at, 0);
            s.onset += usize::from(s.severity == Normal);
            let raise = seen > s.severity && (s.severity > Normal || s.onset >= onset_beats);
            if raise {
                s.severity = seen;
            }
            return raise.then_some(seen);
        }
        s.onset = 0;
        s.clear += usize::from(s.severity > Normal);
        let latched = s.severity == Critical && at.saturating_sub(s.last_abnormal) < holdoff;
        let release = s.severity > Normal && s.clear >= clear_beats && !latched;
        if release {
            (s.severity, s.clear) = (Normal, 0);
        }
        release.then_some(Normal)
    }

    fn on_silence(&mut self, now: usize, floor: usize) -> Vec<(usize, AlarmSeverity)> {
        let anchor = self.last_beat.unwrap_or(0).max(floor);
        if now.saturating_sub(anchor) <= self.samples(self.config.asystole_timeout_s) {
            return Vec::new();
        }
        let s = &mut self.kinds[3];
        (s.last_abnormal, s.clear) = (now, 0);
        let raise = s.severity < Critical;
        s.severity = Critical;
        if raise { vec![(3, Critical)] } else { Vec::new() }
    }

    fn on_beat(&mut self, beat: &ClassifiedBeat) -> Vec<(usize, AlarmSeverity)> {
        let c = self.config;
        self.last_beat = Some(beat.sample);
        if beat.rr_samples > 0.0 {
            let bpm = 60.0 * c.sample_rate_hz / beat.rr_samples;
            let hr = self.hr.get_or_insert(bpm);
            *hr += c.hr_alpha * (bpm - *hr);
        }
        let Some(hr) = self.hr else { return Vec::new() };
        self.classes.push(beat.class);
        let window = &self.classes[self.classes.len().saturating_sub(c.pvc_window_beats)..];
        let pvcs = window.iter().filter(|&&b| b == BeatClass::Pvc).count();
        let grade = |critical: bool, warning: bool| match (critical, warning) {
            (true, _) => Critical,
            (false, true) => Warning,
            _ => Normal,
        };
        let seen = [
            grade(hr > c.tachy_critical_bpm, hr > c.tachy_warning_bpm),
            grade(hr < c.brady_critical_bpm, hr < c.brady_warning_bpm),
            grade(pvcs >= c.pvc_run_critical, pvcs >= c.pvc_run_warning),
            Normal,
        ];
        (0..4).filter_map(|k| self.step(k, seen[k], beat.sample).map(|to| (k, to))).collect()
    }
}

/// The engine's transitions as `(kind index, to)`, checking `from`
/// against the severity the model held before the call.
fn engine_moves(
    out: &[AlarmTransition],
    before: &[AlarmSeverity; 4],
    at: usize,
) -> Result<Vec<(usize, AlarmSeverity)>, TestCaseError> {
    out.iter()
        .map(|t| {
            let k = KINDS.iter().position(|&kind| kind == t.kind).unwrap();
            prop_assert_eq!(t.from, before[k], "{:?} moved from the wrong severity", t.kind);
            prop_assert_eq!(t.sample, at, "{:?} stamped at the wrong sample", t.kind);
            Ok((k, t.to))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn alarm_engine_matches_the_model(
        hysteresis in (1usize..5, 1usize..7, 0u32..8, 1u32..6, 1usize..12),
        events in proptest::collection::vec((0u8..10, 40usize..700, 0u8..10), 1..160),
    ) {
        let (onset_beats, clear_beats, holdoff_s, timeout_s, pvc_window_beats) = hysteresis;
        let config = AlarmConfig {
            onset_beats,
            clear_beats,
            latch_holdoff_s: holdoff_s as f64,
            asystole_timeout_s: timeout_s as f64,
            pvc_window_beats,
            ..AlarmConfig::at_256_hz()
        };
        let mut engine = AlarmEngine::new(config);
        let mut model = Model::new(config);
        let mut now = 0usize;
        let mut last_beat = None;
        let mut out = Vec::new();
        for (what, gap, class) in events {
            now += gap;
            let before = model.kinds.map(|k| k.severity);
            out.clear();
            let expected = if what < 7 {
                let class = match class {
                    0..=1 => BeatClass::Pvc,
                    2 => BeatClass::Apc,
                    _ => BeatClass::Normal,
                };
                let rr = last_beat.map_or(0.0, |b| (now - b) as f64);
                let beat = ClassifiedBeat { sample: now, class, rr_samples: rr };
                last_beat = Some(now);
                engine.on_beat(&beat, &mut out);
                model.on_beat(&beat)
            } else {
                // Silence; a concealed stretch may lift the floor.
                now += gap * usize::from(what);
                let floor = if class < 3 { now - gap } else { 0 };
                engine.on_silence(now, floor, &mut out);
                model.on_silence(now, floor)
            };
            prop_assert_eq!(engine_moves(&out, &before, now)?, expected, "at sample {}", now);
            for (k, kind) in KINDS.iter().enumerate() {
                prop_assert_eq!(engine.severity(*kind), model.kinds[k].severity, "{:?}", kind);
            }
            prop_assert_eq!(engine.any_active(), model.kinds.iter().any(|k| k.severity > Normal));
        }
    }
}
