//! Dynamical-model ECG synthesis.
//!
//! The MIT-BIH Arrhythmia Database the paper evaluates on cannot be bundled
//! here, so this module implements the standard substitute: the McSharry–
//! Clifford–Tarassenko dynamical model (IEEE TBME 2003, the model behind
//! `ECGSYN`). A trajectory moves around a unit limit cycle; each of the
//! P, Q, R, S and T events is a Gaussian bump attached to an angle on the
//! cycle, and the vertical coordinate `z(t)` traces a realistic ECG:
//!
//! ```text
//!   θ̇ = ω                       (angular velocity, set per beat from RR)
//!   ż = −Σᵢ aᵢ Δθᵢ exp(−Δθᵢ²/(2bᵢ²)) − (z − z₀(t))
//! ```
//!
//! with `Δθᵢ = (θ − θᵢ) mod 2π` and a respiration-coupled baseline `z₀`.
//! Beat-to-beat RR intervals follow an AR(1) process with respiratory
//! sinus-arrhythmia modulation, and individual beats can be replaced by
//! ectopic morphologies (PVC/APC) to emulate the arrhythmia content of the
//! original database. What matters for compressed sensing — the sharp QRS
//! support, the smooth P/T lobes, the quasi-periodicity the inter-packet
//! differencing exploits — is all reproduced by this construction.
//!
//! Leads are projections of one trajectory: a lead scales each event's
//! aᵢ by its own gain, and nothing else differs. A multi-lead record
//! therefore costs one θ trajectory and one rhythm draw; the per-event
//! Gaussians are evaluated once per RK4 stage and shared by every lead,
//! and each lead integrates only its own `z`. The database projects
//! twice — identity for channel 0, one shared set of gains for channels
//! 1.., which thus carry the same clean trace (with independent noise).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The class of a synthesized heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum BeatType {
    /// A normal sinus beat.
    Normal,
    /// A premature ventricular contraction: wide, high-amplitude QRS with
    /// no preceding P wave and a compensatory pause.
    Pvc,
    /// An atrial premature contraction: early, slightly abnormal P wave
    /// with an otherwise narrow QRS.
    Apc,
}

/// One Gaussian event of the limit-cycle model.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WaveEvent {
    /// Event angle θᵢ on the cycle (radians, R peak at 0).
    theta: f64,
    /// Event magnitude aᵢ.
    a: f64,
    /// Event angular width bᵢ.
    b: f64,
}

/// Morphology: the five wave events of one beat class for one lead.
#[derive(Debug, Clone, PartialEq)]
struct Morphology {
    events: [WaveEvent; 5],
}

impl Morphology {
    /// McSharry et al.'s published normal-beat parameters.
    fn normal() -> Self {
        let pi = std::f64::consts::PI;
        Morphology {
            events: [
                WaveEvent { theta: -pi / 3.0, a: 1.2, b: 0.25 },  // P
                WaveEvent { theta: -pi / 12.0, a: -5.0, b: 0.1 }, // Q
                WaveEvent { theta: 0.0, a: 30.0, b: 0.1 },        // R
                WaveEvent { theta: pi / 12.0, a: -7.5, b: 0.1 },  // S
                WaveEvent { theta: pi / 2.0, a: 0.75, b: 0.4 },   // T
            ],
        }
    }

    /// PVC: no P wave, wide and deep QRS complex, discordant T.
    fn pvc() -> Self {
        let pi = std::f64::consts::PI;
        Morphology {
            events: [
                WaveEvent { theta: -pi / 3.0, a: 0.0, b: 0.25 },   // P absent
                WaveEvent { theta: -pi / 9.0, a: -8.0, b: 0.22 },  // wide Q
                WaveEvent { theta: 0.0, a: 38.0, b: 0.22 },        // wide R
                WaveEvent { theta: pi / 9.0, a: -12.0, b: 0.22 },  // wide S
                WaveEvent { theta: pi / 2.0, a: -1.8, b: 0.5 },    // inverted T
            ],
        }
    }

    /// APC: early, small, re-shaped P wave; normal QRS.
    fn apc() -> Self {
        let pi = std::f64::consts::PI;
        Morphology {
            events: [
                WaveEvent { theta: -pi / 2.4, a: 0.8, b: 0.18 },  // early P
                WaveEvent { theta: -pi / 12.0, a: -5.0, b: 0.1 },
                WaveEvent { theta: 0.0, a: 30.0, b: 0.1 },
                WaveEvent { theta: pi / 12.0, a: -7.5, b: 0.1 },
                WaveEvent { theta: pi / 2.0, a: 0.75, b: 0.4 },
            ],
        }
    }

    fn for_beat(beat: BeatType) -> Self {
        match beat {
            BeatType::Normal => Morphology::normal(),
            BeatType::Pvc => Morphology::pvc(),
            BeatType::Apc => Morphology::apc(),
        }
    }

    /// Projects the morphology onto a second lead by scaling each event —
    /// a crude but effective stand-in for a different electrode placement.
    fn project(&self, gains: &[f64; 5]) -> Self {
        let mut events = self.events;
        for (e, g) in events.iter_mut().zip(gains) {
            e.a *= g;
        }
        Morphology { events }
    }
}

/// Configuration of the beat-level rhythm generator.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RhythmConfig {
    /// Mean heart rate in beats per minute.
    pub mean_heart_rate_bpm: f64,
    /// Standard deviation of the beat-to-beat RR fluctuation (seconds).
    pub rr_std_s: f64,
    /// AR(1) coefficient of the RR series (0 = white, →1 = slow drift).
    pub rr_ar_coeff: f64,
    /// Peak-to-peak respiratory sinus-arrhythmia modulation (seconds).
    pub rsa_depth_s: f64,
    /// Respiration frequency in Hz.
    pub respiration_hz: f64,
    /// Probability that any given beat is a PVC.
    pub pvc_probability: f64,
    /// Probability that any given beat is an APC.
    pub apc_probability: f64,
}

impl Default for RhythmConfig {
    fn default() -> Self {
        RhythmConfig {
            mean_heart_rate_bpm: 72.0,
            rr_std_s: 0.03,
            rr_ar_coeff: 0.8,
            rsa_depth_s: 0.05,
            respiration_hz: 0.25,
            pvc_probability: 0.0,
            apc_probability: 0.0,
        }
    }
}

/// Full synthesizer configuration.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EcgModelConfig {
    /// Output sampling rate in Hz (MIT-BIH records use 360).
    pub sample_rate_hz: f64,
    /// Target peak-to-peak amplitude of the clean ECG in millivolts.
    pub amplitude_mv: f64,
    /// Rhythm (RR-interval and ectopy) parameters.
    pub rhythm: RhythmConfig,
    /// Baseline-coupling gain of the respiration term `z₀`.
    pub baseline_coupling_mv: f64,
}

impl Default for EcgModelConfig {
    fn default() -> Self {
        EcgModelConfig {
            sample_rate_hz: 360.0,
            amplitude_mv: 2.0,
            rhythm: RhythmConfig::default(),
            baseline_coupling_mv: 0.01,
        }
    }
}

/// A synthesized beat boundary, reported alongside the samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BeatAnnotation {
    /// Sample index of the R peak (θ = 0 crossing).
    pub sample: usize,
    /// Beat class.
    pub beat: BeatType,
}

/// The dynamical-model ECG generator.
///
/// # Examples
///
/// ```
/// use cs_ecg_data::{EcgModel, EcgModelConfig};
///
/// let mut model = EcgModel::new(EcgModelConfig::default(), 42);
/// let (signal, beats) = model.synthesize(10.0); // 10 s at 360 Hz
/// assert_eq!(signal.len(), 3600);
/// // ~72 bpm ⇒ roughly 12 beats in 10 s.
/// assert!(beats.len() >= 9 && beats.len() <= 15, "{} beats", beats.len());
/// ```
#[derive(Debug, Clone)]
pub struct EcgModel {
    config: EcgModelConfig,
    rng: StdRng,
    /// AR(1) state of the RR fluctuation.
    rr_state: f64,
    /// Lead gains applied to every morphology (identity for lead I).
    lead_gains: [f64; 5],
}

impl EcgModel {
    /// Creates a generator with the given configuration and seed.
    pub fn new(config: EcgModelConfig, seed: u64) -> Self {
        EcgModel {
            config,
            rng: StdRng::seed_from_u64(seed),
            rr_state: 0.0,
            lead_gains: [1.0; 5],
        }
    }

    /// Creates a generator whose morphologies are projected onto a second
    /// lead (different relative wave amplitudes), for two-channel records.
    pub fn with_lead_gains(config: EcgModelConfig, seed: u64, gains: [f64; 5]) -> Self {
        EcgModel {
            config,
            rng: StdRng::seed_from_u64(seed),
            rr_state: 0.0,
            lead_gains: gains,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EcgModelConfig {
        &self.config
    }

    /// Draws the next RR interval (seconds) and beat class.
    fn next_beat(&mut self, t: f64) -> (f64, BeatType) {
        let r = &self.config.rhythm;
        let mean_rr = 60.0 / r.mean_heart_rate_bpm;
        // AR(1) fluctuation.
        let innovation_std = r.rr_std_s * (1.0 - r.rr_ar_coeff * r.rr_ar_coeff).sqrt();
        let z: f64 = standard_normal(&mut self.rng);
        self.rr_state = r.rr_ar_coeff * self.rr_state + innovation_std * z;
        // Respiratory sinus arrhythmia.
        let rsa =
            0.5 * r.rsa_depth_s * (2.0 * std::f64::consts::PI * r.respiration_hz * t).sin();
        let u: f64 = self.rng.gen();
        let (beat, rr) = if u < r.pvc_probability {
            // Premature, followed (implicitly) by a longer cycle because the
            // AR state is pulled down only for this beat.
            (BeatType::Pvc, mean_rr * 0.65)
        } else if u < r.pvc_probability + r.apc_probability {
            (BeatType::Apc, mean_rr * 0.8)
        } else {
            (BeatType::Normal, mean_rr + self.rr_state + rsa)
        };
        (rr.max(0.3), beat)
    }

    /// Synthesizes `duration_s` seconds of single-lead ECG in millivolts,
    /// returning the samples and the beat annotations.
    ///
    /// # Panics
    ///
    /// Panics if `duration_s` is not positive.
    pub fn synthesize(&mut self, duration_s: f64) -> (Vec<f64>, Vec<BeatAnnotation>) {
        let gains = [self.lead_gains];
        let (mut leads, beats) = self.synthesize_leads(duration_s, &gains);
        (leads.swap_remove(0), beats)
    }

    /// Synthesizes one lead per entry of `gains` from a single θ trajectory
    /// and rhythm draw: every lead sees the same beats, each through its
    /// own projection of the morphology, with its own `z` and its own
    /// peak-to-peak normalisation. Each lead's samples are bit-identical
    /// to what [`EcgModel::synthesize`] gives a model with those lead gains
    /// and this seed.
    ///
    /// Per step and per event, the wrapped offset `Δθᵢ` and the Gaussian
    /// `exp(−Δθᵢ²/(2bᵢ²))` are evaluated once and shared by every lead.
    /// The RK4 stages share them too: the right-hand side's event terms
    /// depend on θ alone, so k2 and k3 use one set (both sit at the half
    /// step), and k4's set is the next step's k1 set unless θ wraps and the
    /// next beat brings a new ω and morphology.
    pub(crate) fn synthesize_leads(
        &mut self,
        duration_s: f64,
        gains: &[[f64; 5]],
    ) -> (Vec<Vec<f64>>, Vec<BeatAnnotation>) {
        assert!(duration_s > 0.0, "synthesize: duration must be positive");
        let fs = self.config.sample_rate_hz;
        let n = (duration_s * fs).round() as usize;
        let dt = 1.0 / fs;
        let two_pi = 2.0 * std::f64::consts::PI;

        let mut leads: Vec<Lead> = gains
            .iter()
            .map(|&gains| Lead {
                gains,
                a: [0.0; 5],
                z: 0.0,
                samples: Vec::with_capacity(n),
            })
            .collect();
        let mut beats = Vec::new();

        // Integration state.
        let mut theta = -std::f64::consts::PI; // start mid-diastole
        let (rr, beat) = self.next_beat(0.0);
        let mut shape = BeatShape::new(beat, two_pi / rr, &mut leads);

        // Event terms of every lead at the step's start, half step and end.
        let mut start = vec![[0.0; 5]; leads.len()];
        let mut mid = start.clone();
        let mut end = start.clone();
        shape.terms(theta, &leads, &mut start);

        for i in 0..n {
            let t = i as f64 * dt;
            // Baseline respiratory coupling.
            let z0 = self.config.baseline_coupling_mv
                * (two_pi * self.config.rhythm.respiration_hz * t).sin();

            // RK4 on ż; θ advances linearly within a beat.
            let omega = shape.omega;
            let next_theta = theta + dt * omega;
            shape.terms(theta + 0.5 * dt * omega, &leads, &mut mid);
            shape.terms(next_theta, &leads, &mut end);
            for (l, lead) in leads.iter_mut().enumerate() {
                let z = lead.z;
                let k1 = lead.dz(z, z0, &start[l]);
                let k2 = lead.dz(z + 0.5 * dt * k1, z0, &mid[l]);
                let k3 = lead.dz(z + 0.5 * dt * k2, z0, &mid[l]);
                let k4 = lead.dz(z + dt * k3, z0, &end[l]);
                lead.z += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
                lead.samples.push(lead.z);
            }

            let prev_theta = theta;
            theta = next_theta;

            // R-peak annotation: θ crosses 0 upward.
            if prev_theta < 0.0 && theta >= 0.0 {
                beats.push(BeatAnnotation { sample: i, beat: shape.beat });
            }

            // Beat boundary: θ wraps at +π → start next cycle at −π, with a
            // new ω and morphology, so the next k1 terms are fresh.
            if theta >= std::f64::consts::PI {
                theta -= two_pi;
                let (next_rr, next_beat) = self.next_beat(t);
                shape = BeatShape::new(next_beat, two_pi / next_rr, &mut leads);
                shape.terms(theta, &leads, &mut start);
            } else {
                std::mem::swap(&mut start, &mut end);
            }
        }

        let samples = leads
            .into_iter()
            .map(|lead| self.normalize(lead.samples))
            .collect();
        (samples, beats)
    }

    /// Normalizes peak-to-peak to the configured amplitude.
    fn normalize(&self, mut samples: Vec<f64>) -> Vec<f64> {
        let (min, max) = samples
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let span = max - min;
        if span > 0.0 {
            let scale = self.config.amplitude_mv / span;
            let mid = (max + min) / 2.0;
            for v in &mut samples {
                *v = (*v - mid) * scale;
            }
        }
        samples
    }
}

/// One lead of a joint synthesis: its projection, the projected event
/// amplitudes of the beat in progress, and its integration state.
struct Lead {
    gains: [f64; 5],
    /// Event magnitudes aᵢ of the current beat, projected onto this lead.
    a: [f64; 5],
    z: f64,
    samples: Vec<f64>,
}

impl Lead {
    /// `ż` at `z`, given this lead's event terms at the stage's θ: the
    /// baseline pull minus each term in event order, skipping the events
    /// this lead does not carry.
    #[inline]
    fn dz(&self, z: f64, z0: f64, terms: &[f64; 5]) -> f64 {
        let mut dz = -(z - z0);
        for (&a, &term) in self.a.iter().zip(terms) {
            if a != 0.0 {
                dz -= term;
            }
        }
        dz
    }
}

/// The beat in progress: its class, angular velocity and the event
/// geometry every lead shares.
struct BeatShape {
    beat: BeatType,
    omega: f64,
    /// Event angles θᵢ.
    theta: [f64; 5],
    /// Gaussian denominators 2bᵢ².
    width: [f64; 5],
    /// Whether any lead carries event i.
    live: [bool; 5],
}

impl BeatShape {
    /// Starts a beat of class `beat` at angular velocity `omega`, and
    /// projects its morphology onto every lead.
    fn new(beat: BeatType, omega: f64, leads: &mut [Lead]) -> Self {
        let morph = Morphology::for_beat(beat);
        let mut shape = BeatShape {
            beat,
            omega,
            theta: [0.0; 5],
            width: [0.0; 5],
            live: [false; 5],
        };
        for (i, e) in morph.events.iter().enumerate() {
            shape.theta[i] = e.theta;
            shape.width[i] = 2.0 * e.b * e.b;
        }
        for lead in leads {
            lead.a = morph.project(&lead.gains).events.map(|e| e.a);
            for (live, &a) in shape.live.iter_mut().zip(&lead.a) {
                *live |= a != 0.0;
            }
        }
        shape
    }

    /// Every lead's event terms `aᵢ·ω·Δθᵢ·exp(−Δθᵢ²/(2bᵢ²))` at angle
    /// `th`, with `Δθᵢ` wrapped to (−π, π]. The offset and the Gaussian
    /// are computed once per event; each lead scales them by its own aᵢ.
    #[inline]
    fn terms(&self, th: f64, leads: &[Lead], out: &mut [[f64; 5]]) {
        let pi = std::f64::consts::PI;
        for i in 0..5 {
            if !self.live[i] {
                continue;
            }
            let mut dth = th - self.theta[i];
            while dth > pi {
                dth -= 2.0 * pi;
            }
            while dth <= -pi {
                dth += 2.0 * pi;
            }
            let gaussian = (-dth * dth / self.width[i]).exp();
            for (terms, lead) in out.iter_mut().zip(leads) {
                terms[i] = lead.a[i] * self.omega * dth * gaussian;
            }
        }
    }
}

/// Standard-normal draw via Box–Muller on the `rand` uniform stream.
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u: f64 = 1.0 - rng.gen::<f64>();
    let v: f64 = rng.gen();
    (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_signal(seed: u64, secs: f64) -> (Vec<f64>, Vec<BeatAnnotation>) {
        EcgModel::new(EcgModelConfig::default(), seed).synthesize(secs)
    }

    #[test]
    fn deterministic_for_seed() {
        let (a, ba) = default_signal(1, 5.0);
        let (b, bb) = default_signal(1, 5.0);
        assert_eq!(a, b);
        assert_eq!(ba, bb);
        let (c, _) = default_signal(2, 5.0);
        assert_ne!(a, c);
    }

    #[test]
    fn amplitude_is_normalized() {
        let (s, _) = default_signal(3, 10.0);
        let max = s.iter().cloned().fold(f64::MIN, f64::max);
        let min = s.iter().cloned().fold(f64::MAX, f64::min);
        assert!((max - min - 2.0).abs() < 1e-9, "p2p = {}", max - min);
    }

    #[test]
    fn beat_rate_matches_config() {
        let mut cfg = EcgModelConfig::default();
        cfg.rhythm.mean_heart_rate_bpm = 120.0;
        let (_, beats) = EcgModel::new(cfg, 4).synthesize(30.0);
        // 120 bpm over 30 s ⇒ ~60 beats.
        assert!(
            (50..=70).contains(&beats.len()),
            "{} beats at 120 bpm / 30 s",
            beats.len()
        );
    }

    #[test]
    fn r_peaks_are_local_maxima() {
        let (s, beats) = default_signal(5, 20.0);
        // The annotated sample should be within a few samples of a local max
        // that towers over the record mean.
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        for b in &beats {
            let lo = b.sample.saturating_sub(8);
            let hi = (b.sample + 8).min(s.len() - 1);
            let peak = s[lo..=hi].iter().cloned().fold(f64::MIN, f64::max);
            assert!(
                peak > mean + 0.4,
                "no prominent peak near annotated R at {}",
                b.sample
            );
        }
    }

    #[test]
    fn pvc_beats_are_generated_and_differ() {
        let mut cfg = EcgModelConfig::default();
        cfg.rhythm.pvc_probability = 0.3;
        let (_, beats) = EcgModel::new(cfg, 6).synthesize(60.0);
        let pvcs = beats.iter().filter(|b| b.beat == BeatType::Pvc).count();
        assert!(pvcs >= 5, "only {pvcs} PVCs in 60 s at p=0.3");
        assert!(beats.iter().any(|b| b.beat == BeatType::Normal));
    }

    #[test]
    fn second_lead_differs_from_first() {
        let cfg = EcgModelConfig::default();
        let (a, _) = EcgModel::new(cfg.clone(), 7).synthesize(5.0);
        let (b, _) =
            EcgModel::with_lead_gains(cfg, 7, [0.6, -0.4, 0.9, -0.6, 1.3]).synthesize(5.0);
        let diff: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1.0, "leads are identical");
    }

    #[test]
    fn joint_leads_match_single_lead_synthesis_bit_for_bit() {
        let mut cfg = EcgModelConfig::default();
        cfg.rhythm.pvc_probability = 0.2;
        cfg.rhythm.apc_probability = 0.1;
        // The third projection zeroes the Q wave and the PVC's P is absent
        // in all three, so events carried by some leads only are covered.
        let gains = [[1.0; 5], [0.6, -0.4, 0.9, -0.6, 1.3], [1.1, 0.0, 0.7, -0.2, 0.9]];
        let (joint, joint_beats) =
            EcgModel::new(cfg.clone(), 9).synthesize_leads(20.0, &gains);
        assert_eq!(joint.len(), gains.len());
        for (lead, g) in joint.iter().zip(gains) {
            let (alone, beats) = EcgModel::with_lead_gains(cfg.clone(), 9, g).synthesize(20.0);
            assert_eq!(beats, joint_beats);
            assert!(
                lead.iter().zip(&alone).all(|(a, b)| a.to_bits() == b.to_bits()),
                "lead {g:?} moved under joint synthesis"
            );
            assert_eq!(lead.len(), alone.len());
        }
    }

    #[test]
    fn signal_is_sparse_in_wavelet_domain() {
        // The property the whole system rests on: most energy in few coeffs.
        use cs_dsp::wavelet::{Dwt, Wavelet};
        let (s, _) = default_signal(8, 512.0 / 360.0 + 0.01);
        let x = &s[..512];
        let dwt: Dwt<f64> = Dwt::new(&Wavelet::daubechies(4).unwrap(), 512, 5).unwrap();
        let c = dwt.analyze(x);
        let total: f64 = c.iter().map(|v| v * v).sum();
        let mut mags: Vec<f64> = c.iter().map(|v| v * v).collect();
        mags.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top: f64 = mags[..64].iter().sum();
        assert!(top / total > 0.97, "top-64 energy fraction {}", top / total);
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn zero_duration_panics() {
        let _ = EcgModel::new(EcgModelConfig::default(), 1).synthesize(0.0);
    }
}
