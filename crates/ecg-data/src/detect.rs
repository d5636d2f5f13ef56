//! QRS detection — a Pan–Tompkins-style R-peak detector.
//!
//! The clinical value of a compressed ECG is whether downstream analysis
//! still works (§I: "clinical relevance"). The canonical first stage of
//! any such analysis is QRS detection, so this module implements the
//! classic Pan–Tompkins pipeline (1985), simplified to the parts that
//! matter at 256–360 Hz:
//!
//! ```text
//!   band-pass (5–20 Hz FIR) → derivative → squaring → moving-window
//!   integration → adaptive threshold with refractory period
//! ```
//!
//! The `arrhythmia_monitor` example scores this detector on reconstructed
//! signals against the synthesizer's ground-truth annotations.

use crate::model::BeatAnnotation;
use cs_dsp::fir::{convolve, lowpass_sinc, ConvMode};
use cs_dsp::window::hamming;

/// Configuration of the QRS detector.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct QrsDetectorConfig {
    /// Sampling rate of the input in Hz.
    pub sample_rate_hz: f64,
    /// Refractory period in seconds (no two beats closer than this).
    pub refractory_s: f64,
    /// Threshold as a fraction of the running integrated-energy peak.
    pub threshold_fraction: f64,
    /// Moving-integration window length in seconds (≈ QRS width).
    pub integration_window_s: f64,
}

impl QrsDetectorConfig {
    /// Defaults tuned for the 256 Hz decoder output.
    pub fn at_256_hz() -> Self {
        QrsDetectorConfig {
            sample_rate_hz: 256.0,
            refractory_s: 0.25,
            threshold_fraction: 0.35,
            integration_window_s: 0.11,
        }
    }

    /// Defaults for raw 360 Hz records.
    pub fn at_360_hz() -> Self {
        QrsDetectorConfig {
            sample_rate_hz: 360.0,
            ..QrsDetectorConfig::at_256_hz()
        }
    }
}

/// Detects R peaks, returning their sample indices in ascending order.
///
/// # Panics
///
/// Panics if the configuration has a non-positive sample rate or the
/// threshold fraction is outside `(0, 1)`.
///
/// # Examples
///
/// ```
/// use cs_ecg_data::{detect_r_peaks, EcgModel, EcgModelConfig, QrsDetectorConfig};
///
/// let mut model = EcgModel::new(EcgModelConfig::default(), 5);
/// let (signal, beats) = model.synthesize(20.0);
/// let detected = detect_r_peaks(&signal, &QrsDetectorConfig::at_360_hz());
/// // Essentially every annotated beat is found.
/// assert!(detected.len() >= beats.len().saturating_sub(2));
/// ```
pub fn detect_r_peaks(signal: &[f64], config: &QrsDetectorConfig) -> Vec<usize> {
    assert!(config.sample_rate_hz > 0.0, "detect_r_peaks: bad sample rate");
    assert!(
        config.threshold_fraction > 0.0 && config.threshold_fraction < 1.0,
        "detect_r_peaks: threshold fraction outside (0, 1)"
    );
    let fs = config.sample_rate_hz;
    if signal.len() < (0.5 * fs) as usize {
        return Vec::new();
    }

    // 1. Band-pass ≈ 5–20 Hz: difference of two windowed-sinc low-passes.
    let lp_hi = lowpass_sinc::<f64>((20.0 / fs).min(0.45), &hamming(31));
    let lp_lo = lowpass_sinc::<f64>((5.0 / fs).min(0.4), &hamming(31));
    let smooth_hi = convolve(signal, &lp_hi, ConvMode::Same);
    let smooth_lo = convolve(signal, &lp_lo, ConvMode::Same);
    let band: Vec<f64> = smooth_hi
        .iter()
        .zip(&smooth_lo)
        .map(|(a, b)| a - b)
        .collect();

    // 2–3. Five-point derivative, then squaring.
    let mut energy = vec![0.0_f64; band.len()];
    for i in 2..band.len().saturating_sub(2) {
        let d = (2.0 * band[i + 2] + band[i + 1] - band[i - 1] - 2.0 * band[i - 2]) / 8.0;
        energy[i] = d * d;
    }

    // 4. Moving-window integration.
    let w = ((config.integration_window_s * fs) as usize).max(1);
    let mut integrated = vec![0.0_f64; energy.len()];
    let mut acc = 0.0;
    for i in 0..energy.len() {
        acc += energy[i];
        if i >= w {
            acc -= energy[i - w];
        }
        integrated[i] = acc / w as f64;
    }

    // 5. Pan–Tompkins dual running estimates: a signal-peak level (SPKI)
    //    and a noise-peak level (NPKI); the threshold floats between them
    //    so one giant ectopic beat cannot mask subsequent normal beats.
    let refractory = (config.refractory_s * fs) as usize;
    let warmup = (2.0 * fs) as usize;
    let init_peak = integrated[..warmup.min(integrated.len())]
        .iter()
        .cloned()
        .fold(0.0_f64, f64::max);
    if init_peak <= 0.0 {
        return Vec::new();
    }
    let mut spki = 0.5 * init_peak;
    let mut npki = 0.05 * init_peak;
    let frac = config.threshold_fraction;
    // Pan–Tompkins searchback state: the running RR average and the best
    // sub-threshold crest seen since the last accepted beat. When no beat
    // arrives for 1.66× the expected RR, the detector has almost
    // certainly *missed* one (a run of tall ectopics ratchets SPKI up
    // faster than normal beats can pull it down), so the strongest
    // rejected crest in the gap is accepted at half threshold and SPKI is
    // yanked toward it — without this the miss is self-reinforcing: only
    // ectopics keep crossing the inflated threshold, and each one feeds
    // SPKI again.
    let mut rr_avg: Option<f64> = None;
    let mut candidate: Option<(usize, f64)> = None;
    let mut detections: Vec<usize> = Vec::new();
    for i in 1..integrated.len().saturating_sub(1) {
        if let (Some(&last), Some(rr), Some((cand, cv))) =
            (detections.last(), rr_avg, candidate)
        {
            if i.saturating_sub(last) as f64 > SEARCHBACK_RR_FACTOR * rr
                && cand.saturating_sub(last) > refractory
            {
                detections.push(cand);
                spki = 0.25 * cv.min(2.0 * spki) + 0.75 * spki;
                rr_avg = Some(rr + 0.125 * ((cand - last) as f64 - rr));
                candidate = None;
            }
        }
        let v = integrated[i];
        // Local maxima of the integrated energy only.
        if !(v >= integrated[i - 1] && v >= integrated[i + 1] && v > 0.0) {
            continue;
        }
        let threshold = npki + frac * (spki - npki);
        let in_refractory = detections
            .last()
            .is_some_and(|&last| i.saturating_sub(last) <= refractory);
        if v > threshold && !in_refractory {
            // Refine to the band-passed extremum near the crest.
            let refined = refine_crest(&band, i, w);
            if detections
                .last()
                .is_none_or(|&last| refined.saturating_sub(last) > refractory)
            {
                if let Some(&last) = detections.last() {
                    let rr = (refined - last) as f64;
                    rr_avg = Some(match rr_avg {
                        Some(avg) => avg + 0.125 * (rr - avg),
                        None => rr,
                    });
                }
                detections.push(refined);
                candidate = None;
                // Cap the contribution of one crest so a single giant
                // ectopic beat cannot launch SPKI out of reach of the
                // following normal beats.
                spki = 0.125 * v.min(2.0 * spki) + 0.875 * spki;
                continue;
            }
        }
        if !in_refractory {
            if v > 0.5 * threshold {
                let refined = refine_crest(&band, i, w);
                if candidate.is_none_or(|(_, cv)| v > cv) {
                    candidate = Some((refined, v));
                }
            }
            npki = 0.125 * v.min(spki) + 0.875 * npki;
            // Noise estimate may never swallow the signal estimate.
            npki = npki.min(0.8 * spki);
        }
    }
    detections
}

/// Gap length, as a multiple of the running RR average, after which the
/// searchback accepts the best half-threshold crest (Pan–Tompkins 1985).
pub const SEARCHBACK_RR_FACTOR: f64 = 1.66;

/// Refines an integrated-energy crest at `i` to the band-passed extremum
/// in the window `[i − w, i + w/2]`.
fn refine_crest(band: &[f64], i: usize, w: usize) -> usize {
    let start = i.saturating_sub(w);
    let end = (i + w / 2).min(band.len() - 1);
    (start..=end)
        .max_by(|&a, &b| {
            band[a]
                .abs()
                .partial_cmp(&band[b].abs())
                .expect("finite band values")
        })
        .unwrap_or(i)
}

/// Sensitivity and positive predictivity of detections against annotated
/// beats, with a symmetric tolerance window in samples.
///
/// Returns `(sensitivity, positive_predictivity)` in `[0, 1]`.
///
/// # Examples
///
/// ```
/// use cs_ecg_data::{score_detections, BeatAnnotation, BeatType};
///
/// let truth = vec![
///     BeatAnnotation { sample: 100, beat: BeatType::Normal },
///     BeatAnnotation { sample: 300, beat: BeatType::Normal },
/// ];
/// let (se, ppv) = score_detections(&truth, &[102, 295, 500], 10);
/// assert_eq!(se, 1.0);       // both beats found
/// assert!((ppv - 2.0 / 3.0).abs() < 1e-12); // one false positive
/// ```
pub fn score_detections(
    truth: &[BeatAnnotation],
    detections: &[usize],
    tolerance: usize,
) -> (f64, f64) {
    if truth.is_empty() || detections.is_empty() {
        return (0.0, 0.0);
    }
    let hit = |target: usize| detections.iter().any(|&d| d.abs_diff(target) <= tolerance);
    let tp = truth.iter().filter(|b| hit(b.sample)).count();
    let matched = detections
        .iter()
        .filter(|&&d| truth.iter().any(|b| d.abs_diff(b.sample) <= tolerance))
        .count();
    (
        tp as f64 / truth.len() as f64,
        matched as f64 / detections.len() as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{EcgModel, EcgModelConfig};
    use crate::noise::{noise_trace, NoiseConfig};

    #[test]
    fn clean_ecg_detected_nearly_perfectly() {
        let mut model = EcgModel::new(EcgModelConfig::default(), 3);
        let (signal, beats) = model.synthesize(30.0);
        let detected = detect_r_peaks(&signal, &QrsDetectorConfig::at_360_hz());
        let (se, ppv) = score_detections(&beats, &detected, 18); // ±50 ms
        assert!(se > 0.95, "sensitivity {se}");
        assert!(ppv > 0.95, "predictivity {ppv}");
    }

    #[test]
    fn noisy_ecg_still_detected() {
        let mut model = EcgModel::new(EcgModelConfig::default(), 4);
        let (clean, beats) = model.synthesize(30.0);
        let noise = noise_trace(&NoiseConfig::default(), 360.0, clean.len(), 9);
        let noisy: Vec<f64> = clean.iter().zip(&noise).map(|(c, n)| c + n).collect();
        let detected = detect_r_peaks(&noisy, &QrsDetectorConfig::at_360_hz());
        let (se, ppv) = score_detections(&beats, &detected, 18);
        assert!(se > 0.9, "sensitivity {se}");
        assert!(ppv > 0.9, "predictivity {ppv}");
    }

    #[test]
    fn tachycardia_respects_refractory() {
        let mut cfg = EcgModelConfig::default();
        cfg.rhythm.mean_heart_rate_bpm = 150.0;
        let mut model = EcgModel::new(cfg, 5);
        let (signal, beats) = model.synthesize(20.0);
        let detected = detect_r_peaks(&signal, &QrsDetectorConfig::at_360_hz());
        let (se, _) = score_detections(&beats, &detected, 18);
        assert!(se > 0.9, "sensitivity {se} at 150 bpm");
        // No double-counting within the refractory window.
        for w in detected.windows(2) {
            assert!(w[1] - w[0] > (0.25 * 360.0) as usize);
        }
    }

    #[test]
    fn ectopic_beats_do_not_mask_normal_ones() {
        // A giant PVC must not raise the threshold past the normal beats —
        // the dual SPKI/NPKI tracking exists exactly for this.
        let mut cfg = EcgModelConfig::default();
        cfg.rhythm.pvc_probability = 0.15;
        let mut model = EcgModel::new(cfg, 2024);
        let (signal, beats) = model.synthesize(40.0);
        let detected = detect_r_peaks(&signal, &QrsDetectorConfig::at_360_hz());
        let (se, ppv) = score_detections(&beats, &detected, 18);
        assert!(se > 0.9, "sensitivity {se} with PVCs present");
        assert!(ppv > 0.9, "predictivity {ppv} with PVCs present");
    }

    #[test]
    fn flat_line_yields_nothing() {
        assert!(detect_r_peaks(&vec![0.0; 2000], &QrsDetectorConfig::at_360_hz()).is_empty());
        assert!(detect_r_peaks(&[0.0; 10], &QrsDetectorConfig::at_360_hz()).is_empty());
    }

    #[test]
    fn score_edge_cases() {
        assert_eq!(score_detections(&[], &[1, 2], 5), (0.0, 0.0));
        let truth = vec![crate::model::BeatAnnotation {
            sample: 50,
            beat: crate::model::BeatType::Normal,
        }];
        assert_eq!(score_detections(&truth, &[], 5), (0.0, 0.0));
    }
}
