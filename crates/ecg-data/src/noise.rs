//! Ambulatory ECG noise models.
//!
//! MIT-BIH records are *ambulatory* recordings: they carry baseline wander
//! from respiration and electrode motion, broadband muscle (EMG) artifact,
//! and mains interference. The synthetic corpus reproduces those
//! contaminants so the compression pipeline is evaluated on realistic
//! inputs rather than clean model output.

use cs_dsp::fir::{convolve, ConvMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the additive noise mix, all amplitudes in millivolts.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NoiseConfig {
    /// Peak amplitude of the baseline-wander component.
    pub baseline_wander_mv: f64,
    /// RMS amplitude of the band-limited muscle-artifact component.
    pub muscle_artifact_mv: f64,
    /// Peak amplitude of the mains (power-line) component.
    pub mains_mv: f64,
    /// Mains frequency in Hz (50 in Europe, 60 in the US; MIT-BIH has 60).
    pub mains_hz: f64,
    /// RMS of white measurement noise.
    pub white_mv: f64,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig {
            baseline_wander_mv: 0.05,
            muscle_artifact_mv: 0.01,
            mains_mv: 0.005,
            mains_hz: 60.0,
            white_mv: 0.005,
        }
    }
}

impl NoiseConfig {
    /// A configuration with every component disabled.
    pub fn clean() -> Self {
        NoiseConfig {
            baseline_wander_mv: 0.0,
            muscle_artifact_mv: 0.0,
            mains_mv: 0.0,
            mains_hz: 60.0,
            white_mv: 0.0,
        }
    }
}

/// Generates the additive noise trace for `n` samples at `fs` Hz.
///
/// # Examples
///
/// ```
/// use cs_ecg_data::{noise_trace, NoiseConfig};
///
/// let noise = noise_trace(&NoiseConfig::default(), 360.0, 3600, 7);
/// assert_eq!(noise.len(), 3600);
/// let clean = noise_trace(&NoiseConfig::clean(), 360.0, 100, 7);
/// assert!(clean.iter().all(|&v| v == 0.0));
/// ```
pub fn noise_trace(config: &NoiseConfig, fs: f64, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![0.0_f64; n];

    // Baseline wander: a sum of slow sinusoids (respiration + electrode
    // drift) with randomized phases, plus a bounded random walk.
    if config.baseline_wander_mv > 0.0 {
        let freqs = [0.15, 0.23, 0.31];
        let phases: Vec<f64> = (0..freqs.len())
            .map(|_| rng.gen::<f64>() * 2.0 * std::f64::consts::PI)
            .collect();
        let mut walk = 0.0_f64;
        for (i, v) in out.iter_mut().enumerate() {
            let t = i as f64 / fs;
            let mut bw = 0.0;
            for (f, p) in freqs.iter().zip(&phases) {
                bw += (2.0 * std::f64::consts::PI * f * t + p).sin();
            }
            walk = (walk + (rng.gen::<f64>() - 0.5) * 0.02).clamp(-1.0, 1.0);
            *v += config.baseline_wander_mv * (bw / freqs.len() as f64 + 0.3 * walk);
        }
    }

    // Muscle artifact: white noise shaped by a short smoothing kernel so its
    // spectrum rolls off like surface EMG.
    if config.muscle_artifact_mv > 0.0 {
        let white: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
        let kernel = [0.2, 0.3, 0.3, 0.2];
        let shaped = convolve(&white, &kernel, ConvMode::Same);
        let rms = (shaped.iter().map(|v| v * v).sum::<f64>() / n.max(1) as f64).sqrt();
        if rms > 0.0 {
            let g = config.muscle_artifact_mv / rms;
            for (v, s) in out.iter_mut().zip(&shaped) {
                *v += g * s;
            }
        }
    }

    // Mains hum with slow amplitude modulation.
    if config.mains_mv > 0.0 {
        let phase = rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
        for (i, v) in out.iter_mut().enumerate() {
            let t = i as f64 / fs;
            let am = 1.0 + 0.2 * (2.0 * std::f64::consts::PI * 0.1 * t).sin();
            *v += config.mains_mv
                * am
                * (2.0 * std::f64::consts::PI * config.mains_hz * t + phase).sin();
        }
    }

    // White measurement noise.
    if config.white_mv > 0.0 {
        for v in out.iter_mut() {
            // Box–Muller.
            let u: f64 = 1.0 - rng.gen::<f64>();
            let w: f64 = rng.gen();
            let g = (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * w).cos();
            *v += config.white_mv * g;
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let c = NoiseConfig::default();
        assert_eq!(noise_trace(&c, 360.0, 500, 1), noise_trace(&c, 360.0, 500, 1));
        assert_ne!(noise_trace(&c, 360.0, 500, 1), noise_trace(&c, 360.0, 500, 2));
    }

    #[test]
    fn component_amplitudes_scale() {
        let mut c = NoiseConfig::clean();
        c.white_mv = 0.1;
        let tr = noise_trace(&c, 360.0, 20_000, 3);
        let rms = (tr.iter().map(|v| v * v).sum::<f64>() / tr.len() as f64).sqrt();
        assert!((rms - 0.1).abs() < 0.01, "white rms {rms}");
    }

    #[test]
    fn mains_component_is_narrowband() {
        let mut c = NoiseConfig::clean();
        c.mains_mv = 1.0;
        c.mains_hz = 60.0;
        let fs = 360.0;
        let n = 3600;
        let tr = noise_trace(&c, fs, n, 4);
        // Goertzel-style power at 60 Hz vs at 30 Hz.
        let power_at = |f: f64| -> f64 {
            let (mut re, mut im) = (0.0, 0.0);
            for (i, &v) in tr.iter().enumerate() {
                let w = 2.0 * std::f64::consts::PI * f * i as f64 / fs;
                re += v * w.cos();
                im += v * w.sin();
            }
            (re * re + im * im) / n as f64
        };
        assert!(power_at(60.0) > 100.0 * power_at(30.0));
    }

    #[test]
    fn baseline_wander_is_slow() {
        let mut c = NoiseConfig::clean();
        c.baseline_wander_mv = 1.0;
        let tr = noise_trace(&c, 360.0, 3600, 5);
        // Adjacent-sample differences are tiny relative to the excursion.
        let max_step = tr.windows(2).map(|w| (w[1] - w[0]).abs()).fold(0.0, f64::max);
        let span = tr.iter().cloned().fold(f64::MIN, f64::max)
            - tr.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max_step < span * 0.05, "step {max_step} vs span {span}");
    }
}
