//! Polyphase rational-rate resampling.
//!
//! The paper feeds the mote "database records re-sampled at 256 Hz"
//! (§IV-A1) from the 360 Hz originals. 256/360 reduces to 32/45, so the
//! conversion is a classic L/M rational resampler: conceptually upsample by
//! L = 32, low-pass filter, downsample by M = 45. [`Resampler`] computes
//! only the output samples (polyphase decomposition), so the cost per
//! output sample is `taps / L` multiply-adds, not the full upsampled
//! convolution.

use cs_dsp::fir::lowpass_sinc;
use cs_dsp::window::kaiser;

/// Greatest common divisor (Euclid).
fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A planned rational resampler converting by the factor `up/down`.
///
/// # Examples
///
/// ```
/// use cs_ecg_data::Resampler;
///
/// // 360 Hz → 256 Hz (the paper's conversion).
/// let rs = Resampler::new(256, 360);
/// assert_eq!(rs.up(), 32);
/// assert_eq!(rs.down(), 45);
/// let x = vec![1.0; 4500]; // 12.5 s of DC at 360 Hz
/// let y = rs.resample(&x);
/// assert_eq!(y.len(), 3200); // 12.5 s at 256 Hz
/// // DC gain is unity away from the edges.
/// assert!((y[1600] - 1.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Resampler {
    up: usize,
    down: usize,
    /// Prototype low-pass taps, already scaled by `up` for unity passband
    /// gain after zero-stuffing.
    taps: Vec<f64>,
}

impl Resampler {
    /// Plans a resampler converting a rate of `from_hz`-equivalent units to
    /// `to_hz` (only the ratio matters; it is reduced internally).
    ///
    /// # Panics
    ///
    /// Panics if either rate is zero.
    pub fn new(to_hz: usize, from_hz: usize) -> Self {
        assert!(to_hz > 0 && from_hz > 0, "Resampler: rates must be nonzero");
        let g = gcd(to_hz, from_hz);
        let up = to_hz / g;
        let down = from_hz / g;
        // Anti-alias + anti-image filter at the upsampled rate: cutoff at
        // the tighter of the two Nyquist limits.
        let cutoff = 0.5 / up.max(down) as f64 * 0.92; // small transition margin
        let taps_per_phase = 24;
        let n_taps = taps_per_phase * up.max(2) + 1;
        let window = kaiser(n_taps, 10.0);
        let mut taps: Vec<f64> = lowpass_sinc(cutoff, &window);
        for t in &mut taps {
            *t *= up as f64;
        }
        Resampler { up, down, taps }
    }

    /// Reduced upsampling factor L.
    pub fn up(&self) -> usize {
        self.up
    }

    /// Reduced downsampling factor M.
    pub fn down(&self) -> usize {
        self.down
    }

    /// Resamples a whole signal, compensating the filter's group delay so
    /// output sample `k` aligns with input time `k·M/L`.
    pub fn resample(&self, x: &[f64]) -> Vec<f64> {
        if x.is_empty() {
            return Vec::new();
        }
        let n = x.len();
        let out_len = (n * self.up).div_ceil(self.down);
        let delay = (self.taps.len() - 1) / 2;
        let mut out = Vec::with_capacity(out_len);
        for k in 0..out_len {
            // Virtual index into the upsampled-and-filtered stream.
            let i_base = k * self.down + delay;
            let mut acc = 0.0_f64;
            // j ranges over taps with (i_base − j) divisible by up.
            let phase = i_base % self.up;
            let mut j = phase;
            // j may not exceed i_base (the stream is causal and starts at 0).
            while j < self.taps.len() && j <= i_base {
                let up_idx = i_base - j;
                let src = up_idx / self.up;
                if src < n {
                    acc += self.taps[j] * x[src];
                }
                j += self.up;
            }
            out.push(acc);
        }
        out
    }
}

/// Convenience: the paper's exact 360 Hz → 256 Hz conversion.
///
/// # Examples
///
/// ```
/// let x: Vec<f64> = (0..3600).map(|i| (i as f64 * 0.05).sin()).collect();
/// let y = cs_ecg_data::resample_360_to_256(&x);
/// assert_eq!(y.len(), 2560);
/// ```
pub fn resample_360_to_256(x: &[f64]) -> Vec<f64> {
    Resampler::new(256, 360).resample(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_reduction() {
        let rs = Resampler::new(256, 360);
        assert_eq!((rs.up(), rs.down()), (32, 45));
        let rs = Resampler::new(2, 1);
        assert_eq!((rs.up(), rs.down()), (2, 1));
    }

    #[test]
    fn output_length() {
        let rs = Resampler::new(256, 360);
        assert_eq!(rs.resample(&vec![0.0; 360]).len(), 256);
        assert_eq!(rs.resample(&vec![0.0; 720]).len(), 512);
        assert!(rs.resample(&[]).is_empty());
    }

    #[test]
    fn sine_frequency_preserved() {
        // 10 Hz sine at 360 Hz must come out as a 10 Hz sine at 256 Hz.
        let f = 10.0;
        let n = 3600;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / 360.0).sin())
            .collect();
        let y = resample_360_to_256(&x);
        // Compare against the ideal resampled sine away from the edges.
        let mut max_err = 0.0_f64;
        for (k, &v) in y.iter().enumerate().skip(100).take(y.len() - 200) {
            let t = k as f64 / 256.0;
            let ideal = (2.0 * std::f64::consts::PI * f * t).sin();
            max_err = max_err.max((v - ideal).abs());
        }
        assert!(max_err < 1e-3, "max interior error {max_err}");
    }

    #[test]
    fn high_frequency_rejected() {
        // 170 Hz is above the 128 Hz output Nyquist: it must be attenuated,
        // not aliased in at full strength.
        let n = 3600;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * 170.0 * i as f64 / 360.0).sin())
            .collect();
        let y = resample_360_to_256(&x);
        let rms = (y.iter().skip(100).take(y.len() - 200).map(|v| v * v).sum::<f64>()
            / (y.len() - 200) as f64)
            .sqrt();
        assert!(rms < 0.02, "aliased energy rms {rms}");
    }

    #[test]
    fn upsample_by_two_interpolates() {
        let rs = Resampler::new(2, 1);
        let x: Vec<f64> = (0..200).map(|i| (i as f64 * 0.1).sin()).collect();
        let y = rs.resample(&x);
        assert_eq!(y.len(), 400);
        // Even samples reproduce the input away from the edges.
        for i in 50..150 {
            assert!((y[2 * i] - x[i]).abs() < 1e-3, "sample {i}");
        }
    }

    #[test]
    fn identity_ratio_is_near_identity() {
        let rs = Resampler::new(360, 360);
        assert_eq!((rs.up(), rs.down()), (1, 1));
        let x: Vec<f64> = (0..300).map(|i| (i as f64 * 0.2).cos()).collect();
        let y = rs.resample(&x);
        assert_eq!(y.len(), 300);
        for i in 30..270 {
            assert!((x[i] - y[i]).abs() < 1e-4);
        }
    }
}
