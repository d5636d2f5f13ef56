//! FIR filtering and convolution.
//!
//! Used by the ECG substrate's rational resampler (360 Hz MIT-BIH-style
//! records → the 256 Hz stream the paper feeds the mote) and by the noise
//! shaping in the synthetic database. The streaming [`FirFilter`] mirrors the
//! multi-band filtering loops the paper vectorizes on the iPhone (§IV-B2b).

use crate::error::DspError;
use crate::real::Real;

/// How much of the full convolution to return.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConvMode {
    /// All `n + l − 1` samples of the linear convolution.
    Full,
    /// The central `n` samples (aligned with the input; default).
    #[default]
    Same,
    /// Only the `n − l + 1` samples where the kernel fully overlaps.
    Valid,
}

/// Linear convolution of `x` with `kernel`.
///
/// # Panics
///
/// Panics if `kernel` is empty, or if `mode` is [`ConvMode::Valid`] and the
/// kernel is longer than the signal.
///
/// # Examples
///
/// ```
/// use cs_dsp::fir::{convolve, ConvMode};
/// let y = convolve(&[1.0_f64, 2.0, 3.0], &[1.0, 1.0], ConvMode::Full);
/// assert_eq!(y, vec![1.0, 3.0, 5.0, 3.0]);
/// ```
pub fn convolve<T: Real>(x: &[T], kernel: &[T], mode: ConvMode) -> Vec<T> {
    assert!(!kernel.is_empty(), "convolve: empty kernel");
    let n = x.len();
    let l = kernel.len();
    if n == 0 {
        return Vec::new();
    }
    let full_len = n + l - 1;
    let mut full = vec![T::ZERO; full_len];
    for (i, &xi) in x.iter().enumerate() {
        if xi == T::ZERO {
            continue;
        }
        for (j, &kj) in kernel.iter().enumerate() {
            full[i + j] += xi * kj;
        }
    }
    // The trimmed modes cut the full result down in place rather than
    // copying it out, so a long signal never holds a second output.
    let keep = match mode {
        ConvMode::Full => 0..full_len,
        ConvMode::Same => {
            let start = (l - 1) / 2;
            start..start + n
        }
        ConvMode::Valid => {
            assert!(l <= n, "convolve: kernel longer than signal in Valid mode");
            l - 1..n
        }
    };
    full.truncate(keep.end);
    full.drain(..keep.start);
    full
}

/// A streaming FIR filter with persistent state, suitable for processing a
/// long ECG record in chunks without boundary artifacts between chunks.
///
/// # Examples
///
/// ```
/// use cs_dsp::fir::FirFilter;
///
/// let mut f = FirFilter::new(vec![0.5_f64, 0.5])?; // 2-tap moving average
/// let a = f.process(&[1.0, 1.0]);
/// let b = f.process(&[1.0, 1.0]);
/// assert_eq!(a, vec![0.5, 1.0]); // warm-up then steady state
/// assert_eq!(b, vec![1.0, 1.0]);
/// # Ok::<(), cs_dsp::DspError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FirFilter<T: Real> {
    taps: Vec<T>,
    /// Delay line, most recent sample last; always `taps.len() − 1` long.
    state: Vec<T>,
}

impl<T: Real> FirFilter<T> {
    /// Creates a filter from its impulse response.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidFilter`] if `taps` is empty or contains a
    /// non-finite value.
    pub fn new(taps: Vec<T>) -> Result<Self, DspError> {
        if taps.is_empty() {
            return Err(DspError::InvalidFilter("empty tap vector".into()));
        }
        if taps.iter().any(|t| !t.is_finite()) {
            return Err(DspError::InvalidFilter("non-finite tap".into()));
        }
        let state = vec![T::ZERO; taps.len() - 1];
        Ok(FirFilter { taps, state })
    }

    /// The filter's impulse response.
    pub fn taps(&self) -> &[T] {
        &self.taps
    }

    /// Filters a chunk, advancing the internal delay line.
    pub fn process(&mut self, chunk: &[T]) -> Vec<T> {
        let mut out = Vec::with_capacity(chunk.len());
        let l = self.taps.len();
        for &sample in chunk {
            // y[n] = Σ taps[j] · x[n − j]; delay line holds x[n−1], …
            let mut acc = self.taps[0] * sample;
            for j in 1..l {
                acc += self.taps[j] * self.state[self.state.len() - j];
            }
            out.push(acc);
            if !self.state.is_empty() {
                self.state.rotate_left(1);
                let last = self.state.len() - 1;
                self.state[last] = sample;
            }
        }
        out
    }

    /// Resets the delay line to silence.
    pub fn reset(&mut self) {
        for v in &mut self.state {
            *v = T::ZERO;
        }
    }
}

/// Designs a windowed-sinc low-pass FIR prototype.
///
/// `cutoff` is the normalized cutoff in cycles/sample (`0 < cutoff < 0.5`);
/// `taps` is the filter length. The window is supplied by the caller (see
/// [`crate::window`]); the result is gain-normalized to unity at DC.
///
/// # Panics
///
/// Panics if `cutoff` is outside `(0, 0.5)` or `window.len() != taps`.
///
/// # Examples
///
/// ```
/// use cs_dsp::fir::lowpass_sinc;
/// use cs_dsp::window::hann;
///
/// let h = lowpass_sinc::<f64>(0.25, &hann(31));
/// let dc: f64 = h.iter().sum();
/// assert!((dc - 1.0).abs() < 1e-12);
/// ```
pub fn lowpass_sinc<T: Real>(cutoff: f64, window: &[f64]) -> Vec<T> {
    assert!(
        cutoff > 0.0 && cutoff < 0.5,
        "lowpass_sinc: cutoff must be in (0, 0.5)"
    );
    let taps = window.len();
    assert!(taps >= 1, "lowpass_sinc: need at least one tap");
    let mid = (taps - 1) as f64 / 2.0;
    let mut h: Vec<f64> = (0..taps)
        .map(|i| {
            let t = i as f64 - mid;
            let sinc = if t.abs() < 1e-12 {
                2.0 * cutoff
            } else {
                (2.0 * std::f64::consts::PI * cutoff * t).sin() / (std::f64::consts::PI * t)
            };
            sinc * window[i]
        })
        .collect();
    let dc: f64 = h.iter().sum();
    for v in &mut h {
        *v /= dc;
    }
    h.into_iter().map(T::from_f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn convolve_modes_lengths() {
        let x = [1.0_f64, 2.0, 3.0, 4.0, 5.0];
        let k = [1.0, 0.0, -1.0];
        assert_eq!(convolve(&x, &k, ConvMode::Full).len(), 7);
        assert_eq!(convolve(&x, &k, ConvMode::Same).len(), 5);
        assert_eq!(convolve(&x, &k, ConvMode::Valid).len(), 3);
    }

    #[test]
    fn convolve_identity_kernel() {
        let x = [1.0_f64, -2.0, 3.5];
        assert_eq!(convolve(&x, &[1.0], ConvMode::Same), x.to_vec());
    }

    #[test]
    fn convolve_matches_manual() {
        // valid part of [1,2,3] * [1,-1] (differencing)
        let y = convolve(&[1.0_f64, 2.0, 3.0], &[1.0, -1.0], ConvMode::Valid);
        assert_eq!(y, vec![1.0, 1.0]); // x[n] - x[n-1] ... kernel [1,-1]: y[n]=x[n]*1+x[n-1]*(-1)? full=[1,1,1,-3]
    }

    #[test]
    fn streaming_equals_batch() {
        let taps = vec![0.25_f64, 0.5, 0.25, -0.1];
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.4).sin()).collect();
        let mut f = FirFilter::new(taps.clone()).unwrap();
        let mut streamed = Vec::new();
        for chunk in x.chunks(7) {
            streamed.extend(f.process(chunk));
        }
        // Batch reference: causal filtering = full conv truncated to n.
        let full = convolve(&x, &taps, ConvMode::Full);
        for (a, b) in streamed.iter().zip(full.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn fir_reset_clears_state() {
        let mut f = FirFilter::new(vec![0.0_f64, 1.0]).unwrap(); // unit delay
        let _ = f.process(&[5.0]);
        f.reset();
        assert_eq!(f.process(&[1.0]), vec![0.0]); // no leftover 5.0
    }

    #[test]
    fn invalid_filters_rejected() {
        assert!(FirFilter::<f64>::new(vec![]).is_err());
        assert!(FirFilter::new(vec![f64::NAN]).is_err());
    }

    #[test]
    fn lowpass_rejects_high_frequency() {
        let h = lowpass_sinc::<f64>(0.1, &crate::window::hamming(63));
        // Respond to DC, reject 0.4 cycles/sample.
        let n = 512;
        let hi: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * 0.4 * i as f64).sin())
            .collect();
        let y = convolve(&hi, &h, ConvMode::Valid);
        let energy_in: f64 = hi.iter().map(|v| v * v).sum::<f64>() / n as f64;
        let energy_out: f64 = y.iter().map(|v| v * v).sum::<f64>() / y.len() as f64;
        assert!(energy_out < energy_in * 1e-4, "stopband leak: {energy_out}");
    }

    proptest! {
        #[test]
        fn prop_convolution_is_linear(a in -2.0_f64..2.0, b in -2.0_f64..2.0) {
            let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.7).cos()).collect();
            let z: Vec<f64> = (0..32).map(|i| (i as f64 * 0.3).sin()).collect();
            let k = [0.2_f64, -0.4, 0.6];
            let mixed: Vec<f64> = x.iter().zip(&z).map(|(u, v)| a * u + b * v).collect();
            let lhs = convolve(&mixed, &k, ConvMode::Full);
            let cx = convolve(&x, &k, ConvMode::Full);
            let cz = convolve(&z, &k, ConvMode::Full);
            for i in 0..lhs.len() {
                prop_assert!((lhs[i] - (a * cx[i] + b * cz[i])).abs() < 1e-10);
            }
        }

        #[test]
        fn prop_convolution_commutes(n in 1_usize..20, l in 1_usize..20) {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) * 0.5).collect();
            let k: Vec<f64> = (0..l).map(|i| (i as f64 - 2.0) * 0.25).collect();
            let a = convolve(&x, &k, ConvMode::Full);
            let b = convolve(&k, &x, ConvMode::Full);
            for (u, v) in a.iter().zip(&b) {
                prop_assert!((u - v).abs() < 1e-10);
            }
        }
    }
}
