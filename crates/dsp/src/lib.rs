//! # cs-dsp — DSP substrate for the CS-ECG monitoring system
//!
//! This crate implements, from scratch, every signal-processing primitive
//! the DATE 2011 compressed-sensing ECG monitor needs:
//!
//! * [`wavelet`] — orthonormal wavelet filter banks (Daubechies, Symlets)
//!   built by spectral factorization, plus a periodized, matrix-free,
//!   exactly-orthonormal multi-level DWT ([`wavelet::Dwt`]). This is the
//!   sparsifying basis Ψ of the paper's reconstruction problem.
//! * [`fir`] — linear convolution, streaming FIR filters and windowed-sinc
//!   low-pass design, used by the rational resampler that feeds the mote
//!   256 Hz samples.
//! * [`window`] — Hann/Hamming/Blackman/Kaiser windows for FIR design.
//! * [`Real`] — a sealed `f32`/`f64` abstraction so the whole decode path
//!   can be instantiated at both precisions (the paper's Fig. 6 comparison
//!   of the 64-bit Matlab reference against the 32-bit iPhone port).
//!
//! ## Example: sparsifying an ECG-like signal
//!
//! ```
//! use cs_dsp::wavelet::{Dwt, Wavelet};
//!
//! // A quasi-periodic signal with sharp spikes, like an ECG.
//! let x: Vec<f64> = (0..512)
//!     .map(|i| {
//!         let phase = (i % 128) as f64 / 128.0;
//!         (-((phase - 0.3) * 30.0).powi(2)).exp()
//!     })
//!     .collect();
//!
//! let dwt: Dwt<f64> = Dwt::new(&Wavelet::daubechies(4)?, 512, 5)?;
//! let coeffs = dwt.analyze(&x);
//!
//! // Most energy concentrates in a few coefficients.
//! let total: f64 = coeffs.iter().map(|c| c * c).sum();
//! let mut mags: Vec<f64> = coeffs.iter().map(|c| c * c).collect();
//! mags.sort_by(|a, b| b.partial_cmp(a).unwrap());
//! let top64: f64 = mags[..64].iter().sum();
//! assert!(top64 / total > 0.99);
//! # Ok::<(), cs_dsp::DspError>(())
//! ```

#![warn(missing_docs)]
// `unsafe` is confined to `wavelet::dispatch` (calling the AVX2 and
// AVX-512 instantiations of the DWT level kernels, and of a caller's solve,
// after a runtime CPU check).
#![deny(unsafe_code)]

mod error;
pub mod fir;
mod real;
pub mod wavelet;
pub mod window;

pub use error::DspError;
pub use real::{dot, l1_norm, l2_norm, Real};
pub use wavelet::dispatch::{in_arm, kernel_arm};
