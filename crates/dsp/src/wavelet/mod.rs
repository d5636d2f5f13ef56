//! Orthonormal wavelet bases and the periodized discrete wavelet transform.
//!
//! This module supplies the sparsifying dictionary Ψ of the CS-ECG system:
//!
//! * [`Wavelet`] / [`WaveletFamily`] — filter banks (Haar, Daubechies,
//!   Symlet) constructed by spectral factorization rather than coefficient
//!   tables, and
//! * [`Dwt`] — a planned, matrix-free, exactly-orthonormal multi-level
//!   transform with both analysis (`Ψᴴx`) and synthesis (`Ψα`) directions.

// The wide instantiations of the DWT level kernels (and of a solve, via
// `in_arm`) need one `unsafe` call per dispatch; they live in `dispatch`
// and nowhere else.
#[allow(unsafe_code)]
pub(crate) mod dispatch;
mod family;
mod poly;
mod transform;

pub use family::{Wavelet, WaveletFamily};
pub use transform::{dwt_single, idwt_single, Dwt};
