//! # cs-sensing — measurement matrices for the CS-ECG monitor
//!
//! Compressed sensing acquires `M ≪ N` linear measurements `y = Φx` of a
//! 2-second ECG packet. This crate provides every Φ construction the DATE
//! 2011 paper evaluates on the mote (§IV-A2):
//!
//! 1. an **8-bit quantized Gaussian** generator
//!    ([`DenseSensing::quantized_gaussian`]) — the paper's first, not-real-
//!    time attempt,
//! 2. a **stored dense Gaussian** matrix ([`DenseSensing::gaussian`]) — the
//!    reference ensemble whose dense multiply was the bottleneck,
//! 3. the **sparse binary** matrix ([`SparseBinarySensing`]) with `d` ones
//!    per column that the paper's real-time encoder uses (multiplication-
//!    free integer gather-adds), plus
//! 4. a Bernoulli ±1/√N ensemble for completeness.
//!
//! Matrices are expanded deterministically from a shared seed by
//! [`MotePrng`], so the encoder and decoder agree on Φ without transmitting
//! it.
//!
//! ## Example
//!
//! ```
//! use cs_sensing::{measurements_for_cr, Sensing, SparseBinarySensing};
//!
//! // CR = 50 % on a 512-sample packet with the paper's d = 12.
//! let m = measurements_for_cr(512, 50.0);
//! let phi = SparseBinarySensing::new(m, 512, 12, 0xEC60)?;
//! let x = vec![1.0_f64; 512];
//! assert_eq!(phi.apply(x.as_slice()).len(), 256);
//! # Ok::<(), cs_sensing::SensingError>(())
//! ```

#![warn(missing_docs)]
// `unsafe` is confined to `blocked` (the AVX2 gather kernels and the index
// tables whose invariants make them sound); everything else stays safe.
#![deny(unsafe_code)]

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod blocked;
mod error;
mod matrix;
mod rng;

pub use error::SensingError;
pub use matrix::{measurements_for_cr, DenseEnsemble, DenseSensing, Sensing, SparseBinarySensing};
pub use rng::MotePrng;
