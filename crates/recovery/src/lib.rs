//! # cs-recovery — sparse-recovery solvers for the CS-ECG decoder
//!
//! The coordinator reconstructs each 2-second ECG packet by solving the
//! paper's Eq. (3), `min_α ‖ΦΨᵀα − y‖² + λ‖α‖₁`, with **FISTA** (Beck &
//! Teboulle's constant-step variant, reproduced verbatim from the paper's
//! algorithm box). This crate provides:
//!
//! * [`SynthesisOperator`] — the matrix-free `A = Φ·Ψᵀ` composition
//!   (contribution 1 of the paper: no dense matrix is ever formed), and
//!   [`DenseOperator`] as the explicit-matrix baseline;
//! * [`fista`] / [`ista`] — the accelerated `O(1/k²)` solver and its
//!   `O(1/k)` predecessor, generic over `f32`/`f64` (Fig. 6's precision
//!   study runs the *same* code at both widths), and
//!   [`fista_prior_warm_ws`], the same loop's general form: warm start,
//!   caller-owned workspace, pluggable prox, optional adaptive schedule;
//! * [`omp`] — the greedy baseline from the related-work comparison;
//! * [`KernelMode`] — scalar vs unrolled/branch-free inner loops, the
//!   portable analogue of the paper's NEON vectorization (§IV-B2);
//! * [`operator_norm`] / [`lipschitz_constant`] — power-iteration step-size
//!   estimation.
//!
//! ## Example: recover a sparse vector
//!
//! ```
//! use cs_dsp::wavelet::{Dwt, Wavelet};
//! use cs_recovery::{fista, LinearOperator, ShrinkageConfig, SynthesisOperator};
//! use cs_sensing::{Sensing, SparseBinarySensing};
//!
//! // A signal that is 3-sparse in the Haar basis.
//! let dwt: Dwt<f64> = Dwt::new(&Wavelet::haar(), 64, 3)?;
//! let mut alpha = vec![0.0; 64];
//! alpha[0] = 4.0;
//! alpha[5] = -2.0;
//! alpha[20] = 1.0;
//! let x = dwt.synthesize(&alpha);
//!
//! // Measure with the paper's sparse binary Φ at 50 % compression.
//! let phi = SparseBinarySensing::new(32, 64, 8, 9)?;
//! let y: Vec<f64> = phi.apply(x.as_slice());
//!
//! // Solve Eq. (3) and compare.
//! let a = SynthesisOperator::new(&phi, &dwt);
//! let config = ShrinkageConfig {
//!     tolerance: 1e-7,
//!     max_iterations: 5000,
//!     ..ShrinkageConfig::new(1e-4)
//! };
//! let result = fista(&a, &y, &config, None);
//! let recovered = dwt.synthesize(&result.solution);
//! let err: f64 = x.iter().zip(&recovered).map(|(u, v)| (u - v).powi(2)).sum::<f64>().sqrt();
//! let scale: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
//! assert!(err / scale < 0.08, "relative error {}", err / scale);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod kernels;
mod lipschitz;
mod operator;
mod solvers;
mod workspace;

pub use cache::{SpectralCache, SpectralEstimate};
pub use workspace::{FistaWorkspace, Workspace};
pub use kernels::{
    axpy, dot, fista_tail, group_soft_threshold, momentum_combine, soft_threshold,
    squared_distance, KernelMode, TailSums,
};
pub use lipschitz::{lipschitz_constant, operator_norm, top_singular_pair};
pub use operator::{DeflatedOperator, DenseOperator, LinearOperator, SynthesisOperator};
pub use solvers::{
    fista, fista_prior_warm_ws, ista, lambda_max, lambda_max_with, omp, OmpConfig, OmpResult,
    ProxSpec, ShrinkageConfig, SolverResult,
};
