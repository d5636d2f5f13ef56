//! Sparse-recovery solvers: ISTA, FISTA (constant-step and backtracking),
//! OMP, and least-squares debiasing.

mod amp;
mod debias;
mod omp;
mod shrinkage;

pub use amp::{amp, AmpConfig, AmpResult};
pub use debias::{debias, DebiasConfig};
pub use omp::{omp, OmpConfig, OmpResult};
pub use shrinkage::{
    fista, fista_backtracking, fista_prior_warm_ws, ista, lambda_max, lambda_max_with, ProxSpec,
    ShrinkageConfig, SolverResult,
};
