//! Sparse-recovery solvers: ISTA, FISTA (constant-step and backtracking),
//! OMP, and least-squares debiasing.

mod amp;
mod batch;
mod debias;
mod omp;
mod shrinkage;

pub use amp::{amp, AmpConfig, AmpResult};
pub use batch::{
    fista_prior_batch_ws, fista_prior_batch_ws_observed, fista_warm_batch_ws, BatchPenalty,
};
pub use debias::{debias, DebiasConfig};
pub use omp::{omp, OmpConfig, OmpResult};
pub use shrinkage::{
    fista, fista_backtracking, fista_prior_warm_ws, fista_prior_warm_ws_observed, fista_warm,
    fista_warm_observed, fista_warm_ws, fista_warm_ws_observed, fista_weighted,
    fista_weighted_warm, fista_weighted_warm_observed, fista_weighted_warm_ws,
    fista_weighted_warm_ws_observed, ista, ista_warm, lambda_max, lambda_max_with, ProxSpec,
    ShrinkageConfig, SolverResult,
};
