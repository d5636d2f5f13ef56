//! Sparse-recovery solvers: ISTA, FISTA and OMP.

mod omp;
mod shrinkage;

pub use omp::{omp, OmpConfig, OmpResult};
pub use shrinkage::{
    fista, fista_prior_warm_ws, ista, lambda_max, lambda_max_with, ProxSpec, ShrinkageConfig,
    SolverResult,
};
