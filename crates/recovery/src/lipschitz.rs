//! Operator-norm estimation by power iteration.
//!
//! FISTA with constant step size needs `L = L(∇f)`, the Lipschitz constant
//! of the gradient of `f(α) = ‖Aα − y‖²`, which is `2‖A‖²` — twice the
//! largest eigenvalue of `AᴴA`. The decoder estimates it once per sensing
//! configuration with a few power-iteration sweeps (each sweep is one
//! apply + one adjoint, the same cost as a FISTA iteration).

use crate::operator::LinearOperator;
use crate::workspace::Workspace;
use cs_dsp::{l2_norm, Real};

/// Estimates the spectral norm `‖A‖₂` of an operator.
///
/// Runs up to `max_sweeps` power iterations on `AᴴA`, stopping early when
/// the Rayleigh quotient stabilizes to a relative `1e-6`.
///
/// # Panics
///
/// Panics if `max_sweeps` is zero.
///
/// # Examples
///
/// ```
/// use cs_recovery::{operator_norm, DenseOperator, KernelMode, LinearOperator};
///
/// // diag(3, 1): spectral norm 3.
/// let op = DenseOperator::from_row_major(2, 2, vec![3.0, 0.0, 0.0, 1.0], KernelMode::Scalar);
/// let norm: f64 = operator_norm(&op, 50);
/// assert!((norm - 3.0).abs() < 1e-4);
/// ```
pub fn operator_norm<T: Real, A: LinearOperator<T>>(op: &A, max_sweeps: usize) -> T {
    assert!(max_sweeps > 0, "operator_norm: need at least one sweep");
    let n = op.cols();
    // Deterministic quasi-random start vector with energy in every entry.
    let mut v: Vec<T> = (0..n)
        .map(|i| T::from_f64(((i as f64 * 12.9898).sin() * 43758.5453).fract() - 0.5))
        .collect();
    let norm_v = l2_norm(&v);
    if norm_v == T::ZERO {
        return T::ZERO;
    }
    for x in &mut v {
        *x /= norm_v;
    }

    let mut mid = vec![T::ZERO; op.rows()];
    let mut w = vec![T::ZERO; n];
    // One workspace for all sweeps: the `_ws` products are bitwise equal
    // to the allocating ones, without their per-call transients.
    let mut ws = Workspace::for_operator(op);
    let mut prev_sigma = T::ZERO;
    for _ in 0..max_sweeps {
        op.apply_into_ws(&v, &mut mid, &mut ws);
        op.adjoint_into_ws(&mid, &mut w, &mut ws);
        let sigma_sq = l2_norm(&w); // ‖AᴴAv‖ with ‖v‖=1 → σ² estimate
        if sigma_sq == T::ZERO {
            return T::ZERO;
        }
        for (vi, &wi) in v.iter_mut().zip(&w) {
            *vi = wi / sigma_sq;
        }
        let sigma = sigma_sq.sqrt();
        if (sigma - prev_sigma).abs() <= T::from_f64(1e-6) * sigma.max(T::ONE) {
            return sigma;
        }
        prev_sigma = sigma;
    }
    prev_sigma
}

/// Estimates the operator's top singular value together with its *left*
/// singular vector (the measurement-space direction), via power iteration
/// on `AAᴴ`. Used by [`crate::DeflatedOperator`] to locate the direction
/// to deflate.
///
/// Returns `(σ₁, u)` with `‖u‖ = 1`, or `(0, zeros)` for a zero operator.
///
/// # Panics
///
/// Panics if `max_sweeps` is zero.
pub fn top_singular_pair<T: Real, A: LinearOperator<T>>(
    op: &A,
    max_sweeps: usize,
) -> (T, Vec<T>) {
    assert!(max_sweeps > 0, "top_singular_pair: need at least one sweep");
    let (m, n) = (op.rows(), op.cols());
    let mut v: Vec<T> = (0..n)
        .map(|i| T::from_f64(((i as f64 * 7.13).cos() * 917.331).fract() + 0.1))
        .collect();
    let nv = l2_norm(&v);
    if nv == T::ZERO {
        return (T::ZERO, vec![T::ZERO; m]);
    }
    for x in &mut v {
        *x /= nv;
    }
    let mut u = vec![T::ZERO; m];
    let mut ws = Workspace::for_operator(op);
    let mut sigma = T::ZERO;
    for _ in 0..max_sweeps {
        op.apply_into_ws(&v, &mut u, &mut ws);
        let nu = l2_norm(&u);
        if nu == T::ZERO {
            return (T::ZERO, vec![T::ZERO; m]);
        }
        for x in &mut u {
            *x /= nu;
        }
        op.adjoint_into_ws(&u, &mut v, &mut ws);
        let prev = sigma;
        sigma = l2_norm(&v);
        if sigma == T::ZERO {
            return (T::ZERO, vec![T::ZERO; m]);
        }
        for x in &mut v {
            *x /= sigma;
        }
        if (sigma - prev).abs() <= T::from_f64(1e-7) * sigma.max(T::ONE) {
            break;
        }
    }
    (sigma, u)
}

/// The FISTA step constant for `f(α) = ‖Aα − y‖²`: `L = 2‖A‖²`, padded by
/// 2 % so a slightly under-converged power iteration cannot produce a step
/// size that breaks the majorization.
pub fn lipschitz_constant<T: Real, A: LinearOperator<T>>(op: &A, max_sweeps: usize) -> T {
    let sigma = operator_norm(op, max_sweeps);
    T::TWO * sigma * sigma * T::from_f64(1.02)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::KernelMode;
    use crate::operator::DenseOperator;

    #[test]
    fn norm_of_scaled_identity() {
        let n = 8;
        let mut data = vec![0.0_f64; n * n];
        for i in 0..n {
            data[i * n + i] = 2.5;
        }
        let op = DenseOperator::from_row_major(n, n, data, KernelMode::Unrolled4);
        assert!((operator_norm(&op, 100) - 2.5).abs() < 1e-5);
        assert!((lipschitz_constant(&op, 100) - 2.0 * 6.25 * 1.02).abs() < 1e-3);
    }

    #[test]
    fn norm_of_rank_one() {
        // A = u vᵀ with ‖u‖=√(1+4)=√5, ‖v‖=√(9+16)=5 → ‖A‖ = √5·5.
        let u = [1.0, 2.0];
        let v = [3.0, 4.0];
        let data: Vec<f64> = u.iter().flat_map(|&a| v.iter().map(move |&b| a * b)).collect();
        let op = DenseOperator::from_row_major(2, 2, data, KernelMode::Scalar);
        let expect = (5.0_f64).sqrt() * 5.0;
        assert!((operator_norm(&op, 200) - expect).abs() < 1e-4);
    }

    #[test]
    fn zero_operator_has_zero_norm() {
        let op = DenseOperator::from_row_major(3, 3, vec![0.0_f64; 9], KernelMode::Scalar);
        assert_eq!(operator_norm(&op, 10), 0.0);
    }

    #[test]
    fn f32_estimation_works() {
        let op = DenseOperator::from_row_major(
            2,
            2,
            vec![1.0_f32, 0.0, 0.0, 4.0],
            KernelMode::Unrolled4,
        );
        let norm = operator_norm(&op, 100);
        assert!((norm - 4.0).abs() < 1e-3);
    }
}
