//! Linear operators for the reconstruction problem.
//!
//! FISTA only ever touches the forward operator `A = Φ·Ψᵀ` and its adjoint
//! `Aᴴ = Ψ·Φᴴ`. The paper's contribution (1) is precisely that neither
//! needs a dense matrix: Φ is a sparse binary gather and Ψᵀ/Ψ are O(N·L)
//! filter-bank passes. [`SynthesisOperator`] is that matrix-free
//! composition; [`DenseOperator`] materializes the same map as an `M×N`
//! matrix so benches can quantify what the matrix-free structure buys.

use crate::kernels::{dot, KernelMode};
use crate::workspace::Workspace;
use cs_dsp::wavelet::Dwt;
use cs_dsp::Real;
use cs_sensing::Sensing;
use std::borrow::Cow;

/// A real linear map `ℝᴺ → ℝᴹ` with an exact adjoint.
pub trait LinearOperator<T: Real> {
    /// Output dimension M.
    fn rows(&self) -> usize;

    /// Input dimension N.
    fn cols(&self) -> usize;

    /// `out = A·x`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    fn apply_into(&self, x: &[T], out: &mut [T]);

    /// `out = Aᴴ·y`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    fn adjoint_into(&self, y: &[T], out: &mut [T]);

    /// `out = A·x`, drawing any transient buffers from `ws` instead of the
    /// heap.
    ///
    /// The default falls back to [`LinearOperator::apply_into`]; operators
    /// whose application needs intermediates (e.g. [`SynthesisOperator`])
    /// override it to stay allocation-free. `ws` grows on first use and is
    /// then reused verbatim, so a workspace that has seen the operator's
    /// geometry once never allocates again.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    fn apply_into_ws(&self, x: &[T], out: &mut [T], ws: &mut Workspace<T>) {
        let _ = ws;
        self.apply_into(x, out);
    }

    /// `out = Aᴴ·y`, drawing any transient buffers from `ws` instead of
    /// the heap. See [`LinearOperator::apply_into_ws`].
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    fn adjoint_into_ws(&self, y: &[T], out: &mut [T], ws: &mut Workspace<T>) {
        let _ = ws;
        self.adjoint_into(y, out);
    }

    /// Allocating wrapper around [`LinearOperator::apply_into`].
    fn apply(&self, x: &[T]) -> Vec<T> {
        let mut out = vec![T::ZERO; self.rows()];
        self.apply_into(x, &mut out);
        out
    }

    /// Allocating wrapper around [`LinearOperator::adjoint_into`].
    fn adjoint(&self, y: &[T]) -> Vec<T> {
        let mut out = vec![T::ZERO; self.cols()];
        self.adjoint_into(y, &mut out);
        out
    }
}

impl<T: Real, A: LinearOperator<T> + ?Sized> LinearOperator<T> for &A {
    fn rows(&self) -> usize {
        (**self).rows()
    }

    fn cols(&self) -> usize {
        (**self).cols()
    }

    fn apply_into(&self, x: &[T], out: &mut [T]) {
        (**self).apply_into(x, out)
    }

    fn adjoint_into(&self, y: &[T], out: &mut [T]) {
        (**self).adjoint_into(y, out)
    }

    fn apply_into_ws(&self, x: &[T], out: &mut [T], ws: &mut Workspace<T>) {
        (**self).apply_into_ws(x, out, ws)
    }

    fn adjoint_into_ws(&self, y: &[T], out: &mut [T], ws: &mut Workspace<T>) {
        (**self).adjoint_into_ws(y, out, ws)
    }
}

/// The matrix-free composed operator `A = Φ·Ψᵀ`: a candidate coefficient
/// vector α is synthesized to the signal domain by the inverse wavelet
/// transform, then measured by the sensing matrix. The adjoint runs the
/// chain backwards.
///
/// # Examples
///
/// ```
/// use cs_dsp::wavelet::{Dwt, Wavelet};
/// use cs_recovery::{LinearOperator, SynthesisOperator};
/// use cs_sensing::SparseBinarySensing;
///
/// let dwt: Dwt<f64> = Dwt::new(&Wavelet::daubechies(4)?, 512, 5)?;
/// let phi = SparseBinarySensing::new(256, 512, 12, 1)?;
/// let a = SynthesisOperator::new(&phi, &dwt);
/// assert_eq!(a.rows(), 256);
/// assert_eq!(a.cols(), 512);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SynthesisOperator<'a, T: Real, S: Sensing<T>> {
    phi: &'a S,
    dwt: &'a Dwt<T>,
}

impl<'a, T: Real, S: Sensing<T>> SynthesisOperator<'a, T, S> {
    /// Composes a sensing matrix with a wavelet synthesis.
    ///
    /// # Panics
    ///
    /// Panics if the sensing matrix's signal length differs from the
    /// transform's length.
    pub fn new(phi: &'a S, dwt: &'a Dwt<T>) -> Self {
        assert_eq!(
            phi.cols(),
            dwt.len(),
            "SynthesisOperator: Φ expects N={} but Ψ synthesizes N={}",
            phi.cols(),
            dwt.len()
        );
        SynthesisOperator { phi, dwt }
    }

    /// The sensing matrix.
    pub fn sensing(&self) -> &S {
        self.phi
    }

    /// The wavelet plan.
    pub fn basis(&self) -> &Dwt<T> {
        self.dwt
    }
}

impl<T: Real, S: Sensing<T>> LinearOperator<T> for SynthesisOperator<'_, T, S> {
    fn rows(&self) -> usize {
        self.phi.rows()
    }

    fn cols(&self) -> usize {
        self.dwt.len()
    }

    fn apply_into(&self, x: &[T], out: &mut [T]) {
        let mut signal = vec![T::ZERO; self.dwt.len()];
        self.dwt.synthesize_into(x, &mut signal);
        self.phi.apply_into(&signal, out);
    }

    fn adjoint_into(&self, y: &[T], out: &mut [T]) {
        let mut signal = vec![T::ZERO; self.dwt.len()];
        self.phi.adjoint_into(y, &mut signal);
        self.dwt.analyze_into(&signal, out);
    }

    // The `_ws` forms are what a solve calls per iteration: inlined into
    // its loop, so only the DWT and Φ entry points stay calls.
    #[inline(always)]
    fn apply_into_ws(&self, x: &[T], out: &mut [T], ws: &mut Workspace<T>) {
        let n = self.dwt.len();
        ws.ensure_cols(n);
        self.dwt.synthesize_scratch(x, &mut ws.signal[..n], &mut ws.scratch[..n]);
        self.phi.apply_into(&ws.signal[..n], out);
    }

    #[inline(always)]
    fn adjoint_into_ws(&self, y: &[T], out: &mut [T], ws: &mut Workspace<T>) {
        let n = self.dwt.len();
        ws.ensure_cols(n);
        self.phi.adjoint_into(y, &mut ws.signal[..n]);
        self.dwt.analyze_scratch(&ws.signal[..n], out, &mut ws.scratch[..n]);
    }
}

/// A rank-one spectral deflation preconditioner in measurement space.
///
/// Sparse binary sensing matrices have near-constant row sums, which puts
/// one large singular value (the "DC" direction) far above the bulk of
/// the spectrum. FISTA's constant step is `1/L` with `L = 2σ₁²`, so that
/// single outlier direction slows *every* coordinate's convergence by
/// `σ₁²/σ_bulk²` (≈ 12× at the paper's `d = 12`, CR 50 geometry). The
/// Gaussian ensemble has no such outlier, which is why a naive constant-
/// step FISTA makes sparse sensing look much worse than Fig. 2 reports.
///
/// `DeflatedOperator` solves the *weighted* least-squares problem
/// `min ‖P(Aα − y)‖² + λ‖α‖₁` with `P = I − (1−c)·uuᴴ`, where `u` is the
/// top left singular vector and `c < 1` scales that direction down into
/// the bulk. This is an exact reweighting of the data-fit term (benign
/// for the low-noise CS setting) that restores Gaussian-like convergence;
/// the `fig2` harness and the decoder both use it with `c ≈ 0.15`.
///
/// # Examples
///
/// ```
/// use cs_recovery::{DeflatedOperator, DenseOperator, KernelMode, LinearOperator, operator_norm};
///
/// // diag(10, 1): deflating the top direction at c = 0.1 leaves norm 1.
/// let a = DenseOperator::from_row_major(2, 2, vec![10.0, 0.0, 0.0, 1.0], KernelMode::Scalar);
/// let deflated = DeflatedOperator::deflate_top(&a, 100, 0.1);
/// let norm: f64 = operator_norm(&deflated, 100);
/// assert!((norm - 1.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct DeflatedOperator<'a, T: Real, A: LinearOperator<T>> {
    inner: &'a A,
    /// Unit measurement-space direction to scale (empty ⇒ identity P).
    /// Borrowed when the caller already owns the direction (the decoder
    /// keeps it across packets), owned when computed here.
    u: Cow<'a, [T]>,
    c: T,
}

impl<'a, T: Real, A: LinearOperator<T>> DeflatedOperator<'a, T, A> {
    /// Finds the top left singular vector by power iteration and deflates
    /// it by factor `c` (`1` disables deflation; typical values are
    /// 0.1–0.3).
    ///
    /// # Panics
    ///
    /// Panics if `c` is not in `(0, 1]` or `sweeps` is zero.
    pub fn deflate_top(inner: &'a A, sweeps: usize, c: T) -> Self {
        let (sigma, u) = crate::lipschitz::top_singular_pair(inner, sweeps);
        let u = if sigma == T::ZERO { Vec::new() } else { u };
        Self::with_direction(inner, u, c)
    }

    /// Wraps an operator with an explicit (already computed) direction.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not in `(0, 1]`, or `u` is neither empty nor of
    /// length `inner.rows()`.
    pub fn with_direction(inner: &'a A, u: Vec<T>, c: T) -> Self {
        Self::with_direction_cow(inner, Cow::Owned(u), c)
    }

    /// Like [`DeflatedOperator::with_direction`], but borrows the
    /// direction instead of taking ownership — the decoder holds `u` for
    /// the stream's lifetime and must not clone it per packet.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not in `(0, 1]`, or `u` is neither empty nor of
    /// length `inner.rows()`.
    pub fn with_direction_borrowed(inner: &'a A, u: &'a [T], c: T) -> Self {
        Self::with_direction_cow(inner, Cow::Borrowed(u), c)
    }

    fn with_direction_cow(inner: &'a A, u: Cow<'a, [T]>, c: T) -> Self {
        assert!(
            c > T::ZERO && c <= T::ONE,
            "DeflatedOperator: c must be in (0, 1]"
        );
        assert!(
            u.is_empty() || u.len() == inner.rows(),
            "DeflatedOperator: direction length mismatch"
        );
        DeflatedOperator { inner, u, c }
    }

    /// The deflated measurement-space direction (empty if none).
    pub fn direction(&self) -> &[T] {
        &self.u
    }

    /// The deflation factor `c`.
    pub fn factor(&self) -> T {
        self.c
    }

    /// Applies the same preconditioner `P` to a measurement vector, so the
    /// solver sees consistent data: `y ← y + (c−1)·u·(uᴴy)`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.rows()`.
    pub fn transform_measurements(&self, y: &[T]) -> Vec<T> {
        let mut out = vec![T::ZERO; y.len()];
        self.transform_measurements_into(y, &mut out);
        out
    }

    /// Non-allocating [`DeflatedOperator::transform_measurements`]:
    /// `out ← P·y`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.rows()` or `out.len() != y.len()`.
    pub fn transform_measurements_into(&self, y: &[T], out: &mut [T]) {
        assert_eq!(y.len(), self.inner.rows(), "transform_measurements: length mismatch");
        assert_eq!(out.len(), y.len(), "transform_measurements: output length mismatch");
        if self.u.is_empty() {
            out.copy_from_slice(y);
        } else {
            self.deflect_into(y, out);
        }
    }

    /// In-place `z ← P z`.
    #[inline(always)]
    fn deflect(&self, z: &mut [T]) {
        if self.u.is_empty() {
            return;
        }
        let gain = self.gain(z);
        for (zi, &ui) in z.iter_mut().zip(self.u.iter()) {
            *zi += gain * ui;
        }
    }

    /// `out ← P z` in one pass over `out` (a non-empty direction only).
    #[inline(always)]
    fn deflect_into(&self, z: &[T], out: &mut [T]) {
        let gain = self.gain(z);
        for ((o, &zi), &ui) in out.iter_mut().zip(z).zip(self.u.iter()) {
            *o = zi + gain * ui;
        }
    }

    /// `(c − 1)·⟨z, u⟩`: the multiple of `u` that `P` adds to `z`.
    #[inline(always)]
    fn gain(&self, z: &[T]) -> T {
        // Twice per solver iteration, so the lane-parallel reduction
        // whatever kernel mode the solver itself runs in.
        (self.c - T::ONE) * dot(z, &self.u, KernelMode::Unrolled4)
    }
}

impl<T: Real, A: LinearOperator<T>> LinearOperator<T> for DeflatedOperator<'_, T, A> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn apply_into(&self, x: &[T], out: &mut [T]) {
        self.inner.apply_into(x, out);
        self.deflect(out);
    }

    fn adjoint_into(&self, y: &[T], out: &mut [T]) {
        if self.u.is_empty() {
            self.inner.adjoint_into(y, out);
            return;
        }
        // Pᴴ = P (symmetric), so adjoint is Aᴴ·P·y.
        let mut yp = y.to_vec();
        self.deflect(&mut yp);
        self.inner.adjoint_into(&yp, out);
    }

    #[inline(always)]
    fn apply_into_ws(&self, x: &[T], out: &mut [T], ws: &mut Workspace<T>) {
        self.inner.apply_into_ws(x, out, ws);
        self.deflect(out);
    }

    #[inline(always)]
    fn adjoint_into_ws(&self, y: &[T], out: &mut [T], ws: &mut Workspace<T>) {
        if self.u.is_empty() {
            self.inner.adjoint_into_ws(y, out, ws);
            return;
        }
        // The deflected copy of y lives in the workspace's measurement
        // buffer; take it out so `ws` can still be lent to the inner
        // operator, then hand it back.
        let mut yp = std::mem::take(&mut ws.measure);
        yp.resize(y.len(), T::ZERO);
        self.deflect_into(y, &mut yp);
        self.inner.adjoint_into_ws(&yp, out, ws);
        ws.measure = yp;
    }
}

/// A dense, explicitly stored operator (row-major), used as the baseline
/// the paper's matrix-free design is compared against, and by OMP for
/// column access.
#[derive(Debug, Clone)]
pub struct DenseOperator<T: Real> {
    m: usize,
    n: usize,
    /// Row-major storage: the apply/adjoint kernels walk rows contiguously.
    data: Vec<T>,
    /// Column-major mirror: OMP's selection loop reads whole columns, so
    /// `column_into` must not stride the row-major layout.
    col_data: Vec<T>,
    kernel: KernelMode,
}

impl<T: Real> DenseOperator<T> {
    /// Wraps row-major data as an operator.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != m * n` or a dimension is zero.
    pub fn from_row_major(m: usize, n: usize, data: Vec<T>, kernel: KernelMode) -> Self {
        assert!(m > 0 && n > 0, "DenseOperator: zero dimension");
        assert_eq!(data.len(), m * n, "DenseOperator: data length mismatch");
        let mut col_data = vec![T::ZERO; m * n];
        for i in 0..m {
            for j in 0..n {
                col_data[j * m + i] = data[i * n + j];
            }
        }
        DenseOperator { m, n, data, col_data, kernel }
    }

    /// Materializes any operator into dense form (one `apply` per column).
    pub fn materialize<A: LinearOperator<T>>(op: &A, kernel: KernelMode) -> Self {
        let (m, n) = (op.rows(), op.cols());
        // Each unit-vector apply lands contiguously in the column-major
        // store; the row-major mirror is transposed out in a single pass.
        let mut col_data = vec![T::ZERO; m * n];
        let mut e = vec![T::ZERO; n];
        for (j, col) in col_data.chunks_exact_mut(m).enumerate() {
            e[j] = T::ONE;
            op.apply_into(&e, col);
            e[j] = T::ZERO;
        }
        let mut data = vec![T::ZERO; m * n];
        for j in 0..n {
            for i in 0..m {
                data[i * n + j] = col_data[j * m + i];
            }
        }
        DenseOperator { m, n, data, col_data, kernel }
    }

    /// Copies column `j` into `out` — a contiguous copy from the
    /// column-major mirror, not an `m`-stride walk of the row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()` or `out.len() != self.rows()`.
    pub fn column_into(&self, j: usize, out: &mut [T]) {
        assert!(j < self.n, "column_into: column out of range");
        assert_eq!(out.len(), self.m, "column_into: output length mismatch");
        out.copy_from_slice(&self.col_data[j * self.m..(j + 1) * self.m]);
    }

    /// The kernel mode the apply paths use.
    pub fn kernel(&self) -> KernelMode {
        self.kernel
    }
}

impl<T: Real> LinearOperator<T> for DenseOperator<T> {
    fn rows(&self) -> usize {
        self.m
    }

    fn cols(&self) -> usize {
        self.n
    }

    fn apply_into(&self, x: &[T], out: &mut [T]) {
        assert_eq!(x.len(), self.n, "apply_into: x length mismatch");
        assert_eq!(out.len(), self.m, "apply_into: out length mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            *o = dot(&self.data[i * self.n..(i + 1) * self.n], x, self.kernel);
        }
    }

    fn adjoint_into(&self, y: &[T], out: &mut [T]) {
        assert_eq!(y.len(), self.m, "adjoint_into: y length mismatch");
        assert_eq!(out.len(), self.n, "adjoint_into: out length mismatch");
        for v in out.iter_mut() {
            *v = T::ZERO;
        }
        for (i, &yi) in y.iter().enumerate() {
            if yi == T::ZERO {
                continue;
            }
            crate::kernels::axpy(yi, &self.data[i * self.n..(i + 1) * self.n], out, self.kernel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_dsp::wavelet::Wavelet;
    use cs_sensing::SparseBinarySensing;

    fn setup() -> (SparseBinarySensing, Dwt<f64>) {
        let dwt = Dwt::new(&Wavelet::daubechies(4).unwrap(), 128, 3).unwrap();
        let phi = SparseBinarySensing::new(64, 128, 8, 3).unwrap();
        (phi, dwt)
    }

    #[test]
    fn composed_adjoint_identity() {
        let (phi, dwt) = setup();
        let a = SynthesisOperator::new(&phi, &dwt);
        let x: Vec<f64> = (0..128).map(|i| (i as f64 * 0.23).sin()).collect();
        let y: Vec<f64> = (0..64).map(|i| (i as f64 * 0.71).cos()).collect();
        let ax = a.apply(&x);
        let aty = a.adjoint(&y);
        let lhs: f64 = ax.iter().zip(&y).map(|(u, v)| u * v).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(u, v)| u * v).sum();
        assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
    }

    #[test]
    fn dense_materialization_matches_matrix_free() {
        let (phi, dwt) = setup();
        let a = SynthesisOperator::new(&phi, &dwt);
        let dense = DenseOperator::materialize(&a, KernelMode::Unrolled4);
        let x: Vec<f64> = (0..128).map(|i| ((i * i) as f64 * 0.01).cos()).collect();
        let y1 = a.apply(&x);
        let y2 = dense.apply(&x);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-9);
        }
        let r: Vec<f64> = (0..64).map(|i| (i as f64) - 32.0).collect();
        let b1 = a.adjoint(&r);
        let b2 = dense.adjoint(&r);
        for (u, v) in b1.iter().zip(&b2) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn dense_column_access() {
        let data = vec![
            1.0, 2.0, //
            3.0, 4.0, //
            5.0, 6.0,
        ];
        let op = DenseOperator::from_row_major(3, 2, data, KernelMode::Scalar);
        let mut col = vec![0.0; 3];
        op.column_into(1, &mut col);
        assert_eq!(col, vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn composed_preserves_energy_on_orthonormal_part() {
        // With Φ = identity-ish impossible here, but Ψᵀ alone is orthonormal:
        // ‖Ψᵀα‖ = ‖α‖. Verify through the operator by comparing to Φ's
        // action on the synthesized signal directly.
        let (phi, dwt) = setup();
        let a = SynthesisOperator::new(&phi, &dwt);
        let alpha: Vec<f64> = (0..128).map(|i| if i % 17 == 0 { 1.0 } else { 0.0 }).collect();
        let via_op = a.apply(&alpha);
        let signal = dwt.synthesize(&alpha);
        let direct: Vec<f64> = phi.apply(signal.as_slice());
        assert_eq!(via_op, direct);
    }

    #[test]
    fn workspace_paths_bitwise_match_allocating() {
        let (phi, dwt) = setup();
        let a = SynthesisOperator::new(&phi, &dwt);
        let u: Vec<f64> = {
            let raw: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.31).sin() + 0.2).collect();
            let norm = raw.iter().map(|v| v * v).sum::<f64>().sqrt();
            raw.iter().map(|v| v / norm).collect()
        };
        let deflated = DeflatedOperator::with_direction_borrowed(&a, &u, 0.15);
        let x: Vec<f64> = (0..128).map(|i| (i as f64 * 0.11).cos()).collect();
        let y: Vec<f64> = (0..64).map(|i| (i as f64 * 0.53).sin()).collect();

        let mut ws = Workspace::for_operator(&deflated);
        let mut out_m = vec![0.0; 64];
        let mut out_n = vec![0.0; 128];

        // Exercise each path twice: the second pass reuses warmed buffers.
        for _ in 0..2 {
            deflated.apply_into_ws(&x, &mut out_m, &mut ws);
            assert_eq!(out_m, deflated.apply(&x), "deflated apply differs");
            deflated.adjoint_into_ws(&y, &mut out_n, &mut ws);
            assert_eq!(out_n, deflated.adjoint(&y), "deflated adjoint differs");
            a.apply_into_ws(&x, &mut out_m, &mut ws);
            assert_eq!(out_m, a.apply(&x), "synthesis apply differs");
            a.adjoint_into_ws(&y, &mut out_n, &mut ws);
            assert_eq!(out_n, a.adjoint(&y), "synthesis adjoint differs");
        }

        let mut yp = vec![0.0; 64];
        deflated.transform_measurements_into(&y, &mut yp);
        assert_eq!(yp, deflated.transform_measurements(&y));
    }

    #[test]
    fn borrowed_and_owned_directions_agree() {
        let (phi, dwt) = setup();
        let a = SynthesisOperator::new(&phi, &dwt);
        let u = vec![1.0 / 8.0; 64];
        let owned = DeflatedOperator::with_direction(&a, u.clone(), 0.2);
        let borrowed = DeflatedOperator::with_direction_borrowed(&a, &u, 0.2);
        let y: Vec<f64> = (0..64).map(|i| (i as f64 * 0.29).cos()).collect();
        assert_eq!(owned.adjoint(&y), borrowed.adjoint(&y));
        assert_eq!(owned.direction(), borrowed.direction());
    }

    #[test]
    #[should_panic(expected = "Φ expects")]
    fn dimension_mismatch_panics() {
        let dwt: Dwt<f64> = Dwt::new(&Wavelet::haar(), 64, 2).unwrap();
        let phi = SparseBinarySensing::new(32, 128, 4, 1).unwrap();
        let _ = SynthesisOperator::new(&phi, &dwt);
    }
}
