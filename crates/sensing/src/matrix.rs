//! Sensing (measurement) matrices.
//!
//! The paper explores three implementations of the random sensing matrix Φ
//! on the mote (§IV-A2): (1) an 8-bit quantized on-board Gaussian generator,
//! (2) a stored dense Gaussian matrix, and (3) the innovation it settles on —
//! a **sparse binary** matrix with exactly `d` ones per column (scaled
//! 1/√d), whose product with the sample vector is a pure integer gather-add.
//! All three are implemented here, along with the Bernoulli ±1/√N matrix the
//! CS literature uses as a second universal ensemble.

#[cfg(target_arch = "x86_64")]
use crate::blocked::BlockedGather;
use crate::error::SensingError;
use crate::rng::MotePrng;
use cs_dsp::Real;

/// A linear measurement operator `y = Φx` with `Φ ∈ ℝ^{M×N}`, plus its
/// adjoint — everything a gradient-based CS solver needs.
///
/// Implementors must guarantee `adjoint_into` computes the exact transpose
/// of `apply_into` (the solvers' convergence proofs rely on it, and the
/// test suites verify it by the inner-product identity).
pub trait Sensing<T: Real> {
    /// Number of measurements M (rows of Φ).
    fn rows(&self) -> usize;

    /// Signal length N (columns of Φ).
    fn cols(&self) -> usize;

    /// Computes `y = Φx` into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    fn apply_into(&self, x: &[T], y: &mut [T]);

    /// Computes `x = Φᴴy` into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.rows()` or `x.len() != self.cols()`.
    fn adjoint_into(&self, y: &[T], x: &mut [T]);

    /// Allocating convenience wrapper around [`Sensing::apply_into`].
    fn apply(&self, x: &[T]) -> Vec<T> {
        let mut y = vec![T::ZERO; self.rows()];
        self.apply_into(x, &mut y);
        y
    }

    /// Allocating convenience wrapper around [`Sensing::adjoint_into`].
    fn adjoint(&self, y: &[T]) -> Vec<T> {
        let mut x = vec![T::ZERO; self.cols()];
        self.adjoint_into(y, &mut x);
        x
    }

    /// Materializes Φ row-major — intended for diagnostics and tests, not
    /// for the hot path.
    fn to_dense(&self) -> Vec<T> {
        let (m, n) = (self.rows(), self.cols());
        let mut dense = vec![T::ZERO; m * n];
        let mut e = vec![T::ZERO; n];
        let mut col = vec![T::ZERO; m];
        for j in 0..n {
            e[j] = T::ONE;
            self.apply_into(&e, &mut col);
            e[j] = T::ZERO;
            for i in 0..m {
                dense[i * n + j] = col[i];
            }
        }
        dense
    }
}

impl<T: Real, S: Sensing<T> + ?Sized> Sensing<T> for &S {
    fn rows(&self) -> usize {
        (**self).rows()
    }

    fn cols(&self) -> usize {
        (**self).cols()
    }

    fn apply_into(&self, x: &[T], y: &mut [T]) {
        (**self).apply_into(x, y)
    }

    fn adjoint_into(&self, y: &[T], x: &mut [T]) {
        (**self).adjoint_into(y, x)
    }
}

/// The statistical ensemble a [`DenseSensing`] matrix is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum DenseEnsemble {
    /// I.i.d. `N(0, 1/N)` entries — the paper's reference ensemble.
    Gaussian,
    /// I.i.d. `±1/√N` entries with equal probability.
    Bernoulli,
    /// `N(0, 1/N)` entries quantized to an 8-bit grid spanning ±4σ — the
    /// paper's first on-mote attempt (§IV-A2 approach 1).
    QuantizedGaussian,
}

/// A dense random sensing matrix stored row-major at precision `T`.
///
/// # Examples
///
/// ```
/// use cs_sensing::{DenseSensing, Sensing};
///
/// let phi: DenseSensing<f64> = DenseSensing::gaussian(128, 512, 7)?;
/// let x = vec![1.0; 512];
/// let y = phi.apply(&x);
/// assert_eq!(y.len(), 128);
/// # Ok::<(), cs_sensing::SensingError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DenseSensing<T: Real> {
    m: usize,
    n: usize,
    ensemble: DenseEnsemble,
    seed: u64,
    /// Row-major `m × n` entries.
    data: Vec<T>,
}

impl<T: Real> DenseSensing<T> {
    /// Draws an i.i.d. Gaussian `N(0, 1/N)` matrix from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`SensingError::InvalidDimensions`] if either dimension is
    /// zero or `m > n`.
    pub fn gaussian(m: usize, n: usize, seed: u64) -> Result<Self, SensingError> {
        Self::build(m, n, seed, DenseEnsemble::Gaussian)
    }

    /// Draws an i.i.d. symmetric Bernoulli `±1/√N` matrix from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`SensingError::InvalidDimensions`] if either dimension is
    /// zero or `m > n`.
    pub fn bernoulli(m: usize, n: usize, seed: u64) -> Result<Self, SensingError> {
        Self::build(m, n, seed, DenseEnsemble::Bernoulli)
    }

    /// Draws a Gaussian matrix and quantizes every entry to the 8-bit grid
    /// the paper's first mote implementation used.
    ///
    /// # Errors
    ///
    /// Returns [`SensingError::InvalidDimensions`] if either dimension is
    /// zero or `m > n`.
    pub fn quantized_gaussian(m: usize, n: usize, seed: u64) -> Result<Self, SensingError> {
        Self::build(m, n, seed, DenseEnsemble::QuantizedGaussian)
    }

    fn build(
        m: usize,
        n: usize,
        seed: u64,
        ensemble: DenseEnsemble,
    ) -> Result<Self, SensingError> {
        validate_dims(m, n)?;
        let mut rng = MotePrng::new(seed);
        let sigma = 1.0 / (n as f64).sqrt();
        let data: Vec<T> = match ensemble {
            DenseEnsemble::Gaussian => (0..m * n)
                .map(|_| T::from_f64(rng.next_gaussian() * sigma))
                .collect(),
            DenseEnsemble::Bernoulli => (0..m * n)
                .map(|_| {
                    if rng.next_u32() & 1 == 0 {
                        T::from_f64(sigma)
                    } else {
                        T::from_f64(-sigma)
                    }
                })
                .collect(),
            DenseEnsemble::QuantizedGaussian => {
                // 8-bit signed grid over ±4σ: step = 4σ/127.
                let step = 4.0 * sigma / 127.0;
                (0..m * n)
                    .map(|_| {
                        let g = rng.next_gaussian() * sigma;
                        let q = (g / step).round().clamp(-128.0, 127.0);
                        T::from_f64(q * step)
                    })
                    .collect()
            }
        };
        Ok(DenseSensing {
            m,
            n,
            ensemble,
            seed,
            data,
        })
    }

    /// The ensemble this matrix was drawn from.
    pub fn ensemble(&self) -> DenseEnsemble {
        self.ensemble
    }

    /// The seed the matrix expands from (shared encoder ↔ decoder state).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Raw row-major entries.
    pub fn entries(&self) -> &[T] {
        &self.data
    }
}

impl<T: Real> Sensing<T> for DenseSensing<T> {
    fn rows(&self) -> usize {
        self.m
    }

    fn cols(&self) -> usize {
        self.n
    }

    fn apply_into(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.n, "apply_into: x length mismatch");
        assert_eq!(y.len(), self.m, "apply_into: y length mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.n..(i + 1) * self.n];
            let mut acc = T::ZERO;
            for (r, xv) in row.iter().zip(x) {
                acc += *r * *xv;
            }
            *yi = acc;
        }
    }

    fn adjoint_into(&self, y: &[T], x: &mut [T]) {
        assert_eq!(y.len(), self.m, "adjoint_into: y length mismatch");
        assert_eq!(x.len(), self.n, "adjoint_into: x length mismatch");
        for v in x.iter_mut() {
            *v = T::ZERO;
        }
        for (i, &yi) in y.iter().enumerate() {
            if yi == T::ZERO {
                continue;
            }
            let row = &self.data[i * self.n..(i + 1) * self.n];
            for (xv, r) in x.iter_mut().zip(row) {
                *xv += *r * yi;
            }
        }
    }

    fn to_dense(&self) -> Vec<T> {
        self.data.clone()
    }
}

/// The paper's sparse binary sensing matrix: each of the N columns has
/// exactly `d` nonzero entries equal to `1/√d`, at pseudo-random row
/// positions expanded from a seed (§IV-A2 approach 3).
///
/// Because the nonzeros are all equal, the mote never multiplies: the
/// measurement is a gather-add of `d` input samples per column, done in
/// 16-bit integer arithmetic ([`SparseBinarySensing::apply_unscaled_i32`]),
/// with the single `1/√d` scale folded into the decoder.
///
/// # Examples
///
/// ```
/// use cs_sensing::{Sensing, SparseBinarySensing};
///
/// let phi = SparseBinarySensing::new(256, 512, 12, 42)?;
/// assert_eq!(phi.rows(), 256);
/// assert_eq!(phi.ones_per_column(), 12);
///
/// // Float path (decoder) and integer path (mote) agree up to the scale.
/// let x_i: Vec<i16> = (0..512).map(|i| (i % 50) as i16 - 25).collect();
/// let x_f: Vec<f64> = x_i.iter().map(|&v| v as f64).collect();
/// let y_f: Vec<f64> = phi.apply(x_f.as_slice());
/// let y_i = phi.apply_unscaled_i32(&x_i);
/// let scale = 1.0 / (12.0_f64).sqrt();
/// for (a, b) in y_f.iter().zip(&y_i) {
///     assert!((a - *b as f64 * scale).abs() < 1e-9);
/// }
/// # Ok::<(), cs_sensing::SensingError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseBinarySensing {
    m: usize,
    n: usize,
    d: usize,
    seed: u64,
    /// Row indices of the ones, `d` per column: column `j` occupies
    /// `col_rows[j*d .. (j+1)*d]`, sorted within each column (CSC — the
    /// adjoint's layout: `Φᴴy` gathers per column).
    col_rows: Vec<u32>,
    /// The same support in row-major (CSR) form: row `i`'s nonzero columns
    /// occupy `row_cols[row_ptr[i] .. row_ptr[i+1]]`, sorted ascending.
    /// This is the *forward* direction's layout: `y = Φx` becomes one
    /// sequential gather per row with a register accumulator, instead of
    /// the CSC path's scattered read-modify-writes across all of `y`.
    row_cols: Vec<u32>,
    /// CSR row offsets, `m + 1` entries.
    row_ptr: Vec<u32>,
    /// The same support once more, blocked eight outputs wide for the AVX2
    /// `f32` gathers; `None` on a CPU without AVX2, where (as for `f64`
    /// everywhere) the portable `gather_sum` loops serve every product.
    /// Both produce the same bits, so which one runs is not observable.
    #[cfg(target_arch = "x86_64")]
    blocked: Option<BlockedGather>,
}

impl SparseBinarySensing {
    /// Expands the matrix structure from a seed.
    ///
    /// # Errors
    ///
    /// * [`SensingError::InvalidDimensions`] if a dimension is zero or
    ///   `m > n`.
    /// * [`SensingError::InvalidColumnWeight`] unless `1 ≤ d ≤ m`.
    pub fn new(m: usize, n: usize, d: usize, seed: u64) -> Result<Self, SensingError> {
        validate_dims(m, n)?;
        if d == 0 || d > m {
            return Err(SensingError::InvalidColumnWeight { d, m });
        }
        let mut rng = MotePrng::new(seed);
        let mut col_rows = Vec::with_capacity(n * d);
        for _ in 0..n {
            col_rows.extend(rng.distinct_below(d, m as u32));
        }
        // Transpose the CSC support into CSR once, by counting sort: the
        // column indices of each row come out sorted ascending because the
        // outer scan visits columns in order.
        let mut row_ptr = vec![0_u32; m + 1];
        for &row in &col_rows {
            row_ptr[row as usize + 1] += 1;
        }
        for i in 0..m {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut cursor = row_ptr.clone();
        let mut row_cols = vec![0_u32; n * d];
        for (j, rows) in col_rows.chunks_exact(d).enumerate() {
            for &row in rows {
                let slot = &mut cursor[row as usize];
                row_cols[*slot as usize] = j as u32;
                *slot += 1;
            }
        }
        Ok(SparseBinarySensing {
            m,
            n,
            d,
            seed,
            #[cfg(target_arch = "x86_64")]
            blocked: BlockedGather::new(m, n, d, &col_rows, &row_cols, &row_ptr),
            col_rows,
            row_cols,
            row_ptr,
        })
    }

    /// Number of measurements M (rows of Φ). Inherent twin of
    /// [`Sensing::rows`] so callers need not name a precision.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Signal length N (columns of Φ). Inherent twin of [`Sensing::cols`].
    pub fn cols(&self) -> usize {
        self.n
    }

    /// The column weight `d` (number of ones per column).
    pub fn ones_per_column(&self) -> usize {
        self.d
    }

    /// The seed the structure expands from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The value of each nonzero entry, `1/√d`.
    pub fn nonzero_value(&self) -> f64 {
        1.0 / (self.d as f64).sqrt()
    }

    /// The sorted row indices of column `j`'s ones.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn column_support(&self, j: usize) -> &[u32] {
        assert!(j < self.n, "column_support: column out of range");
        &self.col_rows[j * self.d..(j + 1) * self.d]
    }

    /// The sorted column indices of row `i`'s ones (the CSR view; the
    /// forward apply gathers exactly these).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_support(&self, i: usize) -> &[u32] {
        assert!(i < self.m, "row_support: row out of range");
        &self.row_cols[self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize]
    }

    /// The integer mote path: `y_i = Σ_{j : Φ_{ij} ≠ 0} x_j`, **without**
    /// the `1/√d` scale, exactly as the 16-bit encoder computes it. Sums
    /// accumulate in `i32`: a row holds at most `n` ones, so
    /// `|y_i| ≤ n · 2¹⁵` and nothing overflows for any `i16` input while
    /// `n < 2¹⁶`. Where the AVX2 row tables exist the rows are gathered
    /// eight at a time; otherwise each sample is scattered down its
    /// column. Integer sums are order-free, so the two agree exactly.
    pub fn apply_unscaled_i32(&self, x: &[i16]) -> Vec<i32> {
        assert_eq!(x.len(), self.n, "apply_unscaled_i32: x length mismatch");
        #[cfg(target_arch = "x86_64")]
        if let Some(blocked) = &self.blocked {
            return blocked.apply_i32(x);
        }
        let mut y = vec![0_i32; self.m];
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0 {
                continue;
            }
            let xj = xj as i32;
            for &row in self.column_support(j) {
                y[row as usize] += xj;
            }
        }
        y
    }
}

impl<T: Real> Sensing<T> for SparseBinarySensing {
    fn rows(&self) -> usize {
        self.m
    }

    fn cols(&self) -> usize {
        self.n
    }

    fn apply_into(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.n, "apply_into: x length mismatch");
        assert_eq!(y.len(), self.m, "apply_into: y length mismatch");
        #[cfg(target_arch = "x86_64")]
        if let (Some(blocked), Some(x), Some(y)) =
            (&self.blocked, T::as_f32_slice(x), T::as_f32_slice_mut(y))
        {
            return blocked.apply(x, y, self.nonzero_value() as f32);
        }
        // CSR gather: each output element is a sequential sum over its
        // row's support — one streaming pass over `row_cols`, one write per
        // output, no scattered read-modify-writes (cache-shaped for the
        // forward direction of travel; the adjoint below keeps CSC).
        let scale = T::from_f64(self.nonzero_value());
        let mut lo = self.row_ptr[0] as usize;
        for (i, yi) in y.iter_mut().enumerate() {
            let hi = self.row_ptr[i + 1] as usize;
            *yi = gather_sum(x, &self.row_cols[lo..hi]) * scale;
            lo = hi;
        }
    }

    fn adjoint_into(&self, y: &[T], x: &mut [T]) {
        assert_eq!(y.len(), self.m, "adjoint_into: y length mismatch");
        assert_eq!(x.len(), self.n, "adjoint_into: x length mismatch");
        // Leading columns the blocked kernel has already produced.
        #[allow(unused_mut)]
        let mut done = 0;
        #[cfg(target_arch = "x86_64")]
        if let (Some(blocked), Some(y), Some(x)) =
            (&self.blocked, T::as_f32_slice(y), T::as_f32_slice_mut(x))
        {
            done = blocked.adjoint(y, x, self.nonzero_value() as f32);
        }
        let scale = T::from_f64(self.nonzero_value());
        for (j, xv) in x.iter_mut().enumerate().skip(done) {
            *xv = gather_sum(y, self.column_support(j)) * scale;
        }
    }
}

/// `Σ src[idx]` with four independent accumulators: a single running sum
/// serializes on add latency (~4 cycles each), which dominates these
/// 12–24-element support loops since every `src` read hits L1.
#[inline]
fn gather_sum<T: Real>(src: &[T], idx: &[u32]) -> T {
    let mut quads = idx.chunks_exact(4);
    let mut acc = [T::ZERO; 4];
    for q in quads.by_ref() {
        acc[0] += src[q[0] as usize];
        acc[1] += src[q[1] as usize];
        acc[2] += src[q[2] as usize];
        acc[3] += src[q[3] as usize];
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for &i in quads.remainder() {
        sum += src[i as usize];
    }
    sum
}

fn validate_dims(m: usize, n: usize) -> Result<(), SensingError> {
    if m == 0 || n == 0 {
        return Err(SensingError::InvalidDimensions {
            m,
            n,
            reason: "dimensions must be nonzero".into(),
        });
    }
    if m > n {
        return Err(SensingError::InvalidDimensions {
            m,
            n,
            reason: "a compression matrix needs m <= n".into(),
        });
    }
    Ok(())
}

/// Number of measurements `M` for a target compression ratio of the linear
/// CS stage: `M = round(N · (1 − CR/100))`, clamped to `[1, N]`.
///
/// # Panics
///
/// Panics if `cr_percent` is not in `[0, 100)` or `n == 0`.
///
/// # Examples
///
/// ```
/// assert_eq!(cs_sensing::measurements_for_cr(512, 50.0), 256);
/// assert_eq!(cs_sensing::measurements_for_cr(512, 75.0), 128);
/// ```
pub fn measurements_for_cr(n: usize, cr_percent: f64) -> usize {
    assert!(n > 0, "measurements_for_cr: n must be positive");
    assert!(
        (0.0..100.0).contains(&cr_percent),
        "measurements_for_cr: CR must be in [0, 100)"
    );
    let m = ((n as f64) * (1.0 - cr_percent / 100.0)).round() as usize;
    m.clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn adjoint_identity<S: Sensing<f64>>(phi: &S, seed: u64) {
        let (m, n) = (phi.rows(), phi.cols());
        let mut rng = MotePrng::new(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let y: Vec<f64> = (0..m).map(|_| rng.next_gaussian()).collect();
        let ax: Vec<f64> = phi.apply(&x);
        let aty: Vec<f64> = phi.adjoint(&y);
        let lhs: f64 = ax.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()),
            "⟨Φx,y⟩={lhs} vs ⟨x,Φᵀy⟩={rhs}"
        );
    }

    #[test]
    fn dense_adjoint_is_transpose() {
        for phi in [
            DenseSensing::<f64>::gaussian(32, 64, 1).unwrap(),
            DenseSensing::<f64>::bernoulli(32, 64, 2).unwrap(),
            DenseSensing::<f64>::quantized_gaussian(32, 64, 3).unwrap(),
        ] {
            adjoint_identity(&phi, 99);
        }
    }

    #[test]
    fn sparse_adjoint_is_transpose() {
        let phi = SparseBinarySensing::new(64, 128, 8, 5).unwrap();
        adjoint_identity(&phi, 77);
    }

    #[test]
    fn sparse_structure_is_exact() {
        let phi = SparseBinarySensing::new(100, 200, 12, 9).unwrap();
        for j in 0..200 {
            let s = phi.column_support(j);
            assert_eq!(s.len(), 12);
            for w in s.windows(2) {
                assert!(w[0] < w[1], "column {j} not strictly sorted");
            }
            assert!(s.iter().all(|&r| r < 100));
        }
    }

    #[test]
    fn sparse_dense_view_matches_apply() {
        let phi = SparseBinarySensing::new(16, 32, 4, 11).unwrap();
        let dense: Vec<f64> = Sensing::<f64>::to_dense(&phi);
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.3).sin()).collect();
        let y = phi.apply(&x);
        for i in 0..16 {
            let manual: f64 = (0..32).map(|j| dense[i * 32 + j] * x[j]).sum();
            assert!((manual - y[i]).abs() < 1e-12);
        }
        // Every column of the dense view sums to d · (1/√d) = √d.
        for j in 0..32 {
            let col_sum: f64 = (0..16).map(|i| dense[i * 32 + j]).sum();
            assert!((col_sum - 2.0).abs() < 1e-12); // √4
        }
    }

    /// The CSC reference implementation of `y = Φx` (the pre-CSR forward
    /// path): scatter each column's contribution, scale at the end.
    fn apply_csc(phi: &SparseBinarySensing, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; phi.rows()];
        for (j, &xj) in x.iter().enumerate() {
            for &row in phi.column_support(j) {
                y[row as usize] += xj;
            }
        }
        let scale = phi.nonzero_value();
        y.iter().map(|v| v * scale).collect()
    }

    #[test]
    fn csr_and_csc_describe_the_same_support() {
        for (m, n, d) in [(64, 128, 8), (16, 32, 1), (16, 32, 16), (100, 200, 12)] {
            let phi = SparseBinarySensing::new(m, n, d, 31).unwrap();
            // Every (row, col) pair in the CSC view appears in the CSR view.
            let mut csc_pairs: Vec<(u32, u32)> = (0..n)
                .flat_map(|j| phi.column_support(j).iter().map(move |&r| (r, j as u32)))
                .collect();
            csc_pairs.sort_unstable();
            let csr_pairs: Vec<(u32, u32)> = (0..m)
                .flat_map(|i| phi.row_support(i).iter().map(move |&c| (i as u32, c)))
                .collect();
            assert_eq!(csc_pairs, csr_pairs, "layouts disagree at d={d}");
            // CSR columns are sorted within each row.
            for i in 0..m {
                for w in phi.row_support(i).windows(2) {
                    assert!(w[0] < w[1], "row {i} not strictly sorted");
                }
            }
        }
    }

    #[test]
    fn integer_and_float_paths_agree() {
        let phi = SparseBinarySensing::new(128, 512, 12, 2024).unwrap();
        let x_i: Vec<i16> = (0..512).map(|i| ((i * 37) % 2047) as i16 - 1024).collect();
        let x_f: Vec<f64> = x_i.iter().map(|&v| v as f64).collect();
        let y_i = phi.apply_unscaled_i32(&x_i);
        let y_f: Vec<f64> = phi.apply(&x_f);
        let scale = phi.nonzero_value();
        for (f, i) in y_f.iter().zip(&y_i) {
            assert!((f - *i as f64 * scale).abs() < 1e-6);
        }
    }

    #[test]
    fn same_seed_same_matrix() {
        let a = SparseBinarySensing::new(64, 256, 12, 555).unwrap();
        let b = SparseBinarySensing::new(64, 256, 12, 555).unwrap();
        assert_eq!(a, b);
        let c = SparseBinarySensing::new(64, 256, 12, 556).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn gaussian_variance_close_to_one_over_n() {
        let n = 256;
        let phi = DenseSensing::<f64>::gaussian(128, n, 7).unwrap();
        let entries = phi.entries();
        let mean: f64 = entries.iter().sum::<f64>() / entries.len() as f64;
        let var: f64 =
            entries.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / entries.len() as f64;
        assert!((var * n as f64 - 1.0).abs() < 0.1, "Nσ² = {}", var * n as f64);
    }

    #[test]
    fn quantized_gaussian_has_few_levels() {
        let phi = DenseSensing::<f64>::quantized_gaussian(64, 128, 3).unwrap();
        let mut levels: Vec<i64> = phi
            .entries()
            .iter()
            .map(|&e| (e * 1e12).round() as i64)
            .collect();
        levels.sort_unstable();
        levels.dedup();
        assert!(levels.len() <= 256, "{} distinct levels", levels.len());
    }

    #[test]
    fn bernoulli_entries_are_two_valued() {
        let n = 64;
        let phi = DenseSensing::<f64>::bernoulli(32, n, 4).unwrap();
        let s = 1.0 / (n as f64).sqrt();
        assert!(phi
            .entries()
            .iter()
            .all(|&e| (e - s).abs() < 1e-15 || (e + s).abs() < 1e-15));
    }

    #[test]
    fn invalid_constructions_rejected() {
        assert!(DenseSensing::<f64>::gaussian(0, 10, 1).is_err());
        assert!(DenseSensing::<f64>::gaussian(20, 10, 1).is_err());
        assert!(SparseBinarySensing::new(64, 128, 0, 1).is_err());
        assert!(SparseBinarySensing::new(64, 128, 65, 1).is_err());
    }

    #[test]
    fn measurements_for_cr_table() {
        assert_eq!(measurements_for_cr(512, 0.0), 512);
        assert_eq!(measurements_for_cr(512, 30.0), 358);
        assert_eq!(measurements_for_cr(512, 90.0), 51);
        assert_eq!(measurements_for_cr(10, 99.9), 1); // clamped to >= 1
    }

    #[test]
    #[should_panic(expected = "CR must be in")]
    fn measurements_for_cr_rejects_100() {
        let _ = measurements_for_cr(512, 100.0);
    }

    proptest! {
        #[test]
        fn prop_sparse_apply_linear(seed in any::<u64>(), scale in -3.0_f64..3.0) {
            let phi = SparseBinarySensing::new(32, 64, 6, seed).unwrap();
            let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.2).cos()).collect();
            let sx: Vec<f64> = x.iter().map(|v| v * scale).collect();
            let y: Vec<f64> = phi.apply(&x);
            let ys: Vec<f64> = phi.apply(&sx);
            for (a, b) in y.iter().zip(&ys) {
                prop_assert!((a * scale - b).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_csr_csc_dense_apply_agree(
            seed in any::<u64>(),
            m in 4_usize..40,
            n_extra in 0_usize..60,
            d_pick in 0_usize..3,
        ) {
            let n = m + n_extra;
            // Exercise the d = 1 and d = m edge cases explicitly alongside
            // an interior value.
            let d = match d_pick {
                0 => 1,
                1 => m,
                _ => (m / 2).max(1),
            };
            let phi = SparseBinarySensing::new(m, n, d, seed).unwrap();
            let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin() + 0.1).collect();

            // CSR path (production apply_into).
            let y_csr: Vec<f64> = phi.apply(&x);
            // CSC reference path (column scatter).
            let y_csc = apply_csc(&phi, &x);
            // Dense materialization path.
            let dense = Sensing::<f64>::to_dense(&phi);
            let y_dense: Vec<f64> = (0..m)
                .map(|i| dense[i * n..(i + 1) * n].iter().zip(&x).map(|(a, b)| a * b).sum())
                .collect();

            for i in 0..m {
                prop_assert!((y_csr[i] - y_csc[i]).abs() < 1e-9,
                    "CSR vs CSC row {} (d={}): {} vs {}", i, d, y_csr[i], y_csc[i]);
                prop_assert!((y_csr[i] - y_dense[i]).abs() < 1e-9,
                    "CSR vs dense row {} (d={}): {} vs {}", i, d, y_csr[i], y_dense[i]);
            }
        }

        /// The AVX2 kernels, called directly, against `gather_sum` per
        /// output — and the public products against a copy forced onto
        /// the portable loops, so neither side of the comparison depends
        /// on which kernel dispatch picks. Geometries straddle every
        /// blocking edge: `d` not a multiple of 4, `m` and `n` not
        /// multiples of 8, empty rows (`d = 1`), one-block matrices.
        #[cfg(target_arch = "x86_64")]
        #[test]
        fn prop_blocked_gathers_bitwise_match_gather_sum(
            seed in any::<u64>(),
            m in 1_usize..70,
            n_extra in 0_usize..70,
            d_pick in 0_usize..5,
        ) {
            let n = m + n_extra;
            let d = [1, 3, 6, 9, 13][d_pick].min(m);
            let phi = SparseBinarySensing::new(m, n, d, seed).unwrap();
            let mut portable = phi.clone();
            portable.blocked = None;
            // Signed zeros, a subnormal and an infinity among the values:
            // padding must stay an exact identity for all of them.
            let awkward = |len: usize, salt: usize| -> Vec<f32> {
                (0..len)
                    .map(|i| match (i * 5 + salt) % 19 {
                        0 => 0.0,
                        1 => -0.0,
                        2 => f32::MIN_POSITIVE / 4.0,
                        3 if salt % 2 == 1 => f32::INFINITY,
                        r => (r as f32 - 9.0) * 1.7 + (i as f32 * 0.83).sin(),
                    })
                    .collect()
            };
            let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
            let scale = phi.nonzero_value() as f32;
            for salt in [0, 1] {
                let (x, y) = (awkward(n, salt), awkward(m, salt + 2));
                let y_portable: Vec<f32> = portable.apply(&x);
                let x_portable: Vec<f32> = portable.adjoint(&y);
                for (i, &got) in y_portable.iter().enumerate() {
                    let expect = gather_sum(&x, phi.row_support(i)) * scale;
                    prop_assert!(same(got, expect), "portable row {}", i);
                }
                for (j, &got) in x_portable.iter().enumerate() {
                    let expect = gather_sum(&y, phi.column_support(j)) * scale;
                    prop_assert!(same(got, expect), "portable column {}", j);
                }
                // `None` on a CPU without AVX2: nothing more to compare.
                if let Some(blocked) = &phi.blocked {
                    let mut y_fast = vec![f32::NAN; m];
                    blocked.apply(&x, &mut y_fast, scale);
                    for i in 0..m {
                        prop_assert!(same(y_fast[i], y_portable[i]),
                            "row {} of {}x{} d={}: {} vs {}", i, m, n, d, y_fast[i], y_portable[i]);
                    }
                    let mut x_fast = vec![f32::NAN; n];
                    let done = blocked.adjoint(&y, &mut x_fast, scale);
                    prop_assert_eq!(done, n - n % 8);
                    for j in 0..done {
                        prop_assert!(same(x_fast[j], x_portable[j]),
                            "column {} of {}x{} d={}: {} vs {}", j, m, n, d, x_fast[j], x_portable[j]);
                    }
                    let (y_public, x_public): (Vec<f32>, Vec<f32>) = (phi.apply(&x), phi.adjoint(&y));
                    prop_assert!(y_public.iter().zip(&y_portable).all(|(&a, &b)| same(a, b)));
                    prop_assert!(x_public.iter().zip(&x_portable).all(|(&a, &b)| same(a, b)));
                    // The integer gather against the column scatter, both
                    // ends of `i16` and exact zeros among the samples.
                    let xi: Vec<i16> = (0..n)
                        .map(|i| match (i * 7 + salt) % 11 {
                            0 => i16::MIN,
                            1 => i16::MAX,
                            2 => 0,
                            r => (r as i16 - 6) * 1000 + i as i16,
                        })
                        .collect();
                    prop_assert_eq!(blocked.apply_i32(&xi), portable.apply_unscaled_i32(&xi));
                    prop_assert_eq!(phi.apply_unscaled_i32(&xi), portable.apply_unscaled_i32(&xi));
                }
            }
        }

        #[test]
        fn prop_i32_path_never_overflows_11bit(seed in any::<u64>()) {
            // Worst case: all samples at ±(2^10) and d = m.
            let phi = SparseBinarySensing::new(16, 32, 16, seed).unwrap();
            let x = vec![1024_i16; 32];
            let y = phi.apply_unscaled_i32(&x);
            // Row weight ≤ n (each of n columns may hit the row once).
            prop_assert!(y.iter().all(|&v| v.abs() <= 1024 * 32));
        }
    }
}
