//! Reusable scratch buffers for the operator hot path.
//!
//! Every [`LinearOperator`](crate::LinearOperator) application inside the
//! FISTA inner loop needs transient signal-domain and measurement-domain
//! buffers (the DWT filter-bank ping-pong, the deflated copy of `y`).
//! Allocating them per call costs ~4 heap round-trips per iteration —
//! ~8000 for a 2000-iteration solve. A [`Workspace`] owns those buffers
//! once and is threaded through `apply_into_ws`/`adjoint_into_ws` so a
//! whole solve (and, in the fleet decoder, a whole worker lifetime)
//! reuses the same memory.
//!
//! Buffers only ever grow: [`Workspace::ensure`] is idempotent once the
//! workspace has seen the largest geometry it will serve, so steady-state
//! use performs zero allocations.

use cs_dsp::Real;

/// Scratch buffers sized for one operator geometry (`m` rows × `n` cols).
///
/// The three buffers cover every transient the matrix-free chain needs:
///
/// * `signal` — a signal-domain (length-`n`) intermediate, e.g. the
///   synthesized signal between `Ψᵀ` and `Φ`;
/// * `scratch` — the DWT filter-bank ping-pong buffer (length `n`);
/// * `measure` — a measurement-domain (length-`m`) intermediate, e.g. the
///   deflected copy of `y` in
///   [`DeflatedOperator`](crate::DeflatedOperator)'s adjoint.
///
/// # Examples
///
/// ```
/// use cs_dsp::wavelet::{Dwt, Wavelet};
/// use cs_recovery::{LinearOperator, SynthesisOperator, Workspace};
/// use cs_sensing::SparseBinarySensing;
///
/// let dwt: Dwt<f64> = Dwt::new(&Wavelet::daubechies(4)?, 128, 3)?;
/// let phi = SparseBinarySensing::new(64, 128, 8, 1)?;
/// let a = SynthesisOperator::new(&phi, &dwt);
/// let mut ws = Workspace::for_operator(&a);
/// let x = vec![0.25; 128];
/// let mut y = vec![0.0; 64];
/// a.apply_into_ws(&x, &mut y, &mut ws); // no allocation inside
/// assert_eq!(y, a.apply(&x));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Workspace<T: Real> {
    pub(crate) signal: Vec<T>,
    pub(crate) scratch: Vec<T>,
    pub(crate) measure: Vec<T>,
}

impl<T: Real> Workspace<T> {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Workspace { signal: Vec::new(), scratch: Vec::new(), measure: Vec::new() }
    }

    /// A workspace pre-sized for an `rows × cols` operator.
    pub fn with_dims(rows: usize, cols: usize) -> Self {
        let mut ws = Self::new();
        ws.ensure(rows, cols);
        ws
    }

    /// A workspace pre-sized for `op`'s geometry.
    pub fn for_operator<A: crate::LinearOperator<T>>(op: &A) -> Self {
        Self::with_dims(op.rows(), op.cols())
    }

    /// Grows the buffers (never shrinks) to serve an `rows × cols`
    /// operator. Idempotent once the largest geometry has been seen.
    pub fn ensure(&mut self, rows: usize, cols: usize) {
        self.ensure_cols(cols);
        if self.measure.len() < rows {
            self.measure.resize(rows, T::ZERO);
        }
    }

    /// Grows only the signal-side buffers. Operators that never touch the
    /// measurement buffer use this so they don't re-grow `measure` while a
    /// wrapper (e.g. `DeflatedOperator`'s adjoint) has temporarily taken
    /// it out.
    #[inline]
    pub(crate) fn ensure_cols(&mut self, cols: usize) {
        if self.signal.len() < cols {
            self.signal.resize(cols, T::ZERO);
        }
        if self.scratch.len() < cols {
            self.scratch.resize(cols, T::ZERO);
        }
    }
}

/// Reusable state for a whole shrinkage solve: the four iteration buffers
/// plus an operator [`Workspace`].
///
/// One `FistaWorkspace` serves any number of consecutive solves of the
/// same (or smaller) geometry with zero allocations — except the solution
/// vector, which moves out in [`SolverResult`](crate::SolverResult). To
/// close that loop, hand a no-longer-needed solution (e.g. the previous
/// packet's warm-start vector once replaced) back via
/// [`FistaWorkspace::recycle_solution`]; the fleet decoder ping-pongs the
/// two and reaches a true steady state.
///
/// # Examples
///
/// ```
/// use cs_recovery::{fista, fista_prior_warm_ws, DenseOperator, FistaWorkspace,
///                   KernelMode, LinearOperator, ProxSpec, ShrinkageConfig};
///
/// let a = DenseOperator::from_row_major(
///     2, 3, vec![1.0, 0.0, 1.0, 0.0, 1.0, -1.0], KernelMode::Scalar);
/// let y = a.apply(&[1.0, -2.0, 0.5]);
/// let cfg = ShrinkageConfig::new(1e-3);
/// let mut ws = FistaWorkspace::for_operator(&a);
/// let with_ws = fista_prior_warm_ws(&a, &y, &cfg, None, ProxSpec::L1, false, None, None, &mut ws);
/// let without = fista(&a, &y, &cfg, None);
/// assert_eq!(with_ws.solution, without.solution); // bitwise identical
/// ws.recycle_solution(with_ws.solution);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FistaWorkspace<T: Real> {
    /// Spare slot the next solve's iterate is carved from; empty after a
    /// solve until a solution is recycled.
    pub(crate) alpha: Vec<T>,
    pub(crate) point: Vec<T>,
    pub(crate) grad: Vec<T>,
    pub(crate) residual: Vec<T>,
    /// Staging for the unfused iteration tail of
    /// [`KernelMode::Scalar`](crate::KernelMode::Scalar); empty until the
    /// first scalar-mode solve, then reused.
    pub(crate) tail_scratch: Vec<T>,
    pub(crate) op_ws: Workspace<T>,
    /// Every iteration's tail sums, for the tests that hold the kernel
    /// arms to the same bits.
    #[cfg(test)]
    pub(crate) tail_log: Vec<crate::kernels::TailSums<T>>,
}

impl<T: Real> FistaWorkspace<T> {
    /// An empty workspace; buffers grow on first solve.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace pre-sized for an `rows × cols` operator, so even the
    /// first solve allocates nothing.
    pub fn with_dims(rows: usize, cols: usize) -> Self {
        FistaWorkspace {
            alpha: vec![T::ZERO; cols],
            point: vec![T::ZERO; cols],
            grad: vec![T::ZERO; cols],
            residual: vec![T::ZERO; rows],
            tail_scratch: Vec::new(),
            op_ws: Workspace::with_dims(rows, cols),
            #[cfg(test)]
            tail_log: Vec::new(),
        }
    }

    /// A workspace pre-sized for `op`'s geometry.
    pub fn for_operator<A: crate::LinearOperator<T>>(op: &A) -> Self {
        Self::with_dims(op.rows(), op.cols())
    }

    /// The inner operator workspace, for callers that apply the operator
    /// outside the solve loop (e.g. the decoder's warm-start safeguard).
    pub fn operator_workspace(&mut self) -> &mut Workspace<T> {
        &mut self.op_ws
    }

    /// Returns a retired solution vector to the buffer pool, so the next
    /// solve's iterate reuses its storage instead of allocating.
    pub fn recycle_solution(&mut self, solution: Vec<T>) {
        if solution.capacity() > self.alpha.capacity() {
            self.alpha = solution;
        }
    }
}
