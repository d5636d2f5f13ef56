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
use std::time::Duration;

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
/// use cs_recovery::{fista_warm, fista_warm_ws, DenseOperator, FistaWorkspace,
///                   KernelMode, LinearOperator, ShrinkageConfig};
///
/// let a = DenseOperator::from_row_major(
///     2, 3, vec![1.0, 0.0, 1.0, 0.0, 1.0, -1.0], KernelMode::Scalar);
/// let y = a.apply(&[1.0, -2.0, 0.5]);
/// let cfg = ShrinkageConfig::new(1e-3);
/// let mut ws = FistaWorkspace::for_operator(&a);
/// let with_ws = fista_warm_ws(&a, &y, &cfg, None, None, &mut ws);
/// let without = fista_warm(&a, &y, &cfg, None, None);
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

/// Column-block (MMV) generalization of [`FistaWorkspace`]: all state for
/// a K-lane batched shrinkage solve
/// ([`fista_warm_batch_ws`](crate::fista_warm_batch_ws)).
///
/// Iteration blocks are **lane-major**: lane `l`'s coefficients occupy
/// `[l·n .. (l+1)·n]` of each signal-side block and `[l·m .. (l+1)·m]` of
/// each measurement-side block, so per-lane kernels run on contiguous
/// slices. The solver freezes converged lanes by swapping their slices to
/// the back of the active prefix; `slot_of_lane` tracks where each staged
/// lane currently lives, and every accessor resolves through it, so
/// callers always address lanes by the index [`BatchWorkspace::stage_lane`]
/// returned.
///
/// Like [`Workspace`], buffers only ever grow: once the workspace has seen
/// its widest batch and largest geometry, staging and solving perform zero
/// heap allocations.
///
/// # Examples
///
/// ```
/// use cs_recovery::{fista_warm_batch_ws, fista_warm_ws, BatchWorkspace,
///                   DenseOperator, FistaWorkspace, KernelMode, LinearOperator,
///                   ShrinkageConfig};
///
/// let a = DenseOperator::from_row_major(
///     2, 3, vec![1.0, 0.0, 1.0, 0.0, 1.0, -1.0], KernelMode::Scalar);
/// let ys = [a.apply(&[1.0, -2.0, 0.5]), a.apply(&[-0.3, 0.8, 0.0])];
/// let cfg = ShrinkageConfig::new(1e-3);
///
/// let mut bws = BatchWorkspace::for_operator(&a, 2);
/// bws.begin(a.rows(), a.cols());
/// for y in &ys {
///     bws.stage_lane(y, None);
/// }
/// fista_warm_batch_ws(&a, &[cfg.clone(), cfg.clone()], None, None, &mut bws);
///
/// // Each lane is bitwise identical to its own sequential solve.
/// let mut ws = FistaWorkspace::for_operator(&a);
/// for (lane, y) in ys.iter().enumerate() {
///     let seq = fista_warm_ws(&a, y, &cfg, None, None, &mut ws);
///     assert_eq!(bws.solution(lane), &seq.solution[..]);
///     assert_eq!(bws.iterations(lane), seq.iterations);
///     ws.recycle_solution(seq.solution);
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatchWorkspace<T: Real> {
    /// Operator geometry of the staged batch.
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    /// Number of staged lanes.
    pub(crate) lanes: usize,
    /// Staged measurements, lane-major `lanes × rows`. Swapped alongside
    /// the iterate blocks when lanes freeze.
    pub(crate) y: Vec<T>,
    /// Iterate block; holds each lane's solution after the solve.
    pub(crate) alpha: Vec<T>,
    pub(crate) point: Vec<T>,
    pub(crate) grad: Vec<T>,
    pub(crate) residual: Vec<T>,
    /// `slot_of_lane[lane]` = block slot the staged lane currently
    /// occupies; `lane_of_slot` is its inverse.
    pub(crate) slot_of_lane: Vec<usize>,
    pub(crate) lane_of_slot: Vec<usize>,
    /// Per-slot freeze markers for the current iteration's compaction pass.
    pub(crate) freeze: Vec<bool>,
    /// Per-lane results (lane-indexed, *not* slot-indexed).
    pub(crate) iterations: Vec<usize>,
    pub(crate) converged: Vec<bool>,
    pub(crate) residual_norm: Vec<T>,
    /// Per-lane precomputed `residual_tolerance · ‖y‖` targets.
    pub(crate) residual_target: Vec<T>,
    /// Per-lane soft-threshold levels `λ/L`.
    pub(crate) threshold: Vec<T>,
    /// Per-lane FISTA momentum scalars `t_k` (lane-indexed). Without
    /// adaptive restart every lane's sequence is identical; with it, a
    /// restarting lane resets its own `t` without disturbing batchmates.
    pub(crate) momentum: Vec<T>,
    /// Per-lane λ-continuation multipliers on `threshold` (lane-indexed);
    /// all ones on the paper's schedule.
    pub(crate) boost: Vec<T>,
    /// Staging for the unfused iteration tail of
    /// [`KernelMode::Scalar`](crate::KernelMode::Scalar) lanes (shared
    /// across lanes — the tail sweep is per-slot sequential).
    pub(crate) tail_scratch: Vec<T>,
    /// Wall-clock time of the whole batched solve.
    pub(crate) elapsed: Duration,
    pub(crate) op_ws: Workspace<T>,
}

impl<T: Real> BatchWorkspace<T> {
    /// An empty workspace; buffers grow on first solve.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace pre-sized for `k` lanes of an `rows × cols` operator,
    /// so even the first batched solve allocates nothing.
    pub fn with_dims(rows: usize, cols: usize, k: usize) -> Self {
        let mut ws = Self::new();
        ws.reserve(rows, cols, k);
        ws.begin(rows, cols);
        ws
    }

    /// A workspace pre-sized for `k` lanes of `op`'s geometry.
    pub fn for_operator<A: crate::LinearOperator<T>>(op: &A, k: usize) -> Self {
        Self::with_dims(op.rows(), op.cols(), k)
    }

    /// Grows every buffer (never shrinks) to hold `k` lanes of an
    /// `rows × cols` geometry. Idempotent once the widest batch has been
    /// seen.
    pub fn reserve(&mut self, rows: usize, cols: usize, k: usize) {
        grow(&mut self.y, rows * k);
        grow(&mut self.alpha, cols * k);
        grow(&mut self.point, cols * k);
        grow(&mut self.grad, cols * k);
        grow(&mut self.residual, rows * k);
        if self.slot_of_lane.capacity() < k {
            self.slot_of_lane.reserve(k - self.slot_of_lane.capacity());
        }
        if self.lane_of_slot.capacity() < k {
            self.lane_of_slot.reserve(k - self.lane_of_slot.capacity());
        }
        if self.freeze.len() < k {
            self.freeze.resize(k, false);
        }
        if self.iterations.len() < k {
            self.iterations.resize(k, 0);
        }
        if self.converged.len() < k {
            self.converged.resize(k, false);
        }
        grow(&mut self.residual_norm, k);
        grow(&mut self.residual_target, k);
        grow(&mut self.threshold, k);
        grow(&mut self.momentum, k);
        grow(&mut self.boost, k);
        self.op_ws.ensure(rows, cols * k);
    }

    /// Starts staging a fresh batch for an `rows × cols` operator,
    /// discarding any previously staged lanes. Capacity is preserved, so a
    /// warmed workspace re-begins without allocating.
    pub fn begin(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.lanes = 0;
        self.y.clear();
        self.alpha.clear();
        self.slot_of_lane.clear();
        self.lane_of_slot.clear();
        self.elapsed = Duration::ZERO;
    }

    /// Stages one lane's measurements (and optional warm-start coefficient
    /// vector — `None` seeds zeros, exactly like the sequential solver) and
    /// returns the lane index all post-solve accessors use.
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` differs from the geometry given to
    /// [`BatchWorkspace::begin`], or a warm vector's length differs from
    /// `cols`.
    pub fn stage_lane(&mut self, y: &[T], warm: Option<&[T]>) -> usize {
        assert_eq!(y.len(), self.rows, "stage_lane: y length mismatch");
        let lane = self.lanes;
        self.y.extend_from_slice(y);
        match warm {
            Some(w) => {
                assert_eq!(w.len(), self.cols, "stage_lane: warm length mismatch");
                self.alpha.extend_from_slice(w);
            }
            None => self.alpha.resize((lane + 1) * self.cols, T::ZERO),
        }
        self.slot_of_lane.push(lane);
        self.lane_of_slot.push(lane);
        self.lanes += 1;
        lane
    }

    /// Number of lanes staged in the current batch.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Lane `lane`'s solution after a solve (borrow of the workspace —
    /// copy it out before re-staging).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()`.
    pub fn solution(&self, lane: usize) -> &[T] {
        let s = self.slot_of_lane[lane];
        &self.alpha[s * self.cols..(s + 1) * self.cols]
    }

    /// Iterations lane `lane` ran before freezing (its exact sequential
    /// count — batchmates don't inflate it).
    pub fn iterations(&self, lane: usize) -> usize {
        assert!(lane < self.lanes, "iterations: lane out of range");
        self.iterations[lane]
    }

    /// Whether lane `lane` met its convergence criterion.
    pub fn converged(&self, lane: usize) -> bool {
        assert!(lane < self.lanes, "converged: lane out of range");
        self.converged[lane]
    }

    /// Final data-fit residual norm `‖Aα − y‖₂` for lane `lane`.
    pub fn residual_norm(&self, lane: usize) -> T {
        assert!(lane < self.lanes, "residual_norm: lane out of range");
        self.residual_norm[lane]
    }

    /// Wall-clock time of the whole batched solve (shared by all lanes).
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// The inner operator workspace, for callers that apply the operator
    /// outside the solve loop.
    pub fn operator_workspace(&mut self) -> &mut Workspace<T> {
        &mut self.op_ws
    }
}

/// Capacity-preserving grow-to-at-least: `clear + resize` would zero live
/// content, so plain `resize` is used — callers re-fill what they read.
fn grow<T: Real>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        v.resize(len, T::ZERO);
    }
}
