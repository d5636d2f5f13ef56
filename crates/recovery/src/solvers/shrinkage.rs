//! ISTA and FISTA — the iterative shrinkage-thresholding solvers.
//!
//! Both solve the paper's Eq. (3):
//!
//! ```text
//!   min_α  F(α) = ‖Aα − y‖² + λ‖α‖₁
//! ```
//!
//! One iteration of either costs one `apply` + one `adjoint` of `A` plus a
//! soft threshold. ISTA converges as `O(1/k)` and is "notoriously slow";
//! FISTA (Beck & Teboulle 2009, the paper's algorithm box) adds the
//! momentum sequence `t_k` and converges as `O(1/k²)`. The implementation
//! follows the paper's constant-step-size variant verbatim; the decoder's
//! entry point, [`fista_prior_warm_ws`], can additionally walk the same
//! iteration on an adaptive schedule (gradient restart plus
//! λ-continuation) that reaches the same minimiser in far fewer iterations.

pub use crate::kernels::ProxSpec;
use crate::kernels::{fista_tail, KernelMode};
use crate::lipschitz::lipschitz_constant;
use crate::operator::LinearOperator;
use crate::workspace::{FistaWorkspace, Workspace};
use cs_dsp::{l1_norm, l2_norm, Real};
use std::time::{Duration, Instant};

/// Configuration shared by the shrinkage solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShrinkageConfig<T: Real> {
    /// ℓ1 weight λ of Eq. (3).
    pub lambda: T,
    /// Hard iteration cap — the real-time budget of the decoder. The paper
    /// derives 800 (unoptimized) and 2000 (optimized) for the iPhone.
    pub max_iterations: usize,
    /// Relative-change stopping tolerance; `ZERO` disables early stopping
    /// and always runs `max_iterations`.
    pub tolerance: T,
    /// Residual-based stopping: stop once `‖Aα − y‖₂ ≤ residual_tolerance
    /// · ‖y‖₂` — the criterion matching the paper's constrained form
    /// (Eq. 2, "subject to ‖ΦΨα − y‖₂ ≤ σ"). `ZERO` disables. Checking it
    /// costs one extra `apply` per iteration, so production decoding
    /// usually prefers `tolerance`.
    pub residual_tolerance: T,
    /// Which kernel implementations the inner loops use.
    pub kernel: KernelMode,
    /// Record `F(α_k)` each iteration (costs one extra `apply` per
    /// iteration; off for production decoding).
    pub record_objective: bool,
}

impl<T: Real> ShrinkageConfig<T> {
    /// A sensible decoding default: tolerance-based stopping under a hard
    /// real-time cap, optimized kernels.
    pub fn new(lambda: T) -> Self {
        ShrinkageConfig {
            lambda,
            max_iterations: 2000,
            tolerance: T::from_f64(1e-4),
            residual_tolerance: T::ZERO,
            kernel: KernelMode::Unrolled4,
            record_objective: false,
        }
    }
}

/// Outcome of a solver run.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverResult<T: Real> {
    /// The recovered coefficient vector α.
    pub solution: Vec<T>,
    /// Iterations actually executed.
    pub iterations: usize,
    /// Whether the tolerance criterion fired before the iteration cap.
    pub converged: bool,
    /// Wall-clock time spent in the solve loop.
    pub elapsed: Duration,
    /// `F(α_k)` per iteration if requested, else empty.
    pub objective_history: Vec<T>,
    /// Final residual norm `‖Aα − y‖₂`.
    pub residual_norm: T,
}

fn validate_prox(cols: usize, prox: &ProxSpec<'_>) {
    if let ProxSpec::Group(sizes) = prox {
        assert_eq!(
            sizes.iter().sum::<usize>(),
            cols,
            "prior solve: group sizes do not tile the coefficient vector"
        );
    }
}

/// Eq. (5): the next term of FISTA's momentum sequence,
/// `t_{k+1} = (1 + √(1 + 4·t_k²)) / 2`.
#[inline]
fn next_momentum<T: Real>(t: T) -> T {
    (T::ONE + (T::ONE + T::from_f64(4.0) * t * t).sqrt()) * T::HALF
}

/// `‖v‖∞`.
fn inf_norm<T: Real>(v: &[T]) -> T {
    v.iter().fold(T::ZERO, |m, &x| m.max(x.abs()))
}

/// Continuation start ζ: an adaptive solve opens at `ζ · 2‖g₁‖∞`, a
/// fixed fraction of the λ above which its own starting point would not
/// move (`2‖g₁‖∞` is λ_max at a cold start).
const CONTINUATION_START: f64 = 0.1;
/// Continuation decay ρ: the threshold multiplier shrinks by this factor
/// per iteration until it reaches the target λ.
const CONTINUATION_DECAY: f64 = 0.9;

/// The λ-continuation multiplier an adaptive solve starts from, read off
/// the gradient `g₁ = Aᴴ(A·α₀ − y)` its first iteration computes anyway:
/// `max(1, ζ·2‖g₁‖∞ / λ)` (fixed-point continuation, Hale–Yin–Zhang 2008,
/// with SpaRSA's data-adaptive start, Wright–Nowak–Figueiredo 2009).
/// `2‖g₁‖∞` measures how far `α₀` is from optimal in units of λ — λ_max at
/// zero, ≈ λ at the minimiser — so a good warm seed shortens the ramp by
/// itself and a perfect one skips it. The start is not capped at the cold
/// one (that would take `Aᴴy`, a second adjoint), so a seed further from
/// optimal than zero ramps *longer* than a cold start: a bad seed costs
/// more than no seed, and keeping such seeds out is the caller's job. An
/// all-zero gradient gives 1; λ = 0 or an overflowing ratio gives ∞ or
/// NaN, which also mean no continuation.
fn continuation_start<T: Real>(first_grad: &[T], lambda: T) -> T {
    let boost = T::from_f64(CONTINUATION_START) * T::TWO * inf_norm(first_grad) / lambda;
    if boost.is_finite() {
        boost.max(T::ONE)
    } else {
        T::ONE
    }
}

/// One step down the geometric ramp: `max(1, ρ·boost)`.
#[inline]
fn continuation_decay<T: Real>(boost: T) -> T {
    (T::from_f64(CONTINUATION_DECAY) * boost).max(T::ONE)
}

/// The largest useful λ: for `λ ≥ λ_max = ‖2Aᴴy‖∞` the zero vector is
/// optimal. Decoders typically use a small fraction of this.
///
/// # Examples
///
/// ```
/// use cs_recovery::{lambda_max, DenseOperator, KernelMode};
///
/// let op = DenseOperator::from_row_major(1, 2, vec![1.0, -3.0], KernelMode::Scalar);
/// assert_eq!(lambda_max(&op, &[2.0]), 12.0); // |2·(−3)·2|
/// ```
pub fn lambda_max<T: Real, A: LinearOperator<T>>(op: &A, y: &[T]) -> T {
    T::TWO * inf_norm(&op.adjoint(y))
}

/// Non-allocating [`lambda_max`]: the gradient lands in the caller's
/// `grad` buffer and operator transients come from `ws`. The decoder
/// calls this once per packet, so the allocating form would defeat its
/// zero-allocation steady state.
///
/// # Panics
///
/// Panics if `grad.len() != op.cols()` or `y.len() != op.rows()`.
pub fn lambda_max_with<T: Real, A: LinearOperator<T>>(
    op: &A,
    y: &[T],
    grad: &mut [T],
    ws: &mut Workspace<T>,
) -> T {
    op.adjoint_into_ws(y, grad, ws);
    T::TWO * inf_norm(grad)
}

/// Solves Eq. (3) with plain ISTA (the `O(1/k)` baseline the paper cites
/// as "notoriously slow").
///
/// `lipschitz` may pass a precomputed `L = 2‖A‖²·(1+ε)`; `None` estimates
/// it by power iteration first.
///
/// # Panics
///
/// Panics if `y.len() != op.rows()`, λ is negative, or the iteration cap
/// is zero.
pub fn ista<T: Real, A: LinearOperator<T>>(
    op: &A,
    y: &[T],
    config: &ShrinkageConfig<T>,
    lipschitz: Option<T>,
) -> SolverResult<T> {
    shrinkage_loop(op, y, config, lipschitz, false, false, ProxSpec::L1, None, None, None)
}

/// Solves Eq. (3) with FISTA (constant step size), the paper's decoder.
///
/// # Panics
///
/// Same conditions as [`ista`].
///
/// # Examples
///
/// ```
/// use cs_recovery::{fista, DenseOperator, KernelMode, LinearOperator, ShrinkageConfig};
///
/// // Recover a 2-sparse vector from an overdetermined system.
/// let a = DenseOperator::from_row_major(
///     4, 3,
///     vec![1.0, 0.0, 0.0,
///          0.0, 1.0, 0.0,
///          0.0, 0.0, 1.0,
///          1.0, 1.0, 1.0],
///     KernelMode::Unrolled4,
/// );
/// let truth = vec![2.0_f64, 0.0, -1.0];
/// let y = a.apply(&truth);
/// let cfg = ShrinkageConfig::new(1e-3_f64);
/// let result = fista(&a, &y, &cfg, None);
/// assert!(result.converged);
/// assert!((result.solution[0] - 2.0).abs() < 1e-2);
/// assert!(result.solution[1].abs() < 1e-2);
/// ```
pub fn fista<T: Real, A: LinearOperator<T>>(
    op: &A,
    y: &[T],
    config: &ShrinkageConfig<T>,
    lipschitz: Option<T>,
) -> SolverResult<T> {
    shrinkage_loop(op, y, config, lipschitz, true, false, ProxSpec::L1, None, None, None)
}

/// The decoder's FISTA, and the general form of the loop: an explicit
/// starting point, a caller-owned workspace, a pluggable proximal operator
/// ([`ProxSpec`]) and a choice of schedule.
///
/// `warm_start` seeds both the iterate and the momentum extrapolation
/// point at the given vector — the fleet decoder passes packet *k*'s
/// solution when solving packet *k+1*, which on correlated consecutive
/// packets lands the solver inside the basin where the stopping tolerance
/// fires after a handful of iterations (Polanía et al., arXiv:1405.4201,
/// observe the same effect for wireless ECG CS). Momentum itself restarts
/// at `t₁ = 1`, which keeps the `O(1/k²)` guarantee — FISTA's bound holds
/// for any starting point — and the solution is the minimizer of the same
/// convex objective, so warm and cold starts agree to within the stopping
/// tolerance; only the iteration count changes.
///
/// Every solve buffer is drawn from `ws`, so a solve that has seen its
/// geometry before performs **zero heap allocations** (the solution vector
/// is carved from the workspace's recycled slot and moves out in the
/// result).
///
/// `ProxSpec::L1` is Eq. (3); `ProxSpec::Group` puts the ℓ2,1 norm over a
/// partition of the coefficients in place of the ℓ1 norm.
///
/// `adjoint_y` hands a cold start the `Aᴴy` its caller already has
/// ([`lambda_max_with`] leaves it in its `grad` buffer): at `α₀ = 0` the
/// first gradient is exactly its negation, so the first iteration skips
/// its operator pair and a `k`-iteration solve applies `k − 1` inside the
/// loop, to the same bits. Ignored on a warm start, whose first gradient
/// is its own.
///
/// `adaptive = false` is the paper's constant-step schedule: with
/// `ProxSpec::L1` and no warm start it is exactly [`fista`] (bitwise —
/// the buffers start from the same values and the floating-point
/// operation sequence is unchanged). `adaptive = true` reaches the same
/// minimiser of the same objective in far fewer iterations, two ways:
///
/// * **gradient restart** (O'Donoghue & Candès 2015): when the momentum
///   points against the descent direction the sequence drops back to
///   `t₁ = 1`, killing the ripples that otherwise keep the stop test from
///   firing near the optimum — the test is one of the sums the iteration's
///   tail sweep returns anyway;
/// * **λ-continuation**: iteration `k` thresholds at `(λ/L)·boost_k`, with
///   `boost₁ = max(1, ζ·2‖g₁‖∞/λ)` read off the first gradient and
///   `boost_{k+1} = max(1, ρ·boost_k)`. The early iterates are then sparse
///   fits at a large λ instead of a dense least-squares fit at a tiny one.
///   Neither stop test fires before `boost` has reached 1 — until then the
///   step is not a step of the target problem — so a cap below the ramp
///   length returns `converged = false` with the iterate it has.
///
/// # Panics
///
/// Panics under [`ista`]'s conditions, if the warm-start or `adjoint_y`
/// length is not `op.cols()`, or if the group sizes do not tile
/// `op.cols()`.
#[allow(clippy::too_many_arguments)]
pub fn fista_prior_warm_ws<T: Real, A: LinearOperator<T>>(
    op: &A,
    y: &[T],
    config: &ShrinkageConfig<T>,
    lipschitz: Option<T>,
    prox: ProxSpec<'_>,
    adaptive: bool,
    warm_start: Option<&[T]>,
    adjoint_y: Option<&[T]>,
    ws: &mut FistaWorkspace<T>,
) -> SolverResult<T> {
    validate_prox(op.cols(), &prox);
    let cold_adjoint_y = if warm_start.is_none() { adjoint_y } else { None };
    shrinkage_loop(op, y, config, lipschitz, true, adaptive, prox, warm_start, cold_adjoint_y, Some(ws))
}

#[allow(clippy::too_many_arguments)]
fn shrinkage_loop<T: Real, A: LinearOperator<T>>(
    op: &A,
    y: &[T],
    config: &ShrinkageConfig<T>,
    lipschitz: Option<T>,
    accelerate: bool,
    adaptive: bool,
    prox: ProxSpec<'_>,
    warm_start: Option<&[T]>,
    cold_adjoint_y: Option<&[T]>,
    ws: Option<&mut FistaWorkspace<T>>,
) -> SolverResult<T> {
    let solve = Solve { op, y, config, lipschitz, accelerate, adaptive, prox, warm_start, cold_adjoint_y };
    solve.run_in(cs_dsp::kernel_arm(), ws)
}

/// One solve's inputs: everything the shrinkage loop reads except its
/// workspace.
struct Solve<'a, T: Real, A> {
    op: &'a A,
    y: &'a [T],
    config: &'a ShrinkageConfig<T>,
    lipschitz: Option<T>,
    accelerate: bool,
    adaptive: bool,
    prox: ProxSpec<'a>,
    warm_start: Option<&'a [T]>,
    /// `Aᴴy`, on a cold start whose caller has it already.
    cold_adjoint_y: Option<&'a [T]>,
}

impl<T: Real, A: LinearOperator<T>> Solve<'_, T, A> {
    /// Runs the whole solve inside the instantiation of [`iterate`] for
    /// the kernel arm `arm` ([`cs_dsp::kernel_arm`]'s vocabulary) — one
    /// CPU dispatch per solve. Everything `iterate` inlines — the fused
    /// tail, the group prox's square roots and divisions, the residual,
    /// the deflection — then runs at that arm's vector width; the DWT and
    /// Φ entry points stay calls and dispatch on their own. Every arm
    /// performs the same IEEE operations in the same order, so the result
    /// is bitwise the same whichever runs.
    fn run_in(self, arm: &str, ws: Option<&mut FistaWorkspace<T>>) -> SolverResult<T> {
        cs_dsp::in_arm(arm, #[inline(always)] move || iterate(self, ws))
    }
}

/// The shrinkage loop itself, instantiated once per kernel arm by
/// [`Solve::run_in`].
#[inline(always)]
fn iterate<T: Real, A: LinearOperator<T>>(
    solve: Solve<'_, T, A>,
    ws: Option<&mut FistaWorkspace<T>>,
) -> SolverResult<T> {
    let Solve { op, y, config, lipschitz, accelerate, adaptive, prox, warm_start, mut cold_adjoint_y } = solve;
    // Restart and continuation act on the momentum sequence: plain ISTA
    // has none.
    let adaptive = adaptive && accelerate;
    assert_eq!(y.len(), op.rows(), "shrinkage solver: y length mismatch");
    assert!(config.lambda >= T::ZERO, "shrinkage solver: negative lambda");
    assert!(config.max_iterations > 0, "shrinkage solver: zero iteration cap");
    if let Some(w) = warm_start {
        assert_eq!(w.len(), op.cols(), "shrinkage solver: warm-start length mismatch");
    }
    if let Some(g) = cold_adjoint_y {
        assert_eq!(g.len(), op.cols(), "shrinkage solver: Aᴴy length mismatch");
    }

    let start = Instant::now();
    let l = lipschitz.unwrap_or_else(|| lipschitz_constant(op, 60));
    // A zero operator admits the zero solution immediately.
    if l == T::ZERO {
        return SolverResult {
            solution: vec![T::ZERO; op.cols()],
            iterations: 0,
            converged: true,
            elapsed: start.elapsed(),
            objective_history: Vec::new(),
            residual_norm: l2_norm(y),
        };
    }
    let inv_l = T::ONE / l;
    // grad = 2·Aᴴ·residual; the 2 is folded into the step: point − (2/L)·Aᴴr.
    let step = T::TWO * inv_l;
    let threshold = config.lambda * inv_l;
    let residual_target = config.residual_tolerance * l2_norm(y);

    let n = op.cols();
    let m = op.rows();
    // Every solve runs through a workspace: the caller's (reused across
    // solves — zero allocations once warmed) or a solve-local one (still
    // eliminating the ~4 transient allocations per iteration the plain
    // apply/adjoint paths would make).
    let mut local_ws;
    let ws = match ws {
        Some(ws) => ws,
        None => {
            local_ws = FistaWorkspace::new();
            &mut local_ws
        }
    };
    // The iteration buffers are taken out of the workspace so it can still
    // be lent to the operator inside the loop; all but the solution go
    // back at the end. `resize` preserves capacity, so a warmed workspace
    // allocates nothing here — and writes nothing either: every buffer is
    // fully overwritten before it is read.
    let take = |buf: &mut Vec<T>, len: usize| {
        let mut v = std::mem::take(buf);
        v.resize(len, T::ZERO);
        v
    };
    // Seed iterate and extrapolation point at the warm start (momentum
    // restarts at t₁ = 1 — FISTA's convergence bound holds from any
    // starting point, so this is safe and only the iteration count moves).
    let mut alpha = take(&mut ws.alpha, n); // α_k
    match warm_start {
        Some(w) => alpha.copy_from_slice(w),
        None => alpha.fill(T::ZERO),
    }
    let mut point = take(&mut ws.point, n); // y_k (extrapolation point)
    point.copy_from_slice(&alpha);
    let mut grad_point = take(&mut ws.grad, n);
    let mut residual = take(&mut ws.residual, m);
    let mut t = T::ONE;
    // λ-continuation multiplier on the threshold; 1 throughout on the
    // paper's schedule.
    let mut boost = T::ONE;
    let mut iterations = 0;
    let mut converged = false;
    // Sized up front, so recording stays allocation-free inside the loop.
    let mut history = if config.record_objective {
        vec![T::ZERO; config.max_iterations]
    } else {
        Vec::new()
    };

    for k in 1..=config.max_iterations {
        iterations = k;
        match cold_adjoint_y.take() {
            // First iteration only: at point = 0 the residual is −y and
            // the gradient −Aᴴy; negation is exact, so these are the bits
            // the pair below would produce (up to the sign of a zero,
            // which the step `0 − step·g` and `‖g‖∞` both erase).
            Some(adjoint_y) => {
                for (g, &a) in grad_point.iter_mut().zip(adjoint_y) {
                    *g = -a;
                }
            }
            None => {
                // residual = A·point − y
                op.apply_into_ws(&point, &mut residual, &mut ws.op_ws);
                for (r, &yi) in residual.iter_mut().zip(y) {
                    *r -= yi;
                }
                op.adjoint_into_ws(&residual, &mut grad_point, &mut ws.op_ws);
            }
        }
        if adaptive && k == 1 {
            boost = continuation_start(&grad_point, config.lambda);
        }
        // Eq. (5)–(6): t_{k+1} does not depend on data, so the momentum
        // weight is known before the sweep that applies it.
        let t_next = next_momentum(t);
        let beta = if accelerate { (t - T::ONE) / t_next } else { T::ZERO };
        // α_{k+1} = prox (Eq. 4) of the gradient step — soft threshold at
        // λ/L, optionally grouped over a wavelet-tree partition — the stop
        // test's norms and the extrapolation, in one sweep.
        let sums = fista_tail(
            &mut point,
            &grad_point,
            &mut alpha,
            step,
            threshold * boost,
            prox,
            beta,
            &mut ws.tail_scratch,
            config.kernel,
        );
        // Gradient restart: when momentum points against the descent
        // direction the sequence drops back to t₁ = 1, killing the
        // oscillation FISTA otherwise rides near the optimum (O'Donoghue &
        // Candès 2015). The sweep extrapolated optimistically; a restart
        // (β = 0, like plain ISTA) takes it back: y_{k+1} = α_{k+1}.
        let restarted = adaptive && sums.restart > T::ZERO;
        if restarted || !accelerate {
            point.copy_from_slice(&alpha);
        }
        t = if restarted { next_momentum(T::ONE) } else { t_next };
        // A step taken above the target λ says nothing about convergence
        // at the target: the stop tests wait for the ramp to end.
        let on_target = boost == T::ONE;
        boost = continuation_decay(boost);

        #[cfg(test)]
        ws.tail_log.push(sums);
        if config.record_objective {
            // `residual` is free until the next iteration's gradient.
            op.apply_into_ws(&alpha, &mut residual, &mut ws.op_ws);
            let fval: T = residual
                .iter()
                .zip(y)
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum::<T>()
                + config.lambda * l1_norm(&alpha);
            history[k - 1] = fval;
        }

        // Stopping: relative step size.
        if on_target
            && config.tolerance > T::ZERO
            && sums.step_sq.sqrt() <= config.tolerance * sums.norm_sq.sqrt().max(T::ONE)
        {
            converged = true;
        }
        // Stopping: residual target (the paper's Eq. 2 criterion).
        if on_target && !converged && config.residual_tolerance > T::ZERO {
            op.apply_into_ws(&alpha, &mut residual, &mut ws.op_ws);
            for (r, &yi) in residual.iter_mut().zip(y) {
                *r -= yi;
            }
            if l2_norm(&residual) <= residual_target {
                converged = true;
            }
        }
        if converged {
            break;
        }
    }

    history.truncate(iterations);
    op.apply_into_ws(&alpha, &mut residual, &mut ws.op_ws);
    for (r, &yi) in residual.iter_mut().zip(y) {
        *r -= yi;
    }
    let residual_norm = l2_norm(&residual);
    // Everything except the solution returns to the pool; the caller can
    // recycle a retired solution to close the last allocation.
    ws.point = point;
    ws.grad = grad_point;
    ws.residual = residual;
    SolverResult {
        residual_norm,
        solution: alpha,
        iterations,
        converged,
        elapsed: start.elapsed(),
        objective_history: history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::KernelMode;
    use crate::operator::DenseOperator;
    use cs_sensing::MotePrng;

    /// Random well-conditioned compressed-sensing instance with a known
    /// sparse ground truth.
    fn instance(
        m: usize,
        n: usize,
        sparsity: usize,
        seed: u64,
    ) -> (DenseOperator<f64>, Vec<f64>, Vec<f64>) {
        let mut rng = MotePrng::new(seed);
        let data: Vec<f64> = (0..m * n)
            .map(|_| rng.next_gaussian() / (m as f64).sqrt())
            .collect();
        let op = DenseOperator::from_row_major(m, n, data, KernelMode::Unrolled4);
        let mut truth = vec![0.0; n];
        for idx in rng.distinct_below(sparsity, n as u32) {
            truth[idx as usize] = rng.next_gaussian() * 2.0 + 1.0;
        }
        let y = op.apply(&truth);
        (op, truth, y)
    }

    #[test]
    fn fista_recovers_sparse_vector() {
        let (op, truth, y) = instance(64, 128, 6, 42);
        let cfg = ShrinkageConfig {
            lambda: 1e-3,
            max_iterations: 3000,
            tolerance: 1e-7,
            residual_tolerance: 0.0,
            kernel: KernelMode::Unrolled4,
            record_objective: false,
        };
        let r = fista(&op, &y, &cfg, None);
        let err: f64 = truth
            .iter()
            .zip(&r.solution)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let scale: f64 = truth.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err / scale < 0.02, "relative error {}", err / scale);
    }

    #[test]
    fn fista_beats_ista_at_equal_budget() {
        let (op, _, y) = instance(48, 96, 5, 7);
        let cfg = ShrinkageConfig {
            lambda: 0.01,
            max_iterations: 150,
            tolerance: 0.0, // run the full budget
            residual_tolerance: 0.0,
            kernel: KernelMode::Unrolled4,
            record_objective: true,
        };
        let rf = fista(&op, &y, &cfg, None);
        let ri = ista(&op, &y, &cfg, None);
        let f_final = *rf.objective_history.last().unwrap();
        let i_final = *ri.objective_history.last().unwrap();
        assert!(
            f_final <= i_final + 1e-12,
            "FISTA {f_final} vs ISTA {i_final}"
        );
        // And materially better early on (the O(1/k²) vs O(1/k) gap).
        assert!(rf.objective_history[60] < ri.objective_history[60]);
    }

    #[test]
    fn ista_objective_monotone_nonincreasing() {
        let (op, _, y) = instance(32, 64, 4, 3);
        let cfg = ShrinkageConfig {
            lambda: 0.05,
            max_iterations: 100,
            tolerance: 0.0,
            residual_tolerance: 0.0,
            kernel: KernelMode::Scalar,
            record_objective: true,
        };
        let r = ista(&op, &y, &cfg, None);
        for w in r.objective_history.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "ISTA objective increased: {w:?}");
        }
    }

    #[test]
    fn huge_lambda_gives_zero_solution() {
        let (op, _, y) = instance(32, 64, 4, 9);
        let lam = lambda_max(&op, &y) * 1.5;
        let cfg = ShrinkageConfig::new(lam);
        let r = fista(&op, &y, &cfg, None);
        assert!(r.solution.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn kernel_modes_converge_to_same_answer() {
        let (op, _, y) = instance(40, 80, 5, 11);
        let mk = |mode| ShrinkageConfig {
            lambda: 0.01,
            max_iterations: 500,
            tolerance: 0.0,
            residual_tolerance: 0.0,
            kernel: mode,
            record_objective: false,
        };
        let a = fista(&op, &y, &mk(KernelMode::Scalar), None);
        let b = fista(&op, &y, &mk(KernelMode::Unrolled4), None);
        for (u, v) in a.solution.iter().zip(&b.solution) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn convergence_flag_and_iteration_cap() {
        let (op, _, y) = instance(32, 64, 4, 13);
        let tight = ShrinkageConfig {
            lambda: 0.01,
            max_iterations: 5,
            tolerance: 1e-12,
            residual_tolerance: 0.0,
            kernel: KernelMode::Unrolled4,
            record_objective: false,
        };
        let r = fista(&op, &y, &tight, None);
        assert_eq!(r.iterations, 5);
        assert!(!r.converged);
    }

    #[test]
    fn f32_instantiation_recovers() {
        let mut rng = MotePrng::new(21);
        let (m, n) = (48, 96);
        let data: Vec<f32> = (0..m * n)
            .map(|_| (rng.next_gaussian() / (m as f64).sqrt()) as f32)
            .collect();
        let op = DenseOperator::from_row_major(m, n, data, KernelMode::Unrolled4);
        let mut truth = vec![0.0_f32; n];
        truth[10] = 1.5;
        truth[40] = -2.0;
        let y = op.apply(&truth);
        let cfg = ShrinkageConfig {
            lambda: 1e-3_f32,
            max_iterations: 2000,
            tolerance: 1e-6,
            residual_tolerance: 0.0,
            kernel: KernelMode::Unrolled4,
            record_objective: false,
        };
        let r = fista(&op, &y, &cfg, None);
        assert!((r.solution[10] - 1.5).abs() < 0.05);
        assert!((r.solution[40] + 2.0).abs() < 0.05);
    }

    #[test]
    fn workspace_solve_bitwise_matches_allocating() {
        let (op, _, y) = instance(64, 128, 6, 31);
        let cfg = ShrinkageConfig {
            lambda: 1e-3,
            max_iterations: 800,
            tolerance: 1e-6,
            residual_tolerance: 0.0,
            kernel: KernelMode::Unrolled4,
            record_objective: false,
        };
        let mut ws = FistaWorkspace::for_operator(&op);
        // Three consecutive solves reusing the workspace, each checked
        // bitwise against a solve that allocates its own (incl.
        // warm-started ones).
        let mut warm: Option<Vec<f64>> = None;
        for _ in 0..3 {
            let seed = warm.as_deref();
            let mut fresh = FistaWorkspace::new();
            let plain =
                fista_prior_warm_ws(&op, &y, &cfg, None, ProxSpec::L1, false, seed, None, &mut fresh);
            let with_ws =
                fista_prior_warm_ws(&op, &y, &cfg, None, ProxSpec::L1, false, seed, None, &mut ws);
            assert_eq!(plain.solution, with_ws.solution, "solutions not bitwise equal");
            assert_eq!(plain.iterations, with_ws.iterations);
            assert_eq!(plain.converged, with_ws.converged);
            assert_eq!(plain.residual_norm, with_ws.residual_norm);
            if let Some(old) = warm.replace(with_ws.solution) {
                ws.recycle_solution(old);
            }
        }
    }

    #[test]
    fn lambda_max_with_matches_allocating() {
        let (op, _, y) = instance(32, 64, 4, 41);
        let mut grad = vec![0.0; 64];
        let mut ws = Workspace::for_operator(&op);
        assert_eq!(lambda_max(&op, &y), lambda_max_with(&op, &y, &mut grad, &mut ws));
    }

    /// FNV-1a over a result's iteration count and solution bits.
    fn digest(result: &SolverResult<f64>) -> u64 {
        let words = std::iter::once(result.iterations as u64)
            .chain(result.solution.iter().map(|v| v.to_bits()));
        words.flat_map(u64::to_le_bytes).fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The entry points the figure binaries call stay the paper's verbatim
    /// iteration: pinned before the adaptive schedule entered the loop they
    /// share with it, so a schedule change that leaks into them moves a
    /// digest.
    #[test]
    fn verbatim_entry_points_keep_their_pinned_bits() {
        let (op, _, y) = instance(48, 96, 5, 7);
        let cfg = ShrinkageConfig {
            lambda: 0.01,
            max_iterations: 400,
            tolerance: 1e-6,
            residual_tolerance: 0.0,
            kernel: KernelMode::Unrolled4,
            record_objective: false,
        };
        let seed = fista(&op, &y, &ShrinkageConfig { max_iterations: 10, ..cfg }, Some(9.0)).solution;
        let l = Some(9.0);
        let seeded = Some(&seed[..]);
        let mut ws = FistaWorkspace::new();
        let got = [
            digest(&ista(&op, &y, &cfg, l)),
            // Warm-started ISTA has no public entry point; the loop runs it.
            digest(&shrinkage_loop(&op, &y, &cfg, l, false, false, ProxSpec::L1, seeded, None, None)),
            digest(&fista(&op, &y, &cfg, l)),
            digest(&fista_prior_warm_ws(&op, &y, &cfg, l, ProxSpec::L1, false, seeded, None, &mut ws)),
        ];
        let pinned = [
            0x72cb_3b41_08a8_8b48_u64,
            0x1966_4663_0927_c8ac,
            0x3286_c62f_ee97_03bb,
            0x5f20_6824_7730_150f,
        ];
        assert_eq!(
            got.map(|h| format!("{h:#018x}")),
            pinned.map(|h| format!("{h:#018x}")),
            "[ista, ista warm, fista, fista warm]"
        );
    }

    #[test]
    fn residual_norm_reported() {
        let (op, _, y) = instance(32, 64, 4, 17);
        let cfg = ShrinkageConfig::new(1e-3);
        let r = fista(&op, &y, &cfg, None);
        assert!(r.residual_norm >= 0.0);
        assert!(r.residual_norm < cs_dsp::l2_norm(&y));
    }
}

#[cfg(test)]
mod warm_start_tests {
    use super::*;
    use crate::kernels::{squared_distance, KernelMode};
    use crate::operator::DenseOperator;
    use cs_sensing::MotePrng;
    use proptest::prelude::*;

    /// A sensing instance plus a pair of correlated sparse ground truths:
    /// the second is the first nudged by `drift` (relative), modelling two
    /// consecutive 2-second packets of the same heartbeat.
    fn correlated_pair(
        seed: u64,
        drift: f64,
    ) -> (DenseOperator<f64>, Vec<f64>, Vec<f64>) {
        let (m, n, sparsity) = (64, 128, 6);
        let mut rng = MotePrng::new(seed);
        let data: Vec<f64> = (0..m * n)
            .map(|_| rng.next_gaussian() / (m as f64).sqrt())
            .collect();
        let op = DenseOperator::from_row_major(m, n, data, KernelMode::Unrolled4);
        let mut x1 = vec![0.0; n];
        for idx in rng.distinct_below(sparsity, n as u32) {
            x1[idx as usize] = rng.next_gaussian() * 2.0 + 1.0;
        }
        let x2: Vec<f64> = x1
            .iter()
            .map(|&v| {
                if v == 0.0 {
                    0.0
                } else {
                    v * (1.0 + drift * rng.next_gaussian())
                }
            })
            .collect();
        (op, x1, x2)
    }

    fn config() -> ShrinkageConfig<f64> {
        ShrinkageConfig {
            lambda: 1e-3,
            max_iterations: 4000,
            tolerance: 1e-6,
            residual_tolerance: 0.0,
            kernel: KernelMode::Unrolled4,
            record_objective: false,
        }
    }

    #[test]
    fn warm_none_is_exactly_cold() {
        let (op, x1, _) = correlated_pair(5, 0.0);
        let y = op.apply(&x1);
        let cfg = config();
        let cold = fista(&op, &y, &cfg, None);
        let mut ws = FistaWorkspace::new();
        let warm_none =
            fista_prior_warm_ws(&op, &y, &cfg, None, ProxSpec::L1, false, None, None, &mut ws);
        assert_eq!(cold.solution, warm_none.solution);
        assert_eq!(cold.iterations, warm_none.iterations);
    }

    #[test]
    fn warm_start_at_optimum_stops_immediately() {
        let (op, x1, _) = correlated_pair(11, 0.0);
        let y = op.apply(&x1);
        let cfg = config();
        let cold = fista(&op, &y, &cfg, None);
        let mut ws = FistaWorkspace::new();
        let seed = Some(&cold.solution[..]);
        let rewarm = fista_prior_warm_ws(&op, &y, &cfg, None, ProxSpec::L1, false, seed, None, &mut ws);
        assert!(rewarm.converged);
        assert!(
            rewarm.iterations <= 3,
            "restarting at the optimum took {} iterations",
            rewarm.iterations
        );
    }

    #[test]
    fn ista_warm_matches_ista_solution() {
        let (op, x1, x2) = correlated_pair(23, 0.02);
        let y1 = op.apply(&x1);
        let y2 = op.apply(&x2);
        let cfg = ShrinkageConfig {
            max_iterations: 20_000,
            ..config()
        };
        let prior = ista(&op, &y1, &cfg, None);
        let cold = ista(&op, &y2, &cfg, None);
        // No public entry point seeds ISTA; the loop itself can.
        let seed = Some(&prior.solution[..]);
        let warm = shrinkage_loop(&op, &y2, &cfg, None, false, false, ProxSpec::L1, seed, None, None);
        assert!(warm.iterations <= cold.iterations);
        for (a, b) in cold.solution.iter().zip(&warm.solution) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "warm-start length mismatch")]
    fn wrong_warm_length_panics() {
        let (op, x1, _) = correlated_pair(3, 0.0);
        let y = op.apply(&x1);
        let bad = vec![0.0; 7];
        let mut ws = FistaWorkspace::new();
        let _ =
            fista_prior_warm_ws(&op, &y, &config(), None, ProxSpec::L1, false, Some(&bad), None, &mut ws);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// On consecutive correlated packets, the warm-started solve must
        /// reach the same minimizer (within the stopping tolerance) and
        /// never spend more iterations than the cold solve.
        #[test]
        fn prop_warm_start_same_solution_fewer_iterations(
            seed in 1_u64..10_000,
            drift in 0.0005_f64..0.05,
        ) {
            let (op, x1, x2) = correlated_pair(seed, drift);
            let y1 = op.apply(&x1);
            let y2 = op.apply(&x2);
            let cfg = config();
            let prior = fista(&op, &y1, &cfg, None);
            let cold = fista(&op, &y2, &cfg, None);
            let mut ws = FistaWorkspace::new();
            let warm = fista_prior_warm_ws(
                &op, &y2, &cfg, None, ProxSpec::L1, false, Some(&prior.solution), None, &mut ws,
            );
            prop_assert!(
                warm.iterations <= cold.iterations,
                "warm {} > cold {} (seed {seed}, drift {drift})",
                warm.iterations,
                cold.iterations
            );
            // Same objective minimizer within solver tolerance.
            let scale = cs_dsp::l2_norm(&cold.solution).max(1.0);
            let dist = squared_distance(&cold.solution, &warm.solution, cfg.kernel).sqrt();
            prop_assert!(
                dist / scale < 5e-3,
                "solutions diverge: {} (seed {seed}, drift {drift})",
                dist / scale
            );
        }

        /// A reused workspace is bit-for-bit a fresh one per solve, cold
        /// and warm, across consecutive reuses.
        #[test]
        fn prop_workspace_fista_bitwise_identical(seed in 1_u64..10_000) {
            let (op, x1, x2) = correlated_pair(seed, 0.01);
            let y1 = op.apply(&x1);
            let y2 = op.apply(&x2);
            let cfg = config();
            let mut ws = FistaWorkspace::for_operator(&op);
            let a1 = fista(&op, &y1, &cfg, None);
            let b1 = fista_prior_warm_ws(&op, &y1, &cfg, None, ProxSpec::L1, false, None, None, &mut ws);
            prop_assert_eq!(&a1.solution, &b1.solution);
            let mut fresh = FistaWorkspace::new();
            let a2 = fista_prior_warm_ws(
                &op, &y2, &cfg, None, ProxSpec::L1, false, Some(&a1.solution), None, &mut fresh,
            );
            let b2 = fista_prior_warm_ws(
                &op, &y2, &cfg, None, ProxSpec::L1, false, Some(&b1.solution), None, &mut ws,
            );
            prop_assert_eq!(a2.solution, b2.solution);
        }
    }
}

#[cfg(test)]
mod prior_tests {
    use super::*;
    use crate::kernels::{squared_distance, KernelMode};
    use crate::operator::DenseOperator;
    use cs_sensing::MotePrng;

    fn instance(seed: u64, m: usize, n: usize, sparsity: usize) -> (DenseOperator<f64>, Vec<f64>) {
        let mut rng = MotePrng::new(seed);
        let data: Vec<f64> = (0..m * n)
            .map(|_| rng.next_gaussian() / (m as f64).sqrt())
            .collect();
        let op = DenseOperator::from_row_major(m, n, data, KernelMode::Unrolled4);
        let mut x = vec![0.0; n];
        for idx in rng.distinct_below(sparsity, n as u32) {
            x[idx as usize] = rng.next_gaussian() * 2.0 + 1.0;
        }
        (op, x)
    }

    fn config() -> ShrinkageConfig<f64> {
        ShrinkageConfig {
            lambda: 1e-3,
            max_iterations: 4000,
            tolerance: 1e-6,
            residual_tolerance: 0.0,
            kernel: KernelMode::Unrolled4,
            record_objective: false,
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn singleton_groups_match_l1_bitwise() {
        let (op, x) = instance(42, 64, 128, 6);
        let y = op.apply(&x);
        let cfg = config();
        let sizes = vec![1_usize; op.cols()];
        let mut ws_a = FistaWorkspace::for_operator(&op);
        let mut ws_b = FistaWorkspace::for_operator(&op);
        let a = fista_prior_warm_ws(&op, &y, &cfg, None, ProxSpec::L1, false, None, None, &mut ws_a);
        let b = fista_prior_warm_ws(
            &op,
            &y,
            &cfg,
            None,
            ProxSpec::Group(&sizes),
            false,
            None,
            None,
            &mut ws_b,
        );
        assert_eq!(bits(&a.solution), bits(&b.solution));
        assert_eq!(a.iterations, b.iterations);
    }

    /// The schedule may change the path, never the answer: run to a
    /// tolerance far below the stop rule's usual one, the adaptive and the
    /// paper's schedule land on the same minimiser under every prox.
    #[test]
    fn restart_reaches_same_minimizer() {
        let (op, x) = instance(43, 64, 128, 6);
        let y = op.apply(&x);
        let cfg = ShrinkageConfig { tolerance: 1e-9, max_iterations: 20_000, ..config() };
        let sizes = vec![4_usize; op.cols() / 4];
        let mut ws = FistaWorkspace::for_operator(&op);
        for prox in [ProxSpec::L1, ProxSpec::Group(&sizes)] {
            let paper = fista_prior_warm_ws(&op, &y, &cfg, None, prox, false, None, None, &mut ws);
            let adaptive = fista_prior_warm_ws(&op, &y, &cfg, None, prox, true, None, None, &mut ws);
            assert!(paper.converged && adaptive.converged, "{prox:?}");
            let dist = squared_distance(&paper.solution, &adaptive.solution, cfg.kernel).sqrt();
            assert!(
                dist <= 1e-6 * cs_dsp::l2_norm(&paper.solution),
                "{prox:?}: schedules disagree by {dist}"
            );
            assert!(adaptive.iterations < paper.iterations, "{prox:?}: no iteration win");
        }
    }

    /// Iterations the ramp takes from `boost₁` down to 1.
    fn ramp_length(boost: f64) -> usize {
        (boost.ln() / (1.0 / CONTINUATION_DECAY).ln()).ceil() as usize
    }

    /// A cold adaptive solve at `λ = fraction · λ_max`, stop rule loose
    /// enough that the paper's schedule quits within a few iterations.
    fn loose_cold_solve(fraction: f64, max_iterations: usize) -> (SolverResult<f64>, usize) {
        let (op, x) = instance(47, 64, 128, 6);
        let y = op.apply(&x);
        let cfg = ShrinkageConfig {
            lambda: fraction * lambda_max(&op, &y),
            tolerance: 0.2,
            max_iterations,
            ..config()
        };
        let mut ws = FistaWorkspace::for_operator(&op);
        let paper = fista_prior_warm_ws(&op, &y, &cfg, None, ProxSpec::L1, false, None, None, &mut ws);
        let adaptive = fista_prior_warm_ws(&op, &y, &cfg, None, ProxSpec::L1, true, None, None, &mut ws);
        (adaptive, paper.iterations)
    }

    #[test]
    fn no_stop_test_fires_while_the_threshold_is_ramping() {
        // boost₁ = ζ·λ_max/λ = 100: 44 iterations above the target λ.
        let ramp = ramp_length(CONTINUATION_START / 1e-3);
        assert_eq!(ramp, 44);
        let (adaptive, paper_iterations) = loose_cold_solve(1e-3, 4000);
        assert!(paper_iterations < ramp, "stop rule not loose enough: {paper_iterations}");
        assert!(adaptive.converged);
        assert!(adaptive.iterations > ramp, "stopped at {} inside the ramp", adaptive.iterations);

        // The residual rule waits too.
        let (op, x) = instance(47, 64, 128, 6);
        let y = op.apply(&x);
        let cfg = ShrinkageConfig {
            lambda: 1e-3 * lambda_max(&op, &y),
            tolerance: 0.0,
            residual_tolerance: 0.5,
            ..config()
        };
        let mut ws = FistaWorkspace::for_operator(&op);
        let paper = fista_prior_warm_ws(&op, &y, &cfg, None, ProxSpec::L1, false, None, None, &mut ws);
        let adaptive = fista_prior_warm_ws(&op, &y, &cfg, None, ProxSpec::L1, true, None, None, &mut ws);
        assert!(paper.converged && paper.iterations < ramp);
        assert!(adaptive.converged && adaptive.iterations > ramp);
    }

    #[test]
    fn cap_below_the_ramp_returns_unconverged_finite_iterate() {
        let (adaptive, _) = loose_cold_solve(1e-3, 20);
        assert_eq!(adaptive.iterations, 20);
        assert!(!adaptive.converged);
        assert!(adaptive.solution.iter().all(|v| v.is_finite()));
        assert!(adaptive.solution.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn degenerate_problems_neither_divide_by_zero_nor_ramp() {
        let (op, x) = instance(48, 64, 128, 6);
        let y = op.apply(&x);
        let mut ws = FistaWorkspace::for_operator(&op);
        let loose = ShrinkageConfig { tolerance: 0.2, ..config() };

        // λ = 0: nothing to continue towards; the loose stop rule fires at once.
        let cfg = ShrinkageConfig { lambda: 0.0, ..loose };
        let r = fista_prior_warm_ws(&op, &y, &cfg, None, ProxSpec::L1, true, None, None, &mut ws);
        assert!(r.converged && r.iterations < 10, "λ = 0 ran {} iterations", r.iterations);
        assert!(r.solution.iter().all(|v| v.is_finite()));

        // y = 0: the first gradient is zero, and so is the answer.
        let zeros = vec![0.0; op.rows()];
        let r = fista_prior_warm_ws(&op, &zeros, &loose, None, ProxSpec::L1, true, None, None, &mut ws);
        assert!(r.converged);
        assert_eq!(r.iterations, 1);
        assert!(r.solution.iter().all(|&v| v == 0.0));

        // A zero operator returns before the first gradient exists.
        let null = DenseOperator::from_row_major(4, 8, vec![0.0; 32], KernelMode::Unrolled4);
        let mut ws = FistaWorkspace::for_operator(&null);
        let r =
            fista_prior_warm_ws(&null, &[1.0; 4], &loose, None, ProxSpec::L1, true, None, None, &mut ws);
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
        assert!(r.solution.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn the_seed_sets_the_length_of_its_own_ramp() {
        let (op, x) = instance(49, 64, 128, 6);
        let y = op.apply(&x);
        let cfg = ShrinkageConfig { lambda: 1e-3 * lambda_max(&op, &y), ..config() };
        let mut ws = FistaWorkspace::for_operator(&op);
        let cold = fista_prior_warm_ws(&op, &y, &cfg, None, ProxSpec::L1, true, None, None, &mut ws);
        assert!(cold.converged);

        // At the minimiser 2‖g‖∞ ≈ λ: boost₁ = 1, no ramp, a handful of
        // iterations.
        let seed = cold.solution.clone();
        let rewarm =
            fista_prior_warm_ws(&op, &y, &cfg, None, ProxSpec::L1, true, Some(&seed), None, &mut ws);
        assert!(rewarm.converged);
        assert!(rewarm.iterations <= 5, "perfect seed took {} iterations", rewarm.iterations);

        // A seed ten times too large is further from optimal than zero is,
        // so it ramps longer than a cold start (81 vs 56 iterations here) —
        // but the harm is bounded, where the paper's schedule pays three
        // times its cold count for the same seed (906 vs 307).
        let inflated: Vec<f64> = seed.iter().map(|&v| 10.0 * v).collect();
        let bad =
            fista_prior_warm_ws(&op, &y, &cfg, None, ProxSpec::L1, true, Some(&inflated), None, &mut ws);
        let paper_bad =
            fista_prior_warm_ws(&op, &y, &cfg, None, ProxSpec::L1, false, Some(&inflated), None, &mut ws);
        assert!(bad.converged);
        assert!(
            bad.iterations <= 2 * cold.iterations && bad.iterations < paper_bad.iterations,
            "10× seed took {} iterations vs cold {} (paper's schedule: {})",
            bad.iterations,
            cold.iterations,
            paper_bad.iterations
        );
    }

    /// Counts the operator applications a solve makes.
    struct Counting<'a> {
        op: &'a DenseOperator<f64>,
        applies: std::cell::Cell<usize>,
        adjoints: std::cell::Cell<usize>,
    }

    impl Counting<'_> {
        /// `(applies, adjoints)` since the last call.
        fn take(&self) -> (usize, usize) {
            (self.applies.take(), self.adjoints.take())
        }
    }

    impl LinearOperator<f64> for Counting<'_> {
        fn rows(&self) -> usize {
            self.op.rows()
        }
        fn cols(&self) -> usize {
            self.op.cols()
        }
        fn apply_into(&self, x: &[f64], out: &mut [f64]) {
            self.applies.set(self.applies.get() + 1);
            self.op.apply_into(x, out);
        }
        fn adjoint_into(&self, y: &[f64], out: &mut [f64]) {
            self.adjoints.set(self.adjoints.get() + 1);
            self.op.adjoint_into(y, out);
        }
    }

    /// A cold solve handed the `Aᴴy` that `lambda_max_with` computed makes
    /// `k − 1` operator pairs inside its loop instead of `k` (plus the one
    /// apply behind the reported residual), to the same bits; a warm start
    /// ignores the hand-off.
    #[test]
    fn a_cold_solve_handed_adjoint_y_skips_one_operator_pair() {
        let (op, x) = instance(50, 64, 128, 6);
        let y = op.apply(&x);
        let counting = Counting { op: &op, applies: Default::default(), adjoints: Default::default() };
        let mut ws = FistaWorkspace::for_operator(&op);
        let mut adjoint_y = vec![0.0; op.cols()];
        let lambda_max = lambda_max_with(&counting, &y, &mut adjoint_y, ws.operator_workspace());
        assert_eq!(counting.take(), (0, 1));
        let cfg = ShrinkageConfig { lambda: 1e-3 * lambda_max, ..config() };
        // Estimated here, so the power iteration is not in the counts.
        let lipschitz = Some(lipschitz_constant(&op, 60));
        let sizes = vec![4_usize; op.cols() / 4];
        for (adaptive, prox) in
            [(false, ProxSpec::L1), (true, ProxSpec::L1), (true, ProxSpec::Group(&sizes))]
        {
            let mut solve = |warm: Option<&[f64]>, handed: Option<&[f64]>| {
                let result =
                    fista_prior_warm_ws(&counting, &y, &cfg, lipschitz, prox, adaptive, warm, handed, &mut ws);
                (result, counting.take())
            };
            let (plain, plain_count) = solve(None, None);
            let (handed, handed_count) = solve(None, Some(&adjoint_y[..]));
            let k = plain.iterations;
            assert!(plain.converged && k > 1);
            assert_eq!(plain_count, (k + 1, k), "{prox:?}");
            assert_eq!(handed_count, (k, k - 1), "{prox:?}");
            assert_eq!(handed.iterations, k, "{prox:?}");
            assert_eq!(bits(&handed.solution), bits(&plain.solution), "{prox:?}");
            assert_eq!(handed.residual_norm.to_bits(), plain.residual_norm.to_bits());

            let seed: Vec<f64> = plain.solution.iter().map(|&v| 0.5 * v).collect();
            let (warm, warm_count) = solve(Some(&seed[..]), None);
            let (warm_handed, warm_handed_count) = solve(Some(&seed[..]), Some(&adjoint_y[..]));
            assert_eq!(warm_count, (warm.iterations + 1, warm.iterations), "{prox:?}");
            assert_eq!(warm_handed_count, warm_count, "{prox:?}");
            assert_eq!(bits(&warm_handed.solution), bits(&warm.solution), "{prox:?}");
        }
    }

    #[test]
    fn group_solve_recovers_block_sparse_signal() {
        // Ground truth sparse in contiguous blocks of 4; the group prox
        // should recover it at least as well as plain l1 at the same lambda.
        let (m, n, block) = (64, 128, 4_usize);
        let mut rng = MotePrng::new(77);
        let data: Vec<f64> = (0..m * n)
            .map(|_| rng.next_gaussian() / (m as f64).sqrt())
            .collect();
        let op = DenseOperator::from_row_major(m, n, data, KernelMode::Unrolled4);
        let mut x = vec![0.0; n];
        for g in rng.distinct_below(3, (n / block) as u32) {
            for j in 0..block {
                x[g as usize * block + j] = rng.next_gaussian() * 2.0 + 1.0;
            }
        }
        let y = op.apply(&x);
        let cfg = config();
        let sizes = vec![block; n / block];
        let mut ws = FistaWorkspace::for_operator(&op);
        let sol =
            fista_prior_warm_ws(&op, &y, &cfg, None, ProxSpec::Group(&sizes), false, None, None, &mut ws);
        assert!(sol.converged);
        let err = squared_distance(&sol.solution, &x, cfg.kernel).sqrt() / cs_dsp::l2_norm(&x);
        assert!(err < 0.05, "group solve missed block-sparse truth: {err}");
    }

    #[test]
    #[should_panic(expected = "group sizes do not tile")]
    fn bad_group_tiling_panics_via_prior_entry() {
        let (op, x) = instance(46, 64, 128, 6);
        let y = op.apply(&x);
        let sizes = vec![3_usize; 5];
        let mut ws = FistaWorkspace::for_operator(&op);
        let _ = fista_prior_warm_ws(
            &op,
            &y,
            &config(),
            None,
            ProxSpec::Group(&sizes),
            false,
            None,
            None,
            &mut ws,
        );
    }
}

#[cfg(test)]
mod arm_tests {
    use super::*;
    use crate::kernels::TailSums;
    use crate::lipschitz::top_singular_pair;
    use crate::operator::{DeflatedOperator, SynthesisOperator};
    use cs_dsp::wavelet::{Dwt, Wavelet};
    use cs_sensing::{Sensing, SparseBinarySensing};

    /// The decoder's geometry: 2-s packets at 256 Hz, db4 over five
    /// levels, CR 50 % with twelve ones per column.
    const N: usize = 512;
    const LEVELS: usize = 5;

    /// Consecutive packets of an ECG-like trace: a sharp QRS and a broad T
    /// wave every 213 samples (72 bpm) over a slow baseline wander.
    fn packets<T: Real>(count: usize) -> Vec<Vec<T>> {
        let trace: Vec<f64> = (0..count * N)
            .map(|i| {
                let (t, phase) = (i as f64, (i % 213) as f64);
                100.0 * (-((phase - 60.0) / 3.0).powi(2)).exp()
                    + 25.0 * (-((phase - 130.0) / 12.0).powi(2)).exp()
                    + 10.0 * (t * 0.01).sin()
            })
            .collect();
        trace.chunks(N).map(|w| w.iter().map(|&v| T::from_f64(v)).collect()).collect()
    }

    /// Every arm's bits: the solution, the iteration count, the residual
    /// and the three tail sums of every iteration.
    fn fingerprint<T: Real>(result: &SolverResult<T>, sums: &[TailSums<T>]) -> Vec<u64> {
        let bits = |v: T| v.to_f64().to_bits();
        let head = [result.iterations as u64, u64::from(result.converged), bits(result.residual_norm)];
        let tail = sums.iter().flat_map(|s| [bits(s.step_sq), bits(s.norm_sq), bits(s.restart)]);
        head.into_iter().chain(result.solution.iter().map(|&v| bits(v))).chain(tail).collect()
    }

    /// The same packets, plain ℓ1 and the block prior, each lead's chain
    /// of solves as the decoder runs it (cold with `Aᴴy` handed over, then
    /// warm from the previous packet's solution, adaptive schedule) through
    /// the solve loop's instantiation for every arm this CPU has. The
    /// loop's AVX2 arm is its baseline instantiation (only the DWT levels
    /// widen there); the DWT plan dispatches on its own, and its arms are
    /// held to each other level by level in `cs-dsp`.
    fn arms_solve_alike<T: Real>() {
        let dwt = Dwt::<T>::new(&Wavelet::daubechies(4).unwrap(), N, LEVELS).unwrap();
        let phi = SparseBinarySensing::new(N / 2, N, 12, 0xEC60).unwrap();
        let op = SynthesisOperator::new(&phi, &dwt);
        let (_, u) = top_singular_pair(&op, 30);
        let deflated = DeflatedOperator::with_direction(&op, u, T::from_f64(0.15));
        let lipschitz = Some(lipschitz_constant(&deflated, 60));
        let approx = N >> LEVELS;
        let sizes: Vec<usize> =
            std::iter::repeat_n(1, approx).chain(std::iter::repeat_n(4, (N - approx) / 4)).collect();
        let windows = packets::<T>(4);
        for prox in [ProxSpec::L1, ProxSpec::Group(&sizes)] {
            let mut chains: Vec<(&str, Vec<Vec<u64>>)> = Vec::new();
            for arm in ["baseline", "avx2", "avx512"] {
                let mut ws = FistaWorkspace::for_operator(&deflated);
                let mut previous: Option<Vec<T>> = None;
                let mut chain = Vec::new();
                for x in &windows {
                    let y = deflated.transform_measurements(&Sensing::<T>::apply(&phi, x));
                    let mut adjoint_y = vec![T::ZERO; N];
                    let lambda_max =
                        lambda_max_with(&deflated, &y, &mut adjoint_y, ws.operator_workspace());
                    let config = ShrinkageConfig {
                        lambda: T::from_f64(0.002) * lambda_max,
                        tolerance: T::from_f64(1.5e-4),
                        ..ShrinkageConfig::new(T::ZERO)
                    };
                    let solve = Solve {
                        op: &deflated,
                        y: &y,
                        config: &config,
                        lipschitz,
                        accelerate: true,
                        adaptive: true,
                        prox,
                        warm_start: previous.as_deref(),
                        cold_adjoint_y: previous.is_none().then_some(&adjoint_y[..]),
                    };
                    ws.tail_log.clear();
                    let result = solve.run_in(arm, Some(&mut ws));
                    assert!(result.converged && result.iterations > 1, "{arm} {prox:?}");
                    chain.push(fingerprint(&result, &ws.tail_log));
                    previous = Some(result.solution);
                }
                chains.push((arm, chain));
            }
            let (_, reference) = &chains[0];
            for (arm, chain) in &chains[1..] {
                for (k, (got, want)) in chain.iter().zip(reference).enumerate() {
                    assert!(got == want, "{arm} vs baseline, packet {k}, {prox:?}");
                }
            }
        }
    }

    #[test]
    fn every_arm_solves_the_same_packets_to_the_same_bits_f32() {
        arms_solve_alike::<f32>();
    }

    #[test]
    fn every_arm_solves_the_same_packets_to_the_same_bits_f64() {
        arms_solve_alike::<f64>();
    }
}
