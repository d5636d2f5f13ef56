//! Batched (MMV) FISTA: K lanes share one operator, one Lipschitz
//! constant, and one block apply/adjoint per iteration.
//!
//! The solver is written so that every lane's floating-point operation
//! sequence is *identical* to what [`fista_warm_ws`](crate::fista_warm_ws)
//! would execute on that lane alone:
//!
//! * block apply/adjoint kernels compute each lane's output with the same
//!   per-element reductions as the scalar paths (only the (row, lane)
//!   visiting order changes, and no reduction crosses lanes);
//! * the residual update and the iteration tail (gradient step, prox, stop
//!   norms, restart product, momentum — one [`fista_tail`] sweep) run on
//!   lane-contiguous slices with the same shared kernels;
//! * the schedule state — the momentum scalar `t_k` and the continuation
//!   multiplier — is kept per lane and advanced by the sequential solver's
//!   own helpers, so a lane restarts and leaves its ramp exactly when its
//!   sequential solve would.
//!
//! Convergence is tracked per lane: a lane whose stopping criterion fires
//! **freezes** — its slices are swapped out of the active prefix and never
//! touched again — while stragglers keep iterating at shrinking batch
//! width. Per-lane iteration counts, convergence flags, and residual norms
//! therefore match the sequential solver bit-for-bit; the equivalence
//! suite in `tests/numerical_equivalence.rs` pins this.

use crate::kernels::{fista_tail, ProxSpec};
use crate::lipschitz::lipschitz_constant;
use crate::operator::LinearOperator;
use crate::solvers::shrinkage::{
    continuation_decay, continuation_start, next_momentum, ShrinkageConfig,
};
use crate::workspace::BatchWorkspace;
use cs_dsp::{l2_norm, Real};
use cs_telemetry::{Stage, TelemetryRegistry};
use std::time::Instant;

/// Per-tile iterate-block budget for the batched solver's cache-aware
/// tiling: the number of lanes solved together is chosen so that one
/// tile's hot per-lane buffers (α, point, grad, y, residual — sized as
/// `4·N + 2·M` elements, the formula the budget was tuned with when a
/// second α block was still among them) fit
/// in roughly this many bytes, leaving the operator's index stream and
/// the transform scratch to stream through the outer cache levels. The
/// budget is tuned empirically (an A/B sweep on the dev host put 4-lane
/// tiles ~7% ahead of both 2-lane and untiled at the paper geometry):
/// at N = 512, M = 256, f32 this yields 4-lane tiles; tiny test
/// geometries get the full batch in one tile.
const TILE_L1_BUDGET_BYTES: usize = 40 * 1024;

/// Which penalty the batched solver applies per lane — the batch-side
/// mirror of [`ProxSpec`](crate::ProxSpec), extended with a per-lane
/// weight table so a mixed fleet (each lane carrying its own support
/// prior) solves in one batch.
#[derive(Debug, Clone, Copy)]
pub enum BatchPenalty<'a, T: Real> {
    /// Plain ℓ1 for every lane.
    L1,
    /// One shared weight vector (length `op.cols()`) applied to every
    /// lane — exactly the old `weights: Some(..)` behavior.
    Shared(&'a [T]),
    /// Per-lane weight vectors, lane-major (`weights[lane·n .. (lane+1)·n]`
    /// — indexed by *lane*, not slot, so freeze compaction never moves
    /// them).
    PerLane(&'a [T]),
    /// One shared contiguous group partition (group-ℓ1 prox) for every
    /// lane.
    Group(&'a [usize]),
}

/// Solves Eq. (3) for every lane staged in `ws` with one batched FISTA
/// run, sharing the iteration bookkeeping across lanes (the operator
/// products themselves run lane by lane).
///
/// `configs[lane]` carries each lane's λ and stopping criteria (the
/// kernel mode and iteration caps may differ per lane too); `weights`
/// optionally applies one shared per-coefficient ℓ1 weighting to every
/// lane, exactly like [`fista_weighted_warm_ws`](crate::fista_weighted_warm_ws);
/// `lipschitz` passes the shared step-size constant (`None` estimates it
/// by power iteration, as the sequential solver does).
///
/// Results stay in the workspace: read them through
/// [`BatchWorkspace::solution`], [`BatchWorkspace::iterations`],
/// [`BatchWorkspace::converged`], [`BatchWorkspace::residual_norm`] and
/// [`BatchWorkspace::elapsed`] — nothing is returned by value, so a warmed
/// workspace keeps the whole solve allocation-free.
///
/// Staging a single lane (K = 1) executes exactly the sequential
/// operation order, so the batch of one *is* the sequential path.
///
/// # Panics
///
/// Panics if no lane is staged, `configs.len() != ws.lanes()`, the staged
/// geometry differs from `op`'s, a config requests `record_objective`
/// (unsupported in batch mode — it would change the per-lane cost model),
/// a λ is negative, an iteration cap is zero, a weight is negative, or
/// `weights.len() != op.cols()`.
pub fn fista_warm_batch_ws<T: Real, A: LinearOperator<T>>(
    op: &A,
    configs: &[ShrinkageConfig<T>],
    weights: Option<&[T]>,
    lipschitz: Option<T>,
    ws: &mut BatchWorkspace<T>,
) {
    let penalty = match weights {
        Some(w) => BatchPenalty::Shared(w),
        None => BatchPenalty::L1,
    };
    fista_prior_batch_ws(op, configs, penalty, false, lipschitz, ws);
}

/// The decoder's batched solver: [`fista_warm_batch_ws`] generalized to a
/// [`BatchPenalty`] (per-lane support weights, group shrinkage) and the
/// adaptive schedule of
/// [`fista_prior_warm_ws`](crate::fista_prior_warm_ws) (gradient restart
/// plus λ-continuation).
///
/// Momentum and the continuation multiplier are tracked per lane, and the
/// restart test runs on each lane's own slices with the same arithmetic as
/// the sequential solve — an adaptive batch lane matches its sequential
/// solve bit-for-bit, whenever it restarts or leaves its ramp. With
/// `BatchPenalty::L1`/`Shared` and `adaptive = false` this is exactly
/// [`fista_warm_batch_ws`] (every lane's momentum sequence is the shared
/// one).
///
/// # Panics
///
/// Panics under [`fista_warm_batch_ws`]'s conditions, or if the penalty is
/// inconsistent with the geometry (`Shared` length ≠ `op.cols()`,
/// `PerLane` length ≠ `lanes · op.cols()`, negative weight, or `Group`
/// sizes that do not tile `op.cols()`).
pub fn fista_prior_batch_ws<T: Real, A: LinearOperator<T>>(
    op: &A,
    configs: &[ShrinkageConfig<T>],
    penalty: BatchPenalty<'_, T>,
    adaptive: bool,
    lipschitz: Option<T>,
    ws: &mut BatchWorkspace<T>,
) {
    let k = ws.lanes;
    let (m, n) = (op.rows(), op.cols());
    assert!(k > 0, "batched solver: no lanes staged");
    assert_eq!(configs.len(), k, "batched solver: one config per lane required");
    assert_eq!(ws.rows, m, "batched solver: staged rows mismatch operator");
    assert_eq!(ws.cols, n, "batched solver: staged cols mismatch operator");
    for config in configs {
        assert!(config.lambda >= T::ZERO, "batched solver: negative lambda");
        assert!(config.max_iterations > 0, "batched solver: zero iteration cap");
        assert!(
            !config.record_objective,
            "batched solver: objective recording is not supported in batch mode"
        );
    }
    match penalty {
        BatchPenalty::L1 => {}
        BatchPenalty::Shared(w) => {
            assert_eq!(w.len(), n, "batched solver: weights length mismatch");
            assert!(
                w.iter().all(|&v| v >= T::ZERO),
                "batched solver: negative weight"
            );
        }
        BatchPenalty::PerLane(w) => {
            assert_eq!(
                w.len(),
                k * n,
                "batched solver: per-lane weights length mismatch"
            );
            assert!(
                w.iter().all(|&v| v >= T::ZERO),
                "batched solver: negative weight"
            );
        }
        BatchPenalty::Group(sizes) => {
            assert_eq!(
                sizes.iter().sum::<usize>(),
                n,
                "batched solver: group sizes do not tile the coefficient vector"
            );
        }
    }

    let start = Instant::now();
    // Size the iteration blocks (no-op once the workspace has seen this
    // width and geometry — the zero-alloc suite pins it).
    ws.reserve(m, n, k);

    let l = lipschitz.unwrap_or_else(|| lipschitz_constant(op, 60));
    if l == T::ZERO {
        // A zero operator admits the zero solution immediately, per lane —
        // mirrors the sequential early return.
        for lane in 0..k {
            let s = ws.slot_of_lane[lane];
            ws.alpha[s * n..(s + 1) * n].fill(T::ZERO);
            ws.iterations[lane] = 0;
            ws.converged[lane] = true;
            ws.residual_norm[lane] = l2_norm(&ws.y[s * m..(s + 1) * m]);
        }
        ws.elapsed = start.elapsed();
        return;
    }
    let inv_l = T::ONE / l;
    // grad = 2·Aᴴ·residual; the 2 folds into the step, as sequentially.
    let step = T::TWO * inv_l;
    for (lane, config) in configs.iter().enumerate() {
        let s = ws.slot_of_lane[lane];
        ws.threshold[lane] = config.lambda * inv_l;
        ws.residual_target[lane] =
            config.residual_tolerance * l2_norm(&ws.y[s * m..(s + 1) * m]);
    }

    // Seed: α from staging (warm or zeros), extrapolation point = α — the
    // sequential solver's exact starting state per lane.
    ws.point[..k * n].copy_from_slice(&ws.alpha[..k * n]);

    // Cache-aware tiling: lanes are independent (the momentum scalars are
    // data-independent and every reduction is lane-local), so the batch
    // can be solved one L1-sized tile at a time instead of streaming all
    // K lanes' iterate blocks through cache every iteration. A tile still
    // shares the per-iteration bookkeeping across its lanes; keeping the
    // tile's working set L1-resident is what stops that from being paid
    // back in cache misses. Tile membership changes no lane's operation
    // sequence — bit-exactness is unaffected, and the equivalence suite
    // pins it.
    let per_lane_bytes = (4 * n + 2 * m) * core::mem::size_of::<T>();
    let tile_width = (TILE_L1_BUDGET_BYTES / per_lane_bytes.max(1)).clamp(1, k);

    // Every lane's momentum sequence starts at t₁ = 1, exactly like the
    // sequential solver. Without restart the sequences stay identical
    // across lanes (t_k is data-independent), reproducing the old shared
    // scalar bit-for-bit; with restart each lane walks its own schedule.
    ws.momentum[..k].fill(T::ONE);
    // Likewise the λ-continuation multiplier: 1 throughout on the paper's
    // schedule, read off each lane's own first gradient on the adaptive one.
    ws.boost[..k].fill(T::ONE);

    let mut tile_start = 0;
    while tile_start < k {
        let tile_len = tile_width.min(k - tile_start);
        let lo_n = tile_start * n;
        let lo_m = tile_start * m;
        let mut active = tile_len;
        let mut iter = 0;
        while active > 0 {
            iter += 1;
            let wn = active * n;
            let wm = active * m;

            // residual = A·point − y over the tile's active prefix.
            op.apply_block_into_ws(
                &ws.point[lo_n..lo_n + wn],
                active,
                &mut ws.residual[lo_m..lo_m + wm],
                &mut ws.op_ws,
            );
            for (r, &yi) in ws.residual[lo_m..lo_m + wm]
                .iter_mut()
                .zip(&ws.y[lo_m..lo_m + wm])
            {
                *r -= yi;
            }
            op.adjoint_block_into_ws(
                &ws.residual[lo_m..lo_m + wm],
                active,
                &mut ws.grad[lo_n..lo_n + wn],
                &mut ws.op_ws,
            );

            // Per lane, in the sequential order: the tail sweep (momentum
            // included — the sequential loop extrapolates before its
            // `break`, so lanes about to freeze do too), the restart
            // fix-up on the lane's own momentum scalar, then the stopping
            // checks (step size first, then the optional residual target).
            for s in tile_start..tile_start + active {
                let lane = ws.lane_of_slot[s];
                let config = &configs[lane];
                let lane_n = s * n..(s + 1) * n;
                let prox = match penalty {
                    BatchPenalty::L1 => ProxSpec::L1,
                    BatchPenalty::Shared(w) => ProxSpec::WeightedL1(w),
                    BatchPenalty::PerLane(w) => ProxSpec::WeightedL1(&w[lane * n..(lane + 1) * n]),
                    BatchPenalty::Group(sizes) => ProxSpec::Group(sizes),
                };
                if adaptive && iter == 1 {
                    ws.boost[lane] = continuation_start(&ws.grad[lane_n.clone()], config.lambda);
                }
                let boost = ws.boost[lane];
                let t = ws.momentum[lane];
                let t_next = next_momentum(t);
                let sums = fista_tail(
                    &mut ws.point[lane_n.clone()],
                    &ws.grad[lane_n.clone()],
                    &mut ws.alpha[lane_n.clone()],
                    step,
                    ws.threshold[lane] * boost,
                    prox,
                    (t - T::ONE) / t_next,
                    &mut ws.tail_scratch,
                    config.kernel,
                );
                let restarted = adaptive && sums.restart > T::ZERO;
                if restarted {
                    ws.point[lane_n.clone()].copy_from_slice(&ws.alpha[lane_n.clone()]);
                }
                ws.momentum[lane] = if restarted { next_momentum(T::ONE) } else { t_next };
                // The stop tests wait for the lane's ramp to end.
                let on_target = boost == T::ONE;
                ws.boost[lane] = continuation_decay(boost);

                ws.iterations[lane] = iter;
                let mut converged = on_target
                    && config.tolerance > T::ZERO
                    && sums.step_sq.sqrt() <= config.tolerance * sums.norm_sq.sqrt().max(T::ONE);
                if on_target && !converged && config.residual_tolerance > T::ZERO {
                    // The residual block slot is free scratch here: it is
                    // recomputed from scratch next iteration (and below).
                    op.apply_into_ws(
                        &ws.alpha[lane_n],
                        &mut ws.residual[s * m..(s + 1) * m],
                        &mut ws.op_ws,
                    );
                    for (r, &yi) in ws.residual[s * m..(s + 1) * m]
                        .iter_mut()
                        .zip(&ws.y[s * m..(s + 1) * m])
                    {
                        *r -= yi;
                    }
                    converged = l2_norm(&ws.residual[s * m..(s + 1) * m]) <= ws.residual_target[lane];
                }
                ws.converged[lane] = converged;
                ws.freeze[s] = converged || iter >= config.max_iterations;
            }

            // Compact: swap each freezing lane's slices to the back of the
            // tile's active prefix. Frozen slots are never touched again,
            // so each lane's final α is exactly its converging iterate.
            let mut s = tile_start;
            while s < tile_start + active {
                if ws.freeze[s] {
                    let last = tile_start + active - 1;
                    if s != last {
                        swap_slots(ws, s, last, m, n);
                        ws.freeze.swap(s, last);
                    }
                    active -= 1;
                } else {
                    s += 1;
                }
            }
        }

        tile_start += tile_len;
    }

    // Final data-fit residual for every lane via one full-width block
    // apply — the same computation the sequential epilogue performs.
    op.apply_block_into_ws(&ws.alpha[..k * n], k, &mut ws.residual[..k * m], &mut ws.op_ws);
    for (r, &yi) in ws.residual[..k * m].iter_mut().zip(&ws.y[..k * m]) {
        *r -= yi;
    }
    for s in 0..k {
        let lane = ws.lane_of_slot[s];
        ws.residual_norm[lane] = l2_norm(&ws.residual[s * m..(s + 1) * m]);
    }
    ws.elapsed = start.elapsed();
}

/// [`fista_prior_batch_ws`] under a [`Stage::BatchSolve`] telemetry span,
/// with the batch width recorded into the `cs_batch_occupancy` histogram.
pub fn fista_prior_batch_ws_observed<T: Real, A: LinearOperator<T>>(
    op: &A,
    configs: &[ShrinkageConfig<T>],
    penalty: BatchPenalty<'_, T>,
    adaptive: bool,
    lipschitz: Option<T>,
    ws: &mut BatchWorkspace<T>,
    telemetry: &TelemetryRegistry,
) {
    let _span = telemetry.span(Stage::BatchSolve);
    telemetry.record_batch_occupancy(ws.lanes());
    fista_prior_batch_ws(op, configs, penalty, adaptive, lipschitz, ws);
}

/// Swaps two block slots across every lane-striped buffer (iterates *and*
/// the staged measurements — the active-prefix elementwise loops pair
/// `residual[..w·m]` with `y[..w·m]` positionally), then fixes the
/// lane ↔ slot permutation. `grad`/`residual` are fully recomputed each
/// iteration and need no swap.
fn swap_slots<T: Real>(ws: &mut BatchWorkspace<T>, a: usize, b: usize, m: usize, n: usize) {
    debug_assert!(a < b);
    swap_block(&mut ws.alpha, a, b, n);
    swap_block(&mut ws.point, a, b, n);
    swap_block(&mut ws.y, a, b, m);
    let (lane_a, lane_b) = (ws.lane_of_slot[a], ws.lane_of_slot[b]);
    ws.lane_of_slot.swap(a, b);
    ws.slot_of_lane[lane_a] = b;
    ws.slot_of_lane[lane_b] = a;
}

/// Swaps chunks `[a·len .. (a+1)·len]` and `[b·len .. (b+1)·len]` of one
/// buffer (`a < b`).
fn swap_block<T: Real>(buf: &mut [T], a: usize, b: usize, len: usize) {
    let (lo, hi) = buf.split_at_mut(b * len);
    lo[a * len..(a + 1) * len].swap_with_slice(&mut hi[..len]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::DenseOperator;
    use crate::solvers::shrinkage::{fista_warm_ws, fista_weighted_warm_ws, lambda_max};
    use crate::workspace::FistaWorkspace;
    use crate::KernelMode;
    use cs_sensing::MotePrng;
    use proptest::prelude::*;

    fn instance(m: usize, n: usize, seed: u64) -> (DenseOperator<f64>, Vec<Vec<f64>>) {
        let mut rng = MotePrng::new(seed);
        let data: Vec<f64> = (0..m * n)
            .map(|_| rng.next_gaussian() / (m as f64).sqrt())
            .collect();
        let op = DenseOperator::from_row_major(m, n, data, KernelMode::Unrolled4);
        let ys: Vec<Vec<f64>> = (0..8)
            .map(|_| (0..m).map(|_| rng.next_gaussian()).collect())
            .collect();
        (op, ys)
    }

    fn assert_lane_matches(
        bws: &BatchWorkspace<f64>,
        lane: usize,
        seq: &crate::SolverResult<f64>,
        label: &str,
    ) {
        assert_eq!(bws.iterations(lane), seq.iterations, "{label}: iterations");
        assert_eq!(bws.converged(lane), seq.converged, "{label}: converged");
        assert_eq!(
            bws.residual_norm(lane).to_bits(),
            seq.residual_norm.to_bits(),
            "{label}: residual norm"
        );
        for (i, (a, b)) in bws.solution(lane).iter().zip(&seq.solution).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{label}: solution[{i}]");
        }
    }

    #[test]
    fn batch_matches_sequential_bitwise_with_masks() {
        let (op, ys) = instance(24, 48, 7);
        // Per-lane λ spread over two decades plus staggered iteration caps
        // force lanes to freeze at different iterations, exercising the
        // convergence-mask compaction path.
        let lambdas = [0.001, 0.02, 0.1, 0.4];
        let caps = [400, 370, 340, 310];
        let configs: Vec<ShrinkageConfig<f64>> = (0..4)
            .map(|lane| ShrinkageConfig {
                tolerance: 1e-6,
                max_iterations: caps[lane],
                ..ShrinkageConfig::new(lambdas[lane])
            })
            .collect();
        let mut bws = BatchWorkspace::for_operator(&op, 4);
        bws.begin(op.rows(), op.cols());
        for y in ys.iter().take(4) {
            bws.stage_lane(y, None);
        }
        fista_warm_batch_ws(&op, &configs, None, Some(9.0), &mut bws);

        let mut ws = FistaWorkspace::for_operator(&op);
        let mut iteration_counts = Vec::new();
        for (lane, y) in ys.iter().take(4).enumerate() {
            let seq = fista_warm_ws(&op, y, &configs[lane], Some(9.0), None, &mut ws);
            iteration_counts.push(seq.iterations);
            assert_lane_matches(&bws, lane, &seq, &format!("lane {lane}"));
            ws.recycle_solution(seq.solution);
        }
        // The masks must actually have been exercised: not all lanes
        // stopped at the same iteration.
        iteration_counts.sort_unstable();
        iteration_counts.dedup();
        assert!(iteration_counts.len() > 1, "lanes converged in lockstep");
    }

    #[test]
    fn warm_started_batch_matches_sequential() {
        let (op, ys) = instance(20, 40, 21);
        let cfg = ShrinkageConfig {
            tolerance: 1e-5,
            max_iterations: 300,
            ..ShrinkageConfig::new(0.01)
        };
        let warm: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).sin() * 0.1).collect();
        let mut bws = BatchWorkspace::for_operator(&op, 3);
        bws.begin(op.rows(), op.cols());
        bws.stage_lane(&ys[0], Some(&warm));
        bws.stage_lane(&ys[1], None);
        bws.stage_lane(&ys[2], Some(&warm));
        fista_warm_batch_ws(&op, &[cfg.clone(), cfg.clone(), cfg.clone()], None, Some(9.0), &mut bws);

        let mut ws = FistaWorkspace::for_operator(&op);
        for (lane, warm_start) in [Some(&warm), None, Some(&warm)].into_iter().enumerate() {
            let seq = fista_warm_ws(
                &op,
                &ys[lane],
                &cfg,
                Some(9.0),
                warm_start.map(|w| &w[..]),
                &mut ws,
            );
            assert_lane_matches(&bws, lane, &seq, &format!("warm lane {lane}"));
            ws.recycle_solution(seq.solution);
        }
    }

    #[test]
    fn weighted_batch_matches_weighted_sequential() {
        let (op, ys) = instance(16, 32, 5);
        let cfg = ShrinkageConfig {
            tolerance: 1e-5,
            max_iterations: 250,
            ..ShrinkageConfig::new(0.02)
        };
        let weights: Vec<f64> = (0..32).map(|i| 0.5 + (i % 4) as f64 * 0.25).collect();
        let mut bws = BatchWorkspace::for_operator(&op, 2);
        bws.begin(op.rows(), op.cols());
        bws.stage_lane(&ys[0], None);
        bws.stage_lane(&ys[1], None);
        fista_warm_batch_ws(&op, &[cfg.clone(), cfg.clone()], Some(&weights), Some(9.0), &mut bws);

        let mut ws = FistaWorkspace::for_operator(&op);
        for lane in 0..2 {
            let seq =
                fista_weighted_warm_ws(&op, &ys[lane], &cfg, Some(9.0), &weights, None, &mut ws);
            assert_lane_matches(&bws, lane, &seq, &format!("weighted lane {lane}"));
            ws.recycle_solution(seq.solution);
        }
    }

    #[test]
    fn per_lane_weighted_batch_matches_weighted_sequential() {
        let (op, ys) = instance(16, 32, 9);
        let cfg = ShrinkageConfig {
            tolerance: 1e-5,
            max_iterations: 250,
            ..ShrinkageConfig::new(0.02)
        };
        let n = op.cols();
        // Three lanes with three distinct weight vectors, lane-major.
        let weights: Vec<f64> = (0..3 * n)
            .map(|i| {
                let (lane, j) = (i / n, i % n);
                0.25 + (lane as f64) * 0.3 + (j % 5) as f64 * 0.1
            })
            .collect();
        let mut bws = BatchWorkspace::for_operator(&op, 3);
        bws.begin(op.rows(), op.cols());
        for y in ys.iter().take(3) {
            bws.stage_lane(y, None);
        }
        fista_prior_batch_ws(
            &op,
            &[cfg.clone(), cfg.clone(), cfg.clone()],
            BatchPenalty::PerLane(&weights),
            false,
            Some(9.0),
            &mut bws,
        );

        let mut ws = FistaWorkspace::for_operator(&op);
        for lane in 0..3 {
            let seq = fista_weighted_warm_ws(
                &op,
                &ys[lane],
                &cfg,
                Some(9.0),
                &weights[lane * n..(lane + 1) * n],
                None,
                &mut ws,
            );
            assert_lane_matches(&bws, lane, &seq, &format!("per-lane weighted lane {lane}"));
            ws.recycle_solution(seq.solution);
        }
    }

    #[test]
    fn restarting_batch_matches_restarting_sequential() {
        use crate::solvers::shrinkage::{fista_prior_warm_ws, ProxSpec};
        let (op, ys) = instance(24, 48, 17);
        // Spread λ so lanes restart (and freeze) at different iterations.
        let lambdas = [0.002, 0.05, 0.3];
        let configs: Vec<ShrinkageConfig<f64>> = (0..3)
            .map(|lane| ShrinkageConfig {
                tolerance: 1e-6,
                max_iterations: 400,
                ..ShrinkageConfig::new(lambdas[lane])
            })
            .collect();
        let warm: Vec<f64> = (0..48).map(|i| (i as f64 * 0.4).cos() * 0.2).collect();
        let mut bws = BatchWorkspace::for_operator(&op, 3);
        bws.begin(op.rows(), op.cols());
        bws.stage_lane(&ys[0], Some(&warm));
        bws.stage_lane(&ys[1], None);
        bws.stage_lane(&ys[2], Some(&warm));
        fista_prior_batch_ws(&op, &configs, BatchPenalty::L1, true, Some(9.0), &mut bws);

        let mut ws = FistaWorkspace::for_operator(&op);
        for (lane, warm_start) in [Some(&warm), None, Some(&warm)].into_iter().enumerate() {
            let seq = fista_prior_warm_ws(
                &op,
                &ys[lane],
                &configs[lane],
                Some(9.0),
                ProxSpec::L1,
                true,
                warm_start.map(|w| &w[..]),
                &mut ws,
            );
            assert_lane_matches(&bws, lane, &seq, &format!("restart lane {lane}"));
            ws.recycle_solution(seq.solution);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The adaptive schedule is per-lane state: lanes whose λ spreads
        /// over three decades start at different `boost₁` (one of them at
        /// 1: no ramp), leave their ramps at different iterations, restart
        /// on their own, and still match their sequential solves
        /// bit-for-bit under every penalty.
        #[test]
        fn prop_adaptive_batch_matches_adaptive_sequential(
            seed in 1_u64..10_000,
            fractions in proptest::collection::vec(-3.0_f64..0.0, 4),
            warm_mask in 0_u8..16,
            group in any::<bool>(),
        ) {
            use crate::solvers::shrinkage::{fista_prior_warm_ws, ProxSpec};
            let (op, ys) = instance(24, 48, seed);
            let mut fractions = fractions;
            fractions[0] = 0.0; // λ = λ_max/5 ≥ ζ·λ_max: this lane never ramps
            let configs: Vec<ShrinkageConfig<f64>> = fractions
                .iter()
                .zip(&ys)
                .map(|(&f, y)| ShrinkageConfig {
                    tolerance: 1e-6,
                    max_iterations: 300,
                    ..ShrinkageConfig::new(0.2 * 10f64.powf(f) * lambda_max(&op, y))
                })
                .collect();
            let warm: Vec<f64> = (0..48).map(|i| (i as f64 * 0.4).cos() * 0.2).collect();
            let warm_of = |lane: usize| (warm_mask >> lane & 1 == 1).then_some(&warm[..]);
            let sizes = vec![4_usize; 12];
            let mut bws = BatchWorkspace::for_operator(&op, 4);
            bws.begin(op.rows(), op.cols());
            for (lane, y) in ys.iter().take(4).enumerate() {
                bws.stage_lane(y, warm_of(lane));
            }
            let penalty = if group { BatchPenalty::Group(&sizes) } else { BatchPenalty::L1 };
            fista_prior_batch_ws(&op, &configs, penalty, true, Some(9.0), &mut bws);

            let mut ws = FistaWorkspace::for_operator(&op);
            let mut iteration_counts = Vec::new();
            for (lane, y) in ys.iter().take(4).enumerate() {
                let prox = if group { ProxSpec::Group(&sizes) } else { ProxSpec::L1 };
                let seq = fista_prior_warm_ws(
                    &op, y, &configs[lane], Some(9.0), prox, true, warm_of(lane), &mut ws,
                );
                assert_lane_matches(&bws, lane, &seq, &format!("adaptive lane {lane}"));
                iteration_counts.push(seq.iterations);
                ws.recycle_solution(seq.solution);
            }
            iteration_counts.dedup();
            prop_assert!(iteration_counts.len() > 1, "lanes stopped in lockstep");
        }
    }

    #[test]
    fn group_batch_matches_group_sequential() {
        use crate::solvers::shrinkage::{fista_prior_warm_ws, ProxSpec};
        let (op, ys) = instance(16, 32, 25);
        let cfg = ShrinkageConfig {
            tolerance: 1e-5,
            max_iterations: 250,
            ..ShrinkageConfig::new(0.02)
        };
        // Mixed partition: singletons up front, 4-wide groups after.
        let mut sizes = vec![1_usize; 8];
        sizes.extend(std::iter::repeat(4).take(6));
        assert_eq!(sizes.iter().sum::<usize>(), op.cols());
        let mut bws = BatchWorkspace::for_operator(&op, 2);
        bws.begin(op.rows(), op.cols());
        bws.stage_lane(&ys[0], None);
        bws.stage_lane(&ys[1], None);
        fista_prior_batch_ws(
            &op,
            &[cfg.clone(), cfg.clone()],
            BatchPenalty::Group(&sizes),
            false,
            Some(9.0),
            &mut bws,
        );

        let mut ws = FistaWorkspace::for_operator(&op);
        for lane in 0..2 {
            let seq = fista_prior_warm_ws(
                &op,
                &ys[lane],
                &cfg,
                Some(9.0),
                ProxSpec::Group(&sizes),
                false,
                None,
                &mut ws,
            );
            assert_lane_matches(&bws, lane, &seq, &format!("group lane {lane}"));
            ws.recycle_solution(seq.solution);
        }
    }

    #[test]
    fn k1_is_exactly_the_sequential_path() {
        let (op, ys) = instance(24, 48, 99);
        let cfg = ShrinkageConfig {
            lambda: 0.01 * lambda_max(&op, &ys[0]),
            tolerance: 1e-6,
            max_iterations: 500,
            ..ShrinkageConfig::new(0.0)
        };
        let mut bws = BatchWorkspace::for_operator(&op, 1);
        bws.begin(op.rows(), op.cols());
        bws.stage_lane(&ys[0], None);
        fista_warm_batch_ws(&op, &[cfg.clone()], None, Some(9.0), &mut bws);
        let mut ws = FistaWorkspace::for_operator(&op);
        let seq = fista_warm_ws(&op, &ys[0], &cfg, Some(9.0), None, &mut ws);
        assert_lane_matches(&bws, 0, &seq, "k=1");
    }

    #[test]
    fn residual_tolerance_stopping_matches() {
        let (op, ys) = instance(16, 32, 13);
        let cfg = ShrinkageConfig {
            tolerance: 0.0,
            residual_tolerance: 0.7,
            max_iterations: 200,
            ..ShrinkageConfig::new(0.005)
        };
        let mut bws = BatchWorkspace::for_operator(&op, 2);
        bws.begin(op.rows(), op.cols());
        bws.stage_lane(&ys[0], None);
        bws.stage_lane(&ys[1], None);
        fista_warm_batch_ws(&op, &[cfg.clone(), cfg.clone()], None, Some(9.0), &mut bws);
        let mut ws = FistaWorkspace::for_operator(&op);
        for lane in 0..2 {
            let seq = fista_warm_ws(&op, &ys[lane], &cfg, Some(9.0), None, &mut ws);
            assert!(seq.converged, "residual stop never fired");
            assert_lane_matches(&bws, lane, &seq, &format!("residual lane {lane}"));
            ws.recycle_solution(seq.solution);
        }
    }

    #[test]
    fn multi_tile_batch_matches_sequential_bitwise() {
        // Geometry sized so the f64 per-lane working set ((4·256 + 2·128)
        // · 8 = 10 KB) forces 4-lane tiles at K = 5 — the batch splits
        // into tiles of 4 and 1, exercising the tile loop, the
        // orientation-restore swap, and the per-tile parity fixup.
        let (op, ys) = instance(128, 256, 31);
        let per_lane = (4 * 256 + 2 * 128) * core::mem::size_of::<f64>();
        assert!(
            TILE_L1_BUDGET_BYTES / per_lane == 4,
            "geometry no longer forces 4-lane tiles; resize the test"
        );
        let lambdas = [0.002, 0.01, 0.05, 0.2, 0.9];
        let configs: Vec<ShrinkageConfig<f64>> = (0..5)
            .map(|lane| ShrinkageConfig {
                tolerance: 1e-6,
                max_iterations: 300 + 20 * lane,
                ..ShrinkageConfig::new(lambdas[lane])
            })
            .collect();
        let mut bws = BatchWorkspace::for_operator(&op, 5);
        bws.begin(op.rows(), op.cols());
        for y in ys.iter().take(5) {
            bws.stage_lane(y, None);
        }
        fista_warm_batch_ws(&op, &configs, None, Some(9.0), &mut bws);

        let mut ws = FistaWorkspace::for_operator(&op);
        for (lane, y) in ys.iter().take(5).enumerate() {
            let seq = fista_warm_ws(&op, y, &configs[lane], Some(9.0), None, &mut ws);
            assert_lane_matches(&bws, lane, &seq, &format!("tiled lane {lane}"));
            ws.recycle_solution(seq.solution);
        }
    }

    #[test]
    fn workspace_reuse_is_bitwise_stable() {
        let (op, ys) = instance(20, 40, 3);
        let cfg = ShrinkageConfig {
            tolerance: 1e-5,
            max_iterations: 300,
            ..ShrinkageConfig::new(0.01)
        };
        let configs = vec![cfg; 3];
        let mut bws = BatchWorkspace::for_operator(&op, 3);
        let mut first: Vec<Vec<f64>> = Vec::new();
        for round in 0..3 {
            bws.begin(op.rows(), op.cols());
            for y in ys.iter().take(3) {
                bws.stage_lane(y, None);
            }
            fista_warm_batch_ws(&op, &configs, None, Some(9.0), &mut bws);
            if round == 0 {
                first = (0..3).map(|l| bws.solution(l).to_vec()).collect();
            } else {
                for (lane, expect) in first.iter().enumerate() {
                    assert_eq!(bws.solution(lane), &expect[..], "round {round} lane {lane}");
                }
            }
        }
    }

    #[test]
    fn observed_wrapper_records_span_and_occupancy() {
        let (op, ys) = instance(16, 32, 1);
        let cfg = ShrinkageConfig {
            tolerance: 1e-4,
            max_iterations: 100,
            ..ShrinkageConfig::new(0.02)
        };
        let telemetry = TelemetryRegistry::new();
        let mut bws = BatchWorkspace::for_operator(&op, 2);
        bws.begin(op.rows(), op.cols());
        bws.stage_lane(&ys[0], None);
        bws.stage_lane(&ys[1], None);
        fista_prior_batch_ws_observed(
            &op,
            &[cfg.clone(), cfg],
            BatchPenalty::L1,
            false,
            Some(9.0),
            &mut bws,
            &telemetry,
        );
        assert_eq!(telemetry.stage(Stage::BatchSolve).count(), 1);
        assert_eq!(telemetry.batch_occupancy().count(), 1);
        assert_eq!(telemetry.batch_occupancy().snapshot().sum_ns(), 2);
    }
}
