//! Scalar and lane-parallel compute kernels.
//!
//! §IV-B2 of the paper is devoted to making the FISTA inner loops fast on
//! the iPhone's Cortex-A8: NEON `vmlaq_f32` multiply-accumulates over
//! 4-float vectors, loop unrolling/peeling for leftovers (Fig. 3), and an
//! if-conversion that replaces the sign branch of the soft-threshold with
//! arithmetic on comparison masks (Fig. 4). This module is the portable
//! equivalent. Every kernel exists in a **scalar** form (the paper's
//! original code: branches, strict left-to-right sums, one pass per
//! operation) and an **optimized** form ([`KernelMode::Unrolled4`], the
//! name kept from the 4-lane original): element-wise kernels are
//! branch-free loops the compiler vectorizes at the target's width (plain
//! multiply-adds, never `mul_add`, which without guaranteed FMA hardware
//! lowers to a libm call) and stay bit-identical to the scalar form;
//! every reduction has **one shape** ([`lane_sum`]: 16 partial sums, a
//! fixed pairwise fold, leftovers last — the portable form of the paper's
//! `vmlaq_f32` accumulators); and the solver's whole per-iteration tail
//! is **one sweep** ([`fista_tail`]) instead of five. The `table_speedup`
//! binary reproduces the paper's optimized-vs-unoptimized comparison from
//! the two paths, and the scalar one is the differential oracle the
//! optimized one is tested against.

use cs_dsp::Real;

/// Which kernel implementation a solver should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelMode {
    /// Straightforward loops with data-dependent branches, strict
    /// left-to-right sums and one pass per operation — the baseline the
    /// paper measured before optimization.
    Scalar,
    /// Branch-free vectorizable loops, lane-parallel reductions and the
    /// fused iteration tail — the paper's NEON-style optimized path
    /// (default).
    #[default]
    Unrolled4,
}

/// Partial sums carried by every optimized reduction: two 8-lane
/// accumulators side by side.
const LANES: usize = 16;

/// Folds the [`LANES`] partial sums of a reduction in its fixed order:
/// the two 8-lane accumulators lane by lane (`aᵢ + aᵢ₊₈`), then halving —
/// `(v₀+v₄, v₁+v₅, v₂+v₆, v₃+v₇)`, `(q₀+q₂) + (q₁+q₃)` — and finally the
/// serially summed leftovers.
#[inline(always)]
fn fold_lanes<T: Real>(acc: &[T; LANES], tail: T) -> T {
    let mut v = [T::ZERO; 8];
    for w in 0..8 {
        v[w] = acc[w] + acc[w + 8];
    }
    let mut q = [T::ZERO; 4];
    for w in 0..4 {
        q[w] = v[w] + v[w + 4];
    }
    ((q[0] + q[2]) + (q[1] + q[3])) + tail
}

/// `Σ term(aᵢ, bᵢ)` in the one reduction shape of the optimized path:
/// element `i` of every whole 16-chunk adds into partial sum `i mod 16`,
/// [`fold_lanes`] combines them, and the `len mod 16` leftovers add up one
/// by one. Safe portable code; the compiler maps the partial sums onto
/// vector registers at the target's width.
#[inline(always)]
fn lane_sum<T: Real>(a: &[T], b: &[T], term: impl Fn(T, T) -> T) -> T {
    let mut acc = [T::ZERO; LANES];
    let (ca, cb) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (xs, ys) in ca.zip(cb) {
        for w in 0..LANES {
            acc[w] += term(xs[w], ys[w]);
        }
    }
    let tail = ra.iter().zip(rb).fold(T::ZERO, |sum, (&x, &y)| sum + term(x, y));
    fold_lanes(&acc, tail)
}

/// `Σ term(aᵢ, bᵢ)` as `mode` sums it: strictly left to right, or in the
/// [`lane_sum`] shape.
#[inline(always)]
fn reduce<T: Real>(a: &[T], b: &[T], mode: KernelMode, term: impl Fn(T, T) -> T) -> T {
    match mode {
        KernelMode::Scalar => a.iter().zip(b).fold(T::ZERO, |sum, (&x, &y)| sum + term(x, y)),
        KernelMode::Unrolled4 => lane_sum(a, b, term),
    }
}

/// Dot product `Σ aᵢ·bᵢ`.
///
/// # Panics
///
/// Panics if the slices differ in length.
///
/// # Examples
///
/// ```
/// use cs_recovery::{dot, KernelMode};
/// let a = [1.0_f32, 2.0, 3.0, 4.0, 5.0];
/// let b = [5.0_f32, 4.0, 3.0, 2.0, 1.0];
/// assert_eq!(dot(&a, &b, KernelMode::Scalar), dot(&a, &b, KernelMode::Unrolled4));
/// ```
#[inline(always)]
pub fn dot<T: Real>(a: &[T], b: &[T], mode: KernelMode) -> T {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    reduce(a, b, mode, |x, y| x * y)
}

/// In-place `y ← y + alpha·x` (the multiply-accumulate the paper shows as
/// its single-loop example). Element-wise, so both modes run the same loop.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn axpy<T: Real>(alpha: T, x: &[T], y: &mut [T], _mode: KernelMode) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// The paper's original single-element soft threshold: an
/// `if/else if/else` on the sign (Fig. 4, before if-conversion).
#[inline]
fn soft_one_branchy<T: Real>(u: T, t: T) -> T {
    let mag = u.abs() - t;
    let mag = if mag > T::ZERO { mag } else { T::ZERO };
    if u > T::ZERO {
        mag
    } else if u < T::ZERO {
        -mag
    } else {
        T::ZERO
    }
}

/// Branch-free single-element soft threshold (if-conversion): the shrunk
/// magnitude is clamped via `max`, the sign restored via `copysign` — no
/// data-dependent branch, mirroring the mask arithmetic of Fig. 4.
#[inline(always)]
fn soft_one_branchless<T: Real>(u: T, t: T) -> T {
    (u.abs() - t).max(T::ZERO).copysign(u)
}

/// Soft thresholding `out[i] = sign(u[i]) · max(|u[i]| − t, 0)` — the prox
/// operator of `λ‖·‖₁` and the kernel the paper if-converts (Fig. 4).
///
/// The scalar path is written exactly like the paper's original code (an
/// `if/else if/else` on the sign); the optimized path is branch-free.
///
/// # Panics
///
/// Panics if the slices differ in length or `t` is negative.
pub fn soft_threshold<T: Real>(u: &[T], t: T, out: &mut [T], mode: KernelMode) {
    assert_eq!(u.len(), out.len(), "soft_threshold: length mismatch");
    assert!(t >= T::ZERO, "soft_threshold: negative threshold");
    for (o, &ui) in out.iter_mut().zip(u) {
        *o = match mode {
            KernelMode::Scalar => soft_one_branchy(ui, t),
            KernelMode::Unrolled4 => soft_one_branchless(ui, t),
        };
    }
}

/// Width of the groups the optimized group prox shrinks four at a time.
const QUAD: usize = 4;

/// `‖x‖₂²` of one width-[`QUAD`] group on the optimized path:
/// `(x₀² + x₁²) + (x₂² + x₃²)`, wherever the group sits.
#[inline(always)]
fn quad_norm_sq<T: Real>(x: &[T]) -> T {
    (x[0] * x[0] + x[1] * x[1]) + (x[2] * x[2] + x[3] * x[3])
}

/// The norms of four consecutive width-[`QUAD`] groups; the four square
/// roots (and the divisions of [`group_scale`] after them) are
/// independent, so they run as vector operations.
#[inline(always)]
fn quad_norms<T: Real>(u: &[T; LANES]) -> [T; LANES / QUAD] {
    let mut norms = [T::ZERO; LANES / QUAD];
    for (norm, quad) in norms.iter_mut().zip(u.chunks_exact(QUAD)) {
        *norm = quad_norm_sq(quad).sqrt();
    }
    norms
}

/// [`group_scale`] of each of four group norms at the width-[`QUAD`]
/// threshold `tq`.
#[inline(always)]
fn quad_scales<T: Real>(norms: &[T; LANES / QUAD], tq: T) -> [T; LANES / QUAD] {
    let mut scales = [T::ZERO; LANES / QUAD];
    for (scale, &norm) in scales.iter_mut().zip(norms) {
        *scale = group_scale(norm, tq);
    }
    scales
}

/// Whether `sizes[g..]` starts with four width-[`QUAD`] groups — one
/// [`quad_norms`] block.
#[inline(always)]
fn quad_block(sizes: &[usize], g: usize) -> bool {
    sizes.get(g..g + LANES / QUAD).is_some_and(|s| s.iter().all(|&len| len == QUAD))
}

/// Group threshold `tg = t·√|g|`.
#[inline(always)]
fn group_threshold<T: Real>(t: T, len: usize) -> T {
    t * T::from_f64(len as f64).sqrt()
}

/// Shrink factor `max(1 − tg/‖u_g‖₂, 0)` of one group. `‖u_g‖ = 0 ⇒ tg/0`
/// is inf (or NaN at `t = 0`); `max` ignores the NaN and both cases land
/// on scale 0 — a zero group stays zero.
#[inline(always)]
fn group_scale<T: Real>(norm: T, tg: T) -> T {
    (T::ONE - tg / norm).max(T::ZERO)
}

const BAD_TILING: &str = "group_soft_threshold: group sizes do not tile the vector";

/// Group (block) soft thresholding — the prox operator of the group-ℓ1
/// penalty `λ·Σ_g √|g|·‖α_g‖₂` over a contiguous partition of the
/// coefficient vector:
///
/// ```text
///   out_g = u_g · max(1 − t·√|g| / ‖u_g‖₂, 0)
/// ```
///
/// `sizes` gives the group lengths in order; they must tile `u` exactly.
/// `norms` receives the ℓ2 norm of every multi-element group.
///
/// Size-1 groups are special-cased through the same branch-free scalar
/// soft threshold as [`soft_threshold`] (for `|g| = 1` the group prox
/// *is* the scalar prox), so an all-singleton partition is bit-identical
/// to the plain ℓ1 kernel — the contract the solver's equivalence tests
/// pin down. The optimized path takes width-4 groups four at a time
/// (norms, square roots and divisions across groups); a group's result
/// never depends on which path its neighbours let it take.
///
/// # Panics
///
/// Panics if `t` is negative, `u` and `out` differ in length, `norms` is
/// shorter than `sizes`, any group is empty, or the sizes don't sum to
/// `u.len()`.
pub fn group_soft_threshold<T: Real>(
    u: &[T],
    t: T,
    sizes: &[usize],
    norms: &mut [T],
    out: &mut [T],
    mode: KernelMode,
) {
    assert_eq!(u.len(), out.len(), "group_soft_threshold: length mismatch");
    assert!(t >= T::ZERO, "group_soft_threshold: negative threshold");
    assert!(
        norms.len() >= sizes.len(),
        "group_soft_threshold: norm scratch shorter than group count"
    );
    let tq = group_threshold(t, QUAD);
    let (mut g, mut start) = (0, 0);
    while g < sizes.len() {
        if mode == KernelMode::Unrolled4 && quad_block(sizes, g) {
            let us: &[T; LANES] = u
                .get(start..start + LANES)
                .and_then(|b| b.try_into().ok())
                .expect(BAD_TILING);
            let quad = quad_norms(us);
            norms[g..g + LANES / QUAD].copy_from_slice(&quad);
            let scales = quad_scales(&quad, tq);
            for (w, o) in out[start..start + LANES].iter_mut().enumerate() {
                *o = us[w] * scales[w / QUAD];
            }
            g += LANES / QUAD;
            start += LANES;
            continue;
        }
        let len = sizes[g];
        assert!(len > 0, "group_soft_threshold: empty group");
        let block = u.get(start..start + len).expect(BAD_TILING);
        if len == 1 {
            out[start] = soft_one_branchless(block[0], t);
        } else {
            let norm_sq = match mode {
                KernelMode::Unrolled4 if len == QUAD => quad_norm_sq(block),
                _ => dot(block, block, mode),
            };
            norms[g] = norm_sq.sqrt();
            let scale = group_scale(norms[g], group_threshold(t, len));
            for (o, &ui) in out[start..start + len].iter_mut().zip(block) {
                *o = ui * scale;
            }
        }
        g += 1;
        start += len;
    }
    assert_eq!(start, u.len(), "{BAD_TILING}");
}

/// FISTA's momentum combination `out = a + beta·(a − a_prev)` (Eq. 6).
/// Element-wise, so both modes run the same loop.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn momentum_combine<T: Real>(
    a: &[T],
    a_prev: &[T],
    beta: T,
    out: &mut [T],
    _mode: KernelMode,
) {
    assert_eq!(a.len(), a_prev.len(), "momentum_combine: length mismatch");
    assert_eq!(a.len(), out.len(), "momentum_combine: length mismatch");
    for ((o, &x), &p) in out.iter_mut().zip(a).zip(a_prev) {
        *o = x + beta * (x - p);
    }
}

/// Squared Euclidean distance `‖a − b‖²` (used by stopping criteria).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn squared_distance<T: Real>(a: &[T], b: &[T], mode: KernelMode) -> T {
    assert_eq!(a.len(), b.len(), "squared_distance: length mismatch");
    reduce(a, b, mode, |x, y| (x - y) * (x - y))
}

/// Which proximal operator a solve applies each iteration — the penalty
/// side of Eq. (3), generalized.
///
/// `L1` is the paper's plain soft threshold. `Group` carries a contiguous partition of the coefficient vector and
/// applies the group-ℓ1 prox of [`group_soft_threshold`] — size-1 groups
/// degrade bit-exactly to the plain soft threshold, so an all-singleton
/// partition reproduces `L1` to the bit.
#[derive(Debug, Clone, Copy)]
pub enum ProxSpec<'a> {
    /// Plain ℓ1: `λ‖α‖₁`.
    L1,
    /// Group ℓ1 over contiguous groups: `λ·Σ_g √|g|·‖α_g‖₂` (sizes must
    /// tile `op.cols()` exactly).
    Group(&'a [usize]),
}

/// The three sums one [`fista_tail`] sweep takes on its way through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailSums<T: Real> {
    /// `‖α_{k+1} − α_k‖²` — the stop test's step size.
    pub step_sq: T,
    /// `‖α_{k+1}‖²` — the stop test's scale.
    pub norm_sq: T,
    /// `⟨y_k − α_{k+1}, α_{k+1} − α_k⟩` — positive when momentum points
    /// against the descent direction (the O'Donoghue–Candès gradient
    /// restart test).
    pub restart: T,
}

/// Everything a shrinkage iteration does after `grad = Aᴴ(A·y_k − y)`. On
/// entry `point` holds `y_k` and `alpha` holds `α_k`; on exit they hold
/// `y_{k+1}` and `α_{k+1}`. Per element, in this order:
///
/// ```text
///   u = pᵢ − step·gᵢ      s = prox(u)      d = s − αᵢ
///   Σd²   Σs²   Σ(pᵢ − s)·d      pᵢ ← s + β·d      αᵢ ← s
/// ```
///
/// `β` depends only on the iteration number, so the caller knows it
/// before the sweep; a caller that restarts on `restart > 0` overwrites
/// `point ← alpha` afterwards (which is what `β = 0` means).
///
/// [`KernelMode::Unrolled4`] does all of it in one sweep: `alpha` and
/// `point` come out `to_bits`-equal to the separate kernels run one after
/// the other, and the sums take this module's one reduction shape (for a
/// separable prox they are exactly what [`squared_distance`] and [`dot`]
/// return on the same vectors). [`KernelMode::Scalar`] runs the paper's
/// unoptimized form — one pass per operation through `scratch` (grown on
/// first use), strict left-to-right sums, the restart product from the
/// reconstructed `y_k ≈ u + step·g`.
///
/// # Panics
///
/// Panics if the slices differ in length, `threshold` is negative, or
/// group sizes do not tile the vector.
///
/// Always inlined: the solver runs its whole loop inside the CPU's widest
/// instantiation, and only code inlined into it runs at that width.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub fn fista_tail<T: Real>(
    point: &mut [T],
    grad: &[T],
    alpha: &mut [T],
    step: T,
    threshold: T,
    prox: ProxSpec<'_>,
    beta: T,
    scratch: &mut Vec<T>,
    mode: KernelMode,
) -> TailSums<T> {
    let n = point.len();
    assert_eq!(grad.len(), n, "fista_tail: length mismatch");
    assert_eq!(alpha.len(), n, "fista_tail: length mismatch");
    assert!(threshold >= T::ZERO, "fista_tail: negative threshold");
    if mode == KernelMode::Scalar {
        return tail_unfused(point, grad, alpha, step, threshold, prox, beta, scratch);
    }
    let mut acc = TailAcc::new(beta);
    match prox {
        ProxSpec::L1 => acc.separable(point, grad, alpha, step, threshold),
        ProxSpec::Group(sizes) => acc.grouped(point, grad, alpha, step, threshold, sizes),
    }
    acc.sums()
}

/// The partial sums of one fused sweep — [`LANES`] per sum for whole
/// chunks plus a serial tail, folded like every other reduction here —
/// and the part of the sweep that does not depend on the prox.
struct TailAcc<T: Real> {
    lanes: [[T; LANES]; 3],
    tail: [T; 3],
    beta: T,
}

impl<T: Real> TailAcc<T> {
    #[inline(always)]
    fn new(beta: T) -> Self {
        TailAcc { lanes: [[T::ZERO; LANES]; 3], tail: [T::ZERO; 3], beta }
    }

    /// Everything after the prox in [`fista_tail`]'s per-element order;
    /// returns the element's three terms.
    #[inline(always)]
    fn finish(&self, p: &mut T, a: &mut T, s: T) -> [T; 3] {
        let d = s - *a;
        let terms = [d * d, s * s, (*p - s) * d];
        *p = s + self.beta * d;
        *a = s;
        terms
    }

    /// Finishes one element whose terms add up serially.
    #[inline(always)]
    fn one(&mut self, p: &mut T, a: &mut T, s: T) {
        let terms = self.finish(p, a, s);
        for (sum, term) in self.tail.iter_mut().zip(terms) {
            *sum += term;
        }
    }

    /// Finishes one whole chunk, element `w` into partial sum `w`.
    #[inline(always)]
    fn chunk(&mut self, ps: &mut [T], alphas: &mut [T], s: &[T; LANES]) {
        let ps: &mut [T; LANES] = ps.try_into().expect("LANES-long chunk");
        let alphas: &mut [T; LANES] = alphas.try_into().expect("LANES-long chunk");
        for w in 0..LANES {
            let terms = self.finish(&mut ps[w], &mut alphas[w], s[w]);
            for (lanes, term) in self.lanes.iter_mut().zip(terms) {
                lanes[w] += term;
            }
        }
    }

    #[inline(always)]
    fn sums(&self) -> TailSums<T> {
        let fold = |k: usize| fold_lanes(&self.lanes[k], self.tail[k]);
        TailSums { step_sq: fold(0), norm_sq: fold(1), restart: fold(2) }
    }

    /// The sweep for the plain ℓ1 prox: soft threshold at `t`, whole
    /// chunks first, leftovers one by one.
    #[inline(always)]
    fn separable(&mut self, point: &mut [T], grad: &[T], alpha: &mut [T], step: T, t: T) {
        let body = point.len() - point.len() % LANES;
        let shrunk = |p: T, g: T| soft_one_branchless(p - step * g, t);
        for base in (0..body).step_by(LANES) {
            let (ps, gs) = (&mut point[base..base + LANES], &grad[base..base + LANES]);
            let mut s = [T::ZERO; LANES];
            for (w, s) in s.iter_mut().enumerate() {
                *s = shrunk(ps[w], gs[w]);
            }
            self.chunk(ps, &mut alpha[base..base + LANES], &s);
        }
        for i in body..point.len() {
            let s = shrunk(point[i], grad[i]);
            self.one(&mut point[i], &mut alpha[i], s);
        }
    }

    /// The sweep for the group prox: four width-4 groups at a time down
    /// the chunk path, any other group element by element through the
    /// same operations.
    #[inline(always)]
    fn grouped(&mut self, point: &mut [T], grad: &[T], alpha: &mut [T], step: T, t: T, sizes: &[usize]) {
        let tq = group_threshold(t, QUAD);
        let u = |p: T, g: T| p - step * g;
        let (mut g, mut start) = (0, 0);
        while g < sizes.len() {
            let quads = quad_block(sizes, g);
            let len = if quads { LANES } else { sizes[g] };
            assert!(len > 0 && start + len <= point.len(), "{BAD_TILING}");
            let range = start..start + len;
            let (ps, gs, alphas) = (&mut point[range.clone()], &grad[range.clone()], &mut alpha[range]);
            if quads {
                let mut s = [T::ZERO; LANES];
                for (w, s) in s.iter_mut().enumerate() {
                    *s = u(ps[w], gs[w]);
                }
                let scales = quad_scales(&quad_norms(&s), tq);
                for (w, s) in s.iter_mut().enumerate() {
                    *s *= scales[w / QUAD];
                }
                self.chunk(ps, alphas, &s);
            } else if len == 1 {
                let s = soft_one_branchless(u(ps[0], gs[0]), t);
                self.one(&mut ps[0], &mut alphas[0], s);
            } else {
                let norm_sq = if len == QUAD {
                    let mut quad = [T::ZERO; QUAD];
                    for (w, q) in quad.iter_mut().enumerate() {
                        *q = u(ps[w], gs[w]);
                    }
                    quad_norm_sq(&quad)
                } else {
                    lane_sum(ps, gs, |p, g| u(p, g) * u(p, g))
                };
                let scale = group_scale(norm_sq.sqrt(), group_threshold(t, len));
                for ((p, &g), a) in ps.iter_mut().zip(gs).zip(alphas) {
                    let s = u(*p, g) * scale;
                    self.one(p, a, s);
                }
            }
            g += if quads { LANES / QUAD } else { 1 };
            start += len;
        }
        assert_eq!(start, point.len(), "{BAD_TILING}");
    }
}

/// [`fista_tail`] as the paper's unoptimized decoder runs it: the scalar
/// kernels one after the other, `α_{k+1}` staged in `scratch`.
#[allow(clippy::too_many_arguments)]
fn tail_unfused<T: Real>(
    point: &mut [T],
    grad: &[T],
    alpha: &mut [T],
    step: T,
    threshold: T,
    prox: ProxSpec<'_>,
    beta: T,
    scratch: &mut Vec<T>,
) -> TailSums<T> {
    let mode = KernelMode::Scalar;
    let n = point.len();
    let groups = match prox {
        ProxSpec::Group(sizes) => sizes.len(),
        _ => 0,
    };
    // Stale contents are fine: the prox overwrites all of `next`, and
    // nothing reads `norms`.
    scratch.resize(n + groups, T::ZERO);
    let (next, norms) = scratch.split_at_mut(n);
    for (p, &g) in point.iter_mut().zip(grad) {
        *p -= step * g;
    }
    match prox {
        ProxSpec::L1 => soft_threshold(point, threshold, next, mode),
        ProxSpec::Group(sizes) => group_soft_threshold(point, threshold, sizes, norms, next, mode),
    }
    let mut restart = T::ZERO;
    for ((&u, &g), (&s, &a)) in point.iter().zip(grad).zip(next.iter().zip(alpha.iter())) {
        restart += (u + step * g - s) * (s - a);
    }
    let sums = TailSums {
        step_sq: squared_distance(next, alpha, mode),
        norm_sq: dot(next, next, mode),
        restart,
    };
    momentum_combine(next, alpha, beta, point, mode);
    alpha.copy_from_slice(next);
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_sensing::MotePrng;
    use proptest::prelude::*;

    fn vecs(n: usize) -> (Vec<f64>, Vec<f64>) {
        let a: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        (a, b)
    }

    #[test]
    fn modes_agree_on_all_kernels() {
        // Lengths chosen to exercise the leftover-peeling paths: multiples
        // of 4, plus every residue class (Fig. 3's A ∈ {1, 2, 3}).
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 512, 513] {
            let (a, b) = vecs(n);
            assert!(
                (dot(&a, &b, KernelMode::Scalar) - dot(&a, &b, KernelMode::Unrolled4)).abs()
                    < 1e-9,
                "dot n={n}"
            );
            let mut y1 = b.clone();
            let mut y2 = b.clone();
            axpy(1.5, &a, &mut y1, KernelMode::Scalar);
            axpy(1.5, &a, &mut y2, KernelMode::Unrolled4);
            assert_eq!(y1, y2, "axpy n={n}");

            let mut s1 = vec![0.0; n];
            let mut s2 = vec![0.0; n];
            soft_threshold(&a, 1.0, &mut s1, KernelMode::Scalar);
            soft_threshold(&a, 1.0, &mut s2, KernelMode::Unrolled4);
            assert_eq!(s1, s2, "soft n={n}");

            let mut m1 = vec![0.0; n];
            let mut m2 = vec![0.0; n];
            momentum_combine(&a, &b, 0.7, &mut m1, KernelMode::Scalar);
            momentum_combine(&a, &b, 0.7, &mut m2, KernelMode::Unrolled4);
            for (u, v) in m1.iter().zip(&m2) {
                assert!((u - v).abs() < 1e-12, "momentum n={n}");
            }

            assert!(
                (squared_distance(&a, &b, KernelMode::Scalar)
                    - squared_distance(&a, &b, KernelMode::Unrolled4))
                .abs()
                    < 1e-9,
                "sqdist n={n}"
            );
        }
    }

    #[test]
    fn soft_threshold_semantics() {
        let u = [3.0_f64, -3.0, 0.5, -0.5, 0.0, 1.0];
        let mut out = [0.0; 6];
        soft_threshold(&u, 1.0, &mut out, KernelMode::Unrolled4);
        assert_eq!(out, [2.0, -2.0, 0.0, -0.0, 0.0, 0.0]);
        // Exact-threshold input maps to zero.
        let mut o2 = [0.0; 6];
        soft_threshold(&u, 3.0, &mut o2, KernelMode::Scalar);
        assert!(o2.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn soft_threshold_is_prox_of_l1() {
        // prox property: v = soft(u, t) minimizes ½(x−u)² + t|x|, so for a
        // few candidate x the objective at v must be no larger.
        let t = 0.8;
        for &u in &[-2.3_f64, -0.4, 0.0, 0.9, 5.0] {
            let mut v = [0.0];
            soft_threshold(&[u], t, &mut v, KernelMode::Unrolled4);
            let obj = |x: f64| 0.5 * (x - u) * (x - u) + t * x.abs();
            for x in [-3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0, u, v[0]] {
                assert!(obj(v[0]) <= obj(x) + 1e-12, "u={u}, v={}, x={x}", v[0]);
            }
        }
    }

    #[test]
    fn group_threshold_modes_agree() {
        for (n, sizes) in [
            (12, vec![4usize, 4, 4]),
            (13, vec![1, 4, 3, 5]),
            (16, vec![16]),
            (7, vec![1, 1, 1, 1, 1, 1, 1]),
        ] {
            let u: Vec<f64> = (0..n).map(|i| ((i * 5 % 11) as f64) - 5.0).collect();
            let mut norms = vec![0.0; sizes.len()];
            let mut a = vec![0.0; n];
            let mut b = vec![0.0; n];
            group_soft_threshold(&u, 0.7, &sizes, &mut norms, &mut a, KernelMode::Scalar);
            group_soft_threshold(&u, 0.7, &sizes, &mut norms, &mut b, KernelMode::Unrolled4);
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-12, "n={n}");
            }
        }
    }

    #[test]
    fn singleton_groups_are_bitwise_plain_soft_threshold() {
        let u: Vec<f64> = (0..41).map(|i| (i as f64 * 0.61).sin() * 3.0).collect();
        let sizes = vec![1usize; 41];
        let mut norms = vec![0.0; 41];
        for mode in [KernelMode::Scalar, KernelMode::Unrolled4] {
            let mut g = vec![0.0; 41];
            let mut p = vec![0.0; 41];
            group_soft_threshold(&u, 1.3, &sizes, &mut norms, &mut g, mode);
            soft_threshold(&u, 1.3, &mut p, mode);
            for (x, y) in g.iter().zip(&p) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn group_threshold_is_prox_of_group_norm() {
        // prox property per group: v minimizes ½‖x−u‖² + t·√|g|·‖x‖₂, so a
        // handful of candidate scalings of u (the minimizer is collinear
        // with u) must not beat it.
        let u = [3.0_f64, -1.0, 2.0, 0.5];
        let t = 0.9;
        let mut norms = [0.0];
        let mut v = [0.0; 4];
        group_soft_threshold(&u, t, &[4], &mut norms, &mut v, KernelMode::Unrolled4);
        let tg = t * 2.0; // √4
        let obj = |x: &[f64]| {
            let d: f64 = x.iter().zip(&u).map(|(a, b)| (a - b) * (a - b)).sum();
            let nx: f64 = x.iter().map(|a| a * a).sum::<f64>().sqrt();
            0.5 * d + tg * nx
        };
        for s in [-0.5, 0.0, 0.3, 0.7, 1.0, 1.5] {
            let cand: Vec<f64> = u.iter().map(|&x| x * s).collect();
            assert!(obj(&v) <= obj(&cand) + 1e-12, "s={s}");
        }
    }

    #[test]
    fn group_threshold_kills_small_groups_and_keeps_large() {
        let u = [0.1_f64, -0.1, 10.0, -8.0];
        let mut norms = [0.0, 0.0];
        let mut out = [0.0; 4];
        group_soft_threshold(&u, 1.0, &[2, 2], &mut norms, &mut out, KernelMode::Scalar);
        // ‖(0.1,−0.1)‖ ≈ 0.14 < √2 ⇒ group zeroed.
        assert_eq!(&out[..2], &[0.0, -0.0]);
        // Large group survives with direction preserved.
        assert!(out[2] > 0.0 && out[3] < 0.0);
        assert!((out[2] / out[3] - u[2] / u[3]).abs() < 1e-12);
    }

    #[test]
    fn group_threshold_zero_group_stays_zero_even_at_zero_threshold() {
        let u = [0.0_f64, 0.0, 0.0];
        let mut norms = [0.0];
        let mut out = [1.0; 3];
        group_soft_threshold(&u, 0.0, &[3], &mut norms, &mut out, KernelMode::Unrolled4);
        assert_eq!(out, [0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "group sizes do not tile")]
    fn group_threshold_bad_partition_panics() {
        let mut norms = [0.0];
        let mut out = [0.0_f64; 4];
        group_soft_threshold(&[1.0; 4], 0.5, &[3], &mut norms, &mut out, KernelMode::Scalar);
    }

    #[test]
    fn momentum_zero_beta_is_identity() {
        let (a, b) = vecs(17);
        let mut out = vec![0.0; 17];
        momentum_combine(&a, &b, 0.0, &mut out, KernelMode::Unrolled4);
        assert_eq!(out, a);
    }

    #[test]
    #[should_panic(expected = "negative threshold")]
    fn negative_threshold_panics() {
        let mut out = [0.0_f64];
        soft_threshold(&[1.0], -0.1, &mut out, KernelMode::Scalar);
    }

    /// Seeded values of moderate size with signed zeros always among them.
    fn values<T: Real>(len: usize, rng: &mut MotePrng) -> Vec<T> {
        (0..len)
            .map(|_| match rng.next_below(8) {
                0 => T::ZERO,
                1 => -T::ZERO,
                _ => T::from_f64(rng.next_gaussian() * 30.0),
            })
            .collect()
    }

    /// `Σ termᵢ` and `Σ |termᵢ|` in `f64` with Neumaier compensation — for
    /// `f32` inputs the products are exact there, for `f64` the
    /// compensation keeps the reference well inside the bound. A
    /// non-finite sum is returned as the plain sum (whose NaN / ±inf does
    /// not depend on the order).
    fn reference_sum(terms: impl Iterator<Item = f64>) -> (f64, f64) {
        let (mut sum, mut comp, mut abs) = (0.0_f64, 0.0_f64, 0.0_f64);
        for t in terms {
            let next = sum + t;
            comp += if sum.abs() >= t.abs() { (sum - next) + t } else { (t - next) + sum };
            sum = next;
            abs += t.abs();
        }
        (if sum.is_finite() { sum + comp } else { sum }, abs)
    }

    /// The lane reduction behind `dot` and `squared_distance` against the
    /// reference, within `(n + 2)·ε·Σ|termᵢ|`; non-finite inputs must come
    /// out the way the reference says (NaN as NaN, ±inf as itself).
    fn check_reduction<T: Real>(len: usize, seed: u64, poison: Option<f64>) -> Result<(), TestCaseError> {
        let mut rng = MotePrng::new(seed);
        let (mut a, b) = (values::<T>(len, &mut rng), values::<T>(len, &mut rng));
        if let (Some(v), true) = (poison, len > 0) {
            a[rng.next_below(len as u32) as usize] = T::from_f64(v);
        }
        let wide = |v: &[T]| v.iter().map(|x| x.to_f64()).collect::<Vec<_>>();
        let (a64, b64) = (wide(&a), wide(&b));
        let cases = [
            (dot(&a, &b, KernelMode::Unrolled4), reference_sum(a64.iter().zip(&b64).map(|(x, y)| x * y))),
            (
                squared_distance(&a, &b, KernelMode::Unrolled4),
                reference_sum(a64.iter().zip(&b64).map(|(x, y)| (x - y) * (x - y))),
            ),
        ];
        for (got, (expect, abs)) in cases {
            let got = got.to_f64();
            if expect.is_finite() {
                let bound = (len + 2) as f64 * T::EPSILON.to_f64() * abs;
                prop_assert!((got - expect).abs() <= bound, "n={len}: {got} vs {expect} (bound {bound})");
            } else {
                prop_assert!(got == expect || (got.is_nan() && expect.is_nan()), "n={len}: {got} vs {expect}");
            }
        }
        Ok(())
    }

    #[test]
    fn lane_reduction_matches_reference_at_every_length() {
        // Every length from empty to past 64 whole chunks: each residue
        // mod 16 many times over, with and without leftovers.
        for len in 0..=1030 {
            check_reduction::<f32>(len, len as u64 + 1, None).unwrap();
            check_reduction::<f64>(len, len as u64 + 1, None).unwrap();
        }
    }

    /// The separate optimized kernels one after the other — the sequence
    /// `fista_tail` fuses. Returns `(alpha, point)`.
    fn separate_kernels<T: Real>(
        point: &[T],
        grad: &[T],
        alpha: &[T],
        step: T,
        t: T,
        prox: ProxSpec<'_>,
        beta: T,
    ) -> (Vec<T>, Vec<T>) {
        let mode = KernelMode::Unrolled4;
        let n = point.len();
        let u: Vec<T> = point.iter().zip(grad).map(|(&p, &g)| p - step * g).collect();
        let mut s = vec![T::ZERO; n];
        match prox {
            ProxSpec::L1 => soft_threshold(&u, t, &mut s, mode),
            ProxSpec::Group(sizes) => {
                group_soft_threshold(&u, t, sizes, &mut vec![T::ZERO; sizes.len()], &mut s, mode)
            }
        }
        let mut next_point = vec![T::ZERO; n];
        momentum_combine(&s, alpha, beta, &mut next_point, mode);
        (s, next_point)
    }

    fn bits<T: Real>(v: &[T]) -> Vec<u64> {
        v.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    /// A random contiguous partition of `n`: runs of width-4 groups (whole
    /// quad blocks and stragglers), singletons and odd widths.
    fn partition(n: usize, rng: &mut MotePrng) -> Vec<usize> {
        let mut sizes = Vec::new();
        let mut left = n;
        while left > 0 {
            let (len, repeat) = match rng.next_below(4) {
                0 => (1, 1 + rng.next_below(5) as usize),
                1 => (4, 1 + rng.next_below(9) as usize),
                2 => (4, 1),
                _ => (1 + rng.next_below(21) as usize, 1),
            };
            for _ in 0..repeat {
                let len = len.min(left);
                if len > 0 {
                    sizes.push(len);
                    left -= len;
                }
            }
        }
        sizes
    }

    /// One fused sweep against the unfused sequence (bitwise on `alpha`
    /// and `point`), its sums against the standalone reductions, and the
    /// scalar arm against both within rounding.
    fn check_fused_tail<T: Real>(n: usize, seed: u64, which: u32, t: f64, beta: f64) -> Result<(), TestCaseError> {
        let mut rng = MotePrng::new(seed);
        let (mut point, mut grad, alpha) =
            (values::<T>(n, &mut rng), values::<T>(n, &mut rng), values::<T>(n, &mut rng));
        let sizes = partition(n, &mut rng);
        // Zero out whole groups of the gradient step: `tg / 0`.
        let mut start = 0;
        for &len in &sizes {
            if rng.next_below(5) == 0 {
                point[start..start + len].fill(T::ZERO);
                grad[start..start + len].fill(-T::ZERO);
            }
            start += len;
        }
        let prox = if which == 0 { ProxSpec::L1 } else { ProxSpec::Group(&sizes) };
        let (step, t, beta) = (T::from_f64(0.37), T::from_f64(t), T::from_f64(beta));

        let (want_alpha, want_point) = separate_kernels(&point, &grad, &alpha, step, t, prox, beta);
        let (mut got_point, mut got_alpha, mut scratch) = (point.clone(), alpha.clone(), Vec::new());
        let sums =
            fista_tail(&mut got_point, &grad, &mut got_alpha, step, t, prox, beta, &mut scratch, KernelMode::Unrolled4);
        prop_assert_eq!(bits(&got_alpha), bits(&want_alpha), "alpha, prox {}", which);
        prop_assert_eq!(bits(&got_point), bits(&want_point), "point, prox {}", which);
        prop_assert!(scratch.is_empty(), "the fused sweep stages nothing");
        if beta == T::ZERO {
            // β = 0 is `point ← alpha` (up to the sign of a zero, which is
            // why a restart copies instead of sweeping again).
            prop_assert!(got_point == got_alpha);
        }

        let step_sq = squared_distance(&want_alpha, &alpha, KernelMode::Unrolled4);
        let norm_sq = dot(&want_alpha, &want_alpha, KernelMode::Unrolled4);
        if which == 0 {
            // A separable prox sums in exactly the standalone order.
            prop_assert_eq!(sums.step_sq.to_f64().to_bits(), step_sq.to_f64().to_bits());
            prop_assert_eq!(sums.norm_sq.to_f64().to_bits(), norm_sq.to_f64().to_bits());
        }
        let (restart, restart_abs) = reference_sum(
            point.iter().zip(&want_alpha).zip(&alpha).map(|((&p, &s), &a)| ((p - s) * (s - a)).to_f64()),
        );
        let eps = (n + 2) as f64 * T::EPSILON.to_f64();
        let close = |got: T, want: f64, abs: f64| (got.to_f64() - want).abs() <= eps * abs;
        prop_assert!(close(sums.step_sq, step_sq.to_f64(), step_sq.to_f64()));
        prop_assert!(close(sums.norm_sq, norm_sq.to_f64(), norm_sq.to_f64()));
        prop_assert!(close(sums.restart, restart, restart_abs), "restart {} vs {}", sums.restart, restart);

        // The scalar arm: same element-wise values except where a group
        // norm was summed in another order, strict sums, and the restart
        // product from the reconstructed extrapolation point.
        let (mut ref_point, mut ref_alpha) = (point.clone(), alpha.clone());
        let ref_sums =
            fista_tail(&mut ref_point, &grad, &mut ref_alpha, step, t, prox, beta, &mut scratch, KernelMode::Scalar);
        let tol = T::from_f64(64.0) * T::EPSILON;
        for (got, want) in got_alpha.iter().zip(&ref_alpha).chain(got_point.iter().zip(&ref_point)) {
            prop_assert!((*got - *want).abs() <= tol * (T::ONE + want.abs()), "{} vs {}", got, want);
        }
        let loose = 16.0 * eps;
        prop_assert!((sums.step_sq - ref_sums.step_sq).to_f64().abs() <= loose * (1.0 + step_sq.to_f64()));
        prop_assert!((sums.norm_sq - ref_sums.norm_sq).to_f64().abs() <= loose * (1.0 + norm_sq.to_f64()));
        prop_assert!((sums.restart - ref_sums.restart).to_f64().abs() <= loose * (1.0 + restart_abs));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn prop_lane_reduction_matches_reference(
            len in 0_usize..=1030,
            seed in any::<u64>(),
            poison in prop_oneof![
                Just(None),
                Just(Some(f64::NAN)),
                Just(Some(f64::INFINITY)),
                Just(Some(f64::NEG_INFINITY)),
            ],
        ) {
            check_reduction::<f32>(len, seed, poison)?;
            check_reduction::<f64>(len, seed, poison)?;
        }

        #[test]
        fn prop_fused_tail_is_the_unfused_sequence(
            n in 0_usize..=150,
            seed in any::<u64>(),
            which in 0_u32..2,
            t in -8.0_f64..40.0,
            beta in -0.25_f64..1.0,
        ) {
            // The negative fifth of each range clamps to exactly zero.
            let (t, beta) = (t.max(0.0), beta.max(0.0));
            check_fused_tail::<f32>(n, seed, which, t, beta)?;
            check_fused_tail::<f64>(n, seed, which, t, beta)?;
        }
    }

    proptest! {
        #[test]
        fn prop_dot_matches_reference(
            a in proptest::collection::vec(-10.0_f64..10.0, 1..100),
            mode in prop_oneof![Just(KernelMode::Scalar), Just(KernelMode::Unrolled4)],
        ) {
            let b: Vec<f64> = a.iter().map(|v| v * 0.5 - 1.0).collect();
            let reference: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            prop_assert!((dot(&a, &b, mode) - reference).abs() < 1e-9);
        }

        #[test]
        fn prop_soft_threshold_shrinks(u in -100.0_f64..100.0, t in 0.0_f64..10.0) {
            let mut out = [0.0];
            soft_threshold(&[u], t, &mut out, KernelMode::Unrolled4);
            prop_assert!(out[0].abs() <= u.abs());
            prop_assert!(out[0] * u >= 0.0); // sign preserved or zero
            prop_assert!((u.abs() - out[0].abs() - t.min(u.abs())).abs() < 1e-12);
        }
    }
}
