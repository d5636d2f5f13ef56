//! Periodized multi-level orthonormal discrete wavelet transform.
//!
//! The transform here is the sparsifying basis Ψ of the CS-ECG system: the
//! analysis direction maps a 2-second ECG packet `x ∈ ℝᴺ` to its wavelet
//! coefficient vector `α = Ψᴴx`, and the synthesis direction is the exact
//! inverse (and, because the basis is orthonormal, also the adjoint). Both
//! are computed matrix-free in `O(N·L)` per level — never as a dense `N×N`
//! product — which is what makes the paper's matrix-free FISTA operator
//! practical (contribution 1 of the paper).
//!
//! Periodization (circular convolution) keeps the transform square and
//! exactly orthonormal for any signal length divisible by `2^levels` whose
//! per-level input stays at least one filter length long.

use super::dispatch::{self, Isa};
use super::family::Wavelet;
use crate::error::DspError;
use crate::real::Real;
use std::ops::Range;

/// A planned periodized DWT for a fixed signal length, wavelet and depth.
///
/// The plan pre-converts the filter bank to the target precision `T` so the
/// hot loops contain no `f64 → f32` conversions (mirroring the paper's
/// all-`float` iPhone decoder).
///
/// Coefficient layout produced by [`Dwt::analyze`] (standard pyramid order):
/// `[ a_J | d_J | d_{J-1} | … | d_1 ]` where `a_J` has `n / 2^J` entries and
/// `d_ℓ` has `n / 2^ℓ` entries.
///
/// # Examples
///
/// ```
/// use cs_dsp::wavelet::{Dwt, Wavelet};
///
/// let wavelet = Wavelet::daubechies(4)?;
/// let dwt: Dwt<f64> = Dwt::new(&wavelet, 512, 5)?;
/// let x: Vec<f64> = (0..512).map(|i| (i as f64 * 0.1).sin()).collect();
/// let coeffs = dwt.analyze(&x);
/// let back = dwt.synthesize(&coeffs);
/// let err: f64 = x.iter().zip(&back).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
/// assert!(err < 1e-10);
/// # Ok::<(), cs_dsp::DspError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Dwt<T: Real> {
    dec_lo: Vec<T>,
    dec_hi: Vec<T>,
    n: usize,
    levels: usize,
    /// Which instantiation of the level kernels this CPU runs, detected
    /// once per plan.
    isa: Isa,
}

impl<T: Real> Dwt<T> {
    /// Plans a transform of depth `levels` for signals of length `n`.
    ///
    /// # Errors
    ///
    /// * [`DspError::InvalidLength`] if `n` is zero or not divisible by
    ///   `2^levels`.
    /// * [`DspError::InvalidLevel`] if `levels` is zero or any level's input
    ///   would be shorter than the wavelet filter (which would break exact
    ///   orthonormality of the periodized transform).
    pub fn new(wavelet: &Wavelet, n: usize, levels: usize) -> Result<Self, DspError> {
        if levels == 0 {
            return Err(DspError::InvalidLevel {
                requested: levels,
                max: wavelet.max_level(n),
            });
        }
        if n == 0 || !n.is_multiple_of(1 << levels) {
            return Err(DspError::InvalidLength {
                len: n,
                requirement: format!("divisible by 2^{levels}"),
            });
        }
        if levels > wavelet.max_level(n) {
            return Err(DspError::InvalidLevel {
                requested: levels,
                max: wavelet.max_level(n),
            });
        }
        let conv = |f: &[f64]| f.iter().map(|&v| T::from_f64(v)).collect();
        Ok(Dwt {
            dec_lo: conv(wavelet.dec_lo()),
            dec_hi: conv(wavelet.dec_hi()),
            n,
            levels,
            isa: Isa::detect(),
        })
    }

    /// Signal length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`; a plan has positive length by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Decomposition depth.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The index ranges of each subband in the coefficient vector, coarsest
    /// first: `[a_J, d_J, d_{J-1}, …, d_1]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use cs_dsp::wavelet::{Dwt, Wavelet};
    /// let dwt: Dwt<f64> = Dwt::new(&Wavelet::haar(), 16, 2)?;
    /// let bands = dwt.subband_ranges();
    /// assert_eq!(bands, vec![0..4, 4..8, 8..16]);
    /// # Ok::<(), cs_dsp::DspError>(())
    /// ```
    pub fn subband_ranges(&self) -> Vec<Range<usize>> {
        let mut out = Vec::with_capacity(self.levels + 1);
        let coarsest = self.n >> self.levels;
        out.push(0..coarsest);
        let mut lo = coarsest;
        for level in (1..=self.levels).rev() {
            let width = self.n >> level;
            out.push(lo..lo + width);
            lo += width;
        }
        out
    }

    /// Analysis transform `α = Ψᴴ x` into a caller-provided buffer, using
    /// caller-provided scratch — the allocation-free hot-path variant.
    /// `scratch` must be at least `self.len()` long; its contents on entry
    /// are irrelevant and on exit are unspecified. One scratch buffer can
    /// serve every analysis and synthesis of a whole solve.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `coeffs` is not exactly `self.len()` long, or
    /// `scratch` is shorter.
    pub fn analyze_scratch(&self, x: &[T], coeffs: &mut [T], scratch: &mut [T]) {
        assert_eq!(x.len(), self.n, "analyze_scratch: input length mismatch");
        assert_eq!(coeffs.len(), self.n, "analyze_scratch: output length mismatch");
        assert!(scratch.len() >= self.n, "analyze_scratch: scratch too short");
        analyze_levels(self.isa, x, coeffs, scratch, &self.dec_lo, &self.dec_hi, self.levels);
    }

    /// Analysis transform `α = Ψᴴ x` into a caller-provided buffer.
    ///
    /// Allocates one internal scratch buffer; use
    /// [`Dwt::analyze_scratch`] to reuse scratch across calls.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `coeffs` is not exactly `self.len()` long.
    pub fn analyze_into(&self, x: &[T], coeffs: &mut [T]) {
        let mut scratch = vec![T::ZERO; self.n];
        self.analyze_scratch(x, coeffs, &mut scratch);
    }

    /// Analysis transform `α = Ψᴴ x`, allocating the output.
    pub fn analyze(&self, x: &[T]) -> Vec<T> {
        let mut out = vec![T::ZERO; self.n];
        self.analyze_into(x, &mut out);
        out
    }

    /// Synthesis transform `x = Ψ α` into a caller-provided buffer, using
    /// caller-provided scratch — the allocation-free hot-path variant.
    /// `scratch` must be at least `self.len()` long; its contents on entry
    /// are irrelevant and on exit are unspecified.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` or `x` is not exactly `self.len()` long, or
    /// `scratch` is shorter.
    pub fn synthesize_scratch(&self, coeffs: &[T], x: &mut [T], scratch: &mut [T]) {
        assert_eq!(coeffs.len(), self.n, "synthesize_scratch: input length mismatch");
        assert_eq!(x.len(), self.n, "synthesize_scratch: output length mismatch");
        assert!(scratch.len() >= self.n, "synthesize_scratch: scratch too short");
        synthesize_levels(self.isa, coeffs, x, scratch, &self.dec_lo, &self.dec_hi, self.levels);
    }

    /// Synthesis transform `x = Ψ α` into a caller-provided buffer. Because
    /// Ψ is orthonormal this is simultaneously the inverse and the adjoint
    /// of [`Dwt::analyze_into`].
    ///
    /// Allocates one internal scratch buffer; use
    /// [`Dwt::synthesize_scratch`] to reuse scratch across calls.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` or `x` is not exactly `self.len()` long.
    pub fn synthesize_into(&self, coeffs: &[T], x: &mut [T]) {
        let mut scratch = vec![T::ZERO; self.n];
        self.synthesize_scratch(coeffs, x, &mut scratch);
    }

    /// Synthesis transform `x = Ψ α`, allocating the output.
    pub fn synthesize(&self, coeffs: &[T]) -> Vec<T> {
        let mut out = vec![T::ZERO; self.n];
        self.synthesize_into(coeffs, &mut out);
        out
    }
}

// The fixed-length level kernels compute `LANES` outputs together — a
// const parameter, 8 or 16, that [`dispatch`] picks per instruction set.
// The lanes run *across outputs* (outer-loop vectorisation): each lane
// still sums its own taps in filter order, so every output keeps the exact
// floating-point operation order of the one-at-a-time forms and the
// results are bitwise equal whatever `LANES` is — only the
// instruction-level parallelism changes (`LANES` independent chains
// instead of one serial chain).

/// Most lanes any instantiation runs; bounds the wrapped-prefix buffers.
const MAX_LANES: usize = 16;

/// Analysis outputs staged per de-interleaved tile (a multiple of every
/// `LANES`); bounds the stack buffers for any level size.
pub(super) const TILE: usize = 64;

/// Longest filter with a fixed-length kernel.
const MAX_FIXED_TAPS: usize = 10;

/// Filter-length parameter selecting the dynamic-length level loops.
const DYN: usize = 0;

/// `levels` analysis levels of `x` into `coeffs` (pyramid order) — the
/// body [`dispatch`] instantiates once per instruction set. The first
/// level reads `x` itself and every detail band lands at its final
/// position in `coeffs`. Each approximation but the last is the next
/// level's input and goes to `scratch`, one after the other
/// (`n/2 + n/4 + … < n`, so `scratch` must be `x.len()` long when
/// `levels > 1`): no level ever reads what it writes, and nothing is
/// copied. Each level runs the across-output kernel for filter length
/// `L`, `LANES` outputs at a time, or the dynamic-length loop for
/// `L = DYN`.
#[inline(always)]
pub(super) fn analyze_cascade<T: Real, const L: usize, const LANES: usize>(
    x: &[T],
    coeffs: &mut [T],
    scratch: &mut [T],
    lo: &[T],
    hi: &[T],
    levels: usize,
) {
    let mut m = x.len();
    // Where this level's input starts in `scratch` (`None`: it is `x`).
    let mut input: Option<usize> = None;
    for depth in 0..levels {
        let half = m / 2;
        let next = input.map_or(0, |at| at + m);
        let (before, after) = scratch.split_at_mut(next);
        let src: &[T] = match input {
            None => x,
            Some(at) => &before[at..next],
        };
        let (approx, detail) = if depth + 1 == levels {
            coeffs[..m].split_at_mut(half)
        } else {
            (&mut after[..half], &mut coeffs[half..m])
        };
        if L == DYN {
            forward_level_dyn(src, approx, detail, lo, hi);
        } else {
            forward_level_fixed::<T, L, LANES>(src, approx, detail, lo, hi);
        }
        input = Some(next);
        m = half;
    }
}

/// Analysis cascade for any filter: dispatches on the filter length so
/// the tap loops run over a compile-time bound and unroll — the common
/// Daubechies lengths take the across-output kernel (at the width the CPU
/// offers), everything else the dynamic-length loop. Operation order per
/// output is identical, so results are bitwise-equal to the fallback.
fn analyze_levels<T: Real>(
    isa: Isa,
    x: &[T],
    coeffs: &mut [T],
    scratch: &mut [T],
    lo: &[T],
    hi: &[T],
    levels: usize,
) {
    match lo.len() {
        2 => dispatch::analyze::<T, 2>(isa, x, coeffs, scratch, lo, hi, levels),
        4 => dispatch::analyze::<T, 4>(isa, x, coeffs, scratch, lo, hi, levels),
        6 => dispatch::analyze::<T, 6>(isa, x, coeffs, scratch, lo, hi, levels),
        8 => dispatch::analyze::<T, 8>(isa, x, coeffs, scratch, lo, hi, levels),
        10 => dispatch::analyze::<T, 10>(isa, x, coeffs, scratch, lo, hi, levels),
        _ => analyze_cascade::<T, DYN, 0>(x, coeffs, scratch, lo, hi, levels),
    }
}

/// Analysis level for an even filter length `L ≤ 10`, `LANES` outputs at
/// a time.
///
/// Output `k` reads `x[(2k + j) mod m]`, a stride-2 walk around the
/// period. De-interleaving a tile of `x`'s sample pairs — read on past the
/// end of the level into its periodic extension, pair 0 onwards — into
/// their even and odd phases turns tap `j` of `LANES` consecutive outputs
/// into one contiguous read of phase `j mod 2` at offset `j / 2`, so every
/// output, the trailing `L/2 − 1` whose window wraps included, goes
/// through the one vector loop. The accumulators start at zero and add the
/// taps in order `j = 0..L` (the leading `0 +` keeps signed zeros
/// identical to the scalar form). A level shorter than one chunk computes
/// a whole chunk over the extension and keeps its `m / 2` outputs.
#[inline(always)]
fn forward_level_fixed<T: Real, const L: usize, const LANES: usize>(
    x: &[T],
    approx: &mut [T],
    detail: &mut [T],
    lo: &[T],
    hi: &[T],
) {
    let m = x.len();
    debug_assert!(m > 0 && m.is_multiple_of(2));
    debug_assert!(L.is_multiple_of(2) && L <= MAX_FIXED_TAPS);
    debug_assert!(LANES <= MAX_LANES && TILE.is_multiple_of(LANES));
    let half = m / 2;
    debug_assert!(approx.len() == half && detail.len() == half);
    let lo: &[T; L] = lo.try_into().expect("filter length mismatch");
    let hi: &[T; L] = hi.try_into().expect("filter length mismatch");

    let mut even = [T::ZERO; TILE + MAX_FIXED_TAPS / 2];
    let mut odd = [T::ZERO; TILE + MAX_FIXED_TAPS / 2];
    for t0 in (0..half).step_by(TILE) {
        // A last tile shorter than a chunk backs up to end flush with the
        // level; the overlap recomputes identical values.
        let t0 = t0.min(half.saturating_sub(LANES));
        let len = TILE.min(half - t0);
        let width = len.max(LANES);
        // Pairs `t0 ..` of the level, then the extension's from pair 0.
        let span = width + L / 2 - 1;
        let direct = span.min(half - t0);
        let inside = x[2 * t0..2 * (t0 + direct)].chunks_exact(2);
        for ((pair, e), o) in inside.zip(&mut even).zip(&mut odd) {
            *e = pair[0];
            *o = pair[1];
        }
        let wrapped = x.chunks_exact(2).cycle();
        for ((pair, e), o) in wrapped.zip(&mut even[direct..span]).zip(&mut odd[direct..span]) {
            *e = pair[0];
            *o = pair[1];
        }
        for c in (0..len).step_by(LANES) {
            // A last chunk shorter than `LANES` backs up too.
            let c = c.min(width - LANES);
            let mut a = [T::ZERO; LANES];
            let mut d = [T::ZERO; LANES];
            for j in 0..L {
                let phase = if j % 2 == 0 { &even } else { &odd };
                let src: &[T; LANES] = phase[c + j / 2..][..LANES]
                    .try_into()
                    .expect("LANES-long window");
                for w in 0..LANES {
                    a[w] += lo[j] * src[w];
                    d[w] += hi[j] * src[w];
                }
            }
            if len >= LANES {
                approx[t0 + c..][..LANES].copy_from_slice(&a);
                detail[t0 + c..][..LANES].copy_from_slice(&d);
            } else {
                approx.copy_from_slice(&a[..half]);
                detail.copy_from_slice(&d[..half]);
            }
        }
    }
}

fn forward_level_dyn<T: Real>(x: &[T], approx: &mut [T], detail: &mut [T], lo: &[T], hi: &[T]) {
    let m = x.len();
    debug_assert!(m.is_multiple_of(2));
    let half = m / 2;
    let l = lo.len();
    for k in 0..half {
        let mut a = T::ZERO;
        let mut d = T::ZERO;
        let base = 2 * k;
        if base + l <= m {
            // Fast path: no wraparound.
            for j in 0..l {
                let xv = x[base + j];
                a += lo[j] * xv;
                d += hi[j] * xv;
            }
        } else {
            for j in 0..l {
                let idx = (base + j) % m;
                let xv = x[idx];
                a += lo[j] * xv;
                d += hi[j] * xv;
            }
        }
        approx[k] = a;
        detail[k] = d;
    }
}

/// `levels` synthesis levels of `coeffs` (pyramid order) into `x` — the
/// body [`dispatch`] instantiates once per instruction set. The first
/// level reads the coarsest approximation from `coeffs` itself; each
/// level's output, the next level's approximation, alternates between `x`
/// and `scratch` (at least `x.len()` long) so that the last lands in `x`:
/// no level ever reads what it writes, and nothing is copied. Each level
/// is the exact transpose of an analysis level,
/// `out[(2k + j) mod m] += a[k]·lo[j] + d[k]·hi[j]` with the same
/// (decomposition) filters: the polyphase kernel with `P` taps per output
/// phase, `LANES` pairs at a time, or the direct scatter form for
/// `P = DYN`.
#[inline(always)]
pub(super) fn synthesize_cascade<T: Real, const P: usize, const LANES: usize>(
    coeffs: &[T],
    x: &mut [T],
    scratch: &mut [T],
    lo: &[T],
    hi: &[T],
    levels: usize,
) {
    debug_assert!(levels > 0);
    let mut m = (x.len() >> levels) * 2;
    for level in 0..levels {
        // Level `levels − 1` writes `x`, the one before it `scratch`, …
        let into_x = (levels - level) % 2 == 1;
        let (approx, out): (&[T], &mut [T]) = match (level, into_x) {
            (0, true) => (&coeffs[..m / 2], &mut x[..m]),
            (0, false) => (&coeffs[..m / 2], &mut scratch[..m]),
            (_, true) => (&scratch[..m / 2], &mut x[..m]),
            (_, false) => (&x[..m / 2], &mut scratch[..m]),
        };
        let detail = &coeffs[m / 2..m];
        if P == DYN {
            inverse_level_dyn(approx, detail, out, lo, hi);
        } else {
            inverse_level_fixed::<T, P, LANES>(approx, detail, out, lo, hi);
        }
        m *= 2;
    }
}

/// Synthesis cascade for any filter: even lengths up to 10 (every
/// Daubechies family member we plan) take the polyphase gather kernel with
/// a compile-time tap count, at the width the CPU offers; anything else
/// falls back to the direct scatter form.
fn synthesize_levels<T: Real>(
    isa: Isa,
    coeffs: &[T],
    x: &mut [T],
    scratch: &mut [T],
    lo: &[T],
    hi: &[T],
    levels: usize,
) {
    match lo.len() {
        2 => dispatch::synthesize::<T, 1>(isa, coeffs, x, scratch, lo, hi, levels),
        4 => dispatch::synthesize::<T, 2>(isa, coeffs, x, scratch, lo, hi, levels),
        6 => dispatch::synthesize::<T, 3>(isa, coeffs, x, scratch, lo, hi, levels),
        8 => dispatch::synthesize::<T, 4>(isa, coeffs, x, scratch, lo, hi, levels),
        10 => dispatch::synthesize::<T, 5>(isa, coeffs, x, scratch, lo, hi, levels),
        _ => synthesize_cascade::<T, DYN, 0>(coeffs, x, scratch, lo, hi, levels),
    }
}

/// Polyphase synthesis with `P = L/2` taps per output phase, `LANES`
/// output pairs at a time.
///
/// The scatter form (`out[(2k+j) mod m] += a[k]·lo[j] + d[k]·hi[j]`)
/// makes every iteration read-modify-write a window overlapping the
/// previous store, which serializes on store-to-load forwarding. Grouping
/// by output parity instead — `out[2t]` gathers the even taps,
/// `out[2t+1]` the odd taps, both from `a[t-p]`/`d[t-p]` — writes each
/// output exactly once and needs no zeroing pass:
/// with `j = 2p + (i mod 2)`, `(2k + j) mod m = i  ⇔  k = (t − p) mod h`.
///
/// For `LANES` consecutive `t` the reads `a[t − p ..]`/`d[t − p ..]` are
/// contiguous for every `p`, so the lanes run across outputs while each
/// output adds its taps in order `p = 0..P` ([`synthesis_chunk`]). A chunk
/// whose `t − p` goes negative — the first — reads a copy of its window
/// with the `P − 1` pairs that wrap around the period as a prefix; a level
/// shorter than one chunk takes the whole window from the periodic
/// extension and keeps its `half` pairs.
#[inline(always)]
fn inverse_level_fixed<T: Real, const P: usize, const LANES: usize>(
    approx: &[T],
    detail: &[T],
    out: &mut [T],
    lo: &[T],
    hi: &[T],
) {
    let half = approx.len();
    debug_assert_eq!(detail.len(), half);
    debug_assert_eq!(out.len(), half * 2);
    debug_assert_eq!(lo.len(), 2 * P);
    debug_assert_eq!(hi.len(), 2 * P);
    debug_assert!(LANES <= MAX_LANES);
    // Taps by output phase: row 0/1 the even/odd taps of `lo`, row 2/3
    // those of `hi`.
    let mut taps = [[T::ZERO; P]; 4];
    for p in 0..P {
        taps[0][p] = lo[2 * p];
        taps[1][p] = lo[2 * p + 1];
        taps[2][p] = hi[2 * p];
        taps[3][p] = hi[2 * p + 1];
    }

    for t0 in (0..half).step_by(LANES) {
        // A last chunk shorter than `LANES` backs up to end flush with
        // the level; the overlap recomputes identical values.
        let t0 = t0.min(half.saturating_sub(LANES));
        let window = LANES + P - 1;
        let (e, o) = if t0 + 1 >= P && t0 + LANES <= half {
            let pairs = t0 + 1 - P..t0 + LANES;
            synthesis_chunk::<T, P, LANES>(&approx[pairs.clone()], &detail[pairs], &taps)
        } else {
            // Pairs `t0 − (P − 1) ..` of the periodic extension.
            let mut a = [T::ZERO; MAX_LANES + MAX_FIXED_TAPS / 2 - 1];
            let mut d = [T::ZERO; MAX_LANES + MAX_FIXED_TAPS / 2 - 1];
            let mut k = (t0 + P * half - (P - 1)) % half;
            for (a, d) in a[..window].iter_mut().zip(&mut d[..window]) {
                *a = approx[k];
                *d = detail[k];
                k = if k + 1 == half { 0 } else { k + 1 };
            }
            synthesis_chunk::<T, P, LANES>(&a[..window], &d[..window], &taps)
        };
        // A level shorter than one chunk keeps its `half` pairs.
        let keep = if half >= LANES { LANES } else { half };
        for (pair, (e, o)) in out[2 * t0..][..2 * keep].chunks_exact_mut(2).zip(e.iter().zip(&o)) {
            pair[0] = *e;
            pair[1] = *o;
        }
    }
}

/// Output pairs `t0 .. t0 + LANES` of a synthesis level from the pairs
/// `a`/`d` = `t0 − (P − 1) .. t0 + LANES` of its bands. Each output sums
/// its taps in order `p = 0..P`, one lane per output.
#[inline(always)]
fn synthesis_chunk<T: Real, const P: usize, const LANES: usize>(
    a: &[T],
    d: &[T],
    [even, odd, heven, hodd]: &[[T; P]; 4],
) -> ([T; LANES], [T; LANES]) {
    let mut e = [T::ZERO; LANES];
    let mut o = [T::ZERO; LANES];
    for p in 0..P {
        // Output `t0 + w` reads pair `t0 + w − p`: offset `P − 1 − p`.
        let a: &[T; LANES] = a[P - 1 - p..][..LANES].try_into().expect("LANES-long window");
        let d: &[T; LANES] = d[P - 1 - p..][..LANES].try_into().expect("LANES-long window");
        for w in 0..LANES {
            e[w] += a[w] * even[p] + d[w] * heven[p];
            o[w] += a[w] * odd[p] + d[w] * hodd[p];
        }
    }
    (e, o)
}

fn inverse_level_dyn<T: Real>(approx: &[T], detail: &[T], out: &mut [T], lo: &[T], hi: &[T]) {
    let half = approx.len();
    let m = half * 2;
    debug_assert_eq!(detail.len(), half);
    debug_assert_eq!(out.len(), m);
    let l = lo.len();
    for v in out.iter_mut() {
        *v = T::ZERO;
    }
    for k in 0..half {
        let a = approx[k];
        let d = detail[k];
        let base = 2 * k;
        if base + l <= m {
            for j in 0..l {
                out[base + j] += a * lo[j] + d * hi[j];
            }
        } else {
            for j in 0..l {
                let idx = (base + j) % m;
                out[idx] += a * lo[j] + d * hi[j];
            }
        }
    }
}

/// Single-level periodized DWT of `x`, returning `(approx, detail)`.
///
/// This is the building block [`Dwt`] cascades; it is exposed for tests and
/// for callers that want manual control of the decomposition.
///
/// # Panics
///
/// Panics if `x.len()` is odd or zero.
///
/// # Examples
///
/// ```
/// use cs_dsp::wavelet::{dwt_single, Wavelet};
/// let (a, d) = dwt_single(&[1.0_f64, 1.0, 1.0, 1.0], &Wavelet::haar());
/// assert!(d.iter().all(|&v: &f64| v.abs() < 1e-12)); // constant ⇒ no detail
/// assert!(a.iter().all(|&v| (v - std::f64::consts::SQRT_2).abs() < 1e-12));
/// ```
pub fn dwt_single<T: Real>(x: &[T], wavelet: &Wavelet) -> (Vec<T>, Vec<T>) {
    assert!(!x.is_empty() && x.len().is_multiple_of(2), "dwt_single: length must be even and nonzero");
    let m = x.len();
    let lo: Vec<T> = wavelet.dec_lo().iter().map(|&v| T::from_f64(v)).collect();
    let hi: Vec<T> = wavelet.dec_hi().iter().map(|&v| T::from_f64(v)).collect();
    let mut out = vec![T::ZERO; m];
    analyze_levels(Isa::detect(), x, &mut out, &mut [], &lo, &hi, 1);
    let detail = out.split_off(m / 2);
    (out, detail)
}

/// Single-level inverse of [`dwt_single`].
///
/// # Panics
///
/// Panics if `approx` and `detail` differ in length or are empty.
pub fn idwt_single<T: Real>(approx: &[T], detail: &[T], wavelet: &Wavelet) -> Vec<T> {
    assert_eq!(approx.len(), detail.len(), "idwt_single: channel length mismatch");
    assert!(!approx.is_empty(), "idwt_single: empty input");
    let lo: Vec<T> = wavelet.dec_lo().iter().map(|&v| T::from_f64(v)).collect();
    let hi: Vec<T> = wavelet.dec_hi().iter().map(|&v| T::from_f64(v)).collect();
    let coeffs = [approx, detail].concat();
    let mut out = vec![T::ZERO; coeffs.len()];
    let mut scratch = vec![T::ZERO; coeffs.len()];
    synthesize_levels(Isa::detect(), &coeffs, &mut out, &mut scratch, &lo, &hi, 1);
    out
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::real::l2_norm;
    use proptest::prelude::*;

    fn plan(n: usize, levels: usize) -> Dwt<f64> {
        Dwt::new(&Wavelet::daubechies(4).unwrap(), n, levels).unwrap()
    }

    #[test]
    fn perfect_reconstruction_db4() {
        let dwt = plan(512, 5);
        let x: Vec<f64> = (0..512)
            .map(|i| (i as f64 * 0.05).sin() + 0.3 * (i as f64 * 0.31).cos())
            .collect();
        let c = dwt.analyze(&x);
        let y = dwt.synthesize(&c);
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let dwt = plan(256, 4);
        let x: Vec<f64> = (0..256).map(|i| ((i * i) as f64 * 0.01).sin()).collect();
        let c = dwt.analyze(&x);
        assert!((l2_norm(&x) - l2_norm(&c)).abs() < 1e-9);
    }

    #[test]
    fn adjoint_identity_holds() {
        // ⟨Ψᴴx, z⟩ = ⟨x, Ψz⟩ for arbitrary x, z.
        let dwt = plan(128, 3);
        let x: Vec<f64> = (0..128).map(|i| (i as f64).cos()).collect();
        let z: Vec<f64> = (0..128).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let ax = dwt.analyze(&x);
        let sz = dwt.synthesize(&z);
        let lhs: f64 = ax.iter().zip(&z).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&sz).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
    }

    #[test]
    fn polynomial_signals_compress() {
        // db4 has 4 vanishing moments: cubic signals produce (near-)zero
        // interior detail coefficients. Periodization introduces boundary
        // effects, so check that MOST of the finest band is ~0.
        let dwt = plan(512, 1);
        let x: Vec<f64> = (0..512)
            .map(|i| {
                let t = i as f64 / 512.0;
                1.0 + 2.0 * t + 3.0 * t * t - t * t * t
            })
            .collect();
        let c = dwt.analyze(&x);
        let detail = &c[256..];
        let small = detail.iter().filter(|v| v.abs() < 1e-8).count();
        assert!(small > 240, "only {small}/256 detail coeffs are ~0");
    }

    #[test]
    fn scratch_variants_bitwise_match_allocating() {
        let dwt = plan(512, 5);
        let x: Vec<f64> = (0..512)
            .map(|i| (i as f64 * 0.07).sin() + 0.2 * ((i * i) as f64 * 0.003).cos())
            .collect();
        let mut scratch = vec![7.5_f64; 512]; // garbage on entry is fine
        let mut coeffs = vec![0.0; 512];
        dwt.analyze_scratch(&x, &mut coeffs, &mut scratch);
        assert_eq!(coeffs, dwt.analyze(&x), "analyze_scratch diverged");
        let mut back = vec![0.0; 512];
        dwt.synthesize_scratch(&coeffs, &mut back, &mut scratch);
        assert_eq!(back, dwt.synthesize(&coeffs), "synthesize_scratch diverged");
    }

    #[test]
    #[should_panic(expected = "scratch too short")]
    fn short_scratch_panics() {
        let dwt = plan(64, 2);
        let x = vec![0.0_f64; 64];
        let mut coeffs = vec![0.0; 64];
        let mut scratch = vec![0.0; 63];
        dwt.analyze_scratch(&x, &mut coeffs, &mut scratch);
    }

    #[test]
    fn subband_ranges_partition() {
        let dwt = plan(512, 5);
        let bands = dwt.subband_ranges();
        assert_eq!(bands.len(), 6);
        assert_eq!(bands[0], 0..16);
        assert_eq!(bands[1], 16..32);
        assert_eq!(bands.last().unwrap().clone(), 256..512);
        // Contiguous cover of 0..512.
        let mut cursor = 0;
        for b in &bands {
            assert_eq!(b.start, cursor);
            cursor = b.end;
        }
        assert_eq!(cursor, 512);
    }

    #[test]
    fn f32_plan_reconstructs() {
        let dwt: Dwt<f32> = Dwt::new(&Wavelet::daubechies(4).unwrap(), 512, 5).unwrap();
        let x: Vec<f32> = (0..512).map(|i| (i as f32 * 0.1).sin()).collect();
        let y = dwt.synthesize(&dwt.analyze(&x));
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn invalid_plans_rejected() {
        let w = Wavelet::daubechies(4).unwrap();
        assert!(matches!(
            Dwt::<f64>::new(&w, 500, 3),
            Err(DspError::InvalidLength { .. })
        ));
        assert!(matches!(
            Dwt::<f64>::new(&w, 512, 0),
            Err(DspError::InvalidLevel { .. })
        ));
        assert!(matches!(
            Dwt::<f64>::new(&w, 512, 8),
            Err(DspError::InvalidLevel { .. })
        ));
    }

    #[test]
    fn single_level_round_trip() {
        let w = Wavelet::symlet(4).unwrap();
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.2).sin()).collect();
        let (a, d) = dwt_single(&x, &w);
        assert_eq!(a.len(), 32);
        let y = idwt_single(&a, &d, &w);
        for (u, v) in x.iter().zip(&y) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    /// Deterministic test data with the awkward values mixed in: signed
    /// zeros, a subnormal and an infinity among ordinary magnitudes.
    pub(in crate::wavelet) fn awkward<T: Real>(len: usize, salt: usize) -> Vec<T> {
        (0..len)
            .map(|i| match (i * 7 + salt) % 23 {
                0 => T::ZERO,
                1 => -T::ZERO,
                2 => T::MIN_POSITIVE * T::HALF,
                3 if salt % 2 == 1 => T::INFINITY,
                r => T::from_f64((r as f64 - 11.0) * 0.37 + (i as f64 * 0.61).sin()),
            })
            .collect()
    }

    /// One analysis level one output at a time — the operation order
    /// every arm of the across-output kernel reproduces lane by lane.
    pub(in crate::wavelet) fn analysis_reference<T: Real>(x: &[T], out: &mut [T], lo: &[T], hi: &[T]) {
        let (approx, detail) = out.split_at_mut(x.len() / 2);
        forward_level_dyn(x, approx, detail, lo, hi);
    }

    /// One synthesis level one output pair at a time: output pair `t`
    /// adds its taps in order `p = 0..P` from pair `(t − p) mod half` —
    /// the operation order every arm of the polyphase kernel reproduces
    /// lane by lane.
    pub(in crate::wavelet) fn synthesis_reference<T: Real>(
        approx: &[T],
        detail: &[T],
        lo: &[T],
        hi: &[T],
    ) -> Vec<T> {
        let (half, taps) = (approx.len(), lo.len() / 2);
        let mut out = vec![T::ZERO; 2 * half];
        for (t, pair) in out.chunks_exact_mut(2).enumerate() {
            for p in 0..taps {
                let k = (t + taps * half - p) % half;
                pair[0] += approx[k] * lo[2 * p] + detail[k] * hi[2 * p];
                pair[1] += approx[k] * lo[2 * p + 1] + detail[k] * hi[2 * p + 1];
            }
        }
        out
    }

    pub(in crate::wavelet) fn same_bits<T: Real>(a: &[T], b: &[T]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(u, v)| {
                u.to_f64().to_bits() == v.to_f64().to_bits() || (u.is_nan() && v.is_nan())
            })
    }

    /// The across-output kernels against the one-output-at-a-time forms,
    /// for arbitrary (not just Daubechies) taps and level sizes on both
    /// sides of every chunk and tile boundary.
    fn level_kernels_match_scalar_forms<T: Real>() {
        for l in [2, 4, 6, 8, 10] {
            let lo = awkward::<T>(l, 4);
            let hi = awkward::<T>(l, 10);
            for m in [l, l + 2, 14, 16, 18, 22, 30, 34, 62, 70, 126, 130, 142, 256, 1000, 1024] {
                if m < l {
                    continue;
                }
                for salt in [0, 1] {
                    let x = awkward::<T>(m, salt);
                    let mut fast = vec![T::ONE; m];
                    let mut slow = vec![T::ONE; m];
                    let mut scratch = vec![T::ONE; m];
                    let isa = Isa::detect();
                    analyze_levels(isa, &x, &mut fast, &mut scratch, &lo, &hi, 1);
                    analysis_reference(&x, &mut slow, &lo, &hi);
                    assert!(same_bits(&fast, &slow), "analysis L={l} m={m} salt={salt}");

                    let (approx, detail) = x.split_at(m / 2);
                    synthesize_levels(isa, &x, &mut fast, &mut scratch, &lo, &hi, 1);
                    // Same sum per output, but the scatter form adds the
                    // taps in the opposite order: equal only to rounding.
                    inverse_level_dyn(approx, detail, &mut slow, &lo, &hi);
                    if salt == 0 {
                        for (i, (u, v)) in fast.iter().zip(&slow).enumerate() {
                            let tol = T::from_f64(1e-4) * (T::ONE + v.abs());
                            assert!((*u - *v).abs() <= tol, "synthesis L={l} m={m} [{i}]: {u} vs {v}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn level_kernels_match_scalar_forms_f32() {
        level_kernels_match_scalar_forms::<f32>();
    }

    #[test]
    fn level_kernels_match_scalar_forms_f64() {
        level_kernels_match_scalar_forms::<f64>();
    }

    #[test]
    fn level_shorter_than_the_filter_round_trips() {
        let w = Wavelet::daubechies(5).unwrap();
        for m in [2, 4, 6, 8] {
            let x: Vec<f64> = (0..m).map(|i| (i as f64 * 0.9).cos() + 0.25).collect();
            let (a, d) = dwt_single(&x, &w);
            let y = idwt_single(&a, &d, &w);
            for (u, v) in x.iter().zip(&y) {
                assert!((u - v).abs() < 1e-10, "m={m}: {u} vs {v}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_perfect_reconstruction(
            seed in any::<u64>(),
            levels in 1_usize..6,
        ) {
            let n = 256;
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as f64 / u64::MAX as f64) * 4.0 - 2.0
            };
            let x: Vec<f64> = (0..n).map(|_| next()).collect();
            let dwt = plan(n, levels);
            let y = dwt.synthesize(&dwt.analyze(&x));
            for (a, b) in x.iter().zip(&y) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_linearity(scale in -3.0_f64..3.0) {
            let n = 128;
            let dwt = plan(n, 3);
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
            let scaled: Vec<f64> = x.iter().map(|v| v * scale).collect();
            let cx = dwt.analyze(&x);
            let cs = dwt.analyze(&scaled);
            for (a, b) in cx.iter().zip(&cs) {
                prop_assert!((a * scale - b).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_parseval_all_wavelets(order in 1_usize..=10) {
            let w = Wavelet::daubechies(order).unwrap();
            let n = 256;
            let levels = w.max_level(n).min(3);
            let dwt: Dwt<f64> = Dwt::new(&w, n, levels).unwrap();
            let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.17).sin()).collect();
            let c = dwt.analyze(&x);
            prop_assert!((l2_norm(&x) - l2_norm(&c)).abs() < 1e-8);
        }
    }
}
