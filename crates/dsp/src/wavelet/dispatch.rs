//! The level kernels at the vector width the CPU offers — the only module
//! of this crate that contains `unsafe`.
//!
//! The across-output kernels in [`transform`](super::transform) are
//! written eight outputs per chunk, but a baseline x86-64 build (SSE2)
//! compiles each chunk as two 4-lane halves. This module instantiates the
//! *same* `#[inline(always)]` generic bodies a second time inside
//! `#[target_feature(enable = "avx2")]` functions, where a chunk is one
//! 8-lane vector, and picks between the two from a runtime CPU check made
//! once per [`Dwt`](super::Dwt) plan. `fma` is deliberately not enabled and
//! Rust never contracts `a * b + c` on its own, so both instantiations
//! perform the same IEEE operations in the same order and their outputs
//! are bit-identical — there is nothing to configure and results do not
//! depend on the host.
//!
//! A whole multi-level cascade runs inside one wide function, so the
//! SSE ↔ AVX state transition is paid once per transform, not per level.
//! There are no intrinsics and no raw pointers here: the only `unsafe`
//! operation is calling a `#[target_feature]` function, and its one
//! requirement — the CPU has the feature — is what [`Isa`] witnesses.

use super::transform::{analyze_cascade, synthesize_cascade};
use crate::real::Real;

/// Which instantiation of the level kernels to run. The field is private
/// and [`Isa::detect`] is the only constructor, so `avx2 == true` proves
/// that `is_x86_feature_detected!("avx2")` returned `true` on this CPU —
/// the `// SAFETY:` comments below rely on exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Isa {
    avx2: bool,
}

impl Isa {
    /// Asks the CPU. (The standard library caches the `cpuid` answer.)
    pub(super) fn detect() -> Self {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        let avx2 = false;
        Isa { avx2 }
    }
}

/// `levels` analysis levels with the length-`L` across-output kernel; see
/// [`analyze_cascade`].
pub(super) fn analyze<T: Real, const L: usize>(
    isa: Isa,
    x: &[T],
    coeffs: &mut [T],
    scratch: &mut [T],
    lo: &[T],
    hi: &[T],
    levels: usize,
) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if isa.avx2 {
        // SAFETY: `isa.avx2` is only ever set by `Isa::detect`, from
        // `is_x86_feature_detected!("avx2")`, so this CPU supports the
        // one feature `analyze_avx2` enables.
        return unsafe { analyze_avx2::<T, L>(x, coeffs, scratch, lo, hi, levels) };
    }
    let _ = isa;
    analyze_cascade::<T, L>(x, coeffs, scratch, lo, hi, levels);
}

/// `levels` synthesis levels with the `P`-taps-per-phase polyphase kernel;
/// see [`synthesize_cascade`].
pub(super) fn synthesize<T: Real, const P: usize>(
    isa: Isa,
    coeffs: &[T],
    x: &mut [T],
    scratch: &mut [T],
    lo: &[T],
    hi: &[T],
    levels: usize,
) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if isa.avx2 {
        // SAFETY: `isa.avx2` is only ever set by `Isa::detect`, from
        // `is_x86_feature_detected!("avx2")`, so this CPU supports the
        // one feature `synthesize_avx2` enables.
        return unsafe { synthesize_avx2::<T, P>(coeffs, x, scratch, lo, hi, levels) };
    }
    let _ = isa;
    synthesize_cascade::<T, P>(coeffs, x, scratch, lo, hi, levels);
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn analyze_avx2<T: Real, const L: usize>(
    x: &[T],
    coeffs: &mut [T],
    scratch: &mut [T],
    lo: &[T],
    hi: &[T],
    levels: usize,
) {
    analyze_cascade::<T, L>(x, coeffs, scratch, lo, hi, levels);
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn synthesize_avx2<T: Real, const P: usize>(
    coeffs: &[T],
    x: &mut [T],
    scratch: &mut [T],
    lo: &[T],
    hi: &[T],
    levels: usize,
) {
    synthesize_cascade::<T, P>(coeffs, x, scratch, lo, hi, levels);
}

#[cfg(test)]
mod tests {
    use super::super::transform::tests::{awkward, same_bits};
    use super::*;

    /// Both instantiations of one fixed-length kernel pair, called
    /// directly (one level, so the cascade is exactly one kernel call),
    /// for arbitrary taps and level sizes on both sides of every chunk and
    /// tile boundary.
    fn instantiations_agree<T: Real, const L: usize, const P: usize>() {
        let wide = Isa::detect();
        if !wide.avx2 {
            eprintln!("no AVX2 on this CPU: only the baseline instantiation exists here");
            return;
        }
        let narrow = Isa { avx2: false };
        let lo = awkward::<T>(L, 4);
        let hi = awkward::<T>(L, 10);
        for m in [
            L,
            L + 2,
            14,
            16,
            18,
            22,
            30,
            34,
            62,
            70,
            126,
            130,
            142,
            256,
            1000,
            1024,
        ] {
            if m < L {
                continue;
            }
            for salt in [0, 1] {
                let x = awkward::<T>(m, salt);
                let mut scratch = vec![T::ZERO; m];
                let mut a = vec![T::ONE; m];
                let mut b = vec![T::ONE; m];
                analyze::<T, L>(narrow, &x, &mut a, &mut scratch, &lo, &hi, 1);
                analyze::<T, L>(wide, &x, &mut b, &mut scratch, &lo, &hi, 1);
                assert!(same_bits(&a, &b), "analysis L={L} m={m} salt={salt}");
                synthesize::<T, P>(narrow, &x, &mut a, &mut scratch, &lo, &hi, 1);
                synthesize::<T, P>(wide, &x, &mut b, &mut scratch, &lo, &hi, 1);
                assert!(same_bits(&a, &b), "synthesis L={L} m={m} salt={salt}");
            }
        }
    }

    fn every_fixed_length<T: Real>() {
        instantiations_agree::<T, 2, 1>();
        instantiations_agree::<T, 4, 2>();
        instantiations_agree::<T, 6, 3>();
        instantiations_agree::<T, 8, 4>();
        instantiations_agree::<T, 10, 5>();
    }

    #[test]
    fn avx2_and_baseline_level_kernels_bitwise_agree_f32() {
        every_fixed_length::<f32>();
    }

    #[test]
    fn avx2_and_baseline_level_kernels_bitwise_agree_f64() {
        every_fixed_length::<f64>();
    }

    /// A deep cascade, both ways, through both instantiations.
    #[test]
    fn avx2_and_baseline_cascades_bitwise_agree() {
        let wide = Isa::detect();
        let narrow = Isa { avx2: false };
        let lo = awkward::<f32>(8, 4);
        let hi = awkward::<f32>(8, 10);
        let x = awkward::<f32>(512, 0);
        let mut scratch = vec![0.0; 512];
        let (mut a, mut b) = (vec![1.0; 512], vec![1.0; 512]);
        analyze::<f32, 8>(narrow, &x, &mut a, &mut scratch, &lo, &hi, 5);
        analyze::<f32, 8>(wide, &x, &mut b, &mut scratch, &lo, &hi, 5);
        assert!(same_bits(&a, &b));
        synthesize::<f32, 4>(narrow, &x, &mut a, &mut scratch, &lo, &hi, 5);
        synthesize::<f32, 4>(wide, &x, &mut b, &mut scratch, &lo, &hi, 5);
        assert!(same_bits(&a, &b));
    }
}
