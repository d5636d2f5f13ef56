//! The vector kernels at the width the CPU offers — the only module of
//! this crate that contains `unsafe`.
//!
//! The across-output kernels in [`transform`](super::transform) take their
//! lane count as a const parameter. This module instantiates the *same*
//! `#[inline(always)]` generic bodies three times and picks one from a
//! runtime CPU check: at baseline width (eight lanes, which an SSE2 build
//! compiles as two 4-lane halves), inside `#[target_feature(enable =
//! "avx2")]` functions (eight lanes, one 256-bit vector) and inside
//! `#[target_feature(enable = "avx512f")]` functions (sixteen lanes, one
//! 512-bit vector). The lanes run across outputs, so every output performs
//! the same IEEE operations in the same order in every arm. `avx512f`
//! implies `fma`, but Rust never contracts `a * b + c` on its own and no
//! kernel calls `mul_add`, so no instruction fuses — the arms are
//! bit-identical, there is nothing to configure and results do not depend
//! on the host.
//!
//! The same holds one layer up: [`in_arm`] runs a caller's closure inside
//! an instantiation for an arm, which is how `cs-recovery` runs a whole
//! FISTA solve at the CPU's width without an `unsafe` of its own.
//!
//! A whole multi-level cascade (or solve) runs inside one wide function,
//! so the SSE ↔ AVX state transition is paid once per transform, not per
//! level. There are no intrinsics and no raw pointers here: the only
//! `unsafe` operation is calling a `#[target_feature]` function, and its
//! one requirement — the CPU has the feature — is what [`Isa`] witnesses.

use super::transform::{analyze_cascade, synthesize_cascade};
use crate::real::Real;

/// Lanes per across-output chunk outside the AVX-512 arm.
const NARROW: usize = 8;
/// Lanes per across-output chunk inside the AVX-512 arm.
const WIDE: usize = 16;

/// An instantiation of the vector kernels, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Arm {
    Baseline,
    Avx2,
    Avx512,
}

impl Arm {
    const ALL: [Arm; 3] = [Arm::Baseline, Arm::Avx2, Arm::Avx512];

    fn name(self) -> &'static str {
        match self {
            Arm::Baseline => "baseline",
            Arm::Avx2 => "avx2",
            Arm::Avx512 => "avx512",
        }
    }
}

/// Which instantiation of the kernels to run. The field is private and
/// every constructor caps it at what [`Isa::detect`] reports, so
/// `arm >= Arm::Avx2` proves that `is_x86_feature_detected!("avx2")`
/// returned `true` on this CPU, and `arm == Arm::Avx512` that
/// `is_x86_feature_detected!("avx512f")` did — the `// SAFETY:` comments
/// below rely on exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Isa {
    arm: Arm,
}

impl Isa {
    /// Asks the CPU. (The standard library caches the `cpuid` answer.)
    pub(crate) fn detect() -> Self {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        let arm = if std::arch::is_x86_feature_detected!("avx512f") {
            Arm::Avx512
        } else if std::arch::is_x86_feature_detected!("avx2") {
            Arm::Avx2
        } else {
            Arm::Baseline
        };
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        let arm = Arm::Baseline;
        Isa { arm }
    }

    /// The arm named `name` — [`kernel_arm`]'s vocabulary — or, when this
    /// CPU lacks it (or the name is unknown), the widest arm it has below.
    fn named(name: &str) -> Self {
        let cap = Arm::ALL
            .into_iter()
            .find(|arm| arm.name() == name)
            .unwrap_or(Arm::Baseline);
        Isa {
            arm: cap.min(Isa::detect().arm),
        }
    }

    /// Every arm this CPU can run, narrowest first — so a test holds the
    /// AVX2 arm to the others on a host that would pick AVX-512.
    #[cfg(test)]
    pub(crate) fn every_arm() -> impl Iterator<Item = Isa> {
        let widest = Isa::detect().arm;
        Arm::ALL
            .into_iter()
            .filter(move |&arm| arm <= widest)
            .map(|arm| Isa { arm })
    }

    /// The arm's name, as [`kernel_arm`] reports it.
    pub(crate) fn name(self) -> &'static str {
        self.arm.name()
    }
}

/// Which instantiation of the vector kernels — the wavelet transform's
/// level kernels and the FISTA iteration around them — this CPU runs:
/// `"avx512"`, `"avx2"` or `"baseline"`. Every arm produces the same bits;
/// this only says how wide the vectors are.
///
/// # Examples
///
/// ```
/// assert!(["avx512", "avx2", "baseline"].contains(&cs_dsp::kernel_arm()));
/// ```
pub fn kernel_arm() -> &'static str {
    Isa::detect().name()
}

/// Runs `f` inside the instantiation for the arm named `arm` — one of
/// [`kernel_arm`]'s answers — capped at the widest arm this CPU has. Only
/// code inlined into the wide function runs at its width, so pass an
/// `#[inline(always)]` closure over an `#[inline(always)]` body. The
/// AVX-512 arm has an instantiation of its own; on the others `f` runs as
/// compiled, at baseline width, and the DWT levels it calls dispatch on
/// their own (DESIGN §5). `cs-recovery` runs every FISTA solve through
/// this with `kernel_arm()`, and its tests run each arm.
#[doc(hidden)]
pub fn in_arm<R>(arm: &str, f: impl FnOnce() -> R) -> R {
    let isa = Isa::named(arm);
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if isa.arm == Arm::Avx512 {
        // SAFETY: `Isa::named` caps the arm at `Isa::detect`, which sets
        // `Avx512` only from `is_x86_feature_detected!("avx512f")`, so
        // this CPU supports the one feature `run_avx512` enables.
        return unsafe { run_avx512(f) };
    }
    let _ = isa;
    f()
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
fn run_avx512<R>(f: impl FnOnce() -> R) -> R {
    f()
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
    match isa.arm {
        // SAFETY: `Isa` caps its arm at `Isa::detect`, which sets `Avx512`
        // only from `is_x86_feature_detected!("avx512f")`, so this CPU
        // supports the one feature `analyze_avx512` enables.
        Arm::Avx512 => {
            return unsafe { analyze_avx512::<T, L>(x, coeffs, scratch, lo, hi, levels) }
        }
        // SAFETY: as above: `Avx2` or wider only from
        // `is_x86_feature_detected!("avx2")`.
        Arm::Avx2 => return unsafe { analyze_avx2::<T, L>(x, coeffs, scratch, lo, hi, levels) },
        Arm::Baseline => {}
    }
    let _ = isa;
    analyze_cascade::<T, L, NARROW>(x, coeffs, scratch, lo, hi, levels);
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
    match isa.arm {
        // SAFETY: `Isa` caps its arm at `Isa::detect`, which sets `Avx512`
        // only from `is_x86_feature_detected!("avx512f")`, so this CPU
        // supports the one feature `synthesize_avx512` enables.
        Arm::Avx512 => {
            return unsafe { synthesize_avx512::<T, P>(coeffs, x, scratch, lo, hi, levels) }
        }
        // SAFETY: as above: `Avx2` or wider only from
        // `is_x86_feature_detected!("avx2")`.
        Arm::Avx2 => return unsafe { synthesize_avx2::<T, P>(coeffs, x, scratch, lo, hi, levels) },
        Arm::Baseline => {}
    }
    let _ = isa;
    synthesize_cascade::<T, P, NARROW>(coeffs, x, scratch, lo, hi, levels);
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
    analyze_cascade::<T, L, NARROW>(x, coeffs, scratch, lo, hi, levels);
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
    synthesize_cascade::<T, P, NARROW>(coeffs, x, scratch, lo, hi, levels);
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
fn analyze_avx512<T: Real, const L: usize>(
    x: &[T],
    coeffs: &mut [T],
    scratch: &mut [T],
    lo: &[T],
    hi: &[T],
    levels: usize,
) {
    analyze_cascade::<T, L, WIDE>(x, coeffs, scratch, lo, hi, levels);
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
fn synthesize_avx512<T: Real, const P: usize>(
    coeffs: &[T],
    x: &mut [T],
    scratch: &mut [T],
    lo: &[T],
    hi: &[T],
    levels: usize,
) {
    synthesize_cascade::<T, P, WIDE>(coeffs, x, scratch, lo, hi, levels);
}

#[cfg(test)]
mod tests {
    use super::super::transform::tests::{
        analysis_reference, awkward, same_bits, synthesis_reference,
    };
    use super::super::transform::TILE;
    use super::*;

    /// Level sizes (`half` = outputs per band) around every edge of every
    /// arm's chunking: one chunk short (`LANES − 1`), exactly one chunk,
    /// one chunk plus the `P − 1` wrapped pairs less one, a tile either
    /// side, the decoder's levels — plus levels shorter than the filter.
    fn halves<const P: usize>() -> Vec<usize> {
        let mut halves: Vec<usize> = [NARROW, WIDE]
            .into_iter()
            .flat_map(|lanes| [lanes - 1, lanes, lanes + P - 2, lanes + P - 1])
            .chain([TILE - 1, TILE, TILE + 1, 2 * TILE + 3, 128, 256, 500, 512])
            .chain(1..P)
            .filter(|&half| half > 0)
            .collect();
        halves.sort_unstable();
        halves.dedup();
        halves
    }

    /// One level of the length-`L` kernel pair through every arm this CPU
    /// has, each called directly (one level, so the cascade is exactly one
    /// kernel call), against the one-output-at-a-time forms: bitwise, for
    /// arbitrary taps with signed zeros, subnormals and infinities among
    /// the inputs.
    fn arms_agree<T: Real, const L: usize, const P: usize>() {
        let lo = awkward::<T>(L, 4);
        let hi = awkward::<T>(L, 10);
        for half in halves::<P>() {
            let m = 2 * half;
            for salt in [0, 1] {
                let x = awkward::<T>(m, salt);
                let (approx, detail) = x.split_at(half);
                let mut want_a = vec![T::ZERO; m];
                analysis_reference(&x, &mut want_a, &lo, &hi);
                let want_s = synthesis_reference(approx, detail, &lo, &hi);
                for isa in Isa::every_arm() {
                    let arm = isa.name();
                    let mut scratch = vec![T::ONE; m];
                    let mut got = vec![T::ONE; m];
                    analyze::<T, L>(isa, &x, &mut got, &mut scratch, &lo, &hi, 1);
                    assert!(
                        same_bits(&got, &want_a),
                        "analysis {arm} L={L} half={half} salt={salt}"
                    );
                    synthesize::<T, P>(isa, &x, &mut got, &mut scratch, &lo, &hi, 1);
                    assert!(
                        same_bits(&got, &want_s),
                        "synthesis {arm} L={L} half={half} salt={salt}"
                    );
                }
            }
        }
    }

    fn every_fixed_length<T: Real>() {
        if Isa::detect().arm != Arm::Avx512 {
            eprintln!(
                "this CPU runs {}: the arms above it are not exercised here",
                kernel_arm()
            );
        }
        arms_agree::<T, 2, 1>();
        arms_agree::<T, 4, 2>();
        arms_agree::<T, 6, 3>();
        arms_agree::<T, 8, 4>();
        arms_agree::<T, 10, 5>();
    }

    #[test]
    fn every_arm_runs_the_level_kernels_bitwise_alike_f32() {
        every_fixed_length::<f32>();
    }

    #[test]
    fn every_arm_runs_the_level_kernels_bitwise_alike_f64() {
        every_fixed_length::<f64>();
    }

    /// Whole cascades, both ways, through every arm: the decoder's 512/5
    /// and a deeper 1024/6, at both precisions.
    fn cascades_agree<T: Real>() {
        let lo = awkward::<T>(8, 4);
        let hi = awkward::<T>(8, 10);
        for (n, levels) in [(512, 5), (1024, 6)] {
            let x = awkward::<T>(n, 1);
            let mut scratch = vec![T::ZERO; n];
            let mut want: Option<(Vec<T>, Vec<T>)> = None;
            for isa in Isa::every_arm() {
                let (mut a, mut s) = (vec![T::ONE; n], vec![T::ONE; n]);
                analyze::<T, 8>(isa, &x, &mut a, &mut scratch, &lo, &hi, levels);
                synthesize::<T, 4>(isa, &x, &mut s, &mut scratch, &lo, &hi, levels);
                match &want {
                    None => want = Some((a, s)),
                    Some((wa, ws)) => {
                        assert!(same_bits(&a, wa), "analysis {} {n}/{levels}", isa.name());
                        assert!(same_bits(&s, ws), "synthesis {} {n}/{levels}", isa.name());
                    }
                }
            }
        }
    }

    #[test]
    fn every_arm_runs_whole_cascades_bitwise_alike() {
        cascades_agree::<f32>();
        cascades_agree::<f64>();
    }

    #[test]
    fn a_name_picks_its_arm_or_the_widest_below_it() {
        let widest = Isa::detect();
        assert_eq!(Isa::named(kernel_arm()), widest);
        assert_eq!(Isa::named("baseline").name(), "baseline");
        assert_eq!(Isa::named("no such arm").name(), "baseline");
        assert!(Isa::named("avx512").arm <= widest.arm);
        assert_eq!(in_arm("avx512", || 7), 7);
    }
}
