//! A minimal abstraction over IEEE-754 floating-point types.
//!
//! The reconstruction side of the CS-ECG system runs in 32-bit floats on the
//! coordinator (the paper's iPhone decoder) while the reference design runs
//! in 64-bit (the paper's Matlab implementation, Fig. 6). Every numeric
//! routine in this workspace that participates in that comparison is generic
//! over [`Real`] so the *same* code path can be instantiated at both
//! precisions.
//!
//! The trait is deliberately small: it contains exactly the operations the
//! wavelet transforms, FIR filters and sparse-recovery solvers need, and
//! nothing else. It is sealed — only `f32` and `f64` implement it.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// An IEEE-754 floating-point scalar (`f32` or `f64`).
///
/// # Examples
///
/// ```
/// use cs_dsp::Real;
///
/// fn norm<T: Real>(v: &[T]) -> T {
///     v.iter().map(|&x| x * x).sum::<T>().sqrt()
/// }
///
/// assert_eq!(norm(&[3.0_f64, 4.0]), 5.0);
/// assert_eq!(norm(&[3.0_f32, 4.0]), 5.0);
/// ```
pub trait Real:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialEq
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + Send
    + Sync
    + 'static
    + sealed::Sealed
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// The value 2.
    const TWO: Self;
    /// One half.
    const HALF: Self;
    /// Machine epsilon for this precision.
    const EPSILON: Self;
    /// Smallest positive normal value.
    const MIN_POSITIVE: Self;
    /// Positive infinity.
    const INFINITY: Self;
    /// Archimedes' constant.
    const PI: Self;

    /// Converts from `f64`, rounding to the target precision.
    fn from_f64(v: f64) -> Self;
    /// Converts from `usize` exactly when representable.
    fn from_usize(v: usize) -> Self;
    /// Widens to `f64` (exact for both implementors).
    fn to_f64(self) -> f64;

    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Natural exponential.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Base-10 logarithm.
    fn log10(self) -> Self;
    /// Raises `self` to a floating-point power.
    fn powf(self, e: Self) -> Self;
    /// Raises `self` to an integer power.
    fn powi(self, e: i32) -> Self;
    /// Sine.
    fn sin(self) -> Self;
    /// Cosine.
    fn cos(self) -> Self;
    /// Four-quadrant arctangent of `self / other`.
    fn atan2(self, other: Self) -> Self;
    /// Fused multiply-add `self * a + b`.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Larger of two values (NaN-propagating like `f64::max`).
    fn max(self, other: Self) -> Self;
    /// Smaller of two values.
    fn min(self, other: Self) -> Self;
    /// Returns `true` if the value is finite.
    fn is_finite(self) -> bool;
    /// Returns `true` if the value is NaN.
    fn is_nan(self) -> bool;
    /// Rounds half away from zero.
    fn round(self) -> Self;
    /// Largest integer value not greater than `self`.
    fn floor(self) -> Self;
    /// Returns a number composed of the magnitude of `self` and the sign of `sign`.
    fn copysign(self, sign: Self) -> Self;

    /// Views `s` as single-precision data when `Self` is `f32`, `None`
    /// otherwise — how precision-generic code reaches a kernel that only
    /// exists for `f32` without a pointer cast.
    fn as_f32_slice(s: &[Self]) -> Option<&[f32]>;
    /// Mutable twin of [`Real::as_f32_slice`].
    fn as_f32_slice_mut(s: &mut [Self]) -> Option<&mut [f32]>;
}

macro_rules! impl_real {
    ($t:ty, $as_f32:expr) => {
        impl Real for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const TWO: Self = 2.0;
            const HALF: Self = 0.5;
            const EPSILON: Self = <$t>::EPSILON;
            const MIN_POSITIVE: Self = <$t>::MIN_POSITIVE;
            const INFINITY: Self = <$t>::INFINITY;
            const PI: Self = std::f64::consts::PI as $t;

            #[inline]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline]
            fn from_usize(v: usize) -> Self {
                v as $t
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline]
            fn exp(self) -> Self {
                <$t>::exp(self)
            }
            #[inline]
            fn ln(self) -> Self {
                <$t>::ln(self)
            }
            #[inline]
            fn log10(self) -> Self {
                <$t>::log10(self)
            }
            #[inline]
            fn powf(self, e: Self) -> Self {
                <$t>::powf(self, e)
            }
            #[inline]
            fn powi(self, e: i32) -> Self {
                <$t>::powi(self, e)
            }
            #[inline]
            fn sin(self) -> Self {
                <$t>::sin(self)
            }
            #[inline]
            fn cos(self) -> Self {
                <$t>::cos(self)
            }
            #[inline]
            fn atan2(self, other: Self) -> Self {
                <$t>::atan2(self, other)
            }
            #[inline]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
            #[inline]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline]
            fn is_nan(self) -> bool {
                <$t>::is_nan(self)
            }
            #[inline]
            fn round(self) -> Self {
                <$t>::round(self)
            }
            #[inline]
            fn floor(self) -> Self {
                <$t>::floor(self)
            }
            #[inline]
            fn copysign(self, sign: Self) -> Self {
                <$t>::copysign(self, sign)
            }
            #[inline]
            fn as_f32_slice(s: &[Self]) -> Option<&[f32]> {
                $as_f32(s)
            }
            #[inline]
            fn as_f32_slice_mut(s: &mut [Self]) -> Option<&mut [f32]> {
                $as_f32(s)
            }
        }
    };
}

impl_real!(f32, Some);
impl_real!(f64, |_| None);

/// Euclidean (ℓ2) norm of a slice.
///
/// # Examples
///
/// ```
/// assert_eq!(cs_dsp::l2_norm(&[3.0_f64, 4.0]), 5.0);
/// ```
#[inline]
pub fn l2_norm<T: Real>(v: &[T]) -> T {
    v.iter().map(|&x| x * x).sum::<T>().sqrt()
}

/// ℓ1 norm (sum of absolute values) of a slice.
///
/// # Examples
///
/// ```
/// assert_eq!(cs_dsp::l1_norm(&[-1.0_f64, 2.0, -3.0]), 6.0);
/// ```
#[inline]
pub fn l1_norm<T: Real>(v: &[T]) -> T {
    v.iter().map(|&x| x.abs()).sum()
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
///
/// # Examples
///
/// ```
/// assert_eq!(cs_dsp::dot(&[1.0_f64, 2.0], &[3.0, 4.0]), 11.0);
/// ```
#[inline]
pub fn dot<T: Real>(a: &[T], b: &[T]) -> T {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_std() {
        assert_eq!(<f64 as Real>::PI, std::f64::consts::PI);
        assert_eq!(<f32 as Real>::PI, std::f32::consts::PI);
        assert_eq!(<f64 as Real>::EPSILON, f64::EPSILON);
    }

    #[test]
    fn conversions_round_trip() {
        let x = 1.5_f64;
        assert_eq!(<f32 as Real>::from_f64(x).to_f64(), 1.5);
        assert_eq!(<f64 as Real>::from_usize(7), 7.0);
    }

    #[test]
    fn norms() {
        assert!((l2_norm(&[1.0_f64, 2.0, 2.0]) - 3.0).abs() < 1e-12);
        assert_eq!(l1_norm(&[0.0_f32; 4]), 0.0);
        assert_eq!(dot::<f64>(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0_f64], &[1.0, 2.0]);
    }

    #[test]
    fn generic_instantiation_both_precisions() {
        fn soft<T: Real>(x: T, t: T) -> T {
            (x.abs() - t).max(T::ZERO).copysign(x)
        }
        assert_eq!(soft(3.0_f64, 1.0), 2.0);
        assert_eq!(soft(-3.0_f32, 1.0), -2.0);
        assert_eq!(soft(0.5_f64, 1.0), 0.0);
    }
}
