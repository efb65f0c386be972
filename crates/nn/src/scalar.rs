//! The element type of the tape-free inference stack.
//!
//! [`Tensor`](crate::tensor::Tensor), [`FwdCtx`](crate::infer::FwdCtx),
//! every kernel in [`crate::kernels`] and the `fwd` halves of the layers
//! are written once, generic over [`Scalar`]. This file is the whole
//! per-precision surface: what genuinely differs between `f64` (the
//! bit-exact tier, equal to the autodiff `Graph`) and `f32` (the fast
//! tier, cast once from trained f64 weights) is an item of the trait,
//! and everything that is not listed here exists exactly once.
//!
//! | item | `f64` | `f32` | why it differs |
//! |---|---|---|---|
//! | [`Scalar::exp_shifted`] | degree-10 polynomial, 52-bit exponent trick | degree-7, 23-bit | accuracy target and bit layout |
//! | [`Scalar::striped_sum`] | 4 stripes | 8 stripes | part of the result's bits, so a source constant — never the register width of the build |
//! | `from_f64` / `to_f64` / `from_usize` / `to_bits` | — | — | the casts |
//!
//! No loop shape is per precision: on the one tier the workspace builds
//! for ([`crate::tier`]) a register tile is the fastest shape at both
//! types, for the attention scores (`kernels::scores_register_tile`) and
//! for every GEMM (`kernels::matmul_tile`). Only the GEMM tile's height
//! follows the element size, as a const parameter of that one kernel.
//! Narrowing `as f32` casts are legal in this file and nowhere else in
//! the nn/core/rl crates (`vmr-analyze` F001).
//!
//! The trait is sealed: the kernels' bit-identity arguments are made for
//! IEEE binary32/binary64 and for nothing else.

use std::fmt::Debug;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Sub};

use crate::kernels;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
}

/// `f64` or `f32`, as the inference stack sees them.
pub trait Scalar:
    sealed::Sealed
    + Copy
    + Default
    + Debug
    + PartialOrd
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + AddAssign
    + MulAssign
    + DivAssign
    + Sum<Self>
    + for<'a> Sum<&'a Self>
{
    /// `0.0`.
    const ZERO: Self;
    /// `1.0`.
    const ONE: Self;
    /// `-∞` (the running-maximum seed).
    const NEG_INFINITY: Self;
    /// The additive mask value that excludes a position
    /// ([`kernels::MASK_OFF`]; well inside the f32 range too).
    const MASK_OFF: Self;
    /// Mask entries at or below this are fully masked
    /// ([`kernels::MASK_NEG_THRESHOLD`]).
    const MASK_NEG_THRESHOLD: Self;

    /// Rounds an `f64` to this type (the identity for `f64`).
    fn from_f64(v: f64) -> Self;
    /// Widens to `f64` (exact).
    fn to_f64(self) -> f64;
    /// A count as this type, rounded once (`n as Self`).
    fn from_usize(n: usize) -> Self;
    /// The IEEE bit pattern, zero-extended (`-0.0 ≠ 0.0`, a NaN equals
    /// itself) — row-class equality.
    fn to_bits(self) -> u64;
    /// IEEE `maxNum` (a NaN operand loses).
    fn max(self, other: Self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// The libm exponential (masked softmax paths).
    fn exp(self) -> Self;
    /// Neither infinite nor NaN.
    fn is_finite(self) -> bool;

    /// `exp` for max-shifted softmax arguments (`x ≤ 0`): a branchless
    /// range-reduced polynomial, inlineable and auto-vectorizable —
    /// unlike the libm call, whose per-element cost dominates large
    /// unmasked softmax rows. `exp_shifted(0.0)` is exactly `1.0`; inputs
    /// at or below the underflow clamp round to the smallest normal
    /// probability, normalized away like an exact zero. Used by the
    /// unmasked softmax path of **both** engines (bit-identity between
    /// `Graph` and `FwdCtx` holds because they share this function; the
    /// masked/tree paths keep [`Scalar::exp`] and pair with each other).
    fn exp_shifted(self) -> Self;
    /// Striped normalizer sum of an unmasked softmax row
    /// (`kernels::striped_sum` at this type's stripe count).
    fn striped_sum(row: &[Self]) -> Self;
    /// [`Scalar::striped_sum`] of `row[class[0]], row[class[1]], …`.
    fn striped_sum_by_class(row: &[Self], class: &[u32]) -> Self;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NEG_INFINITY: Self = f64::NEG_INFINITY;
    const MASK_OFF: Self = kernels::MASK_OFF;
    const MASK_NEG_THRESHOLD: Self = kernels::MASK_NEG_THRESHOLD;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn from_usize(n: usize) -> Self {
        n as f64
    }
    #[inline]
    fn to_bits(self) -> u64 {
        f64::to_bits(self)
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn exp(self) -> Self {
        f64::exp(self)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }

    /// Relative error ≤ ~3e-13, far below the sampling noise any consumer
    /// of a probability can observe; the clamp floor is ~3e-308.
    #[inline]
    fn exp_shifted(self) -> f64 {
        // Branchless underflow clamp: keeps 2^k in the normal range so the
        // exponent bit-trick below stays valid (and lets the loop vectorize).
        let x = f64::max(self, -708.0);
        const INV_LN2: f64 = std::f64::consts::LOG2_E;
        // ln2 split hi/lo so `x - k·ln2` stays exact to the last bit.
        const LN2_HI: f64 = 0.693_147_180_369_123_8;
        const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
        // Round-to-nearest via the 1.5·2^52 magic constant (no SSE4 round).
        const MAGIC: f64 = 6_755_399_441_055_744.0;
        let t = x * INV_LN2 + MAGIC;
        let kf = t - MAGIC;
        let r = (x - kf * LN2_HI) - kf * LN2_LO;
        // `t` is exactly MAGIC + k, so its low mantissa bits hold 2^51 + k;
        // building 2^k out of them is pure integer arithmetic — no fp→int
        // conversion, so the surrounding loops stay auto-vectorizable.
        let mantissa = f64::to_bits(t) & ((1u64 << 52) - 1);
        let exp2k = f64::from_bits((mantissa - ((1u64 << 51) - 1023)) << 52);
        // Degree-10 Taylor of exp(r) on |r| ≤ ln2/2 (tail ≤ 3e-13 relative).
        let p = 1.0
            + r * (1.0
                + r * (0.5
                    + r * (1.0 / 6.0
                        + r * (1.0 / 24.0
                            + r * (1.0 / 120.0
                                + r * (1.0 / 720.0
                                    + r * (1.0 / 5040.0
                                        + r * (1.0 / 40320.0
                                            + r * (1.0 / 362_880.0
                                                + r * (1.0 / 3_628_800.0))))))))));
        p * exp2k
    }

    #[inline]
    fn striped_sum(row: &[f64]) -> f64 {
        kernels::striped_sum::<f64, 4>(row)
    }

    #[inline]
    fn striped_sum_by_class(row: &[f64], class: &[u32]) -> f64 {
        kernels::striped_sum_by_class::<f64, 4>(row, class)
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NEG_INFINITY: Self = f32::NEG_INFINITY;
    const MASK_OFF: Self = -1.0e30;
    const MASK_NEG_THRESHOLD: Self = -1.0e20;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    #[inline]
    fn from_usize(n: usize) -> Self {
        n as f32
    }
    #[inline]
    fn to_bits(self) -> u64 {
        u64::from(f32::to_bits(self))
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline]
    fn exp(self) -> Self {
        f32::exp(self)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }

    /// Relative error ≤ ~2 f32 ULPs over the softmax input range.
    #[inline]
    // The LN2_HI literal spells out the exactly-representable 11-bit value;
    // truncating it as clippy suggests would hide that it is exact.
    #[allow(clippy::excessive_precision)]
    fn exp_shifted(self) -> f32 {
        // Clamp so `k ≥ −126` keeps 2^k in the normal f32 range (the bit
        // trick below builds the exponent field directly).
        let x = f32::max(self, -87.0);
        const INV_LN2: f32 = std::f32::consts::LOG2_E;
        // ln2 split hi/lo: the hi part has 11 mantissa bits, so `k · LN2_HI`
        // is exact for every |k| ≤ 4096 that the clamp admits.
        const LN2_HI: f32 = 0.693_359_375;
        const LN2_LO: f32 = -2.121_944_4e-4;
        // Round-to-nearest via the 1.5·2^23 magic constant.
        const MAGIC: f32 = 12_582_912.0;
        let t = x * INV_LN2 + MAGIC;
        let kf = t - MAGIC;
        let r = (x - kf * LN2_HI) - kf * LN2_LO;
        // `t` is exactly MAGIC + k, so its low mantissa bits hold 2^22 + k;
        // 2^k is rebuilt with integer arithmetic only (auto-vectorizable).
        let mantissa = f32::to_bits(t) & ((1u32 << 23) - 1);
        let exp2k = f32::from_bits((mantissa - ((1u32 << 22) - 127)) << 23);
        // Degree-7 Taylor of exp(r) on |r| ≤ ln2/2 (tail ≈ 5e-9 relative,
        // far below f32 epsilon).
        let p = 1.0
            + r * (1.0
                + r * (0.5
                    + r * (1.0 / 6.0
                        + r * (1.0 / 24.0
                            + r * (1.0 / 120.0 + r * (1.0 / 720.0 + r * (1.0 / 5040.0)))))));
        p * exp2k
    }

    #[inline]
    fn striped_sum(row: &[f32]) -> f32 {
        kernels::striped_sum::<f32, 8>(row)
    }

    #[inline]
    fn striped_sum_by_class(row: &[f32], class: &[u32]) -> f32 {
        kernels::striped_sum_by_class::<f32, 8>(row, class)
    }
}
