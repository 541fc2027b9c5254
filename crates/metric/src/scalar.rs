//! The sealed [`Scalar`] trait: the coordinate storage types the flat
//! store and its kernels are generic over.
//!
//! The hot nearest-center scans are DRAM-bound at the paper's million-point
//! scale (see `BENCH_flat.json`), so halving the bytes per coordinate is
//! close to a free 2× — that is what the `f32` instantiation buys.  The
//! accuracy contract that makes this safe is split across two families of
//! operations:
//!
//! * **Comparison-space scans run in `S`.**  Selection, relaxation and
//!   assignment only compare distances, so they use `S`-valued surrogate
//!   kernels (`kernel::dist2`, the fused `relax_*` passes) — the fast,
//!   bandwidth-halved path.
//! * **Certified values are recomputed in `f64`.**  Every quality number a
//!   run reports — the covering radius, coverage checks, tightness ratios —
//!   is recomputed by the `wide_*` kernels, which read the stored `S` rows
//!   but convert each coordinate to `f64` **before** accumulating.  The
//!   reported value is therefore the exact (to `f64` rounding) distance over
//!   the stored data set, regardless of the storage precision; the only
//!   error an `f32` run carries is the one-time input rounding of each
//!   coordinate (relative `2^-24` per coordinate).
//!
//! The trait is sealed: the kernels' error analysis and the bit-for-bit
//! determinism guarantees are only established for IEEE-754 binary32 and
//! binary64, so downstream crates cannot add instantiations.

use std::cmp::Ordering;
use std::fmt::{Debug, Display};
use std::ops::{Add, AddAssign, Mul, Sub};

mod private {
    /// Seals [`super::Scalar`] to the two IEEE-754 types it is proven for.
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// A coordinate scalar the flat store and kernels can be instantiated at.
///
/// Implemented for `f64` (the default, exact reproduction mode) and `f32`
/// (the bandwidth-halved fast path).  See the module docs for the
/// comparison-space-in-`S` / certify-in-`f64` contract that governs which
/// computations may legitimately run at reduced precision.
///
/// [`crate::kernel::simd::SimdScalar`] is a supertrait: each storage scalar
/// carries its width-pinned kernel hooks (8 `f32` / 4 `f64` lanes), so the
/// generic kernel entry points can consult the runtime dispatch table
/// without naming concrete types.
pub trait Scalar:
    private::Sealed
    + crate::kernel::simd::SimdScalar
    + Copy
    + PartialEq
    + PartialOrd
    + Debug
    + Display
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + AddAssign
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Positive infinity ("no center seen yet" in the relax kernels).
    const INFINITY: Self;
    /// Negative infinity (argmax seed).
    const NEG_INFINITY: Self;
    /// The unit roundoff of this type (`2^-53` for `f64`, `2^-24` for
    /// `f32`), as an `f64`.  The precision property tests scale their error
    /// bounds by this and the dimension.
    const UNIT_ROUNDOFF: f64;
    /// Short name used in reports and CLI flags (`"f32"` / `"f64"`).
    const NAME: &'static str;
    /// Largest coordinate magnitude the flat store accepts at this
    /// precision (as an `f64`).
    ///
    /// The comparison-space kernels square coordinate differences and sum
    /// up to millions of terms *in `S`*; a coordinate can therefore be
    /// finite in `S` while its squared differences overflow to infinity,
    /// which would silently break the farthest-point selection (every
    /// `nearest` slot pinned at `+inf`).  The bound is chosen so that
    /// `2^24` squared differences of magnitude `(2 · MAX_ABS_COORD)^2` still
    /// sum below `S::MAX`: `1e15` for `f32`, `1e150` for `f64` — both far
    /// beyond any coordinate a real workload carries.  [`crate::FlatPoints`]
    /// validates against it wherever it validates finiteness.
    const MAX_ABS_COORD: f64;
    /// Stable one-byte tag identifying this storage type in binary formats
    /// (`1` for `f32`, `2` for `f64`).  Tags are part of the on-disk
    /// coreset format: never renumber or reuse them.
    const TAG: u8;
    /// Number of bytes one coordinate occupies in binary formats (the
    /// IEEE-754 storage width).
    const BYTE_WIDTH: usize;

    /// Rounds an `f64` to this type (the one-time input rounding an `f32`
    /// store applies to each coordinate).  Values beyond the type's range
    /// round to infinity and are rejected by the flat store's finiteness
    /// checks.
    fn from_f64(v: f64) -> Self;
    /// Widens to `f64` exactly (both instantiations embed losslessly).
    fn to_f64(self) -> f64;
    /// Whether the value is neither infinite nor NaN.
    fn is_finite(self) -> bool;
    /// Absolute value.
    fn abs(self) -> Self;
    /// IEEE-754 minimum (propagating the non-NaN operand).
    fn min(self, other: Self) -> Self;
    /// IEEE-754 maximum (propagating the non-NaN operand).
    fn max(self, other: Self) -> Self;
    /// IEEE-754 `totalOrder` comparison (for deterministic sorts).
    fn total_cmp(&self, other: &Self) -> Ordering;
    /// Appends the little-endian IEEE-754 byte encoding of `self` to `out`
    /// (bit-exact: round-tripping through [`Scalar::read_le_bytes`] yields
    /// the identical bit pattern, NaNs and signed zeros included).
    fn write_le_bytes(self, out: &mut Vec<u8>);
    /// Decodes a value from exactly [`Scalar::BYTE_WIDTH`] little-endian
    /// bytes; `None` if `bytes` has the wrong length.
    fn read_le_bytes(bytes: &[u8]) -> Option<Self>;
}

macro_rules! impl_scalar {
    ($t:ty, $name:literal, $roundoff:expr, $max_coord:expr, $tag:expr) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const INFINITY: Self = <$t>::INFINITY;
            const NEG_INFINITY: Self = <$t>::NEG_INFINITY;
            const UNIT_ROUNDOFF: f64 = $roundoff;
            const NAME: &'static str = $name;
            const MAX_ABS_COORD: f64 = $max_coord;
            const TAG: u8 = $tag;
            const BYTE_WIDTH: usize = std::mem::size_of::<$t>();

            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn total_cmp(&self, other: &Self) -> Ordering {
                <$t>::total_cmp(self, other)
            }
            #[inline(always)]
            fn write_le_bytes(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline(always)]
            fn read_le_bytes(bytes: &[u8]) -> Option<Self> {
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
        }
    };
}

impl_scalar!(f32, "f32", 5.960_464_477_539_063e-8, 1e15, 1); // 2^-24
impl_scalar!(f64, "f64", 1.110_223_024_625_156_5e-16, 1e150, 2); // 2^-53

/// A runtime storage-precision choice, used by the CLI's `--precision` flag
/// and the bench harness to dispatch into the monomorphised `f32` / `f64`
/// stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Single-precision storage: half the scan bandwidth, certified
    /// quality numbers still computed in `f64` from the rounded rows.
    F32,
    /// Double-precision storage (the default; exact reproduction mode).
    #[default]
    F64,
}

impl Precision {
    /// Parses a precision name (`"f32"` / `"f64"`, case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "f32" | "single" => Some(Precision::F32),
            "f64" | "double" => Some(Precision::F64),
            _ => None,
        }
    }

    /// The canonical name (`"f32"` / `"f64"`).
    pub fn name(&self) -> &'static str {
        match self {
            Precision::F32 => f32::NAME,
            Precision::F64 => f64::NAME,
        }
    }
}

impl Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_ieee_roundoff() {
        assert_eq!(f32::UNIT_ROUNDOFF, (f32::EPSILON / 2.0) as f64);
        assert_eq!(f64::UNIT_ROUNDOFF, f64::EPSILON / 2.0);
        assert_eq!(f32::NAME, "f32");
        assert_eq!(f64::NAME, "f64");
    }

    #[test]
    fn widening_is_lossless_and_rounding_is_nearest() {
        let v = 0.1f64;
        let narrowed = f32::from_f64(v);
        assert!((narrowed.to_f64() - v).abs() <= v * f32::UNIT_ROUNDOFF);
        assert_eq!(f64::from_f64(v), v);
        assert_eq!(f64::from_f64(v).to_f64(), v);
    }

    #[test]
    fn out_of_range_rounding_is_caught_by_is_finite() {
        let huge = 1e300f64;
        assert!(!f32::from_f64(huge).is_finite());
        assert!(f64::from_f64(huge).is_finite());
    }

    #[test]
    fn le_byte_round_trip_is_bit_exact() {
        for v in [0.0f64, -0.0, 1.5, 1.0e-300, f64::INFINITY, f64::NAN] {
            let mut buf = Vec::new();
            v.write_le_bytes(&mut buf);
            assert_eq!(buf.len(), f64::BYTE_WIDTH);
            let back = f64::read_le_bytes(&buf).expect("width matches");
            assert_eq!(back.to_bits(), v.to_bits());
        }
        for v in [0.0f32, -0.0, 1.5, f32::INFINITY, f32::NAN] {
            let mut buf = Vec::new();
            v.write_le_bytes(&mut buf);
            assert_eq!(buf.len(), f32::BYTE_WIDTH);
            let back = f32::read_le_bytes(&buf).expect("width matches");
            assert_eq!(back.to_bits(), v.to_bits());
        }
        assert_eq!(f64::read_le_bytes(&[0u8; 4]), None);
        assert_eq!(f32::read_le_bytes(&[0u8; 8]), None);
        assert_ne!(f32::TAG, f64::TAG);
    }

    #[test]
    fn precision_parses_and_prints() {
        assert_eq!(Precision::parse("f32"), Some(Precision::F32));
        assert_eq!(Precision::parse("F64"), Some(Precision::F64));
        assert_eq!(Precision::parse("double"), Some(Precision::F64));
        assert_eq!(Precision::parse("half"), None);
        assert_eq!(Precision::default(), Precision::F64);
        assert_eq!(Precision::F32.to_string(), "f32");
    }
}
