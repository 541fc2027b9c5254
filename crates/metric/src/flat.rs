//! Contiguous structure-of-arrays point storage, generic over the storage
//! scalar.
//!
//! The hot loops of every algorithm in this workspace — the farthest-point
//! scans of GON, the per-reducer sub-procedures of MRG, and EIM's filter
//! rounds — stream over "distance from point *i* to one center" for millions
//! of *i*.  With one heap-allocated `Vec<f64>` per [`Point`] that scan pays a
//! pointer chase and a potential cache miss per point; storing all
//! coordinates in a single row-major buffer turns it into a linear walk that
//! runs at memory bandwidth.
//!
//! [`FlatPoints<S>`] is that buffer: `coords[i * dim .. (i + 1) * dim]` is
//! the coordinate row of point `i`, with `S` one of the two [`Scalar`]
//! instantiations:
//!
//! * `FlatPoints<f64>` (the default) stores coordinates exactly as
//!   generated/loaded — the exact reproduction mode;
//! * `FlatPoints<f32>` halves the bytes per coordinate.  The scan is
//!   DRAM-bound at the paper's million-point scale, so this is close to a
//!   free 2× on the comparison-space scans.  Each coordinate is rounded
//!   **once** at ingestion ([`Scalar::from_f64`], relative error `2^-24`);
//!   all certified quality numbers are then recomputed from the stored rows
//!   with `f64` accumulation (see [`crate::scalar`] for the contract and
//!   [`crate::kernel`] for the `wide_*` kernels), so reduced storage
//!   precision never silently degrades a reported covering radius.
//!
//! # When is `f32` storage safe to enable?
//!
//! Because certification is structural, the question reduces to whether the
//! *input rounding* is acceptable, not whether scans will drift:
//!
//! * **Safe:** data whose coordinates carry fewer than ~7 significant
//!   decimal digits of real information — all of this repo's workloads
//!   (UNIF/GAU/UNB generator output, the Poker Hand grid, KDD-style
//!   features), and generally anything measured rather than computed.
//!   Selections may differ from the `f64` run only where candidates were
//!   already tied to within `2^-24` relative — and the reported radius is
//!   still the exact `f64` covering radius of the stored (rounded) points.
//! * **Not safe:** coordinates whose magnitude exceeds the storage
//!   scalar's safe bound ([`crate::Scalar::MAX_ABS_COORD`], `1e15` at
//!   `f32`) — beyond it a squared distance could overflow to infinity
//!   inside the comparison-space kernels, so the store *rejects* such
//!   coordinates at construction rather than silently keeping them — or
//!   workloads that need distances between near-equal points resolved
//!   below the `2^-24`-relative input rounding (e.g. near-duplicate
//!   detection at 1e-8 relative scale).
//!
//! [`Point`] remains the owned, `f64`-coordinate, per-point view type used
//! at API boundaries; conversions in both directions are provided (widening
//! is lossless, narrowing rounds to nearest).

use crate::point::{Point, PointError};
use crate::scalar::Scalar;
use std::fmt;

/// Whether a coordinate is storable: finite and within the scalar's safe
/// magnitude (beyond [`Scalar::MAX_ABS_COORD`] a squared distance could
/// overflow to infinity inside the comparison-space kernels, silently
/// degenerating the farthest-point selection).
#[inline]
fn coord_ok<S: Scalar>(c: S) -> bool {
    c.is_finite() && c.to_f64().abs() <= S::MAX_ABS_COORD
}

/// A dense, row-major point store: all coordinates in one contiguous buffer.
///
/// Invariants: `coords.len() == len * dim`, every coordinate is finite and
/// within [`Scalar::MAX_ABS_COORD`], and `dim > 0` whenever `len > 0` (an
/// empty store may carry `dim == 0`, which means "dimension not yet
/// known").
#[derive(Clone, PartialEq)]
pub struct FlatPoints<S: Scalar = f64> {
    coords: Vec<S>,
    dim: usize,
    len: usize,
}

impl<S: Scalar> FlatPoints<S> {
    /// An empty store whose dimension is fixed by the first pushed row.
    pub fn empty() -> Self {
        Self {
            coords: Vec::new(),
            dim: 0,
            len: 0,
        }
    }

    /// An empty store of the given dimension.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            coords: Vec::new(),
            dim,
            len: 0,
        }
    }

    /// An empty store of the given dimension with room for `n` points.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            coords: Vec::with_capacity(dim * n),
            dim,
            len: 0,
        }
    }

    /// Wraps a raw coordinate buffer holding `buffer.len() / dim` rows.
    ///
    /// This is the zero-copy entry point for generators that fill flat
    /// buffers directly (at any storage precision — no convert-after-generate
    /// pass).
    pub fn from_coords(coords: Vec<S>, dim: usize) -> Result<Self, PointError> {
        if dim == 0 {
            if coords.is_empty() {
                return Ok(Self::empty());
            }
            return Err(PointError::Empty);
        }
        assert!(
            coords.len().is_multiple_of(dim),
            "coordinate buffer length {} is not a multiple of the dimension {}",
            coords.len(),
            dim
        );
        if let Some(idx) = coords.iter().position(|c| !coord_ok(*c)) {
            let value = coords[idx].to_f64();
            return Err(if value.is_finite() {
                PointError::OutOfRange {
                    index: idx,
                    value,
                    limit: S::MAX_ABS_COORD,
                }
            } else {
                PointError::NonFinite { index: idx, value }
            });
        }
        let len = coords.len() / dim;
        Ok(Self { coords, dim, len })
    }

    /// Builds the store from per-point views, rounding each `f64`
    /// coordinate to `S` (a no-op at `f64`).
    ///
    /// # Panics
    ///
    /// Panics if the points do not all share one dimension, or if a
    /// coordinate exceeds [`Scalar::MAX_ABS_COORD`] for the storage scalar
    /// (its squared distances would overflow the comparison-space kernels —
    /// only possible when narrowing, since [`Point`] coordinates are finite
    /// `f64`).
    pub fn from_points(points: &[Point]) -> Self {
        let Some(first) = points.first() else {
            return Self::empty();
        };
        let dim = first.dim();
        let mut flat = Self::with_capacity(dim, points.len());
        for p in points {
            assert_eq!(
                p.dim(),
                dim,
                "all points in a FlatPoints must share one dimension"
            );
            flat.coords.extend(p.coords().iter().map(|&c| {
                let s = S::from_f64(c);
                assert!(
                    coord_ok(s),
                    "coordinate {c} exceeds the {} safe magnitude {}",
                    S::NAME,
                    S::MAX_ABS_COORD
                );
                s
            }));
        }
        flat.len = points.len();
        flat
    }

    /// Appends one coordinate row.
    ///
    /// # Panics
    ///
    /// Panics if the row's length disagrees with the store's dimension or a
    /// coordinate is not finite or exceeds [`Scalar::MAX_ABS_COORD`].  The
    /// first row pushed into an [`FlatPoints::empty`] store fixes the
    /// dimension.
    pub fn push_row(&mut self, row: &[S]) {
        if self.dim == 0 {
            assert!(!row.is_empty(), "cannot push an empty row");
            self.dim = row.len();
        }
        assert_eq!(
            row.len(),
            self.dim,
            "row length must equal the store dimension"
        );
        assert!(
            row.iter().all(|c| coord_ok(*c)),
            "coordinates must be finite and within the storage scalar's safe magnitude"
        );
        self.coords.extend_from_slice(row);
        self.len += 1;
    }

    /// Appends a [`Point`], rounding its `f64` coordinates to `S`.
    pub fn push_point(&mut self, p: &Point) {
        let row: Vec<S> = p.coords().iter().map(|&c| S::from_f64(c)).collect();
        self.push_row(&row);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Coordinate dimension (0 only while the store is empty).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The coordinate row of point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn row(&self, i: usize) -> &[S] {
        let start = i * self.dim;
        &self.coords[start..start + self.dim]
    }

    /// Iterates over all coordinate rows in index order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[S]> {
        self.coords.chunks_exact(self.dim.max(1))
    }

    /// The whole backing buffer, row-major.
    pub fn coords(&self) -> &[S] {
        &self.coords
    }

    /// An owned [`Point`] copy of row `i` (widened to `f64`).
    pub fn point(&self, i: usize) -> Point {
        Point::new(self.row(i).iter().map(|c| c.to_f64()).collect())
    }

    /// Materialises every row as an owned [`Point`] (widened to `f64`).
    pub fn to_points(&self) -> Vec<Point> {
        self.rows()
            .map(|r| Point::new(r.iter().map(|c| c.to_f64()).collect()))
            .collect()
    }

    /// Re-stores every coordinate at precision `T`.
    ///
    /// Narrowing (`f64` → `f32`) rounds each coordinate to nearest;
    /// widening is lossless.  This is the conversion the benches use to
    /// measure both precisions over the *same* generated data; production
    /// paths generate at the target precision directly instead.
    ///
    /// # Panics
    ///
    /// Panics if a coordinate exceeds the target scalar's safe magnitude
    /// ([`Scalar::MAX_ABS_COORD`]) — only possible when narrowing.
    pub fn to_precision<T: Scalar>(&self) -> FlatPoints<T> {
        FlatPoints {
            coords: self
                .coords
                .iter()
                .map(|c| {
                    let t = T::from_f64(c.to_f64());
                    assert!(
                        coord_ok(t),
                        "coordinate {c} exceeds the {} safe magnitude {}",
                        T::NAME,
                        T::MAX_ABS_COORD
                    );
                    t
                })
                .collect(),
            dim: self.dim,
            len: self.len,
        }
    }

    /// Appends every row of `other`.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch (unless either side is empty).
    pub fn append(&mut self, other: &FlatPoints<S>) {
        if other.is_empty() {
            return;
        }
        if self.dim == 0 {
            self.dim = other.dim;
        }
        assert_eq!(self.dim, other.dim, "dimension mismatch in append");
        self.coords.extend_from_slice(&other.coords);
        self.len += other.len;
    }
}

impl<S: Scalar> fmt::Debug for FlatPoints<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FlatPoints<{}>(n={}, dim={})",
            S::NAME,
            self.len,
            self.dim
        )
    }
}

impl<S: Scalar> From<Vec<Point>> for FlatPoints<S> {
    fn from(points: Vec<Point>) -> Self {
        FlatPoints::from_points(&points)
    }
}

impl<S: Scalar> From<&[Point]> for FlatPoints<S> {
    fn from(points: &[Point]) -> Self {
        FlatPoints::from_points(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_points_round_trips() {
        let pts = vec![Point::xy(1.0, 2.0), Point::xy(3.0, 4.0)];
        let flat = FlatPoints::<f64>::from_points(&pts);
        assert_eq!(flat.len(), 2);
        assert_eq!(flat.dim(), 2);
        assert_eq!(flat.row(0), &[1.0, 2.0]);
        assert_eq!(flat.row(1), &[3.0, 4.0]);
        assert_eq!(flat.to_points(), pts);
        assert_eq!(flat.point(1), pts[1]);
    }

    #[test]
    fn f32_store_rounds_once_and_widens_losslessly() {
        let pts = vec![Point::xy(0.1, 0.2), Point::xy(3.0, 4.0)];
        let flat = FlatPoints::<f32>::from_points(&pts);
        assert_eq!(flat.dim(), 2);
        assert_eq!(flat.row(0), &[0.1f32, 0.2f32]);
        // Exactly representable coordinates survive the round trip.
        assert_eq!(flat.point(1), pts[1]);
        // Rounded coordinates widen to the f64 value of their f32 rounding.
        assert_eq!(flat.point(0).coords()[0], 0.1f32 as f64);
    }

    #[test]
    fn to_precision_round_trips_exact_values() {
        let flat = FlatPoints::<f64>::from_coords(vec![1.5, -2.0, 3.25, 4.0], 2).unwrap();
        let narrow = flat.to_precision::<f32>();
        assert_eq!(narrow.row(1), &[3.25f32, 4.0f32]);
        let wide = narrow.to_precision::<f64>();
        assert_eq!(wide, flat);
    }

    #[test]
    fn empty_store_has_no_rows() {
        let flat = FlatPoints::<f64>::from_points(&[]);
        assert!(flat.is_empty());
        assert_eq!(flat.dim(), 0);
        assert_eq!(flat.rows().count(), 0);
        assert!(flat.to_points().is_empty());
    }

    #[test]
    fn push_row_fixes_dimension() {
        let mut flat = FlatPoints::<f64>::empty();
        flat.push_row(&[1.0, 2.0, 3.0]);
        assert_eq!(flat.dim(), 3);
        flat.push_point(&Point::xyz(4.0, 5.0, 6.0));
        assert_eq!(flat.len(), 2);
        assert_eq!(flat.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn push_row_rejects_dimension_mismatch() {
        let mut flat = FlatPoints::<f64>::new(2);
        flat.push_row(&[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn push_row_rejects_nan() {
        let mut flat = FlatPoints::<f64>::new(2);
        flat.push_row(&[1.0, f64::NAN]);
    }

    #[test]
    fn from_coords_validates() {
        let flat = FlatPoints::from_coords(vec![1.0, 2.0, 3.0, 4.0], 2).unwrap();
        assert_eq!(flat.len(), 2);
        assert!(FlatPoints::from_coords(vec![1.0, f64::INFINITY], 2).is_err());
        assert!(FlatPoints::<f64>::from_coords(Vec::new(), 0)
            .unwrap()
            .is_empty());
        // Out-of-f32-range values rejected at the f32 instantiation too.
        assert!(FlatPoints::from_coords(vec![1.0f32, f32::NAN], 2).is_err());
    }

    #[test]
    fn coordinates_beyond_the_safe_magnitude_are_rejected() {
        use crate::scalar::Scalar;
        // Finite in f32, but its squared differences overflow f32: must be
        // rejected, not silently kept (it would pin every nearest slot at
        // +inf and degenerate the farthest-point selection).
        let too_big = 2e19f32;
        assert!(too_big.is_finite());
        assert!(matches!(
            FlatPoints::from_coords(vec![too_big, 0.0], 2),
            Err(PointError::OutOfRange { .. })
        ));
        // The same magnitude is fine at f64 …
        assert!(FlatPoints::from_coords(vec![2e19f64, 0.0], 2).is_ok());
        // … but f64 has its own overflow bound.
        assert!(matches!(
            FlatPoints::from_coords(vec![1e200f64, 0.0], 2),
            Err(PointError::OutOfRange { .. })
        ));
        // Boundary values are accepted at both precisions.
        assert!(FlatPoints::from_coords(vec![f32::MAX_ABS_COORD as f32, 0.0], 2).is_ok());
        assert!(FlatPoints::from_coords(vec![f64::MAX_ABS_COORD, 0.0], 2).is_ok());
    }

    #[test]
    #[should_panic(expected = "safe magnitude")]
    fn narrowing_conversion_rejects_overflowing_coordinates() {
        let flat = FlatPoints::<f64>::from_coords(vec![2e19, 0.0], 2).unwrap();
        let _ = flat.to_precision::<f32>();
    }

    #[test]
    #[should_panic(expected = "safe magnitude")]
    fn from_points_rejects_coordinates_unsafe_at_the_storage_precision() {
        let _ = FlatPoints::<f32>::from_points(&[Point::xy(2e19, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_coords_rejects_ragged_buffer() {
        let _ = FlatPoints::from_coords(vec![1.0f64, 2.0, 3.0], 2);
    }

    #[test]
    fn append_concatenates() {
        let mut a = FlatPoints::<f64>::from_points(&[Point::xy(0.0, 0.0)]);
        let b = FlatPoints::<f64>::from_points(&[Point::xy(1.0, 1.0), Point::xy(2.0, 2.0)]);
        a.append(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.row(2), &[2.0, 2.0]);
        let mut fresh = FlatPoints::empty();
        fresh.append(&b);
        assert_eq!(fresh.dim(), 2);
        assert_eq!(fresh.len(), 2);
    }

    #[test]
    fn rows_iterates_in_order() {
        let flat = FlatPoints::from_coords(vec![0.0f64, 1.0, 2.0, 3.0, 4.0, 5.0], 3).unwrap();
        let rows: Vec<&[f64]> = flat.rows().collect();
        assert_eq!(rows, vec![&[0.0, 1.0, 2.0][..], &[3.0, 4.0, 5.0][..]]);
    }
}
