//! Distance functions.
//!
//! The clustering algorithms are generic over a [`Distance`], but the paper's
//! experiments all use the Euclidean metric computed on demand from point
//! coordinates (Section 7.3).  Additional metrics are provided both for
//! completeness (the real data sets are partly categorical, where an
//! overlap/Hamming distance is the natural choice) and to exercise the
//! genericity of the core algorithms in tests.
//!
//! # Scalar genericity
//!
//! The per-pair methods are generic over the storage [`Scalar`] `S`
//! (`f64` or `f32`), so one `Distance` implementation serves both storage
//! precisions.  Three families with distinct accuracy contracts:
//!
//! * [`Distance::distance_slices`] returns the **exact** distance: each
//!   coordinate is widened to `f64` before accumulating, so the result is
//!   `f64` arithmetic over the stored rows at either precision.
//! * [`Distance::surrogate`] is the **comparison-space** value, computed
//!   *and accumulated* in `S` — the bandwidth-halved fast path for scans
//!   that only compare distances.
//! * [`Distance::wide_surrogate`] is the **certification** surrogate:
//!   order-equivalent to the distance like `surrogate`, but `f64`-accumulated
//!   from the `S` rows.  The covering-radius and coverage verifiers scan on
//!   this, so every reported quality number is exact regardless of storage
//!   precision.
//!
//! # Surrogate (comparison-space) distances
//!
//! The hot scans never need actual distances — only their *order* (which
//! center is nearest, which point is farthest).  [`Distance::surrogate`]
//! returns a value that is order-equivalent to the distance but may be
//! cheaper: squared Euclidean skips the `sqrt`, Minkowski skips the final
//! `p`-th root.  [`Distance::surrogate_to_distance`] converts a surrogate
//! value back (one `sqrt` per winner instead of one per pair), and
//! [`Distance::distance_to_surrogate`] converts a distance threshold into
//! surrogate space for early-exit scans.

use crate::kernel::{self, dist2_auto, dist2_wide, dist2_wide_auto};
use crate::point::Point;
use crate::scalar::Scalar;

/// A distance function over coordinate rows.
///
/// The required methods work on raw `&[S]` slices so implementations can
/// be driven directly from the flat [`crate::FlatPoints`] store at either
/// storage precision without materialising [`Point`]s; the `&Point` form is
/// a thin convenience wrapper over the `f64` instantiation.
///
/// Implementations used with the k-center approximation algorithms must be
/// *metrics* (non-negative, zero iff equal up to representation, symmetric,
/// triangle inequality); the approximation factors of GON, MRG and EIM all
/// rely on the triangle inequality.  [`SquaredEuclidean`] is provided for
/// nearest-neighbour style comparisons but is **not** a metric and is
/// rejected by the algorithms unless explicitly allowed.
///
/// Because the per-pair methods are generic over [`Scalar`], the trait is
/// not dyn-compatible; the algorithms are generic over `D: Distance`
/// instead of boxing.
pub trait Distance: Send + Sync {
    /// Computes the exact distance between two coordinate rows: every
    /// coordinate is widened to `f64` before accumulating, so the result
    /// carries no reduced-precision scan error (only the rows' own storage
    /// rounding).
    ///
    /// # Panics
    ///
    /// Implementations may panic if the rows have different lengths.
    fn distance_slices<S: Scalar>(&self, a: &[S], b: &[S]) -> f64;

    /// Computes the distance between two points (exact `f64` arithmetic on
    /// the points' own `f64` coordinates).
    #[inline]
    fn distance(&self, a: &Point, b: &Point) -> f64 {
        self.distance_slices(a.coords(), b.coords())
    }

    /// An order-equivalent, possibly cheaper stand-in for the distance,
    /// computed and accumulated in `S`: `surrogate(a, b) <= surrogate(c, d)`
    /// iff `distance(a, b) <= distance(c, d)` (up to `S` rounding, which may
    /// turn near-ties into exact ties).  Defaults to the distance rounded
    /// into `S`.
    #[inline]
    fn surrogate<S: Scalar>(&self, a: &[S], b: &[S]) -> S {
        S::from_f64(self.distance_slices(a, b))
    }

    /// Maps a surrogate value back to the distance it stands for.
    #[inline]
    fn surrogate_to_distance<S: Scalar>(&self, s: S) -> f64 {
        s.to_f64()
    }

    /// Maps a distance into surrogate space (the inverse of
    /// [`Distance::surrogate_to_distance`] on non-negative values, up to
    /// `S` rounding).
    #[inline]
    fn distance_to_surrogate<S: Scalar>(&self, d: f64) -> S {
        S::from_f64(d)
    }

    /// The certification surrogate: order-equivalent to the distance (like
    /// [`Distance::surrogate`]) but accumulated in `f64` from the `S` rows,
    /// so scans on it are exact at either storage precision.  Defaults to
    /// the distance itself.
    #[inline]
    fn wide_surrogate<S: Scalar>(&self, a: &[S], b: &[S]) -> f64 {
        self.distance_slices(a, b)
    }

    /// [`Distance::wide_surrogate`] through the dispatched kernel backend
    /// (`kernel::simd`): the same `f64`-accumulated quantity, but an SIMD
    /// backend may sum it in its own pinned order, so values are
    /// bit-deterministic per `(precision, kernel)` rather than per
    /// precision alone.  The batch *reporting* path behind the lower-bound
    /// scans (`MetricSpace::wide_cmp_distances_from`) rides this; the
    /// `wide_cmp_*` certification scans keep using
    /// [`Distance::wide_surrogate`].  Defaults to the undispatched value.
    #[inline]
    fn wide_surrogate_auto<S: Scalar>(&self, a: &[S], b: &[S]) -> f64 {
        self.wide_surrogate(a, b)
    }

    /// Maps a wide-surrogate value back to the distance it stands for.
    #[inline]
    fn wide_surrogate_to_distance(&self, s: f64) -> f64 {
        s
    }

    /// Maps a distance into wide-surrogate space (the inverse of
    /// [`Distance::wide_surrogate_to_distance`] on non-negative values).
    #[inline]
    fn distance_to_wide_surrogate(&self, d: f64) -> f64 {
        d
    }

    /// The fused Gonzalez step in surrogate space over contiguous rows
    /// (`coords[i*dim..(i+1)*dim]` is row `i`): lowers `nearest[i]` to
    /// `min(nearest[i], surrogate(row_i, center_row))` and returns the
    /// position and value of the maximum updated entry (ties toward the
    /// smaller index).
    ///
    /// Implementations with a cheap surrogate may provide a
    /// dimension-specialised kernel ([`Euclidean`] does); the default runs
    /// the blocked relax loop of [`crate::kernel`] over
    /// [`Distance::surrogate`].
    fn relax_rows_max<S: Scalar>(
        &self,
        coords: &[S],
        dim: usize,
        center_row: &[S],
        nearest: &mut [S],
    ) -> (usize, S) {
        kernel::relax_rows(coords, dim, nearest, |row| self.surrogate(row, center_row))
    }

    /// [`Distance::relax_rows_max`] over an explicit id subset: row
    /// `subset[i]` pairs with `nearest[i]`.
    fn relax_ids_max<S: Scalar>(
        &self,
        coords: &[S],
        dim: usize,
        subset: &[usize],
        center_row: &[S],
        nearest: &mut [S],
    ) -> (usize, S) {
        kernel::relax_ids(coords, dim, subset, nearest, |row| {
            self.surrogate(row, center_row)
        })
    }

    /// Whether this distance satisfies the triangle inequality.
    ///
    /// The k-center algorithms assert this before running, since their
    /// approximation guarantees are meaningless otherwise.
    fn is_metric(&self) -> bool {
        true
    }

    /// Whether the comparison-space scans of this distance can be served
    /// by the axis-aligned spatial grid (`crate::grid`): true only when
    /// [`Distance::surrogate`] and [`Distance::wide_surrogate`] are the
    /// squared Euclidean norm of the coordinate rows, so an axis-aligned
    /// box distance is a valid lower bound in both spaces.  Defaults to
    /// `false`; the grid arm falls back to the dense scan.
    fn supports_grid(&self) -> bool {
        false
    }

    /// Human-readable name used in experiment reports.
    fn name(&self) -> &'static str;
}

/// The Euclidean (`L2`) metric — the distance used throughout the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Euclidean;

impl Distance for Euclidean {
    #[inline]
    fn distance_slices<S: Scalar>(&self, a: &[S], b: &[S]) -> f64 {
        dist2_wide(a, b).sqrt()
    }

    /// Squared distance in `S`: order-equivalent and one `sqrt` cheaper per
    /// pair, accumulated at storage precision (the fast path, through the
    /// dispatched kernel backend).
    #[inline]
    fn surrogate<S: Scalar>(&self, a: &[S], b: &[S]) -> S {
        dist2_auto(a, b)
    }

    #[inline]
    fn surrogate_to_distance<S: Scalar>(&self, s: S) -> f64 {
        s.to_f64().sqrt()
    }

    #[inline]
    fn distance_to_surrogate<S: Scalar>(&self, d: f64) -> S {
        S::from_f64(d * d)
    }

    /// Squared distance accumulated in `f64` — the certification scan
    /// (fixed scalar kernel, independent of the dispatched backend).
    #[inline]
    fn wide_surrogate<S: Scalar>(&self, a: &[S], b: &[S]) -> f64 {
        dist2_wide(a, b)
    }

    /// Squared distance accumulated in `f64` through the dispatched kernel
    /// backend — the batch-reporting fast path.
    #[inline]
    fn wide_surrogate_auto<S: Scalar>(&self, a: &[S], b: &[S]) -> f64 {
        dist2_wide_auto(a, b)
    }

    #[inline]
    fn wide_surrogate_to_distance(&self, s: f64) -> f64 {
        s.sqrt()
    }

    #[inline]
    fn distance_to_wide_surrogate(&self, d: f64) -> f64 {
        d * d
    }

    fn relax_rows_max<S: Scalar>(
        &self,
        coords: &[S],
        dim: usize,
        center_row: &[S],
        nearest: &mut [S],
    ) -> (usize, S) {
        kernel::relax_max_rows_coords(coords, dim, center_row, nearest)
    }

    fn relax_ids_max<S: Scalar>(
        &self,
        coords: &[S],
        dim: usize,
        subset: &[usize],
        center_row: &[S],
        nearest: &mut [S],
    ) -> (usize, S) {
        kernel::relax_max_ids_coords(coords, dim, subset, center_row, nearest)
    }

    fn name(&self) -> &'static str {
        "euclidean"
    }

    /// Both surrogates are squared L2 over the rows, so box lower bounds
    /// are valid and the grid arm may serve the scans.
    fn supports_grid(&self) -> bool {
        true
    }
}

/// Squared Euclidean distance.  Cheaper than [`Euclidean`] (no square root)
/// and order-equivalent to it, but **not** a metric: the triangle inequality
/// fails, so it must not be used with the approximation algorithms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SquaredEuclidean;

impl Distance for SquaredEuclidean {
    #[inline]
    fn distance_slices<S: Scalar>(&self, a: &[S], b: &[S]) -> f64 {
        dist2_wide(a, b)
    }

    #[inline]
    fn surrogate<S: Scalar>(&self, a: &[S], b: &[S]) -> S {
        dist2_auto(a, b)
    }

    fn is_metric(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "squared-euclidean"
    }
}

/// The Manhattan (`L1`) metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Manhattan;

impl Distance for Manhattan {
    #[inline]
    fn distance_slices<S: Scalar>(&self, a: &[S], b: &[S]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x.to_f64() - y.to_f64()).abs())
            .sum()
    }

    /// The `L1` sum accumulated in `S` (order-equivalent fast path).
    #[inline]
    fn surrogate<S: Scalar>(&self, a: &[S], b: &[S]) -> S {
        debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
        let mut sum = S::ZERO;
        for (x, y) in a.iter().zip(b.iter()) {
            sum += (*x - *y).abs();
        }
        sum
    }

    fn name(&self) -> &'static str {
        "manhattan"
    }
}

/// The Chebyshev (`L∞`) metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Chebyshev;

impl Distance for Chebyshev {
    #[inline]
    fn distance_slices<S: Scalar>(&self, a: &[S], b: &[S]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x.to_f64() - y.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// The coordinate-gap maximum taken in `S` (order-equivalent fast path).
    #[inline]
    fn surrogate<S: Scalar>(&self, a: &[S], b: &[S]) -> S {
        debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
        let mut max = S::ZERO;
        for (x, y) in a.iter().zip(b.iter()) {
            max = max.max((*x - *y).abs());
        }
        max
    }

    fn name(&self) -> &'static str {
        "chebyshev"
    }
}

/// The Minkowski (`Lp`) metric for a configurable exponent `p >= 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Minkowski {
    p: f64,
}

impl Minkowski {
    /// Creates an `Lp` metric.
    ///
    /// # Panics
    ///
    /// Panics if `p < 1` (the triangle inequality fails for `p < 1`).
    pub fn new(p: f64) -> Self {
        assert!(
            p >= 1.0 && p.is_finite(),
            "Minkowski exponent must be finite and >= 1"
        );
        Self { p }
    }

    /// The exponent `p`.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl Distance for Minkowski {
    #[inline]
    fn distance_slices<S: Scalar>(&self, a: &[S], b: &[S]) -> f64 {
        self.wide_surrogate(a, b).powf(1.0 / self.p)
    }

    /// The `p`-th power of the distance, accumulated in `S`:
    /// order-equivalent and one `powf` cheaper per pair.
    #[inline]
    fn surrogate<S: Scalar>(&self, a: &[S], b: &[S]) -> S {
        debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
        let p = S::from_f64(self.p);
        let mut sum = S::ZERO;
        for (x, y) in a.iter().zip(b.iter()) {
            sum += (*x - *y).abs().powf(p);
        }
        sum
    }

    #[inline]
    fn surrogate_to_distance<S: Scalar>(&self, s: S) -> f64 {
        s.to_f64().powf(1.0 / self.p)
    }

    #[inline]
    fn distance_to_surrogate<S: Scalar>(&self, d: f64) -> S {
        S::from_f64(d.powf(self.p))
    }

    /// The `p`-th power of the distance, accumulated in `f64` (certification
    /// scan).
    #[inline]
    fn wide_surrogate<S: Scalar>(&self, a: &[S], b: &[S]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x.to_f64() - y.to_f64()).abs().powf(self.p))
            .sum()
    }

    #[inline]
    fn wide_surrogate_to_distance(&self, s: f64) -> f64 {
        s.powf(1.0 / self.p)
    }

    #[inline]
    fn distance_to_wide_surrogate(&self, d: f64) -> f64 {
        d.powf(self.p)
    }

    fn name(&self) -> &'static str {
        "minkowski"
    }
}

/// Hamming / overlap distance: the number of coordinates in which the two
/// points differ.  The natural metric for categorical attributes such as the
/// suits and ranks of the Poker Hand data set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hamming;

impl Distance for Hamming {
    #[inline]
    fn distance_slices<S: Scalar>(&self, a: &[S], b: &[S]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
        a.iter().zip(b.iter()).filter(|(x, y)| x != y).count() as f64
    }

    fn name(&self) -> &'static str {
        "hamming"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(coords: &[f64]) -> Point {
        Point::new(coords.to_vec())
    }

    #[test]
    fn euclidean_matches_hand_computation() {
        let d = Euclidean.distance(&p(&[0.0, 0.0]), &p(&[3.0, 4.0]));
        assert!((d - 5.0).abs() < 1e-12);
    }

    #[test]
    fn euclidean_is_zero_on_identical_points() {
        let a = p(&[1.5, -2.5, 3.0]);
        assert_eq!(Euclidean.distance(&a, &a), 0.0);
    }

    #[test]
    fn f32_slices_give_exact_distances_on_exact_inputs() {
        // Integer coordinates are exact at f32, so the widened distance
        // must agree with the f64 computation exactly.
        let a64 = [0.0f64, 0.0, 3.0];
        let b64 = [3.0f64, 4.0, 3.0];
        let a32 = [0.0f32, 0.0, 3.0];
        let b32 = [3.0f32, 4.0, 3.0];
        assert_eq!(
            Euclidean.distance_slices(&a32, &b32),
            Euclidean.distance_slices(&a64, &b64)
        );
        assert_eq!(
            Manhattan.distance_slices(&a32, &b32),
            Manhattan.distance_slices(&a64, &b64)
        );
        // Comparison-space surrogates stay in S.
        let s: f32 = Euclidean.surrogate(&a32, &b32);
        assert_eq!(s, 25.0f32);
        assert_eq!(Euclidean.surrogate_to_distance(s), 5.0);
    }

    #[test]
    fn squared_euclidean_is_square_of_euclidean() {
        let a = p(&[1.0, 2.0]);
        let b = p(&[4.0, 6.0]);
        let e = Euclidean.distance(&a, &b);
        let s = SquaredEuclidean.distance(&a, &b);
        assert!((s - e * e).abs() < 1e-9);
        assert!(!SquaredEuclidean.is_metric());
    }

    #[test]
    fn manhattan_matches_hand_computation() {
        let d = Manhattan.distance(&p(&[1.0, 2.0]), &p(&[4.0, -2.0]));
        assert!((d - 7.0).abs() < 1e-12);
    }

    #[test]
    fn chebyshev_takes_max_coordinate_gap() {
        let d = Chebyshev.distance(&p(&[1.0, 2.0, 3.0]), &p(&[2.0, 10.0, 3.5]));
        assert!((d - 8.0).abs() < 1e-12);
    }

    #[test]
    fn minkowski_p1_equals_manhattan_p2_equals_euclidean() {
        let a = p(&[1.0, -2.0, 0.5]);
        let b = p(&[-3.0, 4.0, 2.0]);
        let m1 = Minkowski::new(1.0).distance(&a, &b);
        let m2 = Minkowski::new(2.0).distance(&a, &b);
        assert!((m1 - Manhattan.distance(&a, &b)).abs() < 1e-9);
        assert!((m2 - Euclidean.distance(&a, &b)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "Minkowski exponent")]
    fn minkowski_rejects_p_below_one() {
        Minkowski::new(0.5);
    }

    #[test]
    fn hamming_counts_differing_coordinates() {
        let d = Hamming.distance(&p(&[1.0, 2.0, 3.0, 4.0]), &p(&[1.0, 5.0, 3.0, 0.0]));
        assert_eq!(d, 2.0);
    }

    #[test]
    fn wide_surrogates_round_trip_for_every_metric() {
        let a = [1.0f32, -2.0, 0.5, 7.25];
        let b = [-3.0f32, 4.0, 2.0, -1.5];
        macro_rules! check {
            ($m:expr) => {{
                let d = $m.distance_slices(&a, &b);
                let w = $m.wide_surrogate(&a, &b);
                assert!(
                    ($m.wide_surrogate_to_distance(w) - d).abs() <= 1e-12 * (1.0 + d),
                    "{}: wide surrogate does not round-trip",
                    $m.name()
                );
                assert!(
                    ($m.wide_surrogate_to_distance($m.distance_to_wide_surrogate(d)) - d).abs()
                        <= 1e-9 * (1.0 + d),
                    "{}: distance_to_wide_surrogate is not inverse",
                    $m.name()
                );
            }};
        }
        check!(Euclidean);
        check!(SquaredEuclidean);
        check!(Manhattan);
        check!(Chebyshev);
        check!(Minkowski::new(3.0));
        check!(Hamming);
    }

    #[test]
    fn all_metrics_report_names() {
        assert_eq!(Euclidean.name(), "euclidean");
        assert_eq!(Manhattan.name(), "manhattan");
        assert_eq!(Chebyshev.name(), "chebyshev");
        assert_eq!(Hamming.name(), "hamming");
        assert_eq!(Minkowski::new(3.0).name(), "minkowski");
        assert_eq!(SquaredEuclidean.name(), "squared-euclidean");
    }

    #[test]
    fn metric_flags() {
        assert!(Euclidean.is_metric());
        assert!(Manhattan.is_metric());
        assert!(Chebyshev.is_metric());
        assert!(Hamming.is_metric());
        assert!(Minkowski::new(4.0).is_metric());
    }
}
