//! The metric space: a point collection plus a distance.
//!
//! The clustering algorithms address points by [`PointId`] and only ever ask
//! the space for distances between indexed points.  [`VecSpace`] is that
//! space: it computes distances on demand from coordinates held in a
//! contiguous [`FlatPoints`] store — the representation the paper uses for
//! its experiments, because shipping a full `n × n` matrix between
//! simulated machines would be wasteful (Section 7.3).  It is generic over
//! the [`Distance`] and the storage [`Scalar`] (`VecSpace<Euclidean, f32>`
//! halves the scan bandwidth), and every solver, evaluator and grid takes a
//! `&VecSpace<D, S>`.
//!
//! # Comparison space and certification space
//!
//! The hot scans (farthest-point selection, nearest-center relaxation) only
//! compare distances, so they run in *comparison space*:
//! [`VecSpace::cmp_distance`] returns an order-equivalent surrogate of the
//! storage scalar `S`, so an `f32` space runs these scans entirely in `f32`
//! (squared Euclidean, no `sqrt` per pair), and the metric's
//! [`Distance::surrogate_to_distance`] converts a final winner back to a
//! real distance.  [`VecSpace::relax_max`] is the one Gonzalez relax step,
//! over the whole space or a subset, sequential or chunked-parallel, and
//! [`VecSpace::nearest`] the one nearest-candidate scan (the assignment
//! argmin).
//!
//! Evaluation is different: a covering radius is a *reported* number, so
//! the verifiers use the `wide_cmp_*` family instead, which is also
//! order-equivalent but accumulated in `f64` from the stored rows, and
//! convert with [`Distance::wide_surrogate_to_distance`] /
//! [`Distance::distance_to_wide_surrogate`].  Every real-distance query
//! ([`VecSpace::distance`], [`VecSpace::distance_to_set`]) and every
//! `wide_cmp_*` scan is therefore exact `f64` arithmetic at any storage
//! precision; only the comparison-space selection scans run narrow.

use crate::distance::{Distance, Euclidean};
use crate::flat::FlatPoints;
use crate::kernel;
use crate::point::Point;
use crate::scalar::Scalar;
use crate::PointId;
use rayon::prelude::*;
use std::sync::Arc;

/// Whether `subset` is exactly the identity `0..n` — the full-space case
/// the row-streaming kernels exploit (no index indirection).
pub fn is_identity_subset(subset: &[PointId], n: usize) -> bool {
    subset.len() == n && subset.iter().enumerate().all(|(i, &p)| i == p)
}

/// A finite metric space backed by a contiguous [`FlatPoints`] store and a
/// distance function evaluated on demand over coordinate rows.
///
/// The second type parameter is the storage [`Scalar`]: `VecSpace<Euclidean>`
/// (i.e. `VecSpace<Euclidean, f64>`) is the exact reproduction mode, and
/// `VecSpace<Euclidean, f32>` halves the memory traffic of every
/// comparison-space scan while the `wide_cmp_*` certification scans keep the
/// reported quality numbers exact (see the module docs).
///
/// Properties of the distance itself (its name, whether it is a metric,
/// whether the spatial grid may serve it, the surrogate conversions) are
/// read from [`VecSpace::metric`]; the storage precision is `S::NAME`.
///
/// Cloning a `VecSpace` is cheap: the point storage is shared through an
/// [`Arc`], which is exactly what the simulated MapReduce machines need
/// (each reducer sees the same immutable point table and works on its own
/// index subset).
#[derive(Clone)]
pub struct VecSpace<D: Distance = Euclidean, S: Scalar = f64> {
    points: Arc<FlatPoints<S>>,
    dist: D,
}

impl<D: Distance, S: Scalar> VecSpace<D, S> {
    /// Creates a space directly over a flat store — the zero-copy path used
    /// by the data generators, at whatever precision the store carries.
    pub fn from_flat_with_distance(flat: FlatPoints<S>, dist: D) -> Self {
        Self {
            points: Arc::new(flat),
            dist,
        }
    }

    /// Number of points in the space.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the space contains no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The coordinate dimension of the points, or `None` if the space is
    /// empty.
    pub fn dim(&self) -> Option<usize> {
        if self.points.is_empty() {
            None
        } else {
            Some(self.points.dim())
        }
    }

    /// The flat coordinate store backing this space.
    pub fn flat(&self) -> &FlatPoints<S> {
        &self.points
    }

    /// The coordinate row of the point with index `id`, in the storage
    /// scalar.  The spatial grid (`crate::grid`) builds its geometry from
    /// these rows.
    #[inline]
    pub fn row(&self, id: PointId) -> &[S] {
        self.points.row(id)
    }

    /// An owned [`Point`] copy of the point with index `id` (widened to
    /// `f64`).
    pub fn point(&self, id: PointId) -> Point {
        self.points.point(id)
    }

    /// All points materialised as owned [`Point`]s, in index order.
    ///
    /// This copies; iterate [`VecSpace::flat`] rows for zero-copy access.
    pub fn points(&self) -> Vec<Point> {
        self.points.to_points()
    }

    /// The distance function.
    pub fn metric(&self) -> &D {
        &self.dist
    }

    /// Distance between the points with indices `a` and `b` (exact: `f64`
    /// accumulation regardless of the storage precision).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn distance(&self, a: PointId, b: PointId) -> f64 {
        self.dist.distance_slices(self.row(a), self.row(b))
    }

    /// Minimum distance from point `from` to any point in `to`.
    ///
    /// Returns `f64::INFINITY` when `to` is empty (no center yet covers the
    /// point), mirroring the convention used by Gonzalez-style algorithms.
    pub fn distance_to_set(&self, from: PointId, to: &[PointId]) -> f64 {
        // Scan in certification (f64-wide surrogate) space, convert the
        // winner once — exact at any storage precision, one sqrt total.
        self.dist
            .wide_surrogate_to_distance(self.wide_cmp_distance_to_set(from, to))
    }

    /// Comparison-space distance between two points: order-equivalent to
    /// [`VecSpace::distance`] but cheaper (squared Euclidean at storage
    /// precision).
    #[inline]
    pub fn cmp_distance(&self, a: PointId, b: PointId) -> S {
        self.dist.surrogate(self.row(a), self.row(b))
    }

    /// Certification-space distance: order-equivalent to the distance (like
    /// `cmp_distance`) but always an `f64` accumulated from the stored rows.
    /// The covering-radius and coverage verifiers scan on this so that
    /// reported quality numbers are exact at any storage precision.
    #[inline]
    pub fn wide_cmp_distance(&self, a: PointId, b: PointId) -> f64 {
        self.dist.wide_surrogate(self.row(a), self.row(b))
    }

    /// Certification-space minimum from point `from` to the points `to`
    /// (`+inf` when `to` is empty): the bounded scan that never stops
    /// early.
    pub fn wide_cmp_distance_to_set(&self, from: PointId, to: &[PointId]) -> f64 {
        self.wide_cmp_distance_to_set_bounded(from, to, f64::NEG_INFINITY)
    }

    /// Like [`VecSpace::wide_cmp_distance_to_set`], but stops scanning `to`
    /// as soon as the running minimum drops to `stop_below` or less: one
    /// fused scan (`crate::kernel::wide_nearest_ids` for Euclidean spaces).
    ///
    /// The returned value is an upper bound on the true minimum and is exact
    /// whenever it exceeds `stop_below`.  Coverage checks ("is every point
    /// within radius `r`?") and max-of-min scans only need that much, and
    /// the early exit skips most of the center list once a nearby center has
    /// been seen.
    pub fn wide_cmp_distance_to_set_bounded(
        &self,
        from: PointId,
        to: &[PointId],
        stop_below: f64,
    ) -> f64 {
        let flat = &*self.points;
        self.dist
            .wide_nearest_ids(flat.coords(), flat.dim(), to, flat.row(from), stop_below)
    }

    /// The comparison-space nearest of `candidates` to point `p`: the
    /// position (into `candidates`) and value of the minimum
    /// [`VecSpace::cmp_distance`], ties toward the smaller position;
    /// `(0, +inf)` when `candidates` is empty.  One fused scan
    /// (`crate::kernel::nearest_ids` for Euclidean spaces) with the
    /// per-pair values of `cmp_distance`, so the result is bit-identical to
    /// the pair-by-pair argmin.
    pub fn nearest(&self, p: PointId, candidates: &[PointId]) -> (usize, S) {
        let flat = &*self.points;
        self.dist
            .nearest_ids(flat.coords(), flat.dim(), candidates, flat.row(p))
    }

    /// One fused Gonzalez iteration in comparison space: lowers
    /// `nearest[i]` to `min(nearest[i], cmp_distance(p_i, center))` and
    /// returns the position (into `nearest`) and value of the maximum
    /// updated entry, ties toward the smaller position; `(0, -inf)` when
    /// `nearest` is empty.
    ///
    /// `p_i` is point `i` when `subset` is `None` (the whole space, streamed
    /// row by row with no index indirection) and `subset[i]` otherwise; an
    /// identity subset `0..len` takes the whole-space path.  With
    /// `parallel`, scans of at least [`kernel::PAR_CUTOFF`] points fork
    /// into [`kernel::PAR_CHUNK`]-point chunks whose winners combine in
    /// index order, so the result is bit-identical to the sequential scan.
    /// The MapReduce reducers pass `false`: their machines already run in
    /// parallel, and their sequential time is the simulated cost.
    ///
    /// # Panics
    ///
    /// Panics if `nearest` is not as long as the subset (or the space).
    pub fn relax_max(
        &self,
        subset: Option<&[PointId]>,
        center: PointId,
        nearest: &mut [S],
        parallel: bool,
    ) -> (usize, S) {
        let flat = &*self.points;
        let subset = subset.filter(|ids| !is_identity_subset(ids, flat.len()));
        assert_eq!(
            subset.map_or(flat.len(), <[PointId]>::len),
            nearest.len(),
            "subset/nearest length mismatch"
        );
        let (coords, dim) = (flat.coords(), flat.dim());
        let center_row = flat.row(center);
        // Relaxes the `near.len()` slots starting at position `offset`.
        let scan = |offset: usize, near: &mut [S]| match subset {
            None => {
                let rows = &coords[offset * dim..(offset + near.len()) * dim];
                self.dist.relax_rows_max(rows, dim, center_row, near)
            }
            Some(ids) => {
                let ids = &ids[offset..offset + near.len()];
                self.dist.relax_ids_max(coords, dim, ids, center_row, near)
            }
        };
        if !parallel || nearest.len() < kernel::PAR_CUTOFF {
            return scan(0, nearest);
        }
        const CHUNK: usize = kernel::PAR_CHUNK;
        nearest
            .par_chunks_mut(CHUNK)
            .enumerate()
            .map(|(chunk_idx, near_chunk)| {
                let (pos, v) = scan(chunk_idx * CHUNK, near_chunk);
                (chunk_idx * CHUNK + pos, v)
            })
            .reduce_with(|a, b| if b.1 > a.1 { b } else { a })
            .unwrap_or((0, S::NEG_INFINITY))
    }
}

impl<D: Distance, S: Scalar> std::fmt::Debug for VecSpace<D, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "VecSpace(n={}, dim={:?}, distance={}, precision={})",
            self.points.len(),
            self.dim(),
            self.dist.name(),
            S::NAME
        )
    }
}

impl<D: Distance> VecSpace<D, f64> {
    /// Creates an `f64` space over `points` with the given distance
    /// function.  (Pinned to `f64` so the storage scalar never has to be
    /// inferred from `Vec<Point>` input; build a [`FlatPoints`] at the
    /// target precision and use [`VecSpace::from_flat_with_distance`] for
    /// the reduced-precision mode.)
    ///
    /// # Panics
    ///
    /// Panics if the points do not all share the same dimension.
    pub fn with_distance(points: Vec<Point>, dist: D) -> Self {
        Self::from_flat_with_distance(FlatPoints::from_points(&points), dist)
    }
}

impl VecSpace<Euclidean, f64> {
    /// Creates a Euclidean `f64` space over `points` — the configuration
    /// used by every experiment in the paper.
    pub fn new(points: Vec<Point>) -> Self {
        Self::with_distance(points, Euclidean)
    }
}

impl<S: Scalar> VecSpace<Euclidean, S> {
    /// Creates a Euclidean space directly over a flat store (at the store's
    /// own precision).
    pub fn from_flat(flat: FlatPoints<S>) -> Self {
        Self::from_flat_with_distance(flat, Euclidean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Manhattan;

    fn square() -> Vec<Point> {
        vec![
            Point::xy(0.0, 0.0),
            Point::xy(1.0, 0.0),
            Point::xy(0.0, 1.0),
            Point::xy(1.0, 1.0),
        ]
    }

    #[test]
    fn vecspace_basic_queries() {
        let s = VecSpace::new(square());
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.dim(), Some(2));
        assert!((s.distance(0, 3) - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(s.metric().name(), "euclidean");
        assert!(s.metric().is_metric());
    }

    #[test]
    fn f32_space_runs_cmp_scans_in_f32_and_certifies_in_f64() {
        let s: VecSpace<Euclidean, f32> =
            VecSpace::from_flat(FlatPoints::<f32>::from_points(&square()));
        // Comparison space is f32 (the storage scalar).
        let c: f32 = s.cmp_distance(0, 3);
        assert_eq!(c, 2.0f32);
        // Certification space is f64-accumulated from the f32 rows.
        assert_eq!(s.wide_cmp_distance(0, 3), 2.0f64);
        assert!((s.distance(0, 3) - 2f64.sqrt()).abs() < 1e-15);
        assert_eq!(s.distance_to_set(3, &[0, 1]), 1.0);
    }

    #[test]
    fn vecspace_with_alternative_distance() {
        let s = VecSpace::with_distance(square(), Manhattan);
        assert!((s.distance(0, 3) - 2.0).abs() < 1e-12);
        assert_eq!(s.metric().name(), "manhattan");
    }

    #[test]
    fn empty_space_is_empty() {
        let s = VecSpace::new(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.dim(), None);
    }

    #[test]
    #[should_panic(expected = "share one dimension")]
    fn mixed_dimensions_rejected() {
        VecSpace::new(vec![Point::xy(0.0, 0.0), Point::xyz(0.0, 0.0, 0.0)]);
    }

    #[test]
    fn from_flat_shares_no_copies() {
        let flat = FlatPoints::from_coords(vec![0.0, 0.0, 3.0, 4.0], 2).unwrap();
        let s = VecSpace::from_flat(flat);
        assert_eq!(s.len(), 2);
        assert!((s.distance(0, 1) - 5.0).abs() < 1e-12);
        assert_eq!(s.row(1), &[3.0, 4.0]);
        assert_eq!(s.point(1), Point::xy(3.0, 4.0));
    }

    #[test]
    fn distance_to_set_takes_minimum_and_handles_empty() {
        let s = VecSpace::new(square());
        assert_eq!(s.distance_to_set(3, &[]), f64::INFINITY);
        let d = s.distance_to_set(3, &[0, 1]);
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bounded_distance_to_set_is_exact_above_threshold() {
        let s = VecSpace::new(square());
        let exact = s.wide_cmp_distance_to_set(3, &[0, 1, 2]);
        // Threshold below the true minimum: no early exit, exact result.
        assert_eq!(
            s.wide_cmp_distance_to_set_bounded(3, &[0, 1, 2], 0.5),
            exact
        );
        // Generous threshold: may stop early but never understates.
        assert!(s.wide_cmp_distance_to_set_bounded(3, &[0, 1, 2], 10.0) >= exact);
    }

    #[test]
    fn cmp_space_round_trips_to_distances() {
        let s = VecSpace::new(square());
        let cmp = s.cmp_distance(0, 3);
        assert!((cmp - 2.0).abs() < 1e-12, "squared surrogate expected");
        let m = s.metric();
        assert!((m.surrogate_to_distance(cmp) - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(
            m.surrogate_to_distance(s.cmp_distance(3, 1)),
            s.distance_to_set(3, &[0, 1])
        );
    }

    #[test]
    fn wide_cmp_space_round_trips_to_distances() {
        let s: VecSpace<Euclidean, f32> =
            VecSpace::from_flat(FlatPoints::<f32>::from_points(&square()));
        let w = s.wide_cmp_distance(0, 3);
        assert_eq!(w, 2.0);
        let m = s.metric();
        assert_eq!(m.wide_surrogate_to_distance(w), 2f64.sqrt());
        assert_eq!(
            m.distance_to_wide_surrogate(2f64.sqrt()),
            2.0000000000000004
        );
        assert_eq!(
            m.wide_surrogate_to_distance(s.wide_cmp_distance_to_set(3, &[0, 1])),
            s.distance_to_set(3, &[0, 1])
        );
    }

    #[test]
    fn relax_nearest_matches_pairwise_minimum() {
        let s = VecSpace::new(square());
        let mut nearest = vec![f64::INFINITY; 4];
        s.relax_max(None, 0, &mut nearest, false);
        let (pos, far) = s.relax_max(None, 3, &mut nearest, false);
        for (i, &v) in nearest.iter().enumerate() {
            let naive = s.cmp_distance(i, 0).min(s.cmp_distance(i, 3));
            assert_eq!(v, naive);
        }
        // Points 1 and 2 tie at squared distance 1: the lower position wins.
        assert_eq!((pos, far), (1, 1.0));
        // A subset pairs `nearest[i]` with `subset[i]`.
        let mut sub = vec![f64::INFINITY; 2];
        assert_eq!(s.relax_max(Some(&[3, 0]), 1, &mut sub, false), (0, 1.0));
        assert_eq!(sub, [1.0, 1.0]);
    }

    #[test]
    fn parallel_relax_breaks_ties_toward_smallest_index_above_cutoff() {
        // Every row coincides: every slot ties, so position 0 must win on
        // both paths.  Then plant equal maxima in several chunks: the first
        // occurrence wins, as in the sequential scan.
        let n = kernel::PAR_CUTOFF + 4 * kernel::PAR_CHUNK;
        let mut coords = vec![1.0f32; 2 * n];
        let space: VecSpace<Euclidean, f32> =
            VecSpace::from_flat(FlatPoints::from_coords(coords.clone(), 2).unwrap());
        for parallel in [false, true] {
            let mut nearest = vec![f32::INFINITY; n];
            assert_eq!(space.relax_max(None, 0, &mut nearest, parallel), (0, 0.0));
        }
        let planted = [3 * kernel::PAR_CHUNK + 7, 5 * kernel::PAR_CHUNK + 1];
        for &p in &planted {
            coords[2 * p] = 4.0;
        }
        let space: VecSpace<Euclidean, f32> =
            VecSpace::from_flat(FlatPoints::from_coords(coords, 2).unwrap());
        let ids: Vec<PointId> = (1..n).collect();
        for parallel in [false, true] {
            let mut nearest = vec![f32::INFINITY; n];
            let got = space.relax_max(None, 0, &mut nearest, parallel);
            assert_eq!(got, (planted[0], 9.0), "parallel={parallel}");
            let mut nearest = vec![f32::INFINITY; ids.len()];
            let got = space.relax_max(Some(&ids), 0, &mut nearest, parallel);
            assert_eq!(got, (planted[0] - 1, 9.0), "subset, parallel={parallel}");
        }
    }

    #[test]
    fn clone_shares_point_storage() {
        let s = VecSpace::new(square());
        let c = s.clone();
        assert!(Arc::ptr_eq(&s.points, &c.points));
    }
}
