//! Solution evaluation: covering radius, assignments, and cluster sizes.
//!
//! The paper reports the k-center objective (which it calls the *solution
//! value*): the maximum, over all points of the instance, of the distance to
//! the nearest chosen center.  These scans are linear in `n · |centers|` and
//! are the single most common operation in the experiment harness, so a
//! rayon-parallel implementation is provided and used by default above a
//! small size threshold.
//!
//! # Certification in `f64`
//!
//! These are the *verifiers*: every number they produce is reported as a
//! quality result, so — unlike the selection scans, which may run at a
//! reduced storage precision — they scan in **certification space**
//! (`wide_cmp_*`: squared distances for Euclidean spaces, accumulated in
//! `f64` from the stored rows; see `kcenter_metric::space`).  On an `f32`
//! space the covering radius is therefore the exact `f64` max-of-mins over
//! the rounded coordinates: storage precision perturbs the *input* (one
//! `2^-24` relative rounding per coordinate) but never the evaluation
//! arithmetic, and per `(seed, precision)` pair the result is bit-for-bit
//! deterministic.
//!
//! The scans still prune with the early-exit
//! `wide_cmp_distance_to_set_bounded`: while computing a max-of-mins, a
//! point whose running minimum has already dropped to the current maximum
//! can stop scanning centers — it cannot raise the maximum.  The winner is
//! converted back to a real distance once at the end, so exactly one `sqrt`
//! is taken per evaluation.
//!
//! # One fused scan per point
//!
//! Every scan here asks one question per point of the whole center list,
//! through one space call: `wide_cmp_distance_to_set{,_bounded}` for the
//! certified numbers and [`VecSpace::nearest`] for [`assign`]'s dense
//! arm.  On a Euclidean space each is one fused, dimension-specialised
//! kernel call (`kcenter_metric::kernel::{wide_nearest_ids, nearest_ids}`)
//! rather than one distance call per pair; the per-pair arithmetic is the
//! same, so every radius bit and label is too.

use kcenter_mapreduce::{DegradedRun, DroppedShard};
use kcenter_metric::grid::{self, SpatialGrid};
use kcenter_metric::{Distance, PointId, Scalar, VecSpace};
use rayon::prelude::*;

/// Below this many (point, center) pairs the sequential scan is used; above
/// it the rayon-parallel scan is used.
const PARALLEL_THRESHOLD: usize = 1 << 14;

/// The covering radius of `centers` over the entire space: the paper's
/// solution value.  Returns `0.0` for an empty space and `f64::INFINITY`
/// when `centers` is empty but the space is not.
pub fn covering_radius<D: Distance, S: Scalar>(space: &VecSpace<D, S>, centers: &[PointId]) -> f64 {
    let ids: Vec<PointId> = (0..space.len()).collect();
    covering_radius_subset(space, &ids, centers)
}

/// Max-of-mins over one contiguous block of points, in certification
/// (`f64`-accumulated) space, pruning each point's center scan at the
/// block's running maximum.
fn wide_radius_block<D: Distance, S: Scalar>(
    space: &VecSpace<D, S>,
    block: &[PointId],
    centers: &[PointId],
) -> f64 {
    let mut max = f64::NEG_INFINITY;
    for &p in block {
        let d = space.wide_cmp_distance_to_set_bounded(p, centers, max);
        if d > max {
            max = d;
        }
    }
    max
}

/// The covering radius of `centers` over an explicit subset of the space.
/// Used by the multi-round algorithms, whose intermediate rounds only cover
/// the points assigned to one machine.
pub fn covering_radius_subset<D: Distance, S: Scalar>(
    space: &VecSpace<D, S>,
    subset: &[PointId],
    centers: &[PointId],
) -> f64 {
    if subset.is_empty() {
        return 0.0;
    }
    if centers.is_empty() {
        return f64::INFINITY;
    }
    let work = subset.len().saturating_mul(centers.len());
    let wide_max = if work >= PARALLEL_THRESHOLD {
        subset
            .par_chunks(1 << 12)
            .map(|block| wide_radius_block(space, block, centers))
            .reduce(|| f64::NEG_INFINITY, f64::max)
    } else {
        wide_radius_block(space, subset, centers)
    };
    space.metric().wide_surrogate_to_distance(wide_max.max(0.0))
}

/// The ascending ids in `0..n` not present in `lost` (which need not be
/// sorted) — the points a degraded run still speaks for.
pub(crate) fn surviving_ids(n: usize, lost: &[PointId]) -> Vec<PointId> {
    if lost.is_empty() {
        return (0..n).collect();
    }
    let mut dead = vec![false; n];
    for &id in lost {
        dead[id] = true;
    }
    (0..n).filter(|&id| !dead[id]).collect()
}

/// The certificate of a MapReduce run that degrade mode may have cut
/// short: the covering radius of `centers` over every point not in `lost`
/// (the points that left the coverage claim with a dropped shard), and —
/// when any shard was `dropped` — the partial-coverage disclosure the
/// result must carry.  A radius is never silently claimed over the full
/// input.
pub(crate) fn certify_survivors<D: Distance, S: Scalar>(
    space: &VecSpace<D, S>,
    centers: &[PointId],
    lost: &[PointId],
    dropped: &[DroppedShard],
) -> (f64, Option<DegradedRun>) {
    let n = space.len();
    let radius = covering_radius_subset(space, &surviving_ids(n, lost), centers);
    let degraded = (!dropped.is_empty()).then(|| DegradedRun {
        covered_points: n - lost.len(),
        total_points: n,
        dropped_shards: dropped.to_vec(),
    });
    (radius, degraded)
}

/// Whether every point of the space lies within `radius` of some center —
/// the coverage check behind the approximation-factor probes.  Runs in
/// certification space (`f64`-accumulated regardless of storage precision)
/// with the early-exit scan: each point stops at the first center within
/// `radius`.
pub fn covered_within<D: Distance, S: Scalar>(
    space: &VecSpace<D, S>,
    centers: &[PointId],
    radius: f64,
) -> bool {
    if space.is_empty() {
        return true;
    }
    // Distances are non-negative, so a negative radius covers no point —
    // and mapping it through e.g. `d*d` would flip its sign.
    if centers.is_empty() || radius < 0.0 {
        return false;
    }
    let wide_radius = space.metric().distance_to_wide_surrogate(radius);
    let check =
        |p: PointId| space.wide_cmp_distance_to_set_bounded(p, centers, wide_radius) <= wide_radius;
    if space.len().saturating_mul(centers.len()) >= PARALLEL_THRESHOLD {
        // `all` terminates early across workers on the first uncovered point.
        (0..space.len()).into_par_iter().all(check)
    } else {
        (0..space.len()).all(check)
    }
}

/// Assigns every point of the space to its nearest center, breaking ties by
/// the smaller center position (consistent with the paper's "breaking ties
/// arbitrarily but consistently").  Returns, for each point, the index into
/// `centers` of its assigned center.
///
/// # Panics
///
/// Panics if `centers` is empty while the space is not.
pub fn assign<D: Distance, S: Scalar>(space: &VecSpace<D, S>, centers: &[PointId]) -> Vec<usize> {
    if space.is_empty() {
        return Vec::new();
    }
    assert!(
        !centers.is_empty(),
        "cannot assign points to an empty center set"
    );
    // Argmin is order-invariant, so the scan runs in comparison space (at
    // storage precision — assignment is a selection, not a reported
    // distance; ties from coarser rounding still resolve to the smaller
    // center position, deterministically).  The grid arm buckets the
    // centers and probes cell rings per point — bit-identical to the dense
    // loop (see `kcenter_metric::grid`) — when the `--assign` dispatch and
    // the space allow it.
    let dim = space.row(centers[0]).len();
    let shape = grid::ScanShape {
        kind: grid::ScanKind::Assign,
        points: space.len(),
        candidates: centers.len(),
        dim,
    };
    let center_grid = if grid::select_mode(shape) == grid::AssignMode::Grid {
        SpatialGrid::build(space, centers, grid::NEAREST_OCCUPANCY)
    } else {
        None
    };
    grid::note_scan(if center_grid.is_some() {
        grid::AssignMode::Grid
    } else {
        grid::AssignMode::Dense
    });
    let assign_one = |p: PointId| match &center_grid {
        Some(g) => g.nearest_member(space, centers, p).0,
        None => space.nearest(p, centers).0,
    };
    let work = space.len().saturating_mul(centers.len());
    if work >= PARALLEL_THRESHOLD {
        (0..space.len()).into_par_iter().map(assign_one).collect()
    } else {
        (0..space.len()).map(assign_one).collect()
    }
}

/// Number of points assigned to each center, given an assignment produced by
/// [`assign`].
pub fn cluster_sizes(assignment: &[usize], num_centers: usize) -> Vec<usize> {
    let mut sizes = vec![0usize; num_centers];
    for &a in assignment {
        assert!(a < num_centers, "assignment index out of range");
        sizes[a] += 1;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcenter_metric::{Point, VecSpace};

    fn line(n: usize) -> VecSpace {
        VecSpace::new((0..n).map(|i| Point::xy(i as f64, 0.0)).collect())
    }

    #[test]
    fn covering_radius_of_line_with_endpoints_as_centers() {
        let s = line(11);
        let r = covering_radius(&s, &[0, 10]);
        assert!((r - 5.0).abs() < 1e-12);
    }

    #[test]
    fn covering_radius_zero_when_every_point_is_a_center() {
        let s = line(5);
        let r = covering_radius(&s, &[0, 1, 2, 3, 4]);
        assert_eq!(r, 0.0);
    }

    #[test]
    fn covering_radius_empty_center_set_is_infinite() {
        let s = line(3);
        assert!(covering_radius(&s, &[]).is_infinite());
    }

    #[test]
    fn covering_radius_of_empty_space_is_zero() {
        let s = VecSpace::new(vec![]);
        assert_eq!(covering_radius(&s, &[]), 0.0);
    }

    #[test]
    fn covering_radius_subset_only_counts_subset_points() {
        let s = line(100);
        // Center at 0, subset only near it: the far points do not count.
        let r = covering_radius_subset(&s, &[0, 1, 2], &[0]);
        assert!((r - 2.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_and_sequential_paths_agree() {
        // Large enough to cross PARALLEL_THRESHOLD with 3 centers.
        let s = line(20_000);
        let centers = vec![0, 10_000, 19_999];
        let par = covering_radius(&s, &centers);
        let seq: f64 = (0..20_000)
            .map(|p| s.distance_to_set(p, &centers))
            .fold(0.0, f64::max);
        assert!((par - seq).abs() < 1e-9);
    }

    #[test]
    fn covered_within_rejects_a_negative_radius() {
        let s = line(2);
        assert!(covered_within(&s, &[0], 1.0));
        assert!(!covered_within(&s, &[0], -1.0));
        // Even the points that are centers: no distance is negative.
        assert!(!covered_within(&s, &[0, 1], -1.0));
        // An empty space is covered by anything.
        assert!(covered_within(&VecSpace::new(vec![]), &[], -1.0));
    }

    #[test]
    fn assign_picks_nearest_center_with_consistent_ties() {
        let s = line(5);
        let a = assign(&s, &[0, 4]);
        assert_eq!(a, vec![0, 0, 0, 1, 1]); // point 2 ties -> smaller index 0
    }

    #[test]
    #[should_panic(expected = "empty center set")]
    fn assign_rejects_empty_centers() {
        assign(&line(3), &[]);
    }

    #[test]
    fn assign_of_empty_space_is_empty() {
        let s = VecSpace::new(vec![]);
        assert!(assign(&s, &[]).is_empty());
    }

    #[test]
    fn cluster_sizes_counts_assignments() {
        let sizes = cluster_sizes(&[0, 0, 1, 2, 1, 0], 3);
        assert_eq!(sizes, vec![3, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cluster_sizes_rejects_bad_assignment() {
        cluster_sizes(&[0, 5], 2);
    }
}
