//! k-center **with outliers**: the robust variant that may drop the `z`
//! farthest points before measuring the covering radius.
//!
//! The MPC line of related work (Czumaj–Gao–Ghaffari–Jiang; Coy–Czumaj–
//! Mishra) treats the with-outliers objective as first-class, and it is the
//! natural robustness knob for adversarial workloads: a handful of planted
//! far points otherwise dominate the max-of-mins objective no matter how
//! good the centers are.  Given a center set chosen by *any* solver arm,
//! [`evaluate_with_outliers`] certifies the radius over the kept `n − z`
//! points by ranking every point's nearest-center distance in
//! **certification space** (`wide_cmp_*`: squared distances accumulated in
//! `f64` from the stored rows — the same arithmetic as
//! [`covering_radius`]) and discarding
//! the `z` largest.
//!
//! # Determinism contract
//!
//! The dropped set is ordered by `(certified distance descending, point id
//! ascending)` — bit-deterministic per `(seed, precision, kernel, assign)`
//! like every other reported quantity.  With `z = 0` the kept radius is
//! **bit-identical** to [`covering_radius`]:
//! both compute the same `f64` max over the same per-point certification
//! values and convert once at the end (pinned by the outlier-parity tests).

use crate::evaluate::covering_radius;
use kcenter_metric::{Distance, PointId, Scalar, VecSpace};
use rayon::prelude::*;

/// Below this many (point, center) pairs the per-point distance scan runs
/// sequentially (mirrors `evaluate::PARALLEL_THRESHOLD`).
const PARALLEL_THRESHOLD: usize = 1 << 14;

/// The certified result of evaluating a center set under the with-outliers
/// objective.
#[derive(Debug, Clone, PartialEq)]
pub struct OutlierEvaluation {
    /// Certified covering radius over the kept `n − z` points (`0.0` when
    /// every point is dropped or the space is empty; `f64::INFINITY` when
    /// `centers` is empty but kept points remain).
    pub radius: f64,
    /// Certified covering radius over **all** points — always `>= radius`.
    pub full_radius: f64,
    /// The dropped points: the `z` farthest from the center set, ordered by
    /// certified distance descending, ties by ascending point id.
    pub dropped: Vec<PointId>,
}

impl OutlierEvaluation {
    /// Number of dropped points.
    pub fn z(&self) -> usize {
        self.dropped.len()
    }
}

/// Certifies `centers` under the with-outliers objective, dropping the `z`
/// farthest points of `space`.
///
/// Runs entirely in certification space: per-point nearest-center values
/// are accumulated in `f64` from the stored rows (`wide_cmp_*`), the drop
/// set is selected on those wide values with deterministic ties (farther
/// first, then lower id), and exactly two conversions back to real
/// distances are made — one for the kept radius, one for the full radius.
///
/// Requesting `z >= n` drops everything and certifies a zero radius over
/// the empty remainder.
pub fn evaluate_with_outliers<D: Distance, S: Scalar>(
    space: &VecSpace<D, S>,
    centers: &[PointId],
    z: usize,
) -> OutlierEvaluation {
    let n = space.len();
    if n == 0 {
        return OutlierEvaluation {
            radius: 0.0,
            full_radius: 0.0,
            dropped: Vec::new(),
        };
    }
    if z == 0 {
        // Fast path, and the parity anchor: identical code path to the
        // plain certified radius.
        let r = covering_radius(space, centers);
        return OutlierEvaluation {
            radius: r,
            full_radius: r,
            dropped: Vec::new(),
        };
    }
    if centers.is_empty() {
        let dropped: Vec<PointId> = (0..z.min(n)).collect();
        let radius = if z >= n { 0.0 } else { f64::INFINITY };
        return OutlierEvaluation {
            radius,
            full_radius: f64::INFINITY,
            dropped,
        };
    }

    // Certification-space nearest-center value for every point.  Unlike the
    // pruned max-of-mins scan, ranking needs every point's exact value, so
    // the bounded early exit cannot apply here.
    let wide_one = |p: PointId| space.wide_cmp_distance_to_set(p, centers);
    let wide: Vec<f64> = if n.saturating_mul(centers.len()) >= PARALLEL_THRESHOLD {
        (0..n).into_par_iter().map(wide_one).collect()
    } else {
        (0..n).map(wide_one).collect()
    };

    // Rank ids by (value desc, id asc): a total, deterministic order.
    let mut order: Vec<PointId> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| wide[b].total_cmp(&wide[a]).then(a.cmp(&b)));

    let z = z.min(n);
    let dropped = order[..z].to_vec();
    let to_distance = |w: f64| space.metric().wide_surrogate_to_distance(w.max(0.0));
    let full_radius = to_distance(wide[order[0]]);
    let radius = if z >= n {
        0.0
    } else {
        to_distance(wide[order[z]])
    };
    OutlierEvaluation {
        radius,
        full_radius,
        dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcenter_metric::{Point, VecSpace};

    fn line(n: usize) -> VecSpace {
        VecSpace::new((0..n).map(|i| Point::xy(i as f64, 0.0)).collect())
    }

    #[test]
    fn dropping_the_farthest_point_shrinks_the_radius() {
        // Points 0..10 on a line plus a far outlier at x = 100.
        let mut pts: Vec<Point> = (0..10).map(|i| Point::xy(i as f64, 0.0)).collect();
        pts.push(Point::xy(100.0, 0.0));
        let space = VecSpace::new(pts);
        let eval = evaluate_with_outliers(&space, &[0], 1);
        assert_eq!(eval.dropped, vec![10]);
        assert!((eval.full_radius - 100.0).abs() < 1e-9);
        assert!((eval.radius - 9.0).abs() < 1e-9);
    }

    #[test]
    fn z_zero_matches_covering_radius_bitwise() {
        let space = line(50);
        let centers = [0, 25];
        let eval = evaluate_with_outliers(&space, &centers, 0);
        let plain = covering_radius(&space, &centers);
        assert_eq!(eval.radius.to_bits(), plain.to_bits());
        assert_eq!(eval.full_radius.to_bits(), plain.to_bits());
        assert!(eval.dropped.is_empty());
    }

    #[test]
    fn ties_drop_the_lowest_id_first() {
        // Four points at distance 1 from the center, two at distance 2.
        let pts = vec![
            Point::xy(0.0, 0.0),  // center
            Point::xy(2.0, 0.0),  // far, id 1
            Point::xy(-2.0, 0.0), // far, id 2
            Point::xy(1.0, 0.0),
            Point::xy(-1.0, 0.0),
        ];
        let space = VecSpace::new(pts);
        let eval = evaluate_with_outliers(&space, &[0], 1);
        // Both far points tie at distance 2: the lower id is dropped.
        assert_eq!(eval.dropped, vec![1]);
        assert!((eval.radius - 2.0).abs() < 1e-12);
        let eval2 = evaluate_with_outliers(&space, &[0], 2);
        assert_eq!(eval2.dropped, vec![1, 2]);
        assert!((eval2.radius - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dropping_everything_certifies_zero() {
        let space = line(5);
        let eval = evaluate_with_outliers(&space, &[0], 5);
        assert_eq!(eval.radius, 0.0);
        assert_eq!(eval.dropped.len(), 5);
        // Oversized z clamps to n.
        let eval = evaluate_with_outliers(&space, &[0], 99);
        assert_eq!(eval.dropped.len(), 5);
        assert_eq!(eval.radius, 0.0);
    }

    #[test]
    fn empty_center_set_is_infinite_until_everything_drops() {
        let space = line(4);
        let eval = evaluate_with_outliers(&space, &[], 2);
        assert!(eval.radius.is_infinite());
        assert!(eval.full_radius.is_infinite());
        assert_eq!(eval.dropped, vec![0, 1]);
        let all = evaluate_with_outliers(&space, &[], 4);
        assert_eq!(all.radius, 0.0);
    }

    #[test]
    fn empty_space_is_trivially_covered() {
        let space = VecSpace::new(vec![]);
        let eval = evaluate_with_outliers(&space, &[], 3);
        assert_eq!(eval.radius, 0.0);
        assert!(eval.dropped.is_empty());
    }

    #[test]
    fn kept_radius_never_exceeds_full_radius() {
        let space = line(30);
        for z in 0..30 {
            let eval = evaluate_with_outliers(&space, &[7, 21], z);
            assert!(eval.radius <= eval.full_radius);
            assert_eq!(eval.z(), z);
        }
    }

    #[test]
    fn parallel_and_sequential_paths_agree_bitwise() {
        // Large enough that the ranking scan crosses PARALLEL_THRESHOLD.
        let space = line(20_000);
        let centers = [0, 10_000];
        let par = evaluate_with_outliers(&space, &centers, 10);
        // A 3-point subset stays sequential; instead re-run and compare the
        // deterministic outputs — position-stable parallel map means the
        // wide vector is identical across thread counts.
        let again = evaluate_with_outliers(&space, &centers, 10);
        assert_eq!(par, again);
        assert!(par.radius <= par.full_radius);
    }
}
