//! Instance lower bounds for the k-center objective.
//!
//! The approximation guarantees proved in the paper (2 for GON, 4 for
//! two-round MRG, 10 w.s.p. for EIM) are stated relative to `OPT`, which is
//! NP-hard to compute.  For testing we therefore use two devices:
//!
//! * an exact brute-force solver on tiny instances (in `kcenter-core`), and
//! * the classic combinatorial lower bound implemented here: if some set of
//!   `k + 1` points has pairwise distance at least `D`, then `OPT ≥ D / 2`,
//!   because two of those points must share a center and the triangle
//!   inequality forces one of them to be at distance ≥ D/2 from it.
//!
//! Gonzalez's own output provides such a witness: the `k + 1` chosen centers
//! plus the final farthest point are pairwise separated by the final radius.

use crate::distance::Distance;
use crate::scalar::Scalar;
use crate::space::VecSpace;
use crate::PointId;

/// Lower bound from an explicit witness set of `k + 1` mutually far points:
/// returns `min_{a != b in witness} d(a, b) / 2`.
///
/// Returns `0.0` if the witness has fewer than two points.
pub fn pairwise_lower_bound<D: Distance, S: Scalar>(
    space: &VecSpace<D, S>,
    witness: &[PointId],
) -> f64 {
    if witness.len() < 2 {
        return 0.0;
    }
    // The scan runs in certification space (`wide_cmp_*`: an
    // order-equivalent surrogate accumulated in `f64` from the stored rows
    // by the fixed scalar kernel, squared for Euclidean spaces), so a
    // reduced-precision store streams its narrow rows while the bound stays
    // exact and independent of the dispatched kernel backend — and only the
    // winning pair pays the conversion back to a real distance (one `sqrt`
    // total instead of one per pair).
    let mut min = f64::INFINITY;
    for (idx, &a) in witness.iter().enumerate() {
        for &b in &witness[idx + 1..] {
            let d = space.wide_cmp_distance(a, b);
            if d < min {
                min = d;
            }
        }
    }
    space.metric().wide_surrogate_to_distance(min) / 2.0
}

/// A crude lower bound valid for any instance: `diameter / (2 * k)` would be
/// wrong in general, but `diameter / 2` is a valid lower bound when `k = 1`,
/// and for `k >= 1` the optimal radius is at least the diameter of the whole
/// set divided by `2k` **along a path**, which does not hold in general
/// metrics.  We therefore only expose the safe `k = 1` case and otherwise
/// fall back to zero; the function exists so callers can treat the `k = 1`
/// case uniformly.
pub fn scaled_diameter_lower_bound<D: Distance, S: Scalar>(
    space: &VecSpace<D, S>,
    k: usize,
) -> f64 {
    if k != 1 || space.len() < 2 {
        return 0.0;
    }
    let n = space.len();
    // O(n) approximation of the diameter is enough for a lower bound: the
    // distance from an arbitrary point to its farthest point is at least
    // half the diameter, so dividing by 2 again stays valid.  As above, the
    // scan stays in certification space and converts only the winner.
    let far = (1..n)
        .map(|t| space.wide_cmp_distance(0, t))
        .fold(0.0, f64::max);
    space.metric().wide_surrogate_to_distance(far) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn line(n: usize) -> VecSpace {
        VecSpace::new((0..n).map(|i| Point::xy(i as f64, 0.0)).collect())
    }

    #[test]
    fn pairwise_lower_bound_on_line() {
        let s = line(10);
        // Points 0 and 9 are 9 apart -> OPT for k = 1 is >= 4.5.
        let lb = pairwise_lower_bound(&s, &[0, 9]);
        assert!((lb - 4.5).abs() < 1e-12);
    }

    #[test]
    fn pairwise_lower_bound_uses_minimum_pair() {
        let s = line(10);
        let lb = pairwise_lower_bound(&s, &[0, 1, 9]);
        assert!((lb - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pairwise_lower_bound_trivial_witness() {
        let s = line(5);
        assert_eq!(pairwise_lower_bound(&s, &[]), 0.0);
        assert_eq!(pairwise_lower_bound(&s, &[3]), 0.0);
    }

    #[test]
    fn bounds_work_on_reduced_precision_stores() {
        use crate::flat::FlatPoints;
        let pts: Vec<Point> = (0..10).map(|i| Point::xy(i as f64, 0.0)).collect();
        let s32: VecSpace<crate::distance::Euclidean, f32> =
            VecSpace::from_flat(FlatPoints::<f32>::from_points(&pts));
        // Integer coordinates are exact at f32, so the bounds match f64.
        assert!((pairwise_lower_bound(&s32, &[0, 9]) - 4.5).abs() < 1e-12);
        assert!((scaled_diameter_lower_bound(&s32, 1) - 4.5).abs() < 1e-12);
    }

    #[test]
    fn scaled_diameter_bound_only_for_k1() {
        let s = line(11);
        assert!(scaled_diameter_lower_bound(&s, 1) > 0.0);
        assert_eq!(scaled_diameter_lower_bound(&s, 2), 0.0);
        assert_eq!(scaled_diameter_lower_bound(&line(1), 1), 0.0);
    }

    #[test]
    fn scaled_diameter_bound_is_valid_for_k1() {
        // For k = 1 on a line 0..=10 the optimal radius is 5 (center at 5).
        let s = line(11);
        let lb = scaled_diameter_lower_bound(&s, 1);
        assert!(lb <= 5.0 + 1e-12);
        assert!(lb > 0.0);
    }
}
