//! Exact optimum by exhaustive search — only for tiny verification
//! instances.
//!
//! k-center is NP-hard, so no polynomial exact algorithm exists; the tests
//! nonetheless need ground truth to verify the approximation factors of GON
//! (2), MRG (4 in two rounds) and EIM (10 w.s.p.).  Enumerating every
//! k-subset of candidate centers is perfectly fine for `n ≤ ~20`.

use crate::error::KCenterError;
use crate::evaluate::covering_radius;
use crate::solution::KCenterSolution;
use kcenter_metric::{Distance, PointId, Scalar, VecSpace};

/// Hard cap on the instance size accepted by the brute-force solver; above
/// this the search space explodes and the call is almost certainly a bug.
pub const MAX_BRUTE_FORCE_POINTS: usize = 24;

/// Finds an optimal set of at most `k` centers by exhaustive enumeration.
///
/// # Errors
///
/// * [`KCenterError::EmptyInput`] / [`KCenterError::ZeroK`] as usual.
/// * [`KCenterError::InvalidParameter`] if the instance exceeds
///   [`MAX_BRUTE_FORCE_POINTS`].
pub fn optimal_solution<D: Distance, S: Scalar>(
    space: &VecSpace<D, S>,
    k: usize,
) -> Result<KCenterSolution, KCenterError> {
    let n = space.len();
    if n == 0 {
        return Err(KCenterError::EmptyInput);
    }
    if k == 0 {
        return Err(KCenterError::ZeroK);
    }
    if n > MAX_BRUTE_FORCE_POINTS {
        return Err(KCenterError::InvalidParameter {
            name: "n",
            message: format!(
                "brute force supports at most {MAX_BRUTE_FORCE_POINTS} points, got {n}"
            ),
        });
    }
    if k >= n {
        let centers: Vec<PointId> = (0..n).collect();
        return Ok(KCenterSolution::new(k, centers, 0.0));
    }

    let mut best_radius = f64::INFINITY;
    let mut best_centers: Vec<PointId> = Vec::new();
    let mut current: Vec<PointId> = Vec::with_capacity(k);
    enumerate(
        space,
        k,
        0,
        &mut current,
        &mut best_radius,
        &mut best_centers,
    );
    Ok(KCenterSolution::new(k, best_centers, best_radius))
}

/// The optimal covering radius (convenience wrapper around
/// [`optimal_solution`]).
pub fn optimal_radius<D: Distance, S: Scalar>(
    space: &VecSpace<D, S>,
    k: usize,
) -> Result<f64, KCenterError> {
    optimal_solution(space, k).map(|s| s.radius)
}

fn enumerate<D: Distance, S: Scalar>(
    space: &VecSpace<D, S>,
    k: usize,
    start: PointId,
    current: &mut Vec<PointId>,
    best_radius: &mut f64,
    best_centers: &mut Vec<PointId>,
) {
    if current.len() == k {
        let r = covering_radius(space, current);
        if r < *best_radius {
            *best_radius = r;
            *best_centers = current.clone();
        }
        return;
    }
    let remaining_slots = k - current.len();
    let n = space.len();
    // Leave enough points for the remaining slots.
    for candidate in start..=(n - remaining_slots) {
        current.push(candidate);
        enumerate(space, k, candidate + 1, current, best_radius, best_centers);
        current.pop();
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
    fn optimal_on_a_line_with_one_center() {
        // Points 0..=6: best single center is 3, radius 3.
        let s = line(7);
        let sol = optimal_solution(&s, 1).unwrap();
        assert_eq!(sol.centers, vec![3]);
        assert!((sol.radius - 3.0).abs() < 1e-12);
    }

    #[test]
    fn optimal_on_a_line_with_two_centers() {
        // Points 0..=7 split optimally into [0..=3] and [4..=7]: radius 1.5
        // is unreachable with centers restricted to the points, so OPT is 2
        // (centers at 1 or 2 and 5 or 6).
        let s = line(8);
        let sol = optimal_solution(&s, 2).unwrap();
        assert!((sol.radius - 2.0).abs() < 1e-12);
    }

    #[test]
    fn optimal_two_obvious_clusters() {
        let s = VecSpace::new(vec![
            Point::xy(0.0, 0.0),
            Point::xy(1.0, 0.0),
            Point::xy(100.0, 0.0),
            Point::xy(101.0, 0.0),
        ]);
        let sol = optimal_solution(&s, 2).unwrap();
        assert!((sol.radius - 1.0).abs() < 1e-12);
        assert_eq!(sol.centers.len(), 2);
    }

    #[test]
    fn k_at_least_n_gives_zero_radius() {
        let s = line(4);
        let sol = optimal_solution(&s, 6).unwrap();
        assert_eq!(sol.radius, 0.0);
        assert_eq!(sol.centers.len(), 4);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let empty = VecSpace::new(vec![]);
        assert_eq!(
            optimal_solution(&empty, 1).unwrap_err(),
            KCenterError::EmptyInput
        );
        assert_eq!(
            optimal_solution(&line(3), 0).unwrap_err(),
            KCenterError::ZeroK
        );
        let big = line(MAX_BRUTE_FORCE_POINTS + 1);
        assert!(matches!(
            optimal_solution(&big, 2).unwrap_err(),
            KCenterError::InvalidParameter { name: "n", .. }
        ));
    }

    #[test]
    fn optimal_radius_is_monotone_in_k() {
        let s = line(12);
        let radii: Vec<f64> = (1..=5).map(|k| optimal_radius(&s, k).unwrap()).collect();
        for w in radii.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-12,
                "optimal radius must not increase with k"
            );
        }
    }
}
