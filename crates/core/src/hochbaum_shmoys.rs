//! The Hochbaum–Shmoys bottleneck 2-approximation (1985).
//!
//! The paper's future-work section asks how MRG would behave with an
//! alternative sequential sub-procedure "such as that of Hochbaum &
//! Shmoys"; this module provides it.  The classic scheme binary-searches
//! over the sorted pairwise distances; for a candidate radius `r` it greedily
//! picks an uncovered point as a center and covers everything within `2r`.
//! If at most `k` centers suffice, `r` is feasible; the smallest feasible
//! `r` is at most `OPT`, and the produced centers then cover every point
//! within `2·OPT`.
//!
//! Unlike GON this needs the full sorted pairwise distance list, so it is
//! `O(N² log N)` and only sensible for the moderate point counts that occur
//! in final aggregation rounds — which is precisely where it is offered as
//! an alternative to GON.

use crate::error::KCenterError;
use crate::evaluate::covering_radius;
use crate::solution::KCenterSolution;
use kcenter_metric::{Distance, PointId, Scalar, VecSpace};

/// Configuration of the Hochbaum–Shmoys solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HochbaumShmoysConfig {
    /// Number of centers to select.
    pub k: usize,
}

impl HochbaumShmoysConfig {
    /// Creates a configuration selecting `k` centers.
    pub fn new(k: usize) -> Self {
        Self { k }
    }

    /// Runs the algorithm on the whole space.
    pub fn solve<D: Distance, S: Scalar>(
        &self,
        space: &VecSpace<D, S>,
    ) -> Result<KCenterSolution, KCenterError> {
        if space.is_empty() {
            return Err(KCenterError::EmptyInput);
        }
        if self.k == 0 {
            return Err(KCenterError::ZeroK);
        }
        KCenterError::require_metric(space.metric())?;
        let ids: Vec<PointId> = (0..space.len()).collect();
        let centers = select_centers(space, &ids, self.k);
        let radius = covering_radius(space, &centers);
        Ok(KCenterSolution::new(self.k, centers, radius))
    }
}

/// Greedy covering test: returns the centers chosen when every center covers
/// all points within `threshold`, or `None` if more than `k` centers would
/// be needed.
fn greedy_cover<D: Distance, S: Scalar>(
    space: &VecSpace<D, S>,
    subset: &[PointId],
    k: usize,
    threshold: f64,
) -> Option<Vec<PointId>> {
    let mut covered = vec![false; subset.len()];
    let mut centers = Vec::with_capacity(k);
    for i in 0..subset.len() {
        if covered[i] {
            continue;
        }
        if centers.len() == k {
            return None;
        }
        let c = subset[i];
        centers.push(c);
        for (j, &p) in subset.iter().enumerate() {
            if !covered[j] && space.distance(p, c) <= threshold {
                covered[j] = true;
            }
        }
    }
    Some(centers)
}

/// Selects at most `k` centers from `subset` using the bottleneck binary
/// search.  This is the routine exposed to MRG/EIM as an alternative
/// final-round sub-procedure.
pub fn select_centers<D: Distance, S: Scalar>(
    space: &VecSpace<D, S>,
    subset: &[PointId],
    k: usize,
) -> Vec<PointId> {
    if subset.is_empty() || k == 0 {
        return Vec::new();
    }
    if k >= subset.len() {
        return subset.to_vec();
    }

    // Candidate thresholds: all pairwise distances within the subset.
    // The optimal radius is one of them, and the greedy cover with
    // threshold 2r uses at most k centers whenever r >= OPT.
    let mut candidates: Vec<f64> = Vec::with_capacity(subset.len() * (subset.len() - 1) / 2);
    for (i, &a) in subset.iter().enumerate() {
        for &b in &subset[i + 1..] {
            candidates.push(space.distance(a, b));
        }
    }
    candidates.sort_by(f64::total_cmp);
    candidates.dedup_by(|a, b| (*a - *b).abs() < f64::EPSILON);

    // Binary search for the smallest candidate r whose doubled threshold
    // admits a cover with at most k centers.
    let mut lo = 0usize;
    let mut hi = candidates.len() - 1;
    let mut best: Option<Vec<PointId>> = None;
    while lo <= hi {
        let mid = lo + (hi - lo) / 2;
        let r = candidates[mid];
        match greedy_cover(space, subset, k, 2.0 * r) {
            Some(centers) => {
                best = Some(centers);
                if mid == 0 {
                    break;
                }
                hi = mid - 1;
            }
            None => {
                lo = mid + 1;
            }
        }
    }
    // The largest candidate (the subset diameter) always admits a cover with
    // a single center, so `best` is always set by the time we get here.
    best.unwrap_or_else(|| vec![subset[0]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::optimal_radius;
    use crate::gonzalez::GonzalezConfig;
    use kcenter_metric::{Point, SquaredEuclidean, VecSpace};

    fn grid(n_side: usize) -> VecSpace {
        let mut pts = Vec::new();
        for x in 0..n_side {
            for y in 0..n_side {
                pts.push(Point::xy(x as f64, y as f64));
            }
        }
        VecSpace::new(pts)
    }

    #[test]
    fn two_obvious_clusters_are_found() {
        let s = VecSpace::new(vec![
            Point::xy(0.0, 0.0),
            Point::xy(1.0, 0.0),
            Point::xy(50.0, 0.0),
            Point::xy(51.0, 0.0),
        ]);
        let sol = HochbaumShmoysConfig::new(2).solve(&s).unwrap();
        assert_eq!(sol.centers.len(), 2);
        assert!(sol.radius <= 2.0);
    }

    #[test]
    fn two_approximation_holds_on_small_instances() {
        for seed in 0..5u64 {
            let pts: Vec<Point> = (0..12)
                .map(|i| {
                    let v = seed.wrapping_mul(104_729).wrapping_add(i as u64 * 7919);
                    Point::xy((v % 101) as f64, ((v / 101) % 103) as f64)
                })
                .collect();
            let space = VecSpace::new(pts);
            for k in 1..=4 {
                let sol = HochbaumShmoysConfig::new(k).solve(&space).unwrap();
                let opt = optimal_radius(&space, k).unwrap();
                assert!(
                    sol.radius <= 2.0 * opt + 1e-9,
                    "HS exceeded 2*OPT: {} > 2*{} (seed {seed}, k {k})",
                    sol.radius,
                    opt
                );
            }
        }
    }

    #[test]
    fn comparable_to_gonzalez_on_a_grid() {
        let s = grid(6);
        for k in [1usize, 2, 4, 8] {
            let hs = HochbaumShmoysConfig::new(k).solve(&s).unwrap();
            let gon = GonzalezConfig::new(k).solve(&s).unwrap();
            // Both are 2-approximations, so each is within a factor 4 of the
            // other; in practice they are much closer.
            assert!(hs.radius <= 4.0 * gon.radius + 1e-9);
            assert!(gon.radius <= 4.0 * hs.radius + 1e-9);
        }
    }

    #[test]
    fn k_at_least_n_uses_every_point() {
        let s = grid(2);
        let sol = HochbaumShmoysConfig::new(10).solve(&s).unwrap();
        assert_eq!(sol.centers.len(), 4);
        assert_eq!(sol.radius, 0.0);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let empty = VecSpace::new(vec![]);
        assert_eq!(
            HochbaumShmoysConfig::new(1).solve(&empty).unwrap_err(),
            KCenterError::EmptyInput
        );
        assert_eq!(
            HochbaumShmoysConfig::new(0).solve(&grid(2)).unwrap_err(),
            KCenterError::ZeroK
        );
        let sq = VecSpace::with_distance(
            vec![Point::xy(0.0, 0.0), Point::xy(1.0, 1.0)],
            SquaredEuclidean,
        );
        assert!(matches!(
            HochbaumShmoysConfig::new(1).solve(&sq).unwrap_err(),
            KCenterError::NotAMetric { .. }
        ));
    }

    #[test]
    fn select_centers_respects_subset_and_edge_cases() {
        let s = grid(3);
        assert!(select_centers(&s, &[], 2).is_empty());
        assert!(select_centers(&s, &[0, 1], 0).is_empty());
        assert_eq!(select_centers(&s, &[2, 5], 4), vec![2, 5]);
        let chosen = select_centers(&s, &[0, 1, 2], 1);
        assert_eq!(chosen.len(), 1);
        assert!([0usize, 1, 2].contains(&chosen[0]));
    }

    #[test]
    fn identical_points_collapse_to_one_center() {
        let s = VecSpace::new(vec![Point::xy(1.0, 1.0); 5]);
        let sol = HochbaumShmoysConfig::new(2).solve(&s).unwrap();
        assert_eq!(sol.radius, 0.0);
        assert!(sol.centers.len() <= 2);
    }
}
