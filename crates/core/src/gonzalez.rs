//! GON — Gonzalez's greedy farthest-point 2-approximation (1985).
//!
//! The algorithm picks an arbitrary first center, then repeatedly promotes
//! the point farthest from the current center set until `k` centers have
//! been chosen.  With a maintained "distance to nearest chosen center"
//! array each iteration is a single linear scan, giving the `O(k · N)`
//! runtime the paper's analysis uses (Section 5.1).
//!
//! Both the paper's sequential baseline and the per-reducer sub-procedure of
//! MRG and EIM are this routine; the only difference is whether the inner
//! scan runs sequentially or through rayon (the baseline on a million points
//! benefits from the parallel scan, a reducer working on `n/m` points does
//! not need it).

use crate::error::KCenterError;
use crate::evaluate::covering_radius;
use crate::solution::KCenterSolution;
use kcenter_metric::grid::{self, AssignChoice, AssignMode, GridRelaxer};
use kcenter_metric::kernel;
use kcenter_metric::space::is_identity_subset;
use kcenter_metric::{Distance, PointId, Scalar, VecSpace};

/// How GON chooses its (arbitrary) first center.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstCenter {
    /// Use the point at this position within the subset being clustered
    /// (position 0 by default — the paper's implementation style).
    Position(usize),
    /// Derive the position pseudo-randomly from this seed, so repeated runs
    /// explore different seedings (used when averaging over runs).
    Seeded(u64),
}

impl Default for FirstCenter {
    fn default() -> Self {
        FirstCenter::Position(0)
    }
}

impl FirstCenter {
    /// Resolves the first-center choice to a position in `0..len`.
    pub fn resolve(&self, len: usize) -> usize {
        assert!(len > 0, "cannot pick a first center from an empty subset");
        match *self {
            FirstCenter::Position(p) => p % len,
            FirstCenter::Seeded(seed) => {
                // SplitMix64 scramble; cheap and deterministic.
                let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as usize % len
            }
        }
    }
}

/// Configuration of the sequential GON baseline.
///
/// ```
/// use kcenter_core::GonzalezConfig;
/// use kcenter_metric::{Point, VecSpace};
///
/// let space = VecSpace::new(vec![
///     Point::xy(0.0, 0.0), Point::xy(1.0, 0.0),
///     Point::xy(50.0, 0.0), Point::xy(51.0, 0.0),
/// ]);
/// let solution = GonzalezConfig::new(2).solve(&space).unwrap();
/// assert_eq!(solution.centers.len(), 2);
/// assert!(solution.radius <= 1.0 + 1e-9); // one center per obvious pair
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GonzalezConfig {
    /// Number of centers to select.
    pub k: usize,
    /// First-center policy.
    pub first_center: FirstCenter,
    /// Whether the inner farthest-point scan may use rayon.  The sequential
    /// baseline GON in the paper is single-threaded.  With this set, a
    /// selection over at least [`kcenter_metric::kernel::PAR_CUTOFF`] points
    /// relaxes in parallel chunks on the dense arm (bit-identical to the
    /// sequential scan); a smaller selection runs sequentially, and under
    /// `--assign auto` picks its arm from the measured relax crossover like
    /// any sequential selection.
    pub parallel_scan: bool,
}

impl GonzalezConfig {
    /// GON with `k` centers, first center at position 0, sequential scan.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            first_center: FirstCenter::default(),
            parallel_scan: false,
        }
    }

    /// Sets the first-center policy.
    pub fn with_first_center(mut self, first: FirstCenter) -> Self {
        self.first_center = first;
        self
    }

    /// Enables or disables the rayon-parallel inner scan.
    pub fn with_parallel_scan(mut self, parallel: bool) -> Self {
        self.parallel_scan = parallel;
        self
    }

    /// Runs GON on the whole space and evaluates the covering radius over
    /// the whole space.
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
        let centers = select_centers(space, &ids, self.k, self.first_center, self.parallel_scan);
        let radius = covering_radius(space, &centers);
        Ok(KCenterSolution::new(self.k, centers, radius))
    }
}

/// Runs the greedy farthest-point selection on an explicit subset of the
/// space and returns the chosen centers (as global point ids).
///
/// This is the reusable inner routine: MRG's reducers call it on their
/// partitions, EIM's final round calls it on the sample, and
/// [`GonzalezConfig::solve`] calls it on the full space.
///
/// If `k >= subset.len()` every subset point becomes a center.
pub fn select_centers<D: Distance, S: Scalar>(
    space: &VecSpace<D, S>,
    subset: &[PointId],
    k: usize,
    first: FirstCenter,
    parallel_scan: bool,
) -> Vec<PointId> {
    if subset.is_empty() || k == 0 {
        return Vec::new();
    }
    if k >= subset.len() {
        return subset.to_vec();
    }

    let mut centers = Vec::with_capacity(k);
    let first_pos = first.resolve(subset.len());
    let first_center = subset[first_pos];
    centers.push(first_center);

    // The whole selection runs in *comparison space* (squared distances for
    // Euclidean spaces — see `kcenter_metric::space`), which for a
    // reduced-precision `VecSpace` also means *storage precision*: an `f32`
    // space relaxes an `f32` nearest-center array over `f32` rows, halving
    // the scan bandwidth.  Farthest-point selection only needs the ordering,
    // so no `sqrt` is ever taken here and no `f64` refinement is needed —
    // the certified covering radius is recomputed in `f64` afterwards.
    // Each iteration is ONE fused pass (`relax_max`): relax every point's
    // nearest-center entry against the newest center and track the
    // farthest survivor in the same walk over the flat rows.
    // The relax scan forks only from `PAR_CUTOFF` points on, so a smaller
    // selection is sequential whatever the caller asked for.
    let parallel = parallel_scan && subset.len() >= kernel::PAR_CUTOFF;
    // Detecting the full-space case once lets every iteration stream rows
    // without per-point id loads (and without re-checking per call).
    let scan = if is_identity_subset(subset, space.len()) {
        None
    } else {
        Some(subset)
    };
    // Grid arm: bucket the subset once, rows and relax slots in cell order,
    // and serve every relax pass by running the dense fused kernel on the
    // cells the new center can reach, when the `--assign` pin or the
    // measured relax crossover picks it.  The build itself refuses spaces
    // it cannot prune (non-Euclidean surrogate, all-duplicate data, a
    // single occupied cell), in which case the dense kernels below run.
    // Results are bit-identical either way under the scalar and portable
    // backends (see `kcenter_metric::grid`).  The relax records time the
    // sequential dense kernel, so under `auto` a parallel selection keeps
    // the dense scan.
    let mode = match grid::active_choice() {
        AssignChoice::Fixed(mode) => mode,
        AssignChoice::Auto if parallel => AssignMode::Dense,
        AssignChoice::Auto => grid::auto_mode(grid::ScanShape {
            kind: grid::ScanKind::Relax,
            points: subset.len(),
            candidates: k,
            dim: space.row(subset[0]).len(),
        }),
    };
    let mut relaxer = if mode == AssignMode::Grid {
        GridRelaxer::build(space, subset)
    } else {
        None
    };
    grid::note_scan(if relaxer.is_some() {
        grid::AssignMode::Grid
    } else {
        grid::AssignMode::Dense
    });
    // The grid arm keeps its relax slots in cell order; only the dense arm
    // needs this array.
    let mut nearest: Vec<S> = if relaxer.is_none() {
        vec![S::INFINITY; subset.len()]
    } else {
        Vec::new()
    };
    let mut newest = first_center;
    while centers.len() < k {
        let (far_pos, far_dist) = match relaxer.as_mut() {
            Some(relaxer) => relaxer.relax_max(space, newest),
            None => space.relax_max(scan, newest, &mut nearest, parallel),
        };
        // All remaining points coincide with existing centers: no point in
        // adding duplicates (the covering radius is already 0).
        if far_dist <= S::ZERO {
            break;
        }
        newest = subset[far_pos];
        centers.push(newest);
    }
    centers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::optimal_radius;
    use kcenter_metric::{Point, SquaredEuclidean, VecSpace};

    fn two_clusters() -> VecSpace {
        // Two tight groups far apart.
        VecSpace::new(vec![
            Point::xy(0.0, 0.0),
            Point::xy(0.5, 0.0),
            Point::xy(0.0, 0.5),
            Point::xy(100.0, 100.0),
            Point::xy(100.5, 100.0),
            Point::xy(100.0, 100.5),
        ])
    }

    #[test]
    fn finds_one_center_per_obvious_cluster() {
        let space = two_clusters();
        let sol = GonzalezConfig::new(2).solve(&space).unwrap();
        assert_eq!(sol.centers.len(), 2);
        // One center from each group.
        let groups: Vec<usize> = sol
            .centers
            .iter()
            .map(|&c| if c < 3 { 0 } else { 1 })
            .collect();
        assert_ne!(groups[0], groups[1]);
        assert!(sol.radius < 1.0);
    }

    #[test]
    fn k1_picks_first_point_and_radius_is_farthest() {
        let space = two_clusters();
        let sol = GonzalezConfig::new(1).solve(&space).unwrap();
        assert_eq!(sol.centers, vec![0]);
        assert!(sol.radius > 100.0);
    }

    #[test]
    fn k_at_least_n_returns_all_points_with_zero_radius() {
        let space = two_clusters();
        let sol = GonzalezConfig::new(10).solve(&space).unwrap();
        assert_eq!(sol.centers.len(), 6);
        assert_eq!(sol.radius, 0.0);
    }

    #[test]
    fn rejects_empty_input_zero_k_and_non_metrics() {
        let empty = VecSpace::new(vec![]);
        assert_eq!(
            GonzalezConfig::new(2).solve(&empty).unwrap_err(),
            KCenterError::EmptyInput
        );

        let space = two_clusters();
        assert_eq!(
            GonzalezConfig::new(0).solve(&space).unwrap_err(),
            KCenterError::ZeroK
        );

        let sq = VecSpace::with_distance(
            vec![Point::xy(0.0, 0.0), Point::xy(1.0, 1.0)],
            SquaredEuclidean,
        );
        assert!(matches!(
            GonzalezConfig::new(1).solve(&sq).unwrap_err(),
            KCenterError::NotAMetric { .. }
        ));
    }

    #[test]
    fn duplicate_points_do_not_produce_duplicate_centers() {
        let space = VecSpace::new(vec![
            Point::xy(0.0, 0.0),
            Point::xy(0.0, 0.0),
            Point::xy(0.0, 0.0),
            Point::xy(1.0, 0.0),
        ]);
        let sol = GonzalezConfig::new(3).solve(&space).unwrap();
        // After covering both distinct locations the radius is 0 and the
        // greedy loop stops early rather than duplicating a center.
        assert!(sol.centers.len() <= 3);
        assert_eq!(sol.radius, 0.0);
    }

    #[test]
    fn first_center_policies_are_respected() {
        let space = two_clusters();
        let sol = GonzalezConfig::new(1)
            .with_first_center(FirstCenter::Position(4))
            .solve(&space)
            .unwrap();
        assert_eq!(sol.centers, vec![4]);

        // Seeded choice is deterministic.
        let a = FirstCenter::Seeded(7).resolve(6);
        let b = FirstCenter::Seeded(7).resolve(6);
        assert_eq!(a, b);
        assert!(a < 6);
        // Position wraps around.
        assert_eq!(FirstCenter::Position(8).resolve(6), 2);
    }

    #[test]
    #[should_panic(expected = "empty subset")]
    fn first_center_rejects_empty_subset() {
        FirstCenter::Position(0).resolve(0);
    }

    #[test]
    fn select_centers_on_subset_only_uses_subset_points() {
        let space = two_clusters();
        let subset = vec![3, 4, 5];
        let centers = select_centers(&space, &subset, 2, FirstCenter::default(), false);
        assert!(centers.iter().all(|c| subset.contains(c)));
        assert_eq!(centers.len(), 2);
    }

    #[test]
    fn select_centers_edge_cases() {
        let space = two_clusters();
        assert!(select_centers(&space, &[], 3, FirstCenter::default(), false).is_empty());
        assert!(select_centers(&space, &[0, 1], 0, FirstCenter::default(), false).is_empty());
        assert_eq!(
            select_centers(&space, &[1, 2], 5, FirstCenter::default(), false),
            vec![1, 2]
        );
    }

    #[test]
    fn parallel_scan_matches_sequential_scan() {
        // A deterministic pseudo-random cloud above `kernel::PAR_CUTOFF`,
        // so the parallel relax scan really forks.
        let n = kernel::PAR_CUTOFF + 7_000;
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                let x = ((i as u64).wrapping_mul(2654435761) % 10_000) as f64 / 10.0;
                let y = ((i as u64).wrapping_mul(40503) % 10_000) as f64 / 10.0;
                Point::xy(x, y)
            })
            .collect();
        let space = VecSpace::new(pts);
        let seq = GonzalezConfig::new(8).solve(&space).unwrap();
        let par = GonzalezConfig::new(8)
            .with_parallel_scan(true)
            .solve(&space)
            .unwrap();
        assert_eq!(seq.centers, par.centers);
        assert_eq!(seq.radius, par.radius);
    }

    #[test]
    fn two_approximation_holds_on_small_instances() {
        // Deterministic small instances where brute force is feasible.
        for seed in 0..5u64 {
            let pts: Vec<Point> = (0..12)
                .map(|i| {
                    let v = seed.wrapping_mul(1_000_003).wrapping_add(i as u64 * 7919);
                    Point::xy((v % 97) as f64, ((v / 97) % 89) as f64)
                })
                .collect();
            let space = VecSpace::new(pts);
            for k in 1..=4 {
                let sol = GonzalezConfig::new(k).solve(&space).unwrap();
                let opt = optimal_radius(&space, k).unwrap();
                assert!(
                    sol.radius <= 2.0 * opt + 1e-9,
                    "GON exceeded 2*OPT: {} > 2*{} (seed {seed}, k {k})",
                    sol.radius,
                    opt
                );
            }
        }
    }
}
