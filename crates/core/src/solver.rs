//! The sequential sub-procedure used inside the parallel algorithms.
//!
//! Both MRG and EIM end by running a sequential k-center algorithm on a
//! sample that fits on one machine, and MRG additionally runs one inside
//! every reducer.  The paper uses GON for all of these ("For all parallel
//! implementations, GON is the subprocedure for selecting the final
//! centers") and asks, as future work, how alternatives such as
//! Hochbaum–Shmoys would behave; [`SequentialSolver`] lets the caller pick.

use crate::gonzalez::{self, FirstCenter};
use crate::hochbaum_shmoys;
use kcenter_metric::{Distance, PointId, Scalar, VecSpace};

/// Which sequential k-center algorithm the parallel schemes use internally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SequentialSolver {
    /// Gonzalez's greedy farthest-point algorithm (the paper's choice).
    #[default]
    Gonzalez,
    /// The Hochbaum–Shmoys bottleneck algorithm (the paper's future-work
    /// alternative).  Quadratic in the subset size, so only sensible for
    /// the smaller aggregation rounds.
    HochbaumShmoys,
}

impl SequentialSolver {
    /// Selects at most `k` centers from `subset`.
    pub fn select_centers<D: Distance, S: Scalar>(
        &self,
        space: &VecSpace<D, S>,
        subset: &[PointId],
        k: usize,
        first: FirstCenter,
    ) -> Vec<PointId> {
        match self {
            SequentialSolver::Gonzalez => gonzalez::select_centers(space, subset, k, first, false),
            SequentialSolver::HochbaumShmoys => hochbaum_shmoys::select_centers(space, subset, k),
        }
    }

    /// Name used in experiment reports.
    pub fn name(&self) -> &'static str {
        match self {
            SequentialSolver::Gonzalez => "gonzalez",
            SequentialSolver::HochbaumShmoys => "hochbaum-shmoys",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcenter_metric::{Point, VecSpace};

    #[test]
    fn default_is_gonzalez_like_the_paper() {
        assert_eq!(SequentialSolver::default(), SequentialSolver::Gonzalez);
        assert_eq!(SequentialSolver::Gonzalez.name(), "gonzalez");
        assert_eq!(SequentialSolver::HochbaumShmoys.name(), "hochbaum-shmoys");
    }

    #[test]
    fn both_solvers_pick_k_centers_from_the_subset() {
        let space = VecSpace::new(vec![
            Point::xy(0.0, 0.0),
            Point::xy(1.0, 0.0),
            Point::xy(10.0, 0.0),
            Point::xy(11.0, 0.0),
            Point::xy(20.0, 0.0),
        ]);
        let subset = vec![0, 2, 3, 4];
        for solver in [SequentialSolver::Gonzalez, SequentialSolver::HochbaumShmoys] {
            let centers = solver.select_centers(&space, &subset, 2, FirstCenter::default());
            assert_eq!(centers.len(), 2, "{}", solver.name());
            assert!(
                centers.iter().all(|c| subset.contains(c)),
                "{}",
                solver.name()
            );
        }
    }
}
