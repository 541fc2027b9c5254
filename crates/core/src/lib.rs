//! Parallel k-center clustering algorithms.
//!
//! This crate implements the algorithms studied in *"Efficient Parallel
//! Algorithms for k-Center Clustering"* (McClintock & Wirth, ICPP 2016):
//!
//! * [`gonzalez`] — **GON**, Gonzalez's greedy sequential 2-approximation,
//!   with an optional rayon-parallel inner scan;
//! * [`mrg`] — **MRG**, the paper's multi-round "MapReduce Gonzalez"
//!   (Algorithm 1): a 4-approximation in the common two-round case, adding
//!   +2 to the factor per extra reduction round;
//! * [`eim`] — **EIM**, the paper's generalisation (new parameter φ) of the
//!   iterative-sampling MapReduce algorithm of Ene, Im & Moseley, including
//!   the termination fixes of Section 4.1 (Algorithms 2 and 3);
//! * [`hochbaum_shmoys`] — the alternative sequential 2-approximation the
//!   paper lists as future work, usable as the final-round sub-procedure;
//! * [`coreset`] — reusable weighted coresets (Gonzalez-seeded or
//!   EIM-sampled) with an additive quality certificate: build the summary
//!   once, then sweep many `(k, φ)` instances on it with the plain
//!   sequential solvers over its positive-weight representatives;
//! * [`brute_force`] — exact optimum for tiny instances, used to verify the
//!   approximation factors in tests;
//! * [`evaluate`] — covering radius / assignment evaluation (the paper's
//!   "solution value");
//! * [`outliers`] — the robust with-outliers objective: certify a center
//!   set over the `n − z` kept points after dropping the `z` farthest;
//! * [`hash`] — FNV-1a 64, the one digest behind every checksum and
//!   determinism fingerprint in the workspace;
//! * [`cost_model`] — the theoretical comparison of Table 1 as executable
//!   formulas.
//!
//! # Quick example
//!
//! ```
//! use kcenter_core::prelude::*;
//! use kcenter_metric::{Point, VecSpace};
//!
//! let points = vec![
//!     Point::xy(0.0, 0.0), Point::xy(0.1, 0.0), Point::xy(10.0, 0.0),
//!     Point::xy(10.1, 0.0), Point::xy(5.0, 8.0),
//! ];
//! let space = VecSpace::new(points);
//!
//! // Sequential baseline (2-approximation).
//! let gon = GonzalezConfig::new(2).solve(&space).unwrap();
//!
//! // Two-round parallel MRG (4-approximation) on a 4-machine cluster.
//! let mrg = MrgConfig::new(2).with_machines(4).run(&space).unwrap();
//! assert_eq!(mrg.solution.centers.len(), 2);
//! assert!(mrg.solution.radius <= 2.0 * gon.radius + 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute_force;
pub mod coreset;
pub mod cost_model;
pub mod eim;
pub mod error;
pub mod evaluate;
pub mod gonzalez;
pub mod hash;
pub mod hochbaum_shmoys;
pub mod mrg;
pub mod outliers;
pub mod select;
pub mod solution;
pub mod solver;
pub mod tightness;

pub use coreset::{
    CoresetBuilder, CoresetCoverage, CoresetSolution, GonzalezCoresetConfig, PersistError,
    WeightedCoreset,
};
pub use eim::{EimConfig, EimResult};
pub use error::KCenterError;
pub use gonzalez::{FirstCenter, GonzalezConfig};
pub use hochbaum_shmoys::HochbaumShmoysConfig;
pub use mrg::{MrgConfig, MrgResult};
pub use outliers::{evaluate_with_outliers, OutlierEvaluation};
pub use solution::KCenterSolution;
pub use solver::SequentialSolver;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::coreset::{
        CoresetBuilder, CoresetCoverage, CoresetSolution, GonzalezCoresetConfig, WeightedCoreset,
    };
    pub use crate::eim::{EimConfig, EimResult};
    pub use crate::error::KCenterError;
    pub use crate::evaluate::{assign, covering_radius};
    pub use crate::gonzalez::{FirstCenter, GonzalezConfig};
    pub use crate::hochbaum_shmoys::HochbaumShmoysConfig;
    pub use crate::mrg::{MrgConfig, MrgResult};
    pub use crate::outliers::{evaluate_with_outliers, OutlierEvaluation};
    pub use crate::solution::KCenterSolution;
    pub use crate::solver::SequentialSolver;
}
