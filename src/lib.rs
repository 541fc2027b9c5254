//! # kcenter — parallel k-center clustering
//!
//! Facade crate for the reproduction of *"Efficient Parallel Algorithms for
//! k-Center Clustering"* (McClintock & Wirth, ICPP 2016).  It re-exports the
//! four building blocks of the workspace so applications only need one
//! dependency:
//!
//! * [`metric`] — points, distances, metric spaces ([`kcenter_metric`]);
//! * [`data`] — synthetic and simulated-real workload generators
//!   ([`kcenter_data`]);
//! * [`mapreduce`] — the simulated MapReduce cluster with the paper's cost
//!   accounting ([`kcenter_mapreduce`]);
//! * [`algorithms`] — GON, MRG, EIM, Hochbaum–Shmoys and the evaluation
//!   helpers ([`kcenter_core`]).
//!
//! ## Quickstart
//!
//! ```
//! use kcenter::prelude::*;
//!
//! // 20,000 points in 25 Gaussian clusters (the paper's GAU family).
//! let points = GauGenerator::new(20_000, 25).generate(42);
//! let space = VecSpace::new(points);
//!
//! // Two-round MapReduce Gonzalez on 50 simulated machines.
//! let result = MrgConfig::new(25).run(&space).expect("MRG runs");
//! assert_eq!(result.solution.centers.len(), 25);
//! assert_eq!(result.mapreduce_rounds, 2);
//!
//! // Compare against the sequential 2-approximation baseline.
//! let baseline = GonzalezConfig::new(25).solve(&space).expect("GON runs");
//! assert!(result.solution.radius <= 2.0 * baseline.radius + 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use kcenter_core as algorithms;
pub use kcenter_data as data;
pub use kcenter_mapreduce as mapreduce;
pub use kcenter_metric as metric;

/// The most commonly used items from every sub-crate.
pub mod prelude {
    pub use kcenter_core::prelude::*;
    pub use kcenter_data::{
        DatasetSpec, DupGenerator, ExpGenerator, GauGenerator, KddCupSim, PlantedOutlierGenerator,
        PointGenerator, PokerHandSim, UnbGenerator, UnifGenerator,
    };
    pub use kcenter_mapreduce::{Cluster, ClusterConfig, Executor, JobStats};
    pub use kcenter_metric::{
        AssignChoice, AssignMode, Distance, Euclidean, FlatPoints, KernelBackend, KernelChoice,
        Point, PointId, Precision, Scalar, VecSpace,
    };
}
