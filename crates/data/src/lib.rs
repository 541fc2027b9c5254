//! Data substrate for the parallel k-center reproduction.
//!
//! Section 7.3 of the paper evaluates on three synthetic families and a
//! collection of UCI data sets:
//!
//! * **UNIF** — `n` points uniform in a two-dimensional square.
//! * **GAU** — `k'` cluster centers uniform in the unit cube, points split
//!   uniformly at random over the clusters, Gaussian offset with σ = 1/10.
//! * **UNB** — like GAU but unbalanced: about half of the points land in a
//!   single cluster.
//! * **Poker Hand** (25,010 training rows, 10 categorical attributes) and
//!   the **KDD Cup 1999** 10 % sample (~494k rows) from the UCI repository.
//!
//! We do not ship the UCI files, so [`real::PokerHandSim`] and
//! [`real::KddCupSim`] generate seeded surrogates with the same schema and
//! the same qualitative geometry (see the [`real`] module docs).  Everything
//! is deterministic given a seed, so experiments are reproducible and the
//! paper's "three graphs of each size and type" protocol can be followed by
//! varying the seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod real;
pub mod rng;
pub mod spec;
pub mod synthetic;

pub use real::{KddCupSim, PokerHandSim};
pub use spec::{DatasetSpec, FamilyParams, GeneratedDataset, SpecError, SpecParam};
pub use synthetic::{
    DupGenerator, ExpGenerator, GauGenerator, PlantedOutlierGenerator, UnbGenerator, UnifGenerator,
};

use kcenter_metric::{FlatPoints, Point, Scalar};

/// A rounding sink the generators push raw `f64` samples into.
///
/// Every generator draws its randomness in `f64` (so the sample stream —
/// and therefore the generated geometry — is identical at every storage
/// precision for a given seed) and rounds each coordinate into the target
/// [`Scalar`] **at emission**, writing it straight into its slot of the
/// caller's flat buffer: an `f32` workload is written as one `f32` buffer
/// directly, with no `f64`-materialise-then-convert pass.
pub(crate) struct CoordSink<'a, S: Scalar> {
    slots: std::slice::IterMut<'a, S>,
}

impl<'a, S: Scalar> CoordSink<'a, S> {
    /// A sink that fills `slots` front to back.
    pub(crate) fn new(slots: &'a mut [S]) -> Self {
        Self {
            slots: slots.iter_mut(),
        }
    }

    /// Rounds one sample into the target scalar and writes the next slot.
    ///
    /// # Panics
    ///
    /// Panics if every slot has already been written.
    #[inline]
    pub(crate) fn push(&mut self, v: f64) {
        *self
            .slots
            .next()
            .expect("generator emitted more coordinates than its rows hold") = S::from_f64(v);
    }
}

/// A generator that produces a deterministic point cloud from a seed.
///
/// All paper workloads implement this trait so the experiment harness can be
/// written once and parameterised by a [`DatasetSpec`].
///
/// Generators emit the contiguous [`FlatPoints`] store directly — the
/// representation every hot scan runs against — so a million-point workload
/// is one buffer, not a million small allocations, at whichever storage
/// precision the caller instantiates ([`PointGenerator::generate_flat_at`];
/// the samples are drawn in `f64` and rounded at emission, so the same seed
/// produces the same geometry at every precision).
/// [`PointGenerator::generate`] materialises owned [`Point`]s from the
/// `f64` store for callers that want the view type.
pub trait PointGenerator {
    /// Generates the full point cloud for the given seed as a flat store at
    /// storage precision `S`, rounding each coordinate once at emission.
    fn generate_flat_at<S: Scalar>(&self, seed: u64) -> FlatPoints<S>;

    /// Generates the full point cloud for the given seed as an `f64` flat
    /// store (the default precision).
    fn generate_flat(&self, seed: u64) -> FlatPoints {
        self.generate_flat_at::<f64>(seed)
    }

    /// Generates the full point cloud for the given seed as owned points.
    fn generate(&self, seed: u64) -> Vec<Point> {
        self.generate_flat(seed).to_points()
    }

    /// Number of points the generator will produce.
    fn len(&self) -> usize;

    /// Whether the generator produces no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Coordinate dimension of the generated points.
    fn dim(&self) -> usize;

    /// Short human-readable name used in experiment reports.
    fn name(&self) -> String;
}
