//! Empirical probing of MRG's approximation factor.
//!
//! The paper's future-work section notes that the factor of four for the
//! two-round MRG is *tight* — there exist inputs where an adversarial
//! assignment of points to machines plus an adversarial choice of GON
//! seedings drives the solution to 4·OPT — and asks: **how likely are such
//! cases in practice?**
//!
//! This module provides the measurement tool for that question: a
//! [`TightnessProbe`] runs MRG many times on the *same* instance while
//! randomising exactly the two adversarial degrees of freedom (the
//! point-to-machine assignment, by permuting the point order, and the GON
//! seeding, via [`FirstCenter::Seeded`]) and reports the worst, mean, and
//! best observed ratio against the exact optimum (brute force, so only tiny
//! instances are accepted) or against any externally supplied lower bound.
//!
//! The accompanying tests confirm that over hundreds of trials on random
//! instances the observed ratio stays well below the worst-case bound —
//! the empirical answer the paper anticipates — while the bound itself is
//! never violated.

use crate::brute_force::optimal_radius;
use crate::error::KCenterError;
use crate::evaluate::covered_within;
use crate::gonzalez::FirstCenter;
use crate::mrg::MrgConfig;
use kcenter_metric::{Euclidean, FlatPoints, Point, Scalar, VecSpace};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Configuration of an MRG tightness probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TightnessProbe {
    /// Number of centers.
    pub k: usize,
    /// Number of simulated machines.
    pub machines: usize,
    /// Per-machine capacity (small values force the reduction rounds whose
    /// compounding is what the factor-4 analysis is about).
    pub capacity: usize,
    /// Number of randomised trials.
    pub trials: usize,
    /// Base seed for the permutation / seeding randomness.
    pub seed: u64,
}

impl TightnessProbe {
    /// A probe with `trials` randomised runs of `k`-center MRG on a small
    /// cluster (3 machines, capacity forcing at least one reduction round
    /// for any instance larger than the capacity).
    pub fn new(k: usize, trials: usize) -> Self {
        Self {
            k,
            machines: 3,
            capacity: 8,
            trials,
            seed: 0,
        }
    }

    /// Sets the cluster geometry.
    pub fn with_cluster(mut self, machines: usize, capacity: usize) -> Self {
        self.machines = machines;
        self.capacity = capacity;
        self
    }

    /// Sets the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the probe against the exact optimum of `points` (computed by
    /// brute force, so the instance must be tiny), at `f64` storage
    /// precision.
    pub fn run(&self, points: &[Point]) -> Result<TightnessReport, KCenterError> {
        self.run_at::<f64>(points)
    }

    /// Like [`TightnessProbe::run`], but with MRG's scans running over an
    /// `S`-precision store.  The OPT reference and all reported ratios stay
    /// in `f64` (the probe's coverage guard and radii use the certified
    /// evaluation path), so reduced precision only perturbs the rounded
    /// inputs, never the measurement.
    pub fn run_at<S: Scalar>(&self, points: &[Point]) -> Result<TightnessReport, KCenterError> {
        let space = VecSpace::new(points.to_vec());
        let opt = optimal_radius(&space, self.k)?;
        self.run_with_lower_bound_at::<S>(points, opt)
    }

    /// Runs the probe against an externally supplied lower bound on OPT
    /// (useful for larger instances where brute force is infeasible; the
    /// reported ratios are then upper bounds on the true ratios), at `f64`
    /// storage precision.
    pub fn run_with_lower_bound(
        &self,
        points: &[Point],
        opt_lower_bound: f64,
    ) -> Result<TightnessReport, KCenterError> {
        self.run_with_lower_bound_at::<f64>(points, opt_lower_bound)
    }

    /// Precision-generic core of [`TightnessProbe::run_with_lower_bound`].
    pub fn run_with_lower_bound_at<S: Scalar>(
        &self,
        points: &[Point],
        opt_lower_bound: f64,
    ) -> Result<TightnessReport, KCenterError> {
        if points.is_empty() {
            return Err(KCenterError::EmptyInput);
        }
        if self.k == 0 {
            return Err(KCenterError::ZeroK);
        }
        if self.trials == 0 {
            return Err(KCenterError::InvalidParameter {
                name: "trials",
                message: "at least one trial is required".into(),
            });
        }
        if !(opt_lower_bound.is_finite() && opt_lower_bound >= 0.0) {
            return Err(KCenterError::InvalidParameter {
                name: "opt_lower_bound",
                message: format!("must be finite and non-negative, got {opt_lower_bound}"),
            });
        }

        let mut ratios = Vec::with_capacity(self.trials);
        let mut worst_factor_bound: f64 = 0.0;
        let mut worst_seed = self.seed;
        let mut worst_so_far = f64::NEG_INFINITY;
        for trial in 0..self.trials {
            let trial_seed = self.seed.wrapping_add(trial as u64);
            // Randomise the point-to-machine assignment by permuting the
            // point order: MRG's mapper chunks points contiguously, so a
            // permutation of the input realises an arbitrary assignment.
            let mut permuted = points.to_vec();
            let mut rng = StdRng::seed_from_u64(trial_seed);
            permuted.shuffle(&mut rng);
            let space: VecSpace<Euclidean, S> =
                VecSpace::from_flat(FlatPoints::from_points(&permuted));

            let result = MrgConfig::new(self.k)
                .with_machines(self.machines)
                .with_capacity(self.capacity)
                .with_unchecked_capacity()
                .with_first_center(FirstCenter::Seeded(trial_seed))
                .run(&space)?;

            // Guard the measurement itself: the reported radius must cover
            // every point.  The early-exit scan makes this check cheap (each
            // point stops at the first center within the radius).  The
            // margin is relative: the check squares the radius internally,
            // so an absolute epsilon would vanish against the sqrt/square
            // round-trip error on large-coordinate instances.
            let margin = result.solution.radius * (1.0 + 1e-9) + 1e-9;
            assert!(
                covered_within(&space, &result.solution.centers, margin),
                "trial {trial}: covering radius {} does not cover the instance",
                result.solution.radius
            );

            let ratio = if opt_lower_bound > 0.0 {
                result.solution.radius / opt_lower_bound
            } else if result.solution.radius == 0.0 {
                1.0
            } else {
                f64::INFINITY
            };
            if ratio > worst_so_far {
                worst_so_far = ratio;
                worst_seed = trial_seed;
            }
            worst_factor_bound = worst_factor_bound.max(result.approximation_factor);
            ratios.push(ratio);
        }

        let worst = ratios.iter().copied().fold(0.0, f64::max);
        let best = ratios.iter().copied().fold(f64::INFINITY, f64::min);
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        Ok(TightnessReport {
            trials: self.trials,
            opt_lower_bound,
            worst_ratio: worst,
            mean_ratio: mean,
            best_ratio: best,
            worst_seed,
            proven_factor: worst_factor_bound,
        })
    }
}

/// The outcome of a tightness probe.
#[derive(Debug, Clone, PartialEq)]
pub struct TightnessReport {
    /// Number of randomised trials performed.
    pub trials: usize,
    /// The OPT value (or lower bound) the ratios are measured against.
    pub opt_lower_bound: f64,
    /// The worst (largest) observed radius / OPT ratio.
    pub worst_ratio: f64,
    /// The mean observed ratio.
    pub mean_ratio: f64,
    /// The best (smallest) observed ratio.
    pub best_ratio: f64,
    /// The trial seed that produced the worst ratio (for reproduction).
    pub worst_seed: u64,
    /// The largest proven approximation factor among the trials (4 for the
    /// two-round case, +2 per extra reduction round).
    pub proven_factor: f64,
}

impl TightnessReport {
    /// Whether any trial violated its proven bound — always `false` unless
    /// there is a bug (or the supplied lower bound was not actually a lower
    /// bound).
    pub fn bound_violated(&self) -> bool {
        self.worst_ratio > self.proven_factor + 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small instance with two obvious clusters plus a few stragglers:
    /// enough structure that bad partitions/seedings produce visibly worse
    /// solutions, small enough for brute force.
    fn instance() -> Vec<Point> {
        vec![
            Point::xy(0.0, 0.0),
            Point::xy(1.0, 0.0),
            Point::xy(0.0, 1.0),
            Point::xy(1.0, 1.0),
            Point::xy(20.0, 0.0),
            Point::xy(21.0, 0.0),
            Point::xy(20.0, 1.0),
            Point::xy(21.0, 1.0),
            Point::xy(10.0, 10.0),
            Point::xy(10.5, 10.0),
            Point::xy(10.0, 10.5),
            Point::xy(30.0, 30.0),
            Point::xy(30.0, 31.0),
            Point::xy(31.0, 30.0),
        ]
    }

    #[test]
    fn probe_never_observes_a_bound_violation() {
        let report = TightnessProbe::new(3, 60)
            .with_seed(1)
            .run(&instance())
            .unwrap();
        assert_eq!(report.trials, 60);
        assert!(
            report.worst_ratio >= 1.0 - 1e-9,
            "no algorithm can beat OPT"
        );
        assert!(
            !report.bound_violated(),
            "worst ratio {} exceeded the proven factor {}",
            report.worst_ratio,
            report.proven_factor
        );
        assert!(report.best_ratio <= report.mean_ratio && report.mean_ratio <= report.worst_ratio);
    }

    #[test]
    fn typical_ratios_are_far_below_the_worst_case() {
        // The empirical answer to the paper's future-work question: across
        // many random assignments and seedings the observed ratio on a
        // benign instance stays far below 4.
        let report = TightnessProbe::new(4, 80)
            .with_seed(2)
            .run(&instance())
            .unwrap();
        assert!(report.proven_factor >= 4.0);
        assert!(
            report.mean_ratio < 0.75 * report.proven_factor,
            "mean ratio {} is implausibly close to the worst case {}",
            report.mean_ratio,
            report.proven_factor
        );
    }

    #[test]
    fn randomisation_actually_changes_outcomes() {
        // Different trials must explore different partitions/seedings; on
        // this instance that shows up as best != worst.
        let report = TightnessProbe::new(2, 40)
            .with_seed(3)
            .run(&instance())
            .unwrap();
        assert!(
            report.worst_ratio > report.best_ratio + 1e-9,
            "all trials produced the same ratio; the probe is not randomising"
        );
    }

    #[test]
    fn probe_is_deterministic_given_its_seed() {
        let a = TightnessProbe::new(3, 25)
            .with_seed(7)
            .run(&instance())
            .unwrap();
        let b = TightnessProbe::new(3, 25)
            .with_seed(7)
            .run(&instance())
            .unwrap();
        assert_eq!(a, b);
        let c = TightnessProbe::new(3, 25)
            .with_seed(8)
            .run(&instance())
            .unwrap();
        assert!(a != c || a.worst_seed != c.worst_seed);
    }

    #[test]
    fn external_lower_bound_variant_accepts_larger_instances() {
        // A 60-point instance is too big for brute force but fine with an
        // explicit lower bound (here: half the minimum distance between the
        // two planted cluster centers is a valid bound for k = 2 ... we use
        // a trivially valid bound of 0.5).
        let mut points = Vec::new();
        for i in 0..30 {
            points.push(Point::xy(i as f64 * 0.01, 0.0));
            points.push(Point::xy(100.0 + i as f64 * 0.01, 0.0));
        }
        let report = TightnessProbe::new(2, 10)
            .with_cluster(4, 16)
            .with_seed(5)
            .run_with_lower_bound(&points, 0.1)
            .unwrap();
        assert!(report.worst_ratio.is_finite());
        assert!(report.trials == 10);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert_eq!(
            TightnessProbe::new(2, 0).run(&instance()).unwrap_err(),
            KCenterError::InvalidParameter {
                name: "trials",
                message: "at least one trial is required".into()
            }
        );
        assert_eq!(
            TightnessProbe::new(0, 5).run(&instance()).unwrap_err(),
            KCenterError::ZeroK
        );
        assert_eq!(
            TightnessProbe::new(2, 5).run(&[]).unwrap_err(),
            KCenterError::EmptyInput
        );
        assert!(matches!(
            TightnessProbe::new(2, 5)
                .run_with_lower_bound(&instance(), f64::NAN)
                .unwrap_err(),
            KCenterError::InvalidParameter {
                name: "opt_lower_bound",
                ..
            }
        ));
    }
}
