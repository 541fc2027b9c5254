//! Declarative data-set specifications for the experiment harness.
//!
//! Every table and figure in the paper is defined by a workload (which
//! generator, which parameters) and an algorithm sweep.  [`DatasetSpec`]
//! captures the workload half so the bench harness and the `repro` binary
//! can describe experiments as data, and so the exact configuration ends up
//! serialised next to the measured results.

use crate::real::{KddCupSim, PokerHandSim};
use crate::synthetic::{
    DupGenerator, ExpGenerator, GauGenerator, PlantedOutlierGenerator, UnbGenerator, UnifGenerator,
    MAX_PLACED_COORD,
};
use crate::PointGenerator;
use kcenter_metric::{Euclidean, FlatPoints, Point, Scalar, VecSpace};

/// A declarative description of one of the paper's workloads.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetSpec {
    /// UNIF: `n` points uniform in a two-dimensional square.
    Unif {
        /// Number of points.
        n: usize,
    },
    /// GAU: `n` points in `k_prime` balanced Gaussian clusters.
    Gau {
        /// Number of points.
        n: usize,
        /// Number of inherent clusters (the paper's `k'`).
        k_prime: usize,
    },
    /// UNB: like GAU but with half of the mass in one cluster.
    Unb {
        /// Number of points.
        n: usize,
        /// Number of inherent clusters.
        k_prime: usize,
    },
    /// Simulated Poker Hand training set.
    PokerHand {
        /// Number of rows (the UCI training set has 25,010).
        n: usize,
    },
    /// Simulated KDD Cup 1999 10 % sample.
    KddCup {
        /// Number of rows (the UCI 10 % sample has ~494k).
        n: usize,
    },
    /// EXP: adversarial exponential-spread clusters (aspect ratio
    /// `2^(k'-1)`), the worst case for uniform-spacing heuristics.
    Exp {
        /// Number of points.
        n: usize,
        /// Number of inherent clusters.
        k_prime: usize,
    },
    /// DUP: adversarial duplicate-heavy data — `n` points collapsed onto
    /// `distinct` exact lattice locations.
    Dup {
        /// Number of points.
        n: usize,
        /// Number of distinct locations.
        distinct: usize,
    },
    /// GAU-HD: balanced Gaussian clusters in high dimension (the d ∈
    /// {64, 128} regime where the width-pinned kernels earn their keep and
    /// grid bucketing must fall back to dense).
    HighDim {
        /// Number of points.
        n: usize,
        /// Number of inherent clusters.
        k_prime: usize,
        /// Dimension (e.g. 64 or 128).
        dim: usize,
    },
    /// GAU+OUT: Gaussian clusters plus planted far outliers, the workload
    /// for the robust with-outliers variant.
    PlantedOutliers {
        /// Number of points (including the planted outliers).
        n: usize,
        /// Number of inherent clusters.
        k_prime: usize,
        /// Number of planted outliers among the `n` points.
        outliers: usize,
    },
}

/// The optional parameters of a named family; `None` takes the default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FamilyParams {
    /// Inherent clusters `k'` (default 25).
    pub k_prime: Option<usize>,
    /// DUP's distinct locations (default 16).
    pub distinct: Option<usize>,
    /// GAU-HD's dimension (default 64).
    pub dim: Option<usize>,
    /// GAU+OUT's planted outliers (default 1% of `n`, at least one, at
    /// most `n`).
    pub planted: Option<usize>,
}

/// The parameter a [`SpecError`] rejects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecParam {
    /// The family name.
    Family,
    /// [`FamilyParams::k_prime`].
    KPrime,
    /// [`FamilyParams::distinct`].
    Distinct,
    /// [`FamilyParams::dim`].
    Dim,
    /// [`FamilyParams::planted`].
    Planted,
}

/// A family name or parameter that no generator accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The rejected parameter.
    pub param: SpecParam,
    /// The rejected value, rendered.
    pub value: String,
    /// What would have been accepted.
    pub expected: String,
}

impl DatasetSpec {
    /// Maps a family name (case-insensitive), `n` and the optional
    /// parameters to a spec, or names the parameter a generator would
    /// panic on.  This is the one family parser of the CLI and the
    /// scenario specs.
    pub fn from_family(
        family: &str,
        n: usize,
        params: FamilyParams,
    ) -> Result<DatasetSpec, SpecError> {
        let k_prime = params.k_prime.unwrap_or(25);
        let family = family.to_ascii_lowercase();
        let spec = match family.as_str() {
            "unif" => DatasetSpec::Unif { n },
            "gau" => DatasetSpec::Gau { n, k_prime },
            "unb" => DatasetSpec::Unb { n, k_prime },
            "poker" => DatasetSpec::PokerHand { n },
            "kdd" => DatasetSpec::KddCup { n },
            "exp" => DatasetSpec::Exp { n, k_prime },
            "dup" => DatasetSpec::Dup {
                n,
                distinct: params.distinct.unwrap_or(16),
            },
            "gau-hd" => DatasetSpec::HighDim {
                n,
                k_prime,
                dim: params.dim.unwrap_or(64),
            },
            "gau+out" | "planted" => DatasetSpec::PlantedOutliers {
                n,
                k_prime,
                outliers: params.planted.unwrap_or((n / 100).max(1).min(n)),
            },
            _ => {
                return Err(SpecError {
                    param: SpecParam::Family,
                    value: family,
                    expected: "unif | gau | unb | poker | kdd | exp | dup | gau-hd | gau+out"
                        .to_string(),
                })
            }
        };
        let (param, value, expected) = match spec {
            DatasetSpec::Gau { k_prime: 0, .. }
            | DatasetSpec::Unb { k_prime: 0, .. }
            | DatasetSpec::Exp { k_prime: 0, .. }
            | DatasetSpec::HighDim { k_prime: 0, .. }
            | DatasetSpec::PlantedOutliers { k_prime: 0, .. } => {
                (SpecParam::KPrime, 0, "at least one cluster".to_string())
            }
            DatasetSpec::Exp { k_prime, .. }
                if ExpGenerator::farthest_center(k_prime) > MAX_PLACED_COORD =>
            {
                let expected = format!(
                    "a k' whose farthest exp center 2^(k'-1) stays within {MAX_PLACED_COORD:e}"
                );
                (SpecParam::KPrime, k_prime, expected)
            }
            DatasetSpec::Dup { distinct: 0, .. } => {
                (SpecParam::Distinct, 0, "at least one location".to_string())
            }
            DatasetSpec::HighDim { dim: 0, .. } => {
                (SpecParam::Dim, 0, "at least one dimension".to_string())
            }
            DatasetSpec::PlantedOutliers { outliers, .. } if outliers > n => {
                (SpecParam::Planted, outliers, format!("at most n = {n}"))
            }
            _ => return Ok(spec),
        };
        Err(SpecError {
            param,
            value: value.to_string(),
            expected,
        })
    }

    /// The workload name as used in the paper.
    pub fn family(&self) -> &'static str {
        match self {
            DatasetSpec::Unif { .. } => "UNIF",
            DatasetSpec::Gau { .. } => "GAU",
            DatasetSpec::Unb { .. } => "UNB",
            DatasetSpec::PokerHand { .. } => "POKER HAND",
            DatasetSpec::KddCup { .. } => "KDD CUP 1999",
            DatasetSpec::Exp { .. } => "EXP",
            DatasetSpec::Dup { .. } => "DUP",
            DatasetSpec::HighDim { .. } => "GAU-HD",
            DatasetSpec::PlantedOutliers { .. } => "GAU+OUT",
        }
    }

    /// Number of points the specification will generate.
    pub fn n(&self) -> usize {
        match *self {
            DatasetSpec::Unif { n }
            | DatasetSpec::Gau { n, .. }
            | DatasetSpec::Unb { n, .. }
            | DatasetSpec::PokerHand { n }
            | DatasetSpec::KddCup { n }
            | DatasetSpec::Exp { n, .. }
            | DatasetSpec::Dup { n, .. }
            | DatasetSpec::HighDim { n, .. }
            | DatasetSpec::PlantedOutliers { n, .. } => n,
        }
    }

    /// Returns a copy of the spec scaled to `round(n * factor)` points,
    /// preserving every other parameter.  Used to run the paper's
    /// experiments at reduced scale in CI while keeping the same shape.
    pub fn scaled(&self, factor: f64) -> DatasetSpec {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "scale factor must be positive"
        );
        let scale = |n: usize| ((n as f64 * factor).round() as usize).max(1);
        match *self {
            DatasetSpec::Unif { n } => DatasetSpec::Unif { n: scale(n) },
            DatasetSpec::Gau { n, k_prime } => DatasetSpec::Gau {
                n: scale(n),
                k_prime,
            },
            DatasetSpec::Unb { n, k_prime } => DatasetSpec::Unb {
                n: scale(n),
                k_prime,
            },
            DatasetSpec::PokerHand { n } => DatasetSpec::PokerHand { n: scale(n) },
            DatasetSpec::KddCup { n } => DatasetSpec::KddCup { n: scale(n) },
            DatasetSpec::Exp { n, k_prime } => DatasetSpec::Exp {
                n: scale(n),
                k_prime,
            },
            DatasetSpec::Dup { n, distinct } => DatasetSpec::Dup {
                n: scale(n),
                distinct,
            },
            DatasetSpec::HighDim { n, k_prime, dim } => DatasetSpec::HighDim {
                n: scale(n),
                k_prime,
                dim,
            },
            DatasetSpec::PlantedOutliers {
                n,
                k_prime,
                outliers,
            } => DatasetSpec::PlantedOutliers {
                // Planted outliers scale with the instance so the robust
                // variant keeps the same z/n shape at reduced CI scale.
                n: scale(n),
                k_prime,
                outliers: scale(n).min(((outliers as f64 * factor).round() as usize).max(1)),
            },
        }
    }

    /// Generates the point cloud for this spec and seed as a flat store at
    /// storage precision `S` — the zero-copy path the experiment harness
    /// uses.  Samples are drawn in `f64` and rounded at emission, so the
    /// geometry is the same at every precision for a given seed and there
    /// is no convert-after-generate pass.
    pub fn generate_flat_at<S: Scalar>(&self, seed: u64) -> FlatPoints<S> {
        match *self {
            DatasetSpec::Unif { n } => UnifGenerator::new(n).generate_flat_at(seed),
            DatasetSpec::Gau { n, k_prime } => GauGenerator::new(n, k_prime).generate_flat_at(seed),
            DatasetSpec::Unb { n, k_prime } => UnbGenerator::new(n, k_prime).generate_flat_at(seed),
            DatasetSpec::PokerHand { n } => PokerHandSim::with_rows(n).generate_flat_at(seed),
            DatasetSpec::KddCup { n } => KddCupSim::with_rows(n).generate_flat_at(seed),
            DatasetSpec::Exp { n, k_prime } => ExpGenerator::new(n, k_prime).generate_flat_at(seed),
            DatasetSpec::Dup { n, distinct } => {
                DupGenerator::new(n, distinct).generate_flat_at(seed)
            }
            DatasetSpec::HighDim { n, k_prime, dim } => {
                GauGenerator::with_params(n, k_prime, dim, 100.0, 0.002).generate_flat_at(seed)
            }
            DatasetSpec::PlantedOutliers {
                n,
                k_prime,
                outliers,
            } => PlantedOutlierGenerator::new(n, k_prime, outliers).generate_flat_at(seed),
        }
    }

    /// Generates the point cloud for this spec and seed as an `f64` flat
    /// store.
    pub fn generate_flat(&self, seed: u64) -> FlatPoints {
        self.generate_flat_at::<f64>(seed)
    }

    /// Generates the point cloud for this spec and seed as owned points.
    pub fn generate(&self, seed: u64) -> Vec<Point> {
        self.generate_flat(seed).to_points()
    }

    /// Generates the point cloud at storage precision `S` and wraps it in a
    /// Euclidean [`VecSpace`], together with the metadata the experiment
    /// harness records.  The flat buffer moves straight into the space
    /// without per-point allocations.
    pub fn build_at<S: Scalar>(&self, seed: u64) -> GeneratedDataset<S> {
        let flat = self.generate_flat_at::<S>(seed);
        GeneratedDataset {
            spec: self.clone(),
            seed,
            space: VecSpace::from_flat(flat),
        }
    }

    /// Generates the point cloud at the default `f64` precision and wraps
    /// it in a Euclidean [`VecSpace`].
    pub fn build(&self, seed: u64) -> GeneratedDataset {
        self.build_at::<f64>(seed)
    }

    /// A human-readable description including all parameters.
    pub fn describe(&self) -> String {
        match *self {
            DatasetSpec::Unif { n } => format!("UNIF (n = {n})"),
            DatasetSpec::Gau { n, k_prime } => format!("GAU (n = {n}, k' = {k_prime})"),
            DatasetSpec::Unb { n, k_prime } => format!("UNB (n = {n}, k' = {k_prime})"),
            DatasetSpec::PokerHand { n } => format!("POKER HAND (n = {n})"),
            DatasetSpec::KddCup { n } => format!("KDD CUP 1999 (n = {n})"),
            DatasetSpec::Exp { n, k_prime } => format!("EXP (n = {n}, k' = {k_prime})"),
            DatasetSpec::Dup { n, distinct } => format!("DUP (n = {n}, distinct = {distinct})"),
            DatasetSpec::HighDim { n, k_prime, dim } => {
                format!("GAU-HD (n = {n}, k' = {k_prime}, d = {dim})")
            }
            DatasetSpec::PlantedOutliers {
                n,
                k_prime,
                outliers,
            } => format!("GAU+OUT (n = {n}, k' = {k_prime}, z = {outliers})"),
        }
    }
}

/// A generated data set: the spec, the seed, and the resulting metric space
/// (at whatever storage precision it was built with).
#[derive(Clone)]
pub struct GeneratedDataset<S: Scalar = f64> {
    /// The specification the data was generated from.
    pub spec: DatasetSpec,
    /// The seed used.
    pub seed: u64,
    /// The generated points wrapped in a Euclidean metric space.
    pub space: VecSpace<Euclidean, S>,
}

impl<S: Scalar> GeneratedDataset<S> {
    /// Number of generated points.
    pub fn len(&self) -> usize {
        self.space.len()
    }

    /// Whether the data set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The storage-precision name (`"f32"` / `"f64"`), for reports.
    pub fn precision_name(&self) -> &'static str {
        S::NAME
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_reports_family_and_size() {
        assert_eq!(DatasetSpec::Unif { n: 10 }.family(), "UNIF");
        assert_eq!(DatasetSpec::Gau { n: 10, k_prime: 2 }.family(), "GAU");
        assert_eq!(DatasetSpec::Unb { n: 10, k_prime: 2 }.family(), "UNB");
        assert_eq!(DatasetSpec::PokerHand { n: 10 }.family(), "POKER HAND");
        assert_eq!(DatasetSpec::KddCup { n: 10 }.family(), "KDD CUP 1999");
        assert_eq!(DatasetSpec::KddCup { n: 123 }.n(), 123);
        assert_eq!(DatasetSpec::Exp { n: 10, k_prime: 3 }.family(), "EXP");
        assert_eq!(DatasetSpec::Dup { n: 10, distinct: 2 }.family(), "DUP");
        assert_eq!(
            DatasetSpec::HighDim {
                n: 10,
                k_prime: 2,
                dim: 64
            }
            .family(),
            "GAU-HD"
        );
        assert_eq!(
            DatasetSpec::PlantedOutliers {
                n: 10,
                k_prime: 2,
                outliers: 1
            }
            .family(),
            "GAU+OUT"
        );
    }

    #[test]
    fn generate_produces_requested_sizes() {
        for spec in [
            DatasetSpec::Unif { n: 50 },
            DatasetSpec::Gau { n: 50, k_prime: 3 },
            DatasetSpec::Unb { n: 50, k_prime: 3 },
            DatasetSpec::PokerHand { n: 50 },
            DatasetSpec::KddCup { n: 50 },
            DatasetSpec::Exp { n: 50, k_prime: 3 },
            DatasetSpec::Dup { n: 50, distinct: 5 },
            DatasetSpec::HighDim {
                n: 50,
                k_prime: 3,
                dim: 64,
            },
            DatasetSpec::PlantedOutliers {
                n: 50,
                k_prime: 3,
                outliers: 5,
            },
        ] {
            assert_eq!(spec.generate(1).len(), 50, "{}", spec.describe());
        }
    }

    #[test]
    fn high_dim_spec_generates_the_requested_dimension() {
        let flat = DatasetSpec::HighDim {
            n: 20,
            k_prime: 2,
            dim: 128,
        }
        .generate_flat(1);
        assert_eq!(flat.dim(), 128);
    }

    #[test]
    fn planted_outlier_spec_scales_z_with_n() {
        let spec = DatasetSpec::PlantedOutliers {
            n: 10_000,
            k_prime: 5,
            outliers: 100,
        };
        assert_eq!(
            spec.scaled(0.1),
            DatasetSpec::PlantedOutliers {
                n: 1_000,
                k_prime: 5,
                outliers: 10,
            }
        );
    }

    #[test]
    fn build_wraps_points_in_a_space() {
        let ds = DatasetSpec::Gau { n: 40, k_prime: 2 }.build(5);
        assert_eq!(ds.len(), 40);
        assert!(!ds.is_empty());
        assert_eq!(ds.seed, 5);
        assert_eq!(ds.spec, DatasetSpec::Gau { n: 40, k_prime: 2 });
    }

    #[test]
    fn scaled_changes_only_n() {
        let spec = DatasetSpec::Gau {
            n: 1_000_000,
            k_prime: 25,
        };
        assert_eq!(
            spec.scaled(0.01),
            DatasetSpec::Gau {
                n: 10_000,
                k_prime: 25
            }
        );
        assert_eq!(spec.scaled(1.0), spec);
        // Scaling never drops to zero points.
        assert_eq!(DatasetSpec::Unif { n: 10 }.scaled(0.001).n(), 1);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn scaled_rejects_nonpositive_factor() {
        DatasetSpec::Unif { n: 10 }.scaled(0.0);
    }

    #[test]
    fn describe_mentions_parameters() {
        let s = DatasetSpec::Gau {
            n: 200_000,
            k_prime: 25,
        }
        .describe();
        assert!(s.contains("200000") && s.contains("25"));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = DatasetSpec::Unb { n: 77, k_prime: 5 };
        assert_eq!(spec.generate(4), spec.generate(4));
        assert_ne!(spec.generate(4), spec.generate(5));
    }
}
