//! Synthetic workload generators: UNIF, GAU, UNB (Section 7.3).
//!
//! * [`UnifGenerator`] — `n` points uniform in a 2-dimensional square of a
//!   configurable side length (the paper uses a square; values in its UNIF
//!   tables are consistent with a side length of a few hundred units, so the
//!   default side is 1000 to produce objective values on the same scale).
//! * [`GauGenerator`] — `k'` cluster centers uniform in the unit cube (the
//!   paper's description), points assigned to clusters uniformly at random,
//!   Gaussian offset with σ = 1/10.  The paper scales coordinates such that
//!   the inter-cluster distances dominate; we expose the cube side so both
//!   the paper's "unit cube" reading and the magnitudes of its tables can be
//!   reproduced (`cube_side` defaults to 1000, σ is relative to the side).
//! * [`UnbGenerator`] — unbalanced version of GAU: roughly half of the
//!   points fall into a single cluster, the rest are spread uniformly over
//!   the remaining clusters.
//!
//! Every generator is deterministic given a seed and supports any dimension
//! (the paper uses two and three dimensions for the synthetic families).

use crate::rng::{derive_seed, normal, seeded, weighted_choice};
use crate::{CoordSink, PointGenerator};
use kcenter_metric::{FlatPoints, Point, Scalar};
use rand::Rng;
use rayon::prelude::*;

/// Points generated per parallel chunk by the synthetic families; each
/// chunk owns a derived RNG stream, so results are independent of the
/// rayon split while remaining deterministic for a given seed.
const GEN_CHUNK: usize = 16_384;

/// The largest coordinate magnitude a generator places a cluster center or
/// planted outlier at: beyond it an `f32` store could overflow squared
/// distances.
pub const MAX_PLACED_COORD: f64 = 1e14;

/// Runs `fill(point_index, rng, sink)` for every point in parallel chunks
/// of `chunk` points, each writing its rows straight into its own slice of
/// one caller-allocated flat buffer at the target storage precision (no
/// per-chunk blocks to concatenate, so no freed blocks linger in the
/// worker threads' allocator arenas).  The RNG stream is
/// precision-independent (all draws are `f64`; the sink rounds at
/// emission), so a given seed produces the same geometry at every
/// precision.  Chunk `c` draws from `derive_seed(seed, c)`, so `chunk` is
/// part of a generator's stream layout.  `fill` receives the global point
/// index, letting generators place specific rows — e.g. planted outliers —
/// by position.
pub(crate) fn generate_chunked<S: Scalar, F>(
    n: usize,
    dim: usize,
    chunk: usize,
    seed: u64,
    fill: F,
) -> FlatPoints<S>
where
    F: Fn(usize, &mut rand::rngs::StdRng, &mut CoordSink<'_, S>) + Sync,
{
    let mut coords = vec![S::ZERO; n * dim];
    coords
        .par_chunks_mut(chunk * dim)
        .enumerate()
        .for_each(|(c, block)| {
            let rows = block.len() / dim;
            let mut rng = seeded(derive_seed(seed, c as u64));
            let mut sink = CoordSink::new(block);
            for i in 0..rows {
                fill(c * chunk + i, &mut rng, &mut sink);
            }
        });
    FlatPoints::from_coords(coords, if n == 0 { 0 } else { dim })
        .expect("generators emit finite coordinates")
}

/// Uniform points in a `dim`-dimensional axis-aligned cube.
#[derive(Debug, Clone, PartialEq)]
pub struct UnifGenerator {
    n: usize,
    dim: usize,
    side: f64,
}

impl UnifGenerator {
    /// `n` points uniform in a 2-D square with the default side length
    /// (130), which puts the objective values on the same scale as the
    /// paper's UNIF tables (≈91 at k = 2 for n = 100,000).
    pub fn new(n: usize) -> Self {
        Self::with_dim_and_side(n, 2, 130.0)
    }

    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `side <= 0`.
    pub fn with_dim_and_side(n: usize, dim: usize, side: f64) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(
            side > 0.0 && side.is_finite(),
            "side must be positive and finite"
        );
        Self { n, dim, side }
    }

    /// Side length of the square/cube.
    pub fn side(&self) -> f64 {
        self.side
    }
}

impl PointGenerator for UnifGenerator {
    fn generate_flat_at<S: Scalar>(&self, seed: u64) -> FlatPoints<S> {
        let (dim, side) = (self.dim, self.side);
        generate_chunked(self.n, dim, GEN_CHUNK, seed, |_, rng, block| {
            for _ in 0..dim {
                block.push(rng.gen::<f64>() * side);
            }
        })
    }

    fn len(&self) -> usize {
        self.n
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn name(&self) -> String {
        format!("UNIF(n={}, d={})", self.n, self.dim)
    }
}

/// Shared machinery for the clustered generators (GAU and UNB).
#[derive(Debug, Clone, PartialEq)]
struct ClusteredConfig {
    n: usize,
    k_prime: usize,
    dim: usize,
    cube_side: f64,
    sigma_fraction: f64,
}

impl ClusteredConfig {
    fn new(n: usize, k_prime: usize, dim: usize, cube_side: f64, sigma_fraction: f64) -> Self {
        assert!(k_prime > 0, "number of inherent clusters must be positive");
        assert!(dim > 0, "dimension must be positive");
        assert!(
            cube_side > 0.0 && cube_side.is_finite(),
            "cube side must be positive"
        );
        assert!(sigma_fraction >= 0.0, "sigma must be non-negative");
        Self {
            n,
            k_prime,
            dim,
            cube_side,
            sigma_fraction,
        }
    }

    /// Cluster centers uniform in the cube.
    fn centers(&self, seed: u64) -> Vec<Point> {
        let mut rng = seeded(derive_seed(seed, u64::MAX));
        (0..self.k_prime)
            .map(|_| {
                Point::new(
                    (0..self.dim)
                        .map(|_| rng.gen::<f64>() * self.cube_side)
                        .collect(),
                )
            })
            .collect()
    }

    /// Generates points given per-cluster assignment weights.
    fn generate_with_weights<S: Scalar>(&self, seed: u64, weights: &[f64]) -> FlatPoints<S> {
        assert_eq!(weights.len(), self.k_prime);
        let centers = self.centers(seed);
        let sigma = self.sigma_fraction * self.cube_side;
        let dim = self.dim;
        generate_chunked(self.n, dim, GEN_CHUNK, seed, |_, rng, block| {
            let c = weighted_choice(rng, weights);
            let center = &centers[c];
            for d in 0..dim {
                block.push(normal(rng, center[d], sigma));
            }
        })
    }
}

/// GAU: balanced Gaussian clusters around `k'` uniform centers, mimicking
/// the synthetic data of Ene et al.
///
/// The paper describes cluster centers "uniformly randomly generated in a
/// unit cube" with a Gaussian point spread of σ = 1/10; the objective
/// values it reports (e.g. Table 2 dropping from ≈96 at k = 2 to ≈0.96 at
/// k = k′ = 25) imply that σ is small relative to the inter-center spacing.
/// The defaults here — a cube of side 100 with σ = 0.2 — reproduce both
/// that spacing/σ ratio and the absolute magnitudes of the paper's tables.
#[derive(Debug, Clone, PartialEq)]
pub struct GauGenerator {
    config: ClusteredConfig,
}

impl GauGenerator {
    /// `n` points in `k'` balanced Gaussian clusters in a 3-D cube of side
    /// 100 with σ = 0.2 (see the type-level docs for how this maps onto the
    /// paper's description).
    pub fn new(n: usize, k_prime: usize) -> Self {
        Self::with_params(n, k_prime, 3, 100.0, 0.002)
    }

    /// Fully parameterised constructor (`sigma_fraction` is σ divided by the
    /// cube side; the paper fixes it to 1/10).
    pub fn with_params(
        n: usize,
        k_prime: usize,
        dim: usize,
        cube_side: f64,
        sigma_fraction: f64,
    ) -> Self {
        Self {
            config: ClusteredConfig::new(n, k_prime, dim, cube_side, sigma_fraction),
        }
    }

    /// Number of inherent clusters `k'`.
    pub fn k_prime(&self) -> usize {
        self.config.k_prime
    }

    /// The cluster centers that would be used for the given seed (exposed so
    /// tests can verify points concentrate around them).
    pub fn cluster_centers(&self, seed: u64) -> Vec<Point> {
        self.config.centers(seed)
    }
}

impl PointGenerator for GauGenerator {
    fn generate_flat_at<S: Scalar>(&self, seed: u64) -> FlatPoints<S> {
        let weights = vec![1.0; self.config.k_prime];
        self.config.generate_with_weights(seed, &weights)
    }

    fn len(&self) -> usize {
        self.config.n
    }

    fn dim(&self) -> usize {
        self.config.dim
    }

    fn name(&self) -> String {
        format!(
            "GAU(n={}, k'={}, d={})",
            self.config.n, self.config.k_prime, self.config.dim
        )
    }
}

/// UNB: unbalanced Gaussian clusters — about half of the points fall in one
/// cluster, the rest are spread uniformly over the remaining `k' - 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct UnbGenerator {
    config: ClusteredConfig,
    heavy_fraction: f64,
}

impl UnbGenerator {
    /// `n` points, `k'` clusters, roughly half of the mass in cluster 0;
    /// geometry otherwise identical to [`GauGenerator::new`].
    pub fn new(n: usize, k_prime: usize) -> Self {
        Self::with_params(n, k_prime, 3, 100.0, 0.002, 0.5)
    }

    /// Fully parameterised constructor; `heavy_fraction` is the expected
    /// share of points landing in the heavy cluster.
    pub fn with_params(
        n: usize,
        k_prime: usize,
        dim: usize,
        cube_side: f64,
        sigma_fraction: f64,
        heavy_fraction: f64,
    ) -> Self {
        assert!(
            (0.0..1.0).contains(&heavy_fraction) || heavy_fraction == 1.0,
            "heavy fraction must lie in (0, 1]"
        );
        Self {
            config: ClusteredConfig::new(n, k_prime, dim, cube_side, sigma_fraction),
            heavy_fraction,
        }
    }

    /// Number of inherent clusters `k'`.
    pub fn k_prime(&self) -> usize {
        self.config.k_prime
    }

    /// Expected fraction of points in the heavy cluster.
    pub fn heavy_fraction(&self) -> f64 {
        self.heavy_fraction
    }
}

impl PointGenerator for UnbGenerator {
    fn generate_flat_at<S: Scalar>(&self, seed: u64) -> FlatPoints<S> {
        let k = self.config.k_prime;
        let mut weights = vec![0.0; k];
        if k == 1 {
            weights[0] = 1.0;
        } else {
            weights[0] = self.heavy_fraction;
            let rest = (1.0 - self.heavy_fraction) / (k - 1) as f64;
            for w in weights.iter_mut().skip(1) {
                *w = rest;
            }
        }
        self.config.generate_with_weights(seed, &weights)
    }

    fn len(&self) -> usize {
        self.config.n
    }

    fn dim(&self) -> usize {
        self.config.dim
    }

    fn name(&self) -> String {
        format!(
            "UNB(n={}, k'={}, d={})",
            self.config.n, self.config.k_prime, self.config.dim
        )
    }
}

/// EXP: adversarial exponential-spread clusters.
///
/// `k'` tight Gaussian clusters whose centers sit at geometrically growing
/// offsets from the origin — center `c` lies at `base · ratio^c` along axis
/// `c mod dim` — so the inter-cluster distances span an exponential range
/// (aspect ratio `ratio^(k'-1)`).  This is the classic adversarial input
/// for grid bucketing and for any heuristic tuned to uniform spacing: most
/// of the diameter is carried by a single pair of clusters.
///
/// The constructor rejects configurations whose farthest center would
/// approach [`Scalar::MAX_ABS_COORD`] for the `f32` store, so the family is
/// generatable at every storage precision.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpGenerator {
    n: usize,
    k_prime: usize,
    dim: usize,
    base: f64,
    ratio: f64,
    sigma_fraction: f64,
}

impl ExpGenerator {
    /// `n` points in `k'` exponentially spread clusters in the plane with
    /// the default base spacing 1, ratio 2 and σ = 0.05 · base.
    pub fn new(n: usize, k_prime: usize) -> Self {
        Self::with_params(n, k_prime, 2, 1.0, 2.0, 0.05)
    }

    /// The farthest center `2^(k'-1)` of [`ExpGenerator::new`]'s layout.
    pub(crate) fn farthest_center(k_prime: usize) -> f64 {
        2f64.powi(k_prime as i32 - 1)
    }

    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics if `k_prime == 0`, `dim == 0`, `base <= 0`, `ratio < 1`,
    /// `sigma_fraction < 0`, or the farthest center `base · ratio^(k'-1)`
    /// exceeds [`MAX_PLACED_COORD`].
    pub fn with_params(
        n: usize,
        k_prime: usize,
        dim: usize,
        base: f64,
        ratio: f64,
        sigma_fraction: f64,
    ) -> Self {
        assert!(k_prime > 0, "number of inherent clusters must be positive");
        assert!(dim > 0, "dimension must be positive");
        assert!(base > 0.0 && base.is_finite(), "base must be positive");
        assert!(ratio >= 1.0 && ratio.is_finite(), "ratio must be >= 1");
        assert!(sigma_fraction >= 0.0, "sigma must be non-negative");
        let spread = base * ratio.powi(k_prime as i32 - 1);
        assert!(
            spread.is_finite() && spread <= MAX_PLACED_COORD,
            "exponential spread {spread:e} exceeds the f32-safe coordinate bound"
        );
        Self {
            n,
            k_prime,
            dim,
            base,
            ratio,
            sigma_fraction,
        }
    }

    /// Number of inherent clusters `k'`.
    pub fn k_prime(&self) -> usize {
        self.k_prime
    }

    /// The deterministic (seed-independent) cluster centers.
    pub fn cluster_centers(&self) -> Vec<Point> {
        (0..self.k_prime)
            .map(|c| {
                let mut coords = vec![0.0; self.dim];
                coords[c % self.dim] = self.base * self.ratio.powi(c as i32);
                Point::new(coords)
            })
            .collect()
    }
}

impl PointGenerator for ExpGenerator {
    fn generate_flat_at<S: Scalar>(&self, seed: u64) -> FlatPoints<S> {
        let centers = self.cluster_centers();
        let sigma = self.sigma_fraction * self.base;
        let weights = vec![1.0; self.k_prime];
        let dim = self.dim;
        generate_chunked(self.n, dim, GEN_CHUNK, seed, |_, rng, block| {
            let c = weighted_choice(rng, &weights);
            let center = &centers[c];
            for d in 0..dim {
                block.push(normal(rng, center[d], sigma));
            }
        })
    }

    fn len(&self) -> usize {
        self.n
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn name(&self) -> String {
        format!(
            "EXP(n={}, k'={}, d={}, ratio={})",
            self.n, self.k_prime, self.dim, self.ratio
        )
    }
}

/// DUP: adversarial duplicate-heavy / degenerate data.
///
/// `n` points drawn uniformly over only `distinct` lattice locations, so
/// the multiset carries massive exact duplication (`n / distinct` copies of
/// each location on average) and, with `distinct == 1`, fully degenerates
/// to one repeated point.  The lattice coordinates are small integers, which
/// every storage precision represents exactly: duplicates are bit-identical
/// at `f32` and `f64` alike, so the solvers' documented lowest-index
/// tie-breaking is actually exercised rather than masked by rounding noise.
#[derive(Debug, Clone, PartialEq)]
pub struct DupGenerator {
    n: usize,
    distinct: usize,
    dim: usize,
    spacing: f64,
}

impl DupGenerator {
    /// `n` points over `distinct` two-dimensional lattice locations with
    /// unit spacing.
    pub fn new(n: usize, distinct: usize) -> Self {
        Self::with_params(n, distinct, 2, 1.0)
    }

    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics if `distinct == 0`, `dim == 0`, or `spacing <= 0`.
    pub fn with_params(n: usize, distinct: usize, dim: usize, spacing: f64) -> Self {
        assert!(
            distinct > 0,
            "number of distinct locations must be positive"
        );
        assert!(dim > 0, "dimension must be positive");
        assert!(
            spacing > 0.0 && spacing.is_finite(),
            "spacing must be positive and finite"
        );
        Self {
            n,
            distinct,
            dim,
            spacing,
        }
    }

    /// Number of distinct locations the points collapse onto.
    pub fn distinct(&self) -> usize {
        self.distinct
    }

    /// The deterministic lattice locations (mixed-radix integer lattice,
    /// scaled by the spacing).
    pub fn locations(&self) -> Vec<Point> {
        let side = (self.distinct as f64)
            .powf(1.0 / self.dim as f64)
            .ceil()
            .max(1.0) as usize;
        (0..self.distinct)
            .map(|j| {
                let mut rest = j;
                let coords = (0..self.dim)
                    .map(|_| {
                        let digit = rest % side;
                        rest /= side;
                        digit as f64 * self.spacing
                    })
                    .collect();
                Point::new(coords)
            })
            .collect()
    }
}

impl PointGenerator for DupGenerator {
    fn generate_flat_at<S: Scalar>(&self, seed: u64) -> FlatPoints<S> {
        let locations = self.locations();
        let distinct = self.distinct;
        let dim = self.dim;
        generate_chunked(self.n, dim, GEN_CHUNK, seed, |_, rng, block| {
            // Uniform location choice from the f64 stream (kept off the
            // integer API so the draw count per point is always one).
            let j = ((rng.gen::<f64>() * distinct as f64) as usize).min(distinct - 1);
            let loc = &locations[j];
            for d in 0..dim {
                block.push(loc[d]);
            }
        })
    }

    fn len(&self) -> usize {
        self.n
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn name(&self) -> String {
        format!(
            "DUP(n={}, distinct={}, d={})",
            self.n, self.distinct, self.dim
        )
    }
}

/// GAU+OUT: Gaussian clusters with planted far outliers — the workload for
/// the robust (with-outliers) k-center variant.
///
/// The first `n - outliers` points are exactly the balanced Gaussian
/// clusters of [`GauGenerator`]; the last `outliers` points are planted
/// deterministically far outside the cluster cube (outlier `m` sits at
/// distance `spread · cube_side · (m + 2)` along axis `m mod dim`, with
/// alternating sign), so each planted point is farther from every cluster
/// than any inlier and dropping the `z = outliers` farthest points provably
/// shrinks the covering radius.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantedOutlierGenerator {
    config: ClusteredConfig,
    outliers: usize,
    spread: f64,
}

impl PlantedOutlierGenerator {
    /// `n` total points: `n - outliers` in `k'` balanced Gaussian clusters
    /// (geometry identical to [`GauGenerator::new`]) plus `outliers`
    /// planted far points with the default spread factor 50.
    pub fn new(n: usize, k_prime: usize, outliers: usize) -> Self {
        Self::with_params(n, k_prime, outliers, 3, 100.0, 0.002, 50.0)
    }

    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics if `outliers > n`, `spread <= 1`, or the farthest planted
    /// coordinate `spread · cube_side · (outliers + 1)` exceeds
    /// [`MAX_PLACED_COORD`].
    pub fn with_params(
        n: usize,
        k_prime: usize,
        outliers: usize,
        dim: usize,
        cube_side: f64,
        sigma_fraction: f64,
        spread: f64,
    ) -> Self {
        assert!(outliers <= n, "cannot plant more outliers than points");
        assert!(
            spread > 1.0 && spread.is_finite(),
            "spread must exceed 1 so outliers leave the cluster cube"
        );
        let farthest = spread * cube_side * (outliers as f64 + 1.0);
        assert!(
            farthest.is_finite() && farthest <= MAX_PLACED_COORD,
            "planted outlier coordinate {farthest:e} exceeds the f32-safe bound"
        );
        Self {
            config: ClusteredConfig::new(n, k_prime, dim, cube_side, sigma_fraction),
            outliers,
            spread,
        }
    }

    /// Number of planted outliers.
    pub fn outliers(&self) -> usize {
        self.outliers
    }

    /// Number of inherent clusters `k'`.
    pub fn k_prime(&self) -> usize {
        self.config.k_prime
    }
}

impl PointGenerator for PlantedOutlierGenerator {
    fn generate_flat_at<S: Scalar>(&self, seed: u64) -> FlatPoints<S> {
        let centers = self.config.centers(seed);
        let sigma = self.config.sigma_fraction * self.config.cube_side;
        let weights = vec![1.0; self.config.k_prime];
        let dim = self.config.dim;
        let side = self.config.cube_side;
        let spread = self.spread;
        let cut = self.config.n - self.outliers;
        generate_chunked(self.config.n, dim, GEN_CHUNK, seed, |index, rng, block| {
            if index >= cut {
                // Planted outlier: deterministic by position, far outside
                // the cluster cube, pairwise spread so no k centers can
                // cover two of them cheaply.
                let m = index - cut;
                let axis = m % dim;
                let sign = if (m / dim).is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                };
                let reach = spread * side * (m as f64 + 2.0);
                for d in 0..dim {
                    block.push(if d == axis { sign * reach } else { side * 0.5 });
                }
            } else {
                let c = weighted_choice(rng, &weights);
                let center = &centers[c];
                for d in 0..dim {
                    block.push(normal(rng, center[d], sigma));
                }
            }
        })
    }

    fn len(&self) -> usize {
        self.config.n
    }

    fn dim(&self) -> usize {
        self.config.dim
    }

    fn name(&self) -> String {
        format!(
            "GAU+OUT(n={}, k'={}, z={}, d={})",
            self.config.n, self.config.k_prime, self.outliers, self.config.dim
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcenter_metric::Distance;
    use kcenter_metric::{BoundingBox, Euclidean};

    #[test]
    fn unif_generates_requested_count_and_dim() {
        let g = UnifGenerator::new(1000);
        let pts = g.generate(1);
        assert_eq!(pts.len(), 1000);
        assert!(pts.iter().all(|p| p.dim() == 2));
        assert_eq!(g.name(), "UNIF(n=1000, d=2)");
    }

    #[test]
    fn unif_points_stay_inside_square() {
        let g = UnifGenerator::with_dim_and_side(5000, 2, 100.0);
        let pts = g.generate(2);
        let bbox = BoundingBox::of(&pts).unwrap().unwrap();
        assert!(bbox.min().iter().all(|&c| c >= 0.0));
        assert!(bbox.max().iter().all(|&c| c <= 100.0));
        // Uniform data should nearly fill the square.
        assert!(bbox.extent(0) > 90.0 && bbox.extent(1) > 90.0);
    }

    #[test]
    fn unif_is_deterministic_per_seed() {
        let g = UnifGenerator::new(500);
        assert_eq!(g.generate(7), g.generate(7));
        assert_ne!(g.generate(7), g.generate(8));
    }

    #[test]
    fn unif_zero_points_is_empty() {
        let g = UnifGenerator::new(0);
        assert!(g.is_empty());
        assert!(g.generate(1).is_empty());
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn unif_rejects_zero_dimension() {
        UnifGenerator::with_dim_and_side(10, 0, 1.0);
    }

    #[test]
    fn gau_points_concentrate_around_their_centers() {
        let g = GauGenerator::new(3000, 5);
        let pts = g.generate(11);
        let centers = g.cluster_centers(11);
        assert_eq!(pts.len(), 3000);
        // σ = 0.2, so virtually every point lies within 5σ = 1.0 of some center.
        let far = pts
            .iter()
            .filter(|p| {
                centers
                    .iter()
                    .map(|c| Euclidean.distance(p, c))
                    .fold(f64::INFINITY, f64::min)
                    > 1.0
            })
            .count();
        assert!(far < 10, "too many points far from all centers: {far}");
    }

    #[test]
    fn gau_clusters_are_roughly_balanced() {
        let g = GauGenerator::new(10_000, 4);
        let pts = g.generate(3);
        let centers = g.cluster_centers(3);
        let mut counts = vec![0usize; centers.len()];
        for p in &pts {
            let (best, _) = centers
                .iter()
                .enumerate()
                .map(|(i, c)| (i, Euclidean.distance(p, c)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            counts[best] += 1;
        }
        for &c in &counts {
            let share = c as f64 / 10_000.0;
            assert!(
                (share - 0.25).abs() < 0.08,
                "unbalanced GAU cluster share {share}"
            );
        }
    }

    #[test]
    fn unb_has_one_dominant_cluster() {
        let g = UnbGenerator::new(10_000, 5);
        let pts = g.generate(9);
        let centers = GauGenerator::with_params(10_000, 5, 3, 100.0, 0.002).cluster_centers(9);
        let mut counts = vec![0usize; centers.len()];
        for p in &pts {
            let (best, _) = centers
                .iter()
                .enumerate()
                .map(|(i, c)| (i, Euclidean.distance(p, c)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            counts[best] += 1;
        }
        let max_share = *counts.iter().max().unwrap() as f64 / 10_000.0;
        assert!(
            max_share > 0.4,
            "heavy cluster share too small: {max_share}"
        );
    }

    #[test]
    fn unb_single_cluster_degenerates_gracefully() {
        let g = UnbGenerator::new(100, 1);
        assert_eq!(g.generate(0).len(), 100);
    }

    #[test]
    fn generators_report_metadata() {
        let g = GauGenerator::new(10, 2);
        assert_eq!(g.len(), 10);
        assert_eq!(g.dim(), 3);
        assert_eq!(g.k_prime(), 2);
        let u = UnbGenerator::new(10, 2);
        assert_eq!(u.k_prime(), 2);
        assert!((u.heavy_fraction() - 0.5).abs() < 1e-12);
        assert!(u.name().starts_with("UNB"));
    }

    #[test]
    #[should_panic(expected = "clusters must be positive")]
    fn gau_rejects_zero_clusters() {
        GauGenerator::new(10, 0);
    }

    #[test]
    fn gau_deterministic_and_seed_sensitive() {
        let g = GauGenerator::new(200, 3);
        assert_eq!(g.generate(5), g.generate(5));
        assert_ne!(g.generate(5), g.generate(6));
    }

    #[test]
    fn exp_centers_spread_geometrically() {
        let g = ExpGenerator::new(1000, 6);
        let centers = g.cluster_centers();
        assert_eq!(centers.len(), 6);
        // Center c has norm base * ratio^c = 2^c with the defaults.
        for (c, center) in centers.iter().enumerate() {
            let norm = center.coords().iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - (2.0f64).powi(c as i32)).abs() < 1e-9);
        }
        let pts = g.generate(3);
        assert_eq!(pts.len(), 1000);
        assert_eq!(g.name(), "EXP(n=1000, k'=6, d=2, ratio=2)");
    }

    #[test]
    fn exp_points_hug_their_centers() {
        let g = ExpGenerator::new(2000, 5);
        let pts = g.generate(11);
        let centers = g.cluster_centers();
        // σ = 0.05, so virtually every point lies within 0.5 of a center.
        let far = pts
            .iter()
            .filter(|p| {
                centers
                    .iter()
                    .map(|c| Euclidean.distance(p, c))
                    .fold(f64::INFINITY, f64::min)
                    > 0.5
            })
            .count();
        assert!(far < 5, "too many stray EXP points: {far}");
    }

    #[test]
    #[should_panic(expected = "f32-safe coordinate bound")]
    fn exp_rejects_overflowing_spread() {
        ExpGenerator::with_params(10, 60, 2, 1.0, 1e3, 0.05);
    }

    #[test]
    fn dup_collapses_onto_the_lattice() {
        let g = DupGenerator::new(5000, 7);
        let pts = g.generate(2);
        let locations = g.locations();
        assert_eq!(locations.len(), 7);
        let mut seen = std::collections::HashSet::new();
        for p in &pts {
            let key: Vec<u64> = p.coords().iter().map(|c| c.to_bits()).collect();
            seen.insert(key);
            assert!(
                locations.iter().any(|l| l.coords() == p.coords()),
                "point off the lattice"
            );
        }
        assert!(seen.len() <= 7);
        // With n >> distinct, every location is hit.
        assert_eq!(seen.len(), 7);
    }

    #[test]
    fn dup_duplicates_are_bit_identical_across_precisions() {
        let g = DupGenerator::new(300, 4);
        let f32_pts = g.generate_flat_at::<f32>(9);
        let f64_pts = g.generate_flat_at::<f64>(9);
        for i in 0..300 {
            let wide: Vec<f64> = f32_pts.row(i).iter().map(|&c| c as f64).collect();
            assert_eq!(wide.as_slice(), f64_pts.row(i), "row {i} differs");
        }
    }

    #[test]
    fn dup_fully_degenerate_single_location() {
        let g = DupGenerator::new(50, 1);
        let pts = g.generate(0);
        assert!(pts.iter().all(|p| p.coords() == pts[0].coords()));
    }

    #[test]
    fn planted_outliers_are_the_trailing_rows_and_far() {
        let g = PlantedOutlierGenerator::new(1000, 4, 10);
        let flat = g.generate_flat_at::<f64>(5);
        assert_eq!(flat.len(), 1000);
        // Inliers stay near the cube [0, 100]^3; planted rows are far out.
        for i in 0..990 {
            assert!(flat.row(i).iter().all(|c| c.abs() < 200.0), "inlier {i}");
        }
        for i in 990..1000 {
            let max = flat.row(i).iter().fold(0.0f64, |m, c| m.max(c.abs()));
            assert!(max >= 100.0 * 50.0, "outlier {i} not planted far: {max}");
        }
        assert_eq!(g.outliers(), 10);
        assert_eq!(g.k_prime(), 4);
    }

    #[test]
    fn planted_outliers_share_the_gau_prefix_stream() {
        // The inlier prefix draws from the same chunk-derived RNG stream as
        // plain GAU, so the first rows coincide bit-for-bit.
        let gau = GauGenerator::new(500, 4).generate_flat_at::<f64>(5);
        let out = PlantedOutlierGenerator::new(500, 4, 20).generate_flat_at::<f64>(5);
        for i in 0..480 {
            assert_eq!(gau.row(i), out.row(i), "inlier row {i} diverged");
        }
    }

    #[test]
    #[should_panic(expected = "cannot plant more outliers than points")]
    fn planted_outliers_rejects_z_above_n() {
        PlantedOutlierGenerator::new(10, 2, 11);
    }

    #[test]
    fn adversarial_generators_deterministic_per_seed() {
        let e = ExpGenerator::new(400, 5);
        assert_eq!(e.generate(7), e.generate(7));
        assert_ne!(e.generate(7), e.generate(8));
        let d = DupGenerator::new(400, 16);
        assert_eq!(d.generate(7), d.generate(7));
        assert_ne!(d.generate(7), d.generate(8));
        let p = PlantedOutlierGenerator::new(400, 5, 8);
        assert_eq!(p.generate(7), p.generate(7));
        assert_ne!(p.generate(7), p.generate(8));
    }
}
