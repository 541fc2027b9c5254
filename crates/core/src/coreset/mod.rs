//! Reusable weighted coresets: build once, sweep many `(k, φ)`.
//!
//! Every parallel scheme in the paper ends the same way: a small set
//! `C = S ∪ R` is handed to a sequential k-center algorithm (EIM line 10),
//! or the union of per-reducer centers is re-clustered (MRG).  In the
//! original pipeline that hand-off set is *consumed* — rerunning with a
//! different `k` or `φ` recomputes it from scratch, paying the full-data
//! MapReduce rounds every time.
//!
//! This module makes the hand-off set a first-class, reusable artifact: a
//! [`WeightedCoreset`] owns a flat SoA copy of its representative rows plus
//! a `u64` weight per representative (the number of source points it
//! stands for), so any number of downstream instances can be solved on the
//! summary without touching the source points again.  This is the standard
//! composable-coreset bridge from one-shot runs to sweep and streaming
//! workloads (Aghamolaei & Ghodsi 2023; Czumaj et al. 2025).
//!
//! # The quality certificate
//!
//! Every coreset records its **construction radius** `r_c`: the certified
//! (`f64`-accumulated, exact over the stored rows) maximum distance from
//! any source point to its nearest representative.  By the triangle
//! inequality, any center set `C` chosen *from the representatives*
//! satisfies
//!
//! ```text
//! radius_full(C)  ≤  radius_coreset(C) + r_c
//! ```
//!
//! because each source point reaches its representative within `r_c` and
//! the representative reaches its chosen center within `radius_coreset(C)`.
//! [`CoresetSolution::radius_bound`] reports exactly that sum, and
//! [`CoresetSolution::certify`] recomputes the exact full-data radius when
//! the source space is still at hand.  Conversely the representatives are
//! genuine source points, so `radius_coreset(C) ≤ radius_full(C)` — the
//! bound is tight to within `r_c`.
//!
//! # Builders
//!
//! * **Gonzalez-seeded** ([`GonzalezCoresetConfig`]): a farthest-point
//!   traversal to `t` representatives.  Gonzalez's own invariant makes the
//!   construction radius the classic `r_t` (the `(t+1)`-th farthest-point
//!   distance), giving the usual `r_t`-additive certificate; `r_t ≤ 2·OPT_t`
//!   shrinks as `t` grows.  The build runs as MapReduce rounds on a
//!   [`Cluster`] — per-reducer local coresets merged in a second
//!   round (the composable construction), then one weight/certification
//!   round — so construction cost shows up in [`JobStats`] next to the
//!   solve rounds it amortises.  With one machine the build degenerates to
//!   plain sequential Gonzalez.
//! * **EIM-sampled** ([`EimConfig::build_coreset`]): runs Algorithm 2's
//!   iterative-sampling MapReduce loop exactly once and *keeps* `C = S ∪ R`
//!   (weighted and certified) instead of consuming it.  Built at `k`, the
//!   sample's probabilistic guarantee covers every sweep cell with
//!   `k' ≤ k`, since the sampling probabilities and the loop threshold are
//!   monotone in `k`.
//!
//! For the max-radius objective a weight matters only as zero or
//! positive, so a solve runs the plain sequential solver
//! ([`SequentialSolver::select_centers`]) on the coreset's *support* — the
//! representatives with positive weight — and certifies its covering
//! radius over that same support with the `wide_cmp_*`
//! (`f64`-accumulating) discipline of every other reported number in this
//! workspace.  A representative gets weight 0 only from a degraded weights
//! round: its own point sat in a dropped chunk and no surviving point is
//! nearest to it.  Such a row stands for no source point, so it is neither
//! a candidate center nor a coverage obligation.  [`WeightedCoreset::merge`]
//! and [`WeightedCoreset::absorb_reingested`] keep it (they concatenate
//! weights), and [`WeightedCoreset::recompress`] never picks it.
//!
//! # Streaming composition and persistence
//!
//! Two submodules turn the one-shot summary into a streaming artifact:
//!
//! * [`merge`] — [`WeightedCoreset::merge`] composes batch summaries with a
//!   `max`-composed certificate, [`WeightedCoreset::recompress`] shrinks an
//!   accumulated summary back under a budget with an *additively* composed
//!   certificate, and [`WeightedCoreset::absorb_reingested`] heals the
//!   coverage of a degraded build by folding in a summary of the lost
//!   points (re-replication from the source of record);
//! * [`persist`] — a versioned, checksummed binary format
//!   ([`WeightedCoreset::to_bytes`] / [`WeightedCoreset::from_bytes`]) so
//!   summaries cross process boundaries; corrupt, truncated or
//!   wrong-version inputs come back as named [`PersistError`]s, never
//!   panics.

pub mod merge;
pub mod persist;

pub use persist::PersistError;

use crate::eim::{sampling_phase, EimConfig};
use crate::error::KCenterError;
use crate::evaluate::{covering_radius, covering_radius_subset, surviving_ids};
use crate::gonzalez::{self, FirstCenter};
use crate::solver::SequentialSolver;
use kcenter_mapreduce::{
    partition, Cluster, ClusterConfig, DroppedShard, Executor, FaultConfig, JobStats,
    MapReduceError,
};
use kcenter_metric::distance::Distance;
use kcenter_metric::grid::{self, SpatialGrid};
use kcenter_metric::{Euclidean, FlatPoints, PointId, Scalar, VecSpace};

/// Which construction produced a coreset (recorded as provenance metadata).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoresetBuilder {
    /// Farthest-point traversal to `t` representatives (possibly built as
    /// per-reducer local coresets merged in a second round).
    Gonzalez,
    /// EIM's iterative-sampling loop, run once; the representatives are the
    /// paper's hand-off set `C = S ∪ R`.
    Eim,
    /// The composition of two or more coresets ([`WeightedCoreset::merge`]),
    /// possibly re-compressed against a budget
    /// ([`WeightedCoreset::recompress`]).  The certificate is the composed
    /// triangle-inequality bound, not a single builder's.
    Merged,
}

impl CoresetBuilder {
    /// Name used in reports and sweep output.
    pub fn name(&self) -> &'static str {
        match self {
            CoresetBuilder::Gonzalez => "gonzalez",
            CoresetBuilder::Eim => "eim",
            CoresetBuilder::Merged => "merged",
        }
    }
}

/// Coverage provenance of a coreset: which part of the source the
/// certificate actually speaks for.
///
/// A fault-free build covers every source point
/// ([`CoresetCoverage::is_partial`] is `false`).  A degrade-mode build that
/// dropped shards records here exactly which source points fell out of the
/// claim and which shards took them — so the triangle-inequality
/// certificate is always explicitly a statement about
/// `covered_source_len` surviving points, never silently about the full
/// input.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoresetCoverage {
    /// Number of source points the construction radius certifies.
    pub covered_source_len: usize,
    /// Shards dropped by degrade mode during the build (empty when the
    /// build was fault-free or every retry succeeded).
    pub dropped_shards: Vec<DroppedShard>,
    /// Source ids that left the coverage claim with the dropped shards,
    /// ascending.
    pub lost_source_ids: Vec<PointId>,
}

impl CoresetCoverage {
    /// Full coverage of `source_len` points (the fault-free case).
    pub fn full(source_len: usize) -> Self {
        Self {
            covered_source_len: source_len,
            dropped_shards: Vec::new(),
            lost_source_ids: Vec::new(),
        }
    }

    /// Whether any source point is missing from the certificate.
    pub fn is_partial(&self) -> bool {
        !self.lost_source_ids.is_empty() || !self.dropped_shards.is_empty()
    }
}

/// A weighted summary of a metric space: flat SoA rows of the
/// representatives, a `u64` weight per representative (how many source
/// points it covers), and provenance/quality metadata — most importantly
/// the certified construction radius behind the additive quality
/// certificate (see the module docs).
///
/// The representative rows are an owned [`FlatPoints`] at the source
/// space's storage precision, wrapped in a [`VecSpace`] with the source's
/// distance function: the coreset *is* a metric space of its own, so every
/// solver in this crate runs on it unchanged, and the source space can be
/// dropped (streaming ingestion) once the coreset is built.
#[derive(Clone)]
pub struct WeightedCoreset<D: Distance = Euclidean, S: Scalar = f64> {
    space: VecSpace<D, S>,
    source_ids: Vec<PointId>,
    weights: Vec<u64>,
    source_len: usize,
    construction_radius: f64,
    builder: CoresetBuilder,
    seed: Option<u64>,
    stats: JobStats,
    coverage: CoresetCoverage,
}

impl<D: Distance, S: Scalar> WeightedCoreset<D, S> {
    #[allow(clippy::too_many_arguments)] // crate-private constructor: every field is load-bearing
    fn from_parts(
        space: VecSpace<D, S>,
        source_ids: Vec<PointId>,
        weights: Vec<u64>,
        source_len: usize,
        construction_radius: f64,
        builder: CoresetBuilder,
        seed: Option<u64>,
        stats: JobStats,
        coverage: CoresetCoverage,
    ) -> Self {
        assert_eq!(space.len(), source_ids.len(), "rows/ids length mismatch");
        assert_eq!(space.len(), weights.len(), "rows/weights length mismatch");
        debug_assert_eq!(
            weights.iter().sum::<u64>(),
            coverage.covered_source_len as u64,
            "weights must partition the covered source points"
        );
        debug_assert_eq!(
            coverage.covered_source_len + coverage.lost_source_ids.len(),
            source_len,
            "covered + lost must account for every source point"
        );
        Self {
            space,
            source_ids,
            weights,
            source_len,
            construction_radius,
            builder,
            seed,
            stats,
            coverage,
        }
    }

    /// Number of representatives.
    pub fn len(&self) -> usize {
        self.source_ids.len()
    }

    /// Whether the coreset holds no representatives.
    pub fn is_empty(&self) -> bool {
        self.source_ids.is_empty()
    }

    /// The representatives as a metric space of their own (local ids
    /// `0..len`), at the source storage precision and distance.
    pub fn space(&self) -> &VecSpace<D, S> {
        &self.space
    }

    /// For each representative, its id in the source space.
    pub fn source_ids(&self) -> &[PointId] {
        &self.source_ids
    }

    /// For each representative, the number of source points it covers.
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Number of points in the source space the coreset summarises.
    pub fn source_len(&self) -> usize {
        self.source_len
    }

    /// Total covered weight; equals [`WeightedCoreset::source_len`] for a
    /// fault-free build (the weights partition the source) and
    /// [`CoresetCoverage::covered_source_len`] for a degraded one.
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().sum()
    }

    /// The certified construction radius `r_c`: the exact
    /// (`f64`-accumulated) maximum distance from any **covered** source
    /// point to its nearest representative.  This is the additive slack of
    /// the quality certificate (module docs).  For a partial coreset
    /// ([`WeightedCoreset::is_partial`]) the certificate speaks only for
    /// the covered subset — never for the points lost with dropped shards.
    pub fn construction_radius(&self) -> f64 {
        self.construction_radius
    }

    /// Coverage provenance: which source points the certificate speaks for
    /// and which shards were dropped by degrade mode.
    pub fn coverage(&self) -> &CoresetCoverage {
        &self.coverage
    }

    /// Fraction of the source the certificate covers (`1.0` for a
    /// fault-free build; `0.0` for an empty source).
    pub fn coverage_fraction(&self) -> f64 {
        if self.source_len == 0 {
            0.0
        } else {
            self.coverage.covered_source_len as f64 / self.source_len as f64
        }
    }

    /// Whether degrade mode dropped shards during the build, making the
    /// certificate a statement about a strict subset of the source.
    pub fn is_partial(&self) -> bool {
        self.coverage.is_partial()
    }

    /// The source ids the certificate covers, ascending — the full
    /// `0..source_len` range minus [`CoresetCoverage::lost_source_ids`].
    pub fn covered_source_ids(&self) -> Vec<PointId> {
        surviving_ids(self.source_len, &self.coverage.lost_source_ids)
    }

    /// Recomputes the **exact** certified covering radius of `solution`'s
    /// centers over the covered part of the source space.  For a fault-free
    /// coreset this is the full-data radius ([`CoresetSolution::certify`]);
    /// for a partial one it scans only the surviving points, which is the
    /// honest counterpart of the partial [`CoresetSolution::radius_bound`].
    pub fn certify_covered(&self, source: &VecSpace<D, S>, solution: &CoresetSolution) -> f64 {
        if !self.is_partial() {
            return covering_radius(source, &solution.centers);
        }
        covering_radius_subset(source, &self.covered_source_ids(), &solution.centers)
    }

    /// Which builder produced this coreset.
    pub fn builder(&self) -> CoresetBuilder {
        self.builder
    }

    /// The sampling seed, for builders that use randomness (EIM).
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// Storage-precision name of the representative rows.
    pub fn precision_name(&self) -> &'static str {
        S::NAME
    }

    /// MapReduce accounting of the construction (simulated time, per-round
    /// items) — the build-once cost a sweep amortises.
    ///
    /// A summary returned by [`WeightedCoreset::merge`] (so any fold of two
    /// or more batches) or restored by [`WeightedCoreset::from_bytes`] has
    /// empty stats: its accounting belongs to the builds it came from.
    /// [`WeightedCoreset::recompress`] keeps its input's stats, and
    /// [`WeightedCoreset::absorb_reingested`] concatenates its two inputs'.
    pub fn stats(&self) -> &JobStats {
        &self.stats
    }

    /// The ascending local ids of the representatives with positive weight:
    /// the rows a solve selects from and certifies over (module docs).
    fn support(&self) -> Vec<PointId> {
        (0..self.len()).filter(|&i| self.weights[i] > 0).collect()
    }

    /// Solves a `k`-center instance **on the coreset** with a sequential
    /// solver over the positive-weight representatives and returns the
    /// solution together with its quality certificate.  Cost is `O(k · t)`
    /// for Gonzalez on `t` representatives — independent of the source
    /// size, which is what makes a `(k, φ)` sweep over one coreset cheap.
    pub fn solve(
        &self,
        k: usize,
        solver: SequentialSolver,
        first: FirstCenter,
    ) -> Result<CoresetSolution, KCenterError> {
        if self.is_empty() {
            return Err(KCenterError::EmptyInput);
        }
        if k == 0 {
            return Err(KCenterError::ZeroK);
        }
        let support = self.support();
        let local_centers = solver.select_centers(&self.space, &support, k, first);
        Ok(self.package_solution(k, &support, local_centers))
    }

    /// Like [`WeightedCoreset::solve`], but charges the selection to one
    /// single-reducer round on `cluster` (labelled `label`) so a sweep's
    /// per-cell solve cost lands in the same [`JobStats`] as the build —
    /// making "built once, solved many" visible in the round accounting.
    pub fn solve_on_cluster(
        &self,
        k: usize,
        solver: SequentialSolver,
        first: FirstCenter,
        cluster: &mut Cluster,
        label: &str,
    ) -> Result<CoresetSolution, KCenterError> {
        if self.is_empty() {
            return Err(KCenterError::EmptyInput);
        }
        if k == 0 {
            return Err(KCenterError::ZeroK);
        }
        let support = self.support();
        let space = &self.space;
        let local_centers = cluster.run_single(
            label,
            support.clone(),
            |ids| solver.select_centers(space, ids, k, first),
            Vec::len,
        )?;
        Ok(self.package_solution(k, &support, local_centers))
    }

    fn package_solution(
        &self,
        k: usize,
        support: &[PointId],
        local_centers: Vec<PointId>,
    ) -> CoresetSolution {
        let coreset_radius = covering_radius_subset(&self.space, support, &local_centers);
        let centers: Vec<PointId> = local_centers.iter().map(|&c| self.source_ids[c]).collect();
        CoresetSolution {
            k,
            local_centers,
            centers,
            coreset_radius,
            radius_bound: coreset_radius + self.construction_radius,
            covered_fraction: self.coverage_fraction(),
        }
    }
}

impl<D: Distance, S: Scalar> std::fmt::Debug for WeightedCoreset<D, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WeightedCoreset(builder={}, t={}, source_len={}, r_c={:.6}, precision={})",
            self.builder.name(),
            self.len(),
            self.source_len,
            self.construction_radius,
            S::NAME
        )
    }
}

/// A k-center solution selected on a [`WeightedCoreset`], carrying its
/// quality certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct CoresetSolution {
    /// The number of centers that was requested.
    pub k: usize,
    /// Centers as local representative indices (`0..t`).
    pub local_centers: Vec<PointId>,
    /// The same centers as **source-space** point ids — directly comparable
    /// to any solution computed on the raw space.
    pub centers: Vec<PointId>,
    /// The covering radius over the coreset's positive-weight
    /// representatives (certified in `f64`).
    pub coreset_radius: f64,
    /// The triangle-inequality certificate:
    /// `coreset_radius + construction_radius` is an upper bound on the
    /// covering radius of [`CoresetSolution::centers`] over the **covered**
    /// source points — no source scan needed.  When
    /// [`CoresetSolution::covered_fraction`] is `1.0` that is the full
    /// source space; for a partial coreset the bound explicitly excludes
    /// the points lost with dropped shards.
    pub radius_bound: f64,
    /// Fraction of the source the certificate covers — `1.0` unless the
    /// coreset was built in degrade mode and dropped shards (see
    /// [`WeightedCoreset::coverage`]).
    pub covered_fraction: f64,
}

impl CoresetSolution {
    /// Whether the certificate covers only a strict subset of the source
    /// (the coreset was degraded by dropped shards).
    pub fn is_partial(&self) -> bool {
        self.covered_fraction < 1.0
    }

    /// Recomputes the **exact** certified full-data covering radius of the
    /// selected centers over the source space (an `O(n · k)` wide scan).
    /// At most [`CoresetSolution::radius_bound`] when the coreset covered
    /// the full source; for a partial coreset the bound does not speak for
    /// the lost points, so use [`WeightedCoreset::certify_covered`]
    /// instead.
    pub fn certify<D: Distance, S: Scalar>(&self, source: &VecSpace<D, S>) -> f64 {
        covering_radius(source, &self.centers)
    }
}

/// Configuration of the Gonzalez-seeded coreset builder.
///
/// With `machines == 1` the build is the plain sequential farthest-point
/// traversal; with more machines it is the composable two-round MapReduce
/// construction (local coresets, then a merge), plus one weight /
/// certification round in both cases.  All rounds are labelled with the
/// `"coreset"` prefix so [`JobStats::num_rounds_labelled`] can prove the
/// build happened exactly once.
#[derive(Debug, Clone, PartialEq)]
pub struct GonzalezCoresetConfig {
    /// Number of representatives `t` to keep (the certificate's `r_t`
    /// shrinks as `t` grows).
    pub t: usize,
    /// Number of simulated machines; 1 means a sequential build.
    pub machines: usize,
    /// First-center policy of the farthest-point traversals.
    pub first_center: FirstCenter,
    /// Fault injection applied to the build's MapReduce rounds (`None`
    /// runs fault-free).  With degrade mode enabled, shards that exhaust
    /// their attempts are dropped and the coreset comes back **partial**
    /// (see [`WeightedCoreset::coverage`]).
    pub faults: Option<FaultConfig>,
    /// How the cluster executes each round's machines: the paper's
    /// sequential simulation (the default) or real scoped threads.
    /// Outputs are bit-identical either way.
    pub executor: Executor,
}

impl GonzalezCoresetConfig {
    /// A sequential build of `t` representatives.
    pub fn new(t: usize) -> Self {
        Self {
            t,
            machines: 1,
            first_center: FirstCenter::default(),
            faults: None,
            executor: Executor::Simulated,
        }
    }

    /// Sets the number of simulated machines (>1 selects the MapReduce
    /// merge construction).
    pub fn with_machines(mut self, machines: usize) -> Self {
        self.machines = machines;
        self
    }

    /// Sets the first-center policy.
    pub fn with_first_center(mut self, first: FirstCenter) -> Self {
        self.first_center = first;
        self
    }

    /// Installs fault injection on the build's simulated cluster.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Selects the cluster executor (simulated by default).
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// Builds the weighted coreset over `space`.
    ///
    /// Requires a coordinate-backed [`VecSpace`] because the coreset copies
    /// its representatives' rows into an owned flat store (the property
    /// that lets the source be dropped afterwards).
    pub fn build<D: Distance + Clone, S: Scalar>(
        &self,
        space: &VecSpace<D, S>,
    ) -> Result<WeightedCoreset<D, S>, KCenterError> {
        let n = space.len();
        if n == 0 {
            return Err(KCenterError::EmptyInput);
        }
        if self.t == 0 {
            return Err(KCenterError::InvalidParameter {
                name: "t",
                message: "a coreset needs at least one representative".into(),
            });
        }
        if self.machines == 0 {
            return Err(KCenterError::InvalidParameter {
                name: "machines",
                message: "at least one machine is required".into(),
            });
        }
        KCenterError::require_metric(space.metric())?;

        let mut cluster = Cluster::unchecked(ClusterConfig::new(self.machines, n.max(1)))
            .with_executor(self.executor);
        if let Some(faults) = &self.faults {
            cluster = cluster.with_fault_injection(faults.clone());
        }
        let mut lost: Vec<PointId> = Vec::new();
        let t = self.t;
        let first = self.first_center;

        // Round 1: every reducer builds a local coreset of its partition by
        // farthest-point traversal (the composable-coreset map side).  This
        // round holds the source data: a shard dropped here takes its
        // chunk's points out of the coverage claim.
        let ids: Vec<PointId> = (0..n).collect();
        let parts = partition::chunks(&ids, self.machines);
        let label = format!(
            "coreset round 1: local gonzalez (t={t} on {} machines)",
            parts.len()
        );
        let round1_reduce =
            |_: usize, chunk: &[PointId]| gonzalez::select_centers(space, chunk, t, first, false);
        let locals = cluster.run_round(&label, &parts, round1_reduce, Vec::len)?;
        let mut union: Vec<PointId> = Vec::new();
        for (part, local) in parts.iter().zip(locals) {
            match local {
                Some(local) => union.extend(local),
                None => lost.extend_from_slice(part),
            }
        }

        // Round 2: one reducer merges the local coresets by re-running the
        // traversal on their union (identity when only one machine ran).
        // A single-reducer round never degrades: losing it loses the whole
        // build, so exhaustion fails the job even in degrade mode.
        if union.is_empty() {
            // Every round-1 shard died: there is nothing to degrade to.
            let shard = cluster.dropped_shards().last();
            let shard = shard.expect("an empty round output implies drops");
            return Err(MapReduceError::from(shard).into());
        }
        let reps = cluster.run_single(
            "coreset round 2: merge local coresets",
            union,
            |u| gonzalez::select_centers(space, u, t, first, false),
            Vec::len,
        )?;

        // Round 3: weigh every representative by the surviving source
        // points it covers and certify the construction radius over them.
        let (weights, construction_radius) = weight_and_certify_round(
            &mut cluster,
            space,
            &reps,
            self.machines,
            "coreset round 3: weights + certification",
            &mut lost,
        )?;

        lost.sort_unstable();
        let coverage = CoresetCoverage {
            covered_source_len: n - lost.len(),
            dropped_shards: cluster.dropped_shards().to_vec(),
            lost_source_ids: lost,
        };
        Ok(WeightedCoreset::from_parts(
            gather_rows(space, &reps),
            reps,
            weights,
            n,
            construction_radius,
            CoresetBuilder::Gonzalez,
            None,
            cluster.into_stats(),
            coverage,
        ))
    }
}

impl EimConfig {
    /// Runs EIM's iterative-sampling MapReduce loop **once** and keeps the
    /// hand-off set `C = S ∪ R` as a reusable [`WeightedCoreset`] instead
    /// of consuming it in a final clustering round.
    ///
    /// The configuration's `k` acts as `k_max`: the sampling probabilities
    /// (`9·k·n^ε·log n / |R|`) and the loop threshold are monotone in `k`,
    /// so a coreset built at `k` retains the scheme's probabilistic
    /// guarantee for every downstream instance with `k' ≤ k`.  The build is
    /// deterministic per `(seed, precision)` like [`EimConfig::run`].
    pub fn build_coreset<D: Distance + Clone, S: Scalar>(
        &self,
        space: &VecSpace<D, S>,
    ) -> Result<WeightedCoreset<D, S>, KCenterError> {
        let n = space.len();
        let (phase, mut cluster) = sampling_phase(self, space, "coreset ")?;
        let mut lost = phase.lost;

        // The hand-off set C = S ∪ R (disjoint by construction).
        let mut reps: Vec<PointId> = Vec::with_capacity(phase.sample.len() + phase.remaining.len());
        reps.extend(phase.sample.iter().copied());
        reps.extend(phase.remaining.iter().copied());
        if reps.is_empty() {
            // Degrade mode lost every shard before anything was sampled:
            // there is no hand-off set to weigh.
            let shard = cluster.dropped_shards().last();
            let shard = shard.expect("an empty hand-off implies drops");
            return Err(MapReduceError::from(shard).into());
        }

        let (weights, construction_radius) = weight_and_certify_round(
            &mut cluster,
            space,
            &reps,
            self.machines,
            "coreset final round: weights + certification",
            &mut lost,
        )?;

        lost.sort_unstable();
        let coverage = CoresetCoverage {
            covered_source_len: n - lost.len(),
            dropped_shards: cluster.dropped_shards().to_vec(),
            lost_source_ids: lost,
        };
        Ok(WeightedCoreset::from_parts(
            gather_rows(space, &reps),
            reps,
            weights,
            n,
            construction_radius,
            CoresetBuilder::Eim,
            Some(self.seed),
            cluster.into_stats(),
            coverage,
        ))
    }
}

/// Copies the rows of `ids` out of `space` into an owned flat store and
/// wraps them in a [`VecSpace`] with the same distance — the coreset's own
/// standalone metric space.
fn gather_rows<D: Distance + Clone, S: Scalar>(
    space: &VecSpace<D, S>,
    ids: &[PointId],
) -> VecSpace<D, S> {
    let dim = space.dim().expect("gathering from a non-empty space");
    let mut flat = FlatPoints::<S>::with_capacity(dim, ids.len());
    for &id in ids {
        flat.push_row(space.row(id));
    }
    VecSpace::from_flat_with_distance(flat, space.metric().clone())
}

/// Name of the [`JobStats`] counter the weights/certification round records:
/// how many `(point, representative)` certification pairs its early-exit
/// pruning skipped, summed over reducers.  Read it with
/// `coreset.stats().counter(PRUNED_PAIRS_COUNTER)`.
pub const PRUNED_PAIRS_COUNTER: &str = "weights round pruned pairs";

/// One MapReduce round that assigns every source point not yet in `lost`
/// to its nearest representative (comparison space, ties to the smaller
/// representative position — the [`crate::evaluate::assign`] convention)
/// and certifies the construction radius with the `wide_cmp_*`
/// (`f64`-accumulating, max-pruned) discipline.  Returns
/// per-representative weights and the certified radius.
///
/// In degrade mode the round itself may drop shards: a dropped chunk's
/// points leave the coverage claim (appended to `lost`; the cluster keeps
/// the shard's provenance) — including any representative whose
/// self-weight lived in that chunk, which then simply carries the weight
/// of its surviving coverage.  Losing *every* chunk fails the round even
/// in degrade mode: a coreset with no certified weight is not a degraded
/// result, it is no result.
///
/// The certification side is **pruned**: the dense version of this round
/// scanned all `|reps|` representatives twice per point (once for the
/// argmin, once for the wide max-of-mins).  Instead, each reducer seeds the
/// wide scan with its previous-best radius (the running `wide_max`) and
/// first checks only the point's *assigned* representative — if that single
/// wide distance is already within `wide_max`, the point's true wide
/// minimum is too, so it cannot raise the maximum and the whole second scan
/// is skipped.  Only candidate new maxima (a handful of points per chunk)
/// pay the full `wide_cmp_distance_to_set_bounded` scan, whose early exit
/// keeps the result exact above `wide_max` — so the returned radius is
/// bit-identical to the dense scan's while the certification cost drops
/// from `O(n · |reps|)` to `O(n)` plus the few candidates, which is what
/// makes EIM-built coresets (where `|reps|` is tens of thousands at large
/// `k`) cheap to weigh.  The number of pairs skipped this way lands in the
/// round's [`JobStats`] under [`PRUNED_PAIRS_COUNTER`].
///
/// On the dense arm both scans are single space calls per point — the
/// fused [`VecSpace::nearest`] argmin and the fused bounded wide scan —
/// with the per-pair values of the pair-by-pair loops, so weights, radius
/// and the pruned-pairs count are the same as theirs, on either arm.
fn weight_and_certify_round<D: Distance, S: Scalar>(
    cluster: &mut Cluster,
    space: &VecSpace<D, S>,
    reps: &[PointId],
    machines: usize,
    label: &str,
    lost: &mut Vec<PointId>,
) -> Result<(Vec<u64>, f64), KCenterError> {
    let ids = surviving_ids(space.len(), lost);
    let parts = partition::chunks(&ids, machines);
    // Grid arm for the nearest-rep argmin (and the wide fallback scan):
    // bucket the representatives once, then each point probes Chebyshev
    // rings of cells around itself instead of scanning all |reps|.  The
    // argmin is bit-identical to the dense loop (same per-pair values,
    // ties to the smaller rep position), the wide scans keep the same
    // exact-above-`wide_max` contract, and the assignment pair for the
    // weights histogram is never pruned — so weights, radius, and even the
    // pruned-pairs counter are arm-independent.
    let dim = reps.first().map_or(0, |&r| space.row(r).len());
    let shape = grid::ScanShape {
        kind: grid::ScanKind::Assign,
        points: ids.len(),
        candidates: reps.len(),
        dim,
    };
    let rep_grid = if grid::select_mode(shape) == grid::AssignMode::Grid {
        SpatialGrid::build(space, reps, grid::NEAREST_OCCUPANCY)
    } else {
        None
    };
    let arm = if rep_grid.is_some() {
        grid::AssignMode::Grid
    } else {
        grid::AssignMode::Dense
    };
    grid::note_scan(arm);
    // Round accounting shows which arm actually ran.
    let label = format!("{label} [{arm}]");
    let label = label.as_str();
    let reduce = |_: usize, chunk: &[PointId]| {
        let mut counts = vec![0u64; reps.len()];
        let mut wide_max = f64::NEG_INFINITY;
        let mut pruned: u64 = 0;
        for &x in chunk {
            let (best, _) = match &rep_grid {
                Some(g) => g.nearest_member(space, reps, x),
                None => space.nearest(x, reps),
            };
            counts[best] += 1;
            // wide_min(x) <= wide(x, assigned rep): within the running
            // max the point cannot raise it — skip the wide scan.
            let w_assigned = space.wide_cmp_distance(x, reps[best]);
            if w_assigned <= wide_max {
                pruned += reps.len() as u64 - 1;
                continue;
            }
            let w = match &rep_grid {
                Some(g) => g.wide_nearest_bounded(space, reps, x, wide_max),
                None => space.wide_cmp_distance_to_set_bounded(x, reps, wide_max),
            };
            if w > wide_max {
                wide_max = w;
            }
        }
        (counts, wide_max, pruned)
    };
    let count_out = |(counts, _, _): &(Vec<u64>, f64, u64)| counts.len();
    let outputs = cluster.run_round(label, &parts, reduce, count_out)?;
    if outputs.iter().all(Option::is_none) {
        let shard = cluster.dropped_shards().last();
        let shard = shard.expect("an empty round output implies drops");
        return Err(MapReduceError::from(shard).into());
    }

    let mut weights = vec![0u64; reps.len()];
    let mut wide_max = f64::NEG_INFINITY;
    let mut pruned_total = 0u64;
    for (part, output) in parts.iter().zip(outputs) {
        let Some((counts, local_max, pruned)) = output else {
            lost.extend_from_slice(part);
            continue;
        };
        for (w, c) in weights.iter_mut().zip(counts) {
            *w += c;
        }
        wide_max = wide_max.max(local_max);
        pruned_total += pruned;
    }
    cluster.record_counter(PRUNED_PAIRS_COUNTER, pruned_total);
    let radius = space.metric().wide_surrogate_to_distance(wide_max.max(0.0));
    Ok((weights, radius))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gonzalez::GonzalezConfig;
    use kcenter_metric::Point;

    /// Deterministic pseudo-random cloud of `n` points in a 100×100 square.
    fn cloud(n: usize, seed: u64) -> VecSpace {
        VecSpace::new(
            (0..n)
                .map(|i| {
                    let v = seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(i as u64)
                        .wrapping_mul(0xD129_0DDB_53C4_3E49);
                    let x = (v % 10_000) as f64 / 100.0;
                    let y = ((v >> 20) % 10_000) as f64 / 100.0;
                    Point::xy(x, y)
                })
                .collect(),
        )
    }

    #[test]
    fn gonzalez_coreset_weights_partition_the_source() {
        let space = cloud(2_000, 1);
        let coreset = GonzalezCoresetConfig::new(64).build(&space).unwrap();
        assert_eq!(coreset.len(), 64);
        assert_eq!(coreset.total_weight(), 2_000);
        assert_eq!(coreset.source_len(), 2_000);
        assert!(coreset.weights().iter().all(|&w| w >= 1));
        assert!(coreset.construction_radius() > 0.0);
        assert_eq!(coreset.builder(), CoresetBuilder::Gonzalez);
        assert_eq!(coreset.precision_name(), "f64");
        // Build accounting: exactly the three construction rounds.
        assert_eq!(coreset.stats().num_rounds_labelled("coreset"), 3);
    }

    #[test]
    fn sequential_build_equals_plain_gonzalez_prefix() {
        let space = cloud(1_500, 2);
        let coreset = GonzalezCoresetConfig::new(32).build(&space).unwrap();
        // A single-machine build's representatives are exactly the first 32
        // picks of the plain farthest-point traversal.
        let ids: Vec<PointId> = (0..1_500).collect();
        let plain = gonzalez::select_centers(&space, &ids, 32, FirstCenter::default(), false);
        assert_eq!(coreset.source_ids(), &plain[..]);
    }

    #[test]
    fn construction_radius_matches_exact_covering_radius_of_reps() {
        let space = cloud(1_200, 3);
        for machines in [1usize, 6] {
            let coreset = GonzalezCoresetConfig::new(40)
                .with_machines(machines)
                .build(&space)
                .unwrap();
            let exact = covering_radius(&space, coreset.source_ids());
            assert!(
                (coreset.construction_radius() - exact).abs() <= 1e-12,
                "machines={machines}: certificate {} vs exact {exact}",
                coreset.construction_radius()
            );
        }
    }

    #[test]
    fn solve_certificate_bounds_the_full_data_radius() {
        let space = cloud(3_000, 4);
        let coreset = GonzalezCoresetConfig::new(100)
            .with_machines(5)
            .build(&space)
            .unwrap();
        for k in [2usize, 5, 10] {
            for solver in [SequentialSolver::Gonzalez, SequentialSolver::HochbaumShmoys] {
                let sol = coreset.solve(k, solver, FirstCenter::default()).unwrap();
                let full = sol.certify(&space);
                assert!(
                    full <= sol.radius_bound + 1e-9,
                    "k={k} {}: certified {} exceeds bound {}",
                    solver.name(),
                    full,
                    sol.radius_bound
                );
                // Representatives are real points, so the coreset radius
                // never exceeds the full radius.
                assert!(sol.coreset_radius <= full + 1e-9);
                assert_eq!(sol.centers.len(), sol.local_centers.len());
                for (&local, &global) in sol.local_centers.iter().zip(&sol.centers) {
                    assert_eq!(coreset.source_ids()[local], global);
                }
            }
        }
    }

    #[test]
    fn mapreduce_build_stays_close_to_the_sequential_build() {
        let space = cloud(4_000, 5);
        let seq = GonzalezCoresetConfig::new(80).build(&space).unwrap();
        let par = GonzalezCoresetConfig::new(80)
            .with_machines(8)
            .build(&space)
            .unwrap();
        // The merged construction loses at most one local radius: both
        // certificates are the same order of magnitude.
        assert!(par.construction_radius() <= 3.0 * seq.construction_radius() + 1e-9);
        assert_eq!(par.total_weight(), 4_000);
    }

    #[test]
    fn eim_coreset_matches_the_runs_sample_and_is_deterministic() {
        let space = cloud(4_000, 6);
        let config = EimConfig::new(2)
            .with_epsilon(0.13)
            .with_machines(8)
            .with_seed(9);
        let coreset = config.build_coreset(&space).unwrap();
        let rerun = config.build_coreset(&space).unwrap();
        assert_eq!(coreset.source_ids(), rerun.source_ids());
        assert_eq!(coreset.weights(), rerun.weights());
        assert_eq!(coreset.construction_radius(), rerun.construction_radius());
        assert_eq!(coreset.builder(), CoresetBuilder::Eim);
        assert_eq!(coreset.seed(), Some(9));
        // The representatives are exactly the sample C = S ∪ R the full run
        // hands to its final round.
        let run = config.run(&space).unwrap();
        assert_eq!(coreset.len(), run.sample_size);
        assert_eq!(coreset.total_weight(), 4_000);
        // All build rounds carry the "coreset" label prefix.
        assert_eq!(
            coreset.stats().num_rounds_labelled("coreset"),
            coreset.stats().num_rounds()
        );
    }

    #[test]
    fn eim_coreset_solution_is_sane_versus_gonzalez_baseline() {
        let space = cloud(4_000, 7);
        let config = EimConfig::new(3)
            .with_epsilon(0.13)
            .with_machines(8)
            .with_seed(1);
        let coreset = config.build_coreset(&space).unwrap();
        let sol = coreset
            .solve(3, SequentialSolver::Gonzalez, FirstCenter::default())
            .unwrap();
        let full = sol.certify(&space);
        let gon = GonzalezConfig::new(3).solve(&space).unwrap();
        // Same probabilistic 10x-of-baseline sanity bound the EIM tests use.
        assert!(
            full <= 10.0 * gon.radius + 1e-9,
            "coreset solution {full} strays from baseline {}",
            gon.radius
        );
        assert!(full <= sol.radius_bound + 1e-9);
    }

    #[test]
    fn threaded_executor_builds_bit_identical_coresets() {
        let space = cloud(3_000, 9);
        let gon_sim = GonzalezCoresetConfig::new(60)
            .with_machines(6)
            .build(&space)
            .unwrap();
        let eim_cfg = EimConfig::new(2)
            .with_epsilon(0.13)
            .with_machines(8)
            .with_seed(5);
        let eim_sim = eim_cfg.build_coreset(&space).unwrap();
        for threads in [1usize, 4] {
            let gon_thr = GonzalezCoresetConfig::new(60)
                .with_machines(6)
                .with_executor(Executor::threads(threads))
                .build(&space)
                .unwrap();
            assert_eq!(gon_thr.source_ids(), gon_sim.source_ids());
            assert_eq!(gon_thr.weights(), gon_sim.weights());
            assert_eq!(gon_thr.construction_radius(), gon_sim.construction_radius());
            let eim_thr = eim_cfg
                .clone()
                .with_executor(Executor::threads(threads))
                .build_coreset(&space)
                .unwrap();
            assert_eq!(eim_thr.source_ids(), eim_sim.source_ids());
            assert_eq!(eim_thr.weights(), eim_sim.weights());
            assert_eq!(eim_thr.construction_radius(), eim_sim.construction_radius());
        }
    }

    #[test]
    fn solve_on_cluster_charges_one_round_per_cell() {
        let space = cloud(2_000, 8);
        let coreset = GonzalezCoresetConfig::new(50)
            .with_machines(4)
            .build(&space)
            .unwrap();
        let mut cluster = Cluster::unchecked(ClusterConfig::new(4, coreset.len()));
        for (i, k) in [2usize, 4, 8].iter().enumerate() {
            let label = format!("sweep solve k={k}");
            let sol = coreset
                .solve_on_cluster(
                    *k,
                    SequentialSolver::Gonzalez,
                    FirstCenter::default(),
                    &mut cluster,
                    &label,
                )
                .unwrap();
            assert_eq!(sol.local_centers.len(), *k);
            assert_eq!(cluster.stats().num_rounds(), i + 1);
        }
        assert_eq!(cluster.stats().num_rounds_labelled("sweep solve"), 3);
        // And solving off-cluster gives the identical solution.
        let direct = coreset
            .solve(4, SequentialSolver::Gonzalez, FirstCenter::default())
            .unwrap();
        let charged = coreset
            .solve_on_cluster(
                4,
                SequentialSolver::Gonzalez,
                FirstCenter::default(),
                &mut cluster,
                "sweep solve k=4 again",
            )
            .unwrap();
        assert_eq!(direct, charged);
    }

    #[test]
    fn pruned_weights_round_matches_dense_assignment_and_records_the_counter() {
        let space = cloud(3_000, 13);
        let coreset = GonzalezCoresetConfig::new(150).build(&space).unwrap();
        // Weights are exactly the nearest-representative histogram (the
        // `assign` convention): pruning only skips certification pairs,
        // never assignment pairs.
        let assignment = crate::evaluate::assign(&space, coreset.source_ids());
        let mut hist = vec![0u64; coreset.len()];
        for a in assignment {
            hist[a] += 1;
        }
        assert_eq!(coreset.weights(), &hist[..]);
        // The certificate is still the exact dense covering radius.
        let exact = covering_radius(&space, coreset.source_ids());
        assert!((coreset.construction_radius() - exact).abs() <= 1e-12);
        // The early-exit certification skipped the bulk of the n·t wide
        // pairs, and the count is visible in the job accounting.
        let pruned = coreset.stats().counter(PRUNED_PAIRS_COUNTER);
        assert!(
            pruned >= (3_000 / 2) * 149,
            "expected most certification pairs pruned, got {pruned}"
        );
        let round = coreset
            .stats()
            .rounds_labelled("coreset round 3")
            .next()
            .expect("weights round recorded");
        assert_eq!(round.counter(PRUNED_PAIRS_COUNTER), Some(pruned));
    }

    #[test]
    fn eim_weights_round_records_the_pruned_counter_too() {
        let space = cloud(3_000, 14);
        let config = EimConfig::new(4)
            .with_epsilon(0.13)
            .with_machines(6)
            .with_seed(2);
        let coreset = config.build_coreset(&space).unwrap();
        assert!(coreset.stats().counter(PRUNED_PAIRS_COUNTER) > 0);
        // Pruning must not perturb the certificate.
        let exact = covering_radius(&space, coreset.source_ids());
        assert!((coreset.construction_radius() - exact).abs() <= 1e-12);
    }

    #[test]
    fn zero_weight_representatives_are_never_selected() {
        use kcenter_mapreduce::{FaultKind, FaultPlan, ScheduledFault};
        // With t >= n every point is a representative; losing machine 3 of
        // the weights round (round index 2, 4 machines x 20 points) leaves
        // representatives 60..80 covering no surviving point.
        let space = cloud(80, 9);
        let plan = FaultPlan::explicit(
            (0..2)
                .map(|attempt| ScheduledFault {
                    round: 2,
                    machine: 3,
                    attempt,
                    kind: FaultKind::Crash,
                })
                .collect(),
        );
        let faults = FaultConfig::new(plan)
            .with_max_attempts(2)
            .with_degrade(true);
        let coreset = GonzalezCoresetConfig::new(100)
            .with_machines(4)
            .with_faults(faults)
            .build(&space)
            .unwrap();
        let weights = coreset.weights();
        let zero: Vec<PointId> = (0..coreset.len()).filter(|&i| weights[i] == 0).collect();
        assert_eq!(zero, (60..80).collect::<Vec<_>>());
        for solver in [SequentialSolver::Gonzalez, SequentialSolver::HochbaumShmoys] {
            for k in [3, 20, 60, 80] {
                let sol = coreset.solve(k, solver, FirstCenter::default()).unwrap();
                assert!(
                    sol.local_centers.iter().all(|c| !zero.contains(c)),
                    "{} k={k} picked a zero-weight representative",
                    solver.name()
                );
                // From k = 60 on every positive-weight representative is a
                // center, and zero-weight rows need no covering.
                if k >= 60 {
                    assert_eq!(sol.local_centers.len(), 60);
                    assert_eq!(sol.coreset_radius, 0.0);
                }
            }
        }
    }

    #[test]
    fn builders_reject_invalid_parameters() {
        let empty: VecSpace = VecSpace::new(vec![]);
        assert_eq!(
            GonzalezCoresetConfig::new(5).build(&empty).unwrap_err(),
            KCenterError::EmptyInput
        );
        let space = cloud(100, 10);
        assert!(matches!(
            GonzalezCoresetConfig::new(0).build(&space).unwrap_err(),
            KCenterError::InvalidParameter { name: "t", .. }
        ));
        assert!(matches!(
            GonzalezCoresetConfig::new(5)
                .with_machines(0)
                .build(&space)
                .unwrap_err(),
            KCenterError::InvalidParameter {
                name: "machines",
                ..
            }
        ));
        let coreset = GonzalezCoresetConfig::new(5).build(&space).unwrap();
        assert_eq!(
            coreset
                .solve(0, SequentialSolver::Gonzalez, FirstCenter::default())
                .unwrap_err(),
            KCenterError::ZeroK
        );
    }

    #[test]
    fn t_at_least_n_reproduces_the_space_with_unit_weights() {
        let space = cloud(30, 11);
        let coreset = GonzalezCoresetConfig::new(64).build(&space).unwrap();
        assert_eq!(coreset.len(), 30);
        assert!(coreset.weights().iter().all(|&w| w == 1));
        assert_eq!(coreset.construction_radius(), 0.0);
    }

    #[test]
    fn f32_coreset_build_is_deterministic_and_certified() {
        use kcenter_metric::FlatPoints;
        let pts = cloud(1_000, 12).points();
        let space32: VecSpace<Euclidean, f32> =
            VecSpace::from_flat(FlatPoints::<f32>::from_points(&pts));
        let a = GonzalezCoresetConfig::new(40)
            .with_machines(4)
            .build(&space32)
            .unwrap();
        let b = GonzalezCoresetConfig::new(40)
            .with_machines(4)
            .build(&space32)
            .unwrap();
        assert_eq!(a.source_ids(), b.source_ids());
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.construction_radius(), b.construction_radius());
        assert_eq!(a.precision_name(), "f32");
        // The certificate is the exact f64 covering radius of the reps.
        let exact = covering_radius(&space32, a.source_ids());
        assert!((a.construction_radius() - exact).abs() <= 1e-12);
    }

    #[test]
    fn fault_free_builds_report_full_coverage() {
        let space = cloud(1_000, 15);
        let coreset = GonzalezCoresetConfig::new(32)
            .with_machines(4)
            .build(&space)
            .unwrap();
        assert!(!coreset.is_partial());
        assert_eq!(coreset.coverage_fraction(), 1.0);
        assert_eq!(coreset.coverage().covered_source_len, 1_000);
        assert!(coreset.coverage().dropped_shards.is_empty());
        let sol = coreset
            .solve(4, SequentialSolver::Gonzalez, FirstCenter::default())
            .unwrap();
        assert_eq!(sol.covered_fraction, 1.0);
        assert!(!sol.is_partial());
        // certify_covered degenerates to the full-data certify.
        assert_eq!(coreset.certify_covered(&space, &sol), sol.certify(&space));
    }

    #[test]
    fn eventually_succeeding_faults_leave_both_builds_bit_identical() {
        use kcenter_mapreduce::FaultPlan;
        let space = cloud(2_000, 16);
        let faults = FaultConfig::new(FaultPlan::seeded(555)).with_max_attempts(64);

        let clean = GonzalezCoresetConfig::new(64)
            .with_machines(8)
            .build(&space)
            .unwrap();
        let faulty = GonzalezCoresetConfig::new(64)
            .with_machines(8)
            .with_faults(faults.clone())
            .build(&space)
            .unwrap();
        assert_eq!(clean.source_ids(), faulty.source_ids());
        assert_eq!(clean.weights(), faulty.weights());
        assert_eq!(clean.construction_radius(), faulty.construction_radius());
        assert!(!faulty.is_partial());
        assert!(!faulty.stats().fault_summary().is_quiet());

        let eim = EimConfig::new(2)
            .with_epsilon(0.13)
            .with_machines(8)
            .with_seed(9);
        let clean = eim.build_coreset(&space).unwrap();
        let faulty = eim
            .clone()
            .with_faults(faults)
            .build_coreset(&space)
            .unwrap();
        assert_eq!(clean.source_ids(), faulty.source_ids());
        assert_eq!(clean.weights(), faulty.weights());
        assert_eq!(clean.construction_radius(), faulty.construction_radius());
        assert!(!faulty.is_partial());
    }

    #[test]
    fn degrade_mode_build_reports_partial_coverage_and_partial_certificates() {
        use kcenter_mapreduce::{FaultKind, FaultPlan, ScheduledFault};
        let space = cloud(2_000, 17);
        // Machine 2 of the data-holding round 1 dies on all three attempts;
        // 10 machines x 200 points each.
        let plan = FaultPlan::explicit(
            (0..3)
                .map(|attempt| ScheduledFault {
                    round: 0,
                    machine: 2,
                    attempt,
                    kind: FaultKind::Crash,
                })
                .collect(),
        );
        let faults = FaultConfig::new(plan)
            .with_max_attempts(3)
            .with_degrade(true);

        // Without degrade mode the same plan fails the build outright.
        let err = GonzalezCoresetConfig::new(64)
            .with_machines(10)
            .with_faults(faults.clone().with_degrade(false))
            .build(&space)
            .unwrap_err();
        assert!(matches!(
            err,
            KCenterError::MapReduce(MapReduceError::RoundFailed {
                round: 0,
                machine: 2,
                attempts: 3,
                ..
            })
        ));

        let coreset = GonzalezCoresetConfig::new(64)
            .with_machines(10)
            .with_faults(faults)
            .build(&space)
            .unwrap();
        assert!(coreset.is_partial());
        assert_eq!(coreset.coverage().covered_source_len, 1_800);
        assert_eq!(coreset.coverage_fraction(), 0.9);
        assert_eq!(coreset.coverage().lost_source_ids.len(), 200);
        assert_eq!(coreset.coverage().dropped_shards.len(), 1);
        let shard = &coreset.coverage().dropped_shards[0];
        assert_eq!((shard.round, shard.machine, shard.items), (0, 2, 200));
        // Weights partition the survivors, not the full source.
        assert_eq!(coreset.total_weight(), 1_800);
        assert_eq!(coreset.source_len(), 2_000);
        // The lost ids are exactly machine 2's contiguous chunk.
        let lost = &coreset.coverage().lost_source_ids;
        assert_eq!(lost[0], 400);
        assert_eq!(lost[199], 599);
        assert_eq!(coreset.covered_source_ids().len(), 1_800);
        assert!(!coreset.covered_source_ids().contains(&450));

        // Solutions inherit the partial coverage, and the partial bound
        // holds over the surviving subset.
        let sol = coreset
            .solve(5, SequentialSolver::Gonzalez, FirstCenter::default())
            .unwrap();
        assert!(sol.is_partial());
        assert_eq!(sol.covered_fraction, 0.9);
        let covered_radius = coreset.certify_covered(&space, &sol);
        assert!(
            covered_radius <= sol.radius_bound + 1e-9,
            "covered radius {covered_radius} exceeds partial bound {}",
            sol.radius_bound
        );
    }

    #[test]
    fn degraded_weights_round_drops_its_chunks_points_from_coverage() {
        use kcenter_mapreduce::{FaultKind, FaultPlan, ScheduledFault};
        let space = cloud(1_500, 18);
        // Round index 2 is the weights/certification round of the Gonzalez
        // build (rounds 0 and 1 are local coresets and the merge).
        let plan = FaultPlan::explicit(
            (0..2)
                .map(|attempt| ScheduledFault {
                    round: 2,
                    machine: 4,
                    attempt,
                    kind: FaultKind::Crash,
                })
                .collect(),
        );
        let faults = FaultConfig::new(plan)
            .with_max_attempts(2)
            .with_degrade(true);
        let coreset = GonzalezCoresetConfig::new(48)
            .with_machines(5)
            .with_faults(faults)
            .build(&space)
            .unwrap();
        assert!(coreset.is_partial());
        // 5 machines x 300 points: machine 4's weights chunk is lost.
        assert_eq!(coreset.coverage().covered_source_len, 1_200);
        assert_eq!(coreset.total_weight(), 1_200);
        let shard = &coreset.coverage().dropped_shards[0];
        assert_eq!((shard.round, shard.machine, shard.items), (2, 4, 300));
        // The certificate speaks for the survivors and is exact over them.
        let exact =
            covering_radius_subset(&space, &coreset.covered_source_ids(), coreset.source_ids());
        assert!((coreset.construction_radius() - exact).abs() <= 1e-12);
    }
}
