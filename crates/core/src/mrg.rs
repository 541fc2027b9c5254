//! MRG — "MapReduce Gonzalez", the paper's multi-round parallel k-center
//! algorithm (Algorithm 1).
//!
//! While the surviving sample `S` is larger than one machine's capacity `c`,
//! the mapper splits it into at most `m` parts of size ≤ ⌈|S|/m⌉, every
//! reducer runs the sequential sub-procedure (GON by default) on its part
//! and returns `k` centers, and the union of those centers becomes the new
//! sample.  Once the sample fits on one machine a final reducer runs the
//! sub-procedure once more and its `k` centers are the answer.
//!
//! With the two-round preconditions of Lemma 2 (`n/m ≤ c` and `k·m ≤ c`)
//! this is a 4-approximation; every additional reduction round adds 2 to the
//! factor (Lemma 3).  The runtime is `O(k·n/m + k²·m)` (Section 5.1).

use crate::error::KCenterError;
use crate::evaluate::certify_survivors;
use crate::gonzalez::FirstCenter;
use crate::solution::KCenterSolution;
use crate::solver::SequentialSolver;
use kcenter_mapreduce::{
    partition, Cluster, ClusterConfig, DegradedRun, Executor, FaultConfig, JobStats, MapReduceError,
};
use kcenter_metric::{Distance, PointId, Scalar, VecSpace};

/// Configuration of the MRG algorithm.
///
/// ```
/// use kcenter_core::MrgConfig;
/// use kcenter_metric::{Point, VecSpace};
///
/// // 1,000 points on a line, clustered with k = 4 on 8 simulated machines.
/// let space = VecSpace::new((0..1000).map(|i| Point::xy(i as f64, 0.0)).collect());
/// let result = MrgConfig::new(4).with_machines(8).run(&space).unwrap();
/// assert_eq!(result.mapreduce_rounds, 2);          // the common two-round case
/// assert_eq!(result.approximation_factor, 4.0);    // Lemma 2
/// assert_eq!(result.solution.centers.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MrgConfig {
    /// Number of centers to select.
    pub k: usize,
    /// Number of simulated machines (the paper fixes 50).
    pub machines: usize,
    /// Per-machine capacity in points.  `None` chooses the paper's
    /// two-round capacity `max(⌈n/m⌉, k·m)` once `n` is known.
    pub capacity: Option<usize>,
    /// Whether the simulated cluster enforces the capacity when handing
    /// partitions to reducers.  Disable to mimic the paper's experiments,
    /// where the single test machine had ample RAM.
    pub enforce_capacity: bool,
    /// The sequential sub-procedure run inside reducers and in the final
    /// round (GON in the paper).
    pub solver: SequentialSolver,
    /// First-center policy forwarded to the sub-procedure.
    pub first_center: FirstCenter,
    /// Optional deterministic fault injection (plan + attempt budget +
    /// degrade mode) installed on the simulated cluster.
    pub faults: Option<FaultConfig>,
    /// How the cluster executes each round's machines: the paper's
    /// sequential simulation (the default) or real scoped threads.
    /// Outputs are bit-identical either way.
    pub executor: Executor,
}

impl MrgConfig {
    /// MRG with `k` centers on the paper's 50-machine cluster, automatic
    /// two-round capacity, GON sub-procedure.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            machines: ClusterConfig::PAPER_MACHINES,
            capacity: None,
            enforce_capacity: true,
            solver: SequentialSolver::Gonzalez,
            first_center: FirstCenter::default(),
            faults: None,
            executor: Executor::Simulated,
        }
    }

    /// Sets the number of simulated machines.
    pub fn with_machines(mut self, machines: usize) -> Self {
        self.machines = machines;
        self
    }

    /// Sets an explicit per-machine capacity (in points).  Lower it below
    /// `k · m` to force the multi-round regime of Lemma 3.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Disables capacity enforcement in the simulated cluster.
    pub fn with_unchecked_capacity(mut self) -> Self {
        self.enforce_capacity = false;
        self
    }

    /// Chooses the sequential sub-procedure.
    pub fn with_solver(mut self, solver: SequentialSolver) -> Self {
        self.solver = solver;
        self
    }

    /// Sets the first-center policy of the sub-procedure.
    pub fn with_first_center(mut self, first: FirstCenter) -> Self {
        self.first_center = first;
        self
    }

    /// Installs deterministic fault injection on the simulated cluster.
    /// With `faults.degrade` set, a shard that exhausts its attempts is
    /// dropped and the run continues on the survivors, reporting an
    /// explicitly partial certificate (see [`MrgResult::degraded`]).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Selects the cluster executor (simulated by default).
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// The capacity that will actually be used for an instance of `n`
    /// points: the explicit capacity if set, otherwise the paper's
    /// two-round default `max(⌈n/m⌉, k·m)`.
    pub fn effective_capacity(&self, n: usize) -> usize {
        self.capacity
            .unwrap_or_else(|| ClusterConfig::paper_default(n, self.k).capacity.max(1))
            .max(1)
    }

    /// Runs MRG on the given space.
    pub fn run<D: Distance, S: Scalar>(
        &self,
        space: &VecSpace<D, S>,
    ) -> Result<MrgResult, KCenterError> {
        let n = space.len();
        if n == 0 {
            return Err(KCenterError::EmptyInput);
        }
        if self.k == 0 {
            return Err(KCenterError::ZeroK);
        }
        KCenterError::require_metric(space.metric())?;
        if self.machines == 0 {
            return Err(KCenterError::InvalidParameter {
                name: "machines",
                message: "at least one machine is required".into(),
            });
        }

        let capacity = self.effective_capacity(n);
        let cluster_config = ClusterConfig::new(self.machines, capacity);
        let mut cluster = if self.enforce_capacity {
            Cluster::new(cluster_config)
        } else {
            Cluster::unchecked(cluster_config)
        }
        .with_executor(self.executor);
        cluster.check_fits(n)?;
        if let Some(faults) = &self.faults {
            cluster = cluster.with_fault_injection(faults.clone());
        }

        let solver = self.solver;
        let k = self.k;
        let first = self.first_center;

        // Algorithm 1, line 1: S <- V.
        let mut sample: Vec<PointId> = (0..n).collect();
        let mut reduction_rounds = 0usize;
        // The source points that left coverage with a round-0 shard
        // dropped by degrade mode (later rounds hold only candidate
        // centers, so dropping them loses no source coverage — the final
        // radius is measured directly either way).
        let mut lost: Vec<PointId> = Vec::new();

        // Lines 2-5: while |S| > c, reduce in parallel.
        while sample.len() > capacity {
            // The first reduction round spreads the full input over all m
            // machines (Algorithm 1, line 3: |V_i| <= ceil(n/m)); later
            // rounds follow the Lemma 3 analysis and pack the surviving
            // sample onto m' = ceil(|S|/c) machines so it keeps shrinking.
            let machines_this_round = if reduction_rounds == 0 {
                self.machines
            } else {
                sample.len().div_ceil(capacity).clamp(1, self.machines)
            };
            let parts = partition::chunks(&sample, machines_this_round);
            let label = format!(
                "MRG reduction round {} ({} on {} machines)",
                reduction_rounds + 1,
                solver.name(),
                parts.len()
            );
            let outputs = cluster.run_round(
                &label,
                &parts,
                |_, part| solver.select_centers(space, part, k, first),
                Vec::len,
            )?;
            for (part, output) in parts.iter().zip(&outputs) {
                if output.is_none() && reduction_rounds == 0 {
                    // Round 0 partitions hold source data: those points
                    // leave the coverage claim with the shard.
                    lost.extend_from_slice(part);
                }
            }
            let next: Vec<PointId> = outputs.into_iter().flatten().flatten().collect();
            if next.is_empty() {
                // Every shard died: there is nothing to degrade to.
                let shard = cluster.dropped_shards().last();
                let shard = shard.expect("an empty round output implies drops");
                return Err(MapReduceError::from(shard).into());
            }
            if next.len() >= sample.len() {
                // k is too close to the capacity: the sample no longer
                // shrinks (the situation discussed after Lemma 3).
                return Err(KCenterError::NoProgress {
                    sample_size: sample.len(),
                    capacity,
                });
            }
            sample = next;
            reduction_rounds += 1;
        }

        // Lines 6-8: final single-machine run of the sub-procedure.
        let label = format!("MRG final round ({} on 1 machine)", solver.name());
        let centers = cluster.run_single(
            &label,
            sample,
            |part| solver.select_centers(space, part, k, first),
            Vec::len,
        )?;

        // The certificate: a directly measured covering radius, restated
        // over the surviving points when degrade mode dropped shards.
        let (radius, degraded) =
            certify_survivors(space, &centers, &lost, cluster.dropped_shards());
        let solution = KCenterSolution::new(self.k, centers, radius);
        let stats = cluster.into_stats();
        Ok(MrgResult {
            solution,
            reduction_rounds,
            mapreduce_rounds: reduction_rounds + 1,
            approximation_factor: 2.0 * (reduction_rounds as f64 + 1.0),
            capacity,
            stats,
            degraded,
        })
    }
}

/// The outcome of an MRG run.
#[derive(Debug, Clone, PartialEq)]
pub struct MrgResult {
    /// The selected centers and their covering radius over the full space.
    pub solution: KCenterSolution,
    /// Number of parallel reduction rounds (iterations of the while loop).
    pub reduction_rounds: usize,
    /// Total number of MapReduce rounds, including the final single-machine
    /// round (the paper's two-round case has `reduction_rounds == 1`).
    pub mapreduce_rounds: usize,
    /// The proven approximation factor for this round count:
    /// `2 · (reduction_rounds + 1)`.
    pub approximation_factor: f64,
    /// The per-machine capacity that was in force.
    pub capacity: usize,
    /// Per-round cost accounting (the paper's simulated time plus wall
    /// clock).
    pub stats: JobStats,
    /// `Some` iff degrade mode dropped at least one shard.  The solution's
    /// radius is then a certificate over `covered_points` surviving points
    /// only, and the Lemma 2/3 approximation factor no longer applies —
    /// the radius is honest (directly measured over the survivors) but the
    /// a-priori guarantee is void.
    pub degraded: Option<DegradedRun>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::optimal_radius;
    use crate::gonzalez::GonzalezConfig;
    use kcenter_metric::{Point, SquaredEuclidean, VecSpace};

    /// A deterministic pseudo-random cloud in the unit square scaled by 100.
    fn cloud(n: usize, seed: u64) -> VecSpace {
        VecSpace::new(
            (0..n)
                .map(|i| {
                    let v = seed
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(i as u64)
                        .wrapping_mul(1_442_695_040_888_963_407);
                    let x = (v % 10_000) as f64 / 100.0;
                    let y = ((v >> 32) % 10_000) as f64 / 100.0;
                    Point::xy(x, y)
                })
                .collect(),
        )
    }

    #[test]
    fn two_round_case_runs_two_mapreduce_rounds() {
        let space = cloud(2_000, 1);
        let result = MrgConfig::new(5).with_machines(10).run(&space).unwrap();
        assert_eq!(result.reduction_rounds, 1);
        assert_eq!(result.mapreduce_rounds, 2);
        assert_eq!(result.approximation_factor, 4.0);
        assert_eq!(result.solution.centers.len(), 5);
        assert_eq!(result.stats.num_rounds(), 2);
        // First round used several machines, final round exactly one.
        assert!(result.stats.rounds()[0].machines_used > 1);
        assert_eq!(result.stats.rounds()[1].machines_used, 1);
    }

    #[test]
    fn small_input_that_fits_on_one_machine_degenerates_to_gon() {
        let space = cloud(100, 2);
        let result = MrgConfig::new(4)
            .with_machines(10)
            .with_capacity(1_000)
            .run(&space)
            .unwrap();
        assert_eq!(result.reduction_rounds, 0);
        assert_eq!(result.mapreduce_rounds, 1);
        assert_eq!(result.approximation_factor, 2.0);
        // Identical to plain GON because the same sub-procedure ran on the
        // full point set with the same first center.
        let gon = GonzalezConfig::new(4).solve(&space).unwrap();
        assert_eq!(result.solution.centers, gon.centers);
        assert_eq!(result.solution.radius, gon.radius);
    }

    #[test]
    fn forced_multi_round_regime_adds_rounds_and_loosens_factor() {
        let space = cloud(3_000, 3);
        // Capacity below k·m (10·20 = 200) but above n/m (150) forces the
        // Lemma 3 multi-round regime.
        let result = MrgConfig::new(10)
            .with_machines(20)
            .with_capacity(160)
            .run(&space)
            .unwrap();
        assert!(
            result.reduction_rounds >= 2,
            "expected >= 2 reduction rounds, got {}",
            result.reduction_rounds
        );
        assert_eq!(
            result.approximation_factor,
            2.0 * (result.reduction_rounds as f64 + 1.0)
        );
        assert_eq!(result.solution.centers.len(), 10);
        // The solution is still a valid covering.
        assert!(result.solution.radius.is_finite());
    }

    #[test]
    fn no_progress_is_reported_when_k_exceeds_capacity() {
        let space = cloud(500, 4);
        // k = 60 > capacity = 50: each round produces >= as many centers as
        // it consumed points per machine, so the sample cannot shrink.
        let err = MrgConfig::new(60)
            .with_machines(5)
            .with_capacity(50)
            .with_unchecked_capacity()
            .run(&space)
            .unwrap_err();
        assert!(matches!(err, KCenterError::NoProgress { .. }));
    }

    #[test]
    fn capacity_enforcement_rejects_oversized_partitions() {
        let space = cloud(1_000, 5);
        // capacity 30 with 10 machines -> partitions of 100 > 30.
        let err = MrgConfig::new(2)
            .with_machines(10)
            .with_capacity(30)
            .run(&space)
            .unwrap_err();
        assert!(matches!(err, KCenterError::MapReduce(_)));
    }

    #[test]
    fn four_approximation_holds_against_brute_force_on_small_instances() {
        for seed in 0..4u64 {
            let space = cloud(18, seed);
            for k in [2usize, 3] {
                let opt = optimal_radius(&space, k).unwrap();
                let result = MrgConfig::new(k)
                    .with_machines(3)
                    .with_capacity(6)
                    .run(&space)
                    .unwrap();
                assert!(result.reduction_rounds >= 1);
                let bound = result.approximation_factor * opt + 1e-9;
                assert!(
                    result.solution.radius <= bound,
                    "MRG exceeded its bound: {} > {} (seed {seed}, k {k}, rounds {})",
                    result.solution.radius,
                    bound,
                    result.reduction_rounds
                );
            }
        }
    }

    #[test]
    fn rejects_invalid_inputs() {
        let empty = VecSpace::new(vec![]);
        assert_eq!(
            MrgConfig::new(3).run(&empty).unwrap_err(),
            KCenterError::EmptyInput
        );

        let space = cloud(50, 6);
        assert_eq!(
            MrgConfig::new(0).run(&space).unwrap_err(),
            KCenterError::ZeroK
        );
        assert!(matches!(
            MrgConfig::new(2).with_machines(0).run(&space).unwrap_err(),
            KCenterError::InvalidParameter {
                name: "machines",
                ..
            }
        ));

        let sq = VecSpace::with_distance(
            vec![Point::xy(0.0, 0.0), Point::xy(1.0, 1.0)],
            SquaredEuclidean,
        );
        assert!(matches!(
            MrgConfig::new(1).run(&sq).unwrap_err(),
            KCenterError::NotAMetric { .. }
        ));
    }

    #[test]
    fn hochbaum_shmoys_subprocedure_also_works() {
        let space = cloud(400, 7);
        let result = MrgConfig::new(4)
            .with_machines(8)
            .with_capacity(60)
            .with_solver(SequentialSolver::HochbaumShmoys)
            .run(&space)
            .unwrap();
        assert_eq!(result.solution.centers.len(), 4);
        assert!(result.solution.radius.is_finite());
        // Comparable to the GON-based run (both within constant factors).
        let gon_based = MrgConfig::new(4)
            .with_machines(8)
            .with_capacity(60)
            .run(&space)
            .unwrap();
        assert!(result.solution.radius <= 4.0 * gon_based.solution.radius + 1e-9);
    }

    #[test]
    fn effective_capacity_defaults_to_paper_rule() {
        let config = MrgConfig::new(100);
        // max(ceil(n/m), k*m) with m = 50: ceil(1M/50) = 20,000 > 100*50.
        assert_eq!(config.effective_capacity(1_000_000), 20_000);
        assert_eq!(
            MrgConfig::new(2).with_capacity(7).effective_capacity(1_000),
            7
        );
    }

    #[test]
    fn eventually_succeeding_faults_leave_the_result_bit_identical() {
        use kcenter_mapreduce::{FaultKind, FaultPlan, ScheduledFault};
        let space = cloud(2_000, 11);
        let clean = MrgConfig::new(5).with_machines(10).run(&space).unwrap();
        // Crash two different reducers on their first attempt and straggle
        // a third: every partition still succeeds within 3 attempts.
        let plan = FaultPlan::explicit(vec![
            ScheduledFault {
                round: 0,
                machine: 2,
                attempt: 0,
                kind: FaultKind::Crash,
            },
            ScheduledFault {
                round: 0,
                machine: 7,
                attempt: 0,
                kind: FaultKind::Corrupt,
            },
            ScheduledFault {
                round: 0,
                machine: 4,
                attempt: 0,
                kind: FaultKind::Straggle { factor: 5.0 },
            },
        ]);
        let faulty = MrgConfig::new(5)
            .with_machines(10)
            .with_faults(FaultConfig::new(plan).with_max_attempts(3))
            .run(&space)
            .unwrap();
        assert_eq!(faulty.solution.centers, clean.solution.centers);
        assert_eq!(faulty.solution.radius, clean.solution.radius);
        assert!(faulty.degraded.is_none());
        let summary = faulty.stats.fault_summary();
        assert_eq!(summary.crashes, 1);
        assert_eq!(summary.rejections, 1);
        assert_eq!(summary.stragglers, 1);
        assert_eq!(summary.retries, 2);
    }

    #[test]
    fn degrade_mode_drops_a_dead_shard_and_reports_partial_coverage() {
        use kcenter_mapreduce::{FaultKind, FaultPlan, ScheduledFault};
        let space = cloud(2_000, 12);
        // Machine 3 dies on every attempt of round 0.
        let plan = FaultPlan::explicit(
            (0..3)
                .map(|attempt| ScheduledFault {
                    round: 0,
                    machine: 3,
                    attempt,
                    kind: FaultKind::Crash,
                })
                .collect(),
        );
        let faults = FaultConfig::new(plan)
            .with_max_attempts(3)
            .with_degrade(true);
        let result = MrgConfig::new(5)
            .with_machines(10)
            .with_faults(faults.clone())
            .run(&space)
            .unwrap();
        let degraded = result.degraded.expect("the run must be marked degraded");
        // 10 machines over 2,000 points: the dead shard held 200 points.
        assert_eq!(degraded.total_points, 2_000);
        assert_eq!(degraded.covered_points, 1_800);
        assert!((degraded.coverage_fraction() - 0.9).abs() < 1e-12);
        assert_eq!(degraded.dropped_shards.len(), 1);
        assert_eq!(degraded.dropped_shards[0].machine, 3);
        assert_eq!(degraded.dropped_shards[0].items, 200);
        assert_eq!(result.stats.fault_summary().shards_dropped, 1);
        // The radius is a true certificate over the survivors.
        assert!(result.solution.radius.is_finite());

        // Without degrade mode the same plan fails the run with provenance.
        let err = MrgConfig::new(5)
            .with_machines(10)
            .with_faults(faults.with_degrade(false))
            .run(&space)
            .unwrap_err();
        match err {
            KCenterError::MapReduce(MapReduceError::RoundFailed {
                round,
                machine,
                attempts,
                ..
            }) => {
                assert_eq!(round, 0);
                assert_eq!(machine, 3);
                assert_eq!(attempts, 3);
            }
            other => panic!("expected RoundFailed, got {other:?}"),
        }
    }

    #[test]
    fn threaded_executor_reproduces_the_simulated_run_bit_for_bit() {
        let space = cloud(2_000, 13);
        let simulated = MrgConfig::new(5).with_machines(10).run(&space).unwrap();
        for threads in [1usize, 3, 8] {
            let threaded = MrgConfig::new(5)
                .with_machines(10)
                .with_executor(Executor::threads(threads))
                .run(&space)
                .unwrap();
            assert_eq!(threaded.solution.centers, simulated.solution.centers);
            assert_eq!(threaded.solution.radius, simulated.solution.radius);
            assert_eq!(threaded.reduction_rounds, simulated.reduction_rounds);
            for r in threaded.stats.rounds() {
                assert_eq!(r.executor, Executor::threads(threads));
            }
        }
    }

    #[test]
    fn stats_expose_paper_style_accounting() {
        let space = cloud(5_000, 8);
        let result = MrgConfig::new(10).with_machines(25).run(&space).unwrap();
        let stats = &result.stats;
        assert_eq!(stats.num_rounds(), result.mapreduce_rounds);
        assert!(stats.simulated_time() <= stats.sequential_time());
        assert_eq!(stats.rounds()[0].items_in, 5_000);
    }
}
