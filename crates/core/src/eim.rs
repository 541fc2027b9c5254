//! EIM — the iterative-sampling MapReduce k-center algorithm of Ene, Im &
//! Moseley (KDD 2011), as re-implemented and generalised by the paper
//! (Algorithms 2 and 3, Sections 4 and 6).
//!
//! The scheme keeps a shrinking set `R` of "unrepresented" points and a
//! growing sample `S`.  Each iteration of the main loop spends three
//! MapReduce rounds:
//!
//! 1. every reducer independently adds each of its points to `S` with
//!    probability `9·k·n^ε·log n / |R|` and to the pivot-candidate set `H`
//!    with probability `4·n^ε·log n / |R|`;
//! 2. a single reducer runs `Select(H, S)` — it orders `H` by distance to
//!    `S` (farthest first) and picks the pivot `v` in position `φ·log n`
//!    (the paper's new parameter φ; the original scheme fixes φ = 8);
//! 3. every reducer drops from `R` each point whose distance to `S` is at
//!    most `d(v, S)`.
//!
//! The loop ends once `|R| ≤ (4/ε)·k·n^ε·log n`; `C = S ∪ R` is then handed
//! to a sequential k-center algorithm (GON) in one final round.  With high
//! probability this is a 10-approximation when a 2-approximation is used in
//! the final round and φ > 5.15 (Section 6).
//!
//! The two termination fixes of Section 4.1 are implemented: points at
//! distance *equal* to the pivot's are removed as well, and points that were
//! just sampled into `S` are always removed from `R`.
//!
//! One deliberate implementation difference from the paper's cost
//! accounting: distances to the growing sample are maintained in an
//! incremental cache, so rounds 2 and 3 only scan the *newly added* sample
//! points instead of all of `S`.  This is a strict speed-up that does not
//! change any output (the minimum over `S` equals the minimum of the cached
//! value and the minimum over the additions) and only strengthens the
//! paper's observation that round 3 dominates the runtime.

use crate::error::KCenterError;
use crate::evaluate::certify_survivors;
use crate::gonzalez::FirstCenter;
use crate::select::{select_pivot, PHI_ORIGINAL};
use crate::solution::KCenterSolution;
use crate::solver::SequentialSolver;
use kcenter_mapreduce::{
    partition, Cluster, ClusterConfig, DegradedRun, Executor, FaultConfig, JobStats, MapReduceError,
};
use kcenter_metric::{Distance, PointId, Scalar, VecSpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the EIM sampling algorithm.
///
/// ```
/// use kcenter_core::EimConfig;
/// use kcenter_metric::{Point, VecSpace};
///
/// let space = VecSpace::new((0..500).map(|i| Point::xy(i as f64, 0.0)).collect());
/// // At this size the loop threshold exceeds n, so EIM degenerates to the
/// // sequential solver on the whole input — the paper's Figure 3b regime.
/// let result = EimConfig::new(10).with_seed(7).run(&space).unwrap();
/// assert!(result.fell_back_to_sequential);
/// assert_eq!(result.solution.centers.len(), 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EimConfig {
    /// Number of centers to select.
    pub k: usize,
    /// The sampling exponent ε; the paper (following Ene et al.) uses 0.1.
    pub epsilon: f64,
    /// The pivot-rank parameter φ introduced by the paper; 8 reproduces the
    /// original Ene et al. behaviour, values above 5.15 keep the
    /// probabilistic guarantee, smaller values trade quality for speed.
    pub phi: f64,
    /// Number of simulated machines (the paper fixes 50).
    pub machines: usize,
    /// Seed for all sampling randomness (results are deterministic given
    /// the seed).
    pub seed: u64,
    /// The sequential algorithm run on the final sample (GON in the paper).
    pub solver: SequentialSolver,
    /// First-center policy forwarded to the final sub-procedure.
    pub first_center: FirstCenter,
    /// Safety valve: the main loop aborts after this many iterations even
    /// if the threshold has not been reached (the paper's fixes make this
    /// unreachable in practice, but a probabilistic loop deserves a bound).
    pub max_iterations: usize,
    /// Optional deterministic fault injection (plan + attempt budget +
    /// degrade mode) installed on the simulated cluster.
    pub faults: Option<FaultConfig>,
    /// How the cluster executes each round's machines: the paper's
    /// sequential simulation (the default) or real scoped threads.
    /// Outputs are bit-identical either way.
    pub executor: Executor,
}

impl EimConfig {
    /// EIM with `k` centers and the paper's defaults: ε = 0.1, φ = 8,
    /// 50 machines, GON final round.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            epsilon: 0.1,
            phi: PHI_ORIGINAL,
            machines: ClusterConfig::PAPER_MACHINES,
            seed: 0,
            solver: SequentialSolver::Gonzalez,
            first_center: FirstCenter::default(),
            max_iterations: 64,
            faults: None,
            executor: Executor::Simulated,
        }
    }

    /// Sets the sampling exponent ε (must lie in `(0, 1)`).
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the pivot-rank parameter φ.
    pub fn with_phi(mut self, phi: f64) -> Self {
        self.phi = phi;
        self
    }

    /// Sets the number of simulated machines.
    pub fn with_machines(mut self, machines: usize) -> Self {
        self.machines = machines;
        self
    }

    /// Sets the sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Chooses the sequential algorithm for the final round.
    pub fn with_solver(mut self, solver: SequentialSolver) -> Self {
        self.solver = solver;
        self
    }

    /// Sets the first-center policy of the final round.
    pub fn with_first_center(mut self, first: FirstCenter) -> Self {
        self.first_center = first;
        self
    }

    /// Installs deterministic fault injection on the simulated cluster.
    /// With `faults.degrade` set, a shard that exhausts its attempts is
    /// dropped: its points leave the coverage claim and the result carries
    /// an explicitly partial certificate (see [`EimResult::degraded`]).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Selects the cluster executor (simulated by default).
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// The loop threshold `(4/ε)·k·n^ε·log n` for an instance of `n` points:
    /// sampling only happens while `|R|` exceeds this value, so when `n` is
    /// already below it the algorithm degenerates to the sequential solver
    /// on the whole input (the behaviour visible in Figures 3b and 4b).
    pub fn sampling_threshold(&self, n: usize) -> f64 {
        let nf = n.max(2) as f64;
        (4.0 / self.epsilon) * self.k as f64 * nf.powf(self.epsilon) * nf.ln()
    }

    fn validate(&self, n: usize) -> Result<(), KCenterError> {
        if n == 0 {
            return Err(KCenterError::EmptyInput);
        }
        if self.k == 0 {
            return Err(KCenterError::ZeroK);
        }
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(KCenterError::InvalidParameter {
                name: "epsilon",
                message: format!("must lie in (0, 1), got {}", self.epsilon),
            });
        }
        if !(self.phi > 0.0 && self.phi.is_finite()) {
            return Err(KCenterError::InvalidParameter {
                name: "phi",
                message: format!("must be positive and finite, got {}", self.phi),
            });
        }
        if self.machines == 0 {
            return Err(KCenterError::InvalidParameter {
                name: "machines",
                message: "at least one machine is required".into(),
            });
        }
        if self.max_iterations == 0 {
            return Err(KCenterError::InvalidParameter {
                name: "max_iterations",
                message: "must be at least 1".into(),
            });
        }
        Ok(())
    }

    /// Runs EIM on the given space.
    pub fn run<D: Distance, S: Scalar>(
        &self,
        space: &VecSpace<D, S>,
    ) -> Result<EimResult, KCenterError> {
        let (phase, mut cluster) = sampling_phase(self, space, "")?;
        let SamplingPhase {
            sample,
            remaining,
            iterations,
            lost,
        } = phase;

        // Line 10: C <- S ∪ R (disjoint by construction).
        let mut coreset: Vec<PointId> = Vec::with_capacity(sample.len() + remaining.len());
        coreset.extend(sample.iter().copied());
        coreset.extend(remaining.iter().copied());
        let sample_size = coreset.len();
        if coreset.is_empty() {
            // Degrade mode lost every point: nothing to degrade to.
            let shard = cluster.dropped_shards().last();
            let shard = shard.expect("an empty hand-off set implies drops");
            return Err(MapReduceError::from(shard).into());
        }

        // Final clean-up round: a sequential k-center algorithm on C.
        // This round never degrades — without its single reducer there is
        // no solution at all, so an exhausted final round is always an
        // error, even in degrade mode.
        let solver = self.solver;
        let k = self.k;
        let first = self.first_center;
        let centers = cluster.run_single(
            &format!("EIM final round: {} on the sample", solver.name()),
            coreset,
            |c| solver.select_centers(space, c, k, first),
            Vec::len,
        )?;

        // The certificate: a degraded run restates the covering radius over
        // the surviving points only — never silently over the full input.
        let (radius, degraded) =
            certify_survivors(space, &centers, &lost, cluster.dropped_shards());
        let solution = KCenterSolution::new(self.k, centers, radius);
        Ok(EimResult {
            solution,
            iterations,
            mapreduce_rounds: 3 * iterations + 1,
            sample_size,
            fell_back_to_sequential: iterations == 0,
            phi: self.phi,
            epsilon: self.epsilon,
            stats: cluster.into_stats(),
            degraded,
        })
    }
}

/// The state left behind by EIM's iterative-sampling loop: the sample `S`,
/// the still-unrepresented points `R`, and how many iterations ran.  The
/// union `S ∪ R` (disjoint by construction) is the paper's hand-off set
/// `C`, which [`EimConfig::run`] clusters immediately and the coreset
/// builder (`crate::coreset`) instead weighs and keeps.
pub(crate) struct SamplingPhase {
    /// The accumulated sample `S`.
    pub sample: Vec<PointId>,
    /// The surviving unrepresented set `R`.
    pub remaining: Vec<PointId>,
    /// Iterations of the sampling loop that actually ran.
    pub iterations: usize,
    /// Source points that left the coverage claim with a shard degrade
    /// mode dropped (the shards themselves are in the cluster's
    /// `dropped_shards` ledger):
    /// a round-1 drop loses its whole chunk (those points were neither
    /// sampled nor filtered), a round-3 drop loses the unsampled part of
    /// its chunk, and a round-2 (Select) drop loses no points — only the
    /// pivot, so that iteration simply filters nothing.
    pub lost: Vec<PointId>,
}

/// Runs Algorithm 2's sampling loop (three MapReduce rounds per iteration)
/// and returns the phase outcome together with the cluster whose `JobStats`
/// charged those rounds and whose ledger holds any dropped shards, so
/// callers can keep charging follow-up rounds to the same accounting.
/// Round labels are prefixed with `label_prefix` so a multi-phase job
/// (e.g. the coreset builder) can slice the sampling cost back out of the
/// stats.
pub(crate) fn sampling_phase<D: Distance, S: Scalar>(
    config: &EimConfig,
    space: &VecSpace<D, S>,
    label_prefix: &str,
) -> Result<(SamplingPhase, Cluster), KCenterError> {
    let n = space.len();
    config.validate(n)?;
    KCenterError::require_metric(space.metric())?;

    let nf = n.max(2) as f64;
    let log_n = nf.ln();
    let n_eps = nf.powf(config.epsilon);
    let threshold = config.sampling_threshold(n);

    // EIM has no per-machine capacity parameter; partitions are always
    // `⌈|R|/m⌉` points, which the paper's setup comfortably holds.
    let mut cluster = Cluster::unchecked(ClusterConfig::new(config.machines, n.max(1)))
        .with_executor(config.executor);
    if let Some(faults) = &config.faults {
        cluster = cluster.with_fault_injection(faults.clone());
    }
    let mut lost: Vec<PointId> = Vec::new();

    // Algorithm 2, line 1: S <- ∅, R <- V.
    let mut sample: Vec<PointId> = Vec::new();
    let mut in_sample = vec![false; n];
    let mut remaining: Vec<PointId> = (0..n).collect();
    // Incremental cache of d(x, S) for every point, kept in comparison
    // space (squared for Euclidean, at storage precision for a
    // reduced-precision store): Select and the round-3 filter only
    // ever *compare* these values, so the monotone surrogate gives the
    // same pivot and the same removals without a sqrt per pair.
    let mut dist_to_sample: Vec<S> = vec![S::INFINITY; n];

    let mut iterations = 0usize;

    // Line 2: while |R| > (4/ε)·k·n^ε·log n.
    while (remaining.len() as f64) > threshold && iterations < config.max_iterations {
        let r_len = remaining.len() as f64;
        let p_sample = (9.0 * config.k as f64 * n_eps * log_n / r_len).min(1.0);
        let p_pivot = (4.0 * n_eps * log_n / r_len).min(1.0);
        let base_seed = mix_seed(config.seed, iterations as u64);

        // ---- Round 1 (lines 3-4): independent sampling on every reducer.
        let parts = partition::chunks(&remaining, config.machines);
        let round1_label = format!(
            "{label_prefix}EIM iteration {} round 1: sample S and H",
            iterations + 1
        );
        let round1_reduce = |machine: usize, chunk: &[PointId]| {
            let mut rng = StdRng::seed_from_u64(mix_seed(base_seed, machine as u64));
            let mut s_i = Vec::new();
            let mut h_i = Vec::new();
            for &x in chunk {
                if rng.gen::<f64>() < p_sample {
                    s_i.push(x);
                }
                if rng.gen::<f64>() < p_pivot {
                    h_i.push(x);
                }
            }
            (s_i, h_i)
        };
        let round1_count = |(s_i, h_i): &(Vec<PointId>, Vec<PointId>)| s_i.len() + h_i.len();
        let outputs = cluster.run_round(&round1_label, &parts, round1_reduce, round1_count)?;
        let mut sampled = Vec::with_capacity(outputs.len());
        let mut lost_now: Vec<PointId> = Vec::new();
        for (part, output) in parts.iter().zip(outputs) {
            match output {
                Some(pair) => sampled.push(pair),
                // The chunk's points were neither sampled nor filtered:
                // they leave both R and the coverage claim.
                None => lost_now.extend_from_slice(part),
            }
        }
        if !lost_now.is_empty() {
            let mut is_lost = vec![false; n];
            for &x in &lost_now {
                is_lost[x] = true;
            }
            remaining.retain(|&x| !is_lost[x]);
            lost.extend(lost_now);
        }

        // Line 5: S <- S ∪ (∪_i S^i), H <- ∪_i H^i.
        let mut additions: Vec<PointId> = Vec::new();
        let mut pivot_candidates: Vec<PointId> = Vec::new();
        for (s_i, h_i) in sampled {
            for x in s_i {
                if !in_sample[x] {
                    in_sample[x] = true;
                    additions.push(x);
                }
            }
            pivot_candidates.extend(h_i);
        }
        sample.extend(additions.iter().copied());

        // ---- Round 2 (lines 5-6): a single reducer runs Select(H, S).
        let phi = config.phi;
        let additions_ref: &[PointId] = &additions;
        let dist_ref: &[S] = &dist_to_sample;
        let round2_label = format!(
            "{label_prefix}EIM iteration {} round 2: Select(H, S)",
            iterations + 1
        );
        let round2_reduce = |_: usize, h: &[PointId]| {
            let with_dist: Vec<(PointId, S)> = h
                .iter()
                .map(|&x| {
                    (
                        x,
                        distance_with_additions(space, x, dist_ref[x], additions_ref),
                    )
                })
                .collect();
            select_pivot(&with_dist, phi, n)
        };
        let round2_count = |p: &Option<(PointId, S)>| usize::from(p.is_some());
        // A one-partition round rather than `run_single`: a dead Select
        // round loses only the pivot, never any points, so degrade mode may
        // drop it and the iteration simply filters nothing beyond the
        // sampled set.
        let mut pivot = cluster.run_round(
            &round2_label,
            &[pivot_candidates],
            round2_reduce,
            round2_count,
        )?;
        let pivot = pivot.pop().flatten().flatten();

        // ---- Round 3 (lines 7-9): drop points no farther than the pivot.
        let pivot_distance = pivot.map(|(_, d)| d);
        let parts = partition::chunks(&remaining, config.machines);
        let in_sample_ref: &[bool] = &in_sample;
        let round3_label = format!(
            "{label_prefix}EIM iteration {} round 3: filter R",
            iterations + 1
        );
        let round3_reduce = |_: usize, chunk: &[PointId]| {
            chunk
                .iter()
                .filter_map(|&x| {
                    let d = distance_with_additions(space, x, dist_ref[x], additions_ref);
                    // Section 4.1 fixes: sampled points always leave R,
                    // and ties with the pivot distance are removed too.
                    if in_sample_ref[x] {
                        return None;
                    }
                    match pivot_distance {
                        Some(vd) if d <= vd => None,
                        _ => Some((x, d)),
                    }
                })
                .collect::<Vec<_>>()
        };
        let retained = cluster.run_round(&round3_label, &parts, round3_reduce, Vec::len)?;

        let mut next_remaining = Vec::with_capacity(remaining.len());
        for (part, output) in parts.iter().zip(retained) {
            let Some(kept) = output else {
                // The unsampled part of a dead filter chunk is lost: those
                // points are unrepresented and leave both R and the
                // coverage claim (the sampled part is in S and stays
                // covered).
                lost.extend(part.iter().copied().filter(|&x| !in_sample_ref[x]));
                continue;
            };
            for (x, d) in kept {
                dist_to_sample[x] = d;
                next_remaining.push(x);
            }
        }

        iterations += 1;
        if next_remaining.len() >= remaining.len() {
            // Nothing was removed: the Section 4.1 fixes make this
            // extremely unlikely, but a probabilistic loop still gets a
            // hard stop rather than spinning forever.
            remaining = next_remaining;
            break;
        }
        remaining = next_remaining;
    }

    Ok((
        SamplingPhase {
            sample,
            remaining,
            iterations,
            lost,
        },
        cluster,
    ))
}

/// Comparison-space `d(x, S ∪ additions)` given the cached value for `S`.
#[inline]
fn distance_with_additions<D: Distance, S: Scalar>(
    space: &VecSpace<D, S>,
    x: PointId,
    cached: S,
    additions: &[PointId],
) -> S {
    let (_, d) = space.nearest(x, additions);
    if d < cached {
        d
    } else {
        cached
    }
}

/// SplitMix64-style mixing used to derive per-iteration / per-machine seeds.
fn mix_seed(base: u64, stream: u64) -> u64 {
    let mut z = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The outcome of an EIM run.
#[derive(Debug, Clone, PartialEq)]
pub struct EimResult {
    /// The selected centers and their covering radius over the full space.
    pub solution: KCenterSolution,
    /// Number of iterations of the sampling loop (each costs three
    /// MapReduce rounds).  The paper observes one or two in practice.
    pub iterations: usize,
    /// Total MapReduce rounds: `3 · iterations + 1` (the final clean-up).
    pub mapreduce_rounds: usize,
    /// Size of the sample `C = S ∪ R` handed to the final sequential round.
    pub sample_size: usize,
    /// Whether the threshold was already satisfied at the start, i.e. no
    /// sampling happened and the algorithm degenerated to the sequential
    /// solver on the whole input (Figures 3b / 4b in the paper).
    pub fell_back_to_sequential: bool,
    /// The φ that was used.
    pub phi: f64,
    /// The ε that was used.
    pub epsilon: f64,
    /// Per-round cost accounting.
    pub stats: JobStats,
    /// `Some` iff degrade mode dropped at least one shard.  The solution's
    /// radius is then a certificate over `covered_points` surviving points
    /// only, and the probabilistic 10-approximation guarantee no longer
    /// applies — the radius is honest (directly measured over the
    /// survivors) but the a-priori bound is void.
    pub degraded: Option<DegradedRun>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gonzalez::GonzalezConfig;
    use kcenter_metric::{Point, SquaredEuclidean, VecSpace};

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

    /// An EIM configuration whose threshold is small enough that sampling
    /// actually happens at test scale (ε near 1/ln n minimises the
    /// threshold (4/ε)·k·n^ε·log n).
    fn sampling_config(k: usize) -> EimConfig {
        EimConfig::new(k)
            .with_epsilon(0.13)
            .with_machines(8)
            .with_seed(1)
    }

    #[test]
    fn falls_back_to_sequential_when_k_is_large_relative_to_n() {
        // Threshold for n=500, k=25, eps=0.1 is far above 500, so the while
        // loop never runs — exactly the behaviour in Figures 3b and 4b.
        let space = cloud(500, 1);
        let result = EimConfig::new(25).with_machines(10).run(&space).unwrap();
        assert!(result.fell_back_to_sequential);
        assert_eq!(result.iterations, 0);
        assert_eq!(result.mapreduce_rounds, 1);
        assert_eq!(result.sample_size, 500);
        // With C = V the final round is just GON on everything.
        let gon = GonzalezConfig::new(25).solve(&space).unwrap();
        assert_eq!(result.solution.centers, gon.centers);
        assert_eq!(result.solution.radius, gon.radius);
    }

    #[test]
    fn sampling_kicks_in_for_small_k_and_shrinks_the_instance() {
        let space = cloud(4_000, 2);
        let config = sampling_config(1);
        assert!(
            config.sampling_threshold(4_000) < 4_000.0,
            "test setup: threshold must be below n"
        );
        let result = config.run(&space).unwrap();
        assert!(!result.fell_back_to_sequential);
        assert!(result.iterations >= 1);
        assert_eq!(result.mapreduce_rounds, 3 * result.iterations + 1);
        assert!(
            result.sample_size < 4_000,
            "sampling should shrink the instance"
        );
        assert_eq!(result.solution.centers.len(), 1);
        assert!(result.solution.radius.is_finite() && result.solution.radius > 0.0);
    }

    #[test]
    fn threaded_executor_reproduces_the_sampling_run_bit_for_bit() {
        let space = cloud(4_000, 2);
        let simulated = sampling_config(2).run(&space).unwrap();
        assert!(!simulated.fell_back_to_sequential);
        for threads in [1usize, 4] {
            let threaded = sampling_config(2)
                .with_executor(Executor::threads(threads))
                .run(&space)
                .unwrap();
            assert_eq!(threaded.solution.centers, simulated.solution.centers);
            assert_eq!(threaded.solution.radius, simulated.solution.radius);
            assert_eq!(threaded.iterations, simulated.iterations);
            assert_eq!(threaded.sample_size, simulated.sample_size);
        }
    }

    #[test]
    fn solution_quality_is_within_the_probabilistic_bound_of_the_baseline() {
        // EIM is a 10-approximation w.h.p. while GON is a 2-approximation,
        // so EIM's radius is at most 10·OPT ≤ 10·GON.  A violation would
        // indicate a real bug rather than bad luck.
        let space = cloud(4_000, 3);
        let gon = GonzalezConfig::new(3).solve(&space).unwrap();
        let eim = sampling_config(3).run(&space).unwrap();
        assert!(
            eim.solution.radius <= 10.0 * gon.radius + 1e-9,
            "EIM radius {} exceeds 10x the GON baseline {}",
            eim.solution.radius,
            gon.radius
        );
    }

    #[test]
    fn runs_are_deterministic_given_the_seed() {
        let space = cloud(3_000, 4);
        let a = sampling_config(2).with_seed(9).run(&space).unwrap();
        let b = sampling_config(2).with_seed(9).run(&space).unwrap();
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.sample_size, b.sample_size);
        let c = sampling_config(2).with_seed(10).run(&space).unwrap();
        // A different seed samples differently (the solution may or may not
        // coincide, but the sampled coreset almost surely differs).
        assert!(c.sample_size != a.sample_size || c.solution != a.solution);
    }

    #[test]
    fn phi_variants_all_produce_valid_solutions() {
        let space = cloud(3_000, 5);
        for phi in [1.0, 4.0, 6.0, 8.0] {
            let result = sampling_config(2).with_phi(phi).run(&space).unwrap();
            assert_eq!(result.phi, phi);
            assert_eq!(result.solution.centers.len(), 2);
            assert!(result.solution.radius.is_finite());
        }
    }

    #[test]
    fn smaller_phi_never_increases_the_sample_kept_per_iteration() {
        // Statistically, a smaller phi cuts deeper each iteration, so the
        // total work (items shuffled into round-3 reducers) should not grow.
        let space = cloud(4_000, 6);
        let small = sampling_config(1).with_phi(1.0).run(&space).unwrap();
        let large = sampling_config(1).with_phi(8.0).run(&space).unwrap();
        assert!(
            small.stats.total_items_in() <= large.stats.total_items_in() * 2,
            "phi=1 should not process dramatically more items than phi=8"
        );
    }

    #[test]
    fn hochbaum_shmoys_final_round_is_supported() {
        let space = cloud(2_000, 7);
        let result = sampling_config(2)
            .with_solver(SequentialSolver::HochbaumShmoys)
            .run(&space)
            .unwrap();
        assert_eq!(result.solution.centers.len(), 2);
        assert!(result.solution.radius.is_finite());
    }

    #[test]
    fn rejects_invalid_parameters() {
        let space = cloud(100, 8);
        let empty = VecSpace::new(vec![]);
        assert_eq!(
            EimConfig::new(2).run(&empty).unwrap_err(),
            KCenterError::EmptyInput
        );
        assert_eq!(
            EimConfig::new(0).run(&space).unwrap_err(),
            KCenterError::ZeroK
        );
        assert!(matches!(
            EimConfig::new(2).with_epsilon(0.0).run(&space).unwrap_err(),
            KCenterError::InvalidParameter {
                name: "epsilon",
                ..
            }
        ));
        assert!(matches!(
            EimConfig::new(2).with_epsilon(1.5).run(&space).unwrap_err(),
            KCenterError::InvalidParameter {
                name: "epsilon",
                ..
            }
        ));
        assert!(matches!(
            EimConfig::new(2).with_phi(0.0).run(&space).unwrap_err(),
            KCenterError::InvalidParameter { name: "phi", .. }
        ));
        assert!(matches!(
            EimConfig::new(2).with_machines(0).run(&space).unwrap_err(),
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
            EimConfig::new(1).run(&sq).unwrap_err(),
            KCenterError::NotAMetric { .. }
        ));
    }

    #[test]
    fn round_accounting_matches_the_three_rounds_per_iteration_structure() {
        let space = cloud(3_000, 9);
        let result = sampling_config(1).run(&space).unwrap();
        assert_eq!(result.stats.num_rounds(), result.mapreduce_rounds);
        // Round labels follow the iteration structure.
        let labels: Vec<&str> = result
            .stats
            .rounds()
            .iter()
            .map(|r| r.label.as_str())
            .collect();
        assert!(labels[0].contains("round 1"));
        assert!(labels[1].contains("round 2"));
        assert!(labels[2].contains("round 3"));
        assert!(labels.last().unwrap().contains("final"));
    }

    #[test]
    fn eventually_succeeding_faults_leave_the_result_bit_identical() {
        use kcenter_mapreduce::{FaultConfig, FaultPlan};
        let space = cloud(4_000, 10);
        let clean = sampling_config(2).run(&space).unwrap();
        // Seeded chaos at the default rates with a deep attempt budget:
        // every partition eventually succeeds, so the solution must be
        // bit-identical and only the accounting may differ.
        let faults = FaultConfig::new(FaultPlan::seeded(77)).with_max_attempts(64);
        let faulty = sampling_config(2).with_faults(faults).run(&space).unwrap();
        assert_eq!(faulty.solution, clean.solution);
        assert_eq!(faulty.iterations, clean.iterations);
        assert_eq!(faulty.sample_size, clean.sample_size);
        assert!(faulty.degraded.is_none());
        assert!(
            !faulty.stats.fault_summary().is_quiet(),
            "the seeded plan should have injected something at these rates"
        );
    }

    #[test]
    fn degrade_mode_survives_a_dead_filter_shard_with_partial_coverage() {
        use kcenter_mapreduce::{FaultConfig, FaultKind, FaultPlan, ScheduledFault};
        let space = cloud(4_000, 11);
        // Round index 2 is the first iteration's round 3 (filter R): kill
        // machine 0 there on every attempt.
        let plan = FaultPlan::explicit(
            (0..3)
                .map(|attempt| ScheduledFault {
                    round: 2,
                    machine: 0,
                    attempt,
                    kind: FaultKind::Crash,
                })
                .collect(),
        );
        let faults = FaultConfig::new(plan)
            .with_max_attempts(3)
            .with_degrade(true);
        let result = sampling_config(2).with_faults(faults).run(&space).unwrap();
        let degraded = result.degraded.expect("the run must be marked degraded");
        assert_eq!(degraded.total_points, 4_000);
        assert!(degraded.covered_points < 4_000);
        assert!(degraded.coverage_fraction() < 1.0);
        assert_eq!(degraded.dropped_shards.len(), 1);
        assert_eq!(degraded.dropped_shards[0].round, 2);
        assert_eq!(result.stats.fault_summary().shards_dropped, 1);
        assert!(result.solution.radius.is_finite());
    }

    #[test]
    fn sampling_threshold_formula_matches_the_paper() {
        let config = EimConfig::new(10); // eps = 0.1
        let n = 10_000usize;
        let expected = (4.0 / 0.1) * 10.0 * (n as f64).powf(0.1) * (n as f64).ln();
        assert!((config.sampling_threshold(n) - expected).abs() < 1e-9);
    }
}
