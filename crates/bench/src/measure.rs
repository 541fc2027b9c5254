//! Running one algorithm on one data set and recording the paper's metrics.

use kcenter_core::prelude::*;
use kcenter_metric::VecSpace;
use std::time::Instant;

/// The algorithm families compared throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// Sequential Gonzalez baseline (2-approximation).
    Gon,
    /// MapReduce Gonzalez (typically two rounds, 4-approximation).
    Mrg,
    /// The iterative-sampling algorithm with the given pivot parameter φ
    /// (φ = 8 reproduces the original Ene et al. scheme).
    Eim {
        /// The pivot-rank parameter.
        phi: f64,
    },
}

impl Algorithm {
    /// The label used in the paper's tables and figures.
    pub fn label(&self) -> String {
        match self {
            Algorithm::Gon => "GON".to_string(),
            Algorithm::Mrg => "MRG".to_string(),
            Algorithm::Eim { phi } if (*phi - 8.0).abs() < 1e-9 => "EIM".to_string(),
            Algorithm::Eim { phi } => format!("EIM(phi={phi})"),
        }
    }

    /// The three algorithms as compared in Tables 2–5 and Figures 1–4.
    pub fn paper_trio() -> Vec<Algorithm> {
        vec![Algorithm::Mrg, Algorithm::Eim { phi: 8.0 }, Algorithm::Gon]
    }
}

/// One measurement: an algorithm run on a concrete instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Algorithm label (e.g. `"MRG"`).
    pub algorithm: String,
    /// Number of points in the instance.
    pub n: usize,
    /// Number of centers requested.
    pub k: usize,
    /// The paper's *solution value*: the covering radius.
    pub value: f64,
    /// The paper's *runtime* metric in seconds: for the parallel algorithms
    /// the sum over rounds of the slowest machine's processing time, for
    /// GON its sequential wall clock.
    pub runtime_seconds: f64,
    /// Real wall-clock seconds of the (rayon-parallel) execution.
    pub wall_seconds: f64,
    /// Number of MapReduce rounds (0 for the sequential baseline).
    pub mapreduce_rounds: usize,
    /// EIM only: whether sampling never ran because `n` was already below
    /// the loop threshold.
    pub fell_back_to_sequential: bool,
}

/// Shared knobs for a measurement run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasureConfig {
    /// Number of simulated machines (the paper uses 50).
    pub machines: usize,
    /// Sampling / seeding for algorithm-internal randomness.
    pub seed: u64,
    /// EIM's ε (the paper uses 0.1).
    pub epsilon: f64,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        Self {
            machines: 50,
            seed: 0,
            epsilon: 0.1,
        }
    }
}

/// Runs `algorithm` with `k` centers on `space` and records the metrics.
///
/// # Panics
///
/// Panics if the underlying algorithm reports an error (the harness always
/// builds valid configurations, so an error indicates a bug worth failing
/// loudly on).
pub fn run(space: &VecSpace, algorithm: Algorithm, k: usize, config: MeasureConfig) -> Measurement {
    let n = space.len();
    match algorithm {
        Algorithm::Gon => {
            let start = Instant::now();
            let sol = GonzalezConfig::new(k)
                .solve(space)
                .expect("GON failed on a harness-generated instance");
            let elapsed = start.elapsed().as_secs_f64();
            Measurement {
                algorithm: algorithm.label(),
                n,
                k,
                value: sol.radius,
                runtime_seconds: elapsed,
                wall_seconds: elapsed,
                mapreduce_rounds: 0,
                fell_back_to_sequential: false,
            }
        }
        Algorithm::Mrg => {
            let result = MrgConfig::new(k)
                .with_machines(config.machines)
                .with_unchecked_capacity()
                .with_first_center(FirstCenter::Seeded(config.seed))
                .run(space)
                .expect("MRG failed on a harness-generated instance");
            Measurement {
                algorithm: algorithm.label(),
                n,
                k,
                value: result.solution.radius,
                runtime_seconds: result.stats.simulated_time().as_secs_f64(),
                wall_seconds: result.stats.wall_time().as_secs_f64(),
                mapreduce_rounds: result.mapreduce_rounds,
                fell_back_to_sequential: false,
            }
        }
        Algorithm::Eim { phi } => {
            let result = EimConfig::new(k)
                .with_machines(config.machines)
                .with_epsilon(config.epsilon)
                .with_phi(phi)
                .with_seed(config.seed)
                .with_first_center(FirstCenter::Seeded(config.seed))
                .run(space)
                .expect("EIM failed on a harness-generated instance");
            Measurement {
                algorithm: algorithm.label(),
                n,
                k,
                value: result.solution.radius,
                runtime_seconds: result.stats.simulated_time().as_secs_f64(),
                wall_seconds: result.stats.wall_time().as_secs_f64(),
                mapreduce_rounds: result.mapreduce_rounds,
                fell_back_to_sequential: result.fell_back_to_sequential,
            }
        }
    }
}

/// Runs the same configuration over several seeds and averages value and
/// runtime — the paper averages multiple runs over multiple generated
/// graphs.
pub fn run_averaged(
    space: &VecSpace,
    algorithm: Algorithm,
    k: usize,
    base_config: MeasureConfig,
    repeats: usize,
) -> Measurement {
    assert!(repeats > 0, "at least one repeat is required");
    let mut acc: Option<Measurement> = None;
    for r in 0..repeats {
        let config = MeasureConfig {
            seed: base_config.seed.wrapping_add(r as u64),
            ..base_config
        };
        let m = run(space, algorithm, k, config);
        acc = Some(match acc {
            None => m,
            Some(prev) => Measurement {
                value: prev.value + m.value,
                runtime_seconds: prev.runtime_seconds + m.runtime_seconds,
                wall_seconds: prev.wall_seconds + m.wall_seconds,
                mapreduce_rounds: prev.mapreduce_rounds.max(m.mapreduce_rounds),
                fell_back_to_sequential: prev.fell_back_to_sequential || m.fell_back_to_sequential,
                ..prev
            },
        });
    }
    let mut out = acc.expect("repeats > 0");
    out.value /= repeats as f64;
    out.runtime_seconds /= repeats as f64;
    out.wall_seconds /= repeats as f64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcenter_data::{DatasetSpec, PointGenerator, UnifGenerator};

    fn small_space() -> VecSpace {
        VecSpace::from_flat(UnifGenerator::new(400).generate_flat(1))
    }

    #[test]
    fn labels_match_the_paper() {
        assert_eq!(Algorithm::Gon.label(), "GON");
        assert_eq!(Algorithm::Mrg.label(), "MRG");
        assert_eq!(Algorithm::Eim { phi: 8.0 }.label(), "EIM");
        assert_eq!(Algorithm::Eim { phi: 4.0 }.label(), "EIM(phi=4)");
        assert_eq!(Algorithm::paper_trio().len(), 3);
    }

    #[test]
    fn all_three_algorithms_produce_comparable_values() {
        let space = small_space();
        let config = MeasureConfig {
            machines: 8,
            ..Default::default()
        };
        let measurements: Vec<Measurement> = Algorithm::paper_trio()
            .into_iter()
            .map(|a| run(&space, a, 5, config))
            .collect();
        for m in &measurements {
            assert_eq!(m.k, 5);
            assert_eq!(m.n, 400);
            assert!(m.value.is_finite() && m.value > 0.0);
            assert!(m.runtime_seconds >= 0.0);
        }
        // All three are constant-factor approximations of the same optimum,
        // so their values are within a factor of 10 of one another.
        let max = measurements.iter().map(|m| m.value).fold(0.0, f64::max);
        let min = measurements
            .iter()
            .map(|m| m.value)
            .fold(f64::INFINITY, f64::min);
        assert!(
            max / min < 10.0,
            "values diverge implausibly: {min} vs {max}"
        );
    }

    #[test]
    fn mrg_reports_mapreduce_rounds_gon_does_not() {
        let space = small_space();
        let config = MeasureConfig {
            machines: 8,
            ..Default::default()
        };
        let gon = run(&space, Algorithm::Gon, 3, config);
        let mrg = run(&space, Algorithm::Mrg, 3, config);
        assert_eq!(gon.mapreduce_rounds, 0);
        assert!(mrg.mapreduce_rounds >= 1);
    }

    #[test]
    fn averaging_reduces_to_single_run_for_one_repeat() {
        let space = small_space();
        let config = MeasureConfig {
            machines: 4,
            ..Default::default()
        };
        let a = run(&space, Algorithm::Mrg, 4, config);
        let b = run_averaged(&space, Algorithm::Mrg, 4, config, 1);
        assert_eq!(a.value, b.value);
    }

    #[test]
    fn averaged_measurements_average_the_value() {
        let space = VecSpace::from_flat(DatasetSpec::Gau { n: 600, k_prime: 4 }.generate_flat(3));
        let config = MeasureConfig {
            machines: 4,
            ..Default::default()
        };
        let avg = run_averaged(&space, Algorithm::Eim { phi: 8.0 }, 4, config, 3);
        assert!(avg.value.is_finite() && avg.value > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one repeat")]
    fn zero_repeats_is_rejected() {
        run_averaged(
            &small_space(),
            Algorithm::Gon,
            2,
            MeasureConfig::default(),
            0,
        );
    }
}
