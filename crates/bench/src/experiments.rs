//! The experiment registry: one entry per table and figure in the paper.
//!
//! | id | paper content | workload |
//! |----|---------------|----------|
//! | `table1`  | theoretical comparison | analytic |
//! | `table2`  | solution value vs k | GAU n=1M, k'=25 |
//! | `table3`  | solution value vs k | UNIF n=100k |
//! | `table4`  | solution value vs k | UNB n=200k, k'=25 |
//! | `table5`  | solution value vs k | Poker Hand (simulated) |
//! | `table6`  | EIM value vs φ | GAU n=200k, k'=25 |
//! | `table7`  | EIM runtime vs φ | GAU n=200k, k'=25 |
//! | `figure1` | solution value vs k | KDD Cup 1999 (simulated) |
//! | `figure2a`| runtime vs k | GAU n=1M, k'=25 |
//! | `figure2b`| runtime vs k | UNIF n=100k |
//! | `figure3a`| runtime vs k | GAU n=1M, k'=50 |
//! | `figure3b`| runtime vs k | GAU n=50k, k'=50 |
//! | `figure4a`| runtime vs n (10k–1M) | UNIF, k=10 |
//! | `figure4b`| runtime vs n (10k–1M) | UNIF, k=100 |
//!
//! Every experiment accepts a *scale factor* so the paper-sized workloads
//! (up to a million points) can be shrunk proportionally for CI runs while
//! keeping the same shape; `scale = 1.0` reproduces the published sizes.

use crate::measure::{run_averaged, Algorithm, MeasureConfig, Measurement};
use kcenter_core::cost_model;
use kcenter_data::DatasetSpec;

/// The values of `k` used by the paper's tables (Tables 2–7).
pub const TABLE_KS: [usize; 6] = [2, 5, 10, 25, 50, 100];

/// The values of `k` sampled for the runtime figures (the paper plots a
/// dense range from 0 to 100; these are the sampled grid points).
pub const FIGURE_KS: [usize; 6] = [2, 5, 10, 25, 50, 100];

/// The φ values of Tables 6 and 7.
pub const PHIS: [f64; 4] = [1.0, 4.0, 6.0, 8.0];

/// The n sweep of Figure 4 (10,000 through 1,000,000).
pub const FIGURE4_NS: [usize; 5] = [10_000, 50_000, 100_000, 500_000, 1_000_000];

/// What an experiment measures.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentKind {
    /// Print the theoretical comparison (Table 1).
    Theory,
    /// Sweep k and report the solution value of MRG / EIM / GON.
    SolutionValueVsK {
        /// The workload.
        spec: DatasetSpec,
        /// The k values to sweep.
        ks: Vec<usize>,
    },
    /// Sweep k and report the runtime of MRG / EIM / GON.
    RuntimeVsK {
        /// The workload.
        spec: DatasetSpec,
        /// The k values to sweep.
        ks: Vec<usize>,
    },
    /// Sweep n at fixed k and report runtimes (Figure 4).
    RuntimeVsN {
        /// The workloads, one per n.
        specs: Vec<DatasetSpec>,
        /// The fixed k.
        k: usize,
    },
    /// Sweep φ (and k) for EIM only, reporting the solution value (Table 6)
    /// or the runtime (Table 7).
    PhiSweep {
        /// The workload.
        spec: DatasetSpec,
        /// The k values to sweep.
        ks: Vec<usize>,
        /// The φ values to sweep.
        phis: Vec<f64>,
        /// `true` to report runtimes, `false` to report solution values.
        report_runtime: bool,
    },
}

/// One experiment of the paper's evaluation section.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// Identifier used on the `repro` command line (e.g. `"table2"`).
    pub id: &'static str,
    /// Human-readable description, quoting the paper's caption.
    pub title: &'static str,
    /// What to run.
    pub kind: ExperimentKind,
}

/// A single row of an experiment result (one k / n / φ configuration).
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// The sweep coordinate (`k`, `n`, or `φ` rendered as text).
    pub coordinate: String,
    /// One measurement per algorithm column.
    pub measurements: Vec<Measurement>,
}

/// The outcome of running one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// The experiment id.
    pub id: String,
    /// The experiment title.
    pub title: String,
    /// Column headers (algorithm labels, or φ values for the φ sweeps).
    pub columns: Vec<String>,
    /// Whether the cells hold runtimes (seconds) rather than solution
    /// values.
    pub is_runtime: bool,
    /// The rows, in sweep order.
    pub rows: Vec<ResultRow>,
    /// The scale factor the workloads were shrunk by (1.0 = paper size).
    pub scale: f64,
}

/// Execution options for the experiment runner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Workload scale factor (1.0 reproduces the paper's sizes).
    pub scale: f64,
    /// Number of simulated machines (the paper uses 50).
    pub machines: usize,
    /// Number of runs to average per configuration.
    pub repeats: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            scale: 1.0,
            machines: 50,
            repeats: 1,
            seed: 1,
        }
    }
}

/// All experiments of the paper's evaluation, in presentation order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            title: "Table 1: theoretical comparison of the algorithms",
            kind: ExperimentKind::Theory,
        },
        Experiment {
            id: "table2",
            title: "Table 2: solution value over k for GAU (n = 1,000,000, k' = 25)",
            kind: ExperimentKind::SolutionValueVsK {
                spec: DatasetSpec::Gau {
                    n: 1_000_000,
                    k_prime: 25,
                },
                ks: TABLE_KS.to_vec(),
            },
        },
        Experiment {
            id: "table3",
            title: "Table 3: solution value over k for UNIF (n = 100,000)",
            kind: ExperimentKind::SolutionValueVsK {
                spec: DatasetSpec::Unif { n: 100_000 },
                ks: TABLE_KS.to_vec(),
            },
        },
        Experiment {
            id: "table4",
            title: "Table 4: solution value over k for UNB (n = 200,000, k' = 25)",
            kind: ExperimentKind::SolutionValueVsK {
                spec: DatasetSpec::Unb {
                    n: 200_000,
                    k_prime: 25,
                },
                ks: TABLE_KS.to_vec(),
            },
        },
        Experiment {
            id: "table5",
            title: "Table 5: solution value over k for the POKER HAND data set",
            kind: ExperimentKind::SolutionValueVsK {
                spec: DatasetSpec::PokerHand { n: 25_010 },
                ks: TABLE_KS.to_vec(),
            },
        },
        Experiment {
            id: "table6",
            title: "Table 6: average EIM solution value over phi for GAU (n = 200,000, k' = 25)",
            kind: ExperimentKind::PhiSweep {
                spec: DatasetSpec::Gau {
                    n: 200_000,
                    k_prime: 25,
                },
                ks: TABLE_KS.to_vec(),
                phis: PHIS.to_vec(),
                report_runtime: false,
            },
        },
        Experiment {
            id: "table7",
            title: "Table 7: average EIM runtime over phi for GAU (n = 200,000, k' = 25)",
            kind: ExperimentKind::PhiSweep {
                spec: DatasetSpec::Gau {
                    n: 200_000,
                    k_prime: 25,
                },
                ks: TABLE_KS.to_vec(),
                phis: PHIS.to_vec(),
                report_runtime: true,
            },
        },
        Experiment {
            id: "figure1",
            title: "Figure 1: solution values over k on KDD CUP 1999 (10% sample)",
            kind: ExperimentKind::SolutionValueVsK {
                spec: DatasetSpec::KddCup { n: 494_021 },
                ks: FIGURE_KS.to_vec(),
            },
        },
        Experiment {
            id: "figure2a",
            title: "Figure 2a: runtimes over k, GAU (n = 1,000,000, k' = 25)",
            kind: ExperimentKind::RuntimeVsK {
                spec: DatasetSpec::Gau {
                    n: 1_000_000,
                    k_prime: 25,
                },
                ks: FIGURE_KS.to_vec(),
            },
        },
        Experiment {
            id: "figure2b",
            title: "Figure 2b: runtimes over k, UNIF (n = 100,000)",
            kind: ExperimentKind::RuntimeVsK {
                spec: DatasetSpec::Unif { n: 100_000 },
                ks: FIGURE_KS.to_vec(),
            },
        },
        Experiment {
            id: "figure3a",
            title: "Figure 3a: runtimes over k, GAU (n = 1,000,000, k' = 50)",
            kind: ExperimentKind::RuntimeVsK {
                spec: DatasetSpec::Gau {
                    n: 1_000_000,
                    k_prime: 50,
                },
                ks: FIGURE_KS.to_vec(),
            },
        },
        Experiment {
            id: "figure3b",
            title: "Figure 3b: runtimes over k, GAU (n = 50,000, k' = 50)",
            kind: ExperimentKind::RuntimeVsK {
                spec: DatasetSpec::Gau {
                    n: 50_000,
                    k_prime: 50,
                },
                ks: FIGURE_KS.to_vec(),
            },
        },
        Experiment {
            id: "figure4a",
            title: "Figure 4a: runtimes over n (10k to 1M), k = 10, UNIF",
            kind: ExperimentKind::RuntimeVsN {
                specs: FIGURE4_NS
                    .iter()
                    .map(|&n| DatasetSpec::Unif { n })
                    .collect(),
                k: 10,
            },
        },
        Experiment {
            id: "figure4b",
            title: "Figure 4b: runtimes over n (10k to 1M), k = 100, UNIF",
            kind: ExperimentKind::RuntimeVsN {
                specs: FIGURE4_NS
                    .iter()
                    .map(|&n| DatasetSpec::Unif { n })
                    .collect(),
                k: 100,
            },
        },
    ]
}

/// Looks an experiment up by id.
pub fn find_experiment(id: &str) -> Option<Experiment> {
    all_experiments().into_iter().find(|e| e.id == id)
}

/// Runs one experiment and collects its result rows.
pub fn run_experiment(experiment: &Experiment, options: RunOptions) -> ExperimentResult {
    assert!(options.scale > 0.0, "scale must be positive");
    assert!(options.repeats > 0, "at least one repeat is required");
    let config = MeasureConfig {
        machines: options.machines,
        seed: options.seed,
        epsilon: 0.1,
    };

    match &experiment.kind {
        ExperimentKind::Theory => theory_result(experiment, options),
        ExperimentKind::SolutionValueVsK { spec, ks } => {
            sweep_k(experiment, spec, ks, false, config, options)
        }
        ExperimentKind::RuntimeVsK { spec, ks } => {
            sweep_k(experiment, spec, ks, true, config, options)
        }
        ExperimentKind::RuntimeVsN { specs, k } => {
            let columns: Vec<String> = Algorithm::paper_trio()
                .iter()
                .map(Algorithm::label)
                .collect();
            let mut rows = Vec::new();
            for spec in specs {
                let scaled = spec.scaled(options.scale);
                let dataset = scaled.build(options.seed);
                let measurements = Algorithm::paper_trio()
                    .into_iter()
                    .map(|a| run_averaged(&dataset.space, a, *k, config, options.repeats))
                    .collect();
                rows.push(ResultRow {
                    coordinate: format!("n={}", scaled.n()),
                    measurements,
                });
            }
            ExperimentResult {
                id: experiment.id.to_string(),
                title: experiment.title.to_string(),
                columns,
                is_runtime: true,
                rows,
                scale: options.scale,
            }
        }
        ExperimentKind::PhiSweep {
            spec,
            ks,
            phis,
            report_runtime,
        } => {
            let scaled = spec.scaled(options.scale);
            let dataset = scaled.build(options.seed);
            let columns: Vec<String> = phis.iter().map(|p| format!("phi={p}")).collect();
            let mut rows = Vec::new();
            for &k in ks {
                let measurements = phis
                    .iter()
                    .map(|&phi| {
                        run_averaged(
                            &dataset.space,
                            Algorithm::Eim { phi },
                            k,
                            config,
                            options.repeats,
                        )
                    })
                    .collect();
                rows.push(ResultRow {
                    coordinate: format!("k={k}"),
                    measurements,
                });
            }
            ExperimentResult {
                id: experiment.id.to_string(),
                title: experiment.title.to_string(),
                columns,
                is_runtime: *report_runtime,
                rows,
                scale: options.scale,
            }
        }
    }
}

fn sweep_k(
    experiment: &Experiment,
    spec: &DatasetSpec,
    ks: &[usize],
    is_runtime: bool,
    config: MeasureConfig,
    options: RunOptions,
) -> ExperimentResult {
    let scaled = spec.scaled(options.scale);
    let dataset = scaled.build(options.seed);
    let columns: Vec<String> = Algorithm::paper_trio()
        .iter()
        .map(Algorithm::label)
        .collect();
    let mut rows = Vec::new();
    for &k in ks {
        let measurements = Algorithm::paper_trio()
            .into_iter()
            .map(|a| run_averaged(&dataset.space, a, k, config, options.repeats))
            .collect();
        rows.push(ResultRow {
            coordinate: format!("k={k}"),
            measurements,
        });
    }
    ExperimentResult {
        id: experiment.id.to_string(),
        title: experiment.title.to_string(),
        columns,
        is_runtime,
        rows,
        scale: options.scale,
    }
}

/// Table 1 rendered as an [`ExperimentResult`]: the "measurements" carry the
/// predicted operation counts in place of measured runtimes.
fn theory_result(experiment: &Experiment, options: RunOptions) -> ExperimentResult {
    // Evaluate the formulas at the paper's headline configuration.
    let n = 1_000_000;
    let k = 25;
    let m = options.machines;
    let rows = cost_model::table1(n, k, m, 0.1)
        .into_iter()
        .map(|profile| ResultRow {
            coordinate: profile.name.to_string(),
            measurements: vec![Measurement {
                algorithm: profile.name.to_string(),
                n,
                k,
                value: profile.approximation,
                runtime_seconds: profile.predicted_operations,
                wall_seconds: profile.predicted_operations,
                mapreduce_rounds: match profile.rounds {
                    cost_model::RoundCount::Constant(c) => c as usize,
                    _ => 0,
                },
                fell_back_to_sequential: false,
            }],
        })
        .collect();
    ExperimentResult {
        id: experiment.id.to_string(),
        title: experiment.title.to_string(),
        columns: vec!["alpha / rounds / predicted ops".to_string()],
        is_runtime: false,
        rows,
        scale: options.scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_table_and_figure() {
        let ids: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
        for expected in [
            "table1", "table2", "table3", "table4", "table5", "table6", "table7", "figure1",
            "figure2a", "figure2b", "figure3a", "figure3b", "figure4a", "figure4b",
        ] {
            assert!(ids.contains(&expected), "missing experiment {expected}");
        }
        assert_eq!(ids.len(), 14);
    }

    #[test]
    fn find_experiment_by_id() {
        assert!(find_experiment("table4").is_some());
        assert!(find_experiment("nonexistent").is_none());
    }

    #[test]
    fn paper_parameters_match_the_evaluation_section() {
        let t2 = find_experiment("table2").unwrap();
        match t2.kind {
            ExperimentKind::SolutionValueVsK { spec, ks } => {
                assert_eq!(
                    spec,
                    DatasetSpec::Gau {
                        n: 1_000_000,
                        k_prime: 25
                    }
                );
                assert_eq!(ks, TABLE_KS.to_vec());
            }
            _ => panic!("table2 must be a solution-value sweep"),
        }
        let t7 = find_experiment("table7").unwrap();
        match t7.kind {
            ExperimentKind::PhiSweep {
                phis,
                report_runtime,
                ..
            } => {
                assert_eq!(phis, PHIS.to_vec());
                assert!(report_runtime);
            }
            _ => panic!("table7 must be a phi sweep"),
        }
        let f4b = find_experiment("figure4b").unwrap();
        match f4b.kind {
            ExperimentKind::RuntimeVsN { specs, k } => {
                assert_eq!(k, 100);
                assert_eq!(specs.len(), FIGURE4_NS.len());
            }
            _ => panic!("figure4b must be an n sweep"),
        }
    }

    #[test]
    fn theory_experiment_reproduces_table1_rows() {
        let exp = find_experiment("table1").unwrap();
        let result = run_experiment(&exp, RunOptions::default());
        assert_eq!(result.rows.len(), 3);
        assert_eq!(result.rows[0].coordinate, "GON");
        assert_eq!(result.rows[1].coordinate, "MRG");
        assert_eq!(result.rows[2].coordinate, "EIM");
        // Approximation factors in the value slot.
        assert_eq!(result.rows[0].measurements[0].value, 2.0);
        assert_eq!(result.rows[1].measurements[0].value, 4.0);
        assert_eq!(result.rows[2].measurements[0].value, 10.0);
    }

    #[test]
    fn tiny_scale_solution_value_sweep_runs_end_to_end() {
        let exp = find_experiment("table3").unwrap();
        let options = RunOptions {
            scale: 0.005,
            machines: 8,
            repeats: 1,
            seed: 2,
        };
        let result = run_experiment(&exp, options);
        assert_eq!(result.columns, vec!["MRG", "EIM", "GON"]);
        assert_eq!(result.rows.len(), TABLE_KS.len());
        for row in &result.rows {
            assert_eq!(row.measurements.len(), 3);
            for m in &row.measurements {
                assert!(m.value.is_finite());
                assert!(m.value >= 0.0);
            }
        }
        // Values decrease (weakly) as k grows, as in every paper table.
        let mrg_values: Vec<f64> = result
            .rows
            .iter()
            .map(|r| r.measurements[0].value)
            .collect();
        for w in mrg_values.windows(2) {
            assert!(
                w[1] <= w[0] * 1.5 + 1e-9,
                "values should broadly decrease with k"
            );
        }
    }

    #[test]
    fn tiny_scale_phi_sweep_runs_end_to_end() {
        let exp = find_experiment("table6").unwrap();
        let options = RunOptions {
            scale: 0.004,
            machines: 8,
            repeats: 1,
            seed: 3,
        };
        let result = run_experiment(&exp, options);
        assert_eq!(result.columns.len(), PHIS.len());
        assert_eq!(result.rows.len(), TABLE_KS.len());
        assert!(!result.is_runtime);
    }

    #[test]
    fn tiny_scale_runtime_vs_n_sweep_runs_end_to_end() {
        let exp = find_experiment("figure4a").unwrap();
        let options = RunOptions {
            scale: 0.002,
            machines: 8,
            repeats: 1,
            seed: 4,
        };
        let result = run_experiment(&exp, options);
        assert!(result.is_runtime);
        assert_eq!(result.rows.len(), FIGURE4_NS.len());
        // The sweep coordinate is n and grows monotonically.
        assert!(result.rows[0].coordinate.starts_with("n="));
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn run_experiment_rejects_bad_scale() {
        let exp = find_experiment("table2").unwrap();
        run_experiment(
            &exp,
            RunOptions {
                scale: 0.0,
                ..Default::default()
            },
        );
    }
}
