//! The theoretical comparison of Table 1 as executable formulas.
//!
//! | Algorithm | α | Rounds | Runtime |
//! |-----------|---|--------|---------|
//! | GON       | 2 | n/a    | `k·n` |
//! | MRG       | 4 | 2      | `k·n/m + k²·m` |
//! | EIM       | 10| O(1/ε) | `k·n^(1+ε)·log n / (m·(1 − n^(−ε))²)` |
//!
//! The functions below evaluate the dominant-term operation counts so the
//! `repro table1` command can print the table, benches can check predicted
//! speed-ups, and tests can verify the qualitative relations the paper
//! derives in Section 5 (e.g. "we expect EIM to be slower than MRG by a
//! factor of `n^ε (1 − n^(−ε))^(−2) log n`").

/// How many MapReduce rounds an algorithm needs, as reported in Table 1.
#[derive(Debug, Clone, PartialEq)]
pub enum RoundCount {
    /// Not applicable (sequential algorithm).
    NotApplicable,
    /// A fixed constant number of rounds.
    Constant(u32),
    /// Asymptotic description, e.g. `O(1/ε)`.
    Order(String),
}

impl std::fmt::Display for RoundCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoundCount::NotApplicable => write!(f, "n/a"),
            RoundCount::Constant(c) => write!(f, "{c}"),
            RoundCount::Order(o) => write!(f, "{o}"),
        }
    }
}

/// One row of Table 1, instantiated for concrete `n`, `k`, `m`, `ε`.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmProfile {
    /// Algorithm name as used in the paper.
    pub name: &'static str,
    /// Worst-case approximation factor α.
    pub approximation: f64,
    /// Round count column.
    pub rounds: RoundCount,
    /// The asymptotic runtime expression, as written in the paper.
    pub runtime_expression: &'static str,
    /// The dominant-term operation count for the given parameters.
    pub predicted_operations: f64,
}

/// Dominant-term operation count of sequential GON: `k·n`.
pub fn gon_operations(n: usize, k: usize) -> f64 {
    k as f64 * n as f64
}

/// Dominant-term operation count of MRG: `k·n/m + k²·m` (Section 5.1).
pub fn mrg_operations(n: usize, k: usize, m: usize) -> f64 {
    assert!(m > 0, "machine count must be positive");
    k as f64 * n as f64 / m as f64 + (k as f64) * (k as f64) * m as f64
}

/// Dominant-term operation count of EIM's round 3 (Section 5.2):
/// `k·n^(1+ε)·log n / (m·(1 − n^(−ε))²)`.
pub fn eim_operations(n: usize, k: usize, m: usize, epsilon: f64) -> f64 {
    assert!(m > 0, "machine count must be positive");
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must lie in (0, 1)");
    let nf = (n.max(2)) as f64;
    let shrink = 1.0 - nf.powf(-epsilon);
    k as f64 * nf.powf(1.0 + epsilon) * nf.ln() / (m as f64 * shrink * shrink)
}

/// The factor by which the paper expects EIM to be slower than MRG when the
/// `k·n/m` term dominates MRG: `n^ε·(1 − n^(−ε))^(−2)·log n` (Section 5.2).
pub fn eim_over_mrg_slowdown(n: usize, epsilon: f64) -> f64 {
    let nf = (n.max(2)) as f64;
    let shrink = 1.0 - nf.powf(-epsilon);
    nf.powf(epsilon) * nf.ln() / (shrink * shrink)
}

/// All three rows of Table 1 for the given parameters.
pub fn table1(n: usize, k: usize, m: usize, epsilon: f64) -> Vec<AlgorithmProfile> {
    vec![
        AlgorithmProfile {
            name: "GON",
            approximation: 2.0,
            rounds: RoundCount::NotApplicable,
            runtime_expression: "k*n",
            predicted_operations: gon_operations(n, k),
        },
        AlgorithmProfile {
            name: "MRG",
            approximation: 4.0,
            rounds: RoundCount::Constant(2),
            runtime_expression: "k*n/m + k^2*m",
            predicted_operations: mrg_operations(n, k, m),
        },
        AlgorithmProfile {
            name: "EIM",
            approximation: 10.0,
            rounds: RoundCount::Order("O(1/eps)".to_string()),
            runtime_expression: "k*n^(1+eps)*log n / (m*(1-n^-eps)^2)",
            predicted_operations: eim_operations(n, k, m, epsilon),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gon_is_linear_in_both_k_and_n() {
        assert_eq!(gon_operations(1_000, 10), 10_000.0);
        assert_eq!(gon_operations(2_000, 10), 20_000.0);
        assert_eq!(gon_operations(1_000, 20), 20_000.0);
    }

    #[test]
    fn mrg_has_both_terms() {
        // k*n/m = 10*10000/50 = 2000, k^2*m = 100*50 = 5000.
        assert_eq!(mrg_operations(10_000, 10, 50), 7_000.0);
    }

    #[test]
    fn mrg_is_much_cheaper_than_gon_for_large_n() {
        let n = 1_000_000;
        let k = 25;
        let m = 50;
        assert!(mrg_operations(n, k, m) * 10.0 < gon_operations(n, k));
    }

    #[test]
    fn mrg_k_squared_term_dominates_for_small_n_large_k() {
        // The paper explains Figure 4b with this: for large k and small n the
        // k²·m term dominates.
        let small_n = mrg_operations(10_000, 100, 50);
        let k_term = 100.0 * 100.0 * 50.0;
        assert!(k_term / small_n > 0.7);
        // For n = 1M the linear term dominates instead.
        let large_n = mrg_operations(1_000_000, 100, 50);
        let linear = 100.0 * 1_000_000.0 / 50.0;
        assert!(linear / large_n > 0.7);
    }

    #[test]
    fn eim_is_slower_than_both_gon_and_mrg_at_paper_scale() {
        // Section 5 and Table 1: at n = 1M, eps = 0.1, m = 50, EIM's
        // dominant round exceeds even the sequential baseline.
        let n = 1_000_000;
        let k = 25;
        let m = 50;
        let eim = eim_operations(n, k, m, 0.1);
        assert!(eim > mrg_operations(n, k, m));
        assert!(eim > gon_operations(n, k));
    }

    #[test]
    fn slowdown_factor_matches_ratio_of_dominant_terms() {
        let n = 1_000_000;
        let k = 10;
        let m = 50;
        let ratio = eim_operations(n, k, m, 0.1) / (k as f64 * n as f64 / m as f64);
        let predicted = eim_over_mrg_slowdown(n, 0.1);
        assert!((ratio - predicted).abs() / predicted < 1e-9);
        // The paper's "about 100 times faster" claim is the right order of
        // magnitude: the factor lies between 10 and 1000 at paper scale.
        assert!(predicted > 10.0 && predicted < 1_000.0);
    }

    #[test]
    fn table1_has_the_paper_rows() {
        let rows = table1(1_000_000, 25, 50, 0.1);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].name, "GON");
        assert_eq!(rows[0].approximation, 2.0);
        assert_eq!(rows[0].rounds, RoundCount::NotApplicable);
        assert_eq!(rows[1].name, "MRG");
        assert_eq!(rows[1].approximation, 4.0);
        assert_eq!(rows[1].rounds, RoundCount::Constant(2));
        assert_eq!(rows[2].name, "EIM");
        assert_eq!(rows[2].approximation, 10.0);
        assert!(matches!(rows[2].rounds, RoundCount::Order(_)));
        assert!(rows.iter().all(|r| r.predicted_operations > 0.0));
    }

    #[test]
    fn round_count_display() {
        assert_eq!(RoundCount::NotApplicable.to_string(), "n/a");
        assert_eq!(RoundCount::Constant(2).to_string(), "2");
        assert_eq!(RoundCount::Order("O(1/eps)".into()).to_string(), "O(1/eps)");
    }

    #[test]
    #[should_panic(expected = "epsilon must lie in (0, 1)")]
    fn eim_operations_rejects_bad_epsilon() {
        eim_operations(100, 2, 5, 1.0);
    }

    #[test]
    #[should_panic(expected = "machine count must be positive")]
    fn mrg_operations_rejects_zero_machines() {
        mrg_operations(100, 2, 0);
    }
}
