//! Surrogates for the paper's real (UCI) data sets.
//!
//! The paper evaluates on UCI Machine Learning Repository data sets, and
//! reports numbers for two of them:
//!
//! * the **Poker Hand** training set — 25,010 rows, each a hand of five
//!   cards encoded as 10 ordinal attributes (suit 1–4 and rank 1–13 per
//!   card), naively embedded in `R^10` with the Euclidean metric;
//! * the **KDD Cup 1999** 10 % sample — roughly 494 k network-connection
//!   records dominated by a few enormous traffic classes (`smurf`,
//!   `neptune`, `normal`) with heavy-tailed numeric features.
//!
//! We do not ship UCI files, so this module provides deterministic seeded
//! *surrogates* with the same schema and the same qualitative geometry.
//! They can be swapped for
//! the genuine files through [`crate::csv::load_flat`] without touching any
//! algorithm code.

use crate::rng::{derive_seed, normal, power_law, seeded, weighted_choice};
use crate::synthetic::generate_chunked;
use crate::PointGenerator;
use kcenter_metric::{FlatPoints, Scalar};
use rand::Rng;

/// Number of rows in the UCI Poker Hand training set.
pub const POKER_HAND_TRAINING_ROWS: usize = 25_010;

/// Number of rows in the KDD Cup 1999 10 % sample (approximately).
pub const KDD_CUP_10PCT_ROWS: usize = 494_021;

/// Surrogate for the Poker Hand training set: random poker deals encoded
/// exactly like the UCI file (5 × (suit ∈ {1..4}, rank ∈ {1..13})).
///
/// The geometry that matters for k-center — a low-cardinality integer grid
/// with no inherent cluster structure and a bounded diameter — is fully
/// determined by the schema, so random deals reproduce the qualitative
/// behaviour of Table 5 in the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct PokerHandSim {
    n: usize,
}

impl PokerHandSim {
    /// Surrogate with the UCI training-set row count (25,010).
    pub fn new() -> Self {
        Self {
            n: POKER_HAND_TRAINING_ROWS,
        }
    }

    /// Surrogate with a custom number of rows (useful for fast tests).
    pub fn with_rows(n: usize) -> Self {
        Self { n }
    }
}

impl Default for PokerHandSim {
    fn default() -> Self {
        Self::new()
    }
}

impl PointGenerator for PokerHandSim {
    fn generate_flat_at<S: Scalar>(&self, seed: u64) -> FlatPoints<S> {
        generate_chunked(self.n, 10, 8_192, seed, |_, rng, block| {
            // Five cards drawn without replacement from a 52-card deck,
            // encoded as (suit, rank) pairs like the UCI file.
            let mut deck: Vec<u8> = (0..52).collect();
            for _ in 0..5 {
                let idx = rng.gen_range(0..deck.len());
                let card = deck.swap_remove(idx);
                let suit = (card / 13) + 1; // 1..=4
                let rank = (card % 13) + 1; // 1..=13
                block.push(suit as f64);
                block.push(rank as f64);
            }
        })
    }

    fn len(&self) -> usize {
        self.n
    }

    fn dim(&self) -> usize {
        10
    }

    fn name(&self) -> String {
        format!("POKER-HAND-SIM(n={})", self.n)
    }
}

/// Traffic-class profile used by the KDD Cup surrogate.
#[derive(Debug, Clone, PartialEq)]
struct TrafficClass {
    /// Relative share of the rows belonging to this class.
    weight: f64,
    /// Mean feature vector scale of the class (per-dimension mean is drawn
    /// once per class from this scale).
    scale: f64,
    /// Within-class standard deviation relative to the scale.
    spread: f64,
}

/// Surrogate for the KDD Cup 1999 10 % sample.
///
/// The real sample is dominated by three enormous traffic classes (`smurf`
/// ~57 %, `neptune` ~22 %, `normal` ~20 %) plus a long tail of tiny attack
/// classes, with numeric features spanning many orders of magnitude.  The
/// surrogate reproduces exactly that shape: a handful of huge dense clusters,
/// a long tail of tiny ones, and heavy-tailed feature magnitudes.  This
/// extreme imbalance is what drives the qualitative behaviour of Figure 1
/// (objective collapsing once k exceeds the number of dominant classes, and
/// the sampling algorithm struggling relative to the synthetic data sets).
#[derive(Debug, Clone, PartialEq)]
pub struct KddCupSim {
    n: usize,
    dim: usize,
    classes: Vec<TrafficClass>,
}

impl KddCupSim {
    /// Full-size surrogate (~494k rows, 38 numeric dimensions).
    pub fn new() -> Self {
        Self::with_rows(KDD_CUP_10PCT_ROWS)
    }

    /// Surrogate with a custom row count (the class mix is preserved).
    pub fn with_rows(n: usize) -> Self {
        // Class shares modelled on the published composition of the 10 % sample.
        let classes = vec![
            TrafficClass {
                weight: 0.57,
                scale: 500.0,
                spread: 0.02,
            }, // smurf-like
            TrafficClass {
                weight: 0.22,
                scale: 2_000.0,
                spread: 0.02,
            }, // neptune-like
            TrafficClass {
                weight: 0.19,
                scale: 8_000.0,
                spread: 0.10,
            }, // normal-like
            TrafficClass {
                weight: 0.01,
                scale: 30_000.0,
                spread: 0.20,
            }, // satan/ipsweep-like
            TrafficClass {
                weight: 0.005,
                scale: 80_000.0,
                spread: 0.25,
            }, // portsweep-like
            TrafficClass {
                weight: 0.003,
                scale: 200_000.0,
                spread: 0.30,
            }, // rare attacks
            TrafficClass {
                weight: 0.002,
                scale: 600_000.0,
                spread: 0.40,
            }, // rarest / outliers
        ];
        Self {
            n,
            dim: 38,
            classes,
        }
    }

    /// Number of distinct traffic classes in the surrogate mixture.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }
}

impl Default for KddCupSim {
    fn default() -> Self {
        Self::new()
    }
}

impl PointGenerator for KddCupSim {
    fn generate_flat_at<S: Scalar>(&self, seed: u64) -> FlatPoints<S> {
        // Per-class per-dimension means are drawn once so every class forms a
        // dense cluster; the heavy-tailed magnitudes come from the power-law
        // scale of the rare classes.
        let mut class_rng = seeded(derive_seed(seed, u64::MAX - 1));
        let class_means: Vec<Vec<f64>> = self
            .classes
            .iter()
            .map(|c| {
                (0..self.dim)
                    .map(|_| power_law(&mut class_rng, 1.0, c.scale.max(2.0), 1.8))
                    .collect()
            })
            .collect();
        let weights: Vec<f64> = self.classes.iter().map(|c| c.weight).collect();
        let dim = self.dim;
        generate_chunked(self.n, dim, 16_384, seed, |_, rng, block| {
            let c = weighted_choice(rng, &weights);
            let means = &class_means[c];
            let sigma = self.classes[c].spread * self.classes[c].scale;
            for &mean in means.iter().take(dim) {
                block.push(normal(rng, mean, sigma).max(0.0));
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
        format!("KDD-CUP-99-SIM(n={})", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcenter_metric::{Distance, Euclidean};

    #[test]
    fn poker_schema_matches_uci_encoding() {
        let g = PokerHandSim::with_rows(500);
        let pts = g.generate(1);
        assert_eq!(pts.len(), 500);
        for p in &pts {
            assert_eq!(p.dim(), 10);
            for card in 0..5 {
                let suit = p[2 * card];
                let rank = p[2 * card + 1];
                assert!(
                    (1.0..=4.0).contains(&suit) && suit.fract() == 0.0,
                    "bad suit {suit}"
                );
                assert!(
                    (1.0..=13.0).contains(&rank) && rank.fract() == 0.0,
                    "bad rank {rank}"
                );
            }
        }
    }

    #[test]
    fn poker_hands_have_five_distinct_cards() {
        let g = PokerHandSim::with_rows(200);
        for p in g.generate(3) {
            let mut cards: Vec<(i64, i64)> = (0..5)
                .map(|c| (p[2 * c] as i64, p[2 * c + 1] as i64))
                .collect();
            cards.sort_unstable();
            cards.dedup();
            assert_eq!(cards.len(), 5, "hand contains a repeated card");
        }
    }

    #[test]
    fn poker_default_row_count_matches_uci() {
        assert_eq!(PokerHandSim::new().len(), POKER_HAND_TRAINING_ROWS);
        assert_eq!(PokerHandSim::default().dim(), 10);
    }

    #[test]
    fn poker_is_deterministic() {
        let g = PokerHandSim::with_rows(100);
        assert_eq!(g.generate(9), g.generate(9));
        assert_ne!(g.generate(9), g.generate(10));
    }

    #[test]
    fn kdd_generates_requested_rows_and_dims() {
        let g = KddCupSim::with_rows(2_000);
        let pts = g.generate(5);
        assert_eq!(pts.len(), 2_000);
        assert!(pts.iter().all(|p| p.dim() == 38));
        assert!(pts.iter().all(|p| p.coords().iter().all(|&c| c >= 0.0)));
    }

    #[test]
    fn kdd_is_dominated_by_a_few_dense_classes() {
        // With three classes holding ~98 % of the mass, the distance from a
        // random point to the nearest of three well-chosen points is tiny
        // compared to the data diameter; verify the cluster structure by
        // checking that intra-class spread << inter-class separation.
        let g = KddCupSim::with_rows(3_000);
        let pts = g.generate(7);
        // Estimate: pick the first point, most points should be either very
        // close (same dominant class) or very far (other class) — i.e. the
        // distance distribution is strongly bimodal, unlike uniform data.
        let d0: Vec<f64> = pts[1..]
            .iter()
            .map(|p| Euclidean.distance(&pts[0], p))
            .collect();
        let max = d0.iter().copied().fold(0.0, f64::max);
        let near = d0.iter().filter(|&&d| d < 0.05 * max).count();
        let far = d0.iter().filter(|&&d| d > 0.5 * max).count();
        assert!(
            near + far > d0.len() / 2,
            "distance distribution not strongly clustered"
        );
    }

    #[test]
    fn kdd_default_matches_published_sample_size() {
        let g = KddCupSim::new();
        assert_eq!(g.len(), KDD_CUP_10PCT_ROWS);
        assert_eq!(g.dim(), 38);
        assert!(g.class_count() >= 5);
    }

    #[test]
    fn kdd_is_deterministic() {
        let g = KddCupSim::with_rows(300);
        assert_eq!(g.generate(2), g.generate(2));
        assert_ne!(g.generate(2), g.generate(3));
    }

    #[test]
    fn names_identify_the_surrogates() {
        assert!(PokerHandSim::new().name().contains("POKER"));
        assert!(KddCupSim::new().name().contains("KDD"));
    }
}
