//! Property tests for the mixed-precision certification contract of the
//! evaluation layer: the `f64`-refined `covering_radius` over an `f32`
//! store must sit within *input-rounding* distance of the all-`f64` value.
//!
//! The documented bound: storing a point `x` at `f32` perturbs each
//! coordinate by at most `|x_i| · 2^-24`, so every pairwise Euclidean
//! distance moves by at most `‖δa‖ + ‖δb‖ ≤ 2 · 2^-24 · √dim · max|coord|`,
//! and a max-of-mins moves by no more than its worst constituent distance.
//! Because the evaluation arithmetic itself is `f64` at either precision
//! (the `wide_cmp_*` certification scans), input rounding is the *only*
//! error source — which is exactly what this proptest pins down.

use kcenter_core::evaluate::{covered_within, covering_radius};
use kcenter_metric::{Euclidean, FlatPoints, Scalar, VecSpace};
use proptest::prelude::*;

/// The input-rounding bound for one Euclidean distance over `dim`-dimensional
/// points with coordinates bounded by `max_abs`, with a 2× safety margin.
fn input_rounding_tol(dim: usize, max_abs: f64) -> f64 {
    4.0 * f32::UNIT_ROUNDOFF * (dim as f64).sqrt() * (max_abs + 1.0)
}

/// Strategy: an f64 coordinate cloud (n in 4..=64, dim in 1..=16) plus its
/// exact parameters.
fn cloud() -> impl Strategy<Value = (Vec<f64>, usize)> {
    (1usize..=16, 4usize..=64).prop_flat_map(|(dim, n)| {
        prop::collection::vec(-1000.0f64..1000.0, dim * n).prop_map(move |coords| (coords, dim))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For a fixed center set, the covering radius over the f32 store is
    /// within the documented input-rounding bound of the all-f64 value.
    #[test]
    fn covering_radius_under_f32_storage_is_within_input_rounding((coords, dim) in cloud()) {
        let max_abs = coords.iter().fold(0.0f64, |m, c| m.max(c.abs()));
        let flat64 = FlatPoints::<f64>::from_coords(coords.clone(), dim).unwrap();
        let flat32 = flat64.to_precision::<f32>();
        let space64 = VecSpace::from_flat(flat64);
        let space32 = VecSpace::from_flat(flat32);

        let n = coords.len() / dim;
        let centers: Vec<usize> = vec![0, n / 3, (2 * n) / 3];

        let r64 = covering_radius(&space64, &centers);
        let r32 = covering_radius(&space32, &centers);
        let tol = input_rounding_tol(dim, max_abs);
        prop_assert!(
            (r64 - r32).abs() <= tol,
            "covering radius drifted past input rounding: |{r64} - {r32}| > {tol}"
        );

        // The f32-certified radius really covers the f32 store (self
        // -consistency of the certification path), with only the final f64
        // rounding as slack.
        prop_assert!(covered_within(&space32, &centers, r32 * (1.0 + 1e-12) + 1e-12));

        // Per-point certified distances obey the same bound.
        for i in 0..n {
            let a = space64.distance_to_set(i, &centers);
            let b = space32.distance_to_set(i, &centers);
            prop_assert!(
                (a - b).abs() <= tol,
                "point {i}: certified distance drifted: |{a} - {b}| > {tol}"
            );
        }
    }

    /// The certification path is bit-for-bit deterministic: evaluating the
    /// same store twice gives identical results, at either precision.
    #[test]
    fn certified_evaluation_is_deterministic((coords, dim) in cloud()) {
        let flat64 = FlatPoints::<f64>::from_coords(coords, dim).unwrap();
        let flat32 = flat64.to_precision::<f32>();
        let n = flat64.len();
        let centers: Vec<usize> = vec![0, n / 2];

        let s64a = VecSpace::from_flat(flat64.clone());
        let s64b = VecSpace::from_flat(flat64);
        prop_assert_eq!(
            covering_radius(&s64a, &centers).to_bits(),
            covering_radius(&s64b, &centers).to_bits()
        );
        let s32a = VecSpace::from_flat(flat32.clone());
        let s32b = VecSpace::from_flat(flat32);
        prop_assert_eq!(
            covering_radius(&s32a, &centers).to_bits(),
            covering_radius(&s32b, &centers).to_bits()
        );
    }
}

/// Deterministic (non-proptest) check at a size that crosses the parallel
/// evaluation threshold: the rayon path must agree with the sequential one
/// bit-for-bit at both precisions.
#[test]
fn parallel_certified_radius_matches_sequential_at_both_precisions() {
    let n = 20_000usize;
    let dim = 3usize;
    let coords: Vec<f64> = (0..n * dim)
        .map(|i| {
            let v = (i as u64)
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(97);
            ((v >> 33) % 100_000) as f64 / 50.0 - 1000.0
        })
        .collect();
    let flat64 = FlatPoints::<f64>::from_coords(coords, dim).unwrap();
    let flat32 = flat64.to_precision::<f32>();
    let centers = vec![0usize, 7_000, 19_999];

    fn seq_radius<S: Scalar>(space: &VecSpace<Euclidean, S>, centers: &[usize]) -> f64 {
        (0..space.len())
            .map(|p| space.distance_to_set(p, centers))
            .fold(0.0f64, f64::max)
    }

    let space64 = VecSpace::from_flat(flat64);
    let space32 = VecSpace::from_flat(flat32);
    // covering_radius prunes with the early-exit bound; the pruned result
    // must still be the exact maximum the naive scan finds.
    assert_eq!(
        covering_radius(&space64, &centers).to_bits(),
        seq_radius(&space64, &centers).to_bits()
    );
    assert_eq!(
        covering_radius(&space32, &centers).to_bits(),
        seq_radius(&space32, &centers).to_bits()
    );
}
