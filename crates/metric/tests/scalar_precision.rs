//! Property tests pinning the `f32` kernel instantiations against `f64`
//! scalar references.
//!
//! The contract under test (see `kcenter_metric::scalar`): an `f32` store
//! rounds each coordinate **once** at ingestion, after which
//!
//! * the *wide* (certification) kernels must equal the `f64` kernels run on
//!   pre-widened copies of the same rows — no reduced-precision arithmetic
//!   at all;
//! * the *narrow* (comparison-space) kernels may accumulate in `f32`, with
//!   an error bounded by a dimension-scaled multiple of the `f32` unit
//!   roundoff **relative to the `f64` value on the same (already rounded)
//!   inputs** — i.e. pure accumulation error, no cancellation terms.
//!
//! Dimensions 1–64 are exercised for every metric, matching the bounds
//! documented on the kernels.

use kcenter_metric::kernel::{dist2, dist2_wide, relax_nearest};
use kcenter_metric::{Distance, Euclidean, FlatPoints, Manhattan, Scalar, SquaredEuclidean};
use proptest::prelude::*;

/// Widens an `f32` row to `f64` (exact).
fn widen(row: &[f32]) -> Vec<f64> {
    row.iter().map(|&c| c as f64).collect()
}

/// The dimension-scaled relative accumulation bound for a `dim`-term `f32`
/// sum: each of the `O(dim)` additions and the per-term arithmetic
/// contribute at most a few units of `2^-24` relative error.  The constant
/// is generous (8× the first-order bound) so the test pins the *scaling*,
/// not the exact constant.
fn accumulation_tol(dim: usize) -> f64 {
    8.0 * (dim as f64 + 2.0) * f32::UNIT_ROUNDOFF
}

/// Strategy: a pair of same-dimension `f32` coordinate rows, dim in 1..=64.
/// Drawn as `f64` and rounded, exactly like the generators emit them.
fn row_pair32() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (1usize..=64).prop_flat_map(|dim| {
        (
            prop::collection::vec(-1000.0f64..1000.0, dim),
            prop::collection::vec(-1000.0f64..1000.0, dim),
        )
            .prop_map(|(a, b)| {
                (
                    a.into_iter().map(|c| c as f32).collect(),
                    b.into_iter().map(|c| c as f32).collect(),
                )
            })
    })
}

/// Strategy: a flat f32 cloud of n points (2..=64) with dim in 1..=64.
fn flat_cloud32() -> impl Strategy<Value = FlatPoints<f32>> {
    (1usize..=64, 2usize..=64).prop_flat_map(|(dim, n)| {
        prop::collection::vec(-1000.0f64..1000.0, dim * n).prop_map(move |coords| {
            let narrow: Vec<f32> = coords.into_iter().map(|c| c as f32).collect();
            FlatPoints::from_coords(narrow, dim).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `dist2` at f32 stays within the dimension-scaled accumulation bound
    /// of the f64 kernel on the widened rows; `dist2_wide` equals it
    /// exactly.
    #[test]
    fn f32_dist2_within_dimension_scaled_bound_of_f64_reference(
        (a, b) in row_pair32()
    ) {
        let (aw, bw) = (widen(&a), widen(&b));
        let reference = dist2(&aw, &bw);
        let narrow = dist2(&a, &b) as f64;
        let tol = accumulation_tol(a.len()) * reference.max(f64::MIN_POSITIVE);
        prop_assert!(
            (narrow - reference).abs() <= tol,
            "dim {}: |{narrow} - {reference}| > {tol}", a.len()
        );
        // The certification kernel is exactly the f64 kernel on widened rows.
        prop_assert_eq!(dist2_wide(&a, &b), reference);
    }

    /// Every metric's f32 surrogate and exact slice distance stay within
    /// the dimension-scaled bound of the f64 scalar reference on widened
    /// rows (dims 1–64).
    #[test]
    fn f32_metrics_within_dimension_scaled_bound_of_f64_reference((a, b) in row_pair32()) {
        let (aw, bw) = (widen(&a), widen(&b));
        let dim = a.len();

        // `distance_slices` is defined as f64-widened: must match the f64
        // instantiation exactly, for every metric.
        macro_rules! exact {
            ($m:expr) => {
                prop_assert_eq!(
                    $m.distance_slices(&a, &b),
                    $m.distance_slices(&aw, &bw),
                    "{}: wide slice distance must be precision-independent",
                    $m.name()
                );
            };
        }
        exact!(Euclidean);
        exact!(SquaredEuclidean);
        exact!(Manhattan);

        // The f32 comparison-space surrogates carry only accumulation error
        // relative to the f64 surrogate of the same rounded inputs.
        macro_rules! close_surrogate {
            ($m:expr, $extra:expr) => {{
                let narrow: f32 = $m.surrogate(&a, &b);
                let reference: f64 = $m.surrogate(&aw, &bw);
                let tol = $extra * accumulation_tol(dim) * reference.abs().max(f64::MIN_POSITIVE);
                prop_assert!(
                    (narrow as f64 - reference).abs() <= tol,
                    "{} dim {dim}: |{narrow} - {reference}| > {tol}", $m.name()
                );
            }};
        }
        close_surrogate!(Euclidean, 1.0);
        close_surrogate!(SquaredEuclidean, 1.0);
        close_surrogate!(Manhattan, 1.0);
    }

    /// The fused relax kernel at f32 agrees with its f64 run on widened
    /// rows, to the dimension-scaled bound, for every point of the cloud.
    #[test]
    fn f32_scan_kernels_track_the_f64_reference(flat in flat_cloud32()) {
        let dim = flat.dim();
        let wide = flat.to_precision::<f64>();
        let centers: Vec<usize> = (0..flat.len()).step_by(3).collect();
        let subset: Vec<usize> = (0..flat.len()).collect();

        let mut near32 = vec![f32::INFINITY; flat.len()];
        let mut near64 = vec![f64::INFINITY; flat.len()];
        for &c in &centers {
            relax_nearest(&flat, &subset, c, &mut near32);
            relax_nearest(&wide, &subset, c, &mut near64);
        }
        for i in 0..flat.len() {
            // The relax recurrences may pick a different (near-tied) center
            // per precision, but the *values* stay within the bound of each
            // other because both are mins over pairwise values within tol.
            let tol_relax = accumulation_tol(dim) * near64[i].max(f64::MIN_POSITIVE);
            prop_assert!(
                (near32[i] as f64 - near64[i]).abs() <= tol_relax,
                "relax point {i}: |{} - {}| > {tol_relax}", near32[i], near64[i]
            );
        }
    }
}
