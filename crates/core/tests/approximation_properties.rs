//! Property-based tests for the approximation guarantees the paper proves.
//!
//! Brute-force OPT is only feasible on tiny instances, so the proptest
//! strategies stay below `MAX_BRUTE_FORCE_POINTS`; larger-scale behaviour is
//! covered by the integration tests at the workspace root.

use kcenter_core::brute_force::optimal_radius;
use kcenter_core::evaluate::{assign, covering_radius};
use kcenter_core::prelude::*;
use kcenter_metric::{pairwise_lower_bound, Point, VecSpace};
use proptest::prelude::*;

/// A small random instance: 4..=16 points in a bounded 2-D square, plus a
/// target k in 1..=4.
fn small_instance() -> impl Strategy<Value = (VecSpace, usize)> {
    (
        prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 4..=16),
        1usize..=4,
    )
        .prop_map(|(coords, k)| {
            let points = coords.into_iter().map(|(x, y)| Point::xy(x, y)).collect();
            (VecSpace::new(points), k)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gonzalez_is_a_two_approximation((space, k) in small_instance()) {
        let sol = GonzalezConfig::new(k).solve(&space).unwrap();
        let opt = optimal_radius(&space, k).unwrap();
        prop_assert!(sol.radius <= 2.0 * opt + 1e-9, "GON {} > 2*OPT {}", sol.radius, opt);
        prop_assert!(sol.radius >= opt - 1e-9, "no algorithm can beat OPT");
    }

    #[test]
    fn hochbaum_shmoys_is_a_two_approximation((space, k) in small_instance()) {
        let sol = HochbaumShmoysConfig::new(k).solve(&space).unwrap();
        let opt = optimal_radius(&space, k).unwrap();
        prop_assert!(sol.radius <= 2.0 * opt + 1e-9, "HS {} > 2*OPT {}", sol.radius, opt);
        prop_assert!(sol.radius >= opt - 1e-9);
    }

    #[test]
    fn mrg_respects_its_round_dependent_bound((space, k) in small_instance()) {
        // Tiny capacity forces at least one reduction round on 3 machines.
        let capacity = (space.len() / 2).max(k + 1).max(2);
        let result = MrgConfig::new(k)
            .with_machines(3)
            .with_capacity(capacity)
            .run(&space);
        // k close to the capacity can legitimately stall (NoProgress); the
        // bound only applies to successful runs.
        if let Ok(result) = result {
            let opt = optimal_radius(&space, k).unwrap();
            let bound = result.approximation_factor * opt + 1e-9;
            prop_assert!(
                result.solution.radius <= bound,
                "MRG {} > {} (factor {}, rounds {})",
                result.solution.radius, bound, result.approximation_factor, result.reduction_rounds
            );
            prop_assert!(result.solution.radius >= opt - 1e-9);
        }
    }

    #[test]
    fn mrg_on_one_machine_with_full_capacity_equals_gonzalez((space, k) in small_instance()) {
        let mrg = MrgConfig::new(k)
            .with_machines(1)
            .with_capacity(space.len())
            .run(&space)
            .unwrap();
        let gon = GonzalezConfig::new(k).solve(&space).unwrap();
        prop_assert_eq!(mrg.solution.centers, gon.centers);
        prop_assert_eq!(mrg.solution.radius, gon.radius);
        prop_assert_eq!(mrg.reduction_rounds, 0);
    }

    #[test]
    fn eim_below_threshold_equals_gonzalez((space, k) in small_instance()) {
        // At these sizes |R| never exceeds the sampling threshold, so EIM
        // must degenerate to GON on the full input.
        let eim = EimConfig::new(k).with_machines(3).run(&space).unwrap();
        let gon = GonzalezConfig::new(k).solve(&space).unwrap();
        prop_assert!(eim.fell_back_to_sequential);
        prop_assert_eq!(eim.solution.centers, gon.centers);
        prop_assert_eq!(eim.solution.radius, gon.radius);
    }

    #[test]
    fn gonzalez_radius_is_monotone_non_increasing_in_k(
        coords in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 5..=20)
    ) {
        let space = VecSpace::new(coords.into_iter().map(|(x, y)| Point::xy(x, y)).collect());
        let mut last = f64::INFINITY;
        for k in 1..=space.len().min(6) {
            let sol = GonzalezConfig::new(k).solve(&space).unwrap();
            prop_assert!(sol.radius <= last + 1e-9, "radius increased when k grew to {k}");
            last = sol.radius;
        }
    }

    #[test]
    fn gonzalez_witness_lower_bound_brackets_opt((space, k) in small_instance()) {
        // Gonzalez's k centers plus the final farthest point are pairwise
        // separated by the final radius, so witness/2 <= OPT <= GON radius.
        let sol = GonzalezConfig::new(k).solve(&space).unwrap();
        if sol.centers.len() == k && k < space.len() {
            // Find the farthest point from the chosen centers.
            let far = (0..space.len())
                .max_by(|&a, &b| {
                    space.distance_to_set(a, &sol.centers)
                        .total_cmp(&space.distance_to_set(b, &sol.centers))
                })
                .unwrap();
            let mut witness = sol.centers.clone();
            witness.push(far);
            let lb = pairwise_lower_bound(&space, &witness);
            let opt = optimal_radius(&space, k).unwrap();
            prop_assert!(lb <= opt + 1e-9, "witness lower bound {} exceeded OPT {}", lb, opt);
        }
    }

    #[test]
    fn solutions_are_valid_center_sets((space, k) in small_instance()) {
        for sol in [
            GonzalezConfig::new(k).solve(&space).unwrap(),
            HochbaumShmoysConfig::new(k).solve(&space).unwrap(),
            MrgConfig::new(k).with_machines(2).with_capacity(space.len()).run(&space).unwrap().solution,
            EimConfig::new(k).with_machines(2).run(&space).unwrap().solution,
        ] {
            prop_assert!(sol.centers.len() <= k.min(space.len()));
            prop_assert!(!sol.centers.is_empty());
            prop_assert!(sol.centers.iter().all(|&c| c < space.len()));
            let mut dedup = sol.centers.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), sol.centers.len(), "duplicate centers");
            // The reported radius matches an independent evaluation.
            let radius = covering_radius(&space, &sol.centers);
            prop_assert!((radius - sol.radius).abs() < 1e-9);
        }
    }

    #[test]
    fn assignment_is_consistent_with_the_radius((space, k) in small_instance()) {
        let sol = GonzalezConfig::new(k).solve(&space).unwrap();
        let assignment = assign(&space, &sol.centers);
        prop_assert_eq!(assignment.len(), space.len());
        for (p, &a) in assignment.iter().enumerate() {
            prop_assert!(a < sol.centers.len());
            let d = space.distance(p, sol.centers[a]);
            prop_assert!(d <= sol.radius + 1e-9, "assigned distance exceeds the covering radius");
        }
    }
}
