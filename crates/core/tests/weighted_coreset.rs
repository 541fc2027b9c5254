//! Property tests for the weighted-coreset layer (ISSUE 3 satellite):
//!
//! 1. **Certificate** — a Gonzalez coreset of size `t` yields a weighted
//!    k-center solution whose certified full-data radius respects the
//!    construction-radius certificate: it is within `construction_radius`
//!    of the solution's own coreset radius (the exact triangle-inequality
//!    form), and bounded against the raw-space solution by the provable
//!    `2·r_raw + 3·r_t` composition bound.
//! 2. **Determinism** — EIM-built coresets are identical per
//!    `(seed, precision)` pair and differ across seeds.

use kcenter_core::coreset::GonzalezCoresetConfig;
use kcenter_core::prelude::*;
use kcenter_metric::{Euclidean, FlatPoints, Scalar, VecSpace};
use proptest::prelude::*;

/// Strategy: an f64 coordinate cloud (n in 24..=120, dim in 1..=4) plus its
/// dimension.
fn cloud() -> impl Strategy<Value = (Vec<f64>, usize)> {
    (1usize..=4, 24usize..=120).prop_flat_map(|(dim, n)| {
        prop::collection::vec(-500.0f64..500.0, dim * n).prop_map(move |coords| (coords, dim))
    })
}

fn space_of(coords: Vec<f64>, dim: usize) -> VecSpace {
    VecSpace::from_flat(FlatPoints::<f64>::from_coords(coords, dim).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Satellite (a): the coreset quality certificate.  For every solution
    /// selected on the coreset, the exact full-data radius is within the
    /// construction radius of the solution's coreset radius — and the
    /// composition against the raw-space greedy stays inside the provable
    /// `2·r_raw + 3·r_t` envelope.
    #[test]
    fn gonzalez_coreset_certificate_holds((coords, dim) in cloud(), k in 1usize..=5) {
        let space = space_of(coords, dim);
        let t = (space.len() / 3).max(k + 1);
        let coreset = GonzalezCoresetConfig::new(t)
            .with_machines(4)
            .build(&space)
            .unwrap();
        let r_t = coreset.construction_radius();

        let sol = coreset
            .solve(k, SequentialSolver::Gonzalez, FirstCenter::default())
            .unwrap();
        let full = sol.certify(&space);

        // The certificate: full radius within construction_radius of the
        // coreset-space radius, in both directions.
        prop_assert!(full <= sol.coreset_radius + r_t + 1e-9,
            "certificate violated: {full} > {} + {r_t}", sol.coreset_radius);
        prop_assert!(sol.coreset_radius <= full + 1e-9,
            "reps are real points, coreset radius cannot exceed full radius");
        prop_assert!((sol.radius_bound - (sol.coreset_radius + r_t)).abs() <= 1e-12);

        // Composition against the same solver on the raw space: GON on the
        // coreset is a 2-approximation of OPT over the coreset, and moving
        // between space and summary costs at most r_t per hop, so
        // full <= 2·OPT + 3·r_t <= 2·r_raw + 3·r_t.
        let raw = GonzalezConfig::new(k).solve(&space).unwrap();
        prop_assert!(
            full <= 2.0 * raw.radius + 3.0 * r_t + 1e-9,
            "composition bound violated: {full} > 2·{} + 3·{r_t}",
            raw.radius
        );
    }
}

/// EIM-built coresets are deterministic per
/// `(seed, precision)` and respond to the seed.
#[test]
fn eim_coresets_are_deterministic_per_seed_and_precision() {
    let spec = kcenter_data::DatasetSpec::Gau {
        n: 4_000,
        k_prime: 5,
    };
    let config = EimConfig::new(2).with_epsilon(0.13).with_machines(8);

    fn build_at<S: Scalar>(
        spec: &kcenter_data::DatasetSpec,
        config: &EimConfig,
        seed: u64,
    ) -> (Vec<usize>, Vec<u64>, f64) {
        let space: VecSpace<Euclidean, S> = VecSpace::from_flat(spec.generate_flat_at::<S>(1));
        let coreset = config
            .clone()
            .with_seed(seed)
            .build_coreset(&space)
            .unwrap();
        (
            coreset.source_ids().to_vec(),
            coreset.weights().to_vec(),
            coreset.construction_radius(),
        )
    }

    for seed in [3u64, 9] {
        let a64 = build_at::<f64>(&spec, &config, seed);
        let b64 = build_at::<f64>(&spec, &config, seed);
        assert_eq!(a64, b64, "f64 build not deterministic at seed {seed}");
        let a32 = build_at::<f32>(&spec, &config, seed);
        let b32 = build_at::<f32>(&spec, &config, seed);
        assert_eq!(a32, b32, "f32 build not deterministic at seed {seed}");
    }
    // Different seeds sample differently (almost surely a different set).
    let x = build_at::<f64>(&spec, &config, 3);
    let y = build_at::<f64>(&spec, &config, 9);
    assert_ne!(x.0, y.0, "different seeds produced the same coreset");
}

/// The MapReduce build path is deterministic too (chunked partitions and
/// lowest-index tie-breaking leave no ordering freedom).
#[test]
fn mapreduce_gonzalez_build_is_deterministic() {
    let spec = kcenter_data::DatasetSpec::Unb {
        n: 3_000,
        k_prime: 4,
    };
    let space: VecSpace = VecSpace::from_flat(spec.generate_flat(7));
    let a = GonzalezCoresetConfig::new(50)
        .with_machines(6)
        .build(&space)
        .unwrap();
    let b = GonzalezCoresetConfig::new(50)
        .with_machines(6)
        .build(&space)
        .unwrap();
    assert_eq!(a.source_ids(), b.source_ids());
    assert_eq!(a.weights(), b.weights());
    assert_eq!(a.construction_radius(), b.construction_radius());
}
