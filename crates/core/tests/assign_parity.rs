//! Grid-vs-dense assignment parity (ISSUE 7 satellite).
//!
//! The spatial-grid assignment arm (`kcenter_metric::grid`) promises to be
//! *bit-identical* to the dense scan it replaces: same per-pair comparison
//! values, same lowest-index tie-breaking, same `wide_cmp_*` certification.
//! These tests pin that promise end to end by running every solver and both
//! coreset builders twice — once with the assignment arm forced to `dense`,
//! once forced to `grid` — and demanding identical centers, radii, weights
//! and assignment vectors.
//!
//! Coordinates are drawn from small integer lattices so every squared
//! distance is exactly representable at both storage precisions and under
//! every kernel backend (scalar, portable, AVX2): parity must then be exact
//! to the bit, with no tolerance.  The lattice also manufactures ties and
//! duplicates aggressively, exercising the tie-break paths; a dedicated
//! duplicate-heavy case drives the degenerate-extent guards.

use std::sync::Mutex;

use kcenter_core::coreset::GonzalezCoresetConfig;
use kcenter_core::evaluate;
use kcenter_core::prelude::*;
use kcenter_metric::grid::{self, AssignChoice, AssignMode};
use kcenter_metric::{Distance, Euclidean, FlatPoints, Scalar, VecSpace};
use proptest::prelude::*;

/// Serialises every test that flips the process-global assignment arm.
static ARM_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once under each forced assignment arm and returns
/// `(dense_result, grid_result)`.  The global choice is restored to `Auto`
/// before the lock is released, so tests cannot leak a forced arm into each
/// other (or into any sibling test binary sharing the process).
fn both_arms<T>(f: impl Fn() -> T) -> (T, T) {
    let _guard = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    grid::set_choice(AssignChoice::Fixed(AssignMode::Dense));
    let dense = f();
    grid::set_choice(AssignChoice::Fixed(AssignMode::Grid));
    let grid_r = f();
    grid::set_choice(AssignChoice::Auto);
    (dense, grid_r)
}

fn space_of<S: Scalar>(coords: &[f64], dim: usize) -> VecSpace<Euclidean, S> {
    let coords: Vec<S> = coords.iter().map(|&c| S::from_f64(c)).collect();
    VecSpace::from_flat(FlatPoints::from_coords(coords, dim).unwrap())
}

/// Integer-lattice cloud: `dim` in 1..=5, `n` in 40..=220, coordinates on a
/// deliberately coarse lattice (`0..=40`) so collisions and equidistant
/// ties are common rather than exotic.
fn lattice_cloud() -> impl Strategy<Value = (Vec<f64>, usize)> {
    (1usize..=5, 40usize..=220).prop_flat_map(|(dim, n)| {
        prop::collection::vec(0i32..=40, dim * n)
            .prop_map(move |ints| (ints.into_iter().map(f64::from).collect(), dim))
    })
}

/// Duplicate-heavy cloud: a handful of base rows, each repeated many times,
/// so whole grid cells collapse to a point and per-dimension extents can be
/// zero.  Also the worst case for lowest-index tie-breaking.
fn duplicate_cloud() -> impl Strategy<Value = (Vec<f64>, usize)> {
    (1usize..=4, 3usize..=8, 8usize..=30).prop_flat_map(|(dim, bases, reps)| {
        prop::collection::vec(0i32..=10, dim * bases).prop_map(move |ints| {
            let mut coords = Vec::with_capacity(dim * bases * reps);
            for r in 0..reps {
                for b in 0..bases {
                    // Interleave the repeats so equal rows are spread across
                    // the id range, not adjacent.
                    let _ = r;
                    coords.extend(ints[b * dim..(b + 1) * dim].iter().map(|&c| f64::from(c)));
                }
            }
            (coords, dim)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// GON: identical centers and certified radius under both arms, at both
    /// storage precisions.
    #[test]
    fn gonzalez_parity((coords, dim) in lattice_cloud(), k in 1usize..=8) {
        let f64_space = space_of::<f64>(&coords, dim);
        let f32_space = space_of::<f32>(&coords, dim);
        let (d, g) = both_arms(|| {
            let a = GonzalezConfig::new(k).solve(&f64_space).unwrap();
            let b = GonzalezConfig::new(k).solve(&f32_space).unwrap();
            ((a.centers, a.radius), (b.centers, b.radius))
        });
        prop_assert_eq!(d, g);
    }

    /// MRG: the two-round MapReduce pipeline routes its per-machine GON
    /// calls and final assignment through the same arms.
    #[test]
    fn mrg_parity((coords, dim) in lattice_cloud(), k in 1usize..=6, machines in 1usize..=5) {
        let space = space_of::<f64>(&coords, dim);
        let (d, g) = both_arms(|| {
            let r = MrgConfig::new(k)
                .with_machines(machines)
                .with_unchecked_capacity()
                .run(&space)
                .unwrap();
            (r.solution.centers, r.solution.radius)
        });
        prop_assert_eq!(d, g);
    }

    /// EIM: iterative sampling is seeded, so the only cross-arm variation
    /// could come from the grid-capable scans — there must be none.
    #[test]
    fn eim_parity((coords, dim) in lattice_cloud(), k in 1usize..=5, seed in 0u64..1000) {
        let space = space_of::<f64>(&coords, dim);
        let (d, g) = both_arms(|| {
            let r = EimConfig::new(k)
                .with_seed(seed)
                .with_machines(3)
                .run(&space)
                .unwrap();
            (r.solution.centers, r.solution.radius)
        });
        prop_assert_eq!(d, g);
    }

    /// Gonzalez coreset builder: representatives, weights and the certified
    /// construction radius all survive the arm swap bit-for-bit.
    #[test]
    fn gonzalez_coreset_parity((coords, dim) in lattice_cloud(), t in 4usize..=16) {
        let space = space_of::<f64>(&coords, dim);
        let (d, g) = both_arms(|| {
            let c = GonzalezCoresetConfig::new(t)
                .with_machines(4)
                .build(&space)
                .unwrap();
            (
                c.source_ids().to_vec(),
                c.weights().to_vec(),
                c.construction_radius(),
            )
        });
        prop_assert_eq!(d, g);
    }

    /// EIM coreset builder: same contract as the Gonzalez builder, plus the
    /// sampled hand-off set must be unchanged (it is seed-driven but its
    /// weights round runs through the dispatched nearest-rep scan).
    #[test]
    fn eim_coreset_parity((coords, dim) in lattice_cloud(), seed in 0u64..1000) {
        let space = space_of::<f64>(&coords, dim);
        let (d, g) = both_arms(|| {
            let c = EimConfig::new(3)
                .with_seed(seed)
                .with_machines(3)
                .build_coreset(&space)
                .unwrap();
            (
                c.source_ids().to_vec(),
                c.weights().to_vec(),
                c.construction_radius(),
            )
        });
        prop_assert_eq!(d, g);
    }

    /// `evaluate::assign`: the label vector (argmin with smallest-position
    /// tie-break) is identical under both arms, at both precisions.
    #[test]
    fn assign_parity((coords, dim) in lattice_cloud(), k in 1usize..=8) {
        let f64_space = space_of::<f64>(&coords, dim);
        let f32_space = space_of::<f32>(&coords, dim);
        let centers: Vec<usize> = (0..k.min(f64_space.len())).map(|i| i * 7 % f64_space.len()).collect();
        let mut centers = centers;
        centers.sort_unstable();
        centers.dedup();
        let (d, g) = both_arms(|| {
            (
                evaluate::assign(&f64_space, &centers),
                evaluate::assign(&f32_space, &centers),
            )
        });
        prop_assert_eq!(d, g);
    }

    /// Duplicate-heavy instances: zero-extent dimensions, collapsed cells,
    /// and massed ties must neither panic nor perturb any output.
    #[test]
    fn duplicate_heavy_parity((coords, dim) in duplicate_cloud(), k in 1usize..=5) {
        let space = space_of::<f64>(&coords, dim);
        let (d, g) = both_arms(|| {
            let gon = GonzalezConfig::new(k).solve(&space).unwrap();
            let mrg = MrgConfig::new(k)
                .with_machines(3)
                .with_unchecked_capacity()
                .run(&space)
                .unwrap();
            let cs = GonzalezCoresetConfig::new(k + 2)
                .with_machines(3)
                .build(&space)
                .unwrap();
            let labels = evaluate::assign(&space, &gon.centers);
            (
                (gon.centers, gon.radius),
                (mrg.solution.centers, mrg.solution.radius),
                (cs.weights().to_vec(), cs.construction_radius()),
                labels,
            )
        });
        prop_assert_eq!(d, g);
    }
}

/// Engineered ties: a symmetric cross where several points are exactly
/// equidistant from competing centers — the lowest-index winner must be the
/// same point under both arms, for every solver.
#[test]
fn engineered_tie_parity() {
    // 4 corners of a square + center + axis midpoints: the center is
    // equidistant from all four corners, each midpoint from two.
    let coords = vec![
        0.0, 0.0, // 0: corner
        4.0, 0.0, // 1: corner
        0.0, 4.0, // 2: corner
        4.0, 4.0, // 3: corner
        2.0, 2.0, // 4: center (ties all corners)
        2.0, 0.0, // 5: bottom midpoint (ties 0 and 1)
        0.0, 2.0, // 6: left midpoint (ties 0 and 2)
        4.0, 2.0, // 7: right midpoint (ties 1 and 3)
        2.0, 4.0, // 8: top midpoint (ties 2 and 3)
    ];
    let space = space_of::<f64>(&coords, 2);
    for k in 1..=5 {
        let (d, g) = both_arms(|| {
            let gon = GonzalezConfig::new(k).solve(&space).unwrap();
            let labels = evaluate::assign(&space, &gon.centers);
            let eim = EimConfig::new(k)
                .with_seed(7)
                .with_machines(2)
                .run(&space)
                .unwrap();
            (
                (gon.centers, gon.radius),
                labels,
                (eim.solution.centers, eim.solution.radius),
            )
        });
        assert_eq!(d, g, "tie-break divergence at k={k}");
    }
}

/// The forced grid arm really does run the grid scans (not a silent dense
/// fallback) on a well-conditioned instance — guarding against a future
/// regression that re-routes everything to dense and lets these parity
/// tests pass vacuously.
#[test]
fn grid_arm_actually_engages() {
    let mut coords = Vec::new();
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..600 {
        coords.push((next() % 1000) as f64);
        coords.push((next() % 1000) as f64);
    }
    let space = space_of::<f64>(&coords, 2);
    let _guard = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    grid::set_choice(AssignChoice::Fixed(AssignMode::Grid));
    grid::reset_scan_counts();
    // Each of the three scans that bucket, one at a time: a selection's
    // relax loop, a per-point assignment, and a coreset weights round.
    let sol = GonzalezConfig::new(8).solve(&space).unwrap();
    let after_solve = grid::scan_counts();
    let _ = evaluate::assign(&space, &sol.centers);
    let after_assign = grid::scan_counts();
    let coreset = GonzalezCoresetConfig::new(16).build(&space).unwrap();
    grid::set_choice(AssignChoice::Auto);
    assert_eq!(after_solve, (1, 0), "relax loop");
    assert_eq!(after_assign, (2, 0), "assignment");
    let weights_round: Vec<&str> = coreset
        .stats()
        .rounds_labelled("coreset round 3")
        .map(|r| r.label.as_str())
        .collect();
    assert_eq!(
        weights_round,
        ["coreset round 3: weights + certification [grid]"]
    );
}

/// A `parallel_scan` selection below the relax scan's fork cutoff
/// (`kernel::PAR_CUTOFF`) runs sequentially, so under `auto` it takes the
/// arm the measured relax crossover picks for its shape — here the grid —
/// and still returns the dense-pinned centers.
#[test]
fn small_parallel_selection_follows_the_relax_crossover() {
    const N: usize = 20_000;
    const _: () = assert!(N < kcenter_metric::kernel::PAR_CUTOFF);
    let mut state = 0x2545f4914f6cdd1du64;
    let coords: Vec<f64> = (0..N * 3)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64
        })
        .collect();
    let space = space_of::<f64>(&coords, 3);
    let shape = |k| grid::ScanShape {
        kind: grid::ScanKind::Relax,
        points: N,
        candidates: k,
        dim: 3,
    };
    let k = [32usize, 64, 128, 256, 512]
        .into_iter()
        .find(|&k| grid::auto_mode(shape(k)) == AssignMode::Grid)
        .expect("a d = 3 selection over 20,000 points has a grid side");
    let solve = || {
        let sol = GonzalezConfig::new(k)
            .with_parallel_scan(true)
            .solve(&space)
            .unwrap();
        (sol.centers, sol.radius)
    };
    let _guard = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    grid::set_choice(AssignChoice::Fixed(AssignMode::Dense));
    let dense = solve();
    grid::set_choice(AssignChoice::Auto);
    grid::reset_scan_counts();
    let auto = solve();
    let counts = grid::scan_counts();
    assert_eq!(
        counts,
        (1, 0),
        "k = {k}: the selection must run on the grid arm"
    );
    assert_eq!(auto, dense, "k = {k}");
}

/// Above the vector width (d = 16: four `f64` lanes, two `f32` vectors)
/// the dense arm's fused nearest scan runs the backend's own pairwise
/// kernel and the certification its const-length wide kernel.  Both arms
/// must still give the pair-by-pair answers: the argmin over
/// `cmp_distance` for `assign`, and the max-of-mins over
/// `wide_cmp_distance` for `covering_radius`, on continuous coordinates
/// whose sums round differently in any other summation order.
#[test]
fn assign_above_the_vector_width_matches_the_pairwise_oracle() {
    const DIM: usize = 16;
    let mut state = 0x5851_f42d_4c95_7f2du64;
    let coords: Vec<f64> = (0..300 * DIM)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2000.0 - 1000.0
        })
        .collect();
    fn oracle<S: Scalar>(space: &VecSpace<Euclidean, S>, centers: &[usize]) -> (Vec<usize>, f64) {
        let mut labels = Vec::new();
        let mut wide_max = f64::NEG_INFINITY;
        for p in 0..space.len() {
            let mut best = (0, S::INFINITY);
            let mut wide = f64::INFINITY;
            for (i, &c) in centers.iter().enumerate() {
                let d = space.cmp_distance(p, c);
                if d < best.1 {
                    best = (i, d);
                }
                wide = wide.min(space.wide_cmp_distance(p, c));
            }
            labels.push(best.0);
            wide_max = wide_max.max(wide);
        }
        (labels, space.metric().wide_surrogate_to_distance(wide_max))
    }
    let f64_space = space_of::<f64>(&coords, DIM);
    let f32_space = space_of::<f32>(&coords, DIM);
    for centers in [vec![0usize, 7, 99, 7, 250], (0..300).step_by(11).collect()] {
        let want = (oracle(&f64_space, &centers), oracle(&f32_space, &centers));
        let (d, g) = both_arms(|| {
            (
                (
                    evaluate::assign(&f64_space, &centers),
                    evaluate::covering_radius(&f64_space, &centers),
                ),
                (
                    evaluate::assign(&f32_space, &centers),
                    evaluate::covering_radius(&f32_space, &centers),
                ),
            )
        });
        assert_eq!(d, want, "dense arm, {} centers", centers.len());
        assert_eq!(g, want, "grid arm, {} centers", centers.len());
    }
}

/// A stream's re-compression selects about 1,000 of 1,050 representatives
/// at d = 3.  Under `auto` the n = 2^10 relax records send that selection
/// to the grid arm (the dropped-row scan records no scan), and the summary
/// it leaves is the dense-pinned one, bit for bit.
#[test]
fn fold_recompression_follows_the_relax_crossover() {
    use kcenter_data::{GauGenerator, PointGenerator};
    const BUDGET: usize = 1_000;
    let batch = |seed| {
        let space: VecSpace = VecSpace::from_flat(GauGenerator::new(4_000, 25).generate_flat(seed));
        GonzalezCoresetConfig::new(525)
            .with_machines(4)
            .build(&space)
            .unwrap()
    };
    let _guard = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    grid::set_choice(AssignChoice::Fixed(AssignMode::Dense));
    let merged = batch(1).merge(&batch(2)).unwrap();
    let support = merged.weights().iter().filter(|&&w| w > 0).count();
    assert!(support >= 1 << 10, "{support} positive-weight rows");
    let dense = merged.recompress(BUDGET).unwrap();
    grid::set_choice(AssignChoice::Auto);
    grid::reset_scan_counts();
    let auto = merged.recompress(BUDGET).unwrap();
    let counts = grid::scan_counts();
    assert_eq!(counts, (1, 0), "the selection must run on the grid arm");
    assert_eq!(auto.source_ids(), dense.source_ids());
    assert_eq!(auto.weights(), dense.weights());
    assert_eq!(
        auto.construction_radius().to_bits(),
        dense.construction_radius().to_bits()
    );
    assert_eq!(auto.to_bytes(), dense.to_bytes());
}
