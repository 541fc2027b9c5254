//! Shape tests for the paper's headline experimental findings, run at
//! reduced scale: who wins, by roughly what factor, and where the regime
//! changes fall.  Absolute numbers differ from the paper (different
//! hardware, different language, scaled-down inputs), but these qualitative
//! relations are what the evaluation section is about and they must hold.

use kcenter::prelude::*;
use std::time::Instant;

/// Workload sizes are kept modest so the whole file runs in seconds even in
/// debug builds; the full-scale experiments live in the bench crate.
const N: usize = 30_000;

fn gau_space(seed: u64) -> VecSpace {
    VecSpace::new(GauGenerator::new(N, 25).generate(seed))
}

#[test]
fn mrg_beats_the_sequential_baseline_under_the_paper_runtime_metric() {
    // Paper, Section 8: "Overall MRG is faster than the alternative
    // procedures - often by orders of magnitude".  At this reduced scale we
    // conservatively require a 3x win for the simulated (max machine time
    // per round) metric.
    let space = gau_space(1);
    let k = 25;

    let start = Instant::now();
    let _gon = GonzalezConfig::new(k).solve(&space).unwrap();
    let gon_seconds = start.elapsed().as_secs_f64();

    let mrg = MrgConfig::new(k).run(&space).unwrap();
    let mrg_seconds = mrg.stats.simulated_time().as_secs_f64();

    assert!(
        mrg_seconds * 3.0 < gon_seconds,
        "MRG simulated time {mrg_seconds:.4}s is not clearly below GON {gon_seconds:.4}s"
    );
}

#[test]
fn eim_is_slower_than_mrg_despite_being_parallel() {
    // Paper, Section 8: "EIM running slower than the sequential algorithm
    // despite being parallelized".  We assert the weaker, more robust half
    // of that finding: EIM is slower than MRG under the simulated metric.
    let space = VecSpace::new(UnifGenerator::new(N).generate(2));
    let k = 2; // small k so the sampling loop actually runs at this scale
    let eim = EimConfig::new(k)
        .with_epsilon(0.11)
        .with_seed(3)
        .run(&space)
        .unwrap();
    assert!(
        !eim.fell_back_to_sequential,
        "test needs the sampling loop to run"
    );
    let mrg = MrgConfig::new(k).run(&space).unwrap();
    let eim_seconds = eim.stats.simulated_time().as_secs_f64();
    let mrg_seconds = mrg.stats.simulated_time().as_secs_f64();
    assert!(
        eim_seconds > mrg_seconds,
        "EIM ({eim_seconds:.4}s) should be slower than MRG ({mrg_seconds:.4}s)"
    );
}

#[test]
fn solution_values_of_all_three_algorithms_are_comparable() {
    // Paper, Section 8.1: "the solutions for the parallelized algorithms
    // are comparable to those of the baseline, GON".  We require every pair
    // to be within 60% of each other — far tighter than the worst-case
    // factors (4 and 10) but looser than the few-percent differences the
    // paper reports.
    let space = gau_space(4);
    for k in [5usize, 25] {
        let gon = GonzalezConfig::new(k).solve(&space).unwrap().radius;
        let mrg = MrgConfig::new(k).run(&space).unwrap().solution.radius;
        let eim = EimConfig::new(k)
            .with_seed(5)
            .run(&space)
            .unwrap()
            .solution
            .radius;
        for (name, v) in [("MRG", mrg), ("EIM", eim)] {
            assert!(
                v <= 1.6 * gon && v >= 0.4 * gon,
                "{name} value {v:.3} is not comparable to GON {gon:.3} at k={k}"
            );
        }
    }
}

#[test]
fn objective_collapses_once_k_reaches_the_planted_cluster_count() {
    // Tables 2 and 4: for GAU/UNB with k' = 25 the objective drops by
    // orders of magnitude between k = 10 and k = 25 (from ~40 to ~1).
    let space = gau_space(6);
    let at_10 = MrgConfig::new(10).run(&space).unwrap().solution.radius;
    let at_25 = MrgConfig::new(25).run(&space).unwrap().solution.radius;
    assert!(
        at_25 * 3.0 < at_10,
        "objective should collapse at k = k' (k=10: {at_10:.3}, k=25: {at_25:.3})"
    );
}

#[test]
fn eim_degenerates_to_gon_when_k_is_large_relative_to_n() {
    // Figures 3b / 4b: "if k is large enough, the condition is never met
    // and no sampling occurs, so GON is run on the entire data set".
    let space = VecSpace::new(GauGenerator::new(5_000, 50).generate(7));
    let eim = EimConfig::new(100).with_seed(8).run(&space).unwrap();
    assert!(eim.fell_back_to_sequential);
    let gon = GonzalezConfig::new(100).solve(&space).unwrap();
    assert_eq!(eim.solution.radius, gon.radius);
}

#[test]
fn lowering_phi_reduces_eim_work() {
    // Table 7: runtimes drop substantially as phi decreases.  Timing at
    // this scale is noisy, so we assert on the deterministic proxy the
    // runtime is made of: the total number of items processed by reducers.
    let space = VecSpace::new(GauGenerator::new(N, 25).generate(9));
    let run = |phi: f64| {
        EimConfig::new(2)
            .with_epsilon(0.11)
            .with_phi(phi)
            .with_seed(10)
            .run(&space)
            .unwrap()
    };
    let low = run(1.0);
    let high = run(8.0);
    assert!(!high.fell_back_to_sequential);
    assert!(
        low.stats.total_items_in() <= high.stats.total_items_in(),
        "phi=1 processed more items ({}) than phi=8 ({})",
        low.stats.total_items_in(),
        high.stats.total_items_in()
    );
}

#[test]
fn grid_auto_falls_back_to_dense_in_high_dimension() {
    // The spatial-grid crossover only pays off while cells still prune:
    // in the adversarial d ∈ {64, 128} regime every point lands in its
    // own cell and bucketing is pure overhead, so `auto` must resolve to
    // the dense scan no matter how large the scan is.  (`auto_mode` is the
    // pure decision function behind `select_mode`; asserting on it keeps
    // this test immune to the process-global scan telemetry that parallel
    // tests in this binary are updating.)
    use kcenter::metric::grid::{auto_mode, AssignMode, ScanKind, ScanShape};
    for kind in [ScanKind::Assign, ScanKind::Relax] {
        for dim in [64, 128] {
            for (points, candidates) in [(30_000, 25), (1 << 20, 512)] {
                assert_eq!(
                    auto_mode(ScanShape {
                        kind,
                        points,
                        candidates,
                        dim
                    }),
                    AssignMode::Dense,
                    "d={dim} must stay dense (points={points}, candidates={candidates})"
                );
            }
        }
        // Contrast: a large scan in a bucketing-friendly dimension goes
        // grid.
        assert_eq!(
            auto_mode(ScanShape {
                kind,
                points: 1 << 20,
                candidates: 1 << 10,
                dim: 2
            }),
            AssignMode::Grid
        );
    }
    // End to end, the high-dimensional workload solves under auto dispatch.
    let flat = GauGenerator::with_params(4_096, 8, 64, 100.0, 0.002).generate_flat_at::<f64>(12);
    let space: VecSpace = VecSpace::from_flat(flat);
    let sol = GonzalezConfig::new(8).solve(&space).unwrap();
    assert_eq!(sol.centers.len(), 8);
}

#[test]
fn dropping_planted_outliers_strictly_improves_the_certified_radius() {
    // The robust objective's shape claim: on GAU+OUT the full-space radius
    // is set by the planted far outliers, so certifying over the kept
    // n − z points must strictly shrink it — substantially, not by noise.
    let gen = PlantedOutlierGenerator::new(N, 25, N / 100);
    let space: VecSpace = VecSpace::from_flat(gen.generate_flat_at::<f64>(13));
    let sol = GonzalezConfig::new(25).solve(&space).unwrap();
    let eval = evaluate_with_outliers(&space, &sol.centers, N / 100);
    assert_eq!(eval.full_radius.to_bits(), sol.radius.to_bits());
    assert!(
        eval.radius < 0.9 * eval.full_radius,
        "dropping the planted z must clearly improve: kept {} vs full {}",
        eval.radius,
        eval.full_radius
    );
    // Monotone: half the budget still never hurts.
    let half = evaluate_with_outliers(&space, &sol.centers, N / 200);
    assert!(eval.radius <= half.radius && half.radius <= eval.full_radius);
}

#[test]
fn mrg_runtime_grows_roughly_linearly_in_n() {
    // Figure 4a: for fixed k, MRG's runtime is dominated by the k*n/m term,
    // so quadrupling n should increase the simulated time clearly, but far
    // less than quadratically.
    let small = VecSpace::new(UnifGenerator::new(10_000).generate(11));
    let large = VecSpace::new(UnifGenerator::new(40_000).generate(11));
    let t_small = MrgConfig::new(10)
        .run(&small)
        .unwrap()
        .stats
        .sequential_time()
        .as_secs_f64();
    let t_large = MrgConfig::new(10)
        .run(&large)
        .unwrap()
        .stats
        .sequential_time()
        .as_secs_f64();
    let ratio = t_large / t_small.max(1e-9);
    assert!(
        ratio > 1.5 && ratio < 16.0,
        "scaling n by 4 changed MRG total work by {ratio:.2}x, outside the plausible linear-ish band"
    );
}
