//! The non-Euclidean half of `VecSpace<D, S>`: every solver on Manhattan.
//!
//! The scenario harness's `manhattan` axis is the only non-Euclidean
//! distance the system runs, and it takes paths the Euclidean runs never
//! reach: the per-pair `Distance` defaults instead of the fused kernels,
//! and the dense arm whatever `--assign` says (the grid needs squared-L2
//! surrogates).  These tests run GON, HS, MRG and EIM, plus
//! `covering_radius` and `assign`, on integer-coordinate clouds, at both
//! storage precisions, and hold them to oracles computed here from the
//! integer coordinates alone:
//!
//! * each solver's centers are pinned;
//! * each radius equals the per-pair max-min over those centers exactly
//!   (integer sums are exact in `f64` and, at these magnitudes, in `f32`);
//! * `assign` equals the per-pair argmin, ties toward the smaller position;
//! * GON's radius is at most twice the brute-force optimum.

use kcenter_core::brute_force::optimal_radius;
use kcenter_core::evaluate::{assign, covering_radius};
use kcenter_core::prelude::*;
use kcenter_metric::{FlatPoints, Manhattan, PointId, Scalar, VecSpace};

/// A deterministic cloud of `n` points with integer coordinates in
/// `0..side` on both axes.
fn cloud(n: usize, side: u64, seed: u64) -> Vec<[i64; 2]> {
    (0..n as u64)
        .map(|i| {
            let v = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i)
                .wrapping_mul(0xD129_0DDB_53C4_3E49);
            [(v % side) as i64, ((v >> 24) % side) as i64]
        })
        .collect()
}

fn space<S: Scalar>(points: &[[i64; 2]]) -> VecSpace<Manhattan, S> {
    let coords = points
        .iter()
        .flat_map(|p| p.iter().map(|&c| S::from_f64(c as f64)))
        .collect();
    VecSpace::from_flat_with_distance(FlatPoints::from_coords(coords, 2).unwrap(), Manhattan)
}

fn l1(a: [i64; 2], b: [i64; 2]) -> i64 {
    (a[0] - b[0]).abs() + (a[1] - b[1]).abs()
}

/// The per-pair max-min: the largest distance from a point to its nearest
/// center.
fn radius_oracle(points: &[[i64; 2]], centers: &[PointId]) -> f64 {
    let nearest = |p: [i64; 2]| centers.iter().map(|&c| l1(p, points[c])).min().unwrap();
    points.iter().map(|&p| nearest(p)).max().unwrap() as f64
}

/// The per-pair argmin: each point's nearest center position, ties toward
/// the smaller position.
fn assign_oracle(points: &[[i64; 2]], centers: &[PointId]) -> Vec<usize> {
    points
        .iter()
        .map(|&p| {
            let mut best = (0, i64::MAX);
            for (pos, &c) in centers.iter().enumerate() {
                let d = l1(p, points[c]);
                if d < best.1 {
                    best = (pos, d);
                }
            }
            best.0
        })
        .collect()
}

/// Checks a solver's answer against the oracles and returns its centers.
fn checked(points: &[[i64; 2]], solution: &KCenterSolution, label: &str) -> Vec<PointId> {
    assert_eq!(
        solution.radius,
        radius_oracle(points, &solution.centers),
        "{label}: radius is not the max-min over its centers"
    );
    solution.centers.clone()
}

/// GON, HS, MRG (two rounds on 4 machines), EIM (falling back to one
/// sequential round at this size), `covering_radius` and `assign` on a
/// 24-point cloud (the brute-force limit), at storage precision `S`.
fn small_cloud_run<S: Scalar>() {
    let points = cloud(24, 20, 7);
    let space = space::<S>(&points);
    let k = 4;

    let gon = GonzalezConfig::new(k).solve(&space).unwrap();
    assert_eq!(checked(&points, &gon, "GON"), [0, 16, 13, 3], "GON");
    let opt = optimal_radius(&space, k).unwrap();
    assert_eq!(opt, 7.0, "brute-force optimum");
    assert!(
        gon.radius <= 2.0 * opt,
        "GON {} > 2 * OPT {opt}",
        gon.radius
    );

    let hs = HochbaumShmoysConfig::new(k).solve(&space).unwrap();
    assert_eq!(checked(&points, &hs, "HS"), [0, 3, 9, 12], "HS");

    let mrg = MrgConfig::new(k)
        .with_machines(4)
        .with_capacity(16)
        .run(&space)
        .unwrap();
    assert_eq!(mrg.mapreduce_rounds, 2);
    assert_eq!(
        checked(&points, &mrg.solution, "MRG"),
        [0, 12, 13, 3],
        "MRG"
    );

    let eim = EimConfig::new(k).with_machines(4).run(&space).unwrap();
    assert!(eim.fell_back_to_sequential);
    assert_eq!(checked(&points, &eim.solution, "EIM"), gon.centers, "EIM");

    for centers in [&gon.centers, &hs.centers, &[3, 17][..]] {
        assert_eq!(
            covering_radius(&space, centers),
            radius_oracle(&points, centers)
        );
        assert_eq!(assign(&space, centers), assign_oracle(&points, centers));
    }
}

#[test]
fn every_solver_on_a_small_manhattan_cloud_f64() {
    small_cloud_run::<f64>();
}

#[test]
fn every_solver_on_a_small_manhattan_cloud_f32() {
    small_cloud_run::<f32>();
}

/// EIM with its sampling rounds running (4,000 points, k = 2, ε = 0.13
/// puts the loop threshold near 1,500) and MRG over its default 50
/// machines, at storage precision `S`.
fn sampling_cloud_run<S: Scalar>() {
    let points = cloud(4_000, 1_000, 11);
    let space = space::<S>(&points);

    let eim = EimConfig::new(2)
        .with_epsilon(0.13)
        .with_machines(8)
        .with_seed(1)
        .run(&space)
        .unwrap();
    assert!(eim.iterations > 0, "EIM must sample at this size");
    assert_eq!(checked(&points, &eim.solution, "EIM"), [6, 873], "EIM");

    let mrg = MrgConfig::new(5).run(&space).unwrap();
    assert_eq!(mrg.mapreduce_rounds, 2);
    assert_eq!(
        checked(&points, &mrg.solution, "MRG"),
        [0, 873, 2097, 2913, 3535],
        "MRG"
    );
    assert_eq!(
        assign(&space, &mrg.solution.centers),
        assign_oracle(&points, &mrg.solution.centers)
    );
}

#[test]
fn eim_samples_and_mrg_shards_a_manhattan_cloud_f64() {
    sampling_cloud_run::<f64>();
}

#[test]
fn eim_samples_and_mrg_shards_a_manhattan_cloud_f32() {
    sampling_cloud_run::<f32>();
}
