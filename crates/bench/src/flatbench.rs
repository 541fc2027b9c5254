//! The flat-layout micro-benchmark.
//!
//! Both `bench_flat` (Criterion) and the `flat_report` binary (which writes
//! `BENCH_flat.json`) measure the same operation — one Gonzalez iteration,
//! i.e. one "relax nearest-center distances against a new center" pass plus
//! the farthest-point argmax: the fused `relax_max` pass over
//! [`FlatPoints`] rows in squared space — exactly what `select_centers`
//! runs — plus the chunked-parallel variant, at **both storage precisions**
//! (`f64` and `f32`; the scan is DRAM-bound at n = 1M, so the halved bytes
//! of the `f32` rows are the measurement that justifies the precision
//! mode).
//!
//! The assignment arms ([`dense_assign_scan`] vs the spatial-grid
//! [`grid_assign_scan`], on [`clustered_flat`] data with
//! [`gonzalez_centers`] as candidates) back the `assign_results` and
//! `assign_crossover` records that `kcenter_metric::grid::ASSIGN_CROSSOVER`
//! copies; `flat_report` times whole Gonzalez selections under each pinned
//! arm for the `relax_crossover` records behind `RELAX_CROSSOVER`.  Both
//! reduce their timings to one threshold with [`crossover_k`].

use kcenter_metric::grid::{SpatialGrid, NEAREST_OCCUPANCY};
use kcenter_metric::kernel::simd;
use kcenter_metric::{Euclidean, FlatPoints, KernelBackend, Scalar, VecSpace};

/// One Gonzalez iteration on the flat layout: the fused row-streaming pass
/// `select_centers` runs on the full space, at whatever storage precision
/// the space carries.
pub fn flat_iteration<S: Scalar>(
    space: &VecSpace<Euclidean, S>,
    center: usize,
    nearest: &mut [S],
) -> (usize, S) {
    space.relax_max(None, center, nearest, false)
}

/// One Gonzalez iteration on the flat layout, chunked-parallel variant.
pub fn flat_par_iteration<S: Scalar>(
    space: &VecSpace<Euclidean, S>,
    center: usize,
    nearest: &mut [S],
) -> (usize, S) {
    space.relax_max(None, center, nearest, true)
}

/// [`flat_iteration`] under an explicit kernel backend — the A/B harness
/// entry: installs the backend in the dispatch table, then runs the same
/// fused pass the solvers run.  The `flat_report` binary interleaves this
/// across backends so `BENCH_flat.json` carries scalar and SIMD rows from
/// one measurement loop.
///
/// # Panics
///
/// Panics if `backend` is not available in this build on this machine.
pub fn flat_iteration_under<S: Scalar>(
    backend: KernelBackend,
    space: &VecSpace<Euclidean, S>,
    center: usize,
    nearest: &mut [S],
) -> (usize, S) {
    simd::set_active(backend).expect("requested kernel backend is available");
    space.relax_max(None, center, nearest, false)
}

/// Deterministic clustered workload for the grid-vs-dense assignment
/// benchmark: `k_prime` cluster centres uniform in `[0, side]^dim`, each
/// point a uniform offset of at most `side / 50` around its (round-robin)
/// centre.  Clustered data is the regime the paper's GAU/UNB workloads
/// live in and the one where spatial bucketing pays: most grid cells are
/// empty and the member bboxes are tight.
pub fn clustered_flat<S: Scalar>(n: usize, dim: usize, k_prime: usize, seed: u64) -> FlatPoints<S> {
    let side = 1000.0;
    let spread = side / 50.0;
    let mut state = seed.wrapping_mul(2).wrapping_add(1);
    let mut next_f64 = move || {
        // SplitMix64 to a uniform in [0, 1).
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / (u64::MAX as f64 + 1.0)
    };
    let centres: Vec<f64> = (0..k_prime * dim).map(|_| next_f64() * side).collect();
    let mut coords: Vec<S> = Vec::with_capacity(n * dim);
    for p in 0..n {
        let c = (p % k_prime) * dim;
        for i in 0..dim {
            coords.push(S::from_f64(centres[c + i] + (next_f64() - 0.5) * spread));
        }
    }
    FlatPoints::from_coords(coords, dim).expect("clustered workload dimensions are consistent")
}

/// The first `k` centers a farthest-point (Gonzalez) traversal picks,
/// starting from row 0 — the candidate distribution the assignment scans
/// face in practice.  Solver-chosen centers are spread out by
/// construction; an arbitrary index stride is not (on the round-robin
/// clustered store a stride divisible by `k_prime` lands every candidate
/// in one cluster, which neuters cell pruning on both arms and benchmarks
/// a workload no solver produces).  Prefixes are themselves Gonzalez
/// center sets, so one call serves a whole `k` sweep.
pub fn gonzalez_centers<S: Scalar>(space: &VecSpace<Euclidean, S>, k: usize) -> Vec<usize> {
    let mut nearest = vec![S::INFINITY; space.len()];
    let mut centers = Vec::with_capacity(k);
    let mut next = 0usize;
    for _ in 0..k {
        centers.push(next);
        next = space.relax_max(None, next, &mut nearest, false).0;
    }
    centers
}

/// One dense assignment scan: per-point argmin over `centers` with
/// smallest-position tie-breaking, through the fused
/// [`VecSpace::nearest`] scan — the dense arm of `evaluate::assign` and
/// the coreset weights round.  Returns a label checksum so the work cannot
/// be discarded.
pub fn dense_assign_scan<S: Scalar>(space: &VecSpace<Euclidean, S>, centers: &[usize]) -> u64 {
    let mut acc = 0u64;
    for p in 0..space.len() {
        acc = acc.wrapping_add(space.nearest(p, centers).0 as u64);
    }
    acc
}

/// One grid assignment scan: bucket the centers once ([`NEAREST_OCCUPANCY`],
/// charged here) and answer every point's nearest-center query from the
/// ring sweep.  `None` when the grid refuses the center set.
pub fn grid_assign_scan<S: Scalar>(
    space: &VecSpace<Euclidean, S>,
    centers: &[usize],
) -> Option<u64> {
    let grid = SpatialGrid::build(space, centers, NEAREST_OCCUPANCY)?;
    let mut acc = 0u64;
    for p in 0..space.len() {
        acc = acc.wrapping_add(grid.nearest_member(space, centers, p).0 as u64);
    }
    Some(acc)
}

/// The crossover a `(n, dim)` record states: the smallest probed count at
/// which the grid arm beat the dense one and kept beating it at every
/// larger probed count, or `None` when it lost at the largest.  Requiring
/// the win to hold from there on keeps one noisy early win from moving the
/// threshold.
pub fn crossover_k(ks: &[usize], dense_ns: &[u128], grid_ns: &[u128]) -> Option<usize> {
    let mut crossover = None;
    for ((&k, d), g) in ks.iter().zip(dense_ns).zip(grid_ns).rev() {
        if g >= d {
            break;
        }
        crossover = Some(k);
    }
    crossover
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcenter_data::{PointGenerator, UnifGenerator};
    use kcenter_metric::kernel;

    #[test]
    fn f32_iteration_picks_the_same_farthest_point_as_f64() {
        let g = UnifGenerator::with_dim_and_side(2_000, 16, 100.0);
        let flat64 = g.generate_flat(5);
        let flat32 = g.generate_flat_at::<f32>(5);
        let space64 = VecSpace::from_flat(flat64);
        let space32 = VecSpace::from_flat(flat32);
        let mut near64 = vec![f64::INFINITY; 2_000];
        let mut near32 = vec![f32::INFINITY; 2_000];
        let (far64, d64) = flat_iteration(&space64, 0, &mut near64);
        let (far32, d32) = flat_iteration(&space32, 0, &mut near32);
        assert_eq!(far64, far32, "precisions disagree on the farthest point");
        // The f32 surrogate matches the f64 one to input-rounding accuracy.
        assert!((d64 - d32 as f64).abs() <= 1e-4 * (1.0 + d64));
    }

    #[test]
    fn backend_pinned_iterations_agree_on_the_farthest_point() {
        // Parity check at the kernel level (no global dispatch mutation, so
        // concurrently running tests are unaffected): every available
        // backend picks the same farthest point on a random 16-d cloud.
        let g = UnifGenerator::with_dim_and_side(2_000, 16, 100.0);
        let flat = g.generate_flat(5);
        let mut reference: Option<(usize, f64)> = None;
        for backend in simd::available_backends() {
            let mut nearest = vec![f64::INFINITY; 2_000];
            let got = kernel::relax_max_rows_coords_with(
                backend,
                flat.coords(),
                16,
                flat.row(0),
                &mut nearest,
            );
            match reference {
                None => reference = Some(got),
                Some((pos, val)) => {
                    assert_eq!(got.0, pos, "{backend}: winner diverged");
                    assert!(
                        (got.1 - val).abs() <= 1e-9 * (1.0 + val),
                        "{backend}: value diverged ({} vs {val})",
                        got.1
                    );
                }
            }
        }
    }

    #[test]
    fn grid_and_dense_bench_arms_agree() {
        // Integer-snapped coordinates force exact distance ties, so the
        // lowest-index tie-break of both arms is exercised.
        let snapped: Vec<f64> = clustered_flat::<f64>(4_000, 4, 25, 11)
            .coords()
            .iter()
            .map(|c| c.round())
            .collect();
        let flat = FlatPoints::from_coords(snapped, 4).expect("consistent dims");
        let space = VecSpace::from_flat(flat);
        let centers = gonzalez_centers(&space, 40);
        let dense_sum = dense_assign_scan(&space, &centers);
        let grid_sum = grid_assign_scan(&space, &centers).expect("center set buckets fine");
        assert_eq!(dense_sum, grid_sum);
    }

    #[test]
    fn auto_mode_matches_the_committed_crossover_records() {
        use crate::scenario::{parse_json, Value};
        use kcenter_metric::grid::{
            auto_mode, AssignMode, ScanKind, ScanShape, ASSIGN_CROSSOVER, RELAX_CROSSOVER,
        };

        let bench = parse_json(include_str!("../../../BENCH_flat.json")).expect("record parses");
        let usizes = |row: &Value, key: &str| -> Vec<usize> {
            row.get(key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("record without {key}"))
                .iter()
                .map(|v| v.as_usize().expect("non-negative integer"))
                .collect()
        };
        let field = |row: &Value, key: &str| {
            row.get(key)
                .and_then(Value::as_usize)
                .unwrap_or_else(|| panic!("record without {key}"))
        };
        for (kind, section, arms, table) in [
            (
                ScanKind::Assign,
                "assign_crossover",
                ["dense_assign_ns", "grid_assign_ns"],
                &ASSIGN_CROSSOVER[..],
            ),
            (
                ScanKind::Relax,
                "relax_crossover",
                ["dense_select_ns", "grid_select_ns"],
                &RELAX_CROSSOVER[..],
            ),
        ] {
            let rows = bench
                .get(section)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("{section} records"));
            let mut records = Vec::new();
            for row in rows {
                let (n, dim) = (field(row, "n"), field(row, "dim"));
                let crossover = row.get("crossover_k").and_then(Value::as_usize);
                let ks = usizes(row, "ks");
                // The stated crossover is the one its own timings give.
                let ns = |key| -> Vec<u128> {
                    usizes(row, key).into_iter().map(|t| t as u128).collect()
                };
                assert_eq!(
                    crossover,
                    crossover_k(&ks, &ns(arms[0]), &ns(arms[1])),
                    "{section} n={n} dim={dim}"
                );
                for k in ks {
                    let want = match crossover {
                        Some(c) if k >= c => AssignMode::Grid,
                        _ => AssignMode::Dense,
                    };
                    let shape = ScanShape {
                        kind,
                        points: n,
                        candidates: k,
                        dim,
                    };
                    assert_eq!(auto_mode(shape), want, "{shape:?}");
                }
                records.push((n, dim, crossover));
            }
            assert_eq!(
                records, table,
                "{section}: table drifted from BENCH_flat.json"
            );
            // The point floor: below the smallest n at which the grid won,
            // every scan stays dense.
            let floor = records
                .iter()
                .filter(|r| r.2.is_some())
                .map(|r| r.0)
                .min()
                .expect("the grid wins on some record");
            for &(_, dim, _) in &records {
                let shape = ScanShape {
                    kind,
                    points: floor - 1,
                    candidates: usize::MAX,
                    dim,
                };
                assert_eq!(auto_mode(shape), AssignMode::Dense, "{shape:?}");
            }
        }
    }

    #[test]
    fn crossover_needs_the_win_to_hold_at_every_larger_count() {
        let ks = [4, 8, 16, 32];
        assert_eq!(crossover_k(&ks, &[5, 5, 5, 5], &[9, 4, 3, 2]), Some(8));
        // An early win that does not last is no crossover.
        assert_eq!(crossover_k(&ks, &[5, 5, 5, 5], &[4, 6, 3, 2]), Some(16));
        assert_eq!(crossover_k(&ks, &[5, 5, 5, 5], &[4, 4, 4, 5]), None);
        assert_eq!(crossover_k(&ks, &[5, 5, 5, 5], &[1, 1, 1, 1]), Some(4));
    }

    #[test]
    fn fused_iteration_matches_separate_relax_and_argmax() {
        // The oracle: `kernel::relax_nearest` then `kernel::argmax`, two
        // plain passes.  Integer coordinates keep every squared distance
        // exact, so the fused pass must match it under every kernel backend.
        let g = UnifGenerator::with_dim_and_side(3_000, 2, 50.0);
        let flat = FlatPoints::from_coords(
            g.generate_flat(9)
                .coords()
                .iter()
                .map(|c| c.round())
                .collect(),
            2,
        )
        .expect("consistent dims");
        let space = VecSpace::from_flat(flat.clone());
        let all: Vec<usize> = (0..space.len()).collect();
        let subset: Vec<usize> = all.iter().copied().rev().step_by(2).collect();
        for (scan, ids) in [(None, &all), (Some(subset.as_slice()), &subset)] {
            let mut fused = vec![f64::INFINITY; ids.len()];
            let mut oracle = fused.clone();
            for center in [0usize, 77, 1_500] {
                let got = space.relax_max(scan, center, &mut fused, false);
                kernel::relax_nearest(&flat, ids, center, &mut oracle);
                assert_eq!(Some(got), kernel::argmax(&oracle), "center {center}");
                assert_eq!(fused, oracle, "center {center}");
            }
        }
    }
}
