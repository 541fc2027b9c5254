//! Property tests pinning the flat-kernel rewrite to the scalar reference
//! implementations: the SoA kernels must agree with naive per-point
//! distance code to 1e-12 on random points (all metrics, dimensions 1–64),
//! and the parallel relax scan must match the sequential one bit-for-bit.

use kcenter_metric::kernel::{argmax, dist2, relax_nearest, PAR_CUTOFF};
use kcenter_metric::{
    Distance, Euclidean, FlatPoints, Manhattan, Point, Scalar, SquaredEuclidean, VecSpace,
};
use proptest::prelude::*;

/// Naive scalar references, written exactly like the pre-flat `Point`-based
/// implementations: one pass, single accumulator, `sqrt` per call.
mod reference {
    pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
        squared_euclidean(a, b).sqrt()
    }

    pub fn squared_euclidean(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
    }

    pub fn manhattan(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).sum()
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()))
}

/// Strategy: a pair of same-dimension coordinate rows, dim in 1..=64.
fn row_pair() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (1usize..=64).prop_flat_map(|dim| {
        (
            prop::collection::vec(-1000.0f64..1000.0, dim),
            prop::collection::vec(-1000.0f64..1000.0, dim),
        )
    })
}

/// Strategy: a flat cloud of n points (2..=96) with dim in 1..=64.
fn flat_cloud() -> impl Strategy<Value = FlatPoints> {
    (1usize..=64, 2usize..=96).prop_flat_map(|(dim, n)| {
        prop::collection::vec(-1000.0f64..1000.0, dim * n)
            .prop_map(move |coords| FlatPoints::from_coords(coords, dim).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dist2_kernel_agrees_with_scalar_reference((a, b) in row_pair()) {
        prop_assert!(close(dist2(&a, &b), reference::squared_euclidean(&a, &b)));
    }

    #[test]
    fn slice_distances_agree_with_scalar_references((a, b) in row_pair()) {
        prop_assert!(close(Euclidean.distance_slices(&a, &b), reference::euclidean(&a, &b)));
        prop_assert!(close(
            SquaredEuclidean.distance_slices(&a, &b),
            reference::squared_euclidean(&a, &b)
        ));
        prop_assert!(close(Manhattan.distance_slices(&a, &b), reference::manhattan(&a, &b)));
    }

    #[test]
    fn slice_distance_matches_point_distance((a, b) in row_pair()) {
        let (pa, pb) = (Point::new(a.clone()), Point::new(b.clone()));
        prop_assert_eq!(Euclidean.distance(&pa, &pb), Euclidean.distance_slices(&a, &b));
        prop_assert_eq!(Manhattan.distance(&pa, &pb), Manhattan.distance_slices(&a, &b));
    }

    #[test]
    fn surrogates_round_trip_to_distances((a, b) in row_pair()) {
        // The scalar-generic methods make `Distance` non-dyn-compatible,
        // so enumerate the metrics statically.
        macro_rules! check {
            ($m:expr) => {{
                let m = $m;
                let d = m.distance_slices(&a, &b);
                let s: f64 = m.surrogate(&a, &b);
                prop_assert!(
                    close(m.surrogate_to_distance(s), d),
                    "{}: surrogate {} does not round-trip to {}", m.name(), s, d
                );
                let w = m.wide_surrogate(&a, &b);
                prop_assert!(
                    close(m.wide_surrogate_to_distance(w), d),
                    "{}: wide surrogate {} does not round-trip to {}", m.name(), w, d
                );
            }};
        }
        check!(Euclidean);
        check!(SquaredEuclidean);
        check!(Manhattan);
    }

    #[test]
    fn relax_kernel_matches_pairwise_scan(flat in flat_cloud()) {
        let subset: Vec<usize> = (0..flat.len()).collect();
        let centers: Vec<usize> = (0..flat.len()).step_by(5).collect();
        let mut nearest = vec![f64::INFINITY; subset.len()];
        for &c in &centers {
            relax_nearest(&flat, &subset, c, &mut nearest);
        }
        for (pos, &p) in subset.iter().enumerate() {
            let naive = centers
                .iter()
                .map(|&c| dist2(flat.row(p), flat.row(c)))
                .fold(f64::INFINITY, f64::min);
            prop_assert_eq!(nearest[pos], naive);
        }
    }

    #[test]
    fn space_cmp_scans_agree_with_distance_scans(flat in flat_cloud()) {
        let space = VecSpace::from_flat(flat);
        let centers: Vec<usize> = (0..space.len()).step_by(4).collect();
        for p in 0..space.len() {
            let nearest_cmp = centers
                .iter()
                .map(|&c| space.cmp_distance(p, c))
                .fold(f64::INFINITY, f64::min);
            let m = space.metric();
            let via_cmp = m.surrogate_to_distance(nearest_cmp);
            let direct = centers
                .iter()
                .map(|&c| space.distance(p, c))
                .fold(f64::INFINITY, f64::min);
            prop_assert!(close(via_cmp, direct));
            // Early exit below the true minimum returns the exact minimum.
            let stop = m.distance_to_wide_surrogate(direct * 0.5);
            let bounded = space.wide_cmp_distance_to_set_bounded(p, &centers, stop);
            prop_assert!(close(m.wide_surrogate_to_distance(bounded), direct));
        }
    }

    #[test]
    fn space_nearest_scans_match_pairwise_scans(flat in flat_cloud()) {
        // Euclidean runs the fused kernels, Manhattan the per-pair trait
        // defaults: both must give the pair-by-pair bits.
        macro_rules! check {
            ($space:expr) => {{
                let space = $space;
                let centers: Vec<usize> = (0..space.len()).rev().step_by(3).collect();
                for p in 0..space.len() {
                    let mut want = (0, f64::INFINITY);
                    for (i, &c) in centers.iter().enumerate() {
                        let d = space.cmp_distance(p, c);
                        if d < want.1 {
                            want = (i, d);
                        }
                    }
                    prop_assert_eq!(space.nearest(p, &centers), want);
                    let wide = centers
                        .iter()
                        .map(|&c| space.wide_cmp_distance(p, c))
                        .fold(f64::INFINITY, f64::min);
                    prop_assert_eq!(space.wide_cmp_distance_to_set(p, &centers), wide);
                }
            }};
        }
        check!(VecSpace::from_flat(flat.clone()));
        check!(VecSpace::from_flat_with_distance(flat, Manhattan));
    }
}

/// Deterministic large clouds for the bit-for-bit parallel/sequential
/// comparisons (the parallel relax scan only forks above its cutoff, so
/// these need to be big).  Coordinates are integers in `[-500, 500]`: at
/// dimension 16 or less every squared distance and partial sum stays below
/// 2^24, so the values are exact at `f32` and under every kernel backend.
fn big_cloud(n: usize, dim: usize, seed: u64) -> FlatPoints {
    let coords: Vec<f64> = (0..n * dim)
        .map(|i| {
            let v = (i as u64)
                .wrapping_add(seed)
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((v >> 33) % 1_001) as f64 - 500.0
        })
        .collect();
    FlatPoints::from_coords(coords, dim).unwrap()
}

/// Runs a short Gonzalez trajectory over the whole space (`None`) and over a
/// proper subset above the cutoff: the parallel and sequential relax scans
/// must agree bit for bit, and both must equal the two-pass
/// `relax_nearest` + `argmax` oracle.
fn relax_paths_agree<S: Scalar>(flat: FlatPoints<S>) {
    let n = flat.len();
    let space = VecSpace::from_flat(flat.clone());
    let all: Vec<usize> = (0..n).collect();
    let subset: Vec<usize> = (0..n).rev().filter(|i| i % 10 != 3).collect();
    assert!(subset.len() > PAR_CUTOFF);
    for (scan, ids) in [(None, &all), (Some(subset.as_slice()), &subset)] {
        let mut seq = vec![S::INFINITY; ids.len()];
        let mut par = seq.clone();
        let mut oracle = seq.clone();
        let mut center = 0;
        for round in 0..4 {
            let got = space.relax_max(scan, center, &mut seq, false);
            let got_par = space.relax_max(scan, center, &mut par, true);
            relax_nearest(&flat, ids, center, &mut oracle);
            let label = format!("{} n={n} subset={} round {round}", S::NAME, scan.is_some());
            assert_eq!(got, got_par, "{label}");
            assert!(seq == par, "{label}: nearest arrays differ");
            assert_eq!(Some(got), argmax(&oracle), "{label}");
            assert!(seq == oracle, "{label}: nearest differs from the oracle");
            center = ids[got.0];
        }
    }
}

#[test]
fn par_relax_matches_sequential_bit_for_bit_above_cutoff() {
    for (n, dim) in [(40_000usize, 3usize), (40_000, 16)] {
        let flat = big_cloud(n, dim, 7);
        relax_paths_agree(flat.to_precision::<f32>());
        relax_paths_agree(flat);
    }
}

// ---------------------------------------------------------------------------
// Kernel-backend (SIMD dispatch) parity: the width-pinned backends must
// uphold the scalar kernels' argmax tie-breaking contract, and track the
// scalar values within accumulation-order rounding on general inputs.
// ---------------------------------------------------------------------------

mod backend_parity {
    use super::*;
    use kcenter_metric::kernel::simd::available_backends;
    use kcenter_metric::kernel::{relax_max_ids_coords_with, relax_max_rows_coords_with};

    /// An instance engineered to produce *exact* distance ties: integer
    /// coordinates in a range where every squared distance (and every
    /// partial sum, in any accumulation order, fused or not) is exactly
    /// representable at both `f32` and `f64`, plus 2–4 planted copies of a
    /// strictly-farthest row.  Yields `(dim, base coords, dup positions)`.
    fn tie_instance() -> impl Strategy<Value = (usize, Vec<i32>, Vec<usize>)> {
        (0usize..2, 12usize..60).prop_flat_map(|(dsel, n)| {
            let dim = if dsel == 0 { 8 } else { 16 };
            (
                Just(dim),
                prop::collection::vec(-20i32..=20, dim * n),
                (0usize..n, 1usize..5).prop_map(move |(start, stride)| {
                    let mut dups = vec![start, (start + stride) % n, (start + 2 * stride) % n];
                    dups.sort_unstable();
                    dups.dedup();
                    dups
                }),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Satellite contract: on inputs with exact distance ties, every
        /// available backend returns the identical `(index, value)` pair —
        /// the lowest planted position — at both `f32` and `f64`.
        #[test]
        fn fused_backends_agree_bitwise_on_engineered_ties(
            (dim, base, dups) in tie_instance()
        ) {
            let n = base.len() / dim;
            let mut coords: Vec<f64> = base.iter().map(|&c| c as f64).collect();
            // The planted farthest row: strictly farther from the origin
            // than any base row (dim·100² vs at most dim·20²), duplicated
            // at every position in `dups` — an exact multi-way tie.
            let far: Vec<f64> = (0..dim).map(|j| 100.0 + j as f64).collect();
            for &r in &dups {
                coords[r * dim..(r + 1) * dim].copy_from_slice(&far);
            }
            let coords32: Vec<f32> = coords.iter().map(|&c| c as f32).collect();
            let center = vec![0.0f64; dim];
            let center32 = vec![0.0f32; dim];
            let want_pos = dups[0];

            let mut results64 = Vec::new();
            let mut results32 = Vec::new();
            for backend in available_backends() {
                let mut near64 = vec![f64::INFINITY; n];
                let got64 =
                    relax_max_rows_coords_with(backend, &coords, dim, &center, &mut near64);
                let mut near32 = vec![f32::INFINITY; n];
                let got32 =
                    relax_max_rows_coords_with(backend, &coords32, dim, &center32, &mut near32);
                prop_assert_eq!(got64.0, want_pos, "{} f64: lowest dup must win", backend);
                prop_assert_eq!(got32.0, want_pos, "{} f32: lowest dup must win", backend);
                prop_assert_eq!(got64.1, got32.1 as f64, "{}: exact at both widths", backend);
                results64.push((got64, near64));
                results32.push((got32, near32));
            }
            // All backends agree bitwise on these exact inputs — values,
            // winner, and the whole relaxed nearest array.
            for (r64, r32) in results64.iter().zip(&results32).skip(1) {
                prop_assert_eq!(r64, &results64[0]);
                prop_assert_eq!(r32, &results32[0]);
            }

            // The id-subset kernel upholds the same rule: iterate rows in
            // reverse, so the tie resolves to the *position* of the first
            // duplicate encountered in subset order, identically everywhere.
            let subset: Vec<usize> = (0..n).rev().collect();
            let mut ids_results = Vec::new();
            for backend in available_backends() {
                let mut near = vec![f64::INFINITY; n];
                let got = relax_max_ids_coords_with(
                    backend, &coords, dim, &subset, &center, &mut near,
                );
                prop_assert_eq!(subset[got.0], *dups.last().unwrap(), "{}", backend);
                ids_results.push((got, near));
            }
            for r in ids_results.iter().skip(1) {
                prop_assert_eq!(r, &ids_results[0]);
            }
        }

        /// On general (continuous) inputs every backend stays within
        /// accumulation-order rounding of the scalar kernel, and its
        /// reported winner is consistent with its own relaxed array.
        #[test]
        fn fused_backends_track_the_scalar_kernel_on_random_inputs(
            (dim, coords) in (8usize..=32).prop_flat_map(|dim| {
                (Just(dim), prop::collection::vec(-1000.0f64..1000.0, dim * 24))
            })
        ) {
            let n = coords.len() / dim;
            let center = vec![1.0f64; dim];
            let mut scalar_near = vec![f64::INFINITY; n];
            let scalar = relax_max_rows_coords_with(
                kcenter_metric::KernelBackend::Scalar,
                &coords,
                dim,
                &center,
                &mut scalar_near,
            );
            for backend in available_backends() {
                let mut near = vec![f64::INFINITY; n];
                let got = relax_max_rows_coords_with(backend, &coords, dim, &center, &mut near);
                prop_assert!(close(got.1, scalar.1), "{}: {} vs {}", backend, got.1, scalar.1);
                prop_assert_eq!(got.1, near[got.0], "{}: winner must match its slot", backend);
                for (slot, scalar_slot) in near.iter().zip(&scalar_near) {
                    prop_assert!(close(*slot, *scalar_slot), "{}", backend);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The blocked relax loop (four slots per block, per-row tail) must leave
// every row's bits exactly where the single-row kernels put them.
// ---------------------------------------------------------------------------

mod blocked_relax {
    use kcenter_metric::kernel::simd::{available_backends, KernelBackend, SimdScalar};
    use kcenter_metric::kernel::{
        argmax, dist2, relax_max_ids_coords_with, relax_max_rows_coords_with,
    };
    use kcenter_metric::Scalar;

    /// The specialised dimensions, then unlisted ones that take the
    /// dynamic-length loops.
    const DIMS: [usize; 14] = [2, 3, 4, 8, 10, 16, 32, 38, 64, 1, 5, 7, 17, 33];

    /// Continuous coordinates in `[-100, 100)`: sums of their squared
    /// differences round differently in different summation orders.
    fn coords(n: usize, dim: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n * dim)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0
            })
            .collect()
    }

    /// The per-row oracle: one dispatched pairwise distance per row (the
    /// scalar kernel where the backend declines), a strict-`<` relax, then
    /// [`argmax`].
    fn oracle<S: Scalar>(
        backend: KernelBackend,
        rows: &[&[S]],
        center: &[S],
        nearest: &mut [S],
    ) -> (usize, S) {
        for (slot, row) in nearest.iter_mut().zip(rows) {
            let d = S::simd_dist2(backend, row, center).unwrap_or_else(|| dist2(row, center));
            if d < *slot {
                *slot = d;
            }
        }
        argmax(nearest).unwrap_or((0, S::NEG_INFINITY))
    }

    /// `n` rows of `dim` continuous coordinates followed by two center
    /// rows, with the rows `far` overwritten by identical copies of a row
    /// farther from both centers than any other.
    fn instance<S: Scalar>(n: usize, dim: usize, far: &[usize]) -> Vec<S> {
        let mut base = coords(n + 2, dim, (n * 131 + dim) as u64);
        let far_row: Vec<f64> = (0..dim).map(|j| 1_000.0 + j as f64 * 0.37).collect();
        for &r in far {
            base[r * dim..(r + 1) * dim].copy_from_slice(&far_row);
        }
        base.iter().map(|&c| S::from_f64(c)).collect()
    }

    /// Checks the rows and subset kernels of every available backend
    /// against [`oracle`]: `nearest` is pre-relaxed against the first
    /// center, so the second one updates some slots and not others.  With a
    /// `tie`, the rows at those positions (of the kernel's own order) are
    /// identical copies of the farthest row, and the lower position must
    /// win.
    fn check<S: Scalar>(n: usize, dim: usize, tie: Option<(usize, usize)>) {
        // The subset visits the rows in reverse: position `i` is row
        // `n - 1 - i`.
        let subset: Vec<usize> = (0..n).rev().collect();
        let tied: Vec<usize> = tie.map_or(Vec::new(), |(a, b)| vec![a, b]);
        let tied_rows: Vec<usize> = tied.iter().map(|&i| subset[i]).collect();
        let rows_data = instance::<S>(n, dim, &tied);
        let subset_data = instance::<S>(n, dim, &tied_rows);
        for backend in available_backends() {
            let label = format!("{backend} {} dim {dim} n {n} tie {tie:?}", S::NAME);
            for (shape, all) in [("rows", &rows_data), ("subset", &subset_data)] {
                let (data, centers) = all.split_at(n * dim);
                let (first, second) = centers.split_at(dim);
                let mut rows: Vec<&[S]> = data.chunks_exact(dim).collect();
                if shape == "subset" {
                    rows = subset.iter().map(|&p| rows[p]).collect();
                }
                let mut pre = vec![S::INFINITY; n];
                oracle(backend, &rows, first, &mut pre);
                let mut want = pre.clone();
                let want_best = oracle(backend, &rows, second, &mut want);
                if let Some((a, _)) = tie {
                    assert_eq!(want_best.0, a, "{shape} {label}: the oracle's winner");
                }
                let mut got = pre;
                let got_best = if shape == "rows" {
                    // The AVX2 rows kernel reduces four rows' lanes together,
                    // in its own order, once a row fills a vector.
                    if backend == KernelBackend::Avx2 && dim >= <S as SimdScalar>::LANES {
                        continue;
                    }
                    relax_max_rows_coords_with(backend, data, dim, second, &mut got)
                } else {
                    relax_max_ids_coords_with(backend, data, dim, &subset, second, &mut got)
                };
                assert_eq!(got_best, want_best, "{shape} {label}");
                assert!(got == want, "{shape} {label}: nearest differs");
            }
        }
    }

    #[test]
    fn blocked_kernels_keep_the_single_row_bits() {
        for dim in DIMS {
            for n in (0..=9).chain([37]) {
                check::<f64>(n, dim, None);
                check::<f32>(n, dim, None);
                // A tie inside one block, and one across two blocks.
                for (a, b) in [(1, 2), (2, 6)] {
                    if b < n {
                        check::<f64>(n, dim, Some((a, b)));
                        check::<f32>(n, dim, Some((a, b)));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The fused nearest scans against their per-pair oracles: the argmin over
// the dispatched pairwise kernel (`dist2_auto`'s value under each backend)
// and the minimum over `dist2_wide`.
// ---------------------------------------------------------------------------

mod nearest_scans {
    use kcenter_metric::kernel::simd::available_backends;
    use kcenter_metric::kernel::{
        dist2, dist2_auto, dist2_wide, nearest_ids, nearest_ids_with, wide_nearest_ids,
    };
    use kcenter_metric::Scalar;

    /// The specialised dimensions, then two that take the dynamic-length
    /// loops.
    const DIMS: [usize; 11] = [2, 3, 4, 8, 10, 16, 32, 38, 64, 5, 7];

    /// Continuous coordinates in `[-100, 100)`: sums of their squared
    /// differences round differently in different summation orders, so a
    /// scan that ran another kernel would show in the bits.
    fn coords<S: Scalar>(n: usize, dim: usize, seed: u64) -> Vec<S> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n * dim)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                S::from_f64((state >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0)
            })
            .collect()
    }

    /// The per-pair argmin: `pair` gives each candidate's distance, and a
    /// later candidate wins only when strictly nearer.
    fn argmin<S: Scalar>(candidates: &[usize], pair: impl Fn(usize) -> S) -> (usize, S) {
        let mut best = (0, S::INFINITY);
        for (i, &c) in candidates.iter().enumerate() {
            let d = pair(c);
            if d < best.1 {
                best = (i, d);
            }
        }
        best
    }

    fn check<S: Scalar>(n: usize, dim: usize) {
        // `n` candidate rows, then the query row; row `n - 1` repeats row
        // 0, so two ids share a row.
        let mut data = coords::<S>(n + 1, dim, (n * 131 + dim) as u64);
        let first: Vec<S> = data[..dim].to_vec();
        data[(n - 1) * dim..n * dim].copy_from_slice(&first);
        let (rows, query) = data.split_at(n * dim);
        let row = |c: usize| &rows[c * dim..(c + 1) * dim];
        // Every id twice (ascending, then descending): whichever is
        // nearest, its first position must win.
        let mut lists: Vec<Vec<usize>> = vec![(0..n).chain((0..n).rev()).collect()];
        lists.push((0..n).rev().step_by(3).collect());
        lists.push(vec![n - 1, 0, 0, n - 1]);
        for candidates in &lists {
            let label = format!(
                "{} dim {dim} n {n} candidates {}",
                S::NAME,
                candidates.len()
            );
            for backend in available_backends() {
                let want = argmin(candidates, |c| {
                    S::simd_dist2(backend, query, row(c)).unwrap_or_else(|| dist2(query, row(c)))
                });
                let got = nearest_ids_with(backend, rows, dim, candidates, query);
                assert_eq!(got, want, "{backend} {label}");
            }
            // The dispatched entry matches the argmin over `dist2_auto`.
            let want = argmin(candidates, |c| dist2_auto(query, row(c)));
            assert_eq!(nearest_ids(rows, dim, candidates, query), want, "{label}");

            let exact = candidates
                .iter()
                .map(|&c| dist2_wide(query, row(c)))
                .fold(f64::INFINITY, f64::min);
            let unbounded = wide_nearest_ids(rows, dim, candidates, query, f64::NEG_INFINITY);
            assert_eq!(unbounded, exact, "{label}");
            // Early exit: exact above `stop`, at most `stop` otherwise —
            // and the running minimum at the first candidate within
            // `stop`, as the pair-by-pair bounded scan returns it.
            for stop in [0.0, exact * 0.5, exact, exact * 1.5, 1e300] {
                let got = wide_nearest_ids(rows, dim, candidates, query, stop);
                if exact > stop {
                    assert_eq!(got, exact, "{label} stop {stop}");
                } else {
                    assert!(got <= stop && got >= exact, "{label} stop {stop}: {got}");
                }
                let mut want = f64::INFINITY;
                for &c in candidates {
                    want = want.min(dist2_wide(query, row(c)));
                    if want <= stop {
                        break;
                    }
                }
                assert_eq!(got, want, "{label} stop {stop}");
            }
        }
        // No candidates: no nearest.
        for backend in available_backends() {
            let got = nearest_ids_with(backend, rows, dim, &[], query);
            assert_eq!(got, (0, S::INFINITY), "{backend}");
        }
        for stop in [f64::NEG_INFINITY, 0.0, 1e300] {
            assert_eq!(wide_nearest_ids(rows, dim, &[], query, stop), f64::INFINITY);
        }
    }

    #[test]
    fn fused_nearest_scans_keep_the_per_pair_bits() {
        for dim in DIMS {
            for n in [1usize, 2, 5, 37] {
                check::<f64>(n, dim);
                check::<f32>(n, dim);
            }
        }
    }
}
