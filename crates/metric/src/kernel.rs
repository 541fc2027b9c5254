//! Hot scan kernels over [`FlatPoints`] rows, generic over the storage
//! scalar.
//!
//! These are the inner loops the whole workspace's runtime comes down to:
//!
//! * [`dist2`] — squared Euclidean distance between two rows, unrolled into
//!   four independent accumulators so the FP adds pipeline (a single
//!   accumulator serialises on the add latency);
//! * [`relax_max_rows_coords`] / [`relax_max_ids_coords`] — the fused
//!   Gonzalez step: given one new center, lower every point's "distance to
//!   nearest chosen center" and track the farthest survivor in one linear
//!   walk, with **no** square roots (comparisons happen in squared space;
//!   callers take one `sqrt` per final winner, not one per pair);
//! * [`nearest_ids`] / [`wide_nearest_ids`] — the fused nearest-center
//!   scans (below);
//! * [`relax_nearest`] and [`argmax`] — the same step as two plain passes,
//!   kept as the reference the fused kernels are tested against.
//!
//! [`crate::VecSpace::relax_max`] chunks the fused kernels over rayon
//! above [`PAR_CUTOFF`] points, so small partitions (MRG reducers, EIM
//! samples) don't pay scheduler overhead.
//!
//! # The blocked relax loop
//!
//! Every dense fused relax loop in this crate except the AVX2 kernels (the
//! scalar kernels here, the portable lanes in [`simd`], and the default
//! `Distance::relax_rows_max` / `relax_ids_max` other metrics inherit)
//! runs on one private function, `relax_blocked`.  It walks `nearest` four
//! slots at a time: four row distances, a branchless relax (the minimum is
//! stored unconditionally), and an index-order scan with a strict `>` only
//! when one of the four beats the running best; the last `n mod 4` slots
//! relax one at a time.  The blocking removes the two data-dependent
//! branches per row and lets four independent distance computations
//! overlap.  It changes no arithmetic: each row's distance is computed on
//! its own by the same per-row kernel as before ([`dist2`] or its
//! const-dimension instantiation, or the backend's pairwise kernel), so
//! `nearest` and the winner stay bit-identical to a row-at-a-time relax
//! followed by [`argmax`], ties included.  The specialised dimensions
//! (2, 3, 4, 8, 10, 16, 32, 38, 64) are listed once, for the scalar and
//! portable paths and both the rows and subset shapes; other dimensions
//! take the dynamic-length distance.
//!
//! # The fused nearest scans
//!
//! Assignment and certification both come down to one query row against a
//! candidate id list.  [`nearest_ids`] is the comparison-space argmin
//! (`evaluate::assign`, the coreset weights round, a re-compression's
//! fold): a strict `<`, so ties go to the smaller position.  It resolves
//! the dispatched backend once per call instead of once per pair; the
//! scalar backend, and every backend on rows shorter than one vector, runs
//! the const-dimension [`dist2`], and the others run their own pairwise
//! kernel per candidate, so each pair keeps the bits [`dist2_auto`] gives
//! it.  [`wide_nearest_ids`] is the certification-space minimum with the
//! early exit of `wide_cmp_distance_to_set_bounded` (covering radii, coverage
//! checks, every certificate): a const-dimension instantiation of
//! [`dist2_wide`]'s summation order, which consults no backend.  Both
//! change only how the loop is driven, never a pair's arithmetic, so every
//! assignment and certified bit equals the pair-by-pair scan's.
//!
//! # Scalar genericity and the two accumulation modes
//!
//! Every kernel is generic over [`Scalar`] (`f64` or `f32`) and
//! monomorphises to the same 4-accumulator loop at either width, so the
//! `f32` instantiation reads half the bytes per coordinate — the whole point
//! of the reduced-precision storage mode; the comparison-space scans
//! (selection, relaxation, assignment) run entirely in `S`.
//!
//! The `wide_*` variants ([`dist2_wide`]) are the *certification* kernels:
//! they read the same `S` rows but convert each coordinate to `f64` before
//! accumulating, in exactly the same summation order as [`dist2`].  Two
//! consequences:
//!
//! * at `S = f64` the wide kernel is bit-identical to the narrow one, so the
//!   default precision is numerically unchanged by this refactor;
//! * at `S = f32` every *reported* quantity (covering radius, coverage
//!   checks — everything routed through `VecSpace`'s `wide_cmp_*`
//!   family) is exact `f64` arithmetic over the stored rows: the only error
//!   an `f32` run carries is the one-time `2^-24` input rounding of each
//!   coordinate, never accumulated scan error.
//!
//! # SIMD dispatch
//!
//! The hot entry points ([`relax_max_rows_coords`], [`relax_max_ids_coords`],
//! [`nearest_ids`], [`dist2_auto`]) consult the [`simd`] dispatch table:
//! a backend ([`simd::KernelBackend`]) selected once at startup —
//! `KCENTER_KERNEL={auto,scalar,portable,avx2}`, the CLI `--kernel` flag, or
//! [`simd::set_active`] — provides width-pinned (AVX2+FMA or portable-lane)
//! kernels where the row shape supports them and falls back to the scalar
//! kernels below one vector of coordinates.  The plain kernels ([`dist2`],
//! [`dist2_wide`]) remain the fixed scalar implementations: every
//! `wide_cmp_*` scan (certification through [`wide_nearest_ids`], and the
//! instance lower bounds) runs [`dist2_wide`] or its const-dimension
//! instantiation, so reported numbers never depend on the dispatched
//! backend (see the [`simd`] module docs).
//!
//! # Determinism
//!
//! The parallel relax scan computes exactly the same per-element values as
//! the sequential one (chunking only partitions the index space), so its
//! results are bit-for-bit identical per `(seed, precision, kernel)` triple
//! — a property the `flat_kernels` integration test pins down (the third
//! coordinate is the dispatched [`simd::KernelBackend`]; each backend fixes
//! its own accumulation order, see the [`simd`] docs for the FMA rounding
//! story).  Argmax tie-breaking is part of that contract in **every**
//! backend: ties always resolve to the **lowest index** (see [`argmax`]),
//! which matters more at `f32` where coarser rounding produces more exact
//! ties.

/// Runs `$fixed` with `$d` bound to `dim` as a `const usize` when `dim` is
/// one of the dimension-specialised row lengths, and `$dynamic` otherwise.
///
/// The one list of specialised dimensions, shared by the scalar kernels
/// here and the portable kernels in [`simd`], rows and subset shapes alike:
/// the workspace's workload dimensions 2 (UNIF), 3 (GAU/UNB), 10 (Poker
/// Hand), 16 (GAU-HD) and 38 (KDD Cup), plus common bench sizes.
macro_rules! with_const_dim {
    ($dim:expr, $d:ident => $fixed:expr, _ => $dynamic:expr) => {
        with_const_dim!(@arms $dim, $d, $fixed, $dynamic; 2, 3, 4, 8, 10, 16, 32, 38, 64)
    };
    (@arms $dim:expr, $d:ident, $fixed:expr, $dynamic:expr; $($n:literal),*) => {
        match $dim {
            $($n => {
                const $d: usize = $n;
                $fixed
            })*
            _ => $dynamic,
        }
    };
}

pub mod simd;

use crate::flat::FlatPoints;
use crate::scalar::Scalar;
use crate::PointId;
use simd::KernelBackend;

/// Chunk length of the parallel relax scan
/// ([`crate::VecSpace::relax_max`]): big enough to amortise a spawn,
/// small enough to balance across cores on million-point inputs.
pub const PAR_CHUNK: usize = 1 << 14;

/// Below this many points the parallel relax scan runs sequentially:
/// forking a scan over a few thousand rows costs more than the scan itself.
/// At least two [`PAR_CHUNK`]s, so the parallel branch always has more than
/// one chunk to hand out.
pub const PAR_CUTOFF: usize = 2 * PAR_CHUNK;

/// Squared Euclidean distance between two equal-length rows, computed and
/// accumulated in `S`.
///
/// Four independent accumulators break the loop-carried dependency on the
/// sum, letting the FP units pipeline; the tails fall back to a plain loop.
#[inline]
pub fn dist2<S: Scalar>(a: &[S], b: &[S]) -> S {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut s0 = S::ZERO;
    let mut s1 = S::ZERO;
    let mut s2 = S::ZERO;
    let mut s3 = S::ZERO;
    let mut i = 0;
    while i + 4 <= n {
        let d0 = a[i] - b[i];
        let d1 = a[i + 1] - b[i + 1];
        let d2 = a[i + 2] - b[i + 2];
        let d3 = a[i + 3] - b[i + 3];
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
        i += 4;
    }
    while i < n {
        let d = a[i] - b[i];
        s0 += d * d;
        i += 1;
    }
    (s0 + s1) + (s2 + s3)
}

/// Squared Euclidean distance between two `S` rows, accumulated in `f64`
/// (each coordinate widened before subtracting) — the certification kernel
/// behind the `wide_cmp_*` family.
///
/// Uses the same 4-accumulator summation order as [`dist2`], so at
/// `S = f64` the two kernels are bit-identical.
#[inline]
pub fn dist2_wide<S: Scalar>(a: &[S], b: &[S]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut s0 = 0.0f64;
    let mut s1 = 0.0f64;
    let mut s2 = 0.0f64;
    let mut s3 = 0.0f64;
    let mut i = 0;
    while i + 4 <= n {
        let d0 = a[i].to_f64() - b[i].to_f64();
        let d1 = a[i + 1].to_f64() - b[i + 1].to_f64();
        let d2 = a[i + 2].to_f64() - b[i + 2].to_f64();
        let d3 = a[i + 3].to_f64() - b[i + 3].to_f64();
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
        i += 4;
    }
    while i < n {
        let d = a[i].to_f64() - b[i].to_f64();
        s0 += d * d;
        i += 1;
    }
    (s0 + s1) + (s2 + s3)
}

/// [`dist2`] through the dispatched kernel backend: width-pinned SIMD when
/// the active [`simd::KernelBackend`] provides a kernel for this scalar and
/// row length, the scalar kernel otherwise.  This is the comparison-space
/// fast path behind `Euclidean::surrogate`; values are bit-deterministic
/// per `(precision, kernel)` (an FMA backend may differ from the scalar
/// kernel in the last ulps — see the [`simd`] module docs).
#[inline]
pub fn dist2_auto<S: Scalar>(a: &[S], b: &[S]) -> S {
    match S::simd_dist2(simd::active(), a, b) {
        Some(v) => v,
        None => dist2(a, b),
    }
}

/// The fused Gonzalez relaxation: for every `subset[i]`, lowers
/// `nearest[i]` to `min(nearest[i], dist2(subset[i], center))`.
///
/// One linear walk over contiguous rows, no `sqrt`, no allocation.
pub fn relax_nearest<S: Scalar>(
    flat: &FlatPoints<S>,
    subset: &[PointId],
    center: PointId,
    nearest: &mut [S],
) {
    debug_assert_eq!(subset.len(), nearest.len());
    let center_row = flat.row(center);
    for (slot, &p) in nearest.iter_mut().zip(subset) {
        let d = dist2(flat.row(p), center_row);
        if d < *slot {
            *slot = d;
        }
    }
}

/// Fused relax + argmax over a raw row-major coordinate block, dispatching
/// to a dimension-specialised inner loop: with the row length known at
/// compile time the distance unrolls fully, bounds checks vanish, and the
/// center row stays in registers.
///
/// Updates `nearest[i] = min(nearest[i], dist2(row_i, center_row))` and
/// returns the position and value of the maximum updated entry (ties toward
/// the smaller index) — one Gonzalez iteration in a single memory pass.
/// This is the kernel behind `Distance::relax_rows_max` for the Euclidean
/// metric; [`crate::VecSpace::relax_max`] chunks over it when it runs
/// in parallel.
///
/// The scalar and portable paths walk `nearest` four slots at a time
/// (module docs, "The blocked relax loop"): four row distances, a
/// branchless relax, and an index-order argmax scan only when the block
/// holds a new maximum.  Each row's distance is still computed on its own,
/// in the same summation order as before the blocking, so `nearest` and
/// the returned `(position, value)` are bit-identical to a row-at-a-time
/// relax followed by [`argmax`].
pub fn relax_max_rows_coords<S: Scalar>(
    coords: &[S],
    dim: usize,
    center_row: &[S],
    nearest: &mut [S],
) -> (usize, S) {
    relax_max_rows_coords_with(simd::active(), coords, dim, center_row, nearest)
}

/// [`relax_max_rows_coords`] under an explicit kernel backend — the A/B
/// entry the dispatch parity tests and benches use.  Backends without a
/// width-pinned kernel for this `(scalar, dim)` shape (always the case for
/// [`KernelBackend::Scalar`], and for every backend below one vector of
/// coordinates) run the dimension-specialised scalar loop.
pub fn relax_max_rows_coords_with<S: Scalar>(
    backend: KernelBackend,
    coords: &[S],
    dim: usize,
    center_row: &[S],
    nearest: &mut [S],
) -> (usize, S) {
    if let Some(best) = S::simd_relax_rows_max(backend, coords, dim, center_row, nearest) {
        return best;
    }
    with_const_dim!(dim, D => {
        let center = fixed_row::<S, D>(center_row);
        relax_rows(coords, D, nearest, |row| dist2_arrays(fixed_row(row), center))
    }, _ => relax_rows(coords, dim, nearest, |row| dist2(row, center_row)))
}

/// [`relax_max_rows_coords`] over an explicit id subset (MRG reducer
/// partitions, EIM samples): row `subset[i]` pairs with `nearest[i]`.
/// This is the kernel behind `Distance::relax_ids_max` for the Euclidean
/// metric.
pub fn relax_max_ids_coords<S: Scalar>(
    coords: &[S],
    dim: usize,
    subset: &[PointId],
    center_row: &[S],
    nearest: &mut [S],
) -> (usize, S) {
    relax_max_ids_coords_with(simd::active(), coords, dim, subset, center_row, nearest)
}

/// [`relax_max_ids_coords`] under an explicit kernel backend (see
/// [`relax_max_rows_coords_with`]).
pub fn relax_max_ids_coords_with<S: Scalar>(
    backend: KernelBackend,
    coords: &[S],
    dim: usize,
    subset: &[PointId],
    center_row: &[S],
    nearest: &mut [S],
) -> (usize, S) {
    debug_assert_eq!(subset.len(), nearest.len());
    if let Some(best) = S::simd_relax_ids_max(backend, coords, dim, subset, center_row, nearest) {
        return best;
    }
    with_const_dim!(dim, D => {
        let center = fixed_row::<S, D>(center_row);
        relax_ids(coords, D, subset, nearest, |row| dist2_arrays(fixed_row(row), center))
    }, _ => relax_ids(coords, dim, subset, nearest, |row| dist2(row, center_row)))
}

/// The blocked relax + argmax loop every dense fused kernel except the
/// AVX2 ones runs on: `row_dist(i)` is the comparison-space distance of
/// the row paired with `nearest[i]` to the new center.
///
/// Walks `nearest` four slots at a time.  A block computes its four row
/// distances, relaxes them without branches (the minimum is stored
/// unconditionally; on a tie the slot keeps its value, like a strict `<`
/// update), and scans the block in index order with a strict `>` only when
/// one of its values beats the running best — so ties still go to the
/// lowest index.  The last `nearest.len() % 4` slots relax one at a time.
/// Returns `(0, -inf)` when `nearest` is empty.
#[inline(always)]
fn relax_blocked<S: Scalar>(nearest: &mut [S], row_dist: impl Fn(usize) -> S) -> (usize, S) {
    let mut best = (0usize, S::NEG_INFINITY);
    let mut blocks = nearest.chunks_exact_mut(4);
    let mut base = 0;
    for block in &mut blocks {
        let dists = [
            row_dist(base),
            row_dist(base + 1),
            row_dist(base + 2),
            row_dist(base + 3),
        ];
        let mut beats = false;
        for (slot, d) in block.iter_mut().zip(dists) {
            *slot = if d < *slot { d } else { *slot };
            beats |= *slot > best.1;
        }
        if beats {
            for (j, &v) in block.iter().enumerate() {
                if v > best.1 {
                    best = (base + j, v);
                }
            }
        }
        base += 4;
    }
    for (j, slot) in blocks.into_remainder().iter_mut().enumerate() {
        let d = row_dist(base + j);
        if d < *slot {
            *slot = d;
        }
        if *slot > best.1 {
            best = (base + j, *slot);
        }
    }
    best
}

/// [`relax_blocked`] over contiguous `dim`-length rows of `coords`: row `i`
/// pairs with `nearest[i]`, as far as both reach.  `dist` maps a row to its
/// comparison-space distance from the new center.
#[inline(always)]
pub(crate) fn relax_rows<S: Scalar>(
    coords: &[S],
    dim: usize,
    nearest: &mut [S],
    dist: impl Fn(&[S]) -> S,
) -> (usize, S) {
    let n = nearest.len().min(coords.len() / dim);
    // Forced: LLVM may otherwise call the row distance out of line, once
    // per row, which cost the d = 3 kernel all of its gain when measured.
    relax_blocked(
        &mut nearest[..n],
        #[inline(always)]
        |i| dist(&coords[i * dim..i * dim + dim]),
    )
}

/// [`relax_blocked`] over an id subset: row `subset[i]` pairs with
/// `nearest[i]`, as far as both reach.
#[inline(always)]
pub(crate) fn relax_ids<S: Scalar>(
    coords: &[S],
    dim: usize,
    subset: &[PointId],
    nearest: &mut [S],
    dist: impl Fn(&[S]) -> S,
) -> (usize, S) {
    let n = nearest.len().min(subset.len());
    // Forced inline, as in `relax_rows`.
    relax_blocked(
        &mut nearest[..n],
        #[inline(always)]
        |i| {
            let p = subset[i];
            dist(&coords[p * dim..p * dim + dim])
        },
    )
}

/// The comparison-space nearest candidate to `row`: the position (into
/// `candidates`) and value of the minimum [`dist2_auto`] over the rows
/// `candidates[i]` of `coords`, ties toward the smaller position (strict
/// `<`); `(0, +inf)` when `candidates` is empty.  This is the kernel
/// behind `Distance::nearest_ids` for the Euclidean metric, i.e.
/// [`crate::VecSpace::nearest`].
pub fn nearest_ids<S: Scalar>(
    coords: &[S],
    dim: usize,
    candidates: &[PointId],
    row: &[S],
) -> (usize, S) {
    nearest_ids_with(simd::active(), coords, dim, candidates, row)
}

/// [`nearest_ids`] under an explicit kernel backend, resolved once per
/// call.  The scalar backend, and every backend on rows shorter than one
/// vector, runs the dimension-specialised scalar distance; other backends
/// run their own pairwise kernel per candidate, so each pair keeps the
/// bits [`dist2_auto`] gives it under that backend.
pub fn nearest_ids_with<S: Scalar>(
    backend: KernelBackend,
    coords: &[S],
    dim: usize,
    candidates: &[PointId],
    row: &[S],
) -> (usize, S) {
    if backend == KernelBackend::Scalar || dim < S::LANES {
        return with_const_dim!(dim, D => {
            let row = fixed_row::<S, D>(row);
            nearest_scan(coords, D, candidates, |c| dist2_arrays(row, fixed_row(c)))
        }, _ => nearest_scan(coords, dim, candidates, |c| dist2(row, c)));
    }
    nearest_scan(coords, dim, candidates, |c| {
        S::simd_dist2(backend, row, c).unwrap_or_else(|| dist2(row, c))
    })
}

/// The certification-space distance from `row` to its nearest candidate:
/// the minimum [`dist2_wide`] over the rows `candidates[i]` of `coords`,
/// `+inf` when `candidates` is empty.  The scan stops as soon as the
/// running minimum drops to `stop_below` or less, so the result is exact
/// whenever it exceeds `stop_below` and at most `stop_below` otherwise.
///
/// Specialised dimensions run a const-length instantiation of
/// [`dist2_wide`]'s summation order, so every pair keeps its bits; no
/// backend is consulted.  This is the kernel behind
/// `Distance::wide_nearest_ids` for the Euclidean metric, i.e.
/// [`crate::VecSpace::wide_cmp_distance_to_set_bounded`].
pub fn wide_nearest_ids<S: Scalar>(
    coords: &[S],
    dim: usize,
    candidates: &[PointId],
    row: &[S],
    stop_below: f64,
) -> f64 {
    with_const_dim!(dim, D => {
        let row = fixed_row::<S, D>(row);
        wide_nearest_scan(coords, D, candidates, stop_below, |c| {
            dist2_wide_arrays(row, fixed_row(c))
        })
    }, _ => wide_nearest_scan(coords, dim, candidates, stop_below, |c| dist2_wide(row, c)))
}

/// The argmin loop of [`nearest_ids`]: `dist` maps a candidate row to its
/// comparison-space distance from the query row.
#[inline(always)]
pub(crate) fn nearest_scan<S: Scalar>(
    coords: &[S],
    dim: usize,
    candidates: &[PointId],
    dist: impl Fn(&[S]) -> S,
) -> (usize, S) {
    let mut best = (0usize, S::INFINITY);
    for (i, &c) in candidates.iter().enumerate() {
        let d = dist(&coords[c * dim..c * dim + dim]);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

/// The early-exit minimum loop of [`wide_nearest_ids`]: `dist` maps a
/// candidate row to its certification-space distance from the query row.
#[inline(always)]
pub(crate) fn wide_nearest_scan<S: Scalar>(
    coords: &[S],
    dim: usize,
    candidates: &[PointId],
    stop_below: f64,
    dist: impl Fn(&[S]) -> f64,
) -> f64 {
    let mut best = f64::INFINITY;
    for &c in candidates {
        let d = dist(&coords[c * dim..c * dim + dim]);
        if d < best {
            best = d;
            if best <= stop_below {
                break;
            }
        }
    }
    best
}

/// `row` as a fixed-length array reference, for the const-`D` kernels.
///
/// # Panics
///
/// Panics if `row.len() != D`.
#[inline(always)]
fn fixed_row<S: Scalar, const D: usize>(row: &[S]) -> &[S; D] {
    row.try_into().expect("row length")
}

/// Squared distance between two fixed-size rows: the statically known
/// length fully unrolls the accumulator loop.
#[inline]
fn dist2_arrays<S: Scalar, const D: usize>(a: &[S; D], b: &[S; D]) -> S {
    let mut s0 = S::ZERO;
    let mut s1 = S::ZERO;
    let mut s2 = S::ZERO;
    let mut s3 = S::ZERO;
    let mut i = 0;
    while i + 4 <= D {
        let d0 = a[i] - b[i];
        let d1 = a[i + 1] - b[i + 1];
        let d2 = a[i + 2] - b[i + 2];
        let d3 = a[i + 3] - b[i + 3];
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
        i += 4;
    }
    while i < D {
        let d = a[i] - b[i];
        s0 += d * d;
        i += 1;
    }
    (s0 + s1) + (s2 + s3)
}

/// [`dist2_wide`] between two fixed-size rows: the same widening and
/// summation order, fully unrolled.
#[inline]
fn dist2_wide_arrays<S: Scalar, const D: usize>(a: &[S; D], b: &[S; D]) -> f64 {
    let mut s0 = 0.0f64;
    let mut s1 = 0.0f64;
    let mut s2 = 0.0f64;
    let mut s3 = 0.0f64;
    let mut i = 0;
    while i + 4 <= D {
        let d0 = a[i].to_f64() - b[i].to_f64();
        let d1 = a[i + 1].to_f64() - b[i + 1].to_f64();
        let d2 = a[i + 2].to_f64() - b[i + 2].to_f64();
        let d3 = a[i + 3].to_f64() - b[i + 3].to_f64();
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
        i += 4;
    }
    while i < D {
        let d = a[i].to_f64() - b[i].to_f64();
        s0 += d * d;
        i += 1;
    }
    (s0 + s1) + (s2 + s3)
}

/// Position and value of the maximum entry.
///
/// **Tie-breaking contract:** when several entries share the maximum value,
/// the *lowest index* wins — the scan only replaces the incumbent on a
/// strictly greater value.  The fused kernels and the parallel relax scan
/// uphold the same rule (per-chunk winners combine in index order, earlier
/// chunk wins ties), so they never diverge.  This matters at `f32`, where
/// coarser rounding makes exact ties far more common than at `f64`; without
/// the rule, parallel and sequential Gonzalez runs could pick different
/// (equally far) points and diverge from there.
///
/// Returns `None` on an empty slice.
pub fn argmax<S: Scalar>(values: &[S]) -> Option<(usize, S)> {
    let mut best: Option<(usize, S)> = None;
    for (i, &v) in values.iter().enumerate() {
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn cloud(n: usize, dim: usize) -> FlatPoints {
        let coords: Vec<f64> = (0..n * dim)
            .map(|i| {
                let v = (i as u64)
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                ((v >> 33) % 2_000) as f64 / 10.0 - 100.0
            })
            .collect();
        FlatPoints::from_coords(coords, dim).unwrap()
    }

    #[test]
    fn dist2_matches_naive_sum() {
        for dim in [1usize, 2, 3, 4, 5, 7, 8, 16, 33] {
            let flat = cloud(2, dim);
            let (a, b) = (flat.row(0), flat.row(1));
            let naive: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
            assert!(
                (dist2(a, b) - naive).abs() <= 1e-12 * (1.0 + naive),
                "dim {dim}: {} != {naive}",
                dist2(a, b)
            );
        }
    }

    #[test]
    fn dist2_wide_is_bit_identical_to_dist2_at_f64() {
        for dim in [1usize, 3, 4, 7, 16, 33] {
            let flat = cloud(2, dim);
            let (a, b) = (flat.row(0), flat.row(1));
            assert_eq!(dist2(a, b), dist2_wide(a, b), "dim {dim}");
        }
    }

    #[test]
    fn dist2_wide_accumulates_f32_rows_in_f64() {
        // Coordinates whose squares cannot be represented distinctly at
        // f32 accumulation, widened correctly by the wide kernel.
        let a: Vec<f32> = vec![1_000.0, 1_000.0, 1_000.0, 1_000.0, 0.001];
        let b: Vec<f32> = vec![0.0; 5];
        let wide = dist2_wide(&a, &b);
        // The contract: the wide kernel equals the f64 kernel run on
        // pre-widened rows (same summation order, f64 accumulation).
        let a64: Vec<f64> = a.iter().map(|&x| x as f64).collect();
        let b64: Vec<f64> = b.iter().map(|&x| x as f64).collect();
        assert_eq!(wide, dist2(&a64, &b64));
        // ... which preserves the tiny term the f32 accumulation absorbs.
        assert!(wide > 4_000_000.0);
        assert_eq!(dist2(&a, &b), 4_000_000.0f32);
    }

    #[test]
    fn dist2_of_identical_rows_is_zero() {
        let p = Point::xyz(1.5, -2.0, 3.25);
        let flat = FlatPoints::<f64>::from_points(&[p.clone(), p]);
        assert_eq!(dist2(flat.row(0), flat.row(1)), 0.0);
    }

    #[test]
    fn relax_matches_naive_update() {
        let flat = cloud(200, 5);
        let subset: Vec<usize> = (0..200).collect();
        let mut nearest = vec![f64::INFINITY; 200];
        relax_nearest(&flat, &subset, 17, &mut nearest);
        relax_nearest(&flat, &subset, 91, &mut nearest);
        for (i, &v) in nearest.iter().enumerate() {
            let naive = dist2(flat.row(i), flat.row(17)).min(dist2(flat.row(i), flat.row(91)));
            assert_eq!(v, naive);
        }
    }

    #[test]
    fn f32_kernels_mirror_f64_kernels_on_exact_inputs() {
        // Integer-valued coordinates are exact at both precisions, so the
        // two instantiations must agree exactly.
        let coords: Vec<f64> = (0..300 * 4)
            .map(|i| ((i as u64).wrapping_mul(2_654_435_761) % 200) as f64 - 100.0)
            .collect();
        let flat64 = FlatPoints::from_coords(coords, 4).unwrap();
        let flat32 = flat64.to_precision::<f32>();
        let subset: Vec<usize> = (0..300).collect();
        let mut near64 = vec![f64::INFINITY; 300];
        let mut near32 = vec![f32::INFINITY; 300];
        let (pos64, val64) = {
            relax_nearest(&flat64, &subset, 3, &mut near64);
            relax_max_ids_coords(flat64.coords(), 4, &subset, flat64.row(9), &mut near64)
        };
        let (pos32, val32) = {
            relax_nearest(&flat32, &subset, 3, &mut near32);
            relax_max_ids_coords(flat32.coords(), 4, &subset, flat32.row(9), &mut near32)
        };
        assert_eq!(pos64, pos32);
        assert_eq!(val64, val32 as f64);
    }

    #[test]
    fn argmax_breaks_ties_toward_smaller_index() {
        assert_eq!(argmax::<f64>(&[]), None);
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), Some((1, 3.0)));
        // All-equal input: position 0 wins.
        assert_eq!(argmax(&[5.0f32; 17]), Some((0, 5.0f32)));
    }
}
