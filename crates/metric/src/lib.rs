//! Metric-space substrate for the parallel k-center reproduction.
//!
//! The k-center problem is defined over a metric space: a set of points `V`
//! together with a distance function `d` satisfying identity, symmetry and
//! the triangle inequality.  The paper (McClintock & Wirth, ICPP 2016)
//! computes Euclidean distances on demand from point coordinates rather than
//! materialising the full distance matrix (Section 7.3); its real data sets
//! are higher-dimensional and partly categorical.
//!
//! This crate provides:
//!
//! * [`Scalar`] — the sealed storage-scalar trait (`f64`, `f32`) the whole
//!   flat-storage/kernel stack is generic over (see *Storage precision*
//!   below).
//! * [`FlatPoints`] — the contiguous structure-of-arrays point store every
//!   hot scan runs against (see *Storage layout* below), generic over the
//!   storage scalar.
//! * [`Point`] — a dense, owned `f64` coordinate vector used as the
//!   per-point view/conversion type at API boundaries.
//! * [`Distance`] implementations — [`Euclidean`], [`SquaredEuclidean`],
//!   [`Manhattan`] — all defined over raw coordinate slices at either
//!   precision, with order-equivalent *surrogate* forms (squared
//!   Euclidean) for
//!   comparison-only scans and `f64`-accumulated *wide* forms for
//!   certification.
//! * [`kernel`] — the fused scan kernels (`dist2`, the dimension-specialised
//!   relax-and-argmax loops, `argmax`), and [`kernel::simd`] —
//!   width-pinned AVX2+FMA / portable-lane backends behind a runtime
//!   dispatch table (`KCENTER_KERNEL`, the `simd` cargo feature; see
//!   *Kernel dispatch* below).
//! * [`VecSpace`] — the one metric space the clustering algorithms run
//!   on: a [`FlatPoints`] store plus a [`Distance`], evaluated on demand
//!   (generic over both).  [`VecSpace::relax_max`] is the Gonzalez relax
//!   step, sequential or chunked over rayon.
//! * [`BoundingBox`] and diameter estimation utilities.
//! * [`lower_bound`] — simple instance lower bounds used to sanity-check
//!   approximation factors in tests.
//!
//! # Storage layout
//!
//! Every algorithm in the workspace spends its time in one scan: "distance
//! from each point to the nearest chosen center".  Two representation
//! choices make that scan run at memory bandwidth instead of chasing
//! pointers:
//!
//! 1. **Flat rows.**  [`FlatPoints`] keeps all coordinates in a single
//!    row-major `Vec<f64>` (`coords[i*dim .. (i+1)*dim]` is point `i`), so
//!    the scan walks one contiguous buffer with perfect hardware-prefetch
//!    behaviour.  A `Vec<Point>` — one heap allocation per point — costs a
//!    pointer dereference and a likely cache miss per distance evaluation.
//! 2. **Squared space.**  Comparisons don't need the metric's final
//!    normalisation, so the scans run on [`Distance::surrogate`] values
//!    (squared distance for [`Euclidean`]) and the winner is converted back
//!    with one [`Distance::surrogate_to_distance`] call — one `sqrt` per
//!    selected center rather than one per point-center pair.
//!
//! `bench_flat` in `kcenter-bench` times that scan at `f64` and `f32`
//! storage, sequential and chunked-parallel, under the scalar and the
//! dispatched kernels; `flat_report` writes the same rows to
//! `BENCH_flat.json` at the workspace root.
//!
//! # Storage precision
//!
//! All of the above is generic over the sealed [`Scalar`] trait
//! (`f64`/`f32`).  The scans are DRAM-bound at the paper's million-point
//! scale, so `f32` storage halves the bytes the comparison-space scans pull
//! — close to a free 2× — while the accuracy contract stays structural:
//! comparison-only scans run at storage precision, but every *reported*
//! quantity (covering radius, coverage checks) is recomputed through the
//! `wide_cmp_*` certification family, which accumulates in `f64` from the
//! stored rows.  An `f32` run therefore only ever carries the one-time
//! `2^-24` input rounding of each coordinate, never accumulated scan error,
//! and results are bit-for-bit deterministic per `(seed, precision)` pair.
//!
//! # Kernel dispatch
//!
//! The hot kernels additionally dispatch through [`kernel::simd`]: a
//! backend ([`KernelBackend`]: `scalar`, `portable` lanes, or AVX2+FMA
//! intrinsics behind the `simd` cargo feature) selected once at startup via
//! `KCENTER_KERNEL` / the CLI `--kernel` flag.  Comparison-space scans are
//! then bit-deterministic per `(seed, precision, kernel)`; the `wide_cmp_*`
//! certification scans stay on the fixed scalar `f64` kernels so reported
//! quality numbers depend only on which centers were selected.  The default
//! build (feature off, variable unset) resolves to the scalar kernels and
//! is bit-identical to the pre-dispatch behaviour.
//!
//! # Assignment dispatch
//!
//! Orthogonally to the kernel backend, the assignment/relax *scans*
//! dispatch between the dense SIMD path and the spatial-grid path of
//! [`grid`] (`KCENTER_ASSIGN` / the CLI `--assign` flag: `auto` | `dense`
//! | `grid`, where `auto` applies a bench-measured crossover).  The grid
//! arm is bit-identical to the dense arm — same per-pair comparison
//! values, same lowest-index tie-breaking, `wide_cmp_*` certification
//! untouched — so the determinism tuple extends to `(seed, precision,
//! kernel, assign)`; see the [`grid`] module docs for the one AVX2
//! fused-kernel caveat.
//!
//! `unsafe` is denied crate-wide and appears only in the [`kernel::simd`]
//! AVX2 module, where every intrinsic call sits behind a runtime
//! `is_x86_feature_detected!` check.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bbox;
pub mod distance;
pub mod flat;
pub mod grid;
pub mod kernel;
pub mod lower_bound;
pub mod point;
pub mod scalar;
pub mod space;

pub use bbox::BoundingBox;
pub use distance::{Distance, Euclidean, Manhattan, SquaredEuclidean};
pub use flat::FlatPoints;
pub use grid::{AssignChoice, AssignMode, AssignSelectError, GridRelaxer, SpatialGrid, ASSIGN_ENV};
pub use kernel::simd::{KernelBackend, KernelChoice, KernelSelectError, KERNEL_ENV};
pub use lower_bound::{pairwise_lower_bound, scaled_diameter_lower_bound};
pub use point::Point;
pub use scalar::{Precision, Scalar};
pub use space::VecSpace;

/// Index of a point inside a data set / metric space.
///
/// All algorithms in the workspace refer to points by index so that only
/// indices (not coordinate vectors) need to travel between simulated
/// MapReduce machines.
pub type PointId = usize;
