//! Width-pinned SIMD kernel backends with runtime dispatch.
//!
//! The scalar kernels in [`crate::kernel`] rely on LLVM auto-vectorising
//! their 4-accumulator loops, which leaves lanes on the table at the
//! baseline `x86-64` target (SSE2: 4 `f32` lanes, no FMA).  This module pins
//! the vector shape explicitly and selects an implementation **once at
//! startup** through a small dispatch table:
//!
//! * [`KernelBackend::Scalar`] — the existing 4-accumulator scalar loops,
//!   bit-identical to every release before the dispatch table existed (and
//!   the default when the `simd` cargo feature is off);
//! * [`KernelBackend::Portable`] — a safe array-of-accumulators fallback
//!   that compiles everywhere: 8 lanes at `f32`, 4 lanes at `f64` (one
//!   32-byte vector register), which LLVM reliably vectorises at whatever
//!   width the build target offers.  Its fused relax kernels are
//!   dimension-specialised like the scalar ones: the listed dimensions run
//!   a const-length instantiation of the same lane loop, halving tree and
//!   tail, through the blocked relax loop of [`crate::kernel`];
//! * [`KernelBackend::Avx2`] — `core::arch` AVX2+FMA intrinsics behind
//!   `#[target_feature(enable = "avx2", enable = "fma")]`, compiled only
//!   under the `simd` cargo feature on `x86_64` and selected only when
//!   `is_x86_feature_detected!` confirms both features at runtime.
//!
//! # Dispatch policy
//!
//! The active backend is resolved once, lazily, from the `KCENTER_KERNEL`
//! environment variable (`auto` | `scalar` | `portable` | `avx2`; unset
//! means `auto`) and cached in an atomic — see [`active`].  `auto` resolves
//! to AVX2 when the `simd` feature is compiled in and the CPU supports
//! AVX2+FMA, to the portable lanes when the feature is on but AVX2 is not
//! available, and to the scalar kernels when the feature is off — so a
//! default build behaves exactly like the pre-SIMD code.  [`set_active`]
//! overrides the choice programmatically (the CLI's `--kernel` flag and the
//! A/B benches use it); an unknown or unavailable kernel name is a named
//! [`KernelSelectError`], which the CLI surfaces as a parameter error.
//!
//! Width-pinned kernels only engage when a row carries at least one full
//! vector of coordinates (`dim >= 8` at `f32`, `dim >= 4` at `f64`); below
//! that every backend falls back to the dimension-specialised scalar
//! kernels, so low-dimensional workloads (UNIF 2-D, GAU 3-D) are
//! bit-identical across all backends by construction.
//!
//! # Determinism and the FMA rounding story
//!
//! Results are **bit-deterministic per `(seed, precision, kernel)`**:
//!
//! * Every backend fixes its accumulation order.  The portable and AVX2
//!   kernels accumulate lane `l` over coordinates `l, l+W, l+2W, …` and add
//!   the scalar-tail sum after the lane reduction.  The pairwise `dist2`
//!   kernels (and the portable fused kernels) reduce their lanes in a
//!   halving tree (`(l0+l4)+(l2+l6)` + `(l1+l5)+(l3+l7)` at `W = 8`); the
//!   AVX2 *fused-rows* kernels process four rows per block and reduce each
//!   row's lanes in a pairwise-adjacent tree
//!   (`((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`), with the trailing
//!   `n mod 4` rows going through the single-row kernel — so a row's
//!   summation order is a fixed function of the kernel, its index, and the
//!   row count, never of thread scheduling (the parallel chunk length is a
//!   multiple of the block size, so chunking preserves the block phase).
//! * AVX2 contracts `d*d + acc` into a **fused multiply-add** (one rounding
//!   instead of two), so its sums can differ from the scalar and portable
//!   kernels in the last few ulps.  That is why the kernel is part of the
//!   determinism tuple rather than something the backends paper over: a
//!   given backend always produces the same bits, but two backends may
//!   disagree on near-ties in *comparison space*.
//! * Argmax tie-breaking is preserved in every backend: the fused kernels
//!   update the incumbent only on a strictly greater value, row by row in
//!   index order, so the lowest index achieving the maximum wins — the same
//!   contract as [`crate::kernel::argmax`].  On inputs whose distances are
//!   exactly representable (integer grids, duplicated rows) all backends
//!   therefore return identical `(index, value)` pairs.
//!
//! # Why certification stays on the scalar `wide_*` kernels
//!
//! The `wide_cmp_*` certification scans (covering radius, coverage checks —
//! every *reported* quality number) deliberately keep using the scalar
//! `f64`-accumulating kernels ([`crate::kernel::dist2_wide`]): they are the
//! quality ground truth, and keeping them fixed means a certified radius
//! depends only on *which centers were selected*, never on which kernel
//! computed the comparison-space scans.  Whenever two dispatch arms select
//! the same centers — always, on instances without sub-ulp ties — their
//! certified radii are bit-identical, which is what the dispatch parity
//! tests pin down.  The batch *reporting* helper behind the lower-bound
//! scans ([`crate::MetricSpace::wide_cmp_distances_from`]) does ride the
//! dispatched lanes via the `wide`-accumulating SIMD kernels
//! ([`crate::kernel::dist2_wide_auto`]), and is documented as
//! deterministic per `(precision, kernel)`.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// The environment variable consulted by [`active`] / [`KernelChoice::from_env`]:
/// `KCENTER_KERNEL={auto,scalar,portable,avx2}`.
pub const KERNEL_ENV: &str = "KCENTER_KERNEL";

/// A concrete kernel implementation the dispatch table can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum KernelBackend {
    /// The 4-accumulator scalar loops (auto-vectorised by LLVM, if at all).
    Scalar = 0,
    /// The portable width-pinned array-of-accumulators kernels (8 `f32` /
    /// 4 `f64` lanes), dimension-specialised in the fused relax kernels;
    /// compiles on every target.
    Portable = 1,
    /// AVX2+FMA intrinsics; requires the `simd` cargo feature, an `x86_64`
    /// target, and runtime CPU support.
    Avx2 = 2,
}

impl KernelBackend {
    /// Every backend, in dispatch-preference order (least to most
    /// specialised).
    pub const ALL: [KernelBackend; 3] = [
        KernelBackend::Scalar,
        KernelBackend::Portable,
        KernelBackend::Avx2,
    ];

    /// The name used by `KCENTER_KERNEL`, the CLI `--kernel` flag, and
    /// reports.
    pub fn name(&self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Portable => "portable",
            KernelBackend::Avx2 => "avx2",
        }
    }

    /// Whether this backend can run in this build on this machine.
    ///
    /// `Scalar` and `Portable` always can; `Avx2` requires the `simd` cargo
    /// feature, an `x86_64` target, and runtime AVX2+FMA support.
    pub fn is_available(&self) -> bool {
        match self {
            KernelBackend::Scalar | KernelBackend::Portable => true,
            KernelBackend::Avx2 => avx2_available(),
        }
    }

    /// What `auto` resolves to in this build on this machine: AVX2 when
    /// compiled in (`simd` feature) and supported, otherwise the portable
    /// lanes when the feature is on, otherwise the scalar kernels.
    pub fn auto() -> KernelBackend {
        #[cfg(feature = "simd")]
        {
            if KernelBackend::Avx2.is_available() {
                KernelBackend::Avx2
            } else {
                KernelBackend::Portable
            }
        }
        #[cfg(not(feature = "simd"))]
        KernelBackend::Scalar
    }

    fn from_u8(v: u8) -> Option<KernelBackend> {
        KernelBackend::ALL.into_iter().find(|k| *k as u8 == v)
    }
}

impl fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether AVX2+FMA kernels are compiled in *and* supported by this CPU.
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    false
}

/// A parsed kernel request: either defer to detection (`auto`) or pin one
/// backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelChoice {
    /// Resolve at startup via [`KernelBackend::auto`].
    Auto,
    /// Pin this backend (checked for availability when resolved).
    Fixed(KernelBackend),
}

impl KernelChoice {
    /// Parses a kernel name (`auto` | `scalar` | `portable` | `avx2`,
    /// case-insensitive).  Unknown names are a named
    /// [`KernelSelectError::Unknown`].
    pub fn parse(name: &str) -> Result<KernelChoice, KernelSelectError> {
        match name.to_ascii_lowercase().as_str() {
            "auto" => Ok(KernelChoice::Auto),
            "scalar" => Ok(KernelChoice::Fixed(KernelBackend::Scalar)),
            "portable" => Ok(KernelChoice::Fixed(KernelBackend::Portable)),
            "avx2" => Ok(KernelChoice::Fixed(KernelBackend::Avx2)),
            _ => Err(KernelSelectError::Unknown { value: name.into() }),
        }
    }

    /// Reads the request from [`KERNEL_ENV`]; unset means `auto`.
    pub fn from_env() -> Result<KernelChoice, KernelSelectError> {
        match std::env::var(KERNEL_ENV) {
            Ok(value) => KernelChoice::parse(&value),
            Err(_) => Ok(KernelChoice::Auto),
        }
    }

    /// The name this request parses from.
    pub fn name(&self) -> &'static str {
        match self {
            KernelChoice::Auto => "auto",
            KernelChoice::Fixed(k) => k.name(),
        }
    }

    /// Resolves the request to a concrete, available backend.
    pub fn resolve(self) -> Result<KernelBackend, KernelSelectError> {
        match self {
            KernelChoice::Auto => Ok(KernelBackend::auto()),
            KernelChoice::Fixed(k) if k.is_available() => Ok(k),
            KernelChoice::Fixed(k) => Err(KernelSelectError::Unavailable { kernel: k.name() }),
        }
    }
}

/// Why a kernel request could not be honoured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelSelectError {
    /// The name is not one of `auto` / `scalar` / `portable` / `avx2`.
    Unknown {
        /// The rejected name.
        value: String,
    },
    /// The backend exists but cannot run here (not compiled in, or the CPU
    /// lacks the instruction set).
    Unavailable {
        /// Name of the unavailable backend.
        kernel: &'static str,
    },
}

impl fmt::Display for KernelSelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelSelectError::Unknown { value } => write!(
                f,
                "unknown kernel {value:?} (expected auto, scalar, portable, or avx2)"
            ),
            KernelSelectError::Unavailable { kernel } => write!(
                f,
                "kernel {kernel:?} is not available in this build on this machine \
                 (the avx2 kernels need the `simd` cargo feature, an x86-64 target, \
                 and runtime AVX2+FMA support)"
            ),
        }
    }
}

impl std::error::Error for KernelSelectError {}

const ACTIVE_UNSET: u8 = u8::MAX;
static ACTIVE: AtomicU8 = AtomicU8::new(ACTIVE_UNSET);

/// The dispatched backend every `*_auto` kernel entry point uses.
///
/// Resolved lazily on first use from [`KERNEL_ENV`] (unset means `auto`)
/// and cached; the per-call cost is one relaxed atomic load.  A malformed
/// environment value panics with the [`KernelSelectError`] message — the
/// CLI validates the variable up front and reports the same message as a
/// named parameter error instead.
#[inline]
pub fn active() -> KernelBackend {
    match KernelBackend::from_u8(ACTIVE.load(Ordering::Relaxed)) {
        Some(k) => k,
        None => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> KernelBackend {
    let k = KernelChoice::from_env()
        .and_then(KernelChoice::resolve)
        .unwrap_or_else(|e| panic!("{KERNEL_ENV}: {e}"));
    ACTIVE.store(k as u8, Ordering::Relaxed);
    k
}

/// Overrides the dispatched backend (the CLI `--kernel` flag and the A/B
/// benches/tests use this).  Fails with a named error when the backend is
/// not available in this build on this machine.
///
/// The override takes effect for subsequent kernel calls process-wide;
/// switch only at startup or between self-contained runs (the A/B pattern),
/// not concurrently with a running scan.
pub fn set_active(kernel: KernelBackend) -> Result<(), KernelSelectError> {
    if !kernel.is_available() {
        return Err(KernelSelectError::Unavailable {
            kernel: kernel.name(),
        });
    }
    ACTIVE.store(kernel as u8, Ordering::Relaxed);
    Ok(())
}

/// Per-scalar dispatch hooks for the width-pinned kernels.
///
/// Implemented for exactly the two [`crate::Scalar`] types (`f32`: 8 lanes,
/// `f64`: 4 lanes — one 32-byte vector register each) and wired in as a
/// supertrait of that trait, so the generic kernel entry points in [`crate::kernel`]
/// can dispatch without naming concrete types.  Every hook returns `None`
/// when the requested backend has no width-pinned kernel for the shape
/// (backend `Scalar`, rows shorter than one vector, or AVX2 not compiled
/// in); the caller then falls back to the scalar kernel, keeping the
/// fallback rule identical across call sites.
pub trait SimdScalar: Copy + Sized + Send + Sync + 'static {
    /// Lane count of the width-pinned kernels at this scalar (8 for `f32`,
    /// 4 for `f64`).
    const LANES: usize;

    /// Squared Euclidean distance accumulated in `Self` under `backend`.
    fn simd_dist2(backend: KernelBackend, a: &[Self], b: &[Self]) -> Option<Self>;

    /// Squared Euclidean distance accumulated in `f64` (each coordinate
    /// widened before subtracting) under `backend`.
    fn simd_dist2_wide(backend: KernelBackend, a: &[Self], b: &[Self]) -> Option<f64>;

    /// The fused relax + argmax pass over contiguous rows under `backend`
    /// (see [`crate::kernel::relax_max_rows_coords`] for the contract).
    fn simd_relax_rows_max(
        backend: KernelBackend,
        coords: &[Self],
        dim: usize,
        center_row: &[Self],
        nearest: &mut [Self],
    ) -> Option<(usize, Self)>;

    /// The fused relax + argmax pass over an id subset under `backend`
    /// (see [`crate::kernel::relax_max_ids_coords`] for the contract).
    fn simd_relax_ids_max(
        backend: KernelBackend,
        coords: &[Self],
        dim: usize,
        subset: &[usize],
        center_row: &[Self],
        nearest: &mut [Self],
    ) -> Option<(usize, Self)>;
}

/// The portable width-pinned kernels: plain arrays of `W` accumulators that
/// LLVM vectorises at whatever width the build target offers, with the same
/// fixed lane assignment and halving-tree reduction as the AVX2 kernels
/// (module docs) so each backend's summation order is pinned.  The fused
/// relax kernels call the same `dist2` per row, on const-length
/// rows at the specialised dimensions, so they keep its bits exactly.
mod portable {
    use crate::kernel::{fixed_row, relax_ids, relax_rows};
    use crate::scalar::Scalar;

    /// Fixed halving-tree reduction over the first `width = W` lanes:
    /// repeatedly folds lane `l + width/2` into lane `l`.
    #[inline]
    fn reduce_lanes<S: Scalar, const W: usize>(acc: [S; W]) -> S {
        let mut buf = acc;
        let mut width = W;
        while width > 1 {
            width /= 2;
            for l in 0..width {
                buf[l] += buf[l + width];
            }
        }
        buf[0]
    }

    /// Squared distance with `W` lane accumulators (lane `l` sums
    /// coordinates `l, l+W, …`), scalar tail added after the lane
    /// reduction.  Always inlined, so a caller passing rows of a
    /// compile-time length gets a fully unrolled instantiation.
    #[inline(always)]
    pub fn dist2<S: Scalar, const W: usize>(a: &[S], b: &[S]) -> S {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mut acc = [S::ZERO; W];
        let mut i = 0;
        while i + W <= n {
            for (l, slot) in acc.iter_mut().enumerate() {
                let d = a[i + l] - b[i + l];
                *slot += d * d;
            }
            i += W;
        }
        let mut tail = S::ZERO;
        while i < n {
            let d = a[i] - b[i];
            tail += d * d;
            i += 1;
        }
        reduce_lanes(acc) + tail
    }

    /// [`dist2`] accumulated in `f64` from the `S` rows (the wide /
    /// certification-space shape), `W` lanes.
    #[inline]
    pub fn dist2_wide<S: Scalar, const W: usize>(a: &[S], b: &[S]) -> f64 {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mut acc = [0.0f64; W];
        let mut i = 0;
        while i + W <= n {
            for (l, slot) in acc.iter_mut().enumerate() {
                let d = a[i + l].to_f64() - b[i + l].to_f64();
                *slot += d * d;
            }
            i += W;
        }
        let mut tail = 0.0f64;
        while i < n {
            let d = a[i].to_f64() - b[i].to_f64();
            tail += d * d;
            i += 1;
        }
        reduce_lanes(acc) + tail
    }

    /// Fused relax + argmax over contiguous rows on the `W`-lane distance,
    /// through the blocked relax loop.  Specialised dimensions run a
    /// const-length instantiation of [`dist2`] (same lanes, tree and tail),
    /// so the distance unrolls fully.
    pub fn relax_rows_max<S: Scalar, const W: usize>(
        coords: &[S],
        dim: usize,
        center: &[S],
        nearest: &mut [S],
    ) -> (usize, S) {
        with_const_dim!(dim, D => {
            let center = fixed_row::<S, D>(center);
            relax_rows(coords, D, nearest, |row| dist2::<S, W>(fixed_row::<S, D>(row), center))
        }, _ => relax_rows(coords, dim, nearest, |row| dist2::<S, W>(row, center)))
    }

    /// Fused relax + argmax over an id subset on the `W`-lane distance
    /// (dimension-specialised like [`relax_rows_max`]).
    pub fn relax_ids_max<S: Scalar, const W: usize>(
        coords: &[S],
        dim: usize,
        subset: &[usize],
        center: &[S],
        nearest: &mut [S],
    ) -> (usize, S) {
        debug_assert_eq!(subset.len(), nearest.len());
        with_const_dim!(dim, D => {
            let center = fixed_row::<S, D>(center);
            relax_ids(coords, D, subset, nearest, |row| {
                dist2::<S, W>(fixed_row::<S, D>(row), center)
            })
        }, _ => relax_ids(coords, dim, subset, nearest, |row| dist2::<S, W>(row, center)))
    }
}

/// The AVX2+FMA kernels.  Every public function runtime-checks CPU support
/// and returns `None` when AVX2 or FMA is missing, so the `unsafe`
/// `#[target_feature]` calls are sound by construction; the dispatch layer
/// never reaches them unless [`KernelBackend::Avx2`] passed
/// [`KernelBackend::is_available`] anyway.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod avx2 {
    use core::arch::x86_64::*;

    #[inline]
    fn detected() -> bool {
        // `is_x86_feature_detected!` caches its CPUID probe, so this is a
        // relaxed atomic load per call.
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }

    /// Fixed-order horizontal sum of 8 `f32` lanes:
    /// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` — the same halving tree as
    /// the portable kernels.
    ///
    /// # Safety
    ///
    /// Requires AVX2 support.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum_ps(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let q = _mm_add_ps(lo, hi); // l0+l4, l1+l5, l2+l6, l3+l7
        let h = _mm_add_ps(q, _mm_movehl_ps(q, q)); // q0+q2, q1+q3, _, _
        let s = _mm_add_ss(h, _mm_shuffle_ps(h, h, 0b01));
        _mm_cvtss_f32(s)
    }

    /// Fixed-order horizontal sum of 4 `f64` lanes: `(l0+l2) + (l1+l3)`.
    ///
    /// # Safety
    ///
    /// Requires AVX2 support.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum_pd(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v);
        let hi = _mm256_extractf128_pd(v, 1);
        let q = _mm_add_pd(lo, hi); // l0+l2, l1+l3
        let s = _mm_add_sd(q, _mm_unpackhi_pd(q, q));
        _mm_cvtsd_f64(s)
    }

    /// 8-lane FMA squared distance (two vector accumulators striding 16
    /// coordinates, then one, then a scalar tail).
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA support; reads stay within the shorter slice.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dist2_f32_impl(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 16 <= n {
            let d0 = _mm256_sub_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)));
            let d1 = _mm256_sub_ps(
                _mm256_loadu_ps(ap.add(i + 8)),
                _mm256_loadu_ps(bp.add(i + 8)),
            );
            acc0 = _mm256_fmadd_ps(d0, d0, acc0);
            acc1 = _mm256_fmadd_ps(d1, d1, acc1);
            i += 16;
        }
        if i + 8 <= n {
            let d = _mm256_sub_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)));
            acc0 = _mm256_fmadd_ps(d, d, acc0);
            i += 8;
        }
        let mut sum = hsum_ps(_mm256_add_ps(acc0, acc1));
        while i < n {
            let d = a[i] - b[i];
            sum += d * d;
            i += 1;
        }
        sum
    }

    /// 4-lane FMA squared distance at `f64` (two vector accumulators
    /// striding 8 coordinates, then one, then a scalar tail).
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA support; reads stay within the shorter slice.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dist2_f64_impl(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut i = 0;
        while i + 8 <= n {
            let d0 = _mm256_sub_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)));
            let d1 = _mm256_sub_pd(
                _mm256_loadu_pd(ap.add(i + 4)),
                _mm256_loadu_pd(bp.add(i + 4)),
            );
            acc0 = _mm256_fmadd_pd(d0, d0, acc0);
            acc1 = _mm256_fmadd_pd(d1, d1, acc1);
            i += 8;
        }
        if i + 4 <= n {
            let d = _mm256_sub_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)));
            acc0 = _mm256_fmadd_pd(d, d, acc0);
            i += 4;
        }
        let mut sum = hsum_pd(_mm256_add_pd(acc0, acc1));
        while i < n {
            let d = a[i] - b[i];
            sum += d * d;
            i += 1;
        }
        sum
    }

    /// 4-lane FMA squared distance over `f32` rows accumulated in `f64`
    /// (each 4-float block widened with `vcvtps2pd` before subtracting) —
    /// the wide / certification-space shape.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA support; reads stay within the shorter slice.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dist2_wide_f32_impl(a: &[f32], b: &[f32]) -> f64 {
        let n = a.len().min(b.len());
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut i = 0;
        while i + 8 <= n {
            let a0 = _mm256_cvtps_pd(_mm_loadu_ps(ap.add(i)));
            let b0 = _mm256_cvtps_pd(_mm_loadu_ps(bp.add(i)));
            let a1 = _mm256_cvtps_pd(_mm_loadu_ps(ap.add(i + 4)));
            let b1 = _mm256_cvtps_pd(_mm_loadu_ps(bp.add(i + 4)));
            let d0 = _mm256_sub_pd(a0, b0);
            let d1 = _mm256_sub_pd(a1, b1);
            acc0 = _mm256_fmadd_pd(d0, d0, acc0);
            acc1 = _mm256_fmadd_pd(d1, d1, acc1);
            i += 8;
        }
        if i + 4 <= n {
            let d = _mm256_sub_pd(
                _mm256_cvtps_pd(_mm_loadu_ps(ap.add(i))),
                _mm256_cvtps_pd(_mm_loadu_ps(bp.add(i))),
            );
            acc0 = _mm256_fmadd_pd(d, d, acc0);
            i += 4;
        }
        let mut sum = hsum_pd(_mm256_add_pd(acc0, acc1));
        while i < n {
            let d = a[i] as f64 - b[i] as f64;
            sum += d * d;
            i += 1;
        }
        sum
    }

    /// Fused relax + argmax over contiguous rows, processing **four rows
    /// per block** against the shared center: the distance accumulations of
    /// the four rows run in four independent vector accumulators and reduce
    /// together (pairwise-adjacent `hadd` trees, one cross-128 add), so the
    /// per-row horizontal-reduction cost of the single-row kernel is paid
    /// once per block instead of once per row.  Rows `4·⌊n/4⌋ ..` fall back
    /// to the single-row kernel, so every row's summation order is a fixed
    /// function of its index and the row count — deterministic, and
    /// preserved under the `PAR_CHUNK` chunking (the chunk length is a
    /// multiple of 4, so chunking never re-phases the blocks).
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA support.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn relax_rows_max_f32_impl(
        coords: &[f32],
        dim: usize,
        center: &[f32],
        nearest: &mut [f32],
    ) -> (usize, f32) {
        let n = nearest.len().min(coords.len() / dim.max(1));
        let cp = center.as_ptr();
        let mut best = (0usize, f32::NEG_INFINITY);
        let block = 4 * dim;
        let mut r = 0;
        while r + 4 <= n {
            let p = coords.as_ptr().add(r * dim);
            // Pull the block two ahead into L1 while this one computes:
            // the scan is DRAM-bound, so hiding the line fills behind the
            // FMA work is worth a prefetch per 64-byte line.  (`wrapping_add`
            // may point past the buffer near the end; prefetch hints never
            // fault and carry no provenance requirements.)
            let ahead = p.wrapping_add(2 * block);
            let mut off = 0;
            while off < block {
                _mm_prefetch::<_MM_HINT_T0>(ahead.wrapping_add(off) as *const i8);
                off += 16;
            }
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut acc2 = _mm256_setzero_ps();
            let mut acc3 = _mm256_setzero_ps();
            let mut j = 0;
            while j + 8 <= dim {
                let c = _mm256_loadu_ps(cp.add(j));
                let d0 = _mm256_sub_ps(_mm256_loadu_ps(p.add(j)), c);
                let d1 = _mm256_sub_ps(_mm256_loadu_ps(p.add(dim + j)), c);
                let d2 = _mm256_sub_ps(_mm256_loadu_ps(p.add(2 * dim + j)), c);
                let d3 = _mm256_sub_ps(_mm256_loadu_ps(p.add(3 * dim + j)), c);
                acc0 = _mm256_fmadd_ps(d0, d0, acc0);
                acc1 = _mm256_fmadd_ps(d1, d1, acc1);
                acc2 = _mm256_fmadd_ps(d2, d2, acc2);
                acc3 = _mm256_fmadd_ps(d3, d3, acc3);
                j += 8;
            }
            // Four horizontal sums at once: hadd pairs adjacent lanes, so
            // each row reduces as ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)).
            let t0 = _mm256_hadd_ps(acc0, acc1);
            let t1 = _mm256_hadd_ps(acc2, acc3);
            let t2 = _mm256_hadd_ps(t0, t1);
            let mut quad = _mm_add_ps(_mm256_castps256_ps128(t2), _mm256_extractf128_ps(t2, 1));
            if j < dim {
                // Scalar dimension tail, appended per row after the lane sum.
                let mut sums = [0.0f32; 4];
                _mm_storeu_ps(sums.as_mut_ptr(), quad);
                while j < dim {
                    let c = *center.get_unchecked(j);
                    for (rr, sum) in sums.iter_mut().enumerate() {
                        let d = *p.add(rr * dim + j) - c;
                        *sum += d * d;
                    }
                    j += 1;
                }
                quad = _mm_loadu_ps(sums.as_ptr());
            }
            // Branchless relax: `min` keeps the incumbent on ties exactly
            // like the scalar kernel's strict `<` (distances are
            // non-negative, so there is no -0.0/+0.0 ambiguity), and the
            // store is unconditional — a dirtied line per block is far
            // cheaper than a hard-to-predict branch per row.  The argmax
            // only takes the scalar path when some lane actually beats the
            // running maximum (rare after the first rows of a scan).
            let slots = nearest.as_mut_ptr().add(r);
            let relaxed = _mm_min_ps(quad, _mm_loadu_ps(slots));
            _mm_storeu_ps(slots, relaxed);
            if _mm_movemask_ps(_mm_cmpgt_ps(relaxed, _mm_set1_ps(best.1))) != 0 {
                let mut vals = [0.0f32; 4];
                _mm_storeu_ps(vals.as_mut_ptr(), relaxed);
                for (rr, &v) in vals.iter().enumerate() {
                    if v > best.1 {
                        best = (r + rr, v);
                    }
                }
            }
            r += 4;
        }
        while r < n {
            let d = dist2_f32_impl(&coords[r * dim..r * dim + dim], center);
            let slot = nearest.get_unchecked_mut(r);
            if d < *slot {
                *slot = d;
            }
            if *slot > best.1 {
                best = (r, *slot);
            }
            r += 1;
        }
        best
    }

    /// `f64` counterpart of [`relax_rows_max_f32_impl`]: four rows per
    /// block, 4-lane accumulators, pairwise-adjacent (`hadd`) reduction.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA support.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn relax_rows_max_f64_impl(
        coords: &[f64],
        dim: usize,
        center: &[f64],
        nearest: &mut [f64],
    ) -> (usize, f64) {
        let n = nearest.len().min(coords.len() / dim.max(1));
        let cp = center.as_ptr();
        let mut best = (0usize, f64::NEG_INFINITY);
        let block = 4 * dim;
        let mut r = 0;
        while r + 4 <= n {
            let p = coords.as_ptr().add(r * dim);
            // Same prefetch-two-blocks-ahead scheme as the f32 kernel
            // (8 f64 per 64-byte line).
            let ahead = p.wrapping_add(2 * block);
            let mut off = 0;
            while off < block {
                _mm_prefetch::<_MM_HINT_T0>(ahead.wrapping_add(off) as *const i8);
                off += 8;
            }
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            let mut acc2 = _mm256_setzero_pd();
            let mut acc3 = _mm256_setzero_pd();
            let mut j = 0;
            while j + 4 <= dim {
                let c = _mm256_loadu_pd(cp.add(j));
                let d0 = _mm256_sub_pd(_mm256_loadu_pd(p.add(j)), c);
                let d1 = _mm256_sub_pd(_mm256_loadu_pd(p.add(dim + j)), c);
                let d2 = _mm256_sub_pd(_mm256_loadu_pd(p.add(2 * dim + j)), c);
                let d3 = _mm256_sub_pd(_mm256_loadu_pd(p.add(3 * dim + j)), c);
                acc0 = _mm256_fmadd_pd(d0, d0, acc0);
                acc1 = _mm256_fmadd_pd(d1, d1, acc1);
                acc2 = _mm256_fmadd_pd(d2, d2, acc2);
                acc3 = _mm256_fmadd_pd(d3, d3, acc3);
                j += 4;
            }
            // hadd gives [A0+A1, B0+B1, A2+A3, B2+B3]; adding the two
            // 128-bit halves yields [sumA, sumB] — row order (l0+l1)+(l2+l3).
            let t0 = _mm256_hadd_pd(acc0, acc1);
            let t1 = _mm256_hadd_pd(acc2, acc3);
            let ab = _mm_add_pd(_mm256_castpd256_pd128(t0), _mm256_extractf128_pd(t0, 1));
            let cd = _mm_add_pd(_mm256_castpd256_pd128(t1), _mm256_extractf128_pd(t1, 1));
            let mut quad = _mm256_set_m128d(cd, ab);
            if j < dim {
                let mut sums = [0.0f64; 4];
                _mm256_storeu_pd(sums.as_mut_ptr(), quad);
                while j < dim {
                    let c = *center.get_unchecked(j);
                    for (rr, sum) in sums.iter_mut().enumerate() {
                        let d = *p.add(rr * dim + j) - c;
                        *sum += d * d;
                    }
                    j += 1;
                }
                quad = _mm256_loadu_pd(sums.as_ptr());
            }
            // Branchless relax + movemask-guarded argmax (see the f32
            // kernel for the tie/sign reasoning).
            let slots = nearest.as_mut_ptr().add(r);
            let relaxed = _mm256_min_pd(quad, _mm256_loadu_pd(slots));
            _mm256_storeu_pd(slots, relaxed);
            let above = _mm256_cmp_pd::<_CMP_GT_OQ>(relaxed, _mm256_set1_pd(best.1));
            if _mm256_movemask_pd(above) != 0 {
                let mut vals = [0.0f64; 4];
                _mm256_storeu_pd(vals.as_mut_ptr(), relaxed);
                for (rr, &v) in vals.iter().enumerate() {
                    if v > best.1 {
                        best = (r + rr, v);
                    }
                }
            }
            r += 4;
        }
        while r < n {
            let d = dist2_f64_impl(&coords[r * dim..r * dim + dim], center);
            let slot = nearest.get_unchecked_mut(r);
            if d < *slot {
                *slot = d;
            }
            if *slot > best.1 {
                best = (r, *slot);
            }
            r += 1;
        }
        best
    }

    macro_rules! fused_ids_kernel {
        ($t:ty, $dist2:ident, $ids_impl:ident) => {
            /// Fused relax + argmax over an id subset (single-row distances;
            /// subset gathers defeat the 4-row blocking's contiguity).
            ///
            /// # Safety
            ///
            /// Requires AVX2+FMA support.
            #[target_feature(enable = "avx2", enable = "fma")]
            unsafe fn $ids_impl(
                coords: &[$t],
                dim: usize,
                subset: &[usize],
                center: &[$t],
                nearest: &mut [$t],
            ) -> (usize, $t) {
                debug_assert_eq!(subset.len(), nearest.len());
                let mut best = (0usize, <$t>::NEG_INFINITY);
                for (i, (&p, slot)) in subset.iter().zip(nearest.iter_mut()).enumerate() {
                    let d = $dist2(&coords[p * dim..p * dim + dim], center);
                    if d < *slot {
                        *slot = d;
                    }
                    if *slot > best.1 {
                        best = (i, *slot);
                    }
                }
                best
            }
        };
    }

    fused_ids_kernel!(f32, dist2_f32_impl, relax_ids_max_f32_impl);
    fused_ids_kernel!(f64, dist2_f64_impl, relax_ids_max_f64_impl);

    macro_rules! checked_entries {
        ($t:ty, $rows:ident, $rows_impl:ident, $ids:ident, $ids_impl:ident) => {
            /// Runtime-checked safe entry for the rows kernel.  Declines
            /// (scalar fallback) when the CPU lacks AVX2+FMA **or** the
            /// center row is shorter than `dim` — the impls read `dim`
            /// coordinates from it unchecked, so the length check is part
            /// of the soundness argument, not just hygiene.
            #[inline]
            pub fn $rows(
                coords: &[$t],
                dim: usize,
                center: &[$t],
                nearest: &mut [$t],
            ) -> Option<(usize, $t)> {
                if !detected() || center.len() < dim {
                    return None;
                }
                // SAFETY: AVX2+FMA support and the center length were just
                // confirmed; the impl bounds every other access by the
                // slice lengths it is given.
                Some(unsafe { $rows_impl(coords, dim, center, nearest) })
            }

            /// Runtime-checked safe entry for the subset kernel (same
            /// availability + center-length guard as the rows entry).
            #[inline]
            pub fn $ids(
                coords: &[$t],
                dim: usize,
                subset: &[usize],
                center: &[$t],
                nearest: &mut [$t],
            ) -> Option<(usize, $t)> {
                if !detected() || center.len() < dim {
                    return None;
                }
                // SAFETY: AVX2+FMA support and the center length were just
                // confirmed; row reads go through checked slice indexing.
                Some(unsafe { $ids_impl(coords, dim, subset, center, nearest) })
            }
        };
    }

    checked_entries!(
        f32,
        relax_rows_max_f32,
        relax_rows_max_f32_impl,
        relax_ids_max_f32,
        relax_ids_max_f32_impl
    );
    checked_entries!(
        f64,
        relax_rows_max_f64,
        relax_rows_max_f64_impl,
        relax_ids_max_f64,
        relax_ids_max_f64_impl
    );

    /// Runtime-checked safe entry for the `f32` squared distance.
    #[inline]
    pub fn dist2_f32(a: &[f32], b: &[f32]) -> Option<f32> {
        if !detected() {
            return None;
        }
        // SAFETY: AVX2+FMA support was just confirmed.
        Some(unsafe { dist2_f32_impl(a, b) })
    }

    /// Runtime-checked safe entry for the `f64` squared distance.
    #[inline]
    pub fn dist2_f64(a: &[f64], b: &[f64]) -> Option<f64> {
        if !detected() {
            return None;
        }
        // SAFETY: AVX2+FMA support was just confirmed.
        Some(unsafe { dist2_f64_impl(a, b) })
    }

    /// Runtime-checked safe entry for the wide (`f64`-accumulating) squared
    /// distance over `f32` rows.
    #[inline]
    pub fn dist2_wide_f32(a: &[f32], b: &[f32]) -> Option<f64> {
        if !detected() {
            return None;
        }
        // SAFETY: AVX2+FMA support was just confirmed.
        Some(unsafe { dist2_wide_f32_impl(a, b) })
    }
}

/// Compile-time stub: without the `simd` feature (or off `x86_64`) the AVX2
/// backend is never available, so these entries are unreachable; they exist
/// so the dispatch code needs no `cfg` at the call sites.
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
mod avx2 {
    #![allow(clippy::ptr_arg, unused_variables, missing_docs)]

    pub fn dist2_f32(a: &[f32], b: &[f32]) -> Option<f32> {
        None
    }
    pub fn dist2_f64(a: &[f64], b: &[f64]) -> Option<f64> {
        None
    }
    pub fn dist2_wide_f32(a: &[f32], b: &[f32]) -> Option<f64> {
        None
    }
    pub fn relax_rows_max_f32(
        coords: &[f32],
        dim: usize,
        center: &[f32],
        nearest: &mut [f32],
    ) -> Option<(usize, f32)> {
        None
    }
    pub fn relax_rows_max_f64(
        coords: &[f64],
        dim: usize,
        center: &[f64],
        nearest: &mut [f64],
    ) -> Option<(usize, f64)> {
        None
    }
    pub fn relax_ids_max_f32(
        coords: &[f32],
        dim: usize,
        subset: &[usize],
        center: &[f32],
        nearest: &mut [f32],
    ) -> Option<(usize, f32)> {
        None
    }
    pub fn relax_ids_max_f64(
        coords: &[f64],
        dim: usize,
        subset: &[usize],
        center: &[f64],
        nearest: &mut [f64],
    ) -> Option<(usize, f64)> {
        None
    }
}

impl SimdScalar for f32 {
    const LANES: usize = 8;

    #[inline]
    fn simd_dist2(backend: KernelBackend, a: &[f32], b: &[f32]) -> Option<f32> {
        if a.len().min(b.len()) < Self::LANES {
            return None;
        }
        match backend {
            KernelBackend::Scalar => None,
            KernelBackend::Portable => Some(portable::dist2::<f32, 8>(a, b)),
            KernelBackend::Avx2 => avx2::dist2_f32(a, b),
        }
    }

    #[inline]
    fn simd_dist2_wide(backend: KernelBackend, a: &[f32], b: &[f32]) -> Option<f64> {
        // The wide kernels widen to f64 lanes, so the pinned width is 4.
        if a.len().min(b.len()) < 4 {
            return None;
        }
        match backend {
            KernelBackend::Scalar => None,
            KernelBackend::Portable => Some(portable::dist2_wide::<f32, 4>(a, b)),
            KernelBackend::Avx2 => avx2::dist2_wide_f32(a, b),
        }
    }

    #[inline]
    fn simd_relax_rows_max(
        backend: KernelBackend,
        coords: &[f32],
        dim: usize,
        center_row: &[f32],
        nearest: &mut [f32],
    ) -> Option<(usize, f32)> {
        if dim < Self::LANES {
            return None;
        }
        match backend {
            KernelBackend::Scalar => None,
            KernelBackend::Portable => Some(portable::relax_rows_max::<f32, 8>(
                coords, dim, center_row, nearest,
            )),
            KernelBackend::Avx2 => avx2::relax_rows_max_f32(coords, dim, center_row, nearest),
        }
    }

    #[inline]
    fn simd_relax_ids_max(
        backend: KernelBackend,
        coords: &[f32],
        dim: usize,
        subset: &[usize],
        center_row: &[f32],
        nearest: &mut [f32],
    ) -> Option<(usize, f32)> {
        if dim < Self::LANES {
            return None;
        }
        match backend {
            KernelBackend::Scalar => None,
            KernelBackend::Portable => Some(portable::relax_ids_max::<f32, 8>(
                coords, dim, subset, center_row, nearest,
            )),
            KernelBackend::Avx2 => {
                avx2::relax_ids_max_f32(coords, dim, subset, center_row, nearest)
            }
        }
    }
}

impl SimdScalar for f64 {
    const LANES: usize = 4;

    #[inline]
    fn simd_dist2(backend: KernelBackend, a: &[f64], b: &[f64]) -> Option<f64> {
        if a.len().min(b.len()) < Self::LANES {
            return None;
        }
        match backend {
            KernelBackend::Scalar => None,
            KernelBackend::Portable => Some(portable::dist2::<f64, 4>(a, b)),
            KernelBackend::Avx2 => avx2::dist2_f64(a, b),
        }
    }

    #[inline]
    fn simd_dist2_wide(backend: KernelBackend, a: &[f64], b: &[f64]) -> Option<f64> {
        // f64 rows already accumulate in f64: the wide kernel *is* the
        // narrow one, mirroring the scalar kernels' bit-identity contract.
        Self::simd_dist2(backend, a, b)
    }

    #[inline]
    fn simd_relax_rows_max(
        backend: KernelBackend,
        coords: &[f64],
        dim: usize,
        center_row: &[f64],
        nearest: &mut [f64],
    ) -> Option<(usize, f64)> {
        if dim < Self::LANES {
            return None;
        }
        match backend {
            KernelBackend::Scalar => None,
            KernelBackend::Portable => Some(portable::relax_rows_max::<f64, 4>(
                coords, dim, center_row, nearest,
            )),
            KernelBackend::Avx2 => avx2::relax_rows_max_f64(coords, dim, center_row, nearest),
        }
    }

    #[inline]
    fn simd_relax_ids_max(
        backend: KernelBackend,
        coords: &[f64],
        dim: usize,
        subset: &[usize],
        center_row: &[f64],
        nearest: &mut [f64],
    ) -> Option<(usize, f64)> {
        if dim < Self::LANES {
            return None;
        }
        match backend {
            KernelBackend::Scalar => None,
            KernelBackend::Portable => Some(portable::relax_ids_max::<f64, 4>(
                coords, dim, subset, center_row, nearest,
            )),
            KernelBackend::Avx2 => {
                avx2::relax_ids_max_f64(coords, dim, subset, center_row, nearest)
            }
        }
    }
}

/// The backends available in this build on this machine, in
/// [`KernelBackend::ALL`] order — what the A/B tests iterate over.
pub fn available_backends() -> Vec<KernelBackend> {
    KernelBackend::ALL
        .into_iter()
        .filter(KernelBackend::is_available)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{dist2, dist2_wide};

    /// Multiples of 1/8 in [-16, 16): squared differences are multiples of
    /// 1/64 bounded by 1024, so any sum of up to 64 of them stays below
    /// 2^16 — exactly representable at **both** f32 and f64, making every
    /// accumulation order (FMA or not) produce identical bits.
    fn rows(n: usize, dim: usize, salt: u64) -> Vec<f64> {
        (0..n * dim)
            .map(|i| {
                let v = (i as u64 ^ salt)
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                ((v >> 33) % 256) as f64 / 8.0 - 16.0
            })
            .collect()
    }

    #[test]
    fn names_parse_and_round_trip() {
        for k in KernelBackend::ALL {
            assert_eq!(
                KernelChoice::parse(k.name()),
                Ok(KernelChoice::Fixed(k)),
                "{k}"
            );
            assert_eq!(k.to_string(), k.name());
        }
        assert_eq!(KernelChoice::parse("AUTO"), Ok(KernelChoice::Auto));
        let err = KernelChoice::parse("warp9").unwrap_err();
        assert!(err.to_string().contains("warp9"));
        assert!(err.to_string().contains("avx2"));
    }

    #[test]
    fn auto_resolution_matches_the_build_configuration() {
        let auto = KernelChoice::Auto.resolve().unwrap();
        #[cfg(not(feature = "simd"))]
        assert_eq!(auto, KernelBackend::Scalar);
        #[cfg(feature = "simd")]
        {
            if KernelBackend::Avx2.is_available() {
                assert_eq!(auto, KernelBackend::Avx2);
            } else {
                assert_eq!(auto, KernelBackend::Portable);
            }
        }
        assert!(available_backends().contains(&auto));
    }

    #[test]
    fn unavailable_backend_is_a_named_resolve_error() {
        if !KernelBackend::Avx2.is_available() {
            let err = KernelChoice::Fixed(KernelBackend::Avx2)
                .resolve()
                .unwrap_err();
            assert!(err.to_string().contains("avx2"));
            assert_eq!(set_active(KernelBackend::Avx2).unwrap_err(), err);
        } else {
            assert!(KernelChoice::Fixed(KernelBackend::Avx2).resolve().is_ok());
        }
    }

    #[test]
    fn portable_dist2_matches_scalar_within_rounding_and_exactly_on_integers() {
        for dim in [4usize, 8, 10, 16, 33, 64] {
            let a = rows(1, dim, 1);
            let b = rows(1, dim, 2);
            // The coordinates above are multiples of 1/16 up to ~60: all
            // products and sums are exact at f64, so every accumulation
            // order gives the same bits.
            assert_eq!(
                portable::dist2::<f64, 4>(&a, &b),
                dist2(&a, &b),
                "dim {dim}"
            );
            let a32: Vec<f32> = a.iter().map(|&x| x as f32).collect();
            let b32: Vec<f32> = b.iter().map(|&x| x as f32).collect();
            assert_eq!(
                portable::dist2_wide::<f32, 4>(&a32, &b32),
                dist2_wide(&a32, &b32),
                "dim {dim}"
            );
        }
    }

    #[test]
    fn simd_hooks_decline_small_rows_and_the_scalar_backend() {
        let a = [1.0f32; 4];
        let b = [0.0f32; 4];
        // Below one vector of lanes: every backend declines.
        for k in KernelBackend::ALL {
            assert_eq!(<f32 as SimdScalar>::simd_dist2(k, &a, &b), None);
        }
        // The scalar backend always declines (the caller falls back).
        let a8 = [1.0f32; 8];
        let b8 = [0.0f32; 8];
        assert_eq!(
            <f32 as SimdScalar>::simd_dist2(KernelBackend::Scalar, &a8, &b8),
            None
        );
        assert_eq!(
            <f32 as SimdScalar>::simd_dist2(KernelBackend::Portable, &a8, &b8),
            Some(8.0)
        );
    }

    #[test]
    fn every_available_backend_agrees_on_exact_inputs() {
        // Multiples of 1/16 below 2^11: squares and sums are exact at both
        // precisions, so all backends (FMA or not) must agree bitwise.
        for dim in [8usize, 10, 16, 38] {
            let a = rows(1, dim, 3);
            let b = rows(1, dim, 4);
            let a32: Vec<f32> = a.iter().map(|&x| x as f32).collect();
            let b32: Vec<f32> = b.iter().map(|&x| x as f32).collect();
            let want64 = dist2(&a, &b);
            let want32 = dist2(&a32, &b32);
            for k in available_backends() {
                let got64 = <f64 as SimdScalar>::simd_dist2(k, &a, &b).unwrap_or(want64);
                let got32 = <f32 as SimdScalar>::simd_dist2(k, &a32, &b32).unwrap_or(want32);
                assert_eq!(got64, want64, "{k} dim {dim}");
                assert_eq!(got32, want32, "{k} dim {dim}");
                let wide = <f32 as SimdScalar>::simd_dist2_wide(k, &a32, &b32)
                    .unwrap_or_else(|| dist2_wide(&a32, &b32));
                assert_eq!(wide, dist2_wide(&a32, &b32), "{k} dim {dim} wide");
            }
        }
    }

    #[test]
    fn backend_kernels_stay_within_rounding_of_scalar_on_general_inputs() {
        for dim in [8usize, 16, 33] {
            let a: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.37).sin() * 55.0).collect();
            let b: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.61).cos() * 55.0).collect();
            let want = dist2(&a, &b);
            for k in available_backends() {
                if let Some(got) = <f64 as SimdScalar>::simd_dist2(k, &a, &b) {
                    let rel = (got - want).abs() / want.max(1e-300);
                    assert!(rel <= 1e-13, "{k} dim {dim}: {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn fused_backend_kernels_preserve_lowest_index_ties() {
        // 20 rows at dim 8; rows 3, 9 and 17 are identical copies of the
        // farthest row, so their squared distances tie exactly in every
        // backend (same bits in, same exact arithmetic on integers).
        let dim = 8;
        let mut coords = rows(20, dim, 9)
            .iter()
            .map(|&x| x.round())
            .collect::<Vec<f64>>();
        let far: Vec<f64> = (0..dim).map(|i| 500.0 + i as f64).collect();
        for &r in &[3usize, 9, 17] {
            coords[r * dim..(r + 1) * dim].copy_from_slice(&far);
        }
        let center: Vec<f64> = vec![0.0; dim];
        for k in available_backends() {
            let mut nearest = vec![f64::INFINITY; 20];
            let got =
                <f64 as SimdScalar>::simd_relax_rows_max(k, &coords, dim, &center, &mut nearest)
                    .unwrap_or_else(|| {
                        crate::kernel::relax_max_rows_coords_with(
                            KernelBackend::Scalar,
                            &coords,
                            dim,
                            &center,
                            &mut nearest,
                        )
                    });
            assert_eq!(got.0, 3, "{k}: ties must resolve to the lowest index");
        }
    }
}
