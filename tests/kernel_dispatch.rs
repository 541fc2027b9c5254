//! Kernel-dispatch parity: `KCENTER_KERNEL=scalar` vs `auto` (and every
//! other available backend) must produce **bit-identical certified radii**
//! per `(seed, precision)` across GON, MRG and EIM on small inputs, and the
//! dispatch layer must reject unknown or unavailable kernels with named
//! errors rather than panicking inside a scan.
//!
//! The instances use integer coordinates in a range where every squared
//! distance — in any accumulation order, fused or not — is exactly
//! representable at both `f32` and `f64`, so all backends compute the exact
//! same comparison-space values, select the exact same centers (lowest-index
//! tie-breaking is shared by contract), and hand the same center sets to the
//! fixed scalar `wide_cmp_*` certification scans.  In the default build
//! every arm resolves to `scalar` and the test is a tautology; the CI
//! `--features simd` legs run it with the portable and AVX2 arms live.
//!
//! Backend switches go through a process-global dispatch table, so this
//! binary serialises them behind a mutex (each integration-test file is its
//! own process, so other test binaries are unaffected).

use kcenter::prelude::*;
use kcenter_metric::kernel::simd;
use kcenter_metric::{pairwise_lower_bound, scaled_diameter_lower_bound};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serialises backend overrides within this test binary.
fn dispatch_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A deterministic integer-grid cloud at dimension 16 (above both SIMD lane
/// widths, so the width-pinned kernels actually engage): coordinates in
/// [-16, 16], squared distances bounded by 16·32² = 16384 — exact at `f32`.
fn grid_cloud(n: usize, seed: u64) -> Vec<f64> {
    (0..n * 16)
        .map(|i| {
            let v = (i as u64)
                .wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((v >> 33) % 33) as f64 - 16.0
        })
        .collect()
}

fn space_at<S: Scalar>(coords: &[f64], dim: usize) -> VecSpace<Euclidean, S> {
    let narrowed: Vec<S> = coords.iter().map(|&c| S::from_f64(c)).collect();
    VecSpace::from_flat(FlatPoints::from_coords(narrowed, dim).expect("valid grid"))
}

/// Runs all three solvers at storage precision `S` under the **currently
/// active** backend and returns `(gon, mrg, eim)` certified radii plus the
/// selected GON centers.
fn radii_at<S: Scalar>(coords: &[f64], k: usize) -> (f64, f64, f64, Vec<PointId>) {
    let space = space_at::<S>(coords, 16);
    let gon = GonzalezConfig::new(k).solve(&space).expect("GON");
    let mrg = MrgConfig::new(k)
        .with_machines(8)
        .with_unchecked_capacity()
        .run(&space)
        .expect("MRG");
    let eim = EimConfig::new(k)
        .with_machines(8)
        .with_epsilon(0.13)
        .with_seed(11)
        .run(&space)
        .expect("EIM");
    (
        gon.radius,
        mrg.solution.radius,
        eim.solution.radius,
        gon.centers,
    )
}

#[test]
fn certified_radii_are_bit_identical_across_dispatch_arms() {
    let _guard = dispatch_lock();
    let prior = simd::active();
    let coords = grid_cloud(2_500, 3);

    // The scalar arm is the reference (`KCENTER_KERNEL=scalar`).
    simd::set_active(KernelBackend::Scalar).unwrap();
    let ref64 = radii_at::<f64>(&coords, 6);
    let ref32 = radii_at::<f32>(&coords, 6);

    // Every other available arm — including whatever `auto` resolves to —
    // must reproduce the same certified radii and the same GON centers.
    let auto = KernelChoice::Auto.resolve().unwrap();
    let mut arms = simd::available_backends();
    if !arms.contains(&auto) {
        arms.push(auto);
    }
    for arm in arms {
        simd::set_active(arm).unwrap();
        let got64 = radii_at::<f64>(&coords, 6);
        let got32 = radii_at::<f32>(&coords, 6);
        assert_eq!(got64, ref64, "f64 arm {arm} diverged from scalar");
        assert_eq!(got32, ref32, "f32 arm {arm} diverged from scalar");
    }

    simd::set_active(prior).unwrap();
}

#[test]
fn coreset_builds_are_bit_identical_across_dispatch_arms() {
    let _guard = dispatch_lock();
    let prior = simd::active();
    let coords = grid_cloud(2_000, 9);

    simd::set_active(KernelBackend::Scalar).unwrap();
    let reference = {
        let space = space_at::<f32>(&coords, 16);
        let c = GonzalezCoresetConfig::new(64)
            .with_machines(4)
            .build(&space)
            .unwrap();
        (
            c.source_ids().to_vec(),
            c.weights().to_vec(),
            c.construction_radius(),
        )
    };
    for arm in simd::available_backends() {
        simd::set_active(arm).unwrap();
        let space = space_at::<f32>(&coords, 16);
        let c = GonzalezCoresetConfig::new(64)
            .with_machines(4)
            .build(&space)
            .unwrap();
        assert_eq!(c.source_ids(), &reference.0[..], "{arm}");
        assert_eq!(c.weights(), &reference.1[..], "{arm}");
        assert_eq!(c.construction_radius(), reference.2, "{arm}");
    }

    simd::set_active(prior).unwrap();
}

#[test]
fn unknown_kernel_names_are_named_errors() {
    let err = KernelChoice::parse("frobnicate").unwrap_err();
    assert!(err.to_string().contains("frobnicate"));
    assert!(err.to_string().contains("scalar"));
    // Known names parse case-insensitively and resolve when available.
    assert_eq!(
        KernelChoice::parse("SCALAR").unwrap().resolve().unwrap(),
        KernelBackend::Scalar
    );
    assert_eq!(
        KernelChoice::parse("portable").unwrap().resolve().unwrap(),
        KernelBackend::Portable
    );
    // avx2 either resolves (simd build on a supporting CPU) or is the
    // named unavailability error — never a panic.
    match KernelChoice::parse("avx2").unwrap().resolve() {
        Ok(k) => assert_eq!(k, KernelBackend::Avx2),
        Err(e) => assert!(e.to_string().contains("avx2")),
    }
}

#[test]
fn environment_parsing_matches_flag_parsing() {
    // `from_env` reads KCENTER_KERNEL; when unset it must mean `auto`.
    // (The suite cannot mutate the process environment safely across
    // threads, so this asserts on whatever the harness environment is:
    // either the variable is unset/valid — `from_env` succeeds and resolves
    // — or the driver set it to something invalid and the error names it.)
    match KernelChoice::from_env() {
        Ok(choice) => {
            let backend = choice.resolve().expect("env-selected backend resolves");
            assert!(simd::available_backends().contains(&backend));
        }
        Err(e) => assert!(e.to_string().contains("unknown kernel")),
    }
}

/// The instance lower bounds scan on the fixed scalar certification kernel,
/// so they give the same bits under every backend, also where the
/// backends' own sums differ: 64 `f32` rows at dimension 16 with
/// non-integer coordinates.
#[test]
fn lower_bounds_are_bit_identical_across_dispatch_arms() {
    let _guard = dispatch_lock();
    let prior = simd::active();
    let coords: Vec<f64> = (0..64 * 16)
        .map(|i| (0.7317 * i as f64).sin() * 97.3)
        .collect();
    let space = space_at::<f32>(&coords, 16);
    let witness: Vec<PointId> = (0..64).collect();
    let bounds = || {
        (
            scaled_diameter_lower_bound(&space, 1).to_bits(),
            pairwise_lower_bound(&space, &witness).to_bits(),
        )
    };

    simd::set_active(KernelBackend::Scalar).unwrap();
    let reference = bounds();
    assert_eq!(reference.0, 0x4071_3b16_1722_9964);
    for arm in simd::available_backends() {
        simd::set_active(arm).unwrap();
        assert_eq!(bounds(), reference, "{arm}");
    }

    simd::set_active(prior).unwrap();
}
