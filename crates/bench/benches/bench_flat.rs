//! The flat SoA kernels on the hot nearest-center scan (one Gonzalez
//! iteration: relax + argmax).
//!
//! Grid: n ∈ {10k, 100k, 1M} × d ∈ {2, 16}, plus the chunked-parallel flat
//! variant and the `f32`-storage rows (same seed, half the bytes per
//! coordinate).  `cargo run --release -p kcenter-bench --bin flat_report`
//! produces the committed `BENCH_flat.json` from the same scan code.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use kcenter_bench::flatbench::{
    clustered_flat, dense_assign_scan, flat_iteration_under, flat_par_iteration, gonzalez_centers,
    grid_assign_scan,
};
use kcenter_core::coreset::GonzalezCoresetConfig;
use kcenter_core::prelude::*;
use kcenter_data::{DatasetSpec, PointGenerator, UnifGenerator};
use kcenter_metric::kernel::simd;
use kcenter_metric::{KernelBackend, KernelChoice, VecSpace};

const SIZES: [usize; 3] = [10_000, 100_000, 1_000_000];
const DIMS: [usize; 2] = [2, 16];

fn bench_nearest_center_scan(c: &mut Criterion) {
    // The `flat*` rows pin the scalar kernels; the `*_simd` rows use
    // whatever KCENTER_KERNEL resolves to (auto by default) — same A/B as
    // the `flat_report` binary / BENCH_flat.json.
    let simd_kernel = KernelChoice::from_env()
        .and_then(KernelChoice::resolve)
        .expect("KCENTER_KERNEL resolves");
    let mut group = c.benchmark_group("flat/nearest_center_scan");
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for &dim in &DIMS {
        for &n in &SIZES {
            let generator = UnifGenerator::with_dim_and_side(n, dim, 1000.0);
            let flat = generator.generate_flat(42);
            let flat32 = generator.generate_flat_at::<f32>(42);
            let space = VecSpace::from_flat(flat);
            let space32 = VecSpace::from_flat(flat32);
            let label = format!("n{n}_d{dim}");

            group.bench_with_input(BenchmarkId::new("flat", &label), &n, |b, _| {
                let mut nearest = vec![f64::INFINITY; n];
                b.iter(|| {
                    black_box(flat_iteration_under(
                        KernelBackend::Scalar,
                        &space,
                        0,
                        &mut nearest,
                    ))
                })
            });
            group.bench_with_input(BenchmarkId::new("flat_par", &label), &n, |b, _| {
                simd::set_active(KernelBackend::Scalar).unwrap();
                let mut nearest = vec![f64::INFINITY; n];
                b.iter(|| black_box(flat_par_iteration(&space, 0, &mut nearest)))
            });
            group.bench_with_input(BenchmarkId::new("flat_f32", &label), &n, |b, _| {
                let mut nearest = vec![f32::INFINITY; n];
                b.iter(|| {
                    black_box(flat_iteration_under(
                        KernelBackend::Scalar,
                        &space32,
                        0,
                        &mut nearest,
                    ))
                })
            });
            group.bench_with_input(BenchmarkId::new("flat_f32_par", &label), &n, |b, _| {
                simd::set_active(KernelBackend::Scalar).unwrap();
                let mut nearest = vec![f32::INFINITY; n];
                b.iter(|| black_box(flat_par_iteration(&space32, 0, &mut nearest)))
            });
            group.bench_with_input(BenchmarkId::new("flat_simd", &label), &n, |b, _| {
                let mut nearest = vec![f64::INFINITY; n];
                b.iter(|| black_box(flat_iteration_under(simd_kernel, &space, 0, &mut nearest)))
            });
            group.bench_with_input(BenchmarkId::new("flat_f32_simd", &label), &n, |b, _| {
                let mut nearest = vec![f32::INFINITY; n];
                b.iter(|| black_box(flat_iteration_under(simd_kernel, &space32, 0, &mut nearest)))
            });
        }
    }
    group.finish();
}

/// Grid-vs-dense assignment arms (`--assign`) at reduced scale: the
/// k-candidate assignment scan, dense vs the spatial grid, across the
/// bucketing dimension range.  `flat_report` measures the same arms at
/// n = 1M and records the `assign_crossover` table `AssignChoice::Auto`
/// reads.
fn bench_assignment_arms(c: &mut Criterion) {
    let simd_kernel = KernelChoice::from_env()
        .and_then(KernelChoice::resolve)
        .expect("KCENTER_KERNEL resolves");
    simd::set_active(simd_kernel).unwrap();
    let n = 200_000;
    let k = 50;
    let mut group = c.benchmark_group("flat/assignment_arms");
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for &dim in &[2usize, 4, 8, 16] {
        let space = VecSpace::from_flat(clustered_flat::<f64>(n, dim, 25, 42));
        let centers = gonzalez_centers(&space, k);
        let label = format!("n{n}_d{dim}_k{k}");

        group.bench_with_input(BenchmarkId::new("assign_dense", &label), &n, |b, _| {
            b.iter(|| black_box(dense_assign_scan(&space, &centers)))
        });
        group.bench_with_input(BenchmarkId::new("assign_grid", &label), &n, |b, _| {
            b.iter(|| {
                black_box(grid_assign_scan(&space, &centers).expect("center set buckets fine"))
            })
        });
    }
    group.finish();
}

/// The sweep amortisation at reduced scale: one grid cell solved on a
/// prebuilt weighted coreset vs a from-scratch EIM rerun on the full data.
/// The build cost itself is measured separately so all three components of
/// the trade-off (build once, solve many, rerun many) are tracked.
fn bench_sweep_via_coreset(c: &mut Criterion) {
    let spec = DatasetSpec::Gau {
        n: 20_000,
        k_prime: 10,
    };
    let dataset = spec.build(42);
    let space = &dataset.space;
    let coreset = GonzalezCoresetConfig::new(200)
        .with_machines(10)
        .build(space)
        .expect("coreset build");

    let mut group = c.benchmark_group("flat/sweep_via_coreset");
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    group.bench_function("coreset_build_t200", |b| {
        b.iter(|| {
            black_box(
                GonzalezCoresetConfig::new(200)
                    .with_machines(10)
                    .build(space)
                    .expect("coreset build"),
            )
        })
    });
    group.bench_function("coreset_solve_k10", |b| {
        b.iter(|| {
            black_box(
                coreset
                    .solve(10, SequentialSolver::Gonzalez, FirstCenter::default())
                    .expect("coreset solve"),
            )
        })
    });
    group.bench_function("eim_rerun_k10", |b| {
        b.iter(|| {
            black_box(
                EimConfig::new(10)
                    .with_machines(10)
                    .with_epsilon(0.13)
                    .with_seed(42)
                    .run(space)
                    .expect("EIM rerun"),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_nearest_center_scan,
    bench_assignment_arms,
    bench_sweep_via_coreset
);
criterion_main!(benches);
