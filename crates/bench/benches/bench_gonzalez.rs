//! GON baseline: runtime is Θ(k·n), plus the sequential-vs-parallel inner
//! scan ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kcenter_core::prelude::*;
use kcenter_data::DatasetSpec;
use kcenter_metric::VecSpace;
use std::hint::black_box;

fn bench_gonzalez_scaling_in_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("gonzalez/scaling_n");
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for n in [2_000usize, 10_000, 50_000] {
        let space = VecSpace::from_flat(DatasetSpec::Unif { n }.generate_flat(1));
        group.bench_with_input(BenchmarkId::new("k10", n), &n, |b, _| {
            b.iter(|| black_box(GonzalezConfig::new(10).solve(&space).unwrap()))
        });
    }
    group.finish();
}

fn bench_gonzalez_scaling_in_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("gonzalez/scaling_k");
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    let space = VecSpace::from_flat(
        DatasetSpec::Gau {
            n: 20_000,
            k_prime: 25,
        }
        .generate_flat(2),
    );
    for k in [2usize, 10, 50, 100] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| black_box(GonzalezConfig::new(k).solve(&space).unwrap()))
        });
    }
    group.finish();
}

fn bench_parallel_scan_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("gonzalez/parallel_scan_ablation");
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    let space = VecSpace::from_flat(DatasetSpec::Unif { n: 100_000 }.generate_flat(3));
    group.bench_function("sequential_scan", |b| {
        b.iter(|| black_box(GonzalezConfig::new(25).solve(&space).unwrap()))
    });
    group.bench_function("rayon_scan", |b| {
        b.iter(|| {
            black_box(
                GonzalezConfig::new(25)
                    .with_parallel_scan(true)
                    .solve(&space)
                    .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gonzalez_scaling_in_n,
    bench_gonzalez_scaling_in_k,
    bench_parallel_scan_ablation
);
criterion_main!(benches);
