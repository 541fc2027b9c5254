//! Substrate micro-benchmark: raw distance evaluations and covering-radius
//! scans, the primitives every algorithm round is built from.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kcenter_core::evaluate::covering_radius;
use kcenter_data::{DatasetSpec, PointGenerator, UnifGenerator};
use kcenter_metric::{Distance, Euclidean, Manhattan, VecSpace};
use std::hint::black_box;

fn bench_pairwise_distance(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance/pairwise");
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for dim in [2usize, 10, 38] {
        let g = UnifGenerator::with_dim_and_side(2, dim, 1000.0);
        let pts = g.generate(1);
        group.bench_with_input(BenchmarkId::new("euclidean", dim), &dim, |b, _| {
            b.iter(|| black_box(Euclidean.distance(&pts[0], &pts[1])))
        });
        group.bench_with_input(BenchmarkId::new("manhattan", dim), &dim, |b, _| {
            b.iter(|| black_box(Manhattan.distance(&pts[0], &pts[1])))
        });
    }
    group.finish();
}

fn bench_covering_radius(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance/covering_radius");
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for n in [1_000usize, 10_000, 50_000] {
        let space = VecSpace::from_flat(DatasetSpec::Gau { n, k_prime: 10 }.generate_flat(7));
        let centers: Vec<usize> = (0..10).map(|i| i * (n / 10)).collect();
        group.bench_with_input(BenchmarkId::new("10_centers", n), &n, |b, _| {
            b.iter(|| black_box(covering_radius(&space, &centers)))
        });
    }
    group.finish();
}

fn bench_distance_to_set(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance/distance_to_set");
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    let space = VecSpace::from_flat(DatasetSpec::Unif { n: 10_000 }.generate_flat(3));
    for set_size in [1usize, 10, 100] {
        let centers: Vec<usize> = (0..set_size).collect();
        group.bench_with_input(BenchmarkId::from_parameter(set_size), &set_size, |b, _| {
            b.iter(|| black_box(space.distance_to_set(9_999, &centers)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pairwise_distance,
    bench_covering_radius,
    bench_distance_to_set
);
criterion_main!(benches);
