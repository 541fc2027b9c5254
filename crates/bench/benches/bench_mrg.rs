//! MRG: two-round runtime vs the sequential baseline, the forced
//! multi-round ablation, and the GON vs Hochbaum–Shmoys sub-procedure
//! ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kcenter_core::prelude::*;
use kcenter_data::DatasetSpec;
use kcenter_metric::VecSpace;
use std::hint::black_box;

fn bench_mrg_vs_gon(c: &mut Criterion) {
    let mut group = c.benchmark_group("mrg/vs_gon");
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    let space = VecSpace::from_flat(
        DatasetSpec::Gau {
            n: 50_000,
            k_prime: 25,
        }
        .generate_flat(1),
    );
    for k in [10usize, 25] {
        group.bench_with_input(BenchmarkId::new("mrg_50_machines", k), &k, |b, &k| {
            b.iter(|| {
                black_box(
                    MrgConfig::new(k)
                        .with_machines(50)
                        .with_unchecked_capacity()
                        .run(&space)
                        .unwrap(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("gon", k), &k, |b, &k| {
            b.iter(|| black_box(GonzalezConfig::new(k).solve(&space).unwrap()))
        });
    }
    group.finish();
}

fn bench_mrg_machine_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("mrg/machine_count");
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    let space = VecSpace::from_flat(DatasetSpec::Unif { n: 50_000 }.generate_flat(2));
    for m in [1usize, 8, 50, 200] {
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, &m| {
            b.iter(|| {
                black_box(
                    MrgConfig::new(25)
                        .with_machines(m)
                        .with_unchecked_capacity()
                        .run(&space)
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_mrg_forced_multi_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("mrg/forced_multi_round");
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    let space = VecSpace::from_flat(
        DatasetSpec::Gau {
            n: 20_000,
            k_prime: 10,
        }
        .generate_flat(3),
    );
    // Two-round capacity vs a capacity small enough to force a third round.
    group.bench_function("two_round", |b| {
        b.iter(|| {
            black_box(
                MrgConfig::new(10)
                    .with_machines(40)
                    .with_capacity(space.len() / 40 + 10 * 40)
                    .run(&space)
                    .unwrap(),
            )
        })
    });
    group.bench_function("multi_round_small_capacity", |b| {
        b.iter(|| {
            black_box(
                MrgConfig::new(10)
                    .with_machines(40)
                    .with_capacity(space.len() / 40 + 50)
                    .run(&space)
                    .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_final_solver_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("mrg/final_solver");
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    let space = VecSpace::from_flat(
        DatasetSpec::Gau {
            n: 20_000,
            k_prime: 25,
        }
        .generate_flat(4),
    );
    group.bench_function("gonzalez_final", |b| {
        b.iter(|| {
            black_box(
                MrgConfig::new(25)
                    .with_machines(50)
                    .with_unchecked_capacity()
                    .with_solver(SequentialSolver::Gonzalez)
                    .run(&space)
                    .unwrap(),
            )
        })
    });
    group.bench_function("hochbaum_shmoys_final", |b| {
        b.iter(|| {
            black_box(
                MrgConfig::new(25)
                    .with_machines(50)
                    .with_unchecked_capacity()
                    .with_solver(SequentialSolver::HochbaumShmoys)
                    .run(&space)
                    .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_mrg_vs_gon,
    bench_mrg_machine_count,
    bench_mrg_forced_multi_round,
    bench_final_solver_ablation
);
criterion_main!(benches);
