//! Writes `BENCH_flat.json`: throughput of the hot nearest-center scan on
//! the flat SoA kernels, at both storage precisions (`f64` and `f32`),
//! sequential and chunked-parallel, under the scalar kernels and the
//! dispatched SIMD backend.
//!
//! Usage: `cargo run --release -p kcenter-bench --bin flat_report [out.json]`
//!
//! Each configuration is warmed up, then measured as the best-of-`REPEATS`
//! wall time of one full scan (relax + argmax over all n points), matching
//! the `bench_flat` Criterion bench.
//!
//! The assignment sections time one nearest-center assignment scan on the
//! dense arm vs the spatial-grid arm: `assign_results` at n = 1M, and
//! `assign_crossover`, the candidate count per probed `(n, dim)` from which
//! the grid wins, which `kcenter_metric::grid::ASSIGN_CROSSOVER` copies.
//! `relax_crossover` does the same for whole k-center Gonzalez selections
//! (the relax loop) under each pinned arm; `RELAX_CROSSOVER` copies it.
//! Each crossover cell is timed as `PAIRS` interleaved dense/grid block
//! pairs; the record holds each arm's median, which the crossover reads,
//! and its quartiles, so a reader can see how far host load moved it.
//!
//! A further section (`sweep_results`) measures the coreset layer's
//! build-once/solve-many amortisation: one weighted coreset (Gonzalez and
//! EIM builders, both storage precisions) against per-cell EIM reruns over
//! a `(k, φ)` grid, charged in the paper's simulated-time metric.
//!
//! A third section (`executor_results`) runs the same MRG job on the
//! simulated executor and on the threaded one per worker budget,
//! verifying bit-identical outputs and recording real wall-clock round
//! time next to `executor` / `threads` / `host_cores` — so a single-core
//! measuring host's thread overhead is disclosed rather than hidden.

use kcenter_bench::execbench::{run_executor_comparison, ExecutorComparison};
use kcenter_bench::flatbench::{
    clustered_flat, crossover_k, dense_assign_scan, flat_iteration_under, flat_par_iteration,
    gonzalez_centers, grid_assign_scan,
};
use kcenter_bench::sweepbench::{run_sweep_comparison, SweepBuilder, SweepComparison};
use kcenter_core::gonzalez::{self, FirstCenter};
use kcenter_data::{DatasetSpec, PointGenerator, UnifGenerator};
use kcenter_metric::grid::{self, AssignChoice, AssignMode};
use kcenter_metric::kernel::simd;
use kcenter_metric::{KernelBackend, KernelChoice, Scalar, VecSpace};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const SIZES: [usize; 3] = [10_000, 100_000, 1_000_000];
const DIMS: [usize; 2] = [2, 16];
const WARMUP: usize = 2;
const REPEATS: usize = 7;
/// Grid-vs-dense benchmarks: dimensions the spatial grid targets
/// (bucketing stops paying above d = 16), including the generators'
/// default d = 3.
const ASSIGN_DIMS: [usize; 5] = [2, 3, 4, 8, 16];
/// Headline assignment rows: the paper-scale clustered workload.
const ASSIGN_N: usize = 1_000_000;
const ASSIGN_K: usize = 50;
/// Assignment crossover sweeps: point counts probed per dimension; the
/// smallest count where the grid wins anywhere becomes `auto`'s point
/// floor.
const CROSS_NS: [usize; 3] = [1 << 12, 1 << 15, 1 << 18];
/// Relax crossover sweeps add n = 2^10, the shape of a stream's
/// re-compression selection (budget 1,000 over ~1,050 rows).  Only `k < n`
/// is probed: at `k ≥ n` both arms return every row without scanning.
const RELAX_NS: [usize; 4] = [1 << 10, 1 << 12, 1 << 15, 1 << 18];
/// Assignment candidate counts, up to the coreset sizes the weights round
/// buckets.
const CROSS_KS: [usize; 13] = [4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 256, 512, 1024];
/// Gonzalez selection sizes (centers picked), up to coreset-build sizes.
const RELAX_KS: [usize; 13] = [16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024];
/// Each timed assignment block scans at least this many points (repeating
/// the scan at small `n`), so small scans are not lost in timer noise.
const CROSS_BLOCK_POINTS: usize = 1 << 18;
/// Same for the relax blocks, whose selections already run `k` passes.
const RELAX_BLOCK_POINTS: usize = 1 << 16;
/// The assignment sections measure heavier scans (k candidates per point,
/// not 1), so they use a lighter best-of.
const ASSIGN_WARMUP: usize = 1;
const ASSIGN_REPEATS: usize = 3;
/// Timed dense/grid block pairs per crossover cell (after `ASSIGN_WARMUP`
/// untimed pairs): each arm reads as the median of its blocks.
const PAIRS: usize = 5;
/// Scans per timed block: one block = one `select_centers(k = SCANS + 1)`
/// worth of consecutive nearest-center scans, the way the solver actually
/// runs them (so each layout sees its own true cache residency).
const SCANS: usize = 8;

/// Best-of-`REPEATS` wall times of the scan variants, measured
/// **interleaved** (flat64, flat32, flat64, flat32, …) after
/// `WARMUP` untimed rounds.  Interleaving plus best-of damps the scheduling
/// and bandwidth noise of shared machines, which would otherwise skew a
/// ratio whose sides were measured at different times.
fn best_interleaved(variants: &mut [&mut dyn FnMut()]) -> Vec<u128> {
    best_interleaved_n(WARMUP, REPEATS, variants)
}

/// [`best_interleaved`] with explicit round counts (the assignment
/// sections use fewer rounds per configuration — each block is k scans).
fn best_interleaved_n(
    warmup: usize,
    repeats: usize,
    variants: &mut [&mut dyn FnMut()],
) -> Vec<u128> {
    let mut best = vec![u128::MAX; variants.len()];
    for round in 0..warmup + repeats {
        for (slot, f) in best.iter_mut().zip(variants.iter_mut()) {
            let start = Instant::now();
            f();
            let t = start.elapsed().as_nanos();
            if round >= warmup {
                *slot = (*slot).min(t);
            }
        }
    }
    best
}

/// Lower quartile, median and upper quartile of one arm's block times in
/// a crossover cell.
#[derive(Clone, Copy)]
struct Quartiles {
    q1: u128,
    median: u128,
    q3: u128,
}

/// Times one crossover cell: `ASSIGN_WARMUP` untimed, then `PAIRS` timed
/// dense/grid block pairs, alternating which arm runs first so neither
/// always follows the other.  Returns each arm's quartiles per unit of
/// work, a block running `per_block` scans or selections.
fn median_pairs(
    per_block: usize,
    dense: &mut dyn FnMut(),
    grid: &mut dyn FnMut(),
) -> (Quartiles, Quartiles) {
    let mut times = [Vec::with_capacity(PAIRS), Vec::with_capacity(PAIRS)];
    for pair in 0..ASSIGN_WARMUP + PAIRS {
        for arm in [pair % 2, 1 - pair % 2] {
            let start = Instant::now();
            if arm == 0 {
                dense();
            } else {
                grid();
            }
            let t = start.elapsed().as_nanos() / per_block as u128;
            if pair >= ASSIGN_WARMUP {
                times[arm].push(t);
            }
        }
    }
    let [dense, grid] = times.map(|mut t| {
        t.sort_unstable();
        Quartiles {
            q1: t[PAIRS / 4],
            median: t[PAIRS / 2],
            q3: t[PAIRS * 3 / 4],
        }
    });
    (dense, grid)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_flat.json".to_string());
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // The *_simd rows run under whatever KCENTER_KERNEL resolves to (auto
    // by default: AVX2+FMA when built with `--features simd` on a
    // supporting CPU, the portable lanes otherwise) — so the scalar-vs-SIMD
    // A/B is reproducible by pinning the variable.  The scalar rows pin
    // KernelBackend::Scalar inside the same interleaved loop.
    let simd_kernel = KernelChoice::from_env()
        .and_then(KernelChoice::resolve)
        .unwrap_or_else(|e| panic!("{e}"));
    eprintln!("dispatched SIMD kernel for *_simd rows: {simd_kernel}");

    let mut rows = Vec::new();
    for &dim in &DIMS {
        for &n in &SIZES {
            let generator = UnifGenerator::with_dim_and_side(n, dim, 1000.0);
            let flat = generator.generate_flat(42);
            // Same seed at f32: identical geometry, half the bytes per row.
            let flat32 = generator.generate_flat_at::<f32>(42);
            let space = VecSpace::from_flat(flat);
            let space32 = VecSpace::from_flat(flat32);
            let nearest = std::cell::RefCell::new(vec![f64::INFINITY; n]);
            let nearest32 = std::cell::RefCell::new(vec![f32::INFINITY; n]);

            // Centers spread across the instance, as successive Gonzalez
            // picks would be.  Each variant resets only the nearest array
            // it actually scans — resetting both would add the same
            // absolute overhead to every timed block and bias the ratios
            // toward 1.
            let centers: Vec<usize> = (0..SCANS).map(|i| i * (n / SCANS)).collect();
            let block64 = |scan: &mut dyn FnMut(usize)| {
                nearest.borrow_mut().fill(f64::INFINITY);
                for &c in &centers {
                    scan(c);
                }
            };
            let block32 = |scan: &mut dyn FnMut(usize)| {
                nearest32.borrow_mut().fill(f32::INFINITY);
                for &c in &centers {
                    scan(c);
                }
            };
            let timed = best_interleaved(&mut [
                &mut || {
                    block64(&mut |c| {
                        black_box(flat_iteration_under(
                            KernelBackend::Scalar,
                            &space,
                            c,
                            &mut nearest.borrow_mut(),
                        ));
                    })
                },
                &mut || {
                    simd::set_active(KernelBackend::Scalar).unwrap();
                    block64(&mut |c| {
                        black_box(flat_par_iteration(&space, c, &mut nearest.borrow_mut()));
                    })
                },
                &mut || {
                    block32(&mut |c| {
                        black_box(flat_iteration_under(
                            KernelBackend::Scalar,
                            &space32,
                            c,
                            &mut nearest32.borrow_mut(),
                        ));
                    })
                },
                &mut || {
                    simd::set_active(KernelBackend::Scalar).unwrap();
                    block32(&mut |c| {
                        black_box(flat_par_iteration(&space32, c, &mut nearest32.borrow_mut()));
                    })
                },
                &mut || {
                    block64(&mut |c| {
                        black_box(flat_iteration_under(
                            simd_kernel,
                            &space,
                            c,
                            &mut nearest.borrow_mut(),
                        ));
                    })
                },
                &mut || {
                    block32(&mut |c| {
                        black_box(flat_iteration_under(
                            simd_kernel,
                            &space32,
                            c,
                            &mut nearest32.borrow_mut(),
                        ));
                    })
                },
            ]);
            let per_scan: Vec<u128> = timed.iter().map(|t| t / SCANS as u128).collect();
            let (flat_ns, par_ns, f32_ns, f32_par_ns, simd_ns, f32_simd_ns) = (
                per_scan[0],
                per_scan[1],
                per_scan[2],
                per_scan[3],
                per_scan[4],
                per_scan[5],
            );

            let mpts = |ns: u128| n as f64 / (ns as f64 / 1e9) / 1e6;
            eprintln!(
                "n={n:>9} d={dim:>2}  flat64 {:>9} ns ({:>6.1} Mpt/s)  flat32 {:>9} ns ({:>6.1} Mpt/s, {:.2}x vs flat64)  simd64 {:>9} ns  simd32 {:>9} ns ({:.2}x vs scalar flat64)  par64 {:>9} ns  par32 {:>9} ns",
                flat_ns, mpts(flat_ns),
                f32_ns, mpts(f32_ns),
                flat_ns as f64 / f32_ns as f64,
                simd_ns,
                f32_simd_ns,
                flat_ns as f64 / f32_simd_ns as f64,
                par_ns,
                f32_par_ns,
            );
            rows.push((
                n,
                dim,
                flat_ns,
                par_ns,
                f32_ns,
                f32_par_ns,
                simd_ns,
                f32_simd_ns,
            ));
        }
    }

    // ---- Grid-vs-dense assignment scans: the clustered paper-scale
    // headline rows, then the crossover sweep that `AssignChoice::Auto`
    // reads.  Both arms run under the dispatched kernel backend, so the
    // grid must beat the *SIMD* dense scan, not a strawman.
    simd::set_active(simd_kernel).unwrap();
    let mut assign_rows = Vec::new();
    for &dim in &ASSIGN_DIMS {
        let space = VecSpace::from_flat(clustered_flat::<f64>(ASSIGN_N, dim, 25, 42));
        let centers = gonzalez_centers(&space, ASSIGN_K);
        let timed = best_interleaved_n(
            ASSIGN_WARMUP,
            ASSIGN_REPEATS,
            &mut [
                &mut || {
                    black_box(dense_assign_scan(&space, &centers));
                },
                &mut || {
                    black_box(grid_assign_scan(&space, &centers).expect("center set buckets fine"));
                },
            ],
        );
        let (dense_assign_ns, grid_assign_ns) = (timed[0], timed[1]);
        eprintln!(
            "assign n={ASSIGN_N} d={dim:>2} k={ASSIGN_K}: dense {dense_assign_ns} ns vs grid {grid_assign_ns} ns ({:.2}x)",
            dense_assign_ns as f64 / grid_assign_ns as f64,
        );
        assign_rows.push((dim, dense_assign_ns, grid_assign_ns));
    }

    let mut crossover_rows = Vec::new();
    for &n in &CROSS_NS {
        let scans = (CROSS_BLOCK_POINTS / n).max(1);
        for &dim in &ASSIGN_DIMS {
            let space = VecSpace::from_flat(clustered_flat::<f64>(n, dim, 25, 43));
            let max_k = *CROSS_KS.iter().max().expect("CROSS_KS is non-empty");
            let all_centers = gonzalez_centers(&space, max_k);
            let (dense, grid): (Vec<_>, Vec<_>) = CROSS_KS
                .iter()
                .map(|&k| {
                    let centers = &all_centers[..k];
                    median_pairs(
                        scans,
                        &mut || {
                            for _ in 0..scans {
                                black_box(dense_assign_scan(&space, centers));
                            }
                        },
                        &mut || {
                            for _ in 0..scans {
                                black_box(
                                    grid_assign_scan(&space, centers)
                                        .expect("center set buckets fine"),
                                );
                            }
                        },
                    )
                })
                .unzip();
            let row = CrossoverRow::new(n, dim, CROSS_KS.to_vec(), dense, grid);
            eprintln!("assign {}", row.summary());
            crossover_rows.push(row);
        }
    }

    // ---- Relax crossover: whole k-center Gonzalez selections through the
    // solver's entry point with the arm pinned (grid bucketing charged to
    // each selection), against the sequential dense kernel that every
    // MapReduce reducer and coreset round runs.
    let mut relax_rows = Vec::new();
    for &n in &RELAX_NS {
        let selections = (RELAX_BLOCK_POINTS / n).max(1);
        let ks: Vec<usize> = RELAX_KS.iter().copied().filter(|&k| k < n).collect();
        for &dim in &ASSIGN_DIMS {
            let space = VecSpace::from_flat(clustered_flat::<f64>(n, dim, 25, 43));
            let ids: Vec<usize> = (0..n).collect();
            let select = |mode: AssignMode, k: usize| {
                grid::set_choice(AssignChoice::Fixed(mode));
                for _ in 0..selections {
                    black_box(gonzalez::select_centers(
                        &space,
                        &ids,
                        k,
                        FirstCenter::default(),
                        false,
                    ));
                }
            };
            let (dense, grid): (Vec<_>, Vec<_>) = ks
                .iter()
                .map(|&k| {
                    median_pairs(
                        selections,
                        &mut || select(AssignMode::Dense, k),
                        &mut || select(AssignMode::Grid, k),
                    )
                })
                .unzip();
            let row = CrossoverRow::new(n, dim, ks.clone(), dense, grid);
            eprintln!("relax {}", row.summary());
            relax_rows.push(row);
        }
    }
    grid::set_choice(AssignChoice::Auto);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"benchmark\": \"nearest-center scan (relax + argmax, one Gonzalez iteration)\",\n",
    );
    json.push_str("  \"candidate\": \"FlatPoints SoA rows, fused squared-distance kernel (relax_max), f64 and f32 storage; *_simd columns rerun the same scan under the dispatched width-pinned kernel backend\",\n");
    let _ = writeln!(
        json,
        "  \"metric\": \"best-of-{REPEATS} interleaved wall nanoseconds per full n-point scan, {SCANS} consecutive scans per timed block ({WARMUP} warm-up rounds)\","
    );
    let _ = writeln!(
        json,
        "  \"host_cores\": {threads},\n  \"threads\": {threads},\n  \"host_note\": \"available_parallelism of the measuring host; single-vCPU containers understate the par_* rows\","
    );
    let _ = writeln!(
        json,
        "  \"kernel\": \"{simd_kernel}\",\n  \"kernel_note\": \"dispatched backend of the *_simd_ns columns (KCENTER_KERNEL resolution; flat_ns/flat_f32_ns pin the scalar kernels)\","
    );
    json.push_str("  \"results\": [\n");
    for (i, (n, dim, flat_ns, par_ns, f32_ns, f32_par_ns, simd_ns, f32_simd_ns)) in
        rows.iter().enumerate()
    {
        let _ = write!(
            json,
            "    {{\"n\": {n}, \"dim\": {dim}, \"flat_ns\": {flat_ns}, \"flat_par_ns\": {par_ns}, \"flat_f32_ns\": {f32_ns}, \"flat_f32_par_ns\": {f32_par_ns}, \"flat_simd_ns\": {simd_ns}, \"flat_f32_simd_ns\": {f32_simd_ns}, \"speedup_f32_vs_f64\": {:.3}, \"speedup_simd_vs_scalar\": {:.3}, \"speedup_f32_simd_vs_f64_scalar\": {:.3}}}",
            *flat_ns as f64 / *f32_ns as f64,
            *flat_ns as f64 / *simd_ns as f64,
            *flat_ns as f64 / *f32_simd_ns as f64,
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");

    // ---- Grid-vs-dense assignment sections.
    json.push_str("  \"assign\": \"dense flat scans vs the kcenter_metric::grid spatial-grid arm (KCENTER_ASSIGN / --assign); both arms under the dispatched kernel backend, results bit-identical by construction\",\n");
    json.push_str("  \"assign_benchmark\": \"clustered workload (25 uniform cluster centres, spread side/50), candidates from a farthest-point traversal (the spread distribution solvers actually produce): one k-candidate assignment scan per n-point instance (grid build charged to the scan)\",\n");
    json.push_str("  \"assign_results\": [\n");
    for (i, (dim, dense_assign_ns, grid_assign_ns)) in assign_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n\": {ASSIGN_N}, \"dim\": {dim}, \"k\": {ASSIGN_K}, \"dense_assign_ns\": {dense_assign_ns}, \"grid_assign_ns\": {grid_assign_ns}, \"assign_speedup\": {:.3}}}",
            *dense_assign_ns as f64 / *grid_assign_ns as f64,
        );
        json.push_str(if i + 1 < assign_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"assign_crossover_note\": \"per (n, dim), the smallest probed candidate count from which the grid assignment scan beats the dense one at every larger probed count (ns per scan: the median of {PAIRS} interleaved dense/grid pairs of blocks of at least {CROSS_BLOCK_POINTS} scanned points, after {ASSIGN_WARMUP} warm-up pair, with the quartiles in the *_q1_ns/*_q3_ns columns); kcenter_metric::grid::ASSIGN_CROSSOVER copies these records and a kcenter-bench test fails when they disagree\","
    );
    write_crossover(
        &mut json,
        "assign_crossover",
        ["dense_assign", "grid_assign"],
        &crossover_rows,
    );
    let _ = writeln!(
        json,
        "  \"relax_crossover_note\": \"per (n, dim), the smallest probed selection size k from which a k-center Gonzalez selection (select_centers, sequential scan) runs faster with the grid relax arm pinned, bucketing and the cell-order row copy included, than with the dense fused kernel, at every larger probed k below n (ns per selection: the median of {PAIRS} interleaved dense/grid pairs of blocks of at least {RELAX_BLOCK_POINTS} points, after {ASSIGN_WARMUP} warm-up pair, with the quartiles in the *_q1_ns/*_q3_ns columns); a grid of one occupied cell runs the dense scan on both arms (n = 2^10 at d = 8, and every n at d = 16); kcenter_metric::grid::RELAX_CROSSOVER copies these records and a kcenter-bench test fails when they disagree\","
    );
    write_crossover(
        &mut json,
        "relax_crossover",
        ["dense_select", "grid_select"],
        &relax_rows,
    );

    // ---- Sweep-via-coreset vs per-cell EIM reruns (build once, solve a
    // (k, phi) grid).  Both sides are charged in the paper's simulated-time
    // metric.
    let mut sweeps: Vec<SweepComparison> = Vec::new();
    let gau100k = DatasetSpec::Gau {
        n: 100_000,
        k_prime: 25,
    };
    let gau50k = DatasetSpec::Gau {
        n: 50_000,
        k_prime: 25,
    };
    sweeps.push(sweep_row::<f64>(
        &gau100k,
        &[10, 25, 50],
        &[1.0, 4.0, 8.0],
        SweepBuilder::Gonzalez { t: 1_000 },
    ));
    sweeps.push(sweep_row::<f32>(
        &gau100k,
        &[10, 25, 50],
        &[1.0, 4.0, 8.0],
        SweepBuilder::Gonzalez { t: 1_000 },
    ));
    // The EIM builder's weight round costs a dense O(n·|C|) pass that a
    // single rerun never pays, so it amortises over a *bigger* grid than
    // the Gonzalez builder does — benchmarked at 5×5.
    sweeps.push(sweep_row::<f64>(
        &gau50k,
        &[2, 3, 5, 8, 10],
        &[1.0, 2.0, 4.0, 6.0, 8.0],
        SweepBuilder::Eim,
    ));
    sweeps.push(sweep_row::<f32>(
        &gau50k,
        &[2, 3, 5, 8, 10],
        &[1.0, 2.0, 4.0, 6.0, 8.0],
        SweepBuilder::Eim,
    ));

    // ---- Executor A/B (ISSUE 8): the same MRG job on the simulated
    // executor and on real threads, per worker budget.  Outputs are
    // verified bit-identical on every row; only the wall clock is allowed
    // to move, and on a single-core host the threaded rows are *expected*
    // to pay scope spawn/join overhead — recorded, not hidden.
    let mut budgets = vec![1usize, threads];
    budgets.dedup();
    let executor_cmp: ExecutorComparison = run_executor_comparison(&gau100k, 42, 25, 50, &budgets);
    assert!(
        executor_cmp.all_bit_identical(),
        "executor determinism contract violated"
    );
    for run in &executor_cmp.runs {
        eprintln!(
            "executor {} ({} threads, host {threads} cores): {} rounds, simulated {:.1}ms, sequential {:.1}ms, wall {:.1}ms, bit_identical {}",
            run.executor,
            run.executor.thread_count(),
            run.rounds,
            run.simulated.as_secs_f64() * 1e3,
            run.sequential.as_secs_f64() * 1e3,
            run.wall.as_secs_f64() * 1e3,
            run.bit_identical,
        );
    }

    json.push_str("  \"executor_benchmark\": \"one MRG job (GAU 100k, k=25, 50 machines) per executor: the paper's sequential simulated mode vs std::thread::scope fan-out per worker budget; outputs verified bit-identical on every row — the timing columns are measurements\",\n");
    json.push_str("  \"executor_note\": \"wall_ns is real concurrent elapsed round time; on a 1-core host the threaded rows pay spawn/join overhead with no parallelism to buy it back — compare wall_ns against the simulated executor's row, not against simulated_ns\",\n");
    json.push_str("  \"executor_results\": [\n");
    for (i, run) in executor_cmp.runs.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"n\": {}, \"k\": {}, \"machines\": {}, \"executor\": \"{}\", \"threads\": {}, \"host_cores\": {threads}, \"rounds\": {}, \"simulated_ns\": {}, \"sequential_ns\": {}, \"wall_ns\": {}, \"radius\": {:.6}, \"bit_identical\": {}}}",
            executor_cmp.workload,
            executor_cmp.n,
            executor_cmp.k,
            executor_cmp.machines,
            run.executor.name(),
            run.executor.thread_count(),
            run.rounds,
            run.simulated.as_nanos(),
            run.sequential.as_nanos(),
            run.wall.as_nanos(),
            run.radius,
            run.bit_identical,
        );
        json.push_str(if i + 1 < executor_cmp.runs.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");

    json.push_str("  \"sweep_benchmark\": \"build one weighted coreset, solve a (k, phi) grid on it, vs rerunning EIM per cell; simulated = paper's per-round max machine time\",\n");
    json.push_str("  \"sweep_results\": [\n");
    for (i, s) in sweeps.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"n\": {}, \"precision\": \"{}\", \"builder\": \"{}\", \"coreset_size\": {}, \"construction_radius\": {:.6}, \"build_rounds\": {}, \"grid_cells\": {}, \"build_simulated_ns\": {}, \"solve_simulated_ns\": {}, \"sweep_simulated_ns\": {}, \"eim_reruns_simulated_ns\": {}, \"sweep_wall_ns\": {}, \"eim_reruns_wall_ns\": {}, \"simulated_speedup\": {:.3}, \"max_radius_ratio\": {:.4}}}",
            s.workload,
            s.n,
            s.precision,
            s.builder,
            s.coreset_size,
            s.construction_radius,
            s.build_rounds,
            s.cells.len(),
            s.build_simulated.as_nanos(),
            s.solve_simulated.as_nanos(),
            s.sweep_simulated().as_nanos(),
            s.eim_simulated.as_nanos(),
            s.sweep_wall.as_nanos(),
            s.eim_wall.as_nanos(),
            s.simulated_speedup(),
            s.max_radius_ratio,
        );
        json.push_str(if i + 1 < sweeps.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_flat.json");
    println!("wrote {out_path}");
}

/// One crossover record per probed `(n, dim)`: both arms' timings per
/// probed count and the crossover their medians give.
struct CrossoverRow {
    n: usize,
    dim: usize,
    ks: Vec<usize>,
    arms: [Vec<Quartiles>; 2],
    crossover: Option<usize>,
}

/// One arm's medians, the timings `crossover_k` reads.
fn medians(arm: &[Quartiles]) -> Vec<u128> {
    arm.iter().map(|q| q.median).collect()
}

impl CrossoverRow {
    /// The record of one `(n, dim)` sweep, with the crossover its medians
    /// give.
    fn new(
        n: usize,
        dim: usize,
        ks: Vec<usize>,
        dense: Vec<Quartiles>,
        grid: Vec<Quartiles>,
    ) -> Self {
        let crossover = crossover_k(&ks, &medians(&dense), &medians(&grid));
        CrossoverRow {
            n,
            dim,
            ks,
            arms: [dense, grid],
            crossover,
        }
    }

    /// The progress line: both arms' medians and the crossover.
    fn summary(&self) -> String {
        format!(
            "crossover n={} d={:>2}: dense {:?} vs grid {:?} -> grid wins from k = {:?}",
            self.n,
            self.dim,
            medians(&self.arms[0]),
            medians(&self.arms[1]),
            self.crossover
        )
    }
}

/// Writes the `section` array of crossover records, naming the dense and
/// grid timing columns after `arms`: `<arm>_ns` holds the medians and
/// `<arm>_q1_ns` / `<arm>_q3_ns` the quartiles.
fn write_crossover(json: &mut String, section: &str, arms: [&str; 2], rows: &[CrossoverRow]) {
    let list =
        |v: &mut dyn Iterator<Item = u128>| v.map(|t| t.to_string()).collect::<Vec<_>>().join(", ");
    let _ = writeln!(json, "  \"{section}\": [");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n\": {}, \"dim\": {}, \"ks\": [{}]",
            row.n,
            row.dim,
            list(&mut row.ks.iter().map(|&k| k as u128)),
        );
        for (name, arm) in arms.iter().zip(&row.arms) {
            let _ = write!(
                json,
                ", \"{name}_ns\": [{}], \"{name}_q1_ns\": [{}], \"{name}_q3_ns\": [{}]",
                list(&mut arm.iter().map(|q| q.median)),
                list(&mut arm.iter().map(|q| q.q1)),
                list(&mut arm.iter().map(|q| q.q3)),
            );
        }
        let _ = write!(
            json,
            ", \"crossover_k\": {}}}",
            row.crossover.map_or("null".to_string(), |k| k.to_string()),
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
}

/// One sweep comparison at the report's fixed cluster shape (the paper's
/// 50 machines, ε = 0.1, seed 42), with a progress line on stderr.
fn sweep_row<S: Scalar>(
    spec: &DatasetSpec,
    ks: &[usize],
    phis: &[f64],
    builder: SweepBuilder,
) -> SweepComparison {
    let s = run_sweep_comparison::<S>(spec, 42, ks, phis, builder, 50, 0.1);
    eprintln!(
        "sweep {} {} {}: coreset t={} built in {} rounds, simulated {:.1}ms + solves {:.1}ms vs eim reruns {:.1}ms ({:.2}x), worst radius ratio {:.3}",
        s.workload,
        s.precision,
        s.builder,
        s.coreset_size,
        s.build_rounds,
        s.build_simulated.as_secs_f64() * 1e3,
        s.solve_simulated.as_secs_f64() * 1e3,
        s.eim_simulated.as_secs_f64() * 1e3,
        s.simulated_speedup(),
        s.max_radius_ratio,
    );
    s
}
