//! `mem-mrg`: one in-memory MRG run per rep on GAU-HD (d = 16).
//!
//! Set-up generates GAU-HD (n = 1,000,000, k' = 25, d = 16) from the seed.
//! Each rep is one `MrgConfig::run` with k = 25 on 50 machines under the
//! `threads` executor with 2 threads.  The expected answer comes from the
//! same run under the simulated executor (outputs are executor-invariant).
//! The traced run times `MrgConfig::run` and then a separate
//! `covering_radius`; the per-round walls come from the returned
//! `JobStats`.

use std::time::Instant;

use kcenter_core::evaluate::covering_radius;
use kcenter_core::{MrgConfig, MrgResult};
use kcenter_data::DatasetSpec;
use kcenter_mapreduce::Executor;
use kcenter_metric::{grid, Euclidean, VecSpace};

use crate::expected::{self, Expected};
use crate::json::Json;
use crate::query_phase;
use crate::run::{query_ids, secs, Ctx, Outcome, QUERIES_PER_REP, QUERY_WINDOW, SETUPS};
use crate::stats::median;
use crate::trace::Tracer;

const K_PRIME: usize = 25;
const K: usize = 25;
const DIM: usize = 16;
const MACHINES: usize = 50;
const THREADS: usize = 2;

fn config(executor: Executor) -> MrgConfig {
    MrgConfig::new(K)
        .with_machines(MACHINES)
        .with_executor(executor)
}

/// Runs the workload.
pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let n = ctx.scale.n();
    let spec = DatasetSpec::HighDim {
        n,
        k_prime: K_PRIME,
        dim: DIM,
    };
    let threaded = config(Executor::threads(THREADS));
    out.record.set(
        "inputs",
        Json::object()
            .with("dataset", spec.describe())
            .with("k", K)
            .with("machines", MACHINES)
            .with("queries_per_rep", QUERIES_PER_REP),
    );

    // Set-up: generate the space, then one warm-up rep.
    let mut setups = Vec::new();
    let mut space = None;
    for _ in 0..SETUPS {
        drop(space.take());
        let t = Instant::now();
        let s: VecSpace<Euclidean, f64> = spec.build_at::<f64>(ctx.seed).space;
        threaded.run(&s).map_err(|e| format!("warm-up: {e}"))?;
        setups.push(secs(t.elapsed()));
        out.probe.sample();
        space = Some(s);
    }
    let space = space.expect("SETUPS > 0");
    out.put("setup_s", median(&setups));

    let reference = config(Executor::Simulated)
        .run(&space)
        .map_err(|e| format!("reference run: {e}"))?;
    let expected = expected::gate(
        ctx,
        out,
        Expected::solve(&reference.solution.centers, reference.solution.radius),
    );
    out.record
        .set("mapreduce_rounds", reference.mapreduce_rounds);

    if ctx.trace {
        traced(ctx, out, &threaded, &space, &expected);
    } else {
        measure(ctx, out, &threaded, &space, &expected);
    }
    Ok(())
}

fn check(
    out: &mut Outcome,
    result: Result<MrgResult, kcenter_core::KCenterError>,
    expected: &Expected,
) -> Option<MrgResult> {
    match result {
        Ok(r) => {
            out.check(
                expected.matches(&r.solution.centers, r.solution.radius),
                || "MRG answer differs from the expected one".to_string(),
            );
            Some(r)
        }
        Err(e) => {
            out.check(false, || format!("MRG run: {e}"));
            None
        }
    }
}

fn measure(
    ctx: &Ctx,
    out: &mut Outcome,
    threaded: &MrgConfig,
    space: &VecSpace<Euclidean, f64>,
    expected: &Expected,
) {
    let queries = query_ids(ctx.seed, space.flat().len());
    let mut solves = Vec::new();
    let mut gaps = Vec::new();
    let mut latencies = Vec::new();
    let start = Instant::now();
    let mut last_answer = start;
    while start.elapsed() < ctx.seconds {
        let t = Instant::now();
        let result = threaded.run(space);
        solves.push(secs(t.elapsed()));
        if let Some(r) = check(out, result, expected) {
            query_phase(space, &r.solution.centers, &queries, &mut latencies, out);
        }
        let now = Instant::now();
        gaps.push(secs(now - last_answer));
        out.probe.sample();
        last_answer = Instant::now();
    }
    out.put("points_per_s", space.flat().len() as f64 / median(&solves));
    out.put_latency("solve_p50_s", "solve_tail_s", &solves, 1, 1.0);
    out.put_latency("fold_p50_ms", "fold_tail_ms", &gaps, 1, 1e3);
    out.put_latency(
        "query_p50_us",
        "query_tail_us",
        &latencies,
        QUERY_WINDOW,
        1e6,
    );
    out.put("radius", expected.radius);
    out.put("radius_bound", expected.radius);
}

fn traced(
    ctx: &Ctx,
    out: &mut Outcome,
    threaded: &MrgConfig,
    space: &VecSpace<Euclidean, f64>,
    expected: &Expected,
) {
    let n = space.flat().len();
    let queries = query_ids(ctx.seed, n);
    let mut latencies = Vec::new();
    let mut tr = Tracer::new(ctx.epoch, 0);
    let mut untraced = Vec::new();
    let mut stats = Vec::new();
    let mut other = Vec::new();
    let mut scans = (0, 0);
    let mut rep = 0u64;
    let start = Instant::now();
    while start.elapsed() < ctx.seconds || rep < 2 {
        let t = Instant::now();
        let result = threaded.run(space);
        untraced.push(secs(t.elapsed()));
        if let Some(r) = check(out, result, expected) {
            query_phase(space, &r.solution.centers, &queries, &mut latencies, out);
        }

        grid::reset_scan_counts();
        let root = tr.open("rep", None, rep);
        let run_id = tr.open("core.mrg", Some(root), rep);
        let result = threaded.run(space);
        let run_s = tr.close(run_id);
        scans = grid::scan_counts();
        let Some(r) = check(out, result, expected) else {
            tr.close(root);
            rep += 1;
            continue;
        };
        let cert_id = tr.open("core.evaluate", Some(root), rep);
        let radius = covering_radius(space, &r.solution.centers);
        let certify_s = tr.close(cert_id);
        tr.close(root);
        out.check(radius.to_bits() == expected.radius.to_bits(), || {
            format!(
                "separate certification {radius} differs from {}",
                expected.radius
            )
        });
        other.push(run_s - secs(r.stats.wall_time()) - certify_s);
        stats.push(r.stats);
        rep += 1;
    }

    let med = |f: &dyn Fn(&kcenter_mapreduce::JobStats) -> f64| {
        median(&stats.iter().map(f).collect::<Vec<_>>())
    };
    let items_in = med(&|s| s.total_items_in() as f64);
    let dist_evals = items_in * (K - 1) as f64;
    let sequential = med(&|s| secs(s.sequential_time()));
    let wall = med(&|s| secs(s.wall_time()));
    // The traced rep adds a separate certification; the overhead compares
    // like with like, the traced `MrgConfig::run` with the untraced one.
    let traced_p50 = median(&tr.durations("core.mrg"));
    let untraced_p50 = median(&untraced);
    out.put("core.gonzalez.select_s", sequential);
    out.put("core.gonzalez.dist_evals", dist_evals);
    out.put("core.gonzalez.bytes_scanned", dist_evals * (DIM * 8) as f64);
    out.put("metric.flat.bytes", (n * DIM * 8) as f64);
    out.put("metric.grid.grid_scans", scans.0 as f64);
    out.put("metric.grid.dense_scans", scans.1 as f64);
    out.put(
        "core.evaluate.certify_s",
        median(&tr.durations("core.evaluate")),
    );
    out.put("core.evaluate.dist_evals", (n * K) as f64);
    out.put("mapreduce.rounds", med(&|s| s.num_rounds() as f64));
    out.put(
        "mapreduce.round1_wall_s",
        med(&|s| s.rounds().first().map_or(0.0, |r| secs(r.wall_time))),
    );
    out.put(
        "mapreduce.final_wall_s",
        med(&|s| s.rounds().last().map_or(0.0, |r| secs(r.wall_time))),
    );
    out.put("mapreduce.simulated_s", med(&|s| secs(s.simulated_time())));
    out.put("mapreduce.sequential_s", sequential);
    out.put(
        "mapreduce.parallel_eff",
        sequential / (wall * THREADS as f64),
    );
    out.put(
        "mapreduce.attempts",
        med(&|s| s.fault_summary().attempts as f64),
    );
    out.put("core.mrg.run_s", median(&tr.durations("core.mrg")));
    out.put_latency(
        "query_p50_us",
        "query_tail_us",
        &latencies,
        QUERY_WINDOW,
        1e6,
    );
    out.put("core.mrg.other_s", median(&other));
    out.put("trace.uncovered_frac", tr.uncovered_share("rep"));
    out.put(
        "trace.overhead_frac",
        (traced_p50 - untraced_p50) / untraced_p50,
    );
    out.put("trace.spans", tr.spans().len() as f64);
    out.record.set("traced_solve_p50_s", traced_p50);
    out.record.set("untraced_solve_p50_s", untraced_p50);
    crate::write_spans(ctx, &tr);
}
