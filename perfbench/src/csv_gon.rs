//! `csv-gon`: CSV bytes to a certified GON answer through the CLI `solve`.
//!
//! Set-up writes GAU (n = 1,000,000, k' = 25, d = 3) to CSV.  Each rep is
//! one `solve gon --k 50 --precision f64 --assign auto` through
//! `kcenter_cli::commands::run`, with the kernel, executor and threads
//! pinned.  After each rep the answer serves a fixed seeded set of
//! nearest-center queries.  The traced run re-enacts the CLI's solve with
//! the public pieces in order: `load_points`, `FlatPoints::from_points`,
//! `gonzalez::select_centers`, `covering_radius`.

use std::path::Path;
use std::time::Instant;

use kcenter_cli::{args, commands};
use kcenter_core::evaluate::covering_radius;
use kcenter_core::gonzalez;
use kcenter_core::{FirstCenter, GonzalezConfig};
use kcenter_data::csv::{load_points, save_points, CsvOptions};
use kcenter_data::DatasetSpec;
use kcenter_metric::{grid, Euclidean, FlatPoints, PointId, VecSpace};

use crate::expected::{self, Expected};
use crate::query_phase;
use crate::run::{query_ids, secs, Ctx, Outcome, QUERIES_PER_REP, QUERY_WINDOW, SETUPS};
use crate::stats::median;
use crate::trace::Tracer;

const K_PRIME: usize = 25;
const K: usize = 50;
const DIM: usize = 3;

/// What one CLI rep printed.
struct CliAnswer {
    centers: Vec<PointId>,
    radius_text: String,
}

fn after<'a>(text: &'a str, prefix: &str) -> Option<&'a str> {
    text.lines().find_map(|l| l.strip_prefix(prefix))
}

fn parse_answer(text: &str) -> Option<CliAnswer> {
    let centers = after(text, "centers (point indices): ")?
        .trim_matches(|c| c == '[' || c == ']')
        .split(", ")
        .map(|s| s.parse().ok())
        .collect::<Option<Vec<PointId>>>()?;
    let radius_text = after(text, "covering radius (solution value): ")?.to_string();
    Some(CliAnswer {
        centers,
        radius_text,
    })
}

fn cli_rep(cli: &args::Cli) -> Result<String, String> {
    let mut buf = Vec::new();
    commands::run(cli, &mut buf).map_err(|e| format!("cli solve: {e}"))?;
    String::from_utf8(buf).map_err(|e| format!("cli output: {e}"))
}

/// Checks one CLI rep's printed answer; returns its centers when it
/// printed any.
fn check_cli(
    out: &mut Outcome,
    text: Result<String, String>,
    expected: &Expected,
) -> Option<Vec<PointId>> {
    let answer = text.and_then(|t| parse_answer(&t).ok_or_else(|| format!("unparsed: {t}")));
    match answer {
        Ok(a) => {
            let digest = kcenter_bench::scenario::center_digest(&a.centers);
            out.check(
                digest == expected.digest && a.radius_text == format!("{:.6}", expected.radius),
                || {
                    format!(
                        "cli answer {digest} / {} differs from {} / {:.6}",
                        a.radius_text, expected.digest, expected.radius
                    )
                },
            );
            Some(a.centers)
        }
        Err(e) => {
            out.check(false, || e);
            None
        }
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let n = ctx.scale.n();
    let spec = DatasetSpec::Gau {
        n,
        k_prime: K_PRIME,
    };
    let csv = ctx.work_dir.join("gau.csv");
    let csv_text = csv.to_str().ok_or("work dir is not UTF-8")?.to_string();
    let argv: Vec<String> = [
        "solve",
        "gon",
        "--input",
        &csv_text,
        "--k",
        "50",
        "--precision",
        "f64",
        "--assign",
        "auto",
        "--kernel",
        crate::KERNEL,
        "--executor",
        "simulated",
        "--threads",
        "2",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let cli = args::parse(&argv).map_err(|e| format!("cli arguments: {e}"))?;
    out.record.set(
        "inputs",
        crate::json::Json::object()
            .with("dataset", spec.describe())
            .with("k", K)
            .with("cli", argv.join(" "))
            .with("queries_per_rep", QUERIES_PER_REP),
    );

    // Set-up: write the CSV, then one warm-up rep.
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let points = spec.generate(ctx.seed);
        save_points(&csv, &points).map_err(|e| format!("writing {csv_text}: {e}"))?;
        drop(points);
        cli_rep(&cli)?;
        setups.push(secs(t.elapsed()));
        out.probe.sample();
    }
    out.put("setup_s", median(&setups));

    // The expected answer, from the in-memory space (no CSV round trip).
    let space = VecSpace::from_flat(FlatPoints::from_points(&spec.generate(ctx.seed)));
    let reference = GonzalezConfig::new(K)
        .with_parallel_scan(true)
        .solve(&space)
        .map_err(|e| format!("reference solve: {e}"))?;
    let expected = expected::gate(
        ctx,
        out,
        Expected::solve(&reference.centers, reference.radius),
    );
    let queries = query_ids(ctx.seed, n);

    if ctx.trace {
        traced(ctx, out, &cli, &csv, &space, &queries, &expected)
    } else {
        measure(ctx, out, &cli, &space, &queries, &expected);
        Ok(())
    }
}

fn measure(
    ctx: &Ctx,
    out: &mut Outcome,
    cli: &args::Cli,
    space: &VecSpace<Euclidean, f64>,
    queries: &[PointId],
    expected: &Expected,
) {
    let mut solves = Vec::new();
    let mut gaps = Vec::new();
    let mut latencies = Vec::new();
    let start = Instant::now();
    let mut last_answer = start;
    while start.elapsed() < ctx.seconds {
        let t = Instant::now();
        let text = cli_rep(cli);
        solves.push(secs(t.elapsed()));
        if let Some(centers) = check_cli(out, text, expected) {
            query_phase(space, &centers, queries, &mut latencies, out);
        }
        let now = Instant::now();
        gaps.push(secs(now - last_answer));
        out.probe.sample();
        last_answer = Instant::now();
    }
    let p50 = median(&solves);
    out.put("points_per_s", space.flat().len() as f64 / p50);
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
    cli: &args::Cli,
    csv: &Path,
    served: &VecSpace<Euclidean, f64>,
    queries: &[PointId],
    expected: &Expected,
) -> Result<(), String> {
    let n = ctx.scale.n();
    let mut tr = Tracer::new(ctx.epoch, 0);
    let mut cli_walls = Vec::new();
    let mut latencies = Vec::new();
    let mut scans = Vec::new();
    let mut rep = 0u64;
    let start = Instant::now();
    while start.elapsed() < ctx.seconds || rep < 2 {
        // Untraced: the CLI itself.
        let t = Instant::now();
        let text = cli_rep(cli);
        let end = Instant::now();
        cli_walls.push(secs(end - t));
        tr.record("cli.solve", t, end, rep);
        if let Some(centers) = check_cli(out, text, expected) {
            query_phase(served, &centers, queries, &mut latencies, out);
        }

        // Traced: the same work, one layer at a time.
        grid::reset_scan_counts();
        let root = tr.open("rep", None, rep);
        let points = tr.time("data.csv", root, || {
            load_points(csv, &CsvOptions::default())
        });
        let points = points.map_err(|e| format!("load_points: {e}"))?;
        let space = tr.time("metric.flat", root, || {
            VecSpace::<Euclidean, f64>::from_flat(FlatPoints::from_points(&points))
        });
        drop(points);
        let ids: Vec<PointId> = (0..n).collect();
        let centers = tr.time("core.gonzalez", root, || {
            gonzalez::select_centers(&space, &ids, K, FirstCenter::default(), true)
        });
        let radius = tr.time("core.evaluate", root, || covering_radius(&space, &centers));
        tr.close(root);
        scans.push(grid::scan_counts());
        out.check(expected.matches(&centers, radius), || {
            format!("traced rep {rep} differs from the expected answer")
        });
        rep += 1;
    }

    let layer = |name: &str| median(&tr.per_root("rep", name));
    let (grid_scans, dense_scans) = scans.last().copied().unwrap_or((0, 0));
    let dist_evals = (n * (K - 1)) as f64;
    let traced_p50 = median(&tr.durations("rep"));
    let cli_p50 = median(&cli_walls);
    out.put("data.csv.parse_s", layer("data.csv"));
    out.put(
        "data.csv.bytes",
        std::fs::metadata(csv).map_or(0.0, |m| m.len() as f64),
    );
    out.put("data.csv.rows", n as f64);
    out.put("metric.flat.build_s", layer("metric.flat"));
    out.put("metric.flat.bytes", (n * DIM * 8) as f64);
    out.put("core.gonzalez.select_s", layer("core.gonzalez"));
    out.put("core.gonzalez.dist_evals", dist_evals);
    out.put("core.gonzalez.bytes_scanned", dist_evals * (DIM * 8) as f64);
    out.put("metric.grid.grid_scans", grid_scans as f64);
    out.put("metric.grid.dense_scans", dense_scans as f64);
    out.put("core.evaluate.certify_s", layer("core.evaluate"));
    out.put("core.evaluate.dist_evals", (n * K) as f64);
    out.put("cli.solve_s", cli_p50);
    out.put_latency(
        "query_p50_us",
        "query_tail_us",
        &latencies,
        QUERY_WINDOW,
        1e6,
    );
    out.put("trace.uncovered_frac", tr.uncovered_share("rep"));
    out.put("trace.overhead_frac", (traced_p50 - cli_p50) / cli_p50);
    out.put("trace.spans", tr.spans().len() as f64);
    out.record.set("traced_solve_p50_s", traced_p50);
    out.record.set("untraced_solve_p50_s", cli_p50);
    crate::write_spans(ctx, &tr);
    Ok(())
}
