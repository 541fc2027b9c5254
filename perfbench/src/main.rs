//! The repository's benchmark: end-to-end and per-layer numbers for three
//! workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload csv-gon|mem-mrg|ingest-query --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` re-enacts the
//! same work with a span around every call into a layer and reports the
//! per-layer metrics.  The last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it is the
//! run's record (host, pinned dispatch choices, tails, expected answer).
//! The command exits non-zero when any output was wrong.
//!
//! Options for the self-check: `--scale tiny` shrinks every input to
//! n = 20,000, and `--expect-digest HEX` replaces the expected center
//! digest.

mod csv_gon;
mod expected;
mod ingest;
mod json;
mod mem_mrg;
mod run;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use kcenter_core::evaluate::covering_radius_subset;
use kcenter_mapreduce::install_thread_budget;
use kcenter_metric::kernel::simd::{self, KernelBackend};
use kcenter_metric::{grid, AssignChoice, Euclidean, PointId, VecSpace};

use json::Json;
use run::{brute_nearest, close, secs, Ctx, Outcome, Scale, END_TO_END, PER_LAYER};

/// The kernel backend every workload pins: the width-pinned portable
/// kernels, available in every build on every target.
pub const KERNEL: &str = "portable";

/// The dispatch environment variables the program would otherwise read.
const DISPATCH_ENV: [&str; 4] = [
    "KCENTER_KERNEL",
    "KCENTER_ASSIGN",
    "KCENTER_EXECUTOR",
    "KCENTER_THREADS",
];

const WORKLOADS: [&str; 3] = ["csv-gon", "mem-mrg", "ingest-query"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 \
         [--scale full|tiny] [--expect-digest HEX]",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut expect_digest = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("must be in (0, 3600]"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad("must be full or tiny")),
                }
            }
            "--expect-digest" => expect_digest = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |name: &str| format!("missing --{name}");
    let workload = workload.ok_or_else(|| missing("workload"))?;
    let seed = seed.ok_or_else(|| missing("seed"))?;
    let work_dir =
        PathBuf::from(".perfbench_work").join(format!("{workload}-{seed}-{}", std::process::id()));
    Ok(Ctx {
        workload,
        seed,
        seconds: seconds.ok_or_else(|| missing("seconds"))?,
        trace: trace.ok_or_else(|| missing("trace"))?,
        scale,
        expect_digest,
        epoch: Instant::now(),
        work_dir,
    })
}

/// Answers each query id with the certified distance to its nearest
/// center (`covering_radius_subset` over that one point), back to back,
/// timing each; every eighth answer is re-checked by brute force.
pub fn query_phase(
    space: &VecSpace<Euclidean, f64>,
    centers: &[PointId],
    queries: &[PointId],
    latencies: &mut Vec<f64>,
    out: &mut Outcome,
) {
    for (i, &q) in queries.iter().enumerate() {
        let t = Instant::now();
        let d = std::hint::black_box(covering_radius_subset(space, &[q], centers));
        latencies.push(secs(t.elapsed()));
        out.attempted += 1;
        if i % 8 == 0 {
            let brute = brute_nearest(space, centers, space.flat().row(q));
            if !close(d, brute) {
                out.fail(format!("query {q}: {d}, brute force {brute}"));
            }
        }
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench_out")
}

/// Writes the traced run's spans to `.perfbench_out/`.
pub fn write_spans(ctx: &Ctx, tr: &trace::Tracer) {
    let path = out_dir().join(format!("spans-{}-seed{}.json", ctx.workload, ctx.seed));
    let doc = Json::object()
        .with("workload", ctx.workload.as_str())
        .with("seed", ctx.seed)
        .with("spans", tr.to_json());
    if let Err(e) = std::fs::write(&path, doc.render()) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// Removes the dispatch variables from the environment (recording what
/// they held) so nothing in the program reads them, then pins the kernel
/// and assign choices.  Returns the record of what was overridden.
fn pin_dispatch() -> Result<Json, String> {
    let mut overridden = Vec::new();
    for name in DISPATCH_ENV {
        if let Ok(value) = std::env::var(name) {
            overridden.push(Json::from(format!("{name}={value}")));
            std::env::remove_var(name);
        }
    }
    simd::set_active(KernelBackend::Portable).map_err(|e| format!("kernel: {e}"))?;
    grid::set_choice(AssignChoice::Auto);
    Ok(Json::Array(overridden))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse_args(&argv) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let overridden = match pin_dispatch() {
        Ok(j) => j,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let threads = match ctx.workload.as_str() {
        "ingest-query" => 1,
        _ => 2,
    };
    install_thread_budget(threads);
    for dir in [&ctx.work_dir, &out_dir()] {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("perfbench: creating {}: {e}", dir.display());
            std::process::exit(2);
        }
    }

    let mut out = Outcome::new();
    let result = match ctx.workload.as_str() {
        "csv-gon" => csv_gon::run(&ctx, &mut out),
        "mem-mrg" => mem_mrg::run(&ctx, &mut out),
        _ => ingest::run(&ctx, &mut out),
    };
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    if let Err(e) = result {
        eprintln!("perfbench: {} failed: {e}", ctx.workload);
        std::process::exit(1);
    }

    let (executor, executor_threads) = match ctx.workload.as_str() {
        "mem-mrg" => ("threads", 2),
        _ => ("simulated", 1),
    };
    out.put("peak_rss_mb", run::peak_rss_mb());
    if ctx.trace {
        out.record.set("probe_factor", out.probe.factor());
    } else {
        out.normalize();
    }
    let ok = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    out.put("ok_frac", ok);
    let mut record = std::mem::replace(&mut out.record, Json::object());
    for (key, value) in [
        ("workload", Json::from(ctx.workload.as_str())),
        ("seed", Json::from(ctx.seed)),
        ("scale", Json::from(ctx.scale.name())),
        ("trace", Json::from(ctx.trace)),
        ("seconds", Json::from(secs(ctx.seconds))),
        (
            "host_cores",
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("kernel", Json::from(simd::active().name())),
        ("assign", Json::from(grid::active_choice().name())),
        ("executor", Json::from(executor)),
        ("executor_threads", Json::from(executor_threads as usize)),
        ("thread_budget", Json::from(threads as usize)),
        // perfbench/Cargo.toml enables no feature of the workspace crates.
        ("build_features", Json::from("default")),
        ("env_overridden", overridden),
    ] {
        record.set(key, value);
    }
    let correct = out.failed == 0 && out.attempted > 0;
    let catalogue = if ctx.trace { PER_LAYER } else { END_TO_END };
    let line = Json::object()
        .with("correct", correct)
        .with("attempted", out.attempted)
        .with("failed", out.failed)
        .with("metrics", out.metrics(catalogue));
    let record = record.with("result", line.clone());
    let path = out_dir().join(format!(
        "record-{}-seed{}-trace{}.json",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    ));
    if let Err(e) = std::fs::write(&path, record.render()) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    let record = Json::object().with("record", record);
    println!("{}", record.render());
    println!("{}", line.render());
    if !correct {
        std::process::exit(1);
    }
}
