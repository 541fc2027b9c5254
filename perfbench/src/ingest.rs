//! `ingest-query`: a checkpointed ingest with one closed-loop reader.
//!
//! GAU (n = 1,000,000, d = 3) streams as 500 batches of 2,000; each batch is
//! summarised (t = 50, 4 machines, simulated executor), merged into the
//! accumulated coreset (re-compressed above a budget of 1,000), written as
//! an fsync'd checkpoint into a fresh directory, solved (k = 25) and
//! published.  One reader thread queries the published snapshot from a
//! fixed seeded query set, back to back, from the first publish on.
//!
//! The untraced run drives `Ingestor::run_with_cell`.  The traced run
//! re-enacts its fold loop with the public pieces in order and must end on
//! the same coreset bytes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use kcenter_core::coreset::PRUNED_PAIRS_COUNTER;
use kcenter_core::{FirstCenter, GonzalezCoresetConfig, SequentialSolver, WeightedCoreset};
use kcenter_data::DatasetSpec;
use kcenter_mapreduce::{Executor, JobStats};
use kcenter_metric::{grid, Euclidean, PointId, VecSpace};
use kcenter_serve::checkpoint::{self, CheckpointMeta};
use kcenter_serve::{
    CenterSnapshot, IngestConfig, Ingestor, KillPoint, KillStage, SnapshotCell, StreamConfig,
};

use crate::expected::{self, Expected};
use crate::json::Json;
use crate::run::{brute_nearest, close, euclid, secs, seeded_ids, Ctx, Outcome, Scale, SETUPS};
use crate::stats::{median, Decimator};
use crate::trace::Tracer;

const K_PRIME: usize = 25;
const T: usize = 50;
const BUDGET: usize = 1000;
const MACHINES: usize = 4;
const SOLVE_K: usize = 25;
const QUERY_SET: usize = 4096;
/// Every this many queries one answer is re-checked by brute force (and,
/// when tracing, one query is recorded as spans).  Coprime with
/// [`QUERY_SET`], so the re-checked answers cycle through the whole set.
const SAMPLE_EVERY: u64 = 4093;
const LATENCY_CAP: usize = 1 << 16;
/// Consecutive batches (one to two seconds) per window of the fold p50.
const FOLD_WINDOW: usize = 100;
/// Consecutive kept query samples (about two seconds) per window of the
/// query p50.
const QUERY_WINDOW: usize = 4096;

fn batches(scale: Scale) -> usize {
    match scale {
        Scale::Full => 500,
        Scale::Tiny => 50,
    }
}

fn config(ctx: &Ctx, kill: Option<KillPoint>) -> IngestConfig {
    IngestConfig {
        stream: StreamConfig {
            spec: DatasetSpec::Gau {
                n: ctx.scale.n(),
                k_prime: K_PRIME,
            },
            seed: ctx.seed,
            batches: batches(ctx.scale),
        },
        t: T,
        budget: BUDGET,
        machines: MACHINES,
        faults: None,
        executor: Executor::Simulated,
        solve_k: SOLVE_K,
        kill,
    }
}

/// A fresh, empty checkpoint directory; returns the checkpoint path in it.
fn fresh_dir(dir: &Path) -> Result<PathBuf, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir.join("state.ckpt"))
}

/// FNV-1a 64 of `bytes`, as 16 hex digits.
fn bytes_digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// What the reader thread saw during one ingest run.
struct Reader {
    latency: Decimator,
    load: Decimator,
    query: Decimator,
    gaps: Vec<f64>,
    versions_seen: u64,
    queries: u64,
    failures: Vec<String>,
    tracer: Option<Tracer>,
}

impl Reader {
    fn fail(&mut self, why: String) {
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }
}

/// The closed-loop client: one query at a time, the next as soon as the
/// previous returns, starting after the first publish.  Every
/// [`SAMPLE_EVERY`]-th answer is re-checked, after its timing, against a
/// brute-force scan of `full` over the snapshot's center ids.
fn read_loop(
    cell: &SnapshotCell<Euclidean, f64>,
    stop: &AtomicBool,
    queries: &[Vec<f64>],
    full: &VecSpace<Euclidean, f64>,
    tracer: Option<Tracer>,
) -> Reader {
    let mut r = Reader {
        latency: Decimator::new(LATENCY_CAP),
        load: Decimator::new(LATENCY_CAP),
        query: Decimator::new(LATENCY_CAP),
        gaps: Vec::new(),
        versions_seen: 0,
        queries: 0,
        failures: Vec::new(),
        tracer,
    };
    let (mut version, mut seen_at) = loop {
        if stop.load(Ordering::Relaxed) {
            return r;
        }
        if cell.load().version() >= 1 {
            break (0, Instant::now());
        }
        std::thread::yield_now();
    };
    let mut i: u64 = 0;
    while !stop.load(Ordering::Relaxed) {
        let qi = (i % queries.len() as u64) as usize;
        let q = &queries[qi];
        let t0 = Instant::now();
        let snap = cell.load();
        let t1 = Instant::now();
        let answer = snap.query(q);
        let t2 = Instant::now();
        r.latency.push(secs(t2 - t0));
        r.load.push(secs(t1 - t0));
        r.query.push(secs(t2 - t1));
        r.queries += 1;
        if snap.version() != version {
            if version != 0 {
                r.gaps.push(secs(t0 - seen_at));
            }
            seen_at = t0;
            version = snap.version();
            r.versions_seen += 1;
            if !snap.verify() {
                r.fail(format!("snapshot v{version} failed verify()"));
            }
        }
        match answer {
            None => r.fail(format!("query {qi} on v{version} returned None")),
            Some(a) if i.is_multiple_of(SAMPLE_EVERY) => {
                if let Some(tr) = r.tracer.as_mut() {
                    tr.record("serve.snapshot.load", t0, t1, version);
                    tr.record("serve.snapshot.query", t1, t2, version);
                }
                let brute = brute_nearest(full, snap.center_ids(), q);
                let ok = close(a.distance, brute)
                    && close(euclid(full.flat().row(a.center), q), brute)
                    && a.version == snap.version()
                    && a.radius_bound.to_bits() == snap.radius_bound().to_bits();
                if !ok {
                    r.fail(format!(
                        "query {qi} on v{version}: {a:?}, brute force {brute}"
                    ));
                }
            }
            Some(_) => {}
        }
        i += 1;
    }
    r
}

/// One ingest run with the reader beside it: the fold (`fold` returns the
/// final coreset) runs on this thread, the reader on another.
fn with_reader<F>(
    cell: &SnapshotCell<Euclidean, f64>,
    queries: &[Vec<f64>],
    full: &VecSpace<Euclidean, f64>,
    tracer: Option<Tracer>,
    fold: F,
) -> (Result<WeightedCoreset<Euclidean, f64>, String>, f64, Reader)
where
    F: FnOnce() -> Result<WeightedCoreset<Euclidean, f64>, String>,
{
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let reader = s.spawn(|| read_loop(cell, &stop, queries, full, tracer));
        let t = Instant::now();
        let result = fold();
        let wall = secs(t.elapsed());
        stop.store(true, Ordering::Relaxed);
        let reader = reader.join().expect("the reader thread panicked");
        (result, wall, reader)
    })
}

/// Per-batch layer measurements of one traced fold.
#[derive(Default)]
struct FoldTrace {
    stats: Vec<JobStats>,
    pruned: u64,
    pairs: u64,
    recompressions: u64,
    last_bytes: Vec<u8>,
}

/// The fold loop of `Ingestor::run_with_cell`, re-enacted call by call with
/// a span around each layer.
fn reenact(
    ingestor: &Ingestor<Euclidean, f64>,
    path: &Path,
    cell: &SnapshotCell<Euclidean, f64>,
    tr: &mut Tracer,
    ft: &mut FoldTrace,
) -> Result<WeightedCoreset<Euclidean, f64>, String> {
    let stream = ingestor.stream();
    let total = stream.num_batches();
    let mut meta = CheckpointMeta {
        config_digest: ingestor.config_digest(),
        batches_done: 0,
        total_batches: total as u64,
        rounds: 0,
        simulated_ns: 0,
        reingested_points: 0,
        reingested_shards: 0,
    };
    let builder = GonzalezCoresetConfig::new(T)
        .with_machines(MACHINES)
        .with_executor(Executor::Simulated);
    let mut acc: Option<WeightedCoreset<Euclidean, f64>> = None;
    for b in 0..total {
        let root = tr.open("fold", None, b as u64);
        let batch = tr.time("serve.stream", root, || stream.batch_space(b));
        let built = tr.time("core.coreset.build", root, || builder.build(&batch));
        let built = built.map_err(|e| format!("batch {b} build: {e}"))?;
        if built.is_partial() {
            return Err(format!("batch {b} built a partial coreset without faults"));
        }
        ft.pruned += built.stats().counter(PRUNED_PAIRS_COUNTER);
        ft.pairs += (batch.flat().len() * built.len()) as u64;
        let rounds = built.stats().num_rounds() as u64;
        let sim = built.stats().simulated_time().as_nanos();
        ft.stats.push(built.stats().clone());
        let mut next = match acc.take() {
            None => built,
            Some(a) => tr
                .time("core.coreset.merge", root, || a.merge(&built))
                .map_err(|e| format!("batch {b} merge: {e}"))?,
        };
        if next.len() > BUDGET {
            next = tr
                .time("core.coreset.recompress", root, || next.recompress(BUDGET))
                .map_err(|e| format!("batch {b} recompress: {e}"))?;
            ft.recompressions += 1;
        }
        meta.batches_done = (b + 1) as u64;
        meta.rounds += rounds;
        meta.simulated_ns += sim;
        ft.last_bytes = tr.time("serve.checkpoint.encode", root, || {
            checkpoint::encode(&meta, &next)
        });
        tr.time("serve.checkpoint.save", root, || {
            checkpoint::save_atomic(path, &meta, &next)
        })
        .map_err(|e| format!("batch {b} checkpoint: {e}"))?;
        let k = SOLVE_K.min(next.len());
        let solution = tr
            .time("core.coreset.solve", root, || {
                next.solve(k, SequentialSolver::Gonzalez, FirstCenter::default())
            })
            .map_err(|e| format!("batch {b} solve: {e}"))?;
        tr.time("serve.snapshot.publish", root, || {
            cell.publish(CenterSnapshot::from_solution(
                meta.batches_done,
                meta.batches_done,
                &next,
                &solution,
            ))
        });
        tr.close(root);
        acc = Some(next);
    }
    acc.ok_or_else(|| "the stream has no batches".to_string())
}

/// Host-speed probes around an ingest run, which cannot be interrupted
/// for one.
fn probe_burst(out: &mut Outcome) {
    for _ in 0..4 {
        out.probe.sample();
    }
}

/// Shared state of the workload's runs.
struct Bench<'a> {
    ctx: &'a Ctx,
    ingestor: Ingestor<Euclidean, f64>,
    full: VecSpace<Euclidean, f64>,
    queries: Vec<Vec<f64>>,
    dir: PathBuf,
    expected: Option<Expected>,
    gaps: Vec<f64>,
    latencies: Decimator,
    walls: Vec<f64>,
    versions: Vec<f64>,
}

impl Bench<'_> {
    fn total(&self) -> usize {
        self.ingestor.stream().num_batches()
    }

    /// Counts the reader's queries and failures and keeps its samples.
    fn account_reader(&mut self, out: &mut Outcome, r: &Reader) {
        out.attempted += r.queries;
        for f in &r.failures {
            out.fail(f.clone());
        }
        for &v in r.latency.values() {
            self.latencies.push(v);
        }
    }

    /// Checks one run's final state (coreset, checkpoint on disk, final
    /// snapshot) against the expected answer, deriving the expectation
    /// from the first run.
    fn check_final(
        &mut self,
        out: &mut Outcome,
        coreset: &WeightedCoreset<Euclidean, f64>,
        cell: &SnapshotCell<Euclidean, f64>,
        path: &Path,
    ) -> Result<(), String> {
        let bytes = coreset.to_bytes();
        let solution = coreset
            .solve(
                SOLVE_K.min(coreset.len()),
                SequentialSolver::Gonzalez,
                FirstCenter::default(),
            )
            .map_err(|e| format!("final solve: {e}"))?;
        if self.expected.is_none() {
            let radius = solution.certify(&self.full);
            out.check(radius <= solution.radius_bound, || {
                format!(
                    "certified radius {radius} exceeds the bound {}",
                    solution.radius_bound
                )
            });
            let derived = Expected {
                coreset_digest: Some(bytes_digest(&bytes)),
                radius_bound: Some(solution.radius_bound),
                ..Expected::solve(&solution.centers, radius)
            };
            self.expected = Some(expected::gate(self.ctx, out, derived));
        }
        let expected = self.expected.as_ref().expect("set above");
        let snap = cell.load();
        let on_disk = checkpoint::load::<Euclidean, f64>(path)
            .map(|(meta, c)| meta.batches_done == self.total() as u64 && c.to_bytes() == bytes);
        out.check(
            kcenter_bench::scenario::center_digest(&solution.centers) == expected.digest
                && Some(bytes_digest(&bytes)) == expected.coreset_digest
                && Some(solution.radius_bound) == expected.radius_bound
                && snap.version() == self.total() as u64
                && snap.verify()
                && snap.center_ids() == solution.centers.as_slice()
                && matches!(on_disk, Ok(true)),
            || {
                format!(
                    "final state differs: centers {}, coreset {}, bound {}, snapshot v{}, checkpoint {on_disk:?}",
                    kcenter_bench::scenario::center_digest(&solution.centers),
                    bytes_digest(&bytes),
                    solution.radius_bound,
                    snap.version()
                )
            },
        );
        Ok(())
    }

    /// One `Ingestor::run_with_cell`, from an empty checkpoint directory,
    /// with the reader beside it.
    fn untraced(&mut self, out: &mut Outcome) -> Result<(), String> {
        let path = fresh_dir(&self.dir)?;
        let cell = SnapshotCell::new();
        let ingestor = &self.ingestor;
        let (result, wall, reader) = with_reader(&cell, &self.queries, &self.full, None, || {
            ingestor
                .run_with_cell(Some(&cell))
                .map(|o| o.coreset)
                .map_err(|e| format!("ingest: {e}"))
        });
        out.attempted += self.total() as u64;
        self.account_reader(out, &reader);
        self.walls.push(wall);
        self.gaps.extend(&reader.gaps);
        self.versions.push(reader.versions_seen as f64);
        let coreset = result?;
        self.check_final(out, &coreset, &cell, &path)
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let dir = ctx.work_dir.join("ingest");
    out.record.set(
        "inputs",
        Json::object()
            .with("dataset", config(ctx, None).stream.spec.describe())
            .with("batches", batches(ctx.scale))
            .with("t", T)
            .with("budget", BUDGET)
            .with("machines", MACHINES)
            .with("solve_k", SOLVE_K)
            .with("reader", "closed loop, 1 client, seeded query set")
            .with("query_set", QUERY_SET),
    );

    // Set-up: open the stream (Ingestor::new generates it), then warm up
    // with a second ingestor whose run is killed after its tenth
    // checkpoint.
    let mut setups = Vec::new();
    let mut ingestor = None;
    for _ in 0..SETUPS {
        drop(ingestor.take());
        let t = Instant::now();
        let path = fresh_dir(&dir)?;
        let opened = Ingestor::<Euclidean, f64>::new(config(ctx, None), &path)
            .map_err(|e| format!("ingestor: {e}"))?;
        let kill = KillPoint {
            batch: 9,
            stage: KillStage::AfterCheckpoint,
        };
        let warm = Ingestor::<Euclidean, f64>::new(config(ctx, Some(kill)), &path)
            .map_err(|e| format!("ingestor: {e}"))?;
        match warm.run() {
            Err(kcenter_serve::IngestError::Killed { .. }) => {}
            other => {
                return Err(format!(
                    "warm-up run did not stop at its kill point: {other:?}"
                ))
            }
        }
        setups.push(secs(t.elapsed()));
        out.probe.sample();
        ingestor = Some(opened);
    }
    out.put("setup_s", median(&setups));
    let ingestor = ingestor.expect("SETUPS > 0");
    let full = ingestor.stream().full_space();
    let queries = seeded_ids(ctx.seed, full.flat().len(), QUERY_SET)
        .into_iter()
        .map(|id: PointId| full.flat().row(id).to_vec())
        .collect();
    let mut bench = Bench {
        ctx,
        ingestor,
        full,
        queries,
        dir,
        expected: None,
        gaps: Vec::new(),
        latencies: Decimator::new(LATENCY_CAP),
        walls: Vec::new(),
        versions: Vec::new(),
    };
    let result = if ctx.trace {
        traced(&mut bench, out)
    } else {
        measure(&mut bench, out)
    };
    let _ = std::fs::remove_dir_all(&bench.dir);
    result
}

fn measure(bench: &mut Bench, out: &mut Outcome) -> Result<(), String> {
    let start = Instant::now();
    while start.elapsed() < bench.ctx.seconds {
        probe_burst(out);
        bench.untraced(out)?;
    }
    probe_burst(out);
    let expected = bench.expected.clone().expect("at least one run");
    let runs = bench.walls.len() as f64;
    out.put(
        "points_per_s",
        bench.full.flat().len() as f64 * runs / bench.walls.iter().sum::<f64>(),
    );
    out.put_latency("solve_p50_s", "solve_tail_s", &bench.gaps, FOLD_WINDOW, 1.0);
    out.put_latency("fold_p50_ms", "fold_tail_ms", &bench.gaps, FOLD_WINDOW, 1e3);
    out.put_latency(
        "query_p50_us",
        "query_tail_us",
        bench.latencies.values(),
        QUERY_WINDOW,
        1e6,
    );
    out.put("radius", expected.radius);
    out.put("radius_bound", expected.radius_bound.unwrap_or(0.0));
    out.record.set("ingest_wall_p50_s", median(&bench.walls));
    out.record.set("versions_seen_p50", median(&bench.versions));
    Ok(())
}

fn traced(bench: &mut Bench, out: &mut Outcome) -> Result<(), String> {
    let ctx = bench.ctx;
    let mut tr = Tracer::new(ctx.epoch, 0);
    let mut ft = FoldTrace::default();
    let mut traced_gaps = Vec::new();
    let mut load = Vec::new();
    let mut query = Vec::new();
    let mut versions = Vec::new();
    let mut scans = (0, 0);
    let mut runs = 0;
    let mut last = None;
    let start = Instant::now();
    while start.elapsed() < ctx.seconds || runs < 1 {
        probe_burst(out);
        bench.untraced(out)?;

        let path = fresh_dir(&bench.dir)?;
        let cell = SnapshotCell::new();
        grid::reset_scan_counts();
        let reader_tracer = Some(Tracer::new(ctx.epoch, 1));
        let ingestor = &bench.ingestor;
        let (result, _, reader) =
            with_reader(&cell, &bench.queries, &bench.full, reader_tracer, || {
                reenact(ingestor, &path, &cell, &mut tr, &mut ft)
            });
        scans = grid::scan_counts();
        out.attempted += bench.total() as u64;
        bench.account_reader(out, &reader);
        traced_gaps.extend(&reader.gaps);
        load.extend(reader.load.values());
        query.extend(reader.query.values());
        versions.push(reader.versions_seen as f64);
        if let Some(rt) = reader.tracer {
            tr.absorb(rt);
        }
        let coreset = result?;
        let on_disk = std::fs::read(&path).map_err(|e| format!("reading the checkpoint: {e}"))?;
        out.check(on_disk == ft.last_bytes, || {
            "the checkpoint on disk differs from the last encoded bytes".to_string()
        });
        bench.check_final(out, &coreset, &cell, &path)?;
        last = Some(coreset);
        runs += 1;
    }

    // The final certification scan over the whole stream.
    let expected = bench.expected.clone().expect("at least one run");
    let last: WeightedCoreset<Euclidean, f64> = last.expect("at least one traced run");
    let solution = last
        .solve(
            SOLVE_K.min(last.len()),
            SequentialSolver::Gonzalez,
            FirstCenter::default(),
        )
        .map_err(|e| format!("final solve: {e}"))?;
    let root = tr.open("certify", None, 0);
    let radius = tr.time("core.evaluate", root, || solution.certify(&bench.full));
    tr.close(root);
    out.check(radius.to_bits() == expected.radius.to_bits(), || {
        format!("certified radius {radius} differs from {}", expected.radius)
    });
    let n = bench.full.flat().len();

    let per_batch = |name: &str| median(&tr.per_root("fold", name));
    let encode = tr.per_root("fold", "serve.checkpoint.encode");
    let save = tr.per_root("fold", "serve.checkpoint.save");
    let io: Vec<f64> = save.iter().zip(&encode).map(|(s, e)| s - e).collect();
    let med = |f: &dyn Fn(&JobStats) -> f64| median(&ft.stats.iter().map(f).collect::<Vec<_>>());
    let sequential = med(&|s| secs(s.sequential_time()));
    let wall = med(&|s| secs(s.wall_time()));
    let untraced_p50 = median(&bench.gaps);
    let traced_p50 = median(&traced_gaps);
    let batches = bench.total() as f64;
    out.put("metric.grid.grid_scans", scans.0 as f64);
    out.put("metric.grid.dense_scans", scans.1 as f64);
    out.put(
        "core.evaluate.certify_s",
        median(&tr.durations("core.evaluate")),
    );
    out.put("core.evaluate.dist_evals", (n * SOLVE_K) as f64);
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
    out.put("mapreduce.parallel_eff", sequential / wall);
    out.put(
        "mapreduce.attempts",
        med(&|s| s.fault_summary().attempts as f64),
    );
    out.put("core.coreset.build_s", per_batch("core.coreset.build"));
    out.put("core.coreset.merge_s", per_batch("core.coreset.merge"));
    out.put(
        "core.coreset.recompress_s",
        per_batch("core.coreset.recompress"),
    );
    out.put(
        "core.coreset.recompressions",
        ft.recompressions as f64 / runs as f64,
    );
    out.put("core.coreset.pruned_pairs", ft.pruned as f64 / runs as f64);
    out.put(
        "core.coreset.pruned_ratio",
        ft.pruned as f64 / ft.pairs as f64,
    );
    out.put("core.coreset.solve_s", per_batch("core.coreset.solve"));
    out.put("serve.stream.batch_s", per_batch("serve.stream"));
    out.put("serve.checkpoint.encode_s", median(&encode));
    out.put("serve.checkpoint.save_s", median(&io));
    out.put("serve.checkpoint.bytes", ft.last_bytes.len() as f64);
    out.put("serve.checkpoint.fsyncs", 2.0 * batches);
    out.put(
        "serve.snapshot.publish_s",
        per_batch("serve.snapshot.publish"),
    );
    out.put("serve.snapshot.load_s", median(&load));
    out.put("serve.snapshot.query_s", median(&query));
    out.put("serve.snapshot.versions_seen", median(&versions));
    out.put_latency(
        "query_p50_us",
        "query_tail_us",
        bench.latencies.values(),
        QUERY_WINDOW,
        1e6,
    );
    out.put("trace.uncovered_frac", tr.uncovered_share("fold"));
    out.put(
        "trace.overhead_frac",
        (traced_p50 - untraced_p50) / untraced_p50,
    );
    out.put("trace.spans", tr.spans().len() as f64);
    out.record.set("traced_fold_p50_ms", traced_p50 * 1e3);
    out.record.set("untraced_fold_p50_ms", untraced_p50 * 1e3);
    crate::write_spans(ctx, &tr);
    Ok(())
}
