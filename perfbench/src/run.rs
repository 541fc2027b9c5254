//! What every workload shares: the run context, the metric catalogue, and
//! the outcome a run accumulates (attempts, failures, metric values and the
//! record printed beside them).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use kcenter_metric::{Euclidean, PointId, VecSpace};

use crate::json::Json;
use crate::stats;

/// The end-to-end metrics, printed with `--trace 0`, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("solve_p50_s", "s"),
    ("solve_tail_s", "s"),
    ("fold_p50_ms", "ms"),
    ("fold_tail_ms", "ms"),
    ("query_p50_us", "us"),
    ("radius", "dist"),
    ("radius_bound", "dist"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// The per-layer metrics, printed with `--trace 1`, with their units.  A
/// layer that does no work on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.csv.parse_s", "s"),
    ("data.csv.bytes", "bytes"),
    ("data.csv.rows", "count"),
    ("metric.flat.build_s", "s"),
    ("metric.flat.bytes", "bytes"),
    ("core.gonzalez.select_s", "s"),
    ("core.gonzalez.dist_evals", "count"),
    ("core.gonzalez.bytes_scanned", "bytes"),
    ("metric.grid.grid_scans", "count"),
    ("metric.grid.dense_scans", "count"),
    ("core.evaluate.certify_s", "s"),
    ("core.evaluate.dist_evals", "count"),
    ("mapreduce.rounds", "count"),
    ("mapreduce.round1_wall_s", "s"),
    ("mapreduce.final_wall_s", "s"),
    ("mapreduce.simulated_s", "s"),
    ("mapreduce.sequential_s", "s"),
    ("mapreduce.parallel_eff", "ratio"),
    ("mapreduce.attempts", "count"),
    ("core.mrg.run_s", "s"),
    ("core.mrg.other_s", "s"),
    ("core.coreset.build_s", "s"),
    ("core.coreset.merge_s", "s"),
    ("core.coreset.recompress_s", "s"),
    ("core.coreset.recompressions", "count"),
    ("core.coreset.pruned_pairs", "count"),
    ("core.coreset.pruned_ratio", "ratio"),
    ("core.coreset.solve_s", "s"),
    ("serve.stream.batch_s", "s"),
    ("serve.checkpoint.encode_s", "s"),
    ("serve.checkpoint.save_s", "s"),
    ("serve.checkpoint.bytes", "bytes"),
    ("serve.checkpoint.fsyncs", "count"),
    ("serve.snapshot.publish_s", "s"),
    ("serve.snapshot.load_s", "s"),
    ("serve.snapshot.query_s", "s"),
    ("serve.snapshot.versions_seen", "count"),
    ("cli.solve_s", "s"),
    // Demoted from the end-to-end set: p99 of a sub-microsecond query
    // swings by 40-55% between runs on a shared host.
    ("query_tail_us", "us"),
    ("trace.uncovered_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

/// Input size: the workloads as specified, or a tiny version for the
/// self-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The specified inputs (n = 1,000,000).
    Full,
    /// n = 20,000, for the self-check.
    Tiny,
}

impl Scale {
    /// Name used on the command line and in records.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }

    /// The workloads' input size.
    pub fn n(self) -> usize {
        match self {
            Scale::Full => 1_000_000,
            Scale::Tiny => 20_000,
        }
    }
}

/// Times each workload sets up, for the median `setup_s`.
pub const SETUPS: usize = 3;

/// The parsed command line plus the run's clock and directories.
#[derive(Debug)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Replaces the expected center digest (the self-check's negative test).
    pub expect_digest: Option<String>,
    /// Epoch of every span timestamp.
    pub epoch: Instant,
    /// Scratch directory for inputs and checkpoints (removed at exit).
    pub work_dir: PathBuf,
}

/// What a workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (solves, batches, queries, output checks).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    values: Vec<(&'static str, f64)>,
    /// Context printed and saved beside the metrics.
    pub record: Json,
    /// The run's host-speed probe.
    pub probe: Probe,
}

impl Outcome {
    /// An empty outcome.
    pub fn new() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            values: Vec::new(),
            record: Json::object(),
            probe: Probe::new(),
        }
    }

    /// Counts one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts one failure that was already counted as attempted, printing
    /// the first twenty.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("perfbench: FAILED: {why}");
        }
    }

    /// Sets metric `name`.
    pub fn put(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.values.push((name, value)),
        }
    }

    /// Sets `<p50>` and `<tail>` from `samples` (in seconds, in the order
    /// they were taken) scaled by `unit` (e.g. 1e3 for ms), and records the
    /// tail's percentile and sample count.  The p50 is the median of the
    /// means of consecutive `window`-sample windows: the host's cores run
    /// fast and slow in turns shorter than a second, so single short
    /// operations fall into two modes and their plain median jumps between
    /// them from run to run.  The tail is taken over single samples.
    pub fn put_latency(
        &mut self,
        p50: &'static str,
        tail: &'static str,
        samples: &[f64],
        window: usize,
        unit: f64,
    ) {
        let means: Vec<f64> = samples
            .chunks(window)
            .map(|w| w.iter().sum::<f64>() / w.len() as f64)
            .collect();
        let t = stats::tail(samples);
        self.put(p50, stats::median(&means) * unit);
        self.put(tail, t.value * unit);
        self.record.set(
            tail,
            Json::object()
                .with("percentile", t.pct)
                .with("samples", t.samples)
                .with("p50_window", window),
        );
    }

    /// The metric values for `catalogue`, 0 where a workload set none.
    pub fn metrics(&self, catalogue: &[(&'static str, &'static str)]) -> Json {
        let mut out = Json::object();
        for &(name, unit) in catalogue {
            let value = self
                .values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            out.set(name, Json::object().with("value", value).with("unit", unit));
        }
        out
    }

    /// Brings every end-to-end time (and `points_per_s`) to the reference
    /// host with the probe's factor, keeping the measured values in the
    /// record.
    pub fn normalize(&mut self) {
        let factor = self.probe.factor();
        let mut raw = Json::object();
        for &(name, unit) in END_TO_END {
            let Some((_, v)) = self.values.iter_mut().find(|(n, _)| *n == name) else {
                continue;
            };
            raw.set(name, *v);
            match unit {
                "s" | "ms" | "us" => *v *= factor,
                "1/s" => *v /= factor,
                _ => {}
            }
        }
        self.record.set("measured", raw);
        self.record.set(
            "probe",
            Json::object()
                .with("reference_s", PROBE_REF_S)
                .with("samples", self.probe.len())
                .with("factor", factor),
        );
    }
}

/// The host-speed probe's time on the reference host, in seconds.
pub const PROBE_REF_S: f64 = 0.015;

/// A fixed amount of benchmark-owned work, timed between reps: on each of
/// the host's two cores, four farthest-point relax passes over 8 MB of
/// rows (streamed from memory) and 1,024 passes over 32 KB of them (in
/// cache), by the textbook loop.  It shares no code with the program, so a
/// change to the program does not move it; a busier host does.
#[derive(Debug)]
pub struct Probe {
    rows: Vec<f64>,
    nearest: Vec<f64>,
    samples: Vec<f64>,
}

impl Probe {
    const ROWS: usize = 1 << 19;
    const DIM: usize = 4;
    const CACHED_ROWS: usize = 1 << 10;

    /// Fills the probe's fixed input.
    pub fn new() -> Self {
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let rows = (0..Self::ROWS * Self::DIM)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        Self {
            rows,
            nearest: vec![0.0; Self::ROWS],
            samples: Vec::new(),
        }
    }

    /// Times one probe.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let half = Self::ROWS / 2;
        let (rows_a, rows_b) = self.rows.split_at(half * Self::DIM);
        let (near_a, near_b) = self.nearest.split_at_mut(half);
        let work = |rows: &[f64], near: &mut [f64]| {
            let streamed = relax_passes(rows, near, Self::DIM, 4);
            let cached = Self::CACHED_ROWS;
            streamed
                + relax_passes(
                    &rows[..cached * Self::DIM],
                    &mut near[..cached],
                    Self::DIM,
                    1024,
                )
        };
        std::thread::scope(|s| {
            let other = s.spawn(|| work(rows_b, near_b));
            std::hint::black_box(work(rows_a, near_a));
            std::hint::black_box(other.join().expect("probe thread panicked"));
        });
        self.samples.push(secs(t.elapsed()));
    }

    /// The factor that brings this run's times to the reference host:
    /// [`PROBE_REF_S`] over the probe's mean time in this run (the middle
    /// 80 % of samples).  A mean, not a median: the host runs fast and slow
    /// in turns, and a rep spanning several turns slows by their average.
    pub fn factor(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        PROBE_REF_S / stats::trimmed_mean(&self.samples, 0.1)
    }

    /// Probe samples taken so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }
}

/// `passes` farthest-point relax passes over `rows` (the textbook loop);
/// returns the last farthest row.
fn relax_passes(rows: &[f64], nearest: &mut [f64], dim: usize, passes: usize) -> usize {
    nearest.fill(f64::INFINITY);
    let mut far = 0;
    for _ in 0..passes {
        let center = rows[far * dim..(far + 1) * dim].to_vec();
        let mut best = f64::NEG_INFINITY;
        for (i, (row, near)) in rows.chunks_exact(dim).zip(nearest.iter_mut()).enumerate() {
            let d: f64 = row
                .iter()
                .zip(&center)
                .map(|(x, c)| (x - c) * (x - c))
                .sum();
            if d < *near {
                *near = d;
            }
            if *near > best {
                best = *near;
                far = i;
            }
        }
    }
    far
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// `count` distinct-ish seeded point ids in `0..n` (SplitMix64).
pub fn seeded_ids(seed: u64, n: usize, count: usize) -> Vec<PointId> {
    let mut state = seed ^ 0x005e_ed0f_9e37_79b9;
    (0..count)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as PointId
        })
        .collect()
}

/// Queries each solve rep's answer serves.
pub const QUERIES_PER_REP: usize = 1000;

/// Queries per window of the solve workloads' query p50: ten reps' worth,
/// so that a window spans several of the host's fast and slow turns.
pub const QUERY_WINDOW: usize = 10 * QUERIES_PER_REP;

/// The solve workloads' query ids: 256 seeded ids, cycled to
/// [`QUERIES_PER_REP`].  A small set stays cache-resident, so a query's
/// time is the lookup itself rather than a DRAM miss on its row.
pub fn query_ids(seed: u64, n: usize) -> Vec<PointId> {
    seeded_ids(seed, n, 256)
        .into_iter()
        .cycle()
        .take(QUERIES_PER_REP)
        .collect()
}

/// Euclidean distance by the textbook formula, the brute-force reference
/// the benchmark re-checks query answers against.
pub fn euclid(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// The brute-force nearest distance from `q` to the rows `centers` of
/// `space`.
pub fn brute_nearest(space: &VecSpace<Euclidean, f64>, centers: &[PointId], q: &[f64]) -> f64 {
    centers
        .iter()
        .map(|&c| euclid(space.flat().row(c), q))
        .fold(f64::INFINITY, f64::min)
}

/// Whether a served distance agrees with the brute-force one up to the
/// kernels' rounding.
pub fn close(served: f64, brute: f64) -> bool {
    (served - brute).abs() <= 1e-9 * (1.0 + brute)
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
