//! Command-line argument parsing for the `kcenter` tool.
//!
//! Hand-rolled parsing keeps the dependency set to the workspace-approved
//! crates; the grammar is small enough that a parser combinator library
//! would be overkill.

use kcenter_data::{DatasetSpec, FamilyParams, SpecParam};
use kcenter_mapreduce::ExecutorChoice;
use kcenter_metric::{AssignChoice, KernelChoice, Precision};
use kcenter_serve::{KillPoint, KillStage};
use std::fmt;

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand to execute.
    pub command: Command,
}

/// The available subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a synthetic workload and write it to CSV.
    Generate(GenerateArgs),
    /// Run a k-center algorithm on a CSV point file.
    Solve(SolveArgs),
    /// Build a weighted coreset once and evaluate a `(k, φ)` grid on it.
    Sweep(SweepArgs),
    /// Fold a batched stream into a checkpointed coreset service.
    Ingest(IngestArgs),
    /// Print statistics about a CSV point file.
    Info(InfoArgs),
    /// Print the usage text.
    Help,
}

/// Arguments of the `generate` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateArgs {
    /// The workload to generate.
    pub spec: DatasetSpec,
    /// RNG seed.
    pub seed: u64,
    /// Output CSV path.
    pub output: String,
}

/// Which algorithm the `solve` subcommand runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverChoice {
    /// Sequential Gonzalez (2-approximation).
    Gon,
    /// MapReduce Gonzalez (typically two rounds, 4-approximation).
    Mrg,
    /// Iterative sampling (10-approximation w.h.p.).
    Eim,
    /// Hochbaum–Shmoys bottleneck search (2-approximation, quadratic).
    HochbaumShmoys,
}

impl SolverChoice {
    /// Parses an algorithm name as used on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "gon" | "gonzalez" => Some(SolverChoice::Gon),
            "mrg" => Some(SolverChoice::Mrg),
            "eim" => Some(SolverChoice::Eim),
            "hs" | "hochbaum-shmoys" => Some(SolverChoice::HochbaumShmoys),
            _ => None,
        }
    }
}

/// Fault-injection options, part of [`RunArgs`].
///
/// A run is fault-free unless `--fault-plan FILE` (an explicit schedule or
/// seeded plan in the [`kcenter_mapreduce::FaultPlan::parse_text`] format)
/// or `--fault-seed S` (a seeded plan at the default rates) is given; the
/// two are mutually exclusive.  `--max-attempts` and `--degrade` tune the
/// retry budget and graceful-degradation switch and require one of the
/// plan flags.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultArgs {
    /// Path of a `--fault-plan` file (`None` = no explicit plan).
    pub plan_file: Option<String>,
    /// Seed of a `--fault-seed` plan (`None` = no seeded plan).
    pub fault_seed: Option<u64>,
    /// `--max-attempts` override for the per-shard attempt budget.
    pub max_attempts: Option<usize>,
    /// Whether `--degrade on` opted into graceful degradation.
    pub degrade: bool,
}

impl FaultArgs {
    /// Whether any fault injection was requested.
    pub fn is_active(&self) -> bool {
        self.plan_file.is_some() || self.fault_seed.is_some()
    }

    /// Consumes one `--flag value` pair if it is a fault flag; returns
    /// whether the pair was consumed.
    fn consume(&mut self, flag: &str, value: &str) -> Result<bool, ParseError> {
        match flag {
            "--fault-plan" => self.plan_file = Some(value.to_string()),
            "--fault-seed" => self.fault_seed = Some(parse_number(flag, value)?),
            "--max-attempts" => {
                let attempts: usize = parse_number(flag, value)?;
                if attempts == 0 {
                    return Err(ParseError(
                        "--max-attempts needs at least one attempt".into(),
                    ));
                }
                self.max_attempts = Some(attempts);
            }
            "--degrade" => {
                self.degrade = match value.to_ascii_lowercase().as_str() {
                    "on" | "true" | "yes" => true,
                    "off" | "false" | "no" => false,
                    other => {
                        return Err(ParseError(format!(
                            "invalid value {other:?} for --degrade (expected on or off)"
                        )))
                    }
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Cross-flag validation after all pairs are consumed.
    fn validate(&self) -> Result<(), ParseError> {
        if self.plan_file.is_some() && self.fault_seed.is_some() {
            return Err(ParseError(
                "--fault-plan and --fault-seed are mutually exclusive".into(),
            ));
        }
        if !self.is_active() && (self.max_attempts.is_some() || self.degrade) {
            return Err(ParseError(
                "--max-attempts/--degrade need a fault source (--fault-plan or --fault-seed)"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// The run setup shared by `solve`, `sweep` and `ingest`: the conditions
/// every compared algorithm runs under.  A `None` request defers to its
/// `KCENTER_*` environment variable, read by `commands::install`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunArgs {
    /// Storage precision of the coordinate store (`--precision f32|f64`):
    /// `f32` halves the scan bandwidth (radii are still certified in
    /// `f64`).
    pub precision: Precision,
    /// Kernel backend request (`--kernel auto|scalar|portable|avx2`);
    /// `None` defers to `KCENTER_KERNEL`.
    pub kernel: Option<KernelChoice>,
    /// Assignment-arm request (`--assign auto|dense|grid`); `None` defers
    /// to `KCENTER_ASSIGN`.
    pub assign: Option<AssignChoice>,
    /// Cluster-executor request (`--executor simulated|threads`); `None`
    /// defers to `KCENTER_EXECUTOR`.
    pub executor: Option<ExecutorChoice>,
    /// Worker-thread budget (`--threads N`); `None` defers to
    /// `KCENTER_THREADS`, then to the host's available parallelism.
    pub threads: Option<usize>,
    /// Fault-injection options (inactive by default).
    pub faults: FaultArgs,
}

impl RunArgs {
    /// Consumes one `--flag value` pair if it is a run flag; returns
    /// whether the pair was consumed.  Unknown choice names surface the
    /// named selection error of their crate.
    fn consume(&mut self, flag: &str, value: &str) -> Result<bool, ParseError> {
        if self.faults.consume(flag, value)? {
            return Ok(true);
        }
        let named = |e: &dyn fmt::Display| ParseError(format!("invalid value for {flag}: {e}"));
        match flag {
            "--precision" => {
                self.precision = Precision::parse(value).ok_or_else(|| {
                    ParseError(format!(
                        "invalid value {value:?} for --precision (expected f32 or f64)"
                    ))
                })?
            }
            "--kernel" => self.kernel = Some(KernelChoice::parse(value).map_err(|e| named(&e))?),
            "--assign" => self.assign = Some(AssignChoice::parse(value).map_err(|e| named(&e))?),
            "--executor" => {
                self.executor = Some(ExecutorChoice::parse(value).map_err(|e| named(&e))?)
            }
            "--threads" => match value.parse::<usize>() {
                Ok(n) if n >= 1 => self.threads = Some(n),
                _ => {
                    return Err(ParseError(format!(
                        "invalid value {value:?} for --threads (expected an integer >= 1)"
                    )))
                }
            },
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Arguments of the `solve` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveArgs {
    /// The algorithm to run.
    pub algorithm: SolverChoice,
    /// Input CSV path.
    pub input: String,
    /// Number of centers.
    pub k: usize,
    /// Number of simulated machines (parallel algorithms only).
    pub machines: usize,
    /// EIM's φ parameter.
    pub phi: f64,
    /// EIM's ε parameter.
    pub epsilon: f64,
    /// Seed for algorithm-internal randomness.
    pub seed: u64,
    /// Number of trailing CSV columns to ignore (e.g. class labels).
    pub skip_columns: usize,
    /// Optional path to write the per-point assignment to
    /// (`--assign-out OUT.csv`).
    pub assignment_out: Option<String>,
    /// With-outliers objective: additionally certify the radius over the
    /// `n − z` kept points after dropping the `z` farthest (`--outliers Z`;
    /// 0 disables the extra report).
    pub outliers: usize,
    /// The run setup.
    pub run: RunArgs,
}

/// Which builder the `sweep` subcommand uses for its one-off coreset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepBuilderChoice {
    /// Gonzalez-seeded: farthest-point traversal to `--coreset-size`
    /// representatives (MapReduce merge construction above one machine).
    Gonzalez,
    /// EIM-sampled: one run of the iterative-sampling loop at the largest
    /// requested `k`, keeping `C = S ∪ R` as the coreset.
    Eim,
}

impl SweepBuilderChoice {
    /// Parses a builder name as used on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "gon" | "gonzalez" => Some(SweepBuilderChoice::Gonzalez),
            "eim" => Some(SweepBuilderChoice::Eim),
            _ => None,
        }
    }
}

/// Where the `sweep` subcommand gets its points from.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepSource {
    /// Load a CSV point file (like `solve --input`).
    Csv {
        /// Input CSV path.
        path: String,
        /// Number of trailing CSV columns to ignore.
        skip_columns: usize,
    },
    /// Generate one of the paper's synthetic workloads in memory.
    Generated(DatasetSpec),
}

/// Arguments of the `sweep` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Input points: a CSV file or a generated workload.
    pub source: SweepSource,
    /// The `k` values of the grid.
    pub ks: Vec<usize>,
    /// The `φ` values of the grid (used by the per-cell EIM baseline and,
    /// for the EIM builder, the build runs at the largest of them).
    pub phis: Vec<f64>,
    /// Which coreset builder to use.
    pub builder: SweepBuilderChoice,
    /// Gonzalez builder: number of representatives (0 = automatic,
    /// `20 · max(k)` clamped to the instance size).
    pub coreset_size: usize,
    /// Number of simulated machines for build, solves and baselines.
    pub machines: usize,
    /// EIM's ε parameter (builder and baseline).
    pub epsilon: f64,
    /// Seed for all sampling randomness.
    pub seed: u64,
    /// Whether to run the per-cell EIM reruns the sweep amortises away
    /// (disable to time the coreset path alone).
    pub baseline: bool,
    /// The run setup (its faults apply to the coreset build rounds).
    pub run: RunArgs,
}

/// Arguments of the `ingest` subcommand: the durable streaming coreset
/// service.  A generated workload is replayed as `--batches` contiguous
/// batches; each batch is summarised (optionally under fault injection),
/// merged into the accumulated coreset (re-compressed to `--budget`), and
/// the state is atomically checkpointed to `--checkpoint` after every
/// fold.  Re-running the same command resumes from the last durable
/// checkpoint and produces bit-identical deterministic results.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestArgs {
    /// The workload replayed as a stream.
    pub spec: DatasetSpec,
    /// Generator seed.
    pub seed: u64,
    /// Number of contiguous batches.
    pub batches: usize,
    /// Representatives per batch summary (`--coreset-size`).
    pub coreset_size: usize,
    /// Budget of the accumulated coreset (re-compression threshold).
    pub budget: usize,
    /// Simulated machines per batch build.
    pub machines: usize,
    /// Centers for the published query snapshot (`--k`).
    pub k: usize,
    /// Checkpoint file path.
    pub checkpoint: String,
    /// The run setup (its faults apply to the batch builds; dropped shards
    /// are healed by re-ingestion from the stream, not disclosed as lost).
    pub run: RunArgs,
    /// Deterministic crash injection: die at `--kill-stage` of batch
    /// `--kill-after-batch` (composes with `--fault-seed`).
    pub kill: Option<KillPoint>,
    /// Points to answer from the final published snapshot (`--query
    /// X,Y,...`, repeatable).
    pub queries: Vec<Vec<f64>>,
    /// Optional path for a single-cell scenario-report JSON
    /// (`report_diff`-comparable) of the final state.
    pub report: Option<String>,
}

/// Arguments of the `info` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct InfoArgs {
    /// Input CSV path.
    pub input: String,
    /// Number of trailing CSV columns to ignore.
    pub skip_columns: usize,
}

/// A command-line parsing error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// The usage text printed by `kcenter help`.
pub const USAGE: &str = "\
kcenter — parallel k-center clustering (McClintock & Wirth, ICPP 2016)

USAGE:
  kcenter generate <unif|gau|unb|poker|kdd|exp|dup|gau-hd|gau+out> --n N
                [--k-prime K'] [--distinct D] [--dim DIM] [--outliers Z]
                [--seed S] --out FILE.csv
  kcenter solve <gon|mrg|eim|hs> --input FILE.csv --k K [--machines M] [--phi P]
                [--epsilon E] [--seed S] [--skip-columns C] [--assign-out OUT.csv]
                [--outliers Z] [RUN FLAGS]
  kcenter sweep (--input FILE.csv | --family FAMILY --n N [--k-prime K'])
                --ks K1,K2,... [--phis P1,P2,...] [--builder gonzalez|eim]
                [--coreset-size T] [--machines M] [--epsilon E] [--seed S]
                [--skip-columns C] [--baseline on|off] [RUN FLAGS]
  kcenter ingest --family FAMILY --n N [--k-prime K']
                --batches B --k K --checkpoint FILE.ckpt [--seed S]
                [--coreset-size T] [--budget C] [--machines M]
                [--kill-after-batch B
                 [--kill-stage before-checkpoint|during-checkpoint|after-checkpoint]]
                [--query X,Y,...] [--report OUT.json] [RUN FLAGS]
  kcenter info --input FILE.csv [--skip-columns C]
  kcenter help

RUN FLAGS (solve, sweep and ingest):
                [--precision f32|f64] [--kernel auto|scalar|portable|avx2]
                [--assign auto|dense|grid] [--executor simulated|threads]
                [--threads N] [--fault-plan FILE | --fault-seed S]
                [--max-attempts N] [--degrade on|off]

FAMILY is any of generate's nine workload families, at generate's
defaults for the parameters sweep and ingest take no flag for.

The sweep builds one weighted coreset, solves every (k, phi) grid cell on
it, certifies each cell's full-data radius, and (unless --baseline off)
compares against per-cell EIM reruns to report the build-once/solve-many
amortisation.

generate's adversarial families: `exp` places K' clusters at
exponentially growing magnitudes (spread ratio 2), `dup` draws every
point from only --distinct D lattice locations (duplicate-heavy,
tie-dense), `gau-hd` is the Gaussian family in --dim DIM dimensions
(64/128 stress the grid-index crossover), and `gau+out` (alias
`planted`) is Gaussian data with --outliers Z planted far points
(default 1% of n).

solve --outliers Z additionally certifies the k-center-with-outliers
objective: the radius over the n - z kept points after dropping the z
farthest from the chosen centers (ties drop the lowest point id).  With
Z = 0 the kept radius is bit-identical to the plain certified radius.

--kernel pins the distance-kernel backend for the comparison-space scans
(certified radii are always computed with the fixed scalar f64 kernels);
it overrides the KCENTER_KERNEL environment variable, and `auto` picks
AVX2+FMA when the binary was built with the `simd` feature on a supporting
CPU.

--assign pins the assignment-scan arm: `dense` always runs the flat SIMD
scans, `grid` routes relax/nearest scans through the spatial-grid index
(falling back to dense where the grid cannot index the space), and `auto`
(the default) applies a bench-measured crossover.  It overrides the
KCENTER_ASSIGN environment variable; both arms select bit-identical
centers, so results are bit-deterministic per (seed, precision, kernel,
assign).

--executor selects how the MapReduce rounds run the simulated machines:
`simulated` (the default) executes them sequentially with the paper's
max-per-machine cost accounting, `threads` fans each round out over real
std::thread::scope workers.  Results are bit-identical either way — only
the wall-clock column changes.  --threads N pins the worker budget
(default: the host's available parallelism) and also caps the chunked
par_* distance kernels.  Both flags override the KCENTER_EXECUTOR /
KCENTER_THREADS environment variables.

ingest replays the workload as --batches contiguous batches and folds
them into one durable coreset service: each batch is summarised with
--coreset-size representatives (under fault injection if requested —
dropped shards are healed by re-ingesting their rows from the stream,
never disclosed as lost), merged into the accumulated summary
(re-compressed once it exceeds --budget), and atomically checkpointed to
--checkpoint after every fold (write-temp + fsync + rename).  Re-running
the identical command resumes from the last durable checkpoint; all
deterministic outputs are bit-identical to an uninterrupted run.
--kill-after-batch B [--kill-stage ...] injects a deterministic crash for
testing that contract (during-checkpoint dies mid-write and must leave
the previous checkpoint intact).  --query X,Y,... answers nearest-center
queries from the final published snapshot; --report OUT.json writes a
single-cell scenario report comparable with report_diff.

--fault-seed S (or --fault-plan FILE for an explicit schedule) injects
deterministic reducer faults into the MapReduce rounds: crashes,
stragglers and corrupt outputs, retried up to --max-attempts times with
charged backoff and straggler speculation.  When every shard eventually
succeeds, results stay bit-identical to the fault-free run.  --degrade on
drops shards that exhaust their attempts and reports an explicitly
partial result (surviving coverage fraction and dropped-shard
provenance) instead of failing.
";

/// Parses the full argument vector (excluding the program name).
pub fn parse(args: &[String]) -> Result<Cli, ParseError> {
    let mut it = args.iter();
    let command = match it.next().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => {
            return Ok(Cli {
                command: Command::Help,
            })
        }
        Some("generate") => Command::Generate(parse_generate(&args[1..])?),
        Some("solve") => Command::Solve(parse_solve(&args[1..])?),
        Some("sweep") => Command::Sweep(parse_sweep(&args[1..])?),
        Some("ingest") => Command::Ingest(parse_ingest(&args[1..])?),
        Some("info") => Command::Info(parse_info(&args[1..])?),
        Some(other) => return Err(ParseError(format!("unknown subcommand {other:?}"))),
    };
    Ok(Cli { command })
}

/// Collects `--flag value` pairs after the positional arguments.
fn collect_flags(args: &[String]) -> Result<Vec<(String, String)>, ParseError> {
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag = &args[i];
        if !flag.starts_with("--") {
            return Err(ParseError(format!("expected a --flag, found {flag:?}")));
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| ParseError(format!("{flag} requires a value")))?;
        flags.push((flag.clone(), value.clone()));
        i += 2;
    }
    Ok(flags)
}

fn parse_number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, ParseError> {
    value
        .parse()
        .map_err(|_| ParseError(format!("invalid value {value:?} for {flag}")))
}

fn parse_generate(args: &[String]) -> Result<GenerateArgs, ParseError> {
    let family = args
        .first()
        .ok_or_else(|| ParseError("generate needs a workload family".into()))?;
    let flags = collect_flags(&args[1..])?;
    let mut n: Option<usize> = None;
    let mut params = FamilyParams::default();
    let mut seed: u64 = 1;
    let mut output: Option<String> = None;
    for (flag, value) in &flags {
        match flag.as_str() {
            "--n" => n = Some(parse_number(flag, value)?),
            "--k-prime" => params.k_prime = Some(parse_number(flag, value)?),
            "--seed" => seed = parse_number(flag, value)?,
            "--out" => output = Some(value.clone()),
            "--distinct" => params.distinct = Some(parse_number(flag, value)?),
            "--dim" => params.dim = Some(parse_number(flag, value)?),
            "--outliers" => params.planted = Some(parse_number(flag, value)?),
            other => return Err(ParseError(format!("unknown flag {other:?} for generate"))),
        }
    }
    let n = n.ok_or_else(|| ParseError("generate requires --n".into()))?;
    let output = output.ok_or_else(|| ParseError("generate requires --out".into()))?;
    let spec = family_spec(family, n, params)?;
    if params.planted.is_some() && !matches!(spec, DatasetSpec::PlantedOutliers { .. }) {
        return Err(ParseError(
            "--outliers only applies to the gau+out (planted) family".into(),
        ));
    }
    Ok(GenerateArgs { spec, seed, output })
}

/// Builds a generated workload through the one family parser, naming the
/// flag of a rejected parameter.
fn family_spec(family: &str, n: usize, params: FamilyParams) -> Result<DatasetSpec, ParseError> {
    DatasetSpec::from_family(family, n, params).map_err(|e| {
        let flag = match e.param {
            SpecParam::Family => {
                return ParseError(format!("unknown workload family {:?}", e.value))
            }
            SpecParam::KPrime => "--k-prime",
            SpecParam::Distinct => "--distinct",
            SpecParam::Dim => "--dim",
            SpecParam::Planted => "--outliers",
        };
        ParseError(format!(
            "invalid value {:?} for {flag} (expected {})",
            e.value, e.expected
        ))
    })
}

fn parse_solve(args: &[String]) -> Result<SolveArgs, ParseError> {
    let algo_name = args
        .first()
        .ok_or_else(|| ParseError("solve needs an algorithm (gon|mrg|eim|hs)".into()))?;
    let algorithm = SolverChoice::parse(algo_name)
        .ok_or_else(|| ParseError(format!("unknown algorithm {algo_name:?}")))?;
    let flags = collect_flags(&args[1..])?;
    let mut input: Option<String> = None;
    let mut k: Option<usize> = None;
    let mut machines: usize = 50;
    let mut phi: f64 = 8.0;
    let mut epsilon: f64 = 0.1;
    let mut seed: u64 = 0;
    let mut skip_columns: usize = 0;
    let mut assignment_out: Option<String> = None;
    let mut outliers: usize = 0;
    let mut run = RunArgs::default();
    for (flag, value) in &flags {
        if run.consume(flag, value)? {
            continue;
        }
        match flag.as_str() {
            "--input" => input = Some(value.clone()),
            "--k" => k = Some(parse_number(flag, value)?),
            "--machines" => machines = parse_number(flag, value)?,
            "--phi" => phi = parse_number(flag, value)?,
            "--epsilon" => epsilon = parse_number(flag, value)?,
            "--seed" => seed = parse_number(flag, value)?,
            "--skip-columns" => skip_columns = parse_number(flag, value)?,
            "--assign-out" => assignment_out = Some(value.clone()),
            "--outliers" => outliers = parse_number(flag, value)?,
            other => return Err(ParseError(format!("unknown flag {other:?} for solve"))),
        }
    }
    run.faults.validate()?;
    Ok(SolveArgs {
        algorithm,
        input: input.ok_or_else(|| ParseError("solve requires --input".into()))?,
        k: k.ok_or_else(|| ParseError("solve requires --k".into()))?,
        machines,
        phi,
        epsilon,
        seed,
        skip_columns,
        assignment_out,
        outliers,
        run,
    })
}

/// Parses a comma-separated list of numbers for flags like `--ks 5,10,25`.
fn parse_number_list<T: std::str::FromStr>(flag: &str, value: &str) -> Result<Vec<T>, ParseError> {
    let items: Result<Vec<T>, ParseError> = value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| parse_number(flag, s))
        .collect();
    let items = items?;
    if items.is_empty() {
        return Err(ParseError(format!("{flag} needs at least one value")));
    }
    Ok(items)
}

fn parse_sweep(args: &[String]) -> Result<SweepArgs, ParseError> {
    let flags = collect_flags(args)?;
    let mut input: Option<String> = None;
    let mut family: Option<String> = None;
    let mut n: Option<usize> = None;
    let mut params = FamilyParams::default();
    let mut ks: Option<Vec<usize>> = None;
    let mut phis: Vec<f64> = vec![1.0, 4.0, 8.0];
    let mut builder = SweepBuilderChoice::Gonzalez;
    let mut coreset_size: usize = 0;
    let mut machines: usize = 50;
    let mut epsilon: f64 = 0.1;
    let mut seed: u64 = 0;
    let mut skip_columns: usize = 0;
    let mut baseline = true;
    let mut run = RunArgs::default();
    for (flag, value) in &flags {
        if run.consume(flag, value)? {
            continue;
        }
        match flag.as_str() {
            "--input" => input = Some(value.clone()),
            "--family" => family = Some(value.clone()),
            "--n" => n = Some(parse_number(flag, value)?),
            "--k-prime" => params.k_prime = Some(parse_number(flag, value)?),
            "--ks" => ks = Some(parse_number_list(flag, value)?),
            "--phis" => phis = parse_number_list(flag, value)?,
            "--builder" => {
                builder = SweepBuilderChoice::parse(value).ok_or_else(|| {
                    ParseError(format!(
                        "invalid value {value:?} for --builder (expected gonzalez or eim)"
                    ))
                })?
            }
            "--coreset-size" => coreset_size = parse_number(flag, value)?,
            "--machines" => machines = parse_number(flag, value)?,
            "--epsilon" => epsilon = parse_number(flag, value)?,
            "--seed" => seed = parse_number(flag, value)?,
            "--skip-columns" => skip_columns = parse_number(flag, value)?,
            "--baseline" => {
                baseline = match value.to_ascii_lowercase().as_str() {
                    "on" | "true" | "yes" => true,
                    "off" | "false" | "no" => false,
                    other => {
                        return Err(ParseError(format!(
                            "invalid value {other:?} for --baseline (expected on or off)"
                        )))
                    }
                }
            }
            other => return Err(ParseError(format!("unknown flag {other:?} for sweep"))),
        }
    }
    run.faults.validate()?;
    let source = match (input, family) {
        (Some(_), Some(_)) => {
            return Err(ParseError(
                "sweep takes either --input or --family, not both".into(),
            ))
        }
        (Some(path), None) => SweepSource::Csv { path, skip_columns },
        (None, Some(fam)) => {
            let n = n.ok_or_else(|| ParseError("sweep --family requires --n".into()))?;
            SweepSource::Generated(family_spec(&fam, n, params)?)
        }
        (None, None) => {
            return Err(ParseError(
                "sweep requires a point source: --input FILE.csv or --family ... --n N".into(),
            ))
        }
    };
    Ok(SweepArgs {
        source,
        ks: ks.ok_or_else(|| ParseError("sweep requires --ks (e.g. --ks 5,10,25)".into()))?,
        phis,
        builder,
        coreset_size,
        machines,
        epsilon,
        seed,
        baseline,
        run,
    })
}

fn parse_ingest(args: &[String]) -> Result<IngestArgs, ParseError> {
    let flags = collect_flags(args)?;
    let mut family: Option<String> = None;
    let mut n: Option<usize> = None;
    let mut params = FamilyParams::default();
    let mut seed: u64 = 0;
    let mut batches: Option<usize> = None;
    let mut coreset_size: usize = 32;
    let mut budget: Option<usize> = None;
    let mut machines: usize = 10;
    let mut k: Option<usize> = None;
    let mut checkpoint: Option<String> = None;
    let mut run = RunArgs::default();
    let mut kill_after_batch: Option<usize> = None;
    let mut kill_stage: Option<KillStage> = None;
    let mut queries: Vec<Vec<f64>> = Vec::new();
    let mut report: Option<String> = None;
    for (flag, value) in &flags {
        if run.consume(flag, value)? {
            continue;
        }
        match flag.as_str() {
            "--family" => family = Some(value.clone()),
            "--n" => n = Some(parse_number(flag, value)?),
            "--k-prime" => params.k_prime = Some(parse_number(flag, value)?),
            "--seed" => seed = parse_number(flag, value)?,
            "--batches" => batches = Some(parse_number(flag, value)?),
            "--coreset-size" => coreset_size = parse_number(flag, value)?,
            "--budget" => budget = Some(parse_number(flag, value)?),
            "--machines" => machines = parse_number(flag, value)?,
            "--k" => k = Some(parse_number(flag, value)?),
            "--checkpoint" => checkpoint = Some(value.clone()),
            "--kill-after-batch" => kill_after_batch = Some(parse_number(flag, value)?),
            "--kill-stage" => {
                kill_stage = Some(KillStage::parse(value).ok_or_else(|| {
                    ParseError(format!(
                        "invalid value {value:?} for --kill-stage (expected \
                         before-checkpoint, during-checkpoint or after-checkpoint)"
                    ))
                })?)
            }
            "--query" => queries.push(parse_number_list(flag, value)?),
            "--report" => report = Some(value.clone()),
            other => return Err(ParseError(format!("unknown flag {other:?} for ingest"))),
        }
    }
    run.faults.validate()?;
    let fam = family.ok_or_else(|| ParseError("ingest requires --family".into()))?;
    let n = n.ok_or_else(|| ParseError("ingest requires --n".into()))?;
    let spec = family_spec(&fam, n, params)?;
    let batches = batches.ok_or_else(|| ParseError("ingest requires --batches".into()))?;
    if coreset_size == 0 {
        return Err(ParseError(
            "--coreset-size needs at least one representative".into(),
        ));
    }
    // Default budget: four batch summaries' worth before re-compression.
    let budget = budget.unwrap_or(4 * coreset_size);
    if budget == 0 {
        return Err(ParseError(
            "--budget needs at least one representative".into(),
        ));
    }
    let kill = match (kill_after_batch, kill_stage) {
        (Some(batch), stage) => Some(KillPoint {
            batch,
            stage: stage.unwrap_or(KillStage::AfterCheckpoint),
        }),
        (None, Some(_)) => {
            return Err(ParseError(
                "--kill-stage needs --kill-after-batch to name the batch".into(),
            ))
        }
        (None, None) => None,
    };
    Ok(IngestArgs {
        spec,
        seed,
        batches,
        coreset_size,
        budget,
        machines,
        k: k.ok_or_else(|| ParseError("ingest requires --k".into()))?,
        checkpoint: checkpoint.ok_or_else(|| ParseError("ingest requires --checkpoint".into()))?,
        run,
        kill,
        queries,
        report,
    })
}

fn parse_info(args: &[String]) -> Result<InfoArgs, ParseError> {
    let flags = collect_flags(args)?;
    let mut input: Option<String> = None;
    let mut skip_columns = 0;
    for (flag, value) in &flags {
        match flag.as_str() {
            "--input" => input = Some(value.clone()),
            "--skip-columns" => skip_columns = parse_number(flag, value)?,
            other => return Err(ParseError(format!("unknown flag {other:?} for info"))),
        }
    }
    Ok(InfoArgs {
        input: input.ok_or_else(|| ParseError("info requires --input".into()))?,
        skip_columns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_and_help_map_to_help() {
        assert_eq!(parse(&[]).unwrap().command, Command::Help);
        assert_eq!(parse(&argv("help")).unwrap().command, Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap().command, Command::Help);
    }

    #[test]
    fn unknown_subcommand_is_rejected() {
        let err = parse(&argv("frobnicate")).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn generate_parses_every_family() {
        let cli = parse(&argv(
            "generate gau --n 1000 --k-prime 7 --seed 3 --out /tmp/x.csv",
        ))
        .unwrap();
        match cli.command {
            Command::Generate(g) => {
                assert_eq!(
                    g.spec,
                    DatasetSpec::Gau {
                        n: 1000,
                        k_prime: 7
                    }
                );
                assert_eq!(g.seed, 3);
                assert_eq!(g.output, "/tmp/x.csv");
            }
            _ => panic!("expected generate"),
        }
        for fam in ["unif", "poker", "kdd", "unb"] {
            let cli = parse(&argv(&format!("generate {fam} --n 10 --out o.csv"))).unwrap();
            assert!(matches!(cli.command, Command::Generate(_)));
        }
    }

    #[test]
    fn generate_requires_n_and_out() {
        assert!(parse(&argv("generate unif --out x.csv")).is_err());
        assert!(parse(&argv("generate unif --n 10")).is_err());
        assert!(parse(&argv("generate martian --n 10 --out x.csv")).is_err());
    }

    #[test]
    fn generate_parses_the_adversarial_families() {
        let spec = |cmd: &str| match parse(&argv(cmd)).unwrap().command {
            Command::Generate(g) => g.spec,
            _ => panic!("expected generate"),
        };
        assert_eq!(
            spec("generate exp --n 100 --k-prime 6 --out o.csv"),
            DatasetSpec::Exp { n: 100, k_prime: 6 }
        );
        assert_eq!(
            spec("generate dup --n 100 --distinct 4 --out o.csv"),
            DatasetSpec::Dup {
                n: 100,
                distinct: 4
            }
        );
        // DUP defaults to 16 distinct locations.
        assert_eq!(
            spec("generate dup --n 100 --out o.csv"),
            DatasetSpec::Dup {
                n: 100,
                distinct: 16
            }
        );
        assert_eq!(
            spec("generate gau-hd --n 100 --k-prime 3 --dim 128 --out o.csv"),
            DatasetSpec::HighDim {
                n: 100,
                k_prime: 3,
                dim: 128
            }
        );
        let planted = DatasetSpec::PlantedOutliers {
            n: 500,
            k_prime: 5,
            outliers: 20,
        };
        assert_eq!(
            spec("generate gau+out --n 500 --k-prime 5 --outliers 20 --out o.csv"),
            planted.clone()
        );
        assert_eq!(
            spec("generate planted --n 500 --k-prime 5 --outliers 20 --out o.csv"),
            planted
        );
        // Planted outliers default to 1% of n (at least one).
        assert_eq!(
            spec("generate gau+out --n 500 --out o.csv"),
            DatasetSpec::PlantedOutliers {
                n: 500,
                k_prime: 25,
                outliers: 5
            }
        );
        assert_eq!(
            spec("generate planted --n 10 --out o.csv"),
            DatasetSpec::PlantedOutliers {
                n: 10,
                k_prime: 25,
                outliers: 1
            }
        );
        // --outliers is a planted-family knob only.
        let err = parse(&argv("generate gau --n 10 --outliers 2 --out o.csv")).unwrap_err();
        assert!(err.to_string().contains("--outliers"));
    }

    /// Asserts that `cmd` is a parse error naming `flag`.
    fn rejects(cmd: &str, flag: &str) {
        let err = parse(&argv(cmd)).unwrap_err().to_string();
        assert!(err.contains(flag), "{cmd}: {err}");
    }

    #[test]
    fn zero_k_prime_is_a_named_error_on_every_family_flag() {
        rejects("generate gau --n 100 --k-prime 0 --out o.csv", "--k-prime");
        rejects("sweep --family gau --n 100 --k-prime 0 --ks 2", "--k-prime");
        rejects(
            "ingest --family gau --n 100 --k-prime 0 --batches 2 --k 2 --checkpoint c",
            "--k-prime",
        );
    }

    #[test]
    fn zero_dimension_is_a_named_error() {
        rejects("generate gau-hd --n 100 --dim 0 --out o.csv", "--dim");
    }

    #[test]
    fn exp_spread_beyond_the_coordinate_bound_is_a_named_error() {
        // 2^46 is the farthest center that fits below 1e14.
        parse(&argv("generate exp --n 100 --k-prime 47 --out o.csv")).unwrap();
        rejects("generate exp --n 100 --k-prime 48 --out o.csv", "--k-prime");
    }

    #[test]
    fn zero_distinct_locations_is_a_named_error() {
        rejects(
            "generate dup --n 100 --distinct 0 --out o.csv",
            "--distinct",
        );
    }

    #[test]
    fn more_planted_outliers_than_points_is_a_named_error() {
        parse(&argv("generate gau+out --n 10 --outliers 10 --out o.csv")).unwrap();
        // The 1% default never exceeds n, so an empty instance parses.
        parse(&argv("generate gau+out --n 0 --out o.csv")).unwrap();
        rejects(
            "generate gau+out --n 10 --outliers 20 --out o.csv",
            "--outliers",
        );
    }

    #[test]
    fn sweep_and_ingest_accept_every_generate_family() {
        for (family, want) in [
            ("exp", DatasetSpec::Exp { n: 100, k_prime: 3 }),
            (
                "dup",
                DatasetSpec::Dup {
                    n: 100,
                    distinct: 16,
                },
            ),
            (
                "gau-hd",
                DatasetSpec::HighDim {
                    n: 100,
                    k_prime: 3,
                    dim: 64,
                },
            ),
            (
                "gau+out",
                DatasetSpec::PlantedOutliers {
                    n: 100,
                    k_prime: 3,
                    outliers: 1,
                },
            ),
        ] {
            let flags = format!("--family {family} --n 100 --k-prime 3");
            match parse(&argv(&format!("sweep {flags} --ks 2")))
                .unwrap()
                .command
            {
                Command::Sweep(s) => assert_eq!(s.source, SweepSource::Generated(want.clone())),
                _ => panic!("expected sweep"),
            }
            let ingest = format!("ingest {flags} --batches 2 --k 2 --checkpoint c");
            match parse(&argv(&ingest)).unwrap().command {
                Command::Ingest(i) => assert_eq!(i.spec, want),
                _ => panic!("expected ingest"),
            }
        }
    }

    #[test]
    fn solve_parses_defaults_and_overrides() {
        let cli = parse(&argv("solve mrg --input pts.csv --k 10")).unwrap();
        match cli.command {
            Command::Solve(s) => {
                assert_eq!(s.algorithm, SolverChoice::Mrg);
                assert_eq!(s.k, 10);
                assert_eq!(s.machines, 50);
                assert_eq!(s.phi, 8.0);
                assert_eq!(s.epsilon, 0.1);
                assert_eq!(s.assignment_out, None);
                assert_eq!(s.run.precision, Precision::F64);
            }
            _ => panic!("expected solve"),
        }
        let cli = parse(&argv(
            "solve eim --input pts.csv --k 5 --machines 10 --phi 4 --epsilon 0.2 --seed 9 --skip-columns 1 --assign-out a.csv --precision f32",
        ))
        .unwrap();
        match cli.command {
            Command::Solve(s) => {
                assert_eq!(s.algorithm, SolverChoice::Eim);
                assert_eq!(s.machines, 10);
                assert_eq!(s.phi, 4.0);
                assert_eq!(s.epsilon, 0.2);
                assert_eq!(s.seed, 9);
                assert_eq!(s.skip_columns, 1);
                assert_eq!(s.assignment_out.as_deref(), Some("a.csv"));
                assert_eq!(s.run.precision, Precision::F32);
            }
            _ => panic!("expected solve"),
        }
    }

    #[test]
    fn solve_parses_the_outlier_budget() {
        // Defaults to 0 (no outlier report).
        let cli = parse(&argv("solve gon --input x.csv --k 3")).unwrap();
        match cli.command {
            Command::Solve(s) => assert_eq!(s.outliers, 0),
            _ => panic!("expected solve"),
        }
        let cli = parse(&argv("solve gon --input x.csv --k 3 --outliers 25")).unwrap();
        match cli.command {
            Command::Solve(s) => assert_eq!(s.outliers, 25),
            _ => panic!("expected solve"),
        }
        let err = parse(&argv("solve gon --input x.csv --k 3 --outliers few")).unwrap_err();
        assert!(err.to_string().contains("--outliers"));
    }

    #[test]
    fn solve_rejects_unknown_precision() {
        let err = parse(&argv("solve gon --input x.csv --k 2 --precision f16")).unwrap_err();
        assert!(err.to_string().contains("--precision"));
    }

    type SetRun = fn(&mut RunArgs);

    /// Runs each row through `solve`, `sweep` and `ingest`, each with its
    /// minimal required flags: a valid value lands in `run` (absent flags
    /// leave the defaults), and a bad value is a parse error naming the flag
    /// and the value.
    fn assert_run_flags(valid: &[(&str, SetRun)], bad: &[(&str, &str)]) {
        for cmd in [
            "solve gon --input x.csv --k 2",
            "sweep --input a.csv --ks 2",
            "ingest --family gau --n 100 --batches 2 --k 2 --checkpoint c",
        ] {
            let run_of =
                |flags: &str| match parse(&argv(&format!("{cmd} {flags}"))).unwrap().command {
                    Command::Solve(s) => s.run,
                    Command::Sweep(s) => s.run,
                    Command::Ingest(i) => i.run,
                    other => panic!("{other:?} takes no run flags"),
                };
            assert_eq!(run_of(""), RunArgs::default(), "{cmd}");
            for (flags, set) in valid {
                let mut want = RunArgs::default();
                set(&mut want);
                assert_eq!(run_of(flags), want, "{cmd} {flags}");
            }
            for (flag, value) in bad {
                let err = parse(&argv(&format!("{cmd} {flag} {value}"))).unwrap_err();
                let err = err.to_string();
                assert!(
                    err.contains(flag) && err.contains(value),
                    "{cmd} {flag} {value}: {err}"
                );
            }
        }
    }

    #[test]
    fn run_flags_parse_the_same_on_every_subcommand() {
        assert_run_flags(
            &[
                ("--precision f32", |r| r.precision = Precision::F32),
                ("--fault-seed 42 --max-attempts 5 --degrade on", |r| {
                    r.faults.fault_seed = Some(42);
                    r.faults.max_attempts = Some(5);
                    r.faults.degrade = true;
                }),
                ("--fault-plan plan.txt", |r| {
                    r.faults.plan_file = Some("plan.txt".into())
                }),
            ],
            &[
                ("--precision", "f16"),
                ("--fault-seed", "x"),
                ("--max-attempts", "none"),
                ("--degrade", "maybe"),
            ],
        );
    }

    #[test]
    fn kernel_flag_parses_every_backend_and_rejects_unknown_names() {
        use kcenter_metric::KernelBackend;
        assert_run_flags(
            &[
                ("--kernel auto", |r| r.kernel = Some(KernelChoice::Auto)),
                ("--kernel scalar", |r| {
                    r.kernel = Some(KernelChoice::Fixed(KernelBackend::Scalar))
                }),
                ("--kernel portable", |r| {
                    r.kernel = Some(KernelChoice::Fixed(KernelBackend::Portable))
                }),
                ("--kernel AVX2", |r| {
                    r.kernel = Some(KernelChoice::Fixed(KernelBackend::Avx2))
                }),
            ],
            &[("--kernel", "warp9"), ("--kernel", "turbo")],
        );
    }

    #[test]
    fn assign_flag_parses_every_arm_and_rejects_unknown_names() {
        use kcenter_metric::{AssignMode, KernelBackend};
        assert_run_flags(
            &[
                ("--assign auto", |r| r.assign = Some(AssignChoice::Auto)),
                ("--assign dense", |r| {
                    r.assign = Some(AssignChoice::Fixed(AssignMode::Dense))
                }),
                ("--assign GRID", |r| {
                    r.assign = Some(AssignChoice::Fixed(AssignMode::Grid))
                }),
                ("--assign grid --kernel scalar", |r| {
                    r.assign = Some(AssignChoice::Fixed(AssignMode::Grid));
                    r.kernel = Some(KernelChoice::Fixed(KernelBackend::Scalar));
                }),
            ],
            &[("--assign", "octree"), ("--assign", "kdtree")],
        );
    }

    #[test]
    fn executor_flags_parse_and_reject_unknown_values() {
        assert_run_flags(
            &[
                ("--executor SIMULATED", |r| {
                    r.executor = Some(ExecutorChoice::Simulated)
                }),
                ("--executor threads --threads 4", |r| {
                    r.executor = Some(ExecutorChoice::Threads);
                    r.threads = Some(4);
                }),
            ],
            &[
                ("--executor", "gpu"),
                ("--threads", "0"),
                ("--threads", "many"),
            ],
        );
    }

    #[test]
    fn sweep_kernel_flag_parses() {
        use kcenter_metric::KernelBackend;
        let cli = parse(&argv("sweep --input a.csv --ks 2 --kernel scalar")).unwrap();
        match cli.command {
            Command::Sweep(s) => assert_eq!(
                s.run.kernel,
                Some(KernelChoice::Fixed(KernelBackend::Scalar))
            ),
            _ => panic!("expected sweep"),
        }
    }

    #[test]
    fn solve_rejects_missing_or_bad_arguments() {
        assert!(parse(&argv("solve mrg --k 5")).is_err());
        assert!(parse(&argv("solve mrg --input x.csv")).is_err());
        assert!(parse(&argv("solve quantum --input x.csv --k 5")).is_err());
        assert!(parse(&argv("solve mrg --input x.csv --k five")).is_err());
        assert!(parse(&argv("solve mrg --input x.csv --k 5 --bogus 1")).is_err());
        assert!(parse(&argv("solve mrg --input x.csv --k")).is_err());
    }

    #[test]
    fn solver_choice_aliases() {
        assert_eq!(SolverChoice::parse("GON"), Some(SolverChoice::Gon));
        assert_eq!(SolverChoice::parse("gonzalez"), Some(SolverChoice::Gon));
        assert_eq!(
            SolverChoice::parse("hochbaum-shmoys"),
            Some(SolverChoice::HochbaumShmoys)
        );
        assert_eq!(
            SolverChoice::parse("hs"),
            Some(SolverChoice::HochbaumShmoys)
        );
        assert_eq!(SolverChoice::parse("xyz"), None);
    }

    #[test]
    fn sweep_parses_defaults_and_overrides() {
        let cli = parse(&argv("sweep --input pts.csv --ks 5,10,25")).unwrap();
        match cli.command {
            Command::Sweep(s) => {
                assert_eq!(
                    s.source,
                    SweepSource::Csv {
                        path: "pts.csv".into(),
                        skip_columns: 0
                    }
                );
                assert_eq!(s.ks, vec![5, 10, 25]);
                assert_eq!(s.phis, vec![1.0, 4.0, 8.0]);
                assert_eq!(s.builder, SweepBuilderChoice::Gonzalez);
                assert_eq!(s.coreset_size, 0);
                assert_eq!(s.machines, 50);
                assert!(s.baseline);
                assert_eq!(s.run.precision, Precision::F64);
            }
            _ => panic!("expected sweep"),
        }
        let cli = parse(&argv(
            "sweep --family gau --n 1000 --k-prime 7 --ks 2,4 --phis 4,8 --builder eim \
             --coreset-size 64 --machines 8 --epsilon 0.13 --seed 3 --precision f32 --baseline off",
        ))
        .unwrap();
        match cli.command {
            Command::Sweep(s) => {
                assert_eq!(
                    s.source,
                    SweepSource::Generated(DatasetSpec::Gau {
                        n: 1000,
                        k_prime: 7
                    })
                );
                assert_eq!(s.ks, vec![2, 4]);
                assert_eq!(s.phis, vec![4.0, 8.0]);
                assert_eq!(s.builder, SweepBuilderChoice::Eim);
                assert_eq!(s.coreset_size, 64);
                assert_eq!(s.machines, 8);
                assert_eq!(s.epsilon, 0.13);
                assert_eq!(s.seed, 3);
                assert!(!s.baseline);
                assert_eq!(s.run.precision, Precision::F32);
            }
            _ => panic!("expected sweep"),
        }
    }

    #[test]
    fn sweep_rejects_bad_sources_and_flags() {
        // No source, both sources, family without n.
        assert!(parse(&argv("sweep --ks 2,3")).is_err());
        assert!(parse(&argv("sweep --input a.csv --family unif --n 10 --ks 2")).is_err());
        assert!(parse(&argv("sweep --family unif --ks 2")).is_err());
        assert!(parse(&argv("sweep --family martian --n 10 --ks 2")).is_err());
        // Missing or malformed grids.
        assert!(parse(&argv("sweep --input a.csv")).is_err());
        assert!(parse(&argv("sweep --input a.csv --ks two")).is_err());
        assert!(parse(&argv("sweep --input a.csv --ks ,")).is_err());
        // Bad enum values.
        assert!(parse(&argv("sweep --input a.csv --ks 2 --builder mrg")).is_err());
        assert!(parse(&argv("sweep --input a.csv --ks 2 --baseline maybe")).is_err());
        assert!(parse(&argv("sweep --input a.csv --ks 2 --precision f16")).is_err());
        assert!(parse(&argv("sweep --input a.csv --ks 2 --bogus 1")).is_err());
    }

    #[test]
    fn sweep_builder_aliases() {
        assert_eq!(
            SweepBuilderChoice::parse("GONZALEZ"),
            Some(SweepBuilderChoice::Gonzalez)
        );
        assert_eq!(
            SweepBuilderChoice::parse("gon"),
            Some(SweepBuilderChoice::Gonzalez)
        );
        assert_eq!(
            SweepBuilderChoice::parse("eim"),
            Some(SweepBuilderChoice::Eim)
        );
        assert_eq!(SweepBuilderChoice::parse("hs"), None);
    }

    #[test]
    fn info_parses() {
        let cli = parse(&argv("info --input pts.csv --skip-columns 2")).unwrap();
        assert_eq!(
            cli.command,
            Command::Info(InfoArgs {
                input: "pts.csv".into(),
                skip_columns: 2
            })
        );
        assert!(parse(&argv("info")).is_err());
    }

    #[test]
    fn fault_flags_parse_on_solve_and_sweep() {
        let cli = parse(&argv(
            "solve mrg --input x.csv --k 5 --fault-seed 42 --max-attempts 5 --degrade on",
        ))
        .unwrap();
        match cli.command {
            Command::Solve(s) => {
                assert_eq!(
                    s.run.faults,
                    FaultArgs {
                        plan_file: None,
                        fault_seed: Some(42),
                        max_attempts: Some(5),
                        degrade: true,
                    }
                );
                assert!(s.run.faults.is_active());
            }
            _ => panic!("expected solve"),
        }
        let cli = parse(&argv(
            "sweep --input a.csv --ks 2 --fault-plan plan.txt --degrade off",
        ))
        .unwrap();
        match cli.command {
            Command::Sweep(s) => {
                assert_eq!(s.run.faults.plan_file.as_deref(), Some("plan.txt"));
                assert_eq!(s.run.faults.fault_seed, None);
                assert!(!s.run.faults.degrade);
            }
            _ => panic!("expected sweep"),
        }
        // Fault-free by default.
        let cli = parse(&argv("solve gon --input x.csv --k 2")).unwrap();
        match cli.command {
            Command::Solve(s) => assert!(!s.run.faults.is_active()),
            _ => panic!("expected solve"),
        }
    }

    #[test]
    fn fault_flags_reject_inconsistent_combinations() {
        // Plan and seed are mutually exclusive.
        let err = parse(&argv(
            "solve mrg --input x.csv --k 5 --fault-plan p.txt --fault-seed 1",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"));
        // Policy flags need a fault source.
        assert!(parse(&argv("solve mrg --input x.csv --k 5 --max-attempts 4")).is_err());
        assert!(parse(&argv("sweep --input a.csv --ks 2 --degrade on")).is_err());
        // Zero attempts and bad degrade values are named errors.
        let err = parse(&argv(
            "solve mrg --input x.csv --k 5 --fault-seed 1 --max-attempts 0",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("--max-attempts"));
        let err = parse(&argv(
            "solve mrg --input x.csv --k 5 --fault-seed 1 --degrade maybe",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("--degrade"));
    }

    #[test]
    fn usage_mentions_all_subcommands() {
        for word in [
            "generate", "solve", "sweep", "ingest", "info", "gon", "mrg", "eim",
        ] {
            assert!(USAGE.contains(word), "usage text is missing {word}");
        }
    }

    #[test]
    fn ingest_parses_defaults_and_overrides() {
        let cli = parse(&argv(
            "ingest --family gau --n 2000 --batches 8 --k 5 --checkpoint state.ckpt",
        ))
        .unwrap();
        match cli.command {
            Command::Ingest(i) => {
                assert_eq!(
                    i.spec,
                    DatasetSpec::Gau {
                        n: 2000,
                        k_prime: 25
                    }
                );
                assert_eq!(i.seed, 0);
                assert_eq!(i.batches, 8);
                assert_eq!(i.coreset_size, 32);
                assert_eq!(i.budget, 128, "default budget is 4 batch summaries");
                assert_eq!(i.machines, 10);
                assert_eq!(i.k, 5);
                assert_eq!(i.checkpoint, "state.ckpt");
                assert_eq!(i.run.precision, Precision::F64);
                assert_eq!(i.kill, None);
                assert!(i.queries.is_empty());
                assert_eq!(i.report, None);
                assert!(!i.run.faults.is_active());
            }
            _ => panic!("expected ingest"),
        }
        let cli = parse(&argv(
            "ingest --family unif --n 500 --seed 9 --batches 4 --coreset-size 16 \
             --budget 48 --machines 5 --k 3 --checkpoint /tmp/s.ckpt --precision f32 \
             --fault-seed 7 --degrade on --kill-after-batch 2 --kill-stage during-checkpoint \
             --query 1.5,2.5 --query 0,0 --report out.json",
        ))
        .unwrap();
        match cli.command {
            Command::Ingest(i) => {
                assert_eq!(i.spec, DatasetSpec::Unif { n: 500 });
                assert_eq!(i.seed, 9);
                assert_eq!(i.batches, 4);
                assert_eq!(i.coreset_size, 16);
                assert_eq!(i.budget, 48);
                assert_eq!(i.machines, 5);
                assert_eq!(i.k, 3);
                assert_eq!(i.run.precision, Precision::F32);
                assert_eq!(i.run.faults.fault_seed, Some(7));
                assert!(i.run.faults.degrade);
                assert_eq!(
                    i.kill,
                    Some(KillPoint {
                        batch: 2,
                        stage: KillStage::DuringCheckpoint
                    })
                );
                assert_eq!(i.queries, vec![vec![1.5, 2.5], vec![0.0, 0.0]]);
                assert_eq!(i.report.as_deref(), Some("out.json"));
            }
            _ => panic!("expected ingest"),
        }
        // --kill-stage defaults to after-checkpoint when only the batch is
        // named.
        let cli = parse(&argv(
            "ingest --family gau --n 100 --batches 2 --k 2 --checkpoint c --kill-after-batch 1",
        ))
        .unwrap();
        match cli.command {
            Command::Ingest(i) => assert_eq!(
                i.kill,
                Some(KillPoint {
                    batch: 1,
                    stage: KillStage::AfterCheckpoint
                })
            ),
            _ => panic!("expected ingest"),
        }
    }

    #[test]
    fn ingest_rejects_missing_or_inconsistent_flags() {
        // Required flags.
        assert!(parse(&argv("ingest --n 100 --batches 2 --k 2 --checkpoint c")).is_err());
        assert!(parse(&argv(
            "ingest --family gau --batches 2 --k 2 --checkpoint c"
        ))
        .is_err());
        assert!(parse(&argv("ingest --family gau --n 100 --k 2 --checkpoint c")).is_err());
        assert!(parse(&argv(
            "ingest --family gau --n 100 --batches 2 --checkpoint c"
        ))
        .is_err());
        assert!(parse(&argv("ingest --family gau --n 100 --batches 2 --k 2")).is_err());
        // Kill stage without a batch, bad stage names, degenerate sizes.
        let err = parse(&argv(
            "ingest --family gau --n 100 --batches 2 --k 2 --checkpoint c \
             --kill-stage before-checkpoint",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("--kill-after-batch"));
        let err = parse(&argv(
            "ingest --family gau --n 100 --batches 2 --k 2 --checkpoint c \
             --kill-after-batch 0 --kill-stage sometime",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("--kill-stage"));
        assert!(parse(&argv(
            "ingest --family gau --n 100 --batches 2 --k 2 --checkpoint c --coreset-size 0"
        ))
        .is_err());
        assert!(parse(&argv(
            "ingest --family gau --n 100 --batches 2 --k 2 --checkpoint c --budget 0"
        ))
        .is_err());
        assert!(parse(&argv(
            "ingest --family martian --n 100 --batches 2 --k 2 --checkpoint c"
        ))
        .is_err());
        // Fault flags validate exactly as on solve/sweep.
        assert!(parse(&argv(
            "ingest --family gau --n 100 --batches 2 --k 2 --checkpoint c --degrade on"
        ))
        .is_err());
    }

    #[test]
    fn kill_stage_names_round_trip() {
        for stage in [
            KillStage::BeforeCheckpoint,
            KillStage::DuringCheckpoint,
            KillStage::AfterCheckpoint,
        ] {
            assert_eq!(KillStage::parse(stage.name()), Some(stage));
        }
        assert_eq!(KillStage::parse("mid-flight"), None);
    }
}
