//! Execution of the parsed CLI commands.

use crate::args::{
    Cli, Command, FaultArgs, GenerateArgs, InfoArgs, IngestArgs, ParseError, RunArgs, SolveArgs,
    SolverChoice, SweepArgs, SweepBuilderChoice, SweepSource, USAGE,
};
use kcenter_bench::scenario::{center_digest, CellResult, ScenarioReport};
use kcenter_core::evaluate::{assign, cluster_sizes};
use kcenter_core::prelude::*;
use kcenter_data::csv::{load_flat, save_points, CsvError, CsvOptions};
use kcenter_mapreduce::{
    install_thread_budget, threads_from_env, Cluster, ClusterConfig, DegradedRun, Executor,
    ExecutorChoice, FaultConfig, FaultPlan, JobStats, EXECUTOR_ENV, THREADS_ENV,
};
use kcenter_metric::grid;
use kcenter_metric::kernel::simd;
use kcenter_metric::{
    AssignChoice, BoundingBox, Euclidean, KernelBackend, KernelChoice, PointId, Precision, Scalar,
    VecSpace, ASSIGN_ENV, KERNEL_ENV,
};
use kcenter_serve::{IngestConfig, IngestError, Ingestor, SnapshotCell, StreamConfig};
use std::fmt;
use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CommandError {
    /// Reading or parsing the input CSV failed.
    Csv(kcenter_data::csv::CsvError),
    /// Writing an output file failed.
    Io(std::io::Error),
    /// The clustering algorithm reported an error.
    Algorithm(KCenterError),
    /// The checkpointed ingest loop reported an error.
    Ingest(IngestError),
    /// A `KCENTER_*` variable held a value its flag would reject at parse
    /// time: a usage error like the flag's, naming the variable.
    Usage(ParseError),
}

impl CommandError {
    /// The process exit code: 2 for a usage error, as for a bad flag; 1
    /// for every other failure.
    pub fn exit_code(&self) -> i32 {
        match self {
            CommandError::Usage(_) => 2,
            _ => 1,
        }
    }
}

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommandError::Csv(e) => write!(f, "CSV error: {e}"),
            CommandError::Io(e) => write!(f, "I/O error: {e}"),
            CommandError::Algorithm(e) => write!(f, "algorithm error: {e}"),
            CommandError::Ingest(e) => write!(f, "ingest error: {e}"),
            CommandError::Usage(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CommandError {}

impl From<kcenter_data::csv::CsvError> for CommandError {
    fn from(e: kcenter_data::csv::CsvError) -> Self {
        CommandError::Csv(e)
    }
}

impl From<std::io::Error> for CommandError {
    fn from(e: std::io::Error) -> Self {
        CommandError::Io(e)
    }
}

impl From<KCenterError> for CommandError {
    fn from(e: KCenterError) -> Self {
        CommandError::Algorithm(e)
    }
}

impl From<IngestError> for CommandError {
    fn from(e: IngestError) -> Self {
        CommandError::Ingest(e)
    }
}

/// Runs the parsed command, writing human-readable output to `out`.
pub fn run<W: Write>(cli: &Cli, out: &mut W) -> Result<(), CommandError> {
    match &cli.command {
        Command::Help => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        Command::Generate(args) => generate(args, out),
        Command::Solve(args) => solve(args, out),
        Command::Sweep(args) => sweep(args, out),
        Command::Ingest(args) => ingest(args, out),
        Command::Info(args) => info(args, out),
    }
}

fn generate<W: Write>(args: &GenerateArgs, out: &mut W) -> Result<(), CommandError> {
    let points = args.spec.generate(args.seed);
    save_points(Path::new(&args.output), &points)?;
    writeln!(
        out,
        "wrote {} points ({}), seed {}, to {}",
        points.len(),
        args.spec.describe(),
        args.seed,
        args.output
    )?;
    Ok(())
}

fn load_space<S: Scalar>(
    path: &str,
    skip_columns: usize,
) -> Result<VecSpace<Euclidean, S>, CommandError> {
    let options = CsvOptions {
        skip_trailing_columns: skip_columns,
        ..Default::default()
    };
    let flat = load_flat::<S>(path, &options).map_err(|e| match e {
        // The flat store cannot hold coordinates beyond the storage
        // scalar's safe magnitude (squared distances would overflow); name
        // the flag that fixes it.
        CsvError::OutOfRange { value, .. } => invalid(
            "precision",
            format!(
                "coordinate {value} exceeds the {} storage limit {:e}; \
                 rerun with --precision f64",
                S::NAME,
                S::MAX_ABS_COORD
            ),
        ),
        e => CommandError::Csv(e),
    })?;
    Ok(VecSpace::from_flat(flat))
}

/// The named parameter error the CLI reports for a rejected value.
fn invalid(name: &'static str, e: impl fmt::Display) -> CommandError {
    CommandError::Algorithm(KCenterError::InvalidParameter {
        name,
        message: e.to_string(),
    })
}

/// The usage error of a bad `KCENTER_*` value, worded like the parse error
/// of its flag.
fn bad_env(var: &str, e: impl fmt::Display) -> CommandError {
    CommandError::Usage(ParseError(format!("invalid value for {var}: {e}")))
}

/// The dispatch a run resolved to: what the printout and reports name.
#[derive(Clone, Copy)]
struct Dispatch {
    kernel: KernelBackend,
    assign: AssignChoice,
    executor: Executor,
}

/// Resolves and installs the run setup, printing one line per choice.
/// Each flag wins over its `KCENTER_*` environment variable, which is read
/// only when the flag is absent; with neither, kernel and arm are `auto`,
/// the executor `simulated`, and the threaded executor takes the host's
/// available parallelism.  Installs the kernel backend, the assignment arm
/// and an explicit thread budget (which also caps the chunked `par_*`
/// kernels), and zeroes the scan counts so [`report_assign_scans`]
/// accounts for this command alone.  A bad `KCENTER_*` value is a usage
/// error naming the variable (exit 2, as for the flag); an unavailable
/// backend is a named `kernel` parameter error, not a deep panic.  Results
/// are executor-invariant; only the wall-clock accounting changes.
fn install<W: Write>(run: &RunArgs, out: &mut W) -> Result<Dispatch, CommandError> {
    let kernel = match run.kernel {
        Some(choice) => choice,
        None => KernelChoice::from_env().map_err(|e| bad_env(KERNEL_ENV, e))?,
    };
    let kernel = kernel
        .resolve()
        .and_then(|backend| simd::set_active(backend).map(|()| backend))
        .map_err(|e| invalid("kernel", e))?;
    writeln!(out, "kernel backend: {kernel}")?;
    let assign = match run.assign {
        Some(choice) => choice,
        None => AssignChoice::from_env().map_err(|e| bad_env(ASSIGN_ENV, e))?,
    };
    grid::set_choice(assign);
    grid::reset_scan_counts();
    writeln!(out, "assignment arm: {assign}")?;
    let choice = match run.executor {
        Some(choice) => choice,
        None => ExecutorChoice::from_env().map_err(|e| bad_env(EXECUTOR_ENV, e))?,
    };
    let threads = match run.threads {
        Some(n) => Some(n),
        None => threads_from_env().map_err(|e| bad_env(THREADS_ENV, e))?,
    };
    if let Some(n) = threads {
        install_thread_budget(n);
    }
    let executor = choice.resolve(threads);
    writeln!(out, "cluster executor: {executor}")?;
    Ok(Dispatch {
        kernel,
        assign,
        executor,
    })
}

/// Prints which assignment arm the scans actually ran on — a pinned `grid`
/// can still fall back to dense per scan (non-Euclidean surrogate, missing
/// coordinates, degenerate extents), and `auto` decides per shape, so the
/// request alone does not tell the user what executed.
fn report_assign_scans<W: Write>(out: &mut W) -> Result<(), CommandError> {
    let (grid_scans, dense_scans) = grid::scan_counts();
    writeln!(
        out,
        "assignment scans: {grid_scans} grid, {dense_scans} dense"
    )?;
    Ok(())
}

/// Assembles the [`FaultConfig`] requested by `--fault-plan`/`--fault-seed`
/// plus `--max-attempts` and `--degrade`, or `None` for a fault-free run.
/// Unreadable or malformed plan files surface as named errors, not panics.
fn build_fault_config(args: &FaultArgs) -> Result<Option<FaultConfig>, CommandError> {
    let plan = if let Some(path) = &args.plan_file {
        let named = |e: &dyn fmt::Display| invalid("fault-plan", format!("{path}: {e}"));
        let text = std::fs::read_to_string(path).map_err(|e| named(&e))?;
        Some(FaultPlan::parse_text(&text).map_err(|e| named(&e))?)
    } else {
        args.fault_seed.map(FaultPlan::seeded)
    };
    let Some(plan) = plan else { return Ok(None) };
    let mut config = FaultConfig::new(plan).with_degrade(args.degrade);
    if let Some(attempts) = args.max_attempts {
        config = config.with_max_attempts(attempts);
    }
    Ok(Some(config))
}

/// Prints the job's fault accounting next to the round accounting: the
/// summary line plus every injected/observed event, grouped by round.
/// Quiet jobs (no faults fired) print nothing.
fn report_fault_log<W: Write>(stats: &JobStats, out: &mut W) -> Result<(), CommandError> {
    let summary = stats.fault_summary();
    if summary.is_quiet() {
        return Ok(());
    }
    writeln!(out, "fault injection: {summary}")?;
    for round in stats.rounds() {
        for event in round.faults.events() {
            writeln!(out, "  round {}: {event}", round.round + 1)?;
        }
    }
    Ok(())
}

/// Prints the partial-result disclosure of a degraded run: what fraction
/// of the input the reported radius actually speaks for, and the
/// provenance of every dropped shard.
fn report_degraded<W: Write>(degraded: &DegradedRun, out: &mut W) -> Result<(), CommandError> {
    writeln!(
        out,
        "DEGRADED RESULT: certificate covers {} of {} points ({:.1}%); \
         the radius speaks only for the surviving subset",
        degraded.covered_points,
        degraded.total_points,
        degraded.coverage_fraction() * 100.0,
    )?;
    for shard in &degraded.dropped_shards {
        writeln!(out, "  dropped: {shard}")?;
    }
    Ok(())
}

fn solve<W: Write>(args: &SolveArgs, out: &mut W) -> Result<(), CommandError> {
    let executor = install(&args.run, out)?.executor;
    // Dispatch into the monomorphised storage-precision stack once, here;
    // everything below runs entirely at the chosen precision (with the
    // covering radius still certified in f64 by the evaluation layer).
    match args.run.precision {
        Precision::F64 => solve_at::<f64, W>(args, executor, out)?,
        Precision::F32 => solve_at::<f32, W>(args, executor, out)?,
    }
    report_assign_scans(out)
}

fn solve_at<S: Scalar, W: Write>(
    args: &SolveArgs,
    executor: Executor,
    out: &mut W,
) -> Result<(), CommandError> {
    // The plan file is read before the input, so a bad plan costs no parse.
    let faults = build_fault_config(&args.run.faults)?;
    let space = load_space::<S>(&args.input, args.skip_columns)?;
    writeln!(
        out,
        "loaded {} points of dimension {} from {} ({} storage)",
        space.len(),
        space.dim().unwrap_or(0),
        args.input,
        S::NAME
    )?;

    let (centers, radius, degraded): (Vec<PointId>, f64, Option<DegradedRun>) = match args.algorithm
    {
        SolverChoice::Gon => {
            let sol = GonzalezConfig::new(args.k)
                .with_parallel_scan(true)
                .solve(&space)?;
            writeln!(out, "GON (sequential 2-approximation)")?;
            (sol.centers, sol.radius, None)
        }
        SolverChoice::HochbaumShmoys => {
            let sol = HochbaumShmoysConfig::new(args.k).solve(&space)?;
            writeln!(out, "Hochbaum-Shmoys (sequential 2-approximation)")?;
            (sol.centers, sol.radius, None)
        }
        SolverChoice::Mrg => {
            let mut config = MrgConfig::new(args.k)
                .with_machines(args.machines)
                .with_unchecked_capacity()
                .with_first_center(FirstCenter::Seeded(args.seed))
                .with_executor(executor);
            if let Some(faults) = faults {
                config = config.with_faults(faults);
            }
            let result = config.run(&space)?;
            writeln!(
                out,
                "MRG on {} machines: {} MapReduce rounds, proven factor {}, simulated time {:?}, wall time {:?} on {}",
                args.machines,
                result.mapreduce_rounds,
                result.approximation_factor,
                result.stats.simulated_time(),
                result.stats.wall_time(),
                executor,
            )?;
            for round in result.stats.rounds() {
                writeln!(
                    out,
                    "  round {}: {} ({} machines, {} items, max machine time {:?}, wall {:?})",
                    round.round + 1,
                    round.label,
                    round.machines_used,
                    round.items_in,
                    round.simulated_time,
                    round.wall_time,
                )?;
            }
            report_fault_log(&result.stats, out)?;
            (
                result.solution.centers,
                result.solution.radius,
                result.degraded,
            )
        }
        SolverChoice::Eim => {
            let mut config = EimConfig::new(args.k)
                .with_machines(args.machines)
                .with_phi(args.phi)
                .with_epsilon(args.epsilon)
                .with_seed(args.seed)
                .with_executor(executor);
            if let Some(faults) = faults {
                config = config.with_faults(faults);
            }
            let result = config.run(&space)?;
            writeln!(
                out,
                "EIM (phi = {}, epsilon = {}) on {} machines: {} iterations, {} MapReduce rounds, sample size {}{}",
                args.phi,
                args.epsilon,
                args.machines,
                result.iterations,
                result.mapreduce_rounds,
                result.sample_size,
                if result.fell_back_to_sequential { " (fell back to sequential GON)" } else { "" },
            )?;
            writeln!(
                out,
                "  simulated time {:?}, wall time {:?} on {}",
                result.stats.simulated_time(),
                result.stats.wall_time(),
                executor,
            )?;
            report_fault_log(&result.stats, out)?;
            (
                result.solution.centers,
                result.solution.radius,
                result.degraded,
            )
        }
    };

    match &degraded {
        None => writeln!(out, "covering radius (solution value): {radius:.6}")?,
        Some(d) => {
            writeln!(
                out,
                "covering radius over the surviving subset: {radius:.6}"
            )?;
            report_degraded(d, out)?;
        }
    }
    writeln!(out, "centers (point indices): {centers:?}")?;

    if args.outliers > 0 {
        let eval = evaluate_with_outliers(&space, &centers, args.outliers);
        writeln!(
            out,
            "with-outliers objective (z = {}): kept radius {:.6} over {} points",
            eval.z(),
            eval.radius,
            space.len() - eval.z(),
        )?;
        writeln!(
            out,
            "  dropped point ids (farthest first): {:?}",
            eval.dropped
        )?;
    }

    if let Some(path) = &args.assignment_out {
        let assignment = assign(&space, &centers);
        let sizes = cluster_sizes(&assignment, centers.len());
        let mut file = std::fs::File::create(path)?;
        writeln!(file, "point,center_index,center_point_id")?;
        for (point, &c) in assignment.iter().enumerate() {
            writeln!(file, "{point},{c},{}", centers[c])?;
        }
        writeln!(
            out,
            "wrote assignment of {} points to {path}",
            assignment.len()
        )?;
        // `sizes` has one entry per center and k >= 1 is enforced above,
        // but degrade to 0 rather than panicking if that ever changes.
        writeln!(
            out,
            "cluster sizes: min {}, max {}",
            sizes.iter().min().copied().unwrap_or(0),
            sizes.iter().max().copied().unwrap_or(0)
        )?;
    }
    Ok(())
}

fn sweep<W: Write>(args: &SweepArgs, out: &mut W) -> Result<(), CommandError> {
    let executor = install(&args.run, out)?.executor;
    match args.run.precision {
        Precision::F64 => sweep_at::<f64, W>(args, executor, out)?,
        Precision::F32 => sweep_at::<f32, W>(args, executor, out)?,
    }
    report_assign_scans(out)
}

fn format_ms(d: Duration) -> String {
    format!("{:.1}ms", d.as_secs_f64() * 1e3)
}

fn sweep_at<S: Scalar, W: Write>(
    args: &SweepArgs,
    executor: Executor,
    out: &mut W,
) -> Result<(), CommandError> {
    // The plan file is read before the input, so a bad plan costs no parse.
    let faults = build_fault_config(&args.run.faults)?;
    let space: VecSpace<Euclidean, S> = match &args.source {
        SweepSource::Csv { path, skip_columns } => load_space::<S>(path, *skip_columns)?,
        SweepSource::Generated(spec) => spec.build_at::<S>(args.seed).space,
    };
    writeln!(
        out,
        "sweep over {} points of dimension {} ({} storage), grid {} k x {} phi",
        space.len(),
        space.dim().unwrap_or(0),
        S::NAME,
        args.ks.len(),
        args.phis.len(),
    )?;

    // The parser guarantees a non-empty --ks list; surface a named error
    // instead of panicking if a caller constructs SweepArgs by hand.
    let k_max = *args
        .ks
        .iter()
        .max()
        .ok_or_else(|| invalid("ks", "sweep needs at least one k value"))?;
    let phi_max = args.phis.iter().copied().fold(f64::NEG_INFINITY, f64::max);

    // ---- Phase 1: build the coreset exactly once.
    let coreset: WeightedCoreset<Euclidean, S> = match args.builder {
        SweepBuilderChoice::Gonzalez => {
            // Automatic size: 20 representatives per requested center,
            // never more than the instance itself (clamp would panic when
            // k_max exceeds n — min/max keeps t in [1, n] instead).
            let t = if args.coreset_size > 0 {
                args.coreset_size
            } else {
                (20 * k_max).min(space.len()).max(1)
            };
            let mut config = GonzalezCoresetConfig::new(t)
                .with_machines(args.machines)
                .with_first_center(FirstCenter::Seeded(args.seed))
                .with_executor(executor);
            if let Some(faults) = faults {
                config = config.with_faults(faults);
            }
            config.build(&space)?
        }
        SweepBuilderChoice::Eim => {
            let mut config = EimConfig::new(k_max)
                .with_machines(args.machines)
                .with_epsilon(args.epsilon)
                .with_phi(phi_max)
                .with_seed(args.seed)
                .with_executor(executor);
            if let Some(faults) = faults {
                config = config.with_faults(faults);
            }
            config.build_coreset(&space)?
        }
    };
    let build_rounds = coreset.stats().num_rounds_labelled("coreset");
    let build_simulated = coreset.stats().simulated_time();
    let build_wall = coreset.stats().wall_time();
    writeln!(
        out,
        "coreset: builder {}, {} representatives covering {} points, construction radius {:.6}",
        coreset.builder().name(),
        coreset.len(),
        coreset.total_weight(),
        coreset.construction_radius(),
    )?;
    if coreset.is_partial() {
        writeln!(
            out,
            "PARTIAL CORESET: certificate covers {} of {} source points ({:.1}%); \
             all radii below speak only for the surviving subset",
            coreset.coverage().covered_source_len,
            coreset.source_len(),
            coreset.coverage_fraction() * 100.0,
        )?;
        for shard in &coreset.coverage().dropped_shards {
            writeln!(out, "  dropped: {shard}")?;
        }
    }
    writeln!(
        out,
        "coreset built once: {build_rounds} MapReduce rounds, simulated {}, wall {} on {}",
        format_ms(build_simulated),
        format_ms(build_wall),
        executor,
    )?;

    // ---- Phase 2: one cheap weighted solve per k, charged to the same
    // accounting so the round labels prove the build was not repeated.
    let mut stats: JobStats = coreset.stats().clone();
    let mut solve_cluster =
        Cluster::unchecked(ClusterConfig::new(args.machines, coreset.len().max(1)))
            .with_executor(executor);
    let mut per_k: Vec<(usize, CoresetSolution, f64)> = Vec::with_capacity(args.ks.len());
    for &k in &args.ks {
        let sol = coreset.solve_on_cluster(
            k,
            SequentialSolver::Gonzalez,
            FirstCenter::Seeded(args.seed),
            &mut solve_cluster,
            &format!("sweep solve k={k}"),
        )?;
        // For a partial coreset the certificate only speaks for the
        // surviving points, so certify over exactly that subset.
        let certified = coreset.certify_covered(&space, &sol);
        per_k.push((k, sol, certified));
    }
    let solve_stats = solve_cluster.into_stats();
    let solve_simulated = solve_stats.simulated_time();
    stats.extend(solve_stats);

    // ---- Phase 3: the grid report, with optional per-cell EIM reruns.
    let mut baseline_simulated = Duration::ZERO;
    let scope = if coreset.is_partial() {
        " over survivors"
    } else {
        ""
    };
    for (k, sol, certified) in &per_k {
        for &phi in &args.phis {
            let coreset_cell = format!(
                "k={k:>4} phi={phi:>4}: certified radius{scope} {certified:.6} (coreset {:.6}, bound {:.6})",
                sol.coreset_radius, sol.radius_bound
            );
            if args.baseline {
                let rerun = EimConfig::new(*k)
                    .with_machines(args.machines)
                    .with_epsilon(args.epsilon)
                    .with_phi(phi)
                    .with_seed(args.seed)
                    .run(&space)?;
                baseline_simulated += rerun.stats.simulated_time();
                writeln!(
                    out,
                    "{coreset_cell} | eim rerun radius {:.6}, simulated {}",
                    rerun.solution.radius,
                    format_ms(rerun.stats.simulated_time()),
                )?;
            } else {
                writeln!(out, "{coreset_cell}")?;
            }
        }
    }

    // ---- Summary: the build-once/solve-many amortisation.
    let cells = args.ks.len() * args.phis.len();
    let sweep_total = build_simulated + solve_simulated;
    writeln!(
        out,
        "sweep-via-coreset: build {} + {} solves {} = simulated {} for {cells} cells",
        format_ms(build_simulated),
        per_k.len(),
        format_ms(solve_simulated),
        format_ms(sweep_total),
    )?;
    if args.baseline {
        let speedup = baseline_simulated.as_secs_f64() / sweep_total.as_secs_f64().max(1e-9);
        writeln!(
            out,
            "per-cell EIM reruns: simulated {} for {cells} cells -> sweep speedup {speedup:.2}x",
            format_ms(baseline_simulated),
        )?;
    }
    writeln!(
        out,
        "round accounting ({} rounds total, executor {executor}):",
        stats.num_rounds()
    )?;
    for round in stats.rounds() {
        writeln!(
            out,
            "  round {}: {} ({} machines, {} items, simulated {}, wall {})",
            round.round + 1,
            round.label,
            round.machines_used,
            round.items_in,
            format_ms(round.simulated_time),
            format_ms(round.wall_time),
        )?;
    }
    report_fault_log(&stats, out)?;
    Ok(())
}

fn ingest<W: Write>(args: &IngestArgs, out: &mut W) -> Result<(), CommandError> {
    let dispatch = install(&args.run, out)?;
    match args.run.precision {
        Precision::F64 => ingest_at::<f64, W>(args, dispatch, out)?,
        Precision::F32 => ingest_at::<f32, W>(args, dispatch, out)?,
    }
    report_assign_scans(out)
}

/// The fault-arm label stamped into the ingest report cell: the twin and
/// the killed-then-resumed run must produce the *same* label (kill flags
/// are deliberately excluded), so their reports diff cell-for-cell.
fn ingest_fault_label(faults: &FaultArgs) -> String {
    let mut label = match (&faults.plan_file, faults.fault_seed) {
        (Some(_), _) => "fault-plan".to_string(),
        (None, Some(seed)) => format!("fault-seed-{seed}"),
        (None, None) => "fault-free".to_string(),
    };
    if let Some(attempts) = faults.max_attempts {
        label.push_str(&format!("+attempts-{attempts}"));
    }
    if faults.degrade {
        label.push_str("+degrade");
    }
    label
}

fn ingest_at<S: Scalar, W: Write>(
    args: &IngestArgs,
    dispatch: Dispatch,
    out: &mut W,
) -> Result<(), CommandError> {
    let faults = build_fault_config(&args.run.faults)?;
    let config = IngestConfig {
        stream: StreamConfig {
            spec: args.spec.clone(),
            seed: args.seed,
            batches: args.batches,
        },
        t: args.coreset_size,
        budget: args.budget,
        machines: args.machines,
        faults,
        executor: dispatch.executor,
        solve_k: args.k,
        kill: args.kill,
    };
    let ingestor: Ingestor<Euclidean, S> = Ingestor::new(config, Path::new(&args.checkpoint))?;
    writeln!(
        out,
        "ingest {} as {} batches, seed {}, {} storage, checkpoint {}",
        args.spec.describe(),
        args.batches,
        args.seed,
        S::NAME,
        args.checkpoint,
    )?;
    let cell: SnapshotCell<Euclidean, S> = SnapshotCell::new();
    let outcome = match ingestor.run_with_cell(Some(&cell)) {
        Ok(outcome) => outcome,
        Err(IngestError::Killed { batch, stage }) => {
            // The injected crash is an *expected* outcome of a kill-point
            // run, not a failure: report it and exit cleanly so CI can
            // script kill-then-resume without parsing exit codes.
            writeln!(out, "INGEST KILLED at batch {batch} ({})", stage.name())?;
            writeln!(
                out,
                "restart with the same flags (minus --kill-after-batch) to resume from {}",
                args.checkpoint,
            )?;
            return Ok(());
        }
        Err(e) => return Err(e.into()),
    };

    match outcome.resumed_from {
        Some(done) => writeln!(
            out,
            "resumed from checkpoint: {done} of {} batches already folded, {} folded now",
            args.batches, outcome.batches_folded,
        )?,
        None => writeln!(
            out,
            "folded {} batches from scratch",
            outcome.batches_folded
        )?,
    }
    let coreset = &outcome.coreset;
    writeln!(
        out,
        "accumulated coreset: {} representatives covering {} points ({:.1}% coverage), construction radius {:.6}",
        coreset.len(),
        coreset.total_weight(),
        coreset.coverage_fraction() * 100.0,
        coreset.construction_radius(),
    )?;
    writeln!(
        out,
        "cumulative accounting: {} MapReduce rounds, re-ingested {} points from {} dropped shards",
        outcome.meta.rounds, outcome.meta.reingested_points, outcome.meta.reingested_shards,
    )?;

    // Final solution + full-stream certification for the report columns.
    let k = args.k.min(coreset.len());
    let solution = coreset.solve(k, SequentialSolver::Gonzalez, FirstCenter::default())?;
    let full = ingestor.stream().full_space();
    let certified = solution.certify(&full);
    writeln!(
        out,
        "certified covering radius {certified:.6} (coreset {:.6}, bound {:.6})",
        solution.coreset_radius, solution.radius_bound,
    )?;
    writeln!(out, "centers (source ids): {:?}", solution.centers)?;

    let snapshot = cell.load();
    writeln!(
        out,
        "published snapshot v{} ({} centers, digest {:016x})",
        snapshot.version(),
        snapshot.k(),
        snapshot.digest(),
    )?;
    for query in &args.queries {
        match snapshot.query(query) {
            Some(ans) => writeln!(
                out,
                "query {query:?} -> center {} (index {}) at distance {:.6}, bound {:.6}, snapshot v{}",
                ans.center, ans.index, ans.distance, ans.radius_bound, ans.version,
            )?,
            None => writeln!(
                out,
                "query {query:?} -> no answer (snapshot is empty or the dimension differs)",
            )?,
        }
    }

    if let Some(path) = &args.report {
        // A single-cell scenario report: the deterministic columns (radius,
        // centers, digest, rounds, coverage) are gated exactly by
        // `report_diff`; the timing columns are measurements and stay
        // ungated unless a tolerance is requested.  The cell id excludes
        // the kill flags so a killed-then-resumed run diffs cleanly
        // against its uninterrupted twin.
        let id = format!(
            "ingest-{}-n{}-b{}-t{}-g{}-m{}-{}-{}",
            args.spec.family().to_ascii_lowercase().replace(' ', "-"),
            args.spec.n(),
            args.batches,
            args.coreset_size,
            args.budget,
            args.machines,
            S::NAME,
            ingest_fault_label(&args.run.faults),
        );
        let report = ScenarioReport {
            scenario: "ingest".to_string(),
            seed: args.seed,
            k: args.k,
            cells: vec![CellResult {
                id,
                dataset: args.spec.describe(),
                n: args.spec.n(),
                solver: "ingest-gonzalez".to_string(),
                precision: S::NAME.to_string(),
                kernel: dispatch.kernel.to_string(),
                assign: dispatch.assign.to_string(),
                executor: dispatch.executor.to_string(),
                distance: "euclidean".to_string(),
                z: 0,
                fault: ingest_fault_label(&args.run.faults),
                radius: certified,
                kept_radius: certified,
                centers: solution.centers.len(),
                coverage: coreset.coverage_fraction(),
                rounds: outcome.meta.rounds as usize,
                simulated_ns: outcome.meta.simulated_ns,
                wall_ns: 0,
                digest: center_digest(&solution.centers),
            }],
        };
        std::fs::write(path, report.to_json())?;
        writeln!(out, "wrote ingest report to {path}")?;
    }
    Ok(())
}

fn info<W: Write>(args: &InfoArgs, out: &mut W) -> Result<(), CommandError> {
    let space = load_space::<f64>(&args.input, args.skip_columns)?;
    writeln!(out, "file: {}", args.input)?;
    writeln!(out, "points: {}", space.len())?;
    writeln!(out, "dimension: {}", space.dim().unwrap_or(0))?;
    if let Some(bbox) = BoundingBox::par_of_flat(space.flat()) {
        writeln!(out, "bounding box diagonal: {:.6}", bbox.diagonal())?;
        writeln!(out, "bounding box min: {:?}", bbox.min())?;
        writeln!(out, "bounding box max: {:?}", bbox.max())?;
    }
    // Cheap diameter estimate: two passes of the farthest-point heuristic.
    // Both ranges are non-empty under the len >= 2 guard; the `if let`
    // keeps a future refactor from turning that into a panic.
    if space.len() >= 2 {
        if let Some(far1) =
            (1..space.len()).max_by(|&a, &b| space.distance(0, a).total_cmp(&space.distance(0, b)))
        {
            if let Some(far2) = (0..space.len())
                .max_by(|&a, &b| space.distance(far1, a).total_cmp(&space.distance(far1, b)))
            {
                writeln!(
                    out,
                    "diameter estimate (double sweep): {:.6}",
                    space.distance(far1, far2)
                )?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn run_cli(cmdline: &str) -> Result<String, CommandError> {
        let cli = parse(&argv(cmdline)).expect("command line should parse");
        let mut out = Vec::new();
        run(&cli, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    fn temp_path(name: &str) -> String {
        let dir = std::env::temp_dir().join("kcenter-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    /// Serialises tests that are sensitive to the process-global kernel
    /// dispatch table: `install` sets a backend on every solve, sweep and
    /// ingest, so a test that pins non-default backends must not
    /// interleave with one comparing radii across runs.
    fn kernel_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
        match LOCK.get_or_init(|| std::sync::Mutex::new(())).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn help_prints_usage() {
        let out = run_cli("help").unwrap();
        assert!(out.contains("kcenter"));
        assert!(out.contains("solve"));
    }

    #[test]
    fn generate_then_info_then_solve_round_trip() {
        let csv = temp_path("gau.csv");
        let out = run_cli(&format!(
            "generate gau --n 800 --k-prime 4 --seed 2 --out {csv}"
        ))
        .unwrap();
        assert!(out.contains("800 points"));

        let info = run_cli(&format!("info --input {csv}")).unwrap();
        assert!(info.contains("points: 800"));
        assert!(info.contains("dimension: 3"));
        assert!(info.contains("diameter estimate"));

        let solved = run_cli(&format!("solve gon --input {csv} --k 4")).unwrap();
        assert!(solved.contains("covering radius"));
        assert!(solved.contains("GON"));
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn solve_mrg_reports_rounds_and_writes_assignment() {
        let csv = temp_path("unif.csv");
        let assignment = temp_path("assignment.csv");
        run_cli(&format!("generate unif --n 600 --seed 1 --out {csv}")).unwrap();
        let out = run_cli(&format!(
            "solve mrg --input {csv} --k 5 --machines 6 --assign-out {assignment}"
        ))
        .unwrap();
        assert!(out.contains("MRG on 6 machines"));
        assert!(out.contains("MapReduce rounds"));
        assert!(out.contains("wrote assignment of 600 points"));
        let written = std::fs::read_to_string(&assignment).unwrap();
        assert!(written.starts_with("point,center_index,center_point_id"));
        assert_eq!(written.lines().count(), 601);
        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&assignment).ok();
    }

    #[test]
    fn solve_with_outliers_reports_the_kept_radius_and_dropped_ids() {
        let csv = temp_path("planted.csv");
        run_cli(&format!(
            "generate gau+out --n 600 --k-prime 4 --outliers 12 --seed 9 --out {csv}"
        ))
        .unwrap();
        let out = run_cli(&format!("solve gon --input {csv} --k 4 --outliers 12")).unwrap();
        assert!(out.contains("with-outliers objective (z = 12)"));
        assert!(out.contains("kept radius"));
        assert!(out.contains("over 588 points"));
        assert!(out.contains("dropped point ids (farthest first):"));
        // The plain certified radius is still reported alongside.
        assert!(out.contains("covering radius (solution value):"));
        // z = 0 stays silent: no outlier lines without the flag.
        let plain = run_cli(&format!("solve gon --input {csv} --k 4")).unwrap();
        assert!(!plain.contains("with-outliers"));
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn generate_writes_the_adversarial_families() {
        for fam in ["exp", "dup", "gau-hd"] {
            let csv = temp_path(&format!("{fam}.csv"));
            let out = run_cli(&format!("generate {fam} --n 150 --seed 4 --out {csv}")).unwrap();
            assert!(out.contains("150 points"), "{fam}: {out}");
            let info = run_cli(&format!("info --input {csv}")).unwrap();
            assert!(info.contains("points: 150"), "{fam}: {info}");
            std::fs::remove_file(&csv).ok();
        }
    }

    #[test]
    fn solve_eim_and_hs_work_on_small_files() {
        let csv = temp_path("poker.csv");
        run_cli(&format!("generate poker --n 300 --seed 3 --out {csv}")).unwrap();
        let eim = run_cli(&format!(
            "solve eim --input {csv} --k 3 --machines 4 --phi 4 --seed 7"
        ))
        .unwrap();
        assert!(eim.contains("EIM (phi = 4"));
        let hs = run_cli(&format!("solve hs --input {csv} --k 3")).unwrap();
        assert!(hs.contains("Hochbaum-Shmoys"));
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn solve_reports_the_kernel_backend_and_names_unavailable_ones() {
        let _guard = kernel_lock();
        let csv = temp_path("kernel.csv");
        run_cli(&format!("generate unif --n 200 --seed 5 --out {csv}")).unwrap();
        // Pinning the scalar backend always works and is reported.
        let out = run_cli(&format!("solve gon --input {csv} --k 3 --kernel scalar")).unwrap();
        assert!(out.contains("kernel backend: scalar"));
        // The portable backend compiles everywhere.
        let out = run_cli(&format!("solve gon --input {csv} --k 3 --kernel portable")).unwrap();
        assert!(out.contains("kernel backend: portable"));
        // `auto` resolves to whatever this build supports.
        let out = run_cli(&format!("solve gon --input {csv} --k 3 --kernel auto")).unwrap();
        assert!(out.contains("kernel backend: "));
        // Requesting avx2 in a build/machine without it is the named error,
        // not a panic deep inside a scan.
        let avx2 = run_cli(&format!("solve gon --input {csv} --k 3 --kernel avx2"));
        if kcenter_metric::KernelBackend::Avx2.is_available() {
            assert!(avx2.unwrap().contains("kernel backend: avx2"));
        } else {
            let err = avx2.unwrap_err();
            assert!(matches!(
                err,
                CommandError::Algorithm(KCenterError::InvalidParameter { name: "kernel", .. })
            ));
            assert!(err.to_string().contains("avx2"));
        }
        // Restore the default for the rest of the suite.
        simd::set_active(KernelChoice::Auto.resolve().unwrap()).unwrap();
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn solve_reports_the_assignment_arm_and_scan_accounting() {
        // `install` sets a process-global assign choice, like the kernel
        // dispatch table — serialise with the other dispatch-pinning tests.
        let _guard = kernel_lock();
        let csv = temp_path("assign-arm.csv");
        run_cli(&format!("generate unif --n 400 --seed 4 --out {csv}")).unwrap();
        // Pinned dense: everything runs on the dense arm.
        let out = run_cli(&format!("solve gon --input {csv} --k 4 --assign dense")).unwrap();
        assert!(out.contains("assignment arm: dense"));
        assert!(out.contains("assignment scans: 0 grid"));
        // Pinned grid: the arm is reported and the scan accounting line is
        // printed (exact counts are asserted in the core parity suite —
        // concurrent tests share the process-global counters, so only the
        // "no grid scans under a dense pin" direction is race-free here).
        let grid_out = run_cli(&format!("solve gon --input {csv} --k 4 --assign grid")).unwrap();
        assert!(grid_out.contains("assignment arm: grid"));
        assert!(grid_out.contains("assignment scans: "));
        let radius_of = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("covering radius"))
                .unwrap()
                .to_owned()
        };
        assert_eq!(radius_of(&out), radius_of(&grid_out));
        // `auto` is the default and is reported as such.
        let out = run_cli(&format!("solve gon --input {csv} --k 4")).unwrap();
        assert!(out.contains("assignment arm: auto"));
        // Restore the default for the rest of the suite.
        grid::set_choice(AssignChoice::Auto);
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn solve_with_f32_precision_reports_storage_and_matches_f64_closely() {
        // Radius-comparing test: keep the kernel backend stable across the
        // two runs (see `kernel_lock`).
        let _guard = kernel_lock();
        let csv = temp_path("precision.csv");
        run_cli(&format!("generate unif --n 500 --seed 4 --out {csv}")).unwrap();
        let f64_out = run_cli(&format!("solve gon --input {csv} --k 4")).unwrap();
        let f32_out = run_cli(&format!("solve gon --input {csv} --k 4 --precision f32")).unwrap();
        assert!(f64_out.contains("(f64 storage)"));
        assert!(f32_out.contains("(f32 storage)"));
        let radius = |s: &str| -> f64 {
            s.lines()
                .find(|l| l.starts_with("covering radius"))
                .and_then(|l| l.rsplit(' ').next())
                .unwrap()
                .parse()
                .unwrap()
        };
        let (r64, r32) = (radius(&f64_out), radius(&f32_out));
        // Same geometry up to the one-time f32 input rounding.
        assert!(
            (r64 - r32).abs() <= 1e-3 * (1.0 + r64),
            "f32 radius {r32} strays from f64 radius {r64}"
        );
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn f32_precision_rejects_oversized_coordinates_with_a_named_error() {
        let csv = temp_path("huge.csv");
        std::fs::write(&csv, "1e19,0.0\n0.0,1.0\n").unwrap();
        // Fine at f64 …
        run_cli(&format!("solve gon --input {csv} --k 1")).unwrap();
        // … named error (no panic) at f32, where its square would overflow.
        let err = run_cli(&format!("solve gon --input {csv} --k 1 --precision f32")).unwrap_err();
        assert!(matches!(
            err,
            CommandError::Algorithm(KCenterError::InvalidParameter {
                name: "precision",
                ..
            })
        ));
        assert!(err.to_string().contains("f64"));
        // The limit itself is storable; just past it the value still rounds
        // to an f32 below 1e15, so the check must run before narrowing.
        std::fs::write(&csv, "1e15,0.0\n0.0,1.0\n").unwrap();
        run_cli(&format!("solve gon --input {csv} --k 1 --precision f32")).unwrap();
        assert!(f64::from(1.00000001e15f64 as f32) <= 1e15);
        std::fs::write(&csv, "0.0,1.0\n1.00000001e15,0.0\n").unwrap();
        let err = run_cli(&format!("solve gon --input {csv} --k 1 --precision f32")).unwrap_err();
        assert!(matches!(
            err,
            CommandError::Algorithm(KCenterError::InvalidParameter {
                name: "precision",
                ..
            })
        ));
        assert!(err.to_string().contains(
            "coordinate 1000000010000000 exceeds the f32 storage limit 1e15; \
             rerun with --precision f64"
        ));
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn sweep_builds_one_coreset_and_reports_the_grid() {
        let out = run_cli(
            "sweep --family gau --n 3000 --k-prime 5 --ks 2,3,5 --phis 1,4,8 \
             --machines 6 --epsilon 0.13 --seed 2 --coreset-size 60",
        )
        .unwrap();
        // One build, visible in the accounting.
        assert!(out.contains("coreset built once: 3 MapReduce rounds"));
        assert!(out.contains("builder gonzalez, 60 representatives covering 3000 points"));
        // 3x3 = 9 grid cells, each with a certified radius and a baseline.
        assert_eq!(out.matches("certified radius").count(), 9);
        assert_eq!(out.matches("eim rerun radius").count(), 9);
        assert!(out.contains("sweep speedup"));
        // One solve round per k rides next to the three build rounds.
        assert_eq!(out.matches("sweep solve k=").count(), 3);
        assert_eq!(out.matches("coreset round").count(), 3);
    }

    #[test]
    fn sweep_supports_the_eim_builder_and_f32_without_baseline() {
        let out = run_cli(
            "sweep --family unif --n 3000 --ks 2,3 --phis 4,8 --builder eim \
             --machines 6 --epsilon 0.13 --seed 1 --precision f32 --baseline off",
        )
        .unwrap();
        assert!(out.contains("(f32 storage)"));
        assert!(out.contains("builder eim"));
        assert!(out.contains("covering 3000 points"));
        assert_eq!(out.matches("certified radius").count(), 4);
        assert!(!out.contains("eim rerun radius"));
        assert!(out.contains("sweep-via-coreset"));
    }

    #[test]
    fn sweep_with_k_beyond_the_instance_size_does_not_panic() {
        // The automatic coreset size must cap at n, not assert on clamp
        // bounds; with k >= n the solve returns every representative.
        let out =
            run_cli("sweep --family unif --n 50 --ks 60 --phis 8 --machines 4 --baseline off")
                .unwrap();
        assert!(out.contains("50 representatives covering 50 points"));
        assert!(out.contains("certified radius 0.000000"));
    }

    #[test]
    fn sweep_reads_csv_input_like_solve() {
        let csv = temp_path("sweep.csv");
        run_cli(&format!("generate unif --n 800 --seed 5 --out {csv}")).unwrap();
        let out = run_cli(&format!(
            "sweep --input {csv} --ks 2,4 --phis 8 --machines 4 --baseline off"
        ))
        .unwrap();
        assert!(out.contains("sweep over 800 points"));
        assert_eq!(out.matches("certified radius").count(), 2);
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn missing_input_file_is_a_csv_error() {
        let err = run_cli("solve gon --input /definitely/not/there.csv --k 2").unwrap_err();
        assert!(matches!(err, CommandError::Csv(_)));
        assert!(err.to_string().contains("CSV error"));
    }

    #[test]
    fn algorithm_errors_are_reported() {
        let csv = temp_path("tiny.csv");
        run_cli(&format!("generate unif --n 5 --seed 1 --out {csv}")).unwrap();
        // k = 0 is rejected by the algorithm layer.
        let err = run_cli(&format!("solve gon --input {csv} --k 0")).unwrap_err();
        assert!(matches!(err, CommandError::Algorithm(KCenterError::ZeroK)));
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn faulty_solve_reports_the_log_and_matches_the_fault_free_radius() {
        let _guard = kernel_lock();
        let csv = temp_path("faults.csv");
        run_cli(&format!(
            "generate gau --n 1200 --k-prime 4 --seed 6 --out {csv}"
        ))
        .unwrap();
        let clean = run_cli(&format!("solve mrg --input {csv} --k 4 --machines 8")).unwrap();
        let faulty = run_cli(&format!(
            "solve mrg --input {csv} --k 4 --machines 8 --fault-seed 1234 --max-attempts 64"
        ))
        .unwrap();
        // The fault log is printed next to the round accounting...
        assert!(faulty.contains("fault injection:"));
        assert!(faulty.contains("attempts"));
        // ...and the result is bit-identical to the fault-free run.
        let tail = |s: &str| -> String {
            s.lines()
                .filter(|l| l.starts_with("covering radius") || l.starts_with("centers"))
                .collect()
        };
        assert_eq!(tail(&clean), tail(&faulty));
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn threaded_executor_is_reported_and_matches_the_simulated_output() {
        let _guard = kernel_lock();
        let csv = temp_path("executor.csv");
        run_cli(&format!(
            "generate gau --n 1500 --k-prime 4 --seed 9 --out {csv}"
        ))
        .unwrap();
        let simulated = run_cli(&format!("solve mrg --input {csv} --k 4 --machines 8")).unwrap();
        assert!(simulated.contains("cluster executor: simulated"));
        let threaded = run_cli(&format!(
            "solve mrg --input {csv} --k 4 --machines 8 --executor threads --threads 2"
        ))
        .unwrap();
        assert!(threaded.contains("cluster executor: threads(x2)"));
        assert!(threaded.contains("wall time"));
        // Bit-identical results — only the timing columns may differ.
        let tail = |s: &str| -> String {
            s.lines()
                .filter(|l| l.starts_with("covering radius") || l.starts_with("centers"))
                .collect()
        };
        assert_eq!(tail(&simulated), tail(&threaded));

        // The sweep reports the executor in its round accounting too.
        let sweep_out = run_cli(
            "sweep --family unif --n 1000 --ks 2 --phis 8 --machines 4 --seed 1 \
             --coreset-size 30 --baseline off --executor threads --threads 2",
        )
        .unwrap();
        assert!(sweep_out.contains("cluster executor: threads(x2)"));
        assert!(sweep_out.contains("executor threads(x2)"));
        assert!(sweep_out.contains("wall"));
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn executor_flag_rejects_unknown_env_free_values() {
        let csv = temp_path("badexec.csv");
        run_cli(&format!("generate unif --n 50 --seed 2 --out {csv}")).unwrap();
        let err = parse(&argv(&format!(
            "solve gon --input {csv} --k 2 --executor quantum"
        )))
        .unwrap_err();
        assert!(err.to_string().contains("quantum"));
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn fault_plan_files_load_and_degrade_discloses_partial_coverage() {
        let _guard = kernel_lock();
        let csv = temp_path("degrade.csv");
        let plan = temp_path("plan.txt");
        run_cli(&format!("generate unif --n 1000 --seed 7 --out {csv}")).unwrap();
        // Machine 2 of round 0 dies on both allowed attempts.
        std::fs::write(
            &plan,
            "# kcenter fault plan v1\n\
             fault round=0 machine=2 attempt=0 kind=crash\n\
             fault round=0 machine=2 attempt=1 kind=crash\n",
        )
        .unwrap();
        // Without degrade mode the run fails with shard provenance.
        let err = run_cli(&format!(
            "solve mrg --input {csv} --k 3 --machines 10 --fault-plan {plan} --max-attempts 2"
        ))
        .unwrap_err();
        assert!(err.to_string().contains("round 0"));
        assert!(err.to_string().contains("machine 2"));
        // With degrade mode the run succeeds and discloses partial coverage.
        let out = run_cli(&format!(
            "solve mrg --input {csv} --k 3 --machines 10 --fault-plan {plan} \
             --max-attempts 2 --degrade on"
        ))
        .unwrap();
        assert!(out.contains("DEGRADED RESULT: certificate covers 900 of 1000 points (90.0%)"));
        assert!(out.contains("covering radius over the surviving subset"));
        assert!(out.contains("dropped:"));
        assert!(!out.contains("covering radius (solution value)"));
        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&plan).ok();
    }

    #[test]
    fn malformed_fault_plans_and_sequential_solvers_are_named_errors() {
        let csv = temp_path("badplan.csv");
        let plan = temp_path("badplan.txt");
        run_cli(&format!("generate unif --n 50 --seed 8 --out {csv}")).unwrap();
        std::fs::write(&plan, "fault round=0 machine=zero attempt=0 kind=crash\n").unwrap();
        let err = run_cli(&format!(
            "solve mrg --input {csv} --k 2 --fault-plan {plan}"
        ))
        .unwrap_err();
        assert!(matches!(
            err,
            CommandError::Algorithm(KCenterError::InvalidParameter {
                name: "fault-plan",
                ..
            })
        ));
        // A missing plan file names the flag and the path, not a panic.
        let err = run_cli(&format!(
            "solve mrg --input {csv} --k 2 --fault-plan /not/there.txt"
        ))
        .unwrap_err();
        assert!(matches!(
            err,
            CommandError::Algorithm(KCenterError::InvalidParameter {
                name: "fault-plan",
                ..
            })
        ));
        assert!(err.to_string().contains("/not/there.txt"));
        // The plan is read before the input: with both missing, the plan
        // error is the one reported.
        for cmd in [
            "solve mrg --input /not/there.csv --k 2",
            "sweep --input /not/there.csv --ks 2 --phis 4",
        ] {
            let err = run_cli(&format!("{cmd} --fault-plan /not/there.txt")).unwrap_err();
            assert!(
                matches!(
                    err,
                    CommandError::Algorithm(KCenterError::InvalidParameter {
                        name: "fault-plan",
                        ..
                    })
                ),
                "{cmd}: {err}"
            );
            assert!(err.to_string().contains("/not/there.txt"), "{cmd}: {err}");
        }
        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&plan).ok();
    }

    #[test]
    fn ingest_folds_a_stream_answers_queries_and_writes_a_report() {
        let _guard = kernel_lock();
        let ckpt = temp_path("ingest-basic.ckpt");
        let report = temp_path("ingest-basic.json");
        std::fs::remove_file(&ckpt).ok();
        let out = run_cli(&format!(
            "ingest --family gau --n 400 --k-prime 4 --seed 33 --batches 4 \
             --coreset-size 16 --budget 40 --machines 4 --k 4 --checkpoint {ckpt} \
             --query 0,0,0 --query 50,50,50 --report {report}"
        ))
        .unwrap();
        assert!(out.contains("ingest GAU"));
        assert!(out.contains("folded 4 batches from scratch"));
        assert!(out.contains("(100.0% coverage)"));
        assert!(out.contains("certified covering radius"));
        assert!(out.contains("published snapshot v4"));
        assert_eq!(out.matches("at distance").count(), 2);
        assert!(out.contains("snapshot v4"));
        // The report round-trips through the scenario-report parser and
        // carries the deterministic columns report_diff gates on.
        let parsed = ScenarioReport::from_json(&std::fs::read_to_string(&report).unwrap()).unwrap();
        assert_eq!(parsed.scenario, "ingest");
        assert_eq!(parsed.cells.len(), 1);
        let cell = &parsed.cells[0];
        assert_eq!(cell.id, "ingest-gau-n400-b4-t16-g40-m4-f64-fault-free");
        assert_eq!(cell.solver, "ingest-gonzalez");
        assert_eq!(cell.centers, 4);
        assert_eq!(cell.coverage, 1.0);
        assert!(cell.radius > 0.0);
        assert_eq!(cell.digest.len(), 16);
        // A second run resumes from the complete checkpoint: zero new
        // folds, but the same final state, snapshot, and report columns.
        let report2 = temp_path("ingest-basic2.json");
        let again = run_cli(&format!(
            "ingest --family gau --n 400 --k-prime 4 --seed 33 --batches 4 \
             --coreset-size 16 --budget 40 --machines 4 --k 4 --checkpoint {ckpt} \
             --report {report2}"
        ))
        .unwrap();
        assert!(again.contains("resumed from checkpoint: 4 of 4 batches already folded"));
        let parsed2 =
            ScenarioReport::from_json(&std::fs::read_to_string(&report2).unwrap()).unwrap();
        let strip_timing = |c: &CellResult| {
            let mut c = c.clone();
            c.simulated_ns = 0;
            c.wall_ns = 0;
            c
        };
        assert_eq!(strip_timing(cell), strip_timing(&parsed2.cells[0]));
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(&report).ok();
        std::fs::remove_file(&report2).ok();
    }

    #[test]
    fn killed_ingest_exits_cleanly_and_resumes_to_the_twin_report() {
        let _guard = kernel_lock();
        let twin_ckpt = temp_path("ingest-twin.ckpt");
        let twin_report = temp_path("ingest-twin.json");
        let ckpt = temp_path("ingest-killed.ckpt");
        let report = temp_path("ingest-killed.json");
        std::fs::remove_file(&twin_ckpt).ok();
        std::fs::remove_file(&ckpt).ok();
        let flags = "ingest --family gau --n 400 --k-prime 4 --seed 33 --batches 5 \
                     --coreset-size 16 --budget 40 --machines 4 --k 4";
        let twin = run_cli(&format!(
            "{flags} --checkpoint {twin_ckpt} --report {twin_report}"
        ))
        .unwrap();
        assert!(twin.contains("folded 5 batches from scratch"));
        // The kill is a clean, reported exit — not an error.
        let killed = run_cli(&format!(
            "{flags} --checkpoint {ckpt} --kill-after-batch 2 --kill-stage during-checkpoint"
        ))
        .unwrap();
        assert!(killed.contains("INGEST KILLED at batch 2 (during-checkpoint)"));
        assert!(killed.contains("restart with the same flags"));
        // Resume without the kill flags: same cell id, same deterministic
        // columns as the uninterrupted twin.
        let resumed = run_cli(&format!("{flags} --checkpoint {ckpt} --report {report}")).unwrap();
        assert!(resumed.contains("resumed from checkpoint: 2 of 5"));
        let twin_parsed =
            ScenarioReport::from_json(&std::fs::read_to_string(&twin_report).unwrap()).unwrap();
        let parsed = ScenarioReport::from_json(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let strip_timing = |c: &CellResult| {
            let mut c = c.clone();
            c.simulated_ns = 0;
            c.wall_ns = 0;
            c
        };
        assert_eq!(
            strip_timing(&twin_parsed.cells[0]),
            strip_timing(&parsed.cells[0])
        );
        std::fs::remove_file(&twin_ckpt).ok();
        std::fs::remove_file(&twin_report).ok();
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(&report).ok();
    }

    #[test]
    fn ingest_refuses_a_checkpoint_from_another_configuration() {
        let ckpt = temp_path("ingest-mismatch.ckpt");
        std::fs::remove_file(&ckpt).ok();
        run_cli(&format!(
            "ingest --family gau --n 400 --k-prime 4 --seed 33 --batches 4 \
             --coreset-size 16 --k 4 --checkpoint {ckpt}"
        ))
        .unwrap();
        let err = run_cli(&format!(
            "ingest --family gau --n 400 --k-prime 4 --seed 34 --batches 4 \
             --coreset-size 16 --k 4 --checkpoint {ckpt}"
        ))
        .unwrap_err();
        assert!(matches!(
            err,
            CommandError::Ingest(IngestError::ConfigMismatch { .. })
        ));
        assert!(err.to_string().contains("different configuration"));
        // A corrupted checkpoint is a named format error, not a panic.
        let mut bytes = std::fs::read(&ckpt).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&ckpt, &bytes).unwrap();
        let err = run_cli(&format!(
            "ingest --family gau --n 400 --k-prime 4 --seed 33 --batches 4 \
             --coreset-size 16 --k 4 --checkpoint {ckpt}"
        ))
        .unwrap_err();
        assert!(matches!(
            err,
            CommandError::Ingest(IngestError::Checkpoint(_))
        ));
        assert!(err.to_string().contains("checksum"));
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn faulty_sweep_logs_faults_and_partial_builds_mark_every_cell() {
        let _guard = kernel_lock();
        // Retried-to-success sweep: identical grid radii, visible fault log.
        let clean = run_cli(
            "sweep --family gau --n 2000 --k-prime 4 --ks 2,4 --phis 8 --machines 8 \
             --seed 3 --coreset-size 40 --baseline off",
        )
        .unwrap();
        let faulty = run_cli(
            "sweep --family gau --n 2000 --k-prime 4 --ks 2,4 --phis 8 --machines 8 \
             --seed 3 --coreset-size 40 --baseline off --fault-seed 99 --max-attempts 64",
        )
        .unwrap();
        assert!(faulty.contains("fault injection:"));
        let cells = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.contains("certified radius"))
                .map(String::from)
                .collect()
        };
        assert_eq!(cells(&clean), cells(&faulty));

        // Degraded sweep: the build drops a shard and every cell is marked.
        let plan = temp_path("sweepplan.txt");
        std::fs::write(
            &plan,
            "fault round=0 machine=1 attempt=0 kind=crash\n\
             fault round=0 machine=1 attempt=1 kind=crash\n",
        )
        .unwrap();
        let out = run_cli(&format!(
            "sweep --family unif --n 1000 --ks 2 --phis 8 --machines 10 --seed 3 \
             --coreset-size 30 --baseline off --fault-plan {plan} --max-attempts 2 --degrade on"
        ))
        .unwrap();
        assert!(out.contains("PARTIAL CORESET: certificate covers 900 of 1000 source points"));
        assert!(out.contains("certified radius over survivors"));
        assert!(out.contains("dropped:"));
        std::fs::remove_file(&plan).ok();
    }
}
