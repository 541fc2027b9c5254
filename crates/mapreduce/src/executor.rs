//! Executor selection: how a [`crate::cluster::Cluster`] actually runs
//! the machines of a round.
//!
//! The paper simulates its parallel machines sequentially and charges each
//! round the slowest machine's processing time.  [`Executor::Simulated`]
//! reproduces exactly that: machines run one after another on the calling
//! thread, and only the *accounting* is parallel.  [`Executor::Threads`]
//! runs the same machines as `std::thread::scope` tasks (through the
//! real-threaded rayon stand-in) with a fixed worker budget.
//!
//! # Determinism contract
//!
//! The two executors are **output-invariant**: reducers are pure functions
//! of their partitions, attempt waves run in ascending partition order, and
//! the threaded fan-out merges results at their partition positions — so a
//! round returns bit-identical outputs under either executor, at any
//! thread count.  The determinism tuple of the workspace is therefore
//! `(seed, precision, kernel, assign)` with the executor explicitly *not*
//! a member.  Only the timing columns differ: the simulated clock
//! (`simulated_time`, charged backoff, straggler inflation) is identical
//! by construction, while `wall_time` measures whatever really elapsed.

use std::fmt;

/// Environment variable selecting the executor
/// (`KCENTER_EXECUTOR={simulated,threads}`); the CLI `--executor` flag
/// takes precedence.
pub const EXECUTOR_ENV: &str = "KCENTER_EXECUTOR";

/// Environment variable pinning the worker-thread budget
/// (`KCENTER_THREADS=N`, `N ≥ 1`); the CLI `--threads` flag takes
/// precedence.  Also consulted by the chunked `par_*` metric kernels via
/// the rayon stand-in's thread override.
pub const THREADS_ENV: &str = "KCENTER_THREADS";

/// How a cluster executes the machines of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Executor {
    /// The paper's mode: machines run sequentially on the calling thread;
    /// parallelism exists only in the per-round accounting.
    #[default]
    Simulated,
    /// Machines run concurrently as `std::thread::scope` tasks on a fixed
    /// worker budget, merged in ascending partition order.
    Threads {
        /// Worker-thread budget for each wave (at least 1).
        threads: usize,
    },
}

impl Executor {
    /// A threaded executor with the given worker budget (clamped to ≥ 1).
    pub fn threads(threads: usize) -> Executor {
        Executor::Threads {
            threads: threads.max(1),
        }
    }

    /// A threaded executor sized to the host's available parallelism.
    pub fn host_threads() -> Executor {
        Executor::threads(host_parallelism())
    }

    /// Short name for reports (`simulated` | `threads`).
    pub fn name(self) -> &'static str {
        match self {
            Executor::Simulated => "simulated",
            Executor::Threads { .. } => "threads",
        }
    }

    /// Worker-thread budget of this executor (1 for simulated).
    pub fn thread_count(self) -> usize {
        match self {
            Executor::Simulated => 1,
            Executor::Threads { threads } => threads.max(1),
        }
    }

    /// Whether rounds fan out over real threads.
    pub fn is_threaded(self) -> bool {
        matches!(self, Executor::Threads { .. })
    }
}

impl fmt::Display for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Executor::Simulated => write!(f, "simulated"),
            Executor::Threads { threads } => write!(f, "threads(x{threads})"),
        }
    }
}

/// Installs `threads` as the process-wide worker budget of the rayon
/// stand-in, so the chunked `par_*` distance kernels honour the same
/// `--threads` / [`THREADS_ENV`] budget as the cluster executor.  The
/// override only caps worker counts — `par_*` results are order-invariant
/// reductions, so outputs do not change.
pub fn install_thread_budget(threads: usize) {
    rayon::set_num_threads(threads.max(1));
}

/// The host's available parallelism (≥ 1).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// An executor *request* before the thread budget is resolved — what the
/// CLI `--executor` flag and [`EXECUTOR_ENV`] carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorChoice {
    /// Request the sequential simulated executor.
    #[default]
    Simulated,
    /// Request the threaded executor; the budget comes from `--threads` /
    /// [`THREADS_ENV`] / the host's available parallelism, in that order.
    Threads,
}

impl ExecutorChoice {
    /// Parses an executor name (`simulated` | `threads`, case-insensitive).
    pub fn parse(name: &str) -> Result<ExecutorChoice, ExecutorSelectError> {
        match name.to_ascii_lowercase().as_str() {
            "simulated" => Ok(ExecutorChoice::Simulated),
            "threads" => Ok(ExecutorChoice::Threads),
            _ => Err(ExecutorSelectError::UnknownExecutor { value: name.into() }),
        }
    }

    /// Reads the request from [`EXECUTOR_ENV`]; unset means `simulated`.
    pub fn from_env() -> Result<ExecutorChoice, ExecutorSelectError> {
        match std::env::var(EXECUTOR_ENV) {
            Ok(value) => ExecutorChoice::parse(&value),
            Err(_) => Ok(ExecutorChoice::Simulated),
        }
    }

    /// The name this request parses from.
    pub fn name(self) -> &'static str {
        match self {
            ExecutorChoice::Simulated => "simulated",
            ExecutorChoice::Threads => "threads",
        }
    }

    /// Resolves the request to a concrete executor.  `threads` is the
    /// already-resolved budget request (flag or env); `None` falls back to
    /// the host's available parallelism for the threaded executor.
    pub fn resolve(self, threads: Option<usize>) -> Executor {
        match self {
            ExecutorChoice::Simulated => Executor::Simulated,
            ExecutorChoice::Threads => match threads {
                Some(n) => Executor::threads(n),
                None => Executor::host_threads(),
            },
        }
    }
}

/// Reads the worker-thread budget from [`THREADS_ENV`]; unset means `None`.
pub fn threads_from_env() -> Result<Option<usize>, ExecutorSelectError> {
    match std::env::var(THREADS_ENV) {
        Ok(value) => match value.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(ExecutorSelectError::InvalidThreads { value }),
        },
        Err(_) => Ok(None),
    }
}

/// Why an executor request could not be honoured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecutorSelectError {
    /// The name is not one of `simulated` / `threads`.
    UnknownExecutor {
        /// The rejected value.
        value: String,
    },
    /// The thread budget is not a positive integer.
    InvalidThreads {
        /// The rejected value.
        value: String,
    },
}

impl fmt::Display for ExecutorSelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutorSelectError::UnknownExecutor { value } => {
                write!(f, "unknown executor '{value}' (expected simulated|threads)")
            }
            ExecutorSelectError::InvalidThreads { value } => {
                write!(
                    f,
                    "invalid thread count '{value}' (expected an integer >= 1)"
                )
            }
        }
    }
}

impl std::error::Error for ExecutorSelectError {}

/// Runs one wave of machine executions under `executor`, returning the
/// results in input order.
///
/// Simulated: a plain sequential loop on the calling thread — the honest
/// version of the paper's "simulate the parallel machines sequentially".
/// Threads: `std::thread::scope` fan-out with the executor's worker
/// budget; results land at their item's position, so the merge order is
/// the ascending input order no matter which worker finishes first.
pub(crate) fn run_wave<T, R, F>(executor: Executor, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    match executor {
        Executor::Simulated => items.into_iter().map(f).collect(),
        Executor::Threads { threads } => rayon::parallel_map_with_threads(items, threads, f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_papers_simulated_mode() {
        assert_eq!(Executor::default(), Executor::Simulated);
        assert_eq!(Executor::Simulated.thread_count(), 1);
        assert!(!Executor::Simulated.is_threaded());
    }

    #[test]
    fn thread_budget_is_clamped_to_one() {
        assert_eq!(Executor::threads(0), Executor::Threads { threads: 1 });
        assert_eq!(Executor::threads(4).thread_count(), 4);
        assert!(Executor::threads(4).is_threaded());
        assert!(Executor::host_threads().thread_count() >= 1);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(Executor::Simulated.to_string(), "simulated");
        assert_eq!(Executor::threads(3).to_string(), "threads(x3)");
        assert_eq!(Executor::Simulated.name(), "simulated");
        assert_eq!(Executor::threads(3).name(), "threads");
    }

    #[test]
    fn choice_parses_names_case_insensitively() {
        assert_eq!(
            ExecutorChoice::parse("Simulated").unwrap(),
            ExecutorChoice::Simulated
        );
        assert_eq!(
            ExecutorChoice::parse("THREADS").unwrap(),
            ExecutorChoice::Threads
        );
        let err = ExecutorChoice::parse("gpu").unwrap_err();
        assert!(err.to_string().contains("gpu"), "{err}");
    }

    #[test]
    fn choice_resolution_prefers_the_explicit_budget() {
        assert_eq!(
            ExecutorChoice::Simulated.resolve(Some(8)),
            Executor::Simulated
        );
        assert_eq!(
            ExecutorChoice::Threads.resolve(Some(8)),
            Executor::threads(8)
        );
        assert_eq!(
            ExecutorChoice::Threads.resolve(None),
            Executor::host_threads()
        );
    }

    #[test]
    fn waves_merge_in_ascending_input_order_on_both_executors() {
        let items: Vec<usize> = (0..257).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * 7 + 1).collect();
        for executor in [
            Executor::Simulated,
            Executor::threads(1),
            Executor::threads(3),
            Executor::threads(16),
        ] {
            let out = run_wave(executor, items.clone(), |x| x * 7 + 1);
            assert_eq!(out, expected, "{executor}");
        }
    }
}
