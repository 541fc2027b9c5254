//! Simulated MapReduce substrate.
//!
//! The paper evaluates its parallel k-center algorithms in the MapReduce
//! model of Karloff et al., but runs the experiments by *simulating* the
//! parallel machines on a single box: "We simulate the parallel machines
//! sequentially on a single machine, taking the longest processing time of
//! the simulated machines as the processing time for that MapReduce round",
//! and "we adopt a MapReduce approach, but do not record the cost of moving
//! data between machines" (Section 7.1).
//!
//! This crate reproduces that model:
//!
//! * a [`ClusterConfig`] describes the number of simulated machines `m` and
//!   the per-machine capacity `c` (measured in points);
//! * a [`Cluster`] executes *rounds*: the caller supplies one input
//!   partition per reducer and a reduce closure, the machines run on the
//!   selected [`Executor`] — sequentially in the paper's simulated mode
//!   (the default), or as real `std::thread::scope` tasks with a fixed
//!   worker budget — and the round is **charged** the maximum per-reducer
//!   processing time — exactly the paper's accounting — while the
//!   wall-clock time is recorded alongside.  Outputs are bit-identical
//!   across executors (waves merge in ascending partition order), so the
//!   executor extends the determinism tuple only as an *invariant*;
//! * [`partition`] provides the mapper side: deterministic contiguous
//!   chunking within the `⌈n/m⌉` size bound;
//! * [`JobStats`] / [`RoundStats`] accumulate per-round accounting
//!   (simulated time, wall time, items processed and shuffled) so the bench
//!   harness can report both the paper's metric and real elapsed time;
//! * capacity violations surface as [`MapReduceError`] instead of silently
//!   producing results a real cluster could not have produced;
//! * [`faults`] adds deterministic fault injection on top: a reproducible
//!   [`FaultPlan`] can crash reducers, slow them down, or corrupt their
//!   output, and the cluster retries with charged backoff up to the
//!   [`FaultConfig`]'s attempt budget and — when it opts into degrade
//!   mode — degrades gracefully, with every event accounted in the round
//!   statistics.  The cluster alone
//!   makes that drop-or-fail choice: [`Cluster::run_round`] hands back
//!   `None` for a dropped shard and records it in
//!   [`Cluster::dropped_shards`], while [`Cluster::run_single`] never
//!   drops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod config;
pub mod error;
pub mod executor;
pub mod faults;
pub mod partition;
pub mod stats;

pub use cluster::Cluster;
pub use config::ClusterConfig;
pub use error::MapReduceError;
pub use executor::{
    host_parallelism, install_thread_budget, threads_from_env, Executor, ExecutorChoice,
    ExecutorSelectError, EXECUTOR_ENV, THREADS_ENV,
};
pub use faults::{
    DegradedRun, DroppedShard, FaultCause, FaultConfig, FaultKind, FaultLog, FaultPlan, FaultRates,
    FaultSummary, ScheduledFault,
};
pub use stats::{JobStats, RoundStats};
