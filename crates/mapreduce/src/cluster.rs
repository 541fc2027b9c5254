//! The cluster round engine: machine execution behind an [`Executor`]
//! (sequential simulated machines, or real `std::thread::scope` fan-out)
//! with the paper's per-round cost accounting, plus optional deterministic
//! fault injection with retries, charged backoff and degrade-mode shard
//! drops (see the [`crate::faults`] module docs for the determinism
//! contract).

use crate::config::ClusterConfig;
use crate::error::MapReduceError;
use crate::executor::{run_wave, Executor};
use crate::faults::{
    retry_backoff, DroppedShard, FaultCause, FaultConfig, FaultEvent, FaultKind, FaultLog,
    FaultPlan,
};
use crate::stats::{JobStats, RoundStats};
use std::time::{Duration, Instant};

/// A MapReduce cluster with the paper's cost accounting.
///
/// A round is executed by handing every partition to one reducer closure;
/// the active [`Executor`] decides how the machines actually run —
/// sequentially on the calling thread ([`Executor::Simulated`], the
/// paper's mode and the default) or concurrently as `std::thread::scope`
/// tasks ([`Executor::Threads`]).  Either way the round is charged
/// `max_i t_i` — the processing time of the slowest simulated machine —
/// exactly as in the paper's experimental setup.  The accumulated
/// [`JobStats`] additionally record the fully sequential cost (`Σ_i t_i`)
/// and the real wall-clock time so all three views can be reported.
///
/// Outputs are **executor-invariant**: every wave merges its results in
/// ascending partition order, so a round returns bit-identical outputs
/// under either executor at any thread count (reducers are pure functions
/// of their partitions).
///
/// With [`Cluster::with_fault_injection`], every reducer execution
/// first consults a fault plan: crashed or corrupt attempts lose their
/// output and the failed partitions are re-executed (in ascending partition
/// order, up to the configured attempt budget, with simulated backoff
/// charged between attempts); straggling attempts keep their output but are
/// charged a multiple of their time.  Because reducers are pure, a round in
/// which every partition eventually succeeds returns outputs bit-identical
/// to the fault-free round — only the accounting differs.
///
/// The cluster alone decides what an exhausted partition does: with the
/// fault configuration's `degrade` set, [`Cluster::run_round`] drops it,
/// returns `None` in its slot and records it in
/// [`Cluster::dropped_shards`]; otherwise the round fails with
/// [`MapReduceError::RoundFailed`].  [`Cluster::run_single`] never drops.
pub struct Cluster {
    config: ClusterConfig,
    stats: JobStats,
    enforce_capacity: bool,
    faults: Option<FaultConfig>,
    executor: Executor,
    dropped: Vec<DroppedShard>,
}

/// The result of one reducer execution attempt, before retry logic.
struct AttemptOutcome<R> {
    /// The surviving output (`None` if the attempt crashed or returned
    /// corrupt output).
    output: Option<R>,
    /// Time charged to the simulated machine for this attempt (slowdown
    /// included, backoff not).
    charged: Duration,
    /// Real execution time (what a sequential simulation would pay).
    work: Duration,
    /// Cause of failure when `output` is `None`.
    cause: Option<FaultCause>,
    /// Events to log, machine-local order.
    events: Vec<FaultEvent>,
}

/// Per-machine execution state across retry waves.
struct MachineRun<R> {
    output: Option<R>,
    /// Simulated completion time: execution time of every attempt plus all
    /// charged backoff.
    charged: Duration,
    /// Total real execution time across attempts (no backoff).
    work: Duration,
    attempts: usize,
    cause: Option<FaultCause>,
}

impl Cluster {
    /// Creates a cluster with the given configuration; partition sizes are
    /// checked against the per-machine capacity on every round.  The
    /// executor defaults to [`Executor::Simulated`] (the paper's mode);
    /// switch with [`Cluster::with_executor`].
    pub fn new(config: ClusterConfig) -> Self {
        Self {
            config,
            stats: JobStats::new(),
            enforce_capacity: true,
            faults: None,
            executor: Executor::Simulated,
            dropped: Vec::new(),
        }
    }

    /// Creates a cluster that records statistics but does not enforce the
    /// capacity limit.  The paper's experiments effectively run in this mode
    /// (its single test machine has plenty of RAM); the strict mode is what
    /// the multi-round analysis needs.
    pub fn unchecked(config: ClusterConfig) -> Self {
        Self {
            enforce_capacity: false,
            ..Self::new(config)
        }
    }

    /// Selects the executor for all subsequent rounds.  Outputs and fault
    /// logs are executor-invariant; only the measured times depend on this
    /// choice.
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// Enables fault injection: every subsequent reducer execution consults
    /// `faults.plan`, a failed partition gets up to `faults.max_attempts`
    /// executions, and `faults.degrade` decides whether
    /// [`Cluster::run_round`] may drop a partition that exhausts them.
    pub fn with_fault_injection(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Statistics of every round executed so far.
    pub fn stats(&self) -> &JobStats {
        &self.stats
    }

    /// Every shard degrade mode dropped so far, in the order the rounds
    /// ran (ascending machine within a round).
    pub fn dropped_shards(&self) -> &[DroppedShard] {
        &self.dropped
    }

    /// Consumes the cluster, returning the accumulated statistics.
    pub fn into_stats(self) -> JobStats {
        self.stats
    }

    /// Executes one MapReduce round.
    ///
    /// `partitions[i]` is the input of reducer `i`; `reduce(i, &partitions[i])`
    /// produces its output.  Outputs are returned in partition order, one
    /// slot per partition: `Some(output)`, or `None` for a shard that
    /// degrade mode dropped (see [`Cluster::dropped_shards`]).  Without
    /// degrade mode every slot is `Some`.  The `count_out` closure tells
    /// the accounting how many items each output contributes to the next
    /// shuffle.
    ///
    /// # Errors
    ///
    /// * [`MapReduceError::EmptyRound`] if no partitions are supplied.
    /// * [`MapReduceError::TooManyPartitions`] if there are more partitions
    ///   than machines.
    /// * [`MapReduceError::CapacityExceeded`] if any partition exceeds the
    ///   per-machine capacity (only when capacity is enforced).
    /// * [`MapReduceError::RoundFailed`] if fault injection is active
    ///   without degrade mode and a partition fails every attempt its
    ///   budget allows.
    pub fn run_round<T, R, F, C>(
        &mut self,
        label: &str,
        partitions: &[Vec<T>],
        reduce: F,
        count_out: C,
    ) -> Result<Vec<Option<R>>, MapReduceError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
        C: Fn(&R) -> usize,
    {
        let degrade = self.faults.as_ref().is_some_and(|f| f.degrade);
        self.execute(label, partitions, &reduce, &count_out, degrade)
    }

    /// The round engine behind [`Cluster::run_round`] and
    /// [`Cluster::run_single`].
    ///
    /// Executes attempt waves on the active executor: wave 0 runs every
    /// partition; each further wave re-runs the still-failed partitions
    /// (ascending partition index) until they succeed or exhaust the
    /// attempt budget.  A partition still dead after that is dropped when
    /// `degrade` is set and fails the round otherwise.
    fn execute<T, R, F, C>(
        &mut self,
        label: &str,
        partitions: &[Vec<T>],
        reduce: &F,
        count_out: &C,
        degrade: bool,
    ) -> Result<Vec<Option<R>>, MapReduceError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
        C: Fn(&R) -> usize,
    {
        if partitions.is_empty() {
            return Err(MapReduceError::EmptyRound);
        }
        if partitions.len() > self.config.machines {
            return Err(MapReduceError::TooManyPartitions {
                partitions: partitions.len(),
                machines: self.config.machines,
            });
        }
        if self.enforce_capacity {
            for (machine, part) in partitions.iter().enumerate() {
                if part.len() > self.config.capacity {
                    return Err(MapReduceError::CapacityExceeded {
                        machine,
                        items: part.len(),
                        capacity: self.config.capacity,
                    });
                }
            }
        }

        // The round index fault plans address: the next index this
        // cluster's `JobStats::push` will assign.
        let round = self.stats.num_rounds();
        let max_attempts = self.faults.as_ref().map_or(1, |f| f.max_attempts);
        let plan = self.faults.as_ref().map(|f| &f.plan);

        let executor = self.executor;
        let wall_start = Instant::now();
        let mut log = FaultLog::new();

        // Wave 0: every partition on the executor, each reducer timed
        // individually — the per-reducer time is the "simulated machine"
        // processing time.
        let outcomes: Vec<AttemptOutcome<R>> = run_wave(
            executor,
            partitions.iter().enumerate().collect(),
            |(i, part)| execute_attempt(i, 0, part, reduce, plan, round),
        );
        let mut runs: Vec<MachineRun<R>> = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            for e in &outcome.events {
                log.push(e.clone());
            }
            runs.push(MachineRun {
                output: outcome.output,
                charged: outcome.charged,
                work: outcome.work,
                attempts: 1,
                cause: outcome.cause,
            });
        }

        // Retry waves: failed partitions only, ascending partition index,
        // so a run in which every partition eventually succeeds yields
        // outputs bit-identical to the fault-free round.
        loop {
            let pending: Vec<(usize, usize)> = runs
                .iter()
                .enumerate()
                .filter(|(_, r)| r.output.is_none() && r.attempts < max_attempts)
                .map(|(i, r)| (i, r.attempts))
                .collect();
            if pending.is_empty() {
                break;
            }
            let retried: Vec<(usize, usize, AttemptOutcome<R>)> =
                run_wave(executor, pending, |(i, attempt)| {
                    let outcome = execute_attempt(i, attempt, &partitions[i], reduce, plan, round);
                    (i, attempt, outcome)
                });
            for (i, attempt, outcome) in retried {
                let backoff = retry_backoff(attempt);
                log.push(FaultEvent::Retried {
                    machine: i,
                    attempt,
                    backoff,
                });
                for e in &outcome.events {
                    log.push(e.clone());
                }
                let run = &mut runs[i];
                run.charged += backoff + outcome.charged;
                run.work += outcome.work;
                run.attempts += 1;
                run.output = outcome.output;
                run.cause = outcome.cause;
            }
        }

        let wall_time = wall_start.elapsed();

        // Dead shards: degrade mode drops them into the ledger, otherwise
        // the round fails on the first one.
        for (i, run) in runs.iter().enumerate() {
            if run.output.is_none() {
                let shard = DroppedShard {
                    round,
                    machine: i,
                    attempts: run.attempts,
                    items: partitions[i].len(),
                    cause: run.cause.unwrap_or(FaultCause::Crashed),
                };
                if !degrade {
                    return Err(MapReduceError::from(&shard));
                }
                log.push(FaultEvent::ShardDropped {
                    machine: i,
                    attempts: shard.attempts,
                    items: shard.items,
                });
                self.dropped.push(shard);
            }
        }

        // The paper's charged time: the slowest machine's completion time.
        // Failed machines kept the round waiting through every attempt, so
        // their charged time participates too.
        let simulated_time = runs.iter().map(|r| r.charged).max().unwrap_or_default();
        let sequential_time = runs.iter().map(|r| r.work).sum();
        let attempts = runs.iter().map(|r| r.attempts).sum();
        let items_in: usize = partitions.iter().map(Vec::len).sum();
        let max_machine_items = partitions.iter().map(Vec::len).max().unwrap_or(0);
        let outputs: Vec<Option<R>> = runs.into_iter().map(|r| r.output).collect();
        let items_out: usize = outputs.iter().flatten().map(count_out).sum();

        self.stats.push(RoundStats {
            round,
            label: label.to_string(),
            machines_used: partitions.len(),
            items_in,
            max_machine_items,
            items_out,
            simulated_time,
            sequential_time,
            wall_time,
            executor,
            counters: Vec::new(),
            attempts,
            faults: log,
        });
        Ok(outputs)
    }

    /// Attaches (or accumulates into) a named work counter on the round
    /// that just ran — reducers return their counts with their outputs and
    /// the caller records the total here, making quantities like pruned
    /// scan pairs visible in the [`JobStats`] next to the round's times.
    ///
    /// # Panics
    ///
    /// Panics if no round has been executed yet.
    pub fn record_counter(&mut self, name: &str, value: u64) {
        self.stats.record_counter(name, value);
    }

    /// Executes a round whose input all goes to a **single** reducer — the
    /// final aggregation step of MRG and EIM ("the mapper sends all points
    /// in S to a single reducer").  This round never degrades: without its
    /// one output there is nothing to go on with, so an exhausted reducer
    /// fails the round even in degrade mode.
    ///
    /// # Errors
    ///
    /// Everything [`Cluster::run_round`] can raise (`RoundFailed` also in
    /// degrade mode), plus [`MapReduceError::MissingOutput`] if the
    /// substrate invariant of one output per partition is ever violated.
    pub fn run_single<T, R, F, C>(
        &mut self,
        label: &str,
        items: Vec<T>,
        reduce: F,
        count_out: C,
    ) -> Result<R, MapReduceError>
    where
        T: Sync,
        R: Send,
        F: Fn(&[T]) -> R + Sync,
        C: Fn(&R) -> usize,
    {
        let partitions = vec![items];
        let mut out = self.execute(
            label,
            &partitions,
            &|_, part: &[T]| reduce(part),
            &count_out,
            false,
        )?;
        out.pop().flatten().ok_or(MapReduceError::MissingOutput {
            label: label.to_string(),
        })
    }

    /// Checks that `n` items fit in the cluster at all.
    pub fn check_fits(&self, n: usize) -> Result<(), MapReduceError> {
        if self.enforce_capacity && !self.config.fits(n) {
            return Err(MapReduceError::ClusterTooSmall {
                items: n,
                total_capacity: self.config.total_capacity(),
            });
        }
        Ok(())
    }
}

/// Runs one reducer execution: times the pure reduce and applies the
/// planned fault for `(round, machine, attempt)`.
fn execute_attempt<T, R, F>(
    machine: usize,
    attempt: usize,
    part: &[T],
    reduce: &F,
    plan: Option<&FaultPlan>,
    round: usize,
) -> AttemptOutcome<R>
where
    F: Fn(usize, &[T]) -> R,
{
    let start = Instant::now();
    let out = reduce(machine, part);
    let work = start.elapsed();
    let fault = plan.and_then(|p| p.fault_for(round, machine, attempt));

    let mut events = Vec::new();
    let (output, charged, cause) = match fault {
        Some(FaultKind::Crash) => {
            events.push(FaultEvent::Crashed { machine, attempt });
            (None, work, Some(FaultCause::Crashed))
        }
        Some(FaultKind::Corrupt) => {
            events.push(FaultEvent::Rejected {
                machine,
                attempt,
                cause: FaultCause::CorruptOutput,
            });
            (None, work, Some(FaultCause::CorruptOutput))
        }
        Some(FaultKind::Straggle { factor }) => {
            events.push(FaultEvent::Straggled {
                machine,
                attempt,
                factor,
            });
            (Some(out), work.mul_f64(factor.max(0.0)), None)
        }
        None => (Some(out), work, None),
    };
    AttemptOutcome {
        output,
        charged,
        work,
        cause,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::ScheduledFault;
    use crate::partition;

    fn config(machines: usize, capacity: usize) -> ClusterConfig {
        ClusterConfig::new(machines, capacity)
    }

    #[test]
    fn run_round_returns_outputs_in_partition_order() {
        let mut cluster = Cluster::new(config(4, 100));
        let parts: Vec<Vec<u64>> = vec![vec![1, 2], vec![3], vec![4, 5, 6]];
        let sums = cluster
            .run_round("sum", &parts, |_, xs| xs.iter().sum::<u64>(), |_| 1)
            .unwrap();
        assert_eq!(sums, vec![Some(3), Some(3), Some(15)]);
        let stats = cluster.stats();
        assert_eq!(stats.num_rounds(), 1);
        let r = &stats.rounds()[0];
        assert_eq!(r.items_in, 6);
        assert_eq!(r.max_machine_items, 3);
        assert_eq!(r.items_out, 3);
        assert_eq!(r.machines_used, 3);
        assert_eq!(r.label, "sum");
        assert_eq!(r.attempts, 3);
        assert!(r.faults.is_empty());
    }

    #[test]
    fn run_round_rejects_empty_input() {
        let mut cluster = Cluster::new(config(2, 10));
        let err = cluster
            .run_round::<u32, u32, _, _>("x", &[], |_, _| 0, |_| 0)
            .unwrap_err();
        assert_eq!(err, MapReduceError::EmptyRound);
    }

    #[test]
    fn run_round_rejects_too_many_partitions() {
        let mut cluster = Cluster::new(config(2, 10));
        let parts = vec![vec![1], vec![2], vec![3]];
        let err = cluster
            .run_round("x", &parts, |_, xs: &[i32]| xs.len(), |_| 0)
            .unwrap_err();
        assert_eq!(
            err,
            MapReduceError::TooManyPartitions {
                partitions: 3,
                machines: 2
            }
        );
    }

    #[test]
    fn run_round_enforces_capacity() {
        let mut cluster = Cluster::new(config(2, 2));
        let parts = vec![vec![1, 2, 3]];
        let err = cluster
            .run_round("x", &parts, |_, xs: &[i32]| xs.len(), |_| 0)
            .unwrap_err();
        assert_eq!(
            err,
            MapReduceError::CapacityExceeded {
                machine: 0,
                items: 3,
                capacity: 2
            }
        );
    }

    #[test]
    fn unchecked_cluster_ignores_capacity() {
        let mut cluster = Cluster::unchecked(config(2, 2));
        let parts = vec![vec![1, 2, 3, 4, 5]];
        let out = cluster
            .run_round("x", &parts, |_, xs: &[i32]| xs.len(), |_| 0)
            .unwrap();
        assert_eq!(out, vec![Some(5)]);
        assert!(cluster.check_fits(1_000_000).is_ok());
    }

    #[test]
    fn run_single_funnels_everything_to_one_reducer() {
        let mut cluster = Cluster::new(config(8, 100));
        let total = cluster
            .run_single(
                "final",
                (1..=10u64).collect(),
                |xs| xs.iter().sum::<u64>(),
                |_| 1,
            )
            .unwrap();
        assert_eq!(total, 55);
        assert_eq!(cluster.stats().rounds()[0].machines_used, 1);
    }

    #[test]
    fn check_fits_detects_undersized_cluster() {
        let cluster = Cluster::new(config(2, 3));
        assert!(cluster.check_fits(6).is_ok());
        assert_eq!(
            cluster.check_fits(7).unwrap_err(),
            MapReduceError::ClusterTooSmall {
                items: 7,
                total_capacity: 6
            }
        );
    }

    #[test]
    fn simulated_time_is_at_most_sequential_time() {
        let mut cluster = Cluster::new(config(8, 100_000));
        let items: Vec<u64> = (0..80_000).collect();
        let parts = partition::chunks(&items, 8);
        cluster
            .run_round(
                "busy",
                &parts,
                |_, xs| xs.iter().map(|x| x.wrapping_mul(2654435761)).sum::<u64>(),
                |_| 1,
            )
            .unwrap();
        let r = &cluster.stats().rounds()[0];
        assert!(r.simulated_time <= r.sequential_time);
        assert!(r.simulated_time > Duration::ZERO);
    }

    #[test]
    fn multi_round_job_accumulates_stats() {
        let mut cluster = Cluster::new(config(4, 1000));
        let items: Vec<u64> = (0..1000).collect();
        let parts = partition::chunks(&items, 4);
        let partials = cluster
            .run_round("sum parts", &parts, |_, xs| xs.iter().sum::<u64>(), |_| 1)
            .unwrap();
        let total = cluster
            .run_single(
                "combine",
                partials.into_iter().flatten().collect(),
                |xs| xs.iter().sum::<u64>(),
                |_| 1,
            )
            .unwrap();
        assert_eq!(total, 499_500);
        assert_eq!(cluster.stats().num_rounds(), 2);
        assert_eq!(cluster.stats().rounds()[1].items_in, 4);
        let stats = cluster.into_stats();
        assert_eq!(stats.num_rounds(), 2);
    }

    #[test]
    fn reducer_index_is_passed_through() {
        let mut cluster = Cluster::new(config(3, 10));
        let parts = vec![vec![0u8], vec![0u8], vec![0u8]];
        let ids = cluster.run_round("ids", &parts, |i, _| i, |_| 0).unwrap();
        assert_eq!(ids, vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn round_index_matches_job_position() {
        let mut cluster = Cluster::new(config(2, 10));
        for _ in 0..3 {
            cluster
                .run_round("r", &[vec![1u8]], |_, xs| xs.len(), |_| 0)
                .unwrap();
        }
        let rounds = cluster.stats().rounds();
        assert_eq!(rounds[0].round, 0);
        assert_eq!(rounds[1].round, 1);
        assert_eq!(rounds[2].round, 2);
    }

    #[test]
    fn crashed_reducer_is_retried_and_the_round_succeeds() {
        let plan = FaultPlan::explicit(vec![ScheduledFault {
            round: 0,
            machine: 1,
            attempt: 0,
            kind: FaultKind::Crash,
        }]);
        let mut cluster = Cluster::new(config(4, 100)).with_fault_injection(FaultConfig::new(plan));
        let parts: Vec<Vec<u64>> = vec![vec![1, 2], vec![3, 4], vec![5]];
        let sums = cluster
            .run_round("sum", &parts, |_, xs| xs.iter().sum::<u64>(), |_| 1)
            .unwrap();
        assert_eq!(sums, vec![Some(3), Some(7), Some(5)]);
        let r = &cluster.stats().rounds()[0];
        assert_eq!(r.attempts, 4);
        assert_eq!(r.faults.crashes(), 1);
        assert_eq!(r.faults.retries(), 1);
    }

    #[test]
    fn exhausted_attempts_fail_the_round_with_provenance() {
        let plan = FaultPlan::explicit(
            (0..2)
                .map(|attempt| ScheduledFault {
                    round: 0,
                    machine: 0,
                    attempt,
                    kind: FaultKind::Crash,
                })
                .collect(),
        );
        let faults = FaultConfig::new(plan).with_max_attempts(2);
        let mut cluster = Cluster::new(config(2, 100)).with_fault_injection(faults);
        let err = cluster
            .run_round("sum", &[vec![1u64]], |_, xs| xs.iter().sum::<u64>(), |_| 1)
            .unwrap_err();
        assert_eq!(
            err,
            MapReduceError::RoundFailed {
                round: 0,
                machine: 0,
                attempts: 2,
                source: FaultCause::Crashed,
            }
        );
    }

    #[test]
    fn degradable_round_drops_dead_shards_and_keeps_survivors() {
        let plan = FaultPlan::explicit(
            (0..3)
                .map(|attempt| ScheduledFault {
                    round: 0,
                    machine: 1,
                    attempt,
                    kind: FaultKind::Corrupt,
                })
                .collect(),
        );
        let mut cluster = Cluster::new(config(4, 100))
            .with_fault_injection(FaultConfig::new(plan).with_degrade(true));
        let parts: Vec<Vec<u64>> = vec![vec![1, 2], vec![3, 4, 5], vec![6]];
        let out = cluster
            .run_round("sum", &parts, |_, xs| xs.iter().sum::<u64>(), |_| 1)
            .unwrap();
        assert_eq!(out, vec![Some(3), None, Some(6)]);
        assert_eq!(cluster.dropped_shards().len(), 1);
        let shard = &cluster.dropped_shards()[0];
        assert_eq!(shard.machine, 1);
        assert_eq!(shard.items, 3);
        assert_eq!(shard.attempts, 3);
        assert_eq!(shard.cause, FaultCause::CorruptOutput);
        let r = &cluster.stats().rounds()[0];
        assert_eq!(r.faults.shards_dropped(), 1);
        assert_eq!(r.faults.rejections(), 3);
        // Shuffle accounting only counts surviving outputs.
        assert_eq!(r.items_out, 2);
    }

    #[test]
    fn straggle_inflates_charged_time_but_keeps_output() {
        let plan = FaultPlan::explicit(vec![ScheduledFault {
            round: 0,
            machine: 0,
            attempt: 0,
            kind: FaultKind::Straggle { factor: 100.0 },
        }]);
        let mut cluster =
            Cluster::new(config(2, 100_000)).with_fault_injection(FaultConfig::new(plan));
        let items: Vec<u64> = (0..40_000).collect();
        let parts = partition::chunks(&items, 2);
        let sums = cluster
            .run_round(
                "busy",
                &parts,
                |_, xs| xs.iter().map(|x| x.wrapping_mul(2654435761)).sum::<u64>(),
                |_| 1,
            )
            .unwrap();
        assert!(sums.iter().all(Option::is_some));
        let r = &cluster.stats().rounds()[0];
        assert_eq!(r.faults.stragglers(), 1);
        // The straggler's inflated time dominates the charged round time
        // but not the sequential (real work) time.
        assert!(r.simulated_time > r.sequential_time);
    }

    #[test]
    fn backoff_is_charged_into_simulated_time() {
        // Machine 0 crashes on its first three attempts and succeeds on the
        // fourth, after retries charged 10, 20 and 40 ms of backoff.
        let plan = FaultPlan::explicit(
            (0..3)
                .map(|attempt| ScheduledFault {
                    round: 0,
                    machine: 0,
                    attempt,
                    kind: FaultKind::Crash,
                })
                .collect(),
        );
        let mut cluster = Cluster::new(config(2, 100))
            .with_fault_injection(FaultConfig::new(plan).with_max_attempts(4));
        cluster
            .run_round("sum", &[vec![1u64]], |_, xs| xs.iter().sum::<u64>(), |_| 1)
            .unwrap();
        let r = &cluster.stats().rounds()[0];
        let backoffs: Vec<Duration> = r
            .faults
            .events()
            .iter()
            .filter_map(|e| match e {
                FaultEvent::Retried { backoff, .. } => Some(*backoff),
                _ => None,
            })
            .collect();
        let ms = Duration::from_millis;
        assert_eq!(backoffs, vec![ms(10), ms(20), ms(40)]);
        // The charged time is the four executions plus the backoff; the
        // real work time has no backoff in it.
        assert_eq!(r.simulated_time, r.sequential_time + ms(70));
    }

    #[test]
    fn threaded_executor_returns_bit_identical_outputs_at_any_width() {
        let items: Vec<u64> = (0..10_000).collect();
        let parts = partition::chunks(&items, 8);
        let reduce = |_: usize, xs: &[u64]| xs.iter().map(|x| x.wrapping_mul(31)).sum::<u64>();

        let mut simulated = Cluster::new(config(8, 10_000));
        let expected = simulated.run_round("sum", &parts, reduce, |_| 1).unwrap();
        assert_eq!(simulated.stats().rounds()[0].executor, Executor::Simulated);

        for threads in [1, 2, 3, 8] {
            let mut threaded =
                Cluster::new(config(8, 10_000)).with_executor(Executor::threads(threads));
            let out = threaded.run_round("sum", &parts, reduce, |_| 1).unwrap();
            assert_eq!(out, expected, "threads = {threads}");
            let r = &threaded.stats().rounds()[0];
            assert_eq!(r.executor, Executor::threads(threads));
            assert!(r.wall_time > Duration::ZERO);
        }
    }

    #[test]
    fn threaded_executor_survives_seeded_chaos_bit_identically() {
        let items: Vec<u64> = (0..10_000).collect();
        let parts = partition::chunks(&items, 8);
        let reduce = |_: usize, xs: &[u64]| xs.iter().map(|x| x.wrapping_mul(31)).sum::<u64>();

        let mut clean = Cluster::new(config(8, 10_000));
        let clean_out = clean.run_round("sum", &parts, reduce, |_| 1).unwrap();

        // The identical fault plan (retries, stragglers, corruption) under
        // the threaded executor: every partition eventually succeeds, so the
        // outputs must match the fault-free simulated round bit for bit.
        let faults = FaultConfig::new(FaultPlan::seeded(1234)).with_max_attempts(64);
        let mut chaotic = Cluster::new(config(8, 10_000))
            .with_executor(Executor::threads(4))
            .with_fault_injection(faults);
        let chaotic_out = chaotic.run_round("sum", &parts, reduce, |_| 1).unwrap();
        assert_eq!(clean_out, chaotic_out);
        let summary = chaotic.stats().fault_summary();
        assert_eq!(summary.executor, Executor::threads(4));
    }

    #[test]
    fn threaded_degradable_round_keeps_drop_provenance() {
        let plan = FaultPlan::explicit(
            (0..3)
                .map(|attempt| ScheduledFault {
                    round: 0,
                    machine: 1,
                    attempt,
                    kind: FaultKind::Crash,
                })
                .collect(),
        );
        let mut cluster = Cluster::new(config(4, 100))
            .with_executor(Executor::threads(3))
            .with_fault_injection(FaultConfig::new(plan).with_degrade(true));
        let parts: Vec<Vec<u64>> = vec![vec![1, 2], vec![3, 4, 5], vec![6]];
        let out = cluster
            .run_round("sum", &parts, |_, xs| xs.iter().sum::<u64>(), |_| 1)
            .unwrap();
        assert_eq!(out, vec![Some(3), None, Some(6)]);
        let dropped = cluster.dropped_shards();
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].machine, 1);
        assert_eq!(dropped[0].cause, FaultCause::Crashed);
    }

    #[test]
    fn seeded_chaos_with_enough_attempts_reproduces_fault_free_outputs() {
        let items: Vec<u64> = (0..10_000).collect();
        let parts = partition::chunks(&items, 8);
        let reduce = |_: usize, xs: &[u64]| xs.iter().map(|x| x.wrapping_mul(31)).sum::<u64>();

        let mut clean = Cluster::new(config(8, 10_000));
        let clean_out = clean.run_round("sum", &parts, reduce, |_| 1).unwrap();

        // Default seeded rates with a deep attempt budget: every partition
        // succeeds eventually, outputs must match bit-for-bit.
        let faults = FaultConfig::new(FaultPlan::seeded(1234)).with_max_attempts(64);
        let mut chaotic = Cluster::new(config(8, 10_000)).with_fault_injection(faults);
        let chaotic_out = chaotic.run_round("sum", &parts, reduce, |_| 1).unwrap();
        assert_eq!(clean_out, chaotic_out);
    }
}
