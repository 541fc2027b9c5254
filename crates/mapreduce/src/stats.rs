//! Per-round and per-job cost accounting.
//!
//! The paper charges a MapReduce round the processing time of its slowest
//! simulated machine and does not charge data movement; we record both that
//! quantity ([`RoundStats::simulated_time`]) and the real wall-clock time of
//! the parallel execution, plus item counts so shuffle volume can be
//! inspected even though it is not charged.

use crate::executor::Executor;
use crate::faults::{FaultLog, FaultSummary};
use std::time::Duration;

/// Accounting for a single MapReduce round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundStats {
    /// 0-based index of the round within its job.
    pub round: usize,
    /// Human-readable label (e.g. `"MRG round 1: parallel GON"`).
    pub label: String,
    /// Number of reducers (simulated machines) that received input.
    pub machines_used: usize,
    /// Total number of input items across all reducers.
    pub items_in: usize,
    /// Largest number of input items on any single reducer.
    pub max_machine_items: usize,
    /// Total number of output items emitted by all reducers (the shuffle
    /// volume of the next round).
    pub items_out: usize,
    /// The paper's charged time for the round: the maximum processing time
    /// over the simulated machines.
    pub simulated_time: Duration,
    /// Sum of all per-machine processing times (what a fully sequential
    /// simulation would have cost).
    pub sequential_time: Duration,
    /// Real elapsed wall-clock time of the round's execution — concurrent
    /// elapsed time under [`Executor::Threads`], sequential elapsed time
    /// under [`Executor::Simulated`].
    pub wall_time: Duration,
    /// The executor the round ran on.  Outputs are executor-invariant;
    /// this records which mode produced the `wall_time` column.
    pub executor: Executor,
    /// Named work counters reported by the round's reducers — e.g. the
    /// coreset weights round records how many (point, representative)
    /// pairs its early-exit certification pruned.  Empty for rounds that
    /// report nothing.
    pub counters: Vec<(String, u64)>,
    /// Total reducer executions in the round, including retries (equals
    /// `machines_used` in a fault-free round).
    pub attempts: usize,
    /// What the fault-injection machinery did during the round (empty when
    /// nothing fault-related happened).
    pub faults: FaultLog,
}

impl RoundStats {
    /// The value of the named counter, if this round recorded it.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Number of re-executions after failed attempts in this round.
    pub fn retries(&self) -> usize {
        self.faults.retries()
    }
}

/// Accounting for a complete multi-round job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobStats {
    rounds: Vec<RoundStats>,
}

impl JobStats {
    /// Creates an empty job record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a finished round.
    ///
    /// The round is renumbered to its position in *this* job: `extend`
    /// relies on that when sub-job rounds are merged, and the cluster stamps
    /// the same index on the stats it pushes (a cluster's job and its stats
    /// agree on indices, so `RoundStats::round` always matches the round
    /// index fault plans address).
    pub fn push(&mut self, mut round: RoundStats) {
        round.round = self.rounds.len();
        self.rounds.push(round);
    }

    /// All recorded rounds in execution order.
    pub fn rounds(&self) -> &[RoundStats] {
        &self.rounds
    }

    /// Number of MapReduce rounds executed.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Total simulated time: the paper's runtime metric, i.e. the sum over
    /// rounds of the slowest machine's processing time.
    pub fn simulated_time(&self) -> Duration {
        self.rounds.iter().map(|r| r.simulated_time).sum()
    }

    /// Total per-machine processing time over all rounds (the cost of a
    /// fully sequential simulation).
    pub fn sequential_time(&self) -> Duration {
        self.rounds.iter().map(|r| r.sequential_time).sum()
    }

    /// Total real wall-clock time over all rounds.
    pub fn wall_time(&self) -> Duration {
        self.rounds.iter().map(|r| r.wall_time).sum()
    }

    /// Total number of items shuffled into reducers over all rounds.
    pub fn total_items_in(&self) -> usize {
        self.rounds.iter().map(|r| r.items_in).sum()
    }

    /// Merges another job's rounds after this one's (used when an algorithm
    /// is composed of sub-jobs, e.g. EIM's sampling loop followed by the
    /// final clean-up round).
    pub fn extend(&mut self, other: JobStats) {
        for r in other.rounds {
            self.push(r);
        }
    }

    /// The rounds whose label starts with `prefix`, in execution order.
    ///
    /// Multi-phase jobs (e.g. "build a coreset once, then solve many cells
    /// on it") tag each phase's rounds with a label prefix; this is how a
    /// caller verifies, from the accounting alone, how many rounds a phase
    /// actually spent — the "was the coreset really built only once?" check.
    pub fn rounds_labelled<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a RoundStats> {
        self.rounds
            .iter()
            .filter(move |r| r.label.starts_with(prefix))
    }

    /// Number of rounds whose label starts with `prefix`.
    pub fn num_rounds_labelled(&self, prefix: &str) -> usize {
        self.rounds_labelled(prefix).count()
    }

    /// Sum of the named counter over all rounds that recorded it — how a
    /// caller reads e.g. the coreset weights round's pruned-pair count out
    /// of the job accounting.
    pub fn counter(&self, name: &str) -> u64 {
        self.rounds.iter().filter_map(|r| r.counter(name)).sum()
    }

    /// Fault-accounting totals over all rounds: attempts, retries, crashes,
    /// rejections, stragglers and dropped shards, plus the job's total
    /// simulated and wall-clock time labelled with the executor that ran
    /// it.  All-zero (apart from `attempts == Σ machines_used` and the
    /// time columns) for a fault-free job.
    pub fn fault_summary(&self) -> FaultSummary {
        let mut s = FaultSummary::default();
        for r in &self.rounds {
            s.attempts += r.attempts;
            s.retries += r.faults.retries();
            s.crashes += r.faults.crashes();
            s.rejections += r.faults.rejections();
            s.stragglers += r.faults.stragglers();
            s.shards_dropped += r.faults.shards_dropped();
            // A job's rounds all run on one cluster, hence one executor;
            // record the one that actually executed (the last round wins
            // if a caller ever mixes them).
            s.executor = r.executor;
        }
        s.simulated_time = self.simulated_time();
        s.wall_time = self.wall_time();
        s
    }

    /// Attaches (or accumulates into) a named counter on the most recently
    /// executed round.
    ///
    /// # Panics
    ///
    /// Panics if no round has been recorded yet.
    pub fn record_counter(&mut self, name: &str, value: u64) {
        let round = self
            .rounds
            .last_mut()
            .expect("record_counter needs at least one recorded round");
        match round.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += value,
            None => round.counters.push((name.to_string(), value)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(label: &str, sim_ms: u64, seq_ms: u64, items: usize) -> RoundStats {
        RoundStats {
            round: 0,
            label: label.to_string(),
            machines_used: 4,
            items_in: items,
            max_machine_items: items / 4 + 1,
            items_out: items / 10,
            simulated_time: Duration::from_millis(sim_ms),
            sequential_time: Duration::from_millis(seq_ms),
            wall_time: Duration::from_millis(sim_ms + 1),
            executor: Executor::Simulated,
            counters: Vec::new(),
            attempts: 4,
            faults: FaultLog::new(),
        }
    }

    #[test]
    fn push_renumbers_rounds_sequentially() {
        let mut job = JobStats::new();
        job.push(round("a", 10, 40, 100));
        job.push(round("b", 20, 60, 50));
        assert_eq!(job.num_rounds(), 2);
        assert_eq!(job.rounds()[0].round, 0);
        assert_eq!(job.rounds()[1].round, 1);
        assert_eq!(job.rounds()[1].label, "b");
    }

    #[test]
    fn totals_sum_over_rounds() {
        let mut job = JobStats::new();
        job.push(round("a", 10, 40, 100));
        job.push(round("b", 20, 60, 50));
        assert_eq!(job.simulated_time(), Duration::from_millis(30));
        assert_eq!(job.sequential_time(), Duration::from_millis(100));
        assert_eq!(job.wall_time(), Duration::from_millis(32));
        assert_eq!(job.total_items_in(), 150);
    }

    #[test]
    fn empty_job_has_zero_totals() {
        let job = JobStats::new();
        assert_eq!(job.num_rounds(), 0);
        assert_eq!(job.simulated_time(), Duration::ZERO);
        assert_eq!(job.total_items_in(), 0);
    }

    #[test]
    fn labelled_accessors_slice_one_phase_out_of_a_job() {
        let mut job = JobStats::new();
        job.push(round("coreset round 1: local gonzalez", 10, 10, 100));
        job.push(round("coreset round 2: merge", 5, 5, 20));
        job.push(round("sweep solve k=2", 3, 3, 10));
        job.push(round("sweep solve k=4", 4, 4, 10));
        assert_eq!(job.num_rounds_labelled("coreset"), 2);
        assert_eq!(job.num_rounds_labelled("sweep solve"), 2);
        assert_eq!(job.num_rounds_labelled("missing"), 0);
        let labels: Vec<&str> = job
            .rounds_labelled("sweep")
            .map(|r| r.label.as_str())
            .collect();
        assert_eq!(labels, vec!["sweep solve k=2", "sweep solve k=4"]);
    }

    #[test]
    fn counters_accumulate_per_round_and_sum_per_job() {
        let mut job = JobStats::new();
        job.push(round("weights", 10, 10, 100));
        job.record_counter("pruned pairs", 40);
        job.record_counter("pruned pairs", 2);
        job.push(round("weights again", 10, 10, 100));
        job.record_counter("pruned pairs", 8);
        job.record_counter("other", 1);
        assert_eq!(job.rounds()[0].counter("pruned pairs"), Some(42));
        assert_eq!(job.rounds()[0].counter("other"), None);
        assert_eq!(job.rounds()[1].counter("pruned pairs"), Some(8));
        assert_eq!(job.counter("pruned pairs"), 50);
        assert_eq!(job.counter("other"), 1);
        assert_eq!(job.counter("missing"), 0);
    }

    #[test]
    #[should_panic(expected = "at least one recorded round")]
    fn record_counter_needs_a_round() {
        JobStats::new().record_counter("x", 1);
    }

    #[test]
    fn fault_summary_totals_over_rounds() {
        use crate::faults::FaultEvent;
        let mut job = JobStats::new();
        let mut r = round("a", 10, 10, 100);
        r.attempts = 6;
        r.faults.push(FaultEvent::Crashed {
            machine: 1,
            attempt: 0,
        });
        r.faults.push(FaultEvent::Retried {
            machine: 1,
            attempt: 1,
            backoff: Duration::from_millis(10),
        });
        job.push(r);
        job.push(round("b", 5, 5, 50));
        let s = job.fault_summary();
        assert_eq!(s.attempts, 10);
        assert_eq!(s.crashes, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.stragglers, 0);
        assert!(!s.is_quiet());
        assert_eq!(job.rounds()[0].retries(), 1);
        // The summary also carries the job's time totals and executor.
        assert_eq!(s.executor, Executor::Simulated);
        assert_eq!(s.simulated_time, Duration::from_millis(15));
        assert_eq!(s.wall_time, Duration::from_millis(17));
    }

    #[test]
    fn extend_appends_and_renumbers() {
        let mut a = JobStats::new();
        a.push(round("a", 10, 10, 10));
        let mut b = JobStats::new();
        b.push(round("b", 5, 5, 5));
        b.push(round("c", 5, 5, 5));
        a.extend(b);
        assert_eq!(a.num_rounds(), 3);
        assert_eq!(a.rounds()[2].round, 2);
        assert_eq!(a.simulated_time(), Duration::from_millis(20));
    }
}
