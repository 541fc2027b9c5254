//! Deterministic fault injection, retries, and fault accounting for the
//! simulated cluster.
//!
//! The paper's cost model charges each round the slowest machine's time but
//! assumes every reducer always succeeds.  Real clusters lose machines and
//! grow stragglers mid-round; this module makes those failure modes a
//! first-class, *reproducible* part of the simulation:
//!
//! * a [`FaultPlan`] decides, for every `(round, machine, attempt)` triple,
//!   whether that reducer execution crashes, straggles (its charged
//!   simulated time is multiplied), or returns detectably-corrupt output.
//!   Plans are either an explicit schedule or generated statelessly from a
//!   seed, and both forms serialise to a small text format so a failing run
//!   can be reproduced exactly;
//! * a [`FaultConfig`] tells the cluster how to react: how many attempts a
//!   partition gets, and whether a partition that exhausts them may be
//!   dropped.  Between attempts the cluster charges a fixed simulated
//!   backoff: 10 ms before the first retry, doubling on each further one
//!   (capped at 2^20×);
//! * a [`FaultLog`] records what actually happened in a round, and lands in
//!   the round's `RoundStats` next to the usual time accounting.
//!
//! # The determinism contract
//!
//! Fault injection must never change *what* a job computes, only *whether
//! and when* it computes it:
//!
//! * Plan lookups are **stateless**: an explicit schedule is a pure table,
//!   and a seeded plan hashes `(seed, round, machine, attempt)` — no RNG
//!   state threads through execution, so the same plan gives the same
//!   faults regardless of scheduling order.
//! * Reducers are pure functions of their partition, and failed partitions
//!   are re-executed on the *same* input in fixed partition-index order, so
//!   whenever every partition eventually succeeds within its attempt
//!   budget, the round's outputs are **bit-identical** to the fault-free
//!   run — retries and backoff only show up in the time accounting and the
//!   fault log.  No measured time decides anything, so the fault log (and
//!   each round's attempt count) is a function of the plan alone, the same
//!   on every executor and host.
//! * Only **degrade mode** ([`FaultConfig::degrade`], acted on by
//!   `Cluster::run_round`) changes results: a partition that exhausts its
//!   attempts is dropped, its output slot comes back `None`, and the
//!   cluster records an explicit [`DroppedShard`] in its ledger, so any
//!   certificate the caller reports can be restated over the surviving
//!   subset — never silently claimed over the full input.

use crate::executor::Executor;
use std::fmt;
use std::time::Duration;

/// What goes wrong with one reducer execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The attempt crashes: its output is lost, its processing time is
    /// still charged (the machine worked, then died).
    Crash,
    /// The attempt straggles: its charged simulated time is multiplied by
    /// `factor` (the output is still produced).
    Straggle {
        /// Multiplier applied to the attempt's charged time (≥ 1 in any
        /// sensible plan, but not enforced).
        factor: f64,
    },
    /// The attempt returns detectably-corrupt output: the cluster rejects
    /// it (modelling a checksum mismatch), the time is charged, and the
    /// partition is retried like a crash.
    Corrupt,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Crash => write!(f, "crash"),
            FaultKind::Straggle { factor } => write!(f, "straggle x{factor}"),
            FaultKind::Corrupt => write!(f, "corrupt"),
        }
    }
}

/// One entry of an explicit fault schedule: reducer `machine` at round
/// `round` (0-based index within the cluster's job), attempt `attempt`
/// (0-based; retries consume successive indices)
/// suffers `kind`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledFault {
    /// 0-based round index within the cluster's job (the `RoundStats::round`
    /// the execution will be recorded under).
    pub round: usize,
    /// 0-based reducer/machine index within the round.
    pub machine: usize,
    /// 0-based attempt index on that machine (0 = first execution).
    pub attempt: usize,
    /// The injected fault.
    pub kind: FaultKind,
}

/// Per-attempt fault probabilities of a seeded plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability that an attempt crashes.
    pub crash: f64,
    /// Probability that an attempt straggles.
    pub straggle: f64,
    /// Probability that an attempt returns corrupt output.
    pub corrupt: f64,
    /// Slowdown factor applied to straggling attempts.
    pub straggle_factor: f64,
}

impl Default for FaultRates {
    /// Mild chaos: 10% crashes, 10% stragglers (4× slowdown), 5% corrupt
    /// outputs per attempt — enough to exercise every retry path within a
    /// default 3-attempt budget while keeping exhaustion unlikely.
    fn default() -> Self {
        Self {
            crash: 0.10,
            straggle: 0.10,
            corrupt: 0.05,
            straggle_factor: 4.0,
        }
    }
}

/// A reproducible schedule of injected faults.
///
/// Lookup is stateless (see the module docs), so a plan can be shared
/// across threads and consulted in any order.  Both forms serialise to the
/// text format of [`FaultPlan::to_text`] / [`FaultPlan::parse_text`] for
/// `--fault-plan` files.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlan {
    /// An explicit schedule: exactly the listed `(round, machine, attempt)`
    /// executions fault, everything else succeeds.
    Explicit(Vec<ScheduledFault>),
    /// Statelessly derived faults: each `(round, machine, attempt)` triple
    /// is hashed together with `seed` into a uniform variate that is
    /// compared against the rates.
    Seeded {
        /// The plan seed (reproduces the exact same faults every run).
        seed: u64,
        /// The per-attempt fault probabilities.
        rates: FaultRates,
    },
}

impl FaultPlan {
    /// An explicit schedule.
    pub fn explicit(faults: Vec<ScheduledFault>) -> Self {
        FaultPlan::Explicit(faults)
    }

    /// A seeded plan with the [`FaultRates::default`] probabilities.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan::Seeded {
            seed,
            rates: FaultRates::default(),
        }
    }

    /// A seeded plan with explicit probabilities.
    pub fn seeded_with_rates(seed: u64, rates: FaultRates) -> Self {
        FaultPlan::Seeded { seed, rates }
    }

    /// The fault injected into reducer `machine`'s attempt `attempt` of
    /// round `round`, if any.  Pure and stateless.
    pub fn fault_for(&self, round: usize, machine: usize, attempt: usize) -> Option<FaultKind> {
        match self {
            FaultPlan::Explicit(faults) => faults
                .iter()
                .find(|f| f.round == round && f.machine == machine && f.attempt == attempt)
                .map(|f| f.kind),
            FaultPlan::Seeded { seed, rates } => {
                let u = unit_variate(*seed, round, machine, attempt);
                if u < rates.crash {
                    Some(FaultKind::Crash)
                } else if u < rates.crash + rates.corrupt {
                    Some(FaultKind::Corrupt)
                } else if u < rates.crash + rates.corrupt + rates.straggle {
                    Some(FaultKind::Straggle {
                        factor: rates.straggle_factor,
                    })
                } else {
                    None
                }
            }
        }
    }

    /// Serialises the plan to the line-oriented text format accepted by
    /// [`FaultPlan::parse_text`] (the `--fault-plan` file format).
    pub fn to_text(&self) -> String {
        let mut out = String::from("# kcenter fault plan v1\n");
        match self {
            FaultPlan::Seeded { seed, rates } => {
                out.push_str(&format!(
                    "seeded seed={seed} crash={} straggle={} corrupt={} straggle-factor={}\n",
                    rates.crash, rates.straggle, rates.corrupt, rates.straggle_factor
                ));
            }
            FaultPlan::Explicit(faults) => {
                for f in faults {
                    let kind = match f.kind {
                        FaultKind::Crash => "kind=crash".to_string(),
                        FaultKind::Corrupt => "kind=corrupt".to_string(),
                        FaultKind::Straggle { factor } => {
                            format!("kind=straggle factor={factor}")
                        }
                    };
                    out.push_str(&format!(
                        "fault round={} machine={} attempt={} {kind}\n",
                        f.round, f.machine, f.attempt
                    ));
                }
            }
        }
        out
    }

    /// Parses the text format produced by [`FaultPlan::to_text`]:
    ///
    /// ```text
    /// # kcenter fault plan v1
    /// seeded seed=42 crash=0.1 straggle=0.1 corrupt=0.05 straggle-factor=4
    /// ```
    ///
    /// or an explicit schedule, one `fault` line per injected fault:
    ///
    /// ```text
    /// fault round=0 machine=1 attempt=0 kind=crash
    /// fault round=2 machine=0 attempt=1 kind=straggle factor=3.5
    /// ```
    ///
    /// Blank lines and `#` comments are ignored.  A file may contain either
    /// one `seeded` line or any number of `fault` lines, not both.
    pub fn parse_text(text: &str) -> Result<Self, FaultPlanParseError> {
        let mut seeded: Option<FaultPlan> = None;
        let mut faults: Vec<ScheduledFault> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |msg: String| FaultPlanParseError {
                line: lineno + 1,
                message: msg,
            };
            let mut words = line.split_whitespace();
            let head = words.next().unwrap_or_default();
            let pairs = parse_pairs(words).map_err(&err)?;
            let get = |key: &str| -> Result<&str, FaultPlanParseError> {
                pairs
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.as_str())
                    .ok_or_else(|| err(format!("missing {key}= field")))
            };
            match head {
                "seeded" => {
                    if seeded.is_some() || !faults.is_empty() {
                        return Err(err(
                            "a plan holds one seeded line or fault lines, not both/several".into(),
                        ));
                    }
                    let mut rates = FaultRates::default();
                    let seed: u64 = parse_field(get("seed")?, "seed").map_err(&err)?;
                    for (k, v) in &pairs {
                        match k.as_str() {
                            "seed" => {}
                            "crash" => rates.crash = parse_field(v, "crash").map_err(&err)?,
                            "straggle" => {
                                rates.straggle = parse_field(v, "straggle").map_err(&err)?
                            }
                            "corrupt" => rates.corrupt = parse_field(v, "corrupt").map_err(&err)?,
                            "straggle-factor" => {
                                rates.straggle_factor =
                                    parse_field(v, "straggle-factor").map_err(&err)?
                            }
                            other => return Err(err(format!("unknown field {other:?}"))),
                        }
                    }
                    seeded = Some(FaultPlan::Seeded { seed, rates });
                }
                "fault" => {
                    if seeded.is_some() {
                        return Err(err(
                            "a plan holds one seeded line or fault lines, not both".into()
                        ));
                    }
                    let kind = match get("kind")? {
                        "crash" => FaultKind::Crash,
                        "corrupt" => FaultKind::Corrupt,
                        "straggle" => FaultKind::Straggle {
                            factor: match pairs.iter().find(|(k, _)| k == "factor") {
                                Some((_, v)) => parse_field(v, "factor").map_err(&err)?,
                                None => FaultRates::default().straggle_factor,
                            },
                        },
                        other => {
                            return Err(err(format!(
                                "unknown kind {other:?} (expected crash, straggle or corrupt)"
                            )))
                        }
                    };
                    faults.push(ScheduledFault {
                        round: parse_field(get("round")?, "round").map_err(&err)?,
                        machine: parse_field(get("machine")?, "machine").map_err(&err)?,
                        attempt: parse_field(get("attempt")?, "attempt").map_err(&err)?,
                        kind,
                    });
                }
                other => return Err(err(format!("unknown directive {other:?}"))),
            }
        }
        match seeded {
            Some(plan) => Ok(plan),
            None if !faults.is_empty() => Ok(FaultPlan::Explicit(faults)),
            None => Err(FaultPlanParseError {
                line: 0,
                message: "empty plan: expected a seeded line or fault lines".into(),
            }),
        }
    }
}

fn parse_pairs<'a, I: Iterator<Item = &'a str>>(words: I) -> Result<Vec<(String, String)>, String> {
    words
        .map(|w| {
            w.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .ok_or_else(|| format!("expected key=value, found {w:?}"))
        })
        .collect()
}

fn parse_field<T: std::str::FromStr>(value: &str, key: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value {value:?} for {key}"))
}

/// A fault-plan file could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanParseError {
    /// 1-based line number (0 for whole-file errors).
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for FaultPlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "fault plan: {}", self.message)
        } else {
            write!(f, "fault plan line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for FaultPlanParseError {}

/// Stateless hash of `(seed, round, machine, attempt)` to a uniform variate
/// in `[0, 1)` — SplitMix64-style finalisers over the mixed-in coordinates.
fn unit_variate(seed: u64, round: usize, machine: usize, attempt: usize) -> f64 {
    let mut z = seed
        ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (machine as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ (attempt as u64).wrapping_mul(0x1656_67B1_9E37_79F9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // 53 uniform bits -> [0, 1).
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The simulated backoff charged before retry number `retry` (1-based: the
/// first retry is 1): 10 ms, doubling on every further retry, capped at
/// 2^20× — visible next to millisecond-scale round times without
/// dominating them.
pub(crate) fn retry_backoff(retry: usize) -> Duration {
    Duration::from_millis(10).saturating_mul(1u32 << retry.saturating_sub(1).min(20))
}

/// Everything the cluster needs to simulate failures: the plan (what goes
/// wrong), the attempt budget, and whether exhausted partitions may be
/// dropped (degrade mode) instead of failing the round.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// The injected-fault schedule.
    pub plan: FaultPlan,
    /// Maximum executions a partition gets per round (≥ 1); a partition
    /// that fails `max_attempts` times is dead for the round.
    pub max_attempts: usize,
    /// Whether the cluster may drop a partition that exhausts its attempts
    /// in a multi-reducer round (`Cluster::run_round`) and hand the caller
    /// the survivors, recording the drop in its ledger; the drivers (MRG,
    /// EIM, the coreset builders) then report an explicitly partial
    /// certificate.  Without this, and always in a single-reducer round
    /// (`Cluster::run_single`), an exhausted partition fails the job with
    /// `MapReduceError::RoundFailed`.
    pub degrade: bool,
}

impl FaultConfig {
    /// A fault configuration with three attempts per partition and no
    /// degrade mode.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            max_attempts: 3,
            degrade: false,
        }
    }

    /// Replaces the attempt budget (clamped to at least one attempt).
    pub fn with_max_attempts(mut self, max_attempts: usize) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Enables degrade mode.
    pub fn with_degrade(mut self, degrade: bool) -> Self {
        self.degrade = degrade;
        self
    }
}

/// Why a reducer attempt (or a whole partition) failed.  This is the
/// `source()` of `MapReduceError::RoundFailed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCause {
    /// The reducer crashed (injected [`FaultKind::Crash`]).
    Crashed,
    /// The reducer returned output the cluster rejected as corrupt
    /// (injected [`FaultKind::Corrupt`]).
    CorruptOutput,
    /// A genuine output failed validation.  No round produces this cause;
    /// it stays because the KCWC coreset format decodes its tag (2) to it,
    /// so files that carry it still load.
    ValidationFailed,
}

impl fmt::Display for FaultCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultCause::Crashed => write!(f, "the reducer crashed"),
            FaultCause::CorruptOutput => write!(f, "the reducer returned corrupt output"),
            FaultCause::ValidationFailed => {
                write!(f, "the reducer's output failed validation")
            }
        }
    }
}

impl std::error::Error for FaultCause {}

/// One event recorded by the fault-handling machinery during a round.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// An attempt crashed.
    Crashed {
        /// Machine index.
        machine: usize,
        /// 0-based attempt index.
        attempt: usize,
    },
    /// An attempt straggled: its charged time was multiplied by `factor`.
    Straggled {
        /// Machine index.
        machine: usize,
        /// 0-based attempt index.
        attempt: usize,
        /// The slowdown factor that was applied.
        factor: f64,
    },
    /// An attempt's output was rejected as corrupt (see `cause`).
    Rejected {
        /// Machine index.
        machine: usize,
        /// 0-based attempt index.
        attempt: usize,
        /// Why the output was rejected.
        cause: FaultCause,
    },
    /// A failed partition was re-executed after charged backoff.
    Retried {
        /// Machine index.
        machine: usize,
        /// 0-based index of the new attempt.
        attempt: usize,
        /// Simulated backoff charged before this attempt.
        backoff: Duration,
    },
    /// Degrade mode dropped a partition that exhausted its attempts.
    ShardDropped {
        /// Machine index.
        machine: usize,
        /// Number of attempts that were made.
        attempts: usize,
        /// Number of input items that were lost with the shard.
        items: usize,
    },
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEvent::Crashed { machine, attempt } => {
                write!(f, "machine {machine} attempt {attempt}: crashed")
            }
            FaultEvent::Straggled {
                machine,
                attempt,
                factor,
            } => write!(
                f,
                "machine {machine} attempt {attempt}: straggled x{factor}"
            ),
            FaultEvent::Rejected {
                machine,
                attempt,
                cause,
            } => write!(f, "machine {machine} attempt {attempt}: rejected ({cause})"),
            FaultEvent::Retried {
                machine,
                attempt,
                backoff,
            } => write!(
                f,
                "machine {machine}: retry as attempt {attempt} after {backoff:?} backoff"
            ),
            FaultEvent::ShardDropped {
                machine,
                attempts,
                items,
            } => write!(
                f,
                "machine {machine}: shard of {items} items dropped after {attempts} attempts"
            ),
        }
    }
}

/// The fault events of one round, in deterministic order (attempt waves,
/// machines ascending within each wave; shard drops last).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultLog {
    events: Vec<FaultEvent>,
}

impl FaultLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// The recorded events in order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether nothing fault-related happened in the round.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of crashed attempts.
    pub fn crashes(&self) -> usize {
        self.count(|e| matches!(e, FaultEvent::Crashed { .. }))
    }

    /// Number of rejected (corrupt) outputs.
    pub fn rejections(&self) -> usize {
        self.count(|e| matches!(e, FaultEvent::Rejected { .. }))
    }

    /// Number of straggling attempts.
    pub fn stragglers(&self) -> usize {
        self.count(|e| matches!(e, FaultEvent::Straggled { .. }))
    }

    /// Number of retries (re-executions after a failed attempt).
    pub fn retries(&self) -> usize {
        self.count(|e| matches!(e, FaultEvent::Retried { .. }))
    }

    /// Number of shards dropped by degrade mode.
    pub fn shards_dropped(&self) -> usize {
        self.count(|e| matches!(e, FaultEvent::ShardDropped { .. }))
    }

    fn count(&self, pred: impl Fn(&FaultEvent) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }
}

/// A partition that exhausted its attempt budget and was dropped by degrade
/// mode — the provenance record a partial certificate carries.
#[derive(Debug, Clone, PartialEq)]
pub struct DroppedShard {
    /// Round index (within the cluster's job) in which the shard died.
    pub round: usize,
    /// The machine that held the shard.
    pub machine: usize,
    /// Number of attempts that were made before giving up.
    pub attempts: usize,
    /// Number of round-input items lost with the shard.
    pub items: usize,
    /// The failure cause of the final attempt.
    pub cause: FaultCause,
}

impl fmt::Display for DroppedShard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `round=`/`machine=` are the 0-based fault-plan coordinates, so
        // a dropped shard can be looked up in (or turned into) a plan
        // file directly; human-facing round listings are 1-based.
        write!(
            f,
            "round={} machine={}: {} items dropped after {} attempts ({})",
            self.round, self.machine, self.items, self.attempts, self.cause
        )
    }
}

/// Summary of a degraded (partial-coverage) run: how many of the source
/// points the reported certificate actually covers, and which shards were
/// lost.  `covered_points < total_points` means every reported radius is a
/// statement about the surviving subset only.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedRun {
    /// Number of source points the certificate covers.
    pub covered_points: usize,
    /// Number of source points the job started with.
    pub total_points: usize,
    /// The shards that were dropped, in the order they died.
    pub dropped_shards: Vec<DroppedShard>,
}

impl DegradedRun {
    /// Fraction of the source points the certificate covers, in `[0, 1]`.
    pub fn coverage_fraction(&self) -> f64 {
        if self.total_points == 0 {
            return 1.0;
        }
        self.covered_points as f64 / self.total_points as f64
    }
}

/// Fault-accounting totals over a whole job (all rounds' logs summed) —
/// what the CLI prints next to the round accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Total reducer executions, including retries.
    pub attempts: usize,
    /// Re-executions after failed attempts.
    pub retries: usize,
    /// Crashed attempts.
    pub crashes: usize,
    /// Rejected (corrupt) outputs.
    pub rejections: usize,
    /// Straggling attempts.
    pub stragglers: usize,
    /// Shards dropped by degrade mode.
    pub shards_dropped: usize,
    /// The job's total simulated time (the paper's charged metric).
    pub simulated_time: Duration,
    /// The job's total real elapsed time — concurrent elapsed under the
    /// threaded executor, sequential elapsed under the simulated one.
    pub wall_time: Duration,
    /// The executor the job ran on (labels the `wall_time` column).
    pub executor: Executor,
}

impl FaultSummary {
    /// Whether any fault-related activity happened at all beyond the plain
    /// one-attempt-per-machine executions.
    pub fn is_quiet(&self) -> bool {
        self.retries == 0
            && self.crashes == 0
            && self.rejections == 0
            && self.stragglers == 0
            && self.shards_dropped == 0
    }
}

impl fmt::Display for FaultSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} attempts, {} retries, {} crashes, {} rejected outputs, {} stragglers, \
             {} shards dropped; simulated {:?}, wall {:?} on {}",
            self.attempts,
            self.retries,
            self.crashes,
            self.rejections,
            self.stragglers,
            self.shards_dropped,
            self.simulated_time,
            self.wall_time,
            self.executor
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_plan_hits_exactly_the_scheduled_triples() {
        let plan = FaultPlan::explicit(vec![
            ScheduledFault {
                round: 1,
                machine: 2,
                attempt: 0,
                kind: FaultKind::Crash,
            },
            ScheduledFault {
                round: 1,
                machine: 2,
                attempt: 1,
                kind: FaultKind::Corrupt,
            },
        ]);
        assert_eq!(plan.fault_for(1, 2, 0), Some(FaultKind::Crash));
        assert_eq!(plan.fault_for(1, 2, 1), Some(FaultKind::Corrupt));
        assert_eq!(plan.fault_for(1, 2, 2), None);
        assert_eq!(plan.fault_for(0, 2, 0), None);
        assert_eq!(plan.fault_for(1, 1, 0), None);
    }

    #[test]
    fn seeded_plan_is_stateless_and_seed_sensitive() {
        let plan = FaultPlan::seeded(7);
        let a = plan.fault_for(3, 4, 0);
        // Same triple, same answer, in any order and any number of times.
        for _ in 0..3 {
            assert_eq!(plan.fault_for(3, 4, 0), a);
        }
        // Some triple must differ under another seed (rates are ~25%).
        let other = FaultPlan::seeded(8);
        let differs = (0..200).any(|m| plan.fault_for(0, m, 0) != other.fault_for(0, m, 0));
        assert!(differs, "different seeds should schedule different faults");
    }

    #[test]
    fn seeded_rates_are_roughly_respected() {
        let rates = FaultRates {
            crash: 0.2,
            straggle: 0.2,
            corrupt: 0.1,
            straggle_factor: 3.0,
        };
        let plan = FaultPlan::seeded_with_rates(1, rates);
        let n = 20_000;
        let mut crash = 0;
        let mut straggle = 0;
        let mut corrupt = 0;
        for m in 0..n {
            match plan.fault_for(0, m, 0) {
                Some(FaultKind::Crash) => crash += 1,
                Some(FaultKind::Straggle { factor }) => {
                    assert_eq!(factor, 3.0);
                    straggle += 1;
                }
                Some(FaultKind::Corrupt) => corrupt += 1,
                None => {}
            }
        }
        let frac = |c: usize| c as f64 / n as f64;
        assert!(
            (frac(crash) - 0.2).abs() < 0.02,
            "crash rate {}",
            frac(crash)
        );
        assert!(
            (frac(straggle) - 0.2).abs() < 0.02,
            "straggle rate {}",
            frac(straggle)
        );
        assert!(
            (frac(corrupt) - 0.1).abs() < 0.02,
            "corrupt rate {}",
            frac(corrupt)
        );
    }

    #[test]
    fn text_round_trip_preserves_both_plan_forms() {
        let seeded = FaultPlan::seeded_with_rates(
            99,
            FaultRates {
                crash: 0.25,
                straggle: 0.5,
                corrupt: 0.125,
                straggle_factor: 8.0,
            },
        );
        assert_eq!(FaultPlan::parse_text(&seeded.to_text()).unwrap(), seeded);

        let explicit = FaultPlan::explicit(vec![
            ScheduledFault {
                round: 0,
                machine: 1,
                attempt: 0,
                kind: FaultKind::Crash,
            },
            ScheduledFault {
                round: 2,
                machine: 0,
                attempt: 1,
                kind: FaultKind::Straggle { factor: 3.5 },
            },
            ScheduledFault {
                round: 3,
                machine: 4,
                attempt: 0,
                kind: FaultKind::Corrupt,
            },
        ]);
        assert_eq!(
            FaultPlan::parse_text(&explicit.to_text()).unwrap(),
            explicit
        );
    }

    #[test]
    fn parse_rejects_malformed_plans() {
        for (text, fragment) in [
            ("", "empty plan"),
            ("gibberish", "unknown directive"),
            ("seeded crash=0.1", "missing seed="),
            ("seeded seed=abc", "invalid value"),
            ("fault round=0 machine=0 attempt=0", "missing kind="),
            (
                "fault round=0 machine=0 attempt=0 kind=melt",
                "unknown kind",
            ),
            (
                "fault round=x machine=0 attempt=0 kind=crash",
                "invalid value",
            ),
            (
                "seeded seed=1\nfault round=0 machine=0 attempt=0 kind=crash",
                "not both",
            ),
            ("seeded seed=1 novelty=2", "unknown field"),
        ] {
            let err = FaultPlan::parse_text(text).unwrap_err();
            assert!(
                err.to_string().contains(fragment),
                "text {text:?}: error {err} should mention {fragment:?}"
            );
        }
    }

    #[test]
    fn backoff_schedules() {
        assert_eq!(retry_backoff(1), Duration::from_millis(10));
        assert_eq!(retry_backoff(2), Duration::from_millis(20));
        assert_eq!(retry_backoff(3), Duration::from_millis(40));
        // The doubling stops at 2^20×.
        assert_eq!(retry_backoff(21), Duration::from_millis(10 << 20));
        assert_eq!(retry_backoff(64), Duration::from_millis(10 << 20));
    }

    #[test]
    fn fault_log_counts_by_kind() {
        let mut log = FaultLog::new();
        log.push(FaultEvent::Crashed {
            machine: 0,
            attempt: 0,
        });
        log.push(FaultEvent::Retried {
            machine: 0,
            attempt: 1,
            backoff: Duration::from_millis(10),
        });
        log.push(FaultEvent::Straggled {
            machine: 1,
            attempt: 0,
            factor: 4.0,
        });
        log.push(FaultEvent::Rejected {
            machine: 2,
            attempt: 0,
            cause: FaultCause::CorruptOutput,
        });
        log.push(FaultEvent::ShardDropped {
            machine: 2,
            attempts: 3,
            items: 17,
        });
        assert_eq!(log.crashes(), 1);
        assert_eq!(log.retries(), 1);
        assert_eq!(log.stragglers(), 1);
        assert_eq!(log.rejections(), 1);
        assert_eq!(log.shards_dropped(), 1);
        assert!(!log.is_empty());
        assert_eq!(log.events().len(), 5);
    }

    #[test]
    fn degraded_run_reports_its_coverage_fraction() {
        let run = DegradedRun {
            covered_points: 750,
            total_points: 1000,
            dropped_shards: vec![DroppedShard {
                round: 0,
                machine: 3,
                attempts: 3,
                items: 250,
                cause: FaultCause::Crashed,
            }],
        };
        assert!((run.coverage_fraction() - 0.75).abs() < 1e-12);
        let display = run.dropped_shards[0].to_string();
        // Display coordinates use fault-plan syntax (0-based round=/machine=).
        assert!(display.contains("round=0 machine=3") && display.contains("250"));
    }

    #[test]
    fn fault_summary_display_mentions_every_counter() {
        let s = FaultSummary {
            attempts: 10,
            retries: 2,
            crashes: 1,
            rejections: 1,
            stragglers: 3,
            shards_dropped: 0,
            simulated_time: Duration::from_millis(12),
            wall_time: Duration::from_millis(34),
            executor: Executor::threads(2),
        };
        let text = s.to_string();
        for word in [
            "attempts",
            "retries",
            "crashes",
            "stragglers",
            "dropped",
            "simulated 12ms",
            "wall 34ms",
            "threads(x2)",
        ] {
            assert!(text.contains(word), "summary missing {word}: {text}");
        }
        assert!(!s.is_quiet());
        assert!(FaultSummary::default().is_quiet());
    }
}
