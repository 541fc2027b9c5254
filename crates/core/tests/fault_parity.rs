//! Fault-tolerance parity properties.
//!
//! The fault layer's central promise: as long as every partition
//! eventually succeeds within its attempt budget, retries, backoff and
//! stragglers must not change a single bit of any algorithm's output — the
//! determinism tuple stays `(seed, precision, kernel, assign)`, never
//! "and the fault schedule".  These tests drive random seeded fault plans
//! through MRG, EIM and both coreset builders and demand bit-identical
//! results, plus pin the degrade-mode contract: a run that drops shards
//! must say exactly which fraction of the input its certificate still
//! covers.
//!
//! The executor is held to the same standard: running the same drivers on
//! the threaded executor at a *random* worker budget — with the same
//! random survivable fault plan active — must reproduce the simulated
//! run's outputs bit for bit, so "executor" never joins the determinism
//! tuple either.  No measured time steers the fault handling, so each
//! round's attempt count and fault-event lines match across executors too.

use kcenter_core::hash::Fnv;
use kcenter_core::prelude::*;
use kcenter_mapreduce::{
    Cluster, ClusterConfig, DroppedShard, Executor, FaultCause, FaultConfig, FaultKind, FaultPlan,
    FaultRates, JobStats, MapReduceError, ScheduledFault,
};
use kcenter_metric::{Point, VecSpace};
use proptest::prelude::*;

/// Deterministic pseudo-random cloud of `n` points in a 100x100 square.
fn cloud(n: usize, seed: u64) -> VecSpace {
    VecSpace::new(
        (0..n)
            .map(|i| {
                let v = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64)
                    .wrapping_mul(0xD129_0DDB_53C4_3E49);
                let x = (v % 10_000) as f64 / 100.0;
                let y = ((v >> 20) % 10_000) as f64 / 100.0;
                Point::xy(x, y)
            })
            .collect(),
    )
}

/// A random seeded fault plan whose 64-attempt budget makes eventual
/// success overwhelmingly certain (per-attempt failure stays below 45%,
/// so a shard failing all attempts has probability under 0.45^64).
fn chaotic_faults() -> impl Strategy<Value = FaultConfig> {
    (
        any::<u64>(),
        0.0f64..0.3,
        0.0f64..0.3,
        0.0f64..0.15,
        1.0f64..8.0,
    )
        .prop_map(|(seed, crash, straggle, corrupt, straggle_factor)| {
            let rates = FaultRates {
                crash,
                straggle,
                corrupt,
                straggle_factor,
            };
            FaultConfig::new(FaultPlan::seeded_with_rates(seed, rates)).with_max_attempts(64)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn mrg_output_is_bit_identical_under_survivable_faults(faults in chaotic_faults()) {
        let space = cloud(800, 41);
        let clean = MrgConfig::new(6).with_machines(8).run(&space).unwrap();
        let faulty = MrgConfig::new(6)
            .with_machines(8)
            .with_faults(faults)
            .run(&space)
            .unwrap();
        prop_assert_eq!(&clean.solution.centers, &faulty.solution.centers);
        prop_assert_eq!(clean.solution.radius, faulty.solution.radius);
        prop_assert_eq!(clean.mapreduce_rounds, faulty.mapreduce_rounds);
        prop_assert!(faulty.degraded.is_none());
    }

    #[test]
    fn eim_output_is_bit_identical_under_survivable_faults(faults in chaotic_faults()) {
        let space = cloud(800, 42);
        let config = EimConfig::new(3).with_machines(6).with_epsilon(0.13).with_seed(7);
        let clean = config.run(&space).unwrap();
        let faulty = config.clone().with_faults(faults).run(&space).unwrap();
        prop_assert_eq!(&clean.solution.centers, &faulty.solution.centers);
        prop_assert_eq!(clean.solution.radius, faulty.solution.radius);
        prop_assert_eq!(clean.iterations, faulty.iterations);
        prop_assert_eq!(clean.sample_size, faulty.sample_size);
        prop_assert!(faulty.degraded.is_none());
    }

    #[test]
    fn coreset_builds_and_solves_are_bit_identical_under_survivable_faults(
        faults in chaotic_faults()
    ) {
        let space = cloud(800, 43);

        let clean = GonzalezCoresetConfig::new(48).with_machines(6).build(&space).unwrap();
        let faulty = GonzalezCoresetConfig::new(48)
            .with_machines(6)
            .with_faults(faults.clone())
            .build(&space)
            .unwrap();
        prop_assert_eq!(clean.source_ids(), faulty.source_ids());
        prop_assert_eq!(clean.weights(), faulty.weights());
        prop_assert_eq!(clean.construction_radius(), faulty.construction_radius());
        prop_assert!(!faulty.is_partial());
        // The certified sweep cells downstream match bit-for-bit too.
        let solver = SequentialSolver::Gonzalez;
        let a = clean.solve(4, solver, FirstCenter::default()).unwrap();
        let b = faulty.solve(4, solver, FirstCenter::default()).unwrap();
        prop_assert_eq!(a, b);

        let config = EimConfig::new(3).with_machines(6).with_epsilon(0.13).with_seed(7);
        let clean = config.build_coreset(&space).unwrap();
        let faulty = config.clone().with_faults(faults).build_coreset(&space).unwrap();
        prop_assert_eq!(clean.source_ids(), faulty.source_ids());
        prop_assert_eq!(clean.weights(), faulty.weights());
        prop_assert_eq!(clean.construction_radius(), faulty.construction_radius());
        prop_assert!(!faulty.is_partial());
    }

    #[test]
    fn mrg_threaded_executor_matches_simulated_under_survivable_faults(
        threads in 1usize..=8,
        faults in chaotic_faults(),
    ) {
        let space = cloud(800, 45);
        let config = MrgConfig::new(6).with_machines(8).with_faults(faults);
        let simulated = config.clone().run(&space).unwrap();
        let threaded = config
            .with_executor(Executor::threads(threads))
            .run(&space)
            .unwrap();
        prop_assert_eq!(&simulated.solution.centers, &threaded.solution.centers);
        prop_assert_eq!(simulated.solution.radius, threaded.solution.radius);
        prop_assert_eq!(simulated.mapreduce_rounds, threaded.mapreduce_rounds);
        prop_assert_eq!(round_log(&simulated.stats), round_log(&threaded.stats));
        prop_assert!(threaded.degraded.is_none());
    }

    #[test]
    fn eim_threaded_executor_matches_simulated_under_survivable_faults(
        threads in 1usize..=8,
        faults in chaotic_faults(),
    ) {
        let space = cloud(800, 46);
        let config = EimConfig::new(3)
            .with_machines(6)
            .with_epsilon(0.13)
            .with_seed(7)
            .with_faults(faults);
        let simulated = config.clone().run(&space).unwrap();
        let threaded = config
            .with_executor(Executor::threads(threads))
            .run(&space)
            .unwrap();
        prop_assert_eq!(&simulated.solution.centers, &threaded.solution.centers);
        prop_assert_eq!(simulated.solution.radius, threaded.solution.radius);
        prop_assert_eq!(simulated.iterations, threaded.iterations);
        prop_assert_eq!(simulated.sample_size, threaded.sample_size);
        prop_assert_eq!(round_log(&simulated.stats), round_log(&threaded.stats));
        prop_assert!(threaded.degraded.is_none());
    }

    #[test]
    fn coreset_builders_threaded_executor_matches_simulated_under_survivable_faults(
        threads in 1usize..=8,
        faults in chaotic_faults(),
    ) {
        let space = cloud(800, 47);

        let config = GonzalezCoresetConfig::new(48)
            .with_machines(6)
            .with_faults(faults.clone());
        let simulated = config.clone().build(&space).unwrap();
        let threaded = config
            .with_executor(Executor::threads(threads))
            .build(&space)
            .unwrap();
        prop_assert_eq!(simulated.source_ids(), threaded.source_ids());
        prop_assert_eq!(simulated.weights(), threaded.weights());
        prop_assert_eq!(simulated.construction_radius(), threaded.construction_radius());
        prop_assert_eq!(round_log(simulated.stats()), round_log(threaded.stats()));
        prop_assert!(!threaded.is_partial());
        let solver = SequentialSolver::Gonzalez;
        let a = simulated.solve(4, solver, FirstCenter::default()).unwrap();
        let b = threaded.solve(4, solver, FirstCenter::default()).unwrap();
        prop_assert_eq!(a, b);

        let config = EimConfig::new(3)
            .with_machines(6)
            .with_epsilon(0.13)
            .with_seed(7)
            .with_faults(faults);
        let simulated = config.clone().build_coreset(&space).unwrap();
        let threaded = config
            .with_executor(Executor::threads(threads))
            .build_coreset(&space)
            .unwrap();
        prop_assert_eq!(simulated.source_ids(), threaded.source_ids());
        prop_assert_eq!(simulated.weights(), threaded.weights());
        prop_assert_eq!(simulated.construction_radius(), threaded.construction_radius());
        prop_assert_eq!(round_log(simulated.stats()), round_log(threaded.stats()));
        prop_assert!(!threaded.is_partial());
    }
}

/// Degrade mode pins the partial-certificate contract exactly: known dead
/// shard, known coverage fraction, radius restated over the survivors.
#[test]
fn degraded_coreset_pins_its_coverage_fraction_and_provenance() {
    let space = cloud(2_000, 44);
    // Machine 7 of the data-holding round 0 dies on every attempt; the
    // other nine shards (200 points each) survive.
    let plan = FaultPlan::explicit(
        (0..3)
            .map(|attempt| ScheduledFault {
                round: 0,
                machine: 7,
                attempt,
                kind: FaultKind::Crash,
            })
            .collect(),
    );
    let faults = FaultConfig::new(plan)
        .with_max_attempts(3)
        .with_degrade(true);

    let coreset = GonzalezCoresetConfig::new(64)
        .with_machines(10)
        .with_faults(faults.clone())
        .build(&space)
        .unwrap();
    assert!(coreset.is_partial());
    assert_eq!(coreset.coverage().covered_source_len, 1_800);
    assert_eq!(coreset.coverage_fraction(), 0.9);
    assert_eq!(coreset.total_weight(), 1_800);
    let shard = &coreset.coverage().dropped_shards[0];
    assert_eq!(
        (shard.round, shard.machine, shard.attempts, shard.items),
        (0, 7, 3, 200)
    );
    // The lost ids are exactly machine 7's chunk, and solutions inherit
    // the partial coverage instead of claiming the full input.
    assert_eq!(coreset.coverage().lost_source_ids.len(), 200);
    assert_eq!(coreset.coverage().lost_source_ids[0], 1_400);
    let sol = coreset
        .solve(5, SequentialSolver::Gonzalez, FirstCenter::default())
        .unwrap();
    assert!(sol.is_partial());
    assert_eq!(sol.covered_fraction, 0.9);
    let covered = coreset.certify_covered(&space, &sol);
    assert!(covered <= sol.radius_bound + 1e-9);

    // The same plan degrades MRG with the same disclosure.
    let result = MrgConfig::new(5)
        .with_machines(10)
        .with_faults(faults)
        .run(&space)
        .unwrap();
    let degraded = result.degraded.expect("MRG run must be marked degraded");
    assert_eq!(degraded.covered_points, 1_800);
    assert_eq!(degraded.total_points, 2_000);
    assert_eq!(degraded.coverage_fraction(), 0.9);
    assert_eq!(degraded.dropped_shards.len(), 1);
}

/// Integer coordinates in a 1000x1000 square: every squared distance is an
/// exact small integer, so every kernel backend computes the same bits.
fn integer_cloud(n: usize, seed: u64) -> VecSpace {
    VecSpace::new(
        (0..n)
            .map(|i| {
                let v = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64)
                    .wrapping_mul(0xD129_0DDB_53C4_3E49);
                Point::xy((v % 1_000) as f64, ((v >> 20) % 1_000) as f64)
            })
            .collect(),
    )
}

/// Degrade mode on: each listed `(round, machine)` crashes on all three
/// of its attempts, so the cluster drops exactly those shards.
fn dropping(shards: &[(usize, usize)]) -> FaultConfig {
    let plan = FaultPlan::explicit(
        shards
            .iter()
            .flat_map(|&(round, machine)| {
                (0..3).map(move |attempt| ScheduledFault {
                    round,
                    machine,
                    attempt,
                    kind: FaultKind::Crash,
                })
            })
            .collect(),
    );
    FaultConfig::new(plan)
        .with_max_attempts(3)
        .with_degrade(true)
}

/// Everything a degraded run is pinned on, one fact per line: the run's
/// `answer` (its centers or representatives), the radius bits, the
/// coverage, every dropped shard, and per round its label, attempt count
/// and fault-event lines.
fn pin(
    answer: String,
    radius: f64,
    (covered, total): (usize, usize),
    dropped: &[DroppedShard],
    stats: &JobStats,
) -> String {
    let mut out = format!(
        "{answer}\nradius {:#018x}\ncovered {covered} of {total}\n",
        radius.to_bits()
    );
    for shard in dropped {
        out += &format!("dropped {shard}\n");
    }
    out + &round_log(stats)
}

/// Per round, its label and attempt count, then its fault-event lines.
fn round_log(stats: &JobStats) -> String {
    let mut out = String::new();
    for round in stats.rounds() {
        out += &format!("round {:?} attempts {}\n", round.label, round.attempts);
        for event in round.faults.events() {
            out += &format!("  {event}\n");
        }
    }
    out
}

/// Runs `run` under the simulated executor and on two threads, demands
/// the same pin from both, and returns it.
fn pinned_on_both_executors(run: impl Fn(Executor) -> String) -> String {
    let simulated = run(Executor::Simulated);
    assert_eq!(simulated, run(Executor::threads(2)));
    simulated
}

const MRG_DEGRADE_PLAN: &[(usize, usize)] = &[(0, 3)];
const EIM_DEGRADE_PLAN: &[(usize, usize)] = &[(0, 1), (1, 0), (2, 0)];
const GONZALEZ_CORESET_DEGRADE_PLAN: &[(usize, usize)] = &[(0, 2), (2, 4)];

fn mrg_config() -> MrgConfig {
    MrgConfig::new(5).with_machines(10).with_capacity(400)
}

fn eim_config() -> EimConfig {
    EimConfig::new(2)
        .with_machines(6)
        .with_epsilon(0.13)
        .with_seed(7)
}

/// MRG loses round 0's machine 3: its 400 source points leave the claim.
const MRG_PIN: &str = r#"centers [0, 964, 1978, 81, 391]
radius 0x407eef45cf44175d
covered 3600 of 4000
dropped round=0 machine=3: 400 items dropped after 3 attempts (the reducer crashed)
round "MRG reduction round 1 (gonzalez on 10 machines)" attempts 12
  machine 3 attempt 0: crashed
  machine 3: retry as attempt 1 after 10ms backoff
  machine 3 attempt 1: crashed
  machine 3: retry as attempt 2 after 20ms backoff
  machine 3 attempt 2: crashed
  machine 3: shard of 400 items dropped after 3 attempts
round "MRG final round (gonzalez on 1 machine)" attempts 1
"#;

#[test]
fn degraded_mrg_run_is_pinned_on_both_executors() {
    let space = integer_cloud(4_000, 51);
    let got = pinned_on_both_executors(|executor| {
        let result = mrg_config()
            .with_faults(dropping(MRG_DEGRADE_PLAN))
            .with_executor(executor)
            .run(&space)
            .unwrap();
        let degraded = result.degraded.expect("round 0 lost a shard");
        pin(
            format!("centers {:?}", result.solution.centers),
            result.solution.radius,
            (degraded.covered_points, degraded.total_points),
            &degraded.dropped_shards,
            &result.stats,
        )
    });
    assert_eq!(got, MRG_PIN);
}

/// EIM loses iteration 1's round-1 machine 1 (its chunk leaves the claim),
/// its Select round (no points lost, the iteration filters nothing) and
/// its filter round's machine 0 (the unsampled part of the chunk leaves).
const EIM_PIN: &str = r#"centers [14, 1516]
radius 0x4087b82b2c07ee14
covered 2844 of 4000
dropped round=0 machine=1: 667 items dropped after 3 attempts (the reducer crashed)
dropped round=1 machine=0: 69 items dropped after 3 attempts (the reducer crashed)
dropped round=2 machine=0: 556 items dropped after 3 attempts (the reducer crashed)
round "EIM iteration 1 round 1: sample S and H" attempts 8
  machine 1 attempt 0: crashed
  machine 1: retry as attempt 1 after 10ms backoff
  machine 1 attempt 1: crashed
  machine 1: retry as attempt 2 after 20ms backoff
  machine 1 attempt 2: crashed
  machine 1: shard of 667 items dropped after 3 attempts
round "EIM iteration 1 round 2: Select(H, S)" attempts 3
  machine 0 attempt 0: crashed
  machine 0: retry as attempt 1 after 10ms backoff
  machine 0 attempt 1: crashed
  machine 0: retry as attempt 2 after 20ms backoff
  machine 0 attempt 2: crashed
  machine 0: shard of 69 items dropped after 3 attempts
round "EIM iteration 1 round 3: filter R" attempts 8
  machine 0 attempt 0: crashed
  machine 0: retry as attempt 1 after 10ms backoff
  machine 0 attempt 1: crashed
  machine 0: retry as attempt 2 after 20ms backoff
  machine 0 attempt 2: crashed
  machine 0: shard of 556 items dropped after 3 attempts
round "EIM iteration 2 round 1: sample S and H" attempts 6
round "EIM iteration 2 round 2: Select(H, S)" attempts 1
round "EIM iteration 2 round 3: filter R" attempts 6
round "EIM iteration 3 round 1: sample S and H" attempts 6
round "EIM iteration 3 round 2: Select(H, S)" attempts 1
round "EIM iteration 3 round 3: filter R" attempts 6
round "EIM final round: gonzalez on the sample" attempts 1
"#;

#[test]
fn degraded_eim_run_is_pinned_on_both_executors() {
    let space = integer_cloud(4_000, 52);
    let got = pinned_on_both_executors(|executor| {
        let result = eim_config()
            .with_faults(dropping(EIM_DEGRADE_PLAN))
            .with_executor(executor)
            .run(&space)
            .unwrap();
        let degraded = result.degraded.expect("three rounds lost a shard");
        pin(
            format!("centers {:?}", result.solution.centers),
            result.solution.radius,
            (degraded.covered_points, degraded.total_points),
            &degraded.dropped_shards,
            &result.stats,
        )
    });
    assert_eq!(got, EIM_PIN);
}

/// A coreset's pin: its representatives and weights enter as FNV-1a
/// digests (an EIM coreset keeps over a thousand rows).
fn coreset_pin(coreset: &WeightedCoreset) -> String {
    let digest = |values: &[u64]| {
        let mut h = Fnv::new();
        values.iter().for_each(|&v| h.write_u64(v));
        h.finish()
    };
    let ids: Vec<u64> = coreset.source_ids().iter().map(|&id| id as u64).collect();
    let coverage = coreset.coverage();
    pin(
        format!(
            "representatives {} digest {:#018x}\nweights digest {:#018x}",
            ids.len(),
            digest(&ids),
            digest(coreset.weights())
        ),
        coreset.construction_radius(),
        (coverage.covered_source_len, coreset.source_len()),
        &coverage.dropped_shards,
        coreset.stats(),
    )
}

/// The Gonzalez coreset loses round 0's machine 2 and the weights round's
/// machine 4: both chunks leave the claim.
const GONZALEZ_CORESET_PIN: &str = r#"representatives 16 digest 0x570017cc4ba15758
weights digest 0x6f19f0dbbdd4a789
radius 0x406b0225d72ae0d6
covered 2777 of 4000
dropped round=0 machine=2: 667 items dropped after 3 attempts (the reducer crashed)
dropped round=2 machine=4: 556 items dropped after 3 attempts (the reducer crashed)
round "coreset round 1: local gonzalez (t=16 on 6 machines)" attempts 8
  machine 2 attempt 0: crashed
  machine 2: retry as attempt 1 after 10ms backoff
  machine 2 attempt 1: crashed
  machine 2: retry as attempt 2 after 20ms backoff
  machine 2 attempt 2: crashed
  machine 2: shard of 667 items dropped after 3 attempts
round "coreset round 2: merge local coresets" attempts 1
round "coreset round 3: weights + certification [dense]" attempts 8
  machine 4 attempt 0: crashed
  machine 4: retry as attempt 1 after 10ms backoff
  machine 4 attempt 1: crashed
  machine 4: retry as attempt 2 after 20ms backoff
  machine 4 attempt 2: crashed
  machine 4: shard of 556 items dropped after 3 attempts
"#;

#[test]
fn degraded_gonzalez_coreset_is_pinned_on_both_executors() {
    let space = integer_cloud(4_000, 53);
    let got = pinned_on_both_executors(|executor| {
        let coreset = GonzalezCoresetConfig::new(16)
            .with_machines(6)
            .with_faults(dropping(GONZALEZ_CORESET_DEGRADE_PLAN))
            .with_executor(executor)
            .build(&space)
            .unwrap();
        coreset_pin(&coreset)
    });
    assert_eq!(got, GONZALEZ_CORESET_PIN);
}

/// The EIM coreset under the EIM plan: the same three drops, then a clean
/// weights round over the survivors.
const EIM_CORESET_PIN: &str = r#"representatives 2249 digest 0x6e8be598797cfc02
weights digest 0x558a347a850e0d61
radius 0x4022706821902e9a
covered 2844 of 4000
dropped round=0 machine=1: 667 items dropped after 3 attempts (the reducer crashed)
dropped round=1 machine=0: 69 items dropped after 3 attempts (the reducer crashed)
dropped round=2 machine=0: 556 items dropped after 3 attempts (the reducer crashed)
round "coreset EIM iteration 1 round 1: sample S and H" attempts 8
  machine 1 attempt 0: crashed
  machine 1: retry as attempt 1 after 10ms backoff
  machine 1 attempt 1: crashed
  machine 1: retry as attempt 2 after 20ms backoff
  machine 1 attempt 2: crashed
  machine 1: shard of 667 items dropped after 3 attempts
round "coreset EIM iteration 1 round 2: Select(H, S)" attempts 3
  machine 0 attempt 0: crashed
  machine 0: retry as attempt 1 after 10ms backoff
  machine 0 attempt 1: crashed
  machine 0: retry as attempt 2 after 20ms backoff
  machine 0 attempt 2: crashed
  machine 0: shard of 69 items dropped after 3 attempts
round "coreset EIM iteration 1 round 3: filter R" attempts 8
  machine 0 attempt 0: crashed
  machine 0: retry as attempt 1 after 10ms backoff
  machine 0 attempt 1: crashed
  machine 0: retry as attempt 2 after 20ms backoff
  machine 0 attempt 2: crashed
  machine 0: shard of 556 items dropped after 3 attempts
round "coreset EIM iteration 2 round 1: sample S and H" attempts 6
round "coreset EIM iteration 2 round 2: Select(H, S)" attempts 1
round "coreset EIM iteration 2 round 3: filter R" attempts 6
round "coreset EIM iteration 3 round 1: sample S and H" attempts 6
round "coreset EIM iteration 3 round 2: Select(H, S)" attempts 1
round "coreset EIM iteration 3 round 3: filter R" attempts 6
round "coreset final round: weights + certification [dense]" attempts 6
"#;

#[test]
fn degraded_eim_coreset_is_pinned_on_both_executors() {
    let space = integer_cloud(4_000, 54);
    let got = pinned_on_both_executors(|executor| {
        let coreset = eim_config()
            .with_faults(dropping(EIM_DEGRADE_PLAN))
            .with_executor(executor)
            .build_coreset(&space)
            .unwrap();
        coreset_pin(&coreset)
    });
    assert_eq!(got, EIM_CORESET_PIN);
}

/// A single-reducer round never degrades: losing MRG's final round, EIM's
/// final round (round 9 after three iterations) or the coreset merge round
/// leaves nothing to degrade to, so the run fails even in degrade mode.
#[test]
fn degrade_mode_never_drops_a_single_reducer_round() {
    let space = integer_cloud(4_000, 55);
    let failed = |round| {
        KCenterError::MapReduce(MapReduceError::RoundFailed {
            round,
            machine: 0,
            attempts: 3,
            source: FaultCause::Crashed,
        })
    };
    for executor in [Executor::Simulated, Executor::threads(2)] {
        let mrg = mrg_config()
            .with_faults(dropping(&[(1, 0)]))
            .with_executor(executor)
            .run(&space);
        assert_eq!(mrg.unwrap_err(), failed(1));
        let eim = eim_config()
            .with_faults(dropping(&[(9, 0)]))
            .with_executor(executor)
            .run(&space);
        assert_eq!(eim.unwrap_err(), failed(9));
        let coreset = GonzalezCoresetConfig::new(16)
            .with_machines(6)
            .with_faults(dropping(&[(1, 0)]))
            .with_executor(executor)
            .build(&space);
        assert_eq!(coreset.unwrap_err(), failed(1));
    }
}

/// With `t >= n` every point is a representative, and losing the weights
/// round's machine 5 leaves representatives 50..59 with weight 0: no
/// surviving point is nearest to them.  Both solvers must neither pick
/// them as centers nor count them as coverage obligations, on and off the
/// cluster, and recompress must keep none of them.  An unfiltered GON at
/// k = 12 would pick 54, 56 and 59.
const ZERO_WEIGHT_PIN: &str = r#"gonzalez k=3 centers [0, 47, 48] radius 0x40833b3e94d83545
gonzalez k=12 centers [0, 47, 48, 30, 4, 39, 20, 9, 22, 1, 21, 12] radius 0x406934a9cfbd4371
hochbaum-shmoys k=3 centers [0, 11, 15] radius 0x4082380fcecb0925
hochbaum-shmoys k=12 centers [0, 2, 4, 5, 9, 20, 23, 24] radius 0x40702c4ab1e86637
recompress 20 source ids [0, 47, 48, 30, 4, 39, 20, 9, 22, 1, 21, 12, 11, 25, 44, 31, 17, 18, 36, 13]
weights [3, 2, 2, 1, 4, 3, 2, 3, 1, 3, 2, 4, 2, 3, 3, 3, 1, 2, 4, 2]
radius 0x4065f06edb2b01b8
"#;

#[test]
fn zero_weight_representatives_are_pinned() {
    let space = integer_cloud(60, 56);
    let coreset = GonzalezCoresetConfig::new(64)
        .with_machines(6)
        .with_faults(dropping(&[(2, 5)]))
        .build(&space)
        .unwrap();
    let mut unit_then_zero = vec![1u64; 50];
    unit_then_zero.resize(60, 0);
    assert_eq!(coreset.weights(), &unit_then_zero[..]);

    let mut got = String::new();
    let mut cluster = Cluster::unchecked(ClusterConfig::new(1, coreset.len()));
    for solver in [SequentialSolver::Gonzalez, SequentialSolver::HochbaumShmoys] {
        for k in [3, 12] {
            let first = FirstCenter::default();
            let sol = coreset.solve(k, solver, first).unwrap();
            let label = format!("sweep solve {} k={k}", solver.name());
            let charged = coreset
                .solve_on_cluster(k, solver, first, &mut cluster, &label)
                .unwrap();
            assert_eq!(sol, charged, "{label}");
            got += &format!(
                "{} k={k} centers {:?} radius {:#018x}\n",
                solver.name(),
                sol.local_centers,
                sol.coreset_radius.to_bits()
            );
        }
    }
    let squeezed = coreset.recompress(20).unwrap();
    got += &format!(
        "recompress 20 source ids {:?}\nweights {:?}\nradius {:#018x}\n",
        squeezed.source_ids(),
        squeezed.weights(),
        squeezed.construction_radius().to_bits()
    );
    assert_eq!(got, ZERO_WEIGHT_PIN);
}
