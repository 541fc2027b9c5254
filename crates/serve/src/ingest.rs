//! The checkpointed ingest loop: fold batches, heal drops, persist, serve.
//!
//! Per batch the loop (1) builds a weighted coreset of the batch with the
//! existing fault-aware MapReduce builder, (2) if degrade mode dropped
//! shards, **re-ingests** the lost rows from the stream and heals the
//! summary back to full coverage (`absorb_reingested`) instead of
//! disclosing them as lost, (3) merges the batch summary into the
//! accumulated coreset and re-compresses when it exceeds the budget,
//! (4) atomically checkpoints the accumulated state, and (5) publishes a
//! fresh query snapshot.
//!
//! # Crash-consistency contract
//!
//! The checkpoint is written *after* a batch is fully folded, so a crash
//! anywhere re-runs at most one batch on resume — and because every batch
//! build is deterministic per `(seed, precision, kernel, assign)`, the
//! re-run folds the *identical* summary the crashed attempt would have.
//! The checkpoint also carries the cumulative counters, so on every
//! deterministic column — the coreset bytes, the certificate, the round
//! and re-ingestion counts — a killed-and-resumed run's final report is
//! bit-for-bit the report of an uninterrupted twin.  (Simulated and wall
//! time are *measurements* in this codebase, accumulated for reporting
//! but never gated exactly; see `ReportTolerance`.)
//!
//! Crashes are modelled deterministically with [`KillPoint`]s, composing
//! with the seeded [`FaultPlan`] machinery: `--fault-seed` decides which
//! shards drop, the kill point decides where the process dies.
//! [`KillStage::DuringCheckpoint`] dies mid-write — it leaves a torn
//! `.tmp` behind and the *previous* checkpoint intact, which is exactly
//! the window the atomic rename protocol exists for.

use std::path::{Path, PathBuf};

use kcenter_core::hash::Fnv;
use kcenter_core::{
    FirstCenter, GonzalezCoresetConfig, KCenterError, SequentialSolver, WeightedCoreset,
};
use kcenter_mapreduce::{Executor, FaultConfig, FaultPlan};
use kcenter_metric::{Distance, PointId, Scalar};

use crate::checkpoint::{self, CheckpointError, CheckpointMeta};
use crate::snapshot::{CenterSnapshot, SnapshotCell};
use crate::stream::{BatchStream, StreamConfig, StreamError};

/// Where an injected crash kills the ingest process relative to batch
/// `batch`'s checkpoint write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillStage {
    /// After the fold, before any checkpoint bytes are written: the batch
    /// is lost and re-folded on resume.
    BeforeCheckpoint,
    /// Mid-write: a torn `.tmp` is left behind, the previous checkpoint
    /// stays intact, and resume re-folds the batch.
    DuringCheckpoint,
    /// After the rename is durable: resume continues with the next batch.
    AfterCheckpoint,
}

impl KillStage {
    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            KillStage::BeforeCheckpoint => "before-checkpoint",
            KillStage::DuringCheckpoint => "during-checkpoint",
            KillStage::AfterCheckpoint => "after-checkpoint",
        }
    }

    /// Parses a CLI name (inverse of [`KillStage::name`]).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "before-checkpoint" => Some(KillStage::BeforeCheckpoint),
            "during-checkpoint" => Some(KillStage::DuringCheckpoint),
            "after-checkpoint" => Some(KillStage::AfterCheckpoint),
            _ => None,
        }
    }
}

/// A deterministic injected crash: die at `stage` of batch `batch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPoint {
    /// Batch index (0-based) whose processing is interrupted.
    pub batch: usize,
    /// Where relative to that batch's checkpoint the process dies.
    pub stage: KillStage,
}

/// Full configuration of an ingest run.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// The batched stream to fold.
    pub stream: StreamConfig,
    /// Representatives per batch summary.
    pub t: usize,
    /// Budget for the accumulated coreset: after a merge pushes the
    /// representative count above this, the state is re-compressed (the
    /// certificate widens additively; see `WeightedCoreset::recompress`).
    pub budget: usize,
    /// Simulated machines per batch build.
    pub machines: usize,
    /// Optional deterministic fault injection for the batch builds.  Each
    /// batch derives its own plan seed from the base seed, so different
    /// batches see different (but reproducible) faults.
    pub faults: Option<FaultConfig>,
    /// How cluster rounds execute.  Deliberately **not** part of the
    /// config digest: the executor is pinned as a determinism invariant,
    /// so a checkpoint written under the simulated executor may be resumed
    /// under the threaded one (and vice versa) with identical results.
    pub executor: Executor,
    /// Centers to select for the published query snapshot after each fold
    /// (clamped to the accumulated representative count).
    pub solve_k: usize,
    /// Optional deterministic crash injection.
    pub kill: Option<KillPoint>,
}

/// What an ingest run produced.
#[derive(Debug)]
pub struct IngestOutcome<D: Distance, S: Scalar = f64> {
    /// The accumulated full-stream coreset.
    pub coreset: WeightedCoreset<D, S>,
    /// Final progress meta (as persisted in the last checkpoint).
    pub meta: CheckpointMeta,
    /// `Some(b)` when the run resumed from a checkpoint with `b` batches
    /// already folded.
    pub resumed_from: Option<u64>,
    /// Batches folded by *this* run (total minus resumed).
    pub batches_folded: usize,
}

/// Ingest failures.  Every variant names what went wrong; none panic.
#[derive(Debug)]
pub enum IngestError {
    /// The stream configuration was invalid.
    Stream(StreamError),
    /// Reading or writing the checkpoint failed.
    Checkpoint(CheckpointError),
    /// A checkpoint exists but belongs to a different configuration —
    /// resuming it would silently corrupt the fold.
    ConfigMismatch {
        /// Digest stored in the checkpoint.
        stored: u64,
        /// Digest of the requested configuration.
        expected: u64,
    },
    /// A batch build or fold failed.
    Build(KCenterError),
    /// The configured [`KillPoint`] fired (the "crash").
    Killed {
        /// Batch being processed when the process died.
        batch: usize,
        /// Stage at which it died.
        stage: KillStage,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Stream(e) => write!(f, "stream: {e}"),
            IngestError::Checkpoint(e) => write!(f, "{e}"),
            IngestError::ConfigMismatch { stored, expected } => write!(
                f,
                "checkpoint belongs to a different configuration \
                 (stored digest {stored:#018x}, expected {expected:#018x})"
            ),
            IngestError::Build(e) => write!(f, "batch build: {e}"),
            IngestError::Killed { batch, stage } => {
                write!(f, "killed at batch {batch} ({})", stage.name())
            }
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Stream(e) => Some(e),
            IngestError::Checkpoint(e) => Some(e),
            IngestError::Build(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StreamError> for IngestError {
    fn from(e: StreamError) -> Self {
        IngestError::Stream(e)
    }
}

impl From<CheckpointError> for IngestError {
    fn from(e: CheckpointError) -> Self {
        IngestError::Checkpoint(e)
    }
}

impl From<KCenterError> for IngestError {
    fn from(e: KCenterError) -> Self {
        IngestError::Build(e)
    }
}

/// Derives batch `b`'s fault plan from the base plan: seeded plans get a
/// per-batch seed (so faults vary across batches but stay reproducible),
/// explicit plans apply to every batch as written (their round indices
/// restart with each batch's fresh cluster).
fn per_batch_faults(base: &FaultConfig, batch: usize) -> FaultConfig {
    let mut derived = base.clone();
    if let FaultPlan::Seeded { seed, rates } = derived.plan {
        derived.plan = FaultPlan::Seeded {
            seed: seed ^ (batch as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            rates,
        };
    }
    derived
}

/// A resumable, checkpointed ingest run over one [`BatchStream`].
#[derive(Debug)]
pub struct Ingestor<D: Distance + Default + Clone, S: Scalar = f64> {
    config: IngestConfig,
    stream: BatchStream<D, S>,
    checkpoint_path: PathBuf,
    digest: u64,
}

impl<D: Distance + Default + Clone, S: Scalar> Ingestor<D, S> {
    /// Opens the stream and fixes the configuration digest.
    pub fn new(config: IngestConfig, checkpoint_path: &Path) -> Result<Self, IngestError> {
        if config.t == 0 {
            return Err(IngestError::Build(KCenterError::InvalidParameter {
                name: "t",
                message: "each batch summary needs at least one representative".into(),
            }));
        }
        if config.budget == 0 {
            return Err(IngestError::Build(KCenterError::InvalidParameter {
                name: "budget",
                message: "the accumulated coreset needs a positive budget".into(),
            }));
        }
        if config.solve_k == 0 {
            return Err(IngestError::Build(KCenterError::ZeroK));
        }
        let stream = BatchStream::open(&config.stream)?;
        let mut h = Fnv::new();
        h.write(b"kcenter-ingest-v1");
        h.write_u64(stream.config_digest());
        h.write_u64(config.t as u64);
        h.write_u64(config.budget as u64);
        h.write_u64(config.machines as u64);
        match &config.faults {
            None => h.write(b"fault-free"),
            Some(f) => {
                h.write(f.plan.to_text().as_bytes());
                h.write_u64(f.max_attempts as u64);
                h.write(&[u8::from(f.degrade)]);
            }
        }
        let digest = h.finish();
        Ok(Self {
            config,
            stream,
            checkpoint_path: checkpoint_path.to_path_buf(),
            digest,
        })
    }

    /// The configuration digest stamped into every checkpoint.
    pub fn config_digest(&self) -> u64 {
        self.digest
    }

    /// The underlying stream (source of record for re-replication).
    pub fn stream(&self) -> &BatchStream<D, S> {
        &self.stream
    }

    /// Runs (or resumes) the ingest without publishing snapshots.
    pub fn run(&self) -> Result<IngestOutcome<D, S>, IngestError> {
        self.run_with_cell(None)
    }

    /// Runs (or resumes) the ingest, publishing a fresh [`CenterSnapshot`]
    /// to `cell` after every durable fold.
    pub fn run_with_cell(
        &self,
        cell: Option<&SnapshotCell<D, S>>,
    ) -> Result<IngestOutcome<D, S>, IngestError> {
        let total = self.stream.num_batches();
        let (mut meta, mut acc, resumed_from) =
            match checkpoint::load_if_exists::<D, S>(&self.checkpoint_path)? {
                Some((meta, coreset)) => {
                    if meta.config_digest != self.digest {
                        return Err(IngestError::ConfigMismatch {
                            stored: meta.config_digest,
                            expected: self.digest,
                        });
                    }
                    if meta.total_batches != total as u64 {
                        return Err(IngestError::ConfigMismatch {
                            stored: meta.total_batches,
                            expected: total as u64,
                        });
                    }
                    let done = meta.batches_done;
                    (meta, Some(coreset), Some(done))
                }
                None => (
                    CheckpointMeta {
                        config_digest: self.digest,
                        batches_done: 0,
                        total_batches: total as u64,
                        rounds: 0,
                        simulated_ns: 0,
                        reingested_points: 0,
                        reingested_shards: 0,
                    },
                    None,
                    None,
                ),
            };
        let start = meta.batches_done as usize;
        if let (Some(cell), Some(acc)) = (cell, acc.as_ref()) {
            // Resuming: serve the restored state immediately, before any
            // new folds — a restarted service is queryable from t=0.
            self.publish(cell, &meta, acc)?;
        }
        for b in start..total {
            let kill_at = |stage: KillStage| -> Result<(), IngestError> {
                match self.config.kill {
                    Some(kp) if kp == (KillPoint { batch: b, stage }) => {
                        Err(IngestError::Killed { batch: b, stage })
                    }
                    _ => Ok(()),
                }
            };
            let (built, rounds_delta, sim_delta, healed_points, healed_shards) =
                self.fold_one_batch(b)?;
            let mut next = match acc.take() {
                None => built,
                Some(a) => a.merge(&built)?,
            };
            if next.len() > self.config.budget {
                next = next.recompress(self.config.budget)?;
            }
            meta.batches_done = (b + 1) as u64;
            meta.rounds += rounds_delta;
            meta.simulated_ns += sim_delta;
            meta.reingested_points += healed_points;
            meta.reingested_shards += healed_shards;
            kill_at(KillStage::BeforeCheckpoint)?;
            if self.config.kill
                == Some(KillPoint {
                    batch: b,
                    stage: KillStage::DuringCheckpoint,
                })
            {
                // Simulate dying mid-write: stage a torn temp file exactly
                // as a crashed `save_atomic` would, leaving the previous
                // checkpoint untouched.
                let bytes = checkpoint::encode(&meta, &next);
                let torn = &bytes[..bytes.len() / 2];
                let tmp = checkpoint::tmp_path(&self.checkpoint_path);
                std::fs::write(&tmp, torn).map_err(|source| CheckpointError::Io {
                    op: "write",
                    path: tmp.clone(),
                    source,
                })?;
                return Err(IngestError::Killed {
                    batch: b,
                    stage: KillStage::DuringCheckpoint,
                });
            }
            checkpoint::save_atomic(&self.checkpoint_path, &meta, &next)?;
            if let Some(cell) = cell {
                self.publish(cell, &meta, &next)?;
            }
            acc = Some(next);
            kill_at(KillStage::AfterCheckpoint)?;
        }
        let coreset = acc.expect("a stream has at least one batch, so the fold ran");
        Ok(IngestOutcome {
            coreset,
            meta,
            resumed_from,
            batches_folded: total - start,
        })
    }

    /// Builds batch `b`'s summary, healing any dropped shards by
    /// re-ingesting their rows from the stream.  Returns the (full
    /// coverage) summary plus the round/time deltas and healing counts.
    #[allow(clippy::type_complexity)]
    fn fold_one_batch(
        &self,
        b: usize,
    ) -> Result<(WeightedCoreset<D, S>, u64, u128, u64, u64), IngestError> {
        let batch_space = self.stream.batch_space(b);
        let mut cfg = GonzalezCoresetConfig::new(self.config.t)
            .with_machines(self.config.machines)
            .with_executor(self.config.executor);
        if let Some(f) = &self.config.faults {
            cfg = cfg.with_faults(per_batch_faults(f, b));
        }
        let built = cfg.build(&batch_space)?;
        let mut rounds = built.stats().num_rounds() as u64;
        let mut sim = built.stats().simulated_time().as_nanos();
        if !built.is_partial() {
            return Ok((built, rounds, sim, 0, 0));
        }
        // Re-replication: the stream is the source of record, so rows a
        // dropped shard lost are simply read again and summarised with a
        // fault-free sequential build (the shard already exhausted its
        // retries; the supplement must not be allowed to drop too).
        let lost_local: Vec<PointId> = built.coverage().lost_source_ids.clone();
        let shards = built.coverage().dropped_shards.len() as u64;
        let (batch_start, _) = self.stream.batch_range(b);
        let global: Vec<PointId> = lost_local.iter().map(|&l| batch_start + l).collect();
        let rows = self.stream.rows_space(&global);
        let supplement = GonzalezCoresetConfig::new(self.config.t.min(lost_local.len()))
            .with_executor(self.config.executor)
            .build(&rows)?;
        rounds += supplement.stats().num_rounds() as u64;
        sim += supplement.stats().simulated_time().as_nanos();
        let healed = built.absorb_reingested(&supplement, &lost_local)?;
        Ok((healed, rounds, sim, lost_local.len() as u64, shards))
    }

    fn publish(
        &self,
        cell: &SnapshotCell<D, S>,
        meta: &CheckpointMeta,
        acc: &WeightedCoreset<D, S>,
    ) -> Result<(), IngestError> {
        let k = self.config.solve_k.min(acc.len());
        let solution = acc.solve(k, SequentialSolver::Gonzalez, FirstCenter::default())?;
        cell.publish(CenterSnapshot::from_solution(
            meta.batches_done,
            meta.batches_done,
            acc,
            &solution,
        ));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcenter_data::DatasetSpec;
    use kcenter_mapreduce::{FaultKind, ScheduledFault};
    use kcenter_metric::Euclidean;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kcserve-ingest-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn config(batches: usize, kill: Option<KillPoint>) -> IngestConfig {
        IngestConfig {
            stream: StreamConfig {
                spec: DatasetSpec::Gau { n: 400, k_prime: 4 },
                seed: 33,
                batches,
            },
            t: 16,
            budget: 40,
            machines: 4,
            faults: None,
            executor: Executor::Simulated,
            solve_k: 4,
            kill,
        }
    }

    fn faulty(mut c: IngestConfig) -> IngestConfig {
        // An explicit plan keeps the drop on round 0 (the local-coreset
        // round the degrade path may drop); seeded plans can also strike
        // the single-reducer merge round, which is fatal by design.
        c.faults = Some(
            FaultConfig::new(FaultPlan::explicit(vec![ScheduledFault {
                round: 0,
                machine: 2,
                attempt: 0,
                kind: FaultKind::Crash,
            }]))
            .with_max_attempts(1)
            .with_degrade(true),
        );
        c
    }

    #[test]
    fn folds_the_whole_stream_and_checkpoints() {
        let dir = temp_dir("whole");
        let path = dir.join("state.ckpt");
        let ing: Ingestor<Euclidean> = Ingestor::new(config(5, None), &path).unwrap();
        let out = ing.run().unwrap();
        assert_eq!(out.meta.batches_done, 5);
        assert_eq!(out.batches_folded, 5);
        assert!(out.resumed_from.is_none());
        assert_eq!(out.coreset.source_len(), 400);
        assert!(out.coreset.len() <= 40);
        assert!(!out.coreset.is_partial());
        // The final certificate really bounds the full-stream radius.
        let full = ing.stream().full_space();
        let solution = out
            .coreset
            .solve(4, SequentialSolver::Gonzalez, FirstCenter::default())
            .unwrap();
        assert!(solution.certify(&full) <= solution.radius_bound + 1e-12);
        // The checkpoint on disk is the final state.
        let (meta, restored) = checkpoint::load::<Euclidean, f64>(&path).unwrap();
        assert_eq!(meta, out.meta);
        assert_eq!(restored.to_bytes(), out.coreset.to_bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_and_resume_matches_the_uninterrupted_twin_bit_for_bit() {
        for stage in [
            KillStage::BeforeCheckpoint,
            KillStage::DuringCheckpoint,
            KillStage::AfterCheckpoint,
        ] {
            let dir = temp_dir(stage.name());
            let twin_path = dir.join("twin.ckpt");
            let twin: Ingestor<Euclidean> =
                Ingestor::new(faulty(config(6, None)), &twin_path).unwrap();
            let twin_out = twin.run().unwrap();

            let path = dir.join("killed.ckpt");
            let kill = Some(KillPoint { batch: 3, stage });
            let killed: Ingestor<Euclidean> =
                Ingestor::new(faulty(config(6, kill)), &path).unwrap();
            let err = killed.run().unwrap_err();
            assert!(matches!(err, IngestError::Killed { batch: 3, .. }));

            let resumed: Ingestor<Euclidean> =
                Ingestor::new(faulty(config(6, None)), &path).unwrap();
            let out = resumed.run().unwrap();
            let expected_resume = match stage {
                KillStage::BeforeCheckpoint | KillStage::DuringCheckpoint => 3,
                KillStage::AfterCheckpoint => 4,
            };
            assert_eq!(out.resumed_from, Some(expected_resume), "stage {stage:?}");
            // Every deterministic column must match; simulated time is a
            // measurement (per-attempt wall timing) and is not gated.
            let deterministic = |m: &CheckpointMeta| {
                (
                    m.config_digest,
                    m.batches_done,
                    m.total_batches,
                    m.rounds,
                    m.reingested_points,
                    m.reingested_shards,
                )
            };
            assert_eq!(
                deterministic(&out.meta),
                deterministic(&twin_out.meta),
                "stage {stage:?}: meta must match"
            );
            assert_eq!(
                out.coreset.to_bytes(),
                twin_out.coreset.to_bytes(),
                "stage {stage:?}: resumed state must be bit-identical"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn faults_are_healed_by_reingestion_not_disclosed() {
        let dir = temp_dir("heal");
        let path = dir.join("state.ckpt");
        let ing: Ingestor<Euclidean> = Ingestor::new(faulty(config(6, None)), &path).unwrap();
        let out = ing.run().unwrap();
        assert!(
            out.meta.reingested_points > 0,
            "max_attempts=1 under the default rates must drop at least one shard"
        );
        assert!(!out.coreset.is_partial(), "drops must be healed, not kept");
        assert_eq!(out.coreset.coverage_fraction(), 1.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_checkpoints_are_refused() {
        let dir = temp_dir("mismatch");
        let path = dir.join("state.ckpt");
        let ing: Ingestor<Euclidean> = Ingestor::new(config(5, None), &path).unwrap();
        ing.run().unwrap();
        // Same path, different seed: the digest must not match.
        let mut other = config(5, None);
        other.stream.seed = 34;
        let other: Ingestor<Euclidean> = Ingestor::new(other, &path).unwrap();
        assert!(matches!(
            other.run().unwrap_err(),
            IngestError::ConfigMismatch { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshots_are_published_after_each_durable_fold() {
        let dir = temp_dir("publish");
        let path = dir.join("state.ckpt");
        let cell = SnapshotCell::new();
        let ing: Ingestor<Euclidean> = Ingestor::new(config(4, None), &path).unwrap();
        ing.run_with_cell(Some(&cell)).unwrap();
        let snap = cell.load();
        assert_eq!(snap.version(), 4);
        assert_eq!(snap.source_len(), 400);
        assert!(snap.verify());
        assert!(snap.query(&[0.0, 0.0, 0.0]).is_some());
        // A restart with a complete checkpoint republishes immediately.
        let cell2 = SnapshotCell::new();
        let again: Ingestor<Euclidean> = Ingestor::new(config(4, None), &path).unwrap();
        let out = again.run_with_cell(Some(&cell2)).unwrap();
        assert_eq!(out.batches_folded, 0);
        assert_eq!(cell2.load().version(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
