//! Durable streaming coreset service.
//!
//! The batch pipeline in [`kcenter_core::coreset`] builds one summary from
//! one resident dataset.  This crate turns that summary into a *service*:
//! points arrive in batches, each batch is summarised and folded into an
//! accumulated [`WeightedCoreset`](kcenter_core::WeightedCoreset) via the
//! mergeable-summary composition of `kcenter_core::coreset::merge`, and the
//! accumulated state survives crashes.
//!
//! Three guarantees anchor the design:
//!
//! 1. **Crash consistency.**  After every folded batch the accumulated
//!    coreset is persisted with [`checkpoint::save_atomic`] (write-temp +
//!    fsync + rename + directory fsync).  A crash at *any* instant leaves
//!    either the previous checkpoint or the new one on disk — never a torn
//!    file.  [`ingest::Ingestor`] resumes from whatever checkpoint survived
//!    and refolds only the batches after it.
//! 2. **Determinism.**  A run that is killed and resumed produces the
//!    bit-for-bit same final coreset, certificate, and round/time counters
//!    as an uninterrupted twin with the same configuration — the checkpoint
//!    carries the cumulative counters, and every batch build is a pure
//!    function of `(seed, precision, kernel, assign)`.
//! 3. **Non-blocking reads.**  Queries are answered against an immutable
//!    [`snapshot::CenterSnapshot`] behind an atomically swapped `Arc`
//!    ([`snapshot::SnapshotCell`]): readers never block ingestion and never
//!    observe a half-updated center set — old or new, never mixed.
//!
//! Dropped shards (degrade-mode builds under fault injection) are not
//! disclosed as lost: the ingest loop re-ingests the lost rows from the
//! source batch and heals the summary back to full coverage via
//! `absorb_reingested` before checkpointing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod ingest;
pub mod snapshot;
pub mod stream;

pub use checkpoint::{CheckpointError, CheckpointFormatError, CheckpointMeta};
pub use ingest::{IngestConfig, IngestError, IngestOutcome, Ingestor, KillPoint, KillStage};
pub use snapshot::{CenterSnapshot, SnapshotAnswer, SnapshotCell};
pub use stream::{BatchStream, StreamConfig, StreamError};
