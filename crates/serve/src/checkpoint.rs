//! Atomic, versioned ingest checkpoints.
//!
//! A checkpoint file carries the accumulated coreset (the versioned
//! [`WeightedCoreset::to_bytes`] payload, itself checksummed) plus the
//! ingest progress meta needed to resume bit-identically: how many batches
//! were folded, the cumulative round / simulated-time counters, and a
//! digest of the full ingest configuration so a checkpoint can never be
//! resumed against a different stream.
//!
//! # File format (version 1, little-endian)
//!
//! ```text
//! magic            4  b"KCKP"
//! version          2  u16 = 1
//! config digest    8  u64   (stream + ingest parameters, see IngestConfig)
//! batches done     8  u64
//! total batches    8  u64
//! rounds           8  u64   cumulative MapReduce rounds charged so far
//! simulated ns    16  u128  cumulative simulated time
//! reingested pts   8  u64   points healed back via re-replication
//! reingested shards 8 u64   dropped shards that triggered re-replication
//! payload len      8  u64
//! payload          …  WeightedCoreset::to_bytes (self-describing)
//! checksum         8  u64   FNV-1a 64 over all preceding bytes
//! ```
//!
//! # Crash consistency
//!
//! [`save_atomic`] writes to `<path>.tmp`, fsyncs the file, renames it over
//! `path`, then fsyncs the parent directory.  POSIX rename atomicity means
//! a crash at any instant leaves either the old checkpoint or the new one —
//! never a torn file.  A partial `.tmp` left behind by a crash is ignored
//! (and overwritten) by the next save; loads only ever read `path`.
//!
//! # Versioning policy
//!
//! The version is checked for strict equality: readers do not guess at
//! future layouts, and old files are never silently reinterpreted.  Any
//! layout change bumps `FORMAT_VERSION`.

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

use kcenter_core::hash::fnv1a64;
use kcenter_core::{PersistError, WeightedCoreset};
use kcenter_metric::{Distance, Scalar};

/// Magic bytes identifying a checkpoint file.
pub const MAGIC: [u8; 4] = *b"KCKP";
/// Current checkpoint format version (checked for strict equality).
pub const FORMAT_VERSION: u16 = 1;

/// Fixed-size header length: magic + version + digest + 6 progress fields.
const HEADER_LEN: usize = 4 + 2 + 8 + 8 + 8 + 8 + 16 + 8 + 8 + 8;

/// Ingest progress carried alongside the coreset payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Digest of the full ingest configuration (stream identity + fold
    /// parameters); a resume refuses a checkpoint whose digest disagrees.
    pub config_digest: u64,
    /// Batches folded into the payload so far.
    pub batches_done: u64,
    /// Total batches in the stream (resume sanity check).
    pub total_batches: u64,
    /// Cumulative MapReduce rounds charged across all folded batches.
    pub rounds: u64,
    /// Cumulative simulated time (nanoseconds) across all folded batches.
    pub simulated_ns: u128,
    /// Points healed back to full coverage via re-replication.
    pub reingested_points: u64,
    /// Dropped shards whose points were re-replicated.
    pub reingested_shards: u64,
}

/// A structurally invalid checkpoint byte stream.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointFormatError {
    /// The buffer ends before `field` could be read.
    Truncated {
        /// Name of the field being decoded.
        field: &'static str,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were available.
        available: usize,
    },
    /// The file does not start with [`MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// A version this build does not speak.
    UnsupportedVersion {
        /// Version stored in the file.
        found: u16,
        /// The only version this build accepts.
        supported: u16,
    },
    /// The trailing checksum disagrees with the content.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the content.
        computed: u64,
    },
    /// A structural invariant fails despite a valid checksum.
    Malformed {
        /// What was wrong.
        what: &'static str,
    },
    /// The embedded coreset payload failed to decode.
    Payload(PersistError),
}

impl std::fmt::Display for CheckpointFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointFormatError::Truncated {
                field,
                needed,
                available,
            } => write!(
                f,
                "checkpoint truncated reading {field}: needed {needed} bytes, {available} available"
            ),
            CheckpointFormatError::BadMagic { found } => {
                write!(f, "not a checkpoint file (magic {found:02x?})")
            }
            CheckpointFormatError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads version {supported})"
            ),
            CheckpointFormatError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CheckpointFormatError::Malformed { what } => {
                write!(f, "malformed checkpoint: {what}")
            }
            CheckpointFormatError::Payload(e) => write!(f, "checkpoint payload: {e}"),
        }
    }
}

impl std::error::Error for CheckpointFormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointFormatError::Payload(e) => Some(e),
            _ => None,
        }
    }
}

/// A checkpoint operation failure, naming the file and the operation.
#[derive(Debug)]
pub enum CheckpointError {
    /// A filesystem operation failed.
    Io {
        /// Which operation (`"create"`, `"write"`, `"sync"`, `"rename"`, …).
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The file exists but its contents are invalid.
    Format {
        /// The checkpoint path.
        path: PathBuf,
        /// Why the bytes were rejected.
        source: CheckpointFormatError,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { op, path, source } => {
                write!(f, "checkpoint {op} failed for {}: {source}", path.display())
            }
            CheckpointError::Format { path, source } => {
                write!(f, "invalid checkpoint {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            CheckpointError::Format { source, .. } => Some(source),
        }
    }
}

/// Serialises a checkpoint to its on-disk byte layout.
pub fn encode<D: Distance, S: Scalar>(
    meta: &CheckpointMeta,
    coreset: &WeightedCoreset<D, S>,
) -> Vec<u8> {
    let payload = coreset.to_bytes();
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&meta.config_digest.to_le_bytes());
    out.extend_from_slice(&meta.batches_done.to_le_bytes());
    out.extend_from_slice(&meta.total_batches.to_le_bytes());
    out.extend_from_slice(&meta.rounds.to_le_bytes());
    out.extend_from_slice(&meta.simulated_ns.to_le_bytes());
    out.extend_from_slice(&meta.reingested_points.to_le_bytes());
    out.extend_from_slice(&meta.reingested_shards.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Decodes a checkpoint byte stream.  Inverse of [`encode`]; never panics
/// on hostile input.
pub fn decode<D: Distance + Default + Clone, S: Scalar>(
    bytes: &[u8],
) -> Result<(CheckpointMeta, WeightedCoreset<D, S>), CheckpointFormatError> {
    use CheckpointFormatError as E;
    if bytes.len() < 4 {
        return Err(E::Truncated {
            field: "magic",
            needed: 4,
            available: bytes.len(),
        });
    }
    let mut found = [0u8; 4];
    found.copy_from_slice(&bytes[..4]);
    if found != MAGIC {
        return Err(E::BadMagic { found });
    }
    // Once the magic matches, verify the trailing checksum before trusting
    // any field: random corruption reports as one named error instead of an
    // arbitrary downstream failure.
    if bytes.len() < HEADER_LEN + 8 {
        return Err(E::Truncated {
            field: "header",
            needed: HEADER_LEN + 8,
            available: bytes.len(),
        });
    }
    let body = &bytes[..bytes.len() - 8];
    let mut stored = [0u8; 8];
    stored.copy_from_slice(&bytes[bytes.len() - 8..]);
    let stored = u64::from_le_bytes(stored);
    let computed = fnv1a64(body);
    if stored != computed {
        return Err(E::ChecksumMismatch { stored, computed });
    }
    let mut at: usize = 4;
    let mut take = |field: &'static str, n: usize| -> Result<&[u8], E> {
        let end = at.checked_add(n).ok_or(E::Malformed {
            what: "field length overflows",
        })?;
        if end > body.len() {
            return Err(E::Truncated {
                field,
                needed: n,
                available: body.len().saturating_sub(at),
            });
        }
        let slice = &body[at..end];
        at = end;
        Ok(slice)
    };
    let u16_of = |s: &[u8]| u16::from_le_bytes(s.try_into().expect("sized take"));
    let u64_of = |s: &[u8]| u64::from_le_bytes(s.try_into().expect("sized take"));
    let u128_of = |s: &[u8]| u128::from_le_bytes(s.try_into().expect("sized take"));

    let version = u16_of(take("version", 2)?);
    if version != FORMAT_VERSION {
        return Err(E::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let meta = CheckpointMeta {
        config_digest: u64_of(take("config digest", 8)?),
        batches_done: u64_of(take("batches done", 8)?),
        total_batches: u64_of(take("total batches", 8)?),
        rounds: u64_of(take("rounds", 8)?),
        simulated_ns: u128_of(take("simulated ns", 16)?),
        reingested_points: u64_of(take("reingested points", 8)?),
        reingested_shards: u64_of(take("reingested shards", 8)?),
    };
    if meta.batches_done > meta.total_batches {
        return Err(E::Malformed {
            what: "batches done exceeds total batches",
        });
    }
    let payload_len = u64_of(take("payload length", 8)?);
    let payload_len = usize::try_from(payload_len).map_err(|_| E::Malformed {
        what: "payload length exceeds address space",
    })?;
    let payload = take("payload", payload_len)?;
    let coreset = WeightedCoreset::<D, S>::from_bytes(payload).map_err(E::Payload)?;
    if at != body.len() {
        return Err(E::Malformed {
            what: "trailing bytes after payload",
        });
    }
    Ok((meta, coreset))
}

/// The temporary sibling `save_atomic` stages writes through.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

fn io_err<'a>(
    op: &'static str,
    path: &'a Path,
) -> impl FnOnce(std::io::Error) -> CheckpointError + 'a {
    move |source| CheckpointError::Io {
        op,
        path: path.to_path_buf(),
        source,
    }
}

/// Atomically replaces the checkpoint at `path`: write `<path>.tmp`, fsync
/// it, rename over `path`, fsync the parent directory.  On any error the
/// previous checkpoint (if any) is left intact.
pub fn save_atomic<D: Distance, S: Scalar>(
    path: &Path,
    meta: &CheckpointMeta,
    coreset: &WeightedCoreset<D, S>,
) -> Result<(), CheckpointError> {
    let bytes = encode(meta, coreset);
    let tmp = tmp_path(path);
    let mut file = File::create(&tmp).map_err(io_err("create", &tmp))?;
    file.write_all(&bytes).map_err(io_err("write", &tmp))?;
    file.sync_all().map_err(io_err("sync", &tmp))?;
    drop(file);
    fs::rename(&tmp, path).map_err(io_err("rename", path))?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        // Persist the rename itself; without this a crash can forget the
        // directory entry even though the file data is safe.
        let dir_handle = File::open(dir).map_err(io_err("open directory", dir))?;
        dir_handle
            .sync_all()
            .map_err(io_err("sync directory", dir))?;
    }
    Ok(())
}

/// A decoded checkpoint: the resume meta plus the accumulated summary.
pub type LoadedCheckpoint<D, S> = (CheckpointMeta, WeightedCoreset<D, S>);

/// Loads and validates the checkpoint at `path`.
pub fn load<D: Distance + Default + Clone, S: Scalar>(
    path: &Path,
) -> Result<LoadedCheckpoint<D, S>, CheckpointError> {
    let bytes = fs::read(path).map_err(io_err("read", path))?;
    decode(&bytes).map_err(|source| CheckpointError::Format {
        path: path.to_path_buf(),
        source,
    })
}

/// Like [`load`], but a missing file is `Ok(None)` (fresh start) rather
/// than an error.
pub fn load_if_exists<D: Distance + Default + Clone, S: Scalar>(
    path: &Path,
) -> Result<Option<LoadedCheckpoint<D, S>>, CheckpointError> {
    match load(path) {
        Ok(loaded) => Ok(Some(loaded)),
        Err(CheckpointError::Io { source, .. })
            if source.kind() == std::io::ErrorKind::NotFound =>
        {
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcenter_core::GonzalezCoresetConfig;
    use kcenter_data::DatasetSpec;
    use kcenter_metric::{Euclidean, VecSpace};

    fn sample() -> (CheckpointMeta, WeightedCoreset<Euclidean, f64>) {
        let flat = DatasetSpec::Gau { n: 120, k_prime: 3 }.generate_flat_at::<f64>(11);
        let space = VecSpace::from_flat(flat);
        let coreset = GonzalezCoresetConfig::new(9).build(&space).unwrap();
        let meta = CheckpointMeta {
            config_digest: 0xfeed_beef_dead_cafe,
            batches_done: 3,
            total_batches: 8,
            rounds: 9,
            simulated_ns: 123_456_789_012_345,
            reingested_points: 17,
            reingested_shards: 1,
        };
        (meta, coreset)
    }

    #[test]
    fn round_trips_byte_exact() {
        let (meta, coreset) = sample();
        let bytes = encode(&meta, &coreset);
        let (meta2, coreset2) = decode::<Euclidean, f64>(&bytes).unwrap();
        assert_eq!(meta2, meta);
        assert_eq!(encode(&meta2, &coreset2), bytes);
    }

    #[test]
    fn every_truncation_prefix_is_a_named_error() {
        let (meta, coreset) = sample();
        let bytes = encode(&meta, &coreset);
        for cut in 0..bytes.len() {
            let err = decode::<Euclidean, f64>(&bytes[..cut])
                .expect_err("truncated checkpoint must not decode");
            match err {
                CheckpointFormatError::Truncated { .. }
                | CheckpointFormatError::ChecksumMismatch { .. } => {}
                other => panic!("prefix {cut}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flips_are_checksum_mismatches() {
        let (meta, coreset) = sample();
        let bytes = encode(&meta, &coreset);
        for at in (4..bytes.len()).step_by(13) {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            let err = decode::<Euclidean, f64>(&bad).expect_err("corrupt checkpoint must fail");
            assert!(
                matches!(err, CheckpointFormatError::ChecksumMismatch { .. }),
                "flip at {at}: got {err:?}"
            );
        }
    }

    #[test]
    fn foreign_magic_and_versions_are_rejected() {
        let (meta, coreset) = sample();
        let bytes = encode(&meta, &coreset);
        let mut wrong_magic = bytes.clone();
        wrong_magic[..4].copy_from_slice(b"NOPE");
        assert!(matches!(
            decode::<Euclidean, f64>(&wrong_magic),
            Err(CheckpointFormatError::BadMagic {
                found: [b'N', b'O', b'P', b'E']
            })
        ));
        let mut future = bytes.clone();
        future[4..6].copy_from_slice(&2u16.to_le_bytes());
        let trailing = future.len() - 8;
        let checksum = fnv1a64(&future[..trailing]);
        future[trailing..].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            decode::<Euclidean, f64>(&future),
            Err(CheckpointFormatError::UnsupportedVersion {
                found: 2,
                supported: FORMAT_VERSION
            })
        ));
    }

    #[test]
    fn atomic_save_survives_a_stale_tmp_and_preserves_on_failure() {
        let dir = std::env::temp_dir().join(format!("kcserve-ckpt-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let (meta, coreset) = sample();
        // A stale partial tmp (crashed mid-write) must not confuse a save.
        fs::write(tmp_path(&path), b"torn").unwrap();
        save_atomic(&path, &meta, &coreset).unwrap();
        let (loaded_meta, _) = load::<Euclidean, f64>(&path).unwrap();
        assert_eq!(loaded_meta, meta);
        // load_if_exists: missing file is a fresh start, not an error.
        let missing = dir.join("absent.ckpt");
        assert!(load_if_exists::<Euclidean, f64>(&missing)
            .unwrap()
            .is_none());
        fs::remove_dir_all(&dir).unwrap();
    }
}
