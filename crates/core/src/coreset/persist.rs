//! Versioned binary serialization of [`WeightedCoreset`]: the wire/disk
//! format that lets a certified summary cross process boundaries.
//!
//! # Format (version 1)
//!
//! All integers little-endian; `w` is the scalar byte width (4 for `f32`,
//! 8 for `f64`).  One contiguous buffer:
//!
//! ```text
//! magic                  4  b"KCWC"
//! version                2  u16 (= 1)
//! scalar tag             1  u8  (1 = f32, 2 = f64; Scalar::TAG)
//! builder tag            1  u8  (0 gonzalez, 1 eim, 2 merged)
//! flags                  1  u8  (bit 0: seed present; others must be 0)
//! distance-name length   1  u8
//! distance name          ..  ASCII (e.g. "euclidean")
//! [seed]                 8  u64, present iff flag bit 0
//! dim                    4  u32
//! t (representatives)    8  u64
//! source_len             8  u64
//! construction radius    8  f64 bit pattern
//! rows                   t*dim*w  coordinates, row-major
//! source ids             t*8  u64 each
//! weights                t*8  u64 each
//! covered_source_len     8  u64
//! lost count             8  u64
//! lost ids               ..  u64 each, strictly ascending
//! dropped-shard count    8  u64
//! shards                 ..  round u64, machine u64, attempts u64,
//!                            items u64, cause u8 (0 crash, 1 corrupt,
//!                            2 validation)
//! checksum               8  FNV-1a 64 over every preceding byte
//! ```
//!
//! # Versioning policy
//!
//! The version is bumped whenever the byte layout changes; readers accept
//! exactly the versions they know and reject everything else as
//! [`PersistError::UnsupportedVersion`] — no silent best-effort parsing.
//! Scalar and distance tags make a summary self-describing: loading into
//! the wrong monomorphisation is a named error, not a reinterpretation.
//!
//! # Corruption discipline
//!
//! Decoding never panics and never constructs a partial coreset: every
//! length is bounds-checked before it is read, every invariant the
//! in-memory type maintains (weights partition the covered source, lost
//! ids ascending and in range, certificate finite and non-negative) is
//! re-validated, and the trailing checksum covers every byte, so a
//! bit-flip anywhere is caught even when it lands in padding-free numeric
//! data.  Round-tripping is byte-exact: `to_bytes ∘ from_bytes ∘ to_bytes`
//! is the identity on valid buffers, and coordinates/certificates travel
//! as raw IEEE-754 bit patterns (no text round-off).
//!
//! Job accounting ([`WeightedCoreset::stats`]) is a process-local
//! artifact and deliberately **not** persisted: a loaded summary starts
//! with empty stats.

use super::{CoresetBuilder, CoresetCoverage, WeightedCoreset};
use crate::hash::fnv1a64;
use kcenter_mapreduce::{DroppedShard, FaultCause, JobStats};
use kcenter_metric::distance::Distance;
use kcenter_metric::point::PointError;
use kcenter_metric::{FlatPoints, PointId, Scalar, VecSpace};
use std::fmt;

/// Magic bytes opening every persisted coreset.
pub const MAGIC: [u8; 4] = *b"KCWC";
/// The (single) format version this build reads and writes.
pub const FORMAT_VERSION: u16 = 1;

/// Why a persisted coreset failed to decode.  Every variant is a named,
/// non-panicking rejection; no partial coreset is ever constructed.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// The buffer ended before the named field could be read.
    Truncated {
        /// Which field was being read.
        field: &'static str,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were left.
        available: usize,
    },
    /// The buffer does not open with the coreset magic.
    BadMagic {
        /// The four bytes found instead of [`MAGIC`].
        found: [u8; 4],
    },
    /// The format version is not one this build understands.
    UnsupportedVersion {
        /// Version stored in the buffer.
        found: u16,
        /// Version this build supports.
        supported: u16,
    },
    /// The stored scalar tag disagrees with the requested storage type
    /// (or is unknown altogether).
    ScalarMismatch {
        /// Tag stored in the buffer.
        stored: u8,
        /// Tag of the requested `S` ([`Scalar::TAG`]).
        expected: u8,
    },
    /// The stored distance name disagrees with the requested distance.
    DistanceMismatch {
        /// Name stored in the buffer.
        stored: String,
        /// Name of the requested `D`.
        expected: &'static str,
    },
    /// The trailing FNV-1a checksum does not match the buffer contents.
    ChecksumMismatch {
        /// Checksum stored in the buffer.
        stored: u64,
        /// Checksum recomputed over the buffer.
        computed: u64,
    },
    /// A structural invariant failed (bad enum tag, counts that do not
    /// add up, out-of-range ids, non-finite certificate, trailing bytes).
    Malformed {
        /// Which invariant failed.
        what: &'static str,
    },
    /// The coordinate rows failed the flat store's validation (non-finite
    /// or out-of-range coordinates).
    Rows(PointError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Truncated {
                field,
                needed,
                available,
            } => write!(
                f,
                "truncated coreset: field `{field}` needs {needed} bytes, {available} left"
            ),
            PersistError::BadMagic { found } => {
                write!(f, "not a persisted coreset (magic {found:02x?})")
            }
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported coreset format version {found} (this build reads {supported})"
            ),
            PersistError::ScalarMismatch { stored, expected } => write!(
                f,
                "scalar tag mismatch: stored {stored}, requested {expected}"
            ),
            PersistError::DistanceMismatch { stored, expected } => write!(
                f,
                "distance mismatch: stored `{stored}`, requested `{expected}`"
            ),
            PersistError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            PersistError::Malformed { what } => write!(f, "malformed coreset: {what}"),
            PersistError::Rows(e) => write!(f, "invalid coordinate rows: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

fn builder_tag(builder: CoresetBuilder) -> u8 {
    match builder {
        CoresetBuilder::Gonzalez => 0,
        CoresetBuilder::Eim => 1,
        CoresetBuilder::Merged => 2,
    }
}

fn builder_from_tag(tag: u8) -> Option<CoresetBuilder> {
    match tag {
        0 => Some(CoresetBuilder::Gonzalez),
        1 => Some(CoresetBuilder::Eim),
        2 => Some(CoresetBuilder::Merged),
        _ => None,
    }
}

fn cause_tag(cause: FaultCause) -> u8 {
    match cause {
        FaultCause::Crashed => 0,
        FaultCause::CorruptOutput => 1,
        FaultCause::ValidationFailed => 2,
    }
}

fn cause_from_tag(tag: u8) -> Option<FaultCause> {
    match tag {
        0 => Some(FaultCause::Crashed),
        1 => Some(FaultCause::CorruptOutput),
        2 => Some(FaultCause::ValidationFailed),
        _ => None,
    }
}

/// A bounds-checked reader over the encoded buffer: every read names its
/// field, so truncation errors say exactly where the bytes ran out.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], PersistError> {
        let available = self.bytes.len() - self.pos;
        if n > available {
            return Err(PersistError::Truncated {
                field,
                needed: n,
                available,
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, PersistError> {
        Ok(self.take(1, field)?[0])
    }

    fn u16(&mut self, field: &'static str) -> Result<u16, PersistError> {
        let b = self.take(2, field)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, PersistError> {
        let b = self.take(4, field)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, PersistError> {
        let b = self.take(8, field)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn usize_field(&mut self, field: &'static str) -> Result<usize, PersistError> {
        self.u64(field)?
            .try_into()
            .map_err(|_| PersistError::Malformed { what: field })
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

impl<D: Distance, S: Scalar> WeightedCoreset<D, S> {
    /// Encodes the summary into the versioned, checksummed binary format
    /// (module docs).  The inverse of [`WeightedCoreset::from_bytes`];
    /// round-trips are byte-exact.
    pub fn to_bytes(&self) -> Vec<u8> {
        let name = self.space.metric().name().as_bytes();
        debug_assert!(name.len() <= u8::MAX as usize, "distance name too long");
        let dim = self.space.flat().dim();
        let mut out = Vec::with_capacity(64 + name.len() + self.len() * (dim * S::BYTE_WIDTH + 16));
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.push(S::TAG);
        out.push(builder_tag(self.builder));
        out.push(u8::from(self.seed.is_some()));
        out.push(name.len() as u8);
        out.extend_from_slice(name);
        if let Some(seed) = self.seed {
            out.extend_from_slice(&seed.to_le_bytes());
        }
        out.extend_from_slice(&(dim as u32).to_le_bytes());
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.source_len as u64).to_le_bytes());
        out.extend_from_slice(&self.construction_radius.to_bits().to_le_bytes());
        for &c in self.space.flat().coords() {
            c.write_le_bytes(&mut out);
        }
        for &id in &self.source_ids {
            out.extend_from_slice(&(id as u64).to_le_bytes());
        }
        for &w in &self.weights {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&(self.coverage.covered_source_len as u64).to_le_bytes());
        out.extend_from_slice(&(self.coverage.lost_source_ids.len() as u64).to_le_bytes());
        for &id in &self.coverage.lost_source_ids {
            out.extend_from_slice(&(id as u64).to_le_bytes());
        }
        out.extend_from_slice(&(self.coverage.dropped_shards.len() as u64).to_le_bytes());
        for shard in &self.coverage.dropped_shards {
            out.extend_from_slice(&(shard.round as u64).to_le_bytes());
            out.extend_from_slice(&(shard.machine as u64).to_le_bytes());
            out.extend_from_slice(&(shard.attempts as u64).to_le_bytes());
            out.extend_from_slice(&(shard.items as u64).to_le_bytes());
            out.push(cause_tag(shard.cause));
        }
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }
}

impl<D: Distance + Default + Clone, S: Scalar> WeightedCoreset<D, S> {
    /// Decodes a summary from the versioned binary format, re-validating
    /// every invariant the in-memory type maintains.  Corrupt, truncated,
    /// wrong-version, wrong-scalar and wrong-distance inputs all come back
    /// as named [`PersistError`]s — never panics, never a partial value.
    ///
    /// The loaded summary carries empty [`JobStats`] (accounting is
    /// process-local) and is otherwise bit-identical to the encoded one.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        // Checksum first: it covers everything, so random corruption is
        // reported as corruption, not as whichever field it happened to
        // land in.  (Truncation is still reported per-field below.)
        if bytes.len() >= 8 + MAGIC.len() {
            let body = &bytes[..bytes.len() - 8];
            let stored_tail = &bytes[bytes.len() - 8..];
            let stored = u64::from_le_bytes([
                stored_tail[0],
                stored_tail[1],
                stored_tail[2],
                stored_tail[3],
                stored_tail[4],
                stored_tail[5],
                stored_tail[6],
                stored_tail[7],
            ]);
            let computed = fnv1a64(body);
            // Only meaningful when the magic matches: otherwise this is
            // simply not a coreset buffer and BadMagic is the right error.
            if body.starts_with(&MAGIC) && stored != computed {
                return Err(PersistError::ChecksumMismatch { stored, computed });
            }
        }

        let mut cur = Cursor::new(bytes);
        let magic = cur.take(4, "magic")?;
        if magic != MAGIC {
            return Err(PersistError::BadMagic {
                found: [magic[0], magic[1], magic[2], magic[3]],
            });
        }
        let version = cur.u16("version")?;
        if version != FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let scalar = cur.u8("scalar tag")?;
        if scalar != S::TAG {
            return Err(PersistError::ScalarMismatch {
                stored: scalar,
                expected: S::TAG,
            });
        }
        let builder = builder_from_tag(cur.u8("builder tag")?).ok_or(PersistError::Malformed {
            what: "builder tag",
        })?;
        let flags = cur.u8("flags")?;
        if flags & !1 != 0 {
            return Err(PersistError::Malformed { what: "flags" });
        }
        let name_len = cur.u8("distance-name length")? as usize;
        let name_bytes = cur.take(name_len, "distance name")?;
        let name = std::str::from_utf8(name_bytes).map_err(|_| PersistError::Malformed {
            what: "distance name",
        })?;
        let dist = D::default();
        if name != dist.name() {
            return Err(PersistError::DistanceMismatch {
                stored: name.to_string(),
                expected: dist.name(),
            });
        }
        let seed = if flags & 1 != 0 {
            Some(cur.u64("seed")?)
        } else {
            None
        };
        let dim = cur.u32("dim")? as usize;
        let t = cur.usize_field("representative count")?;
        let source_len = cur.usize_field("source length")?;
        let radius = f64::from_bits(cur.u64("construction radius")?);
        if !radius.is_finite() || radius < 0.0 {
            return Err(PersistError::Malformed {
                what: "construction radius",
            });
        }
        if t == 0 {
            return Err(PersistError::Malformed {
                what: "empty coreset",
            });
        }
        if dim == 0 {
            return Err(PersistError::Malformed { what: "zero dim" });
        }

        let coord_count = t
            .checked_mul(dim)
            .ok_or(PersistError::Malformed { what: "row count" })?;
        let coord_bytes = coord_count
            .checked_mul(S::BYTE_WIDTH)
            .ok_or(PersistError::Malformed { what: "row count" })?;
        let row_bytes = cur.take(coord_bytes, "rows")?;
        let mut coords = Vec::with_capacity(coord_count);
        for chunk in row_bytes.chunks_exact(S::BYTE_WIDTH) {
            coords.push(S::read_le_bytes(chunk).ok_or(PersistError::Malformed { what: "rows" })?);
        }
        let flat = FlatPoints::from_coords(coords, dim).map_err(PersistError::Rows)?;

        let mut source_ids = Vec::with_capacity(t);
        {
            let b = cur.take(t * 8, "source ids")?;
            for chunk in b.chunks_exact(8) {
                let v = u64::from_le_bytes([
                    chunk[0], chunk[1], chunk[2], chunk[3], chunk[4], chunk[5], chunk[6], chunk[7],
                ]);
                let id: PointId = v
                    .try_into()
                    .map_err(|_| PersistError::Malformed { what: "source ids" })?;
                if id >= source_len {
                    return Err(PersistError::Malformed { what: "source ids" });
                }
                source_ids.push(id);
            }
        }
        let mut weights = Vec::with_capacity(t);
        {
            let b = cur.take(t * 8, "weights")?;
            for chunk in b.chunks_exact(8) {
                weights.push(u64::from_le_bytes([
                    chunk[0], chunk[1], chunk[2], chunk[3], chunk[4], chunk[5], chunk[6], chunk[7],
                ]));
            }
        }

        let covered = cur.usize_field("covered source length")?;
        let lost_count = cur.usize_field("lost count")?;
        let lost_bytes = cur.take(
            lost_count
                .checked_mul(8)
                .ok_or(PersistError::Malformed { what: "lost count" })?,
            "lost ids",
        )?;
        let mut lost = Vec::with_capacity(lost_count);
        for chunk in lost_bytes.chunks_exact(8) {
            let v = u64::from_le_bytes([
                chunk[0], chunk[1], chunk[2], chunk[3], chunk[4], chunk[5], chunk[6], chunk[7],
            ]);
            let id: PointId = v
                .try_into()
                .map_err(|_| PersistError::Malformed { what: "lost ids" })?;
            if id >= source_len || lost.last().is_some_and(|&prev| prev >= id) {
                return Err(PersistError::Malformed { what: "lost ids" });
            }
            lost.push(id);
        }

        let shard_count = cur.usize_field("dropped-shard count")?;
        let shard_bytes = cur.take(
            shard_count.checked_mul(33).ok_or(PersistError::Malformed {
                what: "dropped-shard count",
            })?,
            "dropped shards",
        )?;
        let mut dropped = Vec::with_capacity(shard_count);
        for chunk in shard_bytes.chunks_exact(33) {
            let field = |i: usize| -> Result<usize, PersistError> {
                let v = u64::from_le_bytes([
                    chunk[i],
                    chunk[i + 1],
                    chunk[i + 2],
                    chunk[i + 3],
                    chunk[i + 4],
                    chunk[i + 5],
                    chunk[i + 6],
                    chunk[i + 7],
                ]);
                v.try_into().map_err(|_| PersistError::Malformed {
                    what: "dropped shards",
                })
            };
            dropped.push(DroppedShard {
                round: field(0)?,
                machine: field(8)?,
                attempts: field(16)?,
                items: field(24)?,
                cause: cause_from_tag(chunk[32]).ok_or(PersistError::Malformed {
                    what: "fault cause tag",
                })?,
            });
        }

        let stored_checksum = cur.u64("checksum")?;
        let computed = fnv1a64(&bytes[..bytes.len() - cur.remaining() - 8]);
        if stored_checksum != computed {
            return Err(PersistError::ChecksumMismatch {
                stored: stored_checksum,
                computed,
            });
        }
        if cur.remaining() != 0 {
            return Err(PersistError::Malformed {
                what: "trailing bytes",
            });
        }

        // Re-establish the in-memory invariants before constructing.
        if flat.len() != t {
            return Err(PersistError::Malformed { what: "row count" });
        }
        let weight_sum: u64 = weights.iter().sum();
        if weight_sum != covered as u64 {
            return Err(PersistError::Malformed {
                what: "weights do not partition the covered source",
            });
        }
        if covered.checked_add(lost.len()) != Some(source_len) {
            return Err(PersistError::Malformed {
                what: "covered + lost must account for every source point",
            });
        }

        let coverage = CoresetCoverage {
            covered_source_len: covered,
            dropped_shards: dropped,
            lost_source_ids: lost,
        };
        Ok(Self::from_parts(
            VecSpace::from_flat_with_distance(flat, dist),
            source_ids,
            weights,
            source_len,
            radius,
            builder,
            seed,
            JobStats::default(),
            coverage,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::super::GonzalezCoresetConfig;
    use super::*;
    use kcenter_metric::{Euclidean, Manhattan, Point};

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

    fn sample() -> WeightedCoreset {
        GonzalezCoresetConfig::new(32)
            .with_machines(4)
            .build(&cloud(1_000, 41))
            .unwrap()
    }

    /// Re-stamps the trailing checksum after a deliberate body edit, so a
    /// test can reach the structural validators behind the checksum gate.
    fn restamp(mut bytes: Vec<u8>) -> Vec<u8> {
        let body_len = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn round_trip_is_byte_exact_and_bit_identical() {
        let coreset = sample();
        let bytes = coreset.to_bytes();
        let loaded = WeightedCoreset::<Euclidean, f64>::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.source_ids(), coreset.source_ids());
        assert_eq!(loaded.weights(), coreset.weights());
        assert_eq!(
            loaded.construction_radius().to_bits(),
            coreset.construction_radius().to_bits()
        );
        assert_eq!(
            loaded.space().flat().coords(),
            coreset.space().flat().coords()
        );
        assert_eq!(loaded.builder(), coreset.builder());
        assert_eq!(loaded.source_len(), coreset.source_len());
        assert_eq!(loaded.coverage(), coreset.coverage());
        // Byte-exact re-encode.
        assert_eq!(loaded.to_bytes(), bytes);
        // Stats are process-local and come back empty.
        assert_eq!(loaded.stats().num_rounds(), 0);
    }

    #[test]
    fn every_truncation_prefix_is_a_named_error() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            let err = WeightedCoreset::<Euclidean, f64>::from_bytes(&bytes[..len])
                .expect_err("truncated buffer must not decode");
            assert!(
                matches!(
                    err,
                    PersistError::Truncated { .. }
                        | PersistError::BadMagic { .. }
                        | PersistError::ChecksumMismatch { .. }
                ),
                "prefix {len}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn wrong_magic_version_scalar_distance_are_named() {
        let bytes = sample().to_bytes();

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            WeightedCoreset::<Euclidean, f64>::from_bytes(&bad).unwrap_err(),
            PersistError::BadMagic { .. }
        ));

        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(
            WeightedCoreset::<Euclidean, f64>::from_bytes(&restamp(bad)).unwrap_err(),
            PersistError::UnsupportedVersion {
                found: 99,
                supported: FORMAT_VERSION
            }
        ));

        // f64 payload into an f32 reader.
        assert!(matches!(
            WeightedCoreset::<Euclidean, f32>::from_bytes(&bytes).unwrap_err(),
            PersistError::ScalarMismatch {
                stored: 2,
                expected: 1
            }
        ));

        // Euclidean payload into a Manhattan reader.
        assert!(matches!(
            WeightedCoreset::<Manhattan, f64>::from_bytes(&bytes).unwrap_err(),
            PersistError::DistanceMismatch { .. }
        ));
    }

    #[test]
    fn bit_flips_anywhere_are_rejected() {
        let bytes = sample().to_bytes();
        // Flip one bit in a spread of positions across the buffer (every
        // position would be O(n^2); the corruption proptests cover random
        // positions).
        for pos in (0..bytes.len()).step_by(17) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(
                WeightedCoreset::<Euclidean, f64>::from_bytes(&bad).is_err(),
                "flip at {pos} was accepted"
            );
        }
    }

    #[test]
    fn structural_tampering_behind_a_valid_checksum_is_still_rejected() {
        let coreset = sample();
        let bytes = coreset.to_bytes();

        // Locate the weights block: header is 4+2+1+1+1+1+9 ("euclidean")
        // + 4 + 8 + 8 + 8, then rows, then ids, then weights.
        let header = 4 + 2 + 1 + 1 + 1 + 1 + "euclidean".len() + 4 + 8 + 8 + 8;
        let rows = coreset.len() * 2 * 8;
        let ids = coreset.len() * 8;
        let weights_at = header + rows + ids;

        // Inflate one weight: the partition invariant must catch it.
        let mut bad = bytes.clone();
        bad[weights_at] = bad[weights_at].wrapping_add(1);
        assert!(matches!(
            WeightedCoreset::<Euclidean, f64>::from_bytes(&restamp(bad)).unwrap_err(),
            PersistError::Malformed { .. } | PersistError::ChecksumMismatch { .. }
        ));

        // Bad builder tag.
        let mut bad = bytes.clone();
        bad[7] = 7;
        assert!(matches!(
            WeightedCoreset::<Euclidean, f64>::from_bytes(&restamp(bad)).unwrap_err(),
            PersistError::Malformed {
                what: "builder tag"
            }
        ));

        // Unknown flags.
        let mut bad = bytes.clone();
        bad[8] = 0x80;
        assert!(matches!(
            WeightedCoreset::<Euclidean, f64>::from_bytes(&restamp(bad)).unwrap_err(),
            PersistError::Malformed { what: "flags" }
        ));

        // Trailing garbage after the checksum.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(WeightedCoreset::<Euclidean, f64>::from_bytes(&bad).is_err());

        // Non-finite certificate behind a fresh checksum.
        let radius_at = header - 8;
        let mut bad = bytes;
        bad[radius_at..radius_at + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(matches!(
            WeightedCoreset::<Euclidean, f64>::from_bytes(&restamp(bad)).unwrap_err(),
            PersistError::Malformed {
                what: "construction radius"
            }
        ));
    }

    #[test]
    fn partial_coresets_round_trip_with_provenance() {
        use kcenter_mapreduce::{FaultConfig, FaultKind, FaultPlan, ScheduledFault};
        let space = cloud(2_000, 42);
        let plan = FaultPlan::explicit(
            (0..3)
                .map(|attempt| ScheduledFault {
                    round: 0,
                    machine: 2,
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
            .with_faults(faults)
            .build(&space)
            .unwrap();
        assert!(coreset.is_partial());
        let loaded = WeightedCoreset::<Euclidean, f64>::from_bytes(&coreset.to_bytes()).unwrap();
        assert_eq!(loaded.coverage(), coreset.coverage());
        assert!(loaded.is_partial());
        assert_eq!(loaded.to_bytes(), coreset.to_bytes());
    }

    #[test]
    fn f32_and_seeded_coresets_round_trip() {
        use crate::eim::EimConfig;
        use kcenter_metric::FlatPoints;
        let pts = cloud(800, 43).points();
        let space32: VecSpace<Euclidean, f32> =
            VecSpace::from_flat(FlatPoints::<f32>::from_points(&pts));
        let c32 = GonzalezCoresetConfig::new(24).build(&space32).unwrap();
        let loaded = WeightedCoreset::<Euclidean, f32>::from_bytes(&c32.to_bytes()).unwrap();
        assert_eq!(loaded.space().flat().coords(), c32.space().flat().coords());
        assert_eq!(loaded.precision_name(), "f32");
        assert_eq!(loaded.to_bytes(), c32.to_bytes());

        let eim = EimConfig::new(2)
            .with_epsilon(0.13)
            .with_machines(4)
            .with_seed(7)
            .build_coreset(&cloud(1_000, 44))
            .unwrap();
        let loaded = WeightedCoreset::<Euclidean, f64>::from_bytes(&eim.to_bytes()).unwrap();
        assert_eq!(loaded.seed(), Some(7));
        assert_eq!(loaded.builder(), CoresetBuilder::Eim);
        assert_eq!(loaded.to_bytes(), eim.to_bytes());
    }
}
