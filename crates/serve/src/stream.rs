//! Deterministic batched point streams.
//!
//! A [`BatchStream`] replays a [`DatasetSpec`] as an ordered sequence of
//! contiguous batches: batch `b` holds the global source ids
//! `[start_b, start_b + len_b)`, so folding batches *in order* with
//! `WeightedCoreset::merge` (which offsets the right side by the left
//! side's `source_len`) reproduces exactly the global ids of a one-shot
//! build over the whole stream.
//!
//! The stream is also the **source of record** for re-replication: when a
//! degrade-mode batch build drops a shard, the lost rows are re-read from
//! the stream (by global id) and re-ingested, healing the summary instead
//! of disclosing the points as lost.

use kcenter_core::hash::Fnv;
use kcenter_data::DatasetSpec;
use kcenter_metric::{Distance, FlatPoints, PointId, Scalar, VecSpace};

/// Declarative description of a batched stream: which dataset, which
/// generator seed, and how many contiguous batches to split it into.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// The workload to generate (see [`DatasetSpec`]).
    pub spec: DatasetSpec,
    /// Generator seed — the same seed always replays the same stream.
    pub seed: u64,
    /// Number of contiguous batches (first `n % batches` batches get one
    /// extra point, mirroring the cluster partitioner).
    pub batches: usize,
}

/// Errors opening a [`BatchStream`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// `batches` was zero.
    ZeroBatches,
    /// More batches than points — some batch would be empty.
    TooManyBatches {
        /// Points in the dataset.
        n: usize,
        /// Batches requested.
        batches: usize,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::ZeroBatches => write!(f, "a stream needs at least one batch"),
            StreamError::TooManyBatches { n, batches } => write!(
                f,
                "cannot split {n} points into {batches} non-empty batches"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

/// A fully materialised deterministic stream of point batches.
///
/// Materialising the whole dataset up front keeps the stream bit-identical
/// to the batch pipeline's view of the same `DatasetSpec` and makes
/// arbitrary re-reads (resume, re-replication) O(1) per row.
#[derive(Debug, Clone)]
pub struct BatchStream<D: Distance, S: Scalar = f64> {
    flat: FlatPoints<S>,
    dist: D,
    /// `(start, len)` per batch; contiguous and covering `0..n`.
    boundaries: Vec<(usize, usize)>,
    digest: u64,
}

impl<D: Distance + Default + Clone, S: Scalar> BatchStream<D, S> {
    /// Generates the dataset and fixes the batch boundaries.
    pub fn open(config: &StreamConfig) -> Result<Self, StreamError> {
        if config.batches == 0 {
            return Err(StreamError::ZeroBatches);
        }
        let n = config.spec.n();
        if config.batches > n {
            return Err(StreamError::TooManyBatches {
                n,
                batches: config.batches,
            });
        }
        let flat = config.spec.generate_flat_at::<S>(config.seed);
        let base = n / config.batches;
        let rem = n % config.batches;
        let mut boundaries = Vec::with_capacity(config.batches);
        let mut start = 0;
        for b in 0..config.batches {
            let len = base + usize::from(b < rem);
            boundaries.push((start, len));
            start += len;
        }
        debug_assert_eq!(start, n);
        let dist = D::default();
        let mut h = Fnv::new();
        h.write(b"kcenter-stream-v1");
        h.write(config.spec.describe().as_bytes());
        h.write_u64(config.seed);
        h.write_u64(config.batches as u64);
        h.write(S::NAME.as_bytes());
        h.write(dist.name().as_bytes());
        Ok(Self {
            flat,
            dist,
            boundaries,
            digest: h.finish(),
        })
    }
}

impl<D: Distance + Clone, S: Scalar> BatchStream<D, S> {
    /// Number of batches.
    pub fn num_batches(&self) -> usize {
        self.boundaries.len()
    }

    /// Total points across all batches.
    pub fn total_len(&self) -> usize {
        self.flat.len()
    }

    /// Digest over `(workload, seed, batches, precision, distance)` — the
    /// identity a checkpoint must match to be resumable against this
    /// stream.
    pub fn config_digest(&self) -> u64 {
        self.digest
    }

    /// `(start, len)` of batch `b` in global source ids.
    pub fn batch_range(&self, b: usize) -> (usize, usize) {
        self.boundaries[b]
    }

    /// The rows of batch `b` as an owned metric space (batch-local ids
    /// `0..len`; global id = `start + local`).
    pub fn batch_space(&self, b: usize) -> VecSpace<D, S> {
        let (start, len) = self.boundaries[b];
        self.rows_space(&(start..start + len).collect::<Vec<_>>())
    }

    /// Gathers arbitrary global rows into an owned space — the
    /// re-replication read path for healing dropped shards.
    pub fn rows_space(&self, global_ids: &[PointId]) -> VecSpace<D, S> {
        let dim = self.flat.dim();
        let mut rows = FlatPoints::with_capacity(dim, global_ids.len());
        for &id in global_ids {
            rows.push_row(self.flat.row(id));
        }
        VecSpace::from_flat_with_distance(rows, self.dist.clone())
    }

    /// The whole stream as one space (for final certification scans).
    pub fn full_space(&self) -> VecSpace<D, S> {
        VecSpace::from_flat_with_distance(self.flat.clone(), self.dist.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcenter_metric::Euclidean;

    fn spec() -> DatasetSpec {
        DatasetSpec::Gau { n: 103, k_prime: 4 }
    }

    #[test]
    fn batches_are_contiguous_and_cover_the_stream() {
        let stream: BatchStream<Euclidean> = BatchStream::open(&StreamConfig {
            spec: spec(),
            seed: 7,
            batches: 5,
        })
        .unwrap();
        assert_eq!(stream.num_batches(), 5);
        let mut expect_start = 0;
        for b in 0..5 {
            let (start, len) = stream.batch_range(b);
            assert_eq!(start, expect_start);
            // 103 = 5 * 20 + 3: first three batches get the extra point.
            assert_eq!(len, if b < 3 { 21 } else { 20 });
            expect_start += len;
        }
        assert_eq!(expect_start, stream.total_len());
    }

    #[test]
    fn batch_rows_match_the_one_shot_generation() {
        let config = StreamConfig {
            spec: spec(),
            seed: 7,
            batches: 4,
        };
        let stream: BatchStream<Euclidean> = BatchStream::open(&config).unwrap();
        let whole = config.spec.generate_flat_at::<f64>(config.seed);
        for b in 0..stream.num_batches() {
            let (start, len) = stream.batch_range(b);
            let space = stream.batch_space(b);
            for local in 0..len {
                assert_eq!(space.flat().row(local), whole.row(start + local));
            }
        }
    }

    #[test]
    fn digest_separates_every_config_axis() {
        let base = StreamConfig {
            spec: spec(),
            seed: 7,
            batches: 4,
        };
        let open = |c: &StreamConfig| BatchStream::<Euclidean>::open(c).unwrap().config_digest();
        let d = open(&base);
        assert_eq!(d, open(&base.clone()), "digest must be reproducible");
        let mut other = base.clone();
        other.seed = 8;
        assert_ne!(d, open(&other));
        let mut other = base.clone();
        other.batches = 5;
        assert_ne!(d, open(&other));
        let mut other = base.clone();
        other.spec = DatasetSpec::Gau { n: 104, k_prime: 4 };
        assert_ne!(d, open(&other));
        let f32_digest = BatchStream::<Euclidean, f32>::open(&base)
            .unwrap()
            .config_digest();
        assert_ne!(d, f32_digest, "precision is part of the stream identity");
    }

    #[test]
    fn invalid_splits_are_named_errors() {
        let zero = BatchStream::<Euclidean>::open(&StreamConfig {
            spec: spec(),
            seed: 1,
            batches: 0,
        });
        assert_eq!(zero.unwrap_err(), StreamError::ZeroBatches);
        let many = BatchStream::<Euclidean>::open(&StreamConfig {
            spec: DatasetSpec::Unif { n: 3 },
            seed: 1,
            batches: 4,
        });
        assert_eq!(
            many.unwrap_err(),
            StreamError::TooManyBatches { n: 3, batches: 4 }
        );
    }
}
