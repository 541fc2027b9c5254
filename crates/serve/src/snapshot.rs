//! Immutable query snapshots behind an atomically swapped `Arc`.
//!
//! The serve loop answers "which center, how far?" while ingestion keeps
//! folding batches.  Readers must never block the writer and must never
//! observe a half-updated center set.  Both follow from one rule: a
//! published [`CenterSnapshot`] is immutable, and the [`SnapshotCell`]
//! lock is held only long enough to clone or replace an
//! `Arc<CenterSnapshot>` — never across a distance computation.  A reader
//! that loaded version `v` keeps answering from `v` even while the writer
//! publishes `v + 1`; the next load sees `v + 1` whole.  Old or new, never
//! mixed.

use std::sync::{Arc, RwLock};

use kcenter_core::hash::Fnv;
use kcenter_core::{CoresetSolution, WeightedCoreset};
use kcenter_metric::{Distance, FlatPoints, PointId, Scalar};

/// One nearest-center answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotAnswer {
    /// The nearest center as a **source-space** point id.
    pub center: PointId,
    /// Index of that center within the snapshot (`0..k`).
    pub index: usize,
    /// Certified distance from the query point to the center, computed at
    /// storage precision with the wide (`f64`) comparison kernel.
    pub distance: f64,
    /// The snapshot's triangle-inequality radius bound: every *covered
    /// source point's* distance to its assigned center is at most this.
    pub radius_bound: f64,
    /// Version of the snapshot that answered.
    pub version: u64,
}

/// An immutable, internally consistent set of centers to answer queries
/// against, stamped with the ingest version that produced it.
#[derive(Debug)]
pub struct CenterSnapshot<D: Distance, S: Scalar = f64> {
    version: u64,
    batches_done: u64,
    source_len: usize,
    dist: D,
    centers: FlatPoints<S>,
    center_ids: Vec<PointId>,
    coreset_radius: f64,
    radius_bound: f64,
    covered_fraction: f64,
    digest: u64,
}

impl<D: Distance + Clone, S: Scalar> CenterSnapshot<D, S> {
    /// An empty snapshot (version 0) — the state of a cell before the
    /// first publish.  Queries return `None`.
    pub fn empty() -> Self
    where
        D: Default,
    {
        let mut snap = Self {
            version: 0,
            batches_done: 0,
            source_len: 0,
            dist: D::default(),
            // Dimension 1 placeholder: `FlatPoints` insists on a positive
            // dimension, and query() answers `None` before ever touching
            // the (empty) rows.
            centers: FlatPoints::with_capacity(1, 0),
            center_ids: Vec::new(),
            coreset_radius: 0.0,
            radius_bound: 0.0,
            covered_fraction: 1.0,
            digest: 0,
        };
        snap.digest = snap.compute_digest();
        snap
    }

    /// Packages a solution selected on `coreset` as a query snapshot.
    ///
    /// The center rows are copied out of the coreset so the snapshot owns
    /// everything it needs — publishing never borrows from the (mutable)
    /// ingest state.
    pub fn from_solution(
        version: u64,
        batches_done: u64,
        coreset: &WeightedCoreset<D, S>,
        solution: &CoresetSolution,
    ) -> Self {
        let dim = coreset.space().dim().unwrap_or(0);
        let mut centers = FlatPoints::with_capacity(dim, solution.local_centers.len());
        for &local in &solution.local_centers {
            centers.push_row(coreset.space().flat().row(local));
        }
        let mut snap = Self {
            version,
            batches_done,
            source_len: coreset.source_len(),
            dist: coreset.space().metric().clone(),
            centers,
            center_ids: solution.centers.clone(),
            coreset_radius: solution.coreset_radius,
            radius_bound: solution.radius_bound,
            covered_fraction: solution.covered_fraction,
            digest: 0,
        };
        snap.digest = snap.compute_digest();
        snap
    }

    fn compute_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.write(b"kcenter-snapshot-v1");
        h.write_u64(self.version);
        h.write_u64(self.batches_done);
        h.write_u64(self.source_len as u64);
        h.write(self.dist.name().as_bytes());
        h.write_u64(self.centers.dim() as u64);
        for row in self.centers.rows() {
            for &c in row {
                c.write_le_bytes_into(&mut h);
            }
        }
        for &id in &self.center_ids {
            h.write_u64(id as u64);
        }
        h.write_u64(self.coreset_radius.to_bits());
        h.write_u64(self.radius_bound.to_bits());
        h.write_u64(self.covered_fraction.to_bits());
        h.finish()
    }

    /// Version stamp (monotone per cell; 0 means "nothing published yet").
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Batches folded into the state this snapshot was selected on.
    pub fn batches_done(&self) -> u64 {
        self.batches_done
    }

    /// Number of centers.
    pub fn k(&self) -> usize {
        self.center_ids.len()
    }

    /// Source points summarised by the state behind this snapshot.
    pub fn source_len(&self) -> usize {
        self.source_len
    }

    /// The centers as source-space point ids.
    pub fn center_ids(&self) -> &[PointId] {
        &self.center_ids
    }

    /// The certified radius bound of the published solution.
    pub fn radius_bound(&self) -> f64 {
        self.radius_bound
    }

    /// Fraction of the source the certificate covers (1.0 once any dropped
    /// shards were healed by re-ingestion).
    pub fn covered_fraction(&self) -> f64 {
        self.covered_fraction
    }

    /// Content digest stamped at construction.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Recomputes the content digest and compares it to the stamp — a
    /// tripwire for torn publication: any reader can prove the snapshot it
    /// holds is exactly one whole published state.
    pub fn verify(&self) -> bool {
        self.digest == self.compute_digest()
    }

    /// Answers a nearest-center query for a point given in `f64`
    /// coordinates.  The point is first brought to storage precision `S`
    /// (the same quantisation every stored row went through), then scanned
    /// with the wide comparison kernel, so the returned distance is
    /// certified in `f64`.  Ties break to the lower center index.
    ///
    /// Returns `None` when the snapshot is empty or the query dimension
    /// disagrees with the stored centers.
    pub fn query(&self, coords: &[f64]) -> Option<SnapshotAnswer> {
        if self.centers.is_empty() || coords.len() != self.centers.dim() {
            return None;
        }
        let q: Vec<S> = coords.iter().map(|&c| S::from_f64(c)).collect();
        let mut best_index = 0;
        let mut best = f64::INFINITY;
        for (i, row) in self.centers.rows().enumerate() {
            let d = self.dist.distance_slices(row, &q);
            if d < best {
                best = d;
                best_index = i;
            }
        }
        Some(SnapshotAnswer {
            center: self.center_ids[best_index],
            index: best_index,
            distance: best,
            radius_bound: self.radius_bound,
            version: self.version,
        })
    }
}

// `write_le_bytes` appends to a Vec; adapt it to feed the Fnv hasher
// without an intermediate allocation per row.
trait WriteLeInto {
    fn write_le_bytes_into(self, h: &mut Fnv);
}

impl<S: Scalar> WriteLeInto for S {
    fn write_le_bytes_into(self, h: &mut Fnv) {
        let mut buf = Vec::with_capacity(S::BYTE_WIDTH);
        self.write_le_bytes(&mut buf);
        h.write(&buf);
    }
}

/// The swap point between the ingest loop (single writer) and any number
/// of query threads (readers).
///
/// The lock guards only the `Arc` pointer: [`SnapshotCell::load`] clones
/// the `Arc` under a read lock and releases it before any distance work;
/// [`SnapshotCell::publish`] swaps the pointer under a write lock.  Both
/// critical sections are a few instructions, so readers never observably
/// block ingestion and vice versa.  Lock poisoning is survived by taking
/// the inner value — a panicked publisher cannot wedge the serve loop.
#[derive(Debug)]
pub struct SnapshotCell<D: Distance, S: Scalar = f64> {
    inner: RwLock<Arc<CenterSnapshot<D, S>>>,
}

impl<D: Distance + Default + Clone, S: Scalar> Default for SnapshotCell<D, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<D: Distance + Default + Clone, S: Scalar> SnapshotCell<D, S> {
    /// A cell holding the empty (version 0) snapshot.
    pub fn new() -> Self {
        Self {
            inner: RwLock::new(Arc::new(CenterSnapshot::empty())),
        }
    }
}

impl<D: Distance + Clone, S: Scalar> SnapshotCell<D, S> {
    /// The current snapshot.  The returned `Arc` stays valid (and
    /// unchanged) however many publishes happen afterwards.
    pub fn load(&self) -> Arc<CenterSnapshot<D, S>> {
        let guard = self
            .inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(&guard)
    }

    /// Atomically replaces the current snapshot.  Readers holding the old
    /// `Arc` keep it; new loads see the replacement.
    pub fn publish(&self, snapshot: CenterSnapshot<D, S>) {
        let mut guard = self
            .inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *guard = Arc::new(snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcenter_core::{FirstCenter, GonzalezCoresetConfig, SequentialSolver};
    use kcenter_data::DatasetSpec;
    use kcenter_metric::{Euclidean, VecSpace};

    fn snapshot(version: u64) -> CenterSnapshot<Euclidean, f64> {
        let flat = DatasetSpec::Gau { n: 150, k_prime: 3 }.generate_flat_at::<f64>(21);
        let space = VecSpace::from_flat(flat);
        let coreset = GonzalezCoresetConfig::new(12).build(&space).unwrap();
        let solution = coreset
            .solve(3, SequentialSolver::Gonzalez, FirstCenter::default())
            .unwrap();
        CenterSnapshot::from_solution(version, version, &coreset, &solution)
    }

    #[test]
    fn query_returns_the_nearest_center_with_the_certificate() {
        let snap = snapshot(1);
        assert!(snap.verify());
        assert_eq!(snap.k(), 3);
        // Querying a center's own coordinates must return that center at
        // distance zero.
        let row: Vec<f64> = {
            let i = 1;
            let flat = &snap.centers;
            flat.row(i).to_vec()
        };
        let ans = snap.query(&row).unwrap();
        assert_eq!(ans.index, 1);
        assert_eq!(ans.center, snap.center_ids()[1]);
        assert_eq!(ans.distance, 0.0);
        assert_eq!(ans.radius_bound, snap.radius_bound());
        assert_eq!(ans.version, 1);
        // Dimension mismatch and empty snapshots answer None, not panic.
        assert!(snap.query(&[0.0]).is_none());
        let empty = CenterSnapshot::<Euclidean, f64>::empty();
        assert!(empty.verify());
        assert!(empty.query(&[0.0, 0.0, 0.0]).is_none());
    }

    #[test]
    fn cell_swaps_whole_snapshots() {
        let cell: SnapshotCell<Euclidean, f64> = SnapshotCell::new();
        assert_eq!(cell.load().version(), 0);
        let old = cell.load();
        cell.publish(snapshot(1));
        // The reader's old Arc is untouched; a fresh load sees version 1.
        assert_eq!(old.version(), 0);
        let new = cell.load();
        assert_eq!(new.version(), 1);
        assert!(new.verify());
        cell.publish(snapshot(2));
        assert_eq!(new.version(), 1, "held snapshots never mutate");
        assert_eq!(cell.load().version(), 2);
    }

    #[test]
    fn concurrent_readers_see_whole_versions_only() {
        let cell = std::sync::Arc::new(SnapshotCell::<Euclidean, f64>::new());
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let cell = std::sync::Arc::clone(&cell);
            let stop = std::sync::Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut last = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let snap = cell.load();
                    assert!(snap.verify(), "reader observed a torn snapshot");
                    assert!(snap.version() >= last, "versions must be monotone");
                    last = snap.version();
                    if snap.version() > 0 {
                        let ans = snap
                            .query(&[0.0, 0.0, 0.0])
                            .expect("published snapshot answers");
                        assert_eq!(ans.version, snap.version());
                    }
                }
                last
            }));
        }
        for v in 1..=6 {
            cell.publish(snapshot(v));
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            let last = r.join().expect("reader panicked");
            assert!(last <= 6);
        }
        assert_eq!(cell.load().version(), 6);
    }
}
