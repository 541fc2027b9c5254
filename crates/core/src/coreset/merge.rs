//! Mergeable coresets: compose batch summaries, re-compress against a
//! budget, and heal degraded coverage by re-ingesting lost points.
//!
//! This is the composable-summary discipline of Aghamolaei & Ghodsi's
//! data-distributed 2-approximation (see PAPERS.md): the union of two
//! certified summaries is itself a certified summary, so a stream can be
//! folded batch by batch without ever revisiting raw points.  Three
//! operations, three certificate rules:
//!
//! * **[`WeightedCoreset::merge`]** — concatenate the representative rows
//!   of two summaries over *disjoint* source prefixes.  Every source point
//!   still reaches a representative within its own builder's radius, so the
//!   composed certificate is `max(r_a, r_b)` — no slack is added.  The
//!   merged summary carries empty [`JobStats`]: it spans many builds, and
//!   its accounting is its parts'.
//! * **[`WeightedCoreset::recompress`]** — when the accumulated summary
//!   exceeds a budget, re-run a farthest-point selection *on the
//!   positive-weight representatives* and fold each old representative's
//!   weight into its nearest survivor.  A source point now pays two hops
//!   (to its old representative, then to that representative's survivor),
//!   so the certificate composes **additively**: `r_new = r_old + r_compress`,
//!   where `r_compress` is the certified covering radius of the survivors
//!   over the positive-weight old representatives.  Only the rows the
//!   selection dropped are scanned against the survivors: a survivor the
//!   traversal chose is its own nearest survivor at distance 0, so it
//!   keeps its weight and adds nothing to `r_compress` (see
//!   [`WeightedCoreset::recompress`] for why that is exact, and for the
//!   fits-the-budget case, where every row is scanned).
//! * **[`WeightedCoreset::absorb_reingested`]** — a degraded batch build
//!   (PR 6's disclose-as-lost semantics) names exactly which source ids
//!   fell out of its claim; a service that still holds the source of
//!   record can rebuild a summary of just those points and fold it back
//!   in, restoring full coverage.  The certificate is again the `max` of
//!   the two, because the re-ingested points reach their own
//!   representatives directly.
//!
//! All three are deterministic per `(seed, precision, kernel, assign)`:
//! the only selection they run is the same Gonzalez traversal over the
//! positive-weight representatives that the sweep path uses, and every
//! reported radius is certified with the `wide_cmp_*` (`f64`-accumulating)
//! discipline.

use super::{gather_rows, CoresetBuilder, CoresetCoverage, WeightedCoreset};
use crate::error::KCenterError;
use crate::gonzalez::FirstCenter;
use crate::solver::SequentialSolver;
use kcenter_mapreduce::JobStats;
use kcenter_metric::distance::Distance;
use kcenter_metric::{PointId, Scalar, VecSpace};

impl<D: Distance + Clone, S: Scalar> WeightedCoreset<D, S> {
    /// Composes this summary with a summary of the **next** `other.source_len()`
    /// source points: the merged coreset summarises a source of
    /// `self.source_len() + other.source_len()` points in which `other`'s
    /// source ids are shifted up by `self.source_len()`.
    ///
    /// This is the streaming fold: batches arrive in order, each batch is
    /// summarised on its own, and the accumulated summary is the running
    /// merge.  The composed certificate is `max(r_a, r_b)` (each source
    /// point still reaches a representative of its own batch), coverage
    /// provenance concatenates with the same id shift, and the builder
    /// becomes [`CoresetBuilder::Merged`].  The build seed survives only
    /// when both sides agree (otherwise there is no single seed to report).
    /// The merged summary's [`WeightedCoreset::stats`] are empty: it spans
    /// many builds, and each build's accounting belongs to that build (a
    /// stream's fold would otherwise copy its whole job history per batch).
    ///
    /// # Errors
    ///
    /// [`KCenterError::InvalidParameter`] when the two summaries disagree
    /// on distance function, storage dimension, or when either side is
    /// empty of representatives (an empty side summarises nothing and
    /// would silently shift ids).
    pub fn merge(&self, other: &Self) -> Result<Self, KCenterError> {
        if self.is_empty() || other.is_empty() {
            return Err(KCenterError::InvalidParameter {
                name: "merge",
                message: "cannot merge an empty coreset".into(),
            });
        }
        if self.space.metric().name() != other.space.metric().name() {
            return Err(KCenterError::InvalidParameter {
                name: "merge",
                message: format!(
                    "distance mismatch: {} vs {}",
                    self.space.metric().name(),
                    other.space.metric().name()
                ),
            });
        }
        if self.space.dim() != other.space.dim() {
            return Err(KCenterError::InvalidParameter {
                name: "merge",
                message: format!(
                    "dimension mismatch: {:?} vs {:?}",
                    self.space.dim(),
                    other.space.dim()
                ),
            });
        }

        let offset = self.source_len;
        let mut flat = self.space.flat().clone();
        flat.append(other.space.flat());
        let space = VecSpace::from_flat_with_distance(flat, self.space.metric().clone());

        let mut source_ids = self.source_ids.clone();
        source_ids.extend(other.source_ids.iter().map(|&id| id + offset));
        let mut weights = self.weights.clone();
        weights.extend_from_slice(&other.weights);

        // Both lost lists are ascending and `other`'s shifted ids all sit
        // above `self`'s range, so concatenation stays ascending.
        let mut lost = self.coverage.lost_source_ids.clone();
        lost.extend(other.coverage.lost_source_ids.iter().map(|&id| id + offset));
        let mut dropped = self.coverage.dropped_shards.clone();
        dropped.extend(other.coverage.dropped_shards.iter().cloned());
        let coverage = CoresetCoverage {
            covered_source_len: self.coverage.covered_source_len
                + other.coverage.covered_source_len,
            dropped_shards: dropped,
            lost_source_ids: lost,
        };

        let seed = if self.seed == other.seed {
            self.seed
        } else {
            None
        };

        Ok(Self::from_parts(
            space,
            source_ids,
            weights,
            self.source_len + other.source_len,
            self.construction_radius.max(other.construction_radius),
            CoresetBuilder::Merged,
            seed,
            JobStats::new(),
            coverage,
        ))
    }

    /// Shrinks the summary to at most `budget` representatives by a
    /// farthest-point selection **on the positive-weight representatives**,
    /// folding each old representative's weight into its nearest survivor
    /// (the [`crate::evaluate::assign`] convention: comparison-space
    /// argmin, ties to the smaller survivor position).
    ///
    /// The certificate composes additively: a covered source point reaches
    /// its old representative within `r_old` and that representative
    /// reaches its survivor within the certified compression radius, so
    /// `r_new = r_old + r_compress`.  `r_compress` is the `f64`-certified
    /// covering radius of the survivors over the positive-weight old
    /// representatives (a zero-weight row is neither a candidate nor an
    /// obligation, as in every solve).
    ///
    /// Only the positive-weight rows the selection dropped are scanned.
    /// Each adds its weight to its [`VecSpace::nearest`] survivor, and can
    /// raise `r_compress` only past the pruning of the build's weights
    /// round: the wide distance to its assigned survivor first, the full
    /// wide scan over the survivors only when that exceeds the running
    /// maximum.  A survivor keeps its own weight and adds 0 to the radius,
    /// which is exact whenever the traversal's loop chose it: the loop
    /// promotes a row only at positive comparison distance from every
    /// earlier survivor, and whether a sum of per-coordinate squares or
    /// absolute differences is zero depends on neither the kernel backend
    /// nor the summation order, so no earlier survivor ties with a
    /// survivor's own slot.  When the support already fits the budget the
    /// loop never runs: the survivors are the whole support, duplicate rows
    /// included, so every support row is scanned and a duplicate folds into
    /// its first copy.  Survivors, weights and certificate are bit for bit
    /// those of assigning and certifying every row against the survivors,
    /// at about `(support − budget) · budget` pairs instead of twice
    /// `len · budget`.
    ///
    /// Returns a clone when the summary already fits the budget.
    ///
    /// # Errors
    ///
    /// [`KCenterError::InvalidParameter`] when `budget` is zero.
    pub fn recompress(&self, budget: usize) -> Result<Self, KCenterError> {
        if budget == 0 {
            return Err(KCenterError::InvalidParameter {
                name: "budget",
                message: "a coreset budget needs at least one representative".into(),
            });
        }
        if self.len() <= budget {
            return Ok(self.clone());
        }

        let support = self.support();
        let survivors = SequentialSolver::Gonzalez.select_centers(
            &self.space,
            &support,
            budget,
            FirstCenter::default(),
        );
        // The loop chose the survivors only when the support exceeded the
        // budget; otherwise they are the support itself, duplicates too.
        let (mut weights, scanned) = if support.len() > budget {
            let mut kept = vec![false; self.len()];
            for &s in &survivors {
                kept[s] = true;
            }
            let own = survivors.iter().map(|&s| self.weights[s]).collect();
            let dropped: Vec<PointId> = support.into_iter().filter(|&r| !kept[r]).collect();
            (own, dropped)
        } else {
            (vec![0u64; survivors.len()], support)
        };
        let mut wide_max = f64::NEG_INFINITY;
        for &row in &scanned {
            let (slot, _) = self.space.nearest(row, &survivors);
            weights[slot] += self.weights[row];
            // wide_min(row) <= wide(row, its survivor): within the running
            // max the row cannot raise it — skip the wide scan.
            if self.space.wide_cmp_distance(row, survivors[slot]) > wide_max {
                let w = self
                    .space
                    .wide_cmp_distance_to_set_bounded(row, &survivors, wide_max);
                wide_max = wide_max.max(w);
            }
        }
        let r_compress = self
            .space
            .metric()
            .wide_surrogate_to_distance(wide_max.max(0.0));

        let source_ids: Vec<PointId> = survivors.iter().map(|&s| self.source_ids[s]).collect();
        Ok(Self::from_parts(
            gather_rows(&self.space, &survivors),
            source_ids,
            weights,
            self.source_len,
            self.construction_radius + r_compress,
            CoresetBuilder::Merged,
            self.seed,
            self.stats.clone(),
            self.coverage.clone(),
        ))
    }

    /// Heals a degraded summary by folding in a summary of its lost points
    /// — the re-replication a service performs from the source of record
    /// instead of PR 6's disclose-as-lost degradation.
    ///
    /// `supplement` must be a **full-coverage** summary of exactly the
    /// points named by `recovered_ids` (its local source id `i` stands for
    /// this coreset's source id `recovered_ids[i]`), and every recovered id
    /// must currently be lost here.  The healed summary covers the union;
    /// when every lost point is recovered, the dropped-shard provenance is
    /// cleared — the summary is whole again, and the *history* of the drop
    /// belongs to the ingest log, not the certificate.  The composed
    /// certificate is `max(r_self, r_supplement)`.
    ///
    /// # Errors
    ///
    /// [`KCenterError::InvalidParameter`] when the supplement is partial,
    /// its source length disagrees with `recovered_ids`, an id is not
    /// currently lost, or spaces disagree on distance/dimension.
    pub fn absorb_reingested(
        &self,
        supplement: &Self,
        recovered_ids: &[PointId],
    ) -> Result<Self, KCenterError> {
        if supplement.is_partial() {
            return Err(KCenterError::InvalidParameter {
                name: "supplement",
                message: "a re-ingested summary must itself be full-coverage".into(),
            });
        }
        if supplement.source_len() != recovered_ids.len() {
            return Err(KCenterError::InvalidParameter {
                name: "recovered_ids",
                message: format!(
                    "supplement summarises {} points but {} ids were recovered",
                    supplement.source_len(),
                    recovered_ids.len()
                ),
            });
        }
        if self.space.metric().name() != supplement.space.metric().name()
            || (!supplement.is_empty() && self.space.dim() != supplement.space.dim())
        {
            return Err(KCenterError::InvalidParameter {
                name: "supplement",
                message: "supplement space disagrees with the coreset space".into(),
            });
        }
        let currently_lost: std::collections::BTreeSet<PointId> =
            self.coverage.lost_source_ids.iter().copied().collect();
        if !recovered_ids.iter().all(|id| currently_lost.contains(id)) {
            return Err(KCenterError::InvalidParameter {
                name: "recovered_ids",
                message: "every recovered id must currently be lost".into(),
            });
        }

        let mut flat = self.space.flat().clone();
        flat.append(supplement.space.flat());
        let space = VecSpace::from_flat_with_distance(flat, self.space.metric().clone());

        let mut source_ids = self.source_ids.clone();
        source_ids.extend(supplement.source_ids.iter().map(|&i| recovered_ids[i]));
        let mut weights = self.weights.clone();
        weights.extend_from_slice(&supplement.weights);

        let recovered: std::collections::BTreeSet<PointId> =
            recovered_ids.iter().copied().collect();
        let lost: Vec<PointId> = self
            .coverage
            .lost_source_ids
            .iter()
            .copied()
            .filter(|id| !recovered.contains(id))
            .collect();
        let dropped = if lost.is_empty() {
            Vec::new()
        } else {
            self.coverage.dropped_shards.clone()
        };
        let coverage = CoresetCoverage {
            covered_source_len: self.coverage.covered_source_len + recovered_ids.len(),
            dropped_shards: dropped,
            lost_source_ids: lost,
        };

        let mut stats = self.stats.clone();
        stats.extend(supplement.stats.clone());
        Ok(Self::from_parts(
            space,
            source_ids,
            weights,
            self.source_len,
            self.construction_radius.max(supplement.construction_radius),
            CoresetBuilder::Merged,
            self.seed,
            stats,
            coverage,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::super::GonzalezCoresetConfig;
    use super::*;
    use crate::evaluate::covering_radius;
    use kcenter_metric::Point;

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

    /// Splits a cloud's rows into `parts` contiguous batches (as spaces).
    fn split(space: &VecSpace, parts: usize) -> Vec<VecSpace> {
        let n = space.len();
        let base = n / parts;
        let rem = n % parts;
        let mut out = Vec::with_capacity(parts);
        let mut start = 0usize;
        for p in 0..parts {
            let len = base + usize::from(p < rem);
            let mut flat = kcenter_metric::FlatPoints::<f64>::with_capacity(2, len);
            for id in start..start + len {
                flat.push_row(space.row(id));
            }
            out.push(VecSpace::from_flat_with_distance(flat, *space.metric()));
            start += len;
        }
        out
    }

    #[test]
    fn merge_concatenates_with_max_certificate() {
        let space = cloud(2_000, 21);
        let parts = split(&space, 2);
        let a = GonzalezCoresetConfig::new(48).build(&parts[0]).unwrap();
        let b = GonzalezCoresetConfig::new(48).build(&parts[1]).unwrap();
        let m = a.merge(&b).unwrap();
        assert_eq!(m.len(), 96);
        assert_eq!(m.source_len(), 2_000);
        assert_eq!(m.total_weight(), 2_000);
        assert_eq!(m.builder(), CoresetBuilder::Merged);
        assert_eq!(
            m.construction_radius(),
            a.construction_radius().max(b.construction_radius())
        );
        // Shifted ids point at the right global rows: the merged
        // representative rows are the rows of their claimed source ids.
        for (local, &global) in m.source_ids().iter().enumerate() {
            assert_eq!(m.space().row(local), space.row(global), "rep {local}");
        }
        // The composed certificate really bounds the source-to-rep radius.
        let exact = covering_radius(&space, m.source_ids());
        assert!(exact <= m.construction_radius() + 1e-12);
    }

    #[test]
    fn merged_solutions_carry_a_valid_bound_over_the_union() {
        let space = cloud(3_000, 22);
        let parts = split(&space, 3);
        let summaries: Vec<_> = parts
            .iter()
            .map(|p| GonzalezCoresetConfig::new(64).build(p).unwrap())
            .collect();
        let merged = summaries[1..]
            .iter()
            .fold(summaries[0].clone(), |acc, s| acc.merge(s).unwrap());
        let sol = merged
            .solve(5, SequentialSolver::Gonzalez, FirstCenter::default())
            .unwrap();
        let full = sol.certify(&space);
        assert!(
            full <= sol.radius_bound + 1e-9,
            "full radius {full} exceeds merged bound {}",
            sol.radius_bound
        );
    }

    #[test]
    fn recompress_folds_weights_and_composes_additively() {
        let space = cloud(2_400, 23);
        let parts = split(&space, 2);
        let a = GonzalezCoresetConfig::new(80).build(&parts[0]).unwrap();
        let b = GonzalezCoresetConfig::new(80).build(&parts[1]).unwrap();
        let merged = a.merge(&b).unwrap();
        let squeezed = merged.recompress(60).unwrap();
        assert_eq!(squeezed.len(), 60);
        assert_eq!(squeezed.total_weight(), 2_400);
        assert_eq!(squeezed.source_len(), 2_400);
        assert!(squeezed.construction_radius() >= merged.construction_radius());
        // The composed certificate bounds the exact source-to-rep radius.
        let exact = covering_radius(&space, squeezed.source_ids());
        assert!(
            exact <= squeezed.construction_radius() + 1e-12,
            "exact {exact} vs composed {}",
            squeezed.construction_radius()
        );
        // And solutions on the squeezed summary still bound the full data.
        let sol = squeezed
            .solve(8, SequentialSolver::Gonzalez, FirstCenter::default())
            .unwrap();
        assert!(sol.certify(&space) <= sol.radius_bound + 1e-9);
        // Within budget, recompress is the identity (same bits).
        let kept = squeezed.recompress(60).unwrap();
        assert_eq!(kept.source_ids(), squeezed.source_ids());
        assert_eq!(kept.weights(), squeezed.weights());
        assert_eq!(kept.construction_radius(), squeezed.construction_radius());
    }

    #[test]
    fn merge_is_deterministic_bit_for_bit() {
        let space = cloud(2_000, 24);
        let parts = split(&space, 4);
        let build = || {
            let summaries: Vec<_> = parts
                .iter()
                .map(|p| GonzalezCoresetConfig::new(40).build(p).unwrap())
                .collect();
            // The ingest fold: merge, then re-compress over the budget.
            let mut acc = summaries[0].clone();
            for s in &summaries[1..] {
                acc = acc.merge(s).unwrap();
                if acc.len() > 90 {
                    acc = acc.recompress(90).unwrap();
                }
            }
            acc
        };
        let x = build();
        let y = build();
        assert_eq!(x.source_ids(), y.source_ids());
        assert_eq!(x.weights(), y.weights());
        assert_eq!(
            x.construction_radius().to_bits(),
            y.construction_radius().to_bits()
        );
        assert_eq!(x.space().flat().coords(), y.space().flat().coords());
    }

    #[test]
    fn folding_a_stream_keeps_the_accumulated_stats_empty() {
        let space = cloud(2_000, 27);
        let mut acc: Option<WeightedCoreset> = None;
        for part in split(&space, 8) {
            let built = GonzalezCoresetConfig::new(40).build(&part).unwrap();
            assert_eq!(built.stats().num_rounds(), 3);
            let mut next = match acc.take() {
                None => built,
                Some(a) => a.merge(&built).unwrap(),
            };
            if next.len() > 90 {
                next = next.recompress(90).unwrap();
            }
            acc = Some(next);
        }
        // Each batch's rounds stay with its build: the fold copies none.
        assert_eq!(acc.unwrap().stats().num_rounds(), 0);
    }

    #[test]
    fn merge_rejects_mismatched_or_empty_inputs() {
        let space = cloud(600, 25);
        let a = GonzalezCoresetConfig::new(16).build(&space).unwrap();
        // Dimension mismatch.
        let other = VecSpace::new(vec![Point::new(vec![1.0, 2.0, 3.0]); 50]);
        let b = GonzalezCoresetConfig::new(8).build(&other).unwrap();
        assert!(matches!(
            a.merge(&b).unwrap_err(),
            KCenterError::InvalidParameter { name: "merge", .. }
        ));
        assert!(matches!(
            a.recompress(0).unwrap_err(),
            KCenterError::InvalidParameter { name: "budget", .. }
        ));
    }

    #[test]
    fn absorb_reingested_restores_full_coverage() {
        use kcenter_mapreduce::{FaultConfig, FaultKind, FaultPlan, ScheduledFault};
        let space = cloud(2_000, 26);
        // Kill machine 2 of the data-holding round for good: 10 machines x
        // 200 points, ids 400..600 disclosed as lost.
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
        let degraded = GonzalezCoresetConfig::new(64)
            .with_machines(10)
            .with_faults(faults)
            .build(&space)
            .unwrap();
        assert!(degraded.is_partial());
        let lost = degraded.coverage().lost_source_ids.clone();
        assert_eq!(lost.len(), 200);

        // Re-ingest the lost points from the source of record.
        let mut flat = kcenter_metric::FlatPoints::<f64>::with_capacity(2, lost.len());
        for &id in &lost {
            flat.push_row(space.row(id));
        }
        let lost_space = VecSpace::from_flat_with_distance(flat, *space.metric());
        let supplement = GonzalezCoresetConfig::new(16).build(&lost_space).unwrap();
        let healed = degraded.absorb_reingested(&supplement, &lost).unwrap();

        assert!(!healed.is_partial());
        assert_eq!(healed.coverage_fraction(), 1.0);
        assert_eq!(healed.total_weight(), 2_000);
        assert_eq!(healed.source_len(), 2_000);
        assert!(healed.coverage().dropped_shards.is_empty());
        // The healed certificate bounds the exact full-data radius again.
        let exact = covering_radius(&space, healed.source_ids());
        assert!(exact <= healed.construction_radius() + 1e-12);
        // Healed representative rows match their claimed source rows.
        for (local, &global) in healed.source_ids().iter().enumerate() {
            assert_eq!(healed.space().row(local), space.row(global));
        }

        // Guard rails: wrong id count, partial supplement, not-lost ids.
        assert!(degraded
            .absorb_reingested(&supplement, &lost[..100])
            .is_err());
        assert!(degraded
            .absorb_reingested(&supplement, &(0..200).collect::<Vec<_>>())
            .is_err());
    }
}
