//! Property tests for the mergeable-coreset layer (ISSUE 10 satellite):
//!
//! 1. **Split invariance** — summarising a stream in two halves and
//!    merging yields a summary whose certified bound still covers the
//!    full data, for every split position; and an even re-compression
//!    over budget keeps the (additively widened) certificate sound.
//! 2. **Merge determinism** — the same split produces byte-identical
//!    merged summaries, and the certificate composes as the exact `max`
//!    of the halves.
//! 3. **Persistence** — `to_bytes`/`from_bytes` round-trips are
//!    byte-exact, every proper prefix is rejected as a named
//!    [`PersistError`], and every single-bit flip is rejected as a named
//!    error — never a panic, never a partial value.
//! 4. **Re-compression equals the full rescan** — `recompress` scans only
//!    the rows its selection dropped, and must return the survivors,
//!    weights, certificate bits and bytes of selecting on the support,
//!    certifying the survivors over the whole support and assigning every
//!    row: on GAU and DUP streams, f64 and f32 storage, Euclidean and
//!    Manhattan, with zero-weight representatives, and at budgets below,
//!    equal to and above the support size.

use kcenter_core::coreset::{GonzalezCoresetConfig, WeightedCoreset};
use kcenter_core::evaluate::{assign, covering_radius_subset};
use kcenter_core::hash::Fnv;
use kcenter_core::prelude::*;
use kcenter_core::PersistError;
use kcenter_data::DatasetSpec;
use kcenter_mapreduce::{FaultConfig, FaultKind, FaultPlan, ScheduledFault};
use kcenter_metric::distance::Distance;
use kcenter_metric::{Euclidean, FlatPoints, Manhattan, PointId, Scalar, VecSpace};
use proptest::prelude::*;

/// Strategy: an f64 coordinate cloud (n in 32..=96, dim in 1..=3) plus its
/// dimension and a split fraction strictly inside the stream.
fn split_cloud() -> impl Strategy<Value = (Vec<f64>, usize, usize)> {
    (1usize..=3, 32usize..=96).prop_flat_map(|(dim, n)| {
        (
            prop::collection::vec(-500.0f64..500.0, dim * n),
            Just(dim),
            8usize..n - 8,
        )
    })
}

fn space_of(coords: Vec<f64>, dim: usize) -> VecSpace {
    VecSpace::from_flat(FlatPoints::<f64>::from_coords(coords, dim).unwrap())
}

/// Builds a `t`-representative Gonzalez summary of one batch.
fn summarise(space: &VecSpace, t: usize) -> WeightedCoreset {
    GonzalezCoresetConfig::new(t)
        .with_machines(3)
        .build(space)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Splitting the stream at any position and merging the two batch
    /// summaries yields a certificate that still soundly bounds the true
    /// covering radius over the concatenated source — and an over-budget
    /// re-compression widens the certificate additively but keeps it sound.
    #[test]
    fn merged_certificate_covers_the_full_stream_at_every_split(
        (coords, dim, split) in split_cloud(),
        k in 1usize..=4,
    ) {
        let full = space_of(coords.clone(), dim);
        let a = space_of(coords[..split * dim].to_vec(), dim);
        let b = space_of(coords[split * dim..].to_vec(), dim);
        let t = 8;
        let ca = summarise(&a, t);
        let cb = summarise(&b, t);
        let merged = ca.merge(&cb).unwrap();

        // The merge is exact composition: no slack is added.
        prop_assert_eq!(merged.source_len(), full.len());
        prop_assert_eq!(
            merged.construction_radius().to_bits(),
            ca.construction_radius()
                .max(cb.construction_radius())
                .to_bits()
        );
        prop_assert_eq!(
            merged.total_weight(),
            ca.total_weight() + cb.total_weight()
        );

        // Certificate soundness: the certified full-data radius of any
        // solution on the merged summary respects the composed bound.
        let sol = merged
            .solve(k, SequentialSolver::Gonzalez, FirstCenter::default())
            .unwrap();
        let exact = sol.certify(&full);
        prop_assert!(
            exact <= sol.radius_bound + 1e-9,
            "split {split}: certified {exact} > bound {}",
            sol.radius_bound
        );

        // Re-compress to half the size: the certificate widens by exactly
        // the compression radius and stays sound against the full data.
        let budget = (merged.len() / 2).max(k + 1);
        let squeezed = merged.recompress(budget).unwrap();
        prop_assert!(squeezed.len() <= budget);
        prop_assert!(squeezed.construction_radius() >= merged.construction_radius());
        prop_assert_eq!(squeezed.total_weight(), merged.total_weight());
        let ssol = squeezed
            .solve(k.min(squeezed.len()), SequentialSolver::Gonzalez, FirstCenter::default())
            .unwrap();
        let sexact = ssol.certify(&full);
        prop_assert!(
            sexact <= ssol.radius_bound + 1e-9,
            "recompressed bound violated: {sexact} > {}",
            ssol.radius_bound
        );
    }

    /// The same split summarised twice merges to byte-identical state:
    /// the fold is deterministic end to end, which is what lets a resumed
    /// ingestion reproduce the uninterrupted run bit for bit.
    #[test]
    fn identical_splits_merge_bit_identically(
        (coords, dim, split) in split_cloud(),
    ) {
        let build = || {
            let a = space_of(coords[..split * dim].to_vec(), dim);
            let b = space_of(coords[split * dim..].to_vec(), dim);
            summarise(&a, 8).merge(&summarise(&b, 8)).unwrap()
        };
        prop_assert_eq!(build().to_bytes(), build().to_bytes());
    }

    /// Persisted summaries round-trip byte-exactly, and the decoded value
    /// reproduces every certified field.
    #[test]
    fn persist_round_trip_is_byte_exact((coords, dim, split) in split_cloud()) {
        let a = space_of(coords[..split * dim].to_vec(), dim);
        let b = space_of(coords[split * dim..].to_vec(), dim);
        let merged = summarise(&a, 8).merge(&summarise(&b, 8)).unwrap();

        let bytes = merged.to_bytes();
        let decoded = WeightedCoreset::<Euclidean, f64>::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&decoded.to_bytes(), &bytes);
        prop_assert_eq!(decoded.len(), merged.len());
        prop_assert_eq!(decoded.source_len(), merged.source_len());
        prop_assert_eq!(
            decoded.construction_radius().to_bits(),
            merged.construction_radius().to_bits()
        );
        prop_assert_eq!(decoded.weights(), merged.weights());
        prop_assert_eq!(decoded.source_ids(), merged.source_ids());
    }

    /// Every proper prefix of a persisted summary decodes to a named
    /// error — never a panic, never a partial value.
    #[test]
    fn truncated_bytes_are_named_errors(
        (coords, dim, _) in split_cloud(),
        cut in 0.0f64..1.0,
    ) {
        let space = space_of(coords, dim);
        let bytes = summarise(&space, 8).to_bytes();
        let len = ((bytes.len() as f64) * cut) as usize; // < bytes.len()
        let err = WeightedCoreset::<Euclidean, f64>::from_bytes(&bytes[..len])
            .expect_err("a proper prefix must not decode");
        prop_assert!(
            matches!(
                err,
                PersistError::Truncated { .. }
                    | PersistError::BadMagic { .. }
                    | PersistError::ChecksumMismatch { .. }
                    | PersistError::Malformed { .. }
            ),
            "unexpected rejection for prefix of {len}: {err}"
        );
    }

    /// Every single-bit flip is caught: the trailing checksum covers the
    /// whole buffer (and a flip inside the checksum itself breaks the
    /// match), so corruption is reported as corruption.
    #[test]
    fn bit_flips_are_named_errors(
        (coords, dim, _) in split_cloud(),
        pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let space = space_of(coords, dim);
        let mut bytes = summarise(&space, 8).to_bytes();
        let at = ((bytes.len() as f64) * pos) as usize;
        bytes[at] ^= 1 << bit;
        let err = WeightedCoreset::<Euclidean, f64>::from_bytes(&bytes)
            .expect_err("a corrupted buffer must not decode");
        // A flip in the magic is reported as BadMagic (checked before the
        // checksum so unrelated files are named as such); in the version
        // field as UnsupportedVersion; everywhere else the checksum trips.
        prop_assert!(
            matches!(
                err,
                PersistError::ChecksumMismatch { .. }
                    | PersistError::BadMagic { .. }
                    | PersistError::UnsupportedVersion { .. }
            ),
            "unexpected rejection for flip at {at}: {err}"
        );
    }
}

/// Degrade mode on: each listed `(round, machine)` crashes on all three
/// of its attempts, so the cluster drops exactly those shards.  Dropping
/// a shard of a build's weights round (round 2) leaves representatives
/// whose own points it held, and that no surviving point is nearest to,
/// with weight 0.
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

/// The re-compression as three full scans: the Gonzalez selection on the
/// positive-weight support, the certified covering radius of the
/// survivors over the support, and every row's weight folded into its
/// `assign`ed survivor.  Returns the survivors (local ids), their weights
/// and the composed certificate.
fn rescan<D: Distance + Clone, S: Scalar>(
    c: &WeightedCoreset<D, S>,
    budget: usize,
) -> (Vec<PointId>, Vec<u64>, f64) {
    let support: Vec<PointId> = (0..c.len()).filter(|&i| c.weights()[i] > 0).collect();
    let survivors = SequentialSolver::Gonzalez.select_centers(
        c.space(),
        &support,
        budget,
        FirstCenter::default(),
    );
    let r_compress = covering_radius_subset(c.space(), &support, &survivors);
    let mut weights = vec![0u64; survivors.len()];
    for (row, slot) in assign(c.space(), &survivors).into_iter().enumerate() {
        weights[slot] += c.weights()[row];
    }
    (survivors, weights, c.construction_radius() + r_compress)
}

/// The bytes of `c` re-compressed to `survivors`, spliced from `c`'s own
/// encoding (the layout in `coreset::persist`): its header with the
/// merged builder tag, the survivors' count, the certificate, the
/// survivors' rows, source ids and weights, then `c`'s coverage, under a
/// fresh checksum.
fn recompressed_bytes<D: Distance + Clone, S: Scalar>(
    c: &WeightedCoreset<D, S>,
    survivors: &[PointId],
    weights: &[u64],
    radius: f64,
) -> Vec<u8> {
    let bytes = c.to_bytes();
    // Magic (4), version (2) and scalar tag (1) precede the builder tag at
    // 7, the flags at 8 (bit 0: seed present) and the name length at 9;
    // the name, the optional seed and the `u32` dimension follow.
    let seed_len = if bytes[8] & 1 == 1 { 8 } else { 0 };
    let count_at = 10 + usize::from(bytes[9]) + seed_len + 4;
    let row_len = c.space().flat().dim() * S::BYTE_WIDTH;
    let coverage_at = count_at + 24 + c.len() * (row_len + 16);
    let mut out = bytes[..count_at].to_vec();
    out[7] = 2; // builder tag: merged
    out.extend_from_slice(&(survivors.len() as u64).to_le_bytes());
    out.extend_from_slice(&(c.source_len() as u64).to_le_bytes());
    out.extend_from_slice(&radius.to_bits().to_le_bytes());
    for &s in survivors {
        for &x in c.space().row(s) {
            x.write_le_bytes(&mut out);
        }
    }
    for &s in survivors {
        out.extend_from_slice(&(c.source_ids()[s] as u64).to_le_bytes());
    }
    for &w in weights {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.extend_from_slice(&bytes[coverage_at..bytes.len() - 8]);
    let mut checksum = Fnv::new();
    checksum.write(&out);
    out.extend_from_slice(&checksum.finish().to_le_bytes());
    out
}

/// `c.recompress(budget)` against [`rescan`]: the same survivors, weights,
/// certificate bits and bytes.
fn assert_recompress_is_the_rescan<D: Distance + Clone, S: Scalar>(
    c: &WeightedCoreset<D, S>,
    budget: usize,
) {
    let got = c.recompress(budget).unwrap();
    let (survivors, weights, radius) = rescan(c, budget);
    let ids: Vec<PointId> = survivors.iter().map(|&s| c.source_ids()[s]).collect();
    assert_eq!(got.source_ids(), &ids[..], "budget {budget}: survivors");
    assert_eq!(got.weights(), &weights[..], "budget {budget}: weights");
    assert_eq!(
        got.construction_radius().to_bits(),
        radius.to_bits(),
        "budget {budget}: certificate"
    );
    assert_eq!(
        got.to_bytes(),
        recompressed_bytes(c, &survivors, &weights, radius),
        "budget {budget}: bytes"
    );
}

/// Folds `flat` as a stream of four batch summaries of `t`
/// representatives (3 machines; batch `drop_batch`, if any, loses its
/// weights round's last shard), re-compressing to `fold_budget` whenever
/// a merge exceeds it.  Every re-compression of the fold is checked, and
/// the final summary at budgets around its support size.
fn fold_and_check<D: Distance + Clone, S: Scalar>(
    flat: &FlatPoints<S>,
    dist: D,
    t: usize,
    fold_budget: usize,
    drop_batch: Option<usize>,
) {
    let n = flat.len();
    let bounds = [0, n / 4, n / 2, 3 * n / 4, n];
    let mut acc: Option<WeightedCoreset<D, S>> = None;
    for (b, range) in bounds.windows(2).enumerate() {
        let mut rows = FlatPoints::<S>::with_capacity(flat.dim(), range[1] - range[0]);
        for id in range[0]..range[1] {
            rows.push_row(flat.row(id));
        }
        let space = VecSpace::from_flat_with_distance(rows, dist.clone());
        let mut config = GonzalezCoresetConfig::new(t).with_machines(3);
        if drop_batch == Some(b) {
            config = config.with_faults(dropping(&[(2, 2)]));
        }
        let built = config.build(&space).unwrap();
        let mut next = match acc.take() {
            None => built,
            Some(a) => a.merge(&built).unwrap(),
        };
        if next.len() > fold_budget {
            assert_recompress_is_the_rescan(&next, fold_budget);
            next = next.recompress(fold_budget).unwrap();
        }
        acc = Some(next);
    }
    let acc = acc.unwrap();
    let support = acc.weights().iter().filter(|&&w| w > 0).count();
    for budget in [
        1,
        support / 2,
        support - 1,
        support,
        support + 1,
        acc.len() - 1,
    ] {
        if (1..acc.len()).contains(&budget) {
            assert_recompress_is_the_rescan(&acc, budget);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Re-compressing a folded stream scans only the dropped rows, yet
    /// returns exactly what the full rescan returns.  DUP streams make the
    /// selection stop early and put dropped rows at distance 0 from a
    /// survivor; a dropped weights-round shard leaves zero-weight rows; a
    /// large `t` makes the support fit the budget.
    #[test]
    fn recompress_equals_the_full_rescan(
        dup in any::<bool>(),
        seed in 0u64..10_000,
        n in 120usize..=320,
        t in 8usize..=96,
        extra in 0usize..=64,
        drop_batch in 0usize..6,
        f32_storage in any::<bool>(),
        manhattan in any::<bool>(),
    ) {
        let spec = if dup {
            DatasetSpec::Dup { n, distinct: 24 }
        } else {
            DatasetSpec::Gau { n, k_prime: 5 }
        };
        // Batches 4 and 5 do not exist: no shard is dropped.
        let drop_batch = Some(drop_batch).filter(|&b| b < 4);
        let fold_budget = t + extra;
        match (f32_storage, manhattan) {
            (false, false) => {
                let flat = spec.generate_flat_at::<f64>(seed);
                fold_and_check(&flat, Euclidean, t, fold_budget, drop_batch);
            }
            (false, true) => {
                let flat = spec.generate_flat_at::<f64>(seed);
                fold_and_check(&flat, Manhattan, t, fold_budget, drop_batch);
            }
            (true, false) => {
                let flat = spec.generate_flat_at::<f32>(seed);
                fold_and_check(&flat, Euclidean, t, fold_budget, drop_batch);
            }
            (true, true) => {
                let flat = spec.generate_flat_at::<f32>(seed);
                fold_and_check(&flat, Manhattan, t, fold_budget, drop_batch);
            }
        }
    }
}

/// Two `t ≥ n` builds of a cloud whose every location appears twice, one
/// of them with a dropped weights-round shard, merged: the support fits
/// every budget from its own size up, so the survivors are the whole
/// support, and each of the second build's rows must fold into its copy
/// in the first build instead of keeping its own weight.
fn check_doubled_cloud<D: Distance + Clone, S: Scalar>(dist: D) {
    let spec = DatasetSpec::Gau { n: 40, k_prime: 4 };
    let once = spec.generate_flat_at::<S>(3);
    let mut doubled = FlatPoints::<S>::with_capacity(once.dim(), 2 * once.len());
    for _ in 0..2 {
        for row in once.rows() {
            doubled.push_row(row);
        }
    }
    let space = VecSpace::from_flat_with_distance(doubled, dist);
    let t = space.len();
    let whole = GonzalezCoresetConfig::new(t)
        .with_machines(2)
        .build(&space)
        .unwrap();
    let partial = GonzalezCoresetConfig::new(t)
        .with_machines(2)
        .with_faults(dropping(&[(2, 1)]))
        .build(&space)
        .unwrap();
    let merged = whole.merge(&partial).unwrap();
    let support = merged.weights().iter().filter(|&&w| w > 0).count();
    assert!(support < merged.len(), "the merge carries zero-weight rows");
    for budget in [support - 1, support, support + 1, merged.len() - 1] {
        assert_recompress_is_the_rescan(&merged, budget);
    }
    let squeezed = merged.recompress(support).unwrap();
    assert_eq!(squeezed.total_weight(), merged.total_weight());
    assert!(
        squeezed.weights().contains(&0),
        "duplicates fold into their first copy"
    );
}

#[test]
fn doubled_cloud_merge_folds_duplicates_into_their_first_copy() {
    check_doubled_cloud::<Euclidean, f64>(Euclidean);
    check_doubled_cloud::<Euclidean, f32>(Euclidean);
    check_doubled_cloud::<Manhattan, f64>(Manhattan);
    check_doubled_cloud::<Manhattan, f32>(Manhattan);
}

/// A dropped row whose two survivors tie in `f32` comparison space but
/// not in `f64` certification space: the argmin assigns it to the first
/// survivor, `1 + 2^-30` away, while its certified distance is the
/// second's `1 - 2^-30`.  Certifying against the assigned survivor alone
/// would overstate the radius; the wide scan over every survivor is what
/// `recompress` falls back to above the running maximum.
fn check_near_tie<D: Distance + Clone>(dist: D) {
    let tiny = 2f32.powi(-30);
    let flat = FlatPoints::<f32>::from_coords(vec![-1.0, 1.0, tiny], 1).unwrap();
    let space = VecSpace::from_flat_with_distance(flat, dist);
    let all = GonzalezCoresetConfig::new(3).build(&space).unwrap();
    assert_eq!(all.weights(), &[1, 1, 1]);
    assert_recompress_is_the_rescan(&all, 2);
    let squeezed = all.recompress(2).unwrap();
    assert_eq!(squeezed.source_ids(), &[0, 1]);
    assert_eq!(squeezed.weights(), &[2, 1]);
    assert_eq!(squeezed.construction_radius(), 1.0 - f64::from(tiny));
}

#[test]
fn f32_near_ties_certify_against_every_survivor() {
    check_near_tie(Euclidean);
    check_near_tie(Manhattan);
}
