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

use kcenter_core::coreset::{GonzalezCoresetConfig, WeightedCoreset};
use kcenter_core::prelude::*;
use kcenter_core::PersistError;
use kcenter_metric::{Euclidean, FlatPoints, VecSpace};
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
