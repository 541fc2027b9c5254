//! Axis-aligned bounding boxes and cheap diameter estimates.
//!
//! The synthetic generators place points in unit squares/cubes and the
//! experiment harness reports objective values whose scale depends on the
//! spread of the data; a bounding box gives a cheap, deterministic way to
//! normalise and sanity-check those scales (e.g. the covering radius can
//! never exceed the box diagonal).

use crate::flat::FlatPoints;
use crate::scalar::Scalar;
use rayon::prelude::*;

/// An axis-aligned bounding box in `R^d`.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundingBox {
    min: Vec<f64>,
    max: Vec<f64>,
}

impl BoundingBox {
    /// Computes the bounding box of a flat point store (at any storage
    /// precision; the box corners are widened to `f64`) in one contiguous
    /// scan.  Returns `None` for an empty store.
    pub fn of_flat<S: Scalar>(points: &FlatPoints<S>) -> Option<Self> {
        Self::of_rows(points.coords(), points.dim())
    }

    /// Bounding box of a raw row-major coordinate block (zero-copy core of
    /// the flat variants).
    fn of_rows<S: Scalar>(coords: &[S], dim: usize) -> Option<Self> {
        if coords.is_empty() || dim == 0 {
            return None;
        }
        let mut min: Vec<f64> = coords[..dim].iter().map(|c| c.to_f64()).collect();
        let mut max = min.clone();
        for row in coords.chunks_exact(dim).skip(1) {
            for i in 0..dim {
                let c = row[i].to_f64();
                if c < min[i] {
                    min[i] = c;
                }
                if c > max[i] {
                    max[i] = c;
                }
            }
        }
        Some(Self { min, max })
    }

    /// Parallel variant of [`BoundingBox::of_flat`] for large stores; folds
    /// min/max directly over coordinate blocks without copying them.
    pub fn par_of_flat<S: Scalar>(points: &FlatPoints<S>) -> Option<Self> {
        if points.is_empty() {
            return None;
        }
        let dim = points.dim();
        points
            .coords()
            .par_chunks(4096 * dim)
            .filter_map(|block| BoundingBox::of_rows(block, dim))
            .reduce_with(|a, b| a.merged(&b))
    }

    /// The smallest box containing both `self` and `other`.
    fn merged(&self, other: &BoundingBox) -> BoundingBox {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch in merge");
        BoundingBox {
            min: self
                .min
                .iter()
                .zip(other.min.iter())
                .map(|(a, b)| a.min(*b))
                .collect(),
            max: self
                .max
                .iter()
                .zip(other.max.iter())
                .map(|(a, b)| a.max(*b))
                .collect(),
        }
    }

    /// The coordinate dimension of the box.
    pub fn dim(&self) -> usize {
        self.min.len()
    }

    /// Minimum corner.
    pub fn min(&self) -> &[f64] {
        &self.min
    }

    /// Maximum corner.
    pub fn max(&self) -> &[f64] {
        &self.max
    }

    /// Side length along dimension `i`.
    pub fn extent(&self, i: usize) -> f64 {
        self.max[i] - self.min[i]
    }

    /// Length of the box diagonal — an upper bound on any pairwise distance
    /// (and therefore on the optimal k-center radius).
    pub fn diagonal(&self) -> f64 {
        self.min
            .iter()
            .zip(self.max.iter())
            .map(|(lo, hi)| {
                let d = hi - lo;
                d * d
            })
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(rows: &[[f64; 2]]) -> FlatPoints<f64> {
        FlatPoints::from_coords(rows.concat(), 2).unwrap()
    }

    #[test]
    fn of_empty_is_none() {
        let empty = FlatPoints::<f64>::new(2);
        assert_eq!(BoundingBox::of_flat(&empty), None);
        assert_eq!(BoundingBox::par_of_flat(&empty), None);
    }

    #[test]
    fn of_single_point_is_degenerate() {
        let b = BoundingBox::of_flat(&flat(&[[1.0, 2.0]])).unwrap();
        assert_eq!(b.min(), &[1.0, 2.0]);
        assert_eq!(b.max(), &[1.0, 2.0]);
        assert_eq!(b.diagonal(), 0.0);
    }

    #[test]
    fn of_covers_all_points() {
        let b = BoundingBox::of_flat(&flat(&[[0.0, 0.0], [2.0, 1.0], [-1.0, 3.0], [1.0, -2.0]]))
            .unwrap();
        assert_eq!(b.min(), &[-1.0, -2.0]);
        assert_eq!(b.max(), &[2.0, 3.0]);
    }

    #[test]
    fn par_of_matches_sequential() {
        let rows: Vec<[f64; 2]> = (0..10_000)
            .map(|i| [(i % 173) as f64, ((i * 7) % 311) as f64])
            .collect();
        let points = flat(&rows);
        assert_eq!(
            BoundingBox::of_flat(&points),
            BoundingBox::par_of_flat(&points)
        );
    }

    #[test]
    fn merged_covers_both() {
        let a = BoundingBox::of_flat(&flat(&[[0.0, 0.0], [1.0, 1.0]])).unwrap();
        let b = BoundingBox::of_flat(&flat(&[[-5.0, 2.0], [0.5, 3.0]])).unwrap();
        let m = a.merged(&b);
        assert_eq!(m.min(), &[-5.0, 0.0]);
        assert_eq!(m.max(), &[1.0, 3.0]);
    }

    #[test]
    fn diagonal_and_extent() {
        let b = BoundingBox::of_flat(&flat(&[[0.0, 0.0], [3.0, 4.0]])).unwrap();
        assert!((b.diagonal() - 5.0).abs() < 1e-12);
        assert_eq!(b.extent(0), 3.0);
        assert_eq!(b.extent(1), 4.0);
    }
}
