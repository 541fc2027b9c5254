//! Dense point representation.
//!
//! A [`Point`] is an owned, fixed-length vector of `f64` coordinates.  The
//! paper's data sets range from 2-dimensional synthetic clouds to 38+
//! dimensional network-traffic records, so we keep the dimension dynamic
//! rather than baking it into the type.

use std::fmt;
use std::ops::Index;

/// A point in `R^d`, stored as a dense coordinate vector.
///
/// Construction validates that every coordinate is finite; `NaN` or infinite
/// coordinates would silently break the metric axioms (and therefore the
/// approximation guarantees), so they are rejected eagerly.
#[derive(Clone, PartialEq)]
pub struct Point {
    coords: Vec<f64>,
}

impl Point {
    /// Creates a point from a coordinate vector.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is `NaN` or infinite, or if the vector is
    /// empty.  Use [`Point::try_new`] for a fallible variant.
    pub fn new(coords: Vec<f64>) -> Self {
        Self::try_new(coords).expect("invalid point")
    }

    /// Fallible constructor: rejects empty or non-finite coordinate vectors.
    pub fn try_new(coords: Vec<f64>) -> Result<Self, PointError> {
        if coords.is_empty() {
            return Err(PointError::Empty);
        }
        if let Some(idx) = coords.iter().position(|c| !c.is_finite()) {
            return Err(PointError::NonFinite {
                index: idx,
                value: coords[idx],
            });
        }
        Ok(Self { coords })
    }

    /// Creates a 2-dimensional point.
    pub fn xy(x: f64, y: f64) -> Self {
        Self::new(vec![x, y])
    }

    /// Creates a 3-dimensional point.
    pub fn xyz(x: f64, y: f64, z: f64) -> Self {
        Self::new(vec![x, y, z])
    }

    /// Creates the origin of `R^d`.
    pub fn origin(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            coords: vec![0.0; dim],
        }
    }

    /// The dimension (number of coordinates) of the point.
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// Coordinates as a slice.
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Euclidean norm of the point viewed as a vector.
    pub fn norm(&self) -> f64 {
        self.coords.iter().map(|c| c * c).sum::<f64>().sqrt()
    }

    /// Coordinate-wise addition, used by generators to offset cluster
    /// members from their cluster center.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn add(&self, other: &Point) -> Point {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        Point {
            coords: self
                .coords
                .iter()
                .zip(other.coords.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Coordinate-wise scaling.
    pub fn scale(&self, factor: f64) -> Point {
        Point {
            coords: self.coords.iter().map(|c| c * factor).collect(),
        }
    }
}

impl Index<usize> for Point {
    type Output = f64;

    fn index(&self, index: usize) -> &f64 {
        &self.coords[index]
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point{:?}", self.coords)
    }
}

impl From<Vec<f64>> for Point {
    fn from(coords: Vec<f64>) -> Self {
        Point::new(coords)
    }
}

impl From<&[f64]> for Point {
    fn from(coords: &[f64]) -> Self {
        Point::new(coords.to_vec())
    }
}

/// Errors raised when constructing a [`Point`].
#[derive(Debug, Clone, PartialEq)]
pub enum PointError {
    /// The coordinate vector was empty.
    Empty,
    /// A coordinate was `NaN` or infinite.
    NonFinite {
        /// Index of the offending coordinate.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A coordinate exceeded the storage scalar's safe magnitude
    /// (`Scalar::MAX_ABS_COORD`), beyond which squared distances could
    /// overflow to infinity inside the comparison-space kernels.
    OutOfRange {
        /// Index of the offending coordinate.
        index: usize,
        /// The offending value.
        value: f64,
        /// The magnitude limit of the storage scalar.
        limit: f64,
    },
}

impl fmt::Display for PointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointError::Empty => write!(f, "point has no coordinates"),
            PointError::NonFinite { index, value } => {
                write!(f, "coordinate {index} is not finite: {value}")
            }
            PointError::OutOfRange {
                index,
                value,
                limit,
            } => {
                write!(
                    f,
                    "coordinate {index} ({value}) exceeds the storage scalar's safe \
                     magnitude {limit} (squared distances would overflow)"
                )
            }
        }
    }
}

impl std::error::Error for PointError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_finite_coordinates() {
        let p = Point::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(p.dim(), 3);
        assert_eq!(p.coords(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn try_new_rejects_empty() {
        assert_eq!(Point::try_new(vec![]), Err(PointError::Empty));
    }

    #[test]
    fn try_new_rejects_nan() {
        let err = Point::try_new(vec![1.0, f64::NAN]).unwrap_err();
        assert!(matches!(err, PointError::NonFinite { index: 1, .. }));
    }

    #[test]
    fn try_new_rejects_infinity() {
        let err = Point::try_new(vec![f64::INFINITY]).unwrap_err();
        assert!(matches!(err, PointError::NonFinite { index: 0, .. }));
    }

    #[test]
    #[should_panic(expected = "invalid point")]
    fn new_panics_on_nan() {
        Point::new(vec![f64::NAN]);
    }

    #[test]
    fn xy_and_xyz_shortcuts() {
        assert_eq!(Point::xy(1.0, 2.0).dim(), 2);
        assert_eq!(Point::xyz(1.0, 2.0, 3.0).dim(), 3);
    }

    #[test]
    fn origin_is_all_zero() {
        let o = Point::origin(4);
        assert_eq!(o.coords(), &[0.0; 4]);
    }

    #[test]
    #[should_panic]
    fn origin_rejects_zero_dim() {
        Point::origin(0);
    }

    #[test]
    fn norm_of_unit_vectors() {
        assert!((Point::xy(3.0, 4.0).norm() - 5.0).abs() < 1e-12);
        assert_eq!(Point::origin(3).norm(), 0.0);
    }

    #[test]
    fn add_and_scale() {
        let a = Point::xy(1.0, 2.0);
        let b = Point::xy(3.0, -1.0);
        assert_eq!(a.add(&b), Point::xy(4.0, 1.0));
        assert_eq!(a.scale(2.0), Point::xy(2.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn add_rejects_dimension_mismatch() {
        Point::xy(1.0, 2.0).add(&Point::xyz(1.0, 2.0, 3.0));
    }

    #[test]
    fn index_operator() {
        let p = Point::xyz(7.0, 8.0, 9.0);
        assert_eq!(p[1], 8.0);
    }

    #[test]
    fn from_slice_and_vec() {
        let v = vec![1.0, 2.0];
        let p1: Point = v.clone().into();
        let p2: Point = v.as_slice().into();
        assert_eq!(p1, p2);
    }

    #[test]
    fn debug_format_contains_coords() {
        let s = format!("{:?}", Point::xy(1.0, 2.0));
        assert!(s.contains("1.0") && s.contains("2.0"));
    }
}
