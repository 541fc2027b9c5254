//! Error types shared by every k-center algorithm in this crate.

use kcenter_mapreduce::MapReduceError;
use kcenter_metric::Distance;
use std::fmt;

/// Errors raised by the k-center algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KCenterError {
    /// The input point set is empty.
    EmptyInput,
    /// `k` was zero; at least one center is required.
    ZeroK,
    /// The supplied distance does not satisfy the metric axioms, so the
    /// approximation guarantees would not hold.
    NotAMetric {
        /// Name of the offending distance function.
        distance: &'static str,
    },
    /// The simulated cluster could not execute the requested plan.
    MapReduce(MapReduceError),
    /// A multi-round reduction stopped making progress (the per-round
    /// sample no longer shrinks because `k` is too close to the machine
    /// capacity, the situation discussed after Lemma 3).
    NoProgress {
        /// Size of the sample when progress stalled.
        sample_size: usize,
        /// The machine capacity it needed to fit into.
        capacity: usize,
    },
    /// An algorithm parameter was outside its valid range.
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// Description of the constraint that was violated.
        message: String,
    },
}

impl KCenterError {
    /// `Ok` when `dist` satisfies the metric axioms, and otherwise the
    /// [`KCenterError::NotAMetric`] naming it: the check every solver runs
    /// first, since its approximation factor rests on the triangle
    /// inequality.
    pub(crate) fn require_metric<D: Distance>(dist: &D) -> Result<(), KCenterError> {
        if dist.is_metric() {
            Ok(())
        } else {
            Err(KCenterError::NotAMetric {
                distance: dist.name(),
            })
        }
    }
}

impl fmt::Display for KCenterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KCenterError::EmptyInput => write!(f, "the input point set is empty"),
            KCenterError::ZeroK => write!(f, "k must be at least 1"),
            KCenterError::NotAMetric { distance } => {
                write!(f, "distance function {distance:?} is not a metric; approximation guarantees would not hold")
            }
            KCenterError::MapReduce(e) => write!(f, "MapReduce execution failed: {e}"),
            KCenterError::NoProgress { sample_size, capacity } => write!(
                f,
                "multi-round reduction stalled: sample of {sample_size} points cannot shrink below the capacity {capacity} (k is too close to c)"
            ),
            KCenterError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter {name}: {message}")
            }
        }
    }
}

impl std::error::Error for KCenterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KCenterError::MapReduce(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MapReduceError> for KCenterError {
    fn from(e: MapReduceError) -> Self {
        KCenterError::MapReduce(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(KCenterError::EmptyInput.to_string().contains("empty"));
        assert!(KCenterError::ZeroK.to_string().contains("k"));
        assert!(KCenterError::NotAMetric {
            distance: "squared-euclidean"
        }
        .to_string()
        .contains("squared-euclidean"));
        let e = KCenterError::NoProgress {
            sample_size: 500,
            capacity: 100,
        };
        assert!(e.to_string().contains("500") && e.to_string().contains("100"));
        let e = KCenterError::InvalidParameter {
            name: "epsilon",
            message: "must be positive".into(),
        };
        assert!(e.to_string().contains("epsilon"));
    }

    #[test]
    fn mapreduce_errors_convert_and_expose_source() {
        let inner = MapReduceError::EmptyRound;
        let outer: KCenterError = inner.clone().into();
        assert_eq!(outer, KCenterError::MapReduce(inner));
        assert!(std::error::Error::source(&outer).is_some());
        assert!(std::error::Error::source(&KCenterError::ZeroK).is_none());
    }
}
