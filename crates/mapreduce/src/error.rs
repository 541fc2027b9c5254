//! Error types for the simulated MapReduce substrate.

use crate::faults::{DroppedShard, FaultCause};
use std::fmt;

/// Errors raised by the simulated cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapReduceError {
    /// A reducer was handed more points than one machine can hold.
    CapacityExceeded {
        /// Index of the offending reducer/machine.
        machine: usize,
        /// Number of items assigned to it.
        items: usize,
        /// The per-machine capacity.
        capacity: usize,
    },
    /// More partitions were supplied than there are machines.
    TooManyPartitions {
        /// Number of partitions supplied.
        partitions: usize,
        /// Number of machines available.
        machines: usize,
    },
    /// The whole input does not fit in the cluster (`m · c < n`).
    ClusterTooSmall {
        /// Total number of items.
        items: usize,
        /// Total cluster capacity.
        total_capacity: usize,
    },
    /// A round was started with no input partitions.
    EmptyRound,
    /// A reducer exhausted its attempt budget under fault injection and the
    /// round was not allowed to degrade.  `source` (also exposed through
    /// [`std::error::Error::source`]) says how the final attempt died.
    RoundFailed {
        /// 0-based round index within the cluster's job.
        round: usize,
        /// The machine whose partition could not be completed.
        machine: usize,
        /// Number of attempts that were made.
        attempts: usize,
        /// The failure cause of the final attempt.
        source: FaultCause,
    },
    /// A round produced a different number of outputs than partitions — a
    /// substrate invariant violation (e.g. a single-reducer round that did
    /// not return exactly one output).
    MissingOutput {
        /// Label of the offending round.
        label: String,
    },
}

impl fmt::Display for MapReduceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapReduceError::CapacityExceeded {
                machine,
                items,
                capacity,
            } => write!(
                f,
                "machine {machine} was assigned {items} items but has capacity {capacity}"
            ),
            MapReduceError::TooManyPartitions {
                partitions,
                machines,
            } => write!(
                f,
                "{partitions} partitions supplied but the cluster has only {machines} machines"
            ),
            MapReduceError::ClusterTooSmall {
                items,
                total_capacity,
            } => write!(
                f,
                "input of {items} items exceeds the total cluster capacity of {total_capacity}"
            ),
            MapReduceError::EmptyRound => {
                write!(f, "a MapReduce round needs at least one partition")
            }
            MapReduceError::RoundFailed {
                round,
                machine,
                attempts,
                source,
            } => write!(
                f,
                "round {round} failed: machine {machine} exhausted {attempts} attempts ({source})"
            ),
            MapReduceError::MissingOutput { label } => write!(
                f,
                "round {label:?} did not produce one output per partition"
            ),
        }
    }
}

impl From<&DroppedShard> for MapReduceError {
    /// The error of a shard that exhausted its attempts where nothing may
    /// be dropped: a round without degrade mode, a single-reducer round,
    /// or a degraded job left with no survivors to go on with.
    fn from(shard: &DroppedShard) -> Self {
        MapReduceError::RoundFailed {
            round: shard.round,
            machine: shard.machine,
            attempts: shard.attempts,
            source: shard.cause,
        }
    }
}

impl std::error::Error for MapReduceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MapReduceError::RoundFailed { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_the_numbers() {
        let e = MapReduceError::CapacityExceeded {
            machine: 3,
            items: 100,
            capacity: 50,
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains("100") && s.contains("50"));

        let e = MapReduceError::TooManyPartitions {
            partitions: 10,
            machines: 5,
        };
        assert!(e.to_string().contains("10") && e.to_string().contains('5'));

        let e = MapReduceError::ClusterTooSmall {
            items: 7,
            total_capacity: 6,
        };
        assert!(e.to_string().contains('7') && e.to_string().contains('6'));

        assert!(MapReduceError::EmptyRound
            .to_string()
            .contains("at least one"));

        let e = MapReduceError::RoundFailed {
            round: 2,
            machine: 4,
            attempts: 3,
            source: FaultCause::Crashed,
        };
        let s = e.to_string();
        assert!(s.contains('2') && s.contains('4') && s.contains('3') && s.contains("crashed"));

        let e = MapReduceError::MissingOutput {
            label: "final".to_string(),
        };
        assert!(e.to_string().contains("final"));
    }

    #[test]
    fn round_failed_carries_its_cause_as_source() {
        use std::error::Error;
        let e = MapReduceError::RoundFailed {
            round: 0,
            machine: 1,
            attempts: 3,
            source: FaultCause::CorruptOutput,
        };
        let source = e.source().expect("RoundFailed must expose a source");
        assert!(source.to_string().contains("corrupt"));
        assert!(MapReduceError::EmptyRound.source().is_none());
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(MapReduceError::EmptyRound, MapReduceError::EmptyRound);
        assert_ne!(
            MapReduceError::EmptyRound,
            MapReduceError::TooManyPartitions {
                partitions: 1,
                machines: 1
            }
        );
    }
}
