//! Property-based tests for the MapReduce substrate: the partitioner must
//! cover its input exactly once within the size bound, and the simulated
//! cluster's accounting must be internally consistent.

use kcenter_mapreduce::{partition, Cluster, ClusterConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_partitioner_covers_input_exactly_once(
        items in prop::collection::vec(any::<u32>(), 0..400),
        parts in 1usize..60
    ) {
        let out = partition::chunks(&items, parts);
        // Exactly-once coverage (as multisets).
        let mut flattened: Vec<u32> = out.iter().flatten().copied().collect();
        let mut expected = items.clone();
        flattened.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(&flattened, &expected, "chunks lost or duplicated items");
        // Never more partitions than requested, never an empty partition.
        prop_assert!(out.len() <= parts);
        prop_assert!(out.iter().all(|p| !p.is_empty()));
        // Size bound the MRG analysis relies on.
        let bound = items.len().div_ceil(parts);
        prop_assert!(out.iter().all(|p| p.len() <= bound), "chunks exceeded ceil(n/m)");
    }

    #[test]
    fn cluster_round_preserves_all_items_through_identity_reduce(
        items in prop::collection::vec(any::<u32>(), 1..300),
        machines in 1usize..50
    ) {
        let config = ClusterConfig::new(machines, items.len().max(1));
        let mut cluster = Cluster::new(config);
        let parts = partition::chunks(&items, machines);
        let outputs = cluster
            .run_round("identity", &parts, |_, xs| xs.to_vec(), |v| v.len())
            .unwrap();
        let mut flattened: Vec<u32> = outputs.into_iter().flatten().flatten().collect();
        let mut expected = items.clone();
        flattened.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(flattened, expected);

        let stats = cluster.stats();
        prop_assert_eq!(stats.num_rounds(), 1);
        let round = &stats.rounds()[0];
        prop_assert_eq!(round.items_in, items.len());
        prop_assert_eq!(round.items_out, items.len());
        prop_assert!(round.machines_used <= machines);
        prop_assert!(round.simulated_time <= round.sequential_time + std::time::Duration::from_micros(1));
    }

    #[test]
    fn capacity_enforcement_matches_partition_sizes(
        n in 1usize..500,
        machines in 1usize..20,
        capacity in 1usize..100
    ) {
        let items: Vec<u32> = (0..n as u32).collect();
        let parts = partition::chunks(&items, machines);
        let max_part = parts.iter().map(Vec::len).max().unwrap_or(0);
        let mut cluster = Cluster::new(ClusterConfig::new(machines, capacity));
        let result = cluster.run_round("check", &parts, |_, xs| xs.len(), |_| 0);
        if max_part <= capacity {
            prop_assert!(result.is_ok());
        } else {
            prop_assert!(result.is_err());
        }
    }
}
