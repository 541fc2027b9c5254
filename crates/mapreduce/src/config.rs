//! Cluster configuration: number of machines and per-machine capacity.

/// Configuration of the simulated MapReduce cluster.
///
/// The paper fixes the number of machines to `m = 50` for every experiment
/// and reasons about a per-machine capacity `c` measured in points:
/// the two-round MRG case requires `n/m ≤ c` and `k·m ≤ c` (Lemma 2), and
/// the multi-round analysis (Lemma 3 / Inequality (1)) kicks in when
/// `k·m > c`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of simulated machines (the paper's `m`).
    pub machines: usize,
    /// Per-machine capacity in points (the paper's `c`).
    pub capacity: usize,
}

impl ClusterConfig {
    /// The paper's default machine count.
    pub const PAPER_MACHINES: usize = 50;

    /// Creates a configuration with `machines` machines of capacity
    /// `capacity` points each.
    ///
    /// # Panics
    ///
    /// Panics if either value is zero.
    pub fn new(machines: usize, capacity: usize) -> Self {
        assert!(machines > 0, "a cluster needs at least one machine");
        assert!(capacity > 0, "machine capacity must be positive");
        Self { machines, capacity }
    }

    /// The paper's setup: 50 machines, with capacity chosen large enough to
    /// hold an `n/m`-point partition and a `k·m`-point sample, i.e. the
    /// "two-round case" capacity `max(ceil(n/m), k·m)`.
    pub fn paper_default(n: usize, k: usize) -> Self {
        let m = Self::PAPER_MACHINES;
        let capacity = (n.div_ceil(m)).max(k * m).max(1);
        Self::new(m, capacity)
    }

    /// Total number of points the cluster can hold across all machines.
    pub fn total_capacity(&self) -> usize {
        self.machines * self.capacity
    }

    /// Whether a data set of `n` points fits in the cluster at all
    /// (`m · c ≥ n`, the paper's minimum requirement for small `k`).
    pub fn fits(&self, n: usize) -> bool {
        self.total_capacity() >= n
    }

    /// Whether the two-round MRG preconditions of Lemma 2 hold for an
    /// instance with `n` points and `k` centers: `n/m ≤ c` and `k·m ≤ c`.
    pub fn allows_two_round(&self, n: usize, k: usize) -> bool {
        n.div_ceil(self.machines) <= self.capacity && k * self.machines <= self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_inputs() {
        let c = ClusterConfig::new(50, 1000);
        assert_eq!(c.machines, 50);
        assert_eq!(c.capacity, 1000);
        assert_eq!(c.total_capacity(), 50_000);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn new_rejects_zero_machines() {
        ClusterConfig::new(0, 10);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn new_rejects_zero_capacity() {
        ClusterConfig::new(10, 0);
    }

    #[test]
    fn paper_default_uses_fifty_machines_and_fits_both_rounds() {
        let c = ClusterConfig::paper_default(1_000_000, 100);
        assert_eq!(c.machines, 50);
        assert!(c.allows_two_round(1_000_000, 100));
        assert!(c.fits(1_000_000));
    }

    #[test]
    fn fits_and_two_round_preconditions() {
        let c = ClusterConfig::new(10, 100);
        assert!(c.fits(1000));
        assert!(!c.fits(1001));
        // n/m = 100 <= 100 and k*m = 50 <= 100.
        assert!(c.allows_two_round(1000, 5));
        // k*m = 200 > 100 -> needs more rounds.
        assert!(!c.allows_two_round(1000, 20));
        // n/m = 101 > 100.
        assert!(!c.allows_two_round(1010, 5));
    }
}
