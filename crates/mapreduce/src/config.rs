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

    /// The machine-count bound of Inequality (1) after `i` reduction rounds:
    /// `m(i) ≤ m·(k/c)^i + (1 − (k/c)^i) / (1 − k/c)`.
    ///
    /// Returns `None` when `k ≥ c`, in which case the recurrence does not
    /// shrink and the paper notes the algorithm cannot finish without
    /// external memory.
    pub fn machines_after_rounds(&self, k: usize, rounds: u32) -> Option<f64> {
        let ratio = k as f64 / self.capacity as f64;
        if ratio >= 1.0 {
            return None;
        }
        let m = self.machines as f64;
        let r_i = ratio.powi(rounds as i32);
        Some(m * r_i + (1.0 - r_i) / (1.0 - ratio))
    }

    /// The number of reduction rounds MRG needs before the surviving sample
    /// fits on a single machine, following the Lemma 3 recurrence: starting
    /// from `n` points on `m` machines, each round turns the current point
    /// count `s` into `k · ceil(s / c)` (one GON run of `k` centers per
    /// occupied machine), and the loop ends once `s ≤ c`.
    ///
    /// Returns `None` if the recurrence stops shrinking before fitting
    /// (which happens when `k ≥ c`).
    pub fn rounds_needed(&self, n: usize, k: usize) -> Option<u32> {
        if n == 0 {
            return Some(0);
        }
        if k >= self.capacity && n > self.capacity {
            return None;
        }
        let mut s = n;
        let mut rounds = 0u32;
        while s > self.capacity {
            let machines_needed = s.div_ceil(self.capacity).max(1);
            let next = k.saturating_mul(machines_needed);
            rounds += 1;
            if next >= s {
                // No progress: the sample no longer shrinks.
                return None;
            }
            s = next;
        }
        Some(rounds + 1) // +1 for the final single-machine round.
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

    #[test]
    fn machines_after_rounds_matches_inequality_one() {
        let c = ClusterConfig::new(50, 1000);
        // k/c = 0.1: after one round m(1) <= 50*0.1 + (1-0.1)/(1-0.1) = 6.
        let bound = c.machines_after_rounds(100, 1).unwrap();
        assert!((bound - 6.0).abs() < 1e-9);
        // As i grows the bound approaches 1/(1-k/c).
        let limit = c.machines_after_rounds(100, 30).unwrap();
        assert!((limit - 1.0 / 0.9).abs() < 1e-6);
        assert!(c.machines_after_rounds(1000, 1).is_none());
    }

    #[test]
    fn rounds_needed_two_round_case() {
        // n/m <= c and k*m <= c: classic 2-round MRG.
        let c = ClusterConfig::new(50, 20_000);
        assert_eq!(c.rounds_needed(1_000_000, 100), Some(2));
    }

    #[test]
    fn rounds_needed_when_everything_fits_on_one_machine() {
        let c = ClusterConfig::new(50, 10_000);
        assert_eq!(c.rounds_needed(5_000, 10), Some(1));
        assert_eq!(c.rounds_needed(0, 10), Some(0));
    }

    #[test]
    fn rounds_needed_multi_round_case() {
        // Capacity too small for k*m after one round: k*m = 5*50 = 250 > c = 100,
        // so a second reduction round is required before the final round.
        let c = ClusterConfig::new(50, 100);
        let rounds = c.rounds_needed(5_000, 5).unwrap();
        assert!(rounds >= 3, "expected at least three rounds, got {rounds}");
    }

    #[test]
    fn rounds_needed_detects_non_convergence() {
        // k >= c: selecting k centers per machine cannot shrink the sample.
        let c = ClusterConfig::new(10, 50);
        assert_eq!(c.rounds_needed(10_000, 60), None);
    }
}
