//! The common solution type returned by every k-center algorithm.

use kcenter_metric::PointId;

/// A k-center solution: the chosen centers and the covering radius they
/// achieve on the point set they were evaluated against (the paper's
/// "solution value").
#[derive(Debug, Clone, PartialEq)]
pub struct KCenterSolution {
    /// The number of centers that was requested.
    pub k: usize,
    /// Indices of the chosen centers (at most `k`, possibly fewer when the
    /// input has fewer than `k` points).
    pub centers: Vec<PointId>,
    /// The covering radius: the maximum over all points of the distance to
    /// the nearest chosen center.
    pub radius: f64,
}

impl KCenterSolution {
    /// Creates a solution record.
    ///
    /// # Panics
    ///
    /// Panics if more than `k` centers are supplied, if the radius is
    /// negative or not finite, or if the same center appears twice.
    pub fn new(k: usize, centers: Vec<PointId>, radius: f64) -> Self {
        assert!(
            centers.len() <= k,
            "a k-center solution may contain at most k centers"
        );
        assert!(
            radius.is_finite() && radius >= 0.0,
            "covering radius must be finite and non-negative"
        );
        let mut sorted = centers.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), centers.len(), "centers must be distinct");
        Self { k, centers, radius }
    }

    /// Number of centers actually used.
    pub fn num_centers(&self) -> usize {
        self.centers.len()
    }

    /// Whether the solution uses the full budget of `k` centers.
    pub fn uses_full_budget(&self) -> bool {
        self.centers.len() == self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_valid_solutions() {
        let s = KCenterSolution::new(3, vec![5, 9], 1.25);
        assert_eq!(s.num_centers(), 2);
        assert!(!s.uses_full_budget());
        let s = KCenterSolution::new(2, vec![0, 1], 0.0);
        assert!(s.uses_full_budget());
    }

    #[test]
    #[should_panic(expected = "at most k centers")]
    fn new_rejects_too_many_centers() {
        KCenterSolution::new(1, vec![0, 1], 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn new_rejects_negative_radius() {
        KCenterSolution::new(2, vec![0], -1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn new_rejects_nan_radius() {
        KCenterSolution::new(2, vec![0], f64::NAN);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn new_rejects_duplicate_centers() {
        KCenterSolution::new(3, vec![4, 4], 1.0);
    }
}
