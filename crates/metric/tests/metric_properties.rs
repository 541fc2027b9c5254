//! Property-based tests for the metric substrate: every distance we claim is
//! a metric must satisfy the metric axioms, and diameter estimates and
//! bounding boxes must bound.

use kcenter_metric::{
    scaled_diameter_lower_bound, BoundingBox, Distance, Euclidean, Manhattan, MetricSpace, Point,
    VecSpace,
};
use proptest::prelude::*;

/// Strategy for a point in a fixed dimension with bounded coordinates.
fn point(dim: usize) -> impl Strategy<Value = Point> {
    prop::collection::vec(-1000.0f64..1000.0, dim).prop_map(Point::new)
}

/// Strategy for a small point cloud with a shared dimension.
fn cloud() -> impl Strategy<Value = Vec<Point>> {
    (1usize..5).prop_flat_map(|dim| prop::collection::vec(point(dim), 2..24))
}

fn check_metric_axioms<D: Distance>(dist: &D, a: &Point, b: &Point, c: &Point) {
    let dab = dist.distance(a, b);
    let dba = dist.distance(b, a);
    let dac = dist.distance(a, c);
    let dcb = dist.distance(c, b);
    // Non-negativity and identity.
    assert!(dab >= 0.0, "{} produced a negative distance", dist.name());
    assert!(
        dist.distance(a, a).abs() < 1e-9,
        "{} violates identity",
        dist.name()
    );
    // Symmetry.
    assert!(
        (dab - dba).abs() <= 1e-9 * (1.0 + dab.abs()),
        "{} violates symmetry",
        dist.name()
    );
    // Triangle inequality with a relative tolerance for floating point.
    assert!(
        dab <= dac + dcb + 1e-7 * (1.0 + dab.abs()),
        "{} violates the triangle inequality: {} > {} + {}",
        dist.name(),
        dab,
        dac,
        dcb
    );
}

proptest! {
    #[test]
    fn euclidean_is_a_metric((a, b, c) in (1usize..6).prop_flat_map(|d| (point(d), point(d), point(d)))) {
        check_metric_axioms(&Euclidean, &a, &b, &c);
    }

    #[test]
    fn manhattan_is_a_metric((a, b, c) in (1usize..6).prop_flat_map(|d| (point(d), point(d), point(d)))) {
        check_metric_axioms(&Manhattan, &a, &b, &c);
    }

    #[test]
    fn diameter_bounds_every_pairwise_distance(points in cloud()) {
        // The O(n) estimate is half the eccentricity of point 0, so by the
        // triangle inequality four times it bounds every pairwise distance.
        let space = VecSpace::new(points);
        let diam = 4.0 * scaled_diameter_lower_bound(&space, 1);
        for i in 0..space.len() {
            for j in 0..space.len() {
                prop_assert!(space.distance(i, j) <= diam + 1e-9);
            }
        }
    }

    #[test]
    fn bounding_box_contains_all_points_and_bounds_distances(points in cloud()) {
        let bbox = BoundingBox::of(&points).unwrap().unwrap();
        let space = VecSpace::new(points.clone());
        for p in &points {
            prop_assert!(bbox.contains(p));
        }
        let diag = bbox.diagonal();
        for i in 0..space.len() {
            for j in 0..space.len() {
                prop_assert!(space.distance(i, j) <= diag + 1e-9);
            }
        }
    }

    #[test]
    fn distance_to_set_is_minimum(points in cloud(), from in 0usize..24, subset_mask in prop::collection::vec(any::<bool>(), 24)) {
        let space = VecSpace::new(points);
        let from = from % space.len();
        let subset: Vec<usize> = (0..space.len()).filter(|&i| subset_mask.get(i).copied().unwrap_or(false)).collect();
        let expected = subset.iter().map(|&t| space.distance(from, t)).fold(f64::INFINITY, f64::min);
        let actual = space.distance_to_set(from, &subset);
        if subset.is_empty() {
            prop_assert!(actual.is_infinite());
        } else {
            prop_assert!((actual - expected).abs() < 1e-12);
        }
    }
}
