//! Mapper-side partitioning.
//!
//! The map phase of every algorithm in the paper "arbitrarily partitions"
//! the current point set across the reducers (MRG line 3, EIM lines 3 and
//! 7).  [`chunks`] assigns every input item to exactly one partition and no
//! partition exceeds `ceil(len / parts)` items — the bound MRG's analysis
//! relies on (`|V_i| ≤ ⌈n/m⌉`).

/// Splits `items` into at most `parts` contiguous chunks of size
/// `ceil(len / parts)` (the last chunk may be smaller).  Chunks are never
/// empty; fewer than `parts` chunks are returned when there are not enough
/// items.
pub fn chunks<T: Clone>(items: &[T], parts: usize) -> Vec<Vec<T>> {
    assert!(parts > 0, "cannot partition into zero parts");
    if items.is_empty() {
        return Vec::new();
    }
    let size = items.len().div_ceil(parts);
    items.chunks(size).map(|c| c.to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flatten_sorted(parts: &[Vec<usize>]) -> Vec<usize> {
        let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn chunks_cover_everything_exactly_once() {
        let items: Vec<usize> = (0..103).collect();
        let parts = chunks(&items, 10);
        assert_eq!(flatten_sorted(&parts), items);
        assert!(parts.iter().all(|p| p.len() <= 11));
        assert!(parts.len() <= 10);
    }

    #[test]
    fn chunks_handles_fewer_items_than_parts() {
        let items = vec![1, 2, 3];
        let parts = chunks(&items, 10);
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|p| p.len() == 1));
    }

    #[test]
    fn chunks_of_empty_input_is_empty() {
        assert!(chunks::<usize>(&[], 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn chunks_rejects_zero_parts() {
        chunks(&[1], 0);
    }
}
