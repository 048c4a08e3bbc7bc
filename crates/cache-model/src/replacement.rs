//! The LRU recency stack behind the stack-distance profiler.

use serde::{Deserialize, Serialize};

/// An LRU recency stack over at most `capacity` cache lines (tags).
///
/// Position 0 is the most recently used line. The *stack distance* of an
/// access is the position of its tag before the access (0-based), or `None`
/// for a cold miss; an access with stack distance `d` hits in any cache with
/// more than `d` ways and misses otherwise — the LRU stack property that lets
/// a single pass produce the miss count for every associativity at once.
/// A stack bounded to `w` entries is exactly one set of a `w`-way LRU cache.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LruStack {
    /// Tags ordered from most recently used to least recently used.
    stack: Vec<u64>,
    capacity: usize,
}

impl LruStack {
    /// Creates an empty stack bounded to `capacity` entries.
    /// A capacity of `usize::MAX` keeps the full reuse history (used by the
    /// stack-distance profiler, which needs distances beyond the
    /// associativity as well).
    pub fn new(capacity: usize) -> Self {
        LruStack {
            stack: Vec::with_capacity(capacity.min(64)),
            capacity,
        }
    }

    /// Creates an unbounded stack.
    pub fn unbounded() -> Self {
        LruStack::new(usize::MAX)
    }

    /// References `tag`: returns its previous stack distance (`None` if the
    /// tag was not resident, i.e. a cold miss) and moves it to the MRU
    /// position, evicting the LRU entry if the capacity is exceeded.
    pub fn touch(&mut self, tag: u64) -> Option<usize> {
        let pos = self.stack.iter().position(|&t| t == tag);
        match pos {
            Some(p) => {
                // Move to front.
                self.stack.remove(p);
                self.stack.insert(0, tag);
                Some(p)
            }
            None => {
                self.stack.insert(0, tag);
                if self.stack.len() > self.capacity {
                    self.stack.pop();
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_distances_follow_reuse() {
        let mut s = LruStack::unbounded();
        assert_eq!(s.touch(10), None); // cold
        assert_eq!(s.touch(20), None);
        assert_eq!(s.touch(30), None);
        // Reusing 10 after touching 20 and 30: distance 2.
        assert_eq!(s.touch(10), Some(2));
        // Immediately reusing 10: distance 0.
        assert_eq!(s.touch(10), Some(0));
    }

    #[test]
    fn bounded_stack_evicts_lru() {
        let mut s = LruStack::new(2);
        s.touch(1);
        s.touch(2);
        // Touching 3 evicts 1; 2 and 3 stay resident, 3 most recently used.
        s.touch(3);
        assert_eq!(s.touch(3), Some(0));
        assert_eq!(s.touch(2), Some(1));
        // Touching 1 again is a cold miss from the stack's perspective.
        assert_eq!(s.touch(1), None);
    }

    #[test]
    fn hit_iff_ways_exceed_distance() {
        // Simulate a small trace against caches of different associativity
        // and check the stack property explicitly.
        let trace = [5u64, 6, 7, 5, 8, 6, 5, 9, 7];
        for ways in 1..=4usize {
            let mut full = LruStack::new(ways);
            let mut profiler = LruStack::unbounded();
            for &t in &trace {
                let hit_in_cache = full.touch(t).is_some();
                let dist = profiler.touch(t);
                let hit_by_property = matches!(dist, Some(d) if d < ways);
                assert_eq!(hit_in_cache, hit_by_property, "ways={ways} tag={t}");
            }
        }
    }
}
