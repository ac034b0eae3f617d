//! Least-recently-used replacement.

use super::ReplacementPolicy;

/// True LRU via a monotonically increasing per-access timestamp.
#[derive(Debug, Clone)]
pub struct Lru {
    ways: usize,
    stamp: u64,
    last_use: Vec<u64>,
}

impl Lru {
    /// Creates LRU state for a `sets` x `ways` cache.
    pub fn new(sets: usize, ways: usize) -> Self {
        Self {
            ways,
            stamp: 0,
            last_use: vec![0; sets * ways],
        }
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.stamp += 1;
        self.last_use[set * self.ways + way] = self.stamp;
    }
}

impl ReplacementPolicy for Lru {
    fn on_fill(&mut self, set: usize, way: usize, _signature: u64) {
        self.touch(set, way);
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn victim(&mut self, set: usize) -> usize {
        let base = set * self.ways;
        (0..self.ways)
            .min_by_key(|&w| self.last_use[base + w])
            .expect("cache has at least one way")
    }

    fn on_evict(&mut self, _set: usize, _way: usize, _was_reused: bool) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = Lru::new(1, 4);
        for w in 0..4 {
            lru.on_fill(0, w, 0);
        }
        lru.on_hit(0, 0); // way 1 is now oldest
        assert_eq!(lru.victim(0), 1);
        lru.on_hit(0, 1);
        assert_eq!(lru.victim(0), 2);
    }

    #[test]
    fn sets_are_independent() {
        let mut lru = Lru::new(2, 2);
        lru.on_fill(0, 0, 0);
        lru.on_fill(0, 1, 0);
        lru.on_fill(1, 1, 0);
        lru.on_fill(1, 0, 0);
        assert_eq!(lru.victim(0), 0);
        assert_eq!(lru.victim(1), 1);
    }
}
