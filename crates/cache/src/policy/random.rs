//! Uniform-random replacement (control policy).

use super::ReplacementPolicy;

/// Random victim selection with an internal xorshift generator, so the cache
/// model stays deterministic for a given construction order.
#[derive(Debug, Clone)]
pub struct Random {
    ways: usize,
    state: u64,
}

impl Random {
    /// Creates random-replacement state for a `sets` x `ways` cache.
    pub fn new(_sets: usize, ways: usize) -> Self {
        Self {
            ways,
            state: 0x853C_49E6_748F_EA9B,
        }
    }

    fn next(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }
}

impl ReplacementPolicy for Random {
    fn on_fill(&mut self, _set: usize, _way: usize, _signature: u64) {}

    fn on_hit(&mut self, _set: usize, _way: usize) {}

    fn victim(&mut self, _set: usize) -> usize {
        (self.next() % self.ways as u64) as usize
    }

    fn on_evict(&mut self, _set: usize, _way: usize, _was_reused: bool) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victims_are_in_range_and_varied() {
        let mut r = Random::new(4, 8);
        let mut seen = [false; 8];
        for _ in 0..256 {
            let v = r.victim(0);
            assert!(v < 8);
            seen[v] = true;
        }
        assert!(
            seen.iter().filter(|&&s| s).count() >= 6,
            "should hit most ways"
        );
    }
}
