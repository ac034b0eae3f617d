//! A generic set-associative cache model.

use crate::policy::{PolicyKind, ReplacementPolicy};

/// Construction parameters for a [`SetAssocCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets. Need not be a power of two (power-of-two counts index
    /// with a mask and a shift, others with modulo).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Replacement policy.
    pub policy: PolicyKind,
}

/// A line leaving the cache on a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The line address (block address, not byte address) of the victim.
    pub line_addr: u64,
    /// Whether the victim was dirty and needs a writeback.
    pub dirty: bool,
}

/// The result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// A victim displaced by the fill on a miss, if any.
    pub evicted: Option<Eviction>,
}

/// Running hit/miss/eviction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Valid lines displaced by fills.
    pub evictions: u64,
    /// Displaced lines that were dirty (require a writeback).
    pub dirty_evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    reused: bool,
}

/// A set-associative, writeback, allocate-on-write cache model with a
/// pluggable replacement policy.
///
/// Addresses given to the cache are **line addresses** (byte address divided
/// by the line size); the cache is agnostic to the line size itself.
///
/// # Example
///
/// ```
/// use attache_cache::{CacheConfig, PolicyKind, SetAssocCache};
///
/// let mut c = SetAssocCache::new(CacheConfig { sets: 16, ways: 2, policy: PolicyKind::Lru });
/// let first = c.access(7, true, 0);
/// assert!(!first.hit);
/// assert!(c.access(7, false, 0).hit);
/// assert_eq!(c.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    lines: Vec<Line>,
    policy: Box<dyn ReplacementPolicy>,
    stats: CacheStats,
    /// `log2(sets)` when the set count is a power of two: set and tag
    /// indices are then a mask and a shift instead of a `%` and a `/`.
    set_bits: Option<u32>,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.sets > 0, "cache must have at least one set");
        assert!(config.ways > 0, "cache must have at least one way");
        Self {
            config,
            lines: vec![Line::default(); config.sets * config.ways],
            policy: config.policy.build(config.sets, config.ways),
            stats: CacheStats::default(),
            set_bits: config
                .sets
                .is_power_of_two()
                .then(|| config.sets.trailing_zeros()),
        }
    }

    /// The construction parameters.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Running statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics (e.g. after warm-up) without flushing contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.config.sets * self.config.ways
    }

    fn set_of(&self, line_addr: u64) -> usize {
        match self.set_bits {
            Some(b) => (line_addr & ((1u64 << b) - 1)) as usize,
            None => (line_addr % self.config.sets as u64) as usize,
        }
    }

    fn tag_of(&self, line_addr: u64) -> u64 {
        match self.set_bits {
            Some(b) => line_addr >> b,
            None => line_addr / self.config.sets as u64,
        }
    }

    fn addr_of(&self, set: usize, tag: u64) -> u64 {
        tag * self.config.sets as u64 + set as u64
    }

    fn line(&self, set: usize, way: usize) -> &Line {
        &self.lines[set * self.config.ways + way]
    }

    fn line_mut(&mut self, set: usize, way: usize) -> &mut Line {
        &mut self.lines[set * self.config.ways + way]
    }

    /// Looks up `line_addr` without changing any state (no stats, no
    /// replacement updates).
    pub fn probe(&self, line_addr: u64) -> bool {
        let set = self.set_of(line_addr);
        let tag = self.tag_of(line_addr);
        (0..self.config.ways).any(|w| {
            let l = self.line(set, w);
            l.valid && l.tag == tag
        })
    }

    /// Accesses `line_addr`, filling on a miss.
    ///
    /// `write` marks the line dirty; `signature` feeds signature-based
    /// policies (pass 0 when unused).
    pub fn access(&mut self, line_addr: u64, write: bool, signature: u64) -> AccessOutcome {
        self.stats.accesses += 1;
        let set = self.set_of(line_addr);
        let tag = self.tag_of(line_addr);

        for way in 0..self.config.ways {
            let line = self.line_mut(set, way);
            if line.valid && line.tag == tag {
                line.dirty |= write;
                line.reused = true;
                self.stats.hits += 1;
                self.policy.on_hit(set, way);
                return AccessOutcome {
                    hit: true,
                    evicted: None,
                };
            }
        }

        self.stats.misses += 1;
        let way = match (0..self.config.ways).find(|&w| !self.line(set, w).valid) {
            Some(w) => w,
            None => {
                let victim = self.policy.victim(set);
                debug_assert!(victim < self.config.ways);
                victim
            }
        };

        let old = *self.line(set, way);
        let evicted = if old.valid {
            self.stats.evictions += 1;
            if old.dirty {
                self.stats.dirty_evictions += 1;
            }
            self.policy.on_evict(set, way, old.reused);
            Some(Eviction {
                line_addr: self.addr_of(set, old.tag),
                dirty: old.dirty,
            })
        } else {
            None
        };

        *self.line_mut(set, way) = Line {
            tag,
            valid: true,
            dirty: write,
            reused: false,
        };
        self.policy.on_fill(set, way, signature);

        AccessOutcome {
            hit: false,
            evicted,
        }
    }

    /// Marks an already-resident line dirty; returns whether it was present.
    pub fn mark_dirty(&mut self, line_addr: u64) -> bool {
        let set = self.set_of(line_addr);
        let tag = self.tag_of(line_addr);
        for way in 0..self.config.ways {
            let line = self.line_mut(set, way);
            if line.valid && line.tag == tag {
                line.dirty = true;
                return true;
            }
        }
        false
    }

    /// Invalidates `line_addr` if present, returning its eviction record.
    pub fn invalidate(&mut self, line_addr: u64) -> Option<Eviction> {
        let set = self.set_of(line_addr);
        let tag = self.tag_of(line_addr);
        for way in 0..self.config.ways {
            let line = *self.line(set, way);
            if line.valid && line.tag == tag {
                self.policy.on_evict(set, way, line.reused);
                *self.line_mut(set, way) = Line::default();
                return Some(Eviction {
                    line_addr,
                    dirty: line.dirty,
                });
            }
        }
        None
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(sets: usize, ways: usize, policy: PolicyKind) -> SetAssocCache {
        SetAssocCache::new(CacheConfig { sets, ways, policy })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache(4, 2, PolicyKind::Lru);
        assert!(!c.access(10, false, 0).hit);
        assert!(c.access(10, false, 0).hit);
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn conflicting_lines_evict_lru() {
        let mut c = cache(1, 2, PolicyKind::Lru);
        c.access(0, false, 0);
        c.access(1, false, 0);
        c.access(0, false, 0); // 1 becomes LRU
        let out = c.access(2, false, 0);
        assert_eq!(out.evicted.map(|e| e.line_addr), Some(1));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = cache(1, 1, PolicyKind::Lru);
        c.access(5, true, 0);
        let out = c.access(6, false, 0);
        let ev = out.evicted.expect("must evict");
        assert_eq!(ev.line_addr, 5);
        assert!(ev.dirty);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn clean_eviction_needs_no_writeback() {
        let mut c = cache(1, 1, PolicyKind::Lru);
        c.access(5, false, 0);
        let out = c.access(6, false, 0);
        assert!(!out.evicted.expect("must evict").dirty);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = cache(1, 1, PolicyKind::Lru);
        c.access(5, false, 0);
        c.access(5, true, 0);
        let out = c.access(6, false, 0);
        assert!(out.evicted.expect("must evict").dirty);
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = cache(4, 2, PolicyKind::Lru);
        c.access(3, false, 0);
        assert!(c.probe(3));
        assert!(!c.probe(7));
        assert_eq!(c.stats().accesses, 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = cache(4, 2, PolicyKind::Lru);
        c.access(3, true, 0);
        let ev = c.invalidate(3).expect("present");
        assert!(ev.dirty);
        assert!(!c.probe(3));
        assert_eq!(c.invalidate(3), None);
    }

    #[test]
    fn mark_dirty_only_when_present() {
        let mut c = cache(4, 2, PolicyKind::Lru);
        assert!(!c.mark_dirty(9));
        c.access(9, false, 0);
        assert!(c.mark_dirty(9));
    }

    #[test]
    fn eviction_reconstructs_correct_address() {
        let mut c = cache(8, 1, PolicyKind::Lru);
        let a = 8 * 5 + 3; // set 3, tag 5
        let b = 8 * 9 + 3; // same set, tag 9
        c.access(a, false, 0);
        let out = c.access(b, false, 0);
        assert_eq!(out.evicted.map(|e| e.line_addr), Some(a));
    }

    #[test]
    fn shift_mask_indexing_matches_division_reference() {
        // Power-of-two set counts index with a mask and a shift, the rest
        // with `%` and `/`; both must agree with the division reference
        // and reconstruct the address the victim path reports.
        let mut g = attache_testkit::Gen::new(0x5E7_0F7A6);
        for sets in [1usize, 2, 64, 16_384, 3, 12, 1_000] {
            let c = cache(sets, 2, PolicyKind::Lru);
            assert_eq!(c.set_bits.is_some(), sets.is_power_of_two(), "{sets} sets");
            for case in 0..2_048 {
                let addr = if case % 2 == 0 {
                    g.next_u64()
                } else {
                    g.below(1 << 30)
                };
                let (set, tag) = (c.set_of(addr), c.tag_of(addr));
                assert_eq!(set as u64, addr % sets as u64, "{sets} sets addr {addr}");
                assert_eq!(tag, addr / sets as u64, "{sets} sets addr {addr}");
                assert_eq!(c.addr_of(set, tag), addr, "{sets} sets addr {addr}");
            }
        }
    }

    #[test]
    fn occupancy_tracks_valid_lines() {
        let mut c = cache(4, 2, PolicyKind::Lru);
        assert_eq!(c.occupancy(), 0);
        for i in 0..6 {
            c.access(i, false, 0);
        }
        assert!(c.occupancy() <= 8);
        assert!(c.occupancy() >= 4);
    }

    #[test]
    fn all_policies_sustain_mixed_traffic() {
        for policy in PolicyKind::ALL {
            let mut c = cache(16, 4, policy);
            for i in 0..2_000u64 {
                // Hot 32-line set with a cold streaming component mixed in.
                let addr = if i % 4 < 3 { i % 32 } else { 1_000 + i };
                c.access(addr, i % 3 == 0, addr >> 4);
            }
            let s = c.stats();
            assert_eq!(s.accesses, 2_000, "{policy}");
            assert_eq!(s.hits + s.misses, s.accesses, "{policy}");
            assert!(s.hits > 0, "{policy} should get some hits");
        }
    }

    #[test]
    fn working_set_within_capacity_hits_after_warmup() {
        for policy in PolicyKind::ALL {
            let mut c = cache(16, 4, policy);
            for round in 0..4 {
                for addr in 0..48u64 {
                    let out = c.access(addr, false, 0);
                    if round > 0 && policy == PolicyKind::Lru {
                        assert!(out.hit, "{policy} round {round} addr {addr}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_sets_panics() {
        let _ = cache(0, 1, PolicyKind::Lru);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        let _ = cache(1, 0, PolicyKind::Lru);
    }
}
