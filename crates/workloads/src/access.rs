//! Access-pattern generators.
//!
//! Each SPEC/GAP benchmark class maps to one of four address-stream shapes:
//! sequential streaming (lbm, libquantum, STREAM), uniform random (RAND),
//! power-law graph traversal with neighbour-list bursts (the GAP kernels),
//! and pointer chasing with partial page locality (mcf, omnetpp, soplex).

/// The shape of a workload's address stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Sequential sweep with wrap-around.
    Stream,
    /// Uniform random over the footprint.
    Random,
    /// Power-law vertex accesses over a hot region plus sequential
    /// neighbour-list bursts into the cold region (GAP-like).
    Graph {
        /// Fraction of accesses landing in the hot (skewed) region.
        hot_frac: f64,
        /// Size of the hot region as a fraction of the footprint.
        hot_region: f64,
        /// Length of the sequential burst after each cold jump.
        burst: u32,
    },
    /// Random jumps with probability `1 - locality`; otherwise the next
    /// access stays within the current 4KB page.
    PointerChase {
        /// Probability of staying within the current page.
        locality: f64,
    },
}

impl AccessPattern {
    /// The canonical GAP-like graph pattern.
    pub fn graph() -> Self {
        AccessPattern::Graph {
            hot_frac: 0.75,
            hot_region: 0.05,
            burst: 3,
        }
    }
}

/// A stateful generator of line offsets in `[0, footprint_lines)`.
#[derive(Debug, Clone)]
pub struct AccessGen {
    pattern: AccessPattern,
    footprint_lines: u64,
    rng: u64,
    cursor: u64,
    burst_left: u32,
}

impl AccessGen {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if `footprint_lines` is zero.
    pub fn new(pattern: AccessPattern, footprint_lines: u64, seed: u64) -> Self {
        assert!(footprint_lines > 0, "footprint must be non-empty");
        // Start each generator at a seed-derived position: rate-mode
        // copies of a streaming benchmark must not march through the same
        // bank in lockstep (independent processes never do).
        let mut h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0123_4567_89AB_CDEF;
        h ^= h >> 29;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        Self {
            pattern,
            footprint_lines,
            rng: seed | 1,
            cursor: h % footprint_lines,
            burst_left: 0,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Produces the next line offset.
    pub fn next_line(&mut self) -> u64 {
        match self.pattern {
            AccessPattern::Stream => {
                let line = self.cursor;
                self.cursor = (self.cursor + 1) % self.footprint_lines;
                line
            }
            AccessPattern::Random => self.next_u64() % self.footprint_lines,
            AccessPattern::Graph {
                hot_frac,
                hot_region,
                burst,
            } => {
                if self.burst_left > 0 {
                    self.burst_left -= 1;
                    self.cursor = (self.cursor + 1) % self.footprint_lines;
                    return self.cursor;
                }
                if self.next_unit() < hot_frac {
                    // Quadratic skew approximates a power-law over the hot
                    // region: small indices are much more likely.
                    let hot_lines = ((self.footprint_lines as f64 * hot_region) as u64).max(1);
                    let u = self.next_unit();
                    (u * u * hot_lines as f64) as u64
                } else {
                    // Cold jump (fetch a neighbour list) + burst.
                    self.cursor = self.next_u64() % self.footprint_lines;
                    self.burst_left = burst;
                    self.cursor
                }
            }
            AccessPattern::PointerChase { locality } => {
                if self.next_unit() < locality {
                    // Stay in the current page.
                    let page = self.cursor / 64;
                    let line = page * 64 + self.next_u64() % 64;
                    self.cursor = line % self.footprint_lines;
                } else if self.next_unit() < 0.8 {
                    // Most pointer jumps land in a hot working set (heap
                    // hot structures): an eighth of the footprint.
                    let hot = (self.footprint_lines / 8).max(1);
                    self.cursor = self.next_u64() % hot;
                } else {
                    self.cursor = self.next_u64() % self.footprint_lines;
                }
                self.cursor
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_sequential_and_wraps() {
        let mut g = AccessGen::new(AccessPattern::Stream, 4, 1);
        let seq: Vec<u64> = (0..6).map(|_| g.next_line()).collect();
        let start = seq[0];
        assert!(start < 4);
        for (i, &l) in seq.iter().enumerate() {
            assert_eq!(l, (start + i as u64) % 4, "sequential with wrap");
        }
    }

    #[test]
    fn different_seeds_start_at_different_phases() {
        let starts: std::collections::HashSet<u64> = (0..16)
            .map(|s| AccessGen::new(AccessPattern::Stream, 1_000_000, s).next_line())
            .collect();
        assert!(starts.len() >= 14, "seeds must stagger stream starts");
    }

    #[test]
    fn random_stays_in_bounds_and_spreads() {
        let mut g = AccessGen::new(AccessPattern::Random, 1000, 3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2_000 {
            let l = g.next_line();
            assert!(l < 1000);
            seen.insert(l);
        }
        assert!(seen.len() > 700, "uniform random covers most lines");
    }

    #[test]
    fn graph_hot_region_dominates() {
        let mut g = AccessGen::new(AccessPattern::graph(), 100_000, 5);
        let hot_cutoff = 5_000;
        let mut hot = 0;
        let n = 20_000;
        for _ in 0..n {
            if g.next_line() < hot_cutoff {
                hot += 1;
            }
        }
        // 75% of the *decisions* are hot, but each cold jump drags a
        // 3-access burst with it: hot share of all accesses ≈ 0.75/1.75.
        assert!(hot as f64 > 0.35 * n as f64, "hot fraction {hot}/{n}");
    }

    #[test]
    fn pointer_chase_has_page_locality() {
        let mut g = AccessGen::new(AccessPattern::PointerChase { locality: 0.8 }, 1_000_000, 9);
        let mut same_page = 0;
        let mut prev = g.next_line();
        let n = 10_000;
        for _ in 0..n {
            let l = g.next_line();
            if l / 64 == prev / 64 {
                same_page += 1;
            }
            prev = l;
        }
        assert!(
            same_page as f64 > 0.6 * n as f64,
            "page locality {same_page}/{n}"
        );
    }

    #[test]
    #[should_panic(expected = "footprint must be non-empty")]
    fn zero_footprint_panics() {
        let _ = AccessGen::new(AccessPattern::Stream, 0, 1);
    }
}
