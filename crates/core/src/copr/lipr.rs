//! The Line-Level Predictor (LiPR): a set-associative table of 64-bit
//! vectors, one bit of predicted compressibility per cacheline of a 4KB
//! page (§IV-C.3).
//!
//! LiPR serves pages whose lines have *mixed* compressibility — exactly the
//! case where PaPR's single per-page counter cannot help. On a
//! misprediction LiPR corrects the accessed line's bit, and when PaPR deems
//! the page uniform it proactively updates the neighbouring lines' bits
//! too. The paper provisions 176KB.

/// Cachelines covered by one LiPR entry (one 4KB page of 64-byte lines).
pub const LINES_PER_ENTRY: usize = 64;

/// Neighbour radius used for the PaPR-guided proactive update.
const NEIGHBOUR_RADIUS: usize = 4;

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    tag: u64,
    valid: bool,
    bits: u64,
    last_use: u64,
}

/// The line-level predictor.
#[derive(Debug, Clone)]
pub struct Lipr {
    sets: usize,
    ways: usize,
    entries: Vec<Entry>,
    stamp: u64,
}

impl Lipr {
    /// Creates a LiPR with `sets` x `ways` entries.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "LiPR geometry must be non-zero");
        Self {
            sets,
            ways,
            entries: vec![Entry::default(); sets * ways],
            stamp: 0,
        }
    }

    /// The paper's 176KB configuration: 16K entries (2048 sets x 8 ways) at
    /// ~11 bytes (64-bit vector + tag) each.
    pub fn paper_default() -> Self {
        Self::new(2048, 8)
    }

    /// Estimated SRAM budget in bytes (64-bit vector + ~24-bit tag per
    /// entry, matching the paper's 176KB figure).
    pub fn sram_bytes(&self) -> usize {
        self.sets * self.ways * 11
    }

    fn set_of(&self, page: u64) -> usize {
        (page % self.sets as u64) as usize
    }

    fn find(&self, page: u64) -> Option<usize> {
        let set = self.set_of(page);
        let tag = page / self.sets as u64;
        (0..self.ways)
            .map(|w| set * self.ways + w)
            .find(|&i| self.entries[i].valid && self.entries[i].tag == tag)
    }

    /// Predicts compressibility for line `line_in_page` of `page`; `None`
    /// when the page has no entry.
    ///
    /// # Panics
    ///
    /// Panics if `line_in_page >= 64`.
    pub fn predict(&self, page: u64, line_in_page: usize) -> Option<bool> {
        assert!(line_in_page < LINES_PER_ENTRY);
        self.find(page)
            .map(|i| self.entries[i].bits & (1 << line_in_page) != 0)
    }

    /// Trains the entry with the observed compressibility.
    ///
    /// `page_uniform` is PaPR's confidence signal: when set, the bits of
    /// neighbouring lines are proactively updated to the observed value;
    /// otherwise only the accessed line's bit changes.
    pub fn train(
        &mut self,
        page: u64,
        line_in_page: usize,
        compressible: bool,
        page_uniform: bool,
    ) {
        assert!(line_in_page < LINES_PER_ENTRY);
        self.stamp += 1;
        let idx = match self.find(page) {
            Some(i) => i,
            None => {
                let set = self.set_of(page);
                let tag = page / self.sets as u64;
                let base = set * self.ways;
                let victim = (0..self.ways)
                    .map(|w| base + w)
                    .find(|&i| !self.entries[i].valid)
                    .unwrap_or_else(|| {
                        (base..base + self.ways)
                            .min_by_key(|&i| self.entries[i].last_use)
                            .expect("ways > 0")
                    });
                // Initialize the whole vector from the first observation:
                // best guess until individual lines are seen.
                self.entries[victim] = Entry {
                    tag,
                    valid: true,
                    bits: if compressible { u64::MAX } else { 0 },
                    last_use: self.stamp,
                };
                victim
            }
        };
        let e = &mut self.entries[idx];
        e.last_use = self.stamp;
        let mask = if page_uniform {
            let lo = line_in_page.saturating_sub(NEIGHBOUR_RADIUS);
            let hi = (line_in_page + NEIGHBOUR_RADIUS).min(LINES_PER_ENTRY - 1);
            let width = hi - lo + 1;
            if width == 64 {
                u64::MAX
            } else {
                ((1u64 << width) - 1) << lo
            }
        } else {
            1u64 << line_in_page
        };
        if compressible {
            e.bits |= mask;
        } else {
            e.bits &= !mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_page_has_no_prediction() {
        let l = Lipr::new(16, 2);
        assert_eq!(l.predict(3, 0), None);
    }

    #[test]
    fn first_observation_seeds_whole_vector() {
        let mut l = Lipr::new(16, 2);
        l.train(3, 10, true, false);
        assert_eq!(l.predict(3, 0), Some(true));
        assert_eq!(l.predict(3, 63), Some(true));
    }

    #[test]
    fn non_uniform_update_touches_one_bit() {
        let mut l = Lipr::new(16, 2);
        l.train(3, 10, true, false); // vector all ones
        l.train(3, 20, false, false); // only bit 20 cleared
        assert_eq!(l.predict(3, 20), Some(false));
        assert_eq!(l.predict(3, 19), Some(true));
        assert_eq!(l.predict(3, 21), Some(true));
    }

    #[test]
    fn uniform_update_touches_neighbours() {
        let mut l = Lipr::new(16, 2);
        l.train(3, 10, true, false); // all ones
        l.train(3, 20, false, true); // bits 16..=24 cleared
        for i in 16..=24 {
            assert_eq!(l.predict(3, i), Some(false), "bit {i}");
        }
        assert_eq!(l.predict(3, 15), Some(true));
        assert_eq!(l.predict(3, 25), Some(true));
    }

    #[test]
    fn neighbour_mask_clamps_at_edges() {
        let mut l = Lipr::new(16, 2);
        l.train(3, 0, true, false);
        l.train(3, 1, false, true); // bits 0..=5
        assert_eq!(l.predict(3, 0), Some(false));
        assert_eq!(l.predict(3, 5), Some(false));
        assert_eq!(l.predict(3, 6), Some(true));
        l.train(3, 63, false, true); // bits 59..=63
        assert_eq!(l.predict(3, 59), Some(false));
        assert_eq!(l.predict(3, 58), Some(true));
    }

    #[test]
    fn lru_eviction_on_full_set() {
        let mut l = Lipr::new(1, 2);
        l.train(0, 0, true, false);
        l.train(1, 0, true, false);
        l.train(0, 1, true, false);
        l.train(2, 0, true, false); // evicts page 1
        assert_eq!(l.predict(1, 0), None);
        assert!(l.predict(0, 0).is_some());
    }

    #[test]
    fn paper_default_budget_is_176kb() {
        assert_eq!(Lipr::paper_default().sram_bytes(), 176 * 1024);
    }

    #[test]
    #[should_panic]
    fn out_of_range_line_panics() {
        let l = Lipr::new(2, 2);
        let _ = l.predict(0, 64);
    }
}
