//! COPR — the Compression Predictor (§IV-C, Fig. 10).
//!
//! COPR replaces the Metadata-Cache: instead of *storing* metadata on-chip
//! (and paying install/eviction traffic for it), the controller *predicts*
//! the compression status before issuing the read, then verifies against
//! the BLEM header that arrives with the data and trains on the truth. A
//! misprediction costs at most one corrective 32-byte fetch; it never costs
//! a metadata access.
//!
//! The predictor is multi-granularity:
//! 1. [LiPR](lipr::Lipr) — per-line bits, for pages with mixed
//!    compressibility (consulted only when PaPR says the page is *not*
//!    uniform);
//! 2. [PaPR](papr::Papr) — a 2-bit counter per page;
//! 3. [GI](global::GlobalIndicator) — eight 2-bit counters over the whole
//!    space, also used to seed new PaPR entries.

pub mod global;
pub mod lipr;
pub mod papr;

pub use global::GlobalIndicator;
pub use lipr::Lipr;
pub use papr::Papr;

/// Cachelines per OS page (4KB / 64B).
pub const LINES_PER_PAGE: u64 = 64;

/// Which predictor components are active (the Fig. 17 ablation axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoprConfig {
    /// Enable the Global Indicator.
    pub use_gi: bool,
    /// Enable the page-level predictor.
    pub use_papr: bool,
    /// Enable the line-level predictor.
    pub use_lipr: bool,
    /// PaPR geometry.
    pub papr_sets: usize,
    /// PaPR associativity.
    pub papr_ways: usize,
    /// LiPR geometry.
    pub lipr_sets: usize,
    /// LiPR associativity.
    pub lipr_ways: usize,
    /// Total 64-byte lines in physical memory (for GI region sizing).
    pub total_lines: u64,
    /// Predictor lookup latency in CPU cycles (8, like an L2, per §V).
    pub latency_cycles: u64,
}

impl CoprConfig {
    /// The full paper configuration (GI + 192KB PaPR + 176KB LiPR).
    pub fn paper_default(total_lines: u64) -> Self {
        Self {
            use_gi: true,
            use_papr: true,
            use_lipr: true,
            papr_sets: 8192,
            papr_ways: 8,
            lipr_sets: 2048,
            lipr_ways: 8,
            total_lines,
            latency_cycles: 8,
        }
    }

    /// PaPR-only ablation (Fig. 17's first bar: 11.5% speedup alone).
    pub fn papr_only(total_lines: u64) -> Self {
        Self {
            use_gi: false,
            use_lipr: false,
            ..Self::paper_default(total_lines)
        }
    }

    /// PaPR + GI ablation (Fig. 17: most of the benefit).
    pub fn papr_gi(total_lines: u64) -> Self {
        Self {
            use_lipr: false,
            ..Self::paper_default(total_lines)
        }
    }
}

/// Prediction-accuracy counters (Fig. 11).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoprStats {
    /// Predictions made.
    pub predictions: u64,
    /// Predictions that matched the BLEM ground truth.
    pub correct: u64,
    /// Mispredictions where a compressed line was predicted uncompressed
    /// (costs nothing extra: both halves were fetched anyway).
    pub underpredictions: u64,
    /// Mispredictions where an uncompressed line was predicted compressed
    /// (costs one corrective 32-byte fetch).
    pub overpredictions: u64,
}

impl CoprStats {
    /// Prediction accuracy in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.correct as f64 / self.predictions as f64
        }
    }
}

/// Which predictor component a prediction came from, in the priority
/// order [`Copr::predict`] consults them. Used to attribute accuracy
/// per component (Fig. 17's ablation axis, observed instead of re-run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoprSource {
    /// The page-level predictor answered (uniform page, or LiPR silent).
    Papr,
    /// The line-level predictor answered.
    Lipr,
    /// The Global Indicator answered.
    Gi,
    /// Everything was cold: the safe "uncompressed" default.
    Default,
}

impl CoprSource {
    /// Every source, in priority order.
    pub const ALL: [CoprSource; 4] = [
        CoprSource::Papr,
        CoprSource::Lipr,
        CoprSource::Gi,
        CoprSource::Default,
    ];

    /// A stable lowercase key for metric names.
    pub fn key(self) -> &'static str {
        match self {
            CoprSource::Papr => "papr",
            CoprSource::Lipr => "lipr",
            CoprSource::Gi => "gi",
            CoprSource::Default => "default",
        }
    }

    fn index(self) -> usize {
        match self {
            CoprSource::Papr => 0,
            CoprSource::Lipr => 1,
            CoprSource::Gi => 2,
            CoprSource::Default => 3,
        }
    }
}

/// The Compression Predictor.
///
/// # Example
///
/// ```
/// use attache_core::copr::{Copr, CoprConfig};
///
/// let mut copr = Copr::new(CoprConfig::paper_default(1 << 28));
/// // Train on a uniformly compressible region…
/// for line in 0..256u64 {
///     copr.train(line, true);
/// }
/// // …and the predictor follows.
/// assert!(copr.predict(300));
/// ```
#[derive(Debug, Clone)]
pub struct Copr {
    config: CoprConfig,
    gi: GlobalIndicator,
    papr: Papr,
    lipr: Lipr,
    stats: CoprStats,
    by_source: [CoprStats; 4],
}

impl Copr {
    /// Creates a predictor.
    pub fn new(config: CoprConfig) -> Self {
        Self {
            config,
            gi: GlobalIndicator::new(config.total_lines),
            papr: Papr::new(config.papr_sets, config.papr_ways),
            lipr: Lipr::new(config.lipr_sets, config.lipr_ways),
            stats: CoprStats::default(),
            by_source: [CoprStats::default(); 4],
        }
    }

    /// The active configuration.
    pub fn config(&self) -> CoprConfig {
        self.config
    }

    /// Predicts whether `line_addr` is stored compressed.
    ///
    /// Priority: LiPR for pages PaPR considers mixed, then PaPR, then GI;
    /// with everything cold the safe default is *uncompressed* (fetch both
    /// sub-ranks — never wrong, only less efficient).
    pub fn predict(&self, line_addr: u64) -> bool {
        let page = line_addr / LINES_PER_PAGE;
        let line_in_page = (line_addr % LINES_PER_PAGE) as usize;
        if self.config.use_papr {
            if let Some(page_pred) = self.papr.predict(page) {
                // Mixed page: defer to LiPR's per-line bit when available.
                if self.config.use_lipr && !self.papr.neighbours_similar(page) {
                    if let Some(b) = self.lipr.predict(page, line_in_page) {
                        return b;
                    }
                }
                return page_pred;
            }
        }
        if self.config.use_lipr {
            if let Some(b) = self.lipr.predict(page, line_in_page) {
                return b;
            }
        }
        if self.config.use_gi {
            return self.gi.predict(line_addr);
        }
        false
    }

    /// Which component [`Copr::predict`] would answer from for
    /// `line_addr` right now — the same priority walk as `predict`,
    /// returning the source instead of the bit.
    pub fn source_of(&self, line_addr: u64) -> CoprSource {
        let page = line_addr / LINES_PER_PAGE;
        let line_in_page = (line_addr % LINES_PER_PAGE) as usize;
        if self.config.use_papr && self.papr.predict(page).is_some() {
            if self.config.use_lipr
                && !self.papr.neighbours_similar(page)
                && self.lipr.predict(page, line_in_page).is_some()
            {
                return CoprSource::Lipr;
            }
            return CoprSource::Papr;
        }
        if self.config.use_lipr && self.lipr.predict(page, line_in_page).is_some() {
            return CoprSource::Lipr;
        }
        if self.config.use_gi {
            return CoprSource::Gi;
        }
        CoprSource::Default
    }

    /// Trains all active components with the BLEM-provided ground truth.
    pub fn train(&mut self, line_addr: u64, compressible: bool) {
        let page = line_addr / LINES_PER_PAGE;
        let line_in_page = (line_addr % LINES_PER_PAGE) as usize;
        // LiPR reads PaPR's confidence *before* PaPR absorbs this sample.
        if self.config.use_lipr {
            let uniform = self.config.use_papr && self.papr.neighbours_similar(page);
            self.lipr.train(page, line_in_page, compressible, uniform);
        }
        if self.config.use_papr {
            let hint = self.config.use_gi && self.gi.seed_hint(line_addr);
            self.papr.train(page, compressible, hint);
        }
        if self.config.use_gi {
            self.gi.train(line_addr, compressible);
        }
    }

    /// Records a resolved prediction for the accuracy statistics,
    /// attributed to the component that would answer for `line_addr`.
    ///
    /// Attribution note: the source is re-derived at record time, which
    /// in the simulator is after the read round-trips through DRAM — an
    /// intervening train on a neighbouring line can shift which
    /// component would answer. The per-source split is therefore a
    /// (deterministic) close approximation; the aggregate counters are
    /// exact.
    pub fn record(&mut self, line_addr: u64, predicted: bool, actual: bool) {
        let source = self.source_of(line_addr);
        for s in [&mut self.stats, &mut self.by_source[source.index()]] {
            s.predictions += 1;
            if predicted == actual {
                s.correct += 1;
            } else if actual {
                s.underpredictions += 1;
            } else {
                s.overpredictions += 1;
            }
        }
    }

    /// Accuracy counters.
    pub fn stats(&self) -> CoprStats {
        self.stats
    }

    /// Accuracy counters attributed to one predictor component.
    pub fn source_stats(&self, source: CoprSource) -> CoprStats {
        self.by_source[source.index()]
    }

    /// Resets counters after warm-up (tables keep their training).
    pub fn reset_stats(&mut self) {
        self.stats = CoprStats::default();
        self.by_source = [CoprStats::default(); 4];
    }

    /// Total SRAM budget of the active components in bytes (the paper's
    /// 368KB = 192KB PaPR + 176KB LiPR; the GI is eight 2-bit counters).
    pub fn sram_bytes(&self) -> usize {
        let mut total = 0;
        if self.config.use_papr {
            total += self.papr.sram_bytes();
        }
        if self.config.use_lipr {
            total += self.lipr.sram_bytes();
        }
        if self.config.use_gi {
            total += 2; // eight 2-bit counters
        }
        total
    }

    /// The predictor lookup latency in CPU cycles.
    pub fn latency(&self) -> u64 {
        self.config.latency_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOTAL: u64 = 1 << 28; // 16GB of 64B lines

    #[test]
    fn paper_budget_is_368kb() {
        let copr = Copr::new(CoprConfig::paper_default(TOTAL));
        assert_eq!(copr.sram_bytes(), 368 * 1024 + 2);
    }

    #[test]
    fn cold_predictor_says_uncompressed() {
        let copr = Copr::new(CoprConfig::paper_default(TOTAL));
        assert!(!copr.predict(12345), "safe default");
    }

    #[test]
    fn uniform_pages_learned_via_papr() {
        let mut copr = Copr::new(CoprConfig::paper_default(TOTAL));
        for line in 0..LINES_PER_PAGE * 4 {
            copr.train(line, true);
        }
        // Never-seen line in a trained page:
        assert!(copr.predict(10));
        // Never-seen page in a warm GI region:
        assert!(copr.predict(LINES_PER_PAGE * 100));
    }

    #[test]
    fn mixed_page_resolved_by_lipr() {
        let mut copr = Copr::new(CoprConfig::paper_default(TOTAL));
        // Alternate compressible/incompressible lines within one page, so
        // PaPR hovers below its threshold and LiPR carries the signal.
        for round in 0..4 {
            let _ = round;
            for i in 0..LINES_PER_PAGE {
                copr.train(i, i % 2 == 0);
            }
        }
        let mut correct = 0;
        for i in 0..LINES_PER_PAGE {
            let pred = copr.predict(i);
            if pred == (i % 2 == 0) {
                correct += 1;
            }
        }
        assert!(
            correct >= 48,
            "LiPR should resolve most lines of a mixed page, got {correct}/64"
        );
    }

    #[test]
    fn papr_only_ablation_disables_others() {
        let mut copr = Copr::new(CoprConfig::papr_only(TOTAL));
        for line in 0..LINES_PER_PAGE {
            copr.train(line, true);
        }
        // Same page predicted compressible...
        assert!(copr.predict(5));
        // ...but an unseen page has no GI fallback: default uncompressed.
        assert!(!copr.predict(LINES_PER_PAGE * 999));
        assert_eq!(copr.sram_bytes(), 192 * 1024);
    }

    #[test]
    fn accuracy_counters() {
        let mut copr = Copr::new(CoprConfig::paper_default(TOTAL));
        copr.record(0, true, true);
        copr.record(0, false, true);
        copr.record(0, true, false);
        let s = copr.stats();
        assert_eq!(s.predictions, 3);
        assert_eq!(s.correct, 1);
        assert_eq!(s.underpredictions, 1);
        assert_eq!(s.overpredictions, 1);
        assert!((s.accuracy() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn per_source_counters_partition_the_total() {
        let mut copr = Copr::new(CoprConfig::paper_default(TOTAL));
        // Cold predictor: attribution is the GI fallback.
        assert_eq!(copr.source_of(5), CoprSource::Gi);
        copr.record(5, false, false);
        // Warm one page so PaPR answers there.
        for line in 0..LINES_PER_PAGE {
            copr.train(line, true);
        }
        assert_eq!(copr.source_of(3), CoprSource::Papr);
        copr.record(3, true, true);
        let total: u64 = CoprSource::ALL
            .iter()
            .map(|&s| copr.source_stats(s).predictions)
            .sum();
        assert_eq!(total, copr.stats().predictions);
        assert_eq!(copr.source_stats(CoprSource::Gi).predictions, 1);
        assert_eq!(copr.source_stats(CoprSource::Papr).correct, 1);
        copr.reset_stats();
        assert_eq!(copr.source_stats(CoprSource::Papr).predictions, 0);
    }

    #[test]
    fn default_source_when_everything_disabled() {
        let copr = Copr::new(CoprConfig {
            use_gi: false,
            use_papr: false,
            use_lipr: false,
            ..CoprConfig::paper_default(TOTAL)
        });
        assert_eq!(copr.source_of(1), CoprSource::Default);
        assert_eq!(CoprSource::Default.key(), "default");
    }

    #[test]
    fn gi_fallback_tracks_global_phase() {
        let mut copr = Copr::new(CoprConfig::papr_gi(TOTAL));
        // Touch many distinct pages so predictions for *new* pages come
        // from the GI.
        for p in 0..64u64 {
            copr.train(p * LINES_PER_PAGE, true);
        }
        assert!(copr.predict(LINES_PER_PAGE * 77_777));
    }
}
