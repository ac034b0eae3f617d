//! Deterministic synthesis of memory *contents* with controlled
//! compressibility.
//!
//! The paper's evaluation runs real SPEC/GAP binaries whose data contents
//! determine compressibility (Fig. 4). We do not have those binaries or
//! traces, so each workload profile instead *specifies* its observable
//! characteristics and this module synthesizes 64-byte blocks that realize
//! them:
//!
//! * a target fraction of lines compressible to ≤30 bytes (Fig. 4), and
//! * page-level *clustering* of compressibility — the property PaPR and
//!   LiPR exploit (§IV-C.3): most pages are dominated by one class, some
//!   pages are mixed.
//!
//! Contents are a pure function of `(seed, line address)`, so the backing
//! store can stay lazy and reads are reproducible.

use attache_compress::{Block, BLOCK_SIZE};

/// Lines per 4KB page.
pub const LINES_PER_PAGE: u64 = 64;

/// Statistical description of a workload's data contents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataProfile {
    /// Fraction of pages dominated by compressible lines.
    pub compressible_page_frac: f64,
    /// Fraction of compressible lines within a compressible-dominant page.
    pub comp_frac_in_comp_page: f64,
    /// Fraction of compressible lines within an incompressible-dominant
    /// page.
    pub comp_frac_in_incomp_page: f64,
}

impl DataProfile {
    /// A profile tuned so that approximately `target` of all lines
    /// compress to ≤30B, with strong page clustering (the common case).
    pub fn clustered(target: f64) -> Self {
        // comp_page * 0.95 + (1 - comp_page) * 0.05 = target
        let f = ((target - 0.05) / 0.90).clamp(0.0, 1.0);
        Self {
            compressible_page_frac: f,
            comp_frac_in_comp_page: 0.95,
            comp_frac_in_incomp_page: 0.05,
        }
    }

    /// A profile with *weak* page clustering: pages are mixed, so PaPR
    /// struggles and LiPR matters (used by the mixed-compressibility
    /// workloads).
    pub fn mixed(target: f64) -> Self {
        Self {
            compressible_page_frac: 1.0,
            comp_frac_in_comp_page: target,
            comp_frac_in_incomp_page: target,
        }
    }

    /// Fully incompressible data (the RAND synthetic benchmark).
    pub fn incompressible() -> Self {
        Self {
            compressible_page_frac: 0.0,
            comp_frac_in_comp_page: 0.0,
            comp_frac_in_incomp_page: 0.0,
        }
    }

    /// The expected fraction of compressible lines.
    pub fn expected_compressible(&self) -> f64 {
        self.compressible_page_frac * self.comp_frac_in_comp_page
            + (1.0 - self.compressible_page_frac) * self.comp_frac_in_incomp_page
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(hash: u64) -> f64 {
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic block synthesizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataSynthesizer {
    seed: u64,
}

impl DataSynthesizer {
    /// Creates a synthesizer keyed by `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Whether the line at `line_addr` is drawn from the compressible
    /// class (the actual compressed size is decided by the real BDI/FPC
    /// engines on the synthesized bytes).
    pub fn line_is_compressible_class(&self, profile: &DataProfile, line_addr: u64) -> bool {
        let page = line_addr / LINES_PER_PAGE;
        let page_hash = splitmix64(self.seed ^ page.wrapping_mul(0x5851_F42D_4C95_7F2D));
        let page_compressible = unit(page_hash) < profile.compressible_page_frac;
        let frac = if page_compressible {
            profile.comp_frac_in_comp_page
        } else {
            profile.comp_frac_in_incomp_page
        };
        let line_hash =
            splitmix64(self.seed ^ line_addr.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0xABCD);
        unit(line_hash) < frac
    }

    /// Synthesizes the 64-byte contents of `line_addr`.
    pub fn block_for(&self, profile: &DataProfile, line_addr: u64) -> Block {
        let h = splitmix64(self.seed ^ line_addr.wrapping_mul(0x9E6D_62D0_6F6A_9A9B) ^ 0x1234);
        if self.line_is_compressible_class(profile, line_addr) {
            match h % 4 {
                0 => self.sparse_block(h),
                1 => self.small_int_block(h),
                2 => self.pointer_block(h),
                _ => self.repeated_block(h),
            }
        } else {
            self.random_block(h)
        }
    }

    /// Mostly-zero block with a few small words (FPC zero runs).
    fn sparse_block(&self, h: u64) -> Block {
        let mut b = [0u8; BLOCK_SIZE];
        let n = (h % 4) as usize; // 0..=3 nonzero words
        for k in 0..n {
            let word = (splitmix64(h ^ k as u64) % 1000) as u32;
            let pos = (splitmix64(h ^ (k as u64 + 77)) % 16) as usize;
            b[pos * 4..pos * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        b
    }

    /// Small 32-bit integers (FPC 4/8-bit immediates).
    fn small_int_block(&self, h: u64) -> Block {
        let mut b = [0u8; BLOCK_SIZE];
        for (i, chunk) in b.chunks_exact_mut(4).enumerate() {
            let v = (splitmix64(h ^ i as u64) % 120) as i32 - 20;
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        b
    }

    /// Nearby 64-bit pointers (BDI base+delta).
    fn pointer_block(&self, h: u64) -> Block {
        let mut b = [0u8; BLOCK_SIZE];
        let base = 0x7F00_0000_0000u64 | (h & 0xFFFF_F000);
        for (i, chunk) in b.chunks_exact_mut(8).enumerate() {
            let delta = splitmix64(h ^ (i as u64 + 31)) % 96;
            chunk.copy_from_slice(&(base + delta).to_le_bytes());
        }
        b
    }

    /// One 8-byte value repeated (BDI repeated / FPC repeated bytes).
    fn repeated_block(&self, h: u64) -> Block {
        let mut b = [0u8; BLOCK_SIZE];
        let v = splitmix64(h) & 0xFFFF; // small-ish repeated value
        for chunk in b.chunks_exact_mut(8) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        b
    }

    /// High-entropy bytes (incompressible with overwhelming probability).
    fn random_block(&self, h: u64) -> Block {
        let mut b = [0u8; BLOCK_SIZE];
        let mut s = h | 1;
        for chunk in b.chunks_exact_mut(8) {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            chunk.copy_from_slice(&s.to_le_bytes());
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attache_compress::CompressionEngine;

    #[test]
    fn contents_are_deterministic() {
        let s = DataSynthesizer::new(9);
        let p = DataProfile::clustered(0.5);
        assert_eq!(s.block_for(&p, 123), s.block_for(&p, 123));
        assert_ne!(s.block_for(&p, 123), s.block_for(&p, 124));
    }

    #[test]
    fn measured_compressibility_tracks_target() {
        let engine = CompressionEngine::new();
        let s = DataSynthesizer::new(42);
        for target in [0.2, 0.5, 0.8] {
            let p = DataProfile::clustered(target);
            let n = 20_000u64;
            let compressible = (0..n)
                .filter(|&i| engine.fits_subrank(&s.block_for(&p, i)))
                .count() as f64
                / n as f64;
            assert!(
                (compressible - target).abs() < 0.06,
                "target {target}: measured {compressible}"
            );
        }
    }

    #[test]
    fn incompressible_profile_rarely_compresses() {
        let engine = CompressionEngine::new();
        let s = DataSynthesizer::new(1);
        let p = DataProfile::incompressible();
        let n = 5_000u64;
        let compressible = (0..n)
            .filter(|&i| engine.fits_subrank(&s.block_for(&p, i)))
            .count();
        assert!(compressible < 50, "got {compressible}/{n}");
    }

    #[test]
    fn clustered_profile_clusters_by_page() {
        let s = DataSynthesizer::new(7);
        let p = DataProfile::clustered(0.5);
        // Count pages that are heavily one-sided.
        let mut one_sided = 0;
        let pages = 200u64;
        for page in 0..pages {
            let comp = (0..LINES_PER_PAGE)
                .filter(|&i| s.line_is_compressible_class(&p, page * LINES_PER_PAGE + i))
                .count();
            if comp <= 8 || comp >= 56 {
                one_sided += 1;
            }
        }
        assert!(
            one_sided as f64 > 0.8 * pages as f64,
            "clustered profile should make most pages one-sided, got {one_sided}/{pages}"
        );
    }

    #[test]
    fn mixed_profile_does_not_cluster() {
        let s = DataSynthesizer::new(7);
        let p = DataProfile::mixed(0.5);
        let mut one_sided = 0;
        let pages = 200u64;
        for page in 0..pages {
            let comp = (0..LINES_PER_PAGE)
                .filter(|&i| s.line_is_compressible_class(&p, page * LINES_PER_PAGE + i))
                .count();
            if comp <= 8 || comp >= 56 {
                one_sided += 1;
            }
        }
        assert!(
            (one_sided as f64) < 0.1 * pages as f64,
            "mixed profile pages should be mixed, got {one_sided}/{pages} one-sided"
        );
    }

    #[test]
    fn expected_compressible_formula() {
        let p = DataProfile::clustered(0.5);
        assert!((p.expected_compressible() - 0.5).abs() < 0.01);
        assert_eq!(DataProfile::incompressible().expected_compressible(), 0.0);
    }
}
