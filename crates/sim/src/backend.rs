//! The functional memory backend: who lives where, and what the bytes are.
//!
//! This is the *functional* half of the Strategy/MemoryBackend split (see
//! [`crate::strategy`]): while a [`Strategy`](crate::strategy::Strategy)
//! plans timing-side requests from what the controller *believes* about a
//! line, the backend answers what is *actually* stored there — the
//! synthesized bytes, their real compressibility class, and the physical
//! layout of the metadata and Replacement-Area regions. Strategies consult
//! it to resolve predictions (did the half-width read suffice?) and the
//! figure binaries consult it for ground-truth compressibility (Fig. 4).
//! It is deliberately cycle-free: a lookup has no cost here; only the
//! requests a strategy chooses to issue cost bus cycles.
//!
//! Physical placement: each core's private footprint is packed
//! contiguously from address zero; the compression-metadata region and the
//! Replacement Area live above the workload span (both invisible to the
//! "OS", §IV-D). Contents are synthesized deterministically on demand, so
//! nothing is allocated until touched.
//!
//! Stores bump a per-line version; every 16th version the line is
//! re-synthesized from a different stream, occasionally flipping its
//! compressibility class. This keeps metadata *mostly* clean — matching
//! the paper's Fig. 15 observation — while still exercising the dirty
//! paths.

use attache_compress::Block;
use attache_core::fasthash::FastMap;
use attache_workloads::{DataProfile, DataSynthesizer, Profile};

/// One core's region of physical memory.
#[derive(Debug, Clone)]
struct Region {
    base: u64,
    lines: u64,
    data: DataProfile,
}

/// The functional backend.
#[derive(Debug)]
pub struct MemoryBackend {
    synth: DataSynthesizer,
    regions: Vec<Region>,
    versions: FastMap<u64, u16>,
    occupied_lines: u64,
    metadata_base: u64,
    ra_base: u64,
}

impl MemoryBackend {
    /// Lays out one region per profile (in order, core 0 first).
    pub fn new(profiles: &[Profile], seed: u64) -> Self {
        let mut regions = Vec::with_capacity(profiles.len());
        let mut base = 0u64;
        for p in profiles {
            regions.push(Region {
                base,
                lines: p.footprint_lines,
                data: p.data,
            });
            base += p.footprint_lines;
        }
        let occupied = base;
        // Reserved regions above the workload span, row-aligned.
        let metadata_base = occupied.div_ceil(128) * 128;
        let metadata_lines = occupied / 128 + 1;
        let ra_base = (metadata_base + metadata_lines).div_ceil(128) * 128;
        Self {
            synth: DataSynthesizer::new(seed),
            regions,
            versions: FastMap::default(),
            occupied_lines: occupied,
            metadata_base,
            ra_base,
        }
    }

    /// Total workload-occupied lines (used to size GI regions).
    pub fn occupied_lines(&self) -> u64 {
        self.occupied_lines
    }

    /// The physical base line of core `i`'s region.
    pub fn core_base(&self, core: usize) -> u64 {
        self.regions[core].base
    }

    /// The physical line address backing the compression metadata of
    /// `line` (one 64-byte metadata block covers 128 data blocks).
    pub fn metadata_line_of(&self, line: u64) -> u64 {
        self.metadata_base + line / 128
    }

    /// The physical line address of the Replacement-Area block holding
    /// `line`'s displaced bit (one block covers 512 data blocks).
    pub fn ra_line_of(&self, line: u64) -> u64 {
        self.ra_base + line / 512
    }

    fn region_of(&self, line: u64) -> &Region {
        self.regions
            .iter()
            .find(|r| line >= r.base && line < r.base + r.lines)
            .expect("line outside all workload regions")
    }

    fn salted_addr(&self, line: u64) -> u64 {
        let version = self.versions.get(&line).copied().unwrap_or(0);
        // Class changes only every 16 stores: compressibility rarely flips.
        line ^ ((version as u64 / 16) << 41)
    }

    /// The current contents of `line`.
    pub fn content(&self, line: u64) -> Block {
        let region = self.region_of(line);
        self.synth.block_for(&region.data, self.salted_addr(line))
    }

    /// The boot-time (pristine) contents of `line`, before any stores.
    pub fn pristine_content(&self, line: u64) -> Block {
        let region = self.region_of(line);
        self.synth.block_for(&region.data, line)
    }

    /// Records a store to `line`; the next [`content`](Self::content) may
    /// differ.
    pub fn record_store(&mut self, line: u64) {
        *self.versions.entry(line).or_insert(0) += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiles() -> Vec<Profile> {
        vec![Profile::stream(), Profile::rand()]
    }

    #[test]
    fn regions_are_packed_contiguously() {
        let b = MemoryBackend::new(&profiles(), 1);
        assert_eq!(b.core_base(0), 0);
        assert_eq!(b.core_base(1), Profile::stream().footprint_lines);
        assert_eq!(
            b.occupied_lines(),
            Profile::stream().footprint_lines + Profile::rand().footprint_lines
        );
    }

    #[test]
    fn reserved_regions_sit_above_workloads() {
        let b = MemoryBackend::new(&profiles(), 1);
        assert!(b.metadata_line_of(0) >= b.occupied_lines());
        assert!(b.ra_line_of(0) > b.metadata_line_of(b.occupied_lines() - 1));
    }

    #[test]
    fn contents_are_stable_until_stored() {
        let mut b = MemoryBackend::new(&profiles(), 2);
        let before = b.content(100);
        assert_eq!(b.content(100), before);
        // 16 stores guarantee a salt change.
        for _ in 0..16 {
            b.record_store(100);
        }
        assert_ne!(b.content(100), before);
    }

    #[test]
    fn different_regions_use_their_own_profiles() {
        let b = MemoryBackend::new(&profiles(), 3);
        let engine = attache_compress::CompressionEngine::new();
        // Region 1 is RAND: incompressible.
        let base = b.core_base(1);
        let comp = (0..500)
            .filter(|i| engine.fits_subrank(&b.content(base + i)))
            .count();
        assert!(comp < 20, "RAND region compressed {comp}/500");
    }

    #[test]
    #[should_panic(expected = "outside all workload regions")]
    fn out_of_region_access_panics() {
        let b = MemoryBackend::new(&profiles(), 4);
        let _ = b.content(b.occupied_lines() + 10_000_000);
    }
}
