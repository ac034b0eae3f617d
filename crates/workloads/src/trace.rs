//! Trace generation: turns a [`Profile`] into the
//! instruction-annotated memory-access stream the core model consumes.
//!
//! The format follows the USIMM/Ariel style: each event carries the number
//! of non-memory instructions preceding one memory access. The addresses
//! are line offsets within the workload's private footprint; the simulator
//! relocates them into the shared physical space.

use crate::access::AccessGen;
use crate::profiles::Profile;

/// One trace record: `gap_instructions` CPU instructions, then a memory
/// access to `line_offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Non-memory instructions retired before this access.
    pub gap_instructions: u32,
    /// Line offset within the workload footprint.
    pub line_offset: u64,
    /// Whether this access is a store.
    pub is_write: bool,
}

/// A per-core trace generator.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    access: AccessGen,
    instructions_per_access: f64,
    write_fraction: f64,
    rng: u64,
}

impl TraceGenerator {
    /// Creates a generator for `profile` seeded by `seed`.
    pub fn new(profile: &Profile, seed: u64) -> Self {
        Self {
            access: AccessGen::new(profile.pattern, profile.footprint_lines, seed ^ 0x1111),
            instructions_per_access: profile.instructions_per_access,
            write_fraction: profile.write_fraction,
            rng: (seed ^ 0x2222) | 1,
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

    /// Produces the next trace event.
    pub fn next_event(&mut self) -> TraceEvent {
        // Gap drawn uniformly in [0.5, 1.5) x mean: bursty enough to create
        // overlapping misses, stable enough to keep the configured MPKI.
        let mean = self.instructions_per_access;
        let gap = (mean * (0.5 + self.next_unit())).round().max(0.0) as u32;
        let line_offset = self.access.next_line();
        let is_write = self.next_unit() < self.write_fraction;
        TraceEvent {
            gap_instructions: gap,
            line_offset,
            is_write,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_mean_tracks_profile() {
        let p = Profile::stream();
        let mut gen = TraceGenerator::new(&p, 1);
        let n = 20_000;
        let total: u64 = (0..n)
            .map(|_| gen.next_event().gap_instructions as u64)
            .sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - p.instructions_per_access).abs() < 1.0,
            "mean gap {mean} vs {}",
            p.instructions_per_access
        );
    }

    #[test]
    fn write_fraction_tracks_profile() {
        let p = Profile::rand();
        let mut gen = TraceGenerator::new(&p, 2);
        let n = 20_000;
        let writes = (0..n).filter(|_| gen.next_event().is_write).count();
        let frac = writes as f64 / n as f64;
        assert!((frac - p.write_fraction).abs() < 0.02, "write frac {frac}");
    }

    #[test]
    fn offsets_respect_footprint() {
        let p = Profile::rand();
        let mut gen = TraceGenerator::new(&p, 3);
        for _ in 0..10_000 {
            assert!(gen.next_event().line_offset < p.footprint_lines);
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let p = Profile::stream();
        let mut a = TraceGenerator::new(&p, 7);
        let mut b = TraceGenerator::new(&p, 7);
        for _ in 0..100 {
            assert_eq!(a.next_event(), b.next_event());
        }
        let mut c = TraceGenerator::new(&p, 8);
        let differs = (0..100).any(|_| a.next_event() != c.next_event());
        assert!(differs);
    }
}
