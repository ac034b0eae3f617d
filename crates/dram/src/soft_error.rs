//! A seeded device-level soft-error process: the raw bit-flip source the
//! ECC layer (see [`crate::ecc`]) exists to absorb.
//!
//! Two error populations, both deterministic:
//!
//! * **Transient flips** (cosmic-ray style single-event upsets): sampled
//!   at *touch* time — every read or scrub of a line advances a global
//!   touch counter, and whether that touch deposits a flip (and where)
//!   is a pure function of `(seed, line, touch ordinal)`. Because both
//!   engines and all backends replay the identical touch sequence, the error process is bit-identical everywhere the
//!   request stream is.
//! * **Sticky cells** (weak/stuck cells): a pure function of
//!   `(seed, line)` with rate one-eighth of the transient rate. A sticky
//!   cell re-asserts its flip after every rewrite of the line — the
//!   worst-case reading of a stuck-at cell — so only correction
//!   *bandwidth* (scrub, ECC) keeps it in check, never a one-shot heal.
//!
//! Rates are expressed in **ppm of line-touches** (knob `ATTACHE_BER`):
//! a rate of 500 means one transient flip per ~2000 touched lines. Flip
//! positions cover the full 576-bit protected image — 512 data bits plus
//! 64 check bits — encoded as `word * 72 + bit` with bits `0..64` the
//! data word and `64..72` its check byte, matching the codec layout.

/// Bits in one protected line image (8 words × (64 data + 8 check)).
pub const LINE_BITS: u32 = 576;

/// Bits per protected word (64 data + 8 check).
pub const WORD_BITS: u32 = 72;

/// A deterministic soft-error source (see module docs).
#[derive(Debug, Clone)]
pub struct SoftErrorProcess {
    seed: u64,
    rate_ppm: u64,
    touches: u64,
}

/// splitmix64 finalizer — the same mixer the testkit RNG builds on.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SoftErrorProcess {
    /// A process injecting `rate_ppm` transient flips per million
    /// line-touches (and sticky cells at one-eighth that rate).
    pub fn new(seed: u64, rate_ppm: u64) -> Self {
        Self {
            seed: mix(seed ^ 0x50F7_E44C_0DE0_5EED),
            rate_ppm,
            touches: 0,
        }
    }

    /// The configured transient-flip rate in ppm of line-touches.
    pub fn rate_ppm(&self) -> u64 {
        self.rate_ppm
    }

    /// Line-touches sampled so far.
    pub fn touches(&self) -> u64 {
        self.touches
    }

    /// Samples one touch of `line`: advances the touch counter and
    /// returns the bit position (`word * 72 + bit`) of a freshly
    /// deposited transient flip, if this touch deposits one.
    pub fn touch(&mut self, line: u64) -> Option<u16> {
        let h = mix(self.seed ^ mix(line) ^ self.touches.wrapping_mul(0xA24B_AED4_963E_E407));
        self.touches += 1;
        if h % 1_000_000 < self.rate_ppm {
            Some(((h >> 32) % u64::from(LINE_BITS)) as u16)
        } else {
            None
        }
    }

    /// The line's sticky cell, if it has one: a pure function of
    /// `(seed, line)`, stable across the whole run. The returned bit is
    /// flipped relative to whatever was last written.
    pub fn sticky(&self, line: u64) -> Option<u16> {
        let h = mix(self.seed ^ 0x57_1C4B ^ mix(line.wrapping_mul(0x9E6C_63D0_985B_49C5)));
        if h % 8_000_000 < self.rate_ppm {
            Some(((h >> 32) % u64::from(LINE_BITS)) as u16)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seeds_replay_identical_flip_sequences() {
        let mut a = SoftErrorProcess::new(42, 100_000);
        let mut b = SoftErrorProcess::new(42, 100_000);
        for t in 0..5_000u64 {
            let line = (t * 37) % 512;
            assert_eq!(a.touch(line), b.touch(line), "touch {t}");
        }
        assert_eq!(a.touches(), 5_000);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SoftErrorProcess::new(1, 500_000);
        let mut b = SoftErrorProcess::new(2, 500_000);
        let hits_a: Vec<_> = (0..2_000u64).map(|t| a.touch(t % 64)).collect();
        let hits_b: Vec<_> = (0..2_000u64).map(|t| b.touch(t % 64)).collect();
        assert_ne!(hits_a, hits_b);
    }

    #[test]
    fn zero_rate_is_silent_and_full_rate_always_fires() {
        let mut quiet = SoftErrorProcess::new(7, 0);
        let mut loud = SoftErrorProcess::new(7, 1_000_000);
        for t in 0..1_000u64 {
            assert_eq!(quiet.touch(t), None);
            let bit = loud.touch(t).expect("rate 1e6 ppm fires every touch");
            assert!(u32::from(bit) < LINE_BITS);
        }
    }

    #[test]
    fn flip_rate_tracks_the_ppm_knob() {
        let mut p = SoftErrorProcess::new(99, 100_000); // 10% of touches
        let n = 20_000u64;
        let hits = (0..n).filter(|&t| p.touch(t % 1024).is_some()).count();
        let rate = hits as f64 / n as f64;
        assert!((0.08..0.12).contains(&rate), "observed {rate}");
    }

    #[test]
    fn sticky_cells_are_rarer_stable_and_seed_dependent() {
        let p = SoftErrorProcess::new(5, 800_000); // sticky rate 10%
        let stickies = (0..10_000u64).filter(|&l| p.sticky(l).is_some()).count();
        let rate = stickies as f64 / 10_000.0;
        assert!((0.08..0.12).contains(&rate), "observed {rate}");
        for line in 0..512 {
            assert_eq!(p.sticky(line), p.sticky(line), "pure function of line");
            if let Some(bit) = p.sticky(line) {
                assert!(u32::from(bit) < LINE_BITS);
            }
        }
        let q = SoftErrorProcess::new(6, 800_000);
        let map_p: Vec<_> = (0..2_000u64).map(|l| p.sticky(l)).collect();
        let map_q: Vec<_> = (0..2_000u64).map(|l| q.sticky(l)).collect();
        assert_ne!(map_p, map_q);
    }
}
