//! CRAM-style implicit compression markers (Young/Kariyappa/Qureshi).
//!
//! Where Attaché's BLEM header carries a boot-time CID register that the
//! controller *compares* against, CRAM removes explicit metadata entirely:
//! a compressed line simply *begins with* a well-known 16-bit **marker
//! word**, and anything else is an uncompressed line. The residual problem
//! is the incompressible line whose natural content happens to start with
//! the marker — CRAM (following Touché's escape encoding) rewrites such a
//! line to start with a distinct **escape word** and parks the displaced
//! bytes in an exception region, paying extra traffic only on that rare
//! collision.
//!
//! This module is the pure encoding half: marker derivation, the
//! algorithm-selector bit, and the three-way classification a controller
//! performs on the first word of every read. The stateful engine that
//! owns the exception store lives in `attache-core::cram`.

use crate::Algorithm;

/// The three things the first 16-bit word of a stored line can mean under
/// the CRAM encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkerClass {
    /// The word is the marker: a compressed payload follows, produced by
    /// the carried algorithm.
    Compressed(Algorithm),
    /// The word is the escape: an uncompressed line whose natural first
    /// two bytes collided with the marker and were parked in the
    /// exception region.
    Escape,
    /// Any other word: an uncompressed line stored verbatim.
    Plain,
}

/// The boot-time marker/escape word pair.
///
/// The marker's least-significant bit is reserved as the BDI/FPC
/// selector (mirroring the BLEM header's info bit), so a marker "match"
/// ignores bit 0. The escape word is the marker with the top bit
/// flipped — distinct from both marker encodings by construction.
///
/// # Example
///
/// ```
/// use attache_compress::marker::{MarkerClass, MarkerCodec};
/// use attache_compress::Algorithm;
///
/// let codec = MarkerCodec::from_seed(42);
/// let word = codec.encode(Algorithm::Fpc);
/// assert_eq!(codec.classify(word), MarkerClass::Compressed(Algorithm::Fpc));
/// assert_eq!(codec.classify(codec.escape_word()), MarkerClass::Escape);
/// assert!(codec.collides(word) && codec.collides(codec.escape_word()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkerCodec {
    /// The marker with bit 0 (the algorithm selector) cleared.
    marker_base: u16,
}

impl MarkerCodec {
    /// Draws the marker word from `seed` (the "chosen randomly at
    /// boot-time" step, made deterministic for reproducibility — the
    /// same convention as the BLEM CID register).
    pub fn from_seed(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // A different slice of the mix than the CID draw, bit 0 cleared
        // for the algorithm selector.
        Self {
            marker_base: (z >> 23) as u16 & !1,
        }
    }

    /// Creates a codec with an explicit marker word (tests,
    /// cross-validation). Bit 0 is ignored.
    pub fn from_value(marker: u16) -> Self {
        Self {
            marker_base: marker & !1,
        }
    }

    /// The marker word with the algorithm selector cleared.
    pub fn marker_word(&self) -> u16 {
        self.marker_base
    }

    /// The escape word that replaces a colliding line's first two bytes.
    pub fn escape_word(&self) -> u16 {
        self.marker_base ^ 0x8000
    }

    /// Builds the stored first word for a compressed line.
    pub fn encode(&self, algorithm: Algorithm) -> u16 {
        let selector: u16 = match algorithm {
            Algorithm::Bdi => 0,
            Algorithm::Fpc => 1,
        };
        self.marker_base | selector
    }

    /// Classifies the first word of a stored line exactly as the
    /// controller does after the optimistic half read returns.
    pub fn classify(&self, word: u16) -> MarkerClass {
        if word & !1 == self.marker_base {
            let algorithm = if word & 1 == 0 {
                Algorithm::Bdi
            } else {
                Algorithm::Fpc
            };
            MarkerClass::Compressed(algorithm)
        } else if word == self.escape_word() {
            MarkerClass::Escape
        } else {
            MarkerClass::Plain
        }
    }

    /// Whether a verbatim uncompressed line beginning with `word` would
    /// be misclassified and therefore needs the escape encoding: true
    /// for both marker encodings *and* the escape word itself (which
    /// must stay reserved for parked lines).
    pub fn collides(&self, word: u16) -> bool {
        !matches!(self.classify(word), MarkerClass::Plain)
    }

    /// The probability that a random 16-bit first word collides: three
    /// reserved words (two marker encodings + the escape) out of 2^16.
    pub fn collision_probability(&self) -> f64 {
        3.0 / 65536.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_classify_roundtrip() {
        for seed in 0..64u64 {
            let codec = MarkerCodec::from_seed(seed);
            for alg in [Algorithm::Bdi, Algorithm::Fpc] {
                assert_eq!(
                    codec.classify(codec.encode(alg)),
                    MarkerClass::Compressed(alg)
                );
            }
            assert_eq!(codec.classify(codec.escape_word()), MarkerClass::Escape);
        }
    }

    #[test]
    fn escape_is_distinct_from_both_marker_encodings() {
        for seed in 0..256u64 {
            let codec = MarkerCodec::from_seed(seed);
            assert_ne!(codec.escape_word(), codec.encode(Algorithm::Bdi));
            assert_ne!(codec.escape_word(), codec.encode(Algorithm::Fpc));
            assert_ne!(codec.escape_word() & !1, codec.marker_word());
        }
    }

    #[test]
    fn exactly_three_words_collide() {
        let codec = MarkerCodec::from_value(0xC0DE);
        let colliding = (0..=u16::MAX).filter(|&w| codec.collides(w)).count();
        assert_eq!(colliding, 3);
    }

    #[test]
    fn plain_words_classify_plain() {
        let codec = MarkerCodec::from_value(0x1234 & !1);
        for w in [0u16, 0xFFFF, 0x1236, 0x1230] {
            assert_eq!(codec.classify(w), MarkerClass::Plain);
            assert!(!codec.collides(w));
        }
    }

    #[test]
    fn marker_draw_is_deterministic_and_seed_sensitive() {
        assert_eq!(
            MarkerCodec::from_seed(42).marker_word(),
            MarkerCodec::from_seed(42).marker_word()
        );
        let distinct: std::collections::HashSet<u16> = (0..128u64)
            .map(|s| MarkerCodec::from_seed(s).marker_word())
            .collect();
        assert!(distinct.len() > 100, "seed draw should spread markers");
    }
}
