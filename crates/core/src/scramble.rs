//! The data Scrambling-Descrambling unit.
//!
//! Memory controllers scramble stored data for reliability and security
//! (§IV-B of the paper): each block is XORed with an address-keyed
//! pseudo-random pad, so even highly regular data (e.g. all zeros) appears
//! random in the array. BLEM inspects the Metadata-Header *after* the
//! scrambler, which is what makes the CID false-positive probability exactly
//! 2^-cid_bits regardless of the application's data patterns (footnote 3).
//!
//! Scrambling is an involution (XOR with the same pad), so
//! [`Scrambler::descramble`] is literally [`Scrambler::scramble`].

use attache_compress::{Block, BLOCK_SIZE};

/// An address-keyed XOR scrambler.
///
/// # Example
///
/// ```
/// use attache_core::scramble::Scrambler;
///
/// let s = Scrambler::new(0xC0FFEE);
/// let data = [7u8; 64];
/// let stored = s.scramble(42, &data);
/// assert_ne!(stored, data, "stored image looks random");
/// assert_eq!(s.descramble(42, &stored), data);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scrambler {
    seed: u64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Scrambler {
    /// Creates a scrambler keyed by a boot-time `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The 64-byte pad for `line_addr`.
    pub fn pad(&self, line_addr: u64) -> Block {
        let mut pad = [0u8; BLOCK_SIZE];
        for (i, chunk) in pad.chunks_exact_mut(8).enumerate() {
            let word = splitmix64(
                self.seed ^ line_addr.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (i as u64) << 56,
            );
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        pad
    }

    /// XORs `data` with the pad for `line_addr`, starting at pad offset 0.
    pub fn scramble(&self, line_addr: u64, data: &Block) -> Block {
        let pad = self.pad(line_addr);
        let mut out = *data;
        for (o, p) in out.iter_mut().zip(pad) {
            *o ^= p;
        }
        out
    }

    /// Inverse of [`scramble`](Scrambler::scramble) (XOR is an involution).
    pub fn descramble(&self, line_addr: u64, stored: &Block) -> Block {
        self.scramble(line_addr, stored)
    }

    /// Scrambles an arbitrary-length prefix slice in place (used for
    /// compressed payloads, which are shorter than a block).
    pub fn scramble_slice(&self, line_addr: u64, data: &mut [u8]) {
        assert!(data.len() <= BLOCK_SIZE, "slice longer than a block");
        let pad = self.pad(line_addr);
        for (o, p) in data.iter_mut().zip(pad) {
            *o ^= p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_identity() {
        let s = Scrambler::new(1234);
        let mut data = [0u8; 64];
        for (i, b) in data.iter_mut().enumerate() {
            *b = i as u8;
        }
        assert_eq!(s.descramble(9, &s.scramble(9, &data)), data);
    }

    #[test]
    fn different_addresses_get_different_pads() {
        let s = Scrambler::new(1);
        assert_ne!(s.pad(0), s.pad(1));
        assert_ne!(s.pad(1), s.pad(2));
    }

    #[test]
    fn different_seeds_get_different_pads() {
        assert_ne!(Scrambler::new(1).pad(5), Scrambler::new(2).pad(5));
    }

    #[test]
    fn scrambled_zeros_look_balanced() {
        // The pad itself should have roughly half ones: check bit balance
        // across many addresses.
        let s = Scrambler::new(77);
        let mut ones = 0u64;
        let mut total = 0u64;
        for addr in 0..512u64 {
            let stored = s.scramble(addr, &[0u8; 64]);
            for b in stored {
                ones += b.count_ones() as u64;
                total += 8;
            }
        }
        let ratio = ones as f64 / total as f64;
        assert!((0.48..0.52).contains(&ratio), "bit balance {ratio}");
    }

    #[test]
    fn slice_scrambling_matches_block_prefix() {
        let s = Scrambler::new(5);
        let data = [0xAB; 64];
        let full = s.scramble(3, &data);
        let mut prefix = [0xAB; 30];
        s.scramble_slice(3, &mut prefix);
        assert_eq!(&full[..30], &prefix[..]);
    }

    #[test]
    #[should_panic(expected = "longer than a block")]
    fn oversized_slice_panics() {
        let s = Scrambler::new(5);
        let mut too_big = [0u8; 65];
        s.scramble_slice(0, &mut too_big);
    }
}
