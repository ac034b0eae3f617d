//! The deterministic case generator shared by every property suite.
//!
//! [`Gen`] is a splitmix64 stream with convenience samplers. The
//! constructor and step constants are **frozen**: the four per-crate
//! harnesses this crate replaced all used exactly this stream, and their
//! recorded failing-case indices (and the corpus under `tests/corpus/`)
//! only reproduce if the stream never changes. The pinning tests at the
//! bottom of this module fail loudly on any drift.

/// One step of the splitmix64 output function applied to `x`.
///
/// This is the *stateless* form used by tests that derive several
/// independent values from one seed (`r1 = splitmix64(r0)`, ...).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform f64 in `[0, 1)` from the top 53 bits of `x`.
pub fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// FNV-1a over `bytes`: the stable 64-bit content hash used for cache
/// file names and corpus keys.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Deterministic case generator (splitmix64).
///
/// `Gen::new(seed)` seeds a stream; each sampler below consumes a fixed
/// number of `next_u64` draws, so a test that iterates `case` times can
/// reproduce case *k* by replaying the first *k* iterations.
#[derive(Debug, Clone)]
pub struct Gen(u64);

impl Gen {
    /// Seeds the stream. The mixing here (golden-ratio multiply plus a
    /// fixed XOR) keeps small consecutive seeds from producing
    /// correlated streams.
    pub fn new(seed: u64) -> Self {
        Gen(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0123_4567_89AB_CDEF)
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n`. (Modulo bias is irrelevant at test scale
    /// and keeping the draw count at exactly one preserves old streams.)
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        unit(self.next_u64())
    }

    /// A vector of `min..=max` values, each uniform in `0..bound`.
    pub fn vec(&mut self, min: usize, max: usize, bound: u64) -> Vec<u64> {
        let len = min + self.below((max - min) as u64 + 1) as usize;
        (0..len).map(|_| self.below(bound)).collect()
    }

    /// A fully random (usually incompressible) 64-byte block.
    pub fn block(&mut self) -> [u8; 64] {
        let mut b = [0u8; 64];
        for chunk in b.chunks_exact_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        b
    }

    /// Structured blocks: more likely to be compressible, exercising all
    /// encodings rather than just the uncompressed path. (The historical
    /// compress-crate generator: ±300 deltas, four layouts.)
    pub fn structured_block(&mut self) -> [u8; 64] {
        let base = self.next_u64();
        let deltas: Vec<i64> = (0..8)
            .map(|_| (self.next_u64() % 600) as i64 - 300)
            .collect();
        let kind = self.next_u64() % 4;
        let mut b = [0u8; 64];
        match kind {
            0 => {
                // u64 base + small deltas
                for (chunk, d) in b.chunks_exact_mut(8).zip(&deltas) {
                    chunk.copy_from_slice(&(base.wrapping_add(*d as u64)).to_le_bytes());
                }
            }
            1 => {
                // small u32 values
                for (i, chunk) in b.chunks_exact_mut(4).enumerate() {
                    let v = (deltas[i % 8] & 0xFF) as u32;
                    chunk.copy_from_slice(&v.to_le_bytes());
                }
            }
            2 => {
                // repeated 8B value
                for chunk in b.chunks_exact_mut(8) {
                    chunk.copy_from_slice(&base.to_le_bytes());
                }
            }
            _ => {
                // sparse: mostly zero with a few words set
                for (i, d) in deltas.iter().enumerate() {
                    let w = (*d as u32).to_le_bytes();
                    b[i * 8..i * 8 + 4].copy_from_slice(&w);
                }
            }
        }
        b
    }

    /// Blocks biased towards compressibility so both BLEM paths get
    /// exercised. (The historical core-crate generator: draw order is
    /// base, kind, deltas — distinct from [`Gen::structured_block`].)
    pub fn biased_block(&mut self) -> [u8; 64] {
        let base = self.next_u64();
        let kind = self.next_u64() % 4;
        let deltas: Vec<i64> = (0..8)
            .map(|_| (self.next_u64() % 200) as i64 - 100)
            .collect();
        let mut b = [0u8; 64];
        match kind {
            0 => {
                for (c, d) in b.chunks_exact_mut(8).zip(&deltas) {
                    c.copy_from_slice(&(base.wrapping_add(*d as u64)).to_le_bytes());
                }
            }
            1 => {
                for (i, c) in b.chunks_exact_mut(4).enumerate() {
                    c.copy_from_slice(&((deltas[i % 8] & 0x3F) as u32).to_le_bytes());
                }
            }
            2 => { /* zeros */ }
            _ => {
                let mut s = base | 1;
                for byte in b.iter_mut() {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    *byte = (s >> 33) as u8;
                }
            }
        }
        b
    }
}

/// A deterministic incompressible 64-byte block derived from `seed` (a
/// xorshift byte stream — dense enough that neither BDI nor FPC fit it in
/// a sub-rank). Shared by collision-forcing tests.
pub fn incompressible_block(seed: u64) -> [u8; 64] {
    let mut b = [0u8; 64];
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for byte in b.iter_mut() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        *byte = (s >> 33) as u8;
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Freezes the generator stream. These literals were produced by the
    /// original per-crate harnesses; any drift here breaks every recorded
    /// failing-case index and corpus entry, so this test must never be
    /// "fixed" by updating the constants.
    #[test]
    fn stream_is_pinned_forever() {
        let mut g = Gen::new(0);
        assert_eq!(g.next_u64(), 0x157a_3807_a48f_aa9d);
        assert_eq!(g.next_u64(), 0xd573_529b_34a1_d093);
        let mut g = Gen::new(10);
        assert_eq!(g.next_u64(), 0x3fdd_0641_9134_ed69);
        assert_eq!(g.next_u64(), 0x3352_1305_b042_863f);
        let mut g = Gen::new(42);
        assert_eq!(g.next_u64(), 0x58a2_4b50_e9ce_8747);
        assert_eq!(g.next_u64(), 0x5751_cf2a_097b_1e68);
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
        assert_eq!(fnv1a64(b"attache"), 0x168c_8fdb_cbf9_1813);
    }

    #[test]
    fn below_consumes_exactly_one_draw() {
        let mut a = Gen::new(7);
        let mut b = Gen::new(7);
        let _ = a.below(3);
        let _ = b.next_u64();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn unit_is_in_range() {
        let mut g = Gen::new(99);
        for _ in 0..1000 {
            let u = g.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn vec_respects_bounds() {
        let mut g = Gen::new(5);
        for _ in 0..200 {
            let v = g.vec(2, 40, 64);
            assert!((2..=40).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 64));
        }
    }

    #[test]
    fn incompressible_block_is_dense() {
        // Not all-zero, not a repeated word: the xorshift stream must
        // produce at least 32 distinct byte values.
        let b = incompressible_block(3);
        let distinct: std::collections::HashSet<u8> = b.iter().copied().collect();
        assert!(
            distinct.len() >= 32,
            "only {} distinct bytes",
            distinct.len()
        );
    }
}
