//! Base-Delta-Immediate (BDI) compression.
//!
//! BDI (Pekhimenko et al., PACT 2012) exploits the low *dynamic range* of
//! values within a cacheline: it stores one base value plus a narrow delta
//! per element. Following the original proposal, every element may
//! alternatively take its delta from an implicit second base of zero, which
//! captures mixed pointer/small-integer lines. The hardware implementation
//! is a row of parallel subtractors, which is why the Attaché paper models
//! BDI as a single-cycle engine.
//!
//! Encodings implemented (element base size Δ delta size, in bytes):
//! zeros, repeated 8-byte value, 8Δ1, 8Δ2, 8Δ4, 4Δ1, 4Δ2, 2Δ1 — the full
//! set from the PACT 2012 paper.
//!
//! Two implementations live here. The hot path is a lane-wise kernel
//! ([`BdiAnalysis`]): the block is loaded once as eight little-endian u64
//! lanes and *all* candidate delta widths are tested in that single pass
//! with sign-extension masks (SWAR for the sub-lane 4- and 2-byte
//! geometries), mirroring the parallel subtractor row in hardware. The
//! original element-at-a-time kernels are kept verbatim in [`scalar`] as
//! the reference implementation; the `scalar_vs_vector` property suite
//! pins the two bit-identical.

use crate::{Algorithm, Block, Compressed, Compressor, BLOCK_SIZE};

/// The eight BDI encodings, ordered by the tag stored in the payload's first
/// byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// The block is entirely zero bytes.
    Zeros,
    /// The block is one 8-byte value repeated eight times.
    Repeated,
    /// 8-byte elements, 1-byte deltas.
    B8D1,
    /// 8-byte elements, 2-byte deltas.
    B8D2,
    /// 8-byte elements, 4-byte deltas.
    B8D4,
    /// 4-byte elements, 1-byte deltas.
    B4D1,
    /// 4-byte elements, 2-byte deltas.
    B4D2,
    /// 2-byte elements, 1-byte deltas.
    B2D1,
}

impl Encoding {
    /// All base-delta encodings (excluding the `Zeros`/`Repeated` specials),
    /// in the order they are attempted (smallest resulting size first).
    pub const BASE_DELTA: [Encoding; 6] = [
        Encoding::B8D1,
        Encoding::B4D1,
        Encoding::B8D2,
        Encoding::B2D1,
        Encoding::B4D2,
        Encoding::B8D4,
    ];

    fn tag(self) -> u8 {
        match self {
            Encoding::Zeros => 0,
            Encoding::Repeated => 1,
            Encoding::B8D1 => 2,
            Encoding::B8D2 => 3,
            Encoding::B8D4 => 4,
            Encoding::B4D1 => 5,
            Encoding::B4D2 => 6,
            Encoding::B2D1 => 7,
        }
    }

    fn from_tag(tag: u8) -> Option<Encoding> {
        Some(match tag {
            0 => Encoding::Zeros,
            1 => Encoding::Repeated,
            2 => Encoding::B8D1,
            3 => Encoding::B8D2,
            4 => Encoding::B8D4,
            5 => Encoding::B4D1,
            6 => Encoding::B4D2,
            7 => Encoding::B2D1,
            _ => return None,
        })
    }

    /// `(base_size, delta_size)` in bytes for base-delta encodings.
    fn geometry(self) -> Option<(usize, usize)> {
        match self {
            Encoding::Zeros | Encoding::Repeated => None,
            Encoding::B8D1 => Some((8, 1)),
            Encoding::B8D2 => Some((8, 2)),
            Encoding::B8D4 => Some((8, 4)),
            Encoding::B4D1 => Some((4, 1)),
            Encoding::B4D2 => Some((4, 2)),
            Encoding::B2D1 => Some((2, 1)),
        }
    }

    /// The compressed size in bytes this encoding yields for a 64-byte block
    /// (tag byte + zero-base bitmask + base + deltas).
    pub fn compressed_size(self) -> usize {
        match self.geometry() {
            None => match self {
                Encoding::Zeros => 1,
                _ => 1 + 8,
            },
            Some((base, delta)) => {
                let n = BLOCK_SIZE / base;
                1 + n.div_ceil(8) + base + n * delta
            }
        }
    }
}

/// The Base-Delta-Immediate compressor.
///
/// # Example
///
/// ```
/// use attache_compress::bdi::Bdi;
/// use attache_compress::Compressor;
///
/// // A line of closely-spaced 64-bit values compresses well under BDI.
/// let mut block = [0u8; 64];
/// for (i, chunk) in block.chunks_exact_mut(8).enumerate() {
///     chunk.copy_from_slice(&(0x1000_0000u64 + i as u64 * 8).to_le_bytes());
/// }
/// let image = Bdi::new().compress(&block).expect("compressible");
/// assert!(image.size() < 64);
/// assert_eq!(Bdi::new().decompress(&image), block);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bdi;

impl Bdi {
    /// Creates a BDI compressor.
    pub fn new() -> Self {
        Bdi
    }

    /// Bounds-checked decompression: returns `None` instead of panicking
    /// when `image` is not a well-formed BDI image (wrong algorithm, an
    /// unknown tag byte, or a payload shorter than the encoding's fixed
    /// size). The fault-injection layer stores deliberately corrupted
    /// images, so the decode path must be total over arbitrary bytes.
    pub fn try_decompress(&self, image: &Compressed) -> Option<Block> {
        if image.algorithm() != Algorithm::Bdi {
            return None;
        }
        let payload = image.payload();
        let enc = Encoding::from_tag(*payload.first()?)?;
        if payload.len() < enc.compressed_size() {
            return None;
        }
        let mut lanes = [0u64; LANES];
        match enc {
            Encoding::Zeros => {}
            Encoding::Repeated => {
                let v = load_le(payload, 1, 8);
                lanes = [v; LANES];
            }
            _ => {
                let (base_size, delta_size) = enc.geometry().expect("base-delta geometry");
                let n = BLOCK_SIZE / base_size;
                let mask_len = n.div_ceil(8);
                let use_base = load_le(payload, 1, mask_len);
                let base = sign_extend(
                    load_le(payload, 1 + mask_len, base_size),
                    base_size as u32 * 8,
                );
                let deltas_off = 1 + mask_len + base_size;
                let elem_bits = base_size as u32 * 8;
                let elem_mask = if elem_bits == 64 {
                    u64::MAX
                } else {
                    (1u64 << elem_bits) - 1
                };
                for i in 0..n {
                    let raw = load_le(payload, deltas_off + i * delta_size, delta_size);
                    let delta = sign_extend(raw, delta_size as u32 * 8);
                    // Select the base contribution without a branch.
                    let sel = (use_base >> i) & 1;
                    let value = delta.wrapping_add(base.wrapping_mul(sel as i64));
                    let lane = (i * base_size) / 8;
                    let shift = ((i * base_size) % 8) as u32 * 8;
                    lanes[lane] |= ((value as u64) & elem_mask) << shift;
                }
            }
        }
        Some(lanes_to_block(&lanes))
    }

    /// Returns the best (smallest) encoding applicable to `block`, if any.
    pub fn best_encoding(block: &Block) -> Option<Encoding> {
        BdiAnalysis::new(block).best()
    }
}

impl Compressor for Bdi {
    fn name(&self) -> &'static str {
        "BDI"
    }

    fn compress(&self, block: &Block) -> Option<Compressed> {
        let analysis = BdiAnalysis::new(block);
        let enc = analysis.best()?;
        Some(analysis.emit(enc))
    }

    fn decompress(&self, image: &Compressed) -> Block {
        assert_eq!(image.algorithm(), Algorithm::Bdi, "not a BDI image");
        self.try_decompress(image).expect("corrupt BDI image")
    }
}

const LANES: usize = BLOCK_SIZE / 8;

/// Loads `size <= 8` little-endian bytes at `off` into a u64 (zero-padded).
#[inline]
fn load_le(bytes: &[u8], off: usize, size: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf[..size].copy_from_slice(&bytes[off..off + size]);
    u64::from_le_bytes(buf)
}

/// Sign-extends the low `bits` of `raw` to i64.
#[inline]
fn sign_extend(raw: u64, bits: u32) -> i64 {
    let shift = 64 - bits;
    ((raw << shift) as i64) >> shift
}

/// `true` iff `v` survives a round-trip through a `bits`-bit signed field.
#[inline]
fn fits(v: i64, bits: u32) -> bool {
    let shift = 64 - bits;
    (v << shift) >> shift == v
}

#[inline]
fn lanes_to_block(lanes: &[u64; LANES]) -> Block {
    let mut block = [0u8; BLOCK_SIZE];
    for (chunk, lane) in block.chunks_exact_mut(8).zip(lanes) {
        chunk.copy_from_slice(&lane.to_le_bytes());
    }
    block
}

/// One-pass lane analysis of a block for every BDI candidate at once.
///
/// The block is loaded as eight u64 lanes; a single sweep computes, per
/// candidate geometry, the bitmask of elements whose value sign-extends
/// from the candidate's delta width (i.e. can take the implicit zero base).
/// Sub-lane geometries are tested with SWAR arithmetic inside each lane.
/// Feasibility of a candidate then only needs the (typically few) elements
/// *outside* its mask: the first becomes the base and the rest must land
/// within the delta width of it — walked mask-guided via `trailing_zeros`.
pub(crate) struct BdiAnalysis {
    lanes: [u64; LANES],
    all_zero: bool,
    repeated: bool,
    /// Zero-base-fit masks, one bit per element: 8 bits for the 8-byte
    /// geometries, 16 for the 4-byte ones, 32 for B2D1.
    m8d1: u32,
    m8d2: u32,
    m8d4: u32,
    m4d1: u32,
    m4d2: u32,
    m2d1: u32,
}

impl BdiAnalysis {
    pub(crate) fn new(block: &Block) -> Self {
        let mut lanes = [0u64; LANES];
        for (lane, chunk) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        let mut or_acc = 0u64;
        let mut repeated = true;
        let (mut m8d1, mut m8d2, mut m8d4) = (0u32, 0u32, 0u32);
        let (mut m4d1, mut m4d2) = (0u32, 0u32);
        let mut m2d1 = 0u32;
        for (k, &lane) in lanes.iter().enumerate() {
            or_acc |= lane;
            repeated &= lane == lanes[0];
            let v = lane as i64;
            m8d1 |= (fits(v, 8) as u32) << k;
            m8d2 |= (fits(v, 16) as u32) << k;
            m8d4 |= (fits(v, 32) as u32) << k;
            let lo = lane as u32 as i32;
            let hi = (lane >> 32) as u32 as i32;
            m4d1 |= ((lo as i64 == lo as i8 as i64) as u32) << (2 * k);
            m4d1 |= ((hi as i64 == hi as i8 as i64) as u32) << (2 * k + 1);
            m4d2 |= ((lo as i64 == lo as i16 as i64) as u32) << (2 * k);
            m4d2 |= ((hi as i64 == hi as i16 as i64) as u32) << (2 * k + 1);
            // SWAR over the four u16 fields: a field sign-extends from 8
            // bits iff its high byte equals the sign fill of its low byte.
            let sign = (lane >> 7) & 0x0001_0001_0001_0001;
            let expect = sign * 0xFF;
            let actual = (lane >> 8) & 0x00FF_00FF_00FF_00FF;
            let diff = expect ^ actual;
            for f in 0..4 {
                m2d1 |= ((((diff >> (16 * f)) & 0xFF) == 0) as u32) << (4 * k + f);
            }
        }
        Self {
            lanes,
            all_zero: or_acc == 0,
            repeated,
            m8d1,
            m8d2,
            m8d4,
            m4d1,
            m4d2,
            m2d1,
        }
    }

    /// The sign-extended element `i` under a `base_size`-byte geometry.
    #[inline]
    fn elem(&self, i: usize, base_size: usize) -> i64 {
        match base_size {
            8 => self.lanes[i] as i64,
            4 => ((self.lanes[i / 2] >> ((i & 1) * 32)) as u32) as i32 as i64,
            _ => ((self.lanes[i / 4] >> ((i & 3) * 16)) as u16) as i16 as i64,
        }
    }

    /// The zero-base-fit mask for a base-delta encoding.
    #[inline]
    fn zero_fit_mask(&self, enc: Encoding) -> u32 {
        match enc {
            Encoding::B8D1 => self.m8d1,
            Encoding::B8D2 => self.m8d2,
            Encoding::B8D4 => self.m8d4,
            Encoding::B4D1 => self.m4d1,
            Encoding::B4D2 => self.m4d2,
            _ => self.m2d1,
        }
    }

    /// Whether `enc` can represent the block: every element outside the
    /// zero-fit mask must sit within the delta width of the first such
    /// element (the explicit base).
    fn feasible(&self, enc: Encoding) -> bool {
        let (base_size, delta_size) = match enc.geometry() {
            Some(g) => g,
            None => return false,
        };
        let n = BLOCK_SIZE / base_size;
        let all = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
        let mut rest = !self.zero_fit_mask(enc) & all;
        if rest == 0 {
            return true;
        }
        let delta_bits = delta_size as u32 * 8;
        let base = self.elem(rest.trailing_zeros() as usize, base_size);
        rest &= rest - 1;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            if !fits(self.elem(i, base_size).wrapping_sub(base), delta_bits) {
                return false;
            }
            rest &= rest - 1;
        }
        true
    }

    /// The best (smallest) encoding for the analyzed block, if any.
    ///
    /// `BASE_DELTA` is ordered by nondecreasing `compressed_size` and the
    /// scalar reference keeps a candidate only on *strict* size improvement,
    /// so "smallest size" is exactly "first feasible in order" — the 39-byte
    /// tie between B2D1 and B4D2 resolves to B2D1 in both formulations.
    pub(crate) fn best(&self) -> Option<Encoding> {
        if self.all_zero {
            return Some(Encoding::Zeros);
        }
        if self.repeated {
            return Some(Encoding::Repeated);
        }
        Encoding::BASE_DELTA.into_iter().find(|&e| self.feasible(e))
    }

    /// Materializes the image for an encoding `best()` declared feasible.
    /// Byte-identical to the scalar emitter: tag, zero-base bitmask
    /// (little-endian), base, then the little-endian deltas.
    pub(crate) fn emit(&self, enc: Encoding) -> Compressed {
        let mut payload = [0u8; BLOCK_SIZE];
        let mut len = 1usize;
        payload[0] = enc.tag();
        match enc {
            Encoding::Zeros => {}
            Encoding::Repeated => {
                payload[1..9].copy_from_slice(&self.lanes[0].to_le_bytes());
                len += 8;
            }
            _ => {
                let (base_size, delta_size) = enc.geometry().expect("base-delta geometry");
                let n = BLOCK_SIZE / base_size;
                let mask_len = n.div_ceil(8);
                let all = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
                let use_base = !self.zero_fit_mask(enc) & all;
                let base = if use_base != 0 {
                    self.elem(use_base.trailing_zeros() as usize, base_size)
                } else {
                    0
                };
                payload[len..len + mask_len].copy_from_slice(&use_base.to_le_bytes()[..mask_len]);
                len += mask_len;
                payload[len..len + base_size].copy_from_slice(&base.to_le_bytes()[..base_size]);
                len += base_size;
                for i in 0..n {
                    let sel = ((use_base >> i) & 1) as i64;
                    let d = self.elem(i, base_size).wrapping_sub(base.wrapping_mul(sel));
                    payload[len..len + delta_size].copy_from_slice(&d.to_le_bytes()[..delta_size]);
                    len += delta_size;
                }
            }
        }
        debug_assert_eq!(len, enc.compressed_size());
        Compressed::from_parts(Algorithm::Bdi, &payload[..len])
    }
}

/// The original element-at-a-time BDI kernels, kept verbatim as the
/// reference implementation. The `scalar_vs_vector` property suite drives
/// these against the lane-wise hot path; simulation code never calls them.
pub mod scalar {
    use super::Encoding;
    use crate::{Algorithm, Block, Compressed, BLOCK_SIZE};

    /// Reference `best_encoding`: tries every candidate and keeps the
    /// strictly smallest feasible one.
    pub fn best_encoding(block: &Block) -> Option<Encoding> {
        if block.iter().all(|&b| b == 0) {
            return Some(Encoding::Zeros);
        }
        if is_repeated(block) {
            return Some(Encoding::Repeated);
        }
        let mut best: Option<Encoding> = None;
        for enc in Encoding::BASE_DELTA {
            if try_base_delta(block, enc).is_some() {
                let better = match best {
                    Some(b) => enc.compressed_size() < b.compressed_size(),
                    None => true,
                };
                if better {
                    best = Some(enc);
                }
            }
        }
        best.filter(|e| e.compressed_size() < BLOCK_SIZE)
    }

    /// Reference compressor: element-at-a-time analysis and emission.
    pub fn compress(block: &Block) -> Option<Compressed> {
        let enc = best_encoding(block)?;
        let mut payload = [0u8; BLOCK_SIZE];
        let mut len = 0usize;
        payload[len] = enc.tag();
        len += 1;
        match enc {
            Encoding::Zeros => {}
            Encoding::Repeated => {
                payload[len..len + 8].copy_from_slice(&block[..8]);
                len += 8;
            }
            _ => {
                let (base_size, delta_size) = enc.geometry().expect("base-delta geometry");
                let n = BLOCK_SIZE / base_size;
                let mask_len = n.div_ceil(8);
                let image = try_base_delta(block, enc).expect("encoding was validated");
                payload[len..len + mask_len].copy_from_slice(&image.mask[..mask_len]);
                len += mask_len;
                payload[len..len + base_size]
                    .copy_from_slice(&image.base.to_le_bytes()[..base_size]);
                len += base_size;
                for d in &image.deltas[..image.n] {
                    payload[len..len + delta_size].copy_from_slice(&d.to_le_bytes()[..delta_size]);
                    len += delta_size;
                }
            }
        }
        debug_assert_eq!(len, enc.compressed_size());
        Some(Compressed::from_parts(Algorithm::Bdi, &payload[..len]))
    }

    /// Reference bounds-checked decompression.
    pub fn try_decompress(image: &Compressed) -> Option<Block> {
        if image.algorithm() != Algorithm::Bdi {
            return None;
        }
        let payload = image.payload();
        let enc = Encoding::from_tag(*payload.first()?)?;
        if payload.len() < enc.compressed_size() {
            return None;
        }
        let mut block = [0u8; BLOCK_SIZE];
        match enc {
            Encoding::Zeros => {}
            Encoding::Repeated => {
                for chunk in block.chunks_exact_mut(8) {
                    chunk.copy_from_slice(&payload[1..9]);
                }
            }
            _ => {
                let (base_size, delta_size) = enc.geometry().expect("base-delta geometry");
                let n = BLOCK_SIZE / base_size;
                let mask_len = n.div_ceil(8);
                let mask = &payload[1..1 + mask_len];
                let mut buf = [0u8; 8];
                buf[..base_size].copy_from_slice(&payload[1 + mask_len..1 + mask_len + base_size]);
                let shift = 64 - base_size as u32 * 8;
                let base = ((u64::from_le_bytes(buf) << shift) as i64) >> shift;
                let deltas = &payload[1 + mask_len + base_size..];
                for i in 0..n {
                    let mut dbuf = [0u8; 8];
                    dbuf[..delta_size]
                        .copy_from_slice(&deltas[i * delta_size..(i + 1) * delta_size]);
                    let dshift = 64 - delta_size as u32 * 8;
                    let delta = ((u64::from_le_bytes(dbuf) << dshift) as i64) >> dshift;
                    let uses_base = mask[i / 8] & (1 << (i % 8)) != 0;
                    let value = if uses_base {
                        base.wrapping_add(delta)
                    } else {
                        delta
                    };
                    block[i * base_size..(i + 1) * base_size]
                        .copy_from_slice(&value.to_le_bytes()[..base_size]);
                }
            }
        }
        Some(block)
    }

    fn is_repeated(block: &Block) -> bool {
        let first = &block[..8];
        block.chunks_exact(8).all(|c| c == first)
    }

    fn read_elem(block: &[u8], idx: usize, size: usize) -> i64 {
        let mut buf = [0u8; 8];
        buf[..size].copy_from_slice(&block[idx * size..idx * size + size]);
        let raw = u64::from_le_bytes(buf);
        // Sign-extend from `size` bytes.
        let shift = 64 - size as u32 * 8;
        ((raw << shift) as i64) >> shift
    }

    fn delta_fits(delta: i64, delta_size: usize) -> bool {
        let bits = delta_size as u32 * 8;
        let min = -(1i64 << (bits - 1));
        let max = (1i64 << (bits - 1)) - 1;
        (min..=max).contains(&delta)
    }

    /// Fixed inline buffers: the widest geometry (B2D1) has 32 elements, so a
    /// 4-byte mask and 32 deltas always suffice, and building an image costs no
    /// heap allocation.
    struct BaseDeltaImage {
        base: i64,
        mask: [u8; BLOCK_SIZE / 2 / 8],
        deltas: [i64; BLOCK_SIZE / 2],
        n: usize,
    }

    fn try_base_delta(block: &Block, enc: Encoding) -> Option<BaseDeltaImage> {
        let (base_size, delta_size) = enc.geometry()?;
        let n = BLOCK_SIZE / base_size;
        let mut base: Option<i64> = None;
        let mut mask = [0u8; BLOCK_SIZE / 2 / 8];
        let mut deltas = [0i64; BLOCK_SIZE / 2];
        for i in 0..n {
            let v = read_elem(block, i, base_size);
            if delta_fits(v, delta_size) {
                // Delta from the implicit zero base.
                deltas[i] = v;
            } else {
                let b = *base.get_or_insert(v);
                let delta = v.wrapping_sub(b);
                if !delta_fits(delta, delta_size) {
                    return None;
                }
                mask[i / 8] |= 1 << (i % 8);
                deltas[i] = delta;
            }
        }
        Some(BaseDeltaImage {
            base: base.unwrap_or(0),
            mask,
            deltas,
            n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(block: &Block) -> Option<usize> {
        let bdi = Bdi::new();
        let image = bdi.compress(block)?;
        assert_eq!(&bdi.decompress(&image), block, "BDI roundtrip mismatch");
        // The reference kernels must agree byte-for-byte on every vector
        // the unit suite exercises (the property suite widens this).
        assert_eq!(scalar::compress(block).as_ref(), Some(&image));
        assert_eq!(scalar::try_decompress(&image).as_ref(), Some(block));
        Some(image.size())
    }

    #[test]
    fn zeros_compress_to_one_byte() {
        assert_eq!(roundtrip(&[0u8; 64]), Some(1));
    }

    #[test]
    fn repeated_value_compresses_to_nine_bytes() {
        let mut block = [0u8; 64];
        for chunk in block.chunks_exact_mut(8) {
            chunk.copy_from_slice(&0xDEAD_BEEF_CAFE_F00Du64.to_le_bytes());
        }
        assert_eq!(roundtrip(&block), Some(9));
    }

    #[test]
    fn nearby_u64_values_use_b8d1() {
        let mut block = [0u8; 64];
        for (i, chunk) in block.chunks_exact_mut(8).enumerate() {
            chunk.copy_from_slice(&(0x7000_0000_0000u64 + i as u64 * 3).to_le_bytes());
        }
        assert_eq!(Bdi::best_encoding(&block), Some(Encoding::B8D1));
        assert_eq!(roundtrip(&block), Some(Encoding::B8D1.compressed_size()));
    }

    #[test]
    fn small_u32_values_use_zero_base() {
        let mut block = [0u8; 64];
        for (i, chunk) in block.chunks_exact_mut(4).enumerate() {
            chunk.copy_from_slice(&(i as u32 % 100).to_le_bytes());
        }
        assert!(roundtrip(&block).is_some());
    }

    #[test]
    fn mixed_pointers_and_small_ints_compress() {
        // Alternating heap pointers and tiny integers: the classic case that
        // needs both the arbitrary base and the implicit zero base.
        let mut block = [0u8; 64];
        for (i, chunk) in block.chunks_exact_mut(8).enumerate() {
            let v = if i % 2 == 0 {
                0x7FFF_AB00_1200u64 + i as u64 * 16
            } else {
                i as u64
            };
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        assert!(roundtrip(&block).is_some());
    }

    #[test]
    fn random_bytes_do_not_compress() {
        // A fixed high-entropy pattern.
        let mut block = [0u8; 64];
        let mut state = 0x1234_5678_9ABC_DEFFu64;
        for b in block.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (state >> 33) as u8;
        }
        assert_eq!(Bdi::best_encoding(&block), None);
        assert!(Bdi::new().compress(&block).is_none());
        assert_eq!(scalar::best_encoding(&block), None);
    }

    #[test]
    fn negative_deltas_roundtrip() {
        let mut block = [0u8; 64];
        for (i, chunk) in block.chunks_exact_mut(8).enumerate() {
            let v = 0x5000_0000_0000i64 - i as i64 * 7;
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        assert!(roundtrip(&block).is_some());
    }

    #[test]
    fn encoding_sizes_match_pact_formula() {
        assert_eq!(Encoding::B8D1.compressed_size(), 1 + 1 + 8 + 8);
        assert_eq!(Encoding::B8D2.compressed_size(), 1 + 1 + 8 + 16);
        assert_eq!(Encoding::B8D4.compressed_size(), 1 + 1 + 8 + 32);
        assert_eq!(Encoding::B4D1.compressed_size(), 1 + 2 + 4 + 16);
        assert_eq!(Encoding::B4D2.compressed_size(), 1 + 2 + 4 + 32);
        assert_eq!(Encoding::B2D1.compressed_size(), 1 + 4 + 2 + 32);
    }

    #[test]
    fn base_delta_order_is_nondecreasing_size() {
        // `BdiAnalysis::best` relies on this: first-feasible == smallest.
        let sizes: Vec<usize> = Encoding::BASE_DELTA
            .iter()
            .map(|e| e.compressed_size())
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "order {sizes:?}");
    }

    #[test]
    fn compressed_never_reaches_block_size() {
        // B2D1 and B4D2/B8D4 are 39/39/42 bytes: still < 64, all valid.
        for enc in Encoding::BASE_DELTA {
            assert!(enc.compressed_size() < BLOCK_SIZE);
        }
    }

    #[test]
    fn tag_roundtrip() {
        for tag in 0..8 {
            let enc = Encoding::from_tag(tag).unwrap();
            assert_eq!(enc.tag(), tag);
        }
        assert_eq!(Encoding::from_tag(8), None);
    }

    #[test]
    fn boundary_delta_values_roundtrip() {
        // Deltas of exactly i8::MIN / i8::MAX from the base.
        let base = 0x4000_0000_0000u64;
        let mut block = [0u8; 64];
        let vals = [
            base,
            base.wrapping_add(127),
            base.wrapping_sub(128),
            base,
            base.wrapping_add(1),
            base.wrapping_sub(1),
            base.wrapping_add(64),
            base.wrapping_sub(64),
        ];
        for (chunk, v) in block.chunks_exact_mut(8).zip(vals) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        assert_eq!(Bdi::best_encoding(&block), Some(Encoding::B8D1));
        assert!(roundtrip(&block).is_some());
    }

    #[test]
    fn swar_u16_fit_mask_matches_reference() {
        // Every boundary of the "u16 sign-extends from i8" predicate, placed
        // in every field position of a lane.
        let cases: [(u16, bool); 8] = [
            (0x0000, true),
            (0x007F, true),
            (0x0080, false),
            (0xFF80, true),
            (0xFF7F, false),
            (0xFFFF, true),
            (0x7FFF, false),
            (0x8000, false),
        ];
        for f in 0..4 {
            for &(half, expect) in &cases {
                let mut block = [0u8; 64];
                // Make the block non-zero, non-repeated, and put the probe
                // half in field `f` of lane 0.
                block[48] = 0x11;
                block[2 * f..2 * f + 2].copy_from_slice(&half.to_le_bytes());
                let a = BdiAnalysis::new(&block);
                assert_eq!(
                    a.m2d1 & (1 << f) != 0,
                    expect,
                    "half {half:#06x} in field {f}"
                );
            }
        }
    }
}
