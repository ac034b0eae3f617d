//! Frequent Pattern Compression (FPC).
//!
//! FPC (Alameldeen & Wood, UW-Madison CS-TR-2004-1500) scans a cacheline in
//! 32-bit words and replaces each word that matches one of seven frequent
//! patterns with a 3-bit prefix plus a short immediate. Words matching no
//! pattern are stored verbatim behind the `111` prefix. The pattern table is
//! tiny, which is why the Attaché paper models FPC as a single-cycle engine.
//!
//! Two implementations live here. The hot path classifies each word
//! branchlessly — all seven pattern tests evaluate at once into a flags
//! word whose lowest set bit *is* the 3-bit prefix (see [`classify_word`])
//! — and packs the token stream through a word-level bit writer instead of
//! bit-at-a-time loops. The original `match`-cascade kernels are kept
//! verbatim in [`scalar`] as the reference implementation; the
//! `scalar_vs_vector` property suite pins the two bit-identical.

use crate::{Algorithm, Block, Compressed, Compressor, BLOCK_SIZE};

const WORDS: usize = BLOCK_SIZE / 4;

/// The FPC word patterns, in prefix order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// `000` — a run of 1..=8 zero words (run length in the 3-bit immediate).
    ZeroRun,
    /// `001` — 4-bit sign-extended value.
    Imm4,
    /// `010` — 8-bit sign-extended value.
    Imm8,
    /// `011` — 16-bit sign-extended value.
    Imm16,
    /// `100` — halfword padded with a zero halfword (low half zero).
    PaddedHalf,
    /// `101` — two halfwords, each a sign-extended byte.
    TwoHalves,
    /// `110` — four repeated bytes.
    RepeatedBytes,
    /// `111` — uncompressed 32-bit word.
    Uncompressed,
}

impl Pattern {
    /// Number of immediate data bits following the 3-bit prefix.
    pub fn data_bits(self) -> u32 {
        match self {
            Pattern::ZeroRun => 3,
            Pattern::Imm4 => 4,
            Pattern::Imm8 => 8,
            Pattern::Imm16 | Pattern::PaddedHalf | Pattern::TwoHalves => 16,
            Pattern::RepeatedBytes => 8,
            Pattern::Uncompressed => 32,
        }
    }

    fn prefix(self) -> u64 {
        match self {
            Pattern::ZeroRun => 0b000,
            Pattern::Imm4 => 0b001,
            Pattern::Imm8 => 0b010,
            Pattern::Imm16 => 0b011,
            Pattern::PaddedHalf => 0b100,
            Pattern::TwoHalves => 0b101,
            Pattern::RepeatedBytes => 0b110,
            Pattern::Uncompressed => 0b111,
        }
    }

    fn from_prefix(prefix: u64) -> Pattern {
        match prefix {
            0b000 => Pattern::ZeroRun,
            0b001 => Pattern::Imm4,
            0b010 => Pattern::Imm8,
            0b011 => Pattern::Imm16,
            0b100 => Pattern::PaddedHalf,
            0b101 => Pattern::TwoHalves,
            0b110 => Pattern::RepeatedBytes,
            _ => Pattern::Uncompressed,
        }
    }
}

/// Immediate data bits per pattern, indexed by the 3-bit prefix. Mirrors
/// [`Pattern::data_bits`]; the analysis loop indexes this instead of
/// matching on the enum.
const DATA_BITS: [u32; 8] = [3, 4, 8, 16, 16, 16, 8, 32];

/// Classifies a single 32-bit word (ignoring zero-run merging).
///
/// Branchless: the seven pattern predicates evaluate simultaneously into a
/// flags word — bit *p* set iff the word matches the pattern with prefix
/// *p*, bit 7 always set for `Uncompressed` — and the lowest set bit is the
/// match, because the cascade's priority order equals the prefix order and
/// the narrower immediate classes are subsets of the wider ones.
#[inline]
pub fn classify_word(word: u32) -> Pattern {
    Pattern::from_prefix(classify_prefix(word) as u64)
}

/// The 3-bit prefix `classify_word` assigns, as a plain integer.
#[inline]
fn classify_prefix(w: u32) -> u32 {
    let s = w as i32;
    let zero = (w == 0) as u32;
    let imm4 = ((s.wrapping_add(8) as u32) <= 15) as u32;
    let imm8 = ((s.wrapping_add(128) as u32) <= 255) as u32;
    let imm16 = ((s.wrapping_add(32768) as u32) <= 65535) as u32;
    let padded = ((w & 0xFFFF) == 0) as u32;
    // Both halves sign-extend from a byte: widen the halves into disjoint
    // u64 fields, add the i8 bias to both at once, and check that bits
    // 8..16 of each biased field are clear (i.e. (half + 0x80) mod 2^16
    // is below 0x100).
    let y = ((w & 0xFFFF) as u64) | (((w >> 16) as u64) << 32);
    let t = y.wrapping_add(0x0000_0080_0000_0080);
    let two = ((t & 0x0000_FF00_0000_FF00) == 0) as u32;
    let rep = (w == w.rotate_left(8)) as u32;
    let flags = zero
        | (imm4 << 1)
        | (imm8 << 2)
        | (imm16 << 3)
        | (padded << 4)
        | (two << 5)
        | (rep << 6)
        | 0x80;
    flags.trailing_zeros()
}

/// Worst-case FPC output: 16 words at 3 prefix + 32 data bits = 560 bits,
/// i.e. 70 bytes. The writer's inline buffer rounds up a little.
const WRITER_CAP: usize = BLOCK_SIZE + 8;
const WRITER_WORDS: usize = WRITER_CAP / 8;

/// A little-endian bit writer packing FPC tokens a u64 word at a time.
/// Values are OR-ed into a zeroed inline word buffer, spilling into the
/// next word when a token straddles a 64-bit boundary — the byte stream it
/// produces is identical to setting bits LSB-first one at a time.
#[derive(Debug)]
struct FastBitWriter {
    words: [u64; WRITER_WORDS],
    bit_len: usize,
}

impl Default for FastBitWriter {
    fn default() -> Self {
        Self {
            words: [0; WRITER_WORDS],
            bit_len: 0,
        }
    }
}

impl FastBitWriter {
    /// Appends the low `bits` of `value`. `value` must have no bits set at
    /// or above `bits` (callers pass pre-masked immediates).
    #[inline]
    fn push(&mut self, value: u64, bits: u32) {
        debug_assert!(bits <= 64);
        debug_assert!(bits == 64 || value >> bits == 0, "unmasked value");
        debug_assert!(self.bit_len + bits as usize <= WRITER_CAP * 8);
        let w = self.bit_len / 64;
        let off = (self.bit_len % 64) as u32;
        self.words[w] |= value << off;
        if off + bits > 64 {
            // off > 0 here, so the shift below is in range.
            self.words[w + 1] |= value >> (64 - off);
        }
        self.bit_len += bits as usize;
    }

    /// Bytes written so far, rounded up to whole bytes.
    fn byte_len(&self) -> usize {
        self.bit_len.div_ceil(8)
    }

    /// The stream as bytes (valid up to `byte_len()`).
    fn bytes(&self) -> [u8; WRITER_CAP] {
        let mut out = [0u8; WRITER_CAP];
        for (chunk, word) in out.chunks_exact_mut(8).zip(self.words) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        out
    }
}

/// Word-level counterpart of the bit-at-a-time reader: the payload is
/// splatted into u64 words once, then every pull is a shift/mask pair
/// (tokens are at most 32 bits, so at most two words are touched).
#[derive(Debug)]
struct FastBitReader {
    words: [u64; WRITER_WORDS],
    bit_len: usize,
    pos: usize,
}

impl FastBitReader {
    fn new(bytes: &[u8]) -> Self {
        debug_assert!(bytes.len() <= WRITER_CAP);
        let mut buf = [0u8; WRITER_CAP];
        buf[..bytes.len()].copy_from_slice(bytes);
        let mut words = [0u64; WRITER_WORDS];
        for (word, chunk) in words.iter_mut().zip(buf.chunks_exact(8)) {
            *word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        Self {
            words,
            bit_len: bytes.len() * 8,
            pos: 0,
        }
    }

    /// Pulls `bits <= 32`, or `None` when the stream is exhausted — the
    /// decode path for possibly-corrupt images.
    #[inline]
    fn try_pull(&mut self, bits: u32) -> Option<u64> {
        debug_assert!(bits <= 32);
        if self.pos + bits as usize > self.bit_len {
            return None;
        }
        let w = self.pos / 64;
        let off = (self.pos % 64) as u32;
        let mut v = self.words[w] >> off;
        if off + bits > 64 {
            v |= self.words[w + 1] << (64 - off);
        }
        self.pos += bits as usize;
        Some(v & ((1u64 << bits) - 1))
    }
}

/// One-pass analysis of a block: the per-word classes, the zero-word mask,
/// and the exact compressed bit count with zero-run merging applied.
/// Computing this is much cheaper than materializing the token stream, so
/// the engine can compare algorithm sizes before committing to one.
pub(crate) struct FpcAnalysis {
    words: [u32; WORDS],
    classes: [u8; WORDS],
    zmask: u32,
    pub(crate) bits: u32,
}

impl FpcAnalysis {
    pub(crate) fn new(block: &Block) -> Self {
        let mut words = [0u32; WORDS];
        for (w, chunk) in words.iter_mut().zip(block.chunks_exact(4)) {
            *w = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        let mut classes = [0u8; WORDS];
        let mut zmask = 0u32;
        for (i, &w) in words.iter().enumerate() {
            let p = classify_prefix(w);
            classes[i] = p as u8;
            zmask |= ((w == 0) as u32) << i;
        }
        let mut bits = 0u32;
        let mut i = 0;
        while i < WORDS {
            if (zmask >> i) & 1 != 0 {
                // A maximal zero run, capped at 8 words per token.
                let run = ((zmask >> i).trailing_ones() as usize).min(8);
                bits += 3 + DATA_BITS[Pattern::ZeroRun.prefix() as usize];
                i += run;
            } else {
                bits += 3 + DATA_BITS[classes[i] as usize];
                i += 1;
            }
        }
        Self {
            words,
            classes,
            zmask,
            bits,
        }
    }

    /// The compressed byte length the token stream will occupy.
    pub(crate) fn byte_len(&self) -> usize {
        (self.bits as usize).div_ceil(8)
    }

    /// Whether the stream beats storing the block verbatim.
    pub(crate) fn compressible(&self) -> bool {
        self.byte_len() < BLOCK_SIZE
    }

    /// Materializes the token stream. Byte-identical to the scalar
    /// emitter: each token is one combined `prefix | data << 3` push.
    pub(crate) fn emit(&self) -> Option<Compressed> {
        if !self.compressible() {
            return None;
        }
        let mut w = FastBitWriter::default();
        let mut i = 0;
        while i < WORDS {
            if (self.zmask >> i) & 1 != 0 {
                let run = ((self.zmask >> i).trailing_ones() as usize).min(8);
                w.push((run as u64 - 1) << 3, 6);
                i += run;
                continue;
            }
            let word = self.words[i];
            let p = self.classes[i] as u32;
            let data = match Pattern::from_prefix(p as u64) {
                Pattern::Imm4 => word as u64 & 0xF,
                Pattern::Imm8 => word as u64 & 0xFF,
                Pattern::Imm16 => word as u64 & 0xFFFF,
                Pattern::PaddedHalf => (word >> 16) as u64,
                Pattern::TwoHalves => (word as u64 & 0xFF) | (((word >> 16) as u64 & 0xFF) << 8),
                Pattern::RepeatedBytes => word as u64 & 0xFF,
                _ => word as u64,
            };
            w.push(p as u64 | (data << 3), 3 + DATA_BITS[p as usize]);
            i += 1;
        }
        debug_assert_eq!(w.bit_len as u32, self.bits);
        Some(Compressed::from_parts(
            Algorithm::Fpc,
            &w.bytes()[..w.byte_len()],
        ))
    }
}

/// The Frequent Pattern Compression compressor.
///
/// # Example
///
/// ```
/// use attache_compress::fpc::Fpc;
/// use attache_compress::Compressor;
///
/// // Small integers compress extremely well under FPC.
/// let mut block = [0u8; 64];
/// for (i, chunk) in block.chunks_exact_mut(4).enumerate() {
///     chunk.copy_from_slice(&(i as u32 % 5).to_le_bytes());
/// }
/// let image = Fpc::new().compress(&block).expect("compressible");
/// assert!(image.size() < 16);
/// assert_eq!(Fpc::new().decompress(&image), block);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fpc;

impl Fpc {
    /// Creates an FPC compressor.
    pub fn new() -> Self {
        Fpc
    }

    /// Bounds-checked decompression: returns `None` instead of panicking
    /// when `image` is not a well-formed FPC image (wrong algorithm, or a
    /// bit stream that runs out before all 16 words decode). The
    /// fault-injection layer stores deliberately corrupted images, so the
    /// decode path must be total over arbitrary bytes.
    pub fn try_decompress(&self, image: &Compressed) -> Option<Block> {
        if image.algorithm() != Algorithm::Fpc {
            return None;
        }
        let mut r = FastBitReader::new(image.payload());
        let mut words = [0u32; WORDS];
        let mut i = 0;
        while i < WORDS {
            let p = Pattern::from_prefix(r.try_pull(3)?);
            match p {
                Pattern::ZeroRun => {
                    let run = r.try_pull(3)? as usize + 1;
                    i += run; // words are already zero
                }
                Pattern::Imm4 => {
                    let v = r.try_pull(4)? as u32;
                    words[i] = ((v << 28) as i32 >> 28) as u32;
                    i += 1;
                }
                Pattern::Imm8 => {
                    let v = r.try_pull(8)? as u32;
                    words[i] = ((v << 24) as i32 >> 24) as u32;
                    i += 1;
                }
                Pattern::Imm16 => {
                    let v = r.try_pull(16)? as u32;
                    words[i] = ((v << 16) as i32 >> 16) as u32;
                    i += 1;
                }
                Pattern::PaddedHalf => {
                    words[i] = (r.try_pull(16)? as u32) << 16;
                    i += 1;
                }
                Pattern::TwoHalves => {
                    let both = r.try_pull(16)? as u32;
                    let lo = ((both << 24) as i32 >> 24) as u32 & 0xFFFF;
                    let hi = (((both >> 8) << 24) as i32 >> 24) as u32 & 0xFFFF;
                    words[i] = lo | (hi << 16);
                    i += 1;
                }
                Pattern::RepeatedBytes => {
                    let b = r.try_pull(8)? as u32;
                    words[i] = b.wrapping_mul(0x0101_0101);
                    i += 1;
                }
                Pattern::Uncompressed => {
                    words[i] = r.try_pull(32)? as u32;
                    i += 1;
                }
            }
        }
        let mut block = [0u8; BLOCK_SIZE];
        for (chunk, w) in block.chunks_exact_mut(4).zip(words) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        Some(block)
    }

    /// The exact compressed size of `block` in bits, including prefixes.
    pub fn compressed_bits(block: &Block) -> u32 {
        FpcAnalysis::new(block).bits
    }
}

impl Compressor for Fpc {
    fn name(&self) -> &'static str {
        "FPC"
    }

    fn compress(&self, block: &Block) -> Option<Compressed> {
        FpcAnalysis::new(block).emit()
    }

    fn decompress(&self, image: &Compressed) -> Block {
        assert_eq!(image.algorithm(), Algorithm::Fpc, "not an FPC image");
        self.try_decompress(image).expect("corrupt FPC image")
    }
}

/// The original `match`-cascade FPC kernels, kept verbatim as the
/// reference implementation. The `scalar_vs_vector` property suite drives
/// these against the branchless hot path; simulation code never calls them.
pub mod scalar {
    use super::{Pattern, WORDS, WRITER_CAP};
    use crate::{Algorithm, Block, Compressed, BLOCK_SIZE};

    /// Reference classification: the if-else pattern cascade.
    pub fn classify_word(word: u32) -> Pattern {
        let sword = word as i32;
        if word == 0 {
            Pattern::ZeroRun
        } else if (-8..=7).contains(&sword) {
            Pattern::Imm4
        } else if (i8::MIN as i32..=i8::MAX as i32).contains(&sword) {
            Pattern::Imm8
        } else if (i16::MIN as i32..=i16::MAX as i32).contains(&sword) {
            Pattern::Imm16
        } else if word & 0xFFFF == 0 {
            Pattern::PaddedHalf
        } else if half_is_extended_byte((word & 0xFFFF) as u16)
            && half_is_extended_byte((word >> 16) as u16)
        {
            Pattern::TwoHalves
        } else if word_is_repeated_bytes(word) {
            Pattern::RepeatedBytes
        } else {
            Pattern::Uncompressed
        }
    }

    fn half_is_extended_byte(half: u16) -> bool {
        let s = half as i16;
        (i8::MIN as i16..=i8::MAX as i16).contains(&s)
    }

    fn word_is_repeated_bytes(word: u32) -> bool {
        let b = word & 0xFF;
        word == b | (b << 8) | (b << 16) | (b << 24)
    }

    /// A little-endian bit writer setting one bit at a time.
    #[derive(Debug)]
    struct BitWriter {
        bytes: [u8; WRITER_CAP],
        bit_len: usize,
    }

    impl Default for BitWriter {
        fn default() -> Self {
            Self {
                bytes: [0; WRITER_CAP],
                bit_len: 0,
            }
        }
    }

    impl BitWriter {
        fn push(&mut self, value: u64, bits: u32) {
            debug_assert!(bits <= 64);
            debug_assert!(self.bit_len + bits as usize <= WRITER_CAP * 8);
            for i in 0..bits {
                let bit = (value >> i) & 1;
                let pos = self.bit_len + i as usize;
                self.bytes[pos / 8] |= (bit as u8) << (pos % 8);
            }
            self.bit_len += bits as usize;
        }

        fn byte_len(&self) -> usize {
            self.bit_len.div_ceil(8)
        }
    }

    #[derive(Debug)]
    struct BitReader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> BitReader<'a> {
        fn new(bytes: &'a [u8]) -> Self {
            Self { bytes, pos: 0 }
        }

        fn pull(&mut self, bits: u32) -> u64 {
            let mut v = 0u64;
            for i in 0..bits {
                let pos = self.pos + i as usize;
                let bit = (self.bytes[pos / 8] >> (pos % 8)) & 1;
                v |= (bit as u64) << i;
            }
            self.pos += bits as usize;
            v
        }

        fn try_pull(&mut self, bits: u32) -> Option<u64> {
            if self.pos + bits as usize > self.bytes.len() * 8 {
                return None;
            }
            Some(self.pull(bits))
        }
    }

    fn block_words(block: &Block) -> [u32; WORDS] {
        let mut words = [0u32; WORDS];
        for (w, chunk) in words.iter_mut().zip(block.chunks_exact(4)) {
            *w = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        words
    }

    /// Reference compressor: classify-and-pack, one word at a time.
    pub fn compress(block: &Block) -> Option<Compressed> {
        let words = block_words(block);
        let mut w = BitWriter::default();
        let mut i = 0;
        while i < WORDS {
            let word = words[i];
            let p = classify_word(word);
            w.push(p.prefix(), 3);
            match p {
                Pattern::ZeroRun => {
                    let mut run = 1;
                    while i + run < WORDS && words[i + run] == 0 && run < 8 {
                        run += 1;
                    }
                    w.push(run as u64 - 1, 3);
                    i += run;
                    continue;
                }
                Pattern::Imm4 => w.push(word as u64 & 0xF, 4),
                Pattern::Imm8 => w.push(word as u64 & 0xFF, 8),
                Pattern::Imm16 => w.push(word as u64 & 0xFFFF, 16),
                Pattern::PaddedHalf => w.push((word >> 16) as u64, 16),
                Pattern::TwoHalves => {
                    w.push(word as u64 & 0xFF, 8);
                    w.push((word >> 16) as u64 & 0xFF, 8);
                }
                Pattern::RepeatedBytes => w.push(word as u64 & 0xFF, 8),
                Pattern::Uncompressed => w.push(word as u64, 32),
            }
            i += 1;
        }
        let len = w.byte_len();
        if len >= BLOCK_SIZE {
            return None;
        }
        Some(Compressed::from_parts(Algorithm::Fpc, &w.bytes[..len]))
    }

    /// Reference exact compressed size in bits.
    pub fn compressed_bits(block: &Block) -> u32 {
        let words = block_words(block);
        let mut bits = 0;
        let mut i = 0;
        while i < WORDS {
            let p = classify_word(words[i]);
            if p == Pattern::ZeroRun {
                let mut run = 1;
                while i + run < WORDS && words[i + run] == 0 && run < 8 {
                    run += 1;
                }
                i += run;
            } else {
                i += 1;
            }
            bits += 3 + p.data_bits();
        }
        bits
    }

    /// Reference bounds-checked decompression.
    pub fn try_decompress(image: &Compressed) -> Option<Block> {
        if image.algorithm() != Algorithm::Fpc {
            return None;
        }
        let mut r = BitReader::new(image.payload());
        let mut words = [0u32; WORDS];
        let mut i = 0;
        while i < WORDS {
            let p = Pattern::from_prefix(r.try_pull(3)?);
            match p {
                Pattern::ZeroRun => {
                    let run = r.try_pull(3)? as usize + 1;
                    i += run; // words are already zero
                }
                Pattern::Imm4 => {
                    let v = r.try_pull(4)? as u32;
                    words[i] = ((v << 28) as i32 >> 28) as u32;
                    i += 1;
                }
                Pattern::Imm8 => {
                    let v = r.try_pull(8)? as u32;
                    words[i] = ((v << 24) as i32 >> 24) as u32;
                    i += 1;
                }
                Pattern::Imm16 => {
                    let v = r.try_pull(16)? as u32;
                    words[i] = ((v << 16) as i32 >> 16) as u32;
                    i += 1;
                }
                Pattern::PaddedHalf => {
                    words[i] = (r.try_pull(16)? as u32) << 16;
                    i += 1;
                }
                Pattern::TwoHalves => {
                    let lo = r.try_pull(8)? as u32;
                    let hi = r.try_pull(8)? as u32;
                    let lo = ((lo << 24) as i32 >> 24) as u32 & 0xFFFF;
                    let hi = ((hi << 24) as i32 >> 24) as u32 & 0xFFFF;
                    words[i] = lo | (hi << 16);
                    i += 1;
                }
                Pattern::RepeatedBytes => {
                    let b = r.try_pull(8)? as u32;
                    words[i] = b | (b << 8) | (b << 16) | (b << 24);
                    i += 1;
                }
                Pattern::Uncompressed => {
                    words[i] = r.try_pull(32)? as u32;
                    i += 1;
                }
            }
        }
        let mut block = [0u8; BLOCK_SIZE];
        for (chunk, w) in block.chunks_exact_mut(4).zip(words) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        Some(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(block: &Block) -> Option<usize> {
        let fpc = Fpc::new();
        let image = fpc.compress(block)?;
        assert_eq!(&fpc.decompress(&image), block, "FPC roundtrip mismatch");
        // The reference kernels must agree byte-for-byte on every vector
        // the unit suite exercises (the property suite widens this).
        assert_eq!(scalar::compress(block).as_ref(), Some(&image));
        assert_eq!(scalar::try_decompress(&image).as_ref(), Some(block));
        Some(image.size())
    }

    #[test]
    fn all_zero_line_is_two_runs() {
        // 16 zero words = two runs of 8 => 2 * 6 bits = 12 bits = 2 bytes.
        let block = [0u8; 64];
        assert_eq!(Fpc::compressed_bits(&block), 12);
        assert_eq!(roundtrip(&block), Some(2));
    }

    #[test]
    fn small_integers_compress() {
        let mut block = [0u8; 64];
        for (i, chunk) in block.chunks_exact_mut(4).enumerate() {
            chunk.copy_from_slice(&(i as u32).to_le_bytes());
        }
        assert!(roundtrip(&block).unwrap() < 20);
    }

    #[test]
    fn negative_small_integers_compress() {
        let mut block = [0u8; 64];
        for (i, chunk) in block.chunks_exact_mut(4).enumerate() {
            chunk.copy_from_slice(&(-(i as i32) - 1).to_le_bytes());
        }
        assert!(roundtrip(&block).is_some());
    }

    #[test]
    fn classify_covers_all_patterns() {
        assert_eq!(classify_word(0), Pattern::ZeroRun);
        assert_eq!(classify_word(7), Pattern::Imm4);
        assert_eq!(classify_word(0xFFFF_FFF8), Pattern::Imm4); // -8
        assert_eq!(classify_word(100), Pattern::Imm8);
        assert_eq!(classify_word(0xFFFF_FF80), Pattern::Imm8); // -128
        assert_eq!(classify_word(30_000), Pattern::Imm16);
        assert_eq!(classify_word(0xFFFF_8000), Pattern::Imm16); // -32768
        assert_eq!(classify_word(0x1234_0000), Pattern::PaddedHalf);
        assert_eq!(classify_word(0x0042_0017), Pattern::TwoHalves);
        assert_eq!(classify_word(0xABAB_ABAB), Pattern::RepeatedBytes);
        assert_eq!(classify_word(0x1234_5678), Pattern::Uncompressed);
    }

    #[test]
    fn branchless_classify_matches_cascade_on_boundaries() {
        // Every boundary of every predicate, plus sign-bit corners.
        let probes: [u32; 26] = [
            0,
            1,
            7,
            8,
            0xFFFF_FFF8,
            0xFFFF_FFF7,
            127,
            128,
            0xFFFF_FF80,
            0xFFFF_FF7F,
            32767,
            32768,
            0xFFFF_8000,
            0xFFFF_7FFF,
            0x0001_0000,
            0x8000_0000,
            0xFFFF_0000,
            0x007F_0000,
            0x0080_0000,
            0x007F_007F,
            0xFF80_FF80,
            0xFF80_0080,
            0xABAB_ABAB,
            0x0101_0101,
            0xFFFF_FFFF,
            0x1234_5678,
        ];
        for w in probes {
            assert_eq!(classify_word(w), scalar::classify_word(w), "word {w:#010x}");
        }
    }

    #[test]
    fn incompressible_line_is_rejected() {
        // All words uncompressed: 16 * 35 bits = 560 bits = 70 bytes > 64.
        let mut block = [0u8; 64];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for chunk in block.chunks_exact_mut(4) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Force the Uncompressed pattern.
            let w = (state as u32) | 0x0180_8000;
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        let all_uncompressed = block.chunks_exact(4).all(|c| {
            classify_word(u32::from_le_bytes(c.try_into().unwrap())) == Pattern::Uncompressed
        });
        if all_uncompressed {
            assert!(Fpc::new().compress(&block).is_none());
        }
    }

    #[test]
    fn two_halves_roundtrip_with_negative_halves() {
        let mut block = [0u8; 64];
        let w: u32 = 0x00FF_FF80; // halves: 0xFF80 (-128) and 0x00FF... (255? no: 0x00FF = 255, not extended byte)
                                  // Build a word whose halves are sign-extended bytes: lo=-5 (0xFFFB), hi=3 (0x0003).
        let word = 0xFFFBu32 | (0x0003u32 << 16);
        assert_eq!(classify_word(word), Pattern::TwoHalves);
        let _ = w;
        for chunk in block.chunks_exact_mut(4) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        assert!(roundtrip(&block).is_some());
    }

    #[test]
    fn padded_half_roundtrip() {
        let mut block = [0u8; 64];
        for (i, chunk) in block.chunks_exact_mut(4).enumerate() {
            let w = ((0x8000u32 + i as u32) << 16) & 0xFFFF_0000;
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        assert!(roundtrip(&block).is_some());
    }

    #[test]
    fn repeated_bytes_roundtrip() {
        let mut block = [0u8; 64];
        for chunk in block.chunks_exact_mut(4) {
            chunk.copy_from_slice(&0x5A5A_5A5Au32.to_le_bytes());
        }
        assert!(roundtrip(&block).unwrap() <= 24);
    }

    #[test]
    fn compressed_bits_matches_actual_payload() {
        let mut block = [0u8; 64];
        for (i, chunk) in block.chunks_exact_mut(4).enumerate() {
            let w = match i % 4 {
                0 => 0u32,
                1 => 42,
                2 => 0x1234_0000,
                _ => 0x7777_7777,
            };
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        let bits = Fpc::compressed_bits(&block);
        let image = Fpc::new().compress(&block).unwrap();
        assert_eq!(image.size(), (bits as usize).div_ceil(8));
        assert_eq!(bits, scalar::compressed_bits(&block));
    }

    #[test]
    fn zero_run_split_across_nonzero_word() {
        let mut block = [0u8; 64];
        block[32..36].copy_from_slice(&123u32.to_le_bytes());
        assert!(roundtrip(&block).is_some());
    }
}
