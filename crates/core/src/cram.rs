//! CRAM — implicit compression metadata via in-line markers.
//!
//! The rival design point to Attaché's BLEM (PAPERS.md: CRAM,
//! Young/Kariyappa/Qureshi): there is no metadata region, no
//! metadata-cache and no predictor. A compressed line is stored as the
//! 16-bit [marker word](attache_compress::marker) followed by the
//! scrambled payload — one sub-rank beat — and an uncompressed line is
//! stored verbatim. The controller learns a line's compression state only
//! by *reading* it: an optimistic half read either hits the marker
//! (implicit hit, done) or returns plain data and costs a corrective
//! second half.
//!
//! The escape mechanism (following Touché) handles the incompressible
//! line whose natural first word collides with the marker: the colliding
//! bytes are parked in an exception region and the stored line begins
//! with the **escape word** instead. Reading such a line costs an extra
//! exception access — the CRAM analogue of BLEM's Replacement-Area
//! collision traffic.

use attache_compress::marker::{MarkerClass, MarkerCodec};
use attache_compress::{Block, Compressed, CompressionOutcome, BLOCK_SIZE};

use crate::blem::StoredImage;
use crate::fasthash::FastMap;
use crate::memo::MemoizedEngine;
use crate::scramble::Scrambler;

/// What a CRAM write did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CramWriteOutcome {
    /// The image to store.
    pub image: StoredImage,
    /// Whether the block compressed to the sub-rank target.
    pub compressed: bool,
    /// The line's natural first word collided with the marker: the
    /// displaced bytes were parked and the controller must issue an
    /// exception-region write.
    pub exception: bool,
}

/// What a CRAM read learned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CramReadInfo {
    /// The line began with the marker word (implicit hit).
    pub compressed: bool,
    /// The line began with the escape word: the exception region was
    /// consulted and the controller must issue an exception-region read.
    pub exception: bool,
}

/// Running CRAM counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CramStats {
    /// Lines written.
    pub writes: u64,
    /// Writes that compressed to ≤30 bytes (stored marker-first).
    pub compressed_writes: u64,
    /// Write-time marker collisions (escape encoding applied).
    pub write_exceptions: u64,
    /// Lines read.
    pub reads: u64,
    /// Reads that hit the marker word — implicit metadata hits.
    pub compressed_reads: u64,
    /// Reads that hit the escape word (exception region consulted).
    pub read_exceptions: u64,
}

impl CramStats {
    /// Fraction of reads whose compression state was resolved by the
    /// marker alone (the "implicit hit rate").
    pub fn implicit_hit_rate(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        self.compressed_reads as f64 / self.reads as f64
    }
}

/// The CRAM implicit-metadata engine.
///
/// # Example
///
/// ```
/// use attache_core::cram::Cram;
///
/// let mut cram = Cram::new(42);
/// let zeros = [0u8; 64];
/// let w = cram.write_line(7, &zeros);
/// assert!(w.compressed);
/// let (data, info) = cram.read_line(7, &w.image);
/// assert_eq!(data, zeros);
/// assert!(info.compressed);
/// ```
#[derive(Debug, Clone)]
pub struct Cram {
    engine: MemoizedEngine,
    scrambler: Scrambler,
    codec: MarkerCodec,
    /// Parked first-two-bytes of lines stored under the escape word —
    /// the exception region's contents.
    exceptions: FastMap<u64, [u8; 2]>,
    stats: CramStats,
    /// When set, a stored line whose marker/payload no longer parses
    /// decodes to a deterministic garbage block instead of panicking.
    /// Only the fault injector turns this on.
    fault_tolerant: bool,
}

impl Cram {
    /// Creates a CRAM engine, drawing the boot-time marker word and the
    /// scrambler key from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            engine: MemoizedEngine::new(),
            scrambler: Scrambler::new(seed ^ 0x3C6E_F372_FE94_F82A),
            codec: MarkerCodec::from_seed(seed),
            exceptions: FastMap::default(),
            stats: CramStats::default(),
            fault_tolerant: false,
        }
    }

    /// The boot-time marker codec.
    pub fn codec(&self) -> MarkerCodec {
        self.codec
    }

    /// Whether `data` compresses to the sub-rank target, answered through
    /// the content-keyed memo — the hot half of [`probe`](Cram::probe).
    pub fn fits_subrank(&self, data: &Block) -> bool {
        self.engine.fits_subrank(data)
    }

    /// Running counters.
    pub fn stats(&self) -> CramStats {
        self.stats
    }

    /// Resets counters after warm-up. The exception region is state, not
    /// statistics, and survives the reset.
    pub fn reset_stats(&mut self) {
        self.stats = CramStats::default();
    }

    /// Fault-injection hook: decode corrupted stored lines to a
    /// deterministic garbage block instead of panicking (the mirror
    /// oracle then flags the mismatch and attributes it to a fault
    /// class).
    pub fn set_fault_tolerant_decode(&mut self, on: bool) {
        self.fault_tolerant = on;
    }

    /// Fault-injection hook: replaces the scrambler key mid-run. Every
    /// compressed payload stored under the old key now descrambles to
    /// garbage; verbatim uncompressed lines are unaffected (CRAM only
    /// scrambles what it compressed — a verbatim line must keep its
    /// natural bytes for the marker comparison to be meaningful).
    pub fn swap_scrambler_key(&mut self, seed: u64) {
        self.scrambler = Scrambler::new(seed);
    }

    /// Fault-injection hook: flips the top bit of `line_addr`'s parked
    /// exception bytes, if any exist; returns whether a bit was flipped.
    /// The CRAM analogue of corrupting BLEM's Replacement Area.
    pub fn fault_flip_exception_bit(&mut self, line_addr: u64) -> bool {
        match self.exceptions.get_mut(&line_addr) {
            Some(parked) => {
                parked[0] ^= 0x80;
                true
            }
            None => false,
        }
    }

    /// Whether `line_addr` currently has bytes parked in the exception
    /// region.
    pub fn has_exception(&self, line_addr: u64) -> bool {
        self.exceptions.contains_key(&line_addr)
    }

    /// A deterministic, line-addressed garbage block: what a corrupted
    /// stored line decodes to when it no longer parses. Depends only on
    /// the line address so both engines decode identical garbage at
    /// identical ticks.
    fn garbage_block(line_addr: u64) -> Block {
        let mut b = [0u8; BLOCK_SIZE];
        let mut z = line_addr ^ 0x2545_F491_4F6C_DD1D;
        for chunk in b.chunks_exact_mut(8) {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            chunk.copy_from_slice(&x.to_le_bytes());
        }
        b
    }

    /// Write path: compress, lead with the marker, scramble the payload;
    /// verbatim lines get the escape treatment on a marker collision.
    pub fn write_line(&mut self, line_addr: u64, data: &Block) -> CramWriteOutcome {
        self.stats.writes += 1;
        let outcome = self.engine.compress(data);
        if outcome.fits_subrank() {
            self.exceptions.remove(&line_addr);
            let image = self.encode_compressed(line_addr, &outcome);
            self.stats.compressed_writes += 1;
            return CramWriteOutcome {
                image: StoredImage::Compressed(image),
                compressed: true,
                exception: false,
            };
        }

        // Uncompressed: store verbatim unless the first word collides
        // with a reserved marker/escape encoding.
        let mut stored = *data;
        let first = u16::from_be_bytes([stored[0], stored[1]]);
        let exception = self.codec.collides(first);
        if exception {
            self.stats.write_exceptions += 1;
            self.exceptions.insert(line_addr, [stored[0], stored[1]]);
            stored[..2].copy_from_slice(&self.codec.escape_word().to_be_bytes());
        } else {
            self.exceptions.remove(&line_addr);
        }
        CramWriteOutcome {
            image: StoredImage::Uncompressed(stored),
            compressed: false,
            exception,
        }
    }

    fn encode_compressed(&self, line_addr: u64, outcome: &CompressionOutcome) -> [u8; 32] {
        let c = match outcome {
            CompressionOutcome::Compressed(c) => c,
            CompressionOutcome::Uncompressed(_) => unreachable!("caller checked fits_subrank"),
        };
        let len = c.size();
        debug_assert!(len <= 30);
        let mut payload = [0u8; 30];
        payload[..len].copy_from_slice(c.payload());
        self.scrambler
            .scramble_slice(line_addr, &mut payload[..len]);
        let marker = self.codec.encode(c.algorithm());
        let mut image = [0u8; 32];
        image[..2].copy_from_slice(&marker.to_be_bytes());
        image[2..2 + len].copy_from_slice(&payload[..len]);
        image
    }

    /// Computes, without any side effects, how `data` would be stored:
    /// `(compressed, exception)` — the pure counterpart of
    /// [`write_line`](Cram::write_line), used for lines that were never
    /// written back. CRAM stores verbatim lines unscrambled, so the
    /// answer depends on content alone.
    pub fn probe(&self, data: &Block) -> (bool, bool) {
        if self.engine.fits_subrank(data) {
            return (true, false);
        }
        let first = u16::from_be_bytes([data[0], data[1]]);
        (false, self.codec.collides(first))
    }

    /// Decodes `image` exactly as [`read_line`](Cram::read_line) would,
    /// with **zero** side effects: no stats, no exception bookkeeping.
    /// The fault injector uses this to classify a corruption as absorbed
    /// or pending before the line is ever demand-read.
    pub fn peek_line(&self, line_addr: u64, image: &StoredImage) -> Block {
        match image {
            StoredImage::Compressed(bytes) => self
                .decode_compressed(line_addr, bytes)
                .unwrap_or_else(|| Self::garbage_block(line_addr)),
            StoredImage::Uncompressed(bytes) => {
                let first = u16::from_be_bytes([bytes[0], bytes[1]]);
                match self.codec.classify(first) {
                    MarkerClass::Plain => *bytes,
                    MarkerClass::Escape => match self.exceptions.get(&line_addr) {
                        Some(parked) => {
                            let mut restored = *bytes;
                            restored[..2].copy_from_slice(parked);
                            restored
                        }
                        None => Self::garbage_block(line_addr),
                    },
                    MarkerClass::Compressed(_) => {
                        // A verbatim line can only carry the marker under
                        // fault injection: decode it the way the
                        // controller would (it believes the marker).
                        let mut half = [0u8; 32];
                        half.copy_from_slice(&bytes[..32]);
                        self.decode_compressed(line_addr, &half)
                            .unwrap_or_else(|| Self::garbage_block(line_addr))
                    }
                }
            }
        }
    }

    /// Descrambles and decompresses a marker-led 32-byte half. `None`
    /// when the marker is gone or the payload no longer parses.
    fn decode_compressed(&self, line_addr: u64, bytes: &[u8; 32]) -> Option<Block> {
        let first = u16::from_be_bytes([bytes[0], bytes[1]]);
        let MarkerClass::Compressed(algorithm) = self.codec.classify(first) else {
            return None;
        };
        let mut payload = [0u8; 30];
        payload.copy_from_slice(&bytes[2..]);
        self.scrambler.scramble_slice(line_addr, &mut payload);
        self.engine
            .try_decompress(&CompressionOutcome::Compressed(Compressed::from_parts(
                algorithm, &payload,
            )))
    }

    /// Read path: classify the first word, then descramble/decompress or
    /// restore parked exception bytes.
    pub fn read_line(&mut self, line_addr: u64, image: &StoredImage) -> (Block, CramReadInfo) {
        self.stats.reads += 1;
        match image {
            StoredImage::Compressed(bytes) => {
                self.stats.compressed_reads += 1;
                let info = CramReadInfo {
                    compressed: true,
                    exception: false,
                };
                match self.decode_compressed(line_addr, bytes) {
                    Some(block) => (block, info),
                    None => {
                        debug_assert!(
                            self.fault_tolerant,
                            "compressed image must lead with the marker"
                        );
                        (Self::garbage_block(line_addr), info)
                    }
                }
            }
            StoredImage::Uncompressed(bytes) => {
                let first = u16::from_be_bytes([bytes[0], bytes[1]]);
                match self.codec.classify(first) {
                    MarkerClass::Plain => (
                        *bytes,
                        CramReadInfo {
                            compressed: false,
                            exception: false,
                        },
                    ),
                    MarkerClass::Escape => {
                        self.stats.read_exceptions += 1;
                        let info = CramReadInfo {
                            compressed: false,
                            exception: true,
                        };
                        match self.exceptions.get(&line_addr) {
                            Some(parked) => {
                                let mut restored = *bytes;
                                restored[..2].copy_from_slice(parked);
                                (restored, info)
                            }
                            None => {
                                debug_assert!(
                                    self.fault_tolerant,
                                    "escape-led line must have parked bytes"
                                );
                                (Self::garbage_block(line_addr), info)
                            }
                        }
                    }
                    MarkerClass::Compressed(_) => {
                        // The controller believes the marker: it treats
                        // the first half as a compressed image. Only a
                        // forged marker (fault injection) gets here.
                        debug_assert!(
                            self.fault_tolerant,
                            "verbatim line cannot lead with the marker"
                        );
                        self.stats.compressed_reads += 1;
                        let info = CramReadInfo {
                            compressed: true,
                            exception: false,
                        };
                        let mut half = [0u8; 32];
                        half.copy_from_slice(&bytes[..32]);
                        let block = self
                            .decode_compressed(line_addr, &half)
                            .unwrap_or_else(|| Self::garbage_block(line_addr));
                        (block, info)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compressible_block(i: u64) -> Block {
        let mut b = [0u8; 64];
        for (k, chunk) in b.chunks_exact_mut(8).enumerate() {
            chunk.copy_from_slice(&(0x4000u64 + i + k as u64).to_le_bytes());
        }
        b
    }

    fn incompressible_block(seed: u64) -> Block {
        let mut b = [0u8; 64];
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for byte in b.iter_mut() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *byte = (s >> 40) as u8;
        }
        b
    }

    /// An incompressible block whose first word is exactly `word`.
    fn adversarial_block(cram: &Cram, word: u16, salt: u64) -> Block {
        let mut b = incompressible_block(0xBEEF ^ salt);
        b[..2].copy_from_slice(&word.to_be_bytes());
        assert!(
            !cram.fits_subrank(&b),
            "adversarial block must stay incompressible"
        );
        b
    }

    #[test]
    fn compressed_roundtrip() {
        let mut cram = Cram::new(1);
        for i in 0..100u64 {
            let data = compressible_block(i * 13);
            let w = cram.write_line(i, &data);
            assert!(w.compressed, "line {i}");
            assert_eq!(w.image.stored_bytes(), 32);
            let (out, info) = cram.read_line(i, &w.image);
            assert_eq!(out, data, "line {i}");
            assert!(info.compressed);
        }
        assert_eq!(cram.stats().compressed_writes, 100);
        assert_eq!(cram.stats().compressed_reads, 100);
        assert_eq!(cram.stats().write_exceptions, 0);
    }

    #[test]
    fn uncompressed_roundtrip_is_verbatim() {
        let mut cram = Cram::new(2);
        for i in 0..2_000u64 {
            let data = incompressible_block(i + 1);
            let w = cram.write_line(i, &data);
            if w.compressed {
                continue;
            }
            let (out, info) = cram.read_line(i, &w.image);
            assert_eq!(out, data, "line {i}");
            assert!(!info.compressed);
            assert_eq!(info.exception, w.exception);
        }
        // 2000 * 3/65536 ≈ 0.09 expected collisions; sanity-bound it.
        assert!(cram.stats().write_exceptions < 10);
    }

    #[test]
    fn marker_collision_takes_the_escape_path() {
        let mut cram = Cram::new(3);
        let codec = cram.codec();
        for (salt, word) in [
            codec.encode(attache_compress::Algorithm::Bdi),
            codec.encode(attache_compress::Algorithm::Fpc),
            codec.escape_word(),
        ]
        .into_iter()
        .enumerate()
        {
            let line = 40 + salt as u64;
            let data = adversarial_block(&cram, word, salt as u64);
            let w = cram.write_line(line, &data);
            assert!(!w.compressed);
            assert!(w.exception, "reserved word {word:#06x} must collide");
            assert!(cram.has_exception(line));
            // The stored image must lead with the escape word, never the
            // marker.
            let stored = u16::from_be_bytes([w.image.first_half()[0], w.image.first_half()[1]]);
            assert_eq!(stored, codec.escape_word());
            let (out, info) = cram.read_line(line, &w.image);
            assert_eq!(out, data, "parked bytes must be restored");
            assert!(info.exception);
        }
        assert_eq!(cram.stats().write_exceptions, 3);
        assert_eq!(cram.stats().read_exceptions, 3);
    }

    #[test]
    fn rewriting_a_clean_line_clears_its_exception() {
        let mut cram = Cram::new(4);
        let codec = cram.codec();
        let line = 9u64;
        let colliding = adversarial_block(&cram, codec.marker_word(), 1);
        let w = cram.write_line(line, &colliding);
        assert!(w.exception);
        assert!(cram.has_exception(line));
        let clean = incompressible_block(77);
        let w2 = cram.write_line(line, &clean);
        assert!(!w2.exception);
        assert!(
            !cram.has_exception(line),
            "stale parked bytes must be dropped"
        );
        let compressible = compressible_block(5);
        cram.write_line(line, &colliding);
        let w3 = cram.write_line(line, &compressible);
        assert!(w3.compressed);
        assert!(!cram.has_exception(line));
    }

    #[test]
    fn probe_matches_write_line() {
        let mut cram = Cram::new(5);
        let codec = cram.codec();
        let mut blocks: Vec<Block> = (0..500u64)
            .map(|i| {
                if i % 2 == 0 {
                    compressible_block(i)
                } else {
                    incompressible_block(i)
                }
            })
            .collect();
        blocks.push(adversarial_block(&cram, codec.marker_word(), 2));
        blocks.push(adversarial_block(&cram, codec.escape_word(), 3));
        for (i, data) in blocks.iter().enumerate() {
            let (probe_comp, probe_exc) = cram.probe(data);
            let w = cram.write_line(i as u64, data);
            assert_eq!(probe_comp, w.compressed, "line {i}");
            assert_eq!(probe_exc, w.exception, "line {i}");
        }
    }

    #[test]
    fn peek_line_matches_read_line_without_side_effects() {
        let mut cram = Cram::new(6);
        let codec = cram.codec();
        let cases = [
            compressible_block(3),
            incompressible_block(11),
            adversarial_block(&cram, codec.marker_word(), 4),
        ];
        for (i, data) in cases.iter().enumerate() {
            let line = i as u64;
            let w = cram.write_line(line, data);
            let stats_before = cram.stats();
            let peeked = cram.peek_line(line, &w.image);
            assert_eq!(cram.stats(), stats_before, "peek must be pure");
            let (read, _) = cram.read_line(line, &w.image);
            assert_eq!(peeked, read, "case {i}");
        }
    }

    #[test]
    fn forged_marker_degrades_to_garbage_not_panic() {
        let mut cram = Cram::new(7);
        cram.set_fault_tolerant_decode(true);
        let data = incompressible_block(21);
        let line = 5u64;
        let w = cram.write_line(line, &data);
        assert!(
            !w.exception,
            "natural content must not collide for this seed"
        );
        let StoredImage::Uncompressed(mut bytes) = w.image else {
            panic!("incompressible block stored verbatim");
        };
        // Forge the marker onto the verbatim line: the controller now
        // believes it is compressed and must degrade deterministically.
        let marker = cram.codec().encode(attache_compress::Algorithm::Bdi);
        bytes[..2].copy_from_slice(&marker.to_be_bytes());
        let forged = StoredImage::Uncompressed(bytes);
        let (out, info) = cram.read_line(line, &forged);
        assert!(info.compressed, "controller believes the forged marker");
        assert_ne!(out, data, "forged decode cannot restore the original");
        let again = cram.peek_line(line, &forged);
        assert_eq!(out, again, "garbage decode must be deterministic");
    }

    #[test]
    fn key_swap_corrupts_compressed_lines_only() {
        let mut cram = Cram::new(8);
        cram.set_fault_tolerant_decode(true);
        let comp = compressible_block(2);
        let plain = incompressible_block(31);
        let wc = cram.write_line(0, &comp);
        let wp = cram.write_line(1, &plain);
        assert!(!wp.compressed && !wp.exception);
        cram.swap_scrambler_key(0xDEAD_BEEF);
        let (out_c, _) = cram.read_line(0, &wc.image);
        assert_ne!(
            out_c, comp,
            "compressed payload was scrambled under the old key"
        );
        let (out_p, _) = cram.read_line(1, &wp.image);
        assert_eq!(out_p, plain, "verbatim lines carry no scrambling");
    }

    #[test]
    fn exception_bit_flip_is_detected_on_read() {
        let mut cram = Cram::new(9);
        cram.set_fault_tolerant_decode(true);
        let codec = cram.codec();
        let line = 3u64;
        let data = adversarial_block(&cram, codec.marker_word(), 6);
        let w = cram.write_line(line, &data);
        assert!(w.exception);
        assert!(!cram.fault_flip_exception_bit(999), "no parked bytes there");
        assert!(cram.fault_flip_exception_bit(line));
        let (out, info) = cram.read_line(line, &w.image);
        assert!(info.exception);
        assert_ne!(out, data, "corrupted parked bytes must surface");
        assert_eq!(&out[2..], &data[2..], "only the parked word differs");
    }

    #[test]
    fn implicit_hit_rate_tracks_compressed_reads() {
        let mut cram = Cram::new(10);
        let comp = compressible_block(1);
        let plain = incompressible_block(41);
        let wc = cram.write_line(0, &comp);
        let wp = cram.write_line(1, &plain);
        cram.read_line(0, &wc.image);
        cram.read_line(0, &wc.image);
        cram.read_line(1, &wp.image);
        cram.read_line(1, &wp.image);
        assert!((cram.stats().implicit_hit_rate() - 0.5).abs() < 1e-12);
        cram.reset_stats();
        assert_eq!(cram.stats().implicit_hit_rate(), 0.0);
    }
}
