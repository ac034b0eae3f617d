//! BLEM — the Blended Metadata Engine (§IV-A/IV-B, Fig. 9).
//!
//! BLEM stores a block's compression metadata *inside* the block:
//!
//! * **Compressed** lines (≤30 bytes after BDI/FPC) are stored as a 2-byte
//!   Metadata-Header (`CID | algorithm | XID=0`) followed by the scrambled
//!   payload — 32 bytes total, one sub-rank beat.
//! * **Uncompressed** lines are stored verbatim (scrambled). If the
//!   scrambled image's top bits happen to equal the CID (a collision,
//!   probability `2^-cid_bits`), the XID bit is proactively forced to 1 and
//!   the displaced data bit is parked in the [Replacement
//!   Area](crate::replacement_area).
//!
//! On a read, the controller inspects the first two bytes: CID mismatch ⇒
//! uncompressed; CID match + XID=0 ⇒ compressed; CID match + XID=1 ⇒
//! collision (fetch the displaced bit from the RA). Metadata therefore
//! travels with data, and extra accesses happen only on collisions —
//! 0.003%-0.006% of uncompressed traffic.

use crate::memo::MemoizedEngine;
use attache_compress::{Block, Compressed, CompressionEngine, CompressionOutcome, BLOCK_SIZE};

use crate::header::{CidConfig, CidValue, HeaderMatch};
use crate::replacement_area::{ReplacementArea, ReplacementAreaStats};
use crate::scramble::Scrambler;

/// The physical image of a block as stored in DRAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoredImage {
    /// Header + scrambled compressed payload, padded to one sub-rank beat.
    Compressed([u8; 32]),
    /// The scrambled 64-byte block (XID-modified on collision).
    Uncompressed([u8; BLOCK_SIZE]),
}

impl StoredImage {
    /// The first 32 bytes — what a single sub-rank read returns. For
    /// uncompressed lines this is the header-bearing half (the simulator
    /// fetches that half first by construction, §IV-E).
    pub fn first_half(&self) -> [u8; 32] {
        match self {
            StoredImage::Compressed(b) => *b,
            StoredImage::Uncompressed(b) => b[..32].try_into().expect("32-byte half"),
        }
    }

    /// Whether this image occupies a single sub-rank.
    pub fn is_compressed(&self) -> bool {
        matches!(self, StoredImage::Compressed(_))
    }

    /// Bytes occupied in DRAM (32 or 64).
    pub fn stored_bytes(&self) -> usize {
        match self {
            StoredImage::Compressed(_) => 32,
            StoredImage::Uncompressed(_) => 64,
        }
    }
}

/// What a write did (Fig. 9 a-c).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOutcome {
    /// The image to store.
    pub image: StoredImage,
    /// Whether the block compressed to the sub-rank target.
    pub compressed: bool,
    /// A CID collision occurred (uncompressed line): the Replacement Area
    /// was written and the memory controller must issue an RA write.
    pub collision: bool,
}

/// What a read learned (Fig. 9 d-f).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadInfo {
    /// The line was compressed (CID matched with XID=0).
    pub compressed: bool,
    /// A CID collision was detected (CID matched with XID=1): the
    /// Replacement Area was read and the controller must issue an RA read.
    pub collision: bool,
}

/// Running BLEM counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlemStats {
    /// Lines written.
    pub writes: u64,
    /// Writes that compressed to ≤30 bytes.
    pub compressed_writes: u64,
    /// Write-time CID collisions.
    pub write_collisions: u64,
    /// Lines read.
    pub reads: u64,
    /// Reads of compressed lines.
    pub compressed_reads: u64,
    /// Read-time CID collisions.
    pub read_collisions: u64,
}

/// The Blended Metadata Engine.
///
/// # Example
///
/// ```
/// use attache_core::blem::Blem;
///
/// let mut blem = Blem::new(42);
/// let zeros = [0u8; 64];
/// let w = blem.write_line(7, &zeros);
/// assert!(w.compressed);
/// let (data, info) = blem.read_line(7, &w.image);
/// assert_eq!(data, zeros);
/// assert!(info.compressed);
/// ```
#[derive(Debug, Clone)]
pub struct Blem {
    engine: MemoizedEngine,
    scrambler: Scrambler,
    cid: CidValue,
    ra: ReplacementArea,
    stats: BlemStats,
    /// Collisions whose XID bit was actually flipped 0→1 (the displaced
    /// bit was a 0). Observability-only: kept outside [`BlemStats`]
    /// because that struct is embedded in `RunReport`.
    xid_flips: u64,
    /// When set, a compressed payload that no longer parses decodes to a
    /// deterministic garbage block instead of panicking. Only the fault
    /// injector turns this on — a corrupt image without injected faults
    /// is a simulator bug and must keep crashing loudly.
    fault_tolerant: bool,
}

impl Blem {
    /// Creates a BLEM engine with the dual-algorithm (14-bit CID) header,
    /// drawing the boot-time CID and scrambler key from `seed`.
    pub fn new(seed: u64) -> Self {
        Self::with_config(seed, CidConfig::dual_algorithm())
    }

    /// Creates a BLEM engine with an explicit header layout.
    ///
    /// # Panics
    ///
    /// Panics if the layout has no information bit to select between BDI
    /// and FPC (the dual-algorithm engine needs `cid_bits <= 14`).
    pub fn with_config(seed: u64, config: CidConfig) -> Self {
        assert!(
            config.info_bits() >= 1,
            "dual-algorithm BLEM needs at least one info bit (cid_bits <= 14)"
        );
        Self {
            engine: MemoizedEngine::new(),
            scrambler: Scrambler::new(seed ^ 0xA5A5_5A5A_F0F0_0F0F),
            cid: CidValue::from_seed(seed, config),
            ra: ReplacementArea::new(),
            stats: BlemStats::default(),
            xid_flips: 0,
            fault_tolerant: false,
        }
    }

    /// Fault-injection hook: decode corrupted compressed payloads to a
    /// deterministic garbage block instead of panicking (the mirror
    /// oracle then flags the mismatch and attributes it to a fault class).
    pub fn set_fault_tolerant_decode(&mut self, on: bool) {
        self.fault_tolerant = on;
    }

    /// Fault-injection hook: replaces the address-keyed scrambler key
    /// mid-run, as if the boot-time key register were corrupted. Every
    /// line stored under the old key now descrambles to garbage.
    pub fn swap_scrambler_key(&mut self, seed: u64) {
        self.scrambler = Scrambler::new(seed);
    }

    /// Fault-injection hook: flips `line_addr`'s displaced bit in the
    /// Replacement Area, if one exists; returns whether a bit was
    /// flipped. No RA stats are counted (silent corruption, not an
    /// access).
    pub fn fault_flip_ra_bit(&mut self, line_addr: u64) -> bool {
        self.ra.fault_flip_bit(line_addr)
    }

    /// Decodes `image` exactly as [`read_line`](Blem::read_line) would,
    /// with **zero** side effects: no stats, no RA access counters, no
    /// collision bookkeeping. The fault injector uses this to classify a
    /// corruption as absorbed (decodes identically) or pending (decode
    /// changed) before the line is ever demand-read.
    pub fn peek_line(&self, line_addr: u64, image: &StoredImage) -> Block {
        match image {
            StoredImage::Compressed(bytes) => {
                let m = self.inspect(bytes);
                if !m.is_compressed() {
                    return Self::garbage_block(line_addr);
                }
                let algorithm = self.cid.algorithm_from_info(m.info);
                let mut payload = [0u8; 30];
                payload.copy_from_slice(&bytes[2..]);
                self.scrambler.scramble_slice(line_addr, &mut payload);
                self.engine
                    .try_decompress(&CompressionOutcome::Compressed(Compressed::from_parts(
                        algorithm, &payload,
                    )))
                    .unwrap_or_else(|| Self::garbage_block(line_addr))
            }
            StoredImage::Uncompressed(bytes) => {
                let header = u16::from_be_bytes([bytes[0], bytes[1]]);
                let m = self.cid.parse_header(header);
                let mut stored = *bytes;
                if m.cid_matches {
                    let displaced = self.ra.peek_bit(line_addr).unwrap_or(false);
                    let restored = if displaced { header | 1 } else { header & !1 };
                    stored[..2].copy_from_slice(&restored.to_be_bytes());
                }
                self.scrambler.descramble(line_addr, &stored)
            }
        }
    }

    /// A deterministic, line-addressed garbage block: what a corrupted
    /// compressed image decodes to when its payload no longer parses.
    /// Any fixed function works (the mirror oracle flags the mismatch
    /// regardless), but it must depend only on the line address so both
    /// engines decode identical garbage at identical ticks.
    fn garbage_block(line_addr: u64) -> Block {
        let mut b = [0u8; BLOCK_SIZE];
        let mut z = line_addr ^ 0x9E37_79B9_7F4A_7C15;
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

    /// The boot-time CID register.
    pub fn cid(&self) -> CidValue {
        self.cid
    }

    /// The compression engine (shared with the requester for Fig. 4 style
    /// analyses).
    pub fn engine(&self) -> &CompressionEngine {
        self.engine.inner()
    }

    /// Whether `data` compresses to the sub-rank target, answered through
    /// the content-keyed memo — the hot half of [`probe_line`].
    pub fn fits_subrank(&self, data: &Block) -> bool {
        self.engine.fits_subrank(data)
    }

    /// Running counters.
    pub fn stats(&self) -> BlemStats {
        self.stats
    }

    /// Replacement-Area counters.
    pub fn ra_stats(&self) -> ReplacementAreaStats {
        self.ra.stats()
    }

    /// Collisions where forcing XID to 1 changed the stored bit (the
    /// displaced bit was 0); the complement of the collisions whose
    /// header already carried XID = 1.
    pub fn xid_flips(&self) -> u64 {
        self.xid_flips
    }

    /// Resets counters after warm-up.
    pub fn reset_stats(&mut self) {
        self.stats = BlemStats::default();
        self.xid_flips = 0;
        self.ra.reset_stats();
    }

    /// Write path (Fig. 9 a-c): compress, blend the header, scramble,
    /// detect collisions.
    pub fn write_line(&mut self, line_addr: u64, data: &Block) -> WriteOutcome {
        self.stats.writes += 1;
        let outcome = self.engine.compress(data);
        if outcome.fits_subrank() {
            let image = self.encode_compressed(line_addr, &outcome);
            self.stats.compressed_writes += 1;
            return WriteOutcome {
                image: StoredImage::Compressed(image),
                compressed: true,
                collision: false,
            };
        }

        // Uncompressed: store scrambled; check for a CID collision.
        let mut stored = self.scrambler.scramble(line_addr, data);
        let header = u16::from_be_bytes([stored[0], stored[1]]);
        let m = self.cid.parse_header(header);
        let collision = m.cid_matches;
        if collision {
            self.stats.write_collisions += 1;
            let displaced = header & 1 != 0;
            if !displaced {
                self.xid_flips += 1;
            }
            self.ra.store_bit(line_addr, displaced);
            let forced = header | 1; // XID = 1
            stored[..2].copy_from_slice(&forced.to_be_bytes());
        }
        WriteOutcome {
            image: StoredImage::Uncompressed(stored),
            compressed: false,
            collision,
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
        let header = self.cid.encode_header(c.algorithm());
        let mut image = [0u8; 32];
        image[..2].copy_from_slice(&header.to_be_bytes());
        image[2..2 + len].copy_from_slice(&payload[..len]);
        image
    }

    /// Computes, without any side effects, how `data` would be stored at
    /// `line_addr`: `(compressed, collision)`.
    ///
    /// This is the pure counterpart of [`write_line`](Blem::write_line) —
    /// used by the simulator for lines that were never written back, whose
    /// stored image is a deterministic function of the pristine contents.
    pub fn probe_line(&self, line_addr: u64, data: &Block) -> (bool, bool) {
        if self.engine.fits_subrank(data) {
            return (true, false);
        }
        let pad = self.scrambler.pad(line_addr);
        let header = u16::from_be_bytes([data[0] ^ pad[0], data[1] ^ pad[1]]);
        let collision = self.cid.parse_header(header).cid_matches;
        (false, collision)
    }

    /// Inspects a stored first half exactly as the controller does after a
    /// sub-rank read returns: compare the top bits against the CID.
    pub fn inspect(&self, first_half: &[u8; 32]) -> HeaderMatch {
        self.cid
            .parse_header(u16::from_be_bytes([first_half[0], first_half[1]]))
    }

    /// Read path (Fig. 9 d-f): interpret the header, descramble,
    /// decompress, and service collisions from the Replacement Area.
    pub fn read_line(&mut self, line_addr: u64, image: &StoredImage) -> (Block, ReadInfo) {
        self.stats.reads += 1;
        match image {
            StoredImage::Compressed(bytes) => {
                let m = self.inspect(bytes);
                debug_assert!(
                    self.fault_tolerant || m.is_compressed(),
                    "compressed image must carry the CID"
                );
                self.stats.compressed_reads += 1;
                let info = ReadInfo {
                    compressed: true,
                    collision: false,
                };
                if self.fault_tolerant && !m.is_compressed() {
                    return (Self::garbage_block(line_addr), info);
                }
                let algorithm = self.cid.algorithm_from_info(m.info);
                let mut payload = [0u8; 30];
                payload.copy_from_slice(&bytes[2..]);
                self.scrambler.scramble_slice(line_addr, &mut payload);
                let outcome =
                    CompressionOutcome::Compressed(Compressed::from_parts(algorithm, &payload));
                let block = if self.fault_tolerant {
                    self.engine
                        .try_decompress(&outcome)
                        .unwrap_or_else(|| Self::garbage_block(line_addr))
                } else {
                    self.engine().decompress(&outcome)
                };
                (block, info)
            }
            StoredImage::Uncompressed(bytes) => {
                let header = u16::from_be_bytes([bytes[0], bytes[1]]);
                let m = self.cid.parse_header(header);
                let mut stored = *bytes;
                let collision = if m.cid_matches {
                    debug_assert!(
                        m.xid,
                        "uncompressed line with CID match must have XID forced to 1"
                    );
                    self.stats.read_collisions += 1;
                    let displaced = self.ra.load_bit(line_addr);
                    let restored = if displaced { header | 1 } else { header & !1 };
                    stored[..2].copy_from_slice(&restored.to_be_bytes());
                    true
                } else {
                    false
                };
                let block = self.scrambler.descramble(line_addr, &stored);
                (
                    block,
                    ReadInfo {
                        compressed: false,
                        collision,
                    },
                )
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

    #[test]
    fn compressed_roundtrip() {
        let mut blem = Blem::new(1);
        for i in 0..100u64 {
            let data = compressible_block(i * 13);
            let w = blem.write_line(i, &data);
            assert!(w.compressed, "line {i}");
            assert_eq!(w.image.stored_bytes(), 32);
            let (out, info) = blem.read_line(i, &w.image);
            assert_eq!(out, data, "line {i}");
            assert!(info.compressed);
        }
        assert_eq!(blem.stats().compressed_writes, 100);
        assert_eq!(blem.stats().compressed_reads, 100);
    }

    #[test]
    fn uncompressed_roundtrip() {
        let mut blem = Blem::new(2);
        let mut collisions = 0;
        for i in 0..2_000u64 {
            let data = incompressible_block(i + 1);
            let w = blem.write_line(i, &data);
            if w.compressed {
                continue; // rare: random block happened to compress
            }
            collisions += w.collision as u64;
            let (out, info) = blem.read_line(i, &w.image);
            assert_eq!(out, data, "line {i}");
            assert!(!info.compressed);
            assert_eq!(info.collision, w.collision);
        }
        // 2000 * 2^-14 ≈ 0.12 expected collisions; just sanity-bound it.
        assert!(collisions < 10);
    }

    #[test]
    fn forced_collision_roundtrips_through_replacement_area() {
        let mut blem = Blem::new(3);
        let line = 99u64;
        // Construct data that *scrambles into* a CID-matching header and is
        // incompressible: desired stored image = CID match + random body.
        let cid = blem.cid();
        for xid_bit in [0u16, 1u16] {
            let mut desired = incompressible_block(0xDEAD + xid_bit as u64);
            let header = (cid.value() << (16 - cid.config().cid_bits)) | xid_bit;
            desired[..2].copy_from_slice(&header.to_be_bytes());
            // The data that produces `desired` after scrambling:
            let data = blem.scrambler.descramble(line, &desired);
            if blem.engine().compress(&data).fits_subrank() {
                continue; // engineered block must stay incompressible
            }
            let w = blem.write_line(line, &data);
            assert!(!w.compressed);
            assert!(w.collision, "top bits match CID => collision");
            // The stored image must carry XID=1 no matter the original bit.
            let stored_header =
                u16::from_be_bytes([w.image.first_half()[0], w.image.first_half()[1]]);
            assert_eq!(stored_header & 1, 1);
            let (out, info) = blem.read_line(line, &w.image);
            assert_eq!(out, data, "displaced bit {xid_bit} must be restored");
            assert!(info.collision);
        }
        assert!(blem.ra_stats().writes >= 1);
        assert!(blem.ra_stats().reads >= 1);
    }

    #[test]
    fn collision_rate_matches_cid_width() {
        // With a short CID the collision rate is measurable: cid_bits=8
        // => ~1/256 of uncompressed writes collide.
        let mut blem = Blem::with_config(7, CidConfig::new(8));
        let n = 40_000u64;
        for i in 0..n {
            let data = incompressible_block(i * 3 + 1);
            blem.write_line(i, &data);
        }
        let s = blem.stats();
        let uncompressed = s.writes - s.compressed_writes;
        let rate = s.write_collisions as f64 / uncompressed as f64;
        let expected = 1.0 / 256.0;
        assert!(
            (rate - expected).abs() < expected * 0.5,
            "rate {rate:.5} vs expected {expected:.5}"
        );
    }

    #[test]
    fn inspect_distinguishes_line_kinds() {
        let mut blem = Blem::new(5);
        let w_c = blem.write_line(1, &compressible_block(1));
        assert!(blem.inspect(&w_c.image.first_half()).is_compressed());
        let w_u = blem.write_line(2, &incompressible_block(1));
        if !w_u.compressed && !w_u.collision {
            assert!(!blem.inspect(&w_u.image.first_half()).cid_matches);
        }
    }

    #[test]
    fn overwriting_a_line_updates_it() {
        let mut blem = Blem::new(6);
        let a = compressible_block(5);
        let b = incompressible_block(17);
        let w1 = blem.write_line(0, &a);
        let (r1, _) = blem.read_line(0, &w1.image);
        assert_eq!(r1, a);
        let w2 = blem.write_line(0, &b);
        let (r2, _) = blem.read_line(0, &w2.image);
        assert_eq!(r2, b);
    }

    #[test]
    fn probe_line_matches_write_line() {
        let mut blem = Blem::new(11);
        for i in 0..500u64 {
            let data = if i % 2 == 0 {
                compressible_block(i)
            } else {
                incompressible_block(i)
            };
            let (probe_comp, probe_coll) = blem.probe_line(i, &data);
            let w = blem.write_line(i, &data);
            assert_eq!(probe_comp, w.compressed, "line {i}");
            assert_eq!(probe_coll, w.collision, "line {i}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one info bit")]
    fn fifteen_bit_cid_rejected_for_dual_algorithm() {
        let _ = Blem::with_config(0, CidConfig::single_algorithm());
    }
}
