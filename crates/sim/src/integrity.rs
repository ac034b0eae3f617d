//! End-to-end data integrity: device soft errors, the SEC-DED ECC
//! pipeline, poison propagation and per-strategy recovery accounting.
//!
//! # Layering
//!
//! The integrity engine models the device/controller boundary on the
//! **logical 64-byte block view** — the same bytes the mirror oracle
//! snapshots at writeback time. ECC sits *between* the DRAM cells and
//! the controller: by the time bytes reach the BLEM/CRAM decode chain
//! they have either been corrected, or the read was flagged poisoned
//! and a strategy recovery path re-sourced the data. Uncorrected device
//! errors therefore never enter the functional decode chain — which is
//! exactly why the mirror oracle stays green with ECC on, and why the
//! PR 5 fault classes (which corrupt *above* this layer: stored images,
//! header bits, scrambler keys) remain a disjoint threat model.
//!
//! # State model
//!
//! Per line, the device image is `clean ⊕ flips ⊕ sticky`:
//!
//! * `clean` — the bytes last written back (snapshotted exactly like the
//!   mirror oracle; pristine lines fall back to the deterministic
//!   boot-time contents). With ECC on, the stored check byte per word is
//!   always `encode(clean)` — writes encode fresh.
//! * `flips` — accumulated transient upsets from the seeded
//!   [`SoftErrorProcess`], deposited at touch time and **not** removed
//!   by a correction: ECC fixes the delivered data, not the cell. Only
//!   a rewrite (writeback, recovery, scrub) clears them — that is what
//!   makes patrol scrub worth its bandwidth.
//! * `sticky` — a per-line stuck cell (pure function of seed and line)
//!   that re-asserts after every rewrite.
//!
//! Flip positions use the codec's 576-bit layout (`word * 72 + bit`,
//! bits `64..72` being the check byte). With ECC off there is no check
//! storage, so check-bit flips are dropped and data-bit flips are
//! *silent*: the engine counts the reads that would have delivered
//! corrupted bytes and the amplification (a corrupted compressed line
//! garbles the whole 64-byte block; a verbatim line only the flipped
//! bytes), while the in-model delivered data stays clean — measurement
//! mode, not a corruption simulator.

use attache_core::fasthash::FastMap;
use attache_dram::ecc::{decode_line, encode_line, LineDecode};
use attache_dram::soft_error::{SoftErrorProcess, WORD_BITS};

use crate::backend::MemoryBackend;

/// Counters kept by the [`IntegrityEngine`]; exported on
/// [`RunReport`](crate::RunReport) when the engine is armed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Demand reads that went through the integrity check.
    pub reads_checked: u64,
    /// Transient flips deposited by the soft-error process.
    pub injected_flips: u64,
    /// Distinct lines with an active sticky cell seen by traffic.
    pub sticky_lines: u64,
    /// Single-bit word corrections on demand reads, per sub-rank.
    pub corrected: [u64; 2],
    /// Detected-uncorrectable words on demand reads, per sub-rank.
    pub uncorrectable: [u64; 2],
    /// Poisoned reads re-sourced by a strategy recovery path.
    pub recovered: u64,
    /// Poisoned reads surfaced as machine-check style outcomes (no
    /// recovery path): silent corruption averted by detection alone.
    pub sdc_averted: u64,
    /// Of those, reads whose data could not be re-sourced at all.
    pub data_loss: u64,
    /// ECC-off only: reads that delivered corrupted bytes undetected.
    pub silent_corruption_reads: u64,
    /// ECC-off only: corrupted data bytes delivered (the error-
    /// amplification numerator — a compressed line counts all 64).
    pub corrupted_bytes_delivered: u64,
    /// Background scrub line checks performed.
    pub scrub_checks: u64,
    /// Scrub checks that corrected (and cleaned) at least one word.
    pub scrub_corrected: u64,
    /// Scrub checks that found an uncorrectable word (left poisoned for
    /// the next demand read's recovery path).
    pub scrub_uncorrectable: u64,
    /// Scrub slots skipped because the controller was busy.
    pub scrub_skipped_busy: u64,
    /// ECC check bytes moved alongside data (the widened-bus tax).
    pub ecc_check_bytes: u64,
}

impl IntegrityStats {
    /// Total single-bit corrections on demand reads.
    pub fn total_corrected(&self) -> u64 {
        self.corrected[0] + self.corrected[1]
    }

    /// Total detected-uncorrectable words on demand reads.
    pub fn total_uncorrectable(&self) -> u64 {
        self.uncorrectable[0] + self.uncorrectable[1]
    }

    /// Corrupted bytes delivered per injected flip (the error
    /// amplification factor; zero when nothing was injected).
    pub fn amplification(&self) -> f64 {
        if self.injected_flips == 0 {
            0.0
        } else {
            self.corrupted_bytes_delivered as f64 / self.injected_flips as f64
        }
    }
}

/// What the integrity layer concluded about one demand read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccVerdict {
    /// No active error touched the line (or everything cancelled out).
    Clean,
    /// ECC corrected every errored word; delivered data is trustworthy.
    Corrected,
    /// At least one word is detected-uncorrectable: the line is poison
    /// and the strategy must run its recovery path (or account the
    /// loss).
    Poisoned,
    /// ECC is off and corrupted bytes went out undetected (accounted
    /// analytically; the functional model still serves clean data).
    Silent,
}

/// The per-run integrity state machine (owned by the strategy; `None`
/// when every integrity knob is off, for zero overhead).
#[derive(Debug)]
pub struct IntegrityEngine {
    ecc: bool,
    process: SoftErrorProcess,
    /// Bytes last written back per line (the device's clean image).
    clean: FastMap<u64, [u8; 64]>,
    /// Active transient flips per line, XOR semantics (a repeat upset of
    /// the same cell cancels). Positions use the 576-bit codec layout.
    flips: FastMap<u64, Vec<u16>>,
    /// Sticky lines already counted in `stats.sticky_lines`.
    sticky_seen: FastMap<u64, ()>,
    stats: IntegrityStats,
}

impl IntegrityEngine {
    /// An engine with soft errors at `ber_ppm` (0 = none) and ECC
    /// on/off. The seed keys the error process only.
    pub fn new(seed: u64, ber_ppm: u64, ecc: bool) -> Self {
        Self {
            ecc,
            process: SoftErrorProcess::new(seed, ber_ppm),
            clean: FastMap::default(),
            flips: FastMap::default(),
            sticky_seen: FastMap::default(),
            stats: IntegrityStats::default(),
        }
    }

    /// Whether the ECC pipeline is modeled (drives the +1 bus-cycle
    /// check latency and the check-byte bandwidth tax).
    pub fn ecc_enabled(&self) -> bool {
        self.ecc
    }

    /// Counter snapshot.
    pub fn stats(&self) -> IntegrityStats {
        self.stats
    }

    /// Clears the counters (warm-up boundary) while keeping the device
    /// state — sticky cells and still-latched transient flips are
    /// physical, not statistics.
    pub fn reset_stats(&mut self) {
        self.stats = IntegrityStats::default();
    }

    /// XORs `pos` into the line's transient-flip set.
    fn toggle_flip(&mut self, line: u64, pos: u16) {
        let set = self.flips.entry(line).or_default();
        if let Some(i) = set.iter().position(|&p| p == pos) {
            set.swap_remove(i);
            if set.is_empty() {
                self.flips.remove(&line);
            }
        } else {
            set.push(pos);
        }
    }

    /// The line's sticky cell, counting first sightings.
    fn sticky_of(&mut self, line: u64) -> Option<u16> {
        let s = self.process.sticky(line)?;
        if self.sticky_seen.insert(line, ()).is_none() {
            self.stats.sticky_lines += 1;
        }
        Some(s)
    }

    /// All active flip positions of `line` (transients ⊕ sticky), with
    /// check-bit positions dropped when ECC is off (no check storage).
    fn active_flips(&mut self, line: u64) -> Vec<u16> {
        let mut set = self.flips.get(&line).cloned().unwrap_or_default();
        if let Some(s) = self.sticky_of(line) {
            if let Some(i) = set.iter().position(|&p| p == s) {
                set.swap_remove(i);
            } else {
                set.push(s);
            }
        }
        if !self.ecc {
            set.retain(|&p| u32::from(p) % WORD_BITS < 64);
        }
        set
    }

    /// The device's clean image of `line`.
    fn clean_of(&self, line: u64, backend: &MemoryBackend) -> [u8; 64] {
        match self.clean.get(&line) {
            Some(b) => *b,
            None => backend.pristine_content(line),
        }
    }

    /// Materializes the corrupted stored image `(data, check)`.
    fn corrupted_image(
        &mut self,
        line: u64,
        backend: &MemoryBackend,
    ) -> ([u8; 64], [u8; 8], Vec<u16>) {
        let mut data = self.clean_of(line, backend);
        let mut check = encode_line(&data);
        let flips = self.active_flips(line);
        for &pos in &flips {
            let w = usize::from(pos) / WORD_BITS as usize;
            let b = u32::from(pos) % WORD_BITS;
            if b < 64 {
                data[w * 8 + (b / 8) as usize] ^= 1 << (b % 8);
            } else {
                check[w] ^= 1 << (b - 64);
            }
        }
        (data, check, flips)
    }

    /// Samples the soft-error process for one touch of `line`.
    fn sample(&mut self, line: u64) {
        if let Some(pos) = self.process.touch(line) {
            self.stats.injected_flips += 1;
            self.toggle_flip(line, pos);
        }
    }

    /// One demand read of `line`. `primary` is the line's home sub-rank
    /// (bytes `0..32`); `compressed` whether the stored layout is
    /// compressed (drives the check-byte tax and the amplification
    /// model). Returns what the controller saw.
    pub fn touch_read(
        &mut self,
        line: u64,
        primary: u8,
        compressed: bool,
        backend: &MemoryBackend,
    ) -> EccVerdict {
        self.stats.reads_checked += 1;
        self.sample(line);
        if self.ecc {
            self.stats.ecc_check_bytes += if compressed { 4 } else { 8 };
        }
        let (mut data, mut check, flips) = self.corrupted_image(line, backend);
        if flips.is_empty() {
            return EccVerdict::Clean;
        }
        if self.ecc {
            let d = decode_line(&mut data, &mut check);
            self.account_decode(&d, primary);
            if d.is_poisoned() {
                EccVerdict::Poisoned
            } else if d.corrected != 0 {
                EccVerdict::Corrected
            } else {
                EccVerdict::Clean
            }
        } else {
            // No ECC: corrupted data bytes go out undetected. Amplify
            // through the layout: a flipped bit in a compressed payload
            // garbles the whole decompressed block.
            let mut bytes = [false; 64];
            for &pos in &flips {
                let w = usize::from(pos) / WORD_BITS as usize;
                let b = u32::from(pos) % WORD_BITS;
                bytes[w * 8 + (b / 8) as usize] = true;
            }
            let distinct = bytes.iter().filter(|&&x| x).count() as u64;
            self.stats.silent_corruption_reads += 1;
            self.stats.corrupted_bytes_delivered += if compressed { 64 } else { distinct };
            EccVerdict::Silent
        }
    }

    /// Folds one line decode into the per-sub-rank counters. Word `w`
    /// covers bytes `8w..8w+8`: the first four words live in the home
    /// sub-rank, the rest in the other.
    fn account_decode(&mut self, d: &LineDecode, primary: u8) {
        for w in 0..8u8 {
            let sr = usize::from(if w < 4 { primary } else { 1 - primary });
            if d.corrected & (1 << w) != 0 {
                self.stats.corrected[sr] += 1;
            }
            if d.uncorrectable & (1 << w) != 0 {
                self.stats.uncorrectable[sr] += 1;
            }
        }
    }

    /// A writeback of `line`: snapshot the clean image, encode fresh
    /// check bytes, clear transient flips (the cells were rewritten; the
    /// sticky cell re-asserts by construction).
    pub fn note_write(&mut self, line: u64, bytes: &[u8; 64], compressed: bool) {
        self.clean.insert(line, *bytes);
        self.flips.remove(&line);
        if self.ecc {
            self.stats.ecc_check_bytes += if compressed { 4 } else { 8 };
        }
    }

    /// A strategy recovery path re-sourced the poisoned line (RA copy,
    /// exception store, or ideal re-read): the line is rewritten clean.
    pub fn recover(&mut self, line: u64) {
        self.flips.remove(&line);
        self.stats.recovered += 1;
    }

    /// No recovery path exists (Baseline): the detection is surfaced as
    /// a machine-check style outcome. The cell state is reset so
    /// subsequent traffic measures fresh errors, not one stuck event.
    pub fn surface_unrecoverable(&mut self, line: u64) {
        self.flips.remove(&line);
        self.stats.sdc_averted += 1;
        self.stats.data_loss += 1;
    }

    /// One background scrub check of `line`: a touch (scrubbing is
    /// reading), then — with ECC on — correctable words are rewritten
    /// clean while uncorrectable ones are left poisoned for the next
    /// demand read's recovery path. Returns whether the scrub found
    /// anything to do.
    pub fn scrub_line(&mut self, line: u64, backend: &MemoryBackend) -> LineDecode {
        self.stats.scrub_checks += 1;
        self.sample(line);
        if self.ecc {
            self.stats.ecc_check_bytes += 8;
        }
        let (mut data, mut check, flips) = self.corrupted_image(line, backend);
        if flips.is_empty() {
            return LineDecode::default();
        }
        if !self.ecc {
            // Without ECC a scrub read cannot even see the corruption.
            return LineDecode::default();
        }
        let d = decode_line(&mut data, &mut check);
        if d.is_poisoned() {
            self.stats.scrub_uncorrectable += 1;
        } else if d.corrected != 0 {
            // Every error was correctable: the scrubber writes the
            // corrected line back, clearing the accumulated transients.
            self.stats.scrub_corrected += 1;
            self.flips.remove(&line);
        }
        d
    }

    /// Accounts a scrub slot that found the controller busy.
    pub fn note_scrub_busy(&mut self) {
        self.stats.scrub_skipped_busy += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attache_workloads::Profile;

    fn backend() -> MemoryBackend {
        MemoryBackend::new(&[Profile::stream(), Profile::rand()], 9)
    }

    /// A rate that flips something on essentially every touch.
    const ALWAYS: u64 = 1_000_000;

    #[test]
    fn clean_lines_decode_clean() {
        let mut e = IntegrityEngine::new(1, 0, true);
        let b = backend();
        for line in 0..64 {
            assert_eq!(e.touch_read(line, 0, false, &b), EccVerdict::Clean);
        }
        let s = e.stats();
        assert_eq!(s.reads_checked, 64);
        assert_eq!(s.total_corrected() + s.total_uncorrectable(), 0);
        assert_eq!(s.ecc_check_bytes, 64 * 8);
    }

    #[test]
    fn single_flips_are_corrected_and_accumulate_to_uncorrectable() {
        let mut e = IntegrityEngine::new(7, ALWAYS, true);
        let b = backend();
        // Find a line whose first touch corrects: every touch deposits a
        // flip, so the first read of any non-sticky line has exactly one.
        let line = (0..512u64)
            .find(|&l| e.process.sticky(l).is_none())
            .unwrap();
        let v1 = e.touch_read(line, 0, false, &b);
        assert_eq!(v1, EccVerdict::Corrected);
        assert_eq!(e.stats().total_corrected(), 1);
        // Keep touching without rewriting: flips accumulate (XOR), so an
        // uncorrectable double error appears within a few touches.
        let mut poisoned = false;
        for _ in 0..64 {
            match e.touch_read(line, 0, false, &b) {
                EccVerdict::Poisoned => {
                    poisoned = true;
                    break;
                }
                v => assert_ne!(v, EccVerdict::Silent),
            }
        }
        assert!(poisoned, "accumulated flips must exceed SEC-DED");
        assert!(e.stats().total_uncorrectable() > 0);
    }

    #[test]
    fn writes_and_recovery_clear_transients() {
        let mut e = IntegrityEngine::new(3, ALWAYS, true);
        let b = backend();
        let line = (0..512u64)
            .find(|&l| e.process.sticky(l).is_none())
            .unwrap();
        assert_eq!(e.touch_read(line, 0, false, &b), EccVerdict::Corrected);
        // A writeback replaces the cells: the next touch sees only the
        // fresh flip it deposits itself.
        e.note_write(line, &b.content(line), false);
        assert_eq!(e.touch_read(line, 0, false, &b), EccVerdict::Corrected);
        e.recover(line);
        assert_eq!(e.stats().recovered, 1);
        assert_eq!(e.touch_read(line, 0, false, &b), EccVerdict::Corrected);
    }

    #[test]
    fn sticky_cells_reassert_after_rewrite() {
        let mut e = IntegrityEngine::new(11, 800_000, true);
        let b = backend();
        let sticky = (0..4096u64)
            .find(|&l| e.process.sticky(l).is_some())
            .expect("a sticky line exists at this rate");
        // Write, then read: the sticky flip must be back even though the
        // rewrite cleared every transient.
        e.note_write(sticky, &b.content(sticky), false);
        let v = e.touch_read(sticky, 0, false, &b);
        assert_ne!(v, EccVerdict::Clean, "sticky cell must re-assert");
        assert_eq!(e.stats().sticky_lines, 1);
    }

    #[test]
    fn ecc_off_counts_silent_corruption_and_amplification() {
        let mut e = IntegrityEngine::new(5, ALWAYS, false);
        let b = backend();
        let line = (0..512u64)
            .find(|&l| e.process.sticky(l).is_none())
            .unwrap();
        // Touch until a *data* bit flips (check-bit flips are dropped
        // with ECC off, decoding as Clean).
        let mut silent = 0u64;
        for _ in 0..32 {
            if e.touch_read(line, 0, false, &b) == EccVerdict::Silent {
                silent += 1;
            }
        }
        assert!(silent > 0, "data-bit flips must surface as Silent");
        let s = e.stats();
        assert_eq!(s.silent_corruption_reads, silent);
        assert!(s.corrupted_bytes_delivered >= silent);
        assert_eq!(s.ecc_check_bytes, 0, "no ECC, no check traffic");
        // A compressed layout amplifies to the full block.
        e.flips.clear();
        let mut e2 = IntegrityEngine::new(5, ALWAYS, false);
        let mut seen_compressed_amp = false;
        for _ in 0..32 {
            let before = e2.stats().corrupted_bytes_delivered;
            if e2.touch_read(line, 0, true, &b) == EccVerdict::Silent {
                assert_eq!(e2.stats().corrupted_bytes_delivered - before, 64);
                seen_compressed_amp = true;
                break;
            }
        }
        assert!(seen_compressed_amp);
    }

    #[test]
    fn scrub_corrects_singles_and_leaves_doubles_poisoned() {
        let mut e = IntegrityEngine::new(13, 0, true);
        let b = backend();
        // Hand-plant flips to make the scrub outcome exact.
        e.toggle_flip(10, 3); // single data flip in word 0
        let d = e.scrub_line(10, &b);
        assert_eq!(d.corrected, 1);
        assert!(!e.flips.contains_key(&10), "scrub rewrites the line");
        e.toggle_flip(11, 3);
        e.toggle_flip(11, 7); // double flip in word 0
        let d = e.scrub_line(11, &b);
        assert!(d.is_poisoned());
        assert!(e.flips.contains_key(&11), "poison left for recovery");
        let s = e.stats();
        assert_eq!(s.scrub_checks, 2);
        assert_eq!(s.scrub_corrected, 1);
        assert_eq!(s.scrub_uncorrectable, 1);
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let b = backend();
        let run = || {
            let mut e = IntegrityEngine::new(99, 200_000, true);
            for t in 0..2_000u64 {
                let line = (t * 31) % 512;
                let _ = e.touch_read(line, (line % 2) as u8, line % 3 == 0, &b);
                if t % 17 == 0 {
                    e.note_write(line, &b.content(line), false);
                }
                if t % 29 == 0 {
                    let _ = e.scrub_line((t * 7) % 512, &b);
                }
            }
            e.stats()
        };
        assert_eq!(run(), run());
    }
}
