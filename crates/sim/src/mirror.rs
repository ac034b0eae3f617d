//! The mirror-memory oracle: an independent shadow copy of "what should
//! be stored" per line, used to catch silent data corruption anywhere in
//! the strategy stack.
//!
//! Attaché folds metadata *into* the stored line (CID/XID header bits,
//! scrambling, the Replacement Area for displaced bits), so a bug in any
//! of those layers corrupts data silently — the simulator would keep
//! producing plausible timing numbers from garbage contents. The oracle
//! closes that hole: every writeback records the exact 64 bytes the
//! strategy was asked to store, and every demand read that goes through
//! the functional decode path re-checks the decoded bytes against that
//! record. Zero model state is shared with the strategies: the oracle is
//! a plain `line → bytes` map.
//!
//! Enablement is per-run: `SimConfig::mirror` (builder
//! [`crate::SimConfig::with_mirror`], or `ATTACHE_MIRROR=1` in the
//! environment, read per config construction so tests can toggle it).
//! The oracle is a pure observer — it never changes timing, stats, or
//! request streams — so enabling it in CI is behavior-neutral.
//!
//! Process-wide counters ([`global_stats`]) let end-to-end suites assert
//! the oracle actually observed traffic (a disabled oracle that reports
//! "zero mismatches" vacuously would be worse than none).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A 64-byte cache line, the unit the oracle records.
pub type MirrorLine = [u8; 64];

static GLOBAL_WRITES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_READS: AtomicU64 = AtomicU64::new(0);

/// Monotonic process-wide oracle activity counters, summed over every
/// oracle instance that ever ran in this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MirrorGlobalStats {
    /// Writebacks recorded into any mirror.
    pub writes_recorded: u64,
    /// Demand reads checked against any mirror.
    pub reads_checked: u64,
}

/// Snapshot of the process-wide counters. Monotonic: suites assert deltas
/// across a run rather than absolute values, so concurrently running
/// tests only ever add.
pub fn global_stats() -> MirrorGlobalStats {
    MirrorGlobalStats {
        writes_recorded: GLOBAL_WRITES.load(Ordering::Relaxed),
        reads_checked: GLOBAL_READS.load(Ordering::Relaxed),
    }
}

/// Per-oracle activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MirrorStats {
    /// Writebacks recorded.
    pub writes_recorded: u64,
    /// Reads checked byte-for-byte against the shadow copy.
    pub reads_checked: u64,
}

/// A detected divergence between what was stored and what a read decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MirrorMismatch {
    /// The line address that diverged.
    pub line: u64,
    /// The bytes recorded at writeback time.
    pub expected: MirrorLine,
    /// The bytes the read path returned.
    pub got: MirrorLine,
}

impl fmt::Display for MirrorMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "mirror-memory mismatch at line {:#x} ({} byte(s) differ)",
            self.line,
            self.expected
                .iter()
                .zip(&self.got)
                .filter(|(a, b)| a != b)
                .count()
        )?;
        for (i, (e, g)) in self.expected.iter().zip(&self.got).enumerate() {
            if e != g {
                writeln!(f, "  byte {i:2}: stored {e:#04x}, read back {g:#04x}")?;
            }
        }
        Ok(())
    }
}

/// The shadow map: last bytes written per line, as handed to the
/// strategy at writeback time.
///
/// Note the recording point deliberately snapshots the backend contents
/// *at writeback planning time*: the functional backend advances line
/// versions when stores are issued to the LLC, so by the time a dirty
/// line is evicted the live contents may already describe a newer write.
/// What must survive DRAM is exactly what the strategy encoded.
#[derive(Debug, Default)]
pub struct MirrorOracle {
    map: HashMap<u64, MirrorLine>,
    stats: MirrorStats,
    poison: bool,
}

impl MirrorOracle {
    /// An empty mirror.
    pub fn new() -> Self {
        Self::default()
    }

    /// Test hook: corrupt byte 0 of every record at write time, so the
    /// first checked re-read of a written-back line reports a mismatch.
    /// Used to exercise the failure-reporting path (the panic message
    /// and its attached trace-ring dump) end to end.
    pub fn poison(&mut self) {
        self.poison = true;
    }

    /// Records `bytes` as the authoritative contents of `line`.
    pub fn record_write(&mut self, line: u64, bytes: &MirrorLine) {
        let mut stored = *bytes;
        if self.poison {
            stored[0] ^= 0xFF;
        }
        self.map.insert(line, stored);
        self.stats.writes_recorded += 1;
        GLOBAL_WRITES.fetch_add(1, Ordering::Relaxed);
    }

    /// The recorded contents of `line`, if it was ever written.
    pub fn recorded(&self, line: u64) -> Option<&MirrorLine> {
        self.map.get(&line)
    }

    /// Overwrites the record for `line` without touching activity
    /// counters or the poison hook. Used by the fault-injection recovery
    /// path: after a mismatch is attributed to an injected fault, the
    /// record is re-aligned to what the (corrupted) memory now decodes
    /// to, so the run continues and only *new* divergences fire.
    pub fn heal(&mut self, line: u64, bytes: &MirrorLine) {
        self.map.insert(line, *bytes);
    }

    /// Checks bytes returned by a read of `line` against the record.
    ///
    /// Lines with no record (never written back — still pristine) are
    /// not checked here; callers assert that invariant separately
    /// because "no record" means the read must have gone down the
    /// pristine path, which is itself worth verifying.
    pub fn check_read(&mut self, line: u64, got: &MirrorLine) -> Result<(), Box<MirrorMismatch>> {
        self.stats.reads_checked += 1;
        GLOBAL_READS.fetch_add(1, Ordering::Relaxed);
        match self.map.get(&line) {
            Some(expected) if expected != got => Err(Box::new(MirrorMismatch {
                line,
                expected: *expected,
                got: *got,
            })),
            _ => Ok(()),
        }
    }

    /// Activity counters for this oracle.
    pub fn stats(&self) -> MirrorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterned(fill: u8) -> MirrorLine {
        let mut b = [0u8; 64];
        for (i, byte) in b.iter_mut().enumerate() {
            *byte = fill.wrapping_add(i as u8);
        }
        b
    }

    #[test]
    fn matching_read_passes() {
        let mut m = MirrorOracle::new();
        m.record_write(7, &patterned(3));
        assert!(m.check_read(7, &patterned(3)).is_ok());
        assert_eq!(m.stats().writes_recorded, 1);
        assert_eq!(m.stats().reads_checked, 1);
    }

    #[test]
    fn injected_corruption_is_caught() {
        // The acceptance gate: a deliberately flipped byte must surface.
        let mut m = MirrorOracle::new();
        m.record_write(42, &patterned(0));
        let mut corrupted = patterned(0);
        corrupted[17] ^= 0x80;
        let err = m
            .check_read(42, &corrupted)
            .expect_err("must catch the flip");
        assert_eq!(err.line, 42);
        let msg = err.to_string();
        assert!(
            msg.contains("byte 17"),
            "diagnostic must name the byte: {msg}"
        );
        assert!(msg.contains("1 byte(s) differ"), "diagnostic: {msg}");
    }

    #[test]
    fn rewrites_update_the_record() {
        let mut m = MirrorOracle::new();
        m.record_write(9, &patterned(1));
        m.record_write(9, &patterned(2));
        assert!(m.check_read(9, &patterned(2)).is_ok());
        assert!(m.check_read(9, &patterned(1)).is_err());
    }

    #[test]
    fn unrecorded_lines_are_not_flagged() {
        let mut m = MirrorOracle::new();
        assert!(m.check_read(1, &patterned(5)).is_ok());
        assert!(m.recorded(1).is_none());
    }

    #[test]
    fn global_counters_are_monotonic() {
        let before = global_stats();
        let mut m = MirrorOracle::new();
        m.record_write(1, &patterned(0));
        let _ = m.check_read(1, &patterned(0));
        let after = global_stats();
        assert!(after.writes_recorded > before.writes_recorded);
        assert!(after.reads_checked > before.reads_checked);
    }
}
