//! DRAM organization, timing parameters, and physical address mapping.

/// DDR timing parameters, all in **memory-bus cycles** (1600 MHz in the
/// paper's Table II, so 1 cycle = 0.625 ns).
///
/// The headline trio (tRCD-tRP-tCAS = 22-22-22) comes straight from
/// Table II; the remaining constraints are standard JEDEC DDR4 values for
/// that speed grade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// ACT to internal read/write delay.
    pub t_rcd: u64,
    /// PRE to ACT delay.
    pub t_rp: u64,
    /// Read CAS latency (CL).
    pub t_cas: u64,
    /// Write CAS latency (CWL).
    pub t_cwl: u64,
    /// ACT to PRE minimum.
    pub t_ras: u64,
    /// ACT to ACT (same bank) minimum.
    pub t_rc: u64,
    /// Write recovery: end of write data to PRE.
    pub t_wr: u64,
    /// Write-to-read turnaround (end of write data to next READ command).
    pub t_wtr: u64,
    /// Read to PRE minimum.
    pub t_rtp: u64,
    /// CAS-to-CAS minimum on the same sub-rank data bus.
    pub t_ccd: u64,
    /// ACT to ACT across banks of the same rank.
    pub t_rrd: u64,
    /// Four-activate window.
    pub t_faw: u64,
    /// Refresh cycle time.
    pub t_rfc: u64,
    /// Refresh interval.
    pub t_refi: u64,
    /// Data burst duration (BL8 on a DDR interface = 4 bus cycles).
    pub t_burst: u64,
}

impl Timing {
    /// Table II timings: 22-22-22 at a 1600 MHz bus, tRFC=350ns,
    /// tREFI=7.8µs; the rest are JEDEC-typical for this grade.
    pub fn table2() -> Self {
        Self {
            t_rcd: 22,
            t_rp: 22,
            t_cas: 22,
            t_cwl: 16,
            t_ras: 52,
            t_rc: 74,
            t_wr: 24,
            t_wtr: 12,
            t_rtp: 12,
            t_ccd: 4,
            t_rrd: 8,
            t_faw: 40,
            t_rfc: 560,     // 350 ns * 1.6 GHz
            t_refi: 12_480, // 7.8 µs * 1.6 GHz
            t_burst: 4,
        }
    }

    /// Read-command to write-command minimum spacing on one data bus.
    pub fn read_to_write(&self) -> u64 {
        self.t_cas + self.t_burst + 2 - self.t_cwl
    }

    /// Write-command to read-command minimum spacing on one data bus.
    pub fn write_to_read(&self) -> u64 {
        self.t_cwl + self.t_burst + self.t_wtr
    }
}

impl Default for Timing {
    fn default() -> Self {
        Self::table2()
    }
}

/// Geometry and policy parameters for the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Independent channels (Table II: 2).
    pub channels: usize,
    /// Ranks per channel (Table II: 1).
    pub ranks: usize,
    /// Bank groups per rank (Table II: 4).
    pub bank_groups: usize,
    /// Banks per bank group (Table II: 4).
    pub banks_per_group: usize,
    /// Rows per bank (Table II: 64K).
    pub rows: usize,
    /// 64-byte blocks per row (Table II: 128, i.e. an 8KB row).
    pub blocks_per_row: usize,
    /// Sub-ranks per rank (2 chip-select groups of 4 chips).
    pub subranks: usize,
    /// Timing parameters.
    pub timing: Timing,
    /// Read queue capacity per channel; at most 64 (the scheduler's
    /// candidate index keeps one bit per queue position in a `u64`, and
    /// [`Channel::new`](crate::Channel::new) refuses more).
    pub read_queue_capacity: usize,
    /// Write queue capacity per channel; at most 64, like
    /// [`read_queue_capacity`](Self::read_queue_capacity).
    pub write_queue_capacity: usize,
    /// Write drain starts when the write queue reaches this fill level.
    pub write_high_watermark: usize,
    /// Write drain stops when the write queue falls to this level.
    pub write_low_watermark: usize,
}

impl DramConfig {
    /// The paper's Table II memory system: 2 channels x 1 rank x 16 banks,
    /// 64K rows of 8KB, two sub-ranks per rank.
    pub fn table2() -> Self {
        Self {
            channels: 2,
            ranks: 1,
            bank_groups: 4,
            banks_per_group: 4,
            rows: 64 * 1024,
            blocks_per_row: 128,
            subranks: 2,
            timing: Timing::table2(),
            read_queue_capacity: 32,
            write_queue_capacity: 64,
            write_high_watermark: 48,
            write_low_watermark: 16,
        }
    }

    /// The production-scale memory system the ROADMAP targets: Table II
    /// widened to 8 channels (the per-channel geometry, sub-ranking and
    /// timing are unchanged).
    pub fn scale8() -> Self {
        Self {
            channels: 8,
            ..Self::table2()
        }
    }

    /// Banks per rank.
    pub fn banks(&self) -> usize {
        self.bank_groups * self.banks_per_group
    }

    /// Total capacity in bytes across all channels.
    pub fn capacity_bytes(&self) -> u64 {
        self.channels as u64
            * self.ranks as u64
            * self.banks() as u64
            * self.rows as u64
            * self.blocks_per_row as u64
            * 64
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::table2()
    }
}

/// A fully decomposed physical block location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank group index.
    pub bank_group: usize,
    /// Bank index within the group.
    pub bank: usize,
    /// Row index.
    pub row: usize,
    /// Block (column group) index within the row.
    pub col: usize,
}

impl Location {
    /// Flat bank index within the rank.
    pub fn flat_bank(&self, cfg: &DramConfig) -> usize {
        self.bank_group * cfg.banks_per_group + self.bank
    }
}

/// Maps 64-byte block addresses to physical locations.
///
/// Bit order (LSB first): `channel | col | bank | bank_group | rank | row`.
/// Channel interleaving at block granularity spreads traffic; column bits
/// next preserve row-buffer locality for streaming accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    cfg: DramConfig,
    /// Field widths in bits, LSB first (`channel, col, bank, bank_group,
    /// rank, row`), when every field's extent is a power of two — then
    /// each `%`/`/` pair of the mixed-radix decomposition is a mask and a
    /// shift. `None` keeps the division path for other geometries.
    bits: Option<[u32; 6]>,
}

impl AddressMapping {
    /// Creates a mapping for `cfg`.
    pub fn new(cfg: DramConfig) -> Self {
        let extents = [
            cfg.channels,
            cfg.blocks_per_row,
            cfg.banks_per_group,
            cfg.bank_groups,
            cfg.ranks,
            cfg.rows,
        ];
        let bits = extents
            .iter()
            .all(|e| e.is_power_of_two())
            .then(|| extents.map(|e| e.trailing_zeros()));
        Self { cfg, bits }
    }

    /// The channel servicing a block (line) address: the lowest field of
    /// the decomposition, so one mask on a power-of-two channel count and
    /// one remainder otherwise — the router's per-request lookup without
    /// decomposing the rest of the address.
    pub fn channel_of(&self, line_addr: u64) -> usize {
        let channels = self.cfg.channels as u64;
        if channels.is_power_of_two() {
            (line_addr & (channels - 1)) as usize
        } else {
            (line_addr % channels) as usize
        }
    }

    /// Decomposes a block (line) address.
    pub fn decompose(&self, line_addr: u64) -> Location {
        let Some(bits) = self.bits else {
            return self.decompose_by_division(line_addr);
        };
        let mut a = line_addr;
        let mut field = |w: u32| {
            let v = (a & ((1u64 << w) - 1)) as usize;
            a >>= w;
            v
        };
        let channel = field(bits[0]);
        let col = field(bits[1]);
        let bank = field(bits[2]);
        let bank_group = field(bits[3]);
        let rank = field(bits[4]);
        let row = field(bits[5]);
        Location {
            channel,
            rank,
            bank_group,
            bank,
            row,
            col,
        }
    }

    /// The mixed-radix reference decomposition: the general path for
    /// geometries with a non-power-of-two extent, and the oracle the
    /// shift/mask path is tested against.
    fn decompose_by_division(&self, line_addr: u64) -> Location {
        let mut a = line_addr;
        let channel = (a % self.cfg.channels as u64) as usize;
        a /= self.cfg.channels as u64;
        let col = (a % self.cfg.blocks_per_row as u64) as usize;
        a /= self.cfg.blocks_per_row as u64;
        let bank = (a % self.cfg.banks_per_group as u64) as usize;
        a /= self.cfg.banks_per_group as u64;
        let bank_group = (a % self.cfg.bank_groups as u64) as usize;
        a /= self.cfg.bank_groups as u64;
        let rank = (a % self.cfg.ranks as u64) as usize;
        a /= self.cfg.ranks as u64;
        let row = (a % self.cfg.rows as u64) as usize;
        Location {
            channel,
            rank,
            bank_group,
            bank,
            row,
            col,
        }
    }

    /// Recomposes a location into a block address (inverse of
    /// [`decompose`](AddressMapping::decompose)).
    pub fn compose(&self, loc: Location) -> u64 {
        let mut a = loc.row as u64;
        a = a * self.cfg.ranks as u64 + loc.rank as u64;
        a = a * self.cfg.bank_groups as u64 + loc.bank_group as u64;
        a = a * self.cfg.banks_per_group as u64 + loc.bank as u64;
        a = a * self.cfg.blocks_per_row as u64 + loc.col as u64;
        a = a * self.cfg.channels as u64 + loc.channel as u64;
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_capacity_is_16gb() {
        assert_eq!(DramConfig::table2().capacity_bytes(), 16 << 30);
    }

    #[test]
    fn mapping_roundtrips() {
        let m = AddressMapping::new(DramConfig::table2());
        for addr in [
            0u64,
            1,
            2,
            127,
            128,
            12345,
            222_222_222,
            (16 << 30) / 64 - 1,
        ] {
            let loc = m.decompose(addr);
            assert_eq!(m.compose(loc), addr, "addr {addr}");
        }
    }

    #[test]
    fn shift_mask_decompose_matches_division_reference() {
        // Power-of-two geometries take the shift/mask path, the rest the
        // division path; both must agree with the reference and invert
        // through `compose` on every in-range address.
        let mut odd = DramConfig::table2();
        odd.channels = 3;
        odd.bank_groups = 3;
        odd.rows = 1000;
        let mut one_channel = DramConfig::table2();
        one_channel.channels = 1;
        one_channel.ranks = 2;
        let geometries = [DramConfig::table2(), DramConfig::scale8(), one_channel, odd];
        let mut g = attache_testkit::Gen::new(0xDEC0_0005);
        for (i, cfg) in geometries.into_iter().enumerate() {
            let m = AddressMapping::new(cfg);
            assert_eq!(m.bits.is_some(), i < 3, "geometry {i} path selection");
            let lines = cfg.capacity_bytes() / 64;
            for case in 0..4096 {
                let addr = match case % 4 {
                    // Out-of-range addresses wrap in the row field
                    // identically on both paths.
                    0 => g.next_u64(),
                    1 => lines - 1 - g.below(64),
                    _ => g.below(lines),
                };
                let loc = m.decompose(addr);
                assert_eq!(
                    loc,
                    m.decompose_by_division(addr),
                    "geometry {i} addr {addr}"
                );
                if addr < lines {
                    assert_eq!(m.compose(loc), addr, "geometry {i} addr {addr}");
                }
            }
        }
    }

    #[test]
    fn channel_of_matches_the_full_decomposition() {
        // Power-of-two channel counts take the mask, the rest the
        // remainder; both must pick the channel `decompose` does, also
        // when some other field is not a power of two.
        let mut three = DramConfig::table2();
        three.channels = 3;
        let mut odd_rows = DramConfig::scale8();
        odd_rows.rows = 1000;
        odd_rows.bank_groups = 3;
        let mut one = DramConfig::table2();
        one.channels = 1;
        let mut six = DramConfig::table2();
        six.channels = 6;
        let geometries = [
            DramConfig::table2(),
            DramConfig::scale8(),
            one,
            three,
            odd_rows,
            six,
        ];
        let mut g = attache_testkit::Gen::new(0xC4A7_0001);
        for (i, cfg) in geometries.into_iter().enumerate() {
            let m = AddressMapping::new(cfg);
            let lines = cfg.capacity_bytes() / 64;
            for case in 0..4096 {
                let addr = match case % 3 {
                    0 => g.next_u64(),
                    1 => lines - 1 - g.below(64),
                    _ => g.below(lines),
                };
                assert_eq!(
                    m.channel_of(addr),
                    m.decompose(addr).channel,
                    "geometry {i} addr {addr}"
                );
            }
        }
    }

    #[test]
    fn consecutive_blocks_interleave_channels_then_columns() {
        let m = AddressMapping::new(DramConfig::table2());
        let a = m.decompose(0);
        let b = m.decompose(1);
        assert_ne!(a.channel, b.channel);
        let c = m.decompose(2);
        assert_eq!(a.channel, c.channel);
        assert_eq!(c.col, a.col + 1);
        assert_eq!(c.row, a.row);
    }

    #[test]
    fn rows_change_only_beyond_bank_bits() {
        let m = AddressMapping::new(DramConfig::table2());
        let cfg = DramConfig::table2();
        let blocks_per_row_all_banks =
            (cfg.channels * cfg.blocks_per_row * cfg.banks() * cfg.ranks) as u64;
        assert_eq!(m.decompose(blocks_per_row_all_banks - 1).row, 0);
        assert_eq!(m.decompose(blocks_per_row_all_banks).row, 1);
    }

    #[test]
    fn turnaround_formulas() {
        let t = Timing::table2();
        assert_eq!(t.read_to_write(), 22 + 4 + 2 - 16);
        assert_eq!(t.write_to_read(), 16 + 4 + 12);
    }
}
