//! Rank-level state: sub-banks, per-sub-rank data buses, the activation
//! window (tRRD/tFAW) and refresh bookkeeping.

use crate::bank::SubBank;
use crate::config::{DramConfig, Timing};

/// A rank of 8 DRAM chips split into two 4-chip sub-ranks with separate
/// chip-selects (§V of the paper).
#[derive(Debug, Clone)]
pub struct Rank {
    banks: usize,
    subranks: usize,
    /// `sub_banks[bank * subranks + subrank]`.
    sub_banks: Vec<SubBank>,
    /// Earliest next CAS-read issue per sub-rank data bus.
    bus_next_rd: Vec<u64>,
    /// Earliest next CAS-write issue per sub-rank data bus.
    bus_next_wr: Vec<u64>,
    /// Issue times of the last four ACT commands **per sub-rank**: tFAW is
    /// a per-chip charge-pump limit, and the sub-ranks are disjoint chip
    /// groups, so each sub-rank has its own four-activate window (a
    /// full-width ACT counts in both).
    act_window: Vec<[u64; 4]>,
    act_window_len: Vec<usize>,
    /// Earliest next ACT per sub-rank (tRRD, same per-chip argument).
    next_act_rrd: Vec<u64>,
    /// Next refresh is due at this cycle.
    pub next_refresh_due: u64,
    /// The rank is executing a refresh until this cycle.
    pub refresh_until: u64,
    /// Number of sub-banks currently holding an open row (for background
    /// power accounting).
    pub open_sub_banks: usize,
    /// Total refreshes performed.
    pub refreshes: u64,
}

impl Rank {
    /// Creates an idle rank for `cfg`.
    pub fn new(cfg: &DramConfig) -> Self {
        let banks = cfg.banks();
        Self {
            banks,
            subranks: cfg.subranks,
            sub_banks: vec![SubBank::new(); banks * cfg.subranks],
            bus_next_rd: vec![0; cfg.subranks],
            bus_next_wr: vec![0; cfg.subranks],
            act_window: vec![[0; 4]; cfg.subranks],
            act_window_len: vec![0; cfg.subranks],
            next_act_rrd: vec![0; cfg.subranks],
            next_refresh_due: cfg.timing.t_refi,
            refresh_until: 0,
            open_sub_banks: 0,
            refreshes: 0,
        }
    }

    /// Immutable access to a sub-bank.
    pub fn sub_bank(&self, bank: usize, subrank: usize) -> &SubBank {
        &self.sub_banks[bank * self.subranks + subrank]
    }

    fn sub_bank_mut(&mut self, bank: usize, subrank: usize) -> &mut SubBank {
        &mut self.sub_banks[bank * self.subranks + subrank]
    }

    /// Iterates the sub-ranks selected by `mask`. The iterator owns its
    /// state, so a command can update the selected sub-banks while
    /// iterating (no per-command allocation).
    fn mask_iter(&self, mask: u8) -> impl Iterator<Item = usize> + use<> {
        (0..self.subranks).filter(move |s| mask & (1 << s) != 0)
    }

    /// Whether the rank is busy refreshing at `now`.
    pub fn refreshing(&self, now: u64) -> bool {
        now < self.refresh_until
    }

    /// Whether a refresh is due (and must be serviced before new activity).
    pub fn refresh_due(&self, now: u64) -> bool {
        now >= self.next_refresh_due && !self.refreshing(now)
    }

    fn act_window_ok(&self, now: u64, subrank: usize, t: &Timing) -> bool {
        if now < self.next_act_rrd[subrank] {
            return false;
        }
        if self.act_window_len[subrank] == 4 {
            // Oldest of the last four ACTs must be outside tFAW.
            let oldest = self.act_window[subrank][0];
            if now < oldest + t.t_faw {
                return false;
            }
        }
        true
    }

    fn act_window_push(&mut self, now: u64, subrank: usize, t: &Timing) {
        if self.act_window_len[subrank] == 4 {
            self.act_window[subrank].rotate_left(1);
            self.act_window[subrank][3] = now;
        } else {
            let len = self.act_window_len[subrank];
            self.act_window[subrank][len] = now;
            self.act_window_len[subrank] += 1;
        }
        self.next_act_rrd[subrank] = now + t.t_rrd;
    }

    /// Whether an ACT of `row` may issue to `bank` for the sub-ranks in
    /// `mask` at `now`. Only sub-banks that do not already have the row open
    /// are required to be idle-and-ready.
    pub fn can_activate(&self, now: u64, bank: usize, row: usize, mask: u8, t: &Timing) -> bool {
        if self.refreshing(now) || self.refresh_due(now) {
            return false;
        }
        let mut any_needed = false;
        for s in self.mask_iter(mask) {
            let sb = self.sub_bank(bank, s);
            if sb.row_open(row) {
                continue;
            }
            any_needed = true;
            if !sb.can_activate(now) || !self.act_window_ok(now, s, t) {
                return false;
            }
        }
        any_needed
    }

    /// Issues the ACT validated by [`can_activate`](Rank::can_activate).
    pub fn activate(&mut self, now: u64, bank: usize, row: usize, mask: u8, t: &Timing) {
        for s in self.mask_iter(mask) {
            if !self.sub_bank(bank, s).row_open(row) {
                self.sub_bank_mut(bank, s).activate(now, row, t);
                self.open_sub_banks += 1;
                // tRRD/tFAW accrue only on the chip groups that activate.
                self.act_window_push(now, s, t);
            }
        }
    }

    /// Whether the sub-banks in `mask` hold a row that conflicts with `row`
    /// and may be precharged at `now`. Returns the sub-mask to precharge, or
    /// `None` when no precharge is possible/needed.
    pub fn precharge_mask(&self, now: u64, bank: usize, row: usize, mask: u8) -> Option<u8> {
        if self.refreshing(now) {
            return None;
        }
        let mut pre_mask = 0u8;
        for s in self.mask_iter(mask) {
            let sb = self.sub_bank(bank, s);
            match sb.state() {
                crate::bank::RowState::Active { row: open } if open != row => {
                    if !sb.can_precharge(now) {
                        return None;
                    }
                    pre_mask |= 1 << s;
                }
                _ => {}
            }
        }
        if pre_mask == 0 {
            None
        } else {
            Some(pre_mask)
        }
    }

    /// Issues a PRE to the sub-banks in `mask`.
    pub fn precharge(&mut self, now: u64, bank: usize, mask: u8, t: &Timing) {
        for s in self.mask_iter(mask) {
            self.sub_bank_mut(bank, s).precharge(now, t);
            self.open_sub_banks -= 1;
        }
    }

    /// Whether a column READ may issue at `now`.
    pub fn can_read(&self, now: u64, bank: usize, row: usize, mask: u8) -> bool {
        if self.refreshing(now) {
            return false;
        }
        self.mask_iter(mask)
            .all(|s| self.sub_bank(bank, s).can_read(now, row) && now >= self.bus_next_rd[s])
    }

    /// Issues a column READ at `now`.
    pub fn read(&mut self, now: u64, bank: usize, mask: u8, t: &Timing) {
        for s in self.mask_iter(mask) {
            self.sub_bank_mut(bank, s).read(now, t);
            self.bus_next_rd[s] = now + t.t_ccd;
            self.bus_next_wr[s] = now + t.read_to_write();
        }
    }

    /// Whether a column WRITE may issue at `now`.
    pub fn can_write(&self, now: u64, bank: usize, row: usize, mask: u8) -> bool {
        if self.refreshing(now) {
            return false;
        }
        self.mask_iter(mask)
            .all(|s| self.sub_bank(bank, s).can_write(now, row) && now >= self.bus_next_wr[s])
    }

    /// Issues a column WRITE at `now`.
    pub fn write(&mut self, now: u64, bank: usize, mask: u8, t: &Timing) {
        for s in self.mask_iter(mask) {
            self.sub_bank_mut(bank, s).write(now, t);
            self.bus_next_wr[s] = now + t.t_ccd;
            self.bus_next_rd[s] = now + t.write_to_read();
        }
    }

    /// The earliest cycle the sub-rank `s` data bus accepts another READ.
    pub fn bus_read_ready_at(&self, s: usize) -> u64 {
        self.bus_next_rd[s]
    }

    /// The earliest cycle the sub-rank `s` data bus accepts another WRITE.
    pub fn bus_write_ready_at(&self, s: usize) -> u64 {
        self.bus_next_wr[s]
    }

    /// The earliest cycle an ACT on sub-rank `s` clears tRRD and tFAW
    /// (bank-level tRC/tRP gates live in the sub-bank).
    pub fn act_window_ready_at(&self, s: usize, t: &Timing) -> u64 {
        let mut ready = self.next_act_rrd[s];
        if self.act_window_len[s] == 4 {
            ready = ready.max(self.act_window[s][0] + t.t_faw);
        }
        ready
    }

    /// Returns the mask of sub-banks (across all banks) that still hold an
    /// open row — these must be precharged before REF.
    pub fn any_bank_open(&self) -> bool {
        self.open_sub_banks > 0
    }

    /// Finds one (bank, sub-rank-mask) pair that can be precharged at `now`
    /// in preparation for a refresh.
    pub fn refresh_precharge_candidate(&self, now: u64) -> Option<(usize, u8)> {
        for bank in 0..self.banks {
            let mut mask = 0u8;
            for s in 0..self.subranks {
                let sb = self.sub_bank(bank, s);
                if matches!(sb.state(), crate::bank::RowState::Active { .. }) {
                    if !sb.can_precharge(now) {
                        return None; // wait for this bank to become eligible
                    }
                    mask |= 1 << s;
                }
            }
            if mask != 0 {
                return Some((bank, mask));
            }
        }
        None
    }

    /// Issues a REF at `now`; the rank is busy until `now + tRFC`.
    pub fn refresh(&mut self, now: u64, t: &Timing) {
        debug_assert!(!self.any_bank_open(), "REF requires all banks precharged");
        self.refresh_until = now + t.t_rfc;
        self.next_refresh_due += t.t_refi;
        self.refreshes += 1;
        for sb in &mut self.sub_banks {
            sb.force_idle(self.refresh_until);
        }
    }

    /// Performs `n` refreshes "in bulk" while the channel is idle, without
    /// simulating each cycle (used by the idle fast-forward path).
    pub fn bulk_refresh(&mut self, n: u64, t: &Timing) {
        self.refreshes += n;
        self.next_refresh_due += n * t.t_refi;
        for sb in &mut self.sub_banks {
            sb.force_idle(self.next_refresh_due.saturating_sub(t.t_refi) + t.t_rfc);
        }
        self.open_sub_banks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        DramConfig::table2()
    }

    fn t() -> Timing {
        Timing::table2()
    }

    #[test]
    fn activate_then_read_single_subrank() {
        let mut r = Rank::new(&cfg());
        assert!(r.can_activate(0, 3, 10, 0b01, &t()));
        r.activate(0, 3, 10, 0b01, &t());
        assert!(!r.can_read(t().t_rcd - 1, 3, 10, 0b01));
        assert!(r.can_read(t().t_rcd, 3, 10, 0b01));
        // The other sub-rank has nothing open.
        assert!(!r.can_read(t().t_rcd, 3, 10, 0b10));
        assert!(!r.can_read(t().t_rcd, 3, 10, 0b11));
    }

    #[test]
    fn subranks_hold_independent_rows() {
        let mut r = Rank::new(&cfg());
        r.activate(0, 0, 5, 0b01, &t());
        r.activate(t().t_rrd, 0, 9, 0b10, &t());
        let rd = t().t_rrd + t().t_rcd;
        assert!(r.can_read(rd, 0, 5, 0b01));
        assert!(r.can_read(rd, 0, 9, 0b10));
        assert!(!r.can_read(rd, 0, 5, 0b11), "row 5 only open in sub-rank 0");
    }

    #[test]
    fn full_width_activate_opens_both() {
        let mut r = Rank::new(&cfg());
        r.activate(0, 1, 4, 0b11, &t());
        assert_eq!(r.open_sub_banks, 2);
        assert!(r.can_read(t().t_rcd, 1, 4, 0b11));
    }

    #[test]
    fn partial_activate_completes_full_width() {
        let mut r = Rank::new(&cfg());
        r.activate(0, 1, 4, 0b01, &t());
        // Full-width access: only sub-rank 1 still needs the ACT.
        assert!(r.can_activate(t().t_rrd, 1, 4, 0b11, &t()));
        r.activate(t().t_rrd, 1, 4, 0b11, &t());
        assert_eq!(r.open_sub_banks, 2);
    }

    #[test]
    fn half_width_activates_have_independent_faw_windows() {
        // Alternating sub-rank ACTs: each sub-rank's window fills at half
        // the rate, so 8 narrow ACTs fit where only 4 full ones would.
        let mut r = Rank::new(&cfg());
        let mut now = 0;
        for i in 0..8usize {
            let mask = 1u8 << (i % 2);
            let bank = i / 2;
            assert!(
                r.can_activate(now, bank, 1, mask, &t()),
                "narrow ACT {i} at {now} must not be tFAW-blocked"
            );
            r.activate(now, bank, 1, mask, &t());
            now += t().t_rrd / 2 + 1; // opposite sub-ranks: no shared tRRD
        }
        assert!(now < t().t_faw + 4 * t().t_rrd);
    }

    #[test]
    fn faw_blocks_fifth_activate() {
        let mut r = Rank::new(&cfg());
        let mut now = 0;
        for bank in 0..4 {
            assert!(r.can_activate(now, bank, 1, 0b11, &t()));
            r.activate(now, bank, 1, 0b11, &t());
            now += t().t_rrd;
        }
        // Fifth ACT within tFAW of the first must stall.
        assert!(now < t().t_faw);
        assert!(!r.can_activate(now, 4, 1, 0b11, &t()));
        assert!(r.can_activate(t().t_faw, 4, 1, 0b11, &t()));
    }

    #[test]
    fn ccd_serializes_same_subrank_reads_but_not_other_subrank() {
        let mut r = Rank::new(&cfg());
        r.activate(0, 0, 1, 0b01, &t());
        r.activate(t().t_rrd, 1, 1, 0b10, &t());
        let now = t().t_rrd + t().t_rcd;
        r.read(now, 0, 0b01, &t());
        assert!(!r.can_read(now + 1, 0, 1, 0b01), "tCCD on sub-rank 0");
        assert!(r.can_read(now + 1, 1, 1, 0b10), "sub-rank 1 bus is free");
    }

    #[test]
    fn write_to_read_turnaround() {
        let mut r = Rank::new(&cfg());
        r.activate(0, 0, 1, 0b01, &t());
        let now = t().t_rcd;
        r.write(now, 0, 0b01, &t());
        let rd_ok = now + t().write_to_read();
        assert!(!r.can_read(rd_ok - 1, 0, 1, 0b01));
        assert!(r.can_read(rd_ok, 0, 1, 0b01));
    }

    #[test]
    fn refresh_blocks_rank_for_trfc() {
        let mut r = Rank::new(&cfg());
        let due = r.next_refresh_due;
        assert!(r.refresh_due(due));
        r.refresh(due, &t());
        assert!(r.refreshing(due + t().t_rfc - 1));
        assert!(!r.refreshing(due + t().t_rfc));
        assert_eq!(r.refreshes, 1);
        assert!(!r.can_activate(due + 1, 0, 0, 0b11, &t()));
        assert!(r.can_activate(due + t().t_rfc, 0, 0, 0b11, &t()));
    }

    #[test]
    fn refresh_precharge_candidate_finds_open_banks() {
        let mut r = Rank::new(&cfg());
        r.activate(0, 2, 7, 0b11, &t());
        assert_eq!(r.refresh_precharge_candidate(t().t_ras), Some((2, 0b11)));
        r.precharge(t().t_ras, 2, 0b11, &t());
        assert_eq!(r.refresh_precharge_candidate(t().t_ras + 1), None);
        assert!(!r.any_bank_open());
    }

    #[test]
    fn bulk_refresh_advances_schedule() {
        let mut r = Rank::new(&cfg());
        r.bulk_refresh(5, &t());
        assert_eq!(r.refreshes, 5);
        assert_eq!(r.next_refresh_due, t().t_refi * 6);
    }
}
