//! DRAM protocol conformance checking: an independent auditor for the
//! command stream the memory controller issues.
//!
//! The scheduler in [`channel`](crate::channel) *should* only issue
//! commands its [`rank`](crate::rank)/[`bank`](crate::bank) state
//! machines declare legal — but those are the same state machines the
//! scheduler consults, so a bug there is invisible to every test that
//! only looks at results. The [`ConformanceChecker`] closes the loop: it
//! observes every ACT/RD/WR/PRE/REF as it issues and re-validates the
//! JEDEC timing constraints (tRCD, tRP, tRAS, tRC, tRRD, tFAW, tCCD,
//! read/write turnaround, tRTP, tWR, tRFC) from its **own** shadow state,
//! built from nothing but the observed command times. It shares no code
//! with the scheduler's legality logic: where the rank tracks `next_*`
//! gate registers, the auditor stores raw event timestamps and re-derives
//! each gate at check time.
//!
//! The auditor is a pure observer — it never influences scheduling — so
//! wiring it into a run (`ATTACHE_CONFORMANCE=1`, read per
//! [`Channel::new`](crate::channel::Channel::new) so tests can toggle it,
//! or [`MemorySystem::enable_conformance`](crate::MemorySystem::enable_conformance))
//! cannot change results: every existing test run doubles as a protocol
//! audit. Sub-rank awareness matters here: the two sub-ranks are disjoint
//! chip groups, so tRRD/tFAW/tCCD are tracked per sub-rank, exactly the
//! property the paper's §V half-width accesses exploit.

use crate::config::{DramConfig, Timing};
use std::fmt;

/// One observed DRAM command. `mask` selects sub-ranks (bit `s` =
/// sub-rank `s`); `bank` is the flat bank index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramCommand {
    /// Row activate of `row` on the masked sub-banks of `bank`.
    Activate {
        /// Flat bank index.
        bank: usize,
        /// Row being opened.
        row: usize,
        /// Sub-rank mask.
        mask: u8,
    },
    /// Column read on the masked sub-banks of `bank` (open row `row`).
    Read {
        /// Flat bank index.
        bank: usize,
        /// Row the read targets (must be the open row).
        row: usize,
        /// Sub-rank mask.
        mask: u8,
    },
    /// Column write on the masked sub-banks of `bank` (open row `row`).
    Write {
        /// Flat bank index.
        bank: usize,
        /// Row the write targets (must be the open row).
        row: usize,
        /// Sub-rank mask.
        mask: u8,
    },
    /// Precharge of the masked sub-banks of `bank`.
    Precharge {
        /// Flat bank index.
        bank: usize,
        /// Sub-rank mask.
        mask: u8,
    },
    /// All-bank refresh of the rank.
    Refresh,
}

impl fmt::Display for DramCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramCommand::Activate { bank, row, mask } => {
                write!(f, "ACT bank={bank} row={row} mask={mask:02b}")
            }
            DramCommand::Read { bank, row, mask } => {
                write!(f, "RD bank={bank} row={row} mask={mask:02b}")
            }
            DramCommand::Write { bank, row, mask } => {
                write!(f, "WR bank={bank} row={row} mask={mask:02b}")
            }
            DramCommand::Precharge { bank, mask } => {
                write!(f, "PRE bank={bank} mask={mask:02b}")
            }
            DramCommand::Refresh => f.write_str("REF"),
        }
    }
}

/// A command that violated a timing or state constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingViolation {
    /// Bus cycle the offending command issued at.
    pub now: u64,
    /// The violated rule, e.g. `"tRCD"` or `"tFAW"`.
    pub rule: &'static str,
    /// Human-readable specifics (command, earliest legal cycle).
    pub detail: String,
}

impl fmt::Display for TimingViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} violated at cycle {}: {}",
            self.rule, self.now, self.detail
        )
    }
}

/// Per-command-kind audit counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConformanceStats {
    /// Total commands validated.
    pub commands_checked: u64,
    /// ACT commands validated.
    pub activates: u64,
    /// RD commands validated.
    pub reads: u64,
    /// WR commands validated.
    pub writes: u64,
    /// PRE commands validated.
    pub precharges: u64,
    /// REF commands validated (bulk idle-window refreshes excluded).
    pub refreshes: u64,
}

impl ConformanceStats {
    fn add(&mut self, other: &ConformanceStats) {
        self.commands_checked += other.commands_checked;
        self.activates += other.activates;
        self.reads += other.reads;
        self.writes += other.writes;
        self.precharges += other.precharges;
        self.refreshes += other.refreshes;
    }

    /// Sums a set of per-channel stats.
    pub fn aggregate<'a>(parts: impl IntoIterator<Item = &'a ConformanceStats>) -> Self {
        let mut out = ConformanceStats::default();
        for p in parts {
            out.add(p);
        }
        out
    }
}

/// Shadow state for one sub-bank: raw timestamps, not gate registers.
#[derive(Debug, Clone, Copy, Default)]
struct SubBankShadow {
    open_row: Option<usize>,
    act_at: Option<u64>,
    pre_at: Option<u64>,
    rd_at: Option<u64>,
    wr_at: Option<u64>,
}

/// Shadow state for one rank.
#[derive(Debug, Clone)]
struct RankShadow {
    /// `sub[bank * subranks + s]`.
    sub: Vec<SubBankShadow>,
    /// Issue times of recent ACTs per sub-rank (last 4 kept: tFAW).
    act_window: Vec<Vec<u64>>,
    /// Last ACT per sub-rank (tRRD).
    last_act: Vec<Option<u64>>,
    /// Last CAS-read per sub-rank data bus (tCCD / read→write).
    last_rd: Vec<Option<u64>>,
    /// Last CAS-write per sub-rank data bus (tCCD / write→read).
    last_wr: Vec<Option<u64>>,
    /// The rank executes a refresh until this cycle (tRFC).
    refresh_busy_until: u64,
}

impl RankShadow {
    fn new(banks: usize, subranks: usize) -> Self {
        Self {
            sub: vec![SubBankShadow::default(); banks * subranks],
            act_window: vec![Vec::new(); subranks],
            last_act: vec![None; subranks],
            last_rd: vec![None; subranks],
            last_wr: vec![None; subranks],
            refresh_busy_until: 0,
        }
    }
}

/// The command-stream auditor. See the module docs for scope.
#[derive(Debug, Clone)]
pub struct ConformanceChecker {
    t: Timing,
    subranks: usize,
    ranks: Vec<RankShadow>,
    last_cmd_at: Option<u64>,
    stats: ConformanceStats,
}

/// Earliest legal cycle given an optional predecessor event and a gap.
fn gate(prev: Option<u64>, gap: u64) -> u64 {
    prev.map_or(0, |p| p + gap)
}

impl ConformanceChecker {
    /// An auditor validating against `cfg`'s own timing parameters.
    pub fn new(cfg: &DramConfig) -> Self {
        Self::with_timing(cfg, cfg.timing)
    }

    /// An auditor validating against an explicit reference `timing` —
    /// the test hook for deliberate perturbation: auditing a stream
    /// scheduled under looser timings than the reference must flag
    /// violations.
    pub fn with_timing(cfg: &DramConfig, timing: Timing) -> Self {
        Self {
            t: timing,
            subranks: cfg.subranks,
            ranks: (0..cfg.ranks)
                .map(|_| RankShadow::new(cfg.banks(), cfg.subranks))
                .collect(),
            last_cmd_at: None,
            stats: ConformanceStats::default(),
        }
    }

    /// Audit counters so far.
    pub fn stats(&self) -> ConformanceStats {
        self.stats
    }

    fn violation(now: u64, rule: &'static str, detail: String) -> TimingViolation {
        TimingViolation { now, rule, detail }
    }

    /// Accounts an idle-window bulk refresh (the fast-forward path issues
    /// no per-cycle commands): the rank ends its last refresh at
    /// `busy_until`, with every bank closed.
    pub fn fast_forward_refresh(&mut self, rank: usize, refreshes: u64, busy_until: u64) {
        let r = &mut self.ranks[rank];
        r.refresh_busy_until = r.refresh_busy_until.max(busy_until);
        for sb in &mut r.sub {
            sb.open_row = None;
        }
        self.stats.refreshes += refreshes;
    }

    /// Validates one observed command against the shadow state, then
    /// absorbs it. `rank` indexes the rank the command addresses.
    ///
    /// # Errors
    ///
    /// Returns the first [`TimingViolation`] found; the command is *not*
    /// absorbed into the shadow state in that case.
    pub fn observe(
        &mut self,
        now: u64,
        rank: usize,
        cmd: &DramCommand,
    ) -> Result<(), TimingViolation> {
        let t = self.t;
        // The command bus carries one command per channel per cycle.
        if let Some(last) = self.last_cmd_at {
            if now < last {
                return Err(Self::violation(
                    now,
                    "CMD-ORDER",
                    format!("{cmd} issued at {now}, after a command at {last}"),
                ));
            }
            if now == last {
                return Err(Self::violation(
                    now,
                    "CMD-BUS",
                    format!("{cmd} is the second command in cycle {now}"),
                ));
            }
        }
        // tRFC: the whole rank is busy while refreshing.
        let busy = self.ranks[rank].refresh_busy_until;
        if now < busy {
            return Err(Self::violation(
                now,
                "tRFC",
                format!("{cmd} during refresh (rank busy until {busy})"),
            ));
        }

        let subranks = self.subranks;
        match *cmd {
            DramCommand::Activate { bank, row, mask } => {
                let shadow = &self.ranks[rank];
                let mut any_needed = false;
                for s in mask_iter(mask, subranks) {
                    let sb = shadow.sub[bank * subranks + s];
                    match sb.open_row {
                        Some(open) if open == row => continue, // already open: no-op half
                        Some(open) => {
                            return Err(Self::violation(
                                now,
                                "ACT-OPEN-BANK",
                                format!("{cmd} but sub-bank {s} holds row {open}"),
                            ));
                        }
                        None => {}
                    }
                    any_needed = true;
                    let rc = gate(sb.act_at, t.t_rc);
                    if now < rc {
                        return Err(Self::violation(
                            now,
                            "tRC",
                            format!("{cmd} on sub-bank {s}: earliest legal ACT is {rc}"),
                        ));
                    }
                    let rp = gate(sb.pre_at, t.t_rp);
                    if now < rp {
                        return Err(Self::violation(
                            now,
                            "tRP",
                            format!("{cmd} on sub-bank {s}: precharge completes at {rp}"),
                        ));
                    }
                    let rrd = gate(shadow.last_act[s], t.t_rrd);
                    if now < rrd {
                        return Err(Self::violation(
                            now,
                            "tRRD",
                            format!("{cmd} on sub-rank {s}: earliest legal ACT is {rrd}"),
                        ));
                    }
                    let w = &shadow.act_window[s];
                    if w.len() >= 4 {
                        let faw = w[w.len() - 4] + t.t_faw;
                        if now < faw {
                            return Err(Self::violation(
                                now,
                                "tFAW",
                                format!(
                                    "{cmd} is the 5th ACT on sub-rank {s} within tFAW \
                                     (window opens at {faw})"
                                ),
                            ));
                        }
                    }
                }
                if !any_needed {
                    return Err(Self::violation(
                        now,
                        "ACT-NOOP",
                        format!("{cmd} but every masked sub-bank already holds row {row}"),
                    ));
                }
                let shadow = &mut self.ranks[rank];
                for s in mask_iter(mask, subranks) {
                    let sb = &mut shadow.sub[bank * subranks + s];
                    if sb.open_row == Some(row) {
                        continue;
                    }
                    sb.open_row = Some(row);
                    sb.act_at = Some(now);
                    shadow.last_act[s] = Some(now);
                    let w = &mut shadow.act_window[s];
                    w.push(now);
                    if w.len() > 4 {
                        w.remove(0);
                    }
                }
                self.stats.activates += 1;
            }
            DramCommand::Read { bank, row, mask } | DramCommand::Write { bank, row, mask } => {
                let is_write = matches!(cmd, DramCommand::Write { .. });
                let shadow = &self.ranks[rank];
                for s in mask_iter(mask, subranks) {
                    let sb = shadow.sub[bank * subranks + s];
                    if sb.open_row != Some(row) {
                        return Err(Self::violation(
                            now,
                            "CAS-ROW",
                            format!("{cmd} but sub-bank {s} has {:?} open", sb.open_row),
                        ));
                    }
                    let rcd = gate(sb.act_at, t.t_rcd);
                    if now < rcd {
                        return Err(Self::violation(
                            now,
                            "tRCD",
                            format!("{cmd} on sub-bank {s}: row usable at {rcd}"),
                        ));
                    }
                    // Per-sub-rank data bus: same-kind CAS spacing (tCCD)
                    // and bus turnaround between kinds.
                    let (same, turn, turn_rule) = if is_write {
                        (
                            shadow.last_wr[s],
                            gate(shadow.last_rd[s], t.read_to_write()),
                            "tRTW",
                        )
                    } else {
                        (
                            shadow.last_rd[s],
                            gate(shadow.last_wr[s], t.write_to_read()),
                            "tWTR",
                        )
                    };
                    let ccd = gate(same, t.t_ccd);
                    if now < ccd {
                        return Err(Self::violation(
                            now,
                            "tCCD",
                            format!("{cmd} on sub-rank {s} bus: earliest legal CAS is {ccd}"),
                        ));
                    }
                    if now < turn {
                        return Err(Self::violation(
                            now,
                            turn_rule,
                            format!("{cmd} on sub-rank {s} bus: turnaround clears at {turn}"),
                        ));
                    }
                }
                let shadow = &mut self.ranks[rank];
                for s in mask_iter(mask, subranks) {
                    let sb = &mut shadow.sub[bank * subranks + s];
                    if is_write {
                        sb.wr_at = Some(now);
                        shadow.last_wr[s] = Some(now);
                    } else {
                        sb.rd_at = Some(now);
                        shadow.last_rd[s] = Some(now);
                    }
                }
                if is_write {
                    self.stats.writes += 1;
                } else {
                    self.stats.reads += 1;
                }
            }
            DramCommand::Precharge { bank, mask } => {
                let shadow = &self.ranks[rank];
                for s in mask_iter(mask, subranks) {
                    let sb = shadow.sub[bank * subranks + s];
                    if sb.open_row.is_none() {
                        return Err(Self::violation(
                            now,
                            "PRE-IDLE",
                            format!("{cmd} but sub-bank {s} has no open row"),
                        ));
                    }
                    let ras = gate(sb.act_at, t.t_ras);
                    if now < ras {
                        return Err(Self::violation(
                            now,
                            "tRAS",
                            format!("{cmd} on sub-bank {s}: row must stay open until {ras}"),
                        ));
                    }
                    let rtp = gate(sb.rd_at, t.t_rtp);
                    if now < rtp {
                        return Err(Self::violation(
                            now,
                            "tRTP",
                            format!("{cmd} on sub-bank {s}: read-to-precharge clears at {rtp}"),
                        ));
                    }
                    let wr = gate(sb.wr_at, t.t_cwl + t.t_burst + t.t_wr);
                    if now < wr {
                        return Err(Self::violation(
                            now,
                            "tWR",
                            format!("{cmd} on sub-bank {s}: write recovery clears at {wr}"),
                        ));
                    }
                }
                let shadow = &mut self.ranks[rank];
                for s in mask_iter(mask, subranks) {
                    let sb = &mut shadow.sub[bank * subranks + s];
                    sb.open_row = None;
                    sb.pre_at = Some(now);
                }
                self.stats.precharges += 1;
            }
            DramCommand::Refresh => {
                let shadow = &self.ranks[rank];
                if let Some((i, sb)) = shadow
                    .sub
                    .iter()
                    .enumerate()
                    .find(|(_, sb)| sb.open_row.is_some())
                {
                    return Err(Self::violation(
                        now,
                        "REF-OPEN-BANK",
                        format!(
                            "REF with sub-bank {i} still holding row {:?}",
                            sb.open_row.expect("row open")
                        ),
                    ));
                }
                self.ranks[rank].refresh_busy_until = now + t.t_rfc;
                self.stats.refreshes += 1;
            }
        }
        self.stats.commands_checked += 1;
        self.last_cmd_at = Some(now);
        Ok(())
    }
}

fn mask_iter(mask: u8, subranks: usize) -> impl Iterator<Item = usize> {
    (0..subranks).filter(move |s| mask & (1 << s) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker() -> ConformanceChecker {
        ConformanceChecker::new(&DramConfig::table2())
    }

    fn t() -> Timing {
        Timing::table2()
    }

    #[test]
    fn legal_act_read_precharge_sequence_passes() {
        let mut c = checker();
        let act = DramCommand::Activate {
            bank: 0,
            row: 3,
            mask: 0b11,
        };
        let rd = DramCommand::Read {
            bank: 0,
            row: 3,
            mask: 0b11,
        };
        let pre = DramCommand::Precharge {
            bank: 0,
            mask: 0b11,
        };
        c.observe(0, 0, &act).unwrap();
        c.observe(t().t_rcd, 0, &rd).unwrap();
        c.observe(t().t_ras, 0, &pre).unwrap();
        assert_eq!(c.stats().commands_checked, 3);
    }

    #[test]
    fn read_before_trcd_is_caught() {
        let mut c = checker();
        c.observe(
            0,
            0,
            &DramCommand::Activate {
                bank: 0,
                row: 3,
                mask: 0b01,
            },
        )
        .unwrap();
        let v = c
            .observe(
                t().t_rcd - 1,
                0,
                &DramCommand::Read {
                    bank: 0,
                    row: 3,
                    mask: 0b01,
                },
            )
            .unwrap_err();
        assert_eq!(v.rule, "tRCD");
    }

    #[test]
    fn act_act_within_trrd_is_caught() {
        let mut c = checker();
        c.observe(
            0,
            0,
            &DramCommand::Activate {
                bank: 0,
                row: 1,
                mask: 0b01,
            },
        )
        .unwrap();
        let v = c
            .observe(
                t().t_rrd - 1,
                0,
                &DramCommand::Activate {
                    bank: 1,
                    row: 1,
                    mask: 0b01,
                },
            )
            .unwrap_err();
        assert_eq!(v.rule, "tRRD");
        // The other sub-rank is a disjoint chip group: no shared tRRD.
        c.observe(
            t().t_rrd - 1,
            0,
            &DramCommand::Activate {
                bank: 1,
                row: 1,
                mask: 0b10,
            },
        )
        .unwrap();
    }

    #[test]
    fn fifth_act_within_tfaw_is_caught() {
        let mut c = checker();
        let mut now = 0;
        for bank in 0..4 {
            c.observe(
                now,
                0,
                &DramCommand::Activate {
                    bank,
                    row: 1,
                    mask: 0b01,
                },
            )
            .unwrap();
            now += t().t_rrd;
        }
        assert!(now < t().t_faw);
        let v = c
            .observe(
                now,
                0,
                &DramCommand::Activate {
                    bank: 4,
                    row: 1,
                    mask: 0b01,
                },
            )
            .unwrap_err();
        assert_eq!(v.rule, "tFAW");
        c.observe(
            t().t_faw,
            0,
            &DramCommand::Activate {
                bank: 4,
                row: 1,
                mask: 0b01,
            },
        )
        .unwrap();
    }

    #[test]
    fn precharge_before_tras_is_caught() {
        let mut c = checker();
        c.observe(
            0,
            0,
            &DramCommand::Activate {
                bank: 2,
                row: 9,
                mask: 0b11,
            },
        )
        .unwrap();
        let v = c
            .observe(
                t().t_ras - 1,
                0,
                &DramCommand::Precharge {
                    bank: 2,
                    mask: 0b11,
                },
            )
            .unwrap_err();
        assert_eq!(v.rule, "tRAS");
    }

    #[test]
    fn command_during_refresh_is_caught() {
        let mut c = checker();
        c.observe(100, 0, &DramCommand::Refresh).unwrap();
        let v = c
            .observe(
                100 + t().t_rfc - 1,
                0,
                &DramCommand::Activate {
                    bank: 0,
                    row: 0,
                    mask: 0b01,
                },
            )
            .unwrap_err();
        assert_eq!(v.rule, "tRFC");
        c.observe(
            100 + t().t_rfc,
            0,
            &DramCommand::Activate {
                bank: 0,
                row: 0,
                mask: 0b01,
            },
        )
        .unwrap();
    }

    #[test]
    fn refresh_with_open_bank_is_caught() {
        let mut c = checker();
        c.observe(
            0,
            0,
            &DramCommand::Activate {
                bank: 1,
                row: 7,
                mask: 0b01,
            },
        )
        .unwrap();
        let v = c.observe(t().t_ras, 0, &DramCommand::Refresh).unwrap_err();
        assert_eq!(v.rule, "REF-OPEN-BANK");
    }

    #[test]
    fn same_cycle_commands_are_caught() {
        let mut c = checker();
        c.observe(
            5,
            0,
            &DramCommand::Activate {
                bank: 0,
                row: 1,
                mask: 0b01,
            },
        )
        .unwrap();
        let v = c
            .observe(
                5,
                0,
                &DramCommand::Activate {
                    bank: 1,
                    row: 1,
                    mask: 0b10,
                },
            )
            .unwrap_err();
        assert_eq!(v.rule, "CMD-BUS");
    }

    #[test]
    fn cas_to_closed_row_is_caught() {
        let mut c = checker();
        c.observe(
            0,
            0,
            &DramCommand::Activate {
                bank: 0,
                row: 1,
                mask: 0b01,
            },
        )
        .unwrap();
        let v = c
            .observe(
                t().t_rcd,
                0,
                &DramCommand::Read {
                    bank: 0,
                    row: 2,
                    mask: 0b01,
                },
            )
            .unwrap_err();
        assert_eq!(v.rule, "CAS-ROW");
    }

    #[test]
    fn write_read_turnaround_is_enforced_per_subrank_bus() {
        let mut c = checker();
        c.observe(
            0,
            0,
            &DramCommand::Activate {
                bank: 0,
                row: 1,
                mask: 0b11,
            },
        )
        .unwrap();
        let wr_at = t().t_rcd;
        c.observe(
            wr_at,
            0,
            &DramCommand::Write {
                bank: 0,
                row: 1,
                mask: 0b01,
            },
        )
        .unwrap();
        let v = c
            .observe(
                wr_at + t().write_to_read() - 1,
                0,
                &DramCommand::Read {
                    bank: 0,
                    row: 1,
                    mask: 0b01,
                },
            )
            .unwrap_err();
        assert_eq!(v.rule, "tWTR");
        // The other sub-rank's bus is independent.
        c.observe(
            wr_at + 1,
            0,
            &DramCommand::Read {
                bank: 0,
                row: 1,
                mask: 0b10,
            },
        )
        .unwrap();
    }

    #[test]
    fn violating_command_is_not_absorbed() {
        let mut c = checker();
        c.observe(
            0,
            0,
            &DramCommand::Activate {
                bank: 0,
                row: 1,
                mask: 0b01,
            },
        )
        .unwrap();
        let _ = c
            .observe(
                t().t_rcd - 1,
                0,
                &DramCommand::Read {
                    bank: 0,
                    row: 1,
                    mask: 0b01,
                },
            )
            .unwrap_err();
        // The rejected read must not have advanced the bus shadow: a
        // legal read right at tRCD still passes.
        c.observe(
            t().t_rcd,
            0,
            &DramCommand::Read {
                bank: 0,
                row: 1,
                mask: 0b01,
            },
        )
        .unwrap();
    }

    #[test]
    fn stricter_reference_timing_flags_a_legal_stream() {
        // The perturbation hook: the same stream that is legal under
        // Table II must violate a reference with a longer tRCD.
        let mut strict = t();
        strict.t_rcd += 8;
        let mut c = ConformanceChecker::with_timing(&DramConfig::table2(), strict);
        c.observe(
            0,
            0,
            &DramCommand::Activate {
                bank: 0,
                row: 1,
                mask: 0b01,
            },
        )
        .unwrap();
        let v = c
            .observe(
                t().t_rcd,
                0,
                &DramCommand::Read {
                    bank: 0,
                    row: 1,
                    mask: 0b01,
                },
            )
            .unwrap_err();
        assert_eq!(v.rule, "tRCD");
    }

    #[test]
    fn fast_forward_models_bulk_refresh() {
        let mut c = checker();
        c.observe(
            0,
            0,
            &DramCommand::Activate {
                bank: 0,
                row: 1,
                mask: 0b01,
            },
        )
        .unwrap();
        c.observe(
            t().t_ras,
            0,
            &DramCommand::Precharge {
                bank: 0,
                mask: 0b01,
            },
        )
        .unwrap();
        let busy_until = 1_000_000;
        c.fast_forward_refresh(0, 3, busy_until);
        assert_eq!(c.stats().refreshes, 3);
        let v = c
            .observe(
                busy_until - 1,
                0,
                &DramCommand::Activate {
                    bank: 0,
                    row: 1,
                    mask: 0b01,
                },
            )
            .unwrap_err();
        assert_eq!(v.rule, "tRFC");
        c.observe(
            busy_until,
            0,
            &DramCommand::Activate {
                bank: 0,
                row: 1,
                mask: 0b01,
            },
        )
        .unwrap();
    }
}
