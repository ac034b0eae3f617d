//! The push-updated FR-FCFS candidate index behind a
//! [`Channel`](crate::Channel)'s scheduler.
//!
//! Each request queue (reads, writes) keeps one index. Every queued
//! request has a [`Cand`] record holding everything *bank-local* the
//! scheduler needs: which pass it belongs to (CAS when every masked
//! sub-bank has its row open, ACT when the rest are idle, PRE when some
//! hold a different row), the max of the matching bank timers, and — for
//! row conflicts — which conflicting sub-banks no same-queue request
//! protects. A record only changes when its bank is commanded, its rank
//! refreshes, or its bank's membership in the same queue changes
//! (enqueue, CAS removal, write coalescing), so those are the only points
//! that recompute it, one whole bank at a time.
//!
//! Records are grouped per rank by *class*: CAS per sub-rank mask, ACT per
//! act-mask (the idle sub-banks that need the ACT), and one PRE group of
//! the unprotected row conflicts. A group is a one-word bitset over queue
//! positions (a queue holds at most 64 requests), so its members iterate
//! in queue order, and it caches the minimum of its members' bank-local
//! ready times. Every member of a group shares the group's rank-level
//! term (refresh gate, data-bus or tRRD/tFAW window over the class's
//! mask), so the earliest cycle any member could issue is
//! `max(group min, rank term)`, kept per group: a scheduler pass that
//! issues nothing reads one word per non-empty group, and a pass that
//! issues scans only the ready groups of its class.
//!
//! Only the *served* queue's index is kept current. A scheduler pass
//! serves one queue (writes while draining or when no read waits, reads
//! otherwise), and every pass, bound and starvation check reads only that
//! queue's index. The other index is *deferred*: a command, refresh,
//! push or coalesce it sees only marks the bank dirty in a per-rank bank
//! mask (and the rank-level terms stale), and
//! [`serve`](CandIndex::serve) recomputes those banks and terms once,
//! when its queue becomes the served one. Structural updates (a record
//! appended, a CAS removal) still apply at once, so positions always
//! follow the queue.

use crate::bank::RowState;
use crate::config::Timing;
use crate::rank::Rank;

/// The three FR-FCFS passes, in priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pass {
    /// Column command: every masked sub-bank has the row open.
    Cas,
    /// Activate: no masked sub-bank holds a different row.
    Act,
    /// Precharge: some masked sub-bank holds a different row.
    Pre,
}

/// One queued request's scheduler state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cand {
    /// Bank-local ready time of the request's class: the max over the
    /// class's sub-banks of the column (CAS), tRC/tRP (ACT) or
    /// tRAS/tRTP/tWR (PRE) ready times.
    ready: u64,
    /// `req.arrival`, the age row protection compares.
    arrival: u64,
    pub(crate) row: usize,
    pub(crate) rank: usize,
    /// Flat bank index within the rank.
    pub(crate) bank: usize,
    /// Sub-rank mask of the request's width.
    mask: u8,
    /// Class within the rank (see [`CandIndex::class_of`]).
    class: u8,
    /// Masked sub-banks holding a different row (PRE class only).
    pub(crate) conflict: u8,
    /// The conflicting sub-banks whose open row no same-queue request at
    /// least as old wants: what an ordinary PRE may close.
    pub(crate) eff: u8,
    /// Group the record belongs to: its class, or [`NO_GROUP`] for a row
    /// conflict whose every conflicting sub-bank is protected.
    group: u8,
}

/// `Cand::group` of a fully protected row conflict.
const NO_GROUP: u8 = u8::MAX;

/// Sub-ranks per rank the index supports (Table II has two): it sizes
/// the per-bank protection scratch.
const MAX_SUBRANKS: usize = 2;

/// Iterates the set bits of one word in ascending order (sub-rank
/// masks, class sets, group and bank memberships).
struct Ones(u64);

impl Iterator for Ones {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        (self.0 != 0).then(|| {
            let b = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            b
        })
    }
}

fn ones(m: u64) -> Ones {
    Ones(m)
}

/// The most requests a queue may hold: one bit per position in a
/// membership word.
pub(crate) const MAX_QUEUE: usize = 64;

/// Deletes bit `i` of a membership word, shifting every higher bit down
/// by one: the word follows a `Vec::remove(i)` of the queue.
fn remove_bit(word: u64, i: usize) -> u64 {
    let low = (1u64 << i) - 1;
    (word & low) | ((word >> 1) & !low)
}

/// The candidate index of one request queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CandIndex {
    /// Whether this is the write queue's index (column timers and data-bus
    /// terms are direction-specific).
    writes: bool,
    banks: usize,
    subranks: usize,
    /// Classes per rank: `2 * masks + 1` for `masks = 2^subranks - 1`.
    classes: usize,
    /// One record per queued request, in queue order.
    cands: Vec<Cand>,
    /// Group membership, one word per group; group `g` is
    /// `rank * classes + class`.
    members: Vec<u64>,
    /// Per group, the minimum `ready` over its members (`u64::MAX` when
    /// empty).
    min: Vec<u64>,
    /// Per group, the rank-level term every member shares. Rank-level
    /// timers move on commands to *any* bank of the rank and on refresh,
    /// so they are refreshed with the rank, not the bank.
    terms: Vec<u64>,
    /// Per group, `max(min, terms)`: the earliest cycle any member could
    /// issue.
    at: Vec<u64>,
    /// Per rank, one bit per non-empty group: the only groups a pass
    /// reads.
    occupied: Vec<u64>,
    /// Bank membership, one word per `rank * banks + bank`.
    bank_members: Vec<u64>,
    /// Whether this index is deferred (its queue is not being served):
    /// bank recomputes and term updates wait in `dirty` and `stale_terms`
    /// until [`serve`](Self::serve).
    deferred: bool,
    /// Deferred only: per rank, one bit per bank whose records are stale.
    dirty: Vec<u64>,
    /// Deferred only: whether a command or refresh moved rank-level terms.
    stale_terms: bool,
}

impl CandIndex {
    /// An empty index for a queue of `capacity` entries, its rank-level
    /// terms computed from `ranks`.
    pub(crate) fn new(
        ranks: &[Rank],
        banks: usize,
        subranks: usize,
        capacity: usize,
        t: &Timing,
        writes: bool,
    ) -> Self {
        assert!(
            subranks <= MAX_SUBRANKS,
            "the candidate index supports up to {MAX_SUBRANKS} sub-ranks"
        );
        assert!(
            capacity <= MAX_QUEUE,
            "the candidate index holds up to {MAX_QUEUE} requests"
        );
        assert!(
            banks <= 64,
            "the candidate index supports up to 64 banks per rank"
        );
        let classes = 2 * ((1 << subranks) - 1) + 1;
        let groups = ranks.len() * classes;
        let mut ix = Self {
            writes,
            banks,
            subranks,
            classes,
            cands: Vec::with_capacity(capacity),
            members: vec![0; groups],
            min: vec![u64::MAX; groups],
            terms: vec![0; groups],
            at: vec![u64::MAX; groups],
            occupied: vec![0; ranks.len()],
            bank_members: vec![0; ranks.len() * banks],
            deferred: false,
            dirty: vec![0; ranks.len()],
            stale_terms: false,
        };
        for (r, rank) in ranks.iter().enumerate() {
            ix.refresh_rank_terms(rank, r, t);
        }
        ix
    }

    /// The record of the request at queue position `i`.
    pub(crate) fn cand(&self, i: usize) -> &Cand {
        &self.cands[i]
    }

    /// Whether the index is deferred: its records, minima and terms may
    /// be stale, so no scheduler decision or bound may read it.
    pub(crate) fn is_deferred(&self) -> bool {
        self.deferred
    }

    /// Stops keeping the index current: its queue is no longer served.
    pub(crate) fn defer(&mut self) {
        debug_assert!(!self.deferred && !self.stale_terms);
        debug_assert!(self.dirty.iter().all(|&d| d == 0));
        self.deferred = true;
    }

    /// Makes a deferred index current again (its queue is now served):
    /// recomputes the rank-level terms if any moved and every dirty bank,
    /// leaving the index as a from-scratch build over the queue would.
    pub(crate) fn serve(&mut self, ranks: &[Rank], t: &Timing) {
        debug_assert!(self.deferred, "serving an index that is current");
        self.deferred = false;
        if std::mem::take(&mut self.stale_terms) {
            for (r, rank) in ranks.iter().enumerate() {
                self.refresh_rank_terms(rank, r, t);
            }
        }
        for (r, rank) in ranks.iter().enumerate() {
            for bank in ones(std::mem::take(&mut self.dirty[r])) {
                self.refresh_bank(rank, r, bank);
            }
        }
    }

    /// A `pass` command to `bank` of rank `rank_idx`: the bank's rows or
    /// timers moved, and so may the rank-level terms of the pass.
    pub(crate) fn command(
        &mut self,
        pass: Pass,
        rank: &Rank,
        rank_idx: usize,
        bank: usize,
        t: &Timing,
    ) {
        if self.deferred {
            self.stale_terms = true;
        } else {
            self.refresh_terms(pass, rank_idx, rank, t);
        }
        self.touch_bank(rank, rank_idx, bank);
    }

    /// A refresh of rank `rank_idx`: it closed every bank and moved the
    /// rank's gate.
    pub(crate) fn refresh(&mut self, rank: &Rank, rank_idx: usize, t: &Timing) {
        if self.deferred {
            self.stale_terms = true;
            self.dirty[rank_idx] = u64::MAX >> (64 - self.banks);
        } else {
            self.refresh_rank_terms(rank, rank_idx, t);
            for bank in 0..self.banks {
                self.refresh_bank(rank, rank_idx, bank);
            }
        }
    }

    /// Recomputes `bank` of rank `rank_idx` now, or marks it dirty while
    /// deferred.
    fn touch_bank(&mut self, rank: &Rank, rank_idx: usize, bank: usize) {
        if self.deferred {
            self.dirty[rank_idx] |= 1 << bank;
        } else {
            self.refresh_bank(rank, rank_idx, bank);
        }
    }

    /// Class numbering within a rank: CAS classes first (one per sub-rank
    /// mask), then ACT classes (one per act-mask), then the PRE class.
    fn class_of(&self, pass: Pass, mask: u8) -> usize {
        let masks = (1 << self.subranks) - 1;
        match pass {
            Pass::Cas => mask as usize - 1,
            Pass::Act => masks + mask as usize - 1,
            Pass::Pre => 2 * masks,
        }
    }

    /// The classes of one pass, as a range of class numbers.
    fn classes_of(&self, pass: Pass) -> std::ops::Range<usize> {
        let masks = (1 << self.subranks) - 1;
        match pass {
            Pass::Cas => 0..masks,
            Pass::Act => masks..2 * masks,
            Pass::Pre => 2 * masks..2 * masks + 1,
        }
    }

    /// The pass a record's class belongs to.
    pub(crate) fn pass_of(&self, c: &Cand) -> Pass {
        let masks = (1 << self.subranks) - 1;
        match c.class as usize {
            k if k < masks => Pass::Cas,
            k if k < 2 * masks => Pass::Act,
            _ => Pass::Pre,
        }
    }

    /// Appends a request at the back of the queue and recomputes its bank
    /// (marks it dirty while deferred).
    pub(crate) fn push(
        &mut self,
        rank: &Rank,
        rank_idx: usize,
        bank: usize,
        row: usize,
        mask: u8,
        arrival: u64,
    ) {
        let i = self.cands.len();
        debug_assert!(i < MAX_QUEUE, "queue outgrew its index");
        self.cands.push(Cand {
            ready: 0,
            arrival,
            row,
            rank: rank_idx,
            bank,
            mask,
            class: 0,
            conflict: 0,
            eff: 0,
            group: NO_GROUP,
        });
        self.bank_members[rank_idx * self.banks + bank] |= 1 << i;
        self.touch_bank(rank, rank_idx, bank);
    }

    /// Replaces the request at position `i` in place (a coalesced write:
    /// same line, same queue position, new width and arrival) and
    /// recomputes its bank (marks it dirty while deferred).
    pub(crate) fn replace(&mut self, rank: &Rank, i: usize, mask: u8, arrival: u64) {
        let c = &mut self.cands[i];
        c.mask = mask;
        c.arrival = arrival;
        let (r, b) = (c.rank, c.bank);
        self.touch_bank(rank, r, b);
    }

    /// Removes the request at position `i` (it issued its CAS). The caller
    /// must then recompute the request's bank: the protection its open
    /// row gave the bank's conflicts is gone.
    pub(crate) fn remove(&mut self, i: usize) {
        let c = self.cands.remove(i);
        for w in self.members.iter_mut().chain(&mut self.bank_members) {
            *w = remove_bit(*w, i);
        }
        if c.group != NO_GROUP {
            let g = c.rank * self.classes + c.group as usize;
            if c.ready == self.min[g] {
                self.refresh_min(g);
            }
        }
    }

    /// Rederives group `g`'s minimum from its members.
    fn refresh_min(&mut self, g: usize) {
        let min = ones(self.members[g])
            .map(|i| self.cands[i].ready)
            .min()
            .unwrap_or(u64::MAX);
        self.set_min(g, min);
    }

    fn set_min(&mut self, g: usize, min: u64) {
        self.min[g] = min;
        self.at[g] = min.max(self.terms[g]);
        // Bank timers never reach u64::MAX, so only an empty group has
        // that minimum.
        let (r, bit) = (g / self.classes, 1 << (g % self.classes));
        if min == u64::MAX {
            self.occupied[r] &= !bit;
        } else {
            self.occupied[r] |= bit;
        }
    }

    fn set_term(&mut self, g: usize, term: u64) {
        self.terms[g] = term;
        self.at[g] = self.min[g].max(term);
    }

    /// Recomputes the rank-level terms a `pass` command moves on rank
    /// `rank_idx`: a CAS moves the data-bus timers (the CAS classes'
    /// terms), an ACT the tRRD/tFAW window (the ACT classes'), and a PRE
    /// nothing rank-level. Each term folds in the refresh gate, which
    /// only a refresh moves ([`refresh_rank`](Self::refresh_rank)
    /// recomputes all of them).
    fn refresh_terms(&mut self, pass: Pass, rank_idx: usize, rank: &Rank, t: &Timing) {
        let gate = rank.refresh_until;
        let base = rank_idx * self.classes;
        if pass == Pass::Pre {
            let g = base + self.class_of(Pass::Pre, 0);
            self.set_term(g, gate);
            return;
        }
        for m in 1..=((1u8 << self.subranks) - 1) {
            let mut term = gate;
            for s in ones(m.into()) {
                term = term.max(match pass {
                    Pass::Cas if self.writes => rank.bus_write_ready_at(s),
                    Pass::Cas => rank.bus_read_ready_at(s),
                    Pass::Act | Pass::Pre => rank.act_window_ready_at(s, t),
                });
            }
            let g = base + self.class_of(pass, m);
            self.set_term(g, term);
        }
    }

    /// Recomputes every record of `bank` in rank `rank_idx`, their
    /// protection and the minima of the groups they leave or join. The
    /// first pass re-reads each member's sub-banks and gathers, per
    /// sub-rank, the oldest arrival among members wanting that sub-bank's
    /// open row; the second uses that to split the row conflicts into
    /// unprotected (the PRE group) and fully protected (no group).
    fn refresh_bank(&mut self, rank: &Rank, rank_idx: usize, bank: usize) {
        let members = self.bank_members[rank_idx * self.banks + bank];
        let base = rank_idx * self.classes;
        let mut protect = [u64::MAX; MAX_SUBRANKS];
        // Groups whose cached minimum one of this bank's members held:
        // that member may have moved or left, so they are rederived from
        // their members; every other group only takes in new values.
        let mut stale = 0u64;
        for i in ones(members) {
            let c = self.cands[i];
            if c.group != NO_GROUP && c.ready == self.min[base + c.group as usize] {
                stale |= 1 << c.group;
            }
            let (class, ready, open, conflict) = self.walk(rank, &c);
            for s in ones(open.into()) {
                protect[s] = protect[s].min(c.arrival);
            }
            let c = &mut self.cands[i];
            c.class = class as u8;
            c.ready = ready;
            c.conflict = conflict;
        }
        for i in ones(members) {
            let c = self.cands[i];
            // A conflicting sub-bank stays open while a request at least
            // as old as this one wants its row.
            let eff = ones(c.conflict.into())
                .filter(|&s| protect[s] > c.arrival)
                .fold(0u8, |m, s| m | 1 << s);
            let group = if c.conflict != 0 && eff == 0 {
                NO_GROUP
            } else {
                c.class
            };
            self.cands[i].eff = eff;
            self.place(i, base, group);
            if group != NO_GROUP {
                let g = base + group as usize;
                if c.ready < self.min[g] {
                    self.set_min(g, c.ready);
                }
            }
        }
        for k in ones(stale) {
            self.refresh_min(base + k);
        }
    }

    /// Reads a record's class, bank-local ready time, open mask and
    /// conflict mask off its bank's sub-bank state.
    fn walk(&self, rank: &Rank, c: &Cand) -> (usize, u64, u8, u8) {
        let (mut open, mut act_mask, mut conflict) = (0u8, 0u8, 0u8);
        let (mut cas, mut act, mut pre) = (0u64, 0u64, 0u64);
        for s in ones(c.mask.into()) {
            let sb = rank.sub_bank(c.bank, s);
            match sb.state() {
                RowState::Active { row } if row == c.row => {
                    open |= 1 << s;
                    cas = cas.max(if self.writes {
                        sb.write_ready_at()
                    } else {
                        sb.read_ready_at()
                    });
                }
                // A different row is open: ACT is blocked until a PRE
                // closes it.
                RowState::Active { .. } => {
                    conflict |= 1 << s;
                    pre = pre.max(sb.precharge_ready_at());
                }
                _ => {
                    act_mask |= 1 << s;
                    act = act.max(sb.activate_ready_at());
                }
            }
        }
        let (class, ready) = if conflict != 0 {
            (self.class_of(Pass::Pre, 0), pre)
        } else if act_mask != 0 {
            (self.class_of(Pass::Act, act_mask), act)
        } else {
            (self.class_of(Pass::Cas, c.mask), cas)
        };
        (class, ready, open, conflict)
    }

    /// Moves the record at position `i` into `group` of the rank whose
    /// groups start at `base` (or out of every group for [`NO_GROUP`]).
    fn place(&mut self, i: usize, base: usize, group: u8) {
        let old = std::mem::replace(&mut self.cands[i].group, group);
        if old != group {
            let bit = 1u64 << i;
            if old != NO_GROUP {
                self.members[base + old as usize] &= !bit;
            }
            if group != NO_GROUP {
                self.members[base + group as usize] |= bit;
            }
        }
    }

    fn refresh_rank_terms(&mut self, rank: &Rank, rank_idx: usize, t: &Timing) {
        for pass in [Pass::Cas, Pass::Act, Pass::Pre] {
            self.refresh_terms(pass, rank_idx, rank, t);
        }
    }

    /// The earliest cycle the request at position `i` could issue in its
    /// pass; `u64::MAX` for a fully protected row conflict unless
    /// `bypass_protection` (the starving read may close any row).
    pub(crate) fn ready_at(&self, i: usize, bypass_protection: bool) -> u64 {
        let c = &self.cands[i];
        if c.group == NO_GROUP && !bypass_protection {
            return u64::MAX;
        }
        c.ready
            .max(self.terms[c.rank * self.classes + c.class as usize])
    }

    /// The earliest cycle any grouped request could issue, clamped to no
    /// earlier than `soon` (`u64::MAX` when none can until the state
    /// changes): one `min` per group.
    pub(crate) fn bound(&self, soon: u64) -> u64 {
        self.at.iter().min().copied().unwrap_or(u64::MAX).max(soon)
    }

    /// The scheduler decision at `now`: the highest-priority pass with a
    /// request ready to issue and that pass's first ready request in
    /// queue order, skipping ranks for which `due` reports a pending
    /// refresh. When nothing is ready, the error is the earliest cycle
    /// any grouped request could issue (`u64::MAX` when none can until
    /// the state changes), due ranks included. A group whose
    /// `max(min, term)` has passed holds a ready member (the one at the
    /// minimum), so finding the pass reads one word per non-empty group,
    /// and only that pass's ready groups are then scanned, each only up to
    /// the best position found so far.
    pub(crate) fn pick(&self, now: u64, due: impl Fn(usize) -> bool) -> Result<(Pass, usize), u64> {
        let classes = self.classes;
        // Ready classes over the ranks that may issue, one bit per class.
        let mut ready = 0u64;
        let mut earliest = u64::MAX;
        for (r, &occupied) in self.occupied.iter().enumerate() {
            let mut rank_ready = 0u64;
            for k in ones(occupied) {
                let at = self.at[r * classes + k];
                earliest = earliest.min(at);
                rank_ready |= u64::from(at <= now) << k;
            }
            if rank_ready != 0 && !due(r) {
                ready |= rank_ready;
            }
        }
        if ready == 0 {
            return Err(earliest);
        }
        let masks = (1 << self.subranks) - 1;
        let pass = if ready & ((1 << masks) - 1) != 0 {
            Pass::Cas
        } else if ready >> masks & ((1 << masks) - 1) != 0 {
            Pass::Act
        } else {
            Pass::Pre
        };
        let mut best = usize::MAX;
        for r in 0..self.occupied.len() {
            if due(r) {
                continue;
            }
            for g in self.classes_of(pass).map(|k| r * classes + k) {
                if self.at[g] > now {
                    continue;
                }
                // Members below `best` only: the first ready one wins.
                let below = if best < MAX_QUEUE {
                    (1u64 << best) - 1
                } else {
                    u64::MAX
                };
                let mut members = ones(self.members[g] & below);
                if let Some(i) = members.find(|&i| self.cands[i].ready <= now) {
                    best = i;
                }
            }
        }
        Ok((pass, best))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remove_bit_shifts_higher_bits_down() {
        assert_eq!(remove_bit(0b1011 | 1 << 63, 1), 0b101 | 1 << 62);
        assert_eq!(remove_bit(1, 0), 0);
        assert_eq!(remove_bit(1 << 63, 63), 0);
        assert_eq!(remove_bit(u64::MAX, 0), u64::MAX >> 1);
    }

    #[test]
    fn ones_iterate_in_ascending_order() {
        assert_eq!(ones(0b1000_1001).collect::<Vec<_>>(), vec![0, 3, 7]);
        assert_eq!(ones(1 << 63).collect::<Vec<_>>(), vec![63]);
        assert_eq!(ones(0).count(), 0);
    }
}
