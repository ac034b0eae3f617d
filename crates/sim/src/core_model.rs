//! The trace-driven out-of-order core model.
//!
//! A USIMM/Ariel-style approximation of the paper's 4-wide OoO cores: a
//! reorder buffer holds a window of the instruction stream; loads that
//! miss the LLC block retirement when they reach the head, while younger
//! independent misses keep issuing (memory-level parallelism). Stores are
//! posted through a store buffer and never block retirement once issued.
//! This captures exactly the sensitivity the paper measures: how memory
//! latency and bandwidth changes translate into IPC.

use attache_workloads::TraceGenerator;
use std::collections::VecDeque;

/// Where a memory instruction stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemState {
    /// Not yet presented to the LLC / memory system.
    NeedIssue,
    /// LLC hit: data ready at this CPU cycle.
    WaitLlc(u64),
    /// LLC miss: waiting on the memory transaction with this id.
    WaitMem(u64),
    /// Data available; the instruction may retire.
    Ready,
}

/// One reorder-buffer slot: either a batch of non-memory instructions or a
/// single memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// `remaining` non-memory instructions.
    Gap {
        /// Instructions left to retire from this batch.
        remaining: u32,
    },
    /// A memory instruction.
    Mem {
        /// Physical line address.
        line: u64,
        /// Store (true) or load (false).
        is_write: bool,
        /// Progress state.
        state: MemState,
        /// Set once an issue pass has stalled on this slot, which proves
        /// `line` absent from the LLC (hits never stall). It stays absent
        /// until this core fills it — footprints are disjoint across
        /// cores — so the mark spares later passes the LLC probe;
        /// [`Core::forget_known_miss`] clears it on that fill.
        known_miss: bool,
    },
}

/// One simulated core.
#[derive(Debug)]
pub struct Core {
    /// Core index.
    pub id: usize,
    trace: TraceGenerator,
    base_line: u64,
    /// The reorder buffer.
    pub rob: VecDeque<Slot>,
    /// Instructions currently held in the ROB.
    pub occupancy: u32,
    /// Instructions retired since the last reset.
    pub retired: u64,
    /// Outstanding memory transactions (MSHR occupancy).
    pub outstanding: usize,
    /// Most outstanding transactions this core will sustain: the MSHR
    /// count, further capped by the workload's
    /// [`mlp_limit`](attache_workloads::Profile::mlp_limit) (a serialized
    /// pointer chase caps it at 1).
    pub max_outstanding: usize,
    /// Exact count of [`MemState::NeedIssue`] slots in the ROB. Together
    /// with [`issue_from`](Self::issue_from) this lets the per-cycle issue
    /// pass (and the event engine's wake probe) stop as soon as every
    /// un-issued op has been visited instead of walking the whole ROB.
    /// Maintained by [`fill_rob`](Self::fill_rob) / [`retire`](Self::retire)
    /// here and by the issue pass in `sim::system`; only meaningful while
    /// the ROB is mutated through those paths.
    pub need_issue: u32,
    /// Index of the first ROB slot that can be in `NeedIssue` state — a
    /// lower bound kept exact by the issue pass (first stalled slot), by
    /// `fill_rob` (first push while `need_issue == 0`), and by `retire`
    /// (shifted down as head slots pop). Unspecified while
    /// `need_issue == 0`.
    pub issue_from: usize,
    /// Snapshot taken after an issue pass in which *every* un-issued slot
    /// stalled (such a pass is side-effect-free): the system's
    /// issue-environment generation, paired with
    /// [`stall_outstanding`](Self::stall_outstanding) /
    /// [`stall_need_issue`](Self::stall_need_issue). While all three still
    /// match, repeating the pass would provably stall identically, so
    /// `sim::system` skips it. `u64::MAX` means "no valid snapshot".
    pub stall_env_gen: u64,
    /// MSHR occupancy at the snapshot (a completion freeing an MSHR can
    /// turn a stall into an issue).
    pub stall_outstanding: usize,
    /// `need_issue` at the snapshot (`fill_rob` appending a fresh op must
    /// re-run the pass).
    pub stall_need_issue: u32,
}

impl Core {
    /// Creates a core running `trace` with its footprint based at
    /// `base_line`, sustaining at most `max_outstanding` memory
    /// transactions.
    pub fn new(id: usize, trace: TraceGenerator, base_line: u64, max_outstanding: usize) -> Self {
        Self {
            id,
            trace,
            base_line,
            rob: VecDeque::new(),
            occupancy: 0,
            retired: 0,
            outstanding: 0,
            max_outstanding,
            need_issue: 0,
            issue_from: 0,
            stall_env_gen: u64::MAX,
            stall_outstanding: 0,
            stall_need_issue: 0,
        }
    }

    /// Fills the ROB from the trace up to `rob_size` instructions.
    pub fn fill_rob(&mut self, rob_size: u32) {
        while self.occupancy < rob_size {
            let ev = self.trace.next_event();
            if ev.gap_instructions > 0 {
                self.rob.push_back(Slot::Gap {
                    remaining: ev.gap_instructions,
                });
                self.occupancy += ev.gap_instructions;
            }
            if self.need_issue == 0 {
                self.issue_from = self.rob.len();
            }
            self.rob.push_back(Slot::Mem {
                line: self.base_line + ev.line_offset,
                is_write: ev.is_write,
                state: MemState::NeedIssue,
                known_miss: false,
            });
            self.need_issue += 1;
            self.occupancy += 1;
        }
    }

    /// Retires up to `width` instructions from the ROB head at CPU cycle
    /// `cpu_now`; returns how many retired.
    pub fn retire(&mut self, width: u32, cpu_now: u64) -> u32 {
        let mut budget = width;
        // Slots popped off the head shift every remaining index down, so
        // the `issue_from` bound must shift with them. A popped slot is
        // never in `NeedIssue` state (an un-issued head blocks retirement),
        // so `need_issue` itself is unaffected.
        let mut pops = 0usize;
        while budget > 0 {
            match self.rob.front_mut() {
                Some(Slot::Gap { remaining }) => {
                    let take = (*remaining).min(budget);
                    *remaining -= take;
                    budget -= take;
                    self.occupancy -= take;
                    self.retired += take as u64;
                    if *remaining == 0 {
                        self.rob.pop_front();
                        pops += 1;
                    }
                }
                Some(Slot::Mem {
                    is_write, state, ..
                }) => {
                    let ready = if *is_write {
                        // Stores retire once issued (store buffer).
                        *state != MemState::NeedIssue
                    } else {
                        match *state {
                            MemState::Ready => true,
                            MemState::WaitLlc(t) => t <= cpu_now,
                            _ => false,
                        }
                    };
                    if !ready {
                        break;
                    }
                    self.rob.pop_front();
                    pops += 1;
                    self.occupancy -= 1;
                    self.retired += 1;
                    budget -= 1;
                }
                None => break,
            }
        }
        self.issue_from = self.issue_from.saturating_sub(pops);
        width - budget
    }

    /// Clears the known-miss marks on un-issued slots for `line`, which
    /// this core has just filled into the LLC.
    pub fn forget_known_miss(&mut self, line: u64) {
        for slot in self.rob.range_mut(self.issue_from..) {
            if let Slot::Mem {
                line: l,
                state: MemState::NeedIssue,
                known_miss,
                ..
            } = slot
            {
                if *l == line {
                    *known_miss = false;
                }
            }
        }
    }

    /// Marks every load waiting on transaction `txn` as ready, without
    /// touching the MSHR count (used for piggybacked waiters).
    pub fn mark_txn_ready(&mut self, txn: u64) {
        for slot in self.rob.iter_mut() {
            if let Slot::Mem { state, .. } = slot {
                if *state == MemState::WaitMem(txn) {
                    *state = MemState::Ready;
                }
            }
        }
    }

    /// Marks every load waiting on transaction `txn` as ready and releases
    /// the initiator's MSHR slot.
    pub fn complete_txn(&mut self, txn: u64) {
        self.mark_txn_ready(txn);
        debug_assert!(self.outstanding > 0);
        self.outstanding -= 1;
    }

    /// Resets retirement counting (warm-up boundary).
    pub fn reset_retired(&mut self) {
        self.retired = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attache_workloads::Profile;

    fn core() -> Core {
        Core::new(0, TraceGenerator::new(&Profile::stream(), 1), 0, 8)
    }

    #[test]
    fn fill_respects_rob_size() {
        let mut c = core();
        c.fill_rob(192);
        assert!(c.occupancy >= 192);
        // Overshoot is at most one gap batch + one memory instruction.
        assert!(c.occupancy < 192 + 64);
    }

    #[test]
    fn gaps_retire_at_issue_width() {
        let mut c = core();
        c.rob.push_back(Slot::Gap { remaining: 10 });
        c.occupancy = 10;
        assert_eq!(c.retire(4, 0), 4);
        assert_eq!(c.retire(4, 0), 4);
        assert_eq!(c.retire(4, 0), 2);
        assert_eq!(c.retired, 10);
    }

    #[test]
    fn pending_load_blocks_retirement() {
        let mut c = core();
        c.rob.push_back(Slot::Mem {
            line: 0,
            is_write: false,
            state: MemState::WaitMem(7),
            known_miss: false,
        });
        c.rob.push_back(Slot::Gap { remaining: 8 });
        c.occupancy = 9;
        assert_eq!(c.retire(4, 0), 0, "load at head blocks");
        c.outstanding = 1;
        c.complete_txn(7);
        assert_eq!(c.retire(4, 0), 4, "load + 3 gap instructions");
    }

    #[test]
    fn issued_store_does_not_block() {
        let mut c = core();
        c.rob.push_back(Slot::Mem {
            line: 0,
            is_write: true,
            state: MemState::WaitMem(3),
            known_miss: false,
        });
        c.rob.push_back(Slot::Gap { remaining: 4 });
        c.occupancy = 5;
        assert_eq!(c.retire(4, 0), 4, "posted store retires immediately");
    }

    #[test]
    fn unissued_store_blocks() {
        let mut c = core();
        c.rob.push_back(Slot::Mem {
            line: 0,
            is_write: true,
            state: MemState::NeedIssue,
            known_miss: false,
        });
        c.occupancy = 1;
        assert_eq!(c.retire(4, 0), 0);
    }

    #[test]
    fn llc_hit_ready_after_latency() {
        let mut c = core();
        c.rob.push_back(Slot::Mem {
            line: 0,
            is_write: false,
            state: MemState::WaitLlc(20),
            known_miss: false,
        });
        c.occupancy = 1;
        assert_eq!(c.retire(4, 19), 0);
        assert_eq!(c.retire(4, 20), 1);
    }
}
