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
        /// cores — so the mark spares later passes the LLC probe. Only
        /// slots after the one whose miss fills `line` can still hold it
        /// un-issued, and the filling pass visits all of them, so that
        /// pass ignores the mark for the lines it filled.
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
    /// Slots popped off the ROB head so far. A slot's absolute position,
    /// `popped` plus its index, stays fixed while it sits in the ROB, so
    /// positions name slots across retirements: transaction waiters
    /// record them ([`mark_ready_at`](Self::mark_ready_at)), and the
    /// issue bookkeeping below is kept in them.
    pub popped: u64,
    /// Instructions currently held in the ROB.
    pub occupancy: u32,
    /// Instructions retired so far.
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
    /// Maintained by [`fill_rob`](Self::fill_rob) here and by the issue
    /// pass in `sim::system`; only meaningful while the ROB is mutated
    /// through those paths.
    pub need_issue: u32,
    /// Absolute position of the first slot that can be in `NeedIssue`
    /// state — a lower bound kept exact by the issue pass (first stalled
    /// slot) and by `fill_rob` (first push while `need_issue == 0`).
    /// Retirement never moves it: an un-issued head blocks retirement.
    /// Unspecified while `need_issue == 0`.
    pub issue_from: u64,
    /// The stall snapshot, taken after every issue pass: the system's
    /// issue-environment generation, paired with
    /// [`stall_outstanding`](Self::stall_outstanding),
    /// [`stall_need_issue`](Self::stall_need_issue) and
    /// [`stall_end`](Self::stall_end). Every slot a pass leaves un-issued
    /// stalled on a proven miss while the MSHRs or the retry queue were
    /// full, and neither condition can ease without moving the generation
    /// or the MSHR count. So while both still match
    /// ([`snapshot_holds`](Self::snapshot_holds)), those slots would stall
    /// again, and a pass need only visit the slots appended since.
    /// `u64::MAX` means "no valid snapshot".
    pub stall_env_gen: u64,
    /// MSHR occupancy at the snapshot (a completion freeing an MSHR can
    /// turn a stall into an issue).
    pub stall_outstanding: usize,
    /// `need_issue` at the snapshot: the un-issued slots below
    /// [`stall_end`](Self::stall_end), since only `fill_rob` adds more,
    /// and only at the end.
    pub stall_need_issue: u32,
    /// Absolute ROB end at the snapshot: slots from here on were
    /// appended by `fill_rob` after it.
    pub stall_end: u64,
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
            popped: 0,
            occupancy: 0,
            retired: 0,
            outstanding: 0,
            max_outstanding,
            need_issue: 0,
            issue_from: 0,
            stall_env_gen: u64::MAX,
            stall_outstanding: 0,
            stall_need_issue: 0,
            stall_end: 0,
        }
    }

    /// Absolute position one past the ROB's last slot.
    pub fn end_pos(&self) -> u64 {
        self.popped + self.rob.len() as u64
    }

    /// ROB index of the slot at absolute position `pos` (which must not
    /// have been popped).
    pub fn index_of(&self, pos: u64) -> usize {
        debug_assert!(pos >= self.popped, "slot {pos} already retired");
        (pos - self.popped) as usize
    }

    /// Whether the stall snapshot still holds under issue-environment
    /// generation `env_gen`: every un-issued slot below
    /// [`stall_end`](Self::stall_end) would stall again.
    pub fn snapshot_holds(&self, env_gen: u64) -> bool {
        self.stall_env_gen == env_gen && self.stall_outstanding == self.outstanding
    }

    /// Whether the stall snapshot holds and covers every un-issued slot,
    /// so that no memory op of this core could issue now.
    pub fn snapshot_covers(&self, env_gen: u64) -> bool {
        self.snapshot_holds(env_gen) && self.stall_need_issue == self.need_issue
    }

    /// Records the stall snapshot at the end of an issue pass.
    pub fn take_snapshot(&mut self, env_gen: u64) {
        self.stall_env_gen = env_gen;
        self.stall_outstanding = self.outstanding;
        self.stall_need_issue = self.need_issue;
        self.stall_end = self.end_pos();
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
                self.issue_from = self.end_pos();
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
                        self.popped += 1;
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
                    self.popped += 1;
                    self.occupancy -= 1;
                    self.retired += 1;
                    budget -= 1;
                }
                None => break,
            }
        }
        width - budget
    }

    /// Marks the load at absolute position `pos`, which waits on
    /// transaction `txn`, as ready. A waiting load cannot retire, so the
    /// slot is still in the ROB.
    pub fn mark_ready_at(&mut self, pos: u64, txn: u64) {
        let idx = self.index_of(pos);
        match &mut self.rob[idx] {
            Slot::Mem { state, .. } => {
                debug_assert_eq!(*state, MemState::WaitMem(txn), "slot {pos} waits elsewhere");
                *state = MemState::Ready;
            }
            Slot::Gap { .. } => unreachable!("slot {pos} is not a memory op"),
        }
    }

    /// Releases the MSHR slot a finished transaction held.
    pub fn release_mshr(&mut self) {
        debug_assert!(self.outstanding > 0);
        self.outstanding -= 1;
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
        c.mark_ready_at(0, 7);
        c.release_mshr();
        assert_eq!(c.outstanding, 0);
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
    /// The whole-ROB scan that [`Core::mark_ready_at`] replaced: every load
    /// waiting on `txn` becomes ready.
    fn mark_txn_ready_scan(c: &mut Core, txn: u64) {
        for slot in c.rob.iter_mut() {
            if let Slot::Mem { state, .. } = slot {
                if *state == MemState::WaitMem(txn) {
                    *state = MemState::Ready;
                }
            }
        }
    }

    /// A core whose head has retired past a few slots, holding loads that
    /// wait on transactions 0..4 (transaction 2 twice: an initiator and a
    /// piggybacked hit), plus gaps, an issued store and an un-issued load.
    /// Returns the core and each waiting slot's (position, transaction).
    fn waiting_core() -> (Core, Vec<(u64, u64)>) {
        let mut c = core();
        for _ in 0..3 {
            c.rob.push_back(Slot::Gap { remaining: 1 });
            c.occupancy += 1;
        }
        assert_eq!(c.retire(4, 0), 3);
        let load = |state| Slot::Mem {
            line: 9,
            is_write: false,
            state,
            known_miss: false,
        };
        let slots = [
            load(MemState::WaitMem(0)),
            Slot::Gap { remaining: 5 },
            load(MemState::WaitMem(2)),
            load(MemState::WaitLlc(4)),
            load(MemState::WaitMem(1)),
            Slot::Mem {
                line: 3,
                is_write: true,
                state: MemState::Ready,
                known_miss: false,
            },
            load(MemState::WaitMem(2)),
            load(MemState::NeedIssue),
            load(MemState::WaitMem(3)),
        ];
        let mut waiting = Vec::new();
        for s in slots {
            if let Slot::Mem {
                state: MemState::WaitMem(t),
                ..
            } = s
            {
                waiting.push((c.end_pos(), t));
            }
            c.rob.push_back(s);
        }
        (c, waiting)
    }

    #[test]
    fn marking_by_position_equals_the_scan() {
        let (_, waiting) = waiting_core();
        assert_eq!(waiting.len(), 5);
        for txn in 0..4 {
            let (mut scanned, _) = waiting_core();
            mark_txn_ready_scan(&mut scanned, txn);
            let (mut direct, _) = waiting_core();
            assert_eq!(direct.popped, 3, "positions are absolute");
            for &(pos, t) in &waiting {
                if t == txn {
                    direct.mark_ready_at(pos, t);
                }
            }
            assert_eq!(direct.rob, scanned.rob, "transaction {txn}");
        }
    }
}
