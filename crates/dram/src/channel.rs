//! One memory channel: request queues, FR-FCFS scheduling, refresh, and the
//! command/data bus model.
//!
//! Scheduling follows the paper's CramSim configuration (§V): reads are
//! prioritized over writes, and a write buffer drains to memory once a high
//! watermark is reached (with hysteresis down to a low watermark). Row hits
//! are preferred over older row misses (FR-FCFS) with an age cap to prevent
//! starvation.

use crate::config::{AddressMapping, DramConfig, Location, Timing};
use crate::conformance::{ConformanceChecker, ConformanceStats, DramCommand};
use crate::power::{PowerModel, PowerParams};
use crate::rank::Rank;
use crate::request::{AccessKind, Completion, MemRequest};


/// Aggregated per-channel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChannelStats {
    /// Bus cycles simulated.
    pub cycles: u64,
    /// Demand reads completed.
    pub demand_reads: u64,
    /// Corrective (COPR-misprediction) reads completed.
    pub corrective_reads: u64,
    /// Metadata-Cache install reads completed.
    pub metadata_reads: u64,
    /// Replacement-Area reads completed.
    pub replacement_area_reads: u64,
    /// LLC writebacks completed.
    pub data_writes: u64,
    /// Metadata-Cache eviction writes completed.
    pub metadata_writes: u64,
    /// Replacement-Area writes completed.
    pub replacement_area_writes: u64,
    /// CAS commands that hit an already-open row.
    pub row_hits: u64,
    /// CAS commands that required ACT (and possibly PRE) first.
    pub row_misses: u64,
    /// ACT commands issued.
    pub activates: u64,
    /// PRE commands issued.
    pub precharges: u64,
    /// REF commands issued.
    pub refreshes: u64,
    /// Data bytes moved over the bus.
    pub bytes: u64,
    /// Sub-rank-bus busy cycles (sum over sub-ranks).
    pub busy_bus_cycles: u64,
    /// Total latency of completed reads (arrival to data end), bus cycles.
    pub read_latency_sum: u64,
    /// Number of completed reads counted in the latency sum.
    pub read_latency_count: u64,
    /// Reads served by forwarding from the write queue.
    pub forwarded_reads: u64,
    /// Background patrol-scrub reads completed (ECC maintenance).
    pub scrub_reads: u64,
    /// Bus cycles spent in write-drain mode.
    pub drain_cycles: u64,
    /// Write-drain episodes entered.
    pub drain_episodes: u64,
}

impl ChannelStats {
    /// Total read requests serviced from DRAM (not forwarded).
    pub fn total_reads(&self) -> u64 {
        self.demand_reads
            + self.corrective_reads
            + self.metadata_reads
            + self.replacement_area_reads
            + self.scrub_reads
    }

    /// Total write requests serviced.
    pub fn total_writes(&self) -> u64 {
        self.data_writes + self.metadata_writes + self.replacement_area_writes
    }

    /// Total memory requests serviced.
    pub fn total_requests(&self) -> u64 {
        self.total_reads() + self.total_writes()
    }

    /// Average read latency in bus cycles.
    pub fn avg_read_latency(&self) -> f64 {
        if self.read_latency_count == 0 {
            0.0
        } else {
            self.read_latency_sum as f64 / self.read_latency_count as f64
        }
    }

    /// Mean data bandwidth in bytes per bus cycle.
    pub fn bandwidth_bytes_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.bytes as f64 / self.cycles as f64
        }
    }

    /// Row-buffer hit rate over CAS commands.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Component-wise sum (for aggregating channels).
    pub fn add(&mut self, o: &ChannelStats) {
        self.cycles = self.cycles.max(o.cycles);
        self.demand_reads += o.demand_reads;
        self.corrective_reads += o.corrective_reads;
        self.metadata_reads += o.metadata_reads;
        self.replacement_area_reads += o.replacement_area_reads;
        self.data_writes += o.data_writes;
        self.metadata_writes += o.metadata_writes;
        self.replacement_area_writes += o.replacement_area_writes;
        self.row_hits += o.row_hits;
        self.row_misses += o.row_misses;
        self.activates += o.activates;
        self.precharges += o.precharges;
        self.refreshes += o.refreshes;
        self.bytes += o.bytes;
        self.busy_bus_cycles += o.busy_bus_cycles;
        self.read_latency_sum += o.read_latency_sum;
        self.read_latency_count += o.read_latency_count;
        self.forwarded_reads += o.forwarded_reads;
        self.scrub_reads += o.scrub_reads;
        self.drain_cycles += o.drain_cycles;
        self.drain_episodes += o.drain_episodes;
    }
}

/// Cached result of one candidate's sub-bank walk, valid while the
/// epochs it was computed under still match (see
/// [`Channel::bank_epoch`]). All values are *bank-local*: rank-level
/// timers (refresh gate, data-bus, tFAW window) move on commands to
/// *other* banks too, so they are cheap fresh loads at use time rather
/// than cached state.
///
/// The flags of the three scheduler passes are encoded in the masks:
/// `act_mask | conflict_mask == 0` ⟺ every masked sub-bank has the row
/// open (CAS pass), `conflict_mask != 0` ⟺ ACT is blocked behind a PRE.
#[derive(Debug, Clone, Copy, Default)]
struct CandCache {
    /// Snapshot of `req.arrival` — immutable per request (a coalescing
    /// write replaces the request and resets the cache), so the walk's
    /// row-protection bookkeeping never touches `req`.
    arrival: u64,
    /// Max of the masked open sub-banks' column-ready times.
    cas_bank: u64,
    /// Max of `act_mask` sub-banks' tRC/tRP activate-ready times.
    act_bank: u64,
    /// Max of `conflict_mask` sub-banks' tRAS/tRTP/tWR precharge-ready
    /// times.
    pre_bank: u64,
    /// `bank_epoch` value this cache was computed under. Epochs wrap
    /// at `u32::MAX`; a false match would need exactly `2^32` commands
    /// to one bank while this candidate sits queued, far beyond any
    /// queue residence time.
    bank_epoch: u32,
    /// `rank_epoch` (refresh) value this cache was computed under.
    rank_epoch: u32,
    /// Identity snapshot of `loc.flat_bank(..)` — immutable per request.
    flat_bank: u16,
    /// Identity snapshot of `loc.rank` — immutable per request.
    rank: u8,
    /// Sub-bank mask of the request's width. A real mask is never zero,
    /// so `mask == 0` doubles as the "never computed" sentinel (the
    /// default), invalidated again on write coalescing.
    mask: u8,
    /// Masked sub-banks that are idle and need an ACT.
    act_mask: u8,
    /// Masked sub-banks holding a *different* open row (need a PRE).
    conflict_mask: u8,
}

impl CandCache {
    /// Walks the masked sub-banks of `p`'s bank once and snapshots
    /// everything bank-local the three scheduler passes need. `writes`
    /// is fixed per candidate (each `Pending` lives in exactly one
    /// queue), so caching the direction-specific column timer is sound.
    fn compute(
        rank: &Rank,
        rank_idx: usize,
        bank: usize,
        p: &Pending,
        writes: bool,
        subranks: usize,
        epochs: (u32, u32),
    ) -> Self {
        let mask = p.req.width.mask();
        let mut c = CandCache {
            arrival: p.req.arrival,
            bank_epoch: epochs.0,
            rank_epoch: epochs.1,
            flat_bank: bank as u16,
            rank: rank_idx as u8,
            mask,
            ..Self::default()
        };
        for s in (0..subranks).filter(|s| mask & (1 << *s) != 0) {
            let sb = rank.sub_bank(bank, s);
            if sb.row_open(p.loc.row) {
                c.cas_bank = c.cas_bank.max(if writes {
                    sb.write_ready_at()
                } else {
                    sb.read_ready_at()
                });
            } else if matches!(sb.state(), crate::bank::RowState::Active { .. }) {
                // A different row is open: ACT is blocked until a PRE
                // closes it.
                c.conflict_mask |= 1 << s;
                c.pre_bank = c.pre_bank.max(sb.precharge_ready_at());
            } else {
                c.act_mask |= 1 << s;
                c.act_bank = c.act_bank.max(sb.activate_ready_at());
            }
        }
        c
    }

    /// Masked sub-banks that already hold this candidate's row open.
    fn open_mask(&self) -> u8 {
        self.mask & !(self.act_mask | self.conflict_mask)
    }
}

/// A queued request. `repr(C)` pins the scan cache to the front: the
/// scheduler's fast path reads only the cache (one line into each
/// element of the queue's stride), touching `loc`/`req` just on
/// recompute, issue, and the rarer PRE/starvation paths.
#[derive(Debug, Clone)]
#[repr(C)]
struct Pending {
    /// Epoch-validated scan cache; interior mutability lets the
    /// scheduler refresh it through the shared queue borrow.
    cache: std::cell::Cell<CandCache>,
    loc: Location,
    req: MemRequest,
    needed_act: bool,
}

/// Rejection returned when a queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl core::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("memory controller queue is full")
    }
}

impl std::error::Error for QueueFull {}


/// Command tracing (set `ATTACHE_TRACE=1`): logs CAS/ACT/PRE on channel 0
/// to stderr. The flag is read once and cached.
fn trace_enabled() -> bool {
    static FLAG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FLAG.get_or_init(|| std::env::var("ATTACHE_TRACE").is_ok())
}

/// Protocol conformance auditing (set `ATTACHE_CONFORMANCE=1`): attaches a
/// [`ConformanceChecker`] to every channel at construction. Read per call —
/// not cached — so tests can toggle it between [`Channel::new`] calls.
fn conformance_enabled() -> bool {
    std::env::var("ATTACHE_CONFORMANCE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Age (bus cycles) past which the oldest read preempts row-hit-first order.
const STARVATION_AGE: u64 = 1_536;

/// One DDR4 channel with its memory controller front-end.
#[derive(Debug)]
pub struct Channel {
    index: usize,
    cfg: DramConfig,
    mapping: AddressMapping,
    ranks: Vec<Rank>,
    read_q: Vec<Pending>,
    write_q: Vec<Pending>,
    /// `write_q[i].req.line_addr` as a dense column: the forwarding and
    /// coalescing checks scan eight bytes per entry instead of striding
    /// through whole `Pending` records.
    write_lines: Vec<u64>,
    /// Acceptance generation: bumped on exactly the mutations that can
    /// turn a rejected [`enqueue`](Channel::enqueue) into an accepted
    /// one — a CAS shrinking a queue, a new write-queue line (read
    /// forwarding, write coalescing), and a derate set or lift. Queue
    /// growth from an accepted read only tightens acceptance, and ACT,
    /// PRE, refresh and burst retirement leave it untouched.
    accept_gen: u64,
    in_flight: Vec<(u64, MemRequest, bool)>, // (finish, req, counted_row_hit)
    completed: Vec<Completion>,
    now: u64,
    sticky_drain: bool,
    stats: ChannelStats,
    stats_base: u64,
    /// Per-sub-rank data-bus busy cycles / CAS counts. Observability-only
    /// side counters (not part of [`ChannelStats`], which feeds
    /// `RunReport`): sub-ranked strategies serve narrow lines from a
    /// subset of chips, and these expose that split per sub-rank.
    subrank_busy: Vec<u64>,
    subrank_cas: Vec<u64>,
    power: PowerModel,
    /// Optional protocol auditor; a pure observer of the command stream.
    auditor: Option<Box<ConformanceChecker>>,
    /// Optional shared event-trace ring, dumped when the auditor fires.
    trace: Option<attache_metrics::SharedTraceRing>,
    /// Fault-injection: temporary cap on the read queue's effective
    /// capacity (`None` = full capacity). Timing-only: models a derated
    /// controller front-end that back-pressures reads.
    read_derate: Option<usize>,
    /// Exact minimum of `req.arrival` over `read_q` (`u64::MAX` when
    /// empty), maintained on every push and CAS removal. The scheduler
    /// consults the oldest read's age on every pass (anti-starvation);
    /// this cache answers the common "nobody is starving" case without
    /// the O(queue) age scan.
    read_min_arrival: u64,
    /// Per-(rank, flat-bank) command epoch, bumped on every CAS, ACT,
    /// and PRE that touches the bank. A candidate's [`CandCache`] is
    /// valid while both its bank epoch and rank epoch still match:
    /// between commands to its bank the sub-bank rows and bank-local
    /// timers are frozen, so most failed scheduler passes revalidate
    /// each candidate with two integer compares instead of re-walking
    /// its sub-banks. Indexed `rank * cfg.banks() + flat_bank`.
    bank_epoch: Vec<u32>,
    /// Per-rank refresh epoch, bumped on every REF (and bulk refresh):
    /// a refresh closes all the rank's banks and moves its gate, so it
    /// invalidates every candidate of the rank at once.
    rank_epoch: Vec<u32>,
    /// Per-walk row-protection table: per (rank, flat-bank, sub-rank)
    /// slot, the minimum arrival over served-queue requests wanting that
    /// sub-bank's *open* row (`u64::MAX` = none). Filled by the main
    /// walk itself, making each PRE protection check O(1) instead of an
    /// O(queue) scan.
    protect_min: Vec<u64>,
    /// Per-walk scratch: the row-conflicted candidates the main walk
    /// met, in queue order, with their fresh caches — the only
    /// candidates the PRE step needs to look at.
    conflicts: Vec<(usize, CandCache)>,
    /// Per-walk scratch, indexed `(rank << subranks) | mask`: the
    /// refresh-gate-folded max of the rank's data-bus ready times over
    /// the sub-ranks in `mask` (so entry `mask = 0` is the bare gate).
    /// Rank-level timers are frozen for the duration of one scheduler
    /// pass, so filling this once per walk (subset DP: one `max` per
    /// entry) turns every candidate's rank-level term into a single
    /// table lookup instead of a gate load plus a masked sub-rank loop.
    walk_cas: Vec<u64>,
    /// Same layout as [`walk_cas`](Channel::walk_cas) for the ACT path:
    /// gate-folded max of the tRRD/tFAW window terms over `mask`.
    walk_act: Vec<u64>,
    /// Per-rank `refresh_due(now)` for the current walk.
    walk_due: Vec<bool>,
}

impl Channel {
    /// Creates channel `index` of a memory system described by `cfg`.
    pub fn new(index: usize, cfg: DramConfig, power: PowerParams) -> Self {
        Self {
            index,
            cfg,
            mapping: AddressMapping::new(cfg),
            ranks: (0..cfg.ranks).map(|_| Rank::new(&cfg)).collect(),
            read_q: Vec::with_capacity(cfg.read_queue_capacity),
            write_q: Vec::with_capacity(cfg.write_queue_capacity),
            write_lines: Vec::with_capacity(cfg.write_queue_capacity),
            accept_gen: 0,
            in_flight: Vec::new(),
            completed: Vec::new(),
            now: 0,
            sticky_drain: false,
            stats: ChannelStats::default(),
            stats_base: 0,
            subrank_busy: vec![0; cfg.subranks],
            subrank_cas: vec![0; cfg.subranks],
            power: PowerModel::new(power),
            auditor: conformance_enabled().then(|| Box::new(ConformanceChecker::new(&cfg))),
            trace: None,
            read_derate: None,
            read_min_arrival: u64::MAX,
            bank_epoch: vec![0; cfg.ranks * cfg.banks()],
            rank_epoch: vec![0; cfg.ranks],
            protect_min: vec![u64::MAX; cfg.ranks * cfg.banks() * cfg.subranks],
            conflicts: Vec::new(),
            walk_cas: vec![0; cfg.ranks << cfg.subranks],
            walk_act: vec![0; cfg.ranks << cfg.subranks],
            walk_due: vec![false; cfg.ranks],
        }
    }

    /// Marks `bank` of `rank` as touched by a command: candidate caches
    /// computed under the old epoch re-walk their sub-banks next pass.
    #[inline]
    fn bump_bank(&mut self, rank: usize, bank: usize) {
        let e = &mut self.bank_epoch[rank * self.cfg.banks() + bank];
        *e = e.wrapping_add(1);
    }

    /// Fault-injection hook: caps (or restores) the read queue's
    /// effective capacity. Affects only future enqueue decisions —
    /// requests already queued are unaffected, so a cap below the current
    /// occupancy simply blocks new reads until the queue drains.
    pub fn set_read_derate(&mut self, cap: Option<usize>) {
        self.read_derate = cap;
        self.accept_gen += 1;
    }

    /// The acceptance generation: while it is unchanged, every
    /// [`enqueue`](Channel::enqueue) this channel rejected would be
    /// rejected again (see the field docs for what bumps it).
    pub(crate) fn accept_gen(&self) -> u64 {
        self.accept_gen
    }

    /// Attaches a protocol auditor validating against `timing` — normally
    /// the channel's own timing (zero violations expected), but tests pass
    /// a perturbed reference to prove deliberate violations are caught.
    pub fn attach_auditor(&mut self, timing: Timing) {
        self.auditor = Some(Box::new(ConformanceChecker::with_timing(&self.cfg, timing)));
    }

    /// Audit counters of the attached auditor, if any.
    pub fn conformance_stats(&self) -> Option<ConformanceStats> {
        self.auditor.as_ref().map(|a| a.stats())
    }

    /// Runs one observed command past the auditor.
    ///
    /// # Panics
    ///
    /// Panics on any protocol violation: a command the scheduler issued
    /// that the independent shadow model deems illegal is a simulator bug,
    /// and continuing would produce silently wrong timing.
    fn audit(&mut self, now: u64, rank: usize, cmd: DramCommand) {
        if let Some(a) = self.auditor.as_mut() {
            if let Err(v) = a.observe(now, rank, &cmd) {
                let history = self
                    .trace
                    .as_ref()
                    .map(|r| format!("\n{}", attache_metrics::dump_shared(r)))
                    .unwrap_or_default();
                panic!(
                    "[attache-dram] channel {} rank {rank}: DRAM protocol violation: {v}{history}",
                    self.index
                );
            }
        }
    }

    /// Shares an event-trace ring with this channel; its contents are
    /// appended to the panic message when the protocol auditor fires.
    pub fn set_trace(&mut self, ring: attache_metrics::SharedTraceRing) {
        self.trace = Some(ring);
    }

    /// Per-sub-rank data-bus busy cycles since the last stats reset.
    pub fn subrank_busy(&self) -> &[u64] {
        &self.subrank_busy
    }

    /// Per-sub-rank CAS (read or write burst) counts since the last
    /// stats reset.
    pub fn subrank_cas(&self) -> &[u64] {
        &self.subrank_cas
    }

    /// The current bus cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Whether a read can be accepted this cycle.
    pub fn can_accept_read(&self) -> bool {
        let cap = match self.read_derate {
            Some(derate) => derate.min(self.cfg.read_queue_capacity),
            None => self.cfg.read_queue_capacity,
        };
        self.read_q.len() < cap
    }

    /// Whether a write can be accepted this cycle.
    pub fn can_accept_write(&self) -> bool {
        self.write_q.len() < self.cfg.write_queue_capacity
    }

    /// Queue occupancy `(reads, writes)`.
    pub fn queue_depths(&self) -> (usize, usize) {
        (self.read_q.len(), self.write_q.len())
    }

    /// Whether [`enqueue`](Channel::enqueue) would succeed for `req` right
    /// now, without mutating anything. This is *not* the same as the queue
    /// having a free slot: reads forward from the write queue and writes
    /// coalesce into it, and both succeed even when the target queue is full.
    pub fn would_accept(&self, req: &MemRequest) -> bool {
        let hits_write_q = self.write_lines.contains(&req.line_addr);
        match req.kind {
            AccessKind::Read => hits_write_q || self.can_accept_read(),
            AccessKind::Write => hits_write_q || self.can_accept_write(),
        }
    }

    /// Enqueues a request.
    ///
    /// Reads that hit a queued write are forwarded and complete immediately.
    /// Writes to a line already in the write queue coalesce in place.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the corresponding queue has no free slot.
    pub fn enqueue(&mut self, req: MemRequest) -> Result<(), QueueFull> {
        self.enqueue_at(req, self.mapping.decompose(req.line_addr))
    }

    /// [`enqueue`](Channel::enqueue) for a caller that has already
    /// decomposed the address (the multi-channel router needs the
    /// location to pick the channel anyway). `loc` must be
    /// `mapping.decompose(req.line_addr)`.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the corresponding queue has no free slot.
    pub(crate) fn enqueue_at(&mut self, req: MemRequest, loc: Location) -> Result<(), QueueFull> {
        debug_assert_eq!(loc, self.mapping.decompose(req.line_addr), "stale location");
        debug_assert_eq!(loc.channel, self.index, "request routed to wrong channel");
        match req.kind {
            AccessKind::Read => {
                if self.write_lines.contains(&req.line_addr) {
                    // Forward from the write buffer: data available on chip.
                    self.stats.forwarded_reads += 1;
                    self.completed.push(Completion {
                        request: req,
                        finished_at: self.now + 1,
                    });
                    return Ok(());
                }
                if !self.can_accept_read() {
                    return Err(QueueFull);
                }
                self.read_min_arrival = self.read_min_arrival.min(req.arrival);
                self.read_q.push(Pending {
                    req,
                    loc,
                    needed_act: false,
                    cache: Default::default(),
                });
            }
            AccessKind::Write => {
                if let Some(i) = self.write_lines.iter().position(|&l| l == req.line_addr) {
                    // Coalescing keeps the queue's lines and lengths, so
                    // the acceptance generation stands.
                    let p = &mut self.write_q[i];
                    p.req = req; // coalesce: latest write wins
                    // The coalesced request may change width, and with
                    // it the sub-bank mask the cache was computed for.
                    p.cache.set(CandCache::default());
                    return Ok(());
                }
                if !self.can_accept_write() {
                    return Err(QueueFull);
                }
                self.write_lines.push(req.line_addr);
                self.write_q.push(Pending {
                    req,
                    loc,
                    needed_act: false,
                    cache: Default::default(),
                });
                // A new line reads can forward from and writes can
                // coalesce into.
                self.accept_gen += 1;
            }
        }
        Ok(())
    }

    /// Drains completions accumulated since the last call.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completed)
    }

    /// Appends the drained completions to `out` instead of handing over
    /// the buffer: both the channel's accumulator and the caller's
    /// scratch keep their capacity, so the per-tick drain allocates
    /// nothing in steady state.
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.completed);
    }

    /// Whether no work is pending or in flight.
    pub fn is_idle(&self) -> bool {
        self.read_q.is_empty() && self.write_q.is_empty() && self.in_flight.is_empty()
    }

    /// Running statistics.
    pub fn stats(&self) -> ChannelStats {
        let mut s = self.stats;
        s.cycles = self.now - self.stats_base;
        s
    }

    /// Accumulated DRAM energy.
    pub fn energy(&self) -> crate::power::EnergyBreakdown {
        self.power.energy()
    }

    /// Resets statistics and energy after warm-up (state machines keep
    /// their contents).
    pub fn reset_stats(&mut self) {
        self.stats = ChannelStats::default();
        // Keep `cycles` relative to the reset point.
        self.stats_base = self.now;
        self.subrank_busy.iter_mut().for_each(|c| *c = 0);
        self.subrank_cas.iter_mut().for_each(|c| *c = 0);
        self.power.reset();
    }

    /// Advances one bus cycle. Returns `true` when the cycle changed any
    /// *scheduling* state (refreshed, issued a command, or flipped the
    /// drain mode) — i.e. when a cached
    /// [`next_sched_event`](Channel::next_sched_event) bound must be
    /// discarded. Burst retirement deliberately does **not** count: queues
    /// only shrink at CAS-issue time and all timing registers are written
    /// at issue, so retiring data changes neither command legality nor
    /// enqueue outcomes (retires are tracked separately via
    /// [`next_retire`](Channel::next_retire)).
    pub fn tick(&mut self) -> bool {
        self.tick_inner::<false>().0
    }

    /// Event-engine variant of [`tick`](Channel::tick): identical state
    /// mutations, but when the cycle changes nothing, the second element is
    /// the exact [`next_sched_event`](Channel::next_sched_event) bound —
    /// computed as a side effect of the failed scheduler pass instead of a
    /// second full queue scan. When the first element is `true` the bound
    /// is invalid (the scheduler acted, so state just changed) and `0` is
    /// returned in its place.
    pub fn tick_with_bound(&mut self) -> (bool, u64) {
        self.tick_inner::<true>()
    }

    fn tick_inner<const WANT_BOUND: bool>(&mut self) -> (bool, u64) {
        self.now += 1;
        let now = self.now;

        // Retire finished bursts.
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].0 <= now {
                let (finish, req, row_hit) = self.in_flight.swap_remove(i);
                self.record_completion(req, finish, row_hit);
            } else {
                i += 1;
            }
        }

        // Background power (one rank per channel in Table II, loop anyway).
        for r in 0..self.ranks.len() {
            let active = self.ranks[r].open_sub_banks > 0;
            self.power.on_background(1, active);
        }

        // Refresh management consumes the command bus when it acts.
        if self.manage_refresh(now) {
            return (true, 0);
        }

        let was = self.sticky_drain;
        let writes = self.drain_writes();
        if writes {
            self.stats.drain_cycles += 1;
        }
        if self.sticky_drain && !was {
            self.stats.drain_episodes += 1;
        }
        let (issued, cand_bound) = if writes || !self.read_q.is_empty() {
            self.issue_from::<WANT_BOUND>(now, writes)
        } else {
            (false, u64::MAX)
        };
        if issued || self.sticky_drain != was {
            return (true, 0);
        }
        if !WANT_BOUND {
            return (false, 0);
        }
        // Assemble the full scheduling bound exactly as `next_sched_event`
        // would compute it post-tick: the candidate terms came from the
        // failed pass above; refresh horizons are merged here. The
        // drain-flip term is vacuous (drain_writes just ran without
        // flipping and queue lengths are frozen until the next event).
        let soon = now + 1;
        let mut horizon = u64::MAX;
        for rank in &self.ranks {
            if rank.refresh_due(now) {
                return (false, soon);
            }
            horizon = horizon.min(rank.next_refresh_due);
        }
        (false, horizon.min(cand_bound))
    }

    /// Advances one bus cycle executing only burst retirement (plus the
    /// background-power and drain-cycle accounting every cycle performs).
    /// Valid only when the caller knows from a cached
    /// [`next_sched_event`](Channel::next_sched_event) bound that no
    /// refresh, command issue, or drain-mode flip can occur this cycle —
    /// then the full [`tick`](Channel::tick) would do exactly this.
    pub fn tick_retire_only(&mut self) {
        debug_assert!(
            self.next_sched_event() > self.now + 1,
            "tick_retire_only would skip a scheduler event"
        );
        self.now += 1;
        let now = self.now;
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].0 <= now {
                let (finish, req, row_hit) = self.in_flight.swap_remove(i);
                self.record_completion(req, finish, row_hit);
            } else {
                i += 1;
            }
        }
        for r in 0..self.ranks.len() {
            let active = self.ranks[r].open_sub_banks > 0;
            self.power.on_background(1, active);
        }
        if self.sticky_drain || (self.read_q.is_empty() && !self.write_q.is_empty()) {
            self.stats.drain_cycles += 1;
        }
    }

    /// Fast-forwards an idle channel to `target`, accounting refreshes and
    /// background energy in bulk.
    ///
    /// # Panics
    ///
    /// Panics if the channel is not idle.
    pub fn advance_idle_to(&mut self, target: u64) {
        assert!(self.is_idle(), "advance_idle_to requires an idle channel");
        if target <= self.now {
            return;
        }
        let span = target - self.now;
        let t = self.cfg.timing;
        for r in 0..self.ranks.len() {
            let due = self.ranks[r].next_refresh_due;
            if target >= due {
                let n = (target - due) / t.t_refi + 1;
                self.ranks[r].bulk_refresh(n, &t);
                self.rank_epoch[r] = self.rank_epoch[r].wrapping_add(1);
                for _ in 0..n {
                    self.power.on_refresh();
                }
                self.stats.refreshes += n;
                if let Some(a) = self.auditor.as_mut() {
                    // Mirror bulk_refresh's force_idle horizon: the last
                    // refresh of the batch completes tRFC after it starts.
                    let busy =
                        self.ranks[r].next_refresh_due.saturating_sub(t.t_refi) + t.t_rfc;
                    a.fast_forward_refresh(r, n, busy);
                }
            }
            self.power.on_background(span, false);
        }
        self.now = target;
    }

    /// The earliest future cycle at which [`tick`](Channel::tick) could do
    /// anything other than accrue background power: retire an in-flight
    /// burst, service a refresh, flip the write-drain mode, or issue a
    /// CAS/ACT/PRE for a queued request. The min of
    /// [`next_sched_event`](Channel::next_sched_event) and
    /// [`next_retire`](Channel::next_retire).
    pub fn next_event(&self) -> u64 {
        self.next_sched_event().min(self.next_retire())
    }

    /// The earliest future cycle at which an in-flight burst retires or a
    /// buffered completion (forwarded read) is ready to drain. Unlike the
    /// scheduling bound this needs no scan invalidation: it only ever
    /// changes when a CAS issues (push) or a burst retires (pop), both of
    /// which happen on executed ticks.
    pub fn next_retire(&self) -> u64 {
        // Forwarded reads buffer a completion for the next tick.
        if !self.completed.is_empty() {
            return self.now + 1;
        }
        let mut horizon = u64::MAX;
        for &(finish, ..) in &self.in_flight {
            horizon = horizon.min(finish);
        }
        horizon.max(self.now + 1)
    }

    /// The earliest future cycle at which the *scheduler* could act:
    /// service a refresh, flip the write-drain mode, or issue a CAS/ACT/PRE
    /// for a queued request. Burst retirement is deliberately excluded
    /// (see [`next_retire`](Channel::next_retire)); a cached value of this
    /// bound stays valid across retire-only cycles and is invalidated only
    /// by [`tick`](Channel::tick) returning `true` or by an enqueue.
    ///
    /// The contract is one-sided: the returned cycle may be *earlier* than
    /// the first real event (the caller just ticks and re-asks, degrading
    /// toward the per-cycle engine), but it must never be later — every
    /// cycle strictly between `now` and the returned value must be a no-op
    /// tick. All scheduler gates are of the form `now >= X` over state that
    /// is frozen while no command issues, so the earliest legal issue cycle
    /// for each queued request is an exact `max` of its gates.
    pub fn next_sched_event(&self) -> u64 {
        let now = self.now;
        let soon = now + 1;
        let mut horizon = u64::MAX;
        for rank in &self.ranks {
            // A due refresh precharges/refreshes on the command bus right
            // away; don't model its sub-steps, just fall back to ticking.
            if rank.refresh_due(now) {
                return soon;
            }
            horizon = horizon.min(rank.next_refresh_due);
        }
        // Never skip across a write-drain mode transition: `issue` mutates
        // `sticky_drain` and counts episodes there. Queue lengths are frozen
        // during a no-op span, so the next tick's decision is computable.
        let next_sticky = if self.sticky_drain {
            self.write_q.len() > self.cfg.write_low_watermark
        } else {
            self.write_q.len() >= self.cfg.write_high_watermark
        };
        if next_sticky != self.sticky_drain {
            return soon;
        }
        let writes = next_sticky || (self.read_q.is_empty() && !self.write_q.is_empty());
        let q = if writes { &self.write_q } else { &self.read_q };
        if q.is_empty() {
            return horizon;
        }
        // Anti-starvation mirror of `issue_from`: once the oldest read
        // crosses STARVATION_AGE it is served exclusively, so the crossing
        // itself is an event, and past it only that read's gates matter.
        let mut starving = None;
        if !writes && !self.read_q.is_empty() {
            if now.saturating_sub(self.read_min_arrival) > STARVATION_AGE {
                starving = self.starving_read(now);
            } else {
                horizon = horizon.min(self.read_min_arrival + STARVATION_AGE + 1);
            }
        }
        let candidates = match starving {
            Some(i) => i..i + 1,
            None => 0..q.len(),
        };
        for i in candidates {
            let ready = self.candidate_ready_at(&q[i], writes, starving.is_some());
            // A gate already satisfied means "issuable next tick" (this
            // tick's single command slot may have gone to someone else).
            horizon = horizon.min(ready.max(soon));
            if horizon == soon {
                break;
            }
        }
        horizon
    }

    /// Tightens a still-valid scheduling bound after a successful
    /// [`enqueue`](Channel::enqueue) of `req`, without rescanning the
    /// queues. An enqueue can only *add* scheduling opportunities (the new
    /// candidate itself, a drain-mode flip it triggers) or remove them
    /// (extra row protection, a served-queue switch) — and removed
    /// opportunities merely leave the old bound early, which the one-sided
    /// contract allows. So the exact update is
    /// `min(old, flip term, new candidate's ready, starvation crossing)`.
    pub fn bound_with_enqueued(&self, old: u64, req: &MemRequest) -> u64 {
        let now = self.now;
        let soon = now + 1;
        // Did this enqueue arm a drain-mode flip for the next tick?
        let next_sticky = if self.sticky_drain {
            self.write_q.len() > self.cfg.write_low_watermark
        } else {
            self.write_q.len() >= self.cfg.write_high_watermark
        };
        if next_sticky != self.sticky_drain {
            return soon;
        }
        let writes = next_sticky || (self.read_q.is_empty() && !self.write_q.is_empty());
        let q = match req.kind {
            AccessKind::Write => &self.write_q,
            AccessKind::Read => &self.read_q,
        };
        // A forwarded read touches no queue (its completion is tracked by
        // `next_retire`), and a request whose queue is not being served
        // adds no earlier opportunity: it becomes servable only after an
        // issue or flip, both of which re-derive the bound anyway.
        let served = (req.kind == AccessKind::Write) == writes;
        if !served {
            return old;
        }
        // Accepted requests are pushed at the back (a coalesced write
        // sits where its line was), so search from the back.
        let Some(p) = q.iter().rev().find(|p| p.req.id == req.id) else {
            return old;
        };
        let starving = req.kind == AccessKind::Read
            && now.saturating_sub(req.arrival) > STARVATION_AGE;
        let mut bound = old.min(self.candidate_ready_at(p, writes, starving).max(soon));
        if req.kind == AccessKind::Read {
            // The new read may one day cross the anti-starvation age and
            // grab exclusive service — that crossing is an event.
            bound = bound.min((req.arrival + STARVATION_AGE + 1).max(soon));
        }
        bound
    }

    /// The earliest cycle at which any of the three scheduler passes could
    /// issue a command for `p`, or `u64::MAX` when `p` can make no progress
    /// until some other event changes the machine state.
    fn candidate_ready_at(&self, p: &Pending, writes: bool, starving: bool) -> u64 {
        let t = self.cfg.timing;
        let rank = &self.ranks[p.loc.rank];
        let bank = p.loc.flat_bank(&self.cfg);
        let mask = p.req.width.mask();
        // Every pass is blocked while the rank refreshes.
        let gate = rank.refresh_until;
        let mut ready = u64::MAX;

        // Pass 1 (CAS): legal once every masked sub-bank has the row open
        // and the column/bus timers have expired.
        let mut all_open = true;
        let mut cas = gate;
        for s in (0..self.cfg.subranks).filter(|s| mask & (1 << *s) != 0) {
            let sb = rank.sub_bank(bank, s);
            if !sb.row_open(p.loc.row) {
                all_open = false;
                break;
            }
            cas = cas.max(if writes {
                sb.write_ready_at().max(rank.bus_write_ready_at(s))
            } else {
                sb.read_ready_at().max(rank.bus_read_ready_at(s))
            });
        }
        if all_open {
            ready = ready.min(cas);
        }

        // Pass 2 (ACT): legal once every masked sub-bank that lacks the row
        // is idle and clears tRC/tRP/tRRD/tFAW. A sub-bank holding a
        // *different* row blocks the ACT until a PRE (pass 3) closes it.
        let mut any_needed = false;
        let mut blocked = false;
        let mut act = gate;
        for s in (0..self.cfg.subranks).filter(|s| mask & (1 << *s) != 0) {
            let sb = rank.sub_bank(bank, s);
            if sb.row_open(p.loc.row) {
                continue;
            }
            any_needed = true;
            if matches!(sb.state(), crate::bank::RowState::Active { .. }) {
                blocked = true;
                break;
            }
            act = act
                .max(sb.activate_ready_at())
                .max(rank.act_window_ready_at(s, &t));
        }
        if any_needed && !blocked {
            ready = ready.min(act);
        }

        // Pass 3 (PRE): legal once every conflicting masked sub-bank clears
        // tRAS/tRTP/tWR. Row protection (`unprotected_mask`) depends only on
        // queue contents, which are frozen during a no-op span, so a fully
        // protected conflict contributes no bound — it unblocks via the
        // protector's own CAS, which is bounded above.
        let mut conflict_mask = 0u8;
        let mut pre = gate;
        for s in (0..self.cfg.subranks).filter(|s| mask & (1 << *s) != 0) {
            let sb = rank.sub_bank(bank, s);
            if let crate::bank::RowState::Active { row } = sb.state() {
                if row != p.loc.row {
                    conflict_mask |= 1 << s;
                    pre = pre.max(sb.precharge_ready_at());
                }
            }
        }
        if conflict_mask != 0
            && (starving
                || self.unprotected_mask(p.loc.rank, bank, conflict_mask, writes, p.req.arrival)
                    != 0)
        {
            ready = ready.min(pre);
        }

        ready
    }

    /// Advances `span` cycles in bulk, replaying exactly the side effects
    /// the per-cycle engine would have produced over a span of no-op ticks:
    /// background power per rank and write-drain cycle accounting. The
    /// caller must guarantee (via [`next_event`](Channel::next_event)) that
    /// no command, completion, refresh, or drain-mode flip falls inside the
    /// span.
    pub fn advance_noop(&mut self, span: u64) {
        debug_assert!(
            self.next_event() > self.now + span,
            "advance_noop would skip over a scheduler event"
        );
        if span == 0 {
            return;
        }
        for r in 0..self.ranks.len() {
            let active = self.ranks[r].open_sub_banks > 0;
            self.power.on_background(span, active);
        }
        if self.sticky_drain || (self.read_q.is_empty() && !self.write_q.is_empty()) {
            self.stats.drain_cycles += span;
        }
        self.now += span;
    }

    fn record_completion(&mut self, req: MemRequest, finish: u64, row_hit: bool) {
        use crate::request::Origin;
        if row_hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        match (req.kind, req.origin) {
            (AccessKind::Read, Origin::Demand { .. }) => self.stats.demand_reads += 1,
            (AccessKind::Read, Origin::Corrective { .. }) => self.stats.corrective_reads += 1,
            (AccessKind::Read, Origin::MetadataInstall) => self.stats.metadata_reads += 1,
            (AccessKind::Read, Origin::ReplacementArea) => self.stats.replacement_area_reads += 1,
            (AccessKind::Read, Origin::Scrub) => self.stats.scrub_reads += 1,
            (AccessKind::Read, _) => self.stats.demand_reads += 1,
            (AccessKind::Write, Origin::MetadataWriteback) => self.stats.metadata_writes += 1,
            (AccessKind::Write, Origin::ReplacementArea) => self.stats.replacement_area_writes += 1,
            (AccessKind::Write, _) => self.stats.data_writes += 1,
        }
        if req.kind == AccessKind::Read {
            self.stats.read_latency_sum += finish - req.arrival;
            self.stats.read_latency_count += 1;
        }
        self.completed.push(Completion {
            request: req,
            finished_at: finish,
        });
    }

    /// Returns `true` when the command bus was used for refresh work.
    fn manage_refresh(&mut self, now: u64) -> bool {
        let t = self.cfg.timing;
        for r in 0..self.ranks.len() {
            if self.ranks[r].refresh_due(now) {
                if self.ranks[r].any_bank_open() {
                    if let Some((bank, mask)) = self.ranks[r].refresh_precharge_candidate(now) {
                        self.ranks[r].precharge(now, bank, mask, &t);
                        self.bump_bank(r, bank);
                        self.audit(now, r, DramCommand::Precharge { bank, mask });
                        self.stats.precharges += 1;
                        return true;
                    }
                    // Wait for precharge eligibility.
                    return false;
                }
                self.ranks[r].refresh(now, &t);
                self.rank_epoch[r] = self.rank_epoch[r].wrapping_add(1);
                self.audit(now, r, DramCommand::Refresh);
                self.power.on_refresh();
                self.stats.refreshes += 1;
                return true;
            }
        }
        false
    }

    fn drain_writes(&mut self) -> bool {
        let hi = self.cfg.write_high_watermark;
        let lo = self.cfg.write_low_watermark;
        if self.sticky_drain {
            if self.write_q.len() <= lo {
                self.sticky_drain = false;
            }
        } else if self.write_q.len() >= hi {
            self.sticky_drain = true;
        }
        self.sticky_drain || (self.read_q.is_empty() && !self.write_q.is_empty())
    }

    /// The index the anti-starvation rule serves exclusively, if any: the
    /// oldest read (ties broken exactly as `min_by_key`, i.e. the *first*
    /// minimal element — the earliest-queued of equally old reads) once
    /// its age exceeds [`STARVATION_AGE`]. The cached
    /// [`read_min_arrival`](Channel::read_min_arrival) answers the common
    /// "nobody is old enough" case in O(1); the index scan runs only once
    /// the age threshold has actually been crossed.
    fn starving_read(&self, now: u64) -> Option<usize> {
        if now.saturating_sub(self.read_min_arrival) <= STARVATION_AGE {
            return None;
        }
        self.read_q
            .iter()
            .enumerate()
            .min_by_key(|(_, p)| p.req.arrival)
            .map(|(i, _)| i)
    }

    /// Filters a precharge mask down to sub-banks whose open row has no
    /// *older* queued requests left. Open rows with pending work are kept
    /// open (they will be CAS-ready soon — closing them thrashes), but the
    /// protection is age-relative: once the conflicting request is the
    /// oldest contender for the row, it may close it. This is the classic
    /// FR-FCFS fallback to age order, and it matters when half- and
    /// full-width streams share a bank.
    fn unprotected_mask(&self, rank: usize, bank: usize, mask: u8, writes: bool, age: u64) -> u8 {
        let mut out = mask;
        for s in 0..self.cfg.subranks {
            if mask & (1 << s) == 0 {
                continue;
            }
            if let crate::bank::RowState::Active { row } = self.ranks[rank].sub_bank(bank, s).state()
            {
                let wanted = |p: &&Pending| {
                    p.loc.rank == rank
                        && p.loc.flat_bank(&self.cfg) == bank
                        && p.loc.row == row
                        && p.req.width.mask() & (1 << s) != 0
                        && p.req.arrival <= age
                };
                // Only the queue currently being served can protect a
                // row: protecting across queues deadlocks (a draining
                // write would wait forever on a read that cannot issue
                // during the drain).
                let pending = if writes {
                    self.write_q.iter().find(wanted).is_some()
                } else {
                    self.read_q.iter().find(wanted).is_some()
                };
                if pending {
                    out &= !(1 << s);
                }
            }
        }
        out
    }

    /// One fused FR-FCFS scheduler pass: a CAS for the first column-ready
    /// candidate, else an ACT for the first activatable one, else a PRE for
    /// the first unprotected row conflict — the same priority order and the
    /// same queue order as the three separate scans this replaces, checked
    /// against the exact `can_read`/`can_write`/`can_activate`/
    /// `precharge_mask` legality conditions via their `*_ready_at` duals
    /// (`can_x(now) ⟺ x_ready_at() <= now` under each pass's structural
    /// preconditions).
    ///
    /// With `WANT_BOUND`, the same walk also accumulates the per-candidate
    /// scheduling bound with [`candidate_ready_at`](Channel::candidate_ready_at)
    /// semantics plus the anti-starvation crossing term, so a failed
    /// event-engine tick produces its next bound as a side effect instead
    /// of paying `next_sched_event`'s second full scan. The returned bound
    /// is meaningful only when nothing issued (the first element is
    /// `false`); after an issue the caller discards it.
    fn issue_from<const WANT_BOUND: bool>(&mut self, now: u64, writes: bool) -> (bool, u64) {
        let t = self.cfg.timing;
        let soon = now + 1;

        // Anti-starvation: when the oldest *read* is too old, serve it
        // exclusively. Writes are posted — nobody waits on them — so they
        // are always drained row-hit-first.
        let starving: Option<usize> = if writes { None } else { self.starving_read(now) };

        let mut bound = u64::MAX;
        if WANT_BOUND && !writes && starving.is_none() && !self.read_q.is_empty() {
            // The oldest read crossing STARVATION_AGE is itself an event.
            bound = self.read_min_arrival + STARVATION_AGE + 1;
        }

        // Hoist the rank-level walk terms: refresh gate/due, data-bus
        // timers, and the tRRD/tFAW window only move on commands and
        // refreshes, never mid-walk, so they are computed once per pass
        // into the subset-max tables instead of once per candidate. The
        // DP fills entry `m` from `m` with its lowest bit cleared, one
        // `max` per entry; entry 0 carries the bare refresh gate, which
        // every non-empty mask inherits.
        let subranks = self.cfg.subranks;
        for r in 0..self.ranks.len() {
            let rank = &self.ranks[r];
            let base = r << subranks;
            self.walk_due[r] = rank.refresh_due(now);
            let gate = rank.refresh_until;
            self.walk_cas[base] = gate;
            self.walk_act[base] = gate;
            for m in 1usize..1 << subranks {
                let s = m.trailing_zeros() as usize;
                let rest = base + (m & (m - 1));
                self.walk_cas[base + m] = self.walk_cas[rest].max(if writes {
                    rank.bus_write_ready_at(s)
                } else {
                    rank.bus_read_ready_at(s)
                });
                self.walk_act[base + m] = self.walk_act[rest].max(rank.act_window_ready_at(s, &t));
            }
        }

        // Main walk: CAS and ACT legality (and, with WANT_BOUND, their
        // ready-at bound terms) in one pass. A ready CAS wins outright, so
        // the walk stops there; an ACT candidate is remembered but the CAS
        // search continues across the rest of the queue. The same pass
        // gathers what the PRE step needs — the row-conflicted candidates
        // and, unless a read is starving (it bypasses protection), the
        // row-protection table — so the PRE step never rescans the queue.
        let protect = starving.is_none();
        if protect {
            self.protect_min.fill(u64::MAX);
        }
        self.conflicts.clear();
        let (cas_idx, act_idx) = {
            let q = if writes { &self.write_q } else { &self.read_q };
            let candidates = match starving {
                Some(i) => i..i + 1,
                None => 0..q.len(),
            };
            let mut cas_idx = None;
            let mut act_idx = None;
            let banks = self.cfg.banks();
            for i in candidates {
                let p = &q[i];
                // Epoch-validated candidate cache: the bank-local part
                // of the walk (row states, bank timers) is frozen
                // between commands to this bank and refreshes of this
                // rank, so most candidates revalidate with two compares
                // against the cache's own identity snapshot — the fast
                // path never touches `loc`/`req` at all.
                let mut c = p.cache.get();
                if c.mask == 0 {
                    // First look at this candidate since enqueue (or
                    // since a coalesce invalidated it).
                    let rank_idx = p.loc.rank;
                    let bank = p.loc.flat_bank(&self.cfg);
                    c = CandCache::compute(
                        &self.ranks[rank_idx],
                        rank_idx,
                        bank,
                        p,
                        writes,
                        self.cfg.subranks,
                        (self.bank_epoch[rank_idx * banks + bank], self.rank_epoch[rank_idx]),
                    );
                    p.cache.set(c);
                } else {
                    let be = self.bank_epoch[c.rank as usize * banks + c.flat_bank as usize];
                    let re = self.rank_epoch[c.rank as usize];
                    if c.bank_epoch != be || c.rank_epoch != re {
                        c = CandCache::compute(
                            &self.ranks[c.rank as usize],
                            c.rank as usize,
                            c.flat_bank as usize,
                            p,
                            writes,
                            self.cfg.subranks,
                            (be, re),
                        );
                        p.cache.set(c);
                    }
                }
                let base = (c.rank as usize) << subranks;
                if c.act_mask | c.conflict_mask == 0 {
                    // All masked sub-banks open: the CAS pass. The
                    // rank-level gate and data-bus terms come from the
                    // per-walk subset-max table — one lookup.
                    let cas = c.cas_bank.max(self.walk_cas[base + c.mask as usize]);
                    if !self.walk_due[c.rank as usize] && cas <= now {
                        cas_idx = Some(i);
                        break;
                    }
                    if WANT_BOUND {
                        bound = bound.min(cas.max(soon));
                    }
                } else if c.conflict_mask == 0 {
                    // Idle sub-banks need an ACT; the gate-folded
                    // tRRD/tFAW window over exactly the idle sub-ranks is
                    // the table entry for `act_mask`.
                    let act = c.act_bank.max(self.walk_act[base + c.act_mask as usize]);
                    if act_idx.is_none() && !self.walk_due[c.rank as usize] && act <= now {
                        act_idx = Some(i);
                    }
                    if WANT_BOUND {
                        bound = bound.min(act.max(soon));
                    }
                } else {
                    // A different row is open somewhere: ACT is blocked
                    // until a PRE closes it (the PRE step below).
                    self.conflicts.push((i, c));
                }
                if protect {
                    // The sub-banks already holding this candidate's row
                    // open are protected from younger conflicts.
                    let slot0 = (c.rank as usize * banks + c.flat_bank as usize) * subranks;
                    let mut open = c.open_mask();
                    while open != 0 {
                        let slot = &mut self.protect_min[slot0 + open.trailing_zeros() as usize];
                        *slot = (*slot).min(c.arrival);
                        open &= open - 1;
                    }
                }
            }
            (cas_idx, act_idx)
        };

        if let Some(i) = cas_idx {
            // A queue slot frees: rejected enqueues may now succeed.
            self.accept_gen += 1;
            let p = if writes {
                self.write_lines.remove(i);
                self.write_q.remove(i)
            } else {
                let p = self.read_q.remove(i);
                if p.req.arrival == self.read_min_arrival {
                    // Served the (an) oldest read: recompute the cached
                    // minimum for the anti-starvation fast path.
                    self.read_min_arrival = self
                        .read_q
                        .iter()
                        .map(|p| p.req.arrival)
                        .min()
                        .unwrap_or(u64::MAX);
                }
                p
            };
            if trace_enabled() && self.index == 0 {
                eprintln!("{} {} bank={} row={} mask={:02b} id={}",
                    now, if writes {"WR "} else {"RD "},
                    p.loc.flat_bank(&self.cfg), p.loc.row, p.req.width.mask(), p.req.id);
            }
            let bank = p.loc.flat_bank(&self.cfg);
            let mask = p.req.width.mask();
            let chips = p.req.width.chips();
            let bytes = p.req.width.bytes();
            let rank = &mut self.ranks[p.loc.rank];
            let finish = if writes {
                rank.write(now, bank, mask, &t);
                self.power.on_write(chips, bytes);
                now + t.t_cwl + t.t_burst
            } else {
                rank.read(now, bank, mask, &t);
                self.power.on_read(chips, bytes);
                now + t.t_cas + t.t_burst
            };
            self.bump_bank(p.loc.rank, bank);
            let cmd = if writes {
                DramCommand::Write { bank, row: p.loc.row, mask }
            } else {
                DramCommand::Read { bank, row: p.loc.row, mask }
            };
            self.audit(now, p.loc.rank, cmd);
            self.stats.bytes += bytes;
            self.stats.busy_bus_cycles += t.t_burst * mask.count_ones() as u64;
            for s in (0..self.cfg.subranks).filter(|s| mask & (1 << *s) != 0) {
                self.subrank_busy[s] += t.t_burst;
                self.subrank_cas[s] += 1;
            }
            self.in_flight.push((finish, p.req, !p.needed_act));
            return (true, 0);
        }

        if let Some(i) = act_idx {
            let (loc, mask) = {
                let q = if writes { &mut self.write_q } else { &mut self.read_q };
                q[i].needed_act = true;
                (q[i].loc, q[i].req.width.mask())
            };
            let bank = loc.flat_bank(&self.cfg);
            // Chips engaged: 4 per sub-rank that actually activates.
            if trace_enabled() && self.index == 0 {
                eprintln!("{} ACT bank={} row={} mask={:02b}", now, bank, loc.row, mask);
            }
            let rank = &mut self.ranks[loc.rank];
            let before = rank.open_sub_banks;
            rank.activate(now, bank, loc.row, mask, &t);
            let opened = (rank.open_sub_banks - before) as u32;
            self.bump_bank(loc.rank, bank);
            self.audit(now, loc.rank, DramCommand::Activate { bank, row: loc.row, mask });
            self.power.on_activate(opened * 4);
            self.stats.activates += 1;
            return (true, 0);
        }

        // PRE step: for the oldest request blocked by a row conflict — but
        // never close a row that still has queued requests (they will become
        // CAS-ready soon; closing them causes open-row thrash when half- and
        // full-width streams share a bank). Only the conflicted candidates
        // the main walk collected can contribute a PRE or a pre-bound
        // term. The walk scanned the whole queue (nothing issued, no
        // starving read) and issued nothing since, so their cached
        // conflict sets and the protection table are current: a conflict
        // sub-bank is protected from candidate `c` exactly when a request
        // wanting its open row is no younger than `c` — slot min <= c's
        // arrival.
        let mut pre = None;
        let banks = self.cfg.banks();
        for &(i, c) in &self.conflicts {
            let bank = c.flat_bank as usize;
            // Entry 0 of the walk table is the bare refresh gate; the
            // table is still fresh here (the PRE step runs in the same
            // pass as the fill, with no command issued between).
            let pre_ready = self.walk_cas[(c.rank as usize) << subranks].max(c.pre_bank);
            // `pre_ready <= now` implies the rank is not refreshing (the
            // gate term) and every conflicting sub-bank clears
            // tRAS/tRTP/tWR — exactly `precharge_mask` returning `Some`.
            let ready_now = !self.walk_due[c.rank as usize] && pre_ready <= now;
            if !WANT_BOUND && !ready_now {
                continue;
            }
            // The starving-read override bypasses row protection: an
            // over-age read may close any row it conflicts with.
            let mut eff = c.conflict_mask;
            if protect {
                let slot0 = (c.rank as usize * banks + bank) * subranks;
                let mut m = c.conflict_mask;
                while m != 0 {
                    let s = m.trailing_zeros();
                    if self.protect_min[slot0 + s as usize] <= c.arrival {
                        eff &= !(1 << s);
                    }
                    m &= m - 1;
                }
            }
            if eff == 0 {
                continue;
            }
            if WANT_BOUND {
                bound = bound.min(pre_ready.max(soon));
            }
            if ready_now {
                pre = Some((i, bank, c.rank as usize, eff));
                break;
            }
        }

        if let Some((i, bank, rank_idx, mask)) = pre {
            if trace_enabled() && self.index == 0 {
                let q = if writes { &self.write_q } else { &self.read_q };
                eprintln!("{} PRE bank={} mask={:02b} for-row={} q={}", now, bank, mask, q[i].loc.row, q.len());
            }
            {
                let q = if writes { &mut self.write_q } else { &mut self.read_q };
                q[i].needed_act = true;
            }
            self.ranks[rank_idx].precharge(now, bank, mask, &t);
            self.bump_bank(rank_idx, bank);
            self.audit(now, rank_idx, DramCommand::Precharge { bank, mask });
            self.stats.precharges += 1;
            return (true, 0);
        }
        (false, bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{AccessWidth, Origin};

    fn read(id: u64, line_addr: u64, arrival: u64) -> MemRequest {
        MemRequest {
            id,
            line_addr,
            kind: AccessKind::Read,
            width: AccessWidth::Full,
            origin: Origin::Demand { core: 0 },
            arrival,
        }
    }

    #[test]
    fn starving_read_tie_goes_to_the_earliest_queued() {
        let mut ch = Channel::new(0, DramConfig::table2(), PowerParams::ddr4_1600());
        // Channel 0 owns the even lines; ids 2 and 3 tie as the oldest.
        for (id, arrival) in [(1, 9), (2, 4), (3, 4), (4, 6)] {
            ch.enqueue(read(id, 2 * id, arrival)).unwrap();
        }
        ch.now = 4 + STARVATION_AGE;
        assert_eq!(ch.starving_read(ch.now), None, "not over age yet");
        ch.now += 1;
        let i = ch
            .starving_read(ch.now)
            .expect("the oldest read is over age");
        assert_eq!(ch.read_q[i].req.id, 2, "earliest-queued of the tied reads");
    }
}
