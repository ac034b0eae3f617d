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
use crate::sched_index::{CandIndex, Pass, MAX_QUEUE};

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

/// A queued request. Its location and scheduler state live at the same
/// position in the queue's [`CandIndex`].
#[derive(Debug, Clone)]
struct Pending {
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
    /// The FR-FCFS candidate index of `read_q` (same positions): every
    /// scheduler pass and bound reads the served queue's index instead of
    /// the queue. The served index is updated at every enqueue, CAS
    /// removal, command and refresh; the other one is deferred until its
    /// queue is served (see [`serve`](Channel::serve)).
    read_ix: CandIndex,
    /// The candidate index of `write_q`.
    write_ix: CandIndex,
    /// Queue position of the request the last accepted enqueue placed
    /// (pushed or coalesced into), so
    /// [`bound_with_enqueued`](Channel::bound_with_enqueued) finds it
    /// without searching the queue.
    last_enqueued: usize,
}

impl Channel {
    /// Creates channel `index` of a memory system described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if either queue capacity exceeds 64 requests.
    pub fn new(index: usize, cfg: DramConfig, power: PowerParams) -> Self {
        for (field, capacity) in [
            ("read_queue_capacity", cfg.read_queue_capacity),
            ("write_queue_capacity", cfg.write_queue_capacity),
        ] {
            assert!(
                capacity <= MAX_QUEUE,
                "DramConfig::{field} is {capacity}; the scheduler supports at most {MAX_QUEUE}"
            );
        }
        let ranks: Vec<Rank> = (0..cfg.ranks).map(|_| Rank::new(&cfg)).collect();
        let index_of = |capacity, writes| {
            CandIndex::new(
                &ranks,
                cfg.banks(),
                cfg.subranks,
                capacity,
                &cfg.timing,
                writes,
            )
        };
        // Reads are served while both queues are empty.
        let read_ix = index_of(cfg.read_queue_capacity, false);
        let mut write_ix = index_of(cfg.write_queue_capacity, true);
        write_ix.defer();
        Self {
            index,
            cfg,
            mapping: AddressMapping::new(cfg),
            ranks,
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
            read_ix,
            write_ix,
            last_enqueued: 0,
        }
    }

    /// Pushes a `pass` command to `bank` of `rank` into both candidate
    /// indexes: the bank's rows or timers moved, and so may the
    /// rank-level terms the command's pass sets, which both queues'
    /// records read. The deferred index only marks them stale.
    fn after_command(&mut self, pass: Pass, rank: usize, bank: usize) {
        let t = self.cfg.timing;
        let r = &self.ranks[rank];
        for ix in [&mut self.read_ix, &mut self.write_ix] {
            ix.command(pass, r, rank, bank, &t);
        }
    }

    /// Pushes a refresh of `rank` into both candidate indexes: it closed
    /// every bank of the rank and moved its gate.
    fn after_refresh(&mut self, rank: usize) {
        let t = self.cfg.timing;
        let r = &self.ranks[rank];
        for ix in [&mut self.read_ix, &mut self.write_ix] {
            ix.refresh(r, rank, &t);
        }
    }

    /// Whether the next scheduler pass serves the write queue, under the
    /// current drain mode: writes while draining or when no read waits.
    fn serves_writes(&self) -> bool {
        self.sticky_drain || (self.read_q.is_empty() && !self.write_q.is_empty())
    }

    /// Keeps the index of the served queue current: when the served queue
    /// switches, the newly served index catches up on what it deferred
    /// and the other one starts deferring. Called wherever the served
    /// queue can change — a drain flip, an enqueue, a CAS removal — so
    /// every pass and bound finds its index current.
    fn serve(&mut self, writes: bool) {
        let (on, off) = if writes {
            (&mut self.write_ix, &mut self.read_ix)
        } else {
            (&mut self.read_ix, &mut self.write_ix)
        };
        if on.is_deferred() {
            on.serve(&self.ranks, &self.cfg.timing);
            off.defer();
        }
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
        let (rank, bank) = (&self.ranks[loc.rank], loc.flat_bank(&self.cfg));
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
                self.read_ix
                    .push(rank, loc.rank, bank, loc.row, req.width.mask(), req.arrival);
                self.last_enqueued = self.read_q.len();
                self.read_q.push(Pending {
                    req,
                    needed_act: false,
                });
                // A first read takes service from opportunistic writes.
                self.serve(self.serves_writes());
            }
            AccessKind::Write => {
                if let Some(i) = self.write_lines.iter().position(|&l| l == req.line_addr) {
                    // Coalesce: the latest write wins. It keeps its queue
                    // position but may change width and age, so its bank
                    // is recomputed. The queue's lines and lengths stand,
                    // and with them the acceptance generation.
                    self.write_q[i].req = req;
                    self.write_ix
                        .replace(rank, i, req.width.mask(), req.arrival);
                    self.last_enqueued = i;
                    return Ok(());
                }
                if !self.can_accept_write() {
                    return Err(QueueFull);
                }
                self.write_lines.push(req.line_addr);
                self.write_ix
                    .push(rank, loc.rank, bank, loc.row, req.width.mask(), req.arrival);
                self.last_enqueued = self.write_q.len();
                self.write_q.push(Pending {
                    req,
                    needed_act: false,
                });
                // A new line reads can forward from and writes can
                // coalesce into.
                self.accept_gen += 1;
                // A first write with no read waiting is served.
                self.serve(self.serves_writes());
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
        self.serve(writes);
        let (issued, cand_bound) = if writes || !self.read_q.is_empty() {
            self.issue_from::<WANT_BOUND>(now, writes)
        } else {
            (false, u64::MAX)
        };
        if issued {
            // A CAS may have emptied the read queue.
            self.serve(self.serves_writes());
            return (true, 0);
        }
        if self.sticky_drain != was {
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
        if self.serves_writes() {
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
                self.after_refresh(r);
                for _ in 0..n {
                    self.power.on_refresh();
                }
                self.stats.refreshes += n;
                if let Some(a) = self.auditor.as_mut() {
                    // Mirror bulk_refresh's force_idle horizon: the last
                    // refresh of the batch completes tRFC after it starts.
                    let busy = self.ranks[r].next_refresh_due.saturating_sub(t.t_refi) + t.t_rfc;
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
        let writes = self.serves_writes();
        let q = if writes { &self.write_q } else { &self.read_q };
        if q.is_empty() {
            return horizon;
        }
        let ix = if writes {
            &self.write_ix
        } else {
            &self.read_ix
        };
        debug_assert!(!ix.is_deferred(), "next_sched_event read a deferred index");
        // Anti-starvation mirror of `issue_from`: once the oldest read
        // crosses STARVATION_AGE it is served exclusively, so the crossing
        // itself is an event, and past it only that read's gates matter
        // (it may close any row, protected or not).
        if !writes {
            if now.saturating_sub(self.read_min_arrival) > STARVATION_AGE {
                if let Some(i) = self.starving_read(now) {
                    return horizon.min(ix.ready_at(i, true).max(soon));
                }
            } else {
                horizon = horizon.min(self.read_min_arrival + STARVATION_AGE + 1);
            }
        }
        // A gate already satisfied means "issuable next tick" (this
        // tick's single command slot may have gone to someone else).
        horizon.min(ix.bound(soon))
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
        let writes = self.serves_writes();
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
        // A forwarded read was never queued; an accepted request sits
        // where the enqueue put it (a coalesced write where its line was).
        let i = self.last_enqueued;
        if q.get(i).is_none_or(|p| p.req.id != req.id) {
            return old;
        }
        let starving =
            req.kind == AccessKind::Read && now.saturating_sub(req.arrival) > STARVATION_AGE;
        let ix = if writes {
            &self.write_ix
        } else {
            &self.read_ix
        };
        debug_assert!(
            !ix.is_deferred(),
            "bound_with_enqueued read a deferred index"
        );
        let ready = ix.ready_at(i, starving);
        let mut bound = old.min(ready.max(soon));
        if req.kind == AccessKind::Read {
            // The new read may one day cross the anti-starvation age and
            // grab exclusive service — that crossing is an event.
            bound = bound.min((req.arrival + STARVATION_AGE + 1).max(soon));
        }
        bound
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
        if self.serves_writes() {
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
                        self.after_command(Pass::Pre, r, bank);
                        self.audit(now, r, DramCommand::Precharge { bank, mask });
                        self.stats.precharges += 1;
                        return true;
                    }
                    // Wait for precharge eligibility.
                    return false;
                }
                self.ranks[r].refresh(now, &t);
                self.after_refresh(r);
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
        self.serves_writes()
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

    /// One FR-FCFS scheduler pass: a CAS for the first column-ready
    /// candidate in queue order, else an ACT for the first activatable
    /// one, else a PRE for the first unprotected ready row conflict —
    /// each read from the served queue's [`CandIndex`], whose groups cache
    /// every bank-local term, so a pass that issues nothing reads one word
    /// per non-empty group. Legality is the exact
    /// `can_read`/`can_write`/`can_activate`/`precharge_mask` condition
    /// via their `*_ready_at` duals (`can_x(now) ⟺ x_ready_at() <= now`
    /// under each pass's structural preconditions).
    ///
    /// With `WANT_BOUND`, a pass that issues nothing also returns the
    /// scheduling bound ([`next_sched_event`](Channel::next_sched_event)'s
    /// candidate and anti-starvation terms), so a failed event-engine
    /// tick produces its next bound as a side effect. The returned bound
    /// is meaningful only when nothing issued (the first element is
    /// `false`); after an issue the caller discards it.
    fn issue_from<const WANT_BOUND: bool>(&mut self, now: u64, writes: bool) -> (bool, u64) {
        let t = self.cfg.timing;
        let soon = now + 1;

        // Anti-starvation: when the oldest *read* is too old, serve it
        // exclusively. Writes are posted — nobody waits on them — so they
        // are always drained row-hit-first.
        let starving: Option<usize> = if writes {
            None
        } else {
            self.starving_read(now)
        };

        let ranks = &self.ranks;
        let ix = if writes {
            &self.write_ix
        } else {
            &self.read_ix
        };
        debug_assert!(!ix.is_deferred(), "issue_from read a deferred index");
        let due = |r: usize| ranks[r].refresh_due(now);
        let pick = match starving {
            // The starving read may close any row it conflicts with:
            // row protection does not apply to it.
            Some(i) => {
                let c = ix.cand(i);
                let at = ix.ready_at(i, true);
                if !due(c.rank) && at <= now {
                    Ok((ix.pass_of(c), i, c.conflict))
                } else {
                    Err(at)
                }
            }
            None => ix.pick(now, due).map(|(pass, i)| (pass, i, ix.cand(i).eff)),
        };
        let (pass, i, pre_mask) = match pick {
            Ok(pick) => pick,
            Err(_) if !WANT_BOUND => return (false, 0),
            Err(earliest) => {
                let mut bound = earliest.max(soon);
                if starving.is_none() && !writes && !self.read_q.is_empty() {
                    // The oldest read crossing STARVATION_AGE is itself an
                    // event.
                    bound = bound.min(self.read_min_arrival + STARVATION_AGE + 1);
                }
                return (false, bound);
            }
        };

        let (rank_idx, bank, row) = {
            let c = ix.cand(i);
            (c.rank, c.bank, c.row)
        };
        match pass {
            Pass::Cas => {
                // A queue slot frees: rejected enqueues may now succeed.
                self.accept_gen += 1;
                let p = if writes {
                    self.write_lines.remove(i);
                    self.write_ix.remove(i);
                    self.write_q.remove(i)
                } else {
                    self.read_ix.remove(i);
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
                let mask = p.req.width.mask();
                let chips = p.req.width.chips();
                let bytes = p.req.width.bytes();
                let rank = &mut self.ranks[rank_idx];
                let finish = if writes {
                    rank.write(now, bank, mask, &t);
                    self.power.on_write(chips, bytes);
                    now + t.t_cwl + t.t_burst
                } else {
                    rank.read(now, bank, mask, &t);
                    self.power.on_read(chips, bytes);
                    now + t.t_cas + t.t_burst
                };
                self.after_command(Pass::Cas, rank_idx, bank);
                let cmd = if writes {
                    DramCommand::Write { bank, row, mask }
                } else {
                    DramCommand::Read { bank, row, mask }
                };
                self.audit(now, rank_idx, cmd);
                self.stats.bytes += bytes;
                self.stats.busy_bus_cycles += t.t_burst * mask.count_ones() as u64;
                for s in (0..self.cfg.subranks).filter(|s| mask & (1 << *s) != 0) {
                    self.subrank_busy[s] += t.t_burst;
                    self.subrank_cas[s] += 1;
                }
                self.in_flight.push((finish, p.req, !p.needed_act));
            }
            Pass::Act => {
                let mask = {
                    let q = if writes {
                        &mut self.write_q
                    } else {
                        &mut self.read_q
                    };
                    q[i].needed_act = true;
                    q[i].req.width.mask()
                };
                let rank = &mut self.ranks[rank_idx];
                let before = rank.open_sub_banks;
                rank.activate(now, bank, row, mask, &t);
                let opened = (rank.open_sub_banks - before) as u32;
                self.after_command(Pass::Act, rank_idx, bank);
                self.audit(now, rank_idx, DramCommand::Activate { bank, row, mask });
                // Chips engaged: 4 per sub-rank that actually activates.
                self.power.on_activate(opened * 4);
                self.stats.activates += 1;
            }
            Pass::Pre => {
                // Never close a row that older queued requests still want
                // (they will become CAS-ready soon; closing them causes
                // open-row thrash when half- and full-width streams share
                // a bank): `pre_mask` is the candidate's unprotected
                // conflict set, or its whole conflict set when starving.
                let q = if writes {
                    &mut self.write_q
                } else {
                    &mut self.read_q
                };
                q[i].needed_act = true;
                self.ranks[rank_idx].precharge(now, bank, pre_mask, &t);
                self.after_command(Pass::Pre, rank_idx, bank);
                self.audit(
                    now,
                    rank_idx,
                    DramCommand::Precharge {
                        bank,
                        mask: pre_mask,
                    },
                );
                self.stats.precharges += 1;
            }
        }
        (true, 0)
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

    /// The index as a from-scratch build over the queue would leave it.
    fn rebuilt(ch: &Channel, writes: bool) -> CandIndex {
        let (q, cap) = if writes {
            (&ch.write_q, ch.cfg.write_queue_capacity)
        } else {
            (&ch.read_q, ch.cfg.read_queue_capacity)
        };
        let cfg = ch.cfg;
        let mut ix = CandIndex::new(
            &ch.ranks,
            cfg.banks(),
            cfg.subranks,
            cap,
            &cfg.timing,
            writes,
        );
        for p in q {
            let loc = ch.mapping.decompose(p.req.line_addr);
            let (r, b) = (loc.rank, loc.flat_bank(&cfg));
            ix.push(
                &ch.ranks[r],
                r,
                b,
                loc.row,
                p.req.width.mask(),
                p.req.arrival,
            );
        }
        ix
    }

    /// Checks the served index against a from-scratch build, and a clone
    /// of the deferred one once it has caught up as if its queue were
    /// served. Serving clears the deferral bookkeeping, so both compare
    /// as whole indexes.
    fn assert_indexes_rebuild(ch: &Channel, what: &str) {
        let writes = ch.serves_writes();
        let (served, deferred) = if writes {
            (&ch.write_ix, &ch.read_ix)
        } else {
            (&ch.read_ix, &ch.write_ix)
        };
        assert!(
            !served.is_deferred() && deferred.is_deferred(),
            "served queue {what}"
        );
        assert_eq!(*served, rebuilt(ch, writes), "served index {what}");
        let mut caught_up = deferred.clone();
        caught_up.serve(&ch.ranks, &ch.cfg.timing);
        assert_eq!(caught_up, rebuilt(ch, !writes), "deferred index {what}");
    }

    #[test]
    fn push_updates_keep_the_index_equal_to_a_rebuild() {
        // A small line pool over two banks and two ranks: row hits,
        // conflicts, protection, coalescing with width changes, drains,
        // served-queue switches and refreshes, with both indexes checked
        // against a from-scratch build after every enqueue and every
        // cycle.
        let mut cfg = DramConfig::table2();
        cfg.channels = 1;
        cfg.ranks = 2;
        let mut ch = Channel::new(0, cfg, PowerParams::ddr4_1600());
        let m = AddressMapping::new(cfg);
        let mut g = attache_testkit::Gen::new(0x1D3E);
        ch.now = cfg.timing.t_refi - 300;
        let mut switches = 0;
        for id in 0..3_000u64 {
            let served = ch.serves_writes();
            if g.below(3) == 0 {
                let loc = Location {
                    channel: 0,
                    rank: g.below(2) as usize,
                    bank_group: 0,
                    bank: g.below(2) as usize,
                    row: g.below(3) as usize,
                    col: g.below(4) as usize,
                };
                let mut req = read(id, m.compose(loc), ch.now);
                req.width = match g.below(3) {
                    0 => AccessWidth::Full,
                    s => AccessWidth::Half(crate::request::SubrankId(s as u8 - 1)),
                };
                if g.below(3) == 0 {
                    req.kind = AccessKind::Write;
                }
                let _ = ch.enqueue(req);
                assert_indexes_rebuild(&ch, &format!("after enqueue {id}"));
            }
            ch.tick();
            assert_indexes_rebuild(&ch, &format!("at cycle {}", ch.now));
            switches += usize::from(ch.serves_writes() != served);
        }
        assert!(ch.stats().refreshes > 0 && ch.stats().precharges > 0);
        assert!(switches > 10, "the served queue switched {switches} times");
    }

    #[test]
    #[should_panic(expected = "DramConfig::write_queue_capacity is 65")]
    fn queue_capacity_above_64_is_refused() {
        let mut cfg = DramConfig::table2();
        cfg.write_queue_capacity = 65;
        let _ = Channel::new(0, cfg, PowerParams::ddr4_1600());
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
