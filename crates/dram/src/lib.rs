//! A cycle-level, sub-ranked DDR4 main-memory model.
//!
//! This crate is the reproduction's substitute for SST/CramSim (§V of the
//! Attaché paper): a strict-timing DDR4 channel model with bank groups,
//! banks, refresh, FR-FCFS scheduling, read-over-write priority with a
//! watermarked write buffer, and — the part Attaché exercises — **two
//! sub-ranks per rank** with independent chip selects, so a compressed
//! 32-byte access engages 4 chips and half the data bus while the other
//! sub-rank serves a different request concurrently.
//!
//! # Example
//!
//! ```
//! use attache_dram::{MemorySystem, DramConfig, PowerParams};
//! use attache_dram::request::{AccessKind, AccessWidth, MemRequest, Origin};
//!
//! let mut mem = MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
//! mem.enqueue(MemRequest {
//!     id: 1,
//!     line_addr: 0,
//!     kind: AccessKind::Read,
//!     width: AccessWidth::Full,
//!     origin: Origin::Demand { core: 0 },
//!     arrival: 0,
//! }).expect("queue has space");
//! while mem.drain_completions().is_empty() {
//!     mem.tick();
//! }
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod bank;
pub mod channel;
pub mod config;
pub mod conformance;
pub mod ecc;
pub mod fast;
pub mod power;
pub mod rank;
pub mod referee;
pub mod request;
pub mod soft_error;

pub use backend::{new_backend, BackendKind, MemoryBackend, UnknownBackend};
pub use channel::{Channel, ChannelStats, QueueFull};
pub use ecc::{decode_line, encode_line, LineDecode, WordDecode};
pub use soft_error::SoftErrorProcess;
pub use fast::FastMemory;
pub use referee::{referee_replay, RefereeConfig, RefereeReport, ReplaySummary, Tolerance};
pub use config::{AddressMapping, DramConfig, Location, Timing};
pub use conformance::{ConformanceChecker, ConformanceStats, DramCommand, TimingViolation};
pub use power::{EnergyBreakdown, PowerModel, PowerParams};
pub use request::{AccessKind, AccessWidth, Completion, MemRequest, Origin, SubrankId};

/// A multi-channel main-memory system (Table II: two channels).
#[derive(Debug)]
pub struct MemorySystem {
    cfg: DramConfig,
    mapping: AddressMapping,
    channels: Vec<Channel>,
    /// Per-channel cached [`Channel::next_sched_event`] bound for the
    /// event engine (`0` = unknown). A bound is an absolute cycle, so it
    /// stays valid across no-op *and* retire-only cycles; it is discarded
    /// whenever its channel's scheduler acts or it accepts a request.
    sched_bounds: Vec<u64>,
    /// Bumped on every queue/bank state mutation (scheduler work or an
    /// accepted request; retires excluded). Lets callers memoize decisions
    /// that only depend on queue/bank state, e.g. whether a retried
    /// request could enqueue.
    mutation_gen: u64,
    /// Active fault-injected read derate as `(cap, until)`: every
    /// channel's read queue is capped at `cap` slots until the bus clock
    /// reaches `until`. Expiry is an event both engines must observe at
    /// the same cycle (see [`next_event`](Self::next_event)).
    derate: Option<(usize, u64)>,
}

impl MemorySystem {
    /// Creates an idle memory system.
    pub fn new(cfg: DramConfig, power: PowerParams) -> Self {
        Self {
            cfg,
            mapping: AddressMapping::new(cfg),
            channels: (0..cfg.channels)
                .map(|i| Channel::new(i, cfg, power))
                .collect(),
            sched_bounds: vec![0; cfg.channels],
            mutation_gen: 0,
            derate: None,
        }
    }

    /// Fault-injection hook: caps every channel's read queue at `cap`
    /// slots until the bus clock reaches `until` (a timing-only
    /// perturbation — data is never corrupted). Enqueue outcomes change,
    /// so the mutation generation is bumped both here and at expiry.
    pub fn fault_derate_reads(&mut self, cap: usize, until: u64) {
        for ch in &mut self.channels {
            ch.set_read_derate(Some(cap));
        }
        self.derate = Some((cap, until));
        self.mutation_gen += 1;
    }

    /// Clears an expired read derate. Called at the top of both tick
    /// paths so the cap lifts at exactly cycle `until` under either
    /// engine.
    fn expire_derate(&mut self) {
        if let Some((_, until)) = self.derate {
            if self.now() >= until {
                for ch in &mut self.channels {
                    ch.set_read_derate(None);
                }
                self.derate = None;
                self.mutation_gen += 1;
            }
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Attaches a protocol [`ConformanceChecker`] to every channel,
    /// validating the issued command stream against the system's own
    /// timing. Equivalent to constructing under `ATTACHE_CONFORMANCE=1`.
    pub fn enable_conformance(&mut self) {
        let timing = self.cfg.timing;
        self.enable_conformance_with(timing);
    }

    /// Attaches auditors validating against an explicit reference
    /// `timing` — the deliberate-violation test hook: a stricter
    /// reference than the scheduler's own must make the auditor panic.
    pub fn enable_conformance_with(&mut self, timing: Timing) {
        for ch in &mut self.channels {
            ch.attach_auditor(timing);
        }
    }

    /// Aggregate audit counters across channels (`None` when no auditor
    /// is attached).
    pub fn conformance_stats(&self) -> Option<ConformanceStats> {
        let per: Vec<ConformanceStats> = self
            .channels
            .iter()
            .filter_map(|ch| ch.conformance_stats())
            .collect();
        if per.is_empty() {
            None
        } else {
            Some(ConformanceStats::aggregate(&per))
        }
    }

    /// Shares an event-trace ring with every channel; its contents are
    /// appended to the panic message when a protocol auditor fires.
    pub fn set_trace(&mut self, ring: attache_metrics::SharedTraceRing) {
        for ch in &mut self.channels {
            ch.set_trace(ring.clone());
        }
    }

    /// Per-channel queue occupancy `(reads, writes)`.
    pub fn queue_depths(&self) -> Vec<(usize, usize)> {
        self.channels.iter().map(Channel::queue_depths).collect()
    }

    /// Per-channel, per-sub-rank data-bus busy cycles since the last
    /// stats reset.
    pub fn subrank_busy(&self) -> Vec<Vec<u64>> {
        self.channels.iter().map(|ch| ch.subrank_busy().to_vec()).collect()
    }

    /// Per-channel, per-sub-rank CAS counts since the last stats reset.
    pub fn subrank_cas(&self) -> Vec<Vec<u64>> {
        self.channels.iter().map(|ch| ch.subrank_cas().to_vec()).collect()
    }

    /// The address mapping in use.
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// The channel index servicing `line_addr`.
    pub fn channel_of(&self, line_addr: u64) -> usize {
        self.mapping.decompose(line_addr).channel
    }

    /// Whether the channel servicing `line_addr` can accept `kind` now.
    pub fn can_accept(&self, line_addr: u64, kind: AccessKind) -> bool {
        let ch = self.channel_of(line_addr);
        match kind {
            AccessKind::Read => self.channels[ch].can_accept_read(),
            AccessKind::Write => self.channels[ch].can_accept_write(),
        }
    }

    /// Routes and enqueues a request.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the target channel's queue is full.
    pub fn enqueue(&mut self, req: MemRequest) -> Result<(), QueueFull> {
        // Decompose once: the location routes the request and rides into
        // the channel's queue entry.
        let loc = self.mapping.decompose(req.line_addr);
        let ch = loc.channel;
        let r = self.channels[ch].enqueue_at(req, loc);
        if r.is_ok() {
            // Tighten the cached scheduling bound in O(1) instead of
            // invalidating it: the only new opportunities an enqueue can
            // introduce are the new candidate itself and a drain flip
            // (see [`Channel::bound_with_enqueued`]).
            let b = self.sched_bounds[ch];
            if b != 0 {
                self.sched_bounds[ch] = self.channels[ch].bound_with_enqueued(b, &req);
            }
            self.mutation_gen += 1;
        }
        r
    }

    /// Advances every channel one bus cycle.
    pub fn tick(&mut self) {
        self.expire_derate();
        for ch in &mut self.channels {
            ch.tick();
        }
    }

    /// Advances every channel one bus cycle, skipping the FR-FCFS
    /// scheduler for channels whose cached
    /// [`Channel::next_sched_event`] bound shows it cannot act this
    /// cycle. Behavior is bit-identical to [`tick`](Self::tick); only the
    /// work done differs. Three per-channel fast paths, cheapest first:
    ///
    /// * bound in the future, nothing retiring — pure no-op accounting;
    /// * bound in the future, a burst retiring — retire without the
    ///   scheduler scan ([`Channel::tick_retire_only`]; retirement cannot
    ///   change command legality or enqueue outcomes, so the bound and
    ///   `mutation_gen` survive);
    /// * otherwise a full [`Channel::tick`]; if the scheduler acted the
    ///   bound is discarded (recomputed lazily), else the failed scan's
    ///   cycle establishes a fresh bound.
    pub fn tick_event(&mut self) {
        self.expire_derate();
        for (ch, bound) in self.channels.iter_mut().zip(&mut self.sched_bounds) {
            let soon = ch.now() + 1;
            if *bound > soon {
                if ch.next_retire() <= soon {
                    ch.tick_retire_only();
                } else {
                    ch.advance_noop(1);
                }
            } else {
                // The fused tick returns the fresh scheduling bound as a
                // side effect of a failed pass — no second queue scan.
                let (changed, b) = ch.tick_with_bound();
                if changed {
                    *bound = 0;
                    self.mutation_gen += 1;
                } else {
                    *bound = b;
                }
            }
        }
    }

    /// The current bus cycle (all channels advance in lockstep).
    pub fn now(&self) -> u64 {
        self.channels[0].now()
    }

    /// Collects completions from all channels.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        self.drain_completions_into(&mut out);
        out
    }

    /// Collects completions from all channels into a caller-provided
    /// buffer (channel-major order, same as
    /// [`drain_completions`](Self::drain_completions)); no allocation in
    /// steady state.
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        for ch in &mut self.channels {
            ch.drain_completions_into(out);
        }
    }

    /// Whether every channel is idle.
    pub fn is_idle(&self) -> bool {
        self.channels.iter().all(Channel::is_idle)
    }

    /// Fast-forwards all (idle) channels to `target`.
    ///
    /// # Panics
    ///
    /// Panics if any channel still has pending or in-flight work.
    pub fn advance_idle_to(&mut self, target: u64) {
        for ch in &mut self.channels {
            ch.advance_idle_to(target);
        }
    }

    /// The earliest future cycle at which any channel could do real work
    /// (see [`Channel::next_event`]); `u64::MAX` when nothing is pending.
    pub fn next_event(&self) -> u64 {
        let base = self
            .channels
            .iter()
            .map(Channel::next_event)
            .min()
            .unwrap_or(u64::MAX);
        self.clamp_to_derate_expiry(base)
    }

    /// A derate expiry is a state change both engines must hit with a
    /// full tick, so no event bound may skip past it.
    fn clamp_to_derate_expiry(&self, bound: u64) -> u64 {
        match self.derate {
            Some((_, until)) => bound.min(until.max(self.now() + 1)),
            None => bound,
        }
    }

    /// Like [`next_event`](Self::next_event) but with the scheduling part
    /// served from the per-channel bound cache maintained by
    /// [`tick_event`](Self::tick_event). A channel whose bound is unknown
    /// (its scheduler just acted, or it accepted a request) reports "next
    /// cycle" instead of paying a scan: mid-burst the next tick runs in
    /// full anyway and would invalidate a freshly computed bound
    /// immediately. The first post-burst tick that fails to issue
    /// establishes the real bound as a side effect, and only then does
    /// skipping resume. The retire part ([`Channel::next_retire`]) is
    /// cheap and always fresh.
    pub fn next_event_cached(&self) -> u64 {
        let mut min = u64::MAX;
        for (ch, bound) in self.channels.iter().zip(&self.sched_bounds) {
            if *bound == 0 {
                return ch.now() + 1;
            }
            min = min.min(*bound).min(ch.next_retire());
        }
        self.clamp_to_derate_expiry(min)
    }

    /// A counter bumped on every queue/bank state mutation (scheduler
    /// work in [`tick_event`](Self::tick_event), or an accepted request).
    /// While it is unchanged, enqueue outcomes — and anything else that
    /// depends only on queue and bank state — are frozen. Burst
    /// retirement does not bump it: retiring frees no queue slot (slots
    /// free at CAS-issue time), so it cannot change an enqueue outcome.
    pub fn mutation_gen(&self) -> u64 {
        self.mutation_gen
    }

    /// The acceptance generation of the channel servicing `req` (see
    /// [`MemoryBackend::accept_gen`]): bumped only by a CAS that shrinks
    /// one of its queues, a new write-queue line, or a derate set or
    /// lift — far rarer than [`mutation_gen`](Self::mutation_gen), which
    /// also moves on every ACT, PRE, refresh and accepted read.
    pub fn accept_gen(&self, req: &MemRequest) -> u64 {
        self.channels[self.channel_of(req.line_addr)].accept_gen()
    }

    /// Advances all channels `span` cycles in bulk. The caller must have
    /// verified via [`next_event`](MemorySystem::next_event) that the span
    /// contains no events on any channel. Cached event bounds are absolute
    /// cycle numbers, so they remain valid across the span.
    pub fn advance_noop(&mut self, span: u64) {
        for ch in &mut self.channels {
            ch.advance_noop(span);
        }
    }

    /// Whether the owning channel would accept `req` right now (including
    /// the forwarding/coalescing fast paths that succeed on full queues).
    pub fn would_accept(&self, req: &MemRequest) -> bool {
        self.channels[self.channel_of(req.line_addr)].would_accept(req)
    }

    /// Aggregated statistics across channels.
    pub fn stats(&self) -> ChannelStats {
        let mut s = ChannelStats::default();
        for ch in &self.channels {
            s.add(&ch.stats());
        }
        s
    }

    /// Per-channel statistics.
    pub fn channel_stats(&self) -> Vec<ChannelStats> {
        self.channels.iter().map(Channel::stats).collect()
    }

    /// Total DRAM energy across channels.
    pub fn energy(&self) -> EnergyBreakdown {
        let mut e = EnergyBreakdown::default();
        for ch in &self.channels {
            e.add(&ch.energy());
        }
        e
    }

    /// Resets statistics and energy after warm-up.
    pub fn reset_stats(&mut self) {
        for ch in &mut self.channels {
            ch.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(id: u64, line_addr: u64, width: AccessWidth, arrival: u64) -> MemRequest {
        MemRequest {
            id,
            line_addr,
            kind: AccessKind::Read,
            width,
            origin: Origin::Demand { core: 0 },
            arrival,
        }
    }

    fn write(id: u64, line_addr: u64, width: AccessWidth, arrival: u64) -> MemRequest {
        MemRequest {
            id,
            line_addr,
            kind: AccessKind::Write,
            width,
            origin: Origin::Writeback,
            arrival,
        }
    }

    fn run_until_complete(mem: &mut MemorySystem, n: usize, max_cycles: u64) -> Vec<Completion> {
        let mut done = Vec::new();
        for _ in 0..max_cycles {
            mem.tick();
            done.append(&mut mem.drain_completions());
            if done.len() >= n {
                break;
            }
        }
        done
    }

    #[test]
    fn cold_read_latency_is_act_plus_cas_plus_burst() {
        let mut mem = MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
        mem.enqueue(read(1, 0, AccessWidth::Full, 0)).unwrap();
        let done = run_until_complete(&mut mem, 1, 1_000);
        assert_eq!(done.len(), 1);
        let t = Timing::table2();
        // ACT issues at cycle 1, RD at 1 + tRCD, data ends tCAS + tBURST later.
        assert_eq!(done[0].finished_at, 1 + t.t_rcd + t.t_cas + t.t_burst);
    }

    #[test]
    fn row_hit_read_is_faster_than_cold_read() {
        let mut mem = MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
        // Two reads to adjacent blocks in the same row, same channel.
        mem.enqueue(read(1, 0, AccessWidth::Full, 0)).unwrap();
        mem.enqueue(read(2, 2, AccessWidth::Full, 0)).unwrap();
        let done = run_until_complete(&mut mem, 2, 1_000);
        assert_eq!(done.len(), 2);
        let lat1 = done[0].latency();
        let lat2 = done[1].latency();
        let t = Timing::table2();
        // The second read reuses the open row: only tCCD behind the first.
        assert_eq!(lat2 - lat1, t.t_ccd);
        let stats = mem.stats();
        assert_eq!(stats.row_hits, 1);
        assert_eq!(stats.row_misses, 1);
    }

    #[test]
    fn half_width_reads_to_opposite_subranks_overlap() {
        let mut mem = MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
        // Same channel, same bank, same row — but different sub-ranks.
        mem.enqueue(read(1, 0, AccessWidth::Half(SubrankId(0)), 0))
            .unwrap();
        mem.enqueue(read(2, 0, AccessWidth::Half(SubrankId(1)), 0))
            .unwrap();
        let done = run_until_complete(&mut mem, 2, 1_000);
        assert_eq!(done.len(), 2);
        let t = Timing::table2();
        // Sub-rank buses are independent; the second CAS is gated only by
        // the one-command-per-cycle command bus and the second ACT (tRRD).
        let gap = done[1].finished_at - done[0].finished_at;
        assert!(
            gap <= t.t_rrd,
            "independent sub-ranks should overlap (gap {gap})"
        );
    }

    #[test]
    fn full_width_reads_serialize_on_the_data_bus() {
        let mut mem = MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
        // Same row so both are row-hits after one ACT; full width each.
        mem.enqueue(read(1, 0, AccessWidth::Full, 0)).unwrap();
        mem.enqueue(read(2, 2, AccessWidth::Full, 0)).unwrap();
        let done = run_until_complete(&mut mem, 2, 1_000);
        let t = Timing::table2();
        assert_eq!(done[1].finished_at - done[0].finished_at, t.t_ccd);
    }

    #[test]
    fn writes_drain_opportunistically_when_no_reads() {
        let mut mem = MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
        mem.enqueue(write(1, 0, AccessWidth::Full, 0)).unwrap();
        let done = run_until_complete(&mut mem, 1, 1_000);
        assert_eq!(done.len(), 1);
        assert_eq!(mem.stats().data_writes, 1);
    }

    #[test]
    fn read_forwarding_from_write_queue() {
        let mut mem = MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
        // Park many writes so the drain does not immediately clear them.
        for i in 0..8u64 {
            mem.enqueue(write(i, i * 2, AccessWidth::Full, 0)).unwrap();
        }
        // A read to one of those lines is forwarded instantly.
        mem.enqueue(read(100, 6, AccessWidth::Full, 0)).unwrap();
        mem.tick();
        let done = mem.drain_completions();
        assert!(done.iter().any(|c| c.request.id == 100));
        assert_eq!(mem.stats().forwarded_reads, 1);
    }

    #[test]
    fn write_coalescing_merges_same_line() {
        let mut mem = MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
        mem.enqueue(write(1, 4, AccessWidth::Full, 0)).unwrap();
        mem.enqueue(write(2, 4, AccessWidth::Half(SubrankId(0)), 0))
            .unwrap();
        let done = run_until_complete(&mut mem, 1, 2_000);
        // Only one write reaches DRAM.
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].request.id, 2, "latest write wins");
        assert_eq!(mem.stats().data_writes, 1);
    }

    #[test]
    fn reads_have_priority_over_writes() {
        let mut mem = MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
        // Fill some writes below the high watermark, then a read.
        for i in 0..8u64 {
            mem.enqueue(write(i, i * 2 + 32, AccessWidth::Full, 0))
                .unwrap();
        }
        mem.enqueue(read(100, 0, AccessWidth::Full, 0)).unwrap();
        let done = run_until_complete(&mut mem, 1, 2_000);
        assert_eq!(done[0].request.id, 100, "read completes first");
    }

    #[test]
    fn refresh_happens_on_schedule() {
        let mut mem = MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
        let t = Timing::table2();
        for _ in 0..(t.t_refi + t.t_rfc + 10) {
            mem.tick();
        }
        assert!(mem.stats().refreshes >= mem.config().channels as u64);
    }

    #[test]
    fn refresh_blocks_and_delays_reads() {
        let mut mem = MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
        let t = Timing::table2();
        // Arrive just as refresh becomes due.
        for _ in 0..t.t_refi {
            mem.tick();
        }
        let now = mem.now();
        mem.enqueue(read(1, 0, AccessWidth::Full, now)).unwrap();
        let done = run_until_complete(&mut mem, 1, 5_000);
        assert_eq!(done.len(), 1);
        assert!(
            done[0].latency() >= t.t_rfc,
            "read must wait out tRFC (latency {})",
            done[0].latency()
        );
    }

    #[test]
    fn idle_fast_forward_accounts_refreshes() {
        let mut mem = MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
        let t = Timing::table2();
        mem.advance_idle_to(10 * t.t_refi + 5);
        assert_eq!(mem.now(), 10 * t.t_refi + 5);
        // 10 refresh intervals crossed per rank per channel.
        assert_eq!(mem.stats().refreshes, 20);
        assert!(mem.energy().refresh_pj > 0.0);
        assert!(mem.energy().background_pj > 0.0);
    }

    #[test]
    fn queue_full_is_reported() {
        let mut mem = MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
        let cap = mem.config().read_queue_capacity;
        let mut rejected = false;
        // Same channel: stride 2 keeps channel 0.
        for i in 0..(cap as u64 + 8) {
            let r = mem.enqueue(read(i, i * 2, AccessWidth::Full, 0));
            if r.is_err() {
                rejected = true;
            }
        }
        assert!(rejected, "read queue must eventually reject");
        assert!(!mem.can_accept(0, AccessKind::Read));
    }

    #[test]
    fn accept_gen_moves_exactly_when_a_rejection_can_turn() {
        let mut mem = MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
        let cap = mem.config().read_queue_capacity as u64;
        // Fill channel 0's read queue (even lines); channel 1 is untouched.
        for i in 0..cap {
            mem.enqueue(read(i, i * 2, AccessWidth::Full, 0)).unwrap();
        }
        let probe = read(100, 1_000, AccessWidth::Full, 0);
        let other = read(101, 1_001, AccessWidth::Full, 0);
        assert_eq!(mem.enqueue(probe), Err(QueueFull));
        let (gen, other_gen) = (mem.accept_gen(&probe), mem.accept_gen(&other));
        // Growth only tightens acceptance: an accepted read leaves it.
        mem.enqueue(other).unwrap();
        assert_eq!(mem.accept_gen(&probe), gen);
        assert_eq!(mem.accept_gen(&other), other_gen);
        // A new write-queue line is a forwarding target for the probe.
        mem.enqueue(write(200, 1_000, AccessWidth::Full, 0))
            .unwrap();
        assert_ne!(mem.accept_gen(&probe), gen);
        assert_eq!(mem.accept_gen(&other), other_gen, "per channel");
        mem.enqueue(probe).unwrap();
        assert_eq!(mem.stats().forwarded_reads, 1);
        // ACTs leave it; the first CAS (a queue slot freeing) moves it.
        let gen = mem.accept_gen(&probe);
        while mem.stats().activates == 0 {
            mem.tick();
            assert_eq!(mem.accept_gen(&probe), gen, "only an ACT so far");
        }
        while mem.queue_depths()[0].0 == cap as usize {
            mem.tick();
        }
        assert_ne!(mem.accept_gen(&probe), gen);
        // A derate set and its lift both move it.
        let gen = mem.accept_gen(&probe);
        let until = mem.now() + 3;
        mem.fault_derate_reads(1, until);
        let set = mem.accept_gen(&probe);
        assert_ne!(set, gen);
        // The lift runs at the top of the first tick starting at `until`.
        while mem.now() <= until {
            mem.tick();
        }
        assert_ne!(mem.accept_gen(&probe), set, "the lift at `until`");
    }

    #[test]
    fn open_row_with_pending_work_is_not_closed_under_it() {
        // A half-width stream hammers row A on sub-rank 0; a conflicting
        // full-width read of row B arrives. Age-relative protection lets
        // the stream's already-queued requests finish, then the full read
        // proceeds — well before the starvation deadline.
        let mut mem = MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
        let m = *mem.mapping();
        let cfg = *mem.config();
        let line_of = |row: usize, col: usize| {
            m.compose(crate::config::Location {
                channel: 0,
                rank: 0,
                bank_group: 0,
                bank: 0,
                row,
                col,
            })
        };
        let mut id = 0u64;
        // Row A half-width stream (8 queued).
        #[allow(clippy::explicit_counter_loop)]
        for col in 0..8 {
            mem.enqueue(read(id, line_of(10, col), AccessWidth::Half(SubrankId(0)), 0))
                .unwrap();
            id += 1;
        }
        // The conflicting full-width read of row B.
        mem.enqueue(read(999, line_of(11, 0), AccessWidth::Full, 0))
            .unwrap();
        let mut done_b_at = None;
        for _ in 0..4_000 {
            mem.tick();
            for c in mem.drain_completions() {
                if c.request.id == 999 {
                    done_b_at = Some(c.finished_at);
                }
            }
            if done_b_at.is_some() {
                break;
            }
        }
        let finished = done_b_at.expect("full-width read must complete");
        assert!(
            finished < 1_000,
            "row-B read should not wait for starvation age, finished at {finished}"
        );
        let _ = cfg;
    }

    #[test]
    fn write_drain_hysteresis_respects_watermarks() {
        let mut mem = MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
        let hi = mem.config().write_high_watermark;
        // Fill channel 0's write queue beyond the high watermark, plus a
        // continuous stream of reads that would otherwise always win.
        let mut id = 0;
        #[allow(clippy::explicit_counter_loop)]
        for i in 0..hi as u64 + 4 {
            mem.enqueue(write(id, i * 2 + 1_000_000, AccessWidth::Full, 0))
                .unwrap();
            id += 1;
        }
        for i in 0..8u64 {
            mem.enqueue(read(10_000 + i, i * 2, AccessWidth::Full, 0))
                .unwrap();
        }
        let mut writes_done = 0;
        for _ in 0..20_000 {
            mem.tick();
            writes_done += mem
                .drain_completions()
                .iter()
                .filter(|c| c.request.kind == AccessKind::Write)
                .count();
        }
        assert!(
            writes_done > hi / 2,
            "sticky drain must push writes out ({writes_done} done)"
        );
        let stats = mem.stats();
        assert!(stats.drain_episodes >= 1);
        assert!(stats.drain_cycles > 0);
    }

    #[test]
    fn bandwidth_doubles_with_half_width_requests() {
        // Saturate one channel with half-width reads split over sub-ranks
        // vs. full-width reads; the half-width run must move ~the same
        // bytes in ~half the busy time (or 2x requests per unit time).
        let t = Timing::table2();
        let run = |half: bool| -> (u64, u64) {
            let mut mem = MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
            let mut id = 0;
            let mut issued = 0u64;
            for cycle in 0..20_000u64 {
                // Keep the queue topped up with row-hit traffic.
                while mem.can_accept(0, AccessKind::Read) && issued < 4_000 {
                    let width = if half {
                        AccessWidth::Half(SubrankId((id % 2) as u8))
                    } else {
                        AccessWidth::Full
                    };
                    // Walk columns within a row, alternating banks.
                    let col = (id / 2) % 64;
                    let bank = id % 4;
                    let line = col * 8 + bank * 2; // channel 0
                    mem.enqueue(read(id, line, width, cycle)).unwrap();
                    id += 1;
                    issued += 1;
                }
                mem.tick();
                if issued >= 4_000 && mem.is_idle() {
                    break;
                }
            }
            let s = mem.stats();
            (s.total_reads(), s.cycles)
        };
        let (full_reads, full_cycles) = run(false);
        let (half_reads, half_cycles) = run(true);
        assert_eq!(full_reads, half_reads);
        let speedup = full_cycles as f64 / half_cycles as f64;
        assert!(
            speedup > 1.6,
            "sub-ranked half-width traffic should be ~2x faster, got {speedup:.2} ({full_cycles} vs {half_cycles} cycles, tCCD={})",
            t.t_ccd
        );
    }
}
