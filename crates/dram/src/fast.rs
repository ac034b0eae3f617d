//! A fast fixed-latency/queueing memory model (`ATTACHE_BACKEND=fast`).
//!
//! [`FastMemory`] trades row-buffer, refresh and scheduling fidelity for
//! speed: a request's service time is computed *once, at enqueue*, from a
//! fixed command latency plus a per-sub-rank data-bus reservation, and the
//! model then has nothing to do until the request retires. There is no
//! FR-FCFS scan, no bank state and no refresh machinery, so the event
//! engine can skip directly from retirement to retirement — this is where
//! the severalfold speedup over the cycle model on sweeps comes from.
//!
//! What it keeps (the parts Attaché's results hinge on):
//!
//! * **Sub-rank bus contention.** Each channel has one reservation clock
//!   per sub-rank; a half-width access occupies one sub-rank for
//!   `tBURST`, a full-width access occupies both. Two half-width accesses
//!   to opposite sub-ranks overlap completely — the paper's mechanism —
//!   while same-sub-rank traffic pipelines at `tBURST` spacing, matching
//!   the cycle model's `tCCD` back-to-back CAS rate.
//! * **Queue backpressure.** Per-channel read/write queue capacities (and
//!   the fault injector's read derate) bound the requests in flight, so
//!   MLP limits and retry paths behave as they do on the cycle model.
//! * **Traffic attribution, bandwidth and energy accounting.** The same
//!   [`ChannelStats`] per-origin counters, per-sub-rank busy/CAS gauges
//!   and [`PowerModel`] burst/background energy (integer-cycle background
//!   counting, so the cycle and event engines stay bit-identical).
//!
//! What it deliberately drops — the documented tolerance envelope in
//! `docs/BACKENDS.md` — is everything row- and refresh-shaped:
//! `row_hits`/`row_misses`/`activates`/`precharges`/`refreshes` stay 0,
//! every read pays the same cold-read latency (`tRCD + tCAS + tBURST`
//! after its bus slot), writes complete at `tRCD + tCWL + tBURST` with no
//! coalescing, forwarding or drain hysteresis, and ACT/PRE/refresh energy
//! is absent. The cross-model referee ([`crate::referee`]) bounds the
//! resulting divergence.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::backend::{BackendKind, MemoryBackend};
use crate::channel::{ChannelStats, QueueFull};
use crate::config::{AddressMapping, DramConfig};
use crate::power::{EnergyBreakdown, PowerModel, PowerParams};
use crate::request::{AccessKind, Completion, MemRequest, Origin};

/// A request scheduled at enqueue time, waiting out its fixed latency.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    finished_at: u64,
    /// Enqueue sequence number: total, deterministic retire order for
    /// requests finishing on the same cycle.
    seq: u64,
    req: MemRequest,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.finished_at, self.seq) == (other.finished_at, other.seq)
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.finished_at, self.seq).cmp(&(other.finished_at, other.seq))
    }
}

/// One channel of the queueing model.
#[derive(Debug)]
struct FastChannel {
    /// Per-sub-rank reservation clock: the earliest cycle the next access
    /// may occupy that sub-rank's data bus.
    free_at: Vec<u64>,
    /// In-flight requests, min-ordered by `(finished_at, seq)`.
    pending: BinaryHeap<Reverse<Scheduled>>,
    reads_in_flight: usize,
    writes_in_flight: usize,
    stats: ChannelStats,
    busy: Vec<u64>,
    cas: Vec<u64>,
    power: PowerModel,
}

impl FastChannel {
    fn new(cfg: &DramConfig, power: PowerParams) -> Self {
        Self {
            free_at: vec![0; cfg.subranks],
            pending: BinaryHeap::new(),
            reads_in_flight: 0,
            writes_in_flight: 0,
            stats: ChannelStats::default(),
            busy: vec![0; cfg.subranks],
            cas: vec![0; cfg.subranks],
            power: PowerModel::new(power),
        }
    }
}

/// The fast fixed-latency/queueing backend (see the module docs for the
/// fidelity contract).
#[derive(Debug)]
pub struct FastMemory {
    cfg: DramConfig,
    mapping: AddressMapping,
    channels: Vec<FastChannel>,
    now: u64,
    /// Start of the current measurement epoch (set by `reset_stats`).
    base_cycle: u64,
    seq: u64,
    /// Acceptance generation: bumped on exactly the mutations that can
    /// turn a rejected [`enqueue`](MemoryBackend::enqueue) into an
    /// accepted one — a retirement freeing queue slots, and a derate set
    /// or expiry. An accepted enqueue only tightens acceptance.
    accept_gen: u64,
    /// Active read derate as `(cap, until)`, mirroring the cycle model's
    /// fault hook: read queues capped at `cap` until the clock reaches
    /// `until`; expiry handled at the same tick cycle as the cycle model.
    derate: Option<(usize, u64)>,
}

impl FastMemory {
    /// Creates an idle fast memory system.
    pub fn new(cfg: DramConfig, power: PowerParams) -> Self {
        Self {
            mapping: AddressMapping::new(cfg),
            channels: (0..cfg.channels)
                .map(|_| FastChannel::new(&cfg, power))
                .collect(),
            cfg,
            now: 0,
            base_cycle: 0,
            seq: 0,
            accept_gen: 0,
            derate: None,
        }
    }

    /// The read-queue capacity currently in force (the configured
    /// capacity, tightened by an active fault derate).
    fn effective_read_cap(&self) -> usize {
        match self.derate {
            Some((cap, _)) => cap.min(self.cfg.read_queue_capacity),
            None => self.cfg.read_queue_capacity,
        }
    }

    /// Lifts an expired derate. Mirrors the cycle model: runs at the top
    /// of every tick, *before* the clock advances, so the cap lifts at
    /// exactly the same tick cycle under either engine (the event engine
    /// is forced to execute that tick by the `next_event` clamp).
    fn expire_derate(&mut self) {
        if let Some((_, until)) = self.derate {
            if self.now >= until {
                self.derate = None;
                self.accept_gen += 1;
            }
        }
    }

    /// A derate expiry changes enqueue outcomes, so no event bound may
    /// skip past it (same clamp as the cycle model).
    fn clamp_to_derate_expiry(&self, bound: u64) -> u64 {
        match self.derate {
            Some((_, until)) => bound.min(until.max(self.now + 1)),
            None => bound,
        }
    }
}

impl MemoryBackend for FastMemory {
    fn kind(&self) -> BackendKind {
        BackendKind::Fast
    }

    fn config(&self) -> &DramConfig {
        &self.cfg
    }

    fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    fn can_accept(&self, line_addr: u64, kind: AccessKind) -> bool {
        let ch = &self.channels[self.mapping.channel_of(line_addr)];
        match kind {
            AccessKind::Read => ch.reads_in_flight < self.effective_read_cap(),
            AccessKind::Write => ch.writes_in_flight < self.cfg.write_queue_capacity,
        }
    }

    fn enqueue(&mut self, req: MemRequest) -> Result<(), QueueFull> {
        if !self.can_accept(req.line_addr, req.kind) {
            return Err(QueueFull);
        }
        let t = self.cfg.timing;
        let chi = self.mapping.channel_of(req.line_addr);
        let ch = &mut self.channels[chi];
        // The access occupies its sub-rank bus(es) from `start`;
        // reservation clocks space same-sub-rank traffic tBURST apart.
        let mask = req.width.mask();
        let mut start = self.now + 1;
        for (s, free) in ch.free_at.iter().enumerate() {
            if mask & (1 << s) != 0 {
                start = start.max(*free);
            }
        }
        for (s, free) in ch.free_at.iter_mut().enumerate() {
            if mask & (1 << s) != 0 {
                *free = start + t.t_burst;
            }
        }
        let command = match req.kind {
            AccessKind::Read => t.t_rcd + t.t_cas,
            AccessKind::Write => t.t_rcd + t.t_cwl,
        };
        ch.pending.push(Reverse(Scheduled {
            finished_at: start + command + t.t_burst,
            seq: self.seq,
            req,
        }));
        self.seq += 1;
        match req.kind {
            AccessKind::Read => ch.reads_in_flight += 1,
            AccessKind::Write => ch.writes_in_flight += 1,
        }
        Ok(())
    }

    fn tick(&mut self) {
        self.expire_derate();
        self.now += 1;
        for ch in &mut self.channels {
            ch.power.on_background(1, !ch.pending.is_empty());
        }
    }

    fn advance_noop(&mut self, span: u64) {
        // No event in the span (caller-guaranteed via `next_event`), so
        // per-channel activity is constant across it and background
        // energy can be accounted in bulk, bit-identically to `span`
        // single ticks.
        self.now += span;
        for ch in &mut self.channels {
            ch.power.on_background(span, !ch.pending.is_empty());
        }
    }

    fn advance_idle_to(&mut self, target: u64) {
        assert!(self.is_idle(), "advance_idle_to with requests in flight");
        assert!(target >= self.now, "advance_idle_to into the past");
        let span = target - self.now;
        for ch in &mut self.channels {
            ch.power.on_background(span, false);
        }
        self.now = target;
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn is_idle(&self) -> bool {
        self.channels.iter().all(|ch| ch.pending.is_empty())
    }

    fn drain_completions(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        self.drain_completions_into(&mut out);
        out
    }

    fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        let mut drained = false;
        for ch in &mut self.channels {
            while let Some(Reverse(head)) = ch.pending.peek() {
                if head.finished_at > self.now {
                    break;
                }
                let Reverse(s) = ch.pending.pop().expect("peeked element");
                let req = s.req;
                let mask = req.width.mask();
                for sr in 0..ch.free_at.len() {
                    if mask & (1 << sr) != 0 {
                        ch.busy[sr] += self.cfg.timing.t_burst;
                        ch.cas[sr] += 1;
                        ch.stats.busy_bus_cycles += self.cfg.timing.t_burst;
                    }
                }
                ch.stats.bytes += req.width.bytes();
                match (req.kind, req.origin) {
                    (AccessKind::Read, Origin::Corrective { .. }) => {
                        ch.stats.corrective_reads += 1;
                    }
                    (AccessKind::Read, Origin::MetadataInstall) => ch.stats.metadata_reads += 1,
                    (AccessKind::Read, Origin::ReplacementArea) => {
                        ch.stats.replacement_area_reads += 1;
                    }
                    (AccessKind::Read, Origin::Scrub) => ch.stats.scrub_reads += 1,
                    (AccessKind::Read, _) => ch.stats.demand_reads += 1,
                    (AccessKind::Write, Origin::MetadataWriteback) => {
                        ch.stats.metadata_writes += 1;
                    }
                    (AccessKind::Write, Origin::ReplacementArea) => {
                        ch.stats.replacement_area_writes += 1;
                    }
                    (AccessKind::Write, _) => ch.stats.data_writes += 1,
                }
                match req.kind {
                    AccessKind::Read => {
                        ch.stats.read_latency_sum += s.finished_at - req.arrival;
                        ch.stats.read_latency_count += 1;
                        ch.reads_in_flight -= 1;
                        ch.power.on_read(req.width.chips(), req.width.bytes());
                    }
                    AccessKind::Write => {
                        ch.writes_in_flight -= 1;
                        ch.power.on_write(req.width.chips(), req.width.bytes());
                    }
                }
                out.push(Completion {
                    request: req,
                    finished_at: s.finished_at,
                });
                drained = true;
            }
        }
        // Unlike the cycle model (slots free at CAS issue), a retirement
        // here frees queue slots, so it can change enqueue outcomes and
        // must bump the acceptance generation. Completions retire at event cycles,
        // where both engines execute a real tick-and-drain, so the
        // generation evolves engine-identically.
        if drained {
            self.accept_gen += 1;
        }
    }

    fn next_event(&self) -> u64 {
        let mut bound = u64::MAX;
        for ch in &self.channels {
            if let Some(Reverse(head)) = ch.pending.peek() {
                bound = bound.min(head.finished_at.max(self.now + 1));
            }
        }
        self.clamp_to_derate_expiry(bound)
    }

    /// One counter serves every channel: the model keeps no per-channel
    /// refinement.
    fn accept_gen(&self, req: &MemRequest) -> u64 {
        let _ = req;
        self.accept_gen
    }

    fn aggregate_accept_gen(&self) -> u64 {
        self.accept_gen
    }

    fn stats(&self) -> ChannelStats {
        let mut s = ChannelStats::default();
        for per in self.channel_stats() {
            s.add(&per);
        }
        s
    }

    fn channel_stats(&self) -> Vec<ChannelStats> {
        self.channels
            .iter()
            .map(|ch| {
                let mut s = ch.stats;
                s.cycles = self.now - self.base_cycle;
                s
            })
            .collect()
    }

    fn energy(&self) -> EnergyBreakdown {
        let mut e = EnergyBreakdown::default();
        for ch in &self.channels {
            e.add(&ch.power.energy());
        }
        e
    }

    fn reset_stats(&mut self) {
        self.base_cycle = self.now;
        for ch in &mut self.channels {
            ch.stats = ChannelStats::default();
            ch.busy.iter_mut().for_each(|b| *b = 0);
            ch.cas.iter_mut().for_each(|c| *c = 0);
            ch.power.reset();
        }
    }

    fn queue_depths(&self) -> Vec<(usize, usize)> {
        self.channels
            .iter()
            .map(|ch| (ch.reads_in_flight, ch.writes_in_flight))
            .collect()
    }

    fn subrank_busy(&self) -> Vec<Vec<u64>> {
        self.channels.iter().map(|ch| ch.busy.clone()).collect()
    }

    fn subrank_cas(&self) -> Vec<Vec<u64>> {
        self.channels.iter().map(|ch| ch.cas.clone()).collect()
    }

    fn fault_derate_reads(&mut self, cap: usize, until: u64) {
        self.derate = Some((cap, until));
        self.accept_gen += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Timing;
    use crate::request::AccessWidth;

    fn mem() -> FastMemory {
        FastMemory::new(DramConfig::table2(), PowerParams::ddr4_1600())
    }

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

    fn run_until_complete(mem: &mut FastMemory, n: usize, max_cycles: u64) -> Vec<Completion> {
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
    fn cold_read_latency_matches_the_cycle_model() {
        // Contract anchor: an uncontended read costs exactly what the
        // cycle model's cold read does (its `cold_read_latency_...` test),
        // so the two models agree perfectly in the zero-load limit.
        let mut m = mem();
        m.enqueue(read(1, 0, AccessWidth::Full, 0)).unwrap();
        let done = run_until_complete(&mut m, 1, 1_000);
        let t = Timing::table2();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].finished_at, 1 + t.t_rcd + t.t_cas + t.t_burst);
        assert_eq!(done[0].latency(), 1 + t.t_rcd + t.t_cas + t.t_burst);
    }

    #[test]
    fn half_width_reads_to_opposite_subranks_overlap() {
        let mut m = mem();
        m.enqueue(read(1, 0, AccessWidth::Half(crate::SubrankId(0)), 0))
            .unwrap();
        m.enqueue(read(2, 0, AccessWidth::Half(crate::SubrankId(1)), 0))
            .unwrap();
        let done = run_until_complete(&mut m, 2, 1_000);
        // Independent sub-rank buses: both finish on the same cycle.
        assert_eq!(done[0].finished_at, done[1].finished_at);
    }

    #[test]
    fn same_bus_accesses_pipeline_at_burst_spacing() {
        let t = Timing::table2();
        let mut m = mem();
        m.enqueue(read(1, 0, AccessWidth::Full, 0)).unwrap();
        m.enqueue(read(2, 2, AccessWidth::Full, 0)).unwrap();
        m.enqueue(read(3, 0, AccessWidth::Half(crate::SubrankId(0)), 0))
            .unwrap();
        let done = run_until_complete(&mut m, 3, 1_000);
        // Full-width reads serialize on the shared bus at tBURST (= tCCD)
        // spacing, like the cycle model's row-hit pipeline; the half read
        // queues behind both on sub-rank 0.
        assert_eq!(done[1].finished_at - done[0].finished_at, t.t_burst);
        assert_eq!(done[2].finished_at - done[1].finished_at, t.t_burst);
    }

    #[test]
    fn queue_backpressure_and_release() {
        let mut m = mem();
        let cap = m.config().read_queue_capacity;
        for i in 0..cap as u64 {
            m.enqueue(read(i, i * 2, AccessWidth::Full, 0)).unwrap();
        }
        assert_eq!(
            m.enqueue(read(999, 0, AccessWidth::Full, 0)),
            Err(QueueFull)
        );
        assert!(!m.can_accept(0, AccessKind::Read));
        assert!(m.can_accept(0, AccessKind::Write));
        // Draining completions frees slots again.
        let gen = m.aggregate_accept_gen();
        assert_eq!(gen, m.accept_gen(&read(999, 0, AccessWidth::Full, 0)));
        while m.drain_completions().is_empty() {
            m.tick();
        }
        assert!(m.can_accept(0, AccessKind::Read));
        assert!(
            m.aggregate_accept_gen() > gen,
            "a drain must bump the generation"
        );
    }

    #[test]
    fn write_latency_uses_cwl() {
        let t = Timing::table2();
        let mut m = mem();
        m.enqueue(write(1, 0, AccessWidth::Full, 0)).unwrap();
        let done = run_until_complete(&mut m, 1, 1_000);
        assert_eq!(done[0].finished_at, 1 + t.t_rcd + t.t_cwl + t.t_burst);
        assert_eq!(m.stats().data_writes, 1);
    }

    #[test]
    fn next_event_is_the_earliest_retirement() {
        let mut m = mem();
        assert_eq!(m.next_event(), u64::MAX);
        m.enqueue(read(1, 0, AccessWidth::Full, 0)).unwrap();
        let t = Timing::table2();
        assert_eq!(m.next_event(), 1 + t.t_rcd + t.t_cas + t.t_burst);
        assert_eq!(m.next_event_cached(), m.next_event());
    }

    #[test]
    fn derate_caps_reads_and_expires_on_schedule() {
        let mut m = mem();
        m.fault_derate_reads(1, 10);
        let gen_set = m.aggregate_accept_gen();
        m.enqueue(read(1, 0, AccessWidth::Full, 0)).unwrap();
        assert_eq!(
            m.aggregate_accept_gen(),
            gen_set,
            "an enqueue only tightens acceptance"
        );
        assert_eq!(m.enqueue(read(2, 2, AccessWidth::Full, 0)), Err(QueueFull));
        // The expiry is an event: the bound may not skip past cycle 10.
        assert!(m.next_event() <= 10);
        while m.now() < 10 {
            m.tick();
            m.drain_completions();
        }
        // The tick leaving cycle 10 lifts the cap (same cycle as the
        // cycle model's expire_derate).
        m.tick();
        assert!(m.aggregate_accept_gen() > gen_set);
        assert!(m.can_accept(2, AccessKind::Read));
        m.enqueue(read(2, 2, AccessWidth::Full, m.now())).unwrap();
    }

    #[test]
    fn bulk_noop_advance_is_bit_identical_to_ticks() {
        // The event engine accounts skipped spans through advance_noop;
        // background energy must come out bit-identical to per-cycle
        // ticking, with and without pending work.
        let mut stepped = mem();
        let mut bulk = mem();
        stepped.enqueue(read(1, 0, AccessWidth::Full, 0)).unwrap();
        bulk.enqueue(read(1, 0, AccessWidth::Full, 0)).unwrap();
        for _ in 0..37 {
            stepped.tick();
        }
        bulk.advance_noop(37);
        assert_eq!(stepped.now(), bulk.now());
        assert_eq!(
            stepped.energy().background_pj.to_bits(),
            bulk.energy().background_pj.to_bits()
        );
    }

    #[test]
    fn stats_attribute_by_origin_and_reset_opens_a_new_epoch() {
        let mut m = mem();
        m.enqueue(MemRequest {
            origin: Origin::MetadataInstall,
            ..read(1, 0, AccessWidth::Half(crate::SubrankId(1)), 0)
        })
        .unwrap();
        m.enqueue(MemRequest {
            origin: Origin::ReplacementArea,
            ..write(2, 2, AccessWidth::Full, 0)
        })
        .unwrap();
        run_until_complete(&mut m, 2, 1_000);
        let s = m.stats();
        assert_eq!(s.metadata_reads, 1);
        assert_eq!(s.replacement_area_writes, 1);
        assert_eq!(s.bytes, 32 + 64);
        assert_eq!(s.row_hits + s.row_misses + s.activates + s.refreshes, 0);
        assert!(m.energy().read_pj > 0.0);
        assert!(m.energy().io_pj > 0.0);
        let busy = m.subrank_busy();
        assert!(busy.iter().flatten().sum::<u64>() > 0);
        m.reset_stats();
        assert_eq!(m.stats(), ChannelStats::default());
        assert_eq!(m.energy().total_pj(), 0.0);
        // The clock keeps running; the next epoch measures from here.
        let before = m.now();
        m.tick();
        assert_eq!(m.stats().cycles, m.now() - before);
    }

    #[test]
    fn advance_idle_to_fast_forwards_background_time() {
        let mut m = mem();
        m.advance_idle_to(5_000);
        assert_eq!(m.now(), 5_000);
        assert_eq!(m.stats().cycles, 5_000);
        assert!(m.energy().background_pj > 0.0);
        assert_eq!(m.energy().refresh_pj, 0.0, "no refresh in the fast model");
    }

    #[test]
    #[should_panic(expected = "advance_idle_to with requests in flight")]
    fn advance_idle_to_rejects_pending_work() {
        let mut m = mem();
        m.enqueue(read(1, 0, AccessWidth::Full, 0)).unwrap();
        m.advance_idle_to(100);
    }
}
