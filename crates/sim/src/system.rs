//! The full system: cores + shared LLC + metadata strategy + DRAM.

use attache_core::copr::CoprConfig;
use attache_dram::{
    AccessKind, AccessWidth, AddressMapping, Completion, MemRequest,
    MemoryBackend as DramBackend, Origin,
};
use attache_workloads::{MixWorkload, Profile, TraceGenerator};
use std::cmp::Reverse;
use attache_core::fasthash::FastMap;
use std::collections::{BinaryHeap, VecDeque};

use crate::backend::MemoryBackend;
use crate::config::{EngineKind, SimConfig};
use crate::core_model::{Core, MemState, Slot};
use crate::inline::InlineVec;
use crate::observe::{Observation, Observer};
use crate::stats::RunReport;
use crate::strategy::{ReqSpec, Strategy};

/// Cap on deferred (queue-full) requests before cores stop issuing.
const RETRY_CAP: usize = 256;

#[derive(Debug)]
#[allow(clippy::enum_variant_names)] // the states *are* all waits
enum TxnState {
    /// Waiting for a metadata install read; the data read follows.
    WaitMeta { data: ReqSpec },
    /// Waiting for the demand data read.
    WaitData,
    /// Waiting for corrective / Replacement-Area follow-ups.
    WaitFollow { remaining: u32 },
}

/// A request waiting out a fixed lookup delay before submission. Ordered by
/// release cycle, ties broken by request id, so the min-heap releases
/// same-cycle entries in submission (FIFO) order.
#[derive(Debug)]
struct DelayedReq {
    release_at: u64,
    req: MemRequest,
}

impl PartialEq for DelayedReq {
    fn eq(&self, other: &Self) -> bool {
        self.release_at == other.release_at && self.req.id == other.req.id
    }
}

impl Eq for DelayedReq {}

impl PartialOrd for DelayedReq {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DelayedReq {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.release_at, self.req.id).cmp(&(other.release_at, other.req.id))
    }
}

/// The background patrol-scrub walk: every `period` bus cycles, check one
/// line's ECC (correcting latched single-bit upsets before they pair into
/// uncorrectable doubles) and charge one `Origin::Scrub` read to the
/// memory system. Fires only on idle cycles — a backlogged retry queue
/// skips the interval and counts it instead of delaying demand traffic.
#[derive(Debug)]
struct ScrubState {
    period: u64,
    next_tick: u64,
    cursor: u64,
}

#[derive(Debug)]
struct Txn {
    line: u64,
    core: usize,
    predicted: Option<bool>,
    state: TxnState,
    /// Cores whose ROB entries wait on this transaction; `true` if the
    /// entry holds an MSHR slot (the initiator). Inline-first: almost
    /// every transaction has exactly one waiter, so the common case
    /// allocates nothing.
    waiters: InlineVec<(usize, bool), 4>,
}

/// The simulated system. Construct indirectly through
/// [`System::run_rate_mode`], [`System::run_mix`] or
/// [`System::run_profiles`].
#[derive(Debug)]
pub struct System {
    cfg: SimConfig,
    cores: Vec<Core>,
    llc: attache_cache::Llc,
    /// The memory *timing* backend (`cfg.backend`): cycle-level DDR4 or
    /// the fast queueing model, behind the `attache_dram::MemoryBackend`
    /// boundary. Distinct from [`MemoryBackend`], this crate's
    /// *functional* backend (contents/compressibility, cycle-free).
    mem: Box<dyn DramBackend>,
    strategy: Strategy,
    backend: MemoryBackend,
    txns: FastMap<u64, Txn>,
    txn_by_req: FastMap<u64, u64>,
    pending_lines: FastMap<u64, u64>,
    /// Deferred (queue-full) requests in submission order, each with the
    /// backend's [`accept_gen`](DramBackend::accept_gen) observed at its
    /// last rejection.
    retry_q: VecDeque<(MemRequest, u64)>,
    delayed: BinaryHeap<Reverse<DelayedReq>>,
    /// Reused buffer for [`Strategy::on_read_data`] follow-ups, so the
    /// per-completion fast path allocates nothing. [`ReqSpec`] is `Copy`;
    /// the buffer is taken, filled, drained, and put back per completion.
    follow_scratch: Vec<ReqSpec>,
    /// Reused buffer for each tick's drained completions (same
    /// take/fill/drain/put-back discipline as `follow_scratch`); with
    /// [`DramBackend::drain_completions_into`] the per-tick drain
    /// allocates nothing in steady state.
    completion_scratch: Vec<attache_dram::Completion>,
    next_txn: u64,
    next_req: u64,
    cpu_accum: u32,
    /// Event engine only: per-core cached wake cycle — the earliest bus
    /// cycle at which the core might do anything (`0` = unknown, forcing
    /// a full CPU cycle and a recompute). Maintained by
    /// [`bus_tick_event`](Self::bus_tick_event); the per-cycle engine
    /// ignores it.
    core_wake: Vec<u64>,
    /// Event engine only: the backend's
    /// [`mutation_gen`](DramBackend::mutation_gen) at the last retry
    /// flush pass. While unchanged, every retry would be rejected again,
    /// so the pass is skipped.
    flush_gen: u64,
    /// Generation counter for the one input of a stalled issue pass that
    /// neither the core's own ROB nor its MSHR count captures: retry-queue
    /// headroom. Bumped (both engines) whenever the retry queue shrinks;
    /// cores gate their issue pass on it (see [`Core::stall_env_gen`]).
    /// LLC contents need no generation: a stalled slot is a proven miss
    /// (hits never stall), and it stays one until its own core fills the
    /// line — an issue, which drops that core's snapshot anyway.
    issue_env_gen: u64,
    /// Event engine only: a fault action mutated DRAM state at the tail
    /// of the last executed tick (e.g. a derate overwrite that *raised*
    /// the capped read-queue capacity). Enqueue outcomes may have
    /// improved, so the next tick must run for real — the per-cycle
    /// engine re-flushes retries every cycle and would accept them
    /// there. Consumed by [`horizon`](Self::horizon).
    fault_mem_action: bool,
    /// Observability sampler/tracer — present only when a knob is on
    /// (`ATTACHE_EPOCH` / `ATTACHE_TRACE_RING` or their builders). A
    /// pure observer: never consulted by any model decision.
    observer: Option<Box<Observer>>,
    /// Background ECC patrol scrub — present only when `ATTACHE_SCRUB`
    /// (or `SimConfig::with_scrub`) set a period.
    scrub: Option<ScrubState>,
}

// The experiment harness fans simulations out across worker threads, so a
// `System` (and everything it owns, including the `Box<dyn
// ReplacementPolicy>` inside each cache) must stay `Send`. This fails to
// compile if a future field loses that property.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<System>();
};

impl System {
    /// Runs `profile` in rate mode (all cores execute the same profile, as
    /// in the paper's single-benchmark experiments) and reports.
    pub fn run_rate_mode(cfg: &SimConfig, profile: Profile, seed: u64) -> RunReport {
        Self::run_rate_mode_observed(cfg, profile, seed).0
    }

    /// [`run_rate_mode`](Self::run_rate_mode) plus the run's
    /// [`Observation`] when any observability knob is on.
    pub fn run_rate_mode_observed(
        cfg: &SimConfig,
        profile: Profile,
        seed: u64,
    ) -> (RunReport, Option<Observation>) {
        let name = profile.name.to_string();
        let profiles = vec![profile; cfg.core.cores];
        Self::run_profiles_observed(cfg, &profiles, &name, seed)
    }

    /// Runs an 8-threaded mixed workload.
    pub fn run_mix(cfg: &SimConfig, mix: &MixWorkload, seed: u64) -> RunReport {
        Self::run_mix_observed(cfg, mix, seed).0
    }

    /// [`run_mix`](Self::run_mix) plus the run's [`Observation`] when
    /// any observability knob is on.
    pub fn run_mix_observed(
        cfg: &SimConfig,
        mix: &MixWorkload,
        seed: u64,
    ) -> (RunReport, Option<Observation>) {
        assert_eq!(
            mix.cores.len(),
            cfg.core.cores,
            "mix must provide one profile per core"
        );
        Self::run_profiles_observed(cfg, &mix.cores, mix.name, seed)
    }

    /// Runs one profile per core: warm-up, stats reset, measured region.
    ///
    /// The measured region ends when the *total* retired instruction count
    /// reaches `cores x instructions_per_core` — the aggregate-throughput
    /// criterion. (Waiting for every core individually would measure the
    /// max over per-core tails, which is noisy.)
    pub fn run_profiles(cfg: &SimConfig, profiles: &[Profile], name: &str, seed: u64) -> RunReport {
        Self::run_profiles_observed(cfg, profiles, name, seed).0
    }

    /// [`run_profiles`](Self::run_profiles) plus the run's
    /// [`Observation`] when any observability knob is on. The
    /// observation covers the measured region only (the registry and
    /// series are cleared at the warm-up boundary).
    pub fn run_profiles_observed(
        cfg: &SimConfig,
        profiles: &[Profile],
        name: &str,
        seed: u64,
    ) -> (RunReport, Option<Observation>) {
        assert_eq!(profiles.len(), cfg.core.cores, "one profile per core");
        let mut sys = Self::build(cfg, profiles, seed);
        let cores = cfg.core.cores as u64;
        if cfg.warmup_instructions_per_core > 0 {
            sys.run_until(cores * cfg.warmup_instructions_per_core);
        }
        sys.reset_stats();
        let measured_base: u64 = sys.cores.iter().map(|c| c.retired).sum();
        sys.run_until(measured_base + cores * cfg.instructions_per_core);
        let report = sys.report_measured(name, measured_base);
        let now = sys.mem.now();
        let observation = sys
            .observer
            .as_mut()
            .map(|o| o.finish(now, sys.mem.as_ref(), &sys.llc, &sys.strategy, &sys.cfg));
        (report, observation)
    }

    fn build(cfg: &SimConfig, profiles: &[Profile], seed: u64) -> Self {
        let backend = MemoryBackend::new(profiles, seed);
        let mapping = AddressMapping::new(cfg.dram);
        let copr_cfg = cfg
            .copr
            .unwrap_or_else(|| CoprConfig::paper_default(backend.occupied_lines().max(1)));
        let mut strategy = Strategy::with_cid_bits(
            cfg.strategy,
            mapping,
            cfg.metadata_cache,
            copr_cfg,
            seed,
            cfg.cid_bits,
        );
        if cfg.mirror {
            strategy.enable_mirror();
        }
        if cfg.mirror_poison {
            strategy.poison_mirror();
        }
        if let Some(plan) = cfg.faults.clone() {
            strategy.enable_faults(plan);
        }
        if cfg.integrity_armed() {
            strategy.enable_integrity(seed, cfg.ber_ppm.unwrap_or(0), cfg.ecc);
        }
        let observer = Observer::from_config(cfg);
        let mut mem = attache_dram::new_backend(cfg.backend, cfg.dram, cfg.power);
        if let Some(ring) = observer.as_ref().and_then(|o| o.ring.clone()) {
            strategy.set_trace(ring.clone());
            mem.set_trace(ring);
        }
        let cores = profiles
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Core::new(
                    i,
                    TraceGenerator::new(p, seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9)),
                    backend.core_base(i),
                    cfg.core
                        .max_outstanding
                        .min(p.mlp_limit.unwrap_or(usize::MAX)),
                )
            })
            .collect();
        Self {
            cfg: cfg.clone(),
            cores,
            llc: attache_cache::Llc::new(cfg.llc),
            mem,
            strategy,
            backend,
            txns: FastMap::default(),
            txn_by_req: FastMap::default(),
            pending_lines: FastMap::default(),
            retry_q: VecDeque::new(),
            delayed: BinaryHeap::new(),
            follow_scratch: Vec::new(),
            completion_scratch: Vec::new(),
            next_txn: 0,
            next_req: 0,
            cpu_accum: 0,
            core_wake: vec![0; cfg.core.cores],
            flush_gen: u64::MAX,
            issue_env_gen: 0,
            fault_mem_action: false,
            observer,
            scrub: cfg.scrub_period.map(|period| ScrubState {
                period,
                next_tick: period,
                cursor: 0,
            }),
        }
    }

    fn run_until(&mut self, total_target: u64) {
        match self.cfg.engine {
            EngineKind::Cycle => self.run_until_cycle(total_target),
            EngineKind::Event => self.run_until_event(total_target),
        }
    }

    /// The per-cycle reference engine: one [`bus_tick`](Self::bus_tick) per
    /// bus cycle, no skipping.
    fn run_until_cycle(&mut self, total_target: u64) {
        let mut guard: u64 = 0;
        while self.cores.iter().map(|c| c.retired).sum::<u64>() < total_target {
            self.bus_tick();
            self.check_tick_budget();
            guard += 1;
            assert!(
                guard < 20_000_000_000,
                "simulation failed to make progress"
            );
        }
    }

    /// The event engine: after each real tick, jump straight to the next
    /// cycle at which anything can change. Instructions retire only inside
    /// `bus_tick` (skipped spans are quiescent by construction), so the
    /// stop cycle — and every statistic — matches the per-cycle engine
    /// exactly.
    fn run_until_event(&mut self, total_target: u64) {
        let mut guard: u64 = 0;
        while self.cores.iter().map(|c| c.retired).sum::<u64>() < total_target {
            self.bus_tick_event();
            self.check_tick_budget();
            guard += 1;
            assert!(
                guard < 20_000_000_000,
                "simulation failed to make progress"
            );
            // The reference engine stops on the exact tick that reaches the
            // target; skipping ahead here would overshoot `mem.now()` past
            // that cycle (shifting the warm-up boundary and the final
            // bus-cycle count), so re-check before advancing.
            if self.cores.iter().map(|c| c.retired).sum::<u64>() >= total_target {
                break;
            }
            let now = self.mem.now();
            let horizon = self.horizon(now);
            debug_assert!(horizon > now, "horizon must be in the future");
            if horizon > now + 1 {
                self.advance(horizon - now - 1);
            }
        }
    }

    /// One bus cycle of the event engine. Bit-identical to
    /// [`bus_tick`](Self::bus_tick), but every phase consults a cached
    /// bound before doing work:
    ///
    /// * channels with a future [`next_event`](DramBackend::next_event)
    ///   bound skip their scheduler pass ([`DramBackend::tick_event`]);
    /// * retries are only re-attempted when queue/bank state has mutated
    ///   since the last pass (`mutation_gen`), and within a pass only the
    ///   requests whose own channel's acceptance generation moved since
    ///   their rejection (`accept_gen`) — enqueue outcomes are pure
    ///   functions of that state, so an attempt against unchanged state
    ///   is a guaranteed rejection, i.e. a no-op;
    /// * cores sleeping until a cached wake cycle (`core_wake`) skip their
    ///   CPU cycles entirely (each is provably a pure `cpu_now`
    ///   increment). Wakes are invalidated whenever state they depend on
    ///   can change: the waiter cores of a finishing transaction (ready
    ///   data, MSHR release) and every core on a retry-queue shrink
    ///   (issue-gate headroom). Cross-core coupling needs no wider
    ///   invalidation: per-core footprints are disjoint, and the LLC/retry
    ///   effects of one core's activity can only keep a blocked core
    ///   blocked, never wake it mid-tick.
    fn bus_tick_event(&mut self) {
        self.mem.tick_event();
        let mut completions = std::mem::take(&mut self.completion_scratch);
        self.mem.drain_completions_into(&mut completions);
        self.observe_completions(&completions);
        for c in completions.drain(..) {
            // `finish_txn` invalidates the wakes of exactly the cores each
            // completion can unblock.
            self.on_completion(c);
        }
        self.completion_scratch = completions;
        self.release_delayed();
        if !self.retry_q.is_empty() && self.mem.mutation_gen() != self.flush_gen {
            let before = self.retry_q.len();
            self.flush_retries(true);
            self.flush_gen = self.mem.mutation_gen();
            if self.retry_q.len() < before {
                self.core_wake.fill(0);
            }
        }

        self.cpu_accum += self.cfg.core.cpu_cycles_per_2_bus_cycles;
        let now = self.mem.now();
        while self.cpu_accum >= 2 {
            self.cpu_accum -= 2;
            let mut cores = std::mem::take(&mut self.cores);
            for core in &mut cores {
                if self.core_wake[core.id] > now {
                    core.cpu_now += 1;
                } else {
                    self.cpu_cycle(core);
                }
            }
            self.cores = cores;
        }
        for i in 0..self.cores.len() {
            if self.core_wake[i] <= now {
                let wake = self.core_horizon(&self.cores[i], now);
                self.core_wake[i] = wake;
            }
        }
        self.inject_faults_tick();
        self.scrub_tick();
        self.observe_tick();
    }

    /// Skips `span` bus cycles known to be event-free: bulk-accounts DRAM
    /// background power and drain-cycle statistics, and advances each
    /// core's CPU clock by the cycles the per-cycle engine would have run
    /// (all of them no-ops — every core is quiescent during the span).
    fn advance(&mut self, span: u64) {
        self.mem.advance_noop(span);
        let total =
            self.cpu_accum as u64 + self.cfg.core.cpu_cycles_per_2_bus_cycles as u64 * span;
        let cpu_cycles = total / 2;
        self.cpu_accum = (total % 2) as u32;
        for core in &mut self.cores {
            core.cpu_now += cpu_cycles;
        }
    }

    /// The earliest future bus cycle at which the next bus tick would do
    /// anything: a DRAM event (command legality, burst retirement, refresh,
    /// drain-mode flip), a delayed request release, or a core that can
    /// retire or issue — assembled entirely from the cached per-core wakes
    /// and per-channel bounds.
    ///
    /// Underestimates are safe (the engine degrades toward per-cycle
    /// polling); overestimates would change behavior, so every bound
    /// mirrors its per-cycle gate exactly.
    fn horizon(&mut self, now: u64) -> u64 {
        let soon = now + 1;
        // A fault action touched DRAM state after this tick's retry
        // flush (a derate overwrite can raise the capped capacity, i.e.
        // improve enqueue outcomes). The per-cycle engine re-flushes
        // next cycle; execute that tick for real so the gen-gated flush
        // runs at the same cycle.
        if std::mem::take(&mut self.fault_mem_action) {
            return soon;
        }
        let mut horizon = u64::MAX;
        for &w in &self.core_wake {
            debug_assert!(w > now, "stale core wake");
            if w == soon {
                return soon;
            }
            horizon = horizon.min(w);
        }
        if let Some(Reverse(d)) = self.delayed.peek() {
            horizon = horizon.min(d.release_at.max(soon));
        }
        // No explicit retry term: a retried request can only become
        // acceptable after a channel state mutation, and every mutation
        // happens on a cycle the memory bound already covers.
        horizon = horizon.min(self.mem.next_event_cached().max(soon));
        // Epoch sampling must observe the exact boundary cycle the
        // per-cycle engine samples at, so it is an event. (A forced tick
        // on a quiescent cycle is a no-op by the engine contract —
        // horizon underestimates are always safe.)
        if let Some(obs) = self.observer.as_ref() {
            let ns = obs.next_sample();
            if ns != u64::MAX {
                horizon = horizon.min(ns.max(soon));
            }
        }
        // A fault injection mutates model state, so the tick that fires
        // one must run for real — clamped exactly like epoch samples so
        // both engines inject at identical cycles.
        let nf = self.strategy.next_fault_tick();
        if nf != u64::MAX {
            horizon = horizon.min(nf.max(soon));
        }
        // A scrub check mutates model state (counters, possibly a
        // correction) and submits a read, so its scheduled tick must run
        // for real — clamped like fault injections so both engines scrub
        // at identical cycles.
        if let Some(scrub) = self.scrub.as_ref() {
            horizon = horizon.min(scrub.next_tick.max(soon));
        }
        horizon
    }

    /// When `core` can next make progress: refill the ROB, issue a stalled
    /// memory op, or retire its head. `u64::MAX` means the core is blocked
    /// on a memory event (tracked by the DRAM/txn horizons).
    fn core_horizon(&self, core: &Core, now: u64) -> u64 {
        let soon = now + 1;
        if core.occupancy < self.cfg.core.rob_size {
            return soon; // fill_rob will add instructions
        }
        // A stalled memory op that would issue now makes the core active.
        // Bounded by the same `need_issue` bookkeeping as the issue pass:
        // only the un-issued slots are probed.
        let mut remaining = core.need_issue;
        for idx in core.issue_from..core.rob.len() {
            if remaining == 0 {
                break;
            }
            if let Slot::Mem {
                line,
                state: MemState::NeedIssue,
                known_miss,
                ..
            } = core.rob[idx]
            {
                remaining -= 1;
                debug_assert!(
                    !(known_miss && self.llc.probe_line(line)),
                    "stale known miss"
                );
                // Headroom first: it is two integer compares, while the
                // LLC probe walks a set's tags. Both are pure, so the
                // short-circuit order is free to prefer the cheap one,
                // and a proven miss needs no probe at all.
                if (core.outstanding < core.max_outstanding
                    && self.retry_q.len() < RETRY_CAP)
                    || (!known_miss && self.llc.probe_line(line))
                {
                    return soon;
                }
            }
        }
        match core.rob.front() {
            // Gaps retire unconditionally; an empty ROB is covered by the
            // occupancy check above.
            None | Some(Slot::Gap { .. }) => soon,
            Some(Slot::Mem {
                is_write, state, ..
            }) => {
                let retirable = if *is_write {
                    *state != MemState::NeedIssue
                } else {
                    match state {
                        MemState::Ready => true,
                        MemState::WaitLlc(t) => *t <= core.cpu_now,
                        _ => false,
                    }
                };
                if retirable {
                    return soon;
                }
                if let MemState::WaitLlc(t) = state {
                    // The head retires during the CPU cycle that sees
                    // `cpu_now >= t`, i.e. after d = t - cpu_now + 1 more
                    // CPU cycles; each bus tick runs (accum + ratio)/2 of
                    // them, so the first tick with ratio*n >= 2d - accum.
                    let d = *t - core.cpu_now + 1;
                    let ratio = self.cfg.core.cpu_cycles_per_2_bus_cycles as u64;
                    let n = (2 * d - self.cpu_accum as u64).div_ceil(ratio);
                    return now + n.max(1);
                }
                // WaitMem, or a blocked NeedIssue: woken by completions or
                // queue-pressure changes, which are DRAM/retry events.
                u64::MAX
            }
        }
    }

    fn reset_stats(&mut self) {
        self.mem.reset_stats();
        self.llc.reset_stats();
        self.strategy.reset_stats();
        let now = self.mem.now();
        if let Some(obs) = self.observer.as_mut() {
            obs.reset(now);
        }
    }

    fn bus_tick(&mut self) {
        self.mem.tick();
        let mut completions = std::mem::take(&mut self.completion_scratch);
        self.mem.drain_completions_into(&mut completions);
        self.observe_completions(&completions);
        for c in completions.drain(..) {
            self.on_completion(c);
        }
        self.completion_scratch = completions;
        self.release_delayed();
        self.flush_retries(false);

        self.cpu_accum += self.cfg.core.cpu_cycles_per_2_bus_cycles;
        while self.cpu_accum >= 2 {
            self.cpu_accum -= 2;
            let mut cores = std::mem::take(&mut self.cores);
            for core in &mut cores {
                self.cpu_cycle(core);
            }
            self.cores = cores;
        }
        self.inject_faults_tick();
        self.scrub_tick();
        self.observe_tick();
    }

    /// Feeds this tick's completions to the observer: read-latency
    /// histogram points, and decoded completion events for the trace
    /// ring. No-op without an observer.
    fn observe_completions(&mut self, completions: &[Completion]) {
        let Some(obs) = self.observer.as_mut() else {
            return;
        };
        let want_events = obs.wants_events();
        for c in completions {
            if c.request.kind == AccessKind::Read {
                let ch = self.mem.channel_of(c.request.line_addr);
                obs.record_read_latency(ch, c.latency());
            }
            if want_events {
                obs.push_event(
                    c.finished_at,
                    format!(
                        "complete id={} line={:#x} {:?} {:?} {:?} latency={}",
                        c.request.id,
                        c.request.line_addr,
                        c.request.kind,
                        c.request.width,
                        c.request.origin,
                        c.latency()
                    ),
                );
            }
        }
    }

    /// End-of-tick fault hook: runs the injection schedule when armed.
    /// Strategy-level perturbations (stored images, BLEM, the metadata
    /// cache) happen inside [`Strategy::apply_faults`]; DRAM-level
    /// actions and trace events are applied here. One `Option` check
    /// when faults are off.
    fn inject_faults_tick(&mut self) {
        let now = self.mem.now();
        let Some(outcome) = self.strategy.apply_faults(now) else {
            return;
        };
        for action in outcome.actions {
            match action {
                crate::faults::FaultAction::DerateReads { cap, until } => {
                    self.mem.fault_derate_reads(cap, until);
                    self.fault_mem_action = true;
                }
            }
        }
        if let Some(obs) = self.observer.as_ref() {
            if obs.wants_events() {
                for e in outcome.events {
                    obs.push_event(now, e);
                }
            }
        }
    }

    /// End-of-tick patrol-scrub hook: when the scrub clock expires on an
    /// idle cycle (empty retry queue), functionally checks one line's ECC
    /// and charges one untracked `Origin::Scrub` read; on a backlogged
    /// cycle the interval is skipped and counted. Runs at the same cycle
    /// in both engines — [`horizon`](Self::horizon) clamps to
    /// `next_tick`, so the event engine executes the scheduled tick for
    /// real. One `Option` check when scrub is off.
    fn scrub_tick(&mut self) {
        let Some(scrub) = self.scrub.as_mut() else {
            return;
        };
        let now = self.mem.now();
        if now < scrub.next_tick {
            return;
        }
        // Catch up past `now` in one pass so a tiny period can never pin
        // `next_tick` in the past (which would force the event engine
        // into per-cycle polling forever).
        while scrub.next_tick <= now {
            scrub.next_tick += scrub.period;
        }
        let lines = self.backend.occupied_lines();
        if lines == 0 {
            return;
        }
        if !self.retry_q.is_empty() {
            self.strategy.note_scrub_busy();
            return;
        }
        // Workload regions are packed contiguously from address zero, so
        // the wrap-around cursor is itself a valid line address.
        let line = scrub.cursor % lines;
        scrub.cursor += 1;
        self.strategy.scrub_line(line, &self.backend);
        let spec = crate::strategy::ReqSpec {
            line,
            kind: AccessKind::Read,
            width: AccessWidth::Full,
            origin: Origin::Scrub,
        };
        // Untracked: `on_completion` ignores reads with no transaction,
        // so the scrub read costs bandwidth/energy without blocking
        // anything.
        self.submit_spec(spec, 0, None);
    }

    /// Cooperative watchdog: panics with a typed
    /// [`TickBudgetExceeded`](crate::faults::TickBudgetExceeded) payload
    /// once the bus clock passes the configured budget
    /// (`ATTACHE_JOB_TICK_BUDGET`). The resilient grid executor
    /// downcasts the payload into a structured timed-out outcome instead
    /// of treating the job as crashed.
    fn check_tick_budget(&self) {
        if let Some(budget) = self.cfg.tick_budget {
            let now = self.mem.now();
            if now > budget {
                std::panic::panic_any(crate::faults::TickBudgetExceeded { budget, now });
            }
        }
    }

    /// End-of-tick observer hook: takes an epoch snapshot when the
    /// epoch clock expires. No-op without an observer.
    fn observe_tick(&mut self) {
        let now = self.mem.now();
        if let Some(obs) = self.observer.as_mut() {
            obs.on_tick(now, self.mem.as_ref(), &self.llc, &self.strategy, &self.cfg);
        }
    }

    fn cpu_cycle(&mut self, core: &mut Core) {
        core.fill_rob(self.cfg.core.rob_size);

        // Issue pass: present NeedIssue memory ops to the LLC / memory, in
        // ROB order. The `need_issue` count and `issue_from` bound let the
        // walk start at the first un-issued slot and stop once all of them
        // have been visited — same slots, same order as a full scan. A
        // pass in which every slot stalls mutates nothing (`issue_mem_op`
        // returns `None` before touching any state), so while the stall
        // snapshot still matches, the whole pass is skipped: it would
        // provably stall identically.
        if core.need_issue > 0
            && core.stall_env_gen == self.issue_env_gen
            && core.stall_outstanding == core.outstanding
            && core.stall_need_issue == core.need_issue
        {
            // Identical all-stall pass: skip.
        } else if core.need_issue > 0 {
            let before = core.need_issue;
            let mut remaining = core.need_issue;
            let mut first_stalled = None;
            for idx in core.issue_from..core.rob.len() {
                if remaining == 0 {
                    break;
                }
                let Slot::Mem {
                    line,
                    is_write,
                    state,
                    known_miss,
                } = core.rob[idx]
                else {
                    continue;
                };
                if state != MemState::NeedIssue {
                    continue;
                }
                remaining -= 1;
                let outstanding = core.outstanding;
                if let Some(new_state) = self.issue_mem_op(core, line, is_write, known_miss) {
                    if let Slot::Mem { state, .. } = &mut core.rob[idx] {
                        *state = new_state;
                    }
                    core.need_issue -= 1;
                    if core.outstanding > outstanding {
                        // A miss issued and filled `line` into the LLC.
                        core.forget_known_miss(line);
                    }
                } else {
                    // Only a miss stalls (hits always issue): the slot
                    // is a proven miss.
                    if let Slot::Mem { known_miss, .. } = &mut core.rob[idx] {
                        *known_miss = true;
                    }
                    first_stalled.get_or_insert(idx);
                }
            }
            core.issue_from = first_stalled.unwrap_or(core.rob.len());
            if core.need_issue == before {
                core.stall_env_gen = self.issue_env_gen;
                core.stall_outstanding = core.outstanding;
                core.stall_need_issue = core.need_issue;
            } else {
                // Issues mutated the LLC / transaction state; other cores
                // share none of it (disjoint footprints) but the retry
                // queue may have grown — growth only strengthens stalls,
                // so their snapshots stay valid. Clear only our own.
                core.stall_env_gen = u64::MAX;
            }
        }

        core.retire(self.cfg.core.issue_width);
        core.cpu_now += 1;
    }

    /// Attempts to issue one memory operation; `None` means "stall, retry
    /// next cycle". `known_miss` skips the LLC probe for a slot an
    /// earlier pass already proved a miss: per-core footprints are
    /// disjoint, so only this core can fill `line`, and it clears the
    /// mark when it does ([`Core::forget_known_miss`]).
    fn issue_mem_op(
        &mut self,
        core: &mut Core,
        line: u64,
        is_write: bool,
        known_miss: bool,
    ) -> Option<MemState> {
        debug_assert!(
            !(known_miss && self.llc.probe_line(line)),
            "stale known miss"
        );
        let resident = !known_miss && self.llc.probe_line(line);
        if resident {
            if is_write {
                self.backend.record_store(line);
            }
            let acc = self.llc.access_line(line, is_write);
            debug_assert!(acc.hit);
            // A line filled by an in-flight transaction is "resident" in
            // the tag array; loads to it must still wait for the data.
            if let (false, Some(&txn_id)) = (is_write, self.pending_lines.get(&line)) {
                if let Some(txn) = self.txns.get_mut(&txn_id) {
                    txn.waiters.push((core.id, false));
                    return Some(MemState::WaitMem(txn_id));
                }
            }
            return Some(if is_write {
                MemState::Ready
            } else {
                MemState::WaitLlc(core.cpu_now + self.llc.latency())
            });
        }

        // LLC miss: need an MSHR (capped by the workload's MLP limit) and
        // memory-queue headroom.
        if core.outstanding >= core.max_outstanding || self.retry_q.len() >= RETRY_CAP {
            return None;
        }
        if is_write {
            self.backend.record_store(line);
        }
        let acc = self.llc.access_line(line, is_write);
        debug_assert!(!acc.hit);
        if let Some(victim) = acc.writeback {
            self.do_writeback(victim, core.id as u8);
        }
        let txn_id = self.start_read_txn(line, core.id);
        core.outstanding += 1;
        Some(if is_write {
            MemState::Ready // posted store; the fetch completes in background
        } else {
            MemState::WaitMem(txn_id)
        })
    }

    fn do_writeback(&mut self, victim_line: u64, core: u8) {
        let plan = self.strategy.plan_write(victim_line, core, &self.backend);
        self.submit_spec(plan.data, 0, None);
        for side in plan.side {
            self.submit_spec(side, 0, None);
        }
    }

    fn start_read_txn(&mut self, line: u64, core: usize) -> u64 {
        let txn_id = self.next_txn;
        self.next_txn += 1;
        let plan = self.strategy.plan_read(line, core as u8, &self.backend);
        // The ECC pipeline's syndrome check adds a bus cycle to every
        // demand-read path when enabled (zero when the engine is off).
        let delay =
            self.strategy.lookup_delay_bus_cycles() + self.strategy.ecc_read_delay_bus_cycles();
        for side in plan.side {
            self.submit_spec(side, delay, None);
        }
        let state = match plan.meta_first {
            Some(meta) => {
                self.submit_spec(meta, delay, Some(txn_id));
                TxnState::WaitMeta { data: plan.data }
            }
            None => {
                self.submit_spec(plan.data, delay, Some(txn_id));
                TxnState::WaitData
            }
        };
        self.txns.insert(
            txn_id,
            Txn {
                line,
                core,
                predicted: plan.predicted_compressed,
                state,
                waiters: InlineVec::of((core, true)),
            },
        );
        self.pending_lines.insert(line, txn_id);
        txn_id
    }

    fn submit_spec(&mut self, spec: ReqSpec, delay: u64, txn: Option<u64>) -> u64 {
        let id = self.next_req;
        self.next_req += 1;
        let req = MemRequest {
            id,
            line_addr: spec.line,
            kind: spec.kind,
            width: spec.width,
            origin: spec.origin,
            arrival: self.mem.now() + delay,
        };
        if let Some(t) = txn {
            self.txn_by_req.insert(id, t);
        }
        if let Some(obs) = self.observer.as_ref() {
            if obs.wants_events() {
                obs.push_event(
                    self.mem.now(),
                    format!(
                        "submit id={id} line={:#x} {:?} {:?} {:?} arrival={}",
                        req.line_addr, req.kind, req.width, req.origin, req.arrival
                    ),
                );
            }
        }
        if delay > 0 {
            self.delayed.push(Reverse(DelayedReq {
                release_at: self.mem.now() + delay,
                req,
            }));
        } else {
            self.try_submit(req);
        }
        id
    }

    fn try_submit(&mut self, req: MemRequest) {
        if self.mem.enqueue(req).is_err() {
            let gen = self.mem.accept_gen(&req);
            self.retry_q.push_back((req, gen));
        }
    }

    fn release_delayed(&mut self) {
        let now = self.mem.now();
        while let Some(Reverse(d)) = self.delayed.peek() {
            if d.release_at > now {
                break;
            }
            let Reverse(d) = self.delayed.pop().expect("peeked entry exists");
            self.try_submit(d.req);
        }
    }

    /// Re-offers every deferred request once, oldest first; the rejected
    /// keep their order. The per-cycle engine attempts every request
    /// (`gated == false`, the reference). The event engine skips a request
    /// whose [`accept_gen`](DramBackend::accept_gen) has not moved since
    /// its rejection: the attempt would be rejected again and mutate
    /// nothing, so the queue ends in the same state.
    fn flush_retries(&mut self, gated: bool) {
        let n = self.retry_q.len();
        let mem = &mut self.mem;
        self.retry_q.retain_mut(|(req, gen)| {
            let now_gen = mem.accept_gen(req);
            if gated && now_gen == *gen {
                return true;
            }
            if mem.enqueue(*req).is_ok() {
                return false;
            }
            *gen = now_gen;
            true
        });
        if self.retry_q.len() < n {
            // Retry headroom appeared: stalled issue passes may now accept.
            self.issue_env_gen += 1;
        }
    }

    fn on_completion(&mut self, c: Completion) {
        let Some(txn_id) = self.txn_by_req.remove(&c.request.id) else {
            return; // untracked (writes, side traffic)
        };
        debug_assert_eq!(c.request.kind, AccessKind::Read);
        let Some(txn) = self.txns.get_mut(&txn_id) else {
            return;
        };
        match txn.state {
            TxnState::WaitMeta { data } => {
                txn.state = TxnState::WaitData;
                self.submit_spec(data, 0, Some(txn_id));
            }
            TxnState::WaitData => {
                let (line, predicted, core) = (txn.line, txn.predicted, txn.core);
                let mut follow = std::mem::take(&mut self.follow_scratch);
                self.strategy
                    .on_read_data(line, predicted, core as u8, &self.backend, &mut follow);
                if follow.is_empty() {
                    self.finish_txn(txn_id);
                } else {
                    let n = follow.len() as u32;
                    if let Some(t) = self.txns.get_mut(&txn_id) {
                        t.state = TxnState::WaitFollow { remaining: n };
                    }
                    for &f in &follow {
                        self.submit_spec(f, 0, Some(txn_id));
                    }
                }
                self.follow_scratch = follow;
            }
            TxnState::WaitFollow { ref mut remaining } => {
                *remaining -= 1;
                if *remaining == 0 {
                    self.finish_txn(txn_id);
                }
            }
        }
    }

    fn finish_txn(&mut self, txn_id: u64) {
        // A freed MSHR reopens a stalled issue pass through the core's
        // own `stall_outstanding` snapshot, and a cleared pending line
        // only changes how a *hit* issues — hits never stall — so no
        // issue-environment bump is needed here.
        let txn = self.txns.remove(&txn_id).expect("transaction exists");
        if self.pending_lines.get(&txn.line) == Some(&txn_id) {
            self.pending_lines.remove(&txn.line);
        }
        for (core, counted) in txn.waiters.iter() {
            // Invalidate the event engine's cached wake for exactly the
            // cores this transaction touches: a ready slot or a freed MSHR
            // can unblock them. No other core's gates can open here — the
            // LLC fill happened at issue time, and per-core footprints are
            // disjoint.
            self.core_wake[core] = 0;
            if counted {
                self.cores[core].complete_txn(txn_id);
            } else {
                self.cores[core].mark_txn_ready(txn_id);
            }
        }
    }

    fn report_measured(&self, name: &str, measured_base: u64) -> RunReport {
        RunReport {
            name: name.to_string(),
            strategy: self.cfg.strategy,
            bus_cycles: self.mem.stats().cycles,
            instructions: self.cores.iter().map(|c| c.retired).sum::<u64>() - measured_base,
            mem: self.mem.stats(),
            energy: self.mem.energy(),
            llc: self.llc.stats(),
            strategy_stats: self.strategy.stats(),
            copr: self.strategy.copr_stats(),
            blem: self.strategy.blem_stats(),
            ra: self.strategy.ra_stats(),
            metadata_cache: self.strategy.metadata_cache_stats(),
            cram: self.strategy.cram_stats(),
            integrity: self.strategy.integrity_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MetadataStrategyKind;

    fn quick_cfg(strategy: MetadataStrategyKind) -> SimConfig {
        SimConfig::table2_baseline()
            .with_strategy(strategy)
            .with_instructions(30_000, 5_000)
    }

    #[test]
    fn baseline_run_completes_and_reports() {
        let r = System::run_rate_mode(&quick_cfg(MetadataStrategyKind::Baseline), Profile::stream(), 1);
        assert!(r.total_instructions() >= 8 * 30_000);
        assert!(r.bus_cycles > 0);
        assert!(r.ipc() > 0.0);
        assert!(r.mem.demand_reads > 0, "stream misses the LLC");
        assert_eq!(r.mem.metadata_reads, 0, "baseline has no metadata");
        assert!(r.energy.total_pj() > 0.0);
    }

    #[test]
    fn attache_run_predicts_and_compresses() {
        let r = System::run_rate_mode(&quick_cfg(MetadataStrategyKind::Attache), Profile::stream(), 1);
        let copr = r.copr.expect("attache reports copr");
        assert!(copr.predictions > 0);
        assert!(copr.accuracy() > 0.5, "accuracy {}", copr.accuracy());
        assert!(r.compressed_read_fraction() > 0.3);
        assert_eq!(r.mem.metadata_reads, 0, "attache never reads metadata");
    }

    #[test]
    fn metadata_cache_run_generates_installs() {
        let r = System::run_rate_mode(
            &quick_cfg(MetadataStrategyKind::MetadataCache),
            Profile::rand(),
            1,
        );
        assert!(r.mem.metadata_reads > 0, "random traffic misses the metadata cache");
        let (stats, traffic) = r.metadata_cache.expect("reports metadata cache");
        assert!(stats.accesses > 0);
        assert!(traffic.install_reads > 0);
    }

    #[test]
    fn identical_seeds_are_deterministic() {
        let cfg = quick_cfg(MetadataStrategyKind::Attache);
        let a = System::run_rate_mode(&cfg, Profile::stream(), 7);
        let b = System::run_rate_mode(&cfg, Profile::stream(), 7);
        assert_eq!(a.bus_cycles, b.bus_cycles);
        assert_eq!(a.mem.demand_reads, b.mem.demand_reads);
        let c = System::run_rate_mode(&cfg, Profile::stream(), 8);
        assert_ne!(a.bus_cycles, c.bus_cycles);
    }

    #[test]
    fn oracle_beats_baseline_on_compressible_stream() {
        let base = System::run_rate_mode(&quick_cfg(MetadataStrategyKind::Baseline), Profile::stream(), 3);
        let ideal = System::run_rate_mode(&quick_cfg(MetadataStrategyKind::Oracle), Profile::stream(), 3);
        let speedup = ideal.speedup_vs(&base);
        assert!(
            speedup > 1.02,
            "ideal compression should beat baseline, got {speedup:.3}"
        );
    }

    #[test]
    fn mix_runs_one_profile_per_core() {
        let mix = attache_workloads::mixes().remove(0);
        let cfg = quick_cfg(MetadataStrategyKind::Attache).with_instructions(10_000, 2_000);
        let r = System::run_mix(&cfg, &mix, 5);
        assert!(r.total_instructions() >= 8 * 10_000);
    }
}
