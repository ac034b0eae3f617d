//! The pluggable memory-backend boundary.
//!
//! A [`MemoryBackend`] is a *timing* model of main memory: it accepts
//! [`MemRequest`]s, advances a bus clock, and retires [`Completion`]s.
//! Two implementations ship in-tree —
//!
//! * [`MemorySystem`](crate::MemorySystem): the cycle-level, sub-ranked
//!   DDR4 model ([`BackendKind::Cycle`], the default), and
//! * [`FastMemory`](crate::FastMemory): a fixed-latency queueing model
//!   ([`BackendKind::Fast`], `ATTACHE_BACKEND=fast`) for several-fold faster
//!   exploratory sweeps
//!
//! — and the boundary is designed so a third, external cycle-accurate
//! backend (a DRAMsim3-style FFI shim) can be added against the written
//! contract alone. **The normative statement of that contract lives in
//! `docs/BACKENDS.md`**; the rustdoc on each trait method below restates
//! the per-method obligations. The cross-model referee
//! ([`crate::referee`]) replays identical request streams through two
//! backends and fails when divergence leaves the documented tolerance
//! envelope.
//!
//! # Contract summary
//!
//! * **Determinism.** A backend is a pure function of its construction
//!   parameters and the exact sequence of mutating calls. No wall clock,
//!   no ambient randomness, no iteration over unordered containers where
//!   order can leak into results.
//! * **Clock discipline.** The clock advances only through
//!   [`tick`](MemoryBackend::tick) / [`tick_event`](MemoryBackend::tick_event)
//!   (one cycle), [`advance_noop`](MemoryBackend::advance_noop) (a span the
//!   caller has proven event-free via
//!   [`next_event`](MemoryBackend::next_event)), or
//!   [`advance_idle_to`](MemoryBackend::advance_idle_to) (fully idle).
//! * **Event-horizon soundness.** [`next_event`](MemoryBackend::next_event)
//!   may *under*-estimate (the caller degrades toward per-cycle polling)
//!   but must never *over*-estimate: skipping past a completion, a derate
//!   expiry, or any cycle at which an enqueue outcome changes would change
//!   simulation results between the cycle and event engines.
//! * **Completion exactness.** Every accepted read completes exactly once.
//!   Writes are posted and may be coalesced (at most one completion per
//!   accepted write, possibly fewer).

use crate::channel::{ChannelStats, QueueFull};
use crate::config::{AddressMapping, DramConfig};
use crate::conformance::ConformanceStats;
use crate::power::{EnergyBreakdown, PowerParams};
use crate::request::{AccessKind, Completion, MemRequest};

/// Which timing model backs the memory system — the `ATTACHE_BACKEND`
/// axis (`cycle` | `fast`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The cycle-level DDR4 model ([`crate::MemorySystem`]) — the
    /// reference, and the default.
    #[default]
    Cycle,
    /// The fixed-latency queueing model ([`crate::FastMemory`]) for fast
    /// exploratory sweeps.
    Fast,
}

impl BackendKind {
    /// The stable key used in env values, cache keys and file names.
    pub fn key(self) -> &'static str {
        match self {
            BackendKind::Cycle => "cycle",
            BackendKind::Fast => "fast",
        }
    }
}

impl core::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.key())
    }
}

/// Error returned when parsing an unknown backend name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownBackend;

impl core::fmt::Display for UnknownBackend {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("unknown memory backend (expected \"cycle\" or \"fast\")")
    }
}

impl std::error::Error for UnknownBackend {}

impl core::str::FromStr for BackendKind {
    type Err = UnknownBackend;

    /// Parses `cycle` / `fast`, case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("cycle") {
            Ok(BackendKind::Cycle)
        } else if s.eq_ignore_ascii_case("fast") {
            Ok(BackendKind::Fast)
        } else {
            Err(UnknownBackend)
        }
    }
}

/// A pluggable main-memory timing model.
///
/// The full normative contract — timing obligations, determinism rules,
/// event-horizon interaction, and what the cross-model referee checks —
/// is written down in `docs/BACKENDS.md`. Implementations must be
/// `Send` (the experiment grid fans simulations across worker threads)
/// and `Debug` (failure dumps print the owning system).
pub trait MemoryBackend: Send + std::fmt::Debug {
    /// Which model this is (used for labels, cache keys and reports).
    fn kind(&self) -> BackendKind;

    /// The geometry/policy configuration the backend was built with.
    fn config(&self) -> &DramConfig;

    /// The physical address mapping in use. All backends of one
    /// configuration must agree on this mapping — it is consulted by the
    /// metadata strategies (sub-rank selection) and must match what the
    /// backend itself uses for channel routing, or traffic attribution
    /// silently diverges (the classic DRAMsim3-FFI pitfall).
    fn mapping(&self) -> &AddressMapping;

    /// The channel index servicing `line_addr` (derived from
    /// [`mapping`](Self::mapping); override only with identical results).
    fn channel_of(&self, line_addr: u64) -> usize {
        self.mapping().channel_of(line_addr)
    }

    /// Whether the channel servicing `line_addr` can accept `kind` now.
    /// Must be consistent with [`enqueue`](Self::enqueue): a `true` here
    /// means an immediate enqueue of a matching request succeeds.
    fn can_accept(&self, line_addr: u64, kind: AccessKind) -> bool;

    /// Routes and enqueues a request. Acceptance must be a pure function
    /// of queue/bank state (see [`accept_gen`](Self::accept_gen)).
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the target channel's queue has no room;
    /// the caller retries on a later cycle.
    fn enqueue(&mut self, req: MemRequest) -> Result<(), QueueFull>;

    /// Advances the clock by exactly one bus cycle, doing all model work
    /// scheduled for that cycle.
    fn tick(&mut self);

    /// Behaviorally identical to [`tick`](Self::tick) — only the work
    /// performed may differ (the cycle model skips scheduler scans it can
    /// prove fruitless). A backend with no such optimization simply
    /// forwards to `tick`.
    fn tick_event(&mut self) {
        self.tick();
    }

    /// Advances the clock `span` cycles in bulk. The caller guarantees —
    /// via [`next_event`](Self::next_event) — that the span contains no
    /// events; the backend accounts passive per-cycle state (background
    /// energy, busy statistics) exactly as `span` individual ticks would.
    fn advance_noop(&mut self, span: u64);

    /// Fast-forwards a **fully idle** backend to `target`.
    ///
    /// # Panics
    ///
    /// Panics if any request is pending or in flight.
    fn advance_idle_to(&mut self, target: u64);

    /// The current bus cycle.
    fn now(&self) -> u64;

    /// Whether no request is pending or in flight anywhere.
    fn is_idle(&self) -> bool;

    /// Takes the completions that have retired up to and including the
    /// current cycle. Order must be deterministic (channel-major, then
    /// retirement order). Every accepted read completes exactly once;
    /// writes are posted and may coalesce.
    fn drain_completions(&mut self) -> Vec<Completion>;

    /// Appends this tick's completions to `out` instead of returning a
    /// fresh vector — same contents and order as
    /// [`drain_completions`](Self::drain_completions). The engines call
    /// this every executed tick with a reused scratch buffer; backends
    /// should override the default when they can drain without
    /// allocating.
    fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.drain_completions());
    }

    /// The earliest future cycle at which the backend could do real work:
    /// retire a completion, legally issue a command, flip a drain mode,
    /// refresh, or change any state an enqueue outcome depends on
    /// (including a derate expiry). `u64::MAX` when nothing is pending.
    /// Underestimates are safe; overestimates are a contract violation.
    fn next_event(&self) -> u64;

    /// Like [`next_event`](Self::next_event), but may be served from
    /// caches maintained by [`tick_event`](Self::tick_event). May return
    /// `now + 1` when a cached bound is unknown (degrading the caller to
    /// polling); must never exceed the true next event.
    fn next_event_cached(&self) -> u64 {
        self.next_event()
    }

    /// A per-request acceptance generation: while it is unchanged, an
    /// [`enqueue`](Self::enqueue) of `req` that was rejected would be
    /// rejected again, so a retry may be skipped without trying it. It
    /// must change on every mutation that can turn a rejection of `req`
    /// into an acceptance — at least whatever frees room in, or adds a
    /// forwarding/coalescing target to, the queue `req` routes to, and
    /// every derate set and expiry. It may stay put across mutations that
    /// only make acceptance harder (another request filling the queue).
    fn accept_gen(&self, req: &MemRequest) -> u64;

    /// An aggregate acceptance generation: it must change whenever any
    /// request's [`accept_gen`](Self::accept_gen) does, so while it is
    /// unchanged no rejected request could be accepted and a retry pass
    /// may be skipped whole.
    fn aggregate_accept_gen(&self) -> u64;

    /// Aggregated statistics across channels since the last
    /// [`reset_stats`](Self::reset_stats). Fields a model does not
    /// simulate (e.g. row hits in a flat-latency model) stay zero — the
    /// documented per-field obligations are in `docs/BACKENDS.md`.
    fn stats(&self) -> ChannelStats;

    /// Per-channel statistics, channel-index order.
    fn channel_stats(&self) -> Vec<ChannelStats>;

    /// Accumulated DRAM energy since the last reset. Models may
    /// approximate components they do not simulate (the fast model has
    /// no ACT/PRE or refresh energy) but must account background and
    /// per-burst energy bit-identically across engines (integer cycle
    /// counting, not incremental f64 sums).
    fn energy(&self) -> EnergyBreakdown;

    /// Resets statistics and energy after warm-up. The clock is *not*
    /// reset; in-flight requests stay in flight and attribute to the
    /// new measurement region when they retire.
    fn reset_stats(&mut self);

    /// Per-channel queue occupancy `(reads, writes)` — observability
    /// gauges, never a scheduling input for callers.
    fn queue_depths(&self) -> Vec<(usize, usize)>;

    /// Per-channel, per-sub-rank data-bus busy cycles since the last
    /// stats reset.
    fn subrank_busy(&self) -> Vec<Vec<u64>>;

    /// Per-channel, per-sub-rank CAS counts since the last stats reset.
    fn subrank_cas(&self) -> Vec<Vec<u64>>;

    /// Fault-injection hook: caps every channel's read queue at `cap`
    /// slots until the bus clock reaches `until` (a timing-only
    /// perturbation). The expiry is an event: it must be visible in
    /// [`next_event`](Self::next_event) so both engines lift the cap at
    /// the same cycle, and it must move every
    /// [`accept_gen`](Self::accept_gen) at set *and* expiry.
    fn fault_derate_reads(&mut self, cap: usize, until: u64);

    /// Shares an event-trace ring for failure context. Backends without
    /// command-level events may ignore it (the default).
    fn set_trace(&mut self, ring: attache_metrics::SharedTraceRing) {
        let _ = ring;
    }

    /// Attaches a protocol conformance auditor where the model issues
    /// real DRAM commands. Timing-abstract models keep the default no-op;
    /// the referee then judges them statistically instead (see
    /// `docs/BACKENDS.md`).
    fn enable_conformance(&mut self) {}

    /// Aggregate conformance-audit counters, `None` when no auditor is
    /// attached (always `None` for timing-abstract models).
    fn conformance_stats(&self) -> Option<ConformanceStats> {
        None
    }
}

/// Constructs the backend selected by `kind`.
pub fn new_backend(
    kind: BackendKind,
    cfg: DramConfig,
    power: PowerParams,
) -> Box<dyn MemoryBackend> {
    match kind {
        BackendKind::Cycle => Box::new(crate::MemorySystem::new(cfg, power)),
        BackendKind::Fast => Box::new(crate::FastMemory::new(cfg, power)),
    }
}

impl MemoryBackend for crate::MemorySystem {
    fn kind(&self) -> BackendKind {
        BackendKind::Cycle
    }

    fn config(&self) -> &DramConfig {
        crate::MemorySystem::config(self)
    }

    fn mapping(&self) -> &AddressMapping {
        crate::MemorySystem::mapping(self)
    }

    fn channel_of(&self, line_addr: u64) -> usize {
        crate::MemorySystem::channel_of(self, line_addr)
    }

    fn can_accept(&self, line_addr: u64, kind: AccessKind) -> bool {
        crate::MemorySystem::can_accept(self, line_addr, kind)
    }

    fn enqueue(&mut self, req: MemRequest) -> Result<(), QueueFull> {
        crate::MemorySystem::enqueue(self, req)
    }

    fn tick(&mut self) {
        crate::MemorySystem::tick(self);
    }

    fn tick_event(&mut self) {
        crate::MemorySystem::tick_event(self);
    }

    fn advance_noop(&mut self, span: u64) {
        crate::MemorySystem::advance_noop(self, span);
    }

    fn advance_idle_to(&mut self, target: u64) {
        crate::MemorySystem::advance_idle_to(self, target);
    }

    fn now(&self) -> u64 {
        crate::MemorySystem::now(self)
    }

    fn is_idle(&self) -> bool {
        crate::MemorySystem::is_idle(self)
    }

    fn drain_completions(&mut self) -> Vec<Completion> {
        crate::MemorySystem::drain_completions(self)
    }

    fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        crate::MemorySystem::drain_completions_into(self, out)
    }

    fn next_event(&self) -> u64 {
        crate::MemorySystem::next_event(self)
    }

    fn next_event_cached(&self) -> u64 {
        crate::MemorySystem::next_event_cached(self)
    }

    fn accept_gen(&self, req: &MemRequest) -> u64 {
        crate::MemorySystem::accept_gen(self, req)
    }

    fn aggregate_accept_gen(&self) -> u64 {
        crate::MemorySystem::aggregate_accept_gen(self)
    }

    fn stats(&self) -> ChannelStats {
        crate::MemorySystem::stats(self)
    }

    fn channel_stats(&self) -> Vec<ChannelStats> {
        crate::MemorySystem::channel_stats(self)
    }

    fn energy(&self) -> EnergyBreakdown {
        crate::MemorySystem::energy(self)
    }

    fn reset_stats(&mut self) {
        crate::MemorySystem::reset_stats(self);
    }

    fn queue_depths(&self) -> Vec<(usize, usize)> {
        crate::MemorySystem::queue_depths(self)
    }

    fn subrank_busy(&self) -> Vec<Vec<u64>> {
        crate::MemorySystem::subrank_busy(self)
    }

    fn subrank_cas(&self) -> Vec<Vec<u64>> {
        crate::MemorySystem::subrank_cas(self)
    }

    fn fault_derate_reads(&mut self, cap: usize, until: u64) {
        crate::MemorySystem::fault_derate_reads(self, cap, until);
    }

    fn set_trace(&mut self, ring: attache_metrics::SharedTraceRing) {
        crate::MemorySystem::set_trace(self, ring);
    }

    fn enable_conformance(&mut self) {
        crate::MemorySystem::enable_conformance(self);
    }

    fn conformance_stats(&self) -> Option<ConformanceStats> {
        crate::MemorySystem::conformance_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{AccessWidth, Origin};
    use crate::Timing;

    #[test]
    fn backend_kind_parses_and_displays() {
        assert_eq!("cycle".parse::<BackendKind>(), Ok(BackendKind::Cycle));
        assert_eq!("FAST".parse::<BackendKind>(), Ok(BackendKind::Fast));
        assert_eq!("dramsim3".parse::<BackendKind>(), Err(UnknownBackend));
        assert_eq!(BackendKind::Cycle.to_string(), "cycle");
        assert_eq!(BackendKind::Fast.to_string(), "fast");
        assert_eq!(BackendKind::default(), BackendKind::Cycle);
    }

    #[test]
    fn cycle_backend_behind_the_trait_matches_the_concrete_model() {
        // The same request stream driven through the trait object and the
        // concrete MemorySystem must retire identically: the trait impl is
        // pure delegation, and this pins it.
        let mk_req = |id: u64| MemRequest {
            id,
            line_addr: id * 2,
            kind: AccessKind::Read,
            width: AccessWidth::Full,
            origin: Origin::Demand { core: 0 },
            arrival: 0,
        };
        let mut concrete = crate::MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
        let mut boxed = new_backend(
            BackendKind::Cycle,
            DramConfig::table2(),
            PowerParams::ddr4_1600(),
        );
        for id in 0..8 {
            concrete.enqueue(mk_req(id)).unwrap();
            boxed.enqueue(mk_req(id)).unwrap();
        }
        let mut via_concrete = Vec::new();
        let mut via_trait = Vec::new();
        for _ in 0..2_000 {
            concrete.tick();
            boxed.tick();
            via_concrete.append(&mut concrete.drain_completions());
            via_trait.append(&mut boxed.drain_completions());
        }
        assert_eq!(via_concrete, via_trait);
        assert_eq!(crate::MemorySystem::stats(&concrete), boxed.stats());
        assert_eq!(boxed.kind(), BackendKind::Cycle);
    }

    #[test]
    fn fast_backend_constructs_via_factory() {
        let mem = new_backend(
            BackendKind::Fast,
            DramConfig::table2(),
            PowerParams::ddr4_1600(),
        );
        assert_eq!(mem.kind(), BackendKind::Fast);
        assert!(mem.is_idle());
        assert_eq!(mem.next_event(), u64::MAX);
        assert!(mem.conformance_stats().is_none());
    }

    #[test]
    fn default_channel_of_follows_the_mapping() {
        let mem = new_backend(
            BackendKind::Fast,
            DramConfig::table2(),
            PowerParams::ddr4_1600(),
        );
        let _ = Timing::table2();
        for addr in [0u64, 1, 2, 3, 1000, 1001] {
            assert_eq!(mem.channel_of(addr), mem.mapping().decompose(addr).channel);
        }
    }
}
