//! Simulation configuration (Table II plus run controls).

use attache_cache::{LlcConfig, MetadataCacheConfig};
use attache_core::copr::CoprConfig;
use attache_dram::{BackendKind, DramConfig, PowerParams};

/// Which metadata scheme the memory controller runs — the comparison axis
/// of Figs. 12-15.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetadataStrategyKind {
    /// No compression, no sub-ranking: the paper's baseline.
    Baseline,
    /// Compression + sub-ranking with an on-controller Metadata-Cache
    /// (Memzip-style): metadata misses cost install reads, dirty evictions
    /// cost writes.
    MetadataCache,
    /// Compression + sub-ranking with Attaché (BLEM + COPR): metadata
    /// travels with data; the predictor chooses the sub-ranks.
    Attache,
    /// Compression + sub-ranking with free, always-correct metadata — the
    /// "ideal" bars in Figs. 12-13.
    Oracle,
    /// Compression + sub-ranking with CRAM-style implicit metadata
    /// (PAPERS.md, Young/Kariyappa/Qureshi): compression state is
    /// inferred from an in-line marker word — no metadata region, no
    /// metadata-cache, no predictor — with a Touché-style escape encoding
    /// absorbing the incompressible lines whose content collides with
    /// the marker.
    Cram,
}

impl MetadataStrategyKind {
    /// Every strategy, in the canonical sweep order. Strategy-generic
    /// test suites and the bench grid iterate this slice so a new
    /// variant cannot silently skip the oracle: [`ordinal`]
    /// (MetadataStrategyKind::ordinal) is an exhaustive match the
    /// compiler re-checks on every added variant, and the `const` block
    /// below fails the build unless `ALL` lists each variant exactly
    /// once, in ordinal order.
    pub const ALL: [Self; 5] = [
        Self::Baseline,
        Self::MetadataCache,
        Self::Attache,
        Self::Oracle,
        Self::Cram,
    ];

    /// This strategy's position in [`ALL`](Self::ALL). The exhaustive
    /// match is the compile-time guard: adding a variant without
    /// extending it refuses to build.
    pub const fn ordinal(self) -> usize {
        match self {
            Self::Baseline => 0,
            Self::MetadataCache => 1,
            Self::Attache => 2,
            Self::Oracle => 3,
            Self::Cram => 4,
        }
    }
}

const _: () = {
    let mut i = 0;
    while i < MetadataStrategyKind::ALL.len() {
        assert!(
            MetadataStrategyKind::ALL[i].ordinal() == i,
            "MetadataStrategyKind::ALL must list every variant in ordinal order"
        );
        i += 1;
    }
};

impl core::fmt::Display for MetadataStrategyKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            MetadataStrategyKind::Baseline => "Baseline",
            MetadataStrategyKind::MetadataCache => "MetadataCache",
            MetadataStrategyKind::Attache => "Attache",
            MetadataStrategyKind::Oracle => "Ideal",
            MetadataStrategyKind::Cram => "Cram",
        };
        f.write_str(s)
    }
}

impl core::str::FromStr for MetadataStrategyKind {
    type Err = UnknownStrategy;

    /// Parses the Display form; "Oracle" is accepted as an alias for the
    /// figure label "Ideal".
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "Baseline" => Ok(MetadataStrategyKind::Baseline),
            "MetadataCache" => Ok(MetadataStrategyKind::MetadataCache),
            "Attache" => Ok(MetadataStrategyKind::Attache),
            "Ideal" | "Oracle" => Ok(MetadataStrategyKind::Oracle),
            "Cram" => Ok(MetadataStrategyKind::Cram),
            _ => Err(UnknownStrategy),
        }
    }
}

/// Error returned when parsing an unknown strategy name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownStrategy;

impl core::fmt::Display for UnknownStrategy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(
            "unknown metadata strategy (expected Baseline, MetadataCache, Attache, Ideal or Cram)",
        )
    }
}

impl std::error::Error for UnknownStrategy {}

/// Which main-loop engine advances simulated time. Both produce
/// bit-identical [`RunReport`](crate::RunReport)s (asserted by the
/// differential tests in `crates/sim/tests/`); they differ only in
/// wall-clock cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// Poll every bus cycle — the reference engine.
    Cycle,
    /// Skip straight to the next cycle at which anything can change
    /// (DRAM command legality, burst retirement, refresh, core
    /// retire/issue, delayed releases, retry acceptance).
    #[default]
    Event,
}

impl EngineKind {
    /// Reads `ATTACHE_ENGINE` (`cycle` or `event`); unset or unparsable
    /// values fall back to [`EngineKind::Event`] with a warning on stderr
    /// (once).
    pub fn from_env() -> Self {
        static CHOICE: std::sync::OnceLock<EngineKind> = std::sync::OnceLock::new();
        *CHOICE.get_or_init(|| match std::env::var("ATTACHE_ENGINE") {
            Ok(v) if v.eq_ignore_ascii_case("cycle") => EngineKind::Cycle,
            Ok(v) if v.eq_ignore_ascii_case("event") => EngineKind::Event,
            Ok(v) => {
                eprintln!("warning: ATTACHE_ENGINE={v:?} is not \"cycle\" or \"event\"; using the event engine");
                EngineKind::Event
            }
            Err(_) => EngineKind::Event,
        })
    }
}

/// Core-model parameters (Table II: 8 OoO cores, 4 GHz, 4-wide).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Number of cores.
    pub cores: usize,
    /// Retire/issue width per CPU cycle.
    pub issue_width: u32,
    /// Reorder-buffer capacity in instructions.
    pub rob_size: u32,
    /// Outstanding memory transactions per core (MSHRs).
    pub max_outstanding: usize,
    /// CPU cycles per memory-bus cycle, times two (Table II: 4 GHz over
    /// 1600 MHz = 2.5, stored as 5 to stay integral).
    pub cpu_cycles_per_2_bus_cycles: u32,
}

impl CoreConfig {
    /// Table II: 8 cores, 4-wide, 4 GHz on a 1600 MHz bus.
    pub fn table2() -> Self {
        Self {
            cores: 8,
            issue_width: 4,
            rob_size: 192,
            max_outstanding: 8,
            cpu_cycles_per_2_bus_cycles: 5,
        }
    }

    /// The production-scale core complex paired with
    /// [`DramConfig::scale8`]: 64 Table-II cores (8 per channel).
    pub fn scale64() -> Self {
        Self {
            cores: 64,
            ..Self::table2()
        }
    }
}

/// The full simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Core model parameters.
    pub core: CoreConfig,
    /// Shared LLC parameters.
    pub llc: LlcConfig,
    /// Memory system parameters.
    pub dram: DramConfig,
    /// DRAM electrical parameters.
    pub power: PowerParams,
    /// Metadata scheme under test.
    pub strategy: MetadataStrategyKind,
    /// Metadata-Cache parameters (used when `strategy` is
    /// [`MetadataStrategyKind::MetadataCache`]).
    pub metadata_cache: MetadataCacheConfig,
    /// COPR component toggles/geometry (used when `strategy` is
    /// [`MetadataStrategyKind::Attache`]). `None` selects the paper
    /// default sized to the occupied footprint.
    pub copr: Option<CoprConfig>,
    /// Instructions to retire per core in the measured region.
    pub instructions_per_core: u64,
    /// Instructions to retire per core during warm-up (stats then reset).
    pub warmup_instructions_per_core: u64,
    /// Mean probability that a store flips its line's compressibility
    /// class (per 16 stores), exercising metadata dirtiness.
    pub store_version_salt: bool,
    /// CID width in bits for BLEM's metadata header (the paper evaluates
    /// 14 bits + 1 algorithm bit; Table I explores 13..=15).
    pub cid_bits: u8,
    /// Main-loop engine (bit-identical results either way; see
    /// [`EngineKind`]).
    pub engine: EngineKind,
    /// Memory timing model. [`BackendKind::Cycle`], the cycle-level DDR4
    /// model, is the only one.
    pub backend: BackendKind,
    /// Run with the mirror-memory oracle attached (see [`crate::mirror`]):
    /// every writeback is shadow-copied and every functional read decode
    /// is verified against it, panicking on divergence. Pure observer —
    /// results are bit-identical with it on or off.
    pub mirror: bool,
    /// Epoch length in bus cycles for observability sampling: when
    /// `Some(n)`, the run snapshots its metric registry into a
    /// time-series every `n` bus cycles of the measured region
    /// (`ATTACHE_EPOCH=<ticks>`, `0`/unset = disabled). Pure observer —
    /// results are bit-identical with it on or off.
    pub epoch: Option<u64>,
    /// Capacity of the event-trace ring (`ATTACHE_TRACE_RING=<n>`,
    /// `0`/unset = disabled): the last `n` decoded sim/DRAM events are
    /// retained and dumped when the mirror oracle or the DRAM
    /// conformance auditor fires. Pure observer.
    pub trace_ring: Option<usize>,
    /// Test hook (builder-only, no environment knob): corrupt every
    /// mirror-oracle shadow record so the first re-read of a
    /// written-back line reports a mismatch — proving the
    /// failure-context dump path end to end.
    pub mirror_poison: bool,
    /// Fault-injection schedule (`ATTACHE_FAULTS=<spec>`, unset/`0` =
    /// disabled; see [`crate::faults`]). When `None`, no injector is
    /// constructed and results are bit-identical to a faults-free build.
    pub faults: Option<crate::faults::FaultPlan>,
    /// Cooperative tick budget in bus cycles
    /// (`ATTACHE_JOB_TICK_BUDGET=<n>`, unset/`0` = unlimited): a run
    /// that exceeds it panics with a
    /// [`TickBudgetExceeded`](crate::faults::TickBudgetExceeded) payload
    /// that a caller can recover with `catch_unwind` + `downcast_ref`.
    pub tick_budget: Option<u64>,
    /// Device soft-error rate in ppm of line-touches
    /// (`ATTACHE_BER=<ppm>`, unset/`0` = no soft errors; see
    /// [`crate::integrity`]). Deterministic for a fixed seed.
    pub ber_ppm: Option<u64>,
    /// Model the (72,64) SEC-DED ECC pipeline (`ATTACHE_ECC=1`):
    /// per-word encode on writeback, syndrome-check/correct on read
    /// completion, a +1 bus-cycle check latency on reads, and poison
    /// propagation with per-strategy recovery on uncorrectable errors.
    pub ecc: bool,
    /// Background patrol-scrub period in bus cycles
    /// (`ATTACHE_SCRUB=<cycles>`, unset/`0` = no scrub): every period,
    /// an idle controller walks one line, correcting what SEC-DED can.
    pub scrub_period: Option<u64>,
}

impl SimConfig {
    /// The paper's Table II baseline configuration with laptop-scale run
    /// lengths.
    pub fn table2_baseline() -> Self {
        crate::env::warn_unknown_knobs_once();
        Self {
            core: CoreConfig::table2(),
            llc: LlcConfig::table2(),
            dram: DramConfig::table2(),
            power: PowerParams::ddr4_1600(),
            strategy: MetadataStrategyKind::Baseline,
            metadata_cache: MetadataCacheConfig::paper_1mb(),
            copr: None,
            instructions_per_core: 1_000_000,
            warmup_instructions_per_core: 200_000,
            store_version_salt: true,
            cid_bits: 14,
            engine: EngineKind::from_env(),
            backend: BackendKind::Cycle,
            mirror: crate::env::env_flag("ATTACHE_MIRROR"),
            epoch: crate::env::env_u64_opt("ATTACHE_EPOCH"),
            trace_ring: crate::env::env_u64_opt("ATTACHE_TRACE_RING").map(|n| n as usize),
            mirror_poison: false,
            faults: crate::faults::FaultPlan::from_env(),
            tick_budget: crate::env::env_u64_opt("ATTACHE_JOB_TICK_BUDGET"),
            ber_ppm: crate::env::env_u64_opt("ATTACHE_BER"),
            ecc: crate::env::env_flag("ATTACHE_ECC"),
            scrub_period: crate::env::env_u64_opt("ATTACHE_SCRUB"),
        }
    }

    /// Whether any integrity knob is armed (soft errors, ECC, scrub) —
    /// when false, no [`IntegrityEngine`](crate::integrity::IntegrityEngine)
    /// is constructed and results are bit-identical to an
    /// integrity-free build.
    pub fn integrity_armed(&self) -> bool {
        self.ecc || self.ber_ppm.is_some() || self.scrub_period.is_some()
    }

    /// The production-scale configuration the ROADMAP targets: 8 DRAM
    /// channels ([`DramConfig::scale8`]) fed by 64 cores
    /// ([`CoreConfig::scale64`]), with every run control inherited from
    /// [`table2_baseline`](SimConfig::table2_baseline).
    pub fn scale8_baseline() -> Self {
        let mut cfg = Self::table2_baseline();
        cfg.core = CoreConfig::scale64();
        cfg.dram = attache_dram::DramConfig::scale8();
        cfg
    }

    /// Same configuration with a different strategy.
    pub fn with_strategy(mut self, strategy: MetadataStrategyKind) -> Self {
        self.strategy = strategy;
        self
    }

    /// Same configuration with a different run length.
    pub fn with_instructions(mut self, measured: u64, warmup: u64) -> Self {
        self.instructions_per_core = measured;
        self.warmup_instructions_per_core = warmup;
        self
    }

    /// Same configuration with an explicit main-loop engine (overriding
    /// whatever `ATTACHE_ENGINE` selected).
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Same configuration with an explicit memory timing model.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Same configuration with the mirror-memory oracle toggled
    /// (overriding whatever `ATTACHE_MIRROR` selected).
    pub fn with_mirror(mut self, mirror: bool) -> Self {
        self.mirror = mirror;
        self
    }

    /// Same configuration with an explicit epoch-sampling period
    /// (overriding whatever `ATTACHE_EPOCH` selected; `None` disables).
    pub fn with_epoch(mut self, epoch: Option<u64>) -> Self {
        self.epoch = epoch;
        self
    }

    /// Same configuration with an explicit event-trace ring capacity
    /// (overriding whatever `ATTACHE_TRACE_RING` selected; `None`
    /// disables).
    pub fn with_trace_ring(mut self, cap: Option<usize>) -> Self {
        self.trace_ring = cap;
        self
    }

    /// Same configuration with mirror-record poisoning toggled (test
    /// hook; see [`SimConfig::mirror_poison`]).
    pub fn with_mirror_poison(mut self, poison: bool) -> Self {
        self.mirror_poison = poison;
        self
    }

    /// Same configuration with an explicit fault-injection plan
    /// (overriding whatever `ATTACHE_FAULTS` selected; `None` disables).
    pub fn with_faults(mut self, plan: Option<crate::faults::FaultPlan>) -> Self {
        self.faults = plan;
        self
    }

    /// Same configuration with an explicit tick budget (overriding
    /// whatever `ATTACHE_JOB_TICK_BUDGET` selected; `None` = unlimited).
    pub fn with_tick_budget(mut self, budget: Option<u64>) -> Self {
        self.tick_budget = budget;
        self
    }

    /// Same configuration with an explicit soft-error rate in ppm of
    /// line-touches (overriding whatever `ATTACHE_BER` selected; `None`
    /// disables soft errors).
    pub fn with_ber(mut self, ppm: Option<u64>) -> Self {
        self.ber_ppm = ppm.filter(|&p| p > 0);
        self
    }

    /// Same configuration with the SEC-DED ECC pipeline toggled
    /// (overriding whatever `ATTACHE_ECC` selected).
    pub fn with_ecc(mut self, ecc: bool) -> Self {
        self.ecc = ecc;
        self
    }

    /// Same configuration with an explicit patrol-scrub period in bus
    /// cycles (overriding whatever `ATTACHE_SCRUB` selected; `None`
    /// disables scrubbing).
    pub fn with_scrub(mut self, period: Option<u64>) -> Self {
        self.scrub_period = period.filter(|&p| p > 0);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper() {
        let cfg = SimConfig::table2_baseline();
        assert_eq!(cfg.core.cores, 8);
        assert_eq!(cfg.core.issue_width, 4);
        assert_eq!(cfg.llc.size_bytes, 8 << 20);
        assert_eq!(cfg.llc.ways, 8);
        assert_eq!(cfg.llc.latency_cycles, 20);
        assert_eq!(cfg.dram.channels, 2);
        assert_eq!(cfg.dram.ranks, 1);
        assert_eq!(cfg.dram.bank_groups, 4);
        assert_eq!(cfg.dram.banks_per_group, 4);
        assert_eq!(cfg.dram.rows, 64 * 1024);
        assert_eq!(cfg.dram.blocks_per_row, 128);
        assert_eq!(cfg.dram.timing.t_rcd, 22);
        assert_eq!(cfg.dram.timing.t_rp, 22);
        assert_eq!(cfg.dram.timing.t_cas, 22);
        // 4 GHz cpu over 1600 MHz bus = 2.5.
        assert_eq!(cfg.core.cpu_cycles_per_2_bus_cycles, 5);
    }

    #[test]
    fn builders_chain() {
        let cfg = SimConfig::table2_baseline()
            .with_strategy(MetadataStrategyKind::Attache)
            .with_instructions(1000, 100);
        assert_eq!(cfg.strategy, MetadataStrategyKind::Attache);
        assert_eq!(cfg.instructions_per_core, 1000);
        assert_eq!(cfg.warmup_instructions_per_core, 100);
    }

    #[test]
    fn strategy_display_names() {
        assert_eq!(MetadataStrategyKind::Baseline.to_string(), "Baseline");
        assert_eq!(MetadataStrategyKind::Oracle.to_string(), "Ideal");
        assert_eq!(MetadataStrategyKind::Cram.to_string(), "Cram");
    }

    #[test]
    fn all_slice_roundtrips_through_display_and_from_str() {
        for (i, kind) in MetadataStrategyKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.ordinal(), i);
            let parsed: MetadataStrategyKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed, kind, "Display form must parse back");
        }
        assert_eq!(
            "bogus".parse::<MetadataStrategyKind>(),
            Err(UnknownStrategy)
        );
    }
}
