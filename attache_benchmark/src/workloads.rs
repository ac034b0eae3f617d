//! The four fixed workloads, the strategies every workload runs, and the
//! pinned simulator configuration.

use attache_sim::{BackendKind, EngineKind, MetadataStrategyKind, SimConfig};
use attache_workloads::Profile;

/// One benchmark workload: a set of rate-mode profiles, each run under
/// every strategy in [`STRATEGIES`] once per pass.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub profiles: &'static [&'static str],
    pub why: &'static str,
    /// Host seconds one full-length pass took on the reference host (two
    /// vCPUs of an Intel Xeon under Firecracker); sets the pass count.
    pub pass_seconds: f64,
}

/// Each workload stresses a different layer; see the benchmark README for
/// which per-layer metric is expected to move which end-to-end metric.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pointer_chase",
        profiles: &["mcf", "omnetpp", "sphinx3"],
        why: "mcf, omnetpp and sphinx3 under all five schemes: moderate queues; core model, trace generation, COPR and compression share the time",
        pass_seconds: 8.5,
    },
    Workload {
        name: "rand_bandwidth",
        profiles: &["RAND"],
        why: "RAND under all five schemes: deep queues of row misses load the FR-FCFS scheduler; the metadata cache thrashes and compression always fails",
        pass_seconds: 13.0,
    },
    Workload {
        name: "stream_writeback",
        profiles: &["STREAM"],
        why: "STREAM under all five schemes: a third of accesses are stores, row hits dominate and data compresses, so write and compression paths carry the load",
        pass_seconds: 7.5,
    },
    Workload {
        name: "chase_latency",
        profiles: &["CHASE"],
        why: "CHASE under all five schemes: one outstanding miss per core keeps queues shallow; event-engine skips and per-instruction work dominate",
        pass_seconds: 3.6,
    },
];

/// Every metadata scheme, run on every workload so per-strategy metric
/// names are the same on each. Listed explicitly rather than through
/// `MetadataStrategyKind::ALL`, so a new scheme changes the benchmark only
/// when it is added here (and to `BENCHMARK.json`).
pub const STRATEGIES: [MetadataStrategyKind; 5] = [
    MetadataStrategyKind::Baseline,
    MetadataStrategyKind::MetadataCache,
    MetadataStrategyKind::Attache,
    MetadataStrategyKind::Oracle,
    MetadataStrategyKind::Cram,
];

/// The lowercase key a strategy has in metric names.
pub fn strategy_key(s: MetadataStrategyKind) -> &'static str {
    match s {
        MetadataStrategyKind::Baseline => "baseline",
        MetadataStrategyKind::MetadataCache => "metadatacache",
        MetadataStrategyKind::Attache => "attache",
        MetadataStrategyKind::Oracle => "ideal",
        MetadataStrategyKind::Cram => "cram",
    }
}

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    pub fn profiles(&self) -> Vec<Profile> {
        self.profiles
            .iter()
            .map(|p| Profile::by_name(p).expect("workload profiles are catalog names"))
            .collect()
    }

    /// Timed passes for a budget of `seconds`: as many nominal passes as
    /// fit, within the scale's limits. The count depends on the budget
    /// alone, never on how fast the host happens to run, so every run of a
    /// workload takes each job's minimum over the same number of samples.
    pub fn passes(&self, seconds: f64, scale: &Scale) -> usize {
        ((seconds / self.pass_seconds).round() as usize).clamp(scale.min_passes, scale.max_passes)
    }
}

/// Run lengths and repetition counts. `FULL` is what every reported
/// number uses; `SMOKE` only proves the whole path runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Measured instructions per core.
    pub instructions: u64,
    /// Warm-up instructions per core (statistics reset after them).
    pub warmup: u64,
    /// One-instruction runs per job whose median is its set-up time.
    pub setup_reps: usize,
    /// Fewest timed passes; a second pass is what the cross-pass
    /// determinism check compares against.
    pub min_passes: usize,
    /// Most timed passes.
    pub max_passes: usize,
    /// Trace events per core in the layer replays.
    pub stream_events_per_core: usize,
    /// Repetitions of each layer timing (the median is reported).
    pub layer_reps: usize,
    /// Run length of the cycle-vs-event engine check.
    pub cross_instructions: u64,
    pub cross_warmup: u64,
}

pub const FULL: Scale = Scale {
    instructions: 600_000,
    warmup: 100_000,
    setup_reps: 25,
    min_passes: 2,
    max_passes: 100,
    stream_events_per_core: 20_000,
    layer_reps: 3,
    cross_instructions: 60_000,
    cross_warmup: 10_000,
};

pub const SMOKE: Scale = Scale {
    instructions: 3_000,
    warmup: 500,
    setup_reps: 3,
    min_passes: 2,
    max_passes: 2,
    stream_events_per_core: 500,
    layer_reps: 1,
    cross_instructions: 2_000,
    cross_warmup: 500,
};

/// Table II with every field the environment could otherwise influence set
/// explicitly: event engine, cycle-level DRAM backend, and every observer,
/// fault and integrity knob off. Shard count is not set here; it stays 1
/// because children run with every `ATTACHE_*` variable removed.
pub fn pinned_config(strategy: MetadataStrategyKind, instructions: u64, warmup: u64) -> SimConfig {
    SimConfig::table2_baseline()
        .with_strategy(strategy)
        .with_instructions(instructions, warmup)
        .with_engine(EngineKind::Event)
        .with_backend(BackendKind::Cycle)
        .with_mirror(false)
        .with_mirror_poison(false)
        .with_epoch(None)
        .with_trace_ring(None)
        .with_faults(None)
        .with_tick_budget(None)
        .with_ber(None)
        .with_ecc(false)
        .with_scrub(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_profiles_resolve_and_strategy_keys_are_distinct() {
        for w in WORKLOADS {
            assert!(!w.profiles().is_empty(), "{}", w.name);
        }
        let keys: std::collections::BTreeSet<_> =
            STRATEGIES.iter().map(|&s| strategy_key(s)).collect();
        assert_eq!(keys.len(), STRATEGIES.len());
    }

    #[test]
    fn pass_counts_follow_the_budget_alone() {
        let at = |name: &str, s: f64| by_name(name).unwrap().passes(s, &FULL);
        assert_eq!(
            [
                at("pointer_chase", 25.0),
                at("rand_bandwidth", 25.0),
                at("stream_writeback", 25.0),
                at("chase_latency", 25.0)
            ],
            [3, 2, 3, 7]
        );
        // Never fewer than two passes: the cross-pass check needs a second.
        assert_eq!(at("rand_bandwidth", 1.0), 2);
        assert_eq!(by_name("chase_latency").unwrap().passes(25.0, &SMOKE), 2);
    }

    #[test]
    fn pinned_config_is_table_ii() {
        let cfg = pinned_config(MetadataStrategyKind::Attache, 600_000, 100_000);
        assert_eq!(cfg.core.cores, 8);
        assert_eq!(cfg.dram.channels, 2);
        assert_eq!(cfg.llc.size_bytes, 8 << 20);
        assert_eq!(cfg.engine, EngineKind::Event);
        assert_eq!(cfg.backend, BackendKind::Cycle);
        assert!(!cfg.mirror && !cfg.ecc && cfg.faults.is_none() && cfg.epoch.is_none());
        assert!(!cfg.integrity_armed());
    }
}
