//! The whole stack must be deterministic for a given seed — this is what
//! makes every figure in EXPERIMENTS.md reproducible bit-for-bit.

use attache::sim::{MetadataStrategyKind, SimConfig, System};
use attache::workloads::Profile;

fn quick(strategy: MetadataStrategyKind) -> SimConfig {
    SimConfig::table2_baseline()
        .with_strategy(strategy)
        .with_instructions(25_000, 5_000)
}

#[test]
fn same_seed_same_cycles_every_strategy() {
    for strategy in MetadataStrategyKind::ALL {
        let a = System::run_rate_mode(&quick(strategy), Profile::stream(), 11);
        let b = System::run_rate_mode(&quick(strategy), Profile::stream(), 11);
        assert_eq!(a.bus_cycles, b.bus_cycles, "{strategy}");
        assert_eq!(a.mem.demand_reads, b.mem.demand_reads, "{strategy}");
        assert_eq!(a.mem.data_writes, b.mem.data_writes, "{strategy}");
        assert_eq!(a.mem.activates, b.mem.activates, "{strategy}");
        assert_eq!(
            a.energy.total_pj().to_bits(),
            b.energy.total_pj().to_bits(),
            "{strategy}"
        );
    }
}

#[test]
fn different_seed_different_execution() {
    let a = System::run_rate_mode(&quick(MetadataStrategyKind::Attache), Profile::stream(), 1);
    let b = System::run_rate_mode(&quick(MetadataStrategyKind::Attache), Profile::stream(), 2);
    assert_ne!(a.bus_cycles, b.bus_cycles);
}

#[test]
fn mixes_are_deterministic_too() {
    let mix = attache::workloads::mixes().remove(0);
    let cfg = quick(MetadataStrategyKind::Attache).with_instructions(8_000, 2_000);
    let a = System::run_mix(&cfg, &mix, 3);
    let b = System::run_mix(&cfg, &mix, 3);
    assert_eq!(a.bus_cycles, b.bus_cycles);
}

#[test]
fn cache_key_and_tag_match_the_recorded_literals() {
    // Every file under `results/cache/` is named by a hash of
    // `job.cache_key(..)`, and every export stem by `tag()`. Both strings
    // are pinned as literals so that a harness change which re-keys the
    // existing cache (and silently recomputes every figure) fails here.
    // Configs are literals: no env reads, so the test is parallel-safe.
    use attache::sim::BackendKind;
    use attache_bench::{ExperimentConfig, JobSpec, WorkloadRef};

    let cfg = ExperimentConfig {
        instructions: 25_000,
        warmup: 5_000,
        seed: 42,
        backend: BackendKind::Cycle,
    };
    let job = JobSpec::new(
        WorkloadRef::Rate("stream".into()),
        MetadataStrategyKind::Attache,
    );
    assert_eq!(cfg.tag(), "i25000_w5000_s42");
    assert_eq!(
        job.cache_key(&cfg),
        "attache-report-v1|i25000|w5000|s42|rate:stream|Attache|-"
    );
}
