//! Golden-stats snapshots: the full metric registry for every strategy,
//! pinned as checked-in JSON under `tests/goldens/`.
//!
//! Each strategy runs under **both** engines with an identical pinned
//! configuration; the exported registry JSON must be byte-identical
//! across engines (the cross-engine determinism claim extended to the
//! observability layer) and byte-identical to the checked-in golden
//! (the regression pin). The epoch series is also checked for internal
//! consistency: its final snapshot must equal the cumulative registry.
//!
//! # Regenerating the goldens
//!
//! After an intentional metrics change:
//!
//! ```text
//! ATTACHE_BLESS=1 cargo test -p attache-sim --test golden_stats
//! ```
//!
//! then review the diff under `tests/goldens/` like any other code
//! change. A blessing run still asserts cross-engine identity, so it
//! cannot launder an engine divergence into the goldens.

use attache_metrics::registry_to_json;
use attache_sim::{EngineKind, MetadataStrategyKind, SimConfig, System};
use attache_testkit::Gen;
use attache_workloads::{AccessPattern, Category, DataProfile, Profile, Suite};
use std::path::PathBuf;

const STRATEGIES: [MetadataStrategyKind; MetadataStrategyKind::ALL.len()] =
    MetadataStrategyKind::ALL;

const ENGINES: [EngineKind; 2] = [EngineKind::Cycle, EngineKind::Event];

/// Run seed; changing it invalidates every golden.
const SEED: u64 = 1009;

/// Epoch length in bus cycles — short enough that a quick run crosses
/// several boundaries, so the series consistency check is not vacuous.
const EPOCH: u64 = 2_000;

fn golden_path(strategy: MetadataStrategyKind) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens")
        .join(format!("{strategy}.json"))
}

/// A reuse-heavy compressible profile, pinned by the generator seed: the
/// small LLC in [`pinned`] forces evictions and re-reads, so the golden
/// covers DRAM writes, metadata traffic, and (for Attaché) the BLEM and
/// COPR paths — not just a cold-read stream.
fn pinned_profile() -> Profile {
    let mut g = Gen::new(0x601d_575a);
    Profile {
        name: "golden-stats",
        suite: Suite::Synthetic,
        category: Category::Compressible,
        data: DataProfile::clustered(0.5 + 0.3 * g.unit()),
        pattern: AccessPattern::PointerChase { locality: 0.6 },
        footprint_lines: 8192,
        instructions_per_access: 5.0 + 2.0 * g.unit(),
        write_fraction: 0.35,
        mlp_limit: None,
    }
}

fn pinned(strategy: MetadataStrategyKind, engine: EngineKind) -> SimConfig {
    let mut cfg = SimConfig::table2_baseline()
        .with_strategy(strategy)
        .with_instructions(3_000, 300)
        .with_engine(engine)
        // Pin the knobs explicitly so ambient ATTACHE_EPOCH /
        // ATTACHE_TRACE_RING values cannot perturb the goldens.
        .with_epoch(Some(EPOCH))
        .with_trace_ring(None);
    // Small LLC, as in the mirror suite: quick runs must spill.
    cfg.llc.size_bytes = 128 << 10;
    cfg
}

#[test]
fn golden_stats_match_for_all_strategies_under_both_engines() {
    let bless = attache_sim::env_flag("ATTACHE_BLESS");
    let profile = pinned_profile();
    for strategy in STRATEGIES {
        let mut per_engine = Vec::new();
        for engine in ENGINES {
            let cfg = pinned(strategy, engine);
            let (report, obs) = System::run_rate_mode_observed(&cfg, profile.clone(), SEED);
            assert!(report.bus_cycles > 0, "{strategy} {engine:?}");
            let obs = obs.expect("the epoch knob is on, so an observation exists");

            // The series must have crossed at least one epoch boundary
            // (plus the final snapshot), and its last snapshot must be
            // the cumulative registry.
            let series = obs
                .series
                .as_ref()
                .expect("epoch sampling produces a series");
            assert!(
                series.len() >= 2,
                "{strategy} {engine:?}: expected >= 2 samples, got {}",
                series.len()
            );
            let last = series.last().expect("non-empty series");
            assert_eq!(
                last.registry, obs.registry,
                "{strategy} {engine:?}: final series snapshot must equal the registry"
            );

            per_engine.push(registry_to_json(&obs.registry));
        }
        let [cycle_json, event_json] = per_engine.try_into().expect("two engines");
        assert_eq!(
            cycle_json, event_json,
            "{strategy}: registry JSON must be byte-identical across engines"
        );

        let path = golden_path(strategy);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &cycle_json).unwrap();
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read golden {}: {e}\n\
                 regenerate with: ATTACHE_BLESS=1 cargo test -p attache-sim --test golden_stats",
                path.display()
            )
        });
        assert_eq!(
            cycle_json,
            golden,
            "{strategy}: metric registry diverged from {}\n\
             if intentional, regenerate with: ATTACHE_BLESS=1 cargo test -p attache-sim --test golden_stats",
            path.display()
        );
    }
}
