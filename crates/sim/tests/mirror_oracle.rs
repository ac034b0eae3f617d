//! End-to-end mirror-memory oracle suite.
//!
//! Drives randomized traces through the full system — cores, LLC,
//! strategies, DRAM — with the shadow-copy oracle attached
//! (`SimConfig::with_mirror`). Any byte that survives the strategy stack
//! differently from what was written back panics inside the run, so a
//! green suite *is* the zero-mismatch claim. The suite additionally
//! asserts the oracle saw real traffic (recorded writebacks, checked
//! reads) so it can never pass vacuously, and that the specific hard
//! paths — forced CID collisions, Replacement-Area reads, scrambler key
//! changes — actually occurred in the trace.
//!
//! Seeds come from `tests/corpus/mirror-trace.case` so the exact traces
//! are pinned and reproducible.

use attache_sim::{mirror, EngineKind, MetadataStrategyKind, SimConfig, System};
use attache_testkit::{CorpusCase, Gen};
use attache_workloads::{AccessPattern, Category, DataProfile, Profile, Suite};

const STRATEGIES: [MetadataStrategyKind; MetadataStrategyKind::ALL.len()] =
    MetadataStrategyKind::ALL;

const ENGINES: [EngineKind; 2] = [EngineKind::Cycle, EngineKind::Event];

/// Randomized reuse-heavy profiles: the footprint (512 KiB - 2 MiB) is a
/// small multiple of the shrunken LLC in [`quick`], so dirty lines get
/// evicted *and re-read* within a quick run — that eviction/re-read churn
/// is what routes traffic through the oracle's read check. Streams are
/// excluded: no reuse, nothing to verify.
fn random_profile(g: &mut Gen) -> Profile {
    let pattern = match g.below(3) {
        0 => AccessPattern::Random,
        1 => AccessPattern::graph(),
        _ => AccessPattern::PointerChase { locality: 0.5 + 0.4 * g.unit() },
    };
    let comp = g.unit();
    let data = if comp < 0.25 {
        DataProfile::incompressible()
    } else {
        DataProfile::clustered(comp)
    };
    Profile {
        name: "mirror-randomized",
        suite: Suite::Synthetic,
        category: Category::Compressible,
        data,
        pattern,
        // 8192-32768 lines (512 KiB - 2 MiB): 2-8x the quick-config LLC.
        footprint_lines: 8192 << g.below(3),
        instructions_per_access: 5.0 + 6.0 * g.unit(),
        write_fraction: 0.25 + 0.25 * g.unit(),
        mlp_limit: None,
    }
}

fn quick(strategy: MetadataStrategyKind, engine: EngineKind) -> SimConfig {
    let mut cfg = SimConfig::table2_baseline()
        .with_strategy(strategy)
        .with_instructions(3_000, 300)
        .with_engine(engine)
        .with_mirror(true);
    // A 128 KiB LLC: quick runs cannot touch enough lines to spill the
    // paper's 8 MiB LLC, and without evictions there are no writebacks —
    // and nothing for the oracle to verify.
    cfg.llc.size_bytes = 128 << 10;
    cfg
}

#[test]
fn oracle_validates_randomized_traces_for_all_strategies_under_both_engines() {
    let case = CorpusCase::load("mirror-trace");
    let before = mirror::global_stats();
    for strategy in STRATEGIES {
        let mut g = Gen::new(case.require("base-seed"));
        for i in 0..case.require("cases") {
            let profile = random_profile(&mut g);
            for engine in ENGINES {
                let cfg = quick(strategy, engine);
                let report = System::run_rate_mode(&cfg, profile.clone(), 100 + i);
                assert!(report.bus_cycles > 0, "{strategy} {engine:?} case {i}");
            }
        }
    }
    // The oracle must have actually observed the traffic: every strategy
    // records writebacks, and the decode/classification paths (Attaché,
    // MetadataCache, Oracle) re-check reads. A zero here would mean the
    // suite went green without verifying anything.
    let after = mirror::global_stats();
    assert!(
        after.writes_recorded > before.writes_recorded,
        "oracle recorded no writebacks across the randomized traces"
    );
    assert!(
        after.reads_checked > before.reads_checked,
        "oracle checked no reads across the randomized traces"
    );
}

#[test]
fn oracle_survives_forced_cid_collisions_and_ra_traffic() {
    // Narrow CID (2^-5 collision rate) + incompressible data: collisions
    // and Replacement-Area traffic are forced to appear inside a quick
    // run, so the paper's worst-case read path (CID collision, XID=1,
    // displaced bit fetched from the RA, descramble) runs under the
    // oracle's byte check — on both engines.
    let case = CorpusCase::load("mirror-trace");
    let profile = Profile {
        name: "mirror-collisions",
        suite: Suite::Synthetic,
        category: Category::Incompressible,
        data: DataProfile::incompressible(),
        pattern: AccessPattern::Random,
        footprint_lines: 8192,
        instructions_per_access: 5.0,
        write_fraction: 0.45,
        mlp_limit: None,
    };
    for engine in ENGINES {
        let mut cfg = quick(MetadataStrategyKind::Attache, engine).with_instructions(12_000, 0);
        cfg.cid_bits = case.require("collision-cid-bits") as u8;
        let report = System::run_rate_mode(&cfg, profile.clone(), 23);
        let blem = report.blem.expect("attache reports blem stats");
        let ra = report.ra.expect("attache reports ra stats");
        assert!(
            blem.write_collisions > 0,
            "{engine:?}: the narrow CID must force write collisions"
        );
        assert!(ra.writes > 0, "{engine:?}: collisions must displace bits into the RA");
        assert!(
            ra.reads > 0,
            "{engine:?}: collided lines must be re-read through the RA path"
        );
    }
}

#[test]
fn oracle_is_lossless_across_scrambler_key_changes() {
    // The scrambler key derives from the run seed: distinct seeds rotate
    // the key under identical traffic. The oracle would catch any
    // stale-key decode (the descramble of a line written under an older
    // key) as a byte mismatch.
    let case = CorpusCase::load("mirror-trace");
    let mut g = Gen::new(case.require("base-seed") ^ 0x5eed);
    let profile = random_profile(&mut g);
    for seed in [3, 0xDEAD_BEEF] {
        for engine in ENGINES {
            let cfg = quick(MetadataStrategyKind::Attache, engine);
            let report = System::run_rate_mode(&cfg, profile.clone(), seed);
            assert!(report.bus_cycles > 0, "seed {seed} {engine:?}");
        }
    }
}

#[test]
fn oracle_is_a_pure_observer() {
    // Identical reports with the oracle on and off: attaching it must not
    // perturb timing, stats, or energy.
    let case = CorpusCase::load("mirror-trace");
    let mut g = Gen::new(case.require("base-seed") ^ 0x0b5e);
    let profile = random_profile(&mut g);
    for strategy in [MetadataStrategyKind::Baseline, MetadataStrategyKind::Attache] {
        let cfg = quick(strategy, EngineKind::Event);
        let with = System::run_rate_mode(&cfg, profile.clone(), 7);
        let without =
            System::run_rate_mode(&cfg.clone().with_mirror(false), profile.clone(), 7);
        assert_eq!(with, without, "mirror oracle perturbed a {strategy} run");
    }
}
