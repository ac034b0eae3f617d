//! End-to-end fault-injection suite: the chaos harness for the
//! metadata-recovery paths.
//!
//! The injector (`crates/sim/src/faults.rs`) corrupts stored images,
//! BLEM headers, Replacement-Area bits, Metadata-Cache residency, the
//! scrambler key, and DRAM read bandwidth on a seeded schedule; the
//! mirror-memory oracle is the ground truth that decides whether each
//! corruption was *detected* (a decoded read came back wrong),
//! *absorbed* (overwritten or decode-invisible before any read), or
//! *undetected* (a wrong read nobody caught). This suite pins the three
//! contracts the layer is built on:
//!
//! * determinism — a fixed `FaultPlan` produces bit-identical reports
//!   and per-class fault accounting under the cycle and event engines;
//! * coverage — with the oracle attached, every surfaced corruption is
//!   detected (zero `undetected` across every class);
//! * purity — with faults off, no injector exists: no `faults.*`
//!   metric keys, and reports identical to a config that never
//!   mentioned faults.
//!
//! The `ra_corrupt` scenario is pinned in
//! `tests/corpus/fault-ra-corrupt.case` so the exact schedule that
//! exercises the Replacement-Area recovery path is reproducible.

use attache_sim::{EngineKind, FaultClass, FaultPlan, MetadataStrategyKind, SimConfig, System};
use attache_testkit::CorpusCase;
use attache_workloads::{AccessPattern, Category, DataProfile, Profile, Suite};

const ENGINES: [EngineKind; 2] = [EngineKind::Cycle, EngineKind::Event];

/// Incompressible, write-heavy, reuse-heavy traffic over a shrunken LLC:
/// dirty lines spill to DRAM (targets for the injector) and get re-read
/// (chances for the oracle to catch corruption).
fn chaos_profile() -> Profile {
    Profile {
        name: "fault-chaos",
        suite: Suite::Synthetic,
        category: Category::Incompressible,
        data: DataProfile::incompressible(),
        pattern: AccessPattern::Random,
        footprint_lines: 8192,
        instructions_per_access: 5.0,
        write_fraction: 0.45,
        mlp_limit: None,
    }
}

/// A quick Attaché configuration with the oracle attached and the CID
/// narrowed so collisions — the targets of `cid_erase`/`ra_corrupt` —
/// are forced to appear inside a short run.
fn chaos_config(engine: EngineKind) -> SimConfig {
    let mut cfg = SimConfig::table2_baseline()
        .with_strategy(MetadataStrategyKind::Attache)
        .with_instructions(12_000, 0)
        .with_engine(engine)
        .with_mirror(true)
        .with_trace_ring(Some(64));
    cfg.llc.size_bytes = 128 << 10;
    cfg.cid_bits = 6;
    cfg
}

/// Reads the per-class fault counters back out of the exported metrics.
fn fault_counters(reg: &attache_metrics::Registry, class: FaultClass) -> [u64; 4] {
    [
        reg.counter(&format!("faults.{class}.injected")),
        reg.counter(&format!("faults.{class}.detected")),
        reg.counter(&format!("faults.{class}.absorbed")),
        reg.counter(&format!("faults.{class}.undetected")),
    ]
}

#[test]
fn fault_schedule_is_engine_invariant() {
    // The acceptance bar for the layer: a fixed ATTACHE_FAULTS-style
    // plan yields bit-identical reports AND identical per-class
    // injection/detection accounting under both engines. The event
    // engine may only skip time the injector provably does not need
    // (its next_fault_tick horizon clamp) — any divergence here means
    // it skipped over an injection.
    let plan = FaultPlan::new(0xC0FFEE);
    let mut results = Vec::new();
    for engine in ENGINES {
        let cfg = chaos_config(engine).with_faults(Some(plan.clone()));
        let (report, obs) = System::run_rate_mode_observed(&cfg, chaos_profile(), 11);
        let reg = obs.expect("trace ring arms the observer").registry;
        let counters: Vec<_> = FaultClass::ALL
            .into_iter()
            .map(|c| (c, fault_counters(&reg, c)))
            .collect();
        results.push((report, counters));
    }
    assert_eq!(
        results[0].0, results[1].0,
        "cycle and event engines diverged under fault injection"
    );
    assert_eq!(
        results[0].1, results[1].1,
        "per-class fault accounting diverged across engines"
    );
    let total_injected: u64 = results[0].1.iter().map(|(_, c)| c[0]).sum();
    assert!(
        total_injected > 0,
        "the chaos run must actually inject faults"
    );
}

#[test]
fn oracle_catches_every_surfaced_fault() {
    // With the mirror oracle on, a corrupted line that reaches a decoded
    // read is detected and healed — across ALL fault classes at once.
    // Zero `undetected` is the whole point of the harness: it proves the
    // oracle's coverage of the recovery paths, not just that injection
    // happened.
    let plan = FaultPlan::new(0xDECAF);
    let cfg = chaos_config(EngineKind::Event).with_faults(Some(plan));
    let (report, obs) = System::run_rate_mode_observed(&cfg, chaos_profile(), 29);
    assert!(report.bus_cycles > 0);
    let reg = obs.expect("trace ring arms the observer").registry;
    let mut injected = 0;
    let mut resolved = 0;
    for class in FaultClass::ALL {
        let [inj, det, abs, undet] = fault_counters(&reg, class);
        assert_eq!(undet, 0, "{class}: a surfaced fault escaped the oracle");
        assert!(
            det + abs <= inj,
            "{class}: resolved more faults than were injected"
        );
        injected += inj;
        resolved += det + abs;
    }
    assert!(injected > 0, "the chaos run must inject faults");
    assert!(resolved > 0, "some faults must be detected or absorbed");
}

/// Half-compressible chaos traffic for the Cram runs: marker-led
/// compressed lines (targets for `key_swap` and compressed `line_flip`)
/// and verbatim lines (targets for `cid_forge`'s marker forgery) both
/// exist in the footprint.
fn cram_chaos_profile() -> Profile {
    Profile {
        name: "cram-fault-chaos",
        suite: Suite::Synthetic,
        category: Category::Compressible,
        data: DataProfile::clustered(0.5),
        pattern: AccessPattern::Random,
        footprint_lines: 8192,
        instructions_per_access: 5.0,
        write_fraction: 0.45,
        mlp_limit: None,
    }
}

#[test]
fn cram_marker_faults_are_detected_or_absorbed() {
    // The Cram analogue of the chaos run. The metadata-bearing state is
    // the in-line marker word, so the injector's classes map onto it:
    // `line_flip` corrupts a stored body bit, `cid_forge` forges the
    // marker onto a verbatim line (the read path must degrade through
    // the fault-tolerant decode chain — garbage caught by the mirror,
    // never a panic), and `key_swap` stales exactly the scrambled
    // compressed lines. `mc_invalidate` has no Metadata-Cache to hit
    // and must be skipped, and nothing may go undetected.
    let plan = FaultPlan::new(0xC7A3);
    for engine in ENGINES {
        let cfg = chaos_config(engine)
            .with_strategy(MetadataStrategyKind::Cram)
            .with_faults(Some(plan.clone()));
        let (report, obs) = System::run_rate_mode_observed(&cfg, cram_chaos_profile(), 31);
        assert!(report.bus_cycles > 0);
        let cram = report.cram.expect("cram runs report marker stats");
        assert!(cram.reads > 0 && cram.compressed_reads > 0, "{engine:?}");
        let reg = obs.expect("trace ring arms the observer").registry;
        let mut detected = 0;
        let mut absorbed = 0;
        for class in FaultClass::ALL {
            let [inj, det, abs, undet] = fault_counters(&reg, class);
            assert_eq!(undet, 0, "{engine:?} {class}: a fault escaped the oracle");
            assert!(det + abs <= inj, "{engine:?} {class}: over-resolved");
            detected += det;
            absorbed += abs;
        }
        for class in [
            FaultClass::LineFlip,
            FaultClass::CidForge,
            FaultClass::KeySwap,
        ] {
            let [inj, ..] = fault_counters(&reg, class);
            assert!(inj > 0, "{engine:?} {class}: must fire under Cram");
        }
        let [mc_inj, ..] = fault_counters(&reg, FaultClass::McInvalidate);
        assert_eq!(
            mc_inj, 0,
            "{engine:?}: no Metadata-Cache exists to invalidate"
        );
        assert!(
            detected > 0,
            "{engine:?}: marker corruption must surface to the oracle"
        );
        assert!(
            absorbed > 0,
            "{engine:?}: rewrites must absorb some corruption"
        );
    }
}

#[test]
fn cram_fault_schedule_is_engine_invariant() {
    // The engine-invariance contract extended to the Cram injection
    // paths: identical reports and per-class accounting across engines.
    let plan = FaultPlan::new(0xC7A4);
    let mut results = Vec::new();
    for engine in ENGINES {
        let cfg = chaos_config(engine)
            .with_strategy(MetadataStrategyKind::Cram)
            .with_faults(Some(plan.clone()));
        let (report, obs) = System::run_rate_mode_observed(&cfg, cram_chaos_profile(), 13);
        let reg = obs.expect("trace ring arms the observer").registry;
        let counters: Vec<_> = FaultClass::ALL
            .into_iter()
            .map(|c| (c, fault_counters(&reg, c)))
            .collect();
        results.push((report, counters));
    }
    assert_eq!(
        results[0].0, results[1].0,
        "engines diverged under Cram fault injection"
    );
    assert_eq!(
        results[0].1, results[1].1,
        "per-class Cram fault accounting diverged across engines"
    );
    let total: u64 = results[0].1.iter().map(|(_, c)| c[0]).sum();
    assert!(total > 0, "the Cram chaos run must actually inject faults");
}

#[test]
fn faults_off_is_pure() {
    // Purity, both directions. (1) `with_faults(None)` is byte-identical
    // to a config that never mentioned faults — no machinery is
    // constructed, so the goldens cannot move. (2) No `faults.*` keys
    // leak into the exported metrics when injection is off.
    let cfg = chaos_config(EngineKind::Event);
    let (base, obs_off) = System::run_rate_mode_observed(&cfg, chaos_profile(), 7);
    let (off, _) =
        System::run_rate_mode_observed(&cfg.clone().with_faults(None), chaos_profile(), 7);
    assert_eq!(base, off, "with_faults(None) must be a no-op");
    let reg = obs_off.expect("trace ring arms the observer").registry;
    assert!(
        reg.counters().all(|(k, _)| !k.starts_with("faults.")),
        "faults-off runs must not export fault metrics"
    );

    // And faults ON must actually perturb the run — otherwise the two
    // assertions above would pass vacuously.
    let on_cfg = cfg.with_faults(Some(FaultPlan::new(1)));
    let (on, _) = System::run_rate_mode_observed(&on_cfg, chaos_profile(), 7);
    assert_ne!(
        base, on,
        "fault injection must perturb the run it is armed on"
    );
}

#[test]
fn fault_schedule_is_engine_invariant_for_every_class() {
    // The per-class form of the engine contract: the period is
    // tightened and the check runs under BOTH metadata-bearing
    // strategies (`mc_invalidate` needs the Metadata-Cache strategy's
    // structure; the BLEM/RA/key classes need Attaché's) so that, across
    // the union, all seven classes actually fire — the per-class
    // accounting check would be vacuous for a class that never injected.
    let plan = FaultPlan {
        seed: 0xC0FFEE,
        period: 200,
        classes: FaultClass::ALL.to_vec(),
        max: None,
    };
    let mut injected = [0u64; 7];
    for strategy in [
        MetadataStrategyKind::Attache,
        MetadataStrategyKind::MetadataCache,
    ] {
        let mut results = Vec::new();
        for engine in ENGINES {
            let cfg = chaos_config(engine)
                .with_strategy(strategy)
                .with_instructions(8_000, 0)
                .with_faults(Some(plan.clone()));
            let (report, obs) = System::run_rate_mode_observed(&cfg, chaos_profile(), 11);
            let reg = obs.expect("trace ring arms the observer").registry;
            let counters: Vec<_> = FaultClass::ALL
                .into_iter()
                .map(|c| (c, fault_counters(&reg, c)))
                .collect();
            results.push((report, counters));
        }
        assert_eq!(
            results[0].0, results[1].0,
            "{strategy}: chaos run diverged across engines"
        );
        assert_eq!(
            results[0].1, results[1].1,
            "{strategy}: per-class fault accounting diverged across engines"
        );
        for (i, (_, c)) in results[0].1.iter().enumerate() {
            injected[i] += c[0];
        }
    }
    for (i, class) in FaultClass::ALL.into_iter().enumerate() {
        assert!(injected[i] > 0, "{class} never injected");
    }
}

#[test]
fn pinned_key_swap_at_horizon_edges_is_attributed_identically() {
    // The pinned key-swap schedule (tests/corpus/key-swap-horizon.case),
    // replayed once per engine for the accounting contract: a scrambler
    // key swap that lands at an event-engine horizon edge must be applied
    // at the same executed tick as on the cycle engine, and every
    // detection the oracle makes must land in the same per-class
    // counters — attributed to key_swap and nothing else.
    let case = CorpusCase::load("key-swap-horizon");
    let key_swap_bit = FaultClass::ALL
        .iter()
        .position(|c| *c == FaultClass::KeySwap)
        .expect("key_swap is a fault class");
    assert_eq!(
        case.require("classes"),
        1 << key_swap_bit,
        "the pinned schedule is key swaps only"
    );
    let plan = FaultPlan {
        seed: case.require("plan-seed"),
        period: case.require("period"),
        classes: vec![FaultClass::KeySwap],
        max: None,
    };
    let mut results = Vec::new();
    for engine in ENGINES {
        let mut cfg = chaos_config(engine)
            .with_faults(Some(plan.clone()))
            .with_epoch(Some(case.require("epoch")));
        cfg.cid_bits = 6;
        let (report, obs) =
            System::run_rate_mode_observed(&cfg, chaos_profile(), case.require("run-seed"));
        let reg = obs.expect("trace ring arms the observer").registry;
        results.push((report, fault_counters(&reg, FaultClass::KeySwap), {
            let mut others = Vec::new();
            for class in FaultClass::ALL {
                if class != FaultClass::KeySwap {
                    others.push(fault_counters(&reg, class));
                }
            }
            others
        }));
    }
    assert_eq!(
        results[0].0, results[1].0,
        "key-swap run diverged across engines"
    );
    assert_eq!(
        results[0].1, results[1].1,
        "key_swap accounting diverged across engines"
    );
    let [inj, _, _, undet] = results[1].1;
    assert!(inj > 0, "the pinned schedule must inject key swaps");
    assert_eq!(undet, 0, "no key swap may escape the oracle");
    for others in [&results[0].2, &results[1].2] {
        assert!(
            others.iter().all(|c| *c == [0u64; 4]),
            "only key_swap was scheduled, but another class has activity"
        );
    }
}

#[test]
fn ra_corruption_is_detected_and_attributed() {
    // The pinned Replacement-Area scenario: only `ra_corrupt` faults are
    // scheduled, so every detection MUST be attributed to that class —
    // this pins both the recovery path (collided read → RA fetch →
    // mirror check) and the attribution bookkeeping (a detection is
    // charged to the class that caused it, not to a bucket).
    let case = CorpusCase::load("fault-ra-corrupt");
    let plan = FaultPlan {
        seed: case.require("seed"),
        period: case.require("period"),
        classes: vec![FaultClass::RaCorrupt],
        max: None,
    };
    for engine in ENGINES {
        let mut cfg = chaos_config(engine)
            .with_instructions(case.require("instructions"), 0)
            .with_faults(Some(plan.clone()));
        cfg.cid_bits = case.require("cid-bits") as u8;
        let (report, obs) = System::run_rate_mode_observed(&cfg, chaos_profile(), 23);
        let ra = report.ra.expect("attache reports ra stats");
        assert!(
            ra.reads > 0,
            "{engine:?}: the scenario must exercise RA reads"
        );
        let reg = obs.expect("trace ring arms the observer").registry;
        let [inj, det, _, undet] = fault_counters(&reg, FaultClass::RaCorrupt);
        assert!(
            inj > 0,
            "{engine:?}: the pinned schedule must inject RA faults"
        );
        assert!(
            det > 0,
            "{engine:?}: a corrupted displaced bit must surface on a collided \
             read and be caught by the oracle"
        );
        assert_eq!(
            undet, 0,
            "{engine:?}: no RA corruption may escape the oracle"
        );
        for class in FaultClass::ALL {
            if class != FaultClass::RaCorrupt {
                let c = fault_counters(&reg, class);
                assert_eq!(
                    c, [0; 4],
                    "{engine:?}: {class} was never scheduled but has activity"
                );
            }
        }
    }
}

#[test]
fn accounting_invariant_holds_for_every_strategy_and_engine() {
    // The property-test form of the invariant that the injector also
    // debug-asserts at every counter mutation (see
    // `FaultStats::accounting_violation`): every outcome was once an
    // injection, so per class `injected >= detected + absorbed +
    // undetected` — with `skipped` outside the inequality, because a
    // skipped event never applied a perturbation. Plans are drawn from a
    // seeded generator and the runs cover all five strategies under both
    // engines; the runs themselves also execute the debug assertions at
    // each mutation site.
    let mut gen = attache_testkit::Gen::new(0xACC0);
    for strategy in MetadataStrategyKind::ALL {
        for engine in ENGINES {
            let plan = FaultPlan {
                seed: gen.next_u64(),
                period: 100 + gen.below(1_900),
                classes: FaultClass::ALL.to_vec(),
                max: None,
            };
            let cfg = chaos_config(engine)
                .with_strategy(strategy)
                .with_instructions(8_000, 0)
                .with_faults(Some(plan));
            let profile = if strategy == MetadataStrategyKind::Cram {
                cram_chaos_profile()
            } else {
                chaos_profile()
            };
            let (_, obs) = System::run_rate_mode_observed(&cfg, profile, gen.next_u64());
            let reg = obs.expect("trace ring arms the observer").registry;
            for class in FaultClass::ALL {
                let [inj, det, abs, undet] = fault_counters(&reg, class);
                assert!(
                    inj >= det + abs + undet,
                    "{strategy} {engine:?} {class}: accounting violated \
                     (injected {inj} < detected {det} + absorbed {abs} + undetected {undet})"
                );
            }
        }
    }
}
