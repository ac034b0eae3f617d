//! Differential tests: the event engine must produce **bit-identical**
//! `RunReport`s to the per-cycle reference engine — same cycle counts, same
//! per-origin request counters, same energy breakdown to the last f64 bit.
//!
//! This is the contract that lets every figure binary default to the event
//! engine: it is purely a wall-clock optimization, never a model change.

use attache_sim::{
    BackendKind, EngineKind, FaultClass, FaultPlan, MetadataStrategyKind, SimConfig, System,
};
use attache_workloads::{mixes, AccessPattern, Category, DataProfile, Profile, Suite};

const STRATEGIES: [MetadataStrategyKind; MetadataStrategyKind::ALL.len()] =
    MetadataStrategyKind::ALL;

fn quick(strategy: MetadataStrategyKind) -> SimConfig {
    SimConfig::table2_baseline()
        .with_strategy(strategy)
        .with_instructions(6_000, 1_000)
}

/// Runs `profile` under both engines and asserts full `RunReport` equality
/// (the report derives `PartialEq` over every counter and f64).
fn assert_engines_agree(strategy: MetadataStrategyKind, profile: Profile, seed: u64) {
    let mut cfg = quick(strategy);
    cfg.engine = EngineKind::Cycle;
    let cycle = System::run_rate_mode(&cfg, profile.clone(), seed);
    cfg.engine = EngineKind::Event;
    let event = System::run_rate_mode(&cfg, profile.clone(), seed);
    assert_eq!(
        cycle, event,
        "engines disagree for {strategy} on {}",
        profile.name
    );
    // f64 `==` admits -0.0 == 0.0; pin the energy to exact bit patterns.
    assert_eq!(
        cycle.energy.total_pj().to_bits(),
        event.energy.total_pj().to_bits(),
        "energy bits disagree for {strategy} on {}",
        profile.name
    );
    assert_eq!(
        cycle.energy.background_pj.to_bits(),
        event.energy.background_pj.to_bits(),
        "background energy bits disagree for {strategy} on {}",
        profile.name
    );
}

#[test]
fn engines_agree_on_stream_all_strategies() {
    for s in STRATEGIES {
        assert_engines_agree(s, Profile::stream(), 7);
    }
}

#[test]
fn engines_agree_on_rand_all_strategies() {
    for s in STRATEGIES {
        assert_engines_agree(s, Profile::rand(), 11);
    }
}

#[test]
fn engines_agree_on_graph_all_strategies() {
    let p = Profile::by_name("bc.kron").expect("catalog profile");
    for s in STRATEGIES {
        assert_engines_agree(s, p.clone(), 13);
    }
}

#[test]
fn engines_agree_on_pointer_chase() {
    let p = Profile::by_name("mcf").expect("catalog profile");
    assert_engines_agree(MetadataStrategyKind::Attache, p, 17);
}

#[test]
fn engines_agree_on_serialized_chase_all_strategies() {
    // CHASE spends most cycles with every subsystem quiescent — the
    // deepest-skip regime, where an overestimated horizon would be
    // most visible.
    for s in STRATEGIES {
        assert_engines_agree(s, Profile::chase(), 19);
    }
}

#[test]
fn event_engine_stops_on_the_target_tick() {
    // Regression: the event loop must not skip ahead after the tick that
    // reaches the retirement target. With a long warm-up the boundary tick
    // is often followed by a quiescent span; overshooting it shifts the
    // measured window and the final bus-cycle count by the skipped span.
    let mut cfg = SimConfig::table2_baseline()
        .with_strategy(MetadataStrategyKind::Baseline)
        .with_instructions(6_000, 8_000);
    cfg.engine = EngineKind::Cycle;
    let cycle = System::run_rate_mode(&cfg, Profile::chase(), 42);
    cfg.engine = EngineKind::Event;
    let event = System::run_rate_mode(&cfg, Profile::chase(), 42);
    assert_eq!(cycle, event, "engines disagree across a deep warm-up");
}

#[test]
fn engines_agree_on_the_fast_backend_all_strategies() {
    // The tentpole's engine contract extends to every MemoryBackend:
    // the fast queueing model's next_event/mutation_gen/derate bounds
    // must be exact, or the event engine would skip a retirement or a
    // retry-flush cycle the reference engine runs. Bit-identity here is
    // what makes `ATTACHE_BACKEND=fast` composable with the default
    // event engine on sweeps.
    for s in STRATEGIES {
        let mut cfg = quick(s).with_backend(BackendKind::Fast);
        cfg.engine = EngineKind::Cycle;
        let cycle = System::run_rate_mode(&cfg, Profile::rand(), 23);
        cfg.engine = EngineKind::Event;
        let event = System::run_rate_mode(&cfg, Profile::rand(), 23);
        assert_eq!(cycle, event, "engines disagree on the fast backend for {s}");
        assert_eq!(
            cycle.energy.total_pj().to_bits(),
            event.energy.total_pj().to_bits(),
            "fast-backend energy bits disagree for {s}"
        );
    }
}

#[test]
fn engines_agree_under_a_deep_retry_backlog_with_derate_windows() {
    // A 4-entry read queue keeps hundreds of requests in the retry queue,
    // so nearly every retry pass runs against a full channel, and
    // read-derate windows set and lift the cap mid-run. The event engine
    // skips each retry whose channel's acceptance generation has not
    // moved since its rejection; a missed bump (a CAS, a new write-queue
    // line, a derate set or expiry) would accept some retry later than
    // the per-cycle engine, which re-offers every retry every cycle.
    let mut plan = FaultPlan::new(0xDE7_A7E5);
    plan.classes = vec![FaultClass::BusDerate];
    plan.period = 1_500;
    for backend in [BackendKind::Cycle, BackendKind::Fast] {
        for s in STRATEGIES {
            let mut cfg = quick(s)
                .with_backend(backend)
                .with_faults(Some(plan.clone()));
            cfg.dram.read_queue_capacity = 4;
            cfg.engine = EngineKind::Cycle;
            let cycle = System::run_rate_mode(&cfg, Profile::rand(), 41);
            cfg.engine = EngineKind::Event;
            let event = System::run_rate_mode(&cfg, Profile::rand(), 41);
            assert_eq!(
                cycle, event,
                "engines disagree for {s} on the {backend} backend"
            );
            assert_eq!(
                cycle.energy.total_pj().to_bits(),
                event.energy.total_pj().to_bits(),
                "energy bits disagree for {s} on the {backend} backend"
            );
            // Non-vacuity: the derate windows and the shrunken queue both
            // change the run.
            let no_derate =
                System::run_rate_mode(&cfg.clone().with_faults(None), Profile::rand(), 41);
            assert_ne!(
                event, no_derate,
                "derate windows never bit for {s} on {backend}"
            );
            let mut roomy = cfg.clone().with_faults(None);
            roomy.dram.read_queue_capacity = quick(s).dram.read_queue_capacity;
            let roomy = System::run_rate_mode(&roomy, Profile::rand(), 41);
            assert!(
                no_derate.bus_cycles > roomy.bus_cycles,
                "a 4-entry read queue must slow {s} on {backend}"
            );
        }
    }
}

#[test]
fn cycle_backend_behind_the_trait_is_bit_identical() {
    // Tentpole pin: the refactor routed the cycle model through a boxed
    // `MemoryBackend`, and `with_backend(Cycle)` must be
    // indistinguishable from the pre-refactor default — on BOTH engines
    // (the golden-stats suite pins the same property against
    // tests/goldens/ snapshots taken before the refactor).
    for engine in [EngineKind::Cycle, EngineKind::Event] {
        let mut cfg = quick(MetadataStrategyKind::Attache);
        cfg.engine = engine;
        let default_backend = System::run_rate_mode(&cfg, Profile::stream(), 29);
        let explicit = System::run_rate_mode(
            &cfg.clone().with_backend(BackendKind::Cycle),
            Profile::stream(),
            29,
        );
        assert_eq!(default_backend, explicit, "{engine:?}");
    }
}

#[test]
fn engines_agree_on_eight_channels_all_strategies() {
    // The engine contract on the 8-channel geometry: with four times
    // table2's channels, the event engine's horizon is the minimum over
    // many more per-channel bounds, and every one of them must be exact.
    for s in STRATEGIES {
        let mut cfg = quick(s);
        cfg.dram = attache_dram::DramConfig::scale8();
        cfg.engine = EngineKind::Cycle;
        let cycle = System::run_rate_mode(&cfg, Profile::rand(), 37);
        cfg.engine = EngineKind::Event;
        let event = System::run_rate_mode(&cfg, Profile::rand(), 37);
        assert_eq!(cycle, event, "engines disagree on 8 channels for {s}");
        assert_eq!(
            cycle.energy.total_pj().to_bits(),
            event.energy.total_pj().to_bits(),
            "8-channel energy bits disagree for {s}"
        );
    }
}

#[test]
fn event_engine_stops_on_the_target_tick_on_eight_channels() {
    // The deep-warm-up stop-tick regression on the 8-channel geometry:
    // the boundary tick that reaches the retirement target is followed
    // by a quiescent span, and the smallest bound over all eight
    // channels must not let the event engine overshoot it.
    let mut cfg = SimConfig::table2_baseline()
        .with_strategy(MetadataStrategyKind::Baseline)
        .with_instructions(6_000, 8_000);
    cfg.dram = attache_dram::DramConfig::scale8();
    cfg.engine = EngineKind::Cycle;
    let cycle = System::run_rate_mode(&cfg, Profile::chase(), 42);
    cfg.engine = EngineKind::Event;
    let event = System::run_rate_mode(&cfg, Profile::chase(), 42);
    assert_eq!(cycle, event, "engines disagree across an 8-channel deep warm-up");
}

#[test]
fn engines_agree_on_a_mix() {
    let mix = mixes().remove(0);
    let mut cfg = quick(MetadataStrategyKind::Attache).with_instructions(5_000, 1_000);
    cfg.engine = EngineKind::Cycle;
    let cycle = System::run_mix(&cfg, &mix, 3);
    cfg.engine = EngineKind::Event;
    let event = System::run_mix(&cfg, &mix, 3);
    assert_eq!(cycle, event, "engines disagree on mix {}", mix.name);
}

// ---------------------------------------------------------------------------
// Proptest-style randomized profiles: splitmix64-driven generation of
// profile parameters, so the engines are compared on configurations nobody
// hand-picked.
// ---------------------------------------------------------------------------

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform f64 in [0, 1) from the top 53 bits.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

fn random_profile(seed: u64) -> Profile {
    let r0 = splitmix64(seed);
    let r1 = splitmix64(r0);
    let r2 = splitmix64(r1);
    let r3 = splitmix64(r2);
    let pattern = match r0 % 4 {
        0 => AccessPattern::Stream,
        1 => AccessPattern::Random,
        2 => AccessPattern::graph(),
        _ => AccessPattern::PointerChase {
            locality: 0.5 + 0.4 * unit(r1),
        },
    };
    let comp = unit(r2);
    let data = if comp < 0.15 {
        DataProfile::incompressible()
    } else {
        DataProfile::clustered(comp)
    };
    Profile {
        name: "randomized",
        suite: Suite::Synthetic,
        category: Category::Compressible,
        data,
        pattern,
        // 2-32 MiB footprints, 6-18 instructions per access.
        footprint_lines: (2 << (r3 % 5)) * (1 << 20) / 64,
        instructions_per_access: 6.0 + 12.0 * unit(splitmix64(r3)),
        write_fraction: 0.1 + 0.3 * unit(splitmix64(r3 ^ 1)),
        // Every third case throttles MLP (1-4 outstanding misses), so the
        // serialized-core wake paths get differential coverage too.
        mlp_limit: match splitmix64(r3 ^ 2) % 3 {
            0 => Some(1 + (splitmix64(r3 ^ 3) % 4) as usize),
            _ => None,
        },
    }
}

#[test]
fn engines_agree_on_randomized_profiles() {
    for case in 0..4u64 {
        let profile = random_profile(0xA77A_C4E0 ^ case);
        let strategy = STRATEGIES[(splitmix64(case) % STRATEGIES.len() as u64) as usize];
        assert_engines_agree(strategy, profile, 100 + case);
    }
}
