//! Observer-purity and failure-context tests for the observability
//! layer.
//!
//! Two claims from the metrics PR are locked in here:
//!
//! 1. **Purity** — turning every observability knob on (epoch sampling
//!    plus the event-trace ring) leaves the `RunReport` bit-identical on
//!    both engines. The observer reads model state; it never steers it.
//! 2. **Failure context** — when a failure detector fires (here: the
//!    mirror oracle, force-fed a corrupted shadow copy via the
//!    test-only `with_mirror_poison` hook), the panic message carries a
//!    non-empty dump of the trace ring, so the last decoded sim/DRAM
//!    events are available exactly when a run dies.
//! 3. **Watchdog** — a run past its tick budget stops with a typed
//!    `TickBudgetExceeded` payload on either engine, so a caller can tell
//!    a runaway run from a crash.
//!
//! The forced-mismatch inputs are pinned in
//! `tests/corpus/trace-ring-dump.case`.

use attache_sim::{EngineKind, MetadataStrategyKind, SimConfig, System, TickBudgetExceeded};
use attache_testkit::{CorpusCase, Gen};
use attache_workloads::{AccessPattern, Category, DataProfile, Profile, Suite};
use std::panic::{catch_unwind, AssertUnwindSafe};

const ENGINES: [EngineKind; 2] = [EngineKind::Cycle, EngineKind::Event];

/// Reuse-heavy randomized profile (same shape as the mirror suite's):
/// evictions and re-reads are what give the observer — and the poisoned
/// oracle — traffic to see.
fn random_profile(g: &mut Gen) -> Profile {
    Profile {
        name: "observability",
        suite: Suite::Synthetic,
        category: Category::Compressible,
        data: DataProfile::clustered(0.4 + 0.4 * g.unit()),
        pattern: AccessPattern::Random,
        footprint_lines: 8192,
        instructions_per_access: 5.0 + 4.0 * g.unit(),
        write_fraction: 0.3 + 0.2 * g.unit(),
        mlp_limit: None,
    }
}

fn quick(strategy: MetadataStrategyKind, engine: EngineKind) -> SimConfig {
    let mut cfg = SimConfig::table2_baseline()
        .with_strategy(strategy)
        .with_instructions(3_000, 300)
        .with_engine(engine)
        .with_epoch(None)
        .with_trace_ring(None);
    cfg.llc.size_bytes = 128 << 10;
    cfg
}

#[test]
fn observability_knobs_do_not_perturb_the_run_report() {
    let mut g = Gen::new(0x0b5e_c0de);
    let profile = random_profile(&mut g);
    for strategy in MetadataStrategyKind::ALL {
        for engine in ENGINES {
            let off = quick(strategy, engine);
            let on = off
                .clone()
                .with_epoch(Some(5_000))
                .with_trace_ring(Some(128));
            let plain = System::run_rate_mode(&off, profile.clone(), 77);
            let (observed, obs) = System::run_rate_mode_observed(&on, profile.clone(), 77);
            assert_eq!(
                plain, observed,
                "{strategy} {engine:?}: observability knobs perturbed the report"
            );
            // And the observation must not be vacuously empty.
            let obs = obs.expect("knobs on implies an observation");
            assert!(
                obs.registry.counter("sim.bus_cycles") > 0,
                "{strategy} {engine:?}: observation recorded no bus cycles"
            );
        }
    }
}

#[test]
fn epoch_series_deltas_telescope_to_the_registry_totals() {
    // End-to-end version of the metrics-crate property: per-epoch
    // counter deltas from a real run sum to the final cumulative value.
    let mut g = Gen::new(0x0b5e_5e21);
    let profile = random_profile(&mut g);
    for engine in ENGINES {
        let cfg = quick(MetadataStrategyKind::Attache, engine).with_epoch(Some(8_000));
        let (_, obs) = System::run_rate_mode_observed(&cfg, profile.clone(), 31);
        let obs = obs.expect("epoch knob is on");
        let series = obs.series.expect("epoch sampling produces a series");
        assert!(
            series.len() >= 2,
            "{engine:?}: run too short to cross an epoch"
        );
        let deltas = series.counter_deltas();
        for (key, total) in obs.registry.counters() {
            let recovered: u64 = deltas
                .iter()
                .map(|(_, d)| d.get(key).copied().unwrap_or(0))
                .sum();
            assert_eq!(
                recovered, total,
                "{engine:?}: deltas for {key} must telescope"
            );
        }
    }
}

#[test]
fn forced_mirror_mismatch_dumps_the_trace_ring() {
    let case = CorpusCase::load("trace-ring-dump");
    let mut g = Gen::new(case.require("seed"));
    let profile = random_profile(&mut g);
    for engine in ENGINES {
        let cfg = quick(MetadataStrategyKind::Attache, engine)
            .with_instructions(case.require("instructions"), 0)
            .with_mirror(true)
            .with_mirror_poison(true)
            .with_trace_ring(Some(case.require("ring") as usize));
        // Silence the default panic printout — this panic is the
        // expected outcome, not test noise.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = catch_unwind(AssertUnwindSafe(|| {
            System::run_rate_mode(&cfg, profile.clone(), case.require("seed"))
        }));
        std::panic::set_hook(prev_hook);

        let payload = result.expect_err(
            "a poisoned mirror must fail the first checked re-read; \
             if this run survived, the oracle verified nothing",
        );
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a string");
        assert!(
            msg.contains("trace ring: last"),
            "{engine:?}: mirror panic must carry a trace-ring dump, got:\n{msg}"
        );
        assert!(
            msg.contains("submit id=") || msg.contains("complete id="),
            "{engine:?}: the ring dump must contain decoded sim events, got:\n{msg}"
        );
    }
}

#[test]
fn tick_budget_watchdog_panics_with_a_typed_payload() {
    const BUDGET: u64 = 500;
    let mut g = Gen::new(0x7a7c_b0d6);
    let profile = random_profile(&mut g);
    for engine in ENGINES {
        let cfg = quick(MetadataStrategyKind::Attache, engine).with_tick_budget(Some(BUDGET));
        let payload = catch_unwind(AssertUnwindSafe(|| {
            System::run_rate_mode(&cfg, profile.clone(), 5)
        }))
        .expect_err("a 3K-instruction run must outlast a 500-cycle budget");
        let t = payload
            .downcast_ref::<TickBudgetExceeded>()
            .expect("the watchdog's payload is a TickBudgetExceeded");
        assert_eq!(t.budget, BUDGET, "{engine:?}");
        assert!(
            t.now > BUDGET,
            "{engine:?}: fired at {} before the budget ran out",
            t.now
        );
    }
}
