//! End-to-end data-integrity suite: device-level soft errors, the
//! (72,64) SEC-DED ECC pipeline, poison propagation, and graceful
//! strategy recovery.
//!
//! The layering contract under test (see `crates/sim/src/integrity.rs`):
//! soft errors corrupt the *stored cells* below the ECC layer; ECC
//! corrects single-bit upsets and detects doubles on every read; a
//! detected-uncorrectable read returns a poisoned line that each
//! strategy recovers from (or, for Baseline, surfaces as an accounted
//! machine-check outcome) — never a panic, and never silently-consumed
//! poison (the mirror oracle stays attached throughout and would abort
//! the run on any delivered corruption). With every knob off the engine
//! is never constructed and reports are bit-identical to a build that
//! never heard of integrity.

use attache_sim::{EngineKind, MetadataStrategyKind, SimConfig, System};
use attache_workloads::{AccessPattern, Category, DataProfile, Profile, Suite};

const ENGINES: [EngineKind; 2] = [EngineKind::Cycle, EngineKind::Event];

/// Reuse- and write-heavy half-compressible traffic over a shrunken
/// LLC: every strategy sees compressed and verbatim lines, dirty
/// evictions rewrite cells (clearing latched flips), and re-reads give
/// the ECC pipeline corrupted images to chew on.
fn soak_profile() -> Profile {
    Profile {
        name: "integrity-soak",
        suite: Suite::Synthetic,
        category: Category::Compressible,
        data: DataProfile::clustered(0.5),
        pattern: AccessPattern::Random,
        footprint_lines: 8192,
        instructions_per_access: 5.0,
        write_fraction: 0.4,
        mlp_limit: None,
    }
}

fn soak_config(engine: EngineKind) -> SimConfig {
    let mut cfg = SimConfig::table2_baseline()
        .with_instructions(12_000, 0)
        .with_engine(engine)
        .with_mirror(true);
    cfg.llc.size_bytes = 128 << 10;
    cfg
}

#[test]
fn ecc_corrects_and_recovers_for_every_strategy() {
    // The acceptance bar: with ECC on and a correctable-dominated error
    // rate, runs complete for all five strategies (no poisoned read ever
    // panics), single-bit upsets are corrected in-flight, and every
    // detected-uncorrectable read is either recovered through the
    // strategy's redundancy or accounted as Baseline data loss —
    // `uncorrectable == recovered + data_loss` closes the books.
    let mut total_uncorrectable = 0;
    for strategy in MetadataStrategyKind::ALL {
        let cfg = soak_config(EngineKind::Event)
            .with_strategy(strategy)
            .with_ber(Some(40_000))
            .with_ecc(true);
        let report = System::run_rate_mode(&cfg, soak_profile(), 7);
        let i = report.integrity.expect("armed runs report integrity stats");
        assert!(i.reads_checked > 0, "{strategy}: ECC never saw a read");
        assert!(
            i.injected_flips > 0,
            "{strategy}: the error process never fired"
        );
        assert!(
            i.total_corrected() > 0,
            "{strategy}: no single-bit upset corrected"
        );
        assert_eq!(
            i.total_uncorrectable(),
            i.recovered + i.data_loss,
            "{strategy}: an uncorrectable read went neither recovered nor accounted"
        );
        if strategy == MetadataStrategyKind::Baseline {
            assert_eq!(i.recovered, 0, "Baseline has no redundancy to recover from");
            assert_eq!(
                i.sdc_averted, i.data_loss,
                "detection averts exactly the losses"
            );
        } else {
            assert_eq!(i.data_loss, 0, "{strategy}: recovery must avert data loss");
        }
        assert_eq!(
            i.silent_corruption_reads, 0,
            "{strategy}: ECC-on runs must never deliver silent corruption"
        );
        assert!(
            i.ecc_check_bytes > 0,
            "{strategy}: the check-bit tax must be charged"
        );
        total_uncorrectable += i.total_uncorrectable();
    }
    assert!(
        total_uncorrectable > 0,
        "the soak rate must produce at least one uncorrectable read somewhere"
    );
}

#[test]
fn integrity_off_is_pure() {
    // Purity, both directions, for the golden-compatibility contract:
    // explicitly disarming every knob is byte-identical to a config
    // that never mentioned integrity (no engine is constructed), the
    // report carries no integrity section, and its serialization emits
    // not a single new key — across both engines.
    for engine in ENGINES {
        let base = soak_config(engine).with_strategy(MetadataStrategyKind::Attache);
        let off = base.clone().with_ber(None).with_ecc(false).with_scrub(None);
        let a = System::run_rate_mode(&base, soak_profile(), 5);
        let b = System::run_rate_mode(&off, soak_profile(), 5);
        assert_eq!(a, b, "{engine:?}: disarmed knobs must be a no-op");
        assert!(a.integrity.is_none(), "no engine may exist with knobs off");
        let text = attache_sim::report_io::to_text(&a, "k");
        assert!(
            !text.contains("integrity.") && !text.contains("scrub_reads"),
            "{engine:?}: integrity-off reports must serialize without new keys"
        );
    }

    // And an armed run must actually differ — otherwise the purity
    // assertions above would pass vacuously.
    let base = soak_config(EngineKind::Event).with_strategy(MetadataStrategyKind::Attache);
    let off = System::run_rate_mode(&base, soak_profile(), 5);
    let on = System::run_rate_mode(
        &base.clone().with_ber(Some(40_000)).with_ecc(true),
        soak_profile(),
        5,
    );
    assert_ne!(off, on, "an armed integrity engine must perturb the run");
}

#[test]
fn armed_runs_are_engine_invariant() {
    // Bit-identity with every integrity knob armed at once (errors +
    // ECC + scrub): the event engine's horizon clamps (scrub next_tick
    // included) must reproduce the cycle engine's reads in the same
    // global order, because the soft-error process keys flips off the
    // global touch ordinal — one swapped read would cascade into
    // different flips everywhere.
    for strategy in [MetadataStrategyKind::Attache, MetadataStrategyKind::Cram] {
        let mut reports = Vec::new();
        for engine in ENGINES {
            let cfg = soak_config(engine)
                .with_strategy(strategy)
                .with_ber(Some(40_000))
                .with_ecc(true)
                .with_scrub(Some(400));
            reports.push(System::run_rate_mode(&cfg, soak_profile(), 9));
        }
        assert_eq!(
            reports[0], reports[1],
            "{strategy}: engines diverged under armed integrity knobs"
        );
        let i = reports[0].integrity.expect("armed");
        assert!(
            i.injected_flips > 0,
            "{strategy}: the invariance check must not be vacuous"
        );
    }
}

#[test]
fn ecc_off_measures_silent_corruption() {
    // Measurement mode: soft errors without ECC. Nothing detects or
    // corrects, so every data-bit flip surfaced by a read is counted as
    // silent corruption with its amplification (a flipped bit inside a
    // compressed line poisons the whole decoded 64-byte block), while
    // the delivered data stays clean in-model — the mirror must stay
    // green, because this is bookkeeping about what real hardware
    // *would* have delivered.
    let cfg = soak_config(EngineKind::Event)
        .with_strategy(MetadataStrategyKind::Attache)
        .with_ber(Some(40_000));
    let report = System::run_rate_mode(&cfg, soak_profile(), 11);
    let i = report.integrity.expect("armed");
    assert!(
        i.silent_corruption_reads > 0,
        "unprotected flips must surface"
    );
    assert!(i.corrupted_bytes_delivered > 0);
    assert!(
        i.amplification() >= 1.0,
        "each surfaced flip corrupts at least one delivered byte, got {}",
        i.amplification()
    );
    assert_eq!(i.total_corrected(), 0, "nothing corrects without ECC");
    assert_eq!(i.total_uncorrectable(), 0, "nothing detects without ECC");
    assert_eq!(i.ecc_check_bytes, 0, "no check storage without ECC");
}

#[test]
fn scrub_walks_lines_and_repairs_latched_flips() {
    // The background scrub engine: walks the occupied footprint on its
    // period, charges an `Origin::Scrub` read per check (visible in the
    // channel stats and in total_reads), skips busy intervals, and
    // repairs latched single-bit flips before a second upset can pair
    // them into an uncorrectable double.
    let armed = soak_config(EngineKind::Event)
        .with_strategy(MetadataStrategyKind::Attache)
        .with_ber(Some(40_000))
        .with_ecc(true)
        .with_scrub(Some(200));
    let report = System::run_rate_mode(&armed, soak_profile(), 13);
    let i = report.integrity.expect("armed");
    assert!(i.scrub_checks > 0, "the scrub clock must fire");
    assert!(
        report.mem.scrub_reads > 0,
        "scrub reads must be charged to DRAM"
    );
    assert_eq!(
        report.mem.scrub_reads, i.scrub_checks,
        "every functional scrub check pairs with exactly one charged read"
    );
    assert!(
        i.scrub_corrected + i.scrub_uncorrectable <= i.scrub_checks,
        "scrub outcomes cannot exceed checks"
    );
    assert!(
        i.scrub_corrected > 0,
        "the soak rate must latch flips for scrub to repair"
    );

    // Scrubbing must reduce uncorrectable reads relative to the same
    // run without it (fewer latched singles left to pair into doubles).
    let unscrubbed_cfg = armed.clone().with_scrub(None);
    let unscrubbed = System::run_rate_mode(&unscrubbed_cfg, soak_profile(), 13)
        .integrity
        .expect("armed");
    assert!(
        i.total_uncorrectable() <= unscrubbed.total_uncorrectable(),
        "scrubbing must not increase uncorrectable reads \
         (scrubbed {} vs unscrubbed {})",
        i.total_uncorrectable(),
        unscrubbed.total_uncorrectable()
    );
}

#[test]
fn ecc_alone_taxes_bandwidth_and_latency() {
    // ECC with a zero error rate is still not free: the syndrome check
    // adds a bus cycle to every demand read and the check bits cost
    // transfer bytes — the run must slow down relative to all-knobs-off
    // while staying error-free.
    let base = soak_config(EngineKind::Event).with_strategy(MetadataStrategyKind::Attache);
    let off = System::run_rate_mode(&base, soak_profile(), 17);
    let ecc_cfg = base.clone().with_ecc(true);
    let ecc = System::run_rate_mode(&ecc_cfg, soak_profile(), 17);
    let i = ecc.integrity.expect("ecc arms the engine");
    assert_eq!(i.injected_flips, 0, "zero rate injects nothing");
    assert_eq!(i.total_corrected() + i.total_uncorrectable(), 0);
    assert!(i.ecc_check_bytes > 0, "check bits must be accounted");
    assert!(
        ecc.bus_cycles > off.bus_cycles,
        "the ECC latency tax must slow the run ({} vs {})",
        ecc.bus_cycles,
        off.bus_cycles
    );
}
