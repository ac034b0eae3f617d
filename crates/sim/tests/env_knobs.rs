//! Regression tests for the observability environment knobs.
//!
//! The contract (see `crates/sim/src/env.rs`): unset, empty, and `"0"`
//! all mean *disabled*; an unparsable value warns on stderr and falls
//! back — it must never panic a run. The original bug class this pins:
//! a typo'd `ATTACHE_EPOCH=10k` killing a multi-hour sweep at startup.
//!
//! All scenarios live in ONE `#[test]` because the test harness runs
//! functions of a binary concurrently and `set_var` is process-global;
//! a second env-mutating test here would race this one.

use attache_sim::{
    backend_from_env_value, env_u64, env_u64_opt, unknown_knobs, BackendKind, FaultPlan,
    SimConfig, KNOWN_KNOBS,
};

#[test]
fn env_knob_parsing_is_total() {
    // Invalid value: warns and stays disabled — must not panic.
    std::env::set_var("ATTACHE_EPOCH", "10k");
    assert_eq!(env_u64_opt("ATTACHE_EPOCH"), None);
    let cfg = SimConfig::table2_baseline();
    assert_eq!(cfg.epoch, None, "a typo'd ATTACHE_EPOCH must fall back to disabled");

    // "0" and "" both mean disabled.
    std::env::set_var("ATTACHE_EPOCH", "0");
    assert_eq!(env_u64_opt("ATTACHE_EPOCH"), None);
    std::env::set_var("ATTACHE_EPOCH", "");
    assert_eq!(env_u64_opt("ATTACHE_EPOCH"), None);

    // A valid value enables the knob and reaches the config.
    std::env::set_var("ATTACHE_EPOCH", "50000");
    assert_eq!(env_u64_opt("ATTACHE_EPOCH"), Some(50_000));
    assert_eq!(SimConfig::table2_baseline().epoch, Some(50_000));

    // Unset means disabled.
    std::env::remove_var("ATTACHE_EPOCH");
    assert_eq!(env_u64_opt("ATTACHE_EPOCH"), None);

    // The same contract holds for the ring knob...
    std::env::set_var("ATTACHE_TRACE_RING", "lots");
    assert_eq!(env_u64_opt("ATTACHE_TRACE_RING"), None);
    std::env::set_var("ATTACHE_TRACE_RING", "256");
    assert_eq!(SimConfig::table2_baseline().trace_ring, Some(256));
    std::env::remove_var("ATTACHE_TRACE_RING");

    // ...and for the defaulting variant used by the bench harness.
    std::env::set_var("ATTACHE_ENV_KNOB_TEST", "not-a-number");
    assert_eq!(env_u64("ATTACHE_ENV_KNOB_TEST", 42), 42);
    std::env::set_var("ATTACHE_ENV_KNOB_TEST", "7");
    assert_eq!(env_u64("ATTACHE_ENV_KNOB_TEST", 42), 7);
    std::env::remove_var("ATTACHE_ENV_KNOB_TEST");

    // ATTACHE_FAULTS follows the same contract: unset / "" / "0" all
    // mean no injection, a bad spec warns and disables (never panics),
    // and valid specs arm the plan through table2_baseline.
    std::env::remove_var("ATTACHE_FAULTS");
    assert_eq!(FaultPlan::from_env(), None);
    std::env::set_var("ATTACHE_FAULTS", "");
    assert_eq!(FaultPlan::from_env(), None);
    std::env::set_var("ATTACHE_FAULTS", "0");
    assert_eq!(FaultPlan::from_env(), None);
    std::env::set_var("ATTACHE_FAULTS", "period=bogus");
    assert_eq!(
        FaultPlan::from_env(),
        None,
        "a typo'd ATTACHE_FAULTS must fall back to disabled"
    );
    std::env::set_var("ATTACHE_FAULTS", "1234");
    let plan = SimConfig::table2_baseline().faults.expect("bare seed arms the plan");
    assert_eq!(plan.seed, 1234);
    assert_eq!(plan.period, FaultPlan::DEFAULT_PERIOD);
    std::env::set_var("ATTACHE_FAULTS", "seed=9,period=100,classes=ra_corrupt,max=3");
    let plan = SimConfig::table2_baseline().faults.expect("full spec arms the plan");
    assert_eq!((plan.seed, plan.period, plan.max), (9, 100, Some(3)));
    assert_eq!(plan.classes, vec![attache_sim::FaultClass::RaCorrupt]);
    std::env::remove_var("ATTACHE_FAULTS");

    // The tick-budget watchdog knob rides the same optional-u64 path.
    std::env::set_var("ATTACHE_JOB_TICK_BUDGET", "90000");
    assert_eq!(SimConfig::table2_baseline().tick_budget, Some(90_000));
    std::env::remove_var("ATTACHE_JOB_TICK_BUDGET");
    assert_eq!(SimConfig::table2_baseline().tick_budget, None);

    // The integrity knobs ride the same contracts: BER and scrub on the
    // optional-u64 path (unset / "" / "0" / typo all disarm), ECC on the
    // boolean path — and a fully-disarmed environment must leave
    // `integrity_armed()` false so no engine is ever constructed.
    std::env::set_var("ATTACHE_BER", "many");
    std::env::set_var("ATTACHE_ECC", "0");
    std::env::set_var("ATTACHE_SCRUB", "");
    let cfg = SimConfig::table2_baseline();
    assert_eq!(cfg.ber_ppm, None, "a typo'd ATTACHE_BER must fall back to disabled");
    assert!(!cfg.ecc);
    assert_eq!(cfg.scrub_period, None);
    assert!(!cfg.integrity_armed(), "disarmed knobs must not construct an engine");
    std::env::set_var("ATTACHE_BER", "40000");
    std::env::set_var("ATTACHE_ECC", "1");
    std::env::set_var("ATTACHE_SCRUB", "500");
    let cfg = SimConfig::table2_baseline();
    assert_eq!(cfg.ber_ppm, Some(40_000));
    assert!(cfg.ecc);
    assert_eq!(cfg.scrub_period, Some(500));
    assert!(cfg.integrity_armed());
    std::env::remove_var("ATTACHE_BER");
    std::env::remove_var("ATTACHE_ECC");
    std::env::remove_var("ATTACHE_SCRUB");
    assert!(!SimConfig::table2_baseline().integrity_armed());

    // ATTACHE_BACKEND follows the warn-don't-panic contract too: a typo
    // mid-sweep warns and falls back to the cycle reference, never
    // panics (the bench::grid regression this PR fixes).
    std::env::set_var("ATTACHE_BACKEND", "dramsim3");
    assert_eq!(SimConfig::table2_baseline().backend, BackendKind::Cycle);
    std::env::set_var("ATTACHE_BACKEND", "");
    assert_eq!(SimConfig::table2_baseline().backend, BackendKind::Cycle);
    std::env::set_var("ATTACHE_BACKEND", "FAST"); // case-insensitive
    assert_eq!(SimConfig::table2_baseline().backend, BackendKind::Fast);
    std::env::set_var("ATTACHE_BACKEND", "cycle");
    assert_eq!(SimConfig::table2_baseline().backend, BackendKind::Cycle);
    std::env::remove_var("ATTACHE_BACKEND");
    assert_eq!(SimConfig::table2_baseline().backend, BackendKind::Cycle);
}

#[test]
fn backend_classifier_is_total() {
    // The pure classifier behind ATTACHE_BACKEND — exercised without
    // touching the process environment, so it can run alongside the
    // env-mutating test above.
    assert_eq!(backend_from_env_value(None), BackendKind::Cycle);
    assert_eq!(backend_from_env_value(Some("")), BackendKind::Cycle);
    assert_eq!(backend_from_env_value(Some("cycle")), BackendKind::Cycle);
    assert_eq!(backend_from_env_value(Some("fast")), BackendKind::Fast);
    assert_eq!(backend_from_env_value(Some("Fast")), BackendKind::Fast);
    assert_eq!(backend_from_env_value(Some("hbm2")), BackendKind::Cycle);
}

#[test]
fn every_registered_knob_is_documented_in_knobs_md() {
    // docs/KNOBS.md is the reference table for every ATTACHE_* variable;
    // registering a knob in KNOWN_KNOBS without documenting it there
    // fails this test (the satellite contract of PR 6). The knob name
    // must appear in backticks, i.e. as a table entry, not prose luck.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/KNOBS.md");
    let doc = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("docs/KNOBS.md must exist ({e})"));
    let missing: Vec<&str> = KNOWN_KNOBS
        .iter()
        .copied()
        .filter(|knob| !doc.contains(&format!("`{knob}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "knobs registered in KNOWN_KNOBS but missing from docs/KNOBS.md: {missing:?}"
    );
    // And the reverse: the doc must not promise knobs nobody reads.
    for line in doc.lines() {
        let mut rest = line;
        while let Some(start) = rest.find("`ATTACHE_") {
            let tail = &rest[start + 1..];
            let Some(end) = tail.find('`') else { break };
            let token = &tail[..end];
            // The token may be a usage example (`ATTACHE_FAULTS=seed=7`);
            // the knob name is its leading [A-Z0-9_] run.
            let name_len = token
                .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(token.len());
            let name = &token[..name_len];
            // Tolerate glob-style references like `ATTACHE_*` in prose.
            if !token.starts_with("ATTACHE_*") {
                assert!(
                    KNOWN_KNOBS.contains(&name),
                    "docs/KNOBS.md documents {name}, which is not in KNOWN_KNOBS"
                );
            }
            rest = &tail[end + 1..];
        }
    }
}

#[test]
fn unknown_knob_classifier_flags_typos_only() {
    // Pure classifier — no environment mutation, so it can coexist with
    // the env-mutating test above.
    let names = [
        "ATTACHE_EPOC",    // the motivating typo
        "ATTACHE_EPOCH",   // known
        "ATTACHE_FAULTS",  // known
        "PATH",            // not our namespace
        "ATTACHEMENT",     // no underscore — not our namespace
        "ATTACHE_NEW_KNOB_NOBODY_READS",
        "ATTACHE_SHARDS",  // removed knob: a stale export must warn, not panic
    ];
    assert_eq!(
        unknown_knobs(names),
        vec![
            "ATTACHE_EPOC".to_string(),
            "ATTACHE_NEW_KNOB_NOBODY_READS".to_string(),
            "ATTACHE_SHARDS".to_string(),
        ]
    );
    // Every registered knob classifies as known.
    assert!(unknown_knobs(KNOWN_KNOBS.iter().copied()).is_empty());
}
