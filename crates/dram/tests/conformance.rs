//! DRAM protocol conformance: the scheduler's command stream, audited.
//!
//! Randomized traffic runs with a [`ConformanceChecker`] attached to every
//! channel; any ACT/RD/WR/PRE/REF the independent shadow model deems
//! illegal panics the run, so a green test *is* the zero-violation claim.
//! An audited replay is also deterministic: a fresh system fed the same
//! seeded stream retires the same completions at the same cycles.
//! The suite also proves the auditor has teeth: a deliberately injected
//! early CAS (replayed from `tests/corpus/dram-trcd.case`) and a full
//! system run audited against deliberately stricter reference timings are
//! both caught.

use attache_dram::{
    AccessKind, AccessWidth, Completion, ConformanceChecker, DramCommand, DramConfig, MemRequest,
    MemorySystem, Origin, PowerParams, SubrankId, Timing,
};
use attache_testkit::{CorpusCase, Gen};

fn width(g: &mut Gen) -> AccessWidth {
    match g.below(3) {
        0 => AccessWidth::Full,
        1 => AccessWidth::Half(SubrankId(0)),
        _ => AccessWidth::Half(SubrankId(1)),
    }
}

fn random_request(g: &mut Gen, id: u64, now: u64) -> MemRequest {
    MemRequest {
        id,
        line_addr: g.next_u64() % (1 << 18),
        kind: if g.bool() {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
        width: width(g),
        origin: Origin::Demand { core: 0 },
        arrival: now,
    }
}

/// Ticks `mem` for `cycles`, feeding it randomized requests as queue
/// space allows, and returns the completions in drain order. Long
/// enough runs cross tREFI, so REF commands are audited too.
fn drive(mem: &mut MemorySystem, g: &mut Gen, requests: u64, cycles: u64) -> Vec<Completion> {
    let mut sent = 0;
    let mut done = Vec::new();
    for _ in 0..cycles {
        if sent < requests && g.below(3) == 0 {
            let req = random_request(g, sent, mem.now());
            if mem.enqueue(req).is_ok() {
                sent += 1;
            }
        }
        mem.tick();
        mem.drain_completions_into(&mut done);
    }
    assert_eq!(
        sent, requests,
        "queue pressure kept requests out of the run"
    );
    done
}

#[test]
fn legal_randomized_traffic_has_zero_violations() {
    // Auditor panics on the first violation, so reaching the stats
    // assertions means the whole stream conformed. 26k cycles crosses
    // two tREFI windows: refreshes (and their precharges) are audited.
    let mut g = Gen::new(0xC0F0);
    let mut mem = MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
    mem.enable_conformance();
    let done = drive(&mut mem, &mut g, 600, 26_000);
    let stats = mem.conformance_stats().expect("auditor attached");
    assert!(stats.commands_checked > 0, "auditor saw no commands");
    assert!(stats.activates > 0, "traffic must activate rows");
    assert!(
        stats.reads > 0 && stats.writes > 0,
        "traffic must mix CAS kinds"
    );
    assert!(stats.precharges > 0, "row conflicts must precharge");
    assert!(stats.refreshes > 0, "a 26k-cycle run must refresh");

    // Determinism: a second fresh system replaying the same seeded
    // stream retires the same requests in the same order with the same
    // latencies, and ends with the same statistics.
    let mut twin = MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
    twin.enable_conformance();
    let twin_done = drive(&mut twin, &mut Gen::new(0xC0F0), 600, 26_000);
    assert!(!done.is_empty());
    assert_eq!(
        twin_done, done,
        "replays of one stream must retire identically"
    );
    assert_eq!(twin.stats(), mem.stats());
}

#[test]
fn event_engine_fast_forward_keeps_the_auditor_consistent() {
    // The event engine's idle fast-forward path performs refreshes in
    // bulk without issuing per-cycle commands; the auditor must absorb
    // them (banks closed, rank busy) and still validate the traffic that
    // resumes afterwards.
    let mut g = Gen::new(0xC0F1);
    let mut mem = MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
    mem.enable_conformance();
    drive(&mut mem, &mut g, 120, 6_000);
    // Drain to idle, then leap across several tREFI windows.
    let mut guard = 0;
    while !mem.is_idle() {
        mem.tick();
        mem.drain_completions();
        guard += 1;
        assert!(guard < 200_000, "system failed to drain to idle");
    }
    let t = Timing::table2();
    mem.advance_idle_to(mem.now() + 5 * t.t_refi);
    drive(&mut mem, &mut g, 120, 6_000);
    let stats = mem.conformance_stats().expect("auditor attached");
    assert!(stats.refreshes >= 5, "bulk refreshes must be accounted");
    assert!(stats.reads > 0 && stats.writes > 0);
}

#[test]
fn injected_trcd_violation_is_caught() {
    // Replays tests/corpus/dram-trcd.case: a CAS one cycle before the
    // activated row is usable must be rejected with the tRCD rule.
    let case = CorpusCase::load("dram-trcd");
    let bank = case.require("bank") as usize;
    let row = case.require("row") as usize;
    let act = case.require("act-cycle");
    let t = Timing::table2();
    let mut c = ConformanceChecker::new(&DramConfig::table2());
    c.observe(
        act,
        0,
        &DramCommand::Activate {
            bank,
            row,
            mask: 0b11,
        },
    )
    .expect("the ACT itself is legal");
    let v = c
        .observe(
            act + t.t_rcd - 1,
            0,
            &DramCommand::Read {
                bank,
                row,
                mask: 0b11,
            },
        )
        .unwrap_err();
    assert_eq!(v.rule, "tRCD");
    assert!(
        v.detail.contains("RD"),
        "detail names the command: {}",
        v.detail
    );
    // One cycle later the same command conforms.
    c.observe(
        act + t.t_rcd,
        0,
        &DramCommand::Read {
            bank,
            row,
            mask: 0b11,
        },
    )
    .expect("CAS at exactly tRCD is legal");
}

#[test]
fn full_system_run_against_stricter_reference_panics() {
    // End-to-end teeth check: audit the real scheduler against reference
    // timings stricter than its own. The scheduler issues CAS as soon as
    // its tRCD expires, which the stricter reference forbids — the
    // auditor must abort the run. (Hook swap keeps the expected panic
    // out of the test output.)
    let result = {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = std::panic::catch_unwind(|| {
            let mut g = Gen::new(0xC0F2);
            let mut mem = MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
            let mut strict = Timing::table2();
            strict.t_rcd += 8;
            mem.enable_conformance_with(strict);
            drive(&mut mem, &mut g, 200, 20_000);
        });
        std::panic::set_hook(prev);
        r
    };
    let err = result.expect_err("a stricter reference must flag the scheduler");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "non-string panic payload".into());
    assert!(
        msg.contains("DRAM protocol violation"),
        "panic must come from the auditor: {msg}"
    );
    assert!(msg.contains("tRCD"), "violated rule must be named: {msg}");
}
