//! Memory-backend boundary tests: the fast queueing backend
//! (`ATTACHE_BACKEND=fast`) as a full citizen of the simulator.
//!
//! The contracts pinned here, complementing `tests/differential.rs`
//! (which pins cycle-backend bit-identity and fast-backend engine
//! invariance) and the dram crate's referee tests (which pin the
//! stream-level tolerance envelope of `docs/BACKENDS.md`):
//!
//! * every metadata strategy completes end-to-end runs on the fast
//!   backend, with the strategy-level mechanisms (COPR predictions,
//!   metadata installs, RA traffic) still exercised;
//! * the backends genuinely differ (a mis-wired factory that hands out
//!   the cycle model twice must not pass vacuously), yet agree on
//!   backend-independent facts: instruction counts, request mixes
//!   within the envelope;
//! * `with_backend(BackendKind::Cycle)` is the exact default — the knob
//!   cannot perturb a pinned-golden run when it selects the reference;
//! * the mirror-memory oracle (functional correctness) holds on the
//!   fast backend: timing models may disagree on *when*, never on
//!   *what*.

use attache_sim::{BackendKind, MetadataStrategyKind, SimConfig, System};
use attache_workloads::Profile;

const STRATEGIES: [MetadataStrategyKind; MetadataStrategyKind::ALL.len()] =
    MetadataStrategyKind::ALL;

fn quick(strategy: MetadataStrategyKind, backend: BackendKind) -> SimConfig {
    SimConfig::table2_baseline()
        .with_strategy(strategy)
        .with_instructions(6_000, 1_000)
        .with_backend(backend)
}

#[test]
fn every_strategy_completes_on_the_fast_backend() {
    for s in STRATEGIES {
        let r = System::run_rate_mode(&quick(s, BackendKind::Fast), Profile::rand(), 5);
        assert!(r.total_instructions() >= 8 * 6_000, "{s}: run must finish");
        assert!(r.bus_cycles > 0, "{s}");
        assert!(r.mem.demand_reads > 0, "{s}: random traffic misses the LLC");
        assert!(r.energy.total_pj() > 0.0, "{s}");
        assert_eq!(r.mem.refreshes, 0, "{s}: the fast model has no refresh");
        match s {
            MetadataStrategyKind::MetadataCache => {
                assert!(r.mem.metadata_reads > 0, "installs must still happen")
            }
            MetadataStrategyKind::Attache => {
                let copr = r.copr.expect("attache reports copr");
                assert!(copr.predictions > 0, "COPR must still predict");
            }
            MetadataStrategyKind::Cram => {
                assert!(r.cram.is_some(), "cram reports marker stats");
                assert_eq!(r.mem.metadata_reads, 0, "implicit metadata costs no reads");
                // RAND is incompressible, so the optimistic half fetch
                // finds no marker and every resolved read pays the
                // corrective second half — at any run length.
                assert!(r.mem.corrective_reads > 0, "markerless reads must correct");
            }
            _ => {}
        }
    }
}

#[test]
fn explicit_cycle_backend_is_the_default() {
    // The knob must be inert when it selects the reference: a config
    // that says `cycle` out loud is bit-identical to one that never
    // mentioned backends (this is what keeps the goldens pinned).
    let base = SimConfig::table2_baseline()
        .with_strategy(MetadataStrategyKind::Attache)
        .with_instructions(6_000, 1_000);
    assert_eq!(base.backend, BackendKind::Cycle);
    let a = System::run_rate_mode(&base, Profile::stream(), 9);
    let b = System::run_rate_mode(
        &base.clone().with_backend(BackendKind::Cycle),
        Profile::stream(),
        9,
    );
    assert_eq!(a, b, "with_backend(Cycle) must be a no-op");
    assert_eq!(a.energy.total_pj().to_bits(), b.energy.total_pj().to_bits());
}

#[test]
fn backends_differ_in_timing_but_agree_on_work() {
    // End-to-end analogue of the dram referee: same seed, same workload,
    // both backends. Timing diverges (the fast model has no rows or
    // refresh), but the *work* — instructions retired, and the request
    // mix the strategy generates — stays within the documented envelope.
    let cy = System::run_rate_mode(
        &quick(MetadataStrategyKind::Attache, BackendKind::Cycle),
        Profile::rand(),
        21,
    );
    let fa = System::run_rate_mode(
        &quick(MetadataStrategyKind::Attache, BackendKind::Fast),
        Profile::rand(),
        21,
    );
    assert_eq!(cy.instructions, fa.instructions, "same retirement target");
    assert_ne!(cy.bus_cycles, fa.bus_cycles, "timing models must differ");
    assert!(cy.mem.row_hits > 0 && fa.mem.row_hits == 0);
    // Demand-read counts track LLC misses, which depend on timing only
    // through victim ordering — they must stay close (well inside the
    // 2x drain-span envelope of docs/BACKENDS.md).
    let ratio = cy.mem.demand_reads.max(fa.mem.demand_reads) as f64
        / cy.mem.demand_reads.min(fa.mem.demand_reads).max(1) as f64;
    assert!(
        ratio < 1.5,
        "demand-read mix diverged across backends: cycle {} vs fast {}",
        cy.mem.demand_reads,
        fa.mem.demand_reads
    );
    // End-to-end the whole run compounds the per-access gap (the fast
    // model never pays activates/precharges, so a row-miss-heavy random
    // workload drains much sooner) — the tight 2x drain-span envelope
    // applies to the referee's identical-stream replays, not to closed
    // loops where timing feeds back into issue order. Here we pin the
    // direction and a sanity bound.
    assert!(
        fa.bus_cycles < cy.bus_cycles,
        "the fast model must not be slower in simulated time: cycle {} vs fast {}",
        cy.bus_cycles,
        fa.bus_cycles
    );
    let span_ratio = cy.bus_cycles as f64 / fa.bus_cycles.max(1) as f64;
    assert!(
        span_ratio < 8.0,
        "bus-cycle span implausibly wide: cycle {} vs fast {}",
        cy.bus_cycles,
        fa.bus_cycles
    );
}

#[test]
fn mirror_oracle_holds_on_the_fast_backend() {
    // Functional correctness is backend-independent: every decoded read
    // on the fast backend still byte-checks against the shadow copy
    // (the mirror panics on divergence, so completing is the assertion).
    for s in [
        MetadataStrategyKind::Attache,
        MetadataStrategyKind::MetadataCache,
    ] {
        let cfg = quick(s, BackendKind::Fast).with_mirror(true);
        let r = System::run_rate_mode(&cfg, Profile::rand(), 31);
        assert!(r.bus_cycles > 0, "{s}");
    }
}

#[test]
fn fast_backend_reports_consistent_bandwidth_accounting() {
    // The trait's accounting surface: bytes, busy cycles and sub-rank
    // CAS counts must stay mutually consistent on the fast model, since
    // EXPERIMENTS.md figures derive bandwidth from them.
    let r = System::run_rate_mode(
        &quick(MetadataStrategyKind::Attache, BackendKind::Fast),
        Profile::stream(),
        3,
    );
    let t_burst = 4; // Table II
    assert_eq!(
        r.mem.busy_bus_cycles % t_burst,
        0,
        "busy counts whole bursts"
    );
    assert!(r.mem.bytes >= 32 * r.mem.total_requests());
    assert!(r.mem.bytes <= 64 * r.mem.total_requests());
    assert!(r.mem.read_latency_count > 0);
    assert!(
        r.mem.avg_read_latency() >= (1 + 22 + 22 + 4) as f64,
        "no read beats the cold-read floor"
    );
}
