//! Scheduler decision identity: seeded request streams driven through
//! `MemorySystem` on both tick paths, pinned by FNV-64 literals over the
//! completion stream (`id`, `finished_at`), every channel's
//! `ChannelStats`, and the energy breakdown's bits.
//!
//! The simulator-level goldens run too few instructions to reach most of
//! the FR-FCFS corner cases, and both engines share one scheduler pass,
//! so the engine differential suite cannot see a decision change that
//! both engines make alike. These literals can: any change to which
//! command issues on which cycle moves a completion time, a command
//! count or an energy term. Each case also checks that it really
//! exercises the mechanism it is named for.
//!
//! A deliberate model change re-records the literals by running this
//! suite and copying the `got` values from the failure messages.

use attache_dram::{
    AccessKind, AccessWidth, ChannelStats, Completion, DramConfig, EnergyBreakdown, Location,
    MemRequest, MemorySystem, Origin, PowerParams, SubrankId,
};
use attache_testkit::{fnv1a64, Gen};

/// Mirrors the controller's anti-starvation age (bus cycles).
const STARVATION_AGE: u64 = 1_536;

/// One seeded stream.
struct Case {
    name: &'static str,
    seed: u64,
    requests: usize,
    /// Inter-arrival gap drawn uniformly from `0..=max_gap` bus cycles.
    max_gap: u64,
    /// Percent of requests that are reads.
    read_pct: u64,
    /// Percent of requests that are half-width.
    half_pct: u64,
    /// Address pool: bank groups, banks per group, rows and columns used.
    bank_groups: usize,
    banks_per_group: usize,
    rows: usize,
    cols: usize,
    /// Percent of requests aimed at one hot row (bank 0, row 0,
    /// half-width on sub-rank 0) on top of the pool.
    hot_pct: u64,
    /// Read derate `(start offset, length, cap)`.
    derate: Option<(u64, u64, usize)>,
}

const CASES: &[Case] = &[
    // Small line pool across four banks: row hits and conflicts between
    // half- and full-width requests, reads forwarded from queued writes,
    // and writes coalescing into a queued line with a different width.
    Case {
        name: "mixed_widths",
        seed: 0x5C4E_D001,
        requests: 1_400,
        max_gap: 6,
        read_pct: 65,
        half_pct: 50,
        bank_groups: 2,
        banks_per_group: 2,
        rows: 3,
        cols: 6,
        hot_pct: 0,
        derate: None,
    },
    // Write-heavy bursts over every bank: the write queue crosses the high
    // watermark again and again, so drains start and stop.
    Case {
        name: "write_drain",
        seed: 0x5C4E_D002,
        requests: 1_200,
        max_gap: 2,
        read_pct: 50,
        half_pct: 30,
        bank_groups: 4,
        banks_per_group: 4,
        rows: 64,
        cols: 32,
        hot_pct: 0,
        derate: None,
    },
    // A half-width stream keeps one row hot while saturating random
    // full-width reads pile up behind row misses: reads cross the
    // starvation age and get served exclusively.
    Case {
        name: "starved_read",
        seed: 0x5C4E_D003,
        requests: 900,
        max_gap: 1,
        read_pct: 100,
        half_pct: 0,
        bank_groups: 4,
        banks_per_group: 4,
        rows: 4_096,
        cols: 128,
        hot_pct: 40,
        derate: None,
    },
    // A read-queue derate mid-stream: reads are rejected and retried
    // until the cap lifts.
    Case {
        name: "read_derate",
        seed: 0x5C4E_D004,
        requests: 900,
        max_gap: 4,
        read_pct: 85,
        half_pct: 40,
        bank_groups: 2,
        banks_per_group: 4,
        rows: 16,
        cols: 16,
        hot_pct: 0,
        derate: Some((1_500, 2_500, 2)),
    },
    // Sparse reads between writes that never reach the drain watermark:
    // the read queue empties and refills, so the served queue switches
    // between reads and opportunistically served writes many times.
    Case {
        name: "opportunistic_writes",
        seed: 0x5C4E_D005,
        requests: 1_500,
        max_gap: 16,
        read_pct: 40,
        half_pct: 30,
        bank_groups: 4,
        banks_per_group: 4,
        rows: 4,
        cols: 32,
        hot_pct: 0,
        derate: None,
    },
];

/// `(case, completions, stats, energy)` hashes, each recorded on the
/// scheduler as it stood before the change that added its case.
const GOLDEN: &[(&str, u64, u64, u64)] = &[
    (
        "mixed_widths",
        0x91fb3c2f4b70a7f9,
        0x1804887452ba2a86,
        0xfc75e2fa8341dd89,
    ),
    (
        "write_drain",
        0x1c1fba2c3b1d916e,
        0x31250668e9601e1a,
        0x9c85a45f418e303e,
    ),
    (
        "starved_read",
        0x76581646a36125b5,
        0x9461ccf6d8226d42,
        0x51e089ef9a244d8f,
    ),
    (
        "read_derate",
        0x588e61eff6f4d9cb,
        0xaf26c8e858cc7171,
        0x54e888766d4209ea,
    ),
    (
        "opportunistic_writes",
        0x4cf725dcf4e3c108,
        0x1fbc29043b953d1d,
        0xf7708a8475b3222c,
    ),
];

/// The stream: `(offer cycle, request)` in offer order.
fn stream(case: &Case, cfg: &DramConfig, start: u64) -> Vec<(u64, MemRequest)> {
    let mapping = attache_dram::AddressMapping::new(*cfg);
    let mut g = Gen::new(case.seed);
    let mut t = start;
    (0..case.requests as u64)
        .map(|id| {
            t += g.below(case.max_gap + 1);
            let hot = g.below(100) < case.hot_pct;
            let read = hot || g.below(100) < case.read_pct;
            let half = g.below(100) < case.half_pct;
            let sub = SubrankId(g.below(2) as u8);
            let loc = Location {
                channel: g.below(cfg.channels as u64) as usize,
                rank: 0,
                bank_group: if hot {
                    0
                } else {
                    g.below(case.bank_groups as u64) as usize
                },
                bank: if hot {
                    0
                } else {
                    g.below(case.banks_per_group as u64) as usize
                },
                row: if hot {
                    0
                } else {
                    1 + g.below(case.rows as u64) as usize
                },
                col: g.below(case.cols as u64) as usize,
            };
            let width = if hot {
                AccessWidth::Half(SubrankId(0))
            } else if half {
                AccessWidth::Half(sub)
            } else {
                AccessWidth::Full
            };
            let req = MemRequest {
                id,
                line_addr: mapping.compose(loc),
                kind: if read {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                },
                width,
                origin: if read {
                    Origin::Demand { core: 0 }
                } else {
                    Origin::Writeback
                },
                arrival: t,
            };
            (t, req)
        })
        .collect()
}

/// What one run produced, plus the facts each case checks it covered.
struct Outcome {
    completions: Vec<Completion>,
    stats: Vec<ChannelStats>,
    energy: EnergyBreakdown,
    writes_accepted: u64,
    derated_rejections: u64,
}

/// Drives `case` to completion. `event` selects the event path
/// (`tick_event`, skipping provably idle spans with `advance_noop`);
/// otherwise every cycle is a full `tick`. Requests are offered at their
/// cycle after that cycle's tick, in order; a rejected request is offered
/// again every following cycle, and the requests behind it wait.
fn run(case: &Case, event: bool) -> Outcome {
    let cfg = DramConfig::table2();
    let mut mem = MemorySystem::new(cfg, PowerParams::ddr4_1600());
    // Start shortly before the first refresh is due, so every case
    // crosses one while its queues are busy.
    let start = cfg.timing.t_refi - 1_000;
    mem.advance_idle_to(start);
    let arrivals = stream(case, &cfg, start + 1);
    let derate = case
        .derate
        .map(|(at, len, cap)| (start + at, start + at + len, cap));
    let mut next = 0;
    let mut out = Outcome {
        completions: Vec::new(),
        stats: Vec::new(),
        energy: EnergyBreakdown::default(),
        writes_accepted: 0,
        derated_rejections: 0,
    };
    loop {
        if event {
            mem.tick_event();
        } else {
            mem.tick();
        }
        mem.drain_completions_into(&mut out.completions);
        let now = mem.now();
        if let Some((at, until, cap)) = derate {
            if now == at {
                mem.fault_derate_reads(cap, until);
            }
        }
        // The backlog is offered oldest first; the first rejection ends
        // this cycle's offers, so the backlog stays in order.
        while next < arrivals.len() && arrivals[next].0 <= now {
            let req = arrivals[next].1;
            if mem.enqueue(req).is_err() {
                let derated = derate.is_some_and(|(at, until, _)| (at..until).contains(&now));
                out.derated_rejections += u64::from(derated);
                break;
            }
            out.writes_accepted += u64::from(req.kind == AccessKind::Write);
            next += 1;
        }
        if next == arrivals.len() && mem.is_idle() {
            break;
        }
        assert!(now < start + 2_000_000, "{}: no progress", case.name);
        // A waiting backlog is offered again next cycle; otherwise the
        // next arrival is an event.
        if event {
            let mut horizon = mem.next_event_cached();
            if let Some(&(t, _)) = arrivals.get(next) {
                horizon = horizon.min(t.max(now + 1));
            }
            if let Some((at, ..)) = derate {
                if at > now {
                    horizon = horizon.min(at);
                }
            }
            if horizon > now + 1 {
                mem.advance_noop(horizon - now - 1);
            }
        }
    }
    out.stats = mem.channel_stats();
    out.energy = mem.energy();
    out
}

fn completion_hash(completions: &[Completion]) -> u64 {
    let mut bytes = Vec::with_capacity(completions.len() * 16);
    for c in completions {
        bytes.extend_from_slice(&c.request.id.to_le_bytes());
        bytes.extend_from_slice(&c.finished_at.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Checks that `case` exercised what it is named for, so a stream edit
/// that quietly stops covering a mechanism fails here rather than
/// leaving a literal that pins nothing.
fn check_coverage(case: &Case, o: &Outcome) {
    let reads_done = o
        .completions
        .iter()
        .filter(|c| c.request.kind == AccessKind::Read)
        .count();
    let writes_done = o.completions.len() - reads_done;
    let max_read_latency = o
        .completions
        .iter()
        .filter(|c| c.request.kind == AccessKind::Read)
        .map(Completion::latency)
        .max()
        .unwrap_or(0);
    let total = |f: fn(&ChannelStats) -> u64| o.stats.iter().map(f).sum::<u64>();
    assert!(
        total(|s| s.refreshes) >= 2,
        "{}: no refresh crossing",
        case.name
    );
    match case.name {
        "mixed_widths" => {
            assert!(
                total(|s| s.forwarded_reads) > 0,
                "mixed_widths: no forwarded read"
            );
            assert!(
                o.writes_accepted > writes_done as u64,
                "mixed_widths: no write coalesced"
            );
            let widths = |half: bool| {
                o.completions
                    .iter()
                    .any(|c| matches!(c.request.width, AccessWidth::Half(_)) == half)
            };
            assert!(
                widths(true) && widths(false),
                "mixed_widths: one width only"
            );
        }
        "write_drain" => {
            assert!(
                total(|s| s.drain_episodes) >= 4,
                "write_drain: too few drain episodes"
            );
        }
        "starved_read" => {
            assert!(
                max_read_latency > STARVATION_AGE,
                "starved_read: no read crossed the starvation age ({max_read_latency})"
            );
        }
        "read_derate" => {
            assert!(
                o.derated_rejections > 0,
                "read_derate: the derate rejected nothing"
            );
        }
        "opportunistic_writes" => {
            assert_eq!(
                total(|s| s.drain_episodes),
                0,
                "opportunistic_writes: a drain started"
            );
            assert!(
                total(|s| s.drain_cycles) > 0,
                "opportunistic_writes: no write served"
            );
            assert!(
                reads_done >= 100 && writes_done >= 100,
                "opportunistic_writes: too few reads ({reads_done}) or writes ({writes_done})"
            );
        }
        _ => unreachable!(),
    }
}

#[test]
fn scheduler_decisions_match_the_recorded_literals_on_both_tick_paths() {
    let mut failures = Vec::new();
    for case in CASES {
        let golden = GOLDEN
            .iter()
            .find(|g| g.0 == case.name)
            .expect("every case has a literal");
        for event in [false, true] {
            let o = run(case, event);
            check_coverage(case, &o);
            let got = (
                completion_hash(&o.completions),
                fnv1a64(format!("{:?}", o.stats).as_bytes()),
                fnv1a64(format!("{:?}", o.energy).as_bytes()),
            );
            if got != (golden.1, golden.2, golden.3) {
                failures.push(format!(
                    "{} ({}): got (\"{}\", {:#018x}, {:#018x}, {:#018x})",
                    case.name,
                    if event { "tick_event" } else { "tick" },
                    case.name,
                    got.0,
                    got.1,
                    got.2
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "scheduler golden mismatch:\n{}",
        failures.join("\n")
    );
}
