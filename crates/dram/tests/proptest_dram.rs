//! Property-based tests for the DRAM model: the timing state machines must
//! never lose a request, latencies must respect physical floors, and the
//! address mapping must be a bijection.
//!
//! Cases come from the shared seeded splitmix64 generator in
//! `attache-testkit` (no external property-testing crate), so the suite
//! builds offline and each failing case is reproducible from its iteration
//! index. The seeds (30..=33) predate the testkit port; `width` consumes
//! one draw exactly like the old `Gen::width` method did, so the streams
//! (and any recorded failing-case indices) are unchanged.

use attache_dram::{
    AccessKind, AccessWidth, AddressMapping, DramConfig, MemRequest, MemorySystem, Origin,
    PowerParams, SubrankId, Timing,
};
use attache_testkit::Gen;

/// One draw → an access width, with Full and each half sub-rank equally
/// likely.
fn width(g: &mut Gen) -> AccessWidth {
    match g.below(3) {
        0 => AccessWidth::Full,
        1 => AccessWidth::Half(SubrankId(0)),
        _ => AccessWidth::Half(SubrankId(1)),
    }
}

#[test]
fn mapping_is_bijective() {
    let mut g = Gen::new(30);
    let m = AddressMapping::new(DramConfig::table2());
    for case in 0..4096 {
        let addr = g.next_u64() % (1 << 28);
        assert_eq!(m.compose(m.decompose(addr)), addr, "case {case}");
    }
}

#[test]
fn every_request_completes_exactly_once() {
    let mut g = Gen::new(31);
    for case in 0..64 {
        let n = 1 + g.next_u64() % 40;
        let reqs: Vec<(u64, bool, AccessWidth)> = (0..n)
            .map(|_| {
                (
                    g.next_u64() % (1 << 20),
                    g.next_u64() & 1 == 1,
                    width(&mut g),
                )
            })
            .collect();
        let mut mem = MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
        let mut pending: Vec<u64> = Vec::new();
        let mut backlog: Vec<MemRequest> = reqs
            .iter()
            .enumerate()
            .map(|(i, (line, is_write, width))| MemRequest {
                id: i as u64,
                line_addr: *line,
                kind: if *is_write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                width: *width,
                origin: Origin::Demand { core: 0 },
                arrival: 0,
            })
            .collect();
        // Writes to duplicate lines coalesce: they complete as one DRAM
        // write, so only track the surviving instance per line.
        let mut seen_done = std::collections::HashSet::new();
        let mut write_lines = std::collections::HashMap::new();
        for r in &backlog {
            if r.kind == AccessKind::Write {
                write_lines.insert(r.line_addr, r.id); // last write wins
            }
        }
        let mut expected: std::collections::HashSet<u64> = backlog
            .iter()
            .filter(|r| r.kind == AccessKind::Read || write_lines.get(&r.line_addr) == Some(&r.id))
            .map(|r| r.id)
            .collect();
        // Reads that match a queued write may be forwarded; they still
        // complete. Coalesced-away writes never do.
        backlog.reverse();
        let mut guard = 0u64;
        while !(backlog.is_empty() && pending.is_empty() && expected.is_empty()) {
            while let Some(req) = backlog.pop() {
                let id = req.id;
                let arrival_fixed = MemRequest {
                    arrival: mem.now(),
                    ..req
                };
                if mem.enqueue(arrival_fixed).is_ok() {
                    pending.push(id);
                } else {
                    backlog.push(req);
                    break;
                }
            }
            mem.tick();
            for c in mem.drain_completions() {
                assert!(
                    seen_done.insert(c.request.id),
                    "case {case}: request {} completed twice",
                    c.request.id
                );
                expected.remove(&c.request.id);
                pending.retain(|&p| p != c.request.id);
            }
            guard += 1;
            assert!(guard < 2_000_000, "case {case}: requests must not be lost");
        }
    }
}

#[test]
fn read_latency_has_physical_floor() {
    let mut g = Gen::new(32);
    for case in 0..256 {
        let line = g.next_u64() % (1 << 24);
        let width = width(&mut g);
        let t = Timing::table2();
        let mut mem = MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
        mem.enqueue(MemRequest {
            id: 0,
            line_addr: line,
            kind: AccessKind::Read,
            width,
            origin: Origin::Demand { core: 0 },
            arrival: 0,
        })
        .unwrap();
        let mut done = Vec::new();
        for _ in 0..10_000 {
            mem.tick();
            done = mem.drain_completions();
            if !done.is_empty() {
                break;
            }
        }
        assert_eq!(done.len(), 1, "case {case}");
        // Cold bank: ACT + tRCD + CL + burst is the minimum possible.
        let floor = t.t_rcd + t.t_cas + t.t_burst;
        assert!(
            done[0].latency() >= floor,
            "case {case}: latency {}",
            done[0].latency()
        );
    }
}

#[test]
fn energy_is_monotone_in_work() {
    let run = |n: u64| {
        let mut mem = MemorySystem::new(DramConfig::table2(), PowerParams::ddr4_1600());
        for i in 0..n {
            mem.enqueue(MemRequest {
                id: i,
                line_addr: i * 64,
                kind: AccessKind::Read,
                width: AccessWidth::Full,
                origin: Origin::Demand { core: 0 },
                arrival: 0,
            })
            .unwrap();
        }
        let mut got = 0;
        while got < n as usize {
            mem.tick();
            got += mem.drain_completions().len();
        }
        mem.energy().total_pj()
    };
    let mut g = Gen::new(33);
    for case in 0..16 {
        let extra = 1 + g.next_u64() % 15;
        assert!(run(4 + extra) > run(4), "case {case}: extra {extra}");
    }
}
