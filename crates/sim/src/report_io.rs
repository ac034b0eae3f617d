//! Plain-text serialization for [`RunReport`] — the on-disk format behind
//! the experiment harness's per-job report cache.
//!
//! The workspace carries no crates.io dependencies (offline sandboxes must
//! build it), so this is a hand-rolled line-oriented `key value` format
//! rather than serde. Two properties matter more than prettiness:
//!
//! * **Bit-exactness.** Floating-point fields are stored as the hex IEEE-754
//!   bit pattern, so a report loaded from the cache is indistinguishable —
//!   down to the last ULP — from the report the simulation produced. This is
//!   what lets figure binaries promise byte-identical output whether a grid
//!   point was recomputed or replayed from cache.
//! * **Stale-key detection.** The caller's cache key (a canonical rendering
//!   of the full job configuration) is embedded in the file; readers that
//!   pass `expected_key` reject files whose key differs, so a config change
//!   — or a pathological hash collision in the cache file name — reads as a
//!   cache miss instead of silently returning the wrong run.

use attache_cache::metadata_cache::MetadataTraffic;
use attache_cache::CacheStats;
use attache_core::blem::BlemStats;
use attache_core::copr::CoprStats;
use attache_core::cram::CramStats;
use attache_core::replacement_area::ReplacementAreaStats;
use attache_dram::{ChannelStats, EnergyBreakdown};
use std::collections::HashMap;
use std::fmt::Write as _;

use crate::config::MetadataStrategyKind;
use crate::stats::RunReport;

/// First line of every serialized report; bumped on breaking layout changes
/// so old cache files read as misses, never as garbage.
pub const FORMAT_VERSION: &str = "attache-report-v1";

fn push_u64(out: &mut String, key: &str, v: u64) {
    let _ = writeln!(out, "{key} {v}");
}

fn push_f64(out: &mut String, key: &str, v: f64) {
    // Hex bit pattern for exactness; the decimal rendering is a comment for
    // humans inspecting cache files and is ignored by the parser.
    let _ = writeln!(out, "{key} {:016x} # {v:.6}", v.to_bits());
}

/// Serializes `report` with the caller's cache `key` embedded for
/// stale-entry detection. `key` must be a single line.
pub fn to_text(report: &RunReport, key: &str) -> String {
    debug_assert!(!key.contains('\n'), "cache key must be a single line");
    let mut s = String::with_capacity(2048);
    let _ = writeln!(s, "{FORMAT_VERSION}");
    let _ = writeln!(s, "key {key}");
    let _ = writeln!(s, "name {}", report.name);
    let _ = writeln!(s, "strategy {}", report.strategy);
    push_u64(&mut s, "bus_cycles", report.bus_cycles);
    push_u64(&mut s, "instructions", report.instructions);

    let m = &report.mem;
    push_u64(&mut s, "mem.cycles", m.cycles);
    push_u64(&mut s, "mem.demand_reads", m.demand_reads);
    push_u64(&mut s, "mem.corrective_reads", m.corrective_reads);
    push_u64(&mut s, "mem.metadata_reads", m.metadata_reads);
    push_u64(
        &mut s,
        "mem.replacement_area_reads",
        m.replacement_area_reads,
    );
    push_u64(&mut s, "mem.data_writes", m.data_writes);
    push_u64(&mut s, "mem.metadata_writes", m.metadata_writes);
    push_u64(
        &mut s,
        "mem.replacement_area_writes",
        m.replacement_area_writes,
    );
    push_u64(&mut s, "mem.row_hits", m.row_hits);
    push_u64(&mut s, "mem.row_misses", m.row_misses);
    push_u64(&mut s, "mem.activates", m.activates);
    push_u64(&mut s, "mem.precharges", m.precharges);
    push_u64(&mut s, "mem.refreshes", m.refreshes);
    push_u64(&mut s, "mem.bytes", m.bytes);
    push_u64(&mut s, "mem.busy_bus_cycles", m.busy_bus_cycles);
    push_u64(&mut s, "mem.read_latency_sum", m.read_latency_sum);
    push_u64(&mut s, "mem.read_latency_count", m.read_latency_count);
    push_u64(&mut s, "mem.forwarded_reads", m.forwarded_reads);
    push_u64(&mut s, "mem.drain_cycles", m.drain_cycles);
    push_u64(&mut s, "mem.drain_episodes", m.drain_episodes);
    // Emitted only when nonzero so integrity-off reports stay
    // byte-identical to their pre-scrub goldens; the parser defaults
    // a missing line to 0.
    if m.scrub_reads != 0 {
        push_u64(&mut s, "mem.scrub_reads", m.scrub_reads);
    }

    let e = &report.energy;
    push_f64(&mut s, "energy.act_pre_pj", e.act_pre_pj);
    push_f64(&mut s, "energy.read_pj", e.read_pj);
    push_f64(&mut s, "energy.write_pj", e.write_pj);
    push_f64(&mut s, "energy.refresh_pj", e.refresh_pj);
    push_f64(&mut s, "energy.background_pj", e.background_pj);
    push_f64(&mut s, "energy.io_pj", e.io_pj);

    push_cache_stats(&mut s, "llc", &report.llc);

    let st = &report.strategy_stats;
    push_u64(&mut s, "strategy.reads", st.reads);
    push_u64(&mut s, "strategy.compressed_reads", st.compressed_reads);
    push_u64(&mut s, "strategy.writes", st.writes);
    push_u64(&mut s, "strategy.compressed_writes", st.compressed_writes);

    if let Some(c) = &report.copr {
        push_u64(&mut s, "copr.predictions", c.predictions);
        push_u64(&mut s, "copr.correct", c.correct);
        push_u64(&mut s, "copr.underpredictions", c.underpredictions);
        push_u64(&mut s, "copr.overpredictions", c.overpredictions);
    }
    if let Some(b) = &report.blem {
        push_u64(&mut s, "blem.writes", b.writes);
        push_u64(&mut s, "blem.compressed_writes", b.compressed_writes);
        push_u64(&mut s, "blem.write_collisions", b.write_collisions);
        push_u64(&mut s, "blem.reads", b.reads);
        push_u64(&mut s, "blem.compressed_reads", b.compressed_reads);
        push_u64(&mut s, "blem.read_collisions", b.read_collisions);
    }
    if let Some(r) = &report.ra {
        push_u64(&mut s, "ra.writes", r.writes);
        push_u64(&mut s, "ra.reads", r.reads);
    }
    if let Some((stats, traffic)) = &report.metadata_cache {
        push_cache_stats(&mut s, "mcache", stats);
        push_u64(&mut s, "mtraffic.install_reads", traffic.install_reads);
        push_u64(&mut s, "mtraffic.eviction_writes", traffic.eviction_writes);
    }
    if let Some(c) = &report.cram {
        push_u64(&mut s, "cram.writes", c.writes);
        push_u64(&mut s, "cram.compressed_writes", c.compressed_writes);
        push_u64(&mut s, "cram.write_exceptions", c.write_exceptions);
        push_u64(&mut s, "cram.reads", c.reads);
        push_u64(&mut s, "cram.compressed_reads", c.compressed_reads);
        push_u64(&mut s, "cram.read_exceptions", c.read_exceptions);
    }
    if let Some(i) = &report.integrity {
        push_u64(&mut s, "integrity.reads_checked", i.reads_checked);
        push_u64(&mut s, "integrity.injected_flips", i.injected_flips);
        push_u64(&mut s, "integrity.sticky_lines", i.sticky_lines);
        push_u64(&mut s, "integrity.corrected0", i.corrected[0]);
        push_u64(&mut s, "integrity.corrected1", i.corrected[1]);
        push_u64(&mut s, "integrity.uncorrectable0", i.uncorrectable[0]);
        push_u64(&mut s, "integrity.uncorrectable1", i.uncorrectable[1]);
        push_u64(&mut s, "integrity.recovered", i.recovered);
        push_u64(&mut s, "integrity.sdc_averted", i.sdc_averted);
        push_u64(&mut s, "integrity.data_loss", i.data_loss);
        push_u64(
            &mut s,
            "integrity.silent_corruption_reads",
            i.silent_corruption_reads,
        );
        push_u64(
            &mut s,
            "integrity.corrupted_bytes_delivered",
            i.corrupted_bytes_delivered,
        );
        push_u64(&mut s, "integrity.scrub_checks", i.scrub_checks);
        push_u64(&mut s, "integrity.scrub_corrected", i.scrub_corrected);
        push_u64(
            &mut s,
            "integrity.scrub_uncorrectable",
            i.scrub_uncorrectable,
        );
        push_u64(&mut s, "integrity.scrub_skipped_busy", i.scrub_skipped_busy);
        push_u64(&mut s, "integrity.ecc_check_bytes", i.ecc_check_bytes);
    }
    s
}

fn push_cache_stats(out: &mut String, prefix: &str, c: &CacheStats) {
    push_u64(out, &format!("{prefix}.accesses"), c.accesses);
    push_u64(out, &format!("{prefix}.hits"), c.hits);
    push_u64(out, &format!("{prefix}.misses"), c.misses);
    push_u64(out, &format!("{prefix}.evictions"), c.evictions);
    push_u64(out, &format!("{prefix}.dirty_evictions"), c.dirty_evictions);
}

/// The parsed `key value` map with typed getters.
struct Fields<'a>(HashMap<&'a str, &'a str>);

impl<'a> Fields<'a> {
    fn str(&self, key: &str) -> Option<&'a str> {
        self.0.get(key).copied()
    }

    fn u64(&self, key: &str) -> Option<u64> {
        self.str(key)?.parse().ok()
    }

    fn f64(&self, key: &str) -> Option<f64> {
        // The hex bit pattern is the first token; anything after (the
        // human-readable decimal comment) is ignored.
        let tok = self.str(key)?.split_whitespace().next()?;
        Some(f64::from_bits(u64::from_str_radix(tok, 16).ok()?))
    }

    fn cache_stats(&self, prefix: &str) -> Option<CacheStats> {
        Some(CacheStats {
            accesses: self.u64(&format!("{prefix}.accesses"))?,
            hits: self.u64(&format!("{prefix}.hits"))?,
            misses: self.u64(&format!("{prefix}.misses"))?,
            evictions: self.u64(&format!("{prefix}.evictions"))?,
            dirty_evictions: self.u64(&format!("{prefix}.dirty_evictions"))?,
        })
    }
}

/// Writes a run's [`Observation`](crate::observe::Observation) next to
/// its results: `<stem>.metrics.json` (the cumulative registry), and —
/// when epoch sampling was on — `<stem>.series.json` plus
/// `<stem>.series.csv` (the epoch time-series, JSON for tools, CSV for
/// quick plotting). Creates `dir` if needed. Write-only, like the rest
/// of the observability exports: nothing in the workspace parses these
/// files back.
pub fn write_observation(
    dir: &std::path::Path,
    stem: &str,
    obs: &crate::observe::Observation,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("{stem}.metrics.json")),
        attache_metrics::registry_to_json(&obs.registry),
    )?;
    if let Some(series) = &obs.series {
        std::fs::write(
            dir.join(format!("{stem}.series.json")),
            attache_metrics::series_to_json(series),
        )?;
        std::fs::write(
            dir.join(format!("{stem}.series.csv")),
            attache_metrics::series_to_csv(series),
        )?;
    }
    Ok(())
}

/// Parses a report serialized by [`to_text`]. Returns `None` on any
/// malformed, truncated or version-mismatched input, and — when
/// `expected_key` is given — on a cache-key mismatch (a stale or colliding
/// entry).
pub fn from_text(text: &str, expected_key: Option<&str>) -> Option<RunReport> {
    let mut lines = text.lines();
    if lines.next()? != FORMAT_VERSION {
        return None;
    }
    let mut map = HashMap::new();
    for line in lines {
        if let Some((k, v)) = line.split_once(' ') {
            map.insert(k, v);
        }
    }
    let f = Fields(map);
    if let Some(expected) = expected_key {
        if f.str("key") != Some(expected) {
            return None;
        }
    }
    let strategy: MetadataStrategyKind = f.str("strategy")?.parse().ok()?;
    let copr = f.u64("copr.predictions").map(|predictions| {
        Some(CoprStats {
            predictions,
            correct: f.u64("copr.correct")?,
            underpredictions: f.u64("copr.underpredictions")?,
            overpredictions: f.u64("copr.overpredictions")?,
        })
    });
    let blem = f.u64("blem.writes").map(|writes| {
        Some(BlemStats {
            writes,
            compressed_writes: f.u64("blem.compressed_writes")?,
            write_collisions: f.u64("blem.write_collisions")?,
            reads: f.u64("blem.reads")?,
            compressed_reads: f.u64("blem.compressed_reads")?,
            read_collisions: f.u64("blem.read_collisions")?,
        })
    });
    let ra = f.u64("ra.writes").map(|writes| {
        Some(ReplacementAreaStats {
            writes,
            reads: f.u64("ra.reads")?,
        })
    });
    let metadata_cache = f.cache_stats("mcache").map(|stats| {
        Some((
            stats,
            MetadataTraffic {
                install_reads: f.u64("mtraffic.install_reads")?,
                eviction_writes: f.u64("mtraffic.eviction_writes")?,
            },
        ))
    });
    let cram = f.u64("cram.writes").map(|writes| {
        Some(CramStats {
            writes,
            compressed_writes: f.u64("cram.compressed_writes")?,
            write_exceptions: f.u64("cram.write_exceptions")?,
            reads: f.u64("cram.reads")?,
            compressed_reads: f.u64("cram.compressed_reads")?,
            read_exceptions: f.u64("cram.read_exceptions")?,
        })
    });
    let integrity = f.u64("integrity.reads_checked").map(|reads_checked| {
        Some(crate::integrity::IntegrityStats {
            reads_checked,
            injected_flips: f.u64("integrity.injected_flips")?,
            sticky_lines: f.u64("integrity.sticky_lines")?,
            corrected: [
                f.u64("integrity.corrected0")?,
                f.u64("integrity.corrected1")?,
            ],
            uncorrectable: [
                f.u64("integrity.uncorrectable0")?,
                f.u64("integrity.uncorrectable1")?,
            ],
            recovered: f.u64("integrity.recovered")?,
            sdc_averted: f.u64("integrity.sdc_averted")?,
            data_loss: f.u64("integrity.data_loss")?,
            silent_corruption_reads: f.u64("integrity.silent_corruption_reads")?,
            corrupted_bytes_delivered: f.u64("integrity.corrupted_bytes_delivered")?,
            scrub_checks: f.u64("integrity.scrub_checks")?,
            scrub_corrected: f.u64("integrity.scrub_corrected")?,
            scrub_uncorrectable: f.u64("integrity.scrub_uncorrectable")?,
            scrub_skipped_busy: f.u64("integrity.scrub_skipped_busy")?,
            ecc_check_bytes: f.u64("integrity.ecc_check_bytes")?,
        })
    });
    let integrity = match integrity {
        Some(None) => return None,
        other => other.flatten(),
    };
    // An optional section whose presence flag parsed but whose body didn't
    // is a malformed file, not a missing section.
    let (copr, blem, ra, metadata_cache, cram) = match (copr, blem, ra, metadata_cache, cram) {
        (Some(None), ..)
        | (_, Some(None), ..)
        | (_, _, Some(None), _, _)
        | (_, _, _, Some(None), _)
        | (.., Some(None)) => return None,
        (c, b, r, m, x) => (
            c.flatten(),
            b.flatten(),
            r.flatten(),
            m.flatten(),
            x.flatten(),
        ),
    };
    Some(RunReport {
        name: f.str("name")?.to_string(),
        strategy,
        bus_cycles: f.u64("bus_cycles")?,
        instructions: f.u64("instructions")?,
        mem: ChannelStats {
            cycles: f.u64("mem.cycles")?,
            demand_reads: f.u64("mem.demand_reads")?,
            corrective_reads: f.u64("mem.corrective_reads")?,
            metadata_reads: f.u64("mem.metadata_reads")?,
            replacement_area_reads: f.u64("mem.replacement_area_reads")?,
            data_writes: f.u64("mem.data_writes")?,
            metadata_writes: f.u64("mem.metadata_writes")?,
            replacement_area_writes: f.u64("mem.replacement_area_writes")?,
            row_hits: f.u64("mem.row_hits")?,
            row_misses: f.u64("mem.row_misses")?,
            activates: f.u64("mem.activates")?,
            precharges: f.u64("mem.precharges")?,
            refreshes: f.u64("mem.refreshes")?,
            bytes: f.u64("mem.bytes")?,
            busy_bus_cycles: f.u64("mem.busy_bus_cycles")?,
            read_latency_sum: f.u64("mem.read_latency_sum")?,
            read_latency_count: f.u64("mem.read_latency_count")?,
            forwarded_reads: f.u64("mem.forwarded_reads")?,
            drain_cycles: f.u64("mem.drain_cycles")?,
            drain_episodes: f.u64("mem.drain_episodes")?,
            // Absent in pre-scrub reports (and in any run with no scrub
            // traffic): default 0, never a parse failure.
            scrub_reads: f.u64("mem.scrub_reads").unwrap_or(0),
        },
        energy: EnergyBreakdown {
            act_pre_pj: f.f64("energy.act_pre_pj")?,
            read_pj: f.f64("energy.read_pj")?,
            write_pj: f.f64("energy.write_pj")?,
            refresh_pj: f.f64("energy.refresh_pj")?,
            background_pj: f.f64("energy.background_pj")?,
            io_pj: f.f64("energy.io_pj")?,
        },
        llc: f.cache_stats("llc")?,
        strategy_stats: crate::strategy::StrategyStats {
            reads: f.u64("strategy.reads")?,
            compressed_reads: f.u64("strategy.compressed_reads")?,
            writes: f.u64("strategy.writes")?,
            compressed_writes: f.u64("strategy.compressed_writes")?,
        },
        copr,
        blem,
        ra,
        metadata_cache,
        cram,
        integrity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(strategy: MetadataStrategyKind) -> RunReport {
        let mut r = RunReport {
            name: "mcf".into(),
            strategy,
            bus_cycles: 123_456,
            instructions: 4_800_000,
            mem: ChannelStats {
                cycles: 123_456,
                demand_reads: 1000,
                data_writes: 300,
                bytes: 83_200,
                read_latency_sum: 98_765,
                read_latency_count: 1000,
                ..ChannelStats::default()
            },
            energy: EnergyBreakdown {
                act_pre_pj: 1.5e6,
                read_pj: std::f64::consts::PI * 1e5,
                write_pj: 0.1,
                refresh_pj: 2.0,
                background_pj: 3.25e7,
                io_pj: 7.0,
            },
            llc: CacheStats {
                accesses: 50_000,
                hits: 40_000,
                misses: 10_000,
                evictions: 9_000,
                dirty_evictions: 300,
            },
            strategy_stats: crate::strategy::StrategyStats {
                reads: 1000,
                compressed_reads: 600,
                writes: 300,
                compressed_writes: 200,
            },
            copr: None,
            blem: None,
            ra: None,
            metadata_cache: None,
            cram: None,
            integrity: None,
        };
        if strategy == MetadataStrategyKind::Attache {
            r.copr = Some(CoprStats {
                predictions: 1000,
                correct: 880,
                underpredictions: 70,
                overpredictions: 50,
            });
            r.blem = Some(BlemStats {
                writes: 300,
                compressed_writes: 200,
                write_collisions: 1,
                reads: 1000,
                compressed_reads: 600,
                read_collisions: 2,
            });
            r.ra = Some(ReplacementAreaStats {
                writes: 1,
                reads: 2,
            });
        }
        if strategy == MetadataStrategyKind::Cram {
            r.cram = Some(CramStats {
                writes: 300,
                compressed_writes: 200,
                write_exceptions: 1,
                reads: 1000,
                compressed_reads: 600,
                read_exceptions: 2,
            });
        }
        if strategy == MetadataStrategyKind::MetadataCache {
            r.metadata_cache = Some((
                CacheStats {
                    accesses: 10_000,
                    hits: 7_700,
                    misses: 2_300,
                    evictions: 2_200,
                    dirty_evictions: 100,
                },
                MetadataTraffic {
                    install_reads: 2_300,
                    eviction_writes: 100,
                },
            ));
        }
        r
    }

    #[test]
    fn roundtrip_is_exact_for_every_strategy() {
        for strategy in MetadataStrategyKind::ALL {
            let r = sample(strategy);
            let text = to_text(&r, "test-key");
            let back = from_text(&text, Some("test-key")).expect("parses");
            assert_eq!(back, r, "{strategy}");
        }
    }

    #[test]
    fn integrity_section_and_scrub_reads_roundtrip() {
        let mut r = sample(MetadataStrategyKind::Attache);
        r.mem.scrub_reads = 17;
        r.integrity = Some(crate::integrity::IntegrityStats {
            reads_checked: 1000,
            injected_flips: 12,
            sticky_lines: 2,
            corrected: [5, 4],
            uncorrectable: [1, 0],
            recovered: 1,
            sdc_averted: 0,
            data_loss: 0,
            silent_corruption_reads: 0,
            corrupted_bytes_delivered: 0,
            scrub_checks: 17,
            scrub_corrected: 2,
            scrub_uncorrectable: 0,
            scrub_skipped_busy: 3,
            ecc_check_bytes: 5_120,
        });
        let text = to_text(&r, "k");
        assert!(text.contains("mem.scrub_reads 17"));
        let back = from_text(&text, Some("k")).expect("parses");
        assert_eq!(back, r);
        // A present section flag with a truncated body is malformed, not
        // a missing section.
        let cut = text
            .lines()
            .filter(|l| !l.starts_with("integrity.ecc_check_bytes"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(from_text(&cut, Some("k")).is_none());
    }

    #[test]
    fn integrity_off_report_has_no_integrity_lines() {
        // The golden-compatibility contract: a run with every integrity
        // knob off serializes without a single new key.
        let text = to_text(&sample(MetadataStrategyKind::Baseline), "k");
        assert!(!text.contains("integrity."));
        assert!(!text.contains("scrub_reads"));
    }

    #[test]
    fn float_bits_survive_roundtrip() {
        let r = sample(MetadataStrategyKind::Baseline);
        let back = from_text(&to_text(&r, "k"), Some("k")).unwrap();
        assert_eq!(back.energy.read_pj.to_bits(), r.energy.read_pj.to_bits());
    }

    #[test]
    fn key_mismatch_is_a_miss() {
        let r = sample(MetadataStrategyKind::Attache);
        let text = to_text(&r, "key-a");
        assert!(from_text(&text, Some("key-b")).is_none());
        assert!(from_text(&text, Some("key-a")).is_some());
        // Without an expected key the file still parses.
        assert!(from_text(&text, None).is_some());
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let r = sample(MetadataStrategyKind::Baseline);
        let text = to_text(&r, "k").replace(FORMAT_VERSION, "attache-report-v0");
        assert!(from_text(&text, None).is_none());
    }

    #[test]
    fn truncated_file_is_rejected() {
        let r = sample(MetadataStrategyKind::Attache);
        let text = to_text(&r, "k");
        let cut: String = text.lines().take(8).collect::<Vec<_>>().join("\n");
        assert!(from_text(&cut, Some("k")).is_none());
    }
}
