//! The traced run's per-layer measurements. Each layer's public API is
//! timed from outside, on the stream a workload's cores would generate:
//! trace events are replayed through the LLC, the LLC misses' real
//! contents through compression, the metadata schemes' engines and the
//! predictor, and the miss and writeback stream through the cycle-level
//! DRAM backend the way the event engine drives it.

use std::hint::black_box;
use std::time::Instant;

use attache_cache::{Llc, MetadataCache};
use attache_compress::{Block, CompressionEngine, CompressionOutcome};
use attache_core::copr::{Copr, CoprConfig};
use attache_core::{Blem, Cram, MemoizedEngine};
use attache_dram::{new_backend, AccessKind, AccessWidth, BackendKind, MemRequest, Origin};
use attache_sim::SimConfig;
use attache_workloads::{DataSynthesizer, Profile, TraceGenerator};

use crate::stats::median;
use crate::workloads::Scale;

/// Host time and operation count accumulated over a workload's profiles.
#[derive(Debug, Default, Clone, Copy)]
pub struct Cost {
    pub ns: f64,
    pub ops: u64,
}

impl Cost {
    fn add(&mut self, ns: f64, ops: u64) {
        self.ns += ns;
        self.ops += ops;
    }

    /// Host nanoseconds per operation.
    pub fn per_op(&self) -> f64 {
        self.ns / self.ops.max(1) as f64
    }
}

/// A useful-outcome count against attempts.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ratio {
    pub hits: u64,
    pub total: u64,
}

impl Ratio {
    fn add(&mut self, hits: u64, total: u64) {
        self.hits += hits;
        self.total += total;
    }

    pub fn value(&self) -> f64 {
        self.hits as f64 / self.total.max(1) as f64
    }
}

/// Everything the layer replays measured.
#[derive(Debug, Default)]
pub struct Layers {
    pub trace: Cost,
    pub synth: Cost,
    pub llc: Cost,
    pub llc_miss: Ratio,
    pub metacache: Cost,
    pub metacache_hit: Ratio,
    pub engine: Cost,
    pub decompress: Cost,
    pub fits: Ratio,
    pub memo: Cost,
    pub memo_hit: Ratio,
    pub copr: Cost,
    pub copr_correct: Ratio,
    pub blem_read: Cost,
    pub blem_write: Cost,
    pub cram_read: Cost,
    pub cram_write: Cost,
    pub dram_ticks: Cost,
    pub dram_requests: Cost,
    pub dram_cycles: Cost,
    pub dram_executed: Ratio,
    /// Functional checks run on the replayed data, and the ones that failed.
    pub checks: u64,
    pub failures: Vec<String>,
}

/// Median over `reps` runs of `f`, which returns its own elapsed ns.
fn timed(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1)).map(|_| f()).collect();
    median(&samples).expect("at least one repetition")
}

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

impl Layers {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Replays one profile's 8-core stream through every layer, keeping
    /// `reads_in_flight` reads in the DRAM backend.
    pub fn replay_profile(
        &mut self,
        profile: &Profile,
        cfg: &SimConfig,
        seed: u64,
        scale: &Scale,
        reads_in_flight: usize,
    ) {
        let cores = cfg.core.cores;
        let per_core = scale.stream_events_per_core;
        let reps = scale.layer_reps;
        // Per-core generators seeded the way the simulator seeds its cores;
        // each core's footprint is packed after the previous one's.
        let generators = || -> Vec<TraceGenerator> {
            (0..cores)
                .map(|i| {
                    TraceGenerator::new(profile, seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9))
                })
                .collect()
        };
        let mut stream = Vec::with_capacity(cores * per_core);
        let mut gens = generators();
        for _ in 0..per_core {
            for (i, g) in gens.iter_mut().enumerate() {
                let e = g.next_event();
                stream.push((
                    i as u64 * profile.footprint_lines + e.line_offset,
                    e.is_write,
                ));
            }
        }
        let events = stream.len() as u64;
        self.trace.add(
            timed(reps, || {
                let mut gens = generators();
                let t = Instant::now();
                for _ in 0..per_core {
                    for g in gens.iter_mut() {
                        black_box(g.next_event());
                    }
                }
                elapsed_ns(t)
            }),
            events,
        );

        // LLC: the ordered memory traffic is every miss's fill read, each
        // preceded by the dirty victim it evicted.
        let mut traffic: Vec<(u64, bool)> = Vec::new();
        let mut misses: Vec<u64> = Vec::new();
        let mut llc = Llc::new(cfg.llc);
        for &(line, write) in &stream {
            let a = llc.access_line(line, write);
            if !a.hit {
                if let Some(victim) = a.writeback {
                    traffic.push((victim, true));
                }
                traffic.push((line, false));
                misses.push(line);
            }
        }
        let s = llc.stats();
        self.check(
            s.hits + s.misses == s.accesses && s.accesses == events,
            || {
                format!(
                    "LLC counted {} hits + {} misses for {} accesses",
                    s.hits, s.misses, events
                )
            },
        );
        self.llc_miss.add(misses.len() as u64, events);
        self.llc.add(
            timed(reps, || {
                let mut llc = Llc::new(cfg.llc);
                let t = Instant::now();
                for &(line, write) in &stream {
                    black_box(llc.access_line(line, write));
                }
                elapsed_ns(t)
            }),
            events,
        );
        drop(stream);

        // Metadata cache: one lookup per memory request, as the
        // Metadata-Cache scheme does on demand reads and writebacks.
        let mut mc = MetadataCache::new(cfg.metadata_cache);
        let mc_hits = traffic
            .iter()
            .filter(|&&(line, _)| mc.lookup(line).hit)
            .count() as u64;
        self.metacache_hit.add(mc_hits, traffic.len() as u64);
        self.metacache.add(
            timed(reps, || {
                let mut mc = MetadataCache::new(cfg.metadata_cache);
                let t = Instant::now();
                for &(line, _) in &traffic {
                    black_box(mc.lookup(line));
                }
                elapsed_ns(t)
            }),
            traffic.len() as u64,
        );

        // Contents of the missed lines, as the functional memory holds
        // them before any store.
        let synth = DataSynthesizer::new(seed);
        let blocks: Vec<Block> = misses
            .iter()
            .map(|&l| synth.block_for(&profile.data, l))
            .collect();
        let n = blocks.len() as u64;
        self.synth.add(
            timed(reps, || {
                let t = Instant::now();
                for &l in &misses {
                    black_box(synth.block_for(&profile.data, l));
                }
                elapsed_ns(t)
            }),
            n,
        );

        let engine = CompressionEngine::new();
        let outcomes: Vec<CompressionOutcome> = blocks.iter().map(|b| engine.compress(b)).collect();
        let fits = outcomes.iter().filter(|o| o.fits_subrank()).count() as u64;
        self.fits.add(fits, n);
        let roundtrip = blocks
            .iter()
            .zip(&outcomes)
            .all(|(b, o)| engine.decompress(o) == *b);
        self.check(roundtrip, || {
            format!("{}: compression round trip lost data", profile.name)
        });
        self.engine.add(
            timed(reps, || {
                let t = Instant::now();
                for b in &blocks {
                    black_box(engine.compress(black_box(b)));
                }
                elapsed_ns(t)
            }),
            n,
        );
        self.decompress.add(
            timed(reps, || {
                let t = Instant::now();
                for o in &outcomes {
                    black_box(engine.decompress(black_box(o)));
                }
                elapsed_ns(t)
            }),
            n,
        );

        let memo = MemoizedEngine::with_enabled(true);
        let same = blocks
            .iter()
            .zip(&outcomes)
            .all(|(b, o)| memo.compress(b) == *o);
        self.check(same, || {
            format!(
                "{}: memoized engine disagrees with the engine",
                profile.name
            )
        });
        let st = memo.stats();
        self.memo_hit.add(st.hits, st.hits + st.misses);
        self.memo.add(
            timed(reps, || {
                let memo = MemoizedEngine::with_enabled(true);
                let t = Instant::now();
                for b in &blocks {
                    black_box(memo.compress(black_box(b)));
                }
                elapsed_ns(t)
            }),
            n,
        );

        // COPR: predict before the read, then record and train on the
        // truth the stored header reveals.
        let total_lines = cores as u64 * profile.footprint_lines;
        let truth: Vec<bool> = outcomes.iter().map(|o| o.fits_subrank()).collect();
        let run_copr = || {
            let mut copr = Copr::new(CoprConfig::paper_default(total_lines));
            let t = Instant::now();
            for (&line, &actual) in misses.iter().zip(&truth) {
                let p = copr.predict(line);
                copr.record(line, p, actual);
                copr.train(line, actual);
            }
            (elapsed_ns(t), copr.stats())
        };
        let (_, cs) = run_copr();
        self.copr_correct.add(cs.correct, cs.predictions);
        self.copr.add(timed(reps, || run_copr().0), n);

        // BLEM and CRAM: write every missed line, then read it back.
        let mut blem_ok = true;
        let (w, r) = pair_timed(reps, || {
            let mut blem = Blem::new(seed);
            let t = Instant::now();
            let images: Vec<_> = misses
                .iter()
                .zip(&blocks)
                .map(|(&l, b)| blem.write_line(l, b).image)
                .collect();
            let w = elapsed_ns(t);
            let t = Instant::now();
            let decoded: Vec<Block> = misses
                .iter()
                .zip(&images)
                .map(|(&l, img)| blem.read_line(l, img).0)
                .collect();
            let r = elapsed_ns(t);
            blem_ok &= decoded == blocks;
            (w, r)
        });
        self.blem_write.add(w, n);
        self.blem_read.add(r, n);
        self.check(blem_ok, || {
            format!("{}: BLEM read back different data", profile.name)
        });

        let mut cram_ok = true;
        let (w, r) = pair_timed(reps, || {
            let mut cram = Cram::new(seed);
            let t = Instant::now();
            let images: Vec<_> = misses
                .iter()
                .zip(&blocks)
                .map(|(&l, b)| cram.write_line(l, b).image)
                .collect();
            let w = elapsed_ns(t);
            let t = Instant::now();
            let decoded: Vec<Block> = misses
                .iter()
                .zip(&images)
                .map(|(&l, img)| cram.read_line(l, img).0)
                .collect();
            let r = elapsed_ns(t);
            cram_ok &= decoded == blocks;
            (w, r)
        });
        self.cram_write.add(w, n);
        self.cram_read.add(r, n);
        self.check(cram_ok, || {
            format!("{}: CRAM read back different data", profile.name)
        });
        drop(blocks);
        drop(outcomes);

        let reads = traffic.iter().filter(|&&(_, w)| !w).count() as u64;
        let mut counts = None;
        let ns = timed(reps, || {
            let (ns, c) = replay_dram(cfg, &traffic, reads_in_flight);
            counts = Some(c);
            ns
        });
        let (executed, cycles, reads_done) = counts.expect("at least one replay");
        self.check(reads_done == reads, || {
            format!(
                "{}: DRAM replay completed {reads_done} of {reads} reads",
                profile.name
            )
        });
        self.dram_ticks.add(ns, executed);
        self.dram_requests.add(ns, traffic.len() as u64);
        self.dram_cycles.add(ns, cycles);
        self.dram_executed.add(executed, cycles);
    }
}

/// Closed-loop replay of `traffic` through the cycle-level backend: at
/// most `in_flight` reads outstanding, writes posted, and idle cycles
/// skipped through `next_event_cached`/`advance_noop` with `tick_event` on
/// every executed cycle, as the event engine drives it. Returns the host
/// ns taken and the executed ticks, simulated cycles and completed reads.
fn replay_dram(
    cfg: &SimConfig,
    traffic: &[(u64, bool)],
    in_flight: usize,
) -> (f64, (u64, u64, u64)) {
    let mut mem = new_backend(BackendKind::Cycle, cfg.dram, cfg.power);
    let mut completions = Vec::new();
    let (mut next, mut outstanding, mut executed, mut reads_done) = (0usize, 0usize, 0u64, 0u64);
    let cores = cfg.core.cores;
    let t = Instant::now();
    loop {
        while let Some(&(line, write)) = traffic.get(next) {
            if !write && outstanding >= in_flight {
                break;
            }
            let req = MemRequest {
                id: next as u64,
                line_addr: line,
                kind: if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                width: AccessWidth::Full,
                origin: if write {
                    Origin::Writeback
                } else {
                    Origin::Demand {
                        core: (next % cores) as u8,
                    }
                },
                arrival: mem.now(),
            };
            if mem.enqueue(req).is_err() {
                break;
            }
            outstanding += usize::from(!write);
            next += 1;
        }
        if next == traffic.len() && outstanding == 0 {
            break;
        }
        let now = mem.now();
        let horizon = mem.next_event_cached();
        if horizon != u64::MAX && horizon > now + 1 {
            mem.advance_noop(horizon - now - 1);
        }
        mem.tick_event();
        executed += 1;
        mem.drain_completions_into(&mut completions);
        for c in completions.drain(..) {
            if c.request.kind == AccessKind::Read {
                outstanding -= 1;
                reads_done += 1;
            }
        }
    }
    (elapsed_ns(t), (executed, mem.now(), reads_done))
}

/// Like [`timed`] for a closure measuring two phases; medians per phase.
fn pair_timed(reps: usize, mut f: impl FnMut() -> (f64, f64)) -> (f64, f64) {
    let (a, b): (Vec<f64>, Vec<f64>) = (0..reps.max(1)).map(|_| f()).unzip();
    (
        median(&a).expect("reps >= 1"),
        median(&b).expect("reps >= 1"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{pinned_config, SMOKE};
    use attache_sim::MetadataStrategyKind;

    #[test]
    fn replays_cover_every_layer_and_pass_their_checks() {
        let cfg = pinned_config(MetadataStrategyKind::Baseline, 1, 0);
        let mut layers = Layers::default();
        for (p, in_flight) in [(Profile::stream(), 16), (Profile::chase(), 1)] {
            layers.replay_profile(&p, &cfg, 5, &SMOKE, in_flight);
        }
        assert!(layers.failures.is_empty(), "{:?}", layers.failures);
        assert_eq!(layers.checks, 2 * 6);
        for (name, c) in [
            ("trace", layers.trace),
            ("llc", layers.llc),
            ("metacache", layers.metacache),
            ("synth", layers.synth),
            ("engine", layers.engine),
            ("memo", layers.memo),
            ("copr", layers.copr),
            ("blem_write", layers.blem_write),
            ("cram_read", layers.cram_read),
            ("dram_cycles", layers.dram_cycles),
        ] {
            assert!(c.ops > 0 && c.ns > 0.0, "{name}: {c:?}");
        }
        // STREAM and CHASE data is about 55% compressible.
        assert!(
            (0.3..0.8).contains(&layers.fits.value()),
            "{:?}",
            layers.fits
        );
        assert!(layers.dram_executed.value() > 0.0 && layers.dram_executed.value() <= 1.0);
    }
}
