//! One workload's run inside the isolated child process: set-up, timed
//! passes, the traced layer replays, the correctness gate, and the result
//! written to stdout and a JSON file.

use std::path::Path;

use attache_sim::{EngineKind, MetadataStrategyKind, RunReport, BUS_CYCLE_NS};

use crate::json;
use crate::layers::Layers;
use crate::metrics::{catalog, Metrics};
use crate::stats::{geomean, median};
use crate::timed::{self, Job, JobOutcome};
use crate::workloads::{pinned_config, strategy_key, Scale, Workload, STRATEGIES};

/// What the command line asked one child to do.
#[derive(Debug)]
pub struct Request {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: String,
}

/// The paper's RAND speedups over Baseline (Fig. 12): the only
/// per-workload reference the paper publishes for these workloads.
const PAPER_RAND: [(MetadataStrategyKind, f64); 2] = [
    (MetadataStrategyKind::MetadataCache, 0.83),
    (MetadataStrategyKind::Attache, 1.00),
];

/// Success/failure bookkeeping: every job and every check is one attempt.
#[derive(Debug, Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Gate {
    fn record(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures.extend(failures);
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs the request; returns whether every job and check passed.
pub fn run(req: &Request) -> bool {
    let scale: Scale = if req.smoke {
        crate::workloads::SMOKE
    } else {
        crate::workloads::FULL
    };
    let profiles = req.workload.profiles();
    let jobs = timed::jobs_of(&profiles);
    let cfg = pinned_config(
        MetadataStrategyKind::Baseline,
        scale.instructions,
        scale.warmup,
    );
    let cores = cfg.core.cores as u64;
    print_config(req, &scale, &cfg);

    let cat = catalog(req.trace);
    let mut m = Metrics::default();
    let mut gate = Gate::default();
    let passes = if req.trace {
        // The traced run times one pass (for the shares' denominator and
        // the simulated counts), then the layers from outside.
        timed::run_passes(&jobs, &scale, req.seed, cores, 1)
    } else {
        let setup = timed::setup_seconds(&jobs, req.seed, scale.setup_reps);
        let count = req.workload.passes(req.seconds, &scale);
        let passes = timed::run_passes(&jobs, &scale, req.seed, cores, count);
        // Each job's fastest pass: on a shared host a job runs either at
        // full speed or markedly slower while a neighbour contends for the
        // core, and the minimum discards the slow readings.
        let best: Vec<f64> = (0..jobs.len())
            .map(|i| {
                passes
                    .iter()
                    .map(|p| p[i].wall_s)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let instr: u64 = passes[0]
            .iter()
            .filter_map(|o| o.report.as_ref())
            .map(|r| r.instructions + cores * scale.warmup)
            .sum();
        m.set(
            &cat,
            "sim_minstr_per_s",
            instr as f64 / best.iter().sum::<f64>() / 1e6,
        );
        m.set(
            &cat,
            "job_wall_p50_s",
            median(&best).expect("at least one job"),
        );
        println!(
            "time metrics use each of {} jobs' fastest of {} passes",
            best.len(),
            passes.len()
        );
        match setup {
            Ok(s) => {
                m.set(&cat, "setup_s", s);
                gate.record(vec![]);
            }
            Err(e) => gate.record(vec![e]),
        }
        match timed::peak_rss_mb() {
            Ok(v) => {
                m.set(&cat, "peak_rss_mb", v);
                gate.record(vec![]);
            }
            Err(e) => gate.record(vec![e]),
        }
        passes
    };
    for outcome in passes.iter().flatten() {
        gate.record(outcome.failures.clone());
    }
    let first = &passes[0];

    if req.trace {
        for p in &profiles {
            let job = Job {
                profile: p.clone(),
                strategy: MetadataStrategyKind::Attache,
            };
            let run = |e| {
                timed::simulate(
                    &job,
                    scale.cross_instructions,
                    scale.cross_warmup,
                    e,
                    req.seed,
                )
            };
            gate.record(match (run(EngineKind::Cycle), run(EngineKind::Event)) {
                (Ok(c), Ok(e)) if c == e => vec![],
                (Ok(_), Ok(_)) => {
                    vec![format!("{}: cycle and event engines disagree", job.label())]
                }
                (c, e) => c.err().into_iter().chain(e.err()).collect(),
            });
        }
        let mut layers = Layers::default();
        let most = cfg.core.cores * cfg.core.max_outstanding;
        for p in &profiles {
            // The DRAM replay keeps as many reads in flight as the
            // profile's Baseline run held on average (Little's law over its
            // report), so each scheduler pass scans queues as full as the
            // simulation's.
            let in_flight = jobs
                .iter()
                .zip(first)
                .find(|(j, _)| {
                    j.profile.name == p.name && j.strategy == MetadataStrategyKind::Baseline
                })
                .and_then(|(_, o)| o.report.as_ref())
                .map_or(most, |r| {
                    (r.mem.read_latency_sum as f64 / r.mem.cycles.max(1) as f64).round() as usize
                })
                .clamp(1, most);
            println!("dram replay of {}: {in_flight} reads in flight", p.name);
            layers.replay_profile(p, &cfg, req.seed, &scale, in_flight);
        }
        gate.attempted += layers.checks;
        gate.failed += layers.failures.len() as u64;
        gate.failures.extend(layers.failures.iter().cloned());
        layer_metrics(
            &mut m,
            &cat,
            &layers,
            &jobs,
            first,
            cores,
            scale.warmup,
            cfg.dram.channels as u64,
        );
    }

    let problems = m.problems(&cat);
    gate.record(problems);
    let fingerprint = format!("{:016x}", timed::fingerprint(&jobs, first));
    let paper_gap = (req.workload.profiles == ["RAND"])
        .then(|| paper_gap_pts(&jobs, first))
        .flatten();

    for (name, value, unit) in m.iter() {
        let better = cat
            .iter()
            .find(|d| d.name == *name)
            .map_or("", |d| d.better.key());
        println!("{name:<42} {value:>16.6} {unit:<12} {better} is better");
    }
    println!("sim_fingerprint {} {fingerprint}", req.workload.name);
    if let Some(g) = paper_gap {
        println!("paper_gap_pts {g:.3} (mean |100 x (speedup - paper)| over MetadataCache 0.83x, Attache 1.00x on RAND)");
    }
    for f in &gate.failures {
        println!("FAILED: {f}");
    }
    let correct = gate.failed == 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        gate.attempted,
        gate.failed,
        m.to_json()
    );
    let file = format!(
        "{{\"schema\": {}, \"workload\": {}, \"seed\": {}, \"trace\": {}, \"smoke\": {}, \
         \"seconds\": {}, \"passes\": {}, \"jobs_per_pass\": {}, \"sim_fingerprint\": {}, \"paper_gap_pts\": {}, \
         \"failures\": [{}], \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}\n",
        json::quote(crate::compare::SCHEMA),
        json::quote(req.workload.name),
        req.seed,
        u8::from(req.trace),
        req.smoke,
        json::number(req.seconds),
        passes.len(),
        jobs.len(),
        json::quote(&fingerprint),
        paper_gap.map_or("null".to_string(), json::number),
        gate.failures.iter().map(|f| json::quote(f)).collect::<Vec<_>>().join(", "),
        gate.attempted,
        gate.failed,
        m.to_json()
    );
    let name = format!(
        "{}_seed{}_trace{}{}.json",
        req.workload.name,
        req.seed,
        u8::from(req.trace),
        if req.smoke { "_smoke" } else { "" }
    );
    let path = Path::new(&req.out_dir).join(name);
    match std::fs::create_dir_all(&req.out_dir).and_then(|()| std::fs::write(&path, file)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            return false;
        }
    }
    println!("{result}");
    correct
}

fn print_config(req: &Request, scale: &Scale, cfg: &attache_sim::SimConfig) {
    let d = &cfg.dram;
    let strategies: Vec<String> = STRATEGIES.iter().map(|s| s.to_string()).collect();
    println!(
        "attache_benchmark: workload {} ({}) x [{}], seed {}, trace {}{}",
        req.workload.name,
        req.workload.profiles.join(", "),
        strategies.join(", "),
        req.seed,
        u8::from(req.trace),
        if req.smoke { ", smoke lengths" } else { "" }
    );
    println!("  why: {}", req.workload.why);
    println!(
        "  dram: {} channels x {} ranks x {} sub-ranks x {} banks ({} groups x {}), {} rows x {} lines per row, cycle backend",
        d.channels,
        d.ranks,
        d.subranks,
        d.bank_groups * d.banks_per_group,
        d.bank_groups,
        d.banks_per_group,
        d.rows,
        d.blocks_per_row
    );
    println!(
        "  llc: {} KiB, {}-way, {} B lines, {} cycles; cores: {} x {}-wide, ROB {}, {} MSHRs",
        cfg.llc.size_bytes / 1024,
        cfg.llc.ways,
        cfg.llc.line_bytes,
        cfg.llc.latency_cycles,
        cfg.core.cores,
        cfg.core.issue_width,
        cfg.core.rob_size,
        cfg.core.max_outstanding
    );
    println!(
        "  run: {} measured + {} warm-up instructions per core, {:?} engine, observers/faults/integrity off, \
         caches start empty, statistics after warm-up; one job at a time, {} timed passes",
        scale.instructions,
        scale.warmup,
        cfg.engine,
        if req.trace { 1 } else { req.workload.passes(req.seconds, scale) }
    );
    println!(
        "  host: git {}, nproc {}",
        git_sha(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("  child environment: no ATTACHE_* variables");
}

/// The checked-out commit, read from `.git` in the working directory
/// only: outside a git checkout nothing above it is consulted.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn paper_gap_pts(jobs: &[Job], pass: &[JobOutcome]) -> Option<f64> {
    let report = |s: MetadataStrategyKind| {
        jobs.iter()
            .zip(pass)
            .find(|(j, _)| j.strategy == s)
            .and_then(|(_, o)| o.report.as_ref())
    };
    let base = report(MetadataStrategyKind::Baseline)?;
    let mut gaps = Vec::new();
    for (s, paper) in PAPER_RAND {
        gaps.push((100.0 * (report(s)?.speedup_vs(base) - paper)).abs());
    }
    Some(gaps.iter().sum::<f64>() / gaps.len() as f64)
}

/// Per-layer metrics: host costs from the replays, and simulated counts
/// aggregated over the pass's reports.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    m: &mut Metrics,
    cat: &[crate::metrics::MetricDef],
    l: &Layers,
    jobs: &[Job],
    pass: &[JobOutcome],
    cores: u64,
    warmup: u64,
    channels: u64,
) {
    let mut set = |name: &str, v: f64| m.set(cat, name, v);
    set("workloads.trace_ns", l.trace.per_op());
    set("workloads.synth_ns", l.synth.per_op());
    set("cache.llc_ns", l.llc.per_op());
    set("cache.llc_miss_ratio", l.llc_miss.value());
    set("cache.metacache_ns", l.metacache.per_op());
    set("cache.metacache_hit_ratio", l.metacache_hit.value());
    set("compress.engine_ns", l.engine.per_op());
    set("compress.decompress_ns", l.decompress.per_op());
    set("compress.fits_ratio", l.fits.value());
    set("core.memo_ns", l.memo.per_op());
    set("core.memo_hit_ratio", l.memo_hit.value());
    set("core.copr_ns", l.copr.per_op());
    set("core.copr_accuracy", l.copr_correct.value());
    set("core.blem_read_ns", l.blem_read.per_op());
    set("core.blem_write_ns", l.blem_write.per_op());
    set("core.cram_read_ns", l.cram_read.per_op());
    set("core.cram_write_ns", l.cram_write.per_op());
    set("dram.ns_per_tick", l.dram_ticks.per_op());
    set("dram.ns_per_request", l.dram_requests.per_op());
    set("dram.ns_per_sim_cycle", l.dram_cycles.per_op());
    set("dram.executed_tick_ratio", l.dram_executed.value());

    // Shares: per-call cost x the calls each report implies, over the
    // pass's wall time. Reports count the measured region only, so counts
    // are scaled up by the warm-up's share of retired instructions.
    let runs: Vec<(&Job, &RunReport, f64)> = jobs
        .iter()
        .zip(pass)
        .filter_map(|(j, o)| o.report.as_ref().map(|r| (j, r, o.wall_s)))
        .collect();
    let (mut workloads, mut cache, mut compress, mut core, mut dram, mut wall) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for &(job, r, wall_s) in &runs {
        let k = (r.instructions + cores * warmup) as f64 / r.instructions.max(1) as f64;
        let n = |count: u64| count as f64 * k;
        let st = &r.strategy_stats;
        let functional = job.strategy != MetadataStrategyKind::Baseline;
        workloads += l.trace.per_op() * n(r.llc.accesses);
        if functional {
            workloads += l.synth.per_op() * n(st.reads + st.writes);
        }
        cache += l.llc.per_op() * n(r.llc.accesses);
        if let Some((mc, _)) = &r.metadata_cache {
            cache += l.metacache.per_op() * n(mc.accesses);
        }
        // Direct engine calls: compressibility probes of MetadataCache and
        // Ideal on every read and write; Attache and Cram probe only lines
        // never written (their written lines go through BLEM / CRAM).
        let probes = match job.strategy {
            MetadataStrategyKind::Baseline => 0,
            MetadataStrategyKind::MetadataCache | MetadataStrategyKind::Oracle => {
                st.reads + st.writes
            }
            MetadataStrategyKind::Attache => st.reads.saturating_sub(r.blem.map_or(0, |b| b.reads)),
            MetadataStrategyKind::Cram => st.reads.saturating_sub(r.cram.map_or(0, |c| c.reads)),
        };
        compress += l.engine.per_op() * n(probes);
        if let Some(c) = &r.copr {
            core += l.copr.per_op() * n(c.predictions);
        }
        if let Some(b) = &r.blem {
            core += l.blem_read.per_op() * n(b.reads) + l.blem_write.per_op() * n(b.writes);
        }
        if let Some(c) = &r.cram {
            core += l.cram_read.per_op() * n(c.reads) + l.cram_write.per_op() * n(c.writes);
        }
        dram += l.dram_requests.per_op() * n(r.mem.total_reads() + r.mem.total_writes());
        wall += wall_s * 1e9;
    }
    let shares = [
        ("workloads.share", workloads),
        ("cache.share", cache),
        ("compress.share", compress),
        ("core.share", core),
        ("dram.share", dram),
    ];
    let mut attributed = 0.0;
    for (name, ns) in shares {
        set(name, ns / wall);
        attributed += ns / wall;
    }
    set("sim.unattributed_share", 1.0 - attributed);
    let bus_cycles: u64 = runs.iter().map(|(_, r, _)| r.bus_cycles).sum();
    set("sim.mcyc_per_s", bus_cycles as f64 / (wall / 1e9) / 1e6);
    set("sim.ns_per_bus_cycle", wall / bus_cycles.max(1) as f64);

    // Simulated counts, from the reports alone.
    let of = |s: MetadataStrategyKind| -> Vec<&(&Job, &RunReport, f64)> {
        runs.iter().filter(|(j, _, _)| j.strategy == s).collect()
    };
    let sum = |rs: &[&(&Job, &RunReport, f64)], f: &dyn Fn(&RunReport) -> u64| -> u64 {
        rs.iter().map(|(_, r, _)| f(r)).sum()
    };
    let all: Vec<_> = runs.iter().collect();
    set(
        "cache.llc_mpki",
        1000.0 * ratio(sum(&all, &|r| r.llc.misses), sum(&all, &|r| r.instructions)),
    );
    let attache = of(MetadataStrategyKind::Attache);
    set(
        "core.copr_accuracy.attache",
        ratio(
            sum(&attache, &|r| r.copr.map_or(0, |c| c.correct)),
            sum(&attache, &|r| r.copr.map_or(0, |c| c.predictions)),
        ),
    );
    let mc = of(MetadataStrategyKind::MetadataCache);
    set(
        "cache.metacache_hit_ratio.metadatacache",
        ratio(
            sum(&mc, &|r| r.metadata_cache.map_or(0, |(c, _)| c.hits)),
            sum(&mc, &|r| r.metadata_cache.map_or(0, |(c, _)| c.accesses)),
        ),
    );
    set(
        "sim.metadata_traffic_ratio.metadatacache",
        ratio(
            sum(&mc, &|r| {
                r.mem.metadata_reads
                    + r.mem.metadata_writes
                    + r.mem.replacement_area_reads
                    + r.mem.replacement_area_writes
            }),
            sum(&mc, &|r| {
                r.mem.demand_reads + r.mem.corrective_reads + r.mem.data_writes
            }),
        ),
    );
    for s in [MetadataStrategyKind::Attache, MetadataStrategyKind::Cram] {
        let rs = of(s);
        set(
            &format!("sim.corrective_read_ratio.{}", strategy_key(s)),
            ratio(
                sum(&rs, &|r| r.mem.corrective_reads),
                sum(&rs, &|r| r.mem.demand_reads),
            ),
        );
    }
    let baseline_of = |profile: &str| {
        runs.iter()
            .find(|(j, _, _)| {
                j.strategy == MetadataStrategyKind::Baseline && j.profile.name == profile
            })
            .map(|(_, r, _)| *r)
    };
    for s in STRATEGIES {
        let k = strategy_key(s);
        let rs = of(s);
        set(
            &format!("sim.ipc.{k}"),
            ratio(sum(&rs, &|r| r.instructions), sum(&rs, &|r| r.cpu_cycles())),
        );
        if s != MetadataStrategyKind::Baseline {
            let vs_base = |f: &dyn Fn(&RunReport, &RunReport) -> f64| -> f64 {
                let v: Vec<f64> = rs
                    .iter()
                    .filter_map(|(j, r, _)| baseline_of(j.profile.name).map(|b| f(r, b)))
                    .collect();
                geomean(&v).unwrap_or(0.0)
            };
            set(
                &format!("sim.speedup.{k}"),
                vs_base(&|r, b| r.speedup_vs(b)),
            );
            set(
                &format!("sim.energy_ratio.{k}"),
                vs_base(&|r, b| r.energy_ratio_vs(b)),
            );
        }
        set(
            &format!("dram.read_latency_ns.{k}"),
            BUS_CYCLE_NS
                * ratio(
                    sum(&rs, &|r| r.mem.read_latency_sum),
                    sum(&rs, &|r| r.mem.read_latency_count),
                ),
        );
        set(
            &format!("dram.bandwidth_gbps.{k}"),
            ratio(sum(&rs, &|r| r.mem.bytes), sum(&rs, &|r| r.bus_cycles)) / BUS_CYCLE_NS,
        );
        set(
            &format!("dram.row_hit_ratio.{k}"),
            ratio(
                sum(&rs, &|r| r.mem.row_hits),
                sum(&rs, &|r| r.mem.row_hits + r.mem.row_misses),
            ),
        );
        set(
            &format!("dram.drain_share.{k}"),
            ratio(
                sum(&rs, &|r| r.mem.drain_cycles),
                sum(&rs, &|r| r.mem.cycles * channels),
            ),
        );
    }
}
