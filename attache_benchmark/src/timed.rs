//! The timed part of a run: set-up time, whole passes over a workload's
//! jobs, and the correctness gate every job passes through.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use attache_sim::{report_io, EngineKind, MetadataStrategyKind, RunReport, System};
use attache_workloads::Profile;

use crate::stats::{fnv64, median};
use crate::workloads::{pinned_config, Scale, STRATEGIES};

/// One simulation: a profile under a strategy.
#[derive(Debug, Clone)]
pub struct Job {
    pub profile: Profile,
    pub strategy: MetadataStrategyKind,
}

impl Job {
    pub fn label(&self) -> String {
        format!("{}/{}", self.profile.name, self.strategy)
    }
}

/// Every (profile, strategy) pair of a workload, profile-major.
pub fn jobs_of(profiles: &[Profile]) -> Vec<Job> {
    profiles
        .iter()
        .flat_map(|p| {
            STRATEGIES.iter().map(|&strategy| Job {
                profile: p.clone(),
                strategy,
            })
        })
        .collect()
}

/// What one timed job produced. `report` is `None` when it panicked.
#[derive(Debug)]
pub struct JobOutcome {
    pub wall_s: f64,
    pub report: Option<RunReport>,
    pub failures: Vec<String>,
}

/// Runs one simulation, turning a panic into an error message.
pub fn simulate(
    job: &Job,
    instructions: u64,
    warmup: u64,
    engine: EngineKind,
    seed: u64,
) -> Result<RunReport, String> {
    let cfg = pinned_config(job.strategy, instructions, warmup).with_engine(engine);
    let profile = job.profile.clone();
    catch_unwind(AssertUnwindSafe(|| {
        System::run_rate_mode(&cfg, profile, seed)
    }))
    .map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        format!("panicked: {msg}")
    })
}

/// Set-up time of one pass: for each job, the median wall time of
/// `reps` one-instruction runs (construction dominates them), summed.
pub fn setup_seconds(jobs: &[Job], seed: u64, reps: usize) -> Result<f64, String> {
    let mut total = 0.0;
    for job in jobs {
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            simulate(job, 1, 0, EngineKind::Event, seed)
                .map_err(|e| format!("{} set-up {e}", job.label()))?;
            samples.push(t.elapsed().as_secs_f64());
        }
        total += median(&samples).expect("reps >= 1");
    }
    Ok(total)
}

/// Model invariants every report must satisfy, whatever the workload.
pub fn invariant_failures(
    strategy: MetadataStrategyKind,
    r: &RunReport,
    target: u64,
) -> Vec<String> {
    let mut out = Vec::new();
    if r.instructions < target || r.instructions as f64 > target as f64 * 1.01 {
        out.push(format!(
            "retired {} instructions, outside [{target}, {target} x 1.01]",
            r.instructions
        ));
    }
    let metadata = r.mem.metadata_reads + r.mem.metadata_writes;
    if strategy != MetadataStrategyKind::MetadataCache && metadata != 0 {
        out.push(format!(
            "{metadata} metadata requests without a metadata cache"
        ));
    }
    if r.copr.is_some() != (strategy == MetadataStrategyKind::Attache) {
        out.push(format!(
            "COPR statistics present = {} for {strategy}",
            r.copr.is_some()
        ));
    }
    if strategy == MetadataStrategyKind::Oracle && r.mem.corrective_reads != 0 {
        out.push(format!(
            "Ideal issued {} corrective reads",
            r.mem.corrective_reads
        ));
    }
    out
}

/// Runs `count` whole passes over `jobs`.
pub fn run_passes(
    jobs: &[Job],
    scale: &Scale,
    seed: u64,
    cores: u64,
    count: usize,
) -> Vec<Vec<JobOutcome>> {
    let target = cores * scale.instructions;
    let mut passes: Vec<Vec<JobOutcome>> = Vec::with_capacity(count);
    for pass_no in 1..=count {
        let t_pass = Instant::now();
        let mut pass = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            let t = Instant::now();
            let result = simulate(
                job,
                scale.instructions,
                scale.warmup,
                EngineKind::Event,
                seed,
            );
            let wall_s = t.elapsed().as_secs_f64();
            let mut failures = Vec::new();
            let report = match result {
                Ok(r) => {
                    failures.extend(invariant_failures(job.strategy, &r, target));
                    if let Some(first) = passes.first().and_then(|p| p[i].report.as_ref()) {
                        if *first != r {
                            failures.push(format!("report differs from pass 1 in pass {pass_no}"));
                        }
                    }
                    Some(r)
                }
                Err(e) => {
                    failures.push(e);
                    None
                }
            };
            pass.push(JobOutcome {
                wall_s,
                report,
                failures: failures
                    .into_iter()
                    .map(|f| format!("{}: {f}", job.label()))
                    .collect(),
            });
        }
        println!(
            "pass {pass_no}: {} jobs in {:.3} s",
            pass.len(),
            t_pass.elapsed().as_secs_f64()
        );
        passes.push(pass);
    }
    passes
}

/// FNV-64 over the serialized pass-1 reports: two runs agree on it exactly
/// when every simulated statistic agrees.
pub fn fingerprint(jobs: &[Job], pass: &[JobOutcome]) -> u64 {
    let mut text = String::new();
    for (job, outcome) in jobs.iter().zip(pass) {
        match &outcome.report {
            Some(r) => text.push_str(&report_io::to_text(r, &job.label())),
            None => text.push_str(&format!("FAILED {}\n", job.label())),
        }
    }
    fnv64(text.as_bytes())
}

/// The run's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(strategy: MetadataStrategyKind) -> RunReport {
        let job = Job {
            profile: Profile::stream(),
            strategy,
        };
        simulate(&job, 2_000, 200, EngineKind::Event, 3).expect("tiny run completes")
    }

    #[test]
    fn invariants_hold_on_real_reports_and_catch_violations() {
        for s in STRATEGIES {
            let r = tiny(s);
            assert_eq!(
                invariant_failures(s, &r, 8 * 2_000),
                Vec::<String>::new(),
                "{s}"
            );
        }
        let mut r = tiny(MetadataStrategyKind::Oracle);
        r.mem.corrective_reads = 1;
        r.mem.metadata_reads = 2;
        r.instructions = 1;
        r.copr = Some(Default::default());
        assert_eq!(
            invariant_failures(MetadataStrategyKind::Oracle, &r, 8 * 2_000).len(),
            4
        );
    }

    #[test]
    fn panics_become_errors() {
        let err = simulate(
            &Job {
                profile: Profile {
                    footprint_lines: 0,
                    ..Profile::stream()
                },
                strategy: MetadataStrategyKind::Attache,
            },
            100,
            0,
            EngineKind::Event,
            1,
        );
        assert!(err.is_err(), "an empty footprint cannot be simulated");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
