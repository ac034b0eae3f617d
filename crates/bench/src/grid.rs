//! The parallel, cached experiment-execution engine.
//!
//! Every figure in the paper is a (workload × strategy × config-override)
//! grid of independent, seeded simulations. This module turns such a grid
//! into jobs and executes them on a [`std::thread::scope`]-based worker
//! pool, with two guarantees:
//!
//! * **Determinism.** Each job's seed is derived from `(base_seed,
//!   workload, strategy, overrides)` — never from execution order — so a
//!   parallel run is bit-identical to a serial one (`ATTACHE_WORKERS=1`),
//!   and to any other worker count.
//! * **Memoization.** Completed [`RunReport`]s are cached under
//!   `results/cache/`, keyed by a stable hash of the *full* job
//!   configuration (run length, base seed, workload, strategy, overrides,
//!   format version). Figure binaries that share grid points — fig12,
//!   fig13 and fig14 all consume the same 22×4 sweep — recompute nothing
//!   the previous binary already ran. The canonical key is embedded in
//!   each cache file, so a hash collision or a stale file from an older
//!   layout reads as a miss, never as wrong data.
//!
//! Each job emits one progress line on start and one on finish (or a
//! single line on a cache hit), so long sweeps stay legible:
//!
//! ```text
//! [attache-grid] [ 17/88] mcf/Attache running...
//! [attache-grid] [ 17/88] mcf/Attache done in 12.3s (bus_cycles=1876543)
//! [attache-grid] [ 18/88] lbm/Ideal cached (bus_cycles=1345678)
//! ```

use attache_core::copr::CoprConfig;
use attache_sim::{report_io, MetadataStrategyKind, Observation, RunReport, SimConfig, System};
use attache_workloads::{mixes, MixWorkload, Profile};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::runner::ExperimentConfig;

/// A workload referenced by name: either one rate-mode profile replicated
/// across all cores, or a named 8-threaded mix.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WorkloadRef {
    /// A rate-mode profile (all cores run the same benchmark).
    Rate(String),
    /// A mixed workload (one profile per core).
    Mix(String),
}

impl WorkloadRef {
    /// Resolves a catalog name: a profile name, else a mix name. The
    /// error lists every valid name, so a typo in a sweep script is a
    /// one-glance fix instead of a scavenger hunt.
    pub fn try_by_name(name: &str) -> Result<WorkloadRef, UnknownWorkload> {
        if Profile::by_name(name).is_some() {
            Ok(WorkloadRef::Rate(name.to_string()))
        } else if mixes().iter().any(|m| m.name == name) {
            Ok(WorkloadRef::Mix(name.to_string()))
        } else {
            Err(UnknownWorkload {
                name: name.to_string(),
            })
        }
    }

    /// Resolves a catalog name: a profile name, else a mix name.
    ///
    /// # Panics
    ///
    /// Panics when the name is in neither catalog; prefer
    /// [`try_by_name`](Self::try_by_name) where the name is user input.
    pub fn by_name(name: &str) -> WorkloadRef {
        Self::try_by_name(name).unwrap_or_else(|e| panic!("unknown workload {name:?}: {e}"))
    }

    /// The display name (as it appears in figures).
    pub fn name(&self) -> &str {
        match self {
            WorkloadRef::Rate(n) | WorkloadRef::Mix(n) => n,
        }
    }

    fn key(&self) -> String {
        match self {
            WorkloadRef::Rate(n) => format!("rate:{n}"),
            WorkloadRef::Mix(n) => format!("mix:{n}"),
        }
    }

    /// The workload's total occupied footprint in lines for `cores` cores
    /// (mirrors the `MemoryBackend` layout); sizes COPR's GI regions.
    fn occupied_lines(&self, cores: usize) -> u64 {
        match self {
            WorkloadRef::Rate(n) => {
                let p = Profile::by_name(n).expect("rate workload exists");
                p.footprint_lines * cores as u64
            }
            WorkloadRef::Mix(n) => {
                let mix = find_mix(n);
                mix.cores.iter().map(|p| p.footprint_lines).sum()
            }
        }
    }
}

/// Error for a workload name found in neither the profile nor the mix
/// catalog. The Display form lists every valid name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownWorkload {
    name: String,
}

impl std::fmt::Display for UnknownWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let profiles: Vec<String> = attache_workloads::all_rate_profiles()
            .iter()
            .map(|p| p.name.to_string())
            .collect();
        let mix_names: Vec<&'static str> = mixes().iter().map(|m| m.name).collect();
        write!(
            f,
            "workload {:?} is in neither catalog (profiles: {}; mixes: {})",
            self.name,
            profiles.join(", "),
            mix_names.join(", ")
        )
    }
}

impl std::error::Error for UnknownWorkload {}

/// Error for a mix name not in the mix catalog; Display lists the valid
/// names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownMix {
    name: String,
}

impl std::fmt::Display for UnknownMix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&'static str> = mixes().iter().map(|m| m.name).collect();
        write!(
            f,
            "mix {:?} is not in the catalog (valid mixes: {})",
            self.name,
            names.join(", ")
        )
    }
}

impl std::error::Error for UnknownMix {}

/// Looks a mix up by name, with an error listing the valid names.
pub fn try_find_mix(name: &str) -> Result<MixWorkload, UnknownMix> {
    mixes()
        .into_iter()
        .find(|m| m.name == name)
        .ok_or_else(|| UnknownMix {
            name: name.to_string(),
        })
}

fn find_mix(name: &str) -> MixWorkload {
    try_find_mix(name).unwrap_or_else(|e| panic!("unknown mix {name:?}: {e}"))
}

/// A declarative COPR composition (Fig. 17's ablation axis). Kept symbolic
/// so it can participate in cache keys; resolved to a [`CoprConfig`] sized
/// to the job's footprint at execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoprVariant {
    /// Page-Prediction only.
    PaprOnly,
    /// PaPR plus the Global-Information regions.
    PaprGi,
    /// The full predictor (PaPR + GI + LiPR) — the paper default.
    Full,
}

impl CoprVariant {
    fn key(&self) -> &'static str {
        match self {
            CoprVariant::PaprOnly => "papr",
            CoprVariant::PaprGi => "papr-gi",
            CoprVariant::Full => "full",
        }
    }

    fn config(&self, total_lines: u64) -> CoprConfig {
        let lines = total_lines.max(1);
        match self {
            CoprVariant::PaprOnly => CoprConfig::papr_only(lines),
            CoprVariant::PaprGi => CoprConfig::papr_gi(lines),
            CoprVariant::Full => CoprConfig::paper_default(lines),
        }
    }
}

/// Per-job deviations from the harness-level configuration. All fields
/// default to "inherit"; every set field becomes part of the job identity
/// (and therefore of its derived seed and cache key).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Overrides {
    /// Measured instructions per core.
    pub instructions: Option<u64>,
    /// Warm-up instructions per core.
    pub warmup: Option<u64>,
    /// BLEM CID width in bits (Table I's axis).
    pub cid_bits: Option<u8>,
    /// COPR composition (Fig. 17's axis).
    pub copr: Option<CoprVariant>,
    /// Caps the workload's footprint (in cache lines), forcing DRAM-level
    /// reuse into smoke-length runs. Chaos and executor tests use this to
    /// guarantee written-back lines are re-read within a few thousand
    /// instructions; the paper's grids leave it unset.
    pub footprint_lines: Option<u64>,
    /// Test hook: run with a *poisoned* mirror oracle (plus a small
    /// trace ring and a shrunken LLC), so the job deterministically
    /// panics on its first checked re-read — exercising the resilient
    /// executor's quarantine-and-continue path end to end.
    pub mirror_poison: bool,
}

impl Overrides {
    fn key(&self) -> String {
        let mut parts = Vec::new();
        if let Some(i) = self.instructions {
            parts.push(format!("instr={i}"));
        }
        if let Some(w) = self.warmup {
            parts.push(format!("warmup={w}"));
        }
        if let Some(c) = self.cid_bits {
            parts.push(format!("cid={c}"));
        }
        if let Some(v) = self.copr {
            parts.push(format!("copr={}", v.key()));
        }
        if let Some(f) = self.footprint_lines {
            parts.push(format!("fp={f}"));
        }
        if self.mirror_poison {
            // Part of the job identity: a poisoned run must never share
            // a cache entry or a seed with the healthy grid point.
            parts.push("poison".to_string());
        }
        if parts.is_empty() {
            "-".to_string()
        } else {
            parts.join(",")
        }
    }
}

/// One grid point: a workload under a strategy with optional overrides.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JobSpec {
    /// The workload to run.
    pub workload: WorkloadRef,
    /// The metadata strategy under test.
    pub strategy: MetadataStrategyKind,
    /// Per-job configuration deviations.
    pub overrides: Overrides,
}

impl JobSpec {
    /// A job with no overrides.
    pub fn new(workload: WorkloadRef, strategy: MetadataStrategyKind) -> Self {
        Self {
            workload,
            strategy,
            overrides: Overrides::default(),
        }
    }

    /// The job identity: everything that defines *what* is simulated,
    /// independent of run length. Feeds the seed derivation.
    fn identity(&self) -> String {
        format!(
            "{}|{}|{}",
            self.workload.key(),
            self.strategy,
            self.overrides.key()
        )
    }

    /// The deterministic per-job seed: a stable mix of the base seed and
    /// the job identity. Independent of grid composition and execution
    /// order, so parallel and serial runs agree bit-for-bit, and the same
    /// grid point always reuses its cache entry.
    pub fn seed(&self, base_seed: u64) -> u64 {
        splitmix64(base_seed ^ fnv1a64(self.identity().as_bytes()))
    }

    /// The canonical cache key: format version + run length + base seed +
    /// backend + identity. Changing any of these must miss the cache. The
    /// backend marker is appended only when it deviates from the cycle
    /// reference, so every cache entry written before that axis existed
    /// stays valid (the literal key is pinned by `tests/determinism.rs`).
    pub fn cache_key(&self, cfg: &ExperimentConfig) -> String {
        let backend = match cfg.backend {
            attache_sim::BackendKind::Cycle => "",
            attache_sim::BackendKind::Fast => "|b:fast",
        };
        format!(
            "{}|i{}|w{}|s{}{}|{}",
            report_io::FORMAT_VERSION,
            cfg.instructions,
            cfg.warmup,
            cfg.seed,
            backend,
            self.identity()
        )
    }

    pub(crate) fn cache_path(&self, cfg: &ExperimentConfig) -> PathBuf {
        let hash = fnv1a64(self.cache_key(cfg).as_bytes());
        cfg.cache_dir().join(format!("{hash:016x}.report"))
    }

    /// A short display label for progress lines.
    pub fn label(&self) -> String {
        let ov = self.overrides.key();
        if ov == "-" {
            format!("{}/{}", self.workload.name(), self.strategy)
        } else {
            format!("{}/{} [{ov}]", self.workload.name(), self.strategy)
        }
    }

    fn sim_config(&self, cfg: &ExperimentConfig) -> SimConfig {
        let mut sim = cfg.sim_config().with_strategy(self.strategy);
        if let Some(i) = self.overrides.instructions {
            sim.instructions_per_core = i;
        }
        if let Some(w) = self.overrides.warmup {
            sim.warmup_instructions_per_core = w;
        }
        if let Some(c) = self.overrides.cid_bits {
            sim.cid_bits = c;
        }
        if let Some(v) = self.overrides.copr {
            sim.copr = Some(v.config(self.workload.occupied_lines(sim.core.cores)));
        }
        if self.overrides.mirror_poison {
            sim = sim
                .with_mirror(true)
                .with_mirror_poison(true)
                .with_trace_ring(Some(64));
            // A tiny LLC guarantees dirty evictions and checked
            // re-reads even in smoke-length runs; without them the
            // poison never surfaces and the job cannot fail. Pair with
            // `Overrides::footprint_lines` so evicted lines get re-read.
            sim.llc.size_bytes = 16 << 10;
        }
        sim
    }

    /// Runs the simulation for this job (no cache involvement).
    pub fn execute(&self, cfg: &ExperimentConfig) -> RunReport {
        self.execute_observed(cfg).0
    }

    /// [`execute`](Self::execute) plus the run's observability output
    /// when any `ATTACHE_EPOCH`/`ATTACHE_TRACE_RING` knob is on.
    pub fn execute_observed(
        &self,
        cfg: &ExperimentConfig,
    ) -> (RunReport, Option<Observation>) {
        let sim = self.sim_config(cfg);
        let seed = self.seed(cfg.seed);
        match &self.workload {
            WorkloadRef::Rate(name) => {
                let mut p = Profile::by_name(name).expect("rate workload exists");
                if let Some(f) = self.overrides.footprint_lines {
                    p.footprint_lines = f;
                }
                System::run_rate_mode_observed(&sim, p, seed)
            }
            WorkloadRef::Mix(name) => {
                let mut mix = find_mix(name);
                if let Some(f) = self.overrides.footprint_lines {
                    for core in &mut mix.cores {
                        core.footprint_lines = f;
                    }
                }
                System::run_mix_observed(&sim, &mix, seed)
            }
        }
    }

    /// A file-system-safe stem for this job's observability exports:
    /// the label with separators flattened, plus the config tag.
    pub fn export_stem(&self, cfg: &ExperimentConfig) -> String {
        let mut stem = String::new();
        for c in self.label().chars() {
            match c {
                'a'..='z' | 'A'..='Z' | '0'..='9' | '-' | '_' | '.' => stem.push(c),
                _ => stem.push('_'),
            }
        }
        format!("{stem}_{}", cfg.tag())
    }
}

/// A declarative job matrix with a parallel, cached executor.
#[derive(Debug, Clone, Default)]
pub struct Grid {
    jobs: Vec<JobSpec>,
}

impl Grid {
    /// An empty grid.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one job.
    pub fn push(&mut self, job: JobSpec) -> &mut Self {
        self.jobs.push(job);
        self
    }

    /// Expands the (workloads × strategies) matrix, workloads-major — the
    /// row order the sweep figures expect.
    pub fn cross(workloads: &[WorkloadRef], strategies: &[MetadataStrategyKind]) -> Self {
        let mut grid = Self::new();
        for s in strategies {
            for w in workloads {
                grid.push(JobSpec::new(w.clone(), *s));
            }
        }
        grid
    }

    /// The jobs in execution order.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Executes every job — in parallel on `cfg.workers()` threads, through
    /// the report cache unless disabled — and returns the reports in job
    /// order (independent of completion order).
    pub fn run(&self, cfg: &ExperimentConfig) -> Vec<RunReport> {
        let total = self.jobs.len();
        let workers = cfg.workers();
        let use_cache = cfg.cache_enabled();
        if !use_cache {
            eprintln!("[attache-grid] report cache disabled (--no-cache / ATTACHE_NO_CACHE)");
        }
        let started = AtomicUsize::new(0);
        let reports = parallel_map(workers, &self.jobs, |_, job| {
            let key = job.cache_key(cfg);
            let path = job.cache_path(cfg);
            if use_cache {
                if let Some(report) = load_cached(&path, &key) {
                    let k = started.fetch_add(1, Ordering::Relaxed) + 1;
                    eprintln!(
                        "[attache-grid] [{k:>3}/{total}] {} cached (bus_cycles={})",
                        job.label(),
                        report.bus_cycles
                    );
                    return report;
                }
            }
            let k = started.fetch_add(1, Ordering::Relaxed) + 1;
            eprintln!("[attache-grid] [{k:>3}/{total}] {} running...", job.label());
            let t = Instant::now();
            let (report, observation) = job.execute_observed(cfg);
            eprintln!(
                "[attache-grid] [{k:>3}/{total}] {} done in {:.1}s (bus_cycles={})",
                job.label(),
                t.elapsed().as_secs_f64(),
                report.bus_cycles
            );
            if let Some(obs) = observation {
                // Metric/series exports land next to the results so a
                // sweep under ATTACHE_EPOCH leaves one time-series per
                // executed job. (Cached jobs skip the simulation, so no
                // observation exists for them; use ATTACHE_NO_CACHE to
                // force re-execution when collecting series.)
                let dir = cfg.results_dir().join("series");
                let stem = job.export_stem(cfg);
                if let Err(e) = report_io::write_observation(&dir, &stem, &obs) {
                    eprintln!("[attache-grid] warning: observability export failed: {e}");
                }
            }
            if use_cache {
                store_cached(&path, &report, &key);
            }
            report
        });
        reports
    }
}

pub(crate) fn load_cached(path: &PathBuf, key: &str) -> Option<RunReport> {
    let text = std::fs::read_to_string(path).ok()?;
    let report = report_io::from_text(&text, Some(key));
    if report.is_none() {
        // A torn write, bit rot, or a stale file from an older layout:
        // all are recoverable by recomputing, so degrade to a miss — but
        // loudly, because a cache that silently churns is a perf bug.
        eprintln!(
            "[attache-grid] warning: cache file {} is corrupt or stale; ignoring it (cache miss)",
            path.display()
        );
    }
    report
}

pub(crate) fn store_cached(path: &PathBuf, report: &RunReport, key: &str) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    // Write-then-rename so a crashed or concurrent run can never leave a
    // torn file that a later run would half-parse.
    let tmp = path.with_extension("tmp");
    let text = report_io::to_text(report, key);
    match std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, path)) {
        Ok(()) => {}
        Err(e) => eprintln!(
            "[attache-grid] warning: could not cache report at {}: {e}",
            path.display()
        ),
    }
}

/// Runs `f` over `items` on a scoped worker pool and returns the results
/// in item order (not completion order). The generic workhorse beneath
/// [`Grid::run`], also used directly by the functional sweeps (Figs. 4, 5,
/// 8 and 16).
pub fn parallel_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i, &items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker completed every claimed item")
        })
        .collect()
}

pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use attache_sim::BackendKind;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig {
            instructions: 10_000,
            warmup: 2_000,
            seed: 42,
            backend: BackendKind::Cycle,
        }
    }

    #[test]
    fn seeds_are_stable_and_distinct_across_grid_points() {
        let a = JobSpec::new(WorkloadRef::Rate("mcf".into()), MetadataStrategyKind::Attache);
        let b = JobSpec::new(WorkloadRef::Rate("lbm".into()), MetadataStrategyKind::Attache);
        let c = JobSpec::new(WorkloadRef::Rate("mcf".into()), MetadataStrategyKind::Baseline);
        assert_eq!(a.seed(42), a.seed(42), "same job, same seed");
        assert_ne!(a.seed(42), b.seed(42), "workload changes the seed");
        assert_ne!(a.seed(42), c.seed(42), "strategy changes the seed");
        assert_ne!(a.seed(42), a.seed(43), "base seed changes the seed");
        let mut d = a.clone();
        d.overrides.cid_bits = Some(10);
        assert_ne!(a.seed(42), d.seed(42), "overrides change the seed");
    }

    #[test]
    fn cache_key_covers_run_length_and_seed() {
        let job = JobSpec::new(WorkloadRef::Rate("mcf".into()), MetadataStrategyKind::Attache);
        let base = job.cache_key(&cfg());
        let mut longer = cfg();
        longer.instructions = 20_000;
        assert_ne!(base, job.cache_key(&longer));
        let mut reseeded = cfg();
        reseeded.seed = 7;
        assert_ne!(base, job.cache_key(&reseeded));
    }

    #[test]
    fn changed_config_hash_misses_the_report_cache() {
        // The memo must be keyed by the *full* job configuration: storing
        // a report under one config and probing with a changed one must
        // miss — both at the path level (different file) and at the
        // content level (embedded canonical key rejects the stale file
        // even if the paths ever collided).
        let job = JobSpec::new(WorkloadRef::Rate("mcf".into()), MetadataStrategyKind::Attache);
        let base = ExperimentConfig {
            instructions: 300,
            warmup: 0,
            seed: 42,
            backend: BackendKind::Cycle,
        };
        let report = job.execute(&base);
        let dir = std::env::temp_dir().join(format!(
            "attache-grid-cache-test-{}",
            std::process::id()
        ));
        let path = dir.join("report.report");
        let key = job.cache_key(&base);
        store_cached(&path, &report, &key);
        assert_eq!(
            load_cached(&path, &key),
            Some(report),
            "identical config must hit the memo (report roundtrips bit-exactly)"
        );
        for changed in [
            ExperimentConfig { instructions: 600, warmup: 0, seed: 42, backend: BackendKind::Cycle },
            ExperimentConfig { instructions: 300, warmup: 100, seed: 42, backend: BackendKind::Cycle },
            ExperimentConfig { instructions: 300, warmup: 0, seed: 43, backend: BackendKind::Cycle },
            ExperimentConfig { instructions: 300, warmup: 0, seed: 42, backend: BackendKind::Fast },
        ] {
            let changed_key = job.cache_key(&changed);
            assert_ne!(key, changed_key, "config change must change the key");
            assert_ne!(
                job.cache_path(&base),
                job.cache_path(&changed),
                "config change must change the cache file"
            );
            assert!(
                load_cached(&path, &changed_key).is_none(),
                "a stored report must never satisfy a changed config"
            );
        }
        // An override is part of the job identity, so it must re-key too.
        let mut narrowed = job.clone();
        narrowed.overrides.cid_bits = Some(10);
        assert_ne!(key, narrowed.cache_key(&base));
        assert_ne!(job.cache_path(&base), narrowed.cache_path(&base));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cross_is_workloads_major_per_strategy() {
        let w = [
            WorkloadRef::Rate("mcf".into()),
            WorkloadRef::Rate("lbm".into()),
        ];
        let s = [
            MetadataStrategyKind::Baseline,
            MetadataStrategyKind::Attache,
        ];
        let grid = Grid::cross(&w, &s);
        let labels: Vec<String> = grid.jobs().iter().map(|j| j.label()).collect();
        assert_eq!(
            labels,
            [
                "mcf/Baseline",
                "lbm/Baseline",
                "mcf/Attache",
                "lbm/Attache"
            ]
        );
    }

    #[test]
    fn parallel_map_preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(7, &items, |i, &x| {
            // Finish out of order on purpose.
            if i % 3 == 0 {
                std::thread::yield_now();
            }
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn workload_by_name_resolves_both_catalogs() {
        assert_eq!(
            WorkloadRef::by_name("mcf"),
            WorkloadRef::Rate("mcf".into())
        );
        assert_eq!(
            WorkloadRef::by_name("mix1"),
            WorkloadRef::Mix("mix1".into())
        );
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_workload_panics() {
        let _ = WorkloadRef::by_name("no-such-benchmark");
    }

    #[test]
    #[should_panic(expected = "unknown mix")]
    fn unknown_mix_panics() {
        let _ = find_mix("no-such-mix");
    }

    #[test]
    fn unknown_name_errors_list_the_catalogs() {
        let e = WorkloadRef::try_by_name("no-such-benchmark").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("no-such-benchmark"), "{msg}");
        assert!(msg.contains("mcf"), "must list profiles: {msg}");
        assert!(msg.contains("mix1"), "must list mixes: {msg}");
        let e = try_find_mix("no-such-mix").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("mix1"), "must list mixes: {msg}");
    }

    #[test]
    fn corrupt_cache_file_reads_as_miss() {
        let dir = std::env::temp_dir().join(format!(
            "attache-grid-corrupt-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.report");
        std::fs::write(&path, "}{ definitely not a report \u{0}\u{1}").unwrap();
        assert!(
            load_cached(&path, "any-key").is_none(),
            "garbage must degrade to a miss, not a panic or a bogus report"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fast_backend_re_keys_the_cache_and_cycle_keys_stay_legacy_stable() {
        // The backend marker must split the cache (a fast-model report
        // can never satisfy a cycle probe) while leaving cycle-model keys
        // byte-identical to the pre-backend-axis format, so the existing
        // cache population survives the upgrade.
        let job = JobSpec::new(WorkloadRef::Rate("mcf".into()), MetadataStrategyKind::Attache);
        let cycle = cfg();
        let mut fast = cfg();
        fast.backend = BackendKind::Fast;
        assert!(
            !job.cache_key(&cycle).contains("|b:"),
            "cycle keys must not grow a backend marker: {}",
            job.cache_key(&cycle)
        );
        assert!(job.cache_key(&fast).contains("|b:fast|"));
        assert_ne!(job.cache_path(&cycle), job.cache_path(&fast));
        // The sim config actually routes the selection to the simulator.
        assert_eq!(job.sim_config(&fast).backend, BackendKind::Fast);
        assert_eq!(job.sim_config(&cycle).backend, BackendKind::Cycle);
    }

    #[test]
    fn poison_override_changes_the_job_identity() {
        let healthy =
            JobSpec::new(WorkloadRef::Rate("mcf".into()), MetadataStrategyKind::Attache);
        let mut poisoned = healthy.clone();
        poisoned.overrides.mirror_poison = true;
        assert_ne!(healthy.seed(42), poisoned.seed(42));
        assert_ne!(healthy.cache_key(&cfg()), poisoned.cache_key(&cfg()));
        assert!(poisoned.label().contains("poison"), "{}", poisoned.label());
        let sim = poisoned.sim_config(&cfg());
        assert!(sim.mirror && sim.mirror_poison);
        assert_eq!(sim.trace_ring, Some(64));
    }
}
