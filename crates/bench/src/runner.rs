//! Run-configuration plumbing shared by the figure binaries.
//!
//! Environment knobs (all optional; see EXPERIMENTS.md):
//!
//! * `ATTACHE_QUICK` — fast smoke configuration (40k/8k instructions).
//! * `ATTACHE_INSTR` / `ATTACHE_WARMUP` — run length per core.
//! * `ATTACHE_SEED` — base seed; per-job seeds are derived from it.
//! * `ATTACHE_WORKERS` — worker threads for grid execution (default: all
//!   cores). Results are bit-identical for any worker count.
//! * `ATTACHE_RESULTS` — results directory (default `results`); the
//!   per-job report cache lives in its `cache/` subdirectory.
//! * `ATTACHE_NO_CACHE` — skip the report cache (recompute and do not
//!   save). Passing `--no-cache` to a figure binary does the same.
//! * `ATTACHE_BACKEND` — memory timing backend (`cycle` | `fast`; see
//!   docs/BACKENDS.md). An unknown value warns and falls back to the
//!   cycle reference — it must never kill a sweep mid-grid.

use attache_sim::{backend_from_env, env_u64, BackendKind, SimConfig};
use std::path::PathBuf;

/// Harness-level configuration, read from the environment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Measured instructions per core.
    pub instructions: u64,
    /// Warm-up instructions per core.
    pub warmup: u64,
    /// Base seed.
    pub seed: u64,
    /// Memory timing backend (`ATTACHE_BACKEND`). Part of every job's
    /// identity: a fast-model report must never satisfy a cycle-model
    /// cache probe.
    pub backend: BackendKind,
}

impl ExperimentConfig {
    /// Reads the configuration from the environment (see the crate docs).
    pub fn from_env() -> Self {
        if std::env::var("ATTACHE_QUICK").is_ok() {
            return Self {
                instructions: env_u64("ATTACHE_INSTR", 40_000),
                warmup: env_u64("ATTACHE_WARMUP", 8_000),
                seed: env_u64("ATTACHE_SEED", 42),
                backend: backend_from_env(),
            };
        }
        Self {
            instructions: env_u64("ATTACHE_INSTR", 600_000),
            warmup: env_u64("ATTACHE_WARMUP", 100_000),
            seed: env_u64("ATTACHE_SEED", 42),
            backend: backend_from_env(),
        }
    }

    /// The Table II simulator configuration at this run length.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig::table2_baseline()
            .with_instructions(self.instructions, self.warmup)
            .with_backend(self.backend)
    }

    /// A short tag identifying this configuration in cache file names.
    /// The backend marker appears only when it deviates from the cycle
    /// reference, so pre-existing exports keep their names.
    pub fn tag(&self) -> String {
        let base = format!("i{}_w{}_s{}", self.instructions, self.warmup, self.seed);
        match self.backend {
            BackendKind::Cycle => base,
            BackendKind::Fast => format!("{base}_bfast"),
        }
    }

    /// Worker threads for grid execution: `ATTACHE_WORKERS`, defaulting to
    /// the machine's parallelism. Per-job seeds make results independent
    /// of the worker count, so parallel is safe to default to.
    pub fn workers(&self) -> usize {
        let default = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        (env_u64("ATTACHE_WORKERS", default as u64) as usize).max(1)
    }

    /// Whether the per-job report cache is enabled. Disabled by the
    /// `ATTACHE_NO_CACHE` environment variable or a `--no-cache`
    /// command-line argument.
    pub fn cache_enabled(&self) -> bool {
        std::env::var_os("ATTACHE_NO_CACHE").is_none()
            && !std::env::args().any(|a| a == "--no-cache")
    }

    /// The results directory (`ATTACHE_RESULTS`, default `results`).
    pub fn results_dir(&self) -> PathBuf {
        PathBuf::from(std::env::var("ATTACHE_RESULTS").unwrap_or_else(|_| "results".into()))
    }

    /// The per-job report cache directory (`<results>/cache`).
    pub fn cache_dir(&self) -> PathBuf {
        self.results_dir().join("cache")
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Geometric mean of a non-empty slice of positive values.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn geo_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of an empty slice");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_marks_only_non_default_backends() {
        // Export stems keep their pre-backend-axis names on the cycle
        // reference; only a deviating backend earns a marker.
        let mut ec = ExperimentConfig {
            instructions: 10_000,
            warmup: 2_000,
            seed: 42,
            backend: BackendKind::Cycle,
        };
        assert_eq!(ec.tag(), "i10000_w2000_s42");
        ec.backend = BackendKind::Fast;
        assert_eq!(ec.tag(), "i10000_w2000_s42_bfast");
        assert_eq!(ec.sim_config().backend, BackendKind::Fast);
    }

    #[test]
    fn geo_mean_of_identical_values() {
        assert!((geo_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geo_mean_is_scale_symmetric() {
        let g = geo_mean(&[0.5, 2.0]);
        assert!((g - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn geo_mean_rejects_empty() {
        let _ = geo_mean(&[]);
    }
}
